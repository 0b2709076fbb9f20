//! Fleet-scale arbitration scaling curves: the fleet controller's
//! two modes on the `MegaFabricRig` — `Topology::fat_tree(8, 16)` (128
//! ToR devices in 8 pods) carrying zipf-ranked tenants with a rotating
//! churn set. `FullRescore` re-solves all 8 pod knapsacks every interval;
//! `Incremental` touches only pods with a dirty tenant. The gap between
//! the two curves at each tenant count is the payoff of the dirty-app
//! queue, and how that gap widens with fleet size is the scaling story
//! the README's decisions/s table summarises.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use inc_bench::rigs::MegaFabricRig;
use inc_ondemand::ArbitrationMode;

const SEED: u64 = 20260808;
const TICKS: u64 = 150;

fn bench_mega_fabric(c: &mut Criterion) {
    let mut g = c.benchmark_group("mega_fabric");

    for tenants in [250usize, 500, 1000] {
        for (label, mode) in [
            ("full", ArbitrationMode::FullRescore),
            ("incremental", ArbitrationMode::Incremental),
        ] {
            let name = format!("{label}_{tenants}tenants_x{TICKS}");
            g.bench_function(&name, |bench| {
                bench.iter(|| {
                    let mut rig = MegaFabricRig::new(tenants, SEED);
                    let mut ctl = rig.controller(mode);
                    black_box(rig.run(&mut ctl, TICKS))
                })
            });
        }
    }

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    targets = bench_mega_fabric
}
criterion_main!(benches);
