//! Heavy-traffic replay throughput curves: the per-event + full-row-log
//! measurement plane versus the streaming + batched one, on the
//! `HeavyTrafficRig` (fleet controller over the 128-device
//! fat-tree, google/etc/dynamo-grounded load). Both modes produce
//! bit-identical telemetry (the rig's tests pin it); the gap between
//! the curves is pure measurement-plane overhead — one simulator event per
//! request plus a `TimelineRow` per interval versus a tight batched
//! draw loop over O(1) aggregates. The example's `heavy_traffic.json`
//! reports the same ratio at full scale; this bench pins the curve
//! shape at two sizes so regressions in either plane show up in CI.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use inc_bench::heavy::{HeavyTrafficRig, ReplayMode};

const SEED: u64 = 20260809;

fn bench_heavy_traffic(c: &mut Criterion) {
    let mut g = c.benchmark_group("heavy_traffic");

    for (tenants, intervals) in [(4usize, 100u64), (8, 200)] {
        let rig = HeavyTrafficRig::new(tenants, SEED);
        for (label, mode) in [
            ("per_event_rows", ReplayMode::PerEventRows),
            ("streaming_batched", ReplayMode::StreamingBatched),
        ] {
            let name = format!("{label}_{tenants}tenants_x{intervals}");
            g.bench_function(&name, |bench| {
                bench.iter(|| black_box(rig.run(mode, intervals)))
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
    targets = bench_heavy_traffic
}
criterion_main!(benches);
