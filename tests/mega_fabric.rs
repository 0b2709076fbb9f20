//! End-to-end fleet-scale arbitration on the `MegaFabricRig`:
//! `Topology::fat_tree(8, 16)` — 128 ToR devices in 8 pods — carrying
//! zipf-ranked tenants whose load is quiet except for a rotating churn
//! set, driven through the `FleetController`.
//!
//! The run pins the three contracts the incremental pipeline exists for:
//!
//! * **(a) equivalence** — `Incremental` and `FullRescore` make
//!   bit-identical decisions on the same trace (the per-app proptests
//!   pin this at small scale; this is the fleet-scale rig trace);
//! * **(b) work** — the dirty-app queue does an order of magnitude less
//!   candidate scoring than the full re-score, deterministically (wall
//!   clock is the job of `BENCHMARK.json`'s `fleet_quiet` /
//!   `fleet_rescore` — scored candidates cannot vary with machine speed);
//! * **(c) determinism** — the same seed replays the same schedule,
//!   shift for shift.

use inc::ondemand::{ArbitrationMode, FleetController, FleetShift};
use inc_bench::rigs::MegaFabricRig;

const SEED: u64 = 20260808;

fn run(tenants: usize, ticks: u64, mode: ArbitrationMode) -> (Vec<FleetShift>, FleetController) {
    let mut rig = MegaFabricRig::new(tenants, SEED);
    let mut ctl = rig.controller(mode);
    rig.run(&mut ctl, ticks);
    (ctl.shifts().to_vec(), ctl)
}

fn assert_same_shifts(full: &[FleetShift], inc: &[FleetShift]) {
    assert_eq!(full.len(), inc.len(), "shift counts diverged");
    for (f, i) in full.iter().zip(inc) {
        assert_eq!(f.at, i.at);
        assert_eq!(f.app, i.app);
        assert_eq!(f.to, i.to);
        assert_eq!(f.reason, i.reason);
        assert_eq!(f.rate_pps.to_bits(), i.rate_pps.to_bits());
        assert_eq!(f.benefit_w.to_bits(), i.benefit_w.to_bits());
    }
}

#[test]
fn incremental_matches_full_rescore_on_the_rig_trace() {
    let (full, full_ctl) = run(300, 250, ArbitrationMode::FullRescore);
    let (inc, inc_ctl) = run(300, 250, ArbitrationMode::Incremental);
    assert!(!full.is_empty(), "the trace must exercise the scheduler");
    assert_same_shifts(&full, &inc);
    assert_eq!(full_ctl.placements(), inc_ctl.placements());
    // The full mode solved all 8 pods every tick; the incremental mode
    // only the dirty ones.
    assert_eq!(full_ctl.stats().pods_solved, 8 * 250);
    assert!(
        inc_ctl.stats().pods_solved < full_ctl.stats().pods_solved / 4,
        "incremental solved {} of {} pod problems",
        inc_ctl.stats().pods_solved,
        full_ctl.stats().pods_solved
    );
}

#[test]
fn incremental_scores_an_order_of_magnitude_fewer_candidates() {
    let (_, full_ctl) = run(1000, 300, ArbitrationMode::FullRescore);
    let (_, inc_ctl) = run(1000, 300, ArbitrationMode::Incremental);
    let full_scored = full_ctl.stats().candidates_scored;
    let inc_scored = inc_ctl.stats().candidates_scored;
    assert!(
        inc_scored * 10 <= full_scored,
        "incremental scored {inc_scored} candidates vs full {full_scored}: less than 10x apart"
    );
}

#[test]
fn the_same_seed_replays_the_same_schedule() {
    let (a, _) = run(500, 200, ArbitrationMode::Incremental);
    let (b, _) = run(500, 200, ArbitrationMode::Incremental);
    assert!(!a.is_empty());
    assert_same_shifts(&a, &b);
}
