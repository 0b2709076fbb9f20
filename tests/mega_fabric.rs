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
//!   shift for shift;
//! * **(d) a quiet tick touches only what can move** — past the
//!   dead-band scan, a tick evaluates the gates of the warm set alone
//!   (`ArbiterStats::gates_evaluated`), identically in both modes, and
//!   what the tick maintains incrementally for that
//!   (`FleetController::check_indexes`) agrees with a recomputation
//!   after every tick of every run here.

use inc::ondemand::{ArbitrationMode, FleetController, FleetControllerConfig, FleetShift};
use inc::sim::Nanos;
use inc_bench::rigs::MegaFabricRig;

const SEED: u64 = 20260808;

/// Drives `ctl` over the rig's first `ticks` intervals, checking the
/// controller's incremental indexes after each.
fn drive(rig: &mut MegaFabricRig, ctl: &mut FleetController, ticks: u64) {
    for tick in 1..=ticks {
        ctl.sample(Nanos::from_secs(tick), rig.tick_samples(tick));
        if let Err(e) = ctl.check_indexes() {
            panic!("tick {tick}: {e}");
        }
    }
}

fn run(tenants: usize, ticks: u64, mode: ArbitrationMode) -> (Vec<FleetShift>, FleetController) {
    let mut rig = MegaFabricRig::new(tenants, SEED);
    let mut ctl = rig.controller(mode);
    drive(&mut rig, &mut ctl, ticks);
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

/// The deterministic gate on stage 1's cost: after the scan, a tick
/// looks only at tenants whose gates can move — a fifth of the fleet at
/// most on this trace, the same ones in both modes, and none at all in
/// a fleet where no tenant ever clears the offload floor.
#[test]
fn a_tick_evaluates_only_the_gates_that_can_move() {
    let (tenants, ticks) = (1000, 300);
    let (_, full_ctl) = run(tenants, ticks, ArbitrationMode::FullRescore);
    let (_, inc_ctl) = run(tenants, ticks, ArbitrationMode::Incremental);
    let evaluated = inc_ctl.stats().gates_evaluated;
    assert_eq!(evaluated, full_ctl.stats().gates_evaluated);
    assert!(evaluated > 0, "the trace must exercise the gates");
    assert!(
        evaluated * 5 <= tenants as u64 * ticks,
        "{evaluated} gate evaluations over {tenants} tenants x {ticks} ticks: more than 20 %"
    );

    // The same fleet under a floor nobody's benefit reaches: every
    // tenant stays cold, so nothing past the scan ever runs.
    let mut rig = MegaFabricRig::new(tenants, SEED);
    let seed = rig.controller(ArbitrationMode::Incremental);
    let config = FleetControllerConfig {
        min_benefit_w: 1e9,
        ..*seed.config()
    };
    let mut cold = FleetController::new(config, MegaFabricRig::fabric(), seed.apps().to_vec());
    drive(&mut rig, &mut cold, ticks);
    assert_eq!(cold.stats().gates_evaluated, 0);
    assert!(cold.shifts().is_empty());
}

#[test]
fn the_same_seed_replays_the_same_schedule() {
    let (a, _) = run(500, 200, ArbitrationMode::Incremental);
    let (b, _) = run(500, 200, ArbitrationMode::Incremental);
    assert!(!a.is_empty());
    assert_same_shifts(&a, &b);
}

/// Asking why moves nothing: a controller asked to explain every tenant
/// after every tick logs the schedule of one never asked, bit for bit,
/// and every bid it reports scores exactly what `price` says at the
/// tenant's held rate.
#[test]
fn explaining_every_tenant_after_every_tick_moves_nothing() {
    const TENANTS: usize = 80;
    const TICKS: u64 = 150;
    let (unasked, _) = run(TENANTS, TICKS, ArbitrationMode::Incremental);
    let mut rig = MegaFabricRig::new(TENANTS, SEED);
    let mut ctl = rig.controller(ArbitrationMode::Incremental);
    let mut bids = 0;
    for tick in 1..=TICKS {
        ctl.sample(Nanos::from_secs(tick), rig.tick_samples(tick));
        for app in 0..TENANTS {
            let record = ctl.explain(app);
            for b in &record.bids {
                let priced = ctl.price(app, b.device, record.held_rate_pps);
                assert_eq!(
                    b.score.to_bits(),
                    priced.score.to_bits(),
                    "tick {tick}, {b:?}"
                );
                bids += 1;
            }
        }
    }
    assert!(unasked.len() >= 10, "only {} shifts", unasked.len());
    assert!(bids > 1_000, "only {bids} bids");
    assert_same_shifts(&unasked, ctl.shifts());
}
