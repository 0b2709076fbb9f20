//! Streaming-telemetry equivalence across every end-to-end rig: each
//! scenario runs twice under identical controllers — once with
//! `RowLog::Full` (the pre-refactor measurement plane the fig6/fig7
//! plots and e2e tests read) and once with a bounded `RowLog::Recent`
//! ring — and the full-span answers must agree *bit for bit*.
//!
//! The contract under test is the one `Timeline` documents: full-span
//! queries are answered from the streaming accumulators in both modes,
//! and those accumulators fold rows in push order, i.e. the exact f64
//! operation sequence the legacy row loops performed. No tolerances,
//! no epsilons — `to_bits()` equality on `energy_j`, `mean_power_w` and
//! `mean_throughput_pps`, decision-log equality, plus the one metric
//! that is *allowed* to differ, `median_latency_ns`, pinned inside the
//! histogram sketch's 1/32 relative-error bound. The heavy-traffic
//! fat-tree rig (mega-fabric topology) carries the same assertions in
//! `inc_bench::heavy`'s unit tests.

use inc::ondemand::{FleetTimeline, RowLog};
use inc::sim::Nanos;
use inc_bench::rigs::{ContendedFabricRig, MultiTorRig, PodFabricRig, SharedDeviceRig};

/// Bounded-ring capacity used for every streaming run: far fewer rows
/// than any scenario produces, so the runs prove O(1) retention, not
/// just "the ring happened to keep everything".
const CAP: usize = 16;

/// Asserts the streaming run reproduced the full-log run's telemetry
/// bit for bit over the whole span, with the median inside the sketch
/// bound and the row ring bounded by its capacity.
fn assert_equivalent(full: &FleetTimeline, recent: &FleetTimeline, span_to: Nanos) {
    assert_eq!(
        full.energy_j.to_bits(),
        recent.energy_j.to_bits(),
        "fleet energy diverged"
    );
    assert_eq!(full.shifts, recent.shifts, "decision logs diverged");
    assert_eq!(full.per_app.len(), recent.per_app.len());
    for (app, (f, r)) in full.per_app.iter().zip(&recent.per_app).enumerate() {
        assert_eq!(f.total_rows(), r.total_rows(), "app {app} row counts");
        assert!(
            f.total_rows() > CAP as u64,
            "app {app}: scenario too short ({} rows) to exercise eviction",
            f.total_rows()
        );
        assert!(
            r.retained_rows() <= 2 * CAP,
            "app {app}: ring retained {} rows (cap {CAP})",
            r.retained_rows()
        );
        assert_eq!(
            f.energy_j().to_bits(),
            r.energy_j().to_bits(),
            "app {app} energy diverged"
        );
        let (fp, rp) = (
            f.mean_power_w(Nanos::ZERO, span_to),
            r.mean_power_w(Nanos::ZERO, span_to),
        );
        assert_eq!(
            fp.map(f64::to_bits),
            rp.map(f64::to_bits),
            "app {app} mean power diverged"
        );
        let (ft, rt) = (
            f.mean_throughput_pps(Nanos::ZERO, span_to),
            r.mean_throughput_pps(Nanos::ZERO, span_to),
        );
        assert_eq!(
            ft.map(f64::to_bits),
            rt.map(f64::to_bits),
            "app {app} mean throughput diverged"
        );
        // The median is the one full-span query the streaming mode
        // answers from a sketch instead of the exact order statistic:
        // the sketch returns a bucket upper bound, so it sits in
        // [exact, exact * (1 + 1/32) + 1].
        match (
            f.median_latency_ns(Nanos::ZERO, span_to),
            r.median_latency_ns(Nanos::ZERO, span_to),
        ) {
            (Some(exact), Some(sketch)) => {
                assert!(
                    sketch >= exact && sketch <= exact + exact / 32 + 1,
                    "app {app} median {sketch} outside sketch bound of exact {exact}"
                );
            }
            (f_med, r_med) => assert_eq!(f_med, r_med, "app {app} median presence diverged"),
        }
    }
}

#[test]
fn shared_device_rig_streams_without_changing_telemetry() {
    const PERIOD: Nanos = Nanos::from_millis(3_500);
    const HORIZON: Nanos = Nanos::from_millis(3_500);
    const INTERVAL: Nanos = Nanos::from_millis(150);
    let run = |mode| {
        let (kvs, dns) = SharedDeviceRig::contended_profiles(PERIOD);
        let mut rig = SharedDeviceRig::new(42, 512, 512, kvs, dns);
        rig.row_log = mode;
        let mut ctl = SharedDeviceRig::fleet_controller(INTERVAL);
        rig.run(&mut ctl, HORIZON)
    };
    let full = run(RowLog::Full);
    let recent = run(RowLog::Recent(CAP));
    assert_equivalent(&full, &recent, HORIZON + INTERVAL);
}

#[test]
fn multi_tor_rig_streams_without_changing_telemetry() {
    const PERIOD: Nanos = Nanos::from_millis(3_500);
    const HORIZON: Nanos = Nanos::from_millis(3_500);
    const INTERVAL: Nanos = Nanos::from_millis(150);
    let run = |mode| {
        let mut rig = MultiTorRig::new(42, 512, 512, MultiTorRig::contended_profiles(PERIOD));
        rig.row_log = mode;
        let mut ctl = MultiTorRig::fleet_controller(INTERVAL);
        rig.run(&mut ctl, HORIZON)
    };
    let full = run(RowLog::Full);
    let recent = run(RowLog::Recent(CAP));
    assert_equivalent(&full, &recent, HORIZON + INTERVAL);
}

#[test]
fn contended_fabric_rig_streams_without_changing_telemetry() {
    const HORIZON: Nanos = Nanos::from_secs(8);
    const INTERVAL: Nanos = Nanos::from_millis(100);
    let mut rig = ContendedFabricRig::new(ContendedFabricRig::contended_profiles(HORIZON));
    let mut run = |mode| {
        rig.row_log = mode;
        let mut ctl = ContendedFabricRig::fleet_controller(INTERVAL);
        rig.run(&mut ctl, HORIZON)
    };
    let full = run(RowLog::Full);
    let recent = run(RowLog::Recent(CAP));
    assert_equivalent(&full, &recent, HORIZON + INTERVAL);
}

#[test]
fn pod_fabric_rig_streams_without_changing_telemetry() {
    use inc::ondemand::ClaimPolicy;
    const HORIZON: Nanos = Nanos::from_secs(10);
    const INTERVAL: Nanos = Nanos::from_millis(100);
    let mut rig = PodFabricRig::new(PodFabricRig::contended_profiles(HORIZON));
    let mut run = |mode| {
        rig.row_log = mode;
        let mut ctl = PodFabricRig::fleet_controller(INTERVAL, ClaimPolicy::MinCost);
        rig.run(&mut ctl, HORIZON)
    };
    let full = run(RowLog::Full);
    let recent = run(RowLog::Recent(CAP));
    assert_equivalent(&full, &recent, HORIZON + INTERVAL);
}

/// The streaming runs still expose enough recent rows for tail-window
/// queries (dashboards read the live edge, not the history): the last
/// retained row of the bounded run is the last row of the full run.
#[test]
fn bounded_ring_keeps_the_live_edge() {
    const HORIZON: Nanos = Nanos::from_secs(8);
    const INTERVAL: Nanos = Nanos::from_millis(100);
    let mut rig = ContendedFabricRig::new(ContendedFabricRig::contended_profiles(HORIZON));
    let mut run = |mode| {
        rig.row_log = mode;
        let mut ctl = ContendedFabricRig::fleet_controller(INTERVAL);
        rig.run(&mut ctl, HORIZON)
    };
    let full = run(RowLog::Full);
    let recent = run(RowLog::Recent(CAP));
    for (f, r) in full.per_app.iter().zip(&recent.per_app) {
        let last_full = f.rows().last().expect("full run produced rows");
        let last_recent = r.rows().last().expect("ring retained rows");
        assert_eq!(last_full.t, last_recent.t);
        assert_eq!(last_full.power_w.to_bits(), last_recent.power_w.to_bits());
        assert_eq!(last_full.placement, last_recent.placement);
        // And the retained suffix is a true suffix: same placements,
        // same timestamps, in order.
        let tail = &f.rows()[f.rows().len() - r.retained_rows()..];
        for (a, b) in tail.iter().zip(r.rows()) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.placement, b.placement);
        }
    }
}
