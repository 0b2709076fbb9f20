//! Golden schedules: the full decision record of every scheduling rig,
//! pinned bit for bit.
//!
//! Each entry is a digest of the controller's whole `FleetShift` log
//! (`at`, `app`, `to`, `reason`, `rate_pps` bits, `benefit_w` bits), the
//! metered `FleetTimeline::energy_j` bits and the per-app
//! `queued_intervals`. They were recorded from the commit that still had
//! the flat sorted-scan controller behind these rigs, so a change to the
//! arbitration engine that moves a single decision, priced float or
//! queued interval on any rig fails here. (`MultiTorRig` is pinned the
//! same way, with its wire frames, in
//! `tests/multi_tor.rs::wire_frames_match_the_recorded_golden_runs`.)

mod common;

use common::shift_log_digest;
use inc::ondemand::{ClaimPolicy, FleetController, FleetTimeline, Objective};
use inc::sim::Nanos;
use inc_bench::economics::{self, EconomicsRig};
use inc_bench::rigs::{ContendedFabricRig, PodFabricRig, SharedDeviceRig};

/// What one rig run decided and metered.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    shifts: usize,
    shift_digest: u64,
    energy_bits: u64,
    queued_intervals: Vec<u64>,
}

fn golden(ctl: &FleetController, timeline: &FleetTimeline) -> Golden {
    assert_eq!(timeline.queued_intervals, ctl.queued_intervals());
    Golden {
        shifts: ctl.shifts().len(),
        shift_digest: shift_log_digest(ctl.shifts()),
        energy_bits: timeline.energy_j.to_bits(),
        queued_intervals: timeline.queued_intervals.clone(),
    }
}

fn recorded(
    shifts: usize,
    shift_digest: u64,
    energy_bits: u64,
    queued_intervals: &[u64],
) -> Golden {
    Golden {
        shifts,
        shift_digest,
        energy_bits,
        queued_intervals: queued_intervals.to_vec(),
    }
}

#[test]
fn shared_device_rig_schedule_is_pinned() {
    let period = Nanos::from_millis(3_500);
    let (kvs, dns) = SharedDeviceRig::contended_profiles(period);
    let mut rig = SharedDeviceRig::new(42, 512, 512, kvs, dns);
    let mut ctl = SharedDeviceRig::fleet_controller(Nanos::from_millis(150));
    let timeline = rig.run(&mut ctl, period);
    assert_eq!(
        golden(&ctl, &timeline),
        recorded(
            3,
            3_453_567_609_075_054_925,
            4_645_412_704_636_938_699,
            &[0, 0]
        )
    );
}

#[test]
fn contended_fabric_rig_schedules_are_pinned() {
    let horizon = Nanos::from_secs(8);
    let interval = Nanos::from_millis(100);
    let rig = ContendedFabricRig::new(ContendedFabricRig::contended_profiles(horizon));
    let controllers = [
        ContendedFabricRig::fleet_controller(interval),
        ContendedFabricRig::pure_benefit_controller(interval),
    ];
    let got = controllers.map(|mut ctl| {
        let timeline = rig.run(&mut ctl, horizon);
        golden(&ctl, &timeline)
    });
    assert_eq!(
        got,
        [
            recorded(
                16,
                12_512_209_672_113_739_835,
                4_655_464_188_539_632_048,
                &[0, 24, 26, 0]
            ),
            recorded(
                4,
                3_363_546_433_188_832_276,
                4_655_402_807_790_199_237,
                &[0, 0, 68, 0]
            ),
        ],
        "[weighted-DRF, pure benefit]"
    );
}

#[test]
fn pod_fabric_rig_schedules_are_pinned() {
    let horizon = Nanos::from_secs(10);
    let rig = PodFabricRig::new(PodFabricRig::contended_profiles(horizon));
    let got = [ClaimPolicy::MinCost, ClaimPolicy::BestScore].map(|policy| {
        let mut ctl = PodFabricRig::fleet_controller(Nanos::from_millis(100), policy);
        let timeline = rig.run(&mut ctl, horizon);
        golden(&ctl, &timeline)
    });
    assert_eq!(
        got,
        [
            recorded(
                20,
                16_345_425_671_335_014_589,
                4_657_940_843_537_961_411,
                &[0, 0, 0, 24, 24]
            ),
            recorded(
                20,
                3_035_041_926_078_851_860,
                4_657_990_214_554_100_889,
                &[24, 0, 0, 0, 24]
            ),
        ],
        "[MinCost, BestScore]"
    );
}

#[test]
fn economics_rig_schedules_are_pinned() {
    let rig = PodFabricRig::new(PodFabricRig::contended_profiles(economics::HORIZON));
    let objectives = [
        Objective::Joules,
        Objective::Dollar {
            per_joule: 1.0,
            per_gb_moved: 0.0,
        },
        Objective::Dollar {
            per_joule: 1.0,
            per_gb_moved: economics::SKEW_PER_GB,
        },
    ];
    let got = objectives.map(|objective| {
        let mut ctl = EconomicsRig::controller(objective);
        let timeline = rig.run(&mut ctl, economics::HORIZON);
        golden(&ctl, &timeline)
    });
    assert_eq!(
        got,
        [
            recorded(
                20,
                16_345_425_671_335_014_589,
                4_657_940_843_537_961_411,
                &[0, 0, 0, 24, 24]
            ),
            // A uniform tariff is a pure unit relabel of the joule schedule.
            recorded(
                20,
                16_345_425_671_335_014_589,
                4_657_940_843_537_961_411,
                &[0, 0, 0, 24, 24]
            ),
            recorded(
                20,
                15_817_301_002_118_637_180,
                4_658_003_079_457_631_600,
                &[24, 24, 0, 0, 0]
            ),
        ],
        "[joules, uniform dollar, skewed dollar]"
    );
}
