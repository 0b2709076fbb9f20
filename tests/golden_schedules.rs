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
//!
//! Every rig and controller comes out of `inc_bench::scenarios::SCENARIOS`
//! by scenario name and controller label, so what
//! `inc-bench scenario <name>` prints is what is pinned here.

mod common;

use common::shift_log_digest;
use inc_bench::scenarios::scenario;

/// What one rig run decided and metered.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    shifts: usize,
    shift_digest: u64,
    energy_bits: u64,
    queued_intervals: Vec<u64>,
}

/// Runs the controller `label` of scenario `name` — the very row
/// `inc-bench scenario <name>` prints.
fn golden(name: &str, label: &str) -> Golden {
    let (ctl, timeline) = scenario(name).expect("a SCENARIOS row").run(label);
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
    assert_eq!(
        golden("shared_device", "fleet"),
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
    let got = ["fleet", "pure-benefit"].map(|label| golden("fairness", label));
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
        "[fleet (weighted DRF), pure-benefit]"
    );
}

#[test]
fn pod_fabric_rig_schedules_are_pinned() {
    let got = ["fleet", "best-score"].map(|label| golden("topology", label));
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
        "[fleet (min-cost), best-score]"
    );
}

#[test]
fn economics_rig_schedules_are_pinned() {
    let labels = ["joules", "uniform-dollar", "skewed-dollar"];
    let got = labels.map(|label| golden("economics", label));
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
        "{labels:?}"
    );
}
