//! Golden schedules: the full decision record of every scheduling rig,
//! pinned bit for bit as text a reviewer can read.
//!
//! Each run is one file, `tests/golden/schedule_<scenario>_<label>.txt`:
//! one `at app to rate benefit reason` line per `FleetShift` (`at` in
//! nanoseconds, each float as its `to_bits` hex and a rounded decimal
//! for the eye), then an `energy` line with the metered
//! `FleetTimeline::energy_j` and one `queued app intervals` line per
//! app. A change to the arbitration engine that moves a single
//! decision, priced float or queued interval on any rig fails here with
//! the first divergent line. (`MultiTorRig` is pinned the same way, with
//! its wire frames, in `tests/multi_tor.rs`.) Re-record on purpose with
//! `cargo test --release --test golden_schedules -- --ignored
//! record_the_schedule_goldens`.
//!
//! Every rig and controller comes out of `inc_bench::scenarios::SCENARIOS`
//! by scenario name and controller label, so what
//! `inc-bench scenario <name>` prints is what is pinned here.

mod common;

use std::fmt::Write;
use std::path::PathBuf;

use common::first_divergence;
use inc_bench::scenarios::scenario;

/// Every pinned run: (scenario, controller label), one group per rig.
const SHARED_DEVICE: [(&str, &str); 1] = [("shared_device", "fleet")];
const CONTENDED_FABRIC: [(&str, &str); 2] = [("fairness", "fleet"), ("fairness", "pure-benefit")];
const POD_FABRIC: [(&str, &str); 2] = [("topology", "fleet"), ("topology", "best-score")];
const ECONOMICS: [(&str, &str); 3] = [
    ("economics", "joules"),
    ("economics", "uniform-dollar"),
    ("economics", "skewed-dollar"),
];
const CHAOS: [(&str, &str); 3] = [
    ("device_kill", "fleet"),
    ("tor_partition", "fleet"),
    ("budget_flap", "fleet"),
];

fn runs() -> impl Iterator<Item = (&'static str, &'static str)> {
    let rigs = [
        &SHARED_DEVICE[..],
        &CONTENDED_FABRIC,
        &POD_FABRIC,
        &ECONOMICS,
        &CHAOS,
    ];
    rigs.into_iter().flatten().copied()
}

fn golden_path(name: &str, label: &str) -> PathBuf {
    let file = format!("tests/golden/schedule_{name}_{label}.txt");
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(file)
}

/// Runs the controller `label` of scenario `name` — the very row
/// `inc-bench scenario <name>` prints — and writes down what it decided
/// and metered.
fn schedule_text(name: &str, label: &str) -> String {
    let (ctl, timeline) = scenario(name).expect("a SCENARIOS row").run(label);
    let mut text = String::new();
    for s in ctl.shifts() {
        let _ = writeln!(
            text,
            "{} {} {:?} {:016x} {:.3} {:016x} {:.6} {:?}",
            s.at.as_nanos(),
            s.app,
            s.to,
            s.rate_pps.to_bits(),
            s.rate_pps,
            s.benefit_w.to_bits(),
            s.benefit_w,
            s.reason
        );
    }
    let energy = timeline.energy_j;
    let _ = writeln!(text, "energy {:016x} {energy:.6}", energy.to_bits());
    for app in 0..ctl.apps().len() {
        let queued = ctl.explain(app).queued_intervals;
        let _ = writeln!(text, "queued {app} {queued}");
    }
    text
}

/// Fails with the first line where a run drifted from its golden file.
fn assert_pinned(runs: &[(&str, &str)]) {
    for &(name, label) in runs {
        let path = golden_path(name, label);
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Some(diff) = first_divergence(&schedule_text(name, label), &want) {
            panic!("{name} / {label} drifted ({}):\n{diff}", path.display());
        }
    }
}

#[test]
fn shared_device_rig_schedule_is_pinned() {
    assert_pinned(&SHARED_DEVICE);
}

/// Weighted DRF and pure benefit.
#[test]
fn contended_fabric_rig_schedules_are_pinned() {
    assert_pinned(&CONTENDED_FABRIC);
}

/// Min-cost and best-score hand-overs.
#[test]
fn pod_fabric_rig_schedules_are_pinned() {
    assert_pinned(&POD_FABRIC);
}

/// A uniform tariff is a pure unit relabel of the joule schedule, so
/// their two files are the same.
#[test]
fn economics_rig_schedules_are_pinned() {
    assert_pinned(&ECONOMICS);
}

/// The consensus roles under device death, ToR partition and an
/// offload-floor flap.
#[test]
fn chaos_rig_schedules_are_pinned() {
    assert_pinned(&CHAOS);
}

#[test]
#[ignore = "rewrites tests/golden/schedule_*.txt"]
fn record_the_schedule_goldens() {
    for (name, label) in runs() {
        let path = golden_path(name, label);
        std::fs::write(&path, schedule_text(name, label))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
