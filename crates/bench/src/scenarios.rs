//! The five scheduling scenarios as one table.
//!
//! A row names a rig, a horizon, a sampling interval and the labelled
//! controllers it is judged under — the on-demand fleet schedule first,
//! then each baseline. `inc-bench scenario <name>` prints a row's
//! [`Scenario::report`]; `tests/golden_schedules.rs` pins the same rows'
//! decisions bit for bit, so what the CLI prints and what the goldens
//! pin cannot drift.

use inc_hw::Placement;
use inc_ondemand::{ClaimPolicy, FleetController, FleetTimeline, Objective};
use inc_sim::Nanos;

use crate::economics::{self, EconomicsRig};
use crate::rigs::{ContendedFabricRig, MultiTorRig, PodFabricRig, SharedDeviceRig};

/// A labelled controller: the label `Scenario::run` takes and the
/// constructor for a given sampling interval.
pub type Labelled = (&'static str, fn(Nanos) -> FleetController);

/// One scheduling scenario.
pub struct Scenario {
    /// The name `inc-bench scenario` takes.
    pub name: &'static str,
    /// One line on what the scenario shows.
    pub about: &'static str,
    /// How long every controller runs.
    pub horizon: Nanos,
    /// Sampling interval of the control loop.
    pub interval: Nanos,
    /// The contended window the report's device-residency shares are
    /// taken over.
    pub busy: (Nanos, Nanos),
    /// The labelled controllers: the fleet schedule, then each baseline.
    pub controllers: &'static [Labelled],
    /// Builds a fresh rig and runs the controller on it to the horizon.
    rig: fn(&mut FleetController, Nanos) -> FleetTimeline,
}

const PACKET_DAY: Nanos = Nanos::from_millis(3_500);
const SW: Placement = Placement::Software;

fn shared_device(ctl: &mut FleetController, until: Nanos) -> FleetTimeline {
    let (kvs, dns) = SharedDeviceRig::contended_profiles(PACKET_DAY);
    SharedDeviceRig::new(42, 512, 512, kvs, dns).run(ctl, until)
}

fn multi_tor(ctl: &mut FleetController, until: Nanos) -> FleetTimeline {
    let profiles = MultiTorRig::contended_profiles(PACKET_DAY);
    MultiTorRig::new(42, 512, 512, profiles).run(ctl, until)
}

fn contended_fabric(ctl: &mut FleetController, until: Nanos) -> FleetTimeline {
    ContendedFabricRig::new(ContendedFabricRig::contended_profiles(until)).run(ctl, until)
}

fn pod_fabric(ctl: &mut FleetController, until: Nanos) -> FleetTimeline {
    PodFabricRig::new(PodFabricRig::contended_profiles(until)).run(ctl, until)
}

/// The table: every scheduling scenario the repository runs.
pub static SCENARIOS: [Scenario; 5] = [
    Scenario {
        name: "shared_device",
        about: "KVS and DNS arbitrated onto one capacity-bounded device over offset days",
        horizon: PACKET_DAY,
        interval: Nanos::from_millis(150),
        busy: (Nanos::ZERO, PACKET_DAY),
        controllers: &[
            ("fleet", SharedDeviceRig::fleet_controller),
            ("all-software", |i| {
                SharedDeviceRig::pinned_controller(i, [SW, SW])
            }),
            ("static-kvs", |i| {
                SharedDeviceRig::pinned_controller(i, [Placement::HARDWARE, SW])
            }),
            ("static-dns", |i| {
                SharedDeviceRig::pinned_controller(i, [SW, Placement::HARDWARE])
            }),
        ],
        rig: shared_device,
    },
    Scenario {
        name: "multi_tor",
        about: "KVS, DNS and Paxos placed across two ToRs: spill remote or stay in software",
        horizon: PACKET_DAY,
        interval: Nanos::from_millis(150),
        busy: (Nanos::ZERO, PACKET_DAY),
        controllers: &[
            ("fleet", MultiTorRig::fleet_controller),
            ("all-software", |i| {
                MultiTorRig::pinned_controller(i, [SW; 3])
            }),
            ("static-kvs@torA", |i| {
                let a = Placement::Device(MultiTorRig::TOR_A);
                MultiTorRig::pinned_controller(i, [a, SW, SW])
            }),
            ("static-dns+paxos@torB", |i| {
                let b = Placement::Device(MultiTorRig::TOR_B);
                MultiTorRig::pinned_controller(i, [SW, b, b])
            }),
        ],
        rig: multi_tor,
    },
    Scenario {
        name: "fairness",
        about: "four tenants in sustained contention: weighted DRF vs Paxos-starving pure benefit",
        horizon: Nanos::from_secs(8),
        interval: Nanos::from_millis(100),
        busy: (Nanos::from_millis(600), Nanos::from_millis(7_200)),
        controllers: &[
            ("fleet", ContendedFabricRig::fleet_controller),
            ("pure-benefit", ContendedFabricRig::pure_benefit_controller),
            ("all-software", |i| {
                ContendedFabricRig::pinned_controller(i, [SW; 4])
            }),
        ],
        rig: contended_fabric,
    },
    Scenario {
        name: "topology",
        about: "five tenants on 2 pods x 2 ToRs: near spills, min-cost vs best-score hand-overs",
        horizon: Nanos::from_secs(10),
        interval: Nanos::from_millis(100),
        busy: (Nanos::from_millis(800), Nanos::from_millis(7_000)),
        controllers: &[
            ("fleet", |i| {
                PodFabricRig::fleet_controller(i, ClaimPolicy::MinCost)
            }),
            ("best-score", |i| {
                PodFabricRig::fleet_controller(i, ClaimPolicy::BestScore)
            }),
            ("natural-static", |i| {
                PodFabricRig::pinned_controller(i, PodFabricRig::natural_static())
            }),
            ("all-software", |i| {
                PodFabricRig::pinned_controller(i, [SW; 5])
            }),
        ],
        rig: pod_fabric,
    },
    Scenario {
        name: "economics",
        about: "the topology day priced in joules, uniform dollars and a byte-charging tariff",
        horizon: economics::HORIZON,
        interval: economics::INTERVAL,
        busy: (Nanos::from_millis(800), Nanos::from_millis(7_000)),
        controllers: &[
            ("joules", |_| EconomicsRig::controller(Objective::Joules)),
            ("uniform-dollar", |_| {
                EconomicsRig::controller(economics::UNIFORM_DOLLAR)
            }),
            ("skewed-dollar", |_| {
                EconomicsRig::controller(economics::SKEWED_DOLLAR)
            }),
        ],
        rig: pod_fabric,
    },
];

/// Looks a scenario up by name.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

fn plc(p: Placement) -> String {
    match p {
        Placement::Software => "software".to_string(),
        Placement::Device(d) => format!("{d}"),
    }
}

impl Scenario {
    /// Runs the controller labelled `label` on a fresh rig to the
    /// horizon.
    ///
    /// # Panics
    ///
    /// Panics if the scenario has no such label.
    pub fn run(&self, label: &str) -> (FleetController, FleetTimeline) {
        let entry = self.controllers.iter().find(|(l, _)| *l == label);
        let (_, build) = entry.unwrap_or_else(|| panic!("{} has no controller {label}", self.name));
        let mut controller = build(self.interval);
        let timeline = (self.rig)(&mut controller, self.horizon);
        (controller, timeline)
    }

    /// Runs every labelled controller and prints, per label, the shift
    /// log, each tenant's device-resident share of the busy window with
    /// its queued intervals and admission verdict, and the metered
    /// energy; then one JSON object (the last line) with the joules and
    /// shift count per label.
    pub fn report(&self) {
        println!("# scenario {}: {}", self.name, self.about);
        let mut summary = Vec::new();
        for (label, _) in self.controllers {
            let (controller, timeline) = self.run(label);
            println!("\n=== {} / {label} ===", self.name);
            for s in controller.shifts() {
                println!(
                    "  t={:>5.2}s  {:>9} -> {:<8}  ({:>6.1} kpps, {:+5.1} W, {:?})",
                    s.at.as_secs_f64(),
                    controller.apps()[s.app].name,
                    plc(s.to),
                    s.rate_pps / 1e3,
                    s.benefit_w,
                    s.reason,
                );
            }
            for (app, t) in timeline.per_app.iter().enumerate() {
                let busy = |r: &&inc_ondemand::TimelineRow| r.t >= self.busy.0 && r.t < self.busy.1;
                let rows = t.rows().iter().filter(busy).count();
                let resident = t.rows().iter().filter(busy);
                let resident = resident.filter(|r| r.placement.is_offloaded()).count();
                println!(
                    "  {:>9}: {:>5.1} % of the busy window on a device, {:>3} intervals queued, {:?}",
                    controller.apps()[app].name,
                    100.0 * resident as f64 / rows as f64,
                    timeline.queued_intervals[app],
                    timeline.admission[app],
                );
            }
            let shifts = controller.shifts().len();
            println!("  energy {:.1} J, {shifts} shifts", timeline.energy_j);
            summary.push(format!(
                "\"{label}\":{{\"energy_j\":{},\"shifts\":{shifts}}}",
                timeline.energy_j
            ));
        }
        println!(
            "{{\"scenario\":\"{}\",\"horizon_s\":{},\"interval_s\":{},\"controllers\":{{{}}}}}",
            self.name,
            self.horizon.as_secs_f64(),
            self.interval.as_secs_f64(),
            summary.join(",")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_labels_are_unique_and_the_fleet_schedule_comes_first() {
        for (i, s) in SCENARIOS.iter().enumerate() {
            assert!(
                SCENARIOS[..i].iter().all(|o| o.name != s.name),
                "{}",
                s.name
            );
            assert!(std::ptr::eq(scenario(s.name).expect("listed"), s));
            for (j, (label, _)) in s.controllers.iter().enumerate() {
                let earlier = &s.controllers[..j];
                assert!(
                    earlier.iter().all(|(l, _)| l != label),
                    "{}/{label}",
                    s.name
                );
            }
            assert!(s.busy.0 < s.busy.1 && s.busy.1 <= s.horizon, "{}", s.name);
        }
        assert!(scenario("no-such-scenario").is_none());
    }
}
