//! The eight scheduling scenarios as one table.
//!
//! A row names a rig, a horizon, a sampling interval and the labelled
//! controllers it is judged under — the on-demand fleet schedule first,
//! then each baseline. `inc-bench scenario <name>` prints a row's
//! [`Scenario::report`]; `tests/golden_schedules.rs` pins the same rows'
//! decisions bit for bit, so what the CLI prints and what the goldens
//! pin cannot drift.

use inc_hw::{DeviceId, Placement};
use inc_ondemand::{ClaimPolicy, FleetController, FleetTimeline, Objective};
use inc_sim::Nanos;

use crate::consensus::{ConsensusRig, Fault, NodeRef};
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
    /// Builds a fresh rig whose rate profiles span the horizon (the
    /// first time) and runs the controller on it until the stop time
    /// (the second).
    rig: fn(&mut FleetController, Nanos, Nanos) -> FleetTimeline,
}

const PACKET_DAY: Nanos = Nanos::from_millis(3_500);
const SW: Placement = Placement::Software;

fn shared_device(ctl: &mut FleetController, horizon: Nanos, until: Nanos) -> FleetTimeline {
    let (kvs, dns) = SharedDeviceRig::contended_profiles(horizon);
    SharedDeviceRig::new(42, 512, 512, kvs, dns).run(ctl, until)
}

fn multi_tor(ctl: &mut FleetController, horizon: Nanos, until: Nanos) -> FleetTimeline {
    let profiles = MultiTorRig::contended_profiles(horizon);
    MultiTorRig::new(42, 512, 512, profiles).run(ctl, until)
}

fn contended_fabric(ctl: &mut FleetController, horizon: Nanos, until: Nanos) -> FleetTimeline {
    ContendedFabricRig::new(ContendedFabricRig::contended_profiles(horizon)).run(ctl, until)
}

fn pod_fabric(ctl: &mut FleetController, horizon: Nanos, until: Nanos) -> FleetTimeline {
    PodFabricRig::new(PodFabricRig::contended_profiles(horizon)).run(ctl, until)
}

const A0: NodeRef = NodeRef::Acceptor(0);
const L0: NodeRef = NodeRef::Leader(0);

/// Acceptor 0's ToR dies under it; the acceptor's software fallback is
/// up one interval later.
const DEVICE_KILL: &[(u64, Fault)] = &[
    (4, Fault::DeviceDown(DeviceId(0))),
    (4, Fault::Kill(A0)),
    (5, Fault::Revive(A0)),
];

/// Row `device_kill`'s rig: seed 11 under [`DEVICE_KILL`].
pub fn device_kill_rig() -> ConsensusRig {
    ConsensusRig::new(11, DEVICE_KILL)
}

/// Pod 0 goes dark: both its ToRs, acceptor 0 and the incumbent leader.
const TOR_PARTITION: &[(u64, Fault)] = &[
    (4, Fault::DeviceDown(DeviceId(0))),
    (4, Fault::DeviceDown(DeviceId(1))),
    (4, Fault::Partition(&[A0, L0])),
];

/// Row `tor_partition`'s rig: seed 12 under [`TOR_PARTITION`].
pub fn tor_partition_rig() -> ConsensusRig {
    ConsensusRig::new(12, TOR_PARTITION)
}

/// A 20 W offload floor, over every role's ~7.6 W benefit, for two
/// sustain windows; relaxed to 1 W; then flapped every interval, faster
/// than the sustain window.
const BUDGET_FLAP: &[(u64, Fault)] = &[
    (4, Fault::MinBenefit(20.0)),
    (10, Fault::MinBenefit(1.0)),
    (13, Fault::MinBenefit(20.0)),
    (14, Fault::MinBenefit(1.0)),
    (15, Fault::MinBenefit(20.0)),
    (16, Fault::MinBenefit(1.0)),
    (17, Fault::MinBenefit(20.0)),
    (18, Fault::MinBenefit(1.0)),
    (19, Fault::MinBenefit(20.0)),
    (20, Fault::MinBenefit(1.0)),
    (21, Fault::MinBenefit(20.0)),
    (22, Fault::MinBenefit(1.0)),
    (23, Fault::MinBenefit(20.0)),
    (24, Fault::MinBenefit(1.0)),
];

/// Row `budget_flap`'s rig: seed 13 under [`BUDGET_FLAP`].
pub fn budget_flap_rig() -> ConsensusRig {
    ConsensusRig::new(13, BUDGET_FLAP)
}

/// The table: every scheduling scenario the repository runs.
pub static SCENARIOS: [Scenario; 8] = [
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
    Scenario {
        name: "device_kill",
        about: "a ToR dies under a Paxos acceptor: forced eviction, re-offload on the spare ToR",
        horizon: Nanos::from_secs(12),
        interval: Nanos::from_secs(1),
        busy: (Nanos::from_secs(4), Nanos::from_secs(12)),
        controllers: &[("fleet", ConsensusRig::fleet_controller)],
        rig: |ctl, _, until| device_kill_rig().run(ctl, until),
    },
    Scenario {
        name: "tor_partition",
        about: "a Paxos pod is cut off: the new leader's tenant follows the election",
        horizon: Nanos::from_secs(14),
        interval: Nanos::from_secs(1),
        busy: (Nanos::from_secs(4), Nanos::from_secs(14)),
        controllers: &[("fleet", ConsensusRig::fleet_controller)],
        rig: |ctl, _, until| tor_partition_rig().run(ctl, until),
    },
    Scenario {
        name: "budget_flap",
        about:
            "the offload floor over Paxos roles: a sustained rise evicts, a fast flap moves none",
        horizon: Nanos::from_secs(25),
        interval: Nanos::from_secs(1),
        busy: (Nanos::from_secs(4), Nanos::from_secs(25)),
        controllers: &[("fleet", ConsensusRig::fleet_controller)],
        rig: |ctl, _, until| budget_flap_rig().run(ctl, until),
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
        self.run_until(label, self.horizon)
    }

    /// [`Scenario::run`], stopped at the first tick at or after `stop`.
    fn run_until(&self, label: &str, stop: Nanos) -> (FleetController, FleetTimeline) {
        let entry = self.controllers.iter().find(|(l, _)| *l == label);
        let (_, build) = entry.unwrap_or_else(|| panic!("{} has no controller {label}", self.name));
        let mut controller = build(self.interval);
        let timeline = (self.rig)(&mut controller, self.horizon, stop);
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
                let record = controller.explain(app);
                println!(
                    "  {:>9}: {:>5.1} % of the busy window on a device, {:>3} intervals queued, {:?}",
                    controller.apps()[app].name,
                    100.0 * resident as f64 / rows as f64,
                    record.queued_intervals,
                    record.admission,
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

/// A float as a JSON number: `null` when it has none.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

impl Scenario {
    /// Replays the fleet schedule (the first controller) to the first
    /// tick at or after `at` and prints why `app` sits where it does:
    /// its [`AppRecord`](inc_ondemand::AppRecord), each bid's
    /// [`Price`](inc_ondemand::Price) terms and whether the bid's device
    /// has room now, and the app's last shift; then the same as one JSON
    /// object (the last line). Returns `false`, printing nothing, when
    /// the scenario has no such app or `at` lies past the horizon.
    pub fn explain(&self, app: &str, at: Nanos) -> bool {
        let (label, build) = self.controllers[0];
        let Some(i) = build(self.interval)
            .apps()
            .iter()
            .position(|a| a.name == app)
        else {
            return false;
        };
        if at > self.horizon {
            return false;
        }
        // The first tick comes one interval in: stopping at 0 runs it.
        let (ctl, timeline) = self.run_until(label, at.max(Nanos::from_nanos(1)));
        let tick = timeline.per_app[i]
            .rows()
            .last()
            .map_or(0.0, |r| r.t.as_secs_f64());
        let rec = ctl.explain(i);
        println!(
            "# explain {} / {label}: {app} at the tick of {tick:.2} s",
            self.name
        );
        println!("{rec:#?}");
        let mut bids = Vec::new();
        for b in &rec.bids {
            let p = ctl.price(i, b.device, rec.held_rate_pps);
            let seated = Some(b.device) == rec.placement.device();
            let room = seated || ctl.fabric().device(b.device).fits(&ctl.apps()[i].demand);
            println!(
                "bid on {} (tier {}): raw {:+.3} W, value {:+.3}, debit {:.3}, cost {:.3}, \
                 score {:+.3}; {}",
                b.device,
                b.dist,
                p.raw_w,
                p.value,
                p.debit,
                p.cost_units,
                p.score,
                match (seated, room) {
                    (true, _) => "its seat",
                    (false, true) => "room now",
                    (false, false) => "no room now",
                }
            );
            bids.push(format!(
                "{{\"device\":\"{}\",\"tier\":{},\"raw_w\":{},\"value\":{},\"debit\":{},\
                 \"cost_units\":{},\"score\":{},\"seated\":{seated},\"room\":{room}}}",
                b.device,
                b.dist,
                num(p.raw_w),
                num(p.value),
                num(p.debit),
                num(p.cost_units),
                num(p.score)
            ));
        }
        let last = ctl.shifts().iter().rev().find(|s| s.app == i);
        let last = last.map_or("null".to_string(), |s| {
            println!(
                "last shift at {:.2} s to {} at {:.1} kpps, {:+.3}: {:?}",
                s.at.as_secs_f64(),
                plc(s.to),
                s.rate_pps / 1e3,
                s.benefit_w,
                s.reason
            );
            format!(
                "{{\"t_s\":{},\"to\":\"{}\",\"rate_pps\":{},\"benefit_w\":{},\"reason\":\"{:?}\"}}",
                s.at.as_secs_f64(),
                plc(s.to),
                num(s.rate_pps),
                num(s.benefit_w),
                s.reason
            )
        });
        println!(
            "{{\"scenario\":\"{}\",\"controller\":\"{label}\",\"app\":\"{app}\",\"t_s\":{tick},\
             \"placement\":\"{}\",\"admission\":\"{:?}\",\"dirty\":{},\"held_rate_pps\":{},\
             \"held_value\":{},\"floor\":{},\"delivered\":{},\"up_streak\":{},\"down_streak\":{},\
             \"starved_streak\":{},\"sustain_samples\":{},\"starvation_threshold\":{},\
             \"queued_intervals\":{},\"entitlement\":{},\"dominant_share\":{},\"fair_hold\":{},\
             \"claims\":{},\"bids\":[{}],\"last_shift\":{last}}}",
            self.name,
            plc(rec.placement),
            rec.admission,
            rec.dirty,
            num(rec.held_rate_pps),
            num(rec.held_value),
            num(rec.floor),
            rec.delivered.map_or("null".into(), num),
            rec.up_streak,
            rec.down_streak,
            rec.starved_streak,
            ctl.config().sustain_samples,
            rec.starvation_threshold,
            rec.queued_intervals,
            num(rec.entitlement),
            num(rec.dominant_share),
            rec.fair_hold,
            rec.claims.len(),
            bids.join(",")
        );
        true
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

    /// `inc-bench explain` answers for an app of the row up to its
    /// horizon, and refuses (printing nothing) anything else.
    #[test]
    fn explain_answers_within_the_horizon_and_refuses_the_rest() {
        let s = scenario("fairness").expect("listed");
        assert!(!s.explain("no-such-app", Nanos::from_secs(1)));
        assert!(!s.explain("kvs", s.horizon + Nanos::from_nanos(1)));
        assert!(s.explain("kvs", s.horizon));
        assert!(s.explain("kvs-bulk", Nanos::ZERO));
    }
}
