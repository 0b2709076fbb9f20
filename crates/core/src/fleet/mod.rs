//! Multi-application on-demand scheduling over a fabric of devices: the
//! policy, its vocabulary and its prices.
//!
//! §9 evaluates each application with the programmable device to itself;
//! at production scale devices are shared, capacity-bounded resources —
//! and §9.4 widens the view from one card to a rack, where every ToR
//! hosts its own device and the controller decides *where* a program
//! runs, not just *whether* it is offloaded. The [`FleetController`]
//! extends the single-app [`HostController`] design to that fleet: every
//! sampling interval it reads one [`FleetSample`] per application, prices
//! each app's offload benefit with its §8 [`PlacementAnalysis`] at the
//! measured rate, applies the [`DeviceFabric`](inc_hw::DeviceFabric)'s
//! locality haircut for placements away from the app's home ToR, and
//! solves a greedy benefit-per-capacity-unit knapsack over the
//! **(app × device)** candidate set.
//!
//! This module is the *specification* side of that controller: the types
//! a caller hands it ([`FleetApp`], [`FleetSample`],
//! [`FleetControllerConfig`]), the record it produces ([`FleetShift`]),
//! and the pricing rules every decision goes through (`pricing` and
//! [`Objective`]). The engine that executes the policy
//! — the dirty-queue → pod-arbiter → coordinator pipeline — lives in
//! [`crate::arbiter`]; `oracle` holds a flat sorted-scan reference
//! implementation that the single-pod equivalence tests compare it with.
//!
//! The anti-flapping machinery is the [`HostController`]'s, generalised:
//!
//! * a *sustain window* — an app must stay profitable for
//!   [`FleetControllerConfig::sustain_samples`] consecutive samples before
//!   it may be offloaded ("avoiding harsh decisions based on spikes and
//!   outliers"), and must stay *un*profitable as long before it is pulled
//!   back;
//! * *asymmetric thresholds* — offload starts above
//!   [`FleetControllerConfig::min_benefit_w`] but eviction only below
//!   `min_benefit_w * evict_fraction`, leaving a dead band;
//! * *stickiness* — a resident app competes in the knapsack with its score
//!   **on its current device** multiplied by
//!   [`FleetControllerConfig::stickiness`], so a marginal newcomer cannot
//!   displace an incumbent of nearly equal value — and, equally, an app
//!   cannot ping-pong between ToRs: a move to another device is priced
//!   like a fresh offload and must beat the app's own sticky incumbent
//!   score. A clearly better alternative still wins: arbitration, not
//!   tenure;
//! * an explicit *migration cost* — reprogramming a device is not free
//!   (§9.2: reconfiguration halts the dataplane, and a moved program
//!   re-warms its state), so any move **between devices** is charged
//!   [`FleetControllerConfig::migration_cost_j`] amortised over the
//!   expected tenure of the new placement
//!   ([`FleetControllerConfig::expected_tenure_samples`] sampling
//!   intervals): the candidate's benefit is debited by
//!   `migration_cost_j / (tenure × interval)` watts. A hop that is worth
//!   less per interval than the switchover it triggers never happens,
//!   which suppresses the rack-to-rack ping-pong that stickiness alone
//!   cannot price (stickiness is a ratio; the debit is absolute joules).
//!
//! Rate feedback follows §9.1: while an app runs in software its offered
//! rate is measured at the host ([`FleetSample::offered_pps`]); once it is
//! hardware-resident the controller trusts only the network-measured rate
//! ([`HostSample::hw_app_rate`]), "otherwise, the shift may be
//! inefficient, or cause a workload to bounce back and forth".
//!
//! # Fair sharing and admission control
//!
//! A pure benefit-maximising knapsack lets one high-benefit tenant hold a
//! contended device forever while an also-profitable rival waits — at
//! production scale the switch is a shared resource, and (following Gray's
//! *Distributed Computing Economics*) placement must be arbitrated by
//! explicit share accounting, not raw throughput. The controller layers
//! **weighted dominant-resource fairness** over the knapsack:
//!
//! * every [`FleetApp`] carries a fair-share [`FleetApp::weight`]; a
//!   tenant's *dominant share* is the largest budget fraction its program
//!   occupies on its device (see `inc_hw::ResourceShares`), and its
//!   *entitlement* is `weight / Σ weights` over the currently contending
//!   tenants;
//! * a software tenant whose benefit stays above the floor but who gets
//!   no capacity is **queued** ([`AdmissionDecision::Queue`]); once it has
//!   been queued for its weighted starvation window
//!   (`starvation_window / weight` samples, floored by the sustain
//!   window) it files a *claim*: the scheduler plans a hand-over on every
//!   feasible device, **clipping** over-entitled incumbents (dominant
//!   share above entitlement) — most over-weighted-share first — until
//!   the claimant fits, then executes the plan the configured
//!   [`ClaimPolicy`] prefers. The standard policy is **min-cost**: the
//!   device minimising the total clipped-incumbent benefit plus the
//!   migration debits of everyone who must move — fairness buys the
//!   claimant its entitlement at the smallest energy price, instead of
//!   evicting whoever happens to hold the claimant's own favourite
//!   device ([`ClaimPolicy::BestScore`], kept for comparison);
//! * a fairness-placed tenant holds *tenure* until it leaves its device:
//!   it cannot be displaced by a raw-score preemption, only by a rival's
//!   own sustained claim or by its own low-benefit eviction (tenure
//!   converts preemption into claim-based hand-over). Because device
//!   programs are all-or-nothing, fair shares are realised **in time**:
//!   two claimants alternating at their weighted windows converge to
//!   device-time shares proportional to their weights;
//! * a tenant whose demand fits *no* device even empty (`cost_units > 1`
//!   or an unparseable header depth on every ToR) is rejected up front
//!   ([`AdmissionDecision::Reject`]): it never enters the candidate set,
//!   never queues, and never causes a shift — back-pressure is surfaced
//!   through [`FleetTimeline`](crate::system::FleetTimeline) instead of
//!   being discovered by thrash.
//!
//! Every recorded [`FleetShift`] carries a [`ShiftReason`] so timeline
//! analysis can tell benefit-driven moves from fairness-driven ones.
//!
//! [`HostController`]: crate::host::HostController

mod config;
mod objective;
#[doc(hidden)]
pub mod oracle;
pub(crate) mod pricing;

use inc_hw::{DeviceId, Placement, ProgramResources};
use inc_sim::Nanos;

use crate::decision::PlacementAnalysis;
use crate::host::HostSample;

pub use crate::arbiter::FleetController;
pub use config::{ArbitrationMode, ClaimPolicy, FleetControllerConfig};
pub use objective::Objective;
pub use pricing::ClaimPlan;

/// One schedulable application sharing the device fabric.
#[derive(Clone, Debug)]
pub struct FleetApp {
    /// Human-readable name (timelines, logs).
    pub name: String,
    /// Device resources the app's dataplane program occupies when
    /// offloaded (its capacity claim — the same on every device).
    pub demand: ProgramResources,
    /// The §8 energy analysis used to price the offload benefit at a
    /// given rate.
    pub analysis: PlacementAnalysis,
    /// The device on the app's own ToR: placements elsewhere pay the
    /// fabric's cross-ToR penalty.
    pub home: DeviceId,
    /// Fair-share weight (must be finite and positive; 1.0 = an equal
    /// tenant). Weight does **not** scale the knapsack score — benefit
    /// still decides *who wins uncontended capacity* — it scales the
    /// tenant's DRF entitlement and shortens its starvation window
    /// (`starvation_window / weight`), so a weight-2 tenant reclaims a
    /// contended device twice as fast and converges to twice the
    /// device-time share of a weight-1 rival.
    pub weight: f64,
}

/// The controller's verdict on a tenant's capacity demand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Resident on a device, or free to compete for one.
    Admit,
    /// Wants capacity (sustained profitable demand in software) but must
    /// wait for room: the back-pressure state.
    Queue,
    /// The demand fits no device in the fabric even when empty; the
    /// tenant will never be placed and never queues.
    Reject,
}

/// Why a recorded placement decision fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShiftReason {
    /// The benefit-per-capacity knapsack: a profitable offload into free
    /// capacity, a raw-score preemption, or a low-benefit eviction.
    Benefit,
    /// Weighted-DRF arbitration: a starved tenant claimed capacity, or
    /// an over-entitled incumbent was clipped to make room for one.
    FairShare,
    /// Admission control: a queued tenant entered capacity that freed up
    /// (the back-pressure queue draining).
    Admission,
    /// Failure response: the hosting device went offline and its tenants
    /// were force-evicted to software (§ the chaos suite's device-kill
    /// scenario). Unlike every other reason, this shift ignores
    /// hysteresis — a dead device's tenants cannot wait out a sustain
    /// window.
    DeviceLoss,
}

/// Per-application controller inputs for one sampling interval.
///
/// The rates are measurements and are read defensively: a non-finite or
/// negative reading (a meter that divided by zero, a counter that
/// wrapped) counts as 0 pps — see [`FleetSample::measured_pps`], the one
/// place the controllers read them.
#[derive(Clone, Copy, Debug)]
pub struct FleetSample {
    /// The host-side signals (RAPL, CPU share, network rate feedback).
    /// The current benefit-priced policy consults only
    /// [`HostSample::hw_app_rate`] (the §9.1 shift-back feedback); the
    /// RAPL and CPU fields are carried for parity with [`HostController`]
    /// and for threshold-style policies layered on top.
    ///
    /// [`HostController`]: crate::host::HostController
    pub host: HostSample,
    /// Offered application rate measured at the host, packets/second.
    /// Authoritative while the app is software-resident; ignored in favour
    /// of [`HostSample::hw_app_rate`] once it is offloaded.
    pub offered_pps: f64,
}

impl FleetSample {
    /// The rate a tenant placed at `placement` is scored at (§9.1): the
    /// network-measured [`HostSample::hw_app_rate`] on a device, the
    /// host-measured [`FleetSample::offered_pps`] in software. A NaN, ±∞
    /// or negative reading is 0 pps: NaN compares false against every
    /// gate and sorts above every finite score, so trusting it would let
    /// a broken meter pin a seat indefinitely.
    pub fn measured_pps(&self, placement: Placement) -> f64 {
        let rate = match placement {
            Placement::Device(_) => self.host.hw_app_rate,
            Placement::Software => self.offered_pps,
        };
        // Every tenant pays this every tick, so it is one integer
        // compare: the bit patterns below +∞'s are exactly the finite
        // non-negative floats (a set sign bit, +∞ and every NaN are
        // above).
        if rate.to_bits() < f64::INFINITY.to_bits() {
            rate
        } else {
            0.0
        }
    }
}

/// A record of one fleet placement decision.
#[derive(Clone, Copy, Debug)]
pub struct FleetShift {
    /// When the decision fired.
    pub at: Nanos,
    /// Index of the app that moved.
    pub app: usize,
    /// The new placement.
    pub to: Placement,
    /// The rate estimate that priced the decision, packets/second.
    pub rate_pps: f64,
    /// The estimated benefit at that rate, in objective units (watts
    /// under the default [`Objective::Joules`]) — penalty-adjusted for
    /// the target device when the shift is an offload.
    pub benefit_w: f64,
    /// What drove the decision: raw benefit, a fair-share claim/clip, or
    /// admission control draining its queue.
    pub reason: ShiftReason,
}

/// Why an app sits where it does: what [`FleetController::explain`]
/// reads off the controller when asked. Values are in objective units
/// (watts under the default [`Objective::Joules`]).
#[derive(Clone, Debug)]
pub struct AppRecord {
    /// Where the app runs now.
    pub placement: Placement,
    /// Its admission verdict: rejected up front, queued for capacity, or
    /// admitted.
    pub admission: AdmissionDecision,
    /// Whether the last tick's dirty queue held it, i.e. re-scored it.
    pub dirty: bool,
    /// The held scoring rate, packets/second: the last measurement that
    /// left the dead band (NaN before the first sample).
    pub held_rate_pps: f64,
    /// The objective-priced raw benefit at the held rate.
    pub held_value: f64,
    /// The offload floor a value must clear.
    pub floor: f64,
    /// What the app delivers where it sits (the held value behind its
    /// seat's haircut and detour); `None` in software.
    pub delivered: Option<f64>,
    /// Consecutive samples its held value cleared the floor: a fresh bid
    /// needs [`FleetControllerConfig::sustain_samples`] of them.
    pub up_streak: u32,
    /// Consecutive samples a resident delivered below the eviction
    /// band: it leaves at [`FleetControllerConfig::sustain_samples`].
    pub down_streak: u32,
    /// Consecutive samples it has spent queued.
    pub starved_streak: u32,
    /// The starved streak at which it files a fairness claim: the
    /// starvation window scaled down by its weight, floored by the
    /// sustain window.
    pub starvation_threshold: u32,
    /// Samples it has spent queued over the run: the back-pressure it
    /// has absorbed.
    pub queued_intervals: u64,
    /// Its weighted-DRF entitlement: its weight over the summed weights
    /// of every tenant contending for the fabric (resident or queued),
    /// itself included.
    pub entitlement: f64,
    /// The largest budget fraction its program holds on its device (0.0
    /// in software): what fairness compares with the entitlement.
    pub dominant_share: f64,
    /// Whether it holds fair-share tenure (placed by a claim, so no raw
    /// score can preempt it).
    pub fair_hold: bool,
    /// The bids a solve prices for it, in arbitration order.
    pub bids: Vec<Bid>,
    /// The fairness hand-overs a claim by it would weigh now, at every
    /// app's held rate: one per device where it clears the floor and a
    /// clip sequence of over-entitled incumbents frees room. Unordered:
    /// rank with [`ClaimPlan::total_cost_w`] ascending for
    /// [`ClaimPolicy::MinCost`], [`ClaimPlan::score`] descending for
    /// [`ClaimPolicy::BestScore`]. Empty for a resident or a rejected
    /// app, which file no claims.
    pub claims: Vec<ClaimPlan>,
}

/// One bid of an [`AppRecord`]: one price for its app on every device it
/// offers.
#[derive(Clone, Copy, Debug)]
pub struct Bid {
    /// Benefit per capacity unit: the arbitration key
    /// ([`FleetController::price`]'s score at the held rate).
    pub score: f64,
    /// Hop tiers from the app's home (0 home, 1 same pod, 2 across the
    /// core).
    pub dist: u32,
    /// The device it offers, or the first of them in ascending index
    /// (a class bid offers every online device of one budget class at
    /// this distance but the seat): where a solve tries to seat the app
    /// first. The app's own device makes this its sticky bid.
    pub device: DeviceId,
}

/// The terms of one placement's price ([`FleetController::price`]).
#[derive(Clone, Copy, Debug)]
pub struct Price {
    /// The §8 saving of offloading at the rate, watts, before any
    /// locality penalty (negative when software is cheaper).
    pub raw_w: f64,
    /// The objective-priced raw benefit behind the hop tier's haircut,
    /// minus the objective-priced detour cost.
    pub value: f64,
    /// The amortised migration debit a move to this device pays: zero
    /// for a software app and on the app's own seat.
    pub debit: f64,
    /// The app's capacity cost on the device, in budget fractions
    /// (floored so a zero-demand app scores finite).
    pub cost_units: f64,
    /// `(value - debit) / cost_units`, times the stickiness premium on
    /// the app's own seat.
    pub score: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use inc_hw::{DeviceFabric, PipelineBudget, TierCost, Topology};
    use inc_power::EnergyParams;

    /// A synthetic analysis with software dynamic slope `slope_w_per_pps`
    /// and a flat hardware curve: benefit(r) ≈ slope * r - unpark_w.
    fn analysis(slope_w_per_kpps: f64, unpark_w: f64) -> PlacementAnalysis {
        PlacementAnalysis {
            software: EnergyParams {
                idle_w: 50.0,
                sleep_w: 0.0,
                active_w: 50.0 + slope_w_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 50.0 + unpark_w,
                sleep_w: 0.0,
                active_w: 50.0 + unpark_w + 0.1,
                peak_rate_pps: 10_000_000.0,
            },
        }
    }

    fn app(name: &str, stages: u32, slope: f64, unpark: f64) -> FleetApp {
        app_homed(name, stages, slope, unpark, DeviceId::LOCAL)
    }

    fn app_homed(name: &str, stages: u32, slope: f64, unpark: f64, home: DeviceId) -> FleetApp {
        FleetApp {
            name: name.into(),
            demand: ProgramResources {
                stages,
                sram_bytes: 1 << 20,
                parse_depth_bytes: 64,
            },
            analysis: analysis(slope, unpark),
            home,
            weight: 1.0,
        }
    }

    /// Single device with 12 stages: a 7-stage and a 6-stage app cannot
    /// co-reside.
    fn contended() -> DeviceFabric {
        DeviceFabric::single(PipelineBudget::tofino_like())
    }

    /// Two 12-stage ToRs in one pod with the standard intra-pod cost.
    fn two_tors() -> DeviceFabric {
        DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(
                1,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        )
    }

    /// A one-pod pair of ToRs with a custom haircut and no link energy.
    fn haircut_pair(benefit_factor: f64) -> Topology {
        Topology::rack_pairs(
            1,
            TierCost {
                extra_latency: Nanos::from_micros(2),
                benefit_factor,
                link_energy_nj: 0.0,
            },
            TierCost::standard_inter_pod(),
        )
    }

    fn sample(offered: f64, hw_rate: f64) -> FleetSample {
        FleetSample {
            host: HostSample {
                rapl_w: 50.0,
                app_cpu_util: 0.5,
                hw_app_rate: hw_rate,
            },
            offered_pps: offered,
        }
    }

    fn t(s: u64) -> Nanos {
        Nanos::from_secs(s)
    }

    fn cfg() -> FleetControllerConfig {
        FleetControllerConfig::standard(Nanos::from_secs(1))
    }

    /// A truthful reading passes through bit for bit — every finite
    /// non-negative float, subnormals and `f64::MAX` included — from the
    /// meter the placement names; anything else reads as idle.
    #[test]
    fn measured_rate_is_the_placements_meter_or_zero() {
        let on_device = Placement::Device(DeviceId::LOCAL);
        for ok in [0.0, 5e-324, f64::MIN_POSITIVE, 1.0, 123_456.789, f64::MAX] {
            let s = sample(ok, -7.0);
            assert_eq!(s.measured_pps(Placement::Software).to_bits(), ok.to_bits());
            assert_eq!(s.measured_pps(on_device), 0.0);
            let s = sample(f64::NAN, ok);
            assert_eq!(s.measured_pps(on_device).to_bits(), ok.to_bits());
            assert_eq!(s.measured_pps(Placement::Software), 0.0);
        }
        for hostile in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -5e-324,
        ] {
            let s = sample(hostile, hostile);
            assert_eq!(s.measured_pps(Placement::Software).to_bits(), 0);
            assert_eq!(s.measured_pps(on_device).to_bits(), 0);
        }
    }

    #[test]
    fn offloads_higher_score_app_when_only_one_fits() {
        // Both apps profitable and sustained; app 1 has double the
        // benefit per stage.
        let apps = vec![
            app("a", 7, 0.08, 2.0), // at 100 kpps: 6 W over 7 stages
            app("b", 6, 0.14, 2.0), // at 100 kpps: 12 W over 6 stages
        ];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        // hw_app_rate mirrors the offered rate so the network feedback
        // agrees with the host measurement once an app is resident.
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=2 {
            assert!(ctl.sample(t(step), &s).is_empty(), "sustain not yet met");
        }
        let d = ctl.sample(t(3), &s);
        assert_eq!(d, vec![(1, Placement::HARDWARE)]);
        // App 0 stays software: it no longer fits (7 + 6 > 12 stages).
        assert_eq!(
            ctl.placements(),
            &[Placement::Software, Placement::HARDWARE]
        );
        // And it stays that way while both loads hold (no flapping).
        for step in 4..=20 {
            assert!(ctl.sample(t(step), &s).is_empty());
        }
        assert_eq!(ctl.shifts().len(), 1);
    }

    #[test]
    fn eviction_frees_capacity_for_the_waiting_app() {
        let apps = vec![app("a", 7, 0.08, 2.0), app("b", 6, 0.14, 2.0)];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let both_hot = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &both_hot);
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::Software, Placement::HARDWARE]
        );
        // App b's demand dies; the network-side rate feedback reports the
        // collapse (offered is ignored for the resident app).
        let b_idle = [sample(100_000.0, 100_000.0), sample(100_000.0, 1_000.0)];
        let mut decisions = Vec::new();
        for step in 4..=10 {
            decisions.extend(ctl.sample(t(step), &b_idle));
            if !decisions.is_empty() {
                break;
            }
        }
        // One interval: b evicted after the sustain window AND a admitted
        // in its place.
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        assert!(decisions.contains(&(1, Placement::Software)));
        assert!(decisions.contains(&(0, Placement::HARDWARE)));
        // Reasons: a displaced b by score while b's collapsed sticky
        // score could no longer defend the slot — a benefit preemption
        // on both sides of the swap, not a fairness or admission event.
        for s in ctl.shifts() {
            assert_eq!(s.reason, ShiftReason::Benefit, "{s:?}");
        }
    }

    #[test]
    fn queued_tenant_entering_freed_capacity_is_tagged_admission() {
        // b: a tiny 1-stage program with strong economics — its sticky
        // score stays above a's even while its delivered benefit sits in
        // the eviction dead band, so a cannot preempt it; a: a
        // full-device 12-stage program that queues behind it.
        let apps = vec![
            app("a", 12, 0.05, 2.0), // 3 W at 100 kpps, score 3
            app("b", 1, 0.50, 2.0),  // 8 W at 20 kpps, score 96
        ];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let hot = [sample(100_000.0, 100_000.0), sample(20_000.0, 20_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &hot);
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::Software, Placement::HARDWARE]
        );
        assert_eq!(ctl.explain(0).admission, AdmissionDecision::Queue);
        // b's rate decays to 4.8 kpps: delivered benefit 0.4 W — inside
        // the eviction band (< 0.5 W) but its sticky score (0.4 × 12 ×
        // 1.25 = 6) still out-ranks a's 3, so b leaves only when its
        // eviction window completes, and a's entry drains the queue.
        let dip = [sample(100_000.0, 100_000.0), sample(20_000.0, 4_800.0)];
        let mut decisions = Vec::new();
        for step in 4..=10 {
            decisions.extend(ctl.sample(t(step), &dip));
            if !decisions.is_empty() {
                break;
            }
        }
        assert!(decisions.contains(&(1, Placement::Software)));
        assert!(decisions.contains(&(0, Placement::HARDWARE)));
        let a_in = ctl
            .shifts()
            .iter()
            .find(|s| s.app == 0 && s.to.is_offloaded())
            .unwrap();
        assert_eq!(a_in.reason, ShiftReason::Admission);
    }

    #[test]
    fn transient_dip_does_not_evict() {
        let apps = vec![app("a", 7, 0.08, 2.0)];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let hot = [sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &hot);
        }
        assert_eq!(ctl.placements(), &[Placement::HARDWARE]);
        // Two idle samples (below sustain), then hot again: no eviction.
        let idle = [sample(0.0, 0.0)];
        assert!(ctl.sample(t(4), &idle).is_empty());
        assert!(ctl.sample(t(5), &idle).is_empty());
        assert!(ctl.sample(t(6), &hot).is_empty());
        assert!(ctl.sample(t(7), &idle).is_empty());
        assert!(ctl.sample(t(8), &idle).is_empty());
        assert_eq!(ctl.placements(), &[Placement::HARDWARE]);
        // A third consecutive idle sample completes the window.
        let d = ctl.sample(t(9), &idle);
        assert_eq!(d, vec![(0, Placement::Software)]);
    }

    #[test]
    fn marginal_newcomer_does_not_preempt_but_clear_winner_does() {
        let apps = vec![
            app("incumbent", 7, 0.10, 2.0),
            app("rival", 7, 0.10, 2.0), // same program, same economics
        ];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let warm = [sample(100_000.0, 100_000.0), sample(0.0, 0.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &warm);
        }
        assert_eq!(ctl.placements()[0], Placement::HARDWARE);
        // The rival reaches a slightly higher rate — within the 25 %
        // stickiness band, so the incumbent holds.
        let marginal = [sample(100_000.0, 100_000.0), sample(110_000.0, 0.0)];
        for step in 4..=12 {
            assert!(ctl.sample(t(step), &marginal).is_empty());
        }
        // The rival's load becomes decisively higher: preemption.
        let decisive = [sample(100_000.0, 100_000.0), sample(400_000.0, 0.0)];
        let mut moved = Vec::new();
        for step in 13..=20 {
            moved.extend(ctl.sample(t(step), &decisive));
            if !moved.is_empty() {
                break;
            }
        }
        assert!(moved.contains(&(0, Placement::Software)));
        assert!(moved.contains(&(1, Placement::HARDWARE)));
    }

    #[test]
    fn unprofitable_apps_never_offload() {
        // Benefit never reaches the floor: slope gives 0.8 W at the
        // offered rate against a 2 W unpark cost.
        let apps = vec![app("cold", 4, 0.008, 2.0)];
        let mut ctl = FleetController::new(cfg(), contended(), apps);
        let s = [sample(100_000.0, 0.0)];
        for step in 1..=50 {
            assert!(ctl.sample(t(step), &s).is_empty());
        }
        assert_eq!(ctl.placements(), &[Placement::Software]);
    }

    #[test]
    fn pinned_configuration_never_moves() {
        let apps = vec![app("a", 7, 0.10, 2.0), app("b", 6, 0.14, 2.0)];
        let pinned = FleetControllerConfig {
            sustain_samples: u32::MAX,
            ..cfg()
        };
        let mut ctl = FleetController::new(pinned, contended(), apps)
            .with_initial_placements(&[Placement::HARDWARE, Placement::Software]);
        assert!(ctl.fabric().residency(0).is_some());
        for step in 1..=30 {
            // Wildly varying load in both directions.
            let r = if step % 2 == 0 { 500_000.0 } else { 0.0 };
            assert!(ctl
                .sample(t(step), &[sample(r, r), sample(r, r)])
                .is_empty());
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        assert!(ctl.shifts().is_empty());
    }

    /// An adopted deployment is re-arbitrated on the very first tick even
    /// in incremental mode: a pinned controller holds it for as long as
    /// it runs, and a live one evicts an adopted resident whose benefit
    /// never clears the eviction band exactly one sustain window in.
    #[test]
    fn adopted_placements_are_held_when_pinned_and_evicted_on_schedule_when_not() {
        let apps = || vec![app("a", 7, 0.10, 2.0), app("b", 6, 0.14, 2.0)];
        let adopted = [Placement::HARDWARE, Placement::Software];
        let pinned = FleetControllerConfig {
            sustain_samples: u32::MAX,
            ..cfg()
        };
        assert_eq!(pinned.mode, ArbitrationMode::Incremental);
        let mut ctl =
            FleetController::new(pinned, contended(), apps()).with_initial_placements(&adopted);
        for step in 1..=1_000 {
            let r = if step % 3 == 0 { 500_000.0 } else { 0.0 };
            assert!(ctl
                .sample(t(step), &[sample(r, r), sample(r, r)])
                .is_empty());
        }
        assert_eq!(ctl.placements(), &adopted);
        assert!(ctl.shifts().is_empty());
        assert!(ctl.fabric().residency(0).is_some());

        // Live controller, idle adopted resident: delivered benefit sits
        // under the eviction band from the first sample, so the eviction
        // fires when the 3-sample window completes — not a tick later.
        let mut live =
            FleetController::new(cfg(), contended(), apps()).with_initial_placements(&adopted);
        let idle = [sample(0.0, 0.0), sample(0.0, 0.0)];
        assert!(live.sample(t(1), &idle).is_empty());
        let dirty = [0, 1].map(|i| live.explain(i).dirty);
        assert_eq!(dirty, [true; 2], "first tick is a full solve");
        assert!(live.sample(t(2), &idle).is_empty());
        assert_eq!(live.sample(t(3), &idle), vec![(0, Placement::Software)]);
        assert!(live.fabric().residency(0).is_none());
    }

    #[test]
    #[should_panic(expected = "sampling interval must be non-zero")]
    fn zero_sampling_interval_rejected() {
        let _ = FleetController::new(
            FleetControllerConfig::standard(Nanos::ZERO),
            contended(),
            vec![app("a", 7, 0.1, 2.0)],
        );
    }

    /// With a zero window every streak gate holds vacuously: each idle
    /// software tenant would be "queued" every tick, counted as
    /// back-pressure and re-dirtied from tick 1.
    #[test]
    #[should_panic(expected = "sustain_samples must be at least 1")]
    fn zero_sustain_window_rejected() {
        let config = FleetControllerConfig {
            sustain_samples: 0,
            ..cfg()
        };
        let _ = FleetController::new(config, contended(), vec![app("a", 7, 0.1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "offload floor NaN must be finite")]
    fn nan_offload_floor_rejected_at_construction() {
        let config = FleetControllerConfig {
            min_benefit_w: f64::NAN,
            ..cfg()
        };
        let _ = FleetController::new(config, contended(), vec![app("a", 7, 0.1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn infeasible_initial_placements_rejected() {
        let apps = vec![app("a", 7, 0.1, 2.0), app("b", 6, 0.1, 2.0)];
        let _ = FleetController::new(cfg(), contended(), apps)
            .with_initial_placements(&[Placement::HARDWARE, Placement::HARDWARE]);
    }

    #[test]
    #[should_panic(expected = "homed")]
    fn out_of_fabric_home_rejected() {
        let apps = vec![app_homed("lost", 4, 0.1, 2.0, DeviceId(3))];
        let _ = FleetController::new(cfg(), contended(), apps);
    }

    // --- Fabric-specific behaviour. ---

    #[test]
    fn oversubscribed_home_spills_to_the_remote_tor() {
        // Two apps homed on ToR 0, together too big for one device; the
        // second-best spills to ToR 1 because its penalty-adjusted
        // benefit still clears the floor.
        let apps = vec![
            app_homed("big", 7, 0.14, 2.0, DeviceId(0)),
            app_homed("spill", 6, 0.10, 2.0, DeviceId(0)),
        ];
        let mut ctl = FleetController::new(cfg(), two_tors(), apps);
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(
            ctl.placements(),
            &[
                Placement::Device(DeviceId(0)),
                Placement::Device(DeviceId(1))
            ]
        );
        // The spilled app's recorded benefit carries the haircut.
        let spill = ctl.shifts().iter().find(|s| s.app == 1).unwrap();
        let raw = ctl.price(1, DeviceId::LOCAL, 100_000.0).raw_w;
        let haircut = TierCost::standard_intra_pod().benefit_factor;
        assert!((spill.benefit_w - raw * haircut).abs() < 1e-9);
        // Stable thereafter: no ping-pong between the ToRs.
        for step in 4..=30 {
            assert!(ctl.sample(t(step), &s).is_empty());
        }
    }

    #[test]
    fn remote_placement_requires_the_haircut_benefit_to_clear_the_floor() {
        // Raw benefit 1.1 W clears the 1 W floor at home, but the 0.85×
        // haircut (0.935 W) does not — so when home is full the app stays
        // in software rather than spilling at a loss.
        let apps = vec![
            app_homed("hog", 12, 0.14, 2.0, DeviceId(0)), // fills ToR 0
            app_homed("meek", 6, 0.031, 2.0, DeviceId(0)), // 3.1-2 = 1.1 W
        ];
        let mut ctl = FleetController::new(cfg(), two_tors(), apps);
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=10 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements()[0], Placement::Device(DeviceId(0)));
        assert_eq!(ctl.placements()[1], Placement::Software);
    }

    #[test]
    fn app_returns_home_when_capacity_frees_only_if_decisively_better() {
        // The spilled app sits on ToR 1. When the hog on its home ToR
        // leaves, the app comes home only if its un-haircut home score
        // beats its sticky remote score — use a deep 0.5 haircut so
        // home is decisively (2× > 1.25×) better.
        let fabric = DeviceFabric::homogeneous(2, PipelineBudget::tofino_like(), haircut_pair(0.5));
        let apps = vec![
            app_homed("hog", 7, 0.30, 2.0, DeviceId(0)),
            app_homed("mover", 6, 0.10, 2.0, DeviceId(0)),
        ];
        let mut ctl = FleetController::new(cfg(), fabric, apps);
        let both = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &both);
        }
        assert_eq!(
            ctl.placements(),
            &[
                Placement::Device(DeviceId(0)),
                Placement::Device(DeviceId(1))
            ]
        );
        // The hog's traffic dies; after its eviction window the mover
        // comes home in the same decision pass.
        let hog_idle = [sample(100_000.0, 500.0), sample(100_000.0, 100_000.0)];
        let mut moved = Vec::new();
        for step in 4..=10 {
            moved.extend(ctl.sample(t(step), &hog_idle));
            if !moved.is_empty() {
                break;
            }
        }
        assert!(moved.contains(&(0, Placement::Software)), "{moved:?}");
        assert!(
            moved.contains(&(1, Placement::Device(DeviceId(0)))),
            "{moved:?}"
        );
        // One decision for the move, not an evict+offload pair.
        assert_eq!(
            ctl.shifts().iter().filter(|s| s.app == 1).count(),
            2,
            "{:?}",
            ctl.shifts()
        );
    }

    // --- Fair sharing and admission control. ---

    /// `app` with an explicit fair-share weight.
    fn weighted(name: &str, stages: u32, slope: f64, weight: f64) -> FleetApp {
        FleetApp {
            weight,
            ..app(name, stages, slope, 2.0)
        }
    }

    /// Both tenants hot forever; the device fits only one. Under pure
    /// benefit the higher-score tenant holds it indefinitely.
    fn contended_pair(weight_hog: f64, weight_meek: f64) -> Vec<FleetApp> {
        vec![
            // 7 stages, benefit 12 W at 100 kpps: the clear score winner.
            weighted("hog", 7, 0.14, weight_hog),
            // 7 stages, benefit 3 W at 100 kpps: profitable but outscored.
            weighted("meek", 7, 0.05, weight_meek),
        ]
    }

    fn fair_cfg(starvation_window: u32) -> FleetControllerConfig {
        FleetControllerConfig {
            starvation_window,
            ..cfg()
        }
    }

    #[test]
    fn pure_benefit_starves_the_outscored_tenant() {
        let mut ctl = FleetController::new(
            fair_cfg(u32::MAX), // fairness disabled
            contended(),
            contended_pair(1.0, 1.0),
        );
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=60 {
            ctl.sample(t(step), &s);
        }
        // The meek tenant never got the device — and the controller knows
        // it is queued, not merely idle.
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        assert_eq!(ctl.explain(1).admission, AdmissionDecision::Queue);
        assert!(ctl.explain(1).queued_intervals > 50);
        assert_eq!(ctl.shifts().len(), 1);
    }

    #[test]
    fn starved_tenant_claims_its_fair_share_and_the_device_alternates() {
        let window = 6;
        let mut ctl = FleetController::new(fair_cfg(window), contended(), contended_pair(1.0, 1.0));
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        let mut resident = [0u32; 2];
        for step in 1..=100 {
            ctl.sample(t(step), &s);
            for (i, r) in resident.iter_mut().enumerate() {
                if ctl.placements()[i].is_offloaded() {
                    *r += 1;
                }
            }
        }
        // Both tenants got a material share of device time (equal weights
        // converge toward an even time split; the sustain preamble skews
        // slightly toward whoever holds at claim time).
        assert!(resident[0] > 30, "hog held {} of 100", resident[0]);
        assert!(resident[1] > 30, "meek held {} of 100", resident[1]);
        // The first shift is the benefit offload; every hand-over after it
        // is a fairness decision (claim + clip pairs), and consecutive
        // entries of the same tenant are separated by at least the
        // starvation window — deliberate hand-over, not flapping.
        assert_eq!(ctl.shifts()[0].reason, ShiftReason::Benefit);
        assert!(ctl
            .shifts()
            .iter()
            .skip(1)
            .all(|s| s.reason == ShiftReason::FairShare));
        for app in 0..2 {
            let entries: Vec<Nanos> = ctl
                .shifts()
                .iter()
                .filter(|s| s.app == app && s.to.is_offloaded())
                .map(|s| s.at)
                .collect();
            for pair in entries.windows(2) {
                assert!(
                    pair[1] - pair[0] >= Nanos::from_secs(u64::from(window)),
                    "app {app} re-entered after {} < window",
                    pair[1] - pair[0]
                );
            }
        }
        // The dominant-share accounting the claims were priced with.
        let held = ctl.placements().iter().position(|p| p.is_offloaded());
        let held = held.expect("someone holds the device");
        assert!((ctl.explain(held).dominant_share - 7.0 / 12.0).abs() < 1e-9);
        assert_eq!(ctl.explain(1 - held).dominant_share, 0.0);
    }

    #[test]
    fn device_time_divides_by_weight() {
        // The hog is entitled to 2/3: its 9-stage program (share 0.75)
        // exceeds that, so it stays clippable; the meek tenant's 7-stage
        // program (share 0.583) exceeds its 1/3 likewise. The weighted
        // starvation windows (20/2 = 10 vs 20/1 = 20) make the hog
        // reclaim twice as fast, so its device-time share converges
        // toward its entitlement.
        let apps = vec![
            weighted("hog", 9, 0.14, 2.0),
            weighted("meek", 7, 0.05, 1.0),
        ];
        let mut ctl = FleetController::new(fair_cfg(20), contended(), apps);
        assert_eq!(ctl.explain(0).starvation_threshold, 10);
        assert_eq!(ctl.explain(1).starvation_threshold, 20);
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        let mut resident = [0u32; 2];
        for step in 1..=400 {
            ctl.sample(t(step), &s);
            for (i, r) in resident.iter_mut().enumerate() {
                if ctl.placements()[i].is_offloaded() {
                    *r += 1;
                }
            }
        }
        assert!(resident[1] > 50, "meek starved: {resident:?}");
        let ratio = f64::from(resident[0]) / f64::from(resident[1]);
        assert!(
            (1.4..=2.2).contains(&ratio),
            "weighted split off: {resident:?} (ratio {ratio:.2})"
        );
        // While contended, both tenants' entitlements reflect the weights.
        assert!((ctl.explain(0).entitlement - 2.0 / 3.0).abs() < 1e-9);
        assert!((ctl.explain(1).entitlement - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn incumbent_within_its_entitlement_is_not_clipped() {
        // The incumbent's 6-stage program is exactly half the device —
        // not *above* its 1/2 entitlement — so a starved rival may not
        // clip it: fairness protects entitlements, it does not create
        // capacity that is not there.
        let apps = vec![
            weighted("within", 6, 0.14, 1.0),
            weighted("wanting", 7, 0.05, 1.0),
        ];
        let mut ctl = FleetController::new(fair_cfg(5), contended(), apps);
        let s = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
        for step in 1..=60 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(
            ctl.placements(),
            &[Placement::HARDWARE, Placement::Software]
        );
        assert_eq!(ctl.shifts().len(), 1);
        // The rival stays queued — visible back-pressure, no thrash.
        assert_eq!(ctl.explain(1).admission, AdmissionDecision::Queue);
        assert!(ctl.explain(1).starved_streak > 20);
    }

    #[test]
    fn unfit_demand_is_rejected_up_front_not_thrashed() {
        // 14 stages fit no 12-stage device; the tenant is hot forever but
        // never becomes a candidate, never queues, never shifts.
        let apps = vec![app("fits", 6, 0.10, 2.0), app("giant", 14, 0.30, 2.0)];
        let mut ctl = FleetController::new(cfg(), two_tors(), apps);
        assert_eq!(ctl.explain(1).admission, AdmissionDecision::Reject);
        let s = [sample(100_000.0, 100_000.0), sample(400_000.0, 400_000.0)];
        for step in 1..=50 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements()[1], Placement::Software);
        assert!(ctl.shifts().iter().all(|s| s.app != 1));
        assert_eq!(ctl.explain(1).queued_intervals, 0);
        assert_eq!(ctl.explain(1).admission, AdmissionDecision::Reject);
        // The satisfiable tenant is unaffected.
        assert_eq!(ctl.placements()[0], Placement::Device(DeviceId(0)));
        assert_eq!(ctl.explain(0).admission, AdmissionDecision::Admit);
    }

    #[test]
    #[should_panic(expected = "non-positive weight")]
    fn non_positive_weights_rejected() {
        let apps = vec![weighted("w", 4, 0.1, 0.0)];
        let _ = FleetController::new(cfg(), contended(), apps);
    }

    #[test]
    fn sticky_incumbent_device_resists_marginal_cross_tor_moves() {
        // Symmetric fabric, app homed on ToR 0 but resident on ToR 1
        // (seeded). Its home score is 1/0.9 ≈ 1.11× the remote score —
        // inside the 1.25× stickiness band — so it must NOT hop home.
        let fabric = DeviceFabric::homogeneous(2, PipelineBudget::tofino_like(), haircut_pair(0.9));
        let apps = vec![app_homed("settled", 6, 0.10, 2.0, DeviceId(0))];
        let mut ctl = FleetController::new(cfg(), fabric, apps)
            .with_initial_placements(&[Placement::Device(DeviceId(1))]);
        let s = [sample(100_000.0, 100_000.0)];
        for step in 1..=30 {
            assert!(ctl.sample(t(step), &s).is_empty(), "hopped at {step}");
        }
        assert_eq!(ctl.placements(), &[Placement::Device(DeviceId(1))]);
    }

    // --- Migration cost. ---

    /// The hop-home scenario of
    /// `app_returns_home_when_capacity_frees_only_if_decisively_better`,
    /// replayed: the mover sits on the remote ToR of a deep-haircut
    /// (0.7) pair, so its home score is 1/0.7 ≈ 1.43× its sticky remote
    /// score — beyond the 1.25× stickiness band, so a migration-blind
    /// scorer hops home the moment the hog leaves. With the switchover
    /// debit priced in, the ~1.2 W/interval the hop would gain is less
    /// than the amortised reprogramming cost, and the app stays put.
    #[test]
    fn migration_cost_suppresses_marginal_hop_that_stickiness_allows() {
        let setup = |migration_cost_j: f64| {
            let fabric =
                DeviceFabric::homogeneous(2, PipelineBudget::tofino_like(), haircut_pair(0.7));
            let apps = vec![
                app_homed("hog", 7, 0.30, 2.0, DeviceId(0)),
                app_homed("mover", 6, 0.06, 2.0, DeviceId(0)),
            ];
            let config = FleetControllerConfig {
                migration_cost_j,
                ..cfg()
            };
            FleetController::new(config, fabric, apps)
        };
        // Mover at 100 kpps: raw benefit 4 W, remote 2.8 W. Home score
        // 4/0.5 = 8 vs sticky remote 2.8/0.5 × 1.25 = 7. The hop gains
        // 1.2 W; the standard 5 J debit over a 20 × 1 s tenure is only
        // 0.25 W — too small — so use a 2 s interval... instead pin the
        // economics explicitly: a 30 J switchover amortises to 1.5 W,
        // which outweighs the 1.2 W the hop would deliver.
        let drive = |ctl: &mut FleetController| {
            let both = [sample(100_000.0, 100_000.0), sample(100_000.0, 100_000.0)];
            for step in 1..=3 {
                ctl.sample(t(step), &both);
            }
            assert_eq!(
                ctl.placements(),
                &[
                    Placement::Device(DeviceId(0)),
                    Placement::Device(DeviceId(1))
                ]
            );
            // The hog dies; run past its eviction window and beyond.
            let hog_idle = [sample(100_000.0, 500.0), sample(100_000.0, 100_000.0)];
            for step in 4..=30 {
                ctl.sample(t(step), &hog_idle);
            }
        };

        // Migration-blind scorer: the mover hops home.
        let mut blind = setup(0.0);
        drive(&mut blind);
        assert_eq!(blind.placements()[1], Placement::Device(DeviceId(0)));

        // With the debit: the same marginal hop is suppressed.
        let mut priced = setup(30.0);
        drive(&mut priced);
        let hop = priced.price(1, DeviceId(0), 100_000.0);
        assert!((hop.debit - 1.5).abs() < 1e-9);
        assert_eq!(
            priced.placements()[1],
            Placement::Device(DeviceId(1)),
            "a 1.2 W hop should not outbid a 1.5 W amortised switchover"
        );
        // ...and the suppression is a score effect, not a freeze: a
        // decisively better home still wins. At 400 kpps the raw benefit
        // is 22 W, so the debited home score (22 − 1.5)/0.5 = 41 clears
        // the sticky remote score 1.25 × 0.7 × 22 / 0.5 = 38.5.
        let surge = [sample(100_000.0, 500.0), sample(400_000.0, 400_000.0)];
        for step in 31..=40 {
            priced.sample(t(step), &surge);
        }
        assert_eq!(priced.placements()[1], Placement::Device(DeviceId(0)));
    }

    /// A fresh offload from software pays no migration debit (nothing is
    /// torn down), and pinned controllers are unaffected by the pricing.
    #[test]
    fn fresh_offloads_are_not_debited() {
        let config = FleetControllerConfig {
            migration_cost_j: 1_000.0, // absurd: 50 W amortised
            ..cfg()
        };
        let apps = vec![app("a", 7, 0.08, 2.0)];
        let mut ctl = FleetController::new(config, contended(), apps);
        let s = [sample(100_000.0, 100_000.0)];
        for step in 1..=3 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements(), &[Placement::HARDWARE]);
    }

    // --- Claim policies. ---

    /// Three tenants on a rack pair: the claimant's own score prefers its
    /// home ToR 0 (no haircut), where the expensive incumbent sits; the
    /// cheap incumbent sits on ToR 1. Best-score claims clip the
    /// expensive program; min-cost claims clip the cheap one.
    fn claim_scenario(policy: ClaimPolicy) -> (FleetController, [FleetSample; 3]) {
        let fabric = DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(
                1,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        );
        // Scores at 100 kpps: rich 20.6 on its home ToR 0, poor 5.1 on
        // its home ToR 1; the claimant scores 4.3 at home and 3.6 remote
        // — profitable everywhere, outscored everywhere, so the knapsack
        // never places it and it must go through the claim protocol.
        let apps = vec![
            app_homed("rich", 7, 0.14, 2.0, DeviceId(0)), // 12 W at 100 kpps
            app_homed("poor", 7, 0.05, 2.0, DeviceId(1)), // 3 W at 100 kpps
            app_homed("claimant", 7, 0.045, 2.0, DeviceId(0)), // 2.5 W at 100 kpps
        ];
        let config = FleetControllerConfig {
            starvation_window: 6,
            claim_policy: policy,
            ..cfg()
        };
        let ctl = FleetController::new(config, fabric, apps);
        let s = [
            sample(100_000.0, 100_000.0),
            sample(100_000.0, 100_000.0),
            sample(100_000.0, 100_000.0),
        ];
        (ctl, s)
    }

    #[test]
    fn min_cost_claim_clips_the_cheap_incumbent_not_the_best_scoring_device() {
        for (policy, expect_clip, expect_device) in [
            // Old policy: claim lands on the claimant's highest-scoring
            // device — home, un-haircut — clipping the 12 W incumbent.
            (ClaimPolicy::BestScore, 0usize, DeviceId(0)),
            // Min-cost: hand-over happens where the forfeited benefit is
            // smallest — the remote ToR's 3 W incumbent.
            (ClaimPolicy::MinCost, 1usize, DeviceId(1)),
        ] {
            let (mut ctl, s) = claim_scenario(policy);
            let mut first_claim = None;
            for step in 1..=30 {
                let decisions = ctl.sample(t(step), &s);
                if first_claim.is_none() {
                    first_claim = decisions
                        .iter()
                        .find(|&&(app, to)| app == 2 && to.is_offloaded())
                        .map(|&(_, to)| to);
                }
            }
            assert_eq!(
                first_claim,
                Some(Placement::Device(expect_device)),
                "{policy:?} claimed the wrong device"
            );
            let clip = ctl
                .shifts()
                .iter()
                .find(|sh| sh.to == Placement::Software && sh.reason == ShiftReason::FairShare)
                .expect("a clip was recorded");
            assert_eq!(clip.app, expect_clip, "{policy:?} clipped the wrong app");
        }
    }

    #[test]
    fn claim_plans_report_clip_economics() {
        let (mut ctl, s) = claim_scenario(ClaimPolicy::MinCost);
        // Settle the two incumbents (claimant queues behind them).
        for step in 1..=5 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements()[2], Placement::Software);
        let rates = [100_000.0; 3];
        let claimant = ctl.explain(2);
        assert_eq!(claimant.held_rate_pps, rates[2]);
        let plans = claimant.claims;
        assert_eq!(plans.len(), 2, "{plans:?}");
        let by_dev = |d: DeviceId| plans.iter().find(|p| p.device == d).unwrap();
        let home = by_dev(DeviceId(0));
        let remote = by_dev(DeviceId(1));
        // Home clips the rich incumbent (12 W); the remote hand-over
        // clips the poor one, forfeiting its full un-haircut 3 W (it is
        // at home on ToR 1).
        assert_eq!(home.clips, vec![0]);
        let rich_delivered = ctl.explain(0).delivered.unwrap();
        assert!((home.clipped_benefit_w - rich_delivered).abs() < 1e-9);
        assert!((rich_delivered - 12.0).abs() < 0.01);
        assert_eq!(remote.clips, vec![1]);
        let poor_delivered = ctl.explain(1).delivered.unwrap();
        assert!((remote.clipped_benefit_w - poor_delivered).abs() < 1e-9);
        assert!((poor_delivered - 3.0).abs() < 0.01);
        // Both hand-overs move two programs (clip + claimant): twice the
        // debit the rich incumbent would pay to move.
        let debit = ctl.price(0, DeviceId(1), rates[0]).debit;
        assert!((home.migration_w - 2.0 * debit).abs() < 1e-12);
        // The claimant's own score prefers home; the total cost prefers
        // the remote hand-over.
        assert!(home.score > remote.score);
        assert!(remote.total_cost_w() < home.total_cost_w());
    }
}
