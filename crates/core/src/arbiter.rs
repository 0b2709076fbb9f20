//! The fleet arbitration engine: dirty-app queues, per-pod arbiters and a
//! global coordinator.
//!
//! This file holds the [`FleetController`] — the one engine that executes
//! the placement policy specified in [`crate::fleet`] (its vocabulary,
//! configuration and pricing rules live there). Re-scoring every
//! (app × device) pair from scratch each sampling interval is fine for a
//! rack and ruinous for a datacenter; Gray's *Distributed Computing
//! Economics* points the way out: only re-decide when the economics
//! actually change. Each tick is therefore an event-driven pipeline:
//!
//! 1. **Measure & hold** — the one loop every app pays every tick: its
//!    measured rate replaces its *held* scoring rate only when it moves
//!    by more than [`FleetControllerConfig::rate_deadband`] (relative).
//!    All scoring, streaks and gates are computed from held rates, so an
//!    app whose load wobbles inside the band is *economically unchanged*.
//!    Every other per-app pass of the tick walks the **warm set** — the
//!    apps whose gates can move at all (profitable at the held rate, on
//!    a streak, queued or resident). A cold app's every gate is a
//!    function of its held rate alone, so nothing about it can change
//!    until the scan replaces that rate, which is what warms it.
//! 2. **Dirty queue** — an app is enqueued (at most once per interval)
//!    when its held rate moved, a hysteresis or starvation gate flipped,
//!    its placement changed last tick, or the occupancy of a device in
//!    its pod changed. Everything else is provably unchanged and is not
//!    re-scored.
//! 3. **Per-pod arbiters** — each pod whose state is dirty re-solves the
//!    greedy benefit-per-capacity knapsack for the apps homed in it.
//!    A fresh seat's score depends only on the app's held state, the
//!    [`HopTier`](inc_hw::HopTier) between its home and the device, and
//!    the device's budget, so an app bids once per (tier, budget class)
//!    — its home device, and each class of the pod's other online
//!    devices — plus once for its current seat at the sticky price.
//!    The bids are sorted once into the arbitration order (score
//!    descending, ties broken on app index, then hop distance) and
//!    admitted in one scan; bids equal on all three keys form a run
//!    whose devices are tried in ascending index, which is exactly the
//!    order a per-device scan breaking the last tie on device index
//!    would try them in. Clean pods keep last tick's selection verbatim.
//!    Candidate pruning follows the [`Topology`](inc_hw::Topology)
//!    tiers: a pod arbiter only considers its own pod's devices.
//! 4. **Global coordinator** — handles only what crosses pods: spilling
//!    apps their home pod cannot place, moving (or repatriating)
//!    cross-pod residents, and weighted-DRF fairness claims over the
//!    whole fabric. Spills and moves bid per (tier, budget class) over
//!    the whole fabric, through the same order and run walk.
//!
//! [`ArbitrationMode::FullRescore`] runs the same pipeline with every
//! pod forced dirty every tick; because both modes share held-rate
//! semantics, an incremental run must produce the *identical* shift
//! sequence — the equivalence property CI pins across proptest seeds.
//! With a single pod and a zero dead band the pipeline makes exactly the
//! decisions of a flat sorted scan over every (app × device) candidate,
//! which a second property pins against the reference
//! `fleet::oracle::FlatOracle`.
//!
//! Two rules govern placements that cross pods (see `ARCHITECTURE.md`,
//! "Cross-pod placement rules"):
//!
//! * a **cross-pod spill holds tenure against raw scores**: it can be
//!   displaced only by its own sustained low-benefit eviction or by a
//!   fairness claim, never preempted by a host-pod local's raw score;
//! * a **settled home resident migrates only within its pod** — leaving
//!   the pod happens by spilling (no room at home) or by a fairness
//!   hand-over, so the coordinator's cross-pod work stays proportional
//!   to the spill set, not the fleet.
//!
//! Every buffer a tick works in lives on a scratch struct the controller
//! owns and reuses, so a warm tick allocates nothing until it has a
//! placement change to report.

use std::ops::Range;

use inc_hw::{DeviceFabric, DeviceId, Placement};
use inc_sim::Nanos;

pub use crate::fleet::ArbitrationMode;
use crate::fleet::{
    pricing, AdmissionDecision, ClaimPlan, FleetApp, FleetControllerConfig, FleetSample,
    FleetShift, ShiftReason,
};

/// Work counters of the hierarchical pipeline: the deterministic
/// evidence that incremental scheduling does less scoring than a full
/// re-score (wall-clock speed-ups are measured by `benchmark/run.sh`'s
/// `fleet_quiet` / `fleet_rescore` workloads; these counters are what CI
/// asserts on).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArbiterStats {
    /// Sampling intervals processed.
    pub ticks: u64,
    /// Apps enqueued on the dirty queue (each at most once per tick).
    pub dirty_enqueued: u64,
    /// Pod-arbiter solves (a full re-score solves `pods × ticks`).
    pub pods_solved: u64,
    /// Ticks on which the global coordinator ran.
    pub coordinator_runs: u64,
    /// (app, device) pairs priced across pod arbiters and coordinator. A
    /// class of devices is priced once for all its members and adds its
    /// member count; a fairness claim adds the hand-over plans it
    /// weighed.
    pub candidates_scored: u64,
    /// Apps whose streak gates stage 1 evaluated (the warm set, summed
    /// over ticks): what a tick costs beyond the dead-band scan.
    pub gates_evaluated: u64,
}

/// The devices one candidate offers its app.
#[derive(Clone, Copy, Debug)]
enum Seats {
    /// One device: a resident's current seat (at the sticky price) or
    /// the app's home device.
    Device(DeviceId),
    /// Every online device in scope of this budget class at the
    /// candidate's hop distance, except the app's current seat.
    Class(u16),
}

/// One candidate of a pod arbiter or the coordinator: one price for its
/// app on every device it offers. A fresh seat is worth the same on
/// every device that shares its hop tier from the app's home and its
/// budget, so such a class is priced once; an (app, device) pair is
/// offered by at most one candidate.
#[derive(Clone, Copy, Debug)]
struct Cand {
    score: f64,
    app: usize,
    dist: u32,
    seats: Seats,
}

impl Cand {
    /// The arbitration order candidates are admitted in: best
    /// benefit-per-capacity-unit first (`total_cmp`, descending), ties to
    /// the lower app index, then the *nearer* tier (an exact score tie
    /// between two remote racks must not hand the spill to the far one
    /// just because it has a lower index). Candidates equal on all three
    /// keys form a run, and [`FleetController::seat_run`] tries a run's
    /// devices in ascending index: together, the order of a per-device
    /// scan that breaks the last tie on device index.
    fn order(a: &Cand, b: &Cand) -> std::cmp::Ordering {
        b.score
            .total_cmp(&a.score)
            .then(a.app.cmp(&b.app))
            .then(a.dist.cmp(&b.dist))
    }
}

/// The online devices of one budget class in a scope.
#[derive(Clone, Copy, Debug)]
struct ClassTally {
    class: u16,
    count: u32,
    /// The first of them: the device the class's capacity cost is read
    /// from.
    first: DeviceId,
}

/// Tallies the online devices of `scope` by budget class, in order of
/// first appearance.
fn tally_classes(fabric: &DeviceFabric, scope: Range<usize>, out: &mut Vec<ClassTally>) {
    out.clear();
    for d in scope
        .map(|d| DeviceId(d as u16))
        .filter(|&d| fabric.is_online(d))
    {
        let class = fabric.budget_class(d);
        match out.iter_mut().find(|t| t.class == class) {
            Some(t) => t.count += 1,
            None => out.push(ClassTally {
                class,
                count: 1,
                first: d,
            }),
        }
    }
}

/// A tick's working buffers. The controller owns them and `sample` takes
/// them for the tick, so a warm tick reuses their capacity instead of
/// allocating; they start empty (construction allocates nothing for
/// them) and grow on first use.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// The placement changes of this tick, in execution order.
    decisions: Vec<(usize, Placement)>,
    /// This tick's warm set, ascending: the only apps any pass after
    /// the dead-band scan looks at.
    warm: Vec<usize>,
    /// Pods to re-solve: seeded by capacity events, completed by the
    /// dirty queue.
    pods_dirty: Vec<bool>,
    /// The assignment being built: each app's seat, if any.
    selected: Vec<Option<DeviceId>>,
    /// Placements and down-streaks as they stood before the diff.
    prev_placements: Vec<Placement>,
    prev_down: Vec<u32>,
    /// The budget classes of the scope being solved.
    tally: Vec<ClassTally>,
    /// The candidates of the pod (or coordinator pass) being solved.
    cands: Vec<Cand>,
    /// Coordinator marks: moved across pods, placed / clipped by a claim.
    moved: Vec<bool>,
    fair_placed: Vec<bool>,
    fair_clipped: Vec<bool>,
    claimants: Vec<usize>,
}

/// Empties `marks` and refills it with `n` clear flags, keeping capacity.
fn reset(marks: &mut Vec<bool>, n: usize) {
    marks.clear();
    marks.resize(n, false);
}

/// Devices of `fabric` that are offline.
fn offline_devices(fabric: &DeviceFabric) -> usize {
    fabric
        .device_ids()
        .filter(|&d| !fabric.is_online(d))
        .count()
}

/// The dead band's half-width around a held rate — stored beside it, so
/// the scan compares against exactly this product.
fn band(deadband: f64, held: f64) -> f64 {
    deadband * held.abs().max(1.0)
}

/// The multi-application on-demand scheduler over a device fabric (see
/// the module docs for the pipeline and [`crate::fleet`] for the policy).
///
/// # Examples
///
/// ```
/// use inc_hw::{DeviceFabric, DeviceId, Placement, PipelineBudget, ProgramResources};
/// use inc_ondemand::{
///     kvs_analysis, FleetApp, FleetController, FleetControllerConfig,
/// };
/// use inc_sim::Nanos;
///
/// let fabric = DeviceFabric::single(PipelineBudget::tofino_like());
/// let apps = vec![
///     FleetApp {
///         name: "kvs".into(),
///         demand: ProgramResources { stages: 7, sram_bytes: 40 << 20, parse_depth_bytes: 96 },
///         analysis: kvs_analysis(),
///         home: DeviceId::LOCAL,
///         weight: 1.0,
///     },
///     FleetApp {
///         name: "kvs-b".into(),
///         demand: ProgramResources { stages: 6, sram_bytes: 20 << 20, parse_depth_bytes: 128 },
///         analysis: kvs_analysis(),
///         home: DeviceId::LOCAL,
///         weight: 1.0,
///     },
/// ];
/// let ctl = FleetController::new(
///     FleetControllerConfig::standard(Nanos::from_secs(1)),
///     fabric,
///     apps,
/// );
/// assert_eq!(ctl.placements(), &[Placement::Software, Placement::Software]);
/// ```
#[derive(Clone, Debug)]
pub struct FleetController {
    config: FleetControllerConfig,
    fabric: DeviceFabric,
    apps: Vec<FleetApp>,
    /// Home pod of each app (cached partition key).
    home_pod: Vec<u16>,
    /// Apps homed in each pod, ascending — the pod arbiter's work list.
    apps_by_pod: Vec<Vec<usize>>,
    pods: usize,
    placements: Vec<Placement>,
    up_streaks: Vec<u32>,
    down_streaks: Vec<u32>,
    /// Consecutive samples each app has spent queued (software-placed
    /// with a sustained profitable demand but no capacity).
    starved_streaks: Vec<u32>,
    /// Cumulative queued samples per app over the controller's lifetime
    /// (the back-pressure metric surfaced through the fleet timeline).
    queued_intervals: Vec<u64>,
    /// Whether each resident app holds fair-share tenure (it was placed
    /// by a fairness claim and contention persists).
    fair_hold: Vec<bool>,
    /// Up-front admission verdict: demand unfit on every device.
    rejected: Vec<bool>,
    shifts: Vec<FleetShift>,
    /// Held scoring rate per app; NaN until the first sample arrives.
    held_rates: Vec<f64>,
    /// [`band`] of each held rate (a NaN rate is out of any band).
    bands: Vec<f64>,
    /// The warm set, one bit per app: a superset of the apps that clear
    /// the floor at their held rate, carry an up or starvation streak, or
    /// are resident. Set where an app can become one of those (its held
    /// rate is replaced, it is adopted resident, the floor moves),
    /// cleared at the end of the tick that finds it none of them.
    warm: Vec<u64>,
    /// Fabric devices currently offline (no device-loss pass while 0).
    offline: usize,
    /// The §8 raw benefit at the held rate, priced by the configured
    /// [`Objective`](crate::fleet::Objective) (plain watts under
    /// `Joules`), cached so a clean tick never re-runs the energy model
    /// (it only changes when the held rate does).
    held_raw_w: Vec<f64>,
    /// What each resident delivers where it sits ([`Self::held_value_at`]
    /// its device), cached because it only changes when the held rate or
    /// the seat does; meaningless for a software app.
    delivered: Vec<f64>,
    /// Per-app starvation threshold (a pure function of config and the
    /// app's weight, so computed once).
    thresholds: Vec<u32>,
    /// Apps to re-score next tick, listed by end-of-tick events
    /// (placement changes, queue membership changes, claims coming due).
    pending_dirty: Vec<usize>,
    /// Devices whose occupancy changed last tick (or were marked via
    /// [`FleetController::mark_device_dirty`]).
    pending_device_dirty: Vec<bool>,
    /// The dirty queue drained by the last tick, sorted by app index
    /// and deduplicated (test/analysis introspection).
    last_dirty: Vec<usize>,
    scratch: Scratch,
    stats: ArbiterStats,
}

/// The engine's historical name, kept because downstream code names it.
pub type HierarchicalController = FleetController;

impl FleetController {
    /// Creates a scheduler with every app starting in software placement.
    ///
    /// Tenants whose demand fits no device in the fabric even when empty
    /// are rejected up front (see [`FleetController::admission_decision`]):
    /// they are never candidates and never queue.
    ///
    /// # Panics
    ///
    /// Panics if there are more apps than fabric slots
    /// ([`DeviceFabric::SLOT_LIMIT`]: app `i` holds slot `i`), if an app's
    /// home device is not in the fabric, if a weight is not finite and
    /// positive, or if the configuration is unusable
    /// (a zero sampling interval or sustain window; a non-finite or
    /// negative offload floor, migration cost or rate dead band; invalid
    /// objective prices).
    pub fn new(config: FleetControllerConfig, fabric: DeviceFabric, apps: Vec<FleetApp>) -> Self {
        assert!(
            apps.len() as u64 <= DeviceFabric::SLOT_LIMIT,
            "{} apps exceed the fabric's {} slots",
            apps.len(),
            DeviceFabric::SLOT_LIMIT
        );
        for app in &apps {
            assert!(
                app.home.index() < fabric.device_count(),
                "app {:?} is homed at {} but the fabric has {} devices",
                app.name,
                app.home,
                fabric.device_count()
            );
            assert!(
                app.weight.is_finite() && app.weight > 0.0,
                "app {:?} has a non-positive weight {}",
                app.name,
                app.weight
            );
        }
        config.validate();
        let rejected = pricing::unfit_everywhere(&fabric, &apps);
        let thresholds: Vec<u32> = apps
            .iter()
            .map(|a| pricing::starvation_threshold(&config, a.weight))
            .collect();
        let home_pod: Vec<u16> = apps.iter().map(|a| fabric.pod(a.home)).collect();
        let pods = fabric.pod_count();
        let mut apps_by_pod: Vec<Vec<usize>> = vec![Vec::new(); pods];
        for (i, &p) in home_pod.iter().enumerate() {
            apps_by_pod[p as usize].push(i);
        }
        let devices = fabric.device_count();
        let offline = offline_devices(&fabric);
        let n = apps.len();
        FleetController {
            config,
            fabric,
            apps,
            home_pod,
            apps_by_pod,
            pods,
            placements: vec![Placement::Software; n],
            up_streaks: vec![0; n],
            down_streaks: vec![0; n],
            starved_streaks: vec![0; n],
            queued_intervals: vec![0; n],
            fair_hold: vec![false; n],
            rejected,
            shifts: Vec::new(),
            held_rates: vec![f64::NAN; n],
            bands: vec![band(config.rate_deadband, f64::NAN); n],
            warm: vec![0; n.div_ceil(64)],
            offline,
            held_raw_w: vec![f64::NAN; n],
            delivered: vec![f64::NAN; n],
            thresholds,
            pending_dirty: Vec::with_capacity(n),
            pending_device_dirty: vec![false; devices],
            last_dirty: Vec::new(),
            scratch: Scratch::default(),
            stats: ArbiterStats::default(),
        }
    }

    /// Adopts pre-existing placements (e.g. a static deployment the
    /// controller takes over, or a pinned configuration when
    /// `sustain_samples` is `u32::MAX`). Every adopted resident and its
    /// device are flagged dirty, so the next tick re-arbitrates them even
    /// in [`ArbitrationMode::Incremental`].
    ///
    /// # Panics
    ///
    /// Panics if the device-resident subset does not fit its devices
    /// (`placements` must be feasible) or its length differs from the
    /// number of apps.
    pub fn with_initial_placements(mut self, placements: &[Placement]) -> Self {
        assert_eq!(placements.len(), self.apps.len());
        self.fabric.clear();
        for (i, &p) in placements.iter().enumerate() {
            if let Placement::Device(d) = p {
                self.fabric
                    .admit(d, i as u64, self.apps[i].demand)
                    .expect("initial placements must fit the fabric");
                self.warm[i / 64] |= 1 << (i % 64);
                self.delivered[i] = self.held_value_at(i, d);
                self.pending_dirty.push(i);
                self.pending_device_dirty[d.index()] = true;
            }
        }
        self.placements = placements.to_vec();
        self
    }

    /// Current per-app placements, indexed like the `apps` vector.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The scheduled applications.
    pub fn apps(&self) -> &[FleetApp] {
        &self.apps
    }

    /// The device fabric (its ledgers reflect the current placements).
    pub fn fabric(&self) -> &DeviceFabric {
        &self.fabric
    }

    /// The configuration.
    pub fn config(&self) -> &FleetControllerConfig {
        &self.config
    }

    /// The decision log.
    pub fn shifts(&self) -> &[FleetShift] {
        &self.shifts
    }

    /// The pipeline's cumulative work counters.
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// The dirty queue drained by the most recent tick, sorted by app
    /// index. Each app appears at most once however many dirty events it
    /// raised that interval.
    pub fn last_dirty(&self) -> &[usize] {
        &self.last_dirty
    }

    /// Recomputes from scratch what a tick maintains incrementally — the
    /// warm set, the band and delivered-value columns, the offline count,
    /// the pending list — and reports the first disagreement (the test
    /// suites call this after every tick).
    #[doc(hidden)]
    // inc-lint: allow(unreached-pub): tests/properties.rs and tests/mega_fabric.rs call it after every tick
    pub fn check_indexes(&self) -> Result<(), String> {
        let floor = pricing::floor_value(&self.config);
        if offline_devices(&self.fabric) != self.offline {
            return Err(format!("offline count {} is stale", self.offline));
        }
        if let Some(i) = self.pending_dirty.iter().find(|&&i| i >= self.apps.len()) {
            return Err(format!("pending list names app {i}"));
        }
        for i in 0..self.apps.len() {
            let can_move = self.held_raw_w[i] >= floor
                || self.up_streaks[i] > 0
                || self.starved_streaks[i] > 0
                || self.placements[i] != Placement::Software;
            if can_move && self.warm[i / 64] >> (i % 64) & 1 == 0 {
                return Err(format!("app {i} can move but is not in the warm set"));
            }
            let want = band(self.config.rate_deadband, self.held_rates[i]);
            if self.bands[i].to_bits() != want.to_bits() {
                return Err(format!("app {i}: band {} is not {want}", self.bands[i]));
            }
            if let Placement::Device(d) = self.placements[i] {
                let (have, want) = (self.delivered[i], self.held_value_at(i, d));
                if have != want && !(have.is_nan() && want.is_nan()) {
                    return Err(format!("app {i}: delivers {want}, cached {have}"));
                }
            }
        }
        Ok(())
    }

    /// The current admission verdict for `app`: [`AdmissionDecision::Reject`]
    /// when its demand fits no device even empty (decided up front and
    /// permanent for a fixed fabric), [`AdmissionDecision::Queue`] while
    /// it sustains a profitable demand in software without receiving
    /// capacity, [`AdmissionDecision::Admit`] otherwise.
    pub fn admission_decision(&self, app: usize) -> AdmissionDecision {
        if self.rejected[app] {
            AdmissionDecision::Reject
        } else if self.starved_streaks[app] > 0 {
            AdmissionDecision::Queue
        } else {
            AdmissionDecision::Admit
        }
    }

    /// Consecutive samples `app` has currently spent queued.
    // inc-lint: allow(unreached-pub): tests/properties.rs reads it in the fairness invariants
    pub fn starved_streak(&self, app: usize) -> u32 {
        self.starved_streaks[app]
    }

    /// Cumulative queued samples per app over the run — the back-pressure
    /// each tenant has absorbed, indexed like the `apps` vector.
    pub fn queued_intervals(&self) -> &[u64] {
        &self.queued_intervals
    }

    /// Queued samples after which `app` files a fairness claim: the
    /// configured starvation window scaled down by the app's weight,
    /// floored by the sustain window (shares must never change faster
    /// than ordinary hysteresis allows).
    pub fn starvation_threshold(&self, app: usize) -> u32 {
        self.thresholds[app]
    }

    /// The weighted-DRF entitlement of `app`: its weight over the summed
    /// weights of every tenant currently contending for the fabric
    /// (resident or queued), itself always included. 1.0 when it would
    /// contend alone.
    // inc-lint: allow(unreached-pub): tests/properties.rs reads it in the fairness invariants
    pub fn entitlement(&self, app: usize) -> f64 {
        self.apps[app].weight
            / pricing::contending_weight(&self.apps, &self.starved_streaks, app, |i| {
                self.placements[i].is_offloaded()
            })
    }

    /// The dominant share `app` currently holds on its device (0.0 in
    /// software): the quantity fairness compares against
    /// [`FleetController::entitlement`].
    pub fn dominant_share(&self, app: usize) -> f64 {
        self.fabric.dominant_share(app as u64)
    }

    /// The fairness hand-over plans available to `app` against the
    /// **current** placements, given one trusted rate per app: every
    /// device where its penalty-adjusted benefit clears the floor and a
    /// clip sequence of over-entitled incumbents frees enough room, with
    /// the forfeited benefit and migration debits of each. Unordered;
    /// rank with the configured policy's rule ([`ClaimPlan::total_cost_w`]
    /// ascending for min-cost, [`ClaimPlan::score`] descending for
    /// best-score). What a claim would see if it fired this instant —
    /// exposed for analysis and property tests.
    ///
    /// # Panics
    ///
    /// Panics if `rates.len()` differs from the number of apps.
    // inc-lint: allow(unreached-pub): tests/properties.rs ranks the plans against both claim policies
    pub fn claim_plans(&self, app: usize, rates: &[f64]) -> Vec<ClaimPlan> {
        assert_eq!(rates.len(), self.apps.len(), "one rate per app");
        pricing::plan_handovers(
            &self.config,
            &self.apps,
            &self.starved_streaks,
            &self.fabric,
            |j| self.placements[j].device(),
            |_| false,
            app,
            rates,
        )
    }

    /// Estimated power saved by offloading `app` at `rate_pps` (§8 dynamic
    /// terms): software watts minus network watts, before any locality
    /// penalty. Negative when software is cheaper. Always watts — the
    /// configured objective prices this into decision units.
    pub fn benefit_w(&self, app: usize, rate_pps: f64) -> f64 {
        pricing::raw_benefit_w(&self.apps[app], rate_pps)
    }

    /// The objective value of placing `app` on `device` at `rate_pps`:
    /// the objective-priced raw benefit scaled by the topology's
    /// locality factor (1.0 at home, the hop tier's haircut elsewhere),
    /// minus the objective-priced detour cost at that rate. Watts under
    /// the default [`Objective::Joules`](crate::fleet::Objective::Joules).
    pub fn effective_benefit_w(&self, app: usize, device: DeviceId, rate_pps: f64) -> f64 {
        pricing::effective_benefit_w(
            &self.config,
            &self.fabric,
            &self.apps[app],
            device,
            rate_pps,
        )
    }

    /// The amortised switchover debit at the configured tenure, watts:
    /// the migration cost spread over
    /// [`FleetControllerConfig::expected_tenure_samples`].
    pub fn migration_w(&self) -> f64 {
        pricing::migration_w(&self.config)
    }

    /// Benefit per capacity unit of placing `app` on `device`: the
    /// knapsack ranking key. The cost is floored so a degenerate
    /// zero-demand app yields an (enormous) finite score rather than a
    /// NaN from 0/0.
    pub fn score(&self, app: usize, device: DeviceId, rate_pps: f64) -> f64 {
        pricing::per_capacity(
            &self.fabric,
            &self.apps[app],
            device,
            self.effective_benefit_w(app, device, rate_pps),
        )
    }

    /// Flags a device whose capacity changed outside the scheduler's own
    /// decisions (an operator resizing a budget, a device draining for
    /// maintenance): next tick, every resident of that device's pod and
    /// every queued candidate homed there is re-scored.
    // inc-lint: allow(unreached-pub): tests/properties.rs raises capacity events with it
    pub fn mark_device_dirty(&mut self, device: DeviceId) {
        self.pending_device_dirty[device.index()] = true;
    }

    /// Marks a fabric device alive or dead (the chaos suite's
    /// device-kill / ToR-partition lever). Tenants of a dead device are
    /// force-evicted to software on the next
    /// [`FleetController::sample`] as [`ShiftReason::DeviceLoss`]
    /// shifts; the death raises a capacity event, so the device's pod
    /// re-arbitrates the same tick, and the device is skipped as a
    /// candidate until revived (which raises another capacity event).
    pub fn set_device_online(&mut self, id: DeviceId, online: bool) {
        self.offline += usize::from(self.fabric.is_online(id));
        self.offline -= usize::from(online);
        self.fabric.set_online(id, online);
        self.pending_device_dirty[id.index()] = true;
    }

    /// Re-targets the offload floor
    /// ([`FleetControllerConfig::min_benefit_w`]) mid-run — the
    /// power-budget knob the chaos suite flaps. A higher floor demands
    /// more §8 savings per offload (a tighter budget); existing tenants
    /// re-justify themselves against it through the ordinary eviction
    /// hysteresis, so a flap shorter than the sustain window moves
    /// nothing. Every app is marked dirty: the floor gates every score,
    /// so incremental mode must re-arbitrate the whole fleet against the
    /// new budget.
    ///
    /// # Panics
    ///
    /// Panics if `floor_w` is not finite and non-negative.
    pub fn set_min_benefit_w(&mut self, floor_w: f64) {
        FleetControllerConfig::validate_floor(floor_w);
        self.config.min_benefit_w = floor_w;
        self.pending_dirty.clear();
        self.pending_dirty.extend(0..self.apps.len());
        // A lower floor can make a cold app profitable where it stands.
        let floor = pricing::floor_value(&self.config);
        for (i, &raw) in self.held_raw_w.iter().enumerate() {
            self.warm[i / 64] |= u64::from(raw >= floor) << (i % 64);
        }
    }

    /// [`Self::effective_benefit_w`] at the held rate, from the cached
    /// raw value: the same float without re-running the energy model.
    fn held_value_at(&self, app: usize, device: DeviceId) -> f64 {
        pricing::effective_value_of(
            &self.config,
            &self.fabric,
            self.apps[app].home,
            device,
            self.held_raw_w[app],
            self.held_rates[app],
        )
    }

    /// The score of a resident where it sits, `seat`: its cached
    /// delivered value per capacity unit, times the stickiness premium.
    fn sticky_score(&self, app: usize, seat: DeviceId) -> f64 {
        let eff = self.delivered[app];
        pricing::per_capacity(&self.fabric, &self.apps[app], seat, eff) * self.config.stickiness
    }

    /// Feeds one sample per app; returns the placement changes to
    /// execute (empty most intervals — and, in incremental mode, most
    /// intervals do almost no work deciding that).
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the number of apps.
    pub fn sample(&mut self, now: Nanos, samples: &[FleetSample]) -> Vec<(usize, Placement)> {
        assert_eq!(samples.len(), self.apps.len(), "one sample per app");
        let n = self.apps.len();
        let sustain = self.config.sustain_samples;
        let floor = pricing::floor_value(&self.config);
        self.stats.ticks += 1;
        let mut s = std::mem::take(&mut self.scratch);
        s.decisions.clear();

        // Failure response precedes everything else: tenants of a dead
        // (offline) device cannot wait out hysteresis, so they are
        // force-evicted to software with their streaks reset — re-offload
        // onto a live device goes back through the ordinary sustain
        // machinery, bounded by one sustain window (the recovery deadline
        // the chaos suite pins). The death feeds the dirty-app queue: the
        // evictee is marked dirty and the dead device raises a capacity
        // event, so its whole pod re-arbitrates this very tick. The shift
        // is recorded at the rate measured on the (dead) device, priced
        // as the raw software value. Nobody is exposed while every device
        // is online, so the pass runs only during an outage.
        let exposed = if self.offline > 0 { n } else { 0 };
        for (i, sample) in samples.iter().enumerate().take(exposed) {
            if let Placement::Device(d) = self.placements[i] {
                if !self.fabric.is_online(d) {
                    let measured = sample.measured_pps(self.placements[i]);
                    self.fabric.release(i as u64);
                    self.placements[i] = Placement::Software;
                    self.up_streaks[i] = 0;
                    self.down_streaks[i] = 0;
                    self.starved_streaks[i] = 0;
                    self.fair_hold[i] = false;
                    self.pending_dirty.push(i);
                    self.pending_device_dirty[d.index()] = true;
                    self.shifts.push(FleetShift {
                        at: now,
                        app: i,
                        to: Placement::Software,
                        rate_pps: measured,
                        benefit_w: pricing::raw_value(&self.config, &self.apps[i], measured),
                        reason: ShiftReason::DeviceLoss,
                    });
                    s.decisions.push((i, Placement::Software));
                }
            }
        }

        // --- Phase 0+1: measure, hold, account streaks, build the dirty
        // queue. Every gate consulted by the solve is derived from held
        // rates, so any input change to a pod's sub-problem raises a
        // dirty event here (or was listed at the end of last tick). An
        // app may be pushed more than once; the queue is sorted and
        // deduplicated below, so the order of the sources changes nothing.
        let mut queue = std::mem::take(&mut self.last_dirty);
        queue.clear();
        // (a) Events carried over from the previous tick: placement
        // changes, queue membership changes, claims coming due.
        queue.append(&mut self.pending_dirty);

        // (b) Capacity events: a changed device dirties its whole pod —
        // every resident on the pod's devices plus every queued candidate
        // homed there (their admission odds just changed).
        reset(&mut s.pods_dirty, self.pods);
        let mut any_cap = false;
        for d in 0..self.pending_device_dirty.len() {
            if self.pending_device_dirty[d] {
                self.pending_device_dirty[d] = false;
                s.pods_dirty[self.fabric.pod(DeviceId(d as u16)) as usize] = true;
                any_cap = true;
            }
        }
        // (c) The scan — the one loop every app pays every tick: the
        // rate dead band, and nothing else.
        let deadband = self.config.rate_deadband;
        for (i, sample) in samples.iter().enumerate() {
            let measured = sample.measured_pps(self.placements[i]);
            // A NaN `held` (first sample) fails the in-band comparison,
            // so initialisation and a genuine crossing share one branch —
            // the negated `<=` is load-bearing, not a misspelt `>`.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !((measured - self.held_rates[i]).abs() <= self.bands[i]) {
                self.held_rates[i] = measured;
                self.bands[i] = band(deadband, measured);
                // Cached so a clean tick never re-runs the energy model.
                let raw = pricing::raw_value(&self.config, &self.apps[i], measured);
                self.held_raw_w[i] = raw;
                self.warm[i / 64] |= u64::from(raw >= floor) << (i % 64);
                if let Placement::Device(d) = self.placements[i] {
                    self.delivered[i] = self.held_value_at(i, d);
                }
                queue.push(i);
            }
        }
        s.warm.clear();
        for (w, &word) in self.warm.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                s.warm.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.stats.gates_evaluated += s.warm.len() as u64;
        // (d) The warm set: capacity fallout, then the hysteresis gates.
        let evict_w = floor * self.config.evict_fraction;
        for &i in &s.warm {
            if any_cap {
                let touched = match self.placements[i] {
                    Placement::Device(d) => s.pods_dirty[self.fabric.pod(d) as usize],
                    Placement::Software => {
                        self.starved_streaks[i] > 0 && s.pods_dirty[self.home_pod[i] as usize]
                    }
                };
                if touched {
                    queue.push(i);
                }
            }
            let raw = self.held_raw_w[i];
            let up_was = self.up_streaks[i] >= sustain;
            self.up_streaks[i] = if raw >= floor {
                self.up_streaks[i].saturating_add(1)
            } else {
                0
            };
            if up_was != (self.up_streaks[i] >= sustain) {
                queue.push(i);
            }
            let down_was = self.down_streaks[i] >= sustain;
            let resident = self.placements[i] != Placement::Software;
            self.down_streaks[i] = if resident && self.delivered[i] < evict_w {
                self.down_streaks[i].saturating_add(1)
            } else {
                0
            };
            if down_was != (self.down_streaks[i] >= sustain) {
                queue.push(i);
            }
        }

        // Dirty apps dirty their home pod and (if different) the pod
        // where they are resident; capacity events dirtied their pod
        // outright, above.
        queue.sort_unstable();
        queue.dedup();
        self.stats.dirty_enqueued += queue.len() as u64;
        for &i in &queue {
            s.pods_dirty[self.home_pod[i] as usize] = true;
            if let Placement::Device(d) = self.placements[i] {
                s.pods_dirty[self.fabric.pod(d) as usize] = true;
            }
        }
        if self.config.mode == ArbitrationMode::FullRescore {
            s.pods_dirty.fill(true);
        }
        self.last_dirty = queue;

        if s.pods_dirty.contains(&true) {
            self.solve(now, &mut s);
        }

        // --- Queue accounting (post-decision): a tenant is queued when
        // it sustains a profitable demand in software but received no
        // capacity this interval — plus the dirty events the transitions
        // imply: entering or leaving the queue changes DRF contention,
        // and crossing the starvation threshold arms a claim. An app
        // this leaves cold — unprofitable, off every streak, in software
        // — drops out of the warm set until its held rate next moves.
        for &i in &s.warm {
            let resident = self.placements[i] != Placement::Software;
            let queued = !self.rejected[i] && !resident && self.up_streaks[i] >= sustain;
            if queued {
                let was = self.starved_streaks[i];
                self.starved_streaks[i] = was.saturating_add(1);
                self.queued_intervals[i] += 1;
                let threshold = self.thresholds[i];
                if was == 0 || (was < threshold && self.starved_streaks[i] >= threshold) {
                    self.pending_dirty.push(i);
                }
            } else if self.starved_streaks[i] > 0 {
                self.starved_streaks[i] = 0;
                self.pending_dirty.push(i);
            }
            let cold = !(self.held_raw_w[i] >= floor || self.up_streaks[i] > 0 || resident);
            self.warm[i / 64] &= !(u64::from(cold) << (i % 64));
        }
        // The one allocation of a tick that moves something (none when
        // nothing moved: an empty `Vec` owns no memory).
        let decisions = s.decisions.to_vec();
        self.scratch = s;
        decisions
    }

    /// Re-solves the dirty pods and runs the global coordinator, then
    /// executes the diff against the current placements (appending the
    /// changes to `s.decisions`).
    fn solve(&mut self, now: Nanos, s: &mut Scratch) {
        let n = self.apps.len();
        let sustain = self.config.sustain_samples;

        // Seats kept ahead of any score: fairness tenure, cross-pod
        // spills (coordinator-owned; a host pod's locals cannot preempt
        // them), and every incumbent of a *clean* pod (whose sub-problem
        // is unchanged — the incremental reuse). Everyone else is up for
        // re-decision, so their seats are released and the fabric is
        // rebuilt *in place* — every score is allocation-independent
        // (benefit is topology-priced, capacity cost is a budget
        // fraction), so mutating mid-solve cannot skew a later score, and
        // releasing only the contested seats is what keeps a solve's cost
        // proportional to the dirty pods rather than to the fleet.
        s.selected.clear();
        s.selected.resize(n, None);
        for &i in &s.warm {
            if let Placement::Device(d) = self.placements[i] {
                let host_pod = self.fabric.pod(d) as usize;
                let cross_pod = self.fabric.pod(d) != self.home_pod[i];
                let keep = self.down_streaks[i] < sustain
                    && (self.fair_hold[i] || cross_pod || !s.pods_dirty[host_pod]);
                if keep {
                    s.selected[i] = Some(d);
                } else {
                    // Eviction due, or an incumbent of a dirty pod that
                    // must re-compete on equal footing.
                    self.fabric.release(i as u64);
                }
            }
        }

        for p in 0..self.pods {
            if s.pods_dirty[p] {
                self.stats.pods_solved += 1;
                self.solve_pod(p as u16, s);
            }
        }
        self.stats.coordinator_runs += 1;
        self.coordinate(s);

        // --- Execute the diff between the chosen assignment and the
        // current one. A cross-device move is a single decision (the
        // executor tears down one residency and programs the other). A
        // queued tenant entering capacity that freed up on its own (no
        // incumbent displaced except by its sustained low-benefit
        // eviction) is the admission queue draining; displacing a healthy
        // incumbent by raw score is still a benefit decision.
        let want_of = |seat: Option<DeviceId>| match seat {
            Some(d) => Placement::Device(d),
            None => Placement::Software,
        };
        let stays = |&i: &usize| want_of(s.selected[i]) == self.placements[i];
        if s.warm.iter().all(stays) {
            return;
        }
        s.prev_placements.clear();
        s.prev_placements.extend_from_slice(&self.placements);
        s.prev_down.clear();
        s.prev_down.extend_from_slice(&self.down_streaks);
        for &i in &s.warm {
            let want = want_of(s.selected[i]);
            if want != self.placements[i] {
                let reason = if s.fair_placed[i] || s.fair_clipped[i] {
                    ShiftReason::FairShare
                } else if let (Placement::Device(d), true) = (want, self.starved_streaks[i] > 0) {
                    let preempted = s.warm.iter().any(|&j| {
                        j != i
                            && s.prev_placements[j] == Placement::Device(d)
                            && s.selected[j] != Some(d)
                            && s.prev_down[j] < sustain
                    });
                    if preempted {
                        ShiftReason::Benefit
                    } else {
                        ShiftReason::Admission
                    }
                } else {
                    ShiftReason::Benefit
                };
                // Occupancy changed on both ends of the move: their pods
                // re-arbitrate next tick, and so does the moved app.
                if let Placement::Device(d) = self.placements[i] {
                    self.pending_device_dirty[d.index()] = true;
                }
                if let Placement::Device(d) = want {
                    self.pending_device_dirty[d.index()] = true;
                }
                self.pending_dirty.push(i);
                self.placements[i] = want;
                if let Placement::Device(d) = want {
                    self.delivered[i] = self.held_value_at(i, d);
                }
                self.up_streaks[i] = 0;
                self.down_streaks[i] = 0;
                self.starved_streaks[i] = 0;
                self.fair_hold[i] = s.fair_placed[i];
                let rate_pps = self.held_rates[i];
                let benefit_w = match want {
                    Placement::Device(d) => self.effective_benefit_w(i, d, rate_pps),
                    Placement::Software => {
                        pricing::raw_value(&self.config, &self.apps[i], rate_pps)
                    }
                };
                self.shifts.push(FleetShift {
                    at: now,
                    app: i,
                    to: want,
                    rate_pps,
                    benefit_w,
                    reason,
                });
                s.decisions.push((i, want));
            }
        }
    }

    /// Seats `app` on `dev` if its demand fits there. Checked with
    /// [`inc_hw::DeviceCapacity::fits`] first, so a refusal (the common
    /// outcome on a full fabric) costs three comparisons, not a
    /// diagnosis nobody reads.
    fn try_seat(&mut self, app: usize, dev: DeviceId) -> bool {
        let demand = self.apps[app].demand;
        self.fabric.device(dev).fits(&demand) && self.fabric.admit(dev, app as u64, demand).is_ok()
    }

    /// Seats the app of `run` — candidates equal on every key of
    /// [`Cand::order`] — on the first device the run offers, in
    /// ascending index over `scope`, that has room for it.
    fn seat_run(&mut self, run: &[Cand], scope: Range<usize>) -> Option<DeviceId> {
        let app = run[0].app;
        let scope = match run[0].seats {
            // A lone device needs no walk.
            Seats::Device(d) if run.len() == 1 => d.index()..d.index() + 1,
            _ => scope,
        };
        let home = self.apps[app].home;
        let seat = self.placements[app].device();
        let offered = |fabric: &DeviceFabric, d: DeviceId| {
            run.iter().any(|c| match c.seats {
                Seats::Device(x) => x == d,
                Seats::Class(class) => {
                    Some(d) != seat
                        && fabric.is_online(d)
                        && fabric.budget_class(d) == class
                        && fabric.distance(home, d) == c.dist
                }
            })
        };
        scope
            .map(|d| DeviceId(d as u16))
            .find(|&d| offered(&self.fabric, d) && self.try_seat(app, d))
    }

    /// Prices app `i`'s fresh candidates over the online devices of
    /// `scope`, tallied by budget class in `tally`: one candidate per
    /// (hop tier, budget class), never one per device. With `home_pod`
    /// these are the home device alone (distance 0) and each class of
    /// the rest of the home pod (distance 1); always, each class outside
    /// the home pod (distance 2). The app's current seat belongs to no
    /// class, and a resident leaving it pays the migration debit. A
    /// candidate is pushed onto `out` when its value clears the floor and
    /// its score beats `beat`. Returns the (app, device) pairs priced.
    fn class_cands(
        &self,
        i: usize,
        scope: Range<usize>,
        tally: &[ClassTally],
        home_pod: bool,
        beat: Option<f64>,
        out: &mut Vec<Cand>,
    ) -> u64 {
        let fabric = &self.fabric;
        let floor = pricing::floor_value(&self.config);
        let home = self.apps[i].home;
        let pod = self.home_pod[i];
        let pod_range = fabric.pod_range(pod);
        let seat = self.placements[i].device();
        // A newcomer pays no debit (`x - 0.0` is `x`, bit for bit).
        let debit = seat.map_or(0.0, |_| pricing::migration_value(&self.config));
        // One device of each tier from home (0 home, 1 rest of the home
        // pod, 2 other pods): any one prices the tier's haircut and
        // detour. Used only where the tier has members.
        let next_door = pod_range.start + usize::from(pod_range.start == home.index());
        let far = if pod == 0 { pod_range.end } else { 0 };
        let tier_devices = [home.index(), next_door, far].map(|d| DeviceId(d as u16));
        // Whether `d` is an online device of `class`, inside the home
        // pod or outside it.
        let member = |d: Option<DeviceId>, class: u16, inside: bool| {
            d.is_some_and(|d| {
                fabric.is_online(d)
                    && fabric.budget_class(d) == class
                    && (fabric.pod(d) == pod) == inside
            })
        };
        let mut scored = 0;
        for t in tally {
            // The class's cost units, read once for all three tiers and
            // only when some tier clears the floor.
            let mut cost = None;
            // A pod arbiter's scope is the home pod itself.
            let in_pod = if scope == pod_range {
                t.count
            } else {
                pod_range
                    .clone()
                    .filter(|&d| member(Some(DeviceId(d as u16)), t.class, true))
                    .count() as u32
            };
            let at_home = member(Some(home), t.class, true);
            let local = home_pod && at_home && seat != Some(home);
            let intra = if home_pod {
                in_pod
                    - u32::from(at_home)
                    - u32::from(seat != Some(home) && member(seat, t.class, true))
            } else {
                0
            };
            let inter = t.count - in_pod - u32::from(member(seat, t.class, false));
            for (dist, members) in [u32::from(local), intra, inter].into_iter().enumerate() {
                if members == 0 {
                    continue;
                }
                scored += u64::from(members);
                let value = self.held_value_at(i, tier_devices[dist]) - debit;
                if value >= floor {
                    let cost = *cost.get_or_insert_with(|| {
                        pricing::capacity_cost(fabric, &self.apps[i], t.first)
                    });
                    let score = value / cost;
                    if beat.is_none_or(|b| score > b) {
                        out.push(Cand {
                            score,
                            app: i,
                            dist: dist as u32,
                            seats: if dist == 0 {
                                Seats::Device(home)
                            } else {
                                Seats::Class(t.class)
                            },
                        });
                    }
                }
            }
        }
        scored
    }

    /// The pod arbiter: re-solves the greedy knapsack for apps homed in
    /// `pod` over the pod's own devices — one run of candidates sorted
    /// into [`Cand::order`], admitted in one scan. Residents keep
    /// competing until their eviction condition sustains (even through
    /// transient dips — that is the hysteresis); newcomers join only
    /// after their benefit sustains. A resident's candidacy on its *current* device carries
    /// the stickiness premium; on any other device it is priced like a
    /// fresh offload net of the amortised migration debit, so a hop worth
    /// less than the reprogramming it triggers loses to staying put.
    fn solve_pod(&mut self, pod: u16, s: &mut Scratch) {
        let sustain = self.config.sustain_samples;
        let scope = self.fabric.pod_range(pod);
        tally_classes(&self.fabric, scope.clone(), &mut s.tally);
        s.cands.clear();
        for &i in &self.apps_by_pod[pod as usize] {
            if self.rejected[i] || s.selected[i].is_some() {
                continue;
            }
            let cur = match self.placements[i] {
                Placement::Device(cur) if self.fabric.pod(cur) == pod => {
                    if self.down_streaks[i] >= sustain {
                        continue;
                    }
                    Some(cur)
                }
                // Cross-pod residents are coordinator-owned (their seat
                // was pre-kept or their eviction is due).
                Placement::Device(_) => continue,
                Placement::Software => None,
            };
            if let Some(cur) = cur.filter(|&d| self.fabric.is_online(d)) {
                self.stats.candidates_scored += 1;
                s.cands.push(Cand {
                    score: self.sticky_score(i, cur),
                    app: i,
                    dist: self.fabric.distance(self.apps[i].home, cur),
                    seats: Seats::Device(cur),
                });
            }
            if self.up_streaks[i] >= sustain {
                self.stats.candidates_scored +=
                    self.class_cands(i, scope.clone(), &s.tally, true, None, &mut s.cands);
            }
        }
        s.cands.sort_unstable_by(Cand::order);
        for run in s.cands.chunk_by(|a, b| Cand::order(a, b).is_eq()) {
            // An app seated by a better run skips its others.
            if s.selected[run[0].app].is_none() {
                s.selected[run[0].app] = self.seat_run(run, scope.clone());
            }
        }
    }

    /// The global coordinator: cross-pod spills and moves, then the
    /// weighted-DRF fairness pass over the whole fabric. Leaves the
    /// `fair_placed` / `fair_clipped` marks on `s` for reason tagging.
    fn coordinate(&mut self, s: &mut Scratch) {
        let Scratch {
            warm,
            selected,
            tally,
            cands,
            moved,
            fair_placed,
            fair_clipped,
            claimants,
            ..
        } = s;
        let n = self.apps.len();
        let sustain = self.config.sustain_samples;
        let scope = 0..self.fabric.device_count();

        // (a) Cross-pod candidates: spills for apps their home pod could
        // not place, and moves (including repatriation) for cross-pod
        // residents — gated by the same sustain/floor rules as intra-pod
        // move candidates, and a mover must beat its own sticky score
        // where it sits.
        cands.clear();
        tally.clear();
        for &i in warm.iter() {
            let seat = selected[i];
            if self.rejected[i] || self.up_streaks[i] < sustain {
                continue;
            }
            // Who competes: a cross-pod resident (`stay`: the sticky
            // score a move must beat) for every device but its seat; a
            // home resident preempted at home, or a sustained software
            // tenant its pod could not place, for every device outside
            // the home pod.
            let stay = match self.placements[i] {
                Placement::Device(cur) => {
                    if self.down_streaks[i] >= sustain {
                        continue;
                    }
                    let cross = self.fabric.pod(cur) != self.home_pod[i];
                    if cross && seat == Some(cur) {
                        Some(self.sticky_score(i, cur))
                    } else if !cross && seat.is_none() {
                        None
                    } else {
                        continue;
                    }
                }
                Placement::Software if seat.is_none() => None,
                Placement::Software => continue,
            };
            // The fabric's classes, tallied on first use.
            if tally.is_empty() {
                tally_classes(&self.fabric, scope.clone(), tally);
            }
            self.stats.candidates_scored +=
                self.class_cands(i, scope.clone(), tally, stay.is_some(), stay, cands);
        }
        cands.sort_unstable_by(Cand::order);
        reset(moved, n);
        for run in cands.chunk_by(|a, b| Cand::order(a, b).is_eq()) {
            // A cross-pod resident moving: `admit` releases the old seat
            // atomically (a program moves, it is not copied).
            let app = run[0].app;
            if !moved[app] {
                if let Some(d) = self.seat_run(run, scope.clone()) {
                    selected[app] = Some(d);
                    moved[app] = true;
                }
            }
        }

        // (b) Weighted-DRF fairness pass over the whole fabric: tenants
        // starved past their weighted window claim capacity by clipping
        // over-entitled incumbents, most over-weighted-share first. The
        // hand-over is planned on every feasible device and executed
        // where the configured claim policy prefers. Clipped incumbents
        // fall back to software this interval and re-enter through the
        // ordinary sustain machinery; with no feasible plan the claim
        // stays pending and the starvation streak keeps accruing.
        reset(fair_placed, n);
        reset(fair_clipped, n);
        claimants.clear();
        claimants.extend(warm.iter().copied().filter(|&i| {
            !self.rejected[i]
                && selected[i].is_none()
                && self.starved_streaks[i] >= self.thresholds[i]
        }));
        if !claimants.is_empty() {
            claimants.sort_unstable_by(|&a, &b| {
                let da = self.starved_streaks[a] as f64 * self.apps[a].weight;
                let db = self.starved_streaks[b] as f64 * self.apps[b].weight;
                db.total_cmp(&da).then(a.cmp(&b))
            });
            for &i in claimants.iter() {
                if selected[i].is_some() {
                    continue;
                }
                let mut plans = pricing::plan_handovers(
                    &self.config,
                    &self.apps,
                    &self.starved_streaks,
                    &self.fabric,
                    |j| selected[j],
                    |j| fair_placed[j],
                    i,
                    &self.held_rates,
                );
                self.stats.candidates_scored += plans.len() as u64;
                pricing::order_plans(&mut plans, self.config.claim_policy);
                if let Some(plan) = plans.first() {
                    for &e in &plan.clips {
                        self.fabric.release(e as u64);
                        selected[e] = None;
                        fair_clipped[e] = true;
                    }
                    self.fabric
                        .admit(plan.device, i as u64, self.apps[i].demand)
                        .expect("a planned hand-over fits by construction");
                    selected[i] = Some(plan.device);
                    fair_placed[i] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::oracle::FlatOracle;
    use crate::host::HostSample;
    use crate::PlacementAnalysis;
    use inc_hw::{PipelineBudget, ProgramResources, TierCost, Topology};
    use inc_power::EnergyParams;

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

    fn app(name: &str, stages: u32, slope: f64, unpark: f64) -> FleetApp {
        app_homed(name, stages, slope, unpark, DeviceId::LOCAL)
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

    /// Two 12-stage ToRs per pod, two pods: the smallest fabric where
    /// the coordinator has real cross-pod work.
    fn two_pods() -> DeviceFabric {
        DeviceFabric::homogeneous(
            4,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(
                2,
                TierCost::standard_intra_pod(),
                TierCost::standard_inter_pod(),
            ),
        )
    }

    fn shift_key(s: &FleetShift) -> (Nanos, usize, Placement, ShiftReason, u64, u64) {
        (
            s.at,
            s.app,
            s.to,
            s.reason,
            s.rate_pps.to_bits(),
            s.benefit_w.to_bits(),
        )
    }

    /// With one pod and a zero dead band the pipeline must reproduce the
    /// flat sorted scan exactly: same decisions, same placements, same
    /// shift log (bit-identical rates and benefits).
    #[test]
    fn single_pod_zero_deadband_matches_flat_oracle() {
        let apps = || {
            vec![
                app("a", 7, 0.08, 2.0),
                app("b", 6, 0.14, 2.0),
                app("c", 4, 0.10, 2.0),
            ]
        };
        let fabric = || DeviceFabric::single(PipelineBudget::tofino_like());
        let mut flat = FlatOracle::new(cfg(), fabric(), apps());
        let mut hier = FleetController::new(cfg(), fabric(), apps());
        // A trace with offloads, an eviction, contention and recovery.
        let rate_of = |step: u64, i: usize| -> f64 {
            match (i, step) {
                (1, 0..=8) => 100_000.0,
                (1, _) => 1_000.0, // b collapses -> eviction
                (0, _) => 100_000.0,
                (2, 0..=4) => 500.0,
                (2, _) => 90_000.0, // c heats up mid-run
                _ => unreachable!(),
            }
        };
        for step in 1..=24 {
            let s: Vec<FleetSample> = (0..3)
                .map(|i| {
                    let r = rate_of(step, i);
                    sample(r, r)
                })
                .collect();
            let df = flat.sample(t(step), &s);
            let dh = hier.sample(t(step), &s);
            assert_eq!(df, dh, "decisions diverged at step {step}");
            assert_eq!(flat.placements(), hier.placements(), "step {step}");
        }
        assert_eq!(flat.shifts().len(), hier.shifts().len());
        for (f, h) in flat.shifts().iter().zip(hier.shifts()) {
            assert_eq!(shift_key(f), shift_key(h));
        }
        assert!(!flat.shifts().is_empty(), "the trace must exercise shifts");
    }

    /// Incremental scheduling and a full re-score make the same decisions
    /// on a multi-pod trace — while solving far fewer pod problems.
    #[test]
    fn incremental_matches_full_rescore_across_pods() {
        let apps = || {
            vec![
                app_homed("a", 7, 0.08, 2.0, DeviceId(0)),
                app_homed("b", 6, 0.14, 2.0, DeviceId(0)),
                app_homed("c", 7, 0.10, 2.0, DeviceId(2)),
                app_homed("d", 5, 0.09, 2.0, DeviceId(3)),
            ]
        };
        let build = |mode| {
            FleetController::new(
                FleetControllerConfig {
                    mode,
                    rate_deadband: 0.05,
                    ..cfg()
                },
                two_pods(),
                apps(),
            )
        };
        let mut full = build(ArbitrationMode::FullRescore);
        let mut inc = build(ArbitrationMode::Incremental);
        let rate_of = |step: u64, i: usize| -> f64 {
            match (i, step) {
                (0, _) => 100_000.0 + (step % 3) as f64, // wobbles inside the band
                (1, 0..=10) => 120_000.0,
                (1, _) => 800.0, // collapses
                (2, _) => 95_000.0,
                (3, 0..=6) => 400.0,
                (3, _) => 70_000.0, // heats up
                _ => unreachable!(),
            }
        };
        for step in 1..=30 {
            let s: Vec<FleetSample> = (0..4)
                .map(|i| {
                    let r = rate_of(step, i);
                    sample(r, r)
                })
                .collect();
            let df = full.sample(t(step), &s);
            let di = inc.sample(t(step), &s);
            assert_eq!(df, di, "decisions diverged at step {step}");
            assert_eq!(full.placements(), inc.placements(), "step {step}");
        }
        assert_eq!(full.shifts().len(), inc.shifts().len());
        for (f, i) in full.shifts().iter().zip(inc.shifts()) {
            assert_eq!(shift_key(f), shift_key(i));
        }
        assert!(!full.shifts().is_empty(), "the trace must exercise shifts");
        let (sf, si) = (full.stats(), inc.stats());
        assert_eq!(
            sf.pods_solved,
            2 * sf.ticks,
            "full re-score solves all pods"
        );
        assert!(
            si.pods_solved < sf.pods_solved / 2,
            "incremental solved {} of {} pod problems",
            si.pods_solved,
            sf.pods_solved
        );
        assert!(si.candidates_scored < sf.candidates_scored);
    }

    /// An app flapping *exactly* on the dead band never re-enters the
    /// dirty queue (the band is strict), and a genuine crossing enqueues
    /// it exactly once per interval however many events it raises.
    #[test]
    fn deadband_flap_enqueues_at_most_once_per_interval() {
        // 0.25 is exact in binary, so `deadband × held` is exactly
        // 25 000 pps and the band-edge equality below is not at the
        // mercy of rounding.
        let mut ctl = FleetController::new(
            FleetControllerConfig {
                mode: ArbitrationMode::Incremental,
                rate_deadband: 0.25,
                ..cfg()
            },
            DeviceFabric::single(PipelineBudget::tofino_like()),
            // Unprofitable at every rate in the trace (raw benefit stays
            // under the 1 W floor), so the hysteresis gates never flip and
            // the only dirty events are rate-band crossings.
            vec![app("a", 7, 0.005, 2.0)],
        );
        // First sample seeds the held rate: one enqueue.
        let base = 100_000.0;
        ctl.sample(t(1), &[sample(base, base)]);
        assert_eq!(ctl.last_dirty(), &[0]);
        assert_eq!(ctl.held_rates[0], base);
        // Flap exactly on the band edge, alternating sides: |m - h| ==
        // deadband * h is NOT a crossing (strictly greater required).
        for step in 2..=7 {
            let m = if step % 2 == 0 {
                base * 1.25
            } else {
                base * 0.75
            };
            ctl.sample(t(step), &[sample(m, m)]);
            assert!(
                !ctl.last_dirty().contains(&0),
                "on-band flap re-scored at step {step}: {:?}",
                ctl.last_dirty()
            );
            assert_eq!(ctl.held_rates[0], base, "held rate moved at step {step}");
        }
        // A real crossing: held moves, the app is enqueued exactly once
        // even though the rate event and (possibly) gate events coincide.
        let burst = base * 2.0;
        ctl.sample(t(8), &[sample(burst, burst)]);
        assert_eq!(ctl.last_dirty(), &[0]);
        assert_eq!(ctl.held_rates[0], burst);
        let enqueued = ctl.stats().dirty_enqueued;
        assert_eq!(enqueued, 2, "the seed and the one genuine crossing");
        // Quiet tail: no further enqueues at all.
        for step in 9..=13 {
            ctl.sample(t(step), &[sample(burst, burst)]);
            assert!(ctl.last_dirty().is_empty(), "step {step}");
        }
        assert_eq!(ctl.stats().dirty_enqueued, enqueued);
    }

    /// A capacity event on one device re-scores every resident of that
    /// device's pod and every queued candidate homed there — and nobody
    /// in other pods.
    #[test]
    fn capacity_change_dirties_pod_residents_and_queued_candidates() {
        // Pod 0: a resident (a) and a starved candidate (b) that cannot
        // co-reside with it. Pod 1: a settled resident (c).
        let apps = vec![
            app_homed("a", 7, 0.14, 2.0, DeviceId(0)),
            app_homed("b", 6, 0.08, 2.0, DeviceId(0)),
            app_homed("c", 7, 0.10, 2.0, DeviceId(1)),
        ];
        // One 12-stage device per pod so pod 0 genuinely starves b, and
        // an inter-pod haircut harsh enough that b will not spill to pod
        // 1 (0.08 slope × 0.05 at 100 kpps is far under the 1 W floor).
        let fabric = DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::fat_tree(
                2,
                1,
                TierCost::standard_intra_pod(),
                TierCost {
                    extra_latency: Nanos::from_micros(6),
                    benefit_factor: 0.05,
                    link_energy_nj: 0.0,
                },
            ),
        );
        let mut ctl = FleetController::new(
            FleetControllerConfig {
                mode: ArbitrationMode::Incremental,
                rate_deadband: 0.05,
                ..cfg()
            },
            fabric,
            apps,
        );
        let s = [
            sample(100_000.0, 100_000.0),
            sample(100_000.0, 100_000.0),
            sample(100_000.0, 100_000.0),
        ];
        for step in 1..=8 {
            ctl.sample(t(step), &s);
        }
        assert_eq!(ctl.placements()[0], Placement::Device(DeviceId(0)));
        assert_eq!(ctl.placements()[2], Placement::Device(DeviceId(1)));
        assert_eq!(ctl.placements()[1], Placement::Software);
        assert_eq!(ctl.admission_decision(1), AdmissionDecision::Queue);
        // Settle: a quiet tick with an empty dirty queue.
        ctl.sample(t(9), &s);
        assert_eq!(ctl.last_dirty(), &[] as &[usize]);
        // A capacity event on pod 0's device dirties its resident (a) and
        // the starved candidate homed there (b) — but not pod 1's c.
        ctl.mark_device_dirty(DeviceId(0));
        ctl.sample(t(10), &s);
        assert_eq!(ctl.last_dirty(), &[0, 1]);
        // And the event is consumed: the next tick is clean again.
        ctl.sample(t(11), &s);
        assert_eq!(ctl.last_dirty(), &[] as &[usize]);
    }

    /// Quiet ticks in incremental mode skip the solve entirely: no pod
    /// problems, no coordinator run, no candidate scoring.
    #[test]
    fn quiet_ticks_do_no_arbitration_work() {
        let mut ctl = FleetController::new(
            FleetControllerConfig {
                rate_deadband: 0.05,
                ..cfg()
            },
            two_pods(),
            vec![
                app_homed("a", 7, 0.08, 2.0, DeviceId(0)),
                app_homed("c", 7, 0.10, 2.0, DeviceId(2)),
            ],
        );
        let s = [sample(100_000.0, 100_000.0), sample(95_000.0, 95_000.0)];
        for step in 1..=6 {
            ctl.sample(t(step), &s);
        }
        let settled = ctl.stats();
        for step in 7..=20 {
            ctl.sample(t(step), &s);
        }
        let after = ctl.stats();
        assert_eq!(after.pods_solved, settled.pods_solved);
        assert_eq!(after.coordinator_runs, settled.coordinator_runs);
        assert_eq!(after.candidates_scored, settled.candidates_scored);
        assert_eq!(after.dirty_enqueued, settled.dirty_enqueued);
        assert_eq!(after.ticks, 20);
    }

    /// Rates no meter can truthfully report.
    const HOSTILE_RATES: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];

    /// A resident whose network-measured rate turns hostile reads as idle:
    /// it accrues a down-streak and leaves within one sustain window,
    /// instead of holding its seat on a NaN score that outranks every
    /// finite one.
    #[test]
    fn a_resident_fed_nan_is_evicted_within_one_sustain_window() {
        for hostile in HOSTILE_RATES {
            let mut ctl = FleetController::new(
                cfg(),
                DeviceFabric::single(PipelineBudget::tofino_like()),
                vec![app("a", 7, 0.08, 2.0)],
            );
            for step in 1..=4 {
                ctl.sample(t(step), &[sample(100_000.0, 100_000.0)]);
            }
            assert_eq!(ctl.placements(), &[Placement::Device(DeviceId::LOCAL)]);
            let sustain = u64::from(ctl.config().sustain_samples);
            for step in 5..5 + sustain {
                ctl.sample(t(step), &[sample(100_000.0, hostile)]);
                assert_eq!(ctl.held_rates[0], 0.0, "{hostile} pps is read as idle");
            }
            assert_eq!(
                ctl.placements(),
                &[Placement::Software],
                "a resident measured at {hostile} pps kept its seat"
            );
            let last = ctl.shifts().last().expect("the eviction is logged");
            assert_eq!((last.to, last.rate_pps), (Placement::Software, 0.0));
        }
    }

    /// A software tenant whose offered rate is hostile is never offloaded
    /// on the strength of it, and no non-finite rate reaches the held
    /// state or the shift log.
    #[test]
    fn a_software_tenant_offering_a_hostile_rate_stays_idle() {
        for hostile in HOSTILE_RATES {
            let mut ctl = FleetController::new(
                cfg(),
                DeviceFabric::single(PipelineBudget::tofino_like()),
                vec![app("a", 7, 0.08, 2.0), app("b", 4, 0.10, 2.0)],
            );
            for step in 1..=10 {
                ctl.sample(
                    t(step),
                    &[sample(hostile, 100_000.0), sample(90_000.0, 90_000.0)],
                );
                assert_eq!(ctl.held_rates[0], 0.0, "{hostile} pps is read as idle");
            }
            assert_eq!(
                ctl.placements(),
                &[Placement::Software, Placement::Device(DeviceId::LOCAL)],
                "offered {hostile} pps"
            );
            assert!(ctl.shifts().iter().all(|s| s.app == 1));
        }
    }

    /// A dead device's tenants are evicted at the rate read off it: a
    /// hostile reading logs 0 pps, not a NaN.
    #[test]
    fn a_device_loss_shift_never_logs_a_hostile_rate() {
        let mut ctl = FleetController::new(
            cfg(),
            DeviceFabric::single(PipelineBudget::tofino_like()),
            vec![app("a", 7, 0.08, 2.0)],
        );
        for step in 1..=4 {
            ctl.sample(t(step), &[sample(100_000.0, 100_000.0)]);
        }
        ctl.set_device_online(DeviceId::LOCAL, false);
        let moved = ctl.sample(t(5), &[sample(100_000.0, f64::NAN)]);
        assert_eq!(moved, vec![(0, Placement::Software)]);
        let last = ctl.shifts().last().unwrap();
        assert_eq!(last.reason, ShiftReason::DeviceLoss);
        assert_eq!(last.rate_pps, 0.0);
        assert!(last.benefit_w.is_finite());
    }

    /// Drives one controller per arbitration mode through `drive` and
    /// returns the incremental one, its shift log, placements and queue
    /// metric proven equal to the full re-score's.
    fn in_both_modes(
        build: impl Fn(ArbitrationMode) -> FleetController,
        drive: impl Fn(&mut FleetController),
    ) -> FleetController {
        let mut full = build(ArbitrationMode::FullRescore);
        let mut inc = build(ArbitrationMode::Incremental);
        drive(&mut full);
        drive(&mut inc);
        assert_eq!(
            full.shifts().iter().map(shift_key).collect::<Vec<_>>(),
            inc.shifts().iter().map(shift_key).collect::<Vec<_>>()
        );
        assert_eq!(full.placements(), inc.placements());
        assert_eq!(full.queued_intervals(), inc.queued_intervals());
        inc
    }

    /// One tick, then the per-tick invariants: the maintained indexes
    /// agree with a recomputation, and every placement is exactly the
    /// app's one residency on the fabric.
    fn tick(ctl: &mut FleetController, step: u64, s: &[FleetSample]) -> Vec<(usize, Placement)> {
        let moved = ctl.sample(t(step), s);
        ctl.check_indexes().unwrap();
        for (i, p) in ctl.placements().iter().enumerate() {
            assert_eq!(ctl.fabric().residency(i as u64), p.device(), "app {i}");
        }
        moved
    }

    fn four_hot_apps(mode: ArbitrationMode) -> FleetController {
        FleetController::new(
            FleetControllerConfig { mode, ..cfg() },
            two_pods(),
            (0..4)
                .map(|d| {
                    app_homed(
                        &format!("t{d}"),
                        7,
                        0.08 + 0.01 * d as f64,
                        2.0,
                        DeviceId(d),
                    )
                })
                .collect(),
        )
    }

    /// The whole fabric dies in one interval: every resident leaves as a
    /// `DeviceLoss` in that tick, nothing is scored while it is dark, and
    /// revival re-offloads within one sustain window plus the revival
    /// tick — however long the outage lasted.
    #[test]
    fn every_device_offline_at_once_evicts_all_and_revival_recovers() {
        let hot = [sample(100_000.0, 100_000.0); 4];
        for dark_ticks in [1, 5] {
            in_both_modes(four_hot_apps, |ctl| {
                for step in 1..=5 {
                    tick(ctl, step, &hot);
                }
                assert!(ctl.placements().iter().all(|p| p.is_offloaded()));
                let logged = ctl.shifts().len();
                for d in 0..4 {
                    ctl.set_device_online(DeviceId(d), false);
                }
                let scored = ctl.stats().candidates_scored;
                let moved = tick(ctl, 6, &hot);
                assert_eq!(
                    moved,
                    (0..4).map(|i| (i, Placement::Software)).collect::<Vec<_>>()
                );
                let losses = &ctl.shifts()[logged..];
                assert_eq!(losses.len(), 4);
                assert!(losses.iter().all(|s| s.reason == ShiftReason::DeviceLoss));
                for step in 7..6 + dark_ticks {
                    assert!(tick(ctl, step, &hot).is_empty(), "moved in the dark");
                }
                assert_eq!(ctl.stats().candidates_scored, scored, "scored in the dark");
                for d in 0..4 {
                    ctl.set_device_online(DeviceId(d), true);
                }
                let deadline = u64::from(ctl.config().sustain_samples) + 1;
                for step in 0..deadline {
                    tick(ctl, 6 + dark_ticks + step, &hot);
                }
                assert!(
                    ctl.placements().iter().all(|p| p.is_offloaded()),
                    "not re-offloaded {deadline} ticks after revival: {:?}",
                    ctl.placements()
                );
            });
        }
    }

    /// A fabric handed over with a device already dead: the device is
    /// never a candidate, its home tenant settles on the pod neighbour,
    /// and reviving it is an ordinary capacity event.
    #[test]
    fn a_fabric_built_with_a_device_offline_routes_around_it() {
        let hot = [sample(100_000.0, 100_000.0); 4];
        let build = |mode| {
            let mut fabric = two_pods();
            fabric.set_online(DeviceId(0), false);
            FleetController::new(
                FleetControllerConfig { mode, ..cfg() },
                fabric,
                vec![
                    app_homed("a", 7, 0.14, 2.0, DeviceId(0)),
                    app_homed("b", 4, 0.10, 2.0, DeviceId(1)),
                ],
            )
        };
        in_both_modes(build, |ctl| {
            ctl.check_indexes().unwrap();
            for step in 1..=6 {
                tick(ctl, step, &hot[..2]);
                assert_ne!(ctl.placements()[0], Placement::Device(DeviceId(0)));
            }
            assert_eq!(ctl.placements()[0], Placement::Device(DeviceId(1)));
            assert!(ctl
                .shifts()
                .iter()
                .all(|s| s.reason != ShiftReason::DeviceLoss));
            ctl.set_device_online(DeviceId(0), true);
            for step in 7..=30 {
                tick(ctl, step, &hot[..2]);
            }
            // 7 + 4 stages fit the neighbour together, so going home is
            // worth less than the switchover: the revived device idles.
            assert!(ctl.placements().iter().all(|p| p.is_offloaded()));
        });
    }

    /// No tenants at all: every tick is empty, whatever the fabric does.
    #[test]
    fn a_zero_app_controller_ticks_without_work() {
        in_both_modes(
            |mode| {
                FleetController::new(FleetControllerConfig { mode, ..cfg() }, two_pods(), vec![])
            },
            |ctl| {
                assert!(tick(ctl, 1, &[]).is_empty());
                ctl.set_device_online(DeviceId(2), false);
                ctl.set_min_benefit_w(3.0);
                assert!(tick(ctl, 2, &[]).is_empty());
                assert_eq!(ctl.last_dirty(), &[] as &[usize]);
                assert_eq!(ctl.stats().candidates_scored, 0);
            },
        );
    }

    /// A clock that repeats or runs backwards between ticks changes no
    /// decision rule: both modes still agree shift for shift, and
    /// nothing panics on the rewound timestamps.
    #[test]
    fn repeated_and_backwards_timestamps_never_price_a_negative_tenure() {
        let build = |mode| {
            FleetController::new(
                FleetControllerConfig {
                    mode,
                    sustain_samples: 1,
                    ..cfg()
                },
                DeviceFabric::single(PipelineBudget::tofino_like()),
                vec![app("a", 7, 0.08, 2.0)],
            )
        };
        // The tenant flaps every tick while the clock stutters and rewinds.
        let clock = [9, 9, 4, 4, 1, 7, 7, 2, 30, 3];
        let ctl = in_both_modes(build, |ctl| {
            for (k, &now) in clock.iter().enumerate() {
                let r = if k % 2 == 0 { 100_000.0 } else { 0.0 };
                tick(ctl, now, &[sample(r, r)]);
            }
        });
        assert!(
            ctl.shifts().len() >= 8,
            "the trace must shift: {:?}",
            ctl.shifts()
        );
    }

    /// The budgets the mixed-fabric tests draw from: a Tofino-class
    /// budget; its twin, which differs only in parse depth, so every
    /// demand costs the same `cost_units` on both and their classes tie;
    /// and a smaller one.
    fn palette() -> [PipelineBudget; 3] {
        let tofino = PipelineBudget::tofino_like();
        [
            tofino,
            PipelineBudget {
                parse_depth_bytes: 256,
                ..tofino
            },
            PipelineBudget {
                stages: 8,
                sram_bytes: 24 << 20,
                parse_depth_bytes: 192,
            },
        ]
    }

    /// Three pods of two ToRs with the given budgets and tenants, the
    /// tenants seated as given.
    fn three_pods(
        budgets: [PipelineBudget; 6],
        apps: &[FleetApp],
        seats: &[Placement],
        mode: ArbitrationMode,
    ) -> FleetController {
        let topology = Topology::rack_pairs(
            3,
            TierCost::standard_intra_pod(),
            TierCost::standard_inter_pod(),
        );
        FleetController::new(
            FleetControllerConfig { mode, ..cfg() },
            DeviceFabric::new(budgets.to_vec(), topology),
            apps.to_vec(),
        )
        .with_initial_placements(seats)
    }

    /// The coordinator walks tied classes by device index: with twin
    /// budgets interleaved across three pods, a spill and a cross-pod
    /// move each land on the lowest-index device of the tied classes
    /// that has room — in both modes. Pod 0 is full of hot 9-stage
    /// tenants in both cases.
    #[test]
    fn spills_and_cross_pod_moves_take_the_first_device_of_tied_classes() {
        let [tofino, twin, small] = palette();
        let hot = [sample(100_000.0, 100_000.0); 4];
        let filler = |home| app_homed("f", 9, 0.3, 2.0, DeviceId(home));
        let on = |d| Placement::Device(DeviceId(d));
        let settle = |ctl: &mut FleetController| {
            for step in 1..=4 {
                tick(ctl, step, &hot[..ctl.apps().len()]);
            }
        };
        // x spills: tor2 (Tofino, holding a third filler) refuses it and
        // tor3 (twin) is the next device of the tied classes.
        let apps = [
            filler(0),
            filler(1),
            filler(2),
            app_homed("x", 7, 0.08, 2.0, DeviceId(0)),
        ];
        let seats = [on(0), on(1), on(2), Placement::Software];
        let budgets = [tofino, twin, tofino, twin, tofino, twin];
        let ctl = in_both_modes(|mode| three_pods(budgets, &apps, &seats, mode), settle);
        assert_eq!(ctl.placements(), &[on(0), on(1), on(2), on(3)]);
        // y sits on the small tor2, where the stickiness premium does not
        // cover the capacity it costs, so it moves: to tor3 (twin), the
        // first of tor3, tor4 (Tofino) and tor5 (twin).
        let apps = [
            filler(0),
            filler(1),
            app_homed("y", 7, 0.14, 2.0, DeviceId(0)),
        ];
        let seats = [on(0), on(1), on(2)];
        let budgets = [tofino, twin, small, twin, tofino, twin];
        let ctl = in_both_modes(|mode| three_pods(budgets, &apps, &seats, mode), settle);
        assert_eq!(ctl.placements(), &[on(0), on(1), on(3)]);
        assert_eq!(ctl.shifts().len(), 1, "{:?}", ctl.shifts());
    }

    type PerDevice = (f64, usize, u32, DeviceId);

    /// The per-device reference for one pod: every (app, online pod
    /// device) pair priced on its own — the sticky score on the app's
    /// seat, a migration-debited fresh offload elsewhere once sustained —
    /// put in the four-key order by a plain sort (score descending by
    /// `total_cmp`, then app index, hop distance, device index) and
    /// admitted through `ledger`. Returns the pairs priced, the refusals
    /// and the sorted (score, app, distance, device) candidates.
    fn per_device_solve(
        ctl: &FleetController,
        pod: u16,
        ledger: &mut DeviceFabric,
        seats: &mut [Option<DeviceId>],
    ) -> (u64, usize, Vec<PerDevice>) {
        let sustain = ctl.config.sustain_samples;
        let floor = pricing::floor_value(&ctl.config);
        let migration = pricing::migration_value(&ctl.config);
        let (mut priced, mut cands) = (0, Vec::new());
        for i in (0..ctl.apps.len()).filter(|&i| ctl.home_pod[i] == pod && !ctl.rejected[i]) {
            let cur = match ctl.placements[i] {
                Placement::Device(d) if ctl.fabric.pod(d) == pod => {
                    if ctl.down_streaks[i] >= sustain {
                        continue;
                    }
                    Some(d)
                }
                Placement::Device(_) => continue,
                Placement::Software => None,
            };
            for d in ctl.fabric.device_ids() {
                if ctl.fabric.pod(d) != pod || !ctl.fabric.is_online(d) {
                    continue;
                }
                let value = ctl.held_value_at(i, d);
                let price = |v| pricing::per_capacity(&ctl.fabric, &ctl.apps[i], d, v);
                let score = if cur == Some(d) {
                    Some(price(value) * ctl.config.stickiness)
                } else if ctl.up_streaks[i] >= sustain {
                    let value = value - cur.map_or(0.0, |_| migration);
                    (value >= floor).then(|| price(value))
                } else {
                    continue;
                };
                priced += 1;
                if let Some(score) = score {
                    cands.push((score, i, ctl.fabric.distance(ctl.apps[i].home, d), d));
                }
            }
        }
        cands.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        let mut refusals = 0;
        for &(_, i, _, d) in &cands {
            if seats[i].is_none() {
                match ledger.admit(d, i as u64, ctl.apps[i].demand) {
                    Ok(()) => seats[i] = Some(d),
                    Err(_) => refusals += 1,
                }
            }
        }
        (priced, refusals, cands)
    }

    /// The order is the contract: the pod arbiter, which prices one
    /// candidate per (hop tier, budget class) and tries a run's devices
    /// in index order, seats exactly what the per-device reference seats
    /// and prices exactly the pairs it prices. Devices draw budgets from
    /// [`palette`] interleaved by index, so the twin classes tie and must
    /// merge by device index; tenants share a few demand classes, so
    /// ties across tenants are common too. Offline and pre-filled devices
    /// make refusals part of every sweep, and multi-pod fat-trees are
    /// solved pod by pod. Walking each class alone instead of each run
    /// fails this.
    #[test]
    fn pod_arbiter_admits_in_the_documented_total_order() {
        let (mut twin_ties, mut refusals, mut priced) = (0u32, 0usize, 0u64);
        for seed in 0..300u64 {
            let mut rng = inc_sim::Rng::new(0x0D_E4 ^ seed);
            let (pods, tors) = (1 + rng.index(3), 1 + rng.index(8));
            let devices = pods * tors;
            let budgets: Vec<PipelineBudget> =
                (0..devices).map(|_| palette()[rng.index(3)]).collect();
            let fabric = DeviceFabric::new(
                budgets,
                Topology::fat_tree(
                    pods,
                    tors,
                    TierCost::standard_intra_pod(),
                    TierCost::standard_inter_pod(),
                ),
            );
            // A small palette of tenant classes, so equal scores across
            // tenants happen by construction.
            let classes = [(7, 0.08), (6, 0.14), (4, 0.10), (3, 0.12), (5, 0.09)];
            let n = rng.index(12 * pods + 1);
            let apps: Vec<FleetApp> = (0..n)
                .map(|i| {
                    let (stages, slope) = classes[rng.index(classes.len())];
                    let home = DeviceId(rng.index(devices) as u16);
                    app_homed(&format!("t{i}"), stages, slope, 2.0, home)
                })
                .collect();
            let heats_at: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 6)).collect();
            let mut ctl = FleetController::new(
                FleetControllerConfig {
                    mode: ArbitrationMode::FullRescore,
                    ..cfg()
                },
                fabric,
                apps,
            );
            // Mixed history: settled residents (sticky seats and movers),
            // fresh residents (sticky only), sustained newcomers, cold.
            for step in 1..=rng.range_u64(3, 14) {
                let s: Vec<FleetSample> = (0..n)
                    .map(|i| {
                        let r = if step > heats_at[i] { 100_000.0 } else { 500.0 };
                        sample(r, r)
                    })
                    .collect();
                ctl.sample(t(step), &s);
            }
            // A capacity event: all but one device may go offline, a
            // foreign tenant may fill a device, and every incumbent of
            // every (dirty) pod re-competes for its seat.
            let keep = rng.index(devices);
            for d in (0..devices).map(|d| DeviceId(d as u16)) {
                if d.index() != keep && rng.chance(0.2) {
                    ctl.fabric.set_online(d, false);
                } else if rng.chance(0.25) {
                    let room = ctl.fabric.device(d).budget().stages as usize;
                    let filler = ProgramResources {
                        stages: 6 + rng.index(room - 5) as u32,
                        sram_bytes: 1 << 20,
                        parse_depth_bytes: 64,
                    };
                    for i in 0..n {
                        if ctl.placements[i] == Placement::Device(d) {
                            ctl.fabric.release(i as u64);
                        }
                    }
                    ctl.fabric
                        .admit(d, 1_000 + d.index() as u64, filler)
                        .unwrap();
                }
            }
            for i in 0..n {
                ctl.fabric.release(i as u64);
            }
            let mut ledger = ctl.fabric.clone();
            let mut expected = vec![None; n];
            let mut s = Scratch {
                selected: vec![None; n],
                ..Scratch::default()
            };
            for pod in 0..pods as u16 {
                let scored = ctl.stats.candidates_scored;
                ctl.solve_pod(pod, &mut s);
                let (pairs, refused, cands) =
                    per_device_solve(&ctl, pod, &mut ledger, &mut expected);
                assert_eq!(
                    ctl.stats.candidates_scored - scored,
                    pairs,
                    "seed {seed}, pod {pod}: pairs priced"
                );
                priced += pairs;
                refusals += refused;
                let class = |d: DeviceId| ctl.fabric.budget_class(d);
                twin_ties += cands
                    .windows(2)
                    .filter(|w| {
                        let (a, b) = (w[0], w[1]);
                        (a.0.to_bits(), a.1, a.2) == (b.0.to_bits(), b.1, b.2)
                            && class(a.3) != class(b.3)
                    })
                    .count() as u32;
            }
            assert_eq!(s.selected, expected, "seed {seed}: seat map");
            for d in ctl.fabric.device_ids() {
                let residents = |f: &DeviceFabric| {
                    let apps: Vec<usize> = (0..n)
                        .filter(|&i| f.residency(i as u64) == Some(d))
                        .collect();
                    (apps, f.device(d).used())
                };
                assert_eq!(
                    residents(&ctl.fabric),
                    residents(&ledger),
                    "seed {seed}, {d}"
                );
            }
        }
        assert!(priced > 5_000, "only {priced} pairs priced");
        assert!(
            twin_ties > 500,
            "only {twin_ties} ties across budget classes"
        );
        assert!(refusals > 1_000, "only {refusals} refusals");
    }
}
