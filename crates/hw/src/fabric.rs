//! A fabric of programmable devices: one capacity ledger per ToR.
//!
//! §9.4 widens the on-demand question from one card to a rack: "the
//! processing demands of the application may be beyond the resources of a
//! single network device", and a datacenter operator has one programmable
//! device per ToR switch, so the controller's decision is no longer
//! *whether* to offload but *where*. [`DeviceFabric`] is that set: an
//! indexed collection of [`DeviceCapacity`] ledgers — possibly
//! heterogeneous budgets — plus the [`Topology`] that prices placing an
//! application's program away from its home ToR.
//!
//! The locality model follows Gray's *Distributed Computing Economics*:
//! computation should sit where its benefit per unit of scarce resource
//! is highest, and moving it away from its data costs a detour — but the
//! detour is **not** one number. A datacenter fabric is tiered: two ToRs
//! in the same pod exchange traffic through one aggregation switch, while
//! ToRs in different pods cross the core, so a far rack is strictly more
//! expensive than a near one in latency, in forfeited benefit, and in
//! the energy the extra links burn. [`Topology`] is that distance
//! matrix: each (home, device) pair resolves to a hop tier whose
//! [`TierCost`] carries the per-packet detour latency, the multiplicative
//! benefit haircut, and the per-packet link energy of the extra
//! traversals — so a scheduler pricing a spill prefers the nearest rack
//! with room.

use std::ops::Range;

use inc_power::LinkEnergyModel;
use inc_sim::Nanos;

use crate::capacity::{AppSlot, DeviceCapacity};
use crate::pipeline::{PipelineBudget, PipelineError, ProgramResources};

/// Identifier of one programmable device in a fabric (conventionally, the
/// card attached to one ToR switch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u16);

impl DeviceId {
    /// The single device of a one-card topology (every pre-fabric
    /// controller and device model offloads here).
    pub const LOCAL: DeviceId = DeviceId(0);

    /// The device's position in its fabric's index space.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tor{}", self.0)
    }
}

/// The price of one hop tier of a placement detour: what a program pays
/// per packet for each tier of the fabric its traffic must cross to reach
/// the device hosting it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierCost {
    /// Extra one-way per-packet latency of the detour through this tier
    /// (paid once per direction).
    pub extra_latency: Nanos,
    /// Multiplier applied to the estimated offload benefit of a placement
    /// behind this tier, in `[0, 1]`: the detour keeps links and switch
    /// ports busy, clawing back part of the power the offload saves.
    pub benefit_factor: f64,
    /// Energy burned by the detour's extra link traversals, nanojoules
    /// per packet per direction (switch port + SerDes work the offload
    /// no longer avoids). A scheduler subtracts `2 × this × rate` from a
    /// remote placement's benefit, so the same haircut ranks lower at
    /// higher rates.
    pub link_energy_nj: f64,
}

impl TierCost {
    /// A free tier: no latency, no haircut, no link energy (the cost of
    /// "staying home", and of every hop in a penalty-free fabric).
    pub const NONE: TierCost = TierCost {
        extra_latency: Nanos::ZERO,
        benefit_factor: 1.0,
        link_energy_nj: 0.0,
    };

    /// A typical intra-pod detour (ToR → aggregation → ToR): a couple of
    /// microseconds of extra propagation/serialisation and a 15 % benefit
    /// haircut.
    ///
    /// The haircut is deliberately *not* the reciprocal of the fleet
    /// scheduler's standard 1.25× stickiness premium: a factor of
    /// exactly 1/1.25 = 0.8 would make a remote incumbent's sticky
    /// score and its home score an exact mathematical tie, so "stay
    /// remote" vs "hop home" would be decided by float rounding noise
    /// instead of a decisive benefit. 0.85 keeps the settled incumbent
    /// clearly ahead. The link-energy term is left at zero here — it is
    /// workload- and switch-specific, so rigs that meter it supply their
    /// own figure.
    pub fn standard_intra_pod() -> Self {
        TierCost {
            extra_latency: Nanos::from_micros(2),
            benefit_factor: 0.85,
            link_energy_nj: 0.0,
        }
    }

    /// A typical inter-pod detour (ToR → aggregation → core → aggregation
    /// → ToR): three times the intra-pod latency and a deeper 30 %
    /// haircut — far racks must be decisively worse than near ones, or a
    /// distance matrix degenerates back into one scalar.
    pub fn standard_inter_pod() -> Self {
        TierCost {
            extra_latency: Nanos::from_micros(6),
            benefit_factor: 0.70,
            link_energy_nj: 0.0,
        }
    }

    /// An intra-pod tier whose link energy is derived from a switch
    /// power model instead of quoted: the detour crosses
    /// [`HopTier::IntraPod::switch_traversals`](HopTier::switch_traversals)
    /// = 1 aggregation switch, so the per-packet price is one marginal
    /// switch traversal. Latency and haircut follow
    /// [`standard_intra_pod`](Self::standard_intra_pod).
    pub fn calibrated_intra_pod(link: &LinkEnergyModel) -> Self {
        TierCost {
            link_energy_nj: link.detour_nj(HopTier::IntraPod.switch_traversals()),
            ..TierCost::standard_intra_pod()
        }
    }

    /// An inter-pod tier calibrated the same way: the detour crosses
    /// aggregation + core + aggregation = 3 switches. Latency and
    /// haircut follow [`standard_inter_pod`](Self::standard_inter_pod).
    pub fn calibrated_inter_pod(link: &LinkEnergyModel) -> Self {
        TierCost {
            link_energy_nj: link.detour_nj(HopTier::InterPod.switch_traversals()),
            ..TierCost::standard_inter_pod()
        }
    }

    /// Validates the tier for use in a [`Topology`].
    ///
    /// # Panics
    ///
    /// Panics unless `benefit_factor` is finite and in `[0, 1]` and
    /// `link_energy_nj` is finite and non-negative. A factor above 1.0
    /// would make a *remote* placement score higher than home and
    /// silently invert locality — the bug class this assertion exists
    /// to catch.
    fn validated(self, tier: &str) -> Self {
        assert!(
            self.benefit_factor.is_finite() && (0.0..=1.0).contains(&self.benefit_factor),
            "{tier} benefit_factor {} outside [0, 1]: a factor above 1 \
             would rank remote placements above home",
            self.benefit_factor
        );
        assert!(
            self.link_energy_nj.is_finite() && self.link_energy_nj >= 0.0,
            "{tier} link_energy_nj {} must be finite and non-negative",
            self.link_energy_nj
        );
        self
    }
}

/// The hop tier separating an app's home ToR from a candidate device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopTier {
    /// The device on the home ToR itself: no detour.
    Local,
    /// A different ToR in the same pod: the detour crosses the pod's
    /// aggregation layer.
    IntraPod,
    /// A ToR in another pod: the detour crosses the core.
    InterPod,
}

impl HopTier {
    /// The tier as a distance (0 = home, 1 = same pod, 2 = across the
    /// core): what a spill-distance histogram buckets by.
    pub const fn distance(self) -> u32 {
        match self {
            HopTier::Local => 0,
            HopTier::IntraPod => 1,
            HopTier::InterPod => 2,
        }
    }

    /// Switches a detour through this tier crosses that home traffic
    /// would not: none at home, the pod's aggregation switch intra-pod,
    /// and aggregation + core + aggregation across pods. Multiplied by a
    /// [`LinkEnergyModel`]'s per-traversal energy to calibrate
    /// [`TierCost::link_energy_nj`].
    pub const fn switch_traversals(self) -> u32 {
        match self {
            HopTier::Local => 0,
            HopTier::IntraPod => 1,
            HopTier::InterPod => 3,
        }
    }
}

/// The distance matrix of a device fabric: which pod each ToR's device
/// sits in, and what each hop tier costs.
///
/// The matrix is stored in factored form — a pod index per device plus
/// one [`TierCost`] per tier — because datacenter fabrics are trees: the
/// cost of reaching a device depends only on the deepest shared switch
/// layer, not on the identity of the pair.
///
/// # Examples
///
/// ```
/// use inc_hw::{HopTier, TierCost, Topology};
///
/// // 2 pods × 2 ToRs: devices 0,1 share pod 0; devices 2,3 share pod 1.
/// let topo = Topology::fat_tree(
///     2,
///     2,
///     TierCost::standard_intra_pod(),
///     TierCost::standard_inter_pod(),
/// );
/// use inc_hw::DeviceId;
/// assert_eq!(topo.tier(DeviceId(0), DeviceId(1)), HopTier::IntraPod);
/// assert_eq!(topo.tier(DeviceId(0), DeviceId(2)), HopTier::InterPod);
/// assert!(topo.benefit_factor(DeviceId(0), DeviceId(1))
///     > topo.benefit_factor(DeviceId(0), DeviceId(2)));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Pod index of each device, indexed by [`DeviceId::index`]: pods
    /// are contiguous runs of `tors_per_pod` devices.
    pod_of: Vec<u16>,
    tors_per_pod: usize,
    intra_pod: TierCost,
    inter_pod: TierCost,
}

impl Topology {
    /// A penalty-free topology of `devices` ToRs: every device is as good
    /// as home (the single-card and uniform-fabric cases that predate the
    /// distance matrix).
    ///
    /// # Examples
    ///
    /// ```
    /// use inc_hw::{DeviceId, HopTier, Topology};
    ///
    /// let topo = Topology::single(4);
    /// assert_eq!(topo.pod_count(), 1);
    /// // Remote devices are tiered intra-pod, but the tier is free.
    /// assert_eq!(topo.tier(DeviceId(0), DeviceId(3)), HopTier::IntraPod);
    /// assert_eq!(topo.benefit_factor(DeviceId(0), DeviceId(3)), 1.0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn single(devices: usize) -> Self {
        Topology::fat_tree(1, devices, TierCost::NONE, TierCost::NONE)
    }

    /// `pairs` two-ToR pods joined by a core tier: the §9.4 rack-pair
    /// fabrics, generalised so that the partner rack is cheap and every
    /// other rack is dear.
    ///
    /// # Examples
    ///
    /// ```
    /// use inc_hw::{DeviceId, HopTier, TierCost, Topology};
    ///
    /// let topo = Topology::rack_pairs(
    ///     3,
    ///     TierCost::standard_intra_pod(),
    ///     TierCost::standard_inter_pod(),
    /// );
    /// assert_eq!(topo.device_count(), 6);
    /// assert_eq!(topo.pod_count(), 3);
    /// // Partner rack: one aggregation hop. Any other rack: the core.
    /// assert_eq!(topo.tier(DeviceId(4), DeviceId(5)), HopTier::IntraPod);
    /// assert_eq!(topo.tier(DeviceId(0), DeviceId(5)), HopTier::InterPod);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is zero or a tier cost is invalid (benefit
    /// factor outside `[0, 1]`, negative or non-finite link energy).
    pub fn rack_pairs(pairs: usize, intra_pod: TierCost, inter_pod: TierCost) -> Self {
        Topology::fat_tree(pairs, 2, intra_pod, inter_pod)
    }

    /// A fat-tree-style pod/core fabric: `pods × tors_per_pod` devices in
    /// index order (device `i` sits in pod `i / tors_per_pod`). Remote
    /// placements in the same pod pay `intra_pod` per packet; placements
    /// across the core pay `inter_pod`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, the device count overflows the
    /// [`DeviceId`] index space, or a tier cost is invalid (benefit
    /// factor outside `[0, 1]`, negative or non-finite link energy).
    pub fn fat_tree(
        pods: usize,
        tors_per_pod: usize,
        intra_pod: TierCost,
        inter_pod: TierCost,
    ) -> Self {
        assert!(pods > 0, "a topology needs at least one pod");
        assert!(tors_per_pod > 0, "a pod needs at least one ToR");
        assert!(
            pods * tors_per_pod <= u16::MAX as usize,
            "device count exceeds the DeviceId index space"
        );
        Topology {
            pod_of: (0..pods * tors_per_pod)
                .map(|i| (i / tors_per_pod) as u16)
                .collect(),
            tors_per_pod,
            intra_pod: intra_pod.validated("intra-pod"),
            inter_pod: inter_pod.validated("inter-pod"),
        }
    }

    /// Number of devices the matrix covers.
    pub fn device_count(&self) -> usize {
        self.pod_of.len()
    }

    /// The pod index of `device` (a per-pod arbiter's partition key).
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn pod(&self, device: DeviceId) -> u16 {
        self.pod_of[device.index()]
    }

    /// Number of pods the matrix spans (pod indices are `0..pod_count`).
    pub fn pod_count(&self) -> usize {
        self.pod_of.len() / self.tors_per_pod
    }

    /// The device indices of `pod`, ascending (empty for an unused pod
    /// index). Every constructor lays pods out contiguously — device `i`
    /// sits in pod `i / tors_per_pod` — so a pod is one index range.
    pub fn pod_range(&self, pod: u16) -> Range<usize> {
        let start = (pod as usize * self.tors_per_pod).min(self.pod_of.len());
        start..(start + self.tors_per_pod).min(self.pod_of.len())
    }

    /// The hop tier separating `home` from `at`.
    ///
    /// # Panics
    ///
    /// Panics if either device is out of range.
    pub fn tier(&self, home: DeviceId, at: DeviceId) -> HopTier {
        if home == at {
            HopTier::Local
        } else if self.pod_of[home.index()] == self.pod_of[at.index()] {
            HopTier::IntraPod
        } else {
            HopTier::InterPod
        }
    }

    /// The cost of placing an app homed at `home` on `at`:
    /// [`TierCost::NONE`] at home, the matching tier's cost elsewhere.
    pub fn cost(&self, home: DeviceId, at: DeviceId) -> TierCost {
        match self.tier(home, at) {
            HopTier::Local => TierCost::NONE,
            HopTier::IntraPod => self.intra_pod,
            HopTier::InterPod => self.inter_pod,
        }
    }

    /// The placement's distance in hop tiers (0 = home, 1 = same pod,
    /// 2 = across the core).
    pub fn distance(&self, home: DeviceId, at: DeviceId) -> u32 {
        self.tier(home, at).distance()
    }

    /// Benefit multiplier for an app homed at `home` placed on `at`:
    /// 1.0 at home, the tier's haircut elsewhere.
    pub fn benefit_factor(&self, home: DeviceId, at: DeviceId) -> f64 {
        self.cost(home, at).benefit_factor
    }

    /// One-way extra latency for an app homed at `home` placed on `at`.
    pub fn extra_latency(&self, home: DeviceId, at: DeviceId) -> Nanos {
        self.cost(home, at).extra_latency
    }

    /// Power burned by the detour's links at `rate_pps`, watts: each
    /// packet crosses the tier once per direction, so the draw is
    /// `2 × link_energy_nj × rate`. Zero at home.
    pub fn link_energy_w(&self, home: DeviceId, at: DeviceId, rate_pps: f64) -> f64 {
        2.0 * self.cost(home, at).link_energy_nj * 1e-9 * rate_pps
    }
}

/// An indexed set of per-device capacity ledgers with a locality model.
///
/// Apps are identified by the same [`AppSlot`] across all devices, and the
/// fabric maintains the invariant that an app is resident on **at most one
/// device** (a program is loaded in one place).
///
/// # Examples
///
/// ```
/// use inc_hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources, TierCost, Topology};
///
/// let mut fabric = DeviceFabric::homogeneous(
///     2,
///     PipelineBudget::tofino_like(),
///     Topology::rack_pairs(1, TierCost::standard_intra_pod(), TierCost::standard_inter_pod()),
/// );
/// let kvs = ProgramResources { stages: 7, sram_bytes: 40 << 20, parse_depth_bytes: 96 };
/// let dns = ProgramResources { stages: 6, sram_bytes: 20 << 20, parse_depth_bytes: 128 };
/// fabric.admit(DeviceId(0), 0, kvs).unwrap();
/// // The programs cannot share one device (13 stages > 12)...
/// assert!(fabric.admit(DeviceId(0), 1, dns).is_err());
/// // ...but the second ToR has room.
/// fabric.admit(DeviceId(1), 1, dns).unwrap();
/// assert_eq!(fabric.residency(1), Some(DeviceId(1)));
/// ```
#[derive(Clone, Debug)]
pub struct DeviceFabric {
    devices: Vec<DeviceCapacity>,
    /// Budget class of each device: devices with equal budgets share an
    /// id, numbered in order of first appearance.
    budget_class: Vec<u16>,
    topology: Topology,
    // Reverse residency index, dense by slot and maintained by
    // `admit`/`release`/`clear`. The one-residency invariant makes it
    // exact: `where_is[app]` is `Some(d)` iff the app is resident on `d`.
    // Keeping it turns both `residency` and the admit-time release of a
    // previous seat into one indexed load instead of fabric-wide sweeps —
    // the difference between an incremental scheduler tick and an
    // O(apps × devices) one. It grows to the largest slot ever admitted
    // (below `SLOT_LIMIT`) and never shrinks.
    where_is: Vec<Option<DeviceId>>,
    // Liveness per device: a dead or partitioned device keeps its ledger
    // (its state is not recoverable, but its *budget* description is)
    // while refusing new admissions. Controllers treat offline devices
    // as zero-capacity: evict their tenants and skip them as candidates.
    online: Vec<bool>,
}

impl DeviceFabric {
    /// The first slot the fabric refuses. Slots index the dense residency
    /// index, so the bound caps that index at 4 MiB (a 4-byte entry per
    /// slot) while leaving three orders of magnitude of headroom over the
    /// largest fleet modelled (1 000 tenants, one slot each). A slot at or
    /// past it is refused like a demand that does not fit.
    pub const SLOT_LIMIT: AppSlot = 1 << 20;

    /// Creates a fabric with one (empty) ledger per budget, priced by the
    /// given distance matrix.
    ///
    /// # Panics
    ///
    /// Panics if `budgets` is empty or its length differs from the
    /// topology's device count.
    pub fn new(budgets: Vec<PipelineBudget>, topology: Topology) -> Self {
        assert!(!budgets.is_empty(), "a fabric needs at least one device");
        assert_eq!(
            budgets.len(),
            topology.device_count(),
            "budget list and topology must cover the same devices"
        );
        let mut distinct: Vec<PipelineBudget> = Vec::new();
        let budget_class = budgets
            .iter()
            .map(|b| match distinct.iter().position(|d| d == b) {
                Some(class) => class as u16,
                None => {
                    distinct.push(*b);
                    (distinct.len() - 1) as u16
                }
            })
            .collect();
        let devices: Vec<DeviceCapacity> = budgets.into_iter().map(DeviceCapacity::new).collect();
        let online = vec![true; devices.len()];
        DeviceFabric {
            devices,
            budget_class,
            topology,
            where_is: Vec::new(),
            online,
        }
    }

    /// A single-device fabric with no locality penalty: the pre-§9.4
    /// shared-card topology.
    pub fn single(budget: PipelineBudget) -> Self {
        DeviceFabric::new(vec![budget], Topology::single(1))
    }

    /// `n` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or differs from the topology's device count.
    pub fn homogeneous(n: usize, budget: PipelineBudget, topology: Topology) -> Self {
        DeviceFabric::new(vec![budget; n], topology)
    }

    /// An empty copy: same budgets, topology and liveness, no
    /// allocations. Used by schedulers to build a candidate assignment
    /// before committing.
    pub fn fresh(&self) -> Self {
        DeviceFabric {
            devices: self
                .devices
                .iter()
                .map(|d| DeviceCapacity::new(d.budget()))
                .collect(),
            budget_class: self.budget_class.clone(),
            topology: self.topology.clone(),
            where_is: Vec::new(),
            online: self.online.clone(),
        }
    }

    /// Number of devices in the fabric.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Iterates the device identifiers in index order.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> {
        (0..self.devices.len() as u16).map(DeviceId)
    }

    /// The ledger of one device.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn device(&self, id: DeviceId) -> &DeviceCapacity {
        &self.devices[id.index()]
    }

    /// The distance matrix pricing remote placements.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The pod index of `device` (see [`Topology::pod`]).
    pub fn pod(&self, device: DeviceId) -> u16 {
        self.topology.pod(device)
    }

    /// Number of pods the fabric spans (see [`Topology::pod_count`]).
    pub fn pod_count(&self) -> usize {
        self.topology.pod_count()
    }

    /// The device indices of `pod` (see [`Topology::pod_range`]).
    pub fn pod_range(&self, pod: u16) -> Range<usize> {
        self.topology.pod_range(pod)
    }

    /// The budget class of `id`: two devices share a class exactly when
    /// their budgets are equal, so a program costs the same
    /// [`DeviceCapacity::cost_units`] on every device of a class.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn budget_class(&self, id: DeviceId) -> u16 {
        self.budget_class[id.index()]
    }

    /// Whether `id` is online (alive and reachable). Devices start
    /// online.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn is_online(&self, id: DeviceId) -> bool {
        self.online[id.index()]
    }

    /// Marks `id` alive or dead. Taking a device offline does *not*
    /// release its tenants — the fabric records topology and capacity,
    /// not policy; the controller owns eviction (and charges it as a
    /// `DeviceLoss` shift). While offline, [`DeviceFabric::admit`]
    /// refuses the device.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_online(&mut self, id: DeviceId, online: bool) {
        self.online[id.index()] = online;
    }

    /// Benefit multiplier for an app homed at `home` placed on `at`:
    /// 1.0 at home, the hop tier's [`TierCost::benefit_factor`] elsewhere.
    pub fn benefit_factor(&self, home: DeviceId, at: DeviceId) -> f64 {
        self.topology.benefit_factor(home, at)
    }

    /// One-way extra latency for an app homed at `home` placed on `at`.
    pub fn extra_latency(&self, home: DeviceId, at: DeviceId) -> Nanos {
        self.topology.extra_latency(home, at)
    }

    /// Power the placement's detour burns in links at `rate_pps`, watts
    /// (see [`Topology::link_energy_w`]).
    pub fn link_energy_w(&self, home: DeviceId, at: DeviceId, rate_pps: f64) -> f64 {
        self.topology.link_energy_w(home, at, rate_pps)
    }

    /// The placement's distance in hop tiers (0 = home, 1 = same pod,
    /// 2 = across the core).
    pub fn distance(&self, home: DeviceId, at: DeviceId) -> u32 {
        self.topology.distance(home, at)
    }

    /// The device currently hosting `app`, if any.
    pub fn residency(&self, app: AppSlot) -> Option<DeviceId> {
        let slot = usize::try_from(app).ok()?;
        self.where_is.get(slot).copied().flatten()
    }

    /// Grants `app` the resources `r` on device `id`, releasing any
    /// allocation it holds elsewhere (a program moves, it is not copied).
    /// On failure every existing allocation is left untouched; a slot at
    /// or past [`DeviceFabric::SLOT_LIMIT`] always fails.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn admit(
        &mut self,
        id: DeviceId,
        app: AppSlot,
        r: ProgramResources,
    ) -> Result<(), PipelineError> {
        if !self.online[id.index()] {
            return Err(PipelineError::DoesNotFit(format!(
                "device {} is offline",
                id.index()
            )));
        }
        if app >= Self::SLOT_LIMIT {
            return Err(PipelineError::DoesNotFit(format!(
                "app {app}: slot past the fabric's limit of {}",
                Self::SLOT_LIMIT
            )));
        }
        self.devices[id.index()].admit(app, r)?;
        let slot = app as usize;
        if slot >= self.where_is.len() {
            self.where_is.resize(slot + 1, None);
        }
        if let Some(prev) = self.where_is[slot].replace(id) {
            if prev != id {
                self.devices[prev.index()].release(app);
            }
        }
        Ok(())
    }

    /// Releases whatever `app` holds anywhere; returns `true` if it held
    /// anything.
    pub fn release(&mut self, app: AppSlot) -> bool {
        let seat = usize::try_from(app)
            .ok()
            .and_then(|slot| self.where_is.get_mut(slot))
            .and_then(Option::take);
        seat.is_some_and(|d| self.devices[d.index()].release(app))
    }

    /// The dominant share `app` holds on the device where it is resident
    /// (0.0 when it is software-placed): the per-tenant quantity a DRF
    /// arbiter compares against a weighted entitlement. Shares are
    /// measured against the *hosting* device's budget, so the same
    /// program is a larger share of a smaller ToR.
    pub fn dominant_share(&self, app: AppSlot) -> f64 {
        self.residency(app)
            .map_or(0.0, |d| self.device(d).dominant_share(app))
    }

    /// Releases every allocation on every device.
    pub fn clear(&mut self) {
        for dev in &mut self.devices {
            dev.clear();
        }
        self.where_is.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kvs() -> ProgramResources {
        ProgramResources {
            stages: 7,
            sram_bytes: 40 << 20,
            parse_depth_bytes: 96,
        }
    }

    fn dns() -> ProgramResources {
        ProgramResources {
            stages: 6,
            sram_bytes: 20 << 20,
            parse_depth_bytes: 128,
        }
    }

    fn standard_pair() -> Topology {
        Topology::rack_pairs(
            1,
            TierCost::standard_intra_pod(),
            TierCost::standard_inter_pod(),
        )
    }

    fn two_tors() -> DeviceFabric {
        DeviceFabric::homogeneous(2, PipelineBudget::tofino_like(), standard_pair())
    }

    #[test]
    fn spills_to_the_second_device() {
        let mut f = two_tors();
        f.admit(DeviceId(0), 0, kvs()).unwrap();
        assert!(f.admit(DeviceId(0), 1, dns()).is_err());
        f.admit(DeviceId(1), 1, dns()).unwrap();
        assert_eq!(f.residency(0), Some(DeviceId(0)));
        assert_eq!(f.residency(1), Some(DeviceId(1)));
        assert_eq!(f.where_is.iter().flatten().count(), 2);
    }

    #[test]
    fn admit_moves_rather_than_copies() {
        let mut f = two_tors();
        f.admit(DeviceId(0), 0, dns()).unwrap();
        f.admit(DeviceId(1), 0, dns()).unwrap();
        assert_eq!(f.residency(0), Some(DeviceId(1)));
        assert_eq!(f.device(DeviceId(0)).used(), ProgramResources::default());
        // A failed move leaves the old residency in place.
        f.admit(DeviceId(0), 1, kvs()).unwrap();
        assert!(f.admit(DeviceId(0), 0, kvs()).is_err());
        assert_eq!(f.residency(0), Some(DeviceId(1)));
    }

    #[test]
    fn heterogeneous_budgets() {
        let small = PipelineBudget {
            stages: 6,
            sram_bytes: 24 << 20,
            parse_depth_bytes: 128,
        };
        let mut f = DeviceFabric::new(
            vec![PipelineBudget::tofino_like(), small],
            Topology::single(2),
        );
        // The big program only fits the big device.
        assert!(f.admit(DeviceId(1), 0, kvs()).is_err());
        f.admit(DeviceId(0), 0, kvs()).unwrap();
        f.admit(DeviceId(1), 1, dns()).unwrap();
        assert_eq!(f.device(DeviceId(1)).used(), dns());
    }

    #[test]
    fn locality_model() {
        let f = two_tors();
        let p = TierCost::standard_intra_pod();
        assert_eq!(f.benefit_factor(DeviceId(0), DeviceId(0)), 1.0);
        assert_eq!(f.benefit_factor(DeviceId(0), DeviceId(1)), p.benefit_factor);
        assert_eq!(f.extra_latency(DeviceId(1), DeviceId(1)), Nanos::ZERO);
        assert_eq!(f.extra_latency(DeviceId(1), DeviceId(0)), p.extra_latency);
        assert_eq!(f.distance(DeviceId(0), DeviceId(1)), 1);
        // The single-device constructor has no penalty to pay.
        let s = DeviceFabric::single(PipelineBudget::tofino_like());
        assert_eq!(s.topology().cost(DeviceId(0), DeviceId(0)), TierCost::NONE);
        assert_eq!(s.device_count(), 1);
    }

    #[test]
    fn distance_matrix_tiers() {
        // 2 pods × 2 ToRs: 0,1 | 2,3.
        let intra = TierCost {
            extra_latency: Nanos::from_micros(2),
            benefit_factor: 0.85,
            link_energy_nj: 40.0,
        };
        let inter = TierCost {
            extra_latency: Nanos::from_micros(6),
            benefit_factor: 0.70,
            link_energy_nj: 120.0,
        };
        let t = Topology::fat_tree(2, 2, intra, inter);
        assert_eq!(t.device_count(), 4);
        assert_eq!(t.pod_count(), 2);
        assert_eq!(t.pod(DeviceId(1)), 0);
        assert_eq!(t.pod(DeviceId(2)), 1);
        assert_eq!(t.pod_range(1), 2..4);
        assert!(t.pod_range(7).is_empty());
        assert_eq!(t.tier(DeviceId(2), DeviceId(2)), HopTier::Local);
        assert_eq!(t.tier(DeviceId(2), DeviceId(3)), HopTier::IntraPod);
        assert_eq!(t.tier(DeviceId(1), DeviceId(2)), HopTier::InterPod);
        assert_eq!(t.distance(DeviceId(1), DeviceId(2)), 2);
        // Near racks are strictly cheaper than far ones on every axis.
        assert!(
            t.benefit_factor(DeviceId(0), DeviceId(1)) > t.benefit_factor(DeviceId(0), DeviceId(3))
        );
        assert!(
            t.extra_latency(DeviceId(0), DeviceId(1)) < t.extra_latency(DeviceId(0), DeviceId(3))
        );
        // Link power: 2 crossings × nJ/packet × rate.
        let w = t.link_energy_w(DeviceId(0), DeviceId(3), 100_000.0);
        assert!((w - 2.0 * 120.0e-9 * 100_000.0).abs() < 1e-12);
        assert_eq!(t.link_energy_w(DeviceId(0), DeviceId(0), 100_000.0), 0.0);
        // rack_pairs is the two-ToR-pod special case.
        assert_eq!(Topology::rack_pairs(3, intra, inter).device_count(), 6);
        assert_eq!(
            Topology::rack_pairs(3, intra, inter).tier(DeviceId(4), DeviceId(5)),
            HopTier::IntraPod
        );
    }

    /// Every constructor lays pods out contiguously, so each pod's range
    /// is exactly the devices a scan of `pod` finds, and the ranges tile
    /// the fabric.
    #[test]
    fn pod_ranges_match_a_scan_of_every_device() {
        let (intra, inter) = (TierCost::NONE, TierCost::NONE);
        let topologies = [
            Topology::single(1),
            Topology::single(5),
            Topology::rack_pairs(3, intra, inter),
            Topology::fat_tree(1, 4, intra, inter),
            Topology::fat_tree(4, 3, intra, inter),
            Topology::fat_tree(8, 16, intra, inter),
        ];
        for t in topologies {
            let mut covered = 0;
            for pod in 0..t.pod_count() as u16 + 2 {
                let scanned: Vec<usize> = (0..t.device_count())
                    .filter(|&i| t.pod(DeviceId(i as u16)) == pod)
                    .collect();
                assert_eq!(t.pod_range(pod).collect::<Vec<_>>(), scanned, "{t:?}");
                covered += scanned.len();
            }
            assert_eq!(covered, t.device_count());
        }
    }

    #[test]
    fn equal_budgets_share_a_class_in_order_of_first_appearance() {
        let small = PipelineBudget {
            stages: 8,
            ..PipelineBudget::tofino_like()
        };
        let big = PipelineBudget::tofino_like();
        let f = DeviceFabric::new(vec![small, big, small, big, big], Topology::single(5));
        let classes: Vec<u16> = f.device_ids().map(|d| f.budget_class(d)).collect();
        assert_eq!(classes, vec![0, 1, 0, 1, 1]);
        let g = f.fresh();
        assert_eq!(g.budget_class(DeviceId(4)), 1);
    }

    #[test]
    #[should_panic(expected = "benefit_factor")]
    fn benefit_factor_above_one_is_rejected() {
        // Regression: a factor > 1 made a remote placement score higher
        // than home, silently inverting locality.
        let bad = TierCost {
            extra_latency: Nanos::ZERO,
            benefit_factor: 1.2,
            link_energy_nj: 0.0,
        };
        let _ = Topology::fat_tree(2, 2, bad, TierCost::standard_inter_pod());
    }

    #[test]
    #[should_panic(expected = "benefit_factor")]
    fn negative_benefit_factor_is_rejected() {
        let bad = TierCost {
            benefit_factor: -0.1,
            ..TierCost::standard_inter_pod()
        };
        let _ = Topology::rack_pairs(1, TierCost::standard_intra_pod(), bad);
    }

    #[test]
    #[should_panic(expected = "link_energy_nj")]
    fn negative_link_energy_is_rejected() {
        let bad = TierCost {
            link_energy_nj: -1.0,
            ..TierCost::standard_intra_pod()
        };
        let _ = Topology::fat_tree(1, 2, bad, TierCost::NONE);
    }

    #[test]
    #[should_panic(expected = "benefit_factor")]
    fn nan_benefit_factor_is_rejected() {
        // Regression: NaN compares false against every range bound, so a
        // plain `<=` check chain would have waved it through.
        let bad = TierCost {
            benefit_factor: f64::NAN,
            ..TierCost::standard_intra_pod()
        };
        let _ = Topology::fat_tree(2, 2, bad, TierCost::standard_inter_pod());
    }

    #[test]
    #[should_panic(expected = "link_energy_nj")]
    fn infinite_link_energy_is_rejected() {
        let bad = TierCost {
            link_energy_nj: f64::INFINITY,
            ..TierCost::standard_inter_pod()
        };
        let _ = Topology::fat_tree(2, 2, TierCost::standard_intra_pod(), bad);
    }

    #[test]
    #[should_panic(expected = "at least one pod")]
    fn zero_pods_are_rejected() {
        let _ = Topology::fat_tree(0, 4, TierCost::NONE, TierCost::NONE);
    }

    #[test]
    #[should_panic(expected = "at least one ToR")]
    fn zero_tors_per_pod_are_rejected() {
        let _ = Topology::fat_tree(4, 0, TierCost::NONE, TierCost::NONE);
    }

    #[test]
    #[should_panic(expected = "at least one ToR")]
    fn empty_single_topology_is_rejected() {
        let _ = Topology::single(0);
    }

    #[test]
    #[should_panic(expected = "at least one pod")]
    fn zero_rack_pairs_are_rejected() {
        let _ = Topology::rack_pairs(0, TierCost::standard_intra_pod(), TierCost::NONE);
    }

    #[test]
    #[should_panic(expected = "DeviceId index space")]
    fn device_count_overflow_is_rejected() {
        let _ = Topology::fat_tree(u16::MAX as usize, 2, TierCost::NONE, TierCost::NONE);
    }

    #[test]
    fn calibrated_tiers_reproduce_the_stylised_constants() {
        let link = LinkEnergyModel::arista_class();
        let intra = TierCost::calibrated_intra_pod(&link);
        let inter = TierCost::calibrated_inter_pod(&link);
        // The derivation must land bit-for-bit on the hand-quoted 500 /
        // 1500 nJ the rigs used to carry, so swapping them in moves no
        // pinned energy figure.
        assert_eq!(intra.link_energy_nj.to_bits(), 500.0_f64.to_bits());
        assert_eq!(inter.link_energy_nj.to_bits(), 1_500.0_f64.to_bits());
        assert_eq!(
            intra.benefit_factor,
            TierCost::standard_intra_pod().benefit_factor
        );
        assert_eq!(
            inter.extra_latency,
            TierCost::standard_inter_pod().extra_latency
        );
        // And the calibrated tiers pass construction validation.
        let topo = Topology::fat_tree(2, 2, intra, inter);
        assert_eq!(
            topo.link_energy_w(DeviceId(0), DeviceId(2), 1e6),
            2.0 * 1_500.0 * 1e-9 * 1e6
        );
    }

    #[test]
    fn switch_traversals_count_the_detour_switches() {
        assert_eq!(HopTier::Local.switch_traversals(), 0);
        assert_eq!(HopTier::IntraPod.switch_traversals(), 1);
        assert_eq!(HopTier::InterPod.switch_traversals(), 3);
    }

    #[test]
    #[should_panic(expected = "same devices")]
    fn budget_topology_mismatch_is_rejected() {
        let _ = DeviceFabric::new(vec![PipelineBudget::tofino_like(); 3], Topology::single(2));
    }

    #[test]
    fn fresh_copies_budgets_not_allocations() {
        let mut f = two_tors();
        f.admit(DeviceId(0), 7, dns()).unwrap();
        let g = f.fresh();
        assert!(g.where_is.is_empty());
        assert_eq!(g.device_count(), 2);
        assert_eq!(
            g.device(DeviceId(0)).budget(),
            f.device(DeviceId(0)).budget()
        );
    }

    #[test]
    fn dominant_share_is_measured_on_the_hosting_device() {
        let small = PipelineBudget {
            stages: 8,
            sram_bytes: 24 << 20,
            parse_depth_bytes: 192,
        };
        let mut f = DeviceFabric::new(
            vec![PipelineBudget::tofino_like(), small],
            Topology::single(2),
        );
        // Software-placed: no share anywhere.
        assert_eq!(f.dominant_share(0), 0.0);
        f.admit(DeviceId(0), 0, dns()).unwrap();
        // On the Tofino-class device DNS is stage-bound: 6/12.
        assert!((f.dominant_share(0) - 0.5).abs() < 1e-9);
        // The same program is a larger slice of the smaller ToR, where
        // its SRAM becomes the bottleneck: 20 MB of 24 MB.
        f.admit(DeviceId(1), 0, dns()).unwrap();
        assert!((f.dominant_share(0) - 20.0 / 24.0).abs() < 1e-9);
        f.release(0);
        assert_eq!(f.dominant_share(0), 0.0);
    }

    #[test]
    fn release_and_clear() {
        let mut f = two_tors();
        f.admit(DeviceId(1), 3, dns()).unwrap();
        assert_eq!(f.residency(3), Some(DeviceId(1)));
        assert!(f.release(3));
        assert!(!f.release(3));
        f.admit(DeviceId(0), 4, dns()).unwrap();
        f.clear();
        assert!(f.where_is.iter().all(Option::is_none));
        assert_eq!(f.residency(4), None);
        assert_eq!(f.device(DeviceId(0)).used(), ProgramResources::default());
    }

    /// A hostile slot is refused before any ledger is touched: no
    /// residency, no growth of the dense index, no panic.
    #[test]
    fn a_slot_past_the_limit_is_refused_and_touches_nothing() {
        let mut f = two_tors();
        f.admit(DeviceId(0), 3, dns()).unwrap();
        let before = f.where_is.clone();
        for slot in [DeviceFabric::SLOT_LIMIT, u32::MAX as u64, u64::MAX] {
            let err = f.admit(DeviceId(1), slot, dns()).unwrap_err();
            assert!(err.to_string().contains("limit"), "{err}");
            assert!(!f.release(slot));
            assert_eq!(f.residency(slot), None);
            assert_eq!(f.dominant_share(slot), 0.0);
        }
        assert_eq!(f.where_is, before);
        assert_eq!(f.device(DeviceId(1)).used(), ProgramResources::default());
        assert_eq!(f.device(DeviceId(0)).used(), dns());
        // The last slot under the limit is an ordinary seat.
        f.admit(DeviceId(1), DeviceFabric::SLOT_LIMIT - 1, dns())
            .unwrap();
        assert_eq!(f.residency(DeviceFabric::SLOT_LIMIT - 1), Some(DeviceId(1)));
    }
}
