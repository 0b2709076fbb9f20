//! The model-driven rigs: stylised §8 curves and closed-form
//! observations instead of packet machinery.

use inc_hw::{
    DeviceFabric, DeviceId, PipelineBudget, Placement, ProgramResources, TierCost, Topology,
};
use inc_ondemand::{
    run_fleet_controlled, AppObservation, ArbitrationMode, ClaimPolicy, FleetApp, FleetController,
    FleetControllerConfig, FleetSample, FleetTimeline, HostSample, PlacementAnalysis, RowLog,
};
use inc_power::{EnergyParams, LinkEnergyModel};
use inc_sim::{Nanos, Rng, Simulator};
use inc_workloads::{RateProfile, Zipf};

use super::{pinned, MultiTorRig, SharedDeviceRig};

/// The fairness topology: two ToRs, four tenants, *sustained* (not
/// offset) contention — the scenario the weighted-DRF arbitration layer
/// exists for.
///
/// * **KVS** (LaKe-class, 7 stages / 40 MB — dominant share 0.83) and
///   **Paxos** (P4xos-class, 6 stages — dominant share 0.50) are both
///   homed on ToR A, whose device can host only one of them.
/// * **DNS** (a beefier Emu variant: deeper name tables burn a seventh
///   stage, 7 stages / 24 MB) is homed on ToR B and big enough that the
///   Paxos program cannot co-reside with it there either (7 + 6 > 12) —
///   so while the KVS and DNS peaks hold, the Paxos tenant fits
///   *nowhere* and a pure benefit-maximising knapsack starves it
///   indefinitely.
/// * A second KVS tenant (**bulk**: a scan-heavy analytics cache whose
///   program wants 14 stages / 60 MB) is sized to be *unsatisfiable*:
///   its demand exceeds every device even empty, so admission control
///   must reject it up front rather than let it thrash.
///
/// Unlike [`SharedDeviceRig`] and [`MultiTorRig`] — which exercise the
/// packet-level device models — this rig is **model-driven**: the
/// tenants' §8 analyses are stylised curves with the same relative
/// economics as the calibrated tenants (KVS out-scores everyone, Paxos
/// clears the floor but never wins a score fight), driven through
/// [`run_fleet_controlled`] against closed-form observations. The
/// fairness dance (queue → claim → clip → tenure → counter-claim) needs
/// precisely shaped, *sustained* contention; the packet plumbing it
/// would ride on is already end-to-end tested by the other rigs.
pub struct ContendedFabricRig {
    /// Offered-rate schedules, indexed like the fleet app vector.
    pub profiles: [RateProfile; 4],
    /// Timeline row retention of [`ContendedFabricRig::run`].
    pub row_log: RowLog,
}

impl ContendedFabricRig {
    /// Index of the KVS tenant in the fleet's app vector.
    pub const KVS_APP: usize = 0;
    /// Index of the DNS tenant in the fleet's app vector.
    pub const DNS_APP: usize = 1;
    /// Index of the Paxos tenant in the fleet's app vector.
    pub const PAX_APP: usize = 2;
    /// Index of the unsatisfiable bulk-analytics tenant.
    // inc-lint: allow(unreached-pub): tests/fairness.rs names the bulk tenant by it
    pub const BULK_APP: usize = 3;

    /// ToR A's device (home of the KVS, Paxos and bulk tenants).
    pub const TOR_A: DeviceId = DeviceId(0);
    /// ToR B's device (home of the DNS tenant).
    pub const TOR_B: DeviceId = DeviceId(1);

    /// Plateau rates, packets/second, indexed like the app vector.
    const PEAK_PPS: [f64; 4] = [120_000.0, 90_000.0, 12_000.0, 100_000.0];

    /// The starvation window of the standard fairness configuration,
    /// in samples: long enough that hand-overs are deliberate, short
    /// enough that several play out within a run.
    pub const STARVATION_WINDOW: u32 = 8;

    /// The fabric: [`MultiTorRig`]'s — one Tofino-class pipeline per ToR,
    /// the two racks one pod under the standard intra-pod penalty.
    pub fn fabric() -> DeviceFabric {
        MultiTorRig::fabric()
    }

    /// The beefed-up Emu program of this rig's DNS tenant: one stage
    /// more than [`SharedDeviceRig::dns_demand`], so ToR B cannot host
    /// it beside the Paxos program.
    pub fn dns_demand() -> ProgramResources {
        ProgramResources {
            stages: 7,
            sram_bytes: 24 << 20,
            parse_depth_bytes: 128,
        }
    }

    /// The unsatisfiable bulk tenant's demand: over every device's stage
    /// *and* SRAM budget, so `cost_units > 1` on each.
    pub fn bulk_demand() -> ProgramResources {
        ProgramResources {
            stages: 14,
            sram_bytes: 60 << 20,
            parse_depth_bytes: 96,
        }
    }

    /// The four tenants. Plateau economics: KVS 10 W benefit (score
    /// 12.0), DNS 6.1 W (score 10.5, sticky 13.1), Paxos 2.2 W (score
    /// 4.4 — clears the 1 W floor even with the 0.85 remote haircut but
    /// never wins a score fight), bulk 10 W (hot, but rejected). Equal
    /// weights: each admitted tenant is entitled to 1/3 while all three
    /// contend, which both big programs' dominant shares exceed — so
    /// claims can clip in either direction and ToR A time-shares.
    pub fn fleet_apps() -> Vec<FleetApp> {
        vec![
            tenant("kvs", SharedDeviceRig::kvs_demand(), 0.10, Self::TOR_A),
            tenant("dns", Self::dns_demand(), 0.09, Self::TOR_B),
            tenant("paxos", MultiTorRig::pax_demand(), 0.35, Self::TOR_A),
            tenant("kvs-bulk", Self::bulk_demand(), 0.12, Self::TOR_A),
        ]
    }

    /// The canonical contended day: everyone idles briefly, then all
    /// four tenants hold their plateaus *simultaneously* until 0.8 s
    /// before `horizon`, then idle again. Sustained overlap — not the
    /// offset peaks of the other rigs — is what makes fairness, not
    /// benefit, the binding constraint.
    pub fn contended_profiles(horizon: Nanos) -> [RateProfile; 4] {
        let stop = horizon - Nanos::from_millis(800);
        plateaus(Self::PEAK_PPS, Nanos::from_millis(200), stop)
    }

    /// Builds the rig over the given schedules.
    pub fn new(profiles: [RateProfile; 4]) -> Self {
        let row_log = RowLog::Full;
        ContendedFabricRig { profiles, row_log }
    }

    /// The standard fairness configuration: ordinary hysteresis plus the
    /// rig's 8-sample starvation window.
    pub fn config(interval: Nanos) -> FleetControllerConfig {
        FleetControllerConfig {
            starvation_window: Self::STARVATION_WINDOW,
            ..FleetControllerConfig::standard(interval)
        }
    }

    /// A weighted-DRF fleet controller over the rig's fabric.
    pub fn fleet_controller(interval: Nanos) -> FleetController {
        FleetController::new(Self::config(interval), Self::fabric(), Self::fleet_apps())
    }

    /// The pure benefit-maximising scheduler (fairness disabled): the
    /// baseline that starves the Paxos tenant.
    pub fn pure_benefit_controller(interval: Nanos) -> FleetController {
        let config = FleetControllerConfig {
            starvation_window: u32::MAX,
            ..Self::config(interval)
        };
        FleetController::new(config, Self::fabric(), Self::fleet_apps())
    }

    /// A controller pinned to a fixed placement vector (a static
    /// baseline).
    pub fn pinned_controller(interval: Nanos, placements: [Placement; 4]) -> FleetController {
        let (fabric, apps) = (Self::fabric(), Self::fleet_apps());
        pinned(Self::config(interval), fabric, apps, &placements)
    }

    /// Runs the model until `until`: the §8 curves supply rates, power
    /// and latency per placement, `run_fleet_controlled` supplies the
    /// control loop, streak machinery and bookkeeping. Metered power for
    /// a remote placement gives back the share of the saving that the
    /// detour burns, exactly as the scheduler prices it (this rig's
    /// topology carries no link energy, so only the haircut meters).
    pub fn run(&self, controller: &mut FleetController, until: Nanos) -> FleetTimeline {
        run_stylised_model(controller, until, self.row_log, &self.profiles)
    }
}

/// Software-mode latency of every stylised tenant (model-level constant).
const SW_LATENCY_NS: u64 = 12_000;
/// Hardware-mode latency of a stylised tenant at its home ToR.
const HW_LATENCY_NS: u64 = 1_500;

/// A stylised §8 analysis: a software curve with dynamic slope
/// `slope_w_per_kpps` against a flat hardware curve `unpark_w` above the
/// shared idle floor — `benefit(r) ≈ slope · r − unpark`.
fn stylised(slope_w_per_kpps: f64, unpark_w: f64) -> PlacementAnalysis {
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

/// A stylised tenant: `slope_w_per_kpps` of software dynamic power
/// against a hardware curve 2 W above the idle floor, unit weight.
fn tenant(
    name: impl Into<String>,
    demand: ProgramResources,
    slope_w_per_kpps: f64,
    home: DeviceId,
) -> FleetApp {
    FleetApp {
        name: name.into(),
        demand,
        analysis: stylised(slope_w_per_kpps, 2.0),
        home,
        weight: 1.0,
    }
}

/// One plateau per tenant: everyone idles at 1 kpps, holds `peaks`
/// simultaneously from `start` to `stop`, then idles again.
fn plateaus<const N: usize>(peaks: [f64; N], start: Nanos, stop: Nanos) -> [RateProfile; N] {
    peaks.map(|peak| {
        RateProfile::steps(vec![(Nanos::ZERO, 1_000.0), (start, peak), (stop, 1_000.0)])
    })
}

/// Drives a **model-driven** rig (stylised §8 curves, no packet
/// machinery) through [`run_fleet_controlled`] over the controller's own
/// fabric: the curves supply the rates (sampled mid-interval), power and
/// latency per placement, and a remote placement's metered power gives
/// back the topology tier's share of the saving *plus* the link energy
/// its detour burns — exactly as the scheduler prices it. The one run
/// loop of [`ContendedFabricRig`] and [`PodFabricRig`].
fn run_stylised_model(
    controller: &mut FleetController,
    until: Nanos,
    mode: RowLog,
    profiles: &[RateProfile],
) -> FleetTimeline {
    let mut sim: Simulator<()> = Simulator::new(0);
    let fabric = controller.fabric().clone();
    let apps = controller.apps().to_vec();
    let interval = controller.config().interval;
    let placements = std::cell::RefCell::new(controller.placements().to_vec());
    run_fleet_controlled(
        &mut sim,
        controller,
        until,
        mode,
        |sim| {
            let now = sim.now();
            let mid = now - interval.mul_f64(0.5);
            (0..apps.len())
                .map(|i| {
                    let rate = profiles[i].rate_at(mid);
                    let placement = placements.borrow()[i];
                    let (sw_w, hw_w) = apps[i].analysis.energy_per_second(rate);
                    let (power_w, latency) = match placement {
                        Placement::Software => (sw_w, SW_LATENCY_NS),
                        Placement::Device(d) => {
                            let f = fabric.benefit_factor(apps[i].home, d);
                            let link_w = fabric.link_energy_w(apps[i].home, d, rate);
                            let detour = 2 * fabric.extra_latency(apps[i].home, d).as_nanos();
                            (sw_w - f * (sw_w - hw_w) + link_w, HW_LATENCY_NS + detour)
                        }
                    };
                    AppObservation {
                        sample: FleetSample {
                            host: HostSample {
                                rapl_w: sw_w,
                                app_cpu_util: rate / 1e6,
                                hw_app_rate: if placement.is_offloaded() { rate } else { 0.0 },
                            },
                            offered_pps: rate,
                        },
                        completed: (rate * interval.as_secs_f64()) as u64,
                        latency_p50_ns: latency,
                        latency_p99_ns: latency * 2,
                        power_w,
                    }
                })
                .collect()
        },
        |_sim, _t, app, p| placements.borrow_mut()[app] = p,
    )
}

/// The three-tier topology rig: **2 pods × 2 ToRs** behind a core, five
/// tenants, heterogeneous budgets — the scenario the [`Topology`]
/// distance matrix, the migration debit and the min-cost fairness
/// hand-over exist for.
///
/// Layout (device index = ToR):
///
/// ```text
///                 core
///               /      \
///          pod 0        pod 1
///         /     \      /     \
///      ToR 0   ToR 1  ToR 2  ToR 3
///      12 st   10 st  12 st  10 st
///      48 MB   32 MB  48 MB  32 MB
/// ```
///
/// * **KVS** (7 st / 40 MB, home ToR 0): the anchor tenant — only the big
///   ToRs can host it, and it out-scores everyone.
/// * **Analytics** (6 st / 20 MB, home ToR 0): contends with the KVS at
///   home and must spill. ToR 1 (near, one pod hop) and ToR 3 (far,
///   across the core) have the *same* budget, so only the distance
///   matrix separates them: the spill must land near.
/// * **DNS** (7 st / 24 MB, home ToR 2): holds its own ToR in pod 1.
/// * **Edge** (6 st / 16 MB, home ToR 3): a small tenant with the
///   weakest economics of the residents — the cheapest program to clip.
/// * **Paxos** (6 st / 4 MB, home ToR 0): profitable everywhere (even
///   across the core), out-scored everywhere — with all four devices
///   full it fits *nowhere* and must go through the fairness claim. Its
///   best-*score* device is its home ToR 0, where the expensive KVS
///   sits; the min-*cost* hand-over instead clips the edge tenant on
///   far-away ToR 3, forfeiting 2.5 W instead of 10 W.
///
/// Like [`ContendedFabricRig`] this rig is **model-driven**: stylised §8
/// curves with precisely shaped sustained plateaus, driven through
/// [`run_fleet_controlled`]; the packet plumbing such schedules ride on
/// is end-to-end tested by [`MultiTorRig`]. Metered power for a remote
/// placement gives back the tier's share of the saving *plus* the link
/// energy its detour burns, exactly as the scheduler prices it.
pub struct PodFabricRig {
    /// Offered-rate schedules, indexed like the fleet app vector.
    pub profiles: [RateProfile; 5],
    /// Timeline row retention of [`PodFabricRig::run`].
    pub row_log: RowLog,
}

impl PodFabricRig {
    /// Index of the KVS tenant in the fleet's app vector.
    pub const KVS_APP: usize = 0;
    /// Index of the analytics tenant (the near-spiller).
    // inc-lint: allow(unreached-pub): tests/topology.rs and tests/economics.rs name the analytics tenant by it
    pub const ANA_APP: usize = 1;
    /// Index of the DNS tenant.
    pub const DNS_APP: usize = 2;
    /// Index of the edge tenant (the cheapest clip).
    // inc-lint: allow(unreached-pub): tests/topology.rs names the edge tenant by it
    pub const EDGE_APP: usize = 3;
    /// Index of the Paxos tenant (the fairness claimant).
    pub const PAX_APP: usize = 4;

    /// Big ToR of pod 0 (home of KVS, analytics and Paxos).
    pub const TOR_A0: DeviceId = DeviceId(0);
    /// Small ToR of pod 0 (the near spill target).
    pub const TOR_A1: DeviceId = DeviceId(1);
    /// Big ToR of pod 1 (home of DNS).
    pub const TOR_B0: DeviceId = DeviceId(2);
    /// Small ToR of pod 1 (home of the edge tenant).
    pub const TOR_B1: DeviceId = DeviceId(3);

    /// Plateau rates, packets/second, indexed like the app vector.
    const PEAK_PPS: [f64; 5] = [120_000.0, 90_000.0, 90_000.0, 60_000.0, 12_000.0];

    /// The starvation window of the rig's fairness configuration.
    pub const STARVATION_WINDOW: u32 = 8;

    /// The intra-pod tier: the standard 2 µs / 0.85 detour plus the
    /// metered aggregation-switch port energy, calibrated from the
    /// §9.4 switch figures (exactly 500 nJ per packet per direction —
    /// the value this rig used to quote by hand).
    pub fn intra_pod() -> TierCost {
        TierCost::calibrated_intra_pod(&LinkEnergyModel::arista_class())
    }

    /// The inter-pod tier: the standard 6 µs / 0.70 core detour plus
    /// three calibrated switch traversals (exactly 1500 nJ per packet
    /// per direction).
    pub fn inter_pod() -> TierCost {
        TierCost::calibrated_inter_pod(&LinkEnergyModel::arista_class())
    }

    /// The small-ToR budget: 10 stages / 32 MB (an older-generation
    /// pipeline kept in service — heterogeneity is the norm at fleet
    /// scale).
    pub fn small_budget() -> PipelineBudget {
        PipelineBudget {
            stages: 10,
            sram_bytes: 32 << 20,
            parse_depth_bytes: 192,
        }
    }

    /// The fabric: big/small ToR pairs in each pod, under the
    /// three-tier distance matrix.
    pub fn fabric() -> DeviceFabric {
        let big = PipelineBudget::tofino_like();
        DeviceFabric::new(
            vec![big, Self::small_budget(), big, Self::small_budget()],
            Topology::fat_tree(2, 2, Self::intra_pod(), Self::inter_pod()),
        )
    }

    /// The five tenants. Plateau benefits: KVS 10 W (score 12.0 at
    /// home), analytics 5.2 W, DNS 6.1 W, edge 2.5 W (the cheapest
    /// resident), Paxos 2.2 W (clears the 1 W floor even across the
    /// core, never wins a score fight).
    pub fn fleet_apps() -> Vec<FleetApp> {
        vec![
            tenant("kvs", SharedDeviceRig::kvs_demand(), 0.10, Self::TOR_A0),
            tenant(
                "analytics",
                ProgramResources {
                    stages: 6,
                    sram_bytes: 20 << 20,
                    parse_depth_bytes: 96,
                },
                0.08,
                Self::TOR_A0,
            ),
            tenant("dns", ContendedFabricRig::dns_demand(), 0.09, Self::TOR_B0),
            tenant(
                "edge",
                ProgramResources {
                    stages: 6,
                    sram_bytes: 16 << 20,
                    parse_depth_bytes: 96,
                },
                0.075,
                Self::TOR_B1,
            ),
            tenant("paxos", MultiTorRig::pax_demand(), 0.35, Self::TOR_A0),
        ]
    }

    /// The canonical contended day over `horizon`: a short idle valley,
    /// then every tenant holds its plateau simultaneously until 3 s
    /// before the horizon, then idles again. The valleys are where the
    /// on-demand fleet beats every static placement (four parked devices
    /// save ~8 W of unpark power that statics keep paying); the
    /// sustained overlap is where the distance matrix and the fairness
    /// layer earn their keep.
    pub fn contended_profiles(horizon: Nanos) -> [RateProfile; 5] {
        // Short horizons keep the valley proportional instead of
        // underflowing the subtraction.
        let tail = Nanos::from_millis(3_000).min(horizon.mul_f64(0.3));
        plateaus(Self::PEAK_PPS, Nanos::from_millis(300), horizon - tail)
    }

    /// Builds the rig over the given schedules.
    pub fn new(profiles: [RateProfile; 5]) -> Self {
        let row_log = RowLog::Full;
        PodFabricRig { profiles, row_log }
    }

    /// The rig's standard configuration: ordinary hysteresis, the
    /// 8-sample starvation window, the standard 5 J switchover debit,
    /// min-cost hand-overs.
    pub fn config(interval: Nanos) -> FleetControllerConfig {
        FleetControllerConfig {
            starvation_window: Self::STARVATION_WINDOW,
            ..FleetControllerConfig::standard(interval)
        }
    }

    /// A fleet controller over the rig's fabric with the given claim
    /// policy (min-cost is the standard; best-score is the baseline the
    /// acceptance comparison runs against).
    pub fn fleet_controller(interval: Nanos, claim_policy: ClaimPolicy) -> FleetController {
        let config = FleetControllerConfig {
            claim_policy,
            ..Self::config(interval)
        };
        FleetController::new(config, Self::fabric(), Self::fleet_apps())
    }

    /// A controller pinned to a fixed placement vector (a static
    /// baseline).
    pub fn pinned_controller(interval: Nanos, placements: [Placement; 5]) -> FleetController {
        let (fabric, apps) = (Self::fabric(), Self::fleet_apps());
        pinned(Self::config(interval), fabric, apps, &placements)
    }

    /// The natural static deployment a fleet operator would pick by
    /// looking at the plateau: every resident on its home ToR (analytics
    /// on the near small ToR), Paxos left in software. The strongest
    /// static baseline the on-demand schedule must beat.
    pub fn natural_static() -> [Placement; 5] {
        [
            Placement::Device(Self::TOR_A0),
            Placement::Device(Self::TOR_A1),
            Placement::Device(Self::TOR_B0),
            Placement::Device(Self::TOR_B1),
            Placement::Software,
        ]
    }

    /// Runs the model until `until` (the shared stylised-model loop):
    /// the §8 curves supply rates, power and latency per placement;
    /// metered power for a remote placement gives back the tier's share
    /// of the saving plus the detour's link energy, exactly as the
    /// scheduler prices it.
    pub fn run(&self, controller: &mut FleetController, until: Nanos) -> FleetTimeline {
        run_stylised_model(controller, until, self.row_log, &self.profiles)
    }
}

/// The fleet-scale arbitration rig: `Topology::fat_tree(8, 16)` — 128
/// ToR devices in 8 pods — carrying 1000+ tenants whose offered rates
/// follow a zipf popularity curve, driven straight into the
/// [`FleetController`] (no packet simulation: the §8 curves
/// price everything, exactly as the scheduler sees it).
///
/// The trace is built so that most sampling intervals are *economically
/// quiet* — every tenant's rate wobbles within the controller's dead
/// band — while a small rotating churn set (one tenant every
/// [`MegaFabricRig::CHURN_PERIOD`] ticks) collapses and recovers,
/// dirtying only its own pod. That is the regime the incremental
/// pipeline is built for, and the regime a real fleet lives in:
/// datacenter-wide load does not change every 150 ms, one rack's does.
pub struct MegaFabricRig {
    apps: Vec<FleetApp>,
    /// Steady offered rate per tenant, packets/second (rank-mapped from
    /// the zipf popularity curve).
    base: Vec<f64>,
    /// Scratch sample vector reused every tick.
    samples: Vec<FleetSample>,
}

impl MegaFabricRig {
    /// Pods in the fat-tree.
    pub const PODS: usize = 8;
    /// ToR devices per pod.
    pub const TORS_PER_POD: usize = 16;
    /// Total devices.
    pub const DEVICES: usize = Self::PODS * Self::TORS_PER_POD;
    /// Zipf exponent of the tenant popularity curve: shallow enough
    /// that roughly the hottest hundred of a thousand tenants clear the
    /// 1 W offload floor (the fleet regime: most tenants are cold).
    pub const ALPHA: f64 = 0.6;
    /// Offered rate of the rank-1 tenant, packets/second.
    pub const PEAK_PPS: f64 = 500_000.0;
    /// Ticks between churn events (one tenant collapsing or
    /// recovering).
    pub const CHURN_PERIOD: u64 = 4;

    /// The 128-device fat-tree fabric under the calibrated tier costs
    /// (standard latency/haircut terms, link energy metered from the
    /// §9.4 switch model).
    pub fn fabric() -> DeviceFabric {
        let link = LinkEnergyModel::arista_class();
        DeviceFabric::homogeneous(
            Self::DEVICES,
            PipelineBudget::tofino_like(),
            Topology::fat_tree(
                Self::PODS,
                Self::TORS_PER_POD,
                TierCost::calibrated_intra_pod(&link),
                TierCost::calibrated_inter_pod(&link),
            ),
        )
    }

    /// Builds `tenants` zipf-ranked tenants, deterministically from
    /// `seed`: homes round-robin across the 128 ToRs, demand classes and
    /// benefit slopes drawn from the seeded generator, offered rates
    /// mapped from a shuffled popularity ranking
    /// (`PEAK_PPS × rank^(-α)`).
    pub fn new(tenants: usize, seed: u64) -> Self {
        let (apps, base, _) = Self::zipf_fleet(tenants, seed, 200.0, Self::PEAK_PPS);
        let samples = vec![
            FleetSample {
                host: HostSample {
                    rapl_w: 50.0,
                    app_cpu_util: 0.5,
                    hw_app_rate: 0.0,
                },
                offered_pps: 0.0,
            };
            tenants
        ];
        MegaFabricRig {
            apps,
            base,
            samples,
        }
    }

    /// The seeded zipf fleet shared with [`crate::heavy::HeavyTrafficRig`]:
    /// `tenants` tenants homed round-robin across the ToRs, demand
    /// classes and benefit slopes drawn from the seeded generator, steady
    /// rates `floor_pps + peak_pps × rank^(-α)` over a shuffled
    /// popularity ranking. Hands the generator back so a caller can keep
    /// drawing from the same stream.
    pub(crate) fn zipf_fleet(
        tenants: usize,
        seed: u64,
        floor_pps: f64,
        peak_pps: f64,
    ) -> (Vec<FleetApp>, Vec<f64>, Rng) {
        let mut rng = Rng::new(seed);
        let zipf = Zipf::new(tenants as u64, Self::ALPHA).expect("valid zipf parameters");
        // Rank assignment: which tenant is the fleet's hottest is
        // arbitrary, so shuffle ranks over tenant indices.
        let mut ranks: Vec<u64> = (1..=tenants as u64).collect();
        rng.shuffle(&mut ranks);
        let mut apps = Vec::with_capacity(tenants);
        let mut base = Vec::with_capacity(tenants);
        for (i, &rank) in ranks.iter().enumerate() {
            let stages = 2 + rng.index(3) as u32; // 2..=4: 3-6 tenants per ToR
            let sram_mb = 1 + rng.index(4) as u64; // 1..=4 MB
            let slope = 0.08 + 0.04 * rng.f64(); // W per kpps
            let demand = ProgramResources {
                stages,
                sram_bytes: sram_mb << 20,
                parse_depth_bytes: 64,
            };
            let home = DeviceId((i % Self::DEVICES) as u16);
            apps.push(tenant(format!("tenant{i}"), demand, slope, home));
            base.push(floor_pps + peak_pps * zipf.popularity(rank));
        }
        (apps, base, rng)
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.apps.len()
    }

    /// A fleet controller over the rig's fabric and tenants in the
    /// given mode (5 % dead band, standard economics, 1 s interval).
    pub fn controller(&self, mode: ArbitrationMode) -> FleetController {
        FleetController::new(
            FleetControllerConfig {
                mode,
                rate_deadband: 0.05,
                ..FleetControllerConfig::standard(Nanos::from_secs(1))
            },
            Self::fabric(),
            self.apps.clone(),
        )
    }

    /// The tenant whose load is churning during `tick`'s epoch (it
    /// collapses to a tenth of its steady rate on odd epochs and
    /// recovers on even ones).
    pub fn churner(&self, tick: u64) -> (usize, bool) {
        let epoch = tick / Self::CHURN_PERIOD;
        let tenant = (epoch.wrapping_mul(7919) % self.apps.len() as u64) as usize;
        (tenant, epoch % 2 == 1)
    }

    /// The per-tenant samples of `tick`: steady rates with a ±2 %
    /// wobble (inside the 5 % dead band, so it never re-scores), plus
    /// the epoch's churn event.
    pub fn tick_samples(&mut self, tick: u64) -> &[FleetSample] {
        let (churner, collapsed) = self.churner(tick);
        for (i, s) in self.samples.iter_mut().enumerate() {
            let wobble = 1.0 + 0.01 * ((tick + i as u64) % 3) as f64;
            let mut rate = self.base[i] * wobble;
            if i == churner && collapsed {
                rate *= 0.1;
            }
            s.host.hw_app_rate = rate;
            s.offered_pps = rate;
        }
        &self.samples
    }

    /// Drives `controller` for `ticks` sampling intervals; returns the
    /// number of placement decisions executed. Decision throughput is
    /// `tenants × ticks / elapsed` — every (tenant, interval) pair is an
    /// arbitration decision, however cheaply the pipeline resolved it.
    pub fn run(&mut self, controller: &mut FleetController, ticks: u64) -> u64 {
        let mut decisions = 0u64;
        for tick in 1..=ticks {
            let now = Nanos::from_secs(tick);
            let samples = self.tick_samples(tick);
            decisions += controller.sample(now, samples).len() as u64;
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fairness rig's stylised economics have the shape its scenario
    /// depends on: every admitted tenant is profitable at its plateau;
    /// the Paxos program clears the floor even remotely but never wins a
    /// score fight (so pure benefit starves it); the bulk tenant's
    /// demand overflows every device; and the two ToR-A programs'
    /// dominant shares both exceed the three-way entitlement, so claims
    /// can clip in either direction.
    #[test]
    fn contended_fabric_calibration() {
        let interval = Nanos::from_millis(100);
        let ctl = ContendedFabricRig::fleet_controller(interval);
        let (kvs, dns, pax, bulk) = (
            ContendedFabricRig::KVS_APP,
            ContendedFabricRig::DNS_APP,
            ContendedFabricRig::PAX_APP,
            ContendedFabricRig::BULK_APP,
        );
        for app in [kvs, dns, pax, bulk] {
            let peak = ContendedFabricRig::contended_profiles(Nanos::from_secs(8))[app]
                .rate_at(Nanos::from_secs(4));
            assert!(ctl.benefit_w(app, 1_000.0) < 0.0, "app {app} hot at idle");
            assert!(ctl.benefit_w(app, peak) > 2.0, "app {app} cold at peak");
        }
        // Paxos clears the offload floor even across the detour...
        let pax_peak = 12_000.0;
        let remote = ctl.effective_benefit_w(pax, ContendedFabricRig::TOR_B, pax_peak);
        assert!(remote >= ctl.config().min_benefit_w);
        // ...but cannot out-score either incumbent, sticky or not.
        let pax_score = ctl.score(pax, ContendedFabricRig::TOR_A, pax_peak);
        assert!(ctl.score(kvs, ContendedFabricRig::TOR_A, 120_000.0) > pax_score);
        assert!(ctl.score(dns, ContendedFabricRig::TOR_B, 90_000.0) > pax_score);
        // Admission control: only the bulk tenant is unsatisfiable.
        for app in [kvs, dns, pax] {
            assert_eq!(
                ctl.admission_decision(app),
                inc_ondemand::AdmissionDecision::Admit
            );
        }
        assert_eq!(
            ctl.admission_decision(bulk),
            inc_ondemand::AdmissionDecision::Reject
        );
        let device = ContendedFabricRig::fabric()
            .device(ContendedFabricRig::TOR_A)
            .clone();
        assert!(device.cost_units(&ContendedFabricRig::bulk_demand()) > 1.0);
        // Both ToR-A programs are clippable at the 1/3 entitlement.
        assert!(device.cost_units(&SharedDeviceRig::kvs_demand()) > 1.0 / 3.0);
        assert!(device.cost_units(&MultiTorRig::pax_demand()) > 1.0 / 3.0);
        // DNS and Paxos cannot co-reside on ToR B in this rig.
        let mut b = device.clone();
        b.admit(0, ContendedFabricRig::dns_demand()).unwrap();
        assert!(!b.fits(&MultiTorRig::pax_demand()));
    }

    /// The pod-fabric rig's stylised economics have the shape its
    /// scenario depends on: every tenant profitable at its plateau and
    /// cold at the valley; the analytics spiller scores strictly higher
    /// on the near small ToR than on the far identical one; the Paxos
    /// claimant clears the floor even across the core but never wins a
    /// score fight; the edge tenant is the cheapest resident to clip;
    /// and the capacity shape forces the contention (KVS only fits big
    /// ToRs, nothing co-resides with a full plateau assignment).
    #[test]
    fn pod_fabric_calibration() {
        let interval = Nanos::from_millis(100);
        let ctl = PodFabricRig::fleet_controller(interval, ClaimPolicy::MinCost);
        let (kvs, ana, dns, edge, pax) = (
            PodFabricRig::KVS_APP,
            PodFabricRig::ANA_APP,
            PodFabricRig::DNS_APP,
            PodFabricRig::EDGE_APP,
            PodFabricRig::PAX_APP,
        );
        for app in [kvs, ana, dns, edge, pax] {
            let peak = PodFabricRig::contended_profiles(Nanos::from_secs(10))[app]
                .rate_at(Nanos::from_secs(4));
            assert!(ctl.benefit_w(app, 1_000.0) < 0.0, "app {app} hot at idle");
            assert!(ctl.benefit_w(app, peak) > 1.5, "app {app} cold at peak");
        }
        // KVS fits only the big ToRs.
        let fabric = PodFabricRig::fabric();
        assert!(fabric
            .device(PodFabricRig::TOR_A1)
            .budget()
            .admit(&SharedDeviceRig::kvs_demand())
            .is_err());
        // The near and far small ToRs are identical in budget, so only
        // the topology separates the analytics spill — and near must
        // strictly win.
        assert_eq!(
            fabric.device(PodFabricRig::TOR_A1).budget(),
            fabric.device(PodFabricRig::TOR_B1).budget()
        );
        let ana_rate = 90_000.0;
        assert!(
            ctl.score(ana, PodFabricRig::TOR_A1, ana_rate)
                > ctl.score(ana, PodFabricRig::TOR_B1, ana_rate)
        );
        assert_eq!(
            fabric.distance(PodFabricRig::TOR_A0, PodFabricRig::TOR_A1),
            1
        );
        assert_eq!(
            fabric.distance(PodFabricRig::TOR_A0, PodFabricRig::TOR_B1),
            2
        );
        // Paxos: floor-clearing everywhere, outscored everywhere.
        for d in fabric.device_ids() {
            assert!(ctl.effective_benefit_w(pax, d, 12_000.0) >= ctl.config().min_benefit_w);
        }
        // ...each resident out-scores the claimant on its own device, so
        // the knapsack never seats Paxos anywhere.
        let pax_at = |d| ctl.score(pax, d, 12_000.0);
        assert!(ctl.score(kvs, PodFabricRig::TOR_A0, 120_000.0) > pax_at(PodFabricRig::TOR_A0));
        assert!(ctl.score(ana, PodFabricRig::TOR_A1, ana_rate) > pax_at(PodFabricRig::TOR_A1));
        assert!(ctl.score(dns, PodFabricRig::TOR_B0, 90_000.0) > pax_at(PodFabricRig::TOR_B0));
        assert!(ctl.score(edge, PodFabricRig::TOR_B1, 60_000.0) > pax_at(PodFabricRig::TOR_B1));
        // The edge tenant delivers the least benefit of the four
        // residents: the min-cost clip target.
        let edge_w = ctl.effective_benefit_w(edge, PodFabricRig::TOR_B1, 60_000.0);
        assert!(edge_w < ctl.effective_benefit_w(kvs, PodFabricRig::TOR_A0, 120_000.0));
        assert!(edge_w < ctl.effective_benefit_w(ana, PodFabricRig::TOR_A1, ana_rate));
        assert!(edge_w < ctl.effective_benefit_w(dns, PodFabricRig::TOR_B0, 90_000.0));
        // With the natural assignment resident, Paxos fits nowhere.
        let mut full = PodFabricRig::fabric();
        full.admit(PodFabricRig::TOR_A0, 0, SharedDeviceRig::kvs_demand())
            .unwrap();
        full.admit(PodFabricRig::TOR_A1, 1, ctl.apps()[ana].demand)
            .unwrap();
        full.admit(PodFabricRig::TOR_B0, 2, ContendedFabricRig::dns_demand())
            .unwrap();
        full.admit(PodFabricRig::TOR_B1, 3, ctl.apps()[edge].demand)
            .unwrap();
        for d in full.device_ids() {
            assert!(!full.device(d).fits(&MultiTorRig::pax_demand()), "{d}");
        }
    }
}
