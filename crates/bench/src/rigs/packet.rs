//! The packet-level rigs: a simulator plus one [`Slice`] per tenant.

use inc_dns::{DnsClient, Zone, DNS_PORT};
use inc_hw::{
    DeviceFabric, DeviceId, PipelineBudget, Placement, ProgramResources, TierCost, Topology,
};
use inc_kvs::{KvsClient, LakeCacheConfig, LakeDevice, OpGen, UniformGen, MEMCACHED_PORT};
use inc_net::{Endpoint, L2Switch, Match, Packet};
use inc_ondemand::{
    run_fleet_controlled, FleetApp, FleetController, FleetControllerConfig, FleetTimeline, RowLog,
};
use inc_paxos::multi::Leader;
use inc_paxos::{PaxosClient, PaxosNode, PAXOS_LEADER_PORT};
use inc_sim::{Nanos, NodeId, Simulator};
use inc_workloads::RateProfile;

use super::pinned;
use super::slices::{pax_leader_vip, Chain, PaxosSlice, Slice};

/// The LaKe partition every rig instantiates.
fn lake() -> LakeDevice {
    LakeDevice::new(LakeCacheConfig::tiny(2_048, 65_536), 5)
}

/// The open-loop memcached client every KVS rig wires in.
fn kvs_client(rate_pps: f64, gen: Box<dyn OpGen>) -> KvsClient {
    KvsClient::open_loop(
        Endpoint::host(1, 40_000),
        Endpoint::host(2, MEMCACHED_PORT),
        rate_pps,
        gen,
    )
}

/// The fleet rigs' KVS workload: 97 % GETs over `keys` uniform keys with
/// 64-byte values.
fn mostly_gets(keys: u64) -> Box<dyn OpGen> {
    Box::new(UniformGen {
        keys,
        get_ratio: 0.97,
        value_len: 64,
    })
}

/// The DNS client of the fleet rigs.
fn dns_client(names: u64, rate_pps: f64) -> DnsClient {
    DnsClient::new(
        Endpoint::host(3, 41_000),
        Endpoint::host(4, DNS_PORT),
        rate_pps,
        names,
    )
}

/// The Figure 1 KVS topology: client ↔ LaKe ↔ memcached.
pub struct KvsRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// Load generator node.
    pub client: NodeId,
    /// LaKe card node.
    pub device: NodeId,
    /// memcached host node.
    pub server: NodeId,
    pub(crate) slice: Slice,
}

impl KvsRig {
    /// A GET-only uniform workload over `keys` keys with 64-byte values
    /// (what every spot check and ablation offers).
    pub fn gets(keys: u64) -> Box<dyn OpGen> {
        Box::new(UniformGen {
            keys,
            get_ratio: 1.0,
            value_len: 64,
        })
    }

    /// Builds the rig with `keys` preloaded keys of `value_len` bytes and
    /// an arbitrary op generator.
    pub fn new(
        seed: u64,
        rate_pps: f64,
        keys: u64,
        value_len: usize,
        gen: Box<dyn OpGen>,
        hardware: bool,
    ) -> Self {
        let mut sim = Simulator::new(seed);
        let client = kvs_client(rate_pps, gen);
        let device = match hardware {
            true => lake().started_in_hardware(),
            false => lake(),
        };
        let sites = [DeviceId::LOCAL];
        let chain = Chain::kvs(&mut sim, client, keys, value_len, vec![device], &sites);
        KvsRig {
            sim,
            client: chain.client,
            device: chain.devices[0],
            server: chain.server,
            slice: Slice::Kvs(chain),
        }
    }
}

/// The DNS topology: client ↔ Emu ↔ NSD, sharing one zone.
pub struct DnsRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// Query generator node.
    pub client: NodeId,
    /// Emu DNS card node.
    pub device: NodeId,
    /// NSD host node.
    pub server: NodeId,
}

impl DnsRig {
    /// Builds the rig over a synthetic zone of `names` records.
    pub fn new(seed: u64, rate_pps: f64, names: u64, hardware: bool) -> Self {
        let mut sim = Simulator::new(seed);
        let client = DnsClient::new(
            Endpoint::host(1, 40_000),
            Endpoint::host(2, DNS_PORT),
            rate_pps,
            names,
        );
        let zone = Zone::synthetic(names);
        let chain = Chain::dns(&mut sim, client, zone, hardware, &[DeviceId::LOCAL]);
        DnsRig {
            sim,
            client: chain.client,
            device: chain.devices[0],
            server: chain.server,
        }
    }
}

/// The Figure 7 Paxos topology: clients + software/hardware leaders +
/// three acceptors + replica, joined by a steerable switch.
pub struct PaxosRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    pub(crate) slice: PaxosSlice,
}

impl PaxosRig {
    /// Builds the rig with `n_clients` closed-loop clients (one
    /// outstanding command each) and the given retry timeout.
    pub fn new(seed: u64, n_clients: u32, timeout: Nanos) -> Self {
        let mut sim = Simulator::new(seed);
        let clients = (0..n_clients)
            .map(|id| PaxosClient::new(100 + id, pax_leader_vip(), 1, timeout))
            .collect();
        let slice = PaxosSlice::wire(&mut sim, &[DeviceId::LOCAL], clients);
        PaxosRig { sim, slice }
    }

    /// Shifts the leader role to the FPGA node (`Placement::HARDWARE`)
    /// or back to the software node (§9.2).
    ///
    /// Rule replacement is not atomic in a real switch: the old leader is
    /// stopped first, and for a brief window leader-bound traffic still
    /// reaches it and is lost — the loss the client retry timeout covers
    /// (the ~100 ms zero-throughput dip of Figure 7).
    pub fn shift_leader(&mut self, to: Placement) {
        let [sw, hw] = [self.slice.leaders[0], self.slice.leaders[1]];
        let [from, to] = if to.is_offloaded() {
            [sw, hw]
        } else {
            [hw, sw]
        };
        // Stop the old leader; traffic keeps flowing to it (and dying)
        // while the controller replaces the forwarding rule.
        let old = self.sim.node_mut::<PaxosNode<Leader>>(from.0);
        old.deactivate();
        old.set_parked(true);
        let now = self.sim.now();
        self.sim.run_until(now + Nanos::from_millis(1));
        let switch = self.sim.node_mut::<L2Switch>(self.slice.switch);
        switch.unsteer_port(from.1);
        switch.steer(Match::udp_dst(PAXOS_LEADER_PORT), to.1);
        self.sim
            .node_mut::<PaxosNode<Leader>>(to.0)
            .set_parked(false);
        self.sim
            .with_node_ctx::<PaxosNode<Leader>, _>(to.0, |n, ctx| n.activate(ctx));
    }
}

/// The one run loop of the packet-level fleet rigs: executes any
/// pre-seeded placements, then steps `controller` until `until`, each
/// interval following every tenant's offered-rate schedule and mapping
/// [`Slice::observe`] / [`Slice::apply`] over the slices.
fn run_slices(
    sim: &mut Simulator<Packet>,
    slices: &[Slice],
    profiles: &[RateProfile],
    row_log: RowLog,
    controller: &mut FleetController,
    until: Nanos,
) -> FleetTimeline {
    let now = sim.now();
    for (slice, &p) in slices.iter().zip(controller.placements()) {
        if p.is_offloaded() {
            slice.apply(sim, now, p);
        }
    }
    let interval = controller.config().interval;
    run_fleet_controlled(
        sim,
        controller,
        until,
        row_log,
        |sim, _| {
            let now = sim.now();
            // The arrival rate over the elapsed interval, sampled at its
            // midpoint.
            let mid = now - interval.mul_f64(0.5);
            let observe = |(slice, profile): (&Slice, &RateProfile)| {
                slice.set_rate(sim, profile.rate_at(now));
                slice.observe(sim, interval, profile.rate_at(mid))
            };
            slices.iter().zip(profiles).map(observe).collect()
        },
        |sim, t, app, p| slices[app].apply(sim, t, p),
    )
}

/// The shared-device topology: KVS and DNS tenants contending for one
/// capacity-bounded programmable device.
///
/// The physical card is modelled as two logical partitions — the LaKe
/// engine serving memcached traffic and the Emu core serving DNS — each a
/// bump-in-the-wire in front of its software server. Whether a
/// partition's program may be *resident* (hardware placement) is decided
/// by the `FleetController`'s shared [`inc_hw::DeviceCapacity`] ledger: the
/// [`SharedDeviceRig::shared_budget`] admits either program alone but not
/// both, so every offload is an arbitration decision. The shell base
/// power appears once per partition; it is a constant offset common to
/// every placement configuration, so energy *comparisons* between
/// schedules are unaffected.
pub struct SharedDeviceRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// KVS load generator.
    pub kvs_client: NodeId,
    /// DNS query generator.
    pub dns_client: NodeId,
    /// Offered-rate schedules, indexed like the fleet app vector.
    pub profiles: [RateProfile; 2],
    /// Timeline row retention of [`SharedDeviceRig::run`].
    pub row_log: RowLog,
    slices: [Slice; 2],
}

impl SharedDeviceRig {
    /// Index of the KVS tenant in the fleet's app vector.
    pub const KVS_APP: usize = 0;
    /// Index of the DNS tenant in the fleet's app vector.
    pub const DNS_APP: usize = 1;

    /// The canonical contended scenario: two offset diurnal days over
    /// `period` — the KVS peaks at ~0.29 of the day, the DNS at ~0.63 —
    /// whose busy windows overlap enough that the hand-over is an
    /// arbitration decision rather than two disjoint bursts.
    pub fn contended_profiles(period: Nanos) -> (RateProfile, RateProfile) {
        let [kvs, dns, _] = MultiTorRig::contended_profiles(period);
        (kvs, dns)
    }

    /// Builds the rig: both tenants preloaded and idling in software.
    pub fn new(
        seed: u64,
        keys: u64,
        names: u64,
        kvs_profile: RateProfile,
        dns_profile: RateProfile,
    ) -> Self {
        let mut sim = Simulator::new(seed);
        let sites = [DeviceId::LOCAL];
        let client = kvs_client(kvs_profile.rate_at(Nanos::ZERO), mostly_gets(keys));
        let kvs = Chain::kvs(&mut sim, client, keys, 64, vec![lake()], &sites);
        let client = dns_client(names, dns_profile.rate_at(Nanos::ZERO));
        let dns = Chain::dns(&mut sim, client, Zone::synthetic(names), false, &sites);
        SharedDeviceRig {
            sim,
            kvs_client: kvs.client,
            dns_client: dns.client,
            profiles: [kvs_profile, dns_profile],
            row_log: RowLog::Full,
            slices: [Slice::Kvs(kvs), Slice::Dns(dns)],
        }
    }

    /// The shared device budget: a Tofino-class pipeline that admits
    /// either tenant's program alone but not both (13 stages > 12,
    /// 60 MB SRAM > 48 MB).
    pub fn shared_budget() -> PipelineBudget {
        PipelineBudget::tofino_like()
    }

    /// The LaKe program's capacity claim: SRAM-bound (hash table plus
    /// value-store tables claim most of the device's stateful memory).
    pub fn kvs_demand() -> ProgramResources {
        ProgramResources {
            stages: 7,
            sram_bytes: 40 << 20,
            parse_depth_bytes: 96,
        }
    }

    /// The Emu program's capacity claim: stage-bound (name parsing burns
    /// pipeline stages, the record table is modest).
    pub fn dns_demand() -> ProgramResources {
        ProgramResources {
            stages: 6,
            sram_bytes: 20 << 20,
            parse_depth_bytes: 128,
        }
    }

    /// The §8 benefit analyses for both tenants, with the *shared-NIC*
    /// economics: the card is present in both placements (it is the
    /// host's NIC), so software placement pays the parked card while
    /// hardware placement pays the unparked card.
    pub fn fleet_apps() -> Vec<FleetApp> {
        vec![
            Slice::kvs_app(DeviceId::LOCAL, 1),
            Slice::dns_app(DeviceId::LOCAL, 1),
        ]
    }

    /// A fleet controller over the shared budget with the standard
    /// hysteresis settings.
    pub fn fleet_controller(interval: Nanos) -> FleetController {
        FleetController::new(
            FleetControllerConfig::standard(interval),
            DeviceFabric::single(Self::shared_budget()),
            Self::fleet_apps(),
        )
    }

    /// A controller pinned to a fixed placement vector (a static
    /// baseline).
    pub fn pinned_controller(interval: Nanos, placements: [Placement; 2]) -> FleetController {
        pinned(
            FleetControllerConfig::standard(interval),
            DeviceFabric::single(Self::shared_budget()),
            Self::fleet_apps(),
            &placements,
        )
    }

    /// Runs the experiment until `until` under `controller`, driving both
    /// tenants' diurnal schedules and recording per-app timelines plus
    /// total metered energy (each tenant's device partition and server).
    pub fn run(&mut self, controller: &mut FleetController, until: Nanos) -> FleetTimeline {
        let (sim, slices) = (&mut self.sim, &self.slices);
        run_slices(sim, slices, &self.profiles, self.row_log, controller, until)
    }
}

/// The §9.4 multi-ToR topology: two racks, each with its own programmable
/// device, shared by three tenants under a fleet controller that decides
/// *where* each program runs, not just whether it is offloaded.
///
/// * The **KVS** tenant (memcached + LaKe program) is homed on ToR A.
/// * The **Paxos** tenant (libpaxos leader + P4xos program) is also homed
///   on ToR A — so at overlapping peaks the two contend for one pipeline
///   and the loser must either stay in software or *spill* to ToR B.
/// * The **DNS** tenant (NSD + Emu program) is homed on ToR B.
///
/// Each ToR's device is realised as per-tenant partitions, exactly as
/// [`SharedDeviceRig`] modelled one card as two partitions. The KVS and
/// DNS slices are serial bump-in-the-wire chains — client → home-ToR
/// partition → (inter-ToR link) → remote-ToR partition → server — so a
/// remote placement physically pays the [`TierCost::extra_latency`]
/// detour on every request and response. The Paxos slice uses the §9.2
/// virtual-leader machinery: a steerable switch in front of one software
/// leader and one P4xos FPGA leader per ToR, with the ToR-B leader
/// attached through the longer inter-ToR path.
pub struct MultiTorRig {
    /// The simulator.
    pub sim: Simulator<Packet>,
    /// KVS load generator.
    pub kvs_client: NodeId,
    /// DNS query generator.
    pub dns_client: NodeId,
    /// Open-loop Paxos client.
    pub pax_client: NodeId,
    /// The Paxos tenant's three acceptors.
    pub pax_acceptors: Vec<NodeId>,
    /// Offered-rate schedules, indexed like the fleet app vector.
    pub profiles: [RateProfile; 3],
    /// Timeline row retention of [`MultiTorRig::run`].
    pub row_log: RowLog,
    slices: [Slice; 3],
}

impl MultiTorRig {
    /// Index of the KVS tenant in the fleet's app vector.
    pub const KVS_APP: usize = 0;
    /// Index of the DNS tenant in the fleet's app vector.
    pub const DNS_APP: usize = 1;
    /// Index of the Paxos tenant in the fleet's app vector.
    pub const PAX_APP: usize = 2;

    /// ToR A's device (home of the KVS and Paxos tenants).
    pub const TOR_A: DeviceId = DeviceId(0);
    /// ToR B's device (home of the DNS tenant).
    pub const TOR_B: DeviceId = DeviceId(1);

    /// Client retry timeout: well under a sampling interval, so commands
    /// lost in a leader shift are retried within the same interval.
    const PAX_TIMEOUT: Nanos = Nanos::from_millis(20);

    /// The cross-ToR penalty realised by the topology: the standard
    /// intra-pod tier — the inter-ToR hop adds 2 µs each way, and a
    /// remote placement's benefit is priced at 85 % (the detour keeps
    /// the inter-ToR link and two extra switch ports busy; see
    /// [`TierCost::standard_intra_pod`] for why the haircut deliberately
    /// does not cancel against the scheduler's stickiness premium).
    pub fn penalty() -> TierCost {
        TierCost::standard_intra_pod()
    }

    /// The fabric: one Tofino-class pipeline per ToR, the two ToRs one
    /// rack pair (a single pod — both racks behind one aggregation
    /// switch). Each admits the KVS (7 stages) beside the Paxos program
    /// (6 stages) **not** — 13 of 12 stages — while DNS (6) + Paxos (6)
    /// co-fit exactly; every pair involving the KVS overflows a device,
    /// so overlapping peaks force placement decisions.
    pub fn fabric() -> DeviceFabric {
        DeviceFabric::homogeneous(
            2,
            PipelineBudget::tofino_like(),
            Topology::rack_pairs(1, Self::penalty(), TierCost::standard_inter_pod()),
        )
    }

    /// The P4xos leader program's capacity claim: stage-hungry (sequence
    /// and instance bookkeeping), tiny state.
    pub fn pax_demand() -> ProgramResources {
        ProgramResources {
            stages: 6,
            sram_bytes: 4 << 20,
            parse_depth_bytes: 64,
        }
    }

    /// The canonical three-tenant day over `period`: KVS peaks at ~0.29
    /// of the day, Paxos at ~0.42 (overlapping the KVS busy window — the
    /// ToR-A contention), DNS at ~0.63 (overlapping the Paxos tail — the
    /// ToR-B co-residence).
    pub fn contended_profiles(period: Nanos) -> [RateProfile; 3] {
        let day = |valley, peak, phase: f64| {
            RateProfile::diurnal(valley, peak, period, period.mul_f64(phase), 3, 64)
        };
        [
            day(2_000.0, 120_000.0, 3.0 / 14.0),
            day(2_000.0, 80_000.0, 61.0 / 70.0),
            day(500.0, 10_000.0, 0.08),
        ]
    }

    /// Builds the rig: all three tenants preloaded and idling in
    /// software, both FPGA leaders parked.
    pub fn new(seed: u64, keys: u64, names: u64, profiles: [RateProfile; 3]) -> Self {
        let mut sim = Simulator::new(seed);
        let rate = |app: usize| profiles[app].rate_at(Nanos::ZERO);
        let (home_a, home_b) = ([Self::TOR_A, Self::TOR_B], [Self::TOR_B, Self::TOR_A]);
        let client = kvs_client(rate(Self::KVS_APP), mostly_gets(keys));
        let kvs = Chain::kvs(&mut sim, client, keys, 64, vec![lake(), lake()], &home_a);
        let client = dns_client(names, rate(Self::DNS_APP));
        let dns = Chain::dns(&mut sim, client, Zone::synthetic(names), false, &home_b);
        let client = PaxosClient::open_loop(
            100,
            pax_leader_vip(),
            rate(Self::PAX_APP),
            Self::PAX_TIMEOUT,
        );
        let pax = PaxosSlice::wire(&mut sim, &home_a, vec![client]);
        MultiTorRig {
            sim,
            kvs_client: kvs.client,
            dns_client: dns.client,
            pax_client: pax.clients[0],
            pax_acceptors: pax.acceptors.clone(),
            profiles,
            row_log: RowLog::Full,
            slices: [Slice::Kvs(kvs), Slice::Dns(dns), Slice::Paxos(pax)],
        }
    }

    /// The three tenants' fleet descriptors, calibrated the same way as
    /// [`SharedDeviceRig::fleet_apps`] over two partitions each. The
    /// Paxos slice is metered over its three leader platforms.
    pub fn fleet_apps() -> Vec<FleetApp> {
        vec![
            Slice::kvs_app(Self::TOR_A, 2),
            Slice::dns_app(Self::TOR_B, 2),
            Slice::paxos_app(Self::TOR_A, 2),
        ]
    }

    /// A fleet controller over the two-ToR fabric with the standard
    /// hysteresis settings.
    pub fn fleet_controller(interval: Nanos) -> FleetController {
        FleetController::new(
            FleetControllerConfig::standard(interval),
            Self::fabric(),
            Self::fleet_apps(),
        )
    }

    /// A controller pinned to a fixed placement vector (a static
    /// baseline).
    pub fn pinned_controller(interval: Nanos, placements: [Placement; 3]) -> FleetController {
        pinned(
            FleetControllerConfig::standard(interval),
            Self::fabric(),
            Self::fleet_apps(),
            &placements,
        )
    }

    /// Runs the experiment until `until` under `controller`, driving all
    /// three tenants' diurnal schedules and recording per-app timelines
    /// plus total metered energy.
    pub fn run(&mut self, controller: &mut FleetController, until: Nanos) -> FleetTimeline {
        let (sim, slices) = (&mut self.sim, &self.slices);
        run_slices(sim, slices, &self.profiles, self.row_log, controller, until)
    }

    /// Total commands acknowledged by the Paxos client.
    pub fn pax_acked(&self) -> u64 {
        self.sim
            .node_ref::<PaxosClient>(self.pax_client)
            .stats()
            .acked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three tenants' calibrated benefit curves have the shape the
    /// scheduler depends on: negative in the valley (software wins when
    /// idle), clearly positive at each tenant's peak, and the KVS — the
    /// anchor tenant of ToR A — out-scores the Paxos program at their
    /// overlapping peaks so the smaller program is the one that spills.
    #[test]
    fn multi_tor_benefit_calibration() {
        let ctl = MultiTorRig::fleet_controller(Nanos::from_millis(150));
        let (kvs, dns, pax) = (
            MultiTorRig::KVS_APP,
            MultiTorRig::DNS_APP,
            MultiTorRig::PAX_APP,
        );
        for (app, valley, peak) in [
            (kvs, 2_000.0, 120_000.0),
            (dns, 2_000.0, 80_000.0),
            (pax, 500.0, 10_000.0),
        ] {
            let b_lo = ctl.price(app, DeviceId::LOCAL, valley).raw_w;
            let b_hi = ctl.price(app, DeviceId::LOCAL, peak).raw_w;
            println!("app {app}: benefit({valley}) = {b_lo:.2} W, benefit({peak}) = {b_hi:.2} W");
            assert!(b_lo < 0.0, "app {app} profitable at valley: {b_lo:.2} W");
            assert!(b_hi > 2.0, "app {app} not profitable at peak: {b_hi:.2} W");
        }
        let kvs_score = ctl.price(kvs, MultiTorRig::TOR_A, 110_000.0).score;
        let pax_score = ctl.price(pax, MultiTorRig::TOR_A, 10_000.0).score;
        println!("scores at overlap: kvs {kvs_score:.2}, pax {pax_score:.2}");
        assert!(
            kvs_score * 1.25 > pax_score,
            "paxos would preempt the kvs incumbent: {kvs_score:.2} vs {pax_score:.2}"
        );
    }

    /// Every slice kind's §8 analysis, bit for bit as recorded from
    /// `SharedDeviceRig::fleet_apps()` (one partition) and
    /// `MultiTorRig::fleet_apps()` (two) before the slices existed:
    /// `[software, network] × [idle_w, sleep_w, active_w, peak_rate_pps]`.
    #[test]
    fn slice_analyses_match_the_recorded_rig_calibrations() {
        #[rustfmt::skip]
        let recorded: [(FleetApp, [u64; 8]); 5] = [
            (Slice::kvs_app(DeviceId::LOCAL, 1), [
                0x404a1d70a3d70a3d, 0x0, 0x4053bccccccccccc, 0x41086a0000000000,
                0x404d59999999999a, 0x0, 0x404e59999999999a, 0x4168cba800000000,
            ]),
            (Slice::dns_app(DeviceId::LOCAL, 1), [
                0x40474ccccccccccd, 0x0, 0x404e61205bc01a37, 0x41024f8000000000,
                0x4047c00000000000, 0x0, 0x4048000000000000, 0x412e848000000000,
            ]),
            (Slice::kvs_app(MultiTorRig::TOR_A, 2), [
                0x4052bd70a3d70a3d, 0x0, 0x40596b851eb851eb, 0x41086a0000000000,
                0x40545b851eb851eb, 0x0, 0x4054db851eb851eb, 0x4168cba800000000,
            ]),
            (Slice::dns_app(MultiTorRig::TOR_B, 2), [
                0x404fd9999999999a, 0x0, 0x405376f694467382, 0x41024f8000000000,
                0x4050266666666666, 0x0, 0x4050466666666666, 0x412e848000000000,
            ]),
            (Slice::paxos_app(MultiTorRig::TOR_A, 2), [
                0x4051466666666666, 0x0, 0x4054066666666666, 0x40d3880000000000,
                0x4051800000000000, 0x0, 0x4051cccccccccccd, 0x416312d000000000,
            ]),
        ];
        for (app, bits) in recorded {
            let (s, n) = (app.analysis.software, app.analysis.network);
            let got = [s.idle_w, s.sleep_w, s.active_w, s.peak_rate_pps]
                .into_iter()
                .chain([n.idle_w, n.sleep_w, n.active_w, n.peak_rate_pps])
                .map(f64::to_bits);
            assert!(got.eq(bits), "{} at {}", app.name, app.home);
        }
    }
}
