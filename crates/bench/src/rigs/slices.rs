//! The three application slices every packet-level rig is assembled from.
//!
//! The paper evaluates three applications — KVS/LaKe, DNS/Emu and
//! Paxos/P4xos — so a rig is a simulator plus one [`Slice`] per tenant,
//! and everything a rig needs to know about a tenant is written here
//! once: how its nodes are wired, which §8 analysis its device powers
//! imply, how one sampling interval is observed and how a placement is
//! executed. The enum is closed on purpose: no rig adds a fourth kind.
//!
//! `NodeId`s, link ids and the simulator's loss draws follow the order
//! of `add_node` / `connect_duplex` calls, so the order inside each
//! `wire` is part of every rig's recorded behaviour (the wire-frame and
//! schedule goldens fail on the first slip).

use inc_dns::{DnsClient, DnsServer, DnsServerConfig, EmuDevice, Zone};
use inc_hw::{
    CardShell, DeviceId, Placement, ProgramResources, ServerShell, TierCost, HOST_DMA_PORT,
};
use inc_kvs::{
    expected_value, key_name, KvsClient, LakeCacheConfig, LakeDevice, MemcachedConfig,
    MemcachedServer,
};
use inc_net::{Endpoint, L2Switch, Match, Packet};
use inc_ondemand::{AppObservation, FleetApp, FleetSample, HostSample, PlacementAnalysis};
use inc_paxos::{
    Acceptor, AddressBook, HostConfig, Leader, Learner, PaxosClient, PaxosNode, Platform,
    RoleEngine, PAXOS_ACCEPTOR_PORT, PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
use inc_power::{calib, EnergyParams};
use inc_sim::{Histogram, LatencyWindow, LinkSpec, Nanos, Node, NodeId, PortId, Simulator};
use std::cell::Cell;
use std::ops::{Deref, DerefMut};

use super::{MultiTorRig, SharedDeviceRig};

/// Rates at which the linearised software power fits are anchored.
const KVS_FIT_PPS: f64 = 200_000.0;
const DNS_FIT_PPS: f64 = 150_000.0;
const PAX_FIT_PPS: f64 = 20_000.0;

const N_ACCEPTORS: usize = 3;

/// Messages the software leader handles per client command: the request
/// itself plus one 2b instance-feedback from each acceptor.
const PAX_LEADER_MSGS_PER_CMD: f64 = 1.0 + N_ACCEPTORS as f64;

/// The virtual leader address every Paxos client sends to (§9.2).
pub(crate) fn pax_leader_vip() -> Endpoint {
    Endpoint::host(99, PAXOS_LEADER_PORT)
}

/// The link between two partitions of one tenant (and the extra latency
/// in front of a remote FPGA leader): one intra-pod hop, the detour a
/// remote placement physically pays on every request and response.
fn detour() -> Nanos {
    TierCost::standard_intra_pod().extra_latency
}

/// One tenant's nodes inside a rig's simulator.
pub(crate) enum Slice {
    /// memcached behind a chain of LaKe partitions.
    Kvs(Chain),
    /// NSD behind a chain of Emu partitions.
    Dns(Chain),
    /// The §9.2 virtual-leader Paxos deployment.
    Paxos(PaxosSlice),
}

/// A bump-in-the-wire tenant: client → partition → … → server. Each
/// partition is the tenant's share of one fabric device, home first; the
/// chain also routes software-mode traffic through every parked
/// partition, which adds the same constant to every configuration.
pub(crate) struct Chain {
    pub(crate) client: NodeId,
    /// Device partitions, client side (home) first.
    pub(crate) devices: Vec<NodeId>,
    pub(crate) server: NodeId,
    /// The fabric device each partition belongs to.
    sites: Vec<DeviceId>,
    /// What the slice's power meter sums, in summation order.
    metered: Vec<NodeId>,
}

impl Chain {
    fn wire<S: Node<Packet>, D: Node<Packet>, C: Node<Packet>>(
        sim: &mut Simulator<Packet>,
        server: S,
        devices: Vec<D>,
        client: C,
        sites: &[DeviceId],
    ) -> Chain {
        assert_eq!(devices.len(), sites.len(), "one partition per site");
        let server = sim.add_node(server);
        let devices: Vec<NodeId> = devices.into_iter().map(|d| sim.add_node(d)).collect();
        let client = sim.add_node(client);
        let access = LinkSpec::ten_gbe(Nanos::from_nanos(500));
        sim.connect_duplex(client, PortId::P0, devices[0], PortId::P0, access);
        for pair in devices.windows(2) {
            let inter = LinkSpec::ten_gbe(detour());
            sim.connect_duplex(pair[0], HOST_DMA_PORT, pair[1], PortId::P0, inter);
        }
        let last = devices[devices.len() - 1];
        sim.connect_duplex(last, HOST_DMA_PORT, server, PortId::P0, LinkSpec::ideal());
        let metered = devices.iter().copied().chain([server]).collect();
        Chain {
            client,
            devices,
            server,
            sites: sites.to_vec(),
            metered,
        }
    }

    /// Wires a KVS tenant: memcached preloaded with `keys` keys of
    /// `value_len` bytes behind one LaKe partition per site.
    pub(crate) fn kvs(
        sim: &mut Simulator<Packet>,
        client: KvsClient,
        keys: u64,
        value_len: usize,
        devices: Vec<LakeDevice>,
        sites: &[DeviceId],
    ) -> Chain {
        let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
        server.preload((0..keys).map(|i| {
            let k = key_name(i);
            let v = expected_value(&k, value_len);
            (k, v)
        }));
        Chain::wire(sim, server, devices, client, sites)
    }

    /// Wires a DNS tenant: NSD and one Emu partition per site, all
    /// serving `zone`.
    pub(crate) fn dns(
        sim: &mut Simulator<Packet>,
        client: DnsClient,
        zone: Zone,
        hardware: bool,
        sites: &[DeviceId],
    ) -> Chain {
        let server = DnsServer::new(DnsServerConfig::nsd_behind_emu(), zone.clone());
        let emu = |zone| match hardware {
            true => EmuDevice::new(zone).started_in_hardware(),
            false => EmuDevice::new(zone),
        };
        let mut devices: Vec<EmuDevice> = sites[1..].iter().map(|_| emu(zone.clone())).collect();
        devices.push(emu(zone));
        Chain::wire(sim, server, devices, client, sites)
    }

    /// [`Slice::observe`] for a chain of client `C`, server `S` and
    /// partitions `D`: the three share one client window, one server shell
    /// and one card shell whatever the application.
    fn observe<C, S, D>(
        &self,
        sim: &mut Simulator<Packet>,
        interval: Nanos,
        offered_pps: f64,
    ) -> AppObservation
    where
        C: Node<Packet> + DerefMut<Target = LatencyWindow>,
        S: Node<Packet> + Deref<Target = ServerShell<Packet>>,
        D: Node<Packet> + DerefMut<Target = CardShell>,
    {
        let now = sim.now();
        let (done, lat) = sim.node_mut::<C>(self.client).take_window();
        let server = sim.node_ref::<S>(self.server);
        let host = HostSample {
            rapl_w: Node::power_w(server, now),
            app_cpu_util: server.app_utilization(),
            hw_app_rate: match self.devices[..] {
                [d] => sim.node_mut::<D>(d).measured_rate(now),
                _ => done as f64 / interval.as_secs_f64(),
            },
        };
        let power_w = sim.instant_power(&self.metered);
        observation(host, offered_pps, done, &lat, power_w)
    }

    /// [`Slice::apply`] for a chain: `place` moves each partition to its
    /// share of placement `p`.
    fn apply(&self, p: Placement, mut place: impl FnMut(NodeId, Placement)) {
        for (&d, &site) in self.devices.iter().zip(&self.sites) {
            let share = if p == Placement::Device(site) {
                Placement::HARDWARE
            } else {
                Placement::Software
            };
            place(d, share);
        }
    }
}

/// The §9.2 virtual-leader machinery: a steerable switch in front of one
/// software leader and one P4xos FPGA leader per site (each remote one
/// attached through the longer inter-ToR path), three acceptors, a
/// learner and the clients.
pub(crate) struct PaxosSlice {
    pub(crate) switch: NodeId,
    pub(crate) clients: Vec<NodeId>,
    /// Every leader with its switch port: the software leader, then the
    /// FPGA leader of each site (home first).
    pub(crate) leaders: Vec<(NodeId, PortId)>,
    pub(crate) learner: NodeId,
    sites: Vec<DeviceId>,
    /// The leader platforms, which is what the slice meters: acceptors
    /// and learner draw the same power under every placement, so they
    /// cancel out of every comparison and are left out of both the meter
    /// and the analysis.
    metered: Vec<NodeId>,
    /// Next election round: every leader shift must elect with a strictly
    /// higher round (§9.2). A `Cell` so the run loop's observe and apply
    /// closures can share the slice.
    round: Cell<u16>,
}

impl PaxosSlice {
    fn book(own: Endpoint) -> AddressBook {
        AddressBook {
            own,
            leader: pax_leader_vip(),
            acceptors: (0..N_ACCEPTORS as u32)
                .map(|i| Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT))
                .collect(),
            learners: vec![Endpoint::host(30, PAXOS_LEARNER_PORT)],
        }
    }

    /// Wires the deployment: the software leader elected and steered to,
    /// every FPGA leader idle and parked (§9.2).
    pub(crate) fn wire(
        sim: &mut Simulator<Packet>,
        sites: &[DeviceId],
        clients: Vec<PaxosClient>,
    ) -> PaxosSlice {
        let n_ports = 4 + clients.len() as u16 + N_ACCEPTORS as u16;
        let switch = sim.add_node(L2Switch::new(n_ports));
        let mut next_port = 0u16;
        let mut attach = |sim: &mut Simulator<Packet>, node: NodeId, extra: Nanos| -> PortId {
            let p = PortId(next_port);
            next_port += 1;
            let link = LinkSpec::ten_gbe(Nanos::from_micros(1) + extra);
            sim.connect_duplex(node, PortId::P0, switch, p, link);
            p
        };
        let sw_leader = sim.add_node(PaxosNode::new(
            RoleEngine::Leader(Leader::bootstrap(1, N_ACCEPTORS)),
            Platform::host(HostConfig::libpaxos_leader()),
            Self::book(Endpoint::host(20, PAXOS_LEADER_PORT)),
        ));
        let mut leaders = vec![(sw_leader, attach(sim, sw_leader, Nanos::ZERO))];
        for i in 0..sites.len() as u32 {
            let n = sim.add_node(PaxosNode::new(
                RoleEngine::Idle,
                Platform::fpga(),
                Self::book(Endpoint::host(21 + i, PAXOS_LEADER_PORT)),
            ));
            let extra = if i == 0 { Nanos::ZERO } else { detour() };
            leaders.push((n, attach(sim, n, extra)));
        }
        for i in 0..N_ACCEPTORS as u32 {
            let n = sim.add_node(PaxosNode::new(
                RoleEngine::Acceptor(Acceptor::new(i as u8)),
                Platform::host(HostConfig::libpaxos_acceptor()),
                Self::book(Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT)),
            ));
            attach(sim, n, Nanos::ZERO);
        }
        let learner = sim.add_node(PaxosNode::new(
            RoleEngine::Learner(Learner::new(N_ACCEPTORS)),
            Platform::host(HostConfig::libpaxos_learner()),
            Self::book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
        ));
        attach(sim, learner, Nanos::ZERO);
        let clients: Vec<NodeId> = clients
            .into_iter()
            .map(|c| {
                let n = sim.add_node(c);
                attach(sim, n, Nanos::ZERO);
                n
            })
            .collect();
        sim.node_mut::<L2Switch>(switch)
            .steer(Match::udp_dst(PAXOS_LEADER_PORT), leaders[0].1);
        for &(n, _) in &leaders[1..] {
            sim.node_mut::<PaxosNode>(n).set_parked(true);
        }
        PaxosSlice {
            switch,
            clients,
            metered: leaders.iter().map(|&(n, _)| n).collect(),
            leaders,
            learner,
            sites: sites.to_vec(),
            round: Cell::new(2),
        }
    }

    /// The next election round (strictly increasing).
    pub(crate) fn next_round(&self) -> u16 {
        let round = self.round.get();
        self.round.set(round + 1);
        round
    }

    /// [`Slice::observe`] for the Paxos kind (Figure 7 samples its
    /// closed-loop clients through it directly): the clients' windows
    /// merged, the software leader's platform as the host.
    pub(crate) fn observe(
        &self,
        sim: &mut Simulator<Packet>,
        interval: Nanos,
        offered_pps: f64,
    ) -> AppObservation {
        let (mut done, mut lat) = sim.node_mut::<PaxosClient>(self.clients[0]).take_window();
        for &c in &self.clients[1..] {
            let (n, h) = sim.node_mut::<PaxosClient>(c).take_window();
            done += n;
            lat.merge(&h);
        }
        let host = HostSample {
            rapl_w: Node::power_w(sim.node_ref::<PaxosNode>(self.leaders[0].0), sim.now()),
            app_cpu_util: 0.0,
            hw_app_rate: done as f64 / interval.as_secs_f64(),
        };
        let power_w = sim.instant_power(&self.metered);
        observation(host, offered_pps, done, &lat, power_w)
    }

    /// The fleet executor's leader shift: quiesce and park every other
    /// leader, unpark and re-steer to the target, elect it with a higher
    /// round — all at one instant (Figure 7's non-atomic 1 ms rule
    /// replacement is `PaxosRig::shift_leader`, a different procedure on
    /// purpose).
    fn apply(&self, sim: &mut Simulator<Packet>, p: Placement) {
        let (to_node, to_port) = match p {
            Placement::Software => self.leaders[0],
            Placement::Device(d) => {
                let i = self.sites.iter().position(|&s| s == d);
                self.leaders[1 + i.unwrap_or_else(|| panic!("paxos has no leader on {d}"))]
            }
        };
        for &(n, port) in self.leaders.iter().filter(|&&(n, _)| n != to_node) {
            let node = sim.node_mut::<PaxosNode>(n);
            node.deactivate();
            node.set_parked(true);
            sim.node_mut::<L2Switch>(self.switch).unsteer_port(port);
        }
        sim.node_mut::<PaxosNode>(to_node).set_parked(false);
        sim.node_mut::<L2Switch>(self.switch)
            .steer(Match::udp_dst(PAXOS_LEADER_PORT), to_port);
        let round = self.next_round();
        sim.with_node_ctx::<PaxosNode, _>(to_node, |n, ctx| n.activate_leader(ctx, round));
    }
}

/// What a slice kind feeds its §8 analysis: idle terms are the metered
/// parked/unparked powers of the very device models the simulation runs,
/// the software dynamic term is the host CPU model linearised at a fit
/// anchor.
struct Powers {
    host_idle_w: f64,
    parked_w: f64,
    active_w: f64,
    sw_dyn_at_fit_w: f64,
    fit_pps: f64,
    hw_dyn_max_w: f64,
    hw_peak_pps: f64,
}

/// The fleet descriptor of a tenant with `k` partitions. The devices are
/// present in both placements (the card is the host's NIC), so software
/// placement pays all `k` parked while hardware placement pays `k - 1`
/// parked plus the resident one unparked — exactly as metered.
fn fleet_app(
    name: &str,
    demand: ProgramResources,
    home: DeviceId,
    k: usize,
    p: Powers,
) -> FleetApp {
    let sw_idle = p.host_idle_w + k as f64 * p.parked_w;
    let hw_idle = p.host_idle_w + (k - 1) as f64 * p.parked_w + p.active_w;
    FleetApp {
        name: name.into(),
        demand,
        home,
        weight: 1.0,
        analysis: PlacementAnalysis {
            software: EnergyParams {
                idle_w: sw_idle,
                sleep_w: 0.0,
                active_w: sw_idle + p.sw_dyn_at_fit_w,
                peak_rate_pps: p.fit_pps,
            },
            network: EnergyParams {
                idle_w: hw_idle,
                sleep_w: 0.0,
                active_w: hw_idle + p.hw_dyn_max_w,
                peak_rate_pps: p.hw_peak_pps,
            },
        },
    }
}

fn observation(
    host: HostSample,
    offered_pps: f64,
    completed: u64,
    latency: &Histogram,
    power_w: f64,
) -> AppObservation {
    AppObservation {
        sample: FleetSample { host, offered_pps },
        completed,
        latency_p50_ns: latency.quantile(0.5),
        power_w,
    }
}

impl Slice {
    /// The KVS tenant's fleet descriptor over `k` LaKe partitions.
    pub(crate) fn kvs_app(home: DeviceId, k: usize) -> FleetApp {
        let cfg = LakeCacheConfig::tiny(8, 32);
        let mc = MemcachedConfig::i7_behind_lake();
        let powers = Powers {
            host_idle_w: calib::I7_PLATFORM_IDLE_W,
            parked_w: LakeDevice::new(cfg, 5).power_w(Nanos::ZERO),
            active_w: LakeDevice::new(cfg, 5)
                .started_in_hardware()
                .power_w(Nanos::ZERO),
            sw_dyn_at_fit_w: mc.cpu.dynamic_w(KVS_FIT_PPS * mc.service.as_secs_f64()),
            fit_pps: KVS_FIT_PPS,
            hw_dyn_max_w: calib::LAKE_DYNAMIC_MAX_W,
            hw_peak_pps: calib::LAKE_LINE_RATE_PPS,
        };
        fleet_app("kvs", SharedDeviceRig::kvs_demand(), home, k, powers)
    }

    /// The DNS tenant's fleet descriptor over `k` Emu partitions.
    pub(crate) fn dns_app(home: DeviceId, k: usize) -> FleetApp {
        let nsd = DnsServerConfig::nsd_behind_emu();
        let powers = Powers {
            host_idle_w: calib::I7_PLATFORM_IDLE_W,
            parked_w: EmuDevice::new(Zone::synthetic(1)).power_w(Nanos::ZERO),
            active_w: EmuDevice::new(Zone::synthetic(1))
                .started_in_hardware()
                .power_w(Nanos::ZERO),
            sw_dyn_at_fit_w: nsd.cpu.dynamic_w(DNS_FIT_PPS * nsd.service.as_secs_f64()),
            fit_pps: DNS_FIT_PPS,
            hw_dyn_max_w: calib::EMU_DNS_DYNAMIC_MAX_W,
            hw_peak_pps: calib::EMU_DNS_PEAK_RPS,
        };
        fleet_app("dns", SharedDeviceRig::dns_demand(), home, k, powers)
    }

    /// The Paxos tenant's fleet descriptor over `k` FPGA leaders; the
    /// "host" term is the idle libpaxos leader platform.
    pub(crate) fn paxos_app(home: DeviceId, k: usize) -> FleetApp {
        let book = PaxosSlice::book(Endpoint::host(21, PAXOS_LEADER_PORT));
        let mut fpga = PaxosNode::new(RoleEngine::Idle, Platform::fpga(), book.clone());
        let active_w = Node::power_w(&fpga, Nanos::ZERO);
        fpga.set_parked(true);
        let lp = HostConfig::libpaxos_leader();
        let host = PaxosNode::new(RoleEngine::Idle, Platform::host(lp), book);
        let powers = Powers {
            host_idle_w: Node::power_w(&host, Nanos::ZERO),
            parked_w: Node::power_w(&fpga, Nanos::ZERO),
            active_w,
            sw_dyn_at_fit_w: lp
                .cpu
                .dynamic_w(PAX_FIT_PPS * PAX_LEADER_MSGS_PER_CMD * lp.service.as_secs_f64()),
            fit_pps: PAX_FIT_PPS,
            hw_dyn_max_w: calib::P4XOS_DYNAMIC_MAX_W,
            hw_peak_pps: calib::P4XOS_FPGA_PEAK_MPS,
        };
        fleet_app("paxos", MultiTorRig::pax_demand(), home, k, powers)
    }

    /// Sets the offered rate of the slice's open-loop client (a Paxos
    /// slice under a fleet controller has exactly one).
    pub(crate) fn set_rate(&self, sim: &mut Simulator<Packet>, rate_pps: f64) {
        match self {
            Slice::Kvs(c) => sim.node_mut::<KvsClient>(c.client).set_rate(rate_pps),
            Slice::Dns(c) => sim.node_mut::<DnsClient>(c.client).set_rate(rate_pps),
            Slice::Paxos(p) => sim.node_mut::<PaxosClient>(p.clients[0]).set_rate(rate_pps),
        }
    }

    /// Drains the slice's measurement window: what completed over the
    /// last `interval`, the host and network controller inputs, and the
    /// metered power of the slice. `offered_pps` is the host-measured
    /// arrival rate over the interval — completions would understate the
    /// offered load whenever the software server saturates, exactly when
    /// offloading matters most.
    ///
    /// The network-measured rate (§9.1 feedback) of a single partition is
    /// its own in-dataplane estimator, which is what a host controller
    /// reads back. A chain (and Paxos) reports the served rate over the
    /// interval instead: every completion passed through the tenant's
    /// devices, and the per-interval count reacts within one sample,
    /// where the sliding-window estimators average over a full second —
    /// fine for the in-dataplane threshold controller, but it would make
    /// a fleet compare a stale incumbent against fresh challengers.
    pub(crate) fn observe(
        &self,
        sim: &mut Simulator<Packet>,
        interval: Nanos,
        offered_pps: f64,
    ) -> AppObservation {
        match self {
            Slice::Kvs(c) => {
                c.observe::<KvsClient, MemcachedServer, LakeDevice>(sim, interval, offered_pps)
            }
            Slice::Dns(c) => {
                c.observe::<DnsClient, DnsServer, EmuDevice>(sim, interval, offered_pps)
            }
            Slice::Paxos(p) => p.observe(sim, interval, offered_pps),
        }
    }

    /// Executes one placement decision on the simulated hardware at `t`:
    /// partition parking for the bump-in-the-wire tenants, virtual-leader
    /// re-steering for Paxos.
    pub(crate) fn apply(&self, sim: &mut Simulator<Packet>, t: Nanos, p: Placement) {
        match self {
            Slice::Kvs(c) => c.apply(p, |d, q| {
                sim.node_mut::<LakeDevice>(d).apply_placement(t, q)
            }),
            Slice::Dns(c) => c.apply(p, |d, q| sim.node_mut::<EmuDevice>(d).apply_placement(t, q)),
            Slice::Paxos(s) => s.apply(sim, p),
        }
    }
}
