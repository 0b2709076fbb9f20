//! The platform the packet applications share, driven from outside: both
//! NetFPGA cards route by one table (the card shell's), and no offered
//! rate hangs or panics a load generator (the open-loop pacer's).

use std::ops::Deref;

use inc::dns::{DnsClient, EmuDevice, Name, Query, Zone, DNS_PORT, TYPE_A};
use inc::hw::{
    CardShell, CardStats, Placement, HOST_DMA_PORT, PCIE_DMA_ONE_WAY, SHELL_PIPELINE_LATENCY,
};
use inc::kvs::{
    FrameHeader, KvsClient, LakeCacheConfig, LakeDevice, RequestView, UniformGen, MEMCACHED_PORT,
};
use inc::net::{build_udp, build_udp_with, Endpoint, Packet};
use inc::paxos::{PaxosClient, PAXOS_LEADER_PORT};
use inc::sim::{impl_node_any, Ctx, LinkSpec, Nanos, Node, NodeId, PortId, Simulator};

/// Records what arrives and when.
#[derive(Default)]
struct Sink {
    got: Vec<(Nanos, Packet)>,
}

impl Node<Packet> for Sink {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, msg: Packet) {
        self.got.push((ctx.now(), msg));
    }
    impl_node_any!();
}

/// A front-panel port no application uses.
const SPARE: PortId = PortId(1);

/// The ports a card is wired on, one sink each.
const PORTS: [PortId; 3] = [PortId::P0, HOST_DMA_PORT, SPARE];

/// A card between three sinks.
struct Bench {
    sim: Simulator<Packet>,
    card: NodeId,
    sinks: [NodeId; 3],
}

impl Bench {
    fn new<D: Node<Packet>>(card: D) -> Self {
        let mut sim = Simulator::new(1);
        let card = sim.add_node(card);
        let sinks = PORTS.map(|port| {
            let sink = sim.add_node(Sink::default());
            sim.connect_duplex(card, port, sink, PortId::P0, LinkSpec::ideal());
            sink
        });
        Bench { sim, card, sinks }
    }

    /// Delivers `pkts` to the card on `port` at one instant and lets them
    /// drain: what left, per egress port, after how long.
    fn burst(&mut self, port: PortId, pkts: &[Packet]) -> Vec<(PortId, Nanos)> {
        let sent = self.sim.now() + Nanos::from_micros(1);
        for pkt in pkts {
            self.sim
                .inject(self.card, port, pkt.clone(), Nanos::from_micros(1));
        }
        self.sim.run_until(sent + Nanos::from_millis(5));
        let mut out = Vec::new();
        for (&egress, &sink) in PORTS.iter().zip(&self.sinks) {
            let got = std::mem::take(&mut self.sim.node_mut::<Sink>(sink).got);
            out.extend(got.into_iter().map(|(t, _)| (egress, t - sent)));
        }
        out
    }

    /// Where one frame leaves and after how long.
    fn route(&mut self, port: PortId, pkt: &Packet) -> (PortId, Nanos) {
        match self.burst(port, std::slice::from_ref(pkt))[..] {
            [one] => one,
            ref other => panic!("one frame in, {other:?} out"),
        }
    }

    fn card<D: Node<Packet>>(&self) -> &D {
        self.sim.node_ref::<D>(self.card)
    }
}

/// Drives a card through the shell's routing table. `hit` is a request
/// the card answers itself once offloaded and warm; `punt` is one it hands
/// to the host even then (LaKe: a write-through SET, which also warms the
/// key `hit` asks for; Emu: a name beyond its parser). Returns the
/// counters before the saturation burst.
fn one_routing_table<D: Node<Packet> + Deref<Target = CardShell>>(
    card: D,
    hit: Packet,
    punt: Packet,
    place: impl Fn(&mut D, Nanos, Placement),
) -> CardStats {
    let mut bench = Bench::new(card);
    let shell = SHELL_PIPELINE_LATENCY;
    let noise = build_udp(Endpoint::host(7, 4_000), Endpoint::host(8, 9_999), b"noise");
    // Not application traffic: a NIC in every direction, after the shell.
    assert_eq!(bench.route(PortId::P0, &noise), (HOST_DMA_PORT, shell));
    assert_eq!(bench.route(HOST_DMA_PORT, &noise), (PortId::P0, shell));
    assert_eq!(bench.route(SPARE, &noise), (HOST_DMA_PORT, shell));
    // Application traffic in software placement crosses PCIe to the host.
    assert_eq!(
        bench.route(PortId::P0, &hit),
        (HOST_DMA_PORT, shell + PCIE_DMA_ONE_WAY)
    );
    let now = bench.sim.now();
    place(
        bench.sim.node_mut::<D>(bench.card),
        now,
        Placement::HARDWARE,
    );
    let (to, after) = bench.route(PortId::P0, &punt);
    assert_eq!(to, HOST_DMA_PORT);
    assert!(after >= shell + PCIE_DMA_ONE_WAY, "{after}");
    // Offloaded and warm: answered on P0 by the card itself.
    let (to, after) = bench.route(PortId::P0, &hit);
    assert_eq!(to, PortId::P0);
    assert!(after > shell, "{after}");
    assert_eq!(bench.card::<D>().hw_latency.count(), 1);
    let before = bench.card::<D>().stats();
    // A burst beyond the core's backlog bound: every request is either
    // answered on P0 or counted as dropped.
    const BURST: u64 = 2_000;
    let out = bench.burst(PortId::P0, &vec![hit; BURST as usize]);
    let after = bench.card::<D>().stats();
    let served = after.served_hw - before.served_hw;
    let dropped = after.dropped - before.dropped;
    assert!(dropped > 0, "the station never saturated");
    assert_eq!(served + dropped, BURST);
    assert_eq!(out.len() as u64, served);
    assert!(out.iter().all(|&(to, _)| to == PortId::P0));
    before
}

fn kvs_frame(request: RequestView<'_>, id: u16) -> Packet {
    let header = FrameHeader {
        request_id: id,
        seq: 0,
        total: 1,
    };
    let (client, server) = (Endpoint::host(1, 40_000), Endpoint::host(2, MEMCACHED_PORT));
    build_udp_with(client, server, request.encoded_len(), |b| {
        request.encode_into(header, u32::from(id), b)
    })
}

fn dns_frame(name: &str) -> Packet {
    let query = Query {
        id: 1,
        name: Name::parse(name).unwrap(),
        qtype: TYPE_A,
        recursion_desired: false,
    };
    let (client, server) = (Endpoint::host(3, 41_000), Endpoint::host(4, DNS_PORT));
    build_udp_with(client, server, query.encoded_len(), |b| {
        query.encode_into(b)
    })
}

#[test]
fn both_cards_route_by_one_table() {
    let lake = one_routing_table(
        LakeDevice::new(LakeCacheConfig::tiny(64, 256), 5),
        kvs_frame(RequestView::Get { key: b"k" }, 1),
        kvs_frame(
            RequestView::Set {
                key: b"k",
                value: b"v",
                flags: 0,
                expiry: 0,
            },
            2,
        ),
        LakeDevice::apply_placement,
    );
    let deep = format!("{}.{}.example.com", "a".repeat(60), "b".repeat(60));
    let emu = one_routing_table(
        EmuDevice::new(Zone::synthetic(16)),
        dns_frame("host-1.example.com"),
        dns_frame(&deep),
        EmuDevice::apply_placement,
    );
    let expected = CardStats {
        served_hw: 1,
        to_host: 2,
        passthrough: 3,
        dropped: 0,
        shifts: 1,
    };
    assert_eq!(lake, expected);
    assert_eq!(emu, expected);
}

/// Offered rates no load generator may hang or panic on: one whose gap
/// is 0 ns, one whose gap rounds to 0 ns, and one whose gap overflows
/// `Nanos`.
const HOSTILE_RATES: [f64; 3] = [f64::INFINITY, 1e12, 1e-12];

/// Runs `client`, offering `rate`, against a sink: it must
/// return and send a bounded count. A rate that cannot be met is paced at
/// one frame per nanosecond, so the two fast rates run 10 simulated µs
/// (10 000 frames; 10 ms would hold ten million, and their outstanding
/// requests); the slow one runs 10 simulated ms, its idle re-check period,
/// and sends nothing.
fn sends_a_bounded_count<C: Node<Packet>>(rate: f64, client: C) {
    let horizon = if rate > 1.0 {
        Nanos::from_micros(10)
    } else {
        Nanos::from_millis(10)
    };
    let mut sim = Simulator::new(5);
    let sink = sim.add_node(Sink::default());
    let node = sim.add_node(client);
    sim.connect_duplex(node, PortId::P0, sink, PortId::P0, LinkSpec::ideal());
    sim.run_until(horizon);
    let sent = sim.node_ref::<Sink>(sink).got.len() as u64;
    if rate > 1.0 {
        assert!(
            (1..=horizon.as_nanos()).contains(&sent),
            "{sent} frames at {rate} pps"
        );
    } else {
        assert_eq!(sent, 0, "{sent} frames at {rate} pps");
    }
}

#[test]
fn a_kvs_client_survives_hostile_rates() {
    let (src, dst) = (Endpoint::host(1, 40_000), Endpoint::host(2, MEMCACHED_PORT));
    for rate in HOSTILE_RATES {
        let gen = UniformGen {
            keys: 16,
            get_ratio: 1.0,
            value_len: 8,
        };
        sends_a_bounded_count(rate, KvsClient::open_loop(src, dst, rate, Box::new(gen)));
    }
}

#[test]
fn a_dns_client_survives_hostile_rates() {
    let (src, dst) = (Endpoint::host(3, 41_000), Endpoint::host(4, DNS_PORT));
    for rate in HOSTILE_RATES {
        sends_a_bounded_count(rate, DnsClient::new(src, dst, rate, 16));
    }
}

#[test]
fn a_paxos_client_survives_hostile_rates() {
    let leader = Endpoint::host(99, PAXOS_LEADER_PORT);
    for rate in HOSTILE_RATES {
        let client = PaxosClient::open_loop(7, leader, rate, Nanos::from_secs(100));
        sends_a_bounded_count(rate, client);
    }
}
