//! A learning L2 switch with steerable forwarding rules.
//!
//! Beyond normal MAC learning, the switch exposes *steering rules* that
//! override the forwarding decision for matching packets. §9.2 uses
//! exactly this: "the controller modifies switch forwarding rules to send
//! messages to the new leader" during a Paxos leader shift.

use inc_sim::{impl_node_any, Ctx, FixedHashMap, Node, PortId};

use crate::addr::MacAddr;
use crate::classifier::Match;
use crate::packet::{Packet, UdpFrame};

/// A learning Ethernet switch simulation node.
///
/// Ports `0..ports` are expected to be connected by the harness; flooding
/// to an unconnected port is counted by the simulator as unrouted.
#[derive(Debug)]
pub struct L2Switch {
    ports: u16,
    table: FixedHashMap<MacAddr, PortId>,
    steer: Vec<(Match, PortId)>,
    forwarded: u64,
    flooded: u64,
    steered: u64,
}

impl L2Switch {
    /// Creates a switch with `ports` ports (it draws no metered power).
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn new(ports: u16) -> Self {
        assert!(ports > 0, "switch needs ports");
        L2Switch {
            ports,
            table: FixedHashMap::default(),
            steer: Vec::new(),
            forwarded: 0,
            flooded: 0,
            steered: 0,
        }
    }

    /// Installs a steering rule: packets matching `m` egress on `port`,
    /// bypassing MAC lookup. Later rules take precedence (so installing a
    /// replacement does not require removal).
    pub fn steer(&mut self, m: Match, port: PortId) {
        self.steer.push((m, port));
    }

    /// Removes every steering rule that egresses on `port`.
    pub fn unsteer_port(&mut self, port: PortId) {
        self.steer.retain(|&(_, p)| p != port);
    }

    /// Returns (forwarded, flooded, steered) packet counts.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.forwarded, self.flooded, self.steered)
    }

    fn steering_decision(&self, pkt: &Packet) -> Option<PortId> {
        let frame = UdpFrame::parse(pkt).ok()?;
        // Last matching rule wins: newest steering overrides older.
        self.steer
            .iter()
            .rev()
            .find(|(m, _)| matches_frame(m, &frame))
            .map(|&(_, p)| p)
    }
}

fn matches_frame(m: &Match, frame: &UdpFrame<'_>) -> bool {
    if let Some(p) = m.udp_dst_port {
        if frame.udp.dst_port != p {
            return false;
        }
    }
    if let Some(p) = m.udp_src_port {
        if frame.udp.src_port != p {
            return false;
        }
    }
    if let Some(ip) = m.ipv4_dst {
        if frame.ip.dst != ip {
            return false;
        }
    }
    true
}

impl Node<Packet> for L2Switch {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, msg: Packet) {
        // Learn the source.
        if let Ok((eth, _)) = crate::wire::EthernetHeader::decode(&msg.data) {
            if !eth.src.is_multicast() {
                self.table.insert(eth.src, port);
            }
            // Steering overrides normal forwarding.
            if let Some(out) = self.steering_decision(&msg) {
                if out != port {
                    self.steered += 1;
                    ctx.send(out, msg);
                }
                return;
            }
            if !eth.dst.is_multicast() {
                if let Some(&out) = self.table.get(&eth.dst) {
                    if out != port {
                        self.forwarded += 1;
                        ctx.send(out, msg);
                    }
                    return;
                }
            }
            // Unknown unicast or multicast: flood.
            self.flooded += 1;
            for p in 0..self.ports {
                let out = PortId(p);
                if out != port {
                    ctx.send(out, msg.clone());
                }
            }
        }
    }

    fn label(&self) -> String {
        format!("l2-switch({} ports)", self.ports)
    }

    impl_node_any!();
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
mod tests {
    use super::*;
    use crate::packet::{build_udp, Endpoint};
    use inc_sim::{LinkSpec, Nanos, Simulator};

    /// A station that records what it receives and can send on request.
    #[derive(Default)]
    struct Station {
        received: Vec<Packet>,
    }

    impl Node<Packet> for Station {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Packet>, _port: PortId, msg: Packet) {
            self.received.push(msg);
        }
        impl_node_any!();
    }

    fn three_station_net() -> (Simulator<Packet>, inc_sim::NodeId, Vec<inc_sim::NodeId>) {
        let mut sim = Simulator::new(0);
        let sw = sim.add_node(L2Switch::new(3));
        let mut hosts = Vec::new();
        for i in 0..3u16 {
            let h = sim.add_node(Station::default());
            sim.connect_duplex(h, PortId::P0, sw, PortId(i), LinkSpec::ideal());
            hosts.push(h);
        }
        (sim, sw, hosts)
    }

    fn send(sim: &mut Simulator<Packet>, from: inc_sim::NodeId, pkt: Packet) {
        sim.with_node_ctx::<Station, _>(from, |_n, ctx| ctx.send(PortId::P0, pkt));
    }

    #[test]
    fn floods_then_learns() {
        let (mut sim, sw, hosts) = three_station_net();
        sim.run_until(Nanos::from_millis(1));
        let h0 = Endpoint::host(0, 100);
        let h1 = Endpoint::host(1, 100);
        // First packet to unknown MAC floods to hosts 1 and 2.
        send(&mut sim, hosts[0], build_udp(h0, h1, b"a"));
        sim.run_until(Nanos::from_millis(2));
        assert_eq!(sim.node_ref::<Station>(hosts[1]).received.len(), 1);
        assert_eq!(sim.node_ref::<Station>(hosts[2]).received.len(), 1);
        // Reply teaches the switch h1's port; then traffic is unicast.
        send(&mut sim, hosts[1], build_udp(h1, h0, b"b"));
        sim.run_until(Nanos::from_millis(3));
        send(&mut sim, hosts[0], build_udp(h0, h1, b"c"));
        sim.run_until(Nanos::from_millis(4));
        assert_eq!(sim.node_ref::<Station>(hosts[1]).received.len(), 2);
        assert_eq!(sim.node_ref::<Station>(hosts[2]).received.len(), 1);
        // Only "a" flooded; "b" and "c" were unicast after learning.
        let (fwd, flooded, _) = sim.node_ref::<L2Switch>(sw).counters();
        assert_eq!(flooded, 1);
        assert_eq!(fwd, 2);
    }

    #[test]
    fn steering_overrides_mac_table() {
        let (mut sim, sw, hosts) = three_station_net();
        sim.run_until(Nanos::from_millis(1));
        let h0 = Endpoint::host(0, 100);
        let h1 = Endpoint::host(1, 5000);
        // Teach the switch where h1 is.
        send(&mut sim, hosts[1], build_udp(h1, h0, b"hello"));
        sim.run_until(Nanos::from_millis(2));
        // Steer all port-5000 traffic to host 2 instead.
        sim.node_mut::<L2Switch>(sw)
            .steer(Match::udp_dst(5000), PortId(2));
        send(&mut sim, hosts[0], build_udp(h0, h1, b"to-leader"));
        sim.run_until(Nanos::from_millis(3));
        // h2 received the flood of "hello" plus the steered packet.
        let h2_rx = &sim.node_ref::<Station>(hosts[2]).received;
        assert_eq!(h2_rx.len(), 2);
        let steered_pkt = UdpFrame::parse(h2_rx.last().unwrap()).unwrap();
        assert_eq!(steered_pkt.payload, b"to-leader");
        // h1 never saw the steered packet despite being its MAC target.
        assert_eq!(sim.node_ref::<Station>(hosts[1]).received.len(), 0);
        let (_, _, steered) = sim.node_ref::<L2Switch>(sw).counters();
        assert_eq!(steered, 1);
    }

    #[test]
    fn last_steering_rule_wins() {
        let mut sw = L2Switch::new(4);
        sw.steer(Match::udp_dst(5000), PortId(1));
        sw.steer(Match::udp_dst(5000), PortId(2));
        let pkt = build_udp(Endpoint::host(0, 9), Endpoint::host(1, 5000), b"x");
        assert_eq!(sw.steering_decision(&pkt), Some(PortId(2)));
        sw.unsteer_port(PortId(2));
        assert_eq!(sw.steering_decision(&pkt), Some(PortId(1)));
    }
}
