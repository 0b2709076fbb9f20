//! Paxos deployment nodes: the same role engines on different platforms.
//!
//! §3.2 compares four variations of the acceptor/leader: the libpaxos
//! software library, libpaxos over DPDK, P4xos on the NetFPGA, and P4xos
//! on a Tofino. [`PaxosNode`] wraps a [`RoleEngine`] with a [`Platform`]
//! that supplies the timing and power of each variation.

use inc_hw::{
    Deferred, LoadMeter, SumeCard, TofinoModel, TofinoProgram, UtilMeter, POWER_TICK,
    SHELL_PIPELINE_LATENCY, TAG_POWER_TICK,
};
use inc_net::{build_udp_with, Endpoint, Packet, UdpFrame};
use inc_power::calib;
use inc_sim::{
    impl_node_any, Admission, Ctx, Histogram, Nanos, Node, PortId, ServiceStation, Timer,
};

use crate::msg::{PaxosMsg, PAXOS_CLIENT_PORT};
use crate::outbox::Outbox;
use crate::roles::{Acceptor, Dest, Leader, Learner};

/// Host software cost model: the one host model every software twin
/// runs on.
pub use inc_hw::HostConfig;

const TAG_GAP_PROBE: u64 = 2;
const GAP_PROBE_PERIOD: Nanos = Nanos::from_millis(25);

/// Who the node can talk to.
#[derive(Clone, Debug)]
pub struct AddressBook {
    /// This node's own endpoint.
    pub own: Endpoint,
    /// The leader *service* endpoint ([`crate::PAXOS_LEADER_PORT`]): a
    /// virtual address the switch steers to whichever node the
    /// coordinator has made leader (§9.2). Leadership here is assigned
    /// by the deployment, not elected — ballot-based election between
    /// competing leaders lives in [`crate::multi`].
    pub leader: Endpoint,
    /// All acceptor endpoints.
    pub acceptors: Vec<Endpoint>,
    /// All learner endpoints.
    pub learners: Vec<Endpoint>,
}

impl AddressBook {
    /// Resolves a client id to its conventional endpoint
    /// (`Endpoint::host(id, PAXOS_CLIENT_PORT)`).
    pub fn client(&self, id: u32) -> Endpoint {
        Endpoint::host(id, PAXOS_CLIENT_PORT)
    }
}

/// The active role of a node.
#[derive(Clone, Debug)]
pub enum RoleEngine {
    /// Sequencer.
    Leader(Leader),
    /// Voter.
    Acceptor(Acceptor),
    /// Quorum detector and deliverer.
    Learner(Learner),
    /// Deactivated standby (a hardware leader before its shift).
    Idle,
}

impl RoleEngine {
    fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        match self {
            RoleEngine::Leader(l) => l.handle(msg),
            RoleEngine::Acceptor(a) => a.handle(msg),
            RoleEngine::Learner(l) => l.handle(msg),
            RoleEngine::Idle => Outbox::Empty,
        }
    }
}

/// The execution platform of a node.
pub enum Platform {
    /// Host software (libpaxos or DPDK).
    Host {
        /// Cost model.
        config: HostConfig,
        /// Single-core service station (libpaxos uses one core, §4.3).
        station: ServiceStation,
        /// Windowed utilisation for the power model.
        util: UtilMeter,
    },
    /// P4xos on the NetFPGA SUME: fully pipelined, 10 Mmsg/s (§3.2).
    Fpga {
        /// Card power model (no external memories, §4.3).
        card: SumeCard,
        /// Pipeline initiation interval (100 ns → 10 Mmsg/s).
        station: ServiceStation,
        /// Message rate and load fraction for dynamic power.
        meter: LoadMeter,
    },
    /// P4xos on a Tofino-class ASIC (§6): modelled analytically for power;
    /// event-simulated only at the rates the harnesses drive.
    Asic {
        /// The normalized-power switch model.
        model: TofinoModel,
        /// Initiation interval (0.4 ns → 2.5 Gmsg/s).
        station: ServiceStation,
        /// Message rate and load fraction for dynamic power.
        meter: LoadMeter,
    },
}

impl Platform {
    /// Host platform from a config.
    pub fn host(config: HostConfig) -> Self {
        Platform::Host {
            config,
            station: ServiceStation::new(1, Some(Nanos::from_millis(2))),
            util: UtilMeter::default(),
        }
    }

    /// NetFPGA P4xos platform.
    pub fn fpga() -> Self {
        Platform::Fpga {
            card: SumeCard::reference_nic().with_logic(
                calib::P4XOS_STANDALONE_IDLE_W - calib::NETFPGA_REFERENCE_NIC_W,
                calib::P4XOS_DYNAMIC_MAX_W,
            ),
            station: ServiceStation::new(1, Some(Nanos::from_micros(20))),
            meter: LoadMeter::new(calib::P4XOS_FPGA_PEAK_MPS),
        }
    }

    /// Tofino P4xos platform.
    pub fn asic() -> Self {
        Platform::Asic {
            model: TofinoModel::snake_32x40(),
            station: ServiceStation::new(64, Some(Nanos::from_micros(5))),
            meter: LoadMeter::new(calib::P4XOS_ASIC_PEAK_MPS),
        }
    }

    /// Queues a message arriving at `now`: when it has been processed and
    /// its fixed latency has passed, or `None` when the platform drops it.
    fn admit(&mut self, now: Nanos) -> Option<Nanos> {
        let (station, service, fixed) = match self {
            Platform::Host {
                config, station, ..
            } => (station, config.service, config.fixed),
            Platform::Fpga { station, meter, .. } => {
                meter.record(now);
                (station, Nanos::from_nanos(100), SHELL_PIPELINE_LATENCY)
            }
            Platform::Asic { station, meter, .. } => {
                meter.record(now);
                (station, Nanos::from_nanos(26), Nanos::from_nanos(400))
            }
        };
        match station.submit(now, service) {
            Admission::Served { finish, .. } => Some(finish + fixed),
            Admission::Dropped => None,
        }
    }

    fn tick(&mut self, now: Nanos) {
        match self {
            Platform::Host { station, util, .. } => util.tick(station, now),
            Platform::Fpga { meter, .. } | Platform::Asic { meter, .. } => meter.tick(now),
        }
    }

    fn power_w(&self) -> f64 {
        match self {
            Platform::Host { config, util, .. } => config.power_w(util.util()),
            Platform::Fpga { card, meter, .. } => card.power_w(meter.load()),
            Platform::Asic { model, meter, .. } => {
                model.power_w(TofinoProgram::L2WithP4xos, meter.load())
            }
        }
    }
}

/// Cumulative node counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaxosNodeStats {
    /// Messages processed.
    pub handled: u64,
    /// Messages dropped (overload).
    pub dropped: u64,
    /// Messages emitted.
    pub emitted: u64,
}

/// A Paxos participant as a simulation node.
pub struct PaxosNode {
    engine: RoleEngine,
    platform: Platform,
    book: AddressBook,
    stats: PaxosNodeStats,
    /// Messages waiting out their service time: (message, sender,
    /// arrival).
    pending: Deferred<(PaxosMsg, Endpoint, Nanos)>,
    /// Per-message processing latency at this node.
    pub node_latency: Histogram,
}

impl PaxosNode {
    /// Creates a node.
    pub fn new(engine: RoleEngine, platform: Platform, book: AddressBook) -> Self {
        PaxosNode {
            engine,
            platform,
            book,
            stats: PaxosNodeStats::default(),
            pending: Deferred::default(),
            node_latency: Histogram::new(),
        }
    }

    /// Returns cumulative counters.
    pub fn stats(&self) -> PaxosNodeStats {
        self.stats
    }

    /// Returns a reference to the engine (inspection).
    pub fn engine(&self) -> &RoleEngine {
        &self.engine
    }

    /// Becomes the leader with the given (higher) round, emitting the
    /// §9.2 sync probe. The coordinator calls this during a shift via
    /// `Simulator::with_node_ctx`.
    pub fn activate_leader(&mut self, ctx: &mut Ctx<'_, Packet>, round: u16) {
        let n = self.book.acceptors.len();
        let (leader, probe) = Leader::elected(round, n);
        self.engine = RoleEngine::Leader(leader);
        for (dest, msg) in probe {
            self.emit(ctx, Nanos::ZERO, dest, msg, None);
        }
    }

    /// Stops acting as leader (the old leader after a shift).
    pub fn deactivate(&mut self) {
        self.engine = RoleEngine::Idle;
    }

    /// Parks or unparks an FPGA platform (§9.2: an idle standby leader
    /// need not burn full logic power). No-op for host and ASIC
    /// platforms — the host's power already follows utilisation, and the
    /// ASIC is a shared switch that cannot power-gate per program.
    pub fn set_parked(&mut self, parked: bool) {
        if let Platform::Fpga { card, .. } = &mut self.platform {
            if parked {
                card.park();
            } else {
                card.unpark();
            }
        }
    }

    fn emit(
        &mut self,
        ctx: &mut Ctx<'_, Packet>,
        delay: Nanos,
        dest: Dest,
        msg: PaxosMsg,
        reply_to: Option<Endpoint>,
    ) {
        // One frame per target, the message encoded straight into each:
        // no payload buffer and no target list in between.
        let (own, len) = (self.book.own, msg.encoded_len());
        let emitted = &mut self.stats.emitted;
        let mut send = |target: Endpoint| {
            let pkt = build_udp_with(own, target, 0, len, |buf| msg.write_to(buf));
            *emitted += 1;
            ctx.send_after(delay, PortId::P0, pkt);
        };
        match dest {
            Dest::AllAcceptors => self.book.acceptors.iter().copied().for_each(send),
            Dest::AllLearners => {
                // 2b goes to learners plus the leader (instance feedback).
                self.book.learners.iter().copied().for_each(&mut send);
                send(self.book.leader);
            }
            Dest::Leader => send(self.book.leader),
            Dest::Client(id) => send(self.book.client(id)),
            Dest::Reply => send(reply_to.unwrap_or(self.book.leader)),
        }
    }
}

impl Node<Packet> for PaxosNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
        if matches!(self.engine, RoleEngine::Learner(_)) {
            ctx.schedule_in(GAP_PROBE_PERIOD, TAG_GAP_PROBE);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        let now = ctx.now();
        let Ok(frame) = UdpFrame::parse(&pkt) else {
            return;
        };
        // Accept only traffic addressed to this node, or to the virtual
        // leader service when acting as leader (flooded switch copies of
        // other members' traffic must not be processed).
        let to_me = frame.ip.dst == self.book.own.ip && frame.udp.dst_port == self.book.own.port;
        let to_leader_vip = frame.udp.dst_port == self.book.leader.port
            && matches!(self.engine, RoleEngine::Leader(_));
        if !to_me && !to_leader_vip {
            return;
        }
        // The value is a view of the packet: nothing is copied while
        // the message waits out its service time in `pending`.
        let Ok(msg) = PaxosMsg::decode_shared(&frame.payload_bytes(&pkt)) else {
            return;
        };
        let Some(ready) = self.platform.admit(now) else {
            self.stats.dropped += 1;
            return;
        };
        self.pending.defer(ctx, ready, (msg, frame.source(), now));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, timer: Timer) {
        let now = ctx.now();
        if timer.tag == TAG_POWER_TICK {
            self.platform.tick(now);
            ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
        } else if timer.tag == TAG_GAP_PROBE {
            if let RoleEngine::Learner(l) = &self.engine {
                if let Some((dest, msg)) = l.gap_probe() {
                    self.emit(ctx, Nanos::ZERO, dest, msg, None);
                }
            }
            ctx.schedule_in(GAP_PROBE_PERIOD, TAG_GAP_PROBE);
        } else if let Some((msg, src, arrived)) = self.pending.take(timer.tag) {
            self.stats.handled += 1;
            self.node_latency.record_nanos(now - arrived);
            let out = self.engine.handle(&msg);
            for (dest, m) in out {
                self.emit(ctx, Nanos::ZERO, dest, m, Some(src));
            }
        }
    }

    fn power_w(&self, _now: Nanos) -> f64 {
        self.platform.power_w()
    }

    fn label(&self) -> String {
        let role = match &self.engine {
            RoleEngine::Leader(_) => "leader",
            RoleEngine::Acceptor(_) => "acceptor",
            RoleEngine::Learner(_) => "learner",
            RoleEngine::Idle => "idle",
        };
        let platform = match &self.platform {
            Platform::Host { config, .. } if config.polling => "dpdk",
            Platform::Host { .. } => "libpaxos",
            Platform::Fpga { .. } => "p4xos-fpga",
            Platform::Asic { .. } => "p4xos-asic",
        };
        format!("{platform}-{role}")
    }

    impl_node_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> AddressBook {
        AddressBook {
            own: Endpoint::host(10, 8601),
            leader: Endpoint::host(20, crate::msg::PAXOS_LEADER_PORT),
            acceptors: vec![
                Endpoint::host(10, 8601),
                Endpoint::host(11, 8601),
                Endpoint::host(12, 8601),
            ],
            learners: vec![Endpoint::host(30, 8602)],
        }
    }

    #[test]
    fn host_power_idle_and_polling() {
        let libpaxos = Platform::host(HostConfig::libpaxos_acceptor());
        // i7 idle + X520.
        assert!((libpaxos.power_w() - 34.5).abs() < 0.1);
        let dpdk = Platform::host(HostConfig::dpdk_acceptor());
        // A polling core pins utilisation at 1 even when idle.
        let dpdk_idle = dpdk.power_w();
        assert!(dpdk_idle > 60.0, "{dpdk_idle}");
    }

    #[test]
    fn fpga_power_matches_p4xos_calibration() {
        let p = Platform::fpga();
        assert!((p.power_w() - 18.2).abs() < 1e-9);
    }

    #[test]
    fn peak_rates_match_calibration() {
        // One core's peak is one request per service time.
        let peak_mps = |h: HostConfig| 1.0 / h.service.as_secs_f64();
        assert!((peak_mps(HostConfig::libpaxos_acceptor()) - 178_000.0).abs() < 1_000.0);
        assert!((peak_mps(HostConfig::dpdk_acceptor()) - 900_000.0).abs() < 10_000.0);
    }

    #[test]
    fn node_labels() {
        let n = PaxosNode::new(
            RoleEngine::Acceptor(Acceptor::new(0, crate::roles::AcceptorStorage::unbounded())),
            Platform::host(HostConfig::libpaxos_acceptor()),
            book(),
        );
        assert_eq!(n.label(), "libpaxos-acceptor");
        let n = PaxosNode::new(RoleEngine::Idle, Platform::fpga(), book());
        assert_eq!(n.label(), "p4xos-fpga-idle");
    }
}
