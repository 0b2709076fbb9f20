//! Paxos deployment nodes: the same role engines on different platforms.
//!
//! §3.2 compares four variations of the acceptor/leader: the libpaxos
//! software library, libpaxos over DPDK, P4xos on the NetFPGA, and P4xos
//! on a Tofino. [`PaxosNode`] wraps a [`RoleEngine`] with a [`Platform`]
//! that supplies the timing and power of each variation.

use inc_hw::{SumeCard, TofinoModel, TofinoProgram, SHELL_PIPELINE_LATENCY};
use inc_net::{build_udp_with, Endpoint, Packet, UdpFrame};
use inc_power::{calib, CpuModel};
use inc_sim::{
    impl_node_any, Admission, Ctx, FixedHashMap, Histogram, Nanos, Node, PortId, ServiceStation,
    Timer, WindowRate,
};

use crate::msg::{PaxosMsg, PAXOS_CLIENT_PORT};
use crate::outbox::Outbox;
use crate::roles::{Acceptor, Dest, Leader, Learner};

const TAG_POWER_TICK: u64 = 1;
const TAG_GAP_PROBE: u64 = 2;
const TAG_WORK_BASE: u64 = 1 << 32;
const POWER_TICK: Nanos = Nanos::from_millis(20);
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

/// Host software cost model.
#[derive(Clone, Copy, Debug)]
pub struct HostConfig {
    /// The host's CPU power model.
    pub cpu: CpuModel,
    /// Per-message CPU time.
    pub service: Nanos,
    /// Fixed kernel/stack latency per message.
    pub fixed: Nanos,
    /// NIC power, watts.
    pub nic_w: f64,
    /// `true` for DPDK: a core spins at 100 % regardless of load (§4.3:
    /// "the power consumption for the DPDK implementation is high even
    /// under low load ... since DPDK constantly polls").
    pub polling: bool,
}

impl HostConfig {
    /// libpaxos acceptor: one core, peak 178 Kmsg/s (§3.2).
    pub fn libpaxos_acceptor() -> Self {
        HostConfig {
            cpu: CpuModel::i7_6700k_single_core_service(),
            service: Nanos::from_nanos(5_618),
            fixed: Nanos::from_micros(40),
            nic_w: calib::INTEL_X520_NIC_W,
            polling: false,
        }
    }

    /// libpaxos leader: sequencing plus fan-out makes it the slowest and
    /// most latency-dominant role.
    pub fn libpaxos_leader() -> Self {
        HostConfig {
            cpu: CpuModel::i7_6700k_single_core_service(),
            service: Nanos::from_nanos(6_250),
            fixed: Nanos::from_micros(100),
            nic_w: calib::INTEL_X520_NIC_W,
            polling: false,
        }
    }

    /// libpaxos learner.
    pub fn libpaxos_learner() -> Self {
        HostConfig {
            fixed: Nanos::from_micros(40),
            ..Self::libpaxos_acceptor()
        }
    }

    /// DPDK acceptor: kernel bypass, ~900 Kmsg/s, constant high power.
    pub fn dpdk_acceptor() -> Self {
        HostConfig {
            cpu: CpuModel::i7_6700k(),
            service: Nanos::from_nanos(1_111),
            fixed: Nanos::from_micros(3),
            nic_w: calib::INTEL_X520_NIC_W,
            polling: true,
        }
    }

    /// DPDK leader: ~800 Kmsg/s.
    pub fn dpdk_leader() -> Self {
        HostConfig {
            service: Nanos::from_nanos(1_250),
            ..Self::dpdk_acceptor()
        }
    }

    /// Peak message rate of this configuration.
    pub fn peak_mps(&self) -> f64 {
        1.0 / self.service.as_secs_f64()
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
        current_util: f64,
        last_busy_ns: u128,
    },
    /// P4xos on the NetFPGA SUME: fully pipelined, 10 Mmsg/s (§3.2).
    Fpga {
        /// Card power model (no external memories, §4.3).
        card: SumeCard,
        /// Pipeline initiation interval (100 ns → 10 Mmsg/s).
        station: ServiceStation,
        /// Load fraction for dynamic power.
        current_load: f64,
        rate_window: WindowRate,
    },
    /// P4xos on a Tofino-class ASIC (§6): modelled analytically for power;
    /// event-simulated only at the rates the harnesses drive.
    Asic {
        /// The normalized-power switch model.
        model: TofinoModel,
        /// Initiation interval (0.4 ns → 2.5 Gmsg/s).
        station: ServiceStation,
        current_load: f64,
        rate_window: WindowRate,
    },
}

impl Platform {
    /// Host platform from a config.
    pub fn host(config: HostConfig) -> Self {
        Platform::Host {
            config,
            station: ServiceStation::new(1, Some(Nanos::from_millis(2))),
            current_util: 0.0,
            last_busy_ns: 0,
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
            current_load: 0.0,
            rate_window: WindowRate::new(Nanos::from_millis(100), 10),
        }
    }

    /// Tofino P4xos platform.
    pub fn asic() -> Self {
        Platform::Asic {
            model: TofinoModel::snake_32x40(),
            station: ServiceStation::new(64, Some(Nanos::from_micros(5))),
            current_load: 0.0,
            rate_window: WindowRate::new(Nanos::from_millis(100), 10),
        }
    }

    fn admit(&mut self, now: Nanos) -> Option<(Nanos, Nanos)> {
        // Returns (processing-complete time, extra fixed latency).
        match self {
            Platform::Host {
                config, station, ..
            } => match station.submit(now, config.service) {
                Admission::Served { finish, .. } => Some((finish, config.fixed)),
                Admission::Dropped => None,
            },
            Platform::Fpga {
                station,
                rate_window,
                ..
            } => {
                rate_window.record(now, 1);
                match station.submit(now, Nanos::from_nanos(100)) {
                    Admission::Served { finish, .. } => Some((finish, SHELL_PIPELINE_LATENCY)),
                    Admission::Dropped => None,
                }
            }
            Platform::Asic {
                station,
                rate_window,
                ..
            } => {
                rate_window.record(now, 1);
                match station.submit(now, Nanos::from_nanos(26)) {
                    Admission::Served { finish, .. } => Some((finish, Nanos::from_nanos(400))),
                    Admission::Dropped => None,
                }
            }
        }
    }

    fn tick(&mut self, now: Nanos) {
        match self {
            Platform::Host {
                station,
                current_util,
                last_busy_ns,
                ..
            } => {
                let busy = station.busy_core_ns(now);
                *current_util =
                    busy.saturating_sub(*last_busy_ns) as f64 / POWER_TICK.as_nanos() as f64;
                *last_busy_ns = busy;
            }
            Platform::Fpga {
                current_load,
                rate_window,
                ..
            } => {
                *current_load =
                    (rate_window.rate(now) / calib::P4XOS_FPGA_PEAK_MPS).clamp(0.0, 1.0);
            }
            Platform::Asic {
                current_load,
                rate_window,
                ..
            } => {
                *current_load =
                    (rate_window.rate(now) / calib::P4XOS_ASIC_PEAK_MPS).clamp(0.0, 1.0);
            }
        }
    }

    fn power_w(&self) -> f64 {
        match self {
            Platform::Host {
                config,
                current_util,
                ..
            } => {
                let util = if config.polling {
                    // A polling core is always at 100 %.
                    current_util.max(1.0)
                } else {
                    *current_util
                };
                config.cpu.power_w(util) + config.nic_w
            }
            Platform::Fpga {
                card, current_load, ..
            } => card.power_w(*current_load),
            Platform::Asic {
                model,
                current_load,
                ..
            } => model.power_w(TofinoProgram::L2WithP4xos, *current_load),
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
    pending: FixedHashMap<u64, (PaxosMsg, Endpoint, Nanos)>,
    next_tag: u64,
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
            pending: FixedHashMap::default(),
            next_tag: 0,
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

    /// The §9.1-style network-measured application rate at this node
    /// (hardware platforms meter it in the classifier; host platforms
    /// report 0 — their rate is host-measured).
    pub fn measured_rate(&mut self, now: Nanos) -> f64 {
        match &mut self.platform {
            Platform::Fpga { rate_window, .. } | Platform::Asic { rate_window, .. } => {
                rate_window.rate(now)
            }
            Platform::Host { .. } => 0.0,
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
        let Some((finish, fixed)) = self.platform.admit(now) else {
            self.stats.dropped += 1;
            return;
        };
        self.next_tag += 1;
        let tag = TAG_WORK_BASE + self.next_tag;
        self.pending.insert(tag, (msg, frame.source(), now));
        ctx.schedule_at(finish + fixed, tag);
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
        } else if let Some((msg, src, arrived)) = self.pending.remove(&timer.tag) {
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
        assert!((HostConfig::libpaxos_acceptor().peak_mps() - 178_000.0).abs() < 1_000.0);
        assert!((HostConfig::dpdk_acceptor().peak_mps() - 900_000.0).abs() < 10_000.0);
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
