//! Paxos deployment nodes: the [`multi`](crate::multi) roles on the
//! platforms of §3.2.
//!
//! §3.2 compares four variations of the acceptor/leader: the libpaxos
//! software library, libpaxos over DPDK, P4xos on the NetFPGA, and P4xos
//! on a Tofino. A [`PaxosNode`] runs one [`Role`] — a leader, an acceptor
//! or a replica — on a [`Platform`] that supplies the timing and power of
//! the packet-simulated three: [`Platform::Host`] (libpaxos, or DPDK with
//! a polling core) and [`Platform::Fpga`]. §6's Tofino is priced
//! analytically by [`inc_hw::TofinoModel`] (`inc-bench study asic`),
//! never as a node.
//!
//! The §9.2 deployment makes one node leader at a time: the coordinator
//! steers the leader service address to it and [`PaxosNode::activate`]s
//! it, and the leader scouts for a ballot above every one it has seen.
//! A node serves only between its activation and its
//! [`PaxosNode::deactivate`]: its role's periodic step (a leader's tick,
//! a replica's slot report) is a simulator timer that steps the role
//! only while it serves, so an idle standby leader never elects itself.

use inc_hw::{
    Deferred, LoadMeter, SumeCard, UtilMeter, POWER_TICK, SHELL_PIPELINE_LATENCY, TAG_POWER_TICK,
};
use inc_net::{build_udp_with, Bytes, Endpoint, Packet, UdpFrame};
use inc_power::calib;
use inc_sim::{impl_node_any, Admission, Ctx, Nanos, Node, PortId, ServiceStation};

use crate::msg::{PaxosMsg, PAXOS_CLIENT_PORT};
use crate::multi::{Acceptor, Leader, Replica, INLINE};
use crate::outbox::{Dest, Outbox};

/// Host software cost model: the one host model every software twin
/// runs on.
pub use inc_hw::HostConfig;

const TAG_STEP: u64 = 2;

/// The period of a leader's tick and of a replica's slot report: a
/// lost phase-2a is re-sent after four ticks, and the acceptors' floor
/// trails execution by about one period's commands.
pub const TICK: Nanos = Nanos::from_millis(1);

/// Who the node can talk to.
#[derive(Clone, Debug)]
pub struct AddressBook {
    /// This node's own endpoint.
    pub own: Endpoint,
    /// The leader *service* endpoint ([`crate::PAXOS_LEADER_PORT`]): a
    /// virtual address the switch steers to whichever node the
    /// coordinator has made leader (§9.2).
    pub leader: Endpoint,
    /// All acceptor endpoints.
    pub acceptors: Vec<Endpoint>,
    /// All replica endpoints.
    pub learners: Vec<Endpoint>,
}

/// A [`multi`](crate::multi) role as a node's engine.
pub trait Role: 'static {
    /// The role half of the node's label.
    const NAME: &'static str;
    /// Whether the role takes a periodic [`Role::step`] every [`TICK`].
    const STEPS: bool;
    /// Handles one message.
    fn handle(&mut self, msg: &PaxosMsg) -> Outbox;
    /// What the role sends when its node starts serving.
    fn start(&mut self) -> Outbox {
        Outbox::Empty
    }
    /// The role's periodic step.
    fn step(&mut self) -> Outbox {
        Outbox::Empty
    }
}

impl Role for Acceptor {
    const NAME: &'static str = "acceptor";
    const STEPS: bool = false;
    fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        Acceptor::handle(self, msg)
    }
}

impl Role for Leader {
    const NAME: &'static str = "leader";
    const STEPS: bool = true;
    fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        Leader::handle(self, msg)
    }
    fn start(&mut self) -> Outbox {
        self.start_scout()
    }
    fn step(&mut self) -> Outbox {
        self.tick()
    }
}

impl Role for Replica {
    const NAME: &'static str = "replica";
    const STEPS: bool = true;
    fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        Replica::handle(self, msg)
    }
    fn step(&mut self) -> Outbox {
        Outbox::One(self.report())
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
}

impl Platform {
    /// Host platform from a config.
    pub fn host(config: HostConfig) -> Self {
        Platform::Host {
            config,
            station: ServiceStation::new(1, Nanos::from_millis(2)),
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
            station: ServiceStation::new(1, Nanos::from_micros(20)),
            meter: LoadMeter::new(calib::P4XOS_FPGA_PEAK_MPS),
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
        };
        match station.submit(now, service) {
            Admission::Served { finish, .. } => Some(finish + fixed),
            Admission::Dropped => None,
        }
    }

    fn tick(&mut self, now: Nanos) {
        match self {
            Platform::Host { station, util, .. } => util.tick(station, now),
            Platform::Fpga { meter, .. } => meter.tick(now),
        }
    }

    fn power_w(&self) -> f64 {
        match self {
            Platform::Host { config, util, .. } => config.power_w(util.util()),
            Platform::Fpga { card, meter, .. } => card.power_w(meter.load()),
        }
    }
}

/// A Paxos participant as a simulation node.
pub struct PaxosNode<R> {
    role: R,
    platform: Platform,
    book: AddressBook,
    /// Whether the node takes part (see the module documentation).
    serving: bool,
    /// Messages waiting out their service time, with the frame they are
    /// a view of and their sender.
    pending: Deferred<(PaxosMsg, Packet, Endpoint)>,
}

impl<R: Role> PaxosNode<R> {
    /// Creates a node that serves from the start.
    pub fn new(role: R, platform: Platform, book: AddressBook) -> Self {
        PaxosNode {
            role,
            platform,
            book,
            serving: true,
            pending: Deferred::default(),
        }
    }

    /// The role (inspection).
    pub fn role(&self) -> &R {
        &self.role
    }

    /// Starts serving: the role's start (a leader's scout) goes out and
    /// its steps run. The coordinator calls this during a shift via
    /// `Simulator::with_node_ctx`.
    pub fn activate(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.serving = true;
        let out = self.role.start();
        self.emit(ctx, out, None);
    }

    /// Stops serving: the node drops what reaches it and its role takes
    /// no step (the old leader after a shift, an idle standby).
    pub fn deactivate(&mut self) {
        self.serving = false;
    }

    /// Parks or unparks an FPGA platform (§9.2: an idle standby leader
    /// need not burn full logic power). No-op for the host platform,
    /// whose power already follows utilisation.
    pub fn set_parked(&mut self, parked: bool) {
        if let Platform::Fpga { card, .. } = &mut self.platform {
            if parked {
                card.park();
            } else {
                card.unpark();
            }
        }
    }

    /// Sends `out`; a [`Dest::Reply`] goes to `reply_to`.
    fn emit(&self, ctx: &mut Ctx<'_, Packet>, out: Outbox, reply_to: Option<Endpoint>) {
        for (dest, msg) in out {
            // One frame per target, the message encoded straight into
            // each: no payload buffer and no target list in between.
            let (own, len) = (self.book.own, msg.encoded_len());
            let mut send = |target: Endpoint| {
                let pkt = build_udp_with(own, target, len, |buf| msg.write_to(buf));
                ctx.send(PortId::P0, pkt);
            };
            match dest {
                Dest::AllAcceptors => self.book.acceptors.iter().copied().for_each(send),
                Dest::AllLearners => {
                    // 2b goes to the replicas plus the leader (commander
                    // progress and preemption).
                    self.book.learners.iter().copied().for_each(&mut send);
                    send(self.book.leader);
                }
                Dest::Leader => send(self.book.leader),
                // A client's conventional endpoint.
                Dest::Client(id) => send(Endpoint::host(id, PAXOS_CLIENT_PORT)),
                Dest::Reply => send(reply_to.unwrap_or(self.book.leader)),
            }
        }
    }
}

impl<R: Role> Node<Packet> for PaxosNode<R> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
        if R::STEPS {
            ctx.schedule_in(TICK, TAG_STEP);
        }
        if self.serving {
            self.activate(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        let now = ctx.now();
        let Ok(frame) = UdpFrame::parse(&pkt) else {
            return;
        };
        // Accept only traffic addressed to this node, or to the virtual
        // leader service when this is a leader (flooded switch copies of
        // other members' traffic must not be processed).
        let (own, port) = (self.book.own, frame.udp.dst_port);
        let to_me = port == own.port && (frame.ip.dst == own.ip || port == self.book.leader.port);
        if !self.serving || !to_me {
            return;
        }
        // The value is a view of the packet: nothing is copied while
        // the message waits out its service time in `pending`. A role
        // keeps a short value inline; a longer one gets a buffer of its
        // own here, so no role keeps a frame.
        let Ok(mut msg) = PaxosMsg::decode_shared(&frame.payload_bytes(&pkt)) else {
            return;
        };
        if msg.value.len() > INLINE {
            msg.value = Bytes::copy_from_slice(&msg.value);
        }
        let Some(ready) = self.platform.admit(now) else {
            return;
        };
        let src = frame.source();
        self.pending.defer(ctx, ready, (msg, pkt, src));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u64) {
        let now = ctx.now();
        if tag == TAG_POWER_TICK {
            self.platform.tick(now);
            ctx.schedule_in(POWER_TICK, TAG_POWER_TICK);
        } else if tag == TAG_STEP {
            if self.serving {
                let out = self.role.step();
                self.emit(ctx, out, None);
            }
            ctx.schedule_in(TICK, TAG_STEP);
        } else if let Some((msg, pkt, src)) = self.pending.take(tag) {
            if self.serving {
                let out = self.role.handle(&msg);
                self.emit(ctx, out, Some(src));
            }
            // The view goes first: the frame is then the last handle on
            // its buffer, which goes back to the free list.
            drop(msg);
            drop(pkt);
        }
    }

    fn power_w(&self, _now: Nanos) -> f64 {
        self.platform.power_w()
    }

    fn label(&self) -> String {
        let role = if self.serving { R::NAME } else { "idle" };
        let platform = match &self.platform {
            Platform::Host { config, .. } if config.polling => "dpdk",
            Platform::Host { .. } => "libpaxos",
            Platform::Fpga { .. } => "p4xos-fpga",
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
            Acceptor::new(0),
            Platform::host(HostConfig::libpaxos_acceptor()),
            book(),
        );
        assert_eq!(n.label(), "libpaxos-acceptor");
        let mut n = PaxosNode::new(Leader::new(1, 3, 1), Platform::fpga(), book());
        n.deactivate();
        assert_eq!(n.label(), "p4xos-fpga-idle");
    }
}
