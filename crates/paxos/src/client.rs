//! The Paxos client: closed-loop request generation with the §9.2
//! timeout-and-retry behaviour.
//!
//! "The clients resend requests after a time-out period if the learner has
//! not acknowledged" — this retry is load-bearing for the leader shift:
//! retried requests reach the new leader and advance its sequence number.
//! The ~100 ms zero-throughput window in Figure 7 is exactly this timeout.
//!
//! The client is a simulator [`Node`], not a sans-IO machine: it owns
//! timers and builds UDP packets, addressing the leader *service*
//! endpoint rather than any particular leader. That indirection is why
//! the same client works unchanged against the coordinator-steered
//! [`crate::roles`] pipeline and the self-electing [`crate::multi`]
//! machines — whoever currently holds the leader role receives its
//! requests.

use std::ops::{Deref, DerefMut};

use inc_net::{build_udp_with, BufMut, Bytes, Endpoint, Packet, UdpFrame};
use inc_sim::{impl_node_any, pace_gap, Ctx, FixedHashMap, LatencyWindow, Nanos, Node, PortId};

use crate::msg::{ClientCommand, MsgType, PaxosMsg, PAXOS_CLIENT_PORT};

const TAG_PACE: u64 = 1;
const TAG_TIMEOUT_BASE: u64 = 1 << 32;

/// Upper bound on the open-loop pacing timer: even when the inter-issue
/// gap is long (low rate) or infinite (rate 0), the client re-reads its
/// offered rate at least this often, so a [`PaxosClient::set_rate`] is
/// picked up promptly.
const PACE_POLL: Nanos = Nanos::from_millis(10);

/// How far behind the newest command an unanswered one may fall before
/// the client gives it up: 4 096 sequence numbers, four times what the
/// fastest client here (the multi-ToR rig's 10 kpps Paxos tenant)
/// issues over Figure 7's 100 ms outage. It bounds the outstanding
/// table, and with it the retry timers: a dead or partitioned leader
/// would otherwise have every command re-arm its timeout forever.
const ABANDON_AFTER: u64 = 4_096;

/// Cumulative client statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct PaxosClientStats {
    /// Distinct commands issued.
    pub issued: u64,
    /// Retransmissions after timeout.
    pub retries: u64,
    /// Commands acknowledged.
    pub acked: u64,
    /// Commands given up unanswered, 4 096 issues after their own (an
    /// ack that arrives later is ignored).
    pub abandoned: u64,
}

/// A Paxos client: closed-loop by default (`concurrency` outstanding
/// commands, a new one issued per ack), or open-loop when built with
/// [`PaxosClient::open_loop`] (commands paced at an offered rate,
/// schedulable mid-run via [`PaxosClient::set_rate`] — the shape the
/// diurnal fleet experiments drive). Its latency record (`take_window`)
/// is the [`LatencyWindow`] it derefs to.
pub struct PaxosClient {
    id: u32,
    own: Endpoint,
    leader: Endpoint,
    concurrency: u32,
    /// `Some(rate_pps)` in open-loop mode.
    paced: Option<f64>,
    /// When the last open-loop command was issued (pacing reference).
    last_issue: Nanos,
    timeout: Nanos,
    payload_len: usize,
    next_seq: u64,
    /// Outstanding: seq → (first-send time, retry count); the last
    /// [`ABANDON_AFTER`] sequence numbers at most.
    outstanding: FixedHashMap<u64, (Nanos, u32)>,
    stats: PaxosClientStats,
    /// End-to-end command latency (first send → ack).
    window: LatencyWindow,
}

impl PaxosClient {
    /// Creates a client. Its receive endpoint is the conventional
    /// `Endpoint::host(id, PAXOS_CLIENT_PORT)` that learners reply to.
    pub fn new(id: u32, leader: Endpoint, concurrency: u32, timeout: Nanos) -> Self {
        PaxosClient {
            id,
            own: Endpoint::host(id, PAXOS_CLIENT_PORT),
            leader,
            concurrency,
            paced: None,
            last_issue: Nanos::ZERO,
            timeout,
            payload_len: 16,
            next_seq: 0,
            outstanding: FixedHashMap::default(),
            stats: PaxosClientStats::default(),
            window: LatencyWindow::default(),
        }
    }

    /// Creates an open-loop client issuing commands at `rate_pps`
    /// regardless of acks (retries still fire per command after
    /// `timeout`). The rate can be rescheduled with
    /// [`PaxosClient::set_rate`]; any rate is accepted (see
    /// [`pace_gap`]).
    pub fn open_loop(id: u32, leader: Endpoint, rate_pps: f64, timeout: Nanos) -> Self {
        PaxosClient {
            paced: Some(rate_pps),
            ..PaxosClient::new(id, leader, 0, timeout)
        }
    }

    /// Changes the offered rate of an open-loop client; takes effect at
    /// the next pacing tick (at most 10 ms away, whatever the old rate).
    ///
    /// # Panics
    ///
    /// Panics if the client is closed-loop.
    pub fn set_rate(&mut self, rate_pps: f64) {
        assert!(self.paced.is_some(), "set_rate on a closed-loop client");
        self.paced = Some(rate_pps);
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> PaxosClientStats {
        self.stats
    }

    /// The request frame for command `seq`: the [`ClientCommand`]
    /// `(id, seq, 0xAB × payload_len)` as the value of a `ClientRequest`,
    /// encoded field by field into the frame — the command is never
    /// materialised.
    fn request_packet(&self, seq: u64) -> Packet {
        let value_len = ClientCommand::HEADER_LEN + self.payload_len;
        let request = PaxosMsg::new(MsgType::ClientRequest, 0, 0, Bytes::new());
        build_udp_with(
            self.own,
            self.leader,
            PaxosMsg::HEADER_LEN + value_len,
            |buf| {
                request.write_header(value_len, buf);
                ClientCommand::write_header(self.id, seq, buf);
                buf.put_bytes(0xAB, self.payload_len);
            },
        )
    }

    fn issue_new(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.next_seq += 1;
        let seq = self.next_seq;
        let given_up = seq.checked_sub(ABANDON_AFTER);
        let lost = given_up.and_then(|old| self.outstanding.remove(&old));
        self.outstanding.insert(seq, (ctx.now(), 0));
        self.stats.issued += 1;
        ctx.send(PortId::P0, self.request_packet(seq));
        ctx.schedule_in(self.timeout, TAG_TIMEOUT_BASE + seq);
        if lost.is_some() {
            self.stats.abandoned += 1;
            // A closed loop keeps its concurrency: the loss funds the
            // next command, as an ack would.
            if self.paced.is_none() {
                self.issue_new(ctx);
            }
        }
    }

    /// The time the next open-loop command is due: one inter-arrival gap
    /// after the previous issue, or never at a rate that sends nothing.
    fn pace_due(&self) -> Option<Nanos> {
        // Pacing only runs in open-loop mode; in closed-loop mode there
        // is simply no paced command due.
        let gap = pace_gap(self.paced?)?;
        Some(self.last_issue.saturating_add(gap))
    }

    /// Schedules the next pacing tick: at the due instant when it is
    /// near, else a [`PACE_POLL`] re-check — the rate is re-read on
    /// every tick, so `set_rate` never waits out a long stale gap.
    fn schedule_pace(&mut self, ctx: &mut Ctx<'_, Packet>) {
        let wait = match self.pace_due() {
            Some(due) => due
                .saturating_sub(ctx.now())
                .max(Nanos::from_nanos(1))
                .min(PACE_POLL),
            None => PACE_POLL,
        };
        ctx.schedule_in(wait, TAG_PACE);
    }
}

impl Deref for PaxosClient {
    type Target = LatencyWindow;

    fn deref(&self) -> &LatencyWindow {
        &self.window
    }
}

impl DerefMut for PaxosClient {
    fn deref_mut(&mut self) -> &mut LatencyWindow {
        &mut self.window
    }
}

impl Node<Packet> for PaxosClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        if self.paced.is_some() {
            self.schedule_pace(ctx);
        } else {
            for _ in 0..self.concurrency {
                self.issue_new(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u64) {
        if tag == TAG_PACE {
            if self.pace_due().is_some_and(|due| ctx.now() >= due) {
                self.last_issue = ctx.now();
                self.issue_new(ctx);
            }
            self.schedule_pace(ctx);
            return;
        }
        if tag < TAG_TIMEOUT_BASE {
            return;
        }
        let seq = tag - TAG_TIMEOUT_BASE;
        if let Some((_, retries)) = self.outstanding.get_mut(&seq) {
            // §9.2: resend the same command; the learner deduplicates.
            *retries += 1;
            self.stats.retries += 1;
            ctx.send(PortId::P0, self.request_packet(seq));
            ctx.schedule_in(self.timeout, TAG_TIMEOUT_BASE + seq);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, pkt: Packet) {
        let Ok(frame) = UdpFrame::parse(&pkt) else {
            return;
        };
        let Ok(msg) = PaxosMsg::decode_shared(&frame.payload_bytes(&pkt)) else {
            return;
        };
        if msg.mtype != MsgType::ClientReply {
            return;
        }
        let Some((client, seq)) = ClientCommand::header(&msg.value) else {
            return;
        };
        if client != self.id {
            return;
        }
        let Some((first_sent, _)) = self.outstanding.remove(&seq) else {
            return; // Duplicate ack from a retried command.
        };
        let now = ctx.now();
        self.stats.acked += 1;
        self.window.record((now - first_sent).as_nanos());
        // Closed-loop: every ack funds the next command. Open-loop issue
        // is driven by the pacing timer instead.
        if self.paced.is_none() {
            self.issue_new(ctx);
        }
    }

    fn label(&self) -> String {
        format!("paxos-client-{}", self.id)
    }

    impl_node_any!();
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
mod tests {
    use super::*;
    use inc_sim::Simulator;

    /// A sink that counts the client's requests without ever replying.
    struct Sink {
        seen: u64,
    }

    impl Node<Packet> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, Packet>, _port: PortId, _pkt: Packet) {
            self.seen += 1;
        }
        fn label(&self) -> String {
            "sink".into()
        }
        inc_sim::impl_node_any!();
    }

    #[test]
    fn open_loop_paces_at_the_offered_rate() {
        let mut sim: Simulator<Packet> = Simulator::new(1);
        let sink = sim.add_node(Sink { seen: 0 });
        // 1 kpps, and a timeout far beyond the horizon so no retries mix
        // into the count.
        let client = sim.add_node(PaxosClient::open_loop(
            7,
            Endpoint::host(99, crate::msg::PAXOS_LEADER_PORT),
            1_000.0,
            Nanos::from_secs(100),
        ));
        sim.connect_duplex(
            client,
            PortId::P0,
            sink,
            PortId::P0,
            inc_sim::LinkSpec::ideal(),
        );
        sim.run_until(Nanos::from_millis(100));
        let issued = sim.node_ref::<PaxosClient>(client).stats().issued;
        assert!((95..=105).contains(&issued), "issued {issued}");
        // Rescheduling the rate changes the pace within one tick.
        sim.node_mut::<PaxosClient>(client).set_rate(10_000.0);
        sim.run_until(Nanos::from_millis(200));
        let issued2 = sim.node_ref::<PaxosClient>(client).stats().issued - issued;
        assert!((950..=1_060).contains(&issued2), "issued {issued2}");
        // Unacked commands stay outstanding (no closed-loop refill), and
        // a zero rate idles.
        sim.node_mut::<PaxosClient>(client).set_rate(0.0);
        let before = sim.node_ref::<PaxosClient>(client).stats().issued;
        sim.run_until(Nanos::from_millis(400));
        assert_eq!(sim.node_ref::<PaxosClient>(client).stats().issued, before);
        assert_eq!(sim.node_ref::<PaxosClient>(client).stats().acked, 0);
    }

    #[test]
    fn set_rate_is_picked_up_within_the_poll_interval() {
        let mut sim: Simulator<Packet> = Simulator::new(3);
        let sink = sim.add_node(Sink { seen: 0 });
        // 5 pps: the inter-issue gap (200 ms) is far beyond the 10 ms
        // pacing poll, so a rate change must not wait out the old gap.
        let client = sim.add_node(PaxosClient::open_loop(
            8,
            Endpoint::host(99, crate::msg::PAXOS_LEADER_PORT),
            5.0,
            Nanos::from_secs(100),
        ));
        sim.connect_duplex(
            client,
            PortId::P0,
            sink,
            PortId::P0,
            inc_sim::LinkSpec::ideal(),
        );
        sim.run_until(Nanos::from_millis(50));
        assert_eq!(sim.node_ref::<PaxosClient>(client).stats().issued, 0);
        sim.node_mut::<PaxosClient>(client).set_rate(10_000.0);
        sim.run_until(Nanos::from_millis(80));
        // Picked up within one poll (≤ 10 ms): at least 20 ms of issuing
        // at 10 kpps, i.e. ≥ 150 commands (not the 0 the stale 200 ms
        // gap would deliver).
        let issued = sim.node_ref::<PaxosClient>(client).stats().issued;
        assert!(issued >= 150, "issued {issued}");
    }

    #[test]
    fn a_silent_leader_leaves_the_client_bounded() {
        // 10 kpps at a leader that never answers, a 50 ms timeout: 40
        // timeouts, 20 000 commands. Without the abandon window every
        // one would stay outstanding and keep a retry timer armed.
        const RATE: f64 = 10_000.0;
        let timeout = Nanos::from_millis(50);
        let mut sim: Simulator<Packet> = Simulator::new(5);
        let sink = sim.add_node(Sink { seen: 0 });
        let leader = Endpoint::host(99, crate::msg::PAXOS_LEADER_PORT);
        let client = sim.add_node(PaxosClient::open_loop(9, leader, RATE, timeout));
        let link = inc_sim::LinkSpec::ideal();
        sim.connect_duplex(client, PortId::P0, sink, PortId::P0, link);
        // Timers of the outstanding commands, the last timeout's worth
        // of abandoned ones (each fires once more, to no effect), the
        // pacing tick and the requests on the wire.
        let bound = ABANDON_AFTER + (RATE * timeout.as_secs_f64()) as u64 + 64;
        for secs in 1..=2 {
            sim.run_until(Nanos::from_secs(secs));
            let c = sim.node_ref::<PaxosClient>(client);
            let stats = c.stats();
            assert!(stats.issued >= secs * 9_900, "issued {}", stats.issued);
            assert_eq!(c.outstanding.len() as u64, ABANDON_AFTER);
            assert_eq!(stats.abandoned, stats.issued - ABANDON_AFTER);
            assert_eq!(stats.acked, 0);
            let queue = sim.queue_stats();
            assert!(queue.high_water <= bound, "{queue:?}, bound {bound}");
        }
        assert!(sim.node_ref::<Sink>(sink).seen > 20_000);
    }

    /// Acks every command at once, except the first one issued.
    struct AckAllButFirst;

    impl Node<Packet> for AckAllButFirst {
        fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, port: PortId, pkt: Packet) {
            let frame = UdpFrame::parse(&pkt).unwrap();
            let msg = PaxosMsg::decode(frame.payload).unwrap();
            if ClientCommand::header(&msg.value).unwrap().1 == 1 {
                return;
            }
            let reply = PaxosMsg::new(MsgType::ClientReply, 1, 0, msg.value);
            let (from, to) = (frame.destination(), frame.source());
            ctx.send(port, inc_net::build_udp(from, to, &reply.encode()));
        }
        inc_sim::impl_node_any!();
    }

    #[test]
    fn a_closed_loop_keeps_its_concurrency_past_an_abandoned_command() {
        let mut sim: Simulator<Packet> = Simulator::new(6);
        let server = sim.add_node(AckAllButFirst);
        let leader = Endpoint::host(99, crate::msg::PAXOS_LEADER_PORT);
        let client = sim.add_node(PaxosClient::new(4, leader, 2, Nanos::from_millis(1)));
        let link = inc_sim::LinkSpec::ten_gbe(Nanos::from_nanos(100));
        sim.connect_duplex(client, PortId::P0, server, PortId::P0, link);
        sim.run_until(Nanos::from_millis(2));
        let c = sim.node_ref::<PaxosClient>(client);
        let stats = c.stats();
        // Command 1 fell `ABANDON_AFTER` behind, was given up, and its
        // place in the loop went to a new command.
        assert!(stats.issued > ABANDON_AFTER + 3, "issued {}", stats.issued);
        assert_eq!((stats.abandoned, stats.acked), (1, stats.issued - 3));
        assert_eq!(c.outstanding.len(), 2);
        assert!(!c.outstanding.contains_key(&1));
    }

    #[test]
    #[should_panic(expected = "closed-loop")]
    fn set_rate_rejects_closed_loop_clients() {
        let mut c = PaxosClient::new(
            1,
            Endpoint::host(99, crate::msg::PAXOS_LEADER_PORT),
            4,
            Nanos::from_millis(50),
        );
        c.set_rate(5.0);
    }
}
