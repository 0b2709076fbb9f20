//! The single-sequencer Paxos role machines (leader, acceptor, learner)
//! — the pipeline the paper measures.
//!
//! These are pure, host-agnostic, sans-IO engines: a machine consumes a
//! [`PaxosMsg`] via its `handle` method and returns an [`Outbox`] of
//! `(Dest, PaxosMsg)` pairs; it never owns a socket, a clock, or an
//! address. Values are refcounted [`Bytes`]: a message that is handled
//! and forwarded — a proposal, a vote, a client reply — carries a
//! handle on the bytes it arrived with, which may be a view of the whole
//! received frame ([`PaxosMsg::decode_shared`]). State that outlives the
//! message — an acceptor's voted value, the learner's vote table — is
//! never such a view: it is copied out once into an allocation of its
//! own, so acceptor state retains values, not frames. An acceptor keeps
//! its instances in one ordered map, unbounded like the host's and the
//! FPGA's DRAM. The same code therefore runs inside the libpaxos-style
//! software nodes, the DPDK variant, and the P4xos FPGA device — only
//! timing and power differ. That sharing is what makes the leader shift
//! of §9.2 possible.
//!
//! There is exactly one leader at a time here: the deployment (the
//! switch steering the leader VIP, see
//! [`AddressBook`](crate::AddressBook)) decides who it is, and a newly
//! activated leader recovers by *handover* — it starts from instance 1,
//! learns the highest used instance from the `last_voted` field
//! acceptors attach to every response, and fills delivery gaps with
//! no-ops via a full per-instance phase 1 when a learner requests it
//! (§9.2). For competing leaders with ballot-numbered phases and
//! timeout-driven *election* (what the chaos suite kills and
//! partitions), see [`crate::multi`].

use std::collections::{BTreeMap, BTreeSet};

use inc_net::Bytes;

use crate::msg::{ClientCommand, MsgType, PaxosMsg, NOOP_VALUE};
use crate::outbox::Outbox;

/// Where an emitted message should be sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// Every acceptor.
    AllAcceptors,
    /// Every learner, plus the current leader (2b traffic, which also
    /// carries the `last_voted` feedback the leader needs).
    AllLearners,
    /// The leader service: the coordinator-steered virtual address in
    /// this pipeline, or every competing leader in [`crate::multi`]
    /// (stale ones ignore traffic for ballots they no longer hold).
    Leader,
    /// A specific client.
    Client(u32),
    /// Back to whoever sent the message being handled.
    Reply,
}

/// A set of acceptor ids — who promised, who voted — as a fixed 256-bit
/// mask: one bit per possible `u8` id, so counting a quorum never
/// allocates (a `BTreeSet<u8>` costs a node per slot per machine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct AcceptorSet([u64; 4]);

impl AcceptorSet {
    /// Adds `id`; a repeated id (a duplicated vote) changes nothing.
    pub(crate) fn insert(&mut self, id: u8) {
        self.0[usize::from(id >> 6)] |= 1 << (id & 63);
    }

    /// Number of distinct ids inserted.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// A copy of `value` that long-lived role state may keep: whatever
/// larger buffer `value` is a view of is not kept alive by it.
fn parked(value: &Bytes) -> Bytes {
    Bytes::copy_from_slice(value)
}

/// Per-instance acceptor state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstanceState {
    /// Highest round promised.
    pub rnd: u16,
    /// Round of the last vote (0 = none; rounds start at 1).
    pub vrnd: u16,
    /// Last voted value.
    pub vval: Bytes,
}

/// The acceptor role.
#[derive(Clone, Debug)]
pub struct Acceptor {
    /// This acceptor's identity.
    pub id: u8,
    /// Per-instance state. `BTreeMap` rather than `HashMap` so every
    /// traversal of acceptor state is deterministic (`inc-lint` rule
    /// `unordered-iter`).
    instances: BTreeMap<u64, InstanceState>,
    /// Highest instance voted in (attached to every response, §9.2).
    last_voted: u64,
    /// Votes cast (statistics).
    pub votes: u64,
}

impl Acceptor {
    /// Creates an acceptor.
    pub fn new(id: u8) -> Self {
        Acceptor {
            id,
            instances: BTreeMap::new(),
            last_voted: 0,
            votes: 0,
        }
    }

    /// Handles one message.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        match msg.mtype {
            MsgType::Phase1a => {
                let state = self.instances.entry(msg.instance).or_default();
                if msg.round > state.rnd {
                    state.rnd = msg.round;
                }
                // Promise (or re-promise) with current vote info.
                let reply = PaxosMsg {
                    mtype: MsgType::Phase1b,
                    instance: msg.instance,
                    round: state.rnd,
                    vround: state.vrnd,
                    acceptor: self.id,
                    last_voted: self.last_voted,
                    value: state.vval.clone(),
                };
                Outbox::One((Dest::Reply, reply))
            }
            MsgType::Phase2a => {
                let state = self.instances.entry(msg.instance).or_default();
                if msg.round >= state.rnd {
                    state.rnd = msg.round;
                    state.vrnd = msg.round;
                    state.vval = parked(&msg.value);
                    self.last_voted = self.last_voted.max(msg.instance);
                    self.votes += 1;
                    let vote = PaxosMsg {
                        mtype: MsgType::Phase2b,
                        instance: msg.instance,
                        round: msg.round,
                        vround: msg.round,
                        acceptor: self.id,
                        last_voted: self.last_voted,
                        value: msg.value.clone(),
                    };
                    Outbox::One((Dest::AllLearners, vote))
                } else {
                    Outbox::Empty // Stale round: ignore.
                }
            }
            _ => Outbox::Empty,
        }
    }
}

/// Recovery bookkeeping for one gap instance being re-initiated.
#[derive(Clone, Debug, Default)]
struct GapRecovery {
    /// Promises received: acceptor → (vround, value).
    promises: BTreeMap<u8, (u16, Bytes)>,
    proposed: bool,
}

/// The leader (sequencer) role.
#[derive(Clone, Debug)]
pub struct Leader {
    /// The round this leader proposes in (unique per leader incarnation).
    pub round: u16,
    quorum: usize,
    next_instance: u64,
    /// Synchronising with acceptors after activation (§9.2).
    recovering: bool,
    sync_promises: AcceptorSet,
    /// Requests dropped while recovering (§9.2: "the new leader fails to
    /// propose until it learns the latest Paxos instance"; clients retry).
    pub dropped_while_recovering: u64,
    /// Per-instance phase-1 recovery for learner-reported gaps.
    gaps: BTreeMap<u64, GapRecovery>,
    /// Proposals issued (statistics).
    pub proposals: u64,
}

impl Leader {
    /// Creates an *active* leader that assumes a fresh system (instance 1,
    /// no recovery) — the start-of-day software leader.
    pub fn bootstrap(round: u16, n_acceptors: usize) -> Self {
        Leader {
            round,
            quorum: n_acceptors / 2 + 1,
            next_instance: 1,
            recovering: false,
            sync_promises: AcceptorSet::default(),
            dropped_while_recovering: 0,
            gaps: BTreeMap::new(),
            proposals: 0,
        }
    }

    /// Creates a newly *elected* leader that must first learn the highest
    /// used instance from the acceptors (§9.2). Returns the leader and the
    /// sync probe to broadcast.
    pub fn elected(round: u16, n_acceptors: usize) -> (Self, Outbox) {
        let mut l = Leader::bootstrap(round, n_acceptors);
        l.recovering = true;
        let probe = PaxosMsg::new(MsgType::Phase1a, 1, round, Bytes::new());
        (l, Outbox::One((Dest::AllAcceptors, probe)))
    }

    fn observe_last_voted(&mut self, last_voted: u64) {
        if last_voted + 1 > self.next_instance {
            self.next_instance = last_voted + 1;
        }
    }

    fn propose(&mut self, value: Bytes) -> (Dest, PaxosMsg) {
        let instance = self.next_instance;
        self.next_instance += 1;
        self.proposals += 1;
        (
            Dest::AllAcceptors,
            PaxosMsg::new(MsgType::Phase2a, instance, self.round, value),
        )
    }

    /// Handles one message.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        match msg.mtype {
            MsgType::ClientRequest => {
                if self.recovering {
                    // The paper's leader cannot propose yet; the request
                    // is lost and the client's timeout covers it.
                    self.dropped_while_recovering += 1;
                    Outbox::Empty
                } else {
                    Outbox::One(self.propose(msg.value.clone()))
                }
            }
            MsgType::Phase1b => {
                self.observe_last_voted(msg.last_voted);
                let mut out = Outbox::Empty;
                if let Some(gap) = self.gaps.get_mut(&msg.instance) {
                    // Per-instance gap recovery (only promises in our round).
                    if msg.round == self.round && !gap.proposed {
                        gap.promises
                            .insert(msg.acceptor, (msg.vround, msg.value.clone()));
                        if gap.promises.len() >= self.quorum {
                            gap.proposed = true;
                            // Propose the highest-vround value, or a no-op.
                            let value = gap
                                .promises
                                .values()
                                .filter(|(vr, _)| *vr > 0)
                                .max_by_key(|(vr, _)| *vr)
                                .map(|(_, v)| v.clone())
                                .unwrap_or_else(|| Bytes::from_static(NOOP_VALUE));
                            self.proposals += 1;
                            out.push((
                                Dest::AllAcceptors,
                                PaxosMsg::new(MsgType::Phase2a, msg.instance, self.round, value),
                            ));
                        }
                    }
                } else if self.recovering && msg.round == self.round {
                    // Sync probe response.
                    self.sync_promises.insert(msg.acceptor);
                    if self.sync_promises.len() >= self.quorum {
                        self.recovering = false;
                    }
                }
                out
            }
            MsgType::Phase2b => {
                // 2b traffic tells the leader how far the log has gone.
                self.observe_last_voted(msg.last_voted);
                Outbox::Empty
            }
            MsgType::GapRequest => {
                // Learner reports a stuck instance: run phase 1 for it.
                let instance = msg.instance;
                if instance >= self.next_instance {
                    // Not actually used yet; nothing to fill.
                    return Outbox::Empty;
                }
                let entry = self.gaps.entry(instance).or_default();
                if entry.proposed {
                    return Outbox::Empty;
                }
                Outbox::One((
                    Dest::AllAcceptors,
                    PaxosMsg::new(MsgType::Phase1a, instance, self.round, Bytes::new()),
                ))
            }
            _ => Outbox::Empty,
        }
    }
}

/// The learner role: detects quorums, delivers in instance order, answers
/// clients, and reports gaps to the leader after a timeout (§9.2).
#[derive(Clone, Debug)]
pub struct Learner {
    quorum: usize,
    /// Vote accumulation per instance: round → voters.
    votes: BTreeMap<u64, (u16, AcceptorSet, Bytes)>,
    /// Decided but not yet delivered (out of order).
    decided: BTreeMap<u64, Bytes>,
    /// Next instance to deliver.
    next_deliver: u64,
    /// Commands already executed (at-most-once bookkeeping).
    executed: BTreeSet<(u32, u64)>,
    /// Delivered values in order (bounded tail kept for verification).
    pub delivered: Vec<(u64, Bytes)>,
    /// Number of delivered instances (including no-ops).
    pub delivered_count: u64,
    /// Duplicate command deliveries observed (client retries that were
    /// ordered twice).
    pub duplicates: u64,
    /// Cap on the `delivered` log length (memory bound for long runs).
    log_cap: usize,
}

impl Learner {
    /// Creates a learner for `n_acceptors`.
    pub fn new(n_acceptors: usize) -> Self {
        Learner {
            quorum: n_acceptors / 2 + 1,
            votes: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_deliver: 1,
            executed: BTreeSet::new(),
            delivered: Vec::new(),
            delivered_count: 0,
            duplicates: 0,
            log_cap: 100_000,
        }
    }

    /// Returns `true` if a decided-but-undeliverable gap exists.
    pub fn has_gap(&self) -> bool {
        self.decided
            .keys()
            .next()
            .is_some_and(|&first| first > self.next_deliver)
    }

    /// Handles one message; delivers in order and emits client replies.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        if msg.mtype != MsgType::Phase2b {
            return Outbox::Empty;
        }
        let entry = self
            .votes
            .entry(msg.instance)
            .or_insert_with(|| (msg.round, AcceptorSet::default(), parked(&msg.value)));
        if msg.round > entry.0 {
            // Newer round supersedes accumulated votes.
            *entry = (msg.round, AcceptorSet::default(), parked(&msg.value));
        }
        if msg.round < entry.0 {
            return Outbox::Empty;
        }
        entry.1.insert(msg.acceptor);
        if entry.1.len() < self.quorum {
            return Outbox::Empty;
        }
        let value = entry.2.clone();
        if msg.instance >= self.next_deliver {
            self.decided.entry(msg.instance).or_insert(value);
        }
        self.drain()
    }

    fn drain(&mut self) -> Outbox {
        let mut out = Outbox::Empty;
        while let Some(value) = self.decided.remove(&self.next_deliver) {
            let instance = self.next_deliver;
            self.next_deliver += 1;
            self.delivered_count += 1;
            if self.delivered.len() < self.log_cap {
                self.delivered.push((instance, value.clone()));
            }
            if let Some((client, seq)) = ClientCommand::header(&value) {
                if !self.executed.insert((client, seq)) {
                    self.duplicates += 1;
                }
                // Ack the client either way: their retry needs an answer.
                let reply = PaxosMsg {
                    mtype: MsgType::ClientReply,
                    instance,
                    round: 0,
                    vround: 0,
                    acceptor: 0,
                    last_voted: 0,
                    value,
                };
                out.push((Dest::Client(client), reply));
            }
        }
        out
    }

    /// Periodic gap check: if delivery has been stuck behind a decided
    /// instance for too long, ask the leader to re-initiate the stuck
    /// instance (§9.2). The caller provides the stuck duration policy.
    pub fn gap_probe(&self) -> Option<(Dest, PaxosMsg)> {
        if self.has_gap() {
            Some((
                Dest::Leader,
                PaxosMsg::new(MsgType::GapRequest, self.next_deliver, 0, Bytes::new()),
            ))
        } else {
            None
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
mod tests {
    use super::*;

    fn cmd(client: u32, seq: u64) -> Vec<u8> {
        ClientCommand {
            client,
            seq,
            payload: b"x".to_vec(),
        }
        .encode()
    }

    /// Runs a full, loss-free round: leader proposal → 3 acceptors →
    /// learner. Returns client replies.
    fn run_round(
        leader: &mut Leader,
        acceptors: &mut [Acceptor],
        learner: &mut Learner,
        value: Vec<u8>,
    ) -> Outbox {
        let req = PaxosMsg::new(MsgType::ClientRequest, 0, 0, value);
        let mut replies = Outbox::Empty;
        for (dest, m2a) in leader.handle(&req) {
            assert_eq!(dest, Dest::AllAcceptors);
            for acc in acceptors.iter_mut() {
                for (d2, m2b) in acc.handle(&m2a) {
                    assert_eq!(d2, Dest::AllLearners);
                    leader.handle(&m2b);
                    replies.extend(learner.handle(&m2b));
                }
            }
        }
        replies
    }

    #[test]
    fn happy_path_delivers_in_order() {
        let mut leader = Leader::bootstrap(1, 3);
        let mut accs: Vec<_> = (0..3).map(Acceptor::new).collect();
        let mut learner = Learner::new(3);
        for seq in 1..=5u64 {
            let replies = run_round(&mut leader, &mut accs, &mut learner, cmd(7, seq));
            // One client reply per decided command (quorum reached at the
            // second acceptor; the third vote is late but harmless).
            assert_eq!(replies.len(), 1);
            assert_eq!(replies[0].0, Dest::Client(7));
        }
        assert_eq!(learner.delivered_count, 5);
        assert_eq!(learner.duplicates, 0);
        let instances: Vec<u64> = learner.delivered.iter().map(|(i, _)| *i).collect();
        assert_eq!(instances, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn acceptor_rejects_stale_round() {
        let mut acc = Acceptor::new(0);
        let new = PaxosMsg::new(MsgType::Phase2a, 1, 5, b"new".to_vec());
        assert_eq!(acc.handle(&new).len(), 1);
        let stale = PaxosMsg::new(MsgType::Phase2a, 1, 3, b"old".to_vec());
        assert!(acc.handle(&stale).is_empty());
    }

    #[test]
    fn acceptor_phase1_promise_carries_vote() {
        let mut acc = Acceptor::new(2);
        acc.handle(&PaxosMsg::new(MsgType::Phase2a, 4, 1, b"v".to_vec()));
        let out = acc.handle(&PaxosMsg::new(MsgType::Phase1a, 4, 9, Vec::new()));
        let (_, promise) = &out[0];
        assert_eq!(promise.mtype, MsgType::Phase1b);
        assert_eq!(promise.vround, 1);
        assert_eq!(promise.value, b"v"[..]);
        assert_eq!(promise.last_voted, 4);
        assert_eq!(promise.acceptor, 2);
    }

    #[test]
    fn learner_requires_quorum() {
        let mut learner = Learner::new(3);
        let mut vote = PaxosMsg::new(MsgType::Phase2b, 1, 1, cmd(1, 1));
        vote.acceptor = 0;
        assert!(learner.handle(&vote).is_empty());
        // Duplicate vote from the same acceptor must not count twice.
        assert!(learner.handle(&vote).is_empty());
        vote.acceptor = 1;
        let out = learner.handle(&vote);
        assert_eq!(out.len(), 1);
        assert_eq!(learner.delivered_count, 1);
    }

    #[test]
    fn learner_holds_out_of_order_until_gap_fills() {
        let mut learner = Learner::new(1); // quorum of 1 for brevity
        let mut v2 = PaxosMsg::new(MsgType::Phase2b, 2, 1, cmd(1, 2));
        v2.acceptor = 0;
        assert!(learner.handle(&v2).is_empty());
        assert!(learner.has_gap());
        let probe = learner.gap_probe().unwrap();
        assert_eq!(probe.1.mtype, MsgType::GapRequest);
        assert_eq!(probe.1.instance, 1);
        // Instance 1 arrives (a no-op fill): both deliver, only the real
        // command is acked.
        let mut v1 = PaxosMsg::new(MsgType::Phase2b, 1, 1, NOOP_VALUE.to_vec());
        v1.acceptor = 0;
        let out = learner.handle(&v1);
        assert_eq!(out.len(), 1); // Reply for instance 2's command only.
        assert_eq!(learner.delivered_count, 2);
        assert!(!learner.has_gap());
    }

    #[test]
    fn learner_counts_duplicate_commands() {
        let mut learner = Learner::new(1);
        for instance in 1..=2 {
            let mut v = PaxosMsg::new(MsgType::Phase2b, instance, 1, cmd(3, 10));
            v.acceptor = 0;
            learner.handle(&v);
        }
        assert_eq!(learner.delivered_count, 2);
        assert_eq!(learner.duplicates, 1);
    }

    #[test]
    fn elected_leader_syncs_instance_counter() {
        // Acceptors have history up to instance 40.
        let mut accs: Vec<_> = (0..3).map(Acceptor::new).collect();
        for acc in &mut accs {
            for inst in 1..=40u64 {
                acc.handle(&PaxosMsg::new(MsgType::Phase2a, inst, 1, cmd(1, inst)));
            }
        }
        let (mut leader, probe) = Leader::elected(2, 3);
        assert!(leader.recovering);
        // Client requests during recovery are dropped (§9.2: the client
        // timeout covers them).
        assert!(leader
            .handle(&PaxosMsg::new(MsgType::ClientRequest, 0, 0, cmd(9, 1)))
            .is_empty());
        assert_eq!(leader.dropped_while_recovering, 1);
        // Deliver the probe.
        let (_, m1a) = &probe[0];
        for acc in &mut accs {
            for (_, m1b) in acc.handle(m1a) {
                leader.handle(&m1b);
            }
        }
        assert!(!leader.recovering);
        // §9.2: the leader learned the most recent not-yet-used instance;
        // the client's retry proposes there.
        let retry = leader.handle(&PaxosMsg::new(MsgType::ClientRequest, 0, 0, cmd(9, 1)));
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].1.instance, 41);
        assert_eq!(leader.next_instance, 42);
    }

    #[test]
    fn gap_recovery_reproposes_existing_value() {
        // Acceptors voted for "v" in instance 1 at round 1, but the
        // learner never saw a quorum. The new leader must re-propose "v",
        // not a no-op, to stay safe.
        let mut accs: Vec<_> = (0..3).map(Acceptor::new).collect();
        for acc in accs.iter_mut().take(2) {
            acc.handle(&PaxosMsg::new(MsgType::Phase2a, 1, 1, b"v".to_vec()));
        }
        let mut leader = Leader::bootstrap(2, 3);
        leader.observe_last_voted(1); // Knows instance 1 is in use.
        let out = leader.handle(&PaxosMsg::new(MsgType::GapRequest, 1, 0, Vec::new()));
        let (_, m1a) = &out[0];
        assert_eq!(m1a.mtype, MsgType::Phase1a);
        let mut m2a = None;
        for acc in &mut accs {
            for (_, m1b) in acc.handle(m1a) {
                for (_, m) in leader.handle(&m1b) {
                    m2a = Some(m);
                }
            }
        }
        let m2a = m2a.expect("quorum of promises must trigger a proposal");
        assert_eq!(m2a.mtype, MsgType::Phase2a);
        assert_eq!(m2a.value, b"v"[..]);
        assert_eq!(m2a.round, 2);
    }

    #[test]
    fn gap_recovery_fills_empty_instance_with_noop() {
        let mut accs: Vec<_> = (0..3).map(Acceptor::new).collect();
        let mut leader = Leader::bootstrap(2, 3);
        leader.observe_last_voted(5);
        let out = leader.handle(&PaxosMsg::new(MsgType::GapRequest, 3, 0, Vec::new()));
        let mut m2a = None;
        for acc in &mut accs {
            for (_, m1b) in acc.handle(&out[0].1) {
                for (_, m) in leader.handle(&m1b) {
                    m2a = Some(m);
                }
            }
        }
        assert_eq!(m2a.unwrap().value, NOOP_VALUE);
    }

    #[test]
    fn gap_request_for_unused_instance_ignored() {
        let mut leader = Leader::bootstrap(1, 3);
        let out = leader.handle(&PaxosMsg::new(MsgType::GapRequest, 10, 0, Vec::new()));
        assert!(out.is_empty());
    }
}
