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
//! message is never such a view, so role state retains values, not
//! frames.
//!
//! Each role keeps only what it reads again. An acceptor keeps one
//! 34-byte cell per instance in a table of fixed 1 024-cell pages,
//! indexed by instance: the promised and voted rounds and the voted
//! value, inline when it is at most 28 bytes (a command with a 16-byte
//! payload), so a vote allocates nothing; a longer value is copied out
//! once into an allocation of its own. The table grows with the log,
//! like the host's and the FPGA's DRAM, about 34 bytes per instance;
//! an instance more than 2¹⁶ past the acceptor's last vote is refused.
//! The learner keeps the votes and decisions of undelivered instances,
//! each client's executed sequence numbers as runs, and of the
//! delivered log a digest and a short tail, the shape a
//! [`multi::Replica`](crate::multi::Replica) keeps; nothing of it grows
//! with the length of a run. The same code runs inside the
//! libpaxos-style software nodes, the DPDK variant, and the P4xos FPGA
//! device — only timing and power differ. That sharing is what makes
//! the leader shift of §9.2 possible.
//!
//! There is exactly one leader at a time here: the deployment (the
//! switch steering the leader VIP, see
//! [`AddressBook`](crate::AddressBook)) decides who it is, and a newly
//! activated leader recovers by *handover* — it starts from instance 1,
//! learns the highest used instance from the `last_voted` field
//! acceptors attach to every response (once it proposes, it numbers on
//! past only what a quorum of them reports), and fills delivery gaps with
//! no-ops via a full per-instance phase 1 when a learner requests it
//! (§9.2). For competing leaders with ballot-numbered phases and
//! timeout-driven *election* (what the chaos suite kills and
//! partitions), see [`crate::multi`].

use std::collections::BTreeMap;

use inc_net::Bytes;

use crate::history::{ExecutedLog, SeqRuns};
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

/// Instances one page of an acceptor's table holds.
const PAGE: u64 = 1 << 10;

/// The longest value a cell holds inline: a [`ClientCommand`] with a
/// 16-byte payload, as every [`PaxosClient`](crate::PaxosClient) sends.
const INLINE: usize = 28;

/// A cell's `len` when its value is longer than [`INLINE`] and parked
/// out of line.
const PARKED: u8 = u8::MAX;

/// How far above its `last_voted` an acceptor takes a Phase 1a or 2a:
/// [`MAX_SPAN`](crate::ring::MAX_SPAN), the lead a `multi` role's window
/// allows. A leader numbers proposals on past the `last_voted` a quorum
/// has reported (past every report while it recovers, §9.2) and probes
/// only instances below that, so an honest message runs ahead of one
/// acceptor only by the instances that acceptor missed since its last
/// vote: a 2¹⁶ lead takes 65 536 lost in a row, where the suite's lossy
/// §9.2 runs lose a handful (no packet test, figure, study, scenario or
/// benchmark workload has an acceptor refuse one). An acceptor that
/// does fall further behind — a long outage, or a restart with an empty
/// table once the log is past 2¹⁶ — is shut out for good: it refuses
/// every proposal, so its `last_voted` never moves again, and the
/// others carry on without its vote. Without the bound a forged
/// far-ahead instance would grow the page directory to reach it (at
/// 2⁴⁰, 8 GiB); within it, one costs a page.
const MAX_LEAD: u64 = crate::ring::MAX_SPAN;

/// One instance of an acceptor's table, 34 bytes.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    /// Highest round promised.
    rnd: u16,
    /// Round of the last vote (0 = none; rounds start at 1).
    vrnd: u16,
    /// Length of the voted value in `bytes`, or [`PARKED`].
    len: u8,
    bytes: [u8; INLINE],
}

/// One page of an acceptor's table. Boxed as an array, not a slice, so
/// the page directory holds an 8-byte pointer per page.
type Page = [Cell; PAGE as usize];

/// The acceptor role.
#[derive(Clone, Debug)]
pub struct Acceptor {
    /// This acceptor's identity.
    pub id: u8,
    /// The instance table: page `p` holds instances `p * PAGE ..`, made
    /// when one of them is first touched and never moved or regrown.
    pages: Vec<Option<Box<Page>>>,
    /// Voted values longer than [`INLINE`], by instance. `BTreeMap`
    /// rather than `HashMap` so every traversal of acceptor state is
    /// deterministic (`inc-lint` rule `unordered-iter`).
    long: BTreeMap<u64, Bytes>,
    /// Highest instance voted in (attached to every response, §9.2).
    last_voted: u64,
    /// Votes cast (statistics).
    pub votes: u64,
    /// Phase 1a and 2a messages dropped unanswered: instance 0, or more
    /// than [`MAX_LEAD`] above `last_voted`.
    pub refused: u64,
}

impl Acceptor {
    /// Creates an acceptor.
    pub fn new(id: u8) -> Self {
        Acceptor {
            id,
            pages: Vec::new(),
            long: BTreeMap::new(),
            last_voted: 0,
            votes: 0,
            refused: 0,
        }
    }

    /// The cell of `instance`, its page made on first touch; `None`,
    /// counted in `refused`, for an instance out of reach.
    fn cell(&mut self, instance: u64) -> Option<&mut Cell> {
        let lead = instance.saturating_sub(self.last_voted);
        let page = usize::try_from(instance / PAGE).ok();
        let Some(page) = page.filter(|_| instance != 0 && lead <= MAX_LEAD) else {
            self.refused += 1;
            return None;
        };
        if page >= self.pages.len() {
            self.pages.resize_with(page + 1, || None);
        }
        let cells =
            self.pages[page].get_or_insert_with(|| Box::new([Cell::default(); PAGE as usize]));
        Some(&mut cells[(instance % PAGE) as usize])
    }

    /// Handles one message.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        match msg.mtype {
            MsgType::Phase1a => {
                let Some(cell) = self.cell(msg.instance) else {
                    return Outbox::Empty;
                };
                cell.rnd = cell.rnd.max(msg.round);
                let cell = *cell;
                // Promise (or re-promise) with current vote info.
                let value = match cell.bytes.get(..usize::from(cell.len)) {
                    Some(inline) => Bytes::copy_from_slice(inline),
                    None => self.long.get(&msg.instance).cloned().unwrap_or_default(),
                };
                let reply = PaxosMsg {
                    mtype: MsgType::Phase1b,
                    instance: msg.instance,
                    round: cell.rnd,
                    vround: cell.vrnd,
                    acceptor: self.id,
                    last_voted: self.last_voted,
                    value,
                };
                Outbox::One((Dest::Reply, reply))
            }
            MsgType::Phase2a => {
                let Some(cell) = self.cell(msg.instance) else {
                    return Outbox::Empty;
                };
                if msg.round < cell.rnd {
                    return Outbox::Empty; // Stale round: ignore.
                }
                cell.rnd = msg.round;
                cell.vrnd = msg.round;
                let (len, was_parked) = (msg.value.len(), cell.len == PARKED);
                if len <= INLINE {
                    cell.bytes[..len].copy_from_slice(&msg.value);
                    cell.len = len as u8; // At most `INLINE`: no truncation.
                    if was_parked {
                        self.long.remove(&msg.instance);
                    }
                } else {
                    cell.len = PARKED;
                    self.long.insert(msg.instance, parked(&msg.value));
                }
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
    /// The highest `last_voted` each acceptor has reported, by id.
    reported: Vec<u64>,
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
            reported: vec![0; n_acceptors],
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

    /// Takes `acceptor`'s report of its `last_voted`. A recovering leader
    /// numbers on past every report (§9.2): of the quorum that promised,
    /// one may have missed a decided instance the other voted in. Once it
    /// proposes, it numbers on only past what a quorum has reported, so
    /// every instance it numbers is within a quorum's reach, and one
    /// acceptor's vote on a forged far-ahead instance does not move it.
    fn observe_last_voted(&mut self, acceptor: u8, last_voted: u64) {
        let id = usize::from(acceptor);
        if id >= self.reported.len() {
            self.reported.resize(id + 1, 0);
        }
        self.reported[id] = self.reported[id].max(last_voted);
        if last_voted < self.next_instance {
            return;
        }
        let reach = if self.recovering {
            last_voted
        } else {
            self.quorum_reported()
        };
        self.next_instance = self.next_instance.max(reach + 1);
    }

    /// The highest instance a quorum of acceptors has each reported
    /// voting in or past.
    fn quorum_reported(&self) -> u64 {
        let quorum_reached =
            |v: u64| self.reported.iter().filter(|&&r| r >= v).count() >= self.quorum;
        let reached = self.reported.iter().copied().filter(|&v| quorum_reached(v));
        reached.max().unwrap_or(0)
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
                self.observe_last_voted(msg.acceptor, msg.last_voted);
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
                self.observe_last_voted(msg.acceptor, msg.last_voted);
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
///
/// It keeps what it reads again: the votes and decisions of instances
/// not yet delivered, which sequence numbers each client has had run,
/// and of the delivered log a digest and a short tail.
#[derive(Clone, Debug)]
pub struct Learner {
    quorum: usize,
    /// Vote accumulation per undelivered instance: round → voters.
    votes: BTreeMap<u64, (u16, AcceptorSet, Bytes)>,
    /// Decided but not yet delivered (out of order).
    decided: BTreeMap<u64, Bytes>,
    /// Next instance to deliver.
    next_deliver: u64,
    /// Commands already executed by client (at-most-once bookkeeping).
    executed: BTreeMap<u32, SeqRuns>,
    /// The delivered `(instance, value)` log, no-op fills included.
    log: ExecutedLog,
    /// Number of delivered instances (including no-ops).
    pub delivered_count: u64,
    /// Duplicate command deliveries observed (client retries that were
    /// ordered twice).
    pub duplicates: u64,
}

impl Learner {
    /// Creates a learner for `n_acceptors`.
    pub fn new(n_acceptors: usize) -> Self {
        Learner {
            quorum: n_acceptors / 2 + 1,
            votes: BTreeMap::new(),
            decided: BTreeMap::new(),
            next_deliver: 1,
            executed: BTreeMap::new(),
            log: ExecutedLog::default(),
            delivered_count: 0,
            duplicates: 0,
        }
    }

    /// Returns `true` if a decided-but-undeliverable gap exists.
    pub fn has_gap(&self) -> bool {
        self.decided
            .keys()
            .next()
            .is_some_and(|&first| first > self.next_deliver)
    }

    /// The last `(instance, value)` entries delivered, oldest first: at
    /// least 64 once that many have been.
    // inc-lint: allow(unreached-pub): tests/properties.rs holds it to the tail of the map reference's whole log
    pub fn log_tail(&self) -> &[(u64, Bytes)] {
        self.log.tail()
    }

    /// A digest of the whole delivered log: every entry's instance,
    /// length and bytes, folded FNV-1a-style eight bytes to a step.
    // inc-lint: allow(unreached-pub): tests/properties.rs holds it to the digest of the map reference's whole log
    pub fn log_digest(&self) -> u64 {
        self.log.digest()
    }

    /// Instances holding votes: every one not yet delivered that a vote
    /// has reached.
    // inc-lint: allow(unreached-pub): tests/properties.rs and tests/alloc_budget.rs hold the vote table to the undelivered instances with it
    pub fn retained_instances(&self) -> usize {
        self.votes.len()
    }

    /// Handles one message; delivers in order and emits client replies.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        // A vote for a delivered instance can change nothing: the
        // instance left the tables when it was delivered.
        if msg.mtype != MsgType::Phase2b || msg.instance < self.next_deliver {
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
        self.decided.entry(msg.instance).or_insert(value);
        self.drain()
    }

    fn drain(&mut self) -> Outbox {
        let mut out = Outbox::Empty;
        while let Some(value) = self.decided.remove(&self.next_deliver) {
            let instance = self.next_deliver;
            self.votes.remove(&instance);
            self.next_deliver += 1;
            self.delivered_count += 1;
            self.log.record(instance, value.clone());
            if let Some((client, seq)) = ClientCommand::header(&value) {
                if !self.executed.entry(client).or_default().insert(seq) {
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
        let instances: Vec<u64> = learner.log_tail().iter().map(|(i, _)| *i).collect();
        assert_eq!(instances, vec![1, 2, 3, 4, 5]);
        assert!(!learner.has_gap());
        // Delivered instances leave the vote table; the late third votes
        // found nothing to join.
        assert_eq!(learner.retained_instances(), 0);
    }

    #[test]
    fn a_cell_is_34_bytes_and_holds_a_16_byte_command_inline() {
        assert_eq!(std::mem::size_of::<Cell>(), 34);
        assert_eq!(std::mem::size_of::<Option<Box<Page>>>(), 8);
        assert_eq!(ClientCommand::HEADER_LEN + 16, INLINE);
        let mut acc = Acceptor::new(0);
        for (instance, len) in [(1, INLINE), (2, INLINE + 1), (3, 0), (4, 300)] {
            let value: Vec<u8> = (0..len).map(|i| i as u8).collect();
            acc.handle(&PaxosMsg::new(MsgType::Phase2a, instance, 1, value.clone()));
            let promise = acc.handle(&PaxosMsg::new(MsgType::Phase1a, instance, 2, Vec::new()));
            assert_eq!(promise[0].1.value, value, "instance {instance}");
        }
        assert_eq!(acc.long.len(), 2, "only the longer values are parked");
        // A shorter vote over a parked one moves it back inline.
        acc.handle(&PaxosMsg::new(MsgType::Phase2a, 2, 3, b"short".to_vec()));
        assert_eq!(acc.long.len(), 1);
        let promise = acc.handle(&PaxosMsg::new(MsgType::Phase1a, 2, 4, Vec::new()));
        assert_eq!(
            (promise[0].1.value.as_ref(), promise[0].1.vround),
            (&b"short"[..], 3)
        );
    }

    #[test]
    fn acceptor_refuses_instance_zero_and_instances_far_ahead() {
        let mut acc = Acceptor::new(0);
        let p2a = |instance| PaxosMsg::new(MsgType::Phase2a, instance, 1, b"v".to_vec());
        let p1a = |instance| PaxosMsg::new(MsgType::Phase1a, instance, 1, Vec::new());
        assert!(acc.handle(&p2a(0)).is_empty() && acc.handle(&p1a(0)).is_empty());
        assert!(acc.handle(&p2a(MAX_LEAD + 1)).is_empty());
        assert!(acc.handle(&p1a(1 << 40)).is_empty() && acc.handle(&p2a(u64::MAX)).is_empty());
        assert_eq!((acc.refused, acc.votes, acc.pages.len()), (5, 0, 0));
        // The edge of the span is in reach, and moves with `last_voted`.
        assert_eq!(acc.handle(&p2a(MAX_LEAD))[0].1.last_voted, MAX_LEAD);
        assert_eq!(acc.handle(&p1a(2 * MAX_LEAD)).len(), 1);
        assert!(acc.handle(&p2a(2 * MAX_LEAD + 1)).is_empty());
        assert_eq!((acc.refused, acc.votes), (6, 1));
    }

    /// Five commands decided, then one forged Phase 2a at `instance` sent
    /// to the first of three acceptors, its vote reaching the leader and
    /// the learner.
    fn after_a_forged_proposal(instance: u64) -> (Leader, Vec<Acceptor>, Learner) {
        let mut leader = Leader::bootstrap(1, 3);
        let mut accs: Vec<_> = (0..3).map(Acceptor::new).collect();
        let mut learner = Learner::new(3);
        for seq in 1..=5u64 {
            run_round(&mut leader, &mut accs, &mut learner, cmd(7, seq));
        }
        let forged = PaxosMsg::new(MsgType::Phase2a, instance, 9, cmd(66, 1));
        for (_, vote) in accs[0].handle(&forged) {
            leader.handle(&vote);
            learner.handle(&vote);
        }
        (leader, accs, learner)
    }

    #[test]
    fn a_forged_far_ahead_proposal_does_not_stall_the_log() {
        // At 2^40 the vote used to carry `last_voted` = 2^40 to the
        // leader, which proposed every later command past it: the
        // learner stopped at 5 with a gap at instance 6. Within the
        // acceptor's reach the vote is cast; a leader that followed one
        // acceptor's report proposed past the other two acceptors' reach
        // at the edge (no quorum and no gap, so the log stopped for good)
        // and behind a gap of 2^16 - 2 instances just inside it.
        for forged in [5 + MAX_LEAD - 1, 5 + MAX_LEAD, 1 << 40] {
            let (mut leader, mut accs, mut learner) = after_a_forged_proposal(forged);
            for seq in 6..=10u64 {
                let replies = run_round(&mut leader, &mut accs, &mut learner, cmd(7, seq));
                assert_eq!(replies.len(), 1, "command {seq} is answered after {forged}");
                assert_eq!(replies[0].1.instance, seq);
            }
            assert_eq!(learner.delivered_count, 10);
            assert!(!learner.has_gap());
            assert_eq!(accs[0].refused, u64::from(forged > 5 + MAX_LEAD));
        }
    }

    #[test]
    fn a_leader_numbers_past_what_a_quorum_reports() {
        // Proposing, a leader numbers on past the highest instance a
        // quorum has reported; recovering, past every report, as an
        // elected leader must to reach the end of the log.
        let far = 3 * MAX_LEAD;
        let mut leader = Leader::bootstrap(1, 3);
        leader.observe_last_voted(0, far);
        assert_eq!(leader.next_instance, 1);
        leader.observe_last_voted(2, far - 1);
        assert_eq!(leader.next_instance, far);
        leader.observe_last_voted(1, far);
        assert_eq!(leader.next_instance, far + 1);
        let (mut elected, _) = Leader::elected(2, 3);
        elected.observe_last_voted(1, far);
        assert_eq!(elected.next_instance, far + 1);
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
        for id in 0..2 {
            leader.observe_last_voted(id, 1); // Knows instance 1 is in use.
        }
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
        for id in 0..2 {
            leader.observe_last_voted(id, 5);
        }
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
