//! Full Multi-Paxos role state machines: ballots, scouts, commanders.
//!
//! The [`roles`](crate::roles) module implements the single-sequencer
//! pipeline the paper's Figure 7 measures: one leader per round, handed
//! over by the coordinator, with the §9.2 recovery extensions. That is
//! faithful to the P4xos deployment but it cannot *elect* — if the
//! sequencer dies, the experiment ends. This module implements the rest
//! of Multi-Paxos in the style of *Paxos Made Moderately Complex*
//! (PMMC): ballot-numbered [`Leader`]s that run a **scout** (phase 1)
//! to adopt a ballot and one **commander** (phase 2) per slot,
//! [`Acceptor`]s that promise and vote per ballot, and [`Replica`]s
//! that assign commands to slots, detect decision quorums, execute the
//! log in slot order and answer clients. Any number of leaders may
//! compete; safety never depends on timing.
//!
//! # Sans-IO contract
//!
//! Every machine is a pure state machine over the existing
//! [`PaxosMsg`] wire codec: `handle(&msg) -> Outbox` — the one entry
//! point per role — borrows one decoded message and returns, by value
//! and in send order, the messages it provokes, each tagged with a
//! routing [`Dest`]. Nothing here sleeps, reads a clock or touches a
//! socket — time advances only through explicit [`Leader::tick`] /
//! [`Replica::tick`] calls, which is what makes every interleaving
//! (drops, duplicates, reorders, partitions) replayable in a test.
//! The harness owns delivery: the same machines run over the
//! simulated UDP fabric, the chaos rig in `inc-bench`, and the
//! property tests.
//!
//! # Value ownership
//!
//! A command's bytes are allocated once per wire hop — by
//! [`PaxosMsg::decode`](crate::msg::PaxosMsg::decode) on the way in, or
//! by [`Replica::on_request`] for a command that enters here — and are
//! never copied inside a machine. Everything that parks a value (an
//! acceptor's accepted map, a leader's proposals and commanders, a
//! scout's pvalues, a replica's requests, proposals, votes, decisions
//! and log) and every outgoing message holds a [`Bytes`] handle on that
//! allocation; pvalues read out of a phase-1b batch are slices of the
//! batch. A step that sends at most one message allocates nothing: the
//! [`Outbox`] is inline-first and quorums are counted in a fixed bit
//! mask.
//!
//! # Ballots on the wire
//!
//! P4xos fixes the header at a 16-bit round, so a ballot — the pair
//! *(attempt number, leader id)* — is packed into those 16 bits:
//! the low [`Ballot::LEADER_BITS`] carry the leader id, the high bits
//! the attempt number (see [`Ballot::new`]). Numeric wire order is
//! exactly ballot order, so acceptors compare rounds the same way a
//! switch dataplane would.
//!
//! # Message mapping
//!
//! | PMMC message            | [`PaxosMsg`] encoding | routed to |
//! |-------------------------|------------------------|-----------|
//! | request (client→replica)| [`Replica::on_request`] (no message: the harness hands the command over) | — |
//! | propose (replica→leader)| `ClientRequest`, `instance = slot`, `value` = the command | [`Dest::Leader`] |
//! | p1a (scout)             | `Phase1a`, `round = ballot`, empty `value` | [`Dest::AllAcceptors`] |
//! | p1b (promise)           | `Phase1b`, `round = promised`, `vround` echoes the scouted ballot, `value` = accepted pvalues ([`encode_pvalues`]) | [`Dest::Reply`] |
//! | p2a (commander)         | `Phase2a`, `instance = slot`, `round = ballot`, `value` shared with the proposal | [`Dest::AllAcceptors`] |
//! | p2b (vote)              | `Phase2b`, `round = vround = ballot`, `value` shared with the p2a | [`Dest::AllLearners`] |
//! | p2b (refusal)           | `Phase2b`, `round = promised`, `vround = 0`, empty `value` | [`Dest::Reply`] |
//! | decision                | none — replicas count `Phase2b` quorums themselves | — |
//! | reply (replica→client)  | `ClientReply`, `value` shared with the decision | [`Dest::Client`] |
//!
//! # Safety invariants
//!
//! The two properties the chaos suite pins (see
//! `tests/failure_injection.rs`):
//!
//! 1. **Single value per slot** — once a quorum of acceptors votes for
//!    a value in some ballot at a slot, every later ballot's scout
//!    learns that pvalue (quorums intersect) and re-proposes it, so no
//!    conflicting value can gather a quorum.
//! 2. **Identical executed prefixes** — replicas execute decisions in
//!    strict slot order ([`Replica::tick`] re-proposes rather than
//!    skips), so any two replicas' executed logs agree on their common
//!    prefix.
//!
//! [`PaxosMsg`]: crate::msg::PaxosMsg

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use inc_net::Bytes;

use crate::msg::{ClientCommand, MsgType, PaxosMsg, MAX_VALUE_LEN};
use crate::outbox::{Outbox, Routed};
use crate::roles::{AcceptorSet, Dest};

/// A Multi-Paxos ballot: an attempt number qualified by the proposing
/// leader's identity, totally ordered and packable into the P4xos
/// 16-bit round field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot(u16);

impl Ballot {
    /// Low bits of the wire word carrying the leader id; the remaining
    /// high bits carry the attempt number. 16 leaders × 4096 attempts
    /// fits the P4xos header with room to spare for a simulation.
    pub const LEADER_BITS: u16 = 4;

    /// The null ballot: below every real ballot (real attempt numbers
    /// start at 1). An acceptor that has promised nothing holds this.
    pub const NONE: Ballot = Ballot(0);

    /// Highest representable attempt number.
    pub const MAX_NUM: u16 = (u16::MAX >> Self::LEADER_BITS) - 1;

    /// Packs `(num, leader)` into a ballot.
    ///
    /// # Panics
    ///
    /// Panics if `leader` does not fit [`Ballot::LEADER_BITS`] or
    /// `num` exceeds [`Ballot::MAX_NUM`].
    pub fn new(num: u16, leader: u8) -> Ballot {
        assert!(
            u16::from(leader) < (1 << Self::LEADER_BITS),
            "leader id {leader} does not fit the ballot's leader bits"
        );
        assert!(num <= Self::MAX_NUM, "ballot number {num} overflows");
        Ballot((num << Self::LEADER_BITS) | u16::from(leader))
    }

    /// The attempt number.
    pub fn num(self) -> u16 {
        self.0 >> Self::LEADER_BITS
    }

    /// The proposing leader's id.
    pub fn leader(self) -> u8 {
        (self.0 & ((1 << Self::LEADER_BITS) - 1)) as u8
    }

    /// The 16-bit wire form (the `round` field of a [`PaxosMsg`]).
    ///
    /// [`PaxosMsg`]: crate::msg::PaxosMsg
    pub fn wire(self) -> u16 {
        self.0
    }

    /// Decodes a wire round. Total: every 16-bit word is some ballot,
    /// so garbage input cannot panic here.
    pub fn from_wire(w: u16) -> Ballot {
        Ballot(w)
    }
}

impl std::fmt::Display for Ballot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}.{}", self.num(), self.leader())
    }
}

/// One accepted (slot, ballot, value) triple — what a phase-1b promise
/// reports so a new leader can re-propose instead of overwrite.
pub type PValue = (u64, Ballot, Bytes);

/// Bytes one encoded pvalue occupies in a phase-1b batch.
fn pvalue_len(value: &[u8]) -> usize {
    8 + 2 + 2 + value.len()
}

/// Encodes an acceptor's accepted map into the `value` field of a
/// phase-1b message: repeated `slot:u64 | ballot:u16 | len:u16 | bytes`.
///
/// The batch must fit the codec's [`MAX_VALUE_LEN`] — a promise that
/// silently dropped pvalues would let a new leader overwrite a chosen
/// value, so an oversized batch is a hard error, not a truncation.
/// Acceptors keep the map small by [`Acceptor::compact`]ing slots every
/// replica has executed.
///
/// # Panics
///
/// Panics if the encoded batch would exceed [`MAX_VALUE_LEN`].
pub fn encode_pvalues<V: AsRef<[u8]>>(accepted: &BTreeMap<u64, (Ballot, V)>) -> Vec<u8> {
    let total: usize = accepted.values().map(|(_, v)| pvalue_len(v.as_ref())).sum();
    assert!(
        total <= MAX_VALUE_LEN,
        "phase-1b pvalue batch ({total} bytes) exceeds the wire limit; \
         compact the acceptor before it accumulates this much state"
    );
    let mut out = Vec::with_capacity(total);
    for (&slot, (ballot, value)) in accepted {
        let value = value.as_ref();
        out.extend_from_slice(&slot.to_be_bytes());
        out.extend_from_slice(&ballot.wire().to_be_bytes());
        out.extend_from_slice(&(value.len() as u16).to_be_bytes());
        out.extend_from_slice(value);
    }
    out
}

/// Decodes a phase-1b pvalue batch. Total and panic-free: a truncated
/// or garbage suffix simply ends the batch (the fuzz property in
/// `tests/properties.rs` pins this), which is safe because a scout
/// only ever *adds* pvalues it can read — an unreadable tail is
/// indistinguishable from a shorter promise and is covered by quorum
/// intersection exactly like a dropped message.
///
/// Zero-copy: each value is a [`Bytes::slice`] of `batch`, so the values
/// a scout learns share the promise's one allocation (and keep it alive
/// for as long as any of them is held).
pub fn decode_pvalues(batch: &Bytes) -> Vec<PValue> {
    fn arr<const N: usize>(buf: &[u8], at: usize) -> Option<[u8; N]> {
        buf.get(at..at + N)
            .and_then(|s| <[u8; N]>::try_from(s).ok())
    }
    let mut out = Vec::new();
    // Invariant: `at <= batch.len()`, so the offsets below cannot wrap.
    let mut at = 0;
    while let (Some(slot_b), Some(ballot_b), Some(len_b)) = (
        arr::<8>(batch, at),
        arr::<2>(batch, at + 8),
        arr::<2>(batch, at + 10),
    ) {
        let slot = u64::from_be_bytes(slot_b);
        let ballot = Ballot::from_wire(u16::from_be_bytes(ballot_b));
        let start = at + 12;
        let end = start + u16::from_be_bytes(len_b) as usize;
        // `Bytes::slice` asserts its range: check the claimed length
        // against the batch first, so a lying length ends the batch
        // instead of panicking.
        if end > batch.len() {
            break;
        }
        out.push((slot, ballot, batch.slice(start..end)));
        at = end;
    }
    out
}

/// The ballot-aware acceptor: one promise across all slots, one
/// accepted pvalue per slot.
///
/// Unlike the per-instance [`roles::Acceptor`](crate::roles::Acceptor),
/// promises here are global — a phase-1a covers every slot at once and
/// its phase-1b reports the whole accepted map, which is what lets a
/// new leader adopt mid-stream without a per-slot round trip.
#[derive(Clone, Debug)]
pub struct Acceptor {
    /// This acceptor's identity.
    pub id: u8,
    /// Highest ballot promised (across all slots).
    promised: Ballot,
    /// Accepted pvalues: slot → (ballot, value).
    accepted: BTreeMap<u64, (Ballot, Bytes)>,
    /// Votes cast (statistics; the chaos rig meters offered rate off
    /// this).
    pub votes: u64,
}

impl Acceptor {
    /// Creates an acceptor that has promised nothing.
    pub fn new(id: u8) -> Self {
        Acceptor {
            id,
            promised: Ballot::NONE,
            accepted: BTreeMap::new(),
            votes: 0,
        }
    }

    /// The highest ballot promised so far.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The accepted pvalue at `slot`, if any.
    pub fn accepted(&self, slot: u64) -> Option<&(Ballot, Bytes)> {
        self.accepted.get(&slot)
    }

    /// Number of slots with an accepted pvalue.
    pub fn accepted_len(&self) -> usize {
        self.accepted.len()
    }

    /// Drops accepted pvalues below `slot` (exclusive): state GC once
    /// every replica has executed the prefix. Keeps phase-1b batches
    /// within the wire bound on long runs.
    pub fn compact(&mut self, slot: u64) {
        self.accepted = self.accepted.split_off(&slot);
    }

    /// Handles one message. Phase-1a and phase-2a are meaningful;
    /// everything else (including garbage a chaos net may route here)
    /// is ignored.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        match msg.mtype {
            MsgType::Phase1a => {
                let b = Ballot::from_wire(msg.round);
                if b > self.promised {
                    self.promised = b;
                }
                // Promise (or refuse, carrying the higher promise): the
                // requesting scout attributes the reply by the echoed
                // ballot in `vround` and reads acceptance off `round`.
                let reply = PaxosMsg {
                    mtype: MsgType::Phase1b,
                    instance: 0,
                    round: self.promised.wire(),
                    vround: msg.round,
                    acceptor: self.id,
                    last_voted: self.accepted.keys().next_back().copied().unwrap_or(0),
                    value: encode_pvalues(&self.accepted).into(),
                };
                Outbox::One((Dest::Reply, reply))
            }
            MsgType::Phase2a => {
                let b = Ballot::from_wire(msg.round);
                if b >= self.promised {
                    self.promised = b;
                    self.accepted.insert(msg.instance, (b, msg.value.clone()));
                    self.votes += 1;
                    let vote = PaxosMsg {
                        mtype: MsgType::Phase2b,
                        instance: msg.instance,
                        round: b.wire(),
                        vround: b.wire(),
                        acceptor: self.id,
                        last_voted: self.accepted.keys().next_back().copied().unwrap_or(0),
                        value: msg.value.clone(),
                    };
                    // Replicas count the quorum; leaders piggyback on
                    // the same broadcast for commander progress and
                    // preemption.
                    Outbox::One((Dest::AllLearners, vote))
                } else {
                    // Stale ballot: tell the sender who preempted it.
                    // `vround = 0` marks this as a refusal, not a vote.
                    let nack = PaxosMsg {
                        mtype: MsgType::Phase2b,
                        instance: msg.instance,
                        round: self.promised.wire(),
                        vround: Ballot::NONE.wire(),
                        acceptor: self.id,
                        last_voted: self.accepted.keys().next_back().copied().unwrap_or(0),
                        value: Bytes::new(),
                    };
                    Outbox::One((Dest::Reply, nack))
                }
            }
            _ => Outbox::Empty,
        }
    }
}

/// Scout state: the phase-1 quorum hunt for one ballot.
#[derive(Clone, Debug, Default)]
struct Scout {
    /// Acceptors that promised this ballot.
    promised: AcceptorSet,
    /// Highest-ballot pvalue learned per slot.
    pvalues: BTreeMap<u64, (Ballot, Bytes)>,
    /// Ticks since the phase-1a was last sent (retransmit under loss).
    age: u32,
}

/// Commander state: the phase-2 quorum hunt for one slot.
#[derive(Clone, Debug)]
struct Commander {
    /// Acceptors that voted for this ballot at this slot.
    voters: AcceptorSet,
    /// The value being pushed.
    value: Bytes,
    /// Ticks since the phase-2a was last sent (retransmit under loss).
    age: u32,
}

impl Commander {
    fn new(value: Bytes) -> Self {
        Commander {
            voters: AcceptorSet::default(),
            value,
            age: 0,
        }
    }
}

/// The ballot-numbered leader: a scout adopts a ballot, commanders push
/// one value per slot, and a higher ballot anywhere preempts it back to
/// a follower with a deterministic election backoff.
///
/// Election is timeout-driven: a passive leader counts [`Leader::tick`]
/// calls and scouts when its backoff expires; observing phase-2b
/// traffic from a live rival resets the countdown, so a healthy leader
/// is not challenged while it keeps deciding. The backoff is scaled by
/// `leader id + 1`, so two preempted leaders never re-scout on the same
/// tick forever (the classic dueling-leaders livelock is broken by
/// construction, not by randomness).
#[derive(Clone, Debug)]
pub struct Leader {
    /// This leader's identity (must fit [`Ballot::LEADER_BITS`]).
    pub id: u8,
    quorum: usize,
    /// The ballot this leader currently owns (or last owned).
    ballot: Ballot,
    /// Whether the ballot was adopted by a phase-1 quorum.
    active: bool,
    /// Highest ballot number observed anywhere (the next scout bids
    /// above it).
    highest_num: u16,
    /// Values this leader is responsible for pushing: slot → value.
    /// Replicas re-propose on timeout, so losing this map to a crash
    /// would be recovered by the protocol; keeping it makes adoption
    /// replay cheap.
    proposals: BTreeMap<u64, Bytes>,
    scout: Option<Scout>,
    commanders: BTreeMap<u64, Commander>,
    /// Slots whose commander reached a quorum (kept so duplicate
    /// proposals do not respawn finished commanders).
    decided: BTreeSet<u64>,
    /// Countdown to the next election attempt while passive.
    countdown: u32,
    /// Times this leader was preempted by a higher ballot.
    pub preemptions: u64,
    /// Ballots this leader successfully adopted.
    pub adoptions: u64,
    /// Phase-2a messages sent (statistics; the chaos rig meters the
    /// leader tenant's offered rate off this).
    pub proposals_sent: u64,
}

impl Leader {
    /// Passive backoff base, in ticks: leader `i` waits
    /// `(i + 1) × base` after a preemption (or at start-of-day) before
    /// scouting.
    pub const BACKOFF_BASE: u32 = 8;

    /// Retransmit interval for unanswered phase-1a/2a messages, ticks.
    pub const RETRANSMIT_TICKS: u32 = 4;

    /// Creates a passive leader for a cluster of `n_acceptors`. The
    /// initial election countdown is `(id + 1) × backoff`, so leader 0
    /// wins the uncontested start-of-day race.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not fit [`Ballot::LEADER_BITS`] or
    /// `n_acceptors` is zero.
    pub fn new(id: u8, n_acceptors: usize) -> Self {
        assert!(
            u16::from(id) < (1 << Ballot::LEADER_BITS),
            "leader id {id} does not fit the ballot's leader bits"
        );
        assert!(n_acceptors > 0, "a cluster needs at least one acceptor");
        Leader {
            id,
            quorum: n_acceptors / 2 + 1,
            ballot: Ballot::NONE,
            active: false,
            highest_num: 0,
            proposals: BTreeMap::new(),
            scout: None,
            commanders: BTreeMap::new(),
            decided: BTreeSet::new(),
            countdown: Self::election_backoff(id),
            preemptions: 0,
            adoptions: 0,
            proposals_sent: 0,
        }
    }

    /// Ticks leader `id` stays passive before scouting: scaled by
    /// `id + 1`, so two preempted leaders never re-scout in lockstep.
    fn election_backoff(id: u8) -> u32 {
        (u32::from(id) + 1) * Self::BACKOFF_BASE
    }

    /// Whether this leader currently holds an adopted ballot.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The ballot this leader owns (or last owned).
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// Starts a scout for a fresh ballot above everything observed.
    /// Returns the phase-1a to broadcast. Idempotent while a scout for
    /// the current ballot is already out.
    pub fn start_scout(&mut self) -> Outbox {
        let num = self.highest_num.max(self.ballot.num()) + 1;
        self.ballot = Ballot::new(num, self.id);
        self.active = false;
        self.scout = Some(Scout::default());
        self.commanders.clear();
        self.p1a()
    }

    fn p1a(&self) -> Outbox {
        Outbox::One((
            Dest::AllAcceptors,
            PaxosMsg::new(MsgType::Phase1a, 0, self.ballot.wire(), Bytes::new()),
        ))
    }

    /// Builds (and counts) the phase-2a for `slot`. Takes the leader's
    /// fields one by one so a caller can be iterating `proposals` or
    /// `commanders` meanwhile.
    fn p2a(sent: &mut u64, ballot: Ballot, slot: u64, value: Bytes) -> Routed {
        *sent += 1;
        (
            Dest::AllAcceptors,
            PaxosMsg::new(MsgType::Phase2a, slot, ballot.wire(), value),
        )
    }

    /// Records a higher ballot sighted at `wire`: preemption if we were
    /// active or scouting, otherwise just intelligence for the next
    /// bid.
    fn preempted_by(&mut self, wire: u16) {
        let seen = Ballot::from_wire(wire);
        if seen.num() > self.highest_num {
            self.highest_num = seen.num();
        }
        if self.active || self.scout.is_some() {
            self.active = false;
            self.scout = None;
            self.commanders.clear();
            self.preemptions += 1;
            self.countdown = Self::election_backoff(self.id);
        }
    }

    /// Handles one message.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        match msg.mtype {
            // A replica's proposal: value for a specific slot.
            MsgType::ClientRequest if msg.instance > 0 => {
                let slot = msg.instance;
                if self.decided.contains(&slot) {
                    return Outbox::Empty;
                }
                // First come, first kept: a rival proposal for a slot we
                // already hold a value for is ignored.
                let value = self
                    .proposals
                    .entry(slot)
                    .or_insert_with(|| msg.value.clone());
                if self.active && !self.commanders.contains_key(&slot) {
                    let value = value.clone();
                    self.commanders.insert(slot, Commander::new(value.clone()));
                    return Outbox::One(Self::p2a(
                        &mut self.proposals_sent,
                        self.ballot,
                        slot,
                        value,
                    ));
                }
                Outbox::Empty
            }
            MsgType::Phase1b => {
                // Attribute by the echoed request ballot; a reply to an
                // older scout of ours (or of anyone else) is stale.
                if msg.vround != self.ballot.wire() {
                    return Outbox::Empty;
                }
                if Ballot::from_wire(msg.round) > self.ballot {
                    self.preempted_by(msg.round);
                    return Outbox::Empty;
                }
                let Some(scout) = self.scout.as_mut() else {
                    return Outbox::Empty;
                };
                if msg.round != self.ballot.wire() {
                    return Outbox::Empty;
                }
                scout.promised.insert(msg.acceptor);
                for (slot, ballot, value) in decode_pvalues(&msg.value) {
                    let keep = scout.pvalues.get(&slot).is_none_or(|(b, _)| ballot > *b);
                    if keep {
                        scout.pvalues.insert(slot, (ballot, value));
                    }
                }
                if scout.promised.len() < self.quorum {
                    return Outbox::Empty;
                }
                // Adopted: accepted pvalues override our own proposals
                // (the PMMC `pmax` merge), then every proposal gets a
                // commander.
                let pvalues = std::mem::take(&mut scout.pvalues);
                self.scout = None;
                self.active = true;
                self.adoptions += 1;
                for (slot, (_, value)) in pvalues {
                    self.proposals.insert(slot, value);
                }
                let mut out = Outbox::Empty;
                for (&slot, value) in &self.proposals {
                    if self.decided.contains(&slot) {
                        continue;
                    }
                    self.commanders.insert(slot, Commander::new(value.clone()));
                    out.push(Self::p2a(
                        &mut self.proposals_sent,
                        self.ballot,
                        slot,
                        value.clone(),
                    ));
                }
                out
            }
            MsgType::Phase2b => {
                // A rival's healthy decision traffic postpones our own
                // election ambitions (failure detection by silence).
                // This must run before the preemption check: a passive
                // leader's own ballot is usually stale, and bailing out
                // early would let its election countdown drain while a
                // perfectly live rival keeps deciding slots (dueling
                // leaders).
                let b = Ballot::from_wire(msg.round);
                if !self.active && b.leader() != self.id && msg.vround == msg.round {
                    self.countdown = Self::election_backoff(self.id);
                }
                if b > self.ballot {
                    self.preempted_by(msg.round);
                    return Outbox::Empty;
                }
                if self.active && msg.round == self.ballot.wire() && msg.vround == msg.round {
                    if let Some(cmd) = self.commanders.get_mut(&msg.instance) {
                        cmd.voters.insert(msg.acceptor);
                        if cmd.voters.len() >= self.quorum {
                            self.commanders.remove(&msg.instance);
                            self.decided.insert(msg.instance);
                        }
                    }
                }
                Outbox::Empty
            }
            _ => Outbox::Empty,
        }
    }

    /// Advances time by one tick: passive leaders count down to an
    /// election, scouts and commanders retransmit unanswered phase
    /// messages (liveness under loss).
    pub fn tick(&mut self) -> Outbox {
        if let Some(scout) = self.scout.as_mut() {
            scout.age += 1;
            if scout.age >= Self::RETRANSMIT_TICKS {
                scout.age = 0;
                return self.p1a();
            }
            return Outbox::Empty;
        }
        if !self.active {
            self.countdown = self.countdown.saturating_sub(1);
            if self.countdown == 0 {
                self.countdown = Self::election_backoff(self.id);
                return self.start_scout();
            }
            return Outbox::Empty;
        }
        let mut out = Outbox::Empty;
        for (&slot, cmd) in &mut self.commanders {
            cmd.age += 1;
            if cmd.age >= Self::RETRANSMIT_TICKS {
                cmd.age = 0;
                out.push(Self::p2a(
                    &mut self.proposals_sent,
                    self.ballot,
                    slot,
                    cmd.value.clone(),
                ));
            }
        }
        out
    }
}

/// The replica: assigns client commands to slots, proposes them to the
/// leaders, learns decisions from phase-2b quorums, executes in slot
/// order and answers clients exactly once.
#[derive(Clone, Debug)]
pub struct Replica {
    /// This replica's identity.
    pub id: u8,
    quorum: usize,
    /// Max open (proposed, undecided) slots ahead of the execution
    /// point — the PMMC window.
    window: u64,
    /// Next slot to assign a command to.
    slot_in: u64,
    /// Next slot to execute.
    slot_out: u64,
    /// Commands awaiting a slot.
    requests: VecDeque<Bytes>,
    /// Our in-flight assignments: slot → command.
    proposals: BTreeMap<u64, Bytes>,
    /// Vote accumulation per slot: (ballot wire, voters, value).
    votes: BTreeMap<u64, (u16, AcceptorSet, Bytes)>,
    /// Decided but not necessarily executed: slot → value.
    decisions: BTreeMap<u64, Bytes>,
    /// Commands already executed (at-most-once bookkeeping).
    executed: BTreeSet<(u32, u64)>,
    /// Executed log in slot order (what prefix agreement is asserted
    /// on).
    pub log: Vec<(u64, Bytes)>,
    /// Commands executed (excluding no-op fills and duplicates).
    pub executed_count: u64,
    /// Duplicate command deliveries (retries that were ordered twice).
    pub duplicates: u64,
    age: u32,
}

impl Replica {
    /// Default slot window.
    pub const WINDOW: u64 = 32;

    /// Retransmit interval for undecided proposals, ticks.
    pub const RETRANSMIT_TICKS: u32 = 6;

    /// Creates a replica for a cluster of `n_acceptors`.
    ///
    /// # Panics
    ///
    /// Panics if `n_acceptors` is zero.
    pub fn new(id: u8, n_acceptors: usize) -> Self {
        assert!(n_acceptors > 0, "a cluster needs at least one acceptor");
        Replica {
            id,
            quorum: n_acceptors / 2 + 1,
            window: Self::WINDOW,
            slot_in: 1,
            slot_out: 1,
            requests: VecDeque::new(),
            proposals: BTreeMap::new(),
            votes: BTreeMap::new(),
            decisions: BTreeMap::new(),
            executed: BTreeSet::new(),
            log: Vec::new(),
            executed_count: 0,
            duplicates: 0,
            age: 0,
        }
    }

    /// Next slot to execute (the length of the executed prefix + 1).
    pub fn slot_out(&self) -> u64 {
        self.slot_out
    }

    /// The decided value at `slot`, if this replica has learned one.
    pub fn decision(&self, slot: u64) -> Option<&Bytes> {
        self.decisions.get(&slot)
    }

    /// Iterates every decision this replica has learned, slot-ascending
    /// (the chaos suite's single-value-per-slot oracle reads this).
    pub fn decisions(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.decisions.iter().map(|(&s, v)| (s, v.as_ref()))
    }

    /// Commands queued or in flight but not yet executed.
    pub fn pending(&self) -> usize {
        self.requests.len() + self.proposals.len()
    }

    /// Accepts one client command and proposes it into the next free
    /// slot (window permitting). A `Vec<u8>` is moved into its
    /// refcounted buffer here — the command's one allocation on this
    /// replica; a [`Bytes`] is taken as is.
    pub fn on_request(&mut self, command: impl Into<Bytes>) -> Outbox {
        self.requests.push_back(command.into());
        self.drive()
    }

    /// Assigns queued commands to slots and emits proposals to the
    /// leaders.
    fn drive(&mut self) -> Outbox {
        let mut out = Outbox::Empty;
        while !self.requests.is_empty() && self.slot_in < self.slot_out + self.window {
            if self.decisions.contains_key(&self.slot_in) {
                // Slot already decided by someone else's proposal.
                self.slot_in += 1;
                continue;
            }
            let Some(command) = self.requests.pop_front() else {
                break;
            };
            self.proposals.insert(self.slot_in, command.clone());
            out.push((
                Dest::Leader,
                PaxosMsg::new(MsgType::ClientRequest, self.slot_in, 0, command),
            ));
            self.slot_in += 1;
        }
        out
    }

    /// Handles one message (phase-2b votes; everything else is
    /// ignored).
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        if msg.mtype != MsgType::Phase2b {
            return Outbox::Empty;
        }
        // Refusals (`vround = 0`) and mismatched echoes are not votes.
        if msg.vround == Ballot::NONE.wire() || msg.vround != msg.round {
            return Outbox::Empty;
        }
        if msg.instance < self.slot_out && self.decisions.contains_key(&msg.instance) {
            return Outbox::Empty;
        }
        let entry = self
            .votes
            .entry(msg.instance)
            .or_insert_with(|| (msg.round, AcceptorSet::default(), msg.value.clone()));
        if msg.round > entry.0 {
            // A newer ballot supersedes the accumulated votes.
            *entry = (msg.round, AcceptorSet::default(), msg.value.clone());
        }
        if msg.round < entry.0 {
            return Outbox::Empty;
        }
        entry.1.insert(msg.acceptor);
        if entry.1.len() < self.quorum {
            return Outbox::Empty;
        }
        // Quorum: the tally's handle on the value becomes the decision's.
        if let Some((_, _, value)) = self.votes.remove(&msg.instance) {
            self.decisions.entry(msg.instance).or_insert(value);
        }
        self.perform()
    }

    /// Executes decided slots in order; re-queues our own commands that
    /// lost their slot to someone else's value.
    fn perform(&mut self) -> Outbox {
        let mut out = Outbox::Empty;
        while let Some(value) = self.decisions.get(&self.slot_out).cloned() {
            self.age = 0;
            if let Some(ours) = self.proposals.remove(&self.slot_out) {
                if ours != value {
                    // Our command lost this slot: send it around again.
                    self.requests.push_back(ours);
                }
            }
            if let Some((client, seq)) = ClientCommand::header(&value) {
                if self.executed.insert((client, seq)) {
                    self.executed_count += 1;
                    self.log.push((self.slot_out, value.clone()));
                } else {
                    self.duplicates += 1;
                }
                let reply = PaxosMsg {
                    mtype: MsgType::ClientReply,
                    instance: self.slot_out,
                    round: 0,
                    vround: 0,
                    acceptor: self.id,
                    last_voted: 0,
                    value,
                };
                out.push((Dest::Client(client), reply));
            }
            self.slot_out += 1;
        }
        out.extend(self.drive());
        out
    }

    /// Advances time by one tick: undecided proposals are re-sent to
    /// the leaders after [`Replica::RETRANSMIT_TICKS`] without
    /// execution progress, which is what re-seeds a freshly elected
    /// leader with the commands its predecessor took to the grave.
    pub fn tick(&mut self) -> Outbox {
        if self.proposals.is_empty() && self.requests.is_empty() {
            return Outbox::Empty;
        }
        self.age += 1;
        if self.age < Self::RETRANSMIT_TICKS {
            return Outbox::Empty;
        }
        self.age = 0;
        let mut out: Outbox = self
            .proposals
            .iter()
            .map(|(&slot, value)| {
                (
                    Dest::Leader,
                    PaxosMsg::new(MsgType::ClientRequest, slot, 0, value.clone()),
                )
            })
            .collect();
        out.extend(self.drive());
        out
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
            payload: vec![seq as u8],
        }
        .encode()
    }

    /// Drains every queued message through the cluster, loss-free, in
    /// FIFO order. Returns client replies.
    struct Net {
        replicas: Vec<Replica>,
        leaders: Vec<Leader>,
        acceptors: Vec<Acceptor>,
        replies: Vec<PaxosMsg>,
    }

    impl Net {
        fn new(n_replicas: usize, n_leaders: usize, n_acceptors: usize) -> Self {
            Net {
                replicas: (0..n_replicas as u8)
                    .map(|i| Replica::new(i, n_acceptors))
                    .collect(),
                leaders: (0..n_leaders as u8)
                    .map(|i| Leader::new(i, n_acceptors))
                    .collect(),
                acceptors: (0..n_acceptors as u8).map(Acceptor::new).collect(),
                replies: Vec::new(),
            }
        }

        /// Routes `out` from a given origin kind until quiescent.
        fn route(&mut self, from_leader: Option<u8>, out: Outbox) {
            let mut queue: VecDeque<(Option<u8>, Dest, PaxosMsg)> =
                out.into_iter().map(|(d, m)| (from_leader, d, m)).collect();
            while let Some((origin, dest, msg)) = queue.pop_front() {
                match dest {
                    Dest::AllAcceptors => {
                        for k in 0..self.acceptors.len() {
                            for (d, m) in self.acceptors[k].handle(&msg) {
                                let d = if d == Dest::Reply {
                                    // Back to the requesting leader.
                                    Dest::Leader
                                } else {
                                    d
                                };
                                queue.push_back((origin, d, m));
                            }
                        }
                    }
                    Dest::AllLearners => {
                        for k in 0..self.replicas.len() {
                            for e in self.replicas[k].handle(&msg) {
                                queue.push_back((None, e.0, e.1));
                            }
                        }
                        for k in 0..self.leaders.len() {
                            let lid = self.leaders[k].id;
                            for e in self.leaders[k].handle(&msg) {
                                queue.push_back((Some(lid), e.0, e.1));
                            }
                        }
                    }
                    Dest::Leader => {
                        if let Some(l) = origin {
                            // A reply routed back to one leader.
                            let k = self.leaders.iter().position(|x| x.id == l).unwrap();
                            for e in self.leaders[k].handle(&msg) {
                                queue.push_back((Some(l), e.0, e.1));
                            }
                        } else {
                            for k in 0..self.leaders.len() {
                                let lid = self.leaders[k].id;
                                for e in self.leaders[k].handle(&msg) {
                                    queue.push_back((Some(lid), e.0, e.1));
                                }
                            }
                        }
                    }
                    Dest::Client(_) => self.replies.push(msg),
                    Dest::Reply => unreachable!("replies are rewritten at the hop"),
                }
            }
        }

        fn submit(&mut self, r: usize, value: Vec<u8>) {
            let out = self.replicas[r].on_request(value);
            self.route(None, out);
        }

        fn elect(&mut self, l: usize) {
            let lid = self.leaders[l].id;
            let out = self.leaders[l].start_scout();
            self.route(Some(lid), out);
        }
    }

    #[test]
    fn ballot_packing_orders_by_num_then_leader() {
        let b = Ballot::new(3, 2);
        assert_eq!(b.num(), 3);
        assert_eq!(b.leader(), 2);
        assert_eq!(Ballot::from_wire(b.wire()), b);
        assert!(Ballot::new(2, 15) < Ballot::new(3, 0));
        assert!(Ballot::new(3, 0) < Ballot::new(3, 1));
        assert!(Ballot::NONE < Ballot::new(1, 0));
        assert_eq!(format!("{}", Ballot::new(3, 2)), "b3.2");
    }

    #[test]
    fn pvalues_round_trip() {
        let mut accepted = BTreeMap::new();
        accepted.insert(4, (Ballot::new(1, 0), Bytes::from_static(b"abc")));
        accepted.insert(9, (Ballot::new(2, 1), Bytes::new()));
        let buf = encode_pvalues(&accepted);
        let got = decode_pvalues(&Bytes::from(buf.clone()));
        assert_eq!(
            got,
            vec![
                (4, Ballot::new(1, 0), Bytes::from_static(b"abc")),
                (9, Ballot::new(2, 1), Bytes::new()),
            ]
        );
        // The same batch encodes from plain vectors (the generic bound).
        let plain: BTreeMap<u64, (Ballot, Vec<u8>)> = accepted
            .iter()
            .map(|(&slot, (b, v))| (slot, (*b, v.to_vec())))
            .collect();
        assert_eq!(encode_pvalues(&plain), buf);
        // Truncated batches end cleanly, they do not panic.
        let cut = Bytes::copy_from_slice(&buf[..buf.len() - 1]);
        assert_eq!(decode_pvalues(&cut).len(), 1);
        assert!(decode_pvalues(&Bytes::from_static(&[0xFF; 5])).is_empty());
        // A length field that claims more than the batch holds ends it.
        let mut lying = buf.clone();
        lying[10..12].copy_from_slice(&u16::MAX.to_be_bytes());
        assert!(decode_pvalues(&Bytes::from(lying)).is_empty());
    }

    #[test]
    fn pvalues_read_back_as_slices_of_the_batch() {
        let mut accepted = BTreeMap::new();
        for slot in 1..=3u64 {
            accepted.insert(slot, (Ballot::new(1, 0), cmd(1, slot)));
        }
        let batch = Bytes::from(encode_pvalues(&accepted));
        let base = batch.as_ptr() as usize;
        for (slot, _, value) in decode_pvalues(&batch) {
            let at = value.as_ptr() as usize - base;
            assert_eq!(at, (slot as usize - 1) * pvalue_len(&value) + 12);
            assert_eq!(value, cmd(1, slot));
        }
    }

    #[test]
    fn role_structs_stay_small() {
        // `paxos_chaos/setup_s` builds and drops 200 clusters per sample
        // and is sensitive to the allocator size class of the role
        // vectors: giving each machine its own reusable `Vec` outbox
        // (Acceptor 40 -> 64 B, Replica 216 -> 240 B, Leader 192 -> 224 B)
        // cost +75 % set-up time against a 25 % bound. That is why
        // `handle` returns an inline-first `Outbox` by value. A new field
        // here must pay for itself on that metric first.
        assert!(std::mem::size_of::<Acceptor>() <= 40);
        assert!(std::mem::size_of::<Replica>() <= 216);
        assert!(std::mem::size_of::<Leader>() <= 192);
    }

    #[test]
    fn a_vote_shares_the_proposal_bytes() {
        let mut acc = Acceptor::new(0);
        let value = Bytes::from(cmd(1, 1));
        let p2a = PaxosMsg::new(MsgType::Phase2a, 1, Ballot::new(1, 0).wire(), value.clone());
        let out = acc.handle(&p2a);
        let stored = &acc.accepted(1).unwrap().1;
        assert_eq!(stored.as_ptr(), value.as_ptr());
        assert_eq!(out[0].1.value.as_ptr(), value.as_ptr());
    }

    #[test]
    fn happy_path_single_leader() {
        let mut net = Net::new(2, 1, 3);
        net.elect(0);
        assert!(net.leaders[0].is_active());
        for seq in 1..=5 {
            net.submit(0, cmd(7, seq));
        }
        assert_eq!(net.replicas[0].executed_count, 5);
        assert_eq!(net.replicas[1].executed_count, 5);
        assert_eq!(net.replicas[0].log, net.replicas[1].log);
        assert_eq!(net.replies.len(), 10); // each replica answers
    }

    #[test]
    fn acceptor_rejects_stale_ballot_and_reports_promiser() {
        let mut acc = Acceptor::new(0);
        let high = Ballot::new(5, 1);
        acc.handle(&PaxosMsg::new(MsgType::Phase1a, 0, high.wire(), Vec::new()));
        assert_eq!(acc.promised(), high);
        let stale = PaxosMsg::new(MsgType::Phase2a, 3, Ballot::new(2, 0).wire(), b"v".to_vec());
        let out = acc.handle(&stale);
        assert_eq!(out.len(), 1);
        let (dest, nack) = &out[0];
        assert_eq!(*dest, Dest::Reply);
        assert_eq!(nack.round, high.wire());
        assert_eq!(nack.vround, Ballot::NONE.wire());
        assert_eq!(acc.accepted(3), None);
    }

    #[test]
    fn new_leader_adopts_and_reproposes_accepted_values() {
        // A quorum accepted "old" at slot 1 under leader 0's ballot but
        // the decision never reached the replicas. Leader 1 must
        // re-propose "old", not its own value.
        let b0 = Ballot::new(1, 0);
        let mut net = Net::new(1, 2, 3);
        for acc in net.acceptors.iter_mut().take(2) {
            acc.handle(&PaxosMsg::new(
                MsgType::Phase2a,
                1,
                b0.wire(),
                b"old".to_vec(),
            ));
        }
        // Leader 1 already has a rival proposal for slot 1.
        net.leaders[1].handle(&PaxosMsg::new(
            MsgType::ClientRequest,
            1,
            0,
            b"mine".to_vec(),
        ));
        net.elect(1);
        assert!(net.leaders[1].is_active());
        // The adopted commander re-proposed and decided "old" at slot 1.
        let chosen = net.acceptors[0].accepted(1).unwrap();
        assert_eq!(chosen.1, b"old"[..]);
        assert!(chosen.0 > b0);
    }

    #[test]
    fn higher_ballot_preempts_active_leader() {
        let mut net = Net::new(1, 2, 3);
        net.elect(0);
        assert!(net.leaders[0].is_active());
        net.elect(1);
        assert!(net.leaders[1].is_active());
        // Leader 0 learns of its demotion the next time it proposes:
        // the acceptors' nack carries the higher promise.
        net.submit(0, cmd(1, 1));
        assert!(!net.leaders[0].is_active());
        assert_eq!(net.leaders[0].preemptions, 1);
        assert_eq!(net.replicas[0].executed_count, 1);
        // And the preempted leader's next bid outbids the preemptor.
        let out = net.leaders[0].start_scout();
        assert!(Ballot::from_wire(out[0].1.round) > net.leaders[1].ballot());
    }

    #[test]
    fn duplicate_and_reordered_votes_are_harmless() {
        let mut net = Net::new(1, 1, 3);
        net.elect(0);
        net.submit(0, cmd(1, 1));
        let executed = net.replicas[0].executed_count;
        // Replay a full vote set for slot 1 out of order.
        let b = net.leaders[0].ballot();
        for acceptor in [2u8, 0, 1, 1, 2] {
            let vote = PaxosMsg {
                mtype: MsgType::Phase2b,
                instance: 1,
                round: b.wire(),
                vround: b.wire(),
                acceptor,
                last_voted: 1,
                value: cmd(1, 1).into(),
            };
            let out = net.replicas[0].handle(&vote);
            net.route(None, out);
        }
        assert_eq!(net.replicas[0].executed_count, executed);
        assert_eq!(net.replicas[0].duplicates, 0);
    }

    #[test]
    fn replica_requeues_lost_proposal() {
        let mut net = Net::new(2, 1, 3);
        net.elect(0);
        // Both replicas race different commands into slot 1; the
        // leader's first-come proposal wins, the loser is re-queued and
        // decided in a later slot.
        let out0 = net.replicas[0].on_request(cmd(1, 1));
        let out1 = net.replicas[1].on_request(cmd(2, 1));
        net.route(None, out0);
        net.route(None, out1);
        // Drive retransmits until both commands execute everywhere.
        for _ in 0..20 {
            if net.replicas.iter().all(|r| r.executed_count == 2) {
                break;
            }
            for k in 0..net.replicas.len() {
                let out = net.replicas[k].tick();
                net.route(None, out);
            }
            for k in 0..net.leaders.len() {
                let lid = net.leaders[k].id;
                let out = net.leaders[k].tick();
                net.route(Some(lid), out);
            }
        }
        assert_eq!(net.replicas[0].executed_count, 2);
        assert_eq!(net.replicas[0].log, net.replicas[1].log);
    }

    #[test]
    fn passive_leader_elects_itself_on_timeout() {
        let mut net = Net::new(1, 2, 3);
        // Nobody is active; leader 0's shorter backoff wins the race.
        let mut elected = None;
        'outer: for _ in 0..Leader::BACKOFF_BASE * 4 {
            for k in 0..net.leaders.len() {
                let lid = net.leaders[k].id;
                let out = net.leaders[k].tick();
                net.route(Some(lid), out);
                if net.leaders[k].is_active() {
                    elected = Some(lid);
                    break 'outer;
                }
            }
        }
        assert_eq!(elected, Some(0));
        // The live leader's decision traffic keeps leader 1 passive.
        net.submit(0, cmd(1, 1));
        for _ in 0..Leader::BACKOFF_BASE {
            let out = net.leaders[1].tick();
            net.route(Some(1), out);
            net.submit(0, cmd(1, 2));
        }
        assert!(net.leaders[0].is_active());
        assert!(!net.leaders[1].is_active());
    }

    #[test]
    fn compact_bounds_promise_batches() {
        let mut acc = Acceptor::new(0);
        let b = Ballot::new(1, 0);
        for slot in 1..=10 {
            acc.handle(&PaxosMsg::new(MsgType::Phase2a, slot, b.wire(), vec![7]));
        }
        assert_eq!(acc.accepted_len(), 10);
        acc.compact(8);
        assert_eq!(acc.accepted_len(), 3);
        assert!(acc.accepted(7).is_none());
        assert!(acc.accepted(8).is_some());
    }

    #[test]
    fn window_backpressures_slot_assignment() {
        let mut r = Replica::new(0, 3);
        for seq in 0..Replica::WINDOW + 10 {
            r.on_request(cmd(1, seq));
        }
        // Only WINDOW slots may be open ahead of slot_out = 1.
        assert_eq!(r.proposals.len() as u64, Replica::WINDOW);
        assert_eq!(r.requests.len() as u64, 10);
    }
}
