//! Multi-Paxos role state machines: ballots, scouts, commanders — the
//! one consensus implementation, run two ways.
//!
//! The machines follow *Paxos Made Moderately Complex* (PMMC):
//! ballot-numbered [`Leader`]s run a **scout** (phase 1) to adopt a
//! ballot and one **commander** (phase 2) per slot, [`Acceptor`]s
//! promise and vote per ballot, and [`Replica`]s detect decision
//! quorums, execute the log in slot order and answer clients. Any
//! number of leaders may compete; safety never depends on timing.
//!
//! * **The chaos suite** (`inc-bench`'s `ChaosCluster`) runs them as
//!   PMMC does: a replica numbers each command into a slot and proposes
//!   it, and a passive leader elects itself when its backoff expires.
//! * **The §9.2 deployment** ([`PaxosNode`](crate::PaxosNode)) runs the
//!   same machines the way P4xos is deployed: clients send unnumbered
//!   requests to a leader service address the coordinator steers, and
//!   the leader numbers them; the coordinator activates one leader at a
//!   time, which scouts for a ballot above any it has seen, and only
//!   the active leader is ticked, so a standby never elects itself. The
//!   replica proposes nothing; its slot reports ([`Replica::report`])
//!   carry its `slot_out`, which moves the floor.
//!
//! The wire says which way a request goes: an unnumbered
//! `ClientRequest` (`instance = 0`) is the leader's to number, a
//! numbered one is a replica's proposal.
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
//! A value a role keeps past its message — a window's proposal, an
//! accepted pvalue, a vote tally's value — is kept inline when it is at
//! most 28 bytes, a command with a 16-byte payload as every
//! [`PaxosClient`](crate::PaxosClient) sends: keeping it allocates
//! nothing and holds on to no buffer. A longer value is kept as the
//! [`Bytes`] handle it came with. What that handle is depends on the
//! harness's decoder:
//! [`PaxosMsg::decode`](crate::msg::PaxosMsg::decode) copies the value
//! out of the datagram (one allocation per delivered message),
//! [`PaxosMsg::decode_shared`](crate::msg::PaxosMsg::decode_shared)
//! makes it a view of the frame that carried it — a
//! [`PaxosNode`](crate::PaxosNode) copies a longer value out, so no
//! role keeps a frame — and
//! [`PaxosMsg::decode_sharing`](crate::msg::PaxosMsg::decode_sharing)
//! — the chaos rig's — hands back the sender's own handle, so a
//! longer command stays the one buffer [`Replica::on_request`] made,
//! from submit to execution. Every outgoing message holds a handle on
//! the message that provoked it where it can; pvalues read out of a
//! phase-1b batch are slices of the batch. A warm step allocates
//! nothing, however many messages it sends: the [`Outbox`] holds one
//! message inline and takes the buffer for more from the thread's free
//! list of spills, quorums are counted in a fixed bit mask, a warm slot
//! ring is an array. The one copy a short command costs is made where
//! a replica executes it, for its reply and its log.
//!
//! # The window and its floor
//!
//! No role keeps a history: each keeps one slot ring (`ring.rs`) from
//! its **floor** up. A floor only ever comes from a minimum of
//! `slot_out` over all replicas (carried on proposals, slot reports,
//! phase-1a/2a and every acceptor reply), so all below it is executed
//! everywhere; no role stores, votes on, proposes or reports a slot
//! below its floor; and a floor may lag, never lead. ARCHITECTURE.md
//! ("Consensus & fault tolerance") has the argument and what a dead
//! replica does to it.
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
//! | request (client→leader, §9.2) | `ClientRequest`, `instance = 0`, `value` = the command | [`Dest::Leader`] |
//! | propose (replica→leader)| `ClientRequest`, `instance = slot`, `value` = the command, `acceptor` = replica id, `last_voted` = its `slot_out` | [`Dest::Leader`] |
//! | slot report (replica→leader, §9.2) | `GapRequest`, `instance = last_voted` = the replica's `slot_out`, `acceptor` = replica id | [`Dest::Leader`] |
//! | p1a (scout)             | `Phase1a`, `round = ballot`, empty `value`, `last_voted` = leader's floor | [`Dest::AllAcceptors`] |
//! | p1b (promise)           | `Phase1b`, `round = promised`, `vround` echoes the scouted ballot, `value` = accepted pvalues laid out as by [`encode_pvalues`], `instance = chunk index << 1 \| is-last` (one chunk unless the pvalues exceed `MAX_VALUE_LEN`), `last_voted` = acceptor's floor | [`Dest::Reply`] |
//! | p2a (commander)         | `Phase2a`, `instance = slot`, `round = ballot`, `value` shared with the proposal, `last_voted` = leader's floor | [`Dest::AllAcceptors`] |
//! | p2b (vote)              | `Phase2b`, `round = vround = ballot`, `value` shared with the p2a, `last_voted` = acceptor's floor | [`Dest::AllLearners`] |
//! | p2b (refusal)           | `Phase2b`, `round = promised`, `vround = 0`, empty `value`, `last_voted` = acceptor's floor | [`Dest::Reply`] |
//! | decision                | none — replicas count `Phase2b` quorums themselves | — |
//! | reply (replica→client)  | `ClientReply`, `instance = slot`, `acceptor` = replica id, `value` = the executed command | [`Dest::Client`] |
//!
//! # Safety invariants
//!
//! The properties the chaos suite and `tests/properties.rs` pin:
//!
//! 1. **Single value per slot** — once a quorum of acceptors votes for
//!    a value in some ballot at a slot, every later ballot's scout
//!    learns that pvalue (quorums intersect) and re-proposes it, so no
//!    conflicting value can gather a quorum. A leader that numbers a
//!    request numbers it into a slot it holds nothing for: while it
//!    scouts, what it numbered is overridden by any pvalue the scout
//!    learns there; once active, no lower ballot can have chosen a
//!    value in a slot its scout learned nothing about, which is also
//!    why it may fill such a hole with a no-op.
//! 2. **Identical executed prefixes** — replicas execute decisions in
//!    strict slot order (a PMMC replica's [`Replica::tick`] re-proposes
//!    rather than skips; a §9.2 replica's stuck slot is re-sent or
//!    filled by the leader), so any two replicas' executed logs agree
//!    on their common prefix.
//! 3. **At most once** — a replica runs a `(client, seq)` once, however
//!    many slots it was ordered into.
//!
//! [`PaxosMsg`]: crate::msg::PaxosMsg

use std::collections::{BTreeMap, VecDeque};

use inc_net::Bytes;

use crate::history::{ExecutedLog, SeqRuns};
use crate::msg::{ClientCommand, MsgType, PaxosMsg, MAX_VALUE_LEN, NOOP_VALUE};
use crate::outbox::{Dest, Outbox, Routed};
use crate::ring::SlotRing;

/// A set of acceptor ids — who promised, who voted — as a fixed 256-bit
/// mask: one bit per possible `u8` id, so counting a quorum never
/// allocates (a `BTreeSet<u8>` costs a node per slot per machine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct AcceptorSet([u64; 4]);

impl AcceptorSet {
    /// Adds `id`; a repeated id (a duplicated vote) changes nothing.
    fn insert(&mut self, id: u8) {
        self.0[usize::from(id >> 6)] |= 1 << (id & 63);
    }

    /// Number of distinct ids inserted.
    fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The longest value a role keeps inline: a [`ClientCommand`] with a
/// 16-byte payload, as every [`PaxosClient`](crate::PaxosClient) sends.
pub(crate) const INLINE: usize = 28;

/// A value a role keeps past the message that brought it. A short one
/// is copied inline, so keeping it allocates nothing and holds on to no
/// received frame; a longer one is the handle it came with, which the
/// packet path makes a buffer of its own (see
/// [`PaxosNode`](crate::PaxosNode)) and the chaos rig shares with the
/// command's first buffer.
#[derive(Clone, Debug)]
enum Kept {
    Inline(u8, [u8; INLINE]),
    Shared(Bytes),
}

impl Default for Kept {
    fn default() -> Self {
        Kept::Inline(0, [0; INLINE])
    }
}

impl Kept {
    fn new(value: &Bytes) -> Kept {
        let mut inline = [0; INLINE];
        let Some(head) = inline.get_mut(..value.len()) else {
            return Kept::Shared(value.clone());
        };
        head.copy_from_slice(value);
        Kept::Inline(value.len() as u8, inline)
    }

    /// The value for a message: `sent`'s handle when it holds the same
    /// bytes, else ours, copied out of line if it is inline.
    fn bytes_or(&self, sent: &Bytes) -> Bytes {
        match self {
            Kept::Shared(value) => value.clone(),
            Kept::Inline(..) if **self == **sent => sent.clone(),
            Kept::Inline(..) => Bytes::copy_from_slice(self),
        }
    }

    fn to_bytes(&self) -> Bytes {
        self.bytes_or(&Bytes::new())
    }
}

impl std::ops::Deref for Kept {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Kept::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Kept::Shared(value) => value,
        }
    }
}

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

/// Bytes in front of a value in a phase-1b batch: slot, ballot, length.
const PVALUE_HEADER_LEN: usize = 8 + 2 + 2;

/// Longest command the cluster can order: an accepted value must fit a
/// later promise's batch with its pvalue header, so an [`Acceptor`]
/// refuses to vote for anything longer and a [`Replica`] refuses to
/// propose it.
pub const MAX_COMMAND_LEN: usize = MAX_VALUE_LEN - PVALUE_HEADER_LEN;

/// Bytes one encoded pvalue occupies in a phase-1b batch.
fn pvalue_len(value: &[u8]) -> usize {
    PVALUE_HEADER_LEN + value.len()
}

/// Appends one pvalue in [`encode_pvalues`]' layout.
fn put_pvalue(out: &mut Vec<u8>, slot: u64, ballot: Ballot, value: &[u8]) {
    out.extend_from_slice(&slot.to_be_bytes());
    out.extend_from_slice(&ballot.wire().to_be_bytes());
    out.extend_from_slice(&(value.len() as u16).to_be_bytes());
    out.extend_from_slice(value);
}

/// Encodes accepted pvalues into the `value` field of one phase-1b
/// message: repeated `slot:u64 | ballot:u16 | len:u16 | bytes`.
///
/// The batch must fit the codec's [`MAX_VALUE_LEN`] — a promise that
/// silently dropped pvalues would let a new leader overwrite a chosen
/// value, so an oversized batch is a hard error here, not a truncation.
/// An [`Acceptor`] does not go through this function: it cuts its
/// promise into as many phase-1b messages as the pvalues need.
///
/// # Panics
///
/// Panics if the encoded batch would exceed [`MAX_VALUE_LEN`].
pub fn encode_pvalues<V: AsRef<[u8]>>(accepted: &BTreeMap<u64, (Ballot, V)>) -> Vec<u8> {
    let total: usize = accepted.values().map(|(_, v)| pvalue_len(v.as_ref())).sum();
    assert!(
        total <= MAX_VALUE_LEN,
        "phase-1b pvalue batch ({total} bytes) exceeds the wire limit"
    );
    let mut out = Vec::with_capacity(total);
    for (&slot, (ballot, value)) in accepted {
        put_pvalue(&mut out, slot, *ballot, value.as_ref());
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
/// accepted pvalue per slot at or above its floor.
///
/// Promises are global — a phase-1a covers every slot at once and its
/// phase-1b reports every accepted pvalue still held, which is what lets
/// a new leader adopt mid-stream without a per-slot round trip.
#[derive(Clone, Debug)]
pub struct Acceptor {
    /// This acceptor's identity.
    pub id: u8,
    /// Highest ballot promised (across all slots).
    promised: Ballot,
    /// Accepted pvalues, slot → (ballot, value), from the floor up.
    accepted: SlotRing<(Ballot, Kept)>,
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
            accepted: SlotRing::default(),
            votes: 0,
        }
    }

    /// The highest ballot promised so far.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The accepted pvalue at `slot`, if any.
    pub fn accepted(&self, slot: u64) -> Option<(Ballot, &[u8])> {
        self.accepted
            .get(slot)
            .map(|(ballot, value)| (*ballot, &**value))
    }

    /// Number of slots with an accepted pvalue.
    pub fn accepted_len(&self) -> usize {
        self.accepted.len()
    }

    /// The floor: all below is executed everywhere and forgotten here.
    pub fn floor(&self) -> u64 {
        self.accepted.base()
    }

    /// Raises the floor to `slot` (never lowers it), as a leader's stamp
    /// does: for a harness that reads the replicas' `slot_out` itself.
    pub fn compact(&mut self, slot: u64) {
        self.accepted.advance(slot);
    }

    /// A reply: our promise on `round`, our floor on `last_voted`.
    fn reply(&self, to: Dest, mtype: MsgType, slot: u64, vround: u16, value: Bytes) -> Routed {
        let mut msg = PaxosMsg::new(mtype, slot, self.promised.wire(), value);
        (msg.vround, msg.acceptor, msg.last_voted) = (vround, self.id, self.floor());
        (to, msg)
    }

    /// The promise (or refusal — `round` tells) to the scout of `scouted`:
    /// every accepted pvalue, in as many phase-1b chunks as
    /// [`MAX_VALUE_LEN`] requires, `instance = chunk index << 1 | last`.
    fn promise(&self, scouted: u16) -> Outbox {
        let (mut out, mut batch) = (Outbox::Empty, Vec::new());
        let chunk = |index, batch: Vec<u8>| {
            self.reply(Dest::Reply, MsgType::Phase1b, index, scouted, batch.into())
        };
        for (slot, (ballot, value)) in self.accepted.iter() {
            if batch.len() + pvalue_len(value) > MAX_VALUE_LEN {
                out.push(chunk((out.len() as u64) << 1, std::mem::take(&mut batch)));
            }
            put_pvalue(&mut batch, slot, *ballot, value);
        }
        out.push(chunk(((out.len() as u64) << 1) | 1, batch));
        out
    }

    /// Handles one message. Phase-1a and phase-2a are meaningful (and
    /// carry the sender's floor, which raises ours); everything else,
    /// garbage a chaos net may route here included, is ignored.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        let b = Ballot::from_wire(msg.round);
        match msg.mtype {
            MsgType::Phase1a => {
                self.compact(msg.last_voted);
                self.promised = self.promised.max(b);
                // The scout attributes the reply by the echoed ballot in
                // `vround` and reads acceptance off `round`.
                self.promise(msg.round)
            }
            MsgType::Phase2a => {
                self.compact(msg.last_voted);
                // Votable: not preempted, short enough for a later
                // promise to report, and not below the floor (the ring
                // has no room there), where no second value may land.
                let votable = b >= self.promised
                    && msg.value.len() <= MAX_COMMAND_LEN
                    && self
                        .accepted
                        .insert(msg.instance, (b, Kept::new(&msg.value)));
                let (slot, none) = (msg.instance, Ballot::NONE.wire());
                if !votable {
                    // `vround = 0` marks a refusal: the sender reads who
                    // preempted it, or where the floor is.
                    let nack = self.reply(Dest::Reply, MsgType::Phase2b, slot, none, Bytes::new());
                    return Outbox::One(nack);
                }
                self.promised = b;
                self.votes += 1;
                // Replicas count the quorum; leaders piggyback on the
                // same broadcast for commander progress and preemption.
                let value = msg.value.clone();
                Outbox::One(self.reply(Dest::AllLearners, MsgType::Phase2b, slot, b.wire(), value))
            }
            _ => Outbox::Empty,
        }
    }
}

/// Scout state: the phase-1 quorum hunt for one ballot.
#[derive(Clone, Debug, Default)]
struct Scout {
    /// Acceptors whose whole promise for this ballot has arrived.
    promised: AcceptorSet,
    /// Highest-ballot pvalue learned per slot, from the leader's floor.
    pvalues: SlotRing<(Ballot, Bytes)>,
    /// Chunks counted per `(acceptor, the floor it answered at)`.
    chunks: Vec<((u8, u64), u64)>,
    /// Ticks since the phase-1a was last sent (retransmit under loss).
    age: u32,
}

impl Scout {
    /// Whether the phase-1b chunk `msg` completes its acceptor's promise.
    /// Chunks count in index order only: duplicates and reorders are
    /// harmless, a lost chunk is a lost promise (phase-1a is retransmitted).
    /// An acceptor that promised changes its accepted set only by raising
    /// its floor, so chunks that agree on the floor are cuts of one set.
    fn completes(&mut self, msg: &PaxosMsg) -> bool {
        let key = (msg.acceptor, msg.last_voted);
        let known = self.chunks.iter().position(|c| c.0 == key);
        let at = known.unwrap_or_else(|| {
            self.chunks.push((key, 0));
            self.chunks.len() - 1
        });
        let next = &mut self.chunks[at].1;
        if *next != msg.instance >> 1 {
            return false;
        }
        *next += 1;
        msg.instance & 1 == 1
    }
}

/// Where a leader stands on one slot of its window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    /// A value is held, no commander is out.
    #[default]
    Parked,
    /// A commander is collecting phase-2b votes.
    Pushing,
    /// Our commander reached a quorum (and must not be respawned).
    Decided,
}

/// One slot of a leader's window: the value it must push (first proposal
/// kept, or the adopted pvalue) and the commander pushing it.
#[derive(Clone, Debug, Default)]
struct LeaderSlot {
    value: Kept,
    phase: Phase,
    /// Acceptors that voted for our ballot at this slot.
    voters: AcceptorSet,
    /// Ticks since the phase-2a was last sent (retransmit under loss).
    age: u32,
}

/// A leader's phase-1a/2a: ballot on `round`, floor on `last_voted`.
fn stamped(mtype: MsgType, slot: u64, ballot: Ballot, floor: u64, value: Bytes) -> Routed {
    let mut msg = PaxosMsg::new(mtype, slot, ballot.wire(), value);
    msg.last_voted = floor;
    (Dest::AllAcceptors, msg)
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
///
/// Its floor is the lowest `slot_out` the replicas have reported, or a
/// higher floor an acceptor reports back.
///
/// A request that arrives unnumbered (`instance = 0`, the §9.2 client's)
/// is numbered by the leader itself, if it holds a ballot or is scouting
/// for one: into the next slot it holds nothing for. Safety still rests
/// on ballots: a scout learns every value a lower ballot may have
/// chosen, and overrides what the leader numbered there while it
/// scouted. At-most-once still rests on the replicas' sequence numbers.
/// Such replicas propose nothing; their slot reports
/// ([`Replica::report`]) move the floor, and a replica that waits on one
/// slot over two reports, a slot the leader has decided or numbered past
/// and holds nothing for, is sent that slot's phase-2a, or a no-op's.
#[derive(Clone, Debug)]
pub struct Leader {
    /// This leader's identity (must fit [`Ballot::LEADER_BITS`]).
    pub id: u8,
    /// Where numbering resumes: past every slot numbered or adopted.
    next_slot: u64,
    quorum: usize,
    /// The ballot this leader currently owns (or last owned).
    ballot: Ballot,
    /// Whether the ballot was adopted by a phase-1 quorum.
    active: bool,
    /// Highest ballot number observed anywhere (the next scout bids
    /// above it).
    highest_num: u16,
    /// Values and commanders, slot → [`LeaderSlot`], from the floor up.
    window: SlotRing<LeaderSlot>,
    /// Highest `slot_out` reported per replica (0: not heard from).
    slot_outs: Vec<u64>,
    n_replicas: usize,
    /// Boxed: there for one election, absent between them.
    scout: Option<Box<Scout>>,
    /// Countdown to the next election attempt while passive.
    countdown: u32,
    /// Times this leader was preempted by a higher ballot.
    pub preemptions: u64,
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

    /// Creates a passive leader for a cluster of `n_acceptors` and
    /// `n_replicas` (the floor waits for ids `0..n_replicas`). The
    /// initial election countdown is `(id + 1) × backoff`, so leader 0
    /// wins the uncontested start-of-day race.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not fit [`Ballot::LEADER_BITS`] or
    /// `n_acceptors` is zero.
    pub fn new(id: u8, n_acceptors: usize, n_replicas: usize) -> Self {
        assert!(
            u16::from(id) < (1 << Ballot::LEADER_BITS),
            "leader id {id} does not fit the ballot's leader bits"
        );
        assert!(n_acceptors > 0, "a cluster needs at least one acceptor");
        Leader {
            id,
            next_slot: 1,
            quorum: n_acceptors / 2 + 1,
            ballot: Ballot::NONE,
            active: false,
            highest_num: 0,
            window: SlotRing::default(),
            slot_outs: Vec::new(),
            n_replicas,
            scout: None,
            countdown: Self::election_backoff(id),
            preemptions: 0,
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

    /// The floor: every slot below it is executed on every replica.
    pub fn floor(&self) -> u64 {
        self.window.base()
    }

    /// Slots this leader holds state for (a scout's pvalues included).
    // inc-lint: allow(unreached-pub): tests/properties.rs and tests/failure_injection.rs bound the window with it
    pub fn retained_slots(&self) -> usize {
        self.window.len() + self.scout.as_ref().map_or(0, |s| s.pvalues.len())
    }

    /// Raises the floor to `floor` (never lowers it).
    fn raise_floor(&mut self, floor: u64) {
        self.window.advance(floor);
        if let Some(scout) = self.scout.as_mut() {
            scout.pvalues.advance(floor);
        }
    }

    /// Takes `replica`'s report of its `slot_out`: the floor follows the
    /// lowest once every replica has reported one. Whether the replica
    /// reported this `slot_out` before: it has not moved since.
    fn note_slot_out(&mut self, replica: u8, slot_out: u64) -> bool {
        self.slot_outs.resize(self.n_replicas, 0);
        let Some(seen) = self.slot_outs.get_mut(usize::from(replica)) else {
            return false;
        };
        let stuck = *seen == slot_out;
        *seen = (*seen).max(slot_out);
        let lowest = self.slot_outs.iter().copied().min().unwrap_or(0);
        self.raise_floor(lowest);
        stuck
    }

    /// The slot an unnumbered request goes to: the first from where
    /// numbering resumes that holds nothing.
    fn number(&mut self) -> u64 {
        let mut slot = self.next_slot.max(self.floor());
        while self.window.get(slot).is_some() {
            slot += 1;
        }
        self.next_slot = slot + 1;
        slot
    }

    /// Answers a replica that waits on `slot`: if we decided it, its
    /// phase-2a again, so the votes reach the replica anew; if we
    /// numbered past it and hold nothing there, a no-op, which is safe
    /// because our scout learned no value there and we proposed none.
    fn catch_up(&mut self, slot: u64) -> Outbox {
        let waits = (self.window.get(slot)).is_none_or(|rec| rec.phase == Phase::Decided);
        if !self.active || slot >= self.next_slot || !waits {
            return Outbox::Empty;
        }
        let noop = || LeaderSlot {
            value: Kept::new(&Bytes::from_static(NOOP_VALUE)),
            phase: Phase::Pushing,
            ..LeaderSlot::default()
        };
        let Some(rec) = self.window.get_or_insert_with(slot, noop) else {
            return Outbox::Empty;
        };
        let value = rec.value.to_bytes();
        self.proposals_sent += 1;
        Outbox::One(stamped(
            MsgType::Phase2a,
            slot,
            self.ballot,
            self.floor(),
            value,
        ))
    }

    /// Stands every commander down (its votes were for a ballot we no
    /// longer own).
    fn park(&mut self) {
        for slot in self.window.span() {
            if let Some(rec) = self.window.get_mut(slot) {
                if rec.phase == Phase::Pushing {
                    (rec.phase, rec.voters) = (Phase::Parked, AcceptorSet::default());
                }
            }
        }
    }

    /// The phase-2as that are due: with `start_parked` every parked slot
    /// gets a commander, which sends at once; those already out age by
    /// a tick and retransmit when unanswered.
    fn command(&mut self, start_parked: bool) -> Outbox {
        let (ballot, floor) = (self.ballot, self.floor());
        let mut out = Outbox::Empty;
        for slot in self.window.span() {
            let Some(rec) = self.window.get_mut(slot) else {
                continue;
            };
            if start_parked && rec.phase == Phase::Parked {
                (rec.phase, rec.age) = (Phase::Pushing, Self::RETRANSMIT_TICKS);
            } else if rec.phase == Phase::Pushing {
                rec.age += 1;
            }
            if rec.phase == Phase::Pushing && rec.age >= Self::RETRANSMIT_TICKS {
                rec.age = 0;
                let value = rec.value.to_bytes();
                out.push(stamped(MsgType::Phase2a, slot, ballot, floor, value));
            }
        }
        self.proposals_sent += out.len() as u64;
        out
    }

    /// Starts a scout for a fresh ballot above everything observed.
    /// Returns the phase-1a to broadcast. Idempotent while a scout for
    /// the current ballot is already out.
    pub fn start_scout(&mut self) -> Outbox {
        let num = self.highest_num.max(self.ballot.num()) + 1;
        self.ballot = Ballot::new(num, self.id);
        self.active = false;
        let mut scout = Box::<Scout>::default();
        scout.pvalues.advance(self.floor());
        self.scout = Some(scout);
        self.park();
        self.p1a()
    }

    fn p1a(&self) -> Outbox {
        let (ballot, floor) = (self.ballot, self.floor());
        Outbox::One(stamped(MsgType::Phase1a, 0, ballot, floor, Bytes::new()))
    }

    /// Records a higher ballot sighted at `wire`: preemption if we were
    /// active or scouting, otherwise just intelligence for the next
    /// bid.
    fn preempted_by(&mut self, wire: u16) {
        self.highest_num = self.highest_num.max(Ballot::from_wire(wire).num());
        if self.active || self.scout.is_some() {
            self.active = false;
            self.scout = None;
            self.park();
            self.preemptions += 1;
            self.countdown = Self::election_backoff(self.id);
        }
    }

    /// Handles one message.
    pub fn handle(&mut self, msg: &PaxosMsg) -> Outbox {
        match msg.mtype {
            MsgType::ClientRequest => {
                let slot = if msg.instance > 0 {
                    // A replica's proposal: a value for a specific slot,
                    // with the replica's id and `slot_out`.
                    let _ = self.note_slot_out(msg.acceptor, msg.last_voted);
                    msg.instance
                } else if self.active || self.scout.is_some() {
                    self.number()
                } else {
                    return Outbox::Empty;
                };
                // First come, first kept: a rival proposal for a slot we
                // already hold a value for is ignored. No room: below
                // the floor.
                let fresh = || LeaderSlot {
                    value: Kept::new(&msg.value),
                    ..LeaderSlot::default()
                };
                let Some(rec) = self.window.get_or_insert_with(slot, fresh) else {
                    return Outbox::Empty;
                };
                if !self.active || rec.phase != Phase::Parked {
                    return Outbox::Empty;
                }
                (rec.phase, rec.age) = (Phase::Pushing, 0);
                let (value, floor) = (rec.value.bytes_or(&msg.value), self.floor());
                self.proposals_sent += 1;
                Outbox::One(stamped(MsgType::Phase2a, slot, self.ballot, floor, value))
            }
            MsgType::GapRequest => {
                // A replica's slot report: its `slot_out`, which is also
                // the slot it waits on once two reports name it (a slot
                // we decided a moment ago may still be on its way).
                if !self.note_slot_out(msg.acceptor, msg.last_voted) {
                    return Outbox::Empty;
                }
                self.catch_up(msg.last_voted)
            }
            MsgType::Phase1b => {
                self.raise_floor(msg.last_voted);
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
                // A pvalue is a fact whichever chunk brings it; one
                // below the floor finds no room.
                for (slot, ballot, value) in decode_pvalues(&msg.value) {
                    if scout.pvalues.get(slot).is_none_or(|held| ballot > held.0) {
                        scout.pvalues.insert(slot, (ballot, value));
                    }
                }
                if scout.completes(msg) {
                    scout.promised.insert(msg.acceptor);
                }
                if scout.promised.len() < self.quorum {
                    return Outbox::Empty;
                }
                // Adopted: accepted pvalues override our own proposals
                // (the PMMC `pmax` merge), then every slot we do not
                // know decided gets a commander: a window, not a history.
                let Some(scout) = self.scout.take() else {
                    return Outbox::Empty;
                };
                self.active = true;
                for (slot, (_, value)) in scout.pvalues.iter() {
                    self.next_slot = self.next_slot.max(slot + 1);
                    let held = self.window.get_or_insert_with(slot, LeaderSlot::default);
                    if let Some(rec) = held.filter(|rec| rec.phase != Phase::Decided) {
                        rec.value = Kept::new(value);
                    }
                }
                self.command(true)
            }
            MsgType::Phase2b => {
                self.raise_floor(msg.last_voted);
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
                let ours = self.active && b == self.ballot && msg.vround == msg.round;
                let pushing = self.window.get_mut(msg.instance);
                if let Some(rec) = pushing.filter(|rec| ours && rec.phase == Phase::Pushing) {
                    rec.voters.insert(msg.acceptor);
                    if rec.voters.len() >= self.quorum {
                        rec.phase = Phase::Decided;
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
        self.command(false)
    }
}

/// One slot of a replica's window.
#[derive(Clone, Debug, Default)]
struct ReplicaSlot {
    /// Our own in-flight command for this slot.
    proposal: Option<Bytes>,
    /// The ballot (wire form) `voters` voted in.
    ballot: u16,
    voters: AcceptorSet,
    /// What `voters` voted for: the decision, once they are a quorum.
    value: Kept,
    decided: bool,
}

/// The replica: assigns client commands to slots, proposes them to the
/// leaders, learns decisions from phase-2b quorums, executes in slot
/// order and answers clients exactly once. Of the executed history it
/// keeps a digest, a short tail and which sequence numbers ran.
#[derive(Clone, Debug)]
pub struct Replica {
    /// This replica's identity.
    pub id: u8,
    quorum: usize,
    /// Next slot to assign a command to.
    slot_in: u64,
    /// Slot → [`ReplicaSlot`], from `slot_out` (the ring's base) up.
    window: SlotRing<ReplicaSlot>,
    /// Slots of the window holding a proposal of ours.
    open: u32,
    /// Commands awaiting a slot.
    requests: VecDeque<Bytes>,
    /// Executed commands by client (at-most-once bookkeeping).
    executed: BTreeMap<u32, SeqRuns>,
    /// The executed `(slot, command)` log: a digest and a short tail.
    log: ExecutedLog,
    /// Commands executed (excluding no-op fills and duplicates).
    pub executed_count: u64,
    /// Duplicate command deliveries (retries that were ordered twice).
    pub duplicates: u64,
    /// Commands [`Replica::on_request`] dropped as longer than
    /// [`MAX_COMMAND_LEN`] (a `u32` to keep the struct's size, see
    /// `role_structs_stay_small`).
    pub oversized: u32,
    age: u32,
}

impl Replica {
    /// Max open (proposed, undecided) slots ahead of the execution
    /// point — the PMMC window.
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
            slot_in: 1,
            window: SlotRing::default(),
            open: 0,
            requests: VecDeque::new(),
            executed: BTreeMap::new(),
            log: ExecutedLog::default(),
            executed_count: 0,
            duplicates: 0,
            oversized: 0,
            age: 0,
        }
    }

    /// Next slot to execute (the length of the executed prefix + 1).
    pub fn slot_out(&self) -> u64 {
        self.window.base()
    }

    /// Slots proposed, voted on or decided, and not yet executed.
    // inc-lint: allow(unreached-pub): tests/properties.rs and tests/failure_injection.rs bound the window with it
    pub fn retained_slots(&self) -> usize {
        self.window.len()
    }

    /// The decisions learned and not yet executed, slot-ascending (the
    /// chaos oracle reads them; the executed ones it saw as replies).
    pub fn decisions(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let decided = self.window.iter().filter(|(_, rec)| rec.decided);
        decided.map(|(slot, rec)| (slot, &*rec.value))
    }

    /// The last `(slot, command)` entries of the executed log, oldest
    /// first: at least 64 once that many have run.
    // inc-lint: allow(unreached-pub): tests/properties.rs, tests/failure_injection.rs and tests/alloc_budget.rs read the executed log through it
    pub fn log_tail(&self) -> &[(u64, Bytes)] {
        self.log.tail()
    }

    /// A digest of the whole executed log: every entry's slot, length
    /// and bytes, folded FNV-1a-style eight bytes to a step.
    // inc-lint: allow(unreached-pub): tests/properties.rs and tests/failure_injection.rs compare the replicas' whole logs with it
    pub fn log_digest(&self) -> u64 {
        self.log.digest()
    }

    /// Commands queued or in flight but not yet executed.
    pub fn pending(&self) -> usize {
        self.requests.len() + self.open as usize
    }

    /// Accepts one client command and proposes it into the next free
    /// slot (window permitting). A `Vec<u8>` is moved into its
    /// refcounted buffer here — the command's one allocation on this
    /// replica; a [`Bytes`] is taken as is.
    ///
    /// A command longer than [`MAX_COMMAND_LEN`] is dropped and counted
    /// in [`Replica::oversized`]: no acceptor would vote for it, so
    /// proposing it would stall the log behind its slot.
    pub fn on_request(&mut self, command: impl Into<Bytes>) -> Outbox {
        let command = command.into();
        if command.len() > MAX_COMMAND_LEN {
            self.oversized = self.oversized.saturating_add(1);
            return Outbox::Empty;
        }
        self.requests.push_back(command);
        self.drive()
    }

    /// A proposal (a `ClientRequest`) or a slot report; `acceptor` and
    /// `last_voted` carry our id and `slot_out`.
    fn to_leader(&self, mtype: MsgType, slot: u64, value: Bytes) -> Routed {
        let mut msg = PaxosMsg::new(mtype, slot, 0, value);
        (msg.acceptor, msg.last_voted) = (self.id, self.slot_out());
        (Dest::Leader, msg)
    }

    /// The slot report of a replica whose leader numbers the requests
    /// (the §9.2 deployment; it proposes nothing itself): its
    /// `slot_out`, which the leader's floor follows and whose slot it
    /// answers if the replica waits on it.
    pub fn report(&self) -> Routed {
        self.to_leader(MsgType::GapRequest, self.slot_out(), Bytes::new())
    }

    /// Assigns queued commands to slots and emits proposals to the
    /// leaders.
    fn drive(&mut self) -> Outbox {
        let mut out = Outbox::Empty;
        // Slots executed on someone else's proposals are not ours to fill.
        self.slot_in = self.slot_in.max(self.slot_out());
        while self.slot_in < self.slot_out() + Self::WINDOW {
            let Some(command) = self.requests.front() else {
                break;
            };
            let slot = self.slot_in;
            let Some(rec) = self.window.get_or_insert_with(slot, ReplicaSlot::default) else {
                break;
            };
            self.slot_in += 1;
            if rec.decided {
                // Slot already decided by someone else's proposal.
                continue;
            }
            rec.proposal = Some(command.clone());
            self.open += 1;
            let command = self.requests.pop_front();
            out.extend(command.map(|c| self.to_leader(MsgType::ClientRequest, slot, c)));
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
        // No room below `slot_out`: that slot is executed.
        let slot = self
            .window
            .get_or_insert_with(msg.instance, ReplicaSlot::default);
        let Some(rec) = slot.filter(|rec| !rec.decided && msg.round >= rec.ballot) else {
            return Outbox::Empty;
        };
        if msg.round > rec.ballot {
            // A newer ballot supersedes the accumulated votes.
            rec.ballot = msg.round;
            rec.voters = AcceptorSet::default();
            rec.value = Kept::new(&msg.value);
        }
        rec.voters.insert(msg.acceptor);
        if rec.voters.len() < self.quorum {
            return Outbox::Empty;
        }
        // Quorum: the tally's handle on the value is the decision's.
        rec.decided = true;
        self.perform()
    }

    /// Executes decided slots in order; re-queues our own commands that
    /// lost their slot to someone else's value.
    fn perform(&mut self) -> Outbox {
        let mut out = Outbox::Empty;
        while self.window.get(self.slot_out()).is_some_and(|r| r.decided) {
            let slot = self.slot_out();
            let Some(rec) = self.window.pop() else {
                break;
            };
            self.age = 0;
            let value = rec.value.to_bytes();
            if let Some(ours) = rec.proposal {
                self.open -= 1;
                if ours != value {
                    // Our command lost this slot: send it around again.
                    self.requests.push_back(ours);
                }
            }
            if let Some((client, seq)) = ClientCommand::header(&value) {
                if self.executed.entry(client).or_default().insert(seq) {
                    self.executed_count += 1;
                    self.log.record(slot, value.clone());
                } else {
                    self.duplicates += 1;
                }
                let mut reply = PaxosMsg::new(MsgType::ClientReply, slot, 0, value);
                reply.acceptor = self.id;
                out.push((Dest::Client(client), reply));
            }
        }
        out.extend(self.drive());
        out
    }

    /// Advances time by one tick: undecided proposals are re-sent to
    /// the leaders after [`Replica::RETRANSMIT_TICKS`] without
    /// execution progress, which is what re-seeds a freshly elected
    /// leader with the commands its predecessor took to the grave.
    pub fn tick(&mut self) -> Outbox {
        if self.open == 0 && self.requests.is_empty() {
            return Outbox::Empty;
        }
        self.age += 1;
        if self.age < Self::RETRANSMIT_TICKS {
            return Outbox::Empty;
        }
        self.age = 0;
        let ours = self.window.iter().filter_map(|(slot, rec)| {
            let command = rec.proposal.as_ref()?;
            Some(self.to_leader(MsgType::ClientRequest, slot, command.clone()))
        });
        let mut out: Outbox = ours.collect();
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
                    .map(|i| Leader::new(i, n_acceptors, n_replicas))
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
        // `handle` returns an inline-first `Outbox` by value (its spill
        // buffers are reused through a per-thread free list instead, at
        // no cost to any struct here), why the scout is boxed and why
        // the log tail is made on first use. A new
        // field here must pay for itself on that metric first: the
        // acceptor's ring (a base and a count next to the buffer) took
        // it from 40 to 48 B with no move over the ten `setup_s` pairs
        // of `BENCH_20.json`. The replica's `oversized` counter is a
        // `u32` because one fills the padding after its `u8` and two
        // `u32`s; a `u64` made it 200 B.
        assert!(std::mem::size_of::<Acceptor>() <= 48);
        assert!(std::mem::size_of::<Replica>() <= 192);
        assert!(std::mem::size_of::<Leader>() <= 120);
    }

    #[test]
    fn the_longest_command_is_ordered_and_a_longer_one_refused() {
        let mut r = Replica::new(0, 3);
        assert!(r.on_request(vec![0; MAX_COMMAND_LEN + 1]).is_empty());
        assert_eq!((r.oversized, r.pending()), (1, 0));
        let out = r.on_request(vec![0; MAX_COMMAND_LEN]);
        assert_eq!((out.len(), r.oversized), (1, 1));
        // It is votable, and a later promise reports it in one chunk.
        let mut acc = Acceptor::new(0);
        let b = Ballot::new(1, 0).wire();
        let p2a = PaxosMsg::new(MsgType::Phase2a, 1, b, out[0].1.value.clone());
        assert_eq!(acc.handle(&p2a)[0].1.vround, b);
        let p1a = PaxosMsg::new(MsgType::Phase1a, 0, Ballot::new(2, 0).wire(), Vec::new());
        assert_eq!(acc.handle(&p1a)[0].1.value.len(), MAX_VALUE_LEN);
    }

    #[test]
    fn a_long_vote_shares_the_proposal_bytes_and_a_short_one_is_kept_inline() {
        let mut acc = Acceptor::new(0);
        let b = Ballot::new(1, 0).wire();
        let long = Bytes::from(vec![7; INLINE + 1]);
        let out = acc.handle(&PaxosMsg::new(MsgType::Phase2a, 1, b, long.clone()));
        assert_eq!(acc.accepted(1).unwrap().1.as_ptr(), long.as_ptr());
        assert_eq!(out[0].1.value.as_ptr(), long.as_ptr());
        // A short value is copied inline: the vote still carries the
        // proposal's bytes, the acceptor keeps its own.
        let short = Bytes::from(vec![7; INLINE]);
        let out = acc.handle(&PaxosMsg::new(MsgType::Phase2a, 2, b, short.clone()));
        let kept = acc.accepted(2).unwrap().1;
        assert_eq!((kept, kept.as_ptr() == short.as_ptr()), (&short[..], false));
        assert_eq!(out[0].1.value.as_ptr(), short.as_ptr());
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
        assert_eq!(net.replicas[0].log_tail(), net.replicas[1].log_tail());
        assert_eq!(net.replicas[0].log_digest(), net.replicas[1].log_digest());
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
        assert_eq!(chosen.1, b"old");
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
        assert_eq!(net.replicas[0].log_tail(), net.replicas[1].log_tail());
        assert_eq!(net.replicas[0].log_digest(), net.replicas[1].log_digest());
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
    fn nothing_below_the_floor_is_kept_voted_on_or_reported() {
        let mut acc = Acceptor::new(0);
        let b = Ballot::new(1, 0);
        for slot in 1..=10 {
            acc.handle(&PaxosMsg::new(MsgType::Phase2a, slot, b.wire(), vec![7]));
        }
        assert_eq!(acc.accepted_len(), 10);
        acc.compact(8);
        assert_eq!((acc.accepted_len(), acc.floor()), (3, 8));
        assert!(acc.accepted(7).is_none());
        assert!(acc.accepted(8).is_some());
        // A floor only rises, and a leader's stamp raises it too.
        acc.compact(3);
        let mut p2a = PaxosMsg::new(MsgType::Phase2a, 11, b.wire(), vec![7]);
        p2a.last_voted = 9;
        assert_eq!(acc.handle(&p2a)[0].1.last_voted, 9);
        assert_eq!((acc.accepted_len(), acc.floor()), (3, 9));
        // A phase-2a below the floor is refused, whatever its ballot,
        // and the refusal says where the floor is.
        let late = PaxosMsg::new(MsgType::Phase2a, 4, Ballot::new(9, 1).wire(), vec![8]);
        let out = acc.handle(&late);
        let (dest, nack) = &out[0];
        assert_eq!((*dest, nack.vround, nack.last_voted), (Dest::Reply, 0, 9));
        assert_eq!((acc.accepted(4), acc.promised()), (None, b));
        // The promise reports what is left, and the floor.
        let p1a = PaxosMsg::new(MsgType::Phase1a, 0, Ballot::new(2, 1).wire(), Vec::new());
        let out = acc.handle(&p1a);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].1.instance, out[0].1.last_voted), (1, 9));
        let slots: Vec<u64> = decode_pvalues(&out[0].1.value)
            .iter()
            .map(|p| p.0)
            .collect();
        assert_eq!(slots, [9, 10, 11]);
    }

    #[test]
    fn a_promise_too_big_for_one_message_arrives_in_chunks() {
        // 2 000 accepted 44-byte values are 112 000 bytes of pvalues: the
        // parent's `encode_pvalues` assert, reached from `handle`.
        const SLOTS: u64 = 2_000;
        let b0 = Ballot::new(1, 0);
        let mut acceptors: Vec<Acceptor> = (0..3).map(Acceptor::new).collect();
        for acc in &mut acceptors {
            for slot in 1..=SLOTS {
                let value = ClientCommand {
                    client: 1,
                    seq: slot,
                    payload: vec![slot as u8; 32],
                };
                acc.handle(&PaxosMsg::new(
                    MsgType::Phase2a,
                    slot,
                    b0.wire(),
                    value.encode(),
                ));
            }
        }
        let mut leader = Leader::new(1, 3, 1);
        let p1a = leader.start_scout();
        let promises: Vec<Vec<PaxosMsg>> = acceptors
            .iter_mut()
            .map(|acc| acc.handle(&p1a[0].1).into_iter().map(|e| e.1).collect())
            .collect();
        assert!(promises.iter().all(|chunks| chunks.len() == 2));
        assert!(promises[0].iter().all(|m| m.value.len() <= MAX_VALUE_LEN));
        // Acceptor 0's chunks arrive reordered and duplicated: the late
        // first chunk counts, the early second one does not.
        for chunk in [1, 0, 0] {
            assert!(leader.handle(&promises[0][chunk]).is_empty());
        }
        // Acceptor 1's second chunk is lost: no promise from it either.
        assert!(leader.handle(&promises[1][0]).is_empty());
        assert!(!leader.is_active());
        // The retransmitted second chunk of acceptor 0 completes a
        // promise, acceptor 2's two chunks the quorum.
        assert!(leader.handle(&promises[0][1]).is_empty());
        assert!(leader.handle(&promises[2][0]).is_empty());
        let out = leader.handle(&promises[2][1]);
        assert!(leader.is_active());
        assert_eq!(out.len() as u64, SLOTS);
        assert_eq!(leader.retained_slots() as u64, SLOTS);
        assert!(out.iter().zip(1..).all(|((_, m), slot)| m.instance == slot
            && ClientCommand::header(&m.value) == Some((1, slot))));
    }

    #[test]
    fn a_new_leader_reproposes_its_window_not_its_history() {
        let mut net = Net::new(2, 2, 3);
        net.elect(0);
        for seq in 1..=100 {
            net.submit((seq % 2) as usize, cmd(7, seq));
        }
        assert!(net.replicas.iter().all(|r| r.executed_count == 100));
        // Both replicas have reported a `slot_out` near 100: the passive
        // leader, which saw every proposal, holds a few slots, and
        // adopting re-proposes only those.
        let held = net.leaders[1].retained_slots();
        assert!(held <= 4, "passive leader retains {held} slots");
        assert!(net.leaders[1].floor() > 90);
        let sent = net.leaders[1].proposals_sent;
        net.elect(1);
        assert!(net.leaders[1].is_active());
        assert!(net.leaders[1].proposals_sent - sent <= held as u64);
        assert!(net.acceptors.iter().all(|a| a.accepted_len() <= 4));
        net.submit(0, cmd(7, 101));
        assert!(net.replicas.iter().all(|r| r.executed_count == 101));
    }

    #[test]
    fn late_votes_for_a_decided_slot_open_no_record() {
        let mut r = Replica::new(0, 3);
        let vote = |slot, ballot: Ballot, acceptor, value: &[u8]| PaxosMsg {
            mtype: MsgType::Phase2b,
            instance: slot,
            round: ballot.wire(),
            vround: ballot.wire(),
            acceptor,
            last_voted: 1,
            value: Bytes::copy_from_slice(value),
        };
        // Slot 2 is decided while slot 1 is not: decided, unexecuted.
        let b = Ballot::new(1, 0);
        for acceptor in 0..2 {
            r.handle(&vote(2, b, acceptor, b"two"));
        }
        assert_eq!(r.decisions().collect::<Vec<_>>(), [(2, &b"two"[..])]);
        let retained = r.retained_slots();
        // The whole vote set again, and a later ballot's: nothing moves.
        for ballot in [b, Ballot::new(2, 1)] {
            for acceptor in 0..3 {
                assert!(r.handle(&vote(2, ballot, acceptor, b"two")).is_empty());
            }
        }
        assert_eq!(r.retained_slots(), retained);
        assert_eq!(r.decisions().count(), 1);
        // Slot 1 decides: both execute and the window is empty.
        for acceptor in 0..2 {
            r.handle(&vote(1, b, acceptor, b"one"));
        }
        assert_eq!((r.slot_out(), r.retained_slots()), (3, 0));
        // A vote below `slot_out` finds no room.
        assert!(r.handle(&vote(1, b, 2, b"one")).is_empty());
        assert_eq!(r.retained_slots(), 0);
    }

    /// A leader adopted on three empty acceptors.
    fn adopted(id: u8, acceptors: &mut [Acceptor]) -> Leader {
        let mut leader = Leader::new(id, acceptors.len(), 1);
        for (_, p1a) in leader.start_scout() {
            for acc in acceptors.iter_mut() {
                for (_, p1b) in acc.handle(&p1a) {
                    leader.handle(&p1b);
                }
            }
        }
        assert!(leader.is_active());
        leader
    }

    fn unnumbered(client: u32, seq: u64) -> PaxosMsg {
        PaxosMsg::new(MsgType::ClientRequest, 0, 0, cmd(client, seq))
    }

    #[test]
    fn a_leader_numbers_unnumbered_requests_only_while_it_bids() {
        // Passive, with no scout out: dropped. Scouting: numbered and
        // parked, then pushed on adoption. Active: numbered and pushed.
        let mut acceptors: Vec<Acceptor> = (0..3).map(Acceptor::new).collect();
        let mut leader = Leader::new(0, 3, 1);
        assert!(leader.handle(&unnumbered(1, 1)).is_empty());
        assert_eq!(leader.retained_slots(), 0);
        let p1a = leader.start_scout();
        assert!(leader.handle(&unnumbered(1, 2)).is_empty());
        let mut adoption = Outbox::Empty;
        for acc in &mut acceptors {
            for (_, p1b) in acc.handle(&p1a[0].1) {
                adoption.extend(leader.handle(&p1b));
            }
        }
        assert_eq!(adoption.len(), 1);
        assert_eq!(
            (adoption[0].1.instance, &adoption[0].1.value[..]),
            (1, &cmd(1, 2)[..])
        );
        let out = leader.handle(&unnumbered(1, 3));
        assert_eq!(
            (out[0].0, out[0].1.mtype, out[0].1.instance),
            (Dest::AllAcceptors, MsgType::Phase2a, 2)
        );
        // A replica's proposal holds slot 3: numbering goes past it.
        let mut proposal = PaxosMsg::new(MsgType::ClientRequest, 3, 0, cmd(2, 1));
        proposal.last_voted = 1;
        assert_eq!(leader.handle(&proposal)[0].1.instance, 3);
        assert_eq!(leader.handle(&unnumbered(1, 4))[0].1.instance, 4);
    }

    #[test]
    fn a_replica_stuck_over_two_reports_is_sent_its_slot_again() {
        let mut acceptors: Vec<Acceptor> = (0..3).map(Acceptor::new).collect();
        let mut leader = adopted(0, &mut acceptors);
        let mut replica = Replica::new(0, 3);
        // Slot 1 is decided at the leader; the replica saw one vote.
        let p2a = leader.handle(&unnumbered(1, 1));
        for (k, acc) in acceptors.iter_mut().enumerate() {
            for (_, vote) in acc.handle(&p2a[0].1) {
                leader.handle(&vote);
                if k == 0 {
                    replica.handle(&vote);
                }
            }
        }
        assert_eq!(replica.slot_out(), 1);
        // The first report may race the votes; the second is answered
        // with the decided slot's phase-2a, whose votes execute it.
        let report = replica.report().1;
        assert_eq!((report.mtype, report.last_voted), (MsgType::GapRequest, 1));
        assert!(leader.handle(&report).is_empty());
        let again = leader.handle(&report);
        assert_eq!(
            (again[0].1.instance, &again[0].1.value[..]),
            (1, &cmd(1, 1)[..])
        );
        for acc in &mut acceptors {
            for (_, vote) in acc.handle(&again[0].1) {
                replica.handle(&vote);
            }
        }
        assert_eq!((replica.slot_out(), replica.executed_count), (2, 1));
        // Caught up: a report at the end of the log asks for nothing.
        let report = replica.report().1;
        assert!(leader.handle(&report).is_empty() && leader.handle(&report).is_empty());
    }

    #[test]
    fn a_hole_below_where_numbering_resumes_is_filled_with_a_no_op() {
        // Leader 0 numbers slots 1 and 2; only slot 2's phase-2a reaches
        // the acceptors. Leader 1 adopts slot 2 and numbers on past it;
        // slot 1 holds nothing, so the stuck replica gets a no-op there.
        let mut acceptors: Vec<Acceptor> = (0..3).map(Acceptor::new).collect();
        let mut old = adopted(0, &mut acceptors);
        let _lost = old.handle(&unnumbered(1, 1));
        let p2a = old.handle(&unnumbered(1, 2));
        for acc in &mut acceptors {
            acc.handle(&p2a[0].1);
        }
        let mut new = adopted(1, &mut acceptors);
        assert_eq!(new.handle(&unnumbered(1, 3))[0].1.instance, 3);
        let mut replica = Replica::new(0, 3);
        let report = replica.report().1;
        assert!(new.handle(&report).is_empty());
        let fill = new.handle(&report);
        assert_eq!((fill[0].1.instance, fill[0].1.value.len()), (1, 0));
        for acc in &mut acceptors {
            for (_, vote) in acc.handle(&fill[0].1) {
                replica.handle(&vote);
            }
        }
        // The no-op runs nothing and answers no one; slot 2 waits on
        // its own votes.
        assert_eq!((replica.slot_out(), replica.executed_count), (2, 0));
    }

    #[test]
    fn window_backpressures_slot_assignment() {
        let mut r = Replica::new(0, 3);
        for seq in 0..Replica::WINDOW + 10 {
            r.on_request(cmd(1, seq));
        }
        // Only WINDOW slots may be open ahead of slot_out = 1.
        assert_eq!(r.retained_slots() as u64, Replica::WINDOW);
        assert_eq!(r.requests.len() as u64, 10);
        assert_eq!(r.pending() as u64, Replica::WINDOW + 10);
    }
}
