//! The P4xos wire format (§3.2).
//!
//! P4xos encodes Paxos messages in a fixed header that a P4 parser can
//! handle: message type, instance, round, value-round, acceptor id, and a
//! bounded value. Values carry opaque client commands; this crate gives
//! them a canonical `(client, sequence, payload)` encoding so learners can
//! answer clients and tests can verify end-to-end delivery.
//!
//! This codec is the boundary of the sans-IO contract: the
//! [`crate::multi`] machines speak exclusively in [`PaxosMsg`] values,
//! so one `encode`/`decode` pair covers software hosts, P4 dataplanes
//! and every test harness. `decode` is total over
//! arbitrary bytes (it returns [`MsgError`], never panics); `encode`
//! panics loudly if a value exceeds [`MAX_VALUE_LEN`] rather than
//! silently truncating the 16-bit length field.
//!
//! A decoded value is one refcounted [`Bytes`], and from there every
//! role machine stores, forwards and re-proposes it by bumping that
//! count. How the decoder gets that handle depends on what the receiver
//! holds, and the three ways agree field for field:
//!
//! * [`PaxosMsg::decode`] has only the bytes: it copies the value out of
//!   the datagram, one allocation (none for an empty value).
//! * [`PaxosMsg::decode_shared`] has the datagram as [`Bytes`] — a
//!   simulator node holds the packet — and the value is a view of it: no
//!   allocation, but whoever parks the value parks the frame it arrived
//!   in.
//! * [`PaxosMsg::decode_sharing`] also has the value the sender sent —
//!   an in-process hop, like the chaos harness's — and when the wire
//!   bytes equal it, the value is that sender's handle: no allocation,
//!   and one command's bytes stay one buffer across every hop.
//!
//! The sending side need not allocate either — [`PaxosMsg::write_to`]
//! appends to any [`BufMut`], a frame under construction included, and
//! [`PaxosMsg::encode_into`] to a buffer the caller reuses.

use std::ops::Range;

use inc_net::{read_array, BufMut, Bytes};

/// Paxos message types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgType {
    /// Client → leader: please order this value.
    ClientRequest,
    /// Leader → acceptors: phase 1a (prepare) for one instance.
    Phase1a,
    /// Acceptor → leader: phase 1b (promise).
    Phase1b,
    /// Leader → acceptors: phase 2a (accept request).
    Phase2a,
    /// Acceptor → learners (and leader): phase 2b (vote).
    Phase2b,
    /// Replica → client: the command was executed.
    ClientReply,
    /// Replica → leader: the replica's slot report — its `slot_out`, the
    /// slot it waits on (§9.2's gap request).
    GapRequest,
}

impl MsgType {
    fn to_byte(self) -> u8 {
        match self {
            MsgType::ClientRequest => 0,
            MsgType::Phase1a => 1,
            MsgType::Phase1b => 2,
            MsgType::Phase2a => 3,
            MsgType::Phase2b => 4,
            MsgType::ClientReply => 5,
            MsgType::GapRequest => 6,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => MsgType::ClientRequest,
            1 => MsgType::Phase1a,
            2 => MsgType::Phase1b,
            3 => MsgType::Phase2a,
            4 => MsgType::Phase2b,
            5 => MsgType::ClientReply,
            6 => MsgType::GapRequest,
            _ => return None,
        })
    }
}

/// Errors decoding a Paxos datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgError {
    /// Buffer shorter than the header.
    Truncated,
    /// Unknown message type.
    BadType(u8),
    /// Value length field disagrees with the buffer.
    BadLength,
}

impl std::fmt::Display for MsgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsgError::Truncated => write!(f, "paxos message truncated"),
            MsgError::BadType(t) => write!(f, "unknown paxos message type {t}"),
            MsgError::BadLength => write!(f, "paxos value length mismatch"),
        }
    }
}

impl std::error::Error for MsgError {}

/// The special value proposed to fill gaps (§9.2: "they learn a no-op").
pub const NOOP_VALUE: &[u8] = b"";

/// Largest value a [`PaxosMsg`] can carry: the wire format's length
/// field is 16 bits. [`PaxosMsg::encode`] asserts this bound — before
/// it did, an oversized value encoded a *truncated length* and the
/// full bytes, so `decode` returned `Ok` with a silently corrupted
/// value instead of failing loudly.
pub const MAX_VALUE_LEN: usize = u16::MAX as usize;

/// A Paxos protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaxosMsg {
    /// Message type.
    pub mtype: MsgType,
    /// Consensus instance (sequence number).
    pub instance: u64,
    /// Ballot/round number.
    pub round: u16,
    /// Round in which `value` was voted (phase 1b/2b).
    pub vround: u16,
    /// Acceptor identity (phase 1b/2b).
    pub acceptor: u8,
    /// Highest instance this acceptor has voted in (§9.2 extension:
    /// included "whenever the acceptor responds").
    pub last_voted: u64,
    /// The value (empty for no-op and phase 1a). Cloning the message
    /// shares it.
    pub value: Bytes,
}

impl PaxosMsg {
    /// Shorthand constructor with empty bookkeeping fields. A `Vec<u8>`
    /// value is moved into its refcounted buffer here (the one copy a
    /// locally built message pays); a [`Bytes`] is taken as is, and an
    /// empty value of either kind does not allocate.
    pub fn new(mtype: MsgType, instance: u64, round: u16, value: impl Into<Bytes>) -> Self {
        PaxosMsg {
            mtype,
            instance,
            round,
            vround: 0,
            acceptor: 0,
            last_voted: 0,
            value: value.into(),
        }
    }

    /// Encoded length on the wire.
    pub fn encoded_len(&self) -> usize {
        Self::HEADER_LEN + self.value.len()
    }

    /// Encodes to a fresh buffer. A sender on a hot path keeps one
    /// buffer and calls [`PaxosMsg::encode_into`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds [`MAX_VALUE_LEN`]: the length field
    /// is 16-bit, and truncating it silently would corrupt the value
    /// on decode.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded message to `out`, which keeps whatever it
    /// already holds: `clear()` a scratch buffer between messages and,
    /// once it has grown to the largest message seen, sending allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds [`MAX_VALUE_LEN`], like
    /// [`PaxosMsg::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        self.write_to(out);
    }

    /// Appends the encoded message to any byte sink: the one encoder.
    ///
    /// # Panics
    ///
    /// Panics if the value exceeds [`MAX_VALUE_LEN`], like
    /// [`PaxosMsg::encode`].
    pub fn write_to<B: BufMut>(&self, out: &mut B) {
        self.write_header(self.value.len(), out);
        out.put_slice(&self.value);
    }

    /// Appends the 24 header bytes of this message as if its value were
    /// `value_len` bytes long; the caller writes those bytes next. Lets
    /// a sender whose value exists only as fields (a client command)
    /// encode it in place instead of materialising it first.
    ///
    /// # Panics
    ///
    /// Panics if `value_len` exceeds [`MAX_VALUE_LEN`].
    pub fn write_header<B: BufMut>(&self, value_len: usize, out: &mut B) {
        assert!(
            value_len <= MAX_VALUE_LEN,
            "paxos value ({value_len} bytes) exceeds the 16-bit wire length field"
        );
        let mut header = [0u8; Self::HEADER_LEN];
        header[0] = self.mtype.to_byte();
        header[1..9].copy_from_slice(&self.instance.to_be_bytes());
        header[9..11].copy_from_slice(&self.round.to_be_bytes());
        header[11..13].copy_from_slice(&self.vround.to_be_bytes());
        header[13] = self.acceptor;
        header[14..22].copy_from_slice(&self.last_voted.to_be_bytes());
        header[22..24].copy_from_slice(&(value_len as u16).to_be_bytes());
        out.put_slice(&header);
    }

    /// Bytes in front of the value.
    pub const HEADER_LEN: usize = 24;

    /// Parses the header into a constructor awaiting the value, and says
    /// where in `buf` the value lies. The one decoder;
    /// [`PaxosMsg::decode`], [`PaxosMsg::decode_shared`] and
    /// [`PaxosMsg::decode_sharing`] differ only in how they take the
    /// value.
    ///
    /// Panic-free by contract (`inc-lint` rule `panicking-decode`):
    /// malformed input maps to a [`MsgError`], never an out-of-bounds
    /// slice panic.
    fn decode_header(
        buf: &[u8],
    ) -> Result<(impl FnOnce(Bytes) -> PaxosMsg, Range<usize>), MsgError> {
        fn arr<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], MsgError> {
            read_array(buf, at).ok_or(MsgError::Truncated)
        }
        if buf.len() < Self::HEADER_LEN {
            return Err(MsgError::Truncated);
        }
        let t0 = *buf.first().ok_or(MsgError::Truncated)?;
        let mtype = MsgType::from_byte(t0).ok_or(MsgError::BadType(t0))?;
        let instance = u64::from_be_bytes(arr::<8>(buf, 1)?);
        let round = u16::from_be_bytes(arr::<2>(buf, 9)?);
        let vround = u16::from_be_bytes(arr::<2>(buf, 11)?);
        let acceptor = *buf.get(13).ok_or(MsgError::Truncated)?;
        let last_voted = u64::from_be_bytes(arr::<8>(buf, 14)?);
        let vlen = u16::from_be_bytes(arr::<2>(buf, 22)?) as usize;
        let value = Self::HEADER_LEN..Self::HEADER_LEN + vlen;
        if value.end > buf.len() {
            return Err(MsgError::BadLength);
        }
        let finish = move |value| PaxosMsg {
            mtype,
            instance,
            round,
            vround,
            acceptor,
            last_voted,
            value,
        };
        Ok((finish, value))
    }

    /// Decodes from bytes. The value is copied out of `buf` into one
    /// refcounted allocation — the hop's only one — or none at all when
    /// it is empty (phase 1a, refusals, no-ops).
    pub fn decode(buf: &[u8]) -> Result<PaxosMsg, MsgError> {
        let (finish, value) = Self::decode_header(buf)?;
        let value = buf.get(value).ok_or(MsgError::BadLength)?;
        Ok(finish(Bytes::copy_from_slice(value)))
    }

    /// Decodes from a datagram that is already refcounted: the value is
    /// a [`Bytes::slice`] of `buf`, so nothing is allocated or copied.
    /// The value keeps all of `buf`'s allocation alive — fine while a
    /// message is handled and forwarded, a cost for a role that parks
    /// it (a [`PaxosNode`](crate::PaxosNode) copies a longer value out
    /// before a role can).
    pub fn decode_shared(buf: &Bytes) -> Result<PaxosMsg, MsgError> {
        let (finish, value) = Self::decode_header(buf)?;
        Ok(finish(buf.slice(value)))
    }

    /// Decodes from bytes when the receiver also holds the value the
    /// sender sent (an in-process hop): if the value on the wire equals
    /// `sent` byte for byte, the decoded value is a clone of `sent` and
    /// nothing is allocated; otherwise it is copied as by
    /// [`PaxosMsg::decode`]. Either way the result equals `decode(buf)`,
    /// errors included — `sent` is compared, never trusted.
    pub fn decode_sharing(buf: &[u8], sent: &Bytes) -> Result<PaxosMsg, MsgError> {
        let (finish, value) = Self::decode_header(buf)?;
        let value = buf.get(value).ok_or(MsgError::BadLength)?;
        if value == sent.as_ref() {
            return Ok(finish(sent.clone()));
        }
        Ok(finish(Bytes::copy_from_slice(value)))
    }
}

/// The canonical content of a proposed value: which client asked, their
/// request sequence number, and the application payload.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ClientCommand {
    /// Client identity.
    pub client: u32,
    /// Client-local request sequence number.
    pub seq: u64,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl ClientCommand {
    /// Encodes into a Paxos value.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded value to `out` (the scratch-buffer twin of
    /// [`ClientCommand::encode`], like [`PaxosMsg::encode_into`]).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        Self::write_header(self.client, self.seq, out);
        out.extend_from_slice(&self.payload);
    }

    /// Appends the `client:u32 | seq:u64` header [`ClientCommand::header`]
    /// reads back; the payload bytes follow it.
    pub fn write_header<B: BufMut>(client: u32, seq: u64, out: &mut B) {
        out.put_u32(client);
        out.put_u64(seq);
    }

    /// Bytes of the `client:u32 | seq:u64` header in front of the payload.
    pub const HEADER_LEN: usize = 12;

    /// Peeks `(client, seq)` out of a Paxos value's 12-byte header
    /// without copying the payload — all a replica, learner or client
    /// needs to deduplicate and route a reply. `None` for values shorter
    /// than the header (no-ops).
    pub fn header(value: &[u8]) -> Option<(u32, u64)> {
        let client = u32::from_be_bytes(value.get(0..4)?.try_into().ok()?);
        let seq = u64::from_be_bytes(value.get(4..12)?.try_into().ok()?);
        Some((client, seq))
    }
}

/// The UDP port of the (virtual) Paxos leader service. Steering this port
/// is how the coordinator moves the leader (§9.2).
pub const PAXOS_LEADER_PORT: u16 = 8600;
/// The UDP port acceptors listen on.
pub const PAXOS_ACCEPTOR_PORT: u16 = 8601;
/// The UDP port learners listen on.
pub const PAXOS_LEARNER_PORT: u16 = 8602;
/// The UDP port clients receive replies on.
pub const PAXOS_CLIENT_PORT: u16 = 8603;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        for mtype in [
            MsgType::ClientRequest,
            MsgType::Phase1a,
            MsgType::Phase1b,
            MsgType::Phase2a,
            MsgType::Phase2b,
            MsgType::ClientReply,
            MsgType::GapRequest,
        ] {
            let m = PaxosMsg {
                mtype,
                instance: 0xDEAD_BEEF_0123,
                round: 7,
                vround: 3,
                acceptor: 2,
                last_voted: 99,
                value: Bytes::from_static(b"some value"),
            };
            let got = PaxosMsg::decode(&m.encode()).unwrap();
            assert_eq!(got, m);
        }
    }

    #[test]
    fn truncated_and_bad_type() {
        assert_eq!(PaxosMsg::decode(&[0u8; 10]), Err(MsgError::Truncated));
        let m = PaxosMsg::new(MsgType::Phase2a, 1, 1, vec![1, 2, 3]);
        let mut bytes = m.encode();
        bytes[0] = 99;
        assert_eq!(PaxosMsg::decode(&bytes), Err(MsgError::BadType(99)));
    }

    #[test]
    fn bad_value_length() {
        let m = PaxosMsg::new(MsgType::Phase2a, 1, 1, vec![1, 2, 3]);
        let mut bytes = m.encode();
        bytes.truncate(bytes.len() - 1);
        assert_eq!(PaxosMsg::decode(&bytes), Err(MsgError::BadLength));
    }

    #[test]
    fn client_command_round_trip() {
        let c = ClientCommand {
            client: 42,
            seq: 1000,
            payload: b"put x=1".to_vec(),
        };
        let value = c.encode();
        assert_eq!(ClientCommand::header(&value), Some((42, 1000)));
        assert_eq!(value[ClientCommand::HEADER_LEN..], c.payload);
        assert_eq!(ClientCommand::header(&[0u8; 5]), None);
    }

    #[test]
    fn header_peek_reads_client_and_seq() {
        let c = ClientCommand {
            client: 42,
            seq: 1000,
            payload: Vec::new(),
        };
        let value = c.encode();
        assert_eq!(value.len(), ClientCommand::HEADER_LEN);
        assert_eq!(ClientCommand::header(&value), Some((42, 1000)));
        assert_eq!(ClientCommand::header(&value[..11]), None);
        assert_eq!(ClientCommand::header(NOOP_VALUE), None);
    }

    #[test]
    fn encode_into_appends_and_reuses_the_buffer() {
        let a = PaxosMsg::new(MsgType::Phase2a, 1, 1, vec![1, 2, 3]);
        let b = PaxosMsg::new(MsgType::Phase1a, 2, 2, Vec::new());
        let mut buf = vec![0xEE];
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        assert_eq!(buf[0], 0xEE);
        assert_eq!(buf[1..1 + a.encoded_len()], a.encode());
        assert_eq!(buf[1 + a.encoded_len()..], b.encode());
        // A cleared scratch buffer keeps its capacity: no reallocation.
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        buf.clear();
        a.encode_into(&mut buf);
        assert_eq!(buf, a.encode());
        assert_eq!((buf.capacity(), buf.as_ptr()), (cap, ptr));
    }

    #[test]
    fn empty_value_encodes() {
        let m = PaxosMsg::new(MsgType::Phase1a, 5, 2, vec![]);
        let got = PaxosMsg::decode(&m.encode()).unwrap();
        assert!(got.value.is_empty());
    }

    #[test]
    fn max_value_round_trips() {
        let m = PaxosMsg::new(MsgType::Phase2a, 1, 1, vec![0xAB; MAX_VALUE_LEN]);
        let got = PaxosMsg::decode(&m.encode()).unwrap();
        assert_eq!(got, m);
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit wire length field")]
    fn oversized_value_panics_instead_of_corrupting() {
        // Before the MAX_VALUE_LEN assert, this encoded a wrapped
        // length and decode returned Ok with a truncated value.
        let m = PaxosMsg::new(MsgType::Phase2a, 1, 1, vec![0; MAX_VALUE_LEN + 1]);
        let _ = m.encode();
    }
}
