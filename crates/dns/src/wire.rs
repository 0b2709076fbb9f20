//! DNS wire format (RFC 1035 subset).
//!
//! Emu DNS supports non-recursive name → IPv4 resolution (§3.3); this
//! module implements the corresponding wire format for real: the 12-byte
//! header, QNAME label encoding (including decompression of pointers when
//! parsing), the question section, and A-record answers. Both the hardware
//! and software servers operate on these exact bytes.

use std::net::Ipv4Addr;

use inc_net::{read_array, BufMut};

/// Errors decoding a DNS message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DnsError {
    /// Ran off the end of the buffer.
    Truncated,
    /// A label exceeded 63 bytes or the name exceeded 255.
    BadName,
    /// A compression pointer loop or forward pointer.
    BadPointer,
    /// The message had no question.
    NoQuestion,
    /// Unsupported query type for this server.
    Unsupported,
}

impl std::fmt::Display for DnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnsError::Truncated => write!(f, "message truncated"),
            DnsError::BadName => write!(f, "malformed name"),
            DnsError::BadPointer => write!(f, "bad compression pointer"),
            DnsError::NoQuestion => write!(f, "no question section"),
            DnsError::Unsupported => write!(f, "unsupported query"),
        }
    }
}

impl std::error::Error for DnsError {}

/// Response codes (RCODE).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist.
    NxDomain,
    /// Query kind not implemented.
    NotImp,
}

impl Rcode {
    fn to_u4(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
        }
    }

    fn from_u4(v: u16) -> Rcode {
        match v & 0xf {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            _ => Rcode::NotImp,
        }
    }
}

/// Record/query type A (IPv4 host address).
pub const TYPE_A: u16 = 1;
/// Class IN.
pub const CLASS_IN: u16 = 1;

/// The standard DNS UDP port.
pub const DNS_PORT: u16 = 53;

/// Longest wire form of a name, root byte included (RFC 1035 §2.3.4).
const MAX_NAME_LEN: usize = 255;

/// Longest label: the two top bits of a length byte mark a pointer.
const MAX_LABEL_LEN: usize = 63;

/// Compression pointers followed before a name is declared a loop.
const MAX_POINTER_JUMPS: u32 = 32;

/// Reads `N` bytes of `msg` starting at `at`, or reports a short message.
///
/// Every read of the decode paths goes through here or through `get`
/// (`inc-lint` rule `panicking-decode`): a hostile length or pointer
/// surfaces as a [`DnsError`], never as an out-of-bounds panic.
fn take<const N: usize>(msg: &[u8], at: usize) -> Result<[u8; N], DnsError> {
    read_array(msg, at).ok_or(DnsError::Truncated)
}

/// A domain name: its lowercase, uncompressed wire form — length-
/// prefixed labels and the root byte — held inline.
///
/// At most 255 bytes (RFC 1035), so a name is plain data: parsing one
/// out of a message, comparing, hashing and encoding it never touch
/// the heap. Case is folded when a name is made (from text or from the
/// wire), so equality and hashing are case-insensitive by construction.
/// Ordering is by label sequence, each label bytewise — the order of
/// the `Vec<Vec<u8>>` of labels this type used to be — not by raw wire
/// bytes, whose length prefixes would sort `b` before `ab`.
#[derive(Clone)]
pub struct Name {
    /// Bytes of `wire` in use, the root byte included: 1..=255.
    len: u8,
    wire: [u8; MAX_NAME_LEN],
}

impl Name {
    /// The root name (no labels).
    pub fn root() -> Name {
        Name {
            len: 1,
            wire: [0; MAX_NAME_LEN],
        }
    }

    /// Parses a dotted name (e.g. `"host.example.com"`), lowercasing it.
    ///
    /// Returns an error for empty/oversized labels or total length > 255.
    pub fn parse(s: &str) -> Result<Name, DnsError> {
        let s = s.trim_end_matches('.');
        let mut name = Name::root();
        if s.is_empty() {
            return Ok(name);
        }
        for part in s.split('.') {
            let label = part.as_bytes();
            if label.is_empty() || label.len() > MAX_LABEL_LEN {
                return Err(DnsError::BadName);
            }
            if name.encoded_len() + 1 + label.len() > MAX_NAME_LEN {
                return Err(DnsError::BadName);
            }
            name.append(label);
        }
        Ok(name)
    }

    /// [`Name::parse`] of formatted text, without the `String` that
    /// `format!` would allocate: `Name::from_fmt(format_args!("host-{i}.example.com"))`.
    /// Text longer than 256 bytes is rejected outright (no valid name
    /// is longer than 253 characters).
    pub fn from_fmt(args: std::fmt::Arguments<'_>) -> Result<Name, DnsError> {
        struct Text {
            buf: [u8; 256],
            len: usize,
        }
        impl std::fmt::Write for Text {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                let end = self.len + s.len();
                let room = self.buf.get_mut(self.len..end).ok_or(std::fmt::Error)?;
                room.copy_from_slice(s.as_bytes());
                self.len = end;
                Ok(())
            }
        }
        let mut text = Text {
            buf: [0; 256],
            len: 0,
        };
        std::fmt::Write::write_fmt(&mut text, args).map_err(|_| DnsError::BadName)?;
        let text = text.buf.get(..text.len).ok_or(DnsError::BadName)?;
        Name::parse(std::str::from_utf8(text).map_err(|_| DnsError::BadName)?)
    }

    /// Appends one label, lowercased, in front of the root byte. The
    /// caller has checked the label (1..=63 bytes) and the total.
    fn append(&mut self, label: &[u8]) {
        let at = usize::from(self.len) - 1; // Over the old root byte.
        let end = at + 1 + label.len();
        self.wire[at] = label.len() as u8;
        self.wire[at + 1..end].copy_from_slice(label);
        self.wire[at + 1..end].make_ascii_lowercase();
        self.wire[end] = 0;
        self.len = (end + 1) as u8;
    }

    /// The uncompressed wire form: what [`Name::encode`] writes, and the
    /// key a [`Zone`](crate::Zone) is looked up by.
    pub fn as_wire(&self) -> &[u8] {
        &self.wire[..usize::from(self.len)]
    }

    /// The labels, left to right.
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            rest: self.as_wire(),
        }
    }

    /// Encoded length in bytes (uncompressed).
    pub fn encoded_len(&self) -> usize {
        usize::from(self.len)
    }

    /// Encodes as an uncompressed sequence of length-prefixed labels.
    pub fn encode<B: BufMut>(&self, out: &mut B) {
        out.put_slice(self.as_wire());
    }

    /// Walks the (possibly compressed) name starting at `pos` inside
    /// `msg`, handing each label to `label`, and returns the offset just
    /// past the name's in-place encoding. The one name parser: pointers
    /// must point backwards, at most [`MAX_POINTER_JUMPS`] are followed,
    /// and the label and total length limits are enforced.
    fn walk(msg: &[u8], pos: usize, mut label: impl FnMut(&[u8])) -> Result<usize, DnsError> {
        let mut i = pos;
        let mut end = None; // Set at the first pointer.
        let mut jumps = 0;
        let mut total = 1;
        loop {
            let &len = msg.get(i).ok_or(DnsError::Truncated)?;
            if len & 0xC0 == 0xC0 {
                // Compression pointer.
                let &lo = msg.get(i + 1).ok_or(DnsError::Truncated)?;
                let target = (usize::from(len & 0x3F) << 8) | usize::from(lo);
                end.get_or_insert(i + 2);
                if target >= i {
                    return Err(DnsError::BadPointer); // Must point backwards.
                }
                jumps += 1;
                if jumps > MAX_POINTER_JUMPS {
                    return Err(DnsError::BadPointer);
                }
                i = target;
                continue;
            }
            if len & 0xC0 != 0 {
                return Err(DnsError::BadName);
            }
            if len == 0 {
                return Ok(end.unwrap_or(i + 1));
            }
            let len = usize::from(len);
            total += len + 1;
            if total > MAX_NAME_LEN {
                return Err(DnsError::BadName);
            }
            label(msg.get(i + 1..i + 1 + len).ok_or(DnsError::Truncated)?);
            i += 1 + len;
        }
    }

    /// Decodes a (possibly compressed) name starting at `pos` inside
    /// `msg`. Returns the name and the offset just past its in-place
    /// encoding.
    pub fn decode(msg: &[u8], pos: usize) -> Result<(Name, usize), DnsError> {
        let mut name = Name::root();
        let end = Name::walk(msg, pos, |label| name.append(label))?;
        Ok((name, end))
    }

    /// Validates the name at `pos` exactly as [`Name::decode`] would and
    /// returns the offset past it, without keeping the labels: what a
    /// reader of resource records does with owner names.
    fn skip(msg: &[u8], pos: usize) -> Result<usize, DnsError> {
        Name::walk(msg, pos, |_| {})
    }
}

/// The labels of a [`Name`], left to right.
#[derive(Clone, Debug)]
pub struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.rest.split_first()?;
        if len == 0 {
            return None; // The root byte.
        }
        let (label, rest) = rest.split_at_checked(usize::from(len))?;
        self.rest = rest;
        Some(label)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_wire() == other.as_wire()
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_wire().hash(state);
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Name({self})")
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.len == 1 {
            return write!(f, ".");
        }
        for (i, l) in self.labels().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{}", String::from_utf8_lossy(l))?;
        }
        Ok(())
    }
}

/// Writes the 12-byte message header.
fn encode_header<B: BufMut>(id: u16, flags: u16, ancount: u16, out: &mut B) {
    out.put_u16(id);
    out.put_u16(flags);
    out.put_u16(1); // QDCOUNT
    out.put_u16(ancount);
    out.put_u32(0); // NSCOUNT, ARCOUNT
}

/// A parsed DNS query (single question).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Transaction id.
    pub id: u16,
    /// Queried name.
    pub name: Name,
    /// Query type (e.g. [`TYPE_A`]).
    pub qtype: u16,
    /// Recursion desired flag (Emu DNS serves non-recursive only).
    pub recursion_desired: bool,
}

impl Query {
    /// Bytes [`Query::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        12 + self.name.encoded_len() + 4
    }

    /// Appends the query message to `out`.
    pub fn encode_into<B: BufMut>(&self, out: &mut B) {
        let flags: u16 = if self.recursion_desired { 0x0100 } else { 0 };
        encode_header(self.id, flags, 0, out);
        self.name.encode(out);
        out.put_u16(self.qtype);
        out.put_u16(CLASS_IN);
    }

    /// Encodes the query message into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes a query message. The name is inline, so this allocates
    /// nothing.
    pub fn decode(msg: &[u8]) -> Result<Query, DnsError> {
        let id = u16::from_be_bytes(take::<2>(msg, 0)?);
        let flags = u16::from_be_bytes(take::<2>(msg, 2)?);
        let qdcount = u16::from_be_bytes(take::<2>(msg, 4)?);
        take::<6>(msg, 6)?; // The rest of the header must be there.
        if qdcount == 0 {
            return Err(DnsError::NoQuestion);
        }
        let (name, pos) = Name::decode(msg, 12)?;
        Ok(Query {
            id,
            name,
            qtype: u16::from_be_bytes(take::<2>(msg, pos)?),
            recursion_desired: flags & 0x0100 != 0,
        })
    }
}

/// Bytes of a response to a question about `name` carrying `answers`
/// A records.
fn response_len(name: &Name, answers: usize) -> usize {
    12 + name.encoded_len() + 4 + answers * 16
}

/// Writes a response message, compressing answer names with a pointer
/// to the question (offset 12), as real servers do: the one response
/// encoder behind [`DnsResponse::encode_into`] and [`Answer::encode_into`].
fn encode_response<B: BufMut>(
    id: u16,
    rcode: Rcode,
    name: &Name,
    answers: impl ExactSizeIterator<Item = (Ipv4Addr, u32)>,
    out: &mut B,
) {
    // QR=1, AA=1 (authoritative), RCODE.
    encode_header(id, 0x8400 | rcode.to_u4(), answers.len() as u16, out);
    name.encode(out);
    out.put_u16(TYPE_A);
    out.put_u16(CLASS_IN);
    for (addr, ttl) in answers {
        let mut rr = [0xC0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0];
        rr[2..4].copy_from_slice(&TYPE_A.to_be_bytes());
        rr[4..6].copy_from_slice(&CLASS_IN.to_be_bytes());
        rr[6..10].copy_from_slice(&ttl.to_be_bytes());
        rr[12..16].copy_from_slice(&addr.octets());
        out.put_slice(&rr);
    }
}

/// A parsed DNS response (answers limited to A records) that owns its
/// answer list. The codec works on [`DnsResponseView`] and [`Answer`];
/// this is the convenience form for callers that keep a response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DnsResponse {
    /// Transaction id echoed from the query.
    pub id: u16,
    /// Response code.
    pub rcode: Rcode,
    /// The question being answered.
    pub name: Name,
    /// A-record answers.
    pub answers: Vec<(Ipv4Addr, u32)>,
}

impl DnsResponse {
    /// Bytes [`DnsResponse::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        response_len(&self.name, self.answers.len())
    }

    /// Appends the response message to `out`.
    pub fn encode_into<B: BufMut>(&self, out: &mut B) {
        let answers = self.answers.iter().copied();
        encode_response(self.id, self.rcode, &self.name, answers, out);
    }

    /// Encodes the response into a fresh buffer, compressing answer
    /// names with a pointer to the question (offset 12), as real
    /// servers do.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decodes a response message into an owned answer list:
    /// [`DnsResponseView::decode`] plus the `Vec`.
    pub fn decode(msg: &[u8]) -> Result<DnsResponse, DnsError> {
        DnsResponseView::decode(msg).map(|view| view.to_owned())
    }
}

/// The response a server of this zone model produces: the question
/// echoed and at most one A record, all inline — built, encoded into
/// the reply frame and dropped without touching the heap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Transaction id echoed from the query.
    pub id: u16,
    /// Response code.
    pub rcode: Rcode,
    /// The question being answered.
    pub name: Name,
    /// The A record, on a hit.
    pub record: Option<(Ipv4Addr, u32)>,
}

impl Answer {
    /// Bytes [`Answer::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        response_len(&self.name, usize::from(self.record.is_some()))
    }

    /// Appends the response message to `out`.
    pub fn encode_into<B: BufMut>(&self, out: &mut B) {
        encode_response(
            self.id,
            self.rcode,
            &self.name,
            self.record.into_iter(),
            out,
        );
    }
}

/// The same response with an owned answer list.
impl From<Answer> for DnsResponse {
    fn from(answer: Answer) -> DnsResponse {
        DnsResponse {
            id: answer.id,
            rcode: answer.rcode,
            name: answer.name,
            answers: answer.record.into_iter().collect(),
        }
    }
}

/// Reads the resource record at `pos`: its address and TTL if it is an
/// A record, and the offset of the next record. The owner name is
/// validated and skipped, not decoded.
fn read_record(msg: &[u8], pos: usize) -> Result<(Option<(Ipv4Addr, u32)>, usize), DnsError> {
    let pos = Name::skip(msg, pos)?;
    // TYPE, CLASS, TTL, RDLENGTH.
    let [t0, t1, _, _, ttl0, ttl1, ttl2, ttl3, len0, len1] = take::<10>(msg, pos)?;
    let rr_type = u16::from_be_bytes([t0, t1]);
    let ttl = u32::from_be_bytes([ttl0, ttl1, ttl2, ttl3]);
    let rdlen = usize::from(u16::from_be_bytes([len0, len1]));
    let rdata = msg
        .get(pos + 10..pos + 10 + rdlen)
        .ok_or(DnsError::Truncated)?;
    let a = match (rr_type, <[u8; 4]>::try_from(rdata)) {
        (TYPE_A, Ok(octets)) => Some((Ipv4Addr::from(octets), ttl)),
        _ => None,
    };
    Ok((a, pos + 10 + rdlen))
}

/// A decoded response that borrows the message: the header fields, the
/// question name (inline) and a cursor over the answer section, which
/// [`DnsResponseView::decode`] has already walked once to validate.
#[derive(Clone, Debug)]
pub struct DnsResponseView<'a> {
    /// Transaction id echoed from the query.
    pub id: u16,
    /// Response code.
    pub rcode: Rcode,
    /// The question being answered.
    pub name: Name,
    answers: Answers<'a>,
}

impl<'a> DnsResponseView<'a> {
    /// Decodes a response message without allocating.
    pub fn decode(msg: &'a [u8]) -> Result<DnsResponseView<'a>, DnsError> {
        let id = u16::from_be_bytes(take::<2>(msg, 0)?);
        let flags = u16::from_be_bytes(take::<2>(msg, 2)?);
        let qdcount = u16::from_be_bytes(take::<2>(msg, 4)?);
        let ancount = u16::from_be_bytes(take::<2>(msg, 6)?);
        take::<4>(msg, 8)?; // The rest of the header must be there.
        if qdcount == 0 {
            return Err(DnsError::NoQuestion);
        }
        let (name, pos) = Name::decode(msg, 12)?;
        let answers = Answers {
            msg,
            pos: pos + 4, // QTYPE + QCLASS.
            left: ancount,
        };
        // Every announced record must parse; iterating the view after
        // this cannot fail.
        let mut at = answers.pos;
        for _ in 0..ancount {
            (_, at) = read_record(msg, at)?;
        }
        Ok(DnsResponseView {
            id,
            rcode: Rcode::from_u4(flags),
            name,
            answers,
        })
    }

    /// The A-record answers, in message order.
    pub fn answers(&self) -> Answers<'a> {
        self.answers.clone()
    }

    /// Collects the answers into an owned [`DnsResponse`].
    pub fn to_owned(&self) -> DnsResponse {
        DnsResponse {
            id: self.id,
            rcode: self.rcode,
            name: self.name.clone(),
            answers: self.answers().collect(),
        }
    }
}

/// The `(address, ttl)` of each A record in a response's answer section.
#[derive(Clone, Debug)]
pub struct Answers<'a> {
    msg: &'a [u8],
    pos: usize,
    left: u16,
}

impl Iterator for Answers<'_> {
    type Item = (Ipv4Addr, u32);

    fn next(&mut self) -> Option<(Ipv4Addr, u32)> {
        while self.left > 0 {
            self.left -= 1;
            let (a, next) = read_record(self.msg, self.pos).ok()?;
            self.pos = next;
            if a.is_some() {
                return a;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_parse_and_display() {
        let n = Name::parse("Host.Example.COM").unwrap();
        assert_eq!(n.to_string(), "host.example.com");
        assert_eq!(n.labels().count(), 3);
        assert_eq!(Name::parse("a.b.").unwrap().to_string(), "a.b");
        assert_eq!(Name::parse("").unwrap().labels().count(), 0);
    }

    #[test]
    fn name_rejects_bad_labels() {
        assert_eq!(Name::parse("a..b"), Err(DnsError::BadName));
        let long_label = "x".repeat(64);
        assert_eq!(Name::parse(&long_label), Err(DnsError::BadName));
        let long_name = (0..50).map(|_| "abcde").collect::<Vec<_>>().join(".");
        assert_eq!(Name::parse(&long_name), Err(DnsError::BadName));
    }

    #[test]
    fn name_encode_decode_round_trip() {
        let n = Name::parse("www.example.org").unwrap();
        let mut buf = vec![0xFF; 3]; // Leading junk to offset the name.
        n.encode(&mut buf);
        let (got, end) = Name::decode(&buf, 3).unwrap();
        assert_eq!(got, n);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn name_decodes_compression_pointer() {
        // "example.com" at offset 2; pointer to it at the end.
        let mut buf = vec![0u8, 0];
        Name::parse("example.com").unwrap().encode(&mut buf);
        let ptr_at = buf.len();
        buf.extend_from_slice(&[0xC0, 2]);
        let (got, end) = Name::decode(&buf, ptr_at).unwrap();
        assert_eq!(got.to_string(), "example.com");
        assert_eq!(end, ptr_at + 2);
    }

    #[test]
    fn name_decodes_partial_compression() {
        // "com" at offset 0; "example" + pointer at offset 5.
        let mut buf = Vec::new();
        Name::parse("com").unwrap().encode(&mut buf); // 5 bytes
        let start = buf.len();
        buf.push(7);
        buf.extend_from_slice(b"example");
        buf.extend_from_slice(&[0xC0, 0]);
        let (got, _) = Name::decode(&buf, start).unwrap();
        assert_eq!(got.to_string(), "example.com");
    }

    #[test]
    fn pointer_loops_rejected() {
        // Forward/self pointers are invalid.
        let buf = [0xC0u8, 0x00];
        assert_eq!(Name::decode(&buf, 0), Err(DnsError::BadPointer));
    }

    #[test]
    fn pointer_chains_are_followed_32_jumps_deep_and_no_further() {
        // Offset 0 holds the root; every later pair points at the pair
        // (or root) before it, so decoding at pointer `k` takes `k` jumps.
        let mut buf = vec![0u8];
        for k in 1..=40usize {
            let target = if k == 1 { 0 } else { 1 + 2 * (k - 2) };
            buf.extend_from_slice(&[0xC0 | (target >> 8) as u8, target as u8]);
        }
        let at = |k: usize| 1 + 2 * (k - 1);
        assert_eq!(Name::decode(&buf, at(32)), Ok((Name::root(), at(32) + 2)));
        assert_eq!(Name::decode(&buf, at(33)), Err(DnsError::BadPointer));
        assert_eq!(Name::skip(&buf, at(32)), Ok(at(32) + 2));
        assert_eq!(Name::skip(&buf, at(33)), Err(DnsError::BadPointer));
    }

    #[test]
    fn wire_names_respect_the_label_and_total_limits() {
        // A 63-byte label is the longest a length byte can announce.
        let mut buf = vec![63u8];
        buf.extend_from_slice(&[b'A'; 63]);
        buf.push(0);
        let (name, end) = Name::decode(&buf, 0).unwrap();
        assert_eq!(end, 65);
        assert_eq!(name.labels().next(), Some(&[b'a'; 63][..]));
        // 0x40 and 0x80 prefixes are neither labels nor pointers.
        assert_eq!(Name::decode(&[0x40, 0], 0), Err(DnsError::BadName));
        assert_eq!(Name::decode(&[0x80, 0], 0), Err(DnsError::BadName));
        // 3 × 63 + 61 bytes of labels + 4 length bytes + root = 255: fits.
        let label = |n: usize| {
            let mut l = vec![n as u8];
            l.extend(std::iter::repeat_n(b'x', n));
            l
        };
        let mut longest = [label(63), label(63), label(63), label(61)].concat();
        longest.push(0);
        assert_eq!(longest.len(), 255);
        let (name, _) = Name::decode(&longest, 0).unwrap();
        assert_eq!(name.as_wire(), &longest[..]);
        assert_eq!(Name::parse(&name.to_string()), Ok(name));
        // One byte more does not.
        let mut too_long = [label(63), label(63), label(63), label(62)].concat();
        too_long.push(0);
        assert_eq!(Name::decode(&too_long, 0), Err(DnsError::BadName));
    }

    #[test]
    fn names_order_by_labels_not_by_wire_bytes() {
        let name = |s| Name::parse(s).unwrap();
        // Wire forms start 2,'a','b' and 1,'b': bytewise the longer
        // label would sort last; by label it sorts first.
        assert!(name("ab") < name("b"));
        assert!(name("a") < name("a.b"));
        assert!(name("a.b") < name("a.c"));
        assert_eq!(name("A.b"), name("a.B"));
        assert_eq!(name("a.b").cmp(&name("A.B")), std::cmp::Ordering::Equal);
        assert_eq!(format!("{:?}", name("Host.example")), "Name(host.example)");
    }

    #[test]
    fn from_fmt_parses_without_a_string() {
        let n = Name::from_fmt(format_args!("Host-{}.example.com", 17)).unwrap();
        assert_eq!(n, Name::parse("host-17.example.com").unwrap());
        assert_eq!(Name::from_fmt(format_args!("a..b")), Err(DnsError::BadName));
        let long = "x".repeat(300);
        assert_eq!(
            Name::from_fmt(format_args!("{long}")),
            Err(DnsError::BadName)
        );
    }

    #[test]
    fn a_response_with_announced_but_absent_records_is_rejected() {
        let r = DnsResponse {
            id: 1,
            rcode: Rcode::NoError,
            name: Name::parse("a.b").unwrap(),
            answers: vec![],
        };
        let mut bytes = r.encode();
        bytes[6..8].copy_from_slice(&u16::MAX.to_be_bytes()); // ANCOUNT
        assert_eq!(DnsResponse::decode(&bytes), Err(DnsError::Truncated));
        assert!(DnsResponseView::decode(&bytes).is_err());
    }

    #[test]
    fn answer_encodes_like_the_owned_response() {
        for record in [None, Some((Ipv4Addr::new(10, 9, 8, 7), 300))] {
            let answer = Answer {
                id: 77,
                rcode: if record.is_some() {
                    Rcode::NoError
                } else {
                    Rcode::NxDomain
                },
                name: Name::parse("host-3.example.com").unwrap(),
                record,
            };
            let mut bytes = Vec::new();
            answer.encode_into(&mut bytes);
            assert_eq!(bytes.len(), answer.encoded_len());
            let owned = DnsResponse::from(answer);
            assert_eq!(bytes, owned.encode());
            assert_eq!(DnsResponse::decode(&bytes), Ok(owned));
        }
    }

    #[test]
    fn query_round_trip() {
        let q = Query {
            id: 0xBEEF,
            name: Name::parse("host-7.example.com").unwrap(),
            qtype: TYPE_A,
            recursion_desired: false,
        };
        let bytes = q.encode();
        let got = Query::decode(&bytes).unwrap();
        assert_eq!(got, q);
    }

    #[test]
    fn response_round_trip_with_answers() {
        let r = DnsResponse {
            id: 7,
            rcode: Rcode::NoError,
            name: Name::parse("a.b.c").unwrap(),
            answers: vec![
                (Ipv4Addr::new(10, 1, 2, 3), 300),
                (Ipv4Addr::new(10, 1, 2, 4), 300),
            ],
        };
        let bytes = r.encode();
        let got = DnsResponse::decode(&bytes).unwrap();
        assert_eq!(got, r);
    }

    #[test]
    fn nxdomain_round_trip() {
        let r = DnsResponse {
            id: 9,
            rcode: Rcode::NxDomain,
            name: Name::parse("missing.example.com").unwrap(),
            answers: vec![],
        };
        let got = DnsResponse::decode(&r.encode()).unwrap();
        assert_eq!(got.rcode, Rcode::NxDomain);
        assert!(got.answers.is_empty());
    }

    #[test]
    fn truncated_messages_rejected() {
        assert_eq!(Query::decode(&[0u8; 5]), Err(DnsError::Truncated));
        let q = Query {
            id: 1,
            name: Name::parse("x.y").unwrap(),
            qtype: TYPE_A,
            recursion_desired: false,
        };
        let bytes = q.encode();
        assert!(Query::decode(&bytes[..bytes.len() - 3]).is_err());
    }
}
