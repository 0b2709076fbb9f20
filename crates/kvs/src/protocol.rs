//! The memcached binary protocol over UDP.
//!
//! LaKe "supports standard memcached functionality" (§3.1), so this module
//! implements the real wire format: the 8-byte memcached UDP frame header
//! followed by a 24-byte binary-protocol header, extras, key and value.
//! Both the hardware (LaKe) and software (memcached) models parse and emit
//! these exact bytes, which is what lets the on-demand shift be invisible
//! to clients.
//!
//! There is one encoder and one decoder. Both work on borrowed views —
//! [`RequestView`], [`ResponseView`], [`decode_view`] — that slice the
//! datagram instead of copying keys and values out of it, and write to
//! any [`BufMut`], so a server encodes its reply straight into the
//! frame it sends. The owned [`Request`]/[`Response`]/[`decode`] forms
//! are those views plus `to_vec()`.

use inc_net::{read_array, BufMut};

/// Memcached binary protocol opcodes (subset used by the paper's workloads).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Retrieve a value.
    Get,
    /// Store a value.
    Set,
    /// Remove a key.
    Delete,
}

impl Opcode {
    fn to_byte(self) -> u8 {
        match self {
            Opcode::Get => 0x00,
            Opcode::Set => 0x01,
            Opcode::Delete => 0x04,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0x00 => Some(Opcode::Get),
            0x01 => Some(Opcode::Set),
            0x04 => Some(Opcode::Delete),
            _ => None,
        }
    }
}

/// Binary-protocol response status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok,
    /// Key not found.
    KeyNotFound,
    /// Value too large for the store.
    TooLarge,
    /// Any other error.
    InternalError,
}

impl Status {
    fn to_u16(self) -> u16 {
        match self {
            Status::Ok => 0x0000,
            Status::KeyNotFound => 0x0001,
            Status::TooLarge => 0x0003,
            Status::InternalError => 0x0084,
        }
    }

    fn from_u16(v: u16) -> Status {
        match v {
            0x0000 => Status::Ok,
            0x0001 => Status::KeyNotFound,
            0x0003 => Status::TooLarge,
            _ => Status::InternalError,
        }
    }
}

/// Errors decoding a memcached datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// Shorter than the frame + binary headers.
    Truncated,
    /// Magic byte is neither request (0x80) nor response (0x81).
    BadMagic(u8),
    /// Unsupported opcode.
    BadOpcode(u8),
    /// Header lengths disagree with the buffer.
    BadLength,
    /// Multi-datagram UDP responses are not supported (requests always fit).
    Fragmented,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "datagram truncated"),
            ProtocolError::BadMagic(m) => write!(f, "bad magic 0x{m:02x}"),
            ProtocolError::BadOpcode(o) => write!(f, "unsupported opcode 0x{o:02x}"),
            ProtocolError::BadLength => write!(f, "length fields inconsistent"),
            ProtocolError::Fragmented => write!(f, "fragmented udp response unsupported"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The 8-byte memcached UDP frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct FrameHeader {
    /// Client-chosen request id echoed in the response.
    pub request_id: u16,
    /// Sequence number of this datagram.
    pub seq: u16,
    /// Total datagrams in the message.
    pub total: u16,
}

/// Reads `N` bytes of `buf` starting at `at`, or reports a short buffer.
///
/// Every read of the decode path goes through here or through `get`
/// (`inc-lint` rule `panicking-decode`): hostile lengths surface as a
/// [`ProtocolError`], never as an out-of-bounds panic.
fn take<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], ProtocolError> {
    read_array(buf, at).ok_or(ProtocolError::Truncated)
}

impl FrameHeader {
    const LEN: usize = 8;

    fn encode<B: BufMut>(&self, out: &mut B) {
        out.put_u16(self.request_id);
        out.put_u16(self.seq);
        out.put_u16(self.total);
        out.put_u16(0); // Reserved.
    }

    fn decode(buf: &[u8]) -> Result<(Self, &[u8]), ProtocolError> {
        let header = FrameHeader {
            request_id: u16::from_be_bytes(take::<2>(buf, 0)?),
            seq: u16::from_be_bytes(take::<2>(buf, 2)?),
            total: u16::from_be_bytes(take::<2>(buf, 4)?),
        };
        let rest = buf.get(Self::LEN..).ok_or(ProtocolError::Truncated)?;
        Ok((header, rest))
    }
}

/// A decoded memcached request that owns its key and value.
///
/// The wire codec itself works on [`RequestView`]; this is the
/// convenience form for callers that keep a request around (tests,
/// examples, the benchmark's probes), converted with
/// [`Request::as_view`] and [`RequestView::to_owned`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// GET key.
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// SET key = value.
    Set {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
        /// Client flags stored with the value.
        flags: u32,
        /// Expiry in seconds (0 = never); stored but not enforced.
        expiry: u32,
    },
    /// DELETE key.
    Delete {
        /// Key bytes.
        key: Vec<u8>,
    },
}

impl Request {
    /// Borrows this request as the view the codec works on.
    pub fn as_view(&self) -> RequestView<'_> {
        match self {
            Request::Get { key } => RequestView::Get { key },
            Request::Set {
                key,
                value,
                flags,
                expiry,
            } => RequestView::Set {
                key,
                value,
                flags: *flags,
                expiry: *expiry,
            },
            Request::Delete { key } => RequestView::Delete { key },
        }
    }
}

/// A memcached request whose key and value are borrowed — from the
/// datagram it was decoded out of, or from whatever the sender holds.
/// Decoding to it and encoding from it allocate nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestView<'a> {
    /// GET key.
    Get {
        /// Key bytes.
        key: &'a [u8],
    },
    /// SET key = value.
    Set {
        /// Key bytes.
        key: &'a [u8],
        /// Value bytes.
        value: &'a [u8],
        /// Client flags stored with the value.
        flags: u32,
        /// Expiry in seconds (0 = never); stored but not enforced.
        expiry: u32,
    },
    /// DELETE key.
    Delete {
        /// Key bytes.
        key: &'a [u8],
    },
}

impl<'a> RequestView<'a> {
    /// The opcode of this request.
    pub fn opcode(&self) -> Opcode {
        match self {
            RequestView::Get { .. } => Opcode::Get,
            RequestView::Set { .. } => Opcode::Set,
            RequestView::Delete { .. } => Opcode::Delete,
        }
    }

    /// The key this request addresses.
    pub fn key(&self) -> &'a [u8] {
        match *self {
            RequestView::Get { key }
            | RequestView::Delete { key }
            | RequestView::Set { key, .. } => key,
        }
    }

    /// Copies key and value into an owned [`Request`].
    pub fn to_owned(&self) -> Request {
        match *self {
            RequestView::Get { key } => Request::Get { key: key.to_vec() },
            RequestView::Set {
                key,
                value,
                flags,
                expiry,
            } => Request::Set {
                key: key.to_vec(),
                value: value.to_vec(),
                flags,
                expiry,
            },
            RequestView::Delete { key } => Request::Delete { key: key.to_vec() },
        }
    }

    /// Bytes [`RequestView::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        let body = match *self {
            RequestView::Get { key } | RequestView::Delete { key } => key.len(),
            RequestView::Set { key, value, .. } => 8 + key.len() + value.len(),
        };
        FrameHeader::LEN + BIN_HLEN + body
    }

    /// Appends the request datagram (frame header + binary message).
    pub fn encode_into<B: BufMut>(&self, frame: FrameHeader, opaque: u32, out: &mut B) {
        let value = match *self {
            RequestView::Set { value, .. } => value,
            _ => &[],
        };
        self.encode_head_into(frame, opaque, value.len(), out);
        out.put_slice(value);
    }

    /// [`RequestView::encode_into`] short of the value: announces one of
    /// `value_len` bytes, in place of its own, for the caller to append.
    /// How a client sends a SET value it derives rather than holds.
    pub(crate) fn encode_head_into<B: BufMut>(
        &self,
        frame: FrameHeader,
        opaque: u32,
        value_len: usize,
        out: &mut B,
    ) {
        frame.encode(out);
        let mut extras = [0u8; 8];
        let extras: &[u8] = match *self {
            RequestView::Set { flags, expiry, .. } => {
                extras[..4].copy_from_slice(&flags.to_be_bytes());
                extras[4..].copy_from_slice(&expiry.to_be_bytes());
                &extras
            }
            _ => &[],
        };
        encode_binary(
            MAGIC_REQUEST,
            self.opcode(),
            0,
            extras,
            self.key(),
            value_len,
            opaque,
            out,
        );
    }
}

/// A decoded memcached response that owns its value (see [`Request`]
/// for why both forms exist).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Opcode being answered.
    pub opcode: Opcode,
    /// Outcome.
    pub status: Status,
    /// Value (GET hits only).
    pub value: Vec<u8>,
    /// Flags stored with the value (GET hits only).
    pub flags: u32,
    /// Opaque value echoed from the request.
    pub opaque: u32,
}

impl Response {
    /// Borrows this response as the view the codec works on.
    pub fn as_view(&self) -> ResponseView<'_> {
        ResponseView {
            opcode: self.opcode,
            status: self.status,
            value: &self.value,
            flags: self.flags,
            opaque: self.opaque,
        }
    }
}

/// A memcached response whose value is borrowed: from the datagram it
/// arrived in, or straight from the store that answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseView<'a> {
    /// Opcode being answered.
    pub opcode: Opcode,
    /// Outcome.
    pub status: Status,
    /// Value (GET hits only).
    pub value: &'a [u8],
    /// Flags stored with the value (GET hits only).
    pub flags: u32,
    /// Opaque value echoed from the request.
    pub opaque: u32,
}

impl ResponseView<'_> {
    /// GET hits carry the stored flags as 4 bytes of extras.
    fn has_extras(&self) -> bool {
        self.opcode == Opcode::Get && self.status == Status::Ok
    }

    /// Copies the value into an owned [`Response`].
    pub fn to_owned(&self) -> Response {
        Response {
            opcode: self.opcode,
            status: self.status,
            value: self.value.to_vec(),
            flags: self.flags,
            opaque: self.opaque,
        }
    }

    /// Bytes [`ResponseView::encode_into`] writes.
    pub fn encoded_len(&self) -> usize {
        let extras = if self.has_extras() { 4 } else { 0 };
        FrameHeader::LEN + BIN_HLEN + extras + self.value.len()
    }

    /// Appends the response datagram answering `frame`.
    pub fn encode_into<B: BufMut>(&self, frame: FrameHeader, out: &mut B) {
        frame.encode(out);
        let flags = self.flags.to_be_bytes();
        let extras: &[u8] = if self.has_extras() { &flags } else { &[] };
        encode_binary(
            MAGIC_RESPONSE,
            self.opcode,
            self.status.to_u16(),
            extras,
            &[],
            self.value.len(),
            self.opaque,
            out,
        );
        out.put_slice(self.value);
    }
}

const BIN_HLEN: usize = 24;
const MAGIC_REQUEST: u8 = 0x80;
const MAGIC_RESPONSE: u8 = 0x81;

/// Appends a binary message up to its value, announcing a value of
/// `value_len` bytes for the caller to append.
// The binary header simply has this many independent fields.
#[allow(clippy::too_many_arguments)]
fn encode_binary<B: BufMut>(
    magic: u8,
    opcode: Opcode,
    status_or_vbucket: u16,
    extras: &[u8],
    key: &[u8],
    value_len: usize,
    opaque: u32,
    out: &mut B,
) {
    let body_len = (extras.len() + key.len() + value_len) as u32;
    let mut header = [0u8; BIN_HLEN]; // Data type and CAS stay 0.
    header[0] = magic;
    header[1] = opcode.to_byte();
    header[2..4].copy_from_slice(&(key.len() as u16).to_be_bytes());
    header[4] = extras.len() as u8;
    header[6..8].copy_from_slice(&status_or_vbucket.to_be_bytes());
    header[8..12].copy_from_slice(&body_len.to_be_bytes());
    header[12..16].copy_from_slice(&opaque.to_be_bytes());
    out.put_slice(&header);
    out.put_slice(extras);
    out.put_slice(key);
}

/// Encodes a request datagram (frame header + binary message) into a
/// fresh buffer: [`RequestView::encode_into`] for callers that want a
/// `Vec`.
pub fn encode_request(frame: FrameHeader, req: &Request, opaque: u32) -> Vec<u8> {
    let view = req.as_view();
    let mut out = Vec::with_capacity(view.encoded_len());
    view.encode_into(frame, opaque, &mut out);
    out
}

/// Encodes a response datagram answering `frame` into a fresh buffer:
/// [`ResponseView::encode_into`] for callers that want a `Vec`.
pub fn encode_response(frame: FrameHeader, resp: &Response) -> Vec<u8> {
    let view = resp.as_view();
    let mut out = Vec::with_capacity(view.encoded_len());
    view.encode_into(frame, &mut out);
    out
}

/// A decoded datagram, either direction, owning its bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A client request.
    Request {
        /// UDP frame header.
        frame: FrameHeader,
        /// The request.
        request: Request,
        /// Client opaque token.
        opaque: u32,
    },
    /// A server response.
    Response {
        /// UDP frame header.
        frame: FrameHeader,
        /// The response.
        response: Response,
    },
}

/// A decoded datagram, either direction, borrowing the datagram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MessageView<'a> {
    /// A client request.
    Request {
        /// UDP frame header.
        frame: FrameHeader,
        /// The request.
        request: RequestView<'a>,
        /// Client opaque token.
        opaque: u32,
    },
    /// A server response.
    Response {
        /// UDP frame header.
        frame: FrameHeader,
        /// The response.
        response: ResponseView<'a>,
    },
}

impl MessageView<'_> {
    /// Copies keys and values into an owned [`Message`].
    pub fn to_owned(&self) -> Message {
        match *self {
            MessageView::Request {
                frame,
                request,
                opaque,
            } => Message::Request {
                frame,
                request: request.to_owned(),
                opaque,
            },
            MessageView::Response { frame, response } => Message::Response {
                frame,
                response: response.to_owned(),
            },
        }
    }
}

/// Decodes a memcached datagram (either direction) into owned keys and
/// values: [`decode_view`] plus the copies.
pub fn decode(buf: &[u8]) -> Result<Message, ProtocolError> {
    decode_view(buf).map(|m| m.to_owned())
}

/// Decodes a memcached datagram (either direction) without allocating:
/// keys and values are slices of `buf`.
pub fn decode_view(buf: &[u8]) -> Result<MessageView<'_>, ProtocolError> {
    let (frame, rest) = FrameHeader::decode(buf)?;
    if frame.total > 1 {
        return Err(ProtocolError::Fragmented);
    }
    let header = rest.get(..BIN_HLEN).ok_or(ProtocolError::Truncated)?;
    let [magic, op] = take::<2>(header, 0)?;
    let opcode = Opcode::from_byte(op).ok_or(ProtocolError::BadOpcode(op))?;
    let key_len = usize::from(u16::from_be_bytes(take::<2>(header, 2)?));
    let [extras_len] = take::<1>(header, 4)?;
    let extras_len = usize::from(extras_len);
    let status_or_vbucket = u16::from_be_bytes(take::<2>(header, 6)?);
    let body_len = u32::from_be_bytes(take::<4>(header, 8)?) as usize;
    let opaque = u32::from_be_bytes(take::<4>(header, 12)?);
    if extras_len + key_len > body_len {
        return Err(ProtocolError::BadLength);
    }
    let body = rest
        .get(BIN_HLEN..)
        .and_then(|b| b.get(..body_len))
        .ok_or(ProtocolError::BadLength)?;
    // In bounds: `extras_len + key_len <= body_len` was checked above.
    let (extras, rest) = body
        .split_at_checked(extras_len)
        .ok_or(ProtocolError::BadLength)?;
    let (key, value) = rest
        .split_at_checked(key_len)
        .ok_or(ProtocolError::BadLength)?;
    match magic {
        MAGIC_REQUEST => {
            let request = match opcode {
                Opcode::Get => RequestView::Get { key },
                Opcode::Delete => RequestView::Delete { key },
                Opcode::Set => {
                    if extras.len() != 8 {
                        return Err(ProtocolError::BadLength);
                    }
                    RequestView::Set {
                        key,
                        value,
                        flags: u32::from_be_bytes(take::<4>(extras, 0)?),
                        expiry: u32::from_be_bytes(take::<4>(extras, 4)?),
                    }
                }
            };
            Ok(MessageView::Request {
                frame,
                request,
                opaque,
            })
        }
        MAGIC_RESPONSE => Ok(MessageView::Response {
            frame,
            response: ResponseView {
                opcode,
                status: Status::from_u16(status_or_vbucket),
                value,
                // Absent extras read as flags 0.
                flags: take::<4>(extras, 0).map_or(0, u32::from_be_bytes),
                opaque,
            },
        }),
        m => Err(ProtocolError::BadMagic(m)),
    }
}

/// The conventional memcached UDP port.
pub const MEMCACHED_PORT: u16 = 11211;

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u16) -> FrameHeader {
        FrameHeader {
            request_id: id,
            seq: 0,
            total: 1,
        }
    }

    #[test]
    fn get_request_round_trip() {
        let req = Request::Get {
            key: b"user:42".to_vec(),
        };
        let bytes = encode_request(frame(7), &req, 99);
        match decode(&bytes).unwrap() {
            Message::Request {
                frame: f,
                request,
                opaque,
            } => {
                assert_eq!(f.request_id, 7);
                assert_eq!(request, req);
                assert_eq!(opaque, 99);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn set_request_round_trip() {
        let req = Request::Set {
            key: b"k".to_vec(),
            value: vec![0xAB; 100],
            flags: 0xDEADBEEF,
            expiry: 3600,
        };
        let bytes = encode_request(frame(1), &req, 5);
        match decode(&bytes).unwrap() {
            Message::Request { request, .. } => assert_eq!(request, req),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn delete_round_trip() {
        let req = Request::Delete {
            key: b"gone".to_vec(),
        };
        let bytes = encode_request(frame(2), &req, 0);
        match decode(&bytes).unwrap() {
            Message::Request { request, .. } => assert_eq!(request, req),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn get_hit_response_round_trip() {
        let resp = Response {
            opcode: Opcode::Get,
            status: Status::Ok,
            value: b"the-value".to_vec(),
            flags: 42,
            opaque: 17,
        };
        let bytes = encode_response(frame(3), &resp);
        match decode(&bytes).unwrap() {
            Message::Response { response, .. } => {
                assert_eq!(response.status, Status::Ok);
                assert_eq!(response.value, b"the-value");
                assert_eq!(response.flags, 42);
                assert_eq!(response.opaque, 17);
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn miss_response_round_trip() {
        let resp = Response {
            opcode: Opcode::Get,
            status: Status::KeyNotFound,
            value: vec![],
            flags: 0,
            opaque: 0,
        };
        let bytes = encode_response(frame(4), &resp);
        match decode(&bytes).unwrap() {
            Message::Response { response, .. } => {
                assert_eq!(response.status, Status::KeyNotFound);
                assert!(response.value.is_empty());
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(decode(&[0u8; 4]), Err(ProtocolError::Truncated));
        assert_eq!(decode(&[0u8; 20]), Err(ProtocolError::Truncated));
    }

    #[test]
    fn bad_magic_rejected() {
        let req = Request::Get { key: b"k".to_vec() };
        let mut bytes = encode_request(frame(0), &req, 0);
        bytes[8] = 0x55;
        assert_eq!(decode(&bytes), Err(ProtocolError::BadMagic(0x55)));
    }

    #[test]
    fn bad_opcode_rejected() {
        let req = Request::Get { key: b"k".to_vec() };
        let mut bytes = encode_request(frame(0), &req, 0);
        bytes[9] = 0x7f;
        assert_eq!(decode(&bytes), Err(ProtocolError::BadOpcode(0x7f)));
    }

    #[test]
    fn inconsistent_lengths_rejected() {
        let req = Request::Get {
            key: b"key".to_vec(),
        };
        let mut bytes = encode_request(frame(0), &req, 0);
        // Claim a larger body than present.
        bytes[16..20].copy_from_slice(&100u32.to_be_bytes());
        assert_eq!(decode(&bytes), Err(ProtocolError::BadLength));
    }

    #[test]
    fn key_and_extras_longer_than_the_body_rejected() {
        let req = Request::Set {
            key: b"key".to_vec(),
            value: b"value".to_vec(),
            flags: 0,
            expiry: 0,
        };
        let good = encode_request(frame(0), &req, 0);
        // Body is 8 extras + 3 key + 5 value = 16 bytes. A key length of
        // 9 would start the value past the body's end; so would 250
        // bytes of extras.
        let mut bytes = good.clone();
        bytes[10..12].copy_from_slice(&9u16.to_be_bytes());
        assert_eq!(decode(&bytes), Err(ProtocolError::BadLength));
        let mut bytes = good.clone();
        bytes[12] = 250;
        assert_eq!(decode(&bytes), Err(ProtocolError::BadLength));
        // Exactly filling the body is legal: key 8, no value.
        let mut bytes = good;
        bytes[10..12].copy_from_slice(&8u16.to_be_bytes());
        match decode_view(&bytes).unwrap() {
            MessageView::Request { request, .. } => {
                assert_eq!(request.key(), b"keyvalue");
                assert!(matches!(request, RequestView::Set { value: &[], .. }));
            }
            other => panic!("wrong decode: {other:?}"),
        }
    }

    #[test]
    fn views_borrow_the_datagram_and_encode_the_same_bytes() {
        let req = Request::Set {
            key: b"k1".to_vec(),
            value: vec![7; 40],
            flags: 3,
            expiry: 60,
        };
        let bytes = encode_request(frame(5), &req, 11);
        let MessageView::Request {
            frame: f,
            request,
            opaque,
        } = decode_view(&bytes).unwrap()
        else {
            panic!("not a request");
        };
        assert_eq!((request.to_owned(), opaque), (req, 11));
        assert!(bytes.as_ptr_range().contains(&request.key().as_ptr()));
        assert_eq!(request.encoded_len(), bytes.len());
        let mut again = Vec::new();
        request.encode_into(f, opaque, &mut again);
        assert_eq!(again, bytes);

        let resp = Response {
            opcode: Opcode::Get,
            status: Status::Ok,
            value: b"stored".to_vec(),
            flags: 9,
            opaque: 4,
        };
        let bytes = encode_response(frame(6), &resp);
        let MessageView::Response { response, .. } = decode_view(&bytes).unwrap() else {
            panic!("not a response");
        };
        assert_eq!(response, resp.as_view());
        assert_eq!(response.encoded_len(), bytes.len());
    }

    #[test]
    fn fragmented_rejected() {
        let req = Request::Get { key: b"k".to_vec() };
        let f = FrameHeader {
            request_id: 1,
            seq: 0,
            total: 3,
        };
        let bytes = encode_request(f, &req, 0);
        assert_eq!(decode(&bytes), Err(ProtocolError::Fragmented));
    }
}
