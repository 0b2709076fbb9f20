//! KVS load generation and measurement.
//!
//! The paper uses OSNT for open-loop rate control (§4.1); [`KvsClient`]
//! offers load the same way, at a fixed rate the harness can change
//! mid-run. Values are derived deterministically from keys so every GET
//! hit can be verified end-to-end, including across placement shifts.

use std::collections::hash_map::Entry;
use std::fmt;
use std::io::Write;
use std::ops::{Deref, DerefMut};

use inc_net::{build_udp_with, BufMut, Endpoint, Packet, UdpFrame};
use inc_sim::{impl_node_any, Ctx, FixedHashMap, LatencyWindow, Nanos, Node, Pacer, PortId, Rng};

use crate::protocol::{decode_view, FrameHeader, MessageView, Opcode, RequestView, Status};

/// Bytes a [`KvKey`] holds without allocating: `key-{u64::MAX}` is 24,
/// an ETC key 20.
const INLINE_KEY: usize = 24;

/// The key of one generated operation: held inline when it fits 24
/// bytes, as every key a generator makes does, and on the heap
/// otherwise. It derefs to its bytes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct KvKey(KeyRepr);

/// A key's length alone decides its variant, and inline bytes past the
/// length stay zero: equal keys have equal representations, which is
/// what the derived `PartialEq` and `Hash` compare.
#[derive(Clone, PartialEq, Eq, Hash)]
enum KeyRepr {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Heap(Box<[u8]>),
}

impl KvKey {
    /// A key holding a copy of `key`.
    pub fn new(key: &[u8]) -> KvKey {
        let mut bytes = [0; INLINE_KEY];
        match bytes.get_mut(..key.len()) {
            Some(room) => {
                room.copy_from_slice(key);
                KvKey(KeyRepr::Inline {
                    len: key.len() as u8,
                    bytes,
                })
            }
            None => KvKey(KeyRepr::Heap(key.into())),
        }
    }

    /// `key-{i}`, the [`key_name`] of `i`, rendered without allocating.
    pub(crate) fn numbered(i: u64) -> KvKey {
        let mut text = [0u8; INLINE_KEY];
        let mut room = &mut text[..];
        write!(room, "key-{i}").expect("`key-{u64::MAX}` fits inline");
        let len = INLINE_KEY - room.len();
        KvKey::new(&text[..len])
    }
}

impl Deref for KvKey {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            KeyRepr::Heap(bytes) => bytes,
        }
    }
}

impl fmt::Debug for KvKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// GET of a key.
    Get(KvKey),
    /// SET of a key with a value of the given size.
    Set(KvKey, usize),
    /// DELETE of a key.
    Delete(KvKey),
}

/// A stream of operations (key popularity + op mix).
pub trait OpGen {
    /// Produces the next operation.
    fn next_op(&mut self, rng: &mut Rng) -> KvOp;
}

/// Uniform key popularity with a fixed GET ratio.
#[derive(Clone, Debug)]
pub struct UniformGen {
    /// Number of distinct keys (`key-0` .. `key-{n-1}`).
    pub keys: u64,
    /// Fraction of GETs (the rest are SETs).
    pub get_ratio: f64,
    /// Value size for SETs.
    pub value_len: usize,
}

impl OpGen for UniformGen {
    fn next_op(&mut self, rng: &mut Rng) -> KvOp {
        let key = KvKey::numbered(rng.range_u64(0, self.keys));
        if rng.chance(self.get_ratio) {
            KvOp::Get(key)
        } else {
            KvOp::Set(key, self.value_len)
        }
    }
}

/// Canonical key encoding used by generators and verification.
pub fn key_name(i: u64) -> Vec<u8> {
    KvKey::numbered(i).to_vec()
}

/// The 8 bytes a key's expected value repeats: FNV-1a of the key.
fn value_pattern(key: &[u8]) -> [u8; 8] {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h.to_be_bytes()
}

/// Appends [`expected_value`]`(key, len)` to `out` from the pattern,
/// without materialising it.
fn put_expected_value<B: BufMut>(key: &[u8], len: usize, out: &mut B) {
    let pattern = value_pattern(key);
    for _ in 0..len / pattern.len() {
        out.put_slice(&pattern);
    }
    out.put_slice(&pattern[..len % pattern.len()]);
}

/// The deterministic value every store holds for a key: derived from the
/// key bytes, repeated to `len`. Lets clients verify GET payloads.
pub fn expected_value(key: &[u8], len: usize) -> Vec<u8> {
    let mut value = Vec::with_capacity(len);
    put_expected_value(key, len, &mut value);
    value
}

/// Whether `value` is [`expected_value`]`(key, value.len())`, checked
/// against the pattern without materialising the expected bytes.
fn is_expected_value(key: &[u8], value: &[u8]) -> bool {
    let pattern = value_pattern(key);
    value
        .iter()
        .zip(pattern.iter().cycle())
        .all(|(v, p)| v == p)
}

const TAG_SEND: u64 = 1;

/// Cumulative client statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Requests sent.
    pub sent: u64,
    /// Responses received.
    pub received: u64,
    /// GET responses whose value failed verification.
    pub corrupt: u64,
    /// GET misses (KeyNotFound).
    pub not_found: u64,
    /// Requests given up unanswered: the 16-bit request id wrapped and
    /// a newer request took over its entry (a reply to it that arrives
    /// later is ignored).
    pub abandoned: u64,
}

/// The measuring load generator. Its latency record (`take_window`) is
/// the [`LatencyWindow`] it derefs to.
pub struct KvsClient {
    src: Endpoint,
    dst: Endpoint,
    /// Offered rate (OSNT-style open loop).
    pacer: Pacer,
    gen: Box<dyn OpGen + 'static>,
    verify: bool,
    stats: ClientStats,
    window: LatencyWindow,
    next_opaque: u32,
    /// Outstanding requests: memcached request id → (send time, opaque,
    /// op). A dropped request never comes back, so the id's next use
    /// replaces it: the table holds at most 65 536 entries.
    outstanding: FixedHashMap<u16, (Nanos, u32, KvOp)>,
}

impl KvsClient {
    /// Creates a client offering `rate_pps` requests/second to `dst`
    /// from `src`.
    pub fn open_loop(src: Endpoint, dst: Endpoint, rate_pps: f64, gen: Box<dyn OpGen>) -> Self {
        KvsClient {
            src,
            dst,
            pacer: Pacer::new(rate_pps),
            gen,
            verify: true,
            stats: ClientStats::default(),
            window: LatencyWindow::default(),
            next_opaque: 0,
            outstanding: FixedHashMap::default(),
        }
    }

    /// Disables value verification (for raw throughput harnesses).
    pub fn without_verification(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Changes the offered rate (takes effect at the next send timer).
    pub fn set_rate(&mut self, rate_pps: f64) {
        self.pacer.set_rate(rate_pps);
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn build_request(&mut self, op: &KvOp) -> (Packet, u32) {
        self.next_opaque = self.next_opaque.wrapping_add(1);
        let opaque = self.next_opaque;
        let frame = FrameHeader {
            request_id: (opaque & 0xffff) as u16,
            seq: 0,
            total: 1,
        };
        // The key is borrowed from the op, which is then parked in
        // `outstanding`; a SET's value is written from the key's pattern.
        let (request, value_len) = match op {
            KvOp::Get(key) => (RequestView::Get { key }, 0),
            KvOp::Delete(key) => (RequestView::Delete { key }, 0),
            KvOp::Set(key, len) => {
                let head = RequestView::Set {
                    key,
                    value: &[],
                    flags: 0,
                    expiry: 0,
                };
                (head, *len)
            }
        };
        let len = request.encoded_len() + value_len;
        let pkt = build_udp_with(self.src, self.dst, len, |buf| {
            request.encode_head_into(frame, opaque, value_len, buf);
            if value_len > 0 {
                put_expected_value(request.key(), value_len, buf);
            }
        });
        (pkt, opaque)
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_, Packet>) {
        let op = self.gen.next_op(ctx.rng());
        let (pkt, opaque) = self.build_request(&op);
        let now = ctx.now();
        let id = (opaque & 0xffff) as u16;
        if self.outstanding.insert(id, (now, opaque, op)).is_some() {
            self.stats.abandoned += 1;
        }
        self.stats.sent += 1;
        ctx.send(PortId::P0, pkt);
    }
}

impl Deref for KvsClient {
    type Target = LatencyWindow;

    fn deref(&self) -> &LatencyWindow {
        &self.window
    }
}

impl DerefMut for KvsClient {
    fn deref_mut(&mut self) -> &mut LatencyWindow {
        &mut self.window
    }
}

impl Node<Packet> for KvsClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Packet>) {
        self.pacer.schedule(ctx, TAG_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, tag: u64) {
        if tag != TAG_SEND {
            return;
        }
        if self.pacer.sends() {
            self.send_one(ctx);
        }
        self.pacer.schedule(ctx, TAG_SEND);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet>, _port: PortId, msg: Packet) {
        let Ok(frame) = UdpFrame::parse(&msg) else {
            return;
        };
        let Ok(MessageView::Response {
            frame: mc_frame,
            response,
        }) = decode_view(frame.payload)
        else {
            return;
        };
        // Not outstanding: a late duplicate (already completed), or the
        // answer to an abandoned request whose id a newer one now holds.
        let Entry::Occupied(entry) = self.outstanding.entry(mc_frame.request_id) else {
            return;
        };
        if entry.get().1 != response.opaque {
            return;
        }
        let (sent_at, _, op) = entry.remove();
        let now = ctx.now();
        self.stats.received += 1;
        self.window.record((now - sent_at).as_nanos());
        if response.opcode == Opcode::Get {
            match response.status {
                Status::Ok if self.verify => {
                    if let KvOp::Get(key) = &op {
                        if !is_expected_value(key, response.value) {
                            self.stats.corrupt += 1;
                        }
                    }
                }
                Status::KeyNotFound => self.stats.not_found += 1,
                _ => {}
            }
        }
    }

    fn label(&self) -> String {
        "kvs-client".to_string()
    }

    impl_node_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode, Message, Request, MEMCACHED_PORT};

    #[test]
    fn expected_value_is_deterministic_and_key_dependent() {
        let a = expected_value(b"key-1", 64);
        let b = expected_value(b"key-1", 64);
        let c = expected_value(b"key-2", 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
        assert!(expected_value(b"k", 0).is_empty());
    }

    #[test]
    fn is_expected_value_agrees_with_the_materialised_value() {
        for len in [0usize, 1, 7, 8, 9, 64, 100] {
            let mut v = expected_value(b"key-9", len);
            assert!(is_expected_value(b"key-9", &v), "length {len}");
            assert_eq!(
                is_expected_value(b"key-8", &v),
                expected_value(b"key-8", len) == v
            );
            if let Some(last) = v.last_mut() {
                *last ^= 1;
                assert!(!is_expected_value(b"key-9", &v), "length {len}");
            }
        }
    }

    #[test]
    fn keys_render_like_the_formatted_name() {
        for i in [0u64, 7, 10, 99, 512, 1 << 40, u64::MAX] {
            let formatted = format!("key-{i}").into_bytes();
            assert_eq!(&KvKey::numbered(i)[..], &formatted[..]);
            assert_eq!(KvKey::numbered(i), KvKey::new(&formatted));
            assert_eq!(key_name(i), formatted);
        }
        // Longer than the inline room: still the same key.
        let long = vec![b'x'; INLINE_KEY + 9];
        assert_eq!(&KvKey::new(&long)[..], &long[..]);
        assert_ne!(KvKey::new(&long), KvKey::new(&long[1..]));
        assert_eq!(
            format!("{:?}", KvKey::numbered(3)),
            format!("{:?}", b"key-3")
        );
    }

    #[test]
    fn a_set_writes_the_expected_value_in_place() {
        let mut c = KvsClient::open_loop(
            Endpoint::host(1, 4000),
            Endpoint::host(2, MEMCACHED_PORT),
            1000.0,
            Box::new(UniformGen {
                keys: 4,
                get_ratio: 0.0,
                value_len: 8,
            }),
        );
        for (key, len) in [(KvKey::numbered(2), 0), (KvKey::numbered(9), 61)] {
            let (pkt, opaque) = c.build_request(&KvOp::Set(key.clone(), len));
            let value = expected_value(&key, len);
            let set = RequestView::Set {
                key: &key,
                value: &value,
                flags: 0,
                expiry: 0,
            };
            let frame = FrameHeader {
                request_id: opaque as u16,
                seq: 0,
                total: 1,
            };
            let want = build_udp_with(c.src, c.dst, set.encoded_len(), |buf| {
                set.encode_into(frame, opaque, buf)
            });
            assert_eq!(pkt.data, want.data, "value length {len}");
        }
    }

    #[test]
    fn uniform_gen_mix() {
        let mut g = UniformGen {
            keys: 10,
            get_ratio: 0.9,
            value_len: 32,
        };
        let mut rng = Rng::new(1);
        let n = 10_000;
        let gets = (0..n)
            .filter(|_| matches!(g.next_op(&mut rng), KvOp::Get(_)))
            .count();
        let ratio = gets as f64 / n as f64;
        assert!((ratio - 0.9).abs() < 0.02, "{ratio}");
    }

    #[test]
    fn request_build_round_trip() {
        let mut c = KvsClient::open_loop(
            Endpoint::host(1, 4000),
            Endpoint::host(2, MEMCACHED_PORT),
            1000.0,
            Box::new(UniformGen {
                keys: 4,
                get_ratio: 1.0,
                value_len: 8,
            }),
        );
        let (pkt, opaque) = c.build_request(&KvOp::Get(KvKey::numbered(3)));
        let frame = UdpFrame::parse(&pkt).unwrap();
        assert_eq!(frame.udp.dst_port, MEMCACHED_PORT);
        match decode(frame.payload).unwrap() {
            Message::Request {
                request, opaque: o, ..
            } => {
                assert_eq!(
                    request,
                    Request::Get {
                        key: b"key-3".to_vec()
                    }
                );
                assert_eq!(o, opaque);
            }
            other => panic!("{other:?}"),
        }
    }
}
