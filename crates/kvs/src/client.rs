//! KVS load generation and measurement.
//!
//! The paper uses OSNT for open-loop rate control (§4.1); [`KvsClient`]
//! offers load the same way, at a fixed rate the harness can change
//! mid-run. Values are derived deterministically from keys so every GET
//! hit can be verified end-to-end, including across placement shifts.

use std::ops::{Deref, DerefMut};

use inc_net::{build_udp_with, Endpoint, Packet, UdpFrame};
use inc_sim::{
    impl_node_any, Ctx, FixedHashMap, LatencyWindow, Nanos, Node, Pacer, PortId, Rng, Timer,
};

use crate::protocol::{decode_view, FrameHeader, MessageView, Opcode, RequestView, Status};

/// One generated operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// GET of a key.
    Get(Vec<u8>),
    /// SET of a key with a value of the given size.
    Set(Vec<u8>, usize),
    /// DELETE of a key.
    Delete(Vec<u8>),
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
        let key = key_name(rng.range_u64(0, self.keys));
        if rng.chance(self.get_ratio) {
            KvOp::Get(key)
        } else {
            KvOp::Set(key, self.value_len)
        }
    }
}

/// Canonical key encoding used by generators and verification.
pub fn key_name(i: u64) -> Vec<u8> {
    format!("key-{i}").into_bytes()
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

/// The deterministic value every store holds for a key: derived from the
/// key bytes, repeated to `len`. Lets clients verify GET payloads.
pub fn expected_value(key: &[u8], len: usize) -> Vec<u8> {
    let pattern = value_pattern(key);
    (0..len).map(|i| pattern[i % 8]).collect()
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
}

/// The measuring load generator. Its latency record (`latency`,
/// `take_window`) is the [`LatencyWindow`] it derefs to.
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
    /// Outstanding requests: opaque → (send time, op).
    outstanding: FixedHashMap<u32, (Nanos, KvOp)>,
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

    /// Stops offering load.
    pub fn stop(&mut self) {
        self.pacer.stop();
    }

    /// Returns cumulative statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    fn build_request(&mut self, op: &KvOp) -> (Packet, u32) {
        self.next_opaque = self.next_opaque.wrapping_add(1);
        let opaque = self.next_opaque;
        // Only a SET materialises bytes of its own; keys are borrowed
        // from the op, which is then parked in `outstanding`.
        let set_value;
        let request = match op {
            KvOp::Get(key) => RequestView::Get { key },
            KvOp::Set(key, len) => {
                set_value = expected_value(key, *len);
                RequestView::Set {
                    key,
                    value: &set_value,
                    flags: 0,
                    expiry: 0,
                }
            }
            KvOp::Delete(key) => RequestView::Delete { key },
        };
        let frame = FrameHeader {
            request_id: (opaque & 0xffff) as u16,
            seq: 0,
            total: 1,
        };
        let pkt = build_udp_with(self.src, self.dst, 0, request.encoded_len(), |buf| {
            request.encode_into(frame, opaque, buf)
        });
        (pkt, opaque)
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_, Packet>) {
        let op = self.gen.next_op(ctx.rng());
        let (mut pkt, opaque) = self.build_request(&op);
        let now = ctx.now();
        pkt.sent_at = now;
        pkt.id = opaque as u64;
        self.outstanding.insert(opaque, (now, op));
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Packet>, timer: Timer) {
        if timer.tag != TAG_SEND || self.pacer.stopped() {
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
        let Ok(MessageView::Response { response, .. }) = decode_view(frame.payload) else {
            return;
        };
        let Some((sent_at, op)) = self.outstanding.remove(&response.opaque) else {
            return; // Late duplicate (already completed).
        };
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
        let (pkt, opaque) = c.build_request(&KvOp::Get(b"key-3".to_vec()));
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
