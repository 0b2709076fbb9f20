//! The Facebook "ETC" memcached workload (Atikoglu et al., the paper's
//! \[7\]), used by the Figure 6 on-demand experiment via a mutilate-style
//! client.
//!
//! The published characteristics reproduced here:
//!
//! * GET-dominated mix (ETC is ~30:1 GET:SET);
//! * short keys (16–40 B, mean ≈ 30 B) and small values (median ≈ a few
//!   hundred bytes with a heavy tail);
//! * Zipf-like key popularity (a small fraction of keys takes most hits:
//!   §5.3 cites 3–35 % of unique keys requested per hour).

use inc_kvs::{KvKey, KvOp, OpGen};
use inc_sim::Rng;

use crate::zipf::Zipf;

/// The ETC workload generator.
#[derive(Clone, Debug)]
pub struct EtcWorkload {
    /// Fraction of GET operations.
    pub get_ratio: f64,
    zipf: Zipf,
}

impl EtcWorkload {
    /// Creates the standard ETC mix over `keys` keys.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero.
    pub fn new(keys: u64) -> Self {
        EtcWorkload {
            get_ratio: 0.97,
            zipf: Zipf::new(keys, 0.99).expect("keys > 0"),
        }
    }

    /// Key name for rank `r` (rank 1 = hottest).
    pub fn key_for_rank(r: u64) -> Vec<u8> {
        let mut key = [0u8; Self::KEY_LEN];
        Self::key_for_rank_into(r, &mut key);
        key.to_vec()
    }

    /// Length of every generated key: `"etc:"` + 16 hex digits.
    pub const KEY_LEN: usize = 20;

    /// Writes the key for rank `r` into a caller-owned buffer — the
    /// allocation-free twin of [`EtcWorkload::key_for_rank`], for
    /// per-request hot paths that reuse one buffer across samples.
    pub fn key_for_rank_into(r: u64, key: &mut [u8; Self::KEY_LEN]) {
        // Spread ranks over the namespace so adjacent ranks do not share
        // cache lines/buckets artificially.
        let spread = r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        key[..4].copy_from_slice(b"etc:");
        for (i, b) in key[4..].iter_mut().enumerate() {
            let nibble = ((spread >> (60 - 4 * i)) & 0xf) as u8;
            *b = match nibble {
                0..=9 => b'0' + nibble,
                _ => b'a' + (nibble - 10),
            };
        }
    }

    /// Samples an ETC value size in bytes.
    ///
    /// Mixture fit to the published CDF: a spike of tiny values, a
    /// lognormal body with a median of a few hundred bytes, and a bounded
    /// heavy tail.
    pub fn value_size(rng: &mut Rng) -> usize {
        let u = rng.f64();
        if u < 0.08 {
            // Tiny values (counters): 1-13 B.
            1 + rng.index(13)
        } else if u < 0.90 {
            // Lognormal body, median ~270 B.
            let v = rng.log_normal(5.6, 0.75);
            (v as usize).clamp(14, 4_000)
        } else {
            // Pareto-ish tail. The published distribution reaches ~1 MB,
            // but those values travel over TCP in production; this UDP
            // reproduction caps the tail at a single-datagram size.
            let p = rng.f64().max(1e-9);
            let v = 4_000.0 * p.powf(-0.7);
            (v as usize).min(8_000)
        }
    }

    /// Draws one request without allocating: the key is identified by
    /// rank (render it on demand with
    /// [`EtcWorkload::key_for_rank_into`]), the value by its size.
    ///
    /// This is the per-request hot path for heavy-traffic replays; the
    /// [`OpGen`] impl wraps it and renders the key inline.
    pub fn next_sample(&mut self, rng: &mut Rng) -> EtcSample {
        let rank = self.zipf.sample(rng);
        if rng.chance(self.get_ratio) {
            EtcSample {
                rank,
                kind: EtcOpKind::Get,
                value_len: 0,
            }
        } else {
            EtcSample {
                rank,
                kind: EtcOpKind::Set,
                value_len: Self::value_size(rng),
            }
        }
    }
}

/// Operation kind of an [`EtcSample`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EtcOpKind {
    /// A GET (the dominant ETC operation).
    Get,
    /// A SET carrying `value_len` bytes.
    Set,
}

/// One sampled ETC request, `Copy` and allocation-free.
#[derive(Clone, Copy, Debug)]
pub struct EtcSample {
    /// Popularity rank of the key (1 = hottest).
    pub rank: u64,
    /// GET or SET.
    pub kind: EtcOpKind,
    /// Value size in bytes (0 for GETs).
    pub value_len: usize,
}

impl OpGen for EtcWorkload {
    fn next_op(&mut self, rng: &mut Rng) -> KvOp {
        let s = self.next_sample(rng);
        let mut bytes = [0u8; Self::KEY_LEN];
        Self::key_for_rank_into(s.rank, &mut bytes);
        let key = KvKey::new(&bytes);
        match s.kind {
            EtcOpKind::Get => KvOp::Get(key),
            EtcOpKind::Set => KvOp::Set(key, s.value_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_get_dominated() {
        let mut w = EtcWorkload::new(10_000);
        let mut rng = Rng::new(1);
        let n = 50_000;
        let gets = (0..n)
            .filter(|_| matches!(w.next_op(&mut rng), KvOp::Get(_)))
            .count();
        let ratio = gets as f64 / n as f64;
        assert!((ratio - 0.97).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn popularity_is_skewed() {
        let mut w = EtcWorkload::new(100_000);
        let mut rng = Rng::new(2);
        let mut seen = std::collections::HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            if let KvOp::Get(k) | KvOp::Set(k, _) = w.next_op(&mut rng) {
                *seen.entry(k).or_insert(0u64) += 1;
            }
        }
        // A Zipf(0.99) over 100k keys: the hottest key alone takes ~8 % of
        // traffic; the unique set is a small fraction of requests.
        let max = *seen.values().max().unwrap();
        assert!(max as f64 / n as f64 > 0.04, "hottest {max}");
        assert!(seen.len() < n / 2, "unique {} of {n}", seen.len());
    }

    #[test]
    fn value_sizes_have_documented_shape() {
        let mut rng = Rng::new(3);
        let mut sizes: Vec<usize> = (0..100_000)
            .map(|_| EtcWorkload::value_size(&mut rng))
            .collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        let p99 = sizes[sizes.len() * 99 / 100];
        assert!((100..600).contains(&median), "median {median}");
        assert!(p99 > 2_000, "p99 {p99}");
        assert!(*sizes.last().unwrap() <= 8_000);
        assert!(*sizes.first().unwrap() >= 1);
    }

    #[test]
    fn keys_are_stable_per_rank() {
        assert_eq!(EtcWorkload::key_for_rank(5), EtcWorkload::key_for_rank(5));
        assert_ne!(EtcWorkload::key_for_rank(5), EtcWorkload::key_for_rank(6));
    }

    #[test]
    fn key_for_rank_into_matches_formatted_key() {
        for r in [0u64, 1, 5, 1 << 40, u64::MAX] {
            let spread = r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let formatted = format!("etc:{spread:016x}").into_bytes();
            let mut buf = [0u8; EtcWorkload::KEY_LEN];
            EtcWorkload::key_for_rank_into(r, &mut buf);
            assert_eq!(buf.as_slice(), formatted.as_slice(), "rank {r}");
            assert_eq!(EtcWorkload::key_for_rank(r), formatted);
        }
    }

    #[test]
    fn next_sample_matches_next_op_draw_for_draw() {
        let mut w_op = EtcWorkload::new(10_000);
        let mut w_sample = w_op.clone();
        let mut rng_op = Rng::new(7);
        let mut rng_sample = Rng::new(7);
        for _ in 0..10_000 {
            let op = w_op.next_op(&mut rng_op);
            let s = w_sample.next_sample(&mut rng_sample);
            match (op, s.kind) {
                (KvOp::Get(k), EtcOpKind::Get) => {
                    assert_eq!(k.to_vec(), EtcWorkload::key_for_rank(s.rank));
                }
                (KvOp::Set(k, len), EtcOpKind::Set) => {
                    assert_eq!(k.to_vec(), EtcWorkload::key_for_rank(s.rank));
                    assert_eq!(len, s.value_len);
                }
                (op, kind) => panic!("diverged: {op:?} vs {kind:?}"),
            }
        }
    }
}
