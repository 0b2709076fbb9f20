//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-for-bit reproducible across runs and platforms,
//! so it uses its own small PRNG instead of depending on an external crate in
//! the kernel. The generator is `xoshiro256**` seeded through `splitmix64`,
//! the combination recommended by the xoshiro authors.

/// A deterministic `xoshiro256**` pseudo-random number generator.
///
/// Not cryptographically secure; intended for workload synthesis and
/// randomized simulation decisions only.
///
/// # Examples
///
/// ```
/// use inc_sim::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a seed.
    ///
    /// Equal seeds produce equal streams on every platform.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Debiased multiply-shift (Lemire). The retry loop terminates with
        // overwhelming probability after one iteration.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut l = m as u64;
        if l < span {
            let t = span.wrapping_neg() % span;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                l = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Samples an exponentially distributed value with the given mean.
    ///
    /// Used for Poisson inter-arrival gaps.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "invalid mean: {mean}");
        let mut u = self.f64();
        // Avoid ln(0).
        if u <= f64::MIN_POSITIVE {
            u = f64::MIN_POSITIVE;
        }
        -mean * u.ln()
    }

    /// Samples a normally distributed value via the Box-Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (core::f64::consts::TAU * u2).cos()
    }

    /// Samples a log-normally distributed value parameterised by the mean
    /// and standard deviation of the underlying normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Shuffles a slice in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng::new(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
            seen_lo |= x == 10;
            seen_hi |= x == 19;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn exp_mean_matches() {
        let mut r = Rng::new(6);
        let n = 200_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exp(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < 0.1, "mean {got}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(8);
        let n = 200_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal(3.0, 2.0);
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(9);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input sorted"
        );
    }
}
