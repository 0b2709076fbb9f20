//! Zipf-distributed sampling.
//!
//! Key popularity in the Facebook ETC workload follows a power law
//! (Atikoglu et al., the paper's \[7\]). This sampler uses the
//! rejection-inversion method of Hörmann & Derflinger, which is O(1) per
//! sample with no precomputed tables, so it scales to the 10⁹-key
//! populations §5.3 discusses.

use inc_sim::Rng;

/// A Zipf(α) sampler over `{1, ..., n}`.
///
/// # Examples
///
/// ```
/// use inc_sim::Rng;
/// use inc_workloads::Zipf;
///
/// let mut rng = Rng::new(1);
/// let zipf = Zipf::new(1_000_000, 0.99).unwrap();
/// let x = zipf.sample(&mut rng);
/// assert!((1..=1_000_000).contains(&x));
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    // Precomputed constants of the rejection-inversion method.
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// Creates a sampler over `{1..=n}` with exponent `alpha`.
    ///
    /// Returns `None` if `n` is zero or `alpha` is not finite and
    /// positive (use a tiny α such as 1e-9 for near-uniform).
    pub fn new(n: u64, alpha: f64) -> Option<Self> {
        if n == 0 || !alpha.is_finite() || alpha <= 0.0 || (alpha - 1.0).abs() < 1e-12 {
            // α exactly 1 hits a removable singularity in H; nudge it.
            if (alpha - 1.0).abs() < 1e-12 {
                return Zipf::new(n, 1.0 + 1e-9);
            }
            return None;
        }
        let h = |x: f64| -> f64 { (x.powf(1.0 - alpha) - 1.0) / (1.0 - alpha) };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let s = 2.0 - h_inv(h(2.5) - 2f64.powf(-alpha), alpha);
        Some(Zipf {
            n,
            alpha,
            h_x1,
            h_n,
            s,
        })
    }

    /// Draws one sample in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        loop {
            let u = self.h_x1 + rng.f64() * (self.h_n - self.h_x1);
            let x = h_inv(u, self.alpha);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            let h_k = { ((k + 0.5).powf(1.0 - self.alpha) - 1.0) / (1.0 - self.alpha) };
            if k - x <= self.s || u >= h_k - k.powf(-self.alpha) {
                return k as u64;
            }
        }
    }

    /// The unnormalised popularity weight `k^(-α)` of rank `k` (rank 1 is
    /// the hottest). Useful for mapping a rank to a deterministic demand
    /// level — e.g. pricing tenant `k`'s offered rate as `peak ×
    /// popularity(k)` — without drawing samples. Returns 0.0 for rank 0
    /// or ranks beyond the population.
    ///
    /// # Examples
    ///
    /// ```
    /// use inc_workloads::Zipf;
    ///
    /// let z = Zipf::new(1000, 1.0).unwrap();
    /// assert_eq!(z.popularity(1), 1.0);
    /// // α is nudged off the k⁻¹ singularity, so compare loosely.
    /// assert!((z.popularity(2) - 0.5).abs() < 1e-6);
    /// assert_eq!(z.popularity(0), 0.0);
    /// assert_eq!(z.popularity(1001), 0.0);
    /// ```
    pub fn popularity(&self, k: u64) -> f64 {
        if k == 0 || k > self.n {
            return 0.0;
        }
        (k as f64).powf(-self.alpha)
    }
}

fn h_inv(x: f64, alpha: f64) -> f64 {
    (1.0 + x * (1.0 - alpha)).powf(1.0 / (1.0 - alpha))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(10, f64::NAN).is_none());
        assert!(Zipf::new(10, -1.0).is_none());
        assert!(Zipf::new(10, 1.0).is_some()); // α = 1 is nudged, not rejected.
    }

    #[test]
    fn samples_in_range() {
        let mut rng = Rng::new(2);
        let z = Zipf::new(100, 0.8).unwrap();
        for _ in 0..10_000 {
            let x = z.sample(&mut rng);
            assert!((1..=100).contains(&x));
        }
    }

    #[test]
    fn rank_one_dominates() {
        let mut rng = Rng::new(3);
        let z = Zipf::new(1000, 1.2).unwrap();
        let n = 100_000;
        let ones = (0..n).filter(|_| z.sample(&mut rng) == 1).count();
        // For α=1.2, P(1) ≈ 1/ζ(1.2 over 1000 items) ≈ 0.27.
        let p1 = ones as f64 / n as f64;
        assert!((0.2..0.4).contains(&p1), "P(rank 1) = {p1}");
    }

    #[test]
    fn empirical_frequencies_follow_power_law() {
        let mut rng = Rng::new(4);
        let alpha = 0.99;
        let z = Zipf::new(10_000, alpha).unwrap();
        let n = 400_000;
        let mut counts = [0u64; 16];
        for _ in 0..n {
            let x = z.sample(&mut rng);
            if (x as usize) < counts.len() {
                counts[x as usize] += 1;
            }
        }
        // freq(k)/freq(2k) should be ~2^alpha.
        for k in [1usize, 2, 4] {
            let ratio = counts[k] as f64 / counts[2 * k] as f64;
            let expect = 2f64.powf(alpha);
            assert!(
                (ratio / expect - 1.0).abs() < 0.15,
                "k={k}: ratio {ratio} vs {expect}"
            );
        }
    }

    #[test]
    fn huge_population_is_cheap() {
        let mut rng = Rng::new(5);
        let z = Zipf::new(1_000_000_000, 0.9).unwrap();
        let mut max = 0;
        for _ in 0..10_000 {
            max = max.max(z.sample(&mut rng));
        }
        assert!(max > 1_000, "tail never sampled: max {max}");
        assert!(max <= 1_000_000_000);
    }
}
