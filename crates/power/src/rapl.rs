//! Simulated RAPL (Running Average Power Limit) energy counters.
//!
//! The paper's host-controlled on-demand controller reads CPU power via
//! RAPL (§9.1), and §7 monitors the Xeon with it. Real RAPL exposes a
//! monotonically increasing energy counter in microjoules per domain,
//! which software differentiates over a sampling window to estimate
//! watts. This module reproduces that interface for the one domain both
//! read, the package, including the counter's energy granularity and
//! wrap-around, so the controller code consumes realistic readings.

use inc_sim::Nanos;

/// Energy granularity of a reading, microjoules: hardware publishes
/// energy in units of 1/2^14 J ≈ 61 µJ (the energy-status unit that
/// `MSR_RAPL_POWER_UNIT` reports on Intel parts).
const ENERGY_STEP_UJ: u64 = 61;

/// Readings wrap at the 32-bit width of the energy-status register
/// (`MSR_PKG_ENERGY_STATUS` bits 31:0), so consumers difference them
/// modulo 2^32.
const WRAP_MASK: u64 = u32::MAX as u64;

/// A monotonically increasing energy counter: the package domain, the
/// one the host controller and §7 read.
///
/// # Examples
///
/// ```
/// use inc_power::RaplCounter;
/// use inc_sim::Nanos;
///
/// let mut rapl = RaplCounter::new();
/// rapl.advance(Nanos::from_secs(1), 50.0); // 50 W for 1 s
/// let uj = rapl.read();
/// assert!((uj as f64 - 50e6).abs() < 100_000.0); // ~50 J in µJ
/// ```
#[derive(Clone, Debug, Default)]
pub struct RaplCounter {
    /// Exact accumulated energy in microjoules (not yet quantized).
    exact_uj: f64,
    /// Last time `advance` accounted up to.
    last: Nanos,
}

impl RaplCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        RaplCounter {
            exact_uj: 0.0,
            last: Nanos::ZERO,
        }
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

    /// Reads the counter as the kernel would: rounded down to the
    /// hardware's energy step and wrapped to the register width.
    ///
    /// Energy accrued since the last `advance` is *not* visible; callers
    /// must `advance` first (the host model does this whenever CPU state
    /// changes).
    pub fn read(&self) -> u64 {
        let raw = self.exact_uj as u64;
        (raw - raw % ENERGY_STEP_UJ) & WRAP_MASK
    }

    /// Computes average watts between two counter readings taken `dt`
    /// apart, handling wrap-around.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is zero.
    pub fn watts_between(&self, earlier_uj: u64, later_uj: u64, dt: Nanos) -> f64 {
        assert!(dt > Nanos::ZERO, "dt must be positive");
        let delta = later_uj.wrapping_sub(earlier_uj) & WRAP_MASK;
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
        let reading = counter.read();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_energy() {
        let mut c = RaplCounter::new();
        c.advance(Nanos::from_secs(2), 100.0);
        // 200 J = 200e6 µJ, quantized to 61 µJ steps.
        let r = c.read();
        assert!((r as f64 - 200e6).abs() < 1000.0, "{r}");
    }

    #[test]
    fn piecewise_power_levels() {
        let mut c = RaplCounter::new();
        c.advance(Nanos::from_secs(1), 10.0);
        c.advance(Nanos::from_secs(3), 50.0);
        let r = c.read();
        // 10 J + 100 J = 110 J.
        assert!((r as f64 - 110e6).abs() < 1000.0, "{r}");
    }

    #[test]
    fn watts_between_inverts_accumulation() {
        let mut c = RaplCounter::new();
        c.advance(Nanos::from_secs(1), 75.0);
        let a = c.read();
        c.advance(Nanos::from_secs(2), 75.0);
        let b = c.read();
        let w = c.watts_between(a, b, Nanos::from_secs(1));
        assert!((w - 75.0).abs() < 0.01, "{w}");
    }

    #[test]
    fn wraparound_is_handled() {
        let c = RaplCounter::new();
        // Near the 32-bit µJ wrap (~4295 J): earlier close to max, later small.
        let earlier = (1u64 << 32) - 1_000_000;
        let later = 500_000u64;
        let w = c.watts_between(earlier, later, Nanos::from_secs(1));
        assert!((w - 1.5).abs() < 0.01, "{w}");
    }

    #[test]
    fn sampler_needs_two_samples() {
        let mut c = RaplCounter::new();
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
        let mut c = RaplCounter::new();
        c.advance(Nanos::from_secs(1), 1.0);
        c.advance(Nanos::ZERO, 1.0);
    }
}
