//! Simulated time.
//!
//! The simulator measures time in integer nanoseconds since the start of the
//! run. [`Nanos`] is a transparent newtype so that times are not accidentally
//! mixed with other integers (packet sizes, counts, ...).

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
///
/// `Nanos` is used for both instants and durations; the simulation starts at
/// [`Nanos::ZERO`]. Arithmetic is checked in debug builds (overflow panics)
/// and saturating subtraction is available via [`Nanos::saturating_sub`].
///
/// # Examples
///
/// ```
/// use inc_sim::Nanos;
///
/// let t = Nanos::from_micros(3) + Nanos::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// assert_eq!(t.as_secs_f64(), 3.5e-6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The origin of simulated time (also the zero duration).
    pub const ZERO: Nanos = Nanos(0);

    /// The largest representable time.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        let ns = s * 1e9;
        assert!(ns <= u64::MAX as f64, "duration too large: {s}");
        Nanos(ns.round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns [`Nanos::ZERO`] instead of
    /// underflowing.
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub const fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// Saturating addition: returns [`Nanos::MAX`] instead of
    /// overflowing. Every event time the simulator computes goes
    /// through this, so a huge delay parks an event at the end of time
    /// rather than wrapping it into the past.
    pub const fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the duration by an integer factor.
    pub const fn mul(self, k: u64) -> Nanos {
        Nanos(self.0 * k)
    }

    /// Divides the duration by an integer divisor (truncating).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub const fn div(self, k: u64) -> Nanos {
        Nanos(self.0 / k)
    }

    /// Scales the duration by a floating-point factor, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or NaN.
    pub fn mul_f64(self, f: f64) -> Nanos {
        assert!(f.is_finite() && f >= 0.0, "invalid scale factor: {f}");
        Nanos((self.0 as f64 * f).round() as u64)
    }

    /// Returns `self` rounded down to a multiple of `quantum`.
    ///
    /// Useful for modelling counters that only update at a fixed cadence
    /// (e.g. RAPL energy registers).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub const fn align_down(self, quantum: Nanos) -> Nanos {
        Nanos(self.0 / quantum.0 * quantum.0)
    }
}

impl Add for Nanos {
    type Output = Nanos;

    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;

    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Nanos::from_secs(2), Nanos::from_millis(2_000));
        assert_eq!(Nanos::from_millis(3), Nanos::from_micros(3_000));
        assert_eq!(Nanos::from_micros(5), Nanos::from_nanos(5_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos::from_millis(1_500));
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!(a + b, Nanos::from_micros(14));
        assert_eq!(a - b, Nanos::from_micros(6));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.mul(3), Nanos::from_micros(30));
        assert_eq!(a.div(2), Nanos::from_micros(5));
        assert_eq!(a.mul_f64(0.5), Nanos::from_micros(5));
    }

    #[test]
    fn align_down_quantizes() {
        let q = Nanos::from_millis(1);
        assert_eq!(
            Nanos::from_micros(1_700).align_down(q),
            Nanos::from_millis(1)
        );
        assert_eq!(Nanos::from_micros(999).align_down(q), Nanos::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos::from_secs(3).to_string(), "3s");
        assert_eq!(Nanos::from_millis(40).to_string(), "40ms");
        assert_eq!(Nanos::from_micros(7).to_string(), "7us");
        assert_eq!(Nanos::from_nanos(123).to_string(), "123ns");
        assert_eq!(Nanos::ZERO.to_string(), "0ns");
    }

    #[test]
    fn as_f64_conversions() {
        let t = Nanos::from_micros(2_500);
        assert!((t.as_secs_f64() - 0.0025).abs() < 1e-12);
    }
}
