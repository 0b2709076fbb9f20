//! OSNT-style offered-rate schedules (§4.1).
//!
//! The paper drives every power/throughput sweep with OSNT, an open-source
//! tester that "control\[s\] data rates at very fine granularities and
//! reproduce\[s\] results". A [`RateProfile`] is that schedule: the rate
//! each rig's traffic follows over time.

use inc_sim::Nanos;

/// A piecewise-constant offered-rate schedule.
///
/// # Examples
///
/// ```
/// use inc_sim::Nanos;
/// use inc_workloads::RateProfile;
///
/// let p = RateProfile::steps(vec![
///     (Nanos::ZERO, 1_000.0),
///     (Nanos::from_secs(10), 50_000.0),
/// ]);
/// assert_eq!(p.rate_at(Nanos::from_secs(5)), 1_000.0);
/// assert_eq!(p.rate_at(Nanos::from_secs(12)), 50_000.0);
/// ```
#[derive(Clone, Debug)]
pub struct RateProfile {
    /// (start time, rate in packets/second), sorted by time.
    steps: Vec<(Nanos, f64)>,
    /// When set, the schedule repeats with this period.
    period: Option<Nanos>,
}

impl RateProfile {
    /// A schedule of `(start, rate)` steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty or not sorted by time.
    pub fn steps(steps: Vec<(Nanos, f64)>) -> Self {
        assert!(!steps.is_empty());
        assert!(
            steps.windows(2).all(|w| w[0].0 <= w[1].0),
            "steps must be time-sorted"
        );
        RateProfile {
            steps,
            period: None,
        }
    }

    /// A repeating day/night ("diurnal") schedule, the load shape behind
    /// the on-demand argument: services peak for part of every day and
    /// idle the rest, so dedicated capacity is wasted off-peak.
    ///
    /// The rate follows `base + (peak - base) · sin(π·x)^(2·sharpness)`
    /// where `x` is the position within the period after advancing the
    /// clock by `phase`; the "midday" peak lands at
    /// `period/2 - phase (mod period)`. Higher `sharpness` concentrates
    /// the peak into a shorter busy window (1 ≈ half the day busy, 4 ≈ a
    /// quarter). The curve is discretised into `n` equal steps per period
    /// and repeats forever.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn diurnal(
        base_pps: f64,
        peak_pps: f64,
        period: Nanos,
        phase: Nanos,
        sharpness: u32,
        n: usize,
    ) -> Self {
        assert!(period > Nanos::ZERO, "diurnal period must be positive");
        let n = n.max(2);
        let phase_frac = phase.as_nanos() as f64 / period.as_nanos() as f64;
        let steps = (0..n)
            .map(|i| {
                // Sample each step at its midpoint so the discretised
                // schedule straddles rather than lags the curve.
                let x = ((i as f64 + 0.5) / n as f64 + phase_frac).rem_euclid(1.0);
                let day = (std::f64::consts::PI * x).sin().powi(2 * sharpness as i32);
                (
                    period.mul_f64(i as f64 / n as f64),
                    base_pps + (peak_pps - base_pps) * day,
                )
            })
            .collect();
        RateProfile {
            steps,
            period: Some(period),
        }
    }

    /// The rate in effect at time `t`.
    pub fn rate_at(&self, t: Nanos) -> f64 {
        let t = match self.period {
            Some(p) => Nanos::from_nanos(t.as_nanos() % p.as_nanos()),
            None => t,
        };
        let idx = self.steps.partition_point(|&(s, _)| s <= t);
        if idx == 0 {
            0.0
        } else {
            self.steps[idx - 1].1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mean of a periodic profile over one period, sampled at the
    /// midpoint of each of its `n` equal steps.
    fn day_mean(p: &RateProfile, day: Nanos, n: u64) -> f64 {
        (0..n)
            .map(|i| p.rate_at(day.mul(2 * i + 1).div(2 * n)))
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn a_step_change_takes_effect_at_its_start() {
        let p = RateProfile::steps(vec![
            (Nanos::ZERO, 1_000.0),
            (Nanos::from_millis(500), 100_000.0),
        ]);
        assert_eq!(p.rate_at(Nanos::from_nanos(499_999_999)), 1_000.0);
        assert_eq!(p.rate_at(Nanos::from_millis(500)), 100_000.0);
        // An aperiodic profile holds its last rate forever.
        assert_eq!(p.rate_at(Nanos::from_secs(1_000)), 100_000.0);
    }

    #[test]
    fn diurnal_peaks_at_midday_and_repeats() {
        let day = Nanos::from_secs(10);
        let p = RateProfile::diurnal(1_000.0, 100_000.0, day, Nanos::ZERO, 1, 100);
        // Midnight is quiet, midday peaks, and the schedule repeats.
        assert!(p.rate_at(Nanos::ZERO) < 2_000.0);
        let midday = p.rate_at(Nanos::from_secs(5));
        assert!(midday > 99_000.0, "midday {midday}");
        let tomorrow = p.rate_at(Nanos::from_secs(15));
        assert!(
            (tomorrow - midday).abs() < 1_500.0,
            "{tomorrow} vs {midday}"
        );
        // A half-day phase moves the peak to midnight.
        let shifted = RateProfile::diurnal(1_000.0, 100_000.0, day, Nanos::from_secs(5), 1, 100);
        assert!(shifted.rate_at(Nanos::ZERO) > 99_000.0);
        assert!(shifted.rate_at(Nanos::from_secs(5)) < 2_000.0);
    }

    #[test]
    fn diurnal_sharpness_narrows_the_busy_window() {
        let day = Nanos::from_secs(10);
        let broad = RateProfile::diurnal(0.0, 100_000.0, day, Nanos::ZERO, 1, 200);
        let narrow = RateProfile::diurnal(0.0, 100_000.0, day, Nanos::ZERO, 4, 200);
        // sin^2 averages 1/2 over the day; sin^8 averages 35/128.
        assert!((day_mean(&broad, day, 200) - 50_000.0).abs() < 500.0);
        assert!((day_mean(&narrow, day, 200) - 100_000.0 * 35.0 / 128.0).abs() < 500.0);
        // Every day repeats the first exactly.
        for t in [Nanos::ZERO, Nanos::from_millis(1_234), Nanos::from_secs(7)] {
            assert_eq!(
                broad.rate_at(t).to_bits(),
                broad.rate_at(t + day + day).to_bits()
            );
        }
        // Off-peak shoulder: the narrow profile is already quiet.
        assert!(narrow.rate_at(Nanos::from_secs(2)) < broad.rate_at(Nanos::from_secs(2)));
    }

    #[test]
    fn diurnal_drives_traffic_at_half_its_peak() {
        let day = Nanos::from_millis(200);
        let profile = RateProfile::diurnal(0.0, 50_000.0, day, Nanos::ZERO, 1, 50);
        // sin² averages one half: a day offers half the peak.
        let mean = day_mean(&profile, day, 50);
        assert!((mean - 25_000.0).abs() < 1.0, "{mean}");
        assert!(profile.rate_at(day.div(2)) > 49_000.0);
    }

    #[test]
    fn zero_rate_is_silent_until_the_step() {
        let p = RateProfile::steps(vec![
            (Nanos::ZERO, 0.0),
            (Nanos::from_millis(100), 10_000.0),
        ]);
        assert_eq!(p.rate_at(Nanos::from_millis(99)), 0.0);
        assert_eq!(p.rate_at(Nanos::from_millis(100)), 10_000.0);
    }
}
