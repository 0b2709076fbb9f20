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
    /// A constant rate forever.
    pub fn constant(rate_pps: f64) -> Self {
        RateProfile {
            steps: vec![(Nanos::ZERO, rate_pps)],
            period: None,
        }
    }

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

    /// A linear ramp approximated by `n` steps.
    pub fn ramp(from_pps: f64, to_pps: f64, start: Nanos, duration: Nanos, n: usize) -> Self {
        let n = n.max(1);
        let steps = (0..n)
            .map(|i| {
                let f = i as f64 / n as f64;
                (
                    start + duration.mul_f64(f),
                    from_pps + (to_pps - from_pps) * f,
                )
            })
            .collect();
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

    /// Duration-weighted mean rate over `[0, until)`, integrating the
    /// piecewise-constant schedule exactly (uneven step spacing and
    /// periodic wrap-around both handled).
    ///
    /// # Panics
    ///
    /// Panics if `until` is zero.
    pub fn mean_rate_pps(&self, until: Nanos) -> f64 {
        assert!(until > Nanos::ZERO, "mean over an empty span");
        let until_ns = until.as_nanos();
        let mut acc = 0.0;
        let mut t = 0u64;
        while t < until_ns {
            let rate = self.rate_at(Nanos::from_nanos(t));
            let next = self.next_change_after(t).unwrap_or(until_ns).min(until_ns);
            acc += rate * (next - t) as f64;
            t = next;
        }
        acc / until_ns as f64
    }

    /// The first instant strictly after `t` (in absolute nanoseconds) at
    /// which the schedule's rate can change.
    fn next_change_after(&self, t: u64) -> Option<u64> {
        match self.period {
            Some(p) => {
                let p_ns = p.as_nanos();
                let base = t / p_ns * p_ns;
                let local = Nanos::from_nanos(t % p_ns);
                let idx = self.steps.partition_point(|&(s, _)| s <= local);
                match self.steps.get(idx) {
                    Some(&(s, _)) => Some(base + s.as_nanos()),
                    // Wrap: the next change is the start of the next period.
                    None => Some(base + p_ns),
                }
            }
            None => {
                let idx = self.steps.partition_point(|&(s, _)| s.as_nanos() <= t);
                self.steps.get(idx).map(|&(s, _)| s.as_nanos())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_holds_everywhere() {
        let p = RateProfile::constant(10_000.0);
        for t in [Nanos::ZERO, Nanos::from_millis(7), Nanos::from_secs(1_000)] {
            assert_eq!(p.rate_at(t), 10_000.0);
        }
        assert_eq!(p.mean_rate_pps(Nanos::from_secs(1)), 10_000.0);
    }

    #[test]
    fn a_step_change_takes_effect_at_its_start() {
        let p = RateProfile::steps(vec![
            (Nanos::ZERO, 1_000.0),
            (Nanos::from_millis(500), 100_000.0),
        ]);
        assert_eq!(p.rate_at(Nanos::from_nanos(499_999_999)), 1_000.0);
        assert_eq!(p.rate_at(Nanos::from_millis(500)), 100_000.0);
        // Half a second at each rate.
        let mean = p.mean_rate_pps(Nanos::from_secs(1));
        assert!((mean - 50_500.0).abs() < 1e-6, "{mean}");
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
        assert!((broad.mean_rate_pps(day) - 50_000.0).abs() < 500.0);
        assert!((narrow.mean_rate_pps(day) - 100_000.0 * 35.0 / 128.0).abs() < 500.0);
        // The mean over two whole days equals the one-day mean.
        assert!((broad.mean_rate_pps(day + day) - broad.mean_rate_pps(day)).abs() < 1e-9);
        // Off-peak shoulder: the narrow profile is already quiet.
        assert!(narrow.rate_at(Nanos::from_secs(2)) < broad.rate_at(Nanos::from_secs(2)));
    }

    #[test]
    fn mean_rate_weights_uneven_steps_by_duration() {
        // 9 s at 100 kpps then quiet: the mean over 10 s is 90 kpps, not
        // the unweighted step average of 50 kpps.
        let p = RateProfile::steps(vec![(Nanos::ZERO, 100_000.0), (Nanos::from_secs(9), 0.0)]);
        let mean = p.mean_rate_pps(Nanos::from_secs(10));
        assert!((mean - 90_000.0).abs() < 1e-6, "{mean}");
        // An aperiodic profile holds its last rate forever.
        let mean20 = p.mean_rate_pps(Nanos::from_secs(20));
        assert!((mean20 - 45_000.0).abs() < 1e-6, "{mean20}");
    }

    #[test]
    fn diurnal_drives_traffic_at_half_its_peak() {
        let day = Nanos::from_millis(200);
        let profile = RateProfile::diurnal(0.0, 50_000.0, day, Nanos::ZERO, 1, 50);
        // sin² averages one half: two full days offer half the peak.
        let mean = profile.mean_rate_pps(day + day);
        assert!((mean - 25_000.0).abs() < 1.0, "{mean}");
        assert!(profile.rate_at(day.div(2)) > 49_000.0);
    }

    #[test]
    fn ramp_rate_monotone() {
        let p = RateProfile::ramp(0.0, 1_000.0, Nanos::ZERO, Nanos::from_secs(10), 10);
        assert!(p.rate_at(Nanos::from_secs(1)) < p.rate_at(Nanos::from_secs(9)));
        assert_eq!(p.rate_at(Nanos::from_secs(20)), 900.0);
    }

    #[test]
    fn zero_rate_is_silent_until_the_step() {
        let p = RateProfile::steps(vec![
            (Nanos::ZERO, 0.0),
            (Nanos::from_millis(100), 10_000.0),
        ]);
        assert_eq!(p.rate_at(Nanos::from_millis(99)), 0.0);
        assert_eq!(p.mean_rate_pps(Nanos::from_millis(100)), 0.0);
        assert_eq!(p.rate_at(Nanos::from_millis(100)), 10_000.0);
        // The second 100 ms carry the whole offered load.
        assert_eq!(p.mean_rate_pps(Nanos::from_millis(200)), 5_000.0);
    }
}
