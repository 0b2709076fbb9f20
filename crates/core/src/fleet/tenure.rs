//! Migration-cost amortisation: fixed or learned placement tenure.

use inc_sim::Nanos;

#[cfg(doc)]
use super::{FleetControllerConfig, FleetShift};

/// How the scheduler amortises [`FleetControllerConfig::migration_cost_j`]:
/// over a fixed configured tenure, or over each app's own observed
/// placement tenure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TenurePolicy {
    /// Every move is amortised over
    /// [`FleetControllerConfig::expected_tenure_samples`] (the default,
    /// the historical behaviour).
    Fixed,
    /// Each app's tenure is estimated online from its own shift history
    /// (an EWMA of inter-shift gaps, see [`TenureEstimator`]), falling
    /// back to the config constant until a first gap is observed. Sticky
    /// tenants migrate cheaply; flappy ones are debited honestly.
    Learned {
        /// EWMA gain in `(0, 1]`: the weight of the newest inter-shift
        /// gap.
        alpha: f64,
    },
}

impl TenurePolicy {
    /// EWMA gain used to fold observed inter-shift gaps: the configured
    /// gain under [`TenurePolicy::Learned`]; a default 0.3 under
    /// [`TenurePolicy::Fixed`], where the estimate is maintained for
    /// observability but never priced.
    pub fn ewma_alpha(self) -> f64 {
        match self {
            TenurePolicy::Fixed => 0.3,
            TenurePolicy::Learned { alpha } => alpha,
        }
    }
}

/// Online estimate of one app's placement tenure: an EWMA of the gaps
/// between its recorded [`FleetShift`]s, in sampling intervals. Feeds
/// [`TenurePolicy::Learned`] migration pricing; deterministic — the
/// estimate is a pure fold over the app's shift times, so replaying a
/// trace replays the estimates.
///
/// # Examples
///
/// ```
/// use inc_ondemand::TenureEstimator;
/// use inc_sim::Nanos;
///
/// let mut est = TenureEstimator::new();
/// // No history yet: the config fallback applies.
/// assert_eq!(est.expected_samples(20), 20.0);
/// let interval = Nanos::from_secs(1);
/// est.observe_shift(Nanos::from_secs(5), interval, 0.3);
/// // A single shift has no gap yet — still the fallback.
/// assert_eq!(est.expected_samples(20), 20.0);
/// est.observe_shift(Nanos::from_secs(13), interval, 0.3);
/// // One observed gap of 8 samples seeds the estimate.
/// assert_eq!(est.expected_samples(20), 8.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenureEstimator {
    /// When the app last shifted (`None` before its first shift).
    last_shift_at: Option<Nanos>,
    /// EWMA of inter-shift gaps in samples (`None` before the first
    /// observed gap).
    ewma_samples: Option<f64>,
}

impl TenureEstimator {
    /// An estimator with no history (the fallback applies).
    pub fn new() -> Self {
        TenureEstimator::default()
    }

    /// Folds a placement shift at `now` into the estimate: the gap since
    /// the previous shift, in `interval`s, enters the EWMA with gain
    /// `alpha`. The first shift only anchors the clock; a `now` at or
    /// before the previous shift (a repeated or backwards timestamp) is a
    /// gap of zero, never a negative tenure.
    pub fn observe_shift(&mut self, now: Nanos, interval: Nanos, alpha: f64) {
        if let Some(prev) = self.last_shift_at {
            let elapsed = (now.as_secs_f64() - prev.as_secs_f64()).max(0.0);
            let gap = elapsed / interval.as_secs_f64();
            self.ewma_samples = Some(match self.ewma_samples {
                Some(e) => e + alpha * (gap - e),
                None => gap,
            });
        }
        self.last_shift_at = Some(now);
    }

    /// The tenure a new placement of this app is expected to hold, in
    /// sampling intervals: the EWMA estimate clamped to at least one
    /// sample, or `fallback` (the config constant) before any gap has
    /// been observed.
    pub fn expected_samples(&self, fallback: u32) -> f64 {
        match self.ewma_samples {
            Some(e) => e.max(1.0),
            None => f64::from(fallback.max(1)),
        }
    }

    /// The raw EWMA estimate, if any gap has been observed yet.
    pub fn observed_samples(&self) -> Option<f64> {
        self.ewma_samples
    }
}
