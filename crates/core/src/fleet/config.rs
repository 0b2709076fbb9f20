//! The fleet controller's configuration: one struct, its policy enums and
//! its construction-time validation.

use inc_sim::Nanos;

use super::Objective;

/// How a fairness claim chooses among feasible hand-over devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimPolicy {
    /// The claimant takes its own best-scoring feasible device,
    /// regardless of what must be clipped there (the original policy;
    /// kept as the baseline the min-cost policy is measured against).
    BestScore,
    /// The claimant takes the feasible device whose hand-over forfeits
    /// the least: total clipped-incumbent benefit plus the migration
    /// debit of every program that must move (clips + the claimant).
    /// Ties break on the claimant's higher score, then the lower device
    /// index.
    ///
    /// The objective deliberately prices only what the hand-over *takes
    /// away* — it does not net out the claimant's own per-device benefit
    /// differences (that enters only as the tie-break), so when the
    /// claimant's delivered benefit varies across devices by more than
    /// the clip totals do, a fleet-net-optimal device can lose to a
    /// cheaper-clip one. Keeping the objective one-sided is what makes
    /// the policy's guarantee simple and testable: a min-cost claim
    /// never clips more incumbent benefit than a best-score claim would
    /// on the same state.
    MinCost,
}

/// How the arbitration pipeline schedules re-scoring work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArbitrationMode {
    /// Every pod is solved every tick (the equivalence baseline the
    /// incremental mode is checked and measured against).
    FullRescore,
    /// Only pods with a dirty app or a capacity change are solved; clean
    /// pods reuse their previous selection unchanged.
    Incremental,
}

/// Configuration of the fleet scheduler.
#[derive(Clone, Copy, Debug)]
pub struct FleetControllerConfig {
    /// Sampling interval.
    pub interval: Nanos,
    /// Consecutive samples a condition must hold before a shift. At
    /// least 1: with 0 every streak gate holds vacuously, so every idle
    /// software tenant would count as queued (`u32::MAX` pins placements).
    pub sustain_samples: u32,
    /// Minimum estimated power saving (watts) for an app to become an
    /// offload candidate on a device (after the locality haircut).
    pub min_benefit_w: f64,
    /// An offloaded app is evicted only when its benefit falls below
    /// `min_benefit_w * evict_fraction` (the hysteresis dead band),
    /// sustained over the window. In `[0, 1]`.
    pub evict_fraction: f64,
    /// Score multiplier for a resident app on its current device
    /// (≥ 1.0). A newcomer — or the same app eyeing a different ToR —
    /// must beat the incumbent score by this factor to displace it.
    pub stickiness: f64,
    /// Consecutive queued samples after which a weight-1 tenant files a
    /// fairness claim (per-tenant windows are `starvation_window /
    /// weight`, floored by `sustain_samples`). The window is the
    /// fairness analogue of the sustain window: long enough that shares
    /// change by deliberate hand-over, not flapping. `u32::MAX` disables
    /// fairness entirely (pure benefit-maximising scheduling).
    pub starvation_window: u32,
    /// The switchover price of reprogramming a device, joules: the §9.2
    /// reconfiguration halt plus the moved program's state re-warm.
    /// Charged — amortised over [`Self::expected_tenure_samples`] — as a
    /// benefit debit on every candidate that would move a *resident* app
    /// to a different device, and as a per-move term in the fairness
    /// claim cost. `0.0` disables migration pricing (moves fight only
    /// the stickiness ratio, the pre-migration-cost behaviour).
    pub migration_cost_j: f64,
    /// Sampling intervals a new placement is expected to hold: the
    /// amortisation horizon of [`Self::migration_cost_j`]. The per-sample
    /// debit is `migration_cost_j / (expected_tenure_samples ×
    /// interval)` watts — a move must be worth at least its switchover
    /// spread over the tenure it buys.
    pub expected_tenure_samples: u32,
    /// How fairness claims choose among feasible hand-over devices.
    pub claim_policy: ClaimPolicy,
    /// The currency every decision is priced in: raw benefits, the
    /// offload floor, detour costs and migration debits all pass
    /// through this rule. [`Objective::Joules`] (the default) is the
    /// historical watts-denominated behaviour bit for bit.
    pub objective: Objective,
    /// Full re-score or incremental dirty-queue scheduling. Both make
    /// the same decisions; they differ in how much work a tick does.
    pub mode: ArbitrationMode,
    /// Relative dead band on measured rates: the held scoring rate
    /// updates only when `|measured − held| > rate_deadband × max(|held|,
    /// 1 pps)` (strictly greater — a wobble landing *exactly* on the band
    /// does not re-score). `0.0` holds nothing: any change dirties.
    pub rate_deadband: f64,
}

impl FleetControllerConfig {
    /// A reasonable default: 3-sample sustain (the Figure 6 choice), a
    /// 1 W offload floor, a 2× dead band, 25 % incumbency advantage, a
    /// 20-sample starvation window (fairness as a backstop: transient
    /// contention resolves by benefit, only sustained starvation forces
    /// a fair-share hand-over), a 5 J switchover debit amortised over a
    /// 20-sample tenure, and min-cost hand-overs — priced in
    /// [`Objective::Joules`] (the historical behaviour, bit for bit),
    /// arbitrated incrementally on the measured rates themselves (no
    /// dead band).
    ///
    /// # Examples
    ///
    /// ```
    /// use inc_ondemand::{ArbitrationMode, ClaimPolicy, FleetControllerConfig};
    /// use inc_sim::Nanos;
    ///
    /// let cfg = FleetControllerConfig::standard(Nanos::from_secs(1));
    /// assert_eq!(cfg.sustain_samples, 3);
    /// assert_eq!(cfg.claim_policy, ClaimPolicy::MinCost);
    /// assert_eq!(cfg.mode, ArbitrationMode::Incremental);
    /// assert_eq!(cfg.rate_deadband, 0.0);
    /// // The eviction threshold sits below the offload floor: the
    /// // hysteresis dead band that keeps marginal tenants from flapping.
    /// assert!(cfg.min_benefit_w * cfg.evict_fraction < cfg.min_benefit_w);
    /// // One interval of tenure must be worth the amortised switchover:
    /// // 5 J over 20 one-second samples is a 0.25 W debit per move.
    /// let debit_w = cfg.migration_cost_j
    ///     / (cfg.expected_tenure_samples as f64 * cfg.interval.as_secs_f64());
    /// assert!((debit_w - 0.25).abs() < 1e-12);
    /// ```
    pub fn standard(interval: Nanos) -> Self {
        FleetControllerConfig {
            interval,
            sustain_samples: 3,
            min_benefit_w: 1.0,
            evict_fraction: 0.5,
            stickiness: 1.25,
            starvation_window: 20,
            migration_cost_j: 5.0,
            expected_tenure_samples: 20,
            claim_policy: ClaimPolicy::MinCost,
            objective: Objective::Joules,
            mode: ArbitrationMode::Incremental,
            rate_deadband: 0.0,
        }
    }

    /// Panics unless the knobs are usable: a non-zero sampling interval
    /// (the harness steps by it and migration debits divide by it), a
    /// non-zero sustain window, a finite non-negative offload floor,
    /// migration cost and rate dead band, and valid objective prices.
    /// Called at construction so a bad value fails loudly instead of
    /// hanging the harness or silently mis-ranking every candidate.
    pub(crate) fn validate(&self) {
        assert!(
            self.interval > Nanos::ZERO,
            "sampling interval must be non-zero"
        );
        assert!(
            self.sustain_samples > 0,
            "sustain_samples must be at least 1"
        );
        Self::validate_floor(self.min_benefit_w);
        assert!(
            self.rate_deadband.is_finite() && self.rate_deadband >= 0.0,
            "rate_deadband {} must be finite and non-negative",
            self.rate_deadband
        );
        assert!(
            self.migration_cost_j.is_finite() && self.migration_cost_j >= 0.0,
            "migration_cost_j {} must be finite and non-negative",
            self.migration_cost_j
        );
        self.objective.validate();
    }

    /// Panics unless `floor_w` is a usable offload floor (a NaN floor
    /// fails every `>=` comparison and silently disables every offload).
    pub(crate) fn validate_floor(floor_w: f64) {
        assert!(
            floor_w.is_finite() && floor_w >= 0.0,
            "offload floor {floor_w} must be finite and non-negative"
        );
    }
}
