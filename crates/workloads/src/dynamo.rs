//! Facebook Dynamo power-trace synthesis and the §9.3 variation analysis.
//!
//! Dynamo (Wu et al., ISCA'16) reports rack-level power variation
//! percentiles that the paper uses to judge when on-demand shifting is
//! safe: 12.8 % p99 over 3 s and 26.6 % over 30 s at rack level (median
//! < 5 %); caching workloads vary 9.2 % median / 26.2 % p99 over 60 s;
//! web servers 37.2 % / 62.2 %. [`PowerTrace`] synthesizes per-class
//! traces with matching statistics; [`variation`] computes the same
//! percentile metric the paper applies.

use inc_sim::{Nanos, Rng, TimeSeries};

/// Workload classes with published Dynamo variation characteristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Rack-level aggregate.
    Rack,
    /// Caching tier (one of the paper's case-study applications).
    Cache,
    /// Web serving tier.
    WebServer,
    /// Batch/Hadoop-style tier.
    Batch,
}

impl WorkloadClass {
    /// Per-step multiplicative noise scale calibrated so the synthesized
    /// traces land on the published variation percentiles.
    fn step_sigma(self) -> f64 {
        match self {
            WorkloadClass::Rack => 0.029,
            WorkloadClass::Cache => 0.022,
            WorkloadClass::WebServer => 0.16,
            WorkloadClass::Batch => 0.08,
        }
    }

    /// Mean power level of the synthesized trace, watts.
    fn mean_w(self) -> f64 {
        match self {
            WorkloadClass::Rack => 8_000.0,
            WorkloadClass::Cache => 90.0,
            WorkloadClass::WebServer => 120.0,
            WorkloadClass::Batch => 150.0,
        }
    }
}

/// A synthesized power-over-time trace.
#[derive(Clone, Debug)]
pub struct PowerTrace {
    /// The samples (1 s cadence, like Dynamo's collection).
    pub series: TimeSeries,
}

impl PowerTrace {
    /// Synthesizes `seconds` of 1 Hz samples for a workload class using a
    /// mean-reverting multiplicative random walk.
    pub fn synthesize(rng: &mut Rng, class: WorkloadClass, seconds: u64) -> Self {
        let mut walk = PowerWalk::new(class);
        let mut series = TimeSeries::new();
        for s in 0..seconds {
            let level = walk.next_w(rng);
            series.push(Nanos::from_secs(s), level);
        }
        PowerTrace { series }
    }
}

/// The [`PowerTrace`] random walk as a streaming generator: one watt
/// sample per call, no per-sample allocation and no materialised
/// [`TimeSeries`] — the per-request path for heavy-traffic replays that
/// only need the instantaneous level. [`PowerTrace::synthesize`] is this
/// walk collected into a series (same draws, same levels).
#[derive(Clone, Copy, Debug)]
pub struct PowerWalk {
    level: f64,
    mean: f64,
    sigma: f64,
}

impl PowerWalk {
    /// A walk starting at the class mean.
    pub fn new(class: WorkloadClass) -> Self {
        let mean = class.mean_w();
        PowerWalk {
            level: mean,
            mean,
            sigma: class.step_sigma(),
        }
    }

    /// The class mean, watts.
    pub fn mean_w(&self) -> f64 {
        self.mean
    }

    /// Advances one 1 Hz step and returns the new power level, watts.
    pub fn next_w(&mut self, rng: &mut Rng) -> f64 {
        let noise = rng.normal(0.0, self.sigma);
        // Mean reversion keeps the trace stationary.
        self.level += (self.mean - self.level) * 0.05 + self.mean * noise;
        self.level = self.level.clamp(self.mean * 0.3, self.mean * 2.0);
        self.level
    }
}

/// Power-variation percentiles over a window: the §9.3 metric
/// `|P(t+w) − P(t)| / P(t)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Variation {
    /// Median relative variation.
    pub median: f64,
    /// 99th percentile relative variation.
    pub p99: f64,
}

/// Computes variation percentiles of a 1 Hz power trace over `window`.
///
/// Returns `None` when the trace is shorter than the window.
pub fn variation(series: &TimeSeries, window: Nanos) -> Option<Variation> {
    let pts = series.points();
    let step = window.as_nanos() / 1_000_000_000;
    if step == 0 || pts.len() <= step as usize {
        return None;
    }
    let step = step as usize;
    let mut deltas: Vec<f64> = pts
        .windows(step + 1)
        .map(|w| {
            let (a, b) = (w[0].1, w[step].1);
            (b - a).abs() / a.max(1e-9)
        })
        .collect();
    deltas.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q = |f: f64| deltas[((deltas.len() - 1) as f64 * f) as usize];
    Some(Variation {
        median: q(0.5),
        p99: q(0.99),
    })
}

/// The paper's rule: on-demand shifting is appropriate when power variance
/// over the scheduling period is low (§9.3). The threshold is the rack
/// p99 over 30 s the paper quotes (26.6 %).
pub fn suits_on_demand(v: Variation) -> bool {
    v.p99 <= 0.30
}

/// The published §9.3/Dynamo reference numbers for the harness.
pub mod reference {
    /// Rack-level p99 variation over 3 s.
    pub const RACK_P99_3S: f64 = 0.128;
    /// Rack-level p99 variation over 30 s.
    pub const RACK_P99_30S: f64 = 0.266;
    /// Cache median / p99 over 60 s.
    pub const CACHE_60S: (f64, f64) = (0.092, 0.262);
    /// Web server median / p99 over 60 s.
    pub const WEB_60S: (f64, f64) = (0.372, 0.622);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(class: WorkloadClass) -> PowerTrace {
        let mut rng = Rng::new(99);
        PowerTrace::synthesize(&mut rng, class, 4_000)
    }

    #[test]
    fn rack_variation_matches_published_band() {
        let t = trace(WorkloadClass::Rack);
        let v3 = variation(&t.series, Nanos::from_secs(3)).unwrap();
        let v30 = variation(&t.series, Nanos::from_secs(30)).unwrap();
        // §9.3: 12.8 % p99 over 3 s, 26.6 % over 30 s, median < 5 %.
        assert!((0.09..0.18).contains(&v3.p99), "p99@3s {}", v3.p99);
        assert!((0.18..0.36).contains(&v30.p99), "p99@30s {}", v30.p99);
        assert!(v3.median < 0.05, "median {}", v3.median);
    }

    #[test]
    fn cache_is_calmer_than_web() {
        let cache = trace(WorkloadClass::Cache);
        let web = trace(WorkloadClass::WebServer);
        let w = Nanos::from_secs(60);
        let vc = variation(&cache.series, w).unwrap();
        let vw = variation(&web.series, w).unwrap();
        assert!(vc.median < vw.median);
        assert!(vc.p99 < vw.p99);
        // §9.3: cache ~9.2 % median / 26.2 % p99; web 37.2 % / 62.2 %.
        assert!(
            (0.04..0.16).contains(&vc.median),
            "cache median {}",
            vc.median
        );
        assert!((0.2..0.6).contains(&vw.median), "web median {}", vw.median);
    }

    #[test]
    fn suitability_rule_separates_classes() {
        let cache = trace(WorkloadClass::Cache);
        let web = trace(WorkloadClass::WebServer);
        let w = Nanos::from_secs(30);
        assert!(suits_on_demand(variation(&cache.series, w).unwrap()));
        assert!(!suits_on_demand(variation(&web.series, w).unwrap()));
    }

    #[test]
    fn short_trace_returns_none() {
        let mut rng = Rng::new(1);
        let t = PowerTrace::synthesize(&mut rng, WorkloadClass::Rack, 5);
        assert!(variation(&t.series, Nanos::from_secs(30)).is_none());
    }
}
