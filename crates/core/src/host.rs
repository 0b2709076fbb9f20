//! The host-controlled on-demand controller (§9.1).
//!
//! The second controller design "makes offloading decisions at the host,
//! using information such as the CPU usage and power consumption" read
//! from RAPL, shifting to the network when a power threshold and a CPU
//! usage condition hold together, sustained over a window ("avoiding harsh
//! decisions based on spikes and outliers"). Shifting back requires
//! feedback from the network — the packet rate the hardware is serving —
//! "otherwise, the shift may be inefficient, or cause a workload to bounce
//! back and forth".
//!
//! The paper's implementation is 204 lines of C consuming ~0.3 % of a
//! core for RAPL reads; this is the same state machine as a pure Rust
//! struct fed by periodic samples.

use inc_hw::Placement;
use inc_sim::Nanos;

/// One controller sample, taken every [`HostControllerConfig::interval`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostSample {
    /// Host package power from RAPL, watts.
    pub rapl_w: f64,
    /// CPU utilisation attributable to the application, core-seconds/s.
    pub app_cpu_util: f64,
    /// Application packet rate measured *by the network device*
    /// (the shift-back feedback), packets/second.
    pub hw_app_rate: f64,
}

/// Configuration of the host-controlled design.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostControllerConfig {
    /// Sampling interval.
    pub interval: Nanos,
    /// Shift to the network when RAPL power exceeds this...
    pub power_up_w: f64,
    /// ...and the application's CPU usage exceeds this (power alone is
    /// ambiguous: "a high power consumption can be triggered by multiple
    /// applications running on the same host").
    pub cpu_up_util: f64,
    /// Shift back when the network-measured app rate falls below this...
    pub rate_down_pps: f64,
    /// ...and host power is below this (the host has headroom again —
    /// Figure 6 shifts back "as ChainerMN stops").
    pub power_down_w: f64,
    /// Consecutive samples a condition must hold (Figure 6 uses three
    /// seconds of sustained high load).
    pub sustain_samples: u32,
}

impl HostControllerConfig {
    /// The Figure 6 configuration: 1 s samples, 3 s sustain, shift-back
    /// headroom threshold a little under the shift-up threshold.
    pub fn figure6(power_up_w: f64, cpu_up_util: f64, rate_down_pps: f64) -> Self {
        HostControllerConfig {
            interval: Nanos::from_secs(1),
            power_up_w,
            cpu_up_util,
            rate_down_pps,
            power_down_w: power_up_w * 0.9,
            sustain_samples: 3,
        }
    }
}

/// The host-controlled on-demand controller.
///
/// # Examples
///
/// ```
/// use inc_hw::Placement;
/// use inc_ondemand::{HostController, HostControllerConfig, HostSample};
/// use inc_sim::Nanos;
///
/// let cfg = HostControllerConfig::figure6(55.0, 0.2, 10_000.0);
/// let mut ctl = HostController::new(cfg);
/// assert_eq!(ctl.placement(), Placement::Software);
/// ```
#[derive(Clone, Debug)]
pub struct HostController {
    config: HostControllerConfig,
    placement: Placement,
    /// Consecutive samples the condition for leaving the current
    /// placement has held (a shift starts the count over).
    streak: u32,
}

impl HostController {
    /// Creates a controller starting in software placement.
    ///
    /// # Panics
    ///
    /// Panics if the sampling interval is zero: the harness steps the
    /// simulation by it and would never reach its horizon.
    pub fn new(config: HostControllerConfig) -> Self {
        assert!(
            config.interval > Nanos::ZERO,
            "sampling interval must be non-zero"
        );
        HostController {
            config,
            placement: Placement::Software,
            streak: 0,
        }
    }

    /// Returns the current placement decision.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Returns the configuration.
    pub fn config(&self) -> HostControllerConfig {
        self.config
    }

    /// Feeds one sample, taken at `_now`; returns a new placement when a
    /// sustained condition completes. The state machine counts samples,
    /// not time, and keeps no log: the caller records when a shift fired
    /// ([`run_host_controlled`](crate::system::run_host_controlled)'s
    /// timeline does).
    pub fn sample(&mut self, _now: Nanos, s: HostSample) -> Option<Placement> {
        let c = &self.config;
        let (holds, next) = match self.placement {
            Placement::Software => (
                s.rapl_w >= c.power_up_w && s.app_cpu_util >= c.cpu_up_util,
                Placement::HARDWARE,
            ),
            // Shift-back needs the network-side rate feedback (host
            // power is no longer attributable to the app) plus host
            // headroom, so a busy co-tenant blocks the return.
            Placement::Device(_) => (
                s.hw_app_rate < c.rate_down_pps && s.rapl_w < c.power_down_w,
                Placement::Software,
            ),
        };
        self.streak = if holds { self.streak + 1 } else { 0 };
        if self.streak < c.sustain_samples {
            return None;
        }
        self.placement = next;
        self.streak = 0;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HostControllerConfig {
        HostControllerConfig::figure6(55.0, 0.2, 10_000.0)
    }

    fn hot() -> HostSample {
        HostSample {
            rapl_w: 70.0,
            app_cpu_util: 0.5,
            hw_app_rate: 0.0,
        }
    }

    fn cold() -> HostSample {
        HostSample {
            rapl_w: 40.0,
            app_cpu_util: 0.05,
            hw_app_rate: 2_000.0,
        }
    }

    fn t(s: u64) -> Nanos {
        Nanos::from_secs(s)
    }

    #[test]
    #[should_panic(expected = "sampling interval must be non-zero")]
    fn zero_sampling_interval_rejected() {
        let _ = HostController::new(HostControllerConfig {
            interval: Nanos::ZERO,
            ..cfg()
        });
    }

    #[test]
    fn requires_sustained_condition() {
        let mut c = HostController::new(cfg());
        assert_eq!(c.sample(t(1), hot()), None);
        assert_eq!(c.sample(t(2), hot()), None);
        // A dip resets the streak ("avoiding harsh decisions based on
        // spikes").
        assert_eq!(c.sample(t(3), cold()), None);
        assert_eq!(c.sample(t(4), hot()), None);
        assert_eq!(c.sample(t(5), hot()), None);
        assert_eq!(c.sample(t(6), hot()), Some(Placement::HARDWARE));
    }

    #[test]
    fn power_alone_is_not_enough() {
        // High power but low app CPU (another tenant is hot): no shift.
        let mut c = HostController::new(cfg());
        let ambiguous = HostSample {
            rapl_w: 90.0,
            app_cpu_util: 0.01,
            hw_app_rate: 0.0,
        };
        for s in 1..=10 {
            assert_eq!(c.sample(t(s), ambiguous), None);
        }
        assert_eq!(c.placement(), Placement::Software);
    }

    #[test]
    fn shift_back_uses_network_feedback() {
        let mut c = HostController::new(cfg());
        let shifts: Vec<_> = (1..=3).filter_map(|s| c.sample(t(s), hot())).collect();
        assert_eq!(shifts, [Placement::HARDWARE]);
        assert_eq!(c.placement(), Placement::HARDWARE);
        // Hardware still busy: no shift back even if host power is low.
        let busy = HostSample {
            rapl_w: 30.0,
            app_cpu_util: 0.0,
            hw_app_rate: 500_000.0,
        };
        for s in 4..=10 {
            assert_eq!(c.sample(t(s), busy), None);
        }
        // Demand dies down: sustained low rate shifts back.
        let idle = HostSample {
            rapl_w: 30.0,
            app_cpu_util: 0.0,
            hw_app_rate: 1_000.0,
        };
        assert_eq!(c.sample(t(11), idle), None);
        assert_eq!(c.sample(t(12), idle), None);
        assert_eq!(c.sample(t(13), idle), Some(Placement::Software));
    }

    #[test]
    fn no_bouncing_within_band() {
        let mut c = HostController::new(cfg());
        let shifts: Vec<_> = (1..=3).filter_map(|s| c.sample(t(s), hot())).collect();
        assert_eq!(shifts, [Placement::HARDWARE]);
        // A moderate rate above the down-threshold holds hardware
        // placement indefinitely.
        let moderate = HostSample {
            rapl_w: 45.0,
            app_cpu_util: 0.0,
            hw_app_rate: 50_000.0,
        };
        for s in 4..=50 {
            assert_eq!(c.sample(t(s), moderate), None);
        }
        assert_eq!(c.placement(), Placement::HARDWARE);
    }
}
