//! The paper's energy model (§8).
//!
//! Niccolini et al.'s formulation, as adopted by the paper:
//!
//! ```text
//! E = Pd(f) × Td(W, f)  +  Ps × Ts  +  Pi × Ti
//! ```
//!
//! where `Pd` is power while actively processing (a function of device
//! frequency `f`), `Td` the active time to process `W` packets, `Ps`/`Ts`
//! sleep-transition power/time, and `Pi`/`Ti` idle power/time. The packet
//! rate is `R = W / Td`.
//!
//! The paper derives two placement questions from this model, both
//! implemented here and exercised by `inc-ondemand::decision`:
//!
//! 1. *Should a standard network device be replaced by a programmable
//!    one?* — dominated by the idle powers `Pi`.
//! 2. *Given a programmable device, when should a workload be offloaded?*
//!    — `Pi` and `Ps` cancel (same device either way), so the tipping
//!    point is the rate where `Pd_net(R) = Pd_sw(R)`.

use inc_sim::Nanos;

/// State-resident energy parameters for one system (§8 / Niccolini et al.).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyParams {
    /// Idle power `Pi`, watts.
    pub idle_w: f64,
    /// Sleep-transition power `Ps`, watts.
    pub sleep_w: f64,
    /// Active power at full processing rate `Pd(f)`, watts.
    pub active_w: f64,
    /// Peak processing rate at frequency `f`, packets/second.
    pub peak_rate_pps: f64,
}

/// Time spent in each state over an accounting interval.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StateTimes {
    /// Active processing time `Td`.
    pub active: Nanos,
    /// Sleep-transition time `Ts`.
    pub sleep: Nanos,
    /// Idle time `Ti`.
    pub idle: Nanos,
}

/// Energy by state, joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// `Pd × Td`.
    pub active_j: f64,
    /// `Ps × Ts`.
    pub sleep_j: f64,
    /// `Pi × Ti`.
    pub idle_j: f64,
}

impl EnergyBreakdown {
    /// Total energy `E`.
    pub fn total_j(&self) -> f64 {
        self.active_j + self.sleep_j + self.idle_j
    }
}

impl EnergyParams {
    /// Evaluates `E = Pd·Td + Ps·Ts + Pi·Ti`.
    pub fn energy(&self, times: StateTimes) -> EnergyBreakdown {
        EnergyBreakdown {
            active_j: self.active_w * times.active.as_secs_f64(),
            sleep_j: self.sleep_w * times.sleep.as_secs_f64(),
            idle_j: self.idle_w * times.idle.as_secs_f64(),
        }
    }

    /// Energy to process `packets` at offered rate `rate_pps` within a
    /// window of `window`; time not spent processing is idle.
    ///
    /// The device processes at its peak rate and idles the remainder — the
    /// race-to-idle reading of `Td(W, f)`. Returns `None` if the work does
    /// not fit in the window at the peak rate.
    pub fn energy_for_work(&self, packets: u64, window: Nanos) -> Option<EnergyBreakdown> {
        if self.peak_rate_pps <= 0.0 {
            return if packets == 0 {
                Some(self.energy(StateTimes {
                    active: Nanos::ZERO,
                    sleep: Nanos::ZERO,
                    idle: window,
                }))
            } else {
                None
            };
        }
        let td = Nanos::from_secs_f64(packets as f64 / self.peak_rate_pps);
        if td > window {
            return None;
        }
        Some(self.energy(StateTimes {
            active: td,
            sleep: Nanos::ZERO,
            idle: window - td,
        }))
    }

    /// Average power while sustaining `rate_pps` (duty-cycled between
    /// active and idle). Clamps to the peak rate.
    pub fn sustained_power_w(&self, rate_pps: f64) -> f64 {
        if self.peak_rate_pps <= 0.0 {
            return self.idle_w;
        }
        let duty = (rate_pps / self.peak_rate_pps).clamp(0.0, 1.0);
        self.active_w * duty + self.idle_w * (1.0 - duty)
    }
}

/// Compares a software system against an in-network system per §8 and
/// reports which consumes less energy for the same work.
#[derive(Clone, Copy, Debug)]
pub struct PlacementComparison {
    /// Energy if the workload runs in software.
    pub software_j: f64,
    /// Energy if the workload runs in the network.
    pub network_j: f64,
}

impl PlacementComparison {
    /// Evaluates both placements over a window.
    ///
    /// Returns `None` if either system cannot sustain the work.
    pub fn evaluate(
        software: &EnergyParams,
        network: &EnergyParams,
        packets: u64,
        window: Nanos,
    ) -> Option<Self> {
        Some(PlacementComparison {
            software_j: software.energy_for_work(packets, window)?.total_j(),
            network_j: network.energy_for_work(packets, window)?.total_j(),
        })
    }

    /// `true` when in-network execution uses less energy (`E_N < E_S`).
    pub fn prefer_network(&self) -> bool {
        self.network_j < self.software_j
    }

    /// Relative saving of the better placement versus the worse.
    pub fn saving_fraction(&self) -> f64 {
        let (lo, hi) = if self.software_j <= self.network_j {
            (self.software_j, self.network_j)
        } else {
            (self.network_j, self.software_j)
        };
        if hi <= 0.0 {
            0.0
        } else {
            1.0 - lo / hi
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw() -> EnergyParams {
        EnergyParams {
            idle_w: 39.0,
            sleep_w: 5.0,
            active_w: 110.0,
            peak_rate_pps: 1_000_000.0,
        }
    }

    fn hw() -> EnergyParams {
        EnergyParams {
            idle_w: 59.0,
            sleep_w: 0.0,
            active_w: 61.0,
            peak_rate_pps: 13_000_000.0,
        }
    }

    #[test]
    fn energy_equation_terms() {
        let e = sw().energy(StateTimes {
            active: Nanos::from_secs(2),
            sleep: Nanos::from_secs(1),
            idle: Nanos::from_secs(7),
        });
        assert!((e.active_j - 220.0).abs() < 1e-9);
        assert!((e.sleep_j - 5.0).abs() < 1e-9);
        assert!((e.idle_j - 273.0).abs() < 1e-9);
        assert!((e.total_j() - 498.0).abs() < 1e-9);
    }

    #[test]
    fn work_that_does_not_fit_is_rejected() {
        let p = sw();
        // 10 M packets at 1 Mpps needs 10 s; window is 5 s.
        assert!(p.energy_for_work(10_000_000, Nanos::from_secs(5)).is_none());
        assert!(p.energy_for_work(1_000_000, Nanos::from_secs(5)).is_some());
    }

    #[test]
    fn zero_work_is_pure_idle() {
        let p = sw();
        let e = p.energy_for_work(0, Nanos::from_secs(10)).unwrap();
        assert_eq!(e.active_j, 0.0);
        assert!((e.idle_j - 390.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_power_interpolates() {
        let p = sw();
        assert!((p.sustained_power_w(0.0) - 39.0).abs() < 1e-9);
        assert!((p.sustained_power_w(1_000_000.0) - 110.0).abs() < 1e-9);
        assert!((p.sustained_power_w(500_000.0) - 74.5).abs() < 1e-9);
        // Above peak it clamps.
        assert!((p.sustained_power_w(9e9) - 110.0).abs() < 1e-9);
    }

    #[test]
    fn placement_flips_with_load() {
        // At a low rate software wins; at a high rate the network wins.
        let low = PlacementComparison::evaluate(&sw(), &hw(), 10_000, Nanos::from_secs(1)).unwrap();
        assert!(!low.prefer_network(), "software should win at 10 Kpps");
        let high =
            PlacementComparison::evaluate(&sw(), &hw(), 900_000, Nanos::from_secs(1)).unwrap();
        assert!(high.prefer_network(), "network should win at 900 Kpps");
        assert!(high.saving_fraction() > 0.0);
    }

    #[test]
    fn network_handles_rates_software_cannot() {
        // 5 Mpps exceeds the software peak entirely.
        let r = PlacementComparison::evaluate(&sw(), &hw(), 5_000_000, Nanos::from_secs(1));
        assert!(r.is_none());
        let e = hw().energy_for_work(5_000_000, Nanos::from_secs(1));
        assert!(e.is_some());
    }
}
