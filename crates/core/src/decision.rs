//! The §8 placement decision analysis: "When to Use In-Network Computing".
//!
//! The section poses two questions on top of the energy model
//! `E = Pd(f)·Td(W,f) + Ps·Ts + Pi·Ti`:
//!
//! 1. *Should standard network devices be replaced by programmable ones?*
//!    The dominant terms are the idle powers `Pi` — if the programmable
//!    device idles like the fixed-function one (§6 says it does for
//!    switch ASICs), adoption is free.
//! 2. *Given programmable devices, when should a workload be offloaded?*
//!    `Pi` and `Ps` cancel (same device either way), leaving the dynamic
//!    terms: shift at the rate `R` where `Pd_net(R) = Pd_sw(R)`.

use inc_power::EnergyParams;

/// Inputs to the two §8 questions.
#[derive(Clone, Copy, Debug)]
pub struct PlacementAnalysis {
    /// The software system (server running the workload).
    pub software: EnergyParams,
    /// The in-network system (device running the workload).
    pub network: EnergyParams,
}

impl PlacementAnalysis {
    /// Question 2: the tipping-point rate where offloading starts paying
    /// (`Pd_net(R) = Pd_sw(R)` with the shared idle terms cancelled).
    ///
    /// Returns `None` if software stays cheaper across its whole operating
    /// range, and `Some(0.0)` if the network wins from the first packet
    /// (the §9.4 switch case).
    pub fn tipping_point_pps(&self) -> Option<f64> {
        // Dynamic power relative to each system's own idle: the device is
        // present in both placements, so only the deltas matter.
        let sw_dyn = move |r: f64| self.software.sustained_power_w(r) - self.software.idle_w;
        let hw_dyn = move |r: f64| self.network.sustained_power_w(r) - self.network.idle_w;
        // Both dynamics are zero at rate 0; start the scan just above so
        // the degenerate equality does not read as an immediate tipping
        // point.
        let lo = self.software.peak_rate_pps * 1e-6;
        inc_power::crossover_fn(sw_dyn, hw_dyn, lo, self.software.peak_rate_pps)
    }

    /// Whole-window energy comparison at a fixed rate (duty-cycled):
    /// returns (software joules, network joules) per second of operation.
    pub fn energy_per_second(&self, rate_pps: f64) -> (f64, f64) {
        (
            self.software.sustained_power_w(rate_pps),
            self.network.sustained_power_w(rate_pps),
        )
    }
}

/// Convenience: the §8 analysis for the paper's KVS deployment, derived
/// from the calibrated models.
pub fn kvs_analysis() -> PlacementAnalysis {
    use inc_power::calib;
    PlacementAnalysis {
        software: EnergyParams {
            idle_w: calib::I7_PLATFORM_IDLE_W + calib::MELLANOX_NIC_W,
            sleep_w: 5.0,
            active_w: 108.0,
            peak_rate_pps: calib::MEMCACHED_PEAK_PPS,
        },
        network: EnergyParams {
            idle_w: calib::I7_PLATFORM_IDLE_W + calib::LAKE_STANDALONE_IDLE_W,
            sleep_w: 5.0,
            active_w: calib::I7_PLATFORM_IDLE_W
                + calib::LAKE_STANDALONE_IDLE_W
                + calib::LAKE_DYNAMIC_MAX_W,
            peak_rate_pps: calib::LAKE_LINE_RATE_PPS,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kvs_tipping_point_exists() {
        let a = kvs_analysis();
        let r = a.tipping_point_pps().expect("curves must cross");
        // With idle terms cancelled, the hardware's tiny dynamic power
        // wins early — well before the Figure 3(a) total-power crossover.
        assert!(r < 100_000.0, "tipping point {r}");
    }

    #[test]
    fn energy_per_second_orders_with_rate() {
        let a = kvs_analysis();
        let (sw_lo, hw_lo) = a.energy_per_second(1_000.0);
        let (sw_hi, hw_hi) = a.energy_per_second(900_000.0);
        // Software energy grows steeply with rate; hardware barely moves.
        assert!(sw_hi - sw_lo > 30.0);
        assert!(hw_hi - hw_lo < 5.0);
    }

    #[test]
    fn no_tipping_point_when_software_always_cheaper() {
        let a = PlacementAnalysis {
            software: EnergyParams {
                idle_w: 30.0,
                sleep_w: 0.0,
                active_w: 31.0, // Nearly free software...
                peak_rate_pps: 1e6,
            },
            network: EnergyParams {
                idle_w: 30.0,
                sleep_w: 0.0,
                active_w: 60.0, // ...expensive accelerator.
                peak_rate_pps: 1e7,
            },
        };
        assert_eq!(a.tipping_point_pps(), None);
    }

    #[test]
    fn immediate_tipping_point_for_switch_like_device() {
        // §9.4: on a switch the dynamic cost of the workload is almost
        // zero, so the tipping point is at (nearly) zero rate.
        let a = PlacementAnalysis {
            software: EnergyParams {
                idle_w: 56.0,
                sleep_w: 0.0,
                active_w: 134.0,
                peak_rate_pps: 1e6,
            },
            network: EnergyParams {
                idle_w: 205.0,
                sleep_w: 0.0,
                active_w: 205.1,
                peak_rate_pps: 2.5e9,
            },
        };
        let r = a.tipping_point_pps().expect("crosses immediately");
        assert!(r < 2_000.0, "tipping point {r}");
    }
}
