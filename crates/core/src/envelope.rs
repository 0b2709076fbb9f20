//! The on-demand power envelope (Figure 5).
//!
//! With on-demand shifting, "at low utilization power consumption is
//! derived from the properties of the software-based system. As
//! utilization increases, processing is shifted to the network, and the
//! power consumption changes little with utilization." This module builds
//! that composite curve from a software deployment, a hardware deployment,
//! and the parked-card cost, and computes the §9 headline saving (up to
//! ~50 % versus software-only at high load).

use crate::apps::Deployment;

/// One point of the on-demand curve.
#[derive(Clone, Copy, Debug)]
pub struct EnvelopePoint {
    /// Offered rate, packets/second.
    pub rate_pps: f64,
    /// Total system power with on-demand placement, watts.
    pub on_demand_w: f64,
    /// Total power if pinned to software, watts.
    pub software_w: f64,
}

/// Builder of Figure 5 curves.
#[derive(Clone, Debug)]
pub struct OnDemandEnvelope {
    /// The software deployment (its NIC replaced by the parked card).
    pub software: Deployment,
    /// The hardware deployment (card active inside the host).
    pub hardware: Deployment,
    /// Power of the parked card that replaces the NIC in software
    /// placement (§9.2: ≈ reference NIC + 5 W for LaKe).
    pub parked_card_w: f64,
    /// NIC power included in the software deployment's curve, to be
    /// replaced by the parked card.
    pub software_nic_w: f64,
}

impl OnDemandEnvelope {
    /// Power in software placement: software system with the parked card
    /// standing in for its NIC.
    pub fn software_placement_w(&self, rate: f64) -> f64 {
        self.software.power_w(rate) - self.software_nic_w + self.parked_card_w
    }

    /// Power in hardware placement: the in-host hardware deployment (the
    /// host idles; misses are negligible after warm-up, as Figure 5
    /// assumes: "this graph is indicative of a case where all queries are
    /// (after warm up) hit").
    pub fn hardware_placement_w(&self, rate: f64) -> f64 {
        self.hardware.power_w(rate)
    }

    /// The rate above which hardware placement is the cheaper choice.
    pub fn shift_rate(&self) -> f64 {
        inc_power::crossover_fn(
            |r| self.software_placement_w(r),
            |r| self.hardware_placement_w(r),
            0.0,
            self.software.peak_pps,
        )
        .unwrap_or(self.software.peak_pps)
    }

    /// Samples the envelope at `points` rates up to `max_rate`.
    pub fn sample(&self, max_rate: f64, points: usize) -> Vec<EnvelopePoint> {
        let shift = self.shift_rate();
        (0..=points)
            .map(|i| {
                let rate = max_rate * i as f64 / points as f64;
                let on_demand_w = if rate >= shift {
                    self.hardware_placement_w(rate)
                } else {
                    self.software_placement_w(rate)
                };
                EnvelopePoint {
                    rate_pps: rate,
                    on_demand_w,
                    // The dashed Figure 5 baseline is the software system
                    // with its own NIC (no card at all).
                    software_w: self.software.power_w(rate),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::kvs_models;
    use inc_power::calib;

    fn kvs_envelope() -> OnDemandEnvelope {
        let models = kvs_models();
        OnDemandEnvelope {
            software: models[0].clone(),
            hardware: models[1].clone(),
            parked_card_w: calib::NETFPGA_REFERENCE_NIC_W + calib::LAKE_PARKED_GAP_W,
            software_nic_w: calib::MELLANOX_NIC_W,
        }
    }

    #[test]
    fn low_rate_uses_software_high_rate_uses_hardware() {
        let env = kvs_envelope();
        let pts = env.sample(1_200_000.0, 60);
        let on_hw = |p: &EnvelopePoint| p.on_demand_w == env.hardware_placement_w(p.rate_pps);
        assert!(!on_hw(pts.first().unwrap()));
        assert!(on_hw(pts.last().unwrap()));
        // The placement flips exactly once along the sweep.
        let flips = pts
            .windows(2)
            .filter(|w| on_hw(&w[0]) != on_hw(&w[1]))
            .count();
        assert_eq!(flips, 1);
    }

    #[test]
    fn on_demand_tracks_the_cheaper_placement() {
        let env = kvs_envelope();
        for p in env.sample(1_200_000.0, 120) {
            let best = env
                .software_placement_w(p.rate_pps)
                .min(env.hardware_placement_w(p.rate_pps));
            assert!(
                (p.on_demand_w - best).abs() < 1e-6,
                "at {} pps: od {} vs best {best}",
                p.rate_pps,
                p.on_demand_w
            );
        }
    }

    #[test]
    fn saves_power_at_idle_versus_always_on_hardware() {
        let env = kvs_envelope();
        let hw = env.hardware_placement_w(0.0);
        let saving = (hw - env.software_placement_w(0.0)) / hw;
        // Parking the card at idle saves a meaningful fraction of the
        // always-on hardware level.
        assert!(saving > 0.05, "saving {saving}");
    }

    #[test]
    fn high_load_saves_versus_software_only() {
        // §1/§9: on demand "saves up to 50% of the power compared with
        // software-based solutions" — at high rate, hardware placement
        // beats the software baseline by a wide margin.
        let env = kvs_envelope();
        let pts = env.sample(1_000_000.0, 10);
        let last = pts.last().unwrap();
        let saving = 1.0 - last.on_demand_w / last.software_w;
        assert!(saving > 0.40, "saving at peak {saving}");
    }

    #[test]
    fn shift_rate_is_below_software_peak() {
        let env = kvs_envelope();
        let shift = env.shift_rate();
        assert!(shift > 0.0 && shift < env.software.peak_pps, "{shift}");
    }
}
