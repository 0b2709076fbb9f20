//! The §9.4 analysis: on-demand offloading to a Top-of-Rack switch ASIC.
//!
//! A ToR switch serves a whole rack, its idle power does not depend on the
//! program (§6), and its dynamic power is tiny per packet: "taking less
//! than 5W per 100G port, a million queries will draw less than 1W". The
//! consequence: `Pd_net(R) = Pd_sw(R)` already at `R ≈ 0` — offloading to
//! an installed programmable switch pays from the first packet. The
//! partial-offload case (the switch caching some requests, the host
//! serving misses) depends on the hit ratio.

use inc_power::{calib, CpuModel};

/// A rack with a programmable ToR switch.
#[derive(Clone, Copy, Debug)]
pub struct TorRack {
    /// Per-server CPU model.
    pub server: CpuModel,
    /// Number of 100G-equivalent switch ports.
    pub switch_ports_100g: u32,
    /// Server peak request rate (requests/second).
    pub server_peak_pps: f64,
}

impl TorRack {
    /// A typical rack: 40 servers under a 32×100G ToR.
    pub fn typical() -> Self {
        TorRack {
            server: CpuModel::xeon_e5_2660_v4_dual(),
            switch_ports_100g: 32,
            server_peak_pps: 1_000_000.0,
        }
    }

    /// Switch *dynamic* power attributable to forwarding `rate_pps`
    /// application packets (§9.4: < 1 W per Mqps of ≤1500 B packets).
    pub fn switch_dynamic_w(&self, rate_pps: f64) -> f64 {
        calib::SWITCH_W_PER_MQPS * rate_pps / 1e6
    }

    /// Server dynamic power when serving `rate_pps` on one node.
    pub fn server_dynamic_w(&self, rate_pps: f64) -> f64 {
        let util = (rate_pps / self.server_peak_pps) * self.server.cores as f64;
        self.server.dynamic_w(util)
    }

    /// The §9.4 conclusion: the offload tipping point in packets/second.
    ///
    /// "PNd(R) will equal PSd(R) when R is almost zero" — the returned
    /// rate is tiny compared to any realistic workload.
    pub fn tipping_point_pps(&self) -> f64 {
        inc_power::crossover_fn(
            |r| self.server_dynamic_w(r),
            |r| self.switch_dynamic_w(r),
            0.0,
            self.server_peak_pps,
        )
        .unwrap_or(0.0)
    }

    /// Total switch power envelope (idle ≈ max for these devices, §6).
    pub fn switch_power_w(&self) -> f64 {
        self.switch_ports_100g as f64 * calib::SWITCH_W_PER_100G_PORT
    }

    /// Partial offload (§9.4's final case): the switch answers `hit_ratio`
    /// of requests, the host the rest. Returns (combined dynamic watts,
    /// host-only dynamic watts) at `rate_pps` so callers can judge the
    /// benefit as a function of hit ratio.
    pub fn partial_offload_dynamic_w(&self, rate_pps: f64, hit_ratio: f64) -> (f64, f64) {
        let hit_ratio = hit_ratio.clamp(0.0, 1.0);
        let hw = self.switch_dynamic_w(rate_pps);
        let host = self.server_dynamic_w(rate_pps * (1.0 - hit_ratio));
        let host_only = self.server_dynamic_w(rate_pps);
        (hw + host, host_only)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_mqps_draws_less_than_a_watt() {
        let rack = TorRack::typical();
        assert!(rack.switch_dynamic_w(1e6) <= 1.0);
    }

    #[test]
    fn tipping_point_is_almost_zero() {
        let rack = TorRack::typical();
        let r = rack.tipping_point_pps();
        // "R is almost zero": far below even 1 % of a server's peak.
        assert!(r < rack.server_peak_pps * 0.01, "tipping point {r} pps");
    }

    #[test]
    fn switch_beats_server_at_every_real_rate() {
        let rack = TorRack::typical();
        for rate in [10_000.0, 100_000.0, 1_000_000.0] {
            assert!(
                rack.switch_dynamic_w(rate) < rack.server_dynamic_w(rate),
                "at {rate} pps"
            );
        }
    }

    #[test]
    fn partial_offload_benefit_grows_with_hit_ratio() {
        let rack = TorRack::typical();
        let rate = 500_000.0;
        let (half, host_only) = rack.partial_offload_dynamic_w(rate, 0.5);
        let (most, _) = rack.partial_offload_dynamic_w(rate, 0.95);
        assert!(half < host_only);
        assert!(most < half);
    }

    #[test]
    fn switch_envelope_matches_port_budget() {
        let rack = TorRack::typical();
        // 32 ports × 5 W = 160 W envelope.
        assert!((rack.switch_power_w() - 160.0).abs() < 1e-9);
    }
}
