//! Server CPU power model.
//!
//! The paper's host-side measurements (§4, §7) show three regimes that a
//! linear utilisation model cannot capture:
//!
//! 1. a large *uncore activation* jump as soon as any core does work
//!    (the dual-socket Xeon jumps from 56 W idle to 91 W with one busy
//!    core, and reaches 86 W at just 10 % load of a single core);
//! 2. a small per-core increment once the package is awake
//!    (§7: "the overhead of an additional core running is small, in the
//!    order of 1W-2W");
//! 3. a roughly linear growth with total utilisation up to the peak.
//!
//! [`CpuModel`] captures this as
//! `P(u) = idle + jump·min(1, u·wake_amp) + dyn·u`
//! where `u` is total core-utilisation in core-seconds per second
//! (0 ≤ u ≤ cores).

/// Power model of a server CPU package (or pair of packages).
///
/// # Examples
///
/// ```
/// use inc_power::CpuModel;
///
/// let xeon = CpuModel::xeon_e5_2660_v4_dual();
/// assert!((xeon.power_w(0.0) - 56.0).abs() < 0.1);   // idle
/// assert!((xeon.power_w(1.0) - 91.0).abs() < 0.5);   // one busy core
/// assert!((xeon.power_w(28.0) - 134.0).abs() < 0.5); // all cores busy
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuModel {
    /// Platform idle power (OS booted, no work), watts.
    pub idle_w: f64,
    /// Power added when the package(s) leave deep idle, watts.
    pub uncore_jump_w: f64,
    /// Marginal power per core-second of work per second, watts.
    pub core_dyn_w: f64,
    /// How quickly low utilisation wakes the uncore; the package is fully
    /// awake once total utilisation reaches `1 / wake_amp` core-seconds/s.
    pub wake_amp: f64,
    /// Number of physical cores across all sockets.
    pub cores: u32,
}

impl CpuModel {
    /// Total package power at `utilization` core-seconds/s of work.
    ///
    /// `utilization` is clamped to `[0, cores]`.
    pub fn power_w(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, self.cores as f64);
        self.idle_w + self.uncore_jump_w * (u * self.wake_amp).min(1.0) + self.core_dyn_w * u
    }

    /// Dynamic power at `utilization`: total minus idle.
    pub fn dynamic_w(&self, utilization: f64) -> f64 {
        self.power_w(utilization) - self.idle_w
    }

    /// The i7-6700K 4-core desktop platform of §4.1 (platform power without
    /// any network card). Calibrated so that, with the Mellanox NIC's
    /// 9.5 W added, idle is 39 W and the memcached peak is ≈ 110 W
    /// (Figure 3a).
    pub fn i7_6700k() -> Self {
        CpuModel {
            idle_w: 29.5,
            uncore_jump_w: 15.6,
            core_dyn_w: 13.9,
            wake_amp: 4.0,
            cores: 4,
        }
    }

    /// The i7 platform under a single-core, interrupt-driven network
    /// service (libpaxos, §4.3). Single-core services exercise far less
    /// of the package than memcached's four busy cores, and §9.1 notes
    /// that "different applications have very different power profiles";
    /// this curve is calibrated so the libpaxos/P4xos crossing lands at
    /// the reported 150 Kmsg/s.
    pub fn i7_6700k_single_core_service() -> Self {
        CpuModel {
            idle_w: 29.5,
            uncore_jump_w: 8.0,
            core_dyn_w: 6.0,
            wake_amp: 4.0,
            cores: 4,
        }
    }

    /// The i7 platform running NSD (§4.4). Calibrated so the NSD/Emu
    /// crossing lands at the reported ~150 Kpps ("less than 200 Kpps are
    /// enough") while the idle server stays below 40 W.
    pub fn i7_6700k_nsd() -> Self {
        CpuModel {
            idle_w: 29.5,
            uncore_jump_w: 6.0,
            core_dyn_w: 13.0,
            wake_amp: 2.0,
            cores: 4,
        }
    }

    /// The i7 platform running memcached over the Intel X520 (§4.2). The
    /// paper found this NIC makes the *host* more power-efficient — the
    /// crossing point moves past 300 Kpps — at the cost of a lower peak;
    /// the curve reflects the different driver/interrupt economics.
    pub fn i7_6700k_x520() -> Self {
        CpuModel {
            idle_w: 29.5,
            uncore_jump_w: 10.0,
            core_dyn_w: 8.2,
            wake_amp: 4.0,
            cores: 4,
        }
    }

    /// The dual-socket Xeon E5-2660 v4 platform of §7: 56 W idle, 91 W with
    /// one busy core, 86 W at 10 % of one core, 134 W fully loaded,
    /// 1–2 W per additional core.
    pub fn xeon_e5_2660_v4_dual() -> Self {
        CpuModel {
            idle_w: 56.0,
            uncore_jump_w: 33.4,
            core_dyn_w: 1.6,
            wake_amp: 9.0,
            cores: 28,
        }
    }

    /// The single-socket Xeon E5-2637 v4 platform of §5.4: 83 W idle
    /// without a NIC.
    pub fn xeon_e5_2637_v4() -> Self {
        CpuModel {
            idle_w: 83.0,
            uncore_jump_w: 24.0,
            core_dyn_w: 11.0,
            wake_amp: 6.0,
            cores: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i7_idle_matches_paper_with_nic() {
        // §4.2: idle server with NIC is 39 W; the NIC contributes 9.5 W.
        let m = CpuModel::i7_6700k();
        assert!((m.power_w(0.0) + 9.5 - 39.0).abs() < 0.1);
    }

    #[test]
    fn i7_peak_near_110w_with_nic() {
        let m = CpuModel::i7_6700k();
        let peak = m.power_w(m.cores as f64) + 9.5;
        assert!((100.0..120.0).contains(&peak), "peak {peak}");
    }

    #[test]
    fn xeon_matches_section7() {
        let m = CpuModel::xeon_e5_2660_v4_dual();
        assert!((m.power_w(0.0) - 56.0).abs() < 0.5);
        assert!((m.power_w(1.0) - 91.0).abs() < 1.0, "{}", m.power_w(1.0));
        assert!((m.power_w(28.0) - 134.0).abs() < 1.0, "{}", m.power_w(28.0));
        // §7: 10 % of one core already reaches ~86 W.
        let low = m.power_w(0.1);
        assert!((low - 86.0).abs() < 1.5, "10% load gives {low}");
        // §7: each additional core costs only 1-2 W.
        let marginal = m.power_w(2.0) - m.power_w(1.0);
        assert!((1.0..2.0).contains(&marginal), "marginal {marginal}");
    }

    #[test]
    fn utilization_clamped() {
        let m = CpuModel::i7_6700k();
        assert_eq!(m.power_w(100.0), m.power_w(4.0));
        assert_eq!(m.power_w(-3.0), m.power_w(0.0));
    }

    #[test]
    fn dynamic_power_zero_at_idle() {
        let m = CpuModel::xeon_e5_2660_v4_dual();
        assert_eq!(m.dynamic_w(0.0), 0.0);
        assert!(m.dynamic_w(5.0) > 0.0);
    }
}
