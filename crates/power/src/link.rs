//! Calibrated per-packet link energy for placement detours (§9.4).
//!
//! The fleet scheduler prices a remote placement partly by the energy
//! its detour burns in the fabric: every packet that must reach a
//! non-home ToR crosses one or more switches it would otherwise have
//! skipped. Early rigs carried that price as stylised nanojoule
//! constants; [`LinkEnergyModel`] derives it from the same
//! [`Module`]-style static + dynamic power model the rest of the crate
//! uses, anchored to the paper's switch figures:
//!
//! * static: "less than 5 W per 100G port"
//!   ([`calib::SWITCH_W_PER_100G_PORT`]);
//! * dynamic: "less than 1 W" to forward one million ≤ 1500 B queries
//!   per second ([`calib::SWITCH_W_PER_MQPS`]).
//!
//! The calibration formula for the *marginal* (dynamic-only) cost is
//!
//! ```text
//! per-packet traversal nJ = dynamic_w × 1e9 / (2 × capacity_qps)
//! ```
//!
//! — one query is a request plus a response, i.e. two packet crossings
//! of each switch on the detour, so the per-query energy is split
//! across two packets. At the paper's figures this is exactly 500 nJ
//! per packet per switch traversal; an intra-pod detour (one
//! aggregation switch) prices at 500 nJ and an inter-pod detour
//! (aggregation + core + aggregation) at 1500 nJ, which is what
//! `TierCost::calibrated_intra_pod` / `calibrated_inter_pod` in
//! `inc-hw` install.
//!
//! The static term is deliberately *excluded* from the marginal price:
//! the switch is powered whether or not the detour crosses it, so
//! charging placements for it would double-count sunk cost.

use crate::calib;
use crate::device::Module;

/// Static + dynamic power model of one switch traversal tier, used to
/// calibrate `TierCost::link_energy_nj` instead of quoting stylised
/// constants.
///
/// # Examples
///
/// ```
/// use inc_power::LinkEnergyModel;
///
/// let link = LinkEnergyModel::arista_class();
/// // §9.4 figures: 1 W per million queries/s, two packets per query.
/// assert_eq!(link.per_packet_traversal_nj(), 500.0);
/// // Inter-pod detour: aggregation + core + aggregation.
/// assert_eq!(link.detour_nj(3), 1_500.0);
/// ```
#[derive(Clone, Debug)]
pub struct LinkEnergyModel {
    /// The switch port as a gateable module: `static_w` idle draw plus
    /// `dyn_max_w` at full forwarding load.
    port: Module,
    /// Forwarding load that saturates the port's dynamic term,
    /// queries per second.
    capacity_qps: f64,
}

impl LinkEnergyModel {
    /// A model with explicit static/dynamic port terms.
    ///
    /// # Panics
    ///
    /// Panics unless both power terms are finite and non-negative and
    /// `capacity_qps` is finite and positive.
    pub fn new(static_w: f64, dyn_max_w: f64, capacity_qps: f64) -> Self {
        assert!(
            static_w.is_finite() && static_w >= 0.0,
            "link static power {static_w} W must be finite and non-negative"
        );
        assert!(
            dyn_max_w.is_finite() && dyn_max_w >= 0.0,
            "link dynamic power {dyn_max_w} W must be finite and non-negative"
        );
        assert!(
            capacity_qps.is_finite() && capacity_qps > 0.0,
            "link capacity {capacity_qps} qps must be finite and positive"
        );
        LinkEnergyModel {
            port: Module::new(static_w, dyn_max_w),
            capacity_qps,
        }
    }

    /// The switch class the paper measures (§9.4): a sub-5 W 100G port
    /// that forwards one million 1500 B queries per second for under
    /// one additional watt.
    pub fn arista_class() -> Self {
        LinkEnergyModel::new(calib::SWITCH_W_PER_100G_PORT, calib::SWITCH_W_PER_MQPS, 1e6)
    }

    /// Marginal draw of the port at full forwarding load, watts.
    pub fn dynamic_w(&self) -> f64 {
        self.port.power_w(1.0) - self.port.power_w(0.0)
    }

    /// Marginal energy of one packet crossing one switch, nanojoules:
    /// the per-query energy split over the request and response packets.
    pub fn per_packet_traversal_nj(&self) -> f64 {
        self.dynamic_w() * 1e9 / (2.0 * self.capacity_qps)
    }

    /// Marginal per-packet price of a detour crossing `traversals`
    /// switches, nanojoules per packet per direction — the calibrated
    /// value for `TierCost::link_energy_nj`.
    pub fn detour_nj(&self, traversals: u32) -> f64 {
        f64::from(traversals) * self.per_packet_traversal_nj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arista_class_calibrates_to_the_stylised_constants_exactly() {
        let link = LinkEnergyModel::arista_class();
        // The rigs' historical hand-quoted values: 500 nJ per packet per
        // traversal, 1 aggregation switch intra-pod, 3 switches
        // inter-pod. The derivation must land on them bit-for-bit so
        // calibrating the rigs changes no pinned energy.
        assert_eq!(
            link.per_packet_traversal_nj().to_bits(),
            500.0_f64.to_bits()
        );
        assert_eq!(link.detour_nj(1).to_bits(), 500.0_f64.to_bits());
        assert_eq!(link.detour_nj(3).to_bits(), 1_500.0_f64.to_bits());
        assert_eq!(link.detour_nj(0), 0.0);
    }

    #[test]
    fn per_query_energy_matches_the_paper_figures() {
        let link = LinkEnergyModel::arista_class();
        assert_eq!(link.port.power_w(0.0), calib::SWITCH_W_PER_100G_PORT);
        assert_eq!(link.dynamic_w(), calib::SWITCH_W_PER_MQPS);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = LinkEnergyModel::new(5.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "dynamic power")]
    fn non_finite_dynamic_power_is_rejected() {
        let _ = LinkEnergyModel::new(5.0, f64::NAN, 1e6);
    }
}
