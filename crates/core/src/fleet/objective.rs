//! The currency placement decisions are priced in.

use inc_hw::{DeviceFabric, DeviceId};

#[cfg(doc)]
use super::FleetControllerConfig;

/// What a placement is worth: the currency the fleet scheduler's
/// knapsack, hysteresis floors, migration debits and fairness hand-over
/// prices are all denominated in. Gray's *Distributed Computing
/// Economics* argues placement is a price question, and the price is
/// not always energy — the objective makes the currency pluggable while
/// every decision formula stays the one in `pricing`. The controllers
/// read it from [`FleetControllerConfig::objective`].
///
/// [`Objective::Joules`] is the default and reproduces the historical
/// watts-denominated behaviour bit for bit. A [`Objective::Dollar`]
/// rule with `per_joule > 0` and `per_gb_moved = 0` is a uniform
/// rescaling of every compared quantity, so it makes identical
/// decisions to `Joules`; the economics only diverge when moved bytes
/// are priced ([`Objective::Dollar::per_gb_moved`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Maximise estimated energy saving: values are watts (the paper's
    /// §8 objective, the default).
    Joules,
    /// Maximise dollars: energy priced per joule, plus an egress-style
    /// price on every gigabyte a placement detour moves through the
    /// fabric (Gray: "put the computation near the data").
    Dollar {
        /// Dollars per joule of host-side energy (and of detour link
        /// energy). Must be finite and positive.
        per_joule: f64,
        /// Dollars per gigabyte of traffic a remote seat detours
        /// through the fabric. Must be finite and non-negative.
        per_gb_moved: f64,
    },
}

impl Objective {
    /// Bytes per detoured packet used to convert a seat's packet rate
    /// into moved gigabytes (the paper's §9.4 1500 B query size).
    pub const DETOUR_PACKET_BYTES: f64 = 1500.0;

    /// Panics unless every price in the rule is usable (finite;
    /// positive where a zero would make the floor degenerate).
    pub(super) fn validate(&self) {
        match *self {
            Objective::Joules => {}
            Objective::Dollar {
                per_joule,
                per_gb_moved,
            } => {
                assert!(
                    per_joule.is_finite() && per_joule > 0.0,
                    "Dollar per_joule {per_joule} must be finite and positive"
                );
                assert!(
                    per_gb_moved.is_finite() && per_gb_moved >= 0.0,
                    "Dollar per_gb_moved {per_gb_moved} must be finite and non-negative"
                );
            }
        }
    }

    /// Prices `watts` of host-side §8 saving (or debit) in objective
    /// units per second. Applied to raw benefits, the offload floor and
    /// migration debits, so scale-only rules degenerate cleanly.
    pub fn value_of_w(&self, watts: f64) -> f64 {
        match *self {
            // The identity must literally return its input — no `1.0 ×`
            // — so Joules pricing is the historical arithmetic bit for
            // bit (pinned by the equivalence proptests).
            Objective::Joules => watts,
            Objective::Dollar { per_joule, .. } => per_joule * watts,
        }
    }

    /// The objective-priced cost of the detour a seat at `at` pays for
    /// an app homed at `home` running `rate_pps` packets/second (zero at
    /// home). Subtracted from the haircut benefit to form the effective
    /// value of a placement.
    pub fn detour_value(
        &self,
        fabric: &DeviceFabric,
        home: DeviceId,
        at: DeviceId,
        rate_pps: f64,
    ) -> f64 {
        let link_w = fabric.link_energy_w(home, at, rate_pps);
        match *self {
            Objective::Joules => link_w,
            Objective::Dollar {
                per_joule,
                per_gb_moved,
            } => {
                // Request + response cross the detour once each, so a
                // remote seat moves 2 × 1500 B × rate through the fabric
                // per tier it is away from home.
                let gb_per_s = f64::from(fabric.distance(home, at))
                    * 2.0
                    * Objective::DETOUR_PACKET_BYTES
                    * 1e-9
                    * rate_pps;
                per_joule * link_w + per_gb_moved * gb_per_s
            }
        }
    }
}
