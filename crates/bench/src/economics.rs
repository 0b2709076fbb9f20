//! The price-aware placement rig: the same contended
//! [`PodFabricRig`] day scheduled under different
//! [`Objective`]s.
//!
//! The controllers behind the `economics` row of
//! [`SCENARIOS`](crate::scenarios::SCENARIOS), which `inc-bench scenario
//! economics` prints and `tests/economics.rs` checks: the five-tenant
//! contended plateau run three times —
//!
//! * **joules** — the default energy objective (the historical
//!   behaviour, bit for bit);
//! * **uniform dollar** — `Dollar { per_joule: 1.0, per_gb_moved: 0.0 }`,
//!   which must *degenerate* to the joule schedule exactly (same shift
//!   log, same placements, same energy — a pure unit relabel);
//! * **skewed dollar** — a tariff that charges for detour *bytes* as
//!   well as joules, which makes the analytics tenant's spill onto the
//!   near small ToR uneconomic: its detour-priced value falls under the
//!   admission floor, so it stays in host software and the placement
//!   *set* changes even though no energy constant moved.
//!
//! That pair of facts — uniform prices reproduce the energy optimum
//! bit-for-bit, skewed prices pick a different placement set — is what
//! distinguishes a genuinely pluggable objective from a rescaled one,
//! and it is exactly what `tests/economics.rs` asserts.

use inc_ondemand::{ClaimPolicy, FleetController, FleetControllerConfig, Objective};
use inc_sim::Nanos;

use crate::rigs::PodFabricRig;

/// The day length every objective replays.
pub const HORIZON: Nanos = Nanos::from_secs(10);
/// Sampling interval of the control loop.
pub const INTERVAL: Nanos = Nanos::from_millis(100);
/// The skewed tariff: one dollar per joule plus a data-movement charge
/// per detour gigabyte steep enough that the analytics tenant's
/// intra-pod spill (≈ 0.27 GB/s of request+response bytes through the
/// aggregation switch) no longer clears the admission floor.
pub const SKEW_PER_GB: f64 = 15.0;

/// One dollar per joule, bytes free: a pure unit relabel of joules.
pub const UNIFORM_DOLLAR: Objective = Objective::Dollar {
    per_joule: 1.0,
    per_gb_moved: 0.0,
};
/// One dollar per joule plus [`SKEW_PER_GB`] per detour gigabyte.
pub const SKEWED_DOLLAR: Objective = Objective::Dollar {
    per_joule: 1.0,
    per_gb_moved: SKEW_PER_GB,
};

/// The price-aware placement rig (all state lives in
/// [`PodFabricRig`]; this type namespaces the objective sweep).
pub struct EconomicsRig;

impl EconomicsRig {
    /// A fleet controller over the [`PodFabricRig`] fabric pricing with
    /// `objective` (min-cost hand-overs, the rig's standard economics
    /// otherwise).
    pub fn controller(objective: Objective) -> FleetController {
        let config = FleetControllerConfig {
            claim_policy: ClaimPolicy::MinCost,
            objective,
            ..PodFabricRig::config(INTERVAL)
        };
        FleetController::new(config, PodFabricRig::fabric(), PodFabricRig::fleet_apps())
    }
}
