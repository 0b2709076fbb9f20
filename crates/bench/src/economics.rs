//! The price-aware placement rig: the same contended
//! [`PodFabricRig`] day scheduled under different
//! [`Objective`]s.
//!
//! The experiment behind `inc-bench scenario economics` and
//! `tests/economics.rs`: run the five-tenant contended plateau three
//! times —
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

use inc_hw::Placement;
use inc_ondemand::{ClaimPolicy, FleetController, FleetControllerConfig, FleetShift, Objective};
use inc_sim::Nanos;

use crate::rigs::PodFabricRig;

/// The day length every objective replays.
pub const HORIZON: Nanos = Nanos::from_secs(10);
/// Sampling interval of the control loop.
pub const INTERVAL: Nanos = Nanos::from_millis(100);
/// Probe instant for the steady contended placements: deep inside the
/// plateau (which runs from 0.3 s to 7 s), after every spill and
/// fairness claim has settled.
pub const PROBE: Nanos = Nanos::from_secs(5);

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

/// One objective's replay of the contended day.
#[derive(Clone, Debug)]
pub struct EconomicsRun {
    /// The objective the controller priced with.
    pub objective: Objective,
    /// Placements at [`PROBE`], indexed like
    /// [`PodFabricRig::fleet_apps`].
    pub placements: Vec<Placement>,
    /// The full-horizon shift log.
    pub shifts: Vec<FleetShift>,
    /// Metered fleet energy over the full horizon, joules (metered
    /// energy is objective-independent: prices steer decisions, meters
    /// stay physical).
    pub energy_j: f64,
}

/// The three-run comparison.
#[derive(Clone, Debug)]
pub struct EconomicsReport {
    /// The default energy objective.
    pub joules: EconomicsRun,
    /// `Dollar { per_joule: 1.0, per_gb_moved: 0.0 }`.
    pub uniform: EconomicsRun,
    /// `Dollar { per_joule: 1.0, per_gb_moved: SKEW_PER_GB }`.
    pub skewed: EconomicsRun,
}

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

    /// Replays the contended day under `objective`: the shift log and
    /// energy cover the full horizon, the placements are read mid-plateau
    /// off the same run (the row recorded at [`PROBE`] carries the
    /// placement the controller held after that sample).
    pub fn run(objective: Objective) -> EconomicsRun {
        let rig = PodFabricRig::new(PodFabricRig::contended_profiles(HORIZON));
        let mut controller = Self::controller(objective);
        let timeline = rig.run(&mut controller, HORIZON);
        let at_probe = |t: &inc_ondemand::Timeline| {
            let row = t.rows().iter().find(|r| r.t == PROBE);
            row.expect("PROBE is a sampling instant").placement
        };
        EconomicsRun {
            objective,
            placements: timeline.per_app.iter().map(at_probe).collect(),
            shifts: controller.shifts().to_vec(),
            energy_j: timeline.energy_j,
        }
    }

    /// Runs all three objectives.
    pub fn report() -> EconomicsReport {
        EconomicsReport {
            joules: Self::run(Objective::Joules),
            uniform: Self::run(UNIFORM_DOLLAR),
            skewed: Self::run(SKEWED_DOLLAR),
        }
    }
}

/// Bitwise equality of two shift logs: every field, including the
/// priced `benefit_w`, compared by `to_bits` — the degeneration
/// contract (`x`, `1.0 × x` and `x − 0.0` must be the *same float*,
/// not merely close).
pub fn shift_logs_identical(a: &[FleetShift], b: &[FleetShift]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.at == y.at
                && x.app == y.app
                && x.to == y.to
                && x.rate_pps.to_bits() == y.rate_pps.to_bits()
                && x.benefit_w.to_bits() == y.benefit_w.to_bits()
                && x.reason == y.reason
        })
}

impl EconomicsReport {
    /// Does the skewed tariff pick a different placement *set* than the
    /// energy objective? (The headline claim: prices change decisions,
    /// not just units.)
    pub fn placement_sets_differ(&self) -> bool {
        self.joules.placements != self.skewed.placements
    }

    /// Does the uniform tariff reproduce the energy schedule exactly —
    /// same probed placements *and* a bit-identical shift log?
    pub fn uniform_matches_joules(&self) -> bool {
        self.joules.placements == self.uniform.placements
            && shift_logs_identical(&self.joules.shifts, &self.uniform.shifts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_dollar_degenerates_to_joules_bit_for_bit() {
        let report = EconomicsRig::report();
        assert!(report.uniform_matches_joules());
        assert_eq!(
            report.uniform.energy_j.to_bits(),
            report.joules.energy_j.to_bits()
        );
    }

    #[test]
    fn skewed_tariff_changes_the_placement_set() {
        let report = EconomicsRig::report();
        assert!(report.placement_sets_differ());
        // The analytics tenant's near-spill is what the byte tariff
        // prices out: offloaded under joules, in software under the
        // skewed dollar, while the home-resident anchors stay put.
        assert!(matches!(
            report.joules.placements[PodFabricRig::ANA_APP],
            Placement::Device(_)
        ));
        assert_eq!(
            report.skewed.placements[PodFabricRig::ANA_APP],
            Placement::Software
        );
        assert_eq!(
            report.joules.placements[PodFabricRig::KVS_APP],
            report.skewed.placements[PodFabricRig::KVS_APP]
        );
    }
}
