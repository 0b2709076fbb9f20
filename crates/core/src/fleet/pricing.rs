//! The scheduler's pricing rules: every value, floor, debit, ranking key
//! and fairness hand-over plan the engine decides with. The reference
//! oracle scores with the same functions, so the two can only differ in
//! *how they search*, never in what a placement is worth.

use inc_hw::{DeviceFabric, DeviceId};

#[cfg(doc)]
use super::{AppRecord, Objective};
use super::{ClaimPolicy, FleetApp, FleetControllerConfig};

/// One feasible fairness hand-over: where a claimant could be placed,
/// whom that would clip, and what the move forfeits.
#[derive(Clone, Debug)]
pub struct ClaimPlan {
    /// The device the claimant would land on.
    pub device: DeviceId,
    /// Incumbents that must be clipped to software to make room, in clip
    /// order (most over-weighted dominant share first). Empty when the
    /// device already has room.
    pub clips: Vec<usize>,
    /// Summed benefit the clipped incumbents currently deliver on this
    /// device, in objective units (watts under [`Objective::Joules`]):
    /// what the fleet forfeits until they re-place.
    pub clipped_benefit_w: f64,
    /// Amortised switchover debit of the hand-over, in objective units:
    /// one migration charge per clipped incumbent plus one for the
    /// claimant.
    pub migration_w: f64,
    /// The claimant's own knapsack score on this device (the
    /// [`ClaimPolicy::BestScore`] ranking key).
    pub score: f64,
}

impl ClaimPlan {
    /// The hand-over's total price, watts: what [`ClaimPolicy::MinCost`]
    /// minimises.
    pub fn total_cost_w(&self) -> f64 {
        self.clipped_benefit_w + self.migration_w
    }
}

/// Estimated power saved by offloading `app` at `rate_pps` (§8
/// dynamic terms), before any locality penalty. Watts, regardless of
/// the configured objective.
pub(crate) fn raw_benefit_w(app: &FleetApp, rate_pps: f64) -> f64 {
    let (sw, hw) = app.analysis.energy_per_second(rate_pps);
    sw - hw
}

/// The objective-priced raw benefit of `app` at `rate_pps`: the §8
/// watts pushed through [`Objective::value_of_w`]. Identical to
/// [`raw_benefit_w`] under [`Objective::Joules`].
pub(crate) fn raw_value(config: &FleetControllerConfig, app: &FleetApp, rate_pps: f64) -> f64 {
    config.objective.value_of_w(raw_benefit_w(app, rate_pps))
}

/// The objective value of placing a seat whose objective-priced raw
/// benefit is `raw_value` on `at`: the raw value behind the
/// topology's locality haircut, minus the objective-priced detour
/// cost. The one formula remote seats are scored with — callers that
/// cache the raw value (the engine's held rates) and callers that
/// recompute it go through here, so the two never differ by a float.
pub(crate) fn effective_value_of(
    config: &FleetControllerConfig,
    fabric: &DeviceFabric,
    home: DeviceId,
    at: DeviceId,
    raw_value: f64,
    rate_pps: f64,
) -> f64 {
    raw_value * fabric.benefit_factor(home, at)
        - config.objective.detour_value(fabric, home, at, rate_pps)
}

/// The objective value of placing `app` on `device`
/// ([`effective_value_of`] with the raw value computed in place).
/// Under [`Objective::Joules`] this is the historical
/// `effective_benefit_w` in watts, bit for bit.
pub(crate) fn effective_benefit_w(
    config: &FleetControllerConfig,
    fabric: &DeviceFabric,
    app: &FleetApp,
    device: DeviceId,
    rate_pps: f64,
) -> f64 {
    effective_value_of(
        config,
        fabric,
        app.home,
        device,
        raw_value(config, app, rate_pps),
        rate_pps,
    )
}

/// The objective-priced offload floor: what a candidate's effective
/// value must clear ([`FleetControllerConfig::min_benefit_w`] under
/// [`Objective::Joules`]).
pub(crate) fn floor_value(config: &FleetControllerConfig) -> f64 {
    config.objective.value_of_w(config.min_benefit_w)
}

/// The objective-priced switchover debit of one move: the migration
/// cost spread over [`FleetControllerConfig::expected_tenure_samples`]
/// sampling intervals (at least one), in watts, pushed through the
/// objective (a free migration costs nothing under any objective).
pub(crate) fn migration_value(config: &FleetControllerConfig) -> f64 {
    if config.migration_cost_j <= 0.0 {
        return 0.0;
    }
    let tenure_samples = f64::from(config.expected_tenure_samples.max(1));
    let w = config.migration_cost_j / (tenure_samples * config.interval.as_secs_f64());
    config.objective.value_of_w(w)
}

/// Up-front admission verdicts: whether each app's demand fits no device
/// of `fabric` even when empty.
pub(crate) fn unfit_everywhere(fabric: &DeviceFabric, apps: &[FleetApp]) -> Vec<bool> {
    apps.iter()
        .map(|app| {
            fabric
                .device_ids()
                .all(|d| !fabric.device(d).budget().fits(&app.demand))
        })
        .collect()
}

/// `benefit_w` per capacity unit of `app`'s demand on `device` (the
/// knapsack ranking key), with the cost floored so a zero-demand app
/// yields an enormous finite score rather than a 0/0 NaN.
pub(crate) fn per_capacity(
    fabric: &DeviceFabric,
    app: &FleetApp,
    device: DeviceId,
    benefit_w: f64,
) -> f64 {
    benefit_w / capacity_cost(fabric, app, device)
}

/// The denominator of [`per_capacity`]: `app`'s cost units on `device`,
/// floored at the smallest positive float. A caller scoring several
/// values against one device reads it once and divides each.
pub(crate) fn capacity_cost(fabric: &DeviceFabric, app: &FleetApp, device: DeviceId) -> f64 {
    fabric
        .device(device)
        .cost_units(&app.demand)
        .max(f64::MIN_POSITIVE)
}

/// Summed weights of the tenants contending for the fabric under the
/// given residency view, with `include` always counted (see
/// [`AppRecord::entitlement`]).
pub(crate) fn contending_weight(
    apps: &[FleetApp],
    starved: &[u32],
    include: usize,
    resident: impl Fn(usize) -> bool,
) -> f64 {
    (0..apps.len())
        .filter(|&j| j == include || resident(j) || starved[j] > 0)
        .map(|j| apps[j].weight)
        .sum()
}

/// Plans a fairness hand-over for `app` on every feasible device of
/// the assignment described by `fabric`/`resident_on` (see
/// [`AppRecord::claims`]). `protected` marks incumbents a claim may not
/// clip.
#[allow(clippy::too_many_arguments)] // free function shared by engine and oracle
pub(crate) fn plan_handovers(
    config: &FleetControllerConfig,
    apps: &[FleetApp],
    starved: &[u32],
    fabric: &DeviceFabric,
    resident_on: impl Fn(usize) -> Option<DeviceId>,
    protected: impl Fn(usize) -> bool,
    app: usize,
    rates: &[f64],
) -> Vec<ClaimPlan> {
    let n = apps.len();
    let total_w = contending_weight(apps, starved, app, |j| resident_on(j).is_some());
    let floor = floor_value(config);
    let mut plans = Vec::new();
    for d in fabric.device_ids() {
        if !fabric.is_online(d) {
            continue;
        }
        if effective_benefit_w(config, fabric, &apps[app], d, rates[app]) < floor {
            continue;
        }
        // The share a seat counts for against its entitlement.
        let seat_share = |j: usize| fabric.device(d).dominant_share(j as u64);
        // Simulate the clip sequence on a scratch ledger: release the
        // most over-weighted over-entitled incumbents until the
        // claimant fits (or the clippable set runs out).
        let mut ledger = fabric.device(d).clone();
        let mut clips: Vec<usize> = Vec::new();
        if ledger.admit(app as u64, apps[app].demand).is_err() {
            let mut over: Vec<usize> = (0..n)
                .filter(|&j| {
                    resident_on(j) == Some(d)
                        && !protected(j)
                        && seat_share(j) > apps[j].weight / total_w
                })
                .collect();
            over.sort_by(|&a, &b| {
                let sa = seat_share(a) / apps[a].weight;
                let sb = seat_share(b) / apps[b].weight;
                sb.total_cmp(&sa).then(a.cmp(&b))
            });
            let mut fits = false;
            for j in over {
                ledger.release(j as u64);
                clips.push(j);
                if ledger.admit(app as u64, apps[app].demand).is_ok() {
                    fits = true;
                    break;
                }
            }
            if !fits {
                continue;
            }
        }
        let clipped_benefit_w = clips
            .iter()
            .map(|&j| effective_benefit_w(config, fabric, &apps[j], d, rates[j]))
            .sum();
        // Every mover pays the same debit: the clips and the claimant.
        let migration_w = migration_value(config) * (clips.len() + 1) as f64;
        plans.push(ClaimPlan {
            device: d,
            migration_w,
            clips,
            clipped_benefit_w,
            score: per_capacity(
                fabric,
                &apps[app],
                d,
                effective_benefit_w(config, fabric, &apps[app], d, rates[app]),
            ),
        });
    }
    plans
}

/// Orders hand-over plans by the given policy; the first entry is
/// the one a claim executes.
pub(crate) fn order_plans(plans: &mut [ClaimPlan], policy: ClaimPolicy) {
    match policy {
        ClaimPolicy::BestScore => {
            plans.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.device.cmp(&b.device)))
        }
        ClaimPolicy::MinCost => plans.sort_by(|a, b| {
            a.total_cost_w()
                .total_cmp(&b.total_cost_w())
                .then(b.score.total_cmp(&a.score))
                .then(a.device.cmp(&b.device))
        }),
    }
}

/// Queued samples after which a tenant of `weight` files a fairness
/// claim: the starvation window scaled down by the weight, floored
/// by the sustain window.
pub(crate) fn starvation_threshold(config: &FleetControllerConfig, weight: f64) -> u32 {
    let window = config.starvation_window;
    if window == u32::MAX {
        return u32::MAX;
    }
    let scaled = (f64::from(window) / weight).ceil();
    let scaled = if scaled >= f64::from(u32::MAX) {
        u32::MAX
    } else {
        scaled as u32
    };
    scaled.max(config.sustain_samples).max(1)
}
