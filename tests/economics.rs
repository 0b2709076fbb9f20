//! End-to-end economics: the pluggable pricing objective and the
//! learned tenure estimator, exercised through the public facade.
//!
//! The `EconomicsRig` contracts (CI floors via `economics.json`):
//!
//! * a **uniform** dollar tariff reproduces the joule schedule
//!   bit-for-bit — the objective layer is a unit relabel until the
//!   prices actually skew;
//! * a **skewed** tariff (charging for detour bytes as well as joules)
//!   picks a *different placement set* on the same trace — prices
//!   change decisions, not just units.
//!
//! Plus the tenure-estimator edge cases the learned migration price
//! hangs off: no history, a single shift, EWMA saturation under
//! flapping, and replay determinism.

use inc::ondemand::{
    FleetController, FleetControllerConfig, FleetSample, HostSample, TenureEstimator, TenurePolicy,
};
use inc::sim::Nanos;
use inc_bench::economics::{shift_logs_identical, EconomicsRig};
use inc_bench::rigs::PodFabricRig;

const INTERVAL: Nanos = Nanos::from_secs(1);

#[test]
fn economics_report_headline_claims_hold_end_to_end() {
    let report = EconomicsRig::report();
    assert!(
        report.uniform_matches_joules(),
        "a $1/J, $0/GB tariff must reproduce the joule schedule bit-for-bit"
    );
    assert!(
        report.placement_sets_differ(),
        "the skewed byte tariff must change the placement set"
    );
    // Both schedules offload something: the skew changes *which* set, it
    // does not switch offloading off.
    for run in [&report.joules, &report.skewed] {
        assert!(run.placements.iter().any(|p| p.is_offloaded()));
    }
    // Skewing the tariff forfeits some metered savings: the byte charge
    // vetoes an energy-profitable spill, so the skewed run burns at
    // least as much energy as the joule optimum.
    assert!(report.skewed.energy_j >= report.joules.energy_j);
}

// --- Tenure-estimator edge cases (satellite of the learned tenure). ---

#[test]
fn no_history_uses_the_config_default() {
    let est = TenureEstimator::new();
    assert_eq!(est.observed_samples(), None);
    assert_eq!(est.expected_samples(20), 20.0);
    assert_eq!(est.expected_samples(7), 7.0);
    // A zero fallback still yields a chargeable tenure of one interval.
    assert_eq!(est.expected_samples(0), 1.0);
}

#[test]
fn a_single_shift_only_anchors_the_clock() {
    let mut est = TenureEstimator::new();
    est.observe_shift(Nanos::from_secs(5), INTERVAL, 0.3);
    // One shift gives no interval yet: still the config fallback.
    assert_eq!(est.observed_samples(), None);
    assert_eq!(est.expected_samples(20), 20.0);
    // The second shift closes the first interval: 8 samples.
    est.observe_shift(Nanos::from_secs(13), INTERVAL, 0.3);
    assert_eq!(est.observed_samples(), Some(8.0));
    assert_eq!(est.expected_samples(20), 8.0);
}

#[test]
fn ewma_saturates_under_flapping() {
    let mut est = TenureEstimator::new();
    // An app flapping every interval: the estimate converges onto the
    // 1-sample floor and stays there — the learned migration price
    // maxes out instead of diverging.
    for t in 1..=50u64 {
        est.observe_shift(Nanos::from_secs(t), INTERVAL, 0.3);
    }
    let e = est.observed_samples().expect("history after 50 shifts");
    assert!((e - 1.0).abs() < 1e-9, "flapping estimate {e} != 1.0");
    assert_eq!(est.expected_samples(20), e.max(1.0));

    // Alternating 2s/4s gaps: the EWMA stays inside the observed band,
    // never saturating toward either extreme.
    let mut alt = TenureEstimator::new();
    let mut now = Nanos::from_secs(1);
    for i in 0..40 {
        now += Nanos::from_secs(if i % 2 == 0 { 2 } else { 4 });
        alt.observe_shift(now, INTERVAL, 0.3);
    }
    let e = alt.observed_samples().expect("history");
    assert!((2.0..=4.0).contains(&e), "EWMA {e} left the [2, 4] band");
}

#[test]
fn learned_tenure_replays_deterministically() {
    let run = || {
        let config = FleetControllerConfig {
            tenure: TenurePolicy::Learned { alpha: 0.3 },
            ..PodFabricRig::config(INTERVAL)
        };
        let mut ctl =
            FleetController::new(config, PodFabricRig::fabric(), PodFabricRig::fleet_apps());
        // A flapping trace: everyone's load square-waves around the
        // offload floor, so shifts (and tenure observations) keep
        // coming.
        for step in 1..=40u64 {
            let rate = if (step / 5) % 2 == 0 {
                120_000.0
            } else {
                1_000.0
            };
            let samples: Vec<FleetSample> = (0..5)
                .map(|_| FleetSample {
                    host: HostSample {
                        rapl_w: 50.0,
                        app_cpu_util: 0.5,
                        hw_app_rate: rate,
                    },
                    offered_pps: rate,
                })
                .collect();
            ctl.sample(Nanos::from_secs(step), &samples);
        }
        ctl
    };
    let a = run();
    let b = run();
    assert!(!a.shifts().is_empty(), "the flapping trace must shift");
    assert!(shift_logs_identical(a.shifts(), b.shifts()));
    for app in 0..5 {
        assert_eq!(a.tenure_estimator(app), b.tenure_estimator(app));
        assert_eq!(
            a.expected_tenure_samples(app).to_bits(),
            b.expected_tenure_samples(app).to_bits()
        );
        // Apps that shifted at least twice have learned an estimate and
        // price their own migrations off it.
        if a.tenure_estimator(app).observed_samples().is_some() {
            assert!(a.app_migration_w(app) > 0.0);
        }
    }
}

#[test]
fn learned_tenure_prices_flappers_out_of_marginal_moves() {
    // Two controllers on the same flapping trace: under `Fixed` the
    // migration debit is amortised over the configured 20-sample
    // tenure; under `Learned` a flapper's observed ~2.5-sample tenure
    // makes every move ~8× more expensive. The learned estimate must
    // end up well under the fixed constant for a flapping app.
    let build = |tenure| {
        FleetController::new(
            FleetControllerConfig {
                tenure,
                ..PodFabricRig::config(INTERVAL)
            },
            PodFabricRig::fabric(),
            PodFabricRig::fleet_apps(),
        )
    };
    let mut fixed = build(TenurePolicy::Fixed);
    let mut learned = build(TenurePolicy::Learned { alpha: 0.3 });
    for step in 1..=40u64 {
        let rate = if (step / 5) % 2 == 0 {
            120_000.0
        } else {
            1_000.0
        };
        let samples: Vec<FleetSample> = (0..5)
            .map(|_| FleetSample {
                host: HostSample {
                    rapl_w: 50.0,
                    app_cpu_util: 0.5,
                    hw_app_rate: rate,
                },
                offered_pps: rate,
            })
            .collect();
        fixed.sample(Nanos::from_secs(step), &samples);
        learned.sample(Nanos::from_secs(step), &samples);
    }
    // The analytics tenant rides the square wave (the KVS anchor loses
    // the contended score fight on this trace and never places).
    let ana = PodFabricRig::ANA_APP;
    assert_eq!(fixed.expected_tenure_samples(ana), 20.0);
    let observed = learned.expected_tenure_samples(ana);
    assert!(
        observed < 20.0,
        "a flapper's learned tenure ({observed}) must undercut the fixed constant"
    );
    assert!(
        learned.app_migration_w(ana) > fixed.app_migration_w(ana),
        "shorter expected tenure must make migration dearer"
    );
    // The estimators advance under Fixed too (observation is free);
    // only the *pricing* consults the policy.
    assert!(fixed.tenure_estimator(ana).observed_samples().is_some());
}

#[test]
fn skewed_prices_agree_across_the_engine_and_the_flat_oracle() {
    use inc::ondemand::fleet::oracle::FlatOracle;
    use inc::ondemand::{Objective, PriceRule};
    // A skewed tariff on a single-pod fabric: the arbitration pipeline
    // must still degenerate to the flat sorted scan bit-for-bit — the
    // objective plugs into the shared pricing module, not into one
    // search strategy.
    let objective = Objective::Dollar {
        per_joule: 2.0,
        per_gb_moved: 10.0,
    };
    assert_eq!(objective.value_of_w(3.0), 6.0);
    let config = FleetControllerConfig {
        objective,
        ..FleetControllerConfig::standard(INTERVAL)
    };
    let fabric = || {
        inc::hw::DeviceFabric::homogeneous(
            2,
            inc::hw::PipelineBudget::tofino_like(),
            inc::hw::Topology::rack_pairs(
                1,
                inc::hw::TierCost::standard_intra_pod(),
                inc::hw::TierCost::standard_inter_pod(),
            ),
        )
    };
    let apps = || {
        PodFabricRig::fleet_apps()
            .into_iter()
            .take(2)
            .map(|mut app| {
                app.home = inc::hw::DeviceId(0);
                app
            })
            .collect::<Vec<_>>()
    };
    let mut flat = FlatOracle::new(config, fabric(), apps());
    let mut hier = FleetController::new(config, fabric(), apps());
    for step in 1..=30u64 {
        let rate = if step < 20 { 110_000.0 } else { 1_000.0 };
        let samples: Vec<FleetSample> = (0..2)
            .map(|_| FleetSample {
                host: HostSample {
                    rapl_w: 50.0,
                    app_cpu_util: 0.5,
                    hw_app_rate: rate,
                },
                offered_pps: rate,
            })
            .collect();
        let df = flat.sample(Nanos::from_secs(step), &samples);
        let dh = hier.sample(Nanos::from_secs(step), &samples);
        assert_eq!(df, dh, "engine and oracle diverged at step {step}");
    }
    assert!(!flat.shifts().is_empty());
    assert!(shift_logs_identical(flat.shifts(), hier.shifts()));
    assert_eq!(flat.placements(), hier.placements());
}

#[test]
fn tier_weighted_entitlements_discount_remote_seats() {
    use inc::ondemand::EntitlementPolicy;
    // Same contended day, uniform vs tier-weighted entitlements: the
    // runs must both complete, and the tier-weighted controller's
    // fairness accounting discounts a cross-pod seat by the benefit
    // haircut of its distance — observable through `entitlement` math
    // staying finite and the run staying green. (The policy's decision
    // effects are pinned by the fleet unit tests; this is the e2e
    // plumbing check.)
    let config = FleetControllerConfig {
        entitlement: EntitlementPolicy::TierWeighted,
        ..PodFabricRig::config(Nanos::from_millis(100))
    };
    let mut ctl = FleetController::new(config, PodFabricRig::fabric(), PodFabricRig::fleet_apps());
    let rig = PodFabricRig::new(PodFabricRig::contended_profiles(Nanos::from_secs(10)));
    let timeline = rig.run(&mut ctl, Nanos::from_secs(10));
    assert!(timeline.energy_j > 0.0);
    for app in 0..5 {
        assert!(ctl.entitlement(app).is_finite());
    }
}
