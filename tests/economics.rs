//! End-to-end economics: the pluggable pricing objective, exercised
//! through the public facade and the `economics` row of
//! `inc_bench::scenarios::SCENARIOS` (what `inc-bench scenario economics`
//! prints):
//!
//! * a **uniform** dollar tariff reproduces the joule schedule
//!   bit-for-bit — the objective layer is a unit relabel until the
//!   prices actually skew;
//! * a **skewed** tariff (charging for detour bytes as well as joules)
//!   picks a *different placement set* on the same trace — prices
//!   change decisions, not just units.
//!
//! Plus the migration debit's amortisation horizon and the engine /
//! flat-oracle agreement under a skewed tariff.

use inc::hw::Placement;
use inc::ondemand::{
    FleetController, FleetControllerConfig, FleetSample, FleetShift, FleetTimeline, HostSample,
};
use inc::sim::Nanos;
use inc_bench::rigs::PodFabricRig;
use inc_bench::scenarios::scenario;

const INTERVAL: Nanos = Nanos::from_secs(1);

/// Probe instant for the steady contended placements: deep inside the
/// plateau (which runs from 0.3 s to 7 s), after every spill and
/// fairness claim has settled.
const PROBE: Nanos = Nanos::from_secs(5);

/// Bitwise equality of two shift logs: every field, including the
/// priced `benefit_w`, compared by `to_bits` — the degeneration
/// contract (`x`, `1.0 × x` and `x − 0.0` must be the *same float*,
/// not merely close).
fn shift_logs_identical(a: &[FleetShift], b: &[FleetShift]) -> bool {
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

/// One objective's run of the contended day: its controller, its
/// metered timeline and the placements at [`PROBE`] (the row recorded
/// there carries the placement the controller held after that sample).
fn economics(label: &str) -> (FleetController, FleetTimeline, Vec<Placement>) {
    let (ctl, timeline) = scenario("economics").expect("a SCENARIOS row").run(label);
    let at_probe = |t: &inc::ondemand::Timeline| {
        let row = t.rows().iter().find(|r| r.t == PROBE);
        row.expect("PROBE is a sampling instant").placement
    };
    let placements = timeline.per_app.iter().map(at_probe).collect();
    (ctl, timeline, placements)
}

#[test]
fn economics_report_headline_claims_hold_end_to_end() {
    let (joules, joules_day, joules_at) = economics("joules");
    let (uniform, uniform_day, uniform_at) = economics("uniform-dollar");
    let (_, skewed_day, skewed_at) = economics("skewed-dollar");
    // A $1/J, $0/GB tariff reproduces the joule schedule bit-for-bit.
    assert_eq!(joules_at, uniform_at);
    assert!(shift_logs_identical(joules.shifts(), uniform.shifts()));
    assert_eq!(
        uniform_day.energy_j.to_bits(),
        joules_day.energy_j.to_bits()
    );
    // The skewed byte tariff changes the placement set: the analytics
    // tenant's near-spill is what it prices out — offloaded under
    // joules, in software under the skewed dollar — while the
    // home-resident KVS anchor stays put.
    assert_ne!(joules_at, skewed_at);
    let ana = PodFabricRig::ANA_APP;
    assert!(matches!(joules_at[ana], Placement::Device(_)));
    assert_eq!(skewed_at[ana], Placement::Software);
    let kvs = PodFabricRig::KVS_APP;
    assert_eq!(joules_at[kvs], skewed_at[kvs]);
    // Both schedules offload something: the skew changes *which* set, it
    // does not switch offloading off.
    for placements in [&joules_at, &skewed_at] {
        assert!(placements.iter().any(|p| p.is_offloaded()));
    }
    // Skewing the tariff forfeits some metered savings: the byte charge
    // vetoes an energy-profitable spill, so the skewed run burns at
    // least as much energy as the joule optimum.
    assert!(skewed_day.energy_j >= joules_day.energy_j);
}

/// Every move is debited the same switchover cost, amortised over the
/// configured tenure; a zero tenure still charges one interval. Read off
/// the price of moving the KVS tenant from its home ToR to the far pod.
#[test]
fn no_history_uses_the_config_default() {
    let debit_w = |expected_tenure_samples| {
        let config = FleetControllerConfig {
            expected_tenure_samples,
            ..FleetControllerConfig::standard(INTERVAL)
        };
        let kvs = PodFabricRig::KVS_APP;
        FleetController::new(config, PodFabricRig::fabric(), PodFabricRig::fleet_apps())
            .with_initial_placements(&PodFabricRig::natural_static())
            .price(kvs, PodFabricRig::TOR_B0, 100_000.0)
            .debit
    };
    // The standard 5 J switchover.
    assert_eq!(debit_w(20), 5.0 / 20.0);
    assert_eq!(debit_w(7), 5.0 / 7.0);
    assert_eq!(debit_w(0), 5.0);
}

#[test]
fn skewed_prices_agree_across_the_engine_and_the_flat_oracle() {
    use inc::ondemand::fleet::oracle::FlatOracle;
    use inc::ondemand::Objective;
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
