//! Figure 6: transitioning KVS from software to the network and back,
//! host-controlled.
//!
//! The Figure 6 scenario: a mutilate-style client issues the Facebook ETC
//! mix at a steady rate; ChainerMN runs as a co-tenant on the host,
//! raising RAPL power; after three seconds of sustained high load the
//! host controller shifts the KVS to the LaKe card; when ChainerMN stops,
//! it shifts back. The paper's observations, all checked here:
//!
//! * the transition has **no effect on throughput**, not even momentarily;
//! * hit latency improves **ten-fold** within tens of microseconds;
//! * power follows the co-tenant, not the shift.

use inc_bench::rigs::KvsRig;
use inc_bench::{note, print_csv, Series};
use inc_hw::Placement;
use inc_kvs::{expected_value, KvsClient, LakeDevice, MemcachedServer};
use inc_ondemand::{
    run_host_controlled, HostController, HostControllerConfig, HostSample, IntervalObservation,
    RowLog,
};
use inc_sim::{Nanos, Node};
use inc_workloads::EtcWorkload;

const RATE_PPS: f64 = 16_000.0;
const KEYS: u64 = 4_000;

fn main() {
    note("figure", "6 — KVS software->network->software transition");

    // Build the rig with the ETC workload; preload every ETC rank so GET
    // verification can run end to end.
    let gen = Box::new(EtcWorkload::new(KEYS));
    let mut rig = KvsRig::new(11, RATE_PPS, 0, 0, gen, false);
    {
        let server = rig.sim.node_mut::<MemcachedServer>(rig.server);
        server.preload((1..=KEYS).map(|rank| {
            let k = EtcWorkload::key_for_rank(rank);
            let v = expected_value(&k, 64);
            (k, v)
        }));
    }

    let cfg = HostControllerConfig {
        interval: Nanos::from_millis(250),
        power_up_w: 70.0,
        cpu_up_util: 0.03,
        rate_down_pps: 30_000.0,
        power_down_w: 60.0,
        sustain_samples: 12, // 3 s of 250 ms samples (Figure 6).
    };
    let mut controller = HostController::new(cfg);

    // ChainerMN schedule: starts at 5 s, stops at 20 s.
    let chainer_on = Nanos::from_secs(5);
    let chainer_off = Nanos::from_secs(20);
    let horizon = Nanos::from_secs(30);

    let (client, device, server) = (rig.client, rig.device, rig.server);
    let metered = [device, server];
    let timeline = run_host_controlled(
        &mut rig.sim,
        &mut controller,
        horizon,
        RowLog::Full,
        |sim| {
            let now = sim.now();
            // Drive the ChainerMN schedule.
            let bg = if now >= chainer_on && now < chainer_off {
                3.0
            } else {
                0.0
            };
            sim.node_mut::<MemcachedServer>(server)
                .set_background_util(bg);
            let power_w = sim.instant_power(&metered);
            let rapl_w = sim.node_ref::<MemcachedServer>(server).power_w(now);
            let app_cpu_util = sim.node_ref::<MemcachedServer>(server).app_utilization();
            let hw_app_rate = sim.node_mut::<LakeDevice>(device).measured_rate(now);
            let (completed, lat) = sim.node_mut::<KvsClient>(client).take_window();
            IntervalObservation {
                sample: HostSample {
                    rapl_w,
                    app_cpu_util,
                    hw_app_rate,
                },
                completed,
                latency_p50_ns: lat.quantile(0.5),
                latency_p99_ns: lat.quantile(0.99),
                power_w,
            }
        },
        |sim, t, placement| {
            sim.node_mut::<LakeDevice>(device)
                .apply_placement(t, placement);
        },
    );

    // Headline checks.
    for (t, p) in &timeline.shifts {
        note("shift", format!("{} -> {:?}", t, p));
    }
    let up = timeline
        .shifts
        .iter()
        .find(|(_, p)| *p == Placement::HARDWARE)
        .map(|(t, _)| *t);
    let down = timeline
        .shifts
        .iter()
        .find(|(_, p)| *p == Placement::Software)
        .map(|(t, _)| *t);
    if let (Some(up), Some(down)) = (up, down) {
        let thr_before = timeline
            .mean_throughput_pps(up - Nanos::from_secs(3), up)
            .unwrap_or(0.0);
        let thr_after = timeline
            .mean_throughput_pps(up, up + Nanos::from_secs(3))
            .unwrap_or(0.0);
        note(
            "throughput across shift (paper: no effect, not even momentarily)",
            format!("{:.0} -> {:.0} pps", thr_before, thr_after),
        );
        // An empty measurement window is a harness bug worth a loud
        // failure here, not a silent zero in the figure data.
        let lat_before = timeline
            .median_latency_ns(up - Nanos::from_secs(3), up)
            .expect("requests completed before the shift");
        let lat_after = timeline
            .median_latency_ns(up + Nanos::from_secs(2), down)
            .expect("requests completed after the shift");
        note(
            "client latency across shift (includes 1 us of link RTT)",
            format!(
                "{:.1} us -> {:.1} us (x{:.1})",
                lat_before as f64 / 1000.0,
                lat_after as f64 / 1000.0,
                lat_before as f64 / lat_after.max(1) as f64
            ),
        );
        // The paper's ten-fold claim is for the query-hit service latency:
        // software path ~13.5 us vs the on-card hit.
        let hw_hit = rig
            .sim
            .node_ref::<LakeDevice>(device)
            .hw_latency
            .quantile(0.5);
        note(
            "query-hit service latency (paper: improves ten-fold)",
            format!(
                "{:.1} us -> {:.2} us (x{:.1})",
                lat_before as f64 / 1000.0,
                hw_hit as f64 / 1000.0,
                lat_before as f64 / hw_hit.max(1) as f64
            ),
        );
        note(
            "power phases (sw, sw+chainer, hw+chainer, sw again)",
            format!(
                "{:.0} / {:.0} / {:.0} / {:.0} W",
                timeline
                    .mean_power_w(Nanos::from_secs(1), Nanos::from_secs(5))
                    .unwrap_or(f64::NAN),
                timeline
                    .mean_power_w(Nanos::from_secs(6), up)
                    .unwrap_or(f64::NAN),
                timeline
                    .mean_power_w(up + Nanos::from_secs(1), chainer_off)
                    .unwrap_or(f64::NAN),
                timeline
                    .mean_power_w(down + Nanos::from_secs(1), horizon)
                    .unwrap_or(f64::NAN),
            ),
        );
    } else {
        note("warning", "expected two shifts; inspect the timeline");
    }
    let stats = rig.sim.node_ref::<KvsClient>(client).stats();
    note(
        "verification",
        format!(
            "{} replies, {} corrupt, {} not-found",
            stats.received, stats.corrupt, stats.not_found
        ),
    );

    // CSV timeline.
    let series = vec![
        Series {
            name: "throughput_kpps".into(),
            points: timeline
                .rows()
                .iter()
                .map(|r| (r.t.as_secs_f64(), r.throughput_pps / 1000.0))
                .collect(),
        },
        Series {
            name: "latency_us".into(),
            points: timeline
                .rows()
                .iter()
                .map(|r| (r.t.as_secs_f64(), r.latency_p50_ns as f64 / 1000.0))
                .collect(),
        },
        Series {
            name: "power_w".into(),
            points: timeline
                .rows()
                .iter()
                .map(|r| (r.t.as_secs_f64(), r.power_w))
                .collect(),
        },
    ];
    print_csv("t_seconds", &series);

    // Machine-readable summary for the CI perf-trajectory artifact.
    inc_bench::emit_metrics(
        "fig6",
        &[
            ("energy_j", timeline.energy_j()),
            ("shift_up_s", up.map_or(f64::NAN, |t| t.as_secs_f64())),
            ("shift_down_s", down.map_or(f64::NAN, |t| t.as_secs_f64())),
            (
                "mean_throughput_pps",
                timeline
                    .mean_throughput_pps(Nanos::ZERO, horizon)
                    .unwrap_or(f64::NAN),
            ),
            (
                "median_latency_ns",
                timeline
                    .median_latency_ns(Nanos::ZERO, horizon)
                    .map_or(f64::NAN, |l| l as f64),
            ),
            ("replies", stats.received as f64),
        ],
    );
}
