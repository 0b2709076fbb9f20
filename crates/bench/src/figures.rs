//! The paper's figures 3(a)–7, one function each (`inc-bench fig <id>`).
//!
//! Each prints `# key: value` comment lines with the headline
//! observations and the paper-reported values they reproduce, then the
//! figure data as CSV. The analytic sweeps come from
//! `inc_ondemand::apps`; spot points are cross-checked against full
//! event simulations built by [`crate::rigs`].

use crate::rigs::{DnsRig, KvsRig, PaxosRig};
use crate::{named, note, print_csv, rel_diff, sweep_power, Series};
use inc_dns::DnsClient;
use inc_hw::{modules, Placement, SumeCard};
use inc_kvs::{expected_value, KvsClient, LakeDevice, MemcachedServer};
use inc_ondemand::apps::{crossover, dns_models, kvs_memcached_x520, kvs_models, paxos_models};
use inc_ondemand::{
    run_host_controlled, HostController, HostControllerConfig, IntervalObservation,
    OnDemandEnvelope, RowLog, TimelineRow,
};
use inc_paxos::{PaxosClient, PaxosNode, RoleEngine};
use inc_power::{calib, ModuleState};
use inc_sim::Nanos;
use inc_workloads::EtcWorkload;

/// Figure 3(a): KVS power versus throughput.
///
/// Series: memcached (software), LaKe inside the server, LaKe standalone,
/// plus the §4.2 Intel X520 variant. Reports the crossing points and
/// validates two spot rates against the full event simulation.
pub fn fig3a() {
    let mut models = kvs_models();
    models.push(kvs_memcached_x520());
    let series = sweep_power(&models, 2_000_000.0, 40);

    note("figure", "3a — KVS power vs throughput");
    let x = crossover(&models[0], &models[1], 1e6).expect("curves cross");
    note(
        "crossover memcached/LaKe (paper ~80 Kpps)",
        format!("{:.0} pps", x),
    );
    let x520 = crossover(&models[3], &models[1], 1e6).expect("curves cross");
    note(
        "crossover with Intel X520 (paper: over 300 Kpps)",
        format!("{:.0} pps", x520),
    );
    note(
        "LaKe at line rate (paper: same power up to 13 Mpps)",
        format!(
            "{:.1} W at 13 Mpps vs {:.1} W idle",
            models[1].power_w(13e6),
            models[1].idle_w
        ),
    );

    // Spot-check the analytic curves against the event simulation.
    for (rate, label) in [(20_000.0, "20 Kpps"), (200_000.0, "200 Kpps")] {
        // Hardware placement mirrors the LaKe curve; measure device+host.
        let mut rig = KvsRig::new(1, rate, 512, 64, KvsRig::gets(512), true);
        rig.sim.run_until(Nanos::from_secs(1));
        let sim_w = rig.sim.instant_power(&[rig.device, rig.server]);
        let model_w = models[1].power_w(rate);
        note(
            &format!("sim check LaKe @ {label}"),
            format!(
                "sim {:.1} W vs model {:.1} W ({:.1}% diff)",
                sim_w,
                model_w,
                rel_diff(sim_w, model_w) * 100.0
            ),
        );
        let served = rig.sim.node_ref::<LakeDevice>(rig.device).stats().served_hw;
        let stats = rig.sim.node_ref::<KvsClient>(rig.client).stats();
        note(
            &format!("sim check correctness @ {label}"),
            format!(
                "{} hw-served, {} corrupt, {} lost",
                served,
                stats.corrupt,
                stats.sent - stats.received
            ),
        );
    }

    print_csv("rate_pps", &series);
}

/// Figure 3(b): Paxos power versus throughput — eight series (libpaxos,
/// DPDK, P4xos-in-host, P4xos standalone, for leader and acceptor roles).
pub fn fig3b() {
    let models = paxos_models();
    let series = sweep_power(&models, 1_000_000.0, 40);

    note("figure", "3b — Paxos power vs throughput");
    let lib_acc = named(&models, "libpaxos Acceptor");
    let p4_acc = named(&models, "P4xos Acceptor");
    let x = crossover(lib_acc, p4_acc, 1e6).expect("curves cross");
    note(
        "crossover libpaxos/P4xos (paper: 150 Kmsg/s)",
        format!("{:.0} msg/s", x),
    );
    let dpdk = named(&models, "DPDK Acceptor");
    note(
        "DPDK flatness (paper: high even under low load, almost constant)",
        format!(
            "idle {:.1} W, peak {:.1} W",
            dpdk.idle_w,
            dpdk.power_w(dpdk.peak_pps)
        ),
    );
    let p4_leader = named(&models, "P4xos Leader");
    note(
        "P4xos base power is ~10 W below LaKe (paper §4.3)",
        format!("{:.1} W in-host idle", p4_leader.idle_w),
    );
    note(
        "peaks (paper: libpaxos acceptor 178 K, FPGA 10 M msg/s)",
        format!(
            "libpaxos {:.0}, dpdk {:.0}, fpga {:.0}",
            lib_acc.peak_pps, dpdk.peak_pps, p4_acc.peak_pps
        ),
    );

    print_csv("rate_mps", &series);
}

/// Figure 3(c): DNS power versus throughput — NSD (software), Emu DNS
/// (hardware in host), and the standalone card.
pub fn fig3c() {
    let models = dns_models();
    let series = sweep_power(&models, 1_000_000.0, 40);

    note("figure", "3c — DNS power vs throughput");
    let nsd = &models[0];
    let emu = &models[1];
    let x = crossover(nsd, emu, 1e6).expect("curves cross");
    note(
        "crossover NSD/Emu (paper: <200 Kpps)",
        format!("{:.0} qps", x),
    );
    note(
        "Emu span (paper: 47.5 W to <48 W)",
        format!("{:.2} W .. {:.2} W", emu.idle_w, emu.power_w(emu.peak_pps)),
    );
    note(
        "peak power ratio NSD/Emu (paper: about 2x)",
        format!(
            "{:.2}",
            nsd.power_w(nsd.peak_pps) / emu.power_w(emu.peak_pps)
        ),
    );
    note(
        "peaks (paper: Emu ~1 M, NSD 956 K)",
        format!("emu {:.0} rps, nsd {:.0} rps", emu.peak_pps, nsd.peak_pps),
    );

    // Event-simulation spot check at 100 Kqps in hardware placement.
    let mut rig = DnsRig::new(3, 100_000.0, 1_000, true);
    rig.sim.run_until(Nanos::from_secs(1));
    let sim_w = rig.sim.instant_power(&[rig.device, rig.server]);
    let model_w = emu.power_w(100_000.0);
    note(
        "sim check Emu @ 100 Kqps",
        format!(
            "sim {:.1} W vs model {:.1} W ({:.1}% diff)",
            sim_w,
            model_w,
            rel_diff(sim_w, model_w) * 100.0
        ),
    );
    let stats = rig.sim.node_ref::<DnsClient>(rig.client).stats();
    note(
        "sim check correctness",
        format!("{} answered, {} wrong", stats.received, stats.wrong),
    );

    print_csv("rate_qps", &series);
}

/// Figure 4: the effect of LaKe's design trade-offs on power consumption.
///
/// Nine standalone configurations, regenerated from the module-composed
/// power model: reference NIC, 1 PE & no memories, no memories, max load &
/// no memories, memories reset & clock gating, memories reset, server
/// without cards, clock gating, and full LaKe.
pub fn fig4() {
    fn lake_card(pes: u32) -> SumeCard {
        SumeCard::reference_nic()
            .with_logic(
                calib::LAKE_LOGIC_W - calib::LAKE_PE_W * pes as f64,
                calib::LAKE_DYNAMIC_MAX_W,
            )
            .with_pes(pes)
            .with_external_memories()
    }

    note("figure", "4 — LaKe design trade-offs (standalone watts)");

    let mut bars: Vec<(&str, f64)> = Vec::new();

    bars.push(("Ref NIC", SumeCard::reference_nic().power_w(0.0)));

    // 1 PE & no memories: power-gate 4 of 5 PEs, remove memories.
    let mut c = lake_card(5);
    c.power_mut()
        .set_state_prefix(modules::MEM_PREFIX, ModuleState::PowerGated);
    for i in 1..5 {
        c.power_mut()
            .set_state(
                &format!("{}{i}", modules::PE_PREFIX),
                ModuleState::PowerGated,
            )
            .unwrap();
    }
    bars.push(("1 PE & no mem", c.power_w(0.0)));

    // No memories.
    let mut c = lake_card(5);
    c.power_mut()
        .set_state_prefix(modules::MEM_PREFIX, ModuleState::PowerGated);
    bars.push(("No mem", c.power_w(0.0)));

    // Max load & no memories.
    let mut c = lake_card(5);
    c.power_mut()
        .set_state_prefix(modules::MEM_PREFIX, ModuleState::PowerGated);
    bars.push(("Max load & no mem", c.power_w(1.0)));

    // Memories reset + clock gating.
    let mut c = lake_card(5);
    c.power_mut()
        .set_state_prefix(modules::MEM_PREFIX, ModuleState::Reset);
    c.power_mut()
        .set_state(modules::LOGIC, ModuleState::ClockGated)
        .unwrap();
    bars.push(("Reset mem & clk gating", c.power_w(0.0)));

    // Memories reset only.
    let mut c = lake_card(5);
    c.power_mut()
        .set_state_prefix(modules::MEM_PREFIX, ModuleState::Reset);
    bars.push(("Reset mem", c.power_w(0.0)));

    // Idle server without any cards (the red comparison bar).
    bars.push(("Server no cards", calib::I7_PLATFORM_IDLE_W));

    // Clock gating only.
    let mut c = lake_card(5);
    c.power_mut()
        .set_state(modules::LOGIC, ModuleState::ClockGated)
        .unwrap();
    bars.push(("Clk gating", c.power_w(0.0)));

    // Full LaKe.
    bars.push(("LaKe", lake_card(5).power_w(0.0)));

    // Headline §5.1 relations.
    let full = bars.last().unwrap().1;
    let clk = bars[7].1;
    note(
        "clock gating saving (paper: <1 W)",
        format!("{:.2} W", full - clk),
    );
    let reset = bars[5].1;
    note(
        "memory reset saving (paper: 40% of >=10 W)",
        format!("{:.2} W", full - reset),
    );
    note(
        "per-PE power (paper: ~0.25 W)",
        format!("{:.2} W", calib::LAKE_PE_W),
    );
    note(
        "standalone LaKe vs idle server (paper: roughly equivalent)",
        format!("{:.1} W vs {:.1} W", full, calib::I7_PLATFORM_IDLE_W),
    );

    let series: Vec<Series> = vec![Series {
        name: "power_w".to_string(),
        points: bars
            .iter()
            .enumerate()
            .map(|(i, &(_, w))| (i as f64, w))
            .collect(),
    }];
    println!(
        "# bar order: {}",
        bars.iter().map(|b| b.0).collect::<Vec<_>>().join(" | ")
    );
    print_csv("bar_index", &series);
}

/// Figure 5: power consumption with in-network computing on demand
/// (solid) versus software-only (dashed), for KVS, Paxos and DNS.
pub fn fig5() {
    note("figure", "5 — on-demand power vs throughput");

    let kvs = kvs_models();
    let paxos = paxos_models();
    let dns = dns_models();
    let parked_lake = calib::NETFPGA_REFERENCE_NIC_W + calib::LAKE_PARKED_GAP_W;
    // Cards without external memories park to clock-gated logic only.
    let parked_p4xos = calib::NETFPGA_REFERENCE_NIC_W + 1.0;
    let parked_emu = calib::NETFPGA_REFERENCE_NIC_W + 0.9;

    let envelopes = [
        (
            "KVS",
            OnDemandEnvelope {
                software: kvs[0].clone(),
                hardware: kvs[1].clone(),
                parked_card_w: parked_lake,
                software_nic_w: calib::MELLANOX_NIC_W,
            },
        ),
        (
            "Paxos",
            OnDemandEnvelope {
                software: named(&paxos, "libpaxos Acceptor").clone(),
                hardware: named(&paxos, "P4xos Acceptor").clone(),
                parked_card_w: parked_p4xos,
                software_nic_w: calib::INTEL_X520_NIC_W,
            },
        ),
        (
            "DNS",
            OnDemandEnvelope {
                software: dns[0].clone(),
                hardware: dns[1].clone(),
                parked_card_w: parked_emu,
                software_nic_w: calib::INTEL_X520_NIC_W,
            },
        ),
    ];

    let max_rate = 1_200_000.0;
    let points = 48;
    let mut series: Vec<Series> = Vec::new();
    for (name, env) in &envelopes {
        let pts = env.sample(max_rate, points);
        note(
            &format!("{name} shift rate"),
            format!("{:.0} pps", env.shift_rate()),
        );
        // Compare at the highest rate the software system can actually
        // serve (beyond it the dashed line is a saturated system, not a
        // served workload).
        let peak = env.software.peak_pps.min(max_rate);
        let od_at_peak = env
            .hardware_placement_w(peak)
            .min(env.software_placement_w(peak));
        note(
            &format!(
                "{name} saving at software peak ({:.0} pps) vs software-only (paper: up to ~50%)",
                peak
            ),
            format!(
                "{:.0}%",
                (1.0 - od_at_peak / env.software.power_w(peak)) * 100.0
            ),
        );
        series.push(Series {
            name: format!("{name} (On demand)"),
            points: pts.iter().map(|p| (p.rate_pps, p.on_demand_w)).collect(),
        });
        series.push(Series {
            name: format!("{name} (SW)"),
            points: pts.iter().map(|p| (p.rate_pps, p.software_w)).collect(),
        });
    }

    print_csv("rate_pps", &series);
}

/// Figure 6: transitioning KVS from software to the network and back,
/// host-controlled.
///
/// The Figure 6 scenario: a mutilate-style client issues the Facebook ETC
/// mix at a steady rate; ChainerMN runs as a co-tenant on the host,
/// raising RAPL power; after three seconds of sustained high load the
/// host controller shifts the KVS to the LaKe card; when ChainerMN stops,
/// it shifts back. The paper's observations, all checked here:
///
/// * the transition has **no effect on throughput**, not even momentarily;
/// * hit latency improves **ten-fold** within tens of microseconds;
/// * power follows the co-tenant, not the shift.
pub fn fig6() {
    const RATE_PPS: f64 = 16_000.0;
    const KEYS: u64 = 4_000;

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
    let (interval, slice) = (cfg.interval, &rig.slice);
    let timeline = run_host_controlled(
        &mut rig.sim,
        &mut controller,
        horizon,
        RowLog::Full,
        |sim| {
            // Drive the ChainerMN schedule.
            let now = sim.now();
            let bg = if now >= chainer_on && now < chainer_off {
                3.0
            } else {
                0.0
            };
            sim.node_mut::<MemcachedServer>(server)
                .set_background_util(bg);
            let obs = slice.observe(sim, interval, RATE_PPS);
            IntervalObservation {
                sample: obs.sample.host,
                completed: obs.completed,
                latency_p50_ns: obs.latency_p50_ns,
                power_w: obs.power_w,
            }
        },
        |sim, t, placement| slice.apply(sim, t, placement),
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
    let column = |name: &str, y: fn(&TimelineRow) -> f64| Series {
        name: name.into(),
        points: timeline
            .rows()
            .iter()
            .map(|r| (r.t.as_secs_f64(), y(r)))
            .collect(),
    };
    let series = [
        column("throughput_kpps", |r| r.throughput_pps / 1000.0),
        column("latency_us", |r| r.latency_p50_ns as f64 / 1000.0),
        column("power_w", |r| r.power_w),
    ];
    print_csv("t_seconds", &series);
}

/// Figure 7: transitioning the Paxos leader from software to the network
/// and back.
///
/// Closed-loop clients drive consensus through a libpaxos leader; at t=2 s
/// the coordinator re-steers the virtual leader address to the P4xos
/// device and activates it with a higher round; at t=4 s it shifts back.
/// The paper's observations: throughput increases and latency is halved
/// in hardware; each shift shows a ~100 ms zero-throughput window — the
/// client retry timeout, "chosen arbitrarily".
pub fn fig7() {
    const WINDOW: Nanos = Nanos::from_millis(100);
    const TIMEOUT: Nanos = Nanos::from_millis(100);

    note("figure", "7 — Paxos leader software->network->software");

    let mut rig = PaxosRig::new(17, 4, TIMEOUT);
    let horizon = Nanos::from_secs(6);
    let shift_up = Nanos::from_secs(2);
    let shift_down = Nanos::from_secs(4);

    let mut rows: Vec<(f64, f64, f64)> = Vec::new(); // (t, kpps, us)
    let mut t = Nanos::ZERO;
    while t < horizon {
        t += WINDOW;
        rig.sim.run_until(t);
        if t == shift_up {
            rig.shift_leader(Placement::HARDWARE);
            note("shift", format!("{} -> Hardware", t));
        }
        if t == shift_down {
            rig.shift_leader(Placement::Software);
            note("shift", format!("{} -> Software", t));
        }
        let obs = rig.slice.observe(&mut rig.sim, WINDOW, 0.0);
        rows.push((
            t.as_secs_f64(),
            obs.completed as f64 / WINDOW.as_secs_f64() / 1000.0,
            obs.latency_p50_ns as f64 / 1000.0,
        ));
    }

    // Headline checks.
    let phase = |from: Nanos, to: Nanos| -> (f64, f64) {
        let rows: Vec<_> = rows
            .iter()
            .filter(|(tt, _, _)| *tt > from.as_secs_f64() && *tt <= to.as_secs_f64())
            .collect();
        let thr = rows.iter().map(|(_, k, _)| k).sum::<f64>() / rows.len() as f64;
        let mut lats: Vec<f64> = rows
            .iter()
            .map(|(_, _, l)| *l)
            .filter(|l| *l > 0.0)
            .collect();
        lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (thr, lats[lats.len() / 2])
    };
    let (sw_thr, sw_lat) = phase(Nanos::from_millis(500), shift_up);
    let (hw_thr, hw_lat) = phase(shift_up + Nanos::from_millis(500), shift_down);
    note(
        "throughput sw -> hw (paper: increases)",
        format!("{sw_thr:.1} -> {hw_thr:.1} kpps (x{:.2})", hw_thr / sw_thr),
    );
    note(
        "latency sw -> hw (paper: halved)",
        format!("{sw_lat:.0} -> {hw_lat:.0} us (x{:.2})", sw_lat / hw_lat),
    );
    // The outage: windows with zero acks right after each shift.
    for (name, at) in [("up", shift_up), ("down", shift_down)] {
        let stall = rows
            .iter()
            .filter(|(tt, k, _)| {
                *tt > at.as_secs_f64() && *tt <= at.as_secs_f64() + 0.5 && *k == 0.0
            })
            .count();
        note(
            &format!("zero-throughput windows after {name}-shift (paper: ~100 ms)"),
            format!("{} x {}", stall, WINDOW),
        );
    }
    let retries: u64 = rig
        .slice
        .clients
        .iter()
        .map(|&c| rig.sim.node_ref::<PaxosClient>(c).stats().retries)
        .sum();
    note("client retries across both shifts", retries);
    // Safety: the learner delivered a gapless, in-order log.
    let learner = rig.sim.node_ref::<PaxosNode>(rig.slice.learner);
    if let RoleEngine::Learner(l) = learner.engine() {
        let in_order = l
            .delivered
            .iter()
            .enumerate()
            .all(|(i, &(inst, _))| inst == i as u64 + 1);
        note(
            "learner delivery in order with no gaps",
            format!("{} instances, in_order={}", l.delivered_count, in_order),
        );
        note(
            "duplicate command deliveries (retries ordered twice)",
            l.duplicates,
        );
    }

    let series = vec![
        Series {
            name: "throughput_kpps".into(),
            points: rows.iter().map(|&(t, k, _)| (t, k)).collect(),
        },
        Series {
            name: "latency_us".into(),
            points: rows.iter().map(|&(t, _, l)| (t, l)).collect(),
        },
    ];
    print_csv("t_seconds", &series);
}
