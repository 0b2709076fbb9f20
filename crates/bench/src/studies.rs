//! The nine analyses and ablations that are not a numbered figure, one
//! function each (`inc-bench study <name>`); same output conventions as
//! [`crate::figures`].

use crate::rigs::slices::Chain;
use crate::rigs::KvsRig;
use crate::{named, note, print_csv, print_table, Series};
use inc_hw::{
    DeviceId, MemorySpec, NetControllerConfig, NetRateController, Placement, TofinoModel,
    TofinoProgram,
};
use inc_kvs::{
    KvsClient, LakeCacheConfig, LakeDevice, MemcachedServer, ParkPolicy, UniformGen, MEMCACHED_PORT,
};
use inc_net::Endpoint;
use inc_ondemand::apps::{dns_models, kvs_models, paxos_models};
use inc_ondemand::{Deployment, HostController, HostControllerConfig, PlacementAnalysis, TorRack};
use inc_power::{
    calib, ops_per_dynamic_watt, ops_per_watt, CpuModel, EfficiencyClass, EnergyParams,
    PlacementComparison, RaplCounter, RaplDomain, RaplSampler,
};
use inc_sim::{Nanos, Node, Rng, Simulator};
use inc_workloads::{
    dynamo::reference as dyn_ref, google::reference as goog_ref, suits_on_demand, variation,
    GoogleTrace, PowerTrace, WorkloadClass,
};

/// §6 "Lessons from an ASIC": normalized Tofino power for L2 forwarding,
/// L2+P4xos, and diag.p4; the ×1000 throughput-at-10 %-utilization claim;
/// and the messages-per-watt ladder.
pub fn asic() {
    let tofino = TofinoModel::snake_32x40();
    note(
        "table",
        "§6 — Tofino normalized power and efficiency ladder",
    );

    // Normalized power sweep for the three programs.
    let programs = [
        ("L2 forwarding", TofinoProgram::L2Forward),
        ("L2 + P4xos", TofinoProgram::L2WithP4xos),
        ("diag.p4", TofinoProgram::Diag),
    ];
    let series: Vec<Series> = programs
        .iter()
        .map(|(name, p)| Series {
            name: name.to_string(),
            points: (0..=20)
                .map(|i| {
                    let r = i as f64 / 20.0;
                    (r, tofino.power_norm(*p, r))
                })
                .collect(),
        })
        .collect();

    let l2_full = tofino.power_norm(TofinoProgram::L2Forward, 1.0);
    let p4_full = tofino.power_norm(TofinoProgram::L2WithP4xos, 1.0);
    let diag_full = tofino.power_norm(TofinoProgram::Diag, 1.0);
    note(
        "P4xos overhead at full load (paper: no more than 2%)",
        format!("{:.1}%", (p4_full - l2_full) / l2_full * 100.0),
    );
    note(
        "diag.p4 overhead (paper: 4.8%, more than twice P4xos)",
        format!("{:.1}%", (diag_full - l2_full) / l2_full * 100.0),
    );
    note(
        "idle equality (paper: idle power the same for both)",
        format!(
            "L2 {:.3} vs P4xos {:.3}",
            tofino.power_norm(TofinoProgram::L2Forward, 0.0),
            tofino.power_norm(TofinoProgram::L2WithP4xos, 0.0)
        ),
    );
    note(
        "min-max spread (paper: less than 20%)",
        format!(
            "{:.1}%",
            (p4_full - tofino.power_norm(TofinoProgram::L2WithP4xos, 0.0)) / p4_full * 100.0
        ),
    );

    // ×1000 throughput at 10 % utilization versus a server at 180 Kpps,
    // with 1/3 the dynamic power.
    let asic_rate = tofino.p4xos_peak_mps() * 0.10;
    let server_rate = 180_000.0;
    note(
        "throughput at 10% util vs server (paper: x1000)",
        format!(
            "{:.2e} vs {server_rate:.2e} msg/s = x{:.0}",
            asic_rate,
            asic_rate / server_rate
        ),
    );
    let models = paxos_models();
    let lib = named(&models, "libpaxos Acceptor");
    let server_dyn = lib.power_w(server_rate) - lib.idle_w;
    let asic_dyn = tofino.dynamic_w(TofinoProgram::L2WithP4xos, 0.10);
    note(
        "dynamic power ASIC@10% vs server@180Kpps (paper: 1/3)",
        format!(
            "{asic_dyn:.1} W vs {server_dyn:.1} W = {:.2}",
            asic_dyn / server_dyn
        ),
    );

    // Ops/W ladder (§6): software 10K's, FPGA 100K's, ASIC 10M's.
    let fpga = named(&models, "Standalone Acceptor");
    let sw_eff = ops_per_dynamic_watt(lib.peak_pps, lib.power_w(lib.peak_pps), lib.idle_w)
        .expect("positive dynamic power");
    let fpga_eff = ops_per_watt(fpga.peak_pps, fpga.power_w(fpga.peak_pps));
    let asic_eff = ops_per_watt(
        calib::P4XOS_ASIC_PEAK_MPS,
        tofino.power_w(TofinoProgram::L2WithP4xos, 1.0),
    );
    print_table(
        &["platform", "msg/s", "msg/W", "class (paper)"],
        &[
            vec![
                "software".into(),
                format!("{:.2e}", lib.peak_pps),
                format!("{sw_eff:.0}"),
                format!("{} (10K's)", EfficiencyClass::of(sw_eff)),
            ],
            vec![
                "FPGA".into(),
                format!("{:.2e}", fpga.peak_pps),
                format!("{fpga_eff:.0}"),
                format!("{} (100K's)", EfficiencyClass::of(fpga_eff)),
            ],
            vec![
                "ASIC".into(),
                format!("{:.2e}", calib::P4XOS_ASIC_PEAK_MPS),
                format!("{asic_eff:.0}"),
                format!("{} (10M's)", EfficiencyClass::of(asic_eff)),
            ],
        ],
    );
    note(
        "absolute-power assumption",
        format!(
            "ASIC envelope {} W (documented in EXPERIMENTS.md; §6 reports normalized only)",
            tofino.max_power_w
        ),
    );

    print_csv("rate_fraction", &series);
}

/// Comparison of the two §9.1 controller designs on the same load step.
///
/// "The network-controlled approach typically reacts faster, but must make
/// its choices based on fewer parameters." This harness applies an
/// identical 10 K → 200 Kpps step to both controllers and reports the
/// reaction time, plus the scenario only the host controller handles
/// correctly: a power surge caused by a co-tenant rather than the
/// application itself.
pub fn controller_compare() {
    const STEP_AT: Nanos = Nanos::from_secs(2);

    /// Network-controlled: reacts from in-dataplane rate alone.
    fn network_reaction() -> Nanos {
        let ctl = NetRateController::new(
            NetControllerConfig::around_crossover(80_000.0, Nanos::from_millis(200)),
            Nanos::ZERO,
        );
        let mut rig = KvsRig::new(91, 10_000.0, 256, 64, KvsRig::gets(256), false);
        {
            let dev = rig.sim.node_mut::<LakeDevice>(rig.device);
            let replacement = std::mem::replace(dev, LakeDevice::sume_default());
            *dev = replacement.with_controller(ctl);
        }
        rig.sim.run_until(STEP_AT);
        rig.sim
            .node_mut::<KvsClient>(rig.client)
            .set_rate(200_000.0);
        rig.sim.run_until(Nanos::from_secs(20));
        let log = &rig.sim.node_ref::<LakeDevice>(rig.device).shift_log;
        log.first().map(|&(t, _)| t - STEP_AT).unwrap_or(Nanos::MAX)
    }

    /// Steps `rig` under the Figure 6 host controller (RAPL + CPU
    /// thresholds at a 1 s cadence, 3 s sustain) from `from` to `until`;
    /// the time of its first shift, if it makes one.
    fn first_host_shift(rig: &mut KvsRig, from: Nanos, until: Nanos) -> Option<Nanos> {
        let mut ctl = HostController::new(HostControllerConfig::figure6(55.0, 0.3, 30_000.0));
        let interval = Nanos::from_secs(1);
        let mut t = from;
        while t < until {
            t += interval;
            rig.sim.run_until(t);
            let obs = rig.slice.observe(&mut rig.sim, interval, 0.0);
            if ctl.sample(t, obs.sample.host).is_some() {
                return Some(t);
            }
        }
        None
    }

    /// Host-controlled: the same step, seen through the host's inputs.
    fn host_reaction() -> Nanos {
        let mut rig = KvsRig::new(92, 10_000.0, 256, 64, KvsRig::gets(256), false);
        rig.sim.run_until(STEP_AT);
        rig.sim
            .node_mut::<KvsClient>(rig.client)
            .set_rate(200_000.0);
        let shift = first_host_shift(&mut rig, STEP_AT, Nanos::from_secs(20));
        shift.map_or(Nanos::MAX, |t| t - STEP_AT)
    }

    /// The host controller's advantage: a co-tenant heats the host while the
    /// app stays cold — power alone would mis-shift; the CPU condition holds
    /// it back. The network controller cannot even see the situation.
    fn host_avoids_cotenant_false_positive() -> bool {
        let mut rig = KvsRig::new(93, 5_000.0, 256, 64, KvsRig::gets(256), false);
        rig.sim
            .node_mut::<MemcachedServer>(rig.server)
            .set_background_util(3.0); // Hot co-tenant, cold app.
        first_host_shift(&mut rig, Nanos::ZERO, Nanos::from_secs(10)).is_none()
    }

    note(
        "ablation",
        "§9.1 — controller reaction to a 10 K -> 200 Kpps step",
    );
    let net = network_reaction();
    let host = host_reaction();
    print_table(
        &["controller", "inputs", "reaction time"],
        &[
            vec![
                "network-controlled".into(),
                "in-classifier packet rate".into(),
                format!("{:.2} s", net.as_secs_f64()),
            ],
            vec![
                "host-controlled".into(),
                "RAPL + per-process CPU (+ network rate)".into(),
                format!("{:.2} s", host.as_secs_f64()),
            ],
        ],
    );
    note(
        "paper claim",
        "the network-controlled approach typically reacts faster, but must make \
         its choices based on fewer parameters",
    );
    note(
        "co-tenant discrimination (host only)",
        format!(
            "host controller correctly held placement under a hot co-tenant: {}",
            host_avoids_cotenant_false_positive()
        ),
    );
}

/// §8 "When to Use In-Network Computing": the energy model
/// `E = Pd·Td + Ps·Ts + Pi·Ti` and its two placement questions evaluated
/// for the three applications.
pub fn energy_model() {
    fn params(m: &Deployment) -> EnergyParams {
        EnergyParams {
            idle_w: m.idle_w,
            sleep_w: m.idle_w * 0.2,
            active_w: m.power_w(m.peak_pps),
            peak_rate_pps: m.peak_pps,
        }
    }

    note("analysis", "§8 — the energy model and the two questions");

    let kvs = kvs_models();
    let paxos = paxos_models();
    let dns = dns_models();
    let apps: Vec<(&str, &Deployment, &Deployment)> = vec![
        ("KVS", &kvs[0], &kvs[1]),
        (
            "Paxos",
            named(&paxos, "libpaxos Acceptor"),
            named(&paxos, "P4xos Acceptor"),
        ),
        ("DNS", &dns[0], &dns[1]),
    ];

    // Question 2: per-app tipping points (shared device, dynamics only).
    let mut rows = Vec::new();
    for (name, sw, hw) in &apps {
        let analysis = PlacementAnalysis {
            software: params(sw),
            network: params(hw),
        };
        let tp = analysis
            .tipping_point_pps()
            .map(|r| {
                if r < sw.peak_pps * 0.01 {
                    // §8 with shared idle terms cancelled: the hardware's
                    // flat dynamic curve wins essentially immediately.
                    "~0 (immediate)".to_string()
                } else {
                    format!("{r:.0} pps")
                }
            })
            .unwrap_or_else(|| "never".to_string());
        // Whole-system energy for one second of work at two rates.
        let low =
            PlacementComparison::evaluate(&params(sw), &params(hw), 10_000, Nanos::from_secs(1))
                .expect("feasible");
        let high = PlacementComparison::evaluate(
            &params(sw),
            &params(hw),
            (sw.peak_pps * 0.9) as u64,
            Nanos::from_secs(1),
        )
        .expect("feasible");
        rows.push(vec![
            name.to_string(),
            tp,
            format!("sw {:.0} J vs net {:.0} J", low.software_j, low.network_j),
            format!(
                "sw {:.0} J vs net {:.0} J ({})",
                high.software_j,
                high.network_j,
                if high.prefer_network() {
                    "net wins"
                } else {
                    "sw wins"
                }
            ),
        ]);
    }
    print_table(
        &[
            "app",
            "dynamic tipping point",
            "E at 10 Kpps",
            "E at 0.9x sw peak",
        ],
        &rows,
    );

    // Question 1: adopting programmable devices at all.
    note(
        "question 1 (paper: dominated by idle powers Pi)",
        format!(
            "NetFPGA ref NIC {:.1} W vs Mellanox NIC {:.1} W -> penalty {:.1} W per server; \
             programmable switch vs fixed: ~0 W (§6/§9.4)",
            calib::NETFPGA_REFERENCE_NIC_W,
            calib::MELLANOX_NIC_W,
            calib::NETFPGA_REFERENCE_NIC_W - calib::MELLANOX_NIC_W
        ),
    );
    note(
        "question 2 (paper: tip where PNd(R) = PSd(R))",
        "once the device is installed, idle/sleep terms cancel and the dynamic \
         crossings above decide placement — the basis of on-demand shifting",
    );
}

/// §5 "Lessons from an FPGA": per-component power, capacity ratios, and
/// the latency ladder of LaKe's design choices — including an event-driven
/// measurement of the L1-hit / L2-hit / miss latency distributions.
pub fn lake_design() {
    note("table", "§5 — LaKe design decisions");

    // §5.2: logic and PEs.
    print_table(
        &["component", "model", "paper"],
        &[
            vec![
                "LaKe logic over ref NIC".into(),
                format!("{:.1} W", calib::LAKE_LOGIC_W),
                "2.2 W".into(),
            ],
            vec![
                "one PE".into(),
                format!("{:.2} W", calib::LAKE_PE_W),
                "~0.25 W".into(),
            ],
            vec![
                "PE capacity".into(),
                format!("{:.1} Mqps", calib::LAKE_PE_CAPACITY_QPS / 1e6),
                "3.3 Mqps".into(),
            ],
            vec![
                "DRAM".into(),
                format!("{:.1} W", calib::SUME_DRAM_W),
                "4.8 W".into(),
            ],
            vec![
                "SRAM".into(),
                format!("{:.1} W", calib::SUME_SRAM_W),
                "6 W".into(),
            ],
        ],
    );

    // §5.3: capacities.
    let dram = MemorySpec::sume_dram();
    let sram = MemorySpec::sume_sram();
    let bram = MemorySpec::lake_l1_bram();
    print_table(
        &["capacity", "model", "paper"],
        &[
            // The DRAM is split between the value store and the hash
            // table (2 GB each), matching the paper's dual capacity claim.
            vec![
                "DRAM 64B value chunks (half)".into(),
                format!("{:.1} M", dram.entries(64) as f64 / 2e6),
                format!("{} M", calib::DRAM_VALUE_ENTRIES / 1_000_000),
            ],
            vec![
                "DRAM hash entries (half)".into(),
                format!("{:.0} M", dram.entries(8) as f64 / 2e6),
                format!("{} M", calib::DRAM_HASH_ENTRIES / 1_000_000),
            ],
            vec![
                "SRAM free-list".into(),
                format!("{:.1} M", sram.entries(4) as f64 / 1e6),
                format!("{:.1} M", calib::SRAM_FREELIST_ENTRIES as f64 / 1e6),
            ],
            vec![
                "on-chip vs DRAM capacity".into(),
                format!("x{}k", dram.capacity_bytes / bram.capacity_bytes / 1000),
                format!("x{}k", calib::ONCHIP_VS_DRAM_RATIO / 1000),
            ],
        ],
    );

    // §5.3 latency ladder, measured end-to-end in the event simulation at
    // 100 Kqps. The client-to-card link adds ~1 µs of the reported totals.
    let paper_us = |ns: u64| ns as f64 / 1e3;
    let keys = 1_000u64;
    let mut rig = KvsRig::new(5, 100_000.0, keys, 64, KvsRig::gets(keys), true);
    rig.sim.run_until(Nanos::from_secs(2));
    // Warm-up complete: drain and measure a steady second.
    let _ = rig.sim.node_mut::<KvsClient>(rig.client).take_window();
    rig.sim.run_until(Nanos::from_secs(3));
    let (_, warm) = rig.sim.node_mut::<KvsClient>(rig.client).take_window();
    let dev = rig.sim.node_ref::<LakeDevice>(rig.device);
    let dev_stats = dev.cache_stats();
    print_table(
        &[
            "latency (warm, 100 Kqps)",
            "device-side sim",
            "client sim",
            "paper (device)",
        ],
        &[
            vec![
                "median".into(),
                format!("{:.2} us", dev.hw_latency.quantile(0.5) as f64 / 1000.0),
                format!("{:.2} us", warm.quantile(0.5) as f64 / 1000.0),
                format!(
                    "{}-{} us",
                    paper_us(calib::LAKE_L1_HIT_NS),
                    paper_us(calib::LAKE_L2_HIT_MEDIAN_NS)
                ),
            ],
            vec![
                "p99".into(),
                format!("{:.2} us", dev.hw_latency.quantile(0.99) as f64 / 1000.0),
                format!("{:.2} us", warm.quantile(0.99) as f64 / 1000.0),
                format!("{} us", paper_us(calib::LAKE_L2_HIT_P99_NS)),
            ],
        ],
    );
    note(
        "hit ratio after warm-up",
        format!("{:.3}", dev_stats.hit_ratio()),
    );

    // Cold cache: misses go to software at the 13.5 µs level.
    let mut cold = KvsRig::new(6, 50_000.0, 2_000, 64, KvsRig::gets(1_000_000), true);
    cold.sim.run_until(Nanos::from_millis(400));
    let (_, lat) = cold.sim.node_mut::<KvsClient>(cold.client).take_window();
    print_table(
        &["latency (mostly misses)", "sim", "paper"],
        &[
            vec![
                "median".into(),
                format!("{:.2} us", lat.quantile(0.5) as f64 / 1000.0),
                format!("{} us", paper_us(calib::LAKE_MISS_MEDIAN_NS)),
            ],
            vec![
                "p99".into(),
                format!("{:.2} us", lat.quantile(0.99) as f64 / 1000.0),
                format!("{} us", paper_us(calib::LAKE_MISS_P99_NS)),
            ],
        ],
    );

    // §5.4: infrastructure comparison — the Xeon E5-2637 host idles above
    // a fully loaded LaKe system.
    let xeon_idle = inc_power::CpuModel::xeon_e5_2637_v4().power_w(0.0);
    let lake_full =
        calib::LAKE_STANDALONE_IDLE_W + calib::LAKE_DYNAMIC_MAX_W + calib::I7_PLATFORM_IDLE_W;
    note(
        "Xeon E5-2637 idle vs LaKe-at-full-load-in-i7 (paper: 83 W is 20 W more than LaKe full)",
        format!("{xeon_idle:.0} W vs {lake_full:.1} W"),
    );
}

/// Ablation of the §9.2 parking alternatives.
///
/// The paper picks "memories in reset + clock gating" and argues the two
/// alternatives trade off differently: keeping the cache warm reduces the
/// power saving; partial reconfiguration maximises it but halts traffic
/// momentarily on resumption. This harness measures all three policies on
/// the same workload: parked watts, packets lost at the shift, and how
/// long the hit ratio takes to recover.
pub fn park_ablation() {
    fn run_policy(policy: ParkPolicy) -> Vec<String> {
        let keys = 512u64;
        let rate = 100_000.0;
        let mut rig = KvsRig::new(71, rate, keys, 64, KvsRig::gets(keys), false);
        {
            // Re-park the already-built device under the requested policy by
            // swapping it in place (builder consumes self).
            let dev = rig.sim.node_mut::<LakeDevice>(rig.device);
            let replacement = std::mem::replace(dev, LakeDevice::sume_default());
            *dev = replacement.with_park_policy(policy);
        }

        // Warm phase in hardware, park, then resume and watch recovery.
        let now = rig.sim.now();
        rig.sim
            .node_mut::<LakeDevice>(rig.device)
            .apply_placement(now, Placement::HARDWARE);
        rig.sim.run_until(Nanos::from_secs(1)); // Warm the cache.

        let t_park = rig.sim.now();
        rig.sim
            .node_mut::<LakeDevice>(rig.device)
            .apply_placement(t_park, Placement::Software);
        rig.sim.run_until(t_park + Nanos::from_millis(200));
        let parked_w = rig
            .sim
            .node_ref::<LakeDevice>(rig.device)
            .power_w(rig.sim.now());

        // Resume.
        let t_resume = rig.sim.now();
        let miss_before = rig
            .sim
            .node_ref::<LakeDevice>(rig.device)
            .cache_stats()
            .misses;
        let recv_before = rig.sim.node_ref::<KvsClient>(rig.client).stats().received;
        let sent_before = rig.sim.node_ref::<KvsClient>(rig.client).stats().sent;
        rig.sim
            .node_mut::<LakeDevice>(rig.device)
            .apply_placement(t_resume, Placement::HARDWARE);
        rig.sim.run_until(t_resume + Nanos::from_millis(500));
        let dev = rig.sim.node_ref::<LakeDevice>(rig.device);
        let misses = dev.cache_stats().misses - miss_before;
        let drops = dev.blackout_drops;
        let client = rig.sim.node_ref::<KvsClient>(rig.client).stats();
        // In-flight replies from before the resume can land inside the window,
        // so compute losses in signed arithmetic and clamp at zero.
        let lost =
            ((client.sent - sent_before) as i64 - (client.received - recv_before) as i64).max(0);

        vec![
            format!("{policy:?}"),
            format!("{parked_w:.1} W"),
            format!("{misses}"),
            format!("{drops}"),
            format!("{lost}"),
        ]
    }

    note(
        "ablation",
        "§9.2 parking alternatives at 100 Kqps over 512 keys",
    );
    let rows: Vec<Vec<String>> = [ParkPolicy::Cold, ParkPolicy::Warm, ParkPolicy::Reconfigure]
        .into_iter()
        .map(run_policy)
        .collect();
    print_table(
        &[
            "policy",
            "parked card W",
            "warm-up misses",
            "blackout drops",
            "client losses",
        ],
        &rows,
    );
    note(
        "reading",
        "Cold saves ~6.5 W and re-warms via misses; Warm saves least but resumes \
         hit-for-hit; Reconfigure parks at the reference-NIC level but drops \
         every packet during the reprogramming halt — the paper's reasoning \
         for choosing Cold.",
    );
}

/// Ablation of LaKe's processing-element count (§5.2).
///
/// "Each processing core can support up to 3.3Mqps" at "about 0.25W"
/// each; five PEs reach 10GE line rate. This harness sweeps the PE count
/// and measures served throughput and card power under an offered load
/// beyond single-PE capacity.
pub fn pe_scaling() {
    fn run(pes: u32, offered_pps: f64) -> (f64, f64) {
        let keys = 256u64;
        let mut sim = Simulator::new(81);
        let gen = UniformGen {
            keys,
            get_ratio: 1.0,
            value_len: 16,
        };
        let client = KvsClient::open_loop(
            Endpoint::host(1, 40_000),
            Endpoint::host(2, MEMCACHED_PORT),
            offered_pps,
            Box::new(gen),
        )
        .without_verification();
        let lake = LakeDevice::new(LakeCacheConfig::tiny(512, 8_192), pes).started_in_hardware();
        let chain = Chain::kvs(&mut sim, client, keys, 16, vec![lake], &[DeviceId::LOCAL]);
        let (client, device) = (chain.client, chain.devices[0]);

        // Short warm phase, then a measured window.
        sim.run_until(Nanos::from_millis(100));
        let _ = sim.node_mut::<KvsClient>(client).take_window();
        sim.run_until(Nanos::from_millis(300));
        let (served, _) = sim.node_mut::<KvsClient>(client).take_window();
        let rate = served as f64 / 0.2;
        let power = sim.node_ref::<LakeDevice>(device).power_w(sim.now());
        (rate, power)
    }

    note(
        "ablation",
        "§5.2 — LaKe PE scaling (offered 8 Mqps, hit-only)",
    );
    let offered = 8_000_000.0;
    let mut rows = Vec::new();
    for pes in [1u32, 2, 3, 4, 5] {
        let (rate, power) = run(pes, offered);
        let cap = calib::LAKE_PE_CAPACITY_QPS * pes as f64;
        rows.push(vec![
            format!("{pes}"),
            format!("{:.2} Mqps", cap / 1e6),
            format!("{:.2} Mqps", rate / 1e6),
            format!("{power:.2} W"),
        ]);
    }
    print_table(&["PEs", "nominal capacity", "served", "card W"], &rows);
    note(
        "reading (paper §5.2)",
        "throughput scales ~3.3 Mqps per PE at ~0.25 W each until the offered \
         load is covered; five PEs suffice for 10GE line rate",
    );
}

/// §7 "Lessons from a Server": the dual-socket Xeon E5-2660 v4 power
/// profile under a synthetic, I/O-free load, monitored via RAPL.
pub fn server() {
    let xeon = CpuModel::xeon_e5_2660_v4_dual();
    note("table", "§7 — Xeon-class server power under synthetic load");

    print_table(
        &["condition", "model W", "paper W"],
        &[
            vec![
                "idle".into(),
                format!("{:.1}", xeon.power_w(0.0)),
                "56".into(),
            ],
            vec![
                "one core 10%".into(),
                format!("{:.1}", xeon.power_w(0.1)),
                "86".into(),
            ],
            vec![
                "one core 100%".into(),
                format!("{:.1}", xeon.power_w(1.0)),
                "91".into(),
            ],
            vec![
                "all 28 cores".into(),
                format!("{:.1}", xeon.power_w(28.0)),
                "134".into(),
            ],
        ],
    );

    let marginal = xeon.power_w(2.0) - xeon.power_w(1.0);
    note(
        "additional core cost (paper: 1W-2W)",
        format!("{marginal:.2} W"),
    );
    note(
        "uncore jump spreads across sockets (paper: both sockets rise)",
        format!(
            "{:.1} W at first busy core",
            xeon.power_w(1.0) - xeon.power_w(0.0)
        ),
    );

    // RAPL-monitored sweep, as the paper measures it: advance a counter
    // under each load level and difference readings one second apart.
    let mut counter = RaplCounter::new(RaplDomain::Package);
    let mut sampler = RaplSampler::new();
    let mut series = Series {
        name: "rapl_w".to_string(),
        points: Vec::new(),
    };
    let mut model_series = Series {
        name: "model_w".to_string(),
        points: Vec::new(),
    };
    let mut t = Nanos::ZERO;
    for step in 0..=28 {
        let util = step as f64;
        let w = xeon.power_w(util);
        // Hold this load for one second.
        t += Nanos::from_secs(1);
        counter.advance(t, w);
        if let Some(measured) = sampler.sample(&counter, t) {
            series.points.push((util, measured));
            model_series.points.push((util, w));
        }
    }

    print_csv("busy_cores", &[model_series, series]);
}

/// §9.4 "Switch On-Demand?": offloading to a Top-of-Rack programmable
/// switch — the tipping point sits at (almost) zero, and partial offload
/// benefit is a function of the hit ratio.
pub fn tor() {
    note("table", "§9.4 — ToR switch on-demand analysis");

    let rack = TorRack::typical();
    note(
        "switch envelope",
        format!(
            "{} x 100G ports x 5 W = {:.0} W (paper: <5 W per 100G port)",
            rack.switch_ports_100g,
            rack.switch_power_w()
        ),
    );
    note(
        "switch dynamic power at 1 Mqps (paper: <1 W)",
        format!("{:.2} W", rack.switch_dynamic_w(1e6)),
    );
    let tp = rack.tipping_point_pps();
    note(
        "tipping point PNd(R)=PSd(R) (paper: R is almost zero)",
        format!(
            "{tp:.0} pps = {:.3}% of server peak",
            tp / rack.server_peak_pps * 100.0
        ),
    );

    // Dynamic power comparison across rates.
    let mut rows = Vec::new();
    for rate in [1e4, 1e5, 5e5, 1e6] {
        rows.push(vec![
            format!("{:.0} Kpps", rate / 1e3),
            format!("{:.2} W", rack.switch_dynamic_w(rate)),
            format!("{:.1} W", rack.server_dynamic_w(rate)),
        ]);
    }
    print_table(&["rate", "switch dyn", "server dyn"], &rows);

    // Partial offload: the switch caches a fraction of requests.
    let mut rows = Vec::new();
    for hit in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
        let (combined, host_only) = rack.partial_offload_dynamic_w(5e5, hit);
        rows.push(vec![
            format!("{:.0}%", hit * 100.0),
            format!("{combined:.1} W"),
            format!("{host_only:.1} W"),
            format!("{:.0}%", (1.0 - combined / host_only) * 100.0),
        ]);
    }
    print_table(
        &["hit ratio", "switch+host dyn", "host-only dyn", "saving"],
        &rows,
    );
    note(
        "conclusion (paper)",
        "for an installed programmable ToR the offload pays from the first packet; \
         with partial offload, efficiency is a function of the hit:miss ratio",
    );
}

/// §9.3 "Real Workloads": the Google cluster-trace offload analysis and
/// the Dynamo power-variation gating rule, run against synthesized traces
/// whose aggregates match the published statistics.
pub fn trace() {
    note(
        "table",
        "§9.3 — real-workload analyses on synthesized traces",
    );

    // --- Google cluster trace ---
    let mut rng = Rng::new(93);
    // A 1/125-scale day: 100 nodes of the ~12.5k-node cluster.
    let nodes = 100u32;
    let scale = 12_500.0 / nodes as f64;
    let trace = GoogleTrace::synthesize(&mut rng, nodes, Nanos::from_secs(24 * 3600), 500);

    let cut = Nanos::from_secs(2 * 3600);
    note(
        &format!(
            "long-job utilization share (paper: {:.0}% from {:.0}% of jobs)",
            goog_ref::LONG_JOB_UTILIZATION_SHARE * 100.0,
            goog_ref::LONG_JOB_COUNT_SHARE * 100.0
        ),
        format!(
            "{:.0}% of core-seconds from {:.1}% of tasks",
            trace.utilization_share_of_long_tasks(cut) * 100.0,
            trace.task_share_longer_than(cut) * 100.0
        ),
    );

    let min_cores = 0.10;
    let min_dur = Nanos::from_secs(300);
    let candidates = trace.offload_candidates(min_cores, min_dur).len();
    note(
        "offload candidates >=10% core for >=5 min (paper: 1.39 M at full scale)",
        format!(
            "{} in the 1/{:.0} sample -> {:.2} M extrapolated",
            candidates,
            scale,
            candidates as f64 * scale / 1e6
        ),
    );
    let per_node = trace.mean_candidate_cores_per_node(min_cores, min_dur);
    note(
        "candidate cores per node per 5-min window (paper: 7.7)",
        format!("{per_node:.1}"),
    );
    note(
        "consequence (paper)",
        "many candidate tasks share each node, diminishing per-task offload savings; \
         offload the last job as load drains instead",
    );

    // --- Dynamo power variation ---
    let mut rng = Rng::new(94);
    let mut rows = Vec::new();
    for (class, label, published) in [
        (
            WorkloadClass::Rack,
            "rack @3s p99",
            format!("{:.1}%", dyn_ref::RACK_P99_3S * 100.0),
        ),
        (
            WorkloadClass::Rack,
            "rack @30s p99",
            format!("{:.1}%", dyn_ref::RACK_P99_30S * 100.0),
        ),
        (
            WorkloadClass::Cache,
            "cache @60s median/p99",
            format!(
                "{:.1}%/{:.1}%",
                dyn_ref::CACHE_60S.0 * 100.0,
                dyn_ref::CACHE_60S.1 * 100.0
            ),
        ),
        (
            WorkloadClass::WebServer,
            "web @60s median/p99",
            format!(
                "{:.1}%/{:.1}%",
                dyn_ref::WEB_60S.0 * 100.0,
                dyn_ref::WEB_60S.1 * 100.0
            ),
        ),
    ] {
        let t = PowerTrace::synthesize(&mut rng, class, 4_000);
        let w = if label.contains("@3s") {
            Nanos::from_secs(3)
        } else if label.contains("@30s") {
            Nanos::from_secs(30)
        } else {
            Nanos::from_secs(60)
        };
        let v = variation(&t.series, w).expect("long enough");
        rows.push(vec![
            label.to_string(),
            format!("{:.1}%/{:.1}%", v.median * 100.0, v.p99 * 100.0),
            published,
            format!("{}", suits_on_demand(v)),
        ]);
    }
    print_table(
        &["trace", "synth median/p99", "published", "suits on-demand"],
        &rows,
    );
    note(
        "gating rule (paper)",
        "low variance over the scheduling period -> safe to shift; \
         high variance (web) -> on-demand may be incorrect or inefficient",
    );
    note(
        "google reference constants",
        format!(
            "{} candidates, {} cores/node",
            goog_ref::OFFLOAD_CANDIDATE_TASKS,
            goog_ref::CANDIDATE_CORES_PER_NODE
        ),
    );
}
