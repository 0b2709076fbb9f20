//! The Figure 6 scenario as a library consumer would write it: a KVS
//! shifting between host and network under a co-tenant burst, driven by
//! the host-controlled on-demand controller.
//!
//! Run with: `cargo run --example kvs_on_demand`

use inc::hw::HOST_DMA_PORT;
use inc::kvs::{
    expected_value, key_name, KvsClient, LakeCacheConfig, LakeDevice, MemcachedConfig,
    MemcachedServer, UniformGen, MEMCACHED_PORT,
};
use inc::net::{Endpoint, Packet};
use inc::ondemand::{
    run_host_controlled, HostController, HostControllerConfig, HostSample, IntervalObservation,
    RowLog,
};
use inc::sim::{LinkSpec, Nanos, Node, PortId, Simulator};

fn main() {
    let keys = 2_000u64;
    let rate = 20_000.0;

    let mut sim: Simulator<Packet> = Simulator::new(7);
    let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
    server.preload((0..keys).map(|i| {
        let k = key_name(i);
        (k.clone(), expected_value(&k, 64))
    }));
    let server = sim.add_node(server);
    let device = sim.add_node(LakeDevice::new(LakeCacheConfig::tiny(1_024, 16_384), 5));
    let client = sim.add_node(KvsClient::open_loop(
        Endpoint::host(1, 40_000),
        Endpoint::host(2, MEMCACHED_PORT),
        rate,
        Box::new(UniformGen {
            keys,
            get_ratio: 0.95,
            value_len: 64,
        }),
    ));
    sim.connect_duplex(
        client,
        PortId::P0,
        device,
        PortId::P0,
        LinkSpec::ten_gbe(Nanos::from_nanos(500)),
    );
    sim.connect_duplex(device, HOST_DMA_PORT, server, PortId::P0, LinkSpec::ideal());

    // The §9.1 host-controlled design: RAPL + CPU thresholds, 3 s sustain,
    // network rate feedback for the way back.
    let mut controller = HostController::new(HostControllerConfig {
        interval: Nanos::from_millis(500),
        power_up_w: 70.0,
        cpu_up_util: 0.03,
        rate_down_pps: 40_000.0,
        power_down_w: 60.0,
        sustain_samples: 6,
    });

    // A co-tenant (the paper's ChainerMN) occupies three cores in [5 s, 15 s).
    let burst = (Nanos::from_secs(5), Nanos::from_secs(15));

    let timeline = run_host_controlled(
        &mut sim,
        &mut controller,
        Nanos::from_secs(25),
        RowLog::Full,
        |sim| {
            let now = sim.now();
            let bg = if now >= burst.0 && now < burst.1 {
                3.0
            } else {
                0.0
            };
            sim.node_mut::<MemcachedServer>(server)
                .set_background_util(bg);
            let (completed, lat) = sim.node_mut::<KvsClient>(client).take_window();
            IntervalObservation {
                sample: HostSample {
                    rapl_w: sim.node_ref::<MemcachedServer>(server).power_w(now),
                    app_cpu_util: sim.node_ref::<MemcachedServer>(server).app_utilization(),
                    hw_app_rate: sim.node_mut::<LakeDevice>(device).measured_rate(now),
                },
                completed,
                latency_p50_ns: lat.quantile(0.5),
                power_w: sim.instant_power(&[device, server]),
            }
        },
        |sim, t, placement| {
            println!(
                "t={:>5.1}s  controller shifts the KVS to {placement:?}",
                t.as_secs_f64()
            );
            sim.node_mut::<LakeDevice>(device)
                .apply_placement(t, placement);
        },
    );

    println!("\n   t      kpps    p50 us   power W  placement");
    for row in timeline.rows().iter().step_by(2) {
        println!(
            "{:>5.1}  {:>7.1}  {:>8.1}  {:>8.1}  {:?}",
            row.t.as_secs_f64(),
            row.throughput_pps / 1e3,
            row.latency_p50_ns as f64 / 1e3,
            row.power_w,
            row.placement
        );
    }

    let stats = sim.node_ref::<KvsClient>(client).stats();
    println!(
        "\nintegrity across both shifts: {} replies, {} corrupt",
        stats.received, stats.corrupt
    );
}
