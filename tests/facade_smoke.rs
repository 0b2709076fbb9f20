//! Workspace wiring smoke test: every facade module must be reachable
//! through the `inc` crate, and the quickstart example's scenario must
//! run end to end. This catches manifest/re-export regressions (a crate
//! dropped from the workspace, a renamed module, a broken dependency
//! edge) that per-crate unit tests cannot see.

use inc::hw::{Placement, HOST_DMA_PORT};
use inc::kvs::{
    expected_value, key_name, KvsClient, LakeCacheConfig, LakeDevice, MemcachedConfig,
    MemcachedServer, UniformGen, MEMCACHED_PORT,
};
use inc::net::{Endpoint, Packet};
use inc::sim::{LinkSpec, Nanos, PortId, Simulator};

/// One symbol from every facade module, so a missing re-export or a
/// dropped workspace member fails this test at compile time.
#[test]
fn every_facade_module_is_reachable() {
    // inc::sim
    let _ = inc::sim::Nanos::from_secs(1);
    // inc::power
    let _ = inc::power::CpuModel::i7_6700k();
    // inc::net
    let _ = inc::net::Endpoint::host(1, 9);
    // inc::hw
    let _ = inc::hw::PCIE_SLOT_BUDGET_W;
    // inc::kvs
    let _ = inc::kvs::LruCache::new(4);
    // inc::paxos
    let _ = inc::paxos::multi::Replica::new(0, 3);
    // inc::dns
    let _ = inc::dns::Name::parse("example.com").unwrap();
    // inc::workloads
    let _ = inc::workloads::Zipf::new(100, 0.99);
    // inc::ondemand
    let models = inc::ondemand::apps::kvs_models();
    assert!(!models.is_empty());
}

/// The quickstart example's scenario, condensed: serve memcached traffic
/// in the software placement, shift to hardware, and check the paper's
/// qualitative claim (above the crossover, hardware is faster and the
/// system draws less power) plus reply integrity.
#[test]
fn quickstart_scenario_runs() {
    let keys = 200u64;
    let rate = 100_000.0;

    let mut sim: Simulator<Packet> = Simulator::new(42);

    let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
    server.preload((0..keys).map(|i| {
        let k = key_name(i);
        let v = expected_value(&k, 64);
        (k, v)
    }));
    let server = sim.add_node(server);
    let device = sim.add_node(LakeDevice::new(LakeCacheConfig::tiny(512, 8_192), 5));
    let client = sim.add_node(KvsClient::open_loop(
        Endpoint::host(1, 40_000),
        Endpoint::host(2, MEMCACHED_PORT),
        rate,
        Box::new(UniformGen {
            keys,
            get_ratio: 1.0,
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

    // Software placement.
    sim.run_until(Nanos::from_millis(300));
    let (sw_n, sw_lat) = sim.node_mut::<KvsClient>(client).take_window();
    let sw_power = sim.instant_power(&[device, server]);
    assert!(sw_n > 0, "no replies served in the software placement");

    // Shift to hardware; let the cache warm before measuring.
    let now = sim.now();
    sim.node_mut::<LakeDevice>(device)
        .apply_placement(now, Placement::HARDWARE);
    sim.run_until(Nanos::from_millis(600));
    let _ = sim.node_mut::<KvsClient>(client).take_window();
    sim.run_until(Nanos::from_millis(900));
    let (hw_n, hw_lat) = sim.node_mut::<KvsClient>(client).take_window();
    let hw_power = sim.instant_power(&[device, server]);
    assert!(hw_n > 0, "no replies served in the hardware placement");

    // Above the Figure 3(a) crossover the hardware placement must win on
    // both axes.
    assert!(
        hw_lat.quantile(0.5) < sw_lat.quantile(0.5),
        "hardware p50 {} >= software p50 {}",
        hw_lat.quantile(0.5),
        sw_lat.quantile(0.5)
    );
    assert!(
        hw_power < sw_power,
        "hardware power {hw_power} W >= software power {sw_power} W"
    );

    // Reply integrity: nothing corrupt, nothing missing.
    let stats = sim.node_ref::<KvsClient>(client).stats();
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.not_found, 0);
    assert!(stats.received > 0);
}
