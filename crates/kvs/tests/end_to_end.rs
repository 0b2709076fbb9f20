//! End-to-end KVS integration: client ↔ LaKe device ↔ memcached host.
//!
//! Reproduces the Figure 1 topology in miniature and checks the properties
//! §9.2 claims for the on-demand shift: replies stay correct in both
//! placements, throughput is unaffected by the shift, and hit latency
//! improves roughly ten-fold once the hardware cache warms.

use inc_hw::{Placement, HOST_DMA_PORT};
use inc_kvs::{
    expected_value, key_name, KvsClient, LakeCacheConfig, LakeDevice, MemcachedConfig,
    MemcachedServer, UniformGen, MEMCACHED_PORT,
};
use inc_net::{Endpoint, Packet};
use inc_sim::{LinkSpec, Nanos, NodeId, PortId, Simulator};

struct Rig {
    sim: Simulator<Packet>,
    client: NodeId,
    device: NodeId,
    server: NodeId,
}

/// Builds client --10GbE--> LaKe --DMA--> memcached, preloading `keys`
/// uniform keys of `value_len` bytes in the authoritative store.
fn build_rig(rate_pps: f64, keys: u64, value_len: usize, hardware: bool) -> Rig {
    let mut sim = Simulator::new(7);
    let client_ep = Endpoint::host(1, 40_000);
    let server_ep = Endpoint::host(2, MEMCACHED_PORT);

    let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
    server.preload((0..keys).map(|i| {
        let k = key_name(i);
        let v = expected_value(&k, value_len);
        (k, v)
    }));
    let server = sim.add_node(server);

    let mut dev = LakeDevice::new(LakeCacheConfig::tiny(64, 4096), 5);
    if hardware {
        dev = dev.started_in_hardware();
    }
    let device = sim.add_node(dev);

    let client = sim.add_node(KvsClient::open_loop(
        client_ep,
        server_ep,
        rate_pps,
        Box::new(UniformGen {
            keys,
            get_ratio: 1.0,
            value_len,
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
    Rig {
        sim,
        client,
        device,
        server,
    }
}

#[test]
fn software_mode_serves_correct_values() {
    let mut rig = build_rig(20_000.0, 32, 64, false);
    rig.sim.run_until(Nanos::from_secs(1));
    let stats = rig.sim.node_ref::<KvsClient>(rig.client).stats();
    assert!(stats.sent > 15_000, "sent {}", stats.sent);
    // Open loop with ~13.5 µs service: nearly everything answered.
    assert!(
        stats.received as f64 > stats.sent as f64 * 0.95,
        "received {} of {}",
        stats.received,
        stats.sent
    );
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.not_found, 0);
    // Everything was served by the host.
    let dev = rig.sim.node_ref::<LakeDevice>(rig.device).stats();
    assert_eq!(dev.served_hw, 0);
    assert!(dev.to_host > 15_000);
}

#[test]
fn software_mode_latency_matches_paper() {
    let mut rig = build_rig(20_000.0, 32, 64, false);
    rig.sim.run_until(Nanos::from_secs(1));
    // The window has not been drained: it holds every completion.
    let (_, lat) = rig.sim.node_mut::<KvsClient>(rig.client).take_window();
    let p50 = lat.quantile(0.5);
    // §5.3: software-served queries land around 13.5 µs (plus the 1 µs
    // of client-side link latency in this topology).
    assert!((12_000..18_000).contains(&p50), "p50 {p50} ns");
}

#[test]
fn hardware_mode_warms_and_hits() {
    let mut rig = build_rig(50_000.0, 32, 64, true);
    rig.sim.run_until(Nanos::from_secs(2));
    let stats = rig.sim.node_ref::<KvsClient>(rig.client).stats();
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.not_found, 0);
    let dev = rig.sim.node_ref::<LakeDevice>(rig.device);
    let cache = dev.cache_stats();
    // 32 keys fit entirely in cache: after warm-up, hits dominate.
    assert!(cache.hit_ratio() > 0.95, "hit ratio {}", cache.hit_ratio());
    assert!(dev.stats().served_hw > 90_000);
    // Hardware hits are ~10x faster than the software path (§9.2).
    // The window has not been drained: it holds every completion.
    let (_, lat) = rig.sim.node_mut::<KvsClient>(rig.client).take_window();
    let p50 = lat.quantile(0.5);
    assert!((2_000..4_500).contains(&p50), "p50 {p50} ns");
}

#[test]
fn shift_to_hardware_preserves_throughput_and_improves_latency() {
    let mut rig = build_rig(20_000.0, 32, 64, false);
    // Phase 1: software.
    rig.sim.run_until(Nanos::from_secs(1));
    let (sw_n, sw_lat) = rig.sim.node_mut::<KvsClient>(rig.client).take_window();
    // Shift to hardware (as the host controller would).
    let now = rig.sim.now();
    rig.sim
        .node_mut::<LakeDevice>(rig.device)
        .apply_placement(now, Placement::HARDWARE);
    // Warm-up second, then measure.
    rig.sim.run_until(Nanos::from_secs(2));
    let _ = rig.sim.node_mut::<KvsClient>(rig.client).take_window();
    rig.sim.run_until(Nanos::from_secs(3));
    let (hw_n, hw_lat) = rig.sim.node_mut::<KvsClient>(rig.client).take_window();

    // §9.2: "the transition from software to hardware had no effect on
    // KVS throughput, not even momentarily."
    let ratio = hw_n as f64 / sw_n as f64;
    assert!((0.97..1.03).contains(&ratio), "throughput ratio {ratio}");
    // "The latency of query-hit improves ten-fold."
    let sw_p50 = sw_lat.quantile(0.5) as f64;
    let hw_p50 = hw_lat.quantile(0.5) as f64;
    assert!(sw_p50 / hw_p50 > 3.5, "sw {sw_p50} ns vs hw {hw_p50} ns");
    let stats = rig.sim.node_ref::<KvsClient>(rig.client).stats();
    assert_eq!(stats.corrupt, 0);
}

#[test]
fn power_drops_when_shifting_back_to_software() {
    // 5 Kpps: far below the tipping point, so software placement should
    // win once the uncore cost of serving it is accounted.
    let mut rig = build_rig(5_000.0, 32, 64, true);
    rig.sim.run_until(Nanos::from_millis(200));
    let metered = [rig.device, rig.server];
    let hw_power = rig.sim.instant_power(&metered);
    let now = rig.sim.now();
    rig.sim
        .node_mut::<LakeDevice>(rig.device)
        .apply_placement(now, Placement::Software);
    rig.sim.run_until(Nanos::from_millis(400));
    let parked_power = rig.sim.instant_power(&metered);
    // Parking saves the memory-reset + clock-gating + PE watts; at this
    // rate the host serves the load for less than that.
    assert!(
        hw_power - parked_power > 3.0,
        "hw {hw_power} vs parked {parked_power}"
    );
    // Sanity: hardware-mode total is the §4.2 in-server LaKe idle level.
    assert!((56.0..61.0).contains(&hw_power), "hw {hw_power}");
}

#[test]
fn overload_saturates_at_memcached_peak() {
    // Offer 2 Mpps to the software path: only ~1 Mpps can be served.
    let mut rig = build_rig(2_000_000.0, 32, 64, false);
    rig.sim.run_until(Nanos::from_millis(500));
    let stats = rig.sim.node_ref::<KvsClient>(rig.client).stats();
    let served_rate = stats.received as f64 / 0.5;
    assert!(
        served_rate < 1_200_000.0,
        "served {served_rate} pps, expected software saturation"
    );
    let dropped = rig.sim.node_ref::<MemcachedServer>(rig.server).dropped();
    assert!(dropped > 0, "expected drops under overload");
}

#[test]
fn an_overloaded_client_keeps_its_in_flight_table_bounded() {
    // 2 Mpps against a ~1 Mpps server for 100 ms: ~100 000 requests are
    // dropped and never answered, more than one turn of the 16-bit
    // memcached request id.
    let mut rig = build_rig(2_000_000.0, 32, 64, false);
    rig.sim.run_until(Nanos::from_millis(100));
    let stats = rig.sim.node_ref::<KvsClient>(rig.client).stats();
    let dropped = rig.sim.node_ref::<MemcachedServer>(rig.server).dropped();
    assert!(dropped > 65_536, "only {dropped} requests dropped");
    // A request id's next use gives up the unanswered request that held
    // it, so at most one turn of ids is ever outstanding.
    let in_flight = stats.sent - stats.received - stats.abandoned;
    assert!(
        in_flight <= 65_536,
        "{in_flight} requests in flight ({stats:?})"
    );
    assert!(stats.abandoned >= dropped - 65_536, "{stats:?}");
    assert_eq!(stats.corrupt, 0);
}
