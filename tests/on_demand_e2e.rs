//! End-to-end on-demand experiments spanning the workspace: both §9.1
//! controller designs driving real shifts over simulated hardware, and a
//! DNS rig exercising the Emu parse-depth punting path.

use std::cell::Cell;
use std::rc::Rc;

use inc::dns::{
    DnsClient, DnsServer, DnsServerConfig, EmuDevice, Name, Query, Zone, DNS_PORT, TYPE_A,
};
use inc::hw::{NetControllerConfig, NetRateController, Placement, RateTrigger, HOST_DMA_PORT};
use inc::kvs::{
    decode_view, encode_request, expected_value, key_name, FrameHeader, KvsClient, LakeCacheConfig,
    LakeDevice, MemcachedConfig, MemcachedServer, MessageView, Request, Status, UniformGen,
    MEMCACHED_PORT,
};
use inc::net::{build_udp, Endpoint, Packet, UdpFrame};
use inc::ondemand::{
    run_host_controlled, HostController, HostControllerConfig, HostSample, IntervalObservation,
    RowLog,
};
use inc::sim::{LinkSpec, Nanos, Node, NodeId, PortId, Simulator};

fn kvs_rig(
    seed: u64,
    rate: f64,
    keys: u64,
    controller: Option<NetRateController>,
) -> (Simulator<Packet>, NodeId, NodeId, NodeId) {
    let mut sim = Simulator::new(seed);
    let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
    server.preload((0..keys).map(|i| {
        let k = key_name(i);
        (k.clone(), expected_value(&k, 64))
    }));
    let server = sim.add_node(server);
    let mut dev = LakeDevice::new(LakeCacheConfig::tiny(512, 8_192), 5);
    if let Some(c) = controller {
        dev = dev.with_controller(c);
    }
    let device = sim.add_node(dev);
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
    (sim, client, device, server)
}

#[test]
fn network_controller_shifts_up_under_load_and_back_when_idle() {
    // §9.1 network-controlled: thresholds on the in-classifier rate.
    let ctl = NetRateController::new(
        NetControllerConfig {
            up: RateTrigger {
                rate_pps: 100_000.0,
                window: Nanos::from_millis(200),
            },
            down: RateTrigger {
                rate_pps: 20_000.0,
                window: Nanos::from_millis(200),
            },
            epochs: 8,
        },
        Nanos::ZERO,
    );
    let (mut sim, client, device, _server) = kvs_rig(31, 10_000.0, 256, Some(ctl));

    // Low rate: stays in software.
    sim.run_until(Nanos::from_secs(1));
    assert_eq!(
        sim.node_ref::<LakeDevice>(device).placement(),
        Placement::Software
    );

    // Burst to 200 Kpps: the controller shifts to hardware.
    sim.node_mut::<KvsClient>(client).set_rate(200_000.0);
    sim.run_until(Nanos::from_secs(2));
    assert_eq!(
        sim.node_ref::<LakeDevice>(device).placement(),
        Placement::HARDWARE
    );

    // Back to a trickle: shifts back to software (hysteresis band).
    sim.node_mut::<KvsClient>(client).set_rate(5_000.0);
    sim.run_until(Nanos::from_secs(4));
    assert_eq!(
        sim.node_ref::<LakeDevice>(device).placement(),
        Placement::Software
    );
    let stats = sim.node_ref::<LakeDevice>(device).stats();
    assert_eq!(stats.shifts, 2, "exactly one round trip, no bouncing");
    // Correctness held throughout.
    let cs = sim.node_ref::<KvsClient>(client).stats();
    assert_eq!(cs.corrupt, 0);
    assert_eq!(cs.not_found, 0);
}

#[test]
fn host_controller_drives_the_figure6_loop() {
    let (mut sim, client, device, server) = kvs_rig(32, 16_000.0, 512, None);
    let mut controller = HostController::new(HostControllerConfig {
        interval: Nanos::from_millis(250),
        power_up_w: 70.0,
        cpu_up_util: 0.02,
        rate_down_pps: 30_000.0,
        power_down_w: 60.0,
        sustain_samples: 4,
    });
    let burst = (Nanos::from_secs(2), Nanos::from_secs(6));
    let timeline = run_host_controlled(
        &mut sim,
        &mut controller,
        Nanos::from_secs(9),
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
        |sim, t, p| sim.node_mut::<LakeDevice>(device).apply_placement(t, p),
    );

    assert_eq!(timeline.shifts.len(), 2, "up during burst, down after");
    assert_eq!(timeline.shifts[0].1, Placement::HARDWARE);
    assert_eq!(timeline.shifts[1].1, Placement::Software);
    let up = timeline.shifts[0].0;
    // Shift came after the sustain window inside the burst.
    assert!(up >= burst.0 + Nanos::from_millis(750), "up at {up}");
    // Throughput unaffected by the shift (the §9.2 claim).
    let before = timeline
        .mean_throughput_pps(up - Nanos::from_secs(1), up)
        .unwrap();
    let after = timeline
        .mean_throughput_pps(up, up + Nanos::from_secs(1))
        .unwrap();
    assert!((after / before - 1.0).abs() < 0.05, "{before} -> {after}");
    // Latency improved markedly once hardware-resident (warm cache).
    let sw_lat = timeline
        .median_latency_ns(Nanos::from_secs(1), burst.0)
        .unwrap();
    let hw_lat = timeline
        .median_latency_ns(up + Nanos::from_secs(1), burst.1)
        .unwrap();
    assert!(
        sw_lat as f64 / hw_lat as f64 > 3.0,
        "sw {sw_lat} vs hw {hw_lat}"
    );
}

#[test]
fn dns_on_demand_with_deep_name_punting() {
    let mut sim: Simulator<Packet> = Simulator::new(33);
    let names = 512u64;
    let zone = Zone::synthetic(names);
    // One record with a name too deep for the hardware parser: 18 labels
    // encode to ~158 bytes, past the 128-byte dataplane budget.
    let mut zone = zone;
    let deep = (0..18)
        .map(|i| format!("label{i:02}"))
        .collect::<Vec<_>>()
        .join(".")
        + ".example.com";
    let deep = deep.as_str();
    zone.insert(deep, std::net::Ipv4Addr::new(10, 9, 9, 9))
        .unwrap();

    let server = sim.add_node(DnsServer::new(
        DnsServerConfig::nsd_behind_emu(),
        zone.clone(),
    ));
    let device = sim.add_node(EmuDevice::new(zone).started_in_hardware());
    let client = sim.add_node(DnsClient::new(
        Endpoint::host(1, 40_000),
        Endpoint::host(2, DNS_PORT),
        50_000.0,
        names,
    ));
    sim.connect_duplex(
        client,
        PortId::P0,
        device,
        PortId::P0,
        LinkSpec::ten_gbe(Nanos::from_nanos(500)),
    );
    sim.connect_duplex(device, HOST_DMA_PORT, server, PortId::P0, LinkSpec::ideal());
    sim.run_until(Nanos::from_secs(1));

    let stats = sim.node_ref::<DnsClient>(client).stats();
    assert!(stats.received as f64 > stats.sent as f64 * 0.99);
    assert_eq!(stats.wrong, 0);
    let dev = sim.node_ref::<EmuDevice>(device).stats();
    assert!(dev.served_hw > 45_000);

    // Now the deep query: the device must punt it to software, which
    // resolves it (the §9.2 "worst case" path).
    let q = Query {
        id: 4242,
        name: Name::parse(deep).unwrap(),
        qtype: TYPE_A,
        recursion_desired: false,
    };
    let pkt = build_udp(
        Endpoint::host(1, 40_000),
        Endpoint::host(2, DNS_PORT),
        &q.encode(),
    );
    sim.inject(device, PortId::P0, pkt, Nanos::ZERO);
    sim.run_until(sim.now() + Nanos::from_millis(10));
    let dev_after = sim.node_ref::<EmuDevice>(device).stats();
    assert!(dev_after.to_host > dev.to_host, "deep name was not punted");
    let served = sim.node_ref::<DnsServer>(server).served();
    assert!(served > 0, "software never resolved the deep name");
}

#[test]
fn shift_under_sets_keeps_store_authoritative() {
    // Writes flow through to the host in hardware mode; after shifting
    // back, the host store must reflect every SET made while in hardware.
    let (mut sim, client, device, server) = kvs_rig(34, 30_000.0, 128, None);
    sim.node_mut::<KvsClient>(client).set_rate(0.0);
    sim.run_until(Nanos::from_millis(100));
    let now = sim.now();
    sim.node_mut::<LakeDevice>(device)
        .apply_placement(now, Placement::HARDWARE);

    // Issue write-heavy traffic in hardware placement.
    sim.node_mut::<KvsClient>(client).set_rate(30_000.0);
    // A 50/50 get/set mix this time.
    // (The generator is fixed at construction; emulate writes via a second client.)
    let writer = sim.add_node(KvsClient::open_loop(
        Endpoint::host(3, 40_001),
        Endpoint::host(2, MEMCACHED_PORT),
        10_000.0,
        Box::new(UniformGen {
            keys: 128,
            get_ratio: 0.0, // All SETs.
            value_len: 96,
        }),
    ));
    sim.connect_duplex(
        writer,
        PortId::P0,
        device,
        PortId(1),
        LinkSpec::ten_gbe(Nanos::from_nanos(500)),
    );
    sim.run_until(Nanos::from_secs(1));

    // Shift back; the authoritative store must hold the 96-byte values.
    let now = sim.now();
    sim.node_mut::<LakeDevice>(device)
        .apply_placement(now, Placement::Software);
    sim.run_until(Nanos::from_secs(2));
    // Read the store back through memcached's own protocol: one GET per
    // key straight into the server, each hit read off the server's link
    // by its opaque (the top bit keeps it clear of the clients' opaques):
    // (keys found, keys holding the 96-byte value).
    const READ_BACK: u32 = 1 << 31;
    let found: Rc<Cell<(u32, u32)>> = Rc::default();
    let tap = Rc::clone(&found);
    sim.set_link_tap(move |_, node, _, pkt: &Packet| {
        let Ok(frame) = UdpFrame::parse(pkt) else {
            return;
        };
        if let (true, Ok(MessageView::Response { response, .. })) =
            (node == server, decode_view(frame.payload))
        {
            if response.status == Status::Ok && response.opaque & READ_BACK != 0 {
                let key = key_name(u64::from(response.opaque & !READ_BACK));
                let (hits, updated) = tap.get();
                let written = response.value.len() == 96;
                if written {
                    assert_eq!(response.value, expected_value(&key, 96));
                }
                tap.set((hits + 1, updated + u32::from(written)));
            }
        }
    });
    for i in 0..128u32 {
        let frame = FrameHeader {
            request_id: i as u16,
            seq: 0,
            total: 1,
        };
        let get = Request::Get {
            key: key_name(u64::from(i)),
        };
        let payload = encode_request(frame, &get, READ_BACK | i);
        let pkt = build_udp(
            Endpoint::host(4, 40_002),
            Endpoint::host(2, MEMCACHED_PORT),
            &payload,
        );
        sim.inject(
            server,
            PortId::P0,
            pkt,
            Nanos::from_micros(100 * u64::from(i)),
        );
    }
    sim.run_until(Nanos::from_millis(2_020));
    let (hits, updated) = found.get();
    assert_eq!(hits, 128, "every key is stored");
    assert!(updated > 100, "only {updated} keys written through");
    // And GET clients never saw corruption.
    assert_eq!(sim.node_ref::<KvsClient>(client).stats().corrupt, 0);
}
