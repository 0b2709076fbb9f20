//! Full-system Paxos integration: clients, a steerable switch, software
//! and hardware leaders, three acceptors, and a learner.
//!
//! Reproduces the Figure 7 mechanics: consensus runs against the software
//! leader; the coordinator re-steers the virtual leader address to the
//! P4xos device and activates it; clients stall for about one retry
//! timeout; the new leader recovers the instance counter; throughput
//! resumes (higher) with no safety violation.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
use inc_net::{Endpoint, L2Switch, Match, Packet};
use inc_paxos::{
    Acceptor, AddressBook, HostConfig, Leader, Learner, PaxosClient, PaxosNode, Platform,
    RoleEngine, PAXOS_ACCEPTOR_PORT, PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
use inc_sim::{LinkSpec, Nanos, NodeId, PortId, Simulator};

const N_ACCEPTORS: usize = 3;

struct Rig {
    sim: Simulator<Packet>,
    switch: NodeId,
    clients: Vec<NodeId>,
    sw_leader: NodeId,
    hw_leader: NodeId,
    acceptors: Vec<NodeId>,
    learner: NodeId,
    sw_leader_port: PortId,
    hw_leader_port: PortId,
}

fn book(own: Endpoint) -> AddressBook {
    AddressBook {
        own,
        leader: Endpoint::host(99, PAXOS_LEADER_PORT),
        acceptors: (0..N_ACCEPTORS as u32)
            .map(|i| Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT))
            .collect(),
        learners: vec![Endpoint::host(30, PAXOS_LEARNER_PORT)],
    }
}

fn build_rig(n_clients: u32, timeout: Nanos) -> Rig {
    let mut sim = Simulator::new(11);
    let n_ports = 4 + n_clients as u16 + N_ACCEPTORS as u16;
    let switch = sim.add_node(L2Switch::new(n_ports));
    let mut next_port = 0u16;
    let mut attach = |sim: &mut Simulator<Packet>, node: NodeId| -> PortId {
        let p = PortId(next_port);
        next_port += 1;
        sim.connect_duplex(
            node,
            PortId::P0,
            switch,
            p,
            LinkSpec::ten_gbe(Nanos::from_micros(1)),
        );
        p
    };

    // Software leader (active at start of day).
    let sw_leader = sim.add_node(PaxosNode::new(
        RoleEngine::Leader(Leader::bootstrap(1, N_ACCEPTORS)),
        Platform::host(HostConfig::libpaxos_leader()),
        book(Endpoint::host(20, PAXOS_LEADER_PORT)),
    ));
    let sw_leader_port = attach(&mut sim, sw_leader);

    // Hardware leader (idle standby).
    let hw_leader = sim.add_node(PaxosNode::new(
        RoleEngine::Idle,
        Platform::fpga(),
        book(Endpoint::host(21, PAXOS_LEADER_PORT)),
    ));
    let hw_leader_port = attach(&mut sim, hw_leader);

    let mut acceptors = Vec::new();
    for i in 0..N_ACCEPTORS as u32 {
        let ep = Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT);
        let node = sim.add_node(PaxosNode::new(
            RoleEngine::Acceptor(Acceptor::new(i as u8)),
            Platform::host(HostConfig::libpaxos_acceptor()),
            book(ep),
        ));
        attach(&mut sim, node);
        acceptors.push(node);
    }

    let learner = sim.add_node(PaxosNode::new(
        RoleEngine::Learner(Learner::new(N_ACCEPTORS)),
        Platform::host(HostConfig::libpaxos_learner()),
        book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
    ));
    attach(&mut sim, learner);

    let mut clients = Vec::new();
    for id in 0..n_clients {
        let c = sim.add_node(PaxosClient::new(
            100 + id,
            Endpoint::host(99, PAXOS_LEADER_PORT),
            1,
            timeout,
        ));
        attach(&mut sim, c);
        clients.push(c);
    }

    // Steer the virtual leader port to the software leader.
    sim.node_mut::<L2Switch>(switch)
        .steer(Match::udp_dst(PAXOS_LEADER_PORT), sw_leader_port);

    Rig {
        sim,
        switch,
        clients,
        sw_leader,
        hw_leader,
        acceptors,
        learner,
        sw_leader_port,
        hw_leader_port,
    }
}

fn total_acked(rig: &Rig) -> u64 {
    rig.clients
        .iter()
        .map(|&c| rig.sim.node_ref::<PaxosClient>(c).stats().acked)
        .sum()
}

#[test]
fn consensus_reaches_clients() {
    let mut rig = build_rig(4, Nanos::from_millis(100));
    rig.sim.run_until(Nanos::from_secs(1));
    let acked = total_acked(&rig);
    assert!(acked > 1_000, "only {acked} commands acked");
    // The learner delivered in order with no duplicates (no retries in a
    // loss-free run).
    let learner = rig.sim.node_ref::<PaxosNode>(rig.learner);
    if let RoleEngine::Learner(l) = learner.engine() {
        assert_eq!(l.duplicates, 0);
        assert!(!l.has_gap(), "a decided instance held behind a gap");
        assert_eq!(l.log_tail().last().map(|e| e.0), Some(l.delivered_count));
        assert!(l.delivered_count >= acked, "{acked} acked past the log");
    } else {
        panic!("learner role changed");
    }
}

#[test]
fn leader_shift_recovers_and_doubles_throughput() {
    let mut rig = build_rig(4, Nanos::from_millis(100));
    // Phase 1: software leader for 2 s.
    rig.sim.run_until(Nanos::from_secs(2));
    let acked_sw = total_acked(&rig);
    assert!(acked_sw > 2_000, "sw phase acked {acked_sw}");
    let mut sw_window = Vec::new();
    for &c in &rig.clients {
        let (n, lat) = rig.sim.node_mut::<PaxosClient>(c).take_window();
        sw_window.push((n, lat));
    }

    // The §9.2 shift: deactivate software leader, re-steer, activate the
    // P4xos leader with a higher round.
    let now = rig.sim.now();
    let _ = now;
    rig.sim.node_mut::<PaxosNode>(rig.sw_leader).deactivate();
    let hw_port = rig.hw_leader_port;
    let sw_port = rig.sw_leader_port;
    {
        let sw = rig.sim.node_mut::<L2Switch>(rig.switch);
        sw.unsteer_port(sw_port);
        sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), hw_port);
    }
    rig.sim
        .with_node_ctx::<PaxosNode, _>(rig.hw_leader, |node, ctx| {
            node.activate_leader(ctx, 2);
        });

    // Phase 2: hardware leader for 2 s (plus recovery).
    rig.sim.run_until(Nanos::from_secs(4));
    let mut hw_window = Vec::new();
    for &c in &rig.clients {
        let (n, lat) = rig.sim.node_mut::<PaxosClient>(c).take_window();
        hw_window.push((n, lat));
    }

    // Clients retried across the outage and continued.
    let retries: u64 = rig
        .clients
        .iter()
        .map(|&c| rig.sim.node_ref::<PaxosClient>(c).stats().retries)
        .sum();
    assert!(retries > 0, "the shift should force at least one retry");

    // Throughput increased and latency dropped (Figure 7: throughput up,
    // latency halved).
    let sw_n: u64 = sw_window.iter().map(|(n, _)| n).sum();
    let hw_n: u64 = hw_window.iter().map(|(n, _)| n).sum();
    assert!(
        hw_n as f64 > sw_n as f64 * 1.3,
        "throughput sw {sw_n} vs hw {hw_n}"
    );
    let sw_p50: u64 = sw_window
        .iter()
        .map(|(_, l)| l.quantile(0.5))
        .max()
        .unwrap();
    let hw_p50: u64 = hw_window
        .iter()
        .map(|(_, l)| l.quantile(0.5))
        .max()
        .unwrap();
    assert!(
        (sw_p50 as f64) > (hw_p50 as f64) * 1.5,
        "latency sw {sw_p50} vs hw {hw_p50}"
    );

    // Safety: in-order delivery, and the new leader did not overwrite
    // decided instances (no gaps or duplicate instance deliveries).
    let learner = rig.sim.node_ref::<PaxosNode>(rig.learner);
    if let RoleEngine::Learner(l) = learner.engine() {
        assert!(
            !l.has_gap(),
            "a decided instance held behind a gap after shift"
        );
        assert_eq!(l.log_tail().last().map(|e| e.0), Some(l.delivered_count));
    }
}

#[test]
fn shift_back_to_software_leader() {
    let mut rig = build_rig(2, Nanos::from_millis(100));
    rig.sim.run_until(Nanos::from_secs(1));

    // Shift to hardware...
    rig.sim.node_mut::<PaxosNode>(rig.sw_leader).deactivate();
    let (sw_port, hw_port) = (rig.sw_leader_port, rig.hw_leader_port);
    {
        let sw = rig.sim.node_mut::<L2Switch>(rig.switch);
        sw.unsteer_port(sw_port);
        sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), hw_port);
    }
    rig.sim
        .with_node_ctx::<PaxosNode, _>(rig.hw_leader, |n, ctx| n.activate_leader(ctx, 2));
    rig.sim.run_until(Nanos::from_secs(2));

    // ...and back to software with round 3 (Figure 7 shifts both ways).
    rig.sim.node_mut::<PaxosNode>(rig.hw_leader).deactivate();
    {
        let sw = rig.sim.node_mut::<L2Switch>(rig.switch);
        sw.unsteer_port(hw_port);
        sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), sw_port);
    }
    rig.sim
        .with_node_ctx::<PaxosNode, _>(rig.sw_leader, |n, ctx| n.activate_leader(ctx, 3));
    let before = total_acked(&rig);
    rig.sim.run_until(Nanos::from_secs(3));
    let after = total_acked(&rig);
    assert!(
        after > before + 500,
        "consensus stalled after shifting back: {before} -> {after}"
    );

    // Acceptor votes kept flowing throughout.
    for &a in &rig.acceptors {
        let node = rig.sim.node_ref::<PaxosNode>(a);
        assert!(node.handled() > 1_000);
    }
}

#[test]
fn dpdk_deployment_also_reaches_consensus() {
    // Swap every host role to the DPDK variant and re-run briefly.
    let mut sim = Simulator::new(3);
    let switch = sim.add_node(L2Switch::new(8));
    let mut port = 0u16;
    let mut attach = |sim: &mut Simulator<Packet>, node: NodeId| -> PortId {
        let p = PortId(port);
        port += 1;
        sim.connect_duplex(node, PortId::P0, switch, p, LinkSpec::ideal());
        p
    };
    let leader = sim.add_node(PaxosNode::new(
        RoleEngine::Leader(Leader::bootstrap(1, N_ACCEPTORS)),
        Platform::host(HostConfig::dpdk_leader()),
        book(Endpoint::host(20, PAXOS_LEADER_PORT)),
    ));
    let lp = attach(&mut sim, leader);
    for i in 0..N_ACCEPTORS as u32 {
        let ep = Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT);
        let n = sim.add_node(PaxosNode::new(
            RoleEngine::Acceptor(Acceptor::new(i as u8)),
            Platform::host(HostConfig::dpdk_acceptor()),
            book(ep),
        ));
        attach(&mut sim, n);
    }
    let learner = sim.add_node(PaxosNode::new(
        RoleEngine::Learner(Learner::new(N_ACCEPTORS)),
        Platform::host(HostConfig::dpdk_acceptor()),
        book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
    ));
    attach(&mut sim, learner);
    let client = sim.add_node(PaxosClient::new(
        100,
        Endpoint::host(99, PAXOS_LEADER_PORT),
        4,
        Nanos::from_millis(100),
    ));
    attach(&mut sim, client);
    sim.node_mut::<L2Switch>(switch)
        .steer(Match::udp_dst(PAXOS_LEADER_PORT), lp);
    sim.run_until(Nanos::from_secs(1));
    let acked = sim.node_ref::<PaxosClient>(client).stats().acked;
    assert!(acked > 5_000, "dpdk acked only {acked}");
}
