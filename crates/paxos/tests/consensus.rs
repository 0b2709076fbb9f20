//! Full-system Paxos integration: clients, a steerable switch, software
//! and hardware leaders, three acceptors, and a replica.
//!
//! Reproduces the Figure 7 mechanics: consensus runs against the software
//! leader; the coordinator re-steers the virtual leader address to the
//! P4xos device and activates it; clients stall for about one retry
//! timeout; the new leader scouts a higher ballot and numbers on past
//! every slot it adopts; throughput resumes (higher) with no safety
//! violation.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
use inc_net::{Endpoint, L2Switch, Match, Packet};
use inc_paxos::multi::{Acceptor, Leader, Replica};
use inc_paxos::{
    AddressBook, HostConfig, PaxosClient, PaxosNode, Platform, PAXOS_ACCEPTOR_PORT,
    PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
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
    replica: NodeId,
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
        Leader::new(0, N_ACCEPTORS, 1),
        Platform::host(HostConfig::libpaxos_leader()),
        book(Endpoint::host(20, PAXOS_LEADER_PORT)),
    ));
    let sw_leader_port = attach(&mut sim, sw_leader);

    // Hardware leader (idle standby).
    let mut standby = PaxosNode::new(
        Leader::new(1, N_ACCEPTORS, 1),
        Platform::fpga(),
        book(Endpoint::host(21, PAXOS_LEADER_PORT)),
    );
    standby.deactivate();
    let hw_leader = sim.add_node(standby);
    let hw_leader_port = attach(&mut sim, hw_leader);

    let mut acceptors = Vec::new();
    for i in 0..N_ACCEPTORS as u32 {
        let ep = Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT);
        let node = sim.add_node(PaxosNode::new(
            Acceptor::new(i as u8),
            Platform::host(HostConfig::libpaxos_acceptor()),
            book(ep),
        ));
        attach(&mut sim, node);
        acceptors.push(node);
    }

    let replica = sim.add_node(PaxosNode::new(
        Replica::new(0, N_ACCEPTORS),
        Platform::host(HostConfig::libpaxos_learner()),
        book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
    ));
    attach(&mut sim, replica);

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
        replica,
        sw_leader_port,
        hw_leader_port,
    }
}

fn replica(rig: &Rig) -> &Replica {
    rig.sim.node_ref::<PaxosNode<Replica>>(rig.replica).role()
}

/// The replica's executed log tail runs slot by slot up to `slot_out`.
fn assert_log_runs_to_slot_out(r: &Replica) {
    let slots: Vec<u64> = r.log_tail().iter().map(|e| e.0).collect();
    assert!(slots.windows(2).all(|w| w[0] < w[1]), "log out of order");
    assert!(slots.last().is_some_and(|&s| s < r.slot_out()));
}

/// Moves leadership from `from` to `to` as the coordinator does (§9.2).
fn shift(rig: &mut Rig, from: (NodeId, PortId), to: (NodeId, PortId)) {
    rig.sim.node_mut::<PaxosNode<Leader>>(from.0).deactivate();
    let sw = rig.sim.node_mut::<L2Switch>(rig.switch);
    sw.unsteer_port(from.1);
    sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), to.1);
    rig.sim
        .with_node_ctx::<PaxosNode<Leader>, _>(to.0, |n, ctx| n.activate(ctx));
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
    // The replica executed in order with no duplicates (no retries in a
    // loss-free run) and no no-op fills (no leader change).
    let r = replica(&rig);
    assert_eq!(r.duplicates, 0);
    assert_log_runs_to_slot_out(r);
    assert_eq!(r.slot_out() - 1, r.executed_count);
    assert!(r.executed_count >= acked, "{acked} acked past the log");
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

    // The §9.2 shift: deactivate the software leader, re-steer, activate
    // the P4xos leader, which scouts for a higher ballot.
    let (sw, hw) = (
        (rig.sw_leader, rig.sw_leader_port),
        (rig.hw_leader, rig.hw_leader_port),
    );
    shift(&mut rig, sw, hw);

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

    // Safety: in-order execution, and every acked command ran once.
    let r = replica(&rig);
    assert_log_runs_to_slot_out(r);
    assert!(r.executed_count >= total_acked(&rig));
}

#[test]
fn shift_back_to_software_leader() {
    let mut rig = build_rig(2, Nanos::from_millis(100));
    rig.sim.run_until(Nanos::from_secs(1));

    // Shift to hardware...
    let (sw, hw) = (
        (rig.sw_leader, rig.sw_leader_port),
        (rig.hw_leader, rig.hw_leader_port),
    );
    shift(&mut rig, sw, hw);
    rig.sim.run_until(Nanos::from_secs(2));

    // ...and back to software, whose next scout outbids the P4xos
    // leader's ballot (Figure 7 shifts both ways).
    shift(&mut rig, hw, sw);
    let before = total_acked(&rig);
    rig.sim.run_until(Nanos::from_secs(3));
    let after = total_acked(&rig);
    assert!(
        after > before + 500,
        "consensus stalled after shifting back: {before} -> {after}"
    );

    // Acceptor votes kept flowing throughout, and the replica's slot
    // reports kept each acceptor's floor within a few reports of the
    // end of the log.
    let slot_out = replica(&rig).slot_out();
    for &a in &rig.acceptors {
        let node = rig.sim.node_ref::<PaxosNode<Acceptor>>(a);
        let acceptor = node.role();
        assert!(acceptor.votes > 1_000);
        assert!(
            acceptor.accepted_len() < 200,
            "{} slots",
            acceptor.accepted_len()
        );
        assert!(
            acceptor.floor() + 200 > slot_out,
            "floor {}",
            acceptor.floor()
        );
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
        Leader::new(0, N_ACCEPTORS, 1),
        Platform::host(HostConfig::dpdk_leader()),
        book(Endpoint::host(20, PAXOS_LEADER_PORT)),
    ));
    let lp = attach(&mut sim, leader);
    for i in 0..N_ACCEPTORS as u32 {
        let ep = Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT);
        let n = sim.add_node(PaxosNode::new(
            Acceptor::new(i as u8),
            Platform::host(HostConfig::dpdk_acceptor()),
            book(ep),
        ));
        attach(&mut sim, n);
    }
    let replica = sim.add_node(PaxosNode::new(
        Replica::new(0, N_ACCEPTORS),
        Platform::host(HostConfig::dpdk_acceptor()),
        book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
    ));
    attach(&mut sim, replica);
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
