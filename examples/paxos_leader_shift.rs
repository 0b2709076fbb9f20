//! The Figure 7 scenario: moving a Paxos leader from a libpaxos process
//! into a P4xos dataplane and back, without losing safety.
//!
//! Shows the full §9.2 machinery: virtual-leader steering at the switch,
//! leader election with a higher round, instance-counter recovery from
//! acceptor `last_voted` feedback, client retry across the outage, and
//! learner gap handling.
//!
//! Run with: `cargo run --example paxos_leader_shift`

use inc::net::{Endpoint, L2Switch, Match, Packet};
use inc::paxos::{
    Acceptor, AddressBook, HostConfig, Leader, Learner, PaxosClient, PaxosNode, Platform,
    RoleEngine, PAXOS_ACCEPTOR_PORT, PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
use inc::sim::{LinkSpec, Nanos, NodeId, PortId, Simulator};

const N_ACCEPTORS: usize = 3;

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

fn main() {
    let mut sim: Simulator<Packet> = Simulator::new(23);
    let switch = sim.add_node(L2Switch::new(12));
    let mut port = 0u16;
    let mut attach = |sim: &mut Simulator<Packet>, n: NodeId| -> PortId {
        let p = PortId(port);
        port += 1;
        sim.connect_duplex(
            n,
            PortId::P0,
            switch,
            p,
            LinkSpec::ten_gbe(Nanos::from_micros(1)),
        );
        p
    };

    let sw_leader = sim.add_node(PaxosNode::new(
        RoleEngine::Leader(Leader::bootstrap(1, N_ACCEPTORS)),
        Platform::host(HostConfig::libpaxos_leader()),
        book(Endpoint::host(20, PAXOS_LEADER_PORT)),
    ));
    let sw_port = attach(&mut sim, sw_leader);
    let hw_leader = sim.add_node(PaxosNode::new(
        RoleEngine::Idle,
        Platform::fpga(),
        book(Endpoint::host(21, PAXOS_LEADER_PORT)),
    ));
    let hw_port = attach(&mut sim, hw_leader);
    for i in 0..N_ACCEPTORS as u32 {
        let n = sim.add_node(PaxosNode::new(
            RoleEngine::Acceptor(Acceptor::new(i as u8)),
            Platform::host(HostConfig::libpaxos_acceptor()),
            book(Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT)),
        ));
        attach(&mut sim, n);
    }
    let learner = sim.add_node(PaxosNode::new(
        RoleEngine::Learner(Learner::new(N_ACCEPTORS)),
        Platform::host(HostConfig::libpaxos_learner()),
        book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
    ));
    attach(&mut sim, learner);
    let mut clients = Vec::new();
    for id in 0..4u32 {
        let c = sim.add_node(PaxosClient::new(
            100 + id,
            Endpoint::host(99, PAXOS_LEADER_PORT),
            1,
            Nanos::from_millis(100),
        ));
        attach(&mut sim, c);
        clients.push(c);
    }
    sim.node_mut::<L2Switch>(switch)
        .steer(Match::udp_dst(PAXOS_LEADER_PORT), sw_port);

    let report = |sim: &Simulator<Packet>, label: &str, acked_before: u64| -> u64 {
        let acked: u64 = clients
            .iter()
            .map(|&c| sim.node_ref::<PaxosClient>(c).stats().acked)
            .sum();
        println!("{label}: +{} commands decided", acked - acked_before);
        acked
    };

    // Phase 1: software leader.
    sim.run_until(Nanos::from_secs(1));
    let a1 = report(&sim, "phase 1 (libpaxos leader, 1 s)", 0);

    // Shift: stop the old leader, re-steer the virtual address, activate
    // the dataplane leader with round 2.
    println!("\n-- shifting leader to the P4xos device --");
    sim.node_mut::<PaxosNode>(sw_leader).deactivate();
    {
        let sw = sim.node_mut::<L2Switch>(switch);
        sw.unsteer_port(sw_port);
        sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), hw_port);
    }
    sim.with_node_ctx::<PaxosNode, _>(hw_leader, |n, ctx| n.activate_leader(ctx, 2));
    sim.run_until(Nanos::from_secs(2));
    let a2 = report(&sim, "phase 2 (P4xos leader, 1 s)", a1);

    // And back with round 3.
    println!("\n-- shifting leader back to software --");
    sim.node_mut::<PaxosNode>(hw_leader).deactivate();
    {
        let sw = sim.node_mut::<L2Switch>(switch);
        sw.unsteer_port(hw_port);
        sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), sw_port);
    }
    sim.with_node_ctx::<PaxosNode, _>(sw_leader, |n, ctx| n.activate_leader(ctx, 3));
    sim.run_until(Nanos::from_secs(3));
    report(&sim, "phase 3 (libpaxos leader again, 1 s)", a2);

    // Safety audit.
    let node = sim.node_ref::<PaxosNode>(learner);
    if let RoleEngine::Learner(l) = node.engine() {
        println!(
            "\nlearner: {} instances delivered, in_order={}, duplicates={}",
            l.delivered_count,
            !l.has_gap(),
            l.duplicates
        );
    }
    let retries: u64 = clients
        .iter()
        .map(|&c| sim.node_ref::<PaxosClient>(c).stats().retries)
        .sum();
    println!("client retries absorbed by the shifts: {retries}");
}
