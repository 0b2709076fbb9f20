//! The Figure 7 scenario: moving a Paxos leader from a libpaxos process
//! into a P4xos dataplane and back, without losing safety.
//!
//! Shows the full §9.2 machinery on the Multi-Paxos roles: virtual-leader
//! steering at the switch, the activated leader scouting a higher ballot
//! and numbering on past every slot it adopts, client retry across the
//! outage, and the replica's slot reports, which let the acceptors forget
//! what every replica has executed.
//!
//! Run with: `cargo run --example paxos_leader_shift`

use inc::net::{Endpoint, L2Switch, Match, Packet};
use inc::paxos::multi::{Acceptor, Leader, Replica};
use inc::paxos::{
    AddressBook, HostConfig, PaxosClient, PaxosNode, Platform, Role, PAXOS_ACCEPTOR_PORT,
    PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
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

/// The role a node of the deployment runs.
fn role<R: Role>(sim: &Simulator<Packet>, node: NodeId) -> &R {
    sim.node_ref::<PaxosNode<R>>(node).role()
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
        Leader::new(0, N_ACCEPTORS, 1),
        Platform::host(HostConfig::libpaxos_leader()),
        book(Endpoint::host(20, PAXOS_LEADER_PORT)),
    ));
    let sw_port = attach(&mut sim, sw_leader);
    let mut standby = PaxosNode::new(
        Leader::new(1, N_ACCEPTORS, 1),
        Platform::fpga(),
        book(Endpoint::host(21, PAXOS_LEADER_PORT)),
    );
    standby.deactivate();
    let hw_leader = sim.add_node(standby);
    let hw_port = attach(&mut sim, hw_leader);
    let mut acceptors = Vec::new();
    for i in 0..N_ACCEPTORS as u32 {
        let n = sim.add_node(PaxosNode::new(
            Acceptor::new(i as u8),
            Platform::host(HostConfig::libpaxos_acceptor()),
            book(Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT)),
        ));
        attach(&mut sim, n);
        acceptors.push(n);
    }
    let replica = sim.add_node(PaxosNode::new(
        Replica::new(0, N_ACCEPTORS),
        Platform::host(HostConfig::libpaxos_learner()),
        book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
    ));
    attach(&mut sim, replica);
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
    // the dataplane leader, which scouts for a higher ballot.
    println!("\n-- shifting leader to the P4xos device --");
    sim.node_mut::<PaxosNode<Leader>>(sw_leader).deactivate();
    {
        let sw = sim.node_mut::<L2Switch>(switch);
        sw.unsteer_port(sw_port);
        sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), hw_port);
    }
    sim.with_node_ctx::<PaxosNode<Leader>, _>(hw_leader, |n, ctx| n.activate(ctx));
    sim.run_until(Nanos::from_secs(2));
    let a2 = report(&sim, "phase 2 (P4xos leader, 1 s)", a1);

    // And back: the software leader outbids the P4xos leader's ballot.
    println!("\n-- shifting leader back to software --");
    sim.node_mut::<PaxosNode<Leader>>(hw_leader).deactivate();
    {
        let sw = sim.node_mut::<L2Switch>(switch);
        sw.unsteer_port(hw_port);
        sw.steer(Match::udp_dst(PAXOS_LEADER_PORT), sw_port);
    }
    sim.with_node_ctx::<PaxosNode<Leader>, _>(sw_leader, |n, ctx| n.activate(ctx));
    sim.run_until(Nanos::from_secs(3));
    report(&sim, "phase 3 (libpaxos leader again, 1 s)", a2);

    // Safety audit: the replica executes in slot order; the acceptors
    // keep only the slots it has not executed yet.
    let r: &Replica = role(&sim, replica);
    println!(
        "\nreplica: {} slots executed in order, {} commands, duplicates={}",
        r.slot_out() - 1,
        r.executed_count,
        r.duplicates
    );
    let kept = acceptors
        .iter()
        .map(|&a| role::<Acceptor>(&sim, a).accepted_len())
        .max()
        .unwrap_or(0);
    println!("acceptors: at most {kept} slots kept each");
    let retries: u64 = clients
        .iter()
        .map(|&c| sim.node_ref::<PaxosClient>(c).stats().retries)
        .sum();
    println!("client retries absorbed by the shifts: {retries}");
}
