//! P4xos on the switch ASIC: bounded register-array storage with instance
//! wraparound (§6's "architecture-specific changes to the code for memory
//! accesses"), running the full protocol end to end.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
use inc_net::{Endpoint, L2Switch, Match, Packet};
use inc_paxos::{
    Acceptor, AcceptorStorage, AddressBook, HostConfig, Leader, Learner, PaxosClient, PaxosNode,
    Platform, RoleEngine, PAXOS_ACCEPTOR_PORT, PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
use inc_sim::{LinkSpec, Nanos, NodeId, PortId, Simulator};

const N_ACCEPTORS: usize = 3;
/// Deliberately small register array so the run wraps it many times.
const RING_SLOTS: usize = 1_024;

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

#[test]
fn asic_acceptors_with_ring_storage_sustain_wraparound() {
    let mut sim: Simulator<Packet> = Simulator::new(61);
    let switch = sim.add_node(L2Switch::new(10));
    let mut port = 0u16;
    let mut attach = |sim: &mut Simulator<Packet>, n: NodeId| -> PortId {
        let p = PortId(port);
        port += 1;
        sim.connect_duplex(
            n,
            PortId::P0,
            switch,
            p,
            LinkSpec {
                bandwidth_bps: Some(40e9),
                ..LinkSpec::ten_gbe(Nanos::from_micros(1))
            },
        );
        p
    };
    // The leader also runs on the ASIC platform (both roles in-switch, §6).
    let leader = sim.add_node(PaxosNode::new(
        RoleEngine::Leader(Leader::bootstrap(1, N_ACCEPTORS)),
        Platform::asic(),
        book(Endpoint::host(20, PAXOS_LEADER_PORT)),
    ));
    let lp = attach(&mut sim, leader);
    for i in 0..N_ACCEPTORS as u32 {
        let n = sim.add_node(PaxosNode::new(
            RoleEngine::Acceptor(Acceptor::new(i as u8, AcceptorStorage::ring(RING_SLOTS))),
            Platform::asic(),
            book(Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT)),
        ));
        attach(&mut sim, n);
    }
    let learner = sim.add_node(PaxosNode::new(
        RoleEngine::Learner(Learner::new(N_ACCEPTORS)),
        Platform::host(HostConfig::dpdk_acceptor()),
        book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
    ));
    attach(&mut sim, learner);
    let mut clients = Vec::new();
    for id in 0..8u32 {
        // Deep closed-loop pipelines to push many instances through.
        let c = sim.add_node(PaxosClient::new(
            100 + id,
            Endpoint::host(99, PAXOS_LEADER_PORT),
            8,
            Nanos::from_millis(100),
        ));
        attach(&mut sim, c);
        clients.push(c);
    }
    sim.node_mut::<L2Switch>(switch)
        .steer(Match::udp_dst(PAXOS_LEADER_PORT), lp);

    sim.run_until(Nanos::from_secs(1));

    let acked: u64 = clients
        .iter()
        .map(|&c| sim.node_ref::<PaxosClient>(c).stats().acked)
        .sum();
    // Well beyond the ring size: every slot recycled many times over.
    assert!(
        acked > RING_SLOTS as u64 * 10,
        "only {acked} commands through a {RING_SLOTS}-slot ring"
    );
    let node = sim.node_ref::<PaxosNode>(learner);
    if let RoleEngine::Learner(l) = node.engine() {
        assert!(l.delivered_count > RING_SLOTS as u64 * 10);
        assert!(!l.has_gap(), "delivery stuck behind a gap");
        let mut prev = 0;
        for &(inst, _) in &l.delivered {
            assert_eq!(inst, prev + 1, "out of order at {inst}");
            prev = inst;
        }
        assert_eq!(l.duplicates, 0);
    } else {
        panic!("learner role changed");
    }
}

#[test]
fn asic_platform_power_tracks_normalized_model() {
    use inc_hw::{TofinoModel, TofinoProgram};
    use inc_sim::Node;
    // An idle ASIC node must report the normalized idle power of the
    // L2+P4xos program under the documented envelope.
    let node = PaxosNode::new(
        RoleEngine::Acceptor(Acceptor::new(0, AcceptorStorage::ring(64))),
        Platform::asic(),
        book(Endpoint::host(10, PAXOS_ACCEPTOR_PORT)),
    );
    let t = TofinoModel::snake_32x40();
    let expect = t.power_w(TofinoProgram::L2WithP4xos, 0.0);
    assert!((node.power_w(Nanos::ZERO) - expect).abs() < 1e-9);
}
