//! Failure injection: the full application stacks running over lossy
//! links, plus the chaos scenario suite coupling Multi-Paxos role
//! machines to the fleet controller (device death, ToR partition,
//! power-budget flap). Consensus must stay safe and live (via
//! retries); the KVS client must never observe corruption, only loss;
//! every chaos scenario must satisfy both consensus safety properties
//! and recover within its deadline (measured in controller intervals).

use inc::hw::HOST_DMA_PORT;
use inc::kvs::{
    expected_value, key_name, KvsClient, LakeCacheConfig, LakeDevice, MemcachedConfig,
    MemcachedServer, UniformGen, MEMCACHED_PORT,
};
use inc::net::{Endpoint, L2Switch, Match, Packet};
use inc::paxos::multi::{Acceptor, Leader, Replica};
use inc::paxos::{
    AddressBook, HostConfig, PaxosClient, PaxosNode, Platform, PAXOS_ACCEPTOR_PORT,
    PAXOS_LEADER_PORT, PAXOS_LEARNER_PORT,
};
use inc::sim::{LinkSpec, Nanos, NodeId, PortId, Simulator};

#[test]
fn link_loss_rate_is_respected() {
    use inc::sim::{impl_node_any, Ctx, Node};
    struct Source;
    impl Node<u64> for Source {
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.schedule_in(Nanos::from_micros(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _tag: u64) {
            ctx.send(PortId::P0, 1);
            ctx.schedule_in(Nanos::from_micros(1), 0);
        }
        impl_node_any!();
    }
    #[derive(Default)]
    struct Sink(u64);
    impl Node<u64> for Sink {
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: PortId, _: u64) {
            self.0 += 1;
        }
        impl_node_any!();
    }
    let mut sim = Simulator::new(5);
    let src = sim.add_node(Source);
    let dst = sim.add_node(Sink::default());
    sim.connect(
        src,
        PortId::P0,
        dst,
        PortId::P0,
        LinkSpec::ideal().with_loss(0.25),
    );
    sim.run_until(Nanos::from_millis(100));
    let got = sim.node_ref::<Sink>(dst).0;
    let sent = 100_000u64;
    let ratio = got as f64 / sent as f64;
    assert!((0.72..0.78).contains(&ratio), "delivery ratio {ratio}");
    assert_eq!(sim.lost() + got, sent);
}

#[test]
fn paxos_stays_safe_and_live_over_lossy_links() {
    const N_ACCEPTORS: usize = 3;
    let book = |own: Endpoint| AddressBook {
        own,
        leader: Endpoint::host(99, PAXOS_LEADER_PORT),
        acceptors: (0..N_ACCEPTORS as u32)
            .map(|i| Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT))
            .collect(),
        learners: vec![Endpoint::host(30, PAXOS_LEARNER_PORT)],
    };
    let mut sim: Simulator<Packet> = Simulator::new(44);
    let switch = sim.add_node(L2Switch::new(10));
    let mut port = 0u16;
    // Every link drops 2 % of packets in each direction.
    let lossy = LinkSpec::ten_gbe(Nanos::from_micros(1)).with_loss(0.02);
    let mut attach = |sim: &mut Simulator<Packet>, n: NodeId| -> PortId {
        let p = PortId(port);
        port += 1;
        sim.connect_duplex(n, PortId::P0, switch, p, lossy);
        p
    };
    let leader = sim.add_node(PaxosNode::new(
        Leader::new(0, N_ACCEPTORS, 1),
        Platform::host(HostConfig::libpaxos_leader()),
        book(Endpoint::host(20, PAXOS_LEADER_PORT)),
    ));
    let lp = attach(&mut sim, leader);
    for i in 0..N_ACCEPTORS as u32 {
        let n = sim.add_node(PaxosNode::new(
            Acceptor::new(i as u8),
            Platform::host(HostConfig::libpaxos_acceptor()),
            book(Endpoint::host(10 + i, PAXOS_ACCEPTOR_PORT)),
        ));
        attach(&mut sim, n);
    }
    let replica = sim.add_node(PaxosNode::new(
        Replica::new(0, N_ACCEPTORS),
        Platform::host(HostConfig::libpaxos_learner()),
        book(Endpoint::host(30, PAXOS_LEARNER_PORT)),
    ));
    attach(&mut sim, replica);
    let mut clients = Vec::new();
    for id in 0..3u32 {
        let c = sim.add_node(PaxosClient::new(
            100 + id,
            Endpoint::host(99, PAXOS_LEADER_PORT),
            1,
            Nanos::from_millis(20),
        ));
        attach(&mut sim, c);
        clients.push(c);
    }
    sim.node_mut::<L2Switch>(switch)
        .steer(Match::udp_dst(PAXOS_LEADER_PORT), lp);

    sim.run_until(Nanos::from_secs(3));

    // Liveness: commands keep completing despite the loss.
    let acked: u64 = clients
        .iter()
        .map(|&c| sim.node_ref::<PaxosClient>(c).stats().acked)
        .sum();
    assert!(acked > 1_500, "only {acked} commands under loss");
    let retries: u64 = clients
        .iter()
        .map(|&c| sim.node_ref::<PaxosClient>(c).stats().retries)
        .sum();
    assert!(retries > 0, "loss must force retries");
    assert!(sim.lost() > 0);

    // Safety and progress: the replica executes in slot order even with
    // drops (a lost phase-2a is re-sent on the leader's tick, lost votes
    // on the replica's slot report), every acked command ran once, and
    // its log runs up to `slot_out`.
    let r = sim.node_ref::<PaxosNode<Replica>>(replica).role();
    let slots: Vec<u64> = r.log_tail().iter().map(|e| e.0).collect();
    assert!(slots.windows(2).all(|w| w[0] < w[1]), "log out of order");
    assert_eq!(slots.last().map(|s| s + 1), Some(r.slot_out()));
    assert!(r.executed_count >= acked && r.executed_count > 1_500);
}

#[test]
fn kvs_under_loss_never_corrupts() {
    let mut sim: Simulator<Packet> = Simulator::new(45);
    let keys = 256u64;
    let mut server = MemcachedServer::new(MemcachedConfig::i7_behind_lake());
    server.preload((0..keys).map(|i| {
        let k = key_name(i);
        (k.clone(), expected_value(&k, 64))
    }));
    let server = sim.add_node(server);
    let device =
        sim.add_node(LakeDevice::new(LakeCacheConfig::tiny(256, 4_096), 5).started_in_hardware());
    let client = sim.add_node(KvsClient::open_loop(
        Endpoint::host(1, 40_000),
        Endpoint::host(2, MEMCACHED_PORT),
        50_000.0,
        Box::new(UniformGen {
            keys,
            get_ratio: 0.9,
            value_len: 64,
        }),
    ));
    sim.connect_duplex(
        client,
        PortId::P0,
        device,
        PortId::P0,
        LinkSpec::ten_gbe(Nanos::from_nanos(500)).with_loss(0.05),
    );
    sim.connect_duplex(device, HOST_DMA_PORT, server, PortId::P0, LinkSpec::ideal());
    sim.run_until(Nanos::from_secs(1));
    let stats = sim.node_ref::<KvsClient>(client).stats();
    // ~5 % loss each way: ≥90 % of requests answered; zero corruption.
    let ratio = stats.received as f64 / stats.sent as f64;
    assert!((0.85..0.95).contains(&ratio), "delivery ratio {ratio}");
    assert_eq!(stats.corrupt, 0);
    assert_eq!(stats.not_found, 0);
}

// ---------------------------------------------------------------------------
// Chaos scenario suite: Multi-Paxos roles as fleet tenants under device
// death, ToR partition and power-budget flap. The scenario logic lives
// in `inc_bench::consensus`; the tests pin the contract — safety always,
// recovery within the deadline.
// ---------------------------------------------------------------------------

use inc_bench::consensus::{run_budget_flap, run_device_kill, run_tor_partition};

#[test]
fn chaos_device_kill_recovers_within_deadline() {
    let report = run_device_kill(11);
    assert!(report.safe, "two values chosen for one slot");
    assert!(report.prefix_ok, "replica logs diverged");
    // The runner already asserts eviction within one sustain window; the
    // full re-offload (software fallback → spare pod-0 ToR) must land
    // within two sustain windows plus admission slack.
    assert!(
        report.recovery_intervals <= 2 * report.sustain_window + 2,
        "re-placement took {} intervals",
        report.recovery_intervals
    );
    // One acceptor of three was lost: quorum never unavailable.
    assert!(
        (report.quorum_availability - 1.0).abs() < 1e-9,
        "quorum availability {}",
        report.quorum_availability
    );
    assert!(report.device_loss_shifts >= 1);
    assert!(report.commands_executed > 0);
}

#[test]
fn chaos_tor_partition_keeps_quorum_and_moves_leadership() {
    let report = run_tor_partition(12);
    assert!(report.safe, "two values chosen for one slot");
    assert!(report.prefix_ok, "replica logs diverged");
    // Leader 1's election countdown plus a sustain window of metered
    // activity: bounded by four sustain windows end to end.
    assert!(
        report.recovery_intervals <= 4 * report.sustain_window + 4,
        "leadership + placement recovery took {} intervals",
        report.recovery_intervals
    );
    // Two of three acceptors stay on the majority side throughout.
    assert!(
        (report.quorum_availability - 1.0).abs() < 1e-9,
        "quorum availability {}",
        report.quorum_availability
    );
    assert!(report.device_loss_shifts >= 1);
    assert!(report.commands_executed > 0);
}

#[test]
fn chaos_budget_flap_is_hysteresis_stable() {
    let report = run_budget_flap(13);
    assert!(report.safe, "two values chosen for one slot");
    assert!(report.prefix_ok, "replica logs diverged");
    // No failures in this scenario: quorum is always up, and the
    // fast flap (shorter than the sustain window) moves nothing.
    assert!((report.quorum_availability - 1.0).abs() < 1e-9);
    assert_eq!(report.fast_flap_shifts, 0, "fast flap must not churn");
    assert!(
        report.recovery_intervals <= 2 * report.sustain_window + 2,
        "re-offload after budget relax took {} intervals",
        report.recovery_intervals
    );
    assert!(report.commands_executed > 0);
}

#[test]
fn chaos_runs_with_the_same_seed_are_bit_identical() {
    // The regression this pins: consensus and placement state used to
    // live partly in `HashMap`s, whose iteration order varies run to
    // run, so two identically-seeded chaos runs could make different
    // tie-break decisions. Every decision-path container is ordered now
    // (`inc-lint` rule `unordered-iter`), and this test holds the whole
    // pipeline to that: same seed, same kill schedule, bit-identical
    // shift log and executed logs.
    use inc::hw::DeviceId;
    use inc_bench::consensus::{ConsensusRig, NodeRef};

    // A replica's executed log: the digest of all of it, and its tail.
    type ExecutedLog = (u64, Vec<(u64, inc::net::Bytes)>);
    fn run(seed: u64) -> (String, Vec<ExecutedLog>) {
        let mut rig = ConsensusRig::new(seed);
        for _ in 0..6 {
            rig.step_interval();
        }
        rig.ctl.set_device_online(DeviceId(0), false);
        rig.cluster.kill(NodeRef::Acceptor(0));
        rig.step_interval();
        rig.cluster.revive(NodeRef::Acceptor(0));
        for _ in 0..10 {
            rig.step_interval();
        }
        let shifts = format!("{:?}", rig.ctl.shifts());
        let replicas = rig.cluster.replicas.iter();
        let logs = replicas.map(|r| (r.log_digest(), r.log_tail().to_vec()));
        (shifts, logs.collect())
    }

    let first = run(20_260_809);
    let second = run(20_260_809);
    assert_eq!(
        first.0, second.0,
        "same-seed chaos runs diverged in placement shift decisions"
    );
    assert_eq!(
        first.1, second.1,
        "same-seed chaos runs diverged in replica executed logs"
    );
    // The run must actually have exercised both layers for the
    // comparison to mean anything.
    assert!(!first.0.is_empty() && first.0 != "[]", "no shifts recorded");
    assert!(
        first.1.iter().any(|(_, tail)| !tail.is_empty()),
        "no commands executed"
    );
}

/// What one golden chaos schedule leaves behind: an FNV-1a digest of every
/// replica's executed log — its command count, its running `log_digest`
/// and the tail it still holds — plus the network and execution counters.
#[derive(Debug, PartialEq, Eq)]
struct ChaosGolden {
    log_digest: u64,
    dropped: u64,
    duplicated: u64,
    client_replies: u64,
    max_executed: u64,
}

/// 300 rounds of two 32-byte commands and one drained tick on a
/// 2-replica/2-leader/3-acceptor cluster at 5 % drop / 2 % duplication,
/// the active leader killed at round 120 and never revived, acceptors
/// compacted every tick (as the benchmark does, on top of the floor the
/// protocol carries itself), then a drain until every command executed.
fn chaos_golden_run(seed: u64) -> ChaosGolden {
    use inc_bench::consensus::{ChaosCluster, NodeRef};

    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn settle(c: &mut ChaosCluster) {
        c.tick(1_000_000);
        let floor = c.replicas.iter().map(|r| r.slot_out()).min().unwrap_or(1);
        for a in &mut c.acceptors {
            a.compact(floor);
        }
    }

    let mut c = ChaosCluster::new(seed, 2, 2, 3);
    c.drop_p = 0.05;
    c.dup_p = 0.02;
    let mut submitted = 0u64;
    for round in 0..300u64 {
        if round == 120 {
            let active = c.leaders.iter().position(|l| l.is_active()).unwrap_or(0);
            c.kill(NodeRef::Leader(active as u8));
        }
        for k in 0..2u64 {
            let word = (seed ^ (round * 2 + k)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            c.submit(1, word.to_le_bytes().repeat(4));
            submitted += 1;
        }
        settle(&mut c);
    }
    for _ in 0..400 {
        if c.replicas.iter().all(|r| r.executed_count == submitted) {
            break;
        }
        settle(&mut c);
    }
    assert!(c.single_value_per_slot(), "two values chosen for one slot");
    assert!(c.logs_prefix_agree(), "replica logs diverged");

    let mut log_digest = 0xcbf2_9ce4_8422_2325u64;
    for r in &c.replicas {
        fnv(&mut log_digest, &r.executed_count.to_le_bytes());
        fnv(&mut log_digest, &r.log_digest().to_le_bytes());
        for (slot, value) in r.log_tail() {
            let value: &[u8] = value.as_ref();
            fnv(&mut log_digest, &slot.to_le_bytes());
            fnv(&mut log_digest, &(value.len() as u64).to_le_bytes());
            fnv(&mut log_digest, value);
        }
    }
    ChaosGolden {
        log_digest,
        dropped: c.dropped,
        duplicated: c.duplicated,
        client_replies: c.client_replies,
        max_executed: c.max_executed(),
    }
}

#[test]
fn chaos_schedule_matches_the_recorded_golden_runs() {
    // Outbox order, RNG draw order and `swap_remove` order all feed these,
    // so a refactor that reorders a single message changes them. They were
    // first recorded before the zero-copy value plane (PR 13) and held
    // until PR 20 (windowed consensus state), which re-recorded them once,
    // on purpose: a newly adopted leader re-proposes the replicas' open
    // windows instead of every slot it ever heard proposed, acceptors
    // refuse phase-2as below the floor, and the digest now covers each
    // replica's `executed_count`, `log_digest` and log tail instead of a
    // log the replicas no longer keep. Same commands, same 600 executed;
    // ≈ 50 fewer drops per run: at 5 % loss, ≈ 1 000 fewer deliveries.
    let golden = |log_digest, dropped, duplicated, client_replies| ChaosGolden {
        log_digest,
        dropped,
        duplicated,
        client_replies,
        max_executed: 600,
    };
    let recorded = [
        (1, golden(9_518_224_309_930_257_289, 239, 80, 1_168)),
        (7, golden(14_678_918_706_567_165_617, 257, 100, 1_156)),
        (42, golden(10_523_027_583_647_244_597, 249, 100, 1_159)),
    ];
    for (seed, want) in recorded {
        assert_eq!(
            chaos_golden_run(seed),
            want,
            "seed {seed} replayed differently"
        );
    }
}

#[test]
fn one_long_lived_cluster_stays_bounded() {
    // `benchmark/README.md` Hazard 1: before the roles kept windows, this
    // scenario panicked at the first revive past ≈ 1 170 slots (a leader
    // re-proposing its whole history into `encode_pvalues`' assert), and
    // without a harness calling `Acceptor::compact` nothing was ever
    // collected. Here nobody calls it: the floor travels in the protocol.
    use inc::paxos::multi::Replica;
    use inc_bench::consensus::{ChaosCluster, NodeRef};

    const ROUNDS: u64 = 20_000;
    // Per role; the acceptors and the leaders hold the union of the two
    // replicas' windows plus what is in flight, the replicas their own
    // window plus the votes for the other's.
    const RETAINED_CEILING: usize = 4 * Replica::WINDOW as usize;

    let mut c = ChaosCluster::new(20, 2, 2, 3);
    c.drop_p = 0.05;
    c.dup_p = 0.02;
    let mut submitted = 0u64;
    let mut down: Option<u8> = None;
    let mut peak = 0;
    for round in 0..ROUNDS {
        if round % 2_000 == 1_999 {
            let active = c.leaders.iter().position(|l| l.is_active()).unwrap_or(0) as u8;
            c.kill(NodeRef::Leader(active));
            if let Some(previous) = down.replace(active) {
                c.revive(NodeRef::Leader(previous));
            }
        }
        match round {
            9_000 => c.kill(NodeRef::Acceptor(1)),
            9_500 => c.revive(NodeRef::Acceptor(1)),
            _ => {}
        }
        for _ in 0..2 {
            c.submit(1, round.to_le_bytes().repeat(4));
            submitted += 1;
        }
        c.tick(1_000_000);
        // Every round, not only at the checkpoints: the outages are
        // where state piles up (measured peak: 38 slots).
        let retained = (c.replicas.iter().map(Replica::retained_slots))
            .chain(c.leaders.iter().map(|l| l.retained_slots()))
            .chain(c.acceptors.iter().map(|a| a.accepted_len()))
            .max()
            .unwrap_or(0);
        peak = peak.max(retained);
        assert!(
            retained <= RETAINED_CEILING,
            "round {round}: a role retains {retained} slots"
        );
        if round % 1_000 == 999 {
            assert!(c.single_value_per_slot() && c.logs_prefix_agree());
        }
    }
    for _ in 0..400 {
        if c.replicas.iter().all(|r| r.executed_count == submitted) {
            break;
        }
        c.tick(1_000_000);
    }
    assert!(c.single_value_per_slot(), "two values chosen for one slot");
    assert!(c.logs_prefix_agree(), "replica logs diverged");
    for r in &c.replicas {
        assert_eq!(r.executed_count, submitted, "replica {} is behind", r.id);
        assert!(r.slot_out() > submitted, "every command took a slot");
    }
    assert_eq!(c.replicas[0].log_digest(), c.replicas[1].log_digest());
    assert!(
        peak > Replica::WINDOW as usize / 2,
        "the rounds saw an idle cluster"
    );
}

/// Submits one command with a `payload_len`-byte payload to a warm
/// loss-free cluster, then 50 ordinary ones: the long one is refused at
/// its replica and counted, and every later command executes.
fn an_oversized_command_is_refused(payload_len: usize) {
    use inc::paxos::multi::MAX_COMMAND_LEN;
    use inc::paxos::ClientCommand;
    use inc_bench::consensus::ChaosCluster;

    let mut c = ChaosCluster::new(1, 2, 2, 3);
    for _ in 0..40 {
        c.submit(1, vec![1; 32]);
        c.tick(1_000_000);
    }
    assert!(c.leaders[0].is_active(), "warm-up must elect a leader");
    let executed = c.max_executed();
    assert!(ClientCommand::HEADER_LEN + payload_len > MAX_COMMAND_LEN);
    c.submit(1, vec![2; payload_len]);
    for _ in 0..50 {
        c.submit(1, vec![3; 32]);
        c.tick(1_000_000);
    }
    for r in &c.replicas {
        assert_eq!(r.executed_count, executed + 50, "replica {} stalled", r.id);
    }
    let oversized: u32 = c.replicas.iter().map(|r| r.oversized).sum();
    assert_eq!(oversized, 1);
    assert!(c.single_value_per_slot() && c.logs_prefix_agree());
}

#[test]
fn an_oversized_command_does_not_stall_the_log() {
    // 65 527 bytes encode, but no acceptor votes for a value a later
    // promise could not report: the leader used to retransmit it forever
    // and the log stopped behind its slot.
    an_oversized_command_is_refused(65_515);
}

#[test]
fn an_oversized_command_does_not_panic_a_later_tick() {
    // 65 542 bytes overflow the 16-bit length field: the proposal used to
    // reach `write_header`'s assert at its first delivery.
    an_oversized_command_is_refused(65_530);
}
