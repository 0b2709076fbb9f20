//! Allocation budgets of the consensus value plane, of the packet data
//! path, of the simulator's event queue and of the fleet arbiter's
//! tick, defended by `cargo test`
//! rather than only by the benchmark's `allocs_per_kop`
//! (`scripts/bench_smoke.sh` runs this binary in release, so a
//! regression in a deterministic cost fails CI).
//!
//! A command's bytes are allocated once, where the chaos cluster hands
//! it to a replica, and shared by refcount from there on: every hop
//! decodes the value back into the sender's handle
//! (`PaxosMsg::decode_sharing`), and role steps that send at most one
//! message allocate nothing. A frame costs at most one allocation to
//! build — the frame, when no dropped frame's buffer is free to reuse —
//! and none to parse, checksum-verify and decode; a warm device that
//! answers a request allocates nothing, its reply written into a buffer
//! an earlier frame gave back. A warm
//! event queue schedules and releases events without allocating. A warm
//! arbitration tick works in the controller's own scratch buffers: it
//! allocates nothing until it has a placement change to report, and then
//! only the list it returns. A warm device fabric seats, moves and
//! releases tenants without allocating: each ledger is a list that has
//! already held its peak residents, and the residency index already
//! covers every slot. A long-lived client under a hostile regime —
//! every frame lost, a leader that never answers — holds its live heap
//! flat once warm, and so does every role of the §9.2 Paxos pipeline at
//! steady load: the soak cells read the allocator's live bytes at 10 % of
//! a long run and at its end. This
//! binary has its own counting `#[global_allocator]`, so it holds these
//! tests only. The counters are per thread: libtest runs tests on
//! parallel threads, and a test must not be billed for its neighbour's
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use inc::dns::{
    DnsClient, DnsResponse, DnsResponseView, EmuDevice, Name, Query, Rcode, Zone, DNS_PORT,
};
use inc::hw::{DeviceId, ProgramResources};
use inc::kvs::{
    decode_view, expected_value, key_name, FrameHeader, KvsClient, LakeCacheConfig, LakeDevice,
    MessageView, RequestView, ResponseView, Status, UniformGen, MEMCACHED_PORT,
};
use inc::net::{build_udp, build_udp_with, Bytes, Endpoint, Packet, UdpFrame};
use inc::ondemand::{ArbitrationMode, FleetController};
use inc::paxos::multi::{Acceptor, Ballot, Leader, Replica};
use inc::paxos::{ClientCommand, MsgType, PaxosClient, PaxosMsg, PAXOS_LEADER_PORT};
use inc::sim::{impl_node_any, Ctx, LinkSpec, Nanos, Node, NodeId, PortId, Rng, Simulator};
use inc_bench::consensus::{ChaosCluster, NodeRef};
use inc_bench::rigs::{MegaFabricRig, MultiTorRig};

thread_local! {
    // Const-initialised and without a destructor: safe to touch from
    // inside the allocator at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread allocated minus bytes it freed, and the most
    // that difference has been since the mark was last reset. A block
    // freed on another thread than its own moves bytes between the two
    // threads' counts, so a count can go negative.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `bytes` (negative when freeing) to this thread's live count.
fn grow_live(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is thread-local
// plain data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through to `System`.
        let block = unsafe { System.alloc(layout) };
        if !block.is_null() {
            grow_live(layout.size() as i64);
        }
        block
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow_live(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a request of its own: `Vec` doubling is counted.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        let block = unsafe { System.realloc(ptr, layout, new_size) };
        if !block.is_null() {
            grow_live(new_size as i64 - layout.size() as i64);
        }
        block
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Runs `f` on a new thread and returns what it returns: the thread's
/// frame and spill free lists start empty, so what `f` allocates does
/// not depend on which tests ran before it on the caller's thread.
fn on_a_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| scope.spawn(f).join().expect("the measured thread panicked"))
}

/// What a live-heap soak cell saw on this thread past its warm-up: live
/// bytes at 10 % of the run and at its end, and the high-water mark in
/// between.
struct Soak {
    at_tenth: i64,
    at_end: i64,
    peak: i64,
}

/// How far live bytes may rise between 10 % of a soak and its end: a
/// histogram's next bucket range or a queue slab's one more doubling.
/// Each failure the cells stand guard against keeps at least one table
/// entry (≥ 24 bytes) per request, thousands of requests past the mark.
const SOAK_SLACK_BYTES: i64 = 16 * 1024;

/// Runs `sim` through `warm_up`, then [`SOAK_RUN`] × `warm_up` more,
/// reading this thread's live bytes at 10 % of that run and at its end.
fn soak(sim: &mut Simulator<Packet>, warm_up: Nanos) -> Soak {
    sim.run_until(warm_up);
    let run = warm_up.mul_f64(SOAK_RUN);
    sim.run_until(warm_up + run.div(10));
    let at_tenth = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(at_tenth));
    sim.run_until(warm_up + run);
    Soak {
        at_tenth,
        at_end: LIVE.with(Cell::get),
        peak: PEAK.with(Cell::get),
    }
}

/// A soak's run past its warm-up, in warm-ups: 10 in release (what
/// `scripts/bench_smoke.sh` runs), half of one in debug.
const SOAK_RUN: f64 = if cfg!(debug_assertions) { 0.5 } else { 10.0 };

fn assert_bounded(cell: &str, soak: &Soak) {
    let line = format!(
        "{} B at 10 % of the run, {} B at its end, high-water {} B",
        soak.at_tenth, soak.at_end, soak.peak
    );
    println!("live heap, {cell}: {line}");
    assert!(
        soak.at_end <= soak.at_tenth + SOAK_SLACK_BYTES,
        "{cell}: live bytes grew past the {SOAK_SLACK_BYTES} B slack: {line}"
    );
}

#[test]
fn a_kvs_client_under_total_loss_stays_bounded() {
    // 1 Mpps of GETs and SETs over a link that drops every frame. The
    // in-flight table is keyed by the 16-bit request id, so it fills at
    // 65 536 entries (66 ms) and a newer request takes over each entry
    // from then on; a table keyed by anything that keeps counting grows
    // by one entry per request for good.
    let mut sim: Simulator<Packet> = Simulator::new(7);
    let client = sim.add_node(KvsClient::open_loop(
        Endpoint::host(1, 40_000),
        Endpoint::host(2, MEMCACHED_PORT),
        1_000_000.0,
        Box::new(UniformGen {
            keys: 1_024,
            get_ratio: 0.9,
            value_len: 64,
        }),
    ));
    let hole = sim.add_node(Sink::default());
    let lossy = LinkSpec::ideal().with_loss(1.0);
    sim.connect_duplex(client, PortId::P0, hole, PortId::P0, lossy);
    let soak = soak(&mut sim, Nanos::from_millis(80));
    assert_bounded("KvsClient under 100 % loss", &soak);
    let stats = sim.node_ref::<KvsClient>(client).stats();
    assert_eq!(stats.received, 0);
    assert_eq!(stats.abandoned, stats.sent - 65_536, "{stats:?}");
}

#[test]
fn a_dns_client_under_total_loss_stays_bounded() {
    // 1 Mpps of A queries over a link that drops every frame. The
    // in-flight table is keyed by the 16-bit query id, so it fills at
    // 65 536 entries (66 ms) and a newer query takes over each entry
    // from then on, as the KVS client's does.
    let mut sim: Simulator<Packet> = Simulator::new(11);
    let client = sim.add_node(DnsClient::new(
        Endpoint::host(1, 40_000),
        Endpoint::host(2, DNS_PORT),
        1_000_000.0,
        1_024,
    ));
    let hole = sim.add_node(Sink::default());
    let lossy = LinkSpec::ideal().with_loss(1.0);
    sim.connect_duplex(client, PortId::P0, hole, PortId::P0, lossy);
    let soak = soak(&mut sim, Nanos::from_millis(80));
    assert_bounded("DnsClient under 100 % loss", &soak);
    let stats = sim.node_ref::<DnsClient>(client).stats();
    assert_eq!(stats.received, 0);
    assert!(stats.sent > 65_536, "{stats:?}");
}

#[test]
fn a_paxos_client_with_a_silent_leader_stays_bounded() {
    // 20 kpps at a leader that never answers, a 150 ms timeout: a
    // command is retried once and given up 4 096 issues (205 ms)
    // behind the newest, so the outstanding table and the armed timers
    // stop growing once that window has passed. The table's hash map
    // then fills with tombstones and doubles its buckets once, about
    // 32 000 commands later (1.9 s); the warm-up runs past that.
    let mut sim: Simulator<Packet> = Simulator::new(9);
    let leader = Endpoint::host(99, PAXOS_LEADER_PORT);
    let client = sim.add_node(PaxosClient::open_loop(
        9,
        leader,
        20_000.0,
        Nanos::from_millis(150),
    ));
    let hole = sim.add_node(Sink::default());
    sim.connect_duplex(client, PortId::P0, hole, PortId::P0, LinkSpec::ideal());
    let soak = soak(&mut sim, Nanos::from_millis(2_500));
    assert_bounded("PaxosClient with a silent leader", &soak);
    let stats = sim.node_ref::<PaxosClient>(client).stats();
    assert_eq!(stats.acked, 0);
    assert_eq!(stats.abandoned, stats.issued - 4_096, "{stats:?}");
}

/// Runs `f`, adding the live bytes it leaves allocated to `kept`.
fn kept_by<R>(kept: &mut i64, f: impl FnOnce() -> R) -> R {
    let before = LIVE.with(Cell::get);
    let out = f();
    *kept += LIVE.with(Cell::get) - before;
    out
}

#[test]
fn a_paxos_pipeline_at_steady_load_stays_bounded() {
    // The §9.2 pipeline at steady load, every role's live bytes tallied
    // by who kept them: a leader that numbers 16 clients' unnumbered
    // 28-byte commands (16 of payload), three acceptors and a replica,
    // each command decided at its second vote, the third arriving late.
    // Every 16 commands the replica reports its `slot_out`, the leader's
    // floor follows it and its next phase-2as carry the floor to the
    // acceptors, which forget every slot below it. The replica keeps 64
    // to 128 log entries. Nothing of it grows with the run: the acceptor
    // table before it grew 34 B per voted instance (3.76 MB over one
    // `packet_fabric` trial).
    const WARM_UP: u64 = 20_000;
    const REPORT_EVERY: u64 = 16;
    let mut leader = Leader::new(0, 3, 1);
    let mut acceptors: Vec<Acceptor> = (0..3).map(Acceptor::new).collect();
    let mut replica = Replica::new(0, 3);
    // Scout and adopt on empty acceptors.
    for (_, p1a) in leader.start_scout() {
        for acceptor in &mut acceptors {
            for (_, promise) in acceptor.handle(&p1a) {
                assert!(leader.handle(&promise).is_empty());
            }
        }
    }
    assert!(leader.is_active());
    // [leader and replica, acceptors], and each one's high-water mark.
    let (mut kept, mut peak) = ([0i64; 2], [0i64; 2]);
    let mut seq = 0u64;
    let mut run = |commands: u64, kept: &mut [i64; 2], peak: &mut [i64; 2]| {
        for _ in 0..commands {
            seq += 1;
            let command = ClientCommand {
                client: (seq % 16) as u32,
                seq: seq / 16,
                payload: vec![0xAB; 16],
            };
            let request = PaxosMsg::new(MsgType::ClientRequest, 0, 0, command.encode());
            for (_, p2a) in kept_by(&mut kept[0], || leader.handle(&request)) {
                for acceptor in &mut acceptors {
                    for (_, vote) in kept_by(&mut kept[1], || acceptor.handle(&p2a)) {
                        kept_by(&mut kept[0], || {
                            leader.handle(&vote);
                            replica.handle(&vote)
                        });
                    }
                }
            }
            if seq.is_multiple_of(REPORT_EVERY) {
                let (_, report) = replica.report();
                assert!(kept_by(&mut kept[0], || leader.handle(&report)).is_empty());
            }
            for (peak, kept) in peak.iter_mut().zip(kept.iter()) {
                *peak = (*peak).max(*kept);
            }
        }
    };
    run(WARM_UP, &mut kept, &mut peak);
    let past = (WARM_UP as f64 * SOAK_RUN) as u64;
    run(past / 10, &mut kept, &mut peak);
    let at_tenth = kept;
    peak = at_tenth;
    run(past - past / 10, &mut kept, &mut peak);
    assert_eq!(replica.executed_count, WARM_UP + past);
    let cells = ["§9.2 leader and replica", "§9.2 acceptors"];
    for (i, cell) in cells.into_iter().enumerate() {
        let (at_tenth, at_end, peak) = (at_tenth[i], kept[i], peak[i]);
        assert_bounded(
            cell,
            &Soak {
                at_tenth,
                at_end,
                peak,
            },
        );
    }
    // What bounds them: the floor trails execution by a report period.
    for acceptor in &acceptors {
        assert!(acceptor.accepted_len() as u64 <= 2 * REPORT_EVERY);
    }
    assert!(leader.retained_slots() as u64 <= 2 * REPORT_EVERY);
    assert_eq!(replica.retained_slots(), 0);
}

#[test]
fn a_paxos_acceptor_votes_a_short_command_in_place() {
    // A command of up to 28 bytes is voted into the acceptor's ring: the
    // only allocations are the ring's, each a doubling, and none once it
    // covers the window. A longer one is kept as the handle it came in.
    let proposal = |slot, payload_len| {
        let payload = vec![0xAB; payload_len];
        let value = ClientCommand {
            client: 1,
            seq: slot,
            payload,
        }
        .encode();
        let mut p2a = PaxosMsg::new(MsgType::Phase2a, slot, Ballot::new(1, 0).wire(), value);
        // The leader's floor: a window of 1 024 slots.
        p2a.last_voted = slot.saturating_sub(1_023).max(1);
        p2a
    };
    let (short, long): (Vec<_>, Vec<_>) = (1..=10_240u64)
        .map(|slot| (proposal(slot, 16), proposal(slot, 17)))
        .unzip();
    let mut acceptor = Acceptor::new(0);
    let allocs = allocations_in(|| {
        for p2a in &short {
            assert_eq!(acceptor.handle(p2a).len(), 1);
        }
    });
    // 32, 64, …, 1 024 slots: six buffers.
    assert!(allocs <= 6, "{allocs} allocations for 10 240 votes");
    assert_eq!(acceptor.accepted_len(), 1_024);
    let revotes = allocations_in(|| {
        for p2a in &short[10_240 - 1_024..] {
            acceptor.handle(p2a);
        }
    });
    assert_eq!(revotes, 0, "a warm ring votes without allocating");
    let value = &long[10_239].value;
    acceptor.handle(&long[10_239]);
    let kept = acceptor.accepted(10_240).map(|(_, v)| v.as_ptr());
    assert_eq!(kept, Some(value.as_ptr()), "a 29-byte value is a handle");
}

/// Allocations per decided slot a loss-free 2-replica/2-leader/3-acceptor
/// cluster may spend, the test's own 32-byte payload included. Measured:
/// 2.0 exactly, + 5 % (9.0 while each delivered message's decode copied
/// its value, 10.7 with per-slot `BTreeMap`s in every role as well, 53.7
/// with `Vec<u8>` values, `Vec` outboxes and `BTreeSet` voter sets).
/// What is left is the payload `Vec` and the command's own buffer; warm
/// slot rings and every hop cost nothing.
const ALLOCS_PER_SLOT_CEILING: f64 = 2.1;

#[test]
fn loss_free_cluster_stays_under_the_allocation_budget() {
    const SLOTS: u64 = 1_000;
    let mut c = ChaosCluster::new(42, 2, 2, 3);
    // Untimed warm-up: elect leader 0 and decide a few slots so every
    // scratch buffer and map root exists.
    for _ in 0..40 {
        c.submit(1, vec![0xAB; 32]);
        c.tick(1_000_000);
    }
    assert!(c.leaders[0].is_active(), "warm-up must elect a leader");
    let executed = c.max_executed();

    let allocs = allocations_in(|| {
        for _ in 0..SLOTS {
            c.submit(1, vec![0xAB; 32]);
            c.tick(1_000_000);
        }
    });

    assert!(c
        .replicas
        .iter()
        .all(|r| r.executed_count == executed + SLOTS));
    assert!(c.single_value_per_slot() && c.logs_prefix_agree());
    assert!(
        allocs as f64 <= ALLOCS_PER_SLOT_CEILING * SLOTS as f64,
        "{allocs} allocations for {SLOTS} slots ({:.1} per slot, ceiling {ALLOCS_PER_SLOT_CEILING})",
        allocs as f64 / SLOTS as f64
    );
}

/// Allocations per submitted command one epoch of the benchmark's
/// `paxos_chaos` schedule may spend, its 32-byte payloads included.
/// Measured from an empty spill list, on a thread of its own: 2.049, and
/// 5 % over it (3.15 while every outbox spill — an execution that answers
/// for several slots, a retransmit burst — was a fresh `Vec`, 10.83
/// while each delivered message's decode copied its value). Spills now reuse
/// the thread's free list: past the payload and the command's buffer,
/// 0.049 per command is left, the first spills included.
const CHAOS_ALLOCS_PER_COMMAND_CEILING: f64 = 2.15;

#[test]
fn a_chaos_epoch_stays_under_the_allocation_budget() {
    // The benchmark's epoch: 5 % drop, 2 % duplication, 500 rounds of two
    // submits and a drained tick, the active leader killed at round 200
    // and never revived, acceptors compacted to the lowest `slot_out`
    // after every tick, then a drain until every command executed.
    const ROUNDS: u64 = 500;
    const KILL_ROUND: u64 = 200;
    fn all_executed(c: &ChaosCluster, n: u64) -> bool {
        c.replicas.iter().all(|r| r.executed_count == n)
    }
    fn settle(c: &mut ChaosCluster) {
        c.tick(1_000_000);
        let floor = c.replicas.iter().map(|r| r.slot_out()).min().unwrap_or(1);
        for a in &mut c.acceptors {
            a.compact(floor);
        }
    }
    // Spill buffers recycle through a per-thread free list, so the count
    // depends on what the thread ran before: the epoch runs on a thread
    // of its own, whose list starts empty, alone or in the full binary.
    let (c, submitted, allocs) = on_a_fresh_thread(|| {
        let mut c = ChaosCluster::new(42, 2, 2, 3);
        c.drop_p = 0.05;
        c.dup_p = 0.02;
        let mut submitted = 0;
        let allocs = allocations_in(|| {
            for round in 0..ROUNDS {
                if round == KILL_ROUND {
                    let active = c.leaders.iter().position(|l| l.is_active()).unwrap_or(0);
                    c.kill(NodeRef::Leader(active as u8));
                }
                for _ in 0..2 {
                    c.submit(1, vec![0xAB; 32]);
                    submitted += 1;
                }
                settle(&mut c);
            }
            for _ in 0..5_000 {
                if all_executed(&c, submitted) {
                    break;
                }
                settle(&mut c);
            }
        });
        (c, submitted, allocs)
    });

    assert!(all_executed(&c, submitted), "the drain did not finish");
    assert!(c.single_value_per_slot() && c.logs_prefix_agree());
    assert!(c.dropped > 0 && c.duplicated > 0);
    let per_command = allocs as f64 / submitted as f64;
    assert!(
        per_command <= CHAOS_ALLOCS_PER_COMMAND_CEILING,
        "{allocs} allocations for {submitted} commands ({per_command:.2} per command, ceiling {CHAOS_ALLOCS_PER_COMMAND_CEILING})"
    );
    println!(
        "chaos epoch: {allocs} allocations for {submitted} commands ({per_command:.3} per command)"
    );
}

#[test]
fn a_command_is_one_buffer_from_submit_to_execution() {
    let mut c = ChaosCluster::new(42, 2, 2, 3);
    for _ in 0..40 {
        c.submit(1, vec![0xAB; 32]);
        c.tick(1_000_000);
    }
    assert!(c.leaders[0].is_active(), "warm-up must elect a leader");

    // One loss-free slot: the payload `Vec`, and the buffer `submit`
    // moves the command into. Nothing else can hold a copy.
    let allocs = allocations_in(|| {
        c.submit(1, vec![0xCD; 32]);
        c.tick(1_000_000);
    });
    assert_eq!(allocs, 2, "a hop copied the command");
    let (slot, command) = c.replicas[0].log_tail().last().cloned().unwrap();
    assert_eq!(command[ClientCommand::HEADER_LEN..], [0xCD; 32]);
    for r in &c.replicas {
        let last = r.log_tail().last().map(|(s, v)| (*s, v.as_ptr()));
        assert_eq!(last, Some((slot, command.as_ptr())), "replica {}", r.id);
    }
    for a in &c.acceptors {
        let accepted = a.accepted(slot).map(|(_, v)| v.as_ptr());
        assert_eq!(accepted, Some(command.as_ptr()), "acceptor {}", a.id);
    }
}

#[test]
fn a_warm_acceptor_votes_without_allocating() {
    let ballot = Ballot::new(1, 0);
    let value = Bytes::from(
        ClientCommand {
            client: 1,
            seq: 42,
            payload: vec![0xEF; 32],
        }
        .encode(),
    );
    let proposals: Vec<PaxosMsg> = (1..=64)
        .map(|slot| PaxosMsg::new(MsgType::Phase2a, slot, ballot.wire(), value.clone()))
        .collect();
    let mut acceptor = Acceptor::new(0);
    // Warm: the accepted ring covers every slot.
    for p in &proposals {
        assert_eq!(acceptor.handle(p).len(), 1);
    }

    // A retransmitted phase-2a is stored and voted for again: the value
    // lands in the ring and in the vote by refcount, the vote rides in
    // the inline outbox. Nothing is left to allocate.
    let mut shared = 0;
    let allocs = allocations_in(|| {
        for p in &proposals {
            let out = acceptor.handle(p);
            shared += usize::from(out[0].1.value.as_ptr() == value.as_ptr());
        }
    });
    assert_eq!(allocs, 0, "a vote copied its value or spilled its outbox");
    assert_eq!(
        shared,
        proposals.len(),
        "votes must share the proposal's bytes"
    );
    let stored = acceptor.accepted(7).map(|(_, v)| v.as_ptr());
    assert_eq!(stored, Some(value.as_ptr()));
}

/// A phase-2b vote from `acceptor` in `ballot` for `value` at `slot`.
fn vote(slot: u64, ballot: Ballot, acceptor: u8, value: &Bytes) -> PaxosMsg {
    let mut msg = PaxosMsg::new(MsgType::Phase2b, slot, ballot.wire(), value.clone());
    (msg.vround, msg.acceptor) = (ballot.wire(), acceptor);
    msg
}

#[test]
fn a_warm_replica_executes_a_backlog_without_allocating() {
    // Slots `first + 1 ..` are decided while `first` waits for its
    // second vote; that vote executes all of them at once, one reply
    // per slot: a spill. Round one warms the thread's spill list, the
    // window and the log; round two is measured.
    const BACKLOG: u64 = 8;
    let ballot = Ballot::new(1, 0);
    let mut replica = Replica::new(0, 3);
    let round = |first: u64| -> Vec<(PaxosMsg, PaxosMsg)> {
        (first..first + BACKLOG)
            .map(|slot| {
                let value = Bytes::from(
                    ClientCommand {
                        client: 1,
                        seq: slot,
                        payload: vec![0xEF; 32],
                    }
                    .encode(),
                );
                (vote(slot, ballot, 0, &value), vote(slot, ballot, 1, &value))
            })
            .collect()
    };
    let run = |replica: &mut Replica, votes: &[(PaxosMsg, PaxosMsg)]| {
        assert!(replica.handle(&votes[0].0).is_empty());
        for (a, b) in &votes[1..] {
            assert!(replica.handle(a).is_empty() && replica.handle(b).is_empty());
        }
        let mut replies = 0;
        let allocs = allocations_in(|| replies = replica.handle(&votes[0].1).len());
        (replies, allocs)
    };
    let warm_up = round(1);
    assert_eq!(run(&mut replica, &warm_up).0, BACKLOG as usize);
    let measured = round(1 + BACKLOG);
    assert_eq!(
        run(&mut replica, &measured),
        (BACKLOG as usize, 0),
        "an execution that answers for several slots allocated"
    );
    assert_eq!(replica.executed_count, 2 * BACKLOG);
}

#[test]
fn a_warm_leader_retransmit_burst_allocates_nothing() {
    // Leader 0 adopts its ballot on two promises, pushes a few slots
    // that no acceptor answers, and retransmits them all every
    // `RETRANSMIT_TICKS` ticks. The first burst warms the spill list.
    const SLOTS: u64 = 6;
    let mut leader = Leader::new(0, 3, 1);
    let p1a = leader.start_scout();
    assert_eq!(p1a.len(), 1);
    let ballot = leader.ballot();
    for acceptor in 0..2 {
        let mut promise = PaxosMsg::new(MsgType::Phase1b, 1, ballot.wire(), Bytes::new());
        (promise.vround, promise.acceptor, promise.last_voted) = (ballot.wire(), acceptor, 1);
        assert!(leader.handle(&promise).is_empty());
    }
    assert!(leader.is_active(), "two promises of three adopt the ballot");
    let value = Bytes::from(vec![0xAB; 48]);
    for slot in 1..=SLOTS {
        let mut proposal = PaxosMsg::new(MsgType::ClientRequest, slot, 0, value.clone());
        proposal.last_voted = 1;
        assert_eq!(leader.handle(&proposal).len(), 1);
    }
    let burst = |leader: &mut Leader| {
        let mut sent = [0; Leader::RETRANSMIT_TICKS as usize];
        for n in &mut sent {
            *n = leader.tick().len();
        }
        let (last, quiet) = sent.split_last().unwrap();
        assert!(quiet.iter().all(|&n| n == 0), "{sent:?}");
        assert_eq!(*last, SLOTS as usize, "one burst of every slot");
    };
    burst(&mut leader);
    let allocs = allocations_in(|| {
        for _ in 0..10 {
            burst(&mut leader);
        }
    });
    assert_eq!(allocs, 0, "a retransmit burst allocated");
}

#[test]
fn a_frame_costs_one_allocation_to_build_and_none_to_read() {
    let client = Endpoint::host(1, 40_000);
    let server = Endpoint::host(2, MEMCACHED_PORT);
    let payload = [0xABu8; 64];
    let mut built = None;
    assert!(
        allocations_in(|| built = Some(build_udp(client, server, &payload))) <= 1,
        "build_udp allocates the frame at most"
    );
    let pkt = built.unwrap();
    assert_eq!(
        allocations_in(|| assert_eq!(UdpFrame::parse(&pkt).unwrap().payload, payload)),
        0,
        "parsing verifies both checksums in place"
    );

    // One frame per codec, each encoded in place (one allocation) and
    // read back through the borrowed decoders (none).
    let frame = FrameHeader {
        request_id: 7,
        seq: 0,
        total: 1,
    };
    let key = key_name(3);
    let value = expected_value(&key, 64);
    let hit = ResponseView {
        opcode: inc::kvs::Opcode::Get,
        status: Status::Ok,
        value: &value,
        flags: 5,
        opaque: 9,
    };
    let get = RequestView::Get { key: &key };
    let name = Name::parse("host-5.example.com").unwrap();
    let query = Query {
        id: 5,
        name: name.clone(),
        qtype: inc::dns::TYPE_A,
        recursion_desired: false,
    };
    let answer = DnsResponse {
        id: 5,
        rcode: Rcode::NoError,
        name,
        answers: vec![(Zone::synthetic_addr(5), 300)],
    };
    let command = ClientCommand {
        client: 1,
        seq: 42,
        payload: vec![0xEF; 16],
    };
    let p2a = PaxosMsg::new(MsgType::Phase2a, 123_456, 3, command.encode());

    let mut frames: Vec<Packet> = Vec::with_capacity(5);
    let build_all = |frames: &mut Vec<Packet>| {
        frames.push(build_udp_with(client, server, get.encoded_len(), |b| {
            get.encode_into(frame, 9, b)
        }));
        frames.push(build_udp_with(server, client, hit.encoded_len(), |b| {
            hit.encode_into(frame, b)
        }));
        frames.push(build_udp_with(client, server, query.encoded_len(), |b| {
            query.encode_into(b)
        }));
        frames.push(build_udp_with(server, client, answer.encoded_len(), |b| {
            answer.encode_into(b)
        }));
        frames.push(build_udp_with(client, server, p2a.encoded_len(), |b| {
            p2a.write_to(b)
        }));
    };
    let allocs = allocations_in(|| build_all(&mut frames));
    assert!(allocs <= 5, "{allocs} allocations for 5 frames built");
    // Dropped frames give their buffers back: building the same five
    // again reuses them.
    frames.clear();
    let allocs = allocations_in(|| build_all(&mut frames));
    assert_eq!(allocs, 0, "rebuilding dropped frames allocates nothing");

    let allocs = allocations_in(|| {
        let f = UdpFrame::parse(&frames[0]).unwrap();
        match decode_view(f.payload).unwrap() {
            MessageView::Request {
                request, opaque, ..
            } => assert_eq!((request, opaque), (get, 9)),
            other => panic!("{other:?}"),
        }
        let f = UdpFrame::parse(&frames[1]).unwrap();
        match decode_view(f.payload).unwrap() {
            MessageView::Response { response, .. } => assert_eq!(response, hit),
            other => panic!("{other:?}"),
        }
        let f = UdpFrame::parse(&frames[2]).unwrap();
        assert_eq!(Query::decode(f.payload).unwrap(), query);
        let f = UdpFrame::parse(&frames[3]).unwrap();
        let view = DnsResponseView::decode(f.payload).unwrap();
        assert_eq!((view.id, view.rcode), (5, Rcode::NoError));
        assert_eq!(view.name, answer.name);
        assert!(view.answers().eq(answer.answers.iter().copied()));
        let f = UdpFrame::parse(&frames[4]).unwrap();
        let shared = PaxosMsg::decode_shared(&f.payload_bytes(&frames[4])).unwrap();
        assert_eq!(shared, p2a);
        // The value is a view of the frame, not a copy of it.
        assert!(frames[4]
            .data
            .as_ptr_range()
            .contains(&shared.value.as_ptr()));
    });
    assert_eq!(
        allocs, 0,
        "parse, verify and borrowed decode allocate nothing"
    );
}

/// Counts the packets a device under test sends back.
#[derive(Default)]
struct Sink {
    received: u64,
}

impl Node<Packet> for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Packet>, _port: PortId, _msg: Packet) {
        self.received += 1;
    }
    impl_node_any!();
}

/// Allocations a hardware-resident device makes while it answers
/// `measured` requests, after `warm_up` identical ones have sized every
/// queue, histogram bucket and scratch buffer and filled the frame free
/// list with the buffers of answered requests and consumed replies.
/// `request` builds request number `i`. Returns (allocations, replies
/// received while measured).
fn allocations_answering(
    mut sim: Simulator<Packet>,
    device: NodeId,
    request: impl Fn(u64) -> Packet,
) -> (u64, u64) {
    const WARM_UP: u64 = 200;
    const MEASURED: u64 = 200;
    const GAP: Nanos = Nanos::from_micros(5);
    let sink = sim.add_node(Sink::default());
    sim.connect_duplex(device, PortId::P0, sink, PortId::P0, LinkSpec::ideal());
    // Every request is built and queued up front: the measured region
    // holds the device's work only.
    for i in 0..WARM_UP + MEASURED {
        sim.inject(device, PortId::P0, request(i), GAP.mul_f64((i + 1) as f64));
    }
    sim.run_until(GAP.mul_f64(WARM_UP as f64 + 0.5));
    let before = sim.node_ref::<Sink>(sink).received;
    assert!(before > 0, "the device must be answering during warm-up");
    let allocs = allocations_in(|| {
        sim.run_until(GAP.mul_f64((WARM_UP + MEASURED) as f64 + 0.5));
    });
    (allocs, sim.node_ref::<Sink>(sink).received - before)
}

#[test]
fn a_warm_lake_device_allocates_nothing() {
    const KEYS: u64 = 16;
    let mut sim = Simulator::new(7);
    let device =
        sim.add_node(LakeDevice::new(LakeCacheConfig::tiny(64, 256), 5).started_in_hardware());
    let client = Endpoint::host(1, 40_000);
    let server = Endpoint::host(2, MEMCACHED_PORT);
    let frame = |i: u64| FrameHeader {
        request_id: i as u16,
        seq: 0,
        total: 1,
    };
    // Write-through SETs fill both cache levels (and go on to the
    // unconnected host port, which only counts them).
    for i in 0..KEYS {
        let key = key_name(i);
        let set = RequestView::Set {
            key: &key,
            value: &expected_value(&key, 64),
            flags: 0,
            expiry: 0,
        };
        let pkt = build_udp_with(client, server, set.encoded_len(), |b| {
            set.encode_into(frame(i), i as u32, b)
        });
        sim.inject(device, PortId::P0, pkt, Nanos::from_nanos(i + 1));
    }
    let (allocs, replies) = allocations_answering(sim, device, |i| {
        let key = key_name(i % KEYS);
        let get = RequestView::Get { key: &key };
        build_udp_with(client, server, get.encoded_len(), |b| {
            get.encode_into(frame(i), i as u32, b)
        })
    });
    assert_eq!(replies, 200, "every GET must hit in hardware");
    assert_eq!(allocs, 0, "a GET hit reuses a dropped frame's buffer");
}

#[test]
fn a_warm_emu_device_allocates_nothing() {
    const NAMES: u64 = 16;
    let mut sim = Simulator::new(7);
    let device = sim.add_node(EmuDevice::new(Zone::synthetic(NAMES)).started_in_hardware());
    let client = Endpoint::host(3, 41_000);
    let server = Endpoint::host(4, DNS_PORT);
    let (allocs, replies) = allocations_answering(sim, device, |i| {
        let query = Query {
            id: i as u16,
            name: Name::from_fmt(format_args!("host-{}.example.com", i % NAMES)).unwrap(),
            qtype: inc::dns::TYPE_A,
            recursion_desired: false,
        };
        build_udp_with(client, server, query.encoded_len(), |b| {
            query.encode_into(b)
        })
    });
    assert_eq!(replies, 200, "every query must be answered in hardware");
    assert_eq!(allocs, 0, "an A-record hit reuses a dropped frame's buffer");
}

/// Allocations per completed request the benchmark's packet fabric may
/// spend. Measured: 0.162 (0.427 while a Paxos node kept each received
/// frame past its last use, which sent every Paxos frame back to the
/// allocator instead of the free list; 0.53 while each Paxos acceptor
/// parked a copy of every value it voted for, 3.4 while every frame
/// built was an allocation and every KVS op formatted its key, 26.3
/// before the in-place packet path). What is left is frames the free
/// list cannot cover (more in flight than it keeps, or still shared
/// when dropped), the keys and values LaKe's miss path and
/// write-through SETs copy, the one copy of each command the Paxos
/// replica makes when it executes it, and the fleet controller's
/// per-interval bookkeeping.
const ALLOCS_PER_REQUEST_CEILING: f64 = 0.448;

#[test]
fn the_packet_fabric_stays_under_the_allocation_budget() {
    let profiles = MultiTorRig::contended_profiles(Nanos::from_millis(3_500));
    let mut rig = MultiTorRig::new(42, 512, 512, profiles);
    let mut ctl = MultiTorRig::fleet_controller(Nanos::from_millis(150));
    let mut timeline = None;
    let allocs = allocations_in(|| timeline = Some(rig.run(&mut ctl, Nanos::from_secs(1))));
    let kvs = rig
        .sim
        .node_ref::<inc::kvs::KvsClient>(rig.kvs_client)
        .stats();
    let dns = rig
        .sim
        .node_ref::<inc::dns::DnsClient>(rig.dns_client)
        .stats();
    assert_eq!((kvs.corrupt, dns.wrong), (0, 0));
    let completed = kvs.received + dns.received + rig.pax_acked();
    assert!(completed > 50_000, "only {completed} requests completed");
    assert!(
        allocs as f64 <= ALLOCS_PER_REQUEST_CEILING * completed as f64,
        "{allocs} allocations for {completed} requests ({:.3} per request, ceiling {ALLOCS_PER_REQUEST_CEILING})",
        allocs as f64 / completed as f64
    );
    println!(
        "packet fabric: {allocs} allocations for {completed} completed requests ({:.3} per request)",
        allocs as f64 / completed as f64
    );
    drop(timeline);
}

/// The event queue's memory is one slab recycled through a free list:
/// once it has held a burst, a burst that size costs nothing. Its work
/// is a count too: every event is filed once, released once, and refiled
/// fewer than eight times in between.
#[test]
fn a_warm_event_queue_takes_a_burst_without_allocating() {
    struct Sink(u64);
    impl Node<u64> for Sink {
        fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _port: PortId, _msg: u64) {
            self.0 += 1;
        }
        impl_node_any!();
    }
    const BURST: u64 = 17_700;
    let mut sim: Simulator<u64> = Simulator::new(0);
    let sink = sim.add_node(Sink(0));
    let mut interval = 0;
    let mut burst = |sim: &mut Simulator<u64>| {
        interval += 1;
        sim.inject_batch(
            sink,
            PortId::P0,
            (0..BURST).map(|j| (Nanos::from_nanos(1 + j * 5_600), j)),
        );
        sim.run_until(Nanos::from_millis(100 * interval));
    };
    burst(&mut sim);
    let allocs = allocations_in(|| burst(&mut sim));
    assert_eq!(sim.node_ref::<Sink>(sink).0, 2 * BURST);
    assert_eq!(allocs, 0, "a same-sized burst into a warm queue");
    let stats = sim.queue_stats();
    assert_eq!(stats.pushed, 2 * BURST);
    assert_eq!(stats.popped, sim.events_processed());
    assert_eq!(stats.popped, stats.pushed);
    assert_eq!(stats.high_water, BURST);
    assert!(stats.relinked <= 8 * stats.popped, "{stats:?}");
    println!(
        "heavy burst: {:.2} relinks per event",
        stats.relinked as f64 / stats.popped as f64
    );
}

/// A steady exchange over a link reuses one queue entry and the one
/// action buffer forever.
#[test]
fn an_echo_ping_pong_over_a_link_allocates_nothing() {
    /// Bounces every message straight back out of the port it came in on.
    struct Echo;
    impl Node<u64> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, port: PortId, msg: u64) {
            ctx.send(port, msg + 1);
        }
        impl_node_any!();
    }
    let mut sim: Simulator<u64> = Simulator::new(0);
    let a = sim.add_node(Echo);
    let b = sim.add_node(Echo);
    let wire = LinkSpec::ten_gbe(Nanos::from_micros(1));
    sim.connect_duplex(a, PortId::P0, b, PortId::P0, wire);
    sim.inject(a, PortId::P0, 0, Nanos::ZERO);
    sim.run_until(Nanos::from_micros(10));
    let before = sim.events_processed();
    let allocs = allocations_in(|| {
        sim.run_until(Nanos::from_micros(10_010));
    });
    assert_eq!(sim.events_processed() - before, 10_000);
    assert_eq!(allocs, 0, "a 10 000-event echo ping-pong");
    assert_eq!(sim.queue_stats().high_water, 1);
}

/// One arbitration tick of a warm 1 000-tenant [`MegaFabricRig`]
/// controller, as the budgets below read it.
struct Tick {
    /// Whether any pod arbiter ran.
    solved: bool,
    /// Placements the tick changed.
    moved: usize,
    /// Shift-log length before the tick.
    logged_before: usize,
    /// Allocations `FleetController::sample` made.
    allocs: u64,
}

/// Warms a controller over 200 ticks of the rig's churn trace (every
/// scratch buffer has seen its largest tick, every device ledger its
/// first tenant), then meters 400 more.
fn metered_arbiter_ticks(mode: ArbitrationMode) -> Vec<Tick> {
    let mut rig = MegaFabricRig::new(1_000, 42);
    let mut ctl = rig.controller(mode);
    rig.run(&mut ctl, 200);
    (201..=600)
        .map(|tick| {
            let samples = rig.tick_samples(tick);
            let (solved_before, logged_before) = (ctl.stats().pods_solved, ctl.shifts().len());
            let mut moved = 0;
            let allocs =
                allocations_in(|| moved = ctl.sample(Nanos::from_secs(tick), samples).len());
            Tick {
                solved: ctl.stats().pods_solved > solved_before,
                moved,
                logged_before,
                allocs,
            }
        })
        .collect()
}

#[test]
fn a_quiet_incremental_arbiter_tick_allocates_nothing() {
    let ticks = metered_arbiter_ticks(ArbitrationMode::Incremental);
    let quiet: Vec<&Tick> = ticks.iter().filter(|t| !t.solved).collect();
    assert!(quiet.len() > 200, "only {} quiet ticks", quiet.len());
    assert!(quiet.iter().all(|t| t.moved == 0 && t.allocs == 0));
}

#[test]
fn a_full_rescore_tick_that_moves_nothing_allocates_nothing() {
    let ticks = metered_arbiter_ticks(ArbitrationMode::FullRescore);
    assert!(ticks.iter().all(|t| t.solved));
    let still: Vec<&Tick> = ticks.iter().filter(|t| t.moved == 0).collect();
    assert!(
        still.len() > 200,
        "only {} ticks moved nothing",
        still.len()
    );
    assert_eq!(still.iter().map(|t| t.allocs).max(), Some(0));
}

/// A tick that shifts placements allocates the list it returns, and the
/// shift log grows by doubling: one more allocation each time a push
/// finds it full (at 4, 8, 16, … entries).
#[test]
fn a_shifting_arbiter_tick_allocates_only_what_it_returns() {
    for mode in [ArbitrationMode::Incremental, ArbitrationMode::FullRescore] {
        let ticks = metered_arbiter_ticks(mode);
        let shifting: Vec<&Tick> = ticks.iter().filter(|t| t.moved > 0).collect();
        assert!(
            shifting.len() >= 10,
            "only {} shifting ticks",
            shifting.len()
        );
        for t in shifting {
            let log_growths = (t.logged_before..t.logged_before + t.moved)
                .filter(|&len| len >= 4 && len.is_power_of_two())
                .count() as u64;
            assert!(
                t.allocs <= 1 + log_growths,
                "{} allocations to shift {} placements ({} logged before)",
                t.allocs,
                t.moved,
                t.logged_before
            );
        }
    }
}

/// Building a controller stays as cheap as it was before it owned its
/// scratch buffers (they start empty): `heavy_stream` / `heavy_events`
/// build one per rig inside their measured region. Measured at the
/// parent of the scratch change: 64 allocations for 1 000 tenants on the
/// 128-device fabric. The warm set added two columns (the band
/// half-widths, the warm bits) and retired one (the dirty-queue dedup
/// flags; the queue is sorted and deduplicated instead), then a third
/// (each resident's cached delivered value): 66. The learned-tenure fork
/// left with its per-app estimator column: 65.
#[test]
fn building_a_fleet_controller_allocates_no_more_than_before() {
    const PARENT_ALLOCS: u64 = 65;
    let seed = MegaFabricRig::new(1_000, 42).controller(ArbitrationMode::Incremental);
    let (config, fabric, apps) = (
        *seed.config(),
        MegaFabricRig::fabric(),
        seed.apps().to_vec(),
    );
    let mut built = None;
    let allocs = allocations_in(|| built = Some(FleetController::new(config, fabric, apps)));
    assert!(
        allocs <= PARENT_ALLOCS,
        "FleetController::new made {allocs} allocations (parent {PARENT_ALLOCS})"
    );
    assert_eq!(built.unwrap().placements().len(), 1_000);
}

/// A seat costs nothing once the ledgers are warm. Every device of the
/// arbiter's 128-ToR fabric first holds its peak resident count (as many
/// copies of the fleet's component-wise smallest program as fit, which
/// bounds how many of its real programs can), and the residency index
/// first covers the highest slot. Then 10 000 random seats, moves,
/// in-place re-seats and releases of the fleet's 1 000 tenants allocate
/// nothing. A seat is tried the way the arbiter tries one, `fits` first,
/// so no refusal builds its diagnosis.
#[test]
fn a_warm_fabric_seats_and_releases_without_allocating() {
    let apps = MegaFabricRig::new(1_000, 42)
        .controller(ArbitrationMode::FullRescore)
        .apps()
        .to_vec();
    let smallest = apps.iter().fold(apps[0].demand, |m, a| ProgramResources {
        stages: m.stages.min(a.demand.stages),
        sram_bytes: m.sram_bytes.min(a.demand.sram_bytes),
        parse_depth_bytes: m.parse_depth_bytes.min(a.demand.parse_depth_bytes),
    });
    assert!(smallest.stages > 0, "a stageless program has no peak");
    let mut fabric = MegaFabricRig::fabric();
    let last = apps.len() as u64 - 1;
    fabric.admit(DeviceId(0), last, smallest).unwrap();
    fabric.clear();
    let mut slot = 0;
    for d in (0..MegaFabricRig::DEVICES).map(|d| DeviceId(d as u16)) {
        while fabric.device(d).fits(&smallest) {
            fabric.admit(d, slot, smallest).unwrap();
            slot += 1;
        }
    }
    assert!(
        slot <= last,
        "{slot} filler seats need more slots than tenants"
    );
    fabric.clear();

    let mut rng = Rng::new(7);
    let (mut seated, mut moved, mut released) = (0u32, 0u32, 0u32);
    let allocs = allocations_in(|| {
        for _ in 0..10_000 {
            let app = rng.index(apps.len());
            if rng.chance(0.3) {
                released += u32::from(fabric.release(app as u64));
                continue;
            }
            let d = DeviceId(rng.index(MegaFabricRig::DEVICES) as u16);
            if fabric.device(d).fits(&apps[app].demand) {
                let from = fabric.residency(app as u64);
                fabric
                    .admit(d, app as u64, apps[app].demand)
                    .expect("a demand that fits is admitted");
                seated += 1;
                moved += u32::from(from.is_some_and(|f| f != d));
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "{seated} seats, {moved} moves, {released} releases"
    );
    assert!(
        seated > 2_000 && moved > 500 && released > 1_000,
        "{seated} seats, {moved} moves, {released} releases"
    );
}
