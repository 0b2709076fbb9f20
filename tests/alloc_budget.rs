//! Allocation budget of the consensus value plane, defended by
//! `cargo test` rather than only by the benchmark's `allocs_per_kop`.
//!
//! A command's bytes are allocated once per wire hop (`PaxosMsg::decode`)
//! and shared by refcount from there on; role steps that send at most
//! one message allocate nothing. This binary has its own counting
//! `#[global_allocator]`, so it holds these tests only. The counter is
//! per thread: libtest runs tests on parallel threads, and a test must
//! not be billed for its neighbour's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use inc::net::Bytes;
use inc::paxos::multi::{Acceptor, Ballot};
use inc::paxos::{ClientCommand, MsgType, PaxosMsg};
use inc_bench::consensus::ChaosCluster;

thread_local! {
    // Const-initialised and without a destructor: safe to touch from
    // inside the allocator at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is thread-local
// plain data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a request of its own: `Vec` doubling is counted.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
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

/// Allocations per decided slot a loss-free 2-replica/2-leader/3-acceptor
/// cluster may spend, the test's own 32-byte payload included. Measured:
/// 10.7 (53.7 with `Vec<u8>` values, `Vec` outboxes and `BTreeSet` voter
/// sets). What is left is one decode per delivered message, the
/// command's own buffer, and amortised `BTreeMap`/`Vec` growth.
const ALLOCS_PER_SLOT_CEILING: u64 = 13;

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
        allocs <= ALLOCS_PER_SLOT_CEILING * SLOTS,
        "{allocs} allocations for {SLOTS} slots ({:.1} per slot, ceiling {ALLOCS_PER_SLOT_CEILING})",
        allocs as f64 / SLOTS as f64
    );
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
    // Warm: the accepted map has a node for every slot.
    for p in &proposals {
        assert_eq!(acceptor.handle(p).len(), 1);
    }

    // A retransmitted phase-2a is stored and voted for again: the value
    // lands in the map and in the vote by refcount, the vote rides in
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
