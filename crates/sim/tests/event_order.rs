//! Differential test of the simulator's event order against a binary
//! heap of `(time, push-sequence)` keys — the structure the radix queue
//! replaced, kept here as the oracle.
//!
//! Seeded schedules drive a [`Simulator`] and the oracle side by side:
//! harness bursts with many equal timestamps, nodes that schedule
//! zero-delay follow-ups (messages and timers) from inside a dispatch,
//! `run_until` steps of random length including zero whose deadlines
//! fall between events, clocks started just below each of the eight
//! byte boundaries of the time word and within 2^16 of its end. The
//! `(time, payload)` sequence the node sees and `events_processed` must
//! match the oracle's exactly, however the simulator's span is cut into
//! steps. `PROPTEST_SEED` varies the schedules.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use inc_sim::{impl_node_any, Ctx, Nanos, Node, NodeId, PortId, Rng, Simulator};

/// What the node does with `payload`: up to three follow-ups, each
/// `(delay, payload)`, a pure function so the oracle can replay it. The
/// low byte is the remaining depth; odd children are timers, even ones
/// messages. About half the delays are zero.
fn react(payload: u64) -> impl Iterator<Item = (u64, u64)> {
    let depth = payload & 0xff;
    let mut rng = Rng::new(payload);
    let children = if depth == 0 { 0 } else { rng.next_u64() % 4 };
    (0..children).map(move |_| {
        let r = rng.next_u64();
        let delay = match r % 8 {
            0..=3 => 0,
            4 => r >> 60,
            5 => (r >> 32) % 600,
            6 => (r >> 32) % 200_000,
            _ => u64::MAX - (r >> 50),
        };
        (delay, (r & !0xff) | (depth - 1))
    })
}

struct Chatter {
    seen: Vec<(u64, u64)>,
}

impl Chatter {
    fn on_event(&mut self, ctx: &mut Ctx<'_, u64>, payload: u64) {
        self.seen.push((ctx.now().as_nanos(), payload));
        for (delay, child) in react(payload) {
            let delay = Nanos::from_nanos(delay);
            if (child >> 8) & 1 == 1 {
                ctx.schedule_in(delay, child);
            } else {
                ctx.inject(ctx.self_id(), PortId::P0, child, delay);
            }
        }
    }
}

impl Node<u64> for Chatter {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _port: PortId, msg: u64) {
        self.on_event(ctx, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
        self.on_event(ctx, tag);
    }
    impl_node_any!();
}

/// The reference event loop: a heap of `(time, push-sequence, payload)`.
#[derive(Default)]
struct Oracle {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    seq: u64,
    now: u64,
    seen: Vec<(u64, u64)>,
}

impl Oracle {
    fn push(&mut self, delay: u64, payload: u64) {
        self.seq += 1;
        let at = self.now.saturating_add(delay);
        self.heap.push(Reverse((at, self.seq, payload)));
    }

    fn run_until(&mut self, deadline: u64) {
        while self.heap.peek().is_some_and(|r| r.0 .0 <= deadline) {
            let Reverse((at, _, payload)) = self.heap.pop().expect("peeked");
            self.now = at;
            self.seen.push((at, payload));
            react(payload).for_each(|(delay, child)| self.push(delay, child));
        }
        self.now = deadline;
    }
}

struct Pair {
    sim: Simulator<u64>,
    node: NodeId,
    oracle: Oracle,
}

impl Pair {
    fn starting_at(seed: u64, start: u64) -> Pair {
        let mut sim = Simulator::new(seed);
        let node = sim.add_node(Chatter { seen: Vec::new() });
        let mut oracle = Oracle::default();
        sim.run_until(Nanos::from_nanos(start));
        oracle.run_until(start);
        Pair { sim, node, oracle }
    }

    /// One harness burst of `n` events, delays drawn from a handful of
    /// values so timestamps collide.
    fn burst(&mut self, rng: &mut Rng, n: u64) {
        let spread = [1, 3, 300, 70_000][(rng.next_u64() % 4) as usize];
        let batch: Vec<(u64, u64)> = (0..n)
            .map(|_| {
                let r = rng.next_u64();
                ((r >> 32) % spread, (r & !0xff) | ((r >> 56) % 4))
            })
            .collect();
        for &(delay, payload) in &batch {
            self.oracle.push(delay, payload);
        }
        if rng.chance(0.5) {
            let batch = batch.iter().map(|&(d, p)| (Nanos::from_nanos(d), p));
            self.sim.inject_batch(self.node, PortId::P0, batch);
        } else {
            for (delay, payload) in batch {
                self.sim
                    .inject(self.node, PortId::P0, payload, Nanos::from_nanos(delay));
            }
        }
    }

    /// Runs both sides over the same span: the oracle in one step, the
    /// simulator cut into up to four (some of zero length).
    fn advance(&mut self, rng: &mut Rng, span: u64) {
        let from = self.oracle.now;
        let deadline = from.saturating_add(span);
        self.oracle.run_until(deadline);
        let mut cuts: Vec<u64> = (0..rng.next_u64() % 4)
            .map(|_| from + rng.next_u64() % (deadline - from).max(1))
            .collect();
        cuts.push(deadline);
        cuts.sort_unstable();
        for cut in cuts {
            self.sim.run_until(Nanos::from_nanos(cut));
        }
    }

    fn check(&self, what: &str) {
        let seen = &self.sim.node_ref::<Chatter>(self.node).seen;
        if let Some(i) = (0..seen.len().max(self.oracle.seen.len()))
            .find(|&i| seen.get(i) != self.oracle.seen.get(i))
        {
            panic!(
                "{what}: event {i} is {:?}, the heap oracle says {:?}",
                seen.get(i),
                self.oracle.seen.get(i)
            );
        }
        assert_eq!(self.sim.events_processed(), seen.len() as u64, "{what}");
        assert_eq!(self.sim.now().as_nanos(), self.oracle.now, "{what}");
        let stats = self.sim.queue_stats();
        assert_eq!(stats.popped, seen.len() as u64, "{what}");
        assert_eq!(stats.pushed - stats.popped, self.oracle.heap.len() as u64);
        assert!(stats.high_water <= stats.pushed, "{what}");
        if self.oracle.heap.is_empty() {
            // An event moves to a strictly lower level each time.
            assert!(stats.relinked <= 8 * stats.popped, "{what}: {stats:?}");
        }
    }
}

fn base_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0x1ce_c0de)
}

/// Events per seeded schedule: the full size in release (what
/// `scripts/bench_smoke.sh` runs), a fifth of it in debug.
const EVENTS: usize = if cfg!(debug_assertions) {
    20_000
} else {
    100_000
};

#[test]
fn event_order_matches_the_heap_oracle() {
    // Clocks starting at 0, just below each byte boundary of the time
    // word, and within 2^16 of its end.
    let starts = (1..8)
        .map(|level| (1u64 << (8 * level)).saturating_sub(300))
        .chain([0, u64::MAX - (1 << 16)]);
    for (i, start) in starts.enumerate() {
        let seed = base_seed().wrapping_add(i as u64);
        let mut rng = Rng::new(seed);
        let mut pair = Pair::starting_at(seed, start);
        while pair.oracle.seen.len() < EVENTS {
            let n = 1 + rng.next_u64() % 400;
            pair.burst(&mut rng, n);
            let span = match rng.next_u64() % 6 {
                0 => 0,
                1 => rng.next_u64() % 4,
                2 | 3 => rng.next_u64() % 700,
                4 => rng.next_u64() % 100_000,
                _ => rng.next_u64() % (1 << 24),
            };
            // Near the end of time, creep: the whole schedule then runs
            // within 2^16 of `u64::MAX`.
            let span = if start > u64::MAX / 2 { span % 8 } else { span };
            pair.advance(&mut rng, span);
        }
        pair.check(&format!("seed {seed}, clock from {start}"));
        // Then to the end of time: everything still pending — the
        // events parked at `u64::MAX` included — fires, in push order.
        pair.advance(&mut rng, u64::MAX);
        assert!(pair.oracle.heap.is_empty());
        pair.check(&format!("seed {seed}, clock from {start}, drained"));
    }
}

#[test]
fn one_run_equals_the_same_span_cut_into_steps() {
    let seed = base_seed();
    let span = 3_000_000u64;
    let run = |steps: &[u64]| {
        let mut rng = Rng::new(seed);
        let mut pair = Pair::starting_at(seed, 0);
        pair.burst(&mut rng, 5_000);
        for &step in steps {
            pair.sim.run_until(Nanos::from_nanos(step));
        }
        pair.oracle.run_until(span);
        pair.check("cut run");
        let stats = pair.sim.queue_stats();
        (pair.oracle.seen, stats)
    };
    let mut rng = Rng::new(seed ^ 1);
    let mut steps: Vec<u64> = (0..500).map(|_| rng.next_u64() % span).collect();
    steps.push(span);
    steps.sort_unstable();
    let (whole, whole_stats) = run(&[span]);
    let (cut, cut_stats) = run(&steps);
    assert!(whole.len() >= 5_000);
    assert_eq!(whole, cut);
    // The structure does the same work either way: a deadline that is
    // not reached refiles nothing.
    assert_eq!(whole_stats, cut_stats);
}
