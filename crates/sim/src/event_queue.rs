//! The simulator's pending-event set: a monotone hierarchical radix queue.
//!
//! A discrete-event simulation only ever schedules at or after its own
//! clock, so the queue keeps a lower bound `last` (the time of the last
//! event it released) and files an event by *where its time first
//! differs from `last`*: level `L` (0..8) is the highest byte at which
//! `at` and `last` differ, the slot is that byte of `at`. Events with
//! `at == last` wait in the `exact` list. Every entry of level `L`
//! therefore shares all bytes above `L` with `last` and is later than
//! every entry of a lower level, so the earliest event is always in the
//! lowest occupied slot of the lowest occupied level.
//!
//! When `exact` runs dry, that slot is *cascaded*: `last` jumps to the
//! slot's minimum and its entries are refiled against the new bound —
//! each lands at a strictly lower level (or in `exact`), so an event is
//! relinked fewer than eight times in its life whatever the queue holds.
//! Push is O(1): two shifts and a list append.
//!
//! **FIFO per timestamp.** Every list is an intrusive singly-linked list
//! threaded through one slab, and every list is always in push order:
//! a push appends at the tail; a slot is cascaded only when everything
//! below it is empty; and a cascade refiles its entries in list order.
//! Events with equal times always sit in the same list, so they leave
//! in the order they were pushed — `(time, push-sequence)` order with no
//! stored sequence number and no comparison.
//!
//! Memory is the slab (one [`Entry`] per live event, recycled through an
//! intrusive free list — no steady-state allocation) plus a fixed 32 KiB
//! slot table held inline, so a queue that is never pushed to allocates
//! nothing.

use crate::time::Nanos;

const LEVELS: usize = 8;
const SLOTS: usize = 256;
const NIL: u32 = u32::MAX;

/// Deterministic work counters of a [`Simulator`](crate::Simulator)'s
/// event queue: what the structure did, as counts rather than timings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled.
    pub pushed: u64,
    /// Events ever released for dispatch.
    pub popped: u64,
    /// Entries refiled to a lower level by a cascade. Each refiling
    /// lowers the entry's level, so this is under `8 × pushed` always
    /// and under `8 × popped` once the queue has drained.
    pub relinked: u64,
    /// Most events pending at once.
    pub high_water: u64,
}

struct Entry<T> {
    at: u64,
    next: u32,
    /// `None` only while the entry is on the free list.
    item: Option<T>,
}

/// One intrusive FIFO list: slab indices of its ends and the earliest
/// time it holds (entries leave a slot only all at once, so the minimum
/// never needs recomputing).
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    min: u64,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        min: u64::MAX,
    };
}

pub(crate) struct EventQueue<T> {
    slab: Vec<Entry<T>>,
    /// Head of the free list threaded through the slab's dead entries.
    free: u32,
    /// Lower bound of every queued time; only [`EventQueue::pop_due`]
    /// advances it, and never past the deadline it was given.
    last: u64,
    exact: List,
    slots: [List; LEVELS * SLOTS],
    occupied: [[u64; SLOTS / 64]; LEVELS],
    stats: QueueStats,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            last: 0,
            exact: List::EMPTY,
            slots: [List::EMPTY; LEVELS * SLOTS],
            occupied: [[0; SLOTS / 64]; LEVELS],
            stats: QueueStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Makes room for `additional` more events with at most one slab
    /// growth; entries on the free list count as room.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let pending = (self.stats.pushed - self.stats.popped) as usize;
        let free = self.slab.len() - pending;
        self.slab.reserve(additional.saturating_sub(free));
    }

    /// Schedules `item` at `at`, after every event already queued for
    /// the same time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last released event: the
    /// simulator never schedules into its past, so that is a bug in it.
    pub(crate) fn push(&mut self, at: Nanos, item: T) {
        let at = at.as_nanos();
        assert!(
            at >= self.last,
            "event scheduled at {at} ns, before the queue's clock {} ns",
            self.last
        );
        let entry = Entry {
            at,
            next: NIL,
            item: Some(item),
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.slab.len())
                .ok()
                .filter(|&idx| idx != NIL)
                .expect("more than u32::MAX pending events");
            self.slab.push(entry);
            idx
        } else {
            let idx = self.free;
            let slot = &mut self.slab[idx as usize];
            self.free = slot.next;
            *slot = entry;
            idx
        };
        self.link(idx, at);
        self.stats.pushed += 1;
        let pending = self.stats.pushed - self.stats.popped;
        self.stats.high_water = self.stats.high_water.max(pending);
    }

    /// Appends entry `idx` (its `next` already `NIL`) to the list that
    /// `at` belongs in relative to the current `last`.
    fn link(&mut self, idx: u32, at: u64) {
        let diff = at ^ self.last;
        let list = if diff == 0 {
            &mut self.exact
        } else {
            let level = (63 - diff.leading_zeros() as usize) / 8;
            let slot = (at >> (8 * level)) as usize & (SLOTS - 1);
            self.occupied[level][slot / 64] |= 1 << (slot % 64);
            &mut self.slots[level * SLOTS + slot]
        };
        if list.tail == NIL {
            list.head = idx;
        } else {
            self.slab[list.tail as usize].next = idx;
        }
        list.tail = idx;
        list.min = list.min.min(at);
    }

    /// The lowest occupied slot of the lowest occupied level.
    fn first_occupied(&self) -> Option<(usize, usize)> {
        self.occupied.iter().enumerate().find_map(|(level, words)| {
            let (word, bits) = words.iter().enumerate().find(|(_, &bits)| bits != 0)?;
            Some((level, word * 64 + bits.trailing_zeros() as usize))
        })
    }

    /// Advances `last` to `min`, the earliest time in `(level, slot)`,
    /// and refiles that slot's entries against it, in list order.
    fn cascade(&mut self, level: usize, slot: usize, min: u64) {
        self.last = min;
        self.occupied[level][slot / 64] &= !(1 << (slot % 64));
        let list = std::mem::replace(&mut self.slots[level * SLOTS + slot], List::EMPTY);
        if level == 0 {
            // A level-0 slot holds a single timestamp: splice it whole.
            self.exact = list;
            return;
        }
        let mut idx = list.head;
        while idx != NIL {
            let entry = &mut self.slab[idx as usize];
            let (next, at) = (entry.next, entry.at);
            entry.next = NIL;
            self.link(idx, at);
            self.stats.relinked += 1;
            idx = next;
        }
    }

    /// Releases the earliest event if it is due at or before `deadline`,
    /// earliest-pushed first among equal times.
    ///
    /// The minimum is inspected *before* anything is refiled, so `last`
    /// never passes `deadline` and the caller may keep scheduling from
    /// `deadline` onwards.
    pub(crate) fn pop_due(&mut self, deadline: Nanos) -> Option<(Nanos, T)> {
        let deadline = deadline.as_nanos();
        if self.exact.head == NIL {
            let (level, slot) = self.first_occupied()?;
            let min = self.slots[level * SLOTS + slot].min;
            if min > deadline {
                return None;
            }
            self.cascade(level, slot, min);
        } else if self.last > deadline {
            return None;
        }
        let idx = self.exact.head;
        let entry = &mut self.slab[idx as usize];
        let item = entry.item.take().expect("a queued entry holds its item");
        self.exact.head = entry.next;
        if entry.next == NIL {
            self.exact.tail = NIL;
        }
        entry.next = self.free;
        self.free = idx;
        self.stats.popped += 1;
        Some((Nanos::from_nanos(self.last), item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>, deadline: u64) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop_due(Nanos::from_nanos(deadline)))
            .map(|(at, item)| (at.as_nanos(), item))
            .collect()
    }

    #[test]
    fn equal_times_leave_in_push_order_across_levels() {
        let mut q = EventQueue::new();
        // Pushed against last = 0 these enter at levels 0, 1, 3 and 7;
        // every time is pushed twice, interleaved.
        let times = [5u64, 0x1_00, 0x0301_0005, u64::MAX, 0];
        for (i, &at) in times.iter().enumerate() {
            q.push(Nanos::from_nanos(at), i as u32);
        }
        for (i, &at) in times.iter().enumerate() {
            q.push(Nanos::from_nanos(at), 10 + i as u32);
        }
        let mut expect: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .flat_map(|(i, &at)| [(at, i as u32), (at, 10 + i as u32)])
            .collect();
        expect.sort_by_key(|&(at, _)| at);
        assert_eq!(drain(&mut q, u64::MAX), expect);
        let stats = q.stats();
        assert_eq!((stats.pushed, stats.popped, stats.high_water), (10, 10, 10));
        assert!(stats.relinked <= 8 * stats.popped);
    }

    #[test]
    fn the_clock_never_passes_the_deadline() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(1_000), 1);
        q.push(Nanos::from_nanos(70_000), 2);
        // Nothing is due: the slot holding both is inspected, not refiled.
        assert_eq!(drain(&mut q, 999), []);
        assert_eq!(q.stats().relinked, 0);
        // So a push between the deadline and the earliest event is legal
        // and fires first.
        q.push(Nanos::from_nanos(999), 3);
        assert_eq!(drain(&mut q, 1_000), [(999, 3), (1_000, 1)]);
        assert_eq!(drain(&mut q, 69_999), []);
        q.push(Nanos::from_nanos(1_000), 4);
        // An event at the clock itself is still held to the deadline.
        assert_eq!(drain(&mut q, 999), []);
        assert_eq!(drain(&mut q, u64::MAX), [(1_000, 4), (70_000, 2)]);
    }

    #[test]
    fn every_byte_boundary_is_an_ordinary_crossing() {
        for level in 1..LEVELS {
            let boundary = 1u64 << (8 * level);
            let mut q = EventQueue::new();
            q.push(Nanos::from_nanos(boundary - 2), 0);
            assert_eq!(drain(&mut q, boundary - 2), [(boundary - 2, 0)]);
            // last = …fe: the next events straddle …ff → …100.
            let times = [
                boundary + 1,
                boundary - 1,
                boundary,
                boundary - 1,
                boundary + 256,
            ];
            for (i, &at) in times.iter().enumerate() {
                q.push(Nanos::from_nanos(at), i as u32);
            }
            let expect = [
                (boundary - 1, 1),
                (boundary - 1, 3),
                (boundary, 2),
                (boundary + 1, 0),
                (boundary + 256, 4),
            ];
            assert_eq!(drain(&mut q, u64::MAX), expect, "level {level}");
        }
    }

    #[test]
    fn freed_entries_are_reused_before_the_slab_grows() {
        let mut q = EventQueue::new();
        for round in 0..3u64 {
            q.reserve(100);
            let capacity = q.slab.capacity();
            for i in 0..100 {
                q.push(Nanos::from_nanos(round * 1_000 + i * 7), i as u32);
            }
            assert_eq!(q.slab.capacity(), capacity, "round {round} grew mid-burst");
            assert_eq!(drain(&mut q, u64::MAX).len(), 100);
            assert_eq!(q.slab.len(), 100);
        }
        assert_eq!(q.stats().high_water, 100);
    }

    #[test]
    #[should_panic(expected = "before the queue's clock")]
    fn scheduling_into_the_past_is_a_bug() {
        let mut q = EventQueue::new();
        q.push(Nanos::from_nanos(10), 0);
        q.pop_due(Nanos::from_nanos(10));
        q.push(Nanos::from_nanos(9), 1);
    }
}
