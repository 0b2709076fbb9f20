//! The messages one role step produces, held inline until there are two.
//!
//! Most role steps send nothing (a vote below quorum, a
//! stale ballot) or exactly one message (a vote, a promise, a proposal),
//! so an [`Outbox`] keeps its first message in the value itself and only
//! spills to a heap buffer for the second — an execution that answers
//! for several slots, a retransmit burst. That buffer is a [`Spill`]:
//! dropped, or iterated to the end, it goes back emptied to a bounded
//! per-thread free list, and the next spill on the thread takes it from
//! there. Every harness consumes an outbox before its next step, so a
//! warm thread's spills cost nothing either. An outbox is returned **by
//! value** from every `handle`/`tick`: a per-machine reusable buffer
//! would save the same allocation but grows each role struct by a
//! `Vec`, and the role structs are size-pinned (see
//! `multi::tests::role_structs_stay_small`).

use inc_sim::FreeList;

use crate::msg::PaxosMsg;

/// Where an emitted message should be sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// Every acceptor.
    AllAcceptors,
    /// Every replica, plus the leaders (phase-2b votes, which also carry
    /// commander progress and preemption to the leader).
    AllLearners,
    /// The leader service: the coordinator-steered virtual address on
    /// the packet path, every competing leader in the chaos rig (stale
    /// ones ignore traffic for ballots they no longer hold).
    Leader,
    /// A specific client.
    Client(u32),
    /// Back to whoever sent the message being handled.
    Reply,
}

/// One routed message.
pub type Routed = (Dest, PaxosMsg);

/// Messages produced by a role step, in the order they must be sent.
///
/// Reads like a slice (`len`, `is_empty`, indexing, `iter` all come from
/// `Deref<Target = [Routed]>`) and is consumed by `into_iter`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum Outbox {
    /// Nothing to send.
    #[default]
    Empty,
    /// Exactly one message, stored inline (no allocation).
    One(Routed),
    /// Two or more messages.
    Many(Spill),
}

/// The most spill buffers one thread's free list keeps. A harness
/// consumes each outbox before its next step, so few spills are alive
/// at once: the list's high-water mark is 2 over the benchmark's chaos
/// epoch, `tests/failure_injection.rs` and `tests/properties.rs` (an
/// execution's replies and the proposals it frees up, one retransmit
/// burst and its follow-up). Four times that covers a harness that
/// holds a few outboxes across a step.
const FREE_SPILLS: usize = 8;

/// The longest spill buffer the list keeps, in messages: 16 KiB, so the
/// list holds 128 KiB at most. The longest spill of those runs is 64
/// messages (a leader re-commanding its window); a longer one — a
/// window stretched by a dead replica's floor — goes back to the
/// allocator rather than stay allocated.
const SPILL_CLASS: usize = 256;

thread_local! {
    /// Emptied spill buffers dropped on this thread.
    static SPILLS: FreeList<Vec<Routed>> = const { FreeList::new(FREE_SPILLS) };
}

/// The heap buffer of an [`Outbox::Many`], in send order. Dropped, it
/// lists its emptied `Vec` on this thread's free list for the next
/// spill; it reads as that `Vec`.
#[derive(Debug, PartialEq, Eq)]
pub struct Spill(Vec<Routed>);

impl Spill {
    /// An empty buffer: the one listed last on this thread, or a fresh
    /// `Vec` (no allocation until the first push).
    fn take() -> Spill {
        Spill(
            SPILLS
                .try_with(FreeList::take)
                .ok()
                .flatten()
                .unwrap_or_default(),
        )
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        if (1..=SPILL_CLASS).contains(&self.0.capacity()) {
            self.0.clear();
            let spare = std::mem::take(&mut self.0);
            let _ = SPILLS.try_with(|free| free.give(spare));
        }
    }
}

impl Clone for Spill {
    fn clone(&self) -> Spill {
        let mut copy = Spill::take();
        copy.0.extend_from_slice(&self.0);
        copy
    }
}

impl std::ops::Deref for Spill {
    type Target = Vec<Routed>;

    fn deref(&self) -> &Vec<Routed> {
        &self.0
    }
}

impl Outbox {
    /// Appends a message after everything already queued.
    pub fn push(&mut self, routed: Routed) {
        match std::mem::take(self) {
            Outbox::Empty => *self = Outbox::One(routed),
            Outbox::One(first) => {
                let mut all = Spill::take();
                all.0.extend([first, routed]);
                *self = Outbox::Many(all);
            }
            Outbox::Many(mut all) => {
                all.0.push(routed);
                *self = Outbox::Many(all);
            }
        }
    }
}

impl std::ops::Deref for Outbox {
    type Target = [Routed];

    fn deref(&self) -> &[Routed] {
        match self {
            Outbox::Empty => &[],
            Outbox::One(only) => std::slice::from_ref(only),
            Outbox::Many(all) => all,
        }
    }
}

impl Extend<Routed> for Outbox {
    fn extend<I: IntoIterator<Item = Routed>>(&mut self, iter: I) {
        for routed in iter {
            self.push(routed);
        }
    }
}

impl FromIterator<Routed> for Outbox {
    fn from_iter<I: IntoIterator<Item = Routed>>(iter: I) -> Self {
        let mut out = Outbox::Empty;
        out.extend(iter);
        out
    }
}

/// Owning iterator over an [`Outbox`], in send order. A spill's buffer
/// goes back to the free list once the last message is taken or the
/// iterator is dropped, and nothing it did not yield goes with it.
#[derive(Debug)]
pub struct IntoIter(Outbox);

impl Iterator for IntoIter {
    type Item = Routed;

    fn next(&mut self) -> Option<Routed> {
        if let Outbox::Many(all) = &mut self.0 {
            // Reversed by `into_iter`: the next message is the last.
            let next = all.0.pop();
            if all.is_empty() {
                // Spent: the buffer goes back to the list now.
                self.0 = Outbox::Empty;
            }
            return next;
        }
        match std::mem::take(&mut self.0) {
            Outbox::One(only) => Some(only),
            _ => None,
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.0.len(), Some(self.0.len()))
    }
}

impl ExactSizeIterator for IntoIter {}

impl IntoIterator for Outbox {
    type Item = Routed;
    type IntoIter = IntoIter;

    fn into_iter(mut self) -> IntoIter {
        if let Outbox::Many(all) = &mut self {
            all.0.reverse();
        }
        IntoIter(self)
    }
}

impl<'a> IntoIterator for &'a Outbox {
    type Item = &'a Routed;
    type IntoIter = std::slice::Iter<'a, Routed>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgType;

    fn routed(instance: u64) -> Routed {
        (
            Dest::Leader,
            PaxosMsg::new(MsgType::GapRequest, instance, 0, Vec::new()),
        )
    }

    #[test]
    fn keeps_send_order_across_the_spill() {
        let mut out = Outbox::Empty;
        assert!(out.is_empty());
        for n in 1..=4 {
            out.push(routed(n));
            assert_eq!(out.len(), n as usize);
            assert!(matches!(
                (&out, n),
                (Outbox::One(_), 1) | (Outbox::Many(_), 2..)
            ));
        }
        assert_eq!(out[2].1.instance, 3);
        let by_ref: Vec<u64> = (&out).into_iter().map(|(_, m)| m.instance).collect();
        let owned: Vec<u64> = out.into_iter().map(|(_, m)| m.instance).collect();
        assert_eq!(by_ref, [1, 2, 3, 4]);
        assert_eq!(owned, [1, 2, 3, 4]);
    }

    #[test]
    fn extend_and_collect_append_in_order() {
        let mut out: Outbox = (1..=2).map(routed).collect();
        out.extend(Outbox::One(routed(3)));
        out.extend(Outbox::Empty);
        let got: Vec<u64> = out.iter().map(|(_, m)| m.instance).collect();
        assert_eq!(got, [1, 2, 3]);
        assert_eq!(Outbox::Empty.into_iter().count(), 0);
    }

    /// An outbox of `instances`, in order.
    fn outbox(instances: std::ops::Range<u64>) -> Outbox {
        instances.map(routed).collect()
    }

    /// The buffer behind a spilled outbox.
    fn buffer(out: &Outbox) -> *const Routed {
        match out {
            Outbox::Many(all) => all.as_ptr(),
            _ => panic!("not spilled: {out:?}"),
        }
    }

    /// Empties this thread's spill list; returns how many it held.
    fn drain_list() -> usize {
        std::iter::from_fn(|| SPILLS.with(FreeList::take)).count()
    }

    #[test]
    fn a_dropped_spill_is_the_next_spills_buffer() {
        drain_list();
        let first = outbox(0..5);
        let at = buffer(&first);
        drop(first);
        let next = outbox(10..12);
        assert_eq!(buffer(&next), at);
        // A spill is its `Vec` and nothing more: the outbox keeps its size.
        assert_eq!(
            std::mem::size_of::<Spill>(),
            std::mem::size_of::<Vec<Routed>>()
        );
        let got: Vec<u64> = next.iter().map(|(_, m)| m.instance).collect();
        assert_eq!(got, [10, 11]);
    }

    #[test]
    fn an_iterator_gives_its_buffer_back_spent_or_not() {
        drain_list();
        let full = outbox(0..4);
        let at = buffer(&full);
        let mut it = full.into_iter();
        assert_eq!(it.len(), 4);
        assert_eq!(it.next().map(|(_, m)| m.instance), Some(0));
        drop(it);
        // Back on the list, and empty: nothing unsent rides along.
        let next = outbox(7..9);
        assert_eq!((buffer(&next), next.len()), (at, 2));
        let mut it = next.into_iter();
        assert!(it.by_ref().map(|(_, m)| m.instance).eq([7, 8]));
        // Spent: listed before the iterator itself is dropped.
        assert_eq!(drain_list(), 1);
        assert_eq!(it.next(), None);
    }

    #[test]
    fn the_list_keeps_its_bound_and_no_long_buffer() {
        drain_list();
        let held: Vec<Outbox> = (0..3 * FREE_SPILLS as u64)
            .map(|n| outbox(n..n + 2))
            .collect();
        drop(held);
        assert_eq!(drain_list(), FREE_SPILLS);
        drop(outbox(0..SPILL_CLASS as u64 + 1));
        assert_eq!(drain_list(), 0);
    }
}
