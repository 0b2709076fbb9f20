//! A bounded stack of spare buffers, for one thread's hot path.

use std::cell::RefCell;

/// A bounded stack of spare buffers, for one thread's hot path.
///
/// A model that builds a buffer, hands it on and drops it a few
/// simulated microseconds later — a frame, an outbox spill — would
/// otherwise free and allocate the same memory once per message. A
/// `FreeList` keeps the dropped buffers for the next one instead. It
/// lives in a `thread_local!` (its `new` is `const`), one list per kind
/// of buffer, and each list has the bound its own traffic justifies:
/// past the bound, a buffer goes back to the allocator, so a burst does
/// not stay allocated once it drains.
///
/// Neither method panics: a list that is already borrowed — a buffer's
/// destructor re-entering it — takes nothing and keeps nothing.
#[derive(Debug)]
pub struct FreeList<T> {
    free: RefCell<Vec<T>>,
    bound: usize,
}

impl<T> FreeList<T> {
    /// An empty list that keeps at most `bound` buffers.
    pub const fn new(bound: usize) -> Self {
        FreeList {
            free: RefCell::new(Vec::new()),
            bound,
        }
    }

    /// The buffer listed last, if any.
    pub fn take(&self) -> Option<T> {
        self.free.try_borrow_mut().ok()?.pop()
    }

    /// Lists `spare` for reuse if there is room, and drops it otherwise.
    /// The first buffer listed sizes the list for its bound, so a warm
    /// list never reallocates.
    pub fn give(&self, spare: T) {
        let Ok(mut free) = self.free.try_borrow_mut() else {
            return;
        };
        if free.len() < self.bound {
            let room = self.bound - free.len();
            free.reserve_exact(room);
            free.push(spare);
        }
        // A refused `spare` drops after the borrow ends: its destructor
        // may use this list.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_at_most_its_bound_and_hands_back_the_last_given() {
        let list = FreeList::new(3);
        assert_eq!(list.take(), None::<u32>);
        for n in 1..=5 {
            list.give(n);
        }
        assert_eq!(list.free.borrow().len(), 3);
        assert_eq!(list.take(), Some(3));
        list.give(9);
        assert_eq!([list.take(), list.take()], [Some(9), Some(2)]);
        assert_eq!([list.take(), list.take()], [Some(1), None]);
    }

    #[test]
    fn a_borrowed_list_neither_takes_nor_keeps() {
        let list = FreeList::new(4);
        list.give(1u8);
        let held = list.free.borrow_mut();
        assert_eq!(list.take(), None);
        list.give(2);
        drop(held);
        assert_eq!([list.take(), list.take()], [Some(1), None]);
    }
}
