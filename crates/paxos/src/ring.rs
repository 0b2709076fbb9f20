//! A slot-indexed window: the records of slots `base..`, nothing below.
//!
//! Every [`multi`](crate::multi) role keeps its per-slot state in one. A
//! slot's record sits at `slot & (capacity - 1)` of a power-of-two
//! buffer: look-up, insert and retire are index arithmetic. The buffer
//! starts empty (a new ring allocates nothing) and doubles when a slot
//! lands past its end. Raising `base` — the owning role's floor — drops
//! the records it passes; a slot below it is never stored again.

/// Slots a ring may span above its base: bounds what a garbage slot
/// number can allocate, and how far a cluster runs ahead of a stalled
/// floor (a dead replica).
pub(crate) const MAX_SPAN: u64 = 1 << 16;

/// Smallest buffer allocated: a replica's window fits without regrowing.
const MIN_CAPACITY: u64 = 32;

/// See the [module documentation](self).
#[derive(Clone, Debug)]
pub(crate) struct SlotRing<T> {
    buf: Box<[Option<T>]>,
    base: u64,
    len: usize,
}

impl<T> Default for SlotRing<T> {
    /// An empty ring based at slot 1, the first slot replicas assign.
    fn default() -> Self {
        let (buf, base, len) = (Box::default(), 1, 0);
        SlotRing { buf, base, len }
    }
}

impl<T> SlotRing<T> {
    /// The lowest slot this ring still stores.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Number of slots holding a record.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slots the buffer covers, ascending (stored or not).
    pub(crate) fn span(&self) -> std::ops::Range<u64> {
        self.base..self.base + self.buf.len() as u64
    }

    fn index(&self, slot: u64) -> Option<usize> {
        let at = (slot & (self.buf.len() as u64).wrapping_sub(1)) as usize;
        self.span().contains(&slot).then_some(at)
    }

    /// The record at `slot`.
    pub(crate) fn get(&self, slot: u64) -> Option<&T> {
        self.buf[self.index(slot)?].as_ref()
    }

    /// The record at `slot`, mutably.
    pub(crate) fn get_mut(&mut self, slot: u64) -> Option<&mut T> {
        let at = self.index(slot)?;
        self.buf[at].as_mut()
    }

    /// The cell of `slot`, the buffer regrown to cover it. `None` for a
    /// slot below the base or more than [`MAX_SPAN`] above it.
    fn cell(&mut self, slot: u64) -> Option<&mut Option<T>> {
        let ahead = slot.checked_sub(self.base).filter(|&a| a < MAX_SPAN)?;
        if ahead >= self.buf.len() as u64 {
            let capacity = (ahead + 1).next_power_of_two().max(MIN_CAPACITY);
            let mut buf: Box<[Option<T>]> = (0..capacity).map(|_| None).collect();
            for slot in self.span() {
                let from = self.index(slot).and_then(|at| self.buf[at].take());
                buf[(slot & (capacity - 1)) as usize] = from;
            }
            self.buf = buf;
        }
        let at = self.index(slot)?;
        self.len += usize::from(self.buf[at].is_none());
        Some(&mut self.buf[at])
    }

    /// The record at `slot`, stored as `make()` first if there is none;
    /// `None`, and nothing stored, where there is no room.
    pub(crate) fn get_or_insert_with(
        &mut self,
        slot: u64,
        make: impl FnOnce() -> T,
    ) -> Option<&mut T> {
        Some(self.cell(slot)?.get_or_insert_with(make))
    }

    /// Stores `record` at `slot` over whatever was there; `false`, and
    /// nothing stored, where there is no room.
    pub(crate) fn insert(&mut self, slot: u64, record: T) -> bool {
        self.cell(slot).map(|cell| *cell = Some(record)).is_some()
    }

    /// Retires the base slot: its record, and the base up by one.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let record = self.index(self.base).and_then(|at| self.buf[at].take());
        self.len -= usize::from(record.is_some());
        self.base += 1;
        record
    }

    /// Raises the base to `floor` (never lowers it), dropping what it passes.
    pub(crate) fn advance(&mut self, floor: u64) {
        // Headroom so that `span()` cannot overflow on a garbage floor.
        let floor = floor.min(u64::MAX - MAX_SPAN);
        while self.base < floor {
            if self.len == 0 {
                self.base = floor;
            } else {
                self.pop();
            }
        }
    }

    /// The stored records in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.span().filter_map(|slot| Some((slot, self.get(slot)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_ring_is_empty_and_allocation_free() {
        let ring: SlotRing<u64> = SlotRing::default();
        assert_eq!((ring.base(), ring.len(), ring.span()), (1, 0, 1..1));
        assert_eq!(ring.get(1), None);
        assert_eq!(std::mem::size_of::<SlotRing<u64>>(), 32);
    }

    #[test]
    fn records_survive_growth_and_wrap_around_the_buffer() {
        let mut ring = SlotRing::default();
        for slot in 1..=10u64 {
            assert!(ring.insert(slot, slot * 10));
        }
        assert_eq!(ring.span(), 1..1 + MIN_CAPACITY);
        // Retire eight, then fill the freed front of the buffer with the
        // slots past its old end.
        ring.advance(9);
        assert_eq!((ring.base(), ring.len()), (9, 2));
        let end = 9 + MIN_CAPACITY;
        for slot in 11..end {
            assert!(ring.insert(slot, slot * 10));
        }
        assert_eq!(ring.span(), 9..end, "the same buffer still fits them");
        assert!(ring.insert(end + 7, (end + 7) * 10));
        assert_eq!(ring.span(), 9..9 + 2 * MIN_CAPACITY, "a bigger buffer");
        let stored: Vec<(u64, u64)> = ring.iter().map(|(s, v)| (s, *v)).collect();
        let want: Vec<(u64, u64)> = (9..end).chain([end + 7]).map(|s| (s, s * 10)).collect();
        assert_eq!(stored, want);
        assert_eq!(ring.len() as u64, MIN_CAPACITY + 1);
    }

    #[test]
    fn insert_replaces_and_get_or_insert_keeps() {
        let mut ring = SlotRing::default();
        assert!(ring.insert(3, 'a') && ring.insert(3, 'b'));
        assert_eq!(ring.get_or_insert_with(3, || 'c'), Some(&mut 'b'));
        assert_eq!(ring.get_or_insert_with(4, || 'c'), Some(&mut 'c'));
        if let Some(record) = ring.get_mut(4) {
            *record = 'd';
        }
        assert_eq!(
            (ring.get(3), ring.get(4), ring.len()),
            (Some(&'b'), Some(&'d'), 2)
        );
    }

    #[test]
    fn nothing_is_stored_below_the_base_or_too_far_above_it() {
        let mut ring = SlotRing::default();
        assert!(!ring.insert(0, ()));
        assert!(ring.insert(1, ()));
        ring.advance(5);
        assert_eq!((ring.base(), ring.len()), (5, 0));
        assert!(!ring.insert(4, ()) && ring.get_or_insert_with(4, || ()).is_none());
        ring.advance(2);
        assert_eq!(ring.base(), 5, "a floor never lowers");
        assert!(ring.insert(5 + MAX_SPAN - 1, ()));
        assert!(!ring.insert(5 + MAX_SPAN, ()) && !ring.insert(u64::MAX, ()));
        // A garbage floor leaves the arithmetic room to work in.
        ring.advance(u64::MAX);
        assert_eq!((ring.len(), ring.iter().count()), (0, 0));
        assert!(ring.insert(ring.base() + MAX_SPAN - 1, ()) && !ring.insert(u64::MAX, ()));
    }

    #[test]
    fn pop_retires_the_base_slot_stored_or_not() {
        let mut ring = SlotRing::default();
        ring.insert(2, "two");
        assert_eq!((ring.pop(), ring.base()), (None, 2));
        assert_eq!((ring.pop(), ring.base(), ring.len()), (Some("two"), 3, 0));
    }
}
