//! What a consensus role keeps of the history it has executed: which
//! sequence numbers each client has had run, and the executed log as a
//! digest of all of it plus a short tail.
//!
//! The [`multi`](crate::multi) replica keeps exactly this, so a run's
//! length costs it nothing: a client that counts in order is one run,
//! and the log is 8 bytes of digest beside at most
//! 2 × [`ExecutedLog::TAIL`] entries.

use inc_net::Bytes;
use inc_sim::RecentRing;

/// One client's executed sequence numbers as sorted disjoint inclusive
/// runs: one run for a client that counts in order, one more per number
/// it skips for good.
#[derive(Clone, Debug, Default)]
pub(crate) struct SeqRuns(Vec<(u64, u64)>);

impl SeqRuns {
    /// Adds `seq`; `false` if it was there already.
    pub(crate) fn insert(&mut self, seq: u64) -> bool {
        let runs = &mut self.0;
        // `after`: one past the last run starting at or below `seq`.
        let after = runs.iter().rposition(|r| r.0 <= seq).map_or(0, |at| at + 1);
        if after > 0 && seq <= runs[after - 1].1 {
            return false;
        }
        // `seq` lies strictly between the runs around it: no overflow.
        let joins_before = after > 0 && runs[after - 1].1 + 1 == seq;
        let joins_after = after < runs.len() && seq + 1 == runs[after].0;
        match (joins_before, joins_after) {
            (true, true) => {
                runs[after - 1].1 = runs[after].1;
                runs.remove(after);
            }
            (true, false) => runs[after - 1].1 = seq,
            (false, true) => runs[after].0 = seq,
            (false, false) => runs.insert(after, (seq, seq)),
        }
        true
    }
}

/// The executed log: a digest of every `(slot, value)` entry ever
/// recorded and the last [`ExecutedLog::TAIL`] or more of them.
#[derive(Clone, Debug)]
pub(crate) struct ExecutedLog {
    /// Made on the first entry (`bounded` allocates; a new role must not).
    tail: Option<RecentRing<(u64, Bytes)>>,
    digest: u64,
}

impl Default for ExecutedLog {
    fn default() -> Self {
        // The FNV-1a offset basis.
        let digest = 0xcbf2_9ce4_8422_2325;
        ExecutedLog { tail: None, digest }
    }
}

impl ExecutedLog {
    /// Entries [`ExecutedLog::tail`] retains at least.
    pub(crate) const TAIL: usize = 64;

    /// Appends one entry: folds its slot, length and bytes into the
    /// digest, FNV-1a-style eight bytes to a step, and keeps it in the tail.
    pub(crate) fn record(&mut self, slot: u64, value: Bytes) {
        let words = [slot.to_le_bytes(), (value.len() as u64).to_le_bytes()];
        for chunk in words.iter().map(|w| &w[..]).chain(value.chunks(8)) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.digest =
                (self.digest ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let tail = &mut self.tail;
        tail.get_or_insert_with(|| RecentRing::bounded(Self::TAIL))
            .push((slot, value));
    }

    /// The last entries, oldest first: at least [`ExecutedLog::TAIL`]
    /// once that many were recorded.
    pub(crate) fn tail(&self) -> &[(u64, Bytes)] {
        self.tail.as_ref().map_or(&[], RecentRing::as_slice)
    }

    /// The digest of every entry recorded.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executed_sequence_numbers_are_kept_as_runs() {
        let mut runs = SeqRuns::default();
        for seq in [1, 2, 3, 5, 4, 9, 7, 8] {
            assert!(runs.insert(seq), "{seq} is new");
        }
        assert_eq!(runs.0, [(1, 5), (7, 9)]);
        for seq in [1, 3, 5, 7, 9] {
            assert!(!runs.insert(seq), "{seq} ran already");
        }
        assert!(runs.insert(0) && runs.insert(6) && runs.insert(u64::MAX));
        assert_eq!(runs.0, [(0, 9), (u64::MAX, u64::MAX)]);
    }

    #[test]
    fn the_log_keeps_a_bounded_tail_and_a_digest_of_everything() {
        let (mut a, mut b) = (ExecutedLog::default(), ExecutedLog::default());
        assert_eq!((a.tail(), a.digest()), (&[][..], b.digest()));
        for slot in 1..=1_000u64 {
            a.record(slot, Bytes::from(slot.to_le_bytes().to_vec()));
            assert!(a.tail().len() <= 2 * ExecutedLog::TAIL);
            assert!(a.tail().len() >= ExecutedLog::TAIL.min(slot as usize));
            assert_eq!(a.tail().last().map(|e| e.0), Some(slot));
        }
        for slot in 1..=1_000u64 {
            b.record(slot, Bytes::from(slot.to_le_bytes().to_vec()));
        }
        assert_eq!(a.digest(), b.digest());
        b.record(1_001, Bytes::new());
        assert_ne!(a.digest(), b.digest(), "an empty entry still counts");
    }
}
