//! The messages one role step produces, held inline until there are two.
//!
//! Most steps of either pipeline send nothing (a vote below quorum, a
//! stale ballot) or exactly one message (a vote, a promise, a proposal),
//! so an [`Outbox`] keeps its first message in the value itself and only
//! spills to a heap `Vec` for the second. It is returned **by value**
//! from every `handle`/`tick`: a per-machine reusable buffer would save
//! the same allocation but grows each role struct by a `Vec`, and the
//! role structs are size-pinned (see `multi::tests::role_structs_stay_small`).

use crate::msg::PaxosMsg;
use crate::roles::Dest;

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
    Many(Vec<Routed>),
}

impl Outbox {
    /// Appends a message after everything already queued.
    pub fn push(&mut self, routed: Routed) {
        match std::mem::take(self) {
            Outbox::Empty => *self = Outbox::One(routed),
            Outbox::One(first) => *self = Outbox::Many(vec![first, routed]),
            Outbox::Many(mut all) => {
                all.push(routed);
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

/// Owning iterator over an [`Outbox`], in send order: the inline message
/// if there is one, then the spilled ones (an empty `Vec`'s iterator owns
/// no allocation).
pub type IntoIter = std::iter::Chain<std::option::IntoIter<Routed>, std::vec::IntoIter<Routed>>;

impl IntoIterator for Outbox {
    type Item = Routed;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        let (inline, spilled) = match self {
            Outbox::Empty => (None, Vec::new()),
            Outbox::One(only) => (Some(only), Vec::new()),
            Outbox::Many(all) => (None, all),
        };
        inline.into_iter().chain(spilled)
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
}
