//! The unfair broadcast functionality `F_UBC` (paper Fig. 8).
//!
//! Multi-sender, multi-message-per-round broadcast where the adversary sees
//! every honest message *before* delivery and — if it corrupts the sender
//! before her round completes — may substitute it (`Allow`). Delivery of an
//! honest sender's pending messages happens when that sender first forwards
//! `Advance_Clock` in a round ([`UbcFunc::take_flush`]).
//!
//! Everything `F_UBC` delivers goes to all of P, so each entry point returns
//! a delivered message once and the calling world fans it out to `0..n`.

use sbc_primitives::drbg::Drbg;
use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::value::{Command, Value};

/// Leak source label for `F_UBC`.
pub(crate) const UBC_SOURCE: &str = "F_UBC";

/// The functionality `F_UBC(P)`.
///
/// `L_pend` is held as one queue per sender: Fig. 8 orders a flush by
/// broadcast order *within* the flushing sender and nothing else, so a
/// flush is `mem::take` of the caller's own queue — `O(own messages)`,
/// not a pass over everybody's. A party id `≥ n` names no queue and is
/// refused by every entry point (no leak, no tag drawn).
#[derive(Clone, Debug)]
pub struct UbcFunc {
    /// `L_pend`: per sender, its `(tag, message)` pairs in broadcast order.
    pending: Vec<Vec<(Tag, Value)>>,
    /// Round of each party's last processed `Advance_Clock`.
    last_advance: Vec<Option<u64>>,
    /// Dedicated tag stream (forked per functionality so that a simulator
    /// running this functionality on the same fork reproduces identical
    /// tags).
    tag_rng: Drbg,
}

/// The `(tag, M, P)` leak of an honest broadcast, its flush, or its
/// `Allow`ed substitution. `msg` is cloned only if the leak is kept.
fn leak_tagged(tag: Tag, msg: &Value, sender: PartyId, ctx: &mut HybridCtx<'_>) {
    ctx.leak(UBC_SOURCE, || {
        Command::new(
            "Broadcast",
            Value::list([
                Value::bytes(tag.as_bytes()),
                msg.clone(),
                Value::U64(sender.0 as u64),
            ]),
        )
    });
}

impl UbcFunc {
    /// Creates the functionality for `n` parties with its own tag stream.
    pub fn new(n: usize, tag_rng: Drbg) -> Self {
        UbcFunc {
            pending: vec![Vec::new(); n],
            last_advance: vec![None; n],
            tag_rng,
        }
    }

    /// How many broadcasts are queued and undelivered, over all senders.
    pub fn pending(&self) -> usize {
        self.pending.iter().map(Vec::len).sum()
    }

    /// Drops every queued-but-undelivered message. Used by multi-epoch
    /// drivers when a broadcast period closes: stale wires from the ended
    /// period must not bleed into the next one.
    pub fn clear_pending(&mut self) {
        self.pending.iter_mut().for_each(Vec::clear);
    }

    /// `Broadcast` from an honest party: queues the message and leaks
    /// `(tag, M, P)` to the adversary. Returns the tag.
    pub fn broadcast_honest(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<Tag> {
        if ctx.is_corrupted(sender) {
            return None;
        }
        let queue = self.pending.get_mut(sender.index())?;
        let tag = Tag::random(&mut self.tag_rng);
        leak_tagged(tag, &msg, sender, ctx);
        queue.push((tag, msg));
        Some(tag)
    }

    /// `Broadcast` from the adversary on behalf of a corrupted party:
    /// immediate delivery of `msg` to all parties.
    pub fn broadcast_corrupted(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<Value> {
        if sender.index() >= self.pending.len() || !ctx.is_corrupted(sender) {
            return None;
        }
        ctx.leak(UBC_SOURCE, || {
            Command::new(
                "Broadcast",
                Value::pair(msg.clone(), Value::U64(sender.0 as u64)),
            )
        });
        Some(msg)
    }

    /// `Allow` from the adversary: releases a pending message of a (now)
    /// corrupted sender with a substituted value, delivered to all
    /// parties. The other entries of that sender's queue, and every other
    /// queue, stay in place.
    pub(crate) fn allow(&mut self, tag: Tag, msg: Value, ctx: &mut HybridCtx<'_>) -> Option<Value> {
        let found = self.pending.iter().enumerate().find_map(|(sender, queue)| {
            let at = queue.iter().position(|(t, _)| *t == tag)?;
            Some((sender, at))
        });
        let (sender, at) = found?;
        let party = PartyId(sender as u32);
        if !ctx.is_corrupted(party) {
            return None;
        }
        self.pending[sender].remove(at);
        leak_tagged(tag, &msg, party, ctx);
        Some(msg)
    }

    /// `Advance_Clock` from an honest party: first time per round, flushes
    /// that party's pending messages, in broadcast order, each addressed
    /// to all parties. A message is moved out of the caller's own queue,
    /// which is all a flush touches.
    pub fn take_flush(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Vec<Value> {
        let i = party.index();
        if i >= self.pending.len() || ctx.is_corrupted(party) {
            return Vec::new();
        }
        let now = ctx.time();
        if self.last_advance[i].replace(now) == Some(now) {
            return Vec::new();
        }
        std::mem::take(&mut self.pending[i])
            .into_iter()
            .map(|(tag, msg)| {
                leak_tagged(tag, &msg, party, ctx);
                msg
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_primitives::drbg::Drbg;
    use sbc_uc::world::WorldCore;

    #[test]
    fn honest_flow_flush_on_advance() {
        let mut core = WorldCore::new(3, b"ubc");
        let mut f = UbcFunc::new(3, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        f.broadcast_honest(PartyId(0), Value::U64(2), &mut core.ctx());
        assert_eq!(f.pending(), 2);
        let flushed = f.take_flush(PartyId(0), &mut core.ctx());
        // Two messages, each to every recipient, in broadcast order.
        assert_eq!(flushed, [Value::U64(1), Value::U64(2)]);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn adversary_sees_message_before_delivery() {
        let mut core = WorldCore::new(2, b"ubc");
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(1), Value::bytes(b"secret"), &mut core.ctx());
        assert_eq!(core.leaks.len(), 1);
        let leaked = &core.leaks[0].cmd.value;
        assert_eq!(leaked.as_list().unwrap()[1], Value::bytes(b"secret"));
    }

    #[test]
    fn other_parties_advance_does_not_flush() {
        let mut core = WorldCore::new(2, b"ubc");
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        assert!(f.take_flush(PartyId(1), &mut core.ctx()).is_empty());
        assert_eq!(f.pending(), 1);
    }

    #[test]
    fn second_advance_same_round_no_double_flush() {
        let mut core = WorldCore::new(2, b"ubc");
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        let first = f.take_flush(PartyId(0), &mut core.ctx());
        assert_eq!(first, [Value::U64(1)]);
        f.broadcast_honest(PartyId(0), Value::U64(2), &mut core.ctx());
        // Same round: no flush of the new message.
        assert!(f.take_flush(PartyId(0), &mut core.ctx()).is_empty());
        assert_eq!(f.pending(), 1);
    }

    #[test]
    fn per_sender_queues_keep_flush_order_and_refuse_an_out_of_range_sender() {
        let mut core = WorldCore::new(3, b"ubc");
        let mut f = UbcFunc::new(3, Drbg::from_seed(b"ubc-tags"));
        // A party id ≥ n names no queue: refused, nothing leaked, no tag
        // drawn (the next tag is what a fresh functionality draws first).
        let outside = PartyId(3 + 7);
        assert!(f
            .broadcast_honest(outside, Value::U64(0), &mut core.ctx())
            .is_none());
        assert!(f.take_flush(outside, &mut core.ctx()).is_empty());
        assert!(f
            .broadcast_corrupted(outside, Value::U64(0), &mut core.ctx())
            .is_none());
        assert!(core.leaks.is_empty() && f.pending() == 0);
        let first_tag = UbcFunc::new(3, Drbg::from_seed(b"ubc-tags")).broadcast_honest(
            PartyId(0),
            Value::U64(10),
            &mut WorldCore::new(3, b"ubc").ctx(),
        );

        // Two senders interleave three casts each.
        let mut tags = Vec::new();
        for k in 0..3 {
            for sender in [0, 2] {
                let msg = Value::U64(10 * sender as u64 + k);
                tags.push(f.broadcast_honest(PartyId(sender), msg, &mut core.ctx()));
            }
        }
        assert_eq!(tags[0], first_tag);
        assert_eq!(f.pending(), 6);
        // `Allow` on the middle entry of party 2's queue (now corrupted)
        // takes that entry only.
        core.corr.corrupt(PartyId(2)).unwrap();
        let middle = tags[3].unwrap();
        let allowed = f.allow(middle, Value::U64(99), &mut core.ctx());
        assert_eq!(allowed, Some(Value::U64(99)));
        assert!(f.allow(middle, Value::U64(99), &mut core.ctx()).is_none());
        assert_eq!(f.pending(), 5);
        // Each sender flushes its own casts in its own broadcast order; a
        // second flush in the same round is empty.
        let flushed = f.take_flush(PartyId(0), &mut core.ctx());
        assert_eq!(flushed, [Value::U64(0), Value::U64(1), Value::U64(2)]);
        assert!(f.take_flush(PartyId(0), &mut core.ctx()).is_empty());
        assert!(f.take_flush(PartyId(1), &mut core.ctx()).is_empty());
        assert_eq!(f.pending(), 2, "the corrupted sender's other two stay");
        f.broadcast_honest(PartyId(0), Value::U64(3), &mut core.ctx());
        assert!(f.take_flush(PartyId(0), &mut core.ctx()).is_empty());
        assert_eq!(f.pending(), 3);
    }

    #[test]
    fn allow_substitutes_for_corrupted_sender() {
        let mut core = WorldCore::new(2, b"ubc");
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        let tag = f
            .broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx())
            .unwrap();
        // Honest: Allow ignored.
        assert!(f.allow(tag, Value::U64(99), &mut core.ctx()).is_none());
        // Adaptive corruption mid-round → substitution succeeds (unfairness).
        core.corr.corrupt(PartyId(0)).unwrap();
        let allowed = f.allow(tag, Value::U64(99), &mut core.ctx());
        assert_eq!(allowed, Some(Value::U64(99)));
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn corrupted_broadcast_immediate() {
        let mut core = WorldCore::new(3, b"ubc");
        core.corr.corrupt(PartyId(2)).unwrap();
        let mut f = UbcFunc::new(3, Drbg::from_seed(b"ubc-tags"));
        let sent = f.broadcast_corrupted(PartyId(2), Value::U64(7), &mut core.ctx());
        assert_eq!(sent, Some(Value::U64(7)));
    }

    #[test]
    fn corrupted_sender_pending_not_flushed() {
        let mut core = WorldCore::new(2, b"ubc");
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        core.corr.corrupt(PartyId(0)).unwrap();
        // Corrupted party's advance is ignored by the functionality.
        assert!(f.take_flush(PartyId(0), &mut core.ctx()).is_empty());
        assert_eq!(f.pending(), 1);
    }

    #[test]
    fn honest_broadcast_from_corrupted_rejected() {
        let mut core = WorldCore::new(2, b"ubc");
        core.corr.corrupt(PartyId(0)).unwrap();
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        assert!(f
            .broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx())
            .is_none());
    }
}
