//! The unfair broadcast functionality `F_UBC` (paper Fig. 8).
//!
//! Multi-sender, multi-message-per-round broadcast where the adversary sees
//! every honest message *before* delivery and — if it corrupts the sender
//! before her round completes — may substitute it (`Allow`). Delivery of an
//! honest sender's pending messages happens when that sender first forwards
//! `Advance_Clock` in a round.

use sbc_primitives::drbg::Drbg;
use sbc_uc::hybrid::{Delivery, HybridCtx};
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::value::{Command, Value};
use std::collections::HashMap;

/// Leak source label for `F_UBC`.
pub const UBC_SOURCE: &str = "F_UBC";

/// The functionality `F_UBC(P)`.
#[derive(Clone, Debug)]
pub struct UbcFunc {
    n: usize,
    /// `L_pend`: (tag, message, sender) in arrival order.
    pending: Vec<(Tag, Value, PartyId)>,
    /// Round of each party's last processed `Advance_Clock`.
    last_advance: HashMap<PartyId, u64>,
    /// Dedicated tag stream (forked per functionality so that a simulator
    /// running this functionality on the same fork reproduces identical
    /// tags).
    tag_rng: Drbg,
}

impl UbcFunc {
    /// Creates the functionality for `n` parties with its own tag stream.
    pub fn new(n: usize, tag_rng: Drbg) -> Self {
        UbcFunc {
            n,
            pending: Vec::new(),
            last_advance: HashMap::new(),
            tag_rng,
        }
    }

    /// Pending entries (for simulators / corruption requests).
    pub fn pending(&self) -> &[(Tag, Value, PartyId)] {
        &self.pending
    }

    /// Drops every queued-but-undelivered message. Used by multi-epoch
    /// drivers when a broadcast period closes: stale wires from the ended
    /// period must not bleed into the next one.
    pub fn clear_pending(&mut self) {
        self.pending.clear();
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
        let tag = Tag::random(&mut self.tag_rng);
        self.pending.push((tag, msg.clone(), sender));
        ctx.leak(
            UBC_SOURCE,
            Command::new(
                "Broadcast",
                Value::list([
                    Value::bytes(tag.as_bytes()),
                    msg,
                    Value::U64(sender.0 as u64),
                ]),
            ),
        );
        Some(tag)
    }

    /// `Broadcast` from the adversary on behalf of a corrupted party:
    /// immediate delivery to all parties.
    pub fn broadcast_corrupted(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Vec<Delivery> {
        if !ctx.is_corrupted(sender) {
            return Vec::new();
        }
        ctx.leak(
            UBC_SOURCE,
            Command::new(
                "Broadcast",
                Value::pair(msg.clone(), Value::U64(sender.0 as u64)),
            ),
        );
        Delivery::to_all(self.n, Command::new("Broadcast", msg))
    }

    /// `Allow` from the adversary: releases a pending message of a (now)
    /// corrupted sender with a substituted value.
    pub fn allow(&mut self, tag: Tag, msg: Value, ctx: &mut HybridCtx<'_>) -> Vec<Delivery> {
        let Some(idx) = self.pending.iter().position(|(t, _, _)| *t == tag) else {
            return Vec::new();
        };
        let sender = self.pending[idx].2;
        if !ctx.is_corrupted(sender) {
            return Vec::new();
        }
        self.pending.remove(idx);
        ctx.leak(
            UBC_SOURCE,
            Command::new(
                "Broadcast",
                Value::list([
                    Value::bytes(tag.as_bytes()),
                    msg.clone(),
                    Value::U64(sender.0 as u64),
                ]),
            ),
        );
        Delivery::to_all(self.n, Command::new("Broadcast", msg))
    }

    /// `Advance_Clock` from an honest party: first time per round, flushes
    /// that party's pending messages (in broadcast order) to all parties.
    pub fn advance_clock(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Vec<Delivery> {
        let mut deliveries = Vec::new();
        for msg in self.take_flush(party, ctx) {
            deliveries.extend(Delivery::to_all(self.n, Command::new("Broadcast", msg)));
        }
        deliveries
    }

    /// The allocation-lean form of [`advance_clock`](UbcFunc::advance_clock):
    /// identical once-per-round / corruption semantics and identical leak
    /// emission, but each flushed message is returned **once** (moved out
    /// of the pending queue) instead of cloned into `n` per-recipient
    /// [`Delivery`] records. Every returned message is addressed to all of
    /// `0..n`, in order — the caller owns the fan-out, which lets the
    /// world deliver a broadcast by reference to every recipient instead
    /// of paying `messages × n` wire clones per delivery round.
    pub fn take_flush(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Vec<Value> {
        if ctx.is_corrupted(party) {
            return Vec::new();
        }
        let now = ctx.time();
        if self.last_advance.get(&party) == Some(&now) {
            return Vec::new();
        }
        self.last_advance.insert(party, now);
        let mut flushed = Vec::new();
        let mut remaining = Vec::new();
        for (tag, msg, sender) in std::mem::take(&mut self.pending) {
            if sender == party {
                ctx.leak(
                    UBC_SOURCE,
                    Command::new(
                        "Broadcast",
                        Value::list([
                            Value::bytes(tag.as_bytes()),
                            msg.clone(),
                            Value::U64(sender.0 as u64),
                        ]),
                    ),
                );
                flushed.push(msg);
            } else {
                remaining.push((tag, msg, sender));
            }
        }
        self.pending = remaining;
        flushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_primitives::drbg::Drbg;
    use sbc_uc::clock::GlobalClock;
    use sbc_uc::corruption::CorruptionTracker;

    struct Fx {
        clock: GlobalClock,
        rng: Drbg,
        leaks: Vec<sbc_uc::world::Leak>,
        corr: CorruptionTracker,
    }

    impl Fx {
        fn new(n: usize) -> Self {
            Fx {
                clock: GlobalClock::new(PartyId::all(n)),
                rng: Drbg::from_seed(b"ubc"),
                leaks: Vec::new(),
                corr: CorruptionTracker::new(n),
            }
        }
        fn ctx(&mut self) -> HybridCtx<'_> {
            HybridCtx {
                clock: &mut self.clock,
                rng: &mut self.rng,
                leaks: &mut self.leaks,
                corr: &mut self.corr,
            }
        }
    }

    #[test]
    fn honest_flow_flush_on_advance() {
        let mut fx = Fx::new(3);
        let mut f = UbcFunc::new(3, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut fx.ctx());
        f.broadcast_honest(PartyId(0), Value::U64(2), &mut fx.ctx());
        assert_eq!(f.pending().len(), 2);
        let ds = f.advance_clock(PartyId(0), &mut fx.ctx());
        // Two messages × three recipients, in broadcast order.
        assert_eq!(ds.len(), 6);
        assert_eq!(ds[0].cmd.value, Value::U64(1));
        assert_eq!(ds[3].cmd.value, Value::U64(2));
        assert!(f.pending().is_empty());
    }

    #[test]
    fn adversary_sees_message_before_delivery() {
        let mut fx = Fx::new(2);
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(1), Value::bytes(b"secret"), &mut fx.ctx());
        assert_eq!(fx.leaks.len(), 1);
        let leaked = &fx.leaks[0].cmd.value;
        assert_eq!(leaked.as_list().unwrap()[1], Value::bytes(b"secret"));
    }

    #[test]
    fn other_parties_advance_does_not_flush() {
        let mut fx = Fx::new(2);
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut fx.ctx());
        assert!(f.advance_clock(PartyId(1), &mut fx.ctx()).is_empty());
        assert_eq!(f.pending().len(), 1);
    }

    #[test]
    fn second_advance_same_round_no_double_flush() {
        let mut fx = Fx::new(2);
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut fx.ctx());
        let first = f.advance_clock(PartyId(0), &mut fx.ctx());
        assert_eq!(first.len(), 2);
        f.broadcast_honest(PartyId(0), Value::U64(2), &mut fx.ctx());
        // Same round: no flush of the new message.
        assert!(f.advance_clock(PartyId(0), &mut fx.ctx()).is_empty());
        assert_eq!(f.pending().len(), 1);
    }

    #[test]
    fn allow_substitutes_for_corrupted_sender() {
        let mut fx = Fx::new(2);
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        let tag = f
            .broadcast_honest(PartyId(0), Value::U64(1), &mut fx.ctx())
            .unwrap();
        // Honest: Allow ignored.
        assert!(f.allow(tag, Value::U64(99), &mut fx.ctx()).is_empty());
        // Adaptive corruption mid-round → substitution succeeds (unfairness).
        fx.corr.corrupt(PartyId(0), 0).unwrap();
        let ds = f.allow(tag, Value::U64(99), &mut fx.ctx());
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].cmd.value, Value::U64(99));
        assert!(f.pending().is_empty());
    }

    #[test]
    fn corrupted_broadcast_immediate() {
        let mut fx = Fx::new(3);
        fx.corr.corrupt(PartyId(2), 0).unwrap();
        let mut f = UbcFunc::new(3, Drbg::from_seed(b"ubc-tags"));
        let ds = f.broadcast_corrupted(PartyId(2), Value::U64(7), &mut fx.ctx());
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn corrupted_sender_pending_not_flushed() {
        let mut fx = Fx::new(2);
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut fx.ctx());
        fx.corr.corrupt(PartyId(0), 0).unwrap();
        // Corrupted party's advance is ignored by the functionality.
        assert!(f.advance_clock(PartyId(0), &mut fx.ctx()).is_empty());
        assert_eq!(f.pending().len(), 1);
    }

    #[test]
    fn honest_broadcast_from_corrupted_rejected() {
        let mut fx = Fx::new(2);
        fx.corr.corrupt(PartyId(0), 0).unwrap();
        let mut f = UbcFunc::new(2, Drbg::from_seed(b"ubc-tags"));
        assert!(f
            .broadcast_honest(PartyId(0), Value::U64(1), &mut fx.ctx())
            .is_none());
    }
}
