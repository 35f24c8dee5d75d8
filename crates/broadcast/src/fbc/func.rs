//! The fair broadcast functionality `F_FBC(∆, α)` (paper Fig. 10).
//!
//! Unlike `F_UBC`, the adversary learns only a *tag* and the sender's
//! identity when a message enters the system. After `∆ − α` rounds it may
//! retrieve the message via `Output_Request` — at which point the message
//! becomes **locked** and can no longer be substituted, even if the sender
//! is adaptively corrupted. Parties receive messages exactly `∆` rounds
//! after the broadcast request, sorted lexicographically.

use sbc_primitives::drbg::Drbg;
use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::value::{Command, Value};
use std::collections::HashMap;

/// Leak source label for `F_FBC`.
pub const FBC_SOURCE: &str = "F_FBC";

/// A broadcast record `(tag, M, P, Cl*)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FbcRecord {
    /// The unique tag.
    pub tag: Tag,
    /// The (current) message.
    pub msg: Value,
    /// The sender.
    pub sender: PartyId,
    /// The round of the broadcast request.
    pub requested_at: u64,
}

/// The functionality `F_FBC^{∆,α}(P)`.
#[derive(Clone, Debug)]
pub struct FbcFunc {
    n: usize,
    delta: u64,
    alpha: u64,
    /// `L_pend`: unlocked records.
    pending: Vec<FbcRecord>,
    /// `L_lock`: locked records (substitution impossible).
    locked: Vec<FbcRecord>,
    last_advance: HashMap<PartyId, u64>,
    tag_rng: Drbg,
}

impl FbcFunc {
    /// Creates the functionality.
    ///
    /// # Panics
    ///
    /// Panics unless `∆ ≥ α`.
    pub fn new(n: usize, delta: u64, alpha: u64, tag_rng: Drbg) -> Self {
        assert!(delta >= alpha, "need ∆ ≥ α");
        FbcFunc {
            n,
            delta,
            alpha,
            pending: Vec::new(),
            locked: Vec::new(),
            last_advance: HashMap::new(),
            tag_rng,
        }
    }

    /// The delivery delay ∆.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Drops every unlocked (`L_pend`) and undelivered locked (`L_lock`)
    /// record (multi-epoch turnover: requests from an ended period must not
    /// deliver into the next one). The tag stream carries over so tags stay
    /// globally fresh across epochs.
    pub fn begin_new_period(&mut self) {
        self.pending.clear();
        self.locked.clear();
    }

    /// `Broadcast` from an honest party, or from the simulator on behalf of
    /// a corrupted one. Leaks only `(tag, P)`. Returns the tag.
    pub fn broadcast(&mut self, sender: PartyId, msg: Value, ctx: &mut HybridCtx<'_>) -> Tag {
        let tag = Tag::random(&mut self.tag_rng);
        self.pending.push(FbcRecord {
            tag,
            msg,
            sender,
            requested_at: ctx.time(),
        });
        ctx.leak(
            FBC_SOURCE,
            Command::new(
                "Broadcast",
                Value::pair(Value::bytes(tag.as_bytes()), Value::U64(sender.0 as u64)),
            ),
        );
        tag
    }

    /// `Output_Request` from the simulator: at exactly `Cl − Cl* = ∆ − α`,
    /// reveals and **locks** the record.
    pub fn output_request(&mut self, tag: Tag, ctx: &mut HybridCtx<'_>) -> Option<FbcRecord> {
        let now = ctx.time();
        let idx = self.pending.iter().position(|r| {
            r.tag == tag && now.wrapping_sub(r.requested_at) == self.delta - self.alpha
        })?;
        let rec = self.pending.remove(idx);
        self.locked.push(rec.clone());
        Some(rec)
    }

    /// `Corruption_Request` from the simulator: the pending (unlocked)
    /// records of corrupted senders.
    pub fn corruption_request(&self, ctx: &HybridCtx<'_>) -> Vec<FbcRecord> {
        self.pending
            .iter()
            .filter(|r| ctx.is_corrupted(r.sender))
            .cloned()
            .collect()
    }

    /// `Allow` from the simulator: substitutes a *pending* record of a
    /// corrupted sender, locking the substituted value. Returns success.
    pub fn allow(
        &mut self,
        tag: Tag,
        msg: Value,
        sender: PartyId,
        ctx: &mut HybridCtx<'_>,
    ) -> bool {
        if !ctx.is_corrupted(sender) {
            return false;
        }
        if self.locked.iter().any(|r| r.tag == tag) {
            return false; // locked records are immutable — fairness
        }
        let Some(idx) = self
            .pending
            .iter()
            .position(|r| r.tag == tag && r.sender == sender)
        else {
            return false;
        };
        let mut rec = self.pending.remove(idx);
        rec.msg = msg;
        self.locked.push(rec);
        true
    }

    /// `Advance_Clock` from an honest party: delivers to *that party* every
    /// record that is exactly `∆` rounds old, sorted lexicographically by
    /// message.
    pub fn advance_clock(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Vec<Value> {
        if ctx.is_corrupted(party) {
            return Vec::new();
        }
        let now = ctx.time();
        if self.last_advance.get(&party) == Some(&now) {
            return Vec::new();
        }
        self.last_advance.insert(party, now);
        let mut due: Vec<&FbcRecord> = self
            .pending
            .iter()
            .chain(self.locked.iter())
            .filter(|r| now.wrapping_sub(r.requested_at) == self.delta)
            .collect();
        due.sort_by(|a, b| a.msg.cmp(&b.msg));
        due.into_iter().map(|r| r.msg.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::world::WorldCore;

    fn func(n: usize) -> FbcFunc {
        FbcFunc::new(n, 2, 2, Drbg::from_seed(b"fbc-tags"))
    }

    #[test]
    fn leak_hides_message() {
        let mut core = WorldCore::new(2, b"fbc");
        let mut f = func(2);
        f.broadcast(PartyId(0), Value::bytes(b"secret"), &mut core.ctx());
        assert_eq!(core.leaks.len(), 1);
        let leaked = core.leaks[0].cmd.value.encode();
        let needle = b"secret";
        let found = leaked.windows(needle.len()).any(|w| w == needle);
        assert!(
            !found,
            "FBC must not leak message content at broadcast time"
        );
    }

    #[test]
    fn delivery_after_exactly_delta_rounds() {
        let mut core = WorldCore::new(2, b"fbc");
        let mut f = func(2);
        f.broadcast(PartyId(0), Value::U64(7), &mut core.ctx());
        assert!(f.advance_clock(PartyId(0), &mut core.ctx()).is_empty());
        core.clock.fast_forward(core.clock.read() + 1);
        assert!(f.advance_clock(PartyId(0), &mut core.ctx()).is_empty());
        core.clock.fast_forward(core.clock.read() + 1);
        assert_eq!(
            f.advance_clock(PartyId(0), &mut core.ctx()),
            [Value::U64(7)]
        );
        assert_eq!(
            f.advance_clock(PartyId(1), &mut core.ctx()),
            [Value::U64(7)]
        );
    }

    #[test]
    fn deliveries_sorted_by_message() {
        let mut core = WorldCore::new(1, b"fbc");
        let mut f = func(1);
        f.broadcast(PartyId(0), Value::bytes(b"zebra"), &mut core.ctx());
        f.broadcast(PartyId(0), Value::bytes(b"apple"), &mut core.ctx());
        core.clock.fast_forward(core.clock.read() + 1);
        core.clock.fast_forward(core.clock.read() + 1);
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(delivered, [Value::bytes(b"apple"), Value::bytes(b"zebra")]);
    }

    #[test]
    fn output_request_locks_and_blocks_substitution() {
        let mut core = WorldCore::new(2, b"fbc");
        let mut f = func(2); // ∆ - α = 0: lockable immediately
        let tag = f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        let rec = f.output_request(tag, &mut core.ctx()).unwrap();
        assert_eq!(rec.msg, Value::U64(1));
        core.corr.corrupt(PartyId(0)).unwrap();
        assert!(!f.allow(tag, Value::U64(99), PartyId(0), &mut core.ctx()));
        core.clock.fast_forward(core.clock.read() + 1);
        core.clock.fast_forward(core.clock.read() + 1);
        let delivered = f.advance_clock(PartyId(1), &mut core.ctx());
        assert_eq!(
            delivered,
            [Value::U64(1)],
            "locked value survives corruption"
        );
    }

    #[test]
    fn output_request_wrong_round_fails() {
        let mut core = WorldCore::new(2, b"fbc");
        let mut f = FbcFunc::new(2, 3, 1, Drbg::from_seed(b"t")); // ∆-α = 2
        let tag = f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        assert!(
            f.output_request(tag, &mut core.ctx()).is_none(),
            "too early"
        );
        core.clock.fast_forward(core.clock.read() + 1);
        assert!(
            f.output_request(tag, &mut core.ctx()).is_none(),
            "still too early"
        );
        core.clock.fast_forward(core.clock.read() + 1);
        assert!(
            f.output_request(tag, &mut core.ctx()).is_some(),
            "exactly ∆-α"
        );
    }

    #[test]
    fn allow_substitutes_unlocked_pending_of_corrupted() {
        let mut core = WorldCore::new(2, b"fbc");
        let mut f = func(2);
        let tag = f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        assert!(
            !f.allow(tag, Value::U64(2), PartyId(0), &mut core.ctx()),
            "honest: refused"
        );
        core.corr.corrupt(PartyId(0)).unwrap();
        assert!(f.allow(tag, Value::U64(2), PartyId(0), &mut core.ctx()));
        core.clock.fast_forward(core.clock.read() + 1);
        core.clock.fast_forward(core.clock.read() + 1);
        assert_eq!(
            f.advance_clock(PartyId(1), &mut core.ctx()),
            [Value::U64(2)]
        );
    }

    #[test]
    fn corruption_request_filters() {
        let mut core = WorldCore::new(3, b"fbc");
        let mut f = func(3);
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        f.broadcast(PartyId(1), Value::U64(2), &mut core.ctx());
        core.corr.corrupt(PartyId(1)).unwrap();
        let ctx = core.ctx();
        let recs = f.corruption_request(&ctx);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].sender, PartyId(1));
    }

    #[test]
    fn no_double_delivery_same_round() {
        let mut core = WorldCore::new(1, b"fbc");
        let mut f = func(1);
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        core.clock.fast_forward(core.clock.read() + 1);
        core.clock.fast_forward(core.clock.read() + 1);
        assert_eq!(f.advance_clock(PartyId(0), &mut core.ctx()).len(), 1);
        assert!(f.advance_clock(PartyId(0), &mut core.ctx()).is_empty());
    }

    #[test]
    #[should_panic(expected = "∆ ≥ α")]
    fn invalid_parameters_panic() {
        FbcFunc::new(2, 1, 2, Drbg::from_seed(b"x"));
    }
}
