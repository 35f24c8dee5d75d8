//! The simultaneous broadcast functionality `F_SBC(Φ, ∆, α)` (paper
//! Fig. 13) — the paper's central definition.
//!
//! The first `Broadcast` request opens a broadcast period of `Φ` rounds.
//! Within it, honest requests are recorded while leaking only the sender's
//! identity and the message *length* — that is **simultaneity**: no sender
//! (and no adversary) learns anything about other senders' messages before
//! choosing its own. At the period's end the honest records are finalized
//! and sorted; the simulator receives the list `α` rounds before the
//! parties, who all receive it exactly `∆` rounds after `t_end` —
//! **liveness** without full participation.

use sbc_primitives::drbg::Drbg;
use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::value::{Command, Value};
use std::collections::HashMap;

/// Leak source label for `F_SBC`.
pub const SBC_SOURCE: &str = "F_SBC";

/// A recorded broadcast `(tag, M, P, Cl, flag)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SbcRecord {
    /// Unique tag.
    pub tag: Tag,
    /// The message.
    pub msg: Value,
    /// The sender.
    pub sender: PartyId,
    /// Request round.
    pub requested_at: u64,
    /// Finalization flag: only flagged records are delivered.
    pub finalized: bool,
}

/// The functionality `F_SBC^{Φ,∆,α}(P)`.
#[derive(Clone, Debug)]
pub struct SbcFunc {
    phi: u64,
    delta: u64,
    alpha: u64,
    records: Vec<SbcRecord>,
    t_start: Option<u64>,
    t_end: Option<u64>,
    /// The once-per-period steps of `Advance_Clock`, once taken.
    finalized_done: bool,
    sim_list_sent: bool,
    last_advance: HashMap<PartyId, u64>,
    tag_rng: Drbg,
}

impl SbcFunc {
    /// Creates the functionality.
    ///
    /// # Panics
    ///
    /// Panics unless `Φ > 0` and `∆ ≥ α`.
    pub fn new(phi: u64, delta: u64, alpha: u64, tag_rng: Drbg) -> Self {
        assert!(phi > 0, "broadcast period must be positive");
        assert!(delta >= alpha, "need ∆ ≥ α");
        SbcFunc {
            phi,
            delta,
            alpha,
            records: Vec::new(),
            t_start: None,
            t_end: None,
            finalized_done: false,
            sim_list_sent: false,
            last_advance: HashMap::new(),
            tag_rng,
        }
    }

    /// The broadcast period span Φ.
    pub fn phi(&self) -> u64 {
        self.phi
    }

    /// The delivery delay ∆.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Start of the broadcast period, if opened.
    pub fn t_start(&self) -> Option<u64> {
        self.t_start
    }

    /// End of the broadcast period, if opened.
    pub fn t_end(&self) -> Option<u64> {
        self.t_end
    }

    /// All records (simulator view).
    pub fn records(&self) -> &[SbcRecord] {
        &self.records
    }

    /// Closes the books on a released broadcast period so the same
    /// functionality instance can host the next one — the paper's
    /// sequential multi-period composition (§6). Records, period times and
    /// the once-per-period bookkeeping are dropped; the tag stream carries
    /// over so tags stay globally fresh across epochs. The *next*
    /// `Broadcast` request opens a new period at the then-current clock
    /// round.
    pub fn begin_new_period(&mut self) {
        self.records.clear();
        self.t_start = None;
        self.t_end = None;
        self.finalized_done = false;
        self.sim_list_sent = false;
        self.last_advance.clear();
    }

    /// `Broadcast` from an honest party (leaks `(tag, |M|, P)`) or from the
    /// simulator on behalf of a corrupted one (leaks `(tag, M, P)`; record
    /// enters finalized). Requests outside the period are discarded.
    /// Returns the tag if recorded.
    pub fn broadcast(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<Tag> {
        let now = ctx.time();
        if self.t_start.is_none() {
            self.t_start = Some(now);
            self.t_end = Some(now + self.phi);
        }
        let (start, end) = (self.t_start.expect("set"), self.t_end.expect("set"));
        if !(start <= now && now < end) {
            return None;
        }
        let tag = Tag::random(&mut self.tag_rng);
        let corrupted = ctx.is_corrupted(sender);
        self.records.push(SbcRecord {
            tag,
            msg: msg.clone(),
            sender,
            requested_at: now,
            finalized: corrupted,
        });
        let leak_payload = if corrupted {
            Value::list([
                Value::str("Sender"),
                Value::bytes(tag.as_bytes()),
                msg,
                Value::U64(sender.0 as u64),
            ])
        } else {
            Value::list([
                Value::str("Sender"),
                Value::bytes(tag.as_bytes()),
                Value::U64(msg.encoded_len() as u64),
                Value::U64(sender.0 as u64),
            ])
        };
        ctx.leak(SBC_SOURCE, Command::new("Broadcast", leak_payload));
        Some(tag)
    }

    /// `Corruption_Request` from the simulator: unfinalized records of
    /// corrupted senders.
    pub fn corruption_request(&self, ctx: &HybridCtx<'_>) -> Vec<SbcRecord> {
        self.records
            .iter()
            .filter(|r| !r.finalized && ctx.is_corrupted(r.sender))
            .cloned()
            .collect()
    }

    /// `Allow` from the simulator: substitutes and finalizes an unfinalized
    /// record of a corrupted sender, within the broadcast period.
    pub fn allow(
        &mut self,
        tag: Tag,
        msg: Value,
        sender: PartyId,
        ctx: &mut HybridCtx<'_>,
    ) -> bool {
        let now = ctx.time();
        let Some((start, end)) = self.t_start.zip(self.t_end) else {
            return false;
        };
        if now < start || now >= end || !ctx.is_corrupted(sender) {
            return false;
        }
        let Some(rec) = self
            .records
            .iter_mut()
            .find(|r| r.tag == tag && r.sender == sender && !r.finalized)
        else {
            return false;
        };
        rec.msg = msg;
        rec.finalized = true;
        true
    }

    /// `Advance_Clock` from an honest party: runs the once-per-period
    /// finalization/leak schedule and returns the message vector the
    /// advancing party receives at exactly `t_end + ∆`.
    pub fn advance_clock(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Option<Value> {
        if ctx.is_corrupted(party) {
            return None;
        }
        let now = ctx.time();
        if self.last_advance.get(&party) == Some(&now) {
            return None;
        }
        self.last_advance.insert(party, now);
        let end = self.t_end?;
        if now >= end && !self.finalized_done {
            // The first Advance_Clock at or after t_end marks honest
            // pending records finalized — but NOT records whose sender is
            // corrupted and was never Allowed.
            self.finalized_done = true;
            for r in self.records.iter_mut() {
                if !r.finalized && !ctx.is_corrupted(r.sender) {
                    r.finalized = true;
                }
            }
            self.records.sort_by(|a, b| a.msg.cmp(&b.msg));
        }
        if now == end + self.delta - self.alpha && !self.sim_list_sent {
            self.sim_list_sent = true;
            let list = self
                .records
                .iter()
                .filter(|r| r.finalized)
                .map(|r| Value::pair(Value::bytes(r.tag.as_bytes()), r.msg.clone()));
            ctx.leak(SBC_SOURCE, Command::new("Broadcast", Value::list(list)));
        }
        if now != end + self.delta {
            return None;
        }
        let msgs = self.records.iter().filter(|r| r.finalized);
        Some(Value::list(msgs.map(|r| r.msg.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::world::WorldCore;

    fn func() -> SbcFunc {
        SbcFunc::new(3, 2, 1, Drbg::from_seed(b"sbc-tags"))
    }

    #[test]
    fn period_opens_on_first_broadcast() {
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        assert_eq!(f.t_start(), None);
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        assert_eq!(f.t_start(), Some(0));
        assert_eq!(f.t_end(), Some(3));
    }

    #[test]
    fn honest_leak_hides_content() {
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.broadcast(
            PartyId(0),
            Value::bytes(b"very secret ballot"),
            &mut core.ctx(),
        );
        let leak = core.leaks[0].cmd.value.encode();
        let needle = b"very secret ballot";
        assert!(!leak.windows(needle.len()).any(|w| w == needle));
    }

    #[test]
    fn corrupted_leak_shows_content() {
        let mut core = WorldCore::new(2, b"sbc");
        core.corr.corrupt(PartyId(1)).unwrap();
        let mut f = func();
        f.broadcast(PartyId(1), Value::bytes(b"adv"), &mut core.ctx());
        let leak = &core.leaks[0].cmd.value;
        assert!(leak.as_list().unwrap().contains(&Value::bytes(b"adv")));
    }

    #[test]
    fn late_broadcasts_discarded() {
        let mut core = WorldCore::new(1, b"sbc");
        let mut f = func();
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        for _ in 0..3 {
            core.clock.fast_forward(core.clock.read() + 1);
        }
        // Cl = 3 = t_end: outside the period.
        assert!(f
            .broadcast(PartyId(0), Value::U64(2), &mut core.ctx())
            .is_none());
        assert_eq!(f.records().len(), 1);
    }

    #[test]
    fn delivery_at_t_end_plus_delta_sorted() {
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.broadcast(PartyId(0), Value::bytes(b"zebra"), &mut core.ctx());
        f.broadcast(PartyId(1), Value::bytes(b"apple"), &mut core.ctx());
        // Rounds 0..=4: nothing delivered (t_end = 3, ∆ = 2 → deliver at 5).
        for round in 0..5 {
            let delivered = f.advance_clock(PartyId(0), &mut core.ctx());
            assert!(delivered.is_none(), "round {round}");
            f.advance_clock(PartyId(1), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx()).unwrap();
        let msgs = delivered.as_list().unwrap();
        assert_eq!(msgs[0], Value::bytes(b"apple"));
        assert_eq!(msgs[1], Value::bytes(b"zebra"));
        // Each party gets its copy on its own advance.
        let delivered1 = f.advance_clock(PartyId(1), &mut core.ctx());
        assert_eq!(delivered1, Some(delivered));
    }

    #[test]
    fn liveness_without_full_participation() {
        // Only one of two parties ever broadcasts; delivery still happens.
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.broadcast(PartyId(0), Value::U64(7), &mut core.ctx());
        for _ in 0..5 {
            f.advance_clock(PartyId(0), &mut core.ctx());
            f.advance_clock(PartyId(1), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        let delivered = f.advance_clock(PartyId(1), &mut core.ctx()).unwrap();
        assert_eq!(delivered.as_list().unwrap().len(), 1);
    }

    #[test]
    fn simulator_gets_list_alpha_early() {
        let mut core = WorldCore::new(1, b"sbc");
        let mut f = func(); // t_end=3, ∆=2, α=1 → S at 4, parties at 5
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        for _ in 0..4 {
            f.advance_clock(PartyId(0), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        core.leaks.clear();
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx());
        assert!(delivered.is_none(), "round 4: no party delivery yet");
        assert_eq!(core.leaks.len(), 1, "round 4 = t_end+∆-α: simulator list");
        core.clock.fast_forward(core.clock.read() + 1);
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx());
        assert!(delivered.is_some(), "round 5: party delivery");
    }

    #[test]
    fn unallowed_corrupted_records_dropped() {
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        f.broadcast(PartyId(1), Value::U64(2), &mut core.ctx());
        core.corr.corrupt(PartyId(1)).unwrap();
        // P1's record was honest at request time but P1 is corrupted at
        // t_end and the simulator never Allowed it → dropped.
        for _ in 0..5 {
            f.advance_clock(PartyId(0), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx()).unwrap();
        assert_eq!(delivered.as_list().unwrap(), &[Value::U64(1)]);
    }

    /// With no `Advance_Clock` at `t_end` itself, the first one after it
    /// finalizes — the honest records only, as at `t_end`.
    #[test]
    fn a_round_without_advances_at_t_end_still_drops_unallowed_records() {
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        f.broadcast(PartyId(1), Value::U64(2), &mut core.ctx());
        core.corr.corrupt(PartyId(1)).unwrap();
        let mut delivered = None;
        for round in [0, 1, 2, 4, 5] {
            core.clock.fast_forward(round);
            delivered = f.advance_clock(PartyId(0), &mut core.ctx());
        }
        assert_eq!(delivered.unwrap().as_list().unwrap(), &[Value::U64(1)]);
    }

    #[test]
    fn allow_substitutes_and_finalizes() {
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        let tag = f
            .broadcast(PartyId(1), Value::U64(2), &mut core.ctx())
            .unwrap();
        core.corr.corrupt(PartyId(1)).unwrap();
        assert!(f.allow(tag, Value::U64(99), PartyId(1), &mut core.ctx()));
        // Double-allow fails (already finalized).
        assert!(!f.allow(tag, Value::U64(5), PartyId(1), &mut core.ctx()));
        for _ in 0..5 {
            f.advance_clock(PartyId(0), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx()).unwrap();
        assert_eq!(delivered.as_list().unwrap(), &[Value::U64(99)]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_phi_panics() {
        SbcFunc::new(0, 2, 1, Drbg::from_seed(b"x"));
    }
}
