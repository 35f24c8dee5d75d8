//! The simultaneous broadcast functionality `F_SBC(Φ, ∆, α)` (paper
//! Fig. 13) — the paper's central definition.
//!
//! The broadcast period of `Φ` rounds opens where `Π_SBC`'s first
//! `Wake_Up` reaches the honest parties: at the first advance of a party
//! holding a record, or at the simulator's request for a corrupted sender.
//! Within it, honest requests are recorded while leaking only the sender's
//! identity and the message *length* — that is **simultaneity**: no sender
//! (and no adversary) learns anything about other senders' messages before
//! choosing its own. An honest request in the period's last `delay`
//! rounds is discarded, the cut-off `Π_SBC` applies: its time-lock
//! ciphertext could not be ready before `t_end`. At the period's end the
//! honest records are finalized and sorted; the simulator receives the
//! list `α` rounds before the parties, who all receive it exactly `∆`
//! rounds after `t_end` — **liveness** without full participation.

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
    /// The TLE ciphertext-generation delay: honest requests at
    /// `Cl + delay ≥ t_end` are discarded.
    delay: u64,
    records: Vec<SbcRecord>,
    t_end: Option<u64>,
    /// The once-per-period steps of `Advance_Clock`, once taken.
    finalized_done: bool,
    sim_list_sent: bool,
    last_advance: HashMap<PartyId, u64>,
    tag_rng: Drbg,
}

impl SbcFunc {
    /// Creates the functionality; `delay` is the TLE ciphertext-generation
    /// delay of the protocol it idealises.
    ///
    /// # Panics
    ///
    /// Panics unless `Φ > 0` and `∆ ≥ α`.
    pub fn new(phi: u64, delta: u64, alpha: u64, delay: u64, tag_rng: Drbg) -> Self {
        assert!(phi > 0, "broadcast period must be positive");
        assert!(delta >= alpha, "need ∆ ≥ α");
        SbcFunc {
            phi,
            delta,
            alpha,
            delay,
            records: Vec::new(),
            t_end: None,
            finalized_done: false,
            sim_list_sent: false,
            last_advance: HashMap::new(),
            tag_rng,
        }
    }

    /// The delivery delay ∆.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// End of the broadcast period, once open.
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
    /// the once-per-period bookkeeping are dropped; the tag stream and the
    /// per-party round guard carry over, like `F_UBC`'s. The next period
    /// opens by the same rule as the first.
    pub fn begin_new_period(&mut self) {
        self.records.clear();
        self.t_end = None;
        self.finalized_done = false;
        self.sim_list_sent = false;
    }

    /// Opens the broadcast period `[Cl, Cl + Φ)`.
    fn open(&mut self, now: u64) {
        self.t_end = Some(now + self.phi);
    }

    /// `Broadcast` from an honest party (leaks `(tag, |M|, P)`) or from the
    /// simulator on behalf of a corrupted one (leaks `(tag, M, P)`); the
    /// record enters unfinalized. Returns the tag if recorded.
    ///
    /// The simulator's request opens the period if it is not open: `S_SBC`
    /// makes one in the round a corrupted `Wake_Up` is delivered, and never
    /// `Allow`s it. An honest request opens nothing: its `Wake_Up` waits
    /// in `F_UBC` for the sender's next [advance](SbcFunc::advance_clock).
    /// In an open period, requests at `Cl ≥ t_end` are discarded, and so is
    /// an honest one at `Cl + delay ≥ t_end` (no record, no leak): its
    /// ciphertext could not be cast before `t_end`. Before the period
    /// opens, `Φ > delay` makes that cut-off vacuous.
    pub fn broadcast(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<Tag> {
        let now = ctx.time();
        let corrupted = ctx.is_corrupted(sender);
        if corrupted && self.t_end.is_none() {
            self.open(now);
        }
        let cut_off = if corrupted { 0 } else { self.delay };
        if self.t_end.is_some_and(|end| now + cut_off >= end) {
            return None;
        }
        let tag = Tag::random(&mut self.tag_rng);
        ctx.leak(SBC_SOURCE, || {
            let shown = if corrupted {
                msg.clone()
            } else {
                Value::U64(msg.encoded_len() as u64)
            };
            Command::new(
                "Broadcast",
                Value::list([
                    Value::str("Sender"),
                    Value::bytes(tag.as_bytes()),
                    shown,
                    Value::U64(sender.0 as u64),
                ]),
            )
        });
        self.records.push(SbcRecord {
            tag,
            msg,
            sender,
            requested_at: now,
            finalized: false,
        });
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
    /// record of a corrupted sender, while the period is open and not yet
    /// finalized. The finalization step closes the window, not the clock:
    /// a corruption that completes the round before `t_end` moves the
    /// clock to `t_end` before `S_SBC` can answer it.
    pub fn allow(
        &mut self,
        tag: Tag,
        msg: Value,
        sender: PartyId,
        ctx: &mut HybridCtx<'_>,
    ) -> bool {
        if self.t_end.is_none() || self.finalized_done || !ctx.is_corrupted(sender) {
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
    /// advancing party receives at exactly `t_end + ∆`. A party's first
    /// advance of a round is where `F_UBC` flushes its `Wake_Up`, so if
    /// it holds a record, that advance opens the period.
    pub fn advance_clock(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Option<Value> {
        if ctx.is_corrupted(party) {
            return None;
        }
        let now = ctx.time();
        if self.last_advance.insert(party, now) == Some(now) {
            return None;
        }
        if self.t_end.is_none() && self.records.iter().any(|r| r.sender == party) {
            self.open(now);
        }
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
            ctx.leak(SBC_SOURCE, || Command::new("Broadcast", Value::list(list)));
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
        SbcFunc::new(3, 2, 1, 1, Drbg::from_seed(b"sbc-tags"))
    }

    /// `F_SBC` with its period opened at `Cl = 0` by P0's request and
    /// advance: `t_end = 3`.
    fn opened(core: &mut WorldCore) -> SbcFunc {
        let mut f = func();
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        f.advance_clock(PartyId(0), &mut core.ctx());
        f
    }

    #[test]
    fn an_honest_request_opens_the_period_at_its_senders_advance() {
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        assert_eq!(f.t_end(), None, "the Wake_Up waits in F_UBC");
        f.advance_clock(PartyId(1), &mut core.ctx());
        assert_eq!(f.t_end(), None, "P1 holds no record: no Wake_Up flushed");
        f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(f.t_end(), Some(3));
    }

    #[test]
    fn a_sender_that_already_advanced_opens_the_period_next_round() {
        // P0 advanced in Cl = 0, so its Wake_Up lands at its advance in
        // Cl = 1: the period opens there, and the request is recorded.
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.advance_clock(PartyId(0), &mut core.ctx());
        assert!(f
            .broadcast(PartyId(0), Value::U64(1), &mut core.ctx())
            .is_some());
        f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(f.t_end(), None, "one flush per party and round");
        f.advance_clock(PartyId(1), &mut core.ctx());
        core.clock.fast_forward(1);
        f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(f.t_end(), Some(4));
        // P1 has not advanced in Cl = 0: its request's Wake_Up lands at
        // its advance in Cl = 0.
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.advance_clock(PartyId(0), &mut core.ctx());
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        f.broadcast(PartyId(1), Value::U64(2), &mut core.ctx());
        f.advance_clock(PartyId(1), &mut core.ctx());
        assert_eq!(f.t_end(), Some(3));
        assert_eq!(f.records().len(), 2);
    }

    #[test]
    fn a_corrupted_request_opens_the_period_at_its_round() {
        // S_SBC's request for the sender of a corrupted Wake_Up: the
        // period opens in the round it was delivered in, and the record
        // enters unfinalized, so finalization drops it unless Allowed.
        let mut core = WorldCore::new(2, b"sbc");
        core.corr.corrupt(PartyId(1)).unwrap();
        core.clock.fast_forward(2);
        let mut f = func();
        assert!(f
            .broadcast(PartyId(1), Value::str("Wake_Up"), &mut core.ctx())
            .is_some());
        assert_eq!(f.t_end(), Some(5));
        let mut delivered = None;
        for round in 2..=7 {
            core.clock.fast_forward(round);
            delivered = f.advance_clock(PartyId(0), &mut core.ctx());
        }
        assert_eq!(delivered.unwrap().as_list().unwrap(), &[] as &[Value]);
    }

    #[test]
    fn a_holder_corrupted_before_its_advance_never_opens_the_period() {
        // P0's Wake_Up never leaves F_UBC: a corrupted party does not
        // advance, and the honest P1 holds no record.
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        core.corr.corrupt(PartyId(0)).unwrap();
        for round in 0..8 {
            core.clock.fast_forward(round);
            assert_eq!(f.advance_clock(PartyId(0), &mut core.ctx()), None);
            assert_eq!(f.advance_clock(PartyId(1), &mut core.ctx()), None);
        }
        assert_eq!(f.t_end(), None);
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
        let mut f = opened(&mut core);
        core.clock.fast_forward(3);
        // Cl = 3 = t_end: outside the period.
        assert!(f
            .broadcast(PartyId(0), Value::U64(2), &mut core.ctx())
            .is_none());
        assert_eq!(f.records().len(), 1);
    }

    #[test]
    fn honest_requests_in_the_last_delay_rounds_discarded() {
        // Φ = 3, delay = 1: t_end = 3, so an honest request at Cl = 2 could
        // not be encrypted in time. A corrupted sender's request at the
        // same round is the simulator's and still records.
        let mut core = WorldCore::new(2, b"sbc");
        core.corr.corrupt(PartyId(1)).unwrap();
        let mut f = opened(&mut core);
        core.clock.fast_forward(2);
        core.leaks.clear();
        assert!(f
            .broadcast(PartyId(0), Value::U64(2), &mut core.ctx())
            .is_none());
        assert!(core.leaks.is_empty(), "a discarded request leaks nothing");
        assert!(f
            .broadcast(PartyId(1), Value::U64(3), &mut core.ctx())
            .is_some());
        let msgs: Vec<&Value> = f.records().iter().map(|r| &r.msg).collect();
        assert_eq!(msgs, [&Value::U64(1), &Value::U64(3)]);
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
        // No period is open: P1's Wake_Up never left F_UBC.
        assert!(!f.allow(tag, Value::U64(99), PartyId(1), &mut core.ctx()));
        f.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        f.advance_clock(PartyId(0), &mut core.ctx());
        assert!(f.allow(tag, Value::U64(99), PartyId(1), &mut core.ctx()));
        // Double-allow fails (already finalized).
        assert!(!f.allow(tag, Value::U64(5), PartyId(1), &mut core.ctx()));
        for round in 1..=5 {
            core.clock.fast_forward(round);
            f.advance_clock(PartyId(0), &mut core.ctx());
        }
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(delivered, None, "delivered at round 5, once");
        let records: Vec<&Value> = f.records().iter().map(|r| &r.msg).collect();
        assert_eq!(records, [&Value::U64(1), &Value::U64(99)]);
    }

    /// A corruption can complete the round before `t_end` and so move the
    /// clock there before `S_SBC` answers it: its `Allow` still lands,
    /// since no `Advance_Clock` has finalized the period yet.
    #[test]
    fn allow_closes_at_finalization_not_at_t_end() {
        let mut core = WorldCore::new(2, b"sbc");
        let mut f = func();
        let cast = f.broadcast(PartyId(1), Value::U64(2), &mut core.ctx());
        let late = f.broadcast(PartyId(1), Value::U64(3), &mut core.ctx());
        f.advance_clock(PartyId(1), &mut core.ctx());
        core.clock.fast_forward(3);
        core.corr.corrupt(PartyId(1)).unwrap();
        assert!(f.allow(cast.unwrap(), Value::U64(2), PartyId(1), &mut core.ctx()));
        f.advance_clock(PartyId(0), &mut core.ctx());
        assert!(!f.allow(late.unwrap(), Value::U64(3), PartyId(1), &mut core.ctx()));
        let records: Vec<(&Value, bool)> =
            f.records().iter().map(|r| (&r.msg, r.finalized)).collect();
        assert_eq!(records, [(&Value::U64(2), true), (&Value::U64(3), false)]);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_phi_panics() {
        SbcFunc::new(0, 2, 1, 1, Drbg::from_seed(b"x"));
    }
}
