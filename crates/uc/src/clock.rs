//! The global clock functionality `G_clock` (paper Fig. 2).
//!
//! The clock tracks the registered parties of a session. Time advances by
//! one tick exactly when *all honest registered parties* have issued
//! `Advance_Clock` for the current round. Corrupted parties do not gate
//! the clock (the adversary cannot stall time).
//!
//! # Examples
//!
//! ```
//! use sbc_uc::clock::GlobalClock;
//! use sbc_uc::ids::PartyId;
//!
//! let mut clock = GlobalClock::new(PartyId::all(2));
//! assert_eq!(clock.read(), 0);
//! clock.advance_party(PartyId(0));
//! assert_eq!(clock.read(), 0); // P1 hasn't advanced yet
//! clock.advance_party(PartyId(1));
//! assert_eq!(clock.read(), 1);
//! ```

use crate::ids::PartyId;
use std::collections::BTreeSet;

/// The global clock `G_clock(P)`.
///
/// Advancement checks are O(log n): the clock maintains the number of
/// still-required `Advance_Clock` marks (`required − advanced.len()`)
/// incrementally instead of recomputing the waiting set per call — at
/// `n = 1000` parties the old per-advance
/// [`waiting_on`](GlobalClock::waiting_on) scan made every round O(n²)
/// in the clock alone, dominating whole-protocol round cost.
#[derive(Clone, Debug)]
pub struct GlobalClock {
    time: u64,
    parties: BTreeSet<PartyId>,
    corrupted: BTreeSet<PartyId>,
    advanced: BTreeSet<PartyId>,
    /// Parties currently gating the tick: the honest registered ones.
    /// Maintained incrementally.
    required: usize,
}

impl GlobalClock {
    /// Creates a clock gated by the given party set.
    pub fn new(parties: impl IntoIterator<Item = PartyId>) -> Self {
        let parties: BTreeSet<PartyId> = parties.into_iter().collect();
        GlobalClock {
            required: parties.len(),
            time: 0,
            parties,
            corrupted: BTreeSet::new(),
            advanced: BTreeSet::new(),
        }
    }

    /// `Read_Clock`: the current time `Cl`.
    pub fn read(&self) -> u64 {
        self.time
    }

    /// Marks a party as corrupted: it no longer gates advancement.
    ///
    /// Mirrors the honest-party filter `P_sid` in Fig. 2.
    pub fn set_corrupted(&mut self, party: PartyId) {
        if self.corrupted.insert(party) && self.parties.contains(&party) {
            self.required -= 1;
        }
        self.advanced.remove(&party);
        self.try_tick();
    }

    /// `Advance_Clock` from a party. Returns `true` if the clock ticked.
    pub fn advance_party(&mut self, party: PartyId) -> bool {
        if !self.parties.contains(&party) || self.corrupted.contains(&party) {
            return false;
        }
        self.advanced.insert(party);
        self.try_tick()
    }

    /// Whether the clock is mid-round: at least one registered party has
    /// issued `Advance_Clock` since the last tick. Fast-forward joins (see
    /// [`fast_forward`](GlobalClock::fast_forward)) are only sound at a
    /// round boundary.
    pub fn mid_round(&self) -> bool {
        !self.advanced.is_empty()
    }

    /// Jumps the clock forward to `to`, as if `to − read()` complete idle
    /// rounds had elapsed — the O(1) half of `SbcWorld::join_at` (a fresh
    /// world joining a long-lived shared clock skips the `O(T·n)`
    /// `Advance_Clock` replay), indistinguishable from a literal replay of
    /// idle rounds.
    ///
    /// A no-op when `to ≤ read()`. Callers must only fast-forward at a
    /// round boundary (no partial `Advance_Clock` marks — see
    /// [`mid_round`](GlobalClock::mid_round)); any pending marks are
    /// dropped, exactly as a completed round would drop them.
    pub fn fast_forward(&mut self, to: u64) {
        if to <= self.time {
            return;
        }
        self.time = to;
        self.advanced.clear();
    }

    /// The honest parties still required before the next tick, in id order.
    pub fn waiting_on(&self) -> Vec<PartyId> {
        let gating = |p: &&PartyId| !self.corrupted.contains(p) && !self.advanced.contains(p);
        self.parties.iter().filter(gating).copied().collect()
    }

    fn try_tick(&mut self) -> bool {
        // `advanced` only ever holds currently-gating parties (corruption
        // evicts a party's mark), so full-count equality is exactly
        // "nobody is waiting" — without the O(n) waiting-set scan the old
        // implementation paid on every single Advance_Clock.
        debug_assert!(self.advanced.len() <= self.required);
        if self.advanced.len() == self.required && !self.parties.is_empty() {
            self.time += 1;
            self.advanced.clear();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_only_when_all_honest_advance() {
        let mut c = GlobalClock::new(PartyId::all(3));
        assert!(!c.advance_party(PartyId(0)));
        assert!(!c.advance_party(PartyId(1)));
        assert_eq!(c.read(), 0);
        assert!(c.advance_party(PartyId(2)));
        assert_eq!(c.read(), 1);
    }

    #[test]
    fn corrupted_parties_do_not_gate() {
        let mut c = GlobalClock::new(PartyId::all(3));
        c.set_corrupted(PartyId(2));
        c.advance_party(PartyId(0));
        assert!(c.advance_party(PartyId(1)));
        assert_eq!(c.read(), 1);
    }

    #[test]
    fn corruption_mid_round_unblocks() {
        // P2 is the only one missing; corrupting it must release the tick.
        let mut c = GlobalClock::new(PartyId::all(3));
        c.advance_party(PartyId(0));
        c.advance_party(PartyId(1));
        assert_eq!(c.read(), 0);
        c.set_corrupted(PartyId(2));
        assert_eq!(c.read(), 1);
    }

    #[test]
    fn unregistered_entities_ignored() {
        let mut c = GlobalClock::new(PartyId::all(1));
        assert!(!c.advance_party(PartyId(9)));
        assert_eq!(c.read(), 0);
    }

    #[test]
    fn double_advance_idempotent_within_round() {
        let mut c = GlobalClock::new(PartyId::all(2));
        c.advance_party(PartyId(0));
        c.advance_party(PartyId(0));
        assert_eq!(c.read(), 0);
        assert_eq!(c.waiting_on(), vec![PartyId(1)]);
        c.advance_party(PartyId(1));
        assert_eq!(c.read(), 1);
        assert_eq!(c.waiting_on().len(), 2, "reset after tick");
    }

    #[test]
    fn waiting_on_reports_missing() {
        let mut c = GlobalClock::new(PartyId::all(3));
        c.set_corrupted(PartyId(2));
        assert_eq!(c.waiting_on(), vec![PartyId(0), PartyId(1)]);
        c.advance_party(PartyId(1));
        assert_eq!(c.waiting_on(), vec![PartyId(0)]);
    }

    #[test]
    fn fast_forward_matches_idle_replay() {
        let mut replayed = GlobalClock::new(PartyId::all(3));
        for _ in 0..7 {
            replayed.advance_party(PartyId(0));
            replayed.advance_party(PartyId(1));
            replayed.advance_party(PartyId(2));
        }
        let mut jumped = GlobalClock::new(PartyId::all(3));
        jumped.fast_forward(7);
        assert_eq!(jumped.read(), replayed.read());
        assert!(!jumped.mid_round());
        // Backwards / same-round jumps are no-ops.
        jumped.fast_forward(7);
        jumped.fast_forward(3);
        assert_eq!(jumped.read(), 7);
    }

    #[test]
    fn mid_round_reports_partial_advances() {
        let mut c = GlobalClock::new(PartyId::all(2));
        assert!(!c.mid_round());
        c.advance_party(PartyId(0));
        assert!(c.mid_round());
        c.advance_party(PartyId(1));
        assert!(!c.mid_round(), "tick clears the partial marks");
    }

    #[test]
    fn required_count_survives_duplicate_registration_and_corruption() {
        // The O(1) tick check counts gating parties incrementally:
        // duplicate registrations and double corruptions must not skew it.
        let twice = PartyId::all(3).into_iter().chain(PartyId::all(3));
        let mut c = GlobalClock::new(twice); // duplicates: still three gates
        c.set_corrupted(PartyId(2));
        c.set_corrupted(PartyId(2)); // double corruption: one decrement
        c.set_corrupted(PartyId(9)); // unregistered: no decrement
        c.advance_party(PartyId(0));
        assert_eq!(c.read(), 0, "P1 still gates");
        assert!(c.advance_party(PartyId(1)));
        assert_eq!(c.read(), 1);
        // Steady state keeps ticking with the same counts.
        c.advance_party(PartyId(0));
        assert!(c.advance_party(PartyId(1)));
        assert_eq!(c.read(), 2);
    }

    #[test]
    fn multiple_rounds() {
        let mut c = GlobalClock::new(PartyId::all(2));
        for round in 1..=5 {
            c.advance_party(PartyId(0));
            c.advance_party(PartyId(1));
            assert_eq!(c.read(), round);
        }
    }
}
