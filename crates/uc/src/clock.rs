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

/// The global clock `G_clock(P)`.
///
/// Every operation on one party is O(1) and an `Advance_Clock` allocates
/// nothing: the clock keeps a dense gate per party id (registered,
/// corrupted) and one mark per party stamped with the round it was made
/// in, plus the count of this round's marks. A tick moves the stamp on,
/// so it retires every mark at once without touching them; it fires when
/// the count reaches the number of honest registered parties. Only
/// [`waiting_on`](GlobalClock::waiting_on) walks the parties.
#[derive(Clone, Debug)]
pub struct GlobalClock {
    time: u64,
    /// One gate per party id, up to the largest registered one.
    gates: Vec<Gate>,
    /// The stamp of the current round's marks: moved on by every tick and
    /// fast-forward, so an older mark is no mark.
    stamp: u64,
    /// Marks carrying the current `stamp`: the parties that have advanced
    /// this round, all of them honest and registered.
    advanced: usize,
    /// Parties currently gating the tick: the honest registered ones.
    required: usize,
}

/// One party's standing with the clock.
#[derive(Clone, Copy, Debug, Default)]
struct Gate {
    registered: bool,
    corrupted: bool,
    /// The `stamp` of the round this party last advanced in (0: never).
    marked: u64,
}

impl GlobalClock {
    /// Creates a clock gated by the given party set.
    pub fn new(parties: impl IntoIterator<Item = PartyId>) -> Self {
        let parties = parties.into_iter();
        let mut gates: Vec<Gate> = Vec::with_capacity(parties.size_hint().0);
        for p in parties {
            if gates.len() <= p.index() {
                gates.resize(p.index() + 1, Gate::default());
            }
            gates[p.index()].registered = true;
        }
        GlobalClock {
            required: gates.iter().filter(|g| g.registered).count(),
            time: 0,
            gates,
            stamp: 1,
            advanced: 0,
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
        if let Some(g) = self.gates.get_mut(party.index()) {
            if g.registered && !g.corrupted {
                g.corrupted = true;
                self.required -= 1;
                if g.marked == self.stamp {
                    g.marked = 0;
                    self.advanced -= 1;
                }
            }
        }
        self.try_tick();
    }

    /// `Advance_Clock` from a party. Returns `true` if the clock ticked.
    pub fn advance_party(&mut self, party: PartyId) -> bool {
        let Some(g) = self.gates.get_mut(party.index()) else {
            return false;
        };
        if !g.registered || g.corrupted {
            return false;
        }
        if g.marked != self.stamp {
            g.marked = self.stamp;
            self.advanced += 1;
        }
        self.try_tick()
    }

    /// Whether the clock is mid-round: at least one registered party has
    /// issued `Advance_Clock` since the last tick. Fast-forward joins (see
    /// [`fast_forward`](GlobalClock::fast_forward)) are only sound at a
    /// round boundary.
    pub fn mid_round(&self) -> bool {
        self.advanced > 0
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
        self.next_round();
    }

    /// The honest parties still required before the next tick, in id order.
    pub fn waiting_on(&self) -> Vec<PartyId> {
        self.gates
            .iter()
            .enumerate()
            .filter(|(_, g)| g.registered && !g.corrupted && g.marked != self.stamp)
            .map(|(i, _)| PartyId(i as u32))
            .collect()
    }

    /// Retires every mark of the round by moving the stamp on.
    fn next_round(&mut self) {
        self.stamp += 1;
        self.advanced = 0;
    }

    fn try_tick(&mut self) -> bool {
        // Only gating parties hold a current mark (corruption retires a
        // party's mark), so full-count equality is exactly "nobody is
        // waiting".
        debug_assert!(self.advanced <= self.required);
        if self.advanced == self.required && !self.gates.is_empty() {
            self.time += 1;
            self.next_round();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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

    /// `G_clock` as three `BTreeSet`s, ticking when the waiting set is
    /// empty: the reference the dense clock is checked against.
    #[derive(Default)]
    struct Model {
        time: u64,
        parties: BTreeSet<PartyId>,
        corrupted: BTreeSet<PartyId>,
        advanced: BTreeSet<PartyId>,
    }

    impl Model {
        fn set_corrupted(&mut self, party: PartyId) {
            self.corrupted.insert(party);
            self.advanced.remove(&party);
            self.try_tick();
        }

        fn advance_party(&mut self, party: PartyId) -> bool {
            if !self.parties.contains(&party) || self.corrupted.contains(&party) {
                return false;
            }
            self.advanced.insert(party);
            self.try_tick()
        }

        fn fast_forward(&mut self, to: u64) {
            if to > self.time {
                self.time = to;
                self.advanced.clear();
            }
        }

        fn waiting_on(&self) -> Vec<PartyId> {
            self.parties
                .iter()
                .filter(|p| !self.corrupted.contains(p) && !self.advanced.contains(p))
                .copied()
                .collect()
        }

        fn try_tick(&mut self) -> bool {
            let waiting = |p: &PartyId| !self.corrupted.contains(p) && !self.advanced.contains(p);
            if self.parties.is_empty() || self.parties.iter().any(waiting) {
                return false;
            }
            self.time += 1;
            self.advanced.clear();
            true
        }
    }

    /// Compares the observable state after `step` of sequence `(n, seed)`.
    fn assert_same(c: &GlobalClock, m: &Model, (n, seed, step): (u32, u32, usize)) {
        let at = || format!("after step {step} (n = {n}, seed {seed})");
        assert_eq!(c.read(), m.time, "read {}", at());
        assert_eq!(c.mid_round(), !m.advanced.is_empty(), "mid_round {}", at());
        assert_eq!(c.waiting_on(), m.waiting_on(), "waiting_on {}", at());
    }

    #[test]
    fn dense_clock_matches_the_set_model_on_random_sequences() {
        use sbc_primitives::drbg::Drbg;
        let (mut marked_corruptions, mut unmarked_corruptions, mut ticks) = (0, 0, 0);
        for n in [1u32, 2, 5, 256] {
            for seed in 0..if n > 5 { 2 } else { 8 } {
                let mut rng = Drbg::from_seed(format!("clock-model/{n}/{seed}").as_bytes());
                // Registration: most ids below n (some left out), some
                // twice, in a shuffled order.
                let mut ids = Vec::new();
                for i in 0..n {
                    match rng.gen_range(8) {
                        0 => {}
                        1 => ids.extend([PartyId(i); 2]),
                        _ => ids.push(PartyId(i)),
                    }
                }
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.gen_range(i as u64 + 1) as usize);
                }
                let mut c = GlobalClock::new(ids.iter().copied());
                let mut m = Model {
                    parties: ids.into_iter().collect(),
                    ..Model::default()
                };
                assert_same(&c, &m, (n, seed, 0));
                // Ids up to n + 2: the ones past n are never registered.
                let any = |rng: &mut Drbg| PartyId(rng.gen_range(u64::from(n) + 3) as u32);
                for step in 1..=30 * (n as usize + 2) {
                    match rng.gen_range(40) {
                        0 => {
                            let p = any(&mut rng);
                            if m.parties.contains(&p) && !m.corrupted.contains(&p) {
                                if m.advanced.contains(&p) {
                                    marked_corruptions += 1;
                                } else {
                                    unmarked_corruptions += 1;
                                }
                            }
                            c.set_corrupted(p);
                            m.set_corrupted(p);
                        }
                        1 => {
                            let to = (c.read() + rng.gen_range(4)).saturating_sub(1);
                            c.fast_forward(to);
                            m.fast_forward(to);
                        }
                        k => {
                            let waiting = m.waiting_on();
                            let p = match waiting.len() {
                                w if w > 0 && k % 2 == 0 => {
                                    waiting[rng.gen_range(w as u64) as usize]
                                }
                                _ => any(&mut rng),
                            };
                            let ticked = c.advance_party(p);
                            assert_eq!(ticked, m.advance_party(p), "advance {p:?} at step {step}");
                            ticks += usize::from(ticked);
                        }
                    }
                    assert_same(&c, &m, (n, seed, step));
                }
            }
        }
        assert!(marked_corruptions > 0 && unmarked_corruptions > 0 && ticks > 100);
    }
}
