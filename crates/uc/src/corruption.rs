//! Adaptive corruption tracking (paper §2.1, strong non-atomic model).
//!
//! The adversary may corrupt parties at any activation boundary — including
//! in the middle of a round, after observing a sender's message. This
//! tracker records who is corrupted and when; the per-protocol worlds
//! consult it and funnel the corruption event into their functionalities
//! (clock, certification, …).
//!
//! # Examples
//!
//! ```
//! use sbc_uc::corruption::CorruptionTracker;
//! use sbc_uc::ids::PartyId;
//!
//! let mut ct = CorruptionTracker::new(3); // t < n = 3
//! assert!(ct.corrupt(PartyId(0), 5).is_ok());
//! assert!(ct.is_corrupted(PartyId(0)));
//! assert!(ct.corrupt(PartyId(3), 5).is_err()); // not a party
//! assert_eq!(ct.honest(), vec![PartyId(1), PartyId(2)]);
//! ```

use crate::ids::PartyId;
use std::collections::BTreeSet;

/// Error: the corruption is outside the adversary's budget — the target is
/// not one of the `n` parties, or corrupting it would leave no honest party
/// (the model requires `t < n`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionBudgetExceeded;

impl std::fmt::Display for CorruptionBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "adversary may corrupt at most n-1 parties (t < n)")
    }
}

impl std::error::Error for CorruptionBudgetExceeded {}

/// Tracks the corrupted set `P_corr` and the corruption schedule.
#[derive(Clone, Debug)]
pub struct CorruptionTracker {
    n: usize,
    corrupted: BTreeSet<PartyId>,
    /// `(round, party)` in corruption order.
    history: Vec<(u64, PartyId)>,
}

impl CorruptionTracker {
    /// Creates a tracker for `n` parties, enforcing `t < n`.
    pub fn new(n: usize) -> Self {
        CorruptionTracker {
            n,
            corrupted: BTreeSet::new(),
            history: Vec::new(),
        }
    }

    /// Corrupts `party` at clock time `round`.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptionBudgetExceeded`] if `party ≥ n`, or if all other
    /// parties are already corrupted (at least one party must remain
    /// honest) — the one place either rule is decided; worlds and pools ask.
    pub fn corrupt(&mut self, party: PartyId, round: u64) -> Result<(), CorruptionBudgetExceeded> {
        if self.corrupted.contains(&party) {
            return Ok(()); // idempotent
        }
        if party.index() >= self.n || self.corrupted.len() + 1 >= self.n {
            return Err(CorruptionBudgetExceeded);
        }
        self.corrupted.insert(party);
        self.history.push((round, party));
        Ok(())
    }

    /// Whether `party` is corrupted.
    pub fn is_corrupted(&self, party: PartyId) -> bool {
        self.corrupted.contains(&party)
    }

    /// The corrupted set.
    pub fn corrupted(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.corrupted.iter().copied()
    }

    /// The honest parties.
    pub fn honest(&self) -> Vec<PartyId> {
        (0..self.n as u32)
            .map(PartyId)
            .filter(|p| !self.corrupted.contains(p))
            .collect()
    }

    /// Number of corrupted parties.
    pub fn corrupted_count(&self) -> usize {
        self.corrupted.len()
    }

    /// The corruption schedule `(round, party)` in order.
    pub fn history(&self) -> &[(u64, PartyId)] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_and_query() {
        let mut ct = CorruptionTracker::new(4);
        ct.corrupt(PartyId(2), 0).unwrap();
        assert!(ct.is_corrupted(PartyId(2)));
        assert!(!ct.is_corrupted(PartyId(0)));
        assert_eq!(ct.honest(), vec![PartyId(0), PartyId(1), PartyId(3)]);
        assert_eq!(ct.corrupted_count(), 1);
    }

    #[test]
    fn dishonest_majority_allowed() {
        // t = n - 1 corruptions must be allowed — that's the whole point.
        let mut ct = CorruptionTracker::new(4);
        for i in 0..3 {
            ct.corrupt(PartyId(i), 0).unwrap();
        }
        assert_eq!(ct.honest(), vec![PartyId(3)]);
    }

    #[test]
    fn full_corruption_rejected() {
        let mut ct = CorruptionTracker::new(3);
        ct.corrupt(PartyId(0), 0).unwrap();
        ct.corrupt(PartyId(1), 0).unwrap();
        assert_eq!(ct.corrupt(PartyId(2), 0), Err(CorruptionBudgetExceeded));
        assert_eq!(ct.corrupted_count(), 2);
    }

    #[test]
    fn out_of_range_party_rejected_without_spending_budget() {
        let mut ct = CorruptionTracker::new(3);
        assert_eq!(ct.corrupt(PartyId(3), 0), Err(CorruptionBudgetExceeded));
        assert!(!ct.is_corrupted(PartyId(3)) && ct.history().is_empty());
        ct.corrupt(PartyId(0), 0).unwrap();
        ct.corrupt(PartyId(1), 0).unwrap(); // still t = n − 1
        assert!(CorruptionTracker::new(0).corrupt(PartyId(0), 0).is_err());
    }

    #[test]
    fn idempotent_corruption() {
        let mut ct = CorruptionTracker::new(2);
        ct.corrupt(PartyId(0), 1).unwrap();
        ct.corrupt(PartyId(0), 2).unwrap();
        assert_eq!(ct.history().len(), 1);
    }

    #[test]
    fn history_records_rounds() {
        let mut ct = CorruptionTracker::new(4);
        ct.corrupt(PartyId(1), 3).unwrap();
        ct.corrupt(PartyId(0), 7).unwrap();
        assert_eq!(ct.history(), &[(3, PartyId(1)), (7, PartyId(0))]);
    }
}
