//! Adaptive corruption tracking (paper §2.1, strong non-atomic model).
//!
//! The adversary may corrupt parties at any activation boundary — including
//! in the middle of a round, after observing a sender's message. This
//! tracker records who is corrupted; the per-protocol worlds
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
//! assert!(ct.corrupt(PartyId(0)).is_ok());
//! assert!(ct.is_corrupted(PartyId(0)));
//! assert!(ct.corrupt(PartyId(3)).is_err()); // not a party
//! assert_eq!(ct.corrupted().collect::<Vec<_>>(), [PartyId(0)]);
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

/// Tracks the corrupted set `P_corr`.
#[derive(Clone, Debug)]
pub struct CorruptionTracker {
    n: usize,
    corrupted: BTreeSet<PartyId>,
}

impl CorruptionTracker {
    /// Creates a tracker for `n` parties, enforcing `t < n`.
    pub fn new(n: usize) -> Self {
        CorruptionTracker {
            n,
            corrupted: BTreeSet::new(),
        }
    }

    /// Corrupts `party`.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptionBudgetExceeded`] if `party ≥ n`, or if all other
    /// parties are already corrupted (at least one party must remain
    /// honest) — the one place either rule is decided; worlds and pools ask.
    pub fn corrupt(&mut self, party: PartyId) -> Result<(), CorruptionBudgetExceeded> {
        if self.corrupted.contains(&party) {
            return Ok(()); // idempotent
        }
        if party.index() >= self.n || self.corrupted.len() + 1 >= self.n {
            return Err(CorruptionBudgetExceeded);
        }
        self.corrupted.insert(party);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrupted(ct: &CorruptionTracker) -> Vec<u32> {
        ct.corrupted().map(|p| p.0).collect()
    }

    #[test]
    fn corrupt_and_query() {
        let mut ct = CorruptionTracker::new(4);
        ct.corrupt(PartyId(2)).unwrap();
        assert!(ct.is_corrupted(PartyId(2)));
        assert!(!ct.is_corrupted(PartyId(0)));
        assert_eq!(corrupted(&ct), [2]);
    }

    #[test]
    fn dishonest_majority_allowed() {
        // t = n - 1 corruptions must be allowed — that's the whole point.
        let mut ct = CorruptionTracker::new(4);
        for i in 0..3 {
            ct.corrupt(PartyId(i)).unwrap();
        }
        assert_eq!(corrupted(&ct), [0, 1, 2]);
    }

    #[test]
    fn full_corruption_rejected() {
        let mut ct = CorruptionTracker::new(3);
        ct.corrupt(PartyId(0)).unwrap();
        ct.corrupt(PartyId(1)).unwrap();
        assert_eq!(ct.corrupt(PartyId(2)), Err(CorruptionBudgetExceeded));
        assert_eq!(corrupted(&ct), [0, 1]);
    }

    #[test]
    fn out_of_range_party_rejected_without_spending_budget() {
        let mut ct = CorruptionTracker::new(3);
        assert_eq!(ct.corrupt(PartyId(3)), Err(CorruptionBudgetExceeded));
        assert!(!ct.is_corrupted(PartyId(3)) && corrupted(&ct).is_empty());
        ct.corrupt(PartyId(0)).unwrap();
        ct.corrupt(PartyId(1)).unwrap(); // still t = n − 1
        assert!(CorruptionTracker::new(0).corrupt(PartyId(0)).is_err());
    }

    #[test]
    fn idempotent_corruption() {
        let mut ct = CorruptionTracker::new(2);
        ct.corrupt(PartyId(0)).unwrap();
        ct.corrupt(PartyId(0)).unwrap();
        assert_eq!(corrupted(&ct), [0]);
    }
}
