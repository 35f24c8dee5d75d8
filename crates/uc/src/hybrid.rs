//! Shared context passed to hybrid functionalities and protocol parties.
//!
//! The paper's functionalities all read `G_clock`, sample randomness, leak
//! to the adversary, and consult the corruption set. [`HybridCtx`] bundles
//! mutable access to these shared resources so that functionality and
//! protocol methods stay free of world-specific plumbing. What a
//! functionality hands out is its output itself: the world that called it
//! knows who receives it.

use crate::clock::GlobalClock;
use crate::corruption::CorruptionTracker;
use crate::ids::PartyId;
use crate::value::Command;
use crate::world::Leak;
use sbc_primitives::drbg::Drbg;

/// Shared execution context for one world.
pub struct HybridCtx<'a> {
    /// The global clock `G_clock`.
    pub clock: &'a mut GlobalClock,
    /// Functionality-side randomness (tags, sampled values).
    pub rng: &'a mut Drbg,
    /// Leakage channel to the (dummy) adversary.
    pub leaks: &'a mut Vec<Leak>,
    /// The corruption state.
    pub corr: &'a mut CorruptionTracker,
}

impl HybridCtx<'_> {
    /// Current clock time `Cl`.
    pub fn time(&self) -> u64 {
        self.clock.read()
    }

    /// Records leakage from `source` to the adversary.
    pub fn leak(&mut self, source: impl Into<String>, cmd: Command) {
        self.leaks.push(Leak {
            source: source.into(),
            cmd,
        });
    }

    /// Whether `party` is corrupted.
    pub fn is_corrupted(&self, party: PartyId) -> bool {
        self.corr.is_corrupted(party)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn ctx_accessors() {
        let mut clock = GlobalClock::new(PartyId::all(2));
        let mut rng = Drbg::from_seed(b"ctx");
        let mut leaks = Vec::new();
        let mut corr = CorruptionTracker::new(2);
        corr.corrupt(PartyId(1)).unwrap();
        let mut ctx = HybridCtx {
            clock: &mut clock,
            rng: &mut rng,
            leaks: &mut leaks,
            corr: &mut corr,
        };
        assert_eq!(ctx.time(), 0);
        assert!(ctx.is_corrupted(PartyId(1)));
        assert!(!ctx.is_corrupted(PartyId(0)));
        ctx.leak("F", Command::new("L", Value::Unit));
        assert_eq!(leaks.len(), 1);
    }
}
