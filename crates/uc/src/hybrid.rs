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
use std::borrow::Cow;

/// Where a world's leakage goes. A `Vec<Leak>` keeps every leak for the
/// adversary that reads it; a world nobody reads the leaks of hands out a
/// sink that only counts them (see [`WorldCore::count_leaks_only`]).
///
/// [`WorldCore::count_leaks_only`]: crate::world::WorldCore::count_leaks_only
pub trait LeakSink {
    /// The buffer a leak offered now goes into, or `None` when the sink
    /// only counts it — in which case this call has counted it.
    fn keep(&mut self) -> Option<&mut Vec<Leak>>;
}

impl LeakSink for Vec<Leak> {
    fn keep(&mut self) -> Option<&mut Vec<Leak>> {
        Some(self)
    }
}

/// Shared execution context for one world.
pub struct HybridCtx<'a> {
    /// The global clock `G_clock`.
    pub clock: &'a mut GlobalClock,
    /// Functionality-side randomness (tags, sampled values).
    pub rng: &'a mut Drbg,
    /// Leakage channel to the (dummy) adversary: a `&mut Vec<Leak>`
    /// coerces to it.
    pub leaks: &'a mut dyn LeakSink,
    /// The corruption state.
    pub corr: &'a mut CorruptionTracker,
}

impl HybridCtx<'_> {
    /// Current clock time `Cl`.
    pub fn time(&self) -> u64 {
        self.clock.read()
    }

    /// Records leakage from `source` to the adversary. A `&'static str`
    /// source is borrowed, not copied. The leaked command is built by
    /// `cmd` only if the channel keeps it: a count-only channel counts the
    /// leak and never calls `cmd`.
    pub fn leak(&mut self, source: impl Into<Cow<'static, str>>, cmd: impl FnOnce() -> Command) {
        if let Some(leaks) = self.leaks.keep() {
            leaks.push(Leak {
                source: source.into(),
                cmd: cmd(),
            });
        }
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
        let mut leaks: Vec<Leak> = Vec::new();
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
        ctx.leak("F", || Command::new("L", Value::Unit));
        assert_eq!(leaks.len(), 1);
    }
}
