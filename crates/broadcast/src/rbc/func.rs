//! The relaxed broadcast functionality `F_RBC` (paper Fig. 6).
//!
//! One instance broadcasts a *single* message. It guarantees agreement and
//! termination, but only weak validity: if the sender is honest *throughout*
//! and completes her round, every honest party outputs her message; if the
//! sender is (or becomes) corrupted, the adversary may substitute the value
//! via `Allow` before delivery.

use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};

/// State of one `F_RBC` instance.
///
/// What an instance delivers goes to all of P, so its delivering entry
/// points return the one `(M, P)` pair every party receives.
#[derive(Clone, Debug, Default)]
pub struct RbcFunc {
    /// `(Output, Sender)` — set on the first honest broadcast.
    pending: Option<(Value, PartyId)>,
    halted: bool,
    /// Label used in leakage (`F_RBC[P,i]` for the i-th instance of P).
    label: String,
}

impl RbcFunc {
    /// Creates an instance with a leakage `label`.
    pub fn new(label: impl Into<String>) -> Self {
        RbcFunc {
            pending: None,
            halted: false,
            label: label.into(),
        }
    }

    /// Whether the instance has delivered and halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The recorded (pending) output and sender, if any.
    pub fn pending(&self) -> Option<&(Value, PartyId)> {
        self.pending.as_ref()
    }

    /// `Broadcast` from an honest party: records the output/sender pair and
    /// leaks `(Broadcast, M, P)` to the adversary.
    pub fn broadcast_honest(&mut self, sender: PartyId, msg: Value, ctx: &mut HybridCtx<'_>) {
        if self.halted || self.pending.is_some() || ctx.is_corrupted(sender) {
            return;
        }
        ctx.leak(self.label.clone(), || {
            Command::new(
                "Broadcast",
                Value::pair(msg.clone(), Value::U64(sender.0 as u64)),
            )
        });
        self.pending = Some((msg, sender));
    }

    /// Leaks `(Broadcast, M, P)`, halts, and returns the delivered pair.
    fn deliver(
        &mut self,
        msg: Value,
        sender: PartyId,
        ctx: &mut HybridCtx<'_>,
    ) -> (Value, PartyId) {
        self.halted = true;
        ctx.leak(self.label.clone(), || {
            Command::new(
                "Broadcast",
                Value::pair(msg.clone(), Value::U64(sender.0 as u64)),
            )
        });
        (msg, sender)
    }

    /// `Broadcast` from the adversary on behalf of a corrupted party:
    /// delivers immediately to all parties and halts.
    pub fn broadcast_corrupted(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<(Value, PartyId)> {
        if self.halted || self.pending.is_some() || !ctx.is_corrupted(sender) {
            return None;
        }
        Some(self.deliver(msg, sender, ctx))
    }

    /// `Allow` from the adversary: if the recorded sender is corrupted,
    /// substitutes the message and delivers to all parties.
    pub fn allow(&mut self, msg: Value, ctx: &mut HybridCtx<'_>) -> Option<(Value, PartyId)> {
        if self.halted {
            return None;
        }
        let sender = self.pending.as_ref()?.1;
        if !ctx.is_corrupted(sender) {
            return None;
        }
        Some(self.deliver(msg, sender, ctx))
    }

    /// `Advance_Clock` from an honest party: if it is the recorded sender,
    /// the instance delivers her output to all parties and halts.
    pub fn advance_clock(
        &mut self,
        party: PartyId,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<(Value, PartyId)> {
        if self.halted || ctx.is_corrupted(party) {
            return None;
        }
        let output = match &self.pending {
            Some((output, sender)) if *sender == party => output.clone(),
            _ => return None,
        };
        Some(self.deliver(output, party, ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::world::WorldCore;

    #[test]
    fn honest_broadcast_delivers_on_sender_advance() {
        let mut core = WorldCore::new(3, b"rbc");
        let mut f = RbcFunc::new("F_RBC[P0,1]");
        f.broadcast_honest(PartyId(0), Value::bytes(b"m"), &mut core.ctx());
        assert!(!f.is_halted());
        // Another party advancing does nothing.
        assert!(f.advance_clock(PartyId(1), &mut core.ctx()).is_none());
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(delivered, Some((Value::bytes(b"m"), PartyId(0))));
        assert!(f.is_halted());
    }

    #[test]
    fn leak_precedes_delivery() {
        let mut core = WorldCore::new(2, b"rbc");
        let mut f = RbcFunc::new("F_RBC[P0,1]");
        f.broadcast_honest(PartyId(0), Value::U64(9), &mut core.ctx());
        assert_eq!(
            core.leaks.len(),
            1,
            "adversary sees message before delivery"
        );
    }

    #[test]
    fn allow_only_for_corrupted_sender() {
        let mut core = WorldCore::new(2, b"rbc");
        let mut f = RbcFunc::new("l");
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        // Honest sender: Allow ignored (fairness of RBC's weak validity).
        assert!(f.allow(Value::U64(2), &mut core.ctx()).is_none());
        // Corrupt mid-round, now Allow substitutes.
        core.corr.corrupt(PartyId(0)).unwrap();
        let delivered = f.allow(Value::U64(2), &mut core.ctx());
        assert_eq!(delivered, Some((Value::U64(2), PartyId(0))));
    }

    #[test]
    fn corrupted_broadcast_immediate() {
        let mut core = WorldCore::new(2, b"rbc");
        core.corr.corrupt(PartyId(1)).unwrap();
        let mut f = RbcFunc::new("l");
        let delivered = f.broadcast_corrupted(PartyId(1), Value::U64(5), &mut core.ctx());
        assert_eq!(delivered, Some((Value::U64(5), PartyId(1))));
        assert!(f.is_halted());
    }

    #[test]
    fn single_shot_semantics() {
        let mut core = WorldCore::new(2, b"rbc");
        let mut f = RbcFunc::new("l");
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        f.broadcast_honest(PartyId(1), Value::U64(2), &mut core.ctx()); // ignored
        let delivered = f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(delivered, Some((Value::U64(1), PartyId(0))));
        // After halt everything is inert.
        assert!(f.advance_clock(PartyId(0), &mut core.ctx()).is_none());
        assert!(f.allow(Value::U64(9), &mut core.ctx()).is_none());
    }

    #[test]
    fn corrupted_party_cannot_broadcast_as_honest() {
        let mut core = WorldCore::new(2, b"rbc");
        core.corr.corrupt(PartyId(0)).unwrap();
        let mut f = RbcFunc::new("l");
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        assert!(f.pending().is_none());
    }
}
