//! The relaxed broadcast functionality `F_RBC` (paper Fig. 6).
//!
//! One instance broadcasts a *single* message. It guarantees agreement and
//! termination, but only weak validity: if the sender is honest *throughout*
//! and completes her round, every honest party outputs her message; if the
//! sender is (or becomes) corrupted, the adversary may substitute the value
//! via `Allow` before delivery.

use sbc_uc::hybrid::{Delivery, HybridCtx};
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};

/// State of one `F_RBC` instance.
#[derive(Clone, Debug, Default)]
pub struct RbcFunc {
    /// `(Output, Sender)` — set on the first honest broadcast.
    pending: Option<(Value, PartyId)>,
    halted: bool,
    n: usize,
    /// Label used in leakage (`F_RBC[P,i]` for the i-th instance of P).
    label: String,
}

impl RbcFunc {
    /// Creates an instance for `n` parties with a leakage `label`.
    pub fn new(n: usize, label: impl Into<String>) -> Self {
        RbcFunc {
            pending: None,
            halted: false,
            n,
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
        self.pending = Some((msg.clone(), sender));
        ctx.leak(
            self.label.clone(),
            Command::new("Broadcast", Value::pair(msg, Value::U64(sender.0 as u64))),
        );
    }

    /// `Broadcast` from the adversary on behalf of a corrupted party:
    /// delivers immediately to all parties and halts.
    pub fn broadcast_corrupted(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Vec<Delivery> {
        if self.halted || self.pending.is_some() || !ctx.is_corrupted(sender) {
            return Vec::new();
        }
        self.halted = true;
        let cmd = Command::new(
            "Broadcast",
            Value::pair(msg.clone(), Value::U64(sender.0 as u64)),
        );
        ctx.leak(self.label.clone(), cmd.clone());
        Delivery::to_all(self.n, cmd)
    }

    /// `Allow` from the adversary: if the recorded sender is corrupted,
    /// substitutes the message and delivers to all parties.
    pub fn allow(&mut self, msg: Value, ctx: &mut HybridCtx<'_>) -> Vec<Delivery> {
        if self.halted {
            return Vec::new();
        }
        let Some((_, sender)) = self.pending else {
            return Vec::new();
        };
        if !ctx.is_corrupted(sender) {
            return Vec::new();
        }
        self.halted = true;
        let cmd = Command::new(
            "Broadcast",
            Value::pair(msg.clone(), Value::U64(sender.0 as u64)),
        );
        ctx.leak(self.label.clone(), cmd.clone());
        Delivery::to_all(self.n, cmd)
    }

    /// `Advance_Clock` from an honest party: if it is the recorded sender,
    /// the instance delivers her output to all parties and halts.
    pub fn advance_clock(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Vec<Delivery> {
        if self.halted || ctx.is_corrupted(party) {
            return Vec::new();
        }
        match &self.pending {
            Some((output, sender)) if *sender == party => {
                self.halted = true;
                let cmd = Command::new(
                    "Broadcast",
                    Value::pair(output.clone(), Value::U64(sender.0 as u64)),
                );
                ctx.leak(self.label.clone(), cmd.clone());
                Delivery::to_all(self.n, cmd)
            }
            _ => Vec::new(),
        }
    }
}

/// Parses an `F_RBC` delivery back into `(message, sender)`.
pub fn parse_rbc_delivery(cmd: &Command) -> Option<(Value, PartyId)> {
    if cmd.name != "Broadcast" {
        return None;
    }
    let items = cmd.value.as_list()?;
    if items.len() != 2 {
        return None;
    }
    let sender = PartyId(u32::try_from(items[1].as_u64()?).ok()?);
    Some((items[0].clone(), sender))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::world::WorldCore;

    #[test]
    fn honest_broadcast_delivers_on_sender_advance() {
        let mut core = WorldCore::new(3, b"rbc");
        let mut f = RbcFunc::new(3, "F_RBC[P0,1]");
        f.broadcast_honest(PartyId(0), Value::bytes(b"m"), &mut core.ctx());
        assert!(!f.is_halted());
        // Another party advancing does nothing.
        assert!(f.advance_clock(PartyId(1), &mut core.ctx()).is_empty());
        let deliveries = f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(deliveries.len(), 3);
        assert!(f.is_halted());
        let (m, s) = parse_rbc_delivery(&deliveries[0].cmd).unwrap();
        assert_eq!(m, Value::bytes(b"m"));
        assert_eq!(s, PartyId(0));
    }

    #[test]
    fn leak_precedes_delivery() {
        let mut core = WorldCore::new(2, b"rbc");
        let mut f = RbcFunc::new(2, "F_RBC[P0,1]");
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
        let mut f = RbcFunc::new(2, "l");
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        // Honest sender: Allow ignored (fairness of RBC's weak validity).
        assert!(f.allow(Value::U64(2), &mut core.ctx()).is_empty());
        // Corrupt mid-round, now Allow substitutes.
        core.corr.corrupt(PartyId(0), 0).unwrap();
        let ds = f.allow(Value::U64(2), &mut core.ctx());
        assert_eq!(ds.len(), 2);
        assert_eq!(parse_rbc_delivery(&ds[0].cmd).unwrap().0, Value::U64(2));
    }

    #[test]
    fn corrupted_broadcast_immediate() {
        let mut core = WorldCore::new(2, b"rbc");
        core.corr.corrupt(PartyId(1), 0).unwrap();
        let mut f = RbcFunc::new(2, "l");
        let ds = f.broadcast_corrupted(PartyId(1), Value::U64(5), &mut core.ctx());
        assert_eq!(ds.len(), 2);
        assert!(f.is_halted());
    }

    #[test]
    fn single_shot_semantics() {
        let mut core = WorldCore::new(2, b"rbc");
        let mut f = RbcFunc::new(2, "l");
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        f.broadcast_honest(PartyId(1), Value::U64(2), &mut core.ctx()); // ignored
        let ds = f.advance_clock(PartyId(0), &mut core.ctx());
        assert_eq!(parse_rbc_delivery(&ds[0].cmd).unwrap().0, Value::U64(1));
        // After halt everything is inert.
        assert!(f.advance_clock(PartyId(0), &mut core.ctx()).is_empty());
        assert!(f.allow(Value::U64(9), &mut core.ctx()).is_empty());
    }

    #[test]
    fn corrupted_party_cannot_broadcast_as_honest() {
        let mut core = WorldCore::new(2, b"rbc");
        core.corr.corrupt(PartyId(0), 0).unwrap();
        let mut f = RbcFunc::new(2, "l");
        f.broadcast_honest(PartyId(0), Value::U64(1), &mut core.ctx());
        assert!(f.pending().is_none());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_rbc_delivery(&Command::new("Other", Value::Unit)).is_none());
        assert!(parse_rbc_delivery(&Command::new("Broadcast", Value::U64(1))).is_none());
    }
}
