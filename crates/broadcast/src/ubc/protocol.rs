//! The unfair broadcast protocol `Π_UBC` (paper Fig. 9): concurrent unfair
//! broadcast from per-sender counters over fresh `F_RBC` instances.
//!
//! Party `P`'s `j`-th broadcast of a round goes to instance
//! `F_RBC[P, total_P]`; on `Advance_Clock`, `P` instructs each of this
//! round's instances to deliver, in order, then resets her counter.
//! Parties forward each delivered `(M, P)` to `Z` as `(Broadcast, M)`,
//! dropping the sender identity.

use crate::rbc::func::RbcFunc;
use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::PartyId;
use sbc_uc::value::Value;
use std::collections::BTreeMap;

/// Leak-source label for the `i`-th `F_RBC` instance of `sender`.
pub(crate) fn rbc_instance_label(sender: PartyId, index: u64) -> String {
    format!("F_RBC[{sender},{index}]")
}

/// Parses an instance label back into `(sender, index)`.
pub(crate) fn parse_instance_label(label: &str) -> Option<(PartyId, u64)> {
    let inner = label.strip_prefix("F_RBC[")?.strip_suffix(']')?;
    let (p, i) = inner.split_once(',')?;
    let party = p.strip_prefix('P')?.parse().ok()?;
    Some((PartyId(party), i.parse().ok()?))
}

/// The protocol `Π_UBC(F_RBC, P)`.
#[derive(Clone, Debug)]
pub(crate) struct UbcProtocol {
    n: usize,
    /// `total_P` counters.
    totals: Vec<u64>,
    /// Per-sender indices of instances opened but not yet delivered (the
    /// paper's `count_P`, kept as explicit indices: adversarial broadcasts
    /// also bump `total_P`, so the pending set cannot be reconstructed
    /// from a plain counter).
    pending: Vec<Vec<u64>>,
    instances: BTreeMap<(u32, u64), RbcFunc>,
    last_advance: Vec<Option<u64>>,
}

impl UbcProtocol {
    /// Creates the protocol state for `n` parties.
    pub(crate) fn new(n: usize) -> Self {
        UbcProtocol {
            n,
            totals: vec![0; n],
            pending: vec![Vec::new(); n],
            instances: BTreeMap::new(),
            last_advance: vec![None; n],
        }
    }

    /// Drops every `F_RBC` instance opened but not yet delivered
    /// (multi-epoch turnover: stale wires from an ended broadcast period
    /// must not bleed into the next one). The `total_P` counters carry
    /// over so instance labels stay globally fresh.
    pub(crate) fn clear_pending(&mut self) {
        for (i, pend) in self.pending.iter_mut().enumerate() {
            for idx in pend.drain(..) {
                self.instances.remove(&(i as u32, idx));
            }
        }
    }

    /// Honest broadcast input from `sender`: the message enters the next
    /// `F_RBC` instance of `sender`.
    pub(crate) fn broadcast(&mut self, sender: PartyId, msg: Value, ctx: &mut HybridCtx<'_>) {
        if sender.index() >= self.n || ctx.is_corrupted(sender) {
            return;
        }
        self.totals[sender.index()] += 1;
        let idx = self.totals[sender.index()];
        self.pending[sender.index()].push(idx);
        let mut inst = RbcFunc::new(rbc_instance_label(sender, idx));
        inst.broadcast_honest(sender, msg, ctx);
        self.instances.insert((sender.0, idx), inst);
    }

    /// Adversarial broadcast on behalf of a corrupted `sender` through a
    /// fresh instance: the message every party receives at once.
    pub(crate) fn adv_broadcast(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<Value> {
        if sender.index() >= self.n || !ctx.is_corrupted(sender) {
            return None;
        }
        self.totals[sender.index()] += 1;
        let idx = self.totals[sender.index()];
        let mut inst = RbcFunc::new(rbc_instance_label(sender, idx));
        let delivered = inst.broadcast_corrupted(sender, msg, ctx);
        self.instances.insert((sender.0, idx), inst);
        delivered.map(|(msg, _)| msg)
    }

    /// Adversarial substitution in the in-flight instance named `label`:
    /// the substituted message every party receives.
    pub(crate) fn adv_allow(
        &mut self,
        label: &str,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Option<Value> {
        let (party, idx) = parse_instance_label(label)?;
        let inst = self.instances.get_mut(&(party.0, idx))?;
        inst.allow(msg, ctx).map(|(msg, _)| msg)
    }

    /// `Advance_Clock` from `party`: each of this round's instances of
    /// `party` delivers, in order, its message to every party.
    pub(crate) fn advance(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Vec<Value> {
        if party.index() >= self.n || ctx.is_corrupted(party) {
            return Vec::new();
        }
        let now = ctx.time();
        if self.last_advance[party.index()] == Some(now) {
            return Vec::new();
        }
        self.last_advance[party.index()] = Some(now);
        let pend = std::mem::take(&mut self.pending[party.index()]);
        pend.into_iter()
            .filter_map(|idx| {
                let inst = self.instances.get_mut(&(party.0, idx))?;
                inst.advance_clock(party, ctx).map(|(msg, _)| msg)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ubc::func::UbcFunc;
    use sbc_primitives::drbg::Drbg;
    use sbc_uc::world::WorldCore;

    #[test]
    fn label_round_trip() {
        let l = rbc_instance_label(PartyId(3), 7);
        assert_eq!(l, "F_RBC[P3,7]");
        assert_eq!(parse_instance_label(&l), Some((PartyId(3), 7)));
        assert_eq!(parse_instance_label("garbage"), None);
    }

    #[test]
    fn multi_message_round_ordering() {
        let mut core = WorldCore::new(2, b"ubcp");
        let mut p = UbcProtocol::new(2);
        p.broadcast(PartyId(0), Value::U64(10), &mut core.ctx());
        p.broadcast(PartyId(0), Value::U64(20), &mut core.ctx());
        let delivered = p.advance(PartyId(0), &mut core.ctx());
        assert_eq!(delivered, [Value::U64(10), Value::U64(20)]);
        assert_eq!(p.instances.len(), 2, "one F_RBC instance per message");
    }

    #[test]
    fn counter_reset_across_rounds() {
        let mut core = WorldCore::new(2, b"ubcp");
        let mut p = UbcProtocol::new(2);
        p.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        p.advance(PartyId(0), &mut core.ctx());
        core.clock.advance_party(PartyId(0));
        core.clock.advance_party(PartyId(1));
        p.broadcast(PartyId(0), Value::U64(2), &mut core.ctx());
        let delivered = p.advance(PartyId(0), &mut core.ctx());
        assert_eq!(delivered, [Value::U64(2)], "only the new round's message");
    }

    #[test]
    fn adversarial_broadcast_immediate() {
        let mut core = WorldCore::new(3, b"ubcp");
        core.corr.corrupt(PartyId(1)).unwrap();
        let mut p = UbcProtocol::new(3);
        let sent = p.adv_broadcast(PartyId(1), Value::U64(66), &mut core.ctx());
        assert_eq!(sent, Some(Value::U64(66)));
    }

    #[test]
    fn allow_substitution_after_mid_round_corruption() {
        let mut core = WorldCore::new(2, b"ubcp");
        let mut p = UbcProtocol::new(2);
        p.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        core.corr.corrupt(PartyId(0)).unwrap();
        let label = rbc_instance_label(PartyId(0), 1);
        let allowed = p.adv_allow(&label, Value::U64(2), &mut core.ctx());
        assert_eq!(allowed, Some(Value::U64(2)));
        // After corruption the party's advance is ignored.
        assert!(p.advance(PartyId(0), &mut core.ctx()).is_empty());
    }

    #[test]
    fn leaks_at_input_time() {
        let mut core = WorldCore::new(2, b"ubcp");
        let mut p = UbcProtocol::new(2);
        p.broadcast(PartyId(0), Value::bytes(b"m"), &mut core.ctx());
        assert_eq!(core.leaks.len(), 1);
        assert_eq!(core.leaks[0].source, "F_RBC[P0,1]");
    }

    /// A party id ≥ n is nobody to `F_UBC` or to `Π_UBC`: its broadcast,
    /// its adversarial broadcast and its advance are refused with no leak
    /// and no delivery, and a later honest round still delivers.
    #[test]
    fn out_of_range_party_is_refused_by_both_layers() {
        let stray = PartyId(7);
        let mut core = WorldCore::new(3, b"ubcp");
        let mut func = UbcFunc::new(3, Drbg::from_seed(b"ubc-tags"));
        assert!(!func.broadcast_honest(stray, Value::U64(1), &mut core.ctx()));
        let refused = func.broadcast_corrupted(stray, Value::U64(2), &mut core.ctx());
        assert!(refused.is_none());
        assert!(func.take_flush(stray, &mut core.ctx()).is_empty());
        assert!(core.leaks.is_empty());
        core.clock.fast_forward(1);
        func.broadcast_honest(PartyId(0), Value::U64(3), &mut core.ctx());
        assert_eq!(
            func.take_flush(PartyId(0), &mut core.ctx()),
            [Value::U64(3)]
        );
        assert_eq!(core.leaks.len(), 2, "the cast and its delivery");

        let mut core = WorldCore::new(3, b"ubcp");
        let mut protocol = UbcProtocol::new(3);
        protocol.broadcast(stray, Value::U64(1), &mut core.ctx());
        let refused = protocol.adv_broadcast(stray, Value::U64(2), &mut core.ctx());
        assert!(refused.is_none());
        assert!(protocol.advance(stray, &mut core.ctx()).is_empty());
        assert!(core.leaks.is_empty());
        core.clock.fast_forward(1);
        protocol.broadcast(PartyId(0), Value::U64(3), &mut core.ctx());
        assert_eq!(
            protocol.advance(PartyId(0), &mut core.ctx()),
            [Value::U64(3)]
        );
        assert_eq!(core.leaks.len(), 2, "the cast and its delivery");
    }
}
