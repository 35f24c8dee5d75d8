//! The unfair broadcast protocol `Π_UBC` (paper Fig. 9): concurrent unfair
//! broadcast from per-sender counters over fresh `F_RBC` instances.
//!
//! Party `P`'s `j`-th broadcast of a round goes to instance
//! `F_RBC[P, total_P]`; on `Advance_Clock`, `P` instructs each of this
//! round's instances to deliver, in order, then resets her counter.

use crate::rbc::func::{parse_rbc_delivery, RbcFunc};
use crate::ubc::UbcLayer;
use sbc_uc::hybrid::{Delivery, HybridCtx};
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use std::collections::BTreeMap;

/// Leak-source label for the `i`-th `F_RBC` instance of `sender`.
pub fn rbc_instance_label(sender: PartyId, index: u64) -> String {
    format!("F_RBC[{sender},{index}]")
}

/// Parses an instance label back into `(sender, index)`.
pub fn parse_instance_label(label: &str) -> Option<(PartyId, u64)> {
    let inner = label.strip_prefix("F_RBC[")?.strip_suffix(']')?;
    let (p, i) = inner.split_once(',')?;
    let party = p.strip_prefix('P')?.parse().ok()?;
    Some((PartyId(party), i.parse().ok()?))
}

/// The protocol `Π_UBC(F_RBC, P)`.
#[derive(Clone, Debug)]
pub struct UbcProtocol {
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
    pub fn new(n: usize) -> Self {
        UbcProtocol {
            n,
            totals: vec![0; n],
            pending: vec![Vec::new(); n],
            instances: BTreeMap::new(),
            last_advance: vec![None; n],
        }
    }

    /// Number of `F_RBC` instances created so far (cost accounting).
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Drops every `F_RBC` instance opened but not yet delivered
    /// (multi-epoch turnover: stale wires from an ended broadcast period
    /// must not bleed into the next one). The `total_P` counters carry
    /// over so instance labels stay globally fresh.
    pub fn clear_pending(&mut self) {
        for (i, pend) in self.pending.iter_mut().enumerate() {
            for idx in pend.drain(..) {
                self.instances.remove(&(i as u32, idx));
            }
        }
    }

    fn strip(deliveries: Vec<Delivery>) -> Vec<Delivery> {
        // Parties forward (Broadcast, M) to Z, dropping the sender identity.
        deliveries
            .into_iter()
            .filter_map(|d| {
                let (msg, _sender) = parse_rbc_delivery(&d.cmd)?;
                Some(Delivery::new(d.to, Command::new("Broadcast", msg)))
            })
            .collect()
    }
}

impl UbcLayer for UbcProtocol {
    fn broadcast(&mut self, sender: PartyId, msg: Value, ctx: &mut HybridCtx<'_>) {
        if sender.index() >= self.n || ctx.is_corrupted(sender) {
            return;
        }
        self.totals[sender.index()] += 1;
        let idx = self.totals[sender.index()];
        self.pending[sender.index()].push(idx);
        let mut inst = RbcFunc::new(self.n, rbc_instance_label(sender, idx));
        inst.broadcast_honest(sender, msg, ctx);
        self.instances.insert((sender.0, idx), inst);
    }

    fn adv_broadcast(
        &mut self,
        sender: PartyId,
        msg: Value,
        ctx: &mut HybridCtx<'_>,
    ) -> Vec<Delivery> {
        if sender.index() >= self.n || !ctx.is_corrupted(sender) {
            return Vec::new();
        }
        self.totals[sender.index()] += 1;
        let idx = self.totals[sender.index()];
        let mut inst = RbcFunc::new(self.n, rbc_instance_label(sender, idx));
        let ds = inst.broadcast_corrupted(sender, msg, ctx);
        self.instances.insert((sender.0, idx), inst);
        Self::strip(ds)
    }

    fn adv_allow(&mut self, handle: &Value, msg: Value, ctx: &mut HybridCtx<'_>) -> Vec<Delivery> {
        let Some(label) = handle.as_str() else {
            return Vec::new();
        };
        let Some((party, idx)) = parse_instance_label(label) else {
            return Vec::new();
        };
        let Some(inst) = self.instances.get_mut(&(party.0, idx)) else {
            return Vec::new();
        };
        Self::strip(inst.allow(msg, ctx))
    }

    fn advance(&mut self, party: PartyId, ctx: &mut HybridCtx<'_>) -> Vec<Delivery> {
        if party.index() >= self.n || ctx.is_corrupted(party) {
            return Vec::new();
        }
        let now = ctx.time();
        if self.last_advance[party.index()] == Some(now) {
            return Vec::new();
        }
        self.last_advance[party.index()] = Some(now);
        let pend = std::mem::take(&mut self.pending[party.index()]);
        let mut out = Vec::new();
        for idx in pend {
            if let Some(inst) = self.instances.get_mut(&(party.0, idx)) {
                out.extend(Self::strip(inst.advance_clock(party, ctx)));
            }
        }
        out
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
        let ds = p.advance(PartyId(0), &mut core.ctx());
        assert_eq!(ds.len(), 4);
        assert_eq!(ds[0].cmd.value, Value::U64(10));
        assert_eq!(ds[2].cmd.value, Value::U64(20));
        assert_eq!(p.instance_count(), 2);
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
        let ds = p.advance(PartyId(0), &mut core.ctx());
        assert_eq!(ds.len(), 2, "only the new round's message");
        assert_eq!(ds[0].cmd.value, Value::U64(2));
    }

    #[test]
    fn adversarial_broadcast_immediate() {
        let mut core = WorldCore::new(3, b"ubcp");
        core.corr.corrupt(PartyId(1), 0).unwrap();
        let mut p = UbcProtocol::new(3);
        let ds = p.adv_broadcast(PartyId(1), Value::U64(66), &mut core.ctx());
        assert_eq!(ds.len(), 3);
        assert_eq!(ds[0].cmd.value, Value::U64(66));
    }

    #[test]
    fn allow_substitution_after_mid_round_corruption() {
        let mut core = WorldCore::new(2, b"ubcp");
        let mut p = UbcProtocol::new(2);
        p.broadcast(PartyId(0), Value::U64(1), &mut core.ctx());
        core.corr.corrupt(PartyId(0), 0).unwrap();
        let handle = Value::str(rbc_instance_label(PartyId(0), 1));
        let ds = p.adv_allow(&handle, Value::U64(2), &mut core.ctx());
        assert_eq!(ds.len(), 2);
        assert_eq!(ds[0].cmd.value, Value::U64(2));
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

    /// A party id ≥ n is nobody to either `UbcLayer`: its broadcast, its
    /// adversarial broadcast and its advance are refused with no leak and
    /// no delivery, and a later honest round still delivers.
    #[test]
    fn out_of_range_party_is_refused_by_both_layers() {
        let mut func = UbcFunc::new(3, Drbg::from_seed(b"ubc-tags"));
        let mut protocol = UbcProtocol::new(3);
        for layer in [&mut func as &mut dyn UbcLayer, &mut protocol] {
            let mut core = WorldCore::new(3, b"ubcp");
            let stray = PartyId(7);
            layer.broadcast(stray, Value::U64(1), &mut core.ctx());
            let refused = layer.adv_broadcast(stray, Value::U64(2), &mut core.ctx());
            assert!(refused.is_empty());
            assert!(layer.advance(stray, &mut core.ctx()).is_empty());
            assert!(core.leaks.is_empty());
            core.clock.fast_forward(1);
            layer.broadcast(PartyId(0), Value::U64(3), &mut core.ctx());
            let delivered = layer.advance(PartyId(0), &mut core.ctx());
            let cmd = Command::new("Broadcast", Value::U64(3));
            assert_eq!(delivered, Delivery::to_all(3, cmd));
            assert_eq!(core.leaks.len(), 2, "the cast and its delivery");
        }
    }
}
