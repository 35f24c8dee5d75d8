//! Real and ideal worlds for unfair broadcast, and the Lemma 1 simulator.
//!
//! * [`RealUbcWorld`] — parties run `Π_UBC` (Fig. 9) over `F_RBC` instances.
//! * [`IdealUbcWorld`] — dummy parties talk to `F_UBC` (Fig. 8); the
//!   simulator `SimUbc` (Appendix A of the paper) re-shapes every
//!   functionality leak into exactly the `F_RBC`-instance leakage the real
//!   adversary would see, and translates adversarial commands addressed to
//!   `F_RBC` instances back into `F_UBC` interface calls.
//!
//! Under any environment, the two worlds produce byte-identical transcripts
//! (the simulation in Appendix A is perfect) — asserted by the Lemma 1
//! tests.

use crate::ubc::func::UbcFunc;
use crate::ubc::protocol::{rbc_instance_label, UbcProtocol};
use sbc_uc::exec::SbcWorld;
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{AdvCommand, Leak, World, WorldCore};
use std::collections::HashMap;

/// Records each delivered message as every party's `(Broadcast, M)`
/// output, in id order: a delivery of `F_RBC` or `F_UBC` goes to all of P.
fn output_to_all(core: &mut WorldCore, msgs: impl IntoIterator<Item = Value>) {
    for msg in msgs {
        for i in 0..core.n() {
            let cmd = Command::new("Broadcast", msg.clone());
            core.outputs.push((PartyId(i as u32), cmd));
        }
    }
}

/// The real world: `Π_UBC` over `F_RBC` + `G_clock`.
#[derive(Debug)]
pub struct RealUbcWorld {
    core: WorldCore,
    proto: UbcProtocol,
}

impl RealUbcWorld {
    /// Creates the world for `n` parties from an experiment seed.
    pub fn new(n: usize, seed: &[u8]) -> Self {
        RealUbcWorld {
            core: WorldCore::new(n, seed),
            proto: UbcProtocol::new(n),
        }
    }
}

impl World for RealUbcWorld {
    fn n(&self) -> usize {
        self.core.n()
    }

    fn time(&self) -> u64 {
        self.core.clock.read()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        if cmd.name == "Broadcast" && self.core.is_honest(party) {
            let msg = cmd.value;
            let mut ctx = self.core.ctx();
            self.proto.broadcast(party, msg, &mut ctx);
        }
    }

    fn advance(&mut self, party: PartyId) {
        if !self.core.is_honest(party) {
            return;
        }
        let msgs = self.proto.advance(party, &mut self.core.ctx());
        output_to_all(&mut self.core, msgs);
        self.core.clock.advance_party(party);
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        match cmd {
            AdvCommand::Corrupt(p) => Value::Bool(self.core.corrupt(p)),
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                let sent = self
                    .proto
                    .adv_broadcast(party, cmd.value, &mut self.core.ctx());
                output_to_all(&mut self.core, sent);
                Value::Unit
            }
            AdvCommand::Control { target, cmd } if cmd.name == "Allow" => {
                let allowed = self
                    .proto
                    .adv_allow(&target, cmd.value, &mut self.core.ctx());
                output_to_all(&mut self.core, allowed);
                Value::Unit
            }
            _ => Value::Unit,
        }
    }

    fn drain_outputs(&mut self) -> Vec<(PartyId, Command)> {
        std::mem::take(&mut self.core.outputs)
    }

    fn drain_leaks(&mut self) -> Vec<Leak> {
        std::mem::take(&mut self.core.leaks)
    }

    fn is_corrupted(&self, party: PartyId) -> bool {
        self.core.corr.is_corrupted(party)
    }
}

impl SbcWorld for RealUbcWorld {
    /// Drops `F_RBC` instances opened but not yet delivered. Plain
    /// broadcast has no period notion of its own, so
    /// [`release_round`](SbcWorld::release_round) /
    /// [`period_end`](SbcWorld::period_end) stay `None`.
    fn begin_new_period(&mut self) {
        self.proto.clear_pending();
    }

    fn release_round(&self) -> Option<u64> {
        None
    }

    fn period_end(&self) -> Option<u64> {
        None
    }
}

/// The simulator `S_UBC` from the proof of Lemma 1 (Appendix A).
///
/// It mirrors the per-sender instance counters of `Π_UBC`, maps each
/// functionality tag to the `F_RBC` instance label the real execution would
/// use, and re-emits functionality leakage in real-world shape.
#[derive(Debug, Default)]
pub(crate) struct SimUbc {
    totals: HashMap<PartyId, u64>,
    tag_label: HashMap<Tag, String>,
    label_tag: HashMap<String, Tag>,
}

impl SimUbc {
    /// Creates the simulator.
    pub(crate) fn new() -> Self {
        SimUbc::default()
    }

    fn fresh_label(&mut self, sender: PartyId) -> String {
        let t = self.totals.entry(sender).or_insert(0);
        *t += 1;
        rbc_instance_label(sender, *t)
    }

    /// Translates one `F_UBC` leak into the real-world `F_RBC` leak shape.
    pub(crate) fn translate_leak(&mut self, leak: Leak) -> Leak {
        let items = leak.cmd.value.as_list().unwrap_or(&[]).to_vec();
        match items.len() {
            // (tag, M, P): honest broadcast, substitution, or flush.
            3 => {
                let tag = Tag::from_bytes(items[0].as_bytes().unwrap_or(&[]))
                    .expect("F_UBC leaks well-formed tags");
                let msg = items[1].clone();
                let sender = items[2].clone();
                let label = match self.tag_label.get(&tag) {
                    Some(l) => l.clone(),
                    None => {
                        let sender_id =
                            PartyId(u32::try_from(sender.as_u64().unwrap_or(0)).unwrap_or(0));
                        let l = self.fresh_label(sender_id);
                        self.tag_label.insert(tag, l.clone());
                        self.label_tag.insert(l.clone(), tag);
                        l
                    }
                };
                Leak {
                    source: label.into(),
                    cmd: Command::new("Broadcast", Value::pair(msg, sender)),
                }
            }
            // (M, P): adversarial broadcast through a fresh instance.
            2 => {
                let sender_id = PartyId(u32::try_from(items[1].as_u64().unwrap_or(0)).unwrap_or(0));
                let label = self.fresh_label(sender_id);
                Leak {
                    source: label.into(),
                    cmd: leak.cmd,
                }
            }
            _ => leak,
        }
    }

    /// Resolves a real-world instance label to the functionality tag.
    pub(crate) fn tag_for_label(&self, label: &str) -> Option<Tag> {
        self.label_tag.get(label).copied()
    }
}

/// The ideal world: `F_UBC` + `S_UBC`.
#[derive(Debug)]
pub struct IdealUbcWorld {
    core: WorldCore,
    func: UbcFunc,
    sim: SimUbc,
}

impl IdealUbcWorld {
    /// Creates the world for `n` parties from an experiment seed.
    ///
    /// The functionality's tag stream is forked under the same label as in
    /// the real world so that transcripts align bit-for-bit.
    pub fn new(n: usize, seed: &[u8]) -> Self {
        let mut core = WorldCore::new(n, seed);
        let tag_rng = core.rng.fork(b"tags/F_UBC");
        IdealUbcWorld {
            core,
            func: UbcFunc::new(n, tag_rng),
            sim: SimUbc::new(),
        }
    }

    fn translate_pending_leaks(&mut self) {
        let raw = std::mem::take(&mut self.core.leaks);
        for leak in raw {
            let translated = self.sim.translate_leak(leak);
            self.core.leaks.push(translated);
        }
    }
}

impl World for IdealUbcWorld {
    fn n(&self) -> usize {
        self.core.n()
    }

    fn time(&self) -> u64 {
        self.core.clock.read()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        if cmd.name == "Broadcast" && self.core.is_honest(party) {
            let msg = cmd.value;
            let mut ctx = self.core.ctx();
            self.func.broadcast_honest(party, msg, &mut ctx);
            self.translate_pending_leaks();
        }
    }

    fn advance(&mut self, party: PartyId) {
        if !self.core.is_honest(party) {
            return;
        }
        let msgs = self.func.take_flush(party, &mut self.core.ctx());
        self.translate_pending_leaks();
        output_to_all(&mut self.core, msgs);
        self.core.clock.advance_party(party);
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        match cmd {
            AdvCommand::Corrupt(p) => Value::Bool(self.core.corrupt(p)),
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                let sent = self
                    .func
                    .broadcast_corrupted(party, cmd.value, &mut self.core.ctx());
                self.translate_pending_leaks();
                output_to_all(&mut self.core, sent);
                Value::Unit
            }
            AdvCommand::Control { target, cmd } if cmd.name == "Allow" => {
                if let Some(tag) = self.sim.tag_for_label(&target) {
                    let allowed = self.func.allow(tag, cmd.value, &mut self.core.ctx());
                    self.translate_pending_leaks();
                    output_to_all(&mut self.core, allowed);
                }
                Value::Unit
            }
            _ => Value::Unit,
        }
    }

    fn drain_outputs(&mut self) -> Vec<(PartyId, Command)> {
        std::mem::take(&mut self.core.outputs)
    }

    fn drain_leaks(&mut self) -> Vec<Leak> {
        std::mem::take(&mut self.core.leaks)
    }

    fn is_corrupted(&self, party: PartyId) -> bool {
        self.core.corr.is_corrupted(party)
    }
}

impl SbcWorld for IdealUbcWorld {
    /// Drops queued-but-undelivered `F_UBC` messages — the functionality
    /// mirror of [`RealUbcWorld::begin_new_period`].
    fn begin_new_period(&mut self) {
        self.func.clear_pending();
    }

    fn release_round(&self) -> Option<u64> {
        None
    }

    fn period_end(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::exec::CompareLevel;
    use sbc_uc::world::{run_env, EnvDriver};

    fn both_worlds(n: usize, seed: &[u8]) -> (RealUbcWorld, IdealUbcWorld) {
        (RealUbcWorld::new(n, seed), IdealUbcWorld::new(n, seed))
    }

    fn assert_indistinguishable<F>(n: usize, seed: &[u8], script: F)
    where
        F: Fn(&mut EnvDriver<'_>) + Copy,
    {
        let (real, ideal) = both_worlds(n, seed);
        // Lemma 1's simulation is perfect: byte-identical transcripts.
        sbc_uc::exec::assert_indistinguishable(real, ideal, CompareLevel::Exact, script);
    }

    #[test]
    fn lemma1_multi_sender_multi_message() {
        assert_indistinguishable(4, b"l1-b", |env| {
            env.input(PartyId(0), Command::new("Broadcast", Value::U64(1)));
            env.input(PartyId(2), Command::new("Broadcast", Value::U64(2)));
            env.input(PartyId(0), Command::new("Broadcast", Value::U64(3)));
            env.advance_all();
            env.input(PartyId(1), Command::new("Broadcast", Value::U64(4)));
            env.advance_all();
        });
    }

    #[test]
    fn lemma1_adaptive_corruption_substitution() {
        // Corrupt the sender after seeing its message (non-atomic model),
        // substitute, and deliver.
        assert_indistinguishable(3, b"l1-c", |env| {
            env.input(
                PartyId(1),
                Command::new("Broadcast", Value::bytes(b"original")),
            );
            env.adversary(AdvCommand::Corrupt(PartyId(1)));
            env.adversary(AdvCommand::Control {
                target: "F_RBC[P1,1]".into(),
                cmd: Command::new("Allow", Value::bytes(b"substituted")),
            });
            env.advance_all();
        });
    }

    #[test]
    fn lemma1_holds_across_period_turnover() {
        use sbc_uc::exec::DualRun;
        let (real, ideal) = both_worlds(3, b"l1-epochs");
        let mut dual = DualRun::new(real, ideal, CompareLevel::Exact);
        // Epoch 0: a delivered broadcast plus one left undelivered at the
        // boundary — the turnover must drop it in both worlds.
        dual.submit(PartyId(0), b"delivered");
        dual.advance_all();
        dual.submit(PartyId(1), b"stale");
        dual.finish_epoch().unwrap_or_else(|d| panic!("{d}"));
        // Epoch 1: fresh traffic still aligns byte-for-byte.
        dual.submit(PartyId(2), b"fresh");
        dual.idle_rounds(2);
        dual.finish_epoch().unwrap_or_else(|d| panic!("{d}"));
        let (tr, _) = dual.into_transcripts();
        let delivered: Vec<_> = tr.outputs();
        assert_eq!(delivered.len(), 6, "2 broadcasts × 3 parties");
        assert!(delivered
            .iter()
            .all(|(_, _, cmd)| cmd.value != Value::bytes(b"stale")));
    }

    #[test]
    fn turnover_after_adversarial_broadcast_drops_the_right_instance() {
        // Regression: an adversarial broadcast bumps `total_P` without
        // entering the pending set. The turnover must drop the stale
        // honest instance (not the delivered adversarial one), so an
        // `Allow` addressed to the dead period's instance is a no-op in
        // both worlds.
        use sbc_uc::exec::DualRun;
        let (real, ideal) = both_worlds(3, b"l1-adv-turnover");
        let mut dual = DualRun::new(real, ideal, CompareLevel::Exact);
        dual.submit(PartyId(0), b"stale-honest");
        dual.corrupt(PartyId(0)); // pending, never delivered
        dual.adversary(AdvCommand::SendAs {
            party: PartyId(0),
            cmd: Command::new("Broadcast", Value::bytes(b"adversarial")),
        });
        dual.finish_epoch().unwrap_or_else(|d| panic!("{d}"));
        // The dead period's instance label must be gone in the real world
        // exactly as F_UBC's pending entry is gone in the ideal one.
        dual.adversary(AdvCommand::Control {
            target: "F_RBC[P0,1]".into(),
            cmd: Command::new("Allow", Value::bytes(b"necromancy")),
        });
        dual.idle_rounds(2);
        dual.check().unwrap_or_else(|d| panic!("{d}"));
        let (tr, _) = dual.into_transcripts();
        assert_eq!(tr.outputs().len(), 3, "only the adversarial broadcast");
        assert!(tr
            .outputs()
            .iter()
            .all(|(_, _, cmd)| cmd.value == Value::bytes(b"adversarial")));
    }

    #[test]
    fn substituted_message_delivered_to_all() {
        let (mut real, _) = both_worlds(3, b"deliver");
        let t = run_env(&mut real, |env| {
            env.input(PartyId(1), Command::new("Broadcast", Value::bytes(b"m")));
            env.adversary(AdvCommand::Corrupt(PartyId(1)));
            env.adversary(AdvCommand::Control {
                target: "F_RBC[P1,1]".into(),
                cmd: Command::new("Allow", Value::bytes(b"evil")),
            });
            env.advance_all();
        });
        let outs = t.outputs();
        assert_eq!(outs.len(), 3);
        for (_, _, cmd) in outs {
            assert_eq!(cmd.value, Value::bytes(b"evil"));
        }
    }

    #[test]
    fn unsubstituted_corrupted_message_stays_pending() {
        // Corrupted sender whose message the adversary neither allows nor
        // drops: nothing is delivered (unfair broadcast has no delivery
        // guarantee for corrupted senders).
        let (mut real, mut ideal) = both_worlds(3, b"pending");
        let script = |env: &mut EnvDriver<'_>| {
            env.input(PartyId(1), Command::new("Broadcast", Value::bytes(b"m")));
            env.adversary(AdvCommand::Corrupt(PartyId(1)));
            env.idle_rounds(3);
        };
        let t_real = run_env(&mut real, script);
        let t_ideal = run_env(&mut ideal, script);
        assert_eq!(t_real.digest(), t_ideal.digest());
        assert!(t_real.outputs().is_empty());
    }
}
