//! Real and ideal worlds for fair broadcast, and the Lemma 2 simulator.
//!
//! * [`RealFbcWorld`] — parties run `Π_FBC` (Fig. 11) over the ideal
//!   `F_UBC`, the wrapped oracle `W_q(F*_RO)`, the programmable `F_RO` and
//!   `G_clock` — exactly the hybrid model of Lemma 2.
//! * [`IdealFbcWorld`] — dummy parties talk to `F_FBC(∆=2, α=2)`; the
//!   simulator [`SimFbc`] (Appendix B) runs `F_UBC` itself and broadcasts
//!   into it what the honest parties would: time-lock ciphertexts of
//!   random values, with its α-advantage (`Output_Request` at the broadcast
//!   round itself) used to learn each message just in time to equivocate
//!   the random oracle. It solves adversarial ciphertexts itself to extract
//!   the values it feeds back to the functionality.
//!
//! Corrupted parties follow the protocol by default (matching the
//! functionality's guaranteed delivery of requested broadcasts); the
//! adversary deviates through explicit commands: `Substitute` (pre-lock
//! message replacement — Fig. 10's `Allow`), `SendAs` (ciphertext
//! injection), `W_q`/`F_RO` queries (its own hashing budget).

use crate::fbc::func::{FbcFunc, FbcRecord};
use crate::fbc::protocol::{
    decode_masked, encrypt_with_randomness, fbc_wire, parse_fbc_wire, FbcParty, FBC_DIFFICULTY,
};
use crate::ubc::func::UbcFunc;
use sbc_primitives::astrolabous::{ast_solve_and_dec, sample_chain_randomness};
use sbc_primitives::drbg::Drbg;
use sbc_primitives::hashchain::Element;
use sbc_uc::exec::SbcWorld;
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::ro::{Caller, RandomOracle};
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{AdvCommand, Leak, World, WorldCore};
use sbc_uc::wrapper::{QueryWrapper, WrapperClient};

/// The fair-broadcast delay realized by `Π_FBC`.
pub const FBC_DELTA: u64 = 2;
/// The simulator advantage realized by `Π_FBC`.
pub const FBC_ALPHA: u64 = 2;

fn fork_streams(core: &mut WorldCore) -> (Drbg, Drbg, Drbg, Drbg, Vec<Drbg>) {
    // Both worlds fork the same labels in the same order so every stream
    // matches bit-for-bit across real and ideal executions.
    let ro_star = core.rng.fork(b"ro/star");
    let ro = core.rng.fork(b"ro/fro");
    let ubc_tags = core.rng.fork(b"tags/F_UBC");
    let fbc_tags = core.rng.fork(b"tags/F_FBC");
    let parties = (0..core.n())
        .map(|i| core.rng.fork(format!("party/{i}").as_bytes()))
        .collect();
    (ro_star, ro, ubc_tags, fbc_tags, parties)
}

fn is_last_honest_advance(core: &WorldCore, party: PartyId) -> bool {
    core.clock.waiting_on() == [party]
}

fn shared_adversary_control(
    target: &str,
    cmd: &Command,
    wrapper: &mut QueryWrapper,
    ro_star: &mut RandomOracle,
    ro: &mut RandomOracle,
    now: u64,
) -> Option<Value> {
    match (target, cmd.name.as_str()) {
        ("F_RO", "Query") => {
            let x = cmd.value.as_bytes()?;
            Some(Value::bytes(ro.query(Caller::Adversary, x)))
        }
        ("W_q", "Evaluate") => {
            let batch: Vec<Vec<u8>> = cmd
                .value
                .as_list()?
                .iter()
                .filter_map(|v| v.as_bytes().map(|b| b.to_vec()))
                .collect();
            match wrapper.evaluate(ro_star, now, WrapperClient::Corrupted, &batch) {
                Ok(resp) => Some(Value::list(resp.iter().map(Value::bytes))),
                Err(_) => Some(Value::str("exhausted")),
            }
        }
        _ => None,
    }
}

/// The real world: `Π_FBC` over `F_UBC` + `W_q(F*_RO)` + `F_RO` + `G_clock`.
#[derive(Debug)]
pub struct RealFbcWorld {
    core: WorldCore,
    parties: Vec<FbcParty>,
    ubc: UbcFunc,
    wrapper: QueryWrapper,
    ro_star: RandomOracle,
    ro: RandomOracle,
}

impl RealFbcWorld {
    /// Creates the world (`q` wrapper batches per round).
    pub fn new(n: usize, q: u32, seed: &[u8]) -> Self {
        let mut core = WorldCore::new(n, seed);
        let (ro_star_rng, ro_rng, ubc_tags, _fbc_tags, party_rngs) = fork_streams(&mut core);
        let parties = party_rngs
            .into_iter()
            .enumerate()
            .map(|(i, rng)| FbcParty::new(PartyId(i as u32), q, rng))
            .collect();
        RealFbcWorld {
            core,
            parties,
            ubc: UbcFunc::new(n, ubc_tags),
            wrapper: QueryWrapper::new(q),
            ro_star: RandomOracle::new(ro_star_rng),
            ro: RandomOracle::new(ro_rng),
        }
    }

    /// Hands each message `F_UBC` delivered to every party, in id order.
    fn distribute(&mut self, msgs: impl IntoIterator<Item = Value>) {
        let now = self.core.clock.read();
        for msg in msgs {
            for p in &mut self.parties {
                p.on_ubc_deliver(&msg, now);
            }
        }
    }

    fn run_corrupted_steps(&mut self) {
        let now = self.core.clock.read();
        let corrupted: Vec<PartyId> = self.core.corr.corrupted().collect();
        for c in corrupted {
            let bs = self.parties[c.index()].corrupted_step(
                now,
                &mut self.wrapper,
                &mut self.ro_star,
                &mut self.ro,
            );
            for b in bs {
                let sent = self.ubc.broadcast_corrupted(c, b, &mut self.core.ctx());
                self.distribute(sent);
            }
        }
    }
}

impl World for RealFbcWorld {
    fn n(&self) -> usize {
        self.core.n()
    }

    fn time(&self) -> u64 {
        self.core.clock.read()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        if cmd.name == "Broadcast" && self.core.is_honest(party) {
            self.parties[party.index()].on_input(cmd.value);
        }
    }

    fn advance(&mut self, party: PartyId) {
        if !self.core.is_honest(party) {
            return;
        }
        if is_last_honest_advance(&self.core, party) {
            self.run_corrupted_steps();
        }
        let now = self.core.clock.read();
        let res = self.parties[party.index()].advance_step(
            now,
            &mut self.wrapper,
            &mut self.ro_star,
            &mut self.ro,
        );
        for b in res.broadcasts {
            let mut ctx = self.core.ctx();
            self.ubc.broadcast_honest(party, b, &mut ctx);
        }
        for m in res.outputs {
            self.core
                .outputs
                .push((party, Command::new("Broadcast", m)));
        }
        let flushed = self.ubc.take_flush(party, &mut self.core.ctx());
        self.distribute(flushed);
        self.core.clock.advance_party(party);
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        let now = self.core.clock.read();
        match cmd {
            AdvCommand::Corrupt(p) => {
                if !self.core.corrupt(p) {
                    return Value::Bool(false);
                }
                Value::list(self.parties[p.index()].pending().to_vec())
            }
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                let sent = self
                    .ubc
                    .broadcast_corrupted(party, cmd.value, &mut self.core.ctx());
                self.distribute(sent);
                Value::Unit
            }
            AdvCommand::Control { target, cmd } => {
                if let Some(resp) = shared_adversary_control(
                    &target,
                    &cmd,
                    &mut self.wrapper,
                    &mut self.ro_star,
                    &mut self.ro,
                    now,
                ) {
                    return resp;
                }
                if cmd.name == "Substitute" {
                    if let Some((p, idx, msg)) = parse_substitute(&target, &cmd.value) {
                        if self.core.corr.is_corrupted(p) {
                            return Value::Bool(self.parties[p.index()].substitute(idx, msg));
                        }
                    }
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

impl SbcWorld for RealFbcWorld {
    /// Drops queued and in-flight broadcasts at every party plus
    /// undelivered `F_UBC` wires. Fair broadcast has no period notion of
    /// its own, so [`release_round`](SbcWorld::release_round) /
    /// [`period_end`](SbcWorld::period_end) stay `None`.
    fn begin_new_period(&mut self) {
        for p in &mut self.parties {
            p.reset_period();
        }
        self.ubc.clear_pending();
    }

    fn release_round(&self) -> Option<u64> {
        None
    }

    fn period_end(&self) -> Option<u64> {
        None
    }
}

fn parse_substitute(target: &str, value: &Value) -> Option<(PartyId, usize, Value)> {
    let p = target.strip_prefix('P')?.parse().ok()?;
    let items = value.as_list()?;
    if items.len() != 2 {
        return None;
    }
    Some((PartyId(p), items[0].as_u64()? as usize, items[1].clone()))
}

/// One simulated pending broadcast: the functionality tag plus any
/// adversarial substitution the simulator has already forwarded.
#[derive(Clone, Debug)]
struct SimEntry {
    tag: Tag,
    override_msg: Option<Value>,
}

/// The simulator `S_FBC` from the proof of Lemma 2 (Appendix B).
///
/// It **runs** `F_UBC` — on the stream the real world's `F_UBC` draws its
/// tags from, with the calls [`RealFbcWorld`] makes and nobody to deliver
/// to — so the adversary's view of the broadcast layer comes out of the
/// functionality. It **simulates** the honest senders (no [`FbcParty`]: a
/// party bug must not cancel across the two worlds): their queues and
/// chain randomness, with each `y` computed from the message
/// `Output_Request` reveals.
#[derive(Debug)]
pub struct SimFbc {
    q: u32,
    party_rngs: Vec<Drbg>,
    ubc: UbcFunc,
    queues: Vec<Vec<SimEntry>>,
    corrupted_last_step: Vec<Option<u64>>,
    would_abort: bool,
}

impl SimFbc {
    fn new(q: u32, party_rngs: Vec<Drbg>, ubc: UbcFunc) -> Self {
        let n = party_rngs.len();
        SimFbc {
            q,
            party_rngs,
            ubc,
            queues: vec![Vec::new(); n],
            corrupted_last_step: vec![None; n],
            would_abort: false,
        }
    }

    /// Whether a paper-abort event (adversary pre-querying a hidden point)
    /// occurred. Happens with probability 2^{-λ} against real adversaries;
    /// asserted `false` by the experiments.
    pub fn would_abort(&self) -> bool {
        self.would_abort
    }

    /// Forgets the queues of an ended period. The party randomness streams
    /// carry over, and the sticky abort flag survives.
    fn begin_new_period(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
    }

    fn on_broadcast_leak(&mut self, tag: Tag, sender: PartyId) {
        self.queues[sender.index()].push(SimEntry {
            tag,
            override_msg: None,
        });
    }

    /// Simulates an honest party's round step: fabricate `(c, y)` per queued
    /// tag, learn the message via `Output_Request` (the α-advantage),
    /// equivocate `F_RO`, broadcast the wires into `F_UBC` (step 4e) and
    /// forward `Advance_Clock` to it (step 9).
    fn honest_advance(
        &mut self,
        party: PartyId,
        ffbc: &mut FbcFunc,
        ro_star: &mut RandomOracle,
        ro: &mut RandomOracle,
        core: &mut WorldCore,
    ) {
        let entries = std::mem::take(&mut self.queues[party.index()]);
        // Protocol step 1: all chain randomness first.
        let rand_sets: Vec<Vec<Element>> = entries
            .iter()
            .map(|_| {
                sample_chain_randomness(FBC_DIFFICULTY, self.q, &mut self.party_rngs[party.index()])
            })
            .collect();
        for (entry, rs) in entries.iter().zip(rand_sets.iter()) {
            let hashes: Vec<Element> = rs
                .iter()
                .map(|r| ro_star.query(Caller::Simulator, r))
                .collect();
            let (rho, ct) =
                encrypt_with_randomness(&mut self.party_rngs[party.index()], rs, &hashes);
            let rec: FbcRecord = ffbc
                .output_request(entry.tag, &mut core.ctx())
                .expect("environment must deliver inputs within the sender's round");
            if ro.adversary_queried(&rho) {
                self.would_abort = true;
            }
            let eta = ro.query(Caller::Simulator, &rho);
            let y = xor_mask_msg(&eta, &rec.msg);
            self.ubc
                .broadcast_honest(party, fbc_wire(&ct, &y), &mut core.ctx());
        }
        self.ubc.take_flush(party, &mut core.ctx());
    }

    /// A corrupted party's semi-honest step on the shared budget.
    #[allow(clippy::too_many_arguments)]
    fn corrupted_step(
        &mut self,
        party: PartyId,
        now: u64,
        ffbc: &mut FbcFunc,
        wrapper: &mut QueryWrapper,
        ro_star: &mut RandomOracle,
        ro: &mut RandomOracle,
        core: &mut WorldCore,
    ) {
        if self.corrupted_last_step[party.index()] == Some(now) {
            return;
        }
        let entries = std::mem::take(&mut self.queues[party.index()]);
        if entries.is_empty() {
            return;
        }
        self.corrupted_last_step[party.index()] = Some(now);
        let rand_sets: Vec<Vec<Element>> = entries
            .iter()
            .map(|_| {
                sample_chain_randomness(FBC_DIFFICULTY, self.q, &mut self.party_rngs[party.index()])
            })
            .collect();
        let batch: Vec<Vec<u8>> = rand_sets
            .iter()
            .flat_map(|rs| rs.iter().map(|r| r.to_vec()))
            .collect();
        let Ok(flat) = wrapper.evaluate(ro_star, now, WrapperClient::Corrupted, &batch) else {
            return;
        };
        // Recover the original messages of non-substituted records.
        let pending = ffbc.corruption_request(&core.ctx());
        let mut off = 0usize;
        for (entry, rs) in entries.iter().zip(rand_sets.iter()) {
            let hashes = &flat[off..off + rs.len()];
            off += rs.len();
            let (rho, ct) =
                encrypt_with_randomness(&mut self.party_rngs[party.index()], rs, hashes);
            let msg = entry.override_msg.clone().or_else(|| {
                pending
                    .iter()
                    .find(|r| r.tag == entry.tag)
                    .map(|r| r.msg.clone())
            });
            let Some(msg) = msg else { continue };
            let eta = ro.query(Caller::Simulator, &rho);
            let y = xor_mask_msg(&eta, &msg);
            self.ubc
                .broadcast_corrupted(party, fbc_wire(&ct, &y), &mut core.ctx());
        }
    }

    /// Handles an adversarial ciphertext injection: broadcast it as the
    /// corrupted sender, then solve, extract, and feed the message to the
    /// functionality on the sender's behalf.
    fn on_injection(
        &mut self,
        party: PartyId,
        wire: Value,
        ffbc: &mut FbcFunc,
        ro_star: &mut RandomOracle,
        ro: &mut RandomOracle,
        core: &mut WorldCore,
    ) {
        let parsed = parse_fbc_wire(&wire, self.q);
        self.ubc.broadcast_corrupted(party, wire, &mut core.ctx());
        let Some((ct, y)) = parsed else {
            return; // malformed: real honest parties ignore it
        };
        let Ok(rho) = ast_solve_and_dec(|x| ro_star.query(Caller::Simulator, x), &ct) else {
            return; // fails authentication: ignored at decryption time too
        };
        let eta = ro.query(Caller::Simulator, &rho);
        let msg = decode_masked(&eta, &y);
        // F_FBC's (tag, sender) leak goes to S only.
        ffbc.broadcast(party, msg, &mut core.ctx_leaking_to(&mut Vec::new()));
    }
}

fn xor_mask_msg(eta: &[u8; 32], msg: &Value) -> Vec<u8> {
    sbc_primitives::astrolabous::xor_mask(eta, &msg.encode())
}

/// The ideal world: `F_FBC(2, 2)` + `S_FBC`.
#[derive(Debug)]
pub struct IdealFbcWorld {
    core: WorldCore,
    ffbc: FbcFunc,
    sim: SimFbc,
    wrapper: QueryWrapper,
    ro_star: RandomOracle,
    ro: RandomOracle,
}

impl IdealFbcWorld {
    /// Creates the world (`q` wrapper batches per round).
    pub fn new(n: usize, q: u32, seed: &[u8]) -> Self {
        let mut core = WorldCore::new(n, seed);
        let (ro_star_rng, ro_rng, ubc_tags, fbc_tags, party_rngs) = fork_streams(&mut core);
        IdealFbcWorld {
            core,
            ffbc: FbcFunc::new(n, FBC_DELTA, FBC_ALPHA, fbc_tags),
            sim: SimFbc::new(q, party_rngs, UbcFunc::new(n, ubc_tags)),
            wrapper: QueryWrapper::new(q),
            ro_star: RandomOracle::new(ro_star_rng),
            ro: RandomOracle::new(ro_rng),
        }
    }

    fn run_corrupted_steps(&mut self) {
        let now = self.core.clock.read();
        let corrupted: Vec<PartyId> = self.core.corr.corrupted().collect();
        for c in corrupted {
            self.sim.corrupted_step(
                c,
                now,
                &mut self.ffbc,
                &mut self.wrapper,
                &mut self.ro_star,
                &mut self.ro,
                &mut self.core,
            );
        }
    }
}

impl World for IdealFbcWorld {
    fn n(&self) -> usize {
        self.core.n()
    }

    fn time(&self) -> u64 {
        self.core.clock.read()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        if cmd.name == "Broadcast" && self.core.is_honest(party) {
            // F_FBC's (tag, sender) leak is addressed to the simulator.
            let mut to_sim = Vec::new();
            let mut ctx = self.core.ctx_leaking_to(&mut to_sim);
            let tag = self.ffbc.broadcast(party, cmd.value, &mut ctx);
            self.sim.on_broadcast_leak(tag, party);
        }
    }

    fn advance(&mut self, party: PartyId) {
        if !self.core.is_honest(party) {
            return;
        }
        if is_last_honest_advance(&self.core, party) {
            self.run_corrupted_steps();
        }
        self.sim.honest_advance(
            party,
            &mut self.ffbc,
            &mut self.ro_star,
            &mut self.ro,
            &mut self.core,
        );
        let msgs = self.ffbc.advance_clock(party, &mut self.core.ctx());
        for msg in msgs {
            let cmd = Command::new("Broadcast", msg);
            self.core.outputs.push((party, cmd));
        }
        self.core.clock.advance_party(party);
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        let now = self.core.clock.read();
        match cmd {
            AdvCommand::Corrupt(p) => {
                if !self.core.corrupt(p) {
                    return Value::Bool(false);
                }
                // Reveal the party's pending messages (Corruption_Request).
                let pending = {
                    let ctx = self.core.ctx();
                    self.ffbc.corruption_request(&ctx)
                };
                let msgs: Vec<Value> = self.sim.queues[p.index()]
                    .iter()
                    .filter_map(|e| {
                        e.override_msg.clone().or_else(|| {
                            pending
                                .iter()
                                .find(|r| r.tag == e.tag)
                                .map(|r| r.msg.clone())
                        })
                    })
                    .collect();
                Value::list(msgs)
            }
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                if !self.core.corr.is_corrupted(party) {
                    return Value::Unit;
                }
                self.sim.on_injection(
                    party,
                    cmd.value,
                    &mut self.ffbc,
                    &mut self.ro_star,
                    &mut self.ro,
                    &mut self.core,
                );
                Value::Unit
            }
            AdvCommand::Control { target, cmd } => {
                if let Some(resp) = shared_adversary_control(
                    &target,
                    &cmd,
                    &mut self.wrapper,
                    &mut self.ro_star,
                    &mut self.ro,
                    now,
                ) {
                    return resp;
                }
                if cmd.name == "Substitute" {
                    if let Some((p, idx, msg)) = parse_substitute(&target, &cmd.value) {
                        if self.core.corr.is_corrupted(p) {
                            if idx >= self.sim.queues[p.index()].len() {
                                return Value::Bool(false);
                            }
                            let tag = self.sim.queues[p.index()][idx].tag;
                            let ok = {
                                let mut ctx = self.core.ctx();
                                self.ffbc.allow(tag, msg.clone(), p, &mut ctx)
                            };
                            if ok {
                                self.sim.queues[p.index()][idx].override_msg = Some(msg);
                            }
                            return Value::Bool(ok);
                        }
                    }
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

impl SbcWorld for IdealFbcWorld {
    /// The functionality/simulator mirror of
    /// [`RealFbcWorld::begin_new_period`]: `F_FBC` forgets undelivered
    /// records, the simulator its shadow queues. The sticky abort flag
    /// survives.
    fn begin_new_period(&mut self) {
        self.ffbc.begin_new_period();
        self.sim.begin_new_period();
    }

    fn release_round(&self) -> Option<u64> {
        None
    }

    fn period_end(&self) -> Option<u64> {
        None
    }

    fn would_abort(&self) -> bool {
        self.sim.would_abort()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::exec::CompareLevel;
    use sbc_uc::world::{run_env, EnvDriver};

    const Q: u32 = 3;

    fn assert_indistinguishable<F>(n: usize, seed: &[u8], script: F)
    where
        F: Fn(&mut EnvDriver<'_>) + Copy,
    {
        // Lemma 2's simulation is perfect (modulo the abort event, which
        // the harness checks): byte-identical transcripts.
        sbc_uc::exec::assert_indistinguishable(
            RealFbcWorld::new(n, Q, seed),
            IdealFbcWorld::new(n, Q, seed),
            CompareLevel::Exact,
            script,
        );
    }

    #[test]
    fn lemma2_single_honest_broadcast() {
        assert_indistinguishable(3, b"l2-a", |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"fair hello")),
            );
            env.idle_rounds(4);
        });
    }

    #[test]
    fn lemma2_multi_sender_concurrent() {
        assert_indistinguishable(3, b"l2-b", |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"alpha")),
            );
            env.input(PartyId(1), Command::new("Broadcast", Value::bytes(b"beta")));
            env.advance_all();
            env.input(
                PartyId(2),
                Command::new("Broadcast", Value::bytes(b"gamma")),
            );
            env.idle_rounds(4);
        });
    }

    #[test]
    fn lemma2_substitution_before_lock() {
        // Corrupt the sender right after input (before her round completes)
        // and substitute the pending message — the one window Fig. 10
        // allows.
        assert_indistinguishable(3, b"l2-c", |env| {
            env.input(
                PartyId(1),
                Command::new("Broadcast", Value::bytes(b"original")),
            );
            env.adversary(AdvCommand::Corrupt(PartyId(1)));
            env.adversary(AdvCommand::Control {
                target: "P1".into(),
                cmd: Command::new(
                    "Substitute",
                    Value::pair(Value::U64(0), Value::bytes(b"substituted")),
                ),
            });
            env.idle_rounds(4);
        });
    }

    #[test]
    fn lemma2_adversarial_injection() {
        assert_indistinguishable(3, b"l2-d", |env| {
            env.adversary(AdvCommand::Corrupt(PartyId(2)));
            // The adversary crafts a valid ciphertext itself (it can run the
            // encryption algorithm): easiest via replaying what an honest
            // run would produce — here it simply injects garbage plus a
            // well-formed-but-unauthentic wire; both are ignored uniformly.
            env.adversary(AdvCommand::SendAs {
                party: PartyId(2),
                cmd: Command::new("Broadcast", Value::bytes(b"not a wire")),
            });
            env.idle_rounds(4);
        });
    }

    #[test]
    fn lemma2_replay_injection() {
        // The adversary replays an honest (c, y) it observed: both worlds
        // deliver the message twice.
        let seed = b"l2-e";
        let script = |env: &mut EnvDriver<'_>| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"replayable")),
            );
            env.adversary(AdvCommand::Corrupt(PartyId(2)));
            env.advance_all();
            // Leak index 0 is the UBC broadcast leak containing the wire.
            env.idle_rounds(3);
        };
        let mut real = RealFbcWorld::new(3, Q, seed);
        let mut ideal = IdealFbcWorld::new(3, Q, seed);
        let t_real = run_env(&mut real, script);
        let t_ideal = run_env(&mut ideal, script);
        assert_eq!(t_real.digest(), t_ideal.digest());
    }

    #[test]
    fn lemma2_holds_across_period_turnover() {
        use sbc_uc::exec::DualRun;
        let mut dual = DualRun::new(
            RealFbcWorld::new(3, Q, b"l2-epochs"),
            IdealFbcWorld::new(3, Q, b"l2-epochs"),
            CompareLevel::Exact,
        );
        // Epoch 0: a fully delivered fair broadcast.
        dual.submit(PartyId(0), b"first-period");
        dual.idle_rounds(4);
        dual.finish_epoch().unwrap_or_else(|d| panic!("{d}"));
        // Epoch 1: a broadcast queued right at the boundary of epoch 0
        // would be stale; here fresh traffic after the turnover still
        // aligns byte-for-byte (randomness streams carried over equally).
        dual.submit(PartyId(1), b"second-period");
        dual.idle_rounds(4);
        dual.finish_epoch().unwrap_or_else(|d| panic!("{d}"));
        let (tr, _) = dual.into_transcripts();
        assert_eq!(tr.outputs().len(), 6, "2 broadcasts × 3 parties");
    }

    #[test]
    fn turnover_drops_in_flight_fair_broadcasts() {
        use sbc_uc::exec::DualRun;
        let mut dual = DualRun::new(
            RealFbcWorld::new(2, Q, b"l2-stale"),
            IdealFbcWorld::new(2, Q, b"l2-stale"),
            CompareLevel::Exact,
        );
        // Ciphertext goes out (1 round) but delivery needs ∆ = 2: turning
        // over mid-flight must drop it identically in both worlds.
        dual.submit(PartyId(0), b"mid-flight");
        dual.advance_all();
        dual.finish_epoch().unwrap_or_else(|d| panic!("{d}"));
        dual.idle_rounds(3);
        dual.check().unwrap_or_else(|d| panic!("{d}"));
        let (tr, _) = dual.into_transcripts();
        assert!(tr.outputs().is_empty(), "stale broadcast never delivered");
    }

    #[test]
    fn delivery_at_exactly_delta() {
        let mut real = RealFbcWorld::new(2, Q, b"delta");
        let t = run_env(&mut real, |env| {
            env.input(PartyId(0), Command::new("Broadcast", Value::bytes(b"m")));
            env.idle_rounds(4);
        });
        let outs = t.outputs();
        assert_eq!(outs.len(), 2, "both parties deliver");
        for (round, _, cmd) in outs {
            assert_eq!(
                round, FBC_DELTA,
                "delivered exactly ∆ = 2 rounds after request"
            );
            assert_eq!(cmd.value, Value::bytes(b"m"));
        }
    }

    #[test]
    fn fairness_post_broadcast_corruption_cannot_change_message() {
        // The adversary corrupts the sender AFTER the ciphertext went out
        // and tries to substitute: too late in both worlds.
        assert_indistinguishable(3, b"l2-f", |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"locked-in")),
            );
            env.advance_all(); // ciphertext broadcast; message locked
            env.adversary(AdvCommand::Corrupt(PartyId(0)));
            env.adversary(AdvCommand::Control {
                target: "P0".into(),
                cmd: Command::new(
                    "Substitute",
                    Value::pair(Value::U64(0), Value::bytes(b"too-late")),
                ),
            });
            env.idle_rounds(3);
        });
        // And the delivered value is the original:
        let mut real = RealFbcWorld::new(3, Q, b"l2-f2");
        let t = run_env(&mut real, |env| {
            env.input(
                PartyId(0),
                Command::new("Broadcast", Value::bytes(b"locked-in")),
            );
            env.advance_all();
            env.adversary(AdvCommand::Corrupt(PartyId(0)));
            env.adversary(AdvCommand::Control {
                target: "P0".into(),
                cmd: Command::new(
                    "Substitute",
                    Value::pair(Value::U64(0), Value::bytes(b"too-late")),
                ),
            });
            env.idle_rounds(3);
        });
        for (_, _, cmd) in t.outputs() {
            assert_eq!(cmd.value, Value::bytes(b"locked-in"));
        }
    }

    #[test]
    fn adversary_wrapper_budget_shared_and_metered() {
        let mut real = RealFbcWorld::new(2, Q, b"budget");
        run_env(&mut real, |env| {
            env.adversary(AdvCommand::Corrupt(PartyId(1)));
            for i in 0..Q {
                let resp = env.adversary(AdvCommand::Control {
                    target: "W_q".into(),
                    cmd: Command::new("Evaluate", Value::list([Value::bytes([i as u8])])),
                });
                assert!(matches!(resp, Value::List(_)), "within budget");
            }
            let resp = env.adversary(AdvCommand::Control {
                target: "W_q".into(),
                cmd: Command::new("Evaluate", Value::list([Value::bytes(b"over")])),
            });
            assert_eq!(resp, Value::str("exhausted"));
        });
    }

    /// A party id outside `0..n` is nobody in all four worlds of this
    /// crate: its inputs and clock steps are dropped and it cannot be
    /// corrupted — no panic, no leak, no output, no clock mark.
    #[test]
    fn out_of_range_party_is_ignored_by_every_world() {
        use crate::ubc::worlds::{IdealUbcWorld, RealUbcWorld};
        let worlds: [(&str, Box<dyn World>); 4] = [
            ("real FBC", Box::new(RealFbcWorld::new(3, Q, b"stray"))),
            ("ideal FBC", Box::new(IdealFbcWorld::new(3, Q, b"stray"))),
            ("real UBC", Box::new(RealUbcWorld::new(3, b"stray"))),
            ("ideal UBC", Box::new(IdealUbcWorld::new(3, b"stray"))),
        ];
        let stray = PartyId(7);
        for (name, mut w) in worlds {
            w.input(stray, Command::new("Broadcast", Value::bytes(b"x")));
            w.advance(stray);
            let refused = w.adversary(AdvCommand::Corrupt(stray));
            assert_eq!(refused, Value::Bool(false), "{name}");
            assert!(!w.is_corrupted(stray), "{name}");
            assert!(w.drain_leaks().is_empty(), "{name}: leaks");
            assert!(w.drain_outputs().is_empty(), "{name}: outputs");
            assert_eq!(w.time(), 0, "{name}: clock");
            // The three real parties still make a round of their own.
            (0..3).for_each(|p| w.advance(PartyId(p)));
            assert_eq!(w.time(), 1, "{name}: clock after one honest round");
        }
    }
}
