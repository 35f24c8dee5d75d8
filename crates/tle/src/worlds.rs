//! Real and ideal worlds for time-lock encryption (Theorem 1).
//!
//! * [`RealTleWorld`] — parties run `Π_TLE` (Fig. 12) over the ideal
//!   `F_FBC(∆, α)`, `W_q(F*_RO)`, `F_RO` and `G_clock`.
//! * [`IdealTleWorld`] — dummy parties talk to `F_TLE(leak, delay)` with
//!   `leak(Cl) = Cl + α` and `delay = ∆ + 1`; the simulator [`SimTle`]
//!   runs `F_FBC` itself and broadcasts into it ciphertexts of the right
//!   shape, fabricated without ever seeing a plaintext before the leakage
//!   function allows, and decrypts adversarial ciphertexts itself (it
//!   controls the oracles).
//!
//! Comparison level: ciphertext *contents* in the two worlds are
//! computationally indistinguishable but not bitwise equal (`c2`/`c3`
//! depend on the plaintext, which the simulator provably does not have), so
//! the Theorem 1 experiments assert **shape equality** of full transcripts
//! (event order, rounds, sources, payload lengths) plus **exact equality**
//! of every `Dec`/timing response — the observables the functionality
//! pins down.

use crate::ciphertext::{parse_tle_wire, tle_wire, TleCiphertext};
use crate::func::{DecResponse, TleFunc};
use crate::protocol::{difficulty_for, TleParty};
use sbc_broadcast::fbc::func::FbcFunc;
use sbc_primitives::astrolabous::{
    ast_enc_with_hashes, ast_solve_and_dec, sample_chain_randomness,
};
use sbc_primitives::drbg::Drbg;
use sbc_primitives::hashchain::Element;
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::ro::{Caller, RandomOracle};
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{AdvCommand, Leak, World, WorldCore};
use sbc_uc::wrapper::{QueryWrapper, WrapperClient};

/// Fair-broadcast delay beneath Π_TLE in these worlds.
pub const TLE_DELTA: u64 = 2;
/// Fair-broadcast simulator advantage beneath Π_TLE.
pub const TLE_ALPHA: u64 = 2;

fn fork_streams(core: &mut WorldCore) -> (Drbg, Drbg, Drbg, Drbg, Vec<Drbg>) {
    let ro_star = core.rng.fork(b"ro/star");
    let ro = core.rng.fork(b"ro/fro");
    let fbc_tags = core.rng.fork(b"tags/F_FBC");
    let tle_tags = core.rng.fork(b"tags/F_TLE");
    let parties = (0..core.n())
        .map(|i| core.rng.fork(format!("party/{i}").as_bytes()))
        .collect();
    (ro_star, ro, fbc_tags, tle_tags, parties)
}

fn parse_enc(v: &Value) -> Option<(Value, i64)> {
    let items = v.as_list()?;
    if items.len() != 2 {
        return None;
    }
    Some((items[0].clone(), items[1].as_i64()?))
}

fn parse_dec(v: &Value) -> Option<(Value, i64)> {
    parse_enc(v)
}

fn encrypted_output(triples: Vec<(Value, Value, u64)>) -> Command {
    Command::new(
        "Encrypted",
        Value::list(
            triples
                .into_iter()
                .map(|(m, c, t)| Value::list([m, c, Value::U64(t)])),
        ),
    )
}

/// The real world: `Π_TLE` over `F_FBC` + `W_q(F*_RO)` + `F_RO` + `G_clock`.
#[derive(Debug)]
pub struct RealTleWorld {
    core: WorldCore,
    parties: Vec<TleParty>,
    ffbc: FbcFunc,
    wrapper: QueryWrapper,
    ro_star: RandomOracle,
    ro: RandomOracle,
}

impl RealTleWorld {
    /// Creates the world (`q` wrapper batches per round).
    pub fn new(n: usize, q: u32, seed: &[u8]) -> Self {
        let mut core = WorldCore::new(n, seed);
        let (ro_star_rng, ro_rng, fbc_tags, _tle_tags, party_rngs) = fork_streams(&mut core);
        let parties = party_rngs
            .into_iter()
            .enumerate()
            .map(|(i, rng)| TleParty::new(PartyId(i as u32), q, TLE_DELTA, rng))
            .collect();
        RealTleWorld {
            core,
            parties,
            ffbc: FbcFunc::new(TLE_DELTA, TLE_ALPHA, fbc_tags),
            wrapper: QueryWrapper::new(q),
            ro_star: RandomOracle::new(ro_star_rng),
            ro: RandomOracle::new(ro_rng),
        }
    }
}

impl World for RealTleWorld {
    fn n(&self) -> usize {
        self.core.n()
    }

    fn time(&self) -> u64 {
        self.core.clock.read()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        if !self.core.is_honest(party) {
            return;
        }
        let now = self.core.clock.read();
        match &*cmd.name {
            "Enc" => {
                if let Some((msg, tau)) = parse_enc(&cmd.value) {
                    let ok = self.parties[party.index()].on_enc(msg, tau, now);
                    let resp = if ok {
                        Command::new("Encrypting", Value::Unit)
                    } else {
                        Command::new("Enc", Value::str("\u{22a5}"))
                    };
                    self.core.outputs.push((party, resp));
                }
            }
            "Retrieve" => {
                let triples = self.parties[party.index()].retrieve(now);
                self.core.outputs.push((party, encrypted_output(triples)));
            }
            "Dec" => {
                if let Some((ct, tau)) = parse_dec(&cmd.value) {
                    let resp = self.parties[party.index()].dec(&ct, tau, now, &mut self.ro);
                    self.core
                        .outputs
                        .push((party, Command::new("Dec", resp.to_value())));
                }
            }
            _ => {}
        }
    }

    fn advance(&mut self, party: PartyId) {
        if !self.core.is_honest(party) {
            return;
        }
        let now = self.core.clock.read();
        // Step 1–2: receive delayed fair-broadcast ciphertexts.
        let wires = self.ffbc.advance_clock(party, &mut self.core.ctx());
        for w in wires {
            if let Some((ct, tau)) = parse_tle_wire(&w) {
                self.parties[party.index()].on_fbc_deliver(ct, tau);
            }
        }
        // Step 3: ENCRYPT&SOLVE; step 4: broadcast fresh ciphertexts.
        let wires = self.parties[party.index()].encrypt_and_solve(
            now,
            &mut self.wrapper,
            &mut self.ro_star,
            &mut self.ro,
            WrapperClient::Party(party),
        );
        for w in wires {
            let mut ctx = self.core.ctx();
            self.ffbc.broadcast(party, w, &mut ctx);
        }
        self.core.clock.advance_party(party);
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        match cmd {
            AdvCommand::Corrupt(p) => Value::Bool(self.core.corrupt(p)),
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                if self.core.corr.is_corrupted(party) {
                    let mut ctx = self.core.ctx();
                    self.ffbc.broadcast(party, cmd.value, &mut ctx);
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

/// One simulated pending encryption awaiting ciphertext fabrication.
#[derive(Clone, Debug)]
struct SimEnc {
    tag: Tag,
    tau: u64,
    msg_len: usize,
}

/// The simulator `S_TLE` (Theorem 1, Appendix C).
///
/// It **runs** `F_FBC` — on the stream the real world's `F_FBC` draws its
/// tags from, fed the broadcasts [`RealTleWorld`] feeds it and never asked
/// to deliver — so the `(tag, sender)` leaks the adversary sees come out
/// of the functionality. It **simulates** the honest encryptors (no
/// [`TleParty`]: a party bug must not cancel across the two worlds):
/// ciphertext shells `(c1, c2, c3)` with real puzzles of random values but
/// random `c2`/`c3` (it has no plaintext). It solves adversarial
/// ciphertexts itself when `F_TLE` asks.
#[derive(Debug)]
pub struct SimTle {
    q: u32,
    delta: u64,
    party_rngs: Vec<Drbg>,
    ffbc: FbcFunc,
    equiv_rng: Drbg,
    queues: Vec<Vec<SimEnc>>,
}

impl SimTle {
    fn new(q: u32, delta: u64, party_rngs: Vec<Drbg>, ffbc: FbcFunc, equiv_rng: Drbg) -> Self {
        let n = party_rngs.len();
        SimTle {
            q,
            delta,
            party_rngs,
            ffbc,
            equiv_rng,
            queues: vec![Vec::new(); n],
        }
    }

    /// Queues the encryption of `F_TLE`'s `(τ, tag, Cl, 0^|M|, P)` leak.
    fn on_enc_leak(&mut self, leak: &Value) {
        let Some([tau, tag, _, msg_len, party]) = leak.as_list() else {
            return;
        };
        let tag = tag.as_bytes().and_then(Tag::from_bytes);
        if let (Some(tau), Some(tag), Some(msg_len), Some(party)) =
            (tau.as_u64(), tag, msg_len.as_u64(), party.as_u64())
        {
            let entry = SimEnc {
                tag,
                tau,
                msg_len: msg_len as usize,
            };
            self.queues[party as usize].push(entry);
        }
    }

    /// `ENCRYPT&SOLVE` for a party's queued encryptions: fair-broadcasts
    /// each fabricated ciphertext and returns the `(ciphertext, tag)`
    /// updates for `F_TLE`.
    fn honest_advance(
        &mut self,
        party: PartyId,
        ro_star: &mut RandomOracle,
        core: &mut WorldCore,
    ) -> Vec<(Value, Tag)> {
        let entries = std::mem::take(&mut self.queues[party.index()]);
        let now = core.clock.read();
        // Step 1: all chain randomness first.
        let rand_sets: Vec<Vec<Element>> = entries
            .iter()
            .map(|e| {
                let tau_dec = difficulty_for(e.tau, now, self.delta);
                sample_chain_randomness(tau_dec, self.q, &mut self.party_rngs[party.index()])
            })
            .collect();
        let mut updates = Vec::new();
        for (e, rs) in entries.iter().zip(rand_sets.iter()) {
            let tau_dec = difficulty_for(e.tau, now, self.delta);
            let hashes: Vec<Element> = rs
                .iter()
                .map(|r| ro_star.query(Caller::Simulator, r))
                .collect();
            let rho = self.party_rngs[party.index()].gen_bytes(32);
            let c1 = ast_enc_with_hashes(
                &rho,
                tau_dec,
                rs,
                &hashes,
                &mut self.party_rngs[party.index()],
            );
            // Extended encryption (Appendix C): c2, c3 are random — the
            // simulator has no plaintext yet.
            let c2 = self.equiv_rng.gen_bytes(e.msg_len);
            let c3_raw = self.equiv_rng.gen_bytes(32);
            let mut c3 = [0u8; 32];
            c3.copy_from_slice(&c3_raw);
            let ct = TleCiphertext { c1, c2, c3 };
            self.ffbc
                .broadcast(party, tle_wire(&ct, e.tau), &mut core.ctx());
            updates.push((ct.to_value(), e.tag));
        }
        updates
    }

    /// Decrypts an adversarial ciphertext (free oracle access) and returns
    /// `(message, effective decryption time)` for insertion into `F_TLE`.
    fn extract(
        &mut self,
        wire: &Value,
        now: u64,
        ro_star: &mut RandomOracle,
        ro: &mut RandomOracle,
    ) -> Option<(Value, Value, u64)> {
        let (ct, wire_tau) = parse_tle_wire(wire)?;
        let rho = ast_solve_and_dec(|x| ro_star.query(Caller::Simulator, x), &ct.c1).ok()?;
        // A failed binding check is ⊥ everywhere.
        let msg = ct.open(ro, Caller::Simulator, &rho)?;
        // Effective decryption time: delivery + solving rounds, at least the
        // claimed wire time.
        let steps = ct.c1.chain.len() as u64 - 1;
        let solve_done = now + self.delta + steps.div_ceil(self.q as u64);
        Some((ct.to_value(), msg, wire_tau.max(solve_done)))
    }
}

/// The ideal world: `F_TLE(leak(Cl)=Cl+α, delay=∆+1)` + `S_TLE`.
#[derive(Debug)]
pub struct IdealTleWorld {
    core: WorldCore,
    ftle: TleFunc,
    sim: SimTle,
    ro_star: RandomOracle,
    ro: RandomOracle,
}

impl IdealTleWorld {
    /// Creates the world (`q` wrapper batches per round).
    pub fn new(n: usize, q: u32, seed: &[u8]) -> Self {
        let mut core = WorldCore::new(n, seed);
        let (ro_star_rng, ro_rng, fbc_tags, tle_tags, party_rngs) = fork_streams(&mut core);
        let equiv_rng = core.rng.fork(b"sim/equiv");
        IdealTleWorld {
            core,
            ftle: TleFunc::new(TLE_ALPHA, TLE_DELTA + 1, tle_tags),
            sim: SimTle::new(
                q,
                TLE_DELTA,
                party_rngs,
                FbcFunc::new(TLE_DELTA, TLE_ALPHA, fbc_tags),
                equiv_rng,
            ),
            ro_star: RandomOracle::new(ro_star_rng),
            ro: RandomOracle::new(ro_rng),
        }
    }
}

impl World for IdealTleWorld {
    fn n(&self) -> usize {
        self.core.n()
    }

    fn time(&self) -> u64 {
        self.core.clock.read()
    }

    fn input(&mut self, party: PartyId, cmd: Command) {
        if !self.core.is_honest(party) {
            return;
        }
        match &*cmd.name {
            "Enc" => {
                if let Some((msg, tau)) = parse_enc(&cmd.value) {
                    // F_TLE's Enc leak is addressed to the simulator, which
                    // shows the real-world adversary nothing at Enc time.
                    let mut to_sim = Vec::new();
                    let mut ctx = self.core.ctx_leaking_to(&mut to_sim);
                    let resp = if self.ftle.enc(party, msg, tau, &mut ctx) {
                        for leak in &to_sim {
                            self.sim.on_enc_leak(&leak.cmd.value);
                        }
                        Command::new("Encrypting", Value::Unit)
                    } else {
                        Command::new("Enc", Value::str("\u{22a5}"))
                    };
                    self.core.outputs.push((party, resp));
                }
            }
            "Retrieve" => {
                let triples = {
                    let mut ctx = self.core.ctx();
                    self.ftle.retrieve(party, &mut ctx)
                };
                self.core.outputs.push((party, encrypted_output(triples)));
            }
            "Dec" => {
                if let Some((ct, tau)) = parse_dec(&cmd.value) {
                    let resp = {
                        let ctx = self.core.ctx();
                        self.ftle.dec(&ct, tau, &ctx)
                    };
                    let resp = match resp {
                        Some(r) => r,
                        // Unknown ciphertext: ask the simulator. Anything it
                        // cannot validly decrypt is ⊥, matching the real
                        // parties' c3 check.
                        None => DecResponse::Bottom,
                    };
                    self.core
                        .outputs
                        .push((party, Command::new("Dec", resp.to_value())));
                }
            }
            _ => {}
        }
    }

    fn advance(&mut self, party: PartyId) {
        if !self.core.is_honest(party) {
            return;
        }
        let updates = self
            .sim
            .honest_advance(party, &mut self.ro_star, &mut self.core);
        self.ftle.update_ciphertexts(&updates);
        self.core.clock.advance_party(party);
    }

    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        match cmd {
            AdvCommand::Corrupt(p) => Value::Bool(self.core.corrupt(p)),
            AdvCommand::SendAs { party, cmd } if cmd.name == "Broadcast" => {
                if self.core.corr.is_corrupted(party) {
                    let now = self.core.clock.read();
                    let extracted =
                        self.sim
                            .extract(&cmd.value, now, &mut self.ro_star, &mut self.ro);
                    let mut ctx = self.core.ctx();
                    self.sim.ffbc.broadcast(party, cmd.value, &mut ctx);
                    if let Some((ct, msg, tau_eff)) = extracted {
                        self.ftle.insert_adversarial(ct, msg, tau_eff);
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

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::trace::EventKind;
    use sbc_uc::world::{run_env, EnvDriver};

    const Q: u32 = 3;

    /// Shape equality of full transcripts plus exact equality of every
    /// `Dec`/`Encrypting` response (the plaintext observables).
    fn assert_theorem1<F>(n: usize, seed: &[u8], script: F)
    where
        F: Fn(&mut EnvDriver<'_>) + Copy,
    {
        let mut real = RealTleWorld::new(n, Q, seed);
        let mut ideal = IdealTleWorld::new(n, Q, seed);
        let t_real = run_env(&mut real, script);
        let t_ideal = run_env(&mut ideal, script);
        assert_eq!(
            t_real.shape_digest(),
            t_ideal.shape_digest(),
            "shape diverges:\nREAL:\n{t_real}\nIDEAL:\n{t_ideal}"
        );
        let decs = |t: &sbc_uc::trace::Transcript| -> Vec<(u64, PartyId, Value)> {
            t.events
                .iter()
                .filter_map(|e| match &e.kind {
                    EventKind::Output { party, cmd } if cmd.name == "Dec" => {
                        Some((e.round, *party, cmd.value.clone()))
                    }
                    _ => None,
                })
                .collect()
        };
        assert_eq!(decs(&t_real), decs(&t_ideal), "Dec responses diverge");
    }

    fn enc_cmd(msg: &[u8], tau: i64) -> Command {
        Command::new("Enc", Value::pair(Value::bytes(msg), Value::I64(tau)))
    }

    #[test]
    fn theorem1_encrypt_retrieve_decrypt() {
        assert_theorem1(2, b"t1-a", |env| {
            env.input(PartyId(0), enc_cmd(b"the future message", 6));
            env.idle_rounds(4);
            // Retrieve own record (delay = ∆+1 = 3 rounds after request).
            let r = env.input_collect(PartyId(0), Command::new("Retrieve", Value::Unit));
            let enc = r[0].value.as_list().unwrap();
            assert_eq!(enc.len(), 1, "one encrypted record");
            let ct = enc[0].as_list().unwrap()[1].clone();
            // Too early to decrypt:
            env.input(
                PartyId(1),
                Command::new("Dec", Value::pair(ct.clone(), Value::I64(6))),
            );
            env.idle_rounds(2);
            // τ = 6 reached: everyone can decrypt.
            env.input(
                PartyId(1),
                Command::new("Dec", Value::pair(ct.clone(), Value::I64(6))),
            );
            env.input(
                PartyId(0),
                Command::new("Dec", Value::pair(ct, Value::I64(6))),
            );
        });
    }

    #[test]
    fn theorem1_negative_time_and_unknown_ct() {
        assert_theorem1(2, b"t1-b", |env| {
            env.input(PartyId(0), enc_cmd(b"x", -3));
            env.input(
                PartyId(1),
                Command::new("Dec", Value::pair(Value::bytes(b"junk"), Value::I64(0))),
            );
            env.idle_rounds(1);
        });
    }

    #[test]
    fn theorem1_invalid_time_claims() {
        assert_theorem1(2, b"t1-c", |env| {
            env.input(PartyId(0), enc_cmd(b"late-claim", 8));
            env.idle_rounds(4);
            let r = env.input_collect(PartyId(0), Command::new("Retrieve", Value::Unit));
            let ct = r[0].value.as_list().unwrap()[0].as_list().unwrap()[1].clone();
            env.idle_rounds(5); // Cl = 9 > τ = 8
                                // Claimed τ' = 5 < true τ = 8 ≤ Cl → Invalid_Time in both worlds.
            env.input(
                PartyId(1),
                Command::new("Dec", Value::pair(ct, Value::I64(5))),
            );
        });
    }

    #[test]
    fn theorem1_multiple_encryptors() {
        assert_theorem1(3, b"t1-d", |env| {
            env.input(PartyId(0), enc_cmd(b"from zero", 7));
            env.input(PartyId(1), enc_cmd(b"from one", 8));
            env.advance_all();
            env.input(PartyId(2), enc_cmd(b"from two", 9));
            env.idle_rounds(9);
            for p in 0..3u32 {
                env.input(PartyId(p), Command::new("Retrieve", Value::Unit));
            }
        });
    }

    #[test]
    fn real_world_cross_party_decryption() {
        // A message encrypted by P0 is decryptable by P1 exactly at τ.
        let mut real = RealTleWorld::new(2, Q, b"cross");
        let t = run_env(&mut real, |env| {
            env.input(PartyId(0), enc_cmd(b"crossing", 6));
            env.idle_rounds(4);
            let r = env.input_collect(PartyId(0), Command::new("Retrieve", Value::Unit));
            let ct = r[0].value.as_list().unwrap()[0].as_list().unwrap()[1].clone();
            env.idle_rounds(2); // Cl = 6 = τ
            let d = env.input_collect(
                PartyId(1),
                Command::new("Dec", Value::pair(ct, Value::I64(6))),
            );
            assert_eq!(
                d[0].value,
                DecResponse::Message(Value::bytes(b"crossing")).to_value()
            );
        });
        assert!(!t.outputs().is_empty());
    }

    #[test]
    fn wrapper_prevents_early_decryption() {
        // Even spending its full shared budget, the adversary cannot have
        // the puzzle before the honest parties: difficulty τ_dec batches of
        // q are required, and W_q grants q per round.
        let mut real = RealTleWorld::new(2, Q, b"seq");
        run_env(&mut real, |env| {
            env.input(PartyId(0), enc_cmd(b"sealed", 7));
            env.idle_rounds(4);
            let r = env.input_collect(PartyId(0), Command::new("Retrieve", Value::Unit));
            let ct = r[0].value.as_list().unwrap()[0].as_list().unwrap()[1].clone();
            // Cl = 4 < τ = 7: everyone gets More_Time.
            let d = env.input_collect(
                PartyId(1),
                Command::new("Dec", Value::pair(ct, Value::I64(7))),
            );
            assert_eq!(d[0].value, DecResponse::MoreTime.to_value());
        });
    }

    /// A party id outside `0..n` is nobody in both worlds: its `Enc` /
    /// `Retrieve` / `Dec` inputs and clock steps are dropped and it cannot
    /// be corrupted — no panic, no leak, no output, no clock mark.
    #[test]
    fn out_of_range_party_is_ignored_by_both_worlds() {
        let worlds: [(&str, Box<dyn World>); 2] = [
            ("real TLE", Box::new(RealTleWorld::new(3, Q, b"stray"))),
            ("ideal TLE", Box::new(IdealTleWorld::new(3, Q, b"stray"))),
        ];
        let stray = PartyId(7);
        for (name, mut w) in worlds {
            w.input(stray, enc_cmd(b"x", 5));
            w.input(stray, Command::new("Retrieve", Value::Unit));
            let dec = Value::pair(Value::bytes(b"c"), Value::I64(5));
            w.input(stray, Command::new("Dec", dec));
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
