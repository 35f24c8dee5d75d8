//! The adaptively secure TLE protocol `Π_TLE` (paper Fig. 12) over fair
//! broadcast.
//!
//! An encryptor turns `Enc(M, τ)` into a ciphertext `(c1, c2, c3)` with
//! time-lock difficulty `τ_dec = τ − (Cl + ∆ + 1)` and broadcasts `(c, τ)`
//! through `F_FBC`; every party starts solving every received puzzle
//! immediately, spending its `q` wrapper batches per round across all live
//! solvers plus its own fresh encryptions (`ENCRYPT&SOLVE`) — the round
//! `Π_FBC` runs too, [`QueryWrapper::solve_round`]. The `c3` commitment
//! `H(ρ ‖ M)` is rechecked at decryption ([`TleCiphertext::open`]) so
//! adversarial ciphertexts bind to one plaintext.

use crate::ciphertext::{tle_wire, TleCiphertext};
use crate::func::DecResponse;
use sbc_primitives::astrolabous::{
    ast_dec, ast_enc_with_hashes, sample_chain_randomness, xor_mask,
};
use sbc_primitives::drbg::Drbg;
use sbc_primitives::hashchain::{ChainSolver, Element};
use sbc_uc::ids::PartyId;
use sbc_uc::ro::{Caller, RandomOracle};
use sbc_uc::value::Value;
use sbc_uc::wrapper::{QueryWrapper, WrapperClient};

/// An `L_rec` entry.
#[derive(Clone, Debug)]
struct RecEntry {
    msg: Value,
    ct: Option<TleCiphertext>,
    tau: u64,
    enc_round: u64,
    broadcast: bool,
}

/// An `L_puzzle` entry.
#[derive(Clone, Debug)]
struct PuzzleEntry {
    ct: TleCiphertext,
    tau: u64,
    solver: ChainSolver,
}

/// Per-party state of `Π_TLE`.
#[derive(Clone, Debug)]
pub struct TleParty {
    id: PartyId,
    q: u32,
    delta: u64,
    rng: Drbg,
    rec: Vec<RecEntry>,
    puzzles: Vec<PuzzleEntry>,
    last_advance: Option<u64>,
}

/// Computes the difficulty for a requested decryption time (Fig. 12
/// `ENCRYPT&SOLVE` step 1a, clamped to at least one round).
pub fn difficulty_for(tau: u64, now: u64, delta: u64) -> u64 {
    tau.saturating_sub(now + delta + 1).max(1)
}

impl TleParty {
    /// Creates party state over an `F_FBC(∆, ·)` channel with `q` wrapper
    /// batches per round.
    pub fn new(id: PartyId, q: u32, delta: u64, rng: Drbg) -> Self {
        TleParty {
            id,
            q,
            delta,
            rng,
            rec: Vec::new(),
            puzzles: Vec::new(),
            last_advance: None,
        }
    }

    /// The party identity.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// `Enc(M, τ)` input. Returns `false` for `τ < 0` (caller outputs `⊥`).
    pub fn on_enc(&mut self, msg: Value, tau: i64, now: u64) -> bool {
        if tau < 0 {
            return false;
        }
        self.rec.push(RecEntry {
            msg,
            ct: None,
            tau: tau as u64,
            enc_round: now,
            broadcast: false,
        });
        true
    }

    /// Registers a `(c, τ)` pair delivered by fair broadcast (Fig. 12
    /// `Advance_Clock` step 2): starts a solver for its puzzle.
    pub(crate) fn on_fbc_deliver(&mut self, ct: TleCiphertext, tau: u64) {
        if let Ok(solver) = ChainSolver::new(&ct.c1.chain) {
            self.puzzles.push(PuzzleEntry { ct, tau, solver });
        }
    }

    /// The `ENCRYPT&SOLVE` procedure plus broadcast staging (Fig. 12
    /// `Advance_Clock` steps 3–4). Returns the `(c, τ)` wires to hand to
    /// fair broadcast.
    pub(crate) fn encrypt_and_solve(
        &mut self,
        now: u64,
        wrapper: &mut QueryWrapper,
        ro_star: &mut RandomOracle,
        ro: &mut RandomOracle,
        client: WrapperClient,
    ) -> Vec<Value> {
        if self.last_advance == Some(now) {
            return Vec::new();
        }
        self.last_advance = Some(now);

        // Step 1: chain randomness for every unencrypted record.
        let todo: Vec<usize> = (0..self.rec.len())
            .filter(|&i| self.rec[i].ct.is_none())
            .collect();
        let rand_sets: Vec<Vec<Element>> = todo
            .iter()
            .map(|&i| {
                let tau_dec = difficulty_for(self.rec[i].tau, now, self.delta);
                sample_chain_randomness(tau_dec, self.q, &mut self.rng)
            })
            .collect();
        // Step 2: the q batches — puzzle generation is parallel (Q_0);
        // solving is one sequential link per live solver per batch.
        let mut solvers: Vec<&mut ChainSolver> =
            self.puzzles.iter_mut().map(|p| &mut p.solver).collect();
        let Some(hash_sets) = wrapper.solve_round(ro_star, now, client, &rand_sets, &mut solvers)
        else {
            return Vec::new();
        };

        // Step 3: build ciphertexts for the fresh encryptions.
        for (k, &i) in todo.iter().enumerate() {
            let tau_dec = difficulty_for(self.rec[i].tau, now, self.delta);
            let rho = self.rng.gen_bytes(32);
            let c1 =
                ast_enc_with_hashes(&rho, tau_dec, &rand_sets[k], &hash_sets[k], &mut self.rng);
            let caller = match client {
                WrapperClient::Party(p) => Caller::Party(p),
                WrapperClient::Corrupted => Caller::Adversary,
            };
            let eta = ro.query(caller, &rho);
            let m_bytes = self.rec[i].msg.encode();
            let c2 = xor_mask(&eta, &m_bytes);
            let mut commit_in = rho.clone();
            commit_in.extend_from_slice(&m_bytes);
            let c3 = ro.query(caller, &commit_in);
            self.rec[i].ct = Some(TleCiphertext { c1, c2, c3 });
        }

        // Step 4: stage broadcasts for everything encrypted but unsent.
        let mut wires = Vec::new();
        for rec in self.rec.iter_mut() {
            if let Some(ct) = &rec.ct {
                if !rec.broadcast {
                    rec.broadcast = true;
                    wires.push(tle_wire(ct, rec.tau));
                }
            }
        }
        wires
    }

    /// `Retrieve` input: own `(M, c, τ)` triples at least `∆ + 1` rounds
    /// old (Fig. 12 `Retrieve`).
    pub fn retrieve(&self, now: u64) -> Vec<(Value, Value, u64)> {
        self.rec
            .iter()
            .filter(|r| r.broadcast && now.saturating_sub(r.enc_round) > self.delta)
            .filter_map(|r| {
                r.ct.as_ref()
                    .map(|ct| (r.msg.clone(), ct.to_value(), r.tau))
            })
            .collect()
    }

    /// `Dec(c, τ)` input (Fig. 12 `Dec`).
    pub fn dec(&self, ct_value: &Value, tau: i64, now: u64, ro: &mut RandomOracle) -> DecResponse {
        if tau < 0 {
            return DecResponse::Bottom;
        }
        let tau = tau as u64;
        if now < tau {
            return DecResponse::MoreTime;
        }
        let Some(ct) = TleCiphertext::from_value(ct_value) else {
            return DecResponse::Bottom;
        };
        let Some(entry) = self.puzzles.iter().find(|p| p.ct == ct) else {
            return DecResponse::Bottom;
        };
        // Fig. 12 Dec step 5a: a claimed time below the recorded decryption
        // time is More_Time while that time is ahead, Invalid_Time once it
        // has passed.
        if tau < entry.tau {
            return if now < entry.tau {
                DecResponse::MoreTime
            } else {
                DecResponse::InvalidTime
            };
        }
        if !entry.solver.is_done() {
            // Adversarially over-hard puzzle: the witness does not exist yet.
            return DecResponse::MoreTime;
        }
        let Ok(rho) = ast_dec(&ct.c1, entry.solver.witness()) else {
            return DecResponse::Bottom;
        };
        match ct.open(ro, Caller::Party(self.id), &rho) {
            Some(m) => DecResponse::Message(m),
            None => DecResponse::Bottom,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ciphertext::parse_tle_wire;

    impl TleParty {
        /// Number of puzzles currently being solved (unsolved).
        fn unsolved(&self) -> usize {
            self.puzzles.iter().filter(|p| !p.solver.is_done()).count()
        }
    }

    const Q: u32 = 3;
    const DELTA: u64 = 2;

    fn party(i: u32) -> TleParty {
        TleParty::new(
            PartyId(i),
            Q,
            DELTA,
            Drbg::from_seed(format!("p{i}").as_bytes()),
        )
    }

    fn oracles() -> (QueryWrapper, RandomOracle, RandomOracle) {
        (
            QueryWrapper::new(Q),
            RandomOracle::new(Drbg::from_seed(b"star")),
            RandomOracle::new(Drbg::from_seed(b"fro")),
        )
    }

    #[test]
    fn difficulty_formula() {
        assert_eq!(difficulty_for(10, 0, 2), 7);
        assert_eq!(difficulty_for(3, 0, 2), 1, "clamped to one round");
        assert_eq!(difficulty_for(0, 5, 2), 1);
    }

    #[test]
    fn enc_produces_wire_with_correct_difficulty() {
        let (mut w, mut rs, mut ro) = oracles();
        let mut p = party(0);
        assert!(p.on_enc(Value::bytes(b"msg"), 10, 0));
        let wires = p.encrypt_and_solve(
            0,
            &mut w,
            &mut rs,
            &mut ro,
            WrapperClient::Party(PartyId(0)),
        );
        assert_eq!(wires.len(), 1);
        let (ct, tau) = parse_tle_wire(&wires[0]).unwrap();
        assert_eq!(tau, 10);
        assert_eq!(ct.c1.tau_dec, 7);
        assert_eq!(ct.c1.chain.len(), (7 * Q as u64 + 1) as usize);
    }

    #[test]
    fn negative_tau_rejected() {
        let mut p = party(0);
        assert!(!p.on_enc(Value::U64(1), -1, 0));
    }

    #[test]
    fn end_to_end_solve_and_dec() {
        let (mut w, mut rs, mut ro) = oracles();
        let mut alice = party(0);
        let mut bob = party(1);
        let tau = 6i64; // now=0, ∆=2 → τ_dec = 3
        alice.on_enc(Value::bytes(b"time capsule"), tau, 0);
        let wires = alice.encrypt_and_solve(
            0,
            &mut w,
            &mut rs,
            &mut ro,
            WrapperClient::Party(PartyId(0)),
        );
        let (ct, t) = parse_tle_wire(&wires[0]).unwrap();
        // Delivered to Bob ∆ = 2 rounds later:
        bob.on_fbc_deliver(ct.clone(), t);
        // Before τ: More_Time regardless of solving state.
        assert_eq!(
            bob.dec(&ct.to_value(), tau, 2, &mut ro),
            DecResponse::MoreTime
        );
        // Solve: τ_dec = 3 rounds of q batches.
        for round in 2..5 {
            bob.encrypt_and_solve(
                round,
                &mut w,
                &mut rs,
                &mut ro,
                WrapperClient::Party(PartyId(1)),
            );
        }
        assert_eq!(bob.unsolved(), 0);
        assert_eq!(
            bob.dec(&ct.to_value(), tau, tau as u64, &mut ro),
            DecResponse::Message(Value::bytes(b"time capsule"))
        );
    }

    #[test]
    fn solving_takes_exactly_tau_dec_rounds() {
        let (mut w, mut rs, mut ro) = oracles();
        let mut alice = party(0);
        let mut bob = party(1);
        alice.on_enc(Value::U64(7), 10, 0); // τ_dec = 7
        let wires = alice.encrypt_and_solve(
            0,
            &mut w,
            &mut rs,
            &mut ro,
            WrapperClient::Party(PartyId(0)),
        );
        let (ct, t) = parse_tle_wire(&wires[0]).unwrap();
        bob.on_fbc_deliver(ct, t);
        let mut rounds = 0;
        let mut round = 2;
        while bob.unsolved() > 0 {
            bob.encrypt_and_solve(
                round,
                &mut w,
                &mut rs,
                &mut ro,
                WrapperClient::Party(PartyId(1)),
            );
            round += 1;
            rounds += 1;
            assert!(rounds <= 8, "should finish in τ_dec = 7 rounds");
        }
        assert_eq!(rounds, 7);
    }

    #[test]
    fn concurrent_puzzles_share_budget() {
        // Two puzzles of difficulty 2 received in the same round both
        // complete after 2 rounds (each batch steps both solvers).
        let (mut w, mut rs, mut ro) = oracles();
        let mut alice = party(0);
        let mut bob = party(1);
        alice.on_enc(Value::U64(1), 5, 0);
        alice.on_enc(Value::U64(2), 5, 0);
        let wires = alice.encrypt_and_solve(
            0,
            &mut w,
            &mut rs,
            &mut ro,
            WrapperClient::Party(PartyId(0)),
        );
        assert_eq!(wires.len(), 2);
        for wtp in &wires {
            let (ct, t) = parse_tle_wire(wtp).unwrap();
            bob.on_fbc_deliver(ct, t);
        }
        bob.encrypt_and_solve(
            2,
            &mut w,
            &mut rs,
            &mut ro,
            WrapperClient::Party(PartyId(1)),
        );
        assert_eq!(bob.unsolved(), 2, "difficulty 2: one round is not enough");
        bob.encrypt_and_solve(
            3,
            &mut w,
            &mut rs,
            &mut ro,
            WrapperClient::Party(PartyId(1)),
        );
        assert_eq!(bob.unsolved(), 0);
    }

    #[test]
    fn retrieve_after_delta_plus_one() {
        let (mut w, mut rs, mut ro) = oracles();
        let mut p = party(0);
        p.on_enc(Value::bytes(b"mine"), 9, 0);
        p.encrypt_and_solve(
            0,
            &mut w,
            &mut rs,
            &mut ro,
            WrapperClient::Party(PartyId(0)),
        );
        assert!(p.retrieve(DELTA).is_empty(), "too early");
        let r = p.retrieve(DELTA + 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].0, Value::bytes(b"mine"));
        assert_eq!(r[0].2, 9);
    }

    #[test]
    fn tampered_commitment_rejected() {
        let (mut w, mut rs, mut ro) = oracles();
        let mut alice = party(0);
        let mut bob = party(1);
        alice.on_enc(Value::U64(5), 5, 0);
        let wires = alice.encrypt_and_solve(
            0,
            &mut w,
            &mut rs,
            &mut ro,
            WrapperClient::Party(PartyId(0)),
        );
        let (mut ct, t) = parse_tle_wire(&wires[0]).unwrap();
        ct.c3[0] ^= 1;
        bob.on_fbc_deliver(ct.clone(), t);
        for round in 2..4 {
            bob.encrypt_and_solve(
                round,
                &mut w,
                &mut rs,
                &mut ro,
                WrapperClient::Party(PartyId(1)),
            );
        }
        assert_eq!(bob.dec(&ct.to_value(), 5, 5, &mut ro), DecResponse::Bottom);
    }

    #[test]
    fn unknown_ciphertext_bottom() {
        let (_, _, mut ro) = oracles();
        let p = party(0);
        assert_eq!(
            p.dec(&Value::bytes(b"unknown"), 0, 1, &mut ro),
            DecResponse::Bottom
        );
        assert_eq!(
            p.dec(&Value::bytes(b"x"), -2, 1, &mut ro),
            DecResponse::Bottom
        );
    }
}
