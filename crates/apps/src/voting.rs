//! Self-tallying e-voting without a trusted control voter — paper §6.2.
//!
//! The \[SP15]/\[KY02] paradigm: authorities deal each voter `V_i` additive
//! shares `x_{i,j}` with `Σ_i x_{i,j} = 0`, so the voter exponents satisfy
//! `Σ_i x_i = 0`. A ballot is `b_i = r^{x_i} · g^{e(v_i)}` with a
//! disjunctive Chaum–Pedersen proof that it encodes an allowable vote under
//! the registered verification key `w_i = w^{x_i}`. Because the blinders
//! cancel, *anyone* can tally: `Π_i b_i = g^{Σ e(v_i)}` and a small
//! discrete log recovers the per-candidate counts (packed base `n+1`).
//!
//! Fairness — no partial tallies before the end of the casting phase — is
//! the reason prior systems needed a trusted "control voter" who casts a
//! dummy ballot last. Here ballots are cast through **simultaneous
//! broadcast**: nothing opens until the casting period is over, so the
//! control voter disappears (the paper's Fig. 18 modification).

use sbc_core::api::{SbcError, SbcSession};
use sbc_primitives::bigint::U256;
use sbc_primitives::drbg::Drbg;
use sbc_primitives::group::{Element, Scalar, SchnorrGroup};
use sbc_primitives::sigma::{dleq_or_prove, dleq_or_verify, DleqOrProof};
use sbc_uc::value::Value;
use std::fmt;

/// Election setup produced by `F_SKG`/`F_PKG`: the group, the bases, and
/// the per-voter key material.
#[derive(Clone, Debug)]
pub struct ElectionSetup {
    /// The underlying group.
    pub group: SchnorrGroup,
    /// The ballot blinding base `r` (public random seed element).
    pub r: Element,
    /// The verification base `w`.
    pub w: Element,
    /// Per-voter secret exponents `x_i` (held by the voters).
    secrets: Vec<Scalar>,
    /// Per-voter verification keys `w_i = w^{x_i}` (public).
    pub verification_keys: Vec<Element>,
    /// Number of candidates.
    pub candidates: usize,
    /// Number of voters.
    pub voters: usize,
}

/// Error cases of setup, casting, and tallying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VotingError {
    /// A ballot failed proof or key verification.
    InvalidBallot(usize),
    /// A voter index out of range.
    VoterOutOfRange(usize),
    /// A candidate index out of range.
    CandidateOutOfRange(usize),
    /// The product's discrete log exceeded the tally bound.
    TallyOverflow,
    /// Malformed wire data.
    Malformed,
    /// The underlying SBC session failed.
    Sbc(SbcError),
}

impl fmt::Display for VotingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VotingError::InvalidBallot(i) => write!(f, "ballot {i} failed verification"),
            VotingError::VoterOutOfRange(v) => write!(f, "voter {v} out of range"),
            VotingError::CandidateOutOfRange(c) => write!(f, "candidate {c} out of range"),
            VotingError::TallyOverflow => write!(f, "tally exceeded decodable bound"),
            VotingError::Malformed => write!(f, "malformed ballot encoding"),
            VotingError::Sbc(e) => write!(f, "SBC session failure: {e}"),
        }
    }
}

impl std::error::Error for VotingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VotingError::Sbc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SbcError> for VotingError {
    fn from(e: SbcError) -> Self {
        VotingError::Sbc(e)
    }
}

impl ElectionSetup {
    /// Runs the authority key-dealing of Fig. 18 (`F_PKG` + `F_SKG`):
    /// `n_auth` authorities each deal shares summing to zero over the
    /// voters; scrutineers verify `Π_i w^{x_{i,j}} = 1` per authority.
    ///
    /// # Panics
    ///
    /// Panics unless `voters ≥ 1`, `candidates ≥ 2` and `n_auth ≥ 1`.
    pub fn generate(
        group: SchnorrGroup,
        voters: usize,
        candidates: usize,
        n_auth: usize,
        rng: &mut Drbg,
    ) -> Self {
        assert!(voters >= 1 && candidates >= 2 && n_auth >= 1);
        let r = group.hash_to_element(b"election-seed-r");
        let w = group.hash_to_element(b"election-base-w");
        let mut secrets = vec![Scalar(U256::ZERO); voters];
        for j in 0..n_auth {
            // Authority j: shares x_{1,j}, …, x_{n,j} with Σ_i x_{i,j} = 0.
            let mut acc = Scalar(U256::ZERO);
            let mut shares = Vec::with_capacity(voters);
            for _ in 0..voters - 1 {
                let s = group.random_scalar(rng);
                acc = group.scalar_add(&acc, &s);
                shares.push(s);
            }
            shares.push(group.scalar_neg(&acc));
            // Scrutineer check: the published w^{x_{i,j}} multiply to 1.
            let mut prod = group.one();
            for s in &shares {
                prod = group.mul(&prod, &group.exp(&w, s));
            }
            assert_eq!(prod, group.one(), "authority {j} dealt inconsistent shares");
            for (i, s) in shares.iter().enumerate() {
                secrets[i] = group.scalar_add(&secrets[i], s);
            }
        }
        let verification_keys = secrets.iter().map(|x| group.exp(&w, x)).collect();
        ElectionSetup {
            group,
            r,
            w,
            secrets,
            verification_keys,
            candidates,
            voters,
        }
    }

    /// The voter's secret exponent (only the voter itself may call this).
    pub(crate) fn secret_of(&self, voter: usize) -> Scalar {
        self.secrets[voter]
    }

    /// Derives the setup for casting period `epoch`: the same electorate
    /// (keys, candidates) over a **fresh blinding base**
    /// `r_e = H("election-seed-r/epoch/e")`. Because `Σ_i x_i = 0`, the
    /// blinders `r_e^{x_i}` still cancel in the tally; rotating the base
    /// per epoch means (1) a ballot published in one period fails proof
    /// verification in every other one (the proof statements involve
    /// `r_e`), and (2) `b = r_e^{x} · g^{e(v)}` is no longer deterministic
    /// per `(voter, candidate)` across periods, so vote equality between
    /// motions does not leak. Epoch 0 is the base setup itself.
    pub(crate) fn for_epoch(&self, epoch: u64) -> ElectionSetup {
        if epoch == 0 {
            return self.clone();
        }
        let mut label = b"election-seed-r/epoch/".to_vec();
        label.extend_from_slice(&epoch.to_be_bytes());
        let mut next = self.clone();
        next.r = self.group.hash_to_element(&label);
        next
    }

    /// The packed tally exponent of candidate `c`: `(voters+1)^c`.
    fn candidate_exponent(&self, c: usize) -> Scalar {
        let base = self.voters as u64 + 1;
        let mut e = Scalar(U256::ONE);
        for _ in 0..c {
            e = self.group.scalar_mul(&e, &self.group.scalar_from_u64(base));
        }
        e
    }
}

/// A cast ballot: the blinded vote plus its validity proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ballot {
    /// The voter index.
    pub voter: usize,
    /// `b = r^{x_i} · g^{e(v)}`.
    pub value: Element,
    /// Disjunctive proof that `b` encodes an allowable vote under `w_i`.
    pub proof: DleqOrProof,
}

impl Ballot {
    /// Creates a ballot for `vote ∈ {0, …, candidates-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `vote` is out of range.
    pub fn cast(setup: &ElectionSetup, voter: usize, vote: usize, rng: &mut Drbg) -> Ballot {
        assert!(vote < setup.candidates, "vote out of range");
        let grp = &setup.group;
        let x = setup.secret_of(voter);
        let ge = grp.exp(&grp.generator(), &setup.candidate_exponent(vote));
        let value = grp.mul(&grp.exp(&setup.r, &x), &ge);
        // Candidate statements: for each candidate c, knowledge of x with
        // w_i = w^x ∧ b/g^{e(c)} = r^x.
        let targets: Vec<(Element, Element)> = (0..setup.candidates)
            .map(|c| {
                let gc = grp.exp(&grp.generator(), &setup.candidate_exponent(c));
                (
                    setup.verification_keys[voter],
                    grp.mul(&value, &grp.inv(&gc)),
                )
            })
            .collect();
        let ctx = ballot_context(setup, voter);
        let proof = dleq_or_prove(grp, &setup.w, &setup.r, &targets, vote, &x, &ctx, rng);
        Ballot {
            voter,
            value,
            proof,
        }
    }

    /// Verifies the ballot against the public election setup.
    pub fn verify(&self, setup: &ElectionSetup) -> bool {
        if self.voter >= setup.voters {
            return false;
        }
        let grp = &setup.group;
        if !grp.is_element(&self.value) {
            return false;
        }
        let targets: Vec<(Element, Element)> = (0..setup.candidates)
            .map(|c| {
                let gc = grp.exp(&grp.generator(), &setup.candidate_exponent(c));
                (
                    setup.verification_keys[self.voter],
                    grp.mul(&self.value, &grp.inv(&gc)),
                )
            })
            .collect();
        let ctx = ballot_context(setup, self.voter);
        dleq_or_verify(grp, &setup.w, &setup.r, &targets, &ctx, &self.proof)
    }

    /// Serializes the ballot for the SBC wire.
    pub fn to_value(&self) -> Value {
        let el = |e: &Element| Value::bytes(e.0.to_be_bytes());
        let sc = |s: &Scalar| Value::bytes(s.0.to_be_bytes());
        Value::list([
            Value::U64(self.voter as u64),
            el(&self.value),
            Value::list(
                self.proof
                    .commitments
                    .iter()
                    .map(|(a, b)| Value::pair(el(a), el(b))),
            ),
            Value::list(self.proof.challenges.iter().map(sc)),
            Value::list(self.proof.responses.iter().map(sc)),
        ])
    }

    /// Parses a ballot off the SBC wire.
    pub fn from_value(v: &Value) -> Option<Ballot> {
        let items = v.as_list()?;
        if items.len() != 5 {
            return None;
        }
        let el = |v: &Value| -> Option<Element> {
            let b: [u8; 32] = v.as_bytes()?.try_into().ok()?;
            Some(Element(U256::from_be_bytes(&b)))
        };
        let sc = |v: &Value| -> Option<Scalar> {
            let b: [u8; 32] = v.as_bytes()?.try_into().ok()?;
            Some(Scalar(U256::from_be_bytes(&b)))
        };
        let voter = items[0].as_u64()? as usize;
        let value = el(&items[1])?;
        let commitments: Option<Vec<(Element, Element)>> = items[2]
            .as_list()?
            .iter()
            .map(|p| match p.as_list()? {
                [a, b] => Some((el(a)?, el(b)?)),
                _ => None,
            })
            .collect();
        let challenges: Option<Vec<Scalar>> = items[3].as_list()?.iter().map(sc).collect();
        let responses: Option<Vec<Scalar>> = items[4].as_list()?.iter().map(sc).collect();
        Some(Ballot {
            voter,
            value,
            proof: DleqOrProof {
                commitments: commitments?,
                challenges: challenges?,
                responses: responses?,
            },
        })
    }
}

fn ballot_context(setup: &ElectionSetup, voter: usize) -> Vec<u8> {
    let mut ctx = b"stvs-ballot".to_vec();
    ctx.extend_from_slice(&(voter as u64).to_be_bytes());
    ctx.extend_from_slice(&setup.r.0.to_be_bytes());
    ctx.extend_from_slice(&setup.w.0.to_be_bytes());
    ctx
}

/// Self-tallies a set of ballots: verifies each, enforces one ballot per
/// voter (first valid counts), multiplies and decodes the packed counts.
///
/// # Errors
///
/// Returns [`VotingError::TallyOverflow`] if the product's discrete log is
/// not decodable within the bound (cannot happen for valid ballots).
pub fn self_tally(setup: &ElectionSetup, ballots: &[Ballot]) -> Result<Vec<u64>, VotingError> {
    let grp = &setup.group;
    let mut seen = vec![false; setup.voters];
    let mut product = grp.one();
    for b in ballots {
        if !b.verify(setup) {
            continue; // invalid ballots are publicly discardable
        }
        if seen[b.voter] {
            continue; // quota: one ballot per voter
        }
        seen[b.voter] = true;
        product = grp.mul(&product, &b.value);
    }
    // Σ x_i over *all* voters is 0, so absent voters leave their blinders
    // r^{x_i} out of the product. The paper tallies when all cast; here the
    // authorities open the missing blinders from the setup.
    let mut missing = Scalar(U256::ZERO);
    for (i, s) in seen.iter().enumerate() {
        if !*s {
            missing = grp.scalar_add(&missing, &setup.secret_of(i));
        }
    }
    product = grp.mul(&product, &grp.exp(&setup.r, &missing));
    // Decode g^T with T = Σ_c count_c · (n+1)^c by brute force.
    let base = setup.voters as u64 + 1;
    let bound = base.pow(setup.candidates as u32).saturating_sub(1);
    let t = grp
        .brute_force_dlog(&grp.generator(), &product, bound)
        .ok_or(VotingError::TallyOverflow)?;
    let mut counts = Vec::with_capacity(setup.candidates);
    let mut rest = t;
    for _ in 0..setup.candidates {
        counts.push(rest % base);
        rest /= base;
    }
    Ok(counts)
}

/// The election outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElectionResult {
    /// Per-candidate vote counts.
    pub counts: Vec<u64>,
    /// Number of ballots accepted.
    pub ballots_accepted: usize,
    /// The round the tally became computable.
    pub tally_round: u64,
}

/// A self-tallying election run over the real SBC stack (the Fig. 18
/// protocol with the bulletin board + control voter replaced by `F_SBC`).
///
/// The election is *repeatable*: after
/// [`finish_epoch`](Election::finish_epoch) tallies a casting period, the
/// same registered electorate (same key material, same SBC world) can run
/// the next period — e.g. successive board motions — without rebuilding
/// the stack.
#[derive(Debug)]
pub struct Election {
    /// The current period's setup (epoch-rotated blinding base).
    setup: ElectionSetup,
    /// The epoch-0 base setup the per-period setups derive from.
    base_setup: ElectionSetup,
    sbc: SbcSession,
    rng: Drbg,
    cast: Vec<bool>,
}

impl Election {
    /// Creates an election over the given group.
    ///
    /// # Errors
    ///
    /// Propagates [`SbcError`] from the session builder (degenerate voter
    /// count).
    pub fn new(
        group: SchnorrGroup,
        voters: usize,
        candidates: usize,
        seed: &[u8],
    ) -> Result<Self, VotingError> {
        let mut label = b"stvs/".to_vec();
        label.extend_from_slice(seed);
        let mut rng = Drbg::from_seed(&label);
        let base_setup = ElectionSetup::generate(group, voters, candidates, 3, &mut rng);
        Ok(Election {
            setup: base_setup.clone(),
            base_setup,
            sbc: SbcSession::builder(voters).seed(seed).build()?,
            rng,
            cast: vec![false; voters],
        })
    }

    /// Voter `v` casts a vote for candidate `c` through the SBC channel
    /// (first cast per voter and period counts).
    ///
    /// # Errors
    ///
    /// [`VotingError::VoterOutOfRange`] / [`VotingError::CandidateOutOfRange`]
    /// on bad indices; [`VotingError::Sbc`] if the casting period already
    /// closed.
    pub fn vote(&mut self, voter: usize, candidate: usize) -> Result<(), VotingError> {
        if voter >= self.setup.voters {
            return Err(VotingError::VoterOutOfRange(voter));
        }
        if candidate >= self.setup.candidates {
            return Err(VotingError::CandidateOutOfRange(candidate));
        }
        if self.cast[voter] {
            return Ok(());
        }
        // Reject doomed casts (closed period, corrupted voter) before
        // paying for the proof: a failed vote must neither waste the
        // DLEQ-OR exponentiations nor perturb the ballot RNG stream.
        self.sbc.check_submittable(voter as u32)?;
        let ballot = Ballot::cast(&self.setup, voter, candidate, &mut self.rng);
        self.sbc.submit(voter as u32, &ballot.to_value().encode())?;
        self.cast[voter] = true;
        Ok(())
    }

    fn tally_messages(
        &self,
        messages: &[Vec<u8>],
        round: u64,
    ) -> Result<ElectionResult, VotingError> {
        let ballots: Vec<Ballot> = messages
            .iter()
            .filter_map(|m| Ballot::from_value(&Value::decode(m)?))
            .collect();
        let accepted = ballots.iter().filter(|b| b.verify(&self.setup)).count();
        let counts = self_tally(&self.setup, &ballots)?;
        Ok(ElectionResult {
            counts,
            ballots_accepted: accepted,
            tally_round: round,
        })
    }

    /// Runs the current casting period + release, self-tallies, and
    /// re-opens the stack for the next period with the same electorate.
    ///
    /// # Errors
    ///
    /// [`VotingError::Sbc`] if nobody cast a ballot or the stack failed;
    /// [`VotingError::TallyOverflow`] if the tally is undecodable.
    pub fn finish_epoch(&mut self) -> Result<ElectionResult, VotingError> {
        let epoch = self.sbc.run_epoch()?;
        self.cast = vec![false; self.setup.voters];
        let result = self.tally_messages(&epoch.messages, epoch.release_round);
        // Rotate the blinding base for the next motion: replayed ballots
        // from this period will fail verification there.
        self.setup = self.base_setup.for_epoch(self.sbc.epoch());
        result
    }

    /// Single-shot convenience: tallies one casting period and consumes
    /// the election.
    ///
    /// # Errors
    ///
    /// As for [`finish_epoch`](Election::finish_epoch).
    pub fn finish(mut self) -> Result<ElectionResult, VotingError> {
        self.finish_epoch()
    }
}

/// Baseline: the \[SP15] bulletin board, where ballots are public on
/// posting. Without the trusted control voter, partial tallies leak during
/// the casting phase — the fairness failure SBC removes.
#[derive(Debug)]
pub struct BulletinBoardElection {
    setup: ElectionSetup,
    rng: Drbg,
    posted: Vec<Ballot>,
}

impl BulletinBoardElection {
    /// Creates the baseline election.
    pub fn new(group: SchnorrGroup, voters: usize, candidates: usize, seed: &[u8]) -> Self {
        let mut label = b"bb/".to_vec();
        label.extend_from_slice(seed);
        let mut rng = Drbg::from_seed(&label);
        let setup = ElectionSetup::generate(group, voters, candidates, 3, &mut rng);
        BulletinBoardElection {
            setup,
            rng,
            posted: Vec::new(),
        }
    }

    /// Casts a vote directly onto the public board.
    pub fn vote(&mut self, voter: usize, candidate: usize) {
        let ballot = Ballot::cast(&self.setup, voter, candidate, &mut self.rng);
        self.posted.push(ballot);
    }

    /// The fairness failure: posted ballots are public, so [`self_tally`]
    /// over them gives a partial tally mid-phase.
    pub fn partial_tally(&self) -> Result<Vec<u64>, VotingError> {
        self_tally(&self.setup, &self.posted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ElectionSetup {
        /// Sanity invariant: the secrets sum to zero (what makes self-tallying
        /// possible).
        fn secrets_sum_to_zero(&self) -> bool {
            let mut acc = Scalar(U256::ZERO);
            for s in &self.secrets {
                acc = self.group.scalar_add(&acc, s);
            }
            acc.0.is_zero()
        }
    }

    fn group() -> SchnorrGroup {
        SchnorrGroup::tiny()
    }

    #[test]
    fn setup_invariants() {
        let mut rng = Drbg::from_seed(b"setup");
        let s = ElectionSetup::generate(group(), 4, 2, 3, &mut rng);
        assert!(s.secrets_sum_to_zero());
        assert_eq!(s.verification_keys.len(), 4);
        for (i, vk) in s.verification_keys.iter().enumerate() {
            assert_eq!(*vk, s.group.exp(&s.w, &s.secret_of(i)));
        }
    }

    #[test]
    fn ballot_round_trip_and_verify() {
        let mut rng = Drbg::from_seed(b"ballot");
        let s = ElectionSetup::generate(group(), 3, 3, 2, &mut rng);
        for vote in 0..3 {
            let b = Ballot::cast(&s, 1, vote, &mut rng);
            assert!(b.verify(&s), "vote {vote}");
            let parsed = Ballot::from_value(&b.to_value()).unwrap();
            assert_eq!(parsed, b);
            assert!(parsed.verify(&s));
        }
    }

    #[test]
    fn ballot_with_a_short_commitment_entry_is_refused() {
        // A corrupted voter's wire is arbitrary: a commitment entry of
        // fewer (or more) than two items parses to `None`, never a panic.
        let mut rng = Drbg::from_seed(b"short-pair");
        let s = ElectionSetup::generate(group(), 3, 2, 2, &mut rng);
        let items = Ballot::cast(&s, 0, 1, &mut rng)
            .to_value()
            .as_list()
            .unwrap()
            .to_vec();
        let el = Value::bytes([1u8; 32]);
        for entry in [vec![], vec![el.clone()], vec![el.clone(); 3]] {
            let mut forged = items.clone();
            forged[2] = Value::list([Value::list(entry)]);
            assert_eq!(Ballot::from_value(&Value::list(forged)), None);
        }
    }

    #[test]
    fn ballot_with_wrong_key_rejected() {
        let mut rng = Drbg::from_seed(b"wrongkey");
        let s = ElectionSetup::generate(group(), 3, 2, 2, &mut rng);
        let mut b = Ballot::cast(&s, 0, 1, &mut rng);
        b.voter = 1; // claims to be voter 1 but used voter 0's exponent
        assert!(!b.verify(&s));
    }

    #[test]
    fn out_of_range_vote_value_rejected() {
        // A ballot encoding a non-candidate exponent cannot produce a valid
        // OR proof.
        let mut rng = Drbg::from_seed(b"range");
        let s = ElectionSetup::generate(group(), 3, 2, 2, &mut rng);
        let grp = &s.group;
        let x = s.secret_of(0);
        // b = r^x · g^{7} — 7 is not a candidate exponent.
        let bad_val = grp.mul(
            &grp.exp(&s.r, &x),
            &grp.exp(&grp.generator(), &grp.scalar_from_u64(7)),
        );
        let targets: Vec<(Element, Element)> = (0..2)
            .map(|c| {
                let gc = grp.exp(&grp.generator(), &s.candidate_exponent(c));
                (s.verification_keys[0], grp.mul(&bad_val, &grp.inv(&gc)))
            })
            .collect();
        let proof = dleq_or_prove(
            grp,
            &s.w,
            &s.r,
            &targets,
            0,
            &x,
            &ballot_context(&s, 0),
            &mut rng,
        );
        let b = Ballot {
            voter: 0,
            value: bad_val,
            proof,
        };
        assert!(!b.verify(&s));
    }

    #[test]
    fn tally_correct_full_participation() {
        let mut rng = Drbg::from_seed(b"tally");
        let s = ElectionSetup::generate(group(), 5, 3, 2, &mut rng);
        let votes = [0usize, 1, 1, 2, 1];
        let ballots: Vec<Ballot> = votes
            .iter()
            .enumerate()
            .map(|(i, &v)| Ballot::cast(&s, i, v, &mut rng))
            .collect();
        let counts = self_tally(&s, &ballots).unwrap();
        assert_eq!(counts, vec![1, 3, 1]);
    }

    #[test]
    fn tally_ignores_invalid_and_duplicate_ballots() {
        let mut rng = Drbg::from_seed(b"dups");
        let s = ElectionSetup::generate(group(), 3, 2, 2, &mut rng);
        let mut ballots = vec![
            Ballot::cast(&s, 0, 1, &mut rng),
            Ballot::cast(&s, 1, 0, &mut rng),
            Ballot::cast(&s, 2, 1, &mut rng),
        ];
        // Duplicate from voter 0 (ignored) and a forged one (ignored).
        ballots.push(Ballot::cast(&s, 0, 0, &mut rng));
        let mut forged = Ballot::cast(&s, 1, 1, &mut rng);
        forged.voter = 2;
        ballots.push(forged);
        let counts = self_tally(&s, &ballots).unwrap();
        assert_eq!(counts, vec![1, 2]);
    }

    #[test]
    fn election_over_sbc_end_to_end() {
        let mut e = Election::new(group(), 3, 2, b"e2e").unwrap();
        e.vote(0, 1).unwrap();
        e.vote(1, 1).unwrap();
        e.vote(2, 0).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.counts, vec![1, 2]);
        assert_eq!(r.ballots_accepted, 3);
        assert_eq!(r.tally_round, 3 + 2, "tally only after t_end + ∆");
    }

    #[test]
    fn election_partial_participation() {
        let mut e = Election::new(group(), 4, 2, b"partial").unwrap();
        e.vote(0, 1).unwrap();
        e.vote(3, 0).unwrap();
        let r = e.finish().unwrap();
        assert_eq!(r.counts, vec![1, 1], "no control voter needed to terminate");
    }

    #[test]
    fn election_out_of_range_indices_rejected() {
        let mut e = Election::new(group(), 3, 2, b"bad-idx").unwrap();
        assert_eq!(e.vote(7, 0), Err(VotingError::VoterOutOfRange(7)));
        assert_eq!(e.vote(0, 5), Err(VotingError::CandidateOutOfRange(5)));
    }

    #[test]
    fn epoch_rotation_blocks_ballot_replay() {
        let mut rng = Drbg::from_seed(b"replay");
        let s0 = ElectionSetup::generate(group(), 3, 2, 2, &mut rng);
        let s1 = s0.for_epoch(1);
        // A motion-0 ballot is public after its tally; it must not verify
        // under the next motion's rotated base.
        let old = Ballot::cast(&s0, 1, 1, &mut rng);
        assert!(old.verify(&s0));
        assert!(!old.verify(&s1), "replayed ballot rejected in epoch 1");
        // Same (voter, candidate) under different epochs: different
        // ballot values, so vote equality across motions does not leak.
        let fresh = Ballot::cast(&s1, 1, 1, &mut rng);
        assert_ne!(old.value, fresh.value);
        // The rotated base still self-tallies (blinders cancel: Σx = 0).
        let ballots: Vec<Ballot> = (0..3)
            .map(|v| Ballot::cast(&s1, v, v % 2, &mut rng))
            .collect();
        assert_eq!(self_tally(&s1, &ballots).unwrap(), vec![2, 1]);
    }

    #[test]
    fn repeated_elections_on_one_stack() {
        // Two successive motions, one electorate, one SBC world.
        let mut e = Election::new(group(), 3, 2, b"repeat").unwrap();
        e.vote(0, 1).unwrap();
        e.vote(1, 0).unwrap();
        e.vote(2, 1).unwrap();
        let first = e.finish_epoch().unwrap();
        assert_eq!(first.counts, vec![1, 2]);
        // Next period: fresh casts, different outcome.
        e.vote(0, 0).unwrap();
        e.vote(1, 0).unwrap();
        e.vote(2, 1).unwrap();
        let second = e.finish_epoch().unwrap();
        assert_eq!(second.counts, vec![2, 1]);
        assert!(second.tally_round > first.tally_round);
    }

    #[test]
    fn bulletin_board_leaks_partial_tallies() {
        // The fairness failure of the baseline: with 2 of 3 ballots posted,
        // the partial tally is already computable mid-phase.
        let mut bb = BulletinBoardElection::new(group(), 3, 2, b"bb");
        bb.vote(0, 1);
        bb.vote(1, 1);
        let partial = bb.partial_tally().unwrap();
        assert_eq!(partial, vec![0, 2], "partial results leak before close");
    }
}
