//! The disjunctive Chaum–Pedersen proof over [`SchnorrGroup`]: a
//! discrete-log-equality (DLEQ) statement proven for one hidden candidate
//! among `k` (CDS OR-composition), made non-interactive with Fiat–Shamir.
//!
//! It is the ballot-validity proof of the self-tallying voting protocol
//! (paper Fig. 18): a voter proves that her ballot `b = r^x · g^v` uses her
//! registered secret exponent `x` (matching verification key `w_x = w^x`)
//! and encodes an allowable vote `v ∈ {0, …, k−1}`, without revealing `v`.
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::group::SchnorrGroup;
//! use sbc_primitives::sigma::{dleq_or_prove, dleq_or_verify};
//! use sbc_primitives::drbg::Drbg;
//!
//! let grp = SchnorrGroup::tiny();
//! let mut rng = Drbg::from_seed(b"doc");
//! let (g1, g2) = (grp.generator(), grp.hash_to_element(b"doc-g2"));
//! let x = grp.random_scalar(&mut rng);
//! let junk = grp.exp(&g2, &grp.random_scalar(&mut rng));
//! // The witness opens candidate 1 of two; the proof does not say which.
//! let targets = [(grp.exp(&g1, &x), junk), (grp.exp(&g1, &x), grp.exp(&g2, &x))];
//! let proof = dleq_or_prove(&grp, &g1, &g2, &targets, 1, &x, b"ctx", &mut rng);
//! assert!(dleq_or_verify(&grp, &g1, &g2, &targets, b"ctx", &proof));
//! assert!(!dleq_or_verify(&grp, &g1, &g2, &targets, b"other", &proof));
//! ```

use crate::bigint::U256;
use crate::drbg::Drbg;
use crate::group::{Element, Scalar, SchnorrGroup};
use crate::sha256::Sha256;

/// Disjunctive DLEQ proof: for one (hidden) index `v` among `k` candidate
/// statements, the prover knows `x` with `h1 = g1^x ∧ t_v = g2^x`, where
/// `t_j` is derived per candidate by the verifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DleqOrProof {
    /// Per-candidate commitments `(A_j, B_j)`.
    pub commitments: Vec<(Element, Element)>,
    /// Per-candidate challenges summing to the Fiat–Shamir challenge.
    pub challenges: Vec<Scalar>,
    /// Per-candidate responses.
    pub responses: Vec<Scalar>,
}

fn or_challenge(
    grp: &SchnorrGroup,
    context: &[u8],
    statements: &[(Element, Element)],
    commitments: &[(Element, Element)],
    bases: (&Element, &Element),
) -> Scalar {
    let mut h = Sha256::new();
    h.update(b"sigma-or-fs-v1");
    h.update(&(context.len() as u64).to_be_bytes());
    h.update(context);
    h.update(&grp.modulus().to_be_bytes());
    h.update(&bases.0 .0.to_be_bytes());
    h.update(&bases.1 .0.to_be_bytes());
    for (s1, s2) in statements {
        h.update(&s1.0.to_be_bytes());
        h.update(&s2.0.to_be_bytes());
    }
    for (a, b) in commitments {
        h.update(&a.0.to_be_bytes());
        h.update(&b.0.to_be_bytes());
    }
    Scalar(U256::from_be_bytes(&h.finalize()).rem(grp.order()))
}

/// Proves that for the (secret) index `real_index`, the prover knows `x`
/// with `targets[real_index] = (g1^x, g2^x)`; the other candidates are
/// simulated (CDS OR-composition).
///
/// `targets[j] = (h1_j, h2_j)` are the per-candidate statement pairs.
///
/// # Panics
///
/// Panics if `real_index` is out of range or `targets` is empty.
#[allow(clippy::too_many_arguments)] // the statement of the OR-relation is 8-ary
pub fn dleq_or_prove(
    grp: &SchnorrGroup,
    g1: &Element,
    g2: &Element,
    targets: &[(Element, Element)],
    real_index: usize,
    x: &Scalar,
    context: &[u8],
    rng: &mut Drbg,
) -> DleqOrProof {
    assert!(!targets.is_empty(), "need at least one candidate");
    assert!(real_index < targets.len(), "real_index out of range");
    let k = targets.len();
    let mut commitments = vec![(grp.one(), grp.one()); k];
    let mut challenges = vec![Scalar(U256::ZERO); k];
    let mut responses = vec![Scalar(U256::ZERO); k];

    // Simulate all branches except the real one.
    for j in 0..k {
        if j == real_index {
            continue;
        }
        let cj = grp.random_scalar(rng);
        let zj = grp.random_scalar(rng);
        let (h1j, h2j) = &targets[j];
        // A_j = g1^{z_j} · h1_j^{-c_j},  B_j = g2^{z_j} · h2_j^{-c_j}
        let a = grp.mul(&grp.exp(g1, &zj), &grp.inv(&grp.exp(h1j, &cj)));
        let b = grp.mul(&grp.exp(g2, &zj), &grp.inv(&grp.exp(h2j, &cj)));
        commitments[j] = (a, b);
        challenges[j] = cj;
        responses[j] = zj;
    }

    // Real branch commitment.
    let s = grp.random_scalar(rng);
    commitments[real_index] = (grp.exp(g1, &s), grp.exp(g2, &s));

    // Fiat–Shamir over everything; real challenge is the remainder.
    let total = or_challenge(grp, context, targets, &commitments, (g1, g2));
    let mut c_real = total;
    for (j, cj) in challenges.iter().enumerate() {
        if j != real_index {
            c_real = grp.scalar_sub(&c_real, cj);
        }
    }
    challenges[real_index] = c_real;
    responses[real_index] = grp.scalar_add(&s, &grp.scalar_mul(&c_real, x));

    DleqOrProof {
        commitments,
        challenges,
        responses,
    }
}

/// Verifies a [`DleqOrProof`] against the candidate statement list.
pub fn dleq_or_verify(
    grp: &SchnorrGroup,
    g1: &Element,
    g2: &Element,
    targets: &[(Element, Element)],
    context: &[u8],
    proof: &DleqOrProof,
) -> bool {
    let k = targets.len();
    if k == 0
        || proof.commitments.len() != k
        || proof.challenges.len() != k
        || proof.responses.len() != k
    {
        return false;
    }
    for (h1, h2) in targets {
        if !grp.is_element(h1) || !grp.is_element(h2) {
            return false;
        }
    }
    // Sum of challenges must equal the Fiat–Shamir challenge.
    let total = or_challenge(grp, context, targets, &proof.commitments, (g1, g2));
    let mut sum = Scalar(U256::ZERO);
    for c in &proof.challenges {
        sum = grp.scalar_add(&sum, c);
    }
    if sum != total {
        return false;
    }
    // Per-branch verification equations.
    for (j, (h1j, h2j)) in targets.iter().enumerate() {
        let (a, b) = &proof.commitments[j];
        let cj = &proof.challenges[j];
        let zj = &proof.responses[j];
        if grp.exp(g1, zj) != grp.mul(a, &grp.exp(h1j, cj)) {
            return false;
        }
        if grp.exp(g2, zj) != grp.mul(b, &grp.exp(h2j, cj)) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SchnorrGroup, Drbg) {
        (SchnorrGroup::tiny(), Drbg::from_seed(b"sigma-tests"))
    }

    fn or_setup(
        grp: &SchnorrGroup,
        rng: &mut Drbg,
        k: usize,
        real: usize,
    ) -> (Element, Element, Vec<(Element, Element)>, Scalar) {
        let g1 = grp.generator();
        let g2 = grp.hash_to_element(b"or-g2");
        let x = grp.random_scalar(rng);
        // Candidate targets: the real one is (g1^x, g2^x); others are junk.
        let mut targets = Vec::new();
        for j in 0..k {
            if j == real {
                targets.push((grp.exp(&g1, &x), grp.exp(&g2, &x)));
            } else {
                let junk = grp.random_scalar(rng);
                let junk2 = grp.random_scalar(rng);
                targets.push((grp.exp(&g1, &junk), grp.exp(&g2, &junk2)));
            }
        }
        (g1, g2, targets, x)
    }

    #[test]
    fn or_proof_completeness_all_indices() {
        let (grp, mut rng) = setup();
        for k in [2usize, 3, 5] {
            for real in 0..k {
                let (g1, g2, targets, x) = or_setup(&grp, &mut rng, k, real);
                let proof = dleq_or_prove(&grp, &g1, &g2, &targets, real, &x, b"or", &mut rng);
                assert!(
                    dleq_or_verify(&grp, &g1, &g2, &targets, b"or", &proof),
                    "k={k} real={real}"
                );
            }
        }
    }

    #[test]
    fn or_proof_without_witness_fails() {
        // Prover claims index 0 but the witness doesn't match target 0.
        let (grp, mut rng) = setup();
        let g1 = grp.generator();
        let g2 = grp.hash_to_element(b"or-g2");
        let x = grp.random_scalar(&mut rng);
        let y = grp.scalar_add(&x, &grp.scalar_from_u64(1));
        let targets = vec![
            (grp.exp(&g1, &y), grp.exp(&g2, &y)),
            (grp.exp(&g1, &y), grp.exp(&g2, &x)),
        ];
        let proof = dleq_or_prove(&grp, &g1, &g2, &targets, 0, &x, b"or", &mut rng);
        assert!(!dleq_or_verify(&grp, &g1, &g2, &targets, b"or", &proof));
    }

    #[test]
    fn or_proof_mismatched_lengths_rejected() {
        let (grp, mut rng) = setup();
        let (g1, g2, targets, x) = or_setup(&grp, &mut rng, 2, 0);
        let mut proof = dleq_or_prove(&grp, &g1, &g2, &targets, 0, &x, b"or", &mut rng);
        proof.challenges.pop();
        assert!(!dleq_or_verify(&grp, &g1, &g2, &targets, b"or", &proof));
    }

    #[test]
    fn or_proof_challenge_sum_checked() {
        let (grp, mut rng) = setup();
        let (g1, g2, targets, x) = or_setup(&grp, &mut rng, 2, 1);
        let mut proof = dleq_or_prove(&grp, &g1, &g2, &targets, 1, &x, b"or", &mut rng);
        proof.challenges[0] = grp.scalar_add(&proof.challenges[0], &grp.scalar_from_u64(1));
        assert!(!dleq_or_verify(&grp, &g1, &g2, &targets, b"or", &proof));
    }

    #[test]
    fn or_proof_does_not_reveal_index() {
        // Proofs for real index 0 and 1 must verify identically; (shape-level
        // zero-knowledge sanity check).
        let (grp, mut rng) = setup();
        let g1 = grp.generator();
        let g2 = grp.hash_to_element(b"or-g2");
        let x = grp.random_scalar(&mut rng);
        let t_real = (grp.exp(&g1, &x), grp.exp(&g2, &x));
        let targets0 = vec![t_real, t_real];
        let p0 = dleq_or_prove(&grp, &g1, &g2, &targets0, 0, &x, b"or", &mut rng);
        let p1 = dleq_or_prove(&grp, &g1, &g2, &targets0, 1, &x, b"or", &mut rng);
        assert!(dleq_or_verify(&grp, &g1, &g2, &targets0, b"or", &p0));
        assert!(dleq_or_verify(&grp, &g1, &g2, &targets0, b"or", &p1));
    }
}
