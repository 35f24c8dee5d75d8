//! Sequential hash-chain puzzles — the raw structure inside Astrolabous
//! time-lock ciphertexts (paper §2.4).
//!
//! A chain over randomness `r_0, …, r_{L-1}` hiding a 32-byte `payload` is
//! the vector
//!
//! ```text
//! (r_0, r_1 ⊕ H(r_0), r_2 ⊕ H(r_1), …, payload ⊕ H(r_{L-1}))
//! ```
//!
//! Recovering `payload` requires exactly `L` *sequential* hash queries:
//! each `r_j` only becomes known after `H(r_{j-1})` has been computed. The
//! UC protocols meter these queries through the `W_q` wrapper, which is what
//! turns "L queries" into "⌈L/q⌉ rounds".
//!
//! The hash function is supplied by the caller as a closure so that the same
//! code runs over a plain hash, an ideal random oracle, or a query-metered
//! wrapper.
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::hashchain::{chain_encode, chain_solve};
//! use sbc_primitives::sha256::Sha256;
//!
//! let h = |x: &[u8]| Sha256::digest(x);
//! let rs = vec![[1u8; 32], [2u8; 32], [3u8; 32]];
//! let payload = [9u8; 32];
//! let chain = chain_encode(&h, &rs, &payload);
//! let (recovered, witness) = chain_solve(&h, &chain).unwrap();
//! assert_eq!(recovered, payload);
//! assert_eq!(witness.len(), 3);
//! ```

use std::fmt;

/// A 32-byte chain element (λ = 256 bits).
pub type Element = [u8; 32];

/// Error returned when a chain is structurally invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainError(&'static str);

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid hash chain: {}", self.0)
    }
}

impl std::error::Error for ChainError {}

fn xor(a: &Element, b: &Element) -> Element {
    let mut out = [0u8; 32];
    for i in 0..32 {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// Builds the chain vector for randomness `rs` hiding `payload`.
///
/// The result has `rs.len() + 1` elements. Building the chain costs
/// `rs.len()` hash queries (these are the *puzzle generation* queries that
/// the protocols batch into their first wrapper query of a round).
///
/// # Panics
///
/// Panics if `rs` is empty — a zero-difficulty chain would expose the
/// payload in the clear.
pub fn chain_encode<H>(hash: &H, rs: &[Element], payload: &Element) -> Vec<Element>
where
    H: Fn(&[u8]) -> Element,
{
    assert!(
        !rs.is_empty(),
        "chain must have at least one randomness element"
    );
    let hashes: Vec<Element> = rs.iter().map(|r| hash(r)).collect();
    chain_encode_with_hashes(rs, &hashes, payload)
}

/// Builds the chain vector when the hashes `H(r_j)` have already been
/// obtained (e.g. from one parallel wrapper batch, as in Π_FBC step 3/Q₀).
///
/// # Panics
///
/// Panics if `rs` is empty or `hashes.len() != rs.len()`.
pub fn chain_encode_with_hashes(
    rs: &[Element],
    hashes: &[Element],
    payload: &Element,
) -> Vec<Element> {
    assert!(
        !rs.is_empty(),
        "chain must have at least one randomness element"
    );
    assert_eq!(rs.len(), hashes.len(), "one hash per randomness element");
    let mut out = Vec::with_capacity(rs.len() + 1);
    out.push(rs[0]);
    for j in 1..rs.len() {
        out.push(xor(&rs[j], &hashes[j - 1]));
    }
    out.push(xor(payload, &hashes[rs.len() - 1]));
    out
}

/// Fully solves a chain, returning `(payload, witness)` where the witness is
/// the list of chain hashes `(H(r_0), …, H(r_{L-1}))` as in `AST.Dec`.
///
/// Costs `chain.len() - 1` sequential hash queries.
///
/// # Errors
///
/// Returns [`ChainError`] if the chain has fewer than two elements.
pub fn chain_solve<H>(mut hash: H, chain: &[Element]) -> Result<(Element, Vec<Element>), ChainError>
where
    H: FnMut(&[u8]) -> Element,
{
    let mut solver = ChainSolver::new(chain)?;
    while !solver.step(&mut hash) {}
    Ok((
        solver.payload().expect("solver done"),
        solver.into_witness(),
    ))
}

/// Recovers the payload from a chain given a precomputed witness
/// (`AST.Dec` given `w_τdec`): `payload = w[L-1] ⊕ chain[L]`.
///
/// # Errors
///
/// Returns [`ChainError`] if the witness length does not match the chain.
pub fn payload_from_witness(chain: &[Element], witness: &[Element]) -> Result<Element, ChainError> {
    if chain.len() < 2 {
        return Err(ChainError("chain shorter than two elements"));
    }
    if witness.len() != chain.len() - 1 {
        return Err(ChainError("witness length does not match chain"));
    }
    Ok(xor(&chain[chain.len() - 1], &witness[witness.len() - 1]))
}

/// Incremental chain solver performing one hash query per [`step`] call.
///
/// This is the object the Π_FBC / Π_TLE protocols keep in their
/// `L_wait`/`L_puzzle` lists: each round one `W_q` round
/// (`QueryWrapper::solve_round` in `sbc-uc`) advances every live solver by
/// one link per batch, so by at most `q` links.
///
/// [`step`]: ChainSolver::step
#[derive(Clone, Debug)]
pub struct ChainSolver {
    chain: Vec<Element>,
    /// Hashes computed so far: `H(r_0), …, H(r_{pos-1})`.
    witness: Vec<Element>,
    /// Current known randomness element `r_pos` (None once done).
    current_r: Option<Element>,
    pos: usize,
}

impl ChainSolver {
    /// Starts solving `chain`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError`] if the chain has fewer than two elements.
    pub fn new(chain: &[Element]) -> Result<Self, ChainError> {
        if chain.len() < 2 {
            return Err(ChainError("chain shorter than two elements"));
        }
        Ok(ChainSolver {
            chain: chain.to_vec(),
            witness: Vec::with_capacity(chain.len() - 1),
            current_r: Some(chain[0]),
            pos: 0,
        })
    }

    /// Number of hash queries still required to finish.
    pub fn remaining(&self) -> usize {
        (self.chain.len() - 1) - self.pos
    }

    /// Total chain length in hash queries.
    pub fn total_steps(&self) -> usize {
        self.chain.len() - 1
    }

    /// True once the payload can be extracted.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Performs one sequential hash query. Returns `true` if the solver just
    /// finished. Calling `step` on a finished solver is a no-op returning
    /// `true`.
    pub fn step<H>(&mut self, mut hash: H) -> bool
    where
        H: FnMut(&[u8]) -> Element,
    {
        if self.is_done() {
            return true;
        }
        let r = self.next_query().expect("not done implies a pending query");
        let h = hash(&r);
        self.feed(h)
    }

    /// The randomness element whose hash is needed next, or `None` if done.
    ///
    /// The `W_q` round batches the `next_query` values of all live solvers
    /// into one wrapper evaluation (Π_FBC step 3, Π_TLE `ENCRYPT&SOLVE`
    /// step 2) and then [`feed`](ChainSolver::feed)s the responses back.
    pub fn next_query(&self) -> Option<Element> {
        self.current_r
    }

    /// Feeds the oracle response for the last [`next_query`] value.
    /// Returns `true` if the solver just finished.
    ///
    /// [`next_query`]: ChainSolver::next_query
    ///
    /// # Panics
    ///
    /// Panics if the solver is already done.
    pub fn feed(&mut self, h: Element) -> bool {
        assert!(!self.is_done(), "feed on finished solver");
        self.witness.push(h);
        self.pos += 1;
        if self.is_done() {
            self.current_r = None;
        } else {
            self.current_r = Some(xor(&self.chain[self.pos], &h));
        }
        self.is_done()
    }

    /// The recovered payload, if solving has finished.
    pub fn payload(&self) -> Option<Element> {
        if self.is_done() {
            Some(xor(
                &self.chain[self.chain.len() - 1],
                &self.witness[self.witness.len() - 1],
            ))
        } else {
            None
        }
    }

    /// Consumes the solver, returning the accumulated witness hashes.
    pub fn into_witness(self) -> Vec<Element> {
        self.witness
    }

    /// The witness hashes accumulated so far.
    pub fn witness(&self) -> &[Element] {
        &self.witness
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::Drbg;
    use crate::sha256::Sha256;

    fn h(x: &[u8]) -> Element {
        Sha256::digest(x)
    }

    fn random_rs(n: usize, seed: &[u8]) -> Vec<Element> {
        let mut rng = Drbg::from_seed(seed);
        (0..n)
            .map(|_| {
                let b = rng.gen_bytes(32);
                let mut e = [0u8; 32];
                e.copy_from_slice(&b);
                e
            })
            .collect()
    }

    #[test]
    fn encode_solve_round_trip() {
        for len in [1usize, 2, 5, 16, 64] {
            let rs = random_rs(len, b"rt");
            let payload = [0x42u8; 32];
            let chain = chain_encode(&h, &rs, &payload);
            assert_eq!(chain.len(), len + 1);
            let (p, w) = chain_solve(&h, &chain).unwrap();
            assert_eq!(p, payload, "len {len}");
            assert_eq!(w.len(), len);
        }
    }

    #[test]
    fn witness_recovers_payload() {
        let rs = random_rs(10, b"w");
        let payload = [7u8; 32];
        let chain = chain_encode(&h, &rs, &payload);
        let (_, w) = chain_solve(&h, &chain).unwrap();
        assert_eq!(payload_from_witness(&chain, &w).unwrap(), payload);
    }

    #[test]
    fn wrong_witness_length_rejected() {
        let rs = random_rs(4, b"wl");
        let chain = chain_encode(&h, &rs, &[0u8; 32]);
        assert!(payload_from_witness(&chain, &[[0u8; 32]; 3]).is_err());
        assert!(payload_from_witness(&[[0u8; 32]], &[]).is_err());
    }

    #[test]
    fn solver_counts_steps_exactly() {
        let rs = random_rs(8, b"steps");
        let chain = chain_encode(&h, &rs, &[1u8; 32]);
        let mut solver = ChainSolver::new(&chain).unwrap();
        assert_eq!(solver.total_steps(), 8);
        let queries = std::cell::Cell::new(0usize);
        while !solver.is_done() {
            solver.step(&|x: &[u8]| {
                queries.set(queries.get() + 1);
                h(x)
            });
        }
        assert_eq!(queries.get(), 8, "exactly L sequential queries");
        assert_eq!(solver.payload().unwrap(), [1u8; 32]);
    }

    #[test]
    fn solver_resumable_across_budgets() {
        // Simulate q=3 queries per round on a 8-step chain: 3 rounds needed.
        let rs = random_rs(8, b"budget");
        let chain = chain_encode(&h, &rs, &[5u8; 32]);
        let mut solver = ChainSolver::new(&chain).unwrap();
        let mut rounds = 0;
        while !solver.is_done() {
            rounds += 1;
            for _ in 0..3 {
                if solver.step(&h) {
                    break;
                }
            }
        }
        assert_eq!(rounds, 3);
        assert_eq!(solver.payload().unwrap(), [5u8; 32]);
    }

    #[test]
    fn step_after_done_is_noop() {
        let rs = random_rs(1, b"noop");
        let chain = chain_encode(&h, &rs, &[3u8; 32]);
        let mut solver = ChainSolver::new(&chain).unwrap();
        assert!(solver.step(&h));
        assert!(solver.step(&h));
        assert_eq!(solver.witness().len(), 1);
    }

    #[test]
    fn intermediate_elements_hide_payload() {
        // No prefix of the chain (without hashing) reveals the payload.
        let rs = random_rs(6, b"hide");
        let payload = [0xAAu8; 32];
        let chain = chain_encode(&h, &rs, &payload);
        for el in &chain {
            assert_ne!(el, &payload);
        }
    }

    #[test]
    fn tampered_chain_yields_wrong_payload() {
        let rs = random_rs(4, b"tamper");
        let payload = [0x1111u16.to_be_bytes()[0]; 32];
        let mut chain = chain_encode(&h, &rs, &payload);
        chain[2][0] ^= 1;
        let (p, _) = chain_solve(&h, &chain).unwrap();
        assert_ne!(p, payload);
    }

    #[test]
    #[should_panic(expected = "at least one randomness")]
    fn empty_randomness_panics() {
        chain_encode(&h, &[], &[0u8; 32]);
    }

    #[test]
    fn short_chain_rejected() {
        assert!(ChainSolver::new(&[[0u8; 32]]).is_err());
        assert!(chain_solve(&h, &[]).is_err());
    }
}
