//! The Astrolabous time-lock encryption scheme (paper §2.4, from \[ALZ21]).
//!
//! `AST.Enc(M, τ_dec)` hides a symmetric key `k` at the end of a hash chain
//! of length `q·τ_dec` and encrypts `M` under `k`; `AST.Dec` requires the
//! decryption witness `(H(r_0), …, H(r_{qτ−1}))`, computable only by
//! `q·τ_dec` *sequential* hash queries. Metered at `q` query batches per
//! round by the `W_q` wrapper, opening takes exactly `τ_dec` rounds.
//!
//! The hash is supplied as a closure so the same code runs over a plain
//! hash, the ideal `F*_RO`, or the metered wrapper.
//!
//! Σ_SKE runs on the workspace's one keyed primitive, [`Prf`]:
//! `Enc_k(M) = body ‖ Prf_k.eval(TAG, body, 0)` with
//! `body = Prf_k.xor(M)`, encrypt-then-MAC with no nonce. That is sound
//! only because Σ_SKE is one-time here: `AST.Enc` draws a fresh `k` for
//! every ciphertext and encrypts one message under it.
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::astrolabous::{ast_enc, ast_solve_and_dec};
//! use sbc_primitives::drbg::Drbg;
//! use sbc_primitives::sha256::Sha256;
//!
//! let h = |x: &[u8]| Sha256::digest(x);
//! let mut rng = Drbg::from_seed(b"doc");
//! let ct = ast_enc(&h, b"message", 2, 3, &mut rng); // τ_dec = 2, q = 3
//! assert_eq!(ast_solve_and_dec(&h, &ct).unwrap(), b"message");
//! ```

use crate::drbg::Drbg;
use crate::hashchain::{self, Element};
use crate::prf::{Prf, TAG};
use crate::sha256::DIGEST_LEN;
use std::fmt;

/// An Astrolabous ciphertext `c = (τ_dec, c_{M,k}, c_{k,τ_dec})`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AstCiphertext {
    /// Time-lock difficulty in rounds.
    pub tau_dec: u64,
    /// `c_{M,k}`: the one-time Σ_SKE encryption of the message under `k`,
    /// `body ‖ tag`.
    pub ske_ct: Vec<u8>,
    /// `c_{k,τ_dec}`: the hash chain hiding `k` (length `q·τ_dec + 1`).
    pub chain: Vec<Element>,
}

impl fmt::Debug for AstCiphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AstCiphertext(τ={}, |ske|={}B, chain={} links)",
            self.tau_dec,
            self.ske_ct.len(),
            self.chain.len()
        )
    }
}

/// Error returned when decryption fails (bad witness, tampered ciphertext).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AstDecryptError;

impl fmt::Display for AstDecryptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Astrolabous decryption failed")
    }
}

impl std::error::Error for AstDecryptError {}

impl AstCiphertext {
    /// Serializes to a byte string.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 + self.ske_ct.len() + 8 + self.chain.len() * 32);
        out.extend_from_slice(&self.tau_dec.to_be_bytes());
        out.extend_from_slice(&(self.ske_ct.len() as u64).to_be_bytes());
        out.extend_from_slice(&self.ske_ct);
        out.extend_from_slice(&(self.chain.len() as u64).to_be_bytes());
        for e in &self.chain {
            out.extend_from_slice(e);
        }
        out
    }

    /// Parses a serialized ciphertext.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let read_u64 = |b: &[u8], pos: &mut usize| -> Option<u64> {
            let v = u64::from_be_bytes(b.get(*pos..*pos + 8)?.try_into().ok()?);
            *pos += 8;
            Some(v)
        };
        let mut pos = 0usize;
        let tau_dec = read_u64(bytes, &mut pos)?;
        let ske_len = read_u64(bytes, &mut pos)? as usize;
        if ske_len > bytes.len() {
            return None;
        }
        let ske_ct = bytes.get(pos..pos + ske_len)?.to_vec();
        pos += ske_len;
        let chain_len = read_u64(bytes, &mut pos)? as usize;
        if chain_len > bytes.len() / 32 + 1 {
            return None;
        }
        let mut chain = Vec::with_capacity(chain_len);
        for _ in 0..chain_len {
            let e: Element = bytes.get(pos..pos + 32)?.try_into().ok()?;
            chain.push(e);
            pos += 32;
        }
        if pos != bytes.len() || chain.len() < 2 {
            return None;
        }
        Some(AstCiphertext {
            tau_dec,
            ske_ct,
            chain,
        })
    }
}

/// Samples the chain randomness `r_0‖…‖r_{qτ−1}` (step 3 of `AST.Enc`).
pub fn sample_chain_randomness(tau_dec: u64, q: u32, rng: &mut Drbg) -> Vec<Element> {
    let len = (tau_dec * q as u64) as usize;
    (0..len)
        .map(|_| {
            let b = rng.gen_bytes(32);
            let mut e = [0u8; 32];
            e.copy_from_slice(&b);
            e
        })
        .collect()
}

/// `AST.Enc`: encrypts `msg` with time-lock difficulty `tau_dec` rounds at
/// `q` queries per round.
///
/// # Panics
///
/// Panics if `tau_dec == 0`.
pub fn ast_enc<H>(hash: &H, msg: &[u8], tau_dec: u64, q: u32, rng: &mut Drbg) -> AstCiphertext
where
    H: Fn(&[u8]) -> Element,
{
    assert!(tau_dec > 0, "time-lock difficulty must be positive");
    let rs = sample_chain_randomness(tau_dec, q, rng);
    let hashes: Vec<Element> = rs.iter().map(|r| hash(r)).collect();
    ast_enc_with_hashes(msg, tau_dec, &rs, &hashes, rng)
}

/// `AST.Enc` when the chain hashes were already obtained from one parallel
/// wrapper batch (protocol step `Q_0`).
///
/// # Panics
///
/// Panics if `rs` is empty or `hashes.len() != rs.len()`.
pub fn ast_enc_with_hashes(
    msg: &[u8],
    tau_dec: u64,
    rs: &[Element],
    hashes: &[Element],
    rng: &mut Drbg,
) -> AstCiphertext {
    let mut key = [0u8; DIGEST_LEN];
    rng.fill(&mut key);
    let ske_ct = seal(key, msg);
    let chain = hashchain::chain_encode_with_hashes(rs, hashes, &key);
    AstCiphertext {
        tau_dec,
        ske_ct,
        chain,
    }
}

/// `AST.Dec` given a precomputed decryption witness.
///
/// # Errors
///
/// Returns [`AstDecryptError`] if the witness or ciphertext is invalid.
pub fn ast_dec(ct: &AstCiphertext, witness: &[Element]) -> Result<Vec<u8>, AstDecryptError> {
    let key = hashchain::payload_from_witness(&ct.chain, witness).map_err(|_| AstDecryptError)?;
    open(key, &ct.ske_ct)
}

/// `Σ_SKE.Enc` under the one-time key `k`: `body ‖ Prf_k.eval(TAG, body, 0)`
/// with `body = Prf_k.xor(M)`.
fn seal(key: Element, msg: &[u8]) -> Vec<u8> {
    let prf = Prf::new(key);
    let mut ct = prf.xor(msg);
    let tag = prf.eval(TAG, &ct, 0);
    ct.extend_from_slice(&tag);
    ct
}

/// `Σ_SKE.Dec`: checks the tag in constant time, then unmasks the body.
fn open(key: Element, ct: &[u8]) -> Result<Vec<u8>, AstDecryptError> {
    let body_len = ct.len().checked_sub(DIGEST_LEN).ok_or(AstDecryptError)?;
    let (body, tag) = ct.split_at(body_len);
    let prf = Prf::new(key);
    let diff = prf
        .eval(TAG, body, 0)
        .iter()
        .zip(tag)
        .fold(0, |acc, (a, b)| acc | (a ^ b));
    if diff != 0 {
        return Err(AstDecryptError);
    }
    Ok(prf.xor(body))
}

/// Solves the puzzle (sequentially) and decrypts — the adversary/simulator
/// path with unmetered hashing.
///
/// # Errors
///
/// Returns [`AstDecryptError`] if the ciphertext is malformed or fails
/// authentication.
pub fn ast_solve_and_dec<H>(hash: H, ct: &AstCiphertext) -> Result<Vec<u8>, AstDecryptError>
where
    H: FnMut(&[u8]) -> Element,
{
    let (_, witness) = hashchain::chain_solve(hash, &ct.chain).map_err(|_| AstDecryptError)?;
    ast_dec(ct, &witness)
}

/// The equivocation mask `M ⊕ η` of Π_FBC/Π_TLE with variable-length
/// messages: `data` XORed with the keystream of the [`Prf`] keyed by
/// `seed` ([`Prf::xor`]). Involution: applying twice recovers `data`.
pub fn xor_mask(seed: &[u8; 32], data: &[u8]) -> Vec<u8> {
    Prf::new(*seed).xor(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashchain::ChainSolver;
    use crate::sha256::Sha256;

    fn h(x: &[u8]) -> Element {
        Sha256::digest(x)
    }

    fn rng() -> Drbg {
        Drbg::from_seed(b"ast-tests")
    }

    #[test]
    fn enc_dec_round_trip() {
        let mut r = rng();
        for (tau, q) in [(1u64, 1u32), (2, 3), (3, 5)] {
            let ct = ast_enc(&h, b"secret message", tau, q, &mut r);
            assert_eq!(ct.chain.len() - 1, (tau * q as u64) as usize);
            assert_eq!(
                ast_solve_and_dec(&h, &ct).unwrap(),
                b"secret message",
                "tau={tau} q={q}"
            );
        }
    }

    #[test]
    fn witness_based_decryption() {
        let mut r = rng();
        let ct = ast_enc(&h, b"msg", 2, 4, &mut r);
        let mut solver = ChainSolver::new(&ct.chain).unwrap();
        while !solver.is_done() {
            solver.step(&h);
        }
        let witness = solver.into_witness();
        assert_eq!(ast_dec(&ct, &witness).unwrap(), b"msg");
    }

    #[test]
    fn wrong_witness_rejected() {
        let mut r = rng();
        let ct = ast_enc(&h, b"msg", 1, 4, &mut r);
        let bad = vec![[0u8; 32]; ct.chain.len() - 1];
        assert!(ast_dec(&ct, &bad).is_err());
        assert!(ast_dec(&ct, &[]).is_err());
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        // Every byte of `ske_ct`, body and tag alike.
        let mut r = rng();
        let ct = ast_enc(&h, b"secret", 1, 4, &mut r);
        assert_eq!(ct.ske_ct.len(), 6 + DIGEST_LEN);
        for i in 0..ct.ske_ct.len() {
            let mut bad = ct.clone();
            bad.ske_ct[i] ^= 0x80;
            assert!(ast_solve_and_dec(&h, &bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn wrong_chain_payload_rejected() {
        // A chain hiding another key than the one `ske_ct` was sealed under.
        let mut r = rng();
        let mut ct = ast_enc(&h, b"secret", 1, 4, &mut r);
        let other = ast_enc(&h, b"secret", 1, 4, &mut r);
        ct.chain = other.chain;
        assert_eq!(ast_solve_and_dec(&h, &ct), Err(AstDecryptError));
    }

    #[test]
    fn ske_ct_shorter_than_a_tag_rejected() {
        let mut r = rng();
        let ct = ast_enc(&h, b"", 1, 4, &mut r);
        assert_eq!(ct.ske_ct.len(), DIGEST_LEN);
        assert_eq!(ast_solve_and_dec(&h, &ct), Ok(Vec::new()));
        for len in [0, 1, DIGEST_LEN - 1] {
            let mut bad = ct.clone();
            bad.ske_ct.truncate(len);
            assert!(ast_solve_and_dec(&h, &bad).is_err(), "len {len}");
        }
    }

    #[test]
    fn tampered_chain_rejected() {
        // The Σ_SKE tag catches a corrupted chain (wrong key recovered).
        let mut r = rng();
        let mut ct = ast_enc(&h, b"msg", 1, 4, &mut r);
        ct.chain[1][5] ^= 1;
        assert!(ast_solve_and_dec(&h, &ct).is_err());
    }

    #[test]
    fn serialization_round_trip() {
        let mut r = rng();
        let ct = ast_enc(&h, b"round trip", 2, 3, &mut r);
        let bytes = ct.to_bytes();
        assert_eq!(AstCiphertext::from_bytes(&bytes), Some(ct));
    }

    #[test]
    fn malformed_bytes_rejected() {
        assert_eq!(AstCiphertext::from_bytes(&[]), None);
        assert_eq!(AstCiphertext::from_bytes(&[0u8; 10]), None);
        let mut r = rng();
        let ct = ast_enc(&h, b"x", 1, 2, &mut r);
        let mut bytes = ct.to_bytes();
        bytes.push(0); // trailing garbage
        assert_eq!(AstCiphertext::from_bytes(&bytes), None);
    }

    #[test]
    fn sequentiality_step_count() {
        let mut r = rng();
        let ct = ast_enc(&h, b"count", 3, 7, &mut r);
        let mut solver = ChainSolver::new(&ct.chain).unwrap();
        let mut steps = 0;
        while !solver.is_done() {
            solver.step(&h);
            steps += 1;
        }
        assert_eq!(steps, 21, "q·τ = 7·3 sequential queries");
    }

    #[test]
    fn xor_mask_involution() {
        let seed = [9u8; 32];
        for len in [0usize, 1, 31, 32, 33, 100] {
            let data: Vec<u8> = (0..len as u32).map(|i| i as u8).collect();
            let masked = xor_mask(&seed, &data);
            assert_eq!(xor_mask(&seed, &masked), data, "len {len}");
            if len > 0 {
                assert_ne!(masked, data);
            }
        }
    }

    #[test]
    fn xor_mask_seed_sensitivity() {
        let a = xor_mask(&[1u8; 32], b"data");
        let b = xor_mask(&[2u8; 32], b"data");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "difficulty must be positive")]
    fn zero_difficulty_panics() {
        ast_enc(&h, b"x", 0, 4, &mut rng());
    }

    #[test]
    fn ciphertexts_hide_message() {
        // Semantic sanity: two encryptions of the same message differ.
        let mut r = rng();
        let c1 = ast_enc(&h, b"same", 1, 3, &mut r);
        let c2 = ast_enc(&h, b"same", 1, 3, &mut r);
        assert_ne!(c1, c2);
    }
}
