//! Symmetric-key encryption Σ_SKE = (Gen, Enc, Dec) used inside Astrolabous.
//!
//! The paper only requires a semantically secure symmetric scheme; we
//! instantiate it as a SHA-256 counter-mode stream cipher with an HMAC tag
//! (encrypt-then-MAC), which is IND-CPA (and INT-CTXT) in the random-oracle
//! model.

use crate::drbg::Drbg;
use crate::hmac::hmac_sha256;
use crate::sha256::{Sha256, DIGEST_LEN};
use std::fmt;

/// Byte length of an SKE key.
pub const KEY_LEN: usize = 32;

/// Byte length of the nonce prepended to each ciphertext.
pub const NONCE_LEN: usize = 16;

/// A 256-bit symmetric key (`SKE.Gen` output).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SkeKey(pub [u8; KEY_LEN]);

impl fmt::Debug for SkeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SkeKey(..)")
    }
}

impl SkeKey {
    /// Samples a fresh key (`SKE.Gen(1^λ)`).
    pub fn generate(rng: &mut Drbg) -> Self {
        let b = rng.gen_bytes(KEY_LEN);
        let mut k = [0u8; KEY_LEN];
        k.copy_from_slice(&b);
        SkeKey(k)
    }

    /// Builds a key from raw bytes.
    pub fn from_bytes(bytes: &[u8; KEY_LEN]) -> Self {
        SkeKey(*bytes)
    }
}

/// Error returned when decryption fails authentication or framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecryptError;

impl fmt::Display for DecryptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ciphertext failed authentication")
    }
}

impl std::error::Error for DecryptError {}

fn keystream_block(key: &SkeKey, nonce: &[u8], counter: u64) -> [u8; DIGEST_LEN] {
    Sha256::digest_parts(&[b"ske-ctr", &key.0, nonce, &counter.to_be_bytes()])
}

fn xor_keystream(key: &SkeKey, nonce: &[u8], data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for (i, chunk) in data.chunks(DIGEST_LEN).enumerate() {
        let ks = keystream_block(key, nonce, i as u64);
        for (j, b) in chunk.iter().enumerate() {
            out.push(b ^ ks[j]);
        }
    }
    out
}

/// Encrypts `plaintext` under `key` (`SKE.Enc`).
///
/// Layout: `nonce (16) || body || tag (32)`.
pub fn encrypt(key: &SkeKey, plaintext: &[u8], rng: &mut Drbg) -> Vec<u8> {
    let nonce = rng.gen_bytes(NONCE_LEN);
    let body = xor_keystream(key, &nonce, plaintext);
    let mut ct = nonce;
    ct.extend_from_slice(&body);
    let tag = hmac_sha256(&key.0, &ct);
    ct.extend_from_slice(&tag);
    ct
}

/// Decrypts a ciphertext produced by [`encrypt`] (`SKE.Dec`).
///
/// # Errors
///
/// Returns [`DecryptError`] if the ciphertext is too short or the
/// authentication tag does not verify.
pub fn decrypt(key: &SkeKey, ciphertext: &[u8]) -> Result<Vec<u8>, DecryptError> {
    if ciphertext.len() < NONCE_LEN + DIGEST_LEN {
        return Err(DecryptError);
    }
    let (framed, tag) = ciphertext.split_at(ciphertext.len() - DIGEST_LEN);
    let expect = hmac_sha256(&key.0, framed);
    let mut acc = 0u8;
    for (a, b) in expect.iter().zip(tag.iter()) {
        acc |= a ^ b;
    }
    if acc != 0 {
        return Err(DecryptError);
    }
    let (nonce, body) = framed.split_at(NONCE_LEN);
    Ok(xor_keystream(key, nonce, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Drbg {
        Drbg::from_seed(b"ske-tests")
    }

    #[test]
    fn round_trip() {
        let mut r = rng();
        let key = SkeKey::generate(&mut r);
        for len in [0usize, 1, 31, 32, 33, 100, 1000] {
            let pt: Vec<u8> = (0..len as u32).map(|i| (i % 251) as u8).collect();
            let ct = encrypt(&key, &pt, &mut r);
            assert_eq!(decrypt(&key, &ct).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn wrong_key_fails() {
        let mut r = rng();
        let k1 = SkeKey::generate(&mut r);
        let k2 = SkeKey::generate(&mut r);
        let ct = encrypt(&k1, b"secret", &mut r);
        assert_eq!(decrypt(&k2, &ct), Err(DecryptError));
    }

    #[test]
    fn tampering_detected() {
        let mut r = rng();
        let key = SkeKey::generate(&mut r);
        let ct = encrypt(&key, b"secret", &mut r);
        for i in 0..ct.len() {
            let mut bad = ct.clone();
            bad[i] ^= 0x80;
            assert_eq!(decrypt(&key, &bad), Err(DecryptError), "byte {i}");
        }
    }

    #[test]
    fn short_ciphertext_rejected() {
        let key = SkeKey::from_bytes(&[7u8; KEY_LEN]);
        assert_eq!(decrypt(&key, &[0u8; 10]), Err(DecryptError));
        assert_eq!(decrypt(&key, &[]), Err(DecryptError));
    }

    #[test]
    fn ciphertexts_randomized() {
        let mut r = rng();
        let key = SkeKey::generate(&mut r);
        let c1 = encrypt(&key, b"same message", &mut r);
        let c2 = encrypt(&key, b"same message", &mut r);
        assert_ne!(c1, c2);
    }

    #[test]
    fn key_debug_redacts() {
        let key = SkeKey::from_bytes(&[9u8; KEY_LEN]);
        assert_eq!(format!("{key:?}"), "SkeKey(..)");
    }
}
