//! The certification functionality `F_cert` (paper Fig. 4).
//!
//! `F_cert` provides identity-bound signatures: one instance per signer.
//! It keeps the `L_sign` record list and enforces unforgeability *by
//! bookkeeping* (verification of never-signed messages fails while the
//! signer is honest); once the signer is corrupted the adversary may
//! authorize arbitrary pairs — exactly the interface Dolev–Strong needs.
//! The paper assumes `F_cert` (Fact 1 holds in the `F_cert`-hybrid model),
//! and so does this workspace: [`IdealCert`] is the hybrid itself, with no
//! signature scheme realizing it.
//!
//! # Examples
//!
//! ```
//! use sbc_uc::cert::IdealCert;
//! use sbc_uc::ids::PartyId;
//! use sbc_primitives::drbg::Drbg;
//!
//! let mut cert = IdealCert::new(Drbg::from_seed(b"doc"));
//! let sig = cert.sign(b"msg");
//! assert!(cert.verify(b"msg", &sig));
//! assert!(!cert.verify(b"other", &sig));
//! ```

use sbc_primitives::drbg::Drbg;
use std::collections::{HashMap, HashSet};

/// The ideal certification functionality `F_cert^S(P)`.
#[derive(Clone, Debug)]
pub struct IdealCert {
    /// `L_sign`: (message, signature) → verdict.
    records: HashMap<(Vec<u8>, Vec<u8>), bool>,
    /// Messages with at least one valid signature (for rule 2 of Fig. 4).
    signed_messages: HashSet<Vec<u8>>,
    corrupted: bool,
    rng: Drbg,
}

impl IdealCert {
    /// Creates an instance for one signer, the party that owns it;
    /// signature strings are sampled from `rng` (standing in for the
    /// simulator-chosen σ of Fig. 4).
    pub fn new(rng: Drbg) -> Self {
        IdealCert {
            records: HashMap::new(),
            signed_messages: HashSet::new(),
            corrupted: false,
            rng,
        }
    }

    /// Signs `message` as the bound signer.
    pub fn sign(&mut self, message: &[u8]) -> Vec<u8> {
        // The simulator must provide a σ not previously recorded invalid.
        loop {
            let sig = self.rng.gen_bytes(32);
            match self.records.get(&(message.to_vec(), sig.clone())) {
                Some(false) => continue, // would contradict a recorded 0
                _ => {
                    self.records.insert((message.to_vec(), sig.clone()), true);
                    self.signed_messages.insert(message.to_vec());
                    return sig;
                }
            }
        }
    }

    /// Verifies `signature` on `message` for the bound signer.
    pub fn verify(&mut self, message: &[u8], signature: &[u8]) -> bool {
        let key = (message.to_vec(), signature.to_vec());
        // Rule 1/3: recorded verdicts are sticky (consistency).
        if let Some(f) = self.records.get(&key) {
            return *f;
        }
        // Rule 2: unforgeability while the signer is honest.
        if !self.corrupted && !self.signed_messages.contains(message) {
            self.records.insert(key, false);
            return false;
        }
        // Rule 4: the adversary decides ϕ. Our default adversary rejects
        // unless it explicitly authorized the pair via
        // `adversarial_authorize`.
        self.records.insert(key, false);
        false
    }

    /// Marks the signer corrupted (changes forgery semantics per Fig. 4).
    pub fn set_corrupted(&mut self) {
        self.corrupted = true;
    }

    /// Adversary interface: authorize `(message, signature)` as valid.
    /// Only effective while the signer is corrupted.
    pub fn adversarial_authorize(&mut self, message: &[u8], signature: &[u8]) -> bool {
        if !self.corrupted {
            return false;
        }
        let key = (message.to_vec(), signature.to_vec());
        if let Some(f) = self.records.get(&key) {
            return *f; // sticky verdicts cannot be overwritten
        }
        self.records.insert(key, true);
        self.signed_messages.insert(message.to_vec());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sign_verify() {
        let mut c = IdealCert::new(Drbg::from_seed(b"c"));
        let sig = c.sign(b"m1");
        assert!(c.verify(b"m1", &sig));
        assert!(!c.verify(b"m2", &sig));
    }

    #[test]
    fn ideal_unforgeable_while_honest() {
        let mut c = IdealCert::new(Drbg::from_seed(b"c"));
        assert!(!c.verify(b"never-signed", b"fake-sig"));
        // And not even the adversary can authorize before corruption.
        assert!(!c.adversarial_authorize(b"never-signed", b"fake-sig"));
        assert!(!c.verify(b"never-signed", b"fake-sig"));
    }

    #[test]
    fn ideal_verdicts_sticky() {
        let mut c = IdealCert::new(Drbg::from_seed(b"c"));
        assert!(!c.verify(b"m", b"s")); // records (m, s, 0)
        c.set_corrupted();
        // Even after corruption the recorded 0 verdict stands (rule 3).
        assert!(!c.adversarial_authorize(b"m", b"s"));
        assert!(!c.verify(b"m", b"s"));
    }

    #[test]
    fn ideal_corrupted_signer_forgeable() {
        let mut c = IdealCert::new(Drbg::from_seed(b"c"));
        c.set_corrupted();
        assert!(c.adversarial_authorize(b"forged", b"sig"));
        assert!(c.verify(b"forged", b"sig"));
    }
}
