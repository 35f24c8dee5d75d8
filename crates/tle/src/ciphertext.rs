//! The Π_TLE ciphertext `c = (c1, c2, c3)` (paper Fig. 12).
//!
//! * `c1` — the Astrolabous time-lock encryption of a random value `ρ`;
//! * `c2` — the message masked with `η = F_RO(ρ)`;
//! * `c3` — the commitment `F_RO(ρ ‖ M)` checked at decryption (this is
//!   what makes adversarial ciphertexts bind to a unique plaintext).

use sbc_primitives::astrolabous::{xor_mask, AstCiphertext};
use sbc_uc::ro::{Caller, RandomOracle};
use sbc_uc::value::Value;
use std::fmt;

/// A Π_TLE ciphertext.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TleCiphertext {
    /// Time-lock encryption of `ρ`.
    pub c1: AstCiphertext,
    /// `M ⊕ H(ρ)` (keystream-expanded).
    pub c2: Vec<u8>,
    /// `H(ρ ‖ M)` commitment.
    pub c3: [u8; 32],
}

impl fmt::Debug for TleCiphertext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TleCiphertext({:?}, |c2|={}B)", self.c1, self.c2.len())
    }
}

impl TleCiphertext {
    /// Serializes the ciphertext.
    pub fn to_bytes(&self) -> Vec<u8> {
        let c1 = self.c1.to_bytes();
        let mut out = Vec::with_capacity(8 + c1.len() + 8 + self.c2.len() + 32);
        out.extend_from_slice(&(c1.len() as u64).to_be_bytes());
        out.extend_from_slice(&c1);
        out.extend_from_slice(&(self.c2.len() as u64).to_be_bytes());
        out.extend_from_slice(&self.c2);
        out.extend_from_slice(&self.c3);
        out
    }

    /// Parses a serialized ciphertext.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let read_u64 = |b: &[u8], pos: &mut usize| -> Option<u64> {
            let v = u64::from_be_bytes(b.get(*pos..*pos + 8)?.try_into().ok()?);
            *pos += 8;
            Some(v)
        };
        let c1_len = read_u64(bytes, &mut pos)? as usize;
        if c1_len > bytes.len() {
            return None;
        }
        let c1 = AstCiphertext::from_bytes(bytes.get(pos..pos + c1_len)?)?;
        pos += c1_len;
        let c2_len = read_u64(bytes, &mut pos)? as usize;
        if c2_len > bytes.len() {
            return None;
        }
        let c2 = bytes.get(pos..pos + c2_len)?.to_vec();
        pos += c2_len;
        let c3: [u8; 32] = bytes.get(pos..pos + 32)?.try_into().ok()?;
        pos += 32;
        if pos != bytes.len() {
            return None;
        }
        Some(TleCiphertext { c1, c2, c3 })
    }

    /// Wraps the ciphertext as a [`Value`] (for wires and responses).
    pub fn to_value(&self) -> Value {
        Value::bytes(self.to_bytes())
    }

    /// Unwraps a [`Value`] ciphertext.
    pub fn from_value(v: &Value) -> Option<Self> {
        Self::from_bytes(v.as_bytes()?)
    }

    /// Opens the ciphertext given `ρ` (the plaintext of `c1`): unmasks
    /// `M = c2 ⊕ F_RO(ρ)`, checks `c3 = F_RO(ρ ‖ M)`, and decodes `M` (raw
    /// bytes if the canonical decoding fails). `None` if the commitment
    /// does not bind.
    pub fn open(&self, ro: &mut RandomOracle, caller: Caller, rho: &[u8]) -> Option<Value> {
        let m_bytes = xor_mask(&ro.query(caller, rho), &self.c2);
        if ro.query(caller, &[rho, &m_bytes[..]].concat()) != self.c3 {
            return None;
        }
        Some(Value::decode(&m_bytes).unwrap_or(Value::Bytes(m_bytes)))
    }
}

/// Encodes the `(c, τ)` pair broadcast through fair broadcast.
pub fn tle_wire(ct: &TleCiphertext, tau: u64) -> Value {
    Value::pair(ct.to_value(), Value::U64(tau))
}

/// Parses a `(c, τ)` pair off the fair-broadcast wire.
pub fn parse_tle_wire(v: &Value) -> Option<(TleCiphertext, u64)> {
    let items = v.as_list()?;
    if items.len() != 2 {
        return None;
    }
    Some((TleCiphertext::from_value(&items[0])?, items[1].as_u64()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_primitives::astrolabous::ast_enc;
    use sbc_primitives::drbg::Drbg;
    use sbc_primitives::sha256::Sha256;

    fn sample() -> TleCiphertext {
        let h = |x: &[u8]| Sha256::digest(x);
        let mut rng = Drbg::from_seed(b"ct");
        TleCiphertext {
            c1: ast_enc(&h, b"rho-bytes-here", 2, 3, &mut rng),
            c2: vec![1, 2, 3, 4, 5],
            c3: [7u8; 32],
        }
    }

    #[test]
    fn bytes_round_trip() {
        let ct = sample();
        assert_eq!(TleCiphertext::from_bytes(&ct.to_bytes()), Some(ct));
    }

    #[test]
    fn value_round_trip() {
        let ct = sample();
        assert_eq!(TleCiphertext::from_value(&ct.to_value()), Some(ct));
    }

    #[test]
    fn wire_round_trip() {
        let ct = sample();
        let wire = tle_wire(&ct, 9);
        assert_eq!(parse_tle_wire(&wire), Some((ct, 9)));
    }

    #[test]
    fn malformed_rejected() {
        assert!(TleCiphertext::from_bytes(&[]).is_none());
        assert!(TleCiphertext::from_bytes(&[0u8; 12]).is_none());
        let mut b = sample().to_bytes();
        b.push(0);
        assert!(TleCiphertext::from_bytes(&b).is_none());
        assert!(parse_tle_wire(&Value::U64(1)).is_none());
    }
}
