//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1), from scratch.
//!
//! The two pad blocks `K ⊕ ipad` and `K ⊕ opad` depend on the key alone,
//! and each is exactly one SHA-256 block. [`HmacKey`] compresses them once
//! and keeps the two chaining states, so a caller that tags many messages
//! under one key — [`Drbg`](crate::drbg::Drbg) within a draw, the random
//! oracle for its lifetime — pays two compressions per short message
//! instead of four. [`hmac_sha256`] and [`HmacSha256`] prepare a key and
//! use it once; every path computes the RFC's function, byte for byte.
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
//! assert_eq!(
//!     sbc_primitives::hex::encode(&tag),
//!     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8",
//! );
//! ```

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).tag(&[message])
}

/// An HMAC-SHA-256 key with both pad blocks already compressed (see the
/// module docs): the SHA-256 chaining states after `K ⊕ ipad` and after
/// `K ⊕ opad`, from which every tag under the key resumes.
#[derive(Clone, Debug)]
pub struct HmacKey {
    ipad: [u32; 8],
    opad: [u32; 8],
}

impl HmacKey {
    /// Prepares `key` (any length; longer than a block is hashed first).
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        HmacKey {
            ipad: Sha256::midstate_of(&block_key.map(|b| b ^ 0x36)),
            opad: Sha256::midstate_of(&block_key.map(|b| b ^ 0x5c)),
        }
    }

    /// The tag of the concatenation of `parts`, which is never built.
    pub fn tag(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut mac = self.begin();
        for part in parts {
            mac.update(part);
        }
        mac.finalize()
    }

    /// An incremental tag under the key, resumed from its inner pad.
    pub(crate) fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::from_midstate(self.ipad),
            opad: self.opad,
        }
    }
}

/// Incremental HMAC-SHA-256.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    opad: [u32; 8],
}

impl HmacSha256 {
    /// Creates an HMAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = Sha256::from_midstate(self.opad);
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// Constant-time verification of an expected tag.
    pub fn verify(self, expected: &[u8]) -> bool {
        let tag = self.finalize();
        if expected.len() != tag.len() {
            return false;
        }
        let mut acc = 0u8;
        for (a, b) in tag.iter().zip(expected.iter()) {
            acc |= a ^ b;
        }
        acc == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 4231 test cases.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let tag = hmac_sha256(&[0xaau8; 20], &[0xddu8; 50]);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=25).collect();
        let tag = hmac_sha256(&key, &[0xcdu8; 50]);
        assert_eq!(
            hex::encode(&tag),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case5_truncated() {
        let tag = hmac_sha256(&[0x0cu8; 20], b"Test With Truncation");
        assert_eq!(hex::encode(&tag[..16]), "a3b6167473100ee06e0c796c2955552b");
    }

    #[test]
    fn rfc4231_case7_long_key_long_data() {
        let tag = hmac_sha256(
            &[0xaau8; 131],
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
        );
        assert_eq!(
            hex::encode(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"m");
        let tag = mac.clone().finalize();
        assert!(mac.clone().verify(&tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!mac.clone().verify(&bad));
        assert!(!mac.verify(&tag[..31]));
    }

    #[test]
    fn prepared_key_tags_parts_as_their_concatenation() {
        // One prepared key, many tags: short, block-long and long keys,
        // messages cut across the inner hash's block boundary.
        let msg: Vec<u8> = (0..150u8).collect();
        for key_len in [0usize, 1, 32, 64, 65, 131] {
            let key = vec![0x42u8; key_len];
            let prepared = HmacKey::new(&key);
            for cut in [0usize, 1, 55, 56, 64, 150] {
                let (head, tail) = msg.split_at(cut);
                assert_eq!(
                    prepared.tag(&[head, &[], tail]),
                    hmac_sha256(&key, &msg),
                    "key {key_len} cut {cut}"
                );
            }
            assert_eq!(prepared.tag(&[]), hmac_sha256(&key, b""));
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"The quick brown fox ");
        mac.update(b"jumps over the lazy dog");
        assert_eq!(
            mac.finalize(),
            hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog")
        );
    }
}
