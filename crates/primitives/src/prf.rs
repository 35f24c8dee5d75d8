//! The one keyed PRF under [`Drbg`](crate::drbg::Drbg) and the random
//! oracle `F_RO`: SHA-256 resumed from the chaining state of a key block.
//!
//! [`Prf::new`] compresses the block `key ‖ 0^32` once. [`Prf::eval`]
//! resumes from that state and hashes
//! `domain ‖ LEB128(|data|) ‖ data ‖ ctr_be64`. The length prefix is
//! self-delimiting and the other fields have fixed width, so the encoding
//! is injective and no encoding is a prefix of another. Prefix-free
//! Merkle–Damgård over a keyed first block is a PRF whenever the
//! compression function is (Bellare–Canetti–Krawczyk, "Pseudorandom
//! functions revisited: the cascade construction", FOCS 1996). The
//! midstate is only a cache: `eval` equals
//! `SHA-256(key ‖ 0^32 ‖ domain ‖ LEB128(|data|) ‖ data ‖ ctr_be64)`.
//!
//! Data of up to 45 bytes costs exactly one compression. The domain bytes
//! of the workspace are the four constants below, one per use:
//!
//! | operation | compressions |
//! |---|---|
//! | seeding a [`Drbg`](crate::drbg::Drbg) stream | 2 |
//! | a fork (label ≤ 45 bytes) | 2 |
//! | one 32-byte draw block | 1 |
//! | an `F_RO` point or mask block for a 32-byte `ρ` | 1 |
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::prf::{Prf, DRAW, FORK};
//!
//! let prf = Prf::new([7u8; 32]);
//! assert_eq!(prf.eval(DRAW, b"", 0), prf.eval(DRAW, b"", 0));
//! assert_ne!(prf.eval(DRAW, b"", 0), prf.eval(FORK, b"", 0));
//! ```

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Domain of a [`Drbg`](crate::drbg::Drbg) output block.
pub const DRAW: u8 = 0x01;
/// Domain of a [`Drbg`](crate::drbg::Drbg) child's key.
pub const FORK: u8 = 0x02;
/// Domain of an unprogrammed fixed-length `F_RO` point.
pub const POINT: u8 = 0x03;
/// Domain of a block of an unprogrammed variable-length `F_RO` point.
pub const MASK: u8 = 0x04;

/// A PRF key, held as the SHA-256 chaining state after its key block.
#[derive(Clone, Debug)]
pub struct Prf {
    state: [u32; 8],
}

impl Prf {
    /// Keys the PRF: one compression of `key ‖ 0^32`.
    pub fn new(key: [u8; DIGEST_LEN]) -> Self {
        let mut block = [0u8; BLOCK_LEN];
        block[..DIGEST_LEN].copy_from_slice(&key);
        Prf {
            state: Sha256::midstate_of(&block),
        }
    }

    /// The output at `domain ‖ LEB128(|data|) ‖ data ‖ ctr_be64`.
    pub fn eval(&self, domain: u8, data: &[u8], ctr: u64) -> [u8; DIGEST_LEN] {
        // The domain byte and at most ten LEB128 bytes of a `u64` length.
        let mut head = [0u8; 11];
        head[0] = domain;
        let mut n = 1;
        let mut len = data.len() as u64;
        while len >= 0x80 {
            head[n] = len as u8 | 0x80;
            len >>= 7;
            n += 1;
        }
        head[n] = len as u8;
        let mut h = Sha256::from_midstate(self.state);
        h.update(&head[..=n]);
        h.update(data);
        h.update(&ctr.to_be_bytes());
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn prf() -> Prf {
        Prf::new(core::array::from_fn(|i| i as u8))
    }

    #[test]
    fn golden_outputs() {
        // One output per domain, pinned against an independent model
        // (Python `hashlib`, from the definition in the module docs).
        let p = prf();
        let label = b"party/123";
        let point: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
        for (domain, data, ctr, want) in [
            (
                DRAW,
                &b""[..],
                0,
                "3a64118c95d85535aa6a74cb34cb8ea0fdbfab1ed01a237c7e08e366b6deb51d",
            ),
            (
                FORK,
                &label[..],
                1,
                "59680a7747d55912b89247bb9f101ce20de87c9872cbcb3c0d9e9c8d8fef5d21",
            ),
            (
                POINT,
                &point[..],
                0,
                "d5002c6973968f51670ffa22f7336c49dab481e42a3d6022558a50653aa6664b",
            ),
            (
                MASK,
                &point[..40],
                1 << 32,
                "a5f3ae8e18f3856f5a132096fccebc0a4aefdaa0fb942fbbbab1a1dae2ceb5ef",
            ),
        ] {
            assert_eq!(hex::encode(&p.eval(domain, data, ctr)), want, "{domain}");
        }
    }

    #[test]
    fn encodings_are_prefix_free() {
        // Every pair of inputs the workspace produces: no encoding is a
        // prefix of (or equal to) another's.
        fn encode(domain: u8, data: &[u8], ctr: u64) -> Vec<u8> {
            let mut out = vec![domain];
            let mut len = data.len() as u64;
            while len >= 0x80 {
                out.push(len as u8 | 0x80);
                len >>= 7;
            }
            out.push(len as u8);
            out.extend_from_slice(data);
            out.extend_from_slice(&ctr.to_be_bytes());
            out
        }
        let key = [0x5au8; DIGEST_LEN];
        let p = Prf::new(key);
        let point: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        let mut encodings = Vec::new();
        for domain in [DRAW, FORK, POINT, MASK] {
            for data in [&b""[..], b"party/123", &point[..40], &point] {
                for ctr in [0, 1, 1 << 32] {
                    let e = encode(domain, data, ctr);
                    // `encode` is what `eval` hashes after the key block.
                    let msg = [&key[..], &[0u8; DIGEST_LEN], &e].concat();
                    assert_eq!(p.eval(domain, data, ctr), Sha256::digest(&msg));
                    encodings.push(e);
                }
            }
        }
        for (i, a) in encodings.iter().enumerate() {
            for (j, b) in encodings.iter().enumerate() {
                assert!(i == j || !b.starts_with(a), "encoding {i} prefixes {j}");
            }
        }
    }
}
