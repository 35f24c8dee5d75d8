//! # sbc-primitives
//!
//! From-scratch cryptographic substrate for the `sbc` workspace — the
//! reproduction of *"Universally Composable Simultaneous Broadcast against a
//! Dishonest Majority and Applications"* (PODC 2023).
//!
//! Everything here is implemented directly on top of the Rust standard
//! library (no external crypto crates):
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, the workspace's single hash function.
//! * [`prf`] — one SHA-256 PRF over a prepared key block, with
//!   prefix-free input: the crate's only keyed use of SHA-256, under
//!   [`drbg`], the random oracle `F_RO` and [`astrolabous`].
//! * [`drbg`] — a deterministic generator, [`prf`] in counter mode; all
//!   protocol randomness flows through it so executions are reproducible
//!   from a seed.
//! * [`hashchain`] / [`astrolabous`] — sequential hash-chain puzzles and the
//!   Astrolabous TLE scheme built on them, over a one-time symmetric
//!   scheme Σ_SKE on [`prf`] (every ciphertext draws a fresh key).
//! * [`bigint`] / [`group`] — 256-bit modular arithmetic and Schnorr groups
//!   for the voting application (Miller–Rabin lives in the crate-private
//!   `prime`).
//! * [`sigma`] — the disjunctive Chaum–Pedersen proof with Fiat–Shamir
//!   that validates ballots.
//! * [`hex`] — encoding.
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::{drbg::Drbg, sha256::Sha256, hashchain};
//!
//! // A 3-step sequential puzzle hiding a payload:
//! let h = |x: &[u8]| Sha256::digest(x);
//! let mut rng = Drbg::from_seed(b"crate-docs");
//! let rs: Vec<[u8; 32]> = (0..3)
//!     .map(|_| {
//!         let mut r = [0u8; 32];
//!         r.copy_from_slice(&rng.gen_bytes(32));
//!         r
//!     })
//!     .collect();
//! let chain = hashchain::chain_encode(&h, &rs, &[42u8; 32]);
//! let (payload, _witness) = hashchain::chain_solve(&h, &chain).unwrap();
//! assert_eq!(payload, [42u8; 32]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astrolabous;
pub mod bigint;
pub mod drbg;
pub mod group;
pub mod hashchain;
pub mod hex;
pub mod prf;
pub(crate) mod prime;
pub mod sha256;
pub mod sigma;
