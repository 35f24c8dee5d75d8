//! Deterministic random bit generator: [`Prf`] in counter mode.
//!
//! All protocol-internal randomness in the workspace flows through this DRBG
//! so that executions are reproducible from a seed — which is what makes the
//! real-vs-ideal indistinguishability experiments exact rather than flaky.
//!
//! A stream is a PRF key and a counter. [`Drbg::from_seed`] keys the PRF
//! with `SHA-256("sbc/drbg" ‖ seed)`. Every draw of `n` bytes is
//! ⌈n/32⌉ blocks `eval(DRAW, [], ctr++)`, and [`fork`](Drbg::fork) keys its
//! child with `eval(FORK, label, ctr++)`, so the stream is a function of
//! the seed and the sequence of draw lengths and labels — `gen_u64` and
//! `gen_bool` are 8- and 1-byte draws — pinned by `golden_stream`.
//!
//! | operation | compressions |
//! |---|---|
//! | seeding a stream (seed ≤ 47 bytes) | 2 |
//! | a fork (label ≤ 45 bytes) | 2 |
//! | one 32-byte draw block | 1 |
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::drbg::Drbg;
//!
//! let mut a = Drbg::from_seed(b"seed");
//! let mut b = Drbg::from_seed(b"seed");
//! assert_eq!(a.gen_bytes(16), b.gen_bytes(16));
//! ```

use crate::prf::{Prf, DRAW, FORK};
use crate::sha256::{Sha256, DIGEST_LEN};

/// Deterministic PRF-counter-mode random generator.
#[derive(Clone, Debug)]
pub struct Drbg {
    prf: Prf,
    /// The next block's counter: one per output block or fork.
    ctr: u64,
}

impl Drbg {
    /// Instantiates the DRBG from arbitrary seed material.
    pub fn from_seed(seed: &[u8]) -> Self {
        Drbg::keyed(Sha256::digest_parts(&[b"sbc/drbg", seed]))
    }

    fn keyed(key: [u8; DIGEST_LEN]) -> Self {
        Drbg {
            prf: Prf::new(key),
            ctr: 0,
        }
    }

    /// The next counter value.
    fn next_ctr(&mut self) -> u64 {
        self.ctr += 1;
        self.ctr - 1
    }

    /// Derives an independent child generator labelled by `label`.
    ///
    /// Children with distinct labels produce independent streams; this is how
    /// per-party and per-functionality randomness is separated from one
    /// master experiment seed.
    pub fn fork(&mut self, label: &[u8]) -> Drbg {
        let ctr = self.next_ctr();
        Drbg::keyed(self.prf.eval(FORK, label, ctr))
    }

    /// Fills `out` with the next pseudorandom bytes: one draw, whatever
    /// the length.
    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(DIGEST_LEN) {
            let ctr = self.next_ctr();
            chunk.copy_from_slice(&self.prf.eval(DRAW, &[], ctr)[..chunk.len()]);
        }
    }

    /// Generates `n` pseudorandom bytes.
    pub fn gen_bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.fill(&mut out);
        out
    }

    /// Generates a uniform `u64`.
    pub fn gen_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    /// Generates a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.gen_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Generates a uniform boolean.
    pub fn gen_bool(&mut self) -> bool {
        let mut b = [0u8; 1];
        self.fill(&mut b);
        b[0] & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Drbg::from_seed(b"x");
        let mut b = Drbg::from_seed(b"x");
        assert_eq!(a.gen_bytes(100), b.gen_bytes(100));
        assert_eq!(a.gen_u64(), b.gen_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Drbg::from_seed(b"x");
        let mut b = Drbg::from_seed(b"y");
        assert_ne!(a.gen_bytes(32), b.gen_bytes(32));
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut root1 = Drbg::from_seed(b"root");
        let mut root2 = Drbg::from_seed(b"root");
        let mut c1 = root1.fork(b"child-a");
        let mut c2 = root2.fork(b"child-a");
        assert_eq!(c1.gen_bytes(32), c2.gen_bytes(32));
        let mut c3 = root1.fork(b"child-b");
        assert_ne!(c1.gen_bytes(32), c3.gen_bytes(32));
    }

    #[test]
    fn consecutive_outputs_differ() {
        let mut d = Drbg::from_seed(b"s");
        assert_ne!(d.gen_bytes(32), d.gen_bytes(32));
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut d = Drbg::from_seed(b"s");
        for _ in 0..1000 {
            assert!(d.gen_range(7) < 7);
        }
        assert_eq!(d.gen_range(1), 0);
    }

    #[test]
    fn gen_range_covers_values() {
        let mut d = Drbg::from_seed(b"s");
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[d.gen_range(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        Drbg::from_seed(b"s").gen_range(0);
    }

    #[test]
    fn golden_stream() {
        // Every draw shape the workspace uses, in one stream, pinned
        // against an independent model of this generator (Python
        // `hashlib`, from the definitions in this module and `prf`).
        let mut d = Drbg::from_seed(b"kat");
        let mut stream = Sha256::new();
        for n in [0usize, 1, 31, 32, 33, 64, 100, 4096] {
            let bytes = d.gen_bytes(n);
            assert_eq!(bytes.len(), n);
            stream.update(&bytes);
        }
        stream.update(&d.gen_u64().to_be_bytes());
        stream.update(&d.gen_range(10).to_be_bytes());
        stream.update(&[d.gen_bool() as u8]);
        stream.update(&d.fork(b"child").gen_bytes(32));
        assert_eq!(
            crate::hex::encode(&stream.finalize()),
            "3f8fde1c06943e7ee95ec2c5b30f19f75674368d677abfcfd567572147df38f7"
        );
        assert_eq!(
            crate::hex::encode(&Drbg::from_seed(b"kat").gen_bytes(32)),
            "3b7edf441f8fe33f224ca4b000219fbff2e674c5eb5682e5cc1c7bcdd868b119"
        );
    }
}
