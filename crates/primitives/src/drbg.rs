//! Deterministic random bit generator (HMAC-DRBG, NIST SP 800-90A style).
//!
//! All protocol-internal randomness in the workspace flows through this DRBG
//! so that executions are reproducible from a seed — which is what makes the
//! real-vs-ideal indistinguishability experiments exact rather than flaky.
//!
//! The generator's key is held as a prepared [`HmacKey`]: it is replaced
//! once at the end of every draw and keys every block in between, so a
//! 32-byte draw is 8 SHA-256 compressions and each further block 2. The
//! stream is a function of the seed and the sequence of draw lengths only
//! — `gen_u64` and `gen_bool` are 8- and 1-byte draws — and is pinned by
//! the `golden_stream` test.
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

use crate::hmac::HmacKey;
use crate::sha256::DIGEST_LEN;

/// Deterministic HMAC-SHA-256 based random generator.
#[derive(Clone, Debug)]
pub struct Drbg {
    /// `K`, kept with its pad blocks compressed: it changes once per
    /// call and keys every block of the call.
    key: HmacKey,
    value: [u8; DIGEST_LEN],
}

impl Drbg {
    /// Instantiates the DRBG from arbitrary seed material.
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut drbg = Drbg {
            key: HmacKey::new(&[0u8; DIGEST_LEN]),
            value: [1u8; DIGEST_LEN],
        };
        drbg.reseed(seed);
        drbg
    }

    /// Derives an independent child generator labelled by `label`.
    ///
    /// Children with distinct labels produce independent streams; this is how
    /// per-party and per-functionality randomness is separated from one
    /// master experiment seed.
    pub fn fork(&mut self, label: &[u8]) -> Drbg {
        let mut material = self.gen_bytes(DIGEST_LEN);
        material.extend_from_slice(label);
        Drbg::from_seed(&material)
    }

    /// Mixes additional entropy/seed material into the state.
    pub fn reseed(&mut self, data: &[u8]) {
        self.rekey(0x00, data);
        if !data.is_empty() {
            self.rekey(0x01, data);
        }
    }

    /// `K = HMAC(K, V ‖ sep ‖ data)`; `V = HMAC(K, V)`.
    fn rekey(&mut self, sep: u8, data: &[u8]) {
        self.key = HmacKey::new(&self.key.tag(&[&self.value, &[sep], data]));
        self.value = self.key.tag(&[&self.value]);
    }

    /// Fills `out` with the next pseudorandom bytes: one draw, whatever
    /// the length.
    fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(DIGEST_LEN) {
            self.value = self.key.tag(&[&self.value]);
            chunk.copy_from_slice(&self.value[..chunk.len()]);
        }
        // Update key so state does not repeat across calls.
        self.rekey(0x00, &[]);
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

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
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
    fn shuffle_is_permutation() {
        let mut d = Drbg::from_seed(b"s");
        let mut v: Vec<u32> = (0..50).collect();
        d.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_panics() {
        Drbg::from_seed(b"s").gen_range(0);
    }

    #[test]
    fn golden_stream() {
        // Every draw shape the workspace uses, in one stream, pinned
        // against an independent model of this generator (Python `hmac`).
        use crate::sha256::Sha256;
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
        let mut deck: Vec<u8> = (0..16).collect();
        d.shuffle(&mut deck);
        stream.update(&deck);
        stream.update(&d.fork(b"child").gen_bytes(32));
        assert_eq!(
            crate::hex::encode(&stream.finalize()),
            "db0589b6f74c7fd08e62efa00500454bb9aaa4da67c2007bf54aa9e6597889cf"
        );
        assert_eq!(
            crate::hex::encode(&Drbg::from_seed(b"kat").gen_bytes(32)),
            "20abfece54c3a23d83e556e85229b6bffe2a292b1a388f017362a98136146e34"
        );
    }
}
