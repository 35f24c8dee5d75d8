//! Deterministic random bit generator (HMAC-DRBG, NIST SP 800-90A style).
//!
//! All protocol-internal randomness in the workspace flows through this DRBG
//! so that executions are reproducible from a seed — which is what makes the
//! real-vs-ideal indistinguishability experiments exact rather than flaky.
//!
//! The generator's key is held as a prepared [`HmacKey`] and keys every
//! block of a draw, so a draw is 2 SHA-256 compressions per 32-byte block.
//! Each draw ends in SP 800-90A's update of `K` and `V` (6 compressions),
//! which this generator owes rather than pays: the stream's next call —
//! a draw, a [`fork`](Drbg::fork) or a [`reseed`](Drbg::reseed) — settles
//! it first, so a stream drawn once is never charged for it. A fork is 8
//! compressions on the parent (the owed update and a 32-byte draw) plus 14
//! on the child (two updates under a key of zeros prepared once per
//! process).
//!
//! The deferral is invisible: the stream is a function of the seed and
//! the sequence of draw lengths only — `gen_u64` and `gen_bool` are 8- and
//! 1-byte draws — pinned by the `golden_stream` test and, against a model
//! that pays every update at once, by `deferral_matches_the_eager_model`.
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
use std::sync::OnceLock;

/// Deterministic HMAC-SHA-256 based random generator.
#[derive(Clone, Debug)]
pub struct Drbg {
    /// `K`, kept with its pad blocks compressed: it changes once per
    /// update and keys every block of a draw.
    key: HmacKey,
    value: [u8; DIGEST_LEN],
    /// Whether the last draw's trailing update is still to be applied.
    owed: bool,
}

impl Drbg {
    /// Instantiates the DRBG from arbitrary seed material.
    pub fn from_seed(seed: &[u8]) -> Self {
        Drbg::seeded(&[seed])
    }

    /// Instantiates the DRBG from the concatenation of `seed`, which is
    /// never built.
    fn seeded(seed: &[&[u8]]) -> Self {
        static ZERO_KEY: OnceLock<HmacKey> = OnceLock::new();
        let mut drbg = Drbg {
            key: ZERO_KEY
                .get_or_init(|| HmacKey::new(&[0u8; DIGEST_LEN]))
                .clone(),
            value: [1u8; DIGEST_LEN],
            owed: false,
        };
        drbg.update(seed);
        drbg
    }

    /// Derives an independent child generator labelled by `label`.
    ///
    /// Children with distinct labels produce independent streams; this is how
    /// per-party and per-functionality randomness is separated from one
    /// master experiment seed.
    pub fn fork(&mut self, label: &[u8]) -> Drbg {
        let mut material = [0u8; DIGEST_LEN];
        self.fill(&mut material);
        Drbg::seeded(&[&material, label])
    }

    /// Mixes additional entropy/seed material into the state.
    pub fn reseed(&mut self, data: &[u8]) {
        self.settle();
        self.update(&[data]);
    }

    /// SP 800-90A's update with the concatenation of `data`.
    fn update(&mut self, data: &[&[u8]]) {
        self.rekey(0x00, data);
        if data.iter().any(|part| !part.is_empty()) {
            self.rekey(0x01, data);
        }
    }

    /// Applies the update the last draw owes, if any.
    fn settle(&mut self) {
        if self.owed {
            self.owed = false;
            self.rekey(0x00, &[]);
        }
    }

    /// `K = HMAC(K, V ‖ sep ‖ data)`; `V = HMAC(K, V)`.
    fn rekey(&mut self, sep: u8, data: &[&[u8]]) {
        let mut mac = self.key.begin();
        mac.update(&self.value);
        mac.update(&[sep]);
        for part in data {
            mac.update(part);
        }
        self.key = HmacKey::new(&mac.finalize());
        self.value = self.key.tag(&[&self.value]);
    }

    /// Fills `out` with the next pseudorandom bytes: one draw, whatever
    /// the length.
    pub fn fill(&mut self, out: &mut [u8]) {
        self.settle();
        for chunk in out.chunks_mut(DIGEST_LEN) {
            self.value = self.key.tag(&[&self.value]);
            chunk.copy_from_slice(&self.value[..chunk.len()]);
        }
        // Owe the update that keeps state from repeating across calls: the
        // stream's next call applies it.
        self.owed = true;
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
    use crate::hmac::hmac_sha256;

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

    /// The generator as it was before the deferral: one-shot HMACs, a
    /// concatenated fork seed, and every draw's update paid at once.
    #[derive(Clone)]
    struct Eager {
        k: [u8; DIGEST_LEN],
        v: [u8; DIGEST_LEN],
    }

    impl Eager {
        fn from_seed(seed: &[u8]) -> Self {
            let mut e = Eager {
                k: [0; DIGEST_LEN],
                v: [1; DIGEST_LEN],
            };
            e.reseed(seed);
            e
        }

        fn rekey(&mut self, sep: u8, data: &[u8]) {
            self.k = hmac_sha256(&self.k, &[&self.v[..], &[sep], data].concat());
            self.v = hmac_sha256(&self.k, &self.v);
        }

        fn reseed(&mut self, data: &[u8]) {
            self.rekey(0x00, data);
            if !data.is_empty() {
                self.rekey(0x01, data);
            }
        }

        fn fill(&mut self, out: &mut [u8]) {
            for chunk in out.chunks_mut(DIGEST_LEN) {
                self.v = hmac_sha256(&self.k, &self.v);
                chunk.copy_from_slice(&self.v[..chunk.len()]);
            }
            self.rekey(0x00, &[]);
        }

        fn fork(&mut self, label: &[u8]) -> Eager {
            let mut material = vec![0u8; DIGEST_LEN];
            self.fill(&mut material);
            material.extend_from_slice(label);
            Eager::from_seed(&material)
        }

        /// `Drbg::gen_range`'s rejection rule over 8-byte draws.
        fn gen_range(&mut self, bound: u64) -> u64 {
            let zone = u64::MAX - u64::MAX % bound;
            loop {
                let mut b = [0u8; 8];
                self.fill(&mut b);
                let v = u64::from_be_bytes(b);
                if v < zone {
                    return v % bound;
                }
            }
        }
    }

    /// Operation `op` (with argument `arg`) on both sides of stream `i`,
    /// asserting they yield equal bytes. A fork or a clone joins `streams`.
    fn step(streams: &mut Vec<(Drbg, Eager)>, i: usize, op: u64, arg: u64) {
        const DRAWS: [usize; 9] = [0, 1, 16, 31, 32, 33, 64, 65, 4096];
        // 0 bytes, a 9-byte label like `party/123`, and one whose child
        // seed spills the inner hash into a third block.
        const LABELS: [&[u8]; 3] = [b"", b"party/123", &[0x5a; 60]];
        let arg = arg as usize;
        let (d, e) = &mut streams[i];
        let made = match op {
            0 => {
                let n = DRAWS[arg % DRAWS.len()];
                let mut want = vec![0u8; n];
                e.fill(&mut want);
                assert_eq!(d.gen_bytes(n), want, "{n}-byte draw");
                None
            }
            1 => {
                let mut want = [0u8; 8];
                e.fill(&mut want);
                assert_eq!(d.gen_u64(), u64::from_be_bytes(want), "gen_u64");
                None
            }
            2 => {
                // 2⁶³ + 1 rejects about half of all draws.
                let bound = [1, 7, (1 << 63) + 1, u64::MAX][arg % 4];
                assert_eq!(d.gen_range(bound), e.gen_range(bound), "gen_range");
                None
            }
            3 => {
                let mut want = [0u8; 1];
                e.fill(&mut want);
                assert_eq!(d.gen_bool(), want[0] & 1 == 1, "gen_bool");
                None
            }
            4 => {
                let mut got: Vec<usize> = (0..arg % 20).collect();
                let mut want = got.clone();
                d.shuffle(&mut got);
                for i in (1..want.len()).rev() {
                    let j = e.gen_range(i as u64 + 1) as usize;
                    want.swap(i, j);
                }
                assert_eq!(got, want, "shuffle");
                None
            }
            5 => {
                let label = LABELS[arg % LABELS.len()];
                Some((d.fork(label), e.fork(label)))
            }
            6 => {
                let data: &[u8] = [&b""[..], b"entropy"][arg % 2];
                d.reseed(data);
                e.reseed(data);
                None
            }
            _ => Some((d.clone(), e.clone())),
        };
        streams.extend(made);
    }

    #[test]
    fn deferral_matches_the_eager_model() {
        // Seeded operation sequences over a growing set of streams, each
        // held twice: as a `Drbg` and as the eager model.
        let mut script = 0x5eed_u64;
        let mut next = move || {
            // splitmix64, so the schedule does not depend on the code
            // under test.
            script = script.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = script;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for seed in 0..24u8 {
            let mut streams = vec![(Drbg::from_seed(&[seed]), Eager::from_seed(&[seed]))];
            // A fixed prologue on the first stream, then the clone it made
            // diverges from it by a fork.
            let prologue = [
                (0, 4), // a 32-byte draw,
                (5, 1), // a fork right after it,
                (5, 2), // a fork right after that one (a 60-byte label),
                (5, 0), // a fork with an empty label,
                (7, 0), // a clone mid-stream,
                (0, 8), // a 4096-byte draw,
                (6, 1), // a reseed right after it,
                (0, 5), // a 33-byte draw,
                (6, 0), // an empty reseed right after it.
            ];
            for (op, arg) in prologue {
                step(&mut streams, 0, op, arg);
            }
            let clone = streams.len() - 1;
            step(&mut streams, clone, 5, 1);
            for _ in 0..40 {
                let i = next() as usize % streams.len();
                let (op, arg) = (next() % 8, next());
                step(&mut streams, i, op, arg);
            }
            for (d, e) in &mut streams {
                let mut want = [0u8; 40];
                e.fill(&mut want);
                assert_eq!(d.gen_bytes(40), want, "final draw, seed {seed}");
            }
        }
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
