//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! This is the single hash function underlying the whole workspace: the
//! random-oracle instantiations, the symmetric cipher keystream, the
//! hash-chain time-lock puzzles, HMAC, the PRF under the DRBG and `F_RO`,
//! and the WOTS+ signatures.
//!
//! Everything above it is priced in compressions, so the cost of one is
//! kept to the function itself: `update` compresses whole blocks where
//! they lie in the input, `finalize` writes the padding into the block
//! buffer in one pass (one compression, two when the length no longer
//! fits), and the compression function keeps a 16-word rolling message
//! schedule and renames its eight working variables from round to round
//! instead of moving them. The crate forbids `unsafe`, which rules out the
//! CPU's SHA extensions: this is portable scalar code.
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     sbc_primitives::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//! ```

/// Byte length of a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Byte length of a SHA-256 input block.
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants, sixteen to a row: one row per pass over the rolling
/// message schedule.
#[rustfmt::skip]
const K: [[u32; 16]; 4] = [[
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
], [
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
], [
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
], [
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
]];

/// Incremental SHA-256 hasher.
///
/// Use [`Sha256::digest`] for one-shot hashing, or `update`/`finalize` for
/// streaming input.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// A hasher that has absorbed exactly one block and holds `state` —
    /// how [`Prf`](crate::prf::Prf) resumes from the key block it
    /// compressed once.
    pub(crate) fn from_midstate(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: BLOCK_LEN as u64,
        }
    }

    /// The chaining state after one `block`, from the initial state.
    pub(crate) fn midstate_of(block: &[u8; BLOCK_LEN]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of the concatenation of several byte slices.
    pub fn digest_parts(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks are compressed where they lie.
        let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding, written in place: 0x80, zeros up to the last 8 bytes of
        // a block, the big-endian bit length. `buf_len` < 64 always, so
        // the marker fits; the length may need one more block.
        const LEN_AT: usize = BLOCK_LEN - 8;
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= LEN_AT {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; BLOCK_LEN];
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One round of the compression function. The caller rotates the eight
/// names from round to round, so no value moves between variables: only
/// `d` and `h` are written. `Ch` and `Maj` are written in their
/// three-operation forms, `g ^ (e & (f ^ g))` and `(a & b) | (c & (a | b))`.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($kw)
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25));
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// Sixteen rounds, `$step!(names…, j)` for `j` in `0..16`, with the names
/// rotated one place per round.
macro_rules! sixteen_rounds {
    ($step:ident, $a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident) => {
        $step!($a, $b, $c, $d, $e, $f, $g, $h, 0);
        $step!($h, $a, $b, $c, $d, $e, $f, $g, 1);
        $step!($g, $h, $a, $b, $c, $d, $e, $f, 2);
        $step!($f, $g, $h, $a, $b, $c, $d, $e, 3);
        $step!($e, $f, $g, $h, $a, $b, $c, $d, 4);
        $step!($d, $e, $f, $g, $h, $a, $b, $c, 5);
        $step!($c, $d, $e, $f, $g, $h, $a, $b, 6);
        $step!($b, $c, $d, $e, $f, $g, $h, $a, 7);
        $step!($a, $b, $c, $d, $e, $f, $g, $h, 8);
        $step!($h, $a, $b, $c, $d, $e, $f, $g, 9);
        $step!($g, $h, $a, $b, $c, $d, $e, $f, 10);
        $step!($f, $g, $h, $a, $b, $c, $d, $e, 11);
        $step!($e, $f, $g, $h, $a, $b, $c, $d, 12);
        $step!($d, $e, $f, $g, $h, $a, $b, $c, 13);
        $step!($c, $d, $e, $f, $g, $h, $a, $b, 14);
        $step!($b, $c, $d, $e, $f, $g, $h, $a, 15);
    };
}

/// The FIPS 180-4 compression function over one block.
///
/// The message schedule is a rolling 16-word window: round `t ≥ 16`
/// overwrites `w[t mod 16]` (which holds `W[t-16]`) with `W[t]` right
/// before using it, so the other three taps `W[t-15]`, `W[t-7]`, `W[t-2]`
/// sit at offsets 1, 9 and 14 from it.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    let k = &K[0];
    macro_rules! given {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $j:expr) => {
            round!($a, $b, $c, $d, $e, $f, $g, $h, k[$j].wrapping_add(w[$j]));
        };
    }
    sixteen_rounds!(given, a, b, c, d, e, f, g, h);

    for k in &K[1..] {
        macro_rules! extended {
            ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $j:expr) => {
                let (w15, w2) = (w[($j + 1) & 15], w[($j + 14) & 15]);
                w[$j] = w[$j]
                    .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                    .wrapping_add(w[($j + 9) & 15])
                    .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
                round!($a, $b, $c, $d, $e, $f, $g, $h, k[$j].wrapping_add(w[$j]));
            };
        }
        sixteen_rounds!(extended, a, b, c, d, e, f, g, h);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hx(data: &[u8]) -> String {
        hex::encode(&Sha256::digest(data))
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hx(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hx(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hx(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hx(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 129] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn digest_parts_matches_concat() {
        let a = b"hello ";
        let b = b"world";
        let mut cat = a.to_vec();
        cat.extend_from_slice(b);
        assert_eq!(Sha256::digest_parts(&[a, b]), Sha256::digest(&cat));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all be distinct
        // and reproducible.
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let v = vec![0xabu8; len];
            let d = Sha256::digest(&v);
            assert!(seen.insert(d), "collision at length {len}");
            assert_eq!(d, Sha256::digest(&v));
        }
    }

    /// `i % 251` — a pattern that shares no period with the block length.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn golden_digests_around_padding_boundaries() {
        // Computed with an independent implementation (Python hashlib):
        // 55/56 is where padding spills into a second block, 64 and 128
        // are whole blocks, 119/120 the same spill one block later.
        let golden = [
            (
                0,
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                1,
                "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
            ),
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                57,
                "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                65,
                "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
            (
                128,
                "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5",
            ),
        ];
        for (len, want) in golden {
            assert_eq!(hx(&pattern(len)), want, "length {len}");
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        let data = pattern(200);
        for len in 0..=data.len() {
            let whole = Sha256::digest(&data[..len]);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize(), whole, "length {len} split at {split}");
            }
        }
    }
}
