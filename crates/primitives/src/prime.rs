//! Primality testing (Miller–Rabin) and safe-prime utilities for the
//! discrete-log group substrate.

use crate::bigint::U256;
use crate::drbg::Drbg;

const SMALL_PRIMES: [u64; 25] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
];

fn rem_u64(n: &U256, d: u64) -> u64 {
    // Compute n mod d limb-by-limb from the top.
    let mut rem: u128 = 0;
    for limb in n.0.iter().rev() {
        rem = ((rem << 64) | *limb as u128) % d as u128;
    }
    rem as u64
}

fn random_below(rng: &mut Drbg, bound: &U256) -> U256 {
    // Rejection-sample a uniform value in [0, bound).
    let bits = bound.bits();
    let bytes = bits.div_ceil(8) as usize;
    loop {
        let raw = rng.gen_bytes(bytes);
        let mut be = [0u8; 32];
        be[32 - bytes..].copy_from_slice(&raw);
        // Mask excess top bits to reduce rejections.
        let excess = (bytes as u32 * 8).saturating_sub(bits);
        if excess > 0 {
            be[32 - bytes] &= 0xffu8 >> excess;
        }
        let v = U256::from_be_bytes(&be);
        if &v < bound {
            return v;
        }
    }
}

/// Miller–Rabin primality test with `rounds` random bases.
///
/// Error probability at most 4^−rounds for composite inputs.
pub fn is_probable_prime(n: &U256, rounds: u32, rng: &mut Drbg) -> bool {
    if n < &U256::from_u64(2) {
        return false;
    }
    for &p in SMALL_PRIMES.iter() {
        if n == &U256::from_u64(p) {
            return true;
        }
        if rem_u64(n, p) == 0 {
            return false;
        }
    }
    // Write n-1 = d * 2^s with d odd.
    let n_minus_1 = n.checked_sub(&U256::ONE).expect("n >= 2");
    let mut d = n_minus_1;
    let mut s = 0u32;
    while d.is_even() {
        d = d.shr1();
        s += 1;
    }
    let two = U256::from_u64(2);
    let span = n.checked_sub(&U256::from_u64(3)).unwrap_or(U256::ONE);
    'witness: for _ in 0..rounds {
        // a uniform in [2, n-2]
        let a = random_below(rng, &span).overflowing_add(&two).0;
        let mut x = a.powmod(&d, n);
        if x == U256::ONE || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = x.mulmod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// True iff `p` is a safe prime: `p` and `(p-1)/2` both (probably) prime.
pub fn is_safe_prime(p: &U256, rounds: u32, rng: &mut Drbg) -> bool {
    if !is_probable_prime(p, rounds, rng) {
        return false;
    }
    let q = p.checked_sub(&U256::ONE).expect("p >= 2").shr1();
    is_probable_prime(&q, rounds, rng)
}

/// Searches for a safe prime with the given bit size, deterministically from
/// `rng`. Test-only: this is how `group`'s built-in primes were generated,
/// and its tests re-derive them with it.
///
/// # Panics
///
/// Panics if `bits < 3` or `bits > 256`.
#[cfg(test)]
pub fn find_safe_prime(bits: u32, rng: &mut Drbg) -> U256 {
    assert!((3..=256).contains(&bits), "bits must be in 3..=256");
    loop {
        // Sample candidate q of bits-1 bits, odd, top bit set; p = 2q+1.
        let bytes = (bits - 1).div_ceil(8) as usize;
        let raw = rng.gen_bytes(bytes);
        let mut be = [0u8; 32];
        be[32 - bytes..].copy_from_slice(&raw);
        let excess = (bytes as u32 * 8) - (bits - 1);
        be[32 - bytes] &= 0xffu8 >> excess;
        be[32 - bytes] |= 0x80u8 >> excess; // force top bit
        be[31] |= 1; // force odd
        let q = U256::from_be_bytes(&be);
        if !is_probable_prime(&q, 16, rng) {
            continue;
        }
        let p = q.overflowing_add(&q).0.overflowing_add(&U256::ONE).0;
        if p.bits() == bits && is_probable_prime(&p, 16, rng) {
            return p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Drbg {
        Drbg::from_seed(b"prime-tests")
    }

    #[test]
    fn small_primes_detected() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 101, 65537, 1_000_000_007] {
            assert!(is_probable_prime(&U256::from_u64(p), 16, &mut r), "{p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [1u64, 4, 9, 15, 91, 561, 1105, 6601, 8911, 1_000_000_008] {
            // includes Carmichael numbers
            assert!(!is_probable_prime(&U256::from_u64(c), 16, &mut r), "{c}");
        }
    }

    #[test]
    fn large_known_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let p = U256::from_hex("7fffffffffffffffffffffffffffffff");
        assert!(is_probable_prime(&p, 24, &mut rng()));
    }

    #[test]
    fn large_known_composite() {
        // 2^128 - 1 = 3 * 5 * 17 * ...
        let c = U256::from_hex("ffffffffffffffffffffffffffffffff");
        assert!(!is_probable_prime(&c, 24, &mut rng()));
    }

    #[test]
    fn safe_prime_search_small() {
        let mut r = rng();
        let p = find_safe_prime(16, &mut r);
        assert_eq!(p.bits(), 16);
        assert!(is_safe_prime(&p, 24, &mut r));
    }

    #[test]
    fn safe_prime_search_64() {
        let mut r = rng();
        let p = find_safe_prime(64, &mut r);
        assert_eq!(p.bits(), 64);
        assert!(is_safe_prime(&p, 24, &mut r));
    }

    #[test]
    fn known_safe_prime_detected() {
        // 23 = 2*11+1 safe; 13 not safe ((13-1)/2 = 6 composite).
        let mut r = rng();
        assert!(is_safe_prime(&U256::from_u64(23), 16, &mut r));
        assert!(!is_safe_prime(&U256::from_u64(13), 16, &mut r));
    }
}
