//! Fixed-width 256-bit unsigned integers with modular arithmetic,
//! implemented from scratch for the discrete-log substrate of the
//! self-tallying voting application.
//!
//! `U256` supports the usual ring operations plus `mulmod`/`powmod` (through
//! an internal 512-bit intermediate), which is everything a Schnorr group
//! needs.
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::bigint::U256;
//!
//! let p = U256::from_u64(101);
//! let x = U256::from_u64(7);
//! assert_eq!(x.mulmod(&U256::from_u64(29), &p), U256::ONE); // 7 · 29 = 2 · 101 + 1
//! ```

use std::cmp::Ordering;
use std::fmt;

/// 256-bit unsigned integer, four 64-bit little-endian limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct U256(pub [u64; 4]);

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Default for U256 {
    fn default() -> Self {
        U256::ZERO
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value 1.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value (2^256 − 1).
    #[cfg(test)]
    pub(crate) const MAX: U256 = U256([u64::MAX; 4]);

    /// Builds a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Parses a big-endian hex string (up to 64 hex digits).
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than 64 digits or contains non-hex
    /// characters; intended for compile-time-style constants in code.
    pub(crate) fn from_hex(s: &str) -> Self {
        let s = s.trim_start_matches("0x");
        assert!(s.len() <= 64, "hex literal too long for U256");
        let mut limbs = [0u64; 4];
        for (nibbles, c) in s.chars().rev().enumerate() {
            let d = c.to_digit(16).expect("invalid hex digit in U256 literal") as u64;
            let limb = nibbles / 16;
            let shift = (nibbles % 16) * 4;
            limbs[limb] |= d << shift;
        }
        U256(limbs)
    }

    /// Lowercase big-endian hex without leading zeros (`"0"` for zero).
    pub(crate) fn to_hex(self) -> String {
        let mut s = String::new();
        for limb in self.0.iter().rev() {
            s.push_str(&format!("{limb:016x}"));
        }
        let trimmed = s.trim_start_matches('0');
        if trimmed.is_empty() {
            "0".to_string()
        } else {
            trimmed.to_string()
        }
    }

    /// Builds a value from 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut limb = [0u8; 8];
            limb.copy_from_slice(&bytes[8 * (3 - i)..8 * (3 - i) + 8]);
            limbs[i] = u64::from_be_bytes(limb);
        }
        U256(limbs)
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * (3 - i)..8 * (3 - i) + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// True iff the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// True iff the value is even.
    #[cfg(test)]
    pub(crate) fn is_even(&self) -> bool {
        self.0[0] & 1 == 0
    }

    /// Number of significant bits (0 for zero).
    pub(crate) fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i as u32 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Value of bit `i` (little-endian bit order).
    pub(crate) fn bit(&self, i: u32) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Wrapping addition, returning `(sum, carry)`.
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for (i, o) in out.iter_mut().enumerate() {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            *o = s2;
            carry = c1 || c2;
        }
        (U256(out), carry)
    }

    /// Wrapping subtraction, returning `(diff, borrow)`.
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for (i, o) in out.iter_mut().enumerate() {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            *o = d2;
            borrow = b1 || b2;
        }
        (U256(out), borrow)
    }

    /// Checked addition; `None` on overflow.
    #[cfg(test)]
    pub(crate) fn checked_add(&self, rhs: &U256) -> Option<U256> {
        let (s, c) = self.overflowing_add(rhs);
        if c {
            None
        } else {
            Some(s)
        }
    }

    /// Checked subtraction; `None` on underflow.
    pub(crate) fn checked_sub(&self, rhs: &U256) -> Option<U256> {
        let (d, b) = self.overflowing_sub(rhs);
        if b {
            None
        } else {
            Some(d)
        }
    }

    /// Full 256×256→512-bit multiplication.
    pub(crate) fn widening_mul(&self, rhs: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let cur = out[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = carry as u64;
        }
        U512(out)
    }

    /// `(self + rhs) mod m`. Requires `self < m` and `rhs < m`.
    pub(crate) fn addmod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || &sum >= m {
            sum.overflowing_sub(m).0
        } else {
            sum
        }
    }

    /// `(self - rhs) mod m`. Requires `self < m` and `rhs < m`.
    pub(crate) fn submod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m);
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.overflowing_add(m).0
        } else {
            diff
        }
    }

    /// `(self * rhs) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mulmod(&self, rhs: &U256, m: &U256) -> U256 {
        self.widening_mul(rhs).rem(m)
    }

    /// `self mod m`.
    pub(crate) fn rem(&self, m: &U256) -> U256 {
        U512::from_u256(self).rem(m)
    }

    /// Modular exponentiation `self^exp mod m` by square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub(crate) fn powmod(&self, exp: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if m == &U256::ONE {
            return U256::ZERO;
        }
        let mut base = self.rem(m);
        let mut result = U256::ONE;
        let nbits = exp.bits();
        for i in 0..nbits {
            if exp.bit(i) {
                result = result.mulmod(&base, m);
            }
            if i + 1 < nbits {
                base = base.mulmod(&base, m);
            }
        }
        result
    }

    /// Modular inverse modulo a *prime* `p` via Fermat's little theorem.
    ///
    /// Returns `None` if `self ≡ 0 (mod p)`.
    pub(crate) fn invmod_prime(&self, p: &U256) -> Option<U256> {
        let a = self.rem(p);
        if a.is_zero() {
            return None;
        }
        let exp = p.checked_sub(&U256::from_u64(2)).expect("p >= 2");
        Some(a.powmod(&exp, p))
    }

    /// Right shift by one bit.
    pub(crate) fn shr1(&self) -> U256 {
        let mut out = [0u64; 4];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i] >> 1;
            if i + 1 < 4 {
                *o |= self.0[i + 1] << 63;
            }
        }
        U256(out)
    }
}

/// 512-bit unsigned integer used as a multiplication intermediate.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct U512(pub [u64; 8]);

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        for limb in self.0.iter().rev() {
            s.push_str(&format!("{limb:016x}"));
        }
        write!(f, "U512(0x{})", s.trim_start_matches('0'))
    }
}

impl U512 {
    /// Zero-extends a `U256`.
    pub(crate) fn from_u256(v: &U256) -> Self {
        let mut limbs = [0u64; 8];
        limbs[..4].copy_from_slice(&v.0);
        U512(limbs)
    }

    fn bits(&self) -> u32 {
        for i in (0..8).rev() {
            if self.0[i] != 0 {
                return 64 * i as u32 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    fn bit(&self, i: u32) -> bool {
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// `self mod m` by binary long division.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub(crate) fn rem(&self, m: &U256) -> U256 {
        assert!(!m.is_zero(), "modulus must be nonzero");
        let mbits = m.bits();
        let nbits = self.bits();
        if nbits < mbits {
            let mut limbs = [0u64; 4];
            limbs.copy_from_slice(&self.0[..4]);
            return U256(limbs);
        }
        // Running remainder held in 256+1 bits: rem < m always, so after a
        // shift rem < 2m < 2^257; track the extra bit explicitly.
        let mut rem = U256::ZERO;
        for i in (0..nbits).rev() {
            // rem = rem << 1 | bit(i)
            let hi_bit = rem.bit(255);
            let mut shifted = U256([
                (rem.0[0] << 1) | self.bit(i) as u64,
                (rem.0[1] << 1) | (rem.0[0] >> 63),
                (rem.0[2] << 1) | (rem.0[1] >> 63),
                (rem.0[3] << 1) | (rem.0[2] >> 63),
            ]);
            if hi_bit || &shifted >= m {
                shifted = shifted.overflowing_sub(m).0;
            }
            rem = shifted;
        }
        rem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let v = U256::from_hex("deadbeef00112233445566778899aabbccddeeff0123456789abcdef01234567");
        assert_eq!(
            v.to_hex(),
            "deadbeef00112233445566778899aabbccddeeff0123456789abcdef01234567"
        );
        assert_eq!(U256::ZERO.to_hex(), "0");
        assert_eq!(U256::from_hex("0"), U256::ZERO);
    }

    #[test]
    fn byte_round_trip() {
        let v = U256::from_hex("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20");
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(v.to_be_bytes()[0], 0x01);
        assert_eq!(v.to_be_bytes()[31], 0x20);
    }

    #[test]
    fn ordering() {
        let a = U256::from_u64(5);
        let b = U256::from_hex("10000000000000000"); // 2^64
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn add_sub_inverse() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffff");
        let b = U256::from_u64(12345);
        let (s, c) = a.overflowing_add(&b);
        assert!(!c);
        assert_eq!(s.overflowing_sub(&b).0, a);
    }

    #[test]
    fn add_overflow_wraps() {
        let (s, c) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(c);
        assert_eq!(s, U256::ZERO);
        assert!(U256::MAX.checked_add(&U256::ONE).is_none());
        assert!(U256::ZERO.checked_sub(&U256::ONE).is_none());
    }

    #[test]
    fn widening_mul_small() {
        let a = U256::from_u64(u64::MAX);
        let prod = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(prod.0[0], 1);
        assert_eq!(prod.0[1], u64::MAX - 1);
        assert_eq!(prod.0[2], 0);
    }

    #[test]
    fn mulmod_matches_u128() {
        let m = U256::from_u64(1_000_000_007);
        for (x, y) in [(123u64, 456u64), (u64::MAX, u64::MAX), (999_999_999, 2)] {
            let expect = ((x as u128 * y as u128) % 1_000_000_007u128) as u64;
            assert_eq!(
                U256::from_u64(x).mulmod(&U256::from_u64(y), &m),
                U256::from_u64(expect)
            );
        }
    }

    #[test]
    fn rem_large() {
        // 2^256 - 1 mod 2^130 - 5
        let m = {
            let mut limbs = [0u64; 4];
            limbs[2] = 4; // 2^130
            let v = U256(limbs);
            v.overflowing_sub(&U256::from_u64(5)).0
        };
        let r = U256::MAX.rem(&m);
        assert!(r < m);
        // Cross-check: (r + k*m) has same residue
        assert_eq!(r.rem(&m), r);
    }

    #[test]
    fn powmod_fermat() {
        let p = U256::from_u64(1_000_000_007);
        let a = U256::from_u64(123_456_789);
        let exp = U256::from_u64(1_000_000_006);
        assert_eq!(a.powmod(&exp, &p), U256::ONE);
    }

    #[test]
    fn powmod_edge_cases() {
        let m = U256::from_u64(97);
        assert_eq!(U256::from_u64(5).powmod(&U256::ZERO, &m), U256::ONE);
        assert_eq!(U256::from_u64(5).powmod(&U256::ONE, &m), U256::from_u64(5));
        assert_eq!(
            U256::from_u64(5).powmod(&U256::from_u64(10), &U256::ONE),
            U256::ZERO
        );
    }

    #[test]
    fn invmod_prime_works() {
        let p = U256::from_u64(1_000_000_007);
        let a = U256::from_u64(987_654_321);
        let inv = a.invmod_prime(&p).unwrap();
        assert_eq!(a.mulmod(&inv, &p), U256::ONE);
        assert!(U256::ZERO.invmod_prime(&p).is_none());
    }

    #[test]
    fn addmod_submod() {
        let m = U256::from_u64(101);
        let a = U256::from_u64(100);
        let b = U256::from_u64(5);
        assert_eq!(a.addmod(&b, &m), U256::from_u64(4));
        assert_eq!(b.submod(&a, &m), U256::from_u64(6));
    }

    #[test]
    fn addmod_near_overflow() {
        // m close to 2^256: sum overflows the 256-bit carry.
        let m = U256::MAX;
        let a = m.overflowing_sub(&U256::ONE).0; // m-1
        let b = m.overflowing_sub(&U256::from_u64(2)).0; // m-2
        let r = a.addmod(&b, &m);
        // (m-1 + m-2) mod m = m-3
        assert_eq!(r, m.overflowing_sub(&U256::from_u64(3)).0);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::from_hex("10000000000000000").bits(), 65);
        assert!(U256::from_u64(4).bit(2));
        assert!(!U256::from_u64(4).bit(1));
    }

    #[test]
    fn shr1() {
        assert_eq!(U256::from_u64(10).shr1(), U256::from_u64(5));
        let v = U256::from_hex("10000000000000000");
        assert_eq!(v.shr1(), U256::from_hex("8000000000000000"));
    }

    #[test]
    #[should_panic(expected = "modulus must be nonzero")]
    fn rem_zero_modulus_panics() {
        U256::ONE.rem(&U256::ZERO);
    }
}
