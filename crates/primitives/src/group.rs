//! Schnorr groups: the prime-order subgroup of quadratic residues modulo a
//! safe prime. This is the discrete-log substrate for the self-tallying
//! voting scheme (paper §6.2) and its ballot-validity proof.
//!
//! # Examples
//!
//! ```
//! use sbc_primitives::group::SchnorrGroup;
//! use sbc_primitives::drbg::Drbg;
//!
//! let grp = SchnorrGroup::tiny();
//! let mut rng = Drbg::from_seed(b"doc");
//! let x = grp.random_scalar(&mut rng);
//! let gx = grp.exp(&grp.generator(), &x);
//! assert!(grp.is_element(&gx));
//! ```

use crate::bigint::U256;
use crate::drbg::Drbg;
use crate::sha256::Sha256;
use std::fmt;

/// A group element (a quadratic residue mod p). Use [`SchnorrGroup`] methods
/// to operate on elements.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Element(pub U256);

impl fmt::Debug for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Element({})", self.0)
    }
}

/// A scalar exponent (an integer mod q).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Scalar(pub U256);

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({})", self.0)
    }
}

/// A Schnorr group: p = 2q + 1 a safe prime, group = QR(p) of prime order q,
/// generated by `g = 4 = 2²`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchnorrGroup {
    p: U256,
    q: U256,
    g: Element,
}

/// 256-bit safe prime used by [`SchnorrGroup::default_256`], generated
/// deterministically with this crate's own Miller–Rabin search
/// (`prime::find_safe_prime(256, Drbg::from_seed(b"sbc-group-v1"))`) and
/// verified by a unit test.
pub(crate) const DEFAULT_P_HEX: &str =
    "bbe3ae768c12b45083aed499eec61a5b42e6424930d550c7aad48711013fd2db";

impl SchnorrGroup {
    /// Constructs a group from a safe prime without validating primality.
    pub(crate) fn new_unchecked(p: U256) -> Self {
        let q = p.checked_sub(&U256::ONE).expect("p >= 3").shr1();
        let g = Element(U256::from_u64(4).rem(&p));
        SchnorrGroup { p, q, g }
    }

    /// The default 256-bit production group.
    pub fn default_256() -> Self {
        Self::new_unchecked(U256::from_hex(DEFAULT_P_HEX))
    }

    /// A tiny 64-bit group for fast tests (not secure).
    pub fn tiny() -> Self {
        // 64-bit safe prime found with find_safe_prime(64, seed "sbc-tiny").
        Self::new_unchecked(U256::from_hex(TINY_P_HEX))
    }

    /// The group modulus p.
    pub(crate) fn modulus(&self) -> &U256 {
        &self.p
    }

    /// The group (and scalar) order q = (p−1)/2.
    pub(crate) fn order(&self) -> &U256 {
        &self.q
    }

    /// The fixed generator g = 4.
    pub fn generator(&self) -> Element {
        self.g
    }

    /// The identity element 1.
    pub fn one(&self) -> Element {
        Element(U256::ONE)
    }

    /// True iff `x` is in the prime-order subgroup (x ≠ 0 and x^q = 1).
    pub fn is_element(&self, x: &Element) -> bool {
        !x.0.is_zero() && x.0 < self.p && x.0.powmod(&self.q, &self.p) == U256::ONE
    }

    /// Group operation: `a · b mod p`.
    pub fn mul(&self, a: &Element, b: &Element) -> Element {
        Element(a.0.mulmod(&b.0, &self.p))
    }

    /// Group inverse.
    ///
    /// # Panics
    ///
    /// Panics if `a` is zero mod p (not a group element).
    pub fn inv(&self, a: &Element) -> Element {
        Element(
            a.0.invmod_prime(&self.p)
                .expect("group elements are invertible"),
        )
    }

    /// Exponentiation `base^e mod p`.
    pub fn exp(&self, base: &Element, e: &Scalar) -> Element {
        Element(base.0.powmod(&e.0, &self.p))
    }

    /// Uniform scalar in `[0, q)`.
    pub fn random_scalar(&self, rng: &mut Drbg) -> Scalar {
        let bits = self.q.bits();
        let bytes = bits.div_ceil(8) as usize;
        loop {
            let raw = rng.gen_bytes(bytes);
            let mut be = [0u8; 32];
            be[32 - bytes..].copy_from_slice(&raw);
            let excess = (bytes as u32 * 8).saturating_sub(bits);
            if excess > 0 {
                be[32 - bytes] &= 0xffu8 >> excess;
            }
            let v = U256::from_be_bytes(&be);
            if v < self.q {
                return Scalar(v);
            }
        }
    }

    /// Scalar addition mod q.
    pub fn scalar_add(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(a.0.addmod(&b.0, &self.q))
    }

    /// Scalar subtraction mod q.
    pub(crate) fn scalar_sub(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(a.0.submod(&b.0, &self.q))
    }

    /// Scalar multiplication mod q.
    pub fn scalar_mul(&self, a: &Scalar, b: &Scalar) -> Scalar {
        Scalar(a.0.mulmod(&b.0, &self.q))
    }

    /// Scalar negation mod q.
    pub fn scalar_neg(&self, a: &Scalar) -> Scalar {
        Scalar(U256::ZERO.submod(&a.0.rem(&self.q), &self.q))
    }

    /// Builds a scalar from a u64.
    pub fn scalar_from_u64(&self, v: u64) -> Scalar {
        Scalar(U256::from_u64(v).rem(&self.q))
    }

    /// Hashes arbitrary bytes into the group (square of a hash-derived value;
    /// retried until nonzero). Used to derive independent generators such as
    /// the voting verification base `w`.
    pub fn hash_to_element(&self, data: &[u8]) -> Element {
        let mut ctr = 0u64;
        loop {
            let d = Sha256::digest_parts(&[b"hash-to-group", data, &ctr.to_be_bytes()]);
            let v = U256::from_be_bytes(&d).rem(&self.p);
            let sq = v.mulmod(&v, &self.p);
            if !sq.is_zero() && sq != U256::ONE {
                return Element(sq);
            }
            ctr += 1;
        }
    }

    /// Discrete log of `target` base `base` by brute force over `0..=max`.
    /// Used for self-tallying: the tally exponent is at most the number of
    /// voters. Returns `None` if not found within the bound.
    pub fn brute_force_dlog(&self, base: &Element, target: &Element, max: u64) -> Option<u64> {
        let mut acc = self.one();
        for e in 0..=max {
            if &acc == target {
                return Some(e);
            }
            acc = self.mul(&acc, base);
        }
        None
    }
}

/// 64-bit safe prime for [`SchnorrGroup::tiny`], generated with
/// `prime::find_safe_prime(64, Drbg::from_seed(b"sbc-tiny"))`.
pub(crate) const TINY_P_HEX: &str = "8dc8f2fd7a0122fb";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{find_safe_prime, is_safe_prime};

    #[test]
    fn tiny_prime_is_safe() {
        let mut rng = Drbg::from_seed(b"check");
        assert!(is_safe_prime(&U256::from_hex(TINY_P_HEX), 24, &mut rng));
    }

    #[test]
    fn default_prime_is_safe() {
        let mut rng = Drbg::from_seed(b"check");
        let p = U256::from_hex(DEFAULT_P_HEX);
        assert_eq!(p.bits(), 256);
        assert!(is_safe_prime(&p, 24, &mut rng));
    }

    #[test]
    fn generator_is_element_of_order_q() {
        for grp in [SchnorrGroup::tiny(), SchnorrGroup::default_256()] {
            let g = grp.generator();
            assert!(grp.is_element(&g));
            assert_eq!(grp.exp(&g, &Scalar(*grp.order())), grp.one());
        }
    }

    #[test]
    fn group_laws() {
        let grp = SchnorrGroup::tiny();
        let mut rng = Drbg::from_seed(b"laws");
        let a = grp.exp(&grp.generator(), &grp.random_scalar(&mut rng));
        let b = grp.exp(&grp.generator(), &grp.random_scalar(&mut rng));
        let c = grp.exp(&grp.generator(), &grp.random_scalar(&mut rng));
        // Associativity and commutativity.
        assert_eq!(grp.mul(&grp.mul(&a, &b), &c), grp.mul(&a, &grp.mul(&b, &c)));
        assert_eq!(grp.mul(&a, &b), grp.mul(&b, &a));
        // Identity and inverse.
        assert_eq!(grp.mul(&a, &grp.one()), a);
        assert_eq!(grp.mul(&a, &grp.inv(&a)), grp.one());
    }

    #[test]
    fn exp_homomorphism() {
        let grp = SchnorrGroup::tiny();
        let mut rng = Drbg::from_seed(b"hom");
        let x = grp.random_scalar(&mut rng);
        let y = grp.random_scalar(&mut rng);
        let g = grp.generator();
        let lhs = grp.exp(&g, &grp.scalar_add(&x, &y));
        let rhs = grp.mul(&grp.exp(&g, &x), &grp.exp(&g, &y));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_field_ops() {
        let grp = SchnorrGroup::tiny();
        let a = grp.scalar_from_u64(10);
        let b = grp.scalar_from_u64(3);
        assert_eq!(grp.scalar_sub(&grp.scalar_add(&a, &b), &b), a);
        let neg = grp.scalar_neg(&a);
        assert_eq!(grp.scalar_add(&a, &neg).0, U256::ZERO);
    }

    #[test]
    fn hash_to_element_lands_in_group() {
        let grp = SchnorrGroup::tiny();
        for label in [&b"w"[..], b"x", b"independent-base"] {
            let e = grp.hash_to_element(label);
            assert!(grp.is_element(&e));
        }
        assert_ne!(grp.hash_to_element(b"a"), grp.hash_to_element(b"b"));
    }

    #[test]
    fn brute_force_dlog_small() {
        let grp = SchnorrGroup::tiny();
        let g = grp.generator();
        let target = grp.exp(&g, &grp.scalar_from_u64(37));
        assert_eq!(grp.brute_force_dlog(&g, &target, 100), Some(37));
        assert_eq!(grp.brute_force_dlog(&g, &target, 10), None);
    }

    #[test]
    fn random_scalars_in_range_and_distinct() {
        let grp = SchnorrGroup::tiny();
        let mut rng = Drbg::from_seed(b"scal");
        let mut prev = None;
        for _ in 0..50 {
            let s = grp.random_scalar(&mut rng);
            assert!(s.0 < *grp.order());
            if let Some(p) = prev {
                assert_ne!(p, s);
            }
            prev = Some(s);
        }
    }

    // Regeneration helper for the hard-coded constants; run with
    // `cargo test -p sbc-primitives regenerate_group_constants -- --ignored --nocapture`.
    #[test]
    #[ignore = "constant generation utility"]
    fn regenerate_group_constants() {
        let mut rng = Drbg::from_seed(b"sbc-tiny");
        let tiny = find_safe_prime(64, &mut rng);
        println!("TINY_P_HEX = {}", tiny.to_hex());
        let mut rng = Drbg::from_seed(b"sbc-group-v1");
        let p = find_safe_prime(256, &mut rng);
        println!("DEFAULT_P_HEX = {}", p.to_hex());
    }
}
