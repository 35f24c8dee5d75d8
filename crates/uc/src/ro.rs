//! The random oracle functionality `F_RO` (paper Fig. 3), with the
//! *programming* interface that UC simulators use for equivocation.
//!
//! Queries are attributed to a [`Caller`] so that simulators can check the
//! abort condition of the security proofs ("has the adversary already
//! queried ρ?").
//!
//! Unprogrammed points come from one [`Prf`] keyed by 32 bytes drawn in
//! [`RandomOracle::new`]. A fixed-length point is `eval(POINT, x, 0)`, and
//! block `i` of a variable-length point is `eval(MASK, len_be64 ‖ x, i)`.
//! The domain byte keeps the two oracles' input spaces apart.
//!
//! | operation | compressions |
//! |---|---|
//! | a point `x` of ≤ 45 bytes | 1 |
//! | one 32-byte block of a mask at a 32-byte `ρ` | 1 |
//! | a 4 KiB mask at a 32-byte `ρ` | 128 |
//!
//! # Examples
//!
//! ```
//! use sbc_uc::ro::{Caller, RandomOracle};
//! use sbc_primitives::drbg::Drbg;
//!
//! let mut ro = RandomOracle::new(Drbg::from_seed(b"doc"));
//! let y1 = ro.query(Caller::Party(sbc_uc::ids::PartyId(0)), b"x");
//! let y2 = ro.query(Caller::Adversary, b"x");
//! assert_eq!(y1, y2); // consistent table
//! ```

use crate::ids::PartyId;
use sbc_primitives::drbg::Drbg;
use sbc_primitives::prf::{Prf, MASK, POINT};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Who issued a random-oracle query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Caller {
    /// An honest protocol party.
    Party(PartyId),
    /// The real-world adversary (or environment via a corrupted party).
    Adversary,
    /// The simulator (internal queries do not count as adversarial).
    Simulator,
}

/// Error returned by [`RandomOracle::program_bytes`] when the point was
/// already fixed — the abort event of the equivocation simulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlreadyDefined;

impl std::fmt::Display for AlreadyDefined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "random oracle point already defined")
    }
}

impl std::error::Error for AlreadyDefined {}

/// A programmable random oracle with λ = 256-bit outputs.
///
/// Sampling is *input-addressed*: an unprogrammed point `x` always maps to
/// `PRF(seed, x)`, independent of query order. This preserves the
/// random-oracle contract (fresh uniform value per point, consistency
/// across queries) while making executions reproducible: a real and an
/// ideal world constructed from the same seed agree on every unprogrammed
/// point, which is what lets the indistinguishability tests compare
/// transcripts bit-for-bit.
#[derive(Clone, Debug)]
pub struct RandomOracle {
    table: HashMap<Vec<u8>, [u8; 32]>,
    /// Variable-output-length points keyed by `(len ‖ x)`.
    vl_table: HashMap<Vec<u8>, Vec<u8>>,
    /// Points the adversary queried (for simulator abort checks), keyed
    /// as `table` and `vl_table` are: two sets, as `x` may spell `len ‖ x'`.
    adversary_points: HashSet<Vec<u8>>,
    adversary_masks: HashSet<Vec<u8>>,
    /// Every fresh point and every block of every mask is an output of it.
    prf: Prf,
}

impl RandomOracle {
    /// Creates an oracle keyed from `rng`.
    pub fn new(mut rng: Drbg) -> Self {
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        RandomOracle {
            table: HashMap::new(),
            vl_table: HashMap::new(),
            adversary_points: HashSet::new(),
            adversary_masks: HashSet::new(),
            prf: Prf::new(key),
        }
    }

    /// `Query`: returns `H(x)`.
    pub fn query(&mut self, caller: Caller, x: &[u8]) -> [u8; 32] {
        if caller == Caller::Adversary {
            self.adversary_points.insert(x.to_vec());
        }
        if let Some(y) = self.table.get(x) {
            return *y;
        }
        let y = self.prf.eval(POINT, x, 0);
        self.table.insert(x.to_vec(), y);
        y
    }

    fn vl_key(x: &[u8], len: usize) -> Vec<u8> {
        let mut k = Vec::with_capacity(8 + x.len());
        k.extend_from_slice(&(len as u64).to_be_bytes());
        k.extend_from_slice(x);
        k
    }

    /// Variable-output-length query `H(x; len)` — a family of independent
    /// oracles indexed by output length (how the SBC protocol derives masks
    /// matching each message's size). Distinct lengths are independent
    /// points, each individually programmable.
    pub fn query_bytes(&mut self, caller: Caller, x: &[u8], len: usize) -> Vec<u8> {
        let key = Self::vl_key(x, len);
        if caller == Caller::Adversary {
            self.adversary_masks.insert(key.clone());
        }
        match self.vl_table.entry(key) {
            Entry::Occupied(point) => point.get().clone(),
            Entry::Vacant(slot) => {
                let y = Self::expand(&self.prf, slot.key(), len);
                slot.insert(y.clone());
                y
            }
        }
    }

    /// Block `ctr` of the mask at `point` (`len ‖ x`) is
    /// `eval(MASK, point, ctr)`.
    fn expand(prf: &Prf, point: &[u8], len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (ctr, chunk) in (0u64..).zip(out.chunks_mut(32)) {
            let block = prf.eval(MASK, point, ctr);
            chunk.copy_from_slice(&block[..chunk.len()]);
        }
        out
    }

    /// Simulator-only: fixes `H(x; y.len()) = y` for an unqueried point.
    ///
    /// # Errors
    ///
    /// Returns [`AlreadyDefined`] if the point was already fixed (the
    /// equivocation-abort event).
    pub fn program_bytes(&mut self, x: &[u8], y: Vec<u8>) -> Result<(), AlreadyDefined> {
        let key = Self::vl_key(x, y.len());
        if self.vl_table.contains_key(&key) {
            return Err(AlreadyDefined);
        }
        self.vl_table.insert(key, y);
        Ok(())
    }

    /// Whether the adversary queried the variable-length point `(x, len)`.
    pub fn adversary_queried_bytes(&self, x: &[u8], len: usize) -> bool {
        self.adversary_masks.contains(&Self::vl_key(x, len))
    }

    /// Whether the adversary has queried the point (abort-check predicate).
    pub fn adversary_queried(&self, x: &[u8]) -> bool {
        self.adversary_points.contains(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ro() -> RandomOracle {
        RandomOracle::new(Drbg::from_seed(b"ro-tests"))
    }

    #[test]
    fn consistent_answers() {
        let mut r = ro();
        let y1 = r.query(Caller::Party(PartyId(0)), b"a");
        let y2 = r.query(Caller::Party(PartyId(1)), b"a");
        assert_eq!(y1, y2);
    }

    #[test]
    fn distinct_points_distinct_outputs() {
        let mut r = ro();
        assert_ne!(
            r.query(Caller::Adversary, b"a"),
            r.query(Caller::Adversary, b"b")
        );
    }

    #[test]
    fn adversary_query_tracking() {
        let mut r = ro();
        r.query(Caller::Party(PartyId(0)), b"honest");
        r.query(Caller::Simulator, b"sim");
        r.query(Caller::Adversary, b"adv");
        assert!(!r.adversary_queried(b"honest"));
        assert!(!r.adversary_queried(b"sim"));
        assert!(r.adversary_queried(b"adv"));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ro();
        let mut b = ro();
        assert_eq!(
            a.query(Caller::Adversary, b"x"),
            b.query(Caller::Adversary, b"x")
        );
    }

    #[test]
    fn query_bytes_lengths_are_independent_points() {
        let mut r = ro();
        let y16 = r.query_bytes(Caller::Simulator, b"x", 16);
        let y32 = r.query_bytes(Caller::Simulator, b"x", 32);
        assert_eq!(y16.len(), 16);
        assert_eq!(y32.len(), 32);
        assert_ne!(&y32[..16], &y16[..], "independent oracles per length");
        // Consistent per point.
        assert_eq!(r.query_bytes(Caller::Adversary, b"x", 16), y16);
    }

    #[test]
    fn query_bytes_long_outputs() {
        let mut r = ro();
        let y = r.query_bytes(Caller::Simulator, b"long", 100);
        assert_eq!(y.len(), 100);
        assert_eq!(r.query_bytes(Caller::Simulator, b"long", 100), y);
        assert!(r.query_bytes(Caller::Simulator, b"long", 0).is_empty());
    }

    #[test]
    fn program_bytes_equivocation() {
        let mut r = ro();
        r.program_bytes(b"rho", vec![7u8; 20]).unwrap();
        assert_eq!(
            r.query_bytes(Caller::Party(PartyId(0)), b"rho", 20),
            vec![7u8; 20]
        );
        // Same point again: already defined.
        assert_eq!(r.program_bytes(b"rho", vec![8u8; 20]), Err(AlreadyDefined));
        // Different length: a fresh point, still programmable.
        assert!(r.program_bytes(b"rho", vec![9u8; 21]).is_ok());
    }

    #[test]
    fn program_bytes_after_query_fails() {
        let mut r = ro();
        r.query_bytes(Caller::Adversary, b"taken", 8);
        assert_eq!(r.program_bytes(b"taken", vec![0u8; 8]), Err(AlreadyDefined));
        assert!(r.adversary_queried_bytes(b"taken", 8));
        assert!(!r.adversary_queried_bytes(b"taken", 9));
    }

    #[test]
    fn fixed_and_variable_tables_are_disjoint() {
        let mut r = ro();
        let fixed = r.query(Caller::Simulator, b"x");
        let vl = r.query_bytes(Caller::Simulator, b"x", 32);
        assert_ne!(
            fixed.to_vec(),
            vl,
            "32-byte VL point is not the fixed point"
        );
        // `0_be64 ‖ 32_be64 ‖ ρ` spells block 0 of the mask at `(ρ, 32)`:
        // a fixed-point query there neither reveals that mask nor counts
        // as querying it.
        let rho = [0x42u8; 32];
        let crafted = [&0u64.to_be_bytes()[..], &32u64.to_be_bytes(), &rho].concat();
        let leaked = r.query(Caller::Adversary, &crafted);
        assert!(!r.adversary_queried_bytes(&rho, 32));
        assert_ne!(leaked.to_vec(), r.query_bytes(Caller::Simulator, &rho, 32));
    }

    /// A fixed point that spells a mask's key `len_be64 ‖ x` is not that
    /// mask, for the abort predicate either — nor the other way round.
    #[test]
    fn fixed_and_variable_adversary_queries_are_disjoint() {
        let mut r = ro();
        let rho = [0x42u8; 32];
        let key = [&32u64.to_be_bytes()[..], &rho].concat();
        r.query(Caller::Adversary, &key);
        assert!(!r.adversary_queried_bytes(&rho, 32));
        r.query_bytes(Caller::Adversary, b"sigma", 16);
        let sigma_key = [&16u64.to_be_bytes()[..], b"sigma"].concat();
        assert!(!r.adversary_queried(&sigma_key));
        assert!(r.adversary_queried(&key) && r.adversary_queried_bytes(b"sigma", 16));
    }

    #[test]
    fn golden_points() {
        // Unprogrammed points under the key drawn in `new`, pinned against
        // an independent model (Python `hashlib`, from the definitions in
        // this module and `sbc_primitives::prf`).
        use sbc_primitives::hex;
        use sbc_primitives::sha256::Sha256;
        let mut r = RandomOracle::new(Drbg::from_seed(b"kat"));
        let party = Caller::Party(PartyId(0));
        let lens = [0usize, 1, 31, 32, 33, 4096];

        let mut fixed = Sha256::new();
        for len in lens {
            let x: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            fixed.update(&r.query(party, &x));
        }
        assert_eq!(
            hex::encode(&fixed.finalize()),
            "dd670927dcf4c172ed3049681706980a2c78242679dd09ff8d4c6b93e9b3a234"
        );
        assert_eq!(
            hex::encode(&r.query(Caller::Adversary, b"abc")),
            "a94e4de152c8841eeb3cda4f58610d57def3f7d8c5f206cd859298d4bdbd2b13"
        );

        let mut masks = Sha256::new();
        for len in lens {
            let y = r.query_bytes(party, b"rho", len);
            assert_eq!(y.len(), len);
            masks.update(&y);
        }
        assert_eq!(
            hex::encode(&masks.finalize()),
            "e6652e83d7097d449f48408a18d7104e7510d551241dc840e1a0859dd8e9ba2e"
        );
        let y33 = r.query_bytes(Caller::Adversary, b"rho", 33);
        assert_eq!(
            hex::encode(&y33),
            "d83025a197e5c81d28b9d56fea5f57ba5923f4263bb6587a630d0f8b89b8561104"
        );
        assert!(r.adversary_queried_bytes(b"rho", 33));

        // A programmed point answers as programmed; a sampled one refuses
        // to be programmed and keeps its bytes.
        r.program_bytes(b"rho", vec![7u8; 34]).unwrap();
        assert_eq!(r.query_bytes(party, b"rho", 34), vec![7u8; 34]);
        assert_eq!(r.program_bytes(b"rho", vec![0u8; 33]), Err(AlreadyDefined));
        assert_eq!(r.query_bytes(party, b"rho", 33), y33);
    }
}
