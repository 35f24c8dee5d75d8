//! Identities: parties and the unique random tags used by the
//! broadcast functionalities.
//!
//! # Examples
//!
//! ```
//! use sbc_uc::ids::PartyId;
//!
//! let parties = PartyId::all(4);
//! assert_eq!(parties.len(), 4);
//! assert_eq!(parties[2], PartyId(2));
//! ```

use sbc_primitives::drbg::Drbg;
use std::fmt;

/// A protocol party identity (`P_i` in the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartyId(pub u32);

impl fmt::Debug for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl PartyId {
    /// The party set `{P_0, …, P_{n-1}}`.
    pub fn all(n: usize) -> Vec<PartyId> {
        (0..n as u32).map(PartyId).collect()
    }

    /// Index into party-ordered vectors.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// A unique random tag (the functionalities' `tag ∈ {0,1}^λ`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub [u8; 16]);

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag:{}", sbc_primitives::hex::encode(&self.0[..4]))
    }
}

impl Tag {
    /// Samples a fresh tag from `rng`.
    pub fn random(rng: &mut Drbg) -> Tag {
        let mut t = [0u8; 16];
        rng.fill(&mut t);
        Tag(t)
    }

    /// The tag as bytes (for embedding in [`Value`]s).
    ///
    /// [`Value`]: crate::value::Value
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Parses a tag from bytes.
    pub fn from_bytes(b: &[u8]) -> Option<Tag> {
        if b.len() != 16 {
            return None;
        }
        let mut t = [0u8; 16];
        t.copy_from_slice(b);
        Some(Tag(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_all_and_index() {
        let ps = PartyId::all(3);
        assert_eq!(ps, vec![PartyId(0), PartyId(1), PartyId(2)]);
        assert_eq!(ps[1].index(), 1);
    }

    #[test]
    fn tags_unique_per_rng() {
        let mut rng = Drbg::from_seed(b"tags");
        let a = Tag::random(&mut rng);
        let b = Tag::random(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn tag_bytes_round_trip() {
        let mut rng = Drbg::from_seed(b"tags");
        let t = Tag::random(&mut rng);
        assert_eq!(Tag::from_bytes(t.as_bytes()), Some(t));
        assert_eq!(Tag::from_bytes(&[0u8; 5]), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", PartyId(7)), "P7");
        assert_eq!(format!("{:?}", PartyId(7)), "P7");
    }
}
