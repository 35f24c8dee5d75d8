//! Identities: parties and the unique random tags used by the
//! broadcast functionalities.
//!
//! A tag is one 16-byte `Drbg` draw. A functionality whose tags only the
//! adversary reads holds a [`ReservedTag`] instead: the stream moves on as
//! the draw would move it, and the tag is computed when something first
//! reads it, with the same bytes.
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

    /// The tag in the reserved block at counter `ctr` of `rng`: what
    /// [`random`](Tag::random) draws at that counter.
    fn at(rng: &Drbg, ctr: u64) -> Tag {
        let mut t = [0u8; 16];
        t.copy_from_slice(&rng.block(ctr)[..16]);
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

/// A [`Tag`] reserved on its stream and computed when first read.
///
/// [`reserve`](ReservedTag::reserve) moves the stream on exactly as
/// [`Tag::random`] would, and [`get`](ReservedTag::get) returns the tag
/// that draw would have returned, however many draws came between. So a
/// tag nobody reads costs no compression, and one that is read costs one,
/// once.
#[derive(Clone, Copy, Debug)]
pub struct ReservedTag {
    ctr: u64,
    tag: Option<Tag>,
}

impl ReservedTag {
    /// Reserves the next tag of `rng` without computing it.
    pub fn reserve(rng: &mut Drbg) -> ReservedTag {
        ReservedTag {
            ctr: rng.reserve(),
            tag: None,
        }
    }

    /// The tag, computed from `rng` (the stream it was reserved on) at the
    /// first read and kept.
    pub fn get(&mut self, rng: &Drbg) -> Tag {
        *self.tag.get_or_insert_with(|| Tag::at(rng, self.ctr))
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
    fn a_reserved_tag_is_the_eagerly_drawn_tag() {
        // Twin streams: `eager` draws each tag where `lazy` reserves it,
        // between forks and draws of every length around a block boundary.
        let mut eager = Drbg::from_seed(b"tags");
        let mut lazy = Drbg::from_seed(b"tags");
        let mut pairs = Vec::new();
        for (i, len) in [1usize, 16, 31, 33, 64].into_iter().enumerate() {
            let drawn = Tag::random(&mut eager);
            let mut reserved = ReservedTag::reserve(&mut lazy);
            if i % 2 == 0 {
                // Read at once: computed now, the same bytes later.
                assert_eq!(reserved.get(&lazy), drawn, "step {i}");
            }
            pairs.push((reserved, drawn));
            let label = format!("child/{i}");
            assert_eq!(
                eager.fork(label.as_bytes()).gen_bytes(len),
                lazy.fork(label.as_bytes()).gen_bytes(len)
            );
            assert_eq!(eager.gen_bytes(len), lazy.gen_bytes(len), "step {i}");
        }
        for (i, (mut reserved, drawn)) in pairs.into_iter().enumerate() {
            assert_eq!(reserved.get(&lazy), drawn, "tag {i}, read late");
        }
        assert_eq!(Tag::random(&mut eager), Tag::random(&mut lazy));
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", PartyId(7)), "P7");
        assert_eq!(format!("{:?}", PartyId(7)), "P7");
    }
}
