//! Universal message payloads.
//!
//! All inputs, outputs, functionality messages and adversarial commands in
//! the workspace are carried as [`Value`] trees tagged with a command name
//! ([`Command`]). Using one universal, totally ordered, hashable payload
//! type is what makes environment transcripts from the *real* and *ideal*
//! worlds directly comparable in the indistinguishability experiments.
//!
//! A list is built once and then shared rather than edited: it is one
//! allocation behind an `Arc`, so handing the same vector to `n` parties
//! costs `n` refcount bumps, and comparing two handles to it is a
//! pointer compare. Byte strings are owned. The encoding does not see
//! the sharing.
//!
//! # Examples
//!
//! ```
//! use sbc_uc::value::{Command, Value};
//!
//! let cmd = Command::new("Broadcast", Value::bytes(b"hello"));
//! assert_eq!(cmd.name, "Broadcast");
//! assert_eq!(cmd.value.as_bytes().unwrap(), b"hello");
//! ```

use sbc_primitives::sha256::Sha256;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A dynamically typed, canonically encodable payload tree.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// An unsigned 64-bit integer (clock times, counters, indices).
    U64(u64),
    /// A signed 64-bit integer (decryption times may be negative in the API).
    I64(i64),
    /// An opaque byte string (messages, ciphertexts, randomness).
    Bytes(Vec<u8>),
    /// A UTF-8 string (labels).
    Str(String),
    /// An ordered list of values: immutable and shared. Build one with
    /// [`Value::list`] / [`Value::pair`]; read it through
    /// [`as_list`](Value::as_list) or a `Value::List(items)` pattern.
    /// Cloning is a refcount bump, and `==` on two handles to the same
    /// list returns without looking at an element — which is what lets a
    /// world hand every honest party the one release vector it computed.
    /// The rare edit goes through `Arc::make_mut`, which copies only if
    /// the list is shared; `Arc::unwrap_or_clone` takes the items out.
    List(Arc<Vec<Value>>),
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(v) => write!(f, "{v}u64"),
            Value::I64(v) => write!(f, "{v}i64"),
            Value::Bytes(b) if b.len() <= 8 => write!(f, "0x{}", sbc_primitives::hex::encode(b)),
            Value::Bytes(b) => {
                write!(
                    f,
                    "0x{}…({}B)",
                    sbc_primitives::hex::encode(&b[..8]),
                    b.len()
                )
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::List(items) => f.debug_list().entries(items.iter()).finish(),
        }
    }
}

impl Value {
    /// Builds a `Bytes` value from a slice.
    pub fn bytes(b: impl AsRef<[u8]>) -> Value {
        Value::Bytes(b.as_ref().to_vec())
    }

    /// Builds a `Str` value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a `List` value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(Arc::new(items.into_iter().collect()))
    }

    /// Builds a pair as a two-element list.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::list([a, b])
    }

    /// Returns the inner u64, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the inner i64, if this is an `I64` (or a small `U64`).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Returns the inner bytes, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the inner string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the inner list, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Canonical byte encoding (prefix-free), suitable for hashing. One
    /// allocation of exactly [`encoded_len`](Value::encoded_len) bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// The length of the canonical encoding, counted without building it:
    /// a tag byte, then an 8-byte integer or length, then any contents.
    pub fn encoded_len(&self) -> usize {
        match self {
            Value::Unit => 1,
            Value::Bool(_) => 2,
            Value::U64(_) | Value::I64(_) => 9,
            Value::Bytes(b) => 9 + b.len(),
            Value::Str(s) => 9 + s.len(),
            Value::List(items) => 9 + items.iter().map(Value::encoded_len).sum::<usize>(),
        }
    }

    /// Appends the canonical encoding to `out` — [`encode`](Value::encode)
    /// without the buffer of its own, for callers framing a value inside
    /// bytes they are already writing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Unit => out.push(0),
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::U64(v) => {
                out.push(2);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Value::I64(v) => {
                out.push(3);
                out.extend_from_slice(&v.to_be_bytes());
            }
            Value::Bytes(b) => {
                out.push(4);
                out.extend_from_slice(&(b.len() as u64).to_be_bytes());
                out.extend_from_slice(b);
            }
            Value::Str(s) => {
                out.push(5);
                out.extend_from_slice(&(s.len() as u64).to_be_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::List(items) => {
                out.push(6);
                out.extend_from_slice(&(items.len() as u64).to_be_bytes());
                for item in items.iter() {
                    item.encode_into(out);
                }
            }
        }
    }

    /// Nesting bound for [`decode`](Value::decode): protocol values nest a
    /// handful of levels, while a hostile encoding could nest one list per
    /// 9 input bytes and overflow the decoder's stack. Anything deeper
    /// than this is rejected as malformed, not recursed into.
    const MAX_DECODE_DEPTH: usize = 64;

    /// Decodes a canonical encoding produced by [`encode`](Value::encode).
    pub fn decode(bytes: &[u8]) -> Option<Value> {
        let mut pos = 0usize;
        let v = Self::decode_from(bytes, &mut pos, 0)?;
        if pos == bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    fn decode_from(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
        if depth > Self::MAX_DECODE_DEPTH {
            return None;
        }
        let tag = *bytes.get(*pos)?;
        *pos += 1;
        let read_u64 = |bytes: &[u8], pos: &mut usize| -> Option<u64> {
            let s = bytes.get(*pos..*pos + 8)?;
            *pos += 8;
            Some(u64::from_be_bytes(s.try_into().ok()?))
        };
        match tag {
            0 => Some(Value::Unit),
            // Canonical: 0 or 1, nothing else decodes to a `Bool`.
            1 => {
                let b = match *bytes.get(*pos)? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                *pos += 1;
                Some(Value::Bool(b))
            }
            2 => Some(Value::U64(read_u64(bytes, pos)?)),
            3 => {
                let v = read_u64(bytes, pos)?;
                Some(Value::I64(v as i64))
            }
            // A length is wire-supplied: it is bounded by the bytes left
            // before `pos` moves, never added to `pos` unchecked.
            4 => {
                let len = read_u64(bytes, pos)? as usize;
                let b = bytes.get(*pos..)?.get(..len)?;
                *pos += len;
                Some(Value::Bytes(b.to_vec()))
            }
            5 => {
                let len = read_u64(bytes, pos)? as usize;
                let b = bytes.get(*pos..)?.get(..len)?;
                *pos += len;
                Some(Value::Str(String::from_utf8(b.to_vec()).ok()?))
            }
            6 => {
                let len = read_u64(bytes, pos)? as usize;
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(Self::decode_from(bytes, pos, depth + 1)?);
                }
                Some(Value::list(items))
            }
            _ => None,
        }
    }

    /// SHA-256 digest of the canonical encoding.
    pub fn digest(&self) -> [u8; 32] {
        Sha256::digest(&self.encode())
    }
}

/// A named message: the paper's `(sid, CommandName, payload…)` tuples.
///
/// A name given as a literal is borrowed (`Cow::Borrowed`), so building a
/// command allocates only its payload; a name made at run time is owned.
/// Equality, order, hashing and the encoding read the characters only.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Command {
    /// The command name, e.g. `"Broadcast"`, `"Enc"`, `"Advance_Clock"`.
    pub name: Cow<'static, str>,
    /// The payload.
    pub value: Value,
}

impl fmt::Debug for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.name, self.value)
    }
}

impl Command {
    /// Builds a command.
    pub fn new(name: impl Into<Cow<'static, str>>, value: Value) -> Self {
        Command {
            name: name.into(),
            value,
        }
    }

    /// Canonical encoding (name, then value).
    pub fn encode(&self) -> Vec<u8> {
        Value::pair(Value::str(&*self.name), self.value.clone()).encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Unit,
            Value::Bool(true),
            Value::Bool(false),
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::I64(-5),
            Value::bytes(b""),
            Value::bytes(b"hello world"),
            Value::str("label"),
            Value::list([Value::U64(1), Value::str("x"), Value::list([])]),
            Value::pair(Value::bytes(b"a"), Value::Unit),
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for v in sample_values() {
            assert_eq!(Value::decode(&v.encode()), Some(v.clone()), "{v:?}");
        }
    }

    /// `encoded_len` counts what `encode` writes, and `encode` allocates
    /// exactly that once: a short count would reallocate, a long one
    /// would leave spare capacity.
    #[test]
    fn encoded_len_is_the_encoding_length_and_its_one_allocation() {
        for v in sample_values() {
            let enc = v.encode();
            assert_eq!(v.encoded_len(), enc.len(), "{v:?}");
            assert_eq!(enc.capacity(), enc.len(), "{v:?}");
        }
    }

    #[test]
    fn encodings_injective() {
        let vs = sample_values();
        for (i, a) in vs.iter().enumerate() {
            for (j, b) in vs.iter().enumerate() {
                if i != j {
                    assert_ne!(a.encode(), b.encode(), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Value::U64(7).encode();
        enc.push(0);
        assert_eq!(Value::decode(&enc), None);
    }

    #[test]
    fn non_canonical_bool_rejected() {
        // Only 0 and 1 re-encode to themselves.
        assert_eq!(Value::decode(&[1, 1]), Some(Value::Bool(true)));
        for b in [2u8, 0x80, 0xff] {
            assert_eq!(Value::decode(&[1, b]), None, "Bool byte {b}");
        }
    }

    #[test]
    fn truncated_rejected() {
        let enc = Value::bytes(b"hello").encode();
        assert_eq!(Value::decode(&enc[..enc.len() - 1]), None);
    }

    #[test]
    fn hostile_length_is_refused_not_added() {
        for tag in [4u8, 5] {
            // `u64::MAX` overflows `pos + len`; 2 is one byte past the end.
            for len in [u64::MAX, 2] {
                let lying = [&[tag][..], &len.to_be_bytes(), b"x"].concat();
                assert_eq!(Value::decode(&lying), None, "tag {tag}, length {len}");
            }
        }
    }

    #[test]
    fn lists_are_shared_and_immutable() {
        let a = Value::pair(Value::U64(1), Value::bytes(b"x"));
        let (b, mut edited) = (a.clone(), a.clone());
        let (Value::List(la), Value::List(lb), Value::List(le)) = (&a, &b, &mut edited) else {
            unreachable!("pairs are lists")
        };
        assert!(Arc::ptr_eq(la, lb) && la == lb, "a clone shares storage");
        // The rare edit copies a shared list; the other handles keep theirs.
        Arc::make_mut(le)[0] = Value::U64(2);
        assert_eq!((&a.as_list().unwrap()[0], &a), (&Value::U64(1), &b));
        assert_ne!(a, edited);
        // The encoding does not see the sharing.
        let one = 1u64.to_be_bytes();
        let expected = [&[6][..], &2u64.to_be_bytes(), &[2], &one, &[4], &one, b"x"].concat();
        assert_eq!(b.encode(), expected);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::U64(3).as_u64(), Some(3));
        assert_eq!(Value::U64(3).as_i64(), Some(3));
        assert_eq!(Value::I64(-3).as_i64(), Some(-3));
        assert_eq!(Value::bytes(b"x").as_bytes(), Some(&b"x"[..]));
        assert_eq!(Value::str("s").as_str(), Some("s"));
        assert_eq!(
            Value::list([Value::Unit]).as_list().map(|l| l.len()),
            Some(1)
        );
        assert_eq!(Value::Unit.as_u64(), None);
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut vs = sample_values();
        vs.sort();
        let mut again = vs.clone();
        again.sort();
        assert_eq!(vs, again);
    }

    #[test]
    fn digests_distinct() {
        assert_ne!(Value::U64(1).digest(), Value::U64(2).digest());
    }

    #[test]
    fn command_encoding_distinct_by_name() {
        let a = Command::new("A", Value::Unit);
        let b = Command::new("B", Value::Unit);
        assert_ne!(a.encode(), b.encode());
    }
}
