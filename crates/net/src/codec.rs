//! The versioned, length-prefixed wire format.
//!
//! A [`Frame`] is every message that crosses a party boundary in the
//! networked world. On the wire it is
//!
//! ```text
//! ┌─────────┬───────┬─────────┬──────┬──────┬────┬─────────┬──────────┬──────┐
//! │ len u32 │ magic │ version │ kind │ from │ to │ sent_at │ body len │ body │
//! │         │ "SB"  │  1 B    │ 1 B  │ 5 B  │ 5 B│  8 B    │  u32     │  …   │
//! └─────────┴───────┴─────────┴──────┴──────┴────┴─────────┴──────────┴──────┘
//! ```
//!
//! with all integers big-endian, endpoints as a tag byte plus a `u32`
//! party index, and the body a canonical [`Value`] encoding shaped per
//! [`FrameKind`]. The outer length prefix covers everything after itself,
//! so frames concatenate into a stream (`Frame::decode_prefix`).
//!
//! The decoder treats its input as hostile: every way a frame can be
//! malformed — truncation, a lying length prefix, an unknown kind or
//! endpoint tag, an oversized claim, a body that does not decode or has
//! the wrong shape — maps to a typed [`CodecError`] variant. Decoding
//! never panics and never allocates more than the input's own length.

use sbc_uc::value::Value;
use std::fmt;
use std::sync::Arc;

/// Magic bytes opening every frame.
pub(crate) const MAGIC: [u8; 2] = *b"SB";

/// The current wire-format version.
pub(crate) const VERSION: u8 = 1;

/// Hard cap on the encoded size of a single frame (header + body). A
/// length prefix claiming more is rejected up front ([`CodecError::
/// Oversize`]) so a hostile peer cannot make the decoder reserve memory
/// it never sends.
pub(crate) const MAX_FRAME: usize = 1 << 24;

/// Fixed header length after the outer length prefix: magic (2) +
/// version (1) + kind tag (1) + from (5) + to (5) + sent_at (8) +
/// body length (4).
const HEADER_LEN: usize = 26;

/// The canonical [`Value`] header of a pair: a list (tag 6) of 2 items.
const PAIR: [u8; 9] = [6, 0, 0, 0, 0, 0, 0, 0, 2];

/// A frame address: the environment, the functionality host, a party, or
/// every party at once.
///
/// The functionality host plays the hybrid functionalities (`F_UBC`,
/// `F_TLE`, `F_RO`) of the UC experiment; in a deployment it would be the
/// trusted-setup/service side of the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The environment (submissions in, release outputs back).
    Env,
    /// The functionality host.
    Host,
    /// Party `i`.
    Party(u32),
    /// Every party of the experiment: `F_UBC` hands a flushed message to
    /// all of `P` at once. A transport files one copy per party, in id
    /// order, each re-addressed to its party.
    Parties,
}

impl Endpoint {
    fn encode_into(self, out: &mut Vec<u8>) {
        match self {
            Endpoint::Env => {
                out.push(0);
                out.extend_from_slice(&0u32.to_be_bytes());
            }
            Endpoint::Host => {
                out.push(1);
                out.extend_from_slice(&0u32.to_be_bytes());
            }
            Endpoint::Party(i) => {
                out.push(2);
                out.extend_from_slice(&i.to_be_bytes());
            }
            Endpoint::Parties => {
                out.push(3);
                out.extend_from_slice(&0u32.to_be_bytes());
            }
        }
    }

    fn decode([tag, idx @ ..]: [u8; 5]) -> Result<Endpoint, CodecError> {
        let idx = u32::from_be_bytes(idx);
        match (tag, idx) {
            (0, 0) => Ok(Endpoint::Env),
            (1, 0) => Ok(Endpoint::Host),
            (2, idx) => Ok(Endpoint::Party(idx)),
            (3, 0) => Ok(Endpoint::Parties),
            _ => Err(CodecError::UnknownEndpoint { tag }),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Env => write!(f, "env"),
            Endpoint::Host => write!(f, "host"),
            Endpoint::Party(i) => write!(f, "party/{i}"),
            Endpoint::Parties => write!(f, "parties"),
        }
    }
}

/// The payload of a [`Frame`] — one variant per protocol message class
/// crossing a party boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Environment → party: a `(sid, Broadcast, M)` submission.
    Submit(Value),
    /// Environment → party: the round advance (the `G_clock` tick).
    Tick,
    /// Party → host: an unfair-broadcast request (`Wake_Up` or a wire).
    Cast(Value),
    /// Host → party: a UBC delivery, carrying the originating sender.
    Deliver {
        /// The broadcasting party.
        origin: u32,
        /// The broadcast payload (`Wake_Up` or a `(c, τ_rel, y)` wire).
        payload: Value,
    },
    /// Party → host: time-lock encrypt `ρ` towards `τ` (the TLE share of
    /// a pending broadcast).
    TleEnc {
        /// The mask seed `ρ` (as a `Value::Bytes`).
        rho: Value,
        /// The release time the ciphertext opens at.
        tau: u64,
    },
    /// Party → host: fetch the ciphertexts that became ready.
    TleRetrieve,
    /// Host → party: the ready `(ρ, c, τ)` triples.
    TleTriples(Value),
    /// Party → host: decrypt `c` towards `τ`.
    TleDec {
        /// The ciphertext.
        ct: Value,
        /// The claimed release time.
        tau: u64,
    },
    /// Host → party: the decryption response (`Unit` for an unknown
    /// ciphertext, otherwise `DecResponse::to_value`).
    TleDecResp(Value),
    /// Party → host: an `F_RO` variable-length query.
    RoQuery {
        /// The query point.
        x: Vec<u8>,
        /// Requested output length in bytes.
        len: u64,
    },
    /// Host → party: the oracle answer.
    RoAnswer(Vec<u8>),
    /// Party → environment: the release-round output vector.
    Output(Value),
}

impl FrameKind {
    fn tag(&self) -> u8 {
        match self {
            FrameKind::Submit(_) => 0,
            FrameKind::Tick => 1,
            FrameKind::Cast(_) => 2,
            FrameKind::Deliver { .. } => 3,
            FrameKind::TleEnc { .. } => 4,
            FrameKind::TleRetrieve => 5,
            FrameKind::TleTriples(_) => 6,
            FrameKind::TleDec { .. } => 7,
            FrameKind::TleDecResp(_) => 8,
            FrameKind::RoQuery { .. } => 9,
            FrameKind::RoAnswer(_) => 10,
            FrameKind::Output(_) => 11,
            // 12 (the single-frame `Snapshot` image) and 13–15
            // (`SnapshotHeader`/`SnapshotChunk`/`SnapshotTrailer`, the
            // framed image stream) are retired, never reused.
        }
    }

    fn name(tag: u8) -> &'static str {
        match tag {
            0 => "Submit",
            1 => "Tick",
            2 => "Cast",
            3 => "Deliver",
            4 => "TleEnc",
            5 => "TleRetrieve",
            6 => "TleTriples",
            7 => "TleDec",
            8 => "TleDecResp",
            9 => "RoQuery",
            10 => "RoAnswer",
            11 => "Output",
            _ => "?",
        }
    }

    /// Appends the body, a [`Value`] shaped per kind, payloads by reference.
    fn encode_body(&self, out: &mut Vec<u8>) {
        let pair = |out: &mut Vec<u8>, a: &Value, b: &Value| {
            out.extend_from_slice(&PAIR);
            a.encode_into(out);
            b.encode_into(out);
        };
        match self {
            FrameKind::Submit(v) | FrameKind::Cast(v) => v.encode_into(out),
            FrameKind::Tick | FrameKind::TleRetrieve => Value::Unit.encode_into(out),
            FrameKind::Deliver { origin, payload } => {
                pair(out, &Value::U64(u64::from(*origin)), payload)
            }
            FrameKind::TleEnc { rho, tau } => pair(out, rho, &Value::U64(*tau)),
            FrameKind::TleTriples(v) | FrameKind::TleDecResp(v) | FrameKind::Output(v) => {
                v.encode_into(out)
            }
            FrameKind::TleDec { ct, tau } => pair(out, ct, &Value::U64(*tau)),
            FrameKind::RoQuery { x, len } => pair(out, &Value::bytes(x), &Value::U64(*len)),
            FrameKind::RoAnswer(b) => Value::bytes(b).encode_into(out),
        }
    }

    /// The length of [`encode_body`](Self::encode_body)'s output, arm for
    /// arm, so a frame is encoded into one exact allocation.
    fn body_len(&self) -> usize {
        let pair = |a: usize, b: usize| PAIR.len() + a + b;
        // A `Bytes` value encodes as empty bytes do, then its contents.
        let bytes = |b: &[u8]| Value::Bytes(Vec::new()).encoded_len() + b.len();
        match self {
            FrameKind::Submit(v) | FrameKind::Cast(v) => v.encoded_len(),
            FrameKind::Tick | FrameKind::TleRetrieve => Value::Unit.encoded_len(),
            FrameKind::Deliver { origin, payload } => pair(
                Value::U64(u64::from(*origin)).encoded_len(),
                payload.encoded_len(),
            ),
            FrameKind::TleEnc { rho, tau } => {
                pair(rho.encoded_len(), Value::U64(*tau).encoded_len())
            }
            FrameKind::TleTriples(v) | FrameKind::TleDecResp(v) | FrameKind::Output(v) => {
                v.encoded_len()
            }
            FrameKind::TleDec { ct, tau } => pair(ct.encoded_len(), Value::U64(*tau).encoded_len()),
            FrameKind::RoQuery { x, len } => pair(bytes(x), Value::U64(*len).encoded_len()),
            FrameKind::RoAnswer(b) => bytes(b),
        }
    }

    fn from_body(tag: u8, body: Value) -> Result<FrameKind, CodecError> {
        let bad = || CodecError::BadPayload {
            kind: Self::name(tag),
        };
        let unpair = |body: Value| -> Result<[Value; 2], CodecError> {
            match body {
                Value::List(items) => Arc::unwrap_or_clone(items).try_into().map_err(|_| bad()),
                _ => Err(bad()),
            }
        };
        match tag {
            0 => Ok(FrameKind::Submit(body)),
            1 => match body {
                Value::Unit => Ok(FrameKind::Tick),
                _ => Err(bad()),
            },
            2 => Ok(FrameKind::Cast(body)),
            3 => {
                let [origin, payload] = unpair(body)?;
                let origin = origin
                    .as_u64()
                    .and_then(|o| u32::try_from(o).ok())
                    .ok_or_else(bad)?;
                Ok(FrameKind::Deliver { origin, payload })
            }
            4 => {
                let [rho, tau] = unpair(body)?;
                rho.as_bytes().ok_or_else(bad)?;
                let tau = tau.as_u64().ok_or_else(bad)?;
                Ok(FrameKind::TleEnc { rho, tau })
            }
            5 => match body {
                Value::Unit => Ok(FrameKind::TleRetrieve),
                _ => Err(bad()),
            },
            6 => Ok(FrameKind::TleTriples(body)),
            7 => {
                let [ct, tau] = unpair(body)?;
                let tau = tau.as_u64().ok_or_else(bad)?;
                Ok(FrameKind::TleDec { ct, tau })
            }
            8 => Ok(FrameKind::TleDecResp(body)),
            9 => {
                let [Value::Bytes(x), len] = unpair(body)? else {
                    return Err(bad());
                };
                let len = len.as_u64().ok_or_else(bad)?;
                Ok(FrameKind::RoQuery { x, len })
            }
            10 => match body {
                Value::Bytes(b) => Ok(FrameKind::RoAnswer(b)),
                _ => Err(bad()),
            },
            11 => Ok(FrameKind::Output(body)),
            _ => Err(CodecError::UnknownKind { tag }),
        }
    }
}

/// Splits the next `N` bytes off the front of `bytes`, as an array.
fn take<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = bytes.split_first_chunk().ok_or(CodecError::Truncated {
        needed: N,
        have: bytes.len(),
    })?;
    *bytes = rest;
    Ok(*head)
}

/// One wire message of the networked world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Sender endpoint.
    pub from: Endpoint,
    /// Recipient endpoint.
    pub to: Endpoint,
    /// The round the frame was sent in (`G_clock` time at the sender).
    pub sent_at: u64,
    /// The message.
    pub kind: FrameKind,
}

impl Frame {
    /// Encodes the frame, including the outer length prefix, into one
    /// allocation of exactly its length. A length past `u32::MAX` is
    /// written as `u32::MAX`, which every decoder refuses as
    /// [`CodecError::Oversize`].
    pub fn encode(&self) -> Vec<u8> {
        let body_len = self.kind.body_len();
        let prefix = |len: usize| u32::try_from(len).unwrap_or(u32::MAX).to_be_bytes();
        let mut out = Vec::with_capacity(4 + HEADER_LEN + body_len);
        out.extend_from_slice(&prefix(HEADER_LEN + body_len));
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind.tag());
        self.from.encode_into(&mut out);
        self.to.encode_into(&mut out);
        out.extend_from_slice(&self.sent_at.to_be_bytes());
        out.extend_from_slice(&prefix(body_len));
        self.kind.encode_body(&mut out);
        out
    }

    /// Decodes exactly one frame; trailing bytes are an error.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] naming the first malformation found. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Frame, CodecError> {
        let (frame, used) = Frame::decode_prefix(bytes)?;
        if used != bytes.len() {
            return Err(CodecError::TrailingBytes {
                extra: bytes.len() - used,
            });
        }
        Ok(frame)
    }

    /// Decodes one frame off the front of a byte stream, returning it and
    /// the number of bytes consumed (length prefix included).
    ///
    /// # Errors
    ///
    /// A [`CodecError`] naming the first malformation found. Never panics.
    pub(crate) fn decode_prefix(bytes: &[u8]) -> Result<(Frame, usize), CodecError> {
        let mut rest = bytes;
        let declared = u32::from_be_bytes(take(&mut rest)?) as usize;
        if declared > MAX_FRAME {
            return Err(CodecError::Oversize {
                len: declared,
                max: MAX_FRAME,
            });
        }
        if declared < HEADER_LEN {
            return Err(CodecError::LengthMismatch {
                declared,
                actual: HEADER_LEN,
            });
        }
        let total = 4 + declared;
        if bytes.len() < total {
            return Err(CodecError::Truncated {
                needed: total,
                have: bytes.len(),
            });
        }
        // The fixed header, field by field: `declared ≥ HEADER_LEN` bytes
        // are there, so none of these reads can come up short.
        let mut rest = &rest[..declared];
        let [m0, m1, version, kind_tag] = take(&mut rest)?;
        if [m0, m1] != MAGIC {
            return Err(CodecError::BadMagic { found: [m0, m1] });
        }
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion { found: version });
        }
        let from = Endpoint::decode(take(&mut rest)?)?;
        let to = Endpoint::decode(take(&mut rest)?)?;
        let sent_at = u64::from_be_bytes(take(&mut rest)?);
        let body_len = u32::from_be_bytes(take(&mut rest)?) as usize;
        if HEADER_LEN + body_len != declared {
            return Err(CodecError::LengthMismatch {
                declared,
                actual: HEADER_LEN + body_len,
            });
        }
        let body = Value::decode(rest).ok_or(CodecError::BadPayload {
            kind: FrameKind::name(kind_tag),
        })?;
        let kind = FrameKind::from_body(kind_tag, body)?;
        Ok((
            Frame {
                from,
                to,
                sent_at,
                kind,
            },
            total,
        ))
    }
}

/// Every way a frame can fail to decode. The decoder returns the first
/// malformation it finds; it never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends before the declared frame does.
    Truncated {
        /// Bytes required to make progress.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The frame does not open with the `"SB"` magic.
    BadMagic {
        /// The two bytes found instead.
        found: [u8; 2],
    },
    /// A version this decoder does not speak.
    UnsupportedVersion {
        /// The version byte found.
        found: u8,
    },
    /// An unknown frame-kind tag.
    UnknownKind {
        /// The kind tag found.
        tag: u8,
    },
    /// An address field that is no canonical endpoint: an unknown tag, or
    /// an `Env`, `Host` or `Parties` tag with a non-zero index.
    UnknownEndpoint {
        /// The endpoint tag found.
        tag: u8,
    },
    /// The outer length prefix disagrees with the header's body length.
    LengthMismatch {
        /// The outer prefix's claim.
        declared: usize,
        /// The length implied by the header.
        actual: usize,
    },
    /// The length prefix claims more than `MAX_FRAME`.
    Oversize {
        /// The claimed length.
        len: usize,
        /// The cap.
        max: usize,
    },
    /// The body is not a canonical `Value`, or has the wrong shape for
    /// the frame kind.
    BadPayload {
        /// The frame kind whose shape was violated.
        kind: &'static str,
    },
    /// Bytes remain after a complete frame where exactly one was expected.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated frame: need {needed} bytes, have {have}")
            }
            CodecError::BadMagic { found } => {
                write!(
                    f,
                    "bad magic 0x{:02x}{:02x} (want \"SB\")",
                    found[0], found[1]
                )
            }
            CodecError::UnsupportedVersion { found } => {
                write!(f, "unsupported wire version {found} (speak {VERSION})")
            }
            CodecError::UnknownKind { tag } => write!(f, "unknown frame kind tag {tag}"),
            CodecError::UnknownEndpoint { tag } => {
                write!(f, "unknown endpoint under tag {tag}")
            }
            CodecError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length prefix mismatch: declared {declared}, header implies {actual}"
                )
            }
            CodecError::Oversize { len, max } => {
                write!(f, "frame claims {len} bytes, cap is {max}")
            }
            CodecError::BadPayload { kind } => {
                write!(f, "malformed payload for {kind} frame")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Network-layer errors of the networked backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A frame failed to decode (source-chained to the [`CodecError`]).
    Codec(CodecError),
    /// A frame was addressed to a party outside the experiment.
    UnknownParty {
        /// The out-of-range party index.
        party: u32,
        /// The number of parties in the experiment.
        n: usize,
    },
    /// A socket operation failed (the `std::io` error rendered to text —
    /// `io::Error` is neither `Clone` nor `Eq`, and the typed surface is).
    Io {
        /// The operation that failed (`"bind"`, `"connect"`, `"write"`, …).
        op: &'static str,
        /// The rendered I/O error.
        detail: String,
    },
    /// A read or write deadline (derived from the round bound ∆) expired
    /// before the peer caught up.
    Timeout {
        /// The operation whose deadline expired.
        op: &'static str,
        /// The deadline that was exceeded, in milliseconds.
        millis: u64,
    },
    /// A link stayed down through every reconnect attempt.
    LinkDown {
        /// The lane whose link is down (e.g. `"control"`, `"data:2"`).
        lane: String,
        /// Reconnect attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(_) => write!(f, "undecodable frame dropped by transport"),
            NetError::UnknownParty { party, n } => {
                write!(f, "frame addressed to party {party}, experiment has {n}")
            }
            NetError::Io { op, detail } => write!(f, "socket {op} failed: {detail}"),
            NetError::Timeout { op, millis } => {
                write!(f, "{op} deadline expired after {millis} ms")
            }
            NetError::LinkDown { lane, attempts } => {
                write!(f, "link {lane} down after {attempts} reconnect attempts")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Codec(e) => Some(e),
            NetError::UnknownParty { .. }
            | NetError::Io { .. }
            | NetError::Timeout { .. }
            | NetError::LinkDown { .. } => None,
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            from: Endpoint::Party(3),
            to: Endpoint::Host,
            sent_at: 7,
            kind: FrameKind::TleEnc {
                rho: Value::bytes(b"rho-bytes"),
                tau: 5,
            },
        }
    }

    #[test]
    fn round_trip_every_kind() {
        let kinds = vec![
            FrameKind::Submit(Value::bytes(b"m")),
            FrameKind::Tick,
            FrameKind::Cast(Value::str("Wake_Up")),
            FrameKind::Deliver {
                origin: 2,
                payload: Value::list([Value::bytes(b"c"), Value::U64(5), Value::bytes(b"y")]),
            },
            FrameKind::TleEnc {
                rho: Value::bytes(b"r"),
                tau: 9,
            },
            FrameKind::TleRetrieve,
            FrameKind::TleTriples(Value::list([])),
            FrameKind::TleDec {
                ct: Value::bytes(b"c"),
                tau: 9,
            },
            FrameKind::TleDecResp(Value::Unit),
            FrameKind::RoQuery {
                x: b"x".to_vec(),
                len: 32,
            },
            FrameKind::RoAnswer(vec![1, 2, 3]),
            FrameKind::Output(Value::list([Value::bytes(b"out")])),
        ];
        for (tag, kind) in kinds.into_iter().enumerate() {
            let f = Frame {
                from: Endpoint::Env,
                to: Endpoint::Party(0),
                sent_at: 1,
                kind,
            };
            assert_eq!(usize::from(f.kind.tag()), tag, "{f:?}");
            assert_eq!(Frame::decode(&f.encode()), Ok(f.clone()), "{f:?}");
        }
        // Tags 0–11 are every kind there is: 12–15, the retired
        // snapshot-image tags, decode as unknown whatever the body.
        for tag in 12u8..=15 {
            let mut retired = sample().encode();
            retired[7] = tag;
            assert_eq!(
                Frame::decode(&retired),
                Err(CodecError::UnknownKind { tag })
            );
        }
    }

    /// One frame of every kind, byte for byte: the header layout, the kind
    /// tags and the `Value` shape of each body (expected bytes from a
    /// 15-line Python model of the layout in the module doc). Whatever the
    /// encoder does on the way to these bytes — clone, borrow, back-patch —
    /// is free to change; the bytes are not.
    #[test]
    fn golden_bytes_every_kind() {
        let rho_ct = [Value::bytes(b"rho"), Value::bytes(b"ct"), Value::U64(9)];
        let kinds = [
            FrameKind::Submit(Value::bytes(b"m")),
            FrameKind::Tick,
            FrameKind::Cast(Value::str("Wake_Up")),
            FrameKind::Deliver {
                origin: 2,
                payload: Value::list([Value::bytes(b"ct"), Value::U64(5), Value::bytes(b"y!")]),
            },
            FrameKind::TleEnc {
                rho: Value::bytes(b"rho"),
                tau: 9,
            },
            FrameKind::TleRetrieve,
            FrameKind::TleTriples(Value::list([Value::list(rho_ct)])),
            FrameKind::TleDec {
                ct: Value::bytes(b"ct"),
                tau: 9,
            },
            FrameKind::TleDecResp(Value::Unit),
            FrameKind::RoQuery {
                x: b"rho".to_vec(),
                len: 4096,
            },
            FrameKind::RoAnswer(vec![0xde, 0xad, 0xbe, 0xef]),
            FrameKind::Output(Value::list([Value::bytes(b"a"), Value::I64(-1)])),
        ];
        // Frame i goes from party i to the environment (even i) or the
        // host (odd i) at round 0x0102030405060708.
        #[rustfmt::skip]
        let golden = [
            "00000024534201000200000000000000000001020304050607080000000a0400000000000000016d",
            "0000001b534201010200000001010000000001020304050607080000000100",
            "0000002a534201020200000002000000000001020304050607080000001005000000000000000757616b655f5570",
            "00000054534201030200000003010000000001020304050607080000003a06000000000000000202000000000000000206000000000000000304000000000000000263740200000000000000050400000000000000027921",
            "00000038534201040200000004000000000001020304050607080000001e06000000000000000204000000000000000372686f020000000000000009",
            "0000001b534201050200000005010000000001020304050607080000000100",
            "0000004c534201060200000006000000000001020304050607080000003206000000000000000106000000000000000304000000000000000372686f0400000000000000026374020000000000000009",
            "00000037534201070200000007010000000001020304050607080000001d0600000000000000020400000000000000026374020000000000000009",
            "0000001b534201080200000008000000000001020304050607080000000100",
            "00000038534201090200000009010000000001020304050607080000001e06000000000000000204000000000000000372686f020000000000001000",
            "000000275342010a020000000a000000000001020304050607080000000d040000000000000004deadbeef",
            "000000365342010b020000000b010000000001020304050607080000001c0600000000000000020400000000000000016103ffffffffffffffff",
        ];
        for (i, (kind, hex)) in kinds.into_iter().zip(golden).enumerate() {
            let f = Frame {
                from: Endpoint::Party(i as u32),
                to: [Endpoint::Env, Endpoint::Host][i % 2],
                sent_at: 0x0102_0304_0506_0708,
                kind,
            };
            let enc = f.encode();
            assert_eq!(sbc_primitives::hex::encode(&enc), hex, "{f:?}");
            // One allocation of exactly the frame's length: `body_len`
            // counts what `encode_body` writes, no more, no less.
            assert_eq!(enc.len(), 4 + HEADER_LEN + f.kind.body_len(), "{f:?}");
            assert_eq!(enc.capacity(), enc.len(), "{f:?}");
            assert_eq!(Frame::decode(&enc), Ok(f));
        }
    }

    /// A `Deliver` to every party, byte for byte (expected bytes from the
    /// same Python model as `golden_bytes_every_kind`): the `Parties`
    /// endpoint is tag 3 over index 0, and any other index is refused,
    /// as for `Env` and `Host`.
    #[test]
    fn golden_bytes_to_every_party() {
        let f = Frame {
            from: Endpoint::Host,
            to: Endpoint::Parties,
            sent_at: 0x0102_0304_0506_0708,
            kind: FrameKind::Deliver {
                origin: 2,
                payload: Value::list([Value::bytes(b"ct"), Value::U64(5), Value::bytes(b"y!")]),
            },
        };
        let enc = f.encode();
        #[rustfmt::skip]
        let golden = "00000054534201030100000000030000000001020304050607080000003a06000000000000000202000000000000000206000000000000000304000000000000000263740200000000000000050400000000000000027921";
        assert_eq!(sbc_primitives::hex::encode(&enc), golden);
        assert_eq!(Frame::decode(&enc), Ok(f));
        assert_eq!(Endpoint::Parties.to_string(), "parties");
        let mut indexed = enc;
        assert_eq!(indexed[13..18], [3, 0, 0, 0, 0]);
        indexed[17] = 1;
        assert_eq!(
            Frame::decode(&indexed),
            Err(CodecError::UnknownEndpoint { tag: 3 })
        );
    }

    #[test]
    fn pair_header_is_values_own() {
        let pair = Value::pair(Value::Unit, Value::Unit).encode();
        assert_eq!(pair[..PAIR.len()], PAIR);
    }

    #[test]
    fn stream_decoding() {
        let a = sample();
        let b = Frame {
            sent_at: 8,
            ..sample()
        };
        let mut stream = a.encode();
        stream.extend_from_slice(&b.encode());
        let (fa, used) = Frame::decode_prefix(&stream).unwrap();
        let (fb, used2) = Frame::decode_prefix(&stream[used..]).unwrap();
        assert_eq!((fa, fb), (a, b));
        assert_eq!(used + used2, stream.len());
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let enc = sample().encode();
        for cut in 0..enc.len() {
            let err = Frame::decode(&enc[..cut]);
            assert!(
                matches!(err, Err(CodecError::Truncated { .. })),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn header_malformations() {
        let mut bad_magic = sample().encode();
        bad_magic[4] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(CodecError::BadMagic { .. })
        ));

        let mut bad_version = sample().encode();
        bad_version[6] = 99;
        assert_eq!(
            Frame::decode(&bad_version),
            Err(CodecError::UnsupportedVersion { found: 99 })
        );

        // 12 is the retired single-frame `Snapshot` tag: unassigned like
        // any other.
        for tag in [12u8, 200] {
            let mut bad_kind = sample().encode();
            bad_kind[7] = tag;
            assert_eq!(
                Frame::decode(&bad_kind),
                Err(CodecError::UnknownKind { tag })
            );
        }

        let mut bad_endpoint = sample().encode();
        bad_endpoint[8] = 9;
        assert_eq!(
            Frame::decode(&bad_endpoint),
            Err(CodecError::UnknownEndpoint { tag: 9 })
        );
        // `Host` (tag 1) always encodes index 0: any other index would
        // decode to a frame that re-encodes to different bytes.
        let mut indexed_host = sample().encode();
        assert_eq!(indexed_host[13..18], [1, 0, 0, 0, 0]);
        indexed_host[17] = 1;
        assert_eq!(
            Frame::decode(&indexed_host),
            Err(CodecError::UnknownEndpoint { tag: 1 })
        );
    }

    #[test]
    fn lying_lengths() {
        let enc = sample().encode();
        let mut lying = enc.clone();
        lying[..4].copy_from_slice(&((enc.len() - 4 + 1) as u32).to_be_bytes());
        assert!(matches!(
            Frame::decode(&lying),
            Err(CodecError::Truncated { .. }) | Err(CodecError::LengthMismatch { .. })
        ));

        let mut oversize = enc.clone();
        oversize[..4].copy_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(matches!(
            Frame::decode(&oversize),
            Err(CodecError::Oversize { .. })
        ));

        let mut trailing = enc;
        trailing.push(0);
        assert_eq!(
            Frame::decode(&trailing),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn wrong_shape_body_rejected() {
        // A TleEnc frame whose body is not a (rho, tau) pair.
        let f = Frame {
            from: Endpoint::Host,
            to: Endpoint::Party(0),
            sent_at: 0,
            kind: FrameKind::RoAnswer(vec![1]),
        };
        let mut enc = f.encode();
        enc[7] = 4; // relabel as TleEnc; body stays a bare Bytes
        assert_eq!(
            Frame::decode(&enc),
            Err(CodecError::BadPayload { kind: "TleEnc" })
        );
    }

    #[test]
    fn net_error_source_chain() {
        let e = NetError::from(CodecError::UnknownKind { tag: 7 });
        let dyn_err: &dyn std::error::Error = &e;
        assert!(dyn_err.source().is_some());
    }
}
