//! Fuzz-style property tests for the `sbc-net` wire codec.
//!
//! The decoder's contract is that it treats its input as hostile: for
//! *any* byte string, `Frame::decode` either returns a frame or a typed
//! [`CodecError`] — it never panics, never overflows, never allocates
//! unboundedly. These tests drive that contract with seeded
//! deterministic randomness (the repo's own `Drbg`, no external fuzzing
//! deps):
//!
//! * random well-formed frames of every kind round-trip byte-exactly;
//! * every strict prefix of a valid frame is a typed error;
//! * every single-bit flip of a valid frame either decodes (flips in
//!   payload bytes can still be canonical) or errors — never panics;
//! * frames whose length prefix lies (short, long, oversize) are typed
//!   errors, and so are bodies whose inner byte / string length lies;
//! * adversarially deep-nested list payloads are rejected instead of
//!   recursing the stack away;
//! * the retired kind tags 12–15 (the snapshot images the codec once
//!   framed) decode as unknown kinds.

use sbc_net::{CodecError, Endpoint, Frame, FrameKind};
use sbc_primitives::drbg::Drbg;
use sbc_uc::value::Value;

/// A random `Value` of bounded depth/width, for frame payloads.
fn rand_value(rng: &mut Drbg, depth: usize) -> Value {
    match rng.gen_bytes(1)[0] % if depth == 0 { 5 } else { 7 } {
        0 => Value::Unit,
        1 => Value::Bool(rng.gen_bytes(1)[0] & 1 == 1),
        2 => Value::U64(u64::from_be_bytes(
            rng.gen_bytes(8).try_into().expect("8 bytes"),
        )),
        3 => {
            let len = (rng.gen_bytes(1)[0] % 40) as usize;
            Value::bytes(rng.gen_bytes(len))
        }
        4 => Value::Str(format!("s{}", rng.gen_bytes(1)[0])),
        _ => {
            let len = (rng.gen_bytes(1)[0] % 4) as usize;
            Value::list((0..len).map(|_| rand_value(rng, depth - 1)))
        }
    }
}

/// A random endpoint.
fn rand_endpoint(rng: &mut Drbg) -> Endpoint {
    match rng.gen_bytes(1)[0] % 3 {
        0 => Endpoint::Env,
        1 => Endpoint::Host,
        _ => Endpoint::Party(u32::from(rng.gen_bytes(1)[0])),
    }
}

/// A random frame covering every kind with random payloads.
fn rand_frame(rng: &mut Drbg) -> Frame {
    let kind = match rng.gen_bytes(1)[0] % 12 {
        0 => FrameKind::Submit(rand_value(rng, 2)),
        1 => FrameKind::Tick,
        2 => FrameKind::Cast(rand_value(rng, 2)),
        3 => FrameKind::Deliver {
            origin: u32::from(rng.gen_bytes(1)[0]),
            payload: rand_value(rng, 2),
        },
        4 => FrameKind::TleEnc {
            rho: Value::bytes(rng.gen_bytes(32)),
            tau: u64::from(rng.gen_bytes(1)[0]),
        },
        5 => FrameKind::TleRetrieve,
        6 => FrameKind::TleTriples(rand_value(rng, 2)),
        7 => FrameKind::TleDec {
            ct: rand_value(rng, 1),
            tau: u64::from(rng.gen_bytes(1)[0]),
        },
        8 => FrameKind::TleDecResp(rand_value(rng, 2)),
        9 => {
            let xlen = (rng.gen_bytes(1)[0] % 48) as usize;
            FrameKind::RoQuery {
                x: rng.gen_bytes(xlen),
                len: u64::from(rng.gen_bytes(1)[0]),
            }
        }
        10 => {
            let len = (rng.gen_bytes(1)[0] % 48) as usize;
            FrameKind::RoAnswer(rng.gen_bytes(len))
        }
        _ => FrameKind::Output(rand_value(rng, 2)),
    };
    Frame {
        from: rand_endpoint(rng),
        to: rand_endpoint(rng),
        sent_at: u64::from(rng.gen_bytes(1)[0]),
        kind,
    }
}

#[test]
fn seeded_random_frames_round_trip_exactly() {
    let mut rng = Drbg::from_seed(b"codec-fuzz/round-trip");
    for i in 0..500 {
        let frame = rand_frame(&mut rng);
        let bytes = frame.encode();
        let back = Frame::decode(&bytes)
            .unwrap_or_else(|e| panic!("iteration {i}: {frame:?} failed to decode: {e}"));
        assert_eq!(back, frame, "iteration {i}: round trip not exact");
        // Re-encoding is byte-identical (canonical encoding).
        assert_eq!(back.encode(), bytes, "iteration {i}: re-encode differs");
        // Relabelled with a retired tag, no body makes it a frame again.
        let tag = 12 + (i % 4) as u8;
        let mut retired = bytes;
        retired[7] = tag;
        assert_eq!(
            Frame::decode(&retired),
            Err(CodecError::UnknownKind { tag }),
            "iteration {i}"
        );
    }
}

#[test]
fn every_strict_prefix_is_a_typed_error_never_a_panic() {
    let mut rng = Drbg::from_seed(b"codec-fuzz/truncate");
    for _ in 0..50 {
        let bytes = rand_frame(&mut rng).encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).expect_err("prefix must not decode");
            // Truncation surfaces as a typed error; which one depends on
            // where the cut lands (length prefix, header, or body).
            let rendered = err.to_string();
            assert!(!rendered.is_empty(), "error renders: {err:?}");
        }
    }
}

#[test]
fn single_bit_flips_never_panic() {
    let mut rng = Drbg::from_seed(b"codec-fuzz/bitflip");
    let mut decoded = 0u32;
    let mut rejected = 0u32;
    for _ in 0..40 {
        let bytes = rand_frame(&mut rng).encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte] ^= 1 << bit;
                // The only property: this call returns. Both outcomes are
                // legal (a flip inside e.g. a Bytes payload can still be
                // canonical).
                match Frame::decode(&mutated) {
                    Ok(_) => decoded += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    // Non-vacuity: the corpus produced both outcomes.
    assert!(rejected > 0, "some flips must corrupt framing");
    assert!(decoded > 0, "some payload flips stay canonical");
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = Drbg::from_seed(b"codec-fuzz/garbage");
    for _ in 0..2000 {
        let len =
            (u16::from_be_bytes(rng.gen_bytes(2).try_into().expect("2 bytes")) % 300) as usize;
        let garbage = rng.gen_bytes(len);
        let _ = Frame::decode(&garbage); // must return, not panic
    }
}

#[test]
fn lying_length_prefixes_are_typed_errors() {
    let frame = Frame {
        from: Endpoint::Party(1),
        to: Endpoint::Party(2),
        sent_at: 7,
        kind: FrameKind::RoAnswer(vec![0xAB; 16]),
    };
    let bytes = frame.encode();

    // Prefix claims one byte more than the frame carries.
    let mut long = bytes.clone();
    let declared = u32::from_be_bytes(long[0..4].try_into().expect("4 bytes")) + 1;
    long[0..4].copy_from_slice(&declared.to_be_bytes());
    assert!(matches!(
        Frame::decode(&long),
        Err(CodecError::Truncated { .. } | CodecError::LengthMismatch { .. })
    ));

    // Prefix claims one byte fewer.
    let mut short = bytes.clone();
    let declared = u32::from_be_bytes(short[0..4].try_into().expect("4 bytes")) - 1;
    short[0..4].copy_from_slice(&declared.to_be_bytes());
    assert!(Frame::decode(&short).is_err(), "short claim rejected");

    // Prefix claims more than the hard cap: rejected up front without
    // allocating the claimed amount.
    let mut oversize = bytes;
    oversize[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(
        Frame::decode(&oversize),
        Err(CodecError::Oversize { .. })
    ));
}

#[test]
fn lying_inner_lengths_are_typed_errors() {
    // A well-framed `Deliver` whose body carries a byte string (tag 4) and
    // a string (tag 5); each in turn claims `u64::MAX` bytes. The frame's
    // own lengths stay honest, so only the value decoder sees the lie.
    let payload = Value::pair(Value::bytes(b"abcd"), Value::str("efgh"));
    let bytes = Frame {
        from: Endpoint::Host,
        to: Endpoint::Party(1),
        sent_at: 7,
        kind: FrameKind::Deliver { origin: 3, payload },
    }
    .encode();
    for content in [b"abcd", b"efgh"] {
        let at = bytes
            .windows(4)
            .position(|w| w == content)
            .expect("in the body")
            - 8;
        let mut lying = bytes.clone();
        lying[at..at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        let kind = "Deliver";
        assert_eq!(Frame::decode(&lying), Err(CodecError::BadPayload { kind }));
    }
}

#[test]
fn adversarial_deep_nesting_is_rejected_not_recursed() {
    // A body that is 2000 nested single-element lists: 9 bytes per level,
    // far deeper than any protocol value. Splice it into an otherwise
    // valid Submit frame. The decoder must reject it (malformed payload)
    // rather than recurse once per level.
    let depth = 2000usize;
    let mut body = Vec::with_capacity(depth * 9 + 1);
    for _ in 0..depth {
        body.push(6u8); // List tag
        body.extend_from_slice(&1u64.to_be_bytes());
    }
    body.push(0u8); // innermost Unit

    let template = Frame {
        from: Endpoint::Env,
        to: Endpoint::Party(0),
        sent_at: 0,
        kind: FrameKind::Submit(Value::Unit),
    }
    .encode();
    // Header layout: [0..4) outer length, [4..) header with trailing
    // body-length u32, then the 1-byte Unit body. Rebuild with our body.
    let header = &template[4..template.len() - 1 - 4];
    let mut evil = Vec::new();
    evil.extend_from_slice(&((header.len() + 4 + body.len()) as u32).to_be_bytes());
    evil.extend_from_slice(header);
    evil.extend_from_slice(&(body.len() as u32).to_be_bytes());
    evil.extend_from_slice(&body);

    assert!(matches!(
        Frame::decode(&evil),
        Err(CodecError::BadPayload { .. })
    ));
}
