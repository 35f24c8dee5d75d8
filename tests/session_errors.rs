//! Error-path coverage for the fallible session API: every public misuse
//! of `SbcSession` returns the right `SbcError` variant — no panics.
//! Includes an exhaustive variant round-trip (`exhaustive_sbc_error_...`)
//! that fails to compile when a variant is added without coverage.

use sbc_core::api::{SbcError, SbcSession};

#[test]
fn invalid_params_rejected_at_build() {
    // Φ ≤ delay (Theorem 2 violated).
    assert!(matches!(
        SbcSession::builder(3)
            .phi(1)
            .tle_delay(2)
            .seed(b"p1")
            .build(),
        Err(SbcError::InvalidParams { .. })
    ));
    // ∆ ≤ α_TLE (Theorem 2 violated).
    assert!(matches!(
        SbcSession::builder(3).delta(0).seed(b"p2").build(),
        Err(SbcError::InvalidParams { .. })
    ));
    // Degenerate party count.
    assert!(matches!(
        SbcSession::builder(0).seed(b"p3").build(),
        Err(SbcError::InvalidParams { .. })
    ));
    // Corrupt-at-start list referencing a non-existent party.
    assert!(matches!(
        SbcSession::builder(2).corrupt(&[5]).seed(b"p4").build(),
        Err(SbcError::PartyOutOfRange { party: 5, n: 2 })
    ));
}

#[test]
fn out_of_range_party_rejected_at_submit() {
    let mut s = SbcSession::builder(3).seed(b"range").build().unwrap();
    assert_eq!(
        s.submit(3, b"x"),
        Err(SbcError::PartyOutOfRange { party: 3, n: 3 })
    );
    // The session is still usable after the error.
    s.submit(0, b"ok").unwrap();
    assert_eq!(
        s.run_to_completion().unwrap().messages,
        vec![b"ok".to_vec()]
    );
}

#[test]
fn submit_after_period_close_rejected() {
    let mut s = SbcSession::builder(2).seed(b"close").build().unwrap();
    s.submit(0, b"opens the period").unwrap();
    // Period = [0, Φ); a submission whose ciphertext cannot be ready
    // before t_end is rejected with the closing round in the error.
    for _ in 0..2 {
        s.step_round().unwrap();
    }
    assert_eq!(
        s.submit(1, b"too late"),
        Err(SbcError::SubmitAfterClose { round: 2, t_end: 3 })
    );
    // After release (no epoch turnover) the period stays closed.
    let r = s.run_to_completion().unwrap();
    assert_eq!(r.messages.len(), 1);
    assert!(matches!(
        s.submit(1, b"still closed"),
        Err(SbcError::SubmitAfterClose { .. })
    ));
}

#[test]
fn empty_epoch_is_no_input() {
    let mut s = SbcSession::builder(2).seed(b"noinput").build().unwrap();
    assert_eq!(s.run_to_completion(), Err(SbcError::NoInput));
    assert_eq!(s.run_epoch().unwrap_err(), SbcError::NoInput);
    // An epoch that did run resets the submission counter: the next
    // run_epoch without submissions is NoInput again.
    s.submit(0, b"m").unwrap();
    s.run_epoch().unwrap();
    assert_eq!(s.run_epoch().unwrap_err(), SbcError::NoInput);
}

#[test]
fn wake_up_suppressed_by_corruption_times_out() {
    // The only submitter is corrupted before its wake-up flushes: the
    // period never opens, and the session reports Timeout instead of
    // spinning or panicking.
    let mut s = SbcSession::builder(3).seed(b"timeout").build().unwrap();
    s.submit(0, b"never flushed").unwrap();
    s.corrupt(0).unwrap();
    let err = s.run_to_completion().unwrap_err();
    assert!(
        matches!(err, SbcError::Timeout { budget } if budget == 3 + 2 + 4),
        "{err:?}"
    );
}

#[test]
fn corrupted_party_cannot_submit_honestly() {
    let mut s = SbcSession::builder(3).seed(b"corr").build().unwrap();
    s.corrupt(2).unwrap();
    assert_eq!(
        s.submit(2, b"m"),
        Err(SbcError::CorruptedParty { party: 2 })
    );
    // Double corruption is also a typed error.
    assert_eq!(s.corrupt(2), Err(SbcError::CorruptedParty { party: 2 }));
}

#[test]
fn adversarial_ops_require_corruption() {
    let mut s = SbcSession::builder(2).seed(b"adv").build().unwrap();
    assert_eq!(
        s.inject_message(0, b"m"),
        Err(SbcError::HonestParty { party: 0 })
    );
    s.corrupt(0).unwrap();
    // Before any wake-up there is no agreed τ_rel to inject towards.
    assert_eq!(s.inject_message(0, b"m"), Err(SbcError::PeriodNotOpen));
}

#[test]
fn errors_display_and_propagate() {
    // SbcError implements Display + Error and survives the `?` operator
    // through app-level error enums.
    let err = SbcSession::builder(0).build().unwrap_err();
    assert!(err.to_string().contains("invalid SBC parameters"));
    let as_voting: sbc_apps::voting::VotingError = err.into();
    assert!(matches!(
        as_voting,
        sbc_apps::voting::VotingError::Sbc(SbcError::InvalidParams { .. })
    ));
}

/// Every `SbcError` variant, round-tripped through clone/eq/Display. The
/// match in `expected_needle` is deliberately without a `_` arm: adding a
/// variant to `SbcError` without extending this test is a compile error.
#[test]
fn exhaustive_sbc_error_variant_round_trips() {
    fn expected_needle(e: &SbcError) -> &'static str {
        match e {
            SbcError::InvalidParams { .. } => "invalid SBC parameters",
            SbcError::PartyOutOfRange { .. } => "out of range",
            SbcError::CorruptedParty { .. } => "corrupted",
            SbcError::CorruptionBudgetExceeded { .. } => "no honest party",
            SbcError::HonestParty { .. } => "honest",
            SbcError::SubmitAfterClose { .. } => "t_end",
            SbcError::PeriodNotOpen => "τ_rel",
            SbcError::UnknownInstance { .. } => "never opened",
            SbcError::InstanceFinished { .. } => "already finished",
            SbcError::InstanceLive { .. } => "still live",
            SbcError::NotFresh { .. } => "not fresh",
            SbcError::NoInput => "nothing submitted",
            SbcError::Timeout { .. } => "rounds",
            SbcError::Internal { .. } => "internal",
            SbcError::Backend { .. } => "bring-up",
            SbcError::Undeliverable { .. } => "refused its own message",
        }
    }
    let all = vec![
        SbcError::InvalidParams {
            reason: "need Φ > delay",
        },
        SbcError::PartyOutOfRange { party: 9, n: 3 },
        SbcError::CorruptedParty { party: 1 },
        SbcError::CorruptionBudgetExceeded { party: 2 },
        SbcError::HonestParty { party: 0 },
        SbcError::SubmitAfterClose { round: 4, t_end: 3 },
        SbcError::PeriodNotOpen,
        SbcError::UnknownInstance { instance: 11 },
        SbcError::InstanceFinished { instance: 5 },
        SbcError::InstanceLive { instance: 6 },
        SbcError::NotFresh {
            round: 7,
            opened: 2,
        },
        SbcError::NoInput,
        SbcError::Timeout { budget: 9 },
        SbcError::Internal {
            detail: "boom".into(),
        },
        SbcError::Backend {
            detail: "bind refused".into(),
        },
        SbcError::Undeliverable {
            instance: 3,
            detail: "frame party/0 → env in round 5: frame claims 18874417 bytes".into(),
        },
    ];
    for err in &all {
        // Clone/PartialEq round-trip.
        assert_eq!(&err.clone(), err);
        // Display names the failure and is stable under `to_string`.
        let rendered = err.to_string();
        assert!(
            rendered.contains(expected_needle(err)),
            "{err:?} rendered as {rendered:?}"
        );
        // std::error::Error is implemented (source-free leaf errors).
        let dyn_err: &dyn std::error::Error = err;
        assert!(dyn_err.source().is_none());
    }
    // Distinct variants never compare equal (catches copy-paste Display/Eq
    // mistakes when variants are added).
    for (i, a) in all.iter().enumerate() {
        for (j, b) in all.iter().enumerate() {
            assert_eq!(a == b, i == j, "{a:?} vs {b:?}");
        }
    }
}

#[test]
fn pool_error_paths_through_the_session_surface() {
    // The session is the single-instance special case of the pool: its
    // surface never produces the pool-only variants, while the pool's
    // typed instance errors are covered in tests/pool.rs.
    let mut s = SbcSession::builder(2).seed(b"pool-compat").build().unwrap();
    s.submit(0, b"m").unwrap();
    let r = s.run_epoch().unwrap();
    assert_eq!(r.epoch, 0);
    let err = s.run_epoch().unwrap_err();
    assert!(
        !matches!(
            err,
            SbcError::UnknownInstance { .. } | SbcError::InstanceFinished { .. }
        ),
        "session misuse stays NoInput, not an instance error: {err:?}"
    );
    assert_eq!(err, SbcError::NoInput);
}

#[test]
fn multi_epoch_with_mid_session_corruption() {
    // Corruption persists across epochs: a party corrupted in epoch 0
    // cannot submit in epoch 1, but the rest of the electorate continues.
    let mut s = SbcSession::builder(3).seed(b"epochs-corr").build().unwrap();
    s.submit(0, b"e0-a").unwrap();
    s.submit(1, b"e0-b").unwrap();
    s.corrupt(2).unwrap();
    let r = s.run_epoch().unwrap();
    assert_eq!(r.messages.len(), 2);
    assert_eq!(
        s.submit(2, b"e1-c"),
        Err(SbcError::CorruptedParty { party: 2 })
    );
    s.submit(0, b"e1-a").unwrap();
    let r = s.run_epoch().unwrap();
    assert_eq!(r.messages, vec![b"e1-a".to_vec()]);
}

/// Every `sbc-net` error variant, round-tripped like `SbcError` above:
/// `Display` needles, clone/eq, `std::error::Error` with the
/// `NetError::Codec` → `CodecError` source chain, pairwise distinctness.
/// The needle matches are deliberately without `_` arms: adding a codec
/// or net variant without extending this test is a compile error.
#[test]
fn exhaustive_net_error_variant_round_trips() {
    use sbc_net::{CodecError, NetError};

    fn codec_needle(e: &CodecError) -> &'static str {
        match e {
            CodecError::Truncated { .. } => "truncated frame",
            CodecError::BadMagic { .. } => "bad magic",
            CodecError::UnsupportedVersion { .. } => "unsupported wire version",
            CodecError::UnknownKind { .. } => "unknown frame kind",
            CodecError::UnknownEndpoint { .. } => "unknown endpoint",
            CodecError::LengthMismatch { .. } => "length prefix mismatch",
            CodecError::Oversize { .. } => "cap is",
            CodecError::BadPayload { .. } => "malformed payload",
            CodecError::TrailingBytes { .. } => "trailing bytes",
        }
    }
    let all_codec = vec![
        CodecError::Truncated {
            needed: 26,
            have: 3,
        },
        CodecError::BadMagic {
            found: [0x00, 0xFF],
        },
        CodecError::UnsupportedVersion { found: 9 },
        CodecError::UnknownKind { tag: 42 },
        CodecError::UnknownEndpoint { tag: 7 },
        CodecError::LengthMismatch {
            declared: 10,
            actual: 30,
        },
        CodecError::Oversize {
            len: 1 << 30,
            max: 1 << 24,
        },
        CodecError::BadPayload { kind: "TleEnc" },
        CodecError::TrailingBytes { extra: 4 },
    ];
    for err in &all_codec {
        assert_eq!(&err.clone(), err);
        let rendered = err.to_string();
        assert!(
            rendered.contains(codec_needle(err)),
            "{err:?} rendered as {rendered:?}"
        );
        // Codec errors are leaf errors: no source.
        let dyn_err: &dyn std::error::Error = err;
        assert!(dyn_err.source().is_none());
    }
    for (i, a) in all_codec.iter().enumerate() {
        for (j, b) in all_codec.iter().enumerate() {
            assert_eq!(a == b, i == j, "{a:?} vs {b:?}");
        }
    }

    fn net_needle(e: &NetError) -> &'static str {
        match e {
            NetError::Codec(_) => "undecodable frame",
            NetError::UnknownParty { .. } => "experiment has",
            NetError::Io { .. } => "socket",
            NetError::LinkDown { .. } => "reconnect attempts",
        }
    }
    let all_net = vec![
        NetError::Codec(CodecError::BadMagic { found: [1, 2] }),
        NetError::UnknownParty { party: 9, n: 4 },
        NetError::Io {
            op: "connect",
            detail: "connection refused".into(),
        },
        NetError::LinkDown {
            lane: "data:2".into(),
            attempts: 5,
        },
    ];
    for err in &all_net {
        assert_eq!(&err.clone(), err);
        let rendered = err.to_string();
        assert!(
            rendered.contains(net_needle(err)),
            "{err:?} rendered as {rendered:?}"
        );
    }
    for (i, a) in all_net.iter().enumerate() {
        for (j, b) in all_net.iter().enumerate() {
            assert_eq!(a == b, i == j, "{a:?} vs {b:?}");
        }
    }

    // The source chain: NetError::Codec exposes the codec failure through
    // std::error::Error::source; UnknownParty is a leaf.
    let chained: &dyn std::error::Error = &all_net[0];
    let source = chained.source().expect("Codec carries its source");
    assert!(source.to_string().contains("bad magic"));
    assert!(source.source().is_none(), "chain terminates at the codec");
    for leaf_err in &all_net[1..] {
        let leaf: &dyn std::error::Error = leaf_err;
        assert!(leaf.source().is_none(), "{leaf_err:?} is a leaf");
    }

    // From<CodecError> wraps into the chained variant.
    let wrapped: NetError = CodecError::UnknownKind { tag: 3 }.into();
    assert_eq!(wrapped, NetError::Codec(CodecError::UnknownKind { tag: 3 }));
}
