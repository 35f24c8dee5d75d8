//! Integration tests for `sbc-service`: the long-lived submission-serving
//! layer over `SbcPool`.
//!
//! The heart of the file is the kill-and-restore conformance gate: a
//! service killed mid-epoch (snapshot while an instance is live) and
//! restored from its image must produce release transcripts
//! **bit-identical** to the uninterrupted run — over the in-process
//! backend, the networked loopback backend, *and* the real-socket TCP
//! backend. The era matrix extends the gate to checkpointed services:
//! folding the journal at era boundaries must not change a single
//! released bit relative to a never-checkpointing twin, while shrinking
//! the image, and hostile images — corrupted, truncated, padded, or in a
//! foreign format — must fail with typed errors. The rest pins the
//! service-layer semantics: typed backpressure, late-arrival deferral,
//! deliver-before-reclaim on shutdown, and bounded leak capture with a
//! typed overflow counter.

use sbc_core::pool::PoolFootprint;
use sbc_core::worlds::{RealSbcWorld, SbcBackend};
use sbc_net::{Endpoint, Frame, FrameKind, LoopbackSbcWorld, TcpSbcWorld};
use sbc_service::{
    DeadlineClass, LoadGen, LoadProfile, ReleaseRecord, SbcService, ServiceConfig, ServiceError,
    ServiceMode, ServiceStats,
};
use sbc_uc::value::Value;

fn config(seed: &[u8]) -> ServiceConfig {
    ServiceConfig::new(3, ServiceMode::Beacon)
        .seed(seed)
        .batch_size(4)
        .queue_cap(256)
        .flush_after(2)
}

/// `ServiceStats` with the observational image-size field masked:
/// `snapshot_bytes` records what was serialized (or restored), which
/// legitimately differs between a live service and its restored twin.
/// Every other field must survive kill-and-restore bit-identically.
fn replayable(stats: &ServiceStats) -> ServiceStats {
    ServiceStats {
        snapshot_bytes: 0,
        ..stats.clone()
    }
}

/// Feeds `gen` into `svc` for `ticks` driver steps, draining records as
/// a consumer would. Returns the drained records in release order.
fn drive<W: SbcBackend>(
    svc: &mut SbcService<W>,
    gen: &mut LoadGen,
    ticks: usize,
) -> Vec<ReleaseRecord> {
    let mut records = Vec::new();
    for _ in 0..ticks {
        for s in gen.next_tick() {
            // Backpressure: drop on QueueFull (the generator is sized to
            // avoid it; losing a submission would desync the two runs).
            svc.submit(s.client, s.payload, s.class)
                .expect("sized load");
        }
        svc.tick().expect("tick");
        records.extend(svc.drain_releases());
    }
    records
}

/// The kill-and-restore experiment over any backend: run a seeded load,
/// snapshot strictly mid-epoch, then continue the original and the
/// restored service through the identical remaining schedule and demand
/// bit-identical release transcripts.
fn kill_and_restore_bit_identical<W: SbcBackend>() {
    let profile = LoadProfile {
        total: 40,
        per_tick: 3,
        payload_len: 16,
        clients: 1_000,
        interactive_pct: 10,
        batch_pct: 30,
    };

    // Uninterrupted reference run.
    let mut gen_a = LoadGen::new(profile.clone(), b"kill-restore");
    let mut a: SbcService<W> = SbcService::new(config(b"kill-restore")).unwrap();
    let mut records_a = drive(&mut a, &mut gen_a, 10);

    // Interrupted run: identical prefix, killed mid-epoch, restored.
    let mut gen_b = LoadGen::new(profile, b"kill-restore");
    let mut b: SbcService<W> = SbcService::new(config(b"kill-restore")).unwrap();
    let mut records_b = drive(&mut b, &mut gen_b, 10);
    assert!(b.live() > 0, "snapshot point must be mid-epoch");
    let image = b.snapshot().unwrap();
    drop(b); // the kill
    let mut b: SbcService<W> = SbcService::restore(&image).unwrap();

    assert_eq!(a.round(), b.round(), "restored clock matches");
    assert_eq!(
        replayable(&a.stats()),
        replayable(&b.stats()),
        "restored stats match"
    );

    // Identical remaining schedule on both.
    records_a.extend(drive(&mut a, &mut gen_a, 30));
    records_b.extend(drive(&mut b, &mut gen_b, 30));
    records_a.extend(a.shutdown().unwrap());
    records_b.extend(b.shutdown().unwrap());

    assert!(!records_a.is_empty(), "load produced releases");
    assert_eq!(
        records_a, records_b,
        "kill-and-restore must be bit-identical to the uninterrupted run"
    );
    assert_eq!(replayable(&a.stats()), replayable(&b.stats()));
    assert_eq!(a.footprint(), PoolFootprint::default(), "drained clean");
    assert_eq!(b.footprint(), PoolFootprint::default(), "drained clean");
}

#[test]
fn kill_and_restore_bit_identical_in_process() {
    kill_and_restore_bit_identical::<RealSbcWorld>();
}

#[test]
fn kill_and_restore_bit_identical_over_loopback() {
    kill_and_restore_bit_identical::<LoopbackSbcWorld>();
}

#[test]
fn kill_and_restore_bit_identical_over_tcp() {
    // The same gate over OS loopback sockets: the journal replay brings
    // up fresh TCP lanes, and the release transcripts must still match
    // the uninterrupted run bit-for-bit.
    kill_and_restore_bit_identical::<TcpSbcWorld>();
}

/// Drives one "wave" on a service: submit `batch` payloads, tick until
/// everything released and drained. Identical calls produce identical
/// schedules, so a checkpointing service and its never-checkpointing
/// twin stay step-for-step comparable.
fn wave<W: SbcBackend>(svc: &mut SbcService<W>, era: u64, batch: usize) -> Vec<ReleaseRecord> {
    for i in 0..batch as u64 {
        svc.submit(
            era * 100 + i,
            vec![era as u8, i as u8, 7, 7],
            DeadlineClass::Standard,
        )
        .expect("sized load");
    }
    let mut records = Vec::new();
    for _ in 0..200 {
        if svc.queued() == 0 && svc.live() == 0 {
            break;
        }
        svc.tick().expect("tick");
        records.extend(svc.drain_releases());
    }
    assert_eq!(svc.live(), 0, "wave must drain within its tick budget");
    records
}

/// The era matrix: a checkpointing service vs a never-checkpointing twin
/// on identical schedules. Checkpoints must be release-invisible, the
/// checkpointed image must undercut the full-journal one, and both
/// images must restore to services that finish the run bit-identically.
fn era_checkpoint_restore_matches_full_journal<W: SbcBackend>() {
    let mut a: SbcService<W> = SbcService::new(config(b"eras")).unwrap();
    let mut b: SbcService<W> = SbcService::new(config(b"eras")).unwrap();
    let mut records_a = Vec::new();
    let mut records_b = Vec::new();

    for era in 0..3u64 {
        records_a.extend(wave(&mut a, era, 4));
        records_b.extend(wave(&mut b, era, 4));
        // A straggler queued at the boundary on both: queued submissions
        // never block a checkpoint — they fold into it.
        a.submit(900 + era, vec![9; 4], DeadlineClass::Batch)
            .unwrap();
        b.submit(900 + era, vec![9; 4], DeadlineClass::Batch)
            .unwrap();
        assert!(a.at_boundary(), "drained service is at a boundary");
        a.checkpoint().expect("boundary checkpoint");
        assert_eq!(a.era(), era + 1);
        assert_eq!(a.stats().journal_ops, 0, "fold truncates the journal");
    }
    assert_eq!(b.era(), 0, "the twin never folded");

    // Mid-era image point: a live epoch on both.
    for svc in [&mut a, &mut b] {
        svc.submit(999, vec![1; 4], DeadlineClass::Interactive)
            .unwrap();
        svc.tick().expect("tick");
        svc.tick().expect("tick");
        assert!(svc.live() > 0, "image point must be mid-epoch");
    }

    let image_a = a.snapshot().unwrap();
    let image_b = b.snapshot().unwrap();
    assert!(
        image_a.len() < image_b.len(),
        "checkpointed image ({}B) must undercut the full-journal one ({}B)",
        image_a.len(),
        image_b.len()
    );
    assert!(
        a.stats().journal_ops < b.stats().journal_ops,
        "the tail is shorter than the lifetime journal"
    );

    let mut ra: SbcService<W> = SbcService::restore(&image_a).unwrap();
    let mut rb: SbcService<W> = SbcService::restore(&image_b).unwrap();
    assert_eq!(ra.era(), 3, "restore lands in the captured era");
    assert_eq!(rb.era(), 0);
    assert_eq!(replayable(&a.stats()), replayable(&ra.stats()));
    assert_eq!(replayable(&b.stats()), replayable(&rb.stats()));

    // All four finish the identical remaining schedule.
    let tail_a = a.shutdown().unwrap();
    let tail_b = b.shutdown().unwrap();
    let tail_ra = ra.shutdown().unwrap();
    let tail_rb = rb.shutdown().unwrap();
    assert!(!tail_a.is_empty(), "the tail epoch releases");
    assert_eq!(tail_a, tail_b, "checkpointing is release-invisible");
    assert_eq!(tail_a, tail_ra, "checkpoint-restore is bit-identical");
    assert_eq!(tail_b, tail_rb, "full-journal restore is bit-identical");
    assert_eq!(records_a, records_b);
    assert_eq!(replayable(&a.stats()), replayable(&ra.stats()));
    assert_eq!(replayable(&b.stats()), replayable(&rb.stats()));
    for svc in [&a, &b, &ra, &rb] {
        assert_eq!(svc.footprint(), PoolFootprint::default(), "drained clean");
    }
}

#[test]
fn era_checkpoint_restore_in_process() {
    era_checkpoint_restore_matches_full_journal::<RealSbcWorld>();
}

#[test]
fn era_checkpoint_restore_over_loopback() {
    era_checkpoint_restore_matches_full_journal::<LoopbackSbcWorld>();
}

#[test]
fn era_checkpoint_restore_over_tcp() {
    era_checkpoint_restore_matches_full_journal::<TcpSbcWorld>();
}

#[test]
fn checkpoint_mid_epoch_is_refused_typed() {
    let mut svc: SbcService<RealSbcWorld> = SbcService::new(config(b"mid-era")).unwrap();
    svc.submit(1, vec![1; 4], DeadlineClass::Interactive)
        .unwrap();
    svc.tick().unwrap();
    assert!(svc.live() > 0);
    assert!(!svc.at_boundary());
    match svc.checkpoint() {
        Err(ServiceError::NotAtBoundary { live, .. }) => assert!(live > 0),
        other => panic!("mid-epoch checkpoint must be refused typed, got {other:?}"),
    }
    assert!(!svc.try_checkpoint());
    assert_eq!(svc.era(), 0, "refusal leaves the service unchanged");

    // An undelivered release record blocks the boundary too: delivery
    // strictly precedes folding.
    while svc.live() > 0 {
        svc.tick().unwrap();
    }
    match svc.checkpoint() {
        Err(ServiceError::NotAtBoundary { parked, .. }) => assert!(parked > 0),
        other => panic!("undelivered records must block the boundary, got {other:?}"),
    }
    svc.drain_releases();
    assert!(svc.try_checkpoint(), "drained service folds fine");
    assert_eq!(svc.era(), 1);
}

/// Restores `image` over the in-process backend and returns the
/// `BadSnapshot` detail it must fail with.
fn bad_snapshot_detail(image: &[u8], what: &str) -> String {
    match SbcService::<RealSbcWorld>::restore(image) {
        Err(ServiceError::BadSnapshot { detail }) => detail,
        Err(e) => panic!("{what}: wrong error: {e}"),
        Ok(_) => panic!("{what}: must fail restore"),
    }
}

#[test]
fn hostile_images_fail_typed() {
    let mut svc: SbcService<RealSbcWorld> = SbcService::new(config(b"corrupt")).unwrap();
    svc.submit(1, vec![5; 32], DeadlineClass::Standard).unwrap();
    svc.tick().unwrap();
    let image = svc.snapshot().unwrap();

    // The exhaustive prefix / bit-flip / lying-length sweeps live with
    // the format (`crates/service/src/snapshot.rs`); here the public
    // contract: a flipped payload byte is the digest's to catch.
    let (payload_start, digest_start) = (13, image.len() - 32);
    let mut corrupt = image.clone();
    corrupt[(payload_start + digest_start) / 2] ^= 0x01;
    let detail = bad_snapshot_detail(&corrupt, "flipped payload byte");
    assert!(
        detail.contains("digest"),
        "wanted the digest error: {detail}"
    );

    // A splice: the back half of another service's image (different
    // seed up front, different submission at the back) under this one's
    // front half.
    let mut other: SbcService<RealSbcWorld> = SbcService::new(config(b"corrupT")).unwrap();
    other
        .submit(2, vec![6; 32], DeadlineClass::Standard)
        .unwrap();
    other.tick().unwrap();
    let other_image = other.snapshot().unwrap();
    assert_eq!(other_image.len(), image.len(), "same-shape images");
    let mut spliced = image[..image.len() / 2].to_vec();
    spliced.extend_from_slice(&other_image[image.len() / 2..]);
    assert!(spliced != image && spliced != other_image);
    bad_snapshot_detail(&spliced, "spliced image");

    // Truncation anywhere, and padding, are typed, never a panic.
    for cut in [0, 3, 13, 14, image.len() - 33, image.len() - 1] {
        bad_snapshot_detail(&image[..cut], &format!("truncation at {cut}"));
    }
    let mut padded = image.clone();
    padded.extend_from_slice(&[0xEE; 3]);
    let detail = bad_snapshot_detail(&padded, "padded image");
    assert!(detail.contains("trailing"), "{detail}");
    // The header alone convicts a padded image: a `bulk`-sized envelope
    // (4 MiB payload) whose digest does not even verify is refused for
    // its padding, so neither the digest nor a replay was paid for.
    let mut bulk = image[..5].to_vec();
    bulk.extend_from_slice(&(4u64 << 20).to_be_bytes());
    bulk.resize(bulk.len() + (4 << 20) + 32, 0xEE);
    let detail = bad_snapshot_detail(&bulk, "bulk-sized forgery");
    assert!(detail.contains("digest"), "{detail}");
    bulk.extend_from_slice(&[0xEE; 3]);
    let detail = bad_snapshot_detail(&bulk, "padded bulk-sized forgery");
    assert!(detail.contains("3 trailing"), "{detail}");

    // Foreign formats: a bare protocol frame, and the same bytes laid
    // out as the retired framed image (header frame under kind tag 13,
    // chunk under 14, digest trailer under 15).
    let frame = |kind| Frame {
        from: Endpoint::Env,
        to: Endpoint::Env,
        sent_at: svc.round(),
        kind,
    };
    bad_snapshot_detail(&frame(FrameKind::Tick).encode(), "protocol frame");
    let relabel = |body, tag| {
        let mut bytes = frame(FrameKind::Output(body)).encode();
        bytes[7] = tag;
        bytes
    };
    let payload = &image[payload_start..digest_start];
    let framed = [
        relabel(
            Value::list([Value::U64(2), Value::U64(0), Value::U64(1)]),
            13,
        ),
        relabel(Value::pair(Value::U64(0), Value::bytes(payload)), 14),
        relabel(Value::bytes(&image[digest_start..]), 15),
    ]
    .concat();
    let detail = bad_snapshot_detail(&framed, "framed image");
    assert!(detail.contains("magic"), "{detail}");
}

#[test]
fn idle_ticks_journal_in_constant_space() {
    // The RLE regression: 10k idle driver ticks must collapse to a
    // single journal entry, so an idle service's snapshot stops growing
    // with wall time.
    let mut svc: SbcService<RealSbcWorld> = SbcService::new(config(b"idle")).unwrap();
    for _ in 0..10_000 {
        svc.tick().unwrap();
    }
    let stats = svc.stats();
    assert_eq!(stats.ticks, 10_000);
    assert_eq!(stats.journal_ops, 1, "one RLE entry for the whole stretch");
    let idle_image = svc.snapshot().unwrap();

    // The run restores exactly: the tick run-length replays to the same
    // round.
    let restored = SbcService::<RealSbcWorld>::restore(&idle_image).unwrap();
    assert_eq!(restored.round(), svc.round());
    assert_eq!(replayable(&restored.stats()), replayable(&svc.stats()));

    // A submission breaks the run; further ticks start one new entry.
    svc.submit(1, vec![1; 4], DeadlineClass::Standard).unwrap();
    svc.tick().unwrap();
    svc.tick().unwrap();
    assert_eq!(svc.stats().journal_ops, 3, "run ‖ submit ‖ run");
}

#[test]
fn backends_agree_on_release_transcripts() {
    // The same service schedule over the in-process and the networked
    // loopback backend releases identical records — the service layer
    // preserves the Exact-conformance property of the worlds beneath it.
    let run = |records: &mut Vec<ReleaseRecord>, svc: &mut dyn FnMut() -> Vec<ReleaseRecord>| {
        records.extend(svc());
    };
    let mut real_records = Vec::new();
    let mut loop_records = Vec::new();
    let profile = LoadProfile::beacon(30, 3);
    {
        let mut gen = LoadGen::new(profile.clone(), b"agree");
        let mut svc: SbcService<RealSbcWorld> = SbcService::new(config(b"agree")).unwrap();
        run(&mut real_records, &mut || {
            let mut r = drive(&mut svc, &mut gen, 20);
            r.extend(svc.shutdown().unwrap());
            r
        });
    }
    {
        let mut gen = LoadGen::new(profile, b"agree");
        let mut svc: SbcService<LoopbackSbcWorld> = SbcService::new(config(b"agree")).unwrap();
        run(&mut loop_records, &mut || {
            let mut r = drive(&mut svc, &mut gen, 20);
            r.extend(svc.shutdown().unwrap());
            r
        });
    }
    assert!(!real_records.is_empty());
    assert_eq!(real_records, loop_records);
}

#[test]
fn queue_full_backpressure_recovers_after_ticks() {
    let mut svc: SbcService<RealSbcWorld> =
        SbcService::new(config(b"backpressure").queue_cap(6)).unwrap();
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for i in 0..20u64 {
        match svc.submit(i, vec![i as u8; 8], DeadlineClass::Standard) {
            Ok(_) => accepted += 1,
            Err(ServiceError::QueueFull { cap }) => {
                assert_eq!(cap, 6);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(accepted, 6);
    assert_eq!(rejected, 14);
    // Ticks drain the queue; the service accepts again.
    svc.tick().unwrap();
    svc.tick().unwrap();
    svc.submit(99, vec![9; 8], DeadlineClass::Standard)
        .expect("queue drained by admission");
    let stats = svc.stats();
    assert_eq!(stats.rejected, 14);
    assert_eq!(stats.accepted, 7);
    svc.shutdown().unwrap();
}

#[test]
fn late_arrivals_defer_into_the_next_instance() {
    // batch_size 8 keeps the first instance's window collecting; by the
    // time the late submission arrives the period has closed, so it must
    // defer into a fresh instance rather than error.
    let mut svc: SbcService<RealSbcWorld> = SbcService::new(config(b"late").batch_size(8)).unwrap();
    let early = svc
        .submit(1, b"early".to_vec(), DeadlineClass::Interactive)
        .unwrap();
    svc.tick().unwrap(); // opens instance 0, admits `early`
    svc.tick().unwrap();
    svc.tick().unwrap(); // period now too far along for new ciphertexts
    let late = svc
        .submit(2, b"late".to_vec(), DeadlineClass::Interactive)
        .unwrap();
    let records = svc.shutdown().unwrap();
    let stats = svc.stats();
    assert!(stats.deferred >= 1, "late arrival took the deferral path");
    assert_eq!(stats.opened, 2, "deferral opened a second instance");
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].tickets, vec![early]);
    assert_eq!(records[1].tickets, vec![late]);
    assert!(records[0].messages.iter().any(|m| m == b"early"));
    assert!(records[1].messages.iter().any(|m| m == b"late"));
}

#[test]
fn shutdown_delivers_before_reclaiming() {
    // Regression for the service-layer mirror of the PR 4 retire-drains
    // fix: finish-then-prune must never reclaim an instance whose release
    // record has not been delivered.
    let mut svc: SbcService<RealSbcWorld> = SbcService::new(config(b"drain")).unwrap();
    for i in 0..10u64 {
        svc.submit(i, vec![i as u8; 4], DeadlineClass::Standard)
            .unwrap();
    }
    let records = svc.shutdown().unwrap();
    let stats = svc.stats();
    assert_eq!(stats.accepted, 10);
    assert_eq!(stats.finished, stats.delivered, "every finish delivered");
    assert_eq!(stats.finished, stats.pruned, "every delivery reclaimed");
    let delivered_tickets: usize = records.iter().map(|r| r.tickets.len()).sum();
    assert_eq!(delivered_tickets, 10, "no submission lost at shutdown");
    assert_eq!(svc.footprint(), PoolFootprint::default());
}

#[test]
fn undelivered_records_block_reclamation_until_drained() {
    // Without a sink, a finished instance's bookkeeping must survive
    // until the caller drains its record — reclaiming earlier would drop
    // the release on the floor.
    let mut svc: SbcService<RealSbcWorld> = SbcService::new(config(b"undelivered")).unwrap();
    svc.submit(1, b"kept".to_vec(), DeadlineClass::Interactive)
        .unwrap();
    while svc.stats().finished == 0 {
        svc.tick().unwrap();
    }
    let parked = svc.footprint();
    assert_eq!(parked.retired, 1, "undelivered instance stays tracked");
    assert_eq!(svc.stats().pruned, 0);
    let records = svc.drain_releases();
    assert_eq!(records.len(), 1);
    assert!(records[0].messages.iter().any(|m| m == b"kept"));
    assert_eq!(svc.stats().pruned, 1);
    assert_eq!(svc.footprint(), PoolFootprint::default());
}

#[test]
fn leak_cap_bounds_capture_with_typed_overflow() {
    let run = |leak_cap| {
        let mut svc: SbcService<RealSbcWorld> =
            SbcService::new(config(b"leaks").leak_cap(leak_cap)).unwrap();
        let mut gen = LoadGen::new(LoadProfile::beacon(24, 4), b"leaks");
        let mut records = drive(&mut svc, &mut gen, 12);
        records.extend(svc.shutdown().unwrap());
        (records, svc.stats().leak_overflow)
    };
    let (uncapped_records, uncapped_overflow) = run(None);
    assert_eq!(uncapped_overflow, 0, "uncapped capture never drops");
    let (capped_records, capped_overflow) = run(Some(1));
    assert!(capped_overflow > 0, "a 1-entry cap must evict");
    // The cap bounds *observability state*, never the protocol: release
    // transcripts are unchanged.
    assert_eq!(uncapped_records, capped_records);
}

#[test]
fn service_stats_track_the_load() {
    let mut svc: SbcService<RealSbcWorld> = SbcService::new(config(b"stats")).unwrap();
    let mut gen = LoadGen::new(LoadProfile::beacon(50, 5), b"stats");
    let mut records = drive(&mut svc, &mut gen, 20);
    records.extend(svc.shutdown().unwrap());
    let stats = svc.stats();
    assert_eq!(stats.accepted, 50);
    assert_eq!(stats.delivered, records.len() as u64);
    assert_eq!(stats.opened, stats.finished);
    assert_eq!(stats.finished, stats.pruned);
    let released: usize = records.iter().map(|r| r.tickets.len()).sum();
    assert_eq!(released, 50, "every accepted submission released");
    assert_eq!(stats.latency.count, 50);
    assert!(stats.latency.p50 > 0);
    assert!(stats.latency.p99 >= stats.latency.p50);
    assert!(stats.peak_live >= 1);
    assert!(stats.peak_queue >= 1);
}
