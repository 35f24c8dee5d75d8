//! The hash floor, pinned: what an instance costs in SHA-256 compressions,
//! and the transcript that cost must not move.
//!
//! `F_UBC` and `F_TLE` reserve the tag of an honest `Broadcast` or `Enc`
//! and compute it only where something reads it. A world that keeps its
//! leaks computes each tag as it builds the leak, so its transcript is
//! byte-for-byte what eager tags gave; a world that only counts its leaks
//! never computes one, and releases the same messages.

use sbc_core::pool::SbcPool;
use sbc_core::protocol::sbc_wire;
use sbc_core::worlds::{RealSbcWorld, SbcBackend, SbcParams};
use sbc_net::world::LoopbackSbcWorld;
use sbc_primitives::drbg::Drbg;
use sbc_primitives::hex;
use sbc_primitives::sha256::compressions;
use sbc_uc::exec::{CompareLevel, DualRun, SbcWorld};
use sbc_uc::ids::PartyId;
use sbc_uc::trace::{EventKind, Transcript};
use sbc_uc::value::{Command, Value};
use sbc_uc::world::AdvCommand;

type Pair = DualRun<RealSbcWorld, LoopbackSbcWorld>;

/// `RealSbcWorld` and `LoopbackSbcWorld` on one seed, at `Exact`; both
/// only count their leaks if `count_only`.
fn pair(count_only: bool) -> Pair {
    fn world<W: SbcBackend + SbcWorld>(count_only: bool) -> W {
        let mut w = W::from_params(SbcParams::default_for(4), b"hash-floor").expect("valid");
        if count_only {
            w.count_leaks_only();
        }
        w
    }
    DualRun::new(world(count_only), world(count_only), CompareLevel::Exact)
}

/// Two periods at n = 4: honest casts, a mid-period corruption, an
/// `F_TLE` `Leakage` query, and a corrupted sender's wire (an `F_TLE`
/// `Insert`, its `F_RO` mask, then `send_as`).
fn schedule(dual: &mut Pair) {
    let mut adv = Drbg::from_seed(b"hash-floor/adversary");
    for (period, senders) in [[0u32, 1, 2], [1, 2, 0]].into_iter().enumerate() {
        for p in senders {
            dual.submit(PartyId(p), format!("p{period}/bid{p}").as_bytes());
        }
        dual.advance_all();
        if period == 0 {
            dual.corrupt(PartyId(3));
        }
        dual.adversary(AdvCommand::Control {
            target: "F_TLE".into(),
            cmd: Command::new("Leakage", Value::Unit),
        });
        let tau_rel = dual.release_round().expect("period open");
        let ct = Value::bytes(adv.gen_bytes(64));
        let rho = adv.gen_bytes(32);
        dual.adversary(AdvCommand::Control {
            target: "F_TLE".into(),
            cmd: Command::new(
                "Insert",
                Value::list([ct.clone(), Value::bytes(&rho), Value::U64(tau_rel)]),
            ),
        });
        let m = Value::bytes(format!("p{period}/evil").as_bytes()).encode();
        let (eta, _) = dual.adversary(AdvCommand::Control {
            target: "F_RO".into(),
            cmd: Command::new(
                "QueryBytes",
                Value::list([Value::bytes(&rho), Value::U64(m.len() as u64)]),
            ),
        });
        let y: Vec<u8> = m
            .iter()
            .zip(eta.as_bytes().expect("a mask"))
            .map(|(a, b)| a ^ b)
            .collect();
        dual.adversary(AdvCommand::SendAs {
            party: PartyId(3),
            cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
        });
        dual.idle_rounds(9);
        assert_eq!(dual.finish_epoch().expect("exact"), period as u64);
    }
}

/// The transcript without its leaks: what a world that only counts them
/// records.
fn without_leaks(t: &Transcript) -> Vec<&sbc_uc::trace::Event> {
    t.events
        .iter()
        .filter(|e| !matches!(e.kind, EventKind::Leak { .. }))
        .collect()
}

#[test]
fn reserved_tags_move_no_transcript_byte() {
    let mut kept = pair(false);
    schedule(&mut kept);
    let (real, net) = kept.into_transcripts();
    assert_eq!(real, net);
    let leaks = real.leaks();
    assert!(leaks.iter().any(|(_, source, _)| *source == "F_UBC"));
    assert!(leaks.iter().any(|(_, source, _)| *source == "F_TLE"));
    assert_eq!(
        real.outputs().len(),
        2 * 3,
        "each honest party, each period"
    );
    // Recorded with eager tags, each drawn at its `Broadcast` or `Enc`.
    assert_eq!(
        hex::encode(&real.digest()),
        "d8bdef7b6a09c62105096903ba673ec92c632048a1772fab1a721c0092ae1ac7"
    );

    let mut counted = pair(true);
    schedule(&mut counted);
    let (real_counted, net_counted) = counted.into_transcripts();
    assert!(real_counted.leaks().is_empty());
    assert_eq!(without_leaks(&real_counted), without_leaks(&real));
    assert_eq!(without_leaks(&net_counted), without_leaks(&real));
}

/// Compressions of one auction-shaped instance (every party bids 8 bytes,
/// run to release) on a pool that keeps its leaks or only counts them.
fn instance_cost(n: usize, capture: bool) -> u64 {
    let builder = SbcPool::builder(n).seed(b"auction");
    let mut pool = if capture {
        builder.capture_leaks()
    } else {
        builder
    }
    .build()
    .expect("valid");
    let before = compressions();
    let id = pool.open_instance().expect("open");
    for p in 0..n as u32 {
        pool.submit(id, p, format!("bid{p:05}").as_bytes())
            .expect("submit");
    }
    let released = pool.finish(id).expect("release");
    assert_eq!(released.messages.len(), n);
    compressions() - before
}

/// Compressions per auction instance, as formulas in n. Building the
/// world costs 12 for its seed and its functionalities' streams, and 2 per
/// party for the party's fork. (It was 16 while every backend also forked
/// the two streams only the ideal world draws from, `F_SBC`'s tags and the
/// simulator's equivocation; now their counters are reserved.) Each party
/// then costs 4 wherever its leaks go: `ρ` (1), the `F_TLE` fill of its
/// ciphertext (2) and its `F_RO` mask (1). A world that keeps its leaks
/// computes one tag per honest cast (the `Wake_Up` and the wire) and per
/// honest `Enc`: 3 more per party.
#[test]
fn compressions_per_auction_instance() {
    for n in [4u64, 16, 64] {
        let counted = instance_cost(n as usize, false);
        let kept = instance_cost(n as usize, true);
        assert_eq!(counted, 6 * n + 12, "count-only, n = {n}");
        assert_eq!(kept, 9 * n + 12, "capturing, n = {n}");
        let (casts, encs) = (2 * n, n);
        assert_eq!(kept - counted, casts + encs, "n = {n}");
    }
}

/// Compressions of one count-only pool instance that releases `k`
/// distinct messages of `len` bytes, submitted round-robin over `n`
/// parties.
fn bulk_instance_cost(n: usize, k: usize, len: usize) -> u64 {
    let mut pool = SbcPool::builder(n).seed(b"bulk").build().expect("valid");
    let before = compressions();
    let id = pool.open_instance().expect("open");
    for i in 0..k {
        let mut msg = vec![0x5a; len];
        msg[..8].copy_from_slice(&(i as u64).to_be_bytes());
        pool.submit(id, (i % n) as u32, &msg).expect("submit");
    }
    let released = pool.finish(id).expect("release");
    assert_eq!(released.messages.len(), k);
    compressions() - before
}

/// The beacon and bulk shapes as one formula: `2n + 12` to build the world
/// (as for the auction shape), then per message `ρ` (1), the `F_TLE`
/// fill (2) and one mask block per 32 bytes of its encoding `enc(M)`
/// (a mask's blocks share their first rounds, but each is still one
/// counted compression).
#[test]
fn compressions_per_bulk_instance() {
    for n in [4u64, 8] {
        for k in [8u64, 64] {
            for len in [32u64, 4096] {
                let enc_len = Value::bytes(vec![0u8; len as usize]).encoded_len() as u64;
                let want = 2 * n + 12 + k * (3 + enc_len.div_ceil(32));
                let got = bulk_instance_cost(n as usize, k as usize, len as usize);
                assert_eq!(got, want, "n = {n}, k = {k}, |M| = {len}");
            }
        }
    }
}
