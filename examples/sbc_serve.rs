//! `sbc-serve` — the long-lived simultaneous-broadcast service binary.
//!
//! Runs an `sbc-service` instance in one of the paper's three application
//! modes over any protocol backend, feeds it a seeded synthetic load,
//! streams outcomes as they release, and performs a **kill-mid-epoch
//! drill**: once the run is demonstrably mid-epoch, the service is
//! snapshotted, a twin is restored from the image, and both are driven
//! through the identical remaining schedule — every release must match
//! bit-for-bit. A final end-of-run snapshot/restore self-check closes the
//! run.
//!
//! ```sh
//! cargo run --release --example sbc_serve -- \
//!     [--mode beacon|election|auction] \
//!     [--backend real|loopback|simnet|tcp] \
//!     [--total N] [--smoke] \
//!     [--snapshot-path FILE] [--restore-from FILE]
//! ```
//!
//! Defaults: beacon mode, the in-process `RealSbcWorld` backend, 2000
//! submissions. `--backend tcp` runs every party link over OS loopback
//! sockets (and the restored twin brings up its own fresh lanes).
//! `--smoke` shrinks the run for CI (200 submissions, quiet per-release
//! output). `--snapshot-path` writes the service's image into FILE at the
//! end of the run — an image of live state, which may be taken at any
//! tick; `--restore-from` boots the service from such a file instead of
//! fresh, continuing where it stopped — together they give `sbc-serve`
//! real stop-the-process/resume-the-process persistence.
//!
//! Wall-clock submit→release latency is measured here, not inside the
//! service: each ticket `submit` returns is timed until a drained
//! `ReleaseRecord` names it, and the run ends with its p50/p90/p99/max.
//! Image sizes are what `snapshot` and `snapshot_to` return.

use std::collections::HashMap;
use std::time::Instant;

use sbc_core::pool::PoolFootprint;
use sbc_core::worlds::{RealSbcWorld, SbcBackend};
use sbc_net::{LoopbackSbcWorld, SimNetSbcWorld, TcpSbcWorld};
use sbc_service::{
    LoadGen, LoadProfile, Outcome, SbcService, ServiceConfig, ServiceError, ServiceMode,
};

/// Parsed command line.
struct Args {
    mode: ServiceMode,
    backend: String,
    total: u64,
    smoke: bool,
    snapshot_path: Option<String>,
    restore_from: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        mode: ServiceMode::Beacon,
        backend: "real".to_string(),
        total: 2000,
        smoke: false,
        snapshot_path: None,
        restore_from: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--mode" => {
                args.mode = match it.next().as_deref() {
                    Some("beacon") => ServiceMode::Beacon,
                    Some("election") => ServiceMode::Election,
                    Some("auction") => ServiceMode::Auction,
                    other => die(&format!("--mode beacon|election|auction, got {other:?}")),
                }
            }
            "--backend" => match it.next() {
                Some(b) if ["real", "loopback", "simnet", "tcp"].contains(&b.as_str()) => {
                    args.backend = b;
                }
                other => die(&format!(
                    "--backend real|loopback|simnet|tcp, got {other:?}"
                )),
            },
            "--total" => {
                args.total = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--total expects a number"));
            }
            "--smoke" => args.smoke = true,
            "--snapshot-path" => {
                args.snapshot_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--snapshot-path expects a file")),
                );
            }
            "--restore-from" => {
                args.restore_from = Some(
                    it.next()
                        .unwrap_or_else(|| die("--restore-from expects a file")),
                );
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if args.smoke {
        args.total = args.total.min(200);
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("sbc-serve: {msg}");
    std::process::exit(2);
}

fn mode_name(mode: ServiceMode) -> &'static str {
    match mode {
        ServiceMode::Beacon => "beacon",
        ServiceMode::Election => "election",
        ServiceMode::Auction => "auction",
    }
}

/// Mode-appropriate synthetic load: entropy for the beacon, single-byte
/// votes for elections, 8-byte bids for auctions.
fn profile(mode: ServiceMode, total: u64) -> LoadProfile {
    let mut p = LoadProfile::beacon(total, 48);
    p.payload_len = match mode {
        ServiceMode::Beacon => 32,
        ServiceMode::Election => 1,
        ServiceMode::Auction => 8,
    };
    p
}

fn describe(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Beacon(bytes) => format!("beacon {}", sbc_primitives::hex::encode(&bytes[..8])),
        Outcome::Election { winner, votes } => {
            format!("candidate {winner} wins with {votes} votes")
        }
        Outcome::Auction { winner, bid } => format!("message #{winner} wins at bid {bid}"),
    }
}

/// The `q`-th percentile (nearest rank) of ascending `sorted`; 0 when
/// empty.
fn percentile(sorted: &[u64], q: usize) -> u64 {
    let rank = (sorted.len() * q).div_ceil(100).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

fn serve<W: SbcBackend>(args: &Args) -> Result<(), ServiceError> {
    // Boot: fresh, or resumed from a snapshot file.
    let mut svc: SbcService<W> = match &args.restore_from {
        Some(path) => {
            let mut file = std::fs::File::open(path)
                .unwrap_or_else(|e| die(&format!("--restore-from {path}: {e}")));
            let svc = SbcService::restore_from(&mut file)?;
            println!(
                "restored from {path} @round {} ({} delivered so far)",
                svc.round(),
                svc.stats().delivered
            );
            svc
        }
        None => SbcService::new(ServiceConfig::new(4, args.mode).seed(b"sbc-serve"))?,
    };
    // The load this run adds on top of whatever the restored image
    // already processed.
    let base = svc.stats();
    let mut gen = LoadGen::new(profile(args.mode, args.total), b"sbc-serve");

    println!(
        "sbc-serve: mode={} backend={} submissions={}",
        mode_name(args.mode),
        args.backend,
        args.total
    );

    // The kill-mid-epoch drill: once the run has both delivered records
    // (exercising the don't-redeliver path) and live instances (truly
    // mid-epoch), snapshot, restore a twin, fast-forward a twin load
    // generator to the same point — the load is a pure function of
    // (profile, seed, ticks consumed) — and drive both services through
    // the identical remaining schedule, demanding bit-identical releases
    // at every tick.
    let mut twin: Option<(SbcService<W>, LoadGen)> = None;
    let mut drilled = false;
    let mut gen_ticks = 0u64;

    // Wall-clock submit→release per ticket: stamped when `submit` hands
    // the ticket out, read when a drained record names it.
    let mut submitted_at: HashMap<u64, Instant> = HashMap::new();
    let mut wall_us: Vec<u64> = Vec::new();

    let mut released = 0u64;
    while !gen.done() || svc.queued() > 0 || svc.live() > 0 {
        if !drilled && released > 0 && svc.live() > 0 {
            drilled = true;
            let image = svc.snapshot()?;
            let restored: SbcService<W> = SbcService::restore(&image)?;
            assert_eq!(restored.round(), svc.round(), "kill drill: clock agrees");
            assert_eq!(restored.stats(), svc.stats(), "kill drill: stats agree");
            let mut tg = LoadGen::new(profile(args.mode, args.total), b"sbc-serve");
            for _ in 0..gen_ticks {
                tg.next_tick();
            }
            println!(
                "kill drill @round {}: restored a twin from a {} byte mid-epoch image",
                svc.round(),
                image.len()
            );
            twin = Some((restored, tg));
        }
        gen_ticks += 1;
        for s in gen.next_tick() {
            // Bounded queue: on saturation the submission waits for the
            // next tick (the generator's stream is deterministic, so the
            // retry order is too).
            match svc.submit(s.client, s.payload, s.class) {
                Ok(ticket) => {
                    submitted_at.insert(ticket, Instant::now());
                }
                Err(ServiceError::QueueFull { .. }) => break,
                Err(e) => return Err(e),
            }
        }
        svc.tick()?;
        let records = svc.drain_releases();
        let drained_at = Instant::now();
        for ticket in records.iter().flat_map(|r| &r.tickets) {
            if let Some(at) = submitted_at.remove(ticket) {
                wall_us.push(drained_at.duration_since(at).as_micros() as u64);
            }
        }
        if let Some((t, tg)) = &mut twin {
            for s in tg.next_tick() {
                if let Err(ServiceError::QueueFull { .. }) = t.submit(s.client, s.payload, s.class)
                {
                    break;
                }
            }
            t.tick()?;
            assert_eq!(
                t.drain_releases(),
                records,
                "kill drill: restored run releases bit-identically"
            );
        }
        for record in records {
            released += 1;
            if !args.smoke && released <= 8 {
                println!(
                    "  release @round {}: {} submissions → {}",
                    record.release_round,
                    record.tickets.len(),
                    describe(&record.outcome)
                );
            }
        }
    }

    if let Some((t, _)) = &twin {
        assert_eq!(
            t.stats(),
            svc.stats(),
            "kill drill: restored run ends in the same state"
        );
        assert_eq!(t.footprint(), PoolFootprint::default());
        println!("kill drill passed: restored run stayed bit-identical to the end");
    }

    // Snapshot/restore self-check: the restored service agrees with the
    // original on clock, stats, and (by construction) all future output.
    let image = svc.snapshot()?;
    let restored: SbcService<W> = SbcService::restore(&image)?;
    assert_eq!(restored.round(), svc.round(), "restore: clock agrees");
    assert_eq!(restored.stats(), svc.stats(), "restore: stats agree");

    let stats = svc.stats();
    assert_eq!(
        stats.accepted,
        base.accepted + args.total,
        "every submission accepted"
    );
    assert_eq!(
        stats.latency.count,
        base.latency.count + args.total,
        "every submission released"
    );
    assert_eq!(
        svc.footprint(),
        PoolFootprint::default(),
        "steady-state memory flat after drain"
    );

    // Persistence: stream the image to disk — `--restore-from` picks it
    // up next boot.
    if let Some(path) = &args.snapshot_path {
        let mut file = std::fs::File::create(path)
            .unwrap_or_else(|e| die(&format!("--snapshot-path {path}: {e}")));
        let written = svc.snapshot_to(&mut file)?;
        println!("wrote a {written} byte snapshot to {path}");
    }
    println!(
        "done: {} released over {} instances in {} rounds | latency rounds p50={} p90={} p99={} max={} | peak live={} peak queue={} deferred={} leak-overflow={}",
        stats.latency.count,
        stats.finished,
        stats.round,
        stats.latency.p50,
        stats.latency.p90,
        stats.latency.p99,
        stats.latency.max,
        stats.peak_live,
        stats.peak_queue,
        stats.deferred,
        stats.leak_overflow,
    );
    assert_eq!(wall_us.len() as u64, args.total, "every submission timed");
    wall_us.sort_unstable();
    println!(
        "wall-clock latency: p50={}µs p90={}µs p99={}µs max={}µs over {} submissions",
        percentile(&wall_us, 50),
        percentile(&wall_us, 90),
        percentile(&wall_us, 99),
        wall_us.last().copied().unwrap_or(0),
        wall_us.len(),
    );
    println!(
        "snapshot/restore self-check passed ({} byte image)",
        image.len()
    );
    Ok(())
}

fn main() -> Result<(), ServiceError> {
    let args = parse_args();
    match args.backend.as_str() {
        "real" => serve::<RealSbcWorld>(&args),
        "loopback" => serve::<LoopbackSbcWorld>(&args),
        "simnet" => serve::<SimNetSbcWorld>(&args),
        "tcp" => serve::<TcpSbcWorld>(&args),
        _ => unreachable!("validated by parse_args"),
    }
}
