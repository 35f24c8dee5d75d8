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
//! cargo run -p sbc-bench --example sbc_serve --release -- \
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
//! output). `--snapshot-path` checkpoints the drained service at the end
//! of the run and writes an era-based snapshot into FILE;
//! `--restore-from` boots the service from such a file instead of fresh,
//! continuing its eras — together they give `sbc-serve` real
//! stop-the-process/resume-the-process persistence.

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

/// Stats with the observational fields masked off: the wall histogram is
/// deliberately excluded from snapshots (a restored service reports
/// `wall: None`), and `snapshot_bytes` records image sizes that
/// legitimately differ between a service and its restored twin —
/// comparisons must cover everything else.
fn replayable(svc: &SbcService<impl SbcBackend>) -> sbc_service::ServiceStats {
    let mut stats = svc.stats();
    stats.wall = None;
    stats.snapshot_bytes = 0;
    stats
}

fn serve<W: SbcBackend>(args: &Args) -> Result<(), ServiceError> {
    // Boot: fresh, or resumed from an era-based snapshot file.
    let mut svc: SbcService<W> = match &args.restore_from {
        Some(path) => {
            let mut file = std::fs::File::open(path)
                .unwrap_or_else(|e| die(&format!("--restore-from {path}: {e}")));
            let svc = SbcService::restore_from(&mut file)?;
            println!(
                "restored from {path}: era {} @round {} ({} delivered so far)",
                svc.era(),
                svc.round(),
                svc.stats().delivered
            );
            svc
        }
        None => SbcService::new(
            ServiceConfig::new(4, args.mode)
                .seed(b"sbc-serve")
                .record_wall_clock(true),
        )?,
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

    let mut released = 0u64;
    while !gen.done() || svc.queued() > 0 || svc.live() > 0 {
        if !drilled && released > 0 && svc.live() > 0 {
            drilled = true;
            let image = svc.snapshot()?;
            let restored: SbcService<W> = SbcService::restore(&image)?;
            assert_eq!(restored.round(), svc.round(), "kill drill: clock agrees");
            assert_eq!(
                replayable(&restored),
                replayable(&svc),
                "kill drill: stats agree"
            );
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
            if let Err(ServiceError::QueueFull { .. }) = svc.submit(s.client, s.payload, s.class) {
                break;
            }
        }
        svc.tick()?;
        let records = svc.drain_releases();
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
            replayable(t),
            replayable(&svc),
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
    assert_eq!(
        replayable(&restored),
        replayable(&svc),
        "restore: stats agree"
    );

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

    // Persistence: fold the drained run into a checkpoint and stream the
    // era-based image to disk — `--restore-from` picks it up next boot.
    if let Some(path) = &args.snapshot_path {
        assert!(
            svc.try_checkpoint(),
            "drained service must sit at an era boundary"
        );
        let mut file = std::fs::File::create(path)
            .unwrap_or_else(|e| die(&format!("--snapshot-path {path}: {e}")));
        let written = svc.snapshot_to(&mut file)?;
        println!(
            "checkpointed into era {} and wrote a {} byte snapshot to {path}",
            svc.era(),
            written
        );
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
    if let Some(wall) = stats.wall {
        println!(
            "wall-clock latency: p50≤{}µs p90≤{}µs p99≤{}µs max={}µs mean={}µs over {} submissions",
            wall.p50_us, wall.p90_us, wall.p99_us, wall.max_us, wall.mean_us, wall.count,
        );
    }
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
