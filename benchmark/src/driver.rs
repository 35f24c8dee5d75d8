//! The closed-loop driver: one client thread that, per tick, calls
//! `submit` for that tick's pre-generated submissions, then `tick`, then
//! `drain_releases` — the consumer loop `sbc-serve` uses — and checks
//! every record it is handed.
//!
//! All load is generated before the clock starts. What is timed is each
//! turn of the loop on its own — never the harness's work between turns
//! (output checks, the snapshot/restore drill, driving the restored twin)
//! — and a repeat hands back those times as a [`Timeline`].

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use sbc_core::pool::PoolFootprint;
use sbc_core::worlds::{RealSbcWorld, SbcBackend};
use sbc_primitives::sha256::Sha256;
use sbc_service::{
    DeadlineClass, LoadGen, Outcome, ReleaseRecord, SbcService, ServiceMode, ServiceStats,
};

use crate::spec::{Backend, Workload, DRILL_TICK, LOCKSTEP_TICKS, REFERENCE_SUBMISSIONS};
use crate::trace::Recorder;

/// The pre-generated submissions of one repeat, indexed by the ticket
/// the service will hand out (tickets are dense in acceptance order).
pub struct Load {
    pub clients: Vec<u64>,
    pub payloads: Vec<Vec<u8>>,
    pub classes: Vec<DeadlineClass>,
}

impl Load {
    pub fn generate(w: &Workload, seed: &str) -> Load {
        let total = w.submissions() as usize;
        let mut load = Load {
            clients: Vec::with_capacity(total),
            payloads: Vec::with_capacity(total),
            classes: Vec::with_capacity(total),
        };
        let mut gen = LoadGen::new(w.load_profile(), &w.load_seed(seed));
        while !gen.done() {
            for s in gen.next_tick() {
                load.clients.push(s.client);
                load.payloads.push(s.payload);
                load.classes.push(s.class);
            }
        }
        load
    }
}

/// What one snapshot+restore drill found (its two times are in the
/// [`Timeline`]).
#[derive(Clone, Copy, Debug)]
pub struct Drill {
    pub bytes: u64,
    /// Journal operations the restore had to replay.
    pub replayed_ops: u64,
}

/// The times of one repeat, operation by operation, in milliseconds.
///
/// Under one seed every repeat performs the same operations on the same
/// state in the same order (the release digest check demands as much), so
/// the timelines of a run line up entry for entry and differ only by what
/// the machine did to them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// One turn of the consumer loop: the batch's `submit`s, `tick`,
    /// `drain_releases`.
    pub turn_ms: Vec<f64>,
    /// The `tick` call of each turn alone.
    pub tick_ms: Vec<f64>,
    /// One `snapshot_to` and one `restore_from` per drill.
    pub snapshot_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
}

impl Timeline {
    /// Keeps, entry by entry, the shorter of the two times. A shared host
    /// only ever adds time to an operation — a neighbour on the core, a
    /// cold cache — and adds it to different operations in each repeat, so
    /// the shortest time an operation took over the repeats of a run is
    /// the nearest reading of what the program costs.
    pub fn keep_fastest(&mut self, other: &Timeline) -> Result<(), String> {
        let pairs = [
            (&mut self.turn_ms, &other.turn_ms),
            (&mut self.tick_ms, &other.tick_ms),
            (&mut self.snapshot_ms, &other.snapshot_ms),
            (&mut self.restore_ms, &other.restore_ms),
        ];
        for (mine, theirs) in pairs {
            if mine.len() != theirs.len() {
                return Err(format!(
                    "repeats under one seed took {} and {} steps",
                    mine.len(),
                    theirs.len()
                ));
            }
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m = m.min(*t);
            }
        }
        Ok(())
    }
}

/// Everything one repeat measured and checked.
pub struct Repeat {
    pub setup_s: f64,
    pub submit_s: f64,
    pub tick_s: f64,
    pub drain_s: f64,
    pub attempted: u64,
    pub released: u64,
    pub failed: u64,
    pub timeline: Timeline,
    /// Per released submission: the turn it was submitted in and the turn
    /// whose `drain_releases` handed over its record.
    pub waits: Vec<(u32, u32)>,
    pub drills: Vec<Drill>,
    /// SHA-256 over the ordered record stream.
    pub digest: [u8; 32],
    /// Stats when the last submission had been ticked in, before the
    /// service is run dry — the state sustained load leaves behind.
    pub end_of_load: ServiceStats,
    pub final_stats: ServiceStats,
    /// What went wrong, in words; empty on a clean repeat.
    pub problems: Vec<String>,
    /// Submissions admitted into instances after each tick (cumulative),
    /// and the order they were admitted in — what the pool rung replays.
    pub admitted_after_tick: Vec<u64>,
    pub admission_order: Vec<u64>,
}

impl Repeat {
    pub fn busy_s(&self) -> f64 {
        self.submit_s + self.tick_s + self.drain_s
    }
}

/// The per-record output check and the release digest.
struct Checker<'a> {
    mode: ServiceMode,
    /// SHA-256 of every submitted payload, by ticket.
    payload_digests: &'a [[u8; 32]],
    released: Vec<bool>,
    stream: Sha256,
    reference: Option<&'a BTreeMap<u64, ReleaseRecord>>,
    reference_limit: u64,
    reference_matched: u64,
    ok: u64,
    failed: u64,
    problems: Vec<String>,
    admission: BTreeMap<u64, Vec<u64>>,
}

impl Checker<'_> {
    fn problem(&mut self, failed: u64, what: String) {
        self.failed += failed;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Every ticket released exactly once; the record's messages are, as a
    /// multiset, the payloads submitted under its tickets; the outcome is
    /// the mode's function of the messages; networked records equal the
    /// in-process reference where the two runs saw the same submissions.
    fn consume(&mut self, rec: &ReleaseRecord) {
        let count = rec.tickets.len() as u64;
        let mut fresh = true;
        for &t in &rec.tickets {
            match self.released.get_mut(t as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => fresh = false,
            }
        }
        let mut got: Vec<[u8; 32]> = rec.messages.iter().map(|m| Sha256::digest(m)).collect();
        let mut want: Vec<[u8; 32]> = rec
            .tickets
            .iter()
            .filter_map(|&t| self.payload_digests.get(t as usize).copied())
            .collect();
        self.stream.update(&rec.instance.to_be_bytes());
        self.stream.update(&rec.release_round.to_be_bytes());
        self.stream.update(&(got.len() as u64).to_be_bytes());
        for d in &got {
            self.stream.update(d);
        }
        self.stream.update(format!("{:?}", rec.outcome).as_bytes());
        for t in &rec.tickets {
            self.stream.update(&t.to_be_bytes());
        }
        got.sort_unstable();
        want.sort_unstable();
        let instance = rec.instance;
        if !fresh {
            self.problem(
                count,
                format!("instance {instance}: a ticket released twice or never issued"),
            );
        } else if got != want {
            self.problem(
                count,
                format!("instance {instance}: messages are not the submitted payloads"),
            );
        } else if rec.outcome != Outcome::compute(self.mode, &rec.messages) {
            self.problem(
                count,
                format!("instance {instance}: outcome does not follow from the messages"),
            );
        } else {
            self.ok += count;
        }
        if let Some(reference) = self.reference {
            if rec.tickets.iter().all(|&t| t < self.reference_limit) {
                if reference.get(&instance) == Some(rec) {
                    self.reference_matched += 1;
                } else {
                    self.problem(
                        count,
                        format!("instance {instance}: differs from the in-process reference"),
                    );
                }
            }
        }
        self.admission.insert(instance, rec.tickets.clone());
    }
}

/// Plays the first submissions of a networked workload through an
/// in-process service with the same configuration: the repo's Exact
/// property, checked where the numbers are taken.
fn reference_records(
    w: &Workload,
    seed: &str,
    load: &Load,
    limit: u64,
) -> Result<BTreeMap<u64, ReleaseRecord>, String> {
    let mut svc: SbcService<RealSbcWorld> =
        SbcService::new(w.service_config(seed)).map_err(|e| format!("reference service: {e}"))?;
    let mut records = Vec::new();
    let mut next = 0usize;
    while next < limit as usize {
        let end = (next + w.per_tick).min(limit as usize);
        for i in next..end {
            svc.submit(load.clients[i], load.payloads[i].clone(), load.classes[i])
                .map_err(|e| format!("reference submit: {e}"))?;
        }
        next = end;
        svc.tick().map_err(|e| format!("reference tick: {e}"))?;
        records.extend(svc.drain_releases());
    }
    records.extend(
        svc.shutdown()
            .map_err(|e| format!("reference shutdown: {e}"))?,
    );
    Ok(records.into_iter().map(|r| (r.instance, r)).collect())
}

/// Stats with the fields a snapshot deliberately leaves out masked off.
fn replayable(mut stats: ServiceStats) -> ServiceStats {
    stats.wall = None;
    stats.snapshot_bytes = 0;
    stats.auto_folds = 0;
    stats
}

/// Streams the service into a file, restores a twin from it, and checks
/// the twin stands where the original does. Answers the twin, what the
/// drill found, and the seconds `snapshot_to` and `restore_from` took.
fn drill<W: SbcBackend>(
    svc: &SbcService<W>,
    path: &Path,
    rec: &mut Recorder,
    tick: u32,
) -> Result<(SbcService<W>, Drill, [f64; 2]), String> {
    let replayed_ops = svc.stats().journal_ops;
    let (written, snapshot_s) = rec.time("service.snapshot_to", tick, || {
        let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        let n = svc
            .snapshot_to(&mut out)
            .map_err(|e| format!("snapshot_to: {e}"))?;
        out.flush().map_err(|e| format!("flush snapshot: {e}"))?;
        Ok::<usize, String>(n)
    });
    let bytes = written? as u64;
    let (restored, restore_s) = rec.time("service.restore_from", tick, || {
        let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        SbcService::<W>::restore_from(&mut BufReader::new(file))
            .map_err(|e| format!("restore_from: {e}"))
    });
    let twin = restored?;
    std::fs::remove_file(path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    if twin.round() != svc.round() || replayable(twin.stats()) != replayable(svc.stats()) {
        return Err(format!(
            "restored twin diverges at round {}: {:?} vs {:?}",
            svc.round(),
            twin.stats(),
            svc.stats()
        ));
    }
    Ok((
        twin,
        Drill {
            bytes,
            replayed_ops,
        },
        [snapshot_s, restore_s],
    ))
}

/// One submission handed to `submit`.
type Submission = (u64, Vec<u8>, DeadlineClass);

/// The state of one repeat's timed loop.
struct Loop<'a, W: SbcBackend> {
    svc: SbcService<W>,
    rec: &'a mut Recorder,
    check: Checker<'a>,
    tick_no: u32,
    next_ticket: u64,
    /// The turn each ticket was submitted in.
    submitted_in: Vec<u32>,
    submit_s: f64,
    tick_s: f64,
    drain_s: f64,
    timeline: Timeline,
    waits: Vec<(u32, u32)>,
    admitted_after_tick: Vec<u64>,
}

impl<W: SbcBackend> Loop<'_, W> {
    /// One turn of the consumer loop: submit the batch, tick, drain, then
    /// (untimed) note which turn each released ticket waited since and
    /// check the records.
    fn step(&mut self, batch: Vec<Submission>) -> Result<Vec<ReleaseRecord>, String> {
        let tick = self.tick_no;
        self.rec.enter("tick", tick);
        let first = Instant::now();
        let mut at = first;
        for (client, payload, class) in batch {
            self.submitted_in.push(tick);
            let accepted = self.svc.submit(client, payload, class);
            let end = Instant::now();
            self.rec.leaf("service.submit", at, end, tick);
            at = end;
            // Tickets are dense in acceptance order, so a refusal would
            // shift every later ticket off its submission index. The
            // workloads are sized so the queue never fills; if it does,
            // the run is void.
            if accepted != Ok(self.next_ticket) {
                return Err(format!(
                    "submission {}: submit answered {accepted:?}",
                    self.next_ticket
                ));
            }
            self.next_ticket += 1;
        }
        self.submit_s += (at - first).as_secs_f64();
        self.svc.tick().map_err(|e| format!("tick {tick}: {e}"))?;
        let ticked = Instant::now();
        self.rec.leaf("service.tick", at, ticked, tick);
        let records = self.svc.drain_releases();
        let drained = Instant::now();
        self.rec
            .leaf("service.drain_releases", ticked, drained, tick);
        self.rec.exit();
        let tick_s = (ticked - at).as_secs_f64();
        self.tick_s += tick_s;
        self.drain_s += (drained - ticked).as_secs_f64();
        self.timeline.tick_ms.push(tick_s * 1e3);
        self.timeline
            .turn_ms
            .push((drained - first).as_secs_f64() * 1e3);
        for r in &records {
            for &t in &r.tickets {
                if let Some(&since) = self.submitted_in.get(t as usize) {
                    self.waits.push((since, tick));
                }
            }
            self.check.consume(r);
        }
        self.admitted_after_tick
            .push(self.next_ticket - self.svc.queued() as u64);
        self.tick_no += 1;
        Ok(records)
    }
}

/// Runs one repeat of `w`: set-up, the timed closed loop with its drills,
/// the run-dry, and the end-of-run checks.
pub fn run_repeat<W: SbcBackend>(
    w: &Workload,
    seed: &str,
    out_dir: &Path,
    rec: &mut Recorder,
) -> Result<Repeat, String> {
    // ── set-up: everything before the first submit ───────────────────
    let setup = Instant::now();
    let load = Load::generate(w, seed);
    let payload_digests: Vec<[u8; 32]> = load.payloads.iter().map(|p| Sha256::digest(p)).collect();
    let reference_limit = REFERENCE_SUBMISSIONS.min(w.submissions());
    let reference = match w.backend {
        Backend::Real => None,
        _ => Some(reference_records(w, seed, &load, reference_limit)?),
    };
    let (svc, _) = rec.time("service.new", 0, || {
        SbcService::<W>::new(w.service_config(seed))
    });
    let svc = svc.map_err(|e| format!("SbcService::new: {e}"))?;
    let setup_s = setup.elapsed().as_secs_f64();

    let total = w.submissions();
    let mut run = Loop {
        svc,
        rec,
        check: Checker {
            mode: w.mode,
            payload_digests: &payload_digests,
            released: vec![false; total as usize],
            stream: Sha256::new(),
            reference: reference.as_ref(),
            reference_limit,
            reference_matched: 0,
            ok: 0,
            failed: 0,
            problems: Vec::new(),
            admission: BTreeMap::new(),
        },
        tick_no: 0,
        next_ticket: 0,
        submitted_in: Vec::with_capacity(total as usize),
        submit_s: 0.0,
        tick_s: 0.0,
        drain_s: 0.0,
        timeline: Timeline::default(),
        waits: Vec::with_capacity(total as usize),
        admitted_after_tick: Vec::new(),
    };
    let mut submissions = load
        .clients
        .into_iter()
        .zip(load.payloads)
        .zip(load.classes)
        .map(|((client, payload), class)| (client, payload, class));
    let snapshot_path = out_dir.join(format!("snapshot-{}-{}.tmp", w.name, std::process::id()));
    let mut drills = Vec::new();
    let mut end_of_load = ServiceStats::default();

    // ── the timed loop ────────────────────────────────────────────────
    let burst_ticks = w.per_cycle.div_ceil(w.per_tick as u64);
    let drill_at = DRILL_TICK.min(burst_ticks / 2);
    for cycle in 0..w.cycles {
        let mut left = w.per_cycle;
        let mut twin: Option<(SbcService<W>, u64)> = None;
        for t in 0..burst_ticks {
            if t == drill_at {
                let (restored, d, [snapshot_s, restore_s]) =
                    drill(&run.svc, &snapshot_path, run.rec, run.tick_no)?;
                drills.push(d);
                run.timeline.snapshot_ms.push(snapshot_s * 1e3);
                run.timeline.restore_ms.push(restore_s * 1e3);
                twin = Some((restored, LOCKSTEP_TICKS));
            }
            let count = left.min(w.per_tick as u64) as usize;
            left -= count as u64;
            let batch: Vec<Submission> = submissions.by_ref().take(count).collect();
            let twin_batch = twin.as_ref().map(|_| batch.clone());
            let records = run.step(batch)?;
            // The restored twin gets the same submissions and must hand
            // back the same records, tick for tick.
            if let (Some((t, ticks_left)), Some(batch)) = (&mut twin, twin_batch) {
                for (client, payload, class) in batch {
                    t.submit(client, payload, class)
                        .map_err(|e| format!("twin submit: {e}"))?;
                }
                t.tick().map_err(|e| format!("twin tick: {e}"))?;
                if t.drain_releases() != records {
                    let lost = records.iter().map(|r| r.tickets.len() as u64).sum::<u64>();
                    let tick = run.tick_no - 1;
                    run.check.problem(
                        lost.max(1),
                        format!(
                            "cycle {cycle} tick {tick}: restored twin released different records"
                        ),
                    );
                }
                *ticks_left -= 1;
            }
            twin.take_if(|(_, ticks_left)| *ticks_left == 0);
        }
        if cycle + 1 == w.cycles {
            end_of_load = run.svc.stats();
        }
        // Run dry, then one quiet tick: the first tick at an era boundary
        // is where an armed checkpoint policy folds.
        let mut budget = 64 + 16 * run.svc.live() as u64 + run.svc.queued() as u64;
        while run.svc.queued() > 0 || run.svc.live() > 0 {
            if budget == 0 {
                return Err(format!("{}: service did not run dry", w.name));
            }
            budget -= 1;
            run.step(Vec::new())?;
        }
        run.step(Vec::new())?;
    }

    // ── end-of-run checks ─────────────────────────────────────────────
    let leftover = run.svc.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let Loop {
        svc,
        mut check,
        submit_s,
        tick_s,
        drain_s,
        timeline,
        waits,
        admitted_after_tick,
        ..
    } = run;
    for r in &leftover {
        check.consume(r);
    }
    if !leftover.is_empty() {
        check.problem(
            0,
            format!("{} records surfaced only at shutdown", leftover.len()),
        );
    }
    let unreleased = check.released.iter().filter(|seen| !**seen).count() as u64;
    if unreleased > 0 {
        check.problem(
            unreleased,
            format!("{unreleased} submissions never released"),
        );
    }
    if svc.footprint() != PoolFootprint::default() {
        check.problem(1, format!("pool footprint not flat: {:?}", svc.footprint()));
    }
    if reference.is_some() && check.reference_matched == 0 {
        check.problem(
            1,
            "no record was compared with the in-process reference".into(),
        );
    }
    let final_stats = svc.stats();
    Ok(Repeat {
        setup_s,
        submit_s,
        tick_s,
        drain_s,
        attempted: total,
        released: check.ok,
        failed: check.failed,
        timeline,
        waits,
        drills,
        digest: check.stream.finalize(),
        end_of_load,
        final_stats,
        problems: check.problems,
        admitted_after_tick,
        admission_order: check.admission.into_values().flatten().collect(),
    })
}

/// [`run_repeat`] over the workload's backend.
pub fn run_repeat_on_backend(
    w: &Workload,
    seed: &str,
    out_dir: &Path,
    rec: &mut Recorder,
) -> Result<Repeat, String> {
    match w.backend {
        Backend::Real => run_repeat::<RealSbcWorld>(w, seed, out_dir, rec),
        Backend::Loopback => run_repeat::<sbc_net::LoopbackSbcWorld>(w, seed, out_dir, rec),
        Backend::Tcp => run_repeat::<sbc_net::TcpSbcWorld>(w, seed, out_dir, rec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    /// Where the drills park their images: the benchmark's own `out/`.
    fn out_dir() -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).expect("create out/");
        dir
    }

    /// A 512-submission `beacon_small`: two in-process repeats are clean
    /// and release the same stream.
    #[test]
    fn release_digest_repeats_across_in_process_repeats() {
        let mut w = workload("beacon_small").unwrap();
        w.per_cycle = 512;
        let dir = out_dir();
        let run = |seed: &str| {
            run_repeat_on_backend(&w, seed, &dir, &mut Recorder::off()).expect("repeat runs")
        };
        let (a, b) = (run("unit"), run("unit"));
        for r in [&a, &b] {
            assert_eq!(r.problems, Vec::<String>::new());
            assert_eq!((r.attempted, r.released, r.failed), (512, 512, 0));
            assert_eq!(r.waits.len(), 512);
            assert_eq!(r.timeline.turn_ms.len(), r.timeline.tick_ms.len());
            assert_eq!(
                (r.timeline.snapshot_ms.len(), r.timeline.restore_ms.len()),
                (1, 1)
            );
            assert_eq!(r.drills.len(), 1);
            assert!(r.drills[0].bytes > 0 && r.drills[0].replayed_ops > 0);
        }
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.admission_order.len(), 512);
        assert_eq!(a.admitted_after_tick.last(), Some(&512));
        assert_ne!(a.digest, run("other seed").digest);
    }

    #[test]
    fn fastest_timeline_is_the_entrywise_minimum() {
        let timeline = |turn: &[f64], tick: &[f64]| Timeline {
            turn_ms: turn.to_vec(),
            tick_ms: tick.to_vec(),
            snapshot_ms: vec![turn[0]],
            restore_ms: vec![tick[0]],
        };
        let mut fastest = timeline(&[3.0, 9.0, 4.0], &[2.0, 8.0, 3.0]);
        fastest
            .keep_fastest(&timeline(&[5.0, 6.0, 4.5], &[1.0, 5.0, 3.5]))
            .expect("same shape");
        assert_eq!(fastest, timeline(&[3.0, 6.0, 4.0], &[1.0, 5.0, 3.0]));
        // Repeats that took different steps did different work.
        assert!(fastest.keep_fastest(&timeline(&[1.0], &[1.0])).is_err());
    }

    /// The networked backends are checked against the in-process
    /// reference while they run.
    #[test]
    fn loopback_repeat_matches_the_reference() {
        let mut w = workload("bulk_loopback").unwrap();
        w.per_cycle = 256;
        w.payload_len = 64;
        let r = run_repeat_on_backend(&w, "unit", &out_dir(), &mut Recorder::off())
            .expect("repeat runs");
        assert_eq!(r.problems, Vec::<String>::new());
        assert_eq!((r.released, r.failed), (256, 0));
    }
}
