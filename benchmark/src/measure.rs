//! One workload, measured: the untraced end-to-end run (`--trace 0`) and
//! the traced run with its ladder (`--trace 1`), each folded into the
//! result document the run prints and writes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sbc_core::worlds::RealSbcWorld;
use sbc_net::{LoopbackSbcWorld, TcpSbcWorld};

use crate::driver::{run_repeat_on_backend, Drill, Load, Repeat, Timeline};
use crate::json::Json;
use crate::ladder::{
    functionality_rung, pool_rung, transport_rung, world_rung, PoolRung, WorldRung,
};
use crate::spec::{Backend, Workload, END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, sorted, Summary};
use crate::trace::Recorder;

/// Fewest repeats a full run reports a median over.
const MIN_REPEATS: usize = 3;

/// How a run was asked for.
#[derive(Clone, Debug)]
pub struct Options {
    pub seed: String,
    /// Target measuring time; the repeat count follows from it.
    pub seconds: f64,
    /// One repeat of a tenth of the submissions.
    pub smoke: bool,
    pub out_dir: PathBuf,
}

/// What one run of one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub repeats: usize,
    pub release_digest: String,
    pub problems: Vec<String>,
    /// Metric summaries in `END_TO_END` or `PER_LAYER` order.
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Per-layer runs only: remarks the ladder makes about itself.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Folds the checks of the run's repeats — counts, problems, and the
    /// demand that every repeat released the same stream — around the
    /// metrics taken from them.
    fn of(
        repeats: &[Repeat],
        metrics: Vec<(&'static str, &'static str, Summary)>,
        notes: Vec<String>,
    ) -> Outcome {
        let mut failed: u64 = repeats.iter().map(|r| r.failed).sum();
        let mut problems: Vec<String> = repeats.iter().flat_map(|r| r.problems.clone()).collect();
        let digest = repeats[0].digest;
        if repeats.iter().any(|r| r.digest != digest) {
            failed += 1;
            problems.push("release_digest differs between repeats".into());
        }
        Outcome {
            correct: failed == 0 && problems.is_empty(),
            attempted: repeats.iter().map(|r| r.attempted).sum(),
            failed,
            repeats: repeats.len(),
            release_digest: sbc_primitives::hex::encode(&digest),
            problems,
            metrics,
            notes,
        }
    }

    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line result the driver contract asks for.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, s)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(s.value)),
                                    ("unit", Json::str(*unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }

    /// The workload's entry in a result file; `section` is `end_to_end`
    /// or `per_layer`.
    pub fn to_json(&self, section: &str) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            ("repeats", Json::Num(self.repeats as f64)),
            ("release_digest", Json::str(self.release_digest.as_str())),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                section,
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, unit, s)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("unit", Json::str(*unit)),
                                    ("value", Json::Num(s.value)),
                                    ("min", Json::Num(s.min)),
                                    ("max", Json::Num(s.max)),
                                    ("repeats", Json::nums(&s.repeats)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// `workload metric value unit`, one line per metric.
    pub fn print(&self, workload: &str) {
        for (name, unit, s) in &self.metrics {
            println!("{workload} {name} {} {unit}", s.value);
        }
        println!("{workload} release_digest {}", self.release_digest);
        println!("{workload} failed_share {} ratio", self.failed_share());
        for p in &self.problems {
            eprintln!("{workload}: check failed: {p}");
        }
        for n in &self.notes {
            eprintln!("{workload}: ladder: {n}");
        }
    }
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Puts `values` in the order (and under the units) `spec` lists them.
fn in_spec_order(
    spec: &[(&'static str, &'static str)],
    mut values: Vec<(&'static str, Summary)>,
) -> Result<Vec<(&'static str, &'static str, Summary)>, String> {
    spec.iter()
        .map(|&(name, unit)| {
            let at = values
                .iter()
                .position(|(n, _)| *n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            Ok((name, unit, values.swap_remove(at).1))
        })
        .collect()
}

/// Keeps taking `step`s (at least `at_least`) while the next one is
/// likely to end within `seconds`.
fn fill_seconds(
    seconds: f64,
    at_least: usize,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut taken = 0usize;
    loop {
        step()?;
        taken += 1;
        let spent = started.elapsed().as_secs_f64();
        if taken >= at_least && spent + spent / taken as f64 > seconds {
            return Ok(());
        }
    }
}

/// The timing metrics a timeline yields, in `END_TO_END`'s names.
/// `waits` says, per released submission, which turn it was submitted in
/// and which turn handed over its record; its latency is the time of
/// those turns and the ones between, counted from the start of its
/// batch's `submit` calls.
fn timings(t: &Timeline, waits: &[(u32, u32)]) -> [(&'static str, f64); 6] {
    let mut elapsed = vec![0.0];
    for ms in &t.turn_ms {
        elapsed.push(elapsed[elapsed.len() - 1] + ms);
    }
    let busy_s = elapsed[elapsed.len() - 1] / 1e3;
    let latency_ms = sorted(
        waits
            .iter()
            .map(|&(since, to)| elapsed[to as usize + 1] - elapsed[since as usize])
            .collect(),
    );
    [
        ("submissions_per_s", waits.len() as f64 / busy_s),
        ("release_latency_p50_ms", percentile(&latency_ms, 50.0)),
        ("release_latency_p99_ms", percentile(&latency_ms, 99.0)),
        ("tick_p90_ms", percentile(&sorted(t.tick_ms.clone()), 90.0)),
        ("restore_p50_ms", median(&t.restore_ms)),
        ("snapshot_p50_ms", median(&t.snapshot_ms)),
    ]
}

/// The `--trace 0` run: untraced repeats. A timing metric is read off the
/// run's fastest timeline ([`Timeline::keep_fastest`]); each repeat's own
/// reading travels with it. Set-up is the fastest of the repeats' too;
/// memory and the seed-determined counts are medians over the repeats.
pub fn end_to_end(w: &Workload, opt: &Options) -> Result<Outcome, String> {
    let mut repeats: Vec<Repeat> = Vec::new();
    let (seconds, at_least) = if opt.smoke {
        (0.0, 1)
    } else {
        (opt.seconds, MIN_REPEATS)
    };
    // Each repeat's timeline is read and folded into the fastest one as
    // it ends, and not kept: memory must not grow with the repeat count.
    let mut own = Vec::new();
    let mut fastest: Option<(Timeline, Vec<(u32, u32)>)> = None;
    fill_seconds(seconds, at_least, || {
        let mut r = run_repeat_on_backend(w, &opt.seed, &opt.out_dir, &mut Recorder::off())?;
        own.push(timings(&r.timeline, &r.waits));
        let (timeline, waits) = (
            std::mem::take(&mut r.timeline),
            std::mem::take(&mut r.waits),
        );
        match &mut fastest {
            Some((fastest, _)) => fastest.keep_fastest(&timeline)?,
            None => fastest = Some((timeline, waits)),
        }
        // Only the traced run's pool rung replays the admissions.
        r.admission_order = Vec::new();
        r.admitted_after_tick = Vec::new();
        repeats.push(r);
        Ok(())
    })?;
    let (fastest, waits) = fastest.expect("at least one repeat");
    let mut values: Vec<(&'static str, Summary)> = timings(&fastest, &waits)
        .iter()
        .enumerate()
        .map(|(i, &(name, value))| {
            let repeats = own.iter().map(|t| t[i].1).collect();
            (name, Summary::with_value(value, repeats))
        })
        .collect();
    let per_repeat = |f: &dyn Fn(&Repeat) -> f64| Summary::of(repeats.iter().map(f).collect());
    values.extend([
        (
            "release_latency_p99_rounds",
            per_repeat(&|r| r.final_stats.latency.p99 as f64),
        ),
        // Set-up is one more operation every repeat performs alike.
        (
            "setup_s",
            Summary::with_value(
                repeats
                    .iter()
                    .map(|r| r.setup_s)
                    .fold(f64::INFINITY, f64::min),
                repeats.iter().map(|r| r.setup_s).collect(),
            ),
        ),
        ("peak_rss_mib", Summary::of(vec![peak_rss_mib()?])),
        (
            "snapshot_bytes",
            Summary::of(
                repeats
                    .iter()
                    .flat_map(|r| &r.drills)
                    .map(|d| d.bytes as f64)
                    .collect(),
            ),
        ),
    ]);
    let metrics = in_spec_order(END_TO_END, values)?;
    Ok(Outcome::of(&repeats, metrics, Vec::new()))
}

/// Rung 3, twice: the in-process world and a networked world.
fn world_rungs(
    w: &Workload,
    seed: &str,
    load: &Load,
    instances: u64,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<(WorldRung, WorldRung), String> {
    let real = world_rung::<RealSbcWorld>(w, seed, load, instances, budget, "core.worlds", rec)?;
    // The networked world at the same point: the workload's own backend,
    // or — so that every workload prices the net layer — the loopback one.
    let net = match w.backend {
        Backend::Tcp => {
            world_rung::<TcpSbcWorld>(w, seed, load, instances, budget, "net.world", rec)?
        }
        _ => world_rung::<LoopbackSbcWorld>(w, seed, load, instances, budget, "net.world", rec)?,
    };
    Ok((real, net))
}

/// The `--trace 1` run: traced repeats of the service rung, then rungs
/// 2–5 at the workload's operating point. Writes the spans to
/// `trace-<workload>.json`.
pub fn per_layer(w: &Workload, opt: &Options) -> Result<Outcome, String> {
    let mut rec = Recorder::on();
    let mut traced: Vec<Repeat> = Vec::new();
    // About half the time goes to the service rung; the ladder below takes
    // what it takes whatever `--seconds` says.
    let (seconds, at_least) = if opt.smoke {
        (0.0, 1)
    } else {
        (opt.seconds * 0.4, 2)
    };
    fill_seconds(seconds, at_least, || {
        traced.push(run_repeat_on_backend(w, &opt.seed, &opt.out_dir, &mut rec)?);
        Ok(())
    })?;
    // Disturbances only ever slow a run down, so of several runs of the
    // same work the fastest is the one the ladder stands on.
    let service = traced
        .iter()
        .min_by(|a, b| a.busy_s().total_cmp(&b.busy_s()))
        .expect("at least one repeat");
    // Traced and untraced repeats read the clock at the same points; the
    // traced one differs by the recorder's calls, and those are timed on
    // their own. (Subtracting two repeats' busy times would not do: a
    // repeat repeats within several percent here, the recorder costs a
    // few hundredths of a percent.)
    let overhead = rec.replay_seconds() / traced.len() as f64 / service.busy_s();

    // ── rungs 2–5 ────────────────────────────────────────────────────
    let load = Load::generate(w, &opt.seed);
    let mut pool: Option<PoolRung> = None;
    for _ in 0..at_least {
        let rung = match w.backend {
            Backend::Real => pool_rung::<RealSbcWorld>(w, &opt.seed, &load, service, &mut rec),
            Backend::Loopback => {
                pool_rung::<LoopbackSbcWorld>(w, &opt.seed, &load, service, &mut rec)
            }
            Backend::Tcp => pool_rung::<TcpSbcWorld>(w, &opt.seed, &load, service, &mut rec),
        }?;
        if pool
            .as_ref()
            .is_none_or(|best| rung.busy_s() < best.busy_s())
        {
            pool = Some(rung);
        }
    }
    let pool = pool.expect("at least one pool rung");
    let stats = &service.final_stats;
    if (pool.instances, pool.messages) != (stats.finished, service.released) {
        return Err(format!(
            "pool rung replayed different work: {} instances / {} messages, the service rung {} / {}",
            pool.instances, pool.messages, stats.finished, service.released
        ));
    }
    // Time boxes of the lower rungs; a smoke run gets a tenth.
    let ms = |full: u64| Duration::from_millis(if opt.smoke { full / 10 } else { full });
    let (real, net) = world_rungs(w, &opt.seed, &load, stats.opened, ms(1500), &mut rec)?;
    let mean_frame = (net.transport.bytes / net.transport.sent.max(1)) as usize;
    let transport = transport_rung(w, mean_frame, ms(250), &mut rec)?;
    let functionality = functionality_rung(w, ms(60), &mut rec);

    // ── the metrics ──────────────────────────────────────────────────
    let released = service.released as f64;
    let per_sub = |seconds: f64| seconds * 1e6 / released;
    let service_us = per_sub(service.busy_s());
    let pool_us = pool.busy_s() * 1e6 / pool.messages as f64;
    let below_pool_us = match w.backend {
        Backend::Real => real.us_per_sub(),
        _ => net.us_per_sub(),
    };
    // Per drill: what it found and the milliseconds its snapshot and its
    // restore took.
    let drills = |f: &dyn Fn(&Drill, f64, f64) -> f64| {
        let t = &service.timeline;
        let per_drill = service.drills.iter().zip(&t.snapshot_ms).zip(&t.restore_ms);
        median(
            &per_drill
                .map(|((d, &s), &r)| f(d, s, r))
                .collect::<Vec<_>>(),
        )
    };
    let per_round = |seconds: f64, rounds: u64| seconds * 1e6 / rounds.max(1) as f64;
    let party_rounds =
        (real.submit_rounds + real.idle_rounds + real.release_rounds) as f64 * w.n as f64;
    let mut values: Vec<(&'static str, f64)> = vec![
        ("service.submit_us_per_sub", per_sub(service.submit_s)),
        ("service.tick_us_per_sub", per_sub(service.tick_s)),
        ("service.drain_us_per_sub", per_sub(service.drain_s)),
        ("service.self_us_per_sub", service_us - pool_us),
        ("service.ticks", stats.ticks as f64),
        ("service.opened", stats.opened as f64),
        (
            "service.fill_ratio",
            stats.accepted as f64 / (stats.opened as f64 * w.batch_size as f64),
        ),
        ("service.deferred", stats.deferred as f64),
        ("service.peak_live", stats.peak_live as f64),
        ("service.peak_queue", stats.peak_queue as f64),
        (
            "service.leak_overflow_per_sub",
            stats.leak_overflow as f64 / released,
        ),
        (
            "service.journal_ops_end",
            service.end_of_load.journal_ops as f64,
        ),
        ("service.auto_folds", service.end_of_load.auto_folds as f64),
        (
            "service.snapshot_us_per_op",
            drills(&|d, snapshot_ms, _| snapshot_ms * 1e3 / d.replayed_ops.max(1) as f64),
        ),
        (
            "service.restore_us_per_op",
            drills(&|d, _, restore_ms| restore_ms * 1e3 / d.replayed_ops.max(1) as f64),
        ),
        (
            "service.restore_replayed_ops",
            drills(&|d, _, _| d.replayed_ops as f64),
        ),
        (
            "core.pool.open_us_per_instance",
            pool.open_s * 1e6 / pool.instances as f64,
        ),
        (
            "core.pool.submit_us_per_sub",
            pool.submit_s * 1e6 / pool.messages as f64,
        ),
        (
            "core.pool.step_us_per_sub",
            pool.step_s * 1e6 / pool.messages as f64,
        ),
        (
            "core.pool.finish_prune_us_per_instance",
            pool.finish_prune_s * 1e6 / pool.instances as f64,
        ),
        ("core.pool.self_us_per_sub", pool_us - below_pool_us),
        ("core.pool.instance_rounds", pool.instance_rounds as f64),
        (
            "core.worlds.new_us_per_instance",
            real.new_s * 1e6 / real.instances as f64,
        ),
        (
            "core.worlds.input_us_per_sub",
            real.input_s * 1e6 / real.submissions as f64,
        ),
        (
            "core.worlds.tick_submit_round_us",
            per_round(real.submit_round_s, real.submit_rounds),
        ),
        (
            "core.worlds.tick_idle_round_us",
            per_round(real.idle_round_s, real.idle_rounds),
        ),
        (
            "core.worlds.tick_release_round_us",
            per_round(real.release_round_s, real.release_rounds),
        ),
        ("core.worlds.us_per_sub", real.us_per_sub()),
        (
            "core.worlds.party_rounds_per_s",
            party_rounds / real.tick_s(),
        ),
        ("net.world.us_per_sub", net.us_per_sub()),
        (
            "net.world.overhead_ratio",
            net.us_per_sub() / real.us_per_sub(),
        ),
        (
            "net.world.frames_per_sub",
            net.transport.sent as f64 / net.submissions as f64,
        ),
        (
            "net.world.wire_bytes_per_sub",
            net.transport.bytes as f64 / net.submissions as f64,
        ),
    ];
    values.extend(transport);
    values.extend(functionality);
    values.push(("harness.trace_overhead_share", overhead));
    // A TCP-backed world rung has socket counters of its own.
    for (name, extra) in [
        ("net.tcp.timeouts", net.transport.timeouts),
        ("net.tcp.reconnects", net.transport.reconnects),
    ] {
        if let Some(v) = values.iter_mut().find(|(n, _)| *n == name) {
            v.1 += extra as f64;
        }
    }

    // A rung that costs more than the rung above it is not doing the
    // same work the same way (the pool steps its live instances on
    // parallel workers; the world rung runs one at a time, which a
    // latency-bound backend feels). The ladder says so instead of
    // passing the difference off as a self time. A tenth-size smoke run
    // is a bit-rot check; its numbers carry no remarks.
    let mut notes = Vec::new();
    if !opt.smoke {
        for name in ["service.self_us_per_sub", "core.pool.self_us_per_sub"] {
            let v = values.iter().find(|(n, _)| *n == name).expect("listed").1;
            if v < -0.05 * service_us {
                notes.push(format!(
                    "{name} = {v:.2} us: the rung below costs more, by over 5 % of the service rung's {service_us:.2} us per submission, so it is not the same work done the same way; do not read this as a self time"
                ));
            }
        }
        if overhead > 0.05 {
            notes.push(format!("tracing overhead {overhead:.3} exceeds 0.05"));
        }
    }
    let values = values
        .into_iter()
        .map(|(name, v)| (name, Summary::of(vec![v])))
        .collect();
    let metrics = in_spec_order(PER_LAYER, values)?;

    let path = opt.out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, rec.to_json().compact())
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    Ok(Outcome::of(&traced, metrics, notes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_of_a_known_timeline() {
        let t = Timeline {
            turn_ms: vec![10.0, 20.0, 30.0, 40.0],
            tick_ms: vec![8.0, 18.0, 28.0, 38.0],
            snapshot_ms: vec![1.0, 3.0, 2.0],
            restore_ms: vec![50.0, 70.0],
        };
        // Two submissions wait turns 0–1, one turns 1–3, one turns 2–3.
        let waits = [(0, 1), (0, 1), (1, 3), (2, 3)];
        assert_eq!(
            timings(&t, &waits),
            [
                ("submissions_per_s", 40.0),
                ("release_latency_p50_ms", 30.0),
                ("release_latency_p99_ms", 90.0),
                ("tick_p90_ms", 38.0),
                ("restore_p50_ms", 60.0),
                ("snapshot_p50_ms", 2.0),
            ]
        );
    }
}
