//! `sbc-benchmark compare A.json B.json`: applies each end-to-end
//! metric's bound from `BENCHMARK.json` to two result files.
//!
//! A row is `regressed` when B's value is worse than A's by more than
//! the bound, `unresolved` when that cannot be told from noise — the
//! quartile spread of either side's repeats is wider than the bound,
//! and the two sides' repeats overlap — and `ok` otherwise.

use crate::json::Json;
use crate::stats::spread;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B is, as a share of A (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// A metric definition out of `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |f: &str| m.get(f).and_then(Json::as_str);
            let name = text("name").ok_or("BENCHMARK.json: metric without a name")?;
            let lower_is_better = match text("better") {
                Some("lower") => true,
                Some("higher") => false,
                other => return Err(format!("BENCHMARK.json: {name}: better = {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json: {name}: no bound"))?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// (reported value, per-repeat readings) of one metric in one result file.
fn reading(workload: &Json, metric: &str) -> Option<(f64, Vec<f64>)> {
    let m = workload.get("end_to_end")?.get(metric)?;
    let repeats = m
        .get("repeats")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some((m.get("value")?.as_f64()?, repeats))
}

fn judge(
    b: &Bound,
    (a_val, a_reps): &(f64, Vec<f64>),
    (b_val, b_reps): &(f64, Vec<f64>),
) -> (f64, Verdict) {
    // Orient so that larger is worse.
    let sign = if b.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = if a_val == b_val {
        0.0
    } else {
        sign * (b_val - a_val) / a_val.abs()
    };
    let noisy = spread(a_reps) > b.bound || spread(b_reps) > b.bound;
    let worst = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::NEG_INFINITY, f64::max);
    let best = |v: &[f64]| v.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
    let verdict = if !noisy {
        if worse_by > b.bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        }
    } else if worst(b_reps) < best(a_reps) {
        // Every run of B reads better than every run of A.
        Verdict::Ok
    } else if best(b_reps) > worst(a_reps) && worse_by > b.bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    };
    (worse_by, verdict)
}

/// Compares every (workload, end-to-end metric) both files report, plus
/// one `release_digest` row per workload (a different digest under the
/// same seed is a changed output, reported as `regressed`).
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let bounds = bounds(benchmark)?;
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .map(<[(String, Json)]>::to_vec)
            .ok_or("result file: no workloads object")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let mut rows = Vec::new();
    for (name, in_a) in &wa {
        let Some((_, in_b)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for bound in &bounds {
            let (Some(ra), Some(rb)) = (reading(in_a, &bound.name), reading(in_b, &bound.name))
            else {
                continue;
            };
            let (worse_by, verdict) = judge(bound, &ra, &rb);
            rows.push(Row {
                workload: name.clone(),
                metric: bound.name.clone(),
                a: ra.0,
                b: rb.0,
                worse_by,
                bound: bound.bound,
                verdict,
            });
        }
        let digest = |w: &Json| {
            w.get("release_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        if let (true, Some(da), Some(db)) = (same_seed, digest(in_a), digest(in_b)) {
            let same = da == db;
            rows.push(Row {
                workload: name.clone(),
                metric: "release_digest".into(),
                a: 0.0,
                b: 0.0,
                worse_by: if same { 0.0 } else { f64::INFINITY },
                bound: 0.0,
                verdict: if same {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                },
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(rows)
}

/// Prints the rows; returns whether any regressed.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<14} {:<28} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.word()
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "submissions_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "tick_p90_ms", "unit": "ms", "better": "lower", "bound": 0.1}
            ]}"#,
        )
        .unwrap()
    }

    fn results(seed: &str, digest: &str, rate: &[f64], tick: &[f64]) -> Json {
        let metric = |v: &[f64]| {
            Json::obj([
                ("value", Json::Num(crate::stats::median(v))),
                ("repeats", Json::nums(v)),
            ])
        };
        Json::obj([
            ("seed", Json::str(seed)),
            (
                "workloads",
                Json::obj([(
                    "beacon_small",
                    Json::obj([
                        ("release_digest", Json::str(digest)),
                        (
                            "end_to_end",
                            Json::obj([
                                ("submissions_per_s", metric(rate)),
                                ("tick_p90_ms", metric(tick)),
                            ]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    fn verdicts(a: &Json, b: &Json) -> Vec<(String, Verdict)> {
        compare(&benchmark(), a, b)
            .unwrap()
            .into_iter()
            .map(|r| (r.metric, r.verdict))
            .collect()
    }

    #[test]
    fn inside_outside_and_unresolved() {
        let steady = [20_000.0, 20_100.0, 19_900.0, 20_050.0, 19_950.0];
        let ticks = [13.0, 13.1, 12.9, 13.05, 12.95];
        let a = results("s", "d0", &steady, &ticks);

        // Inside the bound both ways: 5 % slower, 5 % longer ticks.
        let b = results(
            "s",
            "d0",
            &steady.map(|v| v * 0.95),
            &ticks.map(|v| v * 1.05),
        );
        assert_eq!(
            verdicts(&a, &b),
            vec![
                ("submissions_per_s".to_string(), Verdict::Ok),
                ("tick_p90_ms".to_string(), Verdict::Ok),
                ("release_digest".to_string(), Verdict::Ok),
            ]
        );

        // Outside: 20 % slower (higher is better), 20 % longer ticks; a
        // changed digest under the same seed is a regression too.
        let b = results("s", "d1", &steady.map(|v| v * 0.8), &ticks.map(|v| v * 1.2));
        assert!(verdicts(&a, &b)
            .iter()
            .all(|(_, v)| *v == Verdict::Regressed));
        // …and an improvement of the same size is fine.
        let b = results("s", "d0", &steady.map(|v| v * 1.2), &ticks.map(|v| v * 0.8));
        assert!(verdicts(&a, &b).iter().all(|(_, v)| *v == Verdict::Ok));

        // Unresolved: B's repeats scatter wider than the bound and overlap
        // A's, whatever the reported values say.
        let noisy = [20_000.0, 14_000.0, 23_000.0, 16_000.0, 17_000.0];
        let b = results("other seed", "d9", &noisy, &ticks);
        assert_eq!(
            verdicts(&a, &b),
            vec![
                ("submissions_per_s".to_string(), Verdict::Unresolved),
                ("tick_p90_ms".to_string(), Verdict::Ok),
            ]
        );
        // Noisy, but every run of B beats every run of A: resolved.
        let b = results("s", "d0", &noisy.map(|v| v * 2.0), &ticks);
        assert_eq!(verdicts(&a, &b)[0].1, Verdict::Ok);
        // Noisy, and every run of B is below every run of A: regressed.
        let b = results("s", "d0", &noisy.map(|v| v * 0.5), &ticks);
        assert_eq!(verdicts(&a, &b)[0].1, Verdict::Regressed);
    }

    #[test]
    fn print_reports_whether_anything_regressed() {
        let a = results("s", "d", &[10.0, 10.0, 10.0], &[1.0, 1.0, 1.0]);
        let b = results("s", "d", &[5.0, 5.0, 5.0], &[1.0, 1.0, 1.0]);
        assert!(print(&compare(&benchmark(), &a, &b).unwrap()));
        assert!(!print(&compare(&benchmark(), &a, &a).unwrap()));
        assert!(compare(
            &benchmark(),
            &a,
            &Json::obj([("workloads", Json::Obj(vec![]))])
        )
        .is_err());
    }
}
