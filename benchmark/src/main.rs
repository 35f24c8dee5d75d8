//! `sbc-benchmark` — the repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! sbc-benchmark run --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! sbc-benchmark run-all [--seed S] [--seconds N] [--smoke] [--git-rev R]
//! sbc-benchmark compare A.json B.json
//! sbc-benchmark list
//! ```

mod compare;
mod driver;
mod json;
mod ladder;
mod measure;
mod pin;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use measure::{Options, Outcome};

/// The benchmark's own directory, fixed when the crate is built — the
/// binary is built and run inside the same checkout.
const HOME: &str = env!("CARGO_MANIFEST_DIR");

/// `--flag value` pairs and bare words, as given.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.flags.push(("smoke".into(), "1".into())),
                Some(flag) => {
                    let value = raw.next().ok_or(format!("--{flag} expects a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    fn options(&self) -> Result<Options, String> {
        let seconds = match self.flag("seconds") {
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .ok_or(format!("--seconds {s}: expected a positive number"))?,
            None => 42.0,
        };
        Ok(Options {
            seed: self.flag("seed").unwrap_or(spec::DEFAULT_SEED).to_string(),
            seconds,
            smoke: self.flag("smoke").is_some(),
            out_dir: Path::new(HOME).join("out"),
        })
    }
}

/// CPUs this process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// The envelope every result file shares; `nproc` is what the machine
/// offered, before a run pinned itself to one CPU.
fn result_doc(args: &Args, opt: &Options, nproc: usize, workloads: Vec<(String, Json)>) -> Json {
    Json::obj([
        (
            "git_rev",
            Json::str(args.flag("git-rev").unwrap_or("unknown")),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::str(opt.seed.as_str())),
        ("seconds", Json::Num(opt.seconds)),
        ("smoke", Json::Bool(opt.smoke)),
        ("workloads", Json::Obj(workloads)),
    ])
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One workload, one mode; prints the metrics and, last, the contract's
/// result line.
fn run(args: &Args) -> Result<bool, String> {
    let opt = args.options()?;
    let nproc = nproc();
    pin::to_one_cpu()?;
    let name = args.flag("workload").ok_or("run: --workload is required")?;
    let mut w = spec::workload(name).ok_or(format!(
        "unknown workload {name}; `sbc-benchmark list` names them"
    ))?;
    if opt.smoke {
        w = w.smoke();
    }
    std::fs::create_dir_all(&opt.out_dir)
        .map_err(|e| format!("create {}: {e}", opt.out_dir.display()))?;
    let (outcome, section, file): (Outcome, _, _) = match args.flag("trace").unwrap_or("0") {
        "0" => (measure::end_to_end(&w, &opt)?, "end_to_end", "run"),
        "1" => (measure::per_layer(&w, &opt)?, "per_layer", "layers"),
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    outcome.print(w.name);
    let doc = result_doc(
        args,
        &opt,
        nproc,
        vec![(w.name.to_string(), outcome.to_json(section))],
    );
    write(&opt.out_dir.join(format!("{file}-{}.json", w.name)), &doc)?;
    println!("{}", outcome.contract_line());
    Ok(outcome.correct)
}

/// Every workload, each mode in a child process of its own (so that peak
/// RSS is per workload), one at a time; merges the children's result
/// files into `out/results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let opt = args.options()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged: Vec<(String, Json)> = Vec::new();
    let mut correct = true;
    for w in spec::workloads() {
        // One child per mode; each leaves its result file behind.
        let mut child_entry = |trace: &str, file: &str| -> Result<Json, String> {
            let mut child = Command::new(&exe);
            child
                .arg("run")
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &opt.seed])
                .args(["--seconds", &opt.seconds.to_string()])
                .args(["--git-rev", args.flag("git-rev").unwrap_or("unknown")]);
            if opt.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            correct &= status.success();
            let path = opt.out_dir.join(format!("{file}-{}.json", w.name));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e} (the child exited with {status})", path.display()))?;
            Json::parse(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .get("workloads")
                .and_then(|ws| ws.get(w.name))
                .cloned()
                .ok_or(format!("{}: no entry for {}", path.display(), w.name))
        };
        let untraced = child_entry("0", "run")?;
        let traced = child_entry("1", "layers")?;
        // Counts, digest and end-to-end metrics are the untraced run's; the
        // traced run adds its metrics, its remarks and its own verdict.
        let mut entry: Vec<(String, Json)> = untraced
            .as_obj()
            .unwrap_or_default()
            .iter()
            .filter(|(k, _)| k != "notes")
            .cloned()
            .collect();
        for (key, from) in [
            ("per_layer", "per_layer"),
            ("notes", "notes"),
            ("traced_correct", "correct"),
            ("traced_problems", "problems"),
        ] {
            entry.push((
                key.to_string(),
                traced.get(from).cloned().unwrap_or(Json::Null),
            ));
        }
        merged.push((w.name.to_string(), Json::Obj(entry)));
    }
    let path: PathBuf = opt.out_dir.join("results.json");
    write(&path, &result_doc(args, &opt, nproc(), merged))?;
    println!("# wrote {}", path.display());
    Ok(correct)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare: expected two result files".into());
    };
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let benchmark = load(&format!("{HOME}/../BENCHMARK.json"))?;
    let rows = compare::compare(&benchmark, &load(a)?, &load(b)?)?;
    Ok(!compare::print(&rows))
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("run") => run(&args),
            Some("run-all") => run_all(&args),
            Some("compare") => compare_files(&args),
            Some("list") => {
                for w in spec::workloads() {
                    println!("{:<14} {}", w.name, w.why);
                }
                Ok(true)
            }
            other => Err(format!(
                "unknown command {other:?}; expected run, run-all, compare or list"
            )),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sbc-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
