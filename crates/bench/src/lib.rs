//! The crypto floor microbench, the experiments binary, and the
//! workspace-level integration tests and examples live in this crate; see
//! `benches/crypto.rs`, `src/bin/`, and the repository-root `tests/` and
//! `examples/` directories wired in through the manifest. Timings of the
//! protocol stack are recorded in one place only, the repo benchmark
//! (`benchmark/`, run with `bash benchmark/run.sh`).
//!
//! The container this repository builds in has no crates.io access, so the
//! microbench runs on the dependency-free [`harness`] below instead of
//! criterion. The harness keeps criterion's core discipline — warmup,
//! adaptive iteration counts, median-of-samples reporting — in ~100 lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A minimal, dependency-free micro-benchmark harness.
pub mod harness {
    use std::time::{Duration, Instant};

    /// Default target measurement time per benchmark.
    const TARGET: Duration = Duration::from_millis(300);
    /// Default number of timed samples per benchmark.
    const SAMPLES: usize = 10;
    /// Smoke-mode target (CI bit-rot check, not a measurement).
    const SMOKE_TARGET: Duration = Duration::from_millis(20);
    /// Smoke-mode sample count.
    const SMOKE_SAMPLES: usize = 3;

    /// Whether smoke mode is on (`SBC_BENCH_SMOKE` set, non-empty): CI
    /// runs the bench this way to catch bit-rot fast — the numbers are
    /// not measurements.
    fn smoke_mode() -> bool {
        std::env::var_os("SBC_BENCH_SMOKE").is_some_and(|v| !v.is_empty())
    }

    fn target() -> Duration {
        if smoke_mode() {
            SMOKE_TARGET
        } else {
            TARGET
        }
    }

    fn samples() -> usize {
        if smoke_mode() {
            SMOKE_SAMPLES
        } else {
            SAMPLES
        }
    }

    /// Statistics of one benchmark run.
    #[derive(Clone, Copy, Debug)]
    pub struct Stats {
        /// Median time per iteration (nanoseconds).
        pub median_ns: f64,
        /// Mean time per iteration (nanoseconds).
        pub mean_ns: f64,
        /// Iterations per timed sample.
        pub iters: u64,
    }

    fn fmt_ns(ns: f64) -> String {
        if ns >= 1e9 {
            format!("{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.3} µs", ns / 1e3)
        } else {
            format!("{ns:.1} ns")
        }
    }

    /// A named group of benchmarks (mirrors criterion's `benchmark_group`).
    pub struct Group {
        name: String,
    }

    impl Group {
        /// Opens a group and prints its header.
        pub fn new(name: &str) -> Self {
            println!("\n== {name} ==");
            Group {
                name: name.to_string(),
            }
        }

        /// Runs one benchmark in the group. The closure is called
        /// repeatedly; its return value is sunk through
        /// [`std::hint::black_box`] so the optimizer cannot elide the work.
        pub fn bench<T, F: FnMut() -> T>(&self, label: &str, mut f: F) -> Stats {
            let (target, n_samples) = (target(), samples());
            // Warmup + calibration: estimate a per-iteration cost, then
            // pick an iteration count that fills target/samples per sample.
            let cal_start = Instant::now();
            let mut cal_iters: u64 = 0;
            while cal_start.elapsed() < target / 10 || cal_iters == 0 {
                std::hint::black_box(f());
                cal_iters += 1;
            }
            let per_iter = cal_start.elapsed().as_nanos() as f64 / cal_iters as f64;
            let per_sample = target.as_nanos() as f64 / n_samples as f64;
            let iters = ((per_sample / per_iter).ceil() as u64).max(1);

            let mut samples = Vec::with_capacity(n_samples);
            for _ in 0..n_samples {
                let start = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
            }
            samples.sort_by(|a, b| a.total_cmp(b));
            let median_ns = samples[samples.len() / 2];
            let mean_ns = samples.iter().sum::<f64>() / samples.len() as f64;
            println!(
                "{:<40} median {:>12}   mean {:>12}   ({} iters x {} samples)",
                format!("{}/{label}", self.name),
                fmt_ns(median_ns),
                fmt_ns(mean_ns),
                iters,
                n_samples,
            );
            Stats {
                median_ns,
                mean_ns,
                iters,
            }
        }
    }

    /// Opens a benchmark group.
    pub fn group(name: &str) -> Group {
        Group::new(name)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bench_reports_plausible_stats() {
            let g = Group::new("harness-self-test");
            let s = g.bench("noop-ish", || std::hint::black_box(1u64 + 1));
            assert!(s.iters >= 1);
            assert!(s.median_ns > 0.0);
            assert!(s.mean_ns > 0.0);
        }
    }
}
