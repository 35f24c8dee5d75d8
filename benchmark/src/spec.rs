//! What the benchmark runs and what it reports: the five workloads and
//! the names and units of every metric. Directions and regression bounds
//! live in `BENCHMARK.json` only (`compare` reads them from there); a
//! unit test keeps the two lists equal.

use sbc_service::{CheckpointEvery, LoadProfile, ServiceConfig, ServiceMode};

/// The default `--seed`.
pub const DEFAULT_SEED: &str = "sbc-benchmark-v1";

/// Each cycle's snapshot/restore drill happens just before this tick's
/// submissions; the restored twin then runs in lockstep for
/// [`LOCKSTEP_TICKS`] ticks.
pub const DRILL_TICK: u64 = 8;
/// Φ + ∆ + 1 rounds: long enough for every instance that was in flight
/// at the drill to release on both sides.
pub const LOCKSTEP_TICKS: u64 = 6;
/// Networked workloads replay their first submissions through an
/// in-process service during set-up and demand the same records.
pub const REFERENCE_SUBMISSIONS: u64 = 1024;

/// Which `SbcBackend` the service runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Real,
    Loopback,
    Tcp,
}

/// One workload: a service shape and the load played against it.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub backend: Backend,
    pub n: usize,
    pub mode: ServiceMode,
    pub batch_size: usize,
    pub max_live: usize,
    pub per_tick: usize,
    pub payload_len: usize,
    /// `LoadProfile::beacon`'s 5 % interactive / 25 % batch class mix;
    /// otherwise every submission is `Standard`.
    pub class_mix: bool,
    /// `checkpoint_every { journal_ops }`, when the policy is armed.
    pub checkpoint_ops: Option<u64>,
    /// Bursts per repeat; after each the service is ticked to quiescence.
    pub cycles: u64,
    /// Submissions per burst.
    pub per_cycle: u64,
}

impl Workload {
    /// Submissions one repeat attempts.
    pub fn submissions(&self) -> u64 {
        self.cycles * self.per_cycle
    }

    /// `--smoke`: a tenth of the submissions, every check still on.
    pub fn smoke(mut self) -> Workload {
        if self.cycles > 1 {
            self.cycles = (self.cycles / 10).max(1);
        } else {
            self.per_cycle /= 10;
        }
        self
    }

    pub fn load_profile(&self) -> LoadProfile {
        let mut p = LoadProfile::beacon(self.submissions(), self.per_tick);
        p.payload_len = self.payload_len;
        if !self.class_mix {
            p.interactive_pct = 0;
            p.batch_pct = 0;
        }
        p
    }

    pub fn service_config(&self, seed: &str) -> ServiceConfig {
        let cfg = ServiceConfig::new(self.n, self.mode)
            .seed(format!("{seed}/{}/service", self.name).as_bytes())
            .batch_size(self.batch_size)
            .max_live(self.max_live);
        match self.checkpoint_ops {
            Some(journal_ops) => cfg.checkpoint_every(CheckpointEvery {
                eras: 0,
                journal_ops,
            }),
            None => cfg,
        }
    }

    /// Seed of the load generator.
    pub fn load_seed(&self, seed: &str) -> Vec<u8> {
        format!("{seed}/{}/load", self.name).into_bytes()
    }
}

/// The five workloads, in the order `run-all` runs them.
pub fn workloads() -> Vec<Workload> {
    let base = Workload {
        name: "",
        why: "",
        backend: Backend::Real,
        n: 4,
        mode: ServiceMode::Beacon,
        batch_size: 64,
        max_live: 64,
        per_tick: 256,
        payload_len: 32,
        class_mix: true,
        checkpoint_ops: None,
        cycles: 1,
        per_cycle: 0,
    };
    vec![
        Workload {
            name: "beacon_small",
            why: "Many tiny in-process instances (n=4, 64 x 32 B): service queues/journal and pool open/finish/prune churn dominate; sustained load, so the armed checkpoint policy never finds a boundary.",
            checkpoint_ops: Some(4096),
            per_cycle: 30_720,
            ..base.clone()
        },
        Workload {
            name: "auction_wide",
            why: "One heavy in-process instance per tick (n=256, 256 x 8 B bids): world delivery fan-out, the shared release plan, F_TLE Dec probes and F_RO masks dominate; service and pool bookkeeping are noise.",
            n: 256,
            mode: ServiceMode::Auction,
            batch_size: 256,
            max_live: 8,
            payload_len: 8,
            class_mix: false,
            per_cycle: 10_240,
            ..base.clone()
        },
        Workload {
            name: "beacon_tcp",
            why: "Service over real TcpTransport sockets (n=8, small frames): per-frame codec, syscalls, lane bring-up per instance and rpc round-trips dominate, so a core-only gain is diluted here.",
            backend: Backend::Tcp,
            n: 8,
            per_tick: 128,
            per_cycle: 4_096,
            ..base.clone()
        },
        Workload {
            name: "bulk_loopback",
            why: "Same frame count as beacon_tcp but no sockets and 4096 B payloads: per-byte work (SHA-256, F_RO mask expansion, Value and frame copies) dominates, so a per-message win that costs per byte shows.",
            backend: Backend::Loopback,
            n: 8,
            per_tick: 128,
            payload_len: 4096,
            class_mix: false,
            per_cycle: 2_560,
            ..base.clone()
        },
        Workload {
            name: "burst_restore",
            why: "Bursts with quiet gaps and a snapshot+restore drill in each: the service used for writing and recovering beside serving; era folds land, so image size and replay length are bounded.",
            checkpoint_ops: Some(1024),
            cycles: 10,
            per_cycle: 4_096,
            ..base
        },
    ]
}

pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// End-to-end metrics, `(name, unit)`: what `--trace 0` reports, for
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("submissions_per_s", "1/s"),
    ("release_latency_p50_ms", "ms"),
    ("release_latency_p99_ms", "ms"),
    ("tick_p90_ms", "ms"),
    ("release_latency_p99_rounds", "rounds"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("restore_p50_ms", "ms"),
    ("snapshot_p50_ms", "ms"),
    ("snapshot_bytes", "bytes"),
];

/// Per-layer metrics, `(name, unit)`: what `--trace 1` reports.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.submit_us_per_sub", "us"),
    ("service.tick_us_per_sub", "us"),
    ("service.drain_us_per_sub", "us"),
    ("service.self_us_per_sub", "us"),
    ("service.ticks", "count"),
    ("service.opened", "count"),
    ("service.fill_ratio", "ratio"),
    ("service.deferred", "count"),
    ("service.peak_live", "count"),
    ("service.peak_queue", "count"),
    ("service.leak_overflow_per_sub", "count"),
    ("service.journal_ops_end", "count"),
    ("service.auto_folds", "count"),
    ("service.snapshot_us_per_op", "us"),
    ("service.restore_us_per_op", "us"),
    ("service.restore_replayed_ops", "count"),
    ("core.pool.open_us_per_instance", "us"),
    ("core.pool.submit_us_per_sub", "us"),
    ("core.pool.step_us_per_sub", "us"),
    ("core.pool.finish_prune_us_per_instance", "us"),
    ("core.pool.self_us_per_sub", "us"),
    ("core.pool.instance_rounds", "count"),
    ("core.worlds.new_us_per_instance", "us"),
    ("core.worlds.input_us_per_sub", "us"),
    ("core.worlds.tick_submit_round_us", "us"),
    ("core.worlds.tick_idle_round_us", "us"),
    ("core.worlds.tick_release_round_us", "us"),
    ("core.worlds.us_per_sub", "us"),
    ("core.worlds.party_rounds_per_s", "1/s"),
    ("net.world.us_per_sub", "us"),
    ("net.world.overhead_ratio", "ratio"),
    ("net.world.frames_per_sub", "count"),
    ("net.world.wire_bytes_per_sub", "bytes"),
    ("net.transport.loopback_us_per_frame", "us"),
    ("net.tcp.us_per_frame", "us"),
    ("net.tcp.lane_setup_us_per_instance", "us"),
    ("net.tcp.timeouts", "count"),
    ("net.tcp.reconnects", "count"),
    ("net.codec.encode_ns_per_frame", "ns"),
    ("net.codec.decode_ns_per_frame", "ns"),
    ("net.codec.frame_bytes", "bytes"),
    ("tle.enc_us", "us"),
    ("tle.dec_probe_us", "us"),
    ("uc.ro_query_fresh_ns", "ns"),
    ("uc.ro_query_memo_ns", "ns"),
    ("uc.ro_mask_mb_per_s", "MB/s"),
    ("uc.value_encode_ns", "ns"),
    ("uc.value_decode_ns", "ns"),
    ("broadcast.ubc_cast_flush_us", "us"),
    ("primitives.sha256_64b_ns", "ns"),
    ("primitives.sha256_mb_per_s", "MB/s"),
    ("primitives.drbg_mb_per_s", "MB/s"),
    ("harness.trace_overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is the contract the driver reads; this crate is
    /// what answers it. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let pairs = |key: &str, a: &str, b: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field(a), field(b))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "name", "unit"), owned(END_TO_END));
        assert_eq!(pairs("per_layer", "name", "unit"), owned(PER_LAYER));
        // The driver's time budget buys long enough runs for three
        // workloads; the other two are run by `run.sh` alone.
        let listed: Vec<(&str, &str)> = workloads()
            .iter()
            .filter(|w| !["beacon_tcp", "burst_restore"].contains(&w.name))
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(pairs("workloads", "name", "why"), owned(&listed));
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr),
            Some(&[Json::str("benchmark")][..])
        );
    }

    #[test]
    fn smoke_is_a_tenth() {
        for w in workloads() {
            let full = w.submissions();
            let smoke = w.clone().smoke().submissions();
            assert!(
                smoke * 10 <= full + 9 && smoke > 0,
                "{}: {smoke} of {full}",
                w.name
            );
            assert!(w.why.len() <= 200, "{}: why too long", w.name);
        }
    }
}
