//! `sbc_party_scaling`: round throughput of ONE simultaneous-broadcast
//! instance as the party count grows (8 → 64 → 256 → 1000) on the
//! single-threaded round-level schedule (`RealSbcWorld::tick`: shared
//! release, deferred recipient-major delivery).
//!
//! Each iteration runs one full broadcast epoch (`submit` × senders,
//! `run_epoch`) on a **long-lived session**. The headline metric is
//! **rounds per second**; every row records the `cores` the host had.
//!
//! The run writes a machine-readable `BENCH_party.json` (the CI smoke step
//! archives it).

use sbc_bench::harness;
use sbc_core::api::SbcSession;

/// Cap on submitting parties: a capped sender set keeps the n = 1000
/// iterations measurable while the per-round scans — delivery replay
/// probes at every recipient, the release pipeline over every wire —
/// still dominate the round.
const SENDERS: usize = 128;

fn senders(n: usize) -> usize {
    SENDERS.min(n / 2).max(1)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let sizes: &[usize] = if harness::smoke_mode() {
        // Smoke mode is a bit-rot check, not a measurement: skip the
        // multi-second n = 1000 row.
        &[8, 64, 256]
    } else {
        &[8, 64, 256, 1000]
    };

    let g = harness::group("sbc_party_scaling");
    let mut records = Vec::new();
    for &n in sizes {
        let mut session = SbcSession::builder(n)
            .seed(b"party-bench")
            .build()
            .expect("valid params");
        let label = format!("n={n}");
        let mut rounds = 0u64;
        let stats = g.bench(&label, || {
            let start = session.round();
            for p in 0..senders(n) {
                session
                    .submit(p as u32, format!("m-{p}").as_bytes())
                    .expect("in period");
            }
            let r = session.run_epoch().expect("epoch releases");
            rounds = session.round() - start;
            r
        });
        let rounds_per_sec = rounds as f64 * 1e9 / stats.median_ns;
        println!(
            "{:<44} {:>10.0} rounds/s",
            format!("sbc_party_scaling/{label}"),
            rounds_per_sec
        );
        records.push(harness::Record {
            group: "sbc_party_scaling".into(),
            label,
            stats,
            metrics: vec![
                ("n".into(), n as f64),
                ("senders".into(), senders(n) as f64),
                ("rounds".into(), rounds as f64),
                ("rounds_per_sec".into(), rounds_per_sec),
                ("cores".into(), cores as f64),
            ],
        });
    }

    // Default target is the bench cwd (the sbc-bench package root);
    // SBC_BENCH_JSON overrides it, which CI uses to surface the artifact.
    let path = std::env::var("SBC_BENCH_JSON").unwrap_or_else(|_| "BENCH_party.json".to_string());
    harness::write_json_report(&path, &records).expect("write BENCH_party.json");
    println!("\nwrote {path} ({} records)", records.len());
}
