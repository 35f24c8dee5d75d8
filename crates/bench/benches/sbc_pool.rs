//! `sbc_pool_scaling`: shared-clock throughput of the instance pool as the
//! number of concurrent SBC instances grows (1 → 8 → 64), plus
//! `sbc_pool_open`: the cost of opening an instance on a long-lived pool
//! (`T ∈ {0, 1024}`).
//!
//! Each scaling iteration builds a pool, opens `k` instances, submits one
//! message per instance, and batch-steps the shared clock until every
//! instance has released. The headline metric is **instance-rounds per
//! second** — how many (instance × round) units of protocol work the pool
//! executes per wall-clock second. Every row records the `cores` the host
//! had.
//!
//! The `sbc_pool_open` group pins the `open_instance` cost at pool round
//! `T = 0` and `T = 1024`: with the O(1) clock-offset join the two must be
//! in the same ballpark (the idle-round replay makes `T = 1024` several
//! orders of magnitude slower).
//!
//! The run also writes a machine-readable `BENCH_pool.json` next to the
//! working directory (the CI smoke step archives it).

use sbc_bench::harness;
use sbc_core::pool::{PooledSbcWorld, SbcPool};
use sbc_core::worlds::{RealSbcWorld, SbcParams};

const PARTIES: usize = 4;

/// Runs one full pool cycle; returns the shared clock ticks used.
fn run_pool(instances: usize) -> u64 {
    let mut pool = SbcPool::builder(PARTIES)
        .seed(b"pool-bench")
        .build()
        .expect("valid params");
    let ids: Vec<_> = (0..instances)
        .map(|_| pool.open_instance().expect("backend builds"))
        .collect();
    for (k, id) in ids.iter().enumerate() {
        pool.submit(*id, (k % PARTIES) as u32, format!("lot-{k}").as_bytes())
            .expect("in period");
    }
    let mut released = 0usize;
    let mut rounds = 0u64;
    while released < instances {
        released += pool.step_round().expect("no invariant breaks").len();
        rounds += 1;
        assert!(rounds < 64, "pool failed to release");
    }
    rounds
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let g = harness::group("sbc_pool_scaling");
    let mut records = Vec::new();
    for instances in [1usize, 8, 64] {
        let label = format!("instances={instances}");
        let rounds = run_pool(instances);
        let stats = g.bench(&label, || run_pool(instances));
        let instance_rounds_per_sec = (instances as f64 * rounds as f64) * 1e9 / stats.median_ns;
        let rounds_per_sec = rounds as f64 * 1e9 / stats.median_ns;
        println!(
            "{:<48} {:>14.0} instance-rounds/s",
            format!("sbc_pool_scaling/{label}"),
            instance_rounds_per_sec
        );
        records.push(harness::Record {
            group: "sbc_pool_scaling".into(),
            label,
            stats,
            metrics: vec![
                ("instances".into(), instances as f64),
                ("rounds".into(), rounds as f64),
                ("rounds_per_sec".into(), rounds_per_sec),
                ("instance_rounds_per_sec".into(), instance_rounds_per_sec),
                ("cores".into(), cores as f64),
            ],
        });
    }

    // Open-instance cost on a long-lived pool: with the O(1) offset join
    // the cost at T = 1024 matches T = 0 instead of scaling with T.
    let g2 = harness::group("sbc_pool_open");
    for t in [0u64, 1024] {
        let mut world = PooledSbcWorld::<RealSbcWorld>::new(
            SbcParams::default_for(PARTIES),
            format!("pool-open-{t}").as_bytes(),
        )
        .expect("valid params");
        for _ in 0..t {
            world.tick_all();
        }
        let label = format!("T={t}");
        let stats = g2.bench(&label, || {
            let id = world.open_instance().expect("backend builds");
            world.retire(id);
            id
        });
        records.push(harness::Record {
            group: "sbc_pool_open".into(),
            label,
            stats,
            metrics: vec![
                ("pool_round".into(), t as f64),
                ("cores".into(), cores as f64),
            ],
        });
    }

    // Default target is the bench cwd (the sbc-bench package root);
    // SBC_BENCH_JSON overrides it, which CI uses to surface the artifact.
    let path = std::env::var("SBC_BENCH_JSON").unwrap_or_else(|_| "BENCH_pool.json".to_string());
    harness::write_json_report(&path, &records).expect("write BENCH_pool.json");
    println!("\nwrote {path} ({} records)", records.len());
}
