//! `sbc_net`: throughput of the networked backend — every protocol
//! message encoded to wire frames and moved by a `Transport` — against
//! the in-process world, at n ∈ {8, 64} parties.
//!
//! Three groups:
//!
//! * `sbc_net_codec` — raw frame encode/decode throughput on a
//!   representative wire frame (the `(c, τ_rel, y)` broadcast).
//! * `sbc_net_world` — full periods (submit → release) on the
//!   in-process `RealSbcWorld`, the loopback networked world, the
//!   adversarial `SimNet` world, and (at n=8) the real-socket TCP world.
//!   The headline metric is party-rounds per second; the networked rows
//!   also record frames and bytes moved.
//!
//! **Determinism gates:** before measuring anything, the run drives a
//! real/networked pair at `CompareLevel::Exact` through an adversarial
//! scenario (corruption + injection + the seeded SimNet chaos schedule)
//! and exits non-zero on any transcript divergence — the CI smoke step
//! therefore fails if the networked backend ever drifts from the
//! in-process world. A second gate pins the TCP transport the same way
//! over OS loopback sockets at n=8. Both verdicts are recorded in the
//! JSON report.
//!
//! The run writes `BENCH_net.json` (`SBC_BENCH_JSON` overrides the
//! path), which CI archives next to the pool and e2e reports.

use sbc_bench::harness;
use sbc_core::protocol::sbc_wire;
use sbc_core::worlds::{RealSbcWorld, SbcBackend, SbcParams};
use sbc_net::world::{LoopbackSbcWorld, SimNetSbcWorld};
use sbc_net::TcpSbcWorld;
use sbc_net::{Endpoint, Frame, FrameKind, TransportStats};
use sbc_primitives::drbg::Drbg;
use sbc_uc::exec::{CompareLevel, DualRun, SbcWorld};
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::AdvCommand;

/// One full period on any backend: three submissions, tick to release.
/// Returns the rounds consumed (constant across backends by design).
fn run_period<W: SbcBackend + SbcWorld>(n: usize, seed: &[u8]) -> (u64, W) {
    let params = SbcParams::default_for(n);
    let mut w = W::from_params(params, seed).expect("valid default params");
    w.input(
        PartyId(0),
        Command::new("Broadcast", Value::bytes(b"bench/a")),
    );
    w.tick();
    w.input(
        PartyId(1),
        Command::new("Broadcast", Value::bytes(b"bench/b")),
    );
    w.input(
        PartyId((n - 1) as u32),
        Command::new("Broadcast", Value::bytes(b"bench/c")),
    );
    let rounds = params.phi + params.delta + 2;
    for _ in 0..rounds {
        w.tick();
    }
    let outs = w.drain_outputs();
    assert_eq!(outs.len(), n, "every party releases");
    (1 + rounds, w)
}

/// The determinism gate: `Exact` transcripts, adversarial schedule,
/// adaptive corruption, injected broadcast. Panics (non-zero exit) on
/// divergence.
fn determinism_gate(n: usize) {
    let params = SbcParams::default_for(n);
    let seed = b"net-bench-gate";
    let real = RealSbcWorld::from_params(params, seed).expect("valid");
    let net = SimNetSbcWorld::from_params(params, seed).expect("valid");
    let mut dual = DualRun::new(real, net, CompareLevel::Exact);
    let mut adv_rng = Drbg::from_seed(b"net-bench-gate/adversary");

    dual.submit(PartyId(0), b"gate/a");
    dual.advance_all();
    dual.corrupt(PartyId(1));
    dual.submit(PartyId(2), b"gate/b");
    // Adversarial injection through the corrupted party.
    let tau_rel = dual.release_round().expect("period open");
    let ct = Value::bytes(adv_rng.gen_bytes(64));
    let rho = adv_rng.gen_bytes(32);
    dual.adversary(AdvCommand::Control {
        target: "F_TLE".into(),
        cmd: Command::new(
            "Insert",
            Value::list([ct.clone(), Value::bytes(&rho), Value::U64(tau_rel)]),
        ),
    });
    let m_bytes = Value::bytes(b"gate/evil").encode();
    let (eta, _) = dual.adversary(AdvCommand::Control {
        target: "F_RO".into(),
        cmd: Command::new(
            "QueryBytes",
            Value::list([Value::bytes(&rho), Value::U64(m_bytes.len() as u64)]),
        ),
    });
    let eta = eta.as_bytes().expect("mask is bytes").to_vec();
    let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
    dual.adversary(AdvCommand::SendAs {
        party: PartyId(1),
        cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
    });
    dual.idle_rounds(10);
    dual.finish_epoch().unwrap_or_else(|d| {
        panic!("networked backend diverged from the in-process world at n={n}: {d}")
    });
    // Second epoch: the gate covers period turnover too.
    dual.submit(PartyId(0), b"gate/e1");
    dual.idle_rounds(9);
    dual.finish_epoch()
        .unwrap_or_else(|d| panic!("divergence in epoch 1 at n={n}: {d}"));
    let stats = dual.worlds().1.transport_stats();
    assert!(
        stats.delayed > 0 && stats.duplicated > 0,
        "gate chaos schedule fired: {stats:?}"
    );
}

/// The TCP determinism gate: the same Exact transcript demand, but with
/// every frame crossing OS loopback sockets. Kept at n=8 — the point is
/// conformance over real sockets, not socket-count scaling.
fn tcp_gate(n: usize) {
    let params = SbcParams::default_for(n);
    let seed = b"net-bench-tcp-gate";
    let real = RealSbcWorld::from_params(params, seed).expect("valid");
    let tcp = TcpSbcWorld::from_params(params, seed).expect("tcp backend binds");
    let mut dual = DualRun::new(real, tcp, CompareLevel::Exact);
    dual.submit(PartyId(0), b"gate/a");
    dual.advance_all();
    dual.corrupt(PartyId(1));
    dual.submit(PartyId(2), b"gate/b");
    dual.idle_rounds(10);
    dual.finish_epoch()
        .unwrap_or_else(|d| panic!("TCP backend diverged from the in-process world at n={n}: {d}"));
    dual.submit(PartyId(3), b"gate/e1");
    dual.idle_rounds(9);
    dual.finish_epoch()
        .unwrap_or_else(|d| panic!("TCP divergence in epoch 1 at n={n}: {d}"));
    let stats = dual.worlds().1.transport_stats();
    assert!(
        stats.delivered > 0 && stats.bytes > 0,
        "frames crossed sockets"
    );
    assert_eq!(stats.decode_errors, 0, "clean framing on every lane");
    assert_eq!(stats.timeouts, 0, "no deadline concessions on loopback");
}

fn main() {
    // ---- determinism gates (before any measurement) ----
    for n in [8usize, 64] {
        determinism_gate(n);
    }
    println!("determinism gate: networked transcripts == in-process at Exact (n=8 and n=64)");
    tcp_gate(8);
    println!("tcp gate: real-socket transcripts == in-process at Exact (n=8)");

    let mut records = Vec::new();

    // ---- codec throughput ----
    let g = harness::group("sbc_net_codec");
    let mut rng = Drbg::from_seed(b"net-bench/codec");
    let wire = Frame {
        from: Endpoint::Host,
        to: Endpoint::Party(3),
        sent_at: 4,
        kind: FrameKind::Deliver {
            origin: 1,
            payload: sbc_wire(&Value::bytes(rng.gen_bytes(64)), 5, &rng.gen_bytes(48)),
        },
    };
    let encoded = wire.encode();
    let stats = g.bench("encode/wire", || wire.encode());
    let frame_bytes = encoded.len();
    records.push(harness::Record {
        group: "sbc_net_codec".into(),
        label: "encode/wire".into(),
        metrics: vec![
            ("frame_bytes".into(), frame_bytes as f64),
            ("frames_per_sec".into(), 1e9 / stats.median_ns),
        ],
        stats,
    });
    let stats = g.bench("decode/wire", || Frame::decode(&encoded).expect("valid"));
    records.push(harness::Record {
        group: "sbc_net_codec".into(),
        label: "decode/wire".into(),
        metrics: vec![
            ("frame_bytes".into(), frame_bytes as f64),
            ("frames_per_sec".into(), 1e9 / stats.median_ns),
        ],
        stats,
    });

    // ---- world throughput: in-process vs loopback vs SimNet ----
    let g = harness::group("sbc_net_world");
    for n in [8usize, 64] {
        // The in-process reference row.
        let label = format!("n={n}/in-process");
        let (rounds, _) = run_period::<RealSbcWorld>(n, b"net-bench/world");
        let stats = g.bench(&label, || run_period::<RealSbcWorld>(n, b"net-bench/world"));
        let party_rounds_per_sec = (n as f64 * rounds as f64) * 1e9 / stats.median_ns;
        println!(
            "{:<40} {:>14.0} party-rounds/s",
            format!("sbc_net_world/{label}"),
            party_rounds_per_sec
        );
        records.push(harness::Record {
            group: "sbc_net_world".into(),
            label,
            metrics: vec![
                ("parties".into(), n as f64),
                ("rounds".into(), rounds as f64),
                ("party_rounds_per_sec".into(), party_rounds_per_sec),
            ],
            stats,
        });

        // The two networked rows, with transport traffic recorded.
        let mut rows: Vec<(&str, TransportStats, u64, harness::Stats)> = Vec::new();
        {
            let (rounds, w) = run_period::<LoopbackSbcWorld>(n, b"net-bench/world");
            let stats = g.bench(&format!("n={n}/loopback"), || {
                run_period::<LoopbackSbcWorld>(n, b"net-bench/world")
            });
            rows.push(("loopback", w.transport_stats(), rounds, stats));
        }
        {
            let (rounds, w) = run_period::<SimNetSbcWorld>(n, b"net-bench/world");
            let stats = g.bench(&format!("n={n}/simnet"), || {
                run_period::<SimNetSbcWorld>(n, b"net-bench/world")
            });
            rows.push(("simnet", w.transport_stats(), rounds, stats));
        }
        if n == 8 {
            // Real sockets measured at n=8 only: each period brings up
            // (and tears down) 1 + 2n loopback connections, so larger n
            // measures the OS accept path, not the protocol.
            let (rounds, w) = run_period::<TcpSbcWorld>(n, b"net-bench/world");
            let stats = g.bench(&format!("n={n}/tcp"), || {
                run_period::<TcpSbcWorld>(n, b"net-bench/world")
            });
            rows.push(("tcp", w.transport_stats(), rounds, stats));
        }
        for (name, t, rounds, stats) in rows {
            let label = format!("n={n}/{name}");
            let party_rounds_per_sec = (n as f64 * rounds as f64) * 1e9 / stats.median_ns;
            let frames_per_period = t.delivered as f64;
            println!(
                "{:<40} {:>14.0} party-rounds/s  ({} frames, {} wire bytes)",
                format!("sbc_net_world/{label}"),
                party_rounds_per_sec,
                t.delivered,
                t.bytes
            );
            records.push(harness::Record {
                group: "sbc_net_world".into(),
                label,
                metrics: vec![
                    ("parties".into(), n as f64),
                    ("rounds".into(), rounds as f64),
                    ("party_rounds_per_sec".into(), party_rounds_per_sec),
                    ("frames_per_period".into(), frames_per_period),
                    ("wire_bytes_per_period".into(), t.bytes as f64),
                    ("frames_delayed".into(), t.delayed as f64),
                    ("frames_duplicated".into(), t.duplicated as f64),
                ],
                stats,
            });
        }
    }

    // The gate verdicts travel with the report: 1.0 means the Exact
    // comparison passed for every gated n (reaching this line proves it —
    // a divergence panics above).
    records.push(harness::Record {
        group: "sbc_net_gate".into(),
        label: "exact-conformance".into(),
        stats: harness::Stats {
            median_ns: 0.0,
            mean_ns: 0.0,
            iters: 0,
        },
        metrics: vec![
            ("gate_exact_passed".into(), 1.0),
            ("gated_n_min".into(), 8.0),
            ("gated_n_max".into(), 64.0),
        ],
    });
    records.push(harness::Record {
        group: "sbc_net_gate".into(),
        label: "tcp-exact-conformance".into(),
        stats: harness::Stats {
            median_ns: 0.0,
            mean_ns: 0.0,
            iters: 0,
        },
        metrics: vec![
            ("gate_tcp_exact_passed".into(), 1.0),
            ("gated_n".into(), 8.0),
        ],
    });

    // Every row records the `cores` the host had, like the other reports.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    for r in &mut records {
        r.metrics.push(("cores".into(), cores as f64));
    }
    let path = std::env::var("SBC_BENCH_JSON").unwrap_or_else(|_| "BENCH_net.json".to_string());
    harness::write_json_report(&path, &records).expect("write BENCH_net.json");
    println!("\nwrote {path} ({} records)", records.len());
}
