//! Conformance gate for the networked backend (`sbc-net`).
//!
//! The headline claim of the `NetSbcWorld` design is **transcript
//! equality at `CompareLevel::Exact`** against the in-process
//! `RealSbcWorld` — same seed, same driver schedule, byte-identical
//! leaks and outputs — even when every party-to-party wire crosses a
//! deterministic adversarial network ([`SimNet`]) injecting per-link
//! latency, reorder, duplication, and transient partitions. The tests
//! here are that gate, at three scopes:
//!
//! * single world pair, multi-epoch, adaptive corruption + injection
//!   (loopback and adversarial `SimNet`);
//! * pool pair (`PooledSbcWorld<RealSbcWorld>` vs
//!   `PooledSbcWorld<SimNetSbcWorld>`) with concurrent instances, a
//!   staggered late open, and two epochs per instance;
//! * the out-of-envelope knob — dropping a corrupted sender's wires —
//!   which deliberately *changes* received sets and therefore gets a
//!   liveness/suppression test instead of an `Exact` comparison;
//! * **real sockets** ([`TcpSbcWorld`]): the same `Exact` gate at world
//!   and pool scope with every frame crossing the OS loopback stack —
//!   including a run where every link is killed mid-epoch and the
//!   transport reconnects, still byte-identical.
//!
//! Every chaos test also asserts **non-vacuity** through
//! [`TransportStats`]: a conformance pass on a network that never
//! delayed anything would prove nothing.

use sbc_core::pool::{InstanceId, PooledSbcWorld};
use sbc_core::protocol::sbc_wire;
use sbc_core::worlds::{RealSbcWorld, SbcBackend, SbcParams};
use sbc_net::world::{LoopbackSbcWorld, NetSbcWorld, SimNetSbcWorld};
use sbc_net::{SimConfig, SimNet, TcpConfig, TcpSbcWorld, TcpTransport, TransportStats};
use sbc_primitives::drbg::Drbg;
use sbc_uc::exec::{CompareLevel, DualRun, PoolDualRun, PoolWorld, SbcWorld};
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{AdvCommand, World};

/// Builds a real/networked pair through the backend trait at `Exact`.
fn net_pair<W: SbcBackend + SbcWorld>(n: usize, seed: &[u8]) -> DualRun<RealSbcWorld, W> {
    fn backend<W: SbcBackend>(n: usize, seed: &[u8]) -> W {
        W::from_params(SbcParams::default_for(n), seed).expect("valid default params")
    }
    DualRun::new(backend(n, seed), backend(n, seed), CompareLevel::Exact)
}

/// The adversarial-broadcast recipe (`F_TLE` Insert + `F_RO` mask +
/// `SendAs` wire), expressed in dual-world driver actions.
fn inject<W: SbcWorld>(
    dual: &mut DualRun<RealSbcWorld, W>,
    rng: &mut Drbg,
    party: PartyId,
    message: &[u8],
) {
    let tau_rel = dual.release_round().expect("period open");
    let ct = Value::bytes(rng.gen_bytes(64));
    let rho = rng.gen_bytes(32);
    dual.adversary(AdvCommand::Control {
        target: "F_TLE".into(),
        cmd: Command::new(
            "Insert",
            Value::list([ct.clone(), Value::bytes(&rho), Value::U64(tau_rel)]),
        ),
    });
    let m_bytes = Value::bytes(message).encode();
    let (eta_real, eta_net) = dual.adversary(AdvCommand::Control {
        target: "F_RO".into(),
        cmd: Command::new(
            "QueryBytes",
            Value::list([Value::bytes(&rho), Value::U64(m_bytes.len() as u64)]),
        ),
    });
    assert_eq!(eta_real, eta_net, "same seed, same oracle point");
    let eta = eta_real.as_bytes().expect("mask is bytes").to_vec();
    let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
    dual.adversary(AdvCommand::SendAs {
        party,
        cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
    });
}

/// The same recipe against one instance of a pool pair (the shape of
/// `tests/pool.rs::inject`).
fn inject_pool<A: PoolWorld, B: PoolWorld>(
    dual: &mut PoolDualRun<A, B>,
    rng: &mut Drbg,
    instance: InstanceId,
    party: PartyId,
    message: &[u8],
) {
    let tau_rel = dual.release_round(instance).expect("period open");
    let ct = Value::bytes(rng.gen_bytes(64));
    let rho = rng.gen_bytes(32);
    dual.adversary(
        instance,
        AdvCommand::Control {
            target: "F_TLE".into(),
            cmd: Command::new(
                "Insert",
                Value::list([ct.clone(), Value::bytes(&rho), Value::U64(tau_rel)]),
            ),
        },
    );
    let m_bytes = Value::bytes(message).encode();
    let (eta_real, eta_net) = dual.adversary(
        instance,
        AdvCommand::Control {
            target: "F_RO".into(),
            cmd: Command::new(
                "QueryBytes",
                Value::list([Value::bytes(&rho), Value::U64(m_bytes.len() as u64)]),
            ),
        },
    );
    assert_eq!(eta_real, eta_net, "same instance seed, same oracle point");
    let eta = eta_real.as_bytes().expect("mask is bytes").to_vec();
    let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(p, q)| p ^ q).collect();
    dual.adversary(
        instance,
        AdvCommand::SendAs {
            party,
            cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
        },
    );
}

/// The shared multi-epoch adversarial scenario: honest traffic, an
/// adaptive mid-period corruption in epoch 0, then per-epoch injections,
/// leakage probes, garbage wires, and late drains.
fn drive_multi_epoch<W: SbcWorld>(dual: &mut DualRun<RealSbcWorld, W>, tag: &str) {
    let mut adv_rng = Drbg::from_seed(format!("{tag}/adversary").as_bytes());
    dual.submit(PartyId(0), b"epoch0/a");
    dual.advance_all();
    dual.submit(PartyId(1), b"epoch0/b");
    dual.corrupt(PartyId(3));
    dual.idle_rounds(9);
    assert_eq!(dual.finish_epoch().expect("epoch 0 exact"), 0);

    for epoch in 1u64..3 {
        dual.submit(PartyId(0), format!("{tag}/e{epoch}/a").as_bytes());
        dual.submit(PartyId(2), format!("{tag}/e{epoch}/c").as_bytes());
        dual.advance_all();
        dual.adversary(AdvCommand::Control {
            target: "F_TLE".into(),
            cmd: Command::new("Leakage", Value::Unit),
        });
        inject(
            dual,
            &mut adv_rng,
            PartyId(3),
            format!("{tag}/e{epoch}/evil").as_bytes(),
        );
        dual.adversary(AdvCommand::SendAs {
            party: PartyId(3),
            cmd: Command::new("Broadcast", Value::bytes(b"not a wire")),
        });
        dual.idle_rounds(10 + epoch);
        assert_eq!(dual.finish_epoch().expect("epoch exact"), epoch);
    }
}

/// `RealSbcWorld` vs the loopback networked world: the wire codec and the
/// frame-driven party machines are bit-compatible with the in-process
/// path — byte-identical transcripts across three adversarial epochs.
#[test]
fn exact_real_vs_loopback_multi_epoch() {
    let mut dual = net_pair::<LoopbackSbcWorld>(4, b"net-exact-loopback");
    drive_multi_epoch(&mut dual, "lo");
    let stats = dual.worlds().1.transport_stats();
    assert!(
        stats.sent > 0 && stats.delivered > 0,
        "frames moved: {stats:?}"
    );
    assert_eq!(stats.decode_errors, 0, "no malformed frames on this path");
}

/// The headline gate: `RealSbcWorld` vs the networked world over the
/// seeded adversarial `SimNet` schedule — latency, reorder, duplication
/// and transient partitions — still **`Exact`** across three epochs with
/// adaptive corruption and adversarial injection. The stats assertions
/// prove the schedule actually fired.
#[test]
fn exact_real_vs_simnet_adversarial_schedule() {
    let mut dual = net_pair::<SimNetSbcWorld>(4, b"net-exact-simnet");
    drive_multi_epoch(&mut dual, "sim");
    let stats = dual.worlds().1.transport_stats();
    assert!(stats.delayed > 0, "latency injected: {stats:?}");
    assert!(stats.duplicated > 0, "duplication injected: {stats:?}");
    assert!(
        stats.partition_deferrals > 0,
        "partitions exercised: {stats:?}"
    );
    assert_eq!(stats.dropped, 0, "drops stay outside the Exact envelope");
}

/// Exact conformance under a *harsher* hand-built schedule than the
/// default adversarial profile: maximum latency at the ∆ bound and
/// near-permanent partitions that only heal at the delivery deadline.
#[test]
fn exact_under_harsh_partitions_healing_at_deadline() {
    let params = SbcParams::default_for(3);
    let cfg = SimConfig {
        delta: params.delta,
        max_latency: params.delta,
        reorder: true,
        duplicate_every: 2,
        drop_from_corrupted: false,
        partition_period: 3,
        partition_len: 2,
    };
    let real = RealSbcWorld::from_params(params, b"net-harsh").expect("valid");
    let net = NetSbcWorld::<sbc_net::world::LoopbackProfile>::with_transport(
        params,
        b"net-harsh",
        Box::new(SimNet::new(params.n, cfg, b"net-harsh/schedule")),
    )
    .expect("valid");
    let mut dual = DualRun::new(real, net, CompareLevel::Exact);
    dual.submit(PartyId(0), b"harsh/a");
    dual.advance_all();
    dual.submit(PartyId(1), b"harsh/b");
    dual.submit(PartyId(2), b"harsh/c");
    dual.idle_rounds(9);
    assert_eq!(dual.finish_epoch().expect("exact under partitions"), 0);
    // Second epoch over the same (already partition-stressed) transport.
    dual.submit(PartyId(2), b"harsh/e1");
    dual.idle_rounds(9);
    assert_eq!(dual.finish_epoch().expect("exact in epoch 1"), 1);
    let stats = dual.worlds().1.transport_stats();
    assert!(
        stats.partition_deferrals > 0 && stats.delayed > 0,
        "harsh schedule fired: {stats:?}"
    );
}

/// Pool-scope acceptance gate: a real pool vs a pool of networked
/// instances over adversarial `SimNet` schedules — two-plus instances
/// (one opened mid-run on the shared clock), two epochs each, adaptive
/// global corruption, per-instance injection, `Exact` keyed transcripts
/// at every boundary.
#[test]
fn pool_exact_real_vs_simnet_multi_instance_multi_epoch() {
    type Pair = PoolDualRun<PooledSbcWorld<RealSbcWorld>, PooledSbcWorld<SimNetSbcWorld>>;
    fn backend<W: SbcBackend>(n: usize, seed: &[u8]) -> PooledSbcWorld<W> {
        PooledSbcWorld::new(SbcParams::default_for(n), seed).expect("valid default params")
    }
    let n = 4;
    let seed = b"pool-net-exact";
    let mut dual: Pair = PoolDualRun::new(backend(n, seed), backend(n, seed), CompareLevel::Exact);
    let mut adv_rng = Drbg::from_seed(b"pool-net-exact/adversary");

    let a = dual.open_instance();
    let b = dual.open_instance();

    // ---- epoch 0: honest traffic, adaptive global corruption ----
    dual.submit(a, PartyId(0), b"e0/a");
    dual.submit(b, PartyId(1), b"e0/b");
    dual.step_round();
    let (cr, ci) = dual.corrupt(PartyId(3));
    assert!(cr && ci, "corruption accepted in both pools");
    dual.submit(a, PartyId(1), b"e0/a2");
    dual.idle_rounds(9);
    assert_eq!(dual.finish_epoch(a).expect("instance a epoch 0 exact"), 0);
    assert_eq!(dual.finish_epoch(b).expect("instance b epoch 0 exact"), 0);

    // ---- a third instance opens mid-run on the shared clock ----
    let late = dual.open_instance();

    // ---- epoch 1: injections on both original instances ----
    dual.submit(a, PartyId(0), b"e1/a");
    dual.submit(b, PartyId(2), b"e1/b");
    dual.submit(late, PartyId(0), b"e1/late");
    dual.step_round();
    for (k, &id) in [a, b].iter().enumerate() {
        dual.adversary(
            id,
            AdvCommand::Control {
                target: "F_TLE".into(),
                cmd: Command::new("Leakage", Value::Unit),
            },
        );
        inject_pool(
            &mut dual,
            &mut adv_rng,
            id,
            PartyId(3),
            format!("e1/i{k}/evil").as_bytes(),
        );
    }
    dual.idle_rounds(12);
    assert_eq!(dual.finish_epoch(a).expect("instance a epoch 1 exact"), 1);
    assert_eq!(dual.finish_epoch(b).expect("instance b epoch 1 exact"), 1);
    dual.finish_epoch(late).expect("late instance exact");

    // Non-vacuity: every networked instance saw chaos.
    let (_, net_pool) = dual.worlds();
    let mut total = TransportStats::default();
    for id in [a, b, late] {
        let w = net_pool.instance_world(id).expect("instance live");
        let s = w.transport_stats();
        total.delayed += s.delayed;
        total.duplicated += s.duplicated;
        total.partition_deferrals += s.partition_deferrals;
        assert_eq!(s.dropped, 0, "no drops inside the Exact envelope");
    }
    assert!(
        total.delayed > 0,
        "latency fired across the pool: {total:?}"
    );
    assert!(total.duplicated > 0, "duplication fired: {total:?}");
}

/// Real sockets, same gate: `RealSbcWorld` vs the networked world over
/// [`TcpTransport`] — every frame crossing the OS loopback socket stack —
/// still **`Exact`** across three epochs with adaptive corruption and
/// adversarial injection. The stats prove real traffic moved and that no
/// deadline or reconnect path fired (a quiet network is byte-perfect).
#[test]
fn exact_real_vs_tcp_multi_epoch() {
    let mut dual = net_pair::<TcpSbcWorld>(4, b"net-exact-tcp");
    drive_multi_epoch(&mut dual, "tcp");
    let stats = dual.worlds().1.transport_stats();
    assert!(
        stats.sent > 0 && stats.delivered > 0 && stats.bytes > 0,
        "frames crossed the sockets: {stats:?}"
    );
    assert_eq!(stats.decode_errors, 0, "no torn frames on this path");
    assert_eq!(stats.timeouts, 0, "no deadline fired on loopback");
    assert_eq!(stats.dropped, 0, "no loss inside the Exact envelope");
}

/// The reconnect path inside the `Exact` envelope: every TCP link is
/// killed mid-frame, mid-epoch (twice, in different epochs), the
/// transport reconnects and retransmits — and the transcript is still
/// byte-identical to the in-process world.
#[test]
fn exact_real_vs_tcp_with_links_killed_mid_epoch() {
    let params = SbcParams::default_for(4);
    let transport =
        TcpTransport::local(params.n, params.delta, TcpConfig::from_delta(params.delta))
            .expect("loopback bind");
    let faults = transport.fault_handle();
    let real = RealSbcWorld::from_params(params, b"net-tcp-kill").expect("valid");
    let net = NetSbcWorld::<sbc_net::world::LoopbackProfile>::with_transport(
        params,
        b"net-tcp-kill",
        Box::new(transport),
    )
    .expect("valid");
    let mut dual = DualRun::new(real, net, CompareLevel::Exact);

    dual.submit(PartyId(0), b"kill/a");
    dual.advance_all();
    // Every link dies mid-frame on its next write; the transport must
    // reconnect and retransmit without the protocol noticing.
    faults.break_all_links();
    dual.submit(PartyId(1), b"kill/b");
    dual.submit(PartyId(2), b"kill/c");
    dual.idle_rounds(9);
    assert_eq!(dual.finish_epoch().expect("exact across link kills"), 0);

    // Epoch 1 over the already-reconnected links, with a second wave.
    dual.submit(PartyId(3), b"kill/e1");
    dual.advance_all();
    faults.break_all_links();
    dual.submit(PartyId(0), b"kill/e1b");
    dual.idle_rounds(9);
    assert_eq!(dual.finish_epoch().expect("exact in epoch 1"), 1);

    let stats = dual.worlds().1.transport_stats();
    assert!(stats.reconnects > 0, "links really died: {stats:?}");
    assert_eq!(stats.decode_errors, 0, "no torn frame decoded: {stats:?}");
    assert_eq!(stats.timeouts, 0, "reconnects, not deadlines: {stats:?}");
    assert_eq!(stats.dropped, 0, "nothing lost: {stats:?}");
}

/// Pool-scope gate over real sockets: a real pool vs a pool of TCP
/// instances — every instance its own listener and socket set — with a
/// staggered late open, adaptive global corruption, per-instance
/// injection, `Exact` keyed transcripts at every boundary.
#[test]
fn pool_exact_real_vs_tcp_multi_instance() {
    type Pair = PoolDualRun<PooledSbcWorld<RealSbcWorld>, PooledSbcWorld<TcpSbcWorld>>;
    fn backend<W: SbcBackend>(n: usize, seed: &[u8]) -> PooledSbcWorld<W> {
        PooledSbcWorld::new(SbcParams::default_for(n), seed).expect("valid default params")
    }
    let n = 4;
    let seed = b"pool-tcp-exact";
    let mut dual: Pair = PoolDualRun::new(backend(n, seed), backend(n, seed), CompareLevel::Exact);
    let mut adv_rng = Drbg::from_seed(b"pool-tcp-exact/adversary");

    let a = dual.open_instance();
    let b = dual.open_instance();

    dual.submit(a, PartyId(0), b"e0/a");
    dual.submit(b, PartyId(1), b"e0/b");
    dual.step_round();
    let (cr, ci) = dual.corrupt(PartyId(3));
    assert!(cr && ci, "corruption accepted in both pools");
    let late = dual.open_instance();
    dual.submit(late, PartyId(2), b"e0/late");
    dual.idle_rounds(9);

    // One adversarial injection against instance `a` over the sockets.
    if dual.release_round(a).is_some() {
        inject_pool(&mut dual, &mut adv_rng, a, PartyId(3), b"e0/evil");
        dual.idle_rounds(3);
    }
    assert_eq!(dual.finish_epoch(a).expect("instance a exact"), 0);
    assert_eq!(dual.finish_epoch(b).expect("instance b exact"), 0);
    dual.finish_epoch(late).expect("late instance exact");

    // Epoch 1 on one surviving instance, still over the same sockets.
    dual.submit(a, PartyId(0), b"e1/a");
    dual.idle_rounds(10);
    assert_eq!(dual.finish_epoch(a).expect("instance a epoch 1 exact"), 1);

    // Non-vacuity: every TCP instance really moved frames, cleanly.
    let (_, net_pool) = dual.worlds();
    for id in [a, b, late] {
        let w = net_pool.instance_world(id).expect("instance live");
        let s = w.transport_stats();
        assert!(s.sent > 0 && s.bytes > 0, "instance {id:?} moved: {s:?}");
        assert_eq!(s.decode_errors, 0, "no torn frames: {s:?}");
        assert_eq!(s.timeouts, 0, "no deadline fired: {s:?}");
    }
}

/// The out-of-envelope knob: `drop_from_corrupted` suppresses the data
/// plane of corrupted senders. An adversarial wire sent via a corrupted
/// party never reaches honest `rec` sets (the injected message is
/// missing from outputs), while honest traffic keeps full liveness.
#[test]
fn drop_from_corrupted_suppresses_adversarial_wires_only() {
    let params = SbcParams::default_for(3);
    let cfg = SimConfig {
        drop_from_corrupted: true,
        ..SimConfig::quiet(params.delta)
    };
    let mut w = NetSbcWorld::<sbc_net::world::LoopbackProfile>::with_transport(
        params,
        b"net-drop",
        Box::new(SimNet::new(params.n, cfg, b"net-drop/schedule")),
    )
    .expect("valid");

    w.input(
        PartyId(0),
        Command::new("Broadcast", Value::bytes(b"honest")),
    );
    w.tick();
    w.adversary(AdvCommand::Corrupt(PartyId(2)));

    // Full injection recipe against the single world.
    let tau_rel = w.release_round().expect("period open");
    let mut adv_rng = Drbg::from_seed(b"net-drop/adversary");
    let ct = Value::bytes(adv_rng.gen_bytes(64));
    let rho = adv_rng.gen_bytes(32);
    w.adversary(AdvCommand::Control {
        target: "F_TLE".into(),
        cmd: Command::new(
            "Insert",
            Value::list([ct.clone(), Value::bytes(&rho), Value::U64(tau_rel)]),
        ),
    });
    let m_bytes = Value::bytes(b"evil").encode();
    let eta = w
        .adversary(AdvCommand::Control {
            target: "F_RO".into(),
            cmd: Command::new(
                "QueryBytes",
                Value::list([Value::bytes(&rho), Value::U64(m_bytes.len() as u64)]),
            ),
        })
        .as_bytes()
        .expect("mask is bytes")
        .to_vec();
    let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(p, q)| p ^ q).collect();
    w.adversary(AdvCommand::SendAs {
        party: PartyId(2),
        cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
    });

    for _ in 0..(params.phi + params.delta + 2) {
        w.tick();
    }
    let outs = w.drain_outputs();
    assert_eq!(outs.len(), 2, "both honest parties still release");
    for (_, cmd) in &outs {
        let list = cmd.value.as_list().expect("release vector");
        assert_eq!(list, &[Value::bytes(b"honest")], "evil wire suppressed");
    }
    let stats = w.transport_stats();
    assert!(stats.dropped > 0, "the drop knob actually fired: {stats:?}");
}

/// The builder seam: the networked backends plug into the session/pool
/// API exactly like `RealSbcWorld` — `build_backend::<SimNetSbcWorld>()`
/// — and a full epoch over the adversarial network agrees with the
/// in-process result.
#[test]
fn session_builder_seam_runs_networked_backend() {
    use sbc_core::api::SbcSession;
    let mut over_real = SbcSession::builder(3)
        .seed(b"seam")
        .build()
        .expect("real session");
    let mut over_net = SbcSession::builder(3)
        .seed(b"seam")
        .build_backend::<SimNetSbcWorld>()
        .expect("networked session");
    let mut over_tcp = SbcSession::builder(3)
        .seed(b"seam")
        .build_backend::<TcpSbcWorld>()
        .expect("socket session");
    let drive = |s: &mut dyn FnMut(u32, &[u8])| {
        s(0, b"seam/a");
        s(2, b"seam/b");
    };
    drive(&mut |p, m| over_real.submit(p, m).expect("submit"));
    drive(&mut |p, m| over_net.submit(p, m).expect("submit"));
    drive(&mut |p, m| over_tcp.submit(p, m).expect("submit"));
    let r = over_real.run_epoch().expect("real epoch");
    let n = over_net.run_epoch().expect("networked epoch");
    let t = over_tcp.run_epoch().expect("socket epoch");
    assert_eq!(r.messages, n.messages);
    assert_eq!(r.release_round, n.release_round);
    assert_eq!(r.messages, t.messages);
    assert_eq!(r.release_round, t.release_round);
    assert_eq!(r.messages, vec![b"seam/a".to_vec(), b"seam/b".to_vec()]);
}
