//! The layer ladder under the service: rungs 2–5 of the traced run.
//!
//! Every rung runs at the workload's operating point (same backend, n,
//! Φ/∆, batch, payload length) and times only public calls:
//!
//! 2. pool — the `open_instance`/`submit`/`step_round`/`finish`/`prune`
//!    sequence the service performed, replayed on a bare `SbcPool`;
//! 3. world — bare worlds, one instance at a time;
//! 4. transport and codec — frames through a bare `Loopback` and a bare
//!    `TcpTransport`, and `Frame::encode`/`decode`;
//! 5. functionalities and primitives — `F_TLE`, `F_RO`, `F_UBC`, `Value`,
//!    SHA-256 and the DRBG.
//!
//! A layer's self time is its rung minus the rung below, both per
//! released submission.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sbc_broadcast::ubc::func::UbcFunc;
use sbc_core::api::SbcError;
use sbc_core::pool::{InstanceId, PoolFootprint, SbcPool};
use sbc_core::protocol::sbc_wire;
use sbc_core::worlds::{RealSbcWorld, SbcBackend, SbcParams};
use sbc_net::world::NetProfile;
use sbc_net::{
    Endpoint, Frame, FrameKind, Loopback, NetSbcWorld, TcpConfig, TcpTransport, Transport,
    TransportStats,
};
use sbc_primitives::drbg::Drbg;
use sbc_primitives::sha256::Sha256;
use sbc_tle::func::TleFunc;
use sbc_uc::clock::GlobalClock;
use sbc_uc::corruption::CorruptionTracker;
use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::PartyId;
use sbc_uc::ro::{Caller, RandomOracle};
use sbc_uc::value::{Command, Value};

use crate::driver::{Load, Repeat};
use crate::spec::Workload;
use crate::trace::Recorder;

/// A backend the world rung can ask for its transport counters.
pub trait Probe: SbcBackend {
    fn transport_stats(&self) -> Option<TransportStats> {
        None
    }
}

impl Probe for RealSbcWorld {}

impl<P: NetProfile> Probe for NetSbcWorld<P> {
    fn transport_stats(&self) -> Option<TransportStats> {
        Some(NetSbcWorld::transport_stats(self))
    }
}

/// What the pool rung did and what it cost.
#[derive(Debug, Default)]
pub struct PoolRung {
    pub instances: u64,
    pub messages: u64,
    /// Live instances summed over ticks: the protocol rounds executed.
    pub instance_rounds: u64,
    pub open_s: f64,
    pub submit_s: f64,
    pub step_s: f64,
    pub finish_prune_s: f64,
}

impl PoolRung {
    pub fn busy_s(&self) -> f64 {
        self.open_s + self.submit_s + self.step_s + self.finish_prune_s
    }
}

/// Rung 2: replays on a bare pool exactly the admissions the service
/// made — the same payloads into the same instances on the same ticks —
/// so the two rungs finish the same instances and release the same
/// messages, and their difference is the service's own work.
pub fn pool_rung<W: SbcBackend>(
    w: &Workload,
    seed: &str,
    load: &Load,
    service: &Repeat,
    rec: &mut Recorder,
) -> Result<PoolRung, String> {
    let cfg = w.service_config(seed);
    let mut builder = SbcPool::builder(cfg.params.n)
        .phi(cfg.params.phi)
        .delta(cfg.params.delta)
        .tle_alpha(cfg.params.tle_alpha)
        .tle_delay(cfg.params.tle_delay)
        .seed(&cfg.seed)
        .capture_leaks();
    if let Some(cap) = cfg.leak_cap {
        builder = builder.leak_cap(cap);
    }
    let mut pool = builder
        .build_backend::<W>()
        .map_err(|e| format!("pool rung: {e}"))?;
    let fail = |e: SbcError| format!("pool rung: {e}");

    let mut rung = PoolRung::default();
    let mut order = service.admission_order.iter();
    let mut window: Option<(InstanceId, usize)> = None;
    let mut admitted = 0u64;
    for (tick, &target) in service.admitted_after_tick.iter().enumerate() {
        let tick = tick as u32;
        rec.enter("core.pool.tick", tick);
        while admitted < target {
            let ticket = *order.next().ok_or("pool rung: admission order ran out")?;
            let payload = &load.payloads[ticket as usize];
            loop {
                let (id, filled) = match window {
                    Some(open) if open.1 < w.batch_size => open,
                    _ => {
                        let (id, s) =
                            rec.time("core.pool.open_instance", tick, || pool.open_instance());
                        rung.open_s += s;
                        (id.map_err(fail)?, 0)
                    }
                };
                let party = (filled % w.n) as u32;
                let (sent, s) =
                    rec.time("core.pool.submit", tick, || pool.submit(id, party, payload));
                rung.submit_s += s;
                match sent {
                    Ok(()) => {
                        window = Some((id, filled + 1));
                        break;
                    }
                    // The window's period closed under it: the service
                    // defers the submission into a fresh instance.
                    Err(SbcError::SubmitAfterClose { .. }) => window = None,
                    Err(e) => return Err(fail(e)),
                }
            }
            admitted += 1;
        }
        rung.instance_rounds += pool.live_instances().len() as u64;
        let (releases, s) = rec.time("core.pool.step_round", tick, || pool.step_round());
        rung.step_s += s;
        for (id, result) in releases.map_err(fail)? {
            if window.map(|(open, _)| open) == Some(id) {
                window = None;
            }
            let (done, s) = rec.time("core.pool.finish_prune", tick, || {
                pool.finish(id)?;
                pool.leak_overflow(id)?;
                pool.prune(id)
            });
            rung.finish_prune_s += s;
            done.map_err(fail)?;
            rung.instances += 1;
            rung.messages += result.messages.len() as u64;
        }
        rec.exit();
    }
    if pool.footprint() != PoolFootprint::default() {
        return Err(format!(
            "pool rung: footprint not flat: {:?}",
            pool.footprint()
        ));
    }
    Ok(rung)
}

/// What the world rung did and what it cost.
#[derive(Debug, Default)]
pub struct WorldRung {
    pub instances: u64,
    pub submissions: u64,
    pub new_s: f64,
    pub input_s: f64,
    /// Rounds in which parties wake, encrypt, and cast their wires.
    pub submit_round_s: f64,
    pub submit_rounds: u64,
    pub idle_round_s: f64,
    pub idle_rounds: u64,
    pub release_round_s: f64,
    pub release_rounds: u64,
    pub transport: TransportStats,
}

impl WorldRung {
    pub fn tick_s(&self) -> f64 {
        self.submit_round_s + self.idle_round_s + self.release_round_s
    }

    pub fn total_s(&self) -> f64 {
        self.new_s + self.input_s + self.tick_s()
    }

    pub fn us_per_sub(&self) -> f64 {
        self.total_s() * 1e6 / self.submissions as f64
    }
}

/// Rung 3: bare worlds, one instance at a time — `from_params`, a full
/// batch of inputs (party = index mod n), ticks up to the release round,
/// `drain_outputs`. Runs `instances` instances, or fewer once `budget`
/// is spent (at least one).
pub fn world_rung<W: Probe>(
    w: &Workload,
    seed: &str,
    load: &Load,
    instances: u64,
    budget: Duration,
    span: &'static str,
    rec: &mut Recorder,
) -> Result<WorldRung, String> {
    let params = SbcParams::default_for(w.n);
    let started = Instant::now();
    let mut rung = WorldRung::default();
    for i in 0..instances {
        if i >= 1 && started.elapsed() >= budget {
            break;
        }
        let request = i as u32;
        rec.enter(span, request);
        let world_seed = format!("{seed}/{}/world/{i}", w.name);
        let (world, s) = rec.time("world.from_params", request, || {
            W::from_params(params, world_seed.as_bytes())
        });
        rung.new_s += s;
        let mut world = world.map_err(|e| format!("world rung: {e}"))?;
        let first = (i as usize * w.batch_size) % load.payloads.len();
        let ((), s) = rec.time("world.input", request, || {
            for k in 0..w.batch_size {
                let payload = &load.payloads[(first + k) % load.payloads.len()];
                world.input(
                    PartyId((k % w.n) as u32),
                    Command::new("Broadcast", Value::bytes(payload)),
                );
            }
        });
        rung.input_s += s;
        // Round 0 wakes the parties up and fixes τ_rel; the release
        // happens in the tick taken at clock τ_rel.
        loop {
            let now = world.time();
            let releasing = world.release_round() == Some(now);
            let ((), s) = rec.time("world.tick", request, || world.tick());
            if releasing {
                rung.release_round_s += s;
                rung.release_rounds += 1;
                break;
            } else if now <= params.tle_delay {
                rung.submit_round_s += s;
                rung.submit_rounds += 1;
            } else {
                rung.idle_round_s += s;
                rung.idle_rounds += 1;
            }
            if now > params.phi + params.delta + 2 {
                return Err("world rung: no release round".into());
            }
        }
        let outputs = world.drain_outputs();
        if outputs.len() != w.n {
            return Err(format!(
                "world rung: {} of {} parties released",
                outputs.len(),
                w.n
            ));
        }
        if let Some(t) = world.transport_stats() {
            rung.transport.sent += t.sent;
            rung.transport.delivered += t.delivered;
            rung.transport.bytes += t.bytes;
            rung.transport.timeouts += t.timeouts;
            rung.transport.reconnects += t.reconnects;
        }
        rec.exit();
        rung.instances += 1;
        rung.submissions += w.batch_size as u64;
    }
    Ok(rung)
}

/// One micro-benchmark: calls `op` (with a running index) until `budget`
/// is spent, under a span named `name`; returns nanoseconds per call.
fn micro(rec: &mut Recorder, budget: Duration, name: &'static str, mut op: impl FnMut(u64)) -> f64 {
    let (ns, _) = rec.time(name, 0, || {
        let start = Instant::now();
        let mut calls = 0u64;
        loop {
            for _ in 0..32 {
                op(calls);
                calls += 1;
            }
            let spent = start.elapsed();
            if spent >= budget {
                return spent.as_nanos() as f64 / calls as f64;
            }
        }
    });
    ns
}

/// The `(c, τ_rel, y)` wire a party casts for one `len`-byte payload.
fn wire_value(rng: &mut Drbg, len: usize, tau: u64) -> Value {
    let y = Value::bytes(rng.gen_bytes(len)).encode();
    sbc_wire(&Value::bytes(rng.gen_bytes(64)), tau, &y)
}

/// A data-plane frame to `party` whose encoding is about `bytes` long.
fn data_frame(rng: &mut Drbg, party: u32, bytes: usize) -> Vec<u8> {
    let frame = |y_len: usize, rng: &mut Drbg| Frame {
        from: Endpoint::Host,
        to: Endpoint::Party(party),
        sent_at: 1,
        kind: FrameKind::Deliver {
            origin: 0,
            payload: sbc_wire(
                &Value::bytes(rng.gen_bytes(64)),
                1_000,
                &rng.gen_bytes(y_len),
            ),
        },
    };
    let overhead = frame(0, rng).encode().len();
    frame(bytes.saturating_sub(overhead), rng).encode()
}

/// Pushes data frames through a transport the way a world round does:
/// one send per party, then one receive per party. Returns µs per frame.
fn transport_us_per_frame(
    t: &mut dyn Transport,
    frames: &[Vec<u8>],
    budget: Duration,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut moved = 0u64;
    while start.elapsed() < budget {
        for f in frames {
            t.send(f.clone(), 1)
                .map_err(|e| format!("transport rung: {e}"))?;
        }
        for p in 0..frames.len() as u32 {
            moved += t.recv_data(p, 1).len() as u64;
        }
    }
    if moved == 0 {
        return Err("transport rung: no frame was delivered".into());
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / moved as f64)
}

/// What rungs 4 and 5 report, by metric name.
pub type Metrics = Vec<(&'static str, f64)>;

/// Parties the bare-transport rung opens lanes for, at most: the cost of
/// a frame does not depend on n, and a socket pair per lane for hundreds
/// of parties would run the process out of descriptors.
const TRANSPORT_RUNG_PARTIES: usize = 16;

/// Rung 4: the bare transports and the codec. `mean_frame_bytes` is what
/// the world rung counted on the wire; each transport moves frames for
/// `budget`, each codec direction runs for a quarter of it.
pub fn transport_rung(
    w: &Workload,
    mean_frame_bytes: usize,
    budget: Duration,
    rec: &mut Recorder,
) -> Result<Metrics, String> {
    let n = w.n.min(TRANSPORT_RUNG_PARTIES);
    let params = SbcParams::default_for(n);
    let mut rng = Drbg::from_seed(b"sbc-benchmark/transport-rung");
    let frames: Vec<Vec<u8>> = (0..n as u32)
        .map(|p| data_frame(&mut rng, p, mean_frame_bytes))
        .collect();
    let mut out = Metrics::new();

    let (loopback, _) = rec.time("net.transport.loopback", 0, || {
        transport_us_per_frame(&mut Loopback::new(n, params.delta), &frames, budget)
    });
    out.push(("net.transport.loopback_us_per_frame", loopback?));

    let tcp_config = TcpConfig::from_delta(params.delta);
    let bind = |what: &str| {
        TcpTransport::local(n, params.delta, tcp_config).map_err(|e| format!("{what}: {e}"))
    };
    let mut tcp = bind("tcp rung")?;
    let (per_frame, _) = rec.time("net.tcp.frames", 0, || {
        transport_us_per_frame(&mut tcp, &frames, budget)
    });
    out.push(("net.tcp.us_per_frame", per_frame?));
    let mut stats = tcp.stats();
    drop(tcp);

    // Lane bring-up: what every instance of a TCP-backed pool pays before
    // its first round — bind, connect and accept all 2n+1 lanes (one
    // frame each, since lanes connect on first write), and tear down.
    let control = Frame {
        from: Endpoint::Env,
        to: Endpoint::Party(0),
        sent_at: 1,
        kind: FrameKind::Tick,
    }
    .encode();
    let rpc: Vec<Vec<u8>> = (0..n as u32)
        .map(|p| {
            Frame {
                from: Endpoint::Host,
                to: Endpoint::Party(p),
                sent_at: 1,
                kind: FrameKind::RoAnswer(vec![0; 32]),
            }
            .encode()
        })
        .collect();
    let setups = 8;
    let (done, setup_s) = rec.time("net.tcp.lane_setup", 0, || -> Result<(), String> {
        for _ in 0..setups {
            let mut t = bind("tcp lane setup")?;
            let send = |t: &mut TcpTransport, f: &Vec<u8>| {
                t.send(f.clone(), 1)
                    .map_err(|e| format!("tcp lane setup: {e}"))
            };
            send(&mut t, &control)?;
            for p in 0..n {
                send(&mut t, &rpc[p])?;
                send(&mut t, &frames[p])?;
            }
            let mut got = t.recv_control().len();
            for p in 0..n as u32 {
                got += t.recv_rpc(p).len() + t.recv_data(p, 1).len();
            }
            if got != 2 * n + 1 {
                return Err(format!(
                    "tcp lane setup: {got} of {} frames arrived",
                    2 * n + 1
                ));
            }
            let s = t.stats();
            stats.timeouts += s.timeouts;
            stats.reconnects += s.reconnects;
        }
        Ok(())
    });
    done?;
    out.push((
        "net.tcp.lane_setup_us_per_instance",
        setup_s * 1e6 / setups as f64,
    ));
    out.push(("net.tcp.timeouts", stats.timeouts as f64));
    out.push(("net.tcp.reconnects", stats.reconnects as f64));

    // The codec on the wire frame at the workload's payload length.
    let wire = Frame {
        from: Endpoint::Host,
        to: Endpoint::Party(0),
        sent_at: 1,
        kind: FrameKind::Deliver {
            origin: 1,
            payload: wire_value(&mut rng, w.payload_len, 1_000),
        },
    };
    let encoded = wire.encode();
    let encode_ns = micro(rec, budget / 4, "net.codec.encode", |_| {
        black_box(black_box(&wire).encode());
    });
    let decode_ns = micro(rec, budget / 4, "net.codec.decode", |_| {
        black_box(Frame::decode(black_box(&encoded)).expect("own encoding decodes"));
    });
    out.push(("net.codec.encode_ns_per_frame", encode_ns));
    out.push(("net.codec.decode_ns_per_frame", decode_ns));
    out.push(("net.codec.frame_bytes", encoded.len() as f64));
    Ok(out)
}

/// The shared resources a functionality call borrows through `HybridCtx`.
struct Fixture {
    clock: GlobalClock,
    rng: Drbg,
    leaks: Vec<sbc_uc::world::Leak>,
    corr: CorruptionTracker,
}

impl Fixture {
    fn new(n: usize) -> Fixture {
        Fixture {
            clock: GlobalClock::new(PartyId::all(n)),
            rng: Drbg::from_seed(b"sbc-benchmark/fixture"),
            leaks: Vec::new(),
            corr: CorruptionTracker::new(n),
        }
    }

    fn ctx(&mut self) -> HybridCtx<'_> {
        HybridCtx {
            clock: &mut self.clock,
            rng: &mut self.rng,
            leaks: &mut self.leaks,
            corr: &mut self.corr,
        }
    }
}

/// Rung 5: one functionality or primitive call at a time (each for
/// `budget`), at the workload's n and payload length.
pub fn functionality_rung(w: &Workload, budget: Duration, rec: &mut Recorder) -> Metrics {
    let params = SbcParams::default_for(w.n);
    let n = w.n as u64;
    let len = w.payload_len;
    let mut rng = Drbg::from_seed(b"sbc-benchmark/functionality-rung");
    let mut out = Metrics::new();

    // F_TLE: Enc of a 32-byte mask seed ρ (what Π_SBC encrypts), then Dec
    // probes against a record set the size of one instance's batch.
    let tau = (params.phi + params.delta) as i64;
    let mut fx = Fixture::new(w.n);
    let mut tle = TleFunc::new(params.tle_alpha, params.tle_delay, rng.fork(b"tle"));
    let rho = rng.gen_bytes(32);
    let enc_ns = micro(rec, budget, "tle.enc", |i| {
        black_box(tle.enc(
            PartyId((i % n) as u32),
            Value::bytes(&rho),
            tau,
            &mut fx.ctx(),
        ));
    });
    out.push(("tle.enc_us", enc_ns / 1e3));
    let mut fx = Fixture::new(w.n);
    let mut tle = TleFunc::new(params.tle_alpha, params.tle_delay, rng.fork(b"tle-dec"));
    for k in 0..w.batch_size {
        tle.enc(
            PartyId((k % w.n) as u32),
            Value::bytes(rng.gen_bytes(32)),
            tau,
            &mut fx.ctx(),
        );
    }
    fx.clock.fast_forward(params.tle_delay);
    let mut cts: Vec<Vec<u8>> = Vec::new();
    for p in 0..w.n as u32 {
        for (_, ct, _) in tle.retrieve(PartyId(p), &mut fx.ctx()) {
            cts.push(ct.encode());
        }
    }
    assert_eq!(
        cts.len(),
        w.batch_size,
        "every encryption became retrievable"
    );
    let dec_ns = micro(rec, budget, "tle.dec_probe", |i| {
        let ct = &cts[i as usize % cts.len()];
        black_box(tle.dec_peek_encoded(ct, tau, tau as u64)).expect("known ciphertext");
    });
    out.push(("tle.dec_probe_us", dec_ns / 1e3));

    // F_RO: fixed-length queries at fresh and at memoised points, and the
    // variable-length mask expansion at payload length.
    let caller = Caller::Party(PartyId(0));
    let mut ro = RandomOracle::new(rng.fork(b"ro"));
    let mut queried = 0u64;
    let fresh_ns = micro(rec, budget, "uc.ro_query_fresh", |i| {
        black_box(ro.query(caller, &i.to_be_bytes()));
        queried = i + 1;
    });
    let memo_ns = micro(rec, budget, "uc.ro_query_memo", |i| {
        black_box(ro.query(caller, &(i % queried).to_be_bytes()));
    });
    let masked_len = Value::bytes(vec![0; len]).encode().len();
    let mask_ns = micro(rec, budget, "uc.ro_mask", |i| {
        black_box(ro.query_bytes(caller, &i.to_be_bytes(), masked_len));
    });
    out.push(("uc.ro_query_fresh_ns", fresh_ns));
    out.push(("uc.ro_query_memo_ns", memo_ns));
    out.push(("uc.ro_mask_mb_per_s", masked_len as f64 * 1e3 / mask_ns));

    // Value: the canonical encoding of the wire, both ways.
    let wire = wire_value(&mut rng, len, tau as u64);
    let encoded = wire.encode();
    let encode_ns = micro(rec, budget, "uc.value_encode", |_| {
        black_box(black_box(&wire).encode());
    });
    let decode_ns = micro(rec, budget, "uc.value_decode", |_| {
        black_box(Value::decode(black_box(&encoded)).expect("own encoding decodes"));
    });
    out.push(("uc.value_encode_ns", encode_ns));
    out.push(("uc.value_decode_ns", decode_ns));

    // F_UBC: every party casts one wire and flushes it, once per round.
    let mut fx = Fixture::new(w.n);
    let mut ubc = UbcFunc::new(w.n, rng.fork(b"ubc"));
    let round_ns = micro(rec, budget, "broadcast.ubc_cast_flush", |round| {
        for p in 0..w.n as u32 {
            ubc.broadcast_honest(PartyId(p), wire.clone(), &mut fx.ctx());
        }
        for p in 0..w.n as u32 {
            black_box(ubc.take_flush(PartyId(p), &mut fx.ctx()));
        }
        fx.leaks.clear();
        fx.clock.fast_forward(round + 1);
    });
    out.push(("broadcast.ubc_cast_flush_us", round_ns / 1e3 / n as f64));

    // Primitives.
    let block = rng.gen_bytes(64);
    let payload = rng.gen_bytes(len);
    let sha64_ns = micro(rec, budget, "primitives.sha256_64b", |_| {
        black_box(Sha256::digest(black_box(&block)));
    });
    let sha_ns = micro(rec, budget, "primitives.sha256", |_| {
        black_box(Sha256::digest(black_box(&payload)));
    });
    let drbg_ns = micro(rec, budget, "primitives.drbg", |_| {
        black_box(rng.gen_bytes(len));
    });
    out.push(("primitives.sha256_64b_ns", sha64_ns));
    out.push(("primitives.sha256_mb_per_s", len as f64 * 1e3 / sha_ns));
    out.push(("primitives.drbg_mb_per_s", len as f64 * 1e3 / drbg_ns));
    out
}
