//! Pool-level Theorem 2 coverage and pool error paths.
//!
//! The headline test drives a real/ideal **pool** pair — 4+ concurrent SBC
//! instances over one shared clock and one global corruption state —
//! through the extended dual-world harness (`PoolDualRun`), asserting
//! transcript equality *keyed by instance* across 2+ epochs per instance
//! with adaptive corruption, adversarial injection, leakage probes, and a
//! staggered late-opened instance. The error-path tests pin down the typed
//! `SbcError` surface of the session-level `SbcPool`.
//!
//! The offset-join tests assert the O(1) `join_at` is
//! observation-equivalent to the literal idle-round replay.
//! The lifecycle regression tests cover the retire-drops-drains and
//! panicking-`open_instance` bugs.

use sbc_core::api::SbcError;
use sbc_core::pool::{InstanceId, PooledSbcWorld, SbcPool};
use sbc_core::protocol::sbc_wire;
use sbc_core::worlds::{IdealSbcWorld, RealSbcWorld, SbcBackend, SbcParams};
use sbc_primitives::drbg::Drbg;
use sbc_uc::exec::{CompareLevel, PoolDualRun, PoolWorld, SbcWorld};
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{AdvCommand, Leak, World};
use std::sync::atomic::{AtomicBool, Ordering};

type Pair = PoolDualRun<PooledSbcWorld<RealSbcWorld>, PooledSbcWorld<IdealSbcWorld>>;

/// Builds a real/ideal pool pair through the backend trait.
fn pool_pair(n: usize, seed: &[u8]) -> Pair {
    fn backend<W: SbcBackend>(n: usize, seed: &[u8]) -> PooledSbcWorld<W> {
        PooledSbcWorld::new(SbcParams::default_for(n), seed).expect("valid default params")
    }
    PoolDualRun::new(
        backend(n, seed),
        backend(n, seed),
        CompareLevel::ShapeAndOutputs,
    )
}

/// The adversarial-broadcast recipe of `SbcSession::inject_message`,
/// expressed in instance-scoped dual-pool driver actions (generic over the
/// pool pair under comparison).
fn inject<A: PoolWorld, B: PoolWorld>(
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
    let (eta_real, eta_ideal) = dual.adversary(
        instance,
        AdvCommand::Control {
            target: "F_RO".into(),
            cmd: Command::new(
                "QueryBytes",
                Value::list([Value::bytes(&rho), Value::U64(m_bytes.len() as u64)]),
            ),
        },
    );
    assert_eq!(eta_real, eta_ideal, "same instance seed, same oracle point");
    let eta = eta_real.as_bytes().expect("mask is bytes").to_vec();
    let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
    dual.adversary(
        instance,
        AdvCommand::SendAs {
            party,
            cmd: Command::new("Broadcast", sbc_wire(&ct, tau_rel, &y)),
        },
    );
}

/// Acceptance scenario: a pool of 4 concurrent instances (plus a fifth
/// opened mid-run on the shared clock) running 2 epochs each, with an
/// adaptive global corruption in epoch 0, per-instance adversarial
/// injections and leakage probes in epoch 1, and late drains. Real and
/// ideal pools must produce instance-for-instance identical transcripts at
/// every epoch boundary.
#[test]
fn pool_theorem2_multi_instance_multi_epoch_active_adversary() {
    let n = 4;
    let mut dual = pool_pair(n, b"pool-t2");
    let mut adv_rng = Drbg::from_seed(b"pool-t2/adversary");
    let instances: Vec<InstanceId> = (0..4).map(|_| dual.open_instance()).collect();

    // ---- epoch 0: honest traffic on all four instances, staggered ----
    for (k, &id) in instances.iter().enumerate() {
        dual.submit(id, PartyId((k % 2) as u32), format!("e0/i{k}/a").as_bytes());
    }
    dual.step_round();
    // Adaptive corruption mid-period: P3 falls in *every* instance at once.
    let (cr, ci) = dual.corrupt(PartyId(3));
    assert!(cr && ci, "corruption accepted in both worlds");
    // A second submission on two of the instances.
    dual.submit(instances[0], PartyId(1), b"e0/i0/b");
    dual.submit(instances[2], PartyId(2), b"e0/i2/b");
    dual.idle_rounds(9); // all release at τ_rel = 5; drain late
    for &id in &instances {
        assert_eq!(dual.finish_epoch(id).expect("epoch 0 aligned"), 0);
    }

    // ---- a fifth instance opens mid-run, joining the shared clock ----
    let late = dual.open_instance();
    assert_eq!(dual.epoch(late), 0);

    // ---- epoch 1: injections + leakage probes per instance ----
    for (k, &id) in instances.iter().enumerate() {
        dual.submit(id, PartyId((k % 2) as u32), format!("e1/i{k}").as_bytes());
    }
    dual.submit(late, PartyId(0), b"e1/late");
    dual.step_round();
    for (k, &id) in instances.iter().enumerate() {
        // The adversary probes its F_TLE leakage view of this instance...
        dual.adversary(
            id,
            AdvCommand::Control {
                target: "F_TLE".into(),
                cmd: Command::new("Leakage", Value::Unit),
            },
        );
        // ...and commits an injected message on behalf of corrupted P3.
        inject(
            &mut dual,
            &mut adv_rng,
            id,
            PartyId(3),
            format!("e1/i{k}/evil").as_bytes(),
        );
    }
    // Garbage wire on one instance: ignored uniformly in both worlds.
    dual.adversary(
        instances[1],
        AdvCommand::SendAs {
            party: PartyId(3),
            cmd: Command::new("Broadcast", Value::bytes(b"not a wire")),
        },
    );
    dual.idle_rounds(12);
    for &id in &instances {
        assert_eq!(dual.finish_epoch(id).expect("epoch 1 aligned"), 1);
        assert_eq!(dual.epoch(id), 2, "two epochs per instance");
    }
    dual.finish_epoch(late).expect("late instance aligned");

    // Instance 0's transcript contains its injected message; instance 1's
    // contains its own, not instance 0's — outputs stayed keyed.
    let (t_real, _) = dual.into_transcripts();
    assert_eq!(t_real.len(), 5);
    for (k, &id) in instances.iter().enumerate() {
        let bytes: Vec<u8> = t_real[&id]
            .outputs()
            .iter()
            .flat_map(|(_, _, cmd)| cmd.value.encode())
            .collect();
        let own = format!("e1/i{k}/evil").into_bytes();
        let other = format!("e1/i{}/evil", (k + 1) % 4).into_bytes();
        let contains = |needle: &[u8]| bytes.windows(needle.len()).any(|w| w == needle);
        assert!(contains(&own), "instance {k}: own injection delivered");
        assert!(!contains(&other), "instance {k}: no cross-instance bleed");
    }
}

/// Closing an instance mid-run keeps the rest of the pool aligned, and the
/// closed instance's transcript stays part of the comparison.
#[test]
fn pool_theorem2_close_instance_mid_run() {
    let mut dual = pool_pair(2, b"pool-close");
    let a = dual.open_instance();
    let b = dual.open_instance();
    dual.submit(a, PartyId(0), b"a-only");
    dual.submit(b, PartyId(1), b"b-only");
    dual.idle_rounds(8);
    dual.finish_epoch(a).expect("aligned");
    dual.close_instance(b);
    // A keeps running epochs after B is gone.
    dual.submit(a, PartyId(0), b"a-epoch1");
    dual.idle_rounds(8);
    dual.finish_epoch(a).expect("aligned after close");
    let (t_real, t_ideal) = dual.into_transcripts();
    assert_eq!(t_real.len(), 2, "closed instance's transcript retained");
    assert_eq!(t_real[&b].outputs().len(), t_ideal[&b].outputs().len());
}

// ---------------------------------------------------------------------------
// Session-level pool error paths
// ---------------------------------------------------------------------------

#[test]
fn unknown_instance_is_a_typed_error_everywhere() {
    let mut pool = SbcPool::builder(2).seed(b"unknown").build().unwrap();
    let ghost = InstanceId(7);
    let err = SbcError::UnknownInstance { instance: 7 };
    assert_eq!(pool.submit(ghost, 0, b"x").unwrap_err(), err);
    assert_eq!(pool.check_submittable(ghost, 0).unwrap_err(), err);
    assert_eq!(pool.run_to_completion(ghost).unwrap_err(), err);
    assert_eq!(pool.run_epoch(ghost).unwrap_err(), err);
    assert_eq!(pool.finish(ghost).unwrap_err(), err);
    assert_eq!(pool.epoch(ghost).unwrap_err(), err);
    assert_eq!(pool.send_as(ghost, 0, Value::Unit).unwrap_err(), err);
    assert_eq!(pool.inject_message(ghost, 0, b"m").unwrap_err(), err);
    assert_eq!(
        pool.control(ghost, "F_TLE", Command::new("Leakage", Value::Unit))
            .unwrap_err(),
        err
    );
    assert_eq!(pool.tle_leakage(ghost).unwrap_err(), err);
    assert_eq!(pool.leaks(ghost).unwrap_err(), err);
    assert_eq!(pool.take_leaks(ghost).unwrap_err(), err);
}

#[test]
fn finished_instance_refuses_further_traffic() {
    let mut pool = SbcPool::builder(2).seed(b"finished").build().unwrap();
    let id = pool.open_instance().unwrap();
    pool.submit(id, 0, b"final").unwrap();
    let result = pool.finish(id).unwrap();
    assert_eq!(result.messages, vec![b"final".to_vec()]);
    let err = SbcError::InstanceFinished { instance: id.0 };
    assert_eq!(pool.submit(id, 0, b"late"), Err(err.clone()));
    assert_eq!(pool.run_epoch(id).unwrap_err(), err.clone());
    assert_eq!(pool.finish(id).unwrap_err(), err.clone());
    assert_eq!(pool.epoch(id).unwrap_err(), err.clone());
    assert_eq!(pool.tle_leakage(id).unwrap_err(), err);
    // The pool itself keeps working: new instances get fresh ids.
    let next = pool.open_instance().unwrap();
    assert_ne!(next, id, "ids are never reused");
    pool.submit(next, 1, b"still-open").unwrap();
    assert_eq!(pool.finish(next).unwrap().messages.len(), 1);
}

#[test]
fn cross_instance_corruption_visibility() {
    // Corrupting a party through the pool is visible in every instance —
    // those already open, and those opened afterwards.
    let mut pool = SbcPool::builder(3).seed(b"x-corr").build().unwrap();
    let a = pool.open_instance().unwrap();
    let b = pool.open_instance().unwrap();
    pool.submit(a, 1, b"pending-in-a").unwrap();
    let views = pool.corrupt(1).unwrap();
    assert_eq!(views.len(), 2, "per-instance corruption views");
    assert_eq!(
        views[0],
        (a, vec![Value::bytes(b"pending-in-a")]),
        "instance a reveals the pending message"
    );
    assert_eq!(views[1], (b, vec![]), "instance b had nothing pending");
    assert!(pool.is_corrupted(1));
    for id in [a, b] {
        assert_eq!(
            pool.submit(id, 1, b"no"),
            Err(SbcError::CorruptedParty { party: 1 })
        );
        assert_eq!(
            pool.inject_message(id, 0, b"m"),
            Err(SbcError::HonestParty { party: 0 }),
            "other parties stay honest in every instance"
        );
    }
    let c = pool.open_instance().unwrap();
    assert_eq!(
        pool.submit(c, 1, b"no"),
        Err(SbcError::CorruptedParty { party: 1 }),
        "later instances inherit the corruption"
    );
    // The corrupted party can act adversarially in any instance.
    pool.submit(c, 0, b"honest-c").unwrap();
    pool.step_round().unwrap();
    pool.inject_message(c, 1, b"evil-c").unwrap();
    let rc = pool.finish(c).unwrap();
    assert!(rc.messages.contains(&b"evil-c".to_vec()));
}

#[test]
fn pool_close_semantics_match_session_close_semantics() {
    // After release (without epoch turnover) the period stays closed: a
    // pool instance behaves exactly like a session would.
    let mut pool = SbcPool::builder(2).seed(b"close-sem").build().unwrap();
    let id = pool.open_instance().unwrap();
    pool.submit(id, 0, b"on-time").unwrap();
    pool.run_to_completion(id).unwrap();
    assert!(matches!(
        pool.submit(id, 1, b"too-late"),
        Err(SbcError::SubmitAfterClose { .. })
    ));
    // But the instance is not *finished*: run_epoch turns it over.
    pool.run_epoch(id).unwrap();
    pool.submit(id, 1, b"next-epoch").unwrap();
    assert_eq!(
        pool.run_epoch(id).unwrap().messages,
        vec![b"next-epoch".to_vec()]
    );
}

#[test]
fn empty_pool_and_empty_instances_behave() {
    let mut pool = SbcPool::builder(2).seed(b"empty").build().unwrap();
    // Stepping an empty pool just advances the shared clock.
    assert!(pool.step_round().unwrap().is_empty());
    assert_eq!(pool.round(), 1);
    assert!(pool.live_instances().is_empty());
    let id = pool.open_instance().unwrap();
    assert_eq!(pool.run_epoch(id).unwrap_err(), SbcError::NoInput);
    assert_eq!(pool.finish(id).unwrap_err(), SbcError::NoInput);
    assert_eq!(pool.epoch(id).unwrap(), 0, "failed runs do not turn epochs");
}

/// Theorem 2 at pool scope and n = 64: the real/ideal comparison holds at
/// the usual pool level (transcript shape + exact outputs, keyed by
/// instance) under corruption and injection.
#[test]
fn pool_theorem2_holds_at_n64() {
    fn world<W: SbcBackend>() -> PooledSbcWorld<W> {
        PooledSbcWorld::new(SbcParams::default_for(64), b"both-sharded-pools")
            .expect("valid params")
    }
    let mut dual: PoolDualRun<PooledSbcWorld<RealSbcWorld>, PooledSbcWorld<IdealSbcWorld>> =
        PoolDualRun::new(world(), world(), CompareLevel::ShapeAndOutputs);
    let mut adv_rng = Drbg::from_seed(b"both-sharded-pools/adversary");
    let ids: Vec<InstanceId> = (0..4).map(|_| dual.open_instance()).collect();
    for (k, &id) in ids.iter().enumerate() {
        dual.submit(id, PartyId((k % 5) as u32), format!("i{k}").as_bytes());
    }
    dual.step_round();
    let (cr, ci) = dual.corrupt(PartyId(63));
    assert!(cr && ci);
    inject(&mut dual, &mut adv_rng, ids[0], PartyId(63), b"i0/evil");
    dual.idle_rounds(9);
    for &id in &ids {
        assert_eq!(dual.finish_epoch(id).unwrap_or_else(|d| panic!("{d}")), 0);
    }
}

// ---------------------------------------------------------------------------
// O(1) offset join: observation-equivalence to the idle-round replay
// ---------------------------------------------------------------------------

/// A backend wrapper that pins `join_at` to the trait's default idle-round
/// replay — the reference the O(1) offset join must match bit for bit.
#[derive(Debug)]
struct ReplayJoin<W: SbcWorld>(W);

impl<W: SbcWorld> World for ReplayJoin<W> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn time(&self) -> u64 {
        self.0.time()
    }
    fn input(&mut self, party: PartyId, cmd: Command) {
        self.0.input(party, cmd);
    }
    fn advance(&mut self, party: PartyId) {
        self.0.advance(party);
    }
    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        self.0.adversary(cmd)
    }
    fn drain_outputs(&mut self) -> Vec<(PartyId, Command)> {
        self.0.drain_outputs()
    }
    fn drain_leaks(&mut self) -> Vec<Leak> {
        self.0.drain_leaks()
    }
    fn is_corrupted(&self, party: PartyId) -> bool {
        self.0.is_corrupted(party)
    }
}

impl<W: SbcWorld> SbcWorld for ReplayJoin<W> {
    fn begin_new_period(&mut self) {
        self.0.begin_new_period();
    }
    fn release_round(&self) -> Option<u64> {
        self.0.release_round()
    }
    fn period_end(&self) -> Option<u64> {
        self.0.period_end()
    }
    fn would_abort(&self) -> bool {
        self.0.would_abort()
    }
    // `join_at` deliberately NOT forwarded: the default replay runs.
}

impl<W: SbcBackend> SbcBackend for ReplayJoin<W> {
    fn from_params(params: SbcParams, seed: &[u8]) -> Result<Self, SbcError> {
        Ok(ReplayJoin(W::from_params(params, seed)?))
    }
}

/// Acceptance test for the clock-offset join: an instance opened at pool
/// round `T = 32` through the O(1) `join_at` fast path is bit-identical —
/// same transcripts, same `τ_rel`, same outputs — to one opened through
/// the literal `O(T·n)` idle-round replay, for the real and the ideal
/// backend, including a pre-join global corruption.
#[test]
fn offset_join_is_bit_identical_to_idle_replay() {
    fn drive<W: SbcBackend>(seed: &[u8]) {
        let mut dual: PoolDualRun<PooledSbcWorld<ReplayJoin<W>>, PooledSbcWorld<W>> =
            PoolDualRun::new(
                PooledSbcWorld::new(SbcParams::default_for(3), seed).expect("valid params"),
                PooledSbcWorld::new(SbcParams::default_for(3), seed).expect("valid params"),
                CompareLevel::Exact,
            );
        let early = dual.open_instance();
        dual.submit(early, PartyId(0), b"early-traffic");
        dual.idle_rounds(32); // long-lived pool: the clock is at T = 32
        let (cr, ci) = dual.corrupt(PartyId(2)); // replayed into late joiners
        assert!(cr && ci);
        let late = dual.open_instance(); // replay join vs O(1) clock jump
        assert_eq!(dual.round(), 32);
        dual.submit(late, PartyId(1), b"late-joiner");
        dual.idle_rounds(9);
        dual.check()
            .unwrap_or_else(|d| panic!("offset join diverged from replay: {d}"));
        // Woken at T = 32: τ_rel = T + Φ + ∆ in both pools.
        assert_eq!(dual.release_round(late), Some(32 + 3 + 2));
    }
    drive::<RealSbcWorld>(b"join-real");
    drive::<IdealSbcWorld>(b"join-ideal");
}

// ---------------------------------------------------------------------------
// Lifecycle bugfix regressions
// ---------------------------------------------------------------------------

/// A minimal backend whose period turnover buffers an audit leak (as a
/// networked backend logging dropped wires would) — the kind of
/// late-buffered drain `retire` must surface rather than drop.
#[derive(Debug)]
struct AuditWorld {
    n: usize,
    time: u64,
    advanced: usize,
    corrupted: Vec<bool>,
    leaks: Vec<Leak>,
}

impl World for AuditWorld {
    fn n(&self) -> usize {
        self.n
    }
    fn time(&self) -> u64 {
        self.time
    }
    fn input(&mut self, _party: PartyId, _cmd: Command) {}
    fn advance(&mut self, _party: PartyId) {
        self.advanced += 1;
        if self.advanced >= self.n {
            self.advanced = 0;
            self.time += 1;
        }
    }
    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        if let AdvCommand::Corrupt(p) = cmd {
            self.corrupted[p.index()] = true;
            return Value::list(Vec::new());
        }
        Value::Unit
    }
    fn drain_outputs(&mut self) -> Vec<(PartyId, Command)> {
        Vec::new()
    }
    fn drain_leaks(&mut self) -> Vec<Leak> {
        std::mem::take(&mut self.leaks)
    }
    fn is_corrupted(&self, party: PartyId) -> bool {
        self.corrupted[party.index()]
    }
}

impl SbcWorld for AuditWorld {
    fn begin_new_period(&mut self) {
        self.leaks.push(Leak {
            source: "audit".into(),
            cmd: Command::new("PeriodClosed", Value::U64(self.time)),
        });
    }
    fn release_round(&self) -> Option<u64> {
        None
    }
    fn period_end(&self) -> Option<u64> {
        None
    }
}

impl SbcBackend for AuditWorld {
    fn from_params(params: SbcParams, _seed: &[u8]) -> Result<Self, SbcError> {
        Ok(AuditWorld {
            n: params.n,
            time: 0,
            advanced: 0,
            corrupted: vec![false; params.n],
            leaks: Vec::new(),
        })
    }
}

/// Regression for the retire-drops-drains bug: `retire` removed the
/// instance world without a final drain, silently discarding leaks (and
/// outputs) still buffered inside it. Retirement must be a final drain.
#[test]
fn retire_surfaces_late_buffered_drains() {
    let mut w =
        PooledSbcWorld::<AuditWorld>::new(SbcParams::default_for(2), b"audit").expect("valid");
    let id = w.open_instance().unwrap();
    assert!(w.drain_leaks().is_empty());
    // The backend buffers an audit leak at period turnover; nothing has
    // pulled it into the pool buffers yet.
    w.begin_new_period(id);
    w.close_instance(id);
    let leaks = w.drain_leaks();
    assert_eq!(leaks.len(), 1, "late-buffered leak surfaced by retire");
    assert_eq!(leaks[0].0, id);
    assert_eq!(leaks[0].1.source, "audit");
    assert!(w.is_retired(id));
}

/// The session-level face of the same guarantee: leaks captured for an
/// instance stay readable after `finish` retires it (they used to be
/// dropped with the per-instance state, breaking the PR 2 late-drain
/// contract at the pool layer).
#[test]
fn finished_instance_keeps_captured_leaks_readable() {
    let mut pool = SbcPool::builder(3)
        .seed(b"late-leaks")
        .capture_leaks()
        .build()
        .unwrap();
    let id = pool.open_instance().unwrap();
    pool.submit(id, 0, b"watched").unwrap();
    pool.finish(id).unwrap();
    // Traffic still refuses with the typed error...
    assert!(matches!(
        pool.submit(id, 0, b"late"),
        Err(SbcError::InstanceFinished { .. })
    ));
    // ...but the captured leaks survive retirement and drain exactly once.
    let leaks = pool.take_leaks(id).unwrap();
    assert!(!leaks.is_empty(), "captured leaks readable after finish");
    assert!(pool.take_leaks(id).unwrap().is_empty());
    assert_eq!(
        pool.leaks(InstanceId(99)).unwrap_err(),
        SbcError::UnknownInstance { instance: 99 }
    );
}

static FLAKY_FAIL_NEXT_OPEN: AtomicBool = AtomicBool::new(false);

/// A backend whose construction fails on demand — exercises the
/// `open_instance` error path that used to be a
/// `.expect("params validated at pool construction")` panic.
#[derive(Debug)]
struct FlakyBackend(RealSbcWorld);

impl World for FlakyBackend {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn time(&self) -> u64 {
        self.0.time()
    }
    fn input(&mut self, party: PartyId, cmd: Command) {
        self.0.input(party, cmd);
    }
    fn advance(&mut self, party: PartyId) {
        self.0.advance(party);
    }
    fn adversary(&mut self, cmd: AdvCommand) -> Value {
        self.0.adversary(cmd)
    }
    fn drain_outputs(&mut self) -> Vec<(PartyId, Command)> {
        self.0.drain_outputs()
    }
    fn drain_leaks(&mut self) -> Vec<Leak> {
        self.0.drain_leaks()
    }
    fn is_corrupted(&self, party: PartyId) -> bool {
        self.0.is_corrupted(party)
    }
}

impl SbcWorld for FlakyBackend {
    fn begin_new_period(&mut self) {
        self.0.begin_new_period();
    }
    fn release_round(&self) -> Option<u64> {
        self.0.release_round()
    }
    fn period_end(&self) -> Option<u64> {
        self.0.period_end()
    }
    fn join_at(&mut self, round: u64) {
        self.0.join_at(round);
    }
}

impl SbcBackend for FlakyBackend {
    fn from_params(params: SbcParams, seed: &[u8]) -> Result<Self, SbcError> {
        if FLAKY_FAIL_NEXT_OPEN.swap(false, Ordering::SeqCst) {
            return Err(SbcError::Internal {
                detail: "transient backend failure".into(),
            });
        }
        Ok(FlakyBackend(RealSbcWorld::from_params(params, seed)?))
    }
}

/// Regression for the panicking `open_instance`: a backend construction
/// failure surfaces as a typed `SbcError`, consumes no instance id, and
/// leaves the pool fully usable.
#[test]
fn open_instance_failure_is_a_typed_error_not_a_panic() {
    let mut pool = SbcPool::builder(2)
        .seed(b"flaky")
        .build_backend::<FlakyBackend>()
        .unwrap();
    let first = pool.open_instance().unwrap();
    FLAKY_FAIL_NEXT_OPEN.store(true, Ordering::SeqCst);
    let err = pool.open_instance().unwrap_err();
    assert!(matches!(err, SbcError::Internal { .. }), "typed: {err}");
    assert_eq!(pool.live_instances(), vec![first], "pool unchanged");
    // The failed open burned no id: the next open gets the successor id.
    let second = pool.open_instance().unwrap();
    assert_eq!(second.0, first.0 + 1, "no id gap after a failed open");
    pool.submit(second, 0, b"still-works").unwrap();
    assert_eq!(pool.finish(second).unwrap().messages.len(), 1);
}

/// Churn-under-prune regression: a pool cycling instances for many epochs
/// — several opening, finishing, and being pruned while others run —
/// must return its retired-instance bookkeeping (state-map sizes,
/// buffered drains, captured leaks) to the steady-state baseline after
/// every reclamation sweep. This is the memory-flatness contract the
/// long-lived service layer builds on.
#[test]
fn churn_under_prune_returns_to_steady_state_baseline() {
    use sbc_core::pool::PoolFootprint;

    let mut pool = SbcPool::builder(3)
        .seed(b"churn")
        .capture_leaks()
        .build()
        .unwrap();
    let baseline = pool.footprint();
    assert_eq!(baseline, PoolFootprint::default());

    let mut staggered: Option<InstanceId> = None;
    for epoch in 0..10u64 {
        // Two short-lived instances per epoch, plus a staggered one that
        // overlaps epoch boundaries — churn, not lockstep.
        let a = pool.open_instance().unwrap();
        let b = pool.open_instance().unwrap();
        pool.submit(a, 0, format!("a{epoch}").as_bytes()).unwrap();
        pool.submit(b, 1, format!("b{epoch}").as_bytes()).unwrap();
        if epoch % 2 == 0 {
            let s = pool.open_instance().unwrap();
            pool.submit(s, 2, format!("s{epoch}").as_bytes()).unwrap();
            staggered = Some(s);
        }
        pool.finish(a).unwrap();
        pool.finish(b).unwrap();
        let closed_stagger = if epoch % 2 == 1 {
            let s = staggered.take().unwrap();
            pool.finish(s).unwrap();
            Some(s)
        } else {
            None
        };
        // Drain what the epoch produced, then reclaim.
        for id in [Some(a), Some(b), closed_stagger].into_iter().flatten() {
            let _ = pool.take_leaks(id);
        }
        let swept = pool.prune_finished();
        assert!(swept >= 2, "epoch {epoch}: sweep reclaims the finished");

        let fp = pool.footprint();
        let live_now = usize::from(staggered.is_some());
        assert_eq!(fp.retired, 0, "epoch {epoch}: no retired residue");
        assert_eq!(fp.buffered_outputs, 0, "epoch {epoch}: outputs drained");
        assert_eq!(fp.buffered_leaks, 0, "epoch {epoch}: leaks routed");
        assert_eq!(fp.live, live_now, "epoch {epoch}: only the stagger");
        assert_eq!(fp.tracked, live_now, "epoch {epoch}: state map flat");
    }

    // Wind down the last stagger: the pool lands exactly on baseline.
    if let Some(s) = staggered {
        pool.finish(s).unwrap();
        let _ = pool.take_leaks(s);
        pool.prune_finished();
    }
    assert_eq!(pool.footprint(), baseline, "back to the empty baseline");
}
