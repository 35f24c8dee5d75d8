//! The unified dual-world execution layer: one trait for every backend,
//! one harness for every real-vs-ideal experiment.
//!
//! # The real/ideal/simulator triangle
//!
//! Every security statement in the paper has the same shape (Def. 1): an
//! environment `Z` drives either the **real world** (protocol parties over
//! hybrid functionalities) or the **ideal world** (dummy parties talking to
//! the target functionality, with a **simulator** `S` translating the
//! functionality's leakage into exactly the hybrid-world view the real
//! adversary would see). The protocol UC-realizes the functionality when no
//! `Z` can tell the two transcripts apart. The three corners:
//!
//! ```text
//!              environment Z  (inputs, Advance_Clock, AdvCommand)
//!                 /                                  \
//!        real world                               ideal world
//!   Π over F_hybrid + G_clock            F_target  +  simulator S
//!   (e.g. Π_SBC over F_UBC,F_TLE,F_RO)   (e.g. F_SBC + S_SBC: fabricates
//!                                         wires, mirrors F_TLE leakage,
//!                                         equivocates F_RO at release)
//! ```
//!
//! [`SbcWorld`] is the contract both corners implement, and [`DualRun`] is
//! the harness that drives a pair of them through identical actions while
//! recording both transcripts — so a test, a session, or an application can
//! swap backends without touching its driving code.
//!
//! # Multi-period composition and `begin_new_period`
//!
//! The paper composes SBC periods sequentially (§6: beacons and elections
//! run one broadcast period per epoch over a persistent world). A *period*
//! is one `[t_awake, t_end = t_awake + Φ)` window plus its release at
//! `τ_rel = t_end + ∆`; [`SbcWorld::begin_new_period`] closes the books on
//! a released period — protocol parties forget their period state,
//! undelivered wires are dropped, released functionality records are
//! pruned — while the *composable* state (the global clock `G_clock`, the
//! random oracle `F_RO`, the corruption set, and every randomness stream)
//! carries over. Because both corners of the triangle reset the same way,
//! transcript equality extends from single periods to arbitrary epoch
//! sequences: that is exactly the multi-period surface of Theorem 2 the
//! [`DualRun::finish_epoch`] checkpoints assert.
//!
//! # Instance pools
//!
//! The paper's applications run *many* SBC instances at once — overlapping
//! beacon epochs, parallel motions, concurrent auction lots. [`PoolWorld`]
//! is the instance-addressed sibling of [`SbcWorld`]: many concurrent
//! instances over one shared clock and one global (per-party, cross-
//! instance) corruption state, addressed by [`InstanceId`], batch-stepped
//! one shared round at a time. [`PoolDualRun`] extends the dual-world
//! harness to pool pairs, recording one transcript per instance and
//! comparing the real/ideal pools **keyed by instance** — UC composition
//! says the whole pool is indistinguishable iff every instance is, which
//! is exactly what [`PoolDualRun::check`] asserts. The harness is two
//! private `Side`s — a pool plus the transcripts recorded from it — and
//! each driver action is one `Side` method, called once per side.
//!
//! # What a check compares
//!
//! [`compare_transcripts`] reads one per-event encoding at one of two
//! levels (the table is on `Event::encode` in [`crate::trace`]):
//! [`CompareLevel::Exact`] as recorded, [`CompareLevel::ShapeAndOutputs`]
//! with byte strings as lengths and adversary actions as their presence,
//! plus exactly equal party outputs. A [`Divergence`] names the first
//! event at which the two sides part at that level.

use crate::ids::PartyId;
use crate::trace::{EventKind, Transcript};
use crate::value::{Command, Value};
use crate::world::{AdvCommand, EnvDriver, Leak, World};
use std::collections::BTreeMap;
use std::fmt;

/// A [`World`] that can host simultaneous-broadcast periods: the one trait
/// every execution backend — real, ideal, networked — implements so that
/// sessions, tests, and benches drive all of them through identical code.
///
/// The required surface is the period lifecycle; the provided methods are
/// the default driver loop ([`submit`](SbcWorld::submit) /
/// [`tick`](SbcWorld::tick)) shared by every backend.
///
/// # `Send`
///
/// `SbcWorld` requires [`Send`]: every in-tree driver steps worlds on the
/// calling thread, but callers outside this workspace may move a session,
/// pool or service — and the worlds it owns — to another thread. Every
/// in-tree backend is a plain owned-data state machine and is `Send`
/// automatically; a backend holding thread-bound resources (`Rc`,
/// raw GUI handles, …) must wrap them in `Send`-safe forms to participate.
pub trait SbcWorld: World + Send {
    /// Closes the books on a released broadcast period so the same world
    /// can host the next one. Period-local state (party queues, undelivered
    /// wires, released records) is dropped; composable state (clock, random
    /// oracle, corruption set, randomness streams) carries over. See the
    /// [module docs](self) for how this maps to the paper's multi-period
    /// composition.
    fn begin_new_period(&mut self);

    /// The agreed release round `τ_rel = t_awake + Φ + ∆` of the current
    /// period, once any party has woken up. `None` for worlds without a
    /// period notion (e.g. plain broadcast stacks).
    fn release_round(&self) -> Option<u64>;

    /// The end `t_end = t_awake + Φ` of the current broadcast period, once
    /// any party has woken up. `None` for worlds without a period notion.
    fn period_end(&self) -> Option<u64>;

    /// Whether a simulation-abort event (the negligible-probability event
    /// of the security proofs, e.g. the adversary pre-querying a hidden
    /// oracle point) has occurred. Real worlds never abort; ideal worlds
    /// report their simulator's flag. The flag is sticky across
    /// [`begin_new_period`](SbcWorld::begin_new_period).
    fn would_abort(&self) -> bool {
        false
    }

    /// Why the world cannot make progress, once it cannot: the first
    /// message its delivery layer refused (a networked world's frame over
    /// the size cap, or over a link that stayed down). Sticky. In-process
    /// worlds lose nothing and keep the default `None`.
    fn fault(&self) -> Option<&str> {
        None
    }

    /// Default driver: submits `message` for broadcast by honest `party`.
    fn submit(&mut self, party: PartyId, message: &[u8]) {
        self.input(party, Command::new("Broadcast", Value::bytes(message)));
    }

    /// Default driver: one full round — every honest party advances once.
    fn tick(&mut self) {
        for i in 0..self.n() {
            let p = PartyId(i as u32);
            if !self.is_corrupted(p) {
                self.advance(p);
            }
        }
    }

    /// Catches this world up to shared-clock round `round`, as if
    /// `round − time()` idle all-party rounds had been executed — how a
    /// freshly built world joins a long-lived shared clock (instance
    /// pools call this from `open_instance`).
    ///
    /// The default implementation is the literal replay ([`replay_join`]),
    /// `O((round − time()) · n)` `advance` calls. A backend whose idle
    /// rounds are pure clock ticks — no randomness drawn, no leaks, no
    /// outputs, no state beyond per-round dedup guards — may override this
    /// with an O(1) clock jump, **provided** the override is
    /// observation-equivalent to the replay: every transcript a driver can
    /// extract afterwards must be bit-identical to the replay path's. The
    /// real and ideal SBC worlds override it this way, falling back to the
    /// replay whenever the world is not verifiably idle.
    ///
    /// A no-op when `round ≤ time()`.
    fn join_at(&mut self, round: u64) {
        replay_join(self, round);
    }
}

/// The reference implementation of [`SbcWorld::join_at`]: replays
/// `round − time()` idle rounds by advancing every party (backends ignore
/// corrupted ones). O(1) `join_at` overrides use this as their fallback
/// when the world is not verifiably idle.
pub fn replay_join<W: SbcWorld + ?Sized>(world: &mut W, round: u64) {
    let behind = round.saturating_sub(world.time());
    for _ in 0..behind {
        for i in 0..world.n() {
            world.advance(PartyId(i as u32));
        }
    }
}

/// How strictly a real/ideal transcript pair must agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompareLevel {
    /// Byte-identical transcripts (perfect simulations: Lemmas 1–2).
    Exact,
    /// Identical event shape plus exactly equal party outputs (Theorem 2:
    /// ciphertext bytes differ between the worlds, everything the
    /// environment can *decide on* must not).
    ShapeAndOutputs,
}

/// A detected real-vs-ideal divergence, carrying both rendered transcripts.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// What diverged (shape, outputs, digest, or a simulator abort).
    pub reason: String,
    /// The rendered real-world transcript.
    pub real: String,
    /// The rendered ideal-world transcript.
    pub ideal: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nREAL:\n{}\nIDEAL:\n{}",
            self.reason, self.real, self.ideal
        )
    }
}

impl std::error::Error for Divergence {}

/// Checks a real/ideal transcript pair at the given comparison level.
///
/// # Errors
///
/// Returns a [`Divergence`] naming what differed and, for the transcripts
/// themselves, where: the first event at which the two sides encode
/// differently at that level ([`Transcript::first_divergence`]).
pub fn compare_transcripts(
    level: CompareLevel,
    real: &Transcript,
    ideal: &Transcript,
) -> Result<(), Divergence> {
    let diverged = |reason: String| Divergence {
        reason,
        real: real.to_string(),
        ideal: ideal.to_string(),
    };
    let shape = level == CompareLevel::ShapeAndOutputs;
    if let Some(k) = real.first_divergence(ideal, shape) {
        let what = if shape {
            "transcript shapes"
        } else {
            "transcripts"
        };
        let at = match (real.events.get(k), ideal.events.get(k)) {
            (Some(r), Some(i)) => format!(
                "first divergence at event #{k} (round {}): real {:?} vs ideal {:?}",
                r.round, r.kind, i.kind
            ),
            (None, _) => format!("real ends after {k} events"),
            (_, None) => format!("ideal ends after {k} events"),
        };
        return Err(diverged(format!("real vs ideal {what} diverge: {at}")));
    }
    if shape && real.outputs() != ideal.outputs() {
        return Err(diverged("real vs ideal party outputs diverge".to_string()));
    }
    Ok(())
}

/// Drives a real/ideal pair of [`SbcWorld`] backends through identical
/// actions, recording both transcripts and checkpointing their equality at
/// every epoch boundary.
///
/// This is the one harness behind every indistinguishability experiment in
/// the workspace: single-period lemma tests feed it a script and check
/// once; multi-epoch Theorem 2 scenarios interleave actions with
/// [`finish_epoch`](DualRun::finish_epoch) calls. The test body never
/// touches a concrete world type — everything goes through the trait.
#[derive(Debug)]
pub struct DualRun<R: SbcWorld, I: SbcWorld> {
    real: R,
    ideal: I,
    level: CompareLevel,
    t_real: Transcript,
    t_ideal: Transcript,
    epoch: u64,
}

impl<R: SbcWorld, I: SbcWorld> DualRun<R, I> {
    /// Wraps a real/ideal pair.
    ///
    /// # Panics
    ///
    /// Panics if the two worlds disagree on the number of parties.
    pub fn new(real: R, ideal: I, level: CompareLevel) -> Self {
        assert_eq!(real.n(), ideal.n(), "worlds must have the same parties");
        DualRun {
            real,
            ideal,
            level,
            t_real: Transcript::new(),
            t_ideal: Transcript::new(),
            epoch: 0,
        }
    }

    /// Applies the same driver actions to both worlds. The closure runs
    /// twice — once per world — so it must be deterministic in the driver.
    pub fn script<F>(&mut self, f: F)
    where
        F: Fn(&mut EnvDriver<'_>),
    {
        self.both(|env| f(env));
    }

    fn both<T>(&mut self, f: impl Fn(&mut EnvDriver<'_>) -> T) -> (T, T) {
        let mut env = EnvDriver::resume(&mut self.real, std::mem::take(&mut self.t_real));
        let a = f(&mut env);
        self.t_real = env.finish();
        let mut env = EnvDriver::resume(&mut self.ideal, std::mem::take(&mut self.t_ideal));
        let b = f(&mut env);
        self.t_ideal = env.finish();
        (a, b)
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.real.n()
    }

    /// The zero-based epoch both worlds are currently in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Submits `message` for broadcast by honest `party` in both worlds.
    pub fn submit(&mut self, party: PartyId, message: &[u8]) {
        let cmd = Command::new("Broadcast", Value::bytes(message));
        self.input(party, cmd);
    }

    /// Feeds an input to both worlds.
    pub fn input(&mut self, party: PartyId, cmd: Command) {
        self.both(|env| env.input(party, cmd.clone()));
    }

    /// Issues an adversary command to both worlds, returning both
    /// responses (they need not be equal — e.g. leakage queries differ in
    /// representation, not in shape).
    pub fn adversary(&mut self, cmd: AdvCommand) -> (Value, Value) {
        self.both(|env| env.adversary(cmd.clone()))
    }

    /// Adaptively corrupts `party` in both worlds.
    pub fn corrupt(&mut self, party: PartyId) -> (Value, Value) {
        self.adversary(AdvCommand::Corrupt(party))
    }

    /// One full round in both worlds (all honest parties advance).
    pub fn advance_all(&mut self) {
        self.both(|env| env.advance_all());
    }

    /// Runs `rounds` idle rounds in both worlds.
    pub fn idle_rounds(&mut self, rounds: u64) {
        self.both(|env| env.idle_rounds(rounds));
    }

    /// The agreed release round of the current period, once open.
    ///
    /// # Panics
    ///
    /// Panics if the two worlds disagree — that is itself a distinguishing
    /// event and must surface loudly.
    pub fn release_round(&self) -> Option<u64> {
        let (r, i) = (self.real.release_round(), self.ideal.release_round());
        assert_eq!(r, i, "release rounds diverge: real {r:?} vs ideal {i:?}");
        r
    }

    /// Checks transcript agreement (and the simulator abort flag) without
    /// ending the epoch.
    ///
    /// # Errors
    ///
    /// Returns a [`Divergence`] naming what differed.
    pub fn check(&self) -> Result<(), Divergence> {
        if self.ideal.would_abort() {
            return Err(Divergence {
                reason: "simulator abort event".to_string(),
                real: self.t_real.to_string(),
                ideal: self.t_ideal.to_string(),
            });
        }
        compare_transcripts(self.level, &self.t_real, &self.t_ideal)
    }

    /// Epoch boundary: checks agreement of everything recorded so far, then
    /// closes the released period in both worlds via
    /// [`SbcWorld::begin_new_period`]. Returns the index of the epoch just
    /// finished.
    ///
    /// # Errors
    ///
    /// Returns a [`Divergence`] naming what differed.
    pub fn finish_epoch(&mut self) -> Result<u64, Divergence> {
        self.check()?;
        self.real.begin_new_period();
        self.ideal.begin_new_period();
        let finished = self.epoch;
        self.epoch += 1;
        Ok(finished)
    }

    /// Borrows both worlds — the post-run introspection hook for
    /// backend-specific assertions the driver surface does not carry
    /// (e.g. a networked backend's transport statistics).
    pub fn worlds(&self) -> (&R, &I) {
        (&self.real, &self.ideal)
    }

    /// Consumes the harness, returning both transcripts.
    pub fn into_transcripts(self) -> (Transcript, Transcript) {
        (self.t_real, self.t_ideal)
    }
}

/// Runs `script` against a real/ideal pair and asserts indistinguishability
/// at `level` — the shared driver behind the per-lemma test helpers.
///
/// # Panics
///
/// Panics with both rendered transcripts on divergence or simulator abort.
pub fn assert_indistinguishable<R, I, F>(real: R, ideal: I, level: CompareLevel, script: F)
where
    R: SbcWorld,
    I: SbcWorld,
    F: Fn(&mut EnvDriver<'_>),
{
    let mut dual = DualRun::new(real, ideal, level);
    dual.script(script);
    if let Err(d) = dual.check() {
        panic!("{d}");
    }
}

// ---------------------------------------------------------------------------
// Instance-addressed pools
// ---------------------------------------------------------------------------

/// Identifies one SBC instance inside an instance pool. Ids are assigned by
/// [`PoolWorld::open_instance`] in increasing order and are never reused,
/// so an id uniquely names an instance for the whole life of the pool —
/// including after the instance finished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance#{}", self.0)
    }
}

/// An instance-addressed execution backend: many concurrent SBC instances
/// sharing one clock and one (per-party, instance-global) corruption state,
/// as in the UC model with joint state — instance ids play the role of
/// session ids, domain-separating the instances' randomness while
/// corruption of a party applies to every instance at once.
///
/// This is the multi-instance sibling of [`SbcWorld`]: where that trait
/// speaks `(party)`, this one speaks `(instance, party)`, and the round
/// driver ([`step_round`](PoolWorld::step_round)) batch-steps *all* live
/// instances per shared clock tick. `sbc_core::pool::PooledSbcWorld`
/// implements it over any `SbcBackend`; [`PoolDualRun`] drives a real/ideal
/// pair of implementations through identical actions with transcript
/// comparison keyed by instance.
pub trait PoolWorld {
    /// The error [`open_instance`](PoolWorld::open_instance) can fail
    /// with — building a fresh backend world can be fallible (parameter
    /// drift, resource exhaustion in a networked backend). Pools
    /// whose instance creation cannot fail use
    /// [`std::convert::Infallible`].
    type OpenError: std::error::Error;

    /// Number of parties (global — every instance shares the party set).
    fn n(&self) -> usize;

    /// The shared clock round.
    fn round(&self) -> u64;

    /// Opens a new SBC instance, returning its id. The new instance joins
    /// the shared clock at the current round and inherits the global
    /// corruption state.
    ///
    /// # Errors
    ///
    /// [`Self::OpenError`] if the backend world could not be built. A
    /// failed open must not consume an instance id.
    fn open_instance(&mut self) -> Result<InstanceId, Self::OpenError>;

    /// The ids of all live (not yet closed) instances, in id order.
    fn live_instances(&self) -> Vec<InstanceId>;

    /// Environment input to (honest) `party` of `instance`. Unknown or
    /// closed instances ignore the input (worlds are infallible; typed
    /// errors live at the session layer).
    fn input(&mut self, instance: InstanceId, party: PartyId, cmd: Command);

    /// An adversary command scoped to one instance (`SendAs`, `Control`;
    /// corruption is global — use [`corrupt`](PoolWorld::corrupt)).
    fn adversary(&mut self, instance: InstanceId, cmd: AdvCommand) -> Value;

    /// Corrupts `party` in **every** instance at once (per-party corruption
    /// is global across instances, as in the UC model). Returns the
    /// per-instance corruption responses (pending-message views) in
    /// instance order, or `None` if the corruption was refused (already
    /// corrupted, or the dishonest-majority budget `t ≤ n − 1` is
    /// exhausted).
    fn corrupt(&mut self, party: PartyId) -> Option<Vec<(InstanceId, Value)>>;

    /// Whether `party` is corrupted (globally).
    fn is_corrupted(&self, party: PartyId) -> bool;

    /// One shared clock tick: every live instance advances one full round.
    fn step_round(&mut self);

    /// Drains party outputs produced since the last call, keyed by
    /// instance.
    fn drain_outputs(&mut self) -> Vec<(InstanceId, PartyId, Command)>;

    /// Drains adversary-visible leaks produced since the last call, keyed
    /// by instance.
    fn drain_leaks(&mut self) -> Vec<(InstanceId, Leak)>;

    /// The agreed release round `τ_rel` of `instance`'s current period,
    /// once open.
    fn release_round(&self, instance: InstanceId) -> Option<u64>;

    /// The end `t_end` of `instance`'s current broadcast period, once open.
    fn period_end(&self, instance: InstanceId) -> Option<u64>;

    /// Closes the released period of `instance` so it can host the next
    /// epoch (the per-instance [`SbcWorld::begin_new_period`]).
    fn begin_new_period(&mut self, instance: InstanceId);

    /// Retires `instance`: it stops stepping and refuses further traffic.
    /// Its id is never reused.
    fn close_instance(&mut self, instance: InstanceId);

    /// Whether any instance's simulator hit a simulation-abort event
    /// (sticky, including for already-closed instances).
    fn would_abort(&self) -> bool {
        false
    }
}

/// Drives a real/ideal pair of [`PoolWorld`] backends through identical
/// actions, recording **one transcript per instance** in each world and
/// comparing the pair instance by instance — the pool-level extension of
/// [`DualRun`].
///
/// Theorem 2 composes under UC: running many SBC instances over a shared
/// clock and corruption state is indistinguishable from running many
/// `F_SBC` copies with per-instance simulators, and the distinguishing
/// power of the environment is exactly "some instance's transcript
/// diverged". [`check`](PoolDualRun::check) therefore compares every
/// instance's transcript pair (live and closed) at the configured
/// [`CompareLevel`], and [`finish_epoch`](PoolDualRun::finish_epoch)
/// checkpoints the whole pool before turning one instance's period over.
#[derive(Debug)]
pub struct PoolDualRun<R: PoolWorld, I: PoolWorld> {
    real: Side<R>,
    ideal: Side<I>,
    level: CompareLevel,
    epochs: BTreeMap<InstanceId, u64>,
}

/// One pool of a [`PoolDualRun`] and the per-instance transcripts recorded
/// from it.
#[derive(Debug)]
struct Side<P: PoolWorld> {
    pool: P,
    ts: BTreeMap<InstanceId, Transcript>,
}

impl<P: PoolWorld> Side<P> {
    fn new(pool: P) -> Self {
        Side {
            pool,
            ts: BTreeMap::new(),
        }
    }

    fn push(&mut self, instance: InstanceId, round: u64, kind: EventKind) {
        self.ts.entry(instance).or_default().push(round, kind);
    }

    /// Runs one driver action, handing it the round it starts in, then
    /// records the leaks and outputs it produced, stamped with that round
    /// (the pool image of `EnvDriver`'s per-action sync).
    fn act<T>(&mut self, action: impl FnOnce(&mut Self, u64) -> T) -> T {
        let round = self.pool.round();
        let result = action(self, round);
        for (id, Leak { source, cmd }) in self.pool.drain_leaks() {
            self.push(id, round, EventKind::Leak { source, cmd });
        }
        for (id, party, cmd) in self.pool.drain_outputs() {
            self.push(id, round, EventKind::Output { party, cmd });
        }
        result
    }

    fn open(&mut self, name: &str) -> InstanceId {
        self.act(|side, _| {
            let id = side
                .pool
                .open_instance()
                .unwrap_or_else(|e| panic!("{name} pool failed to open an instance: {e}"));
            side.ts.entry(id).or_default();
            id
        })
    }

    fn input(&mut self, instance: InstanceId, party: PartyId, cmd: Command) {
        self.act(|side, round| {
            let fed = EventKind::Input {
                party,
                cmd: cmd.clone(),
            };
            side.push(instance, round, fed);
            side.pool.input(instance, party, cmd);
        })
    }

    fn adversary(&mut self, instance: InstanceId, cmd: AdvCommand) -> Value {
        self.act(|side, round| {
            let desc = format!("{cmd:?}");
            side.push(instance, round, EventKind::AdvAction { desc });
            let value = side.pool.adversary(instance, cmd);
            let resp = value.clone();
            side.push(instance, round, EventKind::AdvResponse { value });
            resp
        })
    }

    /// Global corruption: the per-instance responses are recorded in each
    /// instance's transcript. Returns whether the pool accepted it.
    fn corrupt(&mut self, party: PartyId) -> bool {
        self.act(|side, round| {
            let views = side.pool.corrupt(party);
            for (id, value) in views.iter().flatten().cloned() {
                let desc = format!("Corrupt({party:?})");
                side.push(id, round, EventKind::AdvAction { desc });
                side.push(id, round, EventKind::AdvResponse { value });
            }
            views.is_some()
        })
    }
}

impl<R: PoolWorld, I: PoolWorld> PoolDualRun<R, I> {
    /// Wraps a real/ideal pool pair.
    ///
    /// # Panics
    ///
    /// Panics if the two pools disagree on the number of parties.
    pub fn new(real: R, ideal: I, level: CompareLevel) -> Self {
        assert_eq!(real.n(), ideal.n(), "pools must have the same parties");
        PoolDualRun {
            real: Side::new(real),
            ideal: Side::new(ideal),
            level,
            epochs: BTreeMap::new(),
        }
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.real.pool.n()
    }

    /// The shared clock round.
    ///
    /// # Panics
    ///
    /// Panics if the two pools' clocks diverge — that is itself a
    /// distinguishing event.
    pub fn round(&self) -> u64 {
        let (r, i) = (self.real.pool.round(), self.ideal.pool.round());
        assert_eq!(r, i, "pool clocks diverge: real {r} vs ideal {i}");
        r
    }

    /// Opens a new instance in both pools.
    ///
    /// # Panics
    ///
    /// Panics if either pool fails to open the instance, or if the pools
    /// assign different ids (they allocate ids in the same deterministic
    /// order) — harness-style: an open failure on one side is itself a
    /// distinguishing event and must surface loudly.
    pub fn open_instance(&mut self) -> InstanceId {
        let (r, i) = (self.real.open("real"), self.ideal.open("ideal"));
        assert_eq!(r, i, "pools assigned different instance ids");
        self.epochs.entry(r).or_insert(0);
        r
    }

    /// The zero-based epoch `instance` is currently in (0 for instances
    /// never passed to [`finish_epoch`](PoolDualRun::finish_epoch)).
    pub fn epoch(&self, instance: InstanceId) -> u64 {
        self.epochs.get(&instance).copied().unwrap_or(0)
    }

    /// Submits `message` for broadcast by honest `party` in `instance`, in
    /// both pools.
    pub fn submit(&mut self, instance: InstanceId, party: PartyId, message: &[u8]) {
        self.input(
            instance,
            party,
            Command::new("Broadcast", Value::bytes(message)),
        );
    }

    /// Feeds an input to `instance` in both pools.
    pub fn input(&mut self, instance: InstanceId, party: PartyId, cmd: Command) {
        self.real.input(instance, party, cmd.clone());
        self.ideal.input(instance, party, cmd);
    }

    /// Issues an instance-scoped adversary command to both pools, returning
    /// both responses.
    pub fn adversary(&mut self, instance: InstanceId, cmd: AdvCommand) -> (Value, Value) {
        let r = self.real.adversary(instance, cmd.clone());
        (r, self.ideal.adversary(instance, cmd))
    }

    /// Corrupts `party` globally (in every instance) in both pools. The
    /// per-instance corruption responses are recorded in each instance's
    /// transcript.
    pub fn corrupt(&mut self, party: PartyId) -> (bool, bool) {
        (self.real.corrupt(party), self.ideal.corrupt(party))
    }

    /// One shared clock tick in both pools (every live instance advances a
    /// full round).
    pub fn step_round(&mut self) {
        self.real.act(|side, _| side.pool.step_round());
        self.ideal.act(|side, _| side.pool.step_round());
    }

    /// Runs `rounds` shared clock ticks.
    pub fn idle_rounds(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step_round();
        }
    }

    /// The agreed release round of `instance`'s current period, once open.
    ///
    /// # Panics
    ///
    /// Panics if the two pools disagree — a distinguishing event.
    pub fn release_round(&self, instance: InstanceId) -> Option<u64> {
        let (r, i) = (
            self.real.pool.release_round(instance),
            self.ideal.pool.release_round(instance),
        );
        assert_eq!(r, i, "{instance}: release rounds diverge");
        r
    }

    /// Checks transcript agreement for **every** instance recorded so far
    /// (live and closed), plus the simulator abort flag.
    ///
    /// # Errors
    ///
    /// Returns a [`Divergence`] naming the diverging instance.
    pub fn check(&self) -> Result<(), Divergence> {
        let bare = |reason: String| Divergence {
            reason,
            real: String::new(),
            ideal: String::new(),
        };
        if self.ideal.pool.would_abort() {
            return Err(bare("simulator abort event".to_string()));
        }
        let keys_r: Vec<_> = self.real.ts.keys().copied().collect();
        let keys_i: Vec<_> = self.ideal.ts.keys().copied().collect();
        if keys_r != keys_i {
            return Err(bare(format!(
                "instance sets diverge: real {keys_r:?} vs ideal {keys_i:?}"
            )));
        }
        for (id, tr) in &self.real.ts {
            let ti = &self.ideal.ts[id];
            compare_transcripts(self.level, tr, ti).map_err(|d| Divergence {
                reason: format!("{id}: {}", d.reason),
                ..d
            })?;
        }
        Ok(())
    }

    /// Epoch boundary for one instance: checks agreement of the **whole
    /// pool** recorded so far, then closes `instance`'s released period in
    /// both pools. Returns the index of the epoch just finished for that
    /// instance.
    ///
    /// # Errors
    ///
    /// Returns a [`Divergence`] naming what differed.
    pub fn finish_epoch(&mut self, instance: InstanceId) -> Result<u64, Divergence> {
        // A typo'd id must not vacuously succeed: begin_new_period would
        // no-op in both worlds and the harness would report an epoch
        // turnover that never happened.
        assert!(
            self.real.ts.contains_key(&instance),
            "{instance} was never opened on this harness"
        );
        self.check()?;
        self.real.pool.begin_new_period(instance);
        self.ideal.pool.begin_new_period(instance);
        let e = self.epochs.entry(instance).or_insert(0);
        let finished = *e;
        *e += 1;
        Ok(finished)
    }

    /// Retires `instance` in both pools. Its transcripts stay part of every
    /// later [`check`](PoolDualRun::check).
    pub fn close_instance(&mut self, instance: InstanceId) {
        self.real.act(|side, _| side.pool.close_instance(instance));
        self.ideal.act(|side, _| side.pool.close_instance(instance));
    }

    /// Borrows both pools — the post-run introspection hook for
    /// backend-specific assertions the instance-addressed driver surface
    /// does not carry (e.g. a networked backend's transport statistics).
    pub fn worlds(&self) -> (&R, &I) {
        (&self.real.pool, &self.ideal.pool)
    }

    /// Consumes the harness, returning both per-instance transcript maps.
    pub fn into_transcripts(
        self,
    ) -> (
        BTreeMap<InstanceId, Transcript>,
        BTreeMap<InstanceId, Transcript>,
    ) {
        (self.real.ts, self.ideal.ts)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A periodic echo world (also the `EnvDriver` tests' world): inputs
    /// are leaked, then echoed back on the next tick; `begin_new_period`
    /// drops undelivered inputs. A `bias` byte lets the tests fabricate
    /// divergent pairs.
    pub(crate) struct PeriodicEcho {
        n: usize,
        time: u64,
        pending: VecDeque<(PartyId, Command)>,
        outputs: Vec<(PartyId, Command)>,
        leaks: Vec<Leak>,
        corrupted: Vec<bool>,
        advanced: usize,
        bias: Option<u8>,
        abort: bool,
    }

    impl PeriodicEcho {
        pub(crate) fn new(n: usize) -> Self {
            PeriodicEcho {
                n,
                time: 0,
                pending: VecDeque::new(),
                outputs: Vec::new(),
                leaks: Vec::new(),
                corrupted: vec![false; n],
                advanced: 0,
                bias: None,
                abort: false,
            }
        }

        fn biased(n: usize, bias: u8) -> Self {
            let mut w = Self::new(n);
            w.bias = Some(bias);
            w
        }
    }

    impl World for PeriodicEcho {
        fn n(&self) -> usize {
            self.n
        }
        fn time(&self) -> u64 {
            self.time
        }
        fn input(&mut self, party: PartyId, cmd: Command) {
            self.leaks.push(Leak {
                source: "echo".into(),
                cmd: cmd.clone(),
            });
            let cmd = match (self.bias, &cmd.value) {
                (Some(b), Value::Bytes(v)) => {
                    let mut v = v.clone();
                    v.push(b);
                    Command::new(&cmd.name, Value::Bytes(v))
                }
                _ => cmd,
            };
            self.pending.push_back((party, cmd));
        }
        fn advance(&mut self, _party: PartyId) {
            self.advanced += 1;
            if self.advanced >= self.corrupted.iter().filter(|c| !**c).count() {
                self.advanced = 0;
                self.time += 1;
                while let Some((p, c)) = self.pending.pop_front() {
                    self.outputs.push((p, c));
                }
            }
        }
        fn adversary(&mut self, cmd: AdvCommand) -> Value {
            if let AdvCommand::Corrupt(p) = cmd {
                self.corrupted[p.index()] = true;
                return Value::Bool(true);
            }
            Value::Unit
        }
        fn drain_outputs(&mut self) -> Vec<(PartyId, Command)> {
            std::mem::take(&mut self.outputs)
        }
        fn drain_leaks(&mut self) -> Vec<Leak> {
            std::mem::take(&mut self.leaks)
        }
        fn is_corrupted(&self, party: PartyId) -> bool {
            self.corrupted[party.index()]
        }
    }

    impl SbcWorld for PeriodicEcho {
        fn begin_new_period(&mut self) {
            self.pending.clear();
        }
        fn release_round(&self) -> Option<u64> {
            None
        }
        fn period_end(&self) -> Option<u64> {
            None
        }
        fn would_abort(&self) -> bool {
            self.abort
        }
    }

    #[test]
    fn identical_worlds_pass_every_epoch() {
        let mut dual = DualRun::new(
            PeriodicEcho::new(2),
            PeriodicEcho::new(2),
            CompareLevel::Exact,
        );
        for epoch in 0..3u64 {
            dual.submit(PartyId(0), format!("m{epoch}").as_bytes());
            dual.advance_all();
            assert_eq!(dual.finish_epoch().unwrap(), epoch);
        }
        assert_eq!(dual.epoch(), 3);
        let (tr, ti) = dual.into_transcripts();
        assert_eq!(tr.digest(), ti.digest());
    }

    #[test]
    fn divergent_outputs_detected() {
        let mut dual = DualRun::new(
            PeriodicEcho::new(1),
            PeriodicEcho::biased(1, 0xFF),
            CompareLevel::Exact,
        );
        dual.submit(PartyId(0), b"same-input");
        dual.advance_all();
        let err = dual.check().unwrap_err();
        assert!(err.reason.contains("diverge"), "got: {}", err.reason);
    }

    #[test]
    fn divergence_says_where() {
        use CompareLevel::{Exact, ShapeAndOutputs};
        let out = |t: &mut Transcript, round: u64, m: &[u8]| {
            let (party, cmd) = (PartyId(0), Command::new("Broadcast", Value::bytes(m)));
            t.push(round, EventKind::Output { party, cmd });
        };
        let why = |level, real: &Transcript, ideal: &Transcript| {
            compare_transcripts(level, real, ideal).unwrap_err().reason
        };
        let (mut real, mut ideal) = (Transcript::new(), Transcript::new());
        for t in [&mut real, &mut ideal] {
            (0..3).for_each(|p| t.push(p / 2, EventKind::Advance { party: PartyId(0) }));
        }
        // Event 3, round 7: equal-length byte strings that differ. Exactly
        // that is a divergence; in shape it is none, only the outputs differ.
        out(&mut real, 7, b"aaaa");
        out(&mut ideal, 7, b"bbbb");
        let exact = why(Exact, &real, &ideal);
        assert!(exact.contains("diverge: first divergence at event #3 (round 7): real Output"));
        assert_eq!(real.first_divergence(&ideal, true), None);
        assert!(why(ShapeAndOutputs, &real, &ideal).contains("outputs diverge"));
        // A length difference is a shape divergence.
        out(&mut real, 7, b"bbbb");
        out(&mut ideal, 7, b"bbbbb");
        assert!(why(ShapeAndOutputs, &real, &ideal)
            .contains("shapes diverge: first divergence at event #4"));
        // A proper prefix: the shorter side is named.
        let shorter = Transcript {
            events: real.events[..2].to_vec(),
        };
        assert!(why(Exact, &shorter, &real).contains("real ends after 2 events"));
        assert!(why(Exact, &real, &shorter).contains("ideal ends after 2 events"));
    }

    #[test]
    fn simulator_abort_detected() {
        let real = PeriodicEcho::new(1);
        let mut ideal = PeriodicEcho::new(1);
        ideal.abort = true;
        let dual = DualRun::new(real, ideal, CompareLevel::Exact);
        let err = dual.check().unwrap_err();
        assert!(err.reason.contains("abort"));
    }

    #[test]
    fn begin_new_period_drops_pending_between_epochs() {
        let mut dual = DualRun::new(
            PeriodicEcho::new(2),
            PeriodicEcho::new(2),
            CompareLevel::Exact,
        );
        // Queue an input but end the epoch before it is delivered: the next
        // epoch must not echo it.
        dual.submit(PartyId(1), b"stale");
        dual.finish_epoch().unwrap();
        dual.advance_all();
        dual.check().unwrap();
        let (tr, _) = dual.into_transcripts();
        assert!(tr.outputs().is_empty(), "stale input was dropped");
    }

    #[test]
    fn default_driver_methods_drive_the_world() {
        let mut w = PeriodicEcho::new(3);
        w.adversary(AdvCommand::Corrupt(PartyId(2)));
        w.submit(PartyId(0), b"via-default");
        w.tick();
        assert_eq!(w.time(), 1, "tick advanced the round");
        assert_eq!(w.drain_outputs().len(), 1);
    }

    #[test]
    fn default_join_at_is_the_idle_replay() {
        // join_at's default must behave exactly like advancing every party
        // for the missing rounds — the pre-offset-join pool catch-up.
        let mut replayed = PeriodicEcho::new(3);
        for _ in 0..5 {
            for p in 0..3 {
                replayed.advance(PartyId(p));
            }
        }
        let mut joined = PeriodicEcho::new(3);
        joined.join_at(5);
        assert_eq!(joined.time(), replayed.time());
        // Joining backwards (or at the current round) is a no-op.
        joined.join_at(2);
        assert_eq!(joined.time(), 5);
    }

    #[test]
    fn corrupt_shorthand_matches_adv_command() {
        let mut dual = DualRun::new(
            PeriodicEcho::new(2),
            PeriodicEcho::new(2),
            CompareLevel::Exact,
        );
        let (r, i) = dual.corrupt(PartyId(1));
        assert_eq!(r, Value::Bool(true));
        assert_eq!(i, Value::Bool(true));
        dual.check().unwrap();
    }

    /// A pool of [`PeriodicEcho`] instances over one shared clock and a
    /// global corruption vector — the minimal [`PoolWorld`].
    struct EchoPool {
        n: usize,
        round: u64,
        next: u64,
        live: BTreeMap<u64, PeriodicEcho>,
        corrupted: Vec<bool>,
        bias: Option<u8>,
    }

    impl EchoPool {
        fn new(n: usize) -> Self {
            EchoPool {
                n,
                round: 0,
                next: 0,
                live: BTreeMap::new(),
                corrupted: vec![false; n],
                bias: None,
            }
        }

        fn biased(n: usize, bias: u8) -> Self {
            let mut p = Self::new(n);
            p.bias = Some(bias);
            p
        }
    }

    impl PoolWorld for EchoPool {
        type OpenError = std::convert::Infallible;
        fn n(&self) -> usize {
            self.n
        }
        fn round(&self) -> u64 {
            self.round
        }
        fn open_instance(&mut self) -> Result<InstanceId, Self::OpenError> {
            let id = self.next;
            self.next += 1;
            let mut w = match self.bias {
                Some(b) => PeriodicEcho::biased(self.n, b),
                None => PeriodicEcho::new(self.n),
            };
            for (p, c) in self.corrupted.clone().iter().enumerate() {
                if *c {
                    w.adversary(AdvCommand::Corrupt(PartyId(p as u32)));
                }
            }
            w.time = self.round;
            self.live.insert(id, w);
            Ok(InstanceId(id))
        }
        fn live_instances(&self) -> Vec<InstanceId> {
            self.live.keys().copied().map(InstanceId).collect()
        }
        fn input(&mut self, instance: InstanceId, party: PartyId, cmd: Command) {
            if let Some(w) = self.live.get_mut(&instance.0) {
                w.input(party, cmd);
            }
        }
        fn adversary(&mut self, instance: InstanceId, cmd: AdvCommand) -> Value {
            match self.live.get_mut(&instance.0) {
                Some(w) => w.adversary(cmd),
                None => Value::Unit,
            }
        }
        fn corrupt(&mut self, party: PartyId) -> Option<Vec<(InstanceId, Value)>> {
            if self.corrupted[party.index()] {
                return None;
            }
            self.corrupted[party.index()] = true;
            let mut views = Vec::new();
            for (id, w) in self.live.iter_mut() {
                views.push((InstanceId(*id), w.adversary(AdvCommand::Corrupt(party))));
            }
            Some(views)
        }
        fn is_corrupted(&self, party: PartyId) -> bool {
            self.corrupted[party.index()]
        }
        fn step_round(&mut self) {
            for w in self.live.values_mut() {
                for p in 0..self.n {
                    if !self.corrupted[p] {
                        w.advance(PartyId(p as u32));
                    }
                }
            }
            self.round += 1;
        }
        fn drain_outputs(&mut self) -> Vec<(InstanceId, PartyId, Command)> {
            let mut outs = Vec::new();
            for (id, w) in self.live.iter_mut() {
                for (p, c) in w.drain_outputs() {
                    outs.push((InstanceId(*id), p, c));
                }
            }
            outs
        }
        fn drain_leaks(&mut self) -> Vec<(InstanceId, Leak)> {
            let mut leaks = Vec::new();
            for (id, w) in self.live.iter_mut() {
                for l in w.drain_leaks() {
                    leaks.push((InstanceId(*id), l));
                }
            }
            leaks
        }
        fn release_round(&self, _instance: InstanceId) -> Option<u64> {
            None
        }
        fn period_end(&self, _instance: InstanceId) -> Option<u64> {
            None
        }
        fn begin_new_period(&mut self, instance: InstanceId) {
            if let Some(w) = self.live.get_mut(&instance.0) {
                w.begin_new_period();
            }
        }
        fn close_instance(&mut self, instance: InstanceId) {
            self.live.remove(&instance.0);
        }
    }

    #[test]
    fn pool_dual_run_identical_pools_pass_keyed_checks() {
        let mut dual = PoolDualRun::new(EchoPool::new(2), EchoPool::new(2), CompareLevel::Exact);
        let a = dual.open_instance();
        let b = dual.open_instance();
        assert_ne!(a, b);
        dual.submit(a, PartyId(0), b"to-a");
        dual.submit(b, PartyId(1), b"to-b");
        dual.step_round();
        dual.check().unwrap();
        assert_eq!(dual.finish_epoch(a).unwrap(), 0);
        assert_eq!(dual.epoch(a), 1);
        assert_eq!(dual.epoch(b), 0);
        let (tr, ti) = dual.into_transcripts();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[&a].digest(), ti[&a].digest());
        assert_eq!(tr[&b].digest(), ti[&b].digest());
        assert_eq!(tr[&a].outputs().len(), 1, "instance outputs stay keyed");
    }

    #[test]
    fn pool_dual_run_divergence_names_the_instance() {
        let mut dual = PoolDualRun::new(
            EchoPool::new(1),
            EchoPool::biased(1, 0xAA),
            CompareLevel::Exact,
        );
        let a = dual.open_instance();
        let b = dual.open_instance();
        dual.submit(b, PartyId(0), b"diverges-here");
        dual.step_round();
        let err = dual.check().unwrap_err();
        assert!(
            err.reason.starts_with(&format!("{b}: ")),
            "reason leads with the instance: {}",
            err.reason
        );
        // Input, its leak, then the biased echo: `b`'s third event.
        assert!(err.reason.contains("event #2 (round 0)"), "{}", err.reason);
        let _ = a;
    }

    #[test]
    fn pool_dual_run_global_corruption_hits_every_instance() {
        let mut dual = PoolDualRun::new(EchoPool::new(2), EchoPool::new(2), CompareLevel::Exact);
        let a = dual.open_instance();
        let b = dual.open_instance();
        let (r, i) = dual.corrupt(PartyId(0));
        assert!(r && i);
        // A second corruption of the same party is refused in both pools.
        let (r, i) = dual.corrupt(PartyId(0));
        assert!(!r && !i);
        // The shared clock keeps ticking for the remaining honest party.
        dual.submit(a, PartyId(1), b"still-live");
        dual.step_round();
        dual.check().unwrap();
        dual.close_instance(b);
        dual.step_round();
        dual.check().unwrap();
        assert_eq!(dual.round(), 2);
    }
}
