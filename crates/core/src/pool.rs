//! Instance-multiplexed simultaneous broadcast: many concurrent SBC
//! instances over one shared world stack.
//!
//! The paper's applications never run *one* broadcast: a DURS randomness
//! beacon runs overlapping epoch schedules, an election floor handles
//! parallel motions, an auction house sells concurrent lots. This module
//! provides the execution surface for that pattern:
//!
//! * [`InstanceId`] — names one SBC instance for the life of the pool
//!   (re-exported from `sbc_uc::exec`, where the instance-addressed
//!   [`PoolWorld`] trait lives).
//! * [`PooledSbcWorld`] — the world layer: many concurrent instances of
//!   any [`SbcBackend`], sharing **one clock** (a single round counter
//!   batch-steps every live instance), **one corruption state** (per-party
//!   and global across instances, exactly the UC model where the adversary
//!   corrupts a *party*, not a party-in-a-session), and **one seed** (each
//!   instance's randomness — including its random-oracle view — is a
//!   domain-separated fork keyed by instance id, the standard UC-with-
//!   joint-state session-id separation).
//! * [`SbcPool`] — the session layer: the fallible, instance-addressed
//!   sibling of [`SbcSession`](crate::api::SbcSession). `open_instance` /
//!   [`submit`](SbcPool::submit) / [`step_round`](SbcPool::step_round)
//!   (one shared clock tick for *all* live instances) /
//!   [`run_epoch`](SbcPool::run_epoch) / [`finish`](SbcPool::finish), plus
//!   the full per-instance adversarial surface.
//!
//! `SbcSession` is the single-instance special case of this module: a
//! session is an [`SbcPool`] holding exactly one instance, and — because
//! the first instance of a pool inherits the pool seed unchanged — a
//! one-instance pool and a session built from the same seed agree **bit
//! for bit**.
//!
//! # Sharing, precisely
//!
//! | state | scope | why |
//! |---|---|---|
//! | clock round | pool-global | one `G_clock`; [`SbcPool::step_round`] ticks every live instance |
//! | corruption | per-party, pool-global | UC corruption is of a party; [`SbcPool::corrupt`] hits all instances |
//! | randomness / `F_RO` | per-instance fork | instance ids are session ids; domain separation keeps instances independent |
//! | broadcast period, epoch | per-instance | each instance opens, releases, and turns epochs over on its own schedule |
//!
//! An instance opened at pool round `T` joins the shared clock at `T` in
//! **O(1)** via [`SbcWorld::join_at`]: a fresh stack is verifiably idle, so
//! the catch-up is a clock fast-forward, bit-identical to the literal
//! `O(T·n)` idle-round replay (which remains the guarded fallback). Every
//! instance therefore reports the same time and `τ_rel`s are comparable
//! across instances, and opening instances on a long-lived pool costs the
//! same at round 0 and round 10⁶.
//!
//! # One tick, one thread
//!
//! One shared clock tick ([`SbcPool::step_round`] /
//! [`PoolWorld::step_round`]) steps every live instance once, in
//! instance-id order, on the calling thread: `world.tick()`, then a drain
//! of that world's leaks and outputs into the pool's instance-keyed
//! buffers. Nothing in this crate spawns a thread, and the id-ordered
//! drain is what fixes the pool's leak and output order.
//!
//! # Example: two concurrent instances
//!
//! ```
//! use sbc_core::pool::SbcPool;
//!
//! # fn main() -> Result<(), sbc_core::api::SbcError> {
//! let mut pool = SbcPool::builder(3).seed(b"pool-docs").build()?;
//! let lot_a = pool.open_instance()?;
//! let lot_b = pool.open_instance()?;
//! pool.submit(lot_a, 0, b"bid on A")?;
//! pool.submit(lot_b, 1, b"bid on B")?;
//! // One shared clock: both lots progress per tick and release together.
//! let a = pool.run_to_completion(lot_a)?;
//! let b = pool.run_to_completion(lot_b)?;
//! assert_eq!(a.release_round, b.release_round);
//! # Ok(())
//! # }
//! ```

use crate::api::{EpochResult, SbcResult};
use crate::error::SbcError;
use crate::protocol::sbc_wire;
use crate::worlds::{RealSbcWorld, SbcBackend, SbcParams};
use sbc_primitives::drbg::Drbg;
use sbc_uc::corruption::CorruptionTracker;
use sbc_uc::exec::{PoolWorld, SbcWorld};
use sbc_uc::ids::PartyId;
use sbc_uc::value::{Command, Value};
use sbc_uc::world::{AdvCommand, Leak};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub use sbc_uc::exec::InstanceId;

/// The world layer of the pool: many concurrent instances of one
/// [`SbcBackend`], driven through the instance-addressed [`PoolWorld`]
/// trait — the inherent methods are only what that trait has no word for.
///
/// The pool owns the shared state — the round counter and the global
/// corruption set — and routes instance-scoped actions to the
/// per-instance backend worlds. Each instance world is built from a
/// domain-separated fork of the pool seed (`seed` itself for instance 0,
/// `seed/"instance"/id` for later ones), so a real and an ideal pool built
/// from the same seed pair up instance by instance — the property
/// [`PoolDualRun`](sbc_uc::exec::PoolDualRun) exploits for keyed
/// transcript comparison.
#[derive(Debug)]
pub struct PooledSbcWorld<W: SbcWorld> {
    params: SbcParams,
    seed: Vec<u8>,
    round: u64,
    next: u64,
    live: BTreeMap<u64, W>,
    retired: BTreeSet<u64>,
    /// The global corruption set, under the instance worlds' own rule.
    corr: CorruptionTracker,
    outputs: Vec<(InstanceId, PartyId, Command)>,
    leaks: Vec<(InstanceId, Leak)>,
    aborted: bool,
}

impl<W: SbcBackend> PooledSbcWorld<W> {
    /// Creates an empty pool.
    ///
    /// # Errors
    ///
    /// [`SbcError::InvalidParams`] if the parameters violate Theorem 2's
    /// constraints — checked once here, so instance creation is infallible.
    pub fn new(params: SbcParams, seed: &[u8]) -> Result<Self, SbcError> {
        params.validate()?;
        Ok(PooledSbcWorld {
            params,
            seed: seed.to_vec(),
            round: 0,
            next: 0,
            live: BTreeMap::new(),
            retired: BTreeSet::new(),
            corr: CorruptionTracker::new(params.n),
            outputs: Vec::new(),
            leaks: Vec::new(),
            aborted: false,
        })
    }

    /// Retires the lowest live instance whose world cannot make progress
    /// ([`SbcWorld::fault`]) and returns it with the fault. Its buffered
    /// outputs go with it: a faulted instance never releases, and the
    /// other instances' outputs stay buffered.
    fn retire_faulted(&mut self) -> Option<(InstanceId, String)> {
        let (id, detail) = self
            .live
            .iter()
            .find_map(|(&id, w)| Some((InstanceId(id), w.fault()?.to_string())))?;
        self.close_instance(id);
        self.outputs.retain(|(i, ..)| *i != id);
        Some((id, detail))
    }
}

impl<W: SbcWorld> PooledSbcWorld<W> {
    fn sync(&mut self, id: u64) {
        let Some(world) = self.live.get_mut(&id) else {
            return;
        };
        for leak in world.drain_leaks() {
            self.leaks.push((InstanceId(id), leak));
        }
        for (party, cmd) in world.drain_outputs() {
            self.outputs.push((InstanceId(id), party, cmd));
        }
    }

    /// The experiment parameters (shared by every instance).
    pub fn params(&self) -> SbcParams {
        self.params
    }

    /// Whether `instance` is live (opened and not yet closed).
    pub fn is_live(&self, instance: InstanceId) -> bool {
        self.live.contains_key(&instance.0)
    }

    /// Whether `instance` has been closed.
    pub fn is_retired(&self, instance: InstanceId) -> bool {
        self.retired.contains(&instance.0)
    }

    /// Borrows the backend world of a live instance — the introspection
    /// seam for backend-specific assertions (e.g. a networked backend's
    /// transport statistics) that the instance-addressed [`PoolWorld`]
    /// surface deliberately does not carry.
    pub fn instance_world(&self, instance: InstanceId) -> Option<&W> {
        self.live.get(&instance.0)
    }

    /// Number of retired (finished, not yet forgotten) instance ids still
    /// tracked.
    pub fn retired_count(&self) -> usize {
        self.retired.len()
    }

    /// Number of release outputs buffered and not yet drained.
    pub fn buffered_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of leaks buffered and not yet drained.
    pub fn buffered_leaks(&self) -> usize {
        self.leaks.len()
    }

    /// Forgets a retired instance entirely: its id leaves the retired set,
    /// so the pool no longer distinguishes it from an id that never
    /// existed. Returns whether the id was in the retired set. Ids are
    /// never reused (`next` only grows), and a sticky abort recorded at
    /// retirement survives the forget — pruning reclaims bookkeeping, it
    /// cannot launder an abort.
    pub fn forget_retired(&mut self, instance: InstanceId) -> bool {
        self.retired.remove(&instance.0)
    }
}

impl<W: SbcBackend> PoolWorld for PooledSbcWorld<W> {
    type OpenError = SbcError;
    fn n(&self) -> usize {
        self.params.n
    }
    fn round(&self) -> u64 {
        self.round
    }
    /// Builds a backend world on the instance's domain-separated seed
    /// fork, replays the global corruption state into it, and joins it to
    /// the shared clock round in O(1) via [`SbcWorld::join_at`] (a fresh
    /// stack is verifiably idle, so the fast path applies; the cost is
    /// independent of the pool round).
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SbcBackend::from_params`] error. A failed
    /// open consumes no instance id and leaves the pool unchanged.
    fn open_instance(&mut self) -> Result<InstanceId, SbcError> {
        let id = self.next;
        // Instance 0 inherits the pool seed unchanged: a one-instance pool
        // is bit-for-bit the plain single-session world.
        let sub_seed = if id == 0 {
            self.seed.clone()
        } else {
            let mut s = self.seed.clone();
            s.extend_from_slice(b"/instance/");
            s.extend_from_slice(&id.to_be_bytes());
            s
        };
        let mut world = W::from_params(self.params, &sub_seed)?;
        self.next += 1;
        for p in self.corr.corrupted() {
            world.adversary(AdvCommand::Corrupt(p));
        }
        world.join_at(self.round);
        self.live.insert(id, world);
        self.sync(id);
        Ok(InstanceId(id))
    }
    fn live_instances(&self) -> Vec<InstanceId> {
        self.live.keys().copied().map(InstanceId).collect()
    }
    /// Ignored for unknown or closed instances — typed errors live at the
    /// [`SbcPool`] layer.
    fn input(&mut self, instance: InstanceId, party: PartyId, cmd: Command) {
        if let Some(world) = self.live.get_mut(&instance.0) {
            world.input(party, cmd);
        }
        self.sync(instance.0);
    }
    fn adversary(&mut self, instance: InstanceId, cmd: AdvCommand) -> Value {
        let resp = match self.live.get_mut(&instance.0) {
            Some(world) => world.adversary(cmd),
            None => Value::Unit,
        };
        self.sync(instance.0);
        resp
    }
    /// Corrupts `party` in every live instance at once, recording the
    /// global corruption for instances opened later.
    ///
    /// The decision is taken **here**, not in the backends: a pool must be
    /// able to corrupt before any instance exists, so it keeps a
    /// [`CorruptionTracker`] of its own — the rule the backend worlds
    /// enforce. If a backend ever disagreed (refused after the pool
    /// accepted), its `Bool(false)` response would fail the session
    /// layer's response parse as [`SbcError::Internal`] — loud, not silent
    /// drift.
    fn corrupt(&mut self, party: PartyId) -> Option<Vec<(InstanceId, Value)>> {
        if self.corr.is_corrupted(party) || self.corr.corrupt(party).is_err() {
            return None;
        }
        let ids: Vec<u64> = self.live.keys().copied().collect();
        let mut views = Vec::with_capacity(ids.len());
        for id in ids {
            let resp = self
                .live
                .get_mut(&id)
                .expect("id drawn from live set")
                .adversary(AdvCommand::Corrupt(party));
            self.sync(id);
            views.push((InstanceId(id), resp));
        }
        Some(views)
    }
    fn is_corrupted(&self, party: PartyId) -> bool {
        self.corr.is_corrupted(party)
    }
    /// Every live instance runs one full round ([`SbcWorld::tick`], the
    /// per-party `advance` loop; backend worlds ignore corrupted
    /// parties), in instance-id order, each drained into the pool's
    /// instance-keyed buffers before the next one steps.
    fn step_round(&mut self) {
        let ids: Vec<u64> = self.live.keys().copied().collect();
        for id in ids {
            if let Some(world) = self.live.get_mut(&id) {
                world.tick();
            }
            self.sync(id);
        }
        self.round += 1;
    }
    fn drain_outputs(&mut self) -> Vec<(InstanceId, PartyId, Command)> {
        std::mem::take(&mut self.outputs)
    }
    fn drain_leaks(&mut self) -> Vec<(InstanceId, Leak)> {
        std::mem::take(&mut self.leaks)
    }
    fn release_round(&self, instance: InstanceId) -> Option<u64> {
        self.live.get(&instance.0).and_then(|w| w.release_round())
    }
    fn period_end(&self, instance: InstanceId) -> Option<u64> {
        self.live.get(&instance.0).and_then(|w| w.period_end())
    }
    fn begin_new_period(&mut self, instance: InstanceId) {
        if let Some(world) = self.live.get_mut(&instance.0) {
            world.begin_new_period();
        }
    }
    /// Any simulator-abort flag the instance carried stays sticky on the
    /// pool.
    ///
    /// The instance's world is drained **before** removal, so leaks and
    /// outputs still buffered inside it surface through
    /// [`drain_leaks`](PoolWorld::drain_leaks) /
    /// [`drain_outputs`](PoolWorld::drain_outputs) instead of being
    /// dropped with the world — retiring is a final drain, never a silent
    /// discard.
    fn close_instance(&mut self, instance: InstanceId) {
        self.sync(instance.0);
        if let Some(world) = self.live.remove(&instance.0) {
            self.aborted |= world.would_abort();
            self.retired.insert(instance.0);
        }
    }
    /// Whether any instance — live or retired — hit a simulation-abort
    /// event.
    fn would_abort(&self) -> bool {
        self.aborted || self.live.values().any(|w| w.would_abort())
    }
}

/// Builder for [`SbcPool`] — same parameter and adversary surface as
/// [`SbcSessionBuilder`](crate::api::SbcSessionBuilder), producing a pool
/// instead of a single-instance session.
#[derive(Clone, Debug)]
pub struct SbcPoolBuilder {
    params: SbcParams,
    seed: Vec<u8>,
    corrupt_at_start: Vec<u32>,
    capture_leaks: bool,
    leak_cap: Option<usize>,
}

impl SbcPoolBuilder {
    /// Broadcast period span Φ (rounds) — shared by every instance.
    pub fn phi(mut self, phi: u64) -> Self {
        self.params.phi = phi;
        self
    }

    /// Delivery delay ∆ (rounds after the period ends).
    pub fn delta(mut self, delta: u64) -> Self {
        self.params.delta = delta;
        self
    }

    /// TLE leakage advantage `α_TLE`.
    pub fn tle_alpha(mut self, alpha: u64) -> Self {
        self.params.tle_alpha = alpha;
        self
    }

    /// TLE ciphertext-generation delay.
    pub fn tle_delay(mut self, delay: u64) -> Self {
        self.params.tle_delay = delay;
        self
    }

    /// Experiment seed (determines all randomness; instances run on
    /// domain-separated forks).
    pub fn seed(mut self, seed: &[u8]) -> Self {
        self.seed = seed.to_vec();
        self
    }

    /// Corrupts `parties` (globally) at pool start, before any input.
    /// Dynamic adversarial actions (adaptive corruption, wire injection,
    /// control-channel commands) live on [`SbcPool`] itself.
    pub fn corrupt(mut self, parties: &[u32]) -> Self {
        self.corrupt_at_start.extend_from_slice(parties);
        self
    }

    /// Retains every adversary-visible leak for inspection through
    /// [`SbcPool::leaks`] instead of discarding it.
    pub fn capture_leaks(mut self) -> Self {
        self.capture_leaks = true;
        self
    }

    /// Caps each instance's captured-leak buffer at `cap` entries,
    /// evicting the oldest and counting evictions (see
    /// [`SbcPool::leak_overflow`]). Uncapped (the default) retains
    /// everything — the behavior every indistinguishability experiment
    /// relies on; long-lived services set a cap so leak capture can stay
    /// on without growing per-instance memory without bound. Implies
    /// nothing about capture itself — combine with
    /// [`capture_leaks`](SbcPoolBuilder::capture_leaks).
    pub fn leak_cap(mut self, cap: usize) -> Self {
        self.leak_cap = Some(cap);
        self
    }

    /// Builds the pool over the real protocol stack.
    ///
    /// # Errors
    ///
    /// * [`SbcError::InvalidParams`] if the parameters violate Theorem 2's
    ///   constraints or `n = 0`.
    /// * [`SbcError::PartyOutOfRange`] if the adversary configuration
    ///   corrupts a party index `≥ n`.
    pub fn build(self) -> Result<SbcPool, SbcError> {
        self.build_backend::<RealSbcWorld>()
    }

    /// Builds the pool over any [`SbcBackend`] — the ideal world
    /// (`F_SBC + S_SBC` per instance) is `build_backend::<IdealSbcWorld>()`.
    ///
    /// # Errors
    ///
    /// Same as [`build`](SbcPoolBuilder::build).
    pub fn build_backend<W: SbcBackend>(self) -> Result<SbcPool<W>, SbcError> {
        self.params.validate()?;
        for &p in &self.corrupt_at_start {
            if p as usize >= self.params.n {
                return Err(SbcError::PartyOutOfRange {
                    party: p,
                    n: self.params.n,
                });
            }
        }
        let mut adv_seed = self.seed.clone();
        adv_seed.extend_from_slice(b"/session-adversary");
        let mut pool = SbcPool {
            world: PooledSbcWorld::new(self.params, &self.seed)?,
            capture_leaks: self.capture_leaks,
            leak_cap: self.leak_cap,
            adv_rng: Drbg::from_seed(&adv_seed),
            state: BTreeMap::new(),
        };
        for &p in &self.corrupt_at_start {
            // Range-checked above; double entries surface as CorruptedParty.
            pool.corrupt(p)?;
        }
        Ok(pool)
    }
}

/// Per-instance session bookkeeping.
#[derive(Debug, Default)]
struct InstanceState {
    epoch: u64,
    submitted: usize,
    released: Option<SbcResult>,
    leaks: Vec<Leak>,
    /// Leaks evicted from `leaks` by the pool's leak cap (0 when
    /// uncapped): the typed overflow counter that keeps a bounded buffer
    /// honest.
    dropped_leaks: u64,
    /// Why [`SbcPool::step_round`] retired the instance unreleased, if it
    /// did: every later call naming it returns this as
    /// [`SbcError::Undeliverable`].
    undeliverable: Option<String>,
}

/// A point-in-time memory-bookkeeping census of a pool — the steady-state
/// proxy long-lived services watch to prove churn (instances opening and
/// finishing while others run) does not accumulate state.
///
/// All fields count entries, not bytes; a pool that drains and prunes
/// everything it has consumed returns to the all-zeros footprint (modulo
/// whatever is deliberately live).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolFootprint {
    /// Live (open, unfinished) instances.
    pub live: usize,
    /// Finished instances not yet pruned.
    pub retired: usize,
    /// Instances with per-instance bookkeeping still tracked (live +
    /// finished-but-unpruned).
    pub tracked: usize,
    /// Release outputs buffered in the world layer, not yet drained.
    pub buffered_outputs: usize,
    /// Leaks buffered in the world layer, not yet routed to instances.
    pub buffered_leaks: usize,
    /// Captured leaks retained across all tracked instances.
    pub captured_leaks: usize,
    /// Total leaks evicted by the leak cap across all tracked instances.
    pub dropped_leaks: u64,
}

/// A pool of concurrent simultaneous-broadcast instances over one shared
/// world stack — the instance-addressed session API.
///
/// Every method of [`SbcSession`](crate::api::SbcSession) exists here with
/// an extra leading [`InstanceId`] argument; the pool adds
/// [`open_instance`](SbcPool::open_instance) (start a new concurrent
/// instance), [`step_round`](SbcPool::step_round) (one shared clock tick
/// batch-stepping **all** live instances, returning every release that
/// tick produced), and [`finish`](SbcPool::finish) (release + retire an
/// instance). Corruption ([`corrupt`](SbcPool::corrupt)) is per-party and
/// global across instances.
///
/// See the [module docs](self) for the sharing table and the relation to
/// `SbcSession`.
#[derive(Debug)]
pub struct SbcPool<W: SbcWorld = RealSbcWorld> {
    world: PooledSbcWorld<W>,
    capture_leaks: bool,
    leak_cap: Option<usize>,
    adv_rng: Drbg,
    state: BTreeMap<u64, InstanceState>,
}

impl SbcPool {
    /// Starts building a pool for `n` parties.
    pub fn builder(n: usize) -> SbcPoolBuilder {
        SbcPoolBuilder {
            params: SbcParams::default_for(n),
            seed: b"sbc-session".to_vec(),
            corrupt_at_start: Vec::new(),
            capture_leaks: false,
            leak_cap: None,
        }
    }
}

impl<W: SbcBackend> SbcPool<W> {
    /// The experiment parameters (shared by every instance).
    pub fn params(&self) -> SbcParams {
        self.world.params()
    }

    /// The shared clock round.
    pub fn round(&self) -> u64 {
        self.world.round()
    }

    /// Fast-forwards a **fresh** pool to shared-clock round `round` with
    /// the next instance id at `next_instance` — the restore seam behind
    /// era-based checkpointing in `sbc-service`.
    ///
    /// At a checkpoint boundary every pre-boundary instance has been
    /// delivered and pruned, so the pool's entire state is the pair
    /// `(round, next)`: instance seed forks depend only on the id, a new
    /// instance catches up to any round in O(1) via `join_at`, and the
    /// session-adversary DRBG is untouched as long as no adversarial
    /// operation has consumed it. A fresh pool fast-forwarded this way
    /// therefore continues **bit-identically** to the original — for
    /// pools driven without corruption or injection (the service's
    /// discipline). Pools that have corrupted parties or consumed
    /// adversarial randomness are outside the checkpoint contract; their
    /// restore path is full journal replay.
    ///
    /// # Errors
    ///
    /// [`SbcError::NotFresh`] if the pool has already opened an instance
    /// or advanced its clock — fast-forward would silently discard that
    /// history.
    pub fn resume_at(&mut self, round: u64, next_instance: u64) -> Result<(), SbcError> {
        if self.world.round != 0
            || self.world.next != 0
            || !self.world.retired.is_empty()
            || !self.state.is_empty()
        {
            return Err(SbcError::NotFresh {
                round: self.world.round,
                opened: self.world.next,
            });
        }
        self.world.round = round;
        self.world.next = next_instance;
        Ok(())
    }

    /// Ids of all live instances, in id order.
    pub fn live_instances(&self) -> Vec<InstanceId> {
        self.world.live_instances()
    }

    /// The id the next [`open_instance`](SbcPool::open_instance) call
    /// will assign — equivalently, how many instance ids this pool has
    /// consumed. Together with [`round`](SbcPool::round) this is the
    /// complete fast-forward coordinate for [`resume_at`](SbcPool::resume_at).
    pub fn next_instance_id(&self) -> u64 {
        self.world.next
    }

    /// Whether `party` is corrupted (globally, in every instance).
    pub fn is_corrupted(&self, party: u32) -> bool {
        self.world.is_corrupted(PartyId(party))
    }

    /// Whether any instance's simulator hit a simulation-abort event
    /// (always `false` on real backends; sticky across
    /// [`finish`](SbcPool::finish)).
    pub fn would_abort(&self) -> bool {
        self.world.would_abort()
    }

    pub(crate) fn check_instance(&self, instance: InstanceId) -> Result<(), SbcError> {
        if self.world.is_live(instance) {
            Ok(())
        } else if self.world.is_retired(instance) {
            let fault = self
                .state
                .get(&instance.0)
                .and_then(|s| s.undeliverable.as_ref());
            Err(match fault {
                Some(detail) => SbcError::Undeliverable {
                    instance: instance.0,
                    detail: detail.clone(),
                },
                None => SbcError::InstanceFinished {
                    instance: instance.0,
                },
            })
        } else {
            Err(SbcError::UnknownInstance {
                instance: instance.0,
            })
        }
    }

    /// Like [`check_instance`](Self::check_instance) but accepts finished
    /// instances — for read-only surfaces (captured leaks) that outlive the
    /// instance by design.
    fn check_known(&self, instance: InstanceId) -> Result<(), SbcError> {
        if self.world.is_live(instance) || self.world.is_retired(instance) {
            Ok(())
        } else {
            Err(SbcError::UnknownInstance {
                instance: instance.0,
            })
        }
    }

    fn check_party(&self, party: u32) -> Result<(), SbcError> {
        if (party as usize) >= self.params().n {
            return Err(SbcError::PartyOutOfRange {
                party,
                n: self.params().n,
            });
        }
        Ok(())
    }

    fn state_mut(&mut self, instance: InstanceId) -> &mut InstanceState {
        self.state.entry(instance.0).or_default()
    }

    fn sync_leaks(&mut self) {
        for (id, leak) in self.world.drain_leaks() {
            if self.capture_leaks {
                if let Some(st) = self.state.get_mut(&id.0) {
                    match self.leak_cap {
                        // A zero cap retains nothing: count and move on.
                        Some(0) => st.dropped_leaks += 1,
                        Some(cap) => {
                            if st.leaks.len() >= cap {
                                let excess = st.leaks.len() + 1 - cap;
                                st.leaks.drain(..excess);
                                st.dropped_leaks += excess as u64;
                            }
                            st.leaks.push(leak);
                        }
                        None => st.leaks.push(leak),
                    }
                }
            }
        }
    }

    /// Opens a new concurrent SBC instance, returning its id. The instance
    /// joins the shared clock at the current round — in O(1), via the
    /// backend's [`SbcWorld::join_at`] — and inherits the global
    /// corruption state; its randomness (including its oracle view) is an
    /// independent, domain-separated fork of the pool seed.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SbcBackend::from_params`] error. A
    /// failed open consumes no instance id and leaves the pool unchanged.
    pub fn open_instance(&mut self) -> Result<InstanceId, SbcError> {
        let id = self.world.open_instance()?;
        self.state.insert(id.0, InstanceState::default());
        self.sync_leaks();
        Ok(id)
    }

    /// The zero-based epoch `instance` is currently accepting submissions
    /// for.
    ///
    /// # Errors
    ///
    /// [`SbcError::UnknownInstance`] / [`SbcError::InstanceFinished`].
    pub fn epoch(&self, instance: InstanceId) -> Result<u64, SbcError> {
        self.check_instance(instance)?;
        Ok(self.last_epoch(instance))
    }

    /// The epoch `instance` is in, or was in when it was retired.
    pub(crate) fn last_epoch(&self, instance: InstanceId) -> u64 {
        self.state.get(&instance.0).map(|s| s.epoch).unwrap_or(0)
    }

    /// Checks whether an honest submission by `party` to `instance` would
    /// currently be accepted, without submitting anything.
    ///
    /// # Errors
    ///
    /// The same errors [`submit`](SbcPool::submit) would return.
    pub fn check_submittable(&self, instance: InstanceId, party: u32) -> Result<(), SbcError> {
        self.check_instance(instance)?;
        self.check_party(party)?;
        if self.world.is_corrupted(PartyId(party)) {
            return Err(SbcError::CorruptedParty { party });
        }
        if let Some(t_end) = self.world.period_end(instance) {
            let now = self.world.round();
            if now + self.params().tle_delay >= t_end {
                return Err(SbcError::SubmitAfterClose { round: now, t_end });
            }
        }
        Ok(())
    }

    /// Submits `message` for broadcast by honest `party` in `instance`'s
    /// current epoch.
    ///
    /// # Errors
    ///
    /// * [`SbcError::UnknownInstance`] / [`SbcError::InstanceFinished`] for
    ///   a bad instance id.
    /// * [`SbcError::PartyOutOfRange`] if `party ≥ n`.
    /// * [`SbcError::CorruptedParty`] if `party` is corrupted (in every
    ///   instance — corruption is global).
    /// * [`SbcError::SubmitAfterClose`] if `instance`'s period is too far
    ///   along for the ciphertext to be ready before its `t_end`.
    pub fn submit(
        &mut self,
        instance: InstanceId,
        party: u32,
        message: &[u8],
    ) -> Result<(), SbcError> {
        self.check_submittable(instance, party)?;
        self.state_mut(instance).submitted += 1;
        self.world.input(
            instance,
            PartyId(party),
            Command::new("Broadcast", Value::bytes(message)),
        );
        self.sync_leaks();
        Ok(())
    }

    /// One shared clock tick: every live instance runs one full round.
    /// Returns the releases this tick produced, keyed by instance (several
    /// instances on the same schedule release on the same tick).
    ///
    /// Results are also cached per instance, so a release observed here is
    /// still visible to a later [`run_epoch`](SbcPool::run_epoch) /
    /// [`run_to_completion`](SbcPool::run_to_completion) /
    /// [`finish`](SbcPool::finish) on that instance.
    ///
    /// # Errors
    ///
    /// * [`SbcError::Undeliverable`] if some live instance's backend
    ///   refused a message it built (a networked world's frame over the
    ///   size cap, say). The fault is confined to that instance: it is
    ///   retired unreleased, and every later call naming it returns the
    ///   same error. The other instances' releases of this tick stay
    ///   buffered for the next one, and the pool steps on.
    /// * [`SbcError::Internal`] if honest parties of some instance released
    ///   different vectors or a malformed payload — a broken world
    ///   invariant.
    pub fn step_round(&mut self) -> Result<Vec<(InstanceId, SbcResult)>, SbcError> {
        self.world.step_round();
        self.sync_leaks();
        if let Some((id, detail)) = self.world.retire_faulted() {
            self.sync_leaks();
            self.state_mut(id).undeliverable = Some(detail.clone());
            return Err(SbcError::Undeliverable {
                instance: id.0,
                detail,
            });
        }
        let mut by_instance: BTreeMap<u64, Vec<(PartyId, Command)>> = BTreeMap::new();
        for (id, party, cmd) in self.world.drain_outputs() {
            by_instance.entry(id.0).or_default().push((party, cmd));
        }
        let mut released = Vec::new();
        for (id, outs) in by_instance {
            let instance = InstanceId(id);
            // Outputs of a retired instance are stragglers surfaced by the
            // retirement's final drain (world-layer observables, e.g. a
            // networked backend's close notification) — never session
            // releases. Parsing them as releases would fail the whole pool
            // with `Internal` ("release without an agreed τ_rel"). Only
            // *retired* ids are skipped: an output attributed to an id that
            // was never opened is still a broken world invariant and falls
            // through to the loud `Internal` path below.
            if self.world.is_retired(instance) {
                continue;
            }
            // Agreement, checked against the first party's vector: equal
            // as values is the whole check under `SharedRelease`, where
            // every party holds the one shared list and `==` is a pointer
            // compare; a vector that differs as values is parsed and
            // compared as bytes, which is the exact rule — a `Bytes(b)` and
            // a value encoding to `b` are the same message.
            let parse = |list: &[Value]| -> Vec<Vec<u8>> {
                list.iter()
                    .map(|v| match v {
                        Value::Bytes(b) => b.clone(),
                        other => other.encode(),
                    })
                    .collect()
            };
            let mut agreed: Option<(&Value, Vec<Vec<u8>>)> = None;
            for (party, cmd) in &outs {
                let list = cmd.value.as_list().ok_or_else(|| SbcError::Internal {
                    detail: format!("{instance}: party {} released a non-list payload", party.0),
                })?;
                match &agreed {
                    None => agreed = Some((&cmd.value, parse(list))),
                    Some((first, messages)) if **first != cmd.value && *messages != parse(list) => {
                        return Err(SbcError::Internal {
                            detail: format!(
                            "{instance}: agreement violation: party {} released a different vector",
                            party.0
                        ),
                        })
                    }
                    Some(_) => {}
                }
            }
            let (_, messages) = agreed.expect("outs is non-empty");
            let release_round =
                self.world
                    .release_round(instance)
                    .ok_or_else(|| SbcError::Internal {
                        detail: format!("{instance}: release without an agreed τ_rel"),
                    })?;
            let result = SbcResult {
                messages,
                release_round,
            };
            self.state_mut(instance).released = Some(result.clone());
            released.push((instance, result));
        }
        Ok(released)
    }

    /// Steps the shared clock until `instance` has released, and takes the
    /// release out of its cache slot.
    fn take_release(&mut self, instance: InstanceId) -> Result<SbcResult, SbcError> {
        self.check_instance(instance)?;
        let st = self.state_mut(instance);
        if let Some(result) = st.released.take() {
            return Ok(result);
        }
        if st.submitted == 0 {
            return Err(SbcError::NoInput);
        }
        let budget = self.params().phi + self.params().delta + 4;
        for _ in 0..budget {
            match self.step_round() {
                Ok(_) => {}
                // Another instance's fault is its own: it stays reported to
                // every call naming it.
                Err(SbcError::Undeliverable {
                    instance: other, ..
                }) if other != instance.0 => {}
                Err(e) => return Err(e),
            }
            if let Some(result) = self.state_mut(instance).released.take() {
                return Ok(result);
            }
        }
        Err(SbcError::Timeout { budget })
    }

    /// Runs shared clock ticks until `instance`'s current period releases.
    /// Every other live instance advances too — one clock. The period
    /// stays closed afterwards; use [`run_epoch`](SbcPool::run_epoch) for
    /// instances meant to host several periods, or
    /// [`finish`](SbcPool::finish) to retire the instance.
    ///
    /// # Errors
    ///
    /// * [`SbcError::UnknownInstance`] / [`SbcError::InstanceFinished`].
    /// * [`SbcError::NoInput`] if nothing was submitted to `instance` this
    ///   epoch.
    /// * [`SbcError::Timeout`] if it fails to release within `Φ + ∆ + 4`
    ///   ticks.
    /// * [`SbcError::Internal`] on a broken world invariant.
    pub fn run_to_completion(&mut self, instance: InstanceId) -> Result<SbcResult, SbcError> {
        // Idempotent by contract: the release goes back into its slot.
        let result = self.take_release(instance)?;
        self.state_mut(instance).released = Some(result.clone());
        Ok(result)
    }

    /// Runs `instance`'s current epoch to release and re-opens it for the
    /// next one. The shared clock, each instance's oracle stream, and the
    /// global corruption state carry over.
    ///
    /// # Errors
    ///
    /// Same as [`run_to_completion`](SbcPool::run_to_completion).
    pub fn run_epoch(&mut self, instance: InstanceId) -> Result<EpochResult, SbcError> {
        let result = self.take_release(instance)?;
        let st = self.state_mut(instance);
        let epoch = st.epoch;
        st.epoch += 1;
        st.submitted = 0;
        self.world.begin_new_period(instance);
        Ok(EpochResult {
            epoch,
            messages: result.messages,
            release_round: result.release_round,
        })
    }

    /// Runs `instance` to release, returns its final result, and retires
    /// it: the id stays known, but every further operation on it returns
    /// [`SbcError::InstanceFinished`] — except the captured-leak readers
    /// ([`leaks`](SbcPool::leaks) / [`take_leaks`](SbcPool::take_leaks)),
    /// which keep working so that leaks surfaced by the retirement's final
    /// drain are still observable (the session-level late-drain guarantee,
    /// preserved at the pool layer).
    ///
    /// # Errors
    ///
    /// Same as [`run_to_completion`](SbcPool::run_to_completion).
    pub fn finish(&mut self, instance: InstanceId) -> Result<SbcResult, SbcError> {
        let result = self.take_release(instance)?;
        // Retirement drains the world before removing it; route whatever
        // surfaced into the retained per-instance leak buffer.
        self.world.close_instance(instance);
        self.sync_leaks();
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Adversarial surface
    // ------------------------------------------------------------------

    /// Adaptively corrupts `party` in **every** instance at once (and in
    /// every instance opened later) — per-party corruption is global
    /// across instances, as in the UC model. Returns, per live instance,
    /// the party's pending (not yet broadcast) messages.
    ///
    /// # Errors
    ///
    /// * [`SbcError::PartyOutOfRange`] if `party ≥ n`.
    /// * [`SbcError::CorruptedParty`] if `party` was already corrupted.
    /// * [`SbcError::CorruptionBudgetExceeded`] if corrupting `party` would
    ///   leave no honest party.
    pub fn corrupt(&mut self, party: u32) -> Result<Vec<(InstanceId, Vec<Value>)>, SbcError> {
        self.check_party(party)?;
        if self.world.is_corrupted(PartyId(party)) {
            return Err(SbcError::CorruptedParty { party });
        }
        let Some(views) = self.world.corrupt(PartyId(party)) else {
            // `party` is known honest and in range, so a refusal can only
            // be the dishonest-majority budget `t ≤ n − 1`.
            return Err(SbcError::CorruptionBudgetExceeded { party });
        };
        self.sync_leaks();
        let mut pending = Vec::with_capacity(views.len());
        for (id, resp) in views {
            match resp {
                Value::List(msgs) => pending.push((id, Arc::unwrap_or_clone(msgs))),
                other => {
                    return Err(SbcError::Internal {
                        detail: format!("{id}: unexpected corruption response: {other:?}"),
                    })
                }
            }
        }
        Ok(pending)
    }

    /// Sends a raw UBC wire on behalf of corrupted `party` in `instance`.
    ///
    /// # Errors
    ///
    /// * [`SbcError::UnknownInstance`] / [`SbcError::InstanceFinished`].
    /// * [`SbcError::PartyOutOfRange`] if `party ≥ n`.
    /// * [`SbcError::HonestParty`] if `party` is not corrupted.
    pub fn send_as(
        &mut self,
        instance: InstanceId,
        party: u32,
        wire: Value,
    ) -> Result<(), SbcError> {
        self.check_instance(instance)?;
        self.check_party(party)?;
        if !self.world.is_corrupted(PartyId(party)) {
            return Err(SbcError::HonestParty { party });
        }
        self.world.adversary(
            instance,
            AdvCommand::SendAs {
                party: PartyId(party),
                cmd: Command::new("Broadcast", wire),
            },
        );
        self.sync_leaks();
        Ok(())
    }

    /// The full adversarial-broadcast recipe on behalf of corrupted
    /// `party`, scoped to `instance`: fabricates a time-lock ciphertext,
    /// registers it with that instance's `F_TLE`, derives the mask from its
    /// `F_RO`, and sends the `(c, τ_rel, y)` wire — see
    /// [`SbcSession::inject_message`](crate::api::SbcSession::inject_message).
    ///
    /// # Errors
    ///
    /// * [`SbcError::UnknownInstance`] / [`SbcError::InstanceFinished`].
    /// * [`SbcError::PartyOutOfRange`] / [`SbcError::HonestParty`] as for
    ///   [`send_as`](SbcPool::send_as).
    /// * [`SbcError::PeriodNotOpen`] before `instance`'s first wake-up.
    /// * [`SbcError::SubmitAfterClose`] once `instance`'s period closed.
    pub fn inject_message(
        &mut self,
        instance: InstanceId,
        party: u32,
        message: &[u8],
    ) -> Result<(), SbcError> {
        self.check_instance(instance)?;
        self.check_party(party)?;
        if !self.world.is_corrupted(PartyId(party)) {
            return Err(SbcError::HonestParty { party });
        }
        let Some(tau_rel) = self.world.release_round(instance) else {
            return Err(SbcError::PeriodNotOpen);
        };
        let t_end = self
            .world
            .period_end(instance)
            .ok_or_else(|| SbcError::Internal {
                detail: format!("{instance}: τ_rel agreed without t_end"),
            })?;
        let now = self.world.round();
        if now >= t_end {
            return Err(SbcError::SubmitAfterClose { round: now, t_end });
        }
        let ct = Value::bytes(self.adv_rng.gen_bytes(64));
        let rho = self.adv_rng.gen_bytes(32);
        self.control(
            instance,
            "F_TLE",
            Command::new(
                "Insert",
                Value::list([ct.clone(), Value::bytes(&rho), Value::U64(tau_rel)]),
            ),
        )?;
        let m_bytes = Value::bytes(message).encode();
        let eta = self.control(
            instance,
            "F_RO",
            Command::new(
                "QueryBytes",
                Value::list([Value::bytes(&rho), Value::U64(m_bytes.len() as u64)]),
            ),
        )?;
        let eta = eta.as_bytes().ok_or_else(|| SbcError::Internal {
            detail: format!("{instance}: F_RO control hook returned a non-bytes mask"),
        })?;
        let y: Vec<u8> = m_bytes.iter().zip(eta.iter()).map(|(a, b)| a ^ b).collect();
        self.send_as(instance, party, sbc_wire(&ct, tau_rel, &y))
    }

    /// Raw control-channel access to one instance's functionalities
    /// (`F_TLE` `Insert`/`Leakage`, `F_RO` `QueryBytes`, …). A command the
    /// functionalities refuse, such as a `QueryBytes` longer than
    /// `u32::MAX` bytes, answers `Ok(Value::Unit)`.
    ///
    /// # Errors
    ///
    /// [`SbcError::UnknownInstance`] / [`SbcError::InstanceFinished`].
    pub fn control(
        &mut self,
        instance: InstanceId,
        target: &str,
        cmd: Command,
    ) -> Result<Value, SbcError> {
        self.check_instance(instance)?;
        let resp = self.world.adversary(
            instance,
            AdvCommand::Control {
                target: target.to_string(),
                cmd,
            },
        );
        self.sync_leaks();
        Ok(resp)
    }

    /// The adversary's `F_TLE` leakage view of one instance.
    ///
    /// # Errors
    ///
    /// [`SbcError::UnknownInstance`] / [`SbcError::InstanceFinished`].
    pub fn tle_leakage(&mut self, instance: InstanceId) -> Result<Value, SbcError> {
        self.control(instance, "F_TLE", Command::new("Leakage", Value::Unit))
    }

    /// Adversary-visible leaks captured so far for `instance` (requires
    /// leak capture; empty otherwise). Works for live **and** finished
    /// instances: leaks surfaced by the retirement's final drain stay
    /// readable after [`finish`](SbcPool::finish).
    ///
    /// # Errors
    ///
    /// [`SbcError::UnknownInstance`].
    pub fn leaks(&self, instance: InstanceId) -> Result<&[Leak], SbcError> {
        self.check_known(instance)?;
        Ok(self
            .state
            .get(&instance.0)
            .map(|s| s.leaks.as_slice())
            .unwrap_or(&[]))
    }

    /// Drains the captured leak buffer of `instance` (live or finished —
    /// see [`leaks`](SbcPool::leaks)).
    ///
    /// # Errors
    ///
    /// [`SbcError::UnknownInstance`].
    pub fn take_leaks(&mut self, instance: InstanceId) -> Result<Vec<Leak>, SbcError> {
        self.check_known(instance)?;
        Ok(self
            .state
            .get_mut(&instance.0)
            .map(|s| std::mem::take(&mut s.leaks))
            .unwrap_or_default())
    }

    /// How many captured leaks the leak cap has evicted from `instance`'s
    /// buffer so far (always 0 when the pool is uncapped — see
    /// [`SbcPoolBuilder::leak_cap`]).
    /// Like [`leaks`](SbcPool::leaks), readable for live and finished
    /// instances.
    ///
    /// # Errors
    ///
    /// [`SbcError::UnknownInstance`].
    pub fn leak_overflow(&self, instance: InstanceId) -> Result<u64, SbcError> {
        self.check_known(instance)?;
        Ok(self
            .state
            .get(&instance.0)
            .map(|s| s.dropped_leaks)
            .unwrap_or(0))
    }

    /// A point-in-time census of the pool's per-instance and buffered
    /// state (see [`PoolFootprint`]). O(tracked instances); intended for
    /// steady-state flatness assertions in churn tests and service
    /// telemetry, not the hot path of every tick.
    pub fn footprint(&self) -> PoolFootprint {
        PoolFootprint {
            live: self.world.live_instances().len(),
            retired: self.world.retired_count(),
            tracked: self.state.len(),
            buffered_outputs: self.world.buffered_outputs(),
            buffered_leaks: self.world.buffered_leaks(),
            captured_leaks: self.state.values().map(|s| s.leaks.len()).sum(),
            dropped_leaks: self.state.values().map(|s| s.dropped_leaks).sum(),
        }
    }

    // ------------------------------------------------------------------
    // Retired-instance reclamation
    // ------------------------------------------------------------------

    /// Explicitly reclaims every trace of a **finished** instance: the
    /// cached release, the captured-leak buffer, and the retired-id
    /// bookkeeping. Afterwards the id is indistinguishable from one that
    /// never existed — every operation on it (this method included)
    /// returns [`SbcError::UnknownInstance`].
    ///
    /// This is the bound on long-lived services: [`finish`](SbcPool::finish)
    /// deliberately retains per-instance state (the late-drain guarantee —
    /// leaks surfaced by the retirement drain stay readable), so a
    /// million-instance pool grows without bound until the service prunes
    /// what it has consumed. Read or [`take_leaks`](SbcPool::take_leaks)
    /// anything you still need first; pruning drops it.
    ///
    /// Pruning never reclaims an instance id for reuse, and a sticky
    /// simulator-abort recorded by the instance survives
    /// ([`would_abort`](SbcPool::would_abort) stays `true`).
    ///
    /// # Errors
    ///
    /// * [`SbcError::UnknownInstance`] if `instance` was never opened (or
    ///   already pruned).
    /// * [`SbcError::InstanceLive`] if `instance` has not been finished —
    ///   pruning a live instance would silently discard an unreleased
    ///   period; [`finish`](SbcPool::finish) it first.
    pub fn prune(&mut self, instance: InstanceId) -> Result<(), SbcError> {
        self.check_known(instance)?;
        if self.world.is_live(instance) {
            return Err(SbcError::InstanceLive {
                instance: instance.0,
            });
        }
        self.world.forget_retired(instance);
        self.state.remove(&instance.0);
        Ok(())
    }

    /// [`prune`](SbcPool::prune) for every finished instance at once,
    /// returning how many were reclaimed. The idiomatic end-of-batch call
    /// for services that have already drained what they need.
    pub fn prune_finished(&mut self) -> usize {
        let finished: Vec<InstanceId> = self
            .state
            .keys()
            .map(|id| InstanceId(*id))
            .filter(|id| self.world.is_retired(*id))
            .collect();
        for id in &finished {
            self.world.forget_retired(*id);
            self.state.remove(&id.0);
        }
        finished.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::IdealSbcWorld;

    #[test]
    fn instances_share_one_clock() {
        let mut pool = SbcPool::builder(2).seed(b"clock").build().unwrap();
        let a = pool.open_instance().unwrap();
        pool.submit(a, 0, b"early").unwrap();
        pool.step_round().unwrap();
        pool.step_round().unwrap();
        // B opens at round 2 and joins the shared clock there.
        let b = pool.open_instance().unwrap();
        assert_eq!(pool.round(), 2);
        pool.submit(b, 1, b"late").unwrap();
        let ra = pool.run_to_completion(a).unwrap();
        let rb = pool.run_to_completion(b).unwrap();
        // A woke at round 0 → τ_rel = 5; B woke at round 2 → τ_rel = 7.
        assert_eq!(ra.release_round, 5);
        assert_eq!(rb.release_round, 2 + 3 + 2);
    }

    #[test]
    fn single_instance_pool_matches_plain_session() {
        // Instance 0 inherits the pool seed unchanged: the pool with one
        // instance reproduces SbcSession bit for bit.
        use crate::api::SbcSession;
        let mut s = SbcSession::builder(3).seed(b"bitcompat").build().unwrap();
        s.submit(0, b"one").unwrap();
        s.submit(2, b"two").unwrap();
        let expect = s.run_to_completion().unwrap();

        let mut pool = SbcPool::builder(3).seed(b"bitcompat").build().unwrap();
        let id = pool.open_instance().unwrap();
        pool.submit(id, 0, b"one").unwrap();
        pool.submit(id, 2, b"two").unwrap();
        assert_eq!(pool.run_to_completion(id).unwrap(), expect);
    }

    #[test]
    fn resume_at_continues_bit_identically_from_a_flat_boundary() {
        // Drive a pool through two delivered-and-pruned instances, then
        // fast-forward a fresh pool to the same (round, next) pair: both
        // must produce bit-identical releases from there on.
        let mut a = SbcPool::builder(2).seed(b"resume").build().unwrap();
        for k in 0..2 {
            let id = a.open_instance().unwrap();
            a.submit(id, 0, format!("m{k}").as_bytes()).unwrap();
            a.run_to_completion(id).unwrap();
            a.finish(id).unwrap();
            a.prune(id).unwrap();
        }
        assert_eq!(a.footprint(), PoolFootprint::default(), "flat boundary");
        let (round, next) = (a.round(), 2);

        let mut b = SbcPool::builder(2).seed(b"resume").build().unwrap();
        b.resume_at(round, next).unwrap();
        assert_eq!(b.round(), round);

        let ia = a.open_instance().unwrap();
        let ib = b.open_instance().unwrap();
        assert_eq!(ia, ib, "instance ids continue from the same point");
        a.submit(ia, 1, b"post-boundary").unwrap();
        b.submit(ib, 1, b"post-boundary").unwrap();
        let ra = a.run_to_completion(ia).unwrap();
        let rb = b.run_to_completion(ib).unwrap();
        assert_eq!(ra, rb, "fast-forwarded pool is bit-identical");
    }

    #[test]
    fn resume_at_refuses_a_pool_with_history() {
        let mut pool = SbcPool::builder(2).seed(b"resume-used").build().unwrap();
        pool.open_instance().unwrap();
        assert_eq!(
            pool.resume_at(7, 3),
            Err(SbcError::NotFresh {
                round: 0,
                opened: 1
            })
        );
        let mut ticked = SbcPool::builder(2).seed(b"resume-ticked").build().unwrap();
        ticked.step_round().unwrap();
        assert!(matches!(
            ticked.resume_at(7, 3),
            Err(SbcError::NotFresh { .. })
        ));
    }

    #[test]
    fn batch_release_on_one_tick() {
        let mut pool = SbcPool::builder(2).seed(b"batch").build().unwrap();
        let ids: Vec<_> = (0..4).map(|_| pool.open_instance().unwrap()).collect();
        for (k, id) in ids.iter().enumerate() {
            pool.submit(*id, (k % 2) as u32, format!("m{k}").as_bytes())
                .unwrap();
        }
        let mut releases = Vec::new();
        for _ in 0..8 {
            releases.extend(pool.step_round().unwrap());
            if releases.len() == ids.len() {
                break;
            }
        }
        assert_eq!(releases.len(), 4, "all four released");
        let rounds: Vec<u64> = releases.iter().map(|(_, r)| r.release_round).collect();
        assert!(rounds.iter().all(|r| *r == rounds[0]), "same schedule");
    }

    #[test]
    fn corruption_is_global_across_instances() {
        let mut pool = SbcPool::builder(3).seed(b"global-corr").build().unwrap();
        let a = pool.open_instance().unwrap();
        let b = pool.open_instance().unwrap();
        pool.submit(a, 1, b"pending-a").unwrap();
        let views = pool.corrupt(1).unwrap();
        assert_eq!(views.len(), 2, "one view per live instance");
        assert_eq!(views[0].1, vec![Value::bytes(b"pending-a")]);
        assert_eq!(views[1].1, Vec::<Value>::new());
        for id in [a, b] {
            assert_eq!(
                pool.submit(id, 1, b"nope"),
                Err(SbcError::CorruptedParty { party: 1 })
            );
        }
        // Instances opened after the corruption inherit it.
        let c = pool.open_instance().unwrap();
        assert_eq!(
            pool.submit(c, 1, b"nope"),
            Err(SbcError::CorruptedParty { party: 1 })
        );
        assert!(pool.is_corrupted(1));
    }

    #[test]
    fn unknown_and_finished_instances_are_typed_errors() {
        let mut pool = SbcPool::builder(2).seed(b"typed").build().unwrap();
        let ghost = InstanceId(42);
        assert_eq!(
            pool.submit(ghost, 0, b"x"),
            Err(SbcError::UnknownInstance { instance: 42 })
        );
        let id = pool.open_instance().unwrap();
        pool.submit(id, 0, b"real").unwrap();
        pool.finish(id).unwrap();
        assert_eq!(
            pool.submit(id, 0, b"late"),
            Err(SbcError::InstanceFinished { instance: 0 })
        );
        assert_eq!(
            pool.run_epoch(id),
            Err(SbcError::InstanceFinished { instance: 0 })
        );
        // `finish` took the cached release with it: no reader outlives it.
        assert_eq!(
            pool.run_to_completion(id),
            Err(SbcError::InstanceFinished { instance: 0 })
        );
    }

    #[test]
    fn per_instance_epochs_are_independent() {
        let mut pool = SbcPool::builder(2).seed(b"epochs").build().unwrap();
        let a = pool.open_instance().unwrap();
        let b = pool.open_instance().unwrap();
        pool.submit(a, 0, b"a0").unwrap();
        let e = pool.run_epoch(a).unwrap();
        assert_eq!(e.epoch, 0);
        // B idled through A's epoch; it still runs its own epoch 0.
        pool.submit(b, 1, b"b0").unwrap();
        assert_eq!(pool.run_epoch(b).unwrap().epoch, 0);
        assert_eq!(pool.epoch(a).unwrap(), 1);
        assert_eq!(pool.epoch(b).unwrap(), 1);
        // A's next epoch rides the same shared clock.
        pool.submit(a, 0, b"a1").unwrap();
        let e1 = pool.run_epoch(a).unwrap();
        assert_eq!(e1.epoch, 1);
        assert!(e1.release_round > e.release_round);
    }

    #[test]
    fn real_and_ideal_pools_agree() {
        fn drive<W: SbcBackend>(mut pool: SbcPool<W>) -> Vec<(InstanceId, SbcResult)> {
            let a = pool.open_instance().unwrap();
            let b = pool.open_instance().unwrap();
            pool.submit(a, 0, b"alpha").unwrap();
            pool.step_round().unwrap();
            pool.submit(b, 1, b"bravo").unwrap();
            pool.corrupt(2).unwrap();
            pool.inject_message(a, 2, b"evil-a").unwrap();
            let ra = pool.finish(a).unwrap();
            let rb = pool.finish(b).unwrap();
            assert!(!pool.would_abort());
            vec![(a, ra), (b, rb)]
        }
        let real = drive(SbcPool::builder(3).seed(b"dual-pool").build().unwrap());
        let ideal = drive(
            SbcPool::builder(3)
                .seed(b"dual-pool")
                .build_backend::<IdealSbcWorld>()
                .unwrap(),
        );
        assert_eq!(real, ideal);
        assert!(real[0].1.messages.contains(&b"evil-a".to_vec()));
    }

    #[test]
    fn oversized_ro_query_answers_unit() {
        fn drive<W: SbcBackend>(mut pool: SbcPool<W>) {
            let id = pool.open_instance().unwrap();
            pool.submit(id, 0, b"m").unwrap();
            let mut query = |len: u64| {
                let x = Value::list([Value::bytes(b"rho"), Value::U64(len)]);
                pool.control(id, "F_RO", Command::new("QueryBytes", x))
            };
            // Unbounded, `u64::MAX` reaches `vec![0u8; len]` inside
            // `F_RO`: a capacity-overflow panic.
            assert_eq!(query(u64::MAX), Ok(Value::Unit));
            assert_eq!(query(u32::MAX as u64 + 1), Ok(Value::Unit));
            let y = query(64).unwrap();
            assert_eq!(y.as_bytes().map(<[u8]>::len), Some(64));
        }
        drive(SbcPool::builder(2).seed(b"x").build().unwrap());
        drive(
            SbcPool::builder(2)
                .seed(b"x")
                .build_backend::<IdealSbcWorld>()
                .unwrap(),
        );
    }

    #[test]
    fn builder_corruption_applies_to_later_instances() {
        let mut pool = SbcPool::builder(3)
            .seed(b"pre-corr")
            .corrupt(&[2])
            .build()
            .unwrap();
        let a = pool.open_instance().unwrap();
        assert!(pool.is_corrupted(2));
        assert_eq!(
            pool.submit(a, 2, b"x"),
            Err(SbcError::CorruptedParty { party: 2 })
        );
        pool.submit(a, 0, b"honest").unwrap();
        assert_eq!(pool.finish(a).unwrap().messages.len(), 1);
    }

    #[test]
    fn step_round_ignores_stragglers_of_retired_instances() {
        let mut pool = SbcPool::builder(2).seed(b"straggler").build().unwrap();
        let a = pool.open_instance().unwrap();
        pool.submit(a, 0, b"done").unwrap();
        pool.finish(a).unwrap();
        let b = pool.open_instance().unwrap();
        pool.submit(b, 1, b"live").unwrap();
        // A late-buffered output surfaced by a's retirement drain (what a
        // networked backend's close notification would leave behind in the
        // pool-world output buffer).
        pool.world
            .outputs
            .push((a, PartyId(0), Command::new("Closed", Value::Unit)));
        // The straggler is a world-layer observable, not a session release:
        // b must still run to release instead of the pool failing with
        // `Internal` on the retired instance.
        let r = pool.run_to_completion(b).unwrap();
        assert_eq!(r.messages, vec![b"live".to_vec()]);
    }

    /// A backend that breaks the release invariants on purpose: on its next
    /// step each party outputs what it was last given — as a one-element
    /// vector when `AS_LIST`, bare otherwise.
    #[derive(Debug)]
    struct Echo<const AS_LIST: bool> {
        given: Vec<Option<Value>>,
        outputs: Vec<(PartyId, Command)>,
    }

    impl<const AS_LIST: bool> sbc_uc::world::World for Echo<AS_LIST> {
        fn n(&self) -> usize {
            self.given.len()
        }
        fn time(&self) -> u64 {
            0
        }
        fn input(&mut self, party: PartyId, cmd: Command) {
            self.given[party.index()] = Some(cmd.value);
        }
        fn advance(&mut self, party: PartyId) {
            if let Some(v) = self.given[party.index()].take() {
                let v = if AS_LIST { Value::list([v]) } else { v };
                self.outputs.push((party, Command::new("Broadcast", v)));
            }
        }
        fn adversary(&mut self, _cmd: AdvCommand) -> Value {
            Value::Unit
        }
        fn drain_outputs(&mut self) -> Vec<(PartyId, Command)> {
            std::mem::take(&mut self.outputs)
        }
        fn drain_leaks(&mut self) -> Vec<Leak> {
            Vec::new()
        }
        fn is_corrupted(&self, _party: PartyId) -> bool {
            false
        }
    }

    impl<const AS_LIST: bool> SbcWorld for Echo<AS_LIST> {
        fn begin_new_period(&mut self) {}
        fn release_round(&self) -> Option<u64> {
            None
        }
        fn period_end(&self) -> Option<u64> {
            None
        }
    }

    impl<const AS_LIST: bool> SbcBackend for Echo<AS_LIST> {
        fn from_params(params: SbcParams, _seed: &[u8]) -> Result<Self, SbcError> {
            Ok(Echo {
                given: vec![None; params.n],
                outputs: Vec::new(),
            })
        }
    }

    #[test]
    fn broken_release_invariants_are_internal_errors_naming_the_instance() {
        fn release_error<W: SbcBackend>() -> String {
            let mut pool = SbcPool::builder(2).build_backend::<W>().unwrap();
            pool.open_instance().unwrap();
            let id = pool.open_instance().unwrap();
            pool.submit(id, 0, b"zero").unwrap();
            pool.submit(id, 1, b"one").unwrap();
            match pool.step_round() {
                Err(SbcError::Internal { detail }) => detail,
                other => panic!("expected Internal, got {other:?}"),
            }
        }
        // Parties 0 and 1 "release" different vectors.
        assert_eq!(
            release_error::<Echo<true>>(),
            "instance#1: agreement violation: party 1 released a different vector"
        );
        // A release that is no vector at all.
        assert_eq!(
            release_error::<Echo<false>>(),
            "instance#1: party 0 released a non-list payload"
        );
    }

    #[test]
    fn agreement_is_on_message_bytes_and_checked_for_every_party() {
        // `[Bytes(b)]` and `[v]` with `v.encode() == b` differ as values and
        // agree as messages: the exact compare behind the fast one.
        let v = Value::list([Value::U64(7), Value::str("seven")]);
        let mut pool = SbcPool::builder(2).build_backend::<Echo<true>>().unwrap();
        let id = pool.open_instance().unwrap();
        pool.submit(id, 0, &v.encode()).unwrap();
        pool.world
            .input(id, PartyId(1), Command::new("Broadcast", v.clone()));
        // `Echo` agrees on no τ_rel, so passing the agreement check shows
        // as the *next* broken invariant.
        match pool.step_round() {
            Err(SbcError::Internal { detail }) => {
                assert_eq!(detail, "instance#0: release without an agreed τ_rel")
            }
            other => panic!("expected Internal, got {other:?}"),
        }

        // Only the last of n parties differs: still a violation, naming it.
        let mut pool = SbcPool::builder(5).build_backend::<Echo<true>>().unwrap();
        let id = pool.open_instance().unwrap();
        for party in 0..5 {
            let msg: &[u8] = if party == 4 { b"other" } else { b"same" };
            pool.submit(id, party, msg).unwrap();
        }
        match pool.step_round() {
            Err(SbcError::Internal { detail }) => assert_eq!(
                detail,
                "instance#0: agreement violation: party 4 released a different vector"
            ),
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn prune_reclaims_finished_instances_only() {
        let mut pool = SbcPool::builder(2)
            .seed(b"prune")
            .capture_leaks()
            .build()
            .unwrap();
        let a = pool.open_instance().unwrap();
        let b = pool.open_instance().unwrap();
        pool.submit(a, 0, b"a").unwrap();
        pool.submit(b, 1, b"b").unwrap();
        // Live instances refuse pruning with a typed error.
        assert_eq!(pool.prune(a), Err(SbcError::InstanceLive { instance: a.0 }));
        pool.finish(a).unwrap();
        assert!(
            !pool.leaks(a).unwrap().is_empty(),
            "leaks retained by finish"
        );
        // Pruning a finished instance reclaims everything: afterwards the
        // id is indistinguishable from one that never existed.
        pool.prune(a).unwrap();
        let gone = SbcError::UnknownInstance { instance: a.0 };
        assert_eq!(pool.submit(a, 0, b"x"), Err(gone.clone()));
        assert_eq!(pool.leaks(a).unwrap_err(), gone.clone());
        assert_eq!(pool.take_leaks(a).unwrap_err(), gone.clone());
        assert_eq!(pool.epoch(a).unwrap_err(), gone.clone());
        assert_eq!(pool.prune(a), Err(gone));
        // The sibling instance is untouched and ids are never reused.
        pool.finish(b).unwrap();
        let c = pool.open_instance().unwrap();
        assert_eq!(c.0, b.0 + 1, "pruning never recycles ids");
        // prune_finished sweeps the rest (b), not the live c.
        assert_eq!(pool.prune_finished(), 1);
        assert_eq!(
            pool.epoch(b).unwrap_err(),
            SbcError::UnknownInstance { instance: b.0 }
        );
        assert_eq!(pool.epoch(c).unwrap(), 0, "live instance survives sweep");
        assert_eq!(pool.prune_finished(), 0, "idempotent");
        // Ghost ids stay typed errors.
        assert_eq!(
            pool.prune(InstanceId(99)),
            Err(SbcError::UnknownInstance { instance: 99 })
        );
    }

    #[test]
    fn leak_cap_rings_and_counts_overflow() {
        // Same scenario twice: uncapped is the reference; a cap of 2
        // retains exactly the 2 most recent leaks and counts the rest.
        let run = |cap: Option<usize>| {
            let mut b = SbcPool::builder(2).seed(b"leak-cap").capture_leaks();
            if let Some(c) = cap {
                b = b.leak_cap(c);
            }
            let mut pool = b.build().unwrap();
            let a = pool.open_instance().unwrap();
            pool.submit(a, 0, b"m0").unwrap();
            pool.submit(a, 1, b"m1").unwrap();
            pool.finish(a).unwrap();
            let leaks = pool.leaks(a).unwrap().to_vec();
            let dropped = pool.leak_overflow(a).unwrap();
            (leaks, dropped)
        };
        let (full, none_dropped) = run(None);
        assert_eq!(none_dropped, 0, "uncapped never drops");
        assert!(full.len() > 2, "scenario produces enough leaks to overflow");
        let (capped, dropped) = run(Some(2));
        assert_eq!(capped.len(), 2);
        assert_eq!(dropped, (full.len() - 2) as u64);
        // Ring semantics: survivors are the most recent, in order.
        assert_eq!(capped.as_slice(), &full[full.len() - 2..]);
        // A zero cap retains nothing and counts everything.
        let (empty, all_dropped) = run(Some(0));
        assert!(empty.is_empty());
        assert_eq!(all_dropped, full.len() as u64);
    }

    #[test]
    fn footprint_returns_to_zero_after_drain_and_prune() {
        let mut pool = SbcPool::builder(2)
            .seed(b"footprint")
            .capture_leaks()
            .build()
            .unwrap();
        assert_eq!(pool.footprint(), PoolFootprint::default());
        let a = pool.open_instance().unwrap();
        pool.submit(a, 0, b"a").unwrap();
        let mid = pool.footprint();
        assert_eq!(mid.live, 1);
        assert_eq!(mid.tracked, 1);
        pool.finish(a).unwrap();
        let done = pool.footprint();
        assert_eq!(done.live, 0);
        assert_eq!(done.retired, 1);
        assert!(done.captured_leaks > 0, "finish retains leaks");
        pool.prune(a).unwrap();
        assert_eq!(
            pool.footprint(),
            PoolFootprint::default(),
            "prune reclaims every proxy"
        );
    }

    #[test]
    fn corruption_budget_is_pool_global() {
        let mut pool = SbcPool::builder(2).seed(b"budget").build().unwrap();
        let _a = pool.open_instance().unwrap();
        pool.corrupt(0).unwrap();
        assert_eq!(
            pool.corrupt(1),
            Err(SbcError::CorruptionBudgetExceeded { party: 1 })
        );
        assert_eq!(pool.corrupt(0), Err(SbcError::CorruptedParty { party: 0 }));
        assert_eq!(
            pool.corrupt(9),
            Err(SbcError::PartyOutOfRange { party: 9, n: 2 })
        );
    }
}
