//! The submission-serving front end over [`SbcPool`]: bounded-queue
//! ingestion, deadline-class scheduling, the epoch-churn driver, release
//! streaming, and the deliver-before-reclaim lifecycle.
//!
//! ## Lifecycle of one submission
//!
//! 1. [`SbcService::submit`] parks it (with a ticket) in its
//!    [`DeadlineClass`] queue — or refuses with
//!    [`ServiceError::QueueFull`] when the bounded queue is saturated.
//! 2. [`SbcService::tick`] admits queued submissions into the collecting
//!    pool instance (round-robin over the `n` party slots), opening a new
//!    instance when the admission policy fires. A submission that hits a
//!    *closing* broadcast window is pushed back and admitted into the
//!    next instance — late arrivals defer, they never error.
//! 3. The instance releases on the shared clock; the service finishes it,
//!    records per-ticket submit→release latency, computes the
//!    mode-specific [`Outcome`], and parks a [`ReleaseRecord`] for
//!    [`SbcService::drain_releases`] — the one way out.
//! 4. Only after the record has been handed off is the instance pruned —
//!    the service-layer mirror of the pool's retire-drains guarantee: a
//!    finished instance with an undelivered record is never reclaimed.
//!
//! Determinism: every externally observable state change is a function of
//! the accepted operation sequence (submits and ticks), and a live
//! instance's state is a function of its id, its open round and its
//! admissions alone. That is what makes the live-state image in
//! [`crate::snapshot`] exact.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use sbc_core::api::{SbcError, SbcResult};
use sbc_core::pool::{InstanceId, PoolFootprint, SbcPool};
use sbc_core::worlds::{RealSbcWorld, SbcBackend, SbcParams};
use sbc_primitives::sha256::Sha256;

use crate::stats::{LatencyHistogram, ServiceStats};

/// How urgently a submission needs to make it into an instance.
///
/// Classes order the ingress queue, not the protocol: admission always
/// drains `Interactive` before `Standard` before `Batch`, and a pending
/// `Interactive` submission opens a new instance immediately instead of
/// waiting for a full batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeadlineClass {
    /// Latency-sensitive: triggers instance opening on its own.
    Interactive,
    /// The default: rides full batches or the flush timer.
    Standard,
    /// Throughput traffic: only admitted after everything else.
    Batch,
}

impl DeadlineClass {
    pub(crate) fn tag(self) -> u64 {
        match self {
            DeadlineClass::Interactive => 0,
            DeadlineClass::Standard => 1,
            DeadlineClass::Batch => 2,
        }
    }
}

/// Which application the service computes over each released batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceMode {
    /// DURS-style randomness beacon: the outcome is the XOR of the
    /// SHA-256 digests of every released message.
    Beacon,
    /// Election: each message's first byte is a candidate id; the winner
    /// is the most-voted candidate (ties to the lowest id).
    Election,
    /// Sealed-bid auction: each message's leading 8 bytes (big-endian,
    /// zero-padded for shorter payloads) are the bid; the winner is the
    /// highest bid (ties to the earliest released message).
    Auction,
}

impl ServiceMode {
    pub(crate) fn tag(self) -> u64 {
        match self {
            ServiceMode::Beacon => 0,
            ServiceMode::Election => 1,
            ServiceMode::Auction => 2,
        }
    }

    pub(crate) fn from_tag(tag: u64) -> Option<Self> {
        match tag {
            0 => Some(ServiceMode::Beacon),
            1 => Some(ServiceMode::Election),
            2 => Some(ServiceMode::Auction),
            _ => None,
        }
    }
}

/// The mode-specific result computed from one instance's simultaneous
/// release.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// XOR of the SHA-256 digests of every released message.
    Beacon([u8; 32]),
    /// Winning candidate and its vote count.
    Election {
        /// The candidate id (first payload byte) with the most votes.
        winner: u8,
        /// Votes the winner received.
        votes: u64,
    },
    /// Winning bid and where it appeared in the release vector.
    Auction {
        /// Index of the winning message in the released vector.
        winner: u64,
        /// The winning bid.
        bid: u64,
    },
}

impl Outcome {
    /// Computes the outcome of `mode` over a released message vector.
    /// Deterministic in the vector alone — the release transcript *is*
    /// the authority, so equal transcripts give equal outcomes.
    pub fn compute(mode: ServiceMode, messages: &[Vec<u8>]) -> Outcome {
        match mode {
            ServiceMode::Beacon => {
                let mut acc = [0u8; 32];
                for m in messages {
                    let d = Sha256::digest(m);
                    for (a, b) in acc.iter_mut().zip(d.iter()) {
                        *a ^= b;
                    }
                }
                Outcome::Beacon(acc)
            }
            ServiceMode::Election => {
                let mut tally = [0u64; 256];
                for m in messages {
                    if let Some(&c) = m.first() {
                        tally[c as usize] += 1;
                    }
                }
                let (winner, votes) = tally
                    .iter()
                    .enumerate()
                    .max_by_key(|(id, votes)| (**votes, usize::MAX - id))
                    .unwrap_or((0, &0));
                Outcome::Election {
                    winner: winner as u8,
                    votes: *votes,
                }
            }
            ServiceMode::Auction => {
                let mut best = (0u64, 0u64);
                for (idx, m) in messages.iter().enumerate() {
                    let mut be = [0u8; 8];
                    let take = m.len().min(8);
                    be[..take].copy_from_slice(&m[..take]);
                    let bid = u64::from_be_bytes(be);
                    if bid > best.1 {
                        best = (idx as u64, bid);
                    }
                }
                Outcome::Auction {
                    winner: best.0,
                    bid: best.1,
                }
            }
        }
    }
}

/// One instance's released batch, as drained by callers
/// ([`SbcService::drain_releases`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReleaseRecord {
    /// The pool instance that released.
    pub instance: u64,
    /// The shared-clock round the release happened at (`τ_rel`).
    pub release_round: u64,
    /// The simultaneous release vector, exactly as the pool agreed it.
    pub messages: Vec<Vec<u8>>,
    /// The mode-specific outcome over `messages`.
    pub outcome: Outcome,
    /// Tickets of the submissions batched into this instance, in
    /// admission order.
    pub tickets: Vec<u64>,
}

/// Inert: the retired auto-checkpoint policy. An image holds only live
/// state, so there is no journal to fold and nothing reads either field.
/// Kept only because the benchmark's workload specs still name it; ROADMAP
/// item 1 deletes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointEvery {
    /// Inert.
    pub eras: u64,
    /// Inert.
    pub journal_ops: u64,
}

/// Everything fixed at service construction. The config is part of the
/// snapshot image, so two services built from equal configs and fed equal
/// operation sequences are bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    /// SBC experiment parameters shared by every instance.
    pub params: SbcParams,
    /// Pool seed (all randomness derives from it).
    pub seed: Vec<u8>,
    /// The application computed over each release.
    pub mode: ServiceMode,
    /// Bound on queued-but-unadmitted submissions across all classes;
    /// beyond it [`SbcService::submit`] answers
    /// [`ServiceError::QueueFull`].
    pub queue_cap: usize,
    /// Submissions batched into one instance before the window closes.
    pub batch_size: usize,
    /// Bound on simultaneously live instances; admission waits when
    /// reached.
    pub max_live: usize,
    /// Ticks a non-interactive submission may wait before a partial
    /// batch is opened for it anyway.
    pub flush_after: u64,
    /// Captured-leak buffer cap per instance (`None` = uncapped). The
    /// service always captures leaks; the cap keeps long-lived pools
    /// bounded, with evictions surfaced in
    /// [`ServiceStats::leak_overflow`].
    pub leak_cap: Option<usize>,
    /// Inert (see [`CheckpointEvery`]): never read, and not part of an
    /// image. Kept only because the benchmark's workload specs set it;
    /// ROADMAP item 1 deletes it.
    pub checkpoint_every: Option<CheckpointEvery>,
}

impl ServiceConfig {
    /// A config for `n` parties in `mode`, with the defaults a long-lived
    /// service wants: 64-submission batches, 64 live instances, a
    /// 65536-deep queue, a 4-tick flush timer, and a 32-entry leak cap.
    pub fn new(n: usize, mode: ServiceMode) -> Self {
        ServiceConfig {
            params: SbcParams::default_for(n),
            seed: b"sbc-service".to_vec(),
            mode,
            queue_cap: 65_536,
            batch_size: 64,
            max_live: 64,
            flush_after: 4,
            leak_cap: Some(32),
            checkpoint_every: None,
        }
    }

    /// Replaces the experiment parameters wholesale.
    pub fn params(mut self, params: SbcParams) -> Self {
        self.params = params;
        self
    }

    /// Sets the pool seed.
    pub fn seed(mut self, seed: &[u8]) -> Self {
        self.seed = seed.to_vec();
        self
    }

    /// Sets the ingress queue bound.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the per-instance batch size (0 is refused by
    /// [`SbcService::new`]).
    pub fn batch_size(mut self, size: usize) -> Self {
        self.batch_size = size;
        self
    }

    /// Sets the live-instance bound (0 is refused by [`SbcService::new`]).
    pub fn max_live(mut self, live: usize) -> Self {
        self.max_live = live;
        self
    }

    /// Sets the partial-batch flush timer (ticks).
    pub fn flush_after(mut self, ticks: u64) -> Self {
        self.flush_after = ticks;
        self
    }

    /// Sets (or, with `None`, removes) the per-instance leak cap.
    pub fn leak_cap(mut self, cap: Option<usize>) -> Self {
        self.leak_cap = cap;
        self
    }

    /// Sets the inert [`checkpoint_every`](ServiceConfig::checkpoint_every)
    /// field; it changes nothing.
    pub fn checkpoint_every(mut self, policy: CheckpointEvery) -> Self {
        self.checkpoint_every = Some(policy);
        self
    }
}

/// Typed service-layer failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded ingress queue is saturated — backpressure, retry after
    /// a tick.
    QueueFull {
        /// The configured queue bound.
        cap: usize,
    },
    /// The snapshot bytes are not a valid service image.
    BadSnapshot {
        /// What failed to parse.
        detail: String,
    },
    /// A drive loop exceeded its tick budget.
    Timeout {
        /// Ticks the loop was allowed.
        budget: u64,
    },
    /// An instance's backend refused a frame it built
    /// ([`SbcError::Undeliverable`]), so its submissions will never
    /// release. Reported once, by the tick that found it; the instance is
    /// already reclaimed and every other instance keeps running.
    Undeliverable {
        /// The instance that was dropped.
        instance: u64,
        /// The tickets admitted into it, in admission order.
        tickets: Vec<u64>,
        /// What was refused, and why.
        detail: String,
    },
    /// An underlying pool failure.
    Pool(SbcError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { cap } => {
                write!(f, "ingress queue full (cap {cap}): apply backpressure")
            }
            ServiceError::BadSnapshot { detail } => write!(f, "bad snapshot: {detail}"),
            ServiceError::Timeout { budget } => {
                write!(f, "service drive exceeded its {budget}-tick budget")
            }
            ServiceError::Undeliverable {
                instance,
                tickets,
                detail,
            } => write!(
                f,
                "instance #{instance} dropped, tickets {tickets:?} will not release: {detail}"
            ),
            ServiceError::Pool(e) => write!(f, "pool error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SbcError> for ServiceError {
    fn from(e: SbcError) -> Self {
        ServiceError::Pool(e)
    }
}

/// A queued-but-unadmitted submission.
#[derive(Clone, Debug)]
pub(crate) struct Pending {
    pub(crate) ticket: u64,
    pub(crate) payload: Vec<u8>,
    pub(crate) class: DeadlineClass,
    pub(crate) enqueued_round: u64,
}

/// A submission admitted into a live instance, awaiting its release. It
/// keeps its payload: a restore feeds it to the rebuilt instance again.
#[derive(Clone, Debug)]
pub(crate) struct InFlight {
    pub(crate) ticket: u64,
    pub(crate) enqueued_round: u64,
    pub(crate) admitted_round: u64,
    pub(crate) payload: Vec<u8>,
}

/// A live instance: the round it opened at and its admissions, in
/// admission order (admission `k` went to party slot `k mod n`).
#[derive(Clone, Debug, Default)]
pub(crate) struct Live {
    pub(crate) opened: u64,
    pub(crate) admitted: Vec<InFlight>,
}

/// The long-lived submission-serving service over one [`SbcPool`].
///
/// See the [crate docs](crate) for the submission lifecycle and the
/// full surface.
pub struct SbcService<W: SbcBackend = RealSbcWorld> {
    pub(crate) cfg: ServiceConfig,
    pub(crate) pool: SbcPool<W>,
    /// One FIFO per deadline class, drained in class order.
    pub(crate) queues: [VecDeque<Pending>; 3],
    /// The instance currently accepting admissions; its fill count is its
    /// number of admissions.
    pub(crate) collecting: Option<InstanceId>,
    /// Every live instance, from `open_instance` to its release.
    pub(crate) inflight: BTreeMap<u64, Live>,
    /// Released records awaiting [`SbcService::drain_releases`]. The
    /// instance behind a parked record is finished but never pruned until
    /// the record is drained (deliver-before-reclaim).
    pub(crate) outbox: VecDeque<ReleaseRecord>,
    pub(crate) hist: LatencyHistogram,
    /// Counters; `accepted` is also the next submission's ticket.
    pub(crate) stats: Counters,
}

/// The mutable counter block behind [`ServiceStats`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) accepted: u64,
    pub(crate) rejected: u64,
    pub(crate) deferred: u64,
    pub(crate) delivered: u64,
    pub(crate) opened: u64,
    pub(crate) finished: u64,
    pub(crate) pruned: u64,
    pub(crate) ticks: u64,
    pub(crate) peak_live: usize,
    pub(crate) peak_queue: usize,
    pub(crate) leak_overflow: u64,
}

impl<W: SbcBackend> SbcService<W> {
    /// Builds a service over a fresh pool.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Pool`] wrapping the pool's parameter validation,
    /// or [`SbcError::InvalidParams`] for a zero `batch_size` or
    /// `max_live` however it was spelled (setter, field, or an image's
    /// tuning list): the first opens instances nothing is ever admitted
    /// into, the second opens none, and either way the queue never drains.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServiceError> {
        if cfg.batch_size == 0 || cfg.max_live == 0 {
            return Err(ServiceError::Pool(SbcError::InvalidParams {
                reason: "need batch_size ≥ 1 and max_live ≥ 1",
            }));
        }
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
        let pool = builder.build_backend::<W>()?;
        Ok(SbcService {
            cfg,
            pool,
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            collecting: None,
            inflight: BTreeMap::new(),
            outbox: VecDeque::new(),
            hist: LatencyHistogram::new(),
            stats: Counters::default(),
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Accepts a submission into its deadline-class queue, returning its
    /// ticket (dense, in acceptance order). The client id is not stored:
    /// nothing the service decides depends on it, so no image carries it.
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] when the bounded queue is saturated —
    /// the typed backpressure signal; nothing is enqueued.
    pub fn submit(
        &mut self,
        _client: u64,
        payload: Vec<u8>,
        class: DeadlineClass,
    ) -> Result<u64, ServiceError> {
        if self.queued() >= self.cfg.queue_cap {
            self.stats.rejected += 1;
            return Err(ServiceError::QueueFull {
                cap: self.cfg.queue_cap,
            });
        }
        let ticket = self.stats.accepted;
        self.stats.accepted += 1;
        self.queues[class.tag() as usize].push_back(Pending {
            ticket,
            payload,
            class,
            enqueued_round: self.pool.round(),
        });
        self.stats.peak_queue = self.stats.peak_queue.max(self.queued());
        Ok(ticket)
    }

    /// Submissions currently queued across all classes.
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// One driver step: admit queued submissions (opening instances when
    /// the policy fires), advance the shared clock one round, then
    /// finish, account, deliver, and reclaim whatever released.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::Undeliverable`] once for an instance whose
    ///   backend refused a frame: its tickets are dropped with it, and the
    ///   service stays usable.
    /// * [`ServiceError::Pool`] on a broken pool invariant; admission
    ///   errors other than the deferred-window case propagate the same
    ///   way.
    pub fn tick(&mut self) -> Result<(), ServiceError> {
        self.stats.ticks += 1;
        self.admit()?;
        self.stats.peak_live = self.stats.peak_live.max(self.live());
        let releases = match self.pool.step_round() {
            Ok(releases) => releases,
            Err(SbcError::Undeliverable { instance, detail }) => {
                return Err(self.drop_undeliverable(InstanceId(instance), detail))
            }
            Err(e) => return Err(e.into()),
        };
        for (id, result) in releases {
            self.on_release(id, result)?;
        }
        Ok(())
    }

    /// Admission: fill the collecting window, open new instances while
    /// the policy allows, defer submissions that hit a closing window.
    fn admit(&mut self) -> Result<(), ServiceError> {
        let n = self.cfg.params.n;
        let now = self.pool.round();
        loop {
            let id = match self.collecting {
                Some(id) => id,
                None => {
                    if !self.should_open() {
                        return Ok(());
                    }
                    let id = self.pool.open_instance()?;
                    self.inflight.insert(
                        id.0,
                        Live {
                            opened: now,
                            admitted: Vec::new(),
                        },
                    );
                    self.stats.opened += 1;
                    self.collecting = Some(id);
                    id
                }
            };
            let mut filled = self.inflight.get(&id.0).map_or(0, |l| l.admitted.len());
            while filled < self.cfg.batch_size {
                let Some(pending) = self.pop_next() else {
                    // Queue drained: the window keeps collecting on later
                    // ticks until it fills or its period closes.
                    return Ok(());
                };
                let party = (filled % n) as u32;
                match self.pool.submit(id, party, &pending.payload) {
                    Ok(()) => {
                        let live = self.inflight.entry(id.0).or_default();
                        live.admitted.push(InFlight {
                            ticket: pending.ticket,
                            enqueued_round: pending.enqueued_round,
                            admitted_round: now,
                            payload: pending.payload,
                        });
                        filled += 1;
                    }
                    Err(SbcError::SubmitAfterClose { .. }) => {
                        // Late arrival: the window is closing. Put the
                        // submission back at the head of its class and
                        // close the window — the next loop iteration may
                        // open a fresh instance for it immediately.
                        self.stats.deferred += 1;
                        self.queues[pending.class.tag() as usize].push_front(pending);
                        self.collecting = None;
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if self.collecting.is_some() && filled >= self.cfg.batch_size {
                // Batch full: close the window; the loop decides whether
                // the remaining queue justifies another instance.
                self.collecting = None;
            }
        }
    }

    /// Whether the admission policy opens a new instance now.
    fn should_open(&self) -> bool {
        if self.queued() == 0 || self.live() >= self.cfg.max_live {
            return false;
        }
        if !self.queues[DeadlineClass::Interactive.tag() as usize].is_empty() {
            return true;
        }
        if self.queued() >= self.cfg.batch_size {
            return true;
        }
        let now = self.pool.round();
        self.queues
            .iter()
            .filter_map(|q| q.front())
            .any(|p| now.saturating_sub(p.enqueued_round) >= self.cfg.flush_after)
    }

    /// Pops the next submission in class-priority order.
    fn pop_next(&mut self) -> Option<Pending> {
        self.queues.iter_mut().find_map(VecDeque::pop_front)
    }

    /// Handles one release: finish, account latency and leak overflow,
    /// compute the outcome, and park the record — the instance is kept
    /// until [`drain_releases`](Self::drain_releases) takes ownership of
    /// it. Delivery strictly precedes pruning.
    fn on_release(&mut self, id: InstanceId, result: SbcResult) -> Result<(), ServiceError> {
        if self.collecting == Some(id) {
            // Released while still collecting (queue went quiet): the
            // window is gone with it.
            self.collecting = None;
        }
        self.pool.finish(id)?;
        self.stats.finished += 1;
        // Account while the instance is still tracked; pruning drops it.
        self.stats.leak_overflow += self.pool.leak_overflow(id)?;
        let live = self.inflight.remove(&id.0).unwrap_or_default();
        let mut tickets = Vec::with_capacity(live.admitted.len());
        for f in &live.admitted {
            self.hist
                .record(result.release_round.saturating_sub(f.enqueued_round));
            tickets.push(f.ticket);
        }
        self.outbox.push_back(ReleaseRecord {
            instance: id.0,
            release_round: result.release_round,
            outcome: Outcome::compute(self.cfg.mode, &result.messages),
            messages: result.messages,
            tickets,
        });
        Ok(())
    }

    /// Drops an instance the pool retired unreleased: its window closes,
    /// its tickets go into the returned error — the one report they get —
    /// and the pool reclaims it at once, as there is no record to deliver.
    fn drop_undeliverable(&mut self, id: InstanceId, detail: String) -> ServiceError {
        if self.collecting == Some(id) {
            self.collecting = None;
        }
        let live = self.inflight.remove(&id.0).unwrap_or_default();
        self.reclaim(id);
        ServiceError::Undeliverable {
            instance: id.0,
            tickets: live.admitted.iter().map(|f| f.ticket).collect(),
            detail,
        }
    }

    /// Prunes an instance that has left the service. A service restored
    /// with records parked never held their instances, so there may be
    /// nothing to prune; the instance is gone either way.
    fn reclaim(&mut self, id: InstanceId) {
        let _ = self.pool.prune(id);
        self.stats.pruned += 1;
    }

    /// Takes every parked release record, reclaiming the instances they
    /// came from — delivery first, then the prune.
    pub fn drain_releases(&mut self) -> Vec<ReleaseRecord> {
        let records: Vec<ReleaseRecord> = self.outbox.drain(..).collect();
        for rec in &records {
            self.stats.delivered += 1;
            self.reclaim(InstanceId(rec.instance));
        }
        records
    }

    /// Drives every queued and in-flight submission to release, delivers
    /// all records, and reclaims everything: afterwards the queue is
    /// empty, no instance is live, and the pool footprint is back to
    /// baseline. Returns the records still parked for
    /// [`drain_releases`](Self::drain_releases).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Timeout`] if the backlog fails to drain within a
    /// generous tick budget (a wedged pool, not a big queue).
    pub fn shutdown(&mut self) -> Result<Vec<ReleaseRecord>, ServiceError> {
        let per_cycle = self.cfg.params.phi + self.cfg.params.delta + 4;
        let cycles =
            (self.queued() as u64).div_ceil(self.cfg.batch_size as u64) + self.live() as u64 + 2;
        let budget = cycles
            .saturating_mul(per_cycle)
            .saturating_add(self.cfg.flush_after)
            .saturating_add(1);
        let mut spent = 0;
        while self.queued() > 0 || self.live() > 0 {
            if spent >= budget {
                return Err(ServiceError::Timeout { budget });
            }
            self.tick()?;
            spent += 1;
        }
        Ok(self.drain_releases())
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.stats.accepted,
            rejected: self.stats.rejected,
            deferred: self.stats.deferred,
            delivered: self.stats.delivered,
            opened: self.stats.opened,
            finished: self.stats.finished,
            pruned: self.stats.pruned,
            ticks: self.stats.ticks,
            peak_live: self.stats.peak_live,
            peak_queue: self.stats.peak_queue,
            queued: self.queued(),
            live: self.live(),
            leak_overflow: self.stats.leak_overflow,
            round: self.pool.round(),
            journal_ops: self
                .inflight
                .values()
                .map(|l| l.admitted.len() as u64)
                .sum(),
            auto_folds: 0,
            snapshot_bytes: 0,
            latency: self.hist.summary(),
            wall: None,
        }
    }

    /// The underlying pool's memory-bookkeeping census — the flatness
    /// proxy churn tests and benches assert on.
    pub fn footprint(&self) -> PoolFootprint {
        self.pool.footprint()
    }

    /// The shared clock round.
    pub fn round(&self) -> u64 {
        self.pool.round()
    }

    /// Instances currently live.
    pub fn live(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(seed: &[u8]) -> SbcService {
        SbcService::new(
            ServiceConfig::new(2, ServiceMode::Beacon)
                .seed(seed)
                .batch_size(4)
                .queue_cap(8),
        )
        .unwrap()
    }

    #[test]
    fn zero_batch_size_or_max_live_is_refused_at_construction() {
        let base = ServiceConfig::new(2, ServiceMode::Beacon).seed(b"zero");
        let fields = [(0, 8), (8, 0)].map(|(batch_size, max_live)| ServiceConfig {
            batch_size,
            max_live,
            ..base.clone()
        });
        let setters = [base.clone().batch_size(0), base.clone().max_live(0)];
        for cfg in fields.into_iter().chain(setters) {
            assert!(matches!(
                SbcService::<RealSbcWorld>::new(cfg),
                Err(ServiceError::Pool(SbcError::InvalidParams { .. }))
            ));
        }
        assert!(SbcService::<RealSbcWorld>::new(base).is_ok());
    }

    #[test]
    fn overflowing_phi_or_delta_is_refused_at_construction() {
        // Either would overflow the release round and `shutdown`'s budget;
        // `restore` builds through `new`, so a re-sealed image is refused too.
        for (phi, delta) in [(u64::MAX, 2), (3, u64::MAX)] {
            let mut cfg = ServiceConfig::new(2, ServiceMode::Beacon).seed(b"huge");
            (cfg.params.phi, cfg.params.delta) = (phi, delta);
            assert!(matches!(
                SbcService::<RealSbcWorld>::new(cfg),
                Err(ServiceError::Pool(SbcError::InvalidParams { .. }))
            ));
        }
    }

    #[test]
    fn queue_full_is_typed_backpressure() {
        let mut s = svc(b"qfull");
        for i in 0..8 {
            s.submit(i, vec![i as u8], DeadlineClass::Batch).unwrap();
        }
        let err = s
            .submit(9, vec![9], DeadlineClass::Interactive)
            .unwrap_err();
        assert_eq!(err, ServiceError::QueueFull { cap: 8 });
        assert_eq!(s.stats().rejected, 1);
        // A tick admits a batch and frees room.
        s.tick().unwrap();
        assert!(s.queued() < 8);
        s.submit(9, vec![9], DeadlineClass::Interactive).unwrap();
    }

    #[test]
    fn classes_admit_in_priority_order() {
        let mut s = svc(b"class");
        let t_batch = s
            .submit(1, b"batch".to_vec(), DeadlineClass::Batch)
            .unwrap();
        let t_std = s
            .submit(2, b"standard".to_vec(), DeadlineClass::Standard)
            .unwrap();
        let t_int = s
            .submit(3, b"interactive".to_vec(), DeadlineClass::Interactive)
            .unwrap();
        let records = s.shutdown().unwrap();
        assert_eq!(records.len(), 1);
        // Admission order inside the instance follows class priority,
        // not arrival order.
        assert_eq!(records[0].tickets, vec![t_int, t_std, t_batch]);
    }

    #[test]
    fn submissions_release_and_latency_is_recorded() {
        let mut s = svc(b"lat");
        s.submit(1, b"m".to_vec(), DeadlineClass::Interactive)
            .unwrap();
        let records = s.shutdown().unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].messages.iter().any(|m| m == b"m"));
        let stats = s.stats();
        assert_eq!(stats.latency.count, 1);
        // Submitted at round 0, admitted tick 1, τ_rel = Φ + ∆ past the
        // wake — a handful of rounds, well inside the fixed buckets.
        assert!(stats.latency.p50 > 0 && stats.latency.p50 < 20);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.pruned, 1);
    }

    #[test]
    fn saturating_load_never_exceeds_max_live() {
        use crate::loadgen::{LoadGen, LoadProfile};
        // 256 arrivals a tick against 4 instances of 16: the queue backs
        // up from the first tick on, so admission is the only limit.
        let (total, max_live) = (4096, 4);
        let mut s = SbcService::<RealSbcWorld>::new(
            ServiceConfig::new(4, ServiceMode::Beacon)
                .seed(b"saturated")
                .batch_size(16)
                .max_live(max_live),
        )
        .unwrap();
        let mut gen = LoadGen::new(LoadProfile::beacon(total, 256), b"saturated");
        while !gen.done() {
            for g in gen.next_tick() {
                s.submit(g.client, g.payload, g.class).unwrap();
            }
            s.tick().unwrap();
            assert!(s.live() <= max_live, "{} live instances", s.live());
            s.drain_releases();
        }
        s.shutdown().unwrap();
        let stats = s.stats();
        assert_eq!(stats.peak_live, max_live, "the cap was reached");
        assert_eq!((stats.accepted, stats.latency.count), (total, total));
        assert_eq!(s.footprint(), PoolFootprint::default());
    }

    #[test]
    fn checkpoint_every_is_inert() {
        // The retired policy, armed as tightly as it goes, changes nothing:
        // same records, same stats, same images as an unarmed twin.
        let cfg = ServiceConfig::new(2, ServiceMode::Beacon)
            .seed(b"inert")
            .batch_size(2);
        let armed = cfg.clone().checkpoint_every(CheckpointEvery {
            eras: 1,
            journal_ops: 1,
        });
        let new = |cfg| SbcService::<RealSbcWorld>::new(cfg).unwrap();
        let (mut a, mut b) = (new(armed), new(cfg));
        for round in 0..24u64 {
            for s in [&mut a, &mut b] {
                if round % 5 < 2 {
                    s.submit(round, vec![round as u8], DeadlineClass::Interactive)
                        .unwrap();
                }
                s.tick().unwrap();
            }
            assert_eq!(a.drain_releases(), b.drain_releases());
            assert_eq!(a.snapshot().unwrap(), b.snapshot().unwrap());
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.stats().auto_folds, 0);
        }
    }

    #[test]
    fn outcome_election_and_auction() {
        let votes = [vec![2u8], vec![1], vec![2], vec![7]];
        assert_eq!(
            Outcome::compute(ServiceMode::Election, &votes),
            Outcome::Election {
                winner: 2,
                votes: 2
            }
        );
        // Tie at one vote each goes to the lowest candidate id.
        let tie = [vec![5u8], vec![3]];
        assert_eq!(
            Outcome::compute(ServiceMode::Election, &tie),
            Outcome::Election {
                winner: 3,
                votes: 1
            }
        );
        let bids = [
            9u64.to_be_bytes().to_vec(),
            42u64.to_be_bytes().to_vec(),
            vec![0, 1], // short payload: zero-padded tail
        ];
        assert_eq!(
            Outcome::compute(ServiceMode::Auction, &bids),
            Outcome::Auction {
                winner: 2,
                bid: u64::from_be_bytes([0, 1, 0, 0, 0, 0, 0, 0])
            }
        );
    }

    #[test]
    fn beacon_outcome_is_order_insensitive_xor() {
        let a = Outcome::compute(ServiceMode::Beacon, &[b"x".to_vec(), b"y".to_vec()]);
        let b = Outcome::compute(ServiceMode::Beacon, &[b"y".to_vec(), b"x".to_vec()]);
        assert_eq!(a, b);
        assert_ne!(a, Outcome::compute(ServiceMode::Beacon, &[b"x".to_vec()]));
    }

    #[test]
    fn error_display_renders() {
        for e in [
            ServiceError::QueueFull { cap: 4 },
            ServiceError::BadSnapshot { detail: "d".into() },
            ServiceError::Timeout { budget: 3 },
            ServiceError::Undeliverable {
                instance: 1,
                tickets: vec![4, 5],
                detail: "d".into(),
            },
            ServiceError::Pool(SbcError::NoInput),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
