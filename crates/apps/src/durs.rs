//! Delayed uniform random string (DURS) generation — paper §6.1.
//!
//! Each party contributes λ bits of randomness through simultaneous
//! broadcast; the agreed string is the XOR of all valid contributions.
//! Simultaneity is exactly what makes the beacon unbiasable: no
//! contributor — however many parties are corrupted — can choose its share
//! as a function of the others'.
//!
//! * [`DursPool`] — the protocol `Π_DURS` (Fig. 16), its one engine: many
//!   concurrent beacon **streams** over one shared SBC pool, with
//!   overlapping epoch schedules (stream A can be mid-period while stream
//!   B opens or releases) on one clock, one corruption state, and
//!   independent per-stream randomness.
//! * [`DursSession`] — one fallible, **multi-epoch** beacon: the engine's
//!   stream 0, producing a fresh beacon output per epoch
//!   ([`DursSession::run_epoch`]) without rebuilding the world stack.
//! * [`last_revealer_attack`] — the classic last-revealer bias attack on
//!   the commit-free XOR beacon baseline, and
//!   [`last_revealer_attack_on_durs`], the same attack failing on DURS.
//!
//! The engine's DRBG is `"durs/" ‖ seed`; party `p`'s share for epoch `e`
//! is forked as `contrib/{e}/{p}` on stream 0 (a lone beacon's labels, as
//! an [`SbcPool`]'s instance 0 keeps the pool seed) and as
//! `contrib/{k}/{e}/{p}` on stream `k ≥ 1`.

use sbc_core::api::SbcError;
use sbc_core::pool::{InstanceId, SbcPool};
use sbc_core::worlds::{RealSbcWorld, SbcBackend};
use sbc_primitives::drbg::Drbg;
use sbc_uc::exec::SbcWorld;
use std::collections::BTreeMap;

/// Byte length of the generated string (λ = 256 bits).
pub const URS_LEN: usize = 32;

/// The result of one DURS period.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DursResult {
    /// The agreed uniform string (XOR of all contributions).
    pub urs: Vec<u8>,
    /// Number of contributions combined.
    pub contributions: usize,
    /// The release round.
    pub release_round: u64,
}

impl DursResult {
    /// XORs the valid λ-bit strings of a released vector; strings of any
    /// other length are discarded (Fig. 16).
    fn fold(messages: &[Vec<u8>], release_round: u64) -> Self {
        let mut urs = vec![0u8; URS_LEN];
        let mut contributions = 0;
        for m in messages.iter().filter(|m| m.len() == URS_LEN) {
            contributions += 1;
            for (acc, b) in urs.iter_mut().zip(m) {
                *acc ^= b;
            }
        }
        DursResult {
            urs,
            contributions,
            release_round,
        }
    }
}

/// `Π_DURS` (Fig. 16) as one multi-epoch beacon over an SBC backend —
/// the real stack (this module's tests also run it over the ideal
/// `F_SBC + S_SBC` world): every participating party contributes λ
/// random bits via simultaneous broadcast; the output is their XOR. After [`run_epoch`](DursSession::run_epoch) releases a
/// beacon value, the same stack accepts the next round of contributions.
///
/// A session is stream 0 of a [`DursPool`] and delegates every call to
/// it, so a session and a one-stream pool built from the same seed agree
/// bit for bit.
#[derive(Debug)]
pub struct DursSession<W: SbcWorld = RealSbcWorld> {
    engine: DursPool<W>,
    stream: InstanceId,
}

impl DursSession {
    /// Creates a session for `n` parties over the real SBC stack.
    ///
    /// # Errors
    ///
    /// Propagates [`SbcError`] from the underlying pool builder
    /// (degenerate `n`, invalid default parameters).
    pub fn new(n: usize, seed: &[u8]) -> Result<Self, SbcError> {
        Self::over_backend(n, seed)
    }
}

impl<W: SbcBackend> DursSession<W> {
    /// Creates a session for `n` parties over any SBC backend. Over the
    /// ideal world (`F_SBC` + simulator) its beacon outputs match
    /// [`new`](DursSession::new)'s epoch for epoch, by Theorem 2 —
    /// asserted by the dual-backend tests.
    ///
    /// # Errors
    ///
    /// As for [`new`](DursSession::new).
    pub(crate) fn over_backend(n: usize, seed: &[u8]) -> Result<Self, SbcError> {
        let mut engine = DursPool::over_backend(n, seed)?;
        let stream = engine.open_stream()?;
        Ok(DursSession { engine, stream })
    }

    /// Party `p` contributes fresh randomness (idempotent per party and
    /// epoch).
    ///
    /// # Errors
    ///
    /// As for [`DursPool::contribute`].
    pub fn contribute(&mut self, p: u32) -> Result<(), SbcError> {
        self.engine.contribute(self.stream, p)
    }

    /// Adversarial contribution with a *chosen* (non-random) share — used
    /// by the bias experiments.
    ///
    /// # Errors
    ///
    /// As for [`DursPool::contribute`].
    pub fn contribute_chosen(&mut self, p: u32, share: &[u8; URS_LEN]) -> Result<(), SbcError> {
        self.engine.contribute_chosen(self.stream, p, share)
    }

    /// Runs the current beacon period to release, XORs all valid λ-bit
    /// contributions, and re-opens the stack for the next epoch.
    ///
    /// # Errors
    ///
    /// As for [`DursPool::run_epoch`].
    pub fn run_epoch(&mut self) -> Result<DursResult, SbcError> {
        self.engine.run_epoch(self.stream)
    }

    /// Single-shot convenience: runs one period and consumes the session.
    ///
    /// # Errors
    ///
    /// As for [`run_epoch`](DursSession::run_epoch).
    pub fn finish(mut self) -> Result<DursResult, SbcError> {
        self.run_epoch()
    }

    /// The epoch currently accepting contributions (after a backend
    /// fault, the epoch the session was in).
    pub fn epoch(&self) -> u64 {
        self.engine.streams.get(&self.stream.0).map_or(0, |s| s.0)
    }
}

/// The one `Π_DURS` engine (Fig. 16): many concurrent beacon **streams**
/// over one shared SBC pool.
///
/// A beacon service rarely runs a single schedule: block randomness, epoch
/// randomness, and per-committee draws all tick at different cadences.
/// `DursPool` runs each schedule as one SBC instance ("stream") of an
/// [`SbcPool`]: every stream produces its own sequence of beacon values
/// ([`run_epoch`](DursPool::run_epoch)), all streams share one clock (a
/// stream's epoch run advances every other stream too, so schedules
/// genuinely overlap), corruption is global across streams, and each
/// stream's contributions come from an independent, domain-separated
/// randomness fork. [`DursSession`] is its stream 0.
#[derive(Debug)]
pub struct DursPool<W: SbcWorld = RealSbcWorld> {
    pool: SbcPool<W>,
    rng: Drbg,
    /// Per stream: the epoch its flags belong to, and which parties have
    /// contributed in it.
    streams: BTreeMap<u64, (u64, Vec<bool>)>,
}

impl DursPool {
    /// Creates a pool of beacon streams for `n` parties over the real SBC
    /// stack.
    ///
    /// # Errors
    ///
    /// Propagates [`SbcError`] from the pool builder (degenerate `n`,
    /// invalid default parameters).
    pub fn new(n: usize, seed: &[u8]) -> Result<Self, SbcError> {
        Self::over_backend(n, seed)
    }
}

impl<W: SbcBackend> DursPool<W> {
    /// Creates a pool of beacon streams over any SBC backend. Over the
    /// ideal world (`F_SBC` + simulator per stream) its outputs match
    /// [`new`](DursPool::new)'s stream for stream and epoch for epoch, by
    /// UC composition.
    ///
    /// # Errors
    ///
    /// As for [`new`](DursPool::new).
    pub(crate) fn over_backend(n: usize, seed: &[u8]) -> Result<Self, SbcError> {
        let mut label = b"durs/".to_vec();
        label.extend_from_slice(seed);
        Ok(DursPool {
            pool: SbcPool::builder(n).seed(seed).build_backend::<W>()?,
            rng: Drbg::from_seed(&label),
            streams: BTreeMap::new(),
        })
    }

    /// Opens a new beacon stream, joining the shared clock at the current
    /// round (in O(1) — stream opening cost is independent of how long the
    /// pool has been running).
    ///
    /// # Errors
    ///
    /// Propagates [`SbcError`] from [`SbcPool::open_instance`].
    pub fn open_stream(&mut self) -> Result<InstanceId, SbcError> {
        self.pool.open_instance()
    }

    /// Number of registered parties (shared by every stream).
    pub(crate) fn n(&self) -> usize {
        self.pool.params().n
    }

    /// Party `p` contributes fresh randomness to `stream` (idempotent per
    /// stream, party, and epoch).
    ///
    /// # Errors
    ///
    /// Propagates [`SbcError`] (bad stream id, out-of-range party,
    /// corrupted party, period already closed) — checked before the
    /// idempotence flags, so a repeated contribution after the period
    /// closed is refused like a first one.
    pub fn contribute(&mut self, stream: InstanceId, p: u32) -> Result<(), SbcError> {
        self.contribute_share(stream, p, None)
    }

    /// Adversarial contribution with a *chosen* (non-random) share to
    /// `stream` — used by the bias experiments.
    ///
    /// # Errors
    ///
    /// As for [`contribute`](DursPool::contribute).
    pub(crate) fn contribute_chosen(
        &mut self,
        stream: InstanceId,
        p: u32,
        share: &[u8; URS_LEN],
    ) -> Result<(), SbcError> {
        self.contribute_share(stream, p, Some(share))
    }

    /// The one contribution path: validate, skip a repeat, draw the share
    /// unless it was chosen, submit.
    fn contribute_share(
        &mut self,
        stream: InstanceId,
        p: u32,
        chosen: Option<&[u8; URS_LEN]>,
    ) -> Result<(), SbcError> {
        // Reject doomed contributions before touching the flags or the
        // DRBG: `fork` ratchets it, and a failed call must not shift the
        // shares of every later epoch.
        self.pool.check_submittable(stream, p)?;
        let epoch = self.pool.epoch(stream)?;
        let n = self.n();
        // A stream opened or turned over on the raw pool gets
        // fresh flags here: typed errors only, never a panic.
        let (flags_epoch, flags) = self
            .streams
            .entry(stream.0)
            .or_insert_with(|| (epoch, vec![false; n]));
        if *flags_epoch != epoch {
            (*flags_epoch, *flags) = (epoch, vec![false; n]);
        }
        if flags[p as usize] {
            return Ok(());
        }
        let share = match chosen {
            Some(share) => share.to_vec(),
            // Stream 0 keeps the single-session labels.
            None => {
                let label = match stream.0 {
                    0 => format!("contrib/{epoch}/{p}"),
                    k => format!("contrib/{k}/{epoch}/{p}"),
                };
                self.rng.fork(label.as_bytes()).gen_bytes(URS_LEN)
            }
        };
        self.pool.submit(stream, p, &share)?;
        flags[p as usize] = true;
        Ok(())
    }

    /// One shared clock tick for **all** streams — the low-level driver for
    /// genuinely interleaved schedules.
    ///
    /// # Errors
    ///
    /// As for [`SbcPool::step_round`].
    pub fn step_round(&mut self) -> Result<(), SbcError> {
        self.pool.step_round().map(drop)
    }

    /// Runs `stream`'s current beacon period to release (every other
    /// stream advances on the shared clock meanwhile), XORs its valid
    /// λ-bit contributions, and re-opens the stream for its next epoch.
    ///
    /// # Errors
    ///
    /// [`SbcError::NoInput`] if nobody contributed to `stream` this epoch;
    /// otherwise as for [`SbcPool::run_epoch`].
    pub fn run_epoch(&mut self, stream: InstanceId) -> Result<DursResult, SbcError> {
        let released = self.pool.run_epoch(stream)?;
        let fresh = (released.epoch + 1, vec![false; self.n()]);
        self.streams.insert(stream.0, fresh);
        Ok(DursResult::fold(&released.messages, released.release_round))
    }
}

/// The naive commit-free XOR beacon: shares are public the moment they are
/// posted, so the last revealer fully controls the output.
#[derive(Clone, Debug, Default)]
struct NaiveBeacon {
    shares: Vec<Vec<u8>>,
}

impl NaiveBeacon {
    /// Creates an empty beacon.
    fn new() -> Self {
        NaiveBeacon::default()
    }

    /// Posts a share (instantly public).
    fn post(&mut self, share: Vec<u8>) {
        self.shares.push(share);
    }

    /// Current XOR of all posted shares.
    fn combined(&self) -> Vec<u8> {
        DursResult::fold(&self.shares, 0).urs
    }
}

/// The last-revealer attack on the naive beacon: the adversary waits for
/// every honest share, then posts the share that forces the beacon output
/// to `target`. Returns the resulting beacon output (always `target`).
pub fn last_revealer_attack(honest_shares: &[[u8; URS_LEN]], target: &[u8; URS_LEN]) -> Vec<u8> {
    let mut beacon = NaiveBeacon::new();
    for s in honest_shares {
        beacon.post(s.to_vec());
    }
    // Rushing adversary: combine the public view and cancel it.
    let current = beacon.combined();
    beacon.post(current.iter().zip(target).map(|(c, t)| c ^ t).collect());
    beacon.combined()
}

/// Attempts the same attack against DURS over real SBC: the adversary
/// contributes last, after observing every leak of the broadcast period.
/// Its share cannot depend on the honest shares (they are time-locked), so
/// the output retains the honest parties' entropy. Returns `(output,
/// target_hit)`.
///
/// # Errors
///
/// Propagates [`SbcError`] from the session (should not occur for these
/// fixed parameters).
pub fn last_revealer_attack_on_durs(
    seed: &[u8],
    target: &[u8; URS_LEN],
) -> Result<(Vec<u8>, bool), SbcError> {
    // The adversary's best strategy within the model: contribute any value
    // chosen independently of the (hidden) honest shares.
    let mut session = DursSession::new(3, seed)?;
    session.contribute(0)?;
    session.contribute(1)?;
    // Adversarial third party: chooses its share with full knowledge of the
    // public view so far — which reveals nothing about the honest ρ's.
    session.contribute_chosen(2, target)?;
    let result = session.finish()?;
    let hit = result.urs == target;
    Ok((result.urs, hit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_core::worlds::IdealSbcWorld;

    impl<W: SbcBackend> DursPool<W> {
        /// Runs `stream` to release and retires it; the final beacon value is
        /// returned and the stream id stays unusable afterwards.
        ///
        /// # Errors
        ///
        /// As for [`run_epoch`](DursPool::run_epoch).
        fn finish_stream(&mut self, stream: InstanceId) -> Result<DursResult, SbcError> {
            let released = self.pool.finish(stream)?;
            self.streams.remove(&stream.0);
            Ok(DursResult::fold(&released.messages, released.release_round))
        }
    }

    #[test]
    fn durs_all_parties_agree() {
        let mut s = DursSession::new(3, b"agree").unwrap();
        for p in 0..3 {
            s.contribute(p).unwrap();
        }
        let r = s.finish().unwrap();
        assert_eq!(r.contributions, 3);
        assert_eq!(r.urs.len(), URS_LEN);
        assert_ne!(r.urs, vec![0u8; URS_LEN]);
    }

    #[test]
    fn durs_deterministic_per_seed() {
        let run = |seed: &[u8]| {
            let mut s = DursSession::new(2, seed).unwrap();
            s.contribute(0).unwrap();
            s.contribute(1).unwrap();
            s.finish().unwrap().urs
        };
        assert_eq!(run(b"seed-a"), run(b"seed-a"));
        assert_ne!(run(b"seed-a"), run(b"seed-b"));
    }

    #[test]
    fn durs_partial_participation() {
        let mut s = DursSession::new(4, b"partial").unwrap();
        s.contribute(1).unwrap();
        let r = s.finish().unwrap();
        assert_eq!(r.contributions, 1, "terminates without full participation");
    }

    #[test]
    fn durs_multi_epoch_beacon() {
        // One session, three beacon periods: fresh contributions, fresh
        // outputs, monotone release rounds.
        let mut s = DursSession::new(3, b"multi").unwrap();
        let mut outputs = Vec::new();
        let mut last_round = 0;
        for epoch in 0u64..3 {
            assert_eq!(s.epoch(), epoch);
            for p in 0..3 {
                s.contribute(p).unwrap();
            }
            let r = s.run_epoch().unwrap();
            assert_eq!(r.contributions, 3);
            assert!(r.release_round > last_round);
            last_round = r.release_round;
            outputs.push(r.urs);
        }
        assert_ne!(outputs[0], outputs[1], "per-epoch shares are fresh");
        assert_ne!(outputs[1], outputs[2]);
    }

    #[test]
    fn durs_real_and_ideal_backends_agree_per_epoch() {
        // The beacon over the ideal world (F_SBC + S_SBC) produces the
        // same output, contribution count and release round as over the
        // real stack, epoch for epoch — Theorem 2 at the application
        // layer, through the one backend-generic engine: one stream over
        // three epochs (a session).
        fn drive<W: SbcBackend>(seed: &[u8]) -> Vec<DursResult> {
            let mut s = DursSession::<W>::over_backend(3, seed).unwrap();
            let mut out = Vec::new();
            for _ in 0..3 {
                (0..3).for_each(|p| s.contribute(p).unwrap());
                out.push(s.run_epoch().unwrap());
            }
            out
        }
        let real = drive::<RealSbcWorld>(b"dual-beacon");
        assert_eq!(real, drive::<IdealSbcWorld>(b"dual-beacon"));
    }

    #[test]
    fn durs_pool_real_and_ideal_backends_agree() {
        // The same agreement for two streams over two epochs on one pool.
        fn drive<W: SbcBackend>(seed: &[u8]) -> Vec<DursResult> {
            let mut pool = DursPool::<W>::over_backend(3, seed).unwrap();
            let streams = [pool.open_stream().unwrap(), pool.open_stream().unwrap()];
            let mut out = Vec::new();
            for _ in 0..2 {
                for k in streams {
                    (0..3).for_each(|p| pool.contribute(k, p).unwrap());
                }
                for k in streams {
                    out.push(pool.run_epoch(k).unwrap());
                }
            }
            out
        }
        let real = drive::<RealSbcWorld>(b"dual-streams");
        assert_eq!(real, drive::<IdealSbcWorld>(b"dual-streams"));
    }

    /// Two epochs per seed — all three parties draw, then party 2 draws
    /// and party 1 chooses its share — pinned byte for byte over either
    /// backend: stream 0 forks `contrib/{epoch}/{p}` off `"durs/" ‖ seed`.
    #[test]
    fn durs_session_outputs_are_pinned() {
        const PINNED: [&str; 6] = [
            "pin-a c3d7ec1a23d69cbabb4e7522bde5ab1c7d91ec2618572025037f1c70c66d54eb 3 5",
            "pin-a fadcf50b33c43ab055d1b34ba86ba0f926e190ea5ce150d6e37f40dbcfa29ad0 2 11",
            "pin-b edbca2e5719d3dfd4d738c251da8f4ed5f019f01d21427e610598cd2d5c8e739 3 5",
            "pin-b 14fb94d07cbd36a37f5a54c43366f10d6b406c4a692335227ea41fe888008d0e 2 11",
            "pin-c d3971897d9fb1de28d10fca648f47af2a4faad7f333ce82a65779189ee151179 3 5",
            "pin-c c55bb447ee85800c0367b59136ca3d318495a54be269743055f27e6111df6c4e 2 11",
        ];
        fn run<W: SbcBackend>(seed: &str) -> Vec<String> {
            let mut s = DursSession::<W>::over_backend(3, seed.as_bytes()).unwrap();
            (0..3).for_each(|p| s.contribute(p).unwrap());
            let first = s.run_epoch().unwrap();
            s.contribute(2).unwrap();
            s.contribute_chosen(1, &[0xA5; URS_LEN]).unwrap();
            [first, s.run_epoch().unwrap()]
                .map(|r| {
                    let urs = sbc_primitives::hex::encode(&r.urs);
                    format!("{seed} {urs} {} {}", r.contributions, r.release_round)
                })
                .to_vec()
        }
        for (seed, pinned) in ["pin-a", "pin-b", "pin-c"].iter().zip(PINNED.chunks(2)) {
            assert_eq!(run::<RealSbcWorld>(seed), pinned);
            assert_eq!(run::<IdealSbcWorld>(seed), pinned);
        }
    }

    /// One validation order for both surfaces: stream, party, corruption
    /// and period come before the idempotence flags, so a repeated
    /// contribution after the period closed is refused like a first one.
    #[test]
    fn repeated_contribution_after_close_is_refused() {
        let mut s = DursSession::new(2, b"late-repeat").unwrap();
        s.contribute(0).unwrap();
        s.contribute_chosen(1, &[7; URS_LEN]).unwrap();
        // Period [0, 3) with delay 1: from round 2 on, too late.
        (0..2).for_each(|_| s.engine.step_round().unwrap());
        let closed = Err(SbcError::SubmitAfterClose { round: 2, t_end: 3 });
        assert_eq!(s.contribute(0), closed);
        assert_eq!(s.contribute_chosen(1, &[7; URS_LEN]), closed);
        assert_eq!(s.run_epoch().unwrap().contributions, 2);
    }

    /// However stream 0 was retired — a backend fault, here a raw finish —
    /// `epoch()` answers the epoch it was in, never a panic.
    #[test]
    fn durs_session_epoch_outlives_its_stream() {
        let mut s = DursSession::new(2, b"retired").unwrap();
        s.contribute(0).unwrap();
        s.run_epoch().unwrap();
        s.contribute(1).unwrap();
        s.engine.pool.finish(s.stream).unwrap();
        assert_eq!(s.epoch(), 1);
        let finished = SbcError::InstanceFinished { instance: 0 };
        assert_eq!(s.contribute(1), Err(finished));
    }

    #[test]
    fn durs_empty_epoch_is_no_input() {
        let mut s = DursSession::new(2, b"empty").unwrap();
        assert_eq!(s.run_epoch(), Err(SbcError::NoInput));
    }

    #[test]
    fn durs_out_of_range_contributor() {
        let mut s = DursSession::new(2, b"range").unwrap();
        assert_eq!(
            s.contribute(5),
            Err(SbcError::PartyOutOfRange { party: 5, n: 2 })
        );
    }

    #[test]
    fn naive_beacon_fully_biasable() {
        let target = [0x42u8; URS_LEN];
        let honest = [[0x11u8; URS_LEN], [0x77u8; URS_LEN]];
        let out = last_revealer_attack(&honest, &target);
        assert_eq!(out, target.to_vec(), "the last revealer forces any output");
    }

    #[test]
    fn durs_not_biasable_by_last_revealer() {
        let target = [0x42u8; URS_LEN];
        let mut hits = 0;
        for seed in [&b"b1"[..], b"b2", b"b3", b"b4"] {
            let (_, hit) = last_revealer_attack_on_durs(seed, &target).unwrap();
            hits += hit as u32;
        }
        assert_eq!(hits, 0, "2^-256 events don't happen");
    }

    #[test]
    fn output_bits_roughly_uniform() {
        // Aggregate bit balance over several independent runs.
        let mut ones = 0u32;
        let mut total = 0u32;
        for i in 0..8u8 {
            let mut s = DursSession::new(2, &[b'u', i]).unwrap();
            s.contribute(0).unwrap();
            s.contribute(1).unwrap();
            let urs = s.finish().unwrap().urs;
            for byte in urs {
                ones += byte.count_ones();
                total += 8;
            }
        }
        let ratio = ones as f64 / total as f64;
        assert!((0.40..=0.60).contains(&ratio), "bit ratio {ratio}");
    }

    #[test]
    fn durs_pool_overlapping_schedules() {
        // Two beacon streams on offset schedules over one shared world:
        // stream B opens while stream A is mid-period, and both keep
        // producing independent values on one clock.
        let mut pool = DursPool::new(3, b"overlap").unwrap();
        let a = pool.open_stream().unwrap();
        for p in 0..3 {
            pool.contribute(a, p).unwrap();
        }
        pool.step_round().unwrap();
        pool.step_round().unwrap();
        // A is mid-period; B joins the shared clock at round 2.
        let b = pool.open_stream().unwrap();
        assert_eq!(pool.pool.round(), 2);
        for p in 0..3 {
            pool.contribute(b, p).unwrap();
        }
        let ra0 = pool.run_epoch(a).unwrap();
        let rb0 = pool.run_epoch(b).unwrap();
        assert_eq!(ra0.contributions, 3);
        assert_eq!(rb0.contributions, 3);
        assert_ne!(ra0.urs, rb0.urs, "streams are independent");
        assert!(rb0.release_round > ra0.release_round, "offset schedules");
        // Next epochs continue interleaved on the same shared clock.
        for p in 0..3 {
            pool.contribute(a, p).unwrap();
            pool.contribute(b, p).unwrap();
        }
        let ra1 = pool.run_epoch(a).unwrap();
        let rb1 = pool.run_epoch(b).unwrap();
        assert_ne!(ra1.urs, ra0.urs, "fresh shares per epoch");
        assert_ne!(rb1.urs, rb0.urs);
        assert_eq!(pool.pool.epoch(a).unwrap(), 2);
        assert_eq!(pool.pool.epoch(b).unwrap(), 2);
    }

    #[test]
    fn durs_pool_adopts_streams_opened_on_the_raw_pool() {
        // An instance opened on the raw pool is not known
        // to the stream bookkeeping yet: contribute must adopt it (typed
        // errors only, never a panic).
        let mut pool = DursPool::new(2, b"raw-stream").unwrap();
        let foreign = pool.pool.open_instance().unwrap();
        pool.contribute(foreign, 0).unwrap();
        pool.contribute(foreign, 0).unwrap(); // idempotent after adoption
        pool.contribute(foreign, 1).unwrap();
        let r = pool.run_epoch(foreign).unwrap();
        assert_eq!(r.contributions, 2);
    }

    #[test]
    fn durs_pool_corruption_is_global_across_streams() {
        let mut pool = DursPool::new(3, b"pool-corr").unwrap();
        let a = pool.open_stream().unwrap();
        let b = pool.open_stream().unwrap();
        // Corrupt party 2 through the underlying pool world: it cannot
        // contribute to either stream.
        pool.pool.corrupt(2).unwrap();
        assert_eq!(
            pool.contribute(a, 2),
            Err(SbcError::CorruptedParty { party: 2 })
        );
        assert_eq!(
            pool.contribute(b, 2),
            Err(SbcError::CorruptedParty { party: 2 })
        );
        // The remaining honest parties still finish both streams.
        for p in 0..2 {
            pool.contribute(a, p).unwrap();
            pool.contribute(b, p).unwrap();
        }
        assert_eq!(pool.finish_stream(a).unwrap().contributions, 2);
        assert_eq!(pool.finish_stream(b).unwrap().contributions, 2);
        // Finished streams are typed errors.
        assert_eq!(
            pool.contribute(a, 0),
            Err(SbcError::InstanceFinished { instance: a.0 })
        );
    }
}
