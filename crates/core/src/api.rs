//! High-level session API: run simultaneous broadcast without touching the
//! UC machinery.
//!
//! [`SbcSession`] wires the full real-world stack (`Π_SBC` over `F_UBC` +
//! `F_TLE` + `F_RO` + `G_clock`), drives the rounds, and returns the agreed
//! message vector. This is the entry point every downstream application
//! (auctions, lotteries, elections, randomness beacons) builds on.
//!
//! # The contract
//!
//! * **Fallible, never panicking.** Every method that can be misused
//!   returns `Result<_, `[`SbcError`]`>`: invalid parameters are rejected
//!   at [`SbcSessionBuilder::build`], out-of-range parties and
//!   submissions after the period closed are rejected at
//!   [`SbcSession::submit`], and a session that cannot terminate reports
//!   [`SbcError::Timeout`] instead of aborting the process.
//! * **Multi-epoch.** One session runs successive broadcast periods over
//!   the same world: [`SbcSession::run_epoch`] releases the current
//!   period's vector as an [`EpochResult`] and re-opens the stack for the
//!   next one: randomness beacons and repeated elections keep one world
//!   stack across rounds.
//! * **Backend-pluggable.** The session is generic over its
//!   [`SbcBackend`]: `build()` runs the real protocol stack and
//!   [`SbcSessionBuilder::build_backend`] any other one —
//!   `build_backend::<IdealSbcWorld>()` the ideal `F_SBC + S_SBC` world,
//!   the networked worlds of `sbc-net` the same way. Epoch
//!   turnover is part of the proven surface: the dual-world tests assert
//!   real-vs-ideal transcript equality across corruptions, injections and
//!   late drains for every epoch, not just the first.
//! * **Adversary as configuration.** Dishonest-majority scenarios are set
//!   up on the builder ([`SbcSessionBuilder::corrupt`]) and driven through
//!   the session's adversarial surface ([`SbcSession::corrupt`],
//!   [`SbcSession::inject_message`]), not by hand-written
//!   `World::adversary` calls.
//! * **The single-instance special case.** A session *is* an
//!   [`SbcPool`] holding exactly one instance: all
//!   driving logic lives in the pool layer, and because a pool's first
//!   instance inherits the pool seed unchanged, a session behaves bit for
//!   bit like a one-instance pool.
//!
//! # Which entry point do I want?
//!
//! | I want to… | Use |
//! |---|---|
//! | run **one** SBC instance (single shot, or epochs in sequence) | [`SbcSession`] |
//! | run **many concurrent** SBC instances over one shared clock / corruption state | [`SbcPool`] |
//! | run an application workload | `sbc_apps`: `DursPool` (beacon streams; `DursSession` is its stream 0), `Election` (voting) |
//! | prove real ≈ ideal for one instance (security experiment) | `sbc_uc::exec::DualRun` over the [`SbcBackend`] worlds |
//! | prove real ≈ ideal for a whole pool, keyed by instance | `sbc_uc::exec::PoolDualRun` over [`crate::pool::PooledSbcWorld`], driven through `sbc_uc::exec::PoolWorld` |
//! | implement a new execution backend | `sbc_uc::exec::SbcWorld` + [`SbcBackend`] (the pool lifts it for free) |
//!
//! # Examples
//!
//! ```
//! use sbc_core::api::SbcSession;
//!
//! # fn main() -> Result<(), sbc_core::api::SbcError> {
//! let mut session = SbcSession::builder(3).seed(b"quick").build()?;
//! session.submit(0, b"alice's sealed bid")?;
//! session.submit(1, b"bob's sealed bid")?;
//! let result = session.run_to_completion()?;
//! assert_eq!(result.messages.len(), 2);
//! assert!(result.release_round > 0);
//! # Ok(())
//! # }
//! ```
//!
//! Multi-epoch use — three beacon periods over one world stack:
//!
//! ```
//! use sbc_core::api::SbcSession;
//!
//! # fn main() -> Result<(), sbc_core::api::SbcError> {
//! let mut session = SbcSession::builder(2).seed(b"beacon").build()?;
//! for epoch in 0u64..3 {
//!     session.submit(0, format!("share-a/{epoch}").as_bytes())?;
//!     session.submit(1, format!("share-b/{epoch}").as_bytes())?;
//!     let r = session.run_epoch()?;
//!     assert_eq!(r.epoch, epoch);
//!     assert_eq!(r.messages.len(), 2);
//! }
//! # Ok(())
//! # }
//! ```

use crate::pool::{InstanceId, SbcPool, SbcPoolBuilder};
use crate::worlds::{RealSbcWorld, SbcBackend};
use sbc_uc::exec::SbcWorld;
use sbc_uc::value::Value;

pub use crate::error::SbcError;

/// Builder for [`SbcSession`] — a thin delegate over
/// [`SbcPoolBuilder`]: every parameter and
/// adversary option is defined once in the pool layer, and building a
/// session is building a pool and opening its single instance.
#[derive(Clone, Debug)]
pub struct SbcSessionBuilder {
    pool: SbcPoolBuilder,
}

impl SbcSessionBuilder {
    /// Broadcast period span Φ (rounds).
    pub fn phi(mut self, phi: u64) -> Self {
        self.pool = self.pool.phi(phi);
        self
    }

    /// Delivery delay ∆ (rounds after the period ends).
    pub fn delta(mut self, delta: u64) -> Self {
        self.pool = self.pool.delta(delta);
        self
    }

    /// TLE ciphertext-generation delay.
    pub fn tle_delay(mut self, delay: u64) -> Self {
        self.pool = self.pool.tle_delay(delay);
        self
    }

    /// Experiment seed (determines all randomness).
    pub fn seed(mut self, seed: &[u8]) -> Self {
        self.pool = self.pool.seed(seed);
        self
    }

    /// Corrupts `parties` at session start (before any input). Delegates
    /// to [`SbcPoolBuilder::corrupt`] — the session builder keeps no
    /// parallel adversary state of its own.
    pub fn corrupt(mut self, parties: &[u32]) -> Self {
        self.pool = self.pool.corrupt(parties);
        self
    }

    /// Builds the session over the real protocol stack (`Π_SBC` over
    /// `F_UBC` + `F_TLE` + `F_RO` + `G_clock`).
    ///
    /// # Errors
    ///
    /// * [`SbcError::InvalidParams`] if the parameters violate Theorem 2's
    ///   constraints (`Φ > delay`, `∆ > α_TLE`) or `n = 0`.
    /// * [`SbcError::PartyOutOfRange`] if the adversary configuration
    ///   corrupts a party index `≥ n`.
    pub fn build(self) -> Result<SbcSession, SbcError> {
        self.build_backend::<RealSbcWorld>()
    }

    /// Builds the session over any [`SbcBackend`] — the ideal world
    /// (`F_SBC(Φ, ∆, α)` composed with the Theorem 2 simulator `S_SBC`) as
    /// `build_backend::<IdealSbcWorld>()`, the networked worlds of
    /// `sbc-net` the same way. Same session code, same adversary surface,
    /// same multi-epoch driver — by Theorem 2, every observable of the
    /// real and the ideal backend agrees, which the dual-world tests
    /// assert epoch by epoch.
    ///
    /// # Errors
    ///
    /// Same as [`build`](SbcSessionBuilder::build).
    pub fn build_backend<W: SbcBackend>(self) -> Result<SbcSession<W>, SbcError> {
        // Validation, error precedence, and corrupt-at-start replay all
        // live in the pool builder; the session is its one open instance
        // (corruption recorded on the pool is replayed into the instance
        // world at open, exactly as a post-build `corrupt` call would).
        let mut pool = self.pool.build_backend::<W>()?;
        let id = pool.open_instance()?;
        Ok(SbcSession { pool, id })
    }
}

/// The outcome of a single-shot SBC run (or of one period inside a
/// multi-epoch session — see [`EpochResult`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SbcResult {
    /// The agreed message vector (lexicographically sorted), identical at
    /// every honest party.
    pub messages: Vec<Vec<u8>>,
    /// The round at which the vector was released: `τ_rel = t_awake + Φ +
    /// ∆`, taken from the parties' agreed wake-up time — correct even when
    /// outputs are drained late.
    pub release_round: u64,
}

/// The outcome of one broadcast period of a multi-epoch session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochResult {
    /// Zero-based epoch counter.
    pub epoch: u64,
    /// The agreed message vector of this epoch (lexicographically sorted).
    pub messages: Vec<Vec<u8>>,
    /// The round the vector was released (`t_awake + Φ + ∆`).
    pub release_round: u64,
}

/// A running simultaneous-broadcast session over a pluggable execution
/// backend — the real protocol stack by default, or any other
/// [`SbcBackend`] (the ideal `F_SBC + S_SBC` world, a networked one) via
/// [`build_backend`](SbcSessionBuilder::build_backend).
/// Every method below is backend-agnostic: it speaks only the
/// [`SbcWorld`] trait.
///
/// The session is *multi-epoch*: after [`run_epoch`](SbcSession::run_epoch)
/// releases a period's vector, the same world (clock, random oracle,
/// corruption state) hosts the next period. Submissions made after an
/// epoch completes belong to the next epoch.
///
/// Structurally, a session is the **single-instance special case** of
/// [`SbcPool`]: it wraps a pool holding exactly one
/// instance and delegates every operation to it. Workloads that need many
/// concurrent instances (overlapping beacon schedules, parallel motions,
/// concurrent auction lots) use the pool directly.
#[derive(Debug)]
pub struct SbcSession<W: SbcWorld = RealSbcWorld> {
    pool: SbcPool<W>,
    id: InstanceId,
}

impl SbcSession {
    /// Starts building a session for `n` parties.
    pub fn builder(n: usize) -> SbcSessionBuilder {
        SbcSessionBuilder {
            pool: SbcPool::builder(n),
        }
    }
}

impl<W: SbcBackend> SbcSession<W> {
    /// The instance is opened at build time and never finished through the
    /// session surface, so instance-addressed pool calls cannot fail with
    /// `UnknownInstance`/`InstanceFinished`. Only a backend fault retires
    /// it, and then they fail with that [`SbcError::Undeliverable`].
    fn live(&self) -> InstanceId {
        self.id
    }

    /// The zero-based index of the epoch currently accepting submissions
    /// (after a backend fault, the epoch the session was in).
    pub fn epoch(&self) -> u64 {
        self.pool.last_epoch(self.live())
    }

    /// Checks whether an honest submission by `party` would currently be
    /// accepted, without submitting anything. Lets callers skip expensive
    /// payload construction (e.g. ballot proofs) when the submission is
    /// doomed to be rejected.
    ///
    /// # Errors
    ///
    /// The same errors [`submit`](SbcSession::submit) would return.
    pub fn check_submittable(&self, party: u32) -> Result<(), SbcError> {
        self.pool.check_submittable(self.live(), party)
    }

    /// Submits `message` for broadcast by honest party `party` in the
    /// current epoch.
    ///
    /// # Errors
    ///
    /// * [`SbcError::PartyOutOfRange`] if `party ≥ n`.
    /// * [`SbcError::CorruptedParty`] if `party` is corrupted (corrupted
    ///   inputs go through [`inject_message`](SbcSession::inject_message)).
    /// * [`SbcError::SubmitAfterClose`] if the period is already too far
    ///   along for the ciphertext to be ready before `t_end`.
    pub fn submit(&mut self, party: u32, message: &[u8]) -> Result<(), SbcError> {
        self.pool.submit(self.live(), party, message)
    }

    /// Runs one full round (all honest parties advance). Returns the
    /// released message vector if this round was the release round.
    ///
    /// # Errors
    ///
    /// [`SbcError::Undeliverable`] if the backend refused a message it
    /// built, on that round and every later one; [`SbcError::Internal`] if
    /// honest parties released different vectors or a malformed payload —
    /// a broken world invariant.
    pub fn step_round(&mut self) -> Result<Option<SbcResult>, SbcError> {
        let id = self.live();
        self.pool.check_instance(id)?;
        let released = self.pool.step_round()?;
        Ok(released
            .into_iter()
            .find(|(i, _)| *i == id)
            .map(|(_, result)| result))
    }

    /// Runs rounds until the current period's vector is released.
    ///
    /// This is the single-shot driver: the period stays **closed**
    /// afterwards and further submissions return
    /// [`SbcError::SubmitAfterClose`]; calling it again (or after a
    /// manual [`step_round`](SbcSession::step_round) loop already saw the
    /// release) returns the same cached result. A session meant to host
    /// several periods must drive every period — including the first —
    /// with [`run_epoch`](SbcSession::run_epoch), which performs the
    /// epoch turnover this method deliberately skips.
    ///
    /// # Errors
    ///
    /// * [`SbcError::NoInput`] if nothing was submitted this epoch.
    /// * [`SbcError::Timeout`] if the stack fails to release within
    ///   `Φ + ∆ + 4` rounds.
    /// * [`SbcError::Internal`] on a broken world invariant.
    pub fn run_to_completion(&mut self) -> Result<SbcResult, SbcError> {
        self.pool.run_to_completion(self.live())
    }

    /// Runs the current epoch to release and re-opens the stack for the
    /// next one. Submissions made after this call belong to the next
    /// epoch; the global clock, random oracle, and corruption state carry
    /// over.
    ///
    /// # Errors
    ///
    /// Same as [`run_to_completion`](SbcSession::run_to_completion).
    pub fn run_epoch(&mut self) -> Result<EpochResult, SbcError> {
        self.pool.run_epoch(self.live())
    }

    // ------------------------------------------------------------------
    // Adversarial surface
    // ------------------------------------------------------------------

    /// Adaptively corrupts `party`, returning its pending (not yet
    /// broadcast) messages — the corruption-request view of Fig. 13.
    ///
    /// # Errors
    ///
    /// * [`SbcError::PartyOutOfRange`] if `party ≥ n`.
    /// * [`SbcError::CorruptedParty`] if `party` was already corrupted.
    pub fn corrupt(&mut self, party: u32) -> Result<Vec<Value>, SbcError> {
        let id = self.live();
        let views = self.pool.corrupt(party)?;
        Ok(views
            .into_iter()
            .find(|(i, _)| *i == id)
            .map(|(_, pending)| pending)
            .unwrap_or_default())
    }

    /// The full adversarial-broadcast recipe on behalf of corrupted
    /// `party`: fabricates a time-lock ciphertext for a fresh `ρ`,
    /// registers it with `F_TLE` (`Insert`), derives the honest mask
    /// `η = H(ρ; |M|)` from `F_RO`, and sends `(c, τ_rel, M ⊕ η)` as the
    /// corrupted party. Honest parties will open it to `message` at
    /// `τ_rel` — but, exactly as the paper requires, the adversary had to
    /// commit to `message` *during* the period, without seeing any honest
    /// plaintext.
    ///
    /// # Errors
    ///
    /// * [`SbcError::PartyOutOfRange`] if `party ≥ n`.
    /// * [`SbcError::HonestParty`] if `party` is not corrupted.
    /// * [`SbcError::PeriodNotOpen`] before the first wake-up (`τ_rel` is
    ///   not yet agreed).
    /// * [`SbcError::SubmitAfterClose`] once the period has closed.
    pub fn inject_message(&mut self, party: u32, message: &[u8]) -> Result<(), SbcError> {
        self.pool.inject_message(self.live(), party, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worlds::IdealSbcWorld;

    #[test]
    fn quickstart_flow() {
        let mut s = SbcSession::builder(3).seed(b"api-test").build().unwrap();
        s.submit(0, b"one").unwrap();
        s.submit(1, b"two").unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.messages.len(), 2);
        assert!(r.messages.contains(&b"one".to_vec()));
        assert!(r.messages.contains(&b"two".to_vec()));
        assert_eq!(r.release_round, 3 + 2);
    }

    #[test]
    fn custom_parameters() {
        let mut s = SbcSession::builder(2)
            .phi(4)
            .delta(3)
            .seed(b"custom")
            .build()
            .unwrap();
        s.submit(0, b"m").unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.release_round, 4 + 3);
    }

    #[test]
    fn messages_sorted_deterministically() {
        let mut s = SbcSession::builder(3).seed(b"sorted").build().unwrap();
        s.submit(2, b"zzz").unwrap();
        s.submit(0, b"aaa").unwrap();
        s.submit(1, b"mmm").unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(
            r.messages,
            vec![b"aaa".to_vec(), b"mmm".to_vec(), b"zzz".to_vec()]
        );
    }

    #[test]
    fn single_submitter_liveness() {
        let mut s = SbcSession::builder(5).seed(b"solo").build().unwrap();
        s.submit(3, b"alone").unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.messages, vec![b"alone".to_vec()]);
        assert_eq!(r.release_round, 3 + 2, "one sender of five: no waiting");
    }

    #[test]
    fn empty_session_is_no_input_error() {
        let mut s = SbcSession::builder(2).seed(b"empty").build().unwrap();
        assert_eq!(s.run_to_completion(), Err(SbcError::NoInput));
    }

    #[test]
    fn out_of_range_party_is_error() {
        let mut s = SbcSession::builder(2).seed(b"oops").build().unwrap();
        assert_eq!(
            s.submit(7, b"x"),
            Err(SbcError::PartyOutOfRange { party: 7, n: 2 })
        );
    }

    #[test]
    fn invalid_params_rejected_at_build() {
        // Φ ≤ delay violates Theorem 2.
        let err = SbcSession::builder(3)
            .phi(1)
            .tle_delay(1)
            .seed(b"bad")
            .build()
            .unwrap_err();
        assert!(matches!(err, SbcError::InvalidParams { .. }));
        // ∆ ≤ α_TLE violates Theorem 2.
        let err = SbcSessionBuilder {
            pool: SbcPool::builder(3).delta(1).tle_alpha(1),
        }
        .seed(b"bad2")
        .build()
        .unwrap_err();
        assert!(matches!(err, SbcError::InvalidParams { .. }));
        // n = 0 is degenerate.
        let err = SbcSession::builder(0).seed(b"bad3").build().unwrap_err();
        assert!(matches!(err, SbcError::InvalidParams { .. }));
        // A Φ or ∆ that overflows `now + Φ + ∆` is refused, not run.
        for builder in [
            SbcSession::builder(2).phi(u64::MAX),
            SbcSession::builder(2).delta(u64::MAX),
        ] {
            let err = builder.seed(b"x").build().unwrap_err();
            assert!(matches!(err, SbcError::InvalidParams { .. }));
        }
    }

    #[test]
    fn submit_after_close_rejected() {
        let mut s = SbcSession::builder(2).seed(b"late").build().unwrap();
        s.submit(0, b"on-time").unwrap();
        // Period = [0, 3); with tle_delay = 1, submissions from round 2 on
        // cannot complete.
        for _ in 0..2 {
            s.step_round().unwrap();
        }
        let err = s.submit(1, b"too-late").unwrap_err();
        assert_eq!(err, SbcError::SubmitAfterClose { round: 2, t_end: 3 });
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.messages, vec![b"on-time".to_vec()]);
    }

    #[test]
    fn release_round_correct_when_drained_late() {
        // Drive rounds manually well past τ_rel before draining: the
        // reported release round is still t_awake + Φ + ∆.
        let mut s = SbcSession::builder(2).seed(b"late-drain").build().unwrap();
        // Idle rounds first: wake-up at round 2.
        s.step_round().unwrap();
        s.step_round().unwrap();
        s.submit(0, b"m").unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.release_round, 2 + 3 + 2, "t_awake + Φ + ∆");
    }

    #[test]
    fn three_epochs_on_one_session() {
        let mut s = SbcSession::builder(3).seed(b"epochs").build().unwrap();
        for epoch in 0u64..3 {
            s.submit(0, format!("a{epoch}").as_bytes()).unwrap();
            s.submit(1, format!("b{epoch}").as_bytes()).unwrap();
            let r = s.run_epoch().unwrap();
            assert_eq!(r.epoch, epoch);
            assert_eq!(
                r.messages,
                vec![
                    format!("a{epoch}").into_bytes(),
                    format!("b{epoch}").into_bytes()
                ]
            );
        }
        assert_eq!(s.epoch(), 3);
    }

    #[test]
    fn manual_step_round_release_still_turns_epoch_over() {
        // A caller draining the release through step_round must not wedge
        // the session: run_epoch sees the cached release, turns the epoch
        // over, and the next period accepts submissions.
        let mut s = SbcSession::builder(2).seed(b"manual").build().unwrap();
        s.submit(0, b"first").unwrap();
        let manual = loop {
            if let Some(r) = s.step_round().unwrap() {
                break r;
            }
        };
        let epoch = s.run_epoch().unwrap();
        assert_eq!(epoch.messages, manual.messages);
        assert_eq!(epoch.release_round, manual.release_round);
        s.submit(1, b"second").unwrap();
        assert_eq!(s.run_epoch().unwrap().messages, vec![b"second".to_vec()]);
    }

    #[test]
    fn run_to_completion_is_idempotent_after_release() {
        let mut s = SbcSession::builder(2).seed(b"idem").build().unwrap();
        s.submit(0, b"m").unwrap();
        let first = s.run_to_completion().unwrap();
        assert_eq!(s.run_to_completion().unwrap(), first, "cached result");
    }

    #[test]
    fn corruption_budget_is_a_distinct_error() {
        // n = 2 allows t ≤ 1 corruption: the second is refused for the
        // budget, not misreported as "already corrupted".
        let mut s = SbcSession::builder(2).seed(b"budget").build().unwrap();
        s.corrupt(0).unwrap();
        assert_eq!(
            s.corrupt(1),
            Err(SbcError::CorruptionBudgetExceeded { party: 1 })
        );
        assert!(!s.pool.is_corrupted(1), "party 1 stayed honest");
    }

    #[test]
    fn epoch_release_rounds_advance_monotonically() {
        let mut s = SbcSession::builder(2).seed(b"mono").build().unwrap();
        let mut last = 0;
        for _ in 0..3 {
            s.submit(0, b"x").unwrap();
            let r = s.run_epoch().unwrap();
            assert!(r.release_round > last, "epochs share one global clock");
            last = r.release_round;
        }
    }

    #[test]
    fn corrupt_and_inject_through_public_api() {
        let mut s = SbcSessionBuilder {
            pool: SbcPool::builder(3).capture_leaks(),
        }
        .seed(b"adv")
        .corrupt(&[2])
        .build()
        .unwrap();
        s.submit(0, b"honest").unwrap();
        // Wake the stack so τ_rel is agreed, then inject as the corrupted
        // party mid-period.
        s.step_round().unwrap();
        s.inject_message(2, b"adversarial").unwrap();
        let r = s.run_to_completion().unwrap();
        assert!(r.messages.contains(&b"honest".to_vec()));
        assert!(r.messages.contains(&b"adversarial".to_vec()));
        assert!(
            !s.pool.leaks(s.id).unwrap().is_empty(),
            "leak capture is on"
        );
    }

    #[test]
    fn adversarial_surface_error_paths() {
        let mut s = SbcSession::builder(2).seed(b"adv-err").build().unwrap();
        assert_eq!(
            s.pool.send_as(s.id, 0, Value::Unit),
            Err(SbcError::HonestParty { party: 0 })
        );
        assert_eq!(
            s.inject_message(1, b"m"),
            Err(SbcError::HonestParty { party: 1 })
        );
        assert_eq!(
            s.corrupt(9),
            Err(SbcError::PartyOutOfRange { party: 9, n: 2 })
        );
        s.corrupt(1).unwrap();
        assert_eq!(s.corrupt(1), Err(SbcError::CorruptedParty { party: 1 }));
        assert_eq!(
            s.submit(1, b"m"),
            Err(SbcError::CorruptedParty { party: 1 })
        );
        // No wake-up yet: τ_rel unknown.
        assert_eq!(s.inject_message(1, b"m"), Err(SbcError::PeriodNotOpen));
    }

    #[test]
    fn ideal_backend_quickstart() {
        let mut s = SbcSession::builder(3)
            .seed(b"ideal-api")
            .build_backend::<IdealSbcWorld>()
            .unwrap();
        s.submit(0, b"one").unwrap();
        s.submit(1, b"two").unwrap();
        let r = s.run_to_completion().unwrap();
        assert_eq!(r.messages.len(), 2);
        assert_eq!(r.release_round, 3 + 2);
        assert!(!s.pool.would_abort());
    }

    #[test]
    fn real_and_ideal_backends_agree_across_adversarial_epochs() {
        // The same generic driver runs both backends: every epoch's agreed
        // vector and release round must match — Theorem 2 at session level,
        // including corruption and wire injection.
        fn drive<W: SbcBackend>(mut s: SbcSession<W>) -> (Vec<EpochResult>, bool) {
            s.corrupt(2).unwrap();
            let mut out = Vec::new();
            for epoch in 0u64..3 {
                s.submit(0, format!("a{epoch}").as_bytes()).unwrap();
                s.step_round().unwrap(); // period opens: τ_rel agreed
                s.inject_message(2, format!("evil{epoch}").as_bytes())
                    .unwrap();
                s.submit(1, format!("b{epoch}").as_bytes()).unwrap();
                out.push(s.run_epoch().unwrap());
            }
            (out, s.pool.would_abort())
        }
        let real = drive(SbcSession::builder(3).seed(b"dual-adv").build().unwrap());
        let ideal = drive(
            SbcSession::builder(3)
                .seed(b"dual-adv")
                .build_backend::<IdealSbcWorld>()
                .unwrap(),
        );
        assert!(!real.1 && !ideal.1, "no simulator abort");
        assert_eq!(real.0, ideal.0, "epoch results diverge");
        for (epoch, r) in real.0.iter().enumerate() {
            assert_eq!(r.messages.len(), 3, "epoch {epoch}: 2 honest + 1 injected");
            assert!(r.messages.contains(&format!("evil{epoch}").into_bytes()));
        }
    }

    #[test]
    fn build_backend_is_the_generic_entry_point() {
        let s = SbcSession::builder(2)
            .seed(b"generic")
            .build_backend::<IdealSbcWorld>()
            .unwrap();
        assert_eq!(s.pool.params().n, 2);
        let err = SbcSession::builder(0)
            .seed(b"generic-bad")
            .build_backend::<RealSbcWorld>()
            .unwrap_err();
        assert!(matches!(err, SbcError::InvalidParams { .. }));
        // Parameter errors outrank adversary-config errors: a corrupt list
        // over degenerate params is reported as InvalidParams, not as a
        // party "out of range for a 0-party session".
        let err = SbcSession::builder(0)
            .corrupt(&[0])
            .seed(b"precedence")
            .build()
            .unwrap_err();
        assert!(matches!(err, SbcError::InvalidParams { .. }));
    }

    #[test]
    fn corruption_returns_pending_messages() {
        let mut s = SbcSessionBuilder {
            pool: SbcPool::builder(2).capture_leaks(),
        }
        .seed(b"pend")
        .build()
        .unwrap();
        s.submit(0, b"secret-draft").unwrap();
        let pending = s.corrupt(0).unwrap();
        assert_eq!(pending, vec![Value::bytes(b"secret-draft")]);
    }
}
