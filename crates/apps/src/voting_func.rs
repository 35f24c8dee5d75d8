//! The ideal voting-system functionality `F_VS(Φ, ∆, α)` (paper Fig. 17) —
//! Szepieniec–Preneel's functionality adapted to the global clock and
//! adaptive corruption.
//!
//! It mirrors `F_SBC`'s lifecycle but delivers only the *tally*: votes cast
//! during the `Φ`-round casting window are hidden (the adversary sees a tag
//! and the voter identity), the result is computed at `t_tally − α` for the
//! simulator and released to each voter at `t_tally = t_end + ∆`. Votes of
//! corrupted voters may be substituted via `Allow` until the window closes;
//! per-voter quotas keep only the latest allowed ballot.

use sbc_primitives::drbg::Drbg;
use sbc_uc::hybrid::HybridCtx;
use sbc_uc::ids::{PartyId, Tag};
use sbc_uc::value::{Command, Value};
use std::collections::HashMap;

/// Leak source label for `F_VS`.
pub const VS_SOURCE: &str = "F_VS";

/// A cast-vote record `(tag, v, V, Cl, flag)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CastRecord {
    /// Unique tag.
    pub tag: Tag,
    /// The vote (candidate index).
    pub vote: u64,
    /// The voter.
    pub voter: PartyId,
    /// Cast round.
    pub cast_at: u64,
    /// Finalization flag (tallied only if set).
    pub finalized: bool,
}

/// The functionality `F_VS^{Φ,∆,α}(V)`.
#[derive(Clone, Debug)]
pub struct VotingFunc {
    phi: u64,
    delta: u64,
    alpha: u64,
    candidates: u64,
    cast: Vec<CastRecord>,
    t_start: Option<u64>,
    result: Option<Vec<u64>>,
    sim_result_sent: bool,
    round_seen: Option<u64>,
    last_advance: HashMap<PartyId, u64>,
    tag_rng: Drbg,
}

impl VotingFunc {
    /// Creates the functionality for `candidates` options.
    ///
    /// # Errors
    ///
    /// Rejects parameters unless `Φ > 0`, `∆ ≥ α` and `candidates ≥ 2`,
    /// and bounds Φ and ∆ by `2³² − 1` as `SbcParams::validate` does, so
    /// `t_end` and `t_tally` cannot overflow.
    pub fn new(
        phi: u64,
        delta: u64,
        alpha: u64,
        candidates: u64,
        tag_rng: Drbg,
    ) -> Result<Self, &'static str> {
        if phi == 0 {
            return Err("casting window must be positive");
        }
        if phi > u64::from(u32::MAX) || delta > u64::from(u32::MAX) {
            return Err("need Φ, ∆ ≤ 2³² − 1");
        }
        if delta < alpha {
            return Err("need ∆ ≥ α");
        }
        if candidates < 2 {
            return Err("need at least two candidates");
        }
        Ok(VotingFunc {
            phi,
            delta,
            alpha,
            candidates,
            cast: Vec::new(),
            t_start: None,
            result: None,
            sim_result_sent: false,
            round_seen: None,
            last_advance: HashMap::new(),
            tag_rng,
        })
    }

    /// `Init` from the (last) authority: opens the casting window.
    pub fn init(&mut self, ctx: &mut HybridCtx<'_>) {
        if self.t_start.is_none() {
            self.t_start = Some(ctx.time());
        }
    }

    /// End of the casting window, if opened.
    pub fn t_end(&self) -> Option<u64> {
        self.t_start.map(|t| t + self.phi)
    }

    /// The tally release round `t_tally = t_end + ∆`.
    pub fn t_tally(&self) -> Option<u64> {
        self.t_end().map(|t| t + self.delta)
    }

    /// `Vote` from an honest voter (leaks `(tag, V)`) or from the simulator
    /// on behalf of a corrupted one (leaks `(tag, v, V)`; enters
    /// finalized). Invalid votes and out-of-window casts are discarded.
    pub fn vote(&mut self, voter: PartyId, vote: u64, ctx: &mut HybridCtx<'_>) -> Option<Tag> {
        let now = ctx.time();
        let (start, end) = (self.t_start?, self.t_end()?);
        if !(start <= now && now < end) || vote >= self.candidates {
            return None;
        }
        let tag = Tag::random(&mut self.tag_rng);
        let corrupted = ctx.is_corrupted(voter);
        self.cast.push(CastRecord {
            tag,
            vote,
            voter,
            cast_at: now,
            finalized: corrupted,
        });
        let payload = if corrupted {
            Value::list([
                Value::bytes(tag.as_bytes()),
                Value::U64(vote),
                Value::U64(voter.0 as u64),
            ])
        } else {
            Value::list([Value::bytes(tag.as_bytes()), Value::U64(voter.0 as u64)])
        };
        ctx.leak(VS_SOURCE, Command::new("Vote", payload));
        Some(tag)
    }

    /// `Corruption_Request`: unfinalized records of corrupted voters.
    pub fn corruption_request(&self, ctx: &HybridCtx<'_>) -> Vec<CastRecord> {
        self.cast
            .iter()
            .filter(|r| !r.finalized && ctx.is_corrupted(r.voter))
            .cloned()
            .collect()
    }

    /// `Allow`: substitute-and-finalize a corrupted voter's pending vote
    /// within the casting window.
    pub fn allow(&mut self, tag: Tag, vote: u64, voter: PartyId, ctx: &mut HybridCtx<'_>) -> bool {
        let now = ctx.time();
        let (Some(start), Some(end)) = (self.t_start, self.t_end()) else {
            return false;
        };
        if now < start || now >= end || !ctx.is_corrupted(voter) || vote >= self.candidates {
            return false;
        }
        let Some(rec) = self
            .cast
            .iter_mut()
            .find(|r| r.tag == tag && r.voter == voter && !r.finalized)
        else {
            return false;
        };
        rec.vote = vote;
        rec.finalized = true;
        true
    }

    fn compute_result(&mut self, honest: &[bool]) {
        // Honest voters' casts are guaranteed to count (Fig. 17 step 2a).
        for r in self.cast.iter_mut() {
            if !r.finalized && honest.get(r.voter.index()).copied().unwrap_or(false) {
                r.finalized = true;
            }
        }
        // Quota: one vote per voter, most recent finalized cast wins.
        let mut latest: HashMap<PartyId, (u64, u64)> = HashMap::new();
        for r in &self.cast {
            if r.finalized {
                latest.insert(r.voter, (r.cast_at, r.vote));
            }
        }
        let mut counts = vec![0u64; self.candidates as usize];
        for (_, (_, v)) in latest {
            counts[v as usize] += 1;
        }
        self.result = Some(counts);
    }

    /// `Advance_Clock` from an honest voter: computes the tally at
    /// `t_tally − α` (leaking it to the simulator) and releases it to each
    /// voter at `t_tally`.
    pub fn advance_clock(&mut self, voter: PartyId, ctx: &mut HybridCtx<'_>) -> Option<Vec<u64>> {
        if ctx.is_corrupted(voter) {
            return None;
        }
        let now = ctx.time();
        if self.last_advance.get(&voter) == Some(&now) {
            return None;
        }
        self.last_advance.insert(voter, now);
        let tally_at = self.t_tally()?;
        if self.round_seen != Some(now) {
            self.round_seen = Some(now);
            if now == tally_at - self.alpha && self.result.is_none() && !self.sim_result_sent {
                self.sim_result_sent = true;
                let max_voter = self.cast.iter().map(|r| r.voter.index()).max().unwrap_or(0);
                let honest: Vec<bool> = (0..=max_voter as u32)
                    .map(|i| !ctx.is_corrupted(PartyId(i)))
                    .collect();
                self.compute_result(&honest);
                let res = self.result.clone().expect("just computed");
                ctx.leak(
                    VS_SOURCE,
                    Command::new("Result", Value::list(res.into_iter().map(Value::U64))),
                );
            }
        }
        if now == tally_at {
            return self.result.clone();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_uc::world::WorldCore;

    fn func() -> VotingFunc {
        // Φ = 2, ∆ = 2, α = 1, two candidates.
        VotingFunc::new(2, 2, 1, 2, Drbg::from_seed(b"fvs-tags")).unwrap()
    }

    #[test]
    fn lifecycle_and_tally() {
        let mut core = WorldCore::new(3, b"fvs");
        let mut f = func();
        f.init(&mut core.ctx());
        assert_eq!(f.t_end(), Some(2));
        assert_eq!(f.t_tally(), Some(4));
        f.vote(PartyId(0), 1, &mut core.ctx()).unwrap();
        f.vote(PartyId(1), 0, &mut core.ctx()).unwrap();
        f.vote(PartyId(2), 1, &mut core.ctx()).unwrap();
        // Rounds 0..3: nothing released.
        for round in 0..4u64 {
            for i in 0..3 {
                assert!(
                    f.advance_clock(PartyId(i), &mut core.ctx()).is_none(),
                    "round {round}"
                );
            }
            core.clock.fast_forward(core.clock.read() + 1);
        }
        // Round 4 = t_tally: everyone gets the result.
        for i in 0..3 {
            assert_eq!(
                f.advance_clock(PartyId(i), &mut core.ctx()),
                Some(vec![1, 2])
            );
        }
    }

    #[test]
    fn honest_vote_leak_hides_choice() {
        let mut core = WorldCore::new(2, b"fvs");
        let mut f = func();
        f.init(&mut core.ctx());
        f.vote(PartyId(0), 1, &mut core.ctx()).unwrap();
        let items = core.leaks[0].cmd.value.as_list().unwrap();
        assert_eq!(items.len(), 2, "tag and voter only — no vote content");
    }

    #[test]
    fn result_leaks_to_simulator_alpha_early() {
        let mut core = WorldCore::new(1, b"fvs");
        let mut f = func(); // t_tally = 4, α = 1 → simulator sees at 3
        f.init(&mut core.ctx());
        f.vote(PartyId(0), 1, &mut core.ctx()).unwrap();
        for _ in 0..3 {
            f.advance_clock(PartyId(0), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        core.leaks.clear();
        assert!(
            f.advance_clock(PartyId(0), &mut core.ctx()).is_none(),
            "round 3: no release"
        );
        assert_eq!(
            core.leaks.len(),
            1,
            "round 3 = t_tally − α: simulator result"
        );
        assert_eq!(core.leaks[0].cmd.name, "Result");
    }

    #[test]
    fn invalid_and_late_votes_discarded() {
        let mut core = WorldCore::new(2, b"fvs");
        let mut f = func();
        f.init(&mut core.ctx());
        assert!(
            f.vote(PartyId(0), 7, &mut core.ctx()).is_none(),
            "invalid candidate"
        );
        core.clock.fast_forward(core.clock.read() + 1);
        core.clock.fast_forward(core.clock.read() + 1);
        // Cl = 2 = t_end: window closed.
        assert!(f.vote(PartyId(0), 1, &mut core.ctx()).is_none());
    }

    #[test]
    fn corrupted_vote_substitution_until_window_closes() {
        let mut core = WorldCore::new(2, b"fvs");
        let mut f = func();
        f.init(&mut core.ctx());
        let tag = f.vote(PartyId(1), 0, &mut core.ctx()).unwrap();
        core.corr.corrupt(PartyId(1)).unwrap();
        assert_eq!(f.corruption_request(&core.ctx()).len(), 1);
        assert!(f.allow(tag, 1, PartyId(1), &mut core.ctx()));
        assert!(
            !f.allow(tag, 0, PartyId(1), &mut core.ctx()),
            "already finalized"
        );
        for _ in 0..4 {
            f.advance_clock(PartyId(0), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        assert_eq!(
            f.advance_clock(PartyId(0), &mut core.ctx()),
            Some(vec![0, 1])
        );
    }

    #[test]
    fn unallowed_corrupted_vote_dropped() {
        let mut core = WorldCore::new(2, b"fvs");
        let mut f = func();
        f.init(&mut core.ctx());
        f.vote(PartyId(0), 1, &mut core.ctx()).unwrap();
        f.vote(PartyId(1), 0, &mut core.ctx()).unwrap();
        core.corr.corrupt(PartyId(1)).unwrap();
        for _ in 0..4 {
            f.advance_clock(PartyId(0), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        assert_eq!(
            f.advance_clock(PartyId(0), &mut core.ctx()),
            Some(vec![0, 1]),
            "corrupted unallowed vote does not count"
        );
    }

    #[test]
    fn quota_latest_vote_counts() {
        let mut core = WorldCore::new(2, b"fvs");
        let mut f = func();
        f.init(&mut core.ctx());
        let t1 = f.vote(PartyId(1), 0, &mut core.ctx()).unwrap();
        core.corr.corrupt(PartyId(1)).unwrap();
        f.allow(t1, 0, PartyId(1), &mut core.ctx());
        core.clock.fast_forward(core.clock.read() + 1);
        // Second (adversarial) vote in round 1 — latest finalized wins.
        let t2 = f.vote(PartyId(1), 1, &mut core.ctx()).unwrap();
        f.allow(t2, 1, PartyId(1), &mut core.ctx());
        for _ in 0..3 {
            f.advance_clock(PartyId(0), &mut core.ctx());
            core.clock.fast_forward(core.clock.read() + 1);
        }
        assert_eq!(
            f.advance_clock(PartyId(0), &mut core.ctx()),
            Some(vec![0, 1])
        );
    }

    #[test]
    fn bad_params_rejected() {
        assert!(VotingFunc::new(2, 2, 1, 1, Drbg::from_seed(b"x")).is_err());
        assert!(VotingFunc::new(0, 2, 1, 2, Drbg::from_seed(b"x")).is_err());
        assert!(VotingFunc::new(2, 1, 2, 2, Drbg::from_seed(b"x")).is_err());
    }

    #[test]
    fn spans_are_bounded_like_sbc_params() {
        // Φ or ∆ = u64::MAX would overflow `t_end` / `t_tally` once the
        // window opens.
        let max = u64::from(u32::MAX);
        for (phi, delta) in [(u64::MAX, 2), (2, u64::MAX), (max + 1, 2), (2, max + 1)] {
            assert!(VotingFunc::new(phi, delta, 1, 2, Drbg::from_seed(b"x")).is_err());
        }
        assert!(VotingFunc::new(max, max, 1, 2, Drbg::from_seed(b"x")).is_ok());
    }
}
