//! The resource wrapper `W_q(F_RO)` (paper Fig. 5).
//!
//! The wrapper meters access to the wrapped random oracle: each party may
//! issue at most `q` *evaluation batches* per clock round; a single batch
//! may contain arbitrarily many parallel queries. Chains of *sequentially
//! dependent* hashes therefore cost one batch per link — this is precisely
//! what turns Astrolabous hash chains of length `q·τ` into puzzles that take
//! `τ` rounds to solve, and it is the resource-restriction that circumvents
//! the Hirt–Zikas impossibility.
//!
//! All corrupted parties share a *single* budget list (`L_corr` in Fig. 5):
//! corruption does not multiply the adversary's hash power.
//!
//! # Examples
//!
//! ```
//! use sbc_uc::wrapper::{QueryWrapper, WrapperClient};
//! use sbc_uc::ro::RandomOracle;
//! use sbc_primitives::drbg::Drbg;
//!
//! let mut ro = RandomOracle::new(Drbg::from_seed(b"doc"));
//! let mut w = QueryWrapper::new(2); // q = 2
//! let p = WrapperClient::Party(sbc_uc::ids::PartyId(0));
//! assert!(w.evaluate(&mut ro, 0, p, &[b"a".to_vec(), b"b".to_vec()]).is_ok());
//! assert!(w.evaluate(&mut ro, 0, p, &[b"c".to_vec()]).is_ok());
//! assert!(w.evaluate(&mut ro, 0, p, &[b"d".to_vec()]).is_err()); // budget spent
//! assert!(w.evaluate(&mut ro, 1, p, &[b"d".to_vec()]).is_ok()); // new round
//! ```

use crate::ids::PartyId;
use crate::ro::{Caller, RandomOracle};
use sbc_primitives::hashchain::{ChainSolver, Element};
use std::collections::HashMap;

/// Who is spending wrapper budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WrapperClient {
    /// An honest party (its own per-party budget).
    Party(PartyId),
    /// The adversary on behalf of all corrupted parties (shared budget).
    Corrupted,
}

/// Error returned when the per-round budget is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExhausted {
    /// The round in which the budget ran out.
    pub round: u64,
}

impl std::fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wrapper query budget exhausted in round {}", self.round)
    }
}

impl std::error::Error for BudgetExhausted {}

/// The wrapper functionality `W_q`.
#[derive(Clone, Debug)]
pub struct QueryWrapper {
    q: u32,
    usage: HashMap<WrapperClient, (u64, u32)>,
}

impl QueryWrapper {
    /// Creates a wrapper allowing `q` batches per client per round.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn new(q: u32) -> Self {
        assert!(q > 0, "q must be positive");
        QueryWrapper {
            q,
            usage: HashMap::new(),
        }
    }

    /// `Evaluate`: runs one batch of parallel queries against the wrapped
    /// oracle at clock time `round`.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExhausted`] if the client has already spent `q`
    /// batches in `round`.
    pub fn evaluate(
        &mut self,
        ro: &mut RandomOracle,
        round: u64,
        client: WrapperClient,
        batch: &[Vec<u8>],
    ) -> Result<Vec<[u8; 32]>, BudgetExhausted> {
        let entry = self.usage.entry(client).or_insert((round, 0));
        if entry.0 != round {
            // Stale tuple from an earlier round: reset (Fig. 5 step 3).
            *entry = (round, 0);
        }
        if entry.1 >= self.q {
            return Err(BudgetExhausted { round });
        }
        entry.1 += 1;
        let caller = match client {
            WrapperClient::Party(p) => Caller::Party(p),
            WrapperClient::Corrupted => Caller::Adversary,
        };
        Ok(batch.iter().map(|x| ro.query(caller, x)).collect())
    }

    /// One party's round of puzzle work through the wrapper — Π_FBC step 3
    /// and Π_TLE `ENCRYPT&SOLVE` step 2. Batch `Q_0` carries every element
    /// of every `fresh` chain-randomness set (puzzle generation is
    /// parallel) plus one link of every unfinished solver; each later batch
    /// moves every unfinished solver one further link. An empty batch is
    /// skipped. Returns the hashes of each fresh set, in order, or `None`
    /// if the wrapper refuses a batch; the solvers keep what the earlier
    /// batches fed them.
    pub fn solve_round(
        &mut self,
        ro: &mut RandomOracle,
        round: u64,
        client: WrapperClient,
        fresh: &[Vec<Element>],
        solvers: &mut [&mut ChainSolver],
    ) -> Option<Vec<Vec<Element>>> {
        let mut hashes = vec![Vec::new(); fresh.len()];
        for j in 0..self.q {
            let mut batch: Vec<Vec<u8>> = Vec::new();
            if j == 0 {
                batch.extend(fresh.iter().flatten().map(|r| r.to_vec()));
            }
            batch.extend(
                solvers
                    .iter()
                    .filter_map(|s| s.next_query())
                    .map(|r| r.to_vec()),
            );
            if batch.is_empty() {
                continue;
            }
            let mut out = self.evaluate(ro, round, client, &batch).ok()?.into_iter();
            if j == 0 {
                for (hs, rs) in hashes.iter_mut().zip(fresh) {
                    hs.extend(out.by_ref().take(rs.len()));
                }
            }
            for (solver, h) in solvers.iter_mut().filter(|s| !s.is_done()).zip(out) {
                solver.feed(h);
            }
        }
        Some(hashes)
    }

    /// Remaining batches for `client` in `round`.
    #[cfg(test)]
    pub(crate) fn remaining(&self, round: u64, client: WrapperClient) -> u32 {
        match self.usage.get(&client) {
            Some((r, used)) if *r == round => self.q - used.min(&self.q),
            _ => self.q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbc_primitives::drbg::Drbg;

    fn setup() -> (RandomOracle, QueryWrapper) {
        (
            RandomOracle::new(Drbg::from_seed(b"w")),
            QueryWrapper::new(3),
        )
    }

    #[test]
    fn budget_enforced_per_round() {
        let (mut ro, mut w) = setup();
        let p = WrapperClient::Party(PartyId(0));
        for i in 0..3 {
            assert!(w.evaluate(&mut ro, 5, p, &[vec![i]]).is_ok());
        }
        assert_eq!(
            w.evaluate(&mut ro, 5, p, &[vec![9]]),
            Err(BudgetExhausted { round: 5 })
        );
        assert_eq!(w.remaining(5, p), 0);
    }

    #[test]
    fn budget_resets_next_round() {
        let (mut ro, mut w) = setup();
        let p = WrapperClient::Party(PartyId(0));
        for i in 0..3 {
            w.evaluate(&mut ro, 0, p, &[vec![i]]).unwrap();
        }
        assert!(w.evaluate(&mut ro, 1, p, &[vec![9]]).is_ok());
        assert_eq!(w.remaining(1, p), 2);
    }

    #[test]
    fn parties_have_independent_budgets() {
        let (mut ro, mut w) = setup();
        let p0 = WrapperClient::Party(PartyId(0));
        let p1 = WrapperClient::Party(PartyId(1));
        for i in 0..3 {
            w.evaluate(&mut ro, 0, p0, &[vec![i]]).unwrap();
        }
        assert!(w.evaluate(&mut ro, 0, p1, &[vec![9]]).is_ok());
    }

    #[test]
    fn corrupted_parties_share_one_budget() {
        let (mut ro, mut w) = setup();
        let c = WrapperClient::Corrupted;
        for i in 0..3 {
            w.evaluate(&mut ro, 0, c, &[vec![i]]).unwrap();
        }
        // No matter how many parties are corrupted, the shared list is spent.
        assert!(w.evaluate(&mut ro, 0, c, &[vec![9]]).is_err());
    }

    #[test]
    fn batch_counts_as_one_regardless_of_size() {
        let (mut ro, mut w) = setup();
        let p = WrapperClient::Party(PartyId(0));
        let big: Vec<Vec<u8>> = (0..100u8).map(|i| vec![i]).collect();
        let out = w.evaluate(&mut ro, 0, p, &big).unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(w.remaining(0, p), 2);
    }

    #[test]
    fn results_match_direct_oracle() {
        let (mut ro, mut w) = setup();
        let p = WrapperClient::Party(PartyId(0));
        let out = w.evaluate(&mut ro, 0, p, &[b"x".to_vec()]).unwrap();
        assert_eq!(out[0], ro.query(Caller::Simulator, b"x"));
    }

    #[test]
    fn sequential_chain_needs_multiple_rounds() {
        // A 6-link sequential chain with q=3 takes exactly 2 rounds.
        let (mut ro, mut w) = setup();
        let p = WrapperClient::Party(PartyId(0));
        let mut x = b"start".to_vec();
        let mut round = 0u64;
        let mut rounds_used = 1;
        for _ in 0..6 {
            let res = match w.evaluate(&mut ro, round, p, &[x.clone()]) {
                Ok(r) => r,
                Err(_) => {
                    round += 1;
                    rounds_used += 1;
                    w.evaluate(&mut ro, round, p, &[x.clone()]).unwrap()
                }
            };
            x = res[0].to_vec();
        }
        assert_eq!(rounds_used, 2);
    }

    #[test]
    fn solve_round_hashes_fresh_sets_in_q0_and_steps_solvers_once_per_batch() {
        let (mut ro, mut w) = setup();
        let p = WrapperClient::Party(PartyId(0));
        let rs = [[1u8; 32], [2; 32], [3; 32], [4; 32]];
        let hs: Vec<Element> = rs.iter().map(|r| ro.query(Caller::Simulator, r)).collect();
        let chain = sbc_primitives::hashchain::chain_encode_with_hashes(&rs, &hs, &[9; 32]);
        let mut solver = ChainSolver::new(&chain).unwrap();
        let fresh = vec![vec![[5u8; 32], [6; 32]], vec![[7u8; 32]]];
        let hashes = w.solve_round(&mut ro, 0, p, &fresh, &mut [&mut solver]);
        let expected = fresh
            .iter()
            .map(|set| set.iter().map(|r| ro.query(Caller::Simulator, r)).collect())
            .collect();
        assert_eq!(hashes, Some(expected));
        assert_eq!(solver.remaining(), 1, "q = 3 batches, one link each");
        // A refused round leaves the solver where the last batch left it.
        assert_eq!(w.solve_round(&mut ro, 0, p, &[], &mut [&mut solver]), None);
        assert_eq!(solver.remaining(), 1);
        // Next round: the last link, then the empty batches are skipped.
        let done = w.solve_round(&mut ro, 1, p, &[], &mut [&mut solver]);
        assert_eq!(done, Some(Vec::new()));
        assert_eq!(solver.payload(), Some([9; 32]));
        assert_eq!(w.remaining(1, p), 2);
    }

    #[test]
    #[should_panic(expected = "q must be positive")]
    fn zero_q_panics() {
        QueryWrapper::new(0);
    }
}
