//! The structured error type shared by every fallible entry point of the
//! crate: parameter validation ([`crate::worlds::SbcParams::validate`]),
//! backend construction ([`crate::worlds::SbcBackend::from_params`]), and
//! the whole session surface ([`crate::api::SbcSession`]).

use std::fmt;

/// Errors of the fallible session API.
///
/// Every public [`SbcSession`](crate::api::SbcSession) entry point returns
/// one of these instead of panicking; match on the variant to distinguish
/// caller mistakes (`InvalidParams`, `PartyOutOfRange`, `SubmitAfterClose`,
/// …) from internal faults (`Internal`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SbcError {
    /// The parameters violate Theorem 2's constraints (`Φ > delay`,
    /// `∆ > α_TLE`) or are degenerate (`n = 0`).
    InvalidParams {
        /// Which constraint failed.
        reason: &'static str,
    },
    /// A party index `≥ n` was used.
    PartyOutOfRange {
        /// The offending index.
        party: u32,
        /// The session size.
        n: usize,
    },
    /// An honest-path operation targeted a corrupted party (or a party was
    /// corrupted twice).
    CorruptedParty {
        /// The corrupted party.
        party: u32,
    },
    /// Corrupting another party would leave no honest party (`t ≤ n − 1`
    /// is the dishonest-majority budget).
    CorruptionBudgetExceeded {
        /// The party whose corruption was refused.
        party: u32,
    },
    /// An adversarial operation targeted a party that is still honest.
    HonestParty {
        /// The honest party.
        party: u32,
    },
    /// A submission arrived too late to complete before the broadcast
    /// period closes (`Cl + delay ≥ t_end`).
    SubmitAfterClose {
        /// The round of the attempted submission.
        round: u64,
        /// The period end `t_end`.
        t_end: u64,
    },
    /// An adversarial injection was attempted before any wake-up: the
    /// release time `τ_rel` is not yet agreed.
    PeriodNotOpen,
    /// A pool operation addressed an instance id that was never opened on
    /// this pool.
    UnknownInstance {
        /// The unknown instance id.
        instance: u64,
    },
    /// A pool operation addressed an instance that has already been
    /// finished (its final result was released and the instance retired).
    InstanceFinished {
        /// The finished instance id.
        instance: u64,
    },
    /// A reclamation operation (`SbcPool::prune`) addressed an instance
    /// that is still live — pruning it would silently discard an
    /// unreleased period; finish the instance first.
    InstanceLive {
        /// The live instance id.
        instance: u64,
    },
    /// A pool reopen (`SbcPool::resume_at`) would discard history: it
    /// moved the clock of a pool that has already run (opened an instance
    /// or advanced the clock), or moved the next instance id backwards.
    /// The clock may only be set on a freshly built pool; after that an
    /// instance id may only be skipped forward, at the current round.
    NotFresh {
        /// The pool's current shared-clock round.
        round: u64,
        /// Instance ids the pool has already consumed.
        opened: u64,
    },
    /// `run_epoch`/`run_to_completion` was called with nothing submitted —
    /// the period would never open and the session would spin forever.
    NoInput,
    /// The session failed to release within its round budget.
    Timeout {
        /// The exhausted budget (rounds).
        budget: u64,
    },
    /// An invariant of the underlying world machinery failed — honest
    /// parties disagreed, or a release payload was malformed.
    Internal {
        /// Human-readable description of the broken invariant.
        detail: String,
    },
    /// A backend failed to come up: its transport or other environment
    /// could not be established (a socket bind or connect refused, say).
    /// Distinct from `InvalidParams` — the parameters are fine, the
    /// machine underneath is not.
    Backend {
        /// Human-readable description of the bring-up failure.
        detail: String,
    },
    /// An instance's backend refused a message it built itself (see
    /// `SbcWorld::fault`): a frame over the size cap, say. The instance
    /// cannot release as its in-process twin would, so the pool stops
    /// instead of ticking it silently.
    Undeliverable {
        /// The instance that lost the message.
        instance: u64,
        /// What was refused, and why.
        detail: String,
    },
}

impl fmt::Display for SbcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SbcError::InvalidParams { reason } => write!(f, "invalid SBC parameters: {reason}"),
            SbcError::PartyOutOfRange { party, n } => {
                write!(f, "party {party} out of range for a {n}-party session")
            }
            SbcError::CorruptedParty { party } => write!(f, "party {party} is corrupted"),
            SbcError::CorruptionBudgetExceeded { party } => {
                write!(f, "corrupting party {party} would leave no honest party")
            }
            SbcError::HonestParty { party } => {
                write!(
                    f,
                    "party {party} is honest (adversarial operation requires corruption)"
                )
            }
            SbcError::SubmitAfterClose { round, t_end } => {
                write!(
                    f,
                    "submission at round {round} cannot complete before t_end = {t_end}"
                )
            }
            SbcError::PeriodNotOpen => {
                write!(f, "no broadcast period is open (τ_rel not yet agreed)")
            }
            SbcError::UnknownInstance { instance } => {
                write!(f, "instance #{instance} was never opened on this pool")
            }
            SbcError::InstanceFinished { instance } => {
                write!(f, "instance #{instance} is already finished")
            }
            SbcError::InstanceLive { instance } => {
                write!(
                    f,
                    "instance #{instance} is still live (finish it before pruning)"
                )
            }
            SbcError::NotFresh { round, opened } => {
                write!(
                    f,
                    "pool is not fresh (round {round}, {opened} instances opened): fast-forward is restore-only"
                )
            }
            SbcError::NoInput => write!(f, "nothing submitted: the period would never open"),
            SbcError::Timeout { budget } => {
                write!(f, "session failed to release within {budget} rounds")
            }
            SbcError::Internal { detail } => write!(f, "internal session fault: {detail}"),
            SbcError::Backend { detail } => write!(f, "backend bring-up failed: {detail}"),
            SbcError::Undeliverable { instance, detail } => {
                write!(f, "instance #{instance} refused its own message: {detail}")
            }
        }
    }
}

impl std::error::Error for SbcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(SbcError, &str)> = vec![
            (
                SbcError::InvalidParams {
                    reason: "need Φ > delay",
                },
                "need Φ > delay",
            ),
            (SbcError::PartyOutOfRange { party: 7, n: 2 }, "party 7"),
            (SbcError::CorruptedParty { party: 1 }, "corrupted"),
            (
                SbcError::CorruptionBudgetExceeded { party: 1 },
                "no honest party",
            ),
            (SbcError::HonestParty { party: 0 }, "honest"),
            (
                SbcError::SubmitAfterClose { round: 2, t_end: 3 },
                "t_end = 3",
            ),
            (SbcError::PeriodNotOpen, "τ_rel"),
            (SbcError::UnknownInstance { instance: 4 }, "instance #4"),
            (SbcError::InstanceFinished { instance: 7 }, "instance #7"),
            (SbcError::InstanceLive { instance: 3 }, "still live"),
            (
                SbcError::NotFresh {
                    round: 5,
                    opened: 2,
                },
                "not fresh",
            ),
            (SbcError::NoInput, "nothing submitted"),
            (SbcError::Timeout { budget: 9 }, "9 rounds"),
            (
                SbcError::Internal {
                    detail: "boom".into(),
                },
                "boom",
            ),
            (
                SbcError::Backend {
                    detail: "bind refused".into(),
                },
                "bring-up",
            ),
            (
                SbcError::Undeliverable {
                    instance: 2,
                    detail: "frame too large".into(),
                },
                "instance #2 refused its own message: frame too large",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
