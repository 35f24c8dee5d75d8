//! # sbc-apps
//!
//! The paper's two applications of simultaneous broadcast (§6), both built
//! on the [`sbc_core::api::SbcSession`] public API:
//!
//! * [`durs`] — delayed uniform random string generation (Figs. 15–16,
//!   Theorem 3): an unbiasable XOR randomness beacon, multi-epoch via
//!   [`sbc_core::api::SbcSession::run_epoch`] so one stack serves a whole
//!   beacon schedule. The naive commit-free beacon baseline, with its
//!   last-revealer attack, is included for the comparison experiments.
//! * [`voting_func`] — the ideal voting-system functionality `F_VS` (Fig. 17).
//! * [`voting`] — self-tallying elections (Fig. 18, Theorem 4):
//!   Kiayias–Yung/\[SP15]-style exponent-blinded ballots with disjunctive
//!   Chaum–Pedersen validity proofs, cast through SBC so that no partial
//!   tallies leak and no trusted control voter is needed. The bulletin
//!   board baseline demonstrates the fairness failure SBC removes.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod durs;
pub mod voting;
pub mod voting_func;
