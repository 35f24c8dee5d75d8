//! # sbc-apps
//!
//! The paper's two applications of simultaneous broadcast (§6), both built
//! on the [`sbc_core::api::SbcSession`] public API:
//!
//! * [`durs`] — delayed uniform random string generation (Fig. 16): an
//!   unbiasable XOR randomness beacon, multi-epoch via
//!   [`sbc_core::api::SbcSession::run_epoch`] so one stack serves a whole
//!   beacon schedule. The naive commit-free beacon baseline, with its
//!   last-revealer attack, is included for the comparison experiments.
//! * [`voting`] — self-tallying elections (Fig. 18):
//!   Kiayias–Yung/\[SP15]-style exponent-blinded ballots with disjunctive
//!   Chaum–Pedersen validity proofs, cast through SBC so that no partial
//!   tallies leak and no trusted control voter is needed. The bulletin
//!   board baseline demonstrates the fairness failure SBC removes.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod durs;
pub mod voting;
