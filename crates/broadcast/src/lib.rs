//! # sbc-broadcast
//!
//! The broadcast stack of *"Universally Composable Simultaneous Broadcast
//! against a Dishonest Majority"* (PODC 2023):
//!
//! * [`rbc`] — relaxed broadcast: the single-message functionality `F_RBC`
//!   (Fig. 6) and the Dolev–Strong protocol (Fact 1) realizing it over
//!   ideal `F_cert` + synchronous channels in `t + 1` rounds, `t < n`.
//! * [`ubc`] — unfair broadcast: `F_UBC` (Fig. 8), the protocol `Π_UBC`
//!   over `F_RBC` instances (Fig. 9), the Lemma 1 simulator and the
//!   real/ideal experiment worlds.
//! * [`fbc`] — fair broadcast: `F_FBC(∆,α)` (Fig. 10) and the time-lock
//!   based protocol `Π_FBC` (Fig. 11) achieving ∆ = 2, α = 2 (Lemma 2),
//!   with its equivocation simulator.
//!
//! Fairness is the crux: in UBC the adversary can corrupt a sender *after
//! seeing her message* and replace it; in FBC the message is locked the
//! moment it leaves the sender, because what is broadcast is a time-lock
//! encryption that nobody — adversary included — can open before the
//! honest parties do.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod fbc;
pub mod rbc;
pub mod ubc;
