//! # sbc-core
//!
//! **Universally composable simultaneous broadcast against a dishonest
//! majority** — the primary contribution of the reproduced paper (PODC
//! 2023, arXiv:2305.06468).
//!
//! Simultaneous broadcast (SBC) lets `n` mutually distrustful parties each
//! publish a message such that *no* sender — not even `t < n` adaptively
//! corrupted ones — can make its message depend on anyone else's. The
//! construction buys this with time-lock encryption: during an agreed
//! broadcast period everyone publishes time-locked ciphertexts, and only
//! after the period ends (plus delay ∆) does anything become readable.
//!
//! * [`func`] — the functionality `F_SBC(Φ, ∆, α)` (Fig. 13).
//! * [`protocol`] — the protocol `Π_SBC` over `F_UBC` + `F_TLE` + `F_RO`
//!   (Fig. 14).
//! * [`worlds`] — Theorem 2's real/ideal experiment worlds and simulator,
//!   both implementing the shared `sbc_uc::exec::SbcWorld` backend trait.
//! * [`error`] — the structured [`error::SbcError`] every fallible entry
//!   point returns.
//! * [`baseline`] — the comparison systems: an \[Hev06]-style
//!   full-participation SBC and a naive commit-free simultaneous channel.
//! * [`api`] — the fallible, multi-epoch [`api::SbcSession`] for running
//!   SBC periods without touching the UC machinery.
//! * [`pool`] — instance multiplexing: [`pool::SbcPool`] runs many
//!   concurrent SBC instances over one shared world stack (one clock, one
//!   global corruption state, domain-separated per-instance randomness);
//!   `SbcSession` is its single-instance special case.
//!
//! Everything here runs on the calling thread: a world round is one
//! serial per-party `advance` loop (`SbcWorld::tick`), a pool tick is an
//! id-ordered loop over live instances, and the crate spawns no threads.
//!
//! # Examples
//!
//! ```
//! use sbc_core::api::SbcSession;
//!
//! # fn main() -> Result<(), sbc_core::api::SbcError> {
//! let mut session = SbcSession::builder(4).phi(3).seed(b"docs").build()?;
//! session.submit(0, b"bid: 42")?;
//! session.submit(2, b"bid: 17")?;
//! let result = session.run_to_completion()?;
//! assert_eq!(result.messages.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod baseline;
pub mod error;
pub mod func;
pub mod pool;
pub mod protocol;
pub mod worlds;
