//! # sbc-uc
//!
//! A round-based Universal Composability execution engine: the substrate on
//! which the broadcast/TLE/SBC protocols of *"Universally Composable
//! Simultaneous Broadcast against a Dishonest Majority"* (PODC 2023) run.
//!
//! The paper's hybrid functionalities map to modules as follows:
//!
//! | Paper | Module |
//! |---|---|
//! | `G_clock` (Fig. 2) | [`clock`] |
//! | `F_RO` (Fig. 3) | [`ro`] |
//! | `F_cert` (Fig. 4) | [`cert`] |
//! | `W_q(F_RO)` (Fig. 5) | [`wrapper`] |
//! | synchronous channels (§2.1) | [`net`] |
//! | adaptive non-atomic corruption (§2.1) | [`corruption`] |
//! | real/ideal experiment (Def. 1) | [`world`], [`trace`] |
//! | dual-world backends + harness | [`exec`] |
//!
//! Payloads are universal [`value::Value`] trees so that transcripts from
//! real and ideal executions compare byte-for-byte.
//!
//! # Examples
//!
//! ```
//! use sbc_uc::clock::GlobalClock;
//! use sbc_uc::ids::PartyId;
//!
//! let mut clock = GlobalClock::new(PartyId::all(2));
//! clock.advance_party(PartyId(0));
//! clock.advance_party(PartyId(1));
//! assert_eq!(clock.read(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod cert;
pub mod clock;
pub mod corruption;
pub mod exec;
pub mod hybrid;
pub mod ids;
pub mod net;
pub mod ro;
pub mod trace;
pub mod value;
pub mod world;
pub mod wrapper;
