//! # sbc-tle
//!
//! Time-lock encryption for the `sbc` workspace — the first *adaptively*
//! UC-secure TLE construction (paper §4, Theorem 1), built from the
//! Astrolabous scheme \[ALZ21] over fair broadcast:
//!
//! * [`ciphertext`] — the `(c1, c2, c3)` ciphertext: Astrolabous puzzle of
//!   `ρ`, masked message `M ⊕ H(ρ)`, and binding commitment `H(ρ ‖ M)`.
//! * [`func`] — the functionality `F_TLE(leak, delay)` (Fig. 7) with
//!   `leak(Cl) = Cl + α` and `delay = ∆ + 1`.
//! * [`protocol`] — `Π_TLE` (Fig. 12): `ENCRYPT&SOLVE` spends each round's
//!   `q` wrapper batches on fresh puzzle generation (parallel) and all live
//!   puzzle solving (one sequential link per batch per solver) through the
//!   `W_q` round `Π_FBC` runs too, `sbc_uc::wrapper::QueryWrapper::solve_round`.
//! * [`worlds`] — the Theorem 1 real/ideal experiment worlds and simulator.
//!
//! # Examples
//!
//! ```
//! use sbc_tle::protocol::{difficulty_for, TleParty};
//! use sbc_uc::ids::PartyId;
//! use sbc_primitives::drbg::Drbg;
//!
//! // Encrypt "towards" round 10 from round 0 over a ∆=2 fair broadcast:
//! assert_eq!(difficulty_for(10, 0, 2), 7); // 7 rounds of sequential work
//! let mut party = TleParty::new(PartyId(0), 4, 2, Drbg::from_seed(b"doc"));
//! assert!(party.on_enc(sbc_uc::value::Value::bytes(b"msg"), 10, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ciphertext;
pub mod func;
pub mod protocol;
pub mod worlds;
