//! Unfair broadcast (UBC): the functionality `F_UBC` (Fig. 8), the protocol
//! `Π_UBC` over `F_RBC` instances (Fig. 9), the Lemma 1 simulator, and the
//! real/ideal worlds for the indistinguishability experiments.

pub mod func;
pub mod protocol;
pub mod worlds;
