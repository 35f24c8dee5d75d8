//! Fair broadcast (FBC): the functionality `F_FBC(∆,α)` (Fig. 10), the
//! time-lock based protocol `Π_FBC` (Fig. 11), the Lemma 2 simulator and
//! the real/ideal experiment worlds.

pub mod func;
pub(crate) mod protocol;
pub mod worlds;
