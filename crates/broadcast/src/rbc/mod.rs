//! Relaxed broadcast (RBC): the single-message functionality `F_RBC`
//! (Fig. 6) and the Dolev–Strong protocol realizing it (Fact 1). Like the
//! paper, Dolev–Strong runs in the `F_cert`-hybrid model: its signatures
//! come from [`IdealCert`](sbc_uc::cert::IdealCert), the `F_cert` of Fig. 4.

pub mod dolev_strong;
pub mod func;
