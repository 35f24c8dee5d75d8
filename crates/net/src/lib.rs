//! # sbc-net
//!
//! The networked execution backend for the SBC stack: the `Π_SBC` parties
//! of `sbc_core::protocol` reach their hybrid functionalities only through
//! length-prefixed [`codec::Frame`]s over a [`transport::Transport`],
//! instead of calling them in-process.
//!
//! Three layers:
//!
//! * [`codec`] — the versioned wire format. Every protocol message that
//!   crosses a party boundary (submissions, clock ticks, UBC casts and
//!   deliveries, `F_TLE` encrypt/retrieve/decrypt exchanges, `F_RO`
//!   queries, release outputs) has a [`codec::Frame`] encoding, and
//!   nothing else does: a kind exists only if a
//!   [`transport::Transport`] carries it. The decoder treats its input
//!   as hostile: every malformed frame comes back as a typed
//!   [`codec::CodecError`], never a panic. A frame is encoded into one
//!   allocation of its exact length.
//! * [`transport`] — the delivery seam. A transport decodes each frame
//!   once, to classify it, and hands that [`codec::Frame`] up to the
//!   receiver, which never decodes the bytes again.
//!   [`transport::Loopback`] is the bit-compatible stand-in for today's
//!   in-process delivery;
//!   [`transport::SimNet`] is a deterministic, seeded adversarial
//!   network injecting per-link latency (within ∆), reorder,
//!   duplication, drops from corrupted senders, and transient partitions
//!   that heal before the release round.
//! * [`world`] — [`world::NetSbcWorld`], an
//!   [`SbcBackend`](sbc_core::worlds::SbcBackend) that plugs into
//!   `SbcSession`/`SbcPool` through the existing builder seams. It runs
//!   the same `SbcParty` code against the same `SbcHost` methods as
//!   `RealSbcWorld`, with a frame link in between, and is held to
//!   `CompareLevel::Exact` transcript equality against it (the
//!   conformance tests and the `sbc_net` bench gate on it): the gate
//!   guards host-side sequencing (tick → UBC flush → delivery pumps) and
//!   transport inertness (delay, reorder, duplication, reconnect).
//! * [`tcp`] — the same seam over real sockets: [`tcp::TcpTransport`]
//!   carries every frame across the OS loopback stack (one `std::net`
//!   connection per link, no async runtime), with read/write deadlines
//!   derived from ∆ and per-link reconnect with capped backoff, so a
//!   dropped or silent connection degrades to a typed [`codec::NetError`]
//!   instead of hanging the clock. [`tcp::TcpSbcWorld`] is held to the
//!   same `Exact` gate as the in-process transports.
//!
//! The headline invariant: the network may delay, reorder and duplicate,
//! but it must not change what the protocol decides or leaks.

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]
// Hostile bytes, dead links and bad images end in a typed error, never a
// panic: outside tests, clippy (`-D warnings` in CI) refuses all three.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod codec;
pub mod tcp;
pub mod transport;
pub mod world;

pub use codec::{CodecError, Endpoint, Frame, FrameKind, NetError};
pub use tcp::{TcpConfig, TcpFaultHandle, TcpProfile, TcpSbcWorld, TcpTransport};
pub use transport::{Loopback, SimConfig, SimNet, Transport, TransportStats};
pub use world::{
    AdversarialProfile, LoopbackProfile, LoopbackSbcWorld, NetSbcWorld, SimNetSbcWorld,
};
