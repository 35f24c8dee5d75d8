//! # sbc-service
//!
//! A long-lived, epoch-structured **simultaneous-broadcast service** over
//! [`sbc_core::pool::SbcPool`] — the paper's applications (DURS randomness
//! beacons, elections, sealed-bid auctions) consumed the way they are
//! meant to be: as a continuously running submission-serving front end,
//! not a test harness.
//!
//! The service wraps a pool of concurrent SBC instances behind four
//! surfaces:
//!
//! * **Ingestion + batching** — [`SbcService::submit`] accepts client
//!   submissions (client id, payload, [`DeadlineClass`]) through a
//!   bounded three-class queue, batches them into pool instances
//!   round-robin over the party slots, admits late arrivals into the
//!   *next* instance instead of erroring, and answers saturation with a
//!   typed [`ServiceError::QueueFull`].
//! * **Epoch lifecycle** — [`SbcService::tick`] steps the shared clock,
//!   opens instances when the admission policy fires, finishes released
//!   instances and parks a [`ReleaseRecord`] for each;
//!   [`SbcService::drain_releases`] hands them out and prunes what it
//!   delivered, so steady-state memory is flat under churn (watch it
//!   with [`SbcService::footprint`]).
//! * **Observability** — per-submission submit→release latency in rounds,
//!   recorded off the hot path into a fixed-bucket histogram and exposed
//!   as a [`ServiceStats`] snapshot (p50/p90/p99, counters, peaks); an
//!   optional wall-clock view (`ServiceConfig::record_wall_clock`) adds a
//!   µs-grained [`WallLatencySummary`] for real-socket backends.
//! * **Era-based snapshot/restore** — [`SbcService::checkpoint`] folds
//!   the deterministic operation journal into a compact checkpoint at
//!   era boundaries (everything drained and pruned), so
//!   [`SbcService::snapshot`] carries (checkpoint ‖ short tail) as one
//!   flat image — magic, version, length, payload, SHA-256 digest —
//!   with [`SbcService::snapshot_to`]/[`SbcService::restore_from`]
//!   writing and reading it over [`std::io`]. [`SbcService::restore`]
//!   fast-forwards a fresh pool through the checkpoint and replays only
//!   the tail, reproducing release transcripts bit-identically — a
//!   service killed mid-epoch resumes where it died, at restore cost
//!   O(current era) instead of O(lifetime).
//!
//! The service is generic over the [`sbc_core::worlds::SbcBackend`] seam:
//! the same driver runs over `RealSbcWorld` (in-process),
//! `LoopbackSbcWorld` (networked frames, ideal links), or
//! `SimNetSbcWorld` (networked frames over the adversarial simulated
//! transport).
//!
//! # Example
//!
//! ```
//! use sbc_service::{DeadlineClass, ServiceConfig, ServiceMode, SbcService};
//!
//! # fn main() -> Result<(), sbc_service::ServiceError> {
//! let cfg = ServiceConfig::new(4, ServiceMode::Beacon).seed(b"docs");
//! let mut svc: SbcService = SbcService::new(cfg)?;
//! svc.submit(7, b"entropy".to_vec(), DeadlineClass::Interactive)?;
//! while svc.stats().finished == 0 {
//!     svc.tick()?;
//! }
//! let record = svc.drain_releases().pop().expect("released");
//! assert!(record.messages.iter().any(|m| m == b"entropy"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Hostile bytes, dead links and bad images end in a typed error, never a
// panic: outside tests, clippy (`-D warnings` in CI) refuses all three.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

mod loadgen;
mod service;
mod snapshot;
mod stats;

pub use loadgen::{LoadGen, LoadProfile};
pub use service::{
    CheckpointEvery, DeadlineClass, Outcome, ReleaseRecord, SbcService, ServiceConfig,
    ServiceError, ServiceMode,
};
pub use stats::{LatencySummary, ServiceStats, WallLatencySummary};
