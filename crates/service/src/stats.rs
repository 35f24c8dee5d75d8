//! Service observability: latency histograms and the stats snapshot.
//!
//! Latency is measured in **rounds** (submit tick → release round), the
//! deterministic unit every backend shares — wall-clock throughput is the
//! bench harness's job, not the service's. The histogram is fixed-bucket
//! (one bucket per round up to [`LatencyHistogram::BUCKETS`], plus an
//! overflow bucket) so recording is O(1), allocation-free, and identical
//! across a snapshot/restore cycle.
//!
//! Real-socket backends reintroduce wall time as an observable, so the
//! service can *optionally* keep a second, wall-clock submit→release view
//! (`ServiceConfig::record_wall_clock`). It lives in a log₂-bucketed
//! microsecond histogram ([`WallHistogram`]) and surfaces as
//! [`ServiceStats::wall`]. Unlike the rounds view it is **not** part of
//! the deterministic state: it is never serialized into snapshots, and
//! `wall` is `None` unless recording was explicitly enabled.

/// Fixed-bucket submit→release latency histogram over rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LatencyHistogram {
    /// `buckets[r]` counts submissions that released `r` rounds after
    /// submit; the last bucket absorbs everything `≥ BUCKETS - 1`.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Number of fixed buckets (rounds 0..=62, plus one overflow bucket).
    /// Far above any reachable submit→release distance for sane `Φ + ∆`:
    /// a submission admitted immediately releases within `Φ + ∆ + 1`.
    pub const BUCKETS: usize = 64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one submission that released `rounds` after submit.
    pub fn record(&mut self, rounds: u64) {
        let idx = (rounds as usize).min(Self::BUCKETS - 1);
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(rounds);
        self.max = self.max.max(rounds);
    }

    /// The `q`-quantile latency in rounds (`q` in 0..=100): the smallest
    /// bucket whose cumulative count reaches `q%` of the total. Returns 0
    /// on an empty histogram.
    pub fn quantile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Ceiling so quantile(100) is the last non-empty bucket.
        let target = (u128::from(self.count) * u128::from(q))
            .div_ceil(100)
            .max(1);
        let mut seen = 0u128;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += u128::from(*n);
            if seen >= target {
                return idx as u64;
            }
        }
        (Self::BUCKETS - 1) as u64
    }

    /// The raw state behind the histogram, in serialization order:
    /// `(buckets, count, sum, max)`. Checkpoint encoding reads this; the
    /// summary API stays the only public view.
    pub(crate) fn raw_parts(&self) -> (&[u64], u64, u64, u64) {
        (&self.buckets, self.count, self.sum, self.max)
    }

    /// Rebuilds a histogram from its raw state. `None` when the bucket
    /// vector is not exactly [`Self::BUCKETS`] long, or when `count` is
    /// not the (checked) sum of the buckets — a decoded checkpoint with
    /// the wrong arity or a forged count is a bad snapshot, not a panic
    /// and not a summary no recording could have produced.
    pub(crate) fn from_raw_parts(
        buckets: Vec<u64>,
        count: u64,
        sum: u64,
        max: u64,
    ) -> Option<Self> {
        let total = buckets.iter().try_fold(0u64, |acc, b| acc.checked_add(*b));
        if buckets.len() != Self::BUCKETS || total != Some(count) {
            return None;
        }
        Some(LatencyHistogram {
            buckets,
            count,
            sum,
            max,
        })
    }

    /// Collapses the histogram into the summary carried by
    /// [`ServiceStats`].
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50: self.quantile(50),
            p90: self.quantile(90),
            p99: self.quantile(99),
            max: self.max,
            mean_milli: (u128::from(self.sum) * 1000)
                .checked_div(u128::from(self.count))
                .map_or(0, |mean| u64::try_from(mean).unwrap_or(u64::MAX)),
        }
    }
}

/// Percentile summary of submit→release latency, in rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Submissions measured.
    pub count: u64,
    /// Median latency (rounds).
    pub p50: u64,
    /// 90th-percentile latency (rounds).
    pub p90: u64,
    /// 99th-percentile latency (rounds).
    pub p99: u64,
    /// Worst observed latency (rounds).
    pub max: u64,
    /// Mean latency in milli-rounds (mean × 1000, integer — the stats
    /// surface stays `Eq` and bit-stable across snapshot/restore).
    pub mean_milli: u64,
}

/// Log₂-bucketed wall-clock submit→release histogram over microseconds.
///
/// Bucket `0` counts sub-microsecond releases; bucket `b ≥ 1` covers
/// `[2^(b-1), 2^b)` µs. Recording is O(1) and allocation-free, like the
/// rounds histogram, but the recorded values come from `Instant` — they
/// are observational, never replayed, never snapshotted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct WallHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for WallHistogram {
    fn default() -> Self {
        WallHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl WallHistogram {
    /// One bucket per power-of-two microsecond band: bucket 63 absorbs
    /// everything from ~73 000 years up, so there is no reachable
    /// overflow.
    pub const BUCKETS: usize = 64;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        WallHistogram::default()
    }

    fn bucket_of(micros: u64) -> usize {
        match micros {
            0 => 0,
            us => (64 - us.leading_zeros() as usize).min(Self::BUCKETS - 1),
        }
    }

    /// Records one submission that released `micros` µs after submit.
    pub fn record(&mut self, micros: u64) {
        self.buckets[Self::bucket_of(micros)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(micros);
        self.max = self.max.max(micros);
    }

    /// The `q`-quantile latency in µs (`q` in 0..=100), reported as the
    /// upper bound of the smallest bucket whose cumulative count reaches
    /// `q%`, clamped to the observed maximum. Returns 0 on an empty
    /// histogram.
    pub fn quantile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count * q).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Bucket b covers [2^(b-1), 2^b): report just under its
                // upper edge, but never past the recorded max.
                let upper = if idx == 0 { 0 } else { (1u64 << idx) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Collapses the histogram into the summary carried by
    /// [`ServiceStats::wall`].
    pub fn summary(&self) -> WallLatencySummary {
        WallLatencySummary {
            count: self.count,
            p50_us: self.quantile(50),
            p90_us: self.quantile(90),
            p99_us: self.quantile(99),
            max_us: self.max,
            mean_us: self.sum.checked_div(self.count).unwrap_or(0),
        }
    }
}

/// Percentile summary of wall-clock submit→release latency, in µs.
///
/// Quantiles are log₂-bucket upper bounds (clamped to the observed
/// maximum), so read them as "at most" figures with ~2× resolution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallLatencySummary {
    /// Submissions measured.
    pub count: u64,
    /// Median latency (µs, bucket upper bound).
    pub p50_us: u64,
    /// 90th-percentile latency (µs, bucket upper bound).
    pub p90_us: u64,
    /// 99th-percentile latency (µs, bucket upper bound).
    pub p99_us: u64,
    /// Worst observed latency (µs, exact).
    pub max_us: u64,
    /// Mean latency (µs, integer-truncated).
    pub mean_us: u64,
}

/// A point-in-time census of the service: counters, peaks, and the
/// latency summary. Obtained from `SbcService::stats`; every field is a
/// deterministic function of the accepted operation history.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions accepted into the queue.
    pub accepted: u64,
    /// Submissions refused with `QueueFull`.
    pub rejected: u64,
    /// Submissions that hit a closing window and were re-queued into the
    /// next instance (the late-arrival path).
    pub deferred: u64,
    /// Release records drained by the caller.
    pub delivered: u64,
    /// Pool instances opened.
    pub opened: u64,
    /// Pool instances finished (released + retired).
    pub finished: u64,
    /// Pool instances pruned (bookkeeping reclaimed).
    pub pruned: u64,
    /// Clock ticks driven.
    pub ticks: u64,
    /// Most instances simultaneously live.
    pub peak_live: usize,
    /// Deepest the ingress queue has been.
    pub peak_queue: usize,
    /// Submissions currently queued (all classes).
    pub queued: usize,
    /// Instances currently live.
    pub live: usize,
    /// Captured leaks evicted by the pool's leak cap (bounded-memory
    /// mode's typed overflow counter, accumulated across pruned
    /// instances).
    pub leak_overflow: u64,
    /// The shared clock round.
    pub round: u64,
    /// The service's era: how many times the operation journal has been
    /// folded into a checkpoint (0 for a never-checkpointed service).
    pub era: u64,
    /// The shared-clock round of the last checkpoint boundary (0 at era
    /// 0).
    pub checkpoint_round: u64,
    /// Operations in the post-checkpoint journal tail — what a snapshot
    /// taken now would have to replay. Era-based checkpointing keeps
    /// this O(current era) instead of O(lifetime).
    pub journal_ops: u64,
    /// Era folds performed by the `ServiceConfig::checkpoint_every`
    /// auto-checkpoint policy; manual folds are not counted. Like the
    /// policy itself it is excluded from snapshots, so a restored
    /// service restarts at 0 — mask it in determinism comparisons
    /// alongside `snapshot_bytes` when the policy is armed.
    pub auto_folds: u64,
    /// Bytes of the most recent snapshot image produced by (or restored
    /// into) this service; 0 until one exists. **Observational only**:
    /// like `wall`, it is excluded from snapshots and is the one
    /// non-`wall` field that may differ between a live service and its
    /// restored twin — mask it in determinism comparisons.
    pub snapshot_bytes: u64,
    /// Submit→release latency summary (rounds).
    pub latency: LatencySummary,
    /// Wall-clock submit→release latency summary (µs). `None` unless the
    /// service was built with `ServiceConfig::record_wall_clock` — the
    /// field is observational, excluded from snapshots, and a restored
    /// service always reports `None` until re-enabled.
    pub wall: Option<WallLatencySummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(50), 0);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = LatencyHistogram::new();
        for r in [5u64, 5, 5, 6, 7, 7, 9, 9, 9, 40] {
            h.record(r);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert_eq!(s.p50, 7);
        assert_eq!(s.p90, 9);
        assert_eq!(s.p99, 40);
        assert_eq!(s.max, 40);
        assert_eq!(s.mean_milli, 10200);
    }

    #[test]
    fn overflow_bucket_absorbs_the_tail() {
        let mut h = LatencyHistogram::new();
        h.record(10_000);
        assert_eq!(h.quantile(50), (LatencyHistogram::BUCKETS - 1) as u64);
        assert_eq!(h.summary().max, 10_000);
    }

    #[test]
    fn wall_histogram_buckets_by_log2_micros() {
        let mut h = WallHistogram::new();
        assert_eq!(h.summary(), WallLatencySummary::default());
        for us in [0u64, 1, 3, 100, 100, 1_000, 1_000_000] {
            h.record(us);
        }
        let s = h.summary();
        assert_eq!(s.count, 7);
        assert_eq!(s.max_us, 1_000_000);
        assert_eq!(s.mean_us, (1 + 3 + 100 + 100 + 1_000 + 1_000_000) / 7);
        // 100 µs sits in bucket [64, 128): the p50 upper bound is 127.
        assert_eq!(s.p50_us, 127);
        // The top quantiles clamp to the observed maximum rather than the
        // bucket edge.
        assert_eq!(s.p99_us, 1_000_000);
        assert!(s.p90_us <= s.p99_us && s.p50_us <= s.p90_us);
    }

    #[test]
    fn wall_quantile_clamps_to_observed_max() {
        let mut h = WallHistogram::new();
        h.record(65); // bucket [64, 128), upper bound 127
        assert_eq!(h.quantile(50), 65);
        assert_eq!(h.quantile(100), 65);
        h.record(u64::MAX); // lands in the final bucket without panicking
        assert_eq!(h.summary().max_us, u64::MAX);
    }
}
