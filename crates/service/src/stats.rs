//! Service observability: the rounds latency histogram and the stats
//! snapshot.
//!
//! Latency is measured in **rounds** (submit tick → release round), the
//! deterministic unit every backend shares. The histogram is fixed-bucket
//! (one bucket per round up to [`LatencyHistogram::BUCKETS`], plus an
//! overflow bucket) so recording is O(1), allocation-free, and identical
//! across a snapshot/restore cycle.
//!
//! Wall time and image sizes are the caller's to measure: it holds every
//! instant it submits and drains at, and every image `snapshot` returns.
//! `sbc_serve` times its own tickets that way. The service keeps none of
//! them, so every [`ServiceStats`] field is replayed exactly by a restore.

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
    /// `(buckets, count, sum, max)`. Image encoding reads this; the
    /// summary API stays the only public view.
    pub(crate) fn raw_parts(&self) -> (&[u64], u64, u64, u64) {
        (&self.buckets, self.count, self.sum, self.max)
    }

    /// Rebuilds a histogram from its raw state. `None` when the bucket
    /// vector is not exactly [`Self::BUCKETS`] long, or when `count` is
    /// not the (checked) sum of the buckets — a decoded image with
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

/// Inert: the type of [`ServiceStats::wall`], which is always `None`.
/// Kept only because the benchmark names that field; ROADMAP item 1
/// deletes both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WallLatencySummary {
    /// Submissions measured.
    pub count: u64,
    /// Median latency (µs).
    pub p50_us: u64,
    /// 90th-percentile latency (µs).
    pub p90_us: u64,
    /// 99th-percentile latency (µs).
    pub p99_us: u64,
    /// Worst observed latency (µs).
    pub max_us: u64,
    /// Mean latency (µs).
    pub mean_us: u64,
}

/// A point-in-time census of the service: counters, peaks, and the
/// latency summary. Obtained from `SbcService::stats`; every field is a
/// deterministic function of the accepted operation history, so a
/// restored service reports exactly what the original did.
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
    /// Leaks past the leak cap, summed over finished instances: each
    /// instance's leak count − cap, saturating (0 when uncapped). The
    /// service keeps no leaks, so this is a count, and equals what a
    /// capturing pool's ring would have evicted.
    pub leak_overflow: u64,
    /// The shared clock round.
    pub round: u64,
    /// Admissions held by live instances — what a snapshot taken now
    /// would replay into the rebuilt instances.
    pub journal_ops: u64,
    /// Inert: always 0, since nothing folds any more. Kept only because
    /// the benchmark reports it; ROADMAP item 1 deletes it.
    pub auto_folds: u64,
    /// Inert: always 0. An image's size is what `snapshot_to` returns.
    /// Kept only because the benchmark assigns it; ROADMAP item 1 deletes
    /// it.
    pub snapshot_bytes: u64,
    /// Submit→release latency summary (rounds).
    pub latency: LatencySummary,
    /// Inert: always `None`. Wall-clock latency is the caller's to time.
    /// Kept only because the benchmark assigns it; ROADMAP item 1 deletes
    /// it.
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
}
