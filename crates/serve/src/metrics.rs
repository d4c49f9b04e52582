//! Serving-tier observability: lock-free histograms and counters.
//!
//! Everything here is plain `AtomicU64`s recorded with `Relaxed`
//! stores — a worker finishing a query touches three counters and two
//! histogram buckets, no locks, no allocation — so the metrics path
//! adds nanoseconds, not microseconds, to request latency.
//! [`ServeMetrics::snapshot`] reads the counters without stopping the
//! world, so a snapshot taken mid-flight can be skewed by the handful
//! of operations in progress; that is the usual monitoring contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// 16 exact buckets for values 0..16, then 16 sub-buckets per power of
/// two ("octave"): relative quantile error is bounded at 1/16 ≈ 6%.
const SUB_BUCKETS: usize = 16;
/// Octaves 4..=63 cover every further `u64` value.
const BUCKETS: usize = SUB_BUCKETS + (64 - 4) * SUB_BUCKETS;

/// Maps a value to its bucket: exact below 16, then log-linear
/// (HDR-style — the octave from the leading bit, the sub-bucket from
/// the next four bits).
fn bucket_of(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as usize; // >= 4 here
    let sub = ((value >> (octave - 4)) & 0xF) as usize;
    SUB_BUCKETS + (octave - 4) * SUB_BUCKETS + sub
}

/// The largest value a bucket can hold — the quantile estimate, so
/// reported quantiles never *understate* the observed latency.
fn bucket_upper(bucket: usize) -> u64 {
    if bucket < SUB_BUCKETS {
        return bucket as u64;
    }
    let rest = bucket - SUB_BUCKETS;
    let octave = rest / SUB_BUCKETS + 4;
    let sub = (rest % SUB_BUCKETS) as u128;
    // The bucket spans [(16+sub) << (octave-4), (16+sub+1) << (octave-4));
    // computed in u128 because the top octave's edge is 2^64.
    let upper = ((16 + sub + 1) << (octave - 4)) - 1;
    upper.min(u64::MAX as u128) as u64
}

/// A fixed-size log-linear histogram of `u64` samples (nanoseconds,
/// epoch counts, batch sizes — anything non-negative). Recording is a
/// single `Relaxed` `fetch_add` per bucket; quantile error is bounded
/// at ~6% by the 16 sub-buckets per octave, and the exact maximum is
/// tracked separately so the tail is never overstated.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    pub(crate) fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum.load(Ordering::Relaxed) as f64 / count as f64
    }

    /// The exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The estimated `q`-quantile (`0.0 < q <= 1.0`): the upper edge of
    /// the bucket holding the `ceil(q·count)`-th smallest sample,
    /// clamped to the exact observed maximum. Returns 0 when empty.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.5))
            .field("p99", &self.quantile(0.99))
            .field("max", &self.max())
            .finish()
    }
}

/// Shared serving-tier metrics: counters plus four histograms. One
/// instance is shared by the [`crate::ServeLoop`] (request latency,
/// batches, shed) and the [`crate::EpochWriter`] (swap-install
/// latency); everything is lock-free to record.
#[derive(Debug)]
pub struct ServeMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    max_queue_depth: AtomicU64,
    /// Submit→response, nanoseconds (queue wait + service).
    latency: Histogram,
    /// Requests folded per drained batch.
    batch: Histogram,
    /// Acked epochs the serving snapshot was behind, per served query.
    freshness: Histogram,
    /// Publishing the engine's index, nanoseconds, per epoch swap.
    swap: Histogram,
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ServeMetrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            latency: Histogram::new(),
            batch: Histogram::new(),
            freshness: Histogram::new(),
            swap: Histogram::new(),
        }
    }

    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the depth an accepted push left the queue at.
    pub(crate) fn record_queue_depth(&self, depth: usize) {
        self.max_queue_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self, size: usize) {
        self.batch.record(size as u64);
    }

    pub(crate) fn record_done(&self, latency: Duration, freshness_lag: u64, ok: bool) {
        if ok {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.latency.record_duration(latency);
        self.freshness.record(freshness_lag);
    }

    pub(crate) fn record_swap(&self, install: Duration) {
        self.swap.record_duration(install);
    }

    /// The request-latency histogram (submit→response, nanoseconds).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The per-query freshness-lag histogram (acked epochs behind).
    pub fn freshness(&self) -> &Histogram {
        &self.freshness
    }

    /// The swap-install latency histogram (nanoseconds per publish).
    pub fn swap(&self) -> &Histogram {
        &self.swap
    }

    /// A point-in-time summary of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let to_ms = |nanos: u64| nanos as f64 / 1e6;
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            latency_p50_ms: to_ms(self.latency.quantile(0.50)),
            latency_p99_ms: to_ms(self.latency.quantile(0.99)),
            latency_p999_ms: to_ms(self.latency.quantile(0.999)),
            latency_mean_ms: self.latency.mean() / 1e6,
            latency_max_ms: to_ms(self.latency.max()),
            mean_batch: self.batch.mean(),
            freshness_lag_p50: self.freshness.quantile(0.50),
            freshness_lag_max: self.freshness.max(),
            freshness_lag_mean: self.freshness.mean(),
            swaps: self.swap.count(),
            swap_p50_ms: to_ms(self.swap.quantile(0.50)),
            swap_max_ms: to_ms(self.swap.max()),
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

/// A point-in-time summary of [`ServeMetrics`] — plain data, cheap to
/// copy around, print, or serialise by hand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests offered (accepted + shed).
    pub submitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a typed per-query error.
    pub failed: u64,
    /// Requests rejected by admission control.
    pub shed: u64,
    /// Largest queue depth an accepted submit left (never above the
    /// admission bound: a shed submit records no depth).
    pub max_queue_depth: u64,
    /// Request latency quantiles, milliseconds (submit→response).
    pub latency_p50_ms: f64,
    /// 99th percentile request latency, milliseconds.
    pub latency_p99_ms: f64,
    /// 99.9th percentile request latency, milliseconds.
    pub latency_p999_ms: f64,
    /// Mean request latency, milliseconds.
    pub latency_mean_ms: f64,
    /// Exact worst request latency, milliseconds.
    pub latency_max_ms: f64,
    /// Mean requests folded per drained batch.
    pub mean_batch: f64,
    /// Median per-query freshness lag (acked epochs behind).
    pub freshness_lag_p50: u64,
    /// Worst per-query freshness lag observed.
    pub freshness_lag_max: u64,
    /// Mean per-query freshness lag.
    pub freshness_lag_mean: f64,
    /// Number of epoch swaps published.
    pub swaps: u64,
    /// Median swap-install (publish: one pointer swap) latency, ms.
    pub swap_p50_ms: f64,
    /// Worst swap-install latency, milliseconds.
    pub swap_max_ms: f64,
}

impl MetricsSnapshot {
    /// Fraction of offered requests shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.shed as f64 / self.submitted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_roundtrip() {
        for v in [0u64, 1, 15, 16, 17, 100, 1_000, 123_456, u64::MAX / 2, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            assert!(bucket_upper(b) >= v, "upper({b}) = {} < {v}", bucket_upper(b));
            if b > 0 {
                assert!(bucket_upper(b - 1) < v, "value {v} not above previous bucket");
            }
        }
    }

    #[test]
    fn bucket_error_is_bounded() {
        // The upper edge overestimates by at most one sub-bucket width:
        // 1/16 of the value's octave.
        for v in [20u64, 999, 5_000, 1_000_000, 123_456_789] {
            let upper = bucket_upper(bucket_of(v));
            assert!(upper as f64 <= v as f64 * (1.0 + 1.0 / 16.0) + 1.0, "{v} -> {upper}");
        }
    }

    #[test]
    fn quantiles_match_exact_on_small_values() {
        let h = Histogram::new();
        for v in 0..10 {
            h.record(v); // values 0..16 are exact buckets
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(1.0), 9);
        assert_eq!(h.max(), 9);
        assert!((h.mean() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile(0.99), 1_000_003);
        assert_eq!(h.quantile(0.001), 1_000_003);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn snapshot_shed_rate() {
        let m = ServeMetrics::new();
        for _ in 0..8 {
            m.record_submitted();
        }
        m.record_shed();
        m.record_shed();
        let s = m.snapshot();
        assert_eq!(s.submitted, 8);
        assert_eq!(s.shed, 2);
        assert!((s.shed_rate() - 0.25).abs() < 1e-12);
    }
}
