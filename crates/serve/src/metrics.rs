//! Service telemetry: monotonic counters and log-bucketed latency
//! histograms, all lock-free (relaxed atomics — they are telemetry, not
//! synchronization).
//!
//! # Histogram buckets
//!
//! [`Histogram`] buckets by powers of two of **microseconds**: bucket
//! `i` holds observations with `floor(log2(µs)) == i`, so bucket 0 is
//! `[1 µs, 2 µs)`, bucket 10 is `[~1 ms, ~2 ms)`, bucket 19 is
//! `[~0.5 s, ~1 s)` and the last bucket ([`HISTOGRAM_BUCKETS`] − 1,
//! ≳ 33 s) catches everything beyond the service's wall caps.
//! Percentiles are estimated from the bucket upper edges, so a reported
//! p99 is an upper bound within one power of two of the true value —
//! exactly the fidelity a load balancer needs, at the cost of two
//! atomic adds per observation.
//!
//! # Consistency contract
//!
//! Every counter and histogram cell is individually monotonic, but a
//! snapshot taken *during* a request burst is not a transaction — a
//! reader may see a request counted before its latency is observed. At
//! quiescence (no in-flight requests) the identities hold exactly:
//! `results + degraded + shed + errors == requests`,
//! `latency.count == requests`, `queue_wait.count == admitted`,
//! `fm_fallbacks == wall_by_tier["fm-fallback"].count`, and every
//! histogram's bucket sum equals its count. The soak harness and
//! the `/metrics` concurrency test pin both halves of this contract.

use crate::admit::{Priority, PRIORITY_CLASSES};
use crate::json::Obj;
use crate::proto::Degradation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two microsecond buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 26;

/// A lock-free latency histogram with power-of-two microsecond buckets.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed durations, in microseconds.
    pub sum_us: u64,
}

/// Bucket index for a duration of `us` microseconds: `floor(log2(us))`,
/// clamped into the bucket range (sub-microsecond observations land in
/// bucket 0, everything ≥ 2^25 µs in the last bucket).
fn bucket_index(us: u64) -> usize {
    (us.max(1).ilog2() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper edge of bucket `i`, in microseconds (the last
/// bucket's true range is unbounded; its edge is used for percentile
/// estimates).
pub fn bucket_edge_us(i: usize) -> u64 {
    (2u64 << i) - 1
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current cell values (see the module-level consistency
    /// contract: exact at quiescence, monotonic always).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (0 ≤ q ≤ 1) in microseconds: the upper
    /// edge of the first bucket whose cumulative count reaches
    /// `q · count`. Zero when the histogram is empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_edge_us(i);
            }
        }
        bucket_edge_us(HISTOGRAM_BUCKETS - 1)
    }

    /// Renders the snapshot as a JSON object:
    /// `{"count":…,"sum_us":…,"p50_us":…,"p90_us":…,"p99_us":…,"buckets":[…]}`.
    /// Trailing empty buckets are trimmed from the array (the edges are
    /// implied by position: bucket `i` ends at `2^(i+1) − 1 µs`).
    pub fn to_json(&self) -> String {
        let used = self
            .buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |i| i + 1);
        Obj::new()
            .int("count", self.count)
            .int("sum_us", self.sum_us)
            .int("p50_us", self.quantile_us(0.50))
            .int("p90_us", self.quantile_us(0.90))
            .int("p99_us", self.quantile_us(0.99))
            .array("buckets", self.buckets[..used].iter().map(u64::to_string))
            .render()
    }
}

/// Result-frame tiers tracked by the per-tier wall histograms: index 0
/// is a clean result, then one per [`Degradation`] reason in
/// [`Degradation::ALL`] order.
pub const RESULT_TIERS: usize = Degradation::ALL.len() + 1;

/// Histogram index of a result frame's degradation (None = clean).
pub fn tier_index(degradation: Option<Degradation>) -> usize {
    degradation.map_or(0, |d| d as usize + 1)
}

/// Wire names of the per-tier histograms, in [`tier_index`] order.
pub fn tier_names() -> impl Iterator<Item = &'static str> {
    std::iter::once("clean").chain(Degradation::ALL.map(Degradation::name))
}

/// Monotonic service counters and latency histograms. See the module
/// docs for the consistency contract.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Request lines received (excluding `/metrics` and `/trace`).
    pub requests: AtomicU64,
    /// Requests that acquired a worker permit.
    pub admitted: AtomicU64,
    /// Terminal `result` frames, clean.
    pub results: AtomicU64,
    /// Terminal `result` frames flagged degraded.
    pub degraded: AtomicU64,
    /// Terminal `shed` frames.
    pub shed: AtomicU64,
    /// Terminal `error` frames.
    pub errors: AtomicU64,
    /// Reseeded ladder rungs run by main-tier attempts, each after an
    /// eigensolver failure: only reseeds that could change an answer.
    pub retries: AtomicU64,
    /// Result frames degraded with reason `fm-fallback`.
    pub fm_fallbacks: AtomicU64,
    /// Requests answered by the multilevel V-cycle tier.
    pub multilevel: AtomicU64,
    /// Panics contained by the service/runner isolation boundaries.
    pub panics_contained: AtomicU64,
    /// IG-Match runs answered from a cached netlist's memo instead of a
    /// fresh eigensolve and sweep.
    pub ig_match_hits: AtomicU64,
    /// Arrival → terminal frame, every request.
    pub latency: Histogram,
    /// Arrival → terminal frame, per admission class.
    pub latency_by_priority: [Histogram; PRIORITY_CLASSES],
    /// Enroll → permit, admitted requests only.
    pub queue_wait: Histogram,
    /// Enroll → permit, per admission class.
    pub queue_wait_by_priority: [Histogram; PRIORITY_CLASSES],
    /// Permit → terminal frame (compute wall), result frames only, per
    /// degradation tier ([`tier_names`]).
    pub wall_by_tier: [Histogram; RESULT_TIERS],
}

impl Metrics {
    /// Bumps one counter.
    pub fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a terminal latency (arrival → terminal frame) under the
    /// request's admission class.
    pub fn observe_latency(&self, priority: Priority, latency: Duration) {
        self.latency.observe(latency);
        self.latency_by_priority[priority.index()].observe(latency);
    }

    /// Records an admission queue wait under the request's class.
    pub fn observe_queue_wait(&self, priority: Priority, wait: Duration) {
        self.queue_wait.observe(wait);
        self.queue_wait_by_priority[priority.index()].observe(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_is_floor_log2_micros() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // edges are inclusive upper bounds of their bucket
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_edge_us(i)), i);
            assert_eq!(bucket_index(bucket_edge_us(i) + 1), i + 1);
        }
    }

    #[test]
    fn observations_land_in_their_buckets_and_sum_matches_count() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(1));
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_millis(1)); // 1000 µs → bucket 9
        h.observe(Duration::from_secs(120)); // beyond the range → last
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[9], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.sum_us, 1 + 3 + 1_000 + 120_000_000);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.observe(Duration::from_micros(10)); // bucket 3, edge 15
        }
        h.observe(Duration::from_millis(100)); // bucket 16, edge ~131 ms
        let s = h.snapshot();
        assert_eq!(s.quantile_us(0.50), 15);
        assert_eq!(s.quantile_us(0.99), 15);
        assert_eq!(s.quantile_us(1.0), bucket_edge_us(16));
        assert!(s.quantile_us(0.5) >= 10, "upper bound property");
        assert_eq!(HistogramSnapshot::default_empty().quantile_us(0.99), 0);
    }

    impl HistogramSnapshot {
        fn default_empty() -> Self {
            HistogramSnapshot {
                buckets: [0; HISTOGRAM_BUCKETS],
                count: 0,
                sum_us: 0,
            }
        }
    }

    #[test]
    fn snapshot_json_is_valid_and_trims_trailing_buckets() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(5));
        let json = h.snapshot().to_json();
        let doc = crate::json::parse(&json).unwrap();
        assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("sum_us").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(doc.get("p99_us").and_then(|v| v.as_u64()), Some(7));
        let crate::json::Value::Array(buckets) = doc.get("buckets").unwrap() else {
            panic!("buckets must be an array");
        };
        assert_eq!(buckets.len(), 3, "trailing zeros trimmed: {json}");
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let h = Arc::new(Histogram::default());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.observe(Duration::from_micros((t * 1000 + i) as u64));
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn tier_indices_cover_every_degradation() {
        assert_eq!(tier_index(None), 0);
        let names: Vec<&str> = tier_names().collect();
        assert_eq!(names.len(), RESULT_TIERS);
        assert_eq!(names[0], "clean");
        let mut seen = [false; RESULT_TIERS];
        seen[0] = true;
        for d in Degradation::ALL {
            let i = tier_index(Some(d));
            assert_eq!(names[i], d.name(), "name table must match");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
