//! Log-linear histograms with atomic buckets.
//!
//! A [`Histogram`] is a set of upper-inclusive bucket bounds (`le`, in
//! Prometheus terms) plus an implicit `+Inf` overflow bucket. Recording is
//! a binary search, a relaxed bucket add and a relaxed sum add; `min` and
//! `max` are read and cost an RMW only when the value moves them — no
//! locks, no allocations — so the serve hot path can record every fused
//! round, not a sample of them; [`Histogram::record_n`] books a whole batch
//! of observations at their mean for the same cost. The default bound set
//! is **log-linear**: nine linear steps per power-of-ten decade, which keeps
//! relative quantile error under ~11% across six orders of magnitude with
//! 90 buckets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A shareable histogram handle. Clones are cheap (`Arc` inside) and all
/// clones record into the same cells.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<Core>,
}

#[derive(Debug)]
struct Core {
    /// Upper-inclusive bucket bounds, strictly increasing.
    bounds: Arc<[u64]>,
    /// Per-bucket counts; `buckets[bounds.len()]` is the `+Inf` overflow.
    buckets: Box<[AtomicU64]>,
    /// Sum of every recorded value.
    sum: AtomicU64,
    /// Smallest recorded value (`u64::MAX` while empty).
    min: AtomicU64,
    /// Largest recorded value.
    max: AtomicU64,
}

impl Histogram {
    /// Fresh cells over an already sorted, deduplicated scale, which the
    /// histogram shares instead of copying.
    fn on_scale(bounds: Arc<[u64]>) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(Core {
                bounds,
                buckets,
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// The default latency scale: log-linear bounds `{1..9} × 10^k` for
    /// `k = 0..=9`, i.e. 1 ns to 9 s in 90 buckets plus `+Inf`.
    pub fn latency_ns() -> Self {
        Histogram::on_scale(latency_scale())
    }

    /// Records one observation. Lock-free and allocation-free.
    pub fn record(&self, value: u64) {
        self.add(value, 1, value);
    }

    /// Records `n` observations that took `total` between them, all at
    /// their mean `total / n`: the mean's bucket gains `n` and `sum` gains
    /// `total`, so `count` and `sum` stay exact while the shape inside the
    /// batch is not kept. `n == 0` records nothing.
    pub fn record_n(&self, total: u64, n: u64) {
        if let Some(mean) = total.checked_div(n) {
            self.add(mean, n, total);
        }
    }

    /// Adds `n` to the bucket of `value` and `total` to the sum.
    #[inline]
    fn add(&self, value: u64, n: u64, total: u64) {
        let core = &*self.core;
        let idx = core.bounds.partition_point(|&b| b < value);
        core.buckets[idx].fetch_add(n, Ordering::Relaxed);
        core.sum.fetch_add(total, Ordering::Relaxed);
        // The extremes only ever move one way, so a stale load can cost a
        // redundant RMW but never lose an extreme: skip the RMW when the
        // cell already holds a value at least as extreme.
        if value < core.min.load(Ordering::Relaxed) {
            core.min.fetch_min(value, Ordering::Relaxed);
        }
        if value > core.max.load(Ordering::Relaxed) {
            core.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Total observations so far (the sum of every bucket, so it always
    /// equals the rendered `+Inf` cumulative bucket).
    pub fn count(&self) -> u64 {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// A point-in-time copy of the cells.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            bounds: Arc::clone(&self.core.bounds),
            counts,
            count,
            sum: self.core.sum.load(Ordering::Relaxed),
            min: self.core.min.load(Ordering::Relaxed),
            max: self.core.max.load(Ordering::Relaxed),
        }
    }
}

/// The [`Histogram::latency_ns`] bounds, computed once per process: every
/// latency histogram shares this one allocation.
pub(crate) fn latency_scale() -> Arc<[u64]> {
    static SCALE: OnceLock<Arc<[u64]>> = OnceLock::new();
    Arc::clone(SCALE.get_or_init(|| {
        let mut decade: u64 = 1;
        let mut bounds = Vec::with_capacity(90);
        for _ in 0..=9 {
            bounds.extend((1..=9u64).map(|step| step * decade));
            decade *= 10;
        }
        bounds.into()
    }))
}

/// A point-in-time copy of a [`Histogram`]: per-bucket counts (not
/// cumulative), totals, and extrema.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds (the Prometheus `le` values, `+Inf`
    /// excluded).
    pub bounds: Arc<[u64]>,
    /// Per-bucket counts; `counts[bounds.len()]` is the `+Inf` overflow.
    pub counts: Vec<u64>,
    /// Total observations (always the sum of `counts`).
    pub count: u64,
    /// Sum of every recorded value.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` while empty).
    pub min: u64,
    /// Largest recorded value (0 while empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of all recorded values (0.0 while empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated quantile `q` in `[0, 1]`, linearly interpolated inside the
    /// containing bucket and clamped to the observed `[min, max]` so the
    /// estimate never leaves the recorded range. Returns 0 while empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    // +Inf bucket: the observed maximum is the only finite
                    // upper edge available.
                    self.max.max(lower)
                };
                let into = (rank - cum) as f64 / c as f64;
                let est = lower as f64 + into * (upper - lower) as f64;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// Renders the snapshot as one JSON object — the schema of the
    /// daemon's `/metrics?format=json` scrape:
    /// `count`, `sum`, `min`/`max`/`mean`, `p50`/`p90`/`p99`, and the
    /// non-empty buckets as `{"le": bound, "count": n}` (the overflow
    /// bucket's `le` is the string `"+Inf"`).
    pub fn to_json(&self) -> String {
        let mut buckets = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !buckets.is_empty() {
                buckets.push_str(", ");
            }
            if i < self.bounds.len() {
                buckets.push_str(&format!("{{\"le\": {}, \"count\": {c}}}", self.bounds[i]));
            } else {
                buckets.push_str(&format!("{{\"le\": \"+Inf\", \"count\": {c}}}"));
            }
        }
        let min = if self.count == 0 { 0 } else { self.min };
        format!(
            "{{\"count\": {}, \"sum\": {}, \"min\": {min}, \"max\": {}, \"mean\": {:.1}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [{buckets}]}}",
            self.count,
            self.sum,
            self.max,
            self.mean(),
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_upper_inclusive_buckets() {
        let h = Histogram::on_scale(vec![10, 100].into());
        for v in [1, 10, 11, 100, 101, 5_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 2, 2], "le=10, le=100, +Inf");
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1 + 10 + 11 + 100 + 101 + 5_000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 5_000);
    }

    #[test]
    fn latency_scale_is_strictly_increasing_and_log_linear() {
        let h = Histogram::latency_ns();
        let snap = h.snapshot();
        assert_eq!(snap.bounds.len(), 90);
        assert!(snap.bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(snap.bounds[0], 1);
        assert_eq!(snap.bounds[89], 9_000_000_000);
    }

    #[test]
    fn quantiles_interpolate_and_stay_in_range() {
        let h = Histogram::latency_ns();
        for v in 1..=1000u64 {
            h.record(v * 100); // 100 ns .. 100 µs, uniform
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.50);
        let p99 = snap.quantile(0.99);
        assert!((40_000..=60_000).contains(&p50), "p50 {p50} far from 50 µs");
        assert!(
            (90_000..=100_000).contains(&p99),
            "p99 {p99} far from 99 µs"
        );
        assert!(snap.quantile(0.0) >= snap.min);
        assert!(snap.quantile(1.0) <= snap.max);
    }

    #[test]
    fn empty_histogram_renders_without_panicking() {
        let snap = Histogram::latency_ns().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.quantile(0.99), 0);
        let json = snap.to_json();
        assert!(json.contains("\"count\": 0"));
        assert!(json.contains("\"buckets\": []"));
    }

    #[test]
    fn json_reports_overflow_bucket_as_inf() {
        let h = Histogram::on_scale(vec![10].into());
        h.record(5);
        h.record(50);
        let json = h.snapshot().to_json();
        assert!(json.contains("{\"le\": 10, \"count\": 1}"));
        assert!(json.contains("{\"le\": \"+Inf\", \"count\": 1}"));
    }

    #[test]
    fn record_n_books_a_batch_at_its_mean() {
        let h = Histogram::on_scale(vec![10, 100].into());
        h.record_n(150, 3); // mean 50: three in le=100
        h.record_n(7, 2); // mean 3 (rounded down): two in le=10
        h.record(500);
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![2, 3, 1], "le=10, le=100, +Inf");
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 150 + 7 + 500, "the sum is exact, not mean × n");
        assert_eq!(snap.min, 3);
        assert_eq!(snap.max, 500);
    }

    #[test]
    fn record_n_of_nothing_is_a_no_op() {
        let h = Histogram::latency_ns();
        h.record_n(1_000, 0);
        h.record_n(0, 0);
        let snap = h.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.sum, 0);
        assert_eq!(snap.min, u64::MAX);
        assert_eq!(snap.max, 0);
    }

    #[test]
    fn concurrent_records_match_a_serial_reduction() {
        // Five writers, 10 000 entries each: one lowers `min` with every
        // record, one raises `max` with every record, two draw seeded
        // values from the middle of the scale, and one alternates single
        // records with `record_n` batches of 2–7 drawn from the same range.
        // An entry is `(total, n)`; `n == 1` goes through `record`.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            20_000 + seed % 1_000_000_000
        };
        let singles = |values: Vec<u64>| values.into_iter().map(|v| (v, 1)).collect();
        let writers: Vec<Vec<(u64, u64)>> = vec![
            singles((1..=10_000).rev().collect()),
            singles((0..10_000).map(|i| 2_000_000_000 + i).collect()),
            singles((0..10_000).map(|_| draw()).collect()),
            singles((0..10_000).map(|_| draw()).collect()),
            (0..10_000u64)
                .map(|i| {
                    let n = if i % 2 == 0 { 1 } else { 2 + i % 6 };
                    (draw() * n + i % n, n)
                })
                .collect(),
        ];
        let h = Histogram::latency_ns();
        let start = std::sync::Barrier::new(writers.len());
        std::thread::scope(|s| {
            for entries in &writers {
                let (h, start) = (h.clone(), &start);
                s.spawn(move || {
                    start.wait();
                    for &(total, n) in entries {
                        if n == 1 {
                            h.record(total);
                        } else {
                            h.record_n(total, n);
                        }
                    }
                });
            }
        });
        let all: Vec<(u64, u64)> = writers.concat();
        let snap = h.snapshot();
        let mut buckets = vec![0u64; snap.bounds.len() + 1];
        for &(total, n) in &all {
            buckets[snap.bounds.partition_point(|&b| b < total / n)] += n;
        }
        assert_eq!(snap.count, all.iter().map(|&(_, n)| n).sum::<u64>());
        assert_eq!(snap.sum, all.iter().map(|&(total, _)| total).sum::<u64>());
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 2_000_009_999);
        assert_eq!(snap.counts, buckets);
    }

    #[test]
    fn clones_share_cells() {
        let a = Histogram::on_scale(vec![10].into());
        let b = a.clone();
        a.record(1);
        b.record(2);
        assert_eq!(a.snapshot().count, 2);
    }
}
