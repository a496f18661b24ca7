//! Pure arithmetic the rest of the bench leans on: percentiles, the
//! best-of-N aggregate, span self time and the `/metrics?format=json`
//! delta reader. Everything here is unit-tested; nothing here does I/O.

use serde_json::Value;

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`); 0 when empty.
/// Sorts in place.
pub fn percentile<T: Copy + PartialOrd + Default>(samples: &mut [T], q: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of a small set of per-repetition values (mean of the two middle
/// ones for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("values are never NaN"));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The best repetition: the minimum of a lower-is-better metric, the
/// maximum of a higher-is-better one; 0 when empty.
pub fn best_of(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// The value one slice in ten beats: the 10th percentile of a
/// lower-is-better metric, the 90th of a higher-is-better one; 0 when
/// empty. Sorts in place.
pub fn best_decile(values: &mut [f64], better: Better) -> f64 {
    match better {
        Better::Lower => percentile(values, 0.10),
        // nearest rank from the top, so both directions leave a tenth beyond
        Better::Higher => {
            values.iter_mut().for_each(|v| *v = -*v);
            -percentile(values, 0.10)
        }
    }
}

/// How far the median repetition sits from the best one, in percent of the
/// best: the spread the best-of aggregate hides.
pub fn rep_spread_pct(values: &[f64], better: Better) -> f64 {
    let best = best_of(values, better);
    if best == 0.0 {
        return 0.0;
    }
    (median(values) - best).abs() / best * 100.0
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better) — the gap the A/A mode and the driver
/// compare against a metric's bound.
pub fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Interquartile range as a share of the median — the driver's spread.
/// Quartiles by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("values are never NaN"));
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med
}

/// A span's self time: its duration minus the part of its interval that its
/// children cover (children may overlap each other; overlap counts once).
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// One `/metrics?format=json` scrape, reduced to what the bench reads:
/// counters and gauges summed over their label sets (`name{...}` keys
/// collapse onto `name`, so per-reactor and per-shard cells add up), and
/// per-bucket histogram counts summed the same way.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    /// `(family, sum over label sets, largest label set)`.
    scalars: Vec<(String, f64, f64)>,
    histograms: Vec<(String, Vec<(f64, u64)>)>,
    /// Distinct `name{labels}` series in the document.
    pub series: usize,
    /// Size of the scraped body.
    pub bytes: usize,
}

fn family(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

impl Scrape {
    /// Parses a scrape body; `None` when it is not the registry's JSON.
    pub fn parse(body: &str) -> Option<Scrape> {
        let doc: Value = serde_json::from_str(body).ok()?;
        let mut out = Scrape {
            bytes: body.len(),
            ..Scrape::default()
        };
        for section in ["counters", "gauges"] {
            for (key, value) in doc[section].as_object()?.iter() {
                out.series += 1;
                let v = value.as_f64().unwrap_or(0.0);
                match out.scalars.iter_mut().find(|(n, ..)| n == family(key)) {
                    Some((_, sum, max)) => {
                        *sum += v;
                        *max = max.max(v);
                    }
                    None => out.scalars.push((family(key).to_string(), v, v)),
                }
            }
        }
        for (key, value) in doc["histograms"].as_object()?.iter() {
            out.series += 1;
            let buckets: Vec<(f64, u64)> = value["buckets"]
                .as_array()?
                .iter()
                .map(|b| {
                    (
                        b["le"].as_f64().unwrap_or(f64::INFINITY),
                        b["count"].as_u64().unwrap_or(0),
                    )
                })
                .collect();
            match out.histograms.iter_mut().find(|(n, _)| n == family(key)) {
                Some((_, merged)) => {
                    for (le, count) in buckets {
                        match merged.iter_mut().find(|(l, _)| *l == le) {
                            Some((_, c)) => *c += count,
                            None => merged.push((le, count)),
                        }
                    }
                }
                None => out.histograms.push((family(key).to_string(), buckets)),
            }
        }
        Some(out)
    }

    /// A counter's or gauge's value summed over its label sets (0 if absent).
    pub fn scalar(&self, name: &str) -> f64 {
        self.scalars
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(0.0, |(_, sum, _)| *sum)
    }

    /// The largest value any one label set of a gauge holds (0 if absent).
    pub fn scalar_max(&self, name: &str) -> f64 {
        self.scalars
            .iter()
            .find(|(n, ..)| n == name)
            .map_or(0.0, |(.., max)| *max)
    }

    /// How much a counter grew between `before` and this scrape.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        self.scalar(name) - before.scalar(name)
    }

    /// Quantile `q` of the observations a histogram family gained between
    /// `before` and this scrape: the upper bound of the bucket holding the
    /// rank (0 when nothing was observed in between).
    pub fn histogram_delta_quantile(&self, before: &Scrape, name: &str, q: f64) -> f64 {
        let find = |s: &Scrape| {
            s.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| b.clone())
                .unwrap_or_default()
        };
        let old = find(before);
        let mut gained: Vec<(f64, u64)> = find(self)
            .into_iter()
            .map(|(le, count)| {
                let was = old.iter().find(|(l, _)| *l == le).map_or(0, |(_, c)| *c);
                (le, count.saturating_sub(was))
            })
            .collect();
        gained.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("bounds are never NaN"));
        let total: u64 = gained.iter().map(|(_, c)| c).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        // The overflow bucket has no finite bound: report the largest finite
        // one, which is a number a result line can carry.
        let mut seen = 0;
        let mut finite = 0.0;
        for (le, count) in gained {
            if le.is_finite() {
                finite = le;
            }
            seen += count;
            if seen >= rank {
                break;
            }
        }
        finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![5u64, 1, 4, 2, 3];
        assert_eq!(percentile(&mut v, 0.5), 3);
        assert_eq!(percentile(&mut v, 0.99), 5);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut even = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&mut even, 0.5), 2.0);
        assert_eq!(percentile::<u64>(&mut [], 0.5), 0);
    }

    #[test]
    fn best_of_follows_the_direction() {
        let reps = [1.30, 1.22, 1.27, 1.25];
        assert_eq!(best_of(&reps, Better::Lower), 1.22);
        assert_eq!(best_of(&reps, Better::Higher), 1.30);
        assert_eq!(best_of(&[], Better::Lower), 0.0);
        // median 1.26 sits 3.28 % above the best repetition
        assert!((rep_spread_pct(&reps, Better::Lower) - 3.2787).abs() < 1e-3);
    }

    #[test]
    fn best_decile_leaves_a_tenth_beyond() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(best_decile(&mut v.clone(), Better::Lower), 2.0);
        assert_eq!(best_decile(&mut v, Better::Higher), 19.0);
        assert_eq!(best_decile(&mut [], Better::Lower), 0.0);
        assert_eq!(best_decile(&mut [7.0], Better::Higher), 7.0);
    }

    #[test]
    fn worse_by_is_signed_by_direction() {
        assert!((worse_by(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // parent 0..100; children 10..30 and 20..50 overlap, 90..120 is
        // clipped to the parent: covered = 40 + 10
        assert_eq!(self_time_ns(0, 100, &[(10, 30), (20, 50), (90, 120)]), 50);
        assert_eq!(self_time_ns(0, 100, &[]), 100);
        assert_eq!(self_time_ns(0, 100, &[(0, 100), (0, 100)]), 0);
    }

    const BEFORE: &str = r#"{
      "counters": {"avoc_rounds_fused_total": 100, "avoc_net_epoll_wakeups_total{reactor=\"0\"}": 10,
                   "avoc_net_epoll_wakeups_total{reactor=\"1\"}": 5},
      "gauges": {"avoc_shard_queue_high_water{shard=\"0\"}": 3},
      "histograms": {"avoc_fuse_latency_ns": {"count": 4, "sum": 0, "min": 0, "max": 0, "mean": 0.0,
        "p50": 0, "p90": 0, "p99": 0, "buckets": [{"le": 200, "count": 4}]}}
    }"#;
    const AFTER: &str = r#"{
      "counters": {"avoc_rounds_fused_total": 1100, "avoc_net_epoll_wakeups_total{reactor=\"0\"}": 40,
                   "avoc_net_epoll_wakeups_total{reactor=\"1\"}": 25},
      "gauges": {"avoc_shard_queue_high_water{shard=\"0\"}": 7, "avoc_shard_queue_high_water{shard=\"1\"}": 2},
      "histograms": {"avoc_fuse_latency_ns": {"count": 14, "sum": 0, "min": 0, "max": 0, "mean": 0.0,
        "p50": 0, "p90": 0, "p99": 0, "buckets": [{"le": 200, "count": 5}, {"le": 300, "count": 8},
        {"le": "+Inf", "count": 1}]}}
    }"#;

    #[test]
    fn scrape_delta_sums_label_sets() {
        let before = Scrape::parse(BEFORE).expect("before parses");
        let after = Scrape::parse(AFTER).expect("after parses");
        assert_eq!(after.delta(&before, "avoc_rounds_fused_total"), 1000.0);
        assert_eq!(after.delta(&before, "avoc_net_epoll_wakeups_total"), 50.0);
        assert_eq!(after.scalar("avoc_shard_queue_high_water"), 9.0);
        assert_eq!(after.scalar_max("avoc_shard_queue_high_water"), 7.0);
        assert_eq!(after.scalar("absent"), 0.0);
        assert_eq!(after.series, 6);
        // gained: 1 at le=200, 8 at le=300, 1 overflow
        assert_eq!(
            after.histogram_delta_quantile(&before, "avoc_fuse_latency_ns", 0.5),
            300.0
        );
        assert_eq!(
            after.histogram_delta_quantile(&before, "avoc_fuse_latency_ns", 0.05),
            200.0
        );
        assert_eq!(
            before.histogram_delta_quantile(&before, "avoc_fuse_latency_ns", 0.5),
            0.0
        );
        assert!(Scrape::parse("not json").is_none());
    }
}
