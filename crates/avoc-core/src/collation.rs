//! Collation: turning weighted candidates into one output value.
//!
//! The paper's UC-2 finding is that the collation method — *averaging the
//! weighted values* versus *mean-nearest-neighbour selection* — dominates the
//! output behaviour in noisy scenarios, while the history method becomes
//! irrelevant. Collation is therefore a first-class, swappable parameter
//! (VDX `collation` field).

use std::cmp::Ordering;
use std::fmt;

/// Numeric collation technique (VDX `collation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Collation {
    /// Weighted arithmetic mean of the candidates — an *amalgamation*
    /// technique: the output need not equal any submitted value.
    #[default]
    WeightedMean,
    /// Mean-nearest-neighbour — a *selection* technique: the candidate value
    /// closest to the weighted mean wins, so the output is always a real
    /// measurement (the Hybrid voter's default).
    MeanNearestNeighbor,
    /// Weighted median of the candidates (robust amalgamation; an extension
    /// beyond the paper's four collation modes).
    Median,
}

impl fmt::Display for Collation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Collation::WeightedMean => "weighted-mean",
            Collation::MeanNearestNeighbor => "mean-nearest-neighbor",
            Collation::Median => "median",
        };
        f.write_str(s)
    }
}

/// Collates weighted scalar candidates into one output.
///
/// Candidates with non-positive weight are ignored. Returns `None` when no
/// candidate carries positive weight (the caller decides the fallback: plain
/// mean, last-good value, or an error).
///
/// # Example
///
/// ```
/// use avoc_core::collation::{collate, Collation};
///
/// let values = [18.0, 18.4, 30.0];
/// let weights = [1.0, 1.0, 0.0]; // outlier eliminated
/// assert_eq!(collate(Collation::WeightedMean, &values, &weights), Some(18.2));
/// assert_eq!(collate(Collation::MeanNearestNeighbor, &values, &weights), Some(18.0));
/// ```
///
/// # Panics
///
/// Panics if `values` and `weights` differ in length.
pub fn collate(method: Collation, values: &[f64], weights: &[f64]) -> Option<f64> {
    assert_eq!(
        values.len(),
        weights.len(),
        "values/weights length mismatch"
    );
    let candidates = values.iter().copied().zip(weights.iter().copied());
    collate_into(method, candidates, &mut Vec::new()).map(|(output, _)| output)
}

/// [`collate`] over `(value, weight)` candidates: the output, and the total
/// positive weight it was collated from (what a verdict's confidence is a
/// fraction of); `None` when no weight is positive. `Median` sorts into
/// `sorted` instead of a fresh vector.
pub(crate) fn collate_into<I>(
    method: Collation,
    candidates: I,
    sorted: &mut Vec<(f64, f64)>,
) -> Option<(f64, f64)>
where
    I: Iterator<Item = (f64, f64)> + Clone,
{
    let weighted = candidates.filter(|&(_, w)| w > 0.0);
    // One pass sums the weights and the weighted values, each in candidate
    // order from `-0.0`, as `Iterator::sum` does.
    let (mut total, mut sum) = (-0.0, -0.0);
    for (v, w) in weighted.clone() {
        total += w;
        sum += v * w;
    }
    if total <= 0.0 {
        return None;
    }
    let output = match method {
        Collation::WeightedMean => sum / total,
        Collation::MeanNearestNeighbor => {
            let mean = sum / total;
            // The first of equally near candidates wins.
            let mut nearest: Option<(f64, f64)> = None;
            for (v, _) in weighted {
                let d = (v - mean).abs();
                let nearer = nearest.is_none_or(|(_, best)| {
                    d.partial_cmp(&best).expect("finite candidates") == Ordering::Less
                });
                if nearer {
                    nearest = Some((v, d));
                }
            }
            nearest.expect("a positive weight").0
        }
        Collation::Median => weighted_median(weighted, sorted),
    };
    Some((output, total))
}

/// Weighted median: the smallest value `v` such that the cumulative weight of
/// candidates `≤ v` reaches half the total weight. The candidates are sorted
/// into `sorted` (stable, so equal values keep their order) and their total
/// is re-summed in that order.
fn weighted_median(
    weighted: impl Iterator<Item = (f64, f64)>,
    sorted: &mut Vec<(f64, f64)>,
) -> f64 {
    sorted.clear();
    sorted.extend(weighted);
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite candidates"));
    let total: f64 = sorted.iter().map(|(_, w)| w).sum();
    let half = total / 2.0;
    let mut acc = 0.0;
    for &(v, w) in sorted.iter() {
        acc += w;
        if acc >= half {
            return v;
        }
    }
    sorted[sorted.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_mean_respects_weights() {
        let out = collate(Collation::WeightedMean, &[10.0, 20.0], &[3.0, 1.0]).unwrap();
        assert!((out - 12.5).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_candidates_are_ignored() {
        let out = collate(Collation::WeightedMean, &[10.0, 1000.0], &[1.0, 0.0]).unwrap();
        assert_eq!(out, 10.0);
    }

    #[test]
    fn all_zero_weights_yield_none() {
        assert_eq!(
            collate(Collation::WeightedMean, &[1.0, 2.0], &[0.0, 0.0]),
            None
        );
        assert_eq!(
            collate(Collation::MeanNearestNeighbor, &[1.0], &[0.0]),
            None
        );
        assert_eq!(collate(Collation::Median, &[], &[]), None);
    }

    #[test]
    fn mean_nearest_neighbor_returns_a_real_candidate() {
        let values = [17.9, 18.2, 18.6];
        let weights = [1.0, 1.0, 1.0];
        let out = collate(Collation::MeanNearestNeighbor, &values, &weights).unwrap();
        assert!(values.contains(&out));
        assert_eq!(out, 18.2); // mean ≈ 18.2333, nearest is 18.2
    }

    #[test]
    fn mnn_ignores_zero_weight_even_if_nearest() {
        // 18.23 would be nearest to the mean but carries no weight.
        let values = [18.0, 18.5, 18.23];
        let weights = [1.0, 1.0, 0.0];
        let out = collate(Collation::MeanNearestNeighbor, &values, &weights).unwrap();
        assert!(out == 18.0 || out == 18.5);
    }

    #[test]
    fn median_odd_and_even() {
        let out = collate(Collation::Median, &[1.0, 9.0, 5.0], &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(out, 5.0);
        // Heavy weight drags the median.
        let out = collate(Collation::Median, &[1.0, 9.0, 5.0], &[5.0, 1.0, 1.0]).unwrap();
        assert_eq!(out, 1.0);
    }

    #[test]
    fn median_is_robust_to_one_outlier() {
        let out = collate(
            Collation::Median,
            &[18.0, 18.1, 18.2, 900.0],
            &[1.0, 1.0, 1.0, 1.0],
        )
        .unwrap();
        assert!(out <= 18.2);
    }

    #[test]
    fn single_candidate_all_methods() {
        for m in [
            Collation::WeightedMean,
            Collation::MeanNearestNeighbor,
            Collation::Median,
        ] {
            assert_eq!(collate(m, &[7.0], &[0.5]), Some(7.0), "method {m}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = collate(Collation::WeightedMean, &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn display_is_kebab_case() {
        assert_eq!(Collation::WeightedMean.to_string(), "weighted-mean");
        assert_eq!(
            Collation::MeanNearestNeighbor.to_string(),
            "mean-nearest-neighbor"
        );
    }
}
