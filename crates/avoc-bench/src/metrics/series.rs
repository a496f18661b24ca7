//! Series operations: differencing (Fig. 6-e) and smoothing.

/// Pointwise difference `a - b`, `None` wherever either side is missing.
///
/// This is exactly the Fig. 6-e quantity: the per-round difference between
/// the voting output on error-injected data (`a`) and on the raw reference
/// data (`b`) — zero means the voter fully masked the fault.
///
/// # Panics
///
/// Panics when the series lengths differ.
pub fn diff_series(a: &[Option<f64>], b: &[Option<f64>]) -> Vec<Option<f64>> {
    assert_eq!(a.len(), b.len(), "series length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| match (x, y) {
            (Some(x), Some(y)) => Some(x - y),
            _ => None,
        })
        .collect()
}

/// Centred-window moving average with the given window size (gaps skipped;
/// a window with no samples yields `None`).
///
/// # Panics
///
/// Panics when `window == 0`.
pub(crate) fn moving_average(series: &[Option<f64>], window: usize) -> Vec<Option<f64>> {
    assert!(window > 0, "window must be positive");
    let half = window / 2;
    (0..series.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(series.len());
            let xs: Vec<f64> = series[lo..hi].iter().flatten().copied().collect();
            if xs.is_empty() {
                None
            } else {
                Some(xs.iter().sum::<f64>() / xs.len() as f64)
            }
        })
        .collect()
}

/// Largest absolute value of a (gappy) series; `None` when all-missing.
pub fn max_abs(series: &[Option<f64>]) -> Option<f64> {
    series
        .iter()
        .flatten()
        .map(|v| v.abs())
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_matches_pointwise() {
        let a = [Some(2.0), Some(3.0), None];
        let b = [Some(1.0), None, Some(5.0)];
        assert_eq!(diff_series(&a, &b), vec![Some(1.0), None, None]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn diff_rejects_mismatched_lengths() {
        let _ = diff_series(&[Some(1.0)], &[]);
    }

    #[test]
    fn moving_average_smooths() {
        let noisy: Vec<Option<f64>> = (0..100)
            .map(|i| Some(10.0 + if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let smooth = moving_average(&noisy, 10);
        for v in smooth.iter().skip(5).take(90) {
            assert!((v.unwrap() - 10.0).abs() < 0.2);
        }
    }

    #[test]
    fn moving_average_window_one_is_identity() {
        let s = [Some(1.0), None, Some(3.0)];
        assert_eq!(moving_average(&s, 1), s.to_vec());
    }

    #[test]
    fn moving_average_bridges_gaps() {
        let s = [Some(1.0), None, Some(3.0)];
        let out = moving_average(&s, 3);
        assert_eq!(out[1], Some(2.0));
    }

    #[test]
    fn max_abs_finds_extremes() {
        assert_eq!(max_abs(&[Some(-3.0), Some(2.0), None]), Some(3.0));
        assert_eq!(max_abs(&[None]), None);
    }
}
