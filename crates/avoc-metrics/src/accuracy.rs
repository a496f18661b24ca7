//! Absolute accuracy against ground truth.
//!
//! Real deployments lack external ground truth — that is the paper's whole
//! premise ("in the absence of external ground truth ... voting is a
//! pragmatic substitute as it leads to internal ground truth"). The
//! simulators, however, *know* the true field, so fused outputs can be
//! scored absolutely: this module provides the error measures used to show
//! that the internal ground truth genuinely tracks the external one.

use std::fmt;

/// Error statistics of an output series against a known truth series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Rounds where the output was present and scored.
    pub scored: usize,
    /// Rounds where the output was missing.
    pub missing: usize,
    /// Root-mean-square error.
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Largest absolute error.
    pub max_abs_error: f64,
    /// Mean signed error (bias; positive = output reads high).
    pub bias: f64,
}

impl AccuracyReport {
    /// Scores `output[r]` against `truth[r]` for every round. Returns
    /// `None` when no round could be scored.
    ///
    /// # Panics
    ///
    /// Panics when the series lengths differ.
    pub fn score(output: &[Option<f64>], truth: &[f64]) -> Option<AccuracyReport> {
        assert_eq!(output.len(), truth.len(), "series length mismatch");
        let mut scored = 0usize;
        let mut missing = 0usize;
        let mut sq_sum = 0.0;
        let mut abs_sum = 0.0;
        let mut signed_sum = 0.0;
        let mut max_abs = 0.0f64;
        for (o, &t) in output.iter().zip(truth) {
            match o {
                Some(v) => {
                    let e = v - t;
                    scored += 1;
                    sq_sum += e * e;
                    abs_sum += e.abs();
                    signed_sum += e;
                    max_abs = max_abs.max(e.abs());
                }
                None => missing += 1,
            }
        }
        if scored == 0 {
            return None;
        }
        let n = scored as f64;
        Some(AccuracyReport {
            scored,
            missing,
            rmse: (sq_sum / n).sqrt(),
            mae: abs_sum / n,
            max_abs_error: max_abs,
            bias: signed_sum / n,
        })
    }
}

impl fmt::Display for AccuracyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rmse {:.4}, mae {:.4}, bias {:+.4}, max |e| {:.4} over {} rounds ({} missing)",
            self.rmse, self.mae, self.bias, self.max_abs_error, self.scored, self.missing
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_output_scores_zero() {
        let truth = [1.0, 2.0, 3.0];
        let output = [Some(1.0), Some(2.0), Some(3.0)];
        let r = AccuracyReport::score(&output, &truth).unwrap();
        assert_eq!(r.rmse, 0.0);
        assert_eq!(r.mae, 0.0);
        assert_eq!(r.bias, 0.0);
        assert_eq!(r.scored, 3);
    }

    #[test]
    fn constant_offset_shows_as_bias() {
        let truth = [10.0; 5];
        let output = [Some(10.5); 5];
        let r = AccuracyReport::score(&output, &truth).unwrap();
        assert!((r.bias - 0.5).abs() < 1e-12);
        assert!((r.mae - 0.5).abs() < 1e-12);
        assert!((r.rmse - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rmse_penalises_spikes_more_than_mae() {
        let truth = [0.0; 4];
        let output = [Some(0.0), Some(0.0), Some(0.0), Some(2.0)];
        let r = AccuracyReport::score(&output, &truth).unwrap();
        assert!((r.mae - 0.5).abs() < 1e-12);
        assert!((r.rmse - 1.0).abs() < 1e-12);
        assert_eq!(r.max_abs_error, 2.0);
    }

    #[test]
    fn missing_rounds_are_counted_not_scored() {
        let truth = [1.0, 2.0];
        let output = [None, Some(2.5)];
        let r = AccuracyReport::score(&output, &truth).unwrap();
        assert_eq!(r.scored, 1);
        assert_eq!(r.missing, 1);
        assert!((r.mae - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_missing_is_none() {
        assert!(AccuracyReport::score(&[None, None], &[1.0, 2.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = AccuracyReport::score(&[Some(1.0)], &[]);
    }
}
