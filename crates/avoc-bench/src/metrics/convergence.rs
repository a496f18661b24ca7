//! Convergence metrics — the UC-1 comparison criteria.
//!
//! The paper compares algorithms by "(a) voting rounds required to converge
//! back to the baseline, and by extension how quickly outliers are
//! eliminated; and (b) how far the new stable value is from the original",
//! and headlines AVOC "boost\[ing\] the convergence of the measurements by
//! 4×".

use super::series::diff_series;
use std::fmt;

/// First round index from which the series stays within `epsilon` of
/// `target` for at least `sustain` consecutive non-missing samples.
///
/// Returns `None` when the series never converges. Missing samples inside a
/// sustained window are skipped (they neither confirm nor break the streak).
///
/// # Example
///
/// ```
/// use avoc_bench::metrics::rounds_to_converge;
///
/// let series = [Some(5.0), Some(3.0), Some(1.1), Some(0.9), Some(1.0)];
/// assert_eq!(rounds_to_converge(&series, 1.0, 0.2, 2), Some(2));
/// ```
pub fn rounds_to_converge(
    series: &[Option<f64>],
    target: f64,
    epsilon: f64,
    sustain: usize,
) -> Option<usize> {
    let sustain = sustain.max(1);
    let mut streak = 0usize;
    let mut streak_start = 0usize;
    for (i, v) in series.iter().enumerate() {
        match v {
            None => continue,
            Some(v) if (v - target).abs() <= epsilon => {
                if streak == 0 {
                    streak_start = i;
                }
                streak += 1;
                if streak >= sustain {
                    return Some(streak_start);
                }
            }
            Some(_) => streak = 0,
        }
    }
    None
}

/// The stable value of a series: the mean of its last `tail_fraction`
/// (e.g. `0.1` = final 10%). Returns `None` when that tail holds no samples.
pub fn stable_value(series: &[Option<f64>], tail_fraction: f64) -> Option<f64> {
    let tail_fraction = tail_fraction.clamp(0.0, 1.0);
    let start = ((series.len() as f64) * (1.0 - tail_fraction)) as usize;
    let xs: Vec<f64> = series[start.min(series.len())..]
        .iter()
        .flatten()
        .copied()
        .collect();
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// A complete UC-1-style convergence comparison of one algorithm's faulty
/// run against its clean run.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Algorithm label.
    pub algorithm: String,
    /// Metric (a): rounds until the faulty output returns to the clean
    /// output (within `epsilon`, sustained); `None` = never converged.
    pub rounds_to_converge: Option<usize>,
    /// Metric (b): |stable faulty value − stable clean value|.
    pub stable_deviation: f64,
    /// Peak |faulty − clean| over the run — the startup spike of Fig. 6-f.
    pub peak_deviation: f64,
    /// The epsilon band used.
    pub epsilon: f64,
}

impl ConvergenceReport {
    /// Builds the report from a clean-run output series and a faulty-run
    /// output series.
    ///
    /// Convergence is measured on the *pointwise difference* of the two
    /// series (the Fig. 6-e signal) returning to the ±`epsilon` band and
    /// staying there for `sustain` rounds.
    ///
    /// # Panics
    ///
    /// Panics when the series lengths differ.
    fn compare(
        algorithm: impl Into<String>,
        clean: &[Option<f64>],
        faulty: &[Option<f64>],
        epsilon: f64,
        sustain: usize,
    ) -> Self {
        let diff = diff_series(faulty, clean);
        let rounds = rounds_to_converge(&diff, 0.0, epsilon, sustain);
        let stable_clean = stable_value(clean, 0.1).unwrap_or(0.0);
        let stable_faulty = stable_value(faulty, 0.1).unwrap_or(0.0);
        let peak = diff
            .iter()
            .flatten()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max);
        ConvergenceReport {
            algorithm: algorithm.into(),
            rounds_to_converge: rounds,
            stable_deviation: (stable_faulty - stable_clean).abs(),
            peak_deviation: peak,
            epsilon,
        }
    }

    /// Builds the report from a clean-run output series and a faulty-run
    /// output series. Convergence is measured on a *moving average of the
    /// absolute* pointwise difference (the Fig. 6-e signal) returning to the
    /// ±`epsilon` band and staying there for `sustain` rounds.
    ///
    /// Selection collations (mean-nearest-neighbour) emit genuine sensor
    /// readings, so the faulty-vs-clean difference jitters between real
    /// values even in steady state; smoothing `|Δ|` with `window` (e.g. one
    /// second of rounds) recovers the paper's "converged back to the
    /// baseline" reading. Smoothing the absolute value — rather than the
    /// signed signal — keeps a startup spike from being cancelled by
    /// negative settling inside the same window. Peak/stable deviations
    /// still report the raw signal.
    ///
    /// # Panics
    ///
    /// Panics when the series lengths differ or `window == 0`.
    pub fn compare_smoothed(
        algorithm: impl Into<String>,
        clean: &[Option<f64>],
        faulty: &[Option<f64>],
        epsilon: f64,
        sustain: usize,
        window: usize,
    ) -> Self {
        let raw = Self::compare(algorithm, clean, faulty, epsilon, sustain);
        let abs_diff: Vec<Option<f64>> = diff_series(faulty, clean)
            .into_iter()
            .map(|v| v.map(f64::abs))
            .collect();
        let smoothed = super::series::moving_average(&abs_diff, window);
        ConvergenceReport {
            rounds_to_converge: rounds_to_converge(&smoothed, 0.0, epsilon, sustain),
            ..raw
        }
    }
}

impl fmt::Display for ConvergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rounds_to_converge {
            Some(r) => write!(
                f,
                "{}: converged at round {} (±{}), stable dev {:.4}, peak {:.4}",
                self.algorithm, r, self.epsilon, self.stable_deviation, self.peak_deviation
            ),
            None => write!(
                f,
                "{}: never converged (±{}), stable dev {:.4}, peak {:.4}",
                self.algorithm, self.epsilon, self.stable_deviation, self.peak_deviation
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(xs: &[f64]) -> Vec<Option<f64>> {
        xs.iter().map(|&x| Some(x)).collect()
    }

    #[test]
    fn converges_at_first_sustained_round() {
        let s = dense(&[5.0, 3.0, 1.0, 0.9, 1.1, 1.0]);
        assert_eq!(rounds_to_converge(&s, 1.0, 0.2, 3), Some(2));
    }

    #[test]
    fn sustain_rejects_transient_touches() {
        let s = dense(&[1.0, 5.0, 1.0, 5.0, 1.0, 1.0, 1.0]);
        assert_eq!(rounds_to_converge(&s, 1.0, 0.1, 3), Some(4));
    }

    #[test]
    fn never_converging_is_none() {
        let s = dense(&[5.0; 20]);
        assert_eq!(rounds_to_converge(&s, 0.0, 0.1, 2), None);
    }

    #[test]
    fn gaps_do_not_break_streaks() {
        let s = vec![Some(9.0), Some(1.0), None, Some(1.0), Some(1.0)];
        assert_eq!(rounds_to_converge(&s, 1.0, 0.1, 3), Some(1));
    }

    #[test]
    fn immediate_convergence_is_round_zero() {
        let s = dense(&[1.0, 1.0, 1.0]);
        assert_eq!(rounds_to_converge(&s, 1.0, 0.1, 2), Some(0));
    }

    #[test]
    fn stable_value_uses_the_tail() {
        let mut xs = vec![Some(0.0); 90];
        xs.extend(vec![Some(10.0); 10]);
        assert_eq!(stable_value(&xs, 0.1), Some(10.0));
        assert_eq!(stable_value(&[], 0.1), None);
    }

    #[test]
    fn report_compares_clean_and_faulty() {
        let clean = dense(&[18.0; 10]);
        let mut faulty_vals = vec![19.2, 19.0, 18.6, 18.3];
        faulty_vals.extend([18.0; 6]);
        let faulty = dense(&faulty_vals);
        let rep = ConvergenceReport::compare("standard", &clean, &faulty, 0.05, 3);
        assert_eq!(rep.rounds_to_converge, Some(4));
        assert!((rep.peak_deviation - 1.2).abs() < 1e-12);
        assert!(rep.stable_deviation < 1e-9);
    }

    #[test]
    fn smoothed_compare_ignores_selection_jitter() {
        // Steady state: small deviations with an occasional 0.5 jump (MNN
        // picking a different sensor every few rounds) after an initial
        // spike. The raw comparison never sustains ε = 0.2; the smoothed
        // one converges once the startup spike leaves the window.
        let clean = dense(&[18.0; 60]);
        let faulty: Vec<Option<f64>> = (0..60)
            .map(|i| {
                if i == 0 {
                    Some(19.2)
                } else if i % 5 == 0 {
                    Some(18.5)
                } else {
                    Some(18.05)
                }
            })
            .collect();
        let raw = ConvergenceReport::compare("mnn", &clean, &faulty, 0.2, 8);
        assert_eq!(raw.rounds_to_converge, None);
        let smooth = ConvergenceReport::compare_smoothed("mnn", &clean, &faulty, 0.2, 8, 8);
        let converged = smooth.rounds_to_converge.expect("smoothed must converge");
        assert!(converged > 0, "spike must delay convergence past round 0");
        // Peak still reports the raw spike.
        assert!((smooth.peak_deviation - 1.2).abs() < 1e-9);
    }

    #[test]
    fn smoothing_does_not_let_settling_cancel_a_spike() {
        // A +1.2 spike followed by compensating negative settling: a signed
        // moving average would dip under ε at round 0; the absolute one
        // must not.
        let clean = dense(&[18.0; 30]);
        let mut vals = vec![19.2, 17.7, 17.7, 17.7, 17.7];
        vals.extend([18.0; 25]);
        let faulty = dense(&vals);
        let smooth = ConvergenceReport::compare_smoothed("hybrid", &clean, &faulty, 0.2, 4, 8);
        assert!(smooth.rounds_to_converge.expect("converges") > 0);
    }

    #[test]
    fn display_mentions_rounds() {
        let rep = ConvergenceReport {
            algorithm: "me".into(),
            rounds_to_converge: Some(2),
            stable_deviation: 0.2,
            peak_deviation: 1.0,
            epsilon: 0.05,
        };
        assert!(rep.to_string().contains("round 2"));
    }
}
