//! Stack-discrimination ambiguity — the UC-2 comparison criterion.
//!
//! "In order to determine the best results, we study the number of rounds
//! while it is ambiguous which stack of sensors is closest to the robot at
//! any given time" (§7). Given the per-round fused RSSI of stack A and
//! stack B, a round is *ambiguous* when the two outputs are within a margin
//! of each other (no confident winner), and *misclassified* when the
//! confident winner contradicts the ground truth.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-run ambiguity metrics for a two-stack discrimination task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmbiguityReport {
    /// Rounds where either output was missing.
    pub missing: usize,
    /// Rounds with both outputs present but within the margin — no winner.
    pub ambiguous: usize,
    /// Confident rounds whose winner contradicts ground truth.
    pub misclassified: usize,
    /// Confident, correct rounds.
    pub correct: usize,
}

impl AmbiguityReport {
    /// Evaluates fused outputs for stack A and stack B against ground
    /// truth. `truth_a_closer[r]` is `true` when stack A is genuinely the
    /// closer stack in round `r`; `margin` is the dB gap below which the
    /// round counts as ambiguous.
    ///
    /// # Panics
    ///
    /// Panics when the three slices differ in length or `margin` is
    /// negative.
    pub fn evaluate(
        stack_a: &[Option<f64>],
        stack_b: &[Option<f64>],
        truth_a_closer: &[bool],
        margin: f64,
    ) -> Self {
        assert_eq!(stack_a.len(), stack_b.len(), "series length mismatch");
        assert_eq!(stack_a.len(), truth_a_closer.len(), "truth length mismatch");
        assert!(margin >= 0.0, "margin must be non-negative");
        let mut report = AmbiguityReport {
            missing: 0,
            ambiguous: 0,
            misclassified: 0,
            correct: 0,
        };
        for ((a, b), &truth_a) in stack_a.iter().zip(stack_b).zip(truth_a_closer) {
            match (a, b) {
                (Some(a), Some(b)) => {
                    if (a - b).abs() <= margin {
                        report.ambiguous += 1;
                    } else if (a > b) == truth_a {
                        // Stronger RSSI ⇒ closer stack.
                        report.correct += 1;
                    } else {
                        report.misclassified += 1;
                    }
                }
                _ => report.missing += 1,
            }
        }
        report
    }

    /// Total rounds evaluated.
    fn total(&self) -> usize {
        self.missing + self.ambiguous + self.misclassified + self.correct
    }

    /// Fraction of rounds with a confident, correct winner.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.correct as f64 / t as f64
        }
    }
}

impl fmt::Display for AmbiguityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds: {} correct, {} ambiguous, {} misclassified, {} missing ({:.1}% accuracy)",
            self.total(),
            self.correct,
            self.ambiguous,
            self.misclassified,
            self.missing,
            self.accuracy() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_each_round() {
        let a = [Some(-60.0), Some(-80.0), Some(-70.0), None];
        let b = [Some(-80.0), Some(-60.0), Some(-69.0), Some(-50.0)];
        let truth = [true, false, true, false];
        let r = AmbiguityReport::evaluate(&a, &b, &truth, 3.0);
        // round 0: A louder, truth A → correct
        // round 1: B louder, truth B → correct
        // round 2: |Δ| = 1 ≤ 3 → ambiguous
        // round 3: A missing → missing
        assert_eq!(r.correct, 2);
        assert_eq!(r.ambiguous, 1);
        assert_eq!(r.missing, 1);
        assert_eq!(r.misclassified, 0);
        assert_eq!(r.total(), 4);
    }

    #[test]
    fn misclassification_detected() {
        let a = [Some(-90.0)];
        let b = [Some(-60.0)];
        let truth = [true]; // A is closer but B is much louder
        let r = AmbiguityReport::evaluate(&a, &b, &truth, 2.0);
        assert_eq!(r.misclassified, 1);
        assert_eq!(r.accuracy(), 0.0);
    }

    #[test]
    fn rates() {
        let r = AmbiguityReport {
            missing: 1,
            ambiguous: 2,
            misclassified: 1,
            correct: 6,
        };
        assert_eq!(r.total(), 10);
        assert!((r.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let r = AmbiguityReport::evaluate(&[], &[], &[], 1.0);
        assert_eq!(r.total(), 0);
        assert_eq!(r.accuracy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = AmbiguityReport::evaluate(&[Some(1.0)], &[], &[true], 1.0);
    }

    #[test]
    fn zero_margin_never_ambiguous_unless_equal() {
        let a = [Some(-60.0), Some(-70.0)];
        let b = [Some(-60.0), Some(-71.0)];
        let truth = [true, true];
        let r = AmbiguityReport::evaluate(&a, &b, &truth, 0.0);
        assert_eq!(r.ambiguous, 1);
        assert_eq!(r.correct, 1);
    }
}
