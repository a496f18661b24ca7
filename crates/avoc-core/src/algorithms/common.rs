//! Shared plumbing for the history-aware voters.

use super::Verdict;
use crate::round::ModuleId;
use crate::value::Value;

/// Tolerance used when comparing a history value against the mean: a module
/// exactly *at* the average is not "below average".
const ELIMINATION_EPS: f64 = 1e-9;

/// The Module-Elimination inclusion mask into a reusable buffer (cleared
/// first): a candidate participates when its history is not strictly below
/// the average history of this round's candidates.
pub(crate) fn elimination_mask_into(histories: &[f64], out: &mut Vec<bool>) {
    out.clear();
    if histories.is_empty() {
        return;
    }
    let sum = histories.iter().sum::<f64>();
    let threshold = elimination_threshold(sum, histories.len());
    out.extend(histories.iter().map(|&h| h >= threshold));
}

/// The lowest history that survives elimination among `count` (at least
/// one) histories summing to `sum`: their average, less a tolerance.
pub(crate) fn elimination_threshold(sum: f64, count: usize) -> f64 {
    sum / count as f64 - ELIMINATION_EPS
}

/// Writes a numeric verdict into `out`, reusing its `weights`/`excluded`
/// buffers — the common tail of every scratch-based [`super::Voter::vote_into`].
/// Candidate `i` is `modules[i]`, weighing `weights[i]`.
#[inline]
pub(crate) fn fill_verdict(
    out: &mut Verdict,
    modules: &[ModuleId],
    weights: &[f64],
    output: f64,
    confidence: f64,
    bootstrapped: bool,
) {
    out.value = Value::Number(output);
    out.weights.clear();
    out.weights
        .extend(modules.iter().copied().zip(weights.iter().copied()));
    out.excluded.clear();
    out.excluded.extend(
        modules
            .iter()
            .zip(weights)
            .filter(|&(_, &w)| w <= 0.0)
            .map(|(&m, _)| m),
    );
    out.confidence = confidence;
    out.bootstrapped = bootstrapped;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn mask(histories: &[f64]) -> Vec<bool> {
        let mut mask = Vec::new();
        elimination_mask_into(histories, &mut mask);
        mask
    }

    #[test]
    fn elimination_mask_drops_below_average_only() {
        // mean = 0.7; 0.4 is below, 0.7 and 1.0 are not.
        assert_eq!(mask(&[1.0, 0.7, 0.4]), vec![true, true, false]);
    }

    #[test]
    fn elimination_mask_keeps_everyone_when_flat() {
        assert_eq!(mask(&[0.8, 0.8, 0.8]), vec![true, true, true]);
        assert_eq!(mask(&[0.0, 0.0]), vec![true, true]);
    }

    #[test]
    fn excluded_modules_lists_zero_weight() {
        let mut out = Verdict::empty();
        fill_verdict(
            &mut out,
            &[m(0), m(1), m(2)],
            &[1.0, 0.0, 0.5],
            1.5,
            1.0,
            false,
        );
        assert_eq!(out.weights, vec![(m(0), 1.0), (m(1), 0.0), (m(2), 0.5)]);
        assert_eq!(out.excluded, vec![m(1)]);
    }
}
