//! Shared plumbing for the history-aware voters.

use super::Verdict;
use crate::round::ModuleId;
use crate::value::Value;
use avoc_cluster::Clustering;

/// Tolerance used when comparing a history value against the mean: a module
/// exactly *at* the average is not "below average".
const ELIMINATION_EPS: f64 = 1e-9;

/// Reusable per-voter scratch buffers for the fusion hot path.
///
/// A round loads its candidates, each with its record, in one pass over the
/// ballots; every buffer is cleared and refilled each round. Once the
/// candidate count stops growing, no call that writes only into a `Scratch`
/// touches the allocator again.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// The current round's numeric candidates, in ballot order.
    pub cands: Vec<Candidate>,
    /// Their values alone, for the clustering bootstrap.
    pub values: Vec<f64>,
    /// `Median` collation's sort buffer.
    pub sorted: Vec<(f64, f64)>,
    /// The clustering bootstrap's groups, regrouped in place each round.
    pub clustering: Clustering,
}

/// One numeric candidate of the current round.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub module: ModuleId,
    pub value: f64,
    /// Its module's record as the round found it
    /// ([`crate::history::INITIAL_HISTORY`] when it had none).
    pub record: f64,
    /// Its vote weight.
    pub weight: f64,
}

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
#[inline]
pub(crate) fn fill_verdict(
    out: &mut Verdict,
    cands: &[Candidate],
    output: f64,
    confidence: f64,
    bootstrapped: bool,
) {
    out.value = Value::Number(output);
    out.weights.clear();
    out.weights
        .extend(cands.iter().map(|c| (c.module, c.weight)));
    out.excluded.clear();
    out.excluded
        .extend(cands.iter().filter(|c| c.weight <= 0.0).map(|c| c.module));
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
        let cands: Vec<Candidate> = [1.0, 0.0, 0.5]
            .into_iter()
            .enumerate()
            .map(|(i, weight)| Candidate {
                module: m(i as u32),
                value: 1.0,
                record: 1.0,
                weight,
            })
            .collect();
        let mut out = Verdict::empty();
        fill_verdict(&mut out, &cands, 1.5, 1.0, false);
        assert_eq!(out.weights, vec![(m(0), 1.0), (m(1), 0.0), (m(2), 0.5)]);
        assert_eq!(out.excluded, vec![m(1)]);
    }
}
