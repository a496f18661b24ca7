//! Shared plumbing for the history-aware voters.

use super::Verdict;
use crate::agreement::{AgreementMatrix, AgreementParams};
use crate::error::VoteError;
use crate::history::HistoryStore;
use crate::round::{ModuleId, Round};
use crate::value::Value;

/// Tolerance used when comparing a history value against the mean: a module
/// exactly *at* the average is not "below average".
const ELIMINATION_EPS: f64 = 1e-9;

/// Reusable per-voter scratch buffers for the fusion hot path.
///
/// Every buffer is cleared and refilled each round; once the candidate count
/// stops growing, no call that writes only into a `Scratch` touches the
/// allocator again.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// Numeric candidates of the current round.
    pub cand: Vec<(ModuleId, f64)>,
    /// Candidate values, aligned with `cand`.
    pub values: Vec<f64>,
    /// Per-candidate history records, aligned with `cand`.
    pub histories: Vec<f64>,
    /// Module-Elimination inclusion mask, aligned with `cand`.
    pub mask: Vec<bool>,
    /// Per-candidate vote weights, aligned with `cand`.
    pub weights: Vec<f64>,
    /// Per-candidate agreement scores driving history updates.
    pub scores: Vec<f64>,
    /// Pairwise agreement matrix, rebuilt in place each round.
    pub matrix: AgreementMatrix,
}

impl Scratch {
    /// Loads a round's numeric candidates into `cand` and their values into
    /// `values`, failing on an entirely missing round.
    pub fn load_candidates(&mut self, round: &Round) -> Result<(), VoteError> {
        round.numeric_candidates_into(&mut self.cand)?;
        if self.cand.is_empty() {
            return Err(VoteError::EmptyRound);
        }
        self.values.clear();
        self.values.extend(self.cand.iter().map(|(_, v)| *v));
        Ok(())
    }
}

/// Fetches (initialising when absent) the history of each candidate module
/// into a reusable buffer (cleared first).
pub(crate) fn fetch_histories_into<S: HistoryStore>(
    store: &mut S,
    cand: &[(ModuleId, f64)],
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend(cand.iter().map(|(m, _)| store.get_or_init(*m)));
}

/// The Module-Elimination inclusion mask into a reusable buffer (cleared
/// first): a candidate participates when its history is not strictly below
/// the average history of this round's candidates.
pub(crate) fn elimination_mask_into(histories: &[f64], out: &mut Vec<bool>) {
    out.clear();
    if histories.is_empty() {
        return;
    }
    let mean = histories.iter().sum::<f64>() / histories.len() as f64;
    out.extend(histories.iter().map(|&h| h >= mean - ELIMINATION_EPS));
}

/// Writes updated history records: `h ← update(h, score)` for each candidate.
pub(crate) fn apply_updates<S: HistoryStore>(
    store: &mut S,
    update: crate::history::HistoryUpdate,
    cand: &[(ModuleId, f64)],
    histories: &[f64],
    scores: &[f64],
) {
    for (((m, _), &h), &s) in cand.iter().zip(histories).zip(scores) {
        store.set(*m, update.apply(h, s));
    }
}

/// Fraction of total vote weight whose candidate value binary-agrees with
/// the output — the uniform confidence measure reported in verdicts.
pub(crate) fn weighted_confidence(
    params: &AgreementParams,
    cand: &[(ModuleId, f64)],
    weights: &[f64],
    output: f64,
) -> f64 {
    let total: f64 = weights.iter().filter(|w| **w > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let agreeing: f64 = cand
        .iter()
        .zip(weights)
        .filter(|(_, &w)| w > 0.0)
        .map(|((_, v), &w)| w * params.binary_score(*v, output))
        .sum();
    agreeing / total
}

/// Writes a numeric verdict into `out`, reusing its `weights`/`excluded`
/// buffers — the common tail of every scratch-based [`super::Voter::vote_into`].
pub(crate) fn fill_verdict(
    out: &mut Verdict,
    cand: &[(ModuleId, f64)],
    weights: &[f64],
    output: f64,
    confidence: f64,
    bootstrapped: bool,
) {
    out.value = Value::Number(output);
    out.weights.clear();
    out.weights
        .extend(cand.iter().zip(weights).map(|((m, _), &w)| (*m, w)));
    out.excluded.clear();
    out.excluded.extend(
        cand.iter()
            .zip(weights)
            .filter(|(_, &w)| w <= 0.0)
            .map(|((m, _), _)| *m),
    );
    out.confidence = confidence;
    out.bootstrapped = bootstrapped;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{HistoryUpdate, MemoryHistory};

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn mask(histories: &[f64]) -> Vec<bool> {
        let mut mask = Vec::new();
        elimination_mask_into(histories, &mut mask);
        mask
    }

    #[test]
    fn candidates_rejects_all_missing() {
        let round = Round::from_sparse_numbers(0, &[None, None]);
        let mut scratch = Scratch::default();
        assert!(matches!(
            scratch.load_candidates(&round),
            Err(VoteError::EmptyRound)
        ));
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
    fn fetch_initialises_unknown_modules() {
        let mut store = MemoryHistory::new();
        let cand = vec![(m(0), 1.0), (m(5), 2.0)];
        let mut hs = vec![0.5; 4];
        fetch_histories_into(&mut store, &cand, &mut hs);
        assert_eq!(hs, vec![1.0, 1.0]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn apply_updates_moves_records() {
        let mut store = MemoryHistory::new();
        let cand = vec![(m(0), 10.0), (m(1), 20.0)];
        let mut hs = Vec::new();
        fetch_histories_into(&mut store, &cand, &mut hs);
        apply_updates(
            &mut store,
            HistoryUpdate::default(),
            &cand,
            &hs,
            &[1.0, 0.0],
        );
        assert_eq!(store.get(m(0)), Some(1.0)); // clamped at 1
        assert!((store.get(m(1)).unwrap() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn confidence_counts_agreeing_weight() {
        let params = AgreementParams::paper_default();
        let cand = vec![(m(0), 100.0), (m(1), 101.0), (m(2), 200.0)];
        let conf = weighted_confidence(&params, &cand, &[1.0, 1.0, 1.0], 100.5);
        assert!((conf - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn confidence_zero_weights() {
        let params = AgreementParams::paper_default();
        assert_eq!(weighted_confidence(&params, &[], &[], 0.0), 0.0);
    }

    #[test]
    fn excluded_modules_lists_zero_weight() {
        let cand = vec![(m(0), 1.0), (m(1), 2.0), (m(2), 3.0)];
        let mut out = Verdict::empty();
        fill_verdict(&mut out, &cand, &[1.0, 0.0, 0.5], 1.5, 1.0, false);
        assert_eq!(out.excluded, vec![m(1)]);
    }
}
