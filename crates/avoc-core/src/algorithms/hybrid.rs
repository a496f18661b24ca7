//! Hybrid History-Based Weighted Average
//! (Alahmadi & Soh, 2012 — reference [7] of the paper).
//!
//! Combines Module-Elimination and Soft-Dynamic-Threshold "while utilising
//! agreement-based and not history-based weights" (§4): history records are
//! maintained (with graded agreement) solely to *eliminate* below-average
//! modules, while the surviving candidates are weighted by their soft
//! agreement with one another in the current round. The output is chosen by
//! mean-nearest-neighbour — "a winning value rather than ... the resulting
//! average".

use super::common;
use super::{Verdict, Voter, VoterConfig};
use crate::collation::{collate, Collation};
use crate::error::VoteError;
use crate::history::{HistoryStore, MemoryHistory};
use crate::round::{ModuleId, Round};

/// Hybrid voter: ME elimination + Sdt agreement + agreement-based weights.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{HybridVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = HybridVoter::with_defaults();
/// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.2, 18.1]))?;
/// // Mean-nearest-neighbour: the output is one of the submitted values.
/// assert_eq!(verdict.number(), Some(18.1));
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HybridVoter<S: HistoryStore = MemoryHistory> {
    config: VoterConfig,
    store: S,
    scratch: common::Scratch,
}

impl HybridVoter<MemoryHistory> {
    /// Creates a Hybrid voter with the paper's defaults (mean-nearest-
    /// neighbour collation) and in-memory history.
    pub fn with_defaults() -> Self {
        Self::new(
            VoterConfig::default().with_collation(Collation::MeanNearestNeighbor),
            MemoryHistory::new(),
        )
    }
}

impl<S: HistoryStore> HybridVoter<S> {
    /// Creates a Hybrid voter over the given history store.
    pub fn new(config: VoterConfig, store: S) -> Self {
        HybridVoter {
            config,
            store,
            scratch: common::Scratch::default(),
        }
    }

    /// The voter's configuration.
    pub fn config(&self) -> &VoterConfig {
        &self.config
    }

    /// Borrows the underlying history store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutably borrows the underlying history store (used by
    /// [`super::AvocVoter`] to seed records from cluster membership).
    pub(crate) fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Runs one Hybrid round into `out`, reusing the voter's scratch
    /// buffers. Shared with [`super::AvocVoter`], which layers the
    /// clustering bootstrap on top.
    pub(crate) fn vote_inner_into(
        &mut self,
        round: &Round,
        out: &mut Verdict,
    ) -> Result<(), VoteError>
    where
        S: Send,
    {
        common::candidates_into(round, &mut self.scratch.cand)?;
        self.scratch.values.clear();
        self.scratch
            .values
            .extend(self.scratch.cand.iter().map(|(_, v)| *v));
        let n = self.scratch.values.len();

        // §5: "history-based algorithms typically fall back to standard
        // average (or a similar unweighted approach) on the first round
        // until a historical record is established" — no stored record for
        // any candidate means no evidence exists to weight or eliminate by.
        // This is the startup spike AVOC's clustering bootstrap removes.
        let store = &self.store;
        let flat_at_initial = self
            .scratch
            .cand
            .iter()
            .all(|(m, _)| store.get(*m).is_none());
        common::fetch_histories_into(
            &mut self.store,
            &self.scratch.cand,
            &mut self.scratch.histories,
        );

        self.scratch.weights.clear();
        if flat_at_initial {
            self.scratch.weights.resize(n, 1.0);
        } else {
            // ME step: below-average records are eliminated from the round.
            common::elimination_mask_into(&self.scratch.histories, &mut self.scratch.mask);

            // Agreement-based weights among the survivors.
            self.scratch
                .matrix
                .soft_in_place(&self.config.agreement, &self.scratch.values);
            for i in 0..n {
                let w = if self.scratch.mask[i] {
                    self.scratch
                        .matrix
                        .peer_support_among(i, &self.scratch.mask)
                } else {
                    0.0
                };
                self.scratch.weights.push(w);
            }
            // A single surviving candidate has no peers to agree with.
            if self.scratch.mask.iter().filter(|&&k| k).count() == 1 {
                if let Some(i) = self.scratch.mask.iter().position(|&k| k) {
                    self.scratch.weights[i] = 1.0;
                }
            }
        }

        // The flat-history fallback is literally the "standard average":
        // the configured collation only applies once records exist.
        let collation = if flat_at_initial {
            Collation::WeightedMean
        } else {
            self.config.collation
        };
        let output = match collate(collation, &self.scratch.values, &self.scratch.weights) {
            Some(v) => v,
            // Everyone eliminated or in total disagreement: plain mean.
            None => self.scratch.values.iter().sum::<f64>() / n as f64,
        };

        // Graded agreement with the output drives the records (Sdt step) —
        // for every module, eliminated ones included, so they can recover.
        self.scratch.scores.clear();
        let agreement = self.config.agreement;
        self.scratch.scores.extend(
            self.scratch
                .values
                .iter()
                .map(|&v| agreement.soft_score(v, output)),
        );
        common::apply_updates(
            &mut self.store,
            self.config.update,
            &self.scratch.cand,
            &self.scratch.histories,
            &self.scratch.scores,
        );

        let confidence = common::weighted_confidence(
            &self.config.agreement,
            &self.scratch.cand,
            &self.scratch.weights,
            output,
        );
        common::fill_verdict(
            out,
            &self.scratch.cand,
            &self.scratch.weights,
            output,
            confidence,
            false,
        );
        Ok(())
    }
}

impl<S: HistoryStore + Send> Voter for HybridVoter<S> {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        self.vote_inner_into(round, out)
    }

    fn histories(&self) -> Vec<(ModuleId, f64)> {
        self.store.snapshot()
    }

    fn reset(&mut self) {
        self.store.clear();
    }

    fn seed_history(&mut self, records: &[(ModuleId, f64)]) {
        for &(m, v) in records {
            self.store.set(m, v);
        }
    }

    fn is_stateful(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn faulty_round(round: u64) -> Round {
        Round::from_numbers(round, &[18.0, 18.1, 17.9, 24.0, 18.05])
    }

    #[test]
    fn output_is_a_submitted_value_once_history_exists() {
        let mut v = HybridVoter::with_defaults();
        let round = Round::from_numbers(0, &[18.0, 18.4, 18.2, 17.9]);
        v.vote(&round).unwrap(); // round 0: standard-average fallback
        let out = v
            .vote(&Round::from_numbers(1, &[18.0, 18.4, 18.2, 17.9]))
            .unwrap()
            .number()
            .unwrap();
        assert!([18.0, 18.4, 18.2, 17.9].contains(&out));
    }

    #[test]
    fn first_round_falls_back_to_standard_average() {
        // §5: with no historical record established, the Hybrid voter votes
        // a plain average — this is the startup spike of Fig. 6-f.
        let mut v = HybridVoter::with_defaults();
        let verdict = v.vote(&faulty_round(0)).unwrap();
        let plain_mean = (18.0 + 18.1 + 17.9 + 24.0 + 18.05) / 5.0;
        assert!((verdict.number().unwrap() - plain_mean).abs() < 1e-9);
        assert!(verdict.excluded.is_empty());
    }

    #[test]
    fn outlier_has_zero_agreement_weight_from_round_two() {
        let mut v = HybridVoter::with_defaults();
        v.vote(&faulty_round(0)).unwrap();
        // Round 2: records exist; the +6 outlier is both history-eliminated
        // and agreement-isolated.
        let verdict = v.vote(&faulty_round(1)).unwrap();
        assert_eq!(verdict.weights[3].1, 0.0);
        assert!(verdict.excluded.contains(&m(3)));
        assert!((verdict.number().unwrap() - 18.05).abs() < 0.1);
    }

    #[test]
    fn faulty_module_eliminated_by_history_in_round_two() {
        let mut v = HybridVoter::with_defaults();
        v.vote(&faulty_round(0)).unwrap();
        let hs = v.histories();
        assert!(hs[3].1 < hs[0].1, "faulty record must decay first round");
        let r2 = v.vote(&faulty_round(1)).unwrap();
        assert!(r2.excluded.contains(&m(3)));
    }

    #[test]
    fn matches_pre_error_output_under_fault() {
        // The Fig. 6-e claim: Hybrid's faulty-run output is (nearly)
        // identical to its clean-run output — after the round-0 startup
        // spike, which is exactly what AVOC's bootstrap removes.
        let mut clean = HybridVoter::with_defaults();
        let mut faulty = HybridVoter::with_defaults();
        for r in 0..50 {
            let base = [18.0, 18.1, 17.9, 18.2, 18.05];
            let mut with_fault = base;
            with_fault[3] += 6.0;
            let c = clean
                .vote(&Round::from_numbers(r, &base))
                .unwrap()
                .number()
                .unwrap();
            let f = faulty
                .vote(&Round::from_numbers(r, &with_fault))
                .unwrap()
                .number()
                .unwrap();
            if r == 0 {
                assert!((c - f).abs() > 1.0, "round 0 must show the spike");
            } else {
                assert!((c - f).abs() < 0.25, "round {r}: clean {c} vs faulty {f}");
            }
        }
    }

    #[test]
    fn single_survivor_wins() {
        // Histories: module 1 far below average → eliminated; module 0 the
        // only survivor.
        let store = MemoryHistory::with_records([(m(0), 1.0), (m(1), 0.1)]);
        let cfg = VoterConfig::default().with_collation(Collation::MeanNearestNeighbor);
        let mut v = HybridVoter::new(cfg, store);
        let verdict = v.vote(&Round::from_numbers(0, &[18.0, 99.0])).unwrap();
        assert_eq!(verdict.number(), Some(18.0));
    }

    #[test]
    fn everyone_eliminated_falls_back_to_plain_mean() {
        // Total mutual disagreement with flat histories: all weights 0.
        let mut v = HybridVoter::with_defaults();
        let verdict = v
            .vote(&Round::from_numbers(0, &[0.0, 100.0, 500.0]))
            .unwrap();
        assert_eq!(verdict.number(), Some(200.0));
    }

    #[test]
    fn weighted_mean_collation_is_supported_too() {
        let cfg = VoterConfig::default().with_collation(Collation::WeightedMean);
        let mut v = HybridVoter::new(cfg, MemoryHistory::new());
        let out = v
            .vote(&Round::from_numbers(0, &[18.0, 18.2]))
            .unwrap()
            .number()
            .unwrap();
        assert!((out - 18.1).abs() < 1e-9);
    }

    #[test]
    fn histories_snapshot_reset() {
        let mut v = HybridVoter::with_defaults();
        assert!(v.is_stateful());
        v.vote(&faulty_round(0)).unwrap();
        assert_eq!(v.histories().len(), 5);
        v.reset();
        assert!(v.histories().is_empty());
    }
}
