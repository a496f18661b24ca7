//! Maximum Likelihood Voting (Leung, 1995 — reference [20] of the paper).
//!
//! The paper's §6 limitation: "VDX currently cannot define algorithms that
//! use parameters for the candidate values, e.g., MLV". This module
//! implements MLV anyway — as a library voter outside the VDX factory — so
//! the boundary of the specification is demonstrated against working code.
//!
//! MLV treats each module as a noisy channel with reliability `p`: it
//! outputs the correct value with probability `p` and any of the other
//! `m − 1` values of a finite output space uniformly otherwise. Given one
//! round of candidates, the winning value is the one maximising the joint
//! likelihood. Reliabilities are learned online from the module's history
//! record, which is exactly the per-candidate parameterisation VDX cannot
//! express.

use super::common;
use super::{Verdict, Voter, VoterConfig};
use crate::collation::collate;
use crate::error::VoteError;
use crate::history::{HistoryStore, MemoryHistory};
use crate::round::{ModuleId, Round};

/// Maximum-likelihood voter over (agreement-grouped) numeric candidates.
///
/// Candidates are partitioned into agreement groups (the finite output
/// space of the round); the group maximising `Σ log` likelihood wins, and
/// the output is collated within it. Module reliabilities are the history
/// records clamped away from 0/1 so the log-likelihood stays finite.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{MlvVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = MlvVoter::with_defaults();
/// // Round 1: 20.4 disagrees; its reliability estimate decays.
/// voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 17.9, 20.4]))?;
/// // A 2-2 split: the camp containing the distrusted module loses.
/// let verdict = voter.vote(&Round::from_numbers(1, &[18.0, 18.1, 20.4, 20.5]))?;
/// assert!(verdict.number().unwrap() < 19.0);
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MlvVoter<S: HistoryStore = MemoryHistory> {
    config: VoterConfig,
    store: S,
    scratch: common::Scratch,
}

/// Reliability clamp: keeps `log(p)` and `log(1-p)` finite.
const P_FLOOR: f64 = 0.05;
const P_CEIL: f64 = 0.95;

impl MlvVoter<MemoryHistory> {
    /// Creates an MLV voter with default configuration and in-memory
    /// history.
    pub fn with_defaults() -> Self {
        Self::new(VoterConfig::default(), MemoryHistory::new())
    }
}

impl<S: HistoryStore> MlvVoter<S> {
    /// Creates an MLV voter over the given history store.
    pub fn new(config: VoterConfig, store: S) -> Self {
        MlvVoter {
            config,
            store,
            scratch: common::Scratch::default(),
        }
    }

    /// The voter's configuration.
    pub fn config(&self) -> &VoterConfig {
        &self.config
    }
}

impl<S: HistoryStore + Send> Voter for MlvVoter<S> {
    fn name(&self) -> &'static str {
        "maximum-likelihood"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        let s = &mut self.scratch;
        s.load_candidates(round)?;
        common::fetch_histories_into(&mut self.store, &s.cand, &mut s.histories);
        let reliability = |h: f64| h.clamp(P_FLOOR, P_CEIL);

        // The round's finite output space: agreement groups.
        let clustering = self.config.agreement.clusterer().cluster(&s.values);
        let groups = clustering.clusters();
        let m = groups.len().max(2) as f64; // ≥ 2 so (1-p)/(m-1) is defined

        // Log-likelihood of "group g holds the correct value".
        let mut best: Option<(usize, f64)> = None;
        for (gi, g) in groups.iter().enumerate() {
            let mut ll = 0.0;
            for (i, &h) in s.histories.iter().enumerate() {
                let p = reliability(h);
                let in_group = g.members().contains(&i);
                ll += if in_group {
                    p.ln()
                } else {
                    ((1.0 - p) / (m - 1.0)).ln()
                };
            }
            match best {
                Some((_, best_ll)) if ll <= best_ll => {}
                _ => best = Some((gi, ll)),
            }
        }
        let (winner_idx, _) = best.expect("non-empty round has groups");
        let winner = &groups[winner_idx];

        // Winners vote with their reliability and are rewarded; everyone
        // else carries no weight and is penalised.
        s.weights.clear();
        s.scores.clear();
        for (i, &h) in s.histories.iter().enumerate() {
            let won = winner.members().contains(&i);
            s.weights.push(if won { reliability(h) } else { 0.0 });
            s.scores.push(if won { 1.0 } else { 0.0 });
        }
        let output =
            collate(self.config.collation, &s.values, &s.weights).unwrap_or_else(|| winner.mean());
        common::apply_updates(
            &mut self.store,
            self.config.update,
            &s.cand,
            &s.histories,
            &s.scores,
        );

        let confidence =
            common::weighted_confidence(&self.config.agreement, &s.cand, &s.weights, output);
        common::fill_verdict(out, &s.cand, &s.weights, output, confidence, false);
        Ok(())
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

    #[test]
    fn majority_group_wins_with_equal_reliabilities() {
        let mut v = MlvVoter::with_defaults();
        let verdict = v
            .vote(&Round::from_numbers(0, &[18.0, 18.1, 17.95, 25.0]))
            .unwrap();
        assert!(verdict.number().unwrap() < 19.0);
        assert_eq!(verdict.excluded, vec![m(3)]);
    }

    #[test]
    fn learned_reliability_overrules_a_raw_majority() {
        let mut v = MlvVoter::with_defaults();
        // Modules 3 and 4 disagree repeatedly → low reliability.
        for r in 0..5 {
            v.vote(&Round::from_numbers(r, &[18.0, 18.1, 17.95, 24.0, 24.1]))
                .unwrap();
        }
        let hs = v.histories();
        assert!(hs[3].1 < hs[0].1);
        // Module 2 defects to the bad camp: raw counts now say 3-vs-2 for
        // the 24-camp, but two of its three members are distrusted, so the
        // likelihood still favours the trusted pair.
        let verdict = v
            .vote(&Round::from_numbers(9, &[18.0, 18.1, 24.02, 24.0, 24.1]))
            .unwrap();
        assert!(
            verdict.number().unwrap() < 19.0,
            "trusted minority must win, got {:?}",
            verdict.number()
        );
    }

    #[test]
    fn reliability_flips_the_vote_against_a_raw_majority() {
        // Three notorious disagreers vs two trustworthy modules: MLV picks
        // the *minority* — exactly the candidate-parameterised behaviour
        // VDX cannot express.
        let store = MemoryHistory::with_records([
            (m(0), 0.95),
            (m(1), 0.95),
            (m(2), 0.05),
            (m(3), 0.05),
            (m(4), 0.05),
        ]);
        let mut v = MlvVoter::new(VoterConfig::default(), store);
        let verdict = v
            .vote(&Round::from_numbers(0, &[18.0, 18.1, 30.0, 30.1, 30.05]))
            .unwrap();
        assert!(
            verdict.number().unwrap() < 19.0,
            "high-reliability minority must win, got {:?}",
            verdict.number()
        );
    }

    #[test]
    fn single_candidate_wins() {
        let mut v = MlvVoter::with_defaults();
        let verdict = v.vote(&Round::from_numbers(0, &[42.0])).unwrap();
        assert_eq!(verdict.number(), Some(42.0));
    }

    #[test]
    fn empty_round_errors() {
        let mut v = MlvVoter::with_defaults();
        assert!(matches!(
            v.vote(&Round::from_sparse_numbers(0, &[None])),
            Err(VoteError::EmptyRound)
        ));
    }

    #[test]
    fn reliabilities_stay_clamped_in_likelihood() {
        // Zero history must not produce -inf likelihoods / NaN outputs.
        let store = MemoryHistory::with_records([(m(0), 0.0), (m(1), 0.0)]);
        let mut v = MlvVoter::new(VoterConfig::default(), store);
        let verdict = v.vote(&Round::from_numbers(0, &[10.0, 10.1])).unwrap();
        assert!(verdict.number().unwrap().is_finite());
    }

    #[test]
    fn statefulness_and_reset() {
        let mut v = MlvVoter::with_defaults();
        assert!(v.is_stateful());
        v.vote(&Round::from_numbers(0, &[1.0, 1.0])).unwrap();
        assert_eq!(v.histories().len(), 2);
        v.reset();
        assert!(v.histories().is_empty());
    }
}
