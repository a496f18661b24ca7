//! Stateless *weighted* averaging: weights come from each candidate's
//! agreement with its peers in the current round only. This is the
//! "weighted average without history" baseline that clustering-only voting
//! "significantly outperforms" in the paper's UC-1 discussion.

use super::common;
use super::{Verdict, Voter, VoterConfig};
use crate::collation::collate;
use crate::error::VoteError;
use crate::round::Round;

/// Stateless agreement-weighted voter.
///
/// Each candidate's weight is its total soft-agreement with the other
/// candidates of the same round ([`AgreementMatrix::peer_support`]); the
/// weighted candidates are then collated per the configured method.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{StatelessWeightedVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = StatelessWeightedVoter::new(Default::default());
/// // The 25.0 outlier agrees with nobody, so its weight is 0.
/// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.2, 18.1, 25.0]))?;
/// assert!((verdict.number().unwrap() - 18.1).abs() < 0.1);
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct StatelessWeightedVoter {
    config: VoterConfig,
    scratch: common::Scratch,
}

impl StatelessWeightedVoter {
    /// Creates a stateless weighted voter.
    pub fn new(config: VoterConfig) -> Self {
        StatelessWeightedVoter {
            config,
            scratch: common::Scratch::default(),
        }
    }

    /// The voter's configuration.
    pub fn config(&self) -> &VoterConfig {
        &self.config
    }
}

impl Voter for StatelessWeightedVoter {
    fn name(&self) -> &'static str {
        "stateless-weighted"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        self.scratch.load_candidates(round)?;
        self.scratch
            .matrix
            .soft_in_place(&self.config.agreement, &self.scratch.values);
        self.scratch.weights.clear();
        for i in 0..self.scratch.values.len() {
            self.scratch
                .weights
                .push(self.scratch.matrix.peer_support(i));
        }
        // A lone candidate has no peers: give it unit weight rather than
        // failing the round.
        if self.scratch.values.len() == 1 {
            self.scratch.weights[0] = 1.0;
        }
        let output = match collate(
            self.config.collation,
            &self.scratch.values,
            &self.scratch.weights,
        ) {
            Some(v) => v,
            // Total disagreement: every candidate is its own island. Fall
            // back to the plain mean, mirroring the paper's zero-weight rule.
            None => self.scratch.values.iter().sum::<f64>() / self.scratch.values.len() as f64,
        };
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlier_gets_zero_weight() {
        let mut v = StatelessWeightedVoter::new(Default::default());
        let verdict = v
            .vote(&Round::from_numbers(0, &[18.0, 18.2, 18.1, 25.0]))
            .unwrap();
        let outlier_weight = verdict.weights[3].1;
        assert_eq!(outlier_weight, 0.0);
        assert_eq!(verdict.excluded.len(), 1);
        // Output is unaffected by the outlier.
        assert!((verdict.number().unwrap() - 18.1).abs() < 0.1);
    }

    #[test]
    fn single_candidate_wins_outright() {
        let mut v = StatelessWeightedVoter::new(Default::default());
        let verdict = v.vote(&Round::from_numbers(0, &[42.0])).unwrap();
        assert_eq!(verdict.number(), Some(42.0));
        assert_eq!(verdict.confidence, 1.0);
    }

    #[test]
    fn total_disagreement_falls_back_to_mean() {
        let mut v = StatelessWeightedVoter::new(Default::default());
        let verdict = v
            .vote(&Round::from_numbers(0, &[0.0, 100.0, 200.0]))
            .unwrap();
        assert_eq!(verdict.number(), Some(100.0));
    }

    #[test]
    fn no_state_across_rounds() {
        let mut v = StatelessWeightedVoter::new(Default::default());
        // Round 1 has an outlier at module 0 ...
        let r1 = v
            .vote(&Round::from_numbers(0, &[30.0, 18.0, 18.1, 18.2]))
            .unwrap();
        assert!(r1.excluded.contains(&crate::ModuleId::new(0)));
        // ... but round 2's weights are unaffected by round 1.
        let r2 = v
            .vote(&Round::from_numbers(1, &[18.0, 18.1, 18.05, 18.2]))
            .unwrap();
        assert!(r2.excluded.is_empty());
        assert!(v.histories().is_empty());
    }

    #[test]
    fn two_equal_camps_average_out() {
        // Two agreeing pairs, far apart: symmetric weights, mean in between.
        let mut v = StatelessWeightedVoter::new(Default::default());
        let verdict = v
            .vote(&Round::from_numbers(0, &[10.0, 10.0, 20.0, 20.0]))
            .unwrap();
        assert_eq!(verdict.number(), Some(15.0));
    }
}
