//! Clustering-Only Voting (`COV` / `Clustering` in Fig. 6): AVOC's
//! agreement-clustering step used standalone, every round, with no history.
//!
//! The paper finds COV "significantly outperforms [the] other stateless
//! approach, i.e., weighted average without history", making it the right
//! fit for "scenarios where maintaining historical result records is
//! impractical: short-lived sensor measurements, one-time comparisons of
//! datasets, etc." (§7).

use super::common;
use super::{Verdict, Voter, VoterConfig};
use crate::collation::Collation;
use crate::error::VoteError;
use crate::round::Round;

/// Stateless clustering-only voter.
///
/// Every round: group the candidates with the agreement clusterer mirroring
/// the configured parameters, take the largest group, and emit its mean
/// (amalgamation) or its member nearest the mean (selection), per the
/// configured collation.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{ClusteringOnlyVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = ClusteringOnlyVoter::new(Default::default());
/// // The 25.0 outlier is excluded in the very first round.
/// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.2, 25.0, 18.1]))?;
/// assert!((verdict.number().unwrap() - 18.1).abs() < 1e-9);
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClusteringOnlyVoter {
    config: VoterConfig,
    last_output: Option<f64>,
    scratch: common::Scratch,
}

impl ClusteringOnlyVoter {
    /// Creates a clustering-only voter.
    pub fn new(config: VoterConfig) -> Self {
        ClusteringOnlyVoter {
            config,
            last_output: None,
            scratch: common::Scratch::default(),
        }
    }

    /// The voter's configuration.
    pub fn config(&self) -> &VoterConfig {
        &self.config
    }
}

impl Voter for ClusteringOnlyVoter {
    fn name(&self) -> &'static str {
        "clustering-only"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        cluster_vote(
            &self.config,
            round,
            &mut self.scratch,
            self.last_output,
            out,
        )?;
        self.last_output = out.number();
        Ok(())
    }
}

/// The clustering round shared by [`ClusteringOnlyVoter`] and
/// [`super::AvocVoter`]'s bootstrap: cluster the round's candidates, pick
/// the largest group (ties broken near `reference` when available), collate
/// within it. Leaves the candidates in `scratch.cand` and the members' unit
/// weights in `scratch.weights`.
pub(crate) fn cluster_vote(
    config: &VoterConfig,
    round: &Round,
    scratch: &mut common::Scratch,
    reference: Option<f64>,
    out: &mut Verdict,
) -> Result<(), VoteError> {
    scratch.load_candidates(round)?;
    let clustering = config.agreement.clusterer().cluster(&scratch.values);
    let winner = match reference {
        Some(r) => clustering.largest_cluster_near(r),
        None => clustering.largest_cluster(),
    }
    .ok_or(VoteError::EmptyRound)?;

    let output = match config.collation {
        Collation::MeanNearestNeighbor => winner.nearest_real_value(),
        // Median of the winning group degenerates to its mean-ish middle;
        // WeightedMean and Median both emit the group mean here because the
        // group members are unweighted peers.
        Collation::WeightedMean | Collation::Median => winner.mean(),
    };

    scratch.weights.clear();
    scratch.weights.resize(scratch.values.len(), 0.0);
    for &i in winner.members() {
        scratch.weights[i] = 1.0;
    }
    let confidence = clustering.majority_fraction();
    common::fill_verdict(
        out,
        &scratch.cand,
        &scratch.weights,
        output,
        confidence,
        true,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::ModuleId;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    #[test]
    fn outlier_excluded_from_first_round() {
        let mut v = ClusteringOnlyVoter::new(Default::default());
        let verdict = v
            .vote(&Round::from_numbers(0, &[18.0, 18.1, 17.9, 24.0, 18.05]))
            .unwrap();
        assert_eq!(verdict.excluded, vec![m(3)]);
        assert!((verdict.number().unwrap() - 18.0125).abs() < 1e-9);
        assert!(verdict.bootstrapped);
    }

    #[test]
    fn confidence_is_majority_fraction() {
        let mut v = ClusteringOnlyVoter::new(Default::default());
        let verdict = v
            .vote(&Round::from_numbers(0, &[18.0, 18.1, 25.0, 18.05]))
            .unwrap();
        assert_eq!(verdict.confidence, 0.75);
    }

    #[test]
    fn mean_nearest_neighbor_selects_member() {
        let cfg =
            VoterConfig::default().with_collation(crate::collation::Collation::MeanNearestNeighbor);
        let mut v = ClusteringOnlyVoter::new(cfg);
        let out = v
            .vote(&Round::from_numbers(0, &[18.0, 18.4, 18.1, 30.0]))
            .unwrap()
            .number()
            .unwrap();
        assert!([18.0, 18.4, 18.1].contains(&out));
    }

    #[test]
    fn ties_break_towards_previous_output() {
        let mut v = ClusteringOnlyVoter::new(Default::default());
        // Establish a previous output near 10.
        v.vote(&Round::from_numbers(0, &[10.0, 10.1, 10.05]))
            .unwrap();
        // Two equal camps: near-10 wins because of the previous output.
        let verdict = v
            .vote(&Round::from_numbers(1, &[10.0, 10.1, 50.0, 50.1]))
            .unwrap();
        assert!(verdict.number().unwrap() < 20.0);
    }

    #[test]
    fn no_state_in_histories() {
        let mut v = ClusteringOnlyVoter::new(Default::default());
        v.vote(&Round::from_numbers(0, &[1.0, 1.0])).unwrap();
        assert!(v.histories().is_empty());
        assert!(!v.is_stateful());
    }

    #[test]
    fn all_disagreeing_values_pick_singleton_cluster() {
        let mut v = ClusteringOnlyVoter::new(Default::default());
        // Every value is its own cluster; ties broken by variance then index.
        let verdict = v
            .vote(&Round::from_numbers(0, &[0.0, 100.0, 200.0]))
            .unwrap();
        assert_eq!(verdict.weights.iter().filter(|(_, w)| *w > 0.0).count(), 1);
        assert!(verdict.confidence < 0.5);
    }

    #[test]
    fn empty_round_errors() {
        let mut v = ClusteringOnlyVoter::new(Default::default());
        assert!(matches!(
            v.vote(&Round::from_sparse_numbers(0, &[None])),
            Err(VoteError::EmptyRound)
        ));
    }
}
