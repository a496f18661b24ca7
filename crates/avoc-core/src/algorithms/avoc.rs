//! AVOC — Accurate Voting with Clustering (§5, the paper's contribution).
//!
//! AVOC "builds atop the Hybrid algorithm by applying a simplified
//! clustering algorithm during the first round when the weights are all 0"
//! (or all at the initial value — the two flat-history conditions: "all
//! records are 1 (indicating a new set) or 0 (indicating a failure of the
//! system or an extreme data spike)"). The clustering round:
//!
//! 1. eliminates obvious outliers *in-place*, improving that round's output
//!    over the plain-mean fallback the other algorithms use, and
//! 2. adjusts the historical records from the cluster membership, so the
//!    voter "already learns to exclude [the outlier] from round 2" —
//!    the bootstrap boost behind the paper's 4× convergence claim.

use super::clustering_only::cluster_vote;
use super::{HistoryAlgorithm, HistoryVoter, Verdict, Voter, VoterConfig};
use crate::collation::Collation;
use crate::error::VoteError;
use crate::history::{HistoryStore, MemoryHistory, INITIAL_HISTORY};
use crate::round::{ModuleId, Round};

/// The AVOC voter: Hybrid plus clustering bootstrap.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{AvocVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = AvocVoter::with_defaults();
/// // Fresh history → the first round is a clustering round, so the
/// // outlier never touches the output.
/// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 24.0, 17.9]))?;
/// assert!(verdict.bootstrapped);
/// assert!(verdict.number().unwrap() < 19.0);
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AvocVoter<S: HistoryStore = MemoryHistory> {
    inner: HistoryVoter<S>,
    last_output: Option<f64>,
}

impl AvocVoter<MemoryHistory> {
    /// Creates an AVOC voter with the paper's Listing-1 configuration:
    /// error 0.05, soft threshold 2, hybrid history, mean-nearest-neighbour
    /// collation, bootstrapping enabled.
    pub fn with_defaults() -> Self {
        Self::new(
            VoterConfig::default().with_collation(Collation::MeanNearestNeighbor),
            MemoryHistory::new(),
        )
    }
}

impl<S: HistoryStore> AvocVoter<S> {
    /// Creates an AVOC voter over the given history store.
    pub fn new(config: VoterConfig, store: S) -> Self {
        AvocVoter {
            inner: HistoryVoter::new(HistoryAlgorithm::Hybrid, config, store),
            last_output: None,
        }
    }

    /// The voter's configuration.
    pub fn config(&self) -> &VoterConfig {
        self.inner.config()
    }

    /// Whether the next round would trigger the clustering bootstrap: every
    /// candidate record is still at its initial state (a new set — the
    /// paper's "all records are 1") or every record has collapsed to `0`
    /// (a system failure or extreme data spike).
    pub fn bootstrap_pending(&self, round: &Round) -> bool {
        // One keyed store lookup per ballot — not a linear scan over a
        // freshly allocated snapshot, which made this check O(n²) and put
        // an allocation in front of every single vote.
        let store = self.inner.store();
        let mut any = false;
        let mut all_new = true;
        let mut all_zero = true;
        for ballot in &round.ballots {
            any = true;
            match store.get(ballot.module) {
                None => all_zero = false, // unrecorded ≠ collapsed
                Some(h) => {
                    all_new = false;
                    if h.abs() > 1e-12 {
                        all_zero = false;
                    }
                }
            }
        }
        any && (all_new || all_zero)
    }
}

impl<S: HistoryStore + Send> Voter for AvocVoter<S> {
    fn name(&self) -> &'static str {
        "avoc"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        if !self.bootstrap_pending(round) {
            self.inner.vote_into(round, out)?;
            self.last_output = out.number();
            return Ok(());
        }

        // Clustering bootstrap round — fires once per (re)start, so the
        // clusterer's allocations are off the steady-state hot path.
        let HistoryVoter {
            config,
            store,
            scratch,
            ..
        } = &mut self.inner;
        cluster_vote(config, round, scratch, self.last_output, out)?;

        // "Better history adjustment in round 1": cluster membership seeds
        // the records — members of the winning group keep full trust,
        // outliers are zeroed so the ME step of Hybrid excludes them from
        // round 2 onward.
        for (&(m, _), &w) in scratch.cand.iter().zip(&scratch.weights) {
            store.set(m, if w > 0.0 { INITIAL_HISTORY } else { 0.0 });
        }

        self.last_output = out.number();
        Ok(())
    }

    fn histories(&self) -> Vec<(ModuleId, f64)> {
        self.inner.histories()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.last_output = None;
    }

    fn seed_history(&mut self, records: &[(ModuleId, f64)]) {
        // Warm records suppress the clustering bootstrap by construction:
        // `bootstrap_pending` is derived purely from store flatness, so a
        // seeded non-flat store resumes Hybrid voting directly (the whole
        // point of restoring a checkpoint). `last_output` is only consulted
        // inside a bootstrap round, so it needs no restoration here.
        self.inner.seed_history(records);
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
    fn first_round_is_bootstrapped() {
        let mut v = AvocVoter::with_defaults();
        let verdict = v.vote(&faulty_round(0)).unwrap();
        assert!(verdict.bootstrapped);
        assert!(verdict.excluded.contains(&m(3)));
    }

    #[test]
    fn second_round_uses_hybrid_with_seeded_history() {
        let mut v = AvocVoter::with_defaults();
        v.vote(&faulty_round(0)).unwrap();
        // Bootstrap zeroed the outlier's record...
        assert_eq!(v.histories()[3].1, 0.0);
        // ...so round 2 is a regular Hybrid round that excludes it.
        let r2 = v.vote(&faulty_round(1)).unwrap();
        assert!(!r2.bootstrapped);
        assert!(r2.excluded.contains(&m(3)));
    }

    #[test]
    fn bootstrap_fires_once_on_healthy_data() {
        let mut v = AvocVoter::with_defaults();
        let r1 = v
            .vote(&Round::from_numbers(0, &[18.0, 18.1, 18.05]))
            .unwrap();
        assert!(r1.bootstrapped);
        // The bootstrap seeded records for every member, so "new set" no
        // longer holds: round 2 onwards is regular Hybrid.
        let r2 = v
            .vote(&Round::from_numbers(1, &[18.0, 18.1, 18.05]))
            .unwrap();
        assert!(!r2.bootstrapped);
        let r3 = v
            .vote(&Round::from_numbers(2, &[18.0, 18.1, 18.05]))
            .unwrap();
        assert!(!r3.bootstrapped);
        assert!((r2.number().unwrap() - r3.number().unwrap()).abs() < 0.11);
    }

    #[test]
    fn collapse_triggers_fallback_clustering() {
        let store = MemoryHistory::with_records([(m(0), 0.0), (m(1), 0.0), (m(2), 0.0)]);
        let cfg = VoterConfig::default().with_collation(Collation::MeanNearestNeighbor);
        let mut v = AvocVoter::new(cfg, store);
        let round = Round::from_numbers(0, &[18.0, 18.1, 30.0]);
        let verdict = v.vote(&round).unwrap();
        assert!(
            verdict.bootstrapped,
            "all-zero records must trigger fallback"
        );
        assert!(verdict.number().unwrap() < 19.0);
    }

    #[test]
    fn mixed_histories_do_not_bootstrap() {
        let store = MemoryHistory::with_records([(m(0), 1.0), (m(1), 0.6)]);
        let cfg = VoterConfig::default().with_collation(Collation::MeanNearestNeighbor);
        let mut v = AvocVoter::new(cfg, store);
        let verdict = v.vote(&Round::from_numbers(0, &[18.0, 18.1])).unwrap();
        assert!(!verdict.bootstrapped);
    }

    #[test]
    fn converges_faster_than_plain_hybrid_after_injection() {
        // The 4× claim, in miniature: rounds until the output returns to the
        // clean value after a fault appears at bootstrap time.
        let base = [18.0, 18.1, 17.9, 18.2, 18.05];
        let clean_out = {
            let mut v = HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid);
            let mut out = 0.0;
            for r in 0..5 {
                out = v
                    .vote(&Round::from_numbers(r, &base))
                    .unwrap()
                    .number()
                    .unwrap();
            }
            out
        };

        let rounds_to_converge = |mut voter: Box<dyn Voter>| -> usize {
            let mut with_fault = base;
            with_fault[3] += 6.0;
            for r in 0..100 {
                let out = voter
                    .vote(&Round::from_numbers(r, &with_fault))
                    .unwrap()
                    .number()
                    .unwrap();
                if (out - clean_out).abs() < 0.1 {
                    return r as usize;
                }
            }
            100
        };

        let avoc_rounds = rounds_to_converge(Box::new(AvocVoter::with_defaults()));
        let hybrid_rounds = rounds_to_converge(Box::new(HistoryVoter::with_defaults(
            HistoryAlgorithm::Hybrid,
        )));
        assert!(
            avoc_rounds <= hybrid_rounds,
            "avoc {avoc_rounds} vs hybrid {hybrid_rounds}"
        );
        assert_eq!(avoc_rounds, 0, "bootstrap should fix round 1 already");
    }

    #[test]
    fn reset_restores_bootstrap() {
        let mut v = AvocVoter::with_defaults();
        v.vote(&faulty_round(0)).unwrap();
        v.vote(&faulty_round(1)).unwrap();
        v.reset();
        let verdict = v.vote(&faulty_round(2)).unwrap();
        assert!(verdict.bootstrapped);
    }

    #[test]
    fn name_and_statefulness() {
        let v = AvocVoter::with_defaults();
        assert_eq!(v.name(), "avoc");
        assert!(v.is_stateful());
    }

    #[test]
    fn bootstrap_pending_scales_to_many_modules() {
        // Regression for the O(n²) snapshot scan: with hundreds of modules
        // the keyed lookup must stay correct for all three regimes (fresh,
        // mixed, collapsed).
        let n = 512u32;
        let values: Vec<f64> = (0..n).map(|i| 18.0 + (i % 7) as f64 * 0.01).collect();
        let round = Round::from_numbers(0, &values);

        let mut fresh = AvocVoter::with_defaults();
        assert!(fresh.bootstrap_pending(&round), "fresh set must bootstrap");
        fresh.vote(&round).unwrap();
        assert!(
            !fresh.bootstrap_pending(&Round::new(1, round.ballots.clone())),
            "seeded records must stop bootstrapping"
        );

        let collapsed = AvocVoter::new(
            VoterConfig::default().with_collation(Collation::MeanNearestNeighbor),
            MemoryHistory::with_records((0..n).map(|i| (m(i), 0.0))),
        );
        assert!(
            collapsed.bootstrap_pending(&round),
            "all-zero records must bootstrap"
        );

        let mut mixed_records: Vec<(ModuleId, f64)> = (0..n).map(|i| (m(i), 0.0)).collect();
        mixed_records[300].1 = 0.7;
        let mixed = AvocVoter::new(
            VoterConfig::default().with_collation(Collation::MeanNearestNeighbor),
            MemoryHistory::with_records(mixed_records),
        );
        assert!(
            !mixed.bootstrap_pending(&round),
            "one live record must veto the bootstrap"
        );
    }
}
