//! Module-Elimination Weighted Average (`ME` in Fig. 6).
//!
//! An optimisation of the Standard voter: modules whose historical record is
//! *below the average* record of the round's candidates are temporarily
//! assigned zero weight — their values are discarded from the vote — "until
//! their historical records improve by submitting better values, even if
//! discarded in the voting itself" (§4).

use super::common;
use super::{Verdict, Voter, VoterConfig};
use crate::collation::collate;
use crate::error::VoteError;
use crate::history::{HistoryStore, MemoryHistory};
use crate::round::{ModuleId, Round};

/// Module-Elimination history-weighted voter.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{ModuleEliminationVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = ModuleEliminationVoter::with_defaults();
/// // Round 1: the faulty candidate damages its record.
/// voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 17.9, 20.0]))?;
/// // Round 2: it is eliminated outright.
/// let verdict = voter.vote(&Round::from_numbers(1, &[18.0, 18.1, 17.9, 20.0]))?;
/// assert_eq!(verdict.excluded, vec![avoc_core::ModuleId::new(3)]);
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModuleEliminationVoter<S: HistoryStore = MemoryHistory> {
    config: VoterConfig,
    store: S,
    scratch: common::Scratch,
}

impl ModuleEliminationVoter<MemoryHistory> {
    /// Creates an ME voter with default configuration and in-memory history.
    pub fn with_defaults() -> Self {
        Self::new(VoterConfig::default(), MemoryHistory::new())
    }
}

impl<S: HistoryStore> ModuleEliminationVoter<S> {
    /// Creates an ME voter over the given history store.
    pub fn new(config: VoterConfig, store: S) -> Self {
        ModuleEliminationVoter {
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

impl<S: HistoryStore + Send> Voter for ModuleEliminationVoter<S> {
    fn name(&self) -> &'static str {
        "module-elimination"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        common::candidates_into(round, &mut self.scratch.cand)?;
        self.scratch.values.clear();
        self.scratch
            .values
            .extend(self.scratch.cand.iter().map(|(_, v)| *v));
        common::fetch_histories_into(
            &mut self.store,
            &self.scratch.cand,
            &mut self.scratch.histories,
        );

        // Below-average records are zero-weighted for this round.
        common::elimination_mask_into(&self.scratch.histories, &mut self.scratch.mask);
        self.scratch.weights.clear();
        self.scratch.weights.extend(
            self.scratch
                .histories
                .iter()
                .zip(&self.scratch.mask)
                .map(|(&h, &keep)| if keep { h } else { 0.0 }),
        );

        let output = match collate(
            self.config.collation,
            &self.scratch.values,
            &self.scratch.weights,
        ) {
            Some(v) => v,
            None => self.scratch.values.iter().sum::<f64>() / self.scratch.values.len() as f64,
        };

        // Every module's record updates — including eliminated ones, so they
        // can rehabilitate by submitting agreeing values.
        self.scratch.scores.clear();
        let agreement = self.config.agreement;
        self.scratch.scores.extend(
            self.scratch
                .values
                .iter()
                .map(|&v| agreement.binary_score(v, output)),
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
        Round::from_numbers(round, &[18.0, 18.1, 17.9, 20.0, 18.05])
    }

    #[test]
    fn faulty_module_eliminated_in_round_two() {
        let mut v = ModuleEliminationVoter::with_defaults();
        let r1 = v.vote(&faulty_round(0)).unwrap();
        // Round 1: flat histories, nobody eliminated yet.
        assert!(r1.excluded.is_empty());
        let r2 = v.vote(&faulty_round(1)).unwrap();
        assert_eq!(r2.excluded, vec![m(3)]);
    }

    #[test]
    fn elimination_removes_the_skew_entirely() {
        let mut v = ModuleEliminationVoter::with_defaults();
        v.vote(&faulty_round(0)).unwrap();
        let out = v.vote(&faulty_round(1)).unwrap().number().unwrap();
        let clean_mean = (18.0 + 18.1 + 17.9 + 18.05) / 4.0;
        assert!((out - clean_mean).abs() < 1e-9, "out = {out}");
    }

    #[test]
    fn eliminated_module_can_rehabilitate() {
        let mut v = ModuleEliminationVoter::with_defaults();
        v.vote(&faulty_round(0)).unwrap();
        let r2 = v.vote(&faulty_round(1)).unwrap();
        assert_eq!(r2.excluded, vec![m(3)]);
        // The module starts submitting good values again; its record climbs
        // while discarded, and it eventually rejoins.
        let mut rejoined_at = None;
        for r in 2..20 {
            let verdict = v
                .vote(&Round::from_numbers(r, &[18.0, 18.1, 17.9, 18.02, 18.05]))
                .unwrap();
            if verdict.excluded.is_empty() {
                rejoined_at = Some(r);
                break;
            }
        }
        assert!(rejoined_at.is_some(), "module never rehabilitated");
    }

    #[test]
    fn flat_histories_eliminate_nobody() {
        let mut v = ModuleEliminationVoter::with_defaults();
        let verdict = v
            .vote(&Round::from_numbers(0, &[18.0, 18.1, 18.2]))
            .unwrap();
        assert!(verdict.excluded.is_empty());
    }

    #[test]
    fn weights_of_eliminated_are_zero_in_verdict() {
        let mut v = ModuleEliminationVoter::with_defaults();
        v.vote(&faulty_round(0)).unwrap();
        let r2 = v.vote(&faulty_round(1)).unwrap();
        assert_eq!(r2.weights[3].1, 0.0);
        assert!(r2.weights[0].1 > 0.0);
    }

    #[test]
    fn all_eliminated_falls_back_to_plain_mean() {
        // All histories zero → mask keeps everyone (flat), but weights are
        // all zero → plain-mean fallback.
        let store = MemoryHistory::with_records([(m(0), 0.0), (m(1), 0.0)]);
        let mut v = ModuleEliminationVoter::new(VoterConfig::default(), store);
        let verdict = v.vote(&Round::from_numbers(0, &[10.0, 30.0])).unwrap();
        assert_eq!(verdict.number(), Some(20.0));
    }

    #[test]
    fn converges_faster_than_standard() {
        use super::super::StandardVoter;
        let mut me = ModuleEliminationVoter::with_defaults();
        let mut std_v = StandardVoter::with_defaults();
        let clean_mean = (18.0 + 18.1 + 17.9 + 18.05) / 4.0;
        let eps = 0.02;
        let mut me_rounds = None;
        let mut std_rounds = None;
        for r in 0..40 {
            let me_out = me.vote(&faulty_round(r)).unwrap().number().unwrap();
            let st_out = std_v.vote(&faulty_round(r)).unwrap().number().unwrap();
            if me_rounds.is_none() && (me_out - clean_mean).abs() < eps {
                me_rounds = Some(r);
            }
            if std_rounds.is_none() && (st_out - clean_mean).abs() < eps {
                std_rounds = Some(r);
            }
        }
        let me_r = me_rounds.expect("ME converges");
        let std_r = std_rounds.expect("Standard converges");
        assert!(me_r < std_r, "ME {me_r} vs Standard {std_r}");
    }
}
