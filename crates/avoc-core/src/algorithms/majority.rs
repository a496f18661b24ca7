//! History-weighted majority voting on categorical values.
//!
//! VDX extends VDL with "the ability to vote on categorical i.e.,
//! non-numeric values, such as character strings and JSON blobs" (§6), with
//! restrictions: no value-based exclusion, no hybrid history, no clustering
//! bootstrap, and weighted-majority as the only collation. The 'standard'
//! and 'module-elimination' history algorithms remain available. Ballots
//! agree when their strings are equal.

use super::common;
use super::{Verdict, Voter};
use crate::error::VoteError;
use crate::history::{HistoryStore, HistoryUpdate, MemoryHistory};
use crate::round::{ModuleId, Round};

/// Which history algorithm backs the majority vote. The hybrid algorithm
/// is *not* available for categorical values — "the fine-grained agreement
/// definition cannot be applied to non-numeric values" (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MajorityHistory {
    /// No history: every ballot carries unit weight.
    None,
    /// Standard history-based weighting.
    #[default]
    Standard,
    /// Standard weighting plus below-average module elimination.
    ModuleElimination,
}

/// History-weighted majority voter over categorical values.
///
/// Ballots are grouped by string equality; the group with the largest total
/// weight wins; the verdict value is the group's representative (its
/// first-seen member). Ties are reported as [`VoteError::Tie`] for the engine's
/// tie-break policy to resolve.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{MajorityVoter, Voter};
/// use avoc_core::{Ballot, ModuleId, Round};
///
/// let mut voter = MajorityVoter::with_defaults();
/// let round = Round::new(0, vec![
///     Ballot::new(ModuleId::new(0), "open"),
///     Ballot::new(ModuleId::new(1), "open"),
///     Ballot::new(ModuleId::new(2), "closed"),
/// ]);
/// let verdict = voter.vote(&round)?;
/// assert_eq!(verdict.value.as_text(), Some("open"));
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
pub struct MajorityVoter<S: HistoryStore = MemoryHistory> {
    history: MajorityHistory,
    update: HistoryUpdate,
    store: S,
}

impl MajorityVoter<MemoryHistory> {
    /// Creates a majority voter with standard history, exact matching and
    /// in-memory records.
    pub fn with_defaults() -> Self {
        Self::new(MajorityHistory::Standard, MemoryHistory::new())
    }
}

impl<S: HistoryStore> MajorityVoter<S> {
    /// Creates a majority voter with the given history mode and store.
    pub fn new(history: MajorityHistory, store: S) -> Self {
        MajorityVoter {
            history,
            update: HistoryUpdate::default(),
            store,
        }
    }

    /// Sets the history update rate.
    pub fn with_update(mut self, update: HistoryUpdate) -> Self {
        self.update = update;
        self
    }
}

impl<S: HistoryStore + Send> Voter for MajorityVoter<S> {
    fn name(&self) -> &'static str {
        "weighted-majority"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        let cand: Vec<(ModuleId, String)> = round
            .text_candidates()?
            .into_iter()
            .map(|(m, s)| (m, s.to_owned()))
            .collect();
        if cand.is_empty() {
            return Err(VoteError::EmptyRound);
        }

        // Fetch/initialise records.
        let histories: Vec<f64> = match self.history {
            MajorityHistory::None => vec![1.0; cand.len()],
            _ => cand
                .iter()
                .map(|(m, _)| self.store.get_or_init(*m))
                .collect(),
        };

        // Module elimination (below-average records), where enabled.
        let weights: Vec<f64> = match self.history {
            MajorityHistory::ModuleElimination => {
                let mut keep = Vec::new();
                common::elimination_mask_into(&histories, &mut keep);
                histories
                    .iter()
                    .zip(&keep)
                    .map(|(&h, &keep)| if keep { h } else { 0.0 })
                    .collect()
            }
            _ => histories.clone(),
        };

        // Group ballots by string equality with a group representative.
        struct Group {
            representative: usize,
            members: usize,
            weight: f64,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (i, (_, s)) in cand.iter().enumerate() {
            let w = weights[i];
            match groups.iter_mut().find(|g| cand[g.representative].1 == *s) {
                Some(g) => {
                    g.members += 1;
                    g.weight += w;
                }
                None => groups.push(Group {
                    representative: i,
                    members: 1,
                    weight: w,
                }),
            }
        }

        let total_weight: f64 = weights.iter().sum();
        if total_weight <= 0.0 {
            // All records collapsed: unweighted plurality fallback.
            for g in &mut groups {
                g.weight = g.members as f64;
            }
        }
        let effective_total: f64 = groups.iter().map(|g| g.weight).sum();

        let best_weight = groups
            .iter()
            .map(|g| g.weight)
            .fold(f64::NEG_INFINITY, f64::max);
        let winners: Vec<&Group> = groups
            .iter()
            .filter(|g| (g.weight - best_weight).abs() < 1e-12)
            .collect();
        if winners.len() > 1 {
            return Err(VoteError::Tie {
                candidates: winners
                    .iter()
                    .map(|g| cand[g.representative].1.clone())
                    .collect(),
            });
        }
        let winner = winners[0];
        let output = cand[winner.representative].1.clone();

        // Record update: members of the winning group agreed, everyone else
        // scores 0.
        if self.history != MajorityHistory::None {
            for (i, (m, s)) in cand.iter().enumerate() {
                let score = if *s == output { 1.0 } else { 0.0 };
                self.store.set(*m, self.update.apply(histories[i], score));
            }
        }

        let confidence = if effective_total > 0.0 {
            winner.weight / effective_total
        } else {
            0.0
        };
        *out = Verdict {
            value: output.into(),
            excluded: cand
                .iter()
                .zip(&weights)
                .filter(|(_, &w)| w <= 0.0)
                .map(|((m, _), _)| *m)
                .collect(),
            weights: cand
                .iter()
                .zip(&weights)
                .map(|((m, _), &w)| (*m, w))
                .collect(),
            confidence,
            bootstrapped: false,
        };
        Ok(())
    }

    fn histories(&self) -> Vec<(ModuleId, f64)> {
        match self.history {
            MajorityHistory::None => Vec::new(),
            _ => self.store.snapshot(),
        }
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
        self.history != MajorityHistory::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::Ballot;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn round_of(round: u64, values: &[&str]) -> Round {
        Round::new(
            round,
            values
                .iter()
                .enumerate()
                .map(|(i, s)| Ballot::new(m(i as u32), *s))
                .collect(),
        )
    }

    #[test]
    fn plurality_wins() {
        let mut v = MajorityVoter::with_defaults();
        let verdict = v.vote(&round_of(0, &["a", "a", "b"])).unwrap();
        assert_eq!(verdict.value.as_text(), Some("a"));
        assert!((verdict.confidence - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tie_is_an_error() {
        let mut v = MajorityVoter::with_defaults();
        let err = v.vote(&round_of(0, &["a", "a", "b", "b"])).unwrap_err();
        assert!(matches!(err, VoteError::Tie { candidates } if candidates.len() == 2));
    }

    #[test]
    fn history_breaks_future_ties() {
        let mut v = MajorityVoter::with_defaults();
        // Module 2 disagrees twice; its record decays.
        v.vote(&round_of(0, &["x", "x", "y"])).unwrap();
        v.vote(&round_of(1, &["x", "x", "y"])).unwrap();
        // Now a 2-2 split in raw counts — but the "y" camp includes the
        // distrusted module, so "x" wins on weight.
        let round = Round::new(
            2,
            vec![
                Ballot::new(m(0), "x"),
                Ballot::new(m(1), "y"),
                Ballot::new(m(2), "y"),
                Ballot::new(m(3), "x"),
            ],
        );
        let verdict = v.vote(&round).unwrap();
        assert_eq!(verdict.value.as_text(), Some("x"));
    }

    #[test]
    fn module_elimination_excludes_bad_module() {
        let mut v = MajorityVoter::new(MajorityHistory::ModuleElimination, MemoryHistory::new());
        v.vote(&round_of(0, &["a", "a", "z"])).unwrap();
        let verdict = v.vote(&round_of(1, &["a", "a", "z"])).unwrap();
        assert_eq!(verdict.excluded, vec![m(2)]);
    }

    #[test]
    fn stateless_mode_has_no_history() {
        let mut v = MajorityVoter::new(MajorityHistory::None, MemoryHistory::new());
        v.vote(&round_of(0, &["a", "b", "a"])).unwrap();
        assert!(v.histories().is_empty());
        assert!(!v.is_stateful());
    }

    #[test]
    fn all_records_zero_falls_back_to_plurality() {
        let store = MemoryHistory::with_records([(m(0), 0.0), (m(1), 0.0), (m(2), 0.0)]);
        let mut v = MajorityVoter::new(MajorityHistory::Standard, store);
        let verdict = v.vote(&round_of(0, &["p", "p", "q"])).unwrap();
        assert_eq!(verdict.value.as_text(), Some("p"));
    }

    #[test]
    fn numeric_ballot_is_a_type_error() {
        let mut v = MajorityVoter::with_defaults();
        let round = Round::new(0, vec![Ballot::new(m(0), 1.0)]);
        assert!(matches!(
            v.vote(&round),
            Err(VoteError::TypeMismatch {
                expected: "text",
                ..
            })
        ));
    }

    #[test]
    fn empty_round_errors() {
        let mut v = MajorityVoter::with_defaults();
        let round = Round::new(0, vec![Ballot::missing(m(0))]);
        assert!(matches!(v.vote(&round), Err(VoteError::EmptyRound)));
    }
}
