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
use crate::value::Value;

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
    scratch: Scratch,
}

/// Per-round buffers, reused so that only a tie allocates.
#[derive(Default)]
struct Scratch {
    /// Indices of the present ballots: their text stays in the round.
    cand: Vec<usize>,
    /// Records, elimination mask and vote weights, aligned with `cand`.
    histories: Vec<f64>,
    mask: Vec<bool>,
    weights: Vec<f64>,
    groups: Vec<Group>,
}

/// Ballots with equal text: the first-seen member's ballot index, the
/// member count and their total weight.
struct Group {
    representative: usize,
    members: usize,
    weight: f64,
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
            scratch: Scratch::default(),
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
        let s = &mut self.scratch;
        round.text_candidates_into(&mut s.cand)?;
        if s.cand.is_empty() {
            return Err(VoteError::EmptyRound);
        }
        let module = |i: usize| round.ballots[i].module;
        let text = |i: usize| match &round.ballots[i].value {
            Some(Value::Text(text)) => text,
            _ => unreachable!("candidates are text ballots"),
        };

        // Fetch/initialise records.
        let stateless = self.history == MajorityHistory::None;
        s.histories.clear();
        for &i in &s.cand {
            let record = (!stateless).then(|| self.store.get_or_init(module(i)));
            s.histories.push(record.unwrap_or(1.0));
        }

        // Module elimination (below-average records), where enabled.
        let eliminates = self.history == MajorityHistory::ModuleElimination;
        common::elimination_mask_into(&s.histories, &mut s.mask);
        s.weights.clear();
        let kept = s.histories.iter().zip(&s.mask);
        s.weights
            .extend(kept.map(|(&h, &keep)| if keep || !eliminates { h } else { 0.0 }));

        // Group ballots by string equality with a group representative.
        s.groups.clear();
        for (&i, &w) in s.cand.iter().zip(&s.weights) {
            let t = text(i);
            match s.groups.iter_mut().find(|g| text(g.representative) == t) {
                Some(g) => {
                    g.members += 1;
                    g.weight += w;
                }
                None => s.groups.push(Group {
                    representative: i,
                    members: 1,
                    weight: w,
                }),
            }
        }

        if s.weights.iter().sum::<f64>() <= 0.0 {
            // All records collapsed: unweighted plurality fallback.
            s.groups
                .iter_mut()
                .for_each(|g| g.weight = g.members as f64);
        }
        let group_weights = s.groups.iter().map(|g| g.weight);
        let best_weight = group_weights.clone().fold(f64::NEG_INFINITY, f64::max);
        // Never 0: with every weight 0 the fallback counts members instead.
        let effective_total: f64 = group_weights.sum();
        let is_best = |g: &&Group| (g.weight - best_weight).abs() < 1e-12;
        let mut winners = s.groups.iter().filter(is_best);
        let winner = winners.next().expect("a non-empty round has a group");
        if winners.next().is_some() {
            let tied = s.groups.iter().filter(is_best);
            return Err(VoteError::Tie {
                candidates: tied.map(|g| text(g.representative).clone()).collect(),
            });
        }
        let output = text(winner.representative);

        // Record update: members of the winning group agreed, everyone else
        // scores 0.
        if !stateless {
            for (&i, &h) in s.cand.iter().zip(&s.histories) {
                let score = if text(i) == output { 1.0 } else { 0.0 };
                self.store.set(module(i), self.update.apply(h, score));
            }
        }

        match &mut out.value {
            Value::Text(text) => text.clone_from(output),
            value => *value = Value::Text(output.clone()),
        }
        out.weights.clear();
        let weights = s.cand.iter().zip(&s.weights);
        out.weights.extend(weights.map(|(&i, &w)| (module(i), w)));
        out.excluded.clear();
        let eliminated = out.weights.iter().filter(|(_, w)| *w <= 0.0);
        out.excluded.extend(eliminated.map(|(m, _)| *m));
        out.confidence = winner.weight / effective_total;
        out.bootstrapped = false;
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
