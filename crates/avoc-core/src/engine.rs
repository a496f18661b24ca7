//! The round-driving voting engine: quorum, exclusion and fault policies
//! wrapped around a [`Voter`].
//!
//! The paper's UC-2 fault scenarios (§7) motivate this layer: missing
//! values, conflicting results and ties must be handled by *parametric*
//! policies — "voting algorithm implementations in a generic data fusion
//! platform should be parametric". The engine implements the behaviours the
//! paper describes: proceeding on sub-majority missingness, reverting to the
//! last accepted result or raising an error when the majority is missing,
//! and tie-breaking by proximity to the previous output.

use crate::algorithms::{Verdict, Voter};
use crate::error::VoteError;
use crate::exclusion::Exclusion;
use crate::quorum::Quorum;
use crate::round::{Ballot, ModuleId, Round};
use crate::value::Value;

/// What the engine does when a round cannot produce a trustworthy vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FallbackAction {
    /// Revert to the last accepted output ("the system should either revert
    /// to the last accepted result, or raise an error"). If there is none,
    /// the round is skipped.
    #[default]
    LastGood,
    /// Surface the failure to the caller.
    Error,
    /// Emit no output for this round.
    Skip,
}

/// How categorical ties are resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Prefer the tied candidate equal to the previous output — the paper's
    /// "proximity to the previous output" mechanism. Falls back to the
    /// first candidate when no previous output matches.
    #[default]
    NearPrevious,
    /// Pick the lexicographically smallest candidate (deterministic).
    First,
    /// Refuse to decide.
    Error,
}

/// The engine's fault-handling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FaultPolicy {
    /// Applied when quorum is not reached (majority-missing scenario).
    pub on_no_quorum: FallbackAction,
    /// Applied when the voter itself fails (empty round after exclusion,
    /// type errors).
    pub on_voter_error: FallbackAction,
    /// Applied to categorical ties.
    pub on_tie: TieBreak,
}

/// Why a round fell back or was skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultReason {
    /// Quorum not reached.
    NoQuorum {
        /// Ballots present.
        present: usize,
        /// Ballots required.
        required: usize,
    },
    /// The voter returned an error.
    Voter(VoteError),
}

/// Outcome of submitting one round to the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundResult {
    /// The voter produced a verdict.
    Voted(Verdict),
    /// A tie was broken by policy; the chosen value is attached.
    TieBroken {
        /// The value selected by the tie-break.
        value: Value,
        /// The tied candidates.
        candidates: Vec<String>,
    },
    /// The engine fell back to the last accepted output.
    Fallback {
        /// The last accepted output, re-emitted.
        value: Value,
        /// Why the round could not vote.
        reason: FaultReason,
    },
    /// The round produced no output.
    Skipped {
        /// Why the round could not vote.
        reason: FaultReason,
    },
}

impl RoundResult {
    /// The output value, if the round produced one.
    pub fn value(&self) -> Option<&Value> {
        match self {
            RoundResult::Voted(v) => Some(&v.value),
            RoundResult::TieBroken { value, .. } => Some(value),
            RoundResult::Fallback { value, .. } => Some(value),
            RoundResult::Skipped { .. } => None,
        }
    }

    /// The scalar output, when numeric.
    pub fn number(&self) -> Option<f64> {
        self.value().and_then(Value::as_number)
    }

    /// Whether a genuine (non-fallback) vote happened.
    pub fn is_voted(&self) -> bool {
        matches!(self, RoundResult::Voted(_))
    }
}

/// The voting engine.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter};
/// use avoc_core::engine::VotingEngine;
/// use avoc_core::{Quorum, Round};
///
/// let avoc = HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid).with_bootstrap(true);
/// let mut engine = VotingEngine::new(Box::new(avoc)).with_quorum(Quorum::Majority);
/// let outcome = engine.submit(&Round::from_numbers(0, &[18.0, 18.1, 17.9]))?;
/// assert!(outcome.is_voted());
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
pub struct VotingEngine {
    voter: Box<dyn Voter>,
    quorum: Quorum,
    exclusion: Exclusion,
    policy: FaultPolicy,
    last_good: Option<Value>,
    /// Reusable outcome slot: consecutive voted rounds rewrite the same
    /// verdict buffers instead of allocating a fresh `RoundResult`.
    outcome: RoundResult,
    scratch: EngineScratch,
}

/// Reusable engine-level scratch for the exclusion pre-pass.
#[derive(Debug)]
struct EngineScratch {
    /// `(ballot index, value)` for the round's numeric ballots.
    numeric: Vec<(usize, f64)>,
    /// The numeric values alone, fed to the exclusion policy.
    values: Vec<f64>,
    /// Indices (into `numeric`) the policy excluded.
    excluded: Vec<usize>,
    /// In-place copy of the round with excluded ballots blanked — replaces
    /// the `ballots.clone()` the old path paid whenever anything was
    /// excluded.
    round: Round,
    /// A row rebuilt as a round, for the rows [`VotingEngine::submit_row`]
    /// votes as rounds.
    row: Round,
}

/// Whether a present value can be voted on: numbers and every vector
/// coordinate finite (text always can).
fn is_finite(value: &Value) -> bool {
    match value {
        Value::Number(x) => x.is_finite(),
        Value::Vector(coords) => coords.iter().all(|x| x.is_finite()),
        Value::Text(_) => true,
    }
}

impl Default for EngineScratch {
    fn default() -> Self {
        EngineScratch {
            numeric: Vec::new(),
            values: Vec::new(),
            excluded: Vec::new(),
            round: Round::new(0, Vec::new()),
            row: Round::new(0, Vec::new()),
        }
    }
}

impl std::fmt::Debug for VotingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VotingEngine")
            .field("voter", &self.voter.name())
            .field("quorum", &self.quorum)
            .field("exclusion", &self.exclusion)
            .field("policy", &self.policy)
            .finish()
    }
}

impl VotingEngine {
    /// Creates an engine around a voter with default policies
    /// (majority quorum, no exclusion, last-good fallbacks).
    pub fn new(voter: Box<dyn Voter>) -> Self {
        VotingEngine {
            voter,
            quorum: Quorum::default(),
            exclusion: Exclusion::default(),
            policy: FaultPolicy::default(),
            last_good: None,
            outcome: RoundResult::Skipped {
                reason: FaultReason::Voter(VoteError::EmptyRound),
            },
            scratch: EngineScratch::default(),
        }
    }

    /// Sets the quorum policy.
    pub fn with_quorum(mut self, quorum: Quorum) -> Self {
        self.quorum = quorum;
        self
    }

    /// Sets the pre-vote exclusion policy.
    pub fn with_exclusion(mut self, exclusion: Exclusion) -> Self {
        self.exclusion = exclusion;
        self
    }

    /// Sets the fault policy.
    pub fn with_policy(mut self, policy: FaultPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The wrapped voter's name.
    pub fn voter_name(&self) -> &'static str {
        self.voter.name()
    }

    /// The wrapped voter's history snapshot.
    pub fn histories(&self) -> Vec<(crate::ModuleId, f64)> {
        self.voter.histories()
    }

    /// Seeds the wrapped voter's historical records — the warm-restart path
    /// for a service restoring a checkpointed engine (see
    /// [`crate::algorithms::Voter::seed_history`]). `last_good` is *not*
    /// restored: fallback rounds immediately after a restart behave as on a
    /// fresh engine until the first vote lands.
    pub fn seed_histories(&mut self, records: &[(crate::ModuleId, f64)]) {
        self.voter.seed_history(records);
    }

    /// Submits one round. A ballot whose value is not finite (a NaN or
    /// infinite number, or a vector with such a coordinate) counts as
    /// missing, for quorum and for the voter alike.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`VoteError`] only when the corresponding
    /// policy is [`FallbackAction::Error`]; otherwise faults are absorbed
    /// into [`RoundResult::Fallback`] / [`RoundResult::Skipped`].
    pub fn submit(&mut self, round: &Round) -> Result<RoundResult, VoteError> {
        self.submit_ref(round).cloned()
    }

    /// Submits one round, returning a reference to the engine's reusable
    /// outcome slot — the allocation-free flavour of [`VotingEngine::submit`].
    ///
    /// In steady state (consecutive voted numeric rounds, voter scratch
    /// warmed up) this performs zero heap allocations:
    /// the verdict inside the slot is rewritten in place each round.
    /// The returned reference is valid until the next submission.
    ///
    /// # Errors
    ///
    /// Exactly as [`VotingEngine::submit`].
    pub fn submit_ref(&mut self, round: &Round) -> Result<&RoundResult, VoteError> {
        self.submit_inner(round).map(|()| &self.outcome)
    }

    /// Submits one whole numeric round as a row: `values[i]` is module
    /// `i`'s reading. The outcome is exactly that of
    /// [`VotingEngine::submit_ref`] on [`Round::from_numbers`]`(round,
    /// values)`, verdict and records alike, but the round is not built:
    /// the row is checked for a non-finite value and for quorum once, and
    /// goes to the voter as it stands. A row with a non-finite value, an
    /// engine with an exclusion policy and a voter that takes no row
    /// ([`Voter::vote_row_into`]) take the round path, through a round
    /// rebuilt in place.
    ///
    /// # Errors
    ///
    /// Exactly as [`VotingEngine::submit`].
    pub fn submit_row(&mut self, round: u64, values: &[f64]) -> Result<&RoundResult, VoteError> {
        self.row_inner(round, values).map(|()| &self.outcome)
    }

    fn row_inner(&mut self, round: u64, values: &[f64]) -> Result<(), VoteError> {
        // One pass, without early exits: a row is almost always finite.
        let finite = values.iter().fold(true, |finite, x| finite & x.is_finite());
        if self.exclusion == Exclusion::None && finite {
            let n = values.len();
            if !self.quorum.is_met(n, n) {
                return self.no_quorum(n, n);
            }
            if let Some(voted) = self
                .voter
                .vote_row_into(values, verdict_slot(&mut self.outcome))
            {
                return self.settle(voted);
            }
        }
        let mut row = std::mem::replace(&mut self.scratch.row, Round::new(0, Vec::new()));
        row.round = round;
        let shaped = row.ballots.len() == values.len()
            && row
                .ballots
                .iter()
                .enumerate()
                .all(|(i, b)| b.module.index() as usize == i);
        if !shaped {
            row.ballots.clear();
            row.ballots
                .extend((0..values.len() as u32).map(|i| Ballot::missing(ModuleId::new(i))));
        }
        for (ballot, &x) in row.ballots.iter_mut().zip(values) {
            match &mut ballot.value {
                Some(Value::Number(old)) => *old = x,
                cell => *cell = Some(Value::Number(x)),
            }
        }
        let result = self.submit_inner(&row);
        self.scratch.row = row;
        result
    }

    fn submit_inner(&mut self, round: &Round) -> Result<(), VoteError> {
        // 0. A ballot that is not finite is missing: when the round holds
        //    one, the voted round is the scratch copy with it blanked.
        let mut pruned = self.blank_non_finite(round);

        // 1. Quorum.
        let expected = round.expected_count();
        let present = if pruned {
            self.scratch.round.present_count()
        } else {
            round.present_count()
        };
        if !self.quorum.is_met(present, expected) {
            return self.no_quorum(present, expected);
        }

        // 2. Exclusion: prune implausible numeric values before the vote.
        //    When anything was blanked or excluded, the pruned round lives
        //    in `self.scratch.round` (rebuilt in place, not cloned).
        pruned |= self.apply_exclusion(round, pruned);

        // 3. Vote, rewriting the verdict kept inside the outcome slot. When
        //    the previous round also voted, its buffers are recycled.
        let verdict = verdict_slot(&mut self.outcome);
        let voted = if pruned {
            self.voter.vote_into(&self.scratch.round, verdict)
        } else {
            self.voter.vote_into(round, verdict)
        };
        self.settle(voted)
    }

    /// Applies the quorum policy to a round that missed it.
    fn no_quorum(&mut self, present: usize, expected: usize) -> Result<(), VoteError> {
        let required = self.quorum.required(expected);
        let reason = FaultReason::NoQuorum { present, required };
        self.absorb(
            self.policy.on_no_quorum,
            reason,
            VoteError::NoQuorum { present, required },
        )
    }

    /// The tail both entries share: what the voter's answer makes of the
    /// outcome slot and the last good output.
    fn settle(&mut self, voted: Result<(), VoteError>) -> Result<(), VoteError> {
        match voted {
            Ok(()) => {
                if let RoundResult::Voted(v) = &self.outcome {
                    // In place when the kind matches: a vector or text
                    // verdict reuses the previous one's buffer.
                    match (&mut self.last_good, &v.value) {
                        (Some(Value::Number(last)), Value::Number(new)) => *last = *new,
                        (Some(Value::Vector(last)), Value::Vector(new)) => last.clone_from(new),
                        (Some(Value::Text(last)), Value::Text(new)) => last.clone_from(new),
                        (last, new) => *last = Some(new.clone()),
                    }
                }
                Ok(())
            }
            Err(VoteError::Tie { candidates }) => self.break_tie(candidates),
            Err(err) => {
                let reason = FaultReason::Voter(err.clone());
                self.absorb(self.policy.on_voter_error, reason, err)
            }
        }
    }

    /// Copies `round` into `self.scratch.round` with every ballot that is
    /// not finite — a NaN or infinite number, or a vector with such a
    /// coordinate — made missing, so quorum counts it absent and the voter
    /// never sees it. `false`, copying nothing, when every ballot is finite.
    fn blank_non_finite(&mut self, round: &Round) -> bool {
        let finite = |b: &Ballot| b.value.as_ref().is_none_or(is_finite);
        if round.ballots.iter().all(finite) {
            return false;
        }
        let s = &mut self.scratch.round;
        s.round = round.round;
        s.ballots.clone_from(&round.ballots);
        for b in &mut s.ballots {
            if !finite(b) {
                *b = Ballot::missing(b.module);
            }
        }
        true
    }

    /// Turns excluded ballots into missing ones inside `self.scratch.round`;
    /// `false` when nothing was excluded (the caller votes on the original
    /// round). With `in_place`, the scratch round already holds the round
    /// to prune (non-finite ballots blanked) and is pruned where it stands.
    /// Early-outs without touching the allocator when exclusion is
    /// disabled, when the round carries no numeric ballots, or when the
    /// policy excludes nothing.
    fn apply_exclusion(&mut self, round: &Round, in_place: bool) -> bool {
        if self.exclusion == Exclusion::None {
            return false;
        }
        let s = &mut self.scratch;
        s.numeric.clear();
        s.values.clear();
        let source = if in_place { &s.round } else { round };
        for (i, b) in source.ballots.iter().enumerate() {
            if let Some(v) = b.value.as_ref().and_then(Value::as_number) {
                s.numeric.push((i, v));
                s.values.push(v);
            }
        }
        if s.values.is_empty() {
            // No numeric ballots: nothing a numeric exclusion policy could
            // prune, so skip the policy entirely.
            return false;
        }
        self.exclusion.excluded_into(&s.values, &mut s.excluded);
        if s.excluded.is_empty() {
            return false;
        }
        if !in_place {
            s.round.round = round.round;
            s.round.ballots.clone_from(&round.ballots);
        }
        for &ei in &s.excluded {
            let (ballot_idx, _) = s.numeric[ei];
            let module = s.round.ballots[ballot_idx].module;
            s.round.ballots[ballot_idx] = Ballot::missing(module);
        }
        true
    }

    fn break_tie(&mut self, candidates: Vec<String>) -> Result<(), VoteError> {
        let chosen = match self.policy.on_tie {
            TieBreak::Error => return Err(VoteError::Tie { candidates }),
            TieBreak::First => {
                let mut sorted = candidates.clone();
                sorted.sort();
                sorted.into_iter().next()
            }
            TieBreak::NearPrevious => {
                let prev = self.last_good.as_ref().and_then(Value::as_text);
                match prev {
                    Some(p) if candidates.iter().any(|c| c == p) => Some(p.to_owned()),
                    _ => candidates.first().cloned(),
                }
            }
        };
        match chosen {
            Some(value) => {
                let value = Value::Text(value);
                self.last_good = Some(value.clone());
                self.outcome = RoundResult::TieBroken { value, candidates };
                Ok(())
            }
            None => Err(VoteError::Tie { candidates }),
        }
    }

    fn absorb(
        &mut self,
        action: FallbackAction,
        reason: FaultReason,
        err: VoteError,
    ) -> Result<(), VoteError> {
        match action {
            FallbackAction::Error => return Err(err),
            FallbackAction::Skip => self.outcome = RoundResult::Skipped { reason },
            FallbackAction::LastGood => {
                self.outcome = match self.last_good.clone() {
                    Some(value) => RoundResult::Fallback { value, reason },
                    None => RoundResult::Skipped { reason },
                }
            }
        }
        Ok(())
    }
}

/// The verdict inside the outcome slot, which holds one from here on: the
/// previous round's, buffers and all, when that round also voted.
fn verdict_slot(outcome: &mut RoundResult) -> &mut Verdict {
    if !matches!(outcome, RoundResult::Voted(_)) {
        *outcome = RoundResult::Voted(Verdict::empty());
    }
    match outcome {
        RoundResult::Voted(v) => v,
        _ => unreachable!("the slot was just set to Voted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{HistoryAlgorithm, HistoryVoter, MajorityVoter};
    use crate::round::ModuleId;

    fn engine() -> VotingEngine {
        VotingEngine::new(Box::new(
            HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid).with_bootstrap(true),
        ))
    }

    #[test]
    fn votes_on_full_round() {
        let mut e = engine();
        let out = e
            .submit(&Round::from_numbers(0, &[18.0, 18.1, 17.9]))
            .unwrap();
        assert!(matches!(out, RoundResult::Voted(_)));
    }

    #[test]
    fn sub_majority_missing_still_votes() {
        let mut e = engine();
        // 3 of 5 present: majority quorum met, vote proceeds.
        let round =
            Round::from_sparse_numbers(0, &[Some(18.0), None, Some(18.1), None, Some(17.9)]);
        let out = e.submit(&round).unwrap();
        assert!(out.is_voted());
    }

    #[test]
    fn majority_missing_falls_back_to_last_good() {
        let mut e = engine();
        e.submit(&Round::from_numbers(0, &[18.0, 18.1, 17.9, 18.05, 18.2]))
            .unwrap();
        let starved = Round::from_sparse_numbers(1, &[Some(18.4), None, None, None, None]);
        let out = e.submit(&starved).unwrap();
        match out {
            RoundResult::Fallback { value, reason } => {
                assert!(value.as_number().is_some());
                assert!(matches!(
                    reason,
                    FaultReason::NoQuorum {
                        present: 1,
                        required: 3
                    }
                ));
            }
            other => panic!("expected fallback, got {other:?}"),
        }
    }

    #[test]
    fn majority_missing_without_history_skips() {
        let mut e = engine();
        let starved = Round::from_sparse_numbers(0, &[Some(18.4), None, None]);
        let out = e.submit(&starved).unwrap();
        assert!(matches!(
            out,
            RoundResult::Skipped {
                reason: FaultReason::NoQuorum {
                    present: 1,
                    required: 2
                }
            }
        ));
    }

    #[test]
    fn non_finite_ballots_count_as_missing() {
        let mut e = engine();
        let poisoned = Round::from_numbers(0, &[18.4, f64::NAN, f64::INFINITY]);
        let out = e.submit(&poisoned).unwrap();
        assert!(matches!(
            out,
            RoundResult::Skipped {
                reason: FaultReason::NoQuorum {
                    present: 1,
                    required: 2
                }
            }
        ));
    }

    #[test]
    fn error_policy_surfaces_no_quorum() {
        let mut e = engine().with_policy(FaultPolicy {
            on_no_quorum: FallbackAction::Error,
            ..Default::default()
        });
        let starved = Round::from_sparse_numbers(0, &[Some(1.0), None, None]);
        let err = e.submit(&starved).unwrap_err();
        assert!(matches!(
            err,
            VoteError::NoQuorum {
                present: 1,
                required: 2
            }
        ));
    }

    #[test]
    fn exclusion_prunes_before_vote() {
        let mut e = engine().with_exclusion(Exclusion::Range {
            min: 0.0,
            max: 100.0,
        });
        let out = e
            .submit(&Round::from_numbers(0, &[18.0, 18.1, 5000.0]))
            .unwrap();
        match out {
            RoundResult::Voted(v) => {
                assert!((v.number().unwrap() - 18.05).abs() < 0.1);
            }
            other => panic!("expected vote, got {other:?}"),
        }
    }

    #[test]
    fn exclusion_can_starve_the_voter() {
        let mut e = engine()
            .with_quorum(Quorum::Any)
            .with_exclusion(Exclusion::Range { min: 0.0, max: 1.0 })
            .with_policy(FaultPolicy {
                on_voter_error: FallbackAction::Skip,
                ..Default::default()
            });
        let out = e.submit(&Round::from_numbers(0, &[50.0, 60.0])).unwrap();
        assert!(matches!(
            out,
            RoundResult::Skipped {
                reason: FaultReason::Voter(VoteError::EmptyRound)
            }
        ));
    }

    #[test]
    fn categorical_tie_broken_near_previous() {
        let mut e =
            VotingEngine::new(Box::new(MajorityVoter::with_defaults())).with_quorum(Quorum::Any);
        // Establish "open" as the accepted output.
        let r0 = Round::new(
            0,
            vec![
                crate::Ballot::new(ModuleId::new(0), "open"),
                crate::Ballot::new(ModuleId::new(1), "open"),
                crate::Ballot::new(ModuleId::new(2), "closed"),
            ],
        );
        e.submit(&r0).unwrap();
        // 2-2 tie with fresh modules: proximity to the previous output wins.
        let r1 = Round::new(
            1,
            vec![
                crate::Ballot::new(ModuleId::new(3), "open"),
                crate::Ballot::new(ModuleId::new(4), "open"),
                crate::Ballot::new(ModuleId::new(5), "closed"),
                crate::Ballot::new(ModuleId::new(6), "closed"),
            ],
        );
        let out = e.submit(&r1).unwrap();
        match out {
            RoundResult::TieBroken { value, candidates } => {
                assert_eq!(value.as_text(), Some("open"));
                assert_eq!(candidates.len(), 2);
            }
            other => panic!("expected tie-break, got {other:?}"),
        }
    }

    #[test]
    fn tie_error_policy_surfaces() {
        let mut e = VotingEngine::new(Box::new(MajorityVoter::with_defaults()))
            .with_quorum(Quorum::Any)
            .with_policy(FaultPolicy {
                on_tie: TieBreak::Error,
                ..Default::default()
            });
        let r = Round::new(
            0,
            vec![
                crate::Ballot::new(ModuleId::new(0), "a"),
                crate::Ballot::new(ModuleId::new(1), "b"),
            ],
        );
        assert!(matches!(
            e.submit(&r),
            Err(VoteError::Tie { candidates }) if candidates.len() == 2
        ));
    }

    #[test]
    fn tie_first_policy_is_deterministic() {
        let mut e = VotingEngine::new(Box::new(MajorityVoter::with_defaults()))
            .with_quorum(Quorum::Any)
            .with_policy(FaultPolicy {
                on_tie: TieBreak::First,
                ..Default::default()
            });
        let r = Round::new(
            0,
            vec![
                crate::Ballot::new(ModuleId::new(0), "zeta"),
                crate::Ballot::new(ModuleId::new(1), "alpha"),
            ],
        );
        let out = e.submit(&r).unwrap();
        assert_eq!(out.value().unwrap().as_text(), Some("alpha"));
    }

    #[test]
    fn fallback_re_emits_the_last_vote() {
        let mut e = engine();
        let out = e.submit(&Round::from_numbers(0, &[2.0, 2.0, 2.0])).unwrap();
        assert!(matches!(out, RoundResult::Voted(_)));
        let out = e
            .submit(&Round::from_sparse_numbers(1, &[None, None, Some(1.0)]))
            .unwrap();
        assert!(matches!(
            out,
            RoundResult::Fallback {
                value: Value::Number(v),
                reason: FaultReason::NoQuorum { .. },
            } if v == 2.0
        ));
    }

    #[test]
    fn exclusion_none_short_circuits_without_pruning() {
        // Exclusion::None must never reach the scratch round: the verdict is
        // identical to a no-exclusion engine, outlier included.
        let mut plain = VotingEngine::new(Box::new(MajorityVoter::with_defaults()));
        let mut none = VotingEngine::new(Box::new(MajorityVoter::with_defaults()))
            .with_exclusion(Exclusion::None);
        let round = Round::from_numbers(0, &[18.0, 18.0, 99.0]);
        let a = plain.submit(&round).unwrap();
        let b = none.submit(&round).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn non_numeric_rounds_skip_exclusion_scan() {
        // A text-only round has no numeric ballots: the numeric exclusion
        // policy must early-out and leave the round untouched rather than
        // erroring or blanking anything.
        let mut e = VotingEngine::new(Box::new(MajorityVoter::with_defaults()))
            .with_exclusion(Exclusion::StdDev(1.0));
        let round = Round::new(
            0,
            vec![
                crate::round::Ballot::new(ModuleId::new(0), "on"),
                crate::round::Ballot::new(ModuleId::new(1), "on"),
                crate::round::Ballot::new(ModuleId::new(2), "off"),
            ],
        );
        let out = e.submit(&round).unwrap();
        assert_eq!(out.value().and_then(Value::as_text), Some("on"));
    }

    #[test]
    fn submit_ref_matches_submit() {
        // The borrowing hot path and the cloning wrapper must agree round by
        // round, including exclusion-pruned and fallback rounds.
        let mut a = engine().with_exclusion(Exclusion::StdDev(1.0));
        let mut b = engine().with_exclusion(Exclusion::StdDev(1.0));
        let rounds = [
            Round::from_numbers(0, &[18.0, 18.1, 17.9, 24.0]),
            Round::from_numbers(1, &[18.0, 18.1, 17.9, 24.0]),
            Round::from_sparse_numbers(2, &[Some(18.0), None, None, None]),
            Round::from_numbers(3, &[18.0, 18.1, 18.05, 17.95]),
        ];
        for round in &rounds {
            let owned = a.submit(round).unwrap();
            let borrowed = b.submit_ref(round).unwrap();
            assert_eq!(format!("{owned:?}"), format!("{borrowed:?}"));
        }
    }
}
