//! The voting algorithm family (§4–§5 of the paper).
//!
//! | Voter | History | Weights | Default collation | Bootstrap |
//! |---|---|---|---|---|
//! | [`AverageVoter`] | — | uniform | weighted mean | — |
//! | [`HistoryVoter`] (`Stateless`) | — | peer agreement | weighted mean | — |
//! | [`HistoryVoter`] (`Standard`) | binary agreement | history | weighted mean | — |
//! | [`HistoryVoter`] (`ModuleElimination`) | binary agreement | history, below-average ⇒ 0 | weighted mean | — |
//! | [`HistoryVoter`] (`SoftDynamicThreshold`) | graded agreement | history | weighted mean | — |
//! | [`HistoryVoter`] (`Hybrid`) | graded agreement | peer agreement + elimination | mean-NN | — |
//! | [`HistoryVoter`] (`Stateless`) `.with_bootstrap(true)`: COV | — | cluster membership | per collation | every round |
//! | [`HistoryVoter`] (`Hybrid`) `.with_bootstrap(true)`: AVOC | graded agreement | as Hybrid | mean-NN | clustering when history is flat |
//! | [`MajorityVoter`] | binary agreement | history | weighted majority | — |
//!
//! All voters implement [`Voter`] and can be driven directly or through
//! [`crate::engine::VotingEngine`], which adds quorum, exclusion and fault
//! policies on top.

mod average;
mod common;
mod history_voter;
mod majority;

pub use average::AverageVoter;
pub use history_voter::{HistoryAlgorithm, HistoryVoter};
pub use majority::{MajorityHistory, MajorityVoter};

use crate::agreement::AgreementParams;
use crate::collation::Collation;
use crate::error::VoteError;
use crate::history::HistoryUpdate;
use crate::round::{ModuleId, Round};
use crate::value::Value;

/// Configuration shared by every numeric voter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VoterConfig {
    /// How agreement between candidate values is scored.
    pub agreement: AgreementParams,
    /// How historical records move after each round.
    pub update: HistoryUpdate,
    /// How the weighted candidates are collated into one output.
    pub collation: Collation,
}

impl VoterConfig {
    /// Creates a configuration with the paper's UC-1 defaults
    /// (5% relative error, soft multiplier 2, rate 0.1, weighted mean).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the agreement parameters.
    pub fn with_agreement(mut self, agreement: AgreementParams) -> Self {
        self.agreement = agreement;
        self
    }

    /// Sets the history update rule.
    pub fn with_update(mut self, update: HistoryUpdate) -> Self {
        self.update = update;
        self
    }

    /// Sets the collation method.
    pub fn with_collation(mut self, collation: Collation) -> Self {
        self.collation = collation;
        self
    }
}

/// The outcome of one voting round.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The fused output value.
    pub value: Value,
    /// The weight each candidate carried in the vote, in ballot order
    /// (only candidates that submitted a value appear).
    pub weights: Vec<(ModuleId, f64)>,
    /// Modules whose value was eliminated (zero weight) this round.
    pub excluded: Vec<ModuleId>,
    /// Fraction of voting weight in agreement with the output, in `[0, 1]`.
    pub confidence: f64,
    /// Whether AVOC's clustering bootstrap produced this round's output.
    pub bootstrapped: bool,
}

impl Verdict {
    /// A placeholder verdict whose buffers are empty (and unallocated),
    /// meant to be filled in place via [`Voter::vote_into`].
    pub fn empty() -> Self {
        Verdict {
            value: Value::Number(f64::NAN),
            weights: Vec::new(),
            excluded: Vec::new(),
            confidence: 0.0,
            bootstrapped: false,
        }
    }

    /// The scalar output, when the vote was numeric.
    pub fn number(&self) -> Option<f64> {
        self.value.as_number()
    }
}

/// A software voter fusing one round of redundant candidate values.
///
/// Stateful voters carry per-module history across calls; [`Voter::reset`]
/// returns them to the bootstrapped state. Voters are `Send` so an edge
/// service can own them on a worker thread.
pub trait Voter: Send {
    /// A short, stable algorithm name (`"standard"`, `"avoc"`, …) used in
    /// reports and VDX round-trips.
    fn name(&self) -> &'static str;

    /// Fuses one round *into* a caller-owned verdict, reusing its buffers.
    ///
    /// This is the one method every voter implements, and the hot path:
    /// voters with per-instance scratch buffers fill `out` in place, so a
    /// steady-state round performs no heap allocation at all.
    ///
    /// On error, `out` is unspecified (it may hold a stale verdict).
    ///
    /// # Errors
    ///
    /// [`VoteError::EmptyRound`] when no ballot carries a usable value, and
    /// type errors when ballots don't match the voter's value kind. Quorum
    /// is *not* checked here — that is [`crate::engine::VotingEngine`]'s
    /// job.
    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError>;

    /// Fuses a row — value `i` is module `i`'s, every module present —
    /// into `out`, as [`Voter::vote_into`] would fuse
    /// [`Round::from_numbers`] of it, without building the round. `None`
    /// when the voter takes no row — the default, and a stateful
    /// `HistoryVoter` whose store does not hold every record side by side
    /// — having changed nothing: the caller votes the round as a
    /// [`Round`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Voter::vote_into`], inside the `Some`.
    fn vote_row_into(
        &mut self,
        values: &[f64],
        out: &mut Verdict,
    ) -> Option<Result<(), VoteError>> {
        let _ = (values, out);
        None
    }

    /// Fuses one round into a fresh verdict: [`Voter::vote_into`] on
    /// [`Verdict::empty`].
    ///
    /// # Errors
    ///
    /// Exactly as [`Voter::vote_into`].
    fn vote(&mut self, round: &Round) -> Result<Verdict, VoteError> {
        let mut out = Verdict::empty();
        self.vote_into(round, &mut out)?;
        Ok(out)
    }

    /// Current historical records, ascending by module. Empty for stateless
    /// voters.
    fn histories(&self) -> Vec<(ModuleId, f64)> {
        Vec::new()
    }

    /// Clears accumulated history.
    fn reset(&mut self) {}

    /// Installs historical records wholesale — the warm-restart path: a
    /// service restoring a checkpointed session seeds the voter with the
    /// records it had before the crash, so the history-aware weighting
    /// resumes instead of re-entering the all-records-flat reset window the
    /// paper warns about. Values are clamped to `[0, 1]` by the underlying
    /// store. Stateless voters ignore the call (the default).
    fn seed_history(&mut self, records: &[(ModuleId, f64)]) {
        let _ = records;
    }

    /// Whether this voter maintains per-module history.
    fn is_stateful(&self) -> bool {
        false
    }

    /// Whether `round`'s records are flat, so a bootstrapping voter would
    /// cluster it. Reads only the modules on the ballots, never their
    /// values. `false` for voters without a bootstrap (the default).
    fn bootstrap_pending(&self, round: &Round) -> bool {
        let _ = round;
        false
    }
}

/// Blanket impl so `Box<dyn Voter>` is itself a `Voter`, letting engines and
/// factories compose voters without caring about concrete types.
impl Voter for Box<dyn Voter> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        (**self).vote_into(round, out)
    }
    fn vote_row_into(
        &mut self,
        values: &[f64],
        out: &mut Verdict,
    ) -> Option<Result<(), VoteError>> {
        (**self).vote_row_into(values, out)
    }
    fn histories(&self) -> Vec<(ModuleId, f64)> {
        (**self).histories()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn seed_history(&mut self, records: &[(ModuleId, f64)]) {
        (**self).seed_history(records)
    }
    fn is_stateful(&self) -> bool {
        (**self).is_stateful()
    }
    fn bootstrap_pending(&self, round: &Round) -> bool {
        (**self).bootstrap_pending(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::MemoryHistory;

    #[test]
    fn config_builder_chains() {
        let cfg = VoterConfig::new()
            .with_collation(Collation::Median)
            .with_update(HistoryUpdate::new(0.2));
        assert_eq!(cfg.collation, Collation::Median);
        assert_eq!(cfg.update.rate, 0.2);
    }

    #[test]
    fn boxed_voter_is_a_voter() {
        let mut v: Box<dyn Voter> = Box::new(AverageVoter::new());
        let round = Round::from_numbers(0, &[1.0, 3.0]);
        let verdict = v.vote(&round).unwrap();
        assert_eq!(verdict.number(), Some(2.0));
        assert_eq!(v.name(), "average");
        assert!(!v.is_stateful());
    }

    #[test]
    fn voters_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AverageVoter>();
        assert_send::<HistoryVoter<MemoryHistory>>();
        assert_send::<Box<dyn Voter>>();
    }
}
