//! Soft-Dynamic-Threshold History-Based Weighted Average
//! (Das & Bhattacharya, 2010 — reference [11] of the paper).
//!
//! Identical to the Standard voter except that the *agreement definition*
//! driving the history records is graded rather than binary: "values between
//! 1 and 0 can be assigned if values are not in agreement based on the
//! accepted error threshold, but are in agreement based on a multiple of it"
//! (§4). The multiple is [`crate::AgreementParams::soft_multiplier`].

use super::common;
use super::{Verdict, Voter, VoterConfig};
use crate::collation::collate;
use crate::error::VoteError;
use crate::history::{HistoryStore, MemoryHistory};
use crate::round::{ModuleId, Round};

/// Soft-dynamic-threshold history-weighted voter (`Sdt`).
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{SoftDynamicVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = SoftDynamicVoter::with_defaults();
/// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 18.2]))?;
/// assert!(verdict.confidence > 0.9);
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SoftDynamicVoter<S: HistoryStore = MemoryHistory> {
    config: VoterConfig,
    store: S,
    scratch: common::Scratch,
}

impl SoftDynamicVoter<MemoryHistory> {
    /// Creates an Sdt voter with default configuration and in-memory
    /// history.
    pub fn with_defaults() -> Self {
        Self::new(VoterConfig::default(), MemoryHistory::new())
    }
}

impl<S: HistoryStore> SoftDynamicVoter<S> {
    /// Creates an Sdt voter over the given history store.
    pub fn new(config: VoterConfig, store: S) -> Self {
        SoftDynamicVoter {
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

impl<S: HistoryStore + Send> Voter for SoftDynamicVoter<S> {
    fn name(&self) -> &'static str {
        "soft-dynamic-threshold"
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

        // The weights are the history records themselves.
        let output = match collate(
            self.config.collation,
            &self.scratch.values,
            &self.scratch.histories,
        ) {
            Some(v) => v,
            None => self.scratch.values.iter().sum::<f64>() / self.scratch.values.len() as f64,
        };

        // Graded agreement drives the record update.
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
            &self.scratch.histories,
            output,
        );
        common::fill_verdict(
            out,
            &self.scratch.cand,
            &self.scratch.histories,
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
    use super::super::StandardVoter;
    use super::*;

    #[test]
    fn borderline_disagreement_is_penalised_gently() {
        // A candidate in the soft band (beyond tol, inside 2×tol) should
        // lose less record than one far outside.
        let mut v = SoftDynamicVoter::with_defaults();
        // Output = 18.6; tol(20.4, 18.6) = 1.02; soft edge = 2.04.
        // 20.4 is 1.8 away → deep in the soft band: score ≈ 0.24,
        // so its record drops a little, but less than a full penalty.
        v.vote(&Round::from_numbers(0, &[18.0, 18.0, 18.0, 20.4]))
            .unwrap();
        let hs = v.histories();
        let borderline = hs[3].1;
        assert!(borderline > 0.9 && borderline < 1.0, "h = {borderline}");
    }

    #[test]
    fn far_outlier_gets_full_penalty() {
        let mut v = SoftDynamicVoter::with_defaults();
        v.vote(&Round::from_numbers(0, &[18.0, 18.1, 18.05, 40.0]))
            .unwrap();
        let hs = v.histories();
        assert!((hs[3].1 - 0.9).abs() < 1e-9, "h = {}", hs[3].1);
    }

    #[test]
    fn soft_penalty_is_smaller_than_standard_penalty() {
        let round = Round::from_numbers(0, &[18.0, 18.0, 18.0, 20.4]);
        let mut soft = SoftDynamicVoter::with_defaults();
        let mut std_v = StandardVoter::with_defaults();
        soft.vote(&round).unwrap();
        std_v.vote(&round).unwrap();
        let soft_h = soft.histories()[3].1;
        let std_h = std_v.histories()[3].1;
        assert!(
            soft_h > std_h,
            "soft {soft_h} should exceed standard {std_h} for a borderline value"
        );
    }

    #[test]
    fn identical_outputs_to_standard_on_clean_data() {
        // When all values agree tightly, Sdt and Standard coincide —
        // the Fig. 6-b observation that all variants match on clean data.
        let mut soft = SoftDynamicVoter::with_defaults();
        let mut std_v = StandardVoter::with_defaults();
        for r in 0..50 {
            let jitter = (r % 5) as f64 * 0.01;
            let round = Round::from_numbers(r, &[18.0 + jitter, 18.1, 17.95, 18.05]);
            let a = soft.vote(&round).unwrap().number().unwrap();
            let b = std_v.vote(&round).unwrap().number().unwrap();
            assert!((a - b).abs() < 1e-12, "round {r}: {a} vs {b}");
        }
    }

    #[test]
    fn zero_history_falls_back_to_plain_mean() {
        let store = MemoryHistory::with_records([(ModuleId::new(0), 0.0), (ModuleId::new(1), 0.0)]);
        let mut v = SoftDynamicVoter::new(VoterConfig::default(), store);
        let verdict = v.vote(&Round::from_numbers(0, &[5.0, 15.0])).unwrap();
        assert_eq!(verdict.number(), Some(10.0));
    }

    #[test]
    fn reset_and_statefulness() {
        let mut v = SoftDynamicVoter::with_defaults();
        assert!(v.is_stateful());
        v.vote(&Round::from_numbers(0, &[1.0, 2.0])).unwrap();
        assert_eq!(v.histories().len(), 2);
        v.reset();
        assert!(v.histories().is_empty());
    }
}
