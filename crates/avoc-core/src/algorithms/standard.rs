//! The Standard history-based weighted average voter
//! (Latif-Shabgahi, Bass & Bennett, 2001 — reference [17] of the paper).
//!
//! Each module carries a historical record in `[0, 1]`. The round output is
//! the history-weighted collation of the candidate values; afterwards each
//! module's record is rewarded or penalised by its *binary* agreement with
//! that output. The paper's Fig. 6-c observation — an injected fault causes
//! "high initial skew, which is then slowly mitigated as the faulty sensor
//! is de-emphasised", without ever being eliminated — falls out of this
//! design: the faulty module's weight decays but its value keeps pulling the
//! mean until the weight reaches 0.

use super::common;
use super::{Verdict, Voter, VoterConfig};
use crate::collation::collate;
use crate::error::VoteError;
use crate::history::{HistoryStore, MemoryHistory};
use crate::round::{ModuleId, Round};

/// History-based weighted average voter (`standard` in Fig. 6).
///
/// Generic over the history storage backend; defaults to the in-memory
/// store.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{StandardVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = StandardVoter::with_defaults();
/// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 18.2]))?;
/// assert!(verdict.number().is_some());
/// assert_eq!(voter.histories().len(), 3);
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StandardVoter<S: HistoryStore = MemoryHistory> {
    config: VoterConfig,
    store: S,
    scratch: common::Scratch,
}

impl StandardVoter<MemoryHistory> {
    /// Creates a standard voter with default configuration and in-memory
    /// history.
    pub fn with_defaults() -> Self {
        Self::new(VoterConfig::default(), MemoryHistory::new())
    }
}

impl<S: HistoryStore> StandardVoter<S> {
    /// Creates a standard voter over the given history store.
    pub fn new(config: VoterConfig, store: S) -> Self {
        StandardVoter {
            config,
            store,
            scratch: common::Scratch::default(),
        }
    }

    /// The voter's configuration.
    pub fn config(&self) -> &VoterConfig {
        &self.config
    }

    /// Borrows the underlying history store.
    pub fn store(&self) -> &S {
        &self.store
    }
}

impl<S: HistoryStore + Send> Voter for StandardVoter<S> {
    fn name(&self) -> &'static str {
        "standard"
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

        // History-weighted vote; all-zero history falls back to the plain
        // average (§5: "history-based algorithms typically fall back to
        // standard average ... when the weights become 0"). The weights
        // *are* the history records, so the history buffer doubles as the
        // weight slice.
        let output = match collate(
            self.config.collation,
            &self.scratch.values,
            &self.scratch.histories,
        ) {
            Some(v) => v,
            None => self.scratch.values.iter().sum::<f64>() / self.scratch.values.len() as f64,
        };

        // Binary agreement drives the record update.
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
    use super::*;
    use crate::history::HistoryUpdate;

    fn faulty_round(round: u64) -> Round {
        // E4 (index 3) reads +2 above the others: far enough that the binary
        // threshold flags it against the (skewed) output, close enough that
        // the healthy sensors still agree with that output — the regime in
        // which Standard discriminates.
        Round::from_numbers(round, &[18.0, 18.1, 17.9, 20.0, 18.05])
    }

    #[test]
    fn first_round_is_plain_average_of_unit_histories() {
        let mut v = StandardVoter::with_defaults();
        let verdict = v.vote(&Round::from_numbers(0, &[10.0, 20.0])).unwrap();
        assert_eq!(verdict.number(), Some(15.0));
    }

    #[test]
    fn faulty_module_history_decays() {
        let mut v = StandardVoter::with_defaults();
        for r in 0..5 {
            v.vote(&faulty_round(r)).unwrap();
        }
        let hs = v.histories();
        let faulty = hs[3].1;
        let healthy = hs[0].1;
        assert!(faulty < healthy, "faulty {faulty} vs healthy {healthy}");
        assert!(faulty <= 0.5 + 1e-9);
    }

    #[test]
    fn skew_is_mitigated_slowly_but_not_eliminated_immediately() {
        let mut v = StandardVoter::with_defaults();
        let first = v.vote(&faulty_round(0)).unwrap().number().unwrap();
        let mut last = first;
        for r in 1..6 {
            last = v.vote(&faulty_round(r)).unwrap().number().unwrap();
        }
        let clean_mean = (18.0 + 18.1 + 17.9 + 18.05) / 4.0;
        // Output moves towards the clean mean as the faulty weight decays...
        assert!(last < first);
        // ...but within a few rounds the skew is not fully gone.
        assert!(
            last > clean_mean + 0.01,
            "last {last} vs clean {clean_mean}"
        );
    }

    #[test]
    fn after_history_zeroes_skew_disappears() {
        let mut v = StandardVoter::with_defaults();
        for r in 0..20 {
            v.vote(&faulty_round(r)).unwrap();
        }
        let out = v.vote(&faulty_round(20)).unwrap().number().unwrap();
        let clean_mean = (18.0 + 18.1 + 17.9 + 18.05) / 4.0;
        assert!((out - clean_mean).abs() < 0.05, "out = {out}");
        // The faulty module's record has bottomed out.
        assert_eq!(v.histories()[3].1, 0.0);
    }

    #[test]
    fn all_zero_histories_fall_back_to_plain_mean() {
        let store = MemoryHistory::with_records([(ModuleId::new(0), 0.0), (ModuleId::new(1), 0.0)]);
        let mut v = StandardVoter::new(VoterConfig::default(), store);
        let verdict = v.vote(&Round::from_numbers(0, &[10.0, 30.0])).unwrap();
        assert_eq!(verdict.number(), Some(20.0));
    }

    #[test]
    fn reset_clears_history() {
        let mut v = StandardVoter::with_defaults();
        v.vote(&faulty_round(0)).unwrap();
        assert!(!v.histories().is_empty());
        v.reset();
        assert!(v.histories().is_empty());
    }

    #[test]
    fn custom_update_rate_accelerates_decay() {
        let cfg = VoterConfig::default().with_update(HistoryUpdate::new(0.5));
        let mut v = StandardVoter::new(cfg, MemoryHistory::new());
        v.vote(&faulty_round(0)).unwrap();
        v.vote(&faulty_round(1)).unwrap();
        // After two rounds at rate 0.5 the faulty record is at 0.
        assert_eq!(v.histories()[3].1, 0.0);
    }

    #[test]
    fn is_stateful() {
        let v = StandardVoter::with_defaults();
        assert!(v.is_stateful());
        assert_eq!(v.name(), "standard");
    }
}
