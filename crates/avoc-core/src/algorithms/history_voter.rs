//! The numeric voters a VDX spec describes, as one family: a history
//! algorithm, a collation method and AVOC's clustering bootstrap.
//!
//! Each module carries a historical record in `[0, 1]`. A round weights the
//! candidates, collates them into one output, and then rewards or penalises
//! every module's record by its agreement with that output — eliminated
//! modules included, so they can rehabilitate. The algorithms differ on
//! three axes only:
//!
//! | Algorithm | Agreement score | Below-average elimination | Vote weights |
//! |---|---|---|---|
//! | Stateless (no records) | — | — | peer agreement |
//! | Standard (Latif-Shabgahi et al., ref. [17]) | binary | — | history |
//! | Module-Elimination (ME) | binary | yes | history |
//! | Soft-Dynamic-Threshold (Das & Bhattacharya, ref. [11]) | graded | — | history |
//! | Hybrid (Alahmadi & Soh, ref. [7]) | graded | yes | peer agreement |
//!
//! Standard's Fig. 6-c shape — "high initial skew, which is then slowly
//! mitigated as the faulty sensor is de-emphasised" — falls out of weighting
//! by the record itself: the faulty value keeps pulling the mean until its
//! record reaches 0. ME zero-weights modules "until their historical records
//! improve by submitting better values, even if discarded in the voting
//! itself". SDT grades agreement: "values between 1 and 0 can be assigned if
//! values are not in agreement based on the accepted error threshold, but are
//! in agreement based on a multiple of it" ([`crate::AgreementParams::soft_multiplier`]).
//! Hybrid keeps graded records solely to eliminate, "utilising
//! agreement-based and not history-based weights", and picks "a winning
//! value rather than ... the resulting average" by mean-nearest-neighbour.
//!
//! **The bootstrap (§5).** AVOC "builds atop the Hybrid algorithm by
//! applying a simplified clustering algorithm during the first round when
//! the weights are all 0" (or all 1, a new set), and seeds the records from
//! the clusters. Stateless records are always flat, so there every round
//! clusters: COV, which "significantly outperforms [the] other stateless
//! approach" (§7).

use super::common;
use super::{Verdict, Voter, VoterConfig};
use crate::collation::{collate, Collation};
use crate::error::VoteError;
use crate::history::{HistoryStore, MemoryHistory, INITIAL_HISTORY};
use crate::round::{ModuleId, Round};

/// Which algorithm a [`HistoryVoter`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryAlgorithm {
    /// No records: each candidate weighs its agreement with its peers in
    /// this round only (`stateless-weighted`), the "weighted average without
    /// history" baseline. A lone candidate gets weight 1.
    ///
    /// ```
    /// use avoc_core::{algorithms::{HistoryAlgorithm, HistoryVoter, Voter}, Round};
    ///
    /// let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::Stateless);
    /// // The 25.0 outlier agrees with nobody, so its weight is 0.
    /// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.2, 18.1, 25.0]))?;
    /// assert!((verdict.number().unwrap() - 18.1).abs() < 0.1);
    /// # Ok::<(), avoc_core::VoteError>(())
    /// ```
    Stateless,
    /// History weights, binary agreement (`standard` in Fig. 6).
    ///
    /// ```
    /// use avoc_core::{algorithms::{HistoryAlgorithm, HistoryVoter, Voter}, Round};
    ///
    /// let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::Standard);
    /// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 18.2]))?;
    /// assert!(verdict.number().is_some());
    /// assert_eq!(voter.histories().len(), 3);
    /// # Ok::<(), avoc_core::VoteError>(())
    /// ```
    Standard,
    /// Standard plus below-average elimination (`ME`).
    ModuleElimination,
    /// Standard with graded agreement (`Sdt`).
    ///
    /// ```
    /// use avoc_core::{algorithms::{HistoryAlgorithm, HistoryVoter, Voter}, Round};
    ///
    /// let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::SoftDynamicThreshold);
    /// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 18.2]))?;
    /// assert!(verdict.confidence > 0.9);
    /// # Ok::<(), avoc_core::VoteError>(())
    /// ```
    SoftDynamicThreshold,
    /// Elimination by graded records, peer-agreement weights (`Hybrid`).
    ///
    /// ```
    /// use avoc_core::{algorithms::{HistoryAlgorithm, HistoryVoter, Voter}, Round};
    ///
    /// let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid);
    /// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.2, 18.1]))?;
    /// // Mean-nearest-neighbour: the output is one of the submitted values.
    /// assert_eq!(verdict.number(), Some(18.1));
    /// # Ok::<(), avoc_core::VoteError>(())
    /// ```
    Hybrid,
}

impl HistoryAlgorithm {
    /// Whether the algorithm keeps per-module records at all.
    fn stateful(self) -> bool {
        self != Self::Stateless
    }

    /// Whether below-average records are eliminated from the round.
    fn eliminates(self) -> bool {
        matches!(self, Self::ModuleElimination | Self::Hybrid)
    }

    /// Whether votes weigh peer agreement rather than the records.
    fn peer_weighted(self) -> bool {
        matches!(self, Self::Stateless | Self::Hybrid)
    }
}

/// A weighted voter running one [`HistoryAlgorithm`], optionally with
/// AVOC's clustering bootstrap, over any history store (in-memory by
/// default).
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter, Voter};
/// use avoc_core::{ModuleId, Round};
///
/// let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::ModuleElimination);
/// // Round 1: the faulty candidate damages its record.
/// voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 17.9, 20.0]))?;
/// // Round 2: it is eliminated outright.
/// let verdict = voter.vote(&Round::from_numbers(1, &[18.0, 18.1, 17.9, 20.0]))?;
/// assert_eq!(verdict.excluded, vec![ModuleId::new(3)]);
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HistoryVoter<S: HistoryStore = MemoryHistory> {
    algorithm: HistoryAlgorithm,
    bootstrap: bool,
    config: VoterConfig,
    store: S,
    scratch: common::Scratch,
    /// The previous round's output: the bootstrap's tie-break reference.
    last_output: Option<f64>,
}

impl HistoryVoter<MemoryHistory> {
    /// Creates a voter with the paper's defaults and in-memory history:
    /// mean-nearest-neighbour collation for Hybrid, weighted mean otherwise.
    pub fn with_defaults(algorithm: HistoryAlgorithm) -> Self {
        let collation = match algorithm {
            HistoryAlgorithm::Hybrid => Collation::MeanNearestNeighbor,
            _ => Collation::WeightedMean,
        };
        let config = VoterConfig::default().with_collation(collation);
        Self::new(algorithm, config, MemoryHistory::new())
    }
}

impl<S: HistoryStore> HistoryVoter<S> {
    /// Creates a voter running `algorithm` over the given history store,
    /// with the bootstrap off.
    pub fn new(algorithm: HistoryAlgorithm, config: VoterConfig, store: S) -> Self {
        HistoryVoter {
            algorithm,
            bootstrap: false,
            config,
            store,
            scratch: common::Scratch::default(),
            last_output: None,
        }
    }

    /// Turns the clustering bootstrap on or off (VDX's `bootstrapping`).
    /// A round whose records are flat ([`HistoryVoter::bootstrap_pending`])
    /// is voted by clustering, and a stateful voter's records are seeded
    /// from it: `1` for the winning group, `0` for outliers. Hybrid with the
    /// bootstrap is AVOC:
    ///
    /// ```
    /// use avoc_core::{algorithms::{HistoryAlgorithm, HistoryVoter, Voter}, Round};
    ///
    /// let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid).with_bootstrap(true);
    /// // Fresh history → the first round is a clustering round, so the
    /// // outlier never touches the output.
    /// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.1, 24.0, 17.9]))?;
    /// assert!(verdict.bootstrapped);
    /// assert!(verdict.number().unwrap() < 19.0);
    /// # Ok::<(), avoc_core::VoteError>(())
    /// ```
    ///
    /// Stateless with the bootstrap clusters every round (COV):
    ///
    /// ```
    /// use avoc_core::{algorithms::{HistoryAlgorithm, HistoryVoter, Voter}, Round};
    ///
    /// let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::Stateless).with_bootstrap(true);
    /// // The 25.0 outlier is excluded in the very first round.
    /// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.2, 25.0, 18.1]))?;
    /// assert!((verdict.number().unwrap() - 18.1).abs() < 1e-9);
    /// # Ok::<(), avoc_core::VoteError>(())
    /// ```
    pub fn with_bootstrap(mut self, bootstrap: bool) -> Self {
        self.bootstrap = bootstrap;
        self
    }

    /// Whether `round`'s records are flat, so a bootstrapping voter would
    /// cluster it: always for [`HistoryAlgorithm::Stateless`]; otherwise when
    /// every record is new (the paper's "all records are 1") or every record
    /// has collapsed to `0` (a system failure or extreme data spike).
    pub fn bootstrap_pending(&self, round: &Round) -> bool {
        if !self.algorithm.stateful() {
            return true;
        }
        let (mut any, mut all_new, mut all_zero) = (false, true, true);
        for ballot in &round.ballots {
            let record = self.store.get(ballot.module);
            any = true;
            all_new &= record.is_none();
            all_zero &= record.is_some_and(|h| h.abs() <= 1e-12); // unrecorded ≠ collapsed
        }
        any && (all_new || all_zero)
    }

    /// Clusters the candidates, collates the largest group (ties broken near
    /// the previous output) and seeds any records from the membership.
    fn cluster_vote(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        // A stateful voter clusters once per (re)start, so the clusterer's
        // allocations stay off its steady-state hot path.
        let s = &mut self.scratch;
        s.load_candidates(round)?;
        let clustering = self.config.agreement.clusterer().cluster(&s.values);
        let winner = match self.last_output {
            Some(r) => clustering.largest_cluster_near(r),
            None => clustering.largest_cluster(),
        }
        .ok_or(VoteError::EmptyRound)?;

        let output = match self.config.collation {
            Collation::MeanNearestNeighbor => winner.nearest_real_value(),
            // Unweighted peers: WeightedMean and Median emit the group mean.
            Collation::WeightedMean | Collation::Median => winner.mean(),
        };

        s.weights.clear();
        s.weights.resize(s.values.len(), 0.0);
        for &i in winner.members() {
            s.weights[i] = 1.0;
        }
        if self.algorithm.stateful() {
            // "Better history adjustment in round 1".
            for (&(m, _), &w) in s.cand.iter().zip(&s.weights) {
                self.store
                    .set(m, if w > 0.0 { INITIAL_HISTORY } else { 0.0 });
            }
        }
        let confidence = clustering.majority_fraction();
        common::fill_verdict(out, &s.cand, &s.weights, output, confidence, true);
        Ok(())
    }

    /// The weighted round: fetch → weight → collate → score → update.
    fn weighted_vote(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        let algorithm = self.algorithm;
        let s = &mut self.scratch;
        s.load_candidates(round)?;
        let n = s.values.len();

        // §5: history voters "fall back to standard average ... until a
        // historical record is established". Hybrid has none to weigh by (the
        // spike AVOC's bootstrap removes); the others weigh by flat records.
        let store = &self.store;
        let flat_at_initial = algorithm == HistoryAlgorithm::Hybrid
            && s.cand.iter().all(|(m, _)| store.get(*m).is_none());
        if algorithm.stateful() {
            common::fetch_histories_into(&mut self.store, &s.cand, &mut s.histories);
        }

        s.weights.clear();
        if flat_at_initial {
            s.weights.resize(n, 1.0);
        } else if algorithm.peer_weighted() {
            // Peer-agreement weights among the survivors (Stateless: all).
            if algorithm.eliminates() {
                common::elimination_mask_into(&s.histories, &mut s.mask);
            } else {
                s.mask.clear();
                s.mask.resize(n, true);
            }
            s.matrix.soft_in_place(&self.config.agreement, &s.values);
            let (mask, matrix) = (&s.mask, &s.matrix);
            let support = |i: usize| mask[i].then(|| matrix.peer_support_among(i, mask));
            s.weights.extend((0..n).map(|i| support(i).unwrap_or(0.0)));
            // A single surviving candidate has no peers to agree with.
            let mut survivors = (0..n).filter(|&i| s.mask[i]);
            if let (Some(i), None) = (survivors.next(), survivors.next()) {
                s.weights[i] = 1.0;
            }
        } else if algorithm.eliminates() {
            common::elimination_mask_into(&s.histories, &mut s.mask);
            let kept = s.histories.iter().zip(&s.mask);
            s.weights
                .extend(kept.map(|(&h, &keep)| if keep { h } else { 0.0 }));
        } else {
            s.weights.extend_from_slice(&s.histories);
        }

        // That fallback is the "standard average", whatever the collation.
        let collation = if flat_at_initial {
            Collation::WeightedMean
        } else {
            self.config.collation
        };
        let output = match collate(collation, &s.values, &s.weights) {
            Some(v) => v,
            // All weights zero (collapsed, eliminated or disagreeing): the plain mean.
            None => s.values.iter().sum::<f64>() / n as f64,
        };

        // Agreement with the output, graded or binary, drives every record.
        let agreement = self.config.agreement;
        if algorithm.stateful() {
            let soft = matches!(
                algorithm,
                HistoryAlgorithm::SoftDynamicThreshold | HistoryAlgorithm::Hybrid
            );
            s.scores.clear();
            s.scores.extend(s.values.iter().map(|&v| {
                if soft {
                    agreement.soft_score(v, output)
                } else {
                    agreement.binary_score(v, output)
                }
            }));
            common::apply_updates(
                &mut self.store,
                self.config.update,
                &s.cand,
                &s.histories,
                &s.scores,
            );
        }

        let confidence = common::weighted_confidence(&agreement, &s.cand, &s.weights, output);
        common::fill_verdict(out, &s.cand, &s.weights, output, confidence, false);
        Ok(())
    }
}

impl<S: HistoryStore + Send> Voter for HistoryVoter<S> {
    fn name(&self) -> &'static str {
        match (self.algorithm, self.bootstrap) {
            (HistoryAlgorithm::Stateless, false) => "stateless-weighted",
            (HistoryAlgorithm::Stateless, true) => "clustering-only",
            (HistoryAlgorithm::Standard, _) => "standard",
            (HistoryAlgorithm::ModuleElimination, _) => "module-elimination",
            (HistoryAlgorithm::SoftDynamicThreshold, _) => "soft-dynamic-threshold",
            (HistoryAlgorithm::Hybrid, false) => "hybrid",
            (HistoryAlgorithm::Hybrid, true) => "avoc",
        }
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        if self.bootstrap && self.bootstrap_pending(round) {
            self.cluster_vote(round, out)?;
        } else {
            self.weighted_vote(round, out)?;
        }
        self.last_output = out.number();
        Ok(())
    }

    fn histories(&self) -> Vec<(ModuleId, f64)> {
        if self.algorithm.stateful() {
            self.store.snapshot()
        } else {
            Vec::new()
        }
    }

    fn reset(&mut self) {
        self.store.clear();
        self.last_output = None;
    }

    fn seed_history(&mut self, records: &[(ModuleId, f64)]) {
        // Warm records suppress the bootstrap, the only reader of `last_output`.
        if self.algorithm.stateful() {
            for &(m, v) in records {
                self.store.set(m, v);
            }
        }
    }

    fn is_stateful(&self) -> bool {
        self.algorithm.stateful()
    }
}

#[cfg(test)]
mod tests {
    use super::HistoryAlgorithm::{
        Hybrid, ModuleElimination, SoftDynamicThreshold, Standard, Stateless,
    };
    use super::*;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    mod standard {
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
            let mut v = HistoryVoter::with_defaults(Standard);
            let verdict = v.vote(&Round::from_numbers(0, &[10.0, 20.0])).unwrap();
            assert_eq!(verdict.number(), Some(15.0));
        }

        #[test]
        fn faulty_module_history_decays() {
            let mut v = HistoryVoter::with_defaults(Standard);
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
            let mut v = HistoryVoter::with_defaults(Standard);
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
            let mut v = HistoryVoter::with_defaults(Standard);
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
            let store = MemoryHistory::with_records([(m(0), 0.0), (m(1), 0.0)]);
            let mut v = HistoryVoter::new(Standard, VoterConfig::default(), store);
            let verdict = v.vote(&Round::from_numbers(0, &[10.0, 30.0])).unwrap();
            assert_eq!(verdict.number(), Some(20.0));
        }

        #[test]
        fn reset_clears_history() {
            let mut v = HistoryVoter::with_defaults(Standard);
            v.vote(&faulty_round(0)).unwrap();
            assert!(!v.histories().is_empty());
            v.reset();
            assert!(v.histories().is_empty());
        }

        #[test]
        fn custom_update_rate_accelerates_decay() {
            let cfg = VoterConfig::default().with_update(HistoryUpdate::new(0.5));
            let mut v = HistoryVoter::new(Standard, cfg, MemoryHistory::new());
            v.vote(&faulty_round(0)).unwrap();
            v.vote(&faulty_round(1)).unwrap();
            // After two rounds at rate 0.5 the faulty record is at 0.
            assert_eq!(v.histories()[3].1, 0.0);
        }

        #[test]
        fn is_stateful() {
            let v = HistoryVoter::with_defaults(Standard);
            assert!(v.is_stateful());
            assert_eq!(v.name(), "standard");
        }
    }

    mod module_elimination {
        use super::*;

        fn faulty_round(round: u64) -> Round {
            Round::from_numbers(round, &[18.0, 18.1, 17.9, 20.0, 18.05])
        }

        #[test]
        fn faulty_module_eliminated_in_round_two() {
            let mut v = HistoryVoter::with_defaults(ModuleElimination);
            let r1 = v.vote(&faulty_round(0)).unwrap();
            // Round 1: flat histories, nobody eliminated yet.
            assert!(r1.excluded.is_empty());
            let r2 = v.vote(&faulty_round(1)).unwrap();
            assert_eq!(r2.excluded, vec![m(3)]);
        }

        #[test]
        fn elimination_removes_the_skew_entirely() {
            let mut v = HistoryVoter::with_defaults(ModuleElimination);
            v.vote(&faulty_round(0)).unwrap();
            let out = v.vote(&faulty_round(1)).unwrap().number().unwrap();
            let clean_mean = (18.0 + 18.1 + 17.9 + 18.05) / 4.0;
            assert!((out - clean_mean).abs() < 1e-9, "out = {out}");
        }

        #[test]
        fn eliminated_module_can_rehabilitate() {
            let mut v = HistoryVoter::with_defaults(ModuleElimination);
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
            let mut v = HistoryVoter::with_defaults(ModuleElimination);
            let verdict = v
                .vote(&Round::from_numbers(0, &[18.0, 18.1, 18.2]))
                .unwrap();
            assert!(verdict.excluded.is_empty());
        }

        #[test]
        fn weights_of_eliminated_are_zero_in_verdict() {
            let mut v = HistoryVoter::with_defaults(ModuleElimination);
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
            let mut v = HistoryVoter::new(ModuleElimination, VoterConfig::default(), store);
            let verdict = v.vote(&Round::from_numbers(0, &[10.0, 30.0])).unwrap();
            assert_eq!(verdict.number(), Some(20.0));
        }

        #[test]
        fn converges_faster_than_standard() {
            let mut me = HistoryVoter::with_defaults(ModuleElimination);
            let mut std_v = HistoryVoter::with_defaults(Standard);
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

    mod soft_dynamic {
        use super::*;

        #[test]
        fn borderline_disagreement_is_penalised_gently() {
            // A candidate in the soft band (beyond tol, inside 2×tol) should
            // lose less record than one far outside.
            let mut v = HistoryVoter::with_defaults(SoftDynamicThreshold);
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
            let mut v = HistoryVoter::with_defaults(SoftDynamicThreshold);
            v.vote(&Round::from_numbers(0, &[18.0, 18.1, 18.05, 40.0]))
                .unwrap();
            let hs = v.histories();
            assert!((hs[3].1 - 0.9).abs() < 1e-9, "h = {}", hs[3].1);
        }

        #[test]
        fn soft_penalty_is_smaller_than_standard_penalty() {
            let round = Round::from_numbers(0, &[18.0, 18.0, 18.0, 20.4]);
            let mut soft = HistoryVoter::with_defaults(SoftDynamicThreshold);
            let mut std_v = HistoryVoter::with_defaults(Standard);
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
            let mut soft = HistoryVoter::with_defaults(SoftDynamicThreshold);
            let mut std_v = HistoryVoter::with_defaults(Standard);
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
            let store = MemoryHistory::with_records([(m(0), 0.0), (m(1), 0.0)]);
            let mut v = HistoryVoter::new(SoftDynamicThreshold, VoterConfig::default(), store);
            let verdict = v.vote(&Round::from_numbers(0, &[5.0, 15.0])).unwrap();
            assert_eq!(verdict.number(), Some(10.0));
        }

        #[test]
        fn reset_and_statefulness() {
            let mut v = HistoryVoter::with_defaults(SoftDynamicThreshold);
            assert!(v.is_stateful());
            v.vote(&Round::from_numbers(0, &[1.0, 2.0])).unwrap();
            assert_eq!(v.histories().len(), 2);
            v.reset();
            assert!(v.histories().is_empty());
        }
    }

    mod hybrid {
        use super::*;

        fn faulty_round(round: u64) -> Round {
            Round::from_numbers(round, &[18.0, 18.1, 17.9, 24.0, 18.05])
        }

        #[test]
        fn output_is_a_submitted_value_once_history_exists() {
            let mut v = HistoryVoter::with_defaults(Hybrid);
            let round = Round::from_numbers(0, &[18.0, 18.4, 18.2, 17.9]);
            v.vote(&round).unwrap(); // round 0: standard-average fallback
            let out = v
                .vote(&Round::from_numbers(1, &[18.0, 18.4, 18.2, 17.9]))
                .unwrap()
                .number()
                .unwrap();
            assert!([18.0, 18.4, 18.2, 17.9].contains(&out));
        }

        #[test]
        fn first_round_falls_back_to_standard_average() {
            // §5: with no historical record established, the Hybrid voter votes
            // a plain average — this is the startup spike of Fig. 6-f.
            let mut v = HistoryVoter::with_defaults(Hybrid);
            let verdict = v.vote(&faulty_round(0)).unwrap();
            let plain_mean = (18.0 + 18.1 + 17.9 + 24.0 + 18.05) / 5.0;
            assert!((verdict.number().unwrap() - plain_mean).abs() < 1e-9);
            assert!(verdict.excluded.is_empty());
        }

        #[test]
        fn outlier_has_zero_agreement_weight_from_round_two() {
            let mut v = HistoryVoter::with_defaults(Hybrid);
            v.vote(&faulty_round(0)).unwrap();
            // Round 2: records exist; the +6 outlier is both history-eliminated
            // and agreement-isolated.
            let verdict = v.vote(&faulty_round(1)).unwrap();
            assert_eq!(verdict.weights[3].1, 0.0);
            assert!(verdict.excluded.contains(&m(3)));
            assert!((verdict.number().unwrap() - 18.05).abs() < 0.1);
        }

        #[test]
        fn faulty_module_eliminated_by_history_in_round_two() {
            let mut v = HistoryVoter::with_defaults(Hybrid);
            v.vote(&faulty_round(0)).unwrap();
            let hs = v.histories();
            assert!(hs[3].1 < hs[0].1, "faulty record must decay first round");
            let r2 = v.vote(&faulty_round(1)).unwrap();
            assert!(r2.excluded.contains(&m(3)));
        }

        #[test]
        fn matches_pre_error_output_under_fault() {
            // The Fig. 6-e claim: Hybrid's faulty-run output is (nearly)
            // identical to its clean-run output — after the round-0 startup
            // spike, which is exactly what AVOC's bootstrap removes.
            let mut clean = HistoryVoter::with_defaults(Hybrid);
            let mut faulty = HistoryVoter::with_defaults(Hybrid);
            for r in 0..50 {
                let base = [18.0, 18.1, 17.9, 18.2, 18.05];
                let mut with_fault = base;
                with_fault[3] += 6.0;
                let c = clean
                    .vote(&Round::from_numbers(r, &base))
                    .unwrap()
                    .number()
                    .unwrap();
                let f = faulty
                    .vote(&Round::from_numbers(r, &with_fault))
                    .unwrap()
                    .number()
                    .unwrap();
                if r == 0 {
                    assert!((c - f).abs() > 1.0, "round 0 must show the spike");
                } else {
                    assert!((c - f).abs() < 0.25, "round {r}: clean {c} vs faulty {f}");
                }
            }
        }

        #[test]
        fn single_survivor_wins() {
            // Histories: module 1 far below average → eliminated; module 0 the
            // only survivor.
            let store = MemoryHistory::with_records([(m(0), 1.0), (m(1), 0.1)]);
            let cfg = VoterConfig::default().with_collation(Collation::MeanNearestNeighbor);
            let mut v = HistoryVoter::new(Hybrid, cfg, store);
            let verdict = v.vote(&Round::from_numbers(0, &[18.0, 99.0])).unwrap();
            assert_eq!(verdict.number(), Some(18.0));
        }

        #[test]
        fn everyone_eliminated_falls_back_to_plain_mean() {
            // Total mutual disagreement with flat histories: all weights 0.
            let mut v = HistoryVoter::with_defaults(Hybrid);
            let verdict = v
                .vote(&Round::from_numbers(0, &[0.0, 100.0, 500.0]))
                .unwrap();
            assert_eq!(verdict.number(), Some(200.0));
        }

        #[test]
        fn weighted_mean_collation_is_supported_too() {
            let cfg = VoterConfig::default().with_collation(Collation::WeightedMean);
            let mut v = HistoryVoter::new(Hybrid, cfg, MemoryHistory::new());
            let out = v
                .vote(&Round::from_numbers(0, &[18.0, 18.2]))
                .unwrap()
                .number()
                .unwrap();
            assert!((out - 18.1).abs() < 1e-9);
        }

        #[test]
        fn histories_snapshot_reset() {
            let mut v = HistoryVoter::with_defaults(Hybrid);
            assert!(v.is_stateful());
            v.vote(&faulty_round(0)).unwrap();
            assert_eq!(v.histories().len(), 5);
            v.reset();
            assert!(v.histories().is_empty());
        }
    }

    mod stateless {
        use super::*;

        #[test]
        fn outlier_gets_zero_weight() {
            let mut v = HistoryVoter::with_defaults(Stateless);
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
            let mut v = HistoryVoter::with_defaults(Stateless);
            let verdict = v.vote(&Round::from_numbers(0, &[42.0])).unwrap();
            assert_eq!(verdict.number(), Some(42.0));
            assert_eq!(verdict.confidence, 1.0);
        }

        #[test]
        fn total_disagreement_falls_back_to_mean() {
            let mut v = HistoryVoter::with_defaults(Stateless);
            let verdict = v
                .vote(&Round::from_numbers(0, &[0.0, 100.0, 200.0]))
                .unwrap();
            assert_eq!(verdict.number(), Some(100.0));
        }

        #[test]
        fn no_state_across_rounds() {
            let mut v = HistoryVoter::with_defaults(Stateless);
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
            let mut v = HistoryVoter::with_defaults(Stateless);
            let verdict = v
                .vote(&Round::from_numbers(0, &[10.0, 10.0, 20.0, 20.0]))
                .unwrap();
            assert_eq!(verdict.number(), Some(15.0));
        }
    }

    mod clustering_only {
        use super::*;

        fn cov(config: VoterConfig) -> HistoryVoter {
            HistoryVoter::new(Stateless, config, MemoryHistory::new()).with_bootstrap(true)
        }

        #[test]
        fn outlier_excluded_from_first_round() {
            let mut v = cov(Default::default());
            let verdict = v
                .vote(&Round::from_numbers(0, &[18.0, 18.1, 17.9, 24.0, 18.05]))
                .unwrap();
            assert_eq!(verdict.excluded, vec![m(3)]);
            assert!((verdict.number().unwrap() - 18.0125).abs() < 1e-9);
            assert!(verdict.bootstrapped);
        }

        #[test]
        fn confidence_is_majority_fraction() {
            let mut v = cov(Default::default());
            let verdict = v
                .vote(&Round::from_numbers(0, &[18.0, 18.1, 25.0, 18.05]))
                .unwrap();
            assert_eq!(verdict.confidence, 0.75);
        }

        #[test]
        fn mean_nearest_neighbor_selects_member() {
            let cfg = VoterConfig::default()
                .with_collation(crate::collation::Collation::MeanNearestNeighbor);
            let mut v = cov(cfg);
            let out = v
                .vote(&Round::from_numbers(0, &[18.0, 18.4, 18.1, 30.0]))
                .unwrap()
                .number()
                .unwrap();
            assert!([18.0, 18.4, 18.1].contains(&out));
        }

        #[test]
        fn ties_break_towards_previous_output() {
            let mut v = cov(Default::default());
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
            let mut v = cov(Default::default());
            v.vote(&Round::from_numbers(0, &[1.0, 1.0])).unwrap();
            assert!(v.histories().is_empty());
            assert!(!v.is_stateful());
        }

        #[test]
        fn all_disagreeing_values_pick_singleton_cluster() {
            let mut v = cov(Default::default());
            // Every value is its own cluster; ties broken by variance then index.
            let verdict = v
                .vote(&Round::from_numbers(0, &[0.0, 100.0, 200.0]))
                .unwrap();
            assert_eq!(verdict.weights.iter().filter(|(_, w)| *w > 0.0).count(), 1);
            assert!(verdict.confidence < 0.5);
        }

        #[test]
        fn empty_round_errors() {
            let mut v = cov(Default::default());
            assert!(matches!(
                v.vote(&Round::from_sparse_numbers(0, &[None])),
                Err(VoteError::EmptyRound)
            ));
        }
    }

    mod avoc {
        use super::*;

        fn avoc(config: VoterConfig, store: MemoryHistory) -> HistoryVoter {
            HistoryVoter::new(Hybrid, config, store).with_bootstrap(true)
        }

        fn avoc_with_defaults() -> HistoryVoter {
            HistoryVoter::with_defaults(Hybrid).with_bootstrap(true)
        }

        fn faulty_round(round: u64) -> Round {
            Round::from_numbers(round, &[18.0, 18.1, 17.9, 24.0, 18.05])
        }

        #[test]
        fn first_round_is_bootstrapped() {
            let mut v = avoc_with_defaults();
            let verdict = v.vote(&faulty_round(0)).unwrap();
            assert!(verdict.bootstrapped);
            assert!(verdict.excluded.contains(&m(3)));
        }

        #[test]
        fn second_round_uses_hybrid_with_seeded_history() {
            let mut v = avoc_with_defaults();
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
            let mut v = avoc_with_defaults();
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
            let mut v = avoc(cfg, store);
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
            let mut v = avoc(cfg, store);
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

            let avoc_rounds = rounds_to_converge(Box::new(avoc_with_defaults()));
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
            let mut v = avoc_with_defaults();
            v.vote(&faulty_round(0)).unwrap();
            v.vote(&faulty_round(1)).unwrap();
            v.reset();
            let verdict = v.vote(&faulty_round(2)).unwrap();
            assert!(verdict.bootstrapped);
        }

        #[test]
        fn name_and_statefulness() {
            let v = avoc_with_defaults();
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

            let mut fresh = avoc_with_defaults();
            assert!(fresh.bootstrap_pending(&round), "fresh set must bootstrap");
            fresh.vote(&round).unwrap();
            assert!(
                !fresh.bootstrap_pending(&Round::new(1, round.ballots.clone())),
                "seeded records must stop bootstrapping"
            );

            let collapsed = avoc(
                VoterConfig::default().with_collation(Collation::MeanNearestNeighbor),
                MemoryHistory::with_records((0..n).map(|i| (m(i), 0.0))),
            );
            assert!(
                collapsed.bootstrap_pending(&round),
                "all-zero records must bootstrap"
            );

            let mut mixed_records: Vec<(ModuleId, f64)> = (0..n).map(|i| (m(i), 0.0)).collect();
            mixed_records[300].1 = 0.7;
            let mixed = avoc(
                VoterConfig::default().with_collation(Collation::MeanNearestNeighbor),
                MemoryHistory::with_records(mixed_records),
            );
            assert!(
                !mixed.bootstrap_pending(&round),
                "one live record must veto the bootstrap"
            );
        }
    }
}
