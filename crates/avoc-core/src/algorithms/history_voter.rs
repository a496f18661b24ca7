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
use crate::agreement::AgreementParams;
use crate::cluster::Clustering;
use crate::collation::{collate_into, Collation};
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

    /// Whether records move by graded rather than binary agreement.
    fn graded(self) -> bool {
        matches!(self, Self::SoftDynamicThreshold | Self::Hybrid)
    }
}

/// What the records told the kernel before it voted.
#[derive(Clone, Copy)]
struct Loaded {
    /// Whether the bootstrap votes this round: it is on and the records are
    /// flat (always, for a voter that keeps none).
    bootstrap: bool,
    /// Whether no candidate has a record yet.
    fresh: bool,
}

/// Whether a round's records are flat — every one new (the paper's "all
/// records are 1") or every one collapsed to `0` (a system failure or
/// extreme data spike): the bootstrap's trigger, judged over every ballot,
/// present or missing.
#[derive(Clone, Copy)]
struct Flatness {
    all_new: bool,
    all_zero: bool,
}

impl Flatness {
    const UNSEEN: Flatness = Flatness {
        all_new: true,
        all_zero: true,
    };

    fn see(&mut self, record: Option<f64>) {
        self.all_new &= record.is_none();
        self.all_zero &= record.is_some_and(collapsed); // unrecorded ≠ collapsed
    }

    fn flat(self) -> bool {
        self.all_new || self.all_zero
    }
}

/// Whether a record has collapsed to `0`.
fn collapsed(record: f64) -> bool {
    record.abs() <= 1e-12
}

/// Where the kernel reads candidate `i`'s record as the round found it,
/// and writes its new one.
trait Records {
    fn get(&self, i: usize) -> f64;
    fn set(&mut self, i: usize, record: f64);
}

/// The records of modules `0..n`, read and rewritten where the store holds
/// them ([`HistoryStore::dense_mut`]). The kernel reads each before it
/// writes it, and writes only values in `[0, 1]`.
struct InPlace<'a>(&'a mut [f64]);

impl Records for InPlace<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    #[inline]
    fn set(&mut self, i: usize, record: f64) {
        self.0[i] = record;
    }
}

/// Records gathered from the store, read as gathered and written back
/// through [`HistoryStore::set`] as the kernel makes them.
struct Gathered<'a, S> {
    modules: &'a [ModuleId],
    records: &'a [f64],
    store: &'a mut S,
}

impl<S: HistoryStore> Records for Gathered<'_, S> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        self.records[i]
    }

    #[inline]
    fn set(&mut self, i: usize, record: f64) {
        self.store.set(self.modules[i], record);
    }
}

/// A round's numeric candidates, gathered in ballot order: their modules,
/// values and records as the round found them ([`INITIAL_HISTORY`] for
/// one it had none for).
#[derive(Debug, Clone, Default)]
struct Gather {
    modules: Vec<ModuleId>,
    values: Vec<f64>,
    records: Vec<f64>,
}

impl Gather {
    /// The one pass over a round's ballots: gathers each numeric candidate
    /// with its record, reading every record once, into the front of the
    /// arrays; returns how many it gathered. The arrays keep one entry per
    /// ballot from round to round, so their lengths are not rewritten.
    fn round(
        &mut self,
        round: &Round,
        store: &impl HistoryStore,
        stateful: bool,
        bootstrap: bool,
    ) -> Result<(Loaded, usize), VoteError> {
        let ballots = round.ballots.len();
        sized(&mut self.modules, ballots, ModuleId::new(0));
        sized(&mut self.values, ballots, 0.0);
        sized(&mut self.records, ballots, 0.0);
        let (mut flat, mut fresh, mut len) = (Flatness::UNSEEN, true, 0);
        for ballot in &round.ballots {
            // Only the bootstrap reads the records of missing ballots.
            let wanted = stateful && (bootstrap || ballot.value.is_some());
            let record = if wanted {
                store.get(ballot.module)
            } else {
                None
            };
            flat.see(record);
            let Some(value) = &ballot.value else {
                continue;
            };
            let Some(value) = value.as_number() else {
                return Err(VoteError::TypeMismatch {
                    expected: "number",
                    got: value.kind(),
                });
            };
            fresh &= record.is_none();
            self.modules[len] = ballot.module;
            self.values[len] = value;
            self.records[len] = record.unwrap_or(INITIAL_HISTORY);
            len += 1;
        }
        if len == 0 {
            return Err(VoteError::EmptyRound);
        }
        let loaded = Loaded {
            bootstrap: bootstrap && (!stateful || flat.flat()),
            fresh,
        };
        Ok((loaded, len))
    }
}

/// Modules `0..n`, from `modules`, which keeps the widest yet.
fn positional(modules: &mut Vec<ModuleId>, n: usize) -> &[ModuleId] {
    if modules.len() < n {
        let more = (modules.len() as u32..n as u32).map(ModuleId::new);
        modules.extend(more);
    }
    &modules[..n]
}

/// The records of a voter that keeps none: every candidate reads
/// [`INITIAL_HISTORY`], as [`Gather::round`] gathers for it, and the kernel
/// writes none.
struct Unrecorded;

impl Records for Unrecorded {
    #[inline]
    fn get(&self, _: usize) -> f64 {
        INITIAL_HISTORY
    }

    #[inline]
    fn set(&mut self, _: usize, _: f64) {
        debug_assert!(false, "a stateless kernel writes no records");
    }
}

/// Votes a row, value `i` module `i`'s, every module present. A voter
/// that keeps no records needs none read; a stateful one is voted where
/// the store holds the records of modules `0..n` side by side
/// ([`HistoryStore::dense_mut`]), read and rewritten there. `None` when it
/// does not: the caller votes the row as a round, through [`Gather`].
fn vote_row(
    kernel: &mut Kernel,
    store: &mut impl HistoryStore,
    modules: &[ModuleId],
    values: &[f64],
    out: &mut Verdict,
) -> Option<Result<(), VoteError>> {
    if values.is_empty() {
        return Some(Err(VoteError::EmptyRound));
    }
    if !kernel.algorithm.stateful() {
        let loaded = Loaded {
            bootstrap: kernel.bootstrap,
            fresh: true,
        };
        return Some(kernel.vote(modules, values, &mut Unrecorded, loaded, out));
    }
    let records = store.dense_mut(values.len())?;
    // Every record is there, so the set is not new: flat only when every
    // record has collapsed.
    let loaded = Loaded {
        bootstrap: kernel.bootstrap && records.iter().all(|&h| collapsed(h)),
        fresh: false,
    };
    Some(kernel.vote(modules, values, &mut InPlace(records), loaded, out))
}

/// The one weight → collate → score/update kernel, over flat candidates:
/// candidate `i` is `modules[i]`, reading `values[i]`, with its record at
/// `i` of a [`Records`]. It owns its settings and working buffers; the
/// candidates are lent per round.
#[derive(Debug, Clone)]
struct Kernel {
    algorithm: HistoryAlgorithm,
    bootstrap: bool,
    config: VoterConfig,
    /// Every candidate's vote weight.
    weights: Vec<f64>,
    /// `Median` collation's sort buffer.
    sorted: Vec<(f64, f64)>,
    /// The clustering bootstrap's groups, regrouped in place each round.
    clustering: Clustering,
    /// The previous round's output: the bootstrap's tie-break reference.
    last_output: Option<f64>,
}

impl Kernel {
    /// Votes one round: clustering when `loaded` says the bootstrap votes,
    /// the weighted round otherwise.
    #[inline(always)]
    fn vote(
        &mut self,
        modules: &[ModuleId],
        values: &[f64],
        records: &mut impl Records,
        loaded: Loaded,
        out: &mut Verdict,
    ) -> Result<(), VoteError> {
        let output = if loaded.bootstrap {
            self.cluster_vote(modules, values, records, out)?
        } else {
            self.weighted_vote(modules, values, records, loaded.fresh, out)
        };
        self.last_output = Some(output);
        Ok(())
    }

    /// Clusters the candidates, collates the largest group (ties broken near
    /// the previous output) and seeds any records from the membership.
    fn cluster_vote(
        &mut self,
        modules: &[ModuleId],
        values: &[f64],
        records: &mut impl Records,
        out: &mut Verdict,
    ) -> Result<f64, VoteError> {
        let clusterer = self.config.agreement.clusterer();
        clusterer.cluster_into(values, &mut self.clustering);
        let winner = match self.last_output {
            Some(r) => self.clustering.largest_cluster_near(r),
            None => self.clustering.largest_cluster(),
        }
        .ok_or(VoteError::EmptyRound)?;

        let output = match self.config.collation {
            Collation::MeanNearestNeighbor => winner.nearest_real_value(),
            // Unweighted peers: WeightedMean and Median emit the group mean.
            Collation::WeightedMean | Collation::Median => winner.mean(),
        };

        let weights = zeroed(&mut self.weights, values.len());
        for &i in winner.members() {
            weights[i] = 1.0;
        }
        let confidence = self.clustering.majority_fraction();
        if self.algorithm.stateful() {
            // "Better history adjustment in round 1".
            for (i, &w) in weights.iter().enumerate() {
                records.set(i, if w > 0.0 { INITIAL_HISTORY } else { 0.0 });
            }
            // The seeded records keep a stateful voter from clustering
            // again until a restart or a collapse: its groups are not kept.
            self.clustering = Default::default();
        }
        common::fill_verdict(out, modules, weights, output, confidence, true);
        Ok(output)
    }

    /// The weighted round: weight → collate → score and update.
    fn weighted_vote(
        &mut self,
        modules: &[ModuleId],
        values: &[f64],
        records: &mut impl Records,
        fresh: bool,
        out: &mut Verdict,
    ) -> f64 {
        let Kernel {
            algorithm,
            config,
            weights,
            sorted,
            ..
        } = self;
        let n = values.len();
        let weights = zeroed(weights, n);

        // §5: history voters "fall back to standard average ... until a
        // historical record is established". Hybrid has none to weigh by (the
        // spike AVOC's bootstrap removes); the others weigh by flat records.
        let fallback = *algorithm == HistoryAlgorithm::Hybrid && fresh;
        if fallback {
            weights.fill(1.0);
        } else {
            // Below-average records are eliminated; without elimination
            // every candidate is kept. The records sum in candidate order.
            let threshold = if algorithm.eliminates() {
                let record_sum = (0..n).fold(-0.0, |sum, i| sum + records.get(i));
                common::elimination_threshold(record_sum, n)
            } else {
                f64::NEG_INFINITY
            };
            if algorithm.peer_weighted() {
                peer_support(&config.agreement, values, &*records, weights, threshold);
            } else {
                for (i, w) in weights.iter_mut().enumerate() {
                    let record = records.get(i);
                    *w = if record >= threshold { record } else { 0.0 };
                }
            }
        }

        // The fallback is the "standard average", whatever the collation.
        let collation = if fallback {
            Collation::WeightedMean
        } else {
            config.collation
        };
        // The total weight collated from serves the confidence too.
        let weighted = values.iter().copied().zip(weights.iter().copied());
        let (output, total) = collate_into(collation, weighted, sorted).unwrap_or_else(|| {
            // All weights zero (collapsed, eliminated or disagreeing): the plain mean.
            (values.iter().sum::<f64>() / n as f64, 0.0)
        });

        // Agreement with the output, graded or binary, drives every record;
        // the weight that binary-agrees with it is the confidence.
        let (stateful, graded) = (algorithm.stateful(), algorithm.graded());
        let mut agreeing = 0.0;
        for (i, (&value, &weight)) in values.iter().zip(weights.iter()).enumerate() {
            let (agrees, soft) = config.agreement.scores(value, output);
            if agrees && weight > 0.0 {
                agreeing += weight;
            }
            if stateful {
                let score = if graded {
                    soft
                } else if agrees {
                    1.0
                } else {
                    0.0
                };
                records.set(i, config.update.apply(records.get(i), score));
            }
        }
        let confidence = if total <= 0.0 { 0.0 } else { agreeing / total };
        common::fill_verdict(out, modules, weights, output, confidence, false);
        output
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
    kernel: Kernel,
    gather: Gather,
    /// Modules `0..n` for the widest row yet ([`positional`]).
    row_modules: Vec<ModuleId>,
    store: S,
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
            kernel: Kernel {
                algorithm,
                bootstrap: false,
                config,
                weights: Vec::new(),
                sorted: Vec::new(),
                clustering: Clustering::default(),
                last_output: None,
            },
            gather: Gather::default(),
            row_modules: Vec::new(),
            store,
        }
    }

    /// Turns the clustering bootstrap on or off (VDX's `bootstrapping`).
    /// A round whose records are flat ([`Voter::bootstrap_pending`])
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
        self.kernel.bootstrap = bootstrap;
        self
    }
}

/// Gives `buf` length `n`, filling new entries with `fill`. Its length is
/// rewritten only when it changes: a length stored each round and read
/// straight back stalls the loads that read it.
fn sized<T: Clone>(buf: &mut Vec<T>, n: usize, fill: T) {
    if buf.len() != n {
        buf.resize(n, fill);
    }
}

/// `buf` as `n` zeros (see [`sized`]).
fn zeroed(buf: &mut Vec<f64>, n: usize) -> &mut [f64] {
    sized(buf, n, 0.0);
    buf.fill(0.0);
    buf
}

/// Peer-agreement weights, added into `weights` (all `0` on entry): each
/// candidate whose record is kept (at or above `threshold`) weighs its
/// summed soft agreement with its kept peers, an eliminated one `0`, and a
/// lone survivor `1`, as it has no peers to agree with. Each pairwise score
/// is computed once and added at both ends, so a candidate's sum runs over
/// its peers in ascending order: the order, and so the rounding, of a sum
/// taken row by row.
#[inline]
fn peer_support(
    params: &AgreementParams,
    values: &[f64],
    records: &impl Records,
    weights: &mut [f64],
    threshold: f64,
) {
    let kept = |i: usize| records.get(i) >= threshold;
    let (mut survivors, mut last_survivor) = (0, 0);
    for i in 0..values.len() {
        if !kept(i) {
            continue;
        }
        survivors += 1;
        last_survivor = i;
        for j in (i + 1..values.len()).filter(|&j| kept(j)) {
            let score = params.soft_score(values[i], values[j]);
            weights[i] += score;
            weights[j] += score;
        }
    }
    if survivors == 1 {
        weights[last_survivor] = 1.0;
    }
}

impl<S: HistoryStore + Send> Voter for HistoryVoter<S> {
    fn name(&self) -> &'static str {
        match (self.kernel.algorithm, self.kernel.bootstrap) {
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
        let HistoryVoter {
            kernel,
            gather,
            store,
            ..
        } = self;
        let (stateful, bootstrap) = (kernel.algorithm.stateful(), kernel.bootstrap);
        let (loaded, len) = gather.round(round, store, stateful, bootstrap)?;
        let modules = &gather.modules[..len];
        let mut records = Gathered {
            modules,
            records: &gather.records[..len],
            store,
        };
        kernel.vote(modules, &gather.values[..len], &mut records, loaded, out)
    }

    fn vote_row_into(
        &mut self,
        values: &[f64],
        out: &mut Verdict,
    ) -> Option<Result<(), VoteError>> {
        let modules = positional(&mut self.row_modules, values.len());
        vote_row(&mut self.kernel, &mut self.store, modules, values, out)
    }

    fn histories(&self) -> Vec<(ModuleId, f64)> {
        if self.kernel.algorithm.stateful() {
            self.store.snapshot()
        } else {
            Vec::new()
        }
    }

    fn reset(&mut self) {
        self.store.clear();
        self.kernel.last_output = None;
    }

    fn seed_history(&mut self, records: &[(ModuleId, f64)]) {
        // Warm records suppress the bootstrap, the only reader of `last_output`.
        if self.kernel.algorithm.stateful() {
            for &(m, v) in records {
                self.store.set(m, v);
            }
        }
    }

    fn is_stateful(&self) -> bool {
        self.kernel.algorithm.stateful()
    }

    /// Always for [`HistoryAlgorithm::Stateless`]; otherwise when every
    /// record is new (the paper's "all records are 1") or every record has
    /// collapsed to `0` (a system failure or extreme data spike).
    fn bootstrap_pending(&self, round: &Round) -> bool {
        if !self.kernel.algorithm.stateful() {
            return true;
        }
        let mut flat = Flatness::UNSEEN;
        for ballot in &round.ballots {
            flat.see(self.store.get(ballot.module));
        }
        !round.ballots.is_empty() && flat.flat()
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

    #[test]
    fn load_skips_missing_ballots_and_refuses_text() {
        for algorithm in [
            Stateless,
            Standard,
            ModuleElimination,
            SoftDynamicThreshold,
            Hybrid,
        ] {
            let mut v = HistoryVoter::with_defaults(algorithm).with_bootstrap(true);
            let sparse = Round::from_sparse_numbers(0, &[Some(18.0), None, Some(18.1)]);
            let verdict = v.vote(&sparse).unwrap();
            assert_eq!(verdict.weights.len(), 2, "{algorithm:?}");
            let text = Round::new(
                1,
                vec![
                    crate::Ballot::new(m(0), 18.0),
                    crate::Ballot::new(m(1), "oops"),
                ],
            );
            assert!(
                matches!(
                    v.vote(&text),
                    Err(VoteError::TypeMismatch { got: "text", .. })
                ),
                "{algorithm:?}"
            );
            // A refused round leaves the records as they were.
            let before = v.histories();
            let _ = v.vote(&text);
            assert_eq!(v.histories(), before, "{algorithm:?}");
        }
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
