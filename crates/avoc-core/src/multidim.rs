//! Multi-dimensional voting (§5, *Generalisation*).
//!
//! "Choosing a single output vector for multiple dimensions is non-trivial
//! as the complexity of data and correlation of errors considerably
//! increases. To mitigate, the voting approach can be applied for each
//! dimension separately ... In AVOC, we follow the approach of voting on
//! each dimension separately."
//!
//! [`PerDimensionVoter`] wraps one independent inner voter per dimension and
//! fuses [`Value::Vector`] ballots dimension-by-dimension. Each dimension
//! keeps its own history, so a sensor whose *x* channel drifts is distrusted
//! on *x* while staying trusted on *y*. With the bootstrap on, a round whose
//! records are flat in every dimension is voted over the whole vectors
//! instead, by the "unsupervised clustering algorithm ... such as Meanshift"
//! §5 names for multi-dimensional data.

use crate::algorithms::{Verdict, Voter};
use crate::cluster::{point::centroid, MeanShift, Point};
use crate::error::VoteError;
use crate::history::INITIAL_HISTORY;
use crate::round::{Ballot, ModuleId, Round};
use crate::value::Value;

/// The vector bootstrap's mean-shift bandwidth, as a multiple of the median
/// nearest-neighbour distance among the candidates.
const BANDWIDTH_FACTOR: f64 = 3.0;

/// Votes on vector values by running an independent voter per dimension.
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter, Voter};
/// use avoc_core::multidim::PerDimensionVoter;
/// use avoc_core::{Ballot, ModuleId, Round};
///
/// let avoc = || HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid).with_bootstrap(true);
/// let mut voter = PerDimensionVoter::new(2, || Box::new(avoc()));
/// let round = Round::new(0, vec![
///     Ballot::new(ModuleId::new(0), vec![1.0, 10.0]),
///     Ballot::new(ModuleId::new(1), vec![1.1, 10.2]),
///     Ballot::new(ModuleId::new(2), vec![0.9, 55.0]), // y-channel outlier
/// ]);
/// let verdict = voter.vote(&round)?;
/// let out = verdict.value.as_vector().unwrap();
/// assert!(out[1] < 11.0); // outlier suppressed on y
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
pub struct PerDimensionVoter {
    voters: Vec<Box<dyn Voter>>,
    bootstrap: bool,
    /// One dimension's projection of the round, rewritten in place.
    sub_round: Round,
    /// One dimension's verdict, rewritten in place.
    sub_verdict: Verdict,
}

impl std::fmt::Debug for PerDimensionVoter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerDimensionVoter")
            .field("dimensions", &self.voters.len())
            .field(
                "inner",
                &self.voters.first().map(|v| v.name()).unwrap_or("-"),
            )
            .field("bootstrap", &self.bootstrap)
            .finish()
    }
}

impl PerDimensionVoter {
    /// Creates a per-dimension voter for `dim` dimensions, instantiating an
    /// independent inner voter per dimension via `factory`, with the
    /// bootstrap off.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, factory: impl Fn() -> Box<dyn Voter>) -> Self {
        assert!(dim > 0, "dimensionality must be at least 1");
        PerDimensionVoter {
            voters: (0..dim).map(|_| factory()).collect(),
            bootstrap: false,
            sub_round: Round::new(0, Vec::new()),
            sub_verdict: Verdict::empty(),
        }
    }

    /// Turns the vector bootstrap on or off (VDX's `bootstrapping`).
    ///
    /// A round whose records are flat in every dimension
    /// ([`Voter::bootstrap_pending`]) is voted over the whole candidate
    /// *vectors*: mean-shift takes the largest mode's basin, outputs its
    /// centroid, and seeds every dimension's records from that membership
    /// (`1` for members, `0` for outliers). So a sensor that is only faulty
    /// *jointly*, each coordinate plausible on its own, is still caught. The
    /// bandwidth self-calibrates: three times the median nearest-neighbour
    /// distance among the candidates. Over Hybrid this is vector AVOC:
    ///
    /// ```
    /// use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter};
    /// use avoc_core::multidim::PerDimensionVoter;
    /// use avoc_core::{Ballot, ModuleId, Round, Voter};
    ///
    /// let hybrid = || HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid);
    /// let mut voter = PerDimensionVoter::new(2, || Box::new(hybrid())).with_bootstrap(true);
    /// let round = Round::new(0, vec![
    ///     Ballot::new(ModuleId::new(0), vec![1.0, 10.0]),
    ///     Ballot::new(ModuleId::new(1), vec![1.1, 10.1]),
    ///     Ballot::new(ModuleId::new(2), vec![0.95, 9.9]),
    ///     Ballot::new(ModuleId::new(3), vec![5.0, 30.0]), // joint outlier
    /// ]);
    /// let verdict = voter.vote(&round)?;
    /// assert!(verdict.bootstrapped);
    /// assert!(verdict.excluded.contains(&ModuleId::new(3)));
    /// # Ok::<(), avoc_core::VoteError>(())
    /// ```
    pub fn with_bootstrap(mut self, bootstrap: bool) -> Self {
        self.bootstrap = bootstrap;
        self
    }

    /// The bootstrap round over a validated, non-empty vector round. A
    /// stateful voter runs it once per (re)start, so its allocations stay
    /// off the steady-state path.
    fn mean_shift_vote(&mut self, round: &Round, out: &mut Verdict) {
        let (modules, points): (Vec<ModuleId>, Vec<Point>) = round
            .ballots
            .iter()
            .filter_map(|b| {
                let coords = b.value.as_ref().and_then(Value::as_vector)?;
                Some((b.module, Point::new(coords.to_vec())))
            })
            .unzip();
        let members: Vec<usize> = if points.len() == 1 {
            vec![0]
        } else {
            MeanShift::new(self_calibrated_bandwidth(&points))
                .fit(&points)
                .largest_cluster_members()
        };
        let member_points: Vec<Point> = members.iter().map(|&i| points[i].clone()).collect();
        let centroid = centroid(&member_points).expect("non-empty winning mode");

        out.weights.clear();
        out.weights.extend(
            modules
                .iter()
                .enumerate()
                .map(|(i, &m)| (m, if members.contains(&i) { 1.0 } else { 0.0 })),
        );
        // Seed every dimension's records from the vector-level membership:
        // winners keep full trust, outliers start distrusted — the AVOC
        // record adjustment, generalised.
        let records: Vec<(ModuleId, f64)> = out
            .weights
            .iter()
            .map(|&(m, w)| (m, if w > 0.0 { INITIAL_HISTORY } else { 0.0 }))
            .collect();
        self.seed_history(&records);

        out.excluded.clear();
        let outliers = out.weights.iter().filter(|(_, w)| *w <= 0.0);
        out.excluded.extend(outliers.map(|(m, _)| *m));
        out.value = Value::Vector(centroid.into_coords());
        out.confidence = members.len() as f64 / points.len() as f64;
        out.bootstrapped = true;
    }
}

/// Three times the median nearest-neighbour distance among `points`.
fn self_calibrated_bandwidth(points: &[Point]) -> f64 {
    let mut nn: Vec<f64> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            points
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, q)| p.distance(q))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    nn.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
    let median = nn[nn.len() / 2];
    // A zero median (identical points) still needs a usable radius.
    (median * BANDWIDTH_FACTOR).max(1e-9)
}

impl Voter for PerDimensionVoter {
    fn name(&self) -> &'static str {
        "per-dimension"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        let dim = self.voters.len();
        // Validate dimensions up front.
        for value in round.ballots.iter().filter_map(|b| b.value.as_ref()) {
            match value {
                Value::Vector(coords) if coords.len() != dim => {
                    return Err(VoteError::DimensionMismatch {
                        expected: dim,
                        got: coords.len(),
                    })
                }
                Value::Vector(_) => {}
                other => {
                    return Err(VoteError::TypeMismatch {
                        expected: "vector",
                        got: other.kind(),
                    })
                }
            }
        }
        if round.present_count() == 0 {
            return Err(VoteError::EmptyRound);
        }
        if self.bootstrap && self.bootstrap_pending(round) {
            self.mean_shift_vote(round, out);
            return Ok(());
        }

        // Steady state: every buffer below is reused, so no allocation.
        let mut outputs = match std::mem::replace(&mut out.value, Value::Number(f64::NAN)) {
            Value::Vector(mut coords) => {
                coords.clear();
                coords
            }
            _ => Vec::with_capacity(dim),
        };
        let mut min_confidence = f64::INFINITY;
        let mut any_bootstrap = false;
        out.excluded.clear();
        let (sub_round, sub) = (&mut self.sub_round, &mut self.sub_verdict);
        sub_round.round = round.round;
        for (d, voter) in self.voters.iter_mut().enumerate() {
            sub_round.ballots.clear();
            sub_round
                .ballots
                .extend(round.ballots.iter().map(|b| match &b.value {
                    Some(Value::Vector(coords)) => Ballot::new(b.module, coords[d]),
                    _ => Ballot::missing(b.module),
                }));
            voter.vote_into(sub_round, sub)?;
            outputs.push(
                sub.number()
                    .expect("numeric inner voter yields scalar output"),
            );
            min_confidence = min_confidence.min(sub.confidence);
            any_bootstrap |= sub.bootstrapped;
            for &m in &sub.excluded {
                if !out.excluded.contains(&m) {
                    out.excluded.push(m);
                }
            }
        }
        out.excluded.sort_unstable();
        out.value = Value::Vector(outputs);
        // Per-module weights differ per dimension; report uniform presence
        // weights at the vector level.
        out.weights.clear();
        let present = round.ballots.iter().filter(|b| b.is_present());
        out.weights.extend(present.map(|b| (b.module, 1.0)));
        out.confidence = if min_confidence.is_finite() {
            min_confidence
        } else {
            0.0
        };
        out.bootstrapped = any_bootstrap;
        Ok(())
    }

    fn reset(&mut self) {
        for v in &mut self.voters {
            v.reset();
        }
    }

    /// Seeds every dimension's voter with the same records.
    fn seed_history(&mut self, records: &[(ModuleId, f64)]) {
        for v in &mut self.voters {
            v.seed_history(records);
        }
    }

    fn is_stateful(&self) -> bool {
        self.voters.iter().any(|v| v.is_stateful())
    }

    /// Flat when every dimension's records are.
    fn bootstrap_pending(&self, round: &Round) -> bool {
        self.voters.iter().all(|v| v.bootstrap_pending(round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{AverageVoter, HistoryAlgorithm, HistoryVoter};

    impl PerDimensionVoter {
        /// Per-dimension histories: `histories_per_dimension()[d]` is
        /// dimension `d`'s record snapshot.
        fn histories_per_dimension(&self) -> Vec<Vec<(ModuleId, f64)>> {
            self.voters.iter().map(|v| v.histories()).collect()
        }
    }

    fn avoc() -> Box<dyn Voter> {
        Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid).with_bootstrap(true))
    }

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn vec_round(round: u64, rows: &[&[f64]]) -> Round {
        Round::new(
            round,
            rows.iter()
                .enumerate()
                .map(|(i, r)| Ballot::new(m(i as u32), r.to_vec()))
                .collect(),
        )
    }

    #[test]
    fn averages_each_dimension() {
        let mut v = PerDimensionVoter::new(2, || Box::new(AverageVoter::new()));
        let verdict = v
            .vote(&vec_round(0, &[&[1.0, 10.0], &[3.0, 30.0]]))
            .unwrap();
        assert_eq!(verdict.value.as_vector(), Some(&[2.0, 20.0][..]));
    }

    #[test]
    fn per_dimension_outlier_suppression() {
        let mut v = PerDimensionVoter::new(2, avoc);
        let verdict = v
            .vote(&vec_round(
                0,
                &[&[1.0, 10.0], &[1.1, 10.2], &[1.05, 99.0], &[0.95, 10.1]],
            ))
            .unwrap();
        let out = verdict.value.as_vector().unwrap();
        assert!((out[0] - 1.0).abs() < 0.2);
        assert!(
            out[1] < 11.0,
            "y outlier must be suppressed, got {}",
            out[1]
        );
        // Module 2 is excluded on the y dimension.
        assert!(verdict.excluded.contains(&m(2)));
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let mut v = PerDimensionVoter::new(2, || Box::new(AverageVoter::new()));
        let round = Round::new(0, vec![Ballot::new(m(0), vec![1.0, 2.0, 3.0])]);
        assert!(matches!(
            v.vote(&round),
            Err(VoteError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn scalar_ballot_is_a_type_error() {
        let mut v = PerDimensionVoter::new(2, || Box::new(AverageVoter::new()));
        let round = Round::new(0, vec![Ballot::new(m(0), 1.0)]);
        assert!(matches!(
            v.vote(&round),
            Err(VoteError::TypeMismatch {
                expected: "vector",
                ..
            })
        ));
    }

    #[test]
    fn missing_ballots_propagate_per_dimension() {
        let mut v = PerDimensionVoter::new(1, || Box::new(AverageVoter::new()));
        let round = Round::new(
            0,
            vec![
                Ballot::new(m(0), vec![4.0]),
                Ballot::missing(m(1)),
                Ballot::new(m(2), vec![6.0]),
            ],
        );
        let verdict = v.vote(&round).unwrap();
        assert_eq!(verdict.value.as_vector(), Some(&[5.0][..]));
    }

    #[test]
    fn history_is_independent_per_dimension() {
        let mut v = PerDimensionVoter::new(2, || {
            Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid))
        });
        // Module 2 is faulty on y only, across several rounds.
        for r in 0..3 {
            v.vote(&vec_round(
                r,
                &[&[1.0, 10.0], &[1.02, 10.1], &[1.01, 50.0], &[0.99, 10.05]],
            ))
            .unwrap();
        }
        let per_dim = v.histories_per_dimension();
        let x_record = per_dim[0].iter().find(|(mm, _)| *mm == m(2)).unwrap().1;
        let y_record = per_dim[1].iter().find(|(mm, _)| *mm == m(2)).unwrap().1;
        assert!(x_record > y_record, "x {x_record} vs y {y_record}");
    }

    #[test]
    fn reset_propagates() {
        let mut v = PerDimensionVoter::new(1, || {
            Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid))
        });
        v.vote(&vec_round(0, &[&[1.0], &[2.0]])).unwrap();
        assert!(v.is_stateful());
        v.reset();
        assert!(v.histories_per_dimension()[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_dimensions_panics() {
        let _ = PerDimensionVoter::new(0, || Box::new(AverageVoter::new()));
    }
}

#[cfg(test)]
mod vector_avoc_tests {
    use super::*;
    use crate::algorithms::{HistoryAlgorithm, HistoryVoter};
    use crate::{MemoryHistory, VoterConfig};

    /// Vector AVOC: per-dimension Hybrid with the vector bootstrap.
    fn vector_avoc(dim: usize, config: VoterConfig) -> PerDimensionVoter {
        let hybrid = move || -> Box<dyn Voter> {
            Box::new(HistoryVoter::new(
                HistoryAlgorithm::Hybrid,
                config,
                MemoryHistory::new(),
            ))
        };
        PerDimensionVoter::new(dim, hybrid).with_bootstrap(true)
    }

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn vec_round(round: u64, rows: &[&[f64]]) -> Round {
        Round::new(
            round,
            rows.iter()
                .enumerate()
                .map(|(i, r)| Ballot::new(m(i as u32), r.to_vec()))
                .collect(),
        )
    }

    #[test]
    fn bootstrap_excludes_joint_outlier() {
        let mut v = vector_avoc(2, VoterConfig::default());
        let verdict = v
            .vote(&vec_round(
                0,
                &[&[1.0, 10.0], &[1.1, 10.1], &[0.95, 9.9], &[5.0, 30.0]],
            ))
            .unwrap();
        assert!(verdict.bootstrapped);
        assert_eq!(verdict.excluded, vec![m(3)]);
        let out = verdict.value.as_vector().unwrap();
        assert!((out[0] - 1.0).abs() < 0.2, "x = {}", out[0]);
        assert!((out[1] - 10.0).abs() < 0.3, "y = {}", out[1]);
    }

    #[test]
    fn seeded_records_exclude_outlier_from_round_two() {
        let mut v = vector_avoc(2, VoterConfig::default());
        let rows: &[&[f64]] = &[&[1.0, 10.0], &[1.1, 10.1], &[0.95, 9.9], &[5.0, 30.0]];
        v.vote(&vec_round(0, rows)).unwrap();
        let r2 = v.vote(&vec_round(1, rows)).unwrap();
        assert!(!r2.bootstrapped);
        assert!(
            r2.excluded.contains(&m(3)),
            "seeded zero records must exclude the outlier, got {:?}",
            r2.excluded
        );
    }

    #[test]
    fn catches_jointly_faulty_sensor_that_per_dimension_voting_misses() {
        // Each coordinate of the faulty sensor lies inside the 5% relative
        // agreement band of the healthy blob (±0.4 on ~10, tolerance ≈
        // 0.5), but the diagonal displacement is an order of magnitude
        // beyond the blob's internal spread. Euclidean clustering sees the
        // gap; per-dimension agreement does not.
        let rows: &[&[f64]] = &[
            &[10.00, 10.00],
            &[10.05, 9.95],
            &[9.95, 10.05],
            &[10.02, 10.03],
            &[10.40, 9.60], // joint outlier: each coordinate plausible alone
        ];
        let mut vector = vector_avoc(2, VoterConfig::default());
        let verdict = vector.vote(&vec_round(0, rows)).unwrap();
        // The vector bootstrap flags the mismatched combination.
        assert!(
            verdict.excluded.contains(&m(4)),
            "vector clustering should catch the joint outlier, got {:?}",
            verdict.excluded
        );

        // Per-dimension AVOC accepts it: every coordinate agrees with a
        // neighbour within the 5% band.
        let mut per_dim = PerDimensionVoter::new(2, || {
            Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid).with_bootstrap(true))
        });
        let verdict = per_dim.vote(&vec_round(0, rows)).unwrap();
        assert!(
            !verdict.excluded.contains(&m(4)),
            "per-dimension voting is blind to the joint fault"
        );
    }

    #[test]
    fn single_candidate_bootstrap() {
        let mut v = vector_avoc(2, VoterConfig::default());
        let verdict = v.vote(&vec_round(0, &[&[2.0, 3.0]])).unwrap();
        assert_eq!(verdict.value.as_vector(), Some(&[2.0, 3.0][..]));
        assert_eq!(verdict.confidence, 1.0);
    }

    #[test]
    fn dimension_and_type_errors() {
        let mut v = vector_avoc(2, VoterConfig::default());
        let bad_dim = Round::new(0, vec![Ballot::new(m(0), vec![1.0])]);
        assert!(matches!(
            v.vote(&bad_dim),
            Err(VoteError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        let bad_kind = Round::new(0, vec![Ballot::new(m(0), 1.0)]);
        assert!(matches!(
            v.vote(&bad_kind),
            Err(VoteError::TypeMismatch {
                expected: "vector",
                ..
            })
        ));
    }

    #[test]
    fn reset_restores_bootstrap() {
        let mut v = vector_avoc(1, VoterConfig::default());
        v.vote(&vec_round(0, &[&[1.0], &[1.1]])).unwrap();
        let r2 = v.vote(&vec_round(1, &[&[1.0], &[1.1]])).unwrap();
        assert!(!r2.bootstrapped);
        v.reset();
        let r3 = v.vote(&vec_round(2, &[&[1.0], &[1.1]])).unwrap();
        assert!(r3.bootstrapped);
    }

    #[test]
    fn identical_points_do_not_panic() {
        let mut v = vector_avoc(2, VoterConfig::default());
        let verdict = v
            .vote(&vec_round(0, &[&[3.0, 4.0], &[3.0, 4.0], &[3.0, 4.0]]))
            .unwrap();
        assert_eq!(verdict.value.as_vector(), Some(&[3.0, 4.0][..]));
        assert!(verdict.excluded.is_empty());
    }
}
