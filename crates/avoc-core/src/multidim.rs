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
//! on *x* while staying trusted on *y*.

use crate::algorithms::{HistoryAlgorithm, HistoryVoter, Verdict, Voter};
use crate::error::VoteError;
use crate::history::INITIAL_HISTORY;
use crate::round::{Ballot, ModuleId, Round};
use crate::value::Value;

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
}

impl std::fmt::Debug for PerDimensionVoter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerDimensionVoter")
            .field("dimensions", &self.voters.len())
            .field(
                "inner",
                &self.voters.first().map(|v| v.name()).unwrap_or("-"),
            )
            .finish()
    }
}

impl PerDimensionVoter {
    /// Creates a per-dimension voter for `dim` dimensions, instantiating an
    /// independent inner voter per dimension via `factory`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, factory: impl Fn() -> Box<dyn Voter>) -> Self {
        assert!(dim > 0, "dimensionality must be at least 1");
        PerDimensionVoter {
            voters: (0..dim).map(|_| factory()).collect(),
        }
    }

    /// The dimensionality this voter expects.
    fn dim(&self) -> usize {
        self.voters.len()
    }

    /// Per-dimension histories: `histories()[d]` is dimension `d`'s record
    /// snapshot.
    fn histories_per_dimension(&self) -> Vec<Vec<(ModuleId, f64)>> {
        self.voters.iter().map(|v| v.histories()).collect()
    }
}

impl Voter for PerDimensionVoter {
    fn name(&self) -> &'static str {
        "per-dimension"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        let dim = self.voters.len();
        // Validate dimensions up front.
        for b in &round.ballots {
            if let Some(v) = &b.value {
                match v {
                    Value::Vector(coords) => {
                        if coords.len() != dim {
                            return Err(VoteError::DimensionMismatch {
                                expected: dim,
                                got: coords.len(),
                            });
                        }
                    }
                    other => {
                        return Err(VoteError::TypeMismatch {
                            expected: "vector",
                            got: other.kind(),
                        })
                    }
                }
            }
        }
        if round.present_count() == 0 {
            return Err(VoteError::EmptyRound);
        }

        let mut outputs = Vec::with_capacity(dim);
        let mut min_confidence = f64::INFINITY;
        let mut excluded: Vec<ModuleId> = Vec::new();
        let mut any_bootstrap = false;
        for (d, voter) in self.voters.iter_mut().enumerate() {
            let sub_round = Round::new(
                round.round,
                round
                    .ballots
                    .iter()
                    .map(|b| match &b.value {
                        Some(Value::Vector(coords)) => Ballot::new(b.module, coords[d]),
                        _ => Ballot::missing(b.module),
                    })
                    .collect(),
            );
            let verdict = voter.vote(&sub_round)?;
            outputs.push(
                verdict
                    .number()
                    .expect("numeric inner voter yields scalar output"),
            );
            min_confidence = min_confidence.min(verdict.confidence);
            any_bootstrap |= verdict.bootstrapped;
            for m in verdict.excluded {
                if !excluded.contains(&m) {
                    excluded.push(m);
                }
            }
        }
        excluded.sort_unstable();

        *out = Verdict {
            value: Value::Vector(outputs),
            // Per-module weights differ per dimension; report uniform
            // presence weights at the vector level.
            weights: round
                .ballots
                .iter()
                .filter(|b| b.is_present())
                .map(|b| (b.module, 1.0))
                .collect(),
            excluded,
            confidence: if min_confidence.is_finite() {
                min_confidence
            } else {
                0.0
            },
            bootstrapped: any_bootstrap,
        };
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
}

/// Vector AVOC with a *multi-dimensional* clustering bootstrap — the step
/// beyond the paper.
///
/// §5 notes that for multi-dimensional data "an unsupervised clustering
/// algorithm can be used such as Meanshift or X-Means", but the paper's own
/// AVOC votes each dimension separately "without incorporating the
/// clustering itself". This voter incorporates it: steady-state rounds are
/// per-dimension Hybrid votes, while the bootstrap round (no records yet,
/// or all records collapsed) runs mean-shift over the full candidate
/// *vectors*, takes the largest mode's basin, outputs its centroid, and
/// seeds every dimension's records from the vector-level membership — so a
/// sensor that is only faulty *jointly* (each coordinate plausible on its
/// own) is still caught.
///
/// The mean-shift bandwidth self-calibrates, in AVOC's spirit: it is three
/// times the median nearest-neighbour distance among the candidates.
///
/// # Example
///
/// ```
/// use avoc_core::multidim::VectorAvocVoter;
/// use avoc_core::{Ballot, ModuleId, Round, Voter};
///
/// let mut voter = VectorAvocVoter::new(2, Default::default());
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
pub struct VectorAvocVoter {
    dims: PerDimensionVoter,
    bootstrapped_once: bool,
}

/// The vector bootstrap's mean-shift bandwidth, as a multiple of the median
/// nearest-neighbour distance among the candidates.
const BANDWIDTH_FACTOR: f64 = 3.0;

impl std::fmt::Debug for VectorAvocVoter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorAvocVoter")
            .field("dim", &self.dims.dim())
            .finish_non_exhaustive()
    }
}

impl VectorAvocVoter {
    /// Creates a vector-AVOC voter for `dim` dimensions with the given
    /// per-dimension configuration.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, config: crate::VoterConfig) -> Self {
        let hybrid = move || -> Box<dyn Voter> {
            Box::new(HistoryVoter::new(
                HistoryAlgorithm::Hybrid,
                config,
                crate::MemoryHistory::new(),
            ))
        };
        VectorAvocVoter {
            dims: PerDimensionVoter::new(dim, hybrid),
            bootstrapped_once: false,
        }
    }

    fn bootstrap_pending(&self) -> bool {
        if !self.bootstrapped_once {
            return true;
        }
        // Fallback condition: every record of every dimension collapsed.
        self.dims
            .histories_per_dimension()
            .iter()
            .flatten()
            .all(|(_, h)| h.abs() < 1e-12)
    }

    fn self_calibrated_bandwidth(points: &[avoc_cluster::Point]) -> f64 {
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

    /// Extracts the vector candidates, enforcing kind and dimension.
    fn vector_candidates(
        &self,
        round: &Round,
    ) -> Result<(Vec<ModuleId>, Vec<avoc_cluster::Point>), VoteError> {
        let dim = self.dims.dim();
        let mut modules = Vec::new();
        let mut points = Vec::new();
        for b in &round.ballots {
            match &b.value {
                Some(Value::Vector(coords)) => {
                    if coords.len() != dim {
                        return Err(VoteError::DimensionMismatch {
                            expected: dim,
                            got: coords.len(),
                        });
                    }
                    modules.push(b.module);
                    points.push(avoc_cluster::Point::new(coords.clone()));
                }
                Some(other) => {
                    return Err(VoteError::TypeMismatch {
                        expected: "vector",
                        got: other.kind(),
                    })
                }
                None => {}
            }
        }
        if points.is_empty() {
            return Err(VoteError::EmptyRound);
        }
        Ok((modules, points))
    }
}

impl Voter for VectorAvocVoter {
    fn name(&self) -> &'static str {
        "vector-avoc"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        if !self.bootstrap_pending() {
            return self.dims.vote_into(round, out);
        }

        // Multi-dimensional clustering bootstrap.
        let (modules, points) = self.vector_candidates(round)?;
        let members: Vec<usize> = if points.len() == 1 {
            vec![0]
        } else {
            let bandwidth = Self::self_calibrated_bandwidth(&points);
            avoc_cluster::MeanShift::new(bandwidth)
                .fit(&points)
                .largest_cluster_members()
        };
        let member_points: Vec<avoc_cluster::Point> =
            members.iter().map(|&i| points[i].clone()).collect();
        let centroid =
            avoc_cluster::point::centroid(&member_points).expect("non-empty winning mode");

        let weights: Vec<(ModuleId, f64)> = modules
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, if members.contains(&i) { 1.0 } else { 0.0 }))
            .collect();
        // Seed every dimension's records from the vector-level membership:
        // winners keep full trust, outliers start distrusted — the AVOC
        // record adjustment, generalised.
        let records: Vec<(ModuleId, f64)> = weights
            .iter()
            .map(|&(m, w)| (m, if w > 0.0 { INITIAL_HISTORY } else { 0.0 }))
            .collect();
        self.dims.seed_history(&records);
        self.bootstrapped_once = true;

        let excluded: Vec<ModuleId> = weights
            .iter()
            .filter(|(_, w)| *w <= 0.0)
            .map(|(m, _)| *m)
            .collect();
        *out = Verdict {
            value: Value::Vector(centroid.into_coords()),
            confidence: members.len() as f64 / points.len() as f64,
            weights,
            excluded,
            bootstrapped: true,
        };
        Ok(())
    }

    fn reset(&mut self) {
        self.dims.reset();
        self.bootstrapped_once = false;
    }

    fn is_stateful(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::AverageVoter;

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
    use crate::VoterConfig;

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
        let mut v = VectorAvocVoter::new(2, VoterConfig::default());
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
        let mut v = VectorAvocVoter::new(2, VoterConfig::default());
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
        let mut vector = VectorAvocVoter::new(2, VoterConfig::default());
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
        let mut v = VectorAvocVoter::new(2, VoterConfig::default());
        let verdict = v.vote(&vec_round(0, &[&[2.0, 3.0]])).unwrap();
        assert_eq!(verdict.value.as_vector(), Some(&[2.0, 3.0][..]));
        assert_eq!(verdict.confidence, 1.0);
    }

    #[test]
    fn dimension_and_type_errors() {
        let mut v = VectorAvocVoter::new(2, VoterConfig::default());
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
        let mut v = VectorAvocVoter::new(1, VoterConfig::default());
        v.vote(&vec_round(0, &[&[1.0], &[1.1]])).unwrap();
        let r2 = v.vote(&vec_round(1, &[&[1.0], &[1.1]])).unwrap();
        assert!(!r2.bootstrapped);
        v.reset();
        let r3 = v.vote(&vec_round(2, &[&[1.0], &[1.1]])).unwrap();
        assert!(r3.bootstrapped);
    }

    #[test]
    fn identical_points_do_not_panic() {
        let mut v = VectorAvocVoter::new(2, VoterConfig::default());
        let verdict = v
            .vote(&vec_round(0, &[&[3.0, 4.0], &[3.0, 4.0], &[3.0, 4.0]]))
            .unwrap();
        assert_eq!(verdict.value.as_vector(), Some(&[3.0, 4.0][..]));
        assert!(verdict.excluded.is_empty());
    }
}
