//! The voter factory: VDX spec → runnable voter/engine.
//!
//! This is the encapsulation the paper argues for: applications declare a
//! VDX document and are "shielded ... from the voting implementation".

use crate::error::VdxError;
use crate::spec::{
    ExclusionKind, FallbackKind, HistoryKind, QuorumKind, TieBreakKind, ValueKind, VdxCollation,
    VdxSpec, WeightingKind,
};
use avoc_core::algorithms::{
    AverageVoter, HistoryAlgorithm, HistoryVoter, MajorityHistory, MajorityVoter,
};
use avoc_core::multidim::PerDimensionVoter;
use avoc_core::{
    AgreementParams, Collation, DenseHistory, Exclusion, FallbackAction, FaultPolicy,
    HistoryUpdate, Quorum, TieBreak, Voter, VoterConfig, VotingEngine,
};

fn voter_config(spec: &VdxSpec) -> VoterConfig {
    let agreement = AgreementParams::new(
        spec.params.error,
        spec.params.soft_threshold,
        spec.params.margin,
    );
    let collation = match spec.collation {
        VdxCollation::WeightedMean => Collation::WeightedMean,
        VdxCollation::MeanNearestNeighbor => Collation::MeanNearestNeighbor,
        VdxCollation::Median => Collation::Median,
        // Validated away for numeric specs; harmless default otherwise.
        VdxCollation::WeightedMajority => Collation::WeightedMean,
    };
    VoterConfig::new()
        .with_agreement(agreement)
        .with_update(HistoryUpdate::new(spec.params.learning_rate))
        .with_collation(collation)
}

fn numeric_voter(spec: &VdxSpec) -> Box<dyn Voter> {
    let algorithm = match spec.history {
        HistoryKind::None if spec.weighting == WeightingKind::Uniform && !spec.bootstrapping => {
            return Box::new(AverageVoter::new())
        }
        HistoryKind::None => HistoryAlgorithm::Stateless,
        HistoryKind::Standard => HistoryAlgorithm::Standard,
        HistoryKind::ModuleElimination => HistoryAlgorithm::ModuleElimination,
        HistoryKind::SoftDynamicThreshold => HistoryAlgorithm::SoftDynamicThreshold,
        HistoryKind::Hybrid => HistoryAlgorithm::Hybrid,
    };
    // Built voters get the dense (positional) store: engine-driven sessions
    // hit the history on every round, and `DenseHistory` finds module `i` at
    // index `i` with no hashing.
    Box::new(
        HistoryVoter::new(algorithm, voter_config(spec), DenseHistory::new())
            .with_bootstrap(spec.bootstrapping),
    )
}

/// Builds a [`Voter`] from a validated spec.
///
/// # Errors
///
/// Runs [`VdxSpec::validate`] first and propagates its error, so an invalid
/// document can never produce a voter.
///
/// # Example
///
/// ```
/// let spec = avoc_vdx::VdxSpec::preset("hybrid").unwrap();
/// let voter = avoc_vdx::build_voter(&spec)?;
/// assert_eq!(voter.name(), "hybrid");
/// # Ok::<(), avoc_vdx::VdxError>(())
/// ```
pub fn build_voter(spec: &VdxSpec) -> Result<Box<dyn Voter>, VdxError> {
    spec.validate()?;
    let voter: Box<dyn Voter> = match spec.value_kind {
        ValueKind::Numeric => numeric_voter(spec),
        ValueKind::Vector => {
            let dim = spec.dimensions.expect("validated");
            // §5: per-dimension voting "without incorporating the clustering
            // itself" — strip the bootstrap for inner history voters. With
            // `history: NONE` it stays: per-dimension COV.
            let mut inner_spec = spec.clone();
            inner_spec.value_kind = ValueKind::Numeric;
            if inner_spec.history != HistoryKind::None {
                inner_spec.bootstrapping = false;
            }
            Box::new(PerDimensionVoter::new(dim, move || {
                numeric_voter(&inner_spec)
            }))
        }
        ValueKind::Categorical => {
            let history = match spec.history {
                HistoryKind::None => MajorityHistory::None,
                HistoryKind::Standard => MajorityHistory::Standard,
                HistoryKind::ModuleElimination => MajorityHistory::ModuleElimination,
                // Validated away.
                _ => MajorityHistory::Standard,
            };
            Box::new(
                MajorityVoter::new(history, DenseHistory::new())
                    .with_update(HistoryUpdate::new(spec.params.learning_rate)),
            )
        }
    };
    Ok(voter)
}

/// Builds a fully-policied [`VotingEngine`] from a validated spec: the voter
/// plus quorum, exclusion and fault-handling.
///
/// # Errors
///
/// Propagates [`VdxSpec::validate`] errors.
///
/// # Example
///
/// ```
/// use avoc_core::Round;
///
/// let spec = avoc_vdx::VdxSpec::avoc();
/// let mut engine = avoc_vdx::build_engine(&spec)?;
/// let out = engine.submit(&Round::from_numbers(0, &[18.0, 18.1, 17.9]))?;
/// assert!(out.is_voted());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_engine(spec: &VdxSpec) -> Result<VotingEngine, VdxError> {
    let voter = build_voter(spec)?;

    let quorum = match spec.quorum {
        QuorumKind::Any => Quorum::Any,
        QuorumKind::Count => Quorum::Count(spec.quorum_count.expect("validated")),
        QuorumKind::Percentage | QuorumKind::Until => {
            Quorum::Fraction(spec.quorum_percentage.expect("validated") / 100.0)
        }
        QuorumKind::Majority => Quorum::Majority,
    };

    let exclusion = match spec.exclusion {
        ExclusionKind::None => Exclusion::None,
        ExclusionKind::StdDev => Exclusion::StdDev(spec.exclusion_threshold),
        ExclusionKind::Range => Exclusion::Range {
            min: spec.exclusion_min.expect("validated"),
            max: spec.exclusion_max.expect("validated"),
        },
    };

    let map_fallback = |k: FallbackKind| match k {
        FallbackKind::LastGood => FallbackAction::LastGood,
        FallbackKind::Error => FallbackAction::Error,
        FallbackKind::Skip => FallbackAction::Skip,
    };
    let policy = FaultPolicy {
        on_no_quorum: map_fallback(spec.fault_policy.on_no_quorum),
        on_voter_error: map_fallback(spec.fault_policy.on_voter_error),
        on_tie: match spec.fault_policy.on_tie {
            TieBreakKind::NearPrevious => TieBreak::NearPrevious,
            TieBreakKind::First => TieBreak::First,
            TieBreakKind::Error => TieBreak::Error,
        },
    };

    Ok(VotingEngine::new(voter)
        .with_quorum(quorum)
        .with_exclusion(exclusion)
        .with_policy(policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_core::{Ballot, ModuleId, Round};

    #[test]
    fn every_preset_builds_the_expected_voter() {
        let expectations = [
            ("average", "average"),
            ("stateless", "stateless-weighted"),
            ("standard", "standard"),
            ("me", "module-elimination"),
            ("sdt", "soft-dynamic-threshold"),
            ("hybrid", "hybrid"),
            ("cov", "clustering-only"),
            ("avoc", "avoc"),
        ];
        for (preset, expected) in expectations {
            let spec = VdxSpec::preset(preset).unwrap();
            let voter = build_voter(&spec).unwrap();
            assert_eq!(voter.name(), expected, "preset {preset}");
        }
    }

    #[test]
    fn invalid_spec_cannot_build() {
        let mut spec = VdxSpec::avoc();
        spec.params.soft_threshold = 0.0;
        assert!(build_voter(&spec).is_err());
        assert!(build_engine(&spec).is_err());
    }

    #[test]
    fn built_avoc_bootstraps() {
        let mut voter = build_voter(&VdxSpec::avoc()).unwrap();
        let verdict = voter
            .vote(&Round::from_numbers(0, &[18.0, 18.1, 24.0]))
            .unwrap();
        assert!(verdict.bootstrapped);
    }

    #[test]
    fn bootstrapping_applies_to_every_history_algorithm() {
        for (preset, name) in [
            ("standard", "standard"),
            ("me", "module-elimination"),
            ("sdt", "soft-dynamic-threshold"),
        ] {
            let mut spec = VdxSpec::preset(preset).unwrap();
            spec.bootstrapping = true;
            let mut voter = build_voter(&spec).unwrap();
            assert_eq!(voter.name(), name);
            let round = |r| Round::from_numbers(r, &[18.0, 18.1, 24.0, 17.9]);
            let first = voter.vote(&round(0)).unwrap();
            assert!(first.bootstrapped, "{preset}: round 0 clusters");
            assert_eq!(first.excluded, vec![ModuleId::new(2)], "{preset}");
            assert_eq!(voter.histories()[2], (ModuleId::new(2), 0.0), "{preset}");
            assert!(!voter.vote(&round(1)).unwrap().bootstrapped, "{preset}");
        }
    }

    #[test]
    fn engine_applies_quorum_from_spec() {
        let spec = VdxSpec::avoc(); // UNTIL 100%
        let mut engine = build_engine(&spec).unwrap();
        let sparse = Round::from_sparse_numbers(0, &[Some(18.0), Some(18.1), None]);
        let out = engine.submit(&sparse).unwrap();
        // 100% quorum: 2 of 3 present → no vote → skip (no last-good yet).
        assert!(!out.is_voted());
    }

    #[test]
    fn engine_applies_range_exclusion_from_spec() {
        let mut spec = VdxSpec::preset("average").unwrap();
        spec.exclusion = ExclusionKind::Range;
        spec.exclusion_min = Some(0.0);
        spec.exclusion_max = Some(100.0);
        let mut engine = build_engine(&spec).unwrap();
        let out = engine
            .submit(&Round::from_numbers(0, &[10.0, 20.0, 1000.0]))
            .unwrap();
        assert_eq!(out.number(), Some(15.0));
    }

    #[test]
    fn vector_spec_builds_per_dimension_voter() {
        let mut spec = VdxSpec::avoc();
        spec.value_kind = ValueKind::Vector;
        spec.dimensions = Some(2);
        let mut voter = build_voter(&spec).unwrap();
        assert_eq!(voter.name(), "per-dimension");
        let round = Round::new(
            0,
            vec![
                Ballot::new(ModuleId::new(0), vec![1.0, 2.0]),
                Ballot::new(ModuleId::new(1), vec![1.1, 2.1]),
            ],
        );
        let verdict = voter.vote(&round).unwrap();
        assert_eq!(verdict.value.as_vector().map(|v| v.len()), Some(2));
    }

    #[test]
    fn categorical_spec_builds_majority_voter() {
        let mut spec = VdxSpec::preset("standard").unwrap();
        spec.value_kind = ValueKind::Categorical;
        spec.collation = VdxCollation::WeightedMajority;
        let mut voter = build_voter(&spec).unwrap();
        assert_eq!(voter.name(), "weighted-majority");
        let round = Round::new(
            0,
            vec![
                Ballot::new(ModuleId::new(0), "on"),
                Ballot::new(ModuleId::new(1), "on"),
                Ballot::new(ModuleId::new(2), "off"),
            ],
        );
        let verdict = voter.vote(&round).unwrap();
        assert_eq!(verdict.value.as_text(), Some("on"));
    }

    #[test]
    fn fault_policy_error_mode_propagates() {
        let mut spec = VdxSpec::avoc();
        spec.fault_policy.on_no_quorum = FallbackKind::Error;
        let mut engine = build_engine(&spec).unwrap();
        let sparse = Round::from_sparse_numbers(0, &[Some(1.0), None]);
        assert!(engine.submit(&sparse).is_err());
    }

    #[test]
    fn spec_params_reach_the_voter() {
        // A huge error threshold makes everything agree — even a wild
        // outlier keeps full weight.
        let mut spec = VdxSpec::preset("stateless").unwrap();
        spec.params.error = 10.0;
        let mut voter = build_voter(&spec).unwrap();
        let verdict = voter.vote(&Round::from_numbers(0, &[10.0, 50.0])).unwrap();
        assert_eq!(verdict.number(), Some(30.0));
        assert!(verdict.excluded.is_empty());
    }
}
