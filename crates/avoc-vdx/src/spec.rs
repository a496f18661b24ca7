//! The VDX document model (§6, Listing 1).

use crate::error::VdxError;
use avoc_core::MarginMode;
use serde::{Deserialize, Serialize};

/// Quorum kind (VDX `quorum`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "SCREAMING_SNAKE_CASE")]
pub enum QuorumKind {
    /// Vote on whatever arrived.
    Any,
    /// Require `quorum_count` submissions.
    Count,
    /// Require `quorum_percentage` percent of expected modules.
    Percentage,
    /// Wait *until* `quorum_percentage` percent have submitted — Listing 1's
    /// mode; for pre-assembled rounds it is equivalent to `Percentage`.
    Until,
    /// Require a strict majority of expected modules.
    #[default]
    Majority,
}

/// Exclusion kind (VDX `exclusion`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "SCREAMING_SNAKE_CASE")]
pub enum ExclusionKind {
    /// No pre-vote exclusion (Listing 1).
    #[default]
    None,
    /// Exclude values beyond `exclusion_threshold` standard deviations.
    StdDev,
    /// Exclude values outside `[exclusion_min, exclusion_max]`.
    Range,
}

/// History algorithm (VDX `history`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "SCREAMING_SNAKE_CASE")]
pub enum HistoryKind {
    /// Stateless voting.
    None,
    /// Standard history-based weighted average.
    #[default]
    Standard,
    /// Module-Elimination weighted average.
    ModuleElimination,
    /// Soft-Dynamic-Threshold weighted average.
    SoftDynamicThreshold,
    /// Hybrid (agreement weights + elimination) — Listing 1's mode.
    Hybrid,
}

/// Collation technique (VDX `collation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "SCREAMING_SNAKE_CASE")]
pub enum VdxCollation {
    /// Weighted arithmetic mean.
    #[default]
    WeightedMean,
    /// Mean-nearest-neighbour selection.
    MeanNearestNeighbor,
    /// Weighted median.
    Median,
    /// Weighted majority — the only collation for categorical values.
    WeightedMajority,
}

/// Kind of value being voted on (VDX extension beyond Listing 1; numeric by
/// default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "SCREAMING_SNAKE_CASE")]
pub enum ValueKind {
    /// Scalar numeric values — the full algorithm family applies.
    #[default]
    Numeric,
    /// Vectors, voted per-dimension (§5 generalisation).
    Vector,
    /// Categorical values (strings, JSON blobs) with §6 restrictions.
    Categorical,
}

/// Weighting for stateless numeric voting (`history: NONE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "SCREAMING_SNAKE_CASE")]
pub enum WeightingKind {
    /// Unweighted mean — the plain-average baseline.
    #[default]
    Uniform,
    /// Per-round agreement weights ("weighted average without history").
    Agreement,
}

/// Algorithm parameters (VDX `params`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VdxParams {
    /// Accepted error threshold (Listing 1: `0.05`).
    pub error: f64,
    /// Soft-threshold multiplier (Listing 1: `2`).
    #[serde(default = "default_soft_threshold")]
    pub soft_threshold: f64,
    /// History learning rate (extension; default `0.1`).
    #[serde(default = "default_learning_rate")]
    pub learning_rate: f64,
    /// Whether `error` is relative to the value magnitude (soft-dynamic) or
    /// absolute (extension; default relative).
    #[serde(default)]
    pub margin: MarginMode,
}

fn default_soft_threshold() -> f64 {
    2.0
}

fn default_learning_rate() -> f64 {
    0.1
}

impl Default for VdxParams {
    fn default() -> Self {
        VdxParams {
            error: 0.05,
            soft_threshold: default_soft_threshold(),
            learning_rate: default_learning_rate(),
            margin: MarginMode::Relative,
        }
    }
}

/// Fault-handling policy (VDX extension; §7 recommends such policies become
/// part of the definition: "It is also possible to extend VDX in a future
/// revision to support high-level descriptions of the desired fault handling
/// policy" — this revision does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct FaultPolicySpec {
    /// What to do when quorum is missed.
    #[serde(default)]
    pub on_no_quorum: FallbackKind,
    /// What to do when the voter errors.
    #[serde(default)]
    pub on_voter_error: FallbackKind,
    /// How to break categorical ties.
    #[serde(default)]
    pub on_tie: TieBreakKind,
}

/// Fallback action names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "SCREAMING_SNAKE_CASE")]
pub enum FallbackKind {
    /// Re-emit the last accepted output.
    #[default]
    LastGood,
    /// Raise the error.
    Error,
    /// Emit nothing for the round.
    Skip,
}

/// Tie-break names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "SCREAMING_SNAKE_CASE")]
pub enum TieBreakKind {
    /// Prefer the candidate matching the previous output.
    #[default]
    NearPrevious,
    /// Deterministically pick the lexicographically first candidate.
    First,
    /// Refuse to decide.
    Error,
}

/// A complete VDX voting definition.
///
/// Field names and enum spellings match the paper's Listing 1 JSON exactly;
/// fields beyond the listing are extensions with defaults, so every
/// paper-conformant document parses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct VdxSpec {
    /// Free-form label for the scheme (Listing 1: `"AVOC"`).
    pub algorithm_name: String,
    /// Quorum kind.
    #[serde(default)]
    pub quorum: QuorumKind,
    /// Percentage for `PERCENTAGE`/`UNTIL` quorums (Listing 1: `100`).
    #[serde(default)]
    pub quorum_percentage: Option<f64>,
    /// Count for `COUNT` quorums.
    #[serde(default)]
    pub quorum_count: Option<usize>,
    /// Exclusion kind.
    #[serde(default)]
    pub exclusion: ExclusionKind,
    /// Std-dev multiplier for `STDDEV` exclusion (Listing 1: `0`).
    #[serde(default)]
    pub exclusion_threshold: f64,
    /// Lower bound for `RANGE` exclusion.
    #[serde(default)]
    pub exclusion_min: Option<f64>,
    /// Upper bound for `RANGE` exclusion.
    #[serde(default)]
    pub exclusion_max: Option<f64>,
    /// History algorithm.
    #[serde(default)]
    pub history: HistoryKind,
    /// Algorithm parameters.
    #[serde(default)]
    pub params: VdxParams,
    /// Collation technique.
    #[serde(default)]
    pub collation: VdxCollation,
    /// Whether the clustering bootstrap/fallback is enabled (Listing 1:
    /// `true`). It clusters every round whose records are flat: with
    /// `history: HYBRID` this is AVOC, with `history: NONE` it is COV.
    #[serde(default)]
    pub bootstrapping: bool,
    /// Kind of value voted on (extension; default numeric).
    #[serde(default)]
    pub value_kind: ValueKind,
    /// Dimensionality for `VECTOR` values (extension).
    #[serde(default)]
    pub dimensions: Option<usize>,
    /// Stateless weighting mode (extension). `AGREEMENT` needs
    /// `history: NONE`: the history algorithms choose their own weights.
    #[serde(default)]
    pub weighting: WeightingKind,
    /// Fault-handling policy (extension).
    #[serde(default)]
    pub fault_policy: FaultPolicySpec,
}

impl VdxSpec {
    /// Parses a VDX JSON document.
    ///
    /// # Errors
    ///
    /// [`VdxError::Parse`] on malformed JSON or unknown fields. Parsing does
    /// *not* validate semantics — call [`VdxSpec::validate`].
    pub fn from_json(json: &str) -> Result<Self, VdxError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Serialises the spec to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialisation cannot fail")
    }

    /// Reads and parses a VDX document from a file — how a deployed voter
    /// service loads its configuration.
    ///
    /// # Errors
    ///
    /// [`VdxError::Parse`] on malformed JSON; I/O failures are wrapped into
    /// a parse error carrying the underlying message.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, VdxError> {
        let text = std::fs::read_to_string(path.as_ref()).map_err(|e| VdxError::Invalid {
            field: "file",
            reason: format!("cannot read {}: {e}", path.as_ref().display()),
        })?;
        Self::from_json(&text)
    }

    /// The paper's Listing-1 definition: AVOC with 5% error, soft
    /// threshold 2, full-quorum, mean-nearest-neighbour collation.
    pub fn avoc() -> Self {
        VdxSpec {
            algorithm_name: "AVOC".to_owned(),
            quorum: QuorumKind::Until,
            quorum_percentage: Some(100.0),
            history: HistoryKind::Hybrid,
            collation: VdxCollation::MeanNearestNeighbor,
            bootstrapping: true,
            ..Self::base("AVOC")
        }
    }

    /// A named preset for each algorithm of the paper's evaluation.
    ///
    /// Recognised names (case-insensitive): `average`, `stateless`,
    /// `standard`, `me` / `module-elimination`, `sdt` /
    /// `soft-dynamic-threshold`, `hybrid`, `cov` / `clustering-only`,
    /// `avoc`. Returns `None` for unknown names.
    pub fn preset(name: &str) -> Option<Self> {
        let lower = name.to_ascii_lowercase();
        let spec = match lower.as_str() {
            "average" | "avg" => VdxSpec {
                history: HistoryKind::None,
                weighting: WeightingKind::Uniform,
                ..Self::base("Average")
            },
            "stateless" | "stateless-weighted" => VdxSpec {
                history: HistoryKind::None,
                weighting: WeightingKind::Agreement,
                ..Self::base("StatelessWeighted")
            },
            "standard" => VdxSpec {
                history: HistoryKind::Standard,
                ..Self::base("Standard")
            },
            "me" | "module-elimination" => VdxSpec {
                history: HistoryKind::ModuleElimination,
                ..Self::base("ModuleElimination")
            },
            "sdt" | "soft-dynamic-threshold" => VdxSpec {
                history: HistoryKind::SoftDynamicThreshold,
                ..Self::base("SoftDynamicThreshold")
            },
            "hybrid" => VdxSpec {
                history: HistoryKind::Hybrid,
                collation: VdxCollation::MeanNearestNeighbor,
                ..Self::base("Hybrid")
            },
            "cov" | "clustering" | "clustering-only" => VdxSpec {
                history: HistoryKind::None,
                bootstrapping: true,
                ..Self::base("ClusteringOnly")
            },
            "avoc" => Self::avoc(),
            _ => return None,
        };
        Some(spec)
    }

    fn base(name: &str) -> Self {
        VdxSpec {
            algorithm_name: name.to_owned(),
            quorum: QuorumKind::Majority,
            quorum_percentage: None,
            quorum_count: None,
            exclusion: ExclusionKind::None,
            exclusion_threshold: 0.0,
            exclusion_min: None,
            exclusion_max: None,
            history: HistoryKind::None,
            params: VdxParams::default(),
            collation: VdxCollation::WeightedMean,
            bootstrapping: false,
            value_kind: ValueKind::Numeric,
            dimensions: None,
            weighting: WeightingKind::Uniform,
            fault_policy: FaultPolicySpec::default(),
        }
    }

    /// Checks the semantic rules of §6.
    ///
    /// # Errors
    ///
    /// [`VdxError::Invalid`] naming the offending field. The categorical
    /// restrictions enforced verbatim from the paper: no value-based
    /// exclusion, no hybrid history, no clustering bootstrap, and weighted
    /// majority as the only collation. `AGREEMENT` weighting needs
    /// `history: NONE`.
    pub fn validate(&self) -> Result<(), VdxError> {
        // Parameter sanity.
        if !(self.params.error.is_finite() && self.params.error >= 0.0) {
            return Err(VdxError::invalid("params.error", "must be finite and ≥ 0"));
        }
        if !(self.params.soft_threshold.is_finite() && self.params.soft_threshold >= 1.0) {
            return Err(VdxError::invalid("params.soft_threshold", "must be ≥ 1"));
        }
        if !(self.params.learning_rate > 0.0 && self.params.learning_rate <= 1.0) {
            return Err(VdxError::invalid(
                "params.learning_rate",
                "must be in (0, 1]",
            ));
        }

        // Quorum coherence.
        match self.quorum {
            QuorumKind::Percentage | QuorumKind::Until => {
                let p = self.quorum_percentage.ok_or_else(|| {
                    VdxError::invalid("quorum_percentage", "required for PERCENTAGE/UNTIL quorum")
                })?;
                if !(0.0..=100.0).contains(&p) {
                    return Err(VdxError::invalid("quorum_percentage", "must be in 0..=100"));
                }
            }
            QuorumKind::Count => {
                if self.quorum_count.is_none() {
                    return Err(VdxError::invalid(
                        "quorum_count",
                        "required for COUNT quorum",
                    ));
                }
            }
            QuorumKind::Any | QuorumKind::Majority => {}
        }

        // Exclusion coherence.
        match self.exclusion {
            ExclusionKind::StdDev => {
                if self.exclusion_threshold <= 0.0 {
                    return Err(VdxError::invalid(
                        "exclusion_threshold",
                        "must be > 0 for STDDEV exclusion",
                    ));
                }
            }
            ExclusionKind::Range => {
                let (min, max) = (self.exclusion_min, self.exclusion_max);
                match (min, max) {
                    (Some(lo), Some(hi)) if lo <= hi => {}
                    _ => {
                        return Err(VdxError::invalid(
                            "exclusion_min",
                            "RANGE exclusion needs exclusion_min ≤ exclusion_max",
                        ))
                    }
                }
            }
            ExclusionKind::None => {}
        }

        if self.weighting == WeightingKind::Agreement && self.history != HistoryKind::None {
            return Err(VdxError::invalid(
                "weighting",
                "AGREEMENT weighting applies to history NONE only; \
                 every history algorithm chooses its own weights",
            ));
        }

        // Value-kind restrictions.
        match self.value_kind {
            ValueKind::Categorical => {
                if self.exclusion != ExclusionKind::None {
                    return Err(VdxError::invalid(
                        "exclusion",
                        "value-based exclusion cannot be applied to categorical values",
                    ));
                }
                if self.history == HistoryKind::Hybrid
                    || self.history == HistoryKind::SoftDynamicThreshold
                {
                    return Err(VdxError::invalid(
                        "history",
                        "the fine-grained agreement definition cannot be applied to \
                         non-numeric values; use NONE, STANDARD or MODULE_ELIMINATION",
                    ));
                }
                if self.bootstrapping {
                    return Err(VdxError::invalid(
                        "bootstrapping",
                        "clustering-based bootstrapping cannot be applied to categorical values",
                    ));
                }
                if self.collation != VdxCollation::WeightedMajority {
                    return Err(VdxError::invalid(
                        "collation",
                        "the only collation method for categorical values is the \
                         weighted majority vote",
                    ));
                }
            }
            ValueKind::Numeric | ValueKind::Vector => {
                if self.collation == VdxCollation::WeightedMajority {
                    return Err(VdxError::invalid(
                        "collation",
                        "WEIGHTED_MAJORITY only applies to categorical values",
                    ));
                }
                if self.value_kind == ValueKind::Vector {
                    match self.dimensions {
                        Some(d) if d >= 1 => {}
                        _ => {
                            return Err(VdxError::invalid(
                                "dimensions",
                                "VECTOR values need dimensions ≥ 1",
                            ))
                        }
                    }
                }
            }
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING_1: &str = r#"{
        "algorithm_name": "AVOC",
        "quorum": "UNTIL",
        "quorum_percentage": 100,
        "exclusion": "NONE",
        "exclusion_threshold": 0,
        "history": "HYBRID",
        "params": { "error": 0.05, "soft_threshold": 2 },
        "collation": "MEAN_NEAREST_NEIGHBOR",
        "bootstrapping": true
    }"#;

    #[test]
    fn listing_1_parses_and_validates() {
        let spec = VdxSpec::from_json(LISTING_1).unwrap();
        assert_eq!(spec.algorithm_name, "AVOC");
        assert_eq!(spec.history, HistoryKind::Hybrid);
        assert_eq!(spec.params.error, 0.05);
        assert_eq!(spec.params.soft_threshold, 2.0);
        assert!(spec.bootstrapping);
        spec.validate().unwrap();
    }

    #[test]
    fn listing_1_equals_builtin_preset() {
        let parsed = VdxSpec::from_json(LISTING_1).unwrap();
        assert_eq!(parsed, VdxSpec::avoc());
    }

    #[test]
    fn json_round_trip_preserves_spec() {
        let spec = VdxSpec::avoc();
        let json = spec.to_json();
        let back = VdxSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let json = r#"{ "algorithm_name": "X", "bogus_field": 1 }"#;
        assert!(matches!(VdxSpec::from_json(json), Err(VdxError::Parse(_))));
    }

    #[test]
    fn minimal_document_uses_defaults() {
        let spec = VdxSpec::from_json(r#"{ "algorithm_name": "tiny" }"#).unwrap();
        assert_eq!(spec.quorum, QuorumKind::Majority);
        assert_eq!(spec.history, HistoryKind::Standard);
        assert_eq!(spec.params.error, 0.05);
        spec.validate().unwrap();
    }

    #[test]
    fn categorical_rejects_hybrid() {
        let mut spec = VdxSpec::base("cat");
        spec.value_kind = ValueKind::Categorical;
        spec.collation = VdxCollation::WeightedMajority;
        spec.history = HistoryKind::Hybrid;
        let err = spec.validate().unwrap_err();
        assert!(matches!(
            err,
            VdxError::Invalid {
                field: "history",
                ..
            }
        ));
    }

    #[test]
    fn categorical_rejects_bootstrap_and_exclusion_and_mean() {
        let mut spec = VdxSpec::base("cat");
        spec.value_kind = ValueKind::Categorical;
        spec.collation = VdxCollation::WeightedMajority;
        spec.history = HistoryKind::Standard;

        let mut s = spec.clone();
        s.bootstrapping = true;
        assert!(matches!(
            s.validate().unwrap_err(),
            VdxError::Invalid {
                field: "bootstrapping",
                ..
            }
        ));

        let mut s = spec.clone();
        s.exclusion = ExclusionKind::StdDev;
        s.exclusion_threshold = 2.0;
        assert!(matches!(
            s.validate().unwrap_err(),
            VdxError::Invalid {
                field: "exclusion",
                ..
            }
        ));

        let mut s = spec;
        s.collation = VdxCollation::WeightedMean;
        assert!(matches!(
            s.validate().unwrap_err(),
            VdxError::Invalid {
                field: "collation",
                ..
            }
        ));
    }

    #[test]
    fn numeric_rejects_weighted_majority() {
        let mut spec = VdxSpec::base("num");
        spec.collation = VdxCollation::WeightedMajority;
        assert!(matches!(
            spec.validate().unwrap_err(),
            VdxError::Invalid {
                field: "collation",
                ..
            }
        ));
    }

    #[test]
    fn agreement_weighting_needs_history_none() {
        let mut spec = VdxSpec::preset("stateless").unwrap();
        spec.validate().unwrap();
        for history in [
            HistoryKind::Standard,
            HistoryKind::ModuleElimination,
            HistoryKind::SoftDynamicThreshold,
            HistoryKind::Hybrid,
        ] {
            spec.history = history;
            assert!(matches!(
                spec.validate().unwrap_err(),
                VdxError::Invalid {
                    field: "weighting",
                    ..
                }
            ));
        }
    }

    #[test]
    fn vector_requires_dimensions() {
        let mut spec = VdxSpec::base("vec");
        spec.value_kind = ValueKind::Vector;
        assert!(matches!(
            spec.validate().unwrap_err(),
            VdxError::Invalid {
                field: "dimensions",
                ..
            }
        ));
        spec.dimensions = Some(3);
        spec.validate().unwrap();
    }

    #[test]
    fn quorum_coherence_is_checked() {
        let mut spec = VdxSpec::base("q");
        spec.quorum = QuorumKind::Percentage;
        assert!(spec.validate().is_err());
        spec.quorum_percentage = Some(150.0);
        assert!(spec.validate().is_err());
        spec.quorum_percentage = Some(60.0);
        spec.validate().unwrap();

        let mut spec = VdxSpec::base("q2");
        spec.quorum = QuorumKind::Count;
        assert!(spec.validate().is_err());
        spec.quorum_count = Some(3);
        spec.validate().unwrap();
    }

    #[test]
    fn exclusion_coherence_is_checked() {
        let mut spec = VdxSpec::base("e");
        spec.exclusion = ExclusionKind::StdDev;
        assert!(spec.validate().is_err());
        spec.exclusion_threshold = 2.5;
        spec.validate().unwrap();

        let mut spec = VdxSpec::base("e2");
        spec.exclusion = ExclusionKind::Range;
        assert!(spec.validate().is_err());
        spec.exclusion_min = Some(10.0);
        spec.exclusion_max = Some(0.0);
        assert!(spec.validate().is_err());
        spec.exclusion_max = Some(20.0);
        spec.validate().unwrap();
    }

    #[test]
    fn bad_params_are_rejected() {
        let mut spec = VdxSpec::base("p");
        spec.params.error = -0.1;
        assert!(spec.validate().is_err());

        let mut spec = VdxSpec::base("p2");
        spec.params.soft_threshold = 0.5;
        assert!(spec.validate().is_err());

        let mut spec = VdxSpec::base("p3");
        spec.params.learning_rate = 0.0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn all_presets_validate() {
        for name in [
            "average",
            "stateless",
            "standard",
            "me",
            "sdt",
            "hybrid",
            "cov",
            "avoc",
        ] {
            let spec = VdxSpec::preset(name).unwrap_or_else(|| panic!("preset {name}"));
            spec.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert!(VdxSpec::preset("nope").is_none());
    }

    #[test]
    fn preset_names_are_case_insensitive() {
        assert_eq!(VdxSpec::preset("AVOC"), VdxSpec::preset("avoc"));
    }
}

#[cfg(test)]
mod schema_tests {
    use crate::VDX_SCHEMA;

    #[test]
    fn schema_is_valid_json() {
        let schema: serde_json::Value = serde_json::from_str(VDX_SCHEMA).expect("valid json");
        assert_eq!(schema["title"], "VDX voting definition");
    }

    #[test]
    fn schema_covers_every_spec_field() {
        let schema: serde_json::Value = serde_json::from_str(VDX_SCHEMA).unwrap();
        let props = schema["properties"].as_object().expect("properties");
        // Every field the serde model serialises must be documented.
        let spec_json: serde_json::Value =
            serde_json::from_str(&super::VdxSpec::avoc().to_json()).unwrap();
        for key in spec_json.as_object().expect("object").keys() {
            assert!(props.contains_key(key), "schema misses field `{key}`");
        }
    }

    #[test]
    fn schema_enums_match_serde_spellings() {
        let schema: serde_json::Value = serde_json::from_str(VDX_SCHEMA).unwrap();
        let history = schema["properties"]["history"]["enum"]
            .as_array()
            .expect("history enum");
        for kind in [
            "NONE",
            "STANDARD",
            "MODULE_ELIMINATION",
            "SOFT_DYNAMIC_THRESHOLD",
            "HYBRID",
        ] {
            assert!(
                history.iter().any(|v| v == kind),
                "history enum misses {kind}"
            );
        }
    }
}
