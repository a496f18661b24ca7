//! # avoc-vdx — the VDX voting-definition specification
//!
//! VDX (§6 of the AVOC paper) is a JSON scheme that "precisely defines
//! application requirements and allows users to select appropriate
//! parameters for software voters", describing a superset of VDL-scoped
//! algorithms. This crate provides:
//!
//! * [`VdxSpec`] — the format's document model, read from and written to
//!   JSON by hand (Listing 1 of the paper parses verbatim);
//! * [`validate`](VdxSpec::validate) — the semantic rules, including the
//!   categorical-value restrictions of §6;
//! * [`build_voter`] / [`build_engine`] — the factory turning a spec into a
//!   runnable [`avoc_core::Voter`] or fully-policied
//!   [`avoc_core::VotingEngine`].
//!
//! # Example: the paper's Listing 1
//!
//! ```
//! let json = r#"{
//!     "algorithm_name": "AVOC",
//!     "quorum": "UNTIL",
//!     "quorum_percentage": 100,
//!     "exclusion": "NONE",
//!     "exclusion_threshold": 0,
//!     "history": "HYBRID",
//!     "params": { "error": 0.05, "soft_threshold": 2 },
//!     "collation": "MEAN_NEAREST_NEIGHBOR",
//!     "bootstrapping": true
//! }"#;
//! let spec = avoc_vdx::VdxSpec::from_json(json)?;
//! spec.validate()?;
//! let voter = avoc_vdx::build_voter(&spec)?;
//! assert_eq!(voter.name(), "avoc");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod error;
mod json;
mod spec;

/// The JSON-Schema document describing the VDX format — the "full schema"
/// the paper's artifact repository ships. Useful for editor tooling and
/// non-Rust validators; the authoritative semantic rules live in
/// [`VdxSpec::validate`].
pub const VDX_SCHEMA: &str = include_str!("../schema/vdx.schema.json");

pub use build::{build_engine, build_voter};
pub use error::{InvalidName, VdxError};
pub use spec::{
    ExclusionKind, FallbackKind, FaultPolicySpec, HistoryKind, QuorumKind, TieBreakKind, ValueKind,
    VdxCollation, VdxParams, VdxSpec, WeightingKind,
};
