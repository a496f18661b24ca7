//! # avoc-core — history-aware voting for sensor data fusion
//!
//! A from-scratch implementation of the voting algorithms studied and
//! contributed by *"AVOC: History-Aware Data Fusion for Reliable IoT
//! Analytics"* (Middleware '22): the Standard history-based weighted
//! average, Module-Elimination, Soft-Dynamic-Threshold and Hybrid voters
//! from the literature, plus the paper's contributions — clustering-only
//! voting and **AVOC**, the clustering-bootstrapped Hybrid voter.
//!
//! The crate is organised in three layers:
//!
//! * **values and rounds** — [`Value`], [`ModuleId`], [`Ballot`], [`Round`]:
//!   what redundant modules submit;
//! * **voters** — the [`algorithms`] module: one [`algorithms::Voter`] per
//!   algorithm, each fusing one round into a [`algorithms::Verdict`];
//! * **the engine** — [`engine::VotingEngine`]: quorum, pre-vote exclusion
//!   and the paper's fault policies (missing values, ties, last-good
//!   fallback) wrapped around any voter.
//!
//! # Quickstart
//!
//! ```
//! use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter, Voter};
//! use avoc_core::Round;
//!
//! // AVOC: the Hybrid history voter with the clustering bootstrap.
//! let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid).with_bootstrap(true);
//!
//! // Five redundant sensors; the fourth is faulty (+6 on ~18).
//! let round = Round::from_numbers(0, &[18.0, 18.1, 17.9, 24.0, 18.05]);
//! let verdict = voter.vote(&round)?;
//!
//! // AVOC's clustering bootstrap excluded the outlier in round one.
//! assert!(verdict.bootstrapped);
//! assert!((verdict.number().unwrap() - 18.0).abs() < 0.2);
//! # Ok::<(), avoc_core::VoteError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
pub mod algorithms;
pub mod collation;
pub mod engine;
pub mod error;
pub mod exclusion;
pub mod history;
pub mod multidim;
pub mod quorum;
pub mod round;
pub mod value;

pub use agreement::{AgreementMatrix, AgreementParams};
pub use algorithms::{Verdict, Voter, VoterConfig};
pub use collation::Collation;
pub use engine::{FallbackAction, FaultPolicy, RoundResult, TieBreak, VotingEngine};
pub use error::VoteError;
pub use exclusion::Exclusion;
pub use history::{DenseHistory, HistoryStore, HistoryUpdate, MemoryHistory};
pub use quorum::Quorum;
pub use round::{Ballot, ModuleId, Round};
pub use value::Value;

// Re-exported so downstream crates configure margin modes without a direct
// avoc-cluster dependency.
pub use avoc_cluster::MarginMode;
