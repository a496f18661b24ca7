//! Clustering substrate for the AVOC voting system.
//!
//! The AVOC paper (§5) bootstraps history-based voting with a *simplified
//! clustering algorithm*: values within a (soft-dynamic) scaling threshold of
//! each other are grouped, and the largest group wins. That algorithm lives in
//! [`agreement`] and is the one the voting core uses.
//!
//! For the multi-dimensional generalisation the paper points at unsupervised
//! algorithms such as Mean-shift and X-means; [`meanshift`] is the one the
//! voting core bootstraps vector rounds with (`avoc_core::multidim`).
//!
//! # Example
//!
//! ```
//! use avoc_cluster::agreement::{AgreementClusterer, MarginMode};
//!
//! let clusterer = AgreementClusterer::new(0.05, MarginMode::Relative);
//! let values = [18.0, 18.1, 18.05, 25.0, 17.95];
//! let clustering = clusterer.cluster(&values);
//! let largest = clustering.largest_cluster().expect("non-empty input");
//! assert_eq!(largest.members().len(), 4); // the 18-ish group; 25.0 is an outlier
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
pub mod meanshift;
pub mod point;
pub mod stats;

pub use agreement::{AgreementClusterer, Cluster, Clustering, MarginMode};
pub use meanshift::{MeanShift, MeanShiftResult};
pub use point::Point;
