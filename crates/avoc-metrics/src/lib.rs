//! # avoc-metrics — evaluation metrics for the AVOC experiments
//!
//! The quantities the paper's evaluation reports:
//!
//! * [`convergence`] — "voting rounds required to converge back to the
//!   baseline" and "how far the new stable value is from the original"
//!   (UC-1 metrics (a) and (b)), the rounds behind the 4× headline claim;
//! * [`series`] — output differencing for Fig. 6-e ("output difference
//!   between voting on the raw values and voting on the error-injected
//!   values");
//! * [`ambiguity`] — "the number of rounds while it is ambiguous which
//!   stack of sensors is closest to the robot" (UC-2, Fig. 7);
//! * [`accuracy`] — RMSE/MAE/bias against the simulators' known ground
//!   truth (the external truth real deployments lack);
//! * [`stats`] — summary statistics;
//! * [`report`] — ASCII tables and line plots for the bench binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod ambiguity;
pub mod convergence;
pub mod report;
pub mod series;
pub mod stats;

pub use accuracy::AccuracyReport;
pub use ambiguity::AmbiguityReport;
pub use convergence::{rounds_to_converge, stable_value, ConvergenceReport};
pub use report::{AsciiPlot, Table};
pub use series::{diff_series, moving_average};
pub use stats::Summary;
