//! Pre-vote exclusion: automatically pruning outlier values before the
//! algorithm runs (VDX `exclusion` / `exclusion_threshold`).
//!
//! The paper notes that value-based exclusion "cannot be applied" to
//! categorical values, "as there can be no mean or standard deviation
//! calculation" — exclusion therefore only exists on the numeric path.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Exclusion policy applied to each round's numeric candidates before the
/// voter sees them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Exclusion {
    /// No exclusion (Listing 1: `"exclusion": "NONE"`).
    #[default]
    None,
    /// Exclude candidates farther than `k` standard deviations from the
    /// round mean.
    StdDev(f64),
    /// Exclude candidates outside a fixed plausible range — a physical
    /// sanity filter (e.g. RSSI can never be positive).
    Range {
        /// Smallest plausible value (inclusive).
        min: f64,
        /// Largest plausible value (inclusive).
        max: f64,
    },
}

impl Exclusion {
    /// Writes the indices of candidates to exclude into `out` (cleared
    /// first), so the engine's hot path reuses one buffer across rounds.
    ///
    /// With fewer than three candidates, [`Exclusion::StdDev`] excludes
    /// nothing: a standard deviation over one or two samples cannot single
    /// out an outlier meaningfully.
    pub fn excluded_into(&self, values: &[f64], out: &mut Vec<usize>) {
        out.clear();
        match *self {
            Exclusion::None => {}
            Exclusion::StdDev(k) => {
                if values.len() < 3 || k <= 0.0 {
                    return;
                }
                let n = values.len() as f64;
                let mean = values.iter().sum::<f64>() / n;
                let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
                let sd = var.sqrt();
                if sd == 0.0 {
                    return;
                }
                out.extend(
                    values
                        .iter()
                        .enumerate()
                        .filter(|(_, &v)| (v - mean).abs() > k * sd)
                        .map(|(i, _)| i),
                );
            }
            Exclusion::Range { min, max } => out.extend(
                values
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v < min || v > max)
                    .map(|(i, _)| i),
            ),
        }
    }
}

impl fmt::Display for Exclusion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exclusion::None => write!(f, "none"),
            Exclusion::StdDev(k) => write!(f, "stddev({k})"),
            Exclusion::Range { min, max } => write!(f, "range[{min}, {max}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_excludes_nothing() {
        let mut out = vec![7];
        Exclusion::None.excluded_into(&[1.0, 99.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stddev_excludes_far_outlier() {
        let mut out = Vec::new();
        Exclusion::StdDev(1.5).excluded_into(&[18.0, 18.1, 18.2, 17.9, 40.0], &mut out);
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn stddev_keeps_tight_data() {
        let mut out = Vec::new();
        Exclusion::StdDev(2.0).excluded_into(&[18.0, 18.1, 18.2], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stddev_needs_three_candidates() {
        let mut out = Vec::new();
        Exclusion::StdDev(1.0).excluded_into(&[1.0, 100.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn stddev_identical_values_no_exclusion() {
        let mut out = Vec::new();
        Exclusion::StdDev(1.0).excluded_into(&[5.0, 5.0, 5.0, 5.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn range_excludes_out_of_bounds() {
        let e = Exclusion::Range {
            min: -100.0,
            max: 0.0,
        };
        let mut out = Vec::new();
        e.excluded_into(&[-80.0, -101.0, 3.0, -55.0], &mut out);
        assert_eq!(out, vec![1, 2]);
        // The buffer is cleared before each call.
        e.excluded_into(&[-80.0, 5.0], &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn non_positive_k_disables_stddev() {
        let mut out = Vec::new();
        Exclusion::StdDev(0.0).excluded_into(&[1.0, 2.0, 100.0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        for e in [
            Exclusion::None,
            Exclusion::StdDev(2.0),
            Exclusion::Range { min: 0.0, max: 1.0 },
        ] {
            let json = serde_json::to_string(&e).unwrap();
            let back: Exclusion = serde_json::from_str(&json).unwrap();
            assert_eq!(back, e);
        }
    }
}
