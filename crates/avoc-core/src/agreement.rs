//! Agreement scoring between candidate values (§4 of the paper).
//!
//! The *Standard* history-based voter uses a binary notion of agreement: two
//! values agree when they lie within an accepted error threshold. The
//! *Soft-Dynamic-Threshold* variant (Das & Bhattacharya) grades agreement: a
//! score of `1` within the threshold, decaying linearly to `0` at a
//! configurable multiple of it. The *Hybrid* voter and AVOC's clustering
//! bootstrap both reuse this soft score.

use avoc_cluster::MarginMode;
use serde::{Deserialize, Serialize};

/// Parameters governing how two scalar values are compared for agreement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgreementParams {
    /// The accepted error threshold (relative fraction or absolute units
    /// depending on `margin`). Paper UC-1 uses `0.05` relative.
    pub error: f64,
    /// The soft-threshold multiplier: values are in *graded* agreement up to
    /// `soft_multiplier × error`. `1.0` collapses to binary agreement.
    /// Paper UC-1 uses `2`.
    pub soft_multiplier: f64,
    /// Whether `error` scales with the magnitude of the compared values
    /// (soft-dynamic) or is a fixed distance.
    pub margin: MarginMode,
}

impl AgreementParams {
    /// Creates agreement parameters.
    ///
    /// # Panics
    ///
    /// Panics if `error` is negative/non-finite or `soft_multiplier < 1`.
    pub fn new(error: f64, soft_multiplier: f64, margin: MarginMode) -> Self {
        assert!(
            error.is_finite() && error >= 0.0,
            "error must be finite and non-negative, got {error}"
        );
        assert!(
            soft_multiplier.is_finite() && soft_multiplier >= 1.0,
            "soft_multiplier must be at least 1, got {soft_multiplier}"
        );
        AgreementParams {
            error,
            soft_multiplier,
            margin,
        }
    }

    /// The paper's UC-1 configuration: 5% relative error, soft multiplier 2.
    pub fn paper_default() -> Self {
        AgreementParams::new(0.05, 2.0, MarginMode::Relative)
    }

    /// The tolerance for comparing `a` and `b`.
    pub fn tolerance(&self, a: f64, b: f64) -> f64 {
        match self.margin {
            MarginMode::Relative => self.error * a.abs().max(b.abs()),
            MarginMode::Absolute => self.error,
        }
    }

    /// Binary agreement: `1.0` when within tolerance, else `0.0`.
    pub fn binary_score(&self, a: f64, b: f64) -> f64 {
        if (a - b).abs() <= self.tolerance(a, b) {
            1.0
        } else {
            0.0
        }
    }

    /// Soft-dynamic-threshold agreement score in `[0, 1]`:
    ///
    /// * `1.0` within the accepted threshold,
    /// * linear decay between the threshold and `soft_multiplier ×` it,
    /// * `0.0` beyond.
    pub fn soft_score(&self, a: f64, b: f64) -> f64 {
        let d = (a - b).abs();
        let tol = self.tolerance(a, b);
        if d <= tol {
            return 1.0;
        }
        let soft_edge = tol * self.soft_multiplier;
        if d >= soft_edge || soft_edge <= tol {
            return 0.0;
        }
        1.0 - (d - tol) / (soft_edge - tol)
    }

    /// Builds an [`avoc_cluster::AgreementClusterer`] mirroring these
    /// parameters — "the clustering step ... is selected to mirror the
    /// parameters of the given algorithm" (§5).
    pub fn clusterer(&self) -> avoc_cluster::AgreementClusterer {
        avoc_cluster::AgreementClusterer::new(self.error, self.margin)
    }
}

impl Default for AgreementParams {
    fn default() -> Self {
        AgreementParams::paper_default()
    }
}

/// Pairwise agreement scores among one round's candidates.
///
/// Row `i`, column `j` holds the score between candidates `i` and `j`; the
/// diagonal is `1.0`. Used by the Hybrid voter's agreement-based weights.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AgreementMatrix {
    n: usize,
    scores: Vec<f64>,
}

impl AgreementMatrix {
    /// An empty matrix, ready to be filled in place by
    /// [`AgreementMatrix::soft_in_place`].
    pub fn empty() -> Self {
        AgreementMatrix {
            n: 0,
            scores: Vec::new(),
        }
    }

    /// Recomputes this matrix as the soft-score matrix for `values`, reusing
    /// the existing buffer: it only allocates while the candidate count is
    /// still growing. With `soft_multiplier = 1` the scores are binary.
    pub fn soft_in_place(&mut self, params: &AgreementParams, values: &[f64]) {
        let n = values.len();
        self.n = n;
        self.scores.clear();
        self.scores.resize(n * n, 1.0);
        for i in 0..n {
            for j in (i + 1)..n {
                let s = params.soft_score(values[i], values[j]);
                self.scores[i * n + j] = s;
                self.scores[j * n + i] = s;
            }
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The score between candidates `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn score(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.scores[i * self.n + j]
    }

    /// Candidate `i`'s total agreement with its non-excluded peers (diagonal
    /// excluded), i.e. the Hybrid voter's per-round agreement weight.
    pub fn peer_support_among(&self, i: usize, included: &[bool]) -> f64 {
        assert_eq!(included.len(), self.n, "inclusion mask length mismatch");
        (0..self.n)
            .filter(|&j| j != i && included[j])
            .map(|j| self.score(i, j))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_score_thresholds() {
        let p = AgreementParams::new(0.05, 2.0, MarginMode::Relative);
        // tol = 0.05 × max(|a|, |b|)
        assert_eq!(p.binary_score(100.0, 104.0), 1.0); // tol 5.2, d 4.0
        assert_eq!(p.binary_score(100.0, 106.0), 0.0); // tol 5.3, d 6.0
                                                       // symmetric
        assert_eq!(p.binary_score(104.0, 100.0), 1.0);
    }

    #[test]
    fn soft_score_decays_linearly() {
        let p = AgreementParams::new(0.05, 2.0, MarginMode::Relative);
        // tol = 5.25 (max |a|,|b| = 105), soft edge = 10.5
        assert_eq!(p.soft_score(100.0, 105.0), 1.0);
        let mid = p.soft_score(100.0, 107.5);
        assert!(mid > 0.0 && mid < 1.0, "mid = {mid}");
        assert_eq!(p.soft_score(100.0, 112.0), 0.0);
    }

    #[test]
    fn soft_score_halfway_point() {
        let p = AgreementParams::new(1.0, 3.0, MarginMode::Absolute);
        // tol = 1, soft edge = 3; distance 2 is halfway through the decay.
        assert!((p.soft_score(0.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn soft_multiplier_one_is_binary() {
        let p = AgreementParams::new(1.0, 1.0, MarginMode::Absolute);
        assert_eq!(p.soft_score(0.0, 0.5), 1.0);
        assert_eq!(p.soft_score(0.0, 1.5), 0.0);
    }

    #[test]
    fn absolute_margin_ignores_magnitude() {
        let p = AgreementParams::new(2.0, 2.0, MarginMode::Absolute);
        assert_eq!(p.binary_score(-80.0, -78.5), 1.0);
        assert_eq!(p.binary_score(-80.0, -77.0), 0.0);
    }

    #[test]
    fn paper_default_matches_listing_1() {
        let p = AgreementParams::paper_default();
        assert_eq!(p.error, 0.05);
        assert_eq!(p.soft_multiplier, 2.0);
        assert_eq!(p.margin, MarginMode::Relative);
    }

    fn soft(params: &AgreementParams, values: &[f64]) -> AgreementMatrix {
        let mut m = AgreementMatrix::empty();
        m.soft_in_place(params, values);
        m
    }

    #[test]
    fn matrix_diagonal_and_symmetry() {
        let p = AgreementParams::paper_default();
        let m = soft(&p, &[18.0, 18.2, 25.0]);
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert_eq!(m.score(i, i), 1.0);
            for j in 0..3 {
                assert_eq!(m.score(i, j), m.score(j, i));
            }
        }
    }

    #[test]
    fn peer_support_identifies_outlier() {
        let p = AgreementParams::paper_default();
        let m = soft(&p, &[18.0, 18.1, 18.2, 25.0]);
        let all = [true; 4];
        let outlier = m.peer_support_among(3, &all);
        for i in 0..3 {
            assert!(m.peer_support_among(i, &all) > outlier);
        }
        assert_eq!(outlier, 0.0);
    }

    #[test]
    fn peer_support_among_respects_mask() {
        let p = AgreementParams::new(1.0, 1.0, MarginMode::Absolute);
        // soft_multiplier 1: binary agreement.
        let m = soft(&p, &[0.0, 0.5, 0.6]);
        let full = m.peer_support_among(0, &[true; 3]);
        let masked = m.peer_support_among(0, &[true, false, true]);
        assert_eq!(full, 2.0);
        assert_eq!(masked, 1.0);
    }

    #[test]
    fn empty_matrix() {
        let p = AgreementParams::paper_default();
        let m = soft(&p, &[]);
        assert!(m.is_empty());
    }

    #[test]
    fn in_place_rebuild_matches_fresh_build() {
        let p = AgreementParams::paper_default();
        let mut reused = AgreementMatrix::empty();
        // Shrinking then growing must fully overwrite stale scores.
        for values in [
            &[18.0, 18.1, 25.0, 18.2][..],
            &[1.0, 2.0][..],
            &[18.0, 18.05, 18.1][..],
        ] {
            reused.soft_in_place(&p, values);
            assert_eq!(reused, soft(&p, values));
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn soft_multiplier_below_one_panics() {
        let _ = AgreementParams::new(0.05, 0.5, MarginMode::Relative);
    }

    #[test]
    fn clusterer_mirrors_params() {
        let p = AgreementParams::new(0.07, 2.0, MarginMode::Relative);
        let c = p.clusterer();
        assert_eq!(c.threshold(), 0.07);
        assert_eq!(c.mode(), MarginMode::Relative);
    }
}
