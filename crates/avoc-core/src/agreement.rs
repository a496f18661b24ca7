//! Agreement scoring between candidate values (§4 of the paper).
//!
//! The *Standard* history-based voter uses a binary notion of agreement: two
//! values agree when they lie within an accepted error threshold. The
//! *Soft-Dynamic-Threshold* variant (Das & Bhattacharya) grades agreement: a
//! score of `1` within the threshold, decaying linearly to `0` at a
//! configurable multiple of it. The *Hybrid* voter's peer-agreement weights
//! reuse this soft score.

use avoc_cluster::MarginMode;

/// Parameters governing how two scalar values are compared for agreement.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    #[inline]
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
    #[inline]
    pub fn soft_score(&self, a: f64, b: f64) -> f64 {
        self.scores(a, b).1
    }

    /// Both scores of `a` against `b` from one tolerance: whether they agree
    /// (a [`AgreementParams::binary_score`] of `1`) and the
    /// [`AgreementParams::soft_score`].
    #[inline]
    pub(crate) fn scores(&self, a: f64, b: f64) -> (bool, f64) {
        let d = (a - b).abs();
        let tol = self.tolerance(a, b);
        if d <= tol {
            return (true, 1.0);
        }
        let soft_edge = tol * self.soft_multiplier;
        if d >= soft_edge || soft_edge <= tol {
            return (false, 0.0);
        }
        (false, 1.0 - (d - tol) / (soft_edge - tol))
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

    #[test]
    fn scores_agree_with_the_binary_score() {
        let p = AgreementParams::new(0.05, 2.0, MarginMode::Relative);
        for b in [100.0, 104.0, 105.25, 107.5, 110.0, 112.0, -100.0] {
            let (agrees, soft) = p.scores(100.0, b);
            assert_eq!(agrees, p.binary_score(100.0, b) == 1.0, "b = {b}");
            assert_eq!(soft.to_bits(), p.soft_score(100.0, b).to_bits());
            assert!(!agrees || soft == 1.0);
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
