//! Mean-shift clustering (Comaniciu & Meer, 2002) with a flat (uniform)
//! kernel.
//!
//! Mean-shift is the second algorithm the AVOC paper names for generalising
//! the clustering bootstrap to multi-dimensional data (§5). It needs no
//! cluster-count parameter — only a bandwidth — which fits AVOC's
//! self-calibration goal.

use super::point::{centroid, Point};

/// Iteration cap per point.
const MAX_ITER: usize = 300;

/// A point whose shift falls below this has converged.
const TOL: f64 = 1e-6;

/// Result of a mean-shift fit.
#[derive(Debug, Clone, PartialEq)]
pub struct MeanShiftResult {
    /// The discovered modes (cluster centres).
    pub modes: Vec<Point>,
    /// For each input point, the index of its mode in `modes`.
    pub assignments: Vec<usize>,
}

impl MeanShiftResult {
    /// The number of discovered modes.
    pub fn k(&self) -> usize {
        self.modes.len()
    }

    /// Sizes of each mode's basin, indexed like `modes`.
    fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.modes.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// Indices of the points attracted to the most popular mode.
    pub fn largest_cluster_members(&self) -> Vec<usize> {
        let sizes = self.cluster_sizes();
        let best = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == best)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Flat-kernel mean-shift clusterer.
///
/// # Example
///
/// ```
/// use avoc_core::cluster::{MeanShift, Point};
///
/// let points: Vec<Point> = [1.0, 1.1, 0.9, 9.0, 9.2]
///     .iter().map(|&v| Point::scalar(v)).collect();
/// let fit = MeanShift::new(1.0).fit(&points);
/// assert_eq!(fit.k(), 2);
/// assert_eq!(fit.assignments[0], fit.assignments[1]);
/// assert_ne!(fit.assignments[0], fit.assignments[3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanShift {
    bandwidth: f64,
}

impl MeanShift {
    /// Creates a mean-shift clusterer with the given kernel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not finite and positive.
    pub fn new(bandwidth: f64) -> Self {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive, got {bandwidth}"
        );
        MeanShift { bandwidth }
    }

    /// Runs mean-shift: every point ascends to its density mode; modes within
    /// half a bandwidth of each other are merged.
    pub fn fit(&self, points: &[Point]) -> MeanShiftResult {
        if points.is_empty() {
            return MeanShiftResult {
                modes: Vec::new(),
                assignments: Vec::new(),
            };
        }
        let bw_sq = self.bandwidth * self.bandwidth;
        let mut converged: Vec<Point> = Vec::with_capacity(points.len());
        for p in points {
            let mut x = p.clone();
            for _ in 0..MAX_ITER {
                let in_window: Vec<Point> = points
                    .iter()
                    .filter(|q| x.distance_sq(q) <= bw_sq)
                    .cloned()
                    .collect();
                let next = centroid(&in_window).expect("window contains x itself");
                let shift = x.distance(&next);
                x = next;
                if shift < TOL {
                    break;
                }
            }
            converged.push(x);
        }

        // Merge modes closer than bandwidth/2.
        let merge_d = self.bandwidth / 2.0;
        let mut modes: Vec<Point> = Vec::new();
        let mut assignments = vec![0usize; points.len()];
        for (i, m) in converged.iter().enumerate() {
            match modes
                .iter()
                .position(|existing| existing.distance(m) <= merge_d)
            {
                Some(id) => assignments[i] = id,
                None => {
                    modes.push(m.clone());
                    assignments[i] = modes.len() - 1;
                }
            }
        }
        MeanShiftResult { modes, assignments }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(vs: &[f64]) -> Vec<Point> {
        vs.iter().map(|&v| Point::scalar(v)).collect()
    }

    #[test]
    fn empty_input() {
        let fit = MeanShift::new(1.0).fit(&[]);
        assert_eq!(fit.k(), 0);
        assert!(fit.assignments.is_empty());
    }

    #[test]
    fn one_blob_one_mode() {
        let fit = MeanShift::new(1.0).fit(&pts(&[5.0, 5.1, 4.9, 5.05]));
        assert_eq!(fit.k(), 1);
        assert!((fit.modes[0][0] - 5.0).abs() < 0.2);
    }

    #[test]
    fn two_blobs_two_modes() {
        let fit = MeanShift::new(1.0).fit(&pts(&[1.0, 1.1, 0.9, 9.0, 9.1, 8.9]));
        assert_eq!(fit.k(), 2);
        let sizes = fit.cluster_sizes();
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn bandwidth_controls_granularity() {
        let points = pts(&[0.0, 1.0, 2.0, 3.0, 4.0]);
        let coarse = MeanShift::new(10.0).fit(&points);
        assert_eq!(coarse.k(), 1);
        let fine = MeanShift::new(0.1).fit(&points);
        assert_eq!(fine.k(), 5);
    }

    #[test]
    fn largest_cluster_is_majority() {
        let fit = MeanShift::new(1.0).fit(&pts(&[1.0, 1.1, 0.95, 1.05, 50.0]));
        let members = fit.largest_cluster_members();
        assert_eq!(members, vec![0, 1, 2, 3]);
    }

    #[test]
    fn modes_match_assignment_count() {
        let fit = MeanShift::new(2.0).fit(&pts(&[0.0, 0.5, 20.0, 20.5, 40.0]));
        assert_eq!(fit.assignments.len(), 5);
        assert!(fit.assignments.iter().all(|&a| a < fit.k()));
    }

    #[test]
    fn two_dimensional_modes() {
        let points = vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![0.1, 0.0]),
            Point::new(vec![8.0, 8.0]),
            Point::new(vec![8.0, 8.1]),
        ];
        let fit = MeanShift::new(1.0).fit(&points);
        assert_eq!(fit.k(), 2);
        assert_eq!(fit.assignments[0], fit.assignments[1]);
        assert_eq!(fit.assignments[2], fit.assignments[3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_bandwidth_panics() {
        let _ = MeanShift::new(0.0);
    }
}
