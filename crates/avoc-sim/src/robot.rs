//! Robot kinematics for the UC-2 tunnel scenario.
//!
//! The paper's Lego EV3 robot "drives slowly in a straight line with no
//! line-of-sight obstacles from one beacon stack to the other, across a
//! distance of 15 meters ... at 7% of its specified top speed (0.09 m/s)".

/// A constant-velocity straight-line path between two stack positions.
///
/// # Example
///
/// ```
/// use avoc_sim::RobotPath;
///
/// let path = RobotPath::paper_default();
/// let xs = path.sample_positions(297);
/// assert_eq!(xs[0], 0.0);
/// // Half-way through the run is half-way along the track.
/// assert!((xs[148] - 7.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobotPath {
    distance_m: f64,
    speed_mps: f64,
}

impl RobotPath {
    /// The paper's run: 15 m at 0.09 m/s.
    pub fn paper_default() -> Self {
        RobotPath {
            distance_m: 15.0,
            speed_mps: 0.09,
        }
    }

    /// Track length in metres.
    pub fn distance_m(&self) -> f64 {
        self.distance_m
    }

    /// Total traversal time in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.distance_m / self.speed_mps
    }

    /// Positions sampled at `n` evenly spaced instants across the run —
    /// the paper collects 297 measurement rounds this way.
    pub fn sample_positions(&self, n: usize) -> Vec<f64> {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![0.0];
        }
        (0..n)
            .map(|i| self.distance_m * i as f64 / (n - 1) as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_run_takes_under_three_minutes_per_leg_claim() {
        let p = RobotPath::paper_default();
        // 15 m / 0.09 m/s ≈ 166.7 s.
        assert!((p.duration_secs() - 166.6667).abs() < 0.01);
    }

    #[test]
    fn samples_span_the_track() {
        let p = RobotPath::paper_default();
        let xs = p.sample_positions(297);
        assert_eq!(xs.len(), 297);
        assert_eq!(xs[0], 0.0);
        assert!((xs[296] - 15.0).abs() < 1e-12);
        assert!(xs.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn degenerate_sample_counts() {
        let p = RobotPath::paper_default();
        assert!(p.sample_positions(0).is_empty());
        assert_eq!(p.sample_positions(1), vec![0.0]);
    }
}
