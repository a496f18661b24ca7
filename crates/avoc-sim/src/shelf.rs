//! The smart-shopping shelf scenario from the paper's introduction: "in
//! smart shopping scenarios with networked shelf labels, the degree of
//! redundancy rises significantly to dozens of proximity sensors".
//!
//! [`ShelfScenario`] models a shelf instrumented with dozens of redundant
//! proximity sensors reporting the distance (cm) to the nearest customer.
//! Customers approach, dwell and leave in episodes; sensors carry bias,
//! noise and occasional infrared glitches (spurious short readings — the
//! classic proximity-sensor failure). This is the high-redundancy regime
//! that motivates voting-based fusion, and the workload the candidate-count
//! scaling ablations run on.

use crate::trace::RecordedTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parametric generator for the shelf proximity dataset.
///
/// # Example
///
/// ```
/// use avoc_sim::ShelfScenario;
///
/// let trace = ShelfScenario::new(33, 500, 7).generate();
/// assert_eq!(trace.modules().len(), 33);
/// assert_eq!(trace.rounds(), 500);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShelfScenario {
    sensors: usize,
    rounds: usize,
    seed: u64,
    sample_rate_hz: f64,
    idle_distance_cm: f64,
    glitch_probability: f64,
}

impl ShelfScenario {
    /// A shelf with `sensors` redundant proximity sensors observed for
    /// `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `sensors == 0` or `rounds == 0`.
    pub fn new(sensors: usize, rounds: usize, seed: u64) -> Self {
        assert!(sensors > 0, "need at least one sensor");
        assert!(rounds > 0, "need at least one round");
        ShelfScenario {
            sensors,
            rounds,
            seed,
            sample_rate_hz: 4.0,
            idle_distance_cm: 180.0,
            glitch_probability: 0.002,
        }
    }

    /// The introduction's "dozens of proximity sensors" configuration:
    /// 33 sensors.
    pub fn paper_scale(rounds: usize, seed: u64) -> Self {
        Self::new(33, rounds, seed)
    }

    /// Overrides the per-sensor, per-round infrared glitch probability.
    pub fn with_glitch_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.glitch_probability = p;
        self
    }

    /// Number of sensors on the shelf.
    pub fn sensors(&self) -> usize {
        self.sensors
    }

    /// Generates the trace (deterministic per seed). Values are distances
    /// in centimetres; smaller = customer closer.
    pub fn generate(&self) -> RecordedTrace {
        let mut rng = StdRng::seed_from_u64(self.seed);

        let biases: Vec<f64> = (0..self.sensors)
            .map(|_| rng.random_range(-3.0..3.0))
            .collect();
        let sigmas: Vec<f64> = (0..self.sensors)
            .map(|_| rng.random_range(0.8..2.5))
            .collect();

        // Customer episodes: (arrival round, dwell rounds, closest distance).
        let mut episodes: Vec<(usize, usize, f64)> = Vec::new();
        let mut t = 0usize;
        loop {
            t += rng.random_range(40..200);
            if t >= self.rounds {
                break;
            }
            episodes.push((t, rng.random_range(20..80), rng.random_range(25.0..60.0)));
        }

        let mut values = Vec::with_capacity(self.rounds);
        for r in 0..self.rounds {
            // True distance to the nearest customer this round.
            let mut true_d = self.idle_distance_cm;
            for &(arrival, dwell, close_d) in &episodes {
                if r < arrival || r >= arrival + dwell {
                    continue;
                }
                // Approach over the first quarter, dwell, leave over the
                // last quarter of the episode.
                let quarter = (dwell / 4).max(1);
                let progress = r - arrival;
                let d = if progress < quarter {
                    let f = progress as f64 / quarter as f64;
                    self.idle_distance_cm + f * (close_d - self.idle_distance_cm)
                } else if progress >= dwell - quarter {
                    let f = (dwell - progress) as f64 / quarter as f64;
                    self.idle_distance_cm + f * (close_d - self.idle_distance_cm)
                } else {
                    close_d
                };
                true_d = true_d.min(d);
            }

            let row: Vec<Option<f64>> = (0..self.sensors)
                .map(|s| {
                    if rng.random_range(0.0..1.0) < self.glitch_probability {
                        // Infrared glitch: a spurious very-short reading.
                        return Some(rng.random_range(1.0..10.0));
                    }
                    let u1: f64 = rng.random_range(1e-12..1.0);
                    let u2: f64 = rng.random_range(0.0..1.0);
                    let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    Some((true_d + biases[s] + sigmas[s] * noise).max(0.0))
                })
                .collect();
            values.push(row);
        }

        let modules = (1..=self.sensors).map(|i| format!("P{i}")).collect();
        RecordedTrace::new(modules, values, self.sample_rate_hz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_has_dozens_of_sensors() {
        let t = ShelfScenario::paper_scale(100, 1).generate();
        assert_eq!(t.modules().len(), 33);
        assert_eq!(t.modules()[0], "P1");
    }

    #[test]
    fn idle_shelf_reads_far() {
        let t = ShelfScenario::new(10, 30, 2).generate();
        // No episode starts before round 40, so all 30 rounds are idle.
        for r in 0..30 {
            for v in t.row(r).iter().flatten() {
                assert!(*v > 100.0 || *v < 10.0, "idle distance or glitch, got {v}");
            }
        }
    }

    #[test]
    fn customers_eventually_approach() {
        let t = ShelfScenario::new(10, 2000, 3).generate();
        let min = (0..t.rounds())
            .flat_map(|r| t.row(r).to_vec())
            .flatten()
            .fold(f64::INFINITY, f64::min);
        assert!(min < 70.0, "no customer ever approached (min {min})");
    }

    #[test]
    fn glitches_occur_at_roughly_the_configured_rate() {
        let t = ShelfScenario::new(20, 1000, 4)
            .with_glitch_probability(0.01)
            .generate();
        // Idle periods read ~180 cm; glitches read < 10 cm. Count readings
        // implausibly far from their row median.
        let mut glitches = 0usize;
        let mut total = 0usize;
        for r in 0..t.rounds() {
            for v in t.row(r).iter().flatten() {
                total += 1;
                if *v < 15.0 {
                    glitches += 1;
                }
            }
        }
        let rate = glitches as f64 / total as f64;
        assert!(rate > 0.004 && rate < 0.03, "glitch rate {rate}");
    }

    #[test]
    fn voting_suppresses_glitches() {
        use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter, Voter};

        let t = ShelfScenario::new(33, 300, 5)
            .with_glitch_probability(0.01)
            .generate();
        let mut voter =
            HistoryVoter::with_defaults(HistoryAlgorithm::Stateless).with_bootstrap(true);
        for round in t.iter_rounds() {
            let out = voter.vote(&round).unwrap().number().unwrap();
            assert!(
                out > 15.0,
                "a glitch leaked into the fused output: {out} at round {}",
                round.round
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ShelfScenario::new(5, 50, 9).generate();
        let b = ShelfScenario::new(5, 50, 9).generate();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one sensor")]
    fn zero_sensors_panics() {
        let _ = ShelfScenario::new(0, 10, 0);
    }
}
