//! The UC-1 light-sensor testbed (Fig. 1/2 of the paper), synthesised.
//!
//! The paper records "10'000 rounds of concurrent measurements from 5
//! sensors, polling at 8 samples/s ... representing 1250 seconds of data
//! collection", with raw readings in the 17–20 kilolumen band (Fig. 6-a).
//! [`LightScenario`] reproduces that shape: a shared sunlight field (slow
//! drift plus two sinusoidal components and occasional cloud attenuation)
//! observed by sensors with individual bias, gain and noise.

use crate::trace::RecordedTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parametric generator for the smart-building light dataset.
///
/// # Example
///
/// ```
/// use avoc_sim::LightScenario;
///
/// let trace = LightScenario::paper_default(42).generate();
/// assert_eq!(trace.rounds(), 10_000);
/// assert_eq!(trace.modules().len(), 5);
/// // Readings stay within the paper's 17–20 klm band.
/// let v = trace.row(0)[0].unwrap();
/// assert!(v > 16.0 && v < 21.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LightScenario {
    sensors: usize,
    rounds: usize,
    seed: u64,
    sample_rate_hz: f64,
    base_klm: f64,
    noise_sigma: f64,
}

impl LightScenario {
    /// The paper's configuration: 5 sensors × 10 000 rounds at 8 S/s around
    /// 18.5 klm.
    pub fn paper_default(seed: u64) -> Self {
        LightScenario {
            sensors: 5,
            rounds: 10_000,
            seed,
            sample_rate_hz: 8.0,
            base_klm: 18.5,
            noise_sigma: 0.06,
        }
    }

    /// Creates a scenario with explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sensors == 0` or `rounds == 0`.
    pub fn new(sensors: usize, rounds: usize, seed: u64) -> Self {
        assert!(sensors > 0, "need at least one sensor");
        assert!(rounds > 0, "need at least one round");
        LightScenario {
            sensors,
            rounds,
            ..Self::paper_default(seed)
        }
    }

    /// Number of sensors.
    pub fn sensors(&self) -> usize {
        self.sensors
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Generates the reference trace (deterministic per seed).
    pub fn generate(&self) -> RecordedTrace {
        self.generate_with_truth().0
    }

    /// Generates the reference trace together with the *true* shared light
    /// field per round — the ground truth no real deployment has ("in the
    /// absence of external ground truth ... voting is a pragmatic
    /// substitute"), but which a simulator can expose so fused outputs can
    /// be scored absolutely (RMSE/MAE against truth).
    pub fn generate_with_truth(&self) -> (RecordedTrace, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Per-sensor imperfections: a fixed bias, a gain error and an
        // individual noise level — uncalibrated redundant sensors.
        let biases: Vec<f64> = (0..self.sensors)
            .map(|_| rng.random_range(-0.25..0.25))
            .collect();
        let gains: Vec<f64> = (0..self.sensors)
            .map(|_| rng.random_range(0.995..1.005))
            .collect();
        let sigmas: Vec<f64> = (0..self.sensors)
            .map(|_| self.noise_sigma * rng.random_range(0.7..1.3))
            .collect();

        // Cloud events: occasional smooth dips in the shared field.
        let mut clouds: Vec<(f64, f64, f64)> = Vec::new(); // (centre s, width s, depth klm)
        let duration = self.rounds as f64 / self.sample_rate_hz;
        let mut t = 0.0;
        while t < duration {
            t += rng.random_range(120.0..400.0);
            clouds.push((t, rng.random_range(15.0..60.0), rng.random_range(0.2..0.8)));
        }

        let mut values = Vec::with_capacity(self.rounds);
        let mut truth = Vec::with_capacity(self.rounds);
        for r in 0..self.rounds {
            let time = r as f64 / self.sample_rate_hz;
            // Shared sunlight field: slow diurnal-ish drift + two faster
            // harmonics + cloud dips.
            let mut field = self.base_klm
                + 0.7 * (2.0 * std::f64::consts::PI * time / 1100.0).sin()
                + 0.25 * (2.0 * std::f64::consts::PI * time / 131.0 + 1.3).sin()
                + 0.08 * (2.0 * std::f64::consts::PI * time / 17.0 + 0.4).sin();
            for &(centre, width, depth) in &clouds {
                let d = (time - centre) / width;
                field -= depth * (-d * d).exp();
            }
            truth.push(field);

            let row: Vec<Option<f64>> = (0..self.sensors)
                .map(|s| {
                    let noise: f64 = {
                        // Box–Muller keeps us independent of rand_distr.
                        let u1: f64 = rng.random_range(1e-12..1.0);
                        let u2: f64 = rng.random_range(0.0..1.0);
                        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                    };
                    Some(field * gains[s] + biases[s] + sigmas[s] * noise)
                })
                .collect();
            values.push(row);
        }

        let modules = (1..=self.sensors).map(|i| format!("E{i}")).collect();
        (
            RecordedTrace::new(modules, values, self.sample_rate_hz),
            truth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let t = LightScenario::paper_default(1).generate();
        assert_eq!(t.rounds(), 10_000);
        assert_eq!(t.modules().len(), 5);
        assert_eq!(t.modules()[3], "E4");
        assert!((t.duration_secs() - 1250.0).abs() < 1e-9);
        assert_eq!(t.missing_fraction(), 0.0);
    }

    #[test]
    fn values_stay_in_the_fig6a_band() {
        let t = LightScenario::paper_default(7).generate();
        for r in (0..t.rounds()).step_by(97) {
            for v in t.row(r) {
                let v = v.unwrap();
                assert!(v > 16.0 && v < 21.0, "out-of-band value {v} at round {r}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = LightScenario::paper_default(5).generate();
        let b = LightScenario::paper_default(5).generate();
        assert_eq!(a, b);
        let c = LightScenario::paper_default(6).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn sensors_disagree_but_mildly() {
        let t = LightScenario::paper_default(3).generate();
        let mut max_spread: f64 = 0.0;
        for r in 0..t.rounds() {
            let row: Vec<f64> = t.row(r).iter().map(|v| v.unwrap()).collect();
            let lo = row.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            max_spread = max_spread.max(hi - lo);
        }
        // Redundant sensors of the same field: spread well under the 5%
        // agreement band (~0.9 klm) but not zero.
        assert!(max_spread > 0.05, "spread {max_spread}");
        assert!(max_spread < 1.2, "spread {max_spread}");
    }

    #[test]
    fn field_drifts_over_time() {
        let t = LightScenario::paper_default(9).generate();
        let early = t.row(0)[0].unwrap();
        let mid = t.row(5000)[0].unwrap();
        assert!((early - mid).abs() > 0.1, "field should drift");
    }

    #[test]
    fn custom_geometry() {
        let t = LightScenario::new(3, 100, 0).generate();
        assert_eq!(t.modules().len(), 3);
        assert_eq!(t.rounds(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one sensor")]
    fn zero_sensors_panics() {
        let _ = LightScenario::new(0, 10, 0);
    }
}

#[cfg(test)]
mod truth_tests {
    use super::*;

    #[test]
    fn truth_matches_trace_length_and_band() {
        let (trace, truth) = LightScenario::new(5, 500, 21).generate_with_truth();
        assert_eq!(truth.len(), trace.rounds());
        assert!(truth.iter().all(|t| *t > 16.0 && *t < 21.0));
    }

    #[test]
    fn sensor_readings_scatter_around_truth() {
        let (trace, truth) = LightScenario::new(5, 500, 22).generate_with_truth();
        for r in (0..trace.rounds()).step_by(37) {
            for v in trace.row(r).iter().flatten() {
                assert!(
                    (v - truth[r]).abs() < 0.6,
                    "reading {v} vs truth {}",
                    truth[r]
                );
            }
        }
    }

    #[test]
    fn generate_is_the_truthful_trace() {
        let scenario = LightScenario::new(3, 100, 23);
        assert_eq!(scenario.generate(), scenario.generate_with_truth().0);
    }
}
