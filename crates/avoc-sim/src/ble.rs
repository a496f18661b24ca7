//! The UC-2 BLE beacon testbed (Fig. 3/4 of the paper), synthesised.
//!
//! Two stacks of nine redundant beacons stand 15 m apart; the robot drives
//! between them taking RSSI measurements — 297 rounds per beacon in the
//! paper's recording. The synthetic model is a log-distance path-loss
//! channel with per-beacon transmit-power spread, slow shadowing, heavy fast
//! fading, and distance-dependent packet loss producing the missing values
//! the paper's fault analysis centres on. The resulting series are
//! deliberately *chaotic*: the paper's key UC-2 finding — history records
//! are useless under this noise, collation dominates — depends on it.

use crate::robot::RobotPath;
use crate::trace::RecordedTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generated two-stack recording.
#[derive(Debug, Clone, PartialEq)]
pub struct BleTrace {
    /// Stack A (at position 0 m): 9 beacon series.
    pub stack_a: RecordedTrace,
    /// Stack B (at 15 m): 9 beacon series.
    pub stack_b: RecordedTrace,
    /// Robot position (metres from stack A) per round.
    pub positions: Vec<f64>,
}

impl BleTrace {
    /// Ground truth: `true` when stack A is the closer stack in `round`.
    pub fn stack_a_closer(&self, round: usize) -> bool {
        self.positions[round] < 7.5
    }

    /// Number of rounds recorded.
    pub fn rounds(&self) -> usize {
        self.positions.len()
    }
}

/// Parametric generator for the tunnel-positioning dataset.
///
/// # Example
///
/// ```
/// use avoc_sim::BleScenario;
///
/// let trace = BleScenario::paper_default(42).generate();
/// assert_eq!(trace.rounds(), 297);
/// assert_eq!(trace.stack_a.modules().len(), 9);
/// // Missing values exist, as in the paper's recording.
/// assert!(trace.stack_a.missing_fraction() > 0.02);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BleScenario {
    beacons_per_stack: usize,
    rounds: usize,
    seed: u64,
    path: RobotPath,
    tx_power_dbm: f64,
    path_loss_exponent: f64,
    fading_sigma_db: f64,
}

impl BleScenario {
    /// The paper's setup: 2 × 9 beacons, 15 m, 297 rounds.
    pub fn paper_default(seed: u64) -> Self {
        BleScenario {
            beacons_per_stack: 9,
            rounds: 297,
            seed,
            path: RobotPath::paper_default(),
            tx_power_dbm: -52.0,
            path_loss_exponent: 2.1,
            fading_sigma_db: 5.0,
        }
    }

    /// Custom geometry.
    ///
    /// # Panics
    ///
    /// Panics if `beacons_per_stack == 0` or `rounds == 0`.
    pub fn new(beacons_per_stack: usize, rounds: usize, seed: u64) -> Self {
        assert!(beacons_per_stack > 0, "need at least one beacon per stack");
        assert!(rounds > 0, "need at least one round");
        BleScenario {
            beacons_per_stack,
            rounds,
            ..Self::paper_default(seed)
        }
    }

    /// Generates the two-stack trace (deterministic per seed).
    pub fn generate(&self) -> BleTrace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let positions = self.path.sample_positions(self.rounds);
        let sample_rate = self.rounds as f64 / self.path.duration_secs();

        let stack_a = self.generate_stack(&mut rng, &positions, 0.0, "A");
        let stack_b = self.generate_stack(&mut rng, &positions, self.path.distance_m(), "B");
        BleTrace {
            stack_a: RecordedTrace::new(stack_a.0, stack_a.1, sample_rate),
            stack_b: RecordedTrace::new(stack_b.0, stack_b.1, sample_rate),
            positions,
        }
    }

    #[allow(clippy::type_complexity)]
    fn generate_stack(
        &self,
        rng: &mut StdRng,
        positions: &[f64],
        stack_pos_m: f64,
        prefix: &str,
    ) -> (Vec<String>, Vec<Vec<Option<f64>>>) {
        let n = self.beacons_per_stack;
        // Per-beacon idiosyncrasies: TX power spread (uncalibrated units),
        // mount height in the stack, and an antenna-quality factor scaling
        // its noise.
        let tx: Vec<f64> = (0..n)
            .map(|_| self.tx_power_dbm + rng.random_range(-3.0..3.0))
            .collect();
        let heights: Vec<f64> = (0..n).map(|i| 0.2 + 0.15 * i as f64).collect();
        let noise_scale: Vec<f64> = (0..n).map(|_| rng.random_range(0.8..1.4)).collect();
        // Slow shadowing state per beacon (first-order autoregressive walk).
        let mut shadow = vec![0.0f64; n];

        let mut values = Vec::with_capacity(positions.len());
        for &pos in positions {
            let dx = (pos - stack_pos_m).abs();
            let row: Vec<Option<f64>> = (0..n)
                .map(|b| {
                    // Receiver at ~0.3 m height on the robot.
                    let dh = heights[b] - 0.3;
                    let d = (dx * dx + dh * dh).sqrt().max(0.3);

                    // Packet delivery decays with distance; the far stack
                    // loses packets much more often — the paper's "some
                    // beacons not being reachable".
                    let p_delivery = (1.02 - 0.035 * d).clamp(0.45, 0.99);
                    if rng.random_range(0.0..1.0) > p_delivery {
                        return None;
                    }

                    // AR(1) shadowing + Gaussian fast fading.
                    shadow[b] = 0.95 * shadow[b] + 0.05 * rng.random_range(-6.0..6.0);
                    let u1: f64 = rng.random_range(1e-12..1.0);
                    let u2: f64 = rng.random_range(0.0..1.0);
                    let fading = (-2.0 * u1.ln()).sqrt()
                        * (2.0 * std::f64::consts::PI * u2).cos()
                        * self.fading_sigma_db
                        * noise_scale[b];

                    let rssi =
                        tx[b] - 10.0 * self.path_loss_exponent * d.log10() + shadow[b] + fading;
                    // Physical receiver floor/ceiling.
                    Some(rssi.clamp(-100.0, -40.0))
                })
                .collect();
            values.push(row);
        }

        let modules = (1..=n).map(|i| format!("{prefix}{i}")).collect();
        (modules, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let t = BleScenario::paper_default(1).generate();
        assert_eq!(t.rounds(), 297);
        assert_eq!(t.stack_a.modules().len(), 9);
        assert_eq!(t.stack_b.modules().len(), 9);
        assert_eq!(t.stack_a.modules()[0], "A1");
        assert_eq!(t.stack_b.modules()[8], "B9");
    }

    #[test]
    fn rssi_is_in_the_fig7_band() {
        let t = BleScenario::paper_default(2).generate();
        for trace in [&t.stack_a, &t.stack_b] {
            for r in 0..trace.rounds() {
                for v in trace.row(r).iter().flatten() {
                    assert!((-100.0..=-40.0).contains(v), "rssi {v}");
                }
            }
        }
    }

    #[test]
    fn near_stack_is_louder_on_average() {
        let t = BleScenario::paper_default(3).generate();
        let mean_at = |trace: &RecordedTrace, r: usize| -> f64 {
            let xs: Vec<f64> = trace.row(r).iter().flatten().copied().collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        // Average over the first 30 rounds (robot at stack A).
        let near_a: f64 = (0..30).map(|r| mean_at(&t.stack_a, r)).sum::<f64>() / 30.0;
        let far_b: f64 = (0..30).map(|r| mean_at(&t.stack_b, r)).sum::<f64>() / 30.0;
        assert!(
            near_a > far_b + 5.0,
            "stack A should be much louder early: A {near_a:.1} vs B {far_b:.1}"
        );
    }

    #[test]
    fn signal_crosses_over_mid_track() {
        let t = BleScenario::paper_default(4).generate();
        let avg_band = |trace: &RecordedTrace, range: std::ops::Range<usize>| -> f64 {
            let mut sum = 0.0;
            let mut n = 0usize;
            for r in range {
                for v in trace.row(r).iter().flatten() {
                    sum += v;
                    n += 1;
                }
            }
            sum / n.max(1) as f64
        };
        let late = 260..297;
        assert!(avg_band(&t.stack_b, late.clone()) > avg_band(&t.stack_a, late) + 5.0);
    }

    #[test]
    fn missing_values_grow_with_distance() {
        let t = BleScenario::paper_default(5).generate();
        let missing_in = |trace: &RecordedTrace, range: std::ops::Range<usize>| -> usize {
            range
                .map(|r| trace.row(r).iter().filter(|v| v.is_none()).count())
                .sum()
        };
        // Stack A: robot starts adjacent (few losses) and ends 15 m away
        // (many losses).
        let early = missing_in(&t.stack_a, 0..60);
        let late = missing_in(&t.stack_a, 237..297);
        assert!(late > early, "late {late} vs early {early}");
        assert!(t.stack_a.missing_fraction() > 0.02);
    }

    #[test]
    fn measurements_are_chaotic() {
        // Round-to-round swings far beyond any 5%-style agreement band —
        // the regime where the paper finds history useless.
        let t = BleScenario::paper_default(6).generate();
        let series: Vec<f64> = t.stack_a.series(0).into_iter().flatten().collect();
        let max_jump = series
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0f64, f64::max);
        assert!(max_jump > 8.0, "max jump {max_jump}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = BleScenario::paper_default(9).generate();
        let b = BleScenario::paper_default(9).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn ground_truth_flips_at_midpoint() {
        let t = BleScenario::paper_default(1).generate();
        assert!(t.stack_a_closer(0));
        assert!(!t.stack_a_closer(296));
    }

    #[test]
    fn custom_geometry() {
        let t = BleScenario::new(3, 50, 0).generate();
        assert_eq!(t.stack_a.modules().len(), 3);
        assert_eq!(t.rounds(), 50);
    }
}
