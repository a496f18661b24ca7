//! # avoc-bench — the experiment harness
//!
//! One binary per figure/table of the paper's evaluation (§7):
//!
//! | Target | Reproduces |
//! |---|---|
//! | `fig6 a..f` | Fig. 6: UC-1 light sensors, error injection |
//! | `fig6 table` / `convergence` | the 4× convergence-boost claim |
//! | `fig7 a/b/c/groups` | Fig. 7: UC-2 BLE stacks, collation grouping |
//! | `latency` | §7 implementation notes (history ≈ 1 ms vs stateless ≈ 50 µs, datastore-bound) |
//! | `compare` | the Fig. 5 algorithm-comparison application |
//!
//! The library half hosts the shared harness: the algorithm roster, the trace
//! runner and experiment configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use avoc_core::algorithms::{AverageVoter, HistoryAlgorithm, HistoryVoter};
use avoc_core::{
    AgreementParams, Collation, HistoryUpdate, MarginMode, MemoryHistory, Voter, VoterConfig,
};
use avoc_sim::{FaultInjector, FaultKind, LightScenario, RecordedTrace};

/// Configuration of the UC-1 (Fig. 6) experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Config {
    /// Trace seed.
    pub seed: u64,
    /// Number of rounds (paper: 10 000).
    pub rounds: usize,
    /// The faulty sensor (paper: E4, index 3).
    pub fault_module: usize,
    /// Fault magnitude in klm (paper: +6).
    pub fault_klm: f64,
    /// Agreement error threshold (paper: 0.05 relative).
    pub error: f64,
    /// Soft-threshold multiplier (paper: 2).
    pub soft_multiplier: f64,
    /// History rate for the ME/Sdt/Hybrid/AVOC family. Their elimination is
    /// *relative* (below-average), so the rate only sets recovery speed.
    pub fast_rate: f64,
    /// History rate for the Standard voter. Its mitigation is *absolute*
    /// (skew shrinks only as the record decays), and the original HWA uses
    /// small reward/penalty steps — a small rate reproduces the paper's
    /// "slowly mitigated ... not eliminated completely after 10 000 rounds"
    /// shape.
    pub standard_rate: f64,
    /// Binary acceptance band for the binary-threshold voters (Standard and
    /// ME). HWA's threshold is calibrated to the application: it must cover
    /// the output skew a fault induces on healthy sensors (≈ fault/n ≈ 1.2
    /// klm here, i.e. ~7% of signal), otherwise healthy records decay
    /// alongside the faulty one and no discrimination happens. The graded
    /// voters (Sdt/Hybrid/AVOC) reach 2×error via the soft band and keep the
    /// paper's 5%.
    pub standard_error: f64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            seed: 1973,
            rounds: 10_000,
            fault_module: 3,
            fault_klm: 6.0,
            error: 0.05,
            soft_multiplier: 2.0,
            fast_rate: 0.1,
            standard_rate: 8e-5,
            standard_error: 0.08,
        }
    }
}

impl Fig6Config {
    /// The shared voter configuration (collation per algorithm).
    pub fn voter_config(&self, rate: f64, collation: Collation) -> VoterConfig {
        VoterConfig::new()
            .with_agreement(AgreementParams::new(
                self.error,
                self.soft_multiplier,
                MarginMode::Relative,
            ))
            .with_update(HistoryUpdate::new(rate))
            .with_collation(collation)
    }

    /// The clean reference trace.
    pub fn clean_trace(&self) -> RecordedTrace {
        LightScenario::new(5, self.rounds, self.seed).generate()
    }

    /// The error-injected trace (Fig. 6-c).
    pub fn faulty_trace(&self) -> RecordedTrace {
        FaultInjector::new(self.fault_module, FaultKind::Offset(self.fault_klm))
            .apply(&self.clean_trace(), self.seed)
    }

    /// The Fig. 6 algorithm roster, freshly constructed: `avg.`,
    /// `standard`, `ME`, `Sdt`, `Hybrid`, `Clustering` (COV), `AVOC`, plus
    /// the stateless-weighted baseline the COV discussion references.
    pub fn roster(&self) -> Vec<(&'static str, Box<dyn Voter>)> {
        let fast = self.fast_rate;
        let std_rate = self.standard_rate;
        vec![
            ("avg", Box::new(AverageVoter::new())),
            (
                "stateless",
                Box::new(HistoryVoter::new(
                    HistoryAlgorithm::Stateless,
                    self.voter_config(fast, Collation::WeightedMean),
                    MemoryHistory::new(),
                )),
            ),
            (
                "standard",
                Box::new(HistoryVoter::new(
                    HistoryAlgorithm::Standard,
                    VoterConfig::new()
                        .with_agreement(AgreementParams::new(
                            self.standard_error,
                            self.soft_multiplier,
                            MarginMode::Relative,
                        ))
                        .with_update(HistoryUpdate::new(std_rate))
                        .with_collation(Collation::WeightedMean),
                    MemoryHistory::new(),
                )),
            ),
            (
                "me",
                Box::new(HistoryVoter::new(
                    HistoryAlgorithm::ModuleElimination,
                    VoterConfig::new()
                        .with_agreement(AgreementParams::new(
                            self.standard_error,
                            self.soft_multiplier,
                            MarginMode::Relative,
                        ))
                        .with_update(HistoryUpdate::new(fast))
                        .with_collation(Collation::WeightedMean),
                    MemoryHistory::new(),
                )),
            ),
            (
                "sdt",
                Box::new(HistoryVoter::new(
                    HistoryAlgorithm::SoftDynamicThreshold,
                    self.voter_config(fast, Collation::WeightedMean),
                    MemoryHistory::new(),
                )),
            ),
            (
                "hybrid",
                Box::new(HistoryVoter::new(
                    HistoryAlgorithm::Hybrid,
                    self.voter_config(fast, Collation::MeanNearestNeighbor),
                    MemoryHistory::new(),
                )),
            ),
            (
                "clustering",
                Box::new(
                    HistoryVoter::new(
                        HistoryAlgorithm::Stateless,
                        self.voter_config(fast, Collation::WeightedMean),
                        MemoryHistory::new(),
                    )
                    .with_bootstrap(true),
                ),
            ),
            (
                "avoc",
                Box::new(
                    HistoryVoter::new(
                        HistoryAlgorithm::Hybrid,
                        self.voter_config(fast, Collation::MeanNearestNeighbor),
                        MemoryHistory::new(),
                    )
                    .with_bootstrap(true),
                ),
            ),
        ]
    }

    /// Builds one roster entry by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name — the roster is fixed by the figure.
    pub fn voter(&self, name: &str) -> Box<dyn Voter> {
        self.roster()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown algorithm {name}"))
            .1
    }
}

/// Runs a voter over every round of a trace, returning the output series
/// (`None` where the voter errored, e.g. an all-missing round).
pub fn run_voter(voter: &mut dyn Voter, trace: &RecordedTrace) -> Vec<Option<f64>> {
    trace
        .iter_rounds()
        .map(|round| voter.vote(&round).ok().and_then(|v| v.number()))
        .collect()
}

/// Downsamples a series to at most `n` evenly spaced points (for plotting).
pub fn downsample(series: &[Option<f64>], n: usize) -> Vec<Option<f64>> {
    if n == 0 || series.len() <= n {
        return series.to_vec();
    }
    (0..n)
        .map(|i| series[i * (series.len() - 1) / (n - 1)])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> Fig6Config {
        Fig6Config {
            rounds: 300,
            ..Fig6Config::default()
        }
    }

    #[test]
    fn roster_has_the_fig6_variants() {
        let cfg = smoke();
        let names: Vec<&str> = cfg.roster().iter().map(|(n, _)| *n).collect();
        for expected in [
            "avg",
            "standard",
            "me",
            "sdt",
            "hybrid",
            "clustering",
            "avoc",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn run_voter_produces_one_output_per_round() {
        let cfg = smoke();
        let trace = cfg.clean_trace();
        let mut voter = cfg.voter("avoc");
        let out = run_voter(voter.as_mut(), &trace);
        assert_eq!(out.len(), trace.rounds());
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn faulty_trace_shifts_only_the_fault_module() {
        let cfg = smoke();
        let clean = cfg.clean_trace();
        let faulty = cfg.faulty_trace();
        let delta =
            faulty.row(5)[cfg.fault_module].unwrap() - clean.row(5)[cfg.fault_module].unwrap();
        assert!((delta - cfg.fault_klm).abs() < 1e-12);
        assert_eq!(faulty.row(5)[0], clean.row(5)[0]);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let series: Vec<Option<f64>> = (0..100).map(|i| Some(i as f64)).collect();
        let ds = downsample(&series, 10);
        assert_eq!(ds.len(), 10);
        assert_eq!(ds[0], Some(0.0));
        assert_eq!(ds[9], Some(99.0));
        // Short series pass through unchanged.
        assert_eq!(downsample(&series, 200).len(), 100);
    }

    #[test]
    #[should_panic(expected = "unknown algorithm")]
    fn unknown_voter_panics() {
        let _ = smoke().voter("nope");
    }
}
