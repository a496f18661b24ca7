//! # avoc-bench — the experiment harness
//!
//! One binary, `avoc-bench`, prints every figure and table of the paper's
//! evaluation (§7); [`run`] is its entry point:
//!
//! | Subcommand | Reproduces |
//! |---|---|
//! | `fig6 [a..f\|table\|all]` | Fig. 6: UC-1 light sensors, error injection |
//! | `fig7 [a\|b\|c\|groups\|all]` | Fig. 7: UC-2 BLE stacks, collation grouping |
//! | `convergence` | the 4× convergence-boost claim, over ten seeds |
//! | `ablation` | the design choices DESIGN.md calls out, by output quality |
//! | `compare [--scenario S] [algo ...]` | the Fig. 5 algorithm-comparison application |
//! | `datasets [out_dir]` | the CSV reference datasets |
//! | `latency` | §7 implementation notes (history ≈ 1 ms vs stateless ≈ 50 µs, datastore-bound) |
//! | `figures` | `fig6 all`, `fig7 all`, `convergence`, `ablation` and `compare`: what `tests/figures.txt` holds |
//!
//! [`metrics`] holds the quantities the figures report; the rest of the
//! library is the shared harness: the algorithm roster, the trace runner
//! and experiment configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod compare;
mod convergence;
mod datasets;
mod fig6;
mod fig7;
mod latency;
pub mod metrics;

use avoc_core::algorithms::{AverageVoter, HistoryAlgorithm, HistoryVoter};
use avoc_core::{
    AgreementParams, Collation, HistoryUpdate, MarginMode, MemoryHistory, Voter, VoterConfig,
};
use avoc_sim::{FaultInjector, FaultKind, LightScenario, RecordedTrace};
use metrics::ConvergenceReport;
use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// The subcommands [`run`] takes, for a usage message.
const USAGE: &str = "usage: avoc-bench fig6 [a|b|c|d|e|f|table|all] | fig7 [a|b|c|groups|all] \
     | convergence | ablation | compare [--scenario light|light-faulty|ble] [algo ...] \
     | datasets [out_dir] | latency | figures";

/// Why [`run`] failed.
#[derive(Debug)]
pub enum Error {
    /// The arguments name no subcommand, figure or scenario.
    Usage(String),
    /// Writing the output or a dataset failed.
    Io(io::Error),
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(problem) => write!(f, "{problem}\n{USAGE}"),
            Error::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

/// Runs one subcommand (`args` without the program name), writing what it
/// prints to `out`.
pub fn run(args: &[&str], out: &mut impl Write) -> Result<(), Error> {
    match args {
        ["fig6"] => fig6::print(out, "all"),
        ["fig6", part] => fig6::print(out, part),
        ["fig7"] => fig7::print(out, "all"),
        ["fig7", part] => fig7::print(out, part),
        ["convergence"] => Ok(convergence::print(out)?),
        ["ablation"] => Ok(ablation::print(out)?),
        ["compare", rest @ ..] => {
            let (scenario, algos) = match rest {
                ["--scenario", scenario, algos @ ..] => (*scenario, algos),
                algos => (compare::SCENARIO, algos),
            };
            let algos = if algos.is_empty() {
                &compare::ALGORITHMS[..]
            } else {
                algos
            };
            compare::print(out, scenario, algos)
        }
        ["datasets"] => Ok(datasets::write(out, Path::new("datasets"))?),
        ["datasets", dir] => Ok(datasets::write(out, Path::new(dir))?),
        ["latency"] => Ok(latency::print(out)?),
        ["figures"] => {
            fig6::print(out, "all")?;
            fig7::print(out, "all")?;
            convergence::print(out)?;
            ablation::print(out)?;
            compare::print(out, compare::SCENARIO, &compare::ALGORITHMS)
        }
        _ => Err(Error::Usage(format!("unknown arguments {args:?}"))),
    }
}

/// Configuration of the UC-1 (Fig. 6) experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Fig6Config {
    /// Trace seed.
    pub(crate) seed: u64,
    /// Number of rounds (paper: 10 000).
    pub(crate) rounds: usize,
    /// The faulty sensor (paper: E4, index 3).
    pub(crate) fault_module: usize,
    /// Fault magnitude in klm (paper: +6).
    pub(crate) fault_klm: f64,
    /// Agreement error threshold (paper: 0.05 relative).
    pub(crate) error: f64,
    /// Soft-threshold multiplier (paper: 2).
    pub(crate) soft_multiplier: f64,
    /// History rate for the ME/Sdt/Hybrid/AVOC family. Their elimination is
    /// *relative* (below-average), so the rate only sets recovery speed.
    pub(crate) fast_rate: f64,
    /// History rate for the Standard voter. Its mitigation is *absolute*
    /// (skew shrinks only as the record decays), and the original HWA uses
    /// small reward/penalty steps — a small rate reproduces the paper's
    /// "slowly mitigated ... not eliminated completely after 10 000 rounds"
    /// shape.
    pub(crate) standard_rate: f64,
    /// Binary acceptance band for the binary-threshold voters (Standard and
    /// ME). HWA's threshold is calibrated to the application: it must cover
    /// the output skew a fault induces on healthy sensors (≈ fault/n ≈ 1.2
    /// klm here, i.e. ~7% of signal), otherwise healthy records decay
    /// alongside the faulty one and no discrimination happens. The graded
    /// voters (Sdt/Hybrid/AVOC) reach 2×error via the soft band and keep the
    /// paper's 5%.
    pub(crate) standard_error: f64,
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
    pub(crate) fn voter_config(&self, rate: f64, collation: Collation) -> VoterConfig {
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
    pub(crate) fn clean_trace(&self) -> RecordedTrace {
        LightScenario::new(5, self.rounds, self.seed).generate()
    }

    /// The error-injected trace (Fig. 6-c).
    pub(crate) fn faulty_trace(&self) -> RecordedTrace {
        FaultInjector::new(self.fault_module, FaultKind::Offset(self.fault_klm))
            .apply(&self.clean_trace(), self.seed)
    }

    /// The binary-band configuration of the Standard and ME voters
    /// (`standard_error`, weighted mean).
    pub(crate) fn binary_config(&self, rate: f64) -> VoterConfig {
        VoterConfig::new()
            .with_agreement(AgreementParams::new(
                self.standard_error,
                self.soft_multiplier,
                MarginMode::Relative,
            ))
            .with_update(HistoryUpdate::new(rate))
    }

    /// The Fig. 6 algorithm roster, freshly constructed: `avg.`,
    /// `standard`, `ME`, `Sdt`, `Hybrid`, `Clustering` (COV), `AVOC`, plus
    /// the stateless-weighted baseline the COV discussion references.
    pub(crate) fn roster(&self) -> Vec<(&'static str, Box<dyn Voter>)> {
        use HistoryAlgorithm::{
            Hybrid, ModuleElimination, SoftDynamicThreshold, Standard, Stateless,
        };
        let history = |algorithm, config, bootstrap| -> Box<dyn Voter> {
            Box::new(
                HistoryVoter::new(algorithm, config, MemoryHistory::new())
                    .with_bootstrap(bootstrap),
            )
        };
        let fast = self.fast_rate;
        let weighted = self.voter_config(fast, Collation::WeightedMean);
        let mean_nn = self.voter_config(fast, Collation::MeanNearestNeighbor);
        vec![
            ("avg", Box::new(AverageVoter::new())),
            ("stateless", history(Stateless, weighted, false)),
            (
                "standard",
                history(Standard, self.binary_config(self.standard_rate), false),
            ),
            (
                "me",
                history(ModuleElimination, self.binary_config(fast), false),
            ),
            ("sdt", history(SoftDynamicThreshold, weighted, false)),
            ("hybrid", history(Hybrid, mean_nn, false)),
            ("clustering", history(Stateless, weighted, true)),
            ("avoc", history(Hybrid, mean_nn, true)),
        ]
    }

    /// Builds one roster entry by name.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name — the roster is fixed by the figure.
    pub(crate) fn voter(&self, name: &str) -> Box<dyn Voter> {
        self.roster()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown algorithm {name}"))
            .1
    }
}

/// The UC-1 convergence criterion: an 8-round moving average of
/// |faulty − clean| (smoothing the jitter of selecting collations) within
/// 0.15 klm of the clean output, sustained 8 rounds (one second at 8 S/s).
const EPSILON_KLM: f64 = 0.15;
const WINDOW: usize = 8;
const SUSTAIN: usize = 8;

/// How fast `faulty`, one voter's output under the UC-1 fault, returns to
/// `clean`, its output on the clean trace.
fn converge(name: &str, clean: &[Option<f64>], faulty: &[Option<f64>]) -> ConvergenceReport {
    ConvergenceReport::compare_smoothed(name, clean, faulty, EPSILON_KLM, SUSTAIN, WINDOW)
}

/// Runs a voter over every round of a trace, returning the output series
/// (`None` where the voter errored, e.g. an all-missing round).
pub(crate) fn run_voter(voter: &mut dyn Voter, trace: &RecordedTrace) -> Vec<Option<f64>> {
    trace
        .iter_rounds()
        .map(|round| voter.vote(&round).ok().and_then(|v| v.number()))
        .collect()
}

/// Downsamples a series to at most `n` evenly spaced points (for plotting).
pub(crate) fn downsample(series: &[Option<f64>], n: usize) -> Vec<Option<f64>> {
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
