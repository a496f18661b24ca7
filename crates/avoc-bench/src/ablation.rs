//! Quality ablations for the design choices DESIGN.md calls out: their
//! *output quality* on the UC-1 error-injection workload.
//!
//! * clustering bootstrap on/off over Hybrid (AVOC's delta);
//! * collation method (the UC-2-decisive axis) on UC-1;
//! * soft-threshold multiplier sweep (the Sdt tuning knob);
//! * module elimination on/off (Standard vs ME);
//! * adaptation-rate sweep for the history family.

use crate::metrics::Table;
use crate::{converge, run_voter, Fig6Config};
use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter};
use avoc_core::{
    AgreementParams, Collation, HistoryUpdate, MarginMode, MemoryHistory, VoterConfig,
};
use avoc_sim::RecordedTrace;
use std::io::{self, Write};

/// The clean and the faulty trace.
type Traces<'a> = (&'a RecordedTrace, &'a RecordedTrace);

/// A table with one row per variant.
fn table() -> Table {
    Table::new(vec![
        "variant".into(),
        "rounds to converge".into(),
        "stable |Δ|".into(),
        "peak |Δ|".into(),
    ])
}

/// Appends the convergence of the voters `make` builds, one on each trace,
/// as a row of `t`.
fn row(t: &mut Table, name: &str, make: impl Fn() -> HistoryVoter, (clean, faulty): Traces) {
    let run = |trace| run_voter(&mut make(), trace);
    let r = converge(name, &run(clean), &run(faulty));
    t.row(vec![
        r.algorithm,
        r.rounds_to_converge
            .map_or("never".into(), |n| n.to_string()),
        format!("{:.4}", r.stable_deviation),
        format!("{:.4}", r.peak_deviation),
    ]);
}

/// A voter running `algorithm` over a fresh in-memory store, bootstrap off.
fn fresh(algorithm: HistoryAlgorithm, config: VoterConfig) -> HistoryVoter {
    HistoryVoter::new(algorithm, config, MemoryHistory::new())
}

/// Prints the five ablation tables over 2 000 rounds of UC-1.
pub(crate) fn print(out: &mut impl Write) -> io::Result<()> {
    let cfg = Fig6Config {
        rounds: 2_000,
        ..Fig6Config::default()
    };
    let (clean, faulty) = (cfg.clean_trace(), cfg.faulty_trace());
    let traces = (&clean, &faulty);
    let mnn = VoterConfig::new().with_collation(Collation::MeanNearestNeighbor);

    // 1. Bootstrap on/off.
    let mut t = table();
    for (name, bootstrap) in [
        ("hybrid (no bootstrap)", false),
        ("avoc (clustering bootstrap)", true),
    ] {
        let make = || fresh(HistoryAlgorithm::Hybrid, mnn).with_bootstrap(bootstrap);
        row(&mut t, name, make, traces);
    }
    writeln!(
        out,
        "== ablation 1: clustering bootstrap on/off (AVOC's delta) =="
    )?;
    writeln!(out, "{t}")?;

    // 2. Collation method, same Hybrid core.
    let mut t = table();
    for (name, collation) in [
        ("weighted mean", Collation::WeightedMean),
        ("mean-nearest-neighbour", Collation::MeanNearestNeighbor),
        ("median", Collation::Median),
    ] {
        let config = VoterConfig::new().with_collation(collation);
        let make = || fresh(HistoryAlgorithm::Hybrid, config).with_bootstrap(true);
        row(&mut t, name, make, traces);
    }
    writeln!(out, "== ablation 2: collation method (AVOC core) ==")?;
    writeln!(out, "{t}")?;

    // 3. Soft-threshold multiplier sweep (Sdt).
    let mut t = table();
    for mult in [1.0, 1.5, 2.0, 3.0, 4.0] {
        let config = VoterConfig::new()
            .with_agreement(AgreementParams::new(cfg.error, mult, MarginMode::Relative))
            .with_update(HistoryUpdate::new(cfg.fast_rate));
        let make = || fresh(HistoryAlgorithm::SoftDynamicThreshold, config);
        row(&mut t, &format!("sdt, multiplier {mult}"), make, traces);
    }
    writeln!(out, "== ablation 3: soft-threshold multiplier (Sdt) ==")?;
    writeln!(out, "{t}")?;

    // 4. Module elimination on/off at the calibrated binary band.
    let mut t = table();
    for (name, algorithm) in [
        ("standard (no elimination)", HistoryAlgorithm::Standard),
        ("module elimination", HistoryAlgorithm::ModuleElimination),
    ] {
        let make = || fresh(algorithm, cfg.binary_config(cfg.fast_rate));
        row(&mut t, name, make, traces);
    }
    writeln!(
        out,
        "== ablation 4: module elimination on/off (same band, same rate) =="
    )?;
    writeln!(out, "{t}")?;

    // 5. Adaptation-rate sweep for the eliminating family.
    let mut t = table();
    for rate in [0.01, 0.05, 0.1, 0.25, 0.5] {
        let make = || fresh(HistoryAlgorithm::ModuleElimination, cfg.binary_config(rate));
        row(&mut t, &format!("me, rate {rate}"), make, traces);
    }
    writeln!(out, "== ablation 5: adaptation rate (ME) ==")?;
    writeln!(out, "{t}")
}
