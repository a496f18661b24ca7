//! Quality ablations for the design choices DESIGN.md calls out: their
//! *output quality* on the UC-1 error-injection workload.
//!
//! * clustering bootstrap on/off over Hybrid (AVOC's delta);
//! * collation method (the UC-2-decisive axis) on UC-1;
//! * soft-threshold multiplier sweep (the Sdt tuning knob);
//! * module elimination on/off (Standard vs ME);
//! * adaptation-rate sweep for the history family.
//!
//! ```text
//! cargo run -p avoc-bench --release --bin ablation -- [--rounds N] [--seed S]
//! ```

use avoc_bench::{run_voter, Fig6Config};
use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter};
use avoc_core::{
    AgreementParams, Collation, HistoryUpdate, MarginMode, MemoryHistory, Voter, VoterConfig,
};
use avoc_metrics::{ConvergenceReport, Table};
use avoc_sim::RecordedTrace;

const EPSILON: f64 = 0.15;
const SUSTAIN: usize = 8;
const WINDOW: usize = 8;

fn report(
    name: &str,
    voter_factory: impl Fn() -> Box<dyn Voter>,
    clean: &RecordedTrace,
    faulty: &RecordedTrace,
) -> ConvergenceReport {
    let mut vc = voter_factory();
    let mut vf = voter_factory();
    ConvergenceReport::compare_smoothed(
        name,
        &run_voter(vc.as_mut(), clean),
        &run_voter(vf.as_mut(), faulty),
        EPSILON,
        SUSTAIN,
        WINDOW,
    )
}

fn row_of(t: &mut Table, r: &ConvergenceReport) {
    t.row(vec![
        r.algorithm.clone(),
        r.rounds_to_converge
            .map_or("never".into(), |n| n.to_string()),
        format!("{:.4}", r.stable_deviation),
        format!("{:.4}", r.peak_deviation),
    ]);
}

fn headers() -> Vec<String> {
    vec![
        "variant".into(),
        "rounds to converge".into(),
        "stable |Δ|".into(),
        "peak |Δ|".into(),
    ]
}

/// A voter running `algorithm` over a fresh in-memory store, bootstrap off.
fn fresh(algorithm: HistoryAlgorithm, config: VoterConfig) -> HistoryVoter {
    HistoryVoter::new(algorithm, config, MemoryHistory::new())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Fig6Config {
        rounds: 2_000,
        ..Fig6Config::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rounds" => {
                i += 1;
                cfg.rounds = args[i].parse().expect("--rounds takes a number");
            }
            "--seed" => {
                i += 1;
                cfg.seed = args[i].parse().expect("--seed takes a number");
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let clean = cfg.clean_trace();
    let faulty = cfg.faulty_trace();
    let mnn = VoterConfig::new().with_collation(Collation::MeanNearestNeighbor);

    // 1. Bootstrap on/off.
    let mut t = Table::new(headers());
    for (name, bootstrap) in [
        ("hybrid (no bootstrap)", false),
        ("avoc (clustering bootstrap)", true),
    ] {
        row_of(
            &mut t,
            &report(
                name,
                || Box::new(fresh(HistoryAlgorithm::Hybrid, mnn).with_bootstrap(bootstrap)),
                &clean,
                &faulty,
            ),
        );
    }
    println!("== ablation 1: clustering bootstrap on/off (AVOC's delta) ==");
    println!("{t}");

    // 2. Collation method, same Hybrid core.
    let mut t = Table::new(headers());
    for (name, collation) in [
        ("weighted mean", Collation::WeightedMean),
        ("mean-nearest-neighbour", Collation::MeanNearestNeighbor),
        ("median", Collation::Median),
    ] {
        let cfg_v = VoterConfig::new().with_collation(collation);
        row_of(
            &mut t,
            &report(
                name,
                || Box::new(fresh(HistoryAlgorithm::Hybrid, cfg_v).with_bootstrap(true)),
                &clean,
                &faulty,
            ),
        );
    }
    println!("== ablation 2: collation method (AVOC core) ==");
    println!("{t}");

    // 3. Soft-threshold multiplier sweep (Sdt).
    let mut t = Table::new(headers());
    for mult in [1.0, 1.5, 2.0, 3.0, 4.0] {
        let cfg_v = VoterConfig::new()
            .with_agreement(AgreementParams::new(cfg.error, mult, MarginMode::Relative))
            .with_update(HistoryUpdate::new(cfg.fast_rate));
        row_of(
            &mut t,
            &report(
                &format!("sdt, multiplier {mult}"),
                || Box::new(fresh(HistoryAlgorithm::SoftDynamicThreshold, cfg_v)),
                &clean,
                &faulty,
            ),
        );
    }
    println!("== ablation 3: soft-threshold multiplier (Sdt) ==");
    println!("{t}");

    // 4. Module elimination on/off at the calibrated binary band.
    let binary_cfg = VoterConfig::new()
        .with_agreement(AgreementParams::new(
            cfg.standard_error,
            cfg.soft_multiplier,
            MarginMode::Relative,
        ))
        .with_update(HistoryUpdate::new(cfg.fast_rate));
    let mut t = Table::new(headers());
    for (name, algorithm) in [
        ("standard (no elimination)", HistoryAlgorithm::Standard),
        ("module elimination", HistoryAlgorithm::ModuleElimination),
    ] {
        row_of(
            &mut t,
            &report(
                name,
                || Box::new(fresh(algorithm, binary_cfg)),
                &clean,
                &faulty,
            ),
        );
    }
    println!("== ablation 4: module elimination on/off (same band, same rate) ==");
    println!("{t}");

    // 5. Adaptation-rate sweep for the eliminating family.
    let mut t = Table::new(headers());
    for rate in [0.01, 0.05, 0.1, 0.25, 0.5] {
        let cfg_v = VoterConfig::new()
            .with_agreement(AgreementParams::new(
                cfg.standard_error,
                cfg.soft_multiplier,
                MarginMode::Relative,
            ))
            .with_update(HistoryUpdate::new(rate));
        row_of(
            &mut t,
            &report(
                &format!("me, rate {rate}"),
                || Box::new(fresh(HistoryAlgorithm::ModuleElimination, cfg_v)),
                &clean,
                &faulty,
            ),
        );
    }
    println!("== ablation 5: adaptation rate (ME) ==");
    println!("{t}");
}
