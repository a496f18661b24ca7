//! UC-1, end to end: the smart-building sunlight detector (Fig. 1/2 of the
//! paper). Generates the 5-sensor reference dataset, injects the paper's
//! +6 klm fault into sensor E4, runs the full algorithm roster and reports
//! each algorithm's convergence — the experiment behind Fig. 6.
//!
//! ```text
//! cargo run --release --example smart_building [rounds]
//! ```

use avoc::metrics::{ConvergenceReport, Table};
use avoc::prelude::*;
use avoc_core::MemoryHistory;

fn run(voter: &mut dyn Voter, trace: &RecordedTrace) -> Vec<Option<f64>> {
    trace
        .iter_rounds()
        .map(|round| voter.vote(&round).ok().and_then(|v| v.number()))
        .collect()
}

fn roster() -> Vec<(&'static str, Box<dyn Voter>)> {
    let mnn = VoterConfig::new().with_collation(Collation::MeanNearestNeighbor);
    vec![
        ("average", Box::new(AverageVoter::new())),
        (
            "module-elimination",
            Box::new(HistoryVoter::new(
                HistoryAlgorithm::ModuleElimination,
                // ME's binary band must cover the fault-induced skew on
                // healthy sensors (~7% of signal) to discriminate.
                VoterConfig::new().with_agreement(AgreementParams::new(
                    0.08,
                    2.0,
                    avoc::core::MarginMode::Relative,
                )),
                MemoryHistory::new(),
            )),
        ),
        (
            "hybrid",
            Box::new(HistoryVoter::new(
                HistoryAlgorithm::Hybrid,
                mnn,
                MemoryHistory::new(),
            )),
        ),
        (
            "clustering-only",
            Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Stateless).with_bootstrap(true)),
        ),
        (
            "avoc",
            Box::new(
                HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn, MemoryHistory::new())
                    .with_bootstrap(true),
            ),
        ),
    ]
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2_000);

    // The reference dataset: 5 sensors polled at 8 S/s (paper: 10 000
    // rounds = 1250 s of collection).
    let clean = LightScenario::new(5, rounds, 42).generate();
    println!("reference dataset: {clean}");

    // The error-injection experiment: +6 klm on E4.
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 42);

    let mut table = Table::new(vec![
        "algorithm".into(),
        "rounds to converge".into(),
        "stable |Δ| (klm)".into(),
        "peak |Δ| (klm)".into(),
    ]);
    for (name, mut voter) in roster() {
        let clean_out = run(voter.as_mut(), &clean);
        voter.reset();
        let faulty_out = run(voter.as_mut(), &faulty);
        let report = ConvergenceReport::compare_smoothed(name, &clean_out, &faulty_out, 0.15, 8, 8);
        table.row(vec![
            name.into(),
            report
                .rounds_to_converge
                .map_or("never".into(), |r| r.to_string()),
            format!("{:.3}", report.stable_deviation),
            format!("{:.3}", report.peak_deviation),
        ]);
    }
    println!("\nconvergence after the +6 klm injection on E4:");
    println!("{table}");
    println!("AVOC's clustering bootstrap eliminates the outlier in-place in round 1;");
    println!("the history-based voters must first learn to distrust it.");
}
