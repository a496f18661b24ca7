//! The paper's premise, verified against the simulator's *external* ground
//! truth: "in the absence of external ground truth ..., voting is a
//! pragmatic substitute as it leads to internal ground truth upon which
//! critical decision-making can be based." The fused output must track the
//! true field better than any raw strategy — even under an injected fault.

use avoc::metrics::AccuracyReport;
use avoc::prelude::*;
use avoc_core::MemoryHistory;

fn run(voter: &mut dyn Voter, trace: &RecordedTrace) -> Vec<Option<f64>> {
    trace
        .iter_rounds()
        .map(|round| voter.vote(&round).ok().and_then(|v| v.number()))
        .collect()
}

#[test]
fn fused_output_beats_the_expected_single_sensor_error() {
    // You cannot know a priori which uncalibrated sensor happens to carry
    // the smallest bias, so the fair baseline is the *expected* error of
    // picking one sensor — which fusion must beat (and it must never be
    // worse than the worst sensor).
    let (trace, truth) = LightScenario::new(5, 1_000, 77).generate_with_truth();

    let mut voter = HistoryVoter::new(
        HistoryAlgorithm::Hybrid,
        VoterConfig::new().with_collation(Collation::WeightedMean),
        MemoryHistory::new(),
    )
    .with_bootstrap(true);
    let fused = AccuracyReport::score(&run(&mut voter, &trace), &truth).unwrap();

    let singles: Vec<f64> = (0..5)
        .map(|s| {
            AccuracyReport::score(&trace.series(s), &truth)
                .unwrap()
                .rmse
        })
        .collect();
    let mean_single = singles.iter().sum::<f64>() / singles.len() as f64;
    let worst_single = singles.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        fused.rmse < mean_single,
        "fused rmse {:.4} must beat the expected single-sensor rmse {mean_single:.4}",
        fused.rmse
    );
    assert!(
        fused.rmse < worst_single,
        "fused rmse {:.4} must beat the worst sensor {worst_single:.4}",
        fused.rmse
    );
}

#[test]
fn internal_ground_truth_survives_a_faulty_sensor() {
    let (clean, truth) = LightScenario::new(5, 1_000, 88).generate_with_truth();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 88);

    // Plain averaging is dragged 1.2 klm off the truth; AVOC is not.
    let mut avg = AverageVoter::new();
    let avg_acc = AccuracyReport::score(&run(&mut avg, &faulty), &truth).unwrap();
    let mut avoc = HistoryVoter::new(
        HistoryAlgorithm::Hybrid,
        VoterConfig::new().with_collation(Collation::WeightedMean),
        MemoryHistory::new(),
    )
    .with_bootstrap(true);
    let avoc_acc = AccuracyReport::score(&run(&mut avoc, &faulty), &truth).unwrap();

    assert!(
        avg_acc.bias > 1.0,
        "avg must be skewed, bias {:.3}",
        avg_acc.bias
    );
    assert!(
        avoc_acc.bias.abs() < 0.3,
        "avoc must stay near truth, bias {:.3}",
        avoc_acc.bias
    );
    assert!(
        avoc_acc.rmse < avg_acc.rmse / 3.0,
        "avoc rmse {:.3} must be far below avg rmse {:.3}",
        avoc_acc.rmse,
        avg_acc.rmse
    );
}

#[test]
fn redundancy_reduces_noise_monotonically() {
    // More redundant sensors → lower fused RMSE (the motivation for
    // dozens-of-sensors deployments).
    let mut last_rmse = f64::INFINITY;
    for sensors in [1usize, 3, 9, 27] {
        let (trace, truth) = LightScenario::new(sensors, 600, 99).generate_with_truth();
        let mut voter = AverageVoter::new();
        let acc = AccuracyReport::score(&run(&mut voter, &trace), &truth).unwrap();
        assert!(
            acc.rmse < last_rmse * 1.05,
            "{sensors} sensors: rmse {:.4} should not exceed previous {:.4}",
            acc.rmse,
            last_rmse
        );
        last_rmse = acc.rmse;
    }
}
