//! Soak test: the paper-scale workload (10 000 rounds × 5 sensors at
//! 8 S/s), run end to end through the engine with faults arriving and
//! clearing mid-run — verifying long-horizon stability, bounded state and
//! sane final statistics.

use avoc::core::MemoryHistory;
use avoc::prelude::*;

#[test]
fn paper_scale_soak_with_rolling_faults() {
    let rounds = 10_000;
    let clean = LightScenario::new(5, rounds, 4242).generate();
    // Three fault episodes on different sensors, clearing in between.
    let trace = FaultInjector::new(3, FaultKind::Offset(6.0))
        .during(1_000..3_000)
        .apply(&clean, 1);
    let trace = FaultInjector::new(1, FaultKind::StuckAt(25.0))
        .during(4_000..6_000)
        .apply(&trace, 2);
    let trace = FaultInjector::new(0, FaultKind::Dropout { probability: 0.6 })
        .during(7_000..9_000)
        .apply(&trace, 3);

    let voter = AvocVoter::new(
        VoterConfig::new().with_collation(Collation::WeightedMean),
        MemoryHistory::new(),
    );
    let mut engine = VotingEngine::new(Box::new(voter))
        .with_quorum(Quorum::Majority)
        .with_log_capacity(64);

    let mut outputs = Vec::with_capacity(rounds);
    for round in trace.iter_rounds() {
        let out = engine.submit(&round).expect("policies absorb faults");
        outputs.push(out.number());
    }

    // 1. Every round produced an output (vote or last-good fallback).
    assert!(outputs.iter().all(Option::is_some));

    // 2. No fault ever leaked: outputs stay in the plausible band.
    for (r, v) in outputs.iter().enumerate() {
        let v = v.unwrap();
        assert!(
            v > 16.0 && v < 21.0,
            "implausible output {v:.3} at round {r}"
        );
    }

    // 3. Stats add up and nearly every round genuinely voted.
    let stats = engine.stats();
    assert_eq!(stats.rounds, rounds as u64);
    assert_eq!(
        stats.voted + stats.fallbacks + stats.skipped + stats.ties_broken,
        rounds as u64
    );
    assert!(
        stats.voted as f64 > rounds as f64 * 0.99,
        "voted only {} of {rounds}",
        stats.voted
    );

    // 4. The diagnostic log stayed bounded.
    assert_eq!(engine.recent().count(), 64);

    // 5. State stays bounded (exactly the 5 module records) and all sensors
    //    rehabilitated after their episodes: every record is healthy again.
    let final_records = engine.histories();
    assert_eq!(final_records.len(), 5);
    for (m, h) in final_records {
        assert!(h > 0.5, "{m} never rehabilitated (h = {h:.2})");
    }
}
