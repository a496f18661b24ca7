//! Fault-injection matrix: every fault kind from `avoc-sim` against the
//! main voters, including *recovery* once a windowed fault clears — the
//! behaviour the paper's ME description promises ("until their historical
//! records improve by submitting better values").

use avoc::metrics::stable_value;
use avoc::prelude::*;
use avoc_core::MemoryHistory;

const ROUNDS: usize = 600;
const FAULT_WINDOW: std::ops::Range<usize> = 150..350;

fn base_trace(seed: u64) -> RecordedTrace {
    LightScenario::new(5, ROUNDS, seed).generate()
}

fn mnn() -> VoterConfig {
    VoterConfig::new().with_collation(Collation::MeanNearestNeighbor)
}

fn run(voter: &mut dyn Voter, trace: &RecordedTrace) -> Vec<Option<f64>> {
    trace
        .iter_rounds()
        .map(|round| voter.vote(&round).ok().and_then(|v| v.number()))
        .collect()
}

/// The fused output during the fault window must stay near the clean
/// output, and after the window the faulty module must be usable again.
fn assert_masks_and_recovers(name: &str, make: impl Fn() -> Box<dyn Voter>, kind: FaultKind) {
    let clean = base_trace(123);
    let faulty = FaultInjector::new(3, kind.clone())
        .during(FAULT_WINDOW)
        .apply(&clean, 5);

    let mut clean_voter = make();
    let mut faulty_voter = make();
    let clean_out = run(clean_voter.as_mut(), &clean);
    let faulty_out = run(faulty_voter.as_mut(), &faulty);

    // Inside the window (skipping the first few adjustment rounds): masked.
    for r in (FAULT_WINDOW.start + 10)..FAULT_WINDOW.end {
        let (Some(c), Some(f)) = (clean_out[r], faulty_out[r]) else {
            continue;
        };
        assert!(
            (c - f).abs() < 0.6,
            "{name} vs {kind:?}: round {r} leaked: clean {c:.3} faulty {f:.3}"
        );
    }

    // After the window: outputs re-converge and the module rejoins.
    let tail_clean = stable_value(&clean_out, 0.2).unwrap();
    let tail_faulty = stable_value(&faulty_out, 0.2).unwrap();
    assert!(
        (tail_clean - tail_faulty).abs() < 0.3,
        "{name} vs {kind:?}: no recovery: {tail_clean:.3} vs {tail_faulty:.3}"
    );
    let records = faulty_voter.histories();
    if !records.is_empty() {
        let rehabilitated = records
            .iter()
            .find(|(m, _)| *m == ModuleId::new(3))
            .map(|(_, h)| *h)
            .unwrap_or(1.0);
        assert!(
            rehabilitated > 0.5,
            "{name} vs {kind:?}: module never rehabilitated (h = {rehabilitated})"
        );
    }
}

#[test]
fn avoc_masks_offset_and_recovers() {
    assert_masks_and_recovers(
        "avoc",
        || {
            Box::new(
                HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn(), MemoryHistory::new())
                    .with_bootstrap(true),
            )
        },
        FaultKind::Offset(6.0),
    );
}

#[test]
fn avoc_masks_stuck_at_and_recovers() {
    assert_masks_and_recovers(
        "avoc",
        || {
            Box::new(
                HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn(), MemoryHistory::new())
                    .with_bootstrap(true),
            )
        },
        FaultKind::StuckAt(25.0),
    );
}

#[test]
fn hybrid_masks_spikes_and_recovers() {
    assert_masks_and_recovers(
        "hybrid",
        || {
            Box::new(HistoryVoter::new(
                HistoryAlgorithm::Hybrid,
                mnn(),
                MemoryHistory::new(),
            ))
        },
        FaultKind::Spike {
            probability: 0.5,
            magnitude: 8.0,
        },
    );
}

#[test]
fn clustering_masks_noise_burst() {
    assert_masks_and_recovers(
        "clustering",
        || Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Stateless).with_bootstrap(true)),
        FaultKind::NoiseBurst { sigma: 4.0 },
    );
}

#[test]
fn avoc_handles_dropout_with_engine_quorum() {
    // Dropout is a missing-value fault: route it through the engine, whose
    // majority quorum and last-good fallback absorb starved rounds.
    let clean = base_trace(321);
    let faulty = FaultInjector::new(3, FaultKind::Dropout { probability: 0.8 })
        .during(FAULT_WINDOW)
        .apply(&clean, 9);
    let mut spec = VdxSpec::preset("avoc").unwrap();
    // Listing 1 demands a 100 % quorum; for a dropout-tolerant deployment
    // the majority quorum is the right policy.
    spec.quorum = avoc::vdx::QuorumKind::Majority;
    let mut engine = build_engine(&spec).unwrap();
    let mut voted = 0;
    for round in faulty.iter_rounds() {
        let out = engine.submit(&round).unwrap();
        if out.is_voted() {
            voted += 1;
            let v = out.number().unwrap();
            assert!(v > 16.0 && v < 21.0, "implausible output {v}");
        }
    }
    // 4-of-5 present always satisfies the majority quorum.
    assert_eq!(voted, ROUNDS);
}

#[test]
fn drift_is_caught_once_it_exceeds_the_band() {
    // Slow drift: the voter tracks until the drift leaves the agreement
    // band, then the drifting module is excluded. Assert the end state.
    let clean = base_trace(55);
    let faulty = FaultInjector::new(3, FaultKind::Drift { per_round: 0.02 })
        .during(100..ROUNDS)
        .apply(&clean, 7);
    let mut voter = HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn(), MemoryHistory::new())
        .with_bootstrap(true);
    let out = run(&mut voter, &faulty);
    // By the end, the drifting module reads +10 klm; the output must not
    // have followed it.
    let tail = stable_value(&out, 0.1).unwrap();
    assert!(tail < 20.0, "output followed the drift: {tail:.3}");
    let h3 = voter
        .histories()
        .iter()
        .find(|(m, _)| *m == ModuleId::new(3))
        .map(|(_, h)| *h)
        .unwrap();
    assert!(h3 < 0.5, "drifting module must be distrusted, h = {h3}");
}
