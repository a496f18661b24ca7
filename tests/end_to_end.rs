//! Cross-crate integration: VDX documents drive engines over simulated
//! scenarios through the middleware, and the metrics layer evaluates the
//! results — every workspace crate in one flow.

use avoc::metrics::{AmbiguityReport, ConvergenceReport};
use avoc::prelude::*;
use avoc::vdx::QuorumKind;

fn run_engine(engine: &mut VotingEngine, trace: &RecordedTrace) -> Vec<Option<f64>> {
    trace
        .iter_rounds()
        .map(|round| engine.submit(&round).ok().and_then(|r| r.number()))
        .collect()
}

#[test]
fn vdx_json_to_engine_to_metrics() {
    let json = r#"{
        "algorithm_name": "AVOC",
        "quorum": "MAJORITY",
        "exclusion": "NONE",
        "exclusion_threshold": 0,
        "history": "HYBRID",
        "params": { "error": 0.05, "soft_threshold": 2 },
        "collation": "MEAN_NEAREST_NEIGHBOR",
        "bootstrapping": true
    }"#;
    let spec = VdxSpec::from_json(json).expect("paper-conformant document");
    let clean = LightScenario::new(5, 400, 11).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 11);

    let mut clean_engine = build_engine(&spec).unwrap();
    let mut faulty_engine = build_engine(&spec).unwrap();
    let clean_out = run_engine(&mut clean_engine, &clean);
    let faulty_out = run_engine(&mut faulty_engine, &faulty);

    let report = ConvergenceReport::compare_smoothed("avoc", &clean_out, &faulty_out, 0.15, 8, 8);
    let converged = report.rounds_to_converge.expect("avoc converges");
    assert!(
        converged <= 2,
        "avoc must converge almost instantly, got {converged}"
    );
    assert!(
        report.peak_deviation < 1.0,
        "bootstrap caps the startup spike"
    );
}

#[test]
fn middleware_pipeline_against_direct_engine() {
    use avoc::net::Message;
    // The daemon's hub → engine path, one feeder thread per sensor, must
    // fuse the same stream as driving the engine directly with the same
    // spec and trace. The lag tolerance covers the trace, so no interleaving
    // of the feeders force-flushes a round short of its five readings.
    let trace = LightScenario::new(5, 60, 5).generate();
    let spec = VdxSpec::avoc();
    let service = VoterService::start(
        ServeConfig {
            lag_tolerance: trace.rounds() as u64,
            ..ServeConfig::default()
        },
        std::sync::Arc::new(SpecRegistry::new()),
    );
    let (sink, results) = crossbeam::channel::unbounded();
    let inline = SpecSource::Inline(spec.to_json());
    service.open_session(1, 5, &inline, sink).unwrap();
    std::thread::scope(|feeders| {
        for sensor in 0..5 {
            let (service, series) = (&service, trace.series(sensor));
            feeders.spawn(move || {
                let module = ModuleId::new(sensor as u32);
                for (round, value) in series.into_iter().enumerate() {
                    let value = value.expect("the light scenario drops nothing");
                    service.feed(1, module, round as u64, value).unwrap();
                }
            });
        }
    });
    service.close_session(1).unwrap();
    service.drain();
    let bits = |(round, value): (u64, Option<f64>)| (round, value.map(f64::to_bits));
    let fused: Vec<_> = results
        .try_iter()
        .flat_map(|frame| match frame {
            Message::ResultBatch { results, .. } => {
                results.into_iter().map(|r| (r.round, r.value)).collect()
            }
            Message::SessionResult { round, value, .. } => vec![(round, value)],
            other => panic!("unexpected frame {other:?}"),
        })
        .map(bits)
        .collect();

    let mut direct = build_engine(&spec).unwrap();
    let direct_outputs = (0..).zip(run_engine(&mut direct, &trace)).map(bits);
    assert_eq!(fused, direct_outputs.collect::<Vec<_>>());
}

#[test]
fn durable_history_survives_engine_restart() {
    use avoc::core::algorithms::{HistoryAlgorithm, HistoryVoter};
    use avoc::core::history::HistoryStore;
    use avoc::store::FileHistory;

    let path = std::env::temp_dir().join(format!("avoc-e2e-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let trace = LightScenario::new(5, 50, 3).generate();
    let faulty = FaultInjector::new(2, FaultKind::Offset(6.0)).apply(&trace, 3);

    // First "process": learn the faulty module.
    {
        let store = FileHistory::open(&path).unwrap();
        let mut voter = HistoryVoter::new(
            HistoryAlgorithm::Hybrid,
            VoterConfig::new().with_collation(Collation::MeanNearestNeighbor),
            store,
        );
        for round in faulty.iter_rounds().take(25) {
            voter.vote(&round).unwrap();
        }
        let hs = voter.histories();
        assert!(hs[2].1 < 0.5, "faulty record must have decayed");
    }

    // Second "process": records reloaded, the faulty module is distrusted
    // from the very first round — no re-learning spike.
    {
        let store = FileHistory::open(&path).unwrap();
        assert!(store.get(ModuleId::new(2)).unwrap() < 0.5);
        let mut voter = HistoryVoter::new(
            HistoryAlgorithm::Hybrid,
            VoterConfig::new().with_collation(Collation::MeanNearestNeighbor),
            store,
        );
        let round = faulty.iter_rounds().nth(30).unwrap();
        let verdict = voter.vote(&round).unwrap();
        assert!(verdict.excluded.contains(&ModuleId::new(2)));
        assert!(verdict.number().unwrap() < 20.0);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn ble_scenario_through_vdx_presets() {
    let trace = BleScenario::paper_default(77).generate();
    let truth: Vec<bool> = (0..trace.rounds())
        .map(|r| trace.stack_a_closer(r))
        .collect();

    let mut results = Vec::new();
    for preset in ["average", "avoc"] {
        let mut spec = VdxSpec::preset(preset).unwrap();
        spec.quorum = QuorumKind::Majority;
        let mut engine_a = build_engine(&spec).unwrap();
        let mut engine_b = build_engine(&spec).unwrap();
        let a = run_engine(&mut engine_a, &trace.stack_a);
        let b = run_engine(&mut engine_b, &trace.stack_b);
        let report = AmbiguityReport::evaluate(&a, &b, &truth, 2.0);
        results.push((preset, report));
    }

    // Both fused strategies must beat the single-beacon baseline ...
    let single = AmbiguityReport::evaluate(
        &trace.stack_a.series(0),
        &trace.stack_b.series(0),
        &truth,
        2.0,
    );
    for (name, report) in &results {
        assert!(
            report.accuracy() > single.accuracy(),
            "{name} ({:.2}) must beat single-beacon ({:.2})",
            report.accuracy(),
            single.accuracy()
        );
    }
    // ... and averaging must be at least as unambiguous as mean-NN (the
    // paper's UC-2 conclusion).
    let avg = &results[0].1;
    let avoc = &results[1].1;
    assert!(avg.accuracy() >= avoc.accuracy() - 0.02);
}

#[test]
fn quorum_fallback_behaviour_through_the_stack() {
    let mut spec = VdxSpec::avoc();
    spec.quorum = QuorumKind::Majority;
    let mut engine = build_engine(&spec).unwrap();

    // Establish an output, then starve the quorum.
    engine
        .submit(&Round::from_numbers(0, &[18.0, 18.1, 17.9, 18.2, 18.05]))
        .unwrap();
    let starved = Round::from_sparse_numbers(1, &[Some(18.3), None, None, None, None]);
    let out = engine.submit(&starved).unwrap();
    match out {
        RoundResult::Fallback { value, .. } => {
            let v = value.as_number().unwrap();
            assert!((v - 18.0).abs() < 0.5);
        }
        other => panic!("expected last-good fallback, got {other:?}"),
    }
}

#[test]
fn categorical_voting_on_json_blobs() {
    // §6: VDX supports "categorical i.e., non-numeric values, such as
    // character strings and JSON blobs". Three configuration replicas
    // publish a JSON document; the majority blob wins and the divergent
    // replica's record decays.
    use avoc::core::algorithms::{MajorityVoter, Voter};

    let good = r#"{"mode":"eco","setpoint":21.5}"#;
    let bad = r#"{"mode":"eco","setpoint":27.0}"#;
    let mut voter = MajorityVoter::with_defaults();
    for r in 0..3 {
        let round = Round::new(
            r,
            vec![
                Ballot::new(ModuleId::new(0), good),
                Ballot::new(ModuleId::new(1), good),
                Ballot::new(ModuleId::new(2), bad),
            ],
        );
        let verdict = voter.vote(&round).unwrap();
        assert_eq!(verdict.value.as_text(), Some(good));
        // The winning blob is valid JSON, usable downstream.
        let parsed: serde_json::Value =
            serde_json::from_str(verdict.value.as_text().unwrap()).unwrap();
        assert_eq!(parsed["mode"], "eco");
    }
    let records = voter.histories();
    assert!(records[2].1 < records[0].1);
}
