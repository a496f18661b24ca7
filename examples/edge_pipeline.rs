//! The full middleware pipeline of Fig. 1 on the voter daemon, in process:
//! one feeder thread per sensor → the session's hub assembling rounds
//! (flushing the ones a silent sensor left short) → its VDX-configured
//! voting engine. Dropout faults are injected so the missing-value path is
//! exercised end to end.
//!
//! ```text
//! cargo run --release --example edge_pipeline
//! ```

use avoc::net::Message;
use avoc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 5 light sensors, 200 rounds; sensor E2 drops 30% of its packets and
    // E4 reads +6 klm high.
    let clean = LightScenario::new(5, 200, 99).generate();
    let with_fault = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 1);
    let trace =
        FaultInjector::new(1, FaultKind::Dropout { probability: 0.3 }).apply(&with_fault, 2);
    println!("input: {trace}");

    // The voter service, configured purely by a VDX document. A feeder may
    // run the whole trace ahead of the others, so the hub waits that long;
    // a dropped packet surfaces when a later round completes, or at close.
    let mut spec = VdxSpec::avoc();
    spec.quorum = avoc::vdx::QuorumKind::Majority; // tolerate dropouts
    let service = VoterService::start(
        ServeConfig {
            lag_tolerance: trace.rounds() as u64,
            ..ServeConfig::default()
        },
        std::sync::Arc::new(SpecRegistry::new()),
    );
    let (sink, results) = crossbeam::channel::unbounded();
    service.open_session(1, 5, &SpecSource::Inline(spec.to_json()), sink)?;
    std::thread::scope(|feeders| {
        for sensor in 0..5 {
            let (service, series) = (&service, trace.series(sensor));
            feeders.spawn(move || {
                let module = ModuleId::new(sensor as u32);
                for (round, value) in series.into_iter().enumerate() {
                    if let Some(value) = value {
                        service.feed(1, module, round as u64, value).expect("feed");
                    }
                }
            });
        }
    });
    service.close_session(1)?;
    service.drain();
    let outputs: Vec<(Option<f64>, bool)> = results
        .try_iter()
        .flat_map(|frame| match frame {
            Message::ResultBatch { results, .. } => {
                results.into_iter().map(|r| (r.value, r.voted)).collect()
            }
            Message::SessionResult { value, voted, .. } => vec![(value, voted)],
            other => panic!("unexpected frame {other:?}"),
        })
        .collect();

    let voted = outputs.iter().filter(|(_, voted)| *voted).count();
    println!(
        "pipeline fused {} rounds: {voted} voted, {} fell back to last-good",
        outputs.len(),
        outputs.len() - voted
    );

    // Spot-check: the fused output never follows the +6 klm fault.
    let max_out = outputs
        .iter()
        .filter_map(|(value, _)| *value)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("maximum fused output: {max_out:.2} klm (faulty sensor reads ~24.5)");
    assert!(
        max_out < 20.0,
        "the fault must not leak through the pipeline"
    );
    println!("fault fully masked by the edge voter.");
    Ok(())
}
