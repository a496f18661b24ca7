//! Multi-dimensional fusion (§5's generalisation, taken one step further):
//! redundant 2-D position estimates fused per-dimension, and — beyond the
//! paper — with a *vector-level* mean-shift bootstrap that catches a sensor
//! whose coordinates are each plausible but jointly wrong.
//!
//! ```text
//! cargo run --release --example vector_fusion
//! ```

use avoc::core::multidim::PerDimensionVoter;
use avoc::core::MemoryHistory;
use avoc::prelude::*;

fn position_round(round: u64, estimates: &[[f64; 2]]) -> Round {
    Round::new(
        round,
        estimates
            .iter()
            .enumerate()
            .map(|(i, e)| Ballot::new(ModuleId::new(i as u32), e.to_vec()))
            .collect(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Five positioning units estimate the robot's (x, y). Unit 4 has its
    // antennas crossed: each coordinate is individually plausible, but the
    // combination places it off the cluster diagonally.
    let hybrid = || -> Box<dyn Voter> {
        Box::new(HistoryVoter::new(
            HistoryAlgorithm::Hybrid,
            VoterConfig::new(),
            MemoryHistory::new(),
        ))
    };
    let mut voter = PerDimensionVoter::new(2, hybrid).with_bootstrap(true);

    println!("round | fused (x, y)        | excluded");
    for round in 0..6u64 {
        let drift = round as f64 * 0.05;
        let estimates = [
            [10.00 + drift, 20.00 + drift],
            [10.04 + drift, 19.97 + drift],
            [9.97 + drift, 20.03 + drift],
            [10.02 + drift, 20.01 + drift],
            [10.38 + drift, 19.62 + drift], // jointly wrong
        ];
        let verdict = voter.vote(&position_round(round, &estimates))?;
        let out = verdict.value.as_vector().unwrap();
        println!(
            "{round:>5} | ({:>6.3}, {:>6.3}) | {:?}{}",
            out[0],
            out[1],
            verdict.excluded,
            if verdict.bootstrapped {
                "  [bootstrap]"
            } else {
                ""
            }
        );
    }

    println!("\nthe vector bootstrap catches the joint fault in round 0 and seeds");
    println!("every dimension's records, so the unit stays excluded afterwards —");
    println!("per-dimension voting alone would accept each coordinate separately.");
    Ok(())
}
