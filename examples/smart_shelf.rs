//! The introduction's motivating scenario: a smart-shopping shelf where
//! "the degree of redundancy rises significantly to dozens of proximity
//! sensors". 33 redundant sensors watch the shelf; infrared glitches fire
//! spurious near-zero readings; clustering-based voting suppresses every
//! one of them — the regime where maintaining long histories is overkill
//! and COV shines (§7's recommendation for short-lived measurements).
//!
//! ```text
//! cargo run --release --example smart_shelf
//! ```

use avoc::prelude::*;
use avoc::sim::ShelfScenario;

fn main() {
    let trace = ShelfScenario::paper_scale(1_000, 12)
        .with_glitch_probability(0.01)
        .generate();
    println!("shelf: {trace}");

    // Raw worst case: the closest single reading each round.
    let mut raw_false_triggers = 0usize;
    for r in 0..trace.rounds() {
        let min = trace
            .row(r)
            .iter()
            .flatten()
            .fold(f64::INFINITY, |a, &b| a.min(b));
        if min < 15.0 {
            raw_false_triggers += 1;
        }
    }

    // Fused: clustering-only voting (stateless — ideal for this use case).
    let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::Stateless).with_bootstrap(true);
    let mut fused_false_triggers = 0usize;
    let mut fused_presence_rounds = 0usize;
    for round in trace.iter_rounds() {
        let fused = voter.vote(&round).expect("full rounds").number().unwrap();
        if fused < 15.0 {
            fused_false_triggers += 1;
        }
        if fused < 70.0 {
            fused_presence_rounds += 1;
        }
    }

    println!("rounds with a spurious <15 cm reading (raw, any-sensor): {raw_false_triggers}");
    println!("rounds with a spurious <15 cm fused output:              {fused_false_triggers}");
    println!("rounds with genuine customer presence (fused < 70 cm):   {fused_presence_rounds}");
    assert_eq!(fused_false_triggers, 0, "voting must suppress all glitches");
    println!("\nall infrared glitches suppressed by clustering-only voting across");
    println!("33 redundant sensors, while genuine approaches still register.");
}
