//! The portable 'shoe-box' demonstrator (Fig. 2 of the paper): a Raspberry
//! Pi runs the fusion loop while an LCD shows "the voting results and
//! weight values" live. Here the LCD is a monitor thread the voting thread
//! sends a snapshot of its records ([`Voter::histories`]) to over a channel
//! every few rounds — the display never touches the voter's own store.
//!
//! ```text
//! cargo run --release --example shoebox_monitor
//! ```

use avoc::prelude::*;

fn main() {
    // The LCD thread: keeps every record snapshot the voter sends it.
    let (to_lcd, snapshots) = crossbeam::channel::unbounded::<Vec<(ModuleId, f64)>>();
    let lcd = std::thread::spawn(move || snapshots.iter().collect::<Vec<_>>());

    // The fusion loop: 5 sensors, one goes faulty halfway through.
    let clean = LightScenario::new(5, 400, 8).generate();
    let trace = FaultInjector::new(2, FaultKind::Offset(6.0)).apply(&clean, 8);
    let mut voter = HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid).with_bootstrap(true);
    let mut last = 0.0;
    for round in trace.iter_rounds() {
        let verdict = voter.vote(&round).expect("full rounds");
        last = verdict.number().expect("numeric");
        if round.round % 50 == 0 {
            to_lcd.send(voter.histories()).expect("lcd thread is up");
        }
    }
    to_lcd.send(voter.histories()).expect("lcd thread is up");
    drop(to_lcd);
    let frames = lcd.join().expect("lcd thread");

    println!(
        "fused output after {} rounds: {last:.3} klm",
        trace.rounds()
    );
    println!(
        "LCD captured {} record snapshots; the last one:",
        frames.len()
    );
    if let Some(final_frame) = frames.last() {
        for (module, weight) in final_frame {
            let bar = "#".repeat((weight * 20.0).round() as usize);
            println!("  {module}: {weight:.2} {bar}");
        }
    }
    println!("\n(the faulty sensor M2 shows a zeroed record — the display sees");
    println!(" exactly what the voter learned, as of the last snapshot it was sent)");
}
