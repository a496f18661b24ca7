//! Reproduces the §7 implementation note: "the system can execute a
//! history-aware voting round in 1 millisecond and a stateless vote in 50
//! microseconds (datastore reads and writes being the bottleneck)".
//!
//! Rust absolute numbers are far lower than the paper's Python ones; the
//! *shape* to verify is (a) history-aware rounds cost a multiple of
//! stateless rounds, and (b) a durable datastore dominates the round cost.
//!

use crate::metrics::Table;
use crate::Fig6Config;
use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter};
use avoc_core::{Collation, MemoryHistory, Round, Voter};
use avoc_store::FileHistory;
use std::io::{self, Write};
use std::time::Instant;

const ROUNDS: usize = 20_000;

fn time_per_round<V: Voter>(mut voter: V, rounds: &[Round]) -> f64 {
    // Warm-up pass to populate histories and caches.
    for r in rounds.iter().take(100) {
        let _ = voter.vote(r);
    }
    let start = Instant::now();
    for r in rounds {
        let _ = voter.vote(r);
    }
    start.elapsed().as_secs_f64() * 1e6 / rounds.len() as f64
}

/// Prints the per-round wall time of a stateless, two history-aware and a
/// file-backed history-aware voter over 20 000 UC-1 rounds.
pub(crate) fn print(out: &mut impl Write) -> io::Result<()> {
    let cfg = Fig6Config {
        rounds: ROUNDS,
        ..Fig6Config::default()
    };
    let trace = cfg.clean_trace();
    let rounds: Vec<Round> = trace.iter_rounds().collect();

    let mut t = Table::new(vec![
        "configuration".into(),
        "µs / round".into(),
        "vs stateless".into(),
    ]);

    let stateless = time_per_round(
        HistoryVoter::new(
            HistoryAlgorithm::Stateless,
            cfg.voter_config(cfg.fast_rate, Collation::WeightedMean),
            MemoryHistory::new(),
        ),
        &rounds,
    );
    let history_mem = time_per_round(
        HistoryVoter::new(
            HistoryAlgorithm::Standard,
            cfg.voter_config(cfg.fast_rate, Collation::WeightedMean),
            MemoryHistory::new(),
        ),
        &rounds,
    );
    let hybrid_mem = time_per_round(
        HistoryVoter::new(
            HistoryAlgorithm::Hybrid,
            cfg.voter_config(cfg.fast_rate, Collation::MeanNearestNeighbor),
            MemoryHistory::new(),
        ),
        &rounds,
    );

    let wal_path = std::env::temp_dir().join(format!("avoc-latency-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);
    let history_file = time_per_round(
        HistoryVoter::new(
            HistoryAlgorithm::Standard,
            cfg.voter_config(cfg.fast_rate, Collation::WeightedMean),
            FileHistory::open(&wal_path).expect("temp file"),
        ),
        &rounds,
    );
    let _ = std::fs::remove_file(&wal_path);

    for (name, us) in [
        ("stateless weighted (no history)", stateless),
        ("history-aware, in-memory store", history_mem),
        ("hybrid, in-memory store", hybrid_mem),
        ("history-aware, file WAL store", history_file),
    ] {
        t.row(vec![
            name.into(),
            format!("{us:.2}"),
            format!("{:.1}x", us / stateless),
        ]);
    }
    writeln!(
        out,
        "== §7 implementation-note latency shape ({ROUNDS} rounds, 5 candidates) =="
    )?;
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "(paper, Python 3.9: stateless ≈ 50 µs, history-aware ≈ 1000 µs — a ~20×\n gap dominated by the datastore; compare the file-WAL row against the\n in-memory rows to see the same bottleneck. The daemon's answer is one Commit\n record per round: `serve.checkpoint_p50_us` and `store.checkpoint_us_per_round`\n in BENCHMARK.json price it)"
    )
}
