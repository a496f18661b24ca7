//! The datastore bottleneck: the paper attributes the 20× gap between
//! history-aware (~1 ms) and stateless (~50 µs) rounds to "datastore reads
//! and writes". This bench drives the same Standard voter over four store
//! backends so the gap — and the write-behind cache that closes it — is
//! directly measurable.

use avoc_core::algorithms::StandardVoter;
use avoc_core::{MemoryHistory, Round, Voter, VoterConfig};
use avoc_store::{CachedHistory, FileHistory, SharedHistory};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

fn bench_round(values: &[f64]) -> Round {
    Round::from_numbers(0, values)
}

fn bench_stores(c: &mut Criterion) {
    let mut group = c.benchmark_group("history_store_backends");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let round = bench_round(&[18.0, 18.1, 17.9, 18.2, 18.05]);
    let cfg = VoterConfig::default();

    group.bench_function("memory", |b| {
        let mut voter = StandardVoter::new(cfg, MemoryHistory::new());
        b.iter(|| black_box(voter.vote(black_box(&round)).expect("vote")));
    });

    group.bench_function("shared_rwlock", |b| {
        let mut voter = StandardVoter::new(cfg, SharedHistory::new());
        b.iter(|| black_box(voter.vote(black_box(&round)).expect("vote")));
    });

    group.bench_function("file_wal", |b| {
        let path = std::env::temp_dir().join(format!("avoc-bench-wal-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut voter = StandardVoter::new(cfg, FileHistory::open(&path).expect("temp file"));
        b.iter(|| black_box(voter.vote(black_box(&round)).expect("vote")));
        let _ = std::fs::remove_file(&path);
    });

    group.bench_function("file_wal_cached", |b| {
        let path =
            std::env::temp_dir().join(format!("avoc-bench-wal-cached-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = CachedHistory::new(FileHistory::open(&path).expect("temp file"));
        let mut voter = StandardVoter::new(cfg, store);
        b.iter(|| black_box(voter.vote(black_box(&round)).expect("vote")));
        let _ = std::fs::remove_file(&path);
    });

    group.finish();
}

criterion_group!(benches, bench_stores);
criterion_main!(benches);
