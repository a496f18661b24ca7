//! The tiered-store benchmark behind `BENCH_store.json`: cold-resuming a
//! roster of sessions from columnar segments versus replaying their WALs.
//!
//! The setup writes an identical reference roster twice — per-session WALs
//! with one commit per round, what a persistent daemon leaves behind — then
//! folds one copy into segments (retiring its WALs) and leaves the other on
//! the WAL tier. The measured phase cold-resumes every session from each
//! tier and reports:
//!
//! * **wal_replay_ms / segment_load_ms** — total resume wall time per tier
//!   (the same split the daemon's `avoc_wal_replay_ns_total` /
//!   `avoc_segment_load_ns_total` counters attribute live resumes to);
//! * **allocations per resumed session** on each path, through a counting
//!   global allocator;
//! * **bytes read per tier** — WAL bytes replayed versus segment footer +
//!   block bytes actually fetched.
//!
//! Both paths must reconstruct bit-identical per-module state, and the
//! binary exits non-zero otherwise. The other gates are exact counts, not
//! timings: since a WAL record became a segment block the two resume paths
//! run the same decoder and their times sit within run-to-run noise of each
//! other on a small roster, so what is held to account is that neither path
//! allocates per record (allocations per resumed session stay below the
//! session's round count) and that folding never grows the data (segment
//! bytes ≤ WAL bytes). The times are reported, with the host they came from.
//!
//! ```text
//! cargo run -p avoc-bench --release --bin bench_store -- [--quick] [--out PATH]
//! ```

use avoc_core::history::HistoryStore;
use avoc_core::ModuleId;
use avoc_store::{session_wal_path, Durability, FileHistory, TieredStore, VerdictRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Counts every heap allocation. Lives in the binary: the workspace
/// libraries forbid `unsafe`, and only the measurement harness needs an
/// allocator hook.
struct CountingAlloc;

static ALLOCATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn allocations() -> u64 {
    ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

fn count_one() {
    ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Modules per session in the reference roster.
const MODULES: u32 = 8;

/// Writes one session's WAL the way a checkpoint-per-round daemon does:
/// one commit record per round — trust rows, the verdict row, the stamp.
fn write_session(dir: &Path, session: u64, rounds: u64) {
    let mut wal = FileHistory::open_with(session_wal_path(dir, session), Durability::Flush)
        .expect("open session WAL");
    let mut batch = Vec::with_capacity(MODULES as usize);
    for r in 0..rounds {
        batch.clear();
        for m in 0..MODULES {
            // Deterministic per-module drift; the last module trends down
            // so the direction column has movement in both directions.
            let v = if m + 1 == MODULES {
                (1.0 - r as f64 / rounds as f64).clamp(0.0, 1.0)
            } else {
                (0.5 + ((r * 31 + u64::from(m) * 7) % 97) as f64 / 200.0).clamp(0.0, 1.0)
            };
            batch.push((ModuleId::new(m), v));
        }
        let verdict = VerdictRecord {
            round: r,
            value: Some(18.0 + (r % 40) as f64 * 0.125),
            voted: true,
        };
        wal.checkpoint(&batch, &[verdict], Some(r))
            .expect("append checkpoint");
    }
}

fn build_roster(dir: &Path, sessions: u64, rounds: u64) {
    std::fs::create_dir_all(dir).expect("create roster dir");
    for s in 0..sessions {
        write_session(dir, s, rounds);
    }
}

fn dir_bytes(dir: &Path, ext: &str) -> u64 {
    std::fs::read_dir(dir)
        .expect("roster dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == ext))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

/// Latest per-module state as bit patterns, for the identity gate.
type Latest = Vec<(u32, u64)>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = String::from("BENCH_store.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out takes a path").clone();
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let sessions: u64 = if quick { 8 } else { 32 };
    let rounds: u64 = if quick { 256 } else { 2048 };

    let base = std::env::temp_dir().join(format!("avoc-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let wal_dir: PathBuf = base.join("wal-tier");
    let seg_dir: PathBuf = base.join("segment-tier");

    eprintln!("writing {sessions} session WALs x {rounds} rounds, twice ...");
    build_roster(&wal_dir, sessions, rounds);
    build_roster(&seg_dir, sessions, rounds);
    let wal_bytes = dir_bytes(&wal_dir, "wal");

    // Fold one copy into segments; its WALs retire.
    let fold_started = Instant::now();
    let tier = TieredStore::open(&seg_dir).expect("open segment tier");
    let report = tier.compact().expect("compact roster");
    let compaction_ms = fold_started.elapsed().as_secs_f64() * 1e3;
    drop(tier);
    assert_eq!(report.wals_retired as u64, sessions, "all WALs must fold");
    let seg_bytes = dir_bytes(&seg_dir, "avseg");

    // Measured phase 1: WAL replay — open + snapshot per session, cold.
    let allocs_before = allocations();
    let replay_started = Instant::now();
    let mut wal_latest: Vec<Latest> = Vec::with_capacity(sessions as usize);
    for s in 0..sessions {
        let wal = FileHistory::open_with(session_wal_path(&wal_dir, s), Durability::Flush)
            .expect("replay WAL");
        wal_latest.push(
            wal.snapshot()
                .into_iter()
                .map(|(m, v)| (m.index(), v.to_bits()))
                .collect(),
        );
    }
    let wal_replay_ms = replay_started.elapsed().as_secs_f64() * 1e3;
    let wal_allocs = allocations() - allocs_before;

    // Measured phase 2: segment cold-resume — one tier open (manifest +
    // footers), then a targeted summary read per session.
    let allocs_before = allocations();
    let segment_started = Instant::now();
    let tier = TieredStore::open(&seg_dir).expect("reopen segment tier");
    let mut seg_latest: Vec<Latest> = Vec::with_capacity(sessions as usize);
    for s in 0..sessions {
        let summary = tier
            .session_summary(s)
            .expect("segment summary")
            .expect("session folded");
        seg_latest.push(
            summary
                .latest
                .into_iter()
                .map(|(m, v)| (m.index(), v.to_bits()))
                .collect(),
        );
    }
    let segment_load_ms = segment_started.elapsed().as_secs_f64() * 1e3;
    let seg_allocs = allocations() - allocs_before;

    let mut failed = false;
    if wal_latest != seg_latest {
        eprintln!("REGRESSION: segment resume state differs from WAL replay state");
        failed = true;
    }
    for (tier, allocs) in [("WAL replay", wal_allocs), ("segment load", seg_allocs)] {
        if allocs >= sessions * rounds {
            eprintln!(
                "REGRESSION: {tier} made {allocs} allocations for {sessions} sessions of \
                 {rounds} rounds — it allocates per record"
            );
            failed = true;
        }
    }
    if seg_bytes > wal_bytes {
        eprintln!(
            "REGRESSION: folding grew the data ({wal_bytes} WAL -> {seg_bytes} segment bytes)"
        );
        failed = true;
    }

    let speedup = wal_replay_ms / segment_load_ms;
    eprintln!(
        "wal replay {wal_replay_ms:.2} ms vs segment load {segment_load_ms:.2} ms \
         ({speedup:.1}x), {wal_bytes} WAL bytes -> {seg_bytes} segment bytes"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let json = format!(
        "{{\n  \"host\": {{\"cores\": {cores}, \"commit\": \"{commit}\"}},\n  \
         \"config\": {{\"sessions\": {sessions}, \"rounds\": {rounds}, \
         \"modules\": {MODULES}, \"quick\": {quick}}},\n  \
         \"roster\": {{\n    \"wal_bytes\": {wal_bytes},\n    \"segment_bytes\": {seg_bytes},\n    \
         \"wal_bytes_per_round\": {wal_bpr:.1},\n    \
         \"segment_bytes_per_round\": {seg_bpr:.1},\n    \
         \"compression_vs_wal\": {compression:.2},\n    \
         \"history_rows_folded\": {hist_rows},\n    \"verdict_rows_folded\": {verd_rows},\n    \
         \"segments_written\": {segs},\n    \"compaction_ms\": {compaction_ms:.2}\n  }},\n  \
         \"cold_resume\": {{\n    \"wal_replay_ms\": {wal_replay_ms:.3},\n    \
         \"segment_load_ms\": {segment_load_ms:.3},\n    \"speedup\": {speedup:.2},\n    \
         \"wal_allocations\": {wal_allocs},\n    \"segment_allocations\": {seg_allocs},\n    \
         \"wal_allocs_per_session\": {wal_aps:.0},\n    \
         \"segment_allocs_per_session\": {seg_aps:.0}\n  }},\n  \
         \"identical_state\": {identical}\n}}\n",
        wal_bpr = wal_bytes as f64 / (sessions * rounds) as f64,
        seg_bpr = seg_bytes as f64 / (sessions * rounds) as f64,
        compression = wal_bytes as f64 / seg_bytes as f64,
        hist_rows = report.history_rows,
        verd_rows = report.verdict_rows,
        segs = report.segments_written,
        wal_aps = wal_allocs as f64 / sessions as f64,
        seg_aps = seg_allocs as f64 / sessions as f64,
        identical = wal_latest == seg_latest,
    );
    std::fs::write(&out, &json).expect("write BENCH_store.json");
    print!("{json}");
    eprintln!("-> {out}");
    let _ = std::fs::remove_dir_all(&base);
    if failed {
        std::process::exit(1);
    }
}
