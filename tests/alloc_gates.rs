//! The allocation gates: exact counts through a counting global allocator,
//! so they hold under plain `cargo test` and `--release` alike (timing is
//! `benchmark/`'s job). The client feed path, the hub's round assembly and the
//! engine's fuse loop never allocate in steady state, and neither cold-resume
//! path allocates per record.

use avoc::core::history::HistoryStore;
use avoc::core::{ModuleId, Round};
use avoc::net::{BatchReading, Message, SensorHub, SpecSource};
use avoc::serve::{ServeClient, ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc::sim::{FaultInjector, FaultKind, LightScenario};
use avoc::store::{session_wal_path, Durability, FileHistory, TieredStore, VerdictRecord};
use avoc::vdx::{build_engine, VdxSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

/// Counts every heap allocation into a per-thread ledger, so each test
/// meters its own thread and sees neither the daemon's threads nor the
/// tests running beside it. Lives here: the workspace libraries forbid
/// `unsafe`, and only a measurement needs an allocator hook.
struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // try_with: allocations during TLS teardown must not panic the hook.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations (alloc, alloc_zeroed, realloc) this thread has made so far.
fn tl_allocations() -> u64 {
    TL_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the ledger touches no allocator state.
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

/// The instrumented daemon — admin endpoint bound, one round in 64 traced —
/// fed over loopback TCP: once warm, `send_batch` allocates nothing. The
/// ledger is sampled around `send_batch` alone, so building the readings
/// and decoding the verdicts are not charged to it.
#[test]
fn client_feed_path_allocates_nothing_per_reading() {
    const MODULES: u64 = 4;
    const CHUNK_ROUNDS: u64 = 128;
    const WARMUP_CHUNKS: u64 = 2;
    const CHUNKS: u64 = WARMUP_CHUNKS + 8;
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    let service = Arc::new(VoterService::start(
        ServeConfig {
            admin_addr: Some("127.0.0.1:0".into()),
            trace_sample: 64,
            ..ServeConfig::default()
        },
        Arc::new(registry),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client
        .open_session(7, MODULES as u32, SpecSource::Named("avoc".into()))
        .expect("open_session");

    let mut buf: Vec<BatchReading> = Vec::with_capacity((CHUNK_ROUNDS * MODULES) as usize);
    let mut feed_allocations = 0;
    for chunk in 0..CHUNKS {
        buf.clear();
        for i in 0..CHUNK_ROUNDS * MODULES {
            let (round, module) = (chunk * CHUNK_ROUNDS + i / MODULES, i % MODULES);
            buf.push(BatchReading {
                module: ModuleId::new(module as u32),
                round,
                value: 20.0 + 0.05 * module as f64 + 0.001 * (round % 64) as f64,
            });
        }
        let before = tl_allocations();
        client.send_batch(7, &buf).expect("send_batch");
        if chunk >= WARMUP_CHUNKS {
            feed_allocations += tl_allocations() - before;
        }
        for _ in 0..CHUNK_ROUNDS {
            let frame = client.recv().expect("recv");
            assert!(matches!(frame, Message::SessionResult { .. }), "{frame:?}");
        }
    }
    client.close_session(7).expect("close_session");
    let fused = server.shutdown().rounds_fused;
    assert_eq!(fused, CHUNKS * CHUNK_ROUNDS);
    assert_eq!(feed_allocations, 0, "send_batch allocated in steady state");
}

/// One engine per `HistoryVoter` preset — every algorithm of the history
/// voter, and AVOC on top of Hybrid — over the UC-1 faulty trace (the Fig. 6
/// shape: five sensors, +6 klm on E4): once any bootstrap has fired and the
/// scratch buffers have grown, `submit_ref` allocates nothing. COV clusters
/// every round, and its `Clustering` still allocates, so it stays out.
#[test]
fn warmed_fuse_loop_allocates_nothing_per_round() {
    let clean = LightScenario::new(5, 1_000, 1973).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 1973);
    let rounds: Vec<Round> = faulty.iter_rounds().collect();
    for preset in ["stateless", "standard", "me", "sdt", "hybrid", "avoc"] {
        let spec = VdxSpec::preset(preset).expect("shipped preset");
        let mut engine = build_engine(&spec).expect("preset builds");
        for round in &rounds[..256] {
            let _ = engine.submit_ref(round);
        }
        let before = tl_allocations();
        for round in &rounds {
            let _ = engine.submit_ref(round);
        }
        let allocations = tl_allocations() - before;
        assert_eq!(allocations, 0, "{preset}: fuse loop allocated");
    }
}

/// Feeds `rounds` of five modules through the hub's lending entry point,
/// handing every round back as soon as it is counted; returns how many came
/// out. Per 64 rounds, one reading arrives twice, and one sensor skips two
/// rounds running: the first of those only the deadline flushes (two rounds
/// on), the second goes out ahead of the round that completes after it.
fn lend_rounds(hub: &mut SensorHub, lent: &mut Vec<Round>, rounds: std::ops::Range<u64>) -> u64 {
    let mut emitted = 0;
    for round in rounds {
        for module in 0..5u32 {
            if matches!(round % 64, 7 | 8) && module == 4 {
                continue;
            }
            let copies = if round % 64 == 9 && module == 2 { 2 } else { 1 };
            for copy in 0..copies {
                let value = 20.0 + f64::from(module) + f64::from(copy);
                hub.accept_reading_into(ModuleId::new(module), round, value, lent);
                emitted += lent.len() as u64;
                hub.recycle(lent);
            }
        }
    }
    emitted
}

/// The hub between mailbox and engine: once its slots and round buffers
/// exist, assembling a round — complete, duplicated or deadline-flushed —
/// allocates nothing, as long as the caller hands the rounds back.
#[test]
fn warmed_hub_assembles_rounds_without_allocating() {
    let mut hub = SensorHub::new((0..5).map(ModuleId::new).collect());
    let mut lent = Vec::new();
    assert_eq!(lend_rounds(&mut hub, &mut lent, 0..128), 128);
    let before = tl_allocations();
    let emitted = lend_rounds(&mut hub, &mut lent, 128..1_128);
    assert_eq!(tl_allocations() - before, 0, "round assembly allocated");
    assert_eq!(emitted, 1_000);
    assert_eq!(hub.straggler_count(), 0);
}

/// Writes one session's WAL the way a checkpoint-per-round daemon does:
/// one commit record per round — trust rows, the verdict row, the stamp.
fn write_session_wal(dir: &Path, session: u64, modules: u32, rounds: u64) {
    let mut wal = FileHistory::open_with(session_wal_path(dir, session), Durability::Flush)
        .expect("open session WAL");
    for r in 0..rounds {
        let trust = |m: u32| 0.5 + ((r * 31 + u64::from(m) * 7) % 97) as f64 / 200.0;
        let rows: Vec<_> = (0..modules).map(|m| (ModuleId::new(m), trust(m))).collect();
        let verdict = VerdictRecord {
            round: r,
            value: Some(18.0 + (r % 40) as f64 * 0.125),
            voted: true,
        };
        wal.checkpoint(&rows, &[verdict], Some(r)).expect("commit");
    }
}

fn dir_bytes(dir: &Path, ext: &str) -> u64 {
    let files = std::fs::read_dir(dir).expect("state dir").flatten();
    let sized = files.filter(|e| e.path().extension().is_some_and(|x| x == ext));
    sized.map(|e| e.metadata().map_or(0, |m| m.len())).sum()
}

/// Cold-resuming N sessions of M rounds — by WAL replay, and by segment
/// load once the WALs are folded — allocates fewer than N·M times on either
/// path (per session, not per record), and folding never grows the data.
#[test]
fn cold_resume_does_not_allocate_per_record_and_folding_never_grows_the_data() {
    const SESSIONS: u64 = 4;
    const ROUNDS: u64 = 256;
    const MODULES: u32 = 8;
    let dir = std::env::temp_dir().join(format!("avoc-alloc-gates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create state dir");
    for s in 0..SESSIONS {
        write_session_wal(&dir, s, MODULES, ROUNDS);
    }
    let wal_bytes = dir_bytes(&dir, "wal");

    let before = tl_allocations();
    for s in 0..SESSIONS {
        let wal = FileHistory::open_with(session_wal_path(&dir, s), Durability::Flush)
            .expect("replay WAL");
        assert_eq!(wal.snapshot().len(), MODULES as usize);
    }
    let wal_allocs = tl_allocations() - before;

    let tier = TieredStore::open(&dir).expect("open tier");
    assert_eq!(tier.compact().expect("fold").wals_retired as u64, SESSIONS);
    drop(tier);
    let seg_bytes = dir_bytes(&dir, "avseg");

    let before = tl_allocations();
    let tier = TieredStore::open(&dir).expect("reopen tier");
    for s in 0..SESSIONS {
        let summary = tier.session_summary(s).expect("read").expect("folded");
        assert_eq!(summary.latest.len(), MODULES as usize);
    }
    let segment_allocs = tl_allocations() - before;
    let _ = std::fs::remove_dir_all(&dir);

    for (path, allocs) in [("WAL replay", wal_allocs), ("segment load", segment_allocs)] {
        assert!(allocs < SESSIONS * ROUNDS, "{path}: {allocs} allocations");
    }
    let shrank = (1..=wal_bytes).contains(&seg_bytes);
    assert!(shrank, "folding grew the data: {wal_bytes} -> {seg_bytes}");
}
