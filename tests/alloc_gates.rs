//! The allocation gates: exact counts through a counting global allocator,
//! so they hold under plain `cargo test` and `--release` alike (timing is
//! `benchmark/`'s job). The client feed path, the daemon's feed path, the
//! hub's round assembly and the engine's fuse loop never allocate in steady
//! state, and neither cold-resume path allocates per record.

use avoc::core::history::HistoryStore;
use avoc::core::{Ballot, ModuleId, Round};
use avoc::net::reactor::{DecodeStep, StreamDecoder};
use avoc::net::{BatchReading, Message, Rows, SensorHub, SpecSource};
use avoc::serve::{ServeClient, ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc::sim::{FaultInjector, FaultKind, LightScenario};
use avoc::store::{session_wal_path, Durability, FileHistory, TieredStore, VerdictRecord};
use avoc::vdx::{build_engine, ValueKind, VdxCollation, VdxSpec};
use bytes::BytesMut;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Counts every heap allocation into a per-thread ledger, so each test
/// meters its own thread and sees neither the daemon's threads nor the
/// tests running beside it. Lives here: the workspace libraries forbid
/// `unsafe`, and only a measurement needs an allocator hook.
struct CountingAlloc;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether this thread is one of a daemon's data-plane threads: 0 not
    /// yet looked up, 1 yes, 2 no.
    static TL_DAEMON: Cell<u8> = const { Cell::new(0) };
}

/// While set, allocations on a daemon's data-plane threads count into
/// [`DAEMON_ALLOCS`].
static DAEMON_METER: AtomicBool = AtomicBool::new(false);
static DAEMON_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    // try_with: allocations during TLS teardown must not panic the hook.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
    if DAEMON_METER.load(Ordering::Relaxed) && on_daemon_thread() {
        DAEMON_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

extern "C" {
    fn pthread_self() -> usize;
    fn pthread_getname_np(thread: usize, name: *mut std::ffi::c_char, len: usize) -> i32;
}

/// Whether the calling thread is a reactor (`avoc-net-reactor`, which the
/// kernel keeps as its first 15 bytes) or a helper (`avoc-helper-i`). The
/// name is read once per thread with `pthread_getname_np`, which for the
/// calling thread is one `prctl` and never allocates, so the allocator hook
/// may call it.
fn on_daemon_thread() -> bool {
    let looked_up = TL_DAEMON.try_with(|state| {
        if state.get() == 0 {
            let mut name = [0u8; 16];
            // SAFETY: `name` is a writable buffer of the 16 bytes a thread
            // name takes, terminator included, and `pthread_self` names the
            // calling thread.
            let read =
                unsafe { pthread_getname_np(pthread_self(), name.as_mut_ptr().cast(), name.len()) };
            let daemon = read == 0
                && (name.starts_with(b"avoc-net-reacto") || name.starts_with(b"avoc-helper-"));
            state.set(if daemon { 1 } else { 2 });
        }
        state.get() == 1
    });
    looked_up.unwrap_or(false)
}

/// Serializes the tests that start a daemon, so one test's metered window
/// never sees another's daemon threads.
fn daemon_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
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
    let _gate = daemon_gate();
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

/// A warmed `FeedBatch` stream over loopback into a real `TcpServer` on
/// one CPU, as the benchmark runs its daemon: the reactor, which parses
/// each frame where the read left it and fuses it, allocates nothing per
/// frame. The warm-up runs past the session's result ring (256 rounds),
/// and its first frame arrives in two reads, so the decoder's carry, which
/// holds only a frame a read cut off, is warm too: every buffer on the
/// path has reached its steady size before the meter is armed.
#[test]
fn daemon_feed_path_allocates_nothing_per_frame() {
    let _gate = daemon_gate();
    // Every thread the service starts inherits this thread's one CPU, so
    // it starts no helper.
    let pinned = (0..1024).any(|cpu| sysio::pin_current_thread(cpu).is_ok());
    assert!(pinned, "no CPU would take this thread");
    daemon_feed_path(true);
}

/// [`daemon_feed_path_allocates_nothing_per_frame`] with the daemon free to
/// use every CPU: on a host with more than one, a helper fuses beside the
/// reactor, so how a frame's verdicts split across pumps varies from run
/// to run. The outbox and the cork trade buffers at every pump, and the
/// cork hands back one at least as large as it takes, so neither grows
/// again to a size the other already reached: this path allocates nothing
/// per frame either.
#[test]
fn daemon_feed_path_allocates_nothing_per_frame_unpinned() {
    let _gate = daemon_gate();
    daemon_feed_path(false);
}

/// The daemon feed gate's body; `pinned` says the calling thread is
/// confined to one CPU, so the service must have started no helper.
fn daemon_feed_path(pinned: bool) {
    const MODULES: u32 = 5;
    const FRAME_ROUNDS: u64 = 64;
    const WARMUP_FRAMES: u64 = 16;
    const FRAMES: u64 = WARMUP_FRAMES + 32;
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 1,
            reactors: 1,
            ..ServeConfig::default()
        },
        Arc::new(registry),
    ));
    if pinned {
        assert_eq!(service.helpers(), 0, "one CPU runs no helper");
    }
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let mut tenant = TcpStream::connect(server.local_addr()).expect("connect");
    tenant
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let open = Message::OpenSession {
        session: 7,
        modules: MODULES,
        spec: SpecSource::Named("avoc".into()),
    };
    tenant.write_all(&open.encode()).expect("open");
    let (mut decoder, mut chunk) = (StreamDecoder::new(), vec![0; 64 * 1024]);

    let mut readings = Vec::with_capacity((FRAME_ROUNDS * u64::from(MODULES)) as usize);
    let mut wire = BytesMut::new();
    DAEMON_ALLOCS.store(0, Ordering::SeqCst);
    for n in 0..FRAMES {
        readings.clear();
        for round in n * FRAME_ROUNDS..(n + 1) * FRAME_ROUNDS {
            readings.extend((0..MODULES).map(|module| BatchReading {
                module: ModuleId::new(module),
                round,
                value: 20.0 + 0.05 * f64::from(module) + 0.001 * (round % 64) as f64,
            }));
        }
        wire.clear();
        Message::encode_feed_batch_into(7, &readings, &mut wire);
        DAEMON_METER.store(n >= WARMUP_FRAMES, Ordering::SeqCst);
        if n == 0 {
            // Half the frame, read by the daemon, then the rest.
            let (head, tail) = wire.split_at(wire.len() / 2);
            let read = service.counters().bytes_received;
            tenant.write_all(head).expect("head");
            while service.counters().bytes_received < read + head.len() as u64 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            tenant.write_all(tail).expect("tail");
        } else {
            tenant.write_all(&wire).expect("frame");
        }
        // Every verdict of the frame is back before the next is sent.
        let mut answered = 0;
        while answered < FRAME_ROUNDS {
            answered += match decoder.next_frame() {
                DecodeStep::Frame(Message::ResultBatch { results, .. }) => results.len() as u64,
                DecodeStep::Frame(Message::SessionResult { .. }) => 1,
                DecodeStep::Incomplete => {
                    let got = tenant.read(&mut chunk).expect("verdicts arrive");
                    assert!(got > 0, "the daemon hung up");
                    decoder.extend(&chunk[..got]);
                    0
                }
                other => panic!("unexpected {other:?}"),
            };
        }
    }
    DAEMON_METER.store(false, Ordering::SeqCst);
    let allocations = DAEMON_ALLOCS.load(Ordering::SeqCst);
    drop(tenant);
    let fused = server.shutdown().rounds_fused;
    assert_eq!(fused, FRAMES * FRAME_ROUNDS);
    assert_eq!(
        allocations,
        0,
        "the daemon allocated over {} warmed frames",
        FRAMES - WARMUP_FRAMES
    );
}

/// `count` rounds of five units tracking a 2-D position that drifts along
/// the diagonal. Unit 4 is jointly faulty: each coordinate is plausible on
/// its own, but the pair sits off the cluster.
fn drifting_vector_rounds(count: u64) -> Vec<Round> {
    const OFFSETS: [[f64; 2]; 5] = [
        [0.00, 0.00],
        [0.04, -0.03],
        [-0.03, 0.03],
        [0.02, 0.01],
        [0.38, -0.38],
    ];
    let rounds = (0..count).map(|round| {
        let drift = 0.01 * round as f64;
        let ballots = OFFSETS.iter().enumerate().map(|(m, [dx, dy])| {
            let position = vec![10.0 + drift + dx, 20.0 + drift + dy];
            Ballot::new(ModuleId::new(m as u32), position)
        });
        Round::new(round, ballots.collect())
    });
    rounds.collect()
}

/// `count` rounds of five door sensors: the door swaps between closed and
/// open every eight rounds, and each round one sensor, in turn, reads ajar.
fn door_text_rounds(count: u64) -> Vec<Round> {
    let rounds = (0..count).map(|round| {
        let truth = if round % 16 < 8 { "closed" } else { "open" };
        let ballots = (0..5u32).map(|m| {
            let text = if round % 5 == u64::from(m) {
                "ajar"
            } else {
                truth
            };
            Ballot::new(ModuleId::new(m), text)
        });
        Round::new(round, ballots.collect())
    });
    rounds.collect()
}

/// One engine per shipped spec file (read from disk, so a new file is gated
/// without editing this test), per preset, for the `standard` preset
/// collating by MEDIAN (no shipped spec does) and for
/// `vector-position.json` with its bootstrap off, each over a trace of its
/// value kind: UC-1 with +6 klm on E4 (the Fig. 6 shape) for numbers,
/// `drifting_vector_rounds` for vectors and `door_text_rounds` for text.
/// Once any bootstrap has fired and the scratch buffers have grown,
/// `submit_ref` allocates nothing — COV's clustering every round included.
/// Nor does `submit_row` on an engine fed the numeric trace's rows, for
/// every spec: a history voter votes them as rows once its records are
/// held, any other voter through the engine's rebuilt round (for a vector
/// or text spec every row is a type error the policy absorbs).
#[test]
fn warmed_fuse_loop_allocates_nothing_per_round() {
    let presets = [
        "average",
        "stateless",
        "standard",
        "me",
        "sdt",
        "hybrid",
        "cov",
        "avoc",
    ];
    let mut specs: Vec<(String, VdxSpec)> = presets
        .iter()
        .map(|p| (format!("preset {p}"), VdxSpec::preset(p).expect("preset")))
        .collect();
    let mut median = VdxSpec::preset("standard").expect("preset");
    median.collation = VdxCollation::Median;
    specs.push(("preset standard collating by MEDIAN".into(), median));
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    for entry in std::fs::read_dir(&dir).expect("specs/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let spec = VdxSpec::from_file(&path).expect("shipped spec parses");
            let name = path.file_name().expect("file name").to_string_lossy();
            specs.push((name.into_owned(), spec));
        }
    }
    let mut per_dimension = VdxSpec::from_file(dir.join("vector-position.json")).expect("spec");
    per_dimension.bootstrapping = false;
    specs.push((
        "vector-position.json without bootstrap".into(),
        per_dimension,
    ));
    assert!(specs.len() >= 15, "expected the shipped spec set");

    let clean = LightScenario::new(5, 1_000, 1973).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 1973);
    let numeric: Vec<Round> = faulty.iter_rounds().collect();
    let vector = drifting_vector_rounds(1_000);
    let text = door_text_rounds(1_000);
    let rows: Vec<Vec<f64>> = numeric
        .iter()
        .map(|r| {
            let value = |b: &Ballot| b.value.as_ref().and_then(|v| v.as_number());
            r.ballots
                .iter()
                .map(|b| value(b).unwrap_or(f64::NAN))
                .collect()
        })
        .collect();
    let mut allocating = Vec::new();
    for (name, spec) in &specs {
        let rounds = match spec.value_kind {
            ValueKind::Numeric => &numeric,
            ValueKind::Vector => &vector,
            ValueKind::Categorical => &text,
        };
        let mut engine = build_engine(spec).expect("spec builds");
        for round in &rounds[..256] {
            engine.submit_ref(round).expect("warm-up round");
        }
        let before = tl_allocations();
        for round in rounds {
            let _ = engine.submit_ref(round);
        }
        let allocations = tl_allocations() - before;
        if allocations > 0 {
            allocating.push((name.clone(), allocations, rounds.len()));
        }
        let mut engine = build_engine(spec).expect("spec builds");
        for (round, values) in rows[..256].iter().enumerate() {
            let _ = engine.submit_row(round as u64, values);
        }
        let before = tl_allocations();
        for (round, values) in rows.iter().enumerate() {
            let _ = engine.submit_row(round as u64, values);
        }
        let allocations = tl_allocations() - before;
        if allocations > 0 {
            allocating.push((format!("{name} by row"), allocations, rows.len()));
        }
    }
    assert!(
        allocating.is_empty(),
        "fuse loop allocated (spec, allocations, rounds): {allocating:?}"
    );
}

/// The `avoc` preset allocates nothing from the round after its bootstrap
/// round on, with no other warm-up: the round after the bootstrap is the
/// first whose records are all held, so it is the first voted as a row
/// from the round's own ballots, in the arrays the bootstrap round
/// gathered into.
#[test]
fn fused_rounds_after_the_bootstrap_allocate_nothing() {
    let clean = LightScenario::new(5, 1_000, 1973).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 1973);
    let rounds: Vec<Round> = faulty.iter_rounds().collect();
    let mut engine = build_engine(&VdxSpec::avoc()).expect("preset builds");
    engine.submit_ref(&rounds[0]).expect("bootstrap round");
    let before = tl_allocations();
    for round in &rounds[1..] {
        let _ = engine.submit_ref(round);
    }
    assert_eq!(
        tl_allocations() - before,
        0,
        "allocations after the bootstrap"
    );
}

/// Feeds `rounds` of five modules through the hub's row entry point,
/// reading the rows and clearing the buffer after every `run` readings
/// (and at the end); returns how many rows came out. Per 64 rounds, one
/// reading arrives twice, and one sensor skips two rounds running: the
/// first of those only the deadline flushes (two rounds on), the second
/// goes out ahead of the round that completes after it.
fn emit_rows(
    hub: &mut SensorHub,
    rows: &mut Rows,
    rounds: std::ops::Range<u64>,
    run: usize,
) -> u64 {
    let mut emitted = 0;
    let mut fed = 0;
    for round in rounds {
        for module in 0..5u32 {
            if matches!(round % 64, 7 | 8) && module == 4 {
                continue;
            }
            let copies = if round % 64 == 9 && module == 2 { 2 } else { 1 };
            for copy in 0..copies {
                let value = 20.0 + f64::from(module) + f64::from(copy);
                hub.accept_reading_into(ModuleId::new(module), round, value, rows);
                fed += 1;
                if fed % run == 0 {
                    emitted += rows.len() as u64;
                    rows.clear();
                }
            }
        }
    }
    emitted += rows.len() as u64;
    rows.clear();
    emitted
}

/// The hub between mailbox and engine: once its slots and the caller's
/// row buffer exist, assembling a round — complete, duplicated or
/// deadline-flushed — allocates nothing.
#[test]
fn warmed_hub_assembles_rounds_without_allocating() {
    let mut hub = SensorHub::new((0..5).map(ModuleId::new).collect());
    let mut rows = Rows::default();
    assert_eq!(emit_rows(&mut hub, &mut rows, 0..128, 1), 128);
    let before = tl_allocations();
    let emitted = emit_rows(&mut hub, &mut rows, 128..1_128, 1);
    assert_eq!(tl_allocations() - before, 0, "round assembly allocated");
    assert_eq!(emitted, 1_000);
    assert_eq!(hub.straggler_count(), 0);
}

/// How many readings a daemon shard assembles for one session before it
/// fuses the rows they completed: its `DATA_BURST`.
const SHARD_RUN: usize = 64;

/// The same hub, emitting a shard's whole run — about thirteen five-module
/// rounds — into one row buffer before the caller reads it: once the
/// buffer has held a run, a warmed run allocates nothing either.
#[test]
fn warmed_hub_emits_a_whole_run_as_rows_without_allocating() {
    let mut hub = SensorHub::new((0..5).map(ModuleId::new).collect());
    let mut rows = Rows::default();
    assert_eq!(emit_rows(&mut hub, &mut rows, 0..128, SHARD_RUN), 128);
    let before = tl_allocations();
    let emitted = emit_rows(&mut hub, &mut rows, 128..1_128, SHARD_RUN);
    assert_eq!(tl_allocations() - before, 0, "a run of rows allocated");
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
