//! The live-bytes census: what a daemon's sessions hold on the heap, read
//! through a counting global allocator as bytes allocated minus bytes
//! freed, process-wide. Allocation counts are `alloc_gates.rs`' job; this
//! file weighs what stays.

use avoc::core::ModuleId;
use avoc::net::{BatchReading, Message, SpecSource};
use avoc::serve::{ServeConfig, SpecRegistry, VoterService};
use avoc::vdx::VdxSpec;
use crossbeam::channel::{self, Receiver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Bytes allocated minus bytes freed by every thread of this process. It
/// lives here: the workspace libraries forbid `unsafe`, and only a
/// measurement needs an allocator hook.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches no allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::SeqCst)
}

/// Serializes this file's tests: the tally is process-wide, so a test
/// beside the one measuring would be counted in its bytes.
fn census_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

const MODULES: u32 = 5;

/// A one-shard service, as the benchmark's daemon runs on one core.
fn service() -> VoterService {
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        Arc::new(registry),
    )
}

/// One five-module round of `session`'s, fed as one `feed_batch` step.
fn feed_round(service: &VoterService, session: u64, round: u64, readings: &mut Vec<BatchReading>) {
    readings.clear();
    readings.extend((0..MODULES).map(|module| BatchReading {
        module: ModuleId::new(module),
        round,
        value: 20.0 + 0.05 * f64::from(module) + 0.001 * ((round + session) % 64) as f64,
    }));
    service.feed_batch(session, readings).expect("feed");
}

/// Reads every frame waiting on `rx`, so no verdict is held by the channel.
fn drain(rx: &Receiver<Message>) {
    for frame in rx.try_iter() {
        assert!(
            matches!(
                frame,
                Message::SessionResult { .. } | Message::ResultBatch { .. }
            ),
            "{frame:?}"
        );
    }
}

/// 128 five-module `avoc` sessions, each fed 400 rounds one round a step
/// (the `tick_mem` shape), hold at most 7 KiB of heap each. The bound:
///
/// * the verdict ring, 256 entries of 17 bytes: 4 352 B;
/// * the engine: a 5-module AVOC voter with its dense history and the
///   scratch it fuses in, about 1.1 KB;
/// * the hub: one slot of 5 values and 5 cells plus its index lists,
///   about 0.2 KB;
/// * the boxed `Session` itself, 672 B on x86-64, and its 16-byte entry
///   in the shard map's table;
///
/// about 6.3 KB, with the rest of 7 KiB as headroom for the shard map's
/// spare buckets and the counters' directory entry.
#[test]
fn a_session_holds_at_most_7_kib() {
    const SESSIONS: u64 = 128;
    const ROUNDS: u64 = 400;
    const BOUND: i64 = 7 * 1024;
    let _gate = census_gate();
    let service = service();
    let (tx, rx) = channel::unbounded();
    let mut readings = Vec::with_capacity(MODULES as usize);
    let spec = SpecSource::Named("avoc".into());
    let before = live();
    for session in 0..SESSIONS {
        service
            .open_session(session, MODULES, &spec, tx.clone())
            .expect("open");
    }
    for round in 0..ROUNDS {
        for session in 0..SESSIONS {
            feed_round(&service, session, round, &mut readings);
        }
        drain(&rx);
    }
    let per_session = (live() - before) / SESSIONS as i64;
    assert_eq!(service.counters().rounds_fused, SESSIONS * ROUNDS);
    eprintln!("live bytes per session: {per_session}");
    assert!(
        per_session <= BOUND,
        "a session holds {per_session} B of heap, over the {BOUND} B bound"
    );
    drop(service);
}

/// Sessions that come and go leave nothing behind: 10 000 ids, each
/// opened, fed 8 rounds and closed, leave the live bytes within 16 KiB of
/// where the first 1 000 left them. The slack covers tables that reached
/// their size before the first 1 000 ended but may still be rehashed in
/// place, and is far below the 1 000 sessions' worth of bytes (several
/// megabytes) a per-session leak would leave.
#[test]
fn session_churn_leaves_no_bytes_behind() {
    const SESSIONS: u64 = 10_000;
    const FIRST: u64 = 1_000;
    const ROUNDS: u64 = 8;
    const SLACK: i64 = 16 * 1024;
    let _gate = census_gate();
    let service = service();
    let (tx, rx) = channel::unbounded();
    let mut readings = Vec::with_capacity(MODULES as usize);
    let spec = SpecSource::Named("avoc".into());
    let mut after_first = 0;
    for session in 0..SESSIONS {
        service
            .open_session(session, MODULES, &spec, tx.clone())
            .expect("open");
        for round in 0..ROUNDS {
            feed_round(&service, session, round, &mut readings);
        }
        service.close_session(session).expect("close");
        drain(&rx);
        if session + 1 == FIRST {
            after_first = live();
        }
    }
    let grown = live() - after_first;
    assert_eq!(service.active_sessions(), 0);
    assert_eq!(service.counters().rounds_fused, SESSIONS * ROUNDS);
    eprintln!("live bytes grown over the churn: {grown}");
    assert!(
        grown <= SLACK,
        "{} sessions' churn left {grown} B behind, over the {SLACK} B slack",
        SESSIONS - FIRST
    );
    drop(service);
}
