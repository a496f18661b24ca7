//! The wire-path benchmark behind `BENCH_serve.json`: drives the voter
//! daemon over loopback TCP with 1 to 1 024 concurrent sessions and
//! measures the numbers the zero-allocation wire path and the readiness
//! reactor are accountable for:
//!
//! * **readings/sec** — end-to-end throughput, feed to verdict;
//! * **allocations per reading on the client feed path** — through a
//!   counting global allocator with a thread-local ledger, sampled around
//!   `send_batch` alone so decode/receive traffic is not charged to it.
//!   Must be zero in steady state; the binary exits non-zero otherwise;
//! * **syscalls per 1 000 readings** — client `write(2)` calls plus server
//!   writer flushes, against the analytic per-frame baseline (one write per
//!   reading frame, one per result frame) the coalescing replaced;
//! * **data-plane threads and peak FDs** — sampled from `/proc/self`
//!   mid-replay. The daemon's thread census must be identical across every
//!   row (the reactor owns all sockets from one thread; connections only
//!   cost FDs) or the binary exits non-zero; a 256-session row that fuses
//!   more than 25% below the 16-session row is printed as a notice.
//!
//! The daemon runs with its full observability surface on: the admin HTTP
//! endpoint is bound and pipeline tracing samples one round in 64, so the
//! zero-allocation claim covers the instrumented daemon, not a stripped
//! one. Every run is scraped live — `/healthz` and `/metrics` mid-replay,
//! then `/metrics?format=json` once the clients drain — and the
//! `avoc_session_fuse_latency_ns` series (one per session still live, plus
//! the tombstone the closed ones were folded into) must sum to the rounds
//! the drain snapshot says were fused, or the binary exits non-zero.
//!
//! The main sweep runs with the default reactor pool (`min(cores, 4)`
//! event-loop threads); two variant row sets at 256/1024 sessions pin the
//! pool to R=1 and R=4 so the multi-reactor speedup is recorded in the
//! same file; an R=4 row at 256 sessions more than 10% below R=1 is
//! printed as a notice. Neither throughput ratio fails the run: each
//! compares two single-shot rows, which host noise alone moves past the
//! margin (timing is gated by `benchmark/`, over repeated runs). Channel
//! sends into the shard
//! mailboxes are metered per row: with the burst handoff a whole
//! `FeedBatch` frame costs one send, so sends per 1k readings must stay
//! at or below `2 x shards` or the binary exits non-zero.
//!
//! ```text
//! cargo run -p avoc-bench --release --bin bench_serve -- \
//!     [--quick] [--out PATH] [--reactors N]
//! ```

use avoc_core::ModuleId;
use avoc_net::{BatchReading, Message, SpecSource};
use avoc_serve::{
    CountersSnapshot, ServeClient, ServeConfig, SpecRegistry, TcpServer, VoterService,
};
use avoc_vdx::VdxSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Counts every heap allocation into a per-thread ledger so each client
/// thread can meter its own feed path without seeing its neighbours'
/// traffic. Lives in the binary: the workspace libraries forbid `unsafe`,
/// and only the measurement harness needs an allocator hook.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // try_with: allocations during TLS teardown must not panic the hook.
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn tl_allocations() -> u64 {
    TL_ALLOCS.try_with(Cell::get).unwrap_or(0)
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

/// Modules per session: every round needs all four before it fuses.
const MODULES: u32 = 4;
/// Rounds shipped per `send_batch` call during the measured phase.
const CHUNK_ROUNDS: u64 = 128;
/// Warm-up chunks per session: scratch buffers, session history and the
/// socket path all reach steady-state capacity before the meter starts.
const WARMUP_CHUNKS: u64 = 2;

/// What one client thread saw during its measured phase.
struct ClientNumbers {
    readings: u64,
    feed_allocations: u64,
    writes: u64,
    frames_sent: u64,
    bytes_sent: u64,
}

/// Builds the chunk's readings in place — no allocation once `buf` holds
/// `CHUNK_ROUNDS * MODULES` entries — ships them, and drains the verdicts.
/// Only the build-and-send window is charged to `feed_allocations`.
fn run_chunk(
    client: &mut ServeClient,
    session: u64,
    buf: &mut [BatchReading],
    first_round: u64,
    feed_allocations: &mut u64,
) {
    let before = tl_allocations();
    for (i, slot) in buf.iter_mut().enumerate() {
        let round = first_round + i as u64 / MODULES as u64;
        let module = (i % MODULES as usize) as u32;
        slot.module = ModuleId::new(module);
        slot.round = round;
        slot.value = 20.0 + 0.05 * module as f64 + 0.001 * (round % 64) as f64;
    }
    client.send_batch(session, buf).expect("send_batch");
    *feed_allocations += tl_allocations() - before;

    let mut verdicts = 0;
    while verdicts < CHUNK_ROUNDS {
        match client.recv().expect("recv") {
            Message::SessionResult { .. } => verdicts += 1,
            Message::Error { message, .. } => panic!("daemon error: {message}"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

fn client_thread(
    addr: std::net::SocketAddr,
    session: u64,
    chunks: u64,
    start: &Barrier,
) -> ClientNumbers {
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .open_session(session, MODULES, SpecSource::Named("avoc".into()))
        .expect("open_session");
    let mut buf = vec![
        BatchReading {
            module: ModuleId::new(0),
            round: 0,
            value: 0.0,
        };
        (CHUNK_ROUNDS * MODULES as u64) as usize
    ];

    let mut warm_sink = 0u64;
    for c in 0..WARMUP_CHUNKS {
        run_chunk(
            &mut client,
            session,
            &mut buf,
            c * CHUNK_ROUNDS,
            &mut warm_sink,
        );
    }
    let warm_stats = client.io_stats();

    start.wait();
    let mut feed_allocations = 0u64;
    let mut readings = 0u64;
    for c in WARMUP_CHUNKS..WARMUP_CHUNKS + chunks {
        run_chunk(
            &mut client,
            session,
            &mut buf,
            c * CHUNK_ROUNDS,
            &mut feed_allocations,
        );
        readings += CHUNK_ROUNDS * MODULES as u64;
    }
    let stats = client.io_stats();
    client.close_session(session).expect("close_session");
    ClientNumbers {
        readings,
        feed_allocations,
        writes: stats.writes - warm_stats.writes,
        frames_sent: stats.frames_sent - warm_stats.frames_sent,
        bytes_sent: stats.bytes_sent - warm_stats.bytes_sent,
    }
}

struct RunNumbers {
    readings: u64,
    elapsed_secs: f64,
    feed_allocations: u64,
    client_writes: u64,
    client_frames: u64,
    client_bytes: u64,
    /// Daemon threads (`avoc-`-named) seen mid-replay — the number that
    /// must not move with the session count.
    data_plane_threads: u64,
    /// Open FDs of the whole process mid-replay, with every client
    /// connected: roughly two sockets per session (client + accepted end)
    /// over the baseline. The column that *does* scale with sessions.
    peak_fds: u64,
    snapshot: CountersSnapshot,
    /// `avoc_session_fuse_latency_ns` series on the end-of-run scrape: at
    /// most one per session still live then, plus the tombstone (the
    /// output's `scrape_sessions`).
    scrape_series: u64,
    /// Sessions live just before that scrape (the clients are closing
    /// theirs, so the scrape can only see fewer).
    live_at_scrape: u64,
    /// Sum of those series' counts — must equal `snapshot.rounds_fused`.
    scrape_fuse_count: u64,
    /// The global `avoc_fuse_latency_ns` histogram exactly as the live
    /// scrape rendered it (the schema shared with `BENCH_fusion.json`).
    fuse_latency_json: String,
    /// Event-loop threads this run's daemon actually spawned.
    reactors: u64,
    /// Shard workers this run's daemon spawned.
    shards: u64,
    /// Every reading fed, warm-up included — the denominator for the
    /// handoff-sends rate, whose counter also saw the warm-up bursts.
    total_fed: u64,
    /// Readiness backend the pool selected (`"epoll"` / `"poll"`).
    backend: &'static str,
    /// How the pool distributed accepts
    /// (`"reuseport"` / `"handoff"` / `"single"`).
    accept_mode: &'static str,
}

/// Daemon threads alive right now, recognised by the `avoc-` name prefix
/// every worker this workspace spawns carries (shards, reactor, admin,
/// compactor). The bench's own client threads are unnamed and don't match.
fn data_plane_threads() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task readable")
        .filter(|entry| {
            let Ok(entry) = entry else { return false };
            std::fs::read_to_string(entry.path().join("comm"))
                .map(|comm| comm.starts_with("avoc-"))
                .unwrap_or(false)
        })
        .count() as u64
}

/// Open FDs of this process right now.
fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd readable")
        .count() as u64
}

/// What the live `/metrics?format=json` scrape reported about fuse latency.
fn scrape_fuse_histograms(admin: std::net::SocketAddr) -> (u64, u64, String) {
    let (status, body) =
        avoc_obs::http::get(&admin.to_string(), "/metrics?format=json").expect("scrape metrics");
    assert_eq!(status, 200, "metrics scrape failed: {body}");
    let doc: serde_json::Value = serde_json::from_str(&body).expect("scrape is valid JSON");
    let hists = doc["histograms"]
        .as_object()
        .expect("scrape has a histograms object");
    let mut series = 0u64;
    let mut count_sum = 0u64;
    let mut global = String::from("{}");
    for (key, value) in hists {
        if key.starts_with("avoc_session_fuse_latency_ns{") {
            series += 1;
            count_sum += value["count"].as_u64().unwrap_or(0);
        } else if key == "avoc_fuse_latency_ns" {
            global = value.to_string();
        }
    }
    (series, count_sum, global)
}

/// Drives `sessions` client threads for `chunks` measured chunks each,
/// with `reactors` event-loop threads (`0` = the daemon default,
/// `min(cores, 4)`).
fn run_sessions(sessions: u64, chunks: u64, reactors: usize) -> RunNumbers {
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    // Idle eviction is off: with 16 ping-pong clients on a few shards a
    // session legitimately sits quiet for thousands of shard wakeups while
    // its client drains verdicts, and the bench measures the wire path,
    // not the reaper. Observability is fully on — admin endpoint bound,
    // tracing at 1-in-64 — so the numbers describe the instrumented daemon.
    let service = Arc::new(VoterService::start(
        ServeConfig {
            idle_ticks: u64::MAX,
            reactors,
            admin_addr: Some("127.0.0.1:0".into()),
            trace_sample: 64,
            // The wide rows run up to 1 024 client *threads* against however
            // few cores the host has; a client can legitimately go seconds
            // without being scheduled to read its socket. The default 5 s
            // wedge deadline is tuned for interactive tenants, not for an
            // oversubscribed load harness — raise it so the reactor doesn't
            // cut off clients the OS scheduler starved.
            write_deadline: std::time::Duration::from_secs(60),
            ..ServeConfig::default()
        },
        Arc::new(registry),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();
    let admin = server.admin_addr().expect("admin endpoint is configured");

    let start = Barrier::new(sessions as usize + 1);
    let (clients, elapsed, data_plane_threads, peak_fds) = std::thread::scope(|scope| {
        let start = &start;
        let handles: Vec<_> = (0..sessions)
            .map(|id| scope.spawn(move || client_thread(addr, id, chunks, start)))
            .collect();
        start.wait();
        let t = Instant::now();
        // Mid-replay resource census: every client connected before the
        // barrier, so this snapshot sees the daemon at full fan-in.
        let data_plane_threads = data_plane_threads();
        let peak_fds = open_fds();
        // Live mid-replay scrape: the endpoint must answer while every
        // session is under load, and the fuse counter must already move.
        let (status, _) = avoc_obs::http::get(&admin.to_string(), "/healthz").expect("healthz");
        assert_eq!(status, 200, "daemon unhealthy mid-replay");
        let (status, text) =
            avoc_obs::http::get(&admin.to_string(), "/metrics").expect("scrape metrics");
        assert_eq!(status, 200);
        assert!(
            text.contains("avoc_rounds_fused_total"),
            "mid-replay scrape is missing the fuse counter"
        );
        let clients: Vec<ClientNumbers> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (clients, t.elapsed(), data_plane_threads, peak_fds)
    });
    // All verdicts are in, so the per-session series hold their final
    // counts — in a session's own series or, once its close has landed,
    // in the tombstone; scrape before shutdown while the endpoint is live.
    let live_at_scrape = service.active_sessions() as u64;
    let (scrape_series, scrape_fuse_count, fuse_latency_json) = scrape_fuse_histograms(admin);
    let run_reactors = server.reactor_count() as u64;
    let run_shards = service.shards() as u64;
    let backend = server.reactor_backend();
    let accept_mode = server.accept_mode();
    let snapshot = server.shutdown();

    RunNumbers {
        readings: clients.iter().map(|c| c.readings).sum(),
        elapsed_secs: elapsed.as_secs_f64(),
        feed_allocations: clients.iter().map(|c| c.feed_allocations).sum(),
        client_writes: clients.iter().map(|c| c.writes).sum(),
        client_frames: clients.iter().map(|c| c.frames_sent).sum(),
        client_bytes: clients.iter().map(|c| c.bytes_sent).sum(),
        data_plane_threads,
        peak_fds,
        snapshot,
        scrape_series,
        live_at_scrape,
        scrape_fuse_count,
        fuse_latency_json,
        reactors: run_reactors,
        shards: run_shards,
        total_fed: sessions * (WARMUP_CHUNKS + chunks) * CHUNK_ROUNDS * u64::from(MODULES),
        backend,
        accept_mode,
    }
}

/// One write per reading frame on the way in, one per result frame on the
/// way out: the syscall bill of the wire path this benchmark replaced.
fn baseline_syscalls_per_1k() -> f64 {
    (1.0 + 1.0 / MODULES as f64) * 1000.0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = String::from("BENCH_serve.json");
    let mut reactors_override: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out takes a path").clone();
            }
            "--reactors" => {
                i += 1;
                reactors_override = Some(
                    args.get(i)
                        .expect("--reactors takes a count")
                        .parse()
                        .expect("--reactors takes a number"),
                );
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let base_chunks: u64 = if quick { 12 } else { 64 };
    let baseline = baseline_syscalls_per_1k();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The main sweep runs at the default (or overridden) reactor count;
    // with no override, variant rows at 256/1024 sessions pin R=1 and R=4
    // so the file records the multi-reactor speedup on this host.
    let sweep_r = reactors_override.unwrap_or(0);
    let mut plan: Vec<(u64, usize)> = [1u64, 4, 16, 64, 256, 1024]
        .iter()
        .map(|&s| (s, sweep_r))
        .collect();
    if reactors_override.is_none() {
        for r in [1usize, 4] {
            for s in [256u64, 1024] {
                plan.push((s, r));
            }
        }
    }

    let mut runs = Vec::new();
    let mut regressed = false;
    // (sessions, requested R, actual R, readings/s, census) per row — for
    // the cross-row scaling, census and reactor-speedup gates.
    struct RowStats {
        sessions: u64,
        requested_r: usize,
        reactors: u64,
        rps: f64,
        threads: u64,
    }
    let mut stats: Vec<RowStats> = Vec::new();
    let mut pool_backend = "";
    let mut pool_accept_mode = "";
    for (sessions, row_r) in plan {
        // Wide rows shrink per-session depth so total work stays bounded:
        // above 16 sessions the product `sessions * chunks` is held near
        // the 16-session row's (floored at two measured chunks each).
        let chunks = if sessions <= 16 {
            base_chunks
        } else {
            (base_chunks * 16 / sessions).max(2)
        };
        eprintln!(
            "driving {sessions} session(s) x {} rounds (reactors={row_r}{}) ...",
            chunks * CHUNK_ROUNDS,
            if row_r == 0 { " = default" } else { "" },
        );
        let run = run_sessions(sessions, chunks, row_r);
        let rps = run.readings as f64 / run.elapsed_secs;
        let allocs_per_reading = run.feed_allocations as f64 / run.readings as f64;
        let syscalls = run.client_writes + run.snapshot.writer_flushes;
        let syscalls_per_1k = syscalls as f64 * 1000.0 / run.readings as f64;
        let coalescing = baseline / syscalls_per_1k;
        // Burst handoff: a whole FeedBatch is one channel send, so the rate
        // is bounded by frames, not readings — at 512-reading chunks it sits
        // near 2 sends per 1k readings regardless of shard count.
        let hs_per_1k = run.snapshot.shard_handoff_sends as f64 * 1000.0 / run.total_fed as f64;
        eprintln!(
            "  {rps:.0} readings/s, {allocs_per_reading} alloc/reading on the feed path, \
             {syscalls_per_1k:.1} syscalls/1k readings ({coalescing:.1}x under baseline), \
             {hs_per_1k:.2} shard handoff sends/1k readings, \
             {threads} data-plane threads ({reactors} reactor(s), {mode}), {fds} peak fds",
            threads = run.data_plane_threads,
            reactors = run.reactors,
            mode = run.accept_mode,
            fds = run.peak_fds,
        );
        // The config block describes the default-configuration pool: the
        // main sweep runs first, so keep the first row's mode and ignore
        // the pinned R=1/R=4 variant rows that follow.
        if pool_backend.is_empty() {
            pool_backend = run.backend;
            pool_accept_mode = run.accept_mode;
        }
        stats.push(RowStats {
            sessions,
            requested_r: row_r,
            reactors: run.reactors,
            rps,
            threads: run.data_plane_threads,
        });
        if allocs_per_reading > 0.0 {
            eprintln!("REGRESSION: client feed path allocated in steady state");
            regressed = true;
        }
        if hs_per_1k > 2.0 * run.shards as f64 {
            eprintln!(
                "REGRESSION: {hs_per_1k:.2} shard handoff sends per 1k readings exceeds \
                 2x the shard count ({}) — batched handoff has degraded toward per-reading sends",
                run.shards
            );
            regressed = true;
        }
        if run.scrape_series > run.live_at_scrape + 1
            || run.scrape_fuse_count != run.snapshot.rounds_fused
        {
            eprintln!(
                "REGRESSION: live scrape saw {} session series summing to {} rounds with {} \
                 session(s) live, daemon fused {} across {sessions} session(s)",
                run.scrape_series,
                run.scrape_fuse_count,
                run.live_at_scrape,
                run.snapshot.rounds_fused
            );
            regressed = true;
        }
        runs.push(format!(
            "    {{\n      \"sessions\": {sessions},\n      \"reactors\": {reactors},\n      \
             \"readings\": {readings},\n      \
             \"readings_per_sec\": {rps:.1},\n      \"feed_allocations\": {fa},\n      \
             \"allocs_per_reading\": {apr},\n      \"client_writes\": {cw},\n      \
             \"client_frames_sent\": {cf},\n      \"client_bytes_sent\": {cb},\n      \
             \"server_writer_flushes\": {wf},\n      \"server_frames_sent\": {sf},\n      \
             \"server_result_batches\": {rb},\n      \"server_bytes_sent\": {sb},\n      \
             \"results_dropped\": {rd},\n      \"syscalls_per_1k_readings\": {spk:.1},\n      \
             \"coalescing_vs_baseline\": {coal:.1},\n      \
             \"handoff_sends_per_1k_readings\": {hspk:.2},\n      \
             \"data_plane_threads\": {dpt},\n      \"peak_fds\": {pfd},\n      \
             \"scrape_sessions\": {ss},\n      \"scrape_fuse_count\": {sfc},\n      \
             \"fuse_latency_ns\": {flj}\n    }}",
            reactors = run.reactors,
            readings = run.readings,
            fa = run.feed_allocations,
            apr = allocs_per_reading,
            cw = run.client_writes,
            cf = run.client_frames,
            cb = run.client_bytes,
            wf = run.snapshot.writer_flushes,
            sf = run.snapshot.frames_sent,
            rb = run.snapshot.result_batches,
            sb = run.snapshot.bytes_sent,
            rd = run.snapshot.results_dropped,
            spk = syscalls_per_1k,
            coal = coalescing,
            hspk = hs_per_1k,
            dpt = run.data_plane_threads,
            pfd = run.peak_fds,
            ss = run.scrape_series,
            sfc = run.scrape_fuse_count,
            flj = run.fuse_latency_json,
        ));
    }

    // Scaling checks. Under the old thread-per-connection front-end 256
    // tenants meant 512 daemon threads thrashing the scheduler; the
    // reactor's thread census must not move between any two rows at the
    // same reactor count (exact, so gated), and it should hold 256-session
    // throughput near the 16-session row (two single-shot timings, so
    // reported, not gated).
    let sweep_rps_at = |n: u64| {
        stats
            .iter()
            .find(|r| r.sessions == n && r.requested_r == sweep_r)
            .map(|r| r.rps)
            .expect("row was measured")
    };
    if sweep_rps_at(256) < sweep_rps_at(16) * 0.75 {
        eprintln!(
            "notice: 256 sessions fused {:.0} readings/s, more than 25% below the \
             16-session {:.0} (single-shot rows; not gated)",
            sweep_rps_at(256),
            sweep_rps_at(16)
        );
    }
    // Census: shards + R exactly, so rows differing only in session count
    // must agree thread-for-thread, and an extra reactor must cost exactly
    // one extra thread.
    let mut reactor_counts: Vec<u64> = stats.iter().map(|r| r.reactors).collect();
    reactor_counts.sort_unstable();
    reactor_counts.dedup();
    for rc in &reactor_counts {
        let census: Vec<u64> = stats
            .iter()
            .filter(|r| r.reactors == *rc)
            .map(|r| r.threads)
            .collect();
        if census.windows(2).any(|w| w[0] != w[1]) {
            eprintln!(
                "REGRESSION: data-plane thread count moved with the session count \
                 at {rc} reactor(s): {census:?}"
            );
            regressed = true;
        }
    }
    if let [r_lo, r_hi] = reactor_counts[..] {
        let threads_at = |rc: u64| stats.iter().find(|r| r.reactors == rc).map(|r| r.threads);
        if let (Some(t_lo), Some(t_hi)) = (threads_at(r_lo), threads_at(r_hi)) {
            if t_hi != t_lo + (r_hi - r_lo) {
                eprintln!(
                    "REGRESSION: going from {r_lo} to {r_hi} reactor(s) moved the census \
                     from {t_lo} to {t_hi} threads — each reactor must cost exactly one"
                );
                regressed = true;
            }
        }
    }
    // Multi-reactor speedup: with both R=1 and R=4 rows measured, the pool
    // should not make fan-in *worse* (the BENCH file records both rows).
    // Reported, not gated: on an idle 2-core host the single-shot ratio
    // dipped under 0.9 in a third of runs of unchanged code.
    let variant_rps = |sessions: u64, r: usize| {
        stats
            .iter()
            .find(|row| row.sessions == sessions && row.requested_r == r)
            .map(|row| row.rps)
    };
    if let (Some(r1), Some(r4)) = (variant_rps(256, 1), variant_rps(256, 4)) {
        if r4 < r1 * 0.9 {
            eprintln!(
                "notice: 4 reactors fused {r4:.0} readings/s at 256 sessions, more than \
                 10% below the single-reactor {r1:.0} on a {cores}-core host \
                 (single-shot rows; not gated)"
            );
        }
    }

    let config_reactors = stats.first().map_or(0, |r| r.reactors);
    let json = format!(
        "{{\n  \"config\": {{\"base_chunks\": {base_chunks}, \"modules\": {MODULES}, \
         \"chunk_rounds\": {CHUNK_ROUNDS}, \"quick\": {quick}, \"cores\": {cores}, \
         \"reactors\": {config_reactors}, \"backend\": \"{pool_backend}\", \
         \"accept_mode\": \"{pool_accept_mode}\"}},\n  \
         \"baseline\": {{\n    \"syscalls_per_1k_readings\": {baseline:.1},\n    \
         \"note\": \"analytic per-frame wire path: one write(2) per reading frame plus one \
         per result frame at {MODULES} modules/round\"\n  }},\n  \"runs\": [\n{runs}\n  ]\n}}\n",
        runs = runs.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write BENCH_serve.json");
    print!("{json}");
    eprintln!("-> {out}");
    if regressed {
        std::process::exit(1);
    }
}
