//! FD and thread hygiene of the readiness-based daemon front-end.
//!
//! Each tenant socket is owned for life by one reactor in the pool, so two
//! resource invariants must hold no matter how many tenants come and go:
//! the process's open-FD count returns to its baseline once connections
//! close (no leaked sockets, no leaked connection slots holding them), and
//! the daemon's data-plane thread count is exactly `shards + reactors`,
//! never moving with the connection count. Both are measured against
//! `/proc/self`, which makes these tests Linux-only — as the daemon's
//! epoll reactor is.
//!
//! The churn below deliberately mixes clean teardowns with the rude ones a
//! public port sees: clients that vanish mid-frame, and clients that open
//! with a hostile length prefix and get cut off by the decoder.

use avoc::core::ModuleId;
use avoc::net::{Message, SpecSource};
use avoc::serve::{ServeClient, ServeConfig, SpecRegistry, TcpServer, VoterService};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use sysio::fault::{self, Kind, Plan, Site};

/// `/proc/self` is process-global: a test counting this process's FDs or
/// threads would see the other test's server too. Serialise them.
static PROC_SELF: Mutex<()> = Mutex::new(());

fn proc_lock() -> MutexGuard<'static, ()> {
    PROC_SELF.lock().unwrap_or_else(|e| e.into_inner())
}

/// Open file descriptors of this process right now. Counts the directory
/// fd `read_dir` itself holds too, but that bias is identical on both
/// sides of a before/after comparison.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd readable")
        .count()
}

/// Live daemon threads, recognised by the `avoc-` prefix every worker
/// spawned by this workspace carries in its name (reactor, shards,
/// compactor, admin). Test-harness threads don't match and can't skew it.
fn avoc_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task readable")
        .filter(|entry| {
            let Ok(entry) = entry else { return false };
            std::fs::read_to_string(entry.path().join("comm"))
                .map(|comm| comm.starts_with("avoc-"))
                .unwrap_or(false)
        })
        .count()
}

/// This process's shard workers, by tid. The kernel keeps the first 15
/// bytes of a thread name, so `avoc-serve-shard-N` reads back as
/// `avoc-serve-shar`.
fn shard_tids() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task readable")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            comm.starts_with("avoc-serve-shar")
                .then(|| path.file_name()?.to_str().map(str::to_owned))?
        })
        .collect()
}

/// Voluntary context switches the threads `tids` have made so far.
fn voluntary_switches(tids: &[String]) -> u64 {
    tids.iter()
        .map(|tid| {
            let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"))
                .expect("thread status readable");
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse::<u64>().ok())
                .expect("voluntary_ctxt_switches line")
        })
        .sum()
}

/// Polls until `probe` succeeds or the deadline passes; returns the last
/// observation either way. Teardown is asynchronous (the reactor frees a
/// slot when it sees the EOF, shards drop sink clones when the close
/// command lands), so every "back to baseline" assertion needs a grace
/// window rather than an instant.
fn settle<T: Copy>(deadline: Duration, mut probe: impl FnMut() -> (bool, T)) -> (bool, T) {
    let until = Instant::now() + deadline;
    loop {
        let (ok, seen) = probe();
        if ok || Instant::now() >= until {
            return (ok, seen);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn avoc_registry() -> Arc<SpecRegistry> {
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
    Arc::new(reg)
}

/// A thousand tenants churned through a four-reactor daemon — each
/// connects, opens a single-module session, fuses one round, reads its
/// result and closes — must leave the process exactly where it started:
/// FD count at baseline, zero open connections, zero live sessions, and a
/// data-plane census of exactly `shards + reactors` threads before, during
/// and after. The churn lands on all four reactors (`SO_REUSEPORT`
/// hashing), so slot reuse and teardown are exercised per reactor, not
/// just on one.
#[test]
fn thousand_session_churn_leaks_no_fds_or_threads() {
    let _guard = proc_lock();
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 2,
            reactors: 4,
            ..ServeConfig::default()
        },
        avoc_registry(),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();
    assert_eq!(server.reactor_count(), 4);

    // Warm up one full round-trip first: lazily-created process resources
    // (the reactors' first slot growth, proc handles, DNS-free connect
    // paths) must not masquerade as a leak in the measured loop.
    run_tenant(addr, 0);
    let (clean, _) = settle(Duration::from_secs(5), || {
        let open = service.counters().connections_open;
        (open == 0, open)
    });
    assert!(clean, "warmup connection must fully close");
    let fd_baseline = open_fds();
    // A thread's name is set from inside the thread, so wait for every
    // just-spawned worker to have run before pinning the census.
    let expected_census = 2 + server.reactor_count();
    let (ok, thread_baseline) = settle(Duration::from_secs(5), || {
        let n = avoc_threads();
        (n == expected_census, n)
    });
    assert!(
        ok,
        "census must be exactly shards + reactors = {expected_census}, saw {thread_baseline}"
    );

    let scrape_baseline = scrape_size(&service);
    let series_baseline = series_count(&service);

    const SESSIONS: u64 = 1000;
    for session in 1..=SESSIONS {
        run_tenant(addr, session);
        // A round is counted before its verdict leaves, so every tenant
        // so far (the warmup's included) has its round in the total.
        if session % 100 == 0 {
            let rounds = service.counters().rounds_fused;
            assert_eq!(rounds, session + 1, "mid-churn, after tenant {session}");
        }
        // Interleave rude teardowns through the churn so slot reuse is
        // exercised against them, not just after them.
        match session % 250 {
            100 => abrupt_reset_mid_frame(addr),
            200 => hostile_length_prefix(addr),
            _ => {}
        }
    }

    // Every socket the churn opened must be gone again — server side via
    // the reactor freeing slots, client side via the drops above.
    let (ok, fds) = settle(Duration::from_secs(10), || {
        let now = open_fds();
        (now <= fd_baseline, now)
    });
    assert!(
        ok,
        "fd count must return to baseline after churn: {fds} > {fd_baseline}"
    );
    assert_eq!(
        avoc_threads(),
        thread_baseline,
        "data-plane thread count must not scale with tenant churn"
    );
    let (ok, open) = settle(Duration::from_secs(5), || {
        let open = service.counters().connections_open;
        (open == 0, open)
    });
    assert!(ok, "connections_open gauge must drain to zero, saw {open}");
    // Session close is processed by the shard after the socket drops, so
    // give the final Close a moment to drain on a loaded box.
    let (ok, live) = settle(Duration::from_secs(5), || {
        let live = service.active_sessions();
        (live == 0, live)
    });
    assert!(ok, "no session may linger, saw {live}");
    // Series census: no series is kept per session, so a thousand tenants
    // left exactly the series the daemon had before them.
    assert_eq!(series_count(&service), series_baseline);
    // The scrape is as long as before the churn, bucket lines aside. (For
    // the full text "within 2 KB" does not hold: a series renders one line
    // per non-empty bucket, and a thousand more latencies fill more of the
    // same histograms' buckets.) The bucket lines are bounded by the
    // layout instead — 90 bounds and `+Inf` per histogram, and the churn
    // left no histogram behind.
    let scrape = scrape_size(&service);
    assert_eq!(scrape.histograms, scrape_baseline.histograms);
    assert!(
        scrape.rest <= scrape_baseline.rest + 2048
            && scrape.buckets <= scrape.histograms * 91 * BUCKET_LINE_MAX,
        "scrape must not grow with tenant churn: {scrape_baseline:?} -> {scrape:?}"
    );

    let snap = server.shutdown();
    // +1 for the warmup tenant; the rude connections never open sessions.
    assert_eq!(snap.sessions_opened, SESSIONS + 1);
    assert_eq!(snap.rounds_fused, SESSIONS + 1);
    assert!(snap.connections_accepted > SESSIONS);
    assert_eq!(snap.connections_open, 0);
}

/// Series in the JSON scrape right now: one key per counter, gauge or
/// histogram series.
fn series_count(service: &VoterService) -> usize {
    let scrape: serde_json::Value =
        serde_json::from_str(&service.obs_registry().render_json()).expect("valid JSON");
    ["counters", "gauges", "histograms"]
        .into_iter()
        .map(|kind| scrape[kind].as_object().expect("series map").len())
        .sum()
}

/// No bucket line is longer: family name, a reactor or shard label, `le`
/// and two twenty-digit numbers.
const BUCKET_LINE_MAX: usize = 128;

/// What the Prometheus scrape weighs right now.
#[derive(Debug, Clone, Copy)]
struct ScrapeSize {
    /// Histogram series (each renders exactly one `+Inf` bucket).
    histograms: usize,
    /// Bytes of their bucket lines: which buckets are non-empty depends on
    /// how latencies spread, not on how many tenants came and went.
    buckets: usize,
    /// Bytes of everything else.
    rest: usize,
}

fn scrape_size(service: &VoterService) -> ScrapeSize {
    let text = service.obs_registry().render_prometheus();
    let bucket_lines = text.lines().filter(|line| line.contains("_bucket{"));
    let buckets = bucket_lines.map(|line| line.len() + 1).sum();
    ScrapeSize {
        histograms: text.matches("le=\"+Inf\"").count(),
        buckets,
        rest: text.len() - buckets,
    }
}

/// One tenant's full lifecycle over TCP.
fn run_tenant(addr: std::net::SocketAddr, session: u64) {
    let mut client = ServeClient::connect(addr).expect("connect");
    client
        .open_session(session, 1, SpecSource::Named("avoc".into()))
        .expect("open");
    client
        .send_reading(session, ModuleId::new(0), 0, 20.0)
        .expect("feed");
    match client.recv().expect("result") {
        Message::SessionResult {
            session: s, round, ..
        } => {
            assert_eq!((s, round), (session, 0));
        }
        other => panic!("unexpected frame {other:?}"),
    }
    client.close_session(session).expect("close");
    // Dropping the client closes the socket; the server sees EOF.
}

/// A client that dies mid-frame: the length prefix promises a payload that
/// never arrives. The reactor must treat the EOF as a normal teardown and
/// free the slot even though the decoder holds a partial frame.
fn abrupt_reset_mid_frame(addr: std::net::SocketAddr) {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&64u32.to_be_bytes()).expect("prefix");
    raw.write_all(&[9u8; 10]).expect("partial payload");
    drop(raw);
}

/// A hostile length prefix (4 GiB frame) must get the connection cut off
/// by the server — observed as EOF on our side — without the daemon
/// buffering toward the advertised length.
fn hostile_length_prefix(addr: std::net::SocketAddr) {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&u32::MAX.to_be_bytes()).expect("prefix");
    let mut buf = [0u8; 16];
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let n = std::io::Read::read(&mut raw, &mut buf).expect("server must answer with a close");
    assert_eq!(n, 0, "hostile prefix must be met with EOF, not data");
}

/// The census itself, pinned: the daemon's data-plane threads are the
/// shard workers plus the reactor pool, one thread per reactor — whether
/// zero or fifty connections are open. Fifty concurrently-open sockets
/// raise the FD count but not the thread count; that is the whole point of
/// retiring thread-per-connection. Run at one reactor and at four, the
/// census differs by exactly three: each reactor costs exactly one thread.
#[test]
fn thread_census_is_independent_of_open_connections() {
    let _guard = proc_lock();
    assert_eq!(
        census_across_fifty_connections(4),
        census_across_fifty_connections(1) + 3
    );
}

/// Boots a 2-shard daemon with `reactors` event loops, holds fifty
/// connections open and drops them again; the census must be exactly
/// `shards + reactors` throughout. Returns it.
fn census_across_fifty_connections(reactors: usize) -> usize {
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 2,
            reactors,
            ..ServeConfig::default()
        },
        avoc_registry(),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();
    assert_eq!(server.reactor_count(), reactors);
    // A thread's name is set from inside the thread itself, so the census
    // only stabilises once every just-spawned worker has run.
    let expected = 2 + reactors;
    let (ok, idle_threads) = settle(Duration::from_secs(5), || {
        let n = avoc_threads();
        (n == expected, n)
    });
    assert!(
        ok,
        "expected exactly shards + reactors = {expected}, saw {idle_threads}"
    );

    let mut clients = Vec::new();
    for session in 0..50u64 {
        let mut client = ServeClient::connect(addr).expect("connect");
        client
            .open_session(session, 1, SpecSource::Named("avoc".into()))
            .expect("open");
        clients.push(client);
    }
    let (ok, open) = settle(Duration::from_secs(5), || {
        let open = service.counters().connections_open;
        (open == 50, open)
    });
    assert!(ok, "expected 50 open connections, saw {open}");
    assert_eq!(
        avoc_threads(),
        idle_threads,
        "open connections must not spawn threads"
    );

    drop(clients);
    let (ok, open) = settle(Duration::from_secs(10), || {
        let open = service.counters().connections_open;
        (open == 0, open)
    });
    assert!(ok, "disconnects must drain the gauge, saw {open}");
    assert_eq!(avoc_threads(), idle_threads);
    let snap = server.shutdown();
    assert_eq!(snap.connections_accepted, 50);
    idle_threads
}

/// FD exhaustion on accept pauses a *listener*, not the pool: with four
/// reactors sharing the port, one injected EMFILE pauses exactly the
/// reactor that hit it (counted once, pool-wide), every tenant in flight
/// still completes — those queued behind the paused listener just ride out
/// its 50 ms resume probe — and the health plane is back to `ok` once the
/// probe re-arms. The fault injector is process-global, so the test can't
/// *choose* which reactor trips; a single-shot rule guarantees exactly one
/// does, and the availability assertion covers the other three.
#[test]
fn emfile_pauses_one_reactor_not_the_pool() {
    let _guard = proc_lock();
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 2,
            reactors: 4,
            ..ServeConfig::default()
        },
        avoc_registry(),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();
    assert_eq!(server.reactor_count(), 4);

    // One EMFILE on the next accept(2), wherever it lands.
    fault::install(Plan::new(0xFD5).rule(Site::Accept, Kind::Emfile, 1, 1));
    const TENANTS: u64 = 8;
    for session in 0..TENANTS {
        run_tenant(addr, session);
    }
    fault::clear();

    let (ok, pauses) = settle(Duration::from_secs(5), || {
        let pauses = service.counters().accept_pauses;
        (pauses == 1, pauses)
    });
    assert!(
        ok,
        "exactly one listener pause must be counted, saw {pauses}"
    );
    let (ok, healthy) = settle(Duration::from_secs(5), || {
        let healthy = service.health().is_ok();
        (healthy, healthy)
    });
    assert!(
        ok,
        "health must return to ok once accept resumes, saw ok={healthy}"
    );

    let snap = server.shutdown();
    assert_eq!(snap.sessions_opened, TENANTS);
    assert_eq!(snap.rounds_fused, TENANTS);
    assert_eq!(snap.connections_accepted, TENANTS);
    assert_eq!(snap.accept_pauses, 1);
}

/// An idle shard sleeps until a send wakes it: a settled 2-shard service
/// with no sessions makes at most one voluntary context switch across both
/// workers in half a second (a timed control poll would wake each of them
/// every few milliseconds), and still answers a `resume_session` at once.
#[test]
fn idle_shards_sleep_until_a_send_wakes_them() {
    let _guard = proc_lock();
    let before = shard_tids();
    let service = VoterService::start(
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        avoc_registry(),
    );
    let spawned = || -> Vec<String> {
        let mut tids = shard_tids();
        tids.retain(|tid| !before.contains(tid));
        tids
    };
    // A thread's name is set from inside the thread: wait for both.
    let (ok, seen) = settle(Duration::from_secs(5), || {
        let n = spawned().len();
        (n == 2, n)
    });
    assert!(ok, "expected 2 new shard workers, saw {seen}");
    let tids = spawned();
    std::thread::sleep(Duration::from_millis(50));
    let settled = voluntary_switches(&tids);
    std::thread::sleep(Duration::from_millis(500));
    let switches = voluntary_switches(&tids) - settled;
    assert!(
        switches <= 1,
        "idle shards made {switches} voluntary context switches in 500 ms"
    );

    let (sink, answers) = crossbeam::channel::unbounded::<Message>();
    service
        .resume_session(1, 1, &SpecSource::Named("avoc".into()), 7, None, sink)
        .expect("resume");
    match answers.recv_timeout(Duration::from_secs(5)) {
        Ok(Message::Resumed { session: 1, .. }) => {}
        other => panic!("the idle service answered {other:?}"),
    }
    service.drain();
}
