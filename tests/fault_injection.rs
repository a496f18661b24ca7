//! The syscall-level fault matrix: drive a real daemon over loopback while
//! the `sysio` injector makes chosen syscall sites fail (EINTR, EAGAIN,
//! EMFILE, ENOSPC, short writes), and prove that every *survivable* fault
//! leaves the fused result stream bit-identical to an unfaulted run.
//!
//! "Survivable" means the daemon keeps serving correct results — possibly
//! with reduced guarantees (memory-only persistence, paused accept) that
//! the health plane reports — and never panics, wedges, or diverges. The
//! scenarios here are the contract the CI `fault-smoke` job enforces.

use avoc::net::{Message, SpecSource};
use avoc::prelude::*;
use avoc::serve::{
    ClientConfig, CountersSnapshot, Persistence, ResilientClient, RetryPolicy, ServeClient,
    ServeConfig, SpecRegistry, TcpServer, VoterService,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use sysio::fault::{self, Kind, Plan, Site};

const SESSION: u64 = 7;
const MODULES: u32 = 3;
const TOKEN: u64 = 0xFA17;
const ROUNDS: u64 = 12;

/// Fault plans are process-global: every test in this binary must hold the
/// gate while one is armed, or a concurrently-running daemon would consume
/// (or trip over) another scenario's faults.
fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry() -> Arc<SpecRegistry> {
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    Arc::new(registry)
}

fn start_daemon(state_dir: Option<&Path>, fsync: bool) -> TcpServer {
    let config = ServeConfig {
        persistence: Persistence {
            state_dir: state_dir.map(Path::to_path_buf),
            fsync,
            ..Persistence::default()
        },
        ..ServeConfig::default()
    };
    let service = Arc::new(VoterService::start(config, registry()));
    TcpServer::start("127.0.0.1:0", service).expect("bind daemon")
}

fn client_for(server: &TcpServer) -> ResilientClient {
    ResilientClient::new(
        server.local_addr(),
        ClientConfig::default(),
        RetryPolicy {
            jitter_seed: 13,
            ..RetryPolicy::default()
        },
    )
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avoc-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic readings: tight triads so every round fuses and votes.
fn reading(module: u32, round: u64) -> f64 {
    18.0 + f64::from(module) * 0.1 + (round % 5) as f64 * 0.05
}

/// Feeds `rounds` in lockstep and returns `(round, value bits, voted)` per
/// fused output — bit patterns, because "identical" means identical.
fn run_rounds(client: &mut ResilientClient, rounds: std::ops::Range<u64>) -> Vec<(u64, u64, bool)> {
    let mut out = Vec::new();
    for r in rounds {
        for m in 0..MODULES {
            client
                .send_reading(SESSION, ModuleId::new(m), r, reading(m, r))
                .expect("send reading");
        }
        match client.recv().expect("recv result") {
            avoc::net::Message::SessionResult {
                session,
                round,
                value,
                voted,
            } => {
                assert_eq!(session, SESSION);
                out.push((
                    round,
                    value.expect("voted rounds carry a value").to_bits(),
                    voted,
                ));
            }
            other => panic!("expected a result frame, got {other:?}"),
        }
    }
    out
}

/// The unfaulted reference stream.
fn baseline() -> Vec<(u64, u64, bool)> {
    let server = start_daemon(None, false);
    let mut client = client_for(&server);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open baseline");
    let expected = run_rounds(&mut client, 0..ROUNDS);
    client.close_session(SESSION).expect("close baseline");
    server.shutdown();
    expected
}

/// One matrix entry: a daemon run with `plan` armed. `before_open` arms the
/// plan before the client's first connect (network-site faults need to hit
/// the accept path, and the sidecar is only ever written at creation);
/// otherwise it arms after the session store exists (storage-site faults
/// target steady-state checkpoints, not creation).
struct Scenario {
    tag: &'static str,
    plan: Plan,
    before_open: bool,
    persistent: bool,
    fsync: bool,
}

fn run_scenario(s: Scenario) -> (Vec<(u64, u64, bool)>, CountersSnapshot) {
    let dir = s.persistent.then(|| state_dir(s.tag));
    let server = start_daemon(dir.as_deref(), s.fsync);
    let mut client = client_for(&server);
    if s.before_open {
        fault::install(s.plan.clone());
    }
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open under fault");
    if !s.before_open {
        fault::install(s.plan.clone());
    }
    let got = run_rounds(&mut client, 0..ROUNDS);
    fault::clear();
    client.close_session(SESSION).expect("close under fault");
    let snap = server.service().counters();
    server.shutdown();
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }
    (got, snap)
}

/// EINTR injected at *every* syscall site the daemon owns must be fully
/// absorbed: no checkpoint failures, no degradation, identical stream.
/// (The satellite regression test for the EINTR audit.)
#[test]
fn eintr_on_every_site_has_no_observable_effect() {
    let _g = gate();
    let expected = baseline();
    let all_sites = [
        Site::WalAppend,
        Site::WalFlush,
        Site::WalSync,
        Site::SegmentWrite,
        Site::ManifestWrite,
        Site::Accept,
        Site::EpollWait,
        Site::WakeNotify,
        Site::WakeDrain,
        Site::SockRead,
        Site::SockWrite,
    ];
    let mut plan = Plan::new(0xE1);
    for site in all_sites {
        // Bounded bursts: retry loops absorb each EINTR, so an unbounded
        // rule would livelock the very loop that makes it survivable.
        plan = plan.rule(site, Kind::Eintr, 1, 3);
    }
    let injected_before = fault::injected_total();
    let (got, snap) = run_scenario(Scenario {
        tag: "eintr-storm",
        plan,
        before_open: true,
        persistent: true,
        fsync: true,
    });
    assert_eq!(got, expected, "EINTR must be invisible");
    assert_eq!(snap.checkpoint_failures, 0, "EINTR is retried, not failed");
    assert_eq!(snap.degraded_entered, 0);
    assert!(
        fault::injected_total() > injected_before,
        "the storm actually fired"
    );
}

/// Persistent write failures on each durable-write site push the session
/// into degraded (memory-only) mode; the served stream must not notice.
#[test]
fn persistent_disk_faults_degrade_but_never_diverge() {
    let _g = gate();
    let expected = baseline();
    let cases: Vec<(&'static str, Site, Kind, bool)> = vec![
        ("wal-enospc", Site::WalAppend, Kind::Enospc, false),
        ("flush-enospc", Site::WalFlush, Kind::Enospc, false),
        ("sync-enospc", Site::WalSync, Kind::Enospc, true),
    ];
    for (tag, site, kind, fsync) in cases {
        let (got, snap) = run_scenario(Scenario {
            tag,
            plan: Plan::new(0xD15C).rule(site, kind, 1, u64::MAX),
            before_open: false,
            persistent: true,
            fsync,
        });
        assert_eq!(got, expected, "{tag}: stream must stay bit-identical");
        assert!(
            snap.checkpoint_failures >= 3,
            "{tag}: failures counted (got {})",
            snap.checkpoint_failures
        );
        assert!(
            snap.degraded_entered >= 1,
            "{tag}: the session entered memory-only mode"
        );
        assert!(snap.fault_injected > 0, "{tag}: injector fired");
    }
    // A session's log lands whole, head first, when the session is created.
    // If that landing fails the session never becomes durable: it serves
    // memory-only from its first round, and the stream must not notice
    // that either.
    let (got, snap) = run_scenario(Scenario {
        tag: "meta-enospc",
        plan: Plan::new(0xD15C).rule(Site::WalAppend, Kind::Enospc, 1, u64::MAX),
        before_open: true,
        persistent: true,
        fsync: false,
    });
    assert_eq!(got, expected, "meta-enospc: stream must stay bit-identical");
    assert!(snap.checkpoint_failures >= 1, "the failed creation counted");
    assert_eq!(snap.checkpoint_bytes, 0, "nothing durable was ever written");
    assert!(snap.fault_injected > 0, "meta-enospc: injector fired");
}

/// A migration import writes the shipped log through the same injectable
/// facade as every other durable write: a blob that does not scan clean and
/// a disk that refuses the write are both answered with an error frame and
/// leave nothing behind, EINTR and short writes on the landing are
/// invisible, and the stream continues bit-identical on the target.
#[test]
fn import_write_faults_are_refused_cleanly_or_absorbed() {
    const SECRET: u64 = 0x5EC2E7;
    let _g = gate();
    let expected = baseline();
    let start_node = |node_id: u64, dir: &Path| {
        let config = ServeConfig {
            persistence: Persistence {
                state_dir: Some(dir.to_path_buf()),
                node_id,
                cluster_secret: Some(SECRET),
                ..Persistence::default()
            },
            ..ServeConfig::default()
        };
        let service = Arc::new(VoterService::start(config, registry()));
        TcpServer::start("127.0.0.1:0", service).expect("bind daemon")
    };
    let (dir1, dir2) = (state_dir("import-src"), state_dir("import-dst"));
    let (node1, node2) = (start_node(1, &dir1), start_node(2, &dir2));
    let mut client = client_for(&node1);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let mut got = run_rounds(&mut client, 0..6);

    let config = ClientConfig::default();
    let mut src = ServeClient::connect_with(node1.local_addr(), &config).expect("dial source");
    src.send(&Message::ExportSession {
        session: SESSION,
        target_node: 2,
        epoch: 1,
        auth: SECRET,
        target_addr: node2.local_addr().to_string(),
    })
    .expect("ask export");
    let (meta, wal) = loop {
        match src.recv().expect("recv shipped state") {
            Message::SessionState { meta, wal, .. } => break (meta, wal),
            Message::Error { message, .. } => panic!("export refused: {message}"),
            _ => {}
        }
    };

    // One import attempt: the target's answer, `Err` carrying the refusal.
    let import = |wal: &[u8]| -> Result<Option<u64>, String> {
        let mut tgt = ServeClient::connect_with(node2.local_addr(), &config).expect("dial target");
        tgt.send(&Message::SessionState {
            session: SESSION,
            epoch: 1,
            auth: SECRET,
            meta: meta.clone(),
            wal: wal.to_vec(),
        })
        .expect("send import");
        loop {
            match tgt.recv().expect("recv import answer") {
                Message::Resumed {
                    high_round, warm, ..
                } => {
                    assert!(warm, "an import lands warm");
                    return Ok(high_round);
                }
                Message::Error { message, .. } => return Err(message),
                _ => {}
            }
        }
    };
    let session_files = || {
        std::fs::read_dir(&dir2)
            .expect("target state dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("session-"))
            .count()
    };

    let refusal = import(&wal[..wal.len() - 1]).expect_err("a torn blob is refused");
    assert!(refusal.contains("truncated"), "got: {refusal}");
    assert_eq!(session_files(), 0, "a refused blob touches nothing");

    fault::install(Plan::new(0x1A9).rule(Site::WalAppend, Kind::Enospc, 1, u64::MAX));
    let refusal = import(&wal).expect_err("a full disk refuses the import");
    fault::clear();
    assert!(
        refusal.contains("import failed writing state"),
        "got: {refusal}"
    );
    assert_eq!(session_files(), 0, "a failed landing leaves nothing behind");

    // Calls 1-3 interrupt the create, 5-8 truncate the write that follows.
    fault::install(
        Plan::new(0x1AA)
            .rule(Site::WalAppend, Kind::Eintr, 1, 3)
            .rule(Site::WalAppend, Kind::ShortWrite, 5, 4),
    );
    let injected_before = fault::injected_total();
    let landed = import(&wal);
    fault::clear();
    assert_eq!(landed, Ok(Some(5)), "retryable faults never fail a landing");
    assert_eq!(
        fault::injected_total() - injected_before,
        7,
        "all of them fired"
    );
    assert_eq!(node2.service().counters().sessions_imported, 1);

    client.redirect(node2.local_addr());
    got.extend(run_rounds(&mut client, 6..ROUNDS));
    assert_eq!(got, expected, "stream bit-identical across the import");
    client.close_session(SESSION).expect("close");
    node1.shutdown();
    node2.shutdown();
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Short writes on the WAL are not failures at all: `fio::write_all`
/// resumes the truncated write, so every byte still lands and nothing
/// degrades — even when every single append is truncated.
#[test]
fn short_writes_on_the_wal_are_resumed_not_failed() {
    let _g = gate();
    let expected = baseline();
    let (got, snap) = run_scenario(Scenario {
        tag: "wal-short",
        plan: Plan::new(0x5807).rule(Site::WalAppend, Kind::ShortWrite, 1, u64::MAX),
        before_open: false,
        persistent: true,
        fsync: false,
    });
    assert_eq!(got, expected);
    assert_eq!(snap.checkpoint_failures, 0, "short writes are resumed");
    assert_eq!(snap.degraded_entered, 0);
    assert!(snap.fault_injected > 0, "truncations actually happened");
}

/// EMFILE on accept pauses admission (counted, health-flagged) and resumes
/// off the probe timer; the queued handshake completes and the stream is
/// untouched.
#[test]
fn emfile_on_accept_pauses_and_recovers() {
    let _g = gate();
    let expected = baseline();
    let (got, snap) = run_scenario(Scenario {
        tag: "accept-emfile",
        plan: Plan::new(0xF17E).rule(Site::Accept, Kind::Emfile, 1, 1),
        before_open: true,
        persistent: false,
        fsync: false,
    });
    assert_eq!(got, expected);
    assert!(snap.accept_pauses >= 1, "the pause was counted");
    assert_eq!(snap.connections_accepted, 1, "the handshake still landed");
}

/// Spurious poller and wake-pipe faults (EINTR/EAGAIN wakeups) are treated
/// as empty readiness reports, never as errors.
#[test]
fn spurious_poller_wakeups_are_absorbed() {
    let _g = gate();
    let expected = baseline();
    let (got, snap) = run_scenario(Scenario {
        tag: "poller-spurious",
        plan: Plan::new(0x90)
            .rule(Site::EpollWait, Kind::Eintr, 1, 10)
            .rule(Site::EpollWait, Kind::Eagain, 20, 10)
            .rule(Site::WakeNotify, Kind::Eintr, 1, 8)
            .rule(Site::WakeDrain, Kind::Eintr, 1, 8),
        before_open: true,
        persistent: false,
        fsync: false,
    });
    assert_eq!(got, expected);
    assert_eq!(snap.checkpoint_failures, 0);
}

/// Socket-level EAGAIN bursts (reads reported ready that aren't, writes
/// that would block) ride the level-triggered retry machinery.
#[test]
fn socket_eagain_bursts_retry_cleanly() {
    let _g = gate();
    let expected = baseline();
    let (got, _snap) = run_scenario(Scenario {
        tag: "sock-eagain",
        plan: Plan::new(0x50C)
            .rule(Site::SockRead, Kind::Eagain, 2, 5)
            .rule(Site::SockWrite, Kind::Eagain, 2, 3),
        before_open: true,
        persistent: false,
        fsync: false,
    });
    assert_eq!(got, expected);
}

/// ENOSPC during a compaction fold (segment or manifest write) fails the
/// pass without losing anything: the WAL keeps the data, the next healthy
/// pass converges, and a restarted daemon resumes the stream bit-identical.
#[test]
fn compaction_enospc_keeps_the_wal_and_the_stream() {
    let _g = gate();
    let expected = baseline();
    for (tag, site) in [
        ("segment-enospc", Site::SegmentWrite),
        ("manifest-enospc", Site::ManifestWrite),
    ] {
        let dir = state_dir(tag);
        let server_a = start_daemon(Some(&dir), false);
        let mut client = client_for(&server_a);
        client
            .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
            .expect("open");
        let mut got = run_rounds(&mut client, 0..6);
        server_a.abort(); // cold WAL: the next pass wants to fold it

        let server_b = start_daemon(Some(&dir), false);
        fault::install(Plan::new(0x5E6).rule(site, Kind::Enospc, 1, u64::MAX));
        assert!(
            server_b.service().compact_now().is_none(),
            "{tag}: the faulted pass must report failure, not invent a report"
        );
        fault::clear();
        let report = server_b
            .service()
            .compact_now()
            .expect("healed pass succeeds");
        assert!(report.wals_retired >= 1, "{tag}: the WAL survived to fold");

        client.redirect(server_b.local_addr());
        got.extend(run_rounds(&mut client, 6..ROUNDS));
        assert_eq!(
            got, expected,
            "{tag}: stream bit-identical across the fault"
        );
        client.close_session(SESSION).expect("close");
        server_b.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
