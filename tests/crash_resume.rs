//! Crash-safety end to end: kill a persistent daemon mid-scenario, restart
//! it on a fresh port over the same state directory, and prove the client's
//! resumed stream of fused outputs is bit-identical to an uninterrupted
//! run. Also: eager boot-time recovery, and graceful degradation when the
//! checkpoint is corrupt or persistence is off (the paper's cold bootstrap
//! becomes the fallback, never an error).

use avoc::net::{Message, SpecSource};
use avoc::prelude::*;
use avoc::serve::{
    ClientConfig, Persistence, ResilientClient, RetryPolicy, ServeClient, ServeConfig,
    SpecRegistry, TcpServer, VoterService,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SESSION: u64 = 7;
const MODULES: u32 = 3;
const TOKEN: u64 = 0xC0FFEE;

/// Serializes the tests in this binary: the disk-full scenario arms a
/// process-wide fault plan, which a concurrently-running daemon in a
/// sibling test would otherwise trip over.
fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry() -> Arc<SpecRegistry> {
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    Arc::new(registry)
}

fn start_daemon(state_dir: Option<&Path>) -> TcpServer {
    let config = ServeConfig {
        persistence: Persistence {
            state_dir: state_dir.map(Path::to_path_buf),
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
            jitter_seed: 11,
            ..RetryPolicy::default()
        },
    )
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avoc-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Shard commands are processed asynchronously; poll until the observable
/// effect lands (or fail after a generous deadline).
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting: {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Deterministic in-band readings: tight triads around 18 so every round
/// fuses and votes without ever needing the (unpersisted) fallback value.
fn reading(module: u32, round: u64) -> f64 {
    18.0 + f64::from(module) * 0.1 + (round % 5) as f64 * 0.05
}

fn feed_round(client: &mut ResilientClient, round: u64) {
    for m in 0..MODULES {
        client
            .send_reading(SESSION, ModuleId::new(m), round, reading(m, round))
            .expect("send reading");
    }
}

/// Feeds `rounds` in lockstep (send a full round, receive its result) and
/// returns the fused outputs as `(round, value bits, voted)`.
fn run_rounds(
    client: &mut ResilientClient,
    rounds: std::ops::Range<u64>,
) -> Vec<(u64, Option<u64>, bool)> {
    let mut out = Vec::new();
    for r in rounds {
        feed_round(client, r);
        out.push(expect_result(client));
    }
    out
}

fn expect_result(client: &mut ResilientClient) -> (u64, Option<u64>, bool) {
    match client.recv().expect("recv result") {
        Message::SessionResult {
            session,
            round,
            value,
            voted,
        } => {
            assert_eq!(session, SESSION);
            // Compare bit patterns: "identical" means identical.
            (round, value.map(f64::to_bits), voted)
        }
        other => panic!("expected a result frame, got {other:?}"),
    }
}

/// The headline acceptance test: a hard kill mid-scenario — even mid-round —
/// followed by a restart on a different port resumes the session warm and
/// produces exactly the outputs of an uninterrupted run.
#[test]
fn restart_mid_scenario_is_bit_identical_to_an_uninterrupted_run() {
    let _g = gate();
    // Uninterrupted reference run, persistence off.
    let baseline_server = start_daemon(None);
    let mut baseline = client_for(&baseline_server);
    baseline
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let expected = run_rounds(&mut baseline, 0..12);
    baseline.close_session(SESSION).expect("close");
    baseline_server.shutdown();

    // Crash run: same readings, but the daemon dies mid-round-5.
    let dir = state_dir("bitident");
    let server_a = start_daemon(Some(&dir));
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let mut got = run_rounds(&mut client, 0..5);
    // Two of round 5's three readings make it out before the crash.
    for m in 0..2 {
        client
            .send_reading(SESSION, ModuleId::new(m), 5, reading(m, 5))
            .expect("send reading");
    }
    server_a.abort(); // hard kill: no flush, state = last checkpoint

    let server_b = start_daemon(Some(&dir));
    client.redirect(server_b.local_addr());
    // The missing third reading triggers reconnect + checkpoint restore +
    // replay of the two unacked readings, completing round 5.
    client
        .send_reading(SESSION, ModuleId::new(2), 5, reading(2, 5))
        .expect("send reading");
    got.push(expect_result(&mut client));
    got.extend(run_rounds(&mut client, 6..12));

    assert_eq!(got, expected, "resumed outputs must be bit-identical");
    assert_eq!(
        client.last_resume(SESSION),
        Some((Some(4), true)),
        "the restore must be warm with the pre-crash fused frontier"
    );
    assert!(client.stats().reconnects >= 1);

    let counters = server_b.service().counters();
    assert_eq!(counters.recoveries, 1, "one session rebuilt from its WAL");
    assert_eq!(counters.resumed_sessions, 1);
    assert!(
        counters.retries >= 1,
        "the client's resume frame is counted"
    );
    assert!(counters.checkpoint_bytes > 0);

    client.close_session(SESSION).expect("close");
    wait_until("close releases the session slot", || {
        server_b.service().active_sessions() == 0
    });
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boot-time recovery: a restarted daemon rebuilds checkpointed sessions
/// before any client shows up, and a returning client then re-attaches to
/// the live (already warm) session.
#[test]
fn eager_recovery_rebuilds_sessions_at_boot() {
    let _g = gate();
    let dir = state_dir("eager");
    let server_a = start_daemon(Some(&dir));
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let first = run_rounds(&mut client, 0..4);
    server_a.abort();

    let server_b = start_daemon(Some(&dir));
    let (sink, _results) = crossbeam::channel::unbounded();
    let recovered = server_b.service().recover_sessions(sink);
    assert_eq!(recovered, 1);
    // Recovery commands are processed asynchronously by the shards.
    wait_until("eager recovery installs the session", || {
        server_b.service().active_sessions() == 1
    });
    let counters = server_b.service().counters();
    assert_eq!(counters.recoveries, 1);
    assert_eq!(
        counters.resumed_sessions, 0,
        "daemon-internal recovery is not a client resume"
    );

    client.redirect(server_b.local_addr());
    let rest = run_rounds(&mut client, 4..8);
    assert_eq!(
        client.last_resume(SESSION),
        Some((Some(3), true)),
        "re-attach to the eagerly recovered session must be warm"
    );
    assert_eq!(first.len() + rest.len(), 8);
    let rounds: Vec<u64> = first.iter().chain(&rest).map(|r| r.0).collect();
    assert_eq!(rounds, (0..8).collect::<Vec<_>>());

    client.close_session(SESSION).expect("close");
    wait_until("close releases the session slot", || {
        server_b.service().active_sessions() == 0
    });
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hard kill *during compaction*, at both commit-protocol crash points: a
/// fold that dies after writing its segment (but before the manifest) and
/// one that dies after the manifest (but before retiring the WAL) must both
/// leave a state from which the restarted daemon resumes a stream
/// bit-identical to an uninterrupted run — no round lost to the orphan
/// segment, none duplicated by the WAL/segment overlap.
#[test]
fn kill_mid_compaction_resumes_bit_identical() {
    let _g = gate();
    use avoc::store::{CrashPoint, TieredStore};

    let baseline_server = start_daemon(None);
    let mut baseline = client_for(&baseline_server);
    baseline
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let expected = run_rounds(&mut baseline, 0..12);
    baseline.close_session(SESSION).expect("close");
    baseline_server.shutdown();

    let dir = state_dir("midcompact");
    let server_a = start_daemon(Some(&dir));
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let mut got = run_rounds(&mut client, 0..5);
    server_a.abort();

    // Compaction crashes after the segment file lands but before the
    // manifest commits — the segment is an orphan the next open must sweep.
    {
        let tier = TieredStore::open(&dir).expect("open tier");
        let err = tier
            .fold_session_with(SESSION, CrashPoint::AfterSegmentWrite)
            .expect_err("the injected crash point must fire");
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    }
    let server_b = start_daemon(Some(&dir));
    client.redirect(server_b.local_addr());
    got.extend(run_rounds(&mut client, 5..9));
    server_b.abort();

    // Second crash flavour: the manifest commits but the WAL survives, so
    // the two tiers overlap and the resume must deduplicate by round.
    {
        let tier = TieredStore::open(&dir).expect("open tier");
        let err = tier
            .fold_session_with(SESSION, CrashPoint::AfterManifest)
            .expect_err("the injected crash point must fire");
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    }
    let server_c = start_daemon(Some(&dir));
    // Let the recovered tier finish the interrupted job before resuming.
    let report = server_c.service().compact_now().expect("tier is on");
    assert_eq!(
        report.segments_written, 0,
        "the committed segment already holds every folded round"
    );
    assert_eq!(report.wals_retired, 1, "re-compaction just retires the WAL");
    client.redirect(server_c.local_addr());
    got.extend(run_rounds(&mut client, 9..12));

    assert_eq!(
        got, expected,
        "streams across two mid-compaction crashes must be bit-identical"
    );
    let counters = server_c.service().counters();
    assert_eq!(counters.recoveries, 1);
    assert!(
        counters.segment_load_ns > 0,
        "the final resume is served from segments"
    );

    client.close_session(SESSION).expect("close");
    server_c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt checkpoint is not an outage: resume falls back to a fresh
/// session (the paper's AVOC bootstrap), reported as `warm: false`, with no
/// error frames and no recovery counted.
#[test]
fn corrupt_checkpoint_falls_back_to_fresh_bootstrap() {
    let _g = gate();
    let dir = state_dir("corrupt");
    let server_a = start_daemon(Some(&dir));
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    run_rounds(&mut client, 0..3);
    server_a.abort();

    // Stomp every checkpoint artefact in the state dir.
    for entry in std::fs::read_dir(&dir).expect("state dir exists") {
        let path = entry.expect("dir entry").path();
        std::fs::write(&path, b"\x00garbage\xff not a checkpoint").expect("corrupt file");
    }

    let server_b = start_daemon(Some(&dir));
    client.redirect(server_b.local_addr());
    let resumed = run_rounds(&mut client, 3..6);
    assert_eq!(resumed.len(), 3);
    assert_eq!(
        resumed.iter().map(|r| r.0).collect::<Vec<_>>(),
        vec![3, 4, 5]
    );
    assert_eq!(
        client.last_resume(SESSION),
        Some((None, false)),
        "a corrupt checkpoint must yield a fresh (cold) session"
    );
    assert_eq!(server_b.service().counters().recoveries, 0);

    client.close_session(SESSION).expect("close");
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk full mid-run is an outage for durability, not for service: the
/// session rides out ENOSPC in degraded (memory-only) mode, heals itself
/// once space returns (fresh compacted WAL + checkpoint), and a hard kill
/// after the heal restarts warm from that checkpoint — with the whole
/// stream, across degradation, recovery and restart, bit-identical to an
/// uninterrupted run.
#[test]
fn disk_full_heals_and_resumes_warm() {
    let _g = gate();
    use sysio::fault::{self, Kind, Plan, Site};

    // Uninterrupted reference, persistence off.
    let baseline_server = start_daemon(None);
    let mut baseline = client_for(&baseline_server);
    baseline
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let expected = run_rounds(&mut baseline, 0..18);
    baseline.close_session(SESSION).expect("close");
    baseline_server.shutdown();

    let dir = state_dir("diskfull");
    let server_a = start_daemon(Some(&dir));
    let service = server_a.service();
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let mut got = run_rounds(&mut client, 0..4);
    assert!(service.health().is_ok(), "healthy while checkpoints land");

    // The disk fills: every WAL append fails from here on.
    fault::install(Plan::new(0xD15C).rule(Site::WalAppend, Kind::Enospc, 1, u64::MAX));
    got.extend(run_rounds(&mut client, 4..8));
    let mid = service.counters();
    assert!(
        mid.checkpoint_failures >= 3,
        "repeated failures were counted (got {})",
        mid.checkpoint_failures
    );
    assert_eq!(mid.degraded_entered, 1, "the session went memory-only once");
    assert_eq!(
        service.health().status_code(),
        503,
        "/healthz must fail while persistence is degraded"
    );

    // The disk heals: the next probe rewrites a fresh WAL and the session
    // silently returns to durable operation.
    fault::clear();
    got.extend(run_rounds(&mut client, 8..16));
    wait_until("the degraded session heals", || {
        service.counters().degraded_sessions == 0
    });
    assert!(service.health().is_ok(), "health recovered with the disk");
    let healed = service.counters();
    assert_eq!(healed.degraded_entered, 1, "no flapping");

    // Hard kill after the heal: the post-recovery checkpoint must be warm.
    server_a.abort();
    let server_b = start_daemon(Some(&dir));
    client.redirect(server_b.local_addr());
    got.extend(run_rounds(&mut client, 16..18));
    assert_eq!(
        got, expected,
        "stream across degradation, heal and restart must be bit-identical"
    );
    assert_eq!(
        client.last_resume(SESSION),
        Some((Some(15), true)),
        "the resume is warm from the healed checkpoint"
    );
    assert_eq!(server_b.service().counters().recoveries, 1);

    client.close_session(SESSION).expect("close");
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One failed append is one lost record, and the records after it are
/// deltas that never repeat what it carried — so nothing more may be
/// appended to that log. The session goes memory-only at the first failure
/// and its next durable write is a whole rewrite. A hard kill after that
/// rewrite resumes a client behind on its acks with every round it missed,
/// the one whose append failed included.
#[test]
fn a_transient_append_failure_leaves_no_gap_in_the_log() {
    let _g = gate();
    use sysio::fault::{self, Kind, Plan, Site};

    let baseline_server = start_daemon(None);
    let mut baseline = client_for(&baseline_server);
    baseline
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let expected = run_rounds(&mut baseline, 0..8);
    baseline.close_session(SESSION).expect("close");
    baseline_server.shutdown();

    let dir = state_dir("transient");
    let server_a = start_daemon(Some(&dir));
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    run_rounds(&mut client, 0..4);
    // Round 4's append fails; the disk is fine again for round 5.
    fault::install(Plan::new(0x7A4).rule(Site::WalAppend, Kind::Enospc, 1, 1));
    run_rounds(&mut client, 4..6);
    fault::clear();
    server_a.abort();

    let server_b = start_daemon(Some(&dir));
    let config = ClientConfig {
        read_timeout: std::time::Duration::from_secs(3),
        ..ClientConfig::default()
    };
    let mut behind = ServeClient::connect_with(server_b.local_addr(), &config).expect("dial");
    behind
        .resume_session(
            SESSION,
            MODULES,
            SpecSource::Named("avoc".into()),
            TOKEN,
            Some(1),
        )
        .expect("resume");
    let (mut resumed, mut replayed) = (None, Vec::new());
    // A replay short of round 5 ends at the read deadline, not in a hang.
    while replayed.len() < 4 {
        match behind.recv() {
            Ok(Message::Resumed {
                high_round, warm, ..
            }) => resumed = Some((high_round, warm)),
            Ok(Message::SessionResult {
                round,
                value,
                voted,
                ..
            }) => replayed.push((round, value.map(f64::to_bits), voted)),
            Ok(Message::ResultBatch { results, .. }) => replayed.extend(
                results
                    .iter()
                    .map(|r| (r.round, r.value.map(f64::to_bits), r.voted)),
            ),
            Ok(other) => panic!("expected the resume ack or a result, got {other:?}"),
            Err(_) => break,
        }
    }
    assert_eq!(resumed, Some((Some(5), true)));
    let rounds: Vec<u64> = replayed.iter().map(|r| r.0).collect();
    assert_eq!(replayed, expected[2..6], "replayed rounds {rounds:?}");
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rewrite that heals a sick log carries the result ring with it — no
/// sidecar holds a copy. Kill the daemon right after the heal, before any
/// later checkpoint could re-log anything, and a client far behind on its
/// acks is still re-sent every round it missed, the ones fused while the
/// disk was full included, bit-identical to an uninterrupted run.
#[test]
fn heal_then_kill_before_the_next_checkpoint_still_replays_the_ring() {
    let _g = gate();
    use sysio::fault::{self, Kind, Plan, Site};

    let baseline_server = start_daemon(None);
    let mut baseline = client_for(&baseline_server);
    baseline
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let expected = run_rounds(&mut baseline, 0..24);
    baseline.close_session(SESSION).expect("close");
    baseline_server.shutdown();

    let dir = state_dir("healkill");
    let server_a = start_daemon(Some(&dir));
    let service = server_a.service();
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    run_rounds(&mut client, 0..4);
    fault::install(Plan::new(0xD15C).rule(Site::WalAppend, Kind::Enospc, 1, u64::MAX));
    run_rounds(&mut client, 4..8);
    assert_eq!(service.counters().degraded_sessions, 1);
    fault::clear();
    // A round's result leaves after its checkpoint, so the gauge is settled
    // by the time the client holds the result: stop at the healing round.
    let mut fused = 8;
    while service.counters().degraded_sessions > 0 {
        run_rounds(&mut client, fused..fused + 1);
        fused += 1;
        assert!(fused < 24, "the session never healed");
    }
    server_a.abort();

    let server_b = start_daemon(Some(&dir));
    let mut behind = ServeClient::connect(server_b.local_addr()).expect("dial");
    behind
        .resume_session(
            SESSION,
            MODULES,
            SpecSource::Named("avoc".into()),
            TOKEN,
            Some(1),
        )
        .expect("resume");
    let mut replayed = Vec::new();
    while replayed.len() < fused as usize - 2 {
        match behind.recv().expect("recv replay") {
            Message::Resumed {
                high_round, warm, ..
            } => assert_eq!((high_round, warm), (Some(fused - 1), true)),
            Message::SessionResult {
                round,
                value,
                voted,
                ..
            } => replayed.push((round, value.map(f64::to_bits), voted)),
            Message::ResultBatch { results, .. } => replayed.extend(
                results
                    .iter()
                    .map(|r| (r.round, r.value.map(f64::to_bits), r.voted)),
            ),
            other => panic!("expected the resume ack or a result, got {other:?}"),
        }
    }
    assert_eq!(replayed, expected[2..fused as usize]);
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
