//! The tiered history store, end to end through a real daemon: WALs a live
//! service wrote fold into columnar segments without changing a single bit
//! of what time-travel reads reconstruct, a cold resume served from
//! segments alone produces the same wire stream a WAL replay (or an
//! uninterrupted run) would, and the fleet-level "who was outvoted" scan
//! finds the deviant module from the segment direction column.

use avoc::core::history::HistoryStore;
use avoc::net::{Message, SpecSource};
use avoc::prelude::*;
use avoc::serve::{
    ClientConfig, Persistence, ResilientClient, RetryPolicy, ServeClient, ServeConfig,
    SpecRegistry, TcpServer, VoterService,
};
use avoc::store::TieredStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SESSION: u64 = 0x51;
const MODULES: u32 = 3;
const TOKEN: u64 = 0xBEEF;

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
            jitter_seed: 23,
            ..RetryPolicy::default()
        },
    )
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avoc-tier-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic readings with one intermittent deviant: modules 0 and 1
/// agree tightly around 18 every round; module 2 agrees on even rounds but
/// reports a far-off value on odd ones — so its trust record oscillates,
/// falling (a `Down` direction row) exactly on the rounds it is outvoted.
/// (A *constant* deviant would be zeroed once by the clustering bootstrap
/// and never change again — no movement for the direction column to see.)
fn reading(module: u32, round: u64) -> f64 {
    if module == MODULES - 1 && round % 2 == 1 {
        30.0 + (round % 3) as f64
    } else {
        18.0 + f64::from(module) * 0.1 + (round % 5) as f64 * 0.05
    }
}

fn run_rounds(
    client: &mut ResilientClient,
    rounds: std::ops::Range<u64>,
) -> Vec<(u64, Option<u64>, bool)> {
    let mut out = Vec::new();
    for r in rounds {
        for m in 0..MODULES {
            client
                .send_reading(SESSION, ModuleId::new(m), r, reading(m, r))
                .expect("send reading");
        }
        match client.recv().expect("recv result") {
            Message::SessionResult {
                session,
                round,
                value,
                voted,
            } => {
                assert_eq!(session, SESSION);
                out.push((round, value.map(f64::to_bits), voted));
            }
            other => panic!("expected a result frame, got {other:?}"),
        }
    }
    out
}

fn snapshot_bits(store: &TieredStore, round: u64) -> Vec<(u32, u64)> {
    store
        .history_at(SESSION, round)
        .expect("history_at reads")
        .expect("round is on record")
        .snapshot()
        .into_iter()
        .map(|(m, v)| (m.index(), v.to_bits()))
        .collect()
}

/// Time travel is stable across the tier boundary: `history_at` answers
/// bit-identically whether the round lives in the WAL a live daemon wrote
/// (checkpoint-per-round) or in the segment a fold moved it to — and the
/// segment verdict column carries exactly the values the client received
/// over the wire.
#[test]
fn compaction_preserves_every_rounds_history_bit_for_bit() {
    const ROUNDS: u64 = 10;
    let dir = state_dir("timetravel");
    let server = start_daemon(Some(&dir));
    let mut client = client_for(&server);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let wire = run_rounds(&mut client, 0..ROUNDS);
    server.abort(); // leave the WAL exactly as checkpointed

    let store = TieredStore::open(&dir).expect("open tier");
    // Pin every round's reconstruction while it still lives in the WAL...
    let before: Vec<Vec<(u32, u64)>> = (0..ROUNDS).map(|r| snapshot_bits(&store, r)).collect();
    let report = store.compact().expect("compact");
    assert_eq!(report.folded_sessions, 1);
    assert_eq!(report.wals_retired, 1, "a committed WAL folds completely");
    // ...and demand the identical answer from the segment tier.
    let after: Vec<Vec<(u32, u64)>> = (0..ROUNDS).map(|r| snapshot_bits(&store, r)).collect();
    assert_eq!(before, after, "history_at must not notice the fold");
    assert!(before.iter().all(|s| !s.is_empty()));

    // The folded verdict column is the wire stream, bit for bit.
    let verdicts = store.verdicts_in(SESSION, 0..=ROUNDS - 1).expect("scan");
    let folded: Vec<(u64, Option<u64>, bool)> = verdicts
        .iter()
        .map(|v| (v.round, v.value.map(f64::to_bits), v.voted))
        .collect();
    assert_eq!(folded, wire);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline resume race: after a fold retires the WAL, a restarted
/// daemon rebuilds the session from segments alone — same bits on the wire
/// as an uninterrupted run — and the resume cost lands on the
/// `segment_load_ns` side of the metric split, not `wal_replay_ns`.
#[test]
fn segment_cold_resume_is_bit_identical_and_metered() {
    // Uninterrupted reference.
    let baseline_server = start_daemon(None);
    let mut baseline = client_for(&baseline_server);
    baseline
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let expected = run_rounds(&mut baseline, 0..12);
    baseline.close_session(SESSION).expect("close");
    baseline_server.shutdown();

    let dir = state_dir("coldresume");
    let server_a = start_daemon(Some(&dir));
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let mut got = run_rounds(&mut client, 0..6);
    server_a.abort();

    // The restarted daemon compacts the cold WAL away before the client
    // returns (exactly what the background compactor does between resumes).
    let server_b = start_daemon(Some(&dir));
    let report = server_b
        .service()
        .compact_now()
        .expect("tier is on when persistence is on");
    assert_eq!(report.wals_retired, 1, "the cold WAL must fold completely");
    let log = avoc::store::FileHistory::open(avoc::store::session_wal_path(&dir, SESSION));
    let committed = log.expect("the head-only log opens").committed_round();
    assert_eq!(committed, None, "the log holds no commit");

    client.redirect(server_b.local_addr());
    got.extend(run_rounds(&mut client, 6..12));
    assert_eq!(got, expected, "segment resume must be bit-identical");
    assert_eq!(
        client.last_resume(SESSION),
        Some((Some(5), true)),
        "the segment restore must be warm"
    );

    let counters = server_b.service().counters();
    assert_eq!(counters.recoveries, 1);
    assert!(
        counters.segment_load_ns > 0,
        "the resume must be attributed to the segment tier"
    );
    assert_eq!(
        counters.wal_replay_ns, 0,
        "no WAL was replayed for this resume"
    );
    assert_eq!(counters.compactions, 1);
    assert!(counters.segment_rounds_folded > 0);
    assert!(counters.segment_bytes_written > 0);
    let segments = server_b.service().segments_json();
    assert!(segments.contains("\"segments\""), "got: {segments}");

    client.close_session(SESSION).expect("close");
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// No sidecar repeats the result ring or the round stamp: recovery derives
/// both from the durable rows. After a fold retires the WAL, a daemon that
/// holds nothing but segments still re-emits, to a client ten rounds behind
/// on its acks, exactly the ten results an uninterrupted run produced.
#[test]
fn ring_and_round_are_recovered_from_segments_alone() {
    const ROUNDS: u64 = 16;
    const BEHIND: u64 = 10;
    let baseline_server = start_daemon(None);
    let mut baseline = client_for(&baseline_server);
    baseline
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    let expected = run_rounds(&mut baseline, 0..ROUNDS);
    baseline.close_session(SESSION).expect("close");
    baseline_server.shutdown();

    let dir = state_dir("ringresume");
    let server_a = start_daemon(Some(&dir));
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    run_rounds(&mut client, 0..ROUNDS);
    server_a.abort();

    let server_b = start_daemon(Some(&dir));
    let report = server_b.service().compact_now().expect("tier is on");
    assert_eq!(report.wals_retired, 1, "the cold WAL must fold completely");
    let log = avoc::store::FileHistory::open(avoc::store::session_wal_path(&dir, SESSION));
    let committed = log.expect("the head-only log opens").committed_round();
    assert_eq!(committed, None, "the log holds no commit");

    let mut behind = ServeClient::connect(server_b.local_addr()).expect("dial");
    let last_acked = ROUNDS - 1 - BEHIND;
    behind
        .resume_session(
            SESSION,
            MODULES,
            SpecSource::Named("avoc".into()),
            TOKEN,
            Some(last_acked),
        )
        .expect("resume");
    let mut replayed = Vec::new();
    while replayed.len() < BEHIND as usize {
        match behind.recv().expect("recv replay") {
            Message::Resumed {
                high_round, warm, ..
            } => assert_eq!((high_round, warm), (Some(ROUNDS - 1), true)),
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
    assert_eq!(replayed, expected[last_acked as usize + 1..]);
    let counters = server_b.service().counters();
    assert!(counters.segment_load_ns > 0 && counters.wal_replay_ns == 0);

    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state directory whose tier will not open may hold folded history the
/// daemon cannot read, so it must not claim a warm resume it cannot back:
/// every session runs memory-only, `/healthz` fails, and a returning client
/// is resumed cold (or, were its history readable, at its true round).
#[test]
fn an_unopenable_tier_never_resumes_a_folded_session_warm() {
    let dir = state_dir("unopenable");
    let server_a = start_daemon(Some(&dir));
    let mut client = client_for(&server_a);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    run_rounds(&mut client, 0..6);
    server_a.abort();
    let server_b = start_daemon(Some(&dir));
    let report = server_b.service().compact_now().expect("tier is on");
    assert_eq!(report.wals_retired, 1, "the session folds completely");
    server_b.shutdown();

    let manifest = dir.join("MANIFEST");
    std::fs::remove_file(&manifest).expect("the fold landed a manifest");
    std::fs::create_dir(&manifest).expect("a directory in its place");
    assert!(TieredStore::open(&dir).is_err(), "the tier will not open");

    let server_c = start_daemon(Some(&dir));
    assert_eq!(
        server_c.service().health().status_code(),
        503,
        "/healthz must fail while the state directory will not open"
    );
    let config = ClientConfig {
        read_timeout: std::time::Duration::from_secs(3),
        ..ClientConfig::default()
    };
    let mut resumer = ServeClient::connect_with(server_c.local_addr(), &config).expect("dial");
    resumer
        .resume_session(
            SESSION,
            MODULES,
            SpecSource::Named("avoc".into()),
            TOKEN,
            Some(5),
        )
        .expect("resume");
    match resumer.recv().expect("resume ack") {
        Message::Resumed {
            high_round, warm, ..
        } => assert!(
            !warm || high_round == Some(5),
            "a warm resume must carry the folded round, got ({high_round:?}, {warm})"
        ),
        other => panic!("expected the resume ack, got {other:?}"),
    }
    server_c.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The new fleet-level query: scanning the segment direction column for a
/// round range names the module whose trust the votes pushed down — the
/// persistent deviant — without replaying anyone's history.
#[test]
fn outvoted_scan_names_the_deviant_module() {
    const ROUNDS: u64 = 8;
    let dir = state_dir("outvoted");
    let server = start_daemon(Some(&dir));
    let mut client = client_for(&server);
    client
        .open_session(SESSION, MODULES, SpecSource::Named("avoc".into()), TOKEN)
        .expect("open");
    run_rounds(&mut client, 0..ROUNDS);
    server.abort();

    let store = TieredStore::open(&dir).expect("open tier");
    store.compact().expect("compact");
    let rows = store.outvoted_in(0..=ROUNDS - 1).expect("scan");
    assert!(
        rows.iter().any(|r| r.module == MODULES - 1),
        "the deviant module must show up outvoted, got {rows:?}"
    );
    for row in &rows {
        assert_eq!(row.session, SESSION);
        assert!(row.round < ROUNDS);
    }
    // The deviant is outvoted more often than any honest module.
    let deviant = rows.iter().filter(|r| r.module == MODULES - 1).count();
    for m in 0..MODULES - 1 {
        let honest = rows.iter().filter(|r| r.module == m).count();
        assert!(
            deviant > honest,
            "module {m} outvoted {honest}x vs deviant {deviant}x: {rows:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
