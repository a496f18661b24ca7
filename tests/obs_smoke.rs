//! Observability smoke tests: a real daemon with the admin endpoint bound
//! and pipeline tracing on, driven over loopback TCP and scraped over
//! plain HTTP — the same surface `benchmark/`'s scraper and the CI
//! `obs-smoke` step exercise.

use avoc::core::ModuleId;
use avoc::net::{BatchReading, Message, SpecSource};
use avoc::obs::http;
use avoc::serve::{
    ClientConfig, Persistence, ResilientClient, RetryPolicy, ServeClient, ServeConfig,
    SpecRegistry, TcpServer, VoterService,
};
use avoc::vdx::VdxSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use sysio::fault::{self, Kind, Plan, Site};

const SESSIONS: u64 = 4;
const ROUNDS: u64 = 32;
const MODULES: u32 = 3;

/// Starts a daemon with the admin endpoint on an ephemeral port and every
/// round traced (`trace_sample: 1`), so a short replay reliably leaves
/// spans in the ring.
fn start_daemon() -> (TcpServer, SocketAddr, SocketAddr) {
    start_daemon_over(None, 0)
}

/// As [`start_daemon`], persisting sessions under `state_dir` when given,
/// with `threads` shards and as many reactors (`0`: the defaults).
fn start_daemon_over(
    state_dir: Option<&Path>,
    threads: usize,
) -> (TcpServer, SocketAddr, SocketAddr) {
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    let service = Arc::new(VoterService::start(
        ServeConfig {
            idle_ticks: u64::MAX,
            shards: threads,
            reactors: threads,
            admin_addr: Some("127.0.0.1:0".into()),
            trace_sample: 1,
            persistence: Persistence {
                state_dir: state_dir.map(Path::to_path_buf),
                ..Persistence::default()
            },
            ..ServeConfig::default()
        },
        Arc::new(registry),
    ));
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind wire port");
    let wire = server.local_addr();
    let admin = server.admin_addr().expect("admin endpoint configured");
    (server, wire, admin)
}

/// Opens `SESSIONS` tenants on one connection and fuses `ROUNDS` rounds
/// in each, draining every verdict.
fn replay(client: &mut ServeClient) {
    for session in 0..SESSIONS {
        client
            .open_session(session, MODULES, SpecSource::Named("avoc".into()))
            .expect("open_session");
    }
    let mut batch = vec![
        BatchReading {
            module: ModuleId::new(0),
            round: 0,
            value: 0.0,
        };
        MODULES as usize
    ];
    for round in 0..ROUNDS {
        for session in 0..SESSIONS {
            for (m, slot) in batch.iter_mut().enumerate() {
                slot.module = ModuleId::new(m as u32);
                slot.round = round;
                slot.value = 20.0 + 0.01 * m as f64;
            }
            client.send_batch(session, &batch).expect("send_batch");
        }
    }
    let mut verdicts = 0;
    while verdicts < SESSIONS * ROUNDS {
        match client.recv().expect("recv") {
            Message::SessionResult { .. } => verdicts += 1,
            Message::Error { message, .. } => panic!("daemon error: {message}"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

#[test]
fn admin_endpoint_serves_metrics_sessions_and_traces() {
    let (server, wire, admin) = start_daemon();
    let admin_str = admin.to_string();

    let (status, body) = http::get(&admin_str, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let mut client = ServeClient::connect(wire).expect("connect");
    replay(&mut client);
    let fused = SESSIONS * ROUNDS;

    // Prometheus text exposition: counters moved, and the global fuse
    // histogram is non-empty with one observation per fused round.
    let (status, text) = http::get(&admin_str, "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert!(text.contains(&format!("avoc_rounds_fused_total {fused}")));
    assert!(text.contains(&format!("avoc_fuse_latency_ns_count {fused}")));
    assert!(text.contains("avoc_fuse_latency_ns_bucket{le=\"+Inf\"}"));

    // JSON exposition: the same cells as one document.
    let (status, json) = http::get(&admin_str, "/metrics?format=json").expect("metrics json");
    assert_eq!(status, 200);
    let doc: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let fuse_count = &doc["histograms"]["avoc_fuse_latency_ns"]["count"];
    assert_eq!(fuse_count.as_u64(), Some(fused));

    // The live session directory knows every tenant, its shard pin and its
    // own rounds, which sum to the rounds fused.
    let (status, sessions) = http::get(&admin_str, "/sessions").expect("sessions");
    assert_eq!(status, 200);
    let dir: serde_json::Value = serde_json::from_str(&sessions).expect("valid JSON");
    let per_session: Vec<u64> = dir
        .as_array()
        .expect("sessions array")
        .iter()
        .map(|entry| entry["rounds_fused"].as_u64().expect("rounds_fused"))
        .collect();
    assert_eq!(per_session, vec![ROUNDS; SESSIONS as usize]);
    assert_eq!(per_session.iter().sum::<u64>(), fused);

    // Every pipeline stage left spans in the trace ring, and the
    // per-session filter narrows to one tenant.
    let (status, trace) = http::get(&admin_str, "/trace").expect("trace");
    assert_eq!(status, 200);
    for stage in ["ingest", "queue", "fuse", "flush"] {
        assert!(
            trace.contains(&format!("\"stage\": \"{stage}\"")),
            "no {stage} span in {trace}"
        );
    }
    let (status, filtered) = http::get(&admin_str, "/trace?session=1").expect("trace filter");
    assert_eq!(status, 200);
    assert!(filtered.contains("\"session\": 1"));
    assert!(!filtered.contains("\"session\": 0,"));

    // `/metrics` is the one scrape surface: the old counters dump is not
    // routed, and no series is kept per session.
    assert!(raw_status(admin, b"GET /stats HTTP/1.1\r\n\r\n").contains("404"));
    for kind in ["counters", "gauges", "histograms"] {
        for series in doc[kind].as_object().expect("series map").keys() {
            assert!(!series.contains("session="), "per-session series {series}");
        }
    }

    // Closing the tenants empties the directory.
    for session in 0..SESSIONS {
        client.close_session(session).expect("close_session");
    }
    drop(client);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let (_, sessions) = http::get(&admin_str, "/sessions").expect("sessions");
        if sessions.trim() == "[]" {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sessions never drained: {sessions}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.rounds_fused, fused);
}

/// Parses a JSON body an admin route answered with.
fn json(body: &str) -> serde_json::Value {
    serde_json::from_str(body).expect("valid JSON")
}

/// The injector keeps its own tally; the scrape must not depend on some
/// other door having been asked first to copy it into the registry.
#[test]
fn first_scrape_reads_injected_faults_without_any_other_door_asked() {
    const FAULTS: u64 = 3;
    let (server, wire, admin) = start_daemon();
    let before = fault::injected_total();
    // EINTR on a socket read is retried in place, so whichever daemon of
    // this test binary draws one of the three is unharmed; the tally is
    // process-wide and so is the cell that mirrors it.
    fault::install(Plan::new(0x0B5).rule(Site::SockRead, Kind::Eintr, 1, FAULTS));
    let mut client = ServeClient::connect(wire).expect("connect");
    replay(&mut client);
    fault::clear();
    let injected = fault::injected_total();
    assert_eq!(
        injected,
        before + FAULTS,
        "the replay's reads drew every fault"
    );

    let (status, text) = http::get(&admin.to_string(), "/metrics").expect("metrics");
    assert_eq!(status, 200);
    assert!(
        text.contains(&format!("avoc_fault_injected_total {injected}\n")),
        "first scrape must already read {injected} injected faults"
    );
    server.shutdown();
}

/// Segments folded by an earlier process are live from boot, not from this
/// process's first compaction: the gauge and `/segments` must agree.
#[test]
fn segments_live_counts_segments_found_at_boot() {
    let dir = std::env::temp_dir().join(format!("avoc-obs-segments-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (server_a, wire, _) = start_daemon_over(Some(&dir), 0);
    let mut client = ResilientClient::new(wire, ClientConfig::default(), RetryPolicy::default());
    client
        .open_session(7, 1, SpecSource::Named("avoc".into()), 0x5E6)
        .expect("open");
    for round in 0..4 {
        client
            .send_reading(7, ModuleId::new(0), round, 20.0)
            .expect("feed");
        client.recv().expect("verdict");
    }
    server_a.abort(); // the WAL stays, cold
    let folded = avoc::store::TieredStore::open(&dir)
        .expect("open tier")
        .compact()
        .expect("fold the cold WAL");
    assert_eq!(folded.wals_retired, 1);

    let (server_b, _, admin) = start_daemon_over(Some(&dir), 0);
    let admin = admin.to_string();
    let (_, text) = http::get(&admin, "/metrics").expect("metrics");
    let (_, segments) = http::get(&admin, "/segments").expect("segments");
    let listed = json(&segments)["segments"].as_array().expect("rows").len();
    assert_eq!(listed, 1);
    assert!(
        text.contains(&format!("avoc_segments_live {listed}\n")),
        "/segments lists {listed} live segment(s), the gauge must too"
    );
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reading a live session drops — late for a round it already fused, or
/// from a module it does not have — fuses nothing and answers nothing; the
/// straggler count is the only place it shows.
#[test]
fn dropped_stragglers_are_counted() {
    let (server, wire, admin) = start_daemon();
    let admin = admin.to_string();
    let service = server.service();
    let mut client = ServeClient::connect(wire).expect("connect");
    client
        .open_session(0, MODULES, SpecSource::Named("avoc".into()))
        .expect("open_session");
    for m in 0..MODULES {
        client
            .send_reading(0, ModuleId::new(m), 0, 20.0)
            .expect("send_reading");
    }
    assert!(matches!(
        client.recv().expect("recv"),
        Message::SessionResult { round: 0, .. }
    ));

    // The shard counts after it feeds: poll until the tally lands.
    let straggled_reaches = |want: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let c = service.counters();
            let straggled = c.readings_straggled;
            assert!(straggled <= want, "{straggled} straggled, {want} sent");
            if straggled == want {
                assert_eq!(c.rounds_fused, 1);
                assert_eq!(c.readings_dropped, 0);
                return;
            }
            assert!(std::time::Instant::now() < deadline, "never counted");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    straggled_reaches(0);
    client
        .send_reading(0, ModuleId::new(1), 0, 99.0)
        .expect("late for round 0");
    straggled_reaches(1);
    client
        .send_reading(0, ModuleId::new(MODULES), 1, 99.0)
        .expect("unknown module");
    straggled_reaches(2);
    let (_, text) = http::get(&admin, "/metrics").expect("metrics");
    assert!(text.contains("avoc_readings_straggled_total 2"), "{text}");
    assert_eq!(server.shutdown().readings_straggled, 2);
}

/// Both doors read the same cells: on a quiesced daemon the JSON scrape
/// (asked first, so nothing else can have refreshed anything for it) and
/// `counters()` agree on every scalar the snapshot carries.
#[test]
fn both_doors_agree_on_a_quiesced_daemon() {
    // Two of each, so a cell registered under the wrong label shows.
    let (server, wire, admin) = start_daemon_over(None, 2);
    let admin = admin.to_string();
    let mut client = ServeClient::connect(wire).expect("connect");
    replay(&mut client);

    // A verdict can reach the client before the threads that shipped it
    // have counted it: the daemon is quiet once two scrapes read the same.
    let scrape_now = || {
        http::get(&admin, "/metrics?format=json")
            .expect("metrics json")
            .1
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut scrape = scrape_now();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let again = scrape_now();
        if again == scrape {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "an idle daemon kept moving:\n{scrape}\n{again}"
        );
        scrape = again;
    }
    let c = server.service().counters();
    let scrape = json(&scrape);

    // Every counter and gauge series on `/metrics`, by its exact key.
    let mut series = std::collections::HashMap::<String, i64>::new();
    for kind in ["counters", "gauges"] {
        for (key, value) in scrape[kind].as_object().expect("series map") {
            series.insert(key.clone(), value.as_i64().expect("integer sample"));
        }
    }
    let mut checked = std::collections::HashSet::new();
    let mut agree = |key: String, value: i128| {
        let cell = series
            .get(&key)
            .unwrap_or_else(|| panic!("`{key}` is not on /metrics"));
        assert_eq!(
            *cell as i128, value,
            "/metrics and counters() disagree on `{key}`"
        );
        checked.insert(key);
    };
    // The unlabelled facts `counters()` copies row by row, then the wire
    // cells, and each reactor's series summed.
    for (family, value) in c.facts() {
        agree(family.to_string(), value);
    }
    for (family, value) in [
        ("avoc_bytes_sent_total", c.bytes_sent),
        ("avoc_bytes_received_total", c.bytes_received),
        ("avoc_frames_sent_total", c.frames_sent),
        ("avoc_writer_flushes_total", c.writer_flushes),
        ("avoc_writer_writes_total", c.writer_writes),
    ] {
        agree(family.to_string(), value.into());
    }
    let reactors = server.service().reactors();
    assert_eq!(reactors, 2);
    for (family, sum) in [
        (
            "avoc_net_connections_accepted_total",
            c.connections_accepted as i128,
        ),
        ("avoc_net_connections_open", c.connections_open.into()),
        ("avoc_net_epoll_wakeups_total", c.epoll_wakeups.into()),
        ("avoc_net_reactor_events_total", c.reactor_events.into()),
        ("avoc_net_wedged_closed_total", c.wedged_closed.into()),
        ("avoc_net_accept_pauses_total", c.accept_pauses.into()),
    ] {
        let keys: Vec<String> = (0..reactors)
            .map(|i| format!("{family}{{reactor=\"{i}\"}}"))
            .collect();
        let on_metrics: i128 = keys.iter().map(|k| series[k] as i128).sum();
        assert_eq!(
            on_metrics, sum,
            "/metrics and counters() disagree on `{family}`"
        );
        checked.extend(keys);
    }
    // Every counter and gauge series is checked, bar the one gauge only
    // `/metrics` reports.
    let mut unchecked: Vec<&String> = series.keys().filter(|k| !checked.contains(*k)).collect();
    unchecked.sort();
    assert_eq!(unchecked, ["avoc_segments_live"]);
    assert_eq!(c.rounds_fused, SESSIONS * ROUNDS);
    let fuse_count = &scrape["histograms"]["avoc_fuse_latency_ns"]["count"];
    assert_eq!(fuse_count.as_u64(), Some(c.rounds_fused));
    server.shutdown();
}

#[test]
fn healthz_reports_degradation_and_recovery() {
    let (server, _wire, admin) = start_daemon();
    let admin_str = admin.to_string();

    // Healthy daemon: the plain-text fast path.
    let (status, body) = http::get(&admin_str, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // A domain degrades (here driven directly through the shared health
    // handle — the same one the persistence and accept planes feed): the
    // endpoint flips to 503 with machine-readable reasons.
    let health = server.service().health();
    health.set(
        "persistence",
        avoc::obs::HealthLevel::Degraded,
        "2 session(s) running memory-only after repeated checkpoint failures",
    );
    let (status, body) = http::get(&admin_str, "/healthz").expect("degraded healthz");
    assert_eq!(status, 503, "degraded daemon must fail health probes");
    let doc: serde_json::Value = serde_json::from_str(&body).expect("healthz JSON");
    assert_eq!(doc["status"].as_str(), Some("degraded"));
    let domains = doc["domains"].as_array().expect("domains array");
    assert_eq!(domains.len(), 1);
    assert_eq!(domains[0]["domain"].as_str(), Some("persistence"));
    assert_eq!(domains[0]["level"].as_str(), Some("degraded"));
    assert!(domains[0]["reason"]
        .as_str()
        .expect("reason string")
        .contains("memory-only"));

    // Recovery clears the domain and the endpoint goes back to 200.
    health.set("persistence", avoc::obs::HealthLevel::Ok, "");
    let (status, body) = http::get(&admin_str, "/healthz").expect("healed healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}

/// Sends raw bytes to the admin socket and returns the status line.
fn raw_status(admin: SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(admin).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // The peer may reset the connection after answering (it closes while
    // unread request bytes are still in flight for oversized payloads), so
    // both the tail of the write and the tail of the read are best-effort.
    let _ = stream.write_all(payload);
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
        }
    }
    let response = String::from_utf8_lossy(&bytes);
    response.lines().next().unwrap_or("").to_string()
}

#[test]
fn admin_endpoint_survives_hostile_requests() {
    let (server, _wire, admin) = start_daemon();
    let admin_str = admin.to_string();

    assert!(raw_status(admin, b"POST /metrics HTTP/1.1\r\n\r\n").contains("405"));
    assert!(raw_status(admin, b"GET\r\n\r\n").contains("400"));
    assert!(raw_status(admin, b"\x00\xffnonsense\r\n\r\n").contains("400"));
    let oversized = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    assert!(raw_status(admin, oversized.as_bytes()).contains("431"));
    assert!(raw_status(admin, b"GET /nope HTTP/1.1\r\n\r\n").contains("404"));

    let (status, _) = http::get(&admin_str, "/trace?session=banana").expect("bad session");
    assert_eq!(status, 400);

    // None of that took the daemon down.
    let (status, body) = http::get(&admin_str, "/healthz").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}
