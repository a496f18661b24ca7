//! Integration tests for the `avoc-serve` daemon: many concurrent tenants
//! with distinct VDX specs over real TCP, session isolation, and bounded
//! mailbox backpressure.

use avoc::net::{BatchReading, SpecSource};
use avoc::serve::{ServeClient, ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc::{core::ModuleId, net::Message};
use crossbeam::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: u64 = 16;
const ROUNDS: u64 = 12;
const MODULES: u32 = 3;

/// The spec each session votes under and a value band disjoint from every
/// other session's (within its spec's exclusion range), so cross-session
/// leakage of readings or history would shift a fused value out of band.
fn tenant_plan(session: u64) -> (&'static str, f64) {
    match session % 3 {
        0 => ("avoc", 20.0 + session as f64),
        1 => ("smart-building", 30.0 + session as f64),
        _ => ("ble-tunnel", -100.0 + session as f64),
    }
}

fn shipped_registry() -> Arc<SpecRegistry> {
    let reg = SpecRegistry::new();
    let loaded = reg.load_dir("specs").expect("specs/ loads");
    assert!(loaded >= 3, "expected the shipped spec directory");
    Arc::new(reg)
}

/// Results delivered on an in-process sink, counting batched frames by the
/// verdicts they carry (burst timing decides the framing, so tests assert
/// on verdict counts, never frame counts).
fn delivered_results(msgs: &[Message]) -> usize {
    msgs.iter()
        .map(|m| match m {
            Message::SessionResult { .. } => 1,
            Message::ResultBatch { results, .. } => results.len(),
            _ => 0,
        })
        .sum()
}

#[test]
fn sixteen_tenants_with_distinct_specs_stay_isolated_over_tcp() {
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        },
        shipped_registry(),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();

    let tenants: Vec<_> = (0..SESSIONS)
        .map(|session| {
            std::thread::spawn(move || {
                let (spec, base) = tenant_plan(session);
                let mut client = ServeClient::connect(addr).expect("connect");
                client
                    .open_session(session, MODULES, SpecSource::Named(spec.into()))
                    .expect("open");
                for round in 0..ROUNDS {
                    for m in 0..MODULES {
                        client
                            .send_reading(
                                session,
                                ModuleId::new(m),
                                round,
                                base + 0.1 * f64::from(m),
                            )
                            .expect("send");
                    }
                }
                client.close_session(session).expect("close");
                client.recv_n(ROUNDS as usize).expect("results")
            })
        })
        .collect();

    for (session, tenant) in tenants.into_iter().enumerate() {
        let session = session as u64;
        let (_, base) = tenant_plan(session);
        let results = tenant.join().expect("tenant thread");
        let mut rounds_seen = Vec::new();
        for msg in results {
            match msg {
                Message::SessionResult {
                    session: s,
                    round,
                    value,
                    ..
                } => {
                    assert_eq!(s, session, "results must route to their own session");
                    rounds_seen.push(round);
                    let v = value.expect("numeric result");
                    assert!(
                        (v - base).abs() < 0.5,
                        "session {session} got {v}, outside its own band around {base}: \
                         readings or history leaked across sessions"
                    );
                }
                other => panic!("session {session} got unexpected frame {other:?}"),
            }
        }
        let expected: Vec<u64> = (0..ROUNDS).collect();
        assert_eq!(rounds_seen, expected, "one in-order result per round");
    }

    // Every fused round left one fuse-latency observation.
    let fuse = server
        .service()
        .obs_registry()
        .latency_histogram_with("avoc_fuse_latency_ns", "", &[])
        .snapshot();
    assert_eq!(fuse.count, SESSIONS * ROUNDS);
    assert!(fuse.min as f64 <= fuse.mean() && fuse.mean() <= fuse.max as f64);

    let snap = server.shutdown();
    assert_eq!(snap.sessions_opened, SESSIONS);
    assert_eq!(snap.sessions_rejected, 0);
    assert_eq!(snap.sessions_evicted, 0);
    assert_eq!(snap.rounds_fused, SESSIONS * ROUNDS);
    assert_eq!(snap.readings_dropped, 0);
    assert_eq!(snap.results_dropped, 0, "every tenant read all its results");
    assert_eq!(snap.shard_queue_high_water.len(), 4);
}

#[test]
fn unknown_spec_is_answered_with_an_error_frame() {
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        shipped_registry(),
    ));
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client
        .open_session(42, 3, SpecSource::Named("no-such-spec".into()))
        .expect("send");
    match client.recv().expect("reply") {
        Message::Error { session, message } => {
            assert_eq!(session, 42);
            assert!(message.contains("no-such-spec"), "got: {message}");
        }
        other => panic!("unexpected {other:?}"),
    }
    let snap = server.shutdown();
    assert_eq!(snap.sessions_opened, 0);
}

/// An import a node cannot land is refused with its reason, verbatim — not
/// dressed up as an unknown spec.
#[test]
fn import_refusals_are_answered_with_their_reason() {
    const SECRET: u64 = 0x5EC2E7;
    let refusal = |state_dir: Option<std::path::PathBuf>, meta: &[u8]| {
        let service = Arc::new(VoterService::start(
            ServeConfig {
                shards: 1,
                persistence: avoc::serve::Persistence {
                    state_dir,
                    cluster_secret: Some(SECRET),
                    ..avoc::serve::Persistence::default()
                },
                ..ServeConfig::default()
            },
            shipped_registry(),
        ));
        let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
        let mut gateway = ServeClient::connect(server.local_addr()).expect("connect");
        gateway
            .send(&Message::SessionState {
                session: 42,
                epoch: 1,
                auth: SECRET,
                meta: meta.to_vec(),
                wal: Vec::new(),
            })
            .expect("send");
        let reply = gateway.recv().expect("reply");
        assert_eq!(server.shutdown().sessions_imported, 0);
        match reply {
            Message::Error {
                session: 42,
                message,
            } => message,
            other => panic!("unexpected {other:?}"),
        }
    };
    assert_eq!(
        refusal(None, b"irrelevant"),
        "import refused: this node has no state directory"
    );
    let dir = std::env::temp_dir().join(format!("avoc-import-refusal-{}", std::process::id()));
    assert_eq!(
        refusal(Some(dir.clone()), b"not a meta sidecar"),
        "import refused: shipped meta is corrupt"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression for the cross-tenant wedge: a tenant whose result sink is
/// full and never read must not stall the shard worker. Other sessions
/// pinned to the same shard keep fusing, the wedged tenant's overflow is
/// dropped and counted, and drain still completes.
#[test]
fn wedged_tenant_sink_does_not_stall_other_sessions_on_its_shard() {
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
    // One shard, `Block` backpressure: everything below shares one worker.
    let service = VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        Arc::new(reg),
    );
    // Tenant A: capacity-1 sink that is never read — wedged from its first
    // result on. Single-module sessions fuse one result per reading, so a
    // worker that blocked on A's sink would deadlock this feed loop as
    // soon as the mailbox filled behind it.
    let (sink_a, results_a) = channel::bounded::<Message>(1);
    service
        .open_session(1, 1, &SpecSource::Named("avoc".into()), sink_a)
        .expect("open A");
    for round in 0..2000u64 {
        service
            .feed(1, ModuleId::new(0), round, 20.0)
            .expect("feed A");
    }
    // Tenant B shares the only shard and must still get every result.
    let (sink_b, results_b) = channel::unbounded::<Message>();
    service
        .open_session(2, 1, &SpecSource::Named("avoc".into()), sink_b)
        .expect("open B");
    for round in 0..10u64 {
        service
            .feed(2, ModuleId::new(0), round, 30.0)
            .expect("feed B");
    }
    service.close_session(2).expect("close B");
    let snap = service.drain();
    let b_results: Vec<Message> = results_b.try_iter().collect();
    assert_eq!(
        delivered_results(&b_results),
        10,
        "B must fuse despite A's wedged sink"
    );
    assert!(b_results.iter().all(|m| matches!(
        m,
        Message::SessionResult { session: 2, .. } | Message::ResultBatch { session: 2, .. }
    )));
    assert_eq!(
        snap.rounds_fused, 2010,
        "every reading of both tenants fused"
    );
    // Batch framing depends on burst timing, but the accounting invariant
    // does not: every one of A's 2000 verdicts either reached its
    // capacity-1 sink or was shed and counted — none vanished, and the
    // wedged sink demonstrably both received and shed.
    let a_results: Vec<Message> = results_a.try_iter().collect();
    let a_delivered = delivered_results(&a_results) as u64;
    assert!(a_delivered >= 1, "the first flush had an empty sink slot");
    assert!(snap.results_dropped >= 1, "a wedged sink must shed");
    assert_eq!(
        a_delivered + snap.results_dropped,
        2000,
        "delivered + shed covers every verdict of A"
    );
}

/// The TCP edition of the wedged-tenant regression, now with egress
/// coalescing in the path: a tenant that feeds a flood of rounds but never
/// reads a result wedges its connection's *corked* writer mid-flush. The
/// per-write socket deadline must still fire on the coalesced buffer (the
/// writer exits instead of pinning its thread), the tenant's overflow must
/// be shed and counted once the bounded out channel fills behind the dead
/// writer, and graceful shutdown must complete.
#[test]
fn wedged_tcp_tenant_respects_the_write_deadline_and_shed_accounting() {
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        Arc::new(reg),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let started = Instant::now();
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client
        .open_session(1, 1, SpecSource::Named("avoc".into()))
        .expect("open");
    // Single-module rounds: every reading fuses a verdict the tenant never
    // reads. Enough of them to overrun loopback's socket buffering (both
    // directions auto-tune into the megabytes) so the corked writer
    // genuinely blocks mid-flush and its deadline has to do the work.
    const ROUNDS_FED: u64 = 400_000;
    let readings: Vec<BatchReading> = (0..ROUNDS_FED)
        .map(|round| BatchReading {
            module: ModuleId::new(0),
            round,
            value: 20.0,
        })
        .collect();
    client.send_batch(1, &readings).expect("feed");
    // `send_batch` returning only means the bytes left the client; megabytes
    // may still sit in socket buffers. Wait for the shard to fuse the whole
    // flood before shutting down, or the reader stops mid-stream.
    let fuse_deadline = Instant::now() + Duration::from_secs(120);
    while service.counters().rounds_fused < ROUNDS_FED {
        assert!(
            Instant::now() < fuse_deadline,
            "flood did not finish fusing"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let snap = server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "the write deadline must bound a wedged tenant's writer"
    );
    assert_eq!(snap.rounds_fused, ROUNDS_FED, "Block sheds no readings");
    assert!(
        snap.results_dropped > 0,
        "overflow behind the wedged writer is shed and counted"
    );
    assert!(snap.result_batches > 0, "burst verdicts left in batches");
    assert!(snap.writer_flushes >= 1);
    assert!(snap.frames_sent >= 1);
    assert!(snap.bytes_sent > 0);
    assert!(
        snap.bytes_received >= ROUNDS_FED * 17,
        "every fed reading crossed the wire inbound"
    );
    drop(client);
}

/// A full data mailbox makes the producer wait for a slot: a tight feed
/// loop into one shard loses nothing, and the mailbox really ran into its
/// 1024-command bound on the way.
#[test]
fn a_full_mailbox_makes_the_producer_wait_and_loses_nothing() {
    const READINGS: u64 = 20_000;
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
    let service = VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        Arc::new(reg),
    );
    let (sink, results) = channel::unbounded::<Message>();
    service
        .open_session(1, 1, &SpecSource::Named("avoc".into()), sink)
        .expect("open");
    // Enqueueing a reading is far cheaper than fusing one, so a tight feed
    // loop fills the mailbox and then waits on it.
    for round in 0..READINGS {
        service
            .feed(1, ModuleId::new(0), round, 20.0)
            .expect("a full mailbox waits, it never refuses");
    }
    let snap = service.drain();
    assert_eq!(snap.readings_dropped, 0);
    assert_eq!(snap.rounds_fused, READINGS);
    let got: Vec<Message> = results.try_iter().collect();
    assert_eq!(delivered_results(&got) as u64, READINGS);
    assert!(
        (1023..=1024).contains(&snap.shard_queue_high_water[0]),
        "the mailbox filled to its bound: high water {}",
        snap.shard_queue_high_water[0]
    );
}

/// What ends the one socket write that carried a session's readings.
#[derive(Debug, Clone, Copy)]
enum Ending {
    /// A `CloseSession` frame behind the readings, in the same write.
    CloseFrame,
    /// A `Shutdown` frame behind the readings: the daemon drops the
    /// connection from inside that read's decode loop.
    ShutdownFrame,
    /// The tenant closes its socket right after the write.
    SocketClose,
}

/// The reactor stages a read's `SessionReading` frames and hands them to
/// the shard in one command; whatever follows them in that read — a close,
/// a shutdown, the end of the connection — must still find them delivered
/// first. One `write` carries two complete rounds and a partial third; the
/// session emits to an in-process sink, so its stream stays observable
/// after the connection is gone.
#[test]
fn staged_readings_precede_whatever_ends_their_read() {
    use std::io::{Read as _, Write as _};
    for ending in [
        Ending::CloseFrame,
        Ending::ShutdownFrame,
        Ending::SocketClose,
    ] {
        let mut reg = SpecRegistry::new();
        reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
        let service = Arc::new(VoterService::start(
            ServeConfig {
                shards: 1,
                ..ServeConfig::default()
            },
            Arc::new(reg),
        ));
        let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
        let (sink, results) = channel::unbounded::<Message>();
        service
            .open_session(1, 5, &SpecSource::Named("avoc".into()), sink)
            .expect("open");

        let mut wire = Vec::new();
        for (round, modules) in [(0u64, 5u32), (1, 5), (2, 3)] {
            for m in 0..modules {
                wire.extend_from_slice(
                    &Message::SessionReading {
                        session: 1,
                        module: ModuleId::new(m),
                        round,
                        value: 20.0 + f64::from(m) * 0.1,
                    }
                    .encode(),
                );
            }
        }
        match ending {
            Ending::CloseFrame => {
                wire.extend_from_slice(&Message::CloseSession { session: 1 }.encode());
            }
            Ending::ShutdownFrame => wire.extend_from_slice(&Message::Shutdown.encode()),
            Ending::SocketClose => {}
        }
        let mut tenant = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        tenant.write_all(&wire).expect("one write");
        match ending {
            // The frame closes the session itself, behind its readings.
            Ending::CloseFrame => {}
            // Once the daemon has dropped the connection the readings must
            // already sit in the shard's mailbox: a close issued now drains
            // them first.
            Ending::ShutdownFrame => {
                tenant
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("timeout");
                let mut byte = [0u8; 1];
                assert!(
                    !tenant.read(&mut byte).is_ok_and(|n| n > 0),
                    "{ending:?}: the daemon sends this connection nothing"
                );
                service.close_session(1).expect("close");
            }
            Ending::SocketClose => {
                drop(tenant);
                let deadline = Instant::now() + Duration::from_secs(10);
                while service.counters().rounds_fused < 2 {
                    assert!(
                        Instant::now() < deadline,
                        "{ending:?}: the complete rounds never fused"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
                service.close_session(1).expect("close");
            }
        }

        // Both verdicts, then the partial round the close flushed — in
        // order, nothing dropped on the way.
        let mut rounds = Vec::new();
        while rounds.len() < 3 {
            match results
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{ending:?}: verdicts after {rounds:?}: {e:?}"))
            {
                Message::SessionResult { round, .. } => rounds.push(round),
                Message::ResultBatch { results, .. } => {
                    rounds.extend(results.iter().map(|r| r.round));
                }
                other => panic!("{ending:?}: unexpected sink frame {other:?}"),
            }
        }
        assert_eq!(rounds, [0, 1, 2], "{ending:?}");
        let snap = server.shutdown();
        assert_eq!(snap.rounds_fused, 3, "{ending:?}");
        assert_eq!(snap.readings_dropped, 0, "{ending:?}");
    }
}

/// The deployment shape of the paper's Fig. 1 — every sensor on its own
/// link to the voter — on the daemon, the workspace's only socket server:
/// five connections, one per module and spread over two reactors, feed one
/// session, and the stream it fuses is bit-identical to the engine driven
/// directly over the same trace, and never follows the sensor reading +6 klm
/// high. The lag tolerance covers the whole trace, so however the sensor
/// threads interleave no round is force-flushed short of its five readings.
#[test]
fn one_socket_per_sensor_fuses_the_same_stream_as_the_direct_engine() {
    use avoc::sim::{FaultInjector, FaultKind, LightScenario};
    const SENSORS: usize = 5;
    const TRACE_ROUNDS: usize = 60;
    const SESSION: u64 = 77;

    let clean = LightScenario::new(SENSORS, TRACE_ROUNDS, 31).generate();
    let trace = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 20);
    let spec = avoc::vdx::VdxSpec::avoc();
    let mut direct = avoc::vdx::build_engine(&spec).expect("valid spec");
    let expected: Vec<_> = trace
        .iter_rounds()
        .map(|round| (round.round, direct.submit(&round).expect("round fused")))
        .collect();

    let mut reg = SpecRegistry::new();
    reg.insert("avoc", spec);
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 2,
            reactors: 2,
            lag_tolerance: TRACE_ROUNDS as u64,
            ..ServeConfig::default()
        },
        Arc::new(reg),
    ));
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    let addr = server.local_addr();

    // The collector opens the session with the acknowledged handshake, so
    // the sensors start only once it exists; verdicts come back here.
    let mut collector = ServeClient::connect(addr).expect("connect");
    collector
        .resume_session(
            SESSION,
            SENSORS as u32,
            SpecSource::Named("avoc".into()),
            1,
            None,
        )
        .expect("open");
    assert_eq!(
        collector.recv().expect("ack"),
        Message::Resumed {
            session: SESSION,
            high_round: None,
            warm: false
        }
    );

    let sensors: Vec<_> = (0..SENSORS)
        .map(|idx| {
            let series = trace.series(idx);
            std::thread::spawn(move || {
                let mut sensor = ServeClient::connect(addr).expect("connect");
                for (round, value) in series.into_iter().enumerate() {
                    let value = value.expect("offset faults drop nothing");
                    sensor
                        .send_reading(SESSION, ModuleId::new(idx as u32), round as u64, value)
                        .expect("send");
                }
            })
        })
        .collect();

    let fused = collector.recv_n(TRACE_ROUNDS).expect("one verdict a round");
    for sensor in sensors {
        sensor.join().expect("sensor thread");
    }
    for ((want_round, result), got) in expected.iter().zip(fused) {
        let Message::SessionResult {
            session,
            round,
            value,
            voted,
        } = got
        else {
            panic!("unexpected frame {got:?}");
        };
        assert_eq!(
            (session, round, value.map(f64::to_bits), voted),
            (
                SESSION,
                *want_round,
                result.number().map(f64::to_bits),
                result.is_voted()
            )
        );
        assert!(value.is_some_and(|v| v < 20.0), "fault leaked: {value:?}");
    }

    collector.close_session(SESSION).expect("close");
    let snap = server.shutdown();
    assert_eq!(snap.rounds_fused, TRACE_ROUNDS as u64);
    assert_eq!(snap.readings_dropped, 0);
    assert_eq!(snap.results_dropped, 0);
}

/// Waits for the next frame on an in-process sink, failing the test once
/// `deadline` passes: a command an idle shard never woke up for shows up
/// here as a timeout instead of a hang.
fn next_frame(rx: &channel::Receiver<Message>, deadline: Instant, what: &str) -> Message {
    rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        .unwrap_or_else(|_| panic!("{what}: no answer before the deadline (a lost wake-up?)"))
}

/// One tenant sending `+inf` cannot take its shard down: the reading is a
/// missing ballot, so both tenants pinned to the one shard keep fusing
/// every round and receiving their frames, in their own bands.
#[test]
fn an_infinite_reading_does_not_stop_its_shard() {
    const ROUNDS: u64 = 20;
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
    let service = VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        Arc::new(reg),
    );
    let spec = SpecSource::Named("avoc".into());
    let tenants = [(1u64, 20.0), (2u64, 30.0)];
    let sinks: Vec<_> = tenants
        .iter()
        .map(|&(session, _)| {
            let (sink, results) = channel::unbounded::<Message>();
            service
                .open_session(session, MODULES, &spec, sink)
                .expect("open");
            results
        })
        .collect();
    for round in 0..ROUNDS {
        for &(session, base) in &tenants {
            for m in 0..MODULES {
                // Tenant 1's module 0 reads +inf in a warm round.
                let value = if (session, round, m) == (1, 10, 0) {
                    f64::INFINITY
                } else {
                    base + 0.1 * f64::from(m)
                };
                service
                    .feed(session, ModuleId::new(m), round, value)
                    .expect("the shard is still running");
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    for (&(session, base), results) in tenants.iter().zip(&sinks) {
        let mut values = Vec::new();
        while (values.len() as u64) < ROUNDS {
            match next_frame(results, deadline, &format!("session {session}")) {
                Message::SessionResult { value, .. } => values.push(value),
                Message::ResultBatch { results, .. } => {
                    values.extend(results.iter().map(|r| r.value));
                }
                other => panic!("session {session} got unexpected frame {other:?}"),
            }
        }
        for v in values {
            let v = v.expect("every round has a value");
            assert!((v - base).abs() < 0.5, "session {session} fused {v}");
        }
    }
    let snap = service.drain();
    assert_eq!(snap.rounds_fused, 2 * ROUNDS);
    assert_eq!(snap.readings_dropped, 0);
}

/// The wake path under churn: one shard, one thread alternating
/// `resume_session` and `close_session` on fresh ids, another feeding a
/// one-module session one reading at a time. Each waits for its answer
/// frame before its next send, so the shard goes idle between almost every
/// pair of commands — and an unpark lost between its emptiness check and
/// its park would hang one of them past the deadline.
#[test]
fn idle_shard_wakes_for_every_send_under_control_and_data_churn() {
    const ITERATIONS: u64 = 10_000;
    const FED: u64 = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        Arc::new(reg),
    ));
    let spec = SpecSource::Named("avoc".into());
    let (sink, results) = channel::unbounded::<Message>();
    service
        .open_session(FED, 1, &spec, sink)
        .expect("open the fed session");

    let churn = {
        let service = Arc::clone(&service);
        let spec = spec.clone();
        std::thread::spawn(move || {
            let (sink, answers) = channel::unbounded::<Message>();
            for session in FED + 1..=ITERATIONS {
                service
                    .resume_session(session, 1, &spec, 7, None, sink.clone())
                    .expect("resume");
                match next_frame(&answers, deadline, &format!("resume {session}")) {
                    Message::Resumed { session: s, .. } => assert_eq!(s, session),
                    other => panic!("resume {session} answered {other:?}"),
                }
                service.close_session(session).expect("close");
            }
        })
    };
    for round in 0..ITERATIONS {
        service
            .feed(FED, ModuleId::new(0), round, 20.0)
            .expect("feed");
        match next_frame(&results, deadline, &format!("round {round}")) {
            Message::SessionResult { round: r, .. } => assert_eq!(r, round),
            Message::ResultBatch { results, .. } => {
                assert_eq!(results.iter().map(|r| r.round).collect::<Vec<_>>(), [round]);
            }
            other => panic!("round {round} answered {other:?}"),
        }
    }
    churn.join().expect("churn thread");
    let snap = service.drain();
    assert_eq!(snap.rounds_fused, ITERATIONS);
    assert_eq!(snap.sessions_opened, ITERATIONS + 1);
}

/// A session closed and reopened under the same id while its shard is busy
/// with another tenant's backlog: each life fuses exactly its own readings,
/// and none is dropped. The second life's readings must never reach the
/// first life, whose hub would discard them as late rounds.
#[test]
fn a_reopened_session_keeps_its_own_readings() {
    const BACKLOG: u64 = 300_000;
    const REOPENED: u64 = 7;
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
    let service = VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        Arc::new(reg),
    );
    let spec = SpecSource::Named("avoc".into());
    let (busy_sink, _busy) = channel::unbounded::<Message>();
    service.open_session(1, 1, &spec, busy_sink).expect("open");
    let backlog: Vec<BatchReading> = (0..BACKLOG)
        .map(|round| BatchReading {
            module: ModuleId::new(0),
            round,
            value: 20.0,
        })
        .collect();
    service.feed_batch(1, &backlog).expect("feed the backlog");
    // Let the shard pick the backlog up, so the lives below queue behind it.
    std::thread::sleep(Duration::from_millis(5));

    let lives: Vec<_> = [10.0, 50.0]
        .into_iter()
        .map(|value| {
            let (sink, results) = channel::unbounded::<Message>();
            service
                .open_session(REOPENED, 1, &spec, sink)
                .expect("open");
            for round in 0..4 {
                service
                    .feed(REOPENED, ModuleId::new(0), round, value)
                    .expect("feed");
            }
            service.close_session(REOPENED).expect("close");
            (value, results)
        })
        .collect();
    let snap = service.drain();
    for (want, results) in lives {
        let mut values = Vec::new();
        for msg in results.try_iter() {
            match msg {
                Message::SessionResult { value, .. } => values.push(value),
                Message::ResultBatch { results, .. } => {
                    values.extend(results.iter().map(|r| r.value));
                }
                other => panic!("life fusing {want} got unexpected frame {other:?}"),
            }
        }
        assert_eq!(values, [Some(want); 4], "the life fed {want}");
    }
    assert_eq!(snap.readings_dropped, 0);
}
