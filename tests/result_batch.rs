//! Batched result delivery: a shard step ships each session's verdicts
//! as one `ResultBatch` frame, batching must never reorder a session's
//! results or leak them across sessions, and a connection that pipelines
//! many requests gets every answer.

use avoc::net::reactor::{DecodeStep, StreamDecoder};
use avoc::net::{BatchReading, Message, SpecSource};
use avoc::serve::{ServeClient, ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc::{core::ModuleId, vdx::VdxSpec};
use crossbeam::channel::{self, Receiver};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn registry() -> Arc<SpecRegistry> {
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", VdxSpec::avoc());
    Arc::new(reg)
}

/// Flattens a sink's frames into `(session, round)` pairs in delivery
/// order, treating a batch as its verdicts in sequence.
fn delivered(rx: &Receiver<Message>) -> Vec<(u64, u64)> {
    rx.try_iter()
        .flat_map(|m| match m {
            Message::SessionResult { session, round, .. } => vec![(session, round)],
            Message::ResultBatch { session, results } => {
                results.iter().map(|r| (session, r.round)).collect()
            }
            other => panic!("unexpected frame {other:?}"),
        })
        .collect()
}

/// One burst scenario: `sessions` single-module tenants on ONE shard, each
/// fed `FeedBatch` frames of `BURST` rounds, the sessions' frames
/// interleaved. Returns each session's delivered round sequence and the
/// final `result_batches` counter.
fn run_interleaved_burst(sessions: u64, rounds: u64) -> (Vec<Vec<u64>>, u64) {
    const BURST: u64 = 50;
    let service = VoterService::start(
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        registry(),
    );
    let sinks: Vec<Receiver<Message>> = (0..sessions)
        .map(|id| {
            let (tx, rx) = channel::unbounded();
            service
                .open_session(id, 1, &SpecSource::Named("avoc".into()), tx)
                .expect("open");
            rx
        })
        .collect();
    // Interleave sessions burst by burst: each frame's verdicts must leave
    // batched, grouped by session and in round order.
    for first in (0..rounds).step_by(BURST as usize) {
        for id in 0..sessions {
            let readings: Vec<BatchReading> = (first..(first + BURST).min(rounds))
                .map(|round| BatchReading {
                    module: ModuleId::new(0),
                    round,
                    value: 20.0 + id as f64,
                })
                .collect();
            service.feed_batch(id, &readings).expect("feed");
        }
    }
    for id in 0..sessions {
        service.close_session(id).expect("close");
    }
    let snap = service.drain();
    let per_session: Vec<Vec<u64>> = sinks
        .iter()
        .enumerate()
        .map(|(id, rx)| {
            delivered(rx)
                .into_iter()
                .map(|(s, round)| {
                    assert_eq!(s, id as u64, "results must route to their own session");
                    round
                })
                .collect()
        })
        .collect();
    (per_session, snap.result_batches)
}

/// Every session's verdicts arrive complete and in round order, however
/// the frames interleaved — and each `FeedBatch` frame's verdicts travel
/// batched: at most `DATA_BURST` (64) to a frame, so a 50-round frame is
/// one `ResultBatch`.
#[test]
fn interleaved_sessions_deliver_in_order_and_batch_under_load() {
    const SESSIONS: u64 = 4;
    const ROUNDS: u64 = 500;
    let (per_session, result_batches) = run_interleaved_burst(SESSIONS, ROUNDS);
    let expected: Vec<u64> = (0..ROUNDS).collect();
    for (id, rounds_seen) in per_session.iter().enumerate() {
        assert_eq!(
            rounds_seen, &expected,
            "session {id}: every round, in order, exactly once"
        );
    }
    assert_eq!(
        result_batches,
        SESSIONS * ROUNDS / 50,
        "one batch per frame"
    );
}

/// The same guarantee over the socket front-end: a multi-session client
/// sees each session's verdicts in round order with the values of its own
/// band, whether the daemon framed them individually or batched
/// (`ServeClient::recv` unpacks transparently).
#[test]
fn tcp_client_observes_per_session_order_across_batches() {
    const SESSIONS: u64 = 3;
    const ROUNDS: u64 = 200;
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        registry(),
    ));
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    for id in 0..SESSIONS {
        client
            .open_session(id, 1, SpecSource::Named("avoc".into()))
            .expect("open");
    }
    // Interleave batched feeds across sessions so shard bursts mix tenants.
    for chunk_start in (0..ROUNDS).step_by(50) {
        for id in 0..SESSIONS {
            let readings: Vec<BatchReading> = (chunk_start..(chunk_start + 50))
                .map(|round| BatchReading {
                    module: ModuleId::new(0),
                    round,
                    value: 20.0 + 3.0 * id as f64,
                })
                .collect();
            client.send_batch(id, &readings).expect("send");
        }
    }
    let mut per_session: Vec<Vec<u64>> = vec![Vec::new(); SESSIONS as usize];
    for _ in 0..SESSIONS * ROUNDS {
        match client.recv().expect("result") {
            Message::SessionResult {
                session,
                round,
                value,
                ..
            } => {
                let v = value.expect("numeric result");
                let base = 20.0 + 3.0 * session as f64;
                assert!(
                    (v - base).abs() < 0.5,
                    "session {session} got {v}, outside its band around {base}"
                );
                per_session[session as usize].push(round);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    let expected: Vec<u64> = (0..ROUNDS).collect();
    for (id, rounds_seen) in per_session.iter().enumerate() {
        assert_eq!(
            rounds_seen, &expected,
            "session {id}: cross-session interleaving must not reorder within a session"
        );
    }
    let snap = server.shutdown();
    assert_eq!(snap.rounds_fused, SESSIONS * ROUNDS);
    assert_eq!(snap.results_dropped, 0);
}

/// Confines this test's thread to one CPU — every thread of a service it
/// starts afterwards inherits the mask — so the daemon's reactor and the
/// test take turns on that CPU, as the benchmark's pinned daemon does.
fn pin_to_one_cpu() {
    let pinned = (0..1024).any(|cpu| sysio::pin_current_thread(cpu).is_ok());
    assert!(pinned, "no CPU would take this thread");
}

/// A one-shard, one-reactor daemon and one raw connection to it.
fn pinned_daemon() -> (TcpServer, TcpStream) {
    pin_to_one_cpu();
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 1,
            reactors: 1,
            ..ServeConfig::default()
        },
        registry(),
    ));
    let server = TcpServer::start("127.0.0.1:0", service).expect("bind");
    let conn = TcpStream::connect(server.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    (server, conn)
}

/// Reads frames off `conn` until `want` of them have matched `counts` or
/// the socket stays quiet for a while, and returns how many matched.
fn read_until(
    conn: &mut TcpStream,
    decoder: &mut StreamDecoder,
    want: usize,
    mut counts: impl FnMut(&Message) -> usize,
) -> usize {
    let mut got = 0;
    let mut chunk = [0u8; 16 * 1024];
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < want && Instant::now() < deadline {
        let n = match conn.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => panic!("read: {e}"),
        };
        decoder.extend(&chunk[..n]);
        while let DecodeStep::Frame(msg) = decoder.next_frame() {
            got += counts(&msg);
        }
    }
    got
}

/// Three hundred `ResumeSession` frames in one write, to a daemon pinned
/// to one CPU, get three hundred `Resumed` acknowledgements: answers are
/// bytes in the connection's outbox, bounded in bytes, not frames in a
/// channel that sheds behind a busy writer.
#[test]
fn pipelined_resumes_are_all_acknowledged_on_one_cpu() {
    const OPENS: u64 = 300;
    let (server, mut conn) = pinned_daemon();
    let mut wire = Vec::new();
    for session in 0..OPENS {
        let resume = Message::ResumeSession {
            session,
            modules: 1,
            spec: SpecSource::Named("avoc".into()),
            token: 7,
            last_acked: None,
        };
        wire.extend_from_slice(&resume.encode());
    }
    conn.write_all(&wire).expect("one write");
    let mut decoder = StreamDecoder::new();
    let acks = read_until(&mut conn, &mut decoder, OPENS as usize, |m| {
        usize::from(matches!(m, Message::Resumed { .. }))
    });
    assert_eq!(acks, OPENS as usize, "every resume is acknowledged");
    drop(conn);
    let snap = server.shutdown();
    assert_eq!(snap.results_dropped, 0);
}

/// 512 five-module sessions on one connection, four ticks, each tick's
/// 2 560 `SessionReading` frames in one write, to a daemon pinned to one
/// CPU: all 2 048 verdicts arrive, each session's in round order.
#[test]
fn pipelined_ticks_deliver_every_verdict_on_one_cpu() {
    const SESSIONS: u64 = 512;
    const MODULES: u32 = 5;
    const TICKS: u64 = 4;
    let (server, mut conn) = pinned_daemon();
    let mut wire = Vec::new();
    for session in 0..SESSIONS {
        let open = Message::OpenSession {
            session,
            modules: MODULES,
            spec: SpecSource::Named("avoc".into()),
        };
        wire.extend_from_slice(&open.encode());
    }
    conn.write_all(&wire).expect("opens");
    let mut decoder = StreamDecoder::new();
    let mut seen: Vec<Vec<u64>> = vec![Vec::new(); SESSIONS as usize];
    for tick in 0..TICKS {
        wire.clear();
        for session in 0..SESSIONS {
            for module in 0..MODULES {
                let reading = Message::SessionReading {
                    session,
                    module: ModuleId::new(module),
                    round: tick,
                    value: 20.0 + f64::from(module) * 0.1,
                };
                wire.extend_from_slice(&reading.encode());
            }
        }
        conn.write_all(&wire).expect("one write per tick");
        let verdicts = read_until(&mut conn, &mut decoder, SESSIONS as usize, |m| match m {
            Message::SessionResult { session, round, .. } => {
                seen[*session as usize].push(*round);
                1
            }
            Message::ResultBatch { session, results } => {
                seen[*session as usize].extend(results.iter().map(|r| r.round));
                results.len()
            }
            other => panic!("unexpected frame {other:?}"),
        });
        assert_eq!(
            verdicts, SESSIONS as usize,
            "tick {tick}: one verdict per session"
        );
    }
    let rounds: Vec<u64> = (0..TICKS).collect();
    assert!(
        seen.iter().all(|s| *s == rounds),
        "every session, every round, in order"
    );
    drop(conn);
    let snap = server.shutdown();
    assert_eq!(snap.rounds_fused, SESSIONS * TICKS);
    assert_eq!(snap.results_dropped, 0);
}
