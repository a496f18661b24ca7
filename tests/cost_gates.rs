//! Counted cost gates: how many `write(2)` calls the daemon makes for the
//! bytes it receives, read from the counters `/metrics` exports
//! (`CountersSnapshot::writer_writes` against `bytes_received`), with each
//! bound derived where it is asserted. Counts do not drift with the host
//! the way timings do; timing is `benchmark/`'s job.
//!
//! Each test confines itself to one CPU before it starts its daemon, so the
//! daemon runs as the benchmark runs it: one reactor, no helper thread, and
//! the tenant and the reactor taking turns on the CPU.

use avoc::net::reactor::{DecodeStep, StreamDecoder};
use avoc::net::{BatchReading, Message, SpecSource};
use avoc::serve::{ServeConfig, SpecRegistry, TcpServer, VoterService};
use avoc::{core::ModuleId, vdx::VdxSpec};
use bytes::BytesMut;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Modules per session, as in the benchmark's workloads.
const MODULES: u32 = 5;

/// A one-shard, one-reactor daemon on the one CPU this test thread is
/// confined to; every thread the service starts inherits the mask, so it
/// starts no helper.
fn pinned_server() -> TcpServer {
    let pinned = (0..1024).any(|cpu| sysio::pin_current_thread(cpu).is_ok());
    assert!(pinned, "no CPU would take this thread");
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
    assert_eq!(service.helpers(), 0, "one CPU runs no helper");
    TcpServer::start("127.0.0.1:0", service).expect("bind")
}

/// A raw tenant connection: it writes whatever bytes it is given in one
/// `write`, and decodes the daemon's frames as they come.
struct Tenant {
    stream: TcpStream,
    decoder: StreamDecoder,
    chunk: Vec<u8>,
}

impl Tenant {
    /// Connects and opens `sessions` sessions of [`MODULES`] modules (an
    /// open is not answered).
    fn open(server: &TcpServer, sessions: u64) -> Tenant {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut tenant = Tenant {
            stream,
            decoder: StreamDecoder::new(),
            chunk: vec![0; 64 * 1024],
        };
        let mut wire = BytesMut::new();
        for session in 0..sessions {
            Message::OpenSession {
                session,
                modules: MODULES,
                spec: SpecSource::Named("avoc".into()),
            }
            .encode_into(&mut wire);
        }
        tenant.stream.write_all(&wire).expect("open");
        // Counted from here: the opens are read before anything is sent.
        while server.service().counters().bytes_received < wire.len() as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        tenant
    }

    /// The next frame from the daemon, reduced to its session and how many
    /// verdicts it carries.
    fn verdicts(&mut self) -> (u64, u64) {
        loop {
            match self.decoder.next_frame() {
                DecodeStep::Frame(Message::SessionResult { session, .. }) => return (session, 1),
                DecodeStep::Frame(Message::ResultBatch { session, results }) => {
                    return (session, results.len() as u64);
                }
                DecodeStep::Incomplete => {
                    let n = self.stream.read(&mut self.chunk).expect("verdicts arrive");
                    assert!(n > 0, "the daemon hung up");
                    self.decoder.extend(&self.chunk[..n]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}

/// `(writes, bytes received)` the daemon counted while `run` ran.
fn counted(server: &TcpServer, run: impl FnOnce()) -> (u64, u64) {
    let before = server.service().counters();
    run();
    let after = server.service().counters();
    (
        after.writer_writes - before.writer_writes,
        after.bytes_received - before.bytes_received,
    )
}

/// The shape of `tick_mem`: 128 sessions each send one round, five
/// `SessionReading` frames, and the tick leaves in one client write. The
/// next tick goes once every verdict of this one is back.
#[test]
fn a_tick_burst_costs_at_most_two_writes_per_tick() {
    const SESSIONS: u64 = 128;
    const TICKS: u64 = 64;
    let server = pinned_server();
    let mut tenant = Tenant::open(&server, SESSIONS);
    let mut tick_bytes = 0;
    let (writes, received) = counted(&server, || {
        let mut wire = BytesMut::new();
        for round in 0..TICKS {
            wire.clear();
            for session in 0..SESSIONS {
                for module in 0..MODULES {
                    Message::SessionReading {
                        session,
                        module: ModuleId::new(module),
                        round,
                        value: 20.0 + 0.01 * f64::from(module),
                    }
                    .encode_into(&mut wire);
                }
            }
            tick_bytes = wire.len() as u64;
            tenant.stream.write_all(&wire).expect("tick");
            let mut answered = 0;
            while answered < SESSIONS {
                answered += tenant.verdicts().1;
            }
        }
    });
    // A tick is 640 frames of 33 bytes: 21 120 bytes, which one loopback
    // write delivers whole.
    assert_eq!(tick_bytes, 21_120);
    assert_eq!(received, TICKS * tick_bytes);
    // The reactor reads a tick in two reads: the first asks for 16 KiB and
    // fills it, the second may take 32 KiB and takes the other 4 736 bytes,
    // a short read that ends the dispatch. Each read is followed by one
    // pump, and a pump is one write(2) while the socket has room for the
    // verdicts (128 of them, under 3 KiB): at most 2 writes a tick.
    assert!(
        writes <= 2 * TICKS,
        "{writes} writes for {TICKS} ticks of {tick_bytes} bytes"
    );
    drop(tenant);
    server.shutdown();
}

/// The shape of `bulk_mem`: 8 sessions in a closed loop, each keeping 4
/// `FeedBatch` frames of 64 rounds in flight, one client write a frame; a
/// session's next frame goes as soon as every verdict of its oldest is
/// back.
#[test]
fn a_bulk_closed_loop_costs_at_most_one_write_per_40_kib_received() {
    const SESSIONS: u64 = 8;
    const FRAME_ROUNDS: u64 = 64;
    const IN_FLIGHT: u64 = 4;
    const FRAMES: u64 = 64;
    let server = pinned_server();
    let mut tenant = Tenant::open(&server, SESSIONS);
    let mut readings = Vec::new();
    let mut wire = BytesMut::new();
    let mut send = |stream: &mut TcpStream, session: u64, frame: u64| {
        readings.clear();
        for round in frame * FRAME_ROUNDS..(frame + 1) * FRAME_ROUNDS {
            readings.extend((0..MODULES).map(|module| BatchReading {
                module: ModuleId::new(module),
                round,
                value: 20.0 + 0.01 * f64::from(module) + 0.001 * (round % 7) as f64,
            }));
        }
        wire.clear();
        Message::encode_feed_batch_into(session, &readings, &mut wire);
        stream.write_all(&wire).expect("frame");
    };
    let (writes, received) = counted(&server, || {
        let mut sent = [0u64; SESSIONS as usize];
        let mut answered = [0u64; SESSIONS as usize];
        for _ in 0..IN_FLIGHT {
            for session in 0..SESSIONS {
                send(&mut tenant.stream, session, sent[session as usize]);
                sent[session as usize] += 1;
            }
        }
        while answered.iter().sum::<u64>() < SESSIONS * FRAMES * FRAME_ROUNDS {
            let (session, verdicts) = tenant.verdicts();
            let s = session as usize;
            answered[s] += verdicts;
            // The oldest frame in flight is answered: send the next.
            while sent[s] < FRAMES && answered[s] >= (sent[s] + 1 - IN_FLIGHT) * FRAME_ROUNDS {
                send(&mut tenant.stream, session, sent[s]);
                sent[s] += 1;
            }
        }
    });
    // A frame is 13 + 320 × 20 bytes, plus its 4-byte prefix.
    let frame_bytes = 4 + 13 + FRAME_ROUNDS * u64::from(MODULES) * 20;
    assert_eq!(received, SESSIONS * FRAMES * frame_bytes);
    // The tenant and the reactor take turns on one CPU, and the tenant
    // sends a session's next frame as soon as its oldest is answered, so a
    // dispatch finds about 32 frames (32 × 6 437 = 206 KB) waiting. The
    // first reads them while the socket stays full in reads of 16, then
    // 32, then 64 KiB, and the short read that drains it: 16 + 32 + 64 +
    // 64 + 25 KiB, five reads. Having read more than 64 KiB, it leaves the
    // next dispatch at 64 KiB reads: 64 + 64 + 64 + 9 KiB, four reads. Each
    // read is followed by one pump, one write(2) while the socket has
    // room: one write per 50 KiB received (60 KiB measured: a pump that
    // finds the outbox empty writes nothing). The bound leaves a fifth of
    // that for dispatches that find fewer frames. Restarting every
    // dispatch at 16 KiB, five reads, makes one write per 40–48 KiB; reads
    // of a fixed 16 KiB, 13 a dispatch, one per 16 KiB.
    assert!(
        writes * 40 * 1024 <= received,
        "{writes} writes for {received} bytes received: one per {} bytes",
        received / writes.max(1)
    );
    drop(tenant);
    server.shutdown();
}
