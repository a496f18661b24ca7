//! Property tests for the batched shard hand-off: readings that share a
//! shard step — a `FeedBatch`, or the `SessionReading` frames of several
//! sessions decoded by one socket read — must be observationally identical
//! to the same readings fed one step at a time, on any number of reactors. "Identical" means
//! identical — per-session result streams are compared bit-for-bit
//! (`f64::to_bits`), because every path feeds the very same fusion engines
//! and any reordering or dropped reading would move a fused value or a
//! verdict.

use avoc::core::ModuleId;
use avoc::net::{BatchReading, Message, SpecSource};
use avoc::obs::{Span, Stage};
use avoc::serve::{ServeConfig, SpecRegistry, TcpServer, VoterService};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::sync::Arc;

/// One fused verdict, reduced to comparable bits.
type Verdict = (u64, Option<u64>, bool);

fn registry() -> Arc<SpecRegistry> {
    let mut reg = SpecRegistry::new();
    reg.insert("avoc", avoc::vdx::VdxSpec::avoc());
    Arc::new(reg)
}

/// The daemon every burst-order run starts: two shards, everything else at
/// its default.
fn two_shards() -> ServeConfig {
    ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    }
}

/// Runs `rosters` (one ordered reading list per session) through a fresh
/// service started with `config` and returns each session's result stream
/// in emission order. `deliver` decides how the rosters reach the service —
/// per-reading `feed`, chunked `feed_batch`, or frames over a socket, in
/// which case it hands back the front-end it started so the harness can
/// shut it down. The sessions emit to an in-process sink whichever way
/// their readings arrive. Once the service has quiesced, every fused round
/// must be in the fuse-latency histogram exactly once.
fn fuse_rosters(
    config: ServeConfig,
    rosters: &[Vec<BatchReading>],
    deliver: impl FnOnce(&Arc<VoterService>) -> Option<TcpServer>,
) -> BTreeMap<u64, Vec<Verdict>> {
    let service = Arc::new(VoterService::start(config, registry()));
    let (sink, results) = crossbeam::channel::unbounded();
    let modules = rosters
        .iter()
        .flat_map(|r| r.iter().map(|b| b.module.index() + 1))
        .max()
        .unwrap_or(1);
    for (i, _) in rosters.iter().enumerate() {
        service
            .open_session(
                i as u64,
                modules,
                &SpecSource::Named("avoc".into()),
                sink.clone(),
            )
            .expect("open session");
    }
    let front_end = deliver(&service);
    for (i, _) in rosters.iter().enumerate() {
        service.close_session(i as u64).expect("close session");
    }
    let quiesced = match front_end {
        Some(server) => server.shutdown(),
        None => service.drain(),
    };
    let scrape = service.obs_registry().render_prometheus();
    let fuse_count = avoc::obs::rollup::sample_value(&scrape, "avoc_fuse_latency_ns_count");
    assert_eq!(
        fuse_count,
        Some(quiesced.rounds_fused as f64),
        "fused rounds vs fuse-latency records"
    );
    drop(sink);

    let mut streams: BTreeMap<u64, Vec<Verdict>> = BTreeMap::new();
    while let Ok(msg) = results.try_recv() {
        match msg {
            Message::SessionResult {
                session,
                round,
                value,
                voted,
            } => streams
                .entry(session)
                .or_default()
                .push((round, value.map(f64::to_bits), voted)),
            Message::ResultBatch { session, results } => {
                let stream = streams.entry(session).or_default();
                for r in results {
                    stream.push((r.round, r.value.map(f64::to_bits), r.voted));
                }
            }
            other => panic!("unexpected sink frame {other:?}"),
        }
    }
    streams
}

/// Delivers every roster over one TCP connection, the sessions' readings
/// interleaved one by one and written in a single `write`, so the
/// daemon's reactor decodes them in (as good as always) one read and
/// stages them into one step per shard, tenants mixed. The trailing
/// `Shutdown` pushes out what is staged before the daemon closes the
/// connection, so end of stream is the cue that delivery is done.
fn deliver_over_one_socket(
    service: &Arc<VoterService>,
    rosters: &[Vec<BatchReading>],
) -> Option<TcpServer> {
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(service)).expect("bind");
    let mut wire = Vec::new();
    let longest = rosters.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (session, roster) in rosters.iter().enumerate() {
            if let Some(b) = roster.get(k) {
                wire.extend_from_slice(
                    &Message::SessionReading {
                        session: session as u64,
                        module: b.module,
                        round: b.round,
                        value: b.value,
                    }
                    .encode(),
                );
            }
        }
    }
    wire.extend_from_slice(&Message::Shutdown.encode());
    let mut tenant = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    tenant
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    tenant.write_all(&wire).expect("one write");
    let mut rest = Vec::new();
    tenant.read_to_end(&mut rest).expect("the daemon closes");
    assert!(rest.is_empty(), "nothing is answered: {rest:?}");
    Some(server)
}

proptest! {
    /// However a session's readings are grouped into bursts — any chunk
    /// sizes, any number of frames — the fused streams are bit-identical
    /// to feeding the same readings one command at a time, and every
    /// session's rounds come out in strictly increasing order.
    #[test]
    fn burst_grouping_is_bit_identical_to_per_reading_feed(
        sessions in 1usize..4,
        modules in 2u32..5,
        rounds in 2u64..8,
        rot in 0u32..4,
        jitter in prop::collection::vec(-5.0f64..5.0, 64..=64),
        chunk_sizes in prop::collection::vec(1usize..7, 1..12),
    ) {
        // Deterministic rosters: every module reports every round, with the
        // intra-round module order rotated per round so burst boundaries
        // land on varied shapes, and values derived from generated jitter.
        let jitter = &jitter;
        let rosters: Vec<Vec<BatchReading>> = (0..sessions)
            .map(|s| {
                (0..rounds)
                    .flat_map(|r| {
                        (0..modules).map(move |k| {
                            let m = (k + r as u32 + rot) % modules;
                            BatchReading {
                                module: ModuleId::new(m),
                                round: r,
                                value: 18.0
                                    + jitter[(s * 7 + m as usize * 3 + r as usize) % 64] * 0.01,
                            }
                        })
                    })
                    .collect()
            })
            .collect();

        // Reference: one `feed` call (one shard command) per reading.
        let per_reading = fuse_rosters(two_shards(), &rosters, |service| {
            for (session, roster) in rosters.iter().enumerate() {
                for b in roster {
                    service
                        .feed(session as u64, b.module, b.round, b.value)
                        .expect("feed");
                }
            }
            None
        });

        // Burst path: the same roster sliced into arbitrary chunks, each
        // travelling as one `feed_batch` → one data command.
        let bursts = fuse_rosters(two_shards(), &rosters, |service| {
            let mut cycle = 0usize;
            for (session, roster) in rosters.iter().enumerate() {
                let mut rest = &roster[..];
                while !rest.is_empty() {
                    let take = chunk_sizes[cycle % chunk_sizes.len()].min(rest.len());
                    cycle += 1;
                    let (chunk, remaining) = rest.split_at(take);
                    service.feed_batch(session as u64, chunk).expect("feed_batch");
                    rest = remaining;
                }
            }
            None
        });

        // Staged path: every session's frames interleaved in one socket
        // write → one data command per shard, tenants mixed.
        let staged = fuse_rosters(two_shards(), &rosters, |service| {
            deliver_over_one_socket(service, &rosters)
        });

        for (session, stream) in &per_reading {
            prop_assert!(
                !stream.is_empty(),
                "session {session} must fuse at least one round"
            );
            prop_assert!(
                stream.windows(2).all(|w| w[0].0 < w[1].0),
                "session {session} rounds must be strictly increasing: {stream:?}"
            );
        }
        prop_assert_eq!(&per_reading, &staged);
        prop_assert_eq!(per_reading, bursts);
    }
}

/// One session's roster of five modules over `rounds` rounds: module 3
/// reads 2.5 high from round 100 on, and module 4 skips four rounds running
/// in every sixteen, so under a lag tolerance of 2 the oldest of those
/// rounds goes out on the deadline, before any newer round completes.
fn long_roster(rounds: u64) -> Vec<BatchReading> {
    (0..rounds)
        .flat_map(|r| {
            (0..5u32)
                .filter(move |&m| !(m == 4 && (5..=8).contains(&(r % 16))))
                .map(move |m| BatchReading {
                    module: ModuleId::new(m),
                    round: r,
                    value: 18.0
                        + ((r * 31 + u64::from(m) * 17) % 13) as f64 * 0.01
                        + if m == 3 && r >= 100 { 2.5 } else { 0.0 },
                })
        })
        .collect()
}

/// A session's run of readings is assembled first and fused when the run
/// ends. This roster makes runs end at every kind of boundary at once:
/// 64-round frames cross the shard's 64-reading bursts mid-round, deadline
/// flushes fire mid-run, a one-tick idle allowance puts a sweep point every
/// 64 ticks, and one frame in three is traced. The stream must be
/// bit-identical to one command per reading.
#[test]
fn long_roster_frames_fuse_bit_identically_to_per_reading_feed() {
    const ROUNDS: u64 = 200;
    const FRAME_ROUNDS: u64 = 64;
    let config = || ServeConfig {
        idle_ticks: 1,
        lag_tolerance: 2,
        trace_sample: 3,
        ..two_shards()
    };
    let roster = long_roster(ROUNDS);
    let rosters = [roster];
    let per_reading = fuse_rosters(config(), &rosters, |service| {
        for b in &rosters[0] {
            service.feed(0, b.module, b.round, b.value).expect("feed");
        }
        None
    });
    let frames = fuse_rosters(config(), &rosters, |service| {
        for frame in rosters[0].chunk_by(|a, b| a.round / FRAME_ROUNDS == b.round / FRAME_ROUNDS) {
            service.feed_batch(0, frame).expect("feed_batch");
        }
        None
    });
    let stream = &per_reading[&0];
    assert_eq!(stream.len() as u64, ROUNDS, "every round fuses once");
    assert!(stream.windows(2).all(|w| w[0].0 < w[1].0));
    assert_eq!(per_reading, frames);
}

/// Runs one five-module session's `roster` through a one-shard service that
/// traces one frame in `every`, delivered by `deliver`, and returns the
/// trace ring's spans once the service has quiesced. Every round must fuse.
fn traced_spans(
    every: u64,
    roster: &[BatchReading],
    deliver: impl FnOnce(&Arc<VoterService>) -> Option<TcpServer>,
) -> Vec<Span> {
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 1,
            trace_sample: every,
            ..two_shards()
        },
        registry(),
    ));
    let (sink, results) = crossbeam::channel::unbounded();
    service
        .open_session(0, 5, &SpecSource::Named("avoc".into()), sink)
        .expect("open session");
    let front_end = deliver(&service);
    service.close_session(0).expect("close session");
    let quiesced = match front_end {
        Some(server) => server.shutdown(),
        None => service.drain(),
    };
    let rounds = roster.iter().map(|b| b.round + 1).max().unwrap_or(0);
    assert_eq!(quiesced.rounds_fused, rounds);
    drop(results);
    let spans = service.trace().snapshot();
    for stage in [Stage::Ingest, Stage::Queue, Stage::Fuse, Stage::Flush] {
        assert!(
            spans.iter().any(|s| s.stage == stage),
            "no {} span in {spans:?}",
            stage.as_str()
        );
    }
    spans
}

/// The rounds the fuse spans among `spans` name, in order.
fn fuse_span_rounds(spans: &[Span]) -> Vec<u64> {
    let mut rounds: Vec<u64> = spans
        .iter()
        .filter(|s| s.stage == Stage::Fuse)
        .map(|s| s.round)
        .collect();
    rounds.sort_unstable();
    rounds
}

/// Rounds fused in a batch share one clock pair, but a traced reading's
/// rounds are still timed one by one: the trace ring holds exactly one fuse
/// span for each round a sampled reading completed, and none for the rest,
/// next to the ingest, queue and flush spans. Every reading of a sampled
/// `FeedBatch` is traced; over a socket, one `SessionReading` frame in
/// `every` is, so a traced reading lands in a run whose earlier readings
/// completed rounds that were not.
#[test]
fn sampled_readings_leave_one_fuse_span_per_round_they_complete() {
    const ROUNDS: u64 = 60;
    const FRAME: usize = 7;
    let roster: Vec<BatchReading> = (0..ROUNDS)
        .flat_map(|r| {
            (0..5u32).map(move |m| BatchReading {
                module: ModuleId::new(m),
                round: r,
                value: 18.0 + f64::from(m) * 0.01,
            })
        })
        .collect();
    // Round r completes on reading 5r + 4.
    let completes = |r: u64| 5 * r + 4;

    // One sampling decision per frame: the first, third, fifth … frame.
    let batched = traced_spans(2, &roster, |service| {
        for frame in roster.chunks(FRAME) {
            service.feed_batch(0, frame).expect("feed_batch");
        }
        None
    });
    let sampled: Vec<u64> = (0..ROUNDS)
        .filter(|&r| (completes(r) / FRAME as u64).is_multiple_of(2))
        .collect();
    assert_eq!(fuse_span_rounds(&batched), sampled);

    // One sampling decision per reading: every third.
    let staged = traced_spans(3, &roster, |service| {
        deliver_over_one_socket(service, std::slice::from_ref(&roster))
    });
    let sampled: Vec<u64> = (0..ROUNDS)
        .filter(|&r| completes(r).is_multiple_of(3))
        .collect();
    assert_eq!(fuse_span_rounds(&staged), sampled);
}

/// Delivers the rosters over two connections at once, each written from
/// its own thread in 4 KiB pieces: connection `c` carries the sessions
/// whose index is `c` modulo 2, their readings interleaved one by one and
/// closed by a `Shutdown`. Sessions of both connections share both shards,
/// so with several reactors the shards' locks are taken from several
/// threads at once.
fn deliver_over_two_sockets(
    service: &Arc<VoterService>,
    rosters: &[Vec<BatchReading>],
) -> Option<TcpServer> {
    let server = TcpServer::start("127.0.0.1:0", Arc::clone(service)).expect("bind");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for conn in 0..2 {
            scope.spawn(move || {
                let mine: Vec<(u64, &Vec<BatchReading>)> = (0u64..)
                    .zip(rosters)
                    .filter(|(session, _)| session % 2 == conn)
                    .collect();
                let longest = mine.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
                let mut wire = Vec::new();
                for k in 0..longest {
                    for (session, roster) in &mine {
                        if let Some(b) = roster.get(k) {
                            let reading = Message::SessionReading {
                                session: *session,
                                module: b.module,
                                round: b.round,
                                value: b.value,
                            };
                            wire.extend_from_slice(&reading.encode());
                        }
                    }
                }
                wire.extend_from_slice(&Message::Shutdown.encode());
                let mut tenant = std::net::TcpStream::connect(addr).expect("connect");
                tenant
                    .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                    .expect("timeout");
                for piece in wire.chunks(4096) {
                    tenant.write_all(piece).expect("write");
                }
                let mut rest = Vec::new();
                tenant.read_to_end(&mut rest).expect("the daemon closes");
                assert!(rest.is_empty(), "nothing is answered: {rest:?}");
            });
        }
    });
    Some(server)
}

/// Readings fuse on whichever reactor decoded them: six sessions fed over
/// two concurrent connections, on one, two and four reactors, fuse streams
/// bit-identical to feeding every reading in process, one step each.
#[test]
fn two_connections_fuse_bit_identically_on_any_reactor_count() {
    let rosters: Vec<Vec<BatchReading>> = (0..6u32)
        .map(|s| {
            long_roster(120)
                .into_iter()
                .map(|b| BatchReading {
                    value: b.value + f64::from(s) * 0.25,
                    ..b
                })
                .collect()
        })
        .collect();
    let config = |reactors| ServeConfig {
        reactors,
        ..two_shards()
    };
    let per_reading = fuse_rosters(config(1), &rosters, |service| {
        for (session, roster) in (0u64..).zip(&rosters) {
            for b in roster {
                service
                    .feed(session, b.module, b.round, b.value)
                    .expect("feed");
            }
        }
        None
    });
    assert_eq!(per_reading.len(), rosters.len(), "every session fused");
    for reactors in [1, 2, 4] {
        let sockets = fuse_rosters(config(reactors), &rosters, |service| {
            deliver_over_two_sockets(service, &rosters)
        });
        assert_eq!(per_reading, sockets, "{reactors} reactor(s)");
    }
}
