//! Property tests for the batched shard handoff: readings that share a
//! data command — a `FeedBatch`, or the `SessionReading` frames of several
//! sessions decoded by one socket read — must be observationally identical
//! to the same readings fed one command at a time. "Identical" means
//! identical — per-session result streams are compared bit-for-bit
//! (`f64::to_bits`), because every path feeds the very same fusion engines
//! and any reordering or dropped reading would move a fused value or a
//! verdict.

use avoc::core::ModuleId;
use avoc::net::{BatchReading, Message, SpecSource};
use avoc::serve::{Backpressure, ServeConfig, SpecRegistry, TcpServer, VoterService};
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

/// Runs `rosters` (one ordered reading list per session) through a fresh
/// service and returns each session's result stream in emission order.
/// `deliver` decides how the rosters reach the service — per-reading
/// `feed`, chunked `feed_batch`, or frames over a socket, in which case it
/// hands back the front-end it started so the harness can shut it down.
/// The sessions emit to an in-process sink whichever way their readings
/// arrive.
fn fuse_rosters(
    rosters: &[Vec<BatchReading>],
    deliver: impl FnOnce(&Arc<VoterService>) -> Option<TcpServer>,
) -> BTreeMap<u64, Vec<Verdict>> {
    let service = Arc::new(VoterService::start(
        ServeConfig {
            shards: 2,
            backpressure: Backpressure::Block,
            ..ServeConfig::default()
        },
        registry(),
    ));
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
    match front_end {
        Some(server) => drop(server.shutdown()),
        None => drop(service.drain()),
    }
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
/// stages them into one command per shard, tenants mixed. The trailing
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
        let per_reading = fuse_rosters(&rosters, |service| {
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
        let bursts = fuse_rosters(&rosters, |service| {
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
        let staged = fuse_rosters(&rosters, |service| {
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
