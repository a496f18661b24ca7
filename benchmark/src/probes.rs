//! Per-layer probes: each layer's public calls timed from the bench
//! process, single-threaded, on the generated input. A timing is the best
//! of [`PASSES`] passes; allocations come from the counting allocator in
//! `main.rs`. Probes do not depend on the workload — a traced run of any
//! workload reports all of them, so a layer number is always at hand next
//! to the end-to-end number it should explain.

use avoc_core::history::HistoryStore;
use avoc_core::{ModuleId, Round};
use avoc_gateway::HashRing;
use avoc_net::{
    BatchResult, CorkedWriter, DecodeStep, Message, SensorHub, SpecSource, StreamDecoder,
};
use avoc_serve::{Persistence, ServeConfig, SpecRegistry, VoterService};
use avoc_store::{session_wal_path, Durability, FileHistory, TieredStore, VerdictRecord};
use avoc_vdx::{build_engine, VdxSpec};
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::alloc_count;
use crate::daemon::{StateDir, CLUSTER_SECRET};
use crate::input::{Input, MODULES};
use crate::stats::percentile;

const PASSES: usize = 5;
const CALLS: usize = 10_000;
/// Rounds per `FeedBatch` / `ResultBatch` frame in the codec probes.
const BATCH_ROUNDS: u64 = 64;
/// Rounds per session in the store probes.
const STORE_ROUNDS: u64 = 2_000;
const STORE_SESSIONS: u64 = 4;
const SPEC_JSON: &str = include_str!("../../specs/avoc.json");

/// ns per call: the best of `PASSES` passes of `calls` calls.
fn best_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Seconds for one call: the best of `PASSES`.
fn best_secs<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn round_of(input: &Input, round: u64) -> Round {
    let values: Vec<f64> = (0..MODULES).map(|m| input.value(0, m, round)).collect();
    Round::from_numbers(round, &values)
}

fn core(input: &Input, out: &mut Vec<(&'static str, f64)>) {
    let rounds: Vec<Round> = (0..CALLS as u64).map(|r| round_of(input, r)).collect();
    let mut p50 = f64::INFINITY;
    let mut p99 = f64::INFINITY;
    let mut allocs = u64::MAX;
    for _ in 0..PASSES {
        let mut engine = build_engine(&VdxSpec::avoc()).expect("the AVOC preset builds");
        engine
            .submit_ref(&rounds[0])
            .expect("bootstrap round fuses");
        let before = alloc_count();
        let mut each: Vec<u64> = Vec::with_capacity(CALLS);
        let counted = alloc_count() - before;
        for round in &rounds[1..] {
            let t = Instant::now();
            black_box(engine.submit_ref(round).expect("a full round fuses"));
            each.push(t.elapsed().as_nanos() as u64);
        }
        allocs = allocs.min(alloc_count() - before - counted);
        p50 = p50.min(percentile(&mut each, 0.50) as f64);
        p99 = p99.min(percentile(&mut each, 0.99) as f64);
    }
    let bootstrap = best_secs(|| {
        let mut engine = build_engine(&VdxSpec::avoc()).expect("the AVOC preset builds");
        engine
            .submit_ref(&rounds[0])
            .expect("bootstrap round fuses")
            .is_voted()
    });
    out.extend([
        ("core.fuse_p50_ns", p50),
        ("core.fuse_p99_ns", p99),
        (
            "core.fuse_allocs_per_round",
            allocs as f64 / (CALLS - 1) as f64,
        ),
        ("core.bootstrap_round_us", bootstrap * 1e6),
    ]);
}

fn net(input: &Input, out: &mut Vec<(&'static str, f64)>) {
    let reading = Message::SessionReading {
        session: 0,
        module: ModuleId::new(2),
        round: 7,
        value: input.value(0, 2, 7),
    };
    let mut frame = BytesMut::with_capacity(1 << 16);
    let encode_reading = best_ns(CALLS, || {
        frame.clear();
        black_box(&reading).encode_into(&mut frame);
    });
    let wire = reading.encode();
    let mut decoder = StreamDecoder::new();
    let decode_reading = best_ns(CALLS, || {
        decoder.extend(&wire);
        black_box(matches!(decoder.next_frame(), DecodeStep::Frame(_)));
    });

    let mut batch = Vec::new();
    input.readings(0, 0..BATCH_ROUNDS, &mut batch);
    let per_frame = CALLS / 20;
    let encode_batch = best_ns(per_frame, || {
        frame.clear();
        Message::encode_feed_batch_into(0, black_box(&batch), &mut frame);
    });
    let wire = frame.clone();
    let decode_batch = best_ns(per_frame, || {
        decoder.extend(&wire);
        black_box(matches!(decoder.next_frame(), DecodeStep::Frame(_)));
    });

    let results = Message::ResultBatch {
        session: 0,
        results: (0..BATCH_ROUNDS)
            .map(|round| BatchResult {
                round,
                value: Some(input.value(0, 0, round)),
                voted: true,
            })
            .collect(),
    };
    let encode_results = best_ns(per_frame, || {
        frame.clear();
        black_box(&results).encode_into(&mut frame);
    });
    let wire = frame.clone();
    let decode_results = best_ns(per_frame, || {
        decoder.extend(&wire);
        black_box(matches!(decoder.next_frame(), DecodeStep::Frame(_)));
    });

    let mut hub = SensorHub::new((0..MODULES).map(ModuleId::new).collect()).with_lag_tolerance(8);
    let mut round = 0u64;
    let hub_round = best_ns(CALLS, || {
        for module in 0..MODULES {
            black_box(hub.accept(Message::Reading {
                module: ModuleId::new(module),
                round,
                value: 18.0,
            }));
        }
        round += 1;
    });

    let verdict = Message::SessionResult {
        session: 0,
        round: 7,
        value: Some(18.5),
        voted: true,
    };
    let mut writer = CorkedWriter::new(std::io::sink());
    let cork = best_ns(CALLS, || {
        writer.push(black_box(&verdict));
        writer.flush().expect("a sink never fails");
    });

    let per_batch_reading = (BATCH_ROUNDS * MODULES as u64) as f64;
    out.extend([
        ("net.encode_reading_ns", encode_reading),
        ("net.decode_reading_ns", decode_reading),
        (
            "net.encode_feedbatch_ns_per_reading",
            encode_batch / per_batch_reading,
        ),
        (
            "net.decode_feedbatch_ns_per_reading",
            decode_batch / per_batch_reading,
        ),
        (
            "net.encode_resultbatch_ns_per_result",
            encode_results / BATCH_ROUNDS as f64,
        ),
        (
            "net.decode_resultbatch_ns_per_result",
            decode_results / BATCH_ROUNDS as f64,
        ),
        ("net.hub_assemble_ns_per_round", hub_round),
        ("net.cork_flush_ns_per_frame", cork),
    ]);
}

/// Writes one session's WAL the way a checkpoint-per-round daemon does —
/// history rows, a verdict row, a commit marker — and returns the seconds
/// it took.
fn write_wal(dir: &Path, session: u64) -> f64 {
    let mut wal = FileHistory::open_with(session_wal_path(dir, session), Durability::Flush)
        .expect("the probe WAL opens");
    let started = Instant::now();
    let mut batch = Vec::with_capacity(MODULES as usize);
    for r in 0..STORE_ROUNDS {
        batch.clear();
        for m in 0..MODULES {
            let trust = 0.5 + ((r * 31 + u64::from(m) * 7) % 97) as f64 / 200.0;
            batch.push((ModuleId::new(m), trust));
        }
        wal.set_batch(&batch);
        wal.append_markers(
            &[VerdictRecord {
                round: r,
                value: Some(18.0 + (r % 40) as f64 * 0.125),
                voted: true,
            }],
            Some(r),
        );
    }
    started.elapsed().as_secs_f64()
}

fn dir_bytes(dir: &Path, ext: &str) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == ext))
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

fn store(out: &mut Vec<(&'static str, f64)>) -> std::io::Result<()> {
    let dir = StateDir::create("probe-store");
    let krounds = (STORE_SESSIONS * STORE_ROUNDS) as f64 / 1e3;
    let append_s = (0..STORE_SESSIONS)
        .map(|s| write_wal(&dir.0, s))
        .fold(f64::INFINITY, f64::min);
    let wal_bytes = dir_bytes(&dir.0, "wal");

    let allocs_before = alloc_count();
    let mut replay_s = f64::INFINITY;
    for _ in 0..PASSES {
        let started = Instant::now();
        for s in 0..STORE_SESSIONS {
            black_box(FileHistory::open(session_wal_path(&dir.0, s))?.snapshot());
        }
        replay_s = replay_s.min(started.elapsed().as_secs_f64());
    }
    let replay_allocs = (alloc_count() - allocs_before) as f64 / PASSES as f64;

    let tier = TieredStore::open(&dir.0)?;
    let started = Instant::now();
    let report = tier.compact()?;
    let compact_s = started.elapsed().as_secs_f64();
    let load_s = best_secs(|| {
        (0..STORE_SESSIONS)
            .map(|s| tier.history_at(s, STORE_ROUNDS - 1).map(|h| h.is_some()))
            .collect::<Result<Vec<_>, _>>()
    });
    out.extend([
        (
            "store.checkpoint_us_per_round",
            append_s * 1e6 / STORE_ROUNDS as f64,
        ),
        (
            "store.wal_bytes_per_round",
            wal_bytes as f64 / (krounds * 1e3),
        ),
        ("store.wal_replay_ms_per_kround", replay_s * 1e3 / krounds),
        (
            "store.replay_allocs_per_round",
            replay_allocs / (krounds * 1e3),
        ),
        ("store.compact_ms_per_kround", compact_s * 1e3 / krounds),
        (
            "store.segment_bytes_per_round",
            report.bytes_written as f64 / (krounds * 1e3),
        ),
        ("store.segment_load_ms_per_kround", load_s * 1e3 / krounds),
    ]);
    Ok(())
}

fn service(state_dir: Option<&Path>) -> VoterService {
    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    VoterService::start(
        ServeConfig {
            idle_ticks: u64::MAX,
            persistence: Persistence {
                state_dir: state_dir.map(Path::to_path_buf),
                node_id: 1,
                cluster_secret: Some(CLUSTER_SECRET),
                ..Persistence::default()
            },
            ..ServeConfig::default()
        },
        Arc::new(registry),
    )
}

/// Waits for `n` frames matching `want` on an in-process result sink.
fn await_frames(
    rx: &Receiver<Message>,
    n: usize,
    mut want: impl FnMut(&Message) -> bool,
) -> std::io::Result<()> {
    let mut seen = 0;
    while seen < n {
        let msg = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| std::io::Error::other("an in-process probe timed out"))?;
        seen += usize::from(want(&msg));
    }
    Ok(())
}

/// Opens `sessions` resumable sessions and feeds each `rounds` rounds in
/// `FeedBatch`-sized bursts; returns seconds per fused round.
fn feed_inproc(
    svc: &VoterService,
    input: &Input,
    sessions: u64,
    rounds: u64,
    rx_of: &mut Vec<Receiver<Message>>,
) -> std::io::Result<f64> {
    let spec = SpecSource::Named("avoc".into());
    for s in 0..sessions {
        let (tx, rx) = unbounded();
        svc.resume_session(s, MODULES, &spec, 7, None, tx)
            .map_err(std::io::Error::other)?;
        await_frames(&rx, 1, |m| matches!(m, Message::Resumed { .. }))?;
        rx_of.push(rx);
    }
    let fused_before = svc.counters().rounds_fused;
    let mut batch = Vec::new();
    let started = Instant::now();
    for first in (0..rounds).step_by(BATCH_ROUNDS as usize) {
        for s in 0..sessions {
            batch.clear();
            input.readings(s, first..(first + BATCH_ROUNDS).min(rounds), &mut batch);
            svc.feed_batch(s, &batch).map_err(std::io::Error::other)?;
        }
    }
    while svc.counters().rounds_fused < fused_before + sessions * rounds {
        if started.elapsed() > Duration::from_secs(30) {
            return Err(std::io::Error::other(
                "an in-process probe never finished fusing",
            ));
        }
        std::thread::yield_now();
    }
    Ok(started.elapsed().as_secs_f64() / (sessions * rounds) as f64)
}

fn serve(input: &Input, out: &mut Vec<(&'static str, f64)>) -> std::io::Result<()> {
    let spec = SpecSource::Named("avoc".into());

    let mut inproc_s = f64::INFINITY;
    for _ in 0..PASSES {
        let svc = service(None);
        inproc_s = inproc_s.min(feed_inproc(&svc, input, 2, 20_000, &mut Vec::new())?);
        svc.drain();
    }

    let svc = service(None);
    let mut sinks = Vec::new();
    let opens = 256u64;
    let started = Instant::now();
    for s in 0..opens {
        let (tx, rx) = unbounded();
        svc.resume_session(s, MODULES, &spec, 7, None, tx)
            .map_err(std::io::Error::other)?;
        sinks.push(rx);
    }
    for rx in &sinks {
        await_frames(rx, 1, |m| matches!(m, Message::Resumed { .. }))?;
    }
    let open_s = started.elapsed().as_secs_f64() / opens as f64;
    svc.drain();

    // Durable: 8 sessions × 256 rounds, checkpoint every round; then a hard
    // kill, a fresh service on the same directory and a warm resume of each.
    let dir = StateDir::create("probe-serve");
    let (sessions, rounds) = (8u64, 256u64);
    let svc = service(Some(&dir.0));
    let durable_s = feed_inproc(&svc, input, sessions, rounds, &mut sinks)?;
    svc.kill();
    let svc = service(Some(&dir.0));
    let started = Instant::now();
    let mut acks = Vec::new();
    for s in 0..sessions {
        let (tx, rx) = unbounded();
        svc.resume_session(s, MODULES, &spec, 7, Some(rounds - 1), tx)
            .map_err(std::io::Error::other)?;
        acks.push(rx);
    }
    for rx in &acks {
        await_frames(rx, 1, |m| matches!(m, Message::Resumed { warm: true, .. }))?;
    }
    let resume_s = started.elapsed().as_secs_f64() / sessions as f64;

    // What one migration ships: the meta sidecar and the compacted WAL.
    let (tx, rx) = unbounded();
    svc.export_session(0, 2, 1, "127.0.0.1:1", tx)
        .map_err(std::io::Error::other)?;
    let mut export_bytes = 0;
    await_frames(&rx, 1, |m| match m {
        Message::SessionState { meta, wal, .. } => {
            export_bytes = meta.len() + wal.len();
            true
        }
        _ => false,
    })?;
    svc.kill();

    out.extend([
        ("serve.inproc_round_ns", inproc_s * 1e9),
        ("serve.inproc_durable_round_us", durable_s * 1e6),
        ("serve.open_session_us", open_s * 1e6),
        ("serve.inproc_cold_resume_ms_per_session", resume_s * 1e3),
        ("gateway.export_bytes_per_session", export_bytes as f64),
    ]);
    Ok(())
}

/// Runs every probe; `(metric, value)` in a fixed order.
pub fn run(seed: u64) -> std::io::Result<Vec<(&'static str, f64)>> {
    let mut out = Vec::new();
    let gen_s = best_secs(|| Input::generate(seed));
    let input = Input::generate(seed);
    out.push(("sim.trace_gen_ms", gen_s * 1e3));
    let build_s = best_secs(|| {
        build_engine(&VdxSpec::from_json(SPEC_JSON).expect("specs/avoc.json parses"))
            .expect("specs/avoc.json builds")
            .voter_name()
    });
    out.push(("vdx.parse_build_us", build_s * 1e6));
    core(&input, &mut out);
    net(&input, &mut out);
    store(&mut out)?;
    serve(&input, &mut out)?;

    let histogram = avoc_obs::Histogram::latency_ns();
    let mut v = 1u64;
    out.push((
        "obs.histogram_record_ns",
        best_ns(CALLS, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            histogram.record(black_box(v >> 40));
        }),
    ));
    let ring = HashRing::new(&[1, 2, 3], 64);
    let mut session = 0u64;
    out.push((
        "gateway.ring_owner_ns",
        best_ns(CALLS, || {
            session += 1;
            black_box(ring.owner(black_box(session)));
        }),
    ));
    Ok(out)
}
