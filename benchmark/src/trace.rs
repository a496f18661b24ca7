//! The traced run's spans.
//!
//! Spans are recorded from the bench's own code, kept in memory and
//! written out when the run ends. Two families: the wire side
//! (`loadgen.encode`, `loadgen.write`, `daemon.roundtrip`,
//! `loadgen.decode`) and, for one round in sixteen, an in-process replica
//! of the daemon's pipeline — the same public calls in the same order, on
//! the bytes that were just sent — as children of one `round` span.
//! Spans inside the daemon beyond what its `/trace` ring already exposes
//! are a later change.

use avoc_core::history::HistoryStore;
use avoc_core::VotingEngine;
use avoc_net::{BatchResult, CorkedWriter, DecodeStep, Message, SensorHub, StreamDecoder};
use avoc_store::{Durability, FileHistory, VerdictRecord};
use avoc_vdx::{build_engine, VdxSpec};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use crate::input::MODULES;
use crate::loadgen::now_ns;
use crate::stats::{percentile, self_time_ns};

/// One round in this many runs through the replica (and is sampled by the
/// traced daemon's own `trace_sample`).
pub const SAMPLE_EVERY: u64 = 16;

/// The replica's layers in pipeline order: span name, and the per-layer
/// metric its median is reported under.
pub const REPLICA_STAGES: [(&str, &str); 6] = [
    ("net.decode", "trace.net_decode_ns"),
    ("net.hub_assemble", "trace.net_hub_assemble_ns"),
    ("core.fuse", "trace.core_fuse_ns"),
    ("store.checkpoint", "trace.store_checkpoint_ns"),
    ("net.encode_result", "trace.net_encode_result_ns"),
    ("net.cork_flush", "trace.net_cork_flush_ns"),
];

/// The stages of the daemon's own `/trace` ring, and the per-layer metric
/// each one's median is reported under.
pub const DAEMON_STAGES: [(&str, &str); 4] = [
    ("ingest", "serve.stage_ingest_p50_us"),
    ("queue", "serve.stage_queue_p50_us"),
    ("fuse", "serve.stage_fuse_p50_us"),
    ("flush", "serve.stage_flush_p50_us"),
];

#[derive(Debug, Clone)]
pub struct Span {
    /// 0 until the span is written out, unless a child refers to it.
    pub id: u32,
    /// Id of the span that caused this one (0 = none).
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans of one round share its id (`u64::MAX` = no round).
    pub round_id: u64,
}

impl Span {
    pub fn new(name: &'static str, start_ns: u64, end_ns: u64, round_id: u64) -> Span {
        Span {
            id: 0,
            parent: 0,
            name,
            start_ns,
            end_ns,
            round_id,
        }
    }
}

/// An in-process copy of one session's path through the daemon's layers.
pub struct Replica {
    decoder: StreamDecoder,
    hub: SensorHub,
    engine: VotingEngine,
    /// The session's WAL on durable workloads. The replica's checkpoint is
    /// the `avoc-store` half — history rows, verdict row, commit marker;
    /// the daemon's meta-sidecar rewrite is private to `avoc-serve` and is
    /// priced by `serve.inproc_durable_round_us` instead.
    wal: Option<FileHistory>,
    writer: CorkedWriter<std::io::Sink>,
    next_id: u32,
}

impl Replica {
    pub fn new(wal: Option<&Path>) -> Replica {
        Replica {
            decoder: StreamDecoder::new(),
            hub: SensorHub::new((0..MODULES).map(avoc_core::ModuleId::new).collect())
                .with_lag_tolerance(8),
            engine: build_engine(&VdxSpec::avoc()).expect("the AVOC preset builds"),
            wal: wal.map(|p| {
                FileHistory::open_with(p, Durability::Flush).expect("the replica WAL opens")
            }),
            writer: CorkedWriter::new(std::io::sink()),
            next_id: 1,
        }
    }

    /// Runs the frames in `wire` (whole rounds of one session) through the
    /// layers, recording a `round` span and one child per layer. Returns
    /// how many rounds fused.
    pub fn run(&mut self, session: u64, wire: &[u8], round_id: u64, spans: &mut Vec<Span>) -> u64 {
        let parent = self.next_id;
        self.next_id += 1;
        let begin = now_ns();
        // A child span covers the calls into one layer and nothing else;
        // what the replica does between layers stays the parent's own time.
        let mut layer = |name: &'static str, start_ns: u64| {
            spans.push(Span {
                parent,
                ..Span::new(name, start_ns, now_ns(), round_id)
            });
        };

        let t = now_ns();
        self.decoder.extend(wire);
        let mut frames = Vec::new();
        while let DecodeStep::Frame(msg) = self.decoder.next_frame() {
            frames.push(msg);
        }
        layer("net.decode", t);

        let mut readings = Vec::new();
        for msg in frames {
            match msg {
                Message::SessionReading {
                    module,
                    round,
                    value,
                    ..
                } => readings.push(Message::Reading {
                    module,
                    round,
                    value,
                }),
                Message::FeedBatch {
                    readings: batch, ..
                } => {
                    readings.extend(batch.iter().map(|r| Message::Reading {
                        module: r.module,
                        round: r.round,
                        value: r.value,
                    }));
                }
                _ => {}
            }
        }

        let t = now_ns();
        let mut rounds = Vec::new();
        for reading in readings {
            rounds.extend(self.hub.accept(reading));
        }
        layer("net.hub_assemble", t);

        let t = now_ns();
        let mut results = Vec::with_capacity(rounds.len());
        for round in &rounds {
            let fused = self.engine.submit_ref(round).expect("a full round fuses");
            results.push(BatchResult {
                round: round.round,
                value: fused.number(),
                voted: fused.is_voted(),
            });
        }
        layer("core.fuse", t);

        if let Some(wal) = &mut self.wal {
            let t = now_ns();
            for r in &results {
                wal.set_batch(&self.engine.histories());
                wal.append_markers(
                    &[VerdictRecord {
                        round: r.round,
                        value: r.value,
                        voted: r.voted,
                    }],
                    Some(r.round),
                );
            }
            layer("store.checkpoint", t);
        }

        let fused = results.len() as u64;
        let verdicts = match results.as_slice() {
            [one] => Message::SessionResult {
                session,
                round: one.round,
                value: one.value,
                voted: one.voted,
            },
            _ => Message::ResultBatch { session, results },
        };
        if fused > 0 {
            let t = now_ns();
            self.writer.push(&verdicts);
            layer("net.encode_result", t);
            let t = now_ns();
            self.writer.flush().expect("a sink never fails");
            layer("net.cork_flush", t);
        }

        spans.push(Span {
            id: parent,
            ..Span::new("round", begin, now_ns(), round_id)
        });
        fused
    }
}

/// Writes spans as JSON lines; spans without an id get the next free one.
pub fn write_jsonl(path: &Path, spans: &mut [Span]) -> std::io::Result<()> {
    let mut next = spans.iter().map(|s| s.id).max().unwrap_or(0) + 1;
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter_mut() {
        if s.id == 0 {
            s.id = next;
            next += 1;
        }
        let round = if s.round_id == u64::MAX {
            "null".to_string()
        } else {
            s.round_id.to_string()
        };
        let parent = if s.parent == 0 {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            file,
            "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round_id\": {round}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    file.flush()
}

/// `daemon.roundtrip` spans: for each `loadgen.write`, from the write
/// returning to the first socket read that answered its round.
pub fn roundtrips(spans: &[Span]) -> Vec<Span> {
    let mut decodes: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "loadgen.decode")
        .collect();
    decodes.sort_unstable_by_key(|s| s.start_ns);
    spans
        .iter()
        .filter(|s| s.name == "loadgen.write")
        .filter_map(|w| {
            let after = decodes.partition_point(|d| d.start_ns < w.end_ns);
            let first = decodes[after..]
                .iter()
                .find(|d| d.round_id != u64::MAX && d.round_id >= w.round_id)?;
            Some(Span::new(
                "daemon.roundtrip",
                w.end_ns,
                first.start_ns,
                w.round_id,
            ))
        })
        .collect()
}

/// Median duration of the spans called `name`, per round fused, in ns.
pub fn stage_p50_ns(spans: &[Span], name: &str, rounds_per_span: u64) -> f64 {
    let mut durs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    percentile(&mut durs, 0.5) as f64 / rounds_per_span.max(1) as f64
}

/// Median self time of the replica's `round` spans — what the replica
/// spends outside its six layers — per round fused, in ns.
pub fn round_self_p50_ns(spans: &[Span], rounds_per_span: u64) -> f64 {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for c in spans.iter().filter(|c| c.parent != 0) {
        children
            .entry(c.parent)
            .or_default()
            .push((c.start_ns, c.end_ns));
    }
    let mut selfs: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|r| {
            let of_round = children.get(&r.id).map_or(&[][..], Vec::as_slice);
            self_time_ns(r.start_ns, r.end_ns, of_round)
        })
        .collect();
    percentile(&mut selfs, 0.5) as f64 / rounds_per_span.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::Input;
    use avoc_core::ModuleId;
    use bytes::BytesMut;

    #[test]
    fn replica_fuses_what_the_reference_fuses() {
        let input = Input::generate(1);
        let mut replica = Replica::new(None);
        let mut spans = Vec::new();
        let mut wire = BytesMut::new();
        for module in 0..MODULES {
            Message::SessionReading {
                session: 0,
                module: ModuleId::new(module),
                round: 0,
                value: input.value(0, module, 0),
            }
            .encode_into(&mut wire);
        }
        assert_eq!(replica.run(0, &wire, 0, &mut spans), 1);
        let round = spans
            .iter()
            .find(|s| s.name == "round")
            .expect("a round span");
        let children: Vec<&Span> = spans.iter().filter(|s| s.parent == round.id).collect();
        // memory-only: every layer but the checkpoint
        assert_eq!(children.len(), REPLICA_STAGES.len() - 1);
        assert!(children
            .iter()
            .all(|c| c.start_ns >= round.start_ns && c.end_ns <= round.end_ns));
        assert!(round_self_p50_ns(&spans, 1) <= (round.end_ns - round.start_ns) as f64);
    }

    #[test]
    fn roundtrip_pairs_a_write_with_the_read_that_answers_it() {
        let spans = vec![
            Span::new("loadgen.write", 100, 120, 7),
            Span::new("loadgen.decode", 110, 115, 6), // an earlier round's tail
            Span::new("loadgen.decode", 400, 450, 7),
        ];
        let rt = roundtrips(&spans);
        assert_eq!(rt.len(), 1);
        assert_eq!(
            (rt[0].start_ns, rt[0].end_ns, rt[0].round_id),
            (120, 400, 7)
        );
    }
}
