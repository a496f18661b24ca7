//! What a run reports: the metric tables `BENCHMARK.json` is written
//! from, the aggregation over repetitions and slices, one printed line per
//! metric and the machine-readable result on the last line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::daemon::{cores, crashed, fs_type, out_dir};
use crate::loadgen::Slice;
use crate::stats::{best_decile, best_of, median, rep_spread_pct, Better};
use crate::trace::{self, DAEMON_STAGES, REPLICA_STAGES};
use crate::workload::{repetition, Rep, Workload, REPS};
use crate::{arm_watchdog, probes};

/// Seconds one run measures across its repetitions (`run_seconds`).
pub const RUN_SECONDS: u64 = 12;
pub const DEFAULT_SEED: u64 = 1;
/// A repetition that takes longer than this is a hang: the run is aborted.
const REP_TIMEOUT: Duration = Duration::from_secs(60);
/// Tries at one repetition before its last result, or error, stands.
const MAX_ATTEMPTS: u32 = 3;
/// Nothing is tried again once the run has taken this long.
const RETRY_BUDGET: Duration = Duration::from_secs(90);

/// An end-to-end metric: what a user of the daemon would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// The repetition's own value.
    pub of: fn(&Rep) -> f64,
    /// A slice's value, for the timings that are taken over slices.
    pub of_slice: Option<fn(&Slice) -> f64>,
}

/// Every end-to-end metric is defined on every workload. A bound is three
/// times the largest run-to-run spread the metric showed on a gated
/// workload (ten runs, ten seeds) and at least twice its largest A/A gap
/// (`AA.md`), capped at the contract's 0.25 — where this host's neighbours
/// put all four timings.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        of: |r| r.setup_s,
        of_slice: None,
    },
    EndToEnd {
        name: "verdict_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        of: |r| r.verdict_p50_us,
        of_slice: Some(|s| s.p50_us),
    },
    EndToEnd {
        name: "rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        of: |r| r.rounds_per_s,
        of_slice: Some(|s| s.rounds_per_s),
    },
    EndToEnd {
        name: "daemon_cpu_us_per_round",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        of: |r| r.daemon_cpu_us_per_round,
        of_slice: Some(|s| s.cpu_us_per_round),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        of: |r| r.peak_rss_mb,
        of_slice: None,
    },
    EndToEnd {
        name: "recover_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        of: |r| r.recover_ms,
        of_slice: None,
    },
];

/// The per-layer metrics, `<layer>.<metric>`; lower is better for all of
/// them. A layer that does not run on a workload reports 0 there.
pub const PER_LAYER: [(&str, &str); 77] = [
    // probes: public calls timed in-process
    ("sim.trace_gen_ms", "ms"),
    ("vdx.parse_build_us", "us"),
    ("core.fuse_p50_ns", "ns"),
    ("core.fuse_p99_ns", "ns"),
    ("core.fuse_allocs_per_round", "count"),
    ("core.bootstrap_round_us", "us"),
    ("net.encode_reading_ns", "ns"),
    ("net.decode_reading_ns", "ns"),
    ("net.encode_feedbatch_ns_per_reading", "ns"),
    ("net.decode_feedbatch_ns_per_reading", "ns"),
    ("net.encode_resultbatch_ns_per_result", "ns"),
    ("net.decode_resultbatch_ns_per_result", "ns"),
    ("net.hub_assemble_ns_per_round", "ns"),
    ("net.cork_flush_ns_per_frame", "ns"),
    ("store.checkpoint_us_per_round", "us"),
    ("store.wal_bytes_per_round", "B"),
    ("store.wal_replay_ms_per_kround", "ms"),
    ("store.replay_allocs_per_round", "count"),
    ("store.compact_ms_per_kround", "ms"),
    ("store.segment_bytes_per_round", "B"),
    ("store.segment_load_ms_per_kround", "ms"),
    ("serve.inproc_round_ns", "ns"),
    ("serve.inproc_durable_round_us", "us"),
    ("serve.open_session_us", "us"),
    ("serve.inproc_cold_resume_ms_per_session", "ms"),
    ("obs.histogram_record_ns", "ns"),
    ("gateway.ring_owner_ns", "ns"),
    ("gateway.export_bytes_per_session", "B"),
    // observed from outside during an untraced repetition
    ("daemon.ctx_switches_per_kround", "count"),
    ("daemon.threads", "count"),
    ("daemon.fds", "count"),
    ("daemon.rss_bytes_per_session", "B"),
    ("net.epoll_wakeups_per_kround", "count"),
    ("net.writer_flushes_per_kround", "count"),
    ("net.writer_writes_per_kround", "count"),
    ("net.loop_iter_p50_us", "us"),
    ("net.readiness_dispatch_p50_us", "us"),
    ("net.wire_bytes_in_per_round", "B"),
    ("net.wire_bytes_out_per_round", "B"),
    ("serve.handoff_sends_per_kround", "count"),
    ("serve.result_batches_per_kround", "count"),
    ("serve.results_dropped", "count"),
    ("serve.readings_dropped", "count"),
    ("serve.shard_queue_high_water", "count"),
    ("serve.fuse_p50_ns", "ns"),
    ("serve.checkpoint_p50_us", "us"),
    ("serve.checkpoint_bytes_per_round", "B"),
    ("serve.wal_replay_ms", "ms"),
    ("serve.segment_load_ms", "ms"),
    ("obs.scrape_ms", "ms"),
    ("obs.scrape_bytes", "B"),
    ("obs.series_count", "count"),
    ("gateway.redirect_rtt_us", "us"),
    ("gateway.drain_ms", "ms"),
    ("gateway.migrate_ms_per_session", "ms"),
    ("gateway.migration_pause_ms", "ms"),
    ("loadgen.send_late_p99_us", "us"),
    ("loadgen.cpu_us_per_round", "us"),
    ("loadgen.verdict_p99_us", "us"),
    ("loadgen.host_steal_pct", "%"),
    ("loadgen.rep_spread_pct", "%"),
    ("loadgen.invalid_reps", "count"),
    // the traced repetitions
    ("serve.stage_ingest_p50_us", "us"),
    ("serve.stage_queue_p50_us", "us"),
    ("serve.stage_fuse_p50_us", "us"),
    ("serve.stage_flush_p50_us", "us"),
    ("trace.net_decode_ns", "ns"),
    ("trace.net_hub_assemble_ns", "ns"),
    ("trace.core_fuse_ns", "ns"),
    ("trace.store_checkpoint_ns", "ns"),
    ("trace.net_encode_result_ns", "ns"),
    ("trace.net_cork_flush_ns", "ns"),
    ("trace.replica_self_ns", "ns"),
    ("trace.roundtrip_p50_us", "us"),
    ("trace.residual_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The value recorded under `name` in a `(metric, value)` list; 0 if absent.
pub fn layer_value(layers: &[(&'static str, f64)], name: &str) -> f64 {
    layers
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// What one invocation measured on one workload.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    /// The repetitions the end-to-end values come from (untraced).
    pub reps: Vec<Rep>,
    /// Repetitions (and probe passes) discarded and run again.
    pub invalid_reps: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values (traced invocations only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The values of `metric` on the slices of every repetition that define
    /// it (none for a metric that is not taken over slices).
    fn slice_values(&self, metric: &EndToEnd) -> Vec<f64> {
        let Some(of_slice) = metric.of_slice else {
            return Vec::new();
        };
        let slices = self.reps.iter().flat_map(|r| &r.slices);
        slices.map(of_slice).filter(|v| *v > 0.0).collect()
    }

    /// The run's value of an end-to-end metric. A timing is taken over the
    /// slices of all the repetitions and is the value one slice in ten
    /// beats: on this host a slow spell lasts seconds to minutes, and the
    /// fast tenth of some hundred slices moves half as far with it as the
    /// best of six whole repetitions does. `setup_s` is the median
    /// repetition (set-up happens once per repetition; the median is what a
    /// later change moving work into set-up cannot dodge); everything else
    /// is the best repetition.
    pub fn value(&self, metric: &EndToEnd) -> f64 {
        let mut pooled = self.slice_values(metric);
        let values: Vec<f64> = self.reps.iter().map(metric.of).collect();
        if !pooled.is_empty() {
            best_decile(&mut pooled, metric.better)
        } else if metric.name == "setup_s" {
            median(&values)
        } else {
            best_of(&values, metric.better)
        }
    }

    /// The contract's result object.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        };
        if self.traced {
            for (name, unit) in PER_LAYER {
                push(name, layer_value(&self.layers, name), unit);
            }
        } else {
            for m in &END_TO_END {
                push(m.name, self.value(m), m.unit);
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }

    /// One `workload metric value unit n=<samples>` line per metric.
    pub fn print_lines(&self) {
        let w = self.workload.name();
        for m in &END_TO_END {
            // n = what the value was picked from: slices, or repetitions.
            let n = match self.slice_values(m).len() {
                0 => self.reps.len(),
                slices => slices,
            };
            println!("{w} {} {} {} n={n}", m.name, self.value(m), m.unit);
        }
        for (name, value) in &self.layers {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| n == name)
                .map_or("", |(_, u)| u);
            println!("{w} {name} {value} {unit} n={}", self.reps.len());
        }
        println!(
            "{w} operations attempted={} failed={} invalid_reps={}",
            self.attempted, self.failed, self.invalid_reps
        );
    }

    /// The run as JSON, with every repetition's raw values so a reader can
    /// see the spread the aggregate hides.
    pub fn to_json(&self) -> String {
        let mut reps = String::new();
        for (i, r) in self.reps.iter().enumerate() {
            let values: Vec<String> = END_TO_END
                .iter()
                .map(|m| format!("\"{}\": {}", m.name, (m.of)(r)))
                .chain(r.layers.iter().map(|(n, v)| format!("\"{n}\": {v}")))
                .chain(END_TO_END.iter().filter_map(|m| {
                    let of_slice = m.of_slice?;
                    let slices: Vec<String> = r
                        .slices
                        .iter()
                        .map(|s| format!("{:.3}", of_slice(s)))
                        .collect();
                    Some(format!("\"slices.{}\": [{}]", m.name, slices.join(", ")))
                }))
                .collect();
            let _ = write!(
                reps,
                "{}\n      {{\"samples\": {}, \"rounds\": {}, \"attempted\": {}, \"failed\": {}, {}}}",
                if i == 0 { "" } else { "," },
                r.samples,
                r.rounds,
                r.attempted,
                r.failed,
                values.join(", ")
            );
        }
        format!(
            "    {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"invalid_reps\": {},\n     \"result\": {},\n     \"repetitions\": [{reps}\n    ]}}",
            self.workload.name(),
            self.seed,
            self.traced,
            self.invalid_reps,
            self.result_line()
        )
    }
}

/// What the repetitions of one invocation add up to.
struct Tally {
    started: Instant,
    invalid_reps: u64,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            started: Instant::now(),
            invalid_reps: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether a step that went wrong on its `attempt`-th try is tried
    /// again: only while attempts and time are left, and never once a
    /// daemon has crashed.
    fn again(&self, attempt: u32) -> bool {
        attempt < MAX_ATTEMPTS && self.started.elapsed() < RETRY_BUDGET && !crashed()
    }

    /// Runs one repetition under the watchdog. One that is invalid
    /// (generator late or starved — only where its timings are `measured`)
    /// or that broke off with the daemon still up (a time-out or a failed
    /// spawn on a stalled host) is run again; the last attempt stands as it
    /// is. Operations are counted over every attempt, so a wrong verdict
    /// in a discarded repetition still fails the run.
    fn rep(
        &mut self,
        workload: Workload,
        seed: u64,
        window: Duration,
        traced: bool,
        measured: bool,
    ) -> std::io::Result<Rep> {
        let mut attempt = 1;
        loop {
            arm_watchdog(Some(REP_TIMEOUT));
            let rep = repetition(workload, seed, window, traced);
            arm_watchdog(None);
            match &rep {
                Ok(r) => {
                    self.attempted += r.attempted;
                    self.failed += r.failed;
                    if !(measured && r.invalid && self.again(attempt)) {
                        return rep;
                    }
                    eprintln!(
                        "{}: generator late or starved (send_late_p99 {:.0} us, generator {:.2} core, {:.1} % of host CPU stolen): repetition run again",
                        workload.name(),
                        r.send_late_p99_us,
                        r.loadgen_cpu_share,
                        r.host_steal_pct
                    );
                }
                Err(e) => {
                    if !self.again(attempt) {
                        return rep;
                    }
                    eprintln!(
                        "{}: repetition broke off with the daemon still up ({e}): run again",
                        workload.name()
                    );
                }
            }
            self.invalid_reps += 1;
            attempt += 1;
        }
    }

    /// The probes, run again like a repetition when they break off.
    fn probes(&mut self, seed: u64) -> std::io::Result<Layers> {
        let mut attempt = 1;
        loop {
            match probes::run(seed) {
                Err(e) if self.again(attempt) => {
                    eprintln!("probes broke off ({e}): run again");
                    self.invalid_reps += 1;
                    attempt += 1;
                }
                done => return done,
            }
        }
    }

    fn outcome(
        self,
        workload: Workload,
        seed: u64,
        reps: Vec<Rep>,
        layers: Option<Layers>,
    ) -> Outcome {
        Outcome {
            workload,
            seed,
            traced: layers.is_some(),
            reps,
            invalid_reps: self.invalid_reps,
            attempted: self.attempted,
            failed: self.failed,
            layers: layers.unwrap_or_default(),
        }
    }
}

type Layers = Vec<(&'static str, f64)>;

/// An untraced invocation: `REPS` fresh-process repetitions of
/// `seconds / REPS` measured seconds each, after one more whose verdicts
/// are checked and whose timings are dropped. The first repetition of a
/// process starts on CPUs that come out of idle and is another population:
/// slower five times in six, and on `bulk_mem` with a quarter less daemon
/// CPU per round, which a fast tenth over all slices would pick up.
pub fn run_end_to_end(workload: Workload, seed: u64, seconds: u64) -> std::io::Result<Outcome> {
    let window = Duration::from_secs_f64(seconds as f64 / REPS as f64);
    let mut tally = Tally::new();
    tally.rep(workload, seed, window, false, false)?;
    let reps = (0..REPS)
        .map(|_| tally.rep(workload, seed, window, false, true))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(tally.outcome(workload, seed, reps, None))
}

/// A traced invocation: the probes, then untraced and traced repetitions
/// alternating (two of each, same window as an untraced run's). The
/// observed per-layer numbers come from the better untraced repetition,
/// the spans from the better traced one; the gap between the two is the
/// tracing overhead.
pub fn run_traced(workload: Workload, seed: u64, seconds: u64) -> std::io::Result<Outcome> {
    let window = Duration::from_secs_f64(seconds as f64 / REPS as f64);
    let mut tally = Tally::new();
    let mut layers = tally.probes(seed)?;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..2 {
        plain.push(tally.rep(workload, seed, window, false, true)?);
        traced.push(tally.rep(workload, seed, window, true, true)?);
    }
    // The workload's first timing: latency on a schedule, rate at saturation.
    let closed_loop = workload == Workload::BulkMem;
    let speed = |r: &Rep| {
        if closed_loop {
            -r.rounds_per_s
        } else {
            r.verdict_p50_us
        }
    };
    let better = |reps: &[Rep]| {
        reps.iter()
            .min_by(|a, b| speed(a).total_cmp(&speed(b)))
            .expect("two repetitions ran")
            .clone()
    };
    let (base, mut best) = (better(&plain), better(&traced));
    layers.extend(base.layers.iter().copied());
    let firsts: Vec<f64> = plain.iter().map(speed).map(f64::abs).collect();
    let direction = if closed_loop {
        Better::Higher
    } else {
        Better::Lower
    };
    layers.push(("loadgen.rep_spread_pct", rep_spread_pct(&firsts, direction)));
    layers.push(("loadgen.invalid_reps", tally.invalid_reps as f64));

    let spans = &best.spans;
    let mut replica_sum = 0.0;
    for (stage, metric) in REPLICA_STAGES {
        let ns = trace::stage_p50_ns(spans, stage, best.rounds_per_span);
        replica_sum += ns;
        layers.push((metric, ns));
    }
    let daemon_stages: f64 = DAEMON_STAGES
        .iter()
        .map(|(_, metric)| layer_value(&best.layers, metric))
        .sum();
    let roundtrip_us = trace::stage_p50_ns(spans, "daemon.roundtrip", 1) / 1e3;
    let overhead_pct = 100.0
        * if closed_loop {
            base.rounds_per_s / best.rounds_per_s - 1.0
        } else {
            best.verdict_p50_us / base.verdict_p50_us - 1.0
        };
    layers.extend(
        best.layers
            .iter()
            .filter(|(n, _)| n.starts_with("serve.stage_"))
            .copied(),
    );
    layers.extend([
        (
            "trace.replica_self_ns",
            trace::round_self_p50_ns(spans, best.rounds_per_span),
        ),
        ("trace.roundtrip_p50_us", roundtrip_us),
        ("trace.residual_us", base.verdict_p50_us - daemon_stages),
        ("trace.overhead_pct", overhead_pct),
        ("trace.spans", spans.len() as f64),
    ]);

    let out = out_dir();
    trace::write_jsonl(
        &out.join(format!("trace-{}.jsonl", workload.name())),
        &mut best.spans,
    )?;
    std::fs::write(
        out.join(format!("stages-{}.md", workload.name())),
        stages_table(workload, &base, &layers, replica_sum, daemon_stages),
    )?;
    Ok(tally.outcome(workload, seed, plain, Some(layers)))
}

/// One workload's "where a round's microseconds go" table.
fn stages_table(
    workload: Workload,
    base: &Rep,
    layers: &[(&'static str, f64)],
    replica_sum_ns: f64,
    daemon_stages_us: f64,
) -> String {
    let get = |name: &str| layer_value(layers, name);
    let mut t = format!(
        "## `{}`\n\n| stage | source | per round |\n|---|---|---|\n",
        workload.name()
    );
    for (stage, metric) in REPLICA_STAGES {
        let _ = writeln!(
            t,
            "| `{stage}` | replica span, p50 | {:.0} ns |",
            get(metric)
        );
    }
    let _ = writeln!(
        t,
        "| replica, outside its layers | `round` span self time, p50 | {:.0} ns |",
        get("trace.replica_self_ns")
    );
    let _ = writeln!(
        t,
        "| **replica sum** | program work on one round | **{:.2} us** |",
        replica_sum_ns / 1e3
    );
    for (stage, metric) in DAEMON_STAGES {
        let _ = writeln!(
            t,
            "| daemon `{stage}` | `/trace` ring, p50 | {:.2} us |",
            get(metric)
        );
    }
    let _ = writeln!(
        t,
        "| **daemon stages sum** | | **{daemon_stages_us:.2} us** |"
    );
    let _ = writeln!(
        t,
        "| write returned → first answering read | `daemon.roundtrip` span, p50 | {:.2} us |",
        get("trace.roundtrip_p50_us")
    );
    let _ = writeln!(
        t,
        "| **end to end** | p50 over one untraced repetition's samples, n={} | **{:.2} us** |",
        base.samples, base.verdict_p50_us
    );
    let _ = writeln!(t, "| residual | end to end − daemon stages: wake-ups, queueing, syscalls, the rest of the burst | {:.2} us |", get("trace.residual_us"));
    let _ = writeln!(
        t,
        "| tracing overhead | traced vs untraced, best of 2 each | {:.1} % |\n",
        get("trace.overhead_pct")
    );
    t
}

/// Rebuilds `STAGES.md` from the per-workload tables a traced invocation
/// of all four workloads just wrote.
pub fn write_stages_md() -> std::io::Result<()> {
    let out = out_dir();
    let mut doc = String::from(
        "# Where a round's microseconds go\n\n\
         Generated by `cargo run --release --manifest-path benchmark/Cargo.toml -- run --trace 1`\n\
         (all four workloads); do not edit. Replica stages are the daemon's public calls run\n\
         in the bench process on the bytes of one round in 16; daemon stages are the spans its own\n\
         `/trace` ring holds at `trace_sample: 16`. See `README.md` for how to read it.\n\n",
    );
    let _ = writeln!(
        doc,
        "Host: {} cores, state directory on {}.\n",
        cores(),
        fs_type(&out)
    );
    for w in Workload::ALL {
        doc.push_str(&std::fs::read_to_string(
            out.join(format!("stages-{}.md", w.name())),
        )?);
    }
    let path = out.parent().expect("out/ has a parent").join("STAGES.md");
    std::fs::write(path, doc)
}

/// Writes `out/run-<unix>.json` for the outcomes of one invocation.
pub fn write_run_file(outcomes: &[Outcome], seconds: u64) -> std::io::Result<std::path::PathBuf> {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let out = out_dir();
    let body: Vec<String> = outcomes.iter().map(Outcome::to_json).collect();
    let path = out.join(format!("run-{unix}-{}.json", std::process::id()));
    std::fs::write(
        &path,
        format!(
            "{{\n  \"reps\": {REPS}, \"run_seconds\": {seconds}, \"cores\": {}, \"state_dir_fs\": \"{}\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
            cores(),
            fs_type(&out),
            body.join(",\n")
        ),
    )?;
    Ok(path)
}

/// The text of `BENCHMARK.json`, from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .filter(|w| w.gated())
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(setup: f64, p50: f64, rate: f64) -> Rep {
        Rep {
            setup_s: setup,
            verdict_p50_us: p50,
            rounds_per_s: rate,
            ..Rep::default()
        }
    }

    #[test]
    fn outcome_takes_best_repetition_and_median_setup() {
        let outcome = Outcome {
            workload: Workload::TickMem,
            seed: 1,
            traced: false,
            reps: vec![
                rep(0.30, 1300.0, 4000.0),
                rep(0.10, 1220.0, 4090.0),
                rep(0.20, 1270.0, 4050.0),
            ],
            invalid_reps: 0,
            attempted: 10,
            failed: 0,
            layers: Vec::new(),
        };
        let by_name = |n: &str| {
            END_TO_END
                .iter()
                .find(|m| m.name == n)
                .expect("metric exists")
        };
        assert_eq!(outcome.value(by_name("setup_s")), 0.20);
        assert_eq!(outcome.value(by_name("verdict_p50_us")), 1220.0);
        assert_eq!(outcome.value(by_name("rounds_per_s")), 4090.0);

        let line = outcome.result_line();
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\""
        ));
        let doc: serde_json::Value = serde_json::from_str(&line).expect("the result line is JSON");
        assert_eq!(
            doc["metrics"].as_object().expect("metrics").len(),
            END_TO_END.len()
        );

        // With slices, a timing is the value one slice in ten beats, over
        // the slices of every repetition; a slice value of 0 defines none.
        let mut sliced = outcome;
        for (i, rep) in sliced.reps.iter_mut().enumerate() {
            rep.slices = (0..10)
                .map(|j| Slice {
                    p50_us: 1000.0 + (10 * i + j) as f64,
                    cpu_us_per_round: 0.0,
                    rounds_per_s: 0.0,
                })
                .collect();
        }
        assert_eq!(sliced.value(by_name("verdict_p50_us")), 1002.0);
        assert_eq!(sliced.value(by_name("rounds_per_s")), 4090.0);
        assert_eq!(sliced.value(by_name("setup_s")), 0.20);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json is checked in");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
    }
}
