//! The four workloads, and one repetition of any of them: fresh daemon(s)
//! → sessions open and warm → the measured window → kill and recover →
//! every verdict checked against the reference.

use avoc_gateway::{Gateway, GatewayConfig, Member};
use avoc_net::{Message, SpecSource};
use avoc_serve::ServeClient;
use bytes::BytesMut;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::daemon::{host_cpu_ticks, Daemon, DaemonSpec, ProcStat, StateDir, CLUSTER_SECRET};
use crate::input::{check_session, Checked, Input, Verdict, MODULES};
use crate::loadgen::{now_ns, Client, Slice, Ticks, VERDICT_TIMEOUT};
use crate::stats::{percentile, Scrape};
use crate::trace::{self, Replica, Span, DAEMON_STAGES, SAMPLE_EVERY};

/// Fresh-process repetitions per run (how their values and their slices'
/// become a run's: `report::Outcome::value`).
pub const REPS: usize = 6;
/// Rounds per session that must continue a recovered durable stream.
const AFTER_RECOVERY_ROUNDS: u64 = 16;
/// Closed loop: rounds per `FeedBatch` frame and frames in flight per
/// session.
const BULK_FRAME_ROUNDS: u64 = 64;
const BULK_IN_FLIGHT: u64 = 4;
/// A repetition during which the hypervisor took more than this share of
/// the guest's CPU time is run again. A quiet host reads 0.0.
const MAX_STEAL_PCT: f64 = 1.0;
/// When in the window the drain starts, as a share of it. Latency
/// percentiles on `cluster_drain` are taken over the ticks before it: once
/// the drain has moved every session onto one node a tick takes twice as
/// long, and a p50 over both regimes would sit on the edge between them.
const DRAIN_AT: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TickMem,
    TickDurable,
    BulkMem,
    ClusterDrain,
}

/// What a workload looks like on the wire.
struct Shape {
    sessions: u64,
    /// Ticks per second; `None` = closed loop.
    hz: Option<u64>,
    /// Rounds per session fed before the window opens, and how many of
    /// them go into one frame.
    warm_rounds: u64,
    warm_chunk: u64,
    durable: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TickMem,
        Workload::TickDurable,
        Workload::BulkMem,
        Workload::ClusterDrain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TickMem => "tick_mem",
            Workload::TickDurable => "tick_durable",
            Workload::BulkMem => "bulk_mem",
            Workload::ClusterDrain => "cluster_drain",
        }
    }

    /// Whether `BENCHMARK.json` lists the workload, so that the driver gates
    /// later changes on it. The two durable workloads are run, checked and
    /// reported like the others but are not gated: a durable round on this
    /// host is one replace-by-rename of the meta sidecar, whose cost is the
    /// virtual disk's (measured 100 µs to 800 µs within two hours), and two
    /// sets of runs of the same code disagreed by more than any bound the
    /// contract allows.
    pub fn gated(self) -> bool {
        matches!(self, Workload::TickMem | Workload::BulkMem)
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`: why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TickMem => "open loop, 128 memory-only sessions ticking together at 128 Hz: per-frame decode, shard handoff, hub assembly, result encode and corked flush do the work; fuse and store do almost none",
            Workload::TickDurable => "open loop, 32 sessions at 16 Hz checkpointing every round to a real file system, then SIGKILL and warm resume: avoc-store and persist.rs do over 90 % of the work, append and replay both",
            Workload::BulkMem => "closed loop, 8 memory-only sessions with 4 FeedBatch frames of 64 rounds in flight each: saturation, where batch codec, burst handoff and avoc-core set the rate; the no-change control for store work",
            Workload::ClusterDrain => "open loop, 32 durable sessions opened through the gateway on two nodes at 16 Hz, one node drained mid-window: the only workload where avoc-gateway, export/import and compaction-on-export run",
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::TickMem => Shape {
                sessions: 128,
                hz: Some(128),
                warm_rounds: 64,
                warm_chunk: 1,
                durable: false,
            },
            Workload::TickDurable | Workload::ClusterDrain => Shape {
                sessions: 32,
                hz: Some(16),
                warm_rounds: 32,
                warm_chunk: 8,
                durable: true,
            },
            Workload::BulkMem => Shape {
                sessions: 8,
                hz: None,
                warm_rounds: 2 * BULK_FRAME_ROUNDS,
                warm_chunk: BULK_FRAME_ROUNDS,
                durable: false,
            },
        }
    }
}

/// One repetition's raw numbers.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub verdict_p50_us: f64,
    pub verdict_p99_us: f64,
    /// Latency samples behind the two percentiles.
    pub samples: u64,
    pub rounds_per_s: f64,
    /// Rounds fused inside the measured window.
    pub rounds: u64,
    pub daemon_cpu_us_per_round: f64,
    pub peak_rss_mb: f64,
    pub recover_ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub send_late_p99_us: f64,
    /// Generator CPU over the window, as a share of one core.
    pub loadgen_cpu_share: f64,
    /// Share of the host's CPU time over the window that was stolen, %.
    pub host_steal_pct: f64,
    /// The generator ran late or hot: a slow reading here may be the
    /// generator's, so the repetition is run again.
    pub invalid: bool,
    /// The window cut into slices, each measured on its own.
    pub slices: Vec<Slice>,
    /// Per-layer numbers observed during the repetition.
    pub layers: Vec<(&'static str, f64)>,
    /// Spans of a traced repetition.
    pub spans: Vec<Span>,
    /// Rounds each replica `round` span covers.
    pub rounds_per_span: u64,
}

/// Confines the calling thread, and the threads it starts, to one CPU until
/// dropped; then gives it the host's CPUs back.
struct Confined;

impl Confined {
    fn to(cpu: usize) -> Confined {
        crate::confine(&[cpu]);
        Confined
    }
}

impl Drop for Confined {
    fn drop(&mut self) {
        crate::confine(crate::host_cpus());
    }
}

/// The daemons of one repetition and what was read off them.
struct Nodes {
    specs: Vec<DaemonSpec>,
    daemons: Vec<Daemon>,
    /// RSS right after spawn, before any session exists.
    idle_rss: u64,
}

impl Nodes {
    fn spawn(specs: Vec<DaemonSpec>) -> std::io::Result<Nodes> {
        let daemons = specs
            .iter()
            .map(Daemon::spawn)
            .collect::<Result<Vec<_>, _>>()?;
        let idle_rss = daemons.iter().map(|d| d.proc_stat().rss_bytes).sum();
        Ok(Nodes {
            specs,
            daemons,
            idle_rss,
        })
    }

    fn proc_stat(&self) -> ProcStat {
        self.daemons.iter().fold(ProcStat::default(), |sum, d| {
            let p = d.proc_stat();
            ProcStat {
                cpu_ns: sum.cpu_ns + p.cpu_ns,
                ctx_switches: sum.ctx_switches + p.ctx_switches,
                threads: sum.threads + p.threads,
                fds: sum.fds + p.fds,
                rss_bytes: sum.rss_bytes + p.rss_bytes,
                peak_rss_bytes: sum.peak_rss_bytes + p.peak_rss_bytes,
            }
        })
    }

    fn cpu_ns(&self) -> u64 {
        self.daemons.iter().map(Daemon::cpu_ns).sum()
    }

    fn scrape(&self) -> std::io::Result<Vec<Scrape>> {
        self.daemons.iter().map(Daemon::scrape).collect()
    }
}

/// Opens every session *through the gateway*: a `ResumeSession` there is
/// answered by a `Redirect` naming the owner. Returns each session's owner
/// and the median ask → redirect time in µs.
fn place_via_gateway(gateway: SocketAddr, sessions: u64) -> std::io::Result<(Vec<String>, f64)> {
    let mut client = ServeClient::connect(gateway)?;
    let mut owners = Vec::new();
    let mut rtts = Vec::new();
    for session in 0..sessions {
        let asked = Instant::now();
        client.resume_session(session, MODULES, SpecSource::Named("avoc".into()), 0, None)?;
        match client.recv()? {
            Message::Redirect { addr, .. } => owners.push(addr),
            other => {
                return Err(std::io::Error::other(format!(
                    "the gateway answered an open with {other:?}"
                )))
            }
        }
        rtts.push(asked.elapsed().as_nanos() as u64);
    }
    Ok((owners, percentile(&mut rtts, 0.5) as f64 / 1e3))
}

/// Checks every session's verdicts against the reference, on two threads.
fn check_all(input: &Input, rounds: &[u64], verdicts: &[Vec<Verdict>]) -> Checked {
    let half = rounds.len().div_ceil(2);
    let check = |range: std::ops::Range<usize>| {
        range.fold(Checked::default(), |sum, s| {
            sum + check_session(&input.reference(s as u64, rounds[s]), &verdicts[s])
        })
    };
    std::thread::scope(|scope| {
        let upper = scope.spawn(|| check(half..rounds.len()));
        check(0..half) + upper.join().expect("checker thread panicked")
    })
}

/// Runs one repetition of `workload`: `window` measured, everything else
/// around it. `traced` turns on the bench's spans, the replica and the
/// daemon's own 1-in-16 sampling.
pub fn repetition(
    workload: Workload,
    seed: u64,
    window: Duration,
    traced: bool,
) -> std::io::Result<Rep> {
    let shape = workload.shape();
    let cluster = workload == Workload::ClusterDrain;
    let mut rep = Rep::default();
    // The generator (and the in-process gateway) on the first CPU, the
    // daemons on the last, from before the first thread until the window
    // and the recovery are over. Left free, six busy threads on two CPUs
    // are placed anew in every process and re-placed as the host stalls
    // them, and that placement, not the program, sets the timings.
    let cpus = crate::host_cpus();
    let apart = (cpus.len() >= 2).then(|| Confined::to(cpus[0]));
    let daemon_cpu = apart.as_ref().and(cpus.last().copied());

    // ---- Set-up: input, daemons, sessions, warm-up.
    let setup = Instant::now();
    let input = Input::generate(seed);
    let dirs: Vec<StateDir> = (0..if cluster { 2 } else { 1 })
        .filter(|_| shape.durable)
        .map(|n| StateDir::create(&format!("n{}", n + 1)))
        .collect();
    let specs = (0..if cluster { 2 } else { 1 })
        .map(|n| DaemonSpec {
            state_dir: dirs.get(n).map(|d| d.0.clone()),
            node_id: if cluster { n as u64 + 1 } else { 0 },
            trace_sample: if traced { SAMPLE_EVERY } else { 0 },
            cpu: daemon_cpu,
        })
        .collect();
    let mut nodes = Nodes::spawn(specs)?;
    let gateway = cluster
        .then(|| {
            Gateway::start(
                "127.0.0.1:0",
                GatewayConfig {
                    members: nodes
                        .daemons
                        .iter()
                        .zip(&nodes.specs)
                        .map(|(d, s)| Member {
                            node: s.node_id,
                            addr: d.addr.to_string(),
                            admin: Some(d.admin.to_string()),
                        })
                        .collect(),
                    cluster_secret: Some(CLUSTER_SECRET),
                    ..GatewayConfig::default()
                },
            )
        })
        .transpose()?;
    let credit_every = if shape.hz.is_none() {
        BULK_FRAME_ROUNDS
    } else {
        0
    };
    let mut client = Client::new(&input, shape.sessions, credit_every, traced);
    for d in &nodes.daemons {
        client.connect(d.addr)?;
    }
    if let Some(gateway) = &gateway {
        let (owners, rtt_us) = place_via_gateway(gateway.local_addr(), shape.sessions)?;
        for (s, owner) in owners.iter().enumerate() {
            let conn = nodes
                .daemons
                .iter()
                .position(|d| d.addr.to_string() == *owner)
                .ok_or_else(|| std::io::Error::other("the gateway named an unknown node"))?;
            client.set_owner(s as u64, conn);
        }
        rep.layers.push(("gateway.redirect_rtt_us", rtt_us));
    }
    client.open_sessions(0..shape.sessions, false)?;
    client.feed_and_wait(shape.warm_rounds, shape.warm_chunk)?;
    rep.setup_s = setup.elapsed().as_secs_f64();

    // ---- The measured window.
    let replica_dir = (traced && shape.durable).then(|| StateDir::create("replica"));
    let mut replica = traced.then(|| {
        Replica::new(
            replica_dir
                .as_ref()
                .map(|d| d.0.join("replica.wal"))
                .as_deref(),
        )
    });
    let scrape_before = nodes.scrape()?;
    let own_pid = std::process::id();
    let (own_before, proc_before) = (ProcStat::read(own_pid), nodes.proc_stat());
    let host_before = host_cpu_ticks();
    let began = Instant::now();
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut ticks: Option<Ticks> = None;
    // When the drain began (bench clock), how long it took, what it moved.
    let mut drain: Option<(u64, Duration, usize)> = None;
    let mut window_rounds = vec![0u64; shape.sessions as usize];
    let cpu = || nodes.cpu_ns();
    if let Some(hz) = shape.hz {
        let period_ns = 1_000_000_000 / hz;
        let n_ticks = (window.as_nanos() as u64 / period_ns).max(1);
        let epoch = gateway.as_ref().map(|g| move || g.epoch());
        let done = std::thread::scope(|scope| {
            let helper = gateway.as_ref().map(|g| {
                let drained = g.place(0).expect("session 0 is placed").0;
                scope.spawn(move || {
                    std::thread::sleep(window.mul_f64(DRAIN_AT));
                    let began_ns = now_ns();
                    let moved = g.drain_node(drained);
                    (began_ns, Duration::from_nanos(now_ns() - began_ns), moved)
                })
            });
            let probe = epoch.as_ref().map(|e| e as &dyn Fn() -> u64);
            let done = client.run_ticks(n_ticks, period_ns, probe, &cpu);
            if let Some(helper) = helper {
                let (began_ns, took, moved) = helper.join().expect("drain thread panicked");
                drain = Some((began_ns, took, moved?));
                // Let the last migrations re-attach before the tail wait.
                client.service_until(now_ns() + 50_000_000, probe)?;
            }
            done
        })?;
        client.wait_answered(VERDICT_TIMEOUT);
        rep.rounds_per_s = (n_ticks * shape.sessions) as f64 / began.elapsed().as_secs_f64();
        window_rounds.fill(n_ticks);
        rep.rounds_per_span = 1;
        ticks = Some(Ticks {
            // closes the last tick's slice
            cpu_ns: done.cpu_ns.into_iter().chain([cpu()]).collect(),
            ..done
        });
    } else {
        let bulk = client.run_bulk(BULK_FRAME_ROUNDS, BULK_IN_FLIGHT, window, &cpu)?;
        rep.rounds_per_s = bulk.rounds_sent as f64 / bulk.elapsed.as_secs_f64();
        rep.slices = bulk.slices;
        latencies_ns = bulk.latency_ns;
        window_rounds = bulk.rounds_per_session;
        rep.rounds_per_span = BULK_FRAME_ROUNDS;
    }
    let (own_after, proc_after) = (ProcStat::read(own_pid), nodes.proc_stat());
    let host_after = host_cpu_ticks();
    let elapsed = began.elapsed();
    let scraped = Instant::now();
    let scrape_after = nodes.scrape()?;
    let scrape_ms = scraped.elapsed().as_secs_f64() * 1e3 / nodes.daemons.len() as f64;
    rep.rounds = window_rounds.iter().sum();
    let krounds = rep.rounds as f64 / 1e3;

    // The replica pipeline, on the bytes of session 0's sampled rounds.
    if let Some(replica) = &mut replica {
        let sent = shape.warm_rounds..shape.warm_rounds + window_rounds[0];
        let step = rep.rounds_per_span * SAMPLE_EVERY;
        let mut wire = BytesMut::new();
        let mut readings = Vec::new();
        for round in sent.step_by(step as usize) {
            wire.clear();
            readings.clear();
            input.readings(0, round..round + rep.rounds_per_span, &mut readings);
            if shape.hz.is_none() {
                Message::encode_feed_batch_into(0, &readings, &mut wire);
            } else {
                for r in &readings {
                    Message::SessionReading {
                        session: 0,
                        module: r.module,
                        round: r.round,
                        value: r.value,
                    }
                    .encode_into(&mut wire);
                }
            }
            replica.run(0, &wire, round, &mut rep.spans);
        }
    }

    // ---- Kill and recover: SIGKILL every daemon, respawn the one that
    // owns the sessions on the same state directory, re-attach them all.
    rep.peak_rss_mb = proc_after.peak_rss_bytes as f64 / (1024.0 * 1024.0);
    let survivor = match (&gateway, drain) {
        (Some(g), Some(_)) => {
            let node = g.place(0).expect("session 0 is placed").0;
            nodes
                .specs
                .iter()
                .position(|s| s.node_id == node)
                .unwrap_or(0)
        }
        _ => 0,
    };
    let daemon_stages = if traced {
        nodes.daemons[survivor].trace_spans()?
    } else {
        Vec::new()
    };
    let killed = Instant::now();
    for d in nodes.daemons.drain(..) {
        d.kill();
    }
    client.disconnect();
    let revived = Daemon::spawn(&nodes.specs[survivor])?;
    client.connect(revived.addr)?;
    for s in 0..shape.sessions {
        client.set_owner(s, 0);
    }
    client.open_sessions(0..shape.sessions, shape.durable)?;
    rep.recover_ms = killed.elapsed().as_secs_f64() * 1e3;
    let mut total_rounds: Vec<u64> = window_rounds
        .iter()
        .map(|w| w + shape.warm_rounds)
        .collect();
    if shape.durable {
        // The recovered stream must continue bit-identically.
        client.feed_and_wait(AFTER_RECOVERY_ROUNDS, shape.warm_chunk)?;
        for t in &mut total_rounds {
            *t += AFTER_RECOVERY_ROUNDS;
        }
    }
    let revived_scrape = revived.scrape()?;
    let cold_resumes = client.cold_resumes;
    let migrated = client.migrated.clone();
    rep.spans.append(&mut client.spans);
    let received = client.finish();
    drop(revived);
    if let Some(gateway) = gateway {
        gateway.shutdown();
    }

    // ---- Correctness: every verdict against the reference.
    drop(apart);
    let checked = check_all(&input, &total_rounds, &received.verdicts);
    rep.attempted = checked.attempted;
    rep.failed = checked.failed + received.error_frames + cold_resumes;
    if rep.failed != 0 {
        eprintln!(
            "{}: {} verdicts missing or wrong, {} error frames, {} cold resumes; the daemon counted {} results and {} readings dropped",
            workload.name(),
            checked.failed,
            received.error_frames,
            cold_resumes,
            scrape_after.iter().map(|s| s.scalar("avoc_results_dropped_total")).sum::<f64>(),
            scrape_after.iter().map(|s| s.scalar("avoc_readings_dropped_total")).sum::<f64>(),
        );
    }

    // ---- Timings.
    let mut pauses_ns: Vec<u64> = Vec::new();
    if let Some(ticks) = &ticks {
        // One slice per tick: its verdicts' latencies, and the CPU the
        // daemon used between the readings either side of it.
        let mut of_tick: Vec<Vec<u64>> = vec![Vec::new(); ticks.due_ns.len()];
        for (s, list) in received.verdicts.iter().enumerate() {
            let mut worst = 0;
            for v in list {
                if let Some(due) = ticks.due_of(v.round) {
                    let lat = v.at_ns.saturating_sub(due);
                    if drain.is_none_or(|(began_ns, ..)| due < began_ns) {
                        latencies_ns.push(lat);
                        of_tick[(v.round - ticks.first_round) as usize].push(lat);
                    }
                    worst = worst.max(lat);
                }
            }
            if migrated.contains(&(s as u64)) {
                pauses_ns.push(worst);
            }
        }
        rep.slices = of_tick
            .iter_mut()
            .zip(ticks.cpu_ns.windows(2))
            .filter(|(lats, _)| !lats.is_empty())
            .map(|(lats, cpu)| Slice {
                p50_us: percentile(lats, 0.5) as f64 / 1e3,
                cpu_us_per_round: cpu[1].saturating_sub(cpu[0]) as f64 / 1e3 / lats.len() as f64,
                rounds_per_s: 0.0,
            })
            .collect();
        let mut late = ticks.late_ns.clone();
        rep.send_late_p99_us = percentile(&mut late, 0.99) as f64 / 1e3;
        rep.invalid = rep.send_late_p99_us * 1e3 > ticks.period_ns as f64 / 2.0;
    }
    rep.samples = latencies_ns.len() as u64;
    rep.verdict_p50_us = percentile(&mut latencies_ns, 0.50) as f64 / 1e3;
    rep.verdict_p99_us = percentile(&mut latencies_ns, 0.99) as f64 / 1e3;
    rep.daemon_cpu_us_per_round =
        (proc_after.cpu_ns - proc_before.cpu_ns) as f64 / 1e3 / rep.rounds.max(1) as f64;
    let own_cpu_ns = (own_after.cpu_ns - own_before.cpu_ns) as f64;
    rep.loadgen_cpu_share = own_cpu_ns / elapsed.as_nanos() as f64;
    // A starved open-loop generator reads as a slow daemon; a closed loop
    // is supposed to keep the generator busy.
    rep.invalid |= shape.hz.is_some() && rep.loadgen_cpu_share > 0.5;
    // So does a starved guest: CPU time the hypervisor gave away.
    rep.host_steal_pct = 100.0 * (host_after.0 - host_before.0) as f64
        / (host_after.1 - host_before.1).max(1) as f64;
    rep.invalid |= rep.host_steal_pct > MAX_STEAL_PCT;

    // ---- Per-layer numbers observed from outside.
    let (sa, sb) = (&scrape_after, &scrape_before);
    let per_kround = |name: &str| {
        sa.iter()
            .zip(sb)
            .map(|(a, b)| a.delta(b, name))
            .sum::<f64>()
            / krounds
    };
    let p50 = |name: &str| {
        sa.iter()
            .zip(sb)
            .map(|(a, b)| a.histogram_delta_quantile(b, name, 0.5))
            .fold(0.0, f64::max)
    };
    let (drain_ms, moved) = drain.map_or((0.0, 0), |(_, t, n)| (t.as_secs_f64() * 1e3, n));
    rep.layers.extend([
        (
            "daemon.ctx_switches_per_kround",
            (proc_after.ctx_switches - proc_before.ctx_switches) as f64 / krounds,
        ),
        ("daemon.threads", proc_after.threads as f64),
        ("daemon.fds", proc_after.fds as f64),
        (
            "daemon.rss_bytes_per_session",
            proc_after.rss_bytes.saturating_sub(nodes.idle_rss) as f64 / shape.sessions as f64,
        ),
        (
            "net.epoll_wakeups_per_kround",
            per_kround("avoc_net_epoll_wakeups_total"),
        ),
        (
            "net.writer_flushes_per_kround",
            per_kround("avoc_writer_flushes_total"),
        ),
        (
            "net.writer_writes_per_kround",
            per_kround("avoc_writer_writes_total"),
        ),
        ("net.loop_iter_p50_us", p50("avoc_net_loop_iter_ns") / 1e3),
        (
            "net.readiness_dispatch_p50_us",
            p50("avoc_net_readiness_dispatch_ns") / 1e3,
        ),
        (
            "net.wire_bytes_in_per_round",
            per_kround("avoc_bytes_received_total") / 1e3,
        ),
        (
            "net.wire_bytes_out_per_round",
            per_kround("avoc_bytes_sent_total") / 1e3,
        ),
        (
            "serve.handoff_sends_per_kround",
            per_kround("avoc_shard_handoff_sends_total"),
        ),
        (
            "serve.result_batches_per_kround",
            per_kround("avoc_result_batches_total"),
        ),
        (
            "serve.results_dropped",
            per_kround("avoc_results_dropped_total") * krounds,
        ),
        (
            "serve.readings_dropped",
            per_kround("avoc_readings_dropped_total") * krounds,
        ),
        (
            "serve.shard_queue_high_water",
            sa.iter()
                .map(|s| s.scalar_max("avoc_shard_queue_high_water"))
                .fold(0.0, f64::max),
        ),
        ("serve.fuse_p50_ns", p50("avoc_fuse_latency_ns")),
        (
            "serve.checkpoint_p50_us",
            p50("avoc_checkpoint_latency_ns") / 1e3,
        ),
        (
            "serve.checkpoint_bytes_per_round",
            per_kround("avoc_checkpoint_bytes_total") / 1e3,
        ),
        (
            "serve.wal_replay_ms",
            revived_scrape.scalar("avoc_wal_replay_ns_total") / 1e6,
        ),
        (
            "serve.segment_load_ms",
            revived_scrape.scalar("avoc_segment_load_ns_total") / 1e6,
        ),
        ("obs.scrape_ms", scrape_ms),
        ("obs.scrape_bytes", sa[0].bytes as f64),
        ("obs.series_count", sa[0].series as f64),
        ("gateway.drain_ms", drain_ms),
        (
            "gateway.migrate_ms_per_session",
            drain_ms / moved.max(1) as f64,
        ),
        (
            "gateway.migration_pause_ms",
            percentile(&mut pauses_ns, 0.5) as f64 / 1e6,
        ),
        ("loadgen.send_late_p99_us", rep.send_late_p99_us),
        (
            "loadgen.cpu_us_per_round",
            own_cpu_ns / 1e3 / rep.rounds.max(1) as f64,
        ),
        ("loadgen.verdict_p99_us", rep.verdict_p99_us),
        ("loadgen.host_steal_pct", rep.host_steal_pct),
    ]);
    if cluster && moved as u64 != migrated.len() as u64 {
        // A session the drain moved but the client never re-attached.
        rep.failed += (moved as u64).abs_diff(migrated.len() as u64);
    }

    // ---- The traced run's extra spans and the daemon's own stages.
    if traced {
        rep.spans.extend(received.spans);
        let roundtrips = trace::roundtrips(&rep.spans);
        rep.spans.extend(roundtrips);
        for (stage, metric) in DAEMON_STAGES {
            let mut durs: Vec<u64> = daemon_stages
                .iter()
                .filter(|(s, _)| s == stage)
                .map(|(_, d)| *d)
                .collect();
            rep.layers
                .push((metric, percentile(&mut durs, 0.5) as f64 / 1e3));
        }
    }
    Ok(rep)
}
