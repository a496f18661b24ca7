//! Service counters: every fact the daemon reports about itself, as one
//! cell on an [`avoc_obs::Registry`].
//!
//! One cell, one writer, one refresh. Shards, sessions and the front-end
//! record on the handles below directly — relaxed atomics, no lock on the
//! per-reading path. The two cells a sink emission moves have a single
//! writer, [`ServiceCounters::emit`]. The few facts kept elsewhere (the
//! `sysio` injector's tally, the segment tier's quarantine and segment
//! counts) are copied in by a refresh that runs before every read: the
//! registry is private and handed out only by [`ServiceCounters::registry`],
//! and [`ServiceCounters::snapshot`] starts the same way — so a `/metrics`
//! scrape in either format and an in-process [`CountersSnapshot`] (from
//! `counters()`, a drain or a kill) read the same, current cells.

use avoc_net::{CorkMetrics, Message, ReactorMetrics};
use avoc_obs::{Counter, Gauge, Health, HealthLevel, Histogram, Registry, TraceRing};
use avoc_store::TieredStore;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use crate::sink::ResultSink;

/// Live counters shared by every shard and connection of one daemon.
///
/// The `pub(crate)` fields are registry handles the recording code hits
/// directly. The private ones have exactly one writer in this module:
/// [`ServiceCounters::emit`] or the refresh.
#[derive(Debug)]
pub(crate) struct ServiceCounters {
    /// Read through [`ServiceCounters::registry`], which refreshes first.
    registry: Registry,
    /// The segment tier the refresh mirrors (`None`: persistence is off).
    tier: Option<Arc<TieredStore>>,
    /// One refresh at a time: two racing ones would each add the same
    /// difference to a mirrored counter.
    refreshing: Mutex<()>,
    pub(crate) trace: TraceRing,
    /// The daemon's health plane: per-domain degradation state the admin
    /// `/healthz` route renders. Subsystems (session persistence, the
    /// reactor's accept path) set and clear their domains on transitions.
    pub(crate) health: Health,
    pub(crate) sessions_opened: Counter,
    pub(crate) sessions_evicted: Counter,
    pub(crate) sessions_rejected: Counter,
    rounds_fused: Counter,
    pub(crate) fallbacks: Counter,
    /// Counts readings, not commands: a refused or shed data command adds
    /// every reading it carried.
    pub(crate) readings_dropped: Counter,
    /// Readings a live session's hub dropped: late for a round already
    /// fused (a slow sensor, a replay after resume) or from a module the
    /// session does not have. Sessions add their hub's tally as they flush.
    pub(crate) readings_straggled: Counter,
    /// Counts rounds, not frames. Like `result_batches`, written by `emit`
    /// only.
    results_dropped: Counter,
    result_batches: Counter,
    bytes_sent: Counter,
    /// Recorded by the reactor per read.
    pub(crate) bytes_received: Counter,
    frames_sent: Counter,
    writer_flushes: Counter,
    writer_writes: Counter,
    /// Each reactor's health cells (connections open, wakeups, events,
    /// dispatch latency), one entry per event-loop thread, labelled
    /// `{reactor="i"}`. Each reactor thread records into clones of its own
    /// handles; the snapshot sums across reactors.
    pub(crate) reactors: Vec<ReactorMetrics>,
    /// Channel sends into shard data mailboxes. A data command counts once
    /// however many readings it carries — a socket read's `SessionReading`
    /// frames, or a whole `FeedBatch` — so `shard_handoff_sends / readings`
    /// is the handoff amortisation factor.
    pub(crate) shard_handoff_sends: Counter,
    pub(crate) recoveries: Counter,
    pub(crate) resumed_sessions: Counter,
    pub(crate) retries: Counter,
    pub(crate) checkpoint_bytes: Counter,
    wal_replay_ns: Counter,
    segment_load_ns: Counter,
    pub(crate) torn_tail_recoveries: Counter,
    compactions: Counter,
    segment_rounds_folded: Counter,
    segment_bytes_written: Counter,
    /// The tier's segment count, mirrored by the refresh.
    segments_live: Gauge,
    /// Per-shard mailbox-depth high-water marks
    /// (`avoc_shard_queue_high_water{shard="i"}`).
    shard_queue_high_water: Vec<Gauge>,
    fuse_latency_ns: Histogram,
    pub(crate) checkpoint_latency_ns: Histogram,
    wal_replay_latency_ns: Histogram,
    /// The fast path that competes with `wal_replay_latency_ns`.
    segment_load_latency_ns: Histogram,
    compaction_latency_ns: Histogram,
    /// Live sessions by id, for the admin `/sessions` view. Touched only
    /// at session open/resume/close — never per reading.
    directory: Mutex<BTreeMap<u64, SessionEntry>>,
    /// Sessions currently in degraded (memory-only) persistence; the
    /// `persistence` health domain is degraded while this is non-empty.
    degraded_ids: Mutex<HashSet<u64>>,
    pub(crate) checkpoint_failures: Counter,
    degraded_entered: Counter,
    degraded_sessions: Gauge,
    /// The tier's lifetime total, mirrored by the refresh.
    segments_quarantined: Counter,
    /// The `sysio` injector's lifetime total (0 in production), mirrored by
    /// the refresh.
    fault_injected: Counter,
    pub(crate) sessions_exported: Counter,
    pub(crate) sessions_imported: Counter,
    /// The session migrated away; its files are the target's now.
    pub(crate) sessions_skipped_foreign: Counter,
}

/// What the directory remembers about one live session.
#[derive(Debug, Clone)]
struct SessionEntry {
    shard: usize,
    resumable: bool,
    /// The session's own fused-round count: a plain handle, on no registry.
    rounds_fused: Counter,
}

/// Raises a counter that mirrors a lifetime total kept elsewhere (a stale
/// total never lowers it).
fn raise(cell: &Counter, total: u64) {
    cell.add(total.saturating_sub(cell.get()));
}

impl ServiceCounters {
    /// Counters for `shards` workers, one reactor, no tier and no tracing.
    #[cfg(test)]
    pub(crate) fn new(shards: usize) -> Self {
        ServiceCounters::with_observability(shards, 1, 0, 0, None)
    }

    /// Counters for `shards` workers and `reactors` event-loop threads,
    /// plus a trace ring holding `trace_capacity` spans, sampling one
    /// round in `trace_every` (`0` disables tracing), mirroring `tier`.
    pub(crate) fn with_observability(
        shards: usize,
        reactors: usize,
        trace_capacity: usize,
        trace_every: u64,
        tier: Option<Arc<TieredStore>>,
    ) -> Self {
        let registry = Registry::new();
        let c = |name: &str, help: &str| registry.counter(name, help);
        let h = |name: &str, help: &str| registry.latency_histogram_with(name, help, &[]);
        ServiceCounters {
            sessions_opened: c(
                "avoc_sessions_opened_total",
                "Sessions successfully opened.",
            ),
            sessions_evicted: c(
                "avoc_sessions_evicted_total",
                "Sessions evicted (idle timeout or capacity).",
            ),
            sessions_rejected: c(
                "avoc_sessions_rejected_total",
                "Session opens refused by admission control.",
            ),
            rounds_fused: c(
                "avoc_rounds_fused_total",
                "Rounds fused across all sessions.",
            ),
            fallbacks: c(
                "avoc_fallbacks_total",
                "Fused rounds resolved by falling back to a last-good value.",
            ),
            readings_dropped: c(
                "avoc_readings_dropped_total",
                "Readings dropped by backpressure or unknown-session routing.",
            ),
            readings_straggled: c(
                "avoc_readings_straggled_total",
                "Readings a session's hub dropped: late for a fused round, or from an unknown module.",
            ),
            results_dropped: c(
                "avoc_results_dropped_total",
                "Results shed because a tenant sink was full or gone.",
            ),
            result_batches: c(
                "avoc_result_batches_total",
                "Batched result frames shipped.",
            ),
            bytes_sent: c("avoc_bytes_sent_total", "Bytes written to tenant sockets."),
            bytes_received: c(
                "avoc_bytes_received_total",
                "Bytes read from tenant sockets.",
            ),
            frames_sent: c(
                "avoc_frames_sent_total",
                "Frames encoded into outbound writer buffers.",
            ),
            writer_flushes: c("avoc_writer_flushes_total", "Coalesced writer flushes."),
            writer_writes: c(
                "avoc_writer_writes_total",
                "write(2) calls issued by connection writers.",
            ),
            reactors: (0..reactors.max(1))
                .map(|i| ReactorMetrics::register(&registry, &[("reactor", &i.to_string())]))
                .collect(),
            shard_handoff_sends: c(
                "avoc_shard_handoff_sends_total",
                "Channel sends into shard data mailboxes (a command counts once, however many readings it carries).",
            ),
            recoveries: c(
                "avoc_recoveries_total",
                "Sessions rebuilt from a WAL checkpoint.",
            ),
            resumed_sessions: c(
                "avoc_resumed_sessions_total",
                "Sessions re-attached or restored for a resuming client.",
            ),
            retries: c("avoc_retries_total", "Client resume requests received."),
            checkpoint_bytes: c(
                "avoc_checkpoint_bytes_total",
                "Bytes written by session checkpoints.",
            ),
            wal_replay_ns: c(
                "avoc_wal_replay_ns_total",
                "Total nanoseconds spent replaying session WALs.",
            ),
            segment_load_ns: c(
                "avoc_segment_load_ns_total",
                "Total nanoseconds spent cold-resuming sessions from segments.",
            ),
            torn_tail_recoveries: c(
                "avoc_torn_tail_recoveries_total",
                "WAL opens that truncated a torn final record.",
            ),
            compactions: c(
                "avoc_compactions_total",
                "Segment-tier compaction passes completed.",
            ),
            segment_rounds_folded: c(
                "avoc_segment_rounds_folded_total",
                "History rows folded out of WALs into segments.",
            ),
            segment_bytes_written: c(
                "avoc_segment_bytes_written_total",
                "Bytes of segment files written by compaction.",
            ),
            segments_live: registry.gauge(
                "avoc_segments_live",
                "Segment files currently live in the tier.",
            ),
            shard_queue_high_water: (0..shards)
                .map(|i| {
                    registry.gauge_with(
                        "avoc_shard_queue_high_water",
                        "Per-shard data-mailbox depth high-water mark.",
                        &[("shard", &i.to_string())],
                    )
                })
                .collect(),
            fuse_latency_ns: h(
                "avoc_fuse_latency_ns",
                "Per-round fusion latency, nanoseconds.",
            ),
            checkpoint_latency_ns: h(
                "avoc_checkpoint_latency_ns",
                "Session checkpoint (one WAL record) latency, nanoseconds.",
            ),
            wal_replay_latency_ns: h(
                "avoc_wal_replay_latency_ns",
                "Per-session WAL replay latency on recovery, nanoseconds.",
            ),
            segment_load_latency_ns: h(
                "avoc_segment_load_latency_ns",
                "Per-session segment cold-resume latency, nanoseconds.",
            ),
            compaction_latency_ns: h(
                "avoc_compaction_latency_ns",
                "Compaction pass (fold + merge) latency, nanoseconds.",
            ),
            checkpoint_failures: c(
                "avoc_checkpoint_failures_total",
                "Checkpoint attempts that failed (WAL append or sidecar creation error).",
            ),
            degraded_entered: c(
                "avoc_degraded_entered_total",
                "Times a session entered degraded (memory-only) persistence.",
            ),
            degraded_sessions: registry.gauge(
                "avoc_degraded_sessions",
                "Sessions currently running memory-only persistence.",
            ),
            segments_quarantined: c(
                "avoc_segments_quarantined_total",
                "Segments quarantined by the tier on CRC/decode failure.",
            ),
            fault_injected: c(
                "avoc_fault_injected_total",
                "Faults delivered by the sysio injector (test/chaos runs only).",
            ),
            sessions_exported: c(
                "avoc_sessions_exported_total",
                "Sessions checkpoint-shipped to another node.",
            ),
            sessions_imported: c(
                "avoc_sessions_imported_total",
                "Sessions restored from another node's checkpoint shipment.",
            ),
            sessions_skipped_foreign: c(
                "avoc_sessions_skipped_foreign_total",
                "Recovery checkpoints skipped because their meta named another node.",
            ),
            directory: Mutex::new(BTreeMap::new()),
            health: Health::new(),
            degraded_ids: Mutex::new(HashSet::new()),
            trace: TraceRing::new(trace_capacity, trace_every),
            refreshing: Mutex::new(()),
            tier,
            registry,
        }
    }

    /// Sends `msg` to a tenant's sink without ever blocking on it: a full
    /// or disconnected sink sheds the frame, and the tenant learns about
    /// the loss from `avoc_results_dropped_total`. This is the single writer
    /// of that counter and of `avoc_result_batches_total`; a `ResultBatch`
    /// counts every round it carries when shed, and once as a batch when
    /// shipped.
    pub(crate) fn emit(&self, sink: &ResultSink, msg: Message) {
        let batched = match &msg {
            Message::ResultBatch { results, .. } => Some(results.len() as u64),
            _ => None,
        };
        if sink.try_send(msg).is_err() {
            self.results_dropped.add(batched.unwrap_or(1));
        } else if batched.is_some() {
            self.result_batches.inc();
        }
    }

    /// Brings the cells that mirror a tally kept elsewhere up to date.
    fn refresh(&self) {
        let _one_at_a_time = self.refreshing.lock();
        raise(&self.fault_injected, sysio::fault::injected_total());
        if let Some(tier) = &self.tier {
            // Quarantines on the read path (a resume tripping on a corrupt
            // segment) and segments found at boot never pass through
            // `compaction_recorded`; the tier's own totals cover both.
            raise(&self.segments_quarantined, tier.stats().quarantined);
            self.segments_live.set(tier.segment_count() as i64);
        }
    }

    /// The registry behind these counters, refreshed — the scrape surface,
    /// and the hook for other subsystems (chaos proxies in a test rig) to
    /// register their own metrics alongside the service's.
    pub(crate) fn registry(&self) -> &Registry {
        self.refresh();
        &self.registry
    }

    /// Sets the `persistence` health domain from the number of sessions
    /// running memory-only.
    fn persistence_health(&self, degraded: usize) {
        self.degraded_sessions.set(degraded as i64);
        if degraded == 0 {
            self.health.set("persistence", HealthLevel::Ok, "");
        } else {
            self.health.set(
                "persistence",
                HealthLevel::Degraded,
                &format!(
                    "{degraded} session(s) running memory-only after repeated checkpoint failures"
                ),
            );
        }
    }

    /// A session entered degraded (memory-only) persistence: count the
    /// transition and flag the `persistence` health domain.
    pub(crate) fn session_degraded(&self, id: u64) {
        let mut ids = self.degraded_ids.lock();
        if ids.insert(id) {
            self.degraded_entered.inc();
            self.persistence_health(ids.len());
        }
    }

    /// A degraded session healed (or went away): update the gauge and
    /// clear the `persistence` domain once no degraded sessions remain.
    pub(crate) fn session_persistence_recovered(&self, id: u64) {
        let mut ids = self.degraded_ids.lock();
        if ids.remove(&id) {
            self.persistence_health(ids.len());
        }
    }

    /// Lists a session in the admin directory, with `rounds_fused` — the
    /// session's own count — as its `/sessions` round total until
    /// [`ServiceCounters::deregister_session`].
    pub(crate) fn register_session(
        &self,
        id: u64,
        shard: usize,
        resumable: bool,
        rounds_fused: Counter,
    ) {
        let entry = SessionEntry {
            shard,
            resumable,
            rounds_fused,
        };
        self.directory.lock().insert(id, entry);
    }

    /// Ends a session's presence here: its directory entry goes, and it
    /// stops pinning the `persistence` health domain if it died degraded
    /// (every session-drop path funnels through here).
    pub(crate) fn deregister_session(&self, id: u64) {
        self.directory.lock().remove(&id);
        self.session_persistence_recovered(id);
    }

    /// The admin `/sessions` view: one JSON object per live session, sorted
    /// by id, with its shard pin, resumability and fused-round count.
    pub(crate) fn sessions_json(&self) -> String {
        // Format outside the lock the shards take at every open and close.
        let live = self.directory.lock().clone();
        let rows: Vec<String> = live
            .iter()
            .map(|(id, e)| {
                format!(
                    "{{\"session\": {id}, \"shard\": {}, \"resumable\": {}, \
                     \"rounds_fused\": {}}}",
                    e.shard,
                    e.resumable,
                    e.rounds_fused.get()
                )
            })
            .collect();
        format!("[{}]\n", rows.join(", "))
    }

    /// The wire-egress cells as a [`CorkMetrics`] handle set: every
    /// reactor-owned connection's corked writer records on them directly.
    pub(crate) fn cork_metrics(&self) -> CorkMetrics {
        CorkMetrics::from_parts(
            self.frames_sent.clone(),
            self.writer_flushes.clone(),
            self.writer_writes.clone(),
            self.bytes_sent.clone(),
        )
    }

    /// Records one session recovery that replayed a WAL.
    pub(crate) fn wal_replay_ns_add(&self, ns: u64) {
        self.wal_replay_ns.add(ns);
        self.wal_replay_latency_ns.record(ns);
    }

    /// Records one session recovery that seeded from the segment tier
    /// (no WAL to replay) — the counterpart of [`Self::wal_replay_ns_add`].
    pub(crate) fn segment_load_ns_add(&self, ns: u64) {
        self.segment_load_ns.add(ns);
        self.segment_load_latency_ns.record(ns);
    }

    /// Records one compaction pass: how much it folded, what it wrote and
    /// how long it took.
    pub(crate) fn compaction_recorded(&self, rows_folded: u64, bytes_written: u64, ns: u64) {
        self.compactions.inc();
        self.segment_rounds_folded.add(rows_folded);
        self.segment_bytes_written.add(bytes_written);
        self.compaction_latency_ns.record(ns);
    }

    /// Records one fused round and its latency.
    pub(crate) fn round_fused(&self, latency_ns: u64) {
        self.rounds_fused.inc();
        self.fuse_latency_ns.record(latency_ns);
    }

    /// Raises a shard's queue-depth high-water mark to `depth` if higher.
    pub(crate) fn note_queue_depth(&self, shard: usize, depth: usize) {
        if let Some(hw) = self.shard_queue_high_water.get(shard) {
            hw.set_max(depth as i64);
        }
    }

    /// A consistent-enough copy of every counter, refreshed first
    /// (individual loads are relaxed; the snapshot is for operators, not
    /// invariants).
    pub(crate) fn snapshot(&self) -> CountersSnapshot {
        self.refresh();
        CountersSnapshot {
            sessions_opened: self.sessions_opened.get(),
            sessions_evicted: self.sessions_evicted.get(),
            sessions_rejected: self.sessions_rejected.get(),
            rounds_fused: self.rounds_fused.get(),
            fallbacks: self.fallbacks.get(),
            readings_dropped: self.readings_dropped.get(),
            readings_straggled: self.readings_straggled.get(),
            results_dropped: self.results_dropped.get(),
            result_batches: self.result_batches.get(),
            bytes_sent: self.bytes_sent.get(),
            bytes_received: self.bytes_received.get(),
            frames_sent: self.frames_sent.get(),
            writer_flushes: self.writer_flushes.get(),
            writer_writes: self.writer_writes.get(),
            // Snapshot fields predate the multi-reactor pool; they sum the
            // per-reactor cells into totals for the whole data plane.
            connections_accepted: self.reactors.iter().map(|r| r.accepted.get()).sum(),
            connections_open: self.reactors.iter().map(|r| r.connections_open.get()).sum(),
            epoll_wakeups: self.reactors.iter().map(|r| r.epoll_wakeups.get()).sum(),
            reactor_events: self.reactors.iter().map(|r| r.events.get()).sum(),
            wedged_closed: self.reactors.iter().map(|r| r.wedged_closed.get()).sum(),
            accept_pauses: self.reactors.iter().map(|r| r.accept_pauses.get()).sum(),
            shard_handoff_sends: self.shard_handoff_sends.get(),
            recoveries: self.recoveries.get(),
            resumed_sessions: self.resumed_sessions.get(),
            retries: self.retries.get(),
            checkpoint_bytes: self.checkpoint_bytes.get(),
            wal_replay_ms: self.wal_replay_ns.get() as f64 / 1e6,
            segment_load_ms: self.segment_load_ns.get() as f64 / 1e6,
            torn_tail_recoveries: self.torn_tail_recoveries.get(),
            compactions: self.compactions.get(),
            segment_rounds_folded: self.segment_rounds_folded.get(),
            segment_bytes_written: self.segment_bytes_written.get(),
            checkpoint_failures: self.checkpoint_failures.get(),
            degraded_entered: self.degraded_entered.get(),
            degraded_sessions: self.degraded_sessions.get().max(0) as u64,
            segments_quarantined: self.segments_quarantined.get(),
            fault_injected: self.fault_injected.get(),
            sessions_exported: self.sessions_exported.get(),
            sessions_imported: self.sessions_imported.get(),
            sessions_skipped_foreign: self.sessions_skipped_foreign.get(),
            shard_queue_high_water: self
                .shard_queue_high_water
                .iter()
                .map(|hw| hw.get().max(0) as usize)
                .collect(),
        }
    }
}

/// A point-in-time copy of the daemon's counters. Latency distributions
/// are not copied: they live in the `/metrics` histograms
/// (`avoc_fuse_latency_ns` and friends).
#[derive(Debug, Clone, PartialEq)]
pub struct CountersSnapshot {
    /// Sessions successfully opened.
    pub sessions_opened: u64,
    /// Sessions evicted (idle-timeout or capacity eviction).
    pub sessions_evicted: u64,
    /// Session opens refused by admission control.
    pub sessions_rejected: u64,
    /// Rounds fused across all sessions.
    pub rounds_fused: u64,
    /// Fused rounds that resolved by falling back to a last-good value.
    pub fallbacks: u64,
    /// Readings dropped by `DropOldest`/`Reject` backpressure.
    pub readings_dropped: u64,
    /// Readings a live session's hub dropped instead of assembling: late for
    /// a round already fused, or from a module outside the session's set.
    pub readings_straggled: u64,
    /// Result/error frames dropped because a tenant's sink was full or
    /// gone: shards never block on a slow tenant, so its overflow is shed
    /// here and the tenant learns about the loss from this counter.
    pub results_dropped: u64,
    /// Batched result frames shipped (each carried two or more verdicts;
    /// lone verdicts still travel as plain `SessionResult` frames).
    pub result_batches: u64,
    /// Bytes written to tenant sockets by the reactors' corked writers.
    pub bytes_sent: u64,
    /// Bytes read from tenant sockets by the reactors.
    pub bytes_received: u64,
    /// Frames encoded into outbound writer buffers.
    pub frames_sent: u64,
    /// Coalesced writer flushes; `frames_sent / writer_flushes` is the
    /// realized egress batching factor.
    pub writer_flushes: u64,
    /// `write(2)` calls those flushes issued (short writes retry, so this
    /// can exceed `writer_flushes`).
    pub writer_writes: u64,
    /// Connections the reactor accepted over the daemon's lifetime.
    pub connections_accepted: u64,
    /// Sockets the reactor owned at snapshot time (0 after a drain).
    pub connections_open: i64,
    /// Event-loop wakeups (`epoll_wait`/`poll` returns); with
    /// `reactor_events` this gives the events-per-wakeup batching factor.
    pub epoll_wakeups: u64,
    /// Readiness events the reactor dispatched.
    pub reactor_events: u64,
    /// Connections closed for staying unwritable past the write deadline.
    pub wedged_closed: u64,
    /// Times the reactor paused accepting on fd exhaustion.
    pub accept_pauses: u64,
    /// Channel sends into shard data mailboxes: a `FeedBatch` frame costs
    /// one send, and so do all the `SessionReading` frames of one socket
    /// read bound for one shard. `benchmark/` reports it as
    /// `serve.handoff_sends_per_kround`.
    pub shard_handoff_sends: u64,
    /// Sessions rebuilt from a WAL checkpoint (eager recovery at daemon
    /// start, or lazily when a resume found no live session).
    pub recoveries: u64,
    /// Sessions successfully re-attached or restored for a resuming client.
    pub resumed_sessions: u64,
    /// Client resume requests received (each is one retry of a session).
    pub retries: u64,
    /// Bytes written by session checkpoints (WAL appends).
    pub checkpoint_bytes: u64,
    /// Total time spent replaying session WALs, milliseconds.
    pub wal_replay_ms: f64,
    /// Total time spent cold-resuming sessions from the segment tier,
    /// milliseconds — the number `wal_replay_ms` is benchmarked against.
    pub segment_load_ms: f64,
    /// WAL opens that truncated a torn final record (crash artefacts
    /// recovered, not errors).
    pub torn_tail_recoveries: u64,
    /// Segment-tier compaction passes completed.
    pub compactions: u64,
    /// History rows folded out of session WALs into segments.
    pub segment_rounds_folded: u64,
    /// Bytes of segment files written by compaction.
    pub segment_bytes_written: u64,
    /// Checkpoint attempts that failed (WAL append or sidecar creation error).
    pub checkpoint_failures: u64,
    /// Times any session entered degraded (memory-only) persistence.
    pub degraded_entered: u64,
    /// Sessions running memory-only at snapshot time (0 when healthy).
    pub degraded_sessions: u64,
    /// Segments quarantined by the tier on CRC/decode failure.
    pub segments_quarantined: u64,
    /// Faults the sysio injector delivered (0 outside chaos/test runs).
    pub fault_injected: u64,
    /// Sessions checkpoint-shipped to another node (drain/rebalance).
    pub sessions_exported: u64,
    /// Sessions restored from another node's checkpoint shipment.
    pub sessions_imported: u64,
    /// Recovery checkpoints skipped because their meta named another node.
    pub sessions_skipped_foreign: u64,
    /// Per-shard mailbox depth high-water marks.
    pub shard_queue_high_water: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_net::BatchResult;

    #[test]
    fn queue_high_water_is_monotone() {
        let c = ServiceCounters::new(2);
        c.note_queue_depth(0, 5);
        c.note_queue_depth(0, 3);
        c.note_queue_depth(1, 7);
        c.note_queue_depth(9, 100); // out-of-range shard is ignored
        assert_eq!(c.snapshot().shard_queue_high_water, vec![5, 7]);
    }

    #[test]
    fn wire_counters_accumulate() {
        let c = ServiceCounters::new(1);
        let batch = |n: u64| Message::ResultBatch {
            session: 1,
            results: (0..n)
                .map(|round| BatchResult {
                    round,
                    value: None,
                    voted: false,
                })
                .collect(),
        };
        let (tx, rx) = crossbeam::channel::bounded(3);
        let sink: ResultSink = tx.into();
        c.emit(&sink, batch(3));
        c.emit(&sink, batch(2));
        c.emit(&sink, Message::Shutdown); // shipped, but not a batch
                                          // The sink is full now: a batch sheds every round it carries, any
                                          // other frame counts once.
        c.emit(&sink, batch(7));
        c.emit(&sink, Message::Shutdown);
        assert_eq!(rx.len(), 3);
        c.bytes_received.add(1024);
        // The egress cells are fed directly by corked writers holding the
        // service's handle set — the reactor wires every connection this
        // way via `cork_metrics()`.
        let mut w = avoc_net::CorkedWriter::new(Vec::new());
        w.set_metrics(c.cork_metrics());
        w.push(&Message::Shutdown);
        w.flush().unwrap();
        let snap = c.snapshot();
        assert_eq!(snap.result_batches, 2);
        assert_eq!(snap.results_dropped, 8);
        assert_eq!(snap.bytes_received, 1024);
        assert_eq!(snap.frames_sent, 1);
        assert_eq!(snap.writer_flushes, 1);
        assert_eq!(snap.writer_writes, 1);
        assert!(snap.bytes_sent > 0, "flush counted the frame's bytes");
    }

    #[test]
    fn recovery_and_compaction_costs_land_on_counter_and_histogram() {
        let c = ServiceCounters::new(1);
        c.wal_replay_ns_add(2_500_000);
        c.segment_load_ns_add(1_500_000);
        c.compaction_recorded(120, 4096, 3_000_000);
        c.compaction_recorded(30, 1024, 1_000_000);
        let snap = c.snapshot();
        assert!((snap.wal_replay_ms - 2.5).abs() < 1e-9);
        assert!((snap.segment_load_ms - 1.5).abs() < 1e-9);
        assert_eq!(snap.compactions, 2);
        assert_eq!(snap.segment_rounds_folded, 150);
        assert_eq!(snap.segment_bytes_written, 5120);
        let text = c.registry().render_prometheus();
        assert!(text.contains("avoc_wal_replay_latency_ns_count 1"));
        assert!(text.contains("avoc_compaction_latency_ns_count 2"));
        assert!(text.contains("avoc_segment_load_latency_ns_count 1"));
    }

    #[test]
    fn counters_surface_on_the_registry_scrape() {
        let c = ServiceCounters::new(1);
        c.sessions_opened.inc();
        c.round_fused(2_000);
        c.note_queue_depth(0, 9);
        let text = c.registry().render_prometheus();
        assert!(text.contains("avoc_sessions_opened_total 1"));
        assert!(text.contains("avoc_rounds_fused_total 1"));
        assert!(text.contains("avoc_shard_queue_high_water{shard=\"0\"} 9"));
        assert!(text.contains("avoc_fuse_latency_ns_count 1"));
    }

    #[test]
    fn a_mirrored_total_never_goes_backwards() {
        let c = ServiceCounters::new(1);
        raise(&c.segments_quarantined, 3);
        raise(&c.segments_quarantined, 2); // stale report
        raise(&c.segments_quarantined, 5);
        assert_eq!(c.snapshot().segments_quarantined, 5);
    }

    #[test]
    fn degraded_sessions_drive_the_persistence_health_domain() {
        let c = ServiceCounters::new(1);
        assert!(c.health.is_ok());
        c.session_degraded(7);
        c.session_degraded(7); // idempotent: one transition counted
        c.session_degraded(9);
        let snap = c.snapshot();
        assert_eq!(snap.degraded_entered, 2);
        assert_eq!(snap.degraded_sessions, 2);
        assert_eq!(c.health.status_code(), 503);
        assert!(c.health.render_json().contains("\"persistence\""));
        c.session_persistence_recovered(7);
        assert_eq!(
            c.health.status_code(),
            503,
            "one degraded session still pins the domain"
        );
        // A session dying while degraded funnels through deregister and
        // releases the domain too.
        c.deregister_session(9);
        assert!(c.health.is_ok());
        assert_eq!(c.snapshot().degraded_sessions, 0);
        assert_eq!(c.snapshot().degraded_entered, 2, "transitions stay counted");
    }

    #[test]
    fn sessions_lists_each_live_session_with_its_own_round_count() {
        let c = ServiceCounters::new(1);
        let listed = |c: &ServiceCounters, id: u64, resumable: bool, rounds: u64| {
            c.sessions_json().contains(&format!(
                "\"session\": {id}, \"shard\": 0, \"resumable\": {resumable}, \
                 \"rounds_fused\": {rounds}"
            ))
        };
        let seven = Counter::new();
        c.register_session(7, 0, true, seven.clone());
        seven.add(2);
        let three = Counter::new();
        c.register_session(3, 0, false, three.clone());
        three.inc();
        // Sorted by id, each with the rounds its own counter holds.
        let json = c.sessions_json();
        let i3 = json.find("\"session\": 3").expect("session 3 listed");
        let i7 = json.find("\"session\": 7").expect("session 7 listed");
        assert!(i3 < i7);
        assert!(listed(&c, 7, true, 2));
        assert!(listed(&c, 3, false, 1));
        c.deregister_session(7);
        assert!(!c.sessions_json().contains("\"session\": 7"));
        // A session restored under the same id brings a fresh count.
        c.register_session(7, 0, true, Counter::new());
        assert!(listed(&c, 7, true, 0));
        // None of this is a metric series.
        assert!(!c.registry().render_prometheus().contains("session="));
    }

    /// Every family the daemon exposes — name, kind, label keys — against
    /// the checked-in list: `benchmark/` and the gateway roll-up scrape by
    /// name, so a family that moves must move this file too.
    #[test]
    fn exposed_families_match_the_checked_in_list() {
        let c = ServiceCounters::with_observability(2, 2, 0, 0, None);
        let text = c.registry().render_prometheus();
        let mut families = Vec::new();
        let mut lines = text.lines().peekable();
        while let Some(line) = lines.next() {
            let Some(name_and_kind) = line.strip_prefix("# TYPE ") else {
                continue;
            };
            // The family's first sample follows; `le` is the bucket bound,
            // not a label of the series.
            let sample = lines.peek().expect("a family has a sample");
            let keys: Vec<&str> = sample.split_once('{').map_or(Vec::new(), |(_, rest)| {
                rest[..rest.find('}').expect("closing brace")]
                    .split(',')
                    .map(|pair| pair.split_once('=').expect("key=value").0)
                    .filter(|&key| key != "le")
                    .collect()
            });
            families.push(format!("{name_and_kind} {{{}}}", keys.join(",")));
        }
        let listed: Vec<&str> = include_str!("metric_families.txt").lines().collect();
        assert_eq!(families, listed);
    }
}
