//! Service counters: every fact the daemon reports about itself, as one
//! cell on an [`avoc_obs::Registry`], declared once as a row of a
//! [`avoc_obs::facts!`] table ([`ServiceFacts`] and the shard and latency
//! tables here, [`CorkMetrics`] and [`ReactorMetrics`] in `avoc-net`).
//! Recording sites hit the handles directly
//! (relaxed atomics, no lock per reading). The facts kept elsewhere (the
//! `sysio` injector's tally, the segment tier's counts) are copied in by a
//! refresh that runs before every read through [`ServiceCounters::registry`]
//! or [`ServiceCounters::snapshot`], so a `/metrics` scrape and an
//! in-process [`CountersSnapshot`] read the same, current cells.

use avoc_net::{CorkMetrics, Message, PackedResult, ReactorMetrics, ReactorSnapshot};
use avoc_obs::{facts, Counter, Health, HealthLevel, Registry, TraceRing};
use avoc_store::TieredStore;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::ops::Deref;
use std::sync::Arc;

use crate::sink::ResultSink;

/// Spans the trace ring holds.
const TRACE_CAPACITY: usize = 4096;

facts! {
    /// The daemon's unlabelled facts, with the other tables' families
    /// spliced in where the exposition lists them.
    pub(crate) struct ServiceFacts => pub struct ServiceSnapshot {
        /// Sessions successfully opened.
        pub(crate) sessions_opened: Counter = "avoc_sessions_opened_total",
        /// Sessions evicted by idle timeout.
        pub(crate) sessions_evicted: Counter = "avoc_sessions_evicted_total",
        /// Session opens refused by admission control.
        pub(crate) sessions_rejected: Counter = "avoc_sessions_rejected_total",
        /// Rounds fused across all sessions.
        rounds_fused: Counter = "avoc_rounds_fused_total",
        /// Fused rounds resolved by falling back to a last-good value.
        pub(crate) fallbacks: Counter = "avoc_fallbacks_total",
        /// Readings dropped for want of a live session (evicted, closed, or
        /// never opened).
        pub(crate) readings_dropped: Counter = "avoc_readings_dropped_total",
        // Sessions add their hub's tally as they flush.
        /// Readings a session's hub dropped: late for a fused round, or from
        /// an unknown module.
        pub(crate) readings_straggled: Counter = "avoc_readings_straggled_total",
        /// Results shed because a tenant sink was full or gone.
        results_dropped: Counter = "avoc_results_dropped_total",
        /// Batched result frames shipped.
        result_batches: Counter = "avoc_result_batches_total",
        ..CorkMetrics,
        ..ReactorMetrics,
        // Per reading: `benchmark/`'s `serve.handoff_sends_per_kround`.
        /// Reading hand-offs to a shard: one per shard lock taken for a
        /// socket read's staged readings or one `FeedBatch`, however many
        /// readings it carries.
        pub(crate) shard_handoff_sends: Counter = "avoc_shard_handoff_sends_total",
        // At daemon start, or when a resume found no live session.
        /// Sessions rebuilt from a WAL checkpoint.
        pub(crate) recoveries: Counter = "avoc_recoveries_total",
        /// Sessions re-attached or restored for a resuming client.
        pub(crate) resumed_sessions: Counter = "avoc_resumed_sessions_total",
        /// Client resume requests received.
        pub(crate) retries: Counter = "avoc_retries_total",
        /// Bytes written by session checkpoints.
        pub(crate) checkpoint_bytes: Counter = "avoc_checkpoint_bytes_total",
        /// Total nanoseconds spent replaying session WALs.
        wal_replay_ns: Counter = "avoc_wal_replay_ns_total",
        // The number `wal_replay_ns` is benchmarked against.
        /// Total nanoseconds spent cold-resuming sessions from segments.
        segment_load_ns: Counter = "avoc_segment_load_ns_total",
        // Crash artefacts recovered, not errors.
        /// WAL opens that truncated a torn final record.
        pub(crate) torn_tail_recoveries: Counter = "avoc_torn_tail_recoveries_total",
        /// Segment-tier compaction passes completed.
        compactions: Counter = "avoc_compactions_total",
        /// History rows folded out of WALs into segments.
        segment_rounds_folded: Counter = "avoc_segment_rounds_folded_total",
        /// Bytes of segment files written by compaction.
        segment_bytes_written: Counter = "avoc_segment_bytes_written_total",
        ..ScrapeOnly,
        /// Checkpoint attempts that failed (a log append, or landing a new
        /// session's log).
        pub(crate) checkpoint_failures: Counter = "avoc_checkpoint_failures_total",
        /// Times a session entered degraded (memory-only) persistence.
        degraded_entered: Counter = "avoc_degraded_entered_total",
        /// Sessions currently running memory-only persistence.
        degraded_sessions: Gauge as u64 = "avoc_degraded_sessions",
        /// Segments quarantined by the tier on CRC/decode failure.
        segments_quarantined: Counter = "avoc_segments_quarantined_total",
        /// Faults delivered by the sysio injector (test/chaos runs only).
        fault_injected: Counter = "avoc_fault_injected_total",
        // Drain or rebalance.
        /// Sessions checkpoint-shipped to another node.
        pub(crate) sessions_exported: Counter = "avoc_sessions_exported_total",
        /// Sessions restored from another node's checkpoint shipment.
        pub(crate) sessions_imported: Counter = "avoc_sessions_imported_total",
        // The session migrated away; its files are the target's now.
        /// Recovery checkpoints skipped because their meta named another
        /// node.
        pub(crate) sessions_skipped_foreign: Counter = "avoc_sessions_skipped_foreign_total",
    }
}

facts! {
    /// On `/metrics` but not in a [`CountersSnapshot`]: the segment tier's
    /// size and the latency distributions.
    pub(crate) struct ScrapeOnly {
        /// Segment files currently live in the tier.
        segments_live: Gauge = "avoc_segments_live",
        /// Per-round fuse latency, recorded once per batch at the batch mean,
        /// nanoseconds.
        fuse_latency_ns: Histogram = "avoc_fuse_latency_ns",
        /// Session checkpoint (one WAL record) latency, nanoseconds.
        pub(crate) checkpoint_latency_ns: Histogram = "avoc_checkpoint_latency_ns",
        /// Per-session WAL replay latency on recovery, nanoseconds.
        wal_replay_latency_ns: Histogram = "avoc_wal_replay_latency_ns",
        /// Per-session segment cold-resume latency, nanoseconds.
        segment_load_latency_ns: Histogram = "avoc_segment_load_latency_ns",
        /// Compaction pass (fold + merge) latency, nanoseconds.
        compaction_latency_ns: Histogram = "avoc_compaction_latency_ns",
    }
}

/// Live counters shared by every shard and connection of one daemon; derefs
/// to the [`ServiceFacts`] handles the recording code hits directly.
#[derive(Debug)]
pub(crate) struct ServiceCounters {
    /// Read through [`ServiceCounters::registry`], which refreshes first.
    registry: Registry,
    facts: ServiceFacts,
    /// The wire cells every reactor-owned connection records on.
    pub(crate) wire: CorkMetrics,
    /// Each event-loop thread's cells, `{reactor="i"}`; the snapshot sums.
    pub(crate) reactors: Vec<ReactorMetrics>,
    pub(crate) scrape_only: ScrapeOnly,
    /// The segment tier the refresh mirrors (`None`: persistence is off).
    tier: Option<Arc<TieredStore>>,
    /// Two racing refreshes would each add one difference to a mirror.
    refreshing: Mutex<()>,
    pub(crate) trace: TraceRing,
    /// Per-domain degradation state for `/healthz`, set by subsystems.
    pub(crate) health: Health,
    /// Live sessions by id for `/sessions`, touched only at open/close.
    directory: Mutex<BTreeMap<u64, SessionEntry>>,
    /// Sessions in memory-only persistence, degrading `persistence`.
    degraded_ids: Mutex<HashSet<u64>>,
}

impl Deref for ServiceCounters {
    type Target = ServiceFacts;

    fn deref(&self) -> &ServiceFacts {
        &self.facts
    }
}

/// What the directory remembers about one live session.
#[derive(Debug, Clone)]
struct SessionEntry {
    shard: usize,
    resumable: bool,
    /// The session's own fused-round count: a plain handle, on no registry.
    rounds_fused: Counter,
}

/// Raises a mirror of a lifetime total kept elsewhere; a stale one is a no-op.
fn raise(cell: &Counter, total: u64) {
    cell.add(total.saturating_sub(cell.get()));
}

impl ServiceCounters {
    /// Counters for one reactor, no tier and no tracing.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        ServiceCounters::with_observability(1, 0, None)
    }

    /// Counters for `reactors` event loops and `tier`, with a ring of
    /// [`TRACE_CAPACITY`] spans sampling 1 round in `trace_every`.
    pub(crate) fn with_observability(
        reactors: usize,
        trace_every: u64,
        tier: Option<Arc<TieredStore>>,
    ) -> Self {
        let registry = Registry::new();
        ServiceCounters {
            facts: ServiceFacts::register(&registry, &[]),
            wire: CorkMetrics::register(&registry, &[]),
            reactors: (0..reactors.max(1))
                .map(|i| ReactorMetrics::register(&registry, &[("reactor", &i.to_string())]))
                .collect(),
            scrape_only: ScrapeOnly::register(&registry, &[]),
            directory: Mutex::new(BTreeMap::new()),
            health: Health::new(),
            degraded_ids: Mutex::new(HashSet::new()),
            trace: TraceRing::new(TRACE_CAPACITY, trace_every),
            refreshing: Mutex::new(()),
            tier,
            registry,
        }
    }

    /// Sends `msg` to a tenant's sink without ever blocking: a full or gone
    /// sink sheds it, counted once in `results_dropped`.
    pub(crate) fn emit(&self, sink: &ResultSink, msg: Message) {
        if !sink.send(msg) {
            self.results_dropped.inc();
        }
    }

    /// Sends one frame of `session`'s verdicts (see
    /// [`ResultSink::send_results`]) without ever blocking. A shed frame
    /// counts every verdict it carried in `results_dropped`; a shipped
    /// `ResultBatch` counts once in `result_batches`.
    pub(crate) fn emit_results(&self, sink: &ResultSink, session: u64, parts: &[&[PackedResult]]) {
        let count: usize = parts.iter().map(|part| part.len()).sum();
        if !sink.send_results(session, parts) {
            self.results_dropped.add(count as u64);
        } else if count > 1 {
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
            self.scrape_only
                .segments_live
                .set(tier.segment_count() as i64);
        }
    }

    /// The registry behind these counters, refreshed: the scrape surface.
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
                &format!("{degraded} session(s) running memory-only after a failed checkpoint"),
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

    /// Lists a session on `/sessions` with its own `rounds_fused` count,
    /// until [`ServiceCounters::deregister_session`].
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

    /// Ends a session's presence here: its directory entry goes, and so does
    /// its pin on `persistence` if it died degraded. Every drop ends here.
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

    /// Records one session resume's cost on the side that served it: the
    /// segment tier alone (no WAL left to replay) or a WAL replay.
    pub(crate) fn resume_timed(&self, from_segments: bool, ns: u64) {
        let (total, latency) = match from_segments {
            true => (
                &self.segment_load_ns,
                &self.scrape_only.segment_load_latency_ns,
            ),
            false => (&self.wal_replay_ns, &self.scrape_only.wal_replay_latency_ns),
        };
        total.add(ns);
        latency.record(ns);
    }

    /// Records one compaction pass: rows folded, bytes written, time taken.
    pub(crate) fn compaction_recorded(&self, rows_folded: u64, bytes_written: u64, ns: u64) {
        self.compactions.inc();
        self.segment_rounds_folded.add(rows_folded);
        self.segment_bytes_written.add(bytes_written);
        self.scrape_only.compaction_latency_ns.record(ns);
    }

    /// Records a batch of `n` fused rounds that took `total_ns` between
    /// them, at their mean.
    pub(crate) fn batch_fused(&self, total_ns: u64, n: u64) {
        self.rounds_fused.add(n);
        self.scrape_only.fuse_latency_ns.record_n(total_ns, n);
    }

    /// A copy of every counter, refreshed first; loads are relaxed, so it
    /// is for operators, not invariants.
    pub(crate) fn snapshot(&self) -> CountersSnapshot {
        self.refresh();
        let wire = self.wire.snapshot();
        let reactors: Vec<ReactorSnapshot> =
            self.reactors.iter().map(ReactorMetrics::snapshot).collect();
        let sum = |cell: fn(&ReactorSnapshot) -> u64| reactors.iter().map(cell).sum();
        CountersSnapshot {
            service: self.facts.snapshot(),
            bytes_sent: wire.bytes_sent,
            bytes_received: wire.bytes_received,
            frames_sent: wire.frames_sent,
            writer_flushes: wire.writer_flushes,
            writer_writes: wire.writer_writes,
            connections_accepted: sum(|r| r.accepted),
            connections_open: reactors.iter().map(|r| r.connections_open).sum(),
            epoll_wakeups: sum(|r| r.epoll_wakeups),
            reactor_events: sum(|r| r.events),
            wedged_closed: sum(|r| r.wedged_closed),
            accept_pauses: sum(|r| r.accept_pauses),
        }
    }
}

/// A copy of the daemon's counters: the [`ServiceSnapshot`] it derefs to,
/// plus the wire cells and the reactors' cells summed.
#[derive(Debug, Clone, PartialEq)]
pub struct CountersSnapshot {
    service: ServiceSnapshot,
    /// Bytes written to tenant sockets by the reactors' corked writers.
    pub bytes_sent: u64,
    /// Bytes read from tenant sockets by the reactors.
    pub bytes_received: u64,
    /// Frames encoded into outbound writer buffers.
    pub frames_sent: u64,
    /// Coalesced writer flushes.
    pub writer_flushes: u64,
    /// `write(2)` calls those flushes issued.
    pub writer_writes: u64,
    /// Connections the reactors accepted over the daemon's lifetime.
    pub connections_accepted: u64,
    /// Sockets the reactors owned at snapshot time (0 after a drain).
    pub connections_open: i64,
    /// Event-loop wakeups (`epoll_wait`/`poll` returns).
    pub epoll_wakeups: u64,
    /// Readiness events the reactors dispatched.
    pub reactor_events: u64,
    /// Connections closed for staying unwritable past the write deadline.
    pub wedged_closed: u64,
    /// Times a reactor paused accepting on fd exhaustion.
    pub accept_pauses: u64,
}

impl Deref for CountersSnapshot {
    type Target = ServiceSnapshot;

    fn deref(&self) -> &ServiceSnapshot {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_net::BatchResult;

    #[test]
    fn wire_counters_accumulate() {
        let c = ServiceCounters::new();
        let batch: Vec<PackedResult> = (0..7)
            .map(|round| {
                BatchResult {
                    round,
                    value: None,
                    voted: false,
                }
                .into()
            })
            .collect();
        let (tx, rx) = crossbeam::channel::bounded(4);
        let sink: ResultSink = tx.into();
        c.emit_results(&sink, 1, &[&batch[..3]]);
        c.emit_results(&sink, 1, &[&batch[..2]]);
        // A lone verdict ships as a plain frame, not a batch; so does a
        // control frame, and the sink is full after it: a batch sheds
        // every round it carries, any other frame once.
        c.emit_results(&sink, 1, &[&batch[..1]]);
        c.emit(&sink, Message::Shutdown);
        c.emit_results(&sink, 1, &[&batch[..4], &batch[4..]]);
        c.emit(&sink, Message::Shutdown);
        assert_eq!(rx.len(), 4);
        let snap = c.snapshot();
        assert_eq!((snap.result_batches, snap.results_dropped), (2, 8));
    }

    #[test]
    fn recovery_and_compaction_costs_land_on_counter_and_histogram() {
        let c = ServiceCounters::new();
        c.resume_timed(false, 2_500_000);
        c.resume_timed(true, 1_500_000);
        c.compaction_recorded(120, 4096, 3_000_000);
        c.compaction_recorded(30, 1024, 1_000_000);
        let snap = c.snapshot();
        assert_eq!(snap.wal_replay_ns, 2_500_000);
        assert_eq!(snap.segment_load_ns, 1_500_000);
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
        let c = ServiceCounters::new();
        c.sessions_opened.inc();
        c.batch_fused(2_000, 1);
        let text = c.registry().render_prometheus();
        assert!(text.contains("avoc_sessions_opened_total 1"));
        assert!(text.contains("avoc_rounds_fused_total 1"));
        assert!(text.contains("avoc_fuse_latency_ns_count 1"));
    }

    /// A socket that takes at most three bytes per `write(2)`.
    struct Trickle(Vec<u8>);

    impl std::io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The data-plane fields copy the wire and reactor tables' cells, each
    /// its own: every cell holds a different value here.
    #[test]
    fn data_plane_fields_read_their_own_cells() {
        let c = ServiceCounters::with_observability(2, 0, None);
        // Short writes part the egress cells: three frames, two flushes,
        // a write per three bytes.
        let mut w = avoc_net::CorkedWriter::new(Trickle(Vec::new()));
        w.set_metrics(c.wire.clone());
        w.push(&Message::Shutdown);
        w.push(&Message::Shutdown);
        w.flush().unwrap();
        w.push(&Message::Shutdown);
        w.flush().unwrap();
        c.wire.bytes_received.add(1);
        let st = w.stats();
        let wire = [st.bytes, 1, st.frames, st.flushes, st.writes];
        assert_eq!(wire[2..4], [3, 2], "three frames over two flushes");
        let distinct: HashSet<u64> = wire.into_iter().collect();
        assert_eq!(distinct.len(), wire.len(), "egress cells must differ");
        for (i, r) in c.reactors.iter().enumerate() {
            let i = i as u64 * 100;
            r.accepted.add(i + 6);
            r.connections_open.add(i as i64 + 7);
            r.epoll_wakeups.add(i + 8);
            r.events.add(i + 9);
            r.wedged_closed.add(i + 10);
            r.accept_pauses.add(i + 11);
        }
        let s = c.snapshot();
        let copied = [
            s.bytes_sent,
            s.bytes_received,
            s.frames_sent,
            s.writer_flushes,
            s.writer_writes,
        ];
        assert_eq!(copied, wire);
        let reactors = [
            s.connections_accepted,
            s.epoll_wakeups,
            s.reactor_events,
            s.wedged_closed,
            s.accept_pauses,
        ];
        assert_eq!(reactors, [112, 116, 118, 120, 122]);
        assert_eq!(s.connections_open, 114);
    }

    #[test]
    fn a_mirrored_total_never_goes_backwards() {
        let c = ServiceCounters::new();
        raise(&c.segments_quarantined, 3);
        raise(&c.segments_quarantined, 2); // stale report
        raise(&c.segments_quarantined, 5);
        assert_eq!(c.snapshot().segments_quarantined, 5);
    }

    #[test]
    fn degraded_sessions_drive_the_persistence_health_domain() {
        let c = ServiceCounters::new();
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
        let c = ServiceCounters::new();
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
        let c = ServiceCounters::with_observability(2, 0, None);
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
