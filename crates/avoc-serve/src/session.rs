//! One tenant's voting session: round assembly + fusion + result emission,
//! with optional durable checkpoints and resume support.

use avoc_core::{ModuleId, Round, RoundResult, VoteError, VotingEngine};
use avoc_net::{BatchResult, Message, SensorHub, MAX_BATCH_RESULTS};
use avoc_vdx::{build_engine, VdxSpec};
use std::collections::VecDeque;
use std::time::Instant;

use crate::metrics::ServiceCounters;
use crate::persist::{Loaded, SessionStore, StoredResult, RESULT_RING};
use crate::service::ServeError;
use crate::sink::ResultSink;

/// Cap on the degraded re-probe backoff, in checkpoint attempts skipped
/// between heal probes.
const PROBE_BACKOFF_CAP: u64 = 64;

/// The per-session knobs a shard hands to `open`/`restore` (bundled so the
/// constructors stay readable as resume grows the parameter list).
pub(crate) struct SessionConfig {
    pub(crate) id: u64,
    pub(crate) modules: u32,
    pub(crate) lag_tolerance: u64,
    pub(crate) tick: u64,
    /// Client-chosen resume token; `0` for legacy opens.
    pub(crate) token: u64,
    /// Whether a live `ResumeSession` may re-attach to this session.
    pub(crate) resumable: bool,
}

/// A live session owned by exactly one shard (so the engine's history
/// mutates under that shard's one lock, and rounds fuse in submission
/// order).
pub(crate) struct Session {
    id: u64,
    hub: SensorHub,
    /// Rounds the hub just completed, on loan until they are fused: the
    /// session reads them, then hands the buffers back
    /// ([`SensorHub::recycle`]), so assembling a round allocates nothing.
    ready: Vec<Round>,
    /// The hub's straggler count as last added to
    /// `avoc_readings_straggled_total`.
    straggled_reported: u64,
    engine: VotingEngine,
    sink: ResultSink,
    /// Shard tick of the last reading; drives idle eviction.
    pub(crate) last_active_tick: u64,
    token: u64,
    resumable: bool,
    /// Highest round ever fused (`None` before the first).
    high_round: Option<u64>,
    /// Recent results, re-emitted past the client's ack floor on resume.
    results: VecDeque<StoredResult>,
    /// Results fused since the last flush, awaiting emission. Shipped as
    /// one [`Message::ResultBatch`] per burst (or a plain
    /// [`Message::SessionResult`] when only one round fused), so the
    /// result path pays one frame per burst instead of one per round.
    pending: Vec<BatchResult>,
    persist: Option<SessionStore>,
    /// Rounds this session has fused since it was opened or restored: the
    /// count the admin `/sessions` view lists for it.
    rounds_fused: avoc_obs::Counter,
    /// Whether any round fused since the last flush was trace-sampled (the
    /// flush then leaves one flush span covering the burst).
    pending_sampled: bool,
    /// Current backoff while the store is sick (checkpoint opportunities
    /// skipped between probes), doubled per failed probe up to
    /// [`PROBE_BACKOFF_CAP`]; `0` while the session is not degraded.
    probe_backoff: u64,
    /// Checkpoint opportunities left before the next heal probe.
    probe_in: u64,
    /// Whether the owning shard has this session listed for its next
    /// result flush. Set and cleared under the shard's lock only.
    pub(crate) flush_queued: bool,
}

impl Session {
    /// Builds the session's engine from its (already validated) spec.
    pub(crate) fn open(
        cfg: &SessionConfig,
        spec: &VdxSpec,
        sink: impl Into<ResultSink>,
        persist: Option<SessionStore>,
    ) -> Result<Self, ServeError> {
        let sink = sink.into();
        let expected: Vec<ModuleId> = (0..cfg.modules).map(ModuleId::new).collect();
        let engine = build_engine(spec).map_err(ServeError::Vdx)?;
        Ok(Session {
            id: cfg.id,
            hub: SensorHub::new(expected).with_lag_tolerance(cfg.lag_tolerance),
            ready: Vec::new(),
            straggled_reported: 0,
            engine,
            sink,
            last_active_tick: cfg.tick,
            token: cfg.token,
            resumable: cfg.resumable,
            high_round: None,
            results: VecDeque::new(),
            pending: Vec::new(),
            persist,
            rounds_fused: avoc_obs::Counter::new(),
            pending_sampled: false,
            probe_backoff: 0,
            probe_in: 0,
            flush_queued: false,
        })
    }

    /// Rebuilds a session from its durable state: the engine is seeded with
    /// the recovered history records (so AVOC's clustering bootstrap stays
    /// dormant — the store is warm, not flat) and the hub's completed-round
    /// floor is pre-set to the recovered `high_round`, so readings a
    /// resuming client replays for already-fused rounds are dropped as
    /// stragglers instead of fusing twice.
    pub(crate) fn restore(
        cfg: &SessionConfig,
        spec: &VdxSpec,
        sink: impl Into<ResultSink>,
        loaded: Loaded,
    ) -> Result<Self, ServeError> {
        let mut s = Session::open(cfg, spec, sink, None)?;
        s.engine.seed_histories(&loaded.store.seed_records());
        s.hub = s.hub.with_completed_through(loaded.high_round);
        s.high_round = loaded.high_round;
        s.results = loaded.results.into();
        s.persist = Some(loaded.store);
        Ok(s)
    }

    /// A handle on the session's fused-round count, for the directory.
    pub(crate) fn rounds_fused(&self) -> avoc_obs::Counter {
        self.rounds_fused.clone()
    }

    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    pub(crate) fn resumable(&self) -> bool {
        self.resumable
    }

    /// Highest fully-fused round, if any round has completed yet.
    pub(crate) fn high_round(&self) -> Option<u64> {
        self.high_round
    }

    /// Feeds one reading; fuses and emits any rounds that became complete.
    /// `sampled` marks a trace-sampled reading: rounds it completes leave
    /// fuse (and later flush) spans in the service trace ring.
    pub(crate) fn feed(
        &mut self,
        module: ModuleId,
        round: u64,
        value: f64,
        tick: u64,
        sampled: bool,
        counters: &ServiceCounters,
    ) {
        self.assemble(module, round, value, tick);
        self.fuse_ready(sampled, counters);
    }

    /// Assembles one reading without fusing: the rounds it completes wait,
    /// on loan from the hub, for the next [`Session::fuse_ready`].
    pub(crate) fn assemble(&mut self, module: ModuleId, round: u64, value: f64, tick: u64) {
        self.last_active_tick = tick;
        self.hub
            .accept_reading_into(module, round, value, &mut self.ready);
    }

    /// Fuses the rounds the hub lent out, in order, and hands them back.
    ///
    /// One clock pair times the whole batch, and the batch is recorded once:
    /// its round count on the service and session counters, its time in
    /// `avoc_fuse_latency_ns` at the batch mean. The clock stops around each
    /// checkpoint, so store I/O stays out of the fuse time. With `sampled`,
    /// every round is timed on its own instead, for its fuse span. A round
    /// that fails to fuse is timed with the batch but not counted in it.
    pub(crate) fn fuse_ready(&mut self, sampled: bool, counters: &ServiceCounters) {
        if self.ready.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.ready);
        let (mut fused, mut fuse_ns) = (0, 0);
        let mut started = Instant::now();
        for r in &ready {
            let outcome = self.fuse(r, counters);
            let checkpoint_due = outcome.is_ok() && self.persist.is_some();
            fused += u64::from(outcome.is_ok());
            if !(sampled || checkpoint_due || outcome.is_err()) {
                continue;
            }
            let latency = started.elapsed().as_nanos() as u64;
            fuse_ns += latency;
            match outcome {
                Ok(()) => {
                    if sampled {
                        counters.trace.record(avoc_obs::Span {
                            session: self.id,
                            round: r.round,
                            stage: avoc_obs::Stage::Fuse,
                            start_ns: avoc_obs::now_ns().saturating_sub(latency),
                            dur_ns: latency,
                        });
                        self.pending_sampled = true;
                    }
                    if checkpoint_due {
                        self.checkpoint(counters);
                    }
                }
                Err(e) => {
                    // Ship everything fused before the failure first, so
                    // the tenant sees emissions in fuse order.
                    self.flush_results(counters);
                    let reply = Message::Error {
                        session: self.id,
                        message: format!("round {}: {e}", r.round),
                    };
                    counters.emit(&self.sink, reply);
                }
            }
            started = Instant::now();
        }
        fuse_ns += started.elapsed().as_nanos() as u64;
        if fused > 0 {
            counters.batch_fused(fuse_ns, fused);
            self.rounds_fused.add(fused);
        }
        self.hub.recycle(&mut ready);
        self.ready = ready;
    }

    /// Flushes partially assembled rounds through the engine (close/evict/
    /// drain path), emits every pending result, then writes a final
    /// checkpoint so the durable state is as warm as the session was.
    pub(crate) fn flush(&mut self, counters: &ServiceCounters) {
        self.hub.flush_all_into(&mut self.ready);
        self.fuse_ready(false, counters);
        self.flush_results(counters);
        self.checkpoint(counters);
    }

    /// Ships everything fused since the last flush. The shard calls this
    /// at the end of every step and, inside one, after every `DATA_BURST`
    /// readings it feeds — so a burst's verdicts leave as bounded
    /// [`Message::ResultBatch`] frames regardless of how the readings were
    /// framed on the wire; a lone result goes as a plain
    /// [`Message::SessionResult`] (interactive traffic keeps its shape and
    /// latency).
    pub(crate) fn flush_results(&mut self, counters: &ServiceCounters) {
        // The shard fuses a session's run before anything else touches it,
        // so no round waits assembled but unfused past this point.
        debug_assert!(self.ready.is_empty(), "flush with rounds left unfused");
        // Readings the hub dropped since the last flush (late for a fused
        // round, or from a module the session does not have) — tallied here,
        // per burst, not per reading.
        let straggled = self.hub.straggler_count();
        if straggled != self.straggled_reported {
            counters
                .readings_straggled
                .add(straggled - self.straggled_reported);
            self.straggled_reported = straggled;
        }
        if self.pending.is_empty() {
            return;
        }
        let trace_start = if self.pending_sampled {
            avoc_obs::now_ns()
        } else {
            0
        };
        self.emit_results(&self.pending, counters);
        if self.pending_sampled {
            // One flush span covers the whole burst; its round is the last
            // one flushed.
            let round = self.pending.last().map_or(0, |r| r.round);
            counters.trace.record(avoc_obs::Span {
                session: self.id,
                round,
                stage: avoc_obs::Stage::Flush,
                start_ns: trace_start,
                dur_ns: avoc_obs::now_ns().saturating_sub(trace_start),
            });
            self.pending_sampled = false;
        }
        self.pending.clear();
    }

    /// Ships `items` to the sink in fuse order, batching everything beyond
    /// a single result into [`Message::ResultBatch`] chunks.
    fn emit_results(&self, items: &[BatchResult], counters: &ServiceCounters) {
        for chunk in items.chunks(MAX_BATCH_RESULTS) {
            counters.emit_results(&self.sink, self.id, chunk);
        }
    }

    /// Writes a checkpoint now: one record appended to the session's log.
    /// Errors leave the previous checkpoint in place — recovery degrades,
    /// never corrupts.
    ///
    /// The first failed append degrades the session to memory-only: a log
    /// that lost a record takes no more appends, since the deltas after it
    /// would never repeat what it carried. Serving continues from the
    /// in-memory engine and result ring, and the health plane reports
    /// `persistence: degraded`. While the store is sick, each checkpoint
    /// opportunity counts down a capped exponential backoff, and at zero
    /// the session probes the disk by rewriting its log whole; the first
    /// rewrite that lands returns it to durable operation.
    pub(crate) fn checkpoint(&mut self, counters: &ServiceCounters) {
        let Some(store) = self.persist.as_mut() else {
            return;
        };
        let failed = if !store.sick() {
            let started = Instant::now();
            match store.checkpoint(&self.engine.histories(), self.high_round, &self.results) {
                Ok(bytes) => {
                    counters.checkpoint_bytes.add(bytes);
                    let latency = started.elapsed().as_nanos() as u64;
                    counters.scrape_only.checkpoint_latency_ns.record(latency);
                    return;
                }
                Err(e) => e,
            }
        } else if self.probe_in > 1 {
            self.probe_in -= 1;
            return;
        } else {
            match store.rewrite(&self.engine.histories(), self.high_round, &self.results) {
                Ok(()) => {
                    self.probe_backoff = 0;
                    counters.session_persistence_recovered(self.id);
                    eprintln!(
                        "avoc-serve: session {} persistence healed; durable \
                         checkpoints resumed from a rewritten log",
                        self.id
                    );
                    return;
                }
                Err(e) => e,
            }
        };
        counters.checkpoint_failures.inc();
        if self.probe_backoff == 0 {
            counters.session_degraded(self.id);
            eprintln!(
                "avoc-serve: session {} entering degraded (memory-only) \
                 persistence: {failed}",
                self.id
            );
        }
        self.probe_backoff = (self.probe_backoff * 2).clamp(1, PROBE_BACKOFF_CAP);
        self.probe_in = self.probe_backoff;
    }

    /// Quiesces this session at its current round boundary and returns its
    /// shippable log for a [`Message::SessionState`] transfer frame.
    /// Pending results flush to the tenant first (the stream up to the
    /// boundary completes on this node); partially assembled rounds are
    /// deliberately *not* force-fused — the client replays its unacked
    /// readings at the target, so the migrated stream fuses them exactly as
    /// an uninterrupted run would. After this returns the on-disk log's
    /// head names `target_node`.
    ///
    /// # Errors
    ///
    /// Fails when the session has no durable store (memory-only sessions
    /// cannot ship), or on any export I/O failure — the session stays live
    /// here and the caller reports the migration as failed.
    pub(crate) fn export(
        &mut self,
        target_node: u64,
        counters: &ServiceCounters,
    ) -> std::io::Result<Vec<u8>> {
        self.flush_results(counters);
        let Some(store) = self.persist.as_mut() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "session has no durable state to export",
            ));
        };
        let records = self.engine.histories();
        store.export(target_node, &records, self.high_round, &self.results)
    }

    /// Tells the tenant its session now lives at `addr` (sent in-band on
    /// the session's own sink right before a migrated session leaves this
    /// node, so a connected client re-homes without waiting for a failure).
    pub(crate) fn announce_redirect(&self, epoch: u64, addr: &str, counters: &ServiceCounters) {
        let msg = Message::Redirect {
            session: self.id,
            epoch,
            addr: addr.to_string(),
        };
        counters.emit(&self.sink, msg);
    }

    /// Deletes the session's durable state (explicit close: done for good).
    pub(crate) fn remove_store(&mut self) {
        if let Some(store) = self.persist.take() {
            store.remove();
        }
    }

    /// Whether `sink` is where this session currently emits.
    pub(crate) fn sink_is(&self, sink: &ResultSink) -> bool {
        self.sink.same_route(sink)
    }

    /// Drops the session's hold on a disconnected client's outbox,
    /// replacing it with a dead sink. The session lingers for a future
    /// re-attach (its ring retains the results a resume will replay); until
    /// then, emissions are counted as dropped.
    pub(crate) fn detach(&mut self, counters: &ServiceCounters) {
        // Complete the dying connection's stream first: pending results
        // belong to the old sink (shed-and-counted if it is already gone).
        self.flush_results(counters);
        self.sink = ResultSink::dead();
    }

    /// Re-attaches a resuming client: swap in its sink, acknowledge with
    /// [`Message::Resumed`], then re-emit every result past its ack floor.
    pub(crate) fn reattach(
        &mut self,
        sink: impl Into<ResultSink>,
        last_acked: Option<u64>,
        tick: u64,
        counters: &ServiceCounters,
    ) {
        // Pending results complete the *old* stream; the ring already
        // holds them, so the replay below re-covers the new sink and the
        // client's ack-floor dedup absorbs any overlap.
        self.flush_results(counters);
        self.sink = sink.into();
        self.last_active_tick = tick;
        self.announce_resumed(true, counters);
        self.replay_results(last_acked, counters);
    }

    /// Sends the resume acknowledgement frame.
    pub(crate) fn announce_resumed(&self, warm: bool, counters: &ServiceCounters) {
        let msg = Message::Resumed {
            session: self.id,
            high_round: self.high_round,
            warm,
        };
        counters.emit(&self.sink, msg);
    }

    /// Re-emits ring results the client has not acknowledged (rounds in
    /// `(last_acked, high_round]`); `None` replays the whole ring. The
    /// replay ships through the same batched path as live results, so a
    /// resumed stream is framed like an uninterrupted one.
    pub(crate) fn replay_results(&self, last_acked: Option<u64>, counters: &ServiceCounters) {
        let unacked: Vec<BatchResult> = self
            .results
            .iter()
            .filter(|&&(round, _, _)| last_acked.is_none_or(|a| round > a))
            .map(|&(round, value, voted)| BatchResult {
                round,
                value,
                voted,
            })
            .collect();
        self.emit_results(&unacked, counters);
    }

    /// Fuses one round and books its verdict for the next flush.
    fn fuse(&mut self, round: &Round, counters: &ServiceCounters) -> Result<(), VoteError> {
        // `submit_ref` keeps the verdict in the engine's reusable slot: the
        // serve hot path copies only the scalar it puts on the wire.
        let result = self.engine.submit_ref(round)?;
        if matches!(result, RoundResult::Fallback { .. }) {
            counters.fallbacks.inc();
        }
        // Numeric sessions carry the fused value on the wire; vector/text
        // verdicts are reported as voted-but-opaque (the result frame is
        // fixed-width by design).
        let value = result.number();
        let voted = result.is_voted();
        self.high_round = Some(self.high_round.map_or(round.round, |h| h.max(round.round)));
        if self.results.len() == RESULT_RING {
            self.results.pop_front();
        }
        self.results.push_back((round.round, value, voted));
        // Accumulated, not sent: the shard flushes pending results once per
        // step (and per burst inside one), so a burst leaves as one frame.
        // The emission itself never blocks the shard on a tenant's sink — a
        // full sink means the tenant reads too slowly, a gone one that it
        // went away; either would wedge every session pinned to this shard
        // and hang graceful drain — with losses counted in
        // `results_dropped`.
        self.pending.push(BatchResult {
            round: round.round,
            value,
            voted,
        });
        Ok(())
    }

    /// Notifies the tenant that the service evicted this session.
    pub(crate) fn notify_evicted(&self, reason: &str, counters: &ServiceCounters) {
        let notice = Message::Error {
            session: self.id,
            message: format!("session evicted: {reason}"),
        };
        counters.emit(&self.sink, notice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;

    fn cfg(id: u64, modules: u32) -> SessionConfig {
        SessionConfig {
            id,
            modules,
            lag_tolerance: 8,
            tick: 0,
            token: 0,
            resumable: false,
        }
    }

    #[test]
    fn session_fuses_complete_rounds_and_flushes_partials() {
        let counters = ServiceCounters::new();
        let (tx, rx) = channel::unbounded();
        let mut s = Session::open(&cfg(5, 3), &VdxSpec::avoc(), tx, None).unwrap();

        for (m, v) in [(0, 20.0), (1, 20.2), (2, 19.9)] {
            s.feed(ModuleId::new(m), 0, v, 1, false, &counters);
        }
        // Results accumulate until the shard's end-of-step flush; a lone
        // fused round then leaves as a plain SessionResult frame.
        assert!(rx.try_recv().is_err());
        s.flush_results(&counters);
        match rx.try_recv().unwrap() {
            Message::SessionResult {
                session,
                round,
                value,
                voted,
            } => {
                assert_eq!(session, 5);
                assert_eq!(round, 0);
                assert!(voted);
                let v = value.unwrap();
                assert!((19.9..=20.2).contains(&v));
            }
            other => panic!("unexpected {other:?}"),
        }

        // A partial round sits in the hub until flushed.
        s.feed(ModuleId::new(0), 1, 21.0, 2, false, &counters);
        assert!(rx.try_recv().is_err());
        s.flush(&counters);
        assert!(matches!(
            rx.try_recv().unwrap(),
            Message::SessionResult { round: 1, .. }
        ));
        assert_eq!(counters.snapshot().rounds_fused, 2);
        assert_eq!(s.rounds_fused().get(), 2);
    }

    #[test]
    fn wedged_sink_sheds_results_instead_of_blocking() {
        let counters = ServiceCounters::new();
        // Capacity-1 sink that nobody reads: wedged after the first flush.
        let (tx, rx) = channel::bounded(1);
        let mut s = Session::open(&cfg(1, 1), &VdxSpec::avoc(), tx, None).unwrap();
        // Single-module rounds: each feed fuses one result. A blocking sink
        // send on flush would deadlock the second burst below.
        for round in 0..5u64 {
            s.feed(ModuleId::new(0), round, 20.0, round + 1, false, &counters);
        }
        s.flush_results(&counters); // batch takes the single sink slot
        for round in 5..10u64 {
            s.feed(ModuleId::new(0), round, 20.0, round + 1, false, &counters);
        }
        s.flush_results(&counters); // wedged: this batch is shed
        let snap = counters.snapshot();
        assert_eq!(snap.rounds_fused, 10);
        assert_eq!(
            snap.results_dropped, 5,
            "a shed batch counts every result it carried"
        );
        match rx.try_recv().unwrap() {
            Message::ResultBatch { session, results } => {
                assert_eq!(session, 1);
                let rounds: Vec<u64> = results.iter().map(|r| r.round).collect();
                assert_eq!(rounds, vec![0, 1, 2, 3, 4]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reattach_replays_only_unacked_results() {
        let counters = ServiceCounters::new();
        let (tx, _rx) = channel::unbounded();
        let mut s = Session::open(
            &SessionConfig {
                resumable: true,
                token: 42,
                ..cfg(9, 1)
            },
            &VdxSpec::avoc(),
            tx,
            None,
        )
        .unwrap();
        for round in 0..4u64 {
            s.feed(
                ModuleId::new(0),
                round,
                10.0 + round as f64,
                round + 1,
                false,
                &counters,
            );
        }
        assert_eq!(s.token(), 42);
        assert!(s.resumable());

        // A new client attaches having acked round 1: it must see Resumed
        // first, then results 2 and 3 only (batched, like a live burst).
        let (tx2, rx2) = channel::unbounded();
        s.reattach(tx2, Some(1), 10, &counters);
        assert!(matches!(
            rx2.try_recv().unwrap(),
            Message::Resumed {
                session: 9,
                high_round: Some(3),
                warm: true,
            }
        ));
        let replayed: Vec<u64> = rx2
            .try_iter()
            .flat_map(|m| match m {
                Message::SessionResult { round, .. } => vec![round],
                Message::ResultBatch { results, .. } => results.iter().map(|r| r.round).collect(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(replayed, vec![2, 3]);
    }
}
