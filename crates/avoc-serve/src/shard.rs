//! Shard workers: session-pinned executors behind bounded mailboxes.

use avoc_core::ModuleId;
use avoc_net::{Message, SpecSource};
use avoc_vdx::VdxSpec;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use avoc_store::TieredStore;

use crate::metrics::ServiceCounters;
use crate::persist::{MetaState, Persistence, SessionStore};
use crate::session::{Session, SessionConfig};
use crate::sink::ResultSink;

/// What a shard does when its bounded data mailbox is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// The producer blocks until the shard catches up. Nothing is lost;
    /// latency propagates upstream (through TCP flow control, to sensors).
    #[default]
    Block,
    /// The oldest queued reading is dropped to admit the new one: freshest
    /// data wins, bounded staleness. Drops are counted.
    DropOldest,
    /// The new reading is refused and the producer told; queued work is
    /// never discarded. Drops are counted.
    Reject,
}

/// Everything a shard needs to install a session (shared by `Open` and
/// `Resume`, which differ only in how they treat pre-existing state).
pub(crate) struct OpenReq {
    /// Session identifier.
    pub(crate) session: u64,
    /// Modules feeding each round.
    pub(crate) modules: u32,
    /// The governing spec (boxed: specs are large, commands are queued).
    pub(crate) spec: Box<VdxSpec>,
    /// How the tenant named the spec — persisted so recovery can re-resolve
    /// it without the tenant.
    pub(crate) spec_source: SpecSource,
    /// Client-chosen resume token (`0` for legacy opens).
    pub(crate) token: u64,
    /// Whether a live `ResumeSession` may later re-attach.
    pub(crate) resumable: bool,
    /// Where the session's results go.
    pub(crate) sink: ResultSink,
    /// Evict this shard's idlest session if the service is at capacity.
    pub(crate) evict_if_full: bool,
}

/// Work routed to a shard. Sessions are pinned: every command for a session
/// id lands on the same shard, so session state needs no synchronisation.
///
/// Commands travel on two channels per shard: lifecycle commands (`Open`,
/// `Resume`, `Close`, `Drain`, `Abort`) on a control mailbox the worker
/// always drains first, and `Reading`s / `ReadingBurst`s on the
/// backpressured data mailbox — so a flood of data can never displace,
/// reorder, or shed a control command.
pub(crate) enum ShardCommand {
    /// Install a session (spec already resolved and validated).
    Open(OpenReq),
    /// Idempotent re-open: re-attach to a live session whose token matches,
    /// restore from a durable checkpoint, or fall back to a fresh session.
    Resume {
        /// The session to install or re-attach.
        req: OpenReq,
        /// Highest round the client has acknowledged; results past it are
        /// re-emitted from the session's ring.
        last_acked: Option<u64>,
        /// Daemon-internal recovery scan (not a client retry): counted as a
        /// recovery only, and never as a resume or retry.
        eager: bool,
    },
    /// One measurement for a session's round.
    Reading {
        /// Target session.
        session: u64,
        /// Submitting module.
        module: ModuleId,
        /// Round number.
        round: u64,
        /// Measured value.
        value: f64,
        /// Trace stamp: [`avoc_obs::now_ns`] at enqueue when this reading
        /// was sampled for tracing, `0` (the overwhelmingly common case)
        /// when not. The worker turns a non-zero stamp into a queue span.
        queued_ns: u64,
    },
    /// A whole `FeedBatch` frame's readings for one session in a single
    /// command: one mailbox slot and one channel send however many
    /// readings it carries, so a 52k-reading frame costs O(1) handoffs
    /// instead of O(readings). The worker feeds the readings in order —
    /// exactly as the per-reading path would — then clears the buffer and
    /// returns it through `recycle` so the steady state allocates nothing.
    ReadingBurst {
        /// Target session (a `FeedBatch` frame is single-session, so a
        /// burst never needs re-splitting by shard).
        session: u64,
        /// The readings, in submission order (never empty).
        readings: Vec<avoc_net::BatchReading>,
        /// Trace stamp for the burst as a whole (`0` when unsampled);
        /// one queue span covers every reading it carried.
        queued_ns: u64,
        /// Where the drained buffer goes back to. The pool channel is
        /// bounded; a full (or disconnected, at shutdown) pool just drops
        /// the buffer.
        recycle: crossbeam::channel::Sender<Vec<avoc_net::BatchReading>>,
    },
    /// Flush and remove a session (its durable state is deleted: an
    /// explicit close means the tenant is done for good).
    Close {
        /// Session to close.
        session: u64,
    },
    /// A connection died without closing this resumable session: release
    /// its sink (so the connection's writer can exit) but keep the session
    /// lingering for a re-attach. Ignored unless the session still emits to
    /// `sink` — a client that already re-attached elsewhere must not have
    /// its fresh sink torn away by its old connection's teardown.
    Detach {
        /// The lingering session.
        session: u64,
        /// The dead connection's outbound channel.
        sink: ResultSink,
    },
    /// Quiesce a session at its round boundary and ship its durable state
    /// to a migration target: reply with [`Message::SessionState`] on
    /// `sink` (or [`Message::Error`] on failure), tell the tenant where it
    /// moved via an in-band [`Message::Redirect`], and release the session
    /// here. Its files stay behind, re-stamped with the target's ownership,
    /// so a transfer lost in flight can be re-asked for idempotently.
    Export {
        /// The session to ship.
        session: u64,
        /// Node id the session is moving to.
        target_node: u64,
        /// Ownership epoch the gateway is installing with this move.
        epoch: u64,
        /// `host:port` of the target daemon, for the tenant's redirect.
        target_addr: String,
        /// The requester's (gateway's) connection, for the reply.
        sink: ResultSink,
    },
    /// Land a migrated session's shipped blobs and eagerly resume it warm.
    /// The file writes happen here — on the shard that owns the session id —
    /// so they are serialized with any live instance of the same session: an
    /// idempotent re-drive of a completed migration (gateway crash after the
    /// target acked, operator retry) must answer `Resumed { warm: true }`
    /// without truncating the WAL the live session holds open.
    Import {
        /// The session to install, as the shipped sidecar describes it
        /// (spec already resolved; `req.sink` gets the `Resumed`/`Error`
        /// answer).
        req: OpenReq,
        /// The shipped WAL bytes.
        wal: Vec<u8>,
    },
    /// Flush every session (final checkpoints included) and exit the worker
    /// loop.
    Drain,
    /// Hard kill: drop every session *without* flushing, leaving durable
    /// state exactly as the last completed checkpoint wrote it — the
    /// crash-simulation path integration tests restart daemons through.
    Abort,
}

/// Per-shard worker state.
pub(crate) struct ShardWorker {
    pub(crate) index: usize,
    /// Control mailbox: lifecycle commands, drained before data.
    pub(crate) ctrl_rx: Receiver<ShardCommand>,
    /// Data mailbox: `Reading`s under the configured backpressure policy.
    pub(crate) data_rx: Receiver<ShardCommand>,
    pub(crate) counters: Arc<ServiceCounters>,
    /// Global live-session count (shared across shards for admission).
    pub(crate) active: Arc<AtomicUsize>,
    /// Global capacity the `active` count is checked against.
    pub(crate) max_sessions: usize,
    /// Readings a session may go without before an eviction sweep reaps it,
    /// measured in shard ticks (one tick per processed reading).
    pub(crate) idle_ticks: u64,
    /// Hub lag tolerance for each session's round assembly.
    pub(crate) lag_tolerance: u64,
    /// Crash-safety configuration (state dir, fsync, checkpoint cadence).
    pub(crate) persistence: Persistence,
    /// The segment tier behind the state dir, shared with the compactor
    /// thread. `None` when persistence is off or the tier failed to open.
    pub(crate) tiered: Option<Arc<TieredStore>>,
}

/// How often (in ticks) the worker sweeps for idle sessions.
const SWEEP_INTERVAL: u64 = 64;

/// How long the worker blocks on an empty data mailbox before re-checking
/// control. Under load control is drained before every burst, so this only
/// bounds control latency on an otherwise idle shard.
const CONTROL_POLL: Duration = Duration::from_millis(5);

/// How many queued readings one wakeup may process before control is
/// re-checked. Draining a burst amortises the blocking receive (and its
/// timeout bookkeeping) across many readings when the mailbox runs deep —
/// batched producers fill it faster than one-command wakeups can empty it —
/// while keeping worst-case control latency to one burst of fuses.
const DATA_BURST: usize = 64;

/// The mutable state one worker owns: its sessions, its logical clock,
/// control commands put aside while hunting for a pending `Open` (see
/// [`ShardWorker::reading`]), and whether a `Drain`/`Abort` has told it to
/// stop.
struct ShardState {
    sessions: HashMap<u64, Session>,
    tick: u64,
    deferred: VecDeque<ShardCommand>,
    /// Sessions that fused results this wakeup; their pending verdicts are
    /// flushed (batched into one frame each) once per loop iteration.
    touched: Vec<u64>,
    stop: bool,
}

impl ShardWorker {
    /// The worker loop: control commands first, then readings, until `Drain`
    /// (flushing all sessions) or `Abort` (flushing none), or until every
    /// sender disconnects.
    ///
    /// The loop never blocks on anything a tenant controls — session sinks
    /// are fed with `try_send` — so one stalled tenant cannot wedge the
    /// other sessions pinned here, and `Drain` is always reachable.
    pub(crate) fn run(self) {
        let mut st = ShardState {
            sessions: HashMap::new(),
            tick: 0,
            deferred: VecDeque::new(),
            touched: Vec::new(),
            stop: false,
        };
        let mut ctrl_alive = true;
        while !st.stop {
            // Control first: commands deferred by `reading`'s Open hunt,
            // then the control mailbox — a deep data backlog must never
            // delay or reorder Open/Close/Drain.
            while !st.stop {
                let Some(cmd) = st.deferred.pop_front() else {
                    break;
                };
                self.control(cmd, &mut st);
            }
            while ctrl_alive && !st.stop {
                match self.ctrl_rx.try_recv() {
                    Ok(cmd) => self.control(cmd, &mut st),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => ctrl_alive = false,
                }
            }
            if st.stop {
                break;
            }
            // Then up to a burst of readings, keeping control responsive
            // under sustained data load without paying a timed wait per
            // reading.
            match self.data_rx.recv_timeout(CONTROL_POLL) {
                Ok(cmd) => {
                    // Consumer-side depth sample: catches backlog the
                    // producer-side samples miss when senders go quiet
                    // while the queue is deep.
                    self.counters
                        .note_queue_depth(self.index, self.data_rx.len());
                    self.reading(cmd, &mut st);
                    for _ in 1..DATA_BURST {
                        match self.data_rx.try_recv() {
                            Ok(cmd) => self.reading(cmd, &mut st),
                            Err(_) => break,
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    if !ctrl_alive {
                        break; // every producer is gone
                    }
                    // Data producers are gone; only control can arrive now.
                    // Ship what the last burst fused before blocking — the
                    // wait is unbounded.
                    self.flush_touched(&mut st);
                    match self.ctrl_rx.recv() {
                        Ok(cmd) => self.control(cmd, &mut st),
                        Err(_) => break,
                    }
                }
            }
            // End of wakeup: everything this iteration fused leaves now, so
            // a burst's verdicts coalesce into one frame per session while
            // an interactive round still ships before the next sleep.
            self.flush_touched(&mut st);
        }
        // Graceful drain: every in-flight round is fused and reported
        // before the worker exits (an `Abort` already emptied the map, so
        // nothing flushes there). The global slots stay claimed: releasing
        // them here would let an `Open` still queued on a slower shard win a
        // slot freed by shutdown and be admitted past `max_sessions` — the
        // count dies with the service, so leaking it is harmless.
        for (id, mut s) in st.sessions.drain() {
            s.flush(&self.counters);
            self.counters.deregister_session(id);
        }
    }

    fn control(&self, cmd: ShardCommand, st: &mut ShardState) {
        match cmd {
            ShardCommand::Open(req) => {
                self.admit(st, req, false);
            }
            ShardCommand::Resume {
                req,
                last_acked,
                eager,
            } => self.resume(st, req, last_acked, eager),
            ShardCommand::Close { session } => {
                // Readings the tenant sent before this Close are still in
                // the data mailbox; process them first so prioritising
                // control does not orphan them.
                self.drain_data_backlog(st);
                if let Some(mut s) = st.sessions.remove(&session) {
                    s.flush(&self.counters);
                    s.remove_store();
                    self.counters.deregister_session(session);
                    self.active.fetch_sub(1, Ordering::Relaxed);
                }
            }
            ShardCommand::Detach { session, sink } => {
                if let Some(s) = st.sessions.get_mut(&session) {
                    if s.sink_is(&sink) {
                        s.detach(&self.counters);
                    }
                }
            }
            ShardCommand::Export {
                session,
                target_node,
                epoch,
                target_addr,
                sink,
            } => {
                // Readings queued before the export are part of the stream
                // this node owes; feed them so the shipped checkpoint sits
                // at the latest round boundary.
                self.drain_data_backlog(st);
                self.export(st, session, target_node, epoch, &target_addr, &sink);
            }
            ShardCommand::Import { req, wal } => self.import(st, req, &wal),
            ShardCommand::Drain => {
                self.drain_data_backlog(st);
                st.stop = true;
            }
            ShardCommand::Abort => {
                // Crash semantics: no backlog drain, no flush, no final
                // checkpoint — sessions die mid-thought and durable state
                // stays at the last completed checkpoint.
                for (id, _) in st.sessions.drain() {
                    self.counters.deregister_session(id);
                }
                st.stop = true;
            }
            // Readings (and bursts) are routed to the data mailbox;
            // tolerate a stray one here rather than crash the worker.
            cmd @ (ShardCommand::Reading { .. } | ShardCommand::ReadingBurst { .. }) => {
                self.reading(cmd, st);
            }
        }
    }

    /// Ships every touched session's pending results. Sessions that left
    /// the map since fusing (closed, evicted, swept) already flushed on
    /// their way out, so a stale id here is simply skipped.
    fn flush_touched(&self, st: &mut ShardState) {
        for id in st.touched.drain(..) {
            if let Some(s) = st.sessions.get_mut(&id) {
                s.flush_results(&self.counters);
            }
        }
    }

    /// Ships a session to a migration target (see [`ShardCommand::Export`]).
    /// Live sessions quiesce and leave; a session that already migrated to
    /// this exact target re-ships its on-disk state (idempotent retry); an
    /// unknown session answers with an error frame.
    fn export(
        &self,
        st: &mut ShardState,
        session: u64,
        target_node: u64,
        epoch: u64,
        target_addr: &str,
        sink: &ResultSink,
    ) {
        if let Some(s) = st.sessions.get_mut(&session) {
            match s.export(target_node, &self.counters) {
                Ok((meta, wal)) => {
                    let reply = Message::SessionState {
                        session,
                        epoch,
                        auth: self.persistence.cluster_secret.unwrap_or(0),
                        meta,
                        wal,
                    };
                    if sink.try_send(reply).is_err() {
                        self.counters.result_dropped();
                    }
                    // The tenant re-homes without waiting for a failure.
                    s.announce_redirect(epoch, target_addr, &self.counters);
                    // Release the session: it no longer runs here. Its
                    // files stay behind (stamped with the target's id) so a
                    // lost transfer can be re-asked for; the target's
                    // import — not this node — now owns the live state.
                    st.sessions.remove(&session);
                    self.counters.deregister_session(session);
                    self.active.fetch_sub(1, Ordering::Relaxed);
                    self.counters.session_exported();
                }
                Err(e) => {
                    let notice = Message::Error {
                        session,
                        message: format!("export failed: {e}"),
                    };
                    if sink.try_send(notice).is_err() {
                        self.counters.result_dropped();
                    }
                }
            }
            return;
        }
        // Not live here. If a prior export to this same target completed,
        // its state is still on disk under the target's name — re-ship it.
        if let Some(dir) = self.persistence.state_dir.as_deref() {
            if let Some((meta, wal)) =
                crate::persist::read_exported_blobs(dir, session, target_node)
            {
                let reply = Message::SessionState {
                    session,
                    epoch,
                    auth: self.persistence.cluster_secret.unwrap_or(0),
                    meta,
                    wal,
                };
                if sink.try_send(reply).is_err() {
                    self.counters.result_dropped();
                }
                self.counters.session_exported();
                return;
            }
            // Cold export: the session has durable state this node owns but
            // is not resident (recovered at a boot this gateway never saw,
            // or idled out of memory). A drain must still be able to ship
            // it — migrating only live sessions strands fused history on
            // the drained node.
            let loaded = SessionStore::load(
                dir,
                session,
                self.persistence.durability(),
                self.tiered.as_ref(),
            );
            if let Some(mut loaded) = loaded {
                if loaded.store.meta().node == self.persistence.node_id {
                    let records = loaded.store.seed_records();
                    let ring: VecDeque<_> = loaded.results.into();
                    match loaded
                        .store
                        .export_blobs(target_node, &records, loaded.high_round, &ring)
                    {
                        Ok((meta, wal)) => {
                            let reply = Message::SessionState {
                                session,
                                epoch,
                                auth: self.persistence.cluster_secret.unwrap_or(0),
                                meta,
                                wal,
                            };
                            if sink.try_send(reply).is_err() {
                                self.counters.result_dropped();
                            }
                            self.counters.session_exported();
                        }
                        Err(e) => {
                            let notice = Message::Error {
                                session,
                                message: format!("export failed: {e}"),
                            };
                            if sink.try_send(notice).is_err() {
                                self.counters.result_dropped();
                            }
                        }
                    }
                    return;
                }
            }
        }
        let notice = Message::Error {
            session,
            message: "export failed: session not found on this node".into(),
        };
        if sink.try_send(notice).is_err() {
            self.counters.result_dropped();
        }
    }

    /// Lands a shipped session (see [`ShardCommand::Import`]). A session
    /// already live here with the same token is the idempotent re-drive of
    /// a completed migration: acknowledge `Resumed { warm: true }` without
    /// touching the durable files the live session holds open. Only when
    /// the session is not resident are the blobs written and the session
    /// eagerly resumed from them.
    fn import(&self, st: &mut ShardState, req: OpenReq, wal: &[u8]) {
        if let Some(s) = st.sessions.get(&req.session) {
            if s.resumable() && s.token() == req.token {
                // Re-drive of a migration that already landed: confirm on
                // the requester's (gateway's) sink without stealing the
                // tenant's attachment or rewriting the live session's files.
                let ack = Message::Resumed {
                    session: req.session,
                    high_round: s.high_round(),
                    warm: true,
                };
                if req.sink.try_send(ack).is_err() {
                    self.counters.result_dropped();
                }
            } else {
                self.refuse(
                    &req.sink,
                    req.session,
                    "import token mismatch with live session",
                );
            }
            return;
        }
        let Some(dir) = self.persistence.state_dir.clone() else {
            self.refuse(
                &req.sink,
                req.session,
                "import refused: this node has no state directory",
            );
            return;
        };
        // The landed sidecar is the shipped one with ownership adopted.
        let meta = self.meta_for(&req);
        if let Err(e) =
            SessionStore::write_imported(&dir, req.session, &meta, wal, self.tiered.as_ref())
        {
            self.refuse(
                &req.sink,
                req.session,
                &format!("import failed writing state: {e}"),
            );
            return;
        }
        self.counters.session_imported();
        // The importing daemon has nothing to re-emit; the client's own
        // resume replays against its real ack floor.
        self.resume(st, req, Some(u64::MAX), true);
    }

    /// Processes the readings already queued when a `Close`/`Drain`
    /// arrived, bounded by the queue length at entry (items enqueued while
    /// draining wait their turn).
    fn drain_data_backlog(&self, st: &mut ShardState) {
        for _ in 0..self.data_rx.len() {
            match self.data_rx.try_recv() {
                Ok(cmd) => self.reading(cmd, st),
                Err(_) => break,
            }
        }
    }

    /// Dispatches one data-mailbox command: a single reading, or a burst
    /// fed reading-by-reading in submission order (so the fused stream is
    /// bit-identical to the per-reading path).
    fn reading(&self, cmd: ShardCommand, st: &mut ShardState) {
        match cmd {
            ShardCommand::Reading {
                session,
                module,
                round,
                value,
                queued_ns,
            } => {
                if queued_ns != 0 {
                    // Sampled reading: its mailbox wait becomes a queue span.
                    self.queue_span(session, round, queued_ns);
                }
                self.feed_one(st, session, module, round, value, queued_ns != 0);
            }
            ShardCommand::ReadingBurst {
                session,
                mut readings,
                queued_ns,
                recycle,
            } => {
                if queued_ns != 0 {
                    // One queue span covers the whole burst (it waited as
                    // one mailbox entry).
                    let round = readings.first().map_or(0, |r| r.round);
                    self.queue_span(session, round, queued_ns);
                }
                for (i, r) in readings.iter().enumerate() {
                    self.feed_one(st, session, r.module, r.round, r.value, queued_ns != 0);
                    // Keep the egress cadence of the per-reading path: a
                    // wakeup used to fuse at most DATA_BURST readings
                    // before shipping results, so a giant burst must not
                    // coalesce its whole verdict stream into a handful of
                    // maximum-size frames (the trailing partial chunk
                    // flushes at end of wakeup, exactly as before).
                    if (i + 1) % DATA_BURST == 0 {
                        self.flush_touched(st);
                    }
                }
                readings.clear();
                let _ = recycle.try_send(readings);
            }
            // Control commands never reach the data mailbox.
            _ => {}
        }
    }

    /// Records the mailbox wait of a sampled reading (or burst).
    fn queue_span(&self, session: u64, round: u64, queued_ns: u64) {
        self.counters.trace().record(avoc_obs::Span {
            session,
            round,
            stage: avoc_obs::Stage::Queue,
            start_ns: queued_ns,
            dur_ns: avoc_obs::now_ns().saturating_sub(queued_ns),
        });
    }

    /// Feeds one reading into its session: the shard tick, the Open hunt,
    /// the engine feed and the idle sweep all happen per reading, whether
    /// it arrived alone or inside a burst.
    fn feed_one(
        &self,
        st: &mut ShardState,
        session: u64,
        module: ModuleId,
        round: u64,
        value: f64,
        traced: bool,
    ) {
        st.tick += 1;
        if !st.sessions.contains_key(&session) {
            // The session's Open/Resume is always enqueued before its
            // readings, but on the control channel — it may not have been
            // processed yet. Hunt for it: install Opens on the way, but
            // *defer* anything else until after this reading — executing a
            // Close here would drain the data backlog past the reading in
            // hand, reordering that tenant's rounds. An Open whose id has a
            // deferred Close ahead of it (close-then-reopen) is deferred
            // too, preserving their relative order.
            while !st.sessions.contains_key(&session) {
                match self.ctrl_rx.try_recv() {
                    Ok(cmd) => {
                        let open_id = match &cmd {
                            ShardCommand::Open(req) | ShardCommand::Resume { req, .. } => {
                                Some(req.session)
                            }
                            _ => None,
                        };
                        let install_now = open_id.is_some_and(|id| {
                            !st.deferred.iter().any(
                                |d| matches!(d, ShardCommand::Close { session: s } if *s == id),
                            )
                        });
                        if install_now {
                            self.control(cmd, st);
                        } else {
                            st.deferred.push_back(cmd);
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        if let Some(s) = st.sessions.get_mut(&session) {
            s.feed(module, round, value, st.tick, traced, &self.counters);
            if !st.touched.contains(&session) {
                st.touched.push(session);
            }
        } else {
            // Genuinely unknown session: late (evicted, or sent after
            // Close) or misrouted. Counted as a drop, but no error frame —
            // per-reading errors would amplify a flood.
            self.counters.reading_dropped();
        }
        if st.tick.is_multiple_of(SWEEP_INTERVAL) {
            self.sweep(st);
        }
    }

    /// Installs a fresh session. With `announce`, acknowledges with a cold
    /// [`Message::Resumed`] (the resume-fallback path). Returns whether the
    /// session was admitted.
    fn admit(&self, st: &mut ShardState, req: OpenReq, announce: bool) -> bool {
        if st.sessions.contains_key(&req.session) {
            self.refuse(&req.sink, req.session, "session id already open");
            return false;
        }
        if !self.reserve_or_evict(st, req.evict_if_full) {
            self.refuse(&req.sink, req.session, "service at session capacity");
            return false;
        }
        let cfg = SessionConfig {
            id: req.session,
            modules: req.modules,
            lag_tolerance: self.lag_tolerance,
            tick: st.tick,
            token: req.token,
            resumable: req.resumable,
            checkpoint_every: self.persistence.checkpoint_every,
        };
        let store = self.make_store(&req);
        match Session::open(&cfg, &req.spec, req.sink.clone(), store) {
            Ok(mut s) => {
                s.set_fuse_histogram(self.counters.register_session(
                    req.session,
                    self.index,
                    req.resumable,
                ));
                // A durable session's first checkpoint is its registration:
                // a crash before the first fused round still recovers it.
                s.checkpoint(&self.counters);
                if announce {
                    s.announce_resumed(false, &self.counters);
                }
                st.sessions.insert(req.session, s);
                self.counters.session_opened();
                true
            }
            Err(e) => {
                // Roll the reserved slot back.
                self.active.fetch_sub(1, Ordering::Relaxed);
                self.refuse(&req.sink, req.session, &e.to_string());
                false
            }
        }
    }

    /// The resume path: live re-attach, checkpoint restore, or fresh
    /// fallback — in that order.
    fn resume(&self, st: &mut ShardState, req: OpenReq, last_acked: Option<u64>, eager: bool) {
        if !eager {
            self.counters.retry();
        }
        // 1. Live session: re-attach if the token proves ownership.
        if let Some(s) = st.sessions.get_mut(&req.session) {
            if s.resumable() && s.token() == req.token {
                s.reattach(req.sink, last_acked, st.tick, &self.counters);
                self.counters.session_resumed();
            } else {
                self.refuse(&req.sink, req.session, "resume token mismatch");
            }
            return;
        }
        // 2. Durable checkpoint: rebuild the session warm.
        if let Some(dir) = self.persistence.state_dir.clone() {
            let started = Instant::now();
            let loaded = SessionStore::load(
                &dir,
                req.session,
                self.persistence.durability(),
                self.tiered.as_ref(),
            );
            if let Some(loaded) = loaded {
                let meta = loaded.store.meta().clone();
                if meta.node != self.persistence.node_id {
                    // The sidecar names another node: this session migrated
                    // away. Refuse rather than resurrect a second copy —
                    // the client falls back to the gateway, which knows the
                    // owner.
                    self.refuse(&req.sink, req.session, "session migrated to another node");
                    return;
                }
                // Attribute the resume cost to the tier that served it: a
                // WAL replay and a pure segment load are the two sides of
                // the bench this store exists to win.
                let elapsed = started.elapsed().as_nanos() as u64;
                if loaded.from_segments {
                    self.counters.segment_load_ns_add(elapsed);
                } else {
                    self.counters.wal_replay_ns_add(elapsed);
                }
                if loaded.torn_tail {
                    self.counters.torn_tail_recovered();
                }
                if meta.token != req.token {
                    // Someone else's durable state: refuse rather than
                    // silently clobber it with a fresh session.
                    self.refuse(&req.sink, req.session, "resume token mismatch");
                    return;
                }
                // A non-resumable checkpoint (legacy open) may still be
                // recovered by the daemon's own startup scan.
                if meta.resumable || eager {
                    if !self.reserve_or_evict(st, req.evict_if_full) {
                        self.refuse(&req.sink, req.session, "service at session capacity");
                        return;
                    }
                    let cfg = SessionConfig {
                        id: req.session,
                        modules: meta.modules,
                        lag_tolerance: self.lag_tolerance,
                        tick: st.tick,
                        token: meta.token,
                        resumable: meta.resumable,
                        checkpoint_every: self.persistence.checkpoint_every,
                    };
                    match Session::restore(&cfg, &req.spec, req.sink.clone(), loaded) {
                        Ok(mut s) => {
                            s.set_fuse_histogram(self.counters.register_session(
                                req.session,
                                self.index,
                                meta.resumable,
                            ));
                            s.announce_resumed(true, &self.counters);
                            s.replay_results(last_acked, &self.counters);
                            st.sessions.insert(req.session, s);
                            self.counters.recovery();
                            if !eager {
                                self.counters.session_resumed();
                            }
                        }
                        Err(e) => {
                            self.active.fetch_sub(1, Ordering::Relaxed);
                            self.refuse(&req.sink, req.session, &e.to_string());
                        }
                    }
                    return;
                }
            }
        }
        // 3. No live session, no usable checkpoint: fresh fallback. The
        // AVOC engine re-bootstraps from live data — the paper's cold-start
        // path, now the *last* resort instead of the only behaviour.
        self.admit(
            st,
            OpenReq {
                resumable: true,
                ..req
            },
            true,
        );
    }

    /// Creates the session's durable store, or `None` when persistence is
    /// off — or when creation fails, in which case the session degrades to
    /// memory-only rather than being refused.
    fn make_store(&self, req: &OpenReq) -> Option<SessionStore> {
        let dir = self.persistence.state_dir.as_deref()?;
        SessionStore::create(
            dir,
            req.session,
            self.meta_for(req),
            self.persistence.durability(),
            self.tiered.as_ref(),
        )
        .inspect_err(|_| self.counters.checkpoint_failure())
        .ok()
    }

    /// The sidecar contents for a session this node opens or adopts.
    fn meta_for(&self, req: &OpenReq) -> MetaState {
        MetaState {
            token: req.token,
            modules: req.modules,
            resumable: req.resumable,
            spec: req.spec_source.clone(),
            node: self.persistence.node_id,
        }
    }

    /// Claims a global session slot, evicting this shard's idlest session
    /// first when allowed and necessary.
    fn reserve_or_evict(&self, st: &mut ShardState, evict_if_full: bool) -> bool {
        // Reserve a slot against the global cap before building the
        // session: a load-then-add would let concurrent opens on different
        // shards both pass the check and overshoot `max_sessions`.
        if self.try_reserve_slot() {
            return true;
        }
        if evict_if_full && self.evict_idlest(&mut st.sessions) {
            // `EvictIdle` admission: the shard's idlest session was reaped,
            // but the freed slot is contended globally — a concurrent open
            // on another shard may still win it. (Capacity is global while
            // eviction is shard-local; see `AdmissionPolicy::EvictIdle`.)
            return self.try_reserve_slot();
        }
        false
    }

    /// Atomically claims one of the `max_sessions` global slots.
    fn try_reserve_slot(&self) -> bool {
        let mut seen = self.active.load(Ordering::Relaxed);
        loop {
            if seen >= self.max_sessions {
                return false;
            }
            match self.active.compare_exchange_weak(
                seen,
                seen + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => seen = now,
            }
        }
    }

    /// Refuses an open, telling the tenant (without blocking on its sink).
    fn refuse(&self, sink: &ResultSink, session: u64, message: &str) {
        let notice = Message::Error {
            session,
            message: message.into(),
        };
        if sink.try_send(notice).is_err() {
            self.counters.result_dropped();
        }
        self.counters.session_rejected();
    }

    /// Evicts the least-recently-active session, flushing it first. Its
    /// durable checkpoint is *kept*: eviction reclaims memory, and a later
    /// resume can still restore the session warm from disk.
    fn evict_idlest(&self, sessions: &mut HashMap<u64, Session>) -> bool {
        let Some(&victim) = sessions
            .iter()
            .min_by_key(|(_, s)| s.last_active_tick)
            .map(|(id, _)| id)
        else {
            return false;
        };
        let mut s = sessions.remove(&victim).expect("victim key just found");
        s.flush(&self.counters);
        s.notify_evicted("capacity reclaimed for a new session", &self.counters);
        self.counters.deregister_session(victim);
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.counters.session_evicted();
        true
    }

    /// Reaps sessions that have not seen a reading for `idle_ticks` (their
    /// checkpoints stay on disk, so resumable sessions remain resumable).
    fn sweep(&self, st: &mut ShardState) {
        let idle: Vec<u64> = st
            .sessions
            .iter()
            .filter(|(_, s)| st.tick.saturating_sub(s.last_active_tick) > self.idle_ticks)
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            let mut s = st.sessions.remove(&id).expect("idle key just found");
            s.flush(&self.counters);
            s.notify_evicted("idle timeout", &self.counters);
            self.counters.deregister_session(id);
            self.active.fetch_sub(1, Ordering::Relaxed);
            self.counters.session_evicted();
        }
    }
}
