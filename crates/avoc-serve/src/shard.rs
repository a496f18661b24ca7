//! Shard workers: session-pinned executors behind bounded mailboxes.

use avoc_core::ModuleId;
use avoc_net::{Message, SpecSource};
use avoc_vdx::VdxSpec;
use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use avoc_store::TieredStore;

use crate::metrics::ServiceCounters;
use crate::persist::{MetaState, Persistence, SessionStore};
use crate::session::{Session, SessionConfig};
use crate::sink::ResultSink;

/// What a shard does when its bounded data mailbox is full. The mailbox
/// holds *commands* — one per `feed`/`feed_batch` call, one per socket read
/// on the TCP path — and each policy spends its budget a command at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// The producer blocks until the shard catches up. Nothing is lost;
    /// latency propagates upstream (through TCP flow control, to sensors).
    #[default]
    Block,
    /// The oldest queued command is dropped to admit the new one: freshest
    /// data wins, bounded staleness. Every reading it carried is counted.
    DropOldest,
    /// The new command is refused and the producer told; queued work is
    /// never discarded. Every reading it carried is counted.
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
}

/// What a reading owes the trace ring. Sampling is decided per reading
/// *frame* (a `SessionReading`, or a whole `FeedBatch`), one in
/// `trace_sample`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceMark {
    /// Unsampled — the overwhelmingly common case.
    None,
    /// Part of a sampled frame: rounds it completes leave fuse and flush
    /// spans.
    Sampled,
    /// First reading of a sampled frame: as [`TraceMark::Sampled`], and
    /// the frame's queue span is recorded against it.
    FrameHead,
}

/// One measurement for one session's round, as it crosses to a shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaggedReading {
    /// Target session.
    pub(crate) session: u64,
    /// Round number.
    pub(crate) round: u64,
    /// Measured value.
    pub(crate) value: f64,
    /// Submitting module.
    pub(crate) module: ModuleId,
    /// Trace sampling outcome for the frame this reading arrived in.
    pub(crate) mark: TraceMark,
}

/// The data-plane command — the only thing a shard's data mailbox carries:
/// readings for any of the shard's sessions, in arrival order, in one
/// mailbox slot and one channel send however many there are. A socket
/// read's `SessionReading` frames, a whole `FeedBatch` frame and an
/// in-process [`crate::VoterService::feed`] (a batch of one) all travel as
/// this. The worker feeds the readings in order, then returns the buffer to
/// the service's [`BufferPool`], so the steady state allocates nothing.
pub(crate) struct Readings {
    /// The readings, in submission order (never empty).
    pub(crate) readings: Vec<TaggedReading>,
    /// [`avoc_obs::now_ns`] just before the send when any reading is
    /// trace-sampled, `0` (the overwhelmingly common case) when none is.
    /// The worker turns a non-zero stamp into one queue span per
    /// [`TraceMark::FrameHead`].
    pub(crate) queued_ns: u64,
}

/// How many drained reading buffers the free-list retains. In-flight
/// commands are bounded by the shard mailboxes, so a modest pool covers the
/// steady state; a miss just allocates a fresh buffer that joins the pool
/// when it drains.
const BUFFER_POOL_CAPACITY: usize = 1024;

/// The bounded free-list reading buffers cycle through: a producer takes
/// one (or allocates on a miss), the shard that drained it gives it back.
/// Last in, first out: the buffer that just drained is the next one
/// filled, so the few buffers the steady state needs grow to its command
/// size and stay warm — a queue would walk every pooled buffer up to the
/// largest command it ever carried.
#[derive(Default)]
pub(crate) struct BufferPool(Mutex<Vec<Vec<TaggedReading>>>);

impl BufferPool {
    /// An empty buffer: recycled if one is pooled, fresh otherwise.
    pub(crate) fn take(&self) -> Vec<TaggedReading> {
        self.0.lock().pop().unwrap_or_default()
    }

    /// Clears `buf` and pools it; a full pool just drops it.
    pub(crate) fn give(&self, mut buf: Vec<TaggedReading>) {
        buf.clear();
        let mut pooled = self.0.lock();
        if pooled.len() < BUFFER_POOL_CAPACITY {
            pooled.push(buf);
        }
    }

    /// Buffers currently pooled.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.0.lock().len()
    }
}

/// Lifecycle work routed to a shard. Sessions are pinned: every command for
/// a session id lands on the same shard, so session state needs no
/// synchronisation.
///
/// A shard has two mailboxes: these commands travel on a control mailbox
/// the worker always drains first, [`Readings`] on the backpressured data
/// mailbox — so a flood of data can never displace, reorder, or shed a
/// control command.
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
    /// Data mailbox: readings under the configured backpressure policy.
    pub(crate) data_rx: Receiver<Readings>,
    /// Where drained reading buffers go back to.
    pub(crate) buffers: Arc<BufferPool>,
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

/// The tick grid idle sweeps run on, once one could reap something (see
/// `ShardState::sweep_due`).
const SWEEP_INTERVAL: u64 = 64;

/// How long the worker blocks on an empty data mailbox before re-checking
/// control. Under load control is drained before every burst, so this only
/// bounds control latency on an otherwise idle shard.
const CONTROL_POLL: Duration = Duration::from_millis(5);

/// How many queued commands one wakeup may process before control is
/// re-checked, and how many readings the worker feeds — across commands or
/// inside one — before it ships the verdicts they fused. Draining a burst
/// amortises the blocking receive (and its timeout bookkeeping) when the
/// mailbox runs deep, while verdicts leave in bounded frames at a steady
/// cadence however the readings were grouped on the way in.
const DATA_BURST: usize = 64;

/// The mutable state one worker owns: its sessions, its logical clock,
/// control commands put aside while hunting for a pending `Open` (see
/// [`ShardWorker::hunt_for_open`]), and whether a `Drain`/`Abort` has told
/// it to stop.
struct ShardState {
    sessions: HashMap<u64, Session>,
    tick: u64,
    deferred: VecDeque<ShardCommand>,
    /// Sessions fed this wakeup, in first-fed order; their pending verdicts
    /// are flushed (batched into one frame each) once per loop iteration.
    /// `Session::flush_queued` marks the ones already listed.
    touched: Vec<u64>,
    /// No session outstays `idle_ticks` until the tick passes this: the
    /// oldest `last_active_tick` the last sweep kept (its own tick if it
    /// kept none) plus `idle_ticks`. Activity only moves ticks forward and
    /// every installed session starts at the current tick, so a sweep
    /// before then would reap nothing.
    sweep_due: u64,
    stop: bool,
}

/// Whether the worker sweeps at `tick`: a sweep interval boundary past the
/// point where some session could first be idle.
fn sweeps_at(tick: u64, sweep_due: u64) -> bool {
    tick.is_multiple_of(SWEEP_INTERVAL) && tick > sweep_due
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
            sweep_due: 0,
            stop: false,
        };
        let mut ctrl_alive = true;
        while !st.stop {
            // Control first: commands deferred by the Open hunt,
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
            // Then up to a burst of data commands, keeping control
            // responsive under sustained data load without paying a timed
            // wait per command.
            match self.data_rx.recv_timeout(CONTROL_POLL) {
                Ok(cmd) => {
                    // Consumer-side depth sample: catches backlog the
                    // producer-side samples miss when senders go quiet
                    // while the queue is deep.
                    self.counters
                        .note_queue_depth(self.index, self.data_rx.len());
                    self.readings(cmd, &mut st);
                    for _ in 1..DATA_BURST {
                        match self.data_rx.try_recv() {
                            Ok(cmd) => self.readings(cmd, &mut st),
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
        }
    }

    /// Ships every touched session's pending results. Sessions that left
    /// the map since fusing (closed, evicted, swept) already flushed on
    /// their way out, so a stale id here is simply skipped — and one that
    /// came back under the same id since is flushed at its first mention;
    /// a second finds nothing pending.
    fn flush_touched(&self, st: &mut ShardState) {
        for id in st.touched.drain(..) {
            if let Some(s) = st.sessions.get_mut(&id) {
                s.flush_queued = false;
                s.flush_results(&self.counters);
            }
        }
    }

    /// Ships a session to a migration target (see [`ShardCommand::Export`]).
    /// Live sessions quiesce and leave; anything else is looked for on disk
    /// ([`ShardWorker::export_stored`]). Whichever way the state was found,
    /// the requester gets the one `SessionState` reply — or the one
    /// `export failed: …` notice.
    fn export(
        &self,
        st: &mut ShardState,
        session: u64,
        target_node: u64,
        epoch: u64,
        target_addr: &str,
        sink: &ResultSink,
    ) {
        let live = st.sessions.get_mut(&session);
        let was_live = live.is_some();
        let shipped = match live {
            Some(s) => s.export(target_node, &self.counters),
            None => self.export_stored(session, target_node),
        };
        let (meta, wal) = match shipped {
            Ok(blobs) => blobs,
            Err(e) => {
                let message = format!("export failed: {e}");
                self.counters
                    .emit(sink, Message::Error { session, message });
                return;
            }
        };
        let reply = Message::SessionState {
            session,
            epoch,
            auth: self.persistence.cluster_secret.unwrap_or(0),
            meta,
            wal,
        };
        self.counters.emit(sink, reply);
        self.counters.sessions_exported.inc();
        if !was_live {
            return;
        }
        // Release the session: it no longer runs here, and the tenant
        // re-homes without waiting for a failure. Its files stay behind
        // (stamped with the target's id) so a lost transfer can be re-asked
        // for; the target's import — not this node — now owns the live
        // state.
        if let Some(s) = st.sessions.remove(&session) {
            s.announce_redirect(epoch, target_addr, &self.counters);
        }
        self.counters.deregister_session(session);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// The shippable state of a session that is not live here, from disk.
    /// If a prior export to this same target completed, its state is still
    /// there under the target's name and is shipped again (idempotent
    /// retry). Otherwise a session with durable state this node owns is
    /// loaded cold — recovered at a boot this gateway never saw, or idled
    /// out of memory: a drain must still be able to ship it, or fused
    /// history is stranded on the drained node.
    fn export_stored(&self, session: u64, target_node: u64) -> io::Result<(Vec<u8>, Vec<u8>)> {
        let not_found = || io::Error::other("session not found on this node");
        let dir = self
            .persistence
            .state_dir
            .as_deref()
            .ok_or_else(not_found)?;
        if let Some(blobs) = crate::persist::read_exported_blobs(dir, session, target_node) {
            return Ok(blobs);
        }
        let mut loaded = SessionStore::load(
            dir,
            session,
            self.persistence.durability(),
            self.tiered.as_ref(),
        )
        .filter(|loaded| loaded.store.meta().node == self.persistence.node_id)
        .ok_or_else(not_found)?;
        let records = loaded.store.seed_records();
        let ring: VecDeque<_> = loaded.results.into();
        loaded
            .store
            .export_blobs(target_node, &records, loaded.high_round, &ring)
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
                self.counters.emit(&req.sink, ack);
            } else {
                self.refuse(
                    &req.sink,
                    req.session,
                    "import token mismatch with live session",
                );
            }
            return;
        }
        let dir = self.persistence.state_dir.as_deref();
        let dir = dir.expect("the service refuses imports without a state directory");
        // The landed sidecar is the shipped one with ownership adopted.
        let meta = self.meta_for(&req);
        if let Err(e) =
            SessionStore::write_imported(dir, req.session, &meta, wal, self.tiered.as_ref())
        {
            self.refuse(
                &req.sink,
                req.session,
                &format!("import failed writing state: {e}"),
            );
            return;
        }
        self.counters.sessions_imported.inc();
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
                Ok(cmd) => self.readings(cmd, st),
                Err(_) => break,
            }
        }
    }

    /// Feeds one data-mailbox command, reading by reading in submission
    /// order — the shard tick, the engine feed, the idle sweep and the
    /// egress cadence all advance per reading, however many share the
    /// command — so the fused stream is bit-identical to one command per
    /// reading.
    fn readings(&self, cmd: Readings, st: &mut ShardState) {
        let Readings {
            readings,
            queued_ns,
        } = cmd;
        let picked_ns = if queued_ns != 0 {
            avoc_obs::now_ns()
        } else {
            0
        };
        let mut i = 0;
        while i < readings.len() {
            let session = readings[i].session;
            // One lookup serves the run of consecutive readings for this
            // session (a tick's frames arrive back to back), up to the next
            // point where the worker needs the whole map again.
            let mut live = st.sessions.get_mut(&session);
            if live.is_none() {
                self.hunt_for_open(st, session);
                live = st.sessions.get_mut(&session);
            }
            if let Some(s) = live {
                while let Some(r) = readings.get(i).filter(|r| r.session == session) {
                    st.tick += 1;
                    if r.mark == TraceMark::FrameHead {
                        // A sampled frame's mailbox wait: from the send to
                        // the worker picking its command up.
                        self.counters.trace.record(avoc_obs::Span {
                            session,
                            round: r.round,
                            stage: avoc_obs::Stage::Queue,
                            start_ns: queued_ns,
                            dur_ns: picked_ns.saturating_sub(queued_ns),
                        });
                    }
                    s.feed(
                        r.module,
                        r.round,
                        r.value,
                        st.tick,
                        r.mark != TraceMark::None,
                        &self.counters,
                    );
                    i += 1;
                    if i.is_multiple_of(DATA_BURST) || sweeps_at(st.tick, st.sweep_due) {
                        break;
                    }
                }
                if !std::mem::replace(&mut s.flush_queued, true) {
                    st.touched.push(session);
                }
            } else {
                // Genuinely unknown session: late (evicted, or sent after
                // Close) or misrouted. Counted as a drop, but no error
                // frame — per-reading errors would amplify a flood.
                st.tick += 1;
                self.counters.readings_dropped.inc();
                i += 1;
            }
            if sweeps_at(st.tick, st.sweep_due) {
                self.sweep(st);
            }
            // Keep the egress cadence of one command per reading: a wakeup
            // fuses at most DATA_BURST of those before shipping results, so
            // a large command must not coalesce its whole verdict stream
            // into a handful of maximum-size frames (the trailing partial
            // chunk flushes at end of wakeup).
            if i.is_multiple_of(DATA_BURST) {
                self.flush_touched(st);
            }
        }
        self.buffers.give(readings);
    }

    /// A reading arrived for a session the map does not hold. Its
    /// Open/Resume is always enqueued before its readings, but on the
    /// control channel — it may not have been processed yet. Hunt for it:
    /// install Opens on the way, but *defer* anything else until after the
    /// reading in hand — executing a Close here would drain the data
    /// backlog past it, reordering that tenant's rounds. An Open whose id
    /// has a deferred Close ahead of it (close-then-reopen) is deferred
    /// too, preserving their relative order.
    fn hunt_for_open(&self, st: &mut ShardState, session: u64) {
        while !st.sessions.contains_key(&session) {
            let Ok(cmd) = self.ctrl_rx.try_recv() else {
                break;
            };
            let open_id = match &cmd {
                ShardCommand::Open(req) | ShardCommand::Resume { req, .. } => Some(req.session),
                _ => None,
            };
            let install_now = open_id.is_some_and(|id| {
                !st.deferred
                    .iter()
                    .any(|d| matches!(d, ShardCommand::Close { session: s } if *s == id))
            });
            if install_now {
                self.control(cmd, st);
            } else {
                st.deferred.push_back(cmd);
            }
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
        if !self.try_reserve_slot() {
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
                self.counters.register_session(
                    req.session,
                    self.index,
                    req.resumable,
                    s.rounds_fused(),
                );
                // A durable session's first checkpoint is its registration:
                // a crash before the first fused round still recovers it.
                s.checkpoint(&self.counters);
                if announce {
                    s.announce_resumed(false, &self.counters);
                }
                st.sessions.insert(req.session, s);
                self.counters.sessions_opened.inc();
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
            self.counters.retries.inc();
        }
        // 1. Live session: re-attach if the token proves ownership.
        if let Some(s) = st.sessions.get_mut(&req.session) {
            if s.resumable() && s.token() == req.token {
                s.reattach(req.sink, last_acked, st.tick, &self.counters);
                self.counters.resumed_sessions.inc();
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
                self.counters.resume_timed(loaded.from_segments, elapsed);
                if loaded.torn_tail {
                    self.counters.torn_tail_recoveries.inc();
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
                    if !self.try_reserve_slot() {
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
                        Ok(s) => {
                            self.counters.register_session(
                                req.session,
                                self.index,
                                meta.resumable,
                                s.rounds_fused(),
                            );
                            s.announce_resumed(true, &self.counters);
                            s.replay_results(last_acked, &self.counters);
                            st.sessions.insert(req.session, s);
                            self.counters.recoveries.inc();
                            if !eager {
                                self.counters.resumed_sessions.inc();
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
        .inspect_err(|_| self.counters.checkpoint_failures.inc())
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

    /// Atomically claims one of the `max_sessions` global slots. The slot
    /// is reserved before the session is built: a load-then-add would let
    /// concurrent opens on different shards both pass the check and
    /// overshoot `max_sessions`.
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
        let message = message.into();
        self.counters
            .emit(sink, Message::Error { session, message });
        self.counters.sessions_rejected.inc();
    }

    /// Reaps sessions that have not seen a reading for `idle_ticks` (their
    /// checkpoints stay on disk, so resumable sessions remain resumable),
    /// and notes when the next sweep could find one.
    fn sweep(&self, st: &mut ShardState) {
        let tick = st.tick;
        let mut oldest = tick;
        st.sessions.retain(|&id, s| {
            if tick.saturating_sub(s.last_active_tick) <= self.idle_ticks {
                oldest = oldest.min(s.last_active_tick);
                return true;
            }
            s.flush(&self.counters);
            s.notify_evicted("idle timeout", &self.counters);
            self.counters.deregister_session(id);
            self.active.fetch_sub(1, Ordering::Relaxed);
            self.counters.sessions_evicted.inc();
            false
        });
        st.sweep_due = oldest.saturating_add(self.idle_ticks);
    }
}
