//! Shard workers: session-pinned executors behind bounded mailboxes.

use avoc_core::ModuleId;
use avoc_net::{Message, SpecSource};
use avoc_vdx::VdxSpec;
use crossbeam::channel::{Receiver, TryRecvError};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use avoc_store::TieredStore;

use crate::metrics::ServiceCounters;
use crate::persist::{MetaState, Persistence, SessionStore};
use crate::session::{Session, SessionConfig};
use crate::sink::ResultSink;

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

/// The data-plane command ([`ShardCommand::Readings`]): readings for any of
/// the shard's sessions, in arrival order, in one mailbox slot and one
/// channel send however many there are. A socket read's `SessionReading`
/// frames, a whole `FeedBatch` frame and an in-process
/// [`crate::VoterService::feed`] (a batch of one) all travel as this. The
/// worker feeds the readings in order, then returns the buffer to the
/// service's [`BufferPool`], so the steady state allocates nothing.
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
}

/// Work routed to a shard: readings and session lifecycle. Sessions are
/// pinned: every command for a session id lands on the same shard, so
/// session state needs no synchronisation.
///
/// A shard has one bounded mailbox, and the worker takes its commands in
/// arrival order. A session's `Open` therefore runs before any reading sent
/// after it, and its `Close`, `Export` or the `Drain` after every reading
/// sent before it; a close-then-reopen gives each life exactly its own
/// readings. A producer that finds the mailbox full waits for a slot, so
/// nothing is shed. The sender unparks the worker after every send, so a
/// command reaches an idle shard at once.
pub(crate) enum ShardCommand {
    /// Readings for any of the shard's sessions (see [`Readings`]).
    Readings(Readings),
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
    /// here. Its log stays behind, its head naming the target, so a
    /// transfer lost in flight can be re-asked for idempotently.
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
    /// Land a migrated session's shipped log and eagerly resume it warm.
    /// The file writes happen here — on the shard that owns the session id —
    /// so they are serialized with any live instance of the same session: an
    /// idempotent re-drive of a completed migration (gateway crash after the
    /// target acked, operator retry) must answer `Resumed { warm: true }`
    /// without truncating the WAL the live session holds open.
    Import {
        /// The session to install, as the shipped log's head describes it
        /// (spec already resolved; `req.sink` gets the `Resumed`/`Error`
        /// answer).
        req: OpenReq,
        /// The shipped log, head included.
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
    /// The mailbox: readings and lifecycle commands, in arrival order.
    pub(crate) rx: Receiver<ShardCommand>,
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
    /// Crash-safety configuration (fsync, cluster identity).
    pub(crate) persistence: Persistence,
    /// The state directory's segment tier, shared with the service: the
    /// one test for "durable?". `None` when persistence is off or the tier
    /// failed to open; sessions are then memory-only.
    pub(crate) tiered: Option<Arc<TieredStore>>,
}

/// The tick grid idle sweeps run on, once one could reap something (see
/// `ShardState::sweep_due`).
const SWEEP_INTERVAL: u64 = 64;

/// How many `Readings` commands one wakeup feeds before it ships what they
/// fused (lifecycle commands do not count), and how many readings the
/// worker feeds inside one command before it ships the verdicts they fused.
/// Verdicts leave in bounded frames at a steady cadence however the
/// readings were grouped on the way in.
const DATA_BURST: usize = 64;

/// The mutable state one worker owns: its sessions, its logical clock, and
/// whether a `Drain`/`Abort` (or the last sender leaving) has told it to
/// stop.
struct ShardState {
    sessions: HashMap<u64, Session>,
    tick: u64,
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
    /// The worker loop: commands in arrival order until `Drain` (flushing
    /// all sessions) or `Abort` (flushing none), or until every sender
    /// disconnects. Returns the receiver, so the mailbox stays connected
    /// until the service joins the worker.
    ///
    /// Each wakeup takes commands until it has fed `DATA_BURST` `Readings`
    /// commands or the mailbox is empty, and ships what they fused. When the
    /// mailbox is empty the worker parks; every send unparks it, so an idle
    /// shard answers a command as soon as it lands and costs nothing
    /// meanwhile — there is no timer.
    ///
    /// The loop never blocks on anything a tenant controls — session sinks
    /// are fed with `try_send` — so one stalled tenant cannot wedge the
    /// other sessions pinned here, and `Drain` is always reachable.
    pub(crate) fn run(self) -> Receiver<ShardCommand> {
        let mut st = ShardState {
            sessions: HashMap::new(),
            tick: 0,
            touched: Vec::new(),
            sweep_due: 0,
            stop: false,
        };
        while !st.stop {
            let mut fed = 0;
            while fed < DATA_BURST && !st.stop {
                match self.rx.try_recv() {
                    Ok(cmd) => {
                        let data = matches!(cmd, ShardCommand::Readings(_));
                        if data && fed == 0 {
                            // Consumer-side depth sample: catches backlog
                            // the producer-side samples miss when senders
                            // go quiet while the queue is deep.
                            self.counters.note_queue_depth(self.index, self.rx.len());
                        }
                        self.handle(cmd, &mut st);
                        fed += usize::from(data);
                    }
                    Err(TryRecvError::Empty) => break,
                    // Every producer is gone.
                    Err(TryRecvError::Disconnected) => st.stop = true,
                }
            }
            // End of wakeup: everything this iteration fused leaves now, so
            // a burst's verdicts coalesce into one frame per session while
            // an interactive round still ships before the worker sleeps.
            self.flush_touched(&mut st);
            // Idle: sleep until a send wakes the worker — unless it was
            // told to stop, when nothing may be left to wake it. Nothing
            // runs between this emptiness check and `park()`: a send that
            // lands after the check leaves its unpark token, and `park()`
            // then returns at once (nothing else on this thread parks, so
            // nothing else takes the token). A spurious return only costs
            // one more loop.
            if !st.stop && self.rx.is_empty() {
                std::thread::park();
            }
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
        self.rx
    }

    /// Runs one command from the mailbox.
    fn handle(&self, cmd: ShardCommand, st: &mut ShardState) {
        match cmd {
            ShardCommand::Readings(cmd) => self.readings(cmd, st),
            ShardCommand::Open(req) => {
                self.admit(st, req, false);
            }
            ShardCommand::Resume {
                req,
                last_acked,
                eager,
            } => self.resume(st, req, last_acked, eager),
            ShardCommand::Close { session } => {
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
            } => self.export(st, session, target_node, epoch, &target_addr, &sink),
            ShardCommand::Import { req, wal } => self.import(st, req, &wal),
            ShardCommand::Drain => st.stop = true,
            ShardCommand::Abort => {
                // Crash semantics: no flush, no final checkpoint — sessions
                // die mid-thought and durable state stays at the last
                // completed checkpoint.
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
        let wal = match shipped {
            Ok(wal) => wal,
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
            meta: Vec::new(),
            wal,
        };
        self.counters.emit(sink, reply);
        self.counters.sessions_exported.inc();
        if !was_live {
            return;
        }
        // Release the session: it no longer runs here, and the tenant
        // re-homes without waiting for a failure. Its log stays behind (its
        // head naming the target) so a lost transfer can be re-asked for;
        // the target's import — not this node — now owns the live state.
        if let Some(s) = st.sessions.remove(&session) {
            s.announce_redirect(epoch, target_addr, &self.counters);
        }
        self.counters.deregister_session(session);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// The shippable log of a session that is not live here, from disk.
    /// If a prior export to this same target completed, its log is still
    /// there, its head naming the target, and is shipped again (idempotent
    /// retry). Otherwise a session with durable state this node owns is
    /// loaded cold — recovered at a boot this gateway never saw, or idled
    /// out of memory: a drain must still be able to ship it, or fused
    /// history is stranded on the drained node.
    fn export_stored(&self, session: u64, target_node: u64) -> io::Result<Vec<u8>> {
        let not_found = || io::Error::other("session not found on this node");
        let tier = self.tiered.as_ref().ok_or_else(not_found)?;
        if let Some(wal) = crate::persist::read_exported_log(tier, session, target_node) {
            return Ok(wal);
        }
        let mut loaded = SessionStore::load(tier, session, self.persistence.durability())
            .filter(|loaded| loaded.store.meta().node == self.persistence.node_id)
            .ok_or_else(not_found)?;
        let records = loaded.store.seed_records();
        let ring: VecDeque<_> = loaded.results.into();
        loaded
            .store
            .export(target_node, &records, loaded.high_round, &ring)
    }

    /// Lands a shipped session (see [`ShardCommand::Import`]). A session
    /// already live here with the same token is the idempotent re-drive of
    /// a completed migration: acknowledge `Resumed { warm: true }` without
    /// touching the durable file the live session holds open. Only when
    /// the session is not resident is the shipped log landed and the
    /// session eagerly resumed from it.
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
        let tier = self.tiered.as_ref();
        let tier = tier.expect("the service refuses imports without a state directory");
        let durability = self.persistence.durability();
        if let Err(e) = SessionStore::write_imported(tier, req.session, wal, durability) {
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

    /// Feeds one `Readings` command, reading by reading in submission
    /// order — the shard tick, the hub, the idle sweep and the egress
    /// cadence all advance per reading, however many share the command —
    /// so the fused stream is bit-identical to one command per reading.
    /// A session's run of consecutive readings is assembled first and
    /// fused as one batch when the run ends; the engine sees the same
    /// rounds in the same order either way.
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
            if let Some(s) = st.sessions.get_mut(&session) {
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
                    if r.mark == TraceMark::None {
                        s.assemble(r.module, r.round, r.value, st.tick);
                    } else {
                        // A traced reading's rounds get a fuse span each:
                        // the rounds deferred so far fuse first, untraced.
                        s.fuse_ready(false, &self.counters);
                        s.feed(r.module, r.round, r.value, st.tick, true, &self.counters);
                    }
                    i += 1;
                    if i.is_multiple_of(DATA_BURST) || sweeps_at(st.tick, st.sweep_due) {
                        break;
                    }
                }
                // The run ends here (a burst boundary, a sweep point, the
                // next session or the end of the command): fuse it as one
                // batch before the sweep or the flush can see the session.
                s.fuse_ready(false, &self.counters);
                if !std::mem::replace(&mut s.flush_queued, true) {
                    st.touched.push(session);
                }
            } else {
                // Unknown session: late (evicted, or sent after Close or
                // Export), sent before its Open, or misrouted. Counted as a
                // drop, but no error frame — per-reading errors would
                // amplify a flood.
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
        if let Some(tier) = &self.tiered {
            let started = Instant::now();
            let loaded = SessionStore::load(tier, req.session, self.persistence.durability());
            if let Some(loaded) = loaded {
                let meta = loaded.store.meta().clone();
                if meta.node != self.persistence.node_id {
                    // The log's head names another node: this session migrated
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

    /// Creates the session's durable store, or `None` when the service has
    /// no tier — or when creation fails, in which case the session degrades
    /// to memory-only rather than being refused.
    fn make_store(&self, req: &OpenReq) -> Option<SessionStore> {
        let tier = self.tiered.as_ref()?;
        let durability = self.persistence.durability();
        SessionStore::create(tier, req.session, self.meta_for(req), durability)
            .inspect_err(|_| self.counters.checkpoint_failures.inc())
            .ok()
    }

    /// The log head for a session this node opens.
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
