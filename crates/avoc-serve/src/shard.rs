//! Shards: session-pinned state, each shard behind one lock, stepped to
//! completion on the caller's thread — or, for a reactor's feed when a
//! helper is free or the lock busy, on a helper thread.

use avoc_core::ModuleId;
use avoc_net::{Message, SpecSource};
use avoc_vdx::VdxSpec;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use avoc_store::TieredStore;

use crate::metrics::ServiceCounters;
use crate::persist::{MetaState, Persistence, SessionStore};
use crate::service::{ServeConfig, ServeError};
use crate::session::{Session, SessionConfig};
use crate::sink::ResultSink;

/// Everything a shard needs to install a session (shared by open and
/// resume, which differ only in how they treat pre-existing state).
pub(crate) struct OpenReq {
    /// Session identifier.
    pub(crate) session: u64,
    /// Modules feeding each round.
    pub(crate) modules: u32,
    /// The governing spec, resolved and validated.
    pub(crate) spec: VdxSpec,
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

/// One measurement for one session's round, as a producer hands it to a
/// shard.
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
    /// Whether the frame this reading arrived in was trace-sampled (one
    /// decision per `SessionReading`, or per whole `FeedBatch`): rounds it
    /// completes leave fuse and flush spans.
    pub(crate) sampled: bool,
}

/// The service's shards and everything their steps share. Each shard is
/// its sessions behind one lock. Sessions are pinned: every step for a
/// session id runs on the same shard, so the shard's lock orders them —
/// a producer's own steps in its call order — and a session's `Open` runs
/// before any reading fed after it returns, its `Close`, `Export` or the
/// drain after every reading fed before. A close-then-reopen gives each
/// life exactly its own readings.
///
/// A step runs to completion on the caller's thread — a reactor that just
/// decoded the frame, or an in-process caller — and ships what it fused
/// before it returns. It never blocks on anything a tenant controls
/// (sinks refuse rather than wait), so one stalled tenant cannot wedge
/// the other sessions pinned to its shard, and the drain always gets the
/// lock.
///
/// A reactor may hand a feed to the helper threads instead, while a core
/// is spare for them ([`Shards::feed`] with `hand`). Every step first runs
/// the feeds handed to its shard, in the order they were handed, so
/// handing never reorders a shard's steps.
pub(crate) struct Shards {
    shards: Vec<Shard>,
    counters: Arc<ServiceCounters>,
    /// Global live-session count (shared across shards for admission).
    active: AtomicUsize,
    /// Global capacity the `active` count is checked against.
    max_sessions: usize,
    /// Readings a session may go without before an eviction sweep reaps it,
    /// measured in shard ticks (one tick per processed reading).
    idle_ticks: u64,
    /// Hub lag tolerance for each session's round assembly.
    lag_tolerance: u64,
    /// Crash-safety configuration (fsync, cluster identity).
    persistence: Persistence,
    /// The state directory's segment tier, shared with the service: the
    /// one test for "durable?". `None` when persistence is off or the tier
    /// failed to open; sessions are then memory-only.
    tiered: Option<Arc<TieredStore>>,
    /// Reactors inside a read. Helpers are handed work only while this
    /// leaves them a core.
    busy: AtomicUsize,
    /// The helper threads' shared end, `None` when the service runs none.
    helpers: Option<Helpers>,
    /// Run feeds, emptied, whose buffers the next hand-off reuses.
    spares: Mutex<Vec<Feed>>,
}

/// One shard: its state behind the lock every step takes, and the feeds
/// handed to the helpers that wait for that lock.
struct Shard {
    state: Mutex<ShardState>,
    queue: Mutex<Queue>,
}

/// The feeds handed to a shard, oldest first.
#[derive(Default)]
struct Queue {
    feeds: VecDeque<Feed>,
    /// Set by a drain or a kill: no step runs and nothing is handed from
    /// then on.
    stopped: bool,
}

/// Readings handed off as one step.
#[derive(Default)]
struct Feed {
    readings: Vec<TaggedReading>,
    /// The ingest spans of the sampled frames among them, closed at the
    /// hand-off; the queue span runs from `handed_ns` to the lock.
    ingest: Vec<avoc_obs::Span>,
    handed_ns: u64,
}

/// Threads that run the feeds reactors hand off, so that a few busy
/// connections fuse on more than one core and a reactor goes on reading
/// while a step waits for the disk.
struct Helpers {
    /// Helper threads started.
    count: usize,
    /// The shard a feed was just handed to, or `None` to stop a helper.
    wake: Sender<Option<usize>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
}

/// Feeds that may wait for one shard before a reactor runs its next feed
/// for that shard itself rather than hand it over.
const HANDED_LIMIT: usize = 64;

/// The tick grid idle sweeps run on, once one could reap something (see
/// `ShardState::sweep_due`).
const SWEEP_INTERVAL: u64 = 64;

/// How many readings a step feeds before it ships the verdicts they fused.
/// Verdicts leave in bounded frames at a steady cadence however the
/// readings were grouped on the way in.
const DATA_BURST: usize = 64;

/// One shard's mutable state, behind its lock: its sessions and its
/// logical clock.
pub(crate) struct ShardState {
    index: usize,
    sessions: HashMap<u64, Session>,
    tick: u64,
    /// Sessions fed this step, in first-fed order; their pending verdicts
    /// are flushed (batched into one frame each) before the step returns.
    /// `Session::flush_queued` marks the ones already listed.
    touched: Vec<u64>,
    /// No session outstays `idle_ticks` until the tick passes this: the
    /// oldest `last_active_tick` the last sweep kept (its own tick if it
    /// kept none) plus `idle_ticks`. Activity only moves ticks forward and
    /// every installed session starts at the current tick, so a sweep
    /// before then would reap nothing.
    sweep_due: u64,
}

/// Whether the shard sweeps at `tick`: a sweep interval boundary past the
/// point where some session could first be idle.
fn sweeps_at(tick: u64, sweep_due: u64) -> bool {
    tick.is_multiple_of(SWEEP_INTERVAL) && tick > sweep_due
}

impl Shards {
    /// `count` empty shards sharing `counters`, admitting at most
    /// `config.max_sessions` sessions between them, with `helpers` helper
    /// threads running the feeds reactors hand off.
    pub(crate) fn start(
        count: usize,
        helpers: usize,
        config: &ServeConfig,
        counters: Arc<ServiceCounters>,
        tiered: Option<Arc<TieredStore>>,
    ) -> Arc<Self> {
        let shards = (0..count)
            .map(|index| Shard {
                state: Mutex::new(ShardState {
                    index,
                    sessions: HashMap::new(),
                    tick: 0,
                    touched: Vec::new(),
                    sweep_due: 0,
                }),
                queue: Mutex::default(),
            })
            .collect();
        let (wake, waiting) = channel::unbounded();
        let shards = Arc::new(Shards {
            shards,
            counters,
            active: AtomicUsize::new(0),
            max_sessions: config.max_sessions,
            idle_ticks: config.idle_ticks,
            lag_tolerance: config.lag_tolerance,
            persistence: config.persistence.clone(),
            tiered,
            busy: AtomicUsize::new(0),
            helpers: (helpers > 0).then(|| Helpers {
                count: helpers,
                wake,
                joins: Mutex::default(),
            }),
            spares: Mutex::default(),
        });
        let joins = (0..helpers).map(|i| {
            let (shards, waiting) = (Arc::clone(&shards), waiting.clone());
            std::thread::Builder::new()
                .name(format!("avoc-helper-{i}"))
                .spawn(move || shards.help(&waiting))
                .expect("a helper thread starts")
        });
        if let Some(h) = &shards.helpers {
            h.joins.lock().extend(joins);
        }
        shards
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Helper threads running.
    pub(crate) fn helpers(&self) -> usize {
        self.helpers.as_ref().map_or(0, |h| h.joins.lock().len())
    }

    /// A reactor starts (`true`) or ends (`false`) handling a read: it
    /// counts as busy in between.
    pub(crate) fn reading(&self, started: bool) {
        if started {
            self.busy.fetch_add(1, Ordering::AcqRel);
        } else {
            self.busy.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// A helper thread's loop: run what was handed to each shard it is
    /// woken for, until the service stops.
    fn help(&self, waiting: &Receiver<Option<usize>>) {
        while let Ok(Some(shard)) = waiting.recv() {
            let _ = self.step(shard, |_, _| {});
        }
    }

    /// Whether the helpers have a core to themselves: no more reactors are
    /// inside a read than there are helpers.
    fn helpers_spare(&self) -> bool {
        (self.helpers.as_ref()).is_some_and(|h| self.busy.load(Ordering::Acquire) <= h.count)
    }

    /// Sessions currently open, across every shard.
    pub(crate) fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Runs `step` on `shard` under its lock, after the feeds handed to the
    /// shard, then ships the results of every session the step fed.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] once the service has stopped.
    pub(crate) fn step(
        &self,
        shard: usize,
        step: impl FnOnce(&Self, &mut ShardState),
    ) -> Result<(), ServeError> {
        let mut st = self.shards[shard].state.lock();
        self.run_handed(shard, &mut st)?;
        step(self, &mut st);
        self.flush_touched(&mut st);
        Ok(())
    }

    /// Runs the feeds handed to `shard`, oldest first, each as its own
    /// step — its verdicts shipped before the next one runs, as if it had
    /// run where it was handed — and keeps their buffers for the next
    /// hand-off.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] once the shard has stopped.
    fn run_handed(&self, shard: usize, st: &mut ShardState) -> Result<(), ServeError> {
        loop {
            let mut feed = {
                let mut queue = self.shards[shard].queue.lock();
                if queue.stopped {
                    return Err(ServeError::ShuttingDown);
                }
                match queue.feeds.pop_front() {
                    Some(feed) => feed,
                    None => return Ok(()),
                }
            };
            self.run_feed(st, &mut feed);
            self.flush_touched(st);
            self.spares.lock().push(feed);
        }
    }

    /// Feeds a handed-off step, leaving its buffers empty.
    fn run_feed(&self, st: &mut ShardState, feed: &mut Feed) {
        self.record_queue(&feed.ingest, feed.handed_ns);
        self.counters.shard_handoff_sends.inc();
        self.readings(st, feed.readings.drain(..));
        feed.ingest.clear();
    }

    /// Queue spans for sampled frames whose step waited from `since` for
    /// the shard's lock.
    fn record_queue(&self, ingest: &[avoc_obs::Span], since: u64) {
        if ingest.is_empty() {
            return;
        }
        let acquired = avoc_obs::now_ns();
        for span in ingest {
            self.counters.trace.record(avoc_obs::Span {
                stage: avoc_obs::Stage::Queue,
                start_ns: since,
                dur_ns: acquired.saturating_sub(since),
                ..*span
            });
        }
    }

    /// Feeds `readings` (any of `shard`'s sessions, in submission order)
    /// as one step — one hand-off, however many readings — and ships what
    /// they fused. `ingest` holds the open ingest spans of the sampled
    /// frames among them: each closes when the shard's lock is requested
    /// (or the feed handed off), and a queue span then times the wait for
    /// the lock.
    ///
    /// With `hand` (a reactor's feed, whose effects nobody waits for), the
    /// step goes to the helpers when [`Shards::helpers_spare`] and fewer
    /// than [`HANDED_LIMIT`] feeds wait for the shard, and the caller
    /// returns at once. Otherwise it runs here.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] once the service has stopped.
    pub(crate) fn feed(
        &self,
        shard: usize,
        readings: impl IntoIterator<Item = TaggedReading>,
        ingest: &[avoc_obs::Span],
        hand: bool,
    ) -> Result<(), ServeError> {
        let requested = if ingest.is_empty() {
            0
        } else {
            avoc_obs::now_ns()
        };
        for span in ingest {
            self.counters.trace.record(avoc_obs::Span {
                dur_ns: requested.saturating_sub(span.start_ns),
                ..*span
            });
        }
        if hand
            && self.helpers_spare()
            && self.shards[shard].queue.lock().feeds.len() < HANDED_LIMIT
        {
            return self.hand(shard, readings, ingest, requested);
        }
        self.step(shard, |shards, st| {
            shards.record_queue(ingest, requested);
            shards.counters.shard_handoff_sends.inc();
            shards.readings(st, readings);
        })
    }

    /// Queues a feed on `shard` and wakes a helper for it.
    fn hand(
        &self,
        shard: usize,
        readings: impl IntoIterator<Item = TaggedReading>,
        ingest: &[avoc_obs::Span],
        handed_ns: u64,
    ) -> Result<(), ServeError> {
        let mut feed = self.spares.lock().pop().unwrap_or_default();
        feed.readings.extend(readings);
        feed.ingest.extend_from_slice(ingest);
        feed.handed_ns = handed_ns;
        {
            let mut queue = self.shards[shard].queue.lock();
            if queue.stopped {
                return Err(ServeError::ShuttingDown);
            }
            queue.feeds.push_back(feed);
        }
        if let Some(helpers) = &self.helpers {
            let _ = helpers.wake.send(Some(shard));
        }
        Ok(())
    }

    /// Stops every shard: a graceful drain (`flush`) runs the feeds handed
    /// to it and fuses and reports every in-flight round, a kill drops
    /// both *without* flushing, leaving durable state exactly as the last
    /// completed checkpoint wrote it. Either way the shard refuses every
    /// later step and hand-off. A shard already stopped is left as it is.
    /// Then the helper threads stop.
    ///
    /// The global slots stay claimed: releasing them here would let an
    /// open racing the stop on a shard not stopped yet be admitted past
    /// `max_sessions` — the count dies with the service, so leaking it is
    /// harmless.
    pub(crate) fn stop(&self, flush: bool) {
        for shard in &self.shards {
            let mut st = shard.state.lock();
            let feeds = {
                let mut queue = shard.queue.lock();
                if std::mem::replace(&mut queue.stopped, true) {
                    continue;
                }
                std::mem::take(&mut queue.feeds)
            };
            for mut feed in feeds.into_iter().filter(|_| flush) {
                self.run_feed(&mut st, &mut feed);
            }
            self.flush_touched(&mut st);
            for (id, mut s) in st.sessions.drain() {
                if flush {
                    s.flush(&self.counters);
                }
                self.counters.deregister_session(id);
            }
        }
        if let Some(helpers) = &self.helpers {
            let joins = std::mem::take(&mut *helpers.joins.lock());
            for _ in &joins {
                let _ = helpers.wake.send(None);
            }
            for join in joins {
                let _ = join.join();
            }
        }
    }

    /// Flushes and removes a session; its durable state is deleted (an
    /// explicit close means the tenant is done for good).
    pub(crate) fn close(&self, st: &mut ShardState, session: u64) {
        if let Some(mut s) = st.sessions.remove(&session) {
            s.flush(&self.counters);
            s.remove_store();
            self.counters.deregister_session(session);
            self.active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// A connection died without closing this resumable session: release
    /// its sink but keep the session lingering for a re-attach. Ignored
    /// unless the session still emits to `sink` — a client that already
    /// re-attached elsewhere must not have its fresh sink torn away by its
    /// old connection's teardown.
    pub(crate) fn detach(&self, st: &mut ShardState, session: u64, sink: &ResultSink) {
        if let Some(s) = st.sessions.get_mut(&session) {
            if s.sink_is(sink) {
                s.detach(&self.counters);
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

    /// Quiesces a session at its round boundary and ships its durable
    /// state to a migration target: replies with [`Message::SessionState`]
    /// on `sink` (or [`Message::Error`] on failure), tells the tenant where
    /// it moved via an in-band [`Message::Redirect`], and releases the
    /// session here. Its log stays behind, its head naming the target, so
    /// a transfer lost in flight can be re-asked for idempotently. Live
    /// sessions quiesce and leave; anything else is looked for on disk
    /// ([`Shards::export_stored`]). Whichever way the state was found, the
    /// requester gets the one `SessionState` reply — or the one
    /// `export failed: …` notice.
    pub(crate) fn export(
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

    /// Lands a migrated session's shipped log (head included) and eagerly
    /// resumes it warm; `req.sink` gets the `Resumed`/`Error` answer. The
    /// file writes happen under the lock of the shard that owns the session
    /// id, so they are serialized with any live instance of the same
    /// session: a session already live here with the same token is the
    /// idempotent re-drive of a completed migration (gateway crash after
    /// the target acked, operator retry), acknowledged `Resumed { warm:
    /// true }` without truncating the log the live session holds open.
    /// Only when the session is not resident is the shipped log landed and
    /// the session eagerly resumed from it.
    pub(crate) fn import(&self, st: &mut ShardState, req: OpenReq, wal: &[u8]) {
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

    /// Feeds readings reading by reading in submission order — the shard
    /// tick, the hub, the idle sweep and the egress cadence all advance per
    /// reading, however many share the step — so the fused stream is
    /// bit-identical to one step per reading. A session's run of
    /// consecutive readings is assembled first and fused as one batch when
    /// the run ends; the engine sees the same rounds in the same order
    /// either way.
    fn readings(&self, st: &mut ShardState, readings: impl IntoIterator<Item = TaggedReading>) {
        let mut readings = readings.into_iter().peekable();
        let mut fed = 0usize;
        while let Some(&TaggedReading { session, .. }) = readings.peek() {
            // One lookup serves the run of consecutive readings for this
            // session (a tick's frames arrive back to back), up to the next
            // point where the shard needs the whole map again.
            if let Some(s) = st.sessions.get_mut(&session) {
                while let Some(r) = readings.next_if(|r| r.session == session) {
                    st.tick += 1;
                    if r.sampled {
                        // A traced reading's rounds get a fuse span each:
                        // the rounds deferred so far fuse first, untraced.
                        s.fuse_ready(false, &self.counters);
                        s.feed(r.module, r.round, r.value, st.tick, true, &self.counters);
                    } else {
                        s.assemble(r.module, r.round, r.value, st.tick);
                    }
                    fed += 1;
                    if fed.is_multiple_of(DATA_BURST) || sweeps_at(st.tick, st.sweep_due) {
                        break;
                    }
                }
                // The run ends here (a burst boundary, a sweep point, the
                // next session or the end of the step): fuse it as one
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
                readings.next();
                st.tick += 1;
                self.counters.readings_dropped.inc();
                fed += 1;
            }
            if sweeps_at(st.tick, st.sweep_due) {
                self.sweep(st);
            }
            // Keep the egress cadence of one step per reading: verdicts
            // ship every DATA_BURST readings, so a large step must not
            // coalesce its whole verdict stream into a handful of
            // maximum-size frames (the trailing partial chunk flushes at
            // the end of the step).
            if fed.is_multiple_of(DATA_BURST) {
                self.flush_touched(st);
            }
        }
    }

    /// Installs a fresh session. With `announce`, acknowledges with a cold
    /// [`Message::Resumed`] (the resume-fallback path). Returns whether the
    /// session was admitted.
    pub(crate) fn admit(&self, st: &mut ShardState, req: OpenReq, announce: bool) -> bool {
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
                    st.index,
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

    /// Idempotent re-open — the resume path: live re-attach, checkpoint
    /// restore, or fresh fallback, in that order. `last_acked` is the
    /// highest round the client has acknowledged (results past it are
    /// re-emitted from the session's ring); `eager` marks the daemon's own
    /// recovery scan, counted as a recovery only, never as a resume or
    /// retry.
    pub(crate) fn resume(
        &self,
        st: &mut ShardState,
        req: OpenReq,
        last_acked: Option<u64>,
        eager: bool,
    ) {
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
                                st.index,
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
