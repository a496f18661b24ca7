//! The sharded voter service: session routing, admission, backpressure.

use avoc_core::ModuleId;
use avoc_net::SpecSource;
use avoc_obs::HealthLevel;
use avoc_store::{list_session_wals, CompactionReport, TieredStore};
use avoc_vdx::VdxError;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

use crate::metrics::{CountersSnapshot, ServiceCounters};
use crate::persist::{self, Persistence};
use crate::registry::SpecRegistry;
use crate::shard::{
    BufferPool, OpenReq, Readings, ShardCommand, ShardWorker, TaggedReading, TraceMark,
};
use crate::sink::ResultSink;

/// Bounded capacity of each shard's mailbox, in commands: a `Readings`
/// command carries the readings of one `feed`/`feed_batch` call or of one
/// socket read, any other command one session lifecycle step. A producer
/// that finds the mailbox full waits for a slot.
const MAILBOX_CAPACITY: usize = 1024;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` means `std::thread::available_parallelism()`.
    pub shards: usize,
    /// Reactor (event-loop) threads in the TCP front-end's data plane.
    /// `0` (the default) means `min(available_parallelism, 4)` — I/O
    /// saturates well before fusion does, so the reactor pool is capped
    /// lower than the shard count. Ignored by in-process callers that
    /// never start a [`crate::TcpServer`].
    pub reactors: usize,
    /// Maximum concurrently open sessions across all shards; opens past it
    /// are refused with an error frame.
    pub max_sessions: usize,
    /// Readings a session may go without (in per-shard ticks) before idle
    /// eviction reaps it.
    pub idle_ticks: u64,
    /// Round-assembly lag tolerance handed to each session's hub.
    pub lag_tolerance: u64,
    /// Crash-safety configuration: state directory, fsync mode and cluster
    /// identity. Off by default.
    pub persistence: Persistence,
    /// Bind address for the plain-HTTP admin endpoint (`/metrics`,
    /// `/healthz`, `/sessions`, `/segments`, `/trace`) — e.g.
    /// `"127.0.0.1:0"`. `None` (the default) serves no admin socket.
    pub admin_addr: Option<String>,
    /// Per-round trace sampling cadence: one round in `trace_sample` leaves
    /// spans in the trace ring. `0` (the default) disables tracing.
    pub trace_sample: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            reactors: 0,
            max_sessions: 1024,
            idle_ticks: 4096,
            lag_tolerance: 8,
            persistence: Persistence::default(),
            admin_addr: None,
            trace_sample: 0,
        }
    }
}

/// Service-level failures surfaced to producers.
#[derive(Debug)]
pub enum ServeError {
    /// The named spec is not in the registry.
    UnknownSpec(String),
    /// An inline spec failed to parse or validate.
    Vdx(VdxError),
    /// A cluster verb (`ExportSession` / `SessionState` import) arrived
    /// without the configured inter-node secret — or on a daemon with none
    /// configured, where the cluster verbs are disabled outright.
    Unauthorized,
    /// The service has drained; no further work is accepted.
    ShuttingDown,
    /// A request this node cannot serve as asked, with the reason the
    /// tenant is told verbatim (an import with no state directory to land
    /// in, or whose shipped meta does not parse).
    Refused(&'static str),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSpec(name) => write!(f, "unknown spec `{name}`"),
            ServeError::Vdx(e) => write!(f, "invalid VDX document: {e}"),
            ServeError::Unauthorized => {
                write!(
                    f,
                    "cluster verb refused: missing or invalid cluster credential"
                )
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Refused(reason) => f.write_str(reason),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Vdx(e) => Some(e),
            _ => None,
        }
    }
}

/// One shard's producer endpoint: its mailbox, which carries readings and
/// lifecycle commands in one arrival order (see [`ShardCommand`]).
struct ShardLink {
    tx: Sender<ShardCommand>,
    /// The worker thread: every successful send unparks it, which is how
    /// an idle (parked) shard learns it has work.
    worker: Thread,
}

/// Readings a producer has accepted but not yet handed to their shards:
/// one pooled buffer per shard, filled by [`VoterService::stage`] and
/// shipped — one command per non-empty buffer — by
/// [`VoterService::flush_staged`]. The TCP front-end keeps one per reactor
/// and flushes it at the end of every socket read, so a read's
/// `SessionReading` frames cost one mailbox send per shard instead of one
/// per frame.
pub(crate) struct Staging {
    shards: Vec<Staged>,
}

/// One shard's share of a [`Staging`] area.
#[derive(Default)]
struct Staged {
    readings: Vec<TaggedReading>,
    /// The ingest span of each trace-sampled reading staged here, open
    /// (`dur_ns` still 0) until the send that ships it returns.
    ingest: Vec<avoc_obs::Span>,
}

impl Staging {
    /// Whether nothing is waiting for a flush.
    pub(crate) fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.readings.is_empty())
    }
}

/// The sharded, multi-tenant voter service (the daemon core; [`crate::TcpServer`]
/// is its socket front-end and benchmarks drive it in-process).
pub struct VoterService {
    links: Vec<ShardLink>,
    // (manual Debug below: mailboxes and queued commands aren't printable)
    /// Each worker hands its receiver back when it exits, so the mailbox
    /// stays connected until the join (see [`VoterService::stop`]).
    joins: Mutex<Vec<JoinHandle<Receiver<ShardCommand>>>>,
    counters: Arc<ServiceCounters>,
    active: Arc<AtomicUsize>,
    registry: Arc<SpecRegistry>,
    /// Resolved reactor-thread count for the TCP front-end (the
    /// `ServeConfig::reactors` knob with `0` already expanded).
    reactors: usize,
    /// Free-list of recycled reading buffers, shared with the shards that
    /// drain them.
    buffers: Arc<BufferPool>,
    persistence: Persistence,
    admin_addr: Option<String>,
    /// The state directory's segment tier (shared with every shard): the
    /// one test for "durable?". `None` when persistence is off or the tier
    /// failed to open; sessions are then memory-only.
    tiered: Option<Arc<TieredStore>>,
}

impl fmt::Debug for VoterService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VoterService")
            .field("shards", &self.links.len())
            .field("active_sessions", &self.active.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl VoterService {
    /// Spawns the shard workers and returns the running service.
    pub fn start(config: ServeConfig, registry: Arc<SpecRegistry>) -> Self {
        let shards = if config.shards == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.shards
        };
        let reactors = if config.reactors == 0 {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(4)
        } else {
            config.reactors
        };
        // Open the segment tier before the shards: workers pin sessions
        // into it at open/resume. A directory whose tier fails to open
        // leaves every session memory-only instead of refusing to start.
        let opened = (config.persistence.state_dir.as_deref())
            .map(|dir| TieredStore::open(dir).map(Arc::new));
        let tiered = opened.as_ref().and_then(|t| t.as_ref().ok()).cloned();
        let counters = Arc::new(ServiceCounters::with_observability(
            shards,
            reactors,
            config.trace_sample,
            tiered.clone(),
        ));
        if let Some(Err(e)) = opened {
            let reason = format!("state directory will not open ({e}): sessions are memory-only");
            eprintln!("avoc-serve: {reason}");
            counters
                .health
                .set("persistence", HealthLevel::Degraded, &reason);
        }
        let active = Arc::new(AtomicUsize::new(0));
        let buffers = Arc::new(BufferPool::default());
        let mut links = Vec::with_capacity(shards);
        let mut joins = Vec::with_capacity(shards);
        for index in 0..shards {
            let (tx, rx) = channel::bounded(MAILBOX_CAPACITY);
            let worker = ShardWorker {
                index,
                rx,
                buffers: Arc::clone(&buffers),
                counters: Arc::clone(&counters),
                active: Arc::clone(&active),
                max_sessions: config.max_sessions,
                idle_ticks: config.idle_ticks,
                lag_tolerance: config.lag_tolerance,
                persistence: config.persistence.clone(),
                tiered: tiered.clone(),
            };
            let join = std::thread::Builder::new()
                .name(format!("avoc-serve-shard-{index}"))
                .spawn(move || worker.run())
                .expect("spawn shard worker");
            links.push(ShardLink {
                tx,
                worker: join.thread().clone(),
            });
            joins.push(join);
        }
        VoterService {
            links,
            joins: Mutex::new(joins),
            counters,
            active,
            registry,
            reactors,
            buffers,
            persistence: config.persistence,
            admin_addr: config.admin_addr,
            tiered,
        }
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.links.len()
    }

    /// Number of reactor (event-loop) threads the TCP front-end will run
    /// ([`ServeConfig::reactors`] with `0` resolved to
    /// `min(available_parallelism, 4)`).
    pub fn reactors(&self) -> usize {
        self.reactors
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// The registry sessions resolve named specs against.
    pub fn registry(&self) -> &SpecRegistry {
        &self.registry
    }

    /// Session-id → shard pinning (splitmix64 finalizer for dispersion:
    /// tenants often use small consecutive ids).
    fn shard_for(&self, session: u64) -> usize {
        let mut z = session.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize % self.links.len()
    }

    /// Opens a session: resolves the spec (named or inline), then installs
    /// it on the session's shard. Results and session-scoped errors flow to
    /// `sink` — a bare `Sender<Message>` or a reactor-backed
    /// [`ResultSink`].
    ///
    /// # Errors
    ///
    /// Spec resolution errors synchronously ([`ServeError::UnknownSpec`],
    /// [`ServeError::Vdx`]); admission failures arrive on `sink` as
    /// [`Message::Error`] frames (the decision belongs to the shard).
    pub fn open_session(
        &self,
        session: u64,
        modules: u32,
        spec: &SpecSource,
        sink: impl Into<ResultSink>,
    ) -> Result<(), ServeError> {
        let req = self.open_req(session, modules, spec, 0, false, sink.into())?;
        // The Open queues behind whatever the shard already holds and ahead
        // of every reading sent after it. A full mailbox makes this wait for
        // a slot; the worker never blocks on a tenant sink, so one frees.
        self.control(session, ShardCommand::Open(req))?;
        self.note_depth(self.shard_for(session));
        Ok(())
    }

    /// Everything a shard needs to install `session`: the one place the
    /// spec is resolved.
    fn open_req(
        &self,
        session: u64,
        modules: u32,
        spec: &SpecSource,
        token: u64,
        resumable: bool,
        sink: ResultSink,
    ) -> Result<OpenReq, ServeError> {
        Ok(OpenReq {
            session,
            modules,
            spec: Box::new(self.registry.resolve(spec)?),
            spec_source: spec.clone(),
            token,
            resumable,
            sink,
        })
    }

    /// Sends a lifecycle command to the shard `session` is pinned to.
    fn control(&self, session: u64, cmd: ShardCommand) -> Result<(), ServeError> {
        self.send(self.shard_for(session), cmd)
    }

    /// Puts `cmd` in `shard`'s mailbox, waiting for a slot while it is
    /// full, and wakes the worker.
    fn send(&self, shard: usize, cmd: ShardCommand) -> Result<(), ServeError> {
        let link = &self.links[shard];
        link.tx.send(cmd).map_err(|_| ServeError::ShuttingDown)?;
        link.worker.unpark();
        Ok(())
    }

    /// Idempotent session open/re-attach — the crash-recovery entry point.
    ///
    /// If the session is live and `token` matches, the caller's `sink`
    /// replaces the old one and results past `last_acked` are re-emitted.
    /// If a durable checkpoint exists under a matching token, the session
    /// is rebuilt warm from it. Otherwise a fresh session is installed and
    /// the AVOC engine bootstraps from live data. In every case the shard
    /// answers with a [`Message::Resumed`] frame on `sink` (or a
    /// [`Message::Error`] on token mismatch or capacity refusal).
    ///
    /// # Errors
    ///
    /// Spec resolution errors synchronously; everything else arrives on
    /// `sink`.
    pub fn resume_session(
        &self,
        session: u64,
        modules: u32,
        spec: &SpecSource,
        token: u64,
        last_acked: Option<u64>,
        sink: impl Into<ResultSink>,
    ) -> Result<(), ServeError> {
        let cmd = ShardCommand::Resume {
            req: self.open_req(session, modules, spec, token, true, sink.into())?,
            last_acked,
            eager: false,
        };
        self.control(session, cmd)?;
        self.note_depth(self.shard_for(session));
        Ok(())
    }

    /// Releases a lingering session's hold on a dead connection's result
    /// channel (see [`ShardCommand::Detach`]): the session stays alive for
    /// a future `ResumeSession`, but stops pinning the connection's writer.
    /// A no-op if the session has already re-attached to a different sink.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn detach_session(&self, session: u64, sink: &ResultSink) -> Result<(), ServeError> {
        let sink = sink.clone();
        self.control(session, ShardCommand::Detach { session, sink })
    }

    /// Eagerly rebuilds every session checkpointed in the state directory —
    /// the daemon-restart path: the `SpecRegistry` re-resolves each
    /// session's persisted spec and the shards restore warm history from
    /// the logs. Only each log's head is read here. Sessions whose spec no
    /// longer resolves, or whose log has no readable head (an older format
    /// included), are skipped; a later client resume gets the
    /// fresh-fallback bootstrap for those instead of an error. Logs whose
    /// head names a *different* node are skipped too — those sessions
    /// migrated away and their durable state belongs to the target now;
    /// recovering them here would fork the fused stream.
    ///
    /// Returns how many recovery commands were dispatched. Until a client
    /// re-attaches, recovered sessions emit to `sink`.
    pub fn recover_sessions(&self, sink: impl Into<ResultSink>) -> usize {
        let sink = sink.into();
        let Some(dir) = self.tiered.as_ref().map(|t| t.dir()) else {
            return 0;
        };
        let mut dispatched = 0;
        let (mut foreign, mut headless) = (0u64, 0u64);
        for id in list_session_wals(dir).unwrap_or_default() {
            let Some(meta) = persist::read_meta(dir, id) else {
                headless += 1;
                continue;
            };
            if meta.node != self.persistence.node_id {
                self.counters.sessions_skipped_foreign.inc();
                foreign += 1;
                continue;
            }
            let Ok(req) = self.open_req(
                id,
                meta.modules,
                &meta.spec,
                meta.token,
                meta.resumable,
                sink.clone(),
            ) else {
                continue;
            };
            let cmd = ShardCommand::Resume {
                req,
                // Nothing to re-emit to the daemon's own sink; the client's
                // eventual resume replays against its real ack floor.
                last_acked: Some(u64::MAX),
                eager: true,
            };
            if self.control(id, cmd).is_ok() {
                dispatched += 1;
            }
        }
        if foreign > 0 {
            eprintln!(
                "avoc-serve: skipped {foreign} checkpoint(s) owned by other \
                 nodes (sessions migrated away; this node is {})",
                self.persistence.node_id
            );
        }
        if headless > 0 {
            eprintln!("avoc-serve: {headless} session log(s) have no readable head: cold start");
        }
        dispatched
    }

    /// This daemon's cluster node id ([`Persistence::node_id`]; `0` for
    /// single-node deployments).
    pub fn node_id(&self) -> u64 {
        self.persistence.node_id
    }

    /// Exports a session for migration: the owning shard quiesces it at a
    /// round boundary (pending partial rounds are *not* force-fused — the
    /// client's unacked replay reconstructs them bit-identically at the
    /// target), rewrites its log whole with a head naming `target_node`
    /// (one rename, the migration's commit point), and answers on `sink`
    /// with a [`avoc_net::Message::SessionState`] carrying that log (its
    /// `meta` field empty), or an [`avoc_net::Message::Error`] if the
    /// session is unknown or the rewrite failed. The session's live state
    /// is dropped here; its log stays on disk — naming the target, so this
    /// node's own recovery skips it.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn export_session(
        &self,
        session: u64,
        target_node: u64,
        epoch: u64,
        target_addr: &str,
        sink: impl Into<ResultSink>,
    ) -> Result<(), ServeError> {
        let cmd = ShardCommand::Export {
            session,
            target_node,
            epoch,
            target_addr: target_addr.to_string(),
            sink: sink.into(),
        };
        self.control(session, cmd)
    }

    /// Imports a migrated session from its shipped log, whose head must
    /// already name this node (the export stamped it). The owning shard
    /// lands the log unchanged and eagerly resumes the session warm so the
    /// client's next reconnect re-attaches to live state; it answers on
    /// `sink` with a [`avoc_net::Message::Resumed`] frame (`warm: true`). A
    /// shipped log that does not scan clean end to end is refused there
    /// with an [`avoc_net::Message::Error`] frame before any local state is
    /// touched. When the session is *already live* on this node with the
    /// same token — an idempotent re-drive of a completed migration — the
    /// shard answers `Resumed { warm: true }` without touching the durable
    /// file, which the live session holds open.
    ///
    /// # Errors
    ///
    /// [`ServeError::Refused`] when this node has no state directory, when
    /// `meta` is not empty or the log has no readable head ("shipped meta
    /// is corrupt"), or when the head names another node;
    /// [`ServeError::UnknownSpec`]/[`ServeError::Vdx`] when the head's spec
    /// does not resolve here; [`ServeError::ShuttingDown`] after
    /// [`VoterService::drain`].
    pub fn import_session(
        &self,
        session: u64,
        meta: &[u8],
        wal: &[u8],
        sink: impl Into<ResultSink>,
    ) -> Result<(), ServeError> {
        if self.tiered.is_none() {
            return Err(ServeError::Refused(
                "import refused: this node has no state directory",
            ));
        }
        let parsed = avoc_store::image_meta(wal)
            .filter(|_| meta.is_empty())
            .and_then(persist::MetaState::decode)
            .ok_or(ServeError::Refused(
                "import refused: shipped meta is corrupt",
            ))?;
        if parsed.node != self.persistence.node_id {
            return Err(ServeError::Refused(
                "import refused: the shipped log names another node",
            ));
        }
        // The file writes happen *inside the shard thread* so they are
        // serialized with any live instance of the same session: an
        // idempotent re-drive must not truncate the WAL the live
        // SessionStore holds open.
        let cmd = ShardCommand::Import {
            req: self.open_req(
                session,
                parsed.modules,
                &parsed.spec,
                parsed.token,
                parsed.resumable,
                sink.into(),
            )?,
            wal: wal.to_vec(),
        };
        self.control(session, cmd)
    }

    /// Checks a cluster verb's credential against this daemon's configured
    /// inter-node secret. A daemon with no secret configured refuses the
    /// cluster verbs outright: a standalone deployment exposes no
    /// migration surface.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unauthorized`] when the credential does not match (or
    /// none is configured).
    pub fn check_cluster_auth(&self, auth: u64) -> Result<(), ServeError> {
        if self.persistence.cluster_secret == Some(auth) {
            Ok(())
        } else {
            Err(ServeError::Unauthorized)
        }
    }

    /// Lists the session ids with durable state in this node's state
    /// directory whose log's head names this node, as a flat JSON array
    /// (`[7,21]`); only the heads are read. This is the drain-time
    /// complement to the live view: a gateway enumerating a member's
    /// migratable sessions must also see sessions recovered at daemon boot
    /// or idled out of memory, which never appear in its placement table.
    pub fn durable_sessions_json(&self) -> String {
        let Some(dir) = self.tiered.as_ref().map(|t| t.dir()) else {
            return "[]".to_string();
        };
        let ids: Vec<String> = list_session_wals(dir)
            .unwrap_or_default()
            .into_iter()
            .filter(|&id| {
                persist::read_meta(dir, id).is_some_and(|m| m.node == self.persistence.node_id)
            })
            .map(|id| id.to_string())
            .collect();
        format!("[{}]", ids.join(","))
    }

    /// Routes one reading to its session's shard — a
    /// [`VoterService::feed_batch`] of one.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn feed(
        &self,
        session: u64,
        module: ModuleId,
        round: u64,
        value: f64,
    ) -> Result<(), ServeError> {
        self.feed_batch(
            session,
            &[avoc_net::BatchReading {
                module,
                round,
                value,
            }],
        )
    }

    /// Routes a whole batch of readings to one session's shard as a single
    /// `Readings` command: one mailbox slot and one channel send however many
    /// readings the frame carried, with the buffer drawn from (and returned
    /// to) a bounded free-list so the steady state allocates nothing. The
    /// worker feeds the batch in submission order, so the fused stream is
    /// bit-identical to per-reading feeding. A full mailbox makes the
    /// producer wait for one slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn feed_batch(
        &self,
        session: u64,
        readings: &[avoc_net::BatchReading],
    ) -> Result<(), ServeError> {
        let Some(first) = readings.first() else {
            return Ok(());
        };
        // One sampling decision for the frame; its first reading carries
        // the queue span.
        let ingest = self
            .counters
            .trace
            .sample()
            .then(|| open_ingest_span(session, first.round));
        let mark = if ingest.is_some() {
            TraceMark::Sampled
        } else {
            TraceMark::None
        };
        let mut buf = self.buffers.take();
        buf.extend(readings.iter().map(|r| TaggedReading {
            session,
            round: r.round,
            value: r.value,
            module: r.module,
            mark,
        }));
        if ingest.is_some() {
            buf[0].mark = TraceMark::FrameHead;
        }
        self.send_readings(self.shard_for(session), buf, ingest.as_slice())
    }

    /// A fresh [`Staging`] area sized for this service's shards.
    pub(crate) fn staging(&self) -> Staging {
        Staging {
            shards: self.links.iter().map(|_| Staged::default()).collect(),
        }
    }

    /// Puts one reading frame aside for its shard; nothing crosses a
    /// mailbox until [`VoterService::flush_staged`].
    pub(crate) fn stage(
        &self,
        staging: &mut Staging,
        session: u64,
        module: ModuleId,
        round: u64,
        value: f64,
    ) {
        let staged = &mut staging.shards[self.shard_for(session)];
        if staged.readings.capacity() == 0 {
            staged.readings = self.buffers.take();
        }
        let mark = if self.counters.trace.sample() {
            staged.ingest.push(open_ingest_span(session, round));
            TraceMark::FrameHead
        } else {
            TraceMark::None
        };
        staged.readings.push(TaggedReading {
            session,
            round,
            value,
            module,
            mark,
        });
    }

    /// Ships everything staged: one `Readings` command per shard that has
    /// readings waiting.
    ///
    /// # Errors
    ///
    /// After [`VoterService::drain`]: [`ServeError::ShuttingDown`], with
    /// the session of a reading that could no longer be delivered.
    /// Whatever the outcome, nothing stays staged.
    pub(crate) fn flush_staged(&self, staging: &mut Staging) -> Result<(), (u64, ServeError)> {
        let mut outcome = Ok(());
        for (shard, staged) in staging.shards.iter_mut().enumerate() {
            let Some(first) = staged.readings.first() else {
                continue;
            };
            let session = first.session;
            let readings = std::mem::take(&mut staged.readings);
            if let Err(e) = self.send_readings(shard, readings, &staged.ingest) {
                outcome = Err((session, e));
            }
            staged.ingest.clear();
        }
        outcome
    }

    /// One `Readings` command → one shard mailbox slot, waiting for one while the
    /// mailbox is full. Successful sends are counted (`shard_handoff_sends`)
    /// and the queue depth is sampled once per command, so the amortisation
    /// that grouping readings buys is observable. `ingest` holds the open
    /// ingest spans of the command's sampled frames; they close when the
    /// send returns (so they include any backpressure wait).
    fn send_readings(
        &self,
        shard: usize,
        readings: Vec<TaggedReading>,
        ingest: &[avoc_obs::Span],
    ) -> Result<(), ServeError> {
        let traced = !ingest.is_empty();
        let cmd = Readings {
            readings,
            queued_ns: if traced { avoc_obs::now_ns() } else { 0 },
        };
        let routed = self.send(shard, ShardCommand::Readings(cmd));
        if routed.is_ok() {
            self.counters.shard_handoff_sends.inc();
        }
        if traced {
            let sent_ns = avoc_obs::now_ns();
            for span in ingest {
                self.counters.trace.record(avoc_obs::Span {
                    dur_ns: sent_ns.saturating_sub(span.start_ns),
                    ..*span
                });
            }
        }
        self.note_depth(shard);
        routed
    }

    /// Closes a session, flushing partially assembled rounds to its sink.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn close_session(&self, session: u64) -> Result<(), ServeError> {
        self.control(session, ShardCommand::Close { session })
    }

    /// A live counters snapshot — the same cells a scrape renders, brought
    /// up to date first.
    pub fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    /// The daemon's health plane: per-domain degradation state, rendered
    /// by the admin `/healthz` route and shared with the reactor.
    pub fn health(&self) -> avoc_obs::Health {
        self.counters.health.clone()
    }

    /// The metric registry behind this service's counters, brought up to
    /// date — the admin endpoint's scrape surface.
    pub fn obs_registry(&self) -> &avoc_obs::Registry {
        self.counters.registry()
    }

    /// The service's span trace ring (disabled unless
    /// [`ServeConfig::trace_sample`] is non-zero).
    pub fn trace(&self) -> &avoc_obs::TraceRing {
        &self.counters.trace
    }

    /// The admin `/sessions` view: live sessions with their shard pin,
    /// resumability and fused-round counts, as a JSON array.
    pub fn sessions_json(&self) -> String {
        self.counters.sessions_json()
    }

    /// The admin `/segments` view: the segment tier's live segments and
    /// lifetime fold statistics. `{"enabled": false}` when persistence (or
    /// the tier) is off.
    pub fn segments_json(&self) -> String {
        match &self.tiered {
            Some(t) => t.segments_json(),
            None => "{\"enabled\": false}\n".to_string(),
        }
    }

    /// Runs one compaction pass (fold cold WALs, merge small segments) on
    /// the caller's thread, timed and counted. Returns `None` when the tier
    /// is off or the pass failed mid-way. A failed pass never loses data
    /// (unfolded WALs are retried next time), but it is not silent: the
    /// error is logged, and any segments the pass quarantined are in the
    /// tier's own total, which every read of the counters mirrors.
    pub fn compact_now(&self) -> Option<CompactionReport> {
        let started = Instant::now();
        let report = self
            .tiered
            .as_ref()?
            .compact()
            .inspect_err(|e| {
                eprintln!(
                    "avoc-serve: compaction pass failed (data stays in WALs, will retry): {e}"
                );
            })
            .ok()?;
        self.counters.compaction_recorded(
            report.history_rows + report.verdict_rows,
            report.bytes_written,
            started.elapsed().as_nanos() as u64,
        );
        Some(report)
    }

    /// The admin bind address configured at start (`None` = no admin
    /// endpoint).
    pub(crate) fn admin_addr_config(&self) -> Option<&str> {
        self.admin_addr.as_deref()
    }

    /// The live counter registry itself — connection I/O threads record
    /// wire-level counters (bytes, frames, flushes) directly against it.
    pub(crate) fn counters_arc(&self) -> Arc<ServiceCounters> {
        Arc::clone(&self.counters)
    }

    /// Graceful drain: every shard flushes every session's in-flight rounds
    /// to its sink, workers exit, and the final counters are returned.
    /// Subsequent `open`/`feed`/`close` calls fail with
    /// [`ServeError::ShuttingDown`].
    pub fn drain(&self) -> CountersSnapshot {
        self.stop(|| ShardCommand::Drain)
    }

    /// Hard kill — the crash-simulation counterpart of
    /// [`VoterService::drain`]: shards drop their sessions *without*
    /// flushing in-flight rounds or writing final checkpoints, so durable
    /// state is left exactly as the last completed checkpoint wrote it.
    /// Integration tests restart daemons through this to prove recovery.
    pub fn kill(&self) -> CountersSnapshot {
        self.stop(|| ShardCommand::Abort)
    }

    /// Ends every worker with `last`, queued behind whatever its mailbox
    /// already holds, and returns the final counters.
    fn stop(&self, last: impl Fn() -> ShardCommand) -> CountersSnapshot {
        for shard in 0..self.links.len() {
            let _ = self.send(shard, last());
        }
        let joins: Vec<_> = std::mem::take(&mut *self.joins.lock());
        for j in joins {
            // Dropping the returned receiver disconnects the mailbox,
            // so a `feed` racing this stop (or arriving after it) errors
            // instead of waiting forever on a mailbox nobody reads.
            let _ = j.join();
        }
        self.counters.snapshot()
    }

    /// Stops every worker but returns their receivers, keeping the
    /// mailboxes connected: nothing drains them any more, so what a test
    /// sends stays put for it to read.
    #[cfg(test)]
    pub(crate) fn stop_workers(&self) -> Vec<Receiver<ShardCommand>> {
        for shard in 0..self.links.len() {
            assert!(self.send(shard, ShardCommand::Drain).is_ok());
        }
        std::mem::take(&mut *self.joins.lock())
            .into_iter()
            .map(|j| j.join().expect("worker exits cleanly"))
            .collect()
    }

    fn note_depth(&self, shard: usize) {
        self.counters
            .note_queue_depth(shard, self.links[shard].tx.len());
    }
}

/// The ingest span of a trace-sampled frame, opened now; the send that
/// ships the frame closes it.
fn open_ingest_span(session: u64, round: u64) -> avoc_obs::Span {
    avoc_obs::Span {
        session,
        round,
        stage: avoc_obs::Stage::Ingest,
        start_ns: avoc_obs::now_ns(),
        dur_ns: 0,
    }
}

impl Drop for VoterService {
    fn drop(&mut self) {
        // Idempotent: drain() already emptied `joins` if it ran.
        if !self.joins.lock().is_empty() {
            self.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_net::Message;
    use avoc_vdx::VdxSpec;
    use crossbeam::channel;
    use std::time::Duration;

    fn registry() -> Arc<SpecRegistry> {
        let mut r = SpecRegistry::new();
        r.insert("avoc", VdxSpec::avoc());
        Arc::new(r)
    }

    fn config(shards: usize) -> ServeConfig {
        ServeConfig {
            shards,
            ..ServeConfig::default()
        }
    }

    /// Results delivered, whether framed individually or batched (burst
    /// timing decides the framing; the verdict count is the invariant).
    fn delivered_results(msgs: &[Message]) -> usize {
        msgs.iter()
            .map(|m| match m {
                Message::SessionResult { .. } => 1,
                Message::ResultBatch { results, .. } => results.len(),
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn open_feed_close_round_trips_results() {
        let service = VoterService::start(config(2), registry());
        let (sink, results) = channel::unbounded();
        service
            .open_session(1, 3, &SpecSource::Named("avoc".into()), sink)
            .unwrap();
        for round in 0..5u64 {
            for m in 0..3u32 {
                service
                    .feed(1, ModuleId::new(m), round, 20.0 + f64::from(m) * 0.1)
                    .unwrap();
            }
        }
        service.close_session(1).unwrap();
        let snap = service.drain();
        assert_eq!(snap.rounds_fused, 5);
        assert_eq!(snap.sessions_opened, 1);
        let got: Vec<Message> = results.try_iter().collect();
        // (post-drain, try_iter sees everything the session emitted)
        assert_eq!(delivered_results(&got), 5);
    }

    #[test]
    fn unknown_spec_fails_synchronously() {
        let service = VoterService::start(config(1), registry());
        let (sink, _results) = channel::unbounded();
        assert!(matches!(
            service.open_session(1, 3, &SpecSource::Named("nope".into()), sink.clone()),
            Err(ServeError::UnknownSpec(_))
        ));
        // So does an inline document that parses but does not validate.
        let mut invalid = VdxSpec::avoc();
        invalid.params.error = f64::NAN;
        assert!(matches!(
            service.open_session(1, 3, &SpecSource::Inline(invalid.to_json()), sink),
            Err(ServeError::Vdx(_))
        ));
    }

    #[test]
    fn capacity_reject_sends_error_frame() {
        let cfg = ServeConfig {
            shards: 1,
            max_sessions: 1,
            ..ServeConfig::default()
        };
        let service = VoterService::start(cfg, registry());
        let (sink_a, _results_a) = channel::unbounded();
        let (sink_b, results_b) = channel::unbounded();
        service
            .open_session(1, 2, &SpecSource::Named("avoc".into()), sink_a)
            .unwrap();
        service
            .open_session(2, 2, &SpecSource::Named("avoc".into()), sink_b)
            .unwrap();
        let snap = service.drain();
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_rejected, 1);
        assert!(matches!(
            results_b.try_recv().unwrap(),
            Message::Error { session: 2, .. }
        ));
    }

    #[test]
    fn capacity_is_global_across_shards() {
        let cfg = ServeConfig {
            shards: 2,
            max_sessions: 1,
            ..ServeConfig::default()
        };
        let service = VoterService::start(cfg, registry());
        let a = 0u64;
        let b = (1..64u64)
            .find(|&id| service.shard_for(id) != service.shard_for(a))
            .expect("the finalizer spreads 64 ids over 2 shards");
        let (sink_a, results_a) = channel::unbounded();
        let (sink_b, results_b) = channel::unbounded();
        service
            .open_session(a, 1, &SpecSource::Named("avoc".into()), sink_a)
            .unwrap();
        // Fuse one round and wait for its result, proving shard A has
        // installed the session (and claimed the only slot) before B's
        // open races for it on the other worker.
        service.feed(a, ModuleId::new(0), 0, 1.0).unwrap();
        assert!(matches!(
            results_a.recv().unwrap(),
            Message::SessionResult { session: 0, .. }
        ));
        service
            .open_session(b, 1, &SpecSource::Named("avoc".into()), sink_b)
            .unwrap();
        let snap = service.drain();
        assert_eq!(snap.sessions_opened, 1, "the cap binds across shards");
        assert_eq!(snap.sessions_rejected, 1);
        assert!(matches!(
            results_b.try_recv().unwrap(),
            Message::Error { session, .. } if session == b
        ));
    }

    #[test]
    fn idle_sessions_are_evicted_at_the_first_sweep_past_their_deadline() {
        let service = VoterService::start(
            ServeConfig {
                shards: 1,
                idle_ticks: 100,
                ..ServeConfig::default()
            },
            registry(),
        );
        let spec = SpecSource::Named("avoc".into());
        let (sink_a, results_a) = channel::unbounded();
        let (sink_b, results_b) = channel::unbounded();
        service.open_session(1, 1, &spec, sink_a).unwrap();
        service.open_session(2, 1, &spec, sink_b).unwrap();
        // One shard tick per reading. B's only reading is tick 1, so it
        // outstays `idle_ticks` after tick 101; sweeps run on multiples of
        // 64, so tick 128 reaps it. A reads on every tick after that.
        service.feed(2, ModuleId::new(0), 0, 1.0).unwrap();
        let quiesce = |fused: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while service.counters().rounds_fused < fused {
                assert!(Instant::now() < deadline, "shard never fused {fused}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let is_error = |m: &Message| matches!(m, Message::Error { .. });
        for round in 0..126u64 {
            service.feed(1, ModuleId::new(0), round, 1.0).unwrap();
        }
        quiesce(127);
        assert_eq!(service.active_sessions(), 2, "B is live at tick 127");
        assert!(!results_b.try_iter().any(|m| is_error(&m)));
        service.feed(1, ModuleId::new(0), 126, 1.0).unwrap();
        let notice = std::iter::from_fn(|| results_b.recv_timeout(Duration::from_secs(10)).ok())
            .find(is_error)
            .expect("B is told it was evicted");
        assert!(matches!(
            notice,
            Message::Error { session: 2, ref message } if message == "session evicted: idle timeout"
        ));
        let snap = service.drain();
        assert_eq!(snap.sessions_evicted, 1);
        assert!(!results_a.try_iter().any(|m| is_error(&m)), "A stays live");
    }

    #[test]
    fn drain_flushes_inflight_rounds() {
        let service = VoterService::start(config(2), registry());
        let (sink, results) = channel::unbounded();
        service
            .open_session(9, 3, &SpecSource::Named("avoc".into()), sink)
            .unwrap();
        // Two of three modules reported: the round is in-flight.
        service.feed(9, ModuleId::new(0), 0, 5.0).unwrap();
        service.feed(9, ModuleId::new(1), 0, 5.1).unwrap();
        let snap = service.drain();
        assert_eq!(snap.rounds_fused, 1, "drain must flush the partial round");
        assert!(matches!(
            results.try_recv().unwrap(),
            Message::SessionResult {
                session: 9,
                round: 0,
                ..
            }
        ));
        assert!(matches!(
            service.feed(9, ModuleId::new(2), 0, 5.2),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn a_flush_ships_one_command_per_shard_in_arrival_order() {
        let service = VoterService::start(config(2), registry());
        let mailboxes = service.stop_workers();
        let mut staging = service.staging();
        // Three sessions, interleaved reading by reading, as one socket
        // read of a multi-tenant connection would decode them.
        let arrivals: Vec<(u64, u32)> = (0..4u32)
            .flat_map(|m| (0..3u64).map(move |s| (s, m)))
            .collect();
        for &(session, module) in &arrivals {
            service.stage(&mut staging, session, ModuleId::new(module), 0, 1.0);
        }
        service.flush_staged(&mut staging).unwrap();
        assert!(staging.is_empty());
        let shards_hit: std::collections::BTreeSet<usize> =
            (0..3u64).map(|s| service.shard_for(s)).collect();
        assert_eq!(
            service.counters().shard_handoff_sends,
            shards_hit.len() as u64
        );
        for (shard, rx) in mailboxes.iter().enumerate() {
            let want: Vec<(u64, u32)> = arrivals
                .iter()
                .copied()
                .filter(|&(s, _)| service.shard_for(s) == shard)
                .collect();
            let got: Vec<(u64, u32)> = rx
                .try_iter()
                .flat_map(|cmd| match cmd {
                    ShardCommand::Readings(cmd) => cmd.readings,
                    _ => panic!("shard {shard} queued a lifecycle command"),
                })
                .map(|r| (r.session, r.module.index()))
                .collect();
            assert_eq!(got, want, "shard {shard}");
        }
        // A second flush with nothing staged sends nothing.
        service.flush_staged(&mut staging).unwrap();
        assert_eq!(
            service.counters().shard_handoff_sends,
            shards_hit.len() as u64
        );
        // A `FeedBatch` frame is one send, however many readings it holds.
        let frame: Vec<avoc_net::BatchReading> = (0..512u64)
            .map(|i| avoc_net::BatchReading {
                module: ModuleId::new((i % 4) as u32),
                round: 1 + i / 4,
                value: 1.0,
            })
            .collect();
        service.feed_batch(0, &frame).unwrap();
        assert_eq!(
            service.counters().shard_handoff_sends,
            shards_hit.len() as u64 + 1
        );
    }

    #[test]
    fn sessions_pin_to_stable_shards() {
        let service = VoterService::start(config(4), registry());
        for id in 0..64u64 {
            assert_eq!(service.shard_for(id), service.shard_for(id));
        }
        // The finalizer should not send every consecutive id to one shard.
        let hits: std::collections::HashSet<usize> =
            (0..64u64).map(|id| service.shard_for(id)).collect();
        assert!(hits.len() > 1);
    }

    fn durable(dir: &std::path::Path, node_id: u64) -> VoterService {
        let persistence = Persistence {
            state_dir: Some(dir.to_path_buf()),
            node_id,
            ..Persistence::default()
        };
        let config = ServeConfig {
            shards: 1,
            persistence,
            ..ServeConfig::default()
        };
        VoterService::start(config, registry())
    }

    fn state_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("avoc-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn an_import_of_a_log_that_names_another_node_is_refused() {
        let (src, dst) = (state_dir("import-src"), state_dir("import-dst"));
        let source = durable(&src, 1);
        let spec = SpecSource::Named("avoc".into());
        let (sink, _results) = channel::unbounded();
        source.open_session(7, 3, &spec, sink).unwrap();
        for round in 0..4u64 {
            for m in 0..3u32 {
                source.feed(7, ModuleId::new(m), round, 20.0).unwrap();
            }
        }
        let (tx, rx) = channel::unbounded();
        source.export_session(7, 5, 1, "127.0.0.1:1", tx).unwrap();
        let wal = loop {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Message::SessionState { meta, wal, .. } => {
                    assert!(meta.is_empty(), "the meta travels in the log");
                    break wal;
                }
                Message::Error { message, .. } => panic!("export refused: {message}"),
                _ => {}
            }
        };
        source.drain();

        let target = durable(&dst, 0);
        let refusal = |meta: &[u8], wal: &[u8]| {
            let (tx, _rx) = channel::unbounded();
            match target.import_session(7, meta, wal, tx) {
                Err(ServeError::Refused(reason)) => reason,
                other => panic!("expected a refusal, got {other:?}"),
            }
        };
        assert_eq!(
            refusal(&[], &wal),
            "import refused: the shipped log names another node"
        );
        assert_eq!(
            refusal(b"a sidecar", &wal),
            "import refused: shipped meta is corrupt"
        );
        assert_eq!(
            refusal(&[], &wal[..20]),
            "import refused: shipped meta is corrupt"
        );
        target.drain();
        let files = std::fs::read_dir(&dst).unwrap().flatten();
        let sessions = files.filter(|e| e.file_name().to_string_lossy().starts_with("session-"));
        assert_eq!(sessions.count(), 0, "a refused import writes nothing");
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }

    #[test]
    fn a_log_of_the_previous_version_is_a_cold_start() {
        let dir = state_dir("v1-log");
        let log = avoc_store::session_wal_path(&dir, 3);
        {
            let mut wal = avoc_store::FileHistory::open(&log).unwrap();
            wal.checkpoint(&[(ModuleId::new(0), 0.5)], &[], Some(4))
                .unwrap();
        }
        // The same records under the version-1 header, which had no head.
        let mut bytes = std::fs::read(&log).unwrap();
        bytes[7] = 1;
        std::fs::write(&log, bytes).unwrap();

        let service = durable(&dir, 0);
        let (sink, replies) = channel::unbounded();
        assert_eq!(service.recover_sessions(sink.clone()), 0);
        let spec = SpecSource::Named("avoc".into());
        service
            .resume_session(3, 2, &spec, 9, Some(4), sink)
            .unwrap();
        let reply = replies.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            matches!(reply, Message::Resumed { warm: false, .. }),
            "got {reply:?}"
        );
        assert_eq!(service.drain().recoveries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
