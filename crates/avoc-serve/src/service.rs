//! The sharded voter service: session routing, admission, backpressure.

use avoc_core::ModuleId;
use avoc_net::SpecSource;
use avoc_store::{CompactionReport, TieredStore};
use avoc_vdx::VdxError;
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{CountersSnapshot, ServiceCounters};
use crate::persist::{self, Persistence};
use crate::registry::SpecRegistry;
use crate::shard::{
    Backpressure, BufferPool, OpenReq, Readings, ShardCommand, ShardWorker, TaggedReading,
    TraceMark,
};
use crate::sink::ResultSink;

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
    /// Bounded capacity of each shard's mailboxes, in commands: the data
    /// mailbox (a command carries the readings of one `feed`/`feed_batch`
    /// call or of one socket read), and the control mailbox carrying
    /// session lifecycle commands.
    pub mailbox_capacity: usize,
    /// What readings do when a data mailbox is full.
    pub backpressure: Backpressure,
    /// Maximum concurrently open sessions across all shards; opens past it
    /// are refused with an error frame.
    pub max_sessions: usize,
    /// Readings a session may go without (in per-shard ticks) before idle
    /// eviction reaps it.
    pub idle_ticks: u64,
    /// Round-assembly lag tolerance handed to each session's hub.
    pub lag_tolerance: u64,
    /// Crash-safety configuration: state directory, fsync mode and
    /// checkpoint cadence. Off by default.
    pub persistence: Persistence,
    /// Bind address for the plain-HTTP admin endpoint (`/metrics`,
    /// `/healthz`, `/sessions`, `/segments`, `/trace`) — e.g.
    /// `"127.0.0.1:0"`. `None` (the default) serves no admin socket.
    pub admin_addr: Option<String>,
    /// How long a connection's corked writer may sit parked on a full
    /// socket before the reactor declares the peer wedged and closes it.
    /// The default (5 s) suits interactive tenants; raise it for peers
    /// that legitimately go long between reads — e.g. batch clients on a
    /// heavily oversubscribed host.
    pub write_deadline: std::time::Duration,
    /// Per-round trace sampling cadence: one round in `trace_sample` leaves
    /// spans in the trace ring. `0` (the default) disables tracing.
    pub trace_sample: u64,
    /// Capacity of the span trace ring (ignored while tracing is off).
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            reactors: 0,
            mailbox_capacity: 1024,
            backpressure: Backpressure::Block,
            max_sessions: 1024,
            idle_ticks: 4096,
            lag_tolerance: 8,
            persistence: Persistence::default(),
            admin_addr: None,
            write_deadline: avoc_net::reactor::DEFAULT_WRITE_DEADLINE,
            trace_sample: 0,
            trace_capacity: 4096,
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
    /// `Reject` backpressure refused a reading (mailbox full).
    MailboxFull,
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
            ServeError::MailboxFull => write!(f, "shard mailbox full: reading rejected"),
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

/// One shard's producer endpoints. Lifecycle commands and readings travel
/// on separate bounded channels so a full data mailbox can never displace,
/// reorder, or shed an `Open`/`Close`/`Drain`.
struct ShardLink {
    ctrl: Sender<ShardCommand>,
    data: Sender<Readings>,
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
    /// Shed-side clones of each shard's data receiver: `DropOldest` pops
    /// the oldest queued command here when a mailbox is full (readings
    /// only — control has its own channel). Cleared on drain, which also
    /// disconnects the data channels so late `feed`s fail fast instead of
    /// queueing into (or blocking on) a mailbox nobody reads.
    sheds: Mutex<Vec<Receiver<Readings>>>,
    // (manual Debug below: mailboxes and queued commands aren't printable)
    joins: Mutex<Vec<JoinHandle<()>>>,
    counters: Arc<ServiceCounters>,
    active: Arc<AtomicUsize>,
    registry: Arc<SpecRegistry>,
    /// Resolved reactor-thread count for the TCP front-end (the
    /// `ServeConfig::reactors` knob with `0` already expanded).
    reactors: usize,
    /// Free-list of recycled reading buffers, shared with the shards that
    /// drain them.
    buffers: Arc<BufferPool>,
    backpressure: Backpressure,
    persistence: Persistence,
    admin_addr: Option<String>,
    write_deadline: std::time::Duration,
    /// The segment tier behind the state directory (shared with every shard
    /// and the compactor thread). `None` when persistence is off or the
    /// tier failed to open — sessions then run WAL-only, exactly as before.
    tiered: Option<Arc<TieredStore>>,
    /// Tells the compactor thread to exit.
    compactor_stop: Arc<AtomicBool>,
    compactor: Mutex<Option<JoinHandle<()>>>,
}

impl fmt::Debug for VoterService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VoterService")
            .field("shards", &self.links.len())
            .field("active_sessions", &self.active.load(Ordering::Relaxed))
            .field("backpressure", &self.backpressure)
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
        // into it at open/resume. A tier that fails to open degrades the
        // daemon to WAL-only persistence instead of refusing to start.
        let tiered = config.persistence.state_dir.as_deref().and_then(|dir| {
            std::fs::create_dir_all(dir).ok()?;
            TieredStore::open(dir).ok().map(Arc::new)
        });
        let counters = Arc::new(ServiceCounters::with_observability(
            shards,
            reactors,
            config.trace_capacity,
            config.trace_sample,
            tiered.clone(),
        ));
        let active = Arc::new(AtomicUsize::new(0));
        let buffers = Arc::new(BufferPool::default());
        let mut links = Vec::with_capacity(shards);
        let mut sheds = Vec::with_capacity(shards);
        let mut joins = Vec::with_capacity(shards);
        for index in 0..shards {
            let (ctrl_tx, ctrl_rx) = channel::bounded(config.mailbox_capacity);
            let (data_tx, data_rx) = channel::bounded(config.mailbox_capacity);
            let worker = ShardWorker {
                index,
                ctrl_rx,
                data_rx: data_rx.clone(),
                buffers: Arc::clone(&buffers),
                counters: Arc::clone(&counters),
                active: Arc::clone(&active),
                max_sessions: config.max_sessions,
                idle_ticks: config.idle_ticks,
                lag_tolerance: config.lag_tolerance,
                persistence: config.persistence.clone(),
                tiered: tiered.clone(),
            };
            joins.push(
                std::thread::Builder::new()
                    .name(format!("avoc-serve-shard-{index}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker"),
            );
            links.push(ShardLink {
                ctrl: ctrl_tx,
                data: data_tx,
            });
            sheds.push(data_rx);
        }
        let compactor_stop = Arc::new(AtomicBool::new(false));
        let compactor = match (&tiered, config.persistence.compact_interval_ms) {
            (Some(t), interval_ms) if interval_ms > 0 => {
                let tier = Arc::clone(t);
                let stop = Arc::clone(&compactor_stop);
                let counters = Arc::clone(&counters);
                let interval = Duration::from_millis(interval_ms);
                Some(
                    std::thread::Builder::new()
                        .name("avoc-serve-compactor".into())
                        .spawn(move || {
                            while !stop.load(Ordering::Relaxed) {
                                // Sleep in short slices so shutdown never
                                // waits out a long interval.
                                let mut slept = Duration::ZERO;
                                while slept < interval && !stop.load(Ordering::Relaxed) {
                                    let step = (interval - slept).min(Duration::from_millis(20));
                                    std::thread::sleep(step);
                                    slept += step;
                                }
                                if stop.load(Ordering::Relaxed) {
                                    break;
                                }
                                compaction_pass(&tier, &counters);
                            }
                        })
                        .expect("spawn compactor"),
                )
            }
            _ => None,
        };
        VoterService {
            links,
            sheds: Mutex::new(sheds),
            joins: Mutex::new(joins),
            counters,
            active,
            registry,
            reactors,
            buffers,
            backpressure: config.backpressure,
            persistence: config.persistence,
            admin_addr: config.admin_addr,
            write_deadline: config.write_deadline,
            tiered,
            compactor_stop,
            compactor: Mutex::new(compactor),
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
        // Control frames always block: admission must not be load-shed, and
        // the worker drains control with priority (and never blocks on a
        // tenant sink), so the send cannot wedge behind a data flood.
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
        self.links[self.shard_for(session)]
            .ctrl
            .send(cmd)
            .map_err(|_| ServeError::ShuttingDown)
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
    /// the WALs. Sessions whose spec no longer resolves (or whose meta is
    /// corrupt) are skipped; a later client resume gets the fresh-fallback
    /// bootstrap for those instead of an error. Checkpoints whose meta
    /// names a *different* node are skipped too — those sessions migrated
    /// away and their durable state belongs to the target now; recovering
    /// them here would fork the fused stream.
    ///
    /// Returns how many recovery commands were dispatched. Until a client
    /// re-attaches, recovered sessions emit to `sink`.
    pub fn recover_sessions(&self, sink: impl Into<ResultSink>) -> usize {
        let sink = sink.into();
        let Some(dir) = self.persistence.state_dir.clone() else {
            return 0;
        };
        let mut dispatched = 0;
        let mut foreign = 0u64;
        for id in persist::list_sessions(&dir) {
            let Some(meta) = persist::read_meta(&dir, id) else {
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
    /// target), compacts and checkpoints its durable state stamped with
    /// `target_node`, and answers on `sink` with a
    /// [`avoc_net::Message::SessionState`] carrying the meta + WAL blobs
    /// (or an [`avoc_net::Message::Error`] if the session is unknown).
    /// The session's live state is dropped here; its files stay on disk —
    /// stamped foreign, so this node's own recovery skips them.
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

    /// Imports a migrated session from its shipped meta + WAL blobs. The
    /// owning shard lands the files (re-stamped with this node's id) and
    /// eagerly resumes the session warm so the client's next reconnect
    /// re-attaches to live state; it answers on `sink` with a
    /// [`avoc_net::Message::Resumed`] frame (`warm: true`). A shipped WAL
    /// that does not scan clean end to end is refused there with an
    /// [`avoc_net::Message::Error`] frame before any local state is
    /// touched. When the session is *already live* on this node with the
    /// same token — an idempotent re-drive of a completed migration — the
    /// shard answers `Resumed { warm: true }` without touching the durable
    /// files, which the live session holds open.
    ///
    /// # Errors
    ///
    /// [`ServeError::Refused`] when this node has no state directory or the
    /// shipped meta is corrupt; [`ServeError::UnknownSpec`]/[`ServeError::Vdx`]
    /// when the meta's spec does not resolve here;
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn import_session(
        &self,
        session: u64,
        meta: &[u8],
        wal: &[u8],
        sink: impl Into<ResultSink>,
    ) -> Result<(), ServeError> {
        if self.persistence.state_dir.is_none() {
            return Err(ServeError::Refused(
                "import refused: this node has no state directory",
            ));
        }
        let parsed = persist::MetaState::parse(meta).ok_or(ServeError::Refused(
            "import refused: shipped meta is corrupt",
        ))?;
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
    /// directory that are stamped as owned by (or unclaimed for) this
    /// node, as a flat JSON array (`[7,21]`). This is the drain-time
    /// complement to the live view: a gateway enumerating a member's
    /// migratable sessions must also see sessions recovered at daemon boot
    /// or idled out of memory, which never appear in its placement table.
    pub fn durable_sessions_json(&self) -> String {
        let Some(dir) = self.persistence.state_dir.as_deref() else {
            return "[]".to_string();
        };
        let ids: Vec<String> = persist::list_sessions(dir)
            .into_iter()
            .filter(|&id| {
                persist::read_meta(dir, id).is_some_and(|m| m.node == self.persistence.node_id)
            })
            .map(|id| id.to_string())
            .collect();
        format!("[{}]", ids.join(","))
    }

    /// Routes one reading to its session's shard under the configured
    /// backpressure policy — a [`VoterService::feed_batch`] of one.
    ///
    /// # Errors
    ///
    /// [`ServeError::MailboxFull`] under `Reject` when the mailbox is full;
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
    /// data command: one mailbox slot and one channel send however many
    /// readings the frame carried, with the buffer drawn from (and returned
    /// to) a bounded free-list so the steady state allocates nothing. The
    /// worker feeds the batch in submission order, so the fused stream is
    /// bit-identical to per-reading feeding.
    ///
    /// The backpressure budget is spent per command: under `Reject` a full
    /// mailbox refuses the whole batch (every reading counted dropped);
    /// under `DropOldest` each shed mailbox entry counts the readings it
    /// carried; under `Block` the producer waits for one slot.
    ///
    /// # Errors
    ///
    /// [`ServeError::MailboxFull`] under `Reject` when the batch was
    /// refused; [`ServeError::ShuttingDown`] after [`VoterService::drain`].
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

    /// Ships everything staged: one data command per shard that has
    /// readings waiting, under the configured backpressure policy (a
    /// `Reject` refusal is counted per reading and is not an error here —
    /// the tenant learns about systematic loss from the counters).
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
            match self.send_readings(shard, readings, &staged.ingest) {
                Ok(()) | Err(ServeError::MailboxFull) => {}
                Err(e) => outcome = Err((session, e)),
            }
            staged.ingest.clear();
        }
        outcome
    }

    /// One data command → one shard mailbox slot under the backpressure
    /// policy. Successful sends are counted (`shard_handoff_sends`) and the
    /// queue depth is sampled once per command, so the amortisation that
    /// grouping readings buys is observable. `ingest` holds the open ingest
    /// spans of the command's sampled frames; they close when the send
    /// returns (so they include any backpressure wait).
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
        let tx = &self.links[shard].data;
        let routed = match self.backpressure {
            Backpressure::Block => tx.send(cmd).map_err(|_| ServeError::ShuttingDown),
            Backpressure::DropOldest => self.send_drop_oldest(shard, cmd),
            Backpressure::Reject => match tx.try_send(cmd) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(cmd)) => {
                    self.count_shed(cmd);
                    Err(ServeError::MailboxFull)
                }
                Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
            },
        };
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

    /// Counts a refused or shed data command against `readings_dropped` —
    /// per *reading*, its whole payload — and recycles its buffer back into
    /// the pool.
    fn count_shed(&self, cmd: Readings) {
        self.counters
            .readings_dropped
            .add(cmd.readings.len() as u64);
        self.buffers.give(cmd.readings);
    }

    /// `DropOldest` with stock channel primitives: on `Full`, pop the
    /// oldest queued command from the shed-side receiver clone and retry.
    /// The data mailbox carries only readings, so shedding can never
    /// displace a control command.
    fn send_drop_oldest(&self, shard: usize, mut cmd: Readings) -> Result<(), ServeError> {
        loop {
            match self.links[shard].data.try_send(cmd) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => return Err(ServeError::ShuttingDown),
                Err(TrySendError::Full(back)) => {
                    cmd = back;
                    let shed = {
                        let sheds = self.sheds.lock();
                        let Some(rx) = sheds.get(shard) else {
                            return Err(ServeError::ShuttingDown); // drained
                        };
                        // The worker may empty the queue between the failed
                        // send and this pop; an empty pop just means space
                        // opened up, so only an actual eviction is counted.
                        rx.try_recv().ok()
                    };
                    if let Some(old) = shed {
                        self.count_shed(old);
                    }
                }
            }
        }
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
    /// the caller's thread, regardless of the background interval. Returns
    /// `None` when the tier is off or the pass failed mid-way (a failed
    /// pass never loses data — unfolded WALs are simply retried next time).
    pub fn compact_now(&self) -> Option<CompactionReport> {
        compaction_pass(self.tiered.as_ref()?, &self.counters)
    }

    /// The admin bind address configured at start (`None` = no admin
    /// endpoint).
    pub(crate) fn admin_addr_config(&self) -> Option<&str> {
        self.admin_addr.as_deref()
    }

    /// The wedged-peer write deadline configured at start, handed to the
    /// reactor by the TCP front-end.
    pub(crate) fn write_deadline_config(&self) -> std::time::Duration {
        self.write_deadline
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

    /// Ends every worker with `last` and returns the final counters.
    fn stop(&self, last: impl Fn() -> ShardCommand) -> CountersSnapshot {
        self.stop_compactor();
        for link in &self.links {
            let _ = link.ctrl.send(last());
        }
        let joins: Vec<JoinHandle<()>> = std::mem::take(&mut *self.joins.lock());
        for j in joins {
            let _ = j.join();
        }
        // The workers' data receivers are gone; dropping the shed clones
        // disconnects the data channels so a `feed` racing this stop (or
        // arriving after it) errors instead of queueing — or, under
        // `Block`, sleeping — forever on a mailbox nobody reads.
        self.sheds.lock().clear();
        self.counters.snapshot()
    }

    /// Joins the background compactor (idempotent; a no-op when none runs).
    /// An in-flight pass finishes — folds are short and crash-safe anyway.
    fn stop_compactor(&self) {
        self.compactor_stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.compactor.lock().take() {
            let _ = j.join();
        }
    }

    /// Stops every worker but leaves the data mailboxes connected (the
    /// shed-side receiver clones keep them so): nothing drains them any
    /// more, so what a test sends stays put and a mailbox fills
    /// deterministically.
    #[cfg(test)]
    pub(crate) fn stop_workers(&self) {
        for link in &self.links {
            assert!(link.ctrl.send(ShardCommand::Drain).is_ok());
        }
        for j in std::mem::take(&mut *self.joins.lock()) {
            j.join().expect("worker exits cleanly");
        }
    }

    /// Commands waiting in a shard's data mailbox.
    #[cfg(test)]
    pub(crate) fn queued_commands(&self, shard: usize) -> usize {
        self.links[shard].data.len()
    }

    fn note_depth(&self, shard: usize) {
        self.counters
            .note_queue_depth(shard, self.links[shard].data.len());
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

/// One compaction pass with its metrics: fold + merge, timed, counted.
/// A failed pass never loses data (unfolded WALs are retried next time),
/// but it is not silent: the error is logged, and any segments the pass
/// quarantined are in the tier's own total, which every read of the
/// counters mirrors.
fn compaction_pass(tier: &TieredStore, counters: &ServiceCounters) -> Option<CompactionReport> {
    let started = Instant::now();
    let report = tier
        .compact()
        .inspect_err(|e| {
            eprintln!("avoc-serve: compaction pass failed (data stays in WALs, will retry): {e}");
        })
        .ok()?;
    counters.compaction_recorded(
        report.history_rows + report.verdict_rows,
        report.bytes_written,
        started.elapsed().as_nanos() as u64,
    );
    Some(report)
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
        service.stop_workers();
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
        for (shard, rx) in service.sheds.lock().iter().enumerate() {
            let want: Vec<(u64, u32)> = arrivals
                .iter()
                .copied()
                .filter(|&(s, _)| service.shard_for(s) == shard)
                .collect();
            let got: Vec<(u64, u32)> = rx
                .try_iter()
                .flat_map(|cmd| cmd.readings)
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
    fn a_refused_staged_command_counts_its_readings_and_returns_its_buffer() {
        let service = VoterService::start(
            ServeConfig {
                shards: 1,
                mailbox_capacity: 1,
                backpressure: Backpressure::Reject,
                ..ServeConfig::default()
            },
            registry(),
        );
        service.stop_workers();
        let mut staging = service.staging();
        for m in 0..3u32 {
            service.stage(&mut staging, 1, ModuleId::new(m), 0, 1.0);
        }
        service.flush_staged(&mut staging).unwrap();
        assert_eq!(service.buffers.len(), 0, "the buffer sits in the mailbox");
        // The one slot is taken: the next command is refused whole — which
        // `flush_staged` counts rather than reports.
        for m in 0..5u32 {
            service.stage(&mut staging, 1, ModuleId::new(m), 1, 1.0);
        }
        service.flush_staged(&mut staging).unwrap();
        assert!(staging.is_empty());
        let snap = service.counters();
        assert_eq!(snap.readings_dropped, 5);
        assert_eq!(snap.shard_handoff_sends, 1);
        assert_eq!(service.buffers.len(), 1, "the refused buffer is pooled");
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
}
