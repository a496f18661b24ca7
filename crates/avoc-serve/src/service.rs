//! The sharded voter service: session routing, admission, backpressure.

use avoc_core::ModuleId;
use avoc_net::SpecSource;
use avoc_obs::HealthLevel;
use avoc_store::{list_session_wals, CompactionReport, TieredStore};
use avoc_vdx::VdxError;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{CountersSnapshot, ServiceCounters};
use crate::persist::{self, Persistence};
use crate::registry::SpecRegistry;
use crate::shard::{Frame, OpenReq, ShardState, Shards, TaggedReading};
use crate::sink::ResultSink;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shards: independent session maps, each behind its own lock. `0`
    /// means `std::thread::available_parallelism()`.
    pub shards: usize,
    /// Reactor (event-loop) threads in the TCP front-end's data plane,
    /// which decode frames and run the fusion they ask for. `0` (the
    /// default) means `min(available_parallelism, 4)`. Ignored by
    /// in-process callers that never start a [`crate::TcpServer`].
    pub reactors: usize,
    /// Maximum concurrently open sessions across all shards; opens past it
    /// are refused with an error frame.
    pub max_sessions: usize,
    /// Readings a session may go without (in per-shard ticks) before idle
    /// eviction reaps it.
    pub idle_ticks: u64,
    /// The lag tolerance handed to each session's hub, which assembles
    /// its rounds.
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

/// Readings a producer has accepted but not yet handed to their shards:
/// one buffer per shard, filled by [`VoterService::stage`] and shipped —
/// one hand-off per non-empty buffer — by [`VoterService::flush_staged`].
/// The TCP front-end keeps one per reactor and flushes it at the end of
/// every socket read, so a read's `SessionReading` frames take each shard's
/// lock once instead of once per frame.
pub(crate) struct Staging {
    shards: Vec<Staged>,
}

/// One shard's share of a [`Staging`] area.
#[derive(Default)]
struct Staged {
    readings: Vec<TaggedReading>,
    /// The ingest span of each trace-sampled reading staged here, open
    /// (`dur_ns` still 0) until the hand-off that ships it requests the
    /// shard's lock.
    ingest: Vec<avoc_obs::Span>,
}

impl Staging {
    /// Whether nothing is waiting for a flush.
    pub(crate) fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.readings.is_empty())
    }
}

/// The sharded, multi-tenant voter service (the daemon core; [`crate::TcpServer`]
/// is its socket front-end and benchmarks drive it in-process). Every call
/// runs its step on the caller's thread under the session's shard lock, so
/// its effects — sessions installed, rounds fused, verdicts handed to
/// their sinks — are complete when it returns. Only the TCP front-end's
/// reactors hand feeds to the service's helper threads.
pub struct VoterService {
    shards: Arc<Shards>,
    counters: Arc<ServiceCounters>,
    registry: Arc<SpecRegistry>,
    /// Resolved reactor-thread count for the TCP front-end (the
    /// `ServeConfig::reactors` knob with `0` already expanded).
    reactors: usize,
    persistence: Persistence,
    admin_addr: Option<String>,
    /// The state directory's segment tier (shared with the shards): the
    /// one test for "durable?". `None` when persistence is off or the tier
    /// failed to open; sessions are then memory-only.
    tiered: Option<Arc<TieredStore>>,
}

impl fmt::Debug for VoterService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VoterService")
            .field("shards", &self.shards.len())
            .field("active_sessions", &self.shards.active())
            .finish_non_exhaustive()
    }
}

impl VoterService {
    /// Builds the shards, starts the helper threads and returns the running
    /// service. There is one helper per core past the first, at most
    /// three, so that a few busy connections fuse on more than one core,
    /// and one more when every checkpoint waits for `fsync`, a wait that
    /// needs no core. On one CPU without `fsync` there is none, and every
    /// step runs on the thread that asks for it.
    pub fn start(config: ServeConfig, registry: Arc<SpecRegistry>) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shards = if config.shards == 0 {
            cores
        } else {
            config.shards
        };
        let reactors = if config.reactors == 0 {
            cores.min(4)
        } else {
            config.reactors
        };
        // Open the segment tier before the shards: steps pin sessions into
        // it at open/resume. A directory whose tier fails to open leaves
        // every session memory-only instead of refusing to start.
        let opened = (config.persistence.state_dir.as_deref())
            .map(|dir| TieredStore::open(dir).map(Arc::new));
        let tiered = opened.as_ref().and_then(|t| t.as_ref().ok()).cloned();
        let counters = Arc::new(ServiceCounters::with_observability(
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
        let waits_for_disk = config.persistence.fsync && tiered.is_some();
        let helpers = cores.min(4) - 1 + usize::from(waits_for_disk);
        VoterService {
            shards: Shards::start(
                shards,
                helpers,
                &config,
                Arc::clone(&counters),
                tiered.clone(),
            ),
            counters,
            registry,
            reactors,
            persistence: config.persistence,
            admin_addr: config.admin_addr,
            tiered,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of reactor (event-loop) threads the TCP front-end will run
    /// ([`ServeConfig::reactors`] with `0` resolved to
    /// `min(available_parallelism, 4)`).
    pub fn reactors(&self) -> usize {
        self.reactors
    }

    /// Number of helper threads running the feeds reactors hand off (see
    /// [`VoterService::start`]); 0 once the service has stopped.
    pub fn helpers(&self) -> usize {
        self.shards.helpers()
    }

    /// Sessions currently open.
    pub fn active_sessions(&self) -> usize {
        self.shards.active()
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
        (z ^ (z >> 31)) as usize % self.shards.len()
    }

    /// Opens a session: resolves the spec (named or inline), then installs
    /// it on the session's shard. Results and session-scoped errors flow to
    /// `sink` — a bare `Sender<Message>` or a reactor-backed
    /// [`ResultSink`].
    ///
    /// # Errors
    ///
    /// Spec resolution errors ([`ServeError::UnknownSpec`],
    /// [`ServeError::Vdx`]) and [`ServeError::ShuttingDown`]; admission
    /// failures arrive on `sink` as [`Message::Error`] frames, like every
    /// other answer to the tenant.
    pub fn open_session(
        &self,
        session: u64,
        modules: u32,
        spec: &SpecSource,
        sink: impl Into<ResultSink>,
    ) -> Result<(), ServeError> {
        let req = self.open_req(session, modules, spec, 0, false, sink.into())?;
        self.on_shard(session, |shards, st| {
            shards.admit(st, req, false);
        })
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
            spec: self.registry.resolve(spec)?,
            spec_source: spec.clone(),
            token,
            resumable,
            sink,
        })
    }

    /// Runs `step` under the lock of the shard `session` is pinned to.
    fn on_shard(
        &self,
        session: u64,
        step: impl FnOnce(&Shards, &mut ShardState),
    ) -> Result<(), ServeError> {
        self.shards.step(self.shard_for(session), step)
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
    /// Spec resolution errors and [`ServeError::ShuttingDown`]; everything
    /// else arrives on `sink`.
    pub fn resume_session(
        &self,
        session: u64,
        modules: u32,
        spec: &SpecSource,
        token: u64,
        last_acked: Option<u64>,
        sink: impl Into<ResultSink>,
    ) -> Result<(), ServeError> {
        let req = self.open_req(session, modules, spec, token, true, sink.into())?;
        self.on_shard(session, |shards, st| {
            shards.resume(st, req, last_acked, false);
        })
    }

    /// Releases a lingering session's hold on a dead connection's sink: the
    /// session stays alive for a future `ResumeSession`, but no longer
    /// emits where nobody reads. A no-op if the session has already
    /// re-attached to a different sink.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn detach_session(&self, session: u64, sink: &ResultSink) -> Result<(), ServeError> {
        self.on_shard(session, |shards, st| shards.detach(st, session, sink))
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
    /// Returns how many sessions it tried to recover. Until a client
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
            // Nothing to re-emit to the daemon's own sink; the client's
            // eventual resume replays against its real ack floor.
            let recovered = self.on_shard(id, |shards, st| {
                shards.resume(st, req, Some(u64::MAX), true);
            });
            if recovered.is_ok() {
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
        let sink = sink.into();
        self.on_shard(session, |shards, st| {
            shards.export(st, session, target_node, epoch, target_addr, &sink);
        })
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
        let req = self.open_req(
            session,
            parsed.modules,
            &parsed.spec,
            parsed.token,
            parsed.resumable,
            sink.into(),
        )?;
        // The file writes happen under the shard's lock, so they are
        // serialized with any live instance of the same session: an
        // idempotent re-drive must not truncate the WAL the live
        // SessionStore holds open.
        self.on_shard(session, |shards, st| shards.import(st, req, wal))
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

    /// Feeds a whole batch of readings to one session's shard as a single
    /// step: one lock and one hand-off however many readings the frame
    /// carried, with nothing allocated on the way. The shard feeds the
    /// batch in submission order, so the fused stream is bit-identical to
    /// per-reading feeding.
    ///
    /// The step runs on the calling thread, which fuses every round the
    /// batch completes before this returns. In-process callers therefore
    /// get parallelism from one feeding thread per shard: sessions on
    /// different shards fuse in parallel only when different threads feed
    /// them.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn feed_batch(
        &self,
        session: u64,
        readings: &[avoc_net::BatchReading],
    ) -> Result<(), ServeError> {
        self.feed_frame(session, readings.len(), |i| readings[i], false)
    }

    /// Feeds the `len` readings `get` yields as one frame of `session`'s:
    /// one sampling decision for the frame, and one step, which with `hand`
    /// (a reactor's frame, a slice or a batch still in its decoder) may go
    /// to a helper thread, to run after this returns.
    pub(crate) fn feed_frame(
        &self,
        session: u64,
        len: usize,
        get: impl Fn(usize) -> avoc_net::BatchReading,
        hand: bool,
    ) -> Result<(), ServeError> {
        if len == 0 {
            return Ok(());
        }
        let ingest = self
            .counters
            .trace
            .sample()
            .then(|| open_ingest_span(session, get(0).round));
        let frame = Frame {
            session,
            sampled: ingest.is_some(),
            len,
            get,
        };
        let shard = self.shard_for(session);
        self.shards.feed(shard, &frame, ingest.as_slice(), hand)
    }

    /// A reactor starts (`true`) or ends (`false`) handling a socket read;
    /// in between it counts against the cores helpers may use.
    pub(crate) fn reading(&self, started: bool) {
        self.shards.reading(started);
    }

    /// A fresh [`Staging`] area sized for this service's shards.
    pub(crate) fn staging(&self) -> Staging {
        Staging {
            shards: (0..self.shards.len()).map(|_| Staged::default()).collect(),
        }
    }

    /// Puts one reading frame aside for its shard; nothing is fed until
    /// [`VoterService::flush_staged`].
    pub(crate) fn stage(
        &self,
        staging: &mut Staging,
        session: u64,
        module: ModuleId,
        round: u64,
        value: f64,
    ) {
        let staged = &mut staging.shards[self.shard_for(session)];
        let sampled = self.counters.trace.sample();
        if sampled {
            staged.ingest.push(open_ingest_span(session, round));
        }
        staged.readings.push(TaggedReading {
            session,
            round,
            value,
            module,
            sampled,
        });
    }

    /// Feeds everything staged: one step per shard that has readings
    /// waiting. With `hand` (the end of a read) each step may be handed to
    /// a helper thread; without, all have run when this returns.
    ///
    /// # Errors
    ///
    /// After [`VoterService::drain`]: [`ServeError::ShuttingDown`], with
    /// the session of a reading that could no longer be delivered.
    /// Whatever the outcome, nothing stays staged.
    pub(crate) fn flush_staged(
        &self,
        staging: &mut Staging,
        hand: bool,
    ) -> Result<(), (u64, ServeError)> {
        let mut outcome = Ok(());
        for (shard, staged) in staging.shards.iter_mut().enumerate() {
            let Some(first) = staged.readings.first() else {
                continue;
            };
            let session = first.session;
            let fed = self
                .shards
                .feed(shard, &staged.readings[..], &staged.ingest, hand);
            if let Err(e) = fed {
                outcome = Err((session, e));
            }
            staged.readings.clear();
            staged.ingest.clear();
        }
        outcome
    }

    /// Closes a session, flushing partially assembled rounds to its sink.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] after [`VoterService::drain`].
    pub fn close_session(&self, session: u64) -> Result<(), ServeError> {
        self.on_shard(session, |shards, st| shards.close(st, session))
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
    /// to its sink, and the final counters are returned. Subsequent
    /// `open`/`feed`/`close` calls fail with [`ServeError::ShuttingDown`].
    pub fn drain(&self) -> CountersSnapshot {
        self.shards.stop(true);
        self.counters.snapshot()
    }

    /// Hard kill — the crash-simulation counterpart of
    /// [`VoterService::drain`]: shards drop their sessions *without*
    /// flushing in-flight rounds or writing final checkpoints, so durable
    /// state is left exactly as the last completed checkpoint wrote it.
    /// Integration tests restart daemons through this to prove recovery.
    pub fn kill(&self) -> CountersSnapshot {
        self.shards.stop(false);
        self.counters.snapshot()
    }
}

/// The ingest span of a trace-sampled frame, opened now; the hand-off that
/// feeds the frame closes it when it requests the shard's lock.
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
        // A no-op after drain() or kill(): a stopped shard stays as it is.
        self.shards.stop(true);
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
        // Fuse one round and take its result, proving shard A has
        // installed the session (and claimed the only slot) before B's
        // open asks for one on the other shard.
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
    fn a_flush_feeds_each_shard_once_in_arrival_order() {
        let service = VoterService::start(config(2), registry());
        let spec = SpecSource::Named("avoc".into());
        let (sink, results) = channel::unbounded();
        for session in 0..3u64 {
            service
                .open_session(session, 4, &spec, sink.clone())
                .unwrap();
        }
        let mut staging = service.staging();
        // Three sessions, interleaved reading by reading, as one socket
        // read of a multi-tenant connection would decode them: each
        // session's round 0 completes on its fourth module.
        for module in 0..4u32 {
            for session in 0..3u64 {
                service.stage(&mut staging, session, ModuleId::new(module), 0, 1.0);
            }
        }
        assert_eq!(service.counters().rounds_fused, 0, "staged is not fed");
        service.flush_staged(&mut staging, true).unwrap();
        assert!(staging.is_empty());
        // A flush is a reactor's: its steps may run on helper threads.
        let mut fused: Vec<u64> = (0..3)
            .map(|_| match results.recv_timeout(Duration::from_secs(10)) {
                Ok(Message::SessionResult {
                    session, round: 0, ..
                }) => session,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        fused.sort_unstable();
        assert_eq!(fused, [0, 1, 2], "each round fused once");
        let shards_hit: std::collections::BTreeSet<usize> =
            (0..3u64).map(|s| service.shard_for(s)).collect();
        assert_eq!(
            service.counters().shard_handoff_sends,
            shards_hit.len() as u64
        );
        // A second flush with nothing staged feeds nothing.
        service.flush_staged(&mut staging, true).unwrap();
        assert_eq!(
            service.counters().shard_handoff_sends,
            shards_hit.len() as u64
        );
        // A `FeedBatch` frame is one hand-off, however many readings it holds.
        let frame: Vec<avoc_net::BatchReading> = (0..512u64)
            .map(|i| avoc_net::BatchReading {
                module: ModuleId::new((i % 4) as u32),
                round: 1 + i / 4,
                value: 1.0,
            })
            .collect();
        service.feed_batch(0, &frame).unwrap();
        let snap = service.counters();
        assert_eq!(snap.shard_handoff_sends, shards_hit.len() as u64 + 1);
        assert_eq!(snap.rounds_fused, 3 + 128);
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
