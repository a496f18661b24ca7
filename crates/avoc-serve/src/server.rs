//! TCP front-end: control frames in, session results out.
//!
//! Served by the `avoc-net` reactor pool: R event-loop threads
//! ([`crate::ServeConfig::reactors`], default `min(cores, 4)`) share the
//! accept load — via per-reactor `SO_REUSEPORT` listeners where the
//! kernel supports them, or a round-robin accept handoff from reactor 0
//! otherwise — and each connection is pinned to one reactor for life, so
//! the daemon's data-plane thread count is `shards + R` regardless of how
//! many connections are open. Inbound bytes stream through the re-entrant
//! [`avoc_net::StreamDecoder`]; the `SessionReading` frames one socket read
//! completes are staged per shard and cross to the shards as one mailbox
//! command each when that read has been decoded. Outbound results ride each
//! connection's bounded channel, which the owning reactor drains into a
//! corked writer when the shard-side [`ResultSink`] wakes it.

use avoc_net::reactor::{self, ConnWaker, FrameVerdict, Handler, ReactorConfig, ReactorPool};
use avoc_net::Message;
use avoc_obs::http;
use crossbeam::channel::{self, Receiver};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use crate::admin;
use crate::metrics::{CountersSnapshot, ServiceCounters};
use crate::service::{ServeError, Staging, VoterService};
use crate::sink::ResultSink;

/// Capacity of each connection's outbound result channel. Bounded so a
/// tenant reading results slowly cannot grow daemon memory; shards never
/// block on it — once it fills, the tenant's overflow is dropped and
/// counted (`results_dropped`), so its slowness stays its own problem.
const OUT_CHANNEL_CAPACITY: usize = 256;

/// The daemon's socket front-end: accepts tenant connections and speaks the
/// session control frames (tags 5–9, plus the tag-11 resume handshake) of
/// [`avoc_net::message`] over the length-prefixed codec.
///
/// Each connection may multiplex any number of sessions; results and
/// session-scoped errors are written back on the connection that opened the
/// session. Sessions a connection opened with the legacy `OpenSession` are
/// closed (flushing in-flight rounds) when it disconnects; sessions it
/// attached via `ResumeSession` *linger* so the client can reconnect and
/// re-attach — the idle sweep reaps them if it never does.
#[derive(Debug)]
pub struct TcpServer {
    local_addr: SocketAddr,
    service: Arc<VoterService>,
    pool: ReactorPool,
    /// The observability endpoint, when the service was configured with an
    /// admin address.
    admin: Option<http::Server>,
}

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting tenants
    /// against `service`, spawning [`VoterService::reactors`] event-loop
    /// threads over the address.
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn start(addr: &str, service: Arc<VoterService>) -> io::Result<TcpServer> {
        // The observability plane rides along when configured: a bind
        // failure there fails the whole start rather than silently serving
        // without metrics.
        let admin = match service.admin_addr_config() {
            Some(admin_addr) => {
                let service = Arc::clone(&service);
                Some(http::Server::start(
                    admin_addr,
                    "avoc-serve-admin",
                    move |req| admin::route(req, &service),
                )?)
            }
            None => None,
        };
        let counters = service.counters_arc();
        let pool = reactor::spawn_pool(
            addr,
            service.reactors(),
            |_| ServeHandler {
                // Apart from its own staging area, handler state is all
                // shared Arcs: each reactor's handler is a cheap clone of
                // the same service view.
                service: Arc::clone(&service),
                counters: Arc::clone(&counters),
                staged: service.staging(),
            },
            |i| ReactorConfig {
                write_deadline: Some(service.write_deadline_config()),
                // Per-reactor metric cells ({reactor="i"}); the snapshot
                // sums them back into data-plane totals.
                metrics: Some(counters.reactors[i].clone()),
                cork_metrics: Some(counters.wire.clone()),
                health: Some(counters.health.clone()),
                ..ReactorConfig::default()
            },
        )?;
        Ok(TcpServer {
            local_addr: pool.local_addr(),
            service,
            pool,
            admin,
        })
    }

    /// The address tenants should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admin endpoint's bound address, when one was configured via
    /// [`crate::ServeConfig::admin_addr`].
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(http::Server::local_addr)
    }

    /// How the pool distributes accepted connections: `"reuseport"`
    /// (per-reactor listeners), `"handoff"` (reactor 0 round-robins
    /// accepted sockets to its peers), or `"single"` (one reactor).
    pub fn accept_mode(&self) -> &'static str {
        self.pool.accept_mode()
    }

    /// Event-loop threads in the pool.
    pub fn reactor_count(&self) -> usize {
        self.pool.reactor_count()
    }

    /// The service this front-end drives (for live [`VoterService::counters`]
    /// snapshots while serving).
    pub fn service(&self) -> &VoterService {
        &self.service
    }

    /// Graceful shutdown: stops the reactor (closing every connection
    /// after a best-effort flush of its queued results), drains every
    /// session (flushing in-flight rounds to whichever sinks still listen)
    /// and returns the final counters.
    pub fn shutdown(self) -> CountersSnapshot {
        self.pool.shutdown();
        if let Some(admin) = self.admin {
            admin.stop();
        }
        self.service.drain()
    }

    /// Hard kill — the crash-simulation counterpart of
    /// [`TcpServer::shutdown`]: stops the reactor and aborts the service
    /// ([`VoterService::kill`]) without flushing sessions, leaving durable
    /// state at the last completed checkpoint.
    pub fn abort(self) -> CountersSnapshot {
        self.pool.shutdown();
        if let Some(admin) = self.admin {
            admin.stop();
        }
        self.service.kill()
    }
}

/// The protocol half of the daemon's reactor: frame dispatch against the
/// [`VoterService`], with per-connection session bookkeeping.
struct ServeHandler {
    service: Arc<VoterService>,
    counters: Arc<ServiceCounters>,
    /// `SessionReading` frames of the socket read being decoded, waiting
    /// to cross to their shards in one command each. It belongs to the
    /// handler, not to a connection: a reactor finishes one connection's
    /// read — and [`Handler::on_read_end`] empties this — before it
    /// touches the next. It is also emptied before any other frame is
    /// acted on, so a session's readings still reach its shard ahead of
    /// its `Close`, `Detach` or `Export`, in arrival order.
    staged: Staging,
}

/// What the handler tracks per connection.
struct ConnState {
    /// The connection's result channel, bundled with its reactor waker —
    /// the sink every session this connection opens emits through.
    sink: ResultSink,
    /// Sessions opened with the legacy `OpenSession`: closed (flushing
    /// in-flight rounds) when the connection goes away.
    opened: Vec<u64>,
    /// Sessions attached via `ResumeSession`: detached (left lingering for
    /// a re-attach) when the connection goes away.
    resumed: Vec<u64>,
}

impl ServeHandler {
    /// Tells the tenant about a service error, without ever blocking the
    /// reactor on the tenant's own result channel: a full channel sheds
    /// the notice (counted), exactly like shard-side emissions.
    fn send_error(&self, sink: &ResultSink, session: u64, e: &ServeError) {
        let message = e.to_string();
        self.counters
            .emit(sink, Message::Error { session, message });
    }

    /// Hands the staged readings to their shards. Only a drained service
    /// fails this; the tenant is told and the connection closed, as for
    /// any frame that arrives after shutdown.
    fn flush_staged(&mut self, conn: &ConnState) -> FrameVerdict {
        match self.service.flush_staged(&mut self.staged) {
            Ok(()) => FrameVerdict::Continue,
            Err((session, e)) => {
                self.send_error(&conn.sink, session, &e);
                FrameVerdict::Close
            }
        }
    }
}

impl Handler for ServeHandler {
    type Conn = ConnState;

    fn on_open(&mut self, waker: ConnWaker) -> (ConnState, Receiver<Message>) {
        let (out_tx, out_rx) = channel::bounded::<Message>(OUT_CHANNEL_CAPACITY);
        let conn = ConnState {
            sink: ResultSink::with_waker(out_tx, waker),
            opened: Vec::new(),
            resumed: Vec::new(),
        };
        (conn, out_rx)
    }

    fn on_frame(&mut self, conn: &mut ConnState, msg: Message) -> FrameVerdict {
        if !matches!(msg, Message::SessionReading { .. })
            && self.flush_staged(conn) == FrameVerdict::Close
        {
            return FrameVerdict::Close;
        }
        match msg {
            Message::OpenSession {
                session,
                modules,
                spec,
            } => match self
                .service
                .open_session(session, modules, &spec, conn.sink.clone())
            {
                Ok(()) => conn.opened.push(session),
                Err(e) => self.send_error(&conn.sink, session, &e),
            },
            Message::ResumeSession {
                session,
                modules,
                spec,
                token,
                last_acked,
            } => {
                // Deliberately NOT added to `opened`: a resumed session
                // lingers across disconnects so its client can come back
                // and re-attach (the idle sweep reaps abandoned ones).
                // It is only *detached* from this connection at teardown.
                match self.service.resume_session(
                    session,
                    modules,
                    &spec,
                    token,
                    last_acked,
                    conn.sink.clone(),
                ) {
                    Ok(()) => {
                        if !conn.resumed.contains(&session) {
                            conn.resumed.push(session);
                        }
                    }
                    Err(e) => self.send_error(&conn.sink, session, &e),
                }
            }
            Message::SessionReading {
                session,
                module,
                round,
                value,
            } => self
                .service
                .stage(&mut self.staged, session, module, round, value),
            Message::FeedBatch { session, readings } => {
                match self.service.feed_batch(session, &readings) {
                    Ok(()) | Err(ServeError::MailboxFull) => {
                        // `Reject` drops are counted per reading by the
                        // service; the tenant learns about systematic
                        // loss from the counters, not per-frame errors.
                    }
                    Err(e) => {
                        self.send_error(&conn.sink, session, &e);
                        return FrameVerdict::Close;
                    }
                }
            }
            Message::CloseSession { session } => {
                conn.opened.retain(|&s| s != session);
                conn.resumed.retain(|&s| s != session);
                if self.service.close_session(session).is_err() {
                    return FrameVerdict::Close;
                }
            }
            Message::Shutdown => return FrameVerdict::Close,
            // Inter-node verbs, spoken by the gateway (or an operator tool)
            // over an ordinary tenant connection, gated by the cluster
            // credential: an export ships the session's resume token, and a
            // forged import would overwrite durable state, so a frame whose
            // `auth` does not match this daemon's configured secret (or any
            // such frame at a secretless daemon) is refused and the
            // connection closed. Export quiesces the session and answers
            // with its `SessionState` blobs; an inbound `SessionState` *is*
            // an import, acked by the shard's `Resumed { warm: true }`.
            Message::ExportSession {
                session,
                target_node,
                epoch,
                auth,
                target_addr,
            } => {
                if let Err(e) = self.service.check_cluster_auth(auth) {
                    self.send_error(&conn.sink, session, &e);
                    return FrameVerdict::Close;
                }
                if let Err(e) = self.service.export_session(
                    session,
                    target_node,
                    epoch,
                    &target_addr,
                    conn.sink.clone(),
                ) {
                    self.send_error(&conn.sink, session, &e);
                }
            }
            Message::SessionState {
                session,
                epoch: _,
                auth,
                meta,
                wal,
            } => {
                if let Err(e) = self.service.check_cluster_auth(auth) {
                    self.send_error(&conn.sink, session, &e);
                    return FrameVerdict::Close;
                }
                match self
                    .service
                    .import_session(session, &meta, &wal, conn.sink.clone())
                {
                    Ok(()) => {
                        // The import resumes the session eagerly on the
                        // gateway's connection; detach it at teardown like
                        // any client-resumed session.
                        if !conn.resumed.contains(&session) {
                            conn.resumed.push(session);
                        }
                    }
                    Err(e) => self.send_error(&conn.sink, session, &e),
                }
            }
            // Legacy single-tenant frames and server-to-client frames
            // carry no session routing; a daemon connection ignores them.
            Message::Reading { .. }
            | Message::Missing { .. }
            | Message::Heartbeat { .. }
            | Message::SessionResult { .. }
            | Message::ResultBatch { .. }
            | Message::Resumed { .. }
            | Message::Redirect { .. }
            | Message::Error { .. } => {}
        }
        FrameVerdict::Continue
    }

    fn on_read_end(&mut self, conn: &mut ConnState) -> FrameVerdict {
        self.flush_staged(conn)
    }

    fn on_close(&mut self, conn: ConnState) {
        debug_assert!(
            self.staged.is_empty(),
            "every read ends in on_read_end before its connection can close"
        );
        // Close sessions the tenant left open so their in-flight rounds
        // flush and the shards drop their sink clones.
        for session in conn.opened {
            let _ = self.service.close_session(session);
        }
        // Resumed sessions linger for a re-attach instead — but they must
        // stop holding this connection's result channel, or the reactor's
        // slot (and the channel's memory) would stay pinned for as long as
        // the session lives.
        for session in conn.resumed {
            let _ = self.service.detach_session(session, &conn.sink);
        }
        // `conn.sink` drops here; when the shards release their clones the
        // channel disconnects and the reactor frees the connection slot.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, SpecRegistry};
    use avoc_core::ModuleId;
    use avoc_net::{BatchReading, SpecSource};

    /// A handler over a one-shard service whose worker has stopped: what
    /// the handler hands off stays in the mailbox to be counted.
    fn handler() -> (ServeHandler, ConnState, Receiver<Message>) {
        let mut reg = SpecRegistry::new();
        reg.insert("avoc", avoc_vdx::VdxSpec::avoc());
        let service = Arc::new(VoterService::start(
            ServeConfig {
                shards: 1,
                ..ServeConfig::default()
            },
            Arc::new(reg),
        ));
        service.stop_workers();
        let (out_tx, out_rx) = channel::unbounded::<Message>();
        let conn = ConnState {
            sink: out_tx.into(),
            opened: Vec::new(),
            resumed: Vec::new(),
        };
        let handler = ServeHandler {
            counters: service.counters_arc(),
            staged: service.staging(),
            service,
        };
        (handler, conn, out_rx)
    }

    fn reading(round: u64) -> Message {
        Message::SessionReading {
            session: 1,
            module: ModuleId::new(0),
            round,
            value: 1.0,
        }
    }

    #[test]
    fn readings_cross_at_the_end_of_their_read_or_ahead_of_any_other_frame() {
        let (mut h, mut conn, _out) = handler();
        // A read of readings only: nothing crosses until the read ends,
        // then everything does, in one command.
        for round in 0..5 {
            assert_eq!(
                h.on_frame(&mut conn, reading(round)),
                FrameVerdict::Continue
            );
        }
        assert_eq!(h.service.queued_commands(0), 0);
        assert_eq!(h.on_read_end(&mut conn), FrameVerdict::Continue);
        assert_eq!(h.service.queued_commands(0), 1);
        // A read that decoded no reading sends nothing.
        assert_eq!(h.on_read_end(&mut conn), FrameVerdict::Continue);
        assert_eq!(h.service.queued_commands(0), 1);

        // Every other kind of frame first pushes out what is staged, so a
        // session's readings stay ahead of whatever the frame does to it.
        let spec = SpecSource::Named("avoc".into());
        let others = [
            Message::OpenSession {
                session: 2,
                modules: 1,
                spec: spec.clone(),
            },
            Message::ResumeSession {
                session: 3,
                modules: 1,
                spec,
                token: 9,
                last_acked: None,
            },
            Message::FeedBatch {
                session: 1,
                readings: vec![BatchReading {
                    module: ModuleId::new(0),
                    round: 9,
                    value: 1.0,
                }],
            },
            Message::CloseSession { session: 1 },
            Message::ExportSession {
                session: 1,
                target_node: 2,
                epoch: 1,
                auth: 0,
                target_addr: "127.0.0.1:1".into(),
            },
            Message::Shutdown,
        ];
        for frame in others {
            let before = h.service.queued_commands(0);
            // A `FeedBatch` then crosses as a command of its own.
            let own = usize::from(matches!(frame, Message::FeedBatch { .. }));
            h.on_frame(&mut conn, reading(10));
            assert_eq!(h.service.queued_commands(0), before);
            let label = format!("{frame:?}");
            h.on_frame(&mut conn, frame);
            assert_eq!(h.service.queued_commands(0), before + 1 + own, "{label}");
            assert!(h.staged.is_empty(), "{label}");
        }
    }

    #[test]
    fn a_deferred_send_into_a_drained_service_closes_with_an_error_frame() {
        let (mut h, mut conn, out) = handler();
        h.service.drain();
        assert_eq!(h.on_frame(&mut conn, reading(0)), FrameVerdict::Continue);
        assert_eq!(h.on_read_end(&mut conn), FrameVerdict::Close);
        assert!(h.staged.is_empty());
        assert!(matches!(
            out.try_recv(),
            Ok(Message::Error { session: 1, .. })
        ));
    }
}
