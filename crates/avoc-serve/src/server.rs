//! TCP front-end: control frames in, session results out.
//!
//! Served by the `avoc-net` reactor pool: R event-loop threads
//! ([`crate::ServeConfig::reactors`], default one per core) share the
//! accept load — one `SO_REUSEPORT` listener per reactor, the kernel
//! spreading handshakes across them — and each connection is pinned to
//! one reactor for life, so the daemon's data-plane thread count is R
//! regardless of how many connections are open. Inbound bytes stream
//! through the re-entrant [`avoc_net::StreamDecoder`]; the
//! `SessionReading` frames one socket read completes are staged per shard
//! and fused on the reactor, one shard step each, when that read has been
//! decoded (or handed to one of the service's helper threads). Verdicts are encoded straight into the [`avoc_net::Outbox`] of
//! the connection that opened the session, and the owning reactor flushes
//! it before the next read.

use avoc_net::reactor::{self, FrameVerdict, Handler, ReactorConfig, ReactorPool};
use avoc_net::{Message, Outbox};
use avoc_obs::http;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use crate::admin;
use crate::metrics::{CountersSnapshot, ServiceCounters};
use crate::service::{ServeError, Staging, VoterService};
use crate::sink::ResultSink;

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
    /// Propagates bind errors: a port another socket holds is refused,
    /// and a reuseport group that cannot be bound fails the start.
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
                in_read: false,
            },
            |i| ReactorConfig {
                // Per-reactor metric cells ({reactor="i"}); the snapshot
                // sums them back into data-plane totals.
                metrics: Some(counters.reactors[i].clone()),
                cork_metrics: Some(counters.wire.clone()),
                health: Some(counters.health.clone()),
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
    /// after a best-effort flush of its outbox), drains every
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
    /// to be fed to their shards in one step each. It belongs to the
    /// handler, not to a connection: a reactor finishes one connection's
    /// read — and [`Handler::on_read_end`] empties this — before it
    /// touches the next. It is also emptied before any other frame is
    /// acted on, so a session's readings still reach its shard ahead of
    /// its `Close`, `Detach` or `Export`, in arrival order.
    staged: Staging,
    /// Whether the reactor is inside a read: it counts as busy for the
    /// service's hand-off budget until the read's end.
    in_read: bool,
}

/// What the handler tracks per connection.
struct ConnState {
    /// The connection's outbox — the sink every session this connection
    /// opens emits through.
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
    /// reactor on the tenant: a full outbox sheds the notice (counted),
    /// exactly like a session's emissions.
    fn send_error(&self, sink: &ResultSink, session: u64, e: &ServeError) {
        let message = e.to_string();
        self.counters
            .emit(sink, Message::Error { session, message });
    }

    /// Feeds the staged readings to their shards: at the end of a read
    /// (`hand`) possibly on helper threads, ahead of another frame on this
    /// one, so that whatever the frame does — a reply the handler sends
    /// itself included — follows their verdicts. Only a drained service
    /// fails this; the tenant is told and the connection closed, as for
    /// any frame that arrives after shutdown.
    fn flush_staged(&mut self, conn: &ConnState, hand: bool) -> FrameVerdict {
        match self.service.flush_staged(&mut self.staged, hand) {
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

    fn on_open(&mut self, outbox: Arc<Outbox>) -> ConnState {
        ConnState {
            sink: outbox.into(),
            opened: Vec::new(),
            resumed: Vec::new(),
        }
    }

    fn on_frame(&mut self, conn: &mut ConnState, msg: Message) -> FrameVerdict {
        if !std::mem::replace(&mut self.in_read, true) {
            self.service.reading(true);
        }
        if !matches!(msg, Message::SessionReading { .. })
            && self.flush_staged(conn, false) == FrameVerdict::Close
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
                if let Err(e) = self.service.feed_frame(session, &readings, true) {
                    self.send_error(&conn.sink, session, &e);
                    return FrameVerdict::Close;
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
        let verdict = self.flush_staged(conn, true);
        if std::mem::take(&mut self.in_read) {
            self.service.reading(false);
        }
        verdict
    }

    fn on_close(&mut self, conn: ConnState) {
        debug_assert!(
            self.staged.is_empty(),
            "every read ends in on_read_end before its connection can close"
        );
        // Close sessions the tenant left open so their in-flight rounds
        // flush and the shards drop their sinks.
        for session in conn.opened {
            let _ = self.service.close_session(session);
        }
        // Resumed sessions linger for a re-attach instead — but they must
        // stop emitting into this connection's outbox, which nobody will
        // read again.
        for session in conn.resumed {
            let _ = self.service.detach_session(session, &conn.sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeConfig, SpecRegistry};
    use avoc_core::ModuleId;
    use avoc_net::{BatchReading, SpecSource};
    use crossbeam::channel::{self, Receiver};

    /// A handler over a one-shard service, its connection emitting to an
    /// in-process channel, and a one-module session 1 opened on that
    /// channel too, so every reading that reaches the shard fuses a verdict
    /// there.
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
        let (out_tx, out_rx) = channel::unbounded::<Message>();
        let conn = ConnState {
            sink: out_tx.into(),
            opened: Vec::new(),
            resumed: Vec::new(),
        };
        let spec = SpecSource::Named("avoc".into());
        service
            .open_session(1, 1, &spec, conn.sink.clone())
            .expect("open");
        let handler = ServeHandler {
            counters: service.counters_arc(),
            staged: service.staging(),
            in_read: false,
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

    /// One word per frame the connection's sink received: the rounds a
    /// verdict frame carries, or the frame's kind.
    fn word(m: Message) -> String {
        match m {
            Message::SessionResult { round, .. } => format!("fused {round}"),
            Message::ResultBatch { results, .. } => {
                let rounds: Vec<u64> = results.iter().map(|r| r.round).collect();
                format!("fused {rounds:?}")
            }
            Message::Resumed { session, .. } => format!("resumed {session}"),
            Message::Error { session, .. } => format!("error {session}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// What the connection's sink has received since last asked.
    fn received(out: &Receiver<Message>) -> Vec<String> {
        out.try_iter().map(word).collect()
    }

    /// The next `n` frames the connection's sink receives: a reactor's
    /// feed may run on a helper thread, after the handler returned.
    fn next(out: &Receiver<Message>, n: usize) -> Vec<String> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        (0..n)
            .map_while(|_| {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                out.recv_timeout(left).ok()
            })
            .map(word)
            .collect()
    }

    /// Waits until `done` holds for the service's counters.
    fn settle(service: &VoterService, done: impl Fn(&crate::CountersSnapshot) -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done(&service.counters()) {
            assert!(std::time::Instant::now() < deadline, "the feed never ran");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn readings_are_fed_at_the_end_of_their_read_or_ahead_of_any_other_frame() {
        let (mut h, mut conn, out) = handler();
        // A read of readings only: nothing is fed until the read ends, then
        // everything is, in one step.
        for round in 0..5 {
            assert_eq!(
                h.on_frame(&mut conn, reading(round)),
                FrameVerdict::Continue
            );
        }
        assert!(received(&out).is_empty());
        assert_eq!(h.on_read_end(&mut conn), FrameVerdict::Continue);
        assert_eq!(next(&out, 1), ["fused [0, 1, 2, 3, 4]"]);
        assert_eq!(h.service.counters().shard_handoff_sends, 1);
        // A read that decoded no reading feeds nothing.
        assert_eq!(h.on_read_end(&mut conn), FrameVerdict::Continue);
        assert!(received(&out).is_empty());
        assert_eq!(h.service.counters().shard_handoff_sends, 1);

        // Every other kind of frame first feeds what is staged, so a
        // session's readings take effect just ahead of whatever the frame
        // does. The export (no cluster secret here) is refused, and the
        // shutdown does nothing but close.
        let spec = SpecSource::Named("avoc".into());
        let others = [
            (
                Message::OpenSession {
                    session: 2,
                    modules: 1,
                    spec: spec.clone(),
                },
                None,
            ),
            (
                Message::ResumeSession {
                    session: 3,
                    modules: 1,
                    spec,
                    token: 9,
                    last_acked: None,
                },
                Some("resumed 3"),
            ),
            (
                Message::FeedBatch {
                    session: 1,
                    readings: vec![BatchReading {
                        module: ModuleId::new(0),
                        round: 31,
                        value: 1.0,
                    }],
                },
                Some("fused 31"),
            ),
            (
                Message::ExportSession {
                    session: 1,
                    target_node: 2,
                    epoch: 1,
                    auth: 0,
                    target_addr: "127.0.0.1:1".into(),
                },
                Some("error 1"),
            ),
            (Message::Shutdown, None),
        ];
        for (round, (frame, own)) in (10..).step_by(10).zip(others) {
            h.on_frame(&mut conn, reading(round));
            assert!(received(&out).is_empty());
            let label = format!("{frame:?}");
            h.on_frame(&mut conn, frame);
            let fused = format!("fused {round}");
            let want: Vec<&str> = std::iter::once(fused.as_str()).chain(own).collect();
            assert_eq!(next(&out, want.len()), want, "{label}");
            assert!(h.staged.is_empty(), "{label}");
        }
        // A close behind staged readings: the readings fuse, then the
        // session goes, so a later reading for it is a drop.
        h.on_frame(&mut conn, reading(60));
        h.on_frame(&mut conn, Message::CloseSession { session: 1 });
        assert_eq!(received(&out), ["fused 60"]);
        h.on_frame(&mut conn, reading(61));
        h.on_read_end(&mut conn);
        settle(&h.service, |c| c.readings_dropped == 1);
    }

    #[test]
    fn a_deferred_feed_into_a_drained_service_closes_with_an_error_frame() {
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
