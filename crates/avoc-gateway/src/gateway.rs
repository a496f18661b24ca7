//! The gateway proper: redirect-answering front door, health prober,
//! checkpoint-shipping migration driver, and cluster admin surface.
//!
//! The gateway never proxies data-plane traffic. A client dials it, sends
//! its `OpenSession`/`ResumeSession`, and gets a [`Message::Redirect`]
//! naming the owning daemon; from then on the client talks to the daemon
//! directly. That keeps the gateway off the hot path — it holds no fusion
//! state, so losing it costs redirect answering and migration driving,
//! never a fused round.
//!
//! Placement is the [`HashRing`] over healthy members, shadowed by a
//! **pinned override map** that migrations write: once a session has been
//! checkpoint-shipped to a node, that node owns it regardless of what the
//! ring says, until the node degrades or a later migration moves it again.
//! Every placement change bumps a monotonically increasing **ownership
//! epoch** that rides in each `Redirect`, so a client can discard a stale
//! redirect that raced a newer placement.
//!
//! Migration is a two-hop shipping relay driven from here (see
//! [`Gateway::migrate_session`]): `ExportSession` to the source, which
//! quiesces the session at a round boundary, rewrites its log with a head
//! naming the target, and answers with a [`Message::SessionState`] carrying
//! that log; the gateway re-frames it into its own `SessionState` to the
//! target, which restores warm and acknowledges with `Resumed { warm: true
//! }`. Only then does the gateway flip its pinned placement — a crash
//! anywhere earlier leaves ownership where the session logs' heads say it
//! is, and re-driving the migration is idempotent.
//!
//! Both cluster verbs carry the shared **cluster secret**
//! ([`GatewayConfig::cluster_secret`]): exports ship a session's resume
//! token, so daemons refuse an `ExportSession`/`SessionState` whose `auth`
//! field does not match their configured inter-node secret.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use avoc_net::reactor::{self, FrameVerdict, Handler, ReactorConfig, ReactorPool};
use avoc_net::{Message, Outbox};
use avoc_obs::http;
use avoc_obs::{rollup, Registry};
use avoc_serve::{ClientConfig, ServeClient};
use parking_lot::Mutex;

use crate::ring::HashRing;

/// Virtual nodes each member contributes to the hash ring.
const VNODES: usize = 64;

/// Migration RPC deadlines: a source that cannot quiesce and ship within
/// this is treated as failed (the drive is idempotent — retry later).
const MIGRATION_CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const MIGRATION_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One daemon in the cluster.
#[derive(Debug, Clone)]
pub struct Member {
    /// Cluster node id — must match the daemon's
    /// [`avoc_serve::Persistence::node_id`], which is what the heads of its
    /// session logs are stamped with.
    pub node: u64,
    /// Data-plane `host:port` clients are redirected to.
    pub addr: String,
    /// Admin `host:port` the gateway health-probes (`/healthz`) and
    /// scrapes (`/metrics`) for the roll-up. `None` disables probing for
    /// this member: it is assumed healthy and contributes nothing to the
    /// roll-up.
    pub admin: Option<String>,
}

/// Gateway tuning.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The cluster membership. Placement is deterministic in the member
    /// node ids: any gateway configured with the same set computes the
    /// same ring.
    pub members: Vec<Member>,
    /// Health-probe cadence (default 500 ms). Probing only runs when at
    /// least one member has an admin address.
    pub health_interval: Duration,
    /// Bind the cluster admin endpoint (`/healthz`, `/members`,
    /// `/metrics` roll-up) here; `None` (default) disables it.
    pub admin_addr: Option<String>,
    /// Shared inter-node secret stamped into the cluster verbs
    /// (`ExportSession` / `SessionState`) this gateway drives. Must match
    /// every member's [`avoc_serve::Persistence::cluster_secret`]; a
    /// member with no secret configured refuses migration entirely.
    /// `None` (the default) sends `0`, which no secret-configured daemon
    /// accepts — set it for any cluster that migrates sessions.
    pub cluster_secret: Option<u64>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            members: Vec::new(),
            health_interval: Duration::from_millis(500),
            admin_addr: None,
            cluster_secret: None,
        }
    }
}

/// Where one session currently lives, from the gateway's point of view.
#[derive(Debug, Clone, Copy)]
struct Placement {
    node: u64,
    /// `true` when a migration installed this placement: it overrides the
    /// ring until the node degrades or a later migration moves it.
    pinned: bool,
}

avoc_obs::facts! {
    /// One member's cells, labelled `{node="N"}`.
    struct NodeFacts {
        /// Sessions this gateway currently places on the node.
        sessions_placed: Gauge = "avoc_gateway_sessions_placed",
    }
}

avoc_obs::facts! {
    /// The gateway's own facts.
    struct GatewayFacts {
        ..NodeFacts,
        /// Open/resume frames answered with a Redirect (counted once the
        /// answer is in the connection's outbound bytes).
        redirects_answered: Counter = "avoc_gateway_redirects_answered_total",
        /// Open/resume frames refused because no healthy node could take the
        /// session.
        redirect_errors: Counter = "avoc_gateway_redirect_errors_total",
        /// Sessions checkpoint-shipped between nodes by this gateway.
        migrations: Counter = "avoc_gateway_migrations_total",
        /// Migration drives that failed (source refused, target cold, I/O).
        migration_failures: Counter = "avoc_gateway_migration_failures_total",
        /// Member /healthz probes that failed or answered non-200.
        health_probe_failures: Counter = "avoc_gateway_health_probe_failures_total",
        /// Member /metrics scrapes that failed during a roll-up.
        rollup_scrape_failures: Counter = "avoc_gateway_rollup_scrape_failures_total",
        /// Members currently considered unhealthy or draining.
        nodes_unhealthy: Gauge = "avoc_gateway_nodes_unhealthy",
    }
}

/// The gateway's metric cells.
#[derive(Debug)]
struct GatewayMetrics {
    registry: Registry,
    facts: GatewayFacts,
    /// How many distinct sessions this gateway currently places on each
    /// member.
    placement: HashMap<u64, NodeFacts>,
}

impl GatewayMetrics {
    fn new(members: &[Member]) -> GatewayMetrics {
        let registry = Registry::new();
        let facts = GatewayFacts::register(&registry, &[]);
        let placement = members
            .iter()
            .map(|m| {
                let cells = NodeFacts::register(&registry, &[("node", &m.node.to_string())]);
                (m.node, cells)
            })
            .collect();
        GatewayMetrics {
            facts,
            placement,
            registry,
        }
    }
}

/// Shared cluster view: ring, member table, health, placements, epoch.
#[derive(Debug)]
struct ClusterState {
    ring: HashRing,
    members: HashMap<u64, Member>,
    /// Nodes failing their health probe or administratively draining.
    unhealthy: Mutex<HashSet<u64>>,
    /// Nodes being drained: the prober must not flip them back healthy.
    draining: Mutex<HashSet<u64>>,
    /// Session → current placement (ring answers and pinned migrations).
    placements: Mutex<HashMap<u64, Placement>>,
    /// Ownership epoch, bumped on every placement-affecting change.
    epoch: AtomicU64,
    /// The shared inter-node secret stamped into driven cluster verbs
    /// (`0` when unconfigured — refused by any secret-configured member).
    cluster_secret: u64,
    metrics: GatewayMetrics,
}

impl ClusterState {
    fn member(&self, node: u64) -> io::Result<&Member> {
        self.members
            .get(&node)
            .ok_or_else(|| io::Error::other(format!("node {node} is not a cluster member")))
    }

    /// Decides where `session` lives right now, records the decision, and
    /// returns `(node, data-plane addr)`. `None` when every member is
    /// unhealthy.
    fn place(&self, session: u64) -> Option<(u64, String)> {
        let unhealthy = self.unhealthy.lock().clone();
        let mut placements = self.placements.lock();
        let pinned = placements
            .get(&session)
            .filter(|p| p.pinned && !unhealthy.contains(&p.node))
            .map(|p| p.node);
        let node = match pinned {
            Some(n) => n,
            None => self.ring.owner_excluding(session, &unhealthy)?,
        };
        let prev = placements.insert(
            session,
            Placement {
                node,
                pinned: pinned.is_some(),
            },
        );
        match prev {
            Some(p) if p.node == node => {}
            prev => {
                if let Some(p) = prev {
                    if let Some(cells) = self.metrics.placement.get(&p.node) {
                        cells.sessions_placed.add(-1);
                    }
                    // A session that moved (degraded node, expired pin)
                    // is a placement change: new epoch.
                    self.epoch.fetch_add(1, Ordering::SeqCst);
                }
                if let Some(cells) = self.metrics.placement.get(&node) {
                    cells.sessions_placed.add(1);
                }
            }
        }
        let addr = self.members.get(&node)?.addr.clone();
        Some((node, addr))
    }

    /// Installs a migration's pinned placement and bumps the epoch.
    fn record_migration(&self, session: u64, target_node: u64) {
        let mut placements = self.placements.lock();
        let prev = placements.insert(
            session,
            Placement {
                node: target_node,
                pinned: true,
            },
        );
        if prev.map(|p| p.node) != Some(target_node) {
            if let Some(p) = prev {
                if let Some(cells) = self.metrics.placement.get(&p.node) {
                    cells.sessions_placed.add(-1);
                }
            }
            if let Some(cells) = self.metrics.placement.get(&target_node) {
                cells.sessions_placed.add(1);
            }
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.metrics.facts.migrations.inc();
    }

    /// Applies one probe verdict; a transition bumps the epoch so clients
    /// holding a stale redirect re-place on their next reconnect.
    fn set_health(&self, node: u64, healthy: bool) {
        let healthy = healthy && !self.draining.lock().contains(&node);
        let mut unhealthy = self.unhealthy.lock();
        let changed = if healthy {
            unhealthy.remove(&node)
        } else {
            unhealthy.insert(node)
        };
        if changed {
            self.metrics
                .facts
                .nodes_unhealthy
                .set(unhealthy.len() as i64);
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn healthy_members(&self) -> usize {
        self.members.len() - self.unhealthy.lock().len()
    }

    /// `/members`: the cluster roster as JSON.
    fn render_members_json(&self) -> String {
        let unhealthy = self.unhealthy.lock().clone();
        let placements = self.placements.lock();
        let mut nodes: Vec<&Member> = self.members.values().collect();
        nodes.sort_by_key(|m| m.node);
        let mut out = String::from("[");
        for (i, m) in nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let sessions = placements.values().filter(|p| p.node == m.node).count();
            out.push_str(&format!(
                "{{\"node\":{},\"addr\":\"{}\",\"admin\":{},\"healthy\":{},\"sessions\":{}}}",
                m.node,
                m.addr,
                match &m.admin {
                    Some(a) => format!("\"{a}\""),
                    None => "null".to_string(),
                },
                !unhealthy.contains(&m.node),
                sessions,
            ));
        }
        out.push(']');
        out
    }

    /// `/metrics`: the gateway's own registry merged with a live scrape
    /// of every probeable member. Scrape failures degrade the roll-up to
    /// the reachable subset (counted) instead of failing it.
    fn render_rollup(&self) -> String {
        let mut texts = vec![self.metrics.registry.render_prometheus()];
        let mut nodes: Vec<&Member> = self.members.values().collect();
        nodes.sort_by_key(|m| m.node);
        for m in nodes {
            let Some(admin) = &m.admin else { continue };
            match http::get(admin, "/metrics") {
                Ok((200, body)) => texts.push(body),
                Ok(_) | Err(_) => self.metrics.facts.rollup_scrape_failures.inc(),
            }
        }
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        rollup::merge(&refs)
    }
}

/// The protocol half of the gateway's reactor.
struct GatewayHandler {
    state: Arc<ClusterState>,
}

impl Handler for GatewayHandler {
    /// The connection's outbox: answers are encoded straight into it.
    type Conn = Arc<Outbox>;

    fn on_open(&mut self, outbox: Arc<Outbox>) -> Arc<Outbox> {
        outbox
    }

    fn on_frame(&mut self, outbox: &mut Arc<Outbox>, msg: Message) -> FrameVerdict {
        match msg {
            Message::OpenSession { session, .. } | Message::ResumeSession { session, .. } => {
                let facts = &self.state.metrics.facts;
                match self.state.place(session) {
                    Some((_, addr)) => {
                        let epoch = self.state.epoch.load(Ordering::SeqCst);
                        let redirect = Message::Redirect {
                            session,
                            epoch,
                            addr,
                        };
                        if outbox.push(&redirect) {
                            facts.redirects_answered.inc();
                        }
                    }
                    None => {
                        let refusal = Message::Error {
                            session,
                            message: "no healthy node can take this session".into(),
                        };
                        if outbox.push(&refusal) {
                            facts.redirect_errors.inc();
                        }
                    }
                }
                FrameVerdict::Continue
            }
            Message::Shutdown => FrameVerdict::Close,
            // Everything else — readings, batches, closes — belongs on a
            // daemon connection; a confused client learns from silence
            // (its reads time out) rather than a torn-down socket.
            _ => FrameVerdict::Continue,
        }
    }

    fn on_close(&mut self, _outbox: Arc<Outbox>) {}
}

/// A running gateway: reactor pool, health prober, optional admin plane.
#[derive(Debug)]
pub struct Gateway {
    local_addr: SocketAddr,
    pool: ReactorPool,
    state: Arc<ClusterState>,
    stop: Arc<AtomicBool>,
    prober: Option<JoinHandle<()>>,
    admin: Option<http::Server>,
}

impl Gateway {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts answering redirects
    /// for `config.members`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (data plane and admin plane) and an empty
    /// member list.
    pub fn start(addr: &str, config: GatewayConfig) -> io::Result<Gateway> {
        if config.members.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one member",
            ));
        }
        let node_ids: Vec<u64> = config.members.iter().map(|m| m.node).collect();
        let mut members = HashMap::new();
        for m in &config.members {
            if members.insert(m.node, m.clone()).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate member node id {}", m.node),
                ));
            }
        }
        let metrics = GatewayMetrics::new(&config.members);
        let state = Arc::new(ClusterState {
            ring: HashRing::new(&node_ids, VNODES),
            members,
            unhealthy: Mutex::new(HashSet::new()),
            draining: Mutex::new(HashSet::new()),
            placements: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            cluster_secret: config.cluster_secret.unwrap_or(0),
            metrics,
        });

        let pool = {
            let state = Arc::clone(&state);
            // One event loop: answering a redirect is trivially cheap.
            reactor::spawn_pool(
                addr,
                1,
                move |_| GatewayHandler {
                    state: Arc::clone(&state),
                },
                |_| ReactorConfig::default(),
            )?
        };

        let stop = Arc::new(AtomicBool::new(false));
        let prober = if config.members.iter().any(|m| m.admin.is_some()) {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let interval = config.health_interval;
            Some(
                std::thread::Builder::new()
                    .name("avoc-gateway-prober".into())
                    .spawn(move || probe_loop(&state, interval, &stop))
                    .expect("spawn gateway prober"),
            )
        } else {
            None
        };

        let admin = match &config.admin_addr {
            Some(admin_addr) => {
                let state = Arc::clone(&state);
                Some(http::Server::start(
                    admin_addr,
                    "avoc-gateway-admin",
                    move |req| route(req.path(), req.query_param("scope"), &state),
                )?)
            }
            None => None,
        };
        Ok(Gateway {
            local_addr: pool.local_addr(),
            pool,
            state,
            stop,
            prober,
            admin,
        })
    }

    /// The address clients dial for their redirect.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The cluster admin endpoint, when configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(http::Server::local_addr)
    }

    /// The current ownership epoch.
    pub fn epoch(&self) -> u64 {
        self.state.epoch.load(Ordering::SeqCst)
    }

    /// Where the gateway currently places `session` (recording the answer,
    /// exactly as a client's open would).
    pub fn place(&self, session: u64) -> Option<(u64, String)> {
        self.state.place(session)
    }

    /// The gateway's own metric registry (redirects, migrations, health,
    /// placement gauges).
    pub fn registry(&self) -> &Registry {
        &self.state.metrics.registry
    }

    /// Marks `node` unhealthy for good — what [`Gateway::drain_node`] does
    /// first. The health prober will not flip a drained node back.
    fn mark_draining(&self, node: u64) {
        self.state.draining.lock().insert(node);
        self.state.set_health(node, false);
    }

    /// Migrates `session` off its current node to the next healthy owner
    /// on the ring, returning the receiving node id. The source quiesces
    /// and exports, the state blob is relayed to the target, the target
    /// restores warm, and the gateway flips its pinned placement. The drive
    /// is idempotent — if it fails (or the gateway dies) after the source
    /// already flipped its log's head, re-driving re-ships the same log
    /// from disk.
    ///
    /// # Errors
    ///
    /// Source refusal, a cold restore on the target, RPC timeouts, and
    /// "no healthy node to receive" when the rest of the cluster is down.
    pub fn migrate_session(&self, session: u64) -> io::Result<u64> {
        let source = self.current_node(session)?;
        self.migrate_off(session, source)
    }

    /// Migrates `session` off `source` — a *known* resident node, which
    /// may differ from what the placement table or ring would answer (a
    /// drain enumerates sessions the drained member actually holds, which
    /// a restarted gateway's table knows nothing about) — to the next
    /// healthy ring owner, returning the receiving node id.
    fn migrate_off(&self, session: u64, source: u64) -> io::Result<u64> {
        let mut excluded = self.state.unhealthy.lock().clone();
        excluded.insert(source);
        let target = self
            .state
            .ring
            .owner_excluding(session, &excluded)
            .ok_or_else(|| io::Error::other("no healthy node to receive the session"))?;
        self.ship_and_record(session, source, target)?;
        Ok(target)
    }

    /// The shipping half of a migration, with the source given explicitly.
    fn ship_and_record(&self, session: u64, source_node: u64, target_node: u64) -> io::Result<()> {
        if source_node == target_node {
            return Ok(());
        }
        let source = self.state.member(source_node)?.addr.clone();
        let target = self.state.member(target_node)?.addr.clone();
        // The epoch this placement change installs — allocated up front so
        // the in-band Redirect the source sends its tenant already carries
        // it.
        let epoch = self.state.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        match ship_session(
            session,
            &source,
            &target,
            target_node,
            epoch,
            self.state.cluster_secret,
        ) {
            Ok(()) => {
                self.state.record_migration(session, target_node);
                Ok(())
            }
            Err(e) => {
                self.state.metrics.facts.migration_failures.inc();
                Err(e)
            }
        }
    }

    /// Drains `node`: marks it unhealthy (so new placements avoid it) and
    /// migrates every session it holds to its next healthy ring owner.
    /// Returns how many sessions moved.
    ///
    /// The migrated set is the *union* of this gateway's placement table
    /// and what the member itself reports over its admin plane (live
    /// sessions via `/sessions`, durable ones via `/sessions?scope=durable`)
    /// — a restarted gateway's table is empty, and sessions recovered at
    /// daemon boot never hit it, yet their fused history must still ship
    /// rather than strand on the drained node. A member without an admin
    /// endpoint (or whose scrape fails, counted in
    /// `avoc_gateway_rollup_scrape_failures_total`) degrades to the
    /// placement table alone.
    ///
    /// # Errors
    ///
    /// The first failing migration aborts the drain; already-moved
    /// sessions stay moved (re-draining skips them).
    pub fn drain_node(&self, node: u64) -> io::Result<usize> {
        self.mark_draining(node);
        let mut sessions: Vec<u64> = {
            let placements = self.state.placements.lock();
            placements
                .iter()
                .filter(|(_, p)| p.node == node)
                .map(|(&s, _)| s)
                .collect()
        };
        if let Some(admin) = self.state.member(node)?.admin.clone() {
            match http::get(&admin, "/sessions") {
                Ok((200, body)) => sessions.extend(parse_session_rows(&body)),
                Ok(_) | Err(_) => self.state.metrics.facts.rollup_scrape_failures.inc(),
            }
            match http::get(&admin, "/sessions?scope=durable") {
                Ok((200, body)) => sessions.extend(parse_id_array(&body)),
                Ok(_) | Err(_) => self.state.metrics.facts.rollup_scrape_failures.inc(),
            }
        }
        sessions.sort_unstable();
        sessions.dedup();
        let mut moved = 0;
        for session in sessions {
            // The source is the drained node itself, not whatever the
            // placement table or ring would answer: for scraped sessions
            // this gateway never placed, `current_node` would name the
            // ring owner and export from the wrong member.
            self.migrate_off(session, node)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Where the gateway believes `session` lives, without recording a
    /// new placement: the placement table first, the raw ring otherwise.
    fn current_node(&self, session: u64) -> io::Result<u64> {
        self.state
            .placements
            .lock()
            .get(&session)
            .map(|p| p.node)
            .or_else(|| self.state.ring.owner(session))
            .ok_or_else(|| io::Error::other("session has no current placement"))
    }

    /// Stops the prober, the reactor pool, and the admin plane.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(prober) = self.prober {
            // Cut its wait for the next probe short.
            prober.thread().unpark();
            let _ = prober.join();
        }
        self.pool.shutdown();
        if let Some(admin) = self.admin {
            admin.stop();
        }
    }
}

/// Resolves a member's `host:port` string.
fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("member address {addr} resolves to nothing"),
        )
    })
}

/// Pulls the session ids out of the daemon admin plane's live-session
/// listing — rows shaped `{"session": 7, "shard": 0, ...}`.
fn parse_session_rows(body: &str) -> Vec<u64> {
    body.split("\"session\":")
        .skip(1)
        .filter_map(|rest| {
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .collect()
}

/// Parses a flat JSON id array (`[7,21]`) — the
/// `/sessions?scope=durable` shape.
fn parse_id_array(body: &str) -> Vec<u64> {
    body.trim()
        .trim_start_matches('[')
        .trim_end_matches(']')
        .split(',')
        .filter_map(|id| id.trim().parse().ok())
        .collect()
}

/// The two-hop shipping relay: export from the source, import into the
/// target, both over short-deadline data-plane connections, both stamped
/// with the cluster secret the members require.
fn ship_session(
    session: u64,
    source_addr: &str,
    target_addr: &str,
    target_node: u64,
    epoch: u64,
    secret: u64,
) -> io::Result<()> {
    let config = ClientConfig {
        connect_timeout: MIGRATION_CONNECT_TIMEOUT,
        read_timeout: MIGRATION_READ_TIMEOUT,
    };
    let mut source = ServeClient::connect_with(resolve(source_addr)?, &config)?;
    source.send(&Message::ExportSession {
        session,
        target_node,
        epoch,
        auth: secret,
        target_addr: target_addr.to_string(),
    })?;
    let (meta, wal) = loop {
        match source.recv()? {
            Message::SessionState {
                session: s,
                meta,
                wal,
                ..
            } if s == session => break (meta, wal),
            Message::Error {
                session: s,
                message,
            } if s == session => {
                return Err(io::Error::other(format!(
                    "source refused export: {message}"
                )))
            }
            // Stray result frames for other tenants of this connection
            // cannot appear (the connection is ours alone), but a shard
            // may still flush this session's tail results first.
            _ => {}
        }
    };
    let mut target = ServeClient::connect_with(resolve(target_addr)?, &config)?;
    target.send(&Message::SessionState {
        session,
        epoch,
        auth: secret,
        meta,
        wal,
    })?;
    loop {
        match target.recv()? {
            Message::Resumed {
                session: s, warm, ..
            } if s == session => {
                if warm {
                    return Ok(());
                }
                return Err(io::Error::other(
                    "target restored the session cold; shipped state did not land",
                ));
            }
            Message::Error {
                session: s,
                message,
            } if s == session => {
                return Err(io::Error::other(format!(
                    "target refused import: {message}"
                )))
            }
            _ => {}
        }
    }
}

/// The health prober: round-robins member `/healthz` endpoints, feeding
/// verdicts into the shared state. Members without an admin address are
/// assumed healthy (drain marks still apply). Between rounds it parks until
/// the next one is due; `Gateway::shutdown` sets `stop` and unparks it, so
/// an idle prober wakes once per `interval` and shutdown is still prompt.
fn probe_loop(state: &ClusterState, interval: Duration, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        for member in state.members.values() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let healthy = match &member.admin {
                Some(admin) => match http::get(admin, "/healthz") {
                    Ok((200, _)) => true,
                    Ok(_) | Err(_) => {
                        state.metrics.facts.health_probe_failures.inc();
                        false
                    }
                },
                None => true,
            };
            state.set_health(member.node, healthy);
        }
        // A spurious or early return just parks again for what is left;
        // `stop` is set before the unpark, so it is seen either here or by
        // the loop condition.
        let due = Instant::now() + interval;
        while !stop.load(Ordering::SeqCst) {
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::park_timeout(left);
        }
    }
}

fn route(path: &str, scope: Option<&str>, state: &ClusterState) -> (u16, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    const JSON: &str = "application/json";
    match path {
        // The gateway is healthy while it can still place sessions
        // somewhere.
        "/healthz" => {
            if state.healthy_members() > 0 {
                (200, TEXT, "ok\n".to_string())
            } else {
                (503, TEXT, "no healthy members\n".to_string())
            }
        }
        "/members" => (200, JSON, state.render_members_json()),
        "/metrics" => {
            if scope == Some("local") {
                (200, PROM, state.metrics.registry.render_prometheus())
            } else {
                (200, PROM, state.render_rollup())
            }
        }
        _ => (404, TEXT, "not found\n".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_core::ModuleId;
    use avoc_net::SpecSource;
    use avoc_serve::{Persistence, ServeConfig, SpecRegistry, TcpServer, VoterService};
    use std::path::{Path, PathBuf};

    const TOKEN: u64 = 0xFEED;
    const MODULES: u32 = 3;
    /// Shared inter-node secret for every test daemon and gateway.
    const CLUSTER_SECRET: u64 = 0x5EC2E7;

    fn registry() -> Arc<SpecRegistry> {
        let mut registry = SpecRegistry::new();
        registry.insert("avoc", avoc_vdx::VdxSpec::avoc());
        Arc::new(registry)
    }

    fn state_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avoc-gateway-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn start_daemon(node_id: u64, state_dir: Option<&Path>, admin: bool) -> TcpServer {
        let config = ServeConfig {
            persistence: Persistence {
                state_dir: state_dir.map(Path::to_path_buf),
                node_id,
                cluster_secret: Some(CLUSTER_SECRET),
                ..Persistence::default()
            },
            admin_addr: admin.then(|| "127.0.0.1:0".to_string()),
            ..ServeConfig::default()
        };
        let service = Arc::new(VoterService::start(config, registry()));
        TcpServer::start("127.0.0.1:0", service).expect("bind daemon")
    }

    fn member_of(node: u64, server: &TcpServer) -> Member {
        Member {
            node,
            addr: server.local_addr().to_string(),
            admin: server.admin_addr().map(|a| a.to_string()),
        }
    }

    fn gateway_for(members: Vec<Member>, admin: bool) -> Gateway {
        let config = GatewayConfig {
            members,
            health_interval: Duration::from_millis(50),
            admin_addr: admin.then(|| "127.0.0.1:0".to_string()),
            cluster_secret: Some(CLUSTER_SECRET),
        };
        Gateway::start("127.0.0.1:0", config).expect("bind gateway")
    }

    /// Resumes `session` against `addr` and returns the `Resumed` ack.
    fn resume_at(addr: SocketAddr, session: u64, last_acked: Option<u64>) -> Message {
        let mut client = ServeClient::connect(addr).expect("connect");
        client
            .send(&Message::ResumeSession {
                session,
                modules: MODULES,
                spec: SpecSource::Named("avoc".into()),
                token: TOKEN,
                last_acked,
            })
            .expect("send resume");
        loop {
            match client.recv().expect("recv") {
                msg @ Message::Resumed { .. } => return msg,
                msg @ Message::Error { .. } => return msg,
                _ => {}
            }
        }
    }

    /// Feeds `rounds` full triads into `session` at `addr` and collects
    /// the fused results (flattening batches).
    fn feed_rounds(addr: SocketAddr, session: u64, rounds: u64) -> Vec<(u64, Option<u64>)> {
        let mut client = ServeClient::connect(addr).expect("connect");
        client
            .send(&Message::ResumeSession {
                session,
                modules: MODULES,
                spec: SpecSource::Named("avoc".into()),
                token: TOKEN,
                last_acked: None,
            })
            .expect("send resume");
        match client.recv().expect("resume ack") {
            Message::Resumed { .. } => {}
            other => panic!("expected Resumed, got {other:?}"),
        }
        for round in 0..rounds {
            for module in 0..MODULES {
                client
                    .send_reading(
                        session,
                        ModuleId::new(module),
                        round,
                        0.5 + f64::from(module) * 0.01,
                    )
                    .expect("feed");
            }
        }
        let mut results = Vec::new();
        while (results.len() as u64) < rounds {
            match client.recv().expect("recv result") {
                Message::SessionResult { round, value, .. } => {
                    results.push((round, value.map(f64::to_bits)));
                }
                Message::ResultBatch { results: batch, .. } => {
                    for r in batch {
                        results.push((r.round, r.value.map(f64::to_bits)));
                    }
                }
                Message::Error { message, .. } => panic!("feed failed: {message}"),
                _ => {}
            }
        }
        results
    }

    #[test]
    fn gateway_redirects_sessions_to_their_ring_owner() {
        let a = start_daemon(1, None, false);
        let b = start_daemon(2, None, false);
        let gateway = gateway_for(vec![member_of(1, &a), member_of(2, &b)], false);

        let mut client = ServeClient::connect(gateway.local_addr()).expect("dial gateway");
        let mut seen_addrs = HashSet::new();
        for session in 0..32u64 {
            client
                .send(&Message::ResumeSession {
                    session,
                    modules: MODULES,
                    spec: SpecSource::Named("avoc".into()),
                    token: TOKEN,
                    last_acked: None,
                })
                .expect("send");
            match client.recv().expect("recv") {
                Message::Redirect {
                    session: s, addr, ..
                } => {
                    assert_eq!(s, session);
                    let (node, expect_addr) = gateway.place(session).expect("placed");
                    assert_eq!(addr, expect_addr);
                    assert!([1, 2].contains(&node));
                    seen_addrs.insert(addr);
                }
                other => panic!("expected Redirect, got {other:?}"),
            }
        }
        // 32 sessions over 2 nodes: both sides of the ring get traffic.
        assert_eq!(seen_addrs.len(), 2);
        let text = gateway.registry().render_prometheus();
        assert!(rollup::sample_value(&text, "avoc_gateway_redirects_answered_total") >= Some(32.0));

        gateway.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn migration_ships_state_and_the_target_resumes_warm() {
        let dir1 = state_dir("mig-1");
        let dir2 = state_dir("mig-2");
        let a = start_daemon(1, Some(&dir1), false);
        let b = start_daemon(2, Some(&dir2), false);
        let gateway = gateway_for(vec![member_of(1, &a), member_of(2, &b)], false);

        let session = 42u64;
        let (source_node, source_addr) = gateway.place(session).expect("placed");
        let source_addr: SocketAddr = source_addr.parse().unwrap();
        let baseline = feed_rounds(source_addr, session, 5);
        assert_eq!(baseline.len(), 5);

        let target_node = gateway.migrate_session(session).expect("migrate");
        assert_ne!(target_node, source_node);
        assert_eq!(gateway.place(session).map(|(n, _)| n), Some(target_node));

        // The target answers a reconnect warm, at the shipped frontier.
        let (_, target_addr) = gateway.place(session).expect("placed after migrate");
        match resume_at(target_addr.parse().unwrap(), session, Some(4)) {
            Message::Resumed {
                high_round, warm, ..
            } => {
                assert!(warm, "target restored cold");
                assert_eq!(high_round, Some(4));
            }
            other => panic!("expected Resumed, got {other:?}"),
        }

        // The source's boot recovery would now skip the log; its live
        // table already dropped the session — resuming there gets refused
        // (by the foreign-meta guard), not double-owned.
        match resume_at(source_addr, session, Some(4)) {
            Message::Error { message, .. } => {
                assert!(
                    message.contains("migrated"),
                    "unexpected refusal: {message}"
                )
            }
            Message::Resumed { warm, .. } => assert!(!warm, "source kept warm state"),
            other => panic!("unexpected reply: {other:?}"),
        }

        let text = gateway.registry().render_prometheus();
        assert_eq!(
            rollup::sample_value(&text, "avoc_gateway_migrations_total"),
            Some(1.0)
        );

        gateway.shutdown();
        a.shutdown();
        b.shutdown();
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn drain_moves_placed_sessions_off_the_node() {
        let dir1 = state_dir("drain-1");
        let dir2 = state_dir("drain-2");
        let a = start_daemon(1, Some(&dir1), false);
        let b = start_daemon(2, Some(&dir2), false);
        let gateway = gateway_for(vec![member_of(1, &a), member_of(2, &b)], false);

        // Two live sessions, wherever the ring puts them.
        let sessions = [7u64, 21u64];
        for &s in &sessions {
            let (_, addr) = gateway.place(s).expect("placed");
            feed_rounds(addr.parse().unwrap(), s, 3);
        }
        let drained_node = gateway.place(sessions[0]).unwrap().0;
        let expected_moves = sessions
            .iter()
            .filter(|&&s| gateway.place(s).unwrap().0 == drained_node)
            .count();

        let moved = gateway.drain_node(drained_node).expect("drain");
        assert_eq!(moved, expected_moves);
        for &s in &sessions {
            assert_ne!(gateway.place(s).unwrap().0, drained_node);
        }
        // New sessions avoid the drained node too.
        for s in 100..110u64 {
            assert_ne!(gateway.place(s).unwrap().0, drained_node);
        }

        gateway.shutdown();
        a.shutdown();
        b.shutdown();
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn drain_discovers_resident_sessions_without_placement_entries() {
        let dir1 = state_dir("drain-scrape-1");
        let dir2 = state_dir("drain-scrape-2");
        let a = start_daemon(1, Some(&dir1), true);
        let b = start_daemon(2, Some(&dir2), true);

        // A session fed *directly* into node 1 — it exists on the daemon
        // (live and durable) but no gateway ever placed it.
        let session = 4242u64;
        let fed = feed_rounds(a.local_addr(), session, 3);
        assert_eq!(fed.len(), 3);

        // A gateway started *after* the fact: its placement table is
        // empty, exactly like one restarted mid-flight. Draining node 1
        // must still discover the resident session over the admin plane
        // and ship its history.
        let gateway = gateway_for(vec![member_of(1, &a), member_of(2, &b)], false);
        let moved = gateway.drain_node(1).expect("drain");
        assert_eq!(moved, 1, "the scraped session must have shipped");

        // The history landed warm on node 2, at the fused frontier.
        match resume_at(b.local_addr(), session, Some(2)) {
            Message::Resumed {
                high_round, warm, ..
            } => {
                assert!(warm, "scraped session restored cold");
                assert_eq!(high_round, Some(2));
            }
            other => panic!("expected Resumed, got {other:?}"),
        }

        gateway.shutdown();
        a.shutdown();
        b.shutdown();
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn health_probe_marks_dead_members_and_routes_around_them() {
        let a = start_daemon(1, None, true);
        let b = start_daemon(2, None, true);
        let addr_b = b.local_addr().to_string();
        let gateway = gateway_for(vec![member_of(1, &a), member_of(2, &b)], true);

        // Both healthy: /healthz is ok.
        let admin = gateway.admin_addr().unwrap().to_string();
        let (status, body) = http::get(&admin, "/healthz").expect("gateway healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        // Kill node 2 (admin plane and all); the prober notices.
        b.shutdown();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (_, members) = http::get(&admin, "/members").expect("members");
            if members.contains("\"healthy\":false") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "prober never noticed");
            std::thread::sleep(Duration::from_millis(25));
        }
        // Every placement now avoids the dead node's address.
        for s in 0..64u64 {
            let (node, addr) = gateway.place(s).expect("placed");
            assert_eq!(node, 1);
            assert_ne!(addr, addr_b);
        }

        gateway.shutdown();
        a.shutdown();
    }

    #[test]
    fn metrics_rollup_sums_member_scrapes() {
        let a = start_daemon(1, None, true);
        let b = start_daemon(2, None, true);
        let gateway = gateway_for(vec![member_of(1, &a), member_of(2, &b)], true);

        // One live session per daemon, fed directly.
        feed_rounds(a.local_addr(), 1000, 2);
        feed_rounds(b.local_addr(), 2000, 3);

        let scrape_a = http::get(&a.admin_addr().unwrap().to_string(), "/metrics")
            .expect("scrape a")
            .1;
        let scrape_b = http::get(&b.admin_addr().unwrap().to_string(), "/metrics")
            .expect("scrape b")
            .1;
        let rolled = http::get(&gateway.admin_addr().unwrap().to_string(), "/metrics")
            .expect("rollup")
            .1;

        for key in ["avoc_sessions_opened_total", "avoc_rounds_fused_total"] {
            let sum = rollup::sample_value(&scrape_a, key).unwrap_or(0.0)
                + rollup::sample_value(&scrape_b, key).unwrap_or(0.0);
            assert_eq!(
                rollup::sample_value(&rolled, key),
                Some(sum),
                "roll-up mismatch for {key}"
            );
        }
        // The gateway's own cells ride along in the same surface.
        assert!(rolled.contains("avoc_gateway_nodes_unhealthy"));

        gateway.shutdown();
        a.shutdown();
        b.shutdown();
    }
}
