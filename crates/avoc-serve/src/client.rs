//! Clients for the [`crate::TcpServer`] daemon: a small synchronous
//! [`ServeClient`], and a [`ResilientClient`] wrapper that survives daemon
//! crashes via deadline-bounded I/O, capped-backoff retries and idempotent
//! session resume.

use avoc_core::ModuleId;
use avoc_net::cork::DEFAULT_CORK_LIMIT;
use avoc_net::message::DecodeError;
use avoc_net::{BatchReading, Message, SpecSource, MAX_BATCH_READINGS};
use bytes::{Buf, BytesMut};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Connection deadlines for daemon clients.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long a connect attempt may take before failing (default 10 s).
    pub connect_timeout: Duration,
    /// Read deadline on the result stream (default 30 s): a server that
    /// goes silent longer than this surfaces as an I/O error instead of a
    /// forever-blocked `recv`, which is what lets [`ResilientClient`]
    /// notice a dead daemon and reconnect.
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// Capped exponential backoff with deterministic jitter, governing how a
/// [`ResilientClient`] re-dials a daemon that refused or dropped it.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per operation (connect + send/recv retries). At least
    /// 1; the default is 5.
    pub max_attempts: u32,
    /// Delay before the first retry (default 50 ms); doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on the backoff (default 2 s).
    pub max_delay: Duration,
    /// Seeds the jitter stream: same seed, same delays — chaos tests stay
    /// reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (1-based): `base · 2^(a-1)`
    /// capped at `max_delay`, minus up to a quarter of deterministic jitter
    /// so a fleet of clients does not re-dial in lockstep.
    pub fn delay_for(&self, attempt: u32, rng: &mut u64) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self
            .base_delay
            .saturating_mul(1u32 << doublings)
            .min(self.max_delay);
        let ms = exp.as_millis() as u64;
        let jitter = splitmix64(rng) % (ms / 4 + 1);
        Duration::from_millis(ms - jitter)
    }
}

/// A tenant-side connection to a running voter daemon.
///
/// One client may multiplex any number of sessions over its connection;
/// results arrive interleaved and carry their session id. The client is
/// deliberately synchronous — a tenant that wants pipelining sends readings
/// and calls [`ServeClient::recv`] from separate clones of the stream, or
/// simply counts on one result per completed round.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    buf: BytesMut,
    /// Reused outbound scratch: frames encode into it in place, so the
    /// steady-state send path performs no allocations.
    scratch: BytesMut,
    /// Results unpacked from a [`Message::ResultBatch`] but not yet handed
    /// to the caller ([`ServeClient::recv`] yields them one at a time).
    inbox: VecDeque<Message>,
    stats: ClientIoStats,
}

/// Wire-level I/O counters for one [`ServeClient`] connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientIoStats {
    /// Frames encoded into the outbound scratch buffer.
    pub frames_sent: u64,
    /// `write` syscalls issued (coalesced sends make this much smaller
    /// than `frames_sent`).
    pub writes: u64,
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Gateway/daemon [`Message::Redirect`] frames this client followed to
    /// a different node. Always `0` on a bare [`ServeClient`] (it is a
    /// dumb pipe); a [`ResilientClient`] counts its lifetime total here
    /// via [`ResilientClient::io_stats`].
    pub redirects_followed: u64,
}

impl ServeClient {
    /// Connects to a daemon with default [`ClientConfig`] deadlines.
    ///
    /// # Errors
    ///
    /// Propagates connection errors (including the connect timeout).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit deadlines: the connect is bounded by
    /// `config.connect_timeout` and every subsequent read by
    /// `config.read_timeout`.
    ///
    /// # Errors
    ///
    /// Propagates connection errors (including the connect timeout).
    pub fn connect_with(addr: SocketAddr, config: &ClientConfig) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        Ok(ServeClient {
            stream,
            buf: BytesMut::with_capacity(4096),
            scratch: BytesMut::with_capacity(4096),
            inbox: VecDeque::new(),
            stats: ClientIoStats::default(),
        })
    }

    /// Wire-level I/O counters for this connection.
    pub fn io_stats(&self) -> ClientIoStats {
        self.stats
    }

    /// Opens a session governed by `spec`; admission errors arrive as
    /// [`Message::Error`] frames on this connection.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn open_session(&mut self, session: u64, modules: u32, spec: SpecSource) -> io::Result<()> {
        self.send(&Message::OpenSession {
            session,
            modules,
            spec,
        })
    }

    /// Idempotent open/re-attach: the daemon re-attaches a live session
    /// whose `token` matches, restores it from a checkpoint, or opens it
    /// fresh — answering with [`Message::Resumed`] either way.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn resume_session(
        &mut self,
        session: u64,
        modules: u32,
        spec: SpecSource,
        token: u64,
        last_acked: Option<u64>,
    ) -> io::Result<()> {
        self.send(&Message::ResumeSession {
            session,
            modules,
            spec,
            token,
            last_acked,
        })
    }

    /// Streams one reading into a session's round.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_reading(
        &mut self,
        session: u64,
        module: ModuleId,
        round: u64,
        value: f64,
    ) -> io::Result<()> {
        self.send(&Message::SessionReading {
            session,
            module,
            round,
            value,
        })
    }

    /// Streams many readings into a session in batched frames, splitting
    /// at [`MAX_BATCH_READINGS`] so every frame stays under the protocol's
    /// size cap. An empty slice sends nothing.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_batch(&mut self, session: u64, readings: &[BatchReading]) -> io::Result<()> {
        // Frames encode straight from the slice (no per-chunk `Vec`) and
        // cork in the scratch buffer, so a large batch leaves in a few
        // `write` calls instead of one per frame.
        for chunk in readings.chunks(MAX_BATCH_READINGS) {
            Message::encode_feed_batch_into(session, chunk, &mut self.scratch);
            self.stats.frames_sent += 1;
            if self.scratch.len() >= DEFAULT_CORK_LIMIT {
                self.flush_scratch()?;
            }
        }
        self.flush_scratch()
    }

    /// Closes a session, flushing its partially assembled rounds (their
    /// results still arrive on this connection).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn close_session(&mut self, session: u64) -> io::Result<()> {
        self.send(&Message::CloseSession { session })
    }

    /// Sends one raw frame (encoded allocation-free into the reused
    /// scratch buffer).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        msg.encode_into(&mut self.scratch);
        self.stats.frames_sent += 1;
        self.flush_scratch()
    }

    /// Writes the scratch buffer out, counting each `write`. On error the
    /// scratch is cleared — a partial frame must never prefix the next
    /// send on a connection the caller decides to keep using.
    fn flush_scratch(&mut self) -> io::Result<()> {
        while !self.scratch.is_empty() {
            match self.stream.write(&self.scratch) {
                Ok(0) => {
                    self.scratch.clear();
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted no bytes",
                    ));
                }
                Ok(n) => {
                    self.stats.writes += 1;
                    self.stats.bytes_sent += n as u64;
                    self.scratch.advance(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.scratch.clear();
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Blocks until the next server frame (a [`Message::SessionResult`],
    /// [`Message::Resumed`] or [`Message::Error`]) arrives.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closes the connection; `InvalidData`
    /// on an undecodable frame; `WouldBlock`/`TimedOut` past the configured
    /// read deadline; other I/O errors as raised.
    pub fn recv(&mut self) -> io::Result<Message> {
        if let Some(msg) = self.inbox.pop_front() {
            return Ok(msg);
        }
        let mut chunk = [0u8; 4096];
        loop {
            match Message::decode(&mut self.buf) {
                Ok(Message::ResultBatch { session, results }) => {
                    // Unpack into per-round frames so callers see the same
                    // stream whether the daemon batched or not (which is
                    // what keeps resume replay and ack-floor dedup
                    // framing-agnostic).
                    let mut iter = results.into_iter();
                    let first = iter.next().expect("decoded batches are non-empty");
                    for r in iter {
                        self.inbox.push_back(Message::SessionResult {
                            session,
                            round: r.round,
                            value: r.value,
                            voted: r.voted,
                        });
                    }
                    return Ok(Message::SessionResult {
                        session,
                        round: first.round,
                        value: first.value,
                        voted: first.voted,
                    });
                }
                Ok(msg) => return Ok(msg),
                Err(DecodeError::Incomplete) => {}
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("undecodable frame: {e:?}"),
                    ))
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Receives exactly `n` frames (convenience for "one result per round").
    ///
    /// # Errors
    ///
    /// As [`ServeClient::recv`].
    pub fn recv_n(&mut self, n: usize) -> io::Result<Vec<Message>> {
        (0..n).map(|_| self.recv()).collect()
    }
}

/// What one resilient session remembers between reconnects.
#[derive(Debug)]
struct SessionState {
    token: u64,
    modules: u32,
    spec: SpecSource,
    /// Highest round whose result this client has received.
    last_acked: Option<u64>,
    /// Readings for rounds past `last_acked`, replayed after a reconnect.
    unacked: VecDeque<BatchReading>,
}

/// Client-side resilience counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Connections re-established after a failure.
    pub reconnects: u64,
    /// Unacked readings replayed across all reconnects.
    pub replayed_readings: u64,
    /// Results dropped client-side because their round was already acked
    /// (the server re-emitted past the ack floor after a resume).
    pub duplicate_results_dropped: u64,
}

/// A [`ServeClient`] that survives daemon restarts.
///
/// Every send and receive runs under the [`RetryPolicy`]: on an I/O error
/// the client reconnects (bounded by the [`ClientConfig`] deadlines),
/// replays a [`Message::ResumeSession`] for every registered session with
/// its token and ack floor, re-sends the readings the server never
/// acknowledged, and drops any results the server re-emits for rounds this
/// client already saw — so the stream of results the caller observes has
/// no duplicated and no lost rounds, whatever the connection did.
///
/// # One session per cluster-homed client
///
/// A client pointed at a gateway follows [`Message::Redirect`] frames to
/// whichever node owns its session — and a redirect re-homes the *whole
/// connection*. Two sessions that hash to different owners cannot share
/// one redirect-following client: the handshake at one owner would
/// fresh-bootstrap the other session there, silently forking its stream.
/// The client therefore refuses to follow a redirect while more than one
/// session is registered; run one `ResilientClient` per session when
/// dialing a cluster. (Multiple sessions against a single standalone
/// daemon, which never redirects, remain fine.)
///
/// # Example
///
/// ```no_run
/// use avoc_serve::{ClientConfig, ResilientClient, RetryPolicy};
/// use avoc_net::SpecSource;
/// use avoc_core::ModuleId;
///
/// let mut client = ResilientClient::new(
///     "127.0.0.1:7777".parse().unwrap(),
///     ClientConfig::default(),
///     RetryPolicy::default(),
/// );
/// client.open_session(1, 3, SpecSource::Named("avoc".into()), 0xfeed)?;
/// client.send_reading(1, ModuleId::new(0), 0, 21.5)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct ResilientClient {
    /// Where the next dial goes — the home address until a
    /// [`Message::Redirect`] points somewhere else.
    addr: SocketAddr,
    /// The address this client was created with (in a cluster, the
    /// gateway). A failed dial of a redirected-to node falls back here, so
    /// a migration target dying never strands the client on a dead addr.
    home: SocketAddr,
    config: ClientConfig,
    retry: RetryPolicy,
    conn: Option<ServeClient>,
    sessions: HashMap<u64, SessionState>,
    /// Frames that arrived while waiting for resume acknowledgements.
    pending: VecDeque<Message>,
    /// Latest `Resumed` observed per session: `(high_round, warm)`.
    resume_info: HashMap<u64, (Option<u64>, bool)>,
    rng: u64,
    ever_connected: bool,
    stats: ClientStats,
    /// Lifetime count of redirect frames followed to a different node.
    redirects_followed: u64,
    /// Highest ownership epoch seen per session, from [`Message::Redirect`]
    /// frames. A redirect carrying a *lower* epoch raced a newer placement
    /// and is discarded instead of flipping the client to a stale owner.
    epochs: HashMap<u64, u64>,
}

/// How many [`Message::Redirect`] hops one connection attempt may follow
/// before the client declares a routing loop and gives up the attempt. A
/// healthy cluster resolves in one hop (gateway → owner), two during a
/// migration race; anything deeper is misconfiguration.
pub const MAX_REDIRECT_HOPS: u32 = 4;

impl ResilientClient {
    /// Creates a client; the connection is established lazily on first use.
    pub fn new(addr: SocketAddr, config: ClientConfig, retry: RetryPolicy) -> Self {
        let rng = retry.jitter_seed;
        ResilientClient {
            addr,
            home: addr,
            config,
            retry,
            conn: None,
            sessions: HashMap::new(),
            pending: VecDeque::new(),
            resume_info: HashMap::new(),
            rng,
            ever_connected: false,
            stats: ClientStats::default(),
            redirects_followed: 0,
            epochs: HashMap::new(),
        }
    }

    /// Re-homes the client on a new daemon address (e.g. a restarted
    /// daemon on a fresh port, or a different gateway); the next operation
    /// reconnects and resumes there. This moves the *home* address too —
    /// in-band [`Message::Redirect`] frames, by contrast, move only the
    /// current target and are followed automatically (and counted in
    /// [`ClientIoStats::redirects_followed`]).
    pub fn redirect(&mut self, addr: SocketAddr) {
        self.addr = addr;
        self.home = addr;
        self.conn = None;
    }

    /// Client-side resilience counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Wire-level I/O counters: the live connection's (zeroed after a
    /// reconnect, like the connection itself), with
    /// [`ClientIoStats::redirects_followed`] carrying this client's
    /// lifetime total across every reconnect and redirect.
    pub fn io_stats(&self) -> ClientIoStats {
        let mut s = self
            .conn
            .as_ref()
            .map(ServeClient::io_stats)
            .unwrap_or_default();
        s.redirects_followed = self.redirects_followed;
        s
    }

    /// The latest [`Message::Resumed`] seen for `session`, as
    /// `(high_round, warm)`.
    pub fn last_resume(&self, session: u64) -> Option<(Option<u64>, bool)> {
        self.resume_info.get(&session).copied()
    }

    /// Registers and opens a session idempotently: the open is a
    /// [`Message::ResumeSession`] carrying `token`, so re-running it after
    /// a crash (or racing a reconnect) re-attaches instead of erroring.
    ///
    /// # Errors
    ///
    /// Connection errors after retries are exhausted.
    pub fn open_session(
        &mut self,
        session: u64,
        modules: u32,
        spec: SpecSource,
        token: u64,
    ) -> io::Result<()> {
        self.sessions.insert(
            session,
            SessionState {
                token,
                modules,
                spec,
                last_acked: None,
                unacked: VecDeque::new(),
            },
        );
        // The resume handshake in `ensure_conn` performs the actual open —
        // and every later reconnect re-performs it for free.
        self.with_io(|_c| Ok(()))
    }

    /// Streams one reading, remembering it until its round's result is
    /// acknowledged (so a reconnect can replay it).
    ///
    /// # Errors
    ///
    /// Connection errors after retries are exhausted.
    pub fn send_reading(
        &mut self,
        session: u64,
        module: ModuleId,
        round: u64,
        value: f64,
    ) -> io::Result<()> {
        let reading = BatchReading {
            module,
            round,
            value,
        };
        if let Some(s) = self.sessions.get_mut(&session) {
            s.unacked.push_back(reading);
        }
        self.with_io(move |c| c.send_reading(session, module, round, value))
    }

    /// Streams a batch of readings (same replay guarantees as
    /// [`ResilientClient::send_reading`]).
    ///
    /// # Errors
    ///
    /// Connection errors after retries are exhausted.
    pub fn send_batch(&mut self, session: u64, readings: &[BatchReading]) -> io::Result<()> {
        if let Some(s) = self.sessions.get_mut(&session) {
            s.unacked.extend(readings.iter().copied());
        }
        self.with_io(move |c| c.send_batch(session, readings))
    }

    /// Closes a session and forgets its resume state.
    ///
    /// # Errors
    ///
    /// Connection errors after retries are exhausted.
    pub fn close_session(&mut self, session: u64) -> io::Result<()> {
        let res = self.with_io(move |c| c.close_session(session));
        self.sessions.remove(&session);
        res
    }

    /// The next result or error frame, deduplicated: results for rounds at
    /// or below a session's ack floor (server re-emissions after a resume)
    /// are dropped, and `Resumed` frames are absorbed into
    /// [`ResilientClient::last_resume`].
    ///
    /// # Errors
    ///
    /// Connection errors after retries are exhausted.
    pub fn recv(&mut self) -> io::Result<Message> {
        loop {
            let msg = match self.pending.pop_front() {
                Some(m) => m,
                None => self.with_io(|c| c.recv())?,
            };
            match msg {
                Message::Resumed {
                    session,
                    high_round,
                    warm,
                } => {
                    self.resume_info.insert(session, (high_round, warm));
                }
                Message::Redirect {
                    session,
                    epoch,
                    addr,
                } => {
                    // A node announcing mid-stream that a session moved
                    // (migration): flip to the new owner and let the next
                    // I/O reconnect-and-resume there. A redirect carrying
                    // an epoch below the highest this client has seen for
                    // the session raced a newer placement and is discarded;
                    // an unparseable or self-referential address is ignored
                    // — the home fallback recovers routing either way. With
                    // more than one session registered the redirect is also
                    // ignored (see the type docs: a redirect re-homes the
                    // whole connection, which would fork the other
                    // sessions' streams).
                    if epoch < self.epochs.get(&session).copied().unwrap_or(0) {
                        continue;
                    }
                    if self.sessions.len() > 1 {
                        continue;
                    }
                    self.epochs.insert(session, epoch);
                    if let Ok(target) = addr.parse::<SocketAddr>() {
                        if target != self.addr {
                            self.addr = target;
                            self.redirects_followed += 1;
                            self.conn = None;
                        }
                    }
                }
                Message::SessionResult { session, round, .. } => {
                    if let Some(s) = self.sessions.get_mut(&session) {
                        if s.last_acked.is_some_and(|a| round <= a) {
                            self.stats.duplicate_results_dropped += 1;
                            continue;
                        }
                        s.last_acked = Some(s.last_acked.map_or(round, |a| a.max(round)));
                        // The round fused: its readings are done for.
                        s.unacked.retain(|r| r.round > round);
                    }
                    return Ok(msg);
                }
                other => return Ok(other),
            }
        }
    }

    /// Receives exactly `n` deduplicated result/error frames.
    ///
    /// # Errors
    ///
    /// As [`ResilientClient::recv`].
    pub fn recv_n(&mut self, n: usize) -> io::Result<Vec<Message>> {
        (0..n).map(|_| self.recv()).collect()
    }

    /// Runs `op` against a live connection, reconnecting (with resume and
    /// replay) under the retry policy when it fails.
    fn with_io<T>(
        &mut self,
        mut op: impl FnMut(&mut ServeClient) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let res = match self.ensure_conn() {
                Ok(()) => op(self.conn.as_mut().expect("connection just ensured")),
                Err(e) => Err(e),
            };
            match res {
                Ok(v) => return Ok(v),
                Err(e) => {
                    self.conn = None;
                    // A redirected-to node that fails falls back to home
                    // (in a cluster: the gateway, which re-routes around
                    // the dead node); failing at home just retries home.
                    self.addr = self.home;
                    attempt += 1;
                    if attempt >= self.retry.max_attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(self.retry.delay_for(attempt, &mut self.rng));
                }
            }
        }
    }

    /// Connects if needed and runs the resume handshake: one
    /// `ResumeSession` per registered session, one `Resumed` (or `Error`)
    /// awaited per session, then a replay of every unacknowledged reading.
    /// Frames that interleave with the handshake are queued for `recv`.
    ///
    /// A [`Message::Redirect`] answering the handshake (a gateway naming
    /// the owning node, or a node naming a session's migration target)
    /// re-dials the named address and re-runs the handshake there, up to
    /// [`MAX_REDIRECT_HOPS`] — an address already dialed in this attempt
    /// is a routing loop and fails the attempt instead.
    fn ensure_conn(&mut self) -> io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut visited: Vec<SocketAddr> = vec![self.addr];
        'dial: loop {
            let mut client = ServeClient::connect_with(self.addr, &self.config)?;
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            for (&id, s) in &self.sessions {
                client.resume_session(id, s.modules, s.spec.clone(), s.token, s.last_acked)?;
            }
            let mut awaiting: Vec<u64> = self.sessions.keys().copied().collect();
            while !awaiting.is_empty() {
                match client.recv()? {
                    Message::Resumed {
                        session,
                        high_round,
                        warm,
                    } => {
                        awaiting.retain(|&s| s != session);
                        self.resume_info.insert(session, (high_round, warm));
                    }
                    Message::Redirect {
                        session,
                        epoch,
                        addr,
                    } => {
                        if self.sessions.len() > 1 {
                            // A redirect re-homes the whole connection;
                            // following it would fresh-bootstrap every
                            // other registered session at a non-owner node,
                            // silently forking their streams. Refuse loudly
                            // instead (see the type docs).
                            return Err(io::Error::other(
                                "redirect refused: a cluster-homed client must manage \
                                 exactly one session (one ResilientClient per session)",
                            ));
                        }
                        if epoch < self.epochs.get(&session).copied().unwrap_or(0) {
                            // Stale placement: this node's routing raced a
                            // newer migration. Fail the attempt so the
                            // retry falls back to home (the gateway), which
                            // knows the current owner.
                            return Err(io::Error::other(format!(
                                "stale redirect for session {session}: epoch {epoch} \
                                 below highest seen"
                            )));
                        }
                        self.epochs.insert(session, epoch);
                        let target: SocketAddr = addr.parse().map_err(|_| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("undialable redirect address `{addr}`"),
                            )
                        })?;
                        if visited.contains(&target) {
                            return Err(io::Error::other(format!(
                                "redirect loop: {target} already dialed this attempt"
                            )));
                        }
                        if visited.len() as u32 > MAX_REDIRECT_HOPS {
                            return Err(io::Error::other(format!(
                                "redirect chain exceeded {MAX_REDIRECT_HOPS} hops"
                            )));
                        }
                        visited.push(target);
                        self.addr = target;
                        self.redirects_followed += 1;
                        continue 'dial;
                    }
                    Message::Error { session, .. }
                        if awaiting.contains(&session) && self.addr != self.home =>
                    {
                        // A redirected-to node refusing the resume (e.g.
                        // "session migrated to another node" after we
                        // raced a re-placement): go back to home — the
                        // gateway re-routes — instead of surfacing an
                        // error the cluster can still resolve. Home
                        // refusing is final, handled below.
                        if visited.contains(&self.home) {
                            return Err(io::Error::other(
                                "resume refused on every node this attempt dialed",
                            ));
                        }
                        visited.push(self.home);
                        self.addr = self.home;
                        continue 'dial;
                    }
                    Message::Error { session, .. } if awaiting.contains(&session) => {
                        // Resume refused (token mismatch / capacity):
                        // surface the error frame to the caller rather
                        // than retrying a handshake that will keep
                        // failing.
                        awaiting.retain(|&s| s != session);
                        self.pending.push_back(Message::Error {
                            session,
                            message: "resume refused".into(),
                        });
                    }
                    other => self.pending.push_back(other),
                }
            }
            for (&id, s) in &self.sessions {
                if s.unacked.is_empty() {
                    continue;
                }
                let readings: Vec<BatchReading> = s.unacked.iter().copied().collect();
                client.send_batch(id, &readings)?;
                self.stats.replayed_readings += readings.len() as u64;
            }
            self.conn = Some(client);
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_are_capped_and_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(400),
            jitter_seed: 7,
        };
        let mut rng_a = policy.jitter_seed;
        let mut rng_b = policy.jitter_seed;
        for attempt in 1..=8 {
            let a = policy.delay_for(attempt, &mut rng_a);
            let b = policy.delay_for(attempt, &mut rng_b);
            assert_eq!(a, b, "same seed, same schedule");
            assert!(a <= policy.max_delay, "attempt {attempt} exceeds the cap");
        }
        // The un-jittered curve doubles then saturates: attempt 3 onward is
        // drawn from the capped 400 ms bucket, so it can never exceed it,
        // and attempt 1 stays within base.
        let mut rng = policy.jitter_seed;
        assert!(policy.delay_for(1, &mut rng) <= Duration::from_millis(100));
    }

    #[test]
    fn read_deadline_bounds_a_silent_server() {
        // A listener that accepts and then says nothing: without the read
        // deadline, `recv` would block forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let config = ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_millis(100),
        };
        let mut client = ServeClient::connect_with(addr, &config).unwrap();
        let started = std::time::Instant::now();
        let err = client
            .recv()
            .expect_err("silent server must time the read out");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected error kind: {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "read did not respect its deadline"
        );
        drop(hold.join());
    }
}
