//! The readiness-based I/O core: a hand-rolled epoll reactor, sharded
//! across cores.
//!
//! Each reactor thread owns a share of the data-plane sockets — its own
//! listener, a self-wake pipe, and every connection it accepted — and
//! multiplexes them through one level-triggered epoll instance. This
//! retires the daemon's thread-per-connection model: connection counts no
//! longer add threads, wakeups batch many sockets per syscall, and an idle
//! daemon makes *zero* syscalls (each loop parks in `epoll_wait` with no
//! timeout unless a deadline is armed). The reactor is Linux-only, as is
//! the `sysio` shim under it.
//!
//! [`spawn_pool`] runs R reactors ([`ReactorPool`]; R = 1 is the classic
//! single reactor on one plain listener), each with its own epoll
//! instance, slab, timer wheel, and wake pipe; nothing readiness-related
//! is shared between them. With R > 1 every reactor owns one listener of
//! a `SO_REUSEPORT` group on the pool's port and the kernel spreads
//! handshakes across them — or the pool fails to start. Either way a
//! connection is **pinned to its reactor for life**: all of its transport
//! state stays thread-local and its [`Outbox`] wakes the owning
//! reactor's pipe, so producers never need to know the pool exists.
//!
//! The division of labour:
//!
//! * the **reactor** (this module) does transport: non-blocking accept,
//!   reads into the re-entrant [`StreamDecoder`], per-connection
//!   [`CorkedWriter`] flushing with `EWOULDBLOCK` parking and
//!   `EPOLLOUT` re-arming, and wedged-peer deadlines on a
//!   [timer wheel](timer);
//! * the [`Handler`] does protocol: it is handed each decoded
//!   [`Message`] and runs what the frame asks for to completion on the
//!   reactor thread — in the daemon, fusing the readings it carries, or
//!   handing them to one of the service's helper threads;
//! * every connection owns an [`Outbox`] of encoded bytes. Whoever has a
//!   frame for the peer — the handler, or a step another thread ran —
//!   encodes it there. After each read the reactor moves the outbox into
//!   the connection's cork and flushes it, so a read's answers leave
//!   before the next read; bytes pushed from any other thread wake the
//!   owning reactor through the outbox.
//!
//! Backpressure composes with the reactor: inbound work runs on the
//! dispatch loop, so slow work slows the reading of sockets, which fills
//! TCP windows — the kernel applies backpressure to every peer at once.
//! Outbound, a peer that stops reading parks its connection on
//! `EPOLLOUT`; its outbox fills to its byte bound, then refuses frames
//! (the producer counts them), until the write deadline closes it.

pub mod decoder;
mod metrics;
mod timer;

use decoder::InPlaceStep;
pub use decoder::{DecodeStep, StreamDecoder};
pub use metrics::{ReactorMetrics, ReactorSnapshot};

use crate::cork::{CorkMetrics, CorkedWriter, FlushOutcome};
use crate::message::{BatchView, Message, MAX_FRAME_LEN};
use bytes::BytesMut;
use parking_lot::Mutex;
use std::io::{self, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sysio::{Epoll, Interest, WakePipe};
use timer::{TimerEntry, TimerWheel};

/// Registration token of the accept socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Registration token of the wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Timer token that re-probes a paused accept loop after fd exhaustion.
const TOKEN_ACCEPT_RESUME: u64 = u64::MAX - 2;

/// How long a paused accept loop waits before probing for free fds.
const ACCEPT_RESUME_PROBE: Duration = Duration::from_millis(50);

/// The size of a connection's first `read(2)`, and of the first read of a
/// dispatch after one that read no more than [`MAX_READ`].
const READ_CHUNK: usize = 16 * 1024;
/// The largest `read(2)`: a connection's read size doubles after each read
/// that filled it, up to this, so a socket that stays full is read (and its
/// answers pumped) once per 64 KiB instead of once per 16 KiB.
const MAX_READ: usize = 64 * 1024;
/// Bytes read per readiness event before yielding to other connections. A
/// firehose peer gets at most this much attention per dispatch; level
/// triggering re-reports it immediately if more is pending.
const READ_BUDGET: usize = 256 * 1024;

/// The size of a connection's next `read(2)`, after one at `size` that
/// `filled` it or came back short, with `dispatched` bytes read in the
/// dispatch so far: double after a full read, up to [`MAX_READ`]; after a
/// short one, which ends the dispatch, the same size when the dispatch
/// read more than [`MAX_READ`] in all, and [`READ_CHUNK`] otherwise.
fn next_read_size(size: usize, filled: bool, dispatched: usize) -> usize {
    if filled {
        (size * 2).min(MAX_READ)
    } else if dispatched > MAX_READ {
        size
    } else {
        READ_CHUNK
    }
}

/// Wedged-peer deadline: how long a connection may stay unwritable with
/// output pending before the reactor closes it.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Bytes an [`Outbox`] may hold before it refuses further frames: twice
/// the largest frame, so the verdicts one maximum-size `FeedBatch` fuses
/// (one `ResultBatch` per 64 readings, about a frame's worth of bytes)
/// fit whole, and a frame of any legal size fits below the bound. Only a
/// peer that stops reading can reach it: the outbox empties into the cork
/// after every read and every wake.
const OUTBOX_LIMIT: usize = 2 * MAX_FRAME_LEN;

/// Accept-queue depth the reactor re-arms on its listener (clamped by the
/// kernel to `net.core.somaxconn`). `std`'s bind hardwires 128, which a
/// many-hundred-connection storm overflows — the kernel then resets
/// handshakes the clients believe completed.
const ACCEPT_BACKLOG: i32 = 1024;

/// What [`Handler::on_frame`] wants done with the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameVerdict {
    /// Keep serving.
    Continue,
    /// Drop the connection (protocol error, shutdown frame, …).
    Close,
}

/// The protocol half of a reactor: one instance serves every connection,
/// called only from the reactor thread (no locking needed inside).
pub trait Handler: Send + 'static {
    /// Per-connection protocol state (open session lists, reply sink, …).
    type Conn: Send;

    /// A connection was accepted. Returns its state; `outbox` is where
    /// every frame for this peer is encoded, from any thread.
    fn on_open(&mut self, outbox: Arc<Outbox>) -> Self::Conn;

    /// One decoded inbound frame.
    fn on_frame(&mut self, conn: &mut Self::Conn, msg: Message) -> FrameVerdict;

    /// One decoded `FeedBatch` frame, its readings still in the decoder's
    /// buffer. The default copies them into the owned
    /// [`Message::FeedBatch`] and calls [`Handler::on_frame`].
    fn on_batch(
        &mut self,
        conn: &mut Self::Conn,
        session: u64,
        readings: BatchView<'_>,
    ) -> FrameVerdict {
        let readings = readings.to_vec();
        self.on_frame(conn, Message::FeedBatch { session, readings })
    }

    /// One socket read has been decoded: every frame it completed has been
    /// through [`Handler::on_frame`]. Called once per `read(2)` that
    /// returned bytes — after that read's last `on_frame` (also when that
    /// frame asked for `Close`, or the decoder died on a hostile prefix)
    /// and before [`Handler::on_close`] — so a handler may defer per-frame
    /// work to here and do it once per read. The default does nothing.
    fn on_read_end(&mut self, _conn: &mut Self::Conn) -> FrameVerdict {
        FrameVerdict::Continue
    }

    /// The connection is going away (EOF, error, hostile frame, wedged
    /// write deadline, or reactor shutdown). Called exactly once per
    /// connection. At reactor shutdown what the outbox holds afterwards
    /// is still flushed, best effort; otherwise the socket is already
    /// closed and the outbox refuses frames from then on.
    fn on_close(&mut self, conn: Self::Conn);
}

/// Cross-thread wake-up list shared by every [`ConnWaker`] of a reactor.
#[derive(Debug)]
struct WakeShared {
    /// Tokens with pending outbound work, deduplicated by each waker's
    /// dirty flag.
    pending: Mutex<Vec<u64>>,
    /// Whether a wake byte is already in flight — collapses any number of
    /// producer wakes into one pipe write per dispatch cycle.
    armed: AtomicBool,
    pipe: WakePipe,
}

impl WakeShared {
    fn new() -> io::Result<Arc<WakeShared>> {
        Ok(Arc::new(WakeShared {
            pending: Mutex::new(Vec::new()),
            armed: AtomicBool::new(false),
            pipe: WakePipe::new()?,
        }))
    }

    /// Disarm-then-take: a producer that pushes after the take must have
    /// swapped `armed` after our disarm, so it notifies the pipe and the
    /// next dispatch sees it. The pending tokens are swapped into `into`,
    /// which must be empty, so both lists keep their allocations; the one
    /// left pending is at least as large as the one taken, so neither
    /// grows again to a size the other already reached.
    fn take_pending(&self, into: &mut Vec<u64>) {
        debug_assert!(into.is_empty());
        self.armed.store(false, Ordering::SeqCst);
        let mut pending = self.pending.lock();
        std::mem::swap(&mut *pending, into);
        if pending.capacity() < into.capacity() {
            pending.reserve_exact(into.capacity());
        }
    }
}

/// Wakes the reactor for one connection's outbox. Cheap: a wake is one
/// atomic swap when already pending, one list push plus at most one pipe
/// write otherwise.
#[derive(Debug)]
struct ConnWaker {
    token: u64,
    dirty: Arc<AtomicBool>,
    shared: Arc<WakeShared>,
}

impl ConnWaker {
    /// Tells the reactor this connection's outbox has bytes. Safe from
    /// any thread, never blocks.
    fn wake(&self) {
        if !self.dirty.swap(true, Ordering::AcqRel) {
            self.shared.pending.lock().push(self.token);
            if !self.shared.armed.swap(true, Ordering::AcqRel) {
                let _ = self.shared.pipe.notify();
            }
        }
    }

    /// Reactor-side: re-enable wakes before draining, so a push racing
    /// the drain re-marks the connection.
    fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Release);
    }

    /// Reactor-side, before handling a read: marks the connection as if
    /// woken, so frames the read's own handling pushes cost no wake. The
    /// pump after the read clears the mark again.
    fn hold(&self) {
        self.dirty.store(true, Ordering::Release);
    }
}

/// A connection's outbound bytes: frames encoded by whichever thread has
/// something for the peer, waiting for the owning reactor to move them
/// into the connection's corked writer. The bound is in bytes — twice the
/// wire's maximum frame length — and an outbox at it, or one whose
/// connection has closed, refuses frames; their producer counts them as
/// shed.
#[derive(Debug)]
pub struct Outbox {
    pending: Mutex<Pending>,
    waker: ConnWaker,
}

/// What an [`Outbox`] holds.
#[derive(Debug, Default)]
struct Pending {
    bytes: BytesMut,
    /// Whole frames in `bytes`, for the writer's frame count.
    frames: u64,
    closed: bool,
}

impl Outbox {
    /// Appends the one whole frame `encode` writes and wakes the owning
    /// reactor. Returns `false`, without calling `encode`, when the outbox
    /// is full or its connection gone. Never blocks on the peer.
    pub fn push_with(&self, encode: impl FnOnce(&mut BytesMut)) -> bool {
        {
            let mut pending = self.pending.lock();
            if pending.closed || pending.bytes.len() >= OUTBOX_LIMIT {
                return false;
            }
            encode(&mut pending.bytes);
            pending.frames += 1;
        }
        self.waker.wake();
        true
    }

    /// [`Outbox::push_with`] for one message.
    pub fn push(&self, msg: &Message) -> bool {
        self.push_with(|bytes| msg.encode_into(bytes))
    }

    /// Moves everything pending to the end of `writer`'s cork.
    fn drain_into(&self, writer: &mut CorkedWriter<TcpStream>) {
        let mut pending = self.pending.lock();
        let frames = std::mem::take(&mut pending.frames);
        writer.append(&mut pending.bytes, frames);
    }

    /// The connection is gone: refuse every later frame and free the
    /// bytes nobody will read.
    fn close(&self) {
        let mut pending = self.pending.lock();
        pending.closed = true;
        pending.bytes = BytesMut::new();
        pending.frames = 0;
    }
}

/// Instrumentation for one reactor of a [`spawn_pool`].
#[derive(Debug, Default)]
pub struct ReactorConfig {
    /// Reactor health metrics.
    pub metrics: Option<ReactorMetrics>,
    /// Wire I/O cells: every connection's corked writer feeds the egress
    /// ones, and every byte read off a data-plane socket counts in
    /// `bytes_received`.
    pub cork_metrics: Option<CorkMetrics>,
    /// Health plane the reactor reports its `accept` domain into: the
    /// domain goes `degraded` while accepting is paused on fd exhaustion
    /// and returns to `ok` once the emergency reserve re-arms.
    pub health: Option<avoc_obs::Health>,
}

/// One running reactor thread of a [`ReactorPool`].
#[derive(Debug)]
struct ReactorHandle {
    stop: Arc<AtomicBool>,
    shared: Arc<WakeShared>,
    join: JoinHandle<()>,
}

impl ReactorHandle {
    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.pipe.notify();
        let _ = self.join.join();
    }
}

/// Starts one reactor thread on `listener`, with its own epoll instance
/// and wake pipe.
fn spawn_core<H: Handler>(
    handler: H,
    config: ReactorConfig,
    listener: TcpListener,
    paused_listeners: Arc<AtomicUsize>,
) -> io::Result<ReactorHandle> {
    let shared = WakeShared::new()?;
    let mut epoll = Epoll::new()?;
    listener.set_nonblocking(true)?;
    // Best-effort: where re-listen fails the listener keeps the backlog it
    // was bound with.
    let _ = sysio::widen_backlog(listener.as_raw_fd(), ACCEPT_BACKLOG);
    epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    epoll.add(shared.pipe.read_fd(), TOKEN_WAKE, Interest::READ)?;
    let stop = Arc::new(AtomicBool::new(false));
    let core = Core {
        handler,
        epoll,
        listener,
        shared: Arc::clone(&shared),
        stop: Arc::clone(&stop),
        slots: Vec::new(),
        free: Vec::new(),
        timers: TimerWheel::new(Instant::now()),
        expired: Vec::new(),
        woken: Vec::new(),
        read_buf: vec![0; READ_CHUNK],
        metrics: config.metrics,
        cork_metrics: config.cork_metrics,
        health: config.health,
        // One fd held in reserve: dropped on EMFILE so teardown paths can
        // still open sockets/files, re-armed before accepting resumes.
        fd_reserve: std::fs::File::open("/dev/null").ok(),
        accept_paused: false,
        paused_listeners,
    };
    let join = std::thread::Builder::new()
        .name("avoc-net-reactor".into())
        .spawn(move || core.run())?;
    Ok(ReactorHandle { stop, shared, join })
}

/// A sharded data plane: R reactors behind one address, each accepting on
/// its own listener.
#[derive(Debug)]
pub struct ReactorPool {
    reactors: Vec<ReactorHandle>,
    local_addr: SocketAddr,
}

impl ReactorPool {
    /// The address tenants connect to (every reactor serves it).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// How many reactor threads the pool runs.
    pub fn reactor_count(&self) -> usize {
        self.reactors.len()
    }

    /// Stops every reactor and joins its thread. Every live connection
    /// gets [`Handler::on_close`] and a best-effort flush of its outbox;
    /// a reactor flushes all of its connections together, without
    /// blocking, for at most one write deadline. Dropping the pool without
    /// calling this leaves the threads running (detached).
    pub fn shutdown(self) {
        for handle in self.reactors {
            handle.shutdown();
        }
    }
}

/// Binds `addr` and spawns `reactors` event-loop threads serving it
/// (clamped to at least 1).
///
/// One reactor serves a plain listener. Several each get their own
/// `SO_REUSEPORT` listener on the same port and the kernel spreads
/// handshakes across them. `handler_for(i)`/`config_for(i)` build each
/// reactor's protocol handler and instrumentation — handlers typically
/// share state through `Arc`s, configs typically differ only in
/// per-reactor metric labels.
///
/// # Errors
///
/// Propagates bind, wake-pipe, and registration failures: a port some
/// other socket holds — another pool's reuseport group included — is
/// `AddrInUse`, and a group that cannot be completed fails the start
/// before any reactor is spawned (reactors already spawned when a later
/// one fails are shut down first).
pub fn spawn_pool<H, MkH, MkC>(
    addr: &str,
    reactors: usize,
    mut handler_for: MkH,
    mut config_for: MkC,
) -> io::Result<ReactorPool>
where
    H: Handler,
    MkH: FnMut(usize) -> H,
    MkC: FnMut(usize) -> ReactorConfig,
{
    let r = reactors.max(1);
    // A plain bind refuses any held port, reuseport groups included, so a
    // second pool can never join a live one's group; it also resolves
    // port 0.
    let plain = TcpListener::bind(addr)?;
    let local_addr = plain.local_addr()?;
    let listeners = if r == 1 {
        vec![plain]
    } else {
        // The group takes the port over. Between this drop and the first
        // group bind another reuseport socket could still slip in, and a
        // handshake that landed on the dropped listener is reset (its
        // client retries).
        drop(plain);
        (0..r)
            .map(|_| sysio::reuseport_listener(local_addr, ACCEPT_BACKLOG))
            .collect::<io::Result<Vec<_>>>()?
    };

    let paused_listeners = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::with_capacity(r);
    for (i, listener) in listeners.into_iter().enumerate() {
        let spawned = spawn_core(
            handler_for(i),
            config_for(i),
            listener,
            Arc::clone(&paused_listeners),
        );
        match spawned {
            Ok(h) => handles.push(h),
            Err(e) => {
                for h in handles {
                    h.shutdown();
                }
                return Err(e);
            }
        }
    }
    Ok(ReactorPool {
        reactors: handles,
        local_addr,
    })
}

/// One live connection: transport state owned by the reactor thread.
struct Conn<C> {
    /// Owns the socket; reads go through [`CorkedWriter::get_mut`].
    writer: CorkedWriter<TcpStream>,
    decoder: StreamDecoder,
    outbox: Arc<Outbox>,
    state: C,
    /// Whether `EPOLLOUT` is currently armed (flush parked on a full
    /// socket).
    write_armed: bool,
    /// Live deadline generation; wheel entries with an older generation
    /// are cancelled timers.
    deadline_gen: u64,
    /// How many bytes the next `read(2)` asks for: [`READ_CHUNK`], doubled
    /// after each read that filled it, up to [`MAX_READ`], and kept into
    /// the next dispatch after one that read more than [`MAX_READ`].
    read_size: usize,
}

impl<C> Conn<C> {
    /// Moves the outbox into the cork and flushes what the socket accepts,
    /// managing `EPOLLOUT` interest and the wedged-peer deadline. The cork
    /// takes the outbox only once it is empty, so a parked connection
    /// holds at most one outbox's worth there and the rest waits, bounded,
    /// in the outbox. Returns `false` when the socket failed.
    fn pump(&mut self, token: u64, epoll: &mut Epoll, timers: &mut TimerWheel) -> bool {
        self.outbox.waker.clear_dirty();
        let before = self.writer.stats().bytes;
        let blocked = loop {
            if !self.writer.has_pending() {
                self.outbox.drain_into(&mut self.writer);
                if !self.writer.has_pending() {
                    break false;
                }
            }
            // An injected EINTR is transparent here — the corked writer's
            // inner `write` already retries it; only EAGAIN (park on
            // EPOLLOUT) and hard errors change the outcome.
            let flushed = match sysio::fault::check(sysio::fault::Site::SockWrite) {
                None | Some(sysio::fault::Kind::Eintr) => self.writer.flush_nonblocking(),
                Some(sysio::fault::Kind::Eagain) => Ok(FlushOutcome::Blocked),
                Some(k) => Err(k.to_error()),
            };
            match flushed {
                Ok(FlushOutcome::Drained) => {}
                Ok(FlushOutcome::Blocked) => break true,
                Err(_) => return false,
            }
        };
        let fd = self.writer.get_ref().as_raw_fd();
        if blocked {
            let progressed = self.writer.stats().bytes > before;
            let newly_armed = !self.write_armed;
            if newly_armed {
                self.write_armed = true;
                let _ = epoll.modify(fd, token, Interest::READ_WRITE);
            }
            if newly_armed || progressed {
                // Arm (or push back) the wedged-peer deadline: any byte of
                // progress restarts the clock, mirroring the old per-write
                // socket deadline.
                self.deadline_gen += 1;
                timers.schedule(
                    Instant::now(),
                    WRITE_DEADLINE,
                    TimerEntry {
                        token,
                        generation: self.deadline_gen,
                    },
                );
            }
        } else if self.write_armed {
            self.write_armed = false;
            self.deadline_gen += 1; // lazy-cancel the armed deadline
            let _ = epoll.modify(fd, token, Interest::READ);
        }
        true
    }
}

struct Slot<C> {
    /// Bumped on every reuse so stale events and timers can't touch a
    /// successor connection.
    gen: u32,
    /// `None` while the slot is free.
    conn: Option<Conn<C>>,
}

fn make_token(gen: u32, idx: usize) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn token_parts(token: u64) -> (u32, usize) {
    ((token >> 32) as u32, (token & 0xffff_ffff) as usize)
}

struct Core<H: Handler> {
    handler: H,
    epoll: Epoll,
    /// This reactor's accept socket.
    listener: TcpListener,
    shared: Arc<WakeShared>,
    stop: Arc<AtomicBool>,
    slots: Vec<Slot<H::Conn>>,
    free: Vec<usize>,
    timers: TimerWheel,
    expired: Vec<TimerEntry>,
    /// The tokens producers woke, taken from [`WakeShared`] each dispatch.
    woken: Vec<u64>,
    /// The buffer every `read(2)` lands in: its whole frames are parsed
    /// where they lie, and a connection's decoder copies out only a frame
    /// the read cut off. It grows, zero-filled, to the largest read asked
    /// for, so a reactor whose reads never grow past [`READ_CHUNK`] holds
    /// no more.
    read_buf: Vec<u8>,
    metrics: Option<ReactorMetrics>,
    cork_metrics: Option<CorkMetrics>,
    health: Option<avoc_obs::Health>,
    /// Emergency fd kept open so that hitting `EMFILE` never leaves the
    /// reactor unable to make progress; surrendered while accept is
    /// paused, reopened before resuming.
    fd_reserve: Option<std::fs::File>,
    /// Whether the listener is currently deregistered because the process
    /// ran out of file descriptors.
    accept_paused: bool,
    /// Pool-wide count of paused listeners: the shared health plane's
    /// `accept` domain stays degraded while *any* reactor is paused and
    /// recovers only when the last one resumes.
    paused_listeners: Arc<AtomicUsize>,
}

impl<H: Handler> Core<H> {
    fn run(mut self) {
        let mut events = Vec::new();
        loop {
            let timeout = if self.stop.load(Ordering::SeqCst) {
                0
            } else {
                self.timers.next_timeout_ms(Instant::now()).unwrap_or(-1)
            };
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break, // epoll broke: nothing sane left to do
            };
            if let Some(m) = &self.metrics {
                m.epoll_wakeups.inc();
                m.events.add(n as u64);
            }
            let t0 = Instant::now();
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.shared.pipe.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_event(
                        token,
                        ev.readable || ev.is_hangup || ev.is_error,
                        ev.writable,
                    ),
                }
            }
            if n > 0 {
                if let Some(m) = &self.metrics {
                    m.readiness_dispatch_ns
                        .record(t0.elapsed().as_nanos() as u64);
                }
            }
            self.process_dirty();
            self.expire_deadlines(Instant::now());
            if let Some(m) = &self.metrics {
                m.loop_iter_ns.record(t0.elapsed().as_nanos() as u64);
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        self.teardown();
    }

    fn accept_ready(&mut self) {
        loop {
            match sysio::fault::check(sysio::fault::Site::Accept) {
                None => {}
                Some(sysio::fault::Kind::Eintr) => continue,
                Some(sysio::fault::Kind::Eagain) => break,
                Some(sysio::fault::Kind::Emfile) => {
                    self.pause_accept();
                    return;
                }
                Some(_) => break,
            }
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Out of fds (EMFILE/ENFILE): accepting again would spin —
                // level triggering re-reports the pending handshake every
                // wakeup while the accept can never succeed. Deregister
                // the listener and come back on a timer instead.
                Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                    self.pause_accept();
                    return;
                }
                // Other transient accept failures (aborted handshake):
                // skip this readiness event; level triggering retries.
                Err(_) => break,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.register_stream(stream);
        }
    }

    /// Installs one accepted (non-blocking, nodelay) socket into a slot:
    /// the point where a connection becomes this reactor's for life.
    fn register_stream(&mut self, stream: TcpStream) {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[idx];
        slot.gen = slot.gen.wrapping_add(1);
        let token = make_token(slot.gen, idx);
        let outbox = Arc::new(Outbox {
            pending: Mutex::new(Pending::default()),
            waker: ConnWaker {
                token,
                dirty: Arc::new(AtomicBool::new(false)),
                shared: Arc::clone(&self.shared),
            },
        });
        let state = self.handler.on_open(Arc::clone(&outbox));
        let mut writer = CorkedWriter::new(stream);
        if let Some(cm) = &self.cork_metrics {
            writer.set_metrics(cm.clone());
        }
        if self
            .epoll
            .add(writer.get_ref().as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            // Registration failed: give the handler its close and drop
            // the socket; the slot stays free for the next accept.
            self.handler.on_close(state);
            outbox.close();
            self.free.push(idx);
            return;
        }
        self.slots[idx].conn = Some(Conn {
            writer,
            decoder: StreamDecoder::new(),
            outbox,
            state,
            write_armed: false,
            deadline_gen: 0,
            read_size: READ_CHUNK,
        });
        if let Some(m) = &self.metrics {
            m.accepted.inc();
            m.connections_open.add(1);
        }
    }

    /// Stops accepting: deregisters the listener (so the pending
    /// handshake stops re-waking the loop), surrenders the emergency fd
    /// reserve to give close/teardown paths headroom, flags the health
    /// plane, and schedules a resume probe. Existing connections keep
    /// being served — fd exhaustion degrades admission, not service.
    fn pause_accept(&mut self) {
        if self.accept_paused {
            return;
        }
        self.accept_paused = true;
        let _ = self.epoll.remove(self.listener.as_raw_fd());
        self.fd_reserve = None;
        self.paused_listeners.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = &self.metrics {
            m.accept_pauses.inc();
        }
        if let Some(h) = &self.health {
            h.set(
                "accept",
                avoc_obs::HealthLevel::Degraded,
                "out of file descriptors; accept paused, serving existing connections",
            );
        }
        self.schedule_accept_probe();
    }

    fn schedule_accept_probe(&mut self) {
        self.timers.schedule(
            Instant::now(),
            ACCEPT_RESUME_PROBE,
            TimerEntry {
                token: TOKEN_ACCEPT_RESUME,
                generation: 0,
            },
        );
    }

    /// Probes whether fds are available again: re-arms the emergency
    /// reserve and re-registers the listener. Either step failing means
    /// the process is still exhausted — stay paused and re-probe.
    fn resume_accept(&mut self) {
        if !self.accept_paused {
            return;
        }
        let Ok(reserve) = std::fs::File::open("/dev/null") else {
            self.schedule_accept_probe();
            return;
        };
        if self
            .epoll
            .add(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
        {
            self.schedule_accept_probe();
            return;
        }
        self.fd_reserve = Some(reserve);
        self.accept_paused = false;
        // The shared `accept` domain recovers only when the *last* paused
        // listener in the pool resumes; a sibling still out of fds keeps
        // /healthz degraded.
        if self.paused_listeners.fetch_sub(1, Ordering::SeqCst) == 1 {
            if let Some(h) = &self.health {
                h.set("accept", avoc_obs::HealthLevel::Ok, "");
            }
        }
        // Catch up on handshakes that queued while paused; the listener's
        // readiness edge may have been consumed before the pause.
        self.accept_ready();
    }

    /// Dispatches one readiness event for a connection token. Stale
    /// tokens (slot since reused or freed) are ignored.
    fn conn_event(&mut self, token: u64, readable: bool, writable: bool) {
        let (gen, idx) = token_parts(token);
        let Some(slot) = self.slots.get(idx) else {
            return;
        };
        if slot.gen != gen || slot.conn.is_none() {
            return;
        }
        if readable && !self.read_ready(idx) {
            return; // connection closed while reading
        }
        if writable {
            self.pump(idx);
        }
    }

    /// Reads until the socket runs dry (or the byte budget is spent),
    /// decoding each read where it lies and feeding the handler; after each read the
    /// connection's outbox is moved into its cork and flushed, unless the
    /// connection is parked on `EPOLLOUT`. A read that fills its size
    /// doubles the next one, up to [`MAX_READ`]; a short read means the
    /// socket is drained and ends the dispatch. The next dispatch starts at
    /// the size the short read asked for when this one read more than
    /// [`MAX_READ`] in all — a peer that refills the socket faster than it
    /// is read keeps its large reads — and at [`READ_CHUNK`] otherwise, so
    /// a burst that fits in a read or two is read as it always was.
    /// Returns `false` when the connection was closed.
    fn read_ready(&mut self, idx: usize) -> bool {
        let mut close = false;
        {
            let Core {
                handler,
                slots,
                epoll,
                timers,
                cork_metrics,
                read_buf,
                ..
            } = &mut *self;
            let slot = &mut slots[idx];
            let token = make_token(slot.gen, idx);
            let Some(conn) = &mut slot.conn else {
                return false;
            };
            let mut budget = READ_BUDGET;
            while budget > 0 {
                match sysio::fault::check(sysio::fault::Site::SockRead) {
                    None => {}
                    Some(sysio::fault::Kind::Eintr) => continue,
                    Some(sysio::fault::Kind::Eagain) => break,
                    Some(_) => {
                        close = true;
                        break;
                    }
                }
                let want = conn.read_size.min(budget);
                if read_buf.len() < want {
                    read_buf.resize(want, 0);
                }
                let chunk = &mut read_buf[..want];
                let n = match conn.writer.get_mut().read(chunk) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                };
                budget -= n;
                let filled = n == chunk.len();
                conn.read_size = next_read_size(conn.read_size, filled, READ_BUDGET - budget);
                if let Some(m) = cork_metrics {
                    m.bytes_received.add(n as u64);
                }
                if !conn.write_armed {
                    conn.outbox.waker.hold();
                }
                let mut input = &chunk[..n];
                loop {
                    let verdict = match conn.decoder.next_from(&mut input) {
                        InPlaceStep::Frame(msg) => handler.on_frame(&mut conn.state, msg),
                        InPlaceStep::Batch { session, readings } => {
                            handler.on_batch(&mut conn.state, session, readings)
                        }
                        InPlaceStep::Skipped(_) => FrameVerdict::Continue,
                        InPlaceStep::Incomplete => break,
                        // Hostile length prefix: the decoder has already
                        // shed its buffer; drop the connection.
                        InPlaceStep::Dead(_) => FrameVerdict::Close,
                    };
                    if verdict == FrameVerdict::Close {
                        close = true;
                        break;
                    }
                }
                close |= handler.on_read_end(&mut conn.state) == FrameVerdict::Close;
                if close {
                    break;
                }
                // This read's answers leave before the next read.
                if !conn.write_armed && !conn.pump(token, epoll, timers) {
                    close = true;
                    break;
                }
                if !filled {
                    break; // short read: the socket is drained
                }
            }
        }
        if close {
            self.close_live(idx);
            return false;
        }
        true
    }

    /// Pumps the live connection in slot `idx` (see [`Conn::pump`]),
    /// closing it when its socket failed.
    fn pump(&mut self, idx: usize) {
        let Core {
            slots,
            epoll,
            timers,
            ..
        } = &mut *self;
        let slot = &mut slots[idx];
        let token = make_token(slot.gen, idx);
        let alive = match &mut slot.conn {
            Some(conn) => conn.pump(token, epoll, timers),
            None => true,
        };
        if !alive {
            self.close_live(idx);
        }
    }

    /// Services every token producers woke since the last dispatch. A
    /// connection parked on `EPOLLOUT` keeps its wake mark and waits for
    /// writability, which pumps it anyway.
    fn process_dirty(&mut self) {
        let mut woken = std::mem::take(&mut self.woken);
        self.shared.take_pending(&mut woken);
        for token in woken.drain(..) {
            let (gen, idx) = token_parts(token);
            let due = self.slots.get(idx).is_some_and(|slot| {
                slot.gen == gen && slot.conn.as_ref().is_some_and(|c| !c.write_armed)
            });
            if due {
                self.pump(idx);
            }
        }
        self.woken = woken;
    }

    fn expire_deadlines(&mut self, now: Instant) {
        let mut expired = std::mem::take(&mut self.expired);
        self.timers.advance(now, &mut expired);
        for entry in expired.drain(..) {
            if entry.token == TOKEN_ACCEPT_RESUME {
                self.resume_accept();
                continue;
            }
            let (gen, idx) = token_parts(entry.token);
            let Some(slot) = self.slots.get(idx) else {
                continue;
            };
            if slot.gen != gen {
                continue;
            }
            let Some(conn) = &slot.conn else {
                continue;
            };
            // Only the *latest* armed deadline counts; anything older was
            // cancelled by progress or a completed drain.
            if !conn.write_armed || conn.deadline_gen != entry.generation {
                continue;
            }
            if let Some(m) = &self.metrics {
                m.wedged_closed.inc();
            }
            self.close_live(idx);
        }
        self.expired = expired;
    }

    /// Tears one live connection down: deregisters and closes the socket,
    /// gives the handler its `on_close`, closes the outbox and frees the
    /// slot — all at once, waiting on no one.
    fn close_live(&mut self, idx: usize) {
        let Some(Conn {
            writer,
            outbox,
            state,
            ..
        }) = self.slots[idx].conn.take()
        else {
            return;
        };
        let _ = self.epoll.remove(writer.get_ref().as_raw_fd());
        drop(writer); // closes the fd
        if let Some(m) = &self.metrics {
            m.connections_open.add(-1);
        }
        self.handler.on_close(state);
        outbox.close();
        self.free.push(idx);
    }

    /// Graceful exit: every live connection gets `on_close` (closing or
    /// detaching its sessions flushes their in-flight rounds into the
    /// outbox), then the corks and outboxes of all of them are flushed
    /// together, without blocking, for at most one write deadline in all —
    /// so results of rounds already fed still reach tenants, and peers that
    /// stopped reading hold shutdown up no longer than one of them would.
    fn teardown(mut self) {
        let _ = self.epoll.remove(self.listener.as_raw_fd());
        let mut flushing = Vec::new();
        for slot in &mut self.slots {
            let Some(Conn {
                mut writer,
                outbox,
                state,
                ..
            }) = slot.conn.take()
            else {
                continue;
            };
            if let Some(m) = &self.metrics {
                m.connections_open.add(-1);
            }
            self.handler.on_close(state);
            outbox.drain_into(&mut writer);
            outbox.close();
            // Woken by writability alone from here on: a peer that keeps
            // sending while it never reads must not spin the loop below.
            let fd = writer.get_ref().as_raw_fd();
            let writable = Interest {
                readable: false,
                writable: true,
            };
            let _ = self.epoll.modify(fd, fd as u64, writable);
            flushing.push(writer);
        }
        let deadline = Instant::now() + WRITE_DEADLINE;
        let mut events = Vec::new();
        loop {
            // Dropping a writer closes its socket: a drained one, and one
            // whose peer is gone.
            flushing.retain_mut(|w| matches!(w.flush_nonblocking(), Ok(FlushOutcome::Blocked)));
            let left = deadline.saturating_duration_since(Instant::now());
            if flushing.is_empty() || left.is_zero() {
                break;
            }
            let wait_ms = left.as_millis().clamp(1, i32::MAX as u128) as i32;
            if self.epoll.wait(&mut events, wait_ms).is_err() {
                break;
            }
            self.shared.pipe.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_core::ModuleId;
    use std::io::Write as _;
    use std::sync::atomic::AtomicU64;

    /// Serializes tests that accept connections: fault plans target the
    /// whole process, so a concurrently-running reactor would otherwise
    /// steal (or trip over) an injected accept fault.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A protocol stub: echoes every `SessionReading` back as a
    /// `SessionResult` and counts closes.
    struct Echo {
        closes: Arc<AtomicU64>,
    }

    struct EchoConn {
        outbox: Arc<Outbox>,
    }

    impl Handler for Echo {
        type Conn = EchoConn;

        fn on_open(&mut self, outbox: Arc<Outbox>) -> EchoConn {
            EchoConn { outbox }
        }

        fn on_frame(&mut self, conn: &mut EchoConn, msg: Message) -> FrameVerdict {
            match msg {
                Message::SessionReading {
                    session,
                    round,
                    value,
                    ..
                } => {
                    conn.outbox.push(&Message::SessionResult {
                        session,
                        round,
                        value: Some(value),
                        voted: true,
                    });
                    FrameVerdict::Continue
                }
                Message::Shutdown => FrameVerdict::Close,
                _ => FrameVerdict::Continue,
            }
        }

        fn on_close(&mut self, _conn: EchoConn) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The classic single reactor: a pool of one on an ephemeral port.
    fn spawn_one<H: Handler>(handler: H, config: ReactorConfig) -> ReactorPool {
        let (mut handler, mut config) = (Some(handler), Some(config));
        spawn_pool(
            "127.0.0.1:0",
            1,
            move |_| handler.take().expect("one reactor"),
            move |_| config.take().expect("one reactor"),
        )
        .unwrap()
    }

    /// A dispatch of a bulk peer — 16, 32 and 64 KiB reads, then 64 KiB
    /// reads and a short one past [`MAX_READ`] in all — leaves the next
    /// dispatch's first read at 64 KiB; a burst that fits in [`MAX_READ`]
    /// leaves it at [`READ_CHUNK`], however large its reads grew.
    #[test]
    fn a_bulk_dispatch_keeps_its_read_size_into_the_next() {
        const KIB: usize = 1024;
        let mut size = READ_CHUNK;
        let mut dispatched = 0;
        for n in [16 * KIB, 32 * KIB, 64 * KIB, 64 * KIB] {
            assert_eq!(size, n);
            dispatched += n;
            size = next_read_size(size, true, dispatched);
        }
        assert_eq!(next_read_size(size, false, dispatched + 9 * KIB), MAX_READ);
        // A tick's 21 KiB burst: a full 16 KiB read and a short one.
        let size = next_read_size(READ_CHUNK, true, 16 * KIB);
        assert_eq!(next_read_size(size, false, 21 * KIB), READ_CHUNK);
        // Up to MAX_READ in all still resets, after a 64 KiB read too.
        assert_eq!(next_read_size(MAX_READ, false, MAX_READ), READ_CHUNK);
        assert_eq!(next_read_size(32 * KIB, false, MAX_READ + 1), 32 * KIB);
    }

    #[test]
    fn echo_roundtrip() {
        let _gate = serial();
        let closes = Arc::new(AtomicU64::new(0));
        let handle = spawn_one(
            Echo {
                closes: Arc::clone(&closes),
            },
            ReactorConfig::default(),
        );

        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        // Send 100 readings, some split across arbitrary write boundaries.
        let mut wire = Vec::new();
        for round in 0..100u64 {
            wire.extend_from_slice(
                &Message::SessionReading {
                    session: 1,
                    module: ModuleId::new(0),
                    round,
                    value: round as f64,
                }
                .encode(),
            );
        }
        for chunk in wire.chunks(7) {
            client.write_all(chunk).unwrap();
        }
        // Collect the 100 echoes with the blocking one-shot decoder.
        let mut buf = bytes::BytesMut::new();
        let mut got = 0u64;
        let mut chunk = [0u8; 4096];
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        while got < 100 {
            let n = client.read(&mut chunk).expect("echoes arrive");
            assert!(n > 0, "server hung up early");
            buf.extend_from_slice(&chunk[..n]);
            loop {
                match Message::decode(&mut buf) {
                    Ok(Message::SessionResult { round, value, .. }) => {
                        assert_eq!(value, Some(round as f64));
                        got += 1;
                    }
                    Ok(other) => panic!("unexpected echo {other:?}"),
                    Err(_) => break,
                }
            }
        }

        // A hostile length prefix drops the connection.
        let mut hostile = TcpStream::connect(handle.local_addr()).unwrap();
        hostile
            .write_all(&(crate::message::MAX_FRAME_LEN as u32 + 1).to_be_bytes())
            .unwrap();
        hostile
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            hostile.read(&mut chunk).unwrap_or(0),
            0,
            "hostile peer gets closed"
        );

        drop(client);
        handle.shutdown();
        assert_eq!(
            closes.load(Ordering::SeqCst),
            2,
            "every accepted connection got exactly one on_close"
        );
    }

    #[test]
    fn emfile_pauses_accept_then_resumes_with_health_recovery() {
        let _gate = serial();
        let registry = avoc_obs::Registry::new();
        let metrics = ReactorMetrics::register(&registry, &[]);
        let health = avoc_obs::Health::new();
        let closes = Arc::new(AtomicU64::new(0));
        let handle = spawn_one(
            Echo {
                closes: Arc::clone(&closes),
            },
            ReactorConfig {
                metrics: Some(metrics.clone()),
                health: Some(health.clone()),
                ..ReactorConfig::default()
            },
        );

        // The first accept readiness hits an injected EMFILE: the reactor
        // must pause (listener deregistered, health degraded) instead of
        // spinning, then resume on the probe timer and accept the
        // handshake that waited in the backlog.
        sysio::fault::install(sysio::fault::Plan::new(7).rule(
            sysio::fault::Site::Accept,
            sysio::fault::Kind::Emfile,
            1,
            1,
        ));
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while metrics.accept_pauses.get() == 0 {
            assert!(Instant::now() < deadline, "accept never paused");
            std::thread::sleep(Duration::from_millis(5));
        }
        sysio::fault::clear();

        // The connection completes after the resume probe and serves
        // traffic normally.
        client
            .write_all(
                &Message::SessionReading {
                    session: 9,
                    module: ModuleId::new(0),
                    round: 1,
                    value: 4.5,
                }
                .encode(),
            )
            .unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = bytes::BytesMut::new();
        let mut chunk = [0u8; 4096];
        let echoed = loop {
            let n = client.read(&mut chunk).expect("echo arrives after resume");
            assert!(n > 0, "server hung up");
            buf.extend_from_slice(&chunk[..n]);
            if let Ok(msg) = Message::decode(&mut buf) {
                break msg;
            }
        };
        assert!(
            matches!(
                echoed,
                Message::SessionResult {
                    round: 1,
                    value: Some(v),
                    ..
                } if v == 4.5
            ),
            "unexpected echo {echoed:?}"
        );
        assert_eq!(metrics.accept_pauses.get(), 1, "exactly one pause");
        assert!(health.is_ok(), "health recovered after resume");

        drop(client);
        handle.shutdown();
    }

    #[test]
    fn injected_eintr_on_every_socket_site_is_invisible() {
        let _gate = serial();
        // EINTR on accept, reads, writes and `epoll_wait` must be
        // retried/absorbed with no observable effect: the full echo
        // roundtrip still passes.
        sysio::fault::install(
            sysio::fault::Plan::new(11)
                .rule(sysio::fault::Site::Accept, sysio::fault::Kind::Eintr, 1, 4)
                .rule(
                    sysio::fault::Site::EpollWait,
                    sysio::fault::Kind::Eintr,
                    1,
                    4,
                )
                .rule(
                    sysio::fault::Site::SockRead,
                    sysio::fault::Kind::Eintr,
                    1,
                    4,
                )
                .rule(
                    sysio::fault::Site::SockWrite,
                    sysio::fault::Kind::Eintr,
                    1,
                    4,
                ),
        );
        let injected_before = sysio::fault::injected_total();
        let closes = Arc::new(AtomicU64::new(0));
        let handle = spawn_one(
            Echo {
                closes: Arc::clone(&closes),
            },
            ReactorConfig::default(),
        );
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        for round in 0..10u64 {
            client
                .write_all(
                    &Message::SessionReading {
                        session: 3,
                        module: ModuleId::new(0),
                        round,
                        value: round as f64,
                    }
                    .encode(),
                )
                .unwrap();
        }
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = bytes::BytesMut::new();
        let mut chunk = [0u8; 4096];
        let mut got = 0u64;
        while got < 10 {
            let n = client.read(&mut chunk).expect("echoes survive EINTR");
            assert!(n > 0, "server hung up under EINTR");
            buf.extend_from_slice(&chunk[..n]);
            while let Ok(msg) = Message::decode(&mut buf) {
                match msg {
                    Message::SessionResult { round, value, .. } => {
                        assert_eq!(value, Some(round as f64));
                        got += 1;
                    }
                    other => panic!("unexpected echo {other:?}"),
                }
            }
        }
        assert!(
            sysio::fault::injected_total() > injected_before,
            "the EINTR rules actually fired"
        );
        sysio::fault::clear();
        drop(client);
        handle.shutdown();
        assert_eq!(closes.load(Ordering::SeqCst), 1);
    }

    /// Drives `clients` concurrent echo roundtrips through a pool and
    /// asserts every connection got served and closed exactly once.
    fn run_pool_echo(pool: ReactorPool, clients: usize, closes: &Arc<AtomicU64>) {
        let addr = pool.local_addr();
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut sock = TcpStream::connect(addr).unwrap();
                    sock.set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    for round in 0..25u64 {
                        sock.write_all(
                            &Message::SessionReading {
                                session: c as u64,
                                module: ModuleId::new(0),
                                round,
                                value: round as f64 + c as f64,
                            }
                            .encode(),
                        )
                        .unwrap();
                    }
                    let mut buf = bytes::BytesMut::new();
                    let mut chunk = [0u8; 4096];
                    let mut got = 0u64;
                    while got < 25 {
                        let n = sock.read(&mut chunk).expect("pool echoes arrive");
                        assert!(n > 0, "pool reactor hung up early");
                        buf.extend_from_slice(&chunk[..n]);
                        while let Ok(msg) = Message::decode(&mut buf) {
                            match msg {
                                Message::SessionResult {
                                    session,
                                    round,
                                    value,
                                    ..
                                } => {
                                    assert_eq!(
                                        session, c as u64,
                                        "pinned: replies come back on the opening connection"
                                    );
                                    assert_eq!(value, Some(round as f64 + c as f64));
                                    got += 1;
                                }
                                other => panic!("unexpected echo {other:?}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        pool.shutdown();
        assert_eq!(
            closes.load(Ordering::SeqCst),
            clients as u64,
            "every pooled connection got exactly one on_close"
        );
    }

    /// A pool of `reactors` echo reactors on `addr`, counting closes.
    fn spawn_echo_pool(
        addr: &str,
        reactors: usize,
        closes: &Arc<AtomicU64>,
    ) -> io::Result<ReactorPool> {
        let closes = Arc::clone(closes);
        spawn_pool(
            addr,
            reactors,
            move |_| Echo {
                closes: Arc::clone(&closes),
            },
            |_| ReactorConfig::default(),
        )
    }

    /// One reading out and its echo back on a fresh connection to `addr`.
    fn echo_once(addr: SocketAddr) -> io::Result<()> {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_read_timeout(Some(Duration::from_secs(5)))?;
        sock.write_all(
            &Message::SessionReading {
                session: 1,
                module: ModuleId::new(0),
                round: 0,
                value: 2.5,
            }
            .encode(),
        )?;
        let mut buf = bytes::BytesMut::new();
        let mut chunk = [0u8; 256];
        loop {
            let n = sock.read(&mut chunk)?;
            assert!(n > 0, "server hung up before echoing");
            buf.extend_from_slice(&chunk[..n]);
            if let Ok(msg) = Message::decode(&mut buf) {
                assert!(
                    matches!(msg, Message::SessionResult { value: Some(v), .. } if v == 2.5),
                    "unexpected echo {msg:?}"
                );
                return Ok(());
            }
        }
    }

    #[test]
    fn pool_serves_on_reuseport_listeners() {
        let _gate = serial();
        let closes = Arc::new(AtomicU64::new(0));
        let pool = spawn_echo_pool("127.0.0.1:0", 4, &closes).unwrap();
        assert_eq!(pool.reactor_count(), 4);
        run_pool_echo(pool, 8, &closes);
    }

    #[test]
    fn pool_start_fails_when_reuseport_bind_faults() {
        let _gate = serial();
        // The injected fault kills the first reuseport bind: a pool of
        // several reactors is one reuseport group or nothing, so the start
        // fails with that error.
        sysio::fault::install(sysio::fault::Plan::new(31).rule(
            sysio::fault::Site::ListenerSetup,
            sysio::fault::Kind::Emfile,
            1,
            1,
        ));
        let closes = Arc::new(AtomicU64::new(0));
        let started = spawn_echo_pool("127.0.0.1:0", 2, &closes);
        sysio::fault::clear();
        let err = started.expect_err("a broken group fails the start");
        assert_eq!(err.raw_os_error(), Some(24));
    }

    #[test]
    fn single_reactor_pool_reports_single_mode() {
        let _gate = serial();
        let closes = Arc::new(AtomicU64::new(0));
        let pool = spawn_echo_pool("127.0.0.1:0", 1, &closes).unwrap();
        assert_eq!(pool.reactor_count(), 1);
        run_pool_echo(pool, 3, &closes);
    }

    #[test]
    fn a_second_pool_cannot_share_a_pools_port() {
        let _gate = serial();
        let closes = Arc::new(AtomicU64::new(0));
        let first = spawn_echo_pool("127.0.0.1:0", 2, &closes).unwrap();
        let taken = first.local_addr().to_string();
        for reactors in [1, 2] {
            let second = spawn_echo_pool(&taken, reactors, &closes);
            let err = second.expect_err("a live pool's port is refused");
            assert_eq!(
                err.kind(),
                io::ErrorKind::AddrInUse,
                "{reactors} reactor(s)"
            );
        }
        // Every handshake still reaches the first pool, whichever of its
        // listeners the kernel picks.
        for _ in 0..8 {
            echo_once(first.local_addr()).unwrap();
        }
        first.shutdown();
    }

    #[test]
    fn a_pool_on_the_ipv6_wildcard_serves_ipv4_clients() {
        let _gate = serial();
        let closes = Arc::new(AtomicU64::new(0));
        for reactors in [1, 2] {
            let pool = spawn_echo_pool("[::]:0", reactors, &closes).unwrap();
            let port = pool.local_addr().port();
            for client in ["127.0.0.1", "[::1]"] {
                let addr = format!("{client}:{port}").parse().unwrap();
                echo_once(addr).unwrap_or_else(|e| panic!("{reactors} reactor(s), {client}: {e}"));
            }
            pool.shutdown();
        }
    }

    /// Logs every callback; answers each read from `on_read_end` with a
    /// heartbeat, so the client can tell one read has been fully handled.
    struct Journal {
        log: Arc<Mutex<Vec<&'static str>>>,
    }

    impl Handler for Journal {
        type Conn = EchoConn;

        fn on_open(&mut self, outbox: Arc<Outbox>) -> EchoConn {
            EchoConn { outbox }
        }

        fn on_frame(&mut self, _conn: &mut EchoConn, msg: Message) -> FrameVerdict {
            self.log.lock().push("frame");
            match msg {
                Message::Shutdown => FrameVerdict::Close,
                _ => FrameVerdict::Continue,
            }
        }

        fn on_read_end(&mut self, conn: &mut EchoConn) -> FrameVerdict {
            self.log.lock().push("read_end");
            conn.outbox.push(&Message::Heartbeat {
                module: ModuleId::new(0),
            });
            FrameVerdict::Continue
        }

        fn on_close(&mut self, _conn: EchoConn) {
            self.log.lock().push("close");
        }
    }

    #[test]
    fn on_read_end_runs_once_per_read_after_its_frames_and_before_on_close() {
        let _gate = serial();
        let log = Arc::new(Mutex::new(Vec::new()));
        let handle = spawn_one(
            Journal {
                log: Arc::clone(&log),
            },
            ReactorConfig::default(),
        );
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let reading = |round| {
            Message::SessionReading {
                session: 1,
                module: ModuleId::new(0),
                round,
                value: 1.0,
            }
            .encode()
        };
        // First read: three frames in one write. The heartbeat that comes
        // back was sent by its `on_read_end`, so the read is over.
        let mut wire = Vec::new();
        for round in 0..3 {
            wire.extend_from_slice(&reading(round));
        }
        client.write_all(&wire).unwrap();
        let mut chunk = [0u8; 64];
        assert!(client.read(&mut chunk).expect("the first read is answered") > 0);
        // Second read: two frames and the `Shutdown` that closes the
        // connection from inside the decode loop.
        wire.clear();
        for round in 3..5 {
            wire.extend_from_slice(&reading(round));
        }
        wire.extend_from_slice(&Message::Shutdown.encode());
        client.write_all(&wire).unwrap();
        while client.read(&mut chunk).is_ok_and(|n| n > 0) {}
        handle.shutdown();
        assert_eq!(
            *log.lock(),
            [
                "frame", "frame", "frame", "read_end", // the first read
                "frame", "frame", "frame", "read_end", // the second, hook after its Close
                "close",
            ]
        );
    }

    fn echo_reading(round: u64) -> bytes::Bytes {
        Message::SessionReading {
            session: 1,
            module: ModuleId::new(0),
            round,
            value: 1.0,
        }
        .encode()
    }

    /// Connects a peer that never reads and feeds it readings until the
    /// reactor's writer parks on it: 256 readings at a time, each batch read
    /// before the next is sent. Once loopback buffers are full in both
    /// directions the corked writer parks, and `wire` stops counting sent
    /// bytes.
    fn wedge(addr: SocketAddr, wire: &CorkMetrics) -> TcpStream {
        let batch: Vec<u8> = (0..256)
            .flat_map(|round| echo_reading(round).to_vec())
            .collect();
        let started = Instant::now();
        let mut wedged = TcpStream::connect(addr).unwrap();
        let mut fed = wire.bytes_received.get();
        let (mut sent, mut stalled) = (wire.snapshot().bytes_sent, 0);
        while stalled < 4 {
            wedged.write_all(&batch).unwrap();
            fed += batch.len() as u64;
            while wire.bytes_received.get() < fed {
                assert!(
                    started.elapsed() < WRITE_DEADLINE,
                    "the reactor stopped reading"
                );
                std::thread::sleep(Duration::from_micros(100));
            }
            let now_sent = wire.snapshot().bytes_sent;
            stalled = if now_sent == sent { stalled + 1 } else { 0 };
            sent = now_sent;
        }
        wedged
    }

    #[test]
    fn peers_that_never_read_hold_shutdown_for_one_write_deadline_in_all() {
        let _gate = serial();
        let registry = avoc_obs::Registry::new();
        let metrics = ReactorMetrics::register(&registry, &[]);
        let wire = CorkMetrics::register(&registry, &[]);
        let closes = Arc::new(AtomicU64::new(0));
        let handle = spawn_one(
            Echo {
                closes: Arc::clone(&closes),
            },
            ReactorConfig {
                metrics: Some(metrics.clone()),
                cork_metrics: Some(wire.clone()),
                ..ReactorConfig::default()
            },
        );
        let wedged = [
            wedge(handle.local_addr(), &wire),
            wedge(handle.local_addr(), &wire),
        ];
        assert_eq!(metrics.wedged_closed.get(), 0, "both peers are still open");
        let stopping = Instant::now();
        handle.shutdown();
        assert!(
            stopping.elapsed() < WRITE_DEADLINE + Duration::from_secs(1),
            "shutdown took {:?} behind two wedged peers",
            stopping.elapsed()
        );
        assert_eq!(closes.load(Ordering::SeqCst), 2);
        drop(wedged);
    }

    #[test]
    fn a_peer_that_never_reads_is_closed_at_the_write_deadline() {
        let _gate = serial();
        let registry = avoc_obs::Registry::new();
        let metrics = ReactorMetrics::register(&registry, &[]);
        let wire = CorkMetrics::register(&registry, &[]);
        let closes = Arc::new(AtomicU64::new(0));
        let handle = spawn_one(
            Echo {
                closes: Arc::clone(&closes),
            },
            ReactorConfig {
                metrics: Some(metrics.clone()),
                cork_metrics: Some(wire.clone()),
                ..ReactorConfig::default()
            },
        );
        let started = Instant::now();
        let wedged = wedge(handle.local_addr(), &wire);
        let parked = Instant::now();
        while closes.load(Ordering::SeqCst) == 0 {
            assert!(
                parked.elapsed() < WRITE_DEADLINE + Duration::from_secs(5),
                "the wedged peer was never closed"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // The deadline is armed no earlier than the first reading and
        // pushed back no later than the socket's last progress.
        assert!(started.elapsed() >= WRITE_DEADLINE);
        assert!(
            parked.elapsed() < WRITE_DEADLINE + Duration::from_secs(1),
            "closed {:?} after the writer parked",
            parked.elapsed()
        );
        assert_eq!(metrics.wedged_closed.get(), 1);

        // The reactor that closed it still serves everyone else.
        let mut client = TcpStream::connect(handle.local_addr()).unwrap();
        client.write_all(&echo_reading(7)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = bytes::BytesMut::new();
        let mut chunk = [0u8; 4096];
        let echoed = loop {
            let n = client.read(&mut chunk).expect("the echo arrives");
            assert!(n > 0, "server hung up");
            buf.extend_from_slice(&chunk[..n]);
            if let Ok(msg) = Message::decode(&mut buf) {
                break msg;
            }
        };
        assert!(
            matches!(echoed, Message::SessionResult { round: 7, .. }),
            "unexpected echo {echoed:?}"
        );
        drop((wedged, client));
        handle.shutdown();
    }

    #[test]
    fn an_outbox_refuses_frames_past_its_byte_bound_and_once_closed() {
        let outbox = Outbox {
            pending: Mutex::new(Pending::default()),
            waker: ConnWaker {
                token: 1,
                dirty: Arc::new(AtomicBool::new(false)),
                shared: WakeShared::new().unwrap(),
            },
        };
        // Frames of almost the maximum length: each fits while the outbox
        // is below its bound, and the third takes it past.
        let big = Message::Error {
            session: 1,
            message: "x".repeat(MAX_FRAME_LEN - 64),
        };
        let taken = (0..5).take_while(|_| outbox.push(&big)).count();
        assert_eq!(taken, 3);
        assert!(!outbox.push(&Message::Shutdown), "a full outbox sheds");
        assert_eq!(outbox.pending.lock().frames, 3);
        // The pushes woke the reactor once: one token, one armed pipe.
        let mut woken = Vec::new();
        outbox.waker.shared.take_pending(&mut woken);
        assert_eq!(woken, [1]);
        // The lists traded: the one left pending is as large as the one taken.
        assert!(outbox.waker.shared.pending.lock().capacity() >= woken.capacity());
        outbox.close();
        assert!(outbox.pending.lock().bytes.is_empty());
        assert!(!outbox.push(&Message::Shutdown), "a closed outbox sheds");
    }

    #[test]
    fn shutdown_is_immediate_without_spurious_ticks() {
        let handle = spawn_one(
            Echo {
                closes: Arc::new(AtomicU64::new(0)),
            },
            ReactorConfig::default(),
        );
        // No connections, no timers: the loop is parked in epoll_wait with
        // an infinite timeout; shutdown must return promptly via the wake
        // pipe (the old accept loop needed a throwaway TCP connection).
        let t0 = Instant::now();
        handle.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "wake pipe unparks the loop immediately"
        );
    }
}
