//! Offline raw-syscall shim for readiness-based I/O on Linux.
//!
//! The workspace builds fully offline, so the usual `libc`/`mio` stack is
//! unavailable; this crate declares the handful of symbols the
//! `avoc-net` reactor needs — `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//! a self-wake `pipe(2)`, and the `socket`/`setsockopt`/`bind` sequence
//! of a `SO_REUSEPORT` listener — against the C library `std` already
//! links, and wraps them in a safe API. All `unsafe` in the workspace
//! lives here; `avoc-net` itself stays `#![forbid(unsafe_code)]`.
//!
//! The surface mirrors the sliver of `mio`/`polling` the reactor uses:
//!
//! * [`Epoll`] — a level-triggered epoll instance;
//! * [`WakePipe`] — a non-blocking self-pipe: any thread calls
//!   [`WakePipe::notify`], the event loop observes readability on
//!   [`WakePipe::read_fd`] and [`WakePipe::drain`]s it;
//! * [`reuseport_listener`] and [`widen_backlog`] — the listener setup
//!   `std::net::TcpListener::bind` cannot express.
//!
//! Linux is the only target: the daemon's reactor is epoll with
//! `SO_REUSEPORT`, and there is no second backend to fall back to.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("sysio is Linux-only: the reactor needs epoll and SO_REUSEPORT");

use std::io;
use std::os::unix::io::RawFd;

/// What a registered fd should be watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd accepts writes again.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — while flushes are backed up.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd accepts writes again.
    pub writable: bool,
    /// The fd is in an error state (`EPOLLERR`).
    pub is_error: bool,
    /// The peer hung up (`EPOLLHUP`/`EPOLLRDHUP`).
    pub is_hangup: bool,
}

pub mod fault {
    //! Deterministic, plan-driven syscall fault injection.
    //!
    //! Every I/O chokepoint in the workspace consults [`check`] with its
    //! [`Site`] before touching the kernel; an installed [`Plan`] can make
    //! the Nth call at a site observe EINTR/EAGAIN/EMFILE/ENOSPC or a short
    //! write. Off by default and **zero-cost when disabled**: the fast path
    //! is a single relaxed atomic load, no locks, no allocations — the hot
    //! paths gated by the counting-allocator benches stay clean with
    //! injection compiled in.
    //!
    //! Plans are seeded and ordinal-based (fire on call *N* at a site), so
    //! a failing run replays exactly: same plan, same faults, same order.
    //! The injector is process-global — tests that install plans must
    //! serialize (each integration-test binary is its own process, so the
    //! matrix in `tests/fault_injection.rs` guards with a mutex only
    //! against its sibling `#[test]`s).

    use std::io;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A syscall site the injector can intercept. Sites are coarse on
    /// purpose: one per I/O chokepoint, not one per call expression, so a
    /// plan written against the matrix survives refactors.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Site {
        /// WAL record append (`write` into the session's log), and every
        /// leg of landing a whole log image (create, write, rename).
        WalAppend,
        /// WAL `BufWriter` flush.
        WalFlush,
        /// WAL `fsync` under `Durability::Fsync`, appends and landed
        /// images alike.
        WalSync,
        /// Segment file landing during compaction.
        SegmentWrite,
        /// Segment-tier manifest landing.
        ManifestWrite,
        /// `accept(2)` on the reactor's listener.
        Accept,
        /// `epoll_wait(2)` in [`crate::Epoll::wait`].
        EpollWait,
        /// Self-pipe wake write in [`crate::WakePipe::notify`].
        WakeNotify,
        /// Self-pipe drain read in [`crate::WakePipe::drain`].
        WakeDrain,
        /// Data-plane socket read in the reactor.
        SockRead,
        /// Data-plane socket write/flush in the reactor.
        SockWrite,
        /// `socket(2)`/`setsockopt(2)`/`bind(2)` while building a
        /// `SO_REUSEPORT` listener in [`crate::reuseport_listener`]. A
        /// fault here fails the start of a multi-reactor pool.
        ListenerSetup,
    }

    /// Number of distinct [`Site`]s (size of the per-site call counters).
    const SITE_COUNT: usize = 12;

    impl Site {
        fn index(self) -> usize {
            self as usize
        }
    }

    /// What the intercepted call should observe.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kind {
        /// `EINTR` — a signal interrupted the call; always retryable.
        Eintr,
        /// `EAGAIN`/`EWOULDBLOCK` — try again later.
        Eagain,
        /// `EMFILE` — the process fd table is full.
        Emfile,
        /// `ENOSPC` — the filesystem is full.
        Enospc,
        /// The write consumed only part of the buffer (no errno).
        ShortWrite,
    }

    impl Kind {
        /// The `io::Error` a real syscall failing this way would produce.
        /// [`Kind::ShortWrite`] has no errno — callers that cannot model a
        /// partial transfer see it as `WriteZero`.
        pub fn to_error(self) -> io::Error {
            match self {
                Kind::Eintr => io::Error::from_raw_os_error(4),
                Kind::Eagain => io::Error::from_raw_os_error(11),
                Kind::Emfile => io::Error::from_raw_os_error(24),
                Kind::Enospc => io::Error::from_raw_os_error(28),
                Kind::ShortWrite => {
                    io::Error::new(io::ErrorKind::WriteZero, "injected short write")
                }
            }
        }
    }

    /// One injection: fire `kind` at `site` on calls `nth..nth + times`
    /// (1-based ordinals, counted per site since [`install`]).
    #[derive(Debug, Clone, Copy)]
    pub struct Rule {
        /// Intercepted site.
        pub site: Site,
        /// Fault the call observes.
        pub kind: Kind,
        /// First call ordinal (1-based) the rule fires on.
        pub nth: u64,
        /// How many consecutive calls fire (`0` rules never fire).
        pub times: u64,
    }

    /// A seeded set of [`Rule`]s. The seed both labels the plan (failure
    /// reports name it, reruns replay it) and drives [`Plan::scattered`].
    #[derive(Debug, Clone, Default)]
    pub struct Plan {
        /// Replay label and ordinal-scatter seed.
        pub seed: u64,
        /// Rules checked in order; the first match wins.
        pub rules: Vec<Rule>,
        /// Fire only on the installing thread (see [`Plan::thread_only`]).
        pub thread_only: bool,
    }

    impl Plan {
        /// An empty plan with a replay seed.
        pub fn new(seed: u64) -> Plan {
            Plan {
                seed,
                rules: Vec::new(),
                thread_only: false,
            }
        }

        /// Restricts the plan to the thread that calls [`install`]: calls
        /// from other threads neither count nor fault. Unit tests inside a
        /// shared test binary use this so a parallel sibling doing real
        /// I/O can never steal (or suffer) an injection; integration tests
        /// driving a multi-threaded daemon keep the process-wide default.
        #[must_use]
        pub fn thread_only(mut self) -> Plan {
            self.thread_only = true;
            self
        }

        /// Adds a rule: `kind` at `site`, calls `nth..nth + times`.
        #[must_use]
        pub fn rule(mut self, site: Site, kind: Kind, nth: u64, times: u64) -> Plan {
            self.rules.push(Rule {
                site,
                kind,
                nth,
                times,
            });
            self
        }

        /// `count` single-shot rules at seed-derived ordinals in
        /// `1..=window` — deterministic scatter for soak-style matrices.
        #[must_use]
        pub fn scattered(seed: u64, site: Site, kind: Kind, count: u64, window: u64) -> Plan {
            let mut plan = Plan::new(seed);
            let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
            for _ in 0..count {
                x = splitmix64(x);
                plan = plan.rule(site, kind, 1 + x % window.max(1), 1);
            }
            plan
        }
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    struct PlanState {
        rules: Vec<Rule>,
        counts: [u64; SITE_COUNT],
        /// `Some(tid)` when the plan is [`Plan::thread_only`].
        thread: Option<std::thread::ThreadId>,
    }

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static INJECTED: AtomicU64 = AtomicU64::new(0);
    static PLAN: Mutex<Option<PlanState>> = Mutex::new(None);

    fn plan_lock() -> std::sync::MutexGuard<'static, Option<PlanState>> {
        PLAN.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Installs `plan` and arms the injector (per-site call counters reset
    /// to zero). Replaces any previous plan.
    pub fn install(plan: Plan) {
        *plan_lock() = Some(PlanState {
            rules: plan.rules,
            counts: [0; SITE_COUNT],
            thread: plan.thread_only.then(|| std::thread::current().id()),
        });
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Disarms the injector and drops the plan. Call counters die with it;
    /// the lifetime [`injected_total`] survives.
    pub fn clear() {
        ENABLED.store(false, Ordering::SeqCst);
        *plan_lock() = None;
    }

    /// Faults injected since process start (feeds the
    /// `avoc_fault_injected_total` metric).
    pub fn injected_total() -> u64 {
        INJECTED.load(Ordering::Relaxed)
    }

    /// Consults the plan for `site`. `None` (the overwhelmingly common
    /// answer) costs one relaxed atomic load; the slow path runs only
    /// while a plan is armed.
    #[inline]
    pub fn check(site: Site) -> Option<Kind> {
        if !ENABLED.load(Ordering::Relaxed) {
            return None;
        }
        check_armed(site)
    }

    #[cold]
    fn check_armed(site: Site) -> Option<Kind> {
        let mut guard = plan_lock();
        let state = guard.as_mut()?;
        if state
            .thread
            .is_some_and(|t| t != std::thread::current().id())
        {
            return None;
        }
        state.counts[site.index()] += 1;
        let count = state.counts[site.index()];
        let hit = state
            .rules
            .iter()
            .find(|r| r.site == site && count >= r.nth && count - r.nth < r.times)
            .map(|r| r.kind);
        if hit.is_some() {
            INJECTED.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

pub mod fio {
    //! Injectable file-I/O facade: the same `write_all`/`flush`/`sync_all`
    //! shapes `std::io` offers, but every operation (a) consults
    //! [`fault::check`] first, and (b) retries real *and* injected `EINTR`
    //! itself, so adopters get the audit-clean retry behaviour for free.
    //! Injected short writes resume exactly like kernel short writes.

    use super::fault::{self, Kind, Site};
    use std::fs::File;
    use std::io::{self, Write};

    /// Writes all of `buf`, retrying `EINTR` and resuming short writes.
    ///
    /// # Errors
    ///
    /// Injected faults surface as their real errno; a `write` returning
    /// `Ok(0)` becomes `WriteZero`, as in `std`.
    pub fn write_all(site: Site, w: &mut impl Write, mut buf: &[u8]) -> io::Result<()> {
        while !buf.is_empty() {
            match write_step(site, w, buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failed to write whole buffer",
                    ))
                }
                Ok(n) => buf = &buf[n.min(buf.len())..],
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One write attempt: an injected [`Kind::ShortWrite`] truncates the
    /// attempt to half the buffer (at least one byte) and lets the real
    /// kernel write land it — the caller's resume logic does the rest.
    fn write_step(site: Site, w: &mut impl Write, buf: &[u8]) -> io::Result<usize> {
        match fault::check(site) {
            Some(Kind::ShortWrite) => w.write(&buf[..(buf.len() / 2).max(1)]),
            Some(k) => Err(k.to_error()),
            None => w.write(buf),
        }
    }

    /// Flushes `w`, retrying real and injected `EINTR`.
    ///
    /// # Errors
    ///
    /// Propagates flush failures and injected faults.
    pub fn flush(site: Site, w: &mut impl Write) -> io::Result<()> {
        check_op(site)?;
        loop {
            match w.flush() {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    /// `fsync`s `f`, retrying real and injected `EINTR`.
    ///
    /// # Errors
    ///
    /// Propagates `sync_all` failures and injected faults.
    pub fn sync_all(site: Site, f: &File) -> io::Result<()> {
        check_op(site)?;
        loop {
            match f.sync_all() {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => return other,
            }
        }
    }

    /// Pure injection gate for operations without a byte stream (create,
    /// rename, directory sync). Injected `EINTR` is absorbed here — the
    /// caller would simply retry — so only terminal faults surface.
    ///
    /// # Errors
    ///
    /// The injected fault's errno, when a non-`EINTR` rule fires.
    pub fn check_op(site: Site) -> io::Result<()> {
        loop {
            match fault::check(site) {
                Some(Kind::Eintr) => continue,
                Some(k) => return Err(k.to_error()),
                None => return Ok(()),
            }
        }
    }
}

mod sys {
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::RawFd;

    // ---- C library declarations -----------------------------------------
    //
    // `std` links the platform C library, so these resolve without any
    // crate dependency. Only what the reactor needs is declared.

    // The kernel packs `epoll_event` on x86-64 only; mirror that exactly
    // or `epoll_wait` scribbles over misaligned memory.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub(super) struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn pipe(fds: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;

        pub(super) fn epoll_create1(flags: c_int) -> c_int;
        pub(super) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent)
            -> c_int;
        pub(super) fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }

    const F_GETFD: c_int = 1;
    const F_SETFD: c_int = 2;
    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const FD_CLOEXEC: c_int = 1;
    const O_NONBLOCK: c_int = 0o4000;

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;

    pub(super) const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub(super) const EPOLL_CTL_ADD: c_int = 1;
    pub(super) const EPOLL_CTL_DEL: c_int = 2;
    pub(super) const EPOLL_CTL_MOD: c_int = 3;
    pub(super) const EPOLLIN: u32 = 0x001;
    pub(super) const EPOLLOUT: u32 = 0x004;
    pub(super) const EPOLLERR: u32 = 0x008;
    pub(super) const EPOLLHUP: u32 = 0x010;
    pub(super) const EPOLLRDHUP: u32 = 0x2000;

    /// `struct sockaddr_in` as Linux lays it out (16 bytes).
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,     // network byte order
        addr: [u8; 4], // network byte order
        zero: [u8; 8],
    }

    /// `struct sockaddr_in6` as Linux lays it out (28 bytes).
    #[repr(C)]
    struct SockaddrIn6 {
        family: u16,
        port: u16, // network byte order
        flowinfo: u32,
        addr: [u8; 16],
        scope_id: u32,
    }

    /// Builds a listening TCP socket with `SO_REUSEPORT` set *before*
    /// `bind(2)` — the ordering `std::net::TcpListener::bind` cannot
    /// express — and returns the raw fd (close-on-exec, still blocking;
    /// the caller flips non-blocking mode via std once wrapped). An IPv6
    /// socket keeps the kernel's `IPV6_V6ONLY` default, as std's bind
    /// does, so a wildcard group serves the same clients a plain listener
    /// would.
    pub(super) fn reuseport_bind(addr: std::net::SocketAddr, backlog: c_int) -> io::Result<RawFd> {
        let domain = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        let fd = unsafe { cvt(socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0))? };
        let one: c_int = 1;
        let setup = |fd: RawFd| -> io::Result<()> {
            unsafe {
                cvt(setsockopt(
                    fd,
                    SOL_SOCKET,
                    SO_REUSEADDR,
                    (&one as *const c_int).cast(),
                    std::mem::size_of::<c_int>() as u32,
                ))?;
                cvt(setsockopt(
                    fd,
                    SOL_SOCKET,
                    SO_REUSEPORT,
                    (&one as *const c_int).cast(),
                    std::mem::size_of::<c_int>() as u32,
                ))?;
                match addr {
                    std::net::SocketAddr::V4(v4) => {
                        let sa = SockaddrIn {
                            family: AF_INET as u16,
                            port: v4.port().to_be(),
                            addr: v4.ip().octets(),
                            zero: [0; 8],
                        };
                        cvt(bind(
                            fd,
                            (&sa as *const SockaddrIn).cast(),
                            std::mem::size_of::<SockaddrIn>() as u32,
                        ))?;
                    }
                    std::net::SocketAddr::V6(v6) => {
                        let sa = SockaddrIn6 {
                            family: AF_INET6 as u16,
                            port: v6.port().to_be(),
                            flowinfo: v6.flowinfo(),
                            addr: v6.ip().octets(),
                            scope_id: v6.scope_id(),
                        };
                        cvt(bind(
                            fd,
                            (&sa as *const SockaddrIn6).cast(),
                            std::mem::size_of::<SockaddrIn6>() as u32,
                        ))?;
                    }
                }
                cvt(listen(fd, backlog))?;
            }
            Ok(())
        };
        if let Err(e) = setup(fd) {
            close_fd(fd);
            return Err(e);
        }
        Ok(fd)
    }

    /// Confines the calling thread to `cpu` (one of the first 1024).
    pub(super) fn pin_to(cpu: usize) -> io::Result<()> {
        if cpu >= 1024 {
            return Err(io::Error::from(io::ErrorKind::InvalidInput));
        }
        // The kernel's `cpu_set_t`: 1024 bits.
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is readable for the 128 bytes passed as its
        // length; pid 0 names the calling thread.
        unsafe {
            cvt(sched_setaffinity(
                0,
                std::mem::size_of_val(&mask),
                mask.as_ptr(),
            ))?
        };
        Ok(())
    }

    pub(super) fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    pub(super) fn close_fd(fd: RawFd) {
        unsafe {
            let _ = close(fd);
        }
    }

    /// Puts `fd` in non-blocking, close-on-exec mode.
    pub(super) fn prepare_fd(fd: RawFd) -> io::Result<()> {
        unsafe {
            let flags = cvt(fcntl(fd, F_GETFL))?;
            cvt(fcntl(fd, F_SETFL, flags | O_NONBLOCK))?;
            let fdflags = cvt(fcntl(fd, F_GETFD))?;
            cvt(fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC))?;
        }
        Ok(())
    }

    pub(super) fn make_pipe() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
        unsafe {
            cvt(pipe(fds.as_mut_ptr()))?;
        }
        let (r, w) = (fds[0], fds[1]);
        if let Err(e) = prepare_fd(r).and_then(|()| prepare_fd(w)) {
            close_fd(r);
            close_fd(w);
            return Err(e);
        }
        Ok((r, w))
    }

    pub(super) fn write_byte(fd: RawFd) -> io::Result<()> {
        let byte = [1u8];
        loop {
            let n = unsafe { write(fd, byte.as_ptr() as *const c_void, 1) };
            if n >= 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            match e.kind() {
                // A full pipe means a wake-up is already pending — good
                // enough.
                io::ErrorKind::WouldBlock => return Ok(()),
                // A signal between cross-thread notify and the write must
                // not lose the wake-up: retry until the byte (or a full
                // pipe) confirms one is pending.
                io::ErrorKind::Interrupted => continue,
                _ => return Err(e),
            }
        }
    }

    /// Re-issues `listen(2)` with a larger backlog. POSIX allows calling
    /// `listen` again on an already-listening socket to resize its accept
    /// queue; the kernel clamps to `net.core.somaxconn`.
    pub(super) fn relisten(fd: RawFd, backlog: i32) -> io::Result<()> {
        unsafe {
            cvt(listen(fd, backlog))?;
        }
        Ok(())
    }

    pub(super) fn drain_fd(fd: RawFd) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, buf.len()) };
            if n > 0 {
                continue;
            }
            // EINTR mid-drain would leave wake bytes behind and the
            // level-triggered epoll spinning on a readable pipe: retry.
            if n < 0 && io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
                continue;
            }
            return;
        }
    }
}

// ---- public wrappers -----------------------------------------------------

/// Widens the accept queue of an already-listening socket by re-issuing
/// `listen(2)` with `backlog`. `std::net::TcpListener::bind` hardwires a
/// backlog of 128, which a connection storm (hundreds of simultaneous
/// connects against a busy accept loop) overflows — completed handshakes
/// then get reset once the kernel's SYN-ACK retries exhaust. The kernel
/// clamps `backlog` to `net.core.somaxconn`.
///
/// # Errors
///
/// Propagates `listen` failures (e.g. the fd is not a listening socket).
pub fn widen_backlog(fd: RawFd, backlog: i32) -> io::Result<()> {
    sys::relisten(fd, backlog)
}

/// Confines the calling thread to CPU `cpu`. Threads it starts afterwards
/// inherit the mask, so a test that pins itself before starting a service
/// runs every thread of that service on the one CPU, where they can only
/// take turns.
///
/// # Errors
///
/// Propagates `sched_setaffinity` failures (a CPU outside the thread's
/// allowed set is `EINVAL`); a CPU past the first 1024 is `InvalidInput`.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    sys::pin_to(cpu)
}

/// Binds a listening `TcpListener` with `SO_REUSEPORT` set before
/// `bind(2)`, so several listeners can share one address and the kernel
/// load-balances incoming connections across them (the multi-reactor
/// accept path). `std::net::TcpListener::bind` offers no pre-bind
/// setsockopt hook, hence the raw construction here; the returned
/// listener is a plain `std` listener (close-on-exec, blocking — callers
/// flip non-blocking mode as usual).
///
/// Consults [`fault::Site::ListenerSetup`] so tests can make the
/// reuseport path fail.
///
/// # Errors
///
/// Propagates `socket`/`setsockopt`/`bind`/`listen` failures; injected
/// `EINTR` is retried.
pub fn reuseport_listener(
    addr: std::net::SocketAddr,
    backlog: i32,
) -> io::Result<std::net::TcpListener> {
    use std::os::unix::io::FromRawFd;
    fio::check_op(fault::Site::ListenerSetup)?;
    let fd = sys::reuseport_bind(addr, backlog)?;
    // SAFETY: `fd` is a freshly created listening socket we exclusively
    // own; wrapping transfers that ownership to the listener.
    Ok(unsafe { std::net::TcpListener::from_raw_fd(fd) })
}

/// A level-triggered `epoll(7)` instance.
pub struct Epoll {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
}

impl std::fmt::Debug for Epoll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoll").finish_non_exhaustive()
    }
}

impl Epoll {
    /// Creates an epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failures.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes no pointers; a failure is a
        // negative return, which `cvt` turns into the error.
        let epfd = unsafe { sys::cvt(sys::epoll_create1(sys::EPOLL_CLOEXEC))? };
        Ok(Epoll {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut events = 0;
        if interest.readable {
            events |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out `epoll_event` for the
        // length of the call, and the kernel only reads it.
        unsafe {
            sys::cvt(sys::epoll_ctl(self.epfd, op, fd, &mut ev))?;
        }
        Ok(())
    }

    /// Registers `fd` under `token` with `interest`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Re-arms `fd` with a new `token`/`interest`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failures.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`; `EPOLL_CTL_DEL` ignores the event, which
        // old kernels still require to be non-null.
        unsafe {
            sys::cvt(sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev))?;
        }
        Ok(())
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) and fills `out` with
    /// ready events. `EINTR` surfaces as `Ok(0)`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failures.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        out.clear();
        if let Some(k) = fault::check(fault::Site::EpollWait) {
            return match k {
                // The real contract maps EINTR to a spurious empty wakeup.
                fault::Kind::Eintr | fault::Kind::Eagain => Ok(0),
                other => Err(other.to_error()),
            };
        }
        // SAFETY: the kernel writes at most `buf.len()` events into `buf`,
        // which this instance owns exclusively for the call (`&mut self`).
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        for ev in &self.buf[..n as usize] {
            // Copy out of the (possibly packed) struct before reading.
            let bits = ev.events;
            let token = ev.data;
            out.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                is_error: bits & sys::EPOLLERR != 0,
                is_hangup: bits & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        sys::close_fd(self.epfd);
    }
}

/// A non-blocking self-pipe for waking a blocked `wait` from other threads.
///
/// Register [`WakePipe::read_fd`] with an [`Epoll`]; any thread calls
/// [`WakePipe::notify`]; the event loop calls [`WakePipe::drain`] when the
/// read end turns readable. Writes to a full pipe are treated as success —
/// a wake-up is already pending.
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl std::fmt::Debug for WakePipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakePipe")
            .field("read_fd", &self.read_fd)
            .field("write_fd", &self.write_fd)
            .finish()
    }
}

impl WakePipe {
    /// Creates the pipe pair, both ends non-blocking and close-on-exec.
    ///
    /// # Errors
    ///
    /// Propagates `pipe`/`fcntl` failures.
    pub fn new() -> io::Result<WakePipe> {
        let (read_fd, write_fd) = sys::make_pipe()?;
        Ok(WakePipe { read_fd, write_fd })
    }

    /// The fd to register for read interest with an [`Epoll`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Wakes the event loop (thread-safe; coalesces when the pipe is full).
    ///
    /// # Errors
    ///
    /// Propagates write failures other than a full pipe.
    pub fn notify(&self) -> io::Result<()> {
        loop {
            match fault::check(fault::Site::WakeNotify) {
                // Injected EINTR: retry, exactly as the real write would.
                Some(fault::Kind::Eintr) => continue,
                // Injected full pipe: a wake-up is already pending.
                Some(fault::Kind::Eagain) => return Ok(()),
                Some(other) => return Err(other.to_error()),
                None => break,
            }
        }
        sys::write_byte(self.write_fd)
    }

    /// Consumes every pending wake-up byte (real and injected `EINTR` are
    /// retried — a partial drain would leave the level-triggered epoll
    /// spinning).
    pub fn drain(&self) {
        while matches!(
            fault::check(fault::Site::WakeDrain),
            Some(fault::Kind::Eintr)
        ) {}
        sys::drain_fd(self.read_fd);
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let _g = fault_gate();
        let wp = WakePipe::new().unwrap();
        let mut ep = Epoll::new().unwrap();
        ep.add(wp.read_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: times out with no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        wp.notify().unwrap();
        wp.notify().unwrap(); // coalesces
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        wp.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn wake_pipe_notify_survives_a_full_pipe() {
        let _g = fault_gate();
        let wp = WakePipe::new().unwrap();
        // A pipe holds 64 KiB by default; far overshoot it.
        for _ in 0..100_000 {
            wp.notify().unwrap();
        }
        wp.drain();
        let mut ep = Epoll::new().unwrap();
        ep.add(wp.read_fd(), 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn epoll_backend_readiness_contract() {
        let _g = fault_gate();
        use std::os::unix::io::AsRawFd;
        let mut ep = Epoll::new().unwrap();
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let fd = b.as_raw_fd();
        ep.add(fd, 42, Interest::READ).unwrap();

        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "idle socket");

        a.write_all(b"hi").unwrap();
        let start = Instant::now();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1, "readable after peer write");
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
        assert!(
            start.elapsed().as_millis() < 1900,
            "level-triggered, no wait"
        );

        // Level-triggered: stays readable until drained.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);
        let mut buf = [0u8; 8];
        let mut sock = &b;
        let _ = std::io::Read::read(&mut sock, &mut buf);

        // Write interest: a fresh socket is immediately writable.
        ep.modify(fd, 43, Interest::READ_WRITE).unwrap();
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        assert_eq!(events[0].token, 43);
        assert!(events[0].writable);

        // Peer hangup surfaces as readable (read returns 0) or hangup.
        drop(a);
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable || events[0].is_hangup);
        let mut sock = &b;
        assert_eq!(std::io::Read::read(&mut sock, &mut buf).unwrap(), 0, "EOF");

        ep.remove(fd).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "deregistered");
    }

    #[test]
    fn reuseport_listeners_share_one_address() {
        let _g = fault_gate();
        let first = reuseport_listener("127.0.0.1:0".parse().unwrap(), 128).unwrap();
        let addr = first.local_addr().unwrap();
        assert_ne!(addr.port(), 0, "kernel assigned a concrete port");
        // A second listener binds the *same* concrete port — impossible
        // without SO_REUSEPORT set before bind on both sockets.
        let second = reuseport_listener(addr, 128).unwrap();
        assert_eq!(second.local_addr().unwrap(), addr);

        // Connections land on one of the two accept queues; drain both
        // (non-blocking) until each connect is served.
        first.set_nonblocking(true).unwrap();
        second.set_nonblocking(true).unwrap();
        let mut served = 0;
        let mut conns = Vec::new();
        for _ in 0..8 {
            conns.push(TcpStream::connect(addr).unwrap());
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while served < 8 && Instant::now() < deadline {
            for l in [&first, &second] {
                while let Ok((s, _)) = l.accept() {
                    drop(s);
                    served += 1;
                }
            }
            std::thread::yield_now();
        }
        assert_eq!(served, 8, "every connection reached a reuseport queue");
    }

    #[test]
    fn reuseport_listener_honours_injected_setup_faults() {
        let _g = fault_gate();
        let plan = fault::Plan::new(23)
            .rule(fault::Site::ListenerSetup, fault::Kind::Emfile, 1, 1)
            .rule(fault::Site::ListenerSetup, fault::Kind::Eintr, 2, 1);
        fault::install(plan);
        // First call observes EMFILE (a pool's start would fail with
        // it)...
        let err = reuseport_listener("127.0.0.1:0".parse().unwrap(), 64).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(24));
        // ...and EINTR is invisible: retried inside, bind succeeds.
        let l = reuseport_listener("127.0.0.1:0".parse().unwrap(), 64).unwrap();
        assert_ne!(l.local_addr().unwrap().port(), 0);
        fault::clear();
    }

    /// The injector is process-global: tests that install plans hold this
    /// lock so the default multi-threaded test runner cannot interleave
    /// them (or the plan-free tests above, which all run with the injector
    /// disarmed).
    static FAULT_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn fault_gate() -> std::sync::MutexGuard<'static, ()> {
        FAULT_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn injector_disabled_is_silent() {
        let _g = fault_gate();
        fault::clear();
        assert_eq!(fault::check(fault::Site::WalAppend), None);
        assert_eq!(fault::check(fault::Site::Accept), None);
    }

    #[test]
    fn plan_fires_on_the_nth_call_for_times_calls() {
        let _g = fault_gate();
        fault::install(fault::Plan::new(1).rule(fault::Site::WalAppend, fault::Kind::Enospc, 3, 2));
        let hits: Vec<bool> = (0..6)
            .map(|_| fault::check(fault::Site::WalAppend).is_some())
            .collect();
        assert_eq!(hits, [false, false, true, true, false, false]);
        // A different site never trips the rule.
        assert_eq!(fault::check(fault::Site::WalSync), None);
        fault::clear();
    }

    #[test]
    fn scattered_plans_are_deterministic() {
        let _g = fault_gate();
        let a = fault::Plan::scattered(42, fault::Site::WalAppend, fault::Kind::Eintr, 5, 100);
        let b = fault::Plan::scattered(42, fault::Site::WalAppend, fault::Kind::Eintr, 5, 100);
        let ordinals = |p: &fault::Plan| p.rules.iter().map(|r| r.nth).collect::<Vec<_>>();
        assert_eq!(ordinals(&a), ordinals(&b));
        assert!(a.rules.iter().all(|r| (1..=100).contains(&r.nth)));
    }

    #[test]
    fn fio_write_all_survives_eintr_and_short_writes() {
        let _g = fault_gate();
        let before = fault::injected_total();
        fault::install(
            fault::Plan::new(7)
                .rule(fault::Site::WalAppend, fault::Kind::Eintr, 1, 2)
                .rule(fault::Site::WalAppend, fault::Kind::ShortWrite, 3, 3),
        );
        let mut out = Vec::new();
        fio::write_all(fault::Site::WalAppend, &mut out, b"hello world").unwrap();
        assert_eq!(out, b"hello world", "faults were absorbed byte-exactly");
        assert!(fault::injected_total() >= before + 5);
        fault::clear();
    }

    #[test]
    fn fio_surfaces_terminal_errnos() {
        let _g = fault_gate();
        fault::install(fault::Plan::new(9).rule(
            fault::Site::SegmentWrite,
            fault::Kind::Enospc,
            1,
            1,
        ));
        let mut out = Vec::new();
        let err = fio::write_all(fault::Site::SegmentWrite, &mut out, b"x").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "ENOSPC reaches the caller");
        assert!(out.is_empty());
        // The rule is spent: the next write goes through.
        fio::write_all(fault::Site::SegmentWrite, &mut out, b"x").unwrap();
        assert_eq!(out, b"x");
        fault::clear();
    }

    #[test]
    fn wake_pipe_absorbs_injected_eintr() {
        let _g = fault_gate();
        let wp = WakePipe::new().unwrap();
        let mut ep = Epoll::new().unwrap();
        ep.add(wp.read_fd(), 3, Interest::READ).unwrap();
        fault::install(
            fault::Plan::new(11)
                .rule(fault::Site::WakeNotify, fault::Kind::Eintr, 1, 4)
                .rule(fault::Site::WakeDrain, fault::Kind::Eintr, 1, 4),
        );
        wp.notify().unwrap();
        let mut events = Vec::new();
        // Epoll sees the wake despite EINTR on the notify path...
        assert_eq!(ep.wait(&mut events, 1000).unwrap(), 1);
        // ...and the drain empties the pipe despite EINTR on its path.
        wp.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
        fault::clear();
    }

    #[test]
    fn epoll_maps_injected_eintr_to_empty_wakeups() {
        let _g = fault_gate();
        let wp = WakePipe::new().unwrap();
        let mut ep = Epoll::new().unwrap();
        ep.add(wp.read_fd(), 5, Interest::READ).unwrap();
        wp.notify().unwrap();
        fault::install(fault::Plan::new(13).rule(fault::Site::EpollWait, fault::Kind::Eintr, 1, 1));
        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "EINTR wakeup is empty");
        assert_eq!(
            ep.wait(&mut events, 1000).unwrap(),
            1,
            "retry sees the byte"
        );
        fault::clear();
    }

    #[test]
    fn epoll_reports_write_unblocking() {
        let _g = fault_gate();
        use std::os::unix::io::AsRawFd;
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let fd = b.as_raw_fd();

        // Fill the send buffer until the kernel pushes back.
        let junk = [0u8; 65536];
        loop {
            let mut sock = &b;
            match std::io::Write::write(&mut sock, &junk) {
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }

        let mut ep = Epoll::new().unwrap();
        ep.add(fd, 9, Interest::READ_WRITE).unwrap();
        let mut events = Vec::new();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "send buffer full");

        // Reader drains; EPOLLOUT must fire.
        let mut a = a;
        let mut sink = [0u8; 65536];
        let drainer = std::thread::spawn(move || {
            let deadline = Instant::now() + std::time::Duration::from_secs(5);
            while Instant::now() < deadline {
                if a.read(&mut sink).unwrap_or(0) == 0 {
                    break;
                }
            }
        });
        let n = ep.wait(&mut events, 5000).unwrap();
        assert!(n >= 1, "EPOLLOUT after peer drains");
        assert!(events.iter().any(|e| e.token == 9 && e.writable));
        drop(b);
        drainer.join().unwrap();
    }
}
