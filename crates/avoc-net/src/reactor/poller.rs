//! Backend selection: epoll where the kernel offers it, `poll(2)` elsewhere.

use std::io;
use std::os::unix::io::RawFd;
use sysio::{Epoll, Event, Interest, PollSet};

/// The readiness backend driving a reactor: one epoll instance on Linux,
/// or the portable `poll(2)` set. Chosen once at startup — epoll when
/// available, unless the caller pins the fallback (see
/// `reactor::poll_forced`), which is how the test suite exercises both
/// paths on one machine.
#[derive(Debug)]
pub(crate) enum Poller {
    /// Linux epoll.
    Epoll(Epoll),
    /// Portable fallback.
    Poll(PollSet),
}

impl Poller {
    pub(crate) fn new(force_poll: bool) -> Poller {
        if !force_poll {
            if let Ok(ep) = Epoll::new() {
                return Poller::Epoll(ep);
            }
        }
        Poller::Poll(PollSet::new())
    }

    /// Which backend ended up selected (surfaced in metrics and benches).
    pub(crate) fn backend(&self) -> &'static str {
        match self {
            Poller::Epoll(_) => "epoll",
            Poller::Poll(_) => "poll",
        }
    }

    pub(crate) fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            Poller::Epoll(p) => p.add(fd, token, interest),
            Poller::Poll(p) => p.add(fd, token, interest),
        }
    }

    pub(crate) fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self {
            Poller::Epoll(p) => p.modify(fd, token, interest),
            Poller::Poll(p) => p.modify(fd, token, interest),
        }
    }

    pub(crate) fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        match self {
            Poller::Epoll(p) => p.remove(fd),
            Poller::Poll(p) => p.remove(fd),
        }
    }

    pub(crate) fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        match self {
            Poller::Epoll(p) => p.wait(out, timeout_ms),
            Poller::Poll(p) => p.wait(out, timeout_ms),
        }
    }
}
