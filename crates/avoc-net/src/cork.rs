//! Syscall-coalescing egress: the corked writer.
//!
//! Every sender in the pipeline used to issue one `write_all` per frame —
//! at daemon scale the serve path is bound by those syscalls, not by
//! fusion. [`CorkedWriter`] restores the batching the kernel can't do for
//! us: frames are encoded (allocation-free, via
//! [`Message::encode_into`]) into one reusable buffer and the whole
//! backlog is flushed with as few `write` calls as the socket accepts.
//!
//! The policy is chosen by the *caller's* work rather than a timer: a
//! reactor connection's frames are encoded straight into its outbox while
//! a read is handled, then [`CorkedWriter::append`]ed here and flushed in
//! one go before the next read — so coalescing only ever happens when
//! there is a backlog to coalesce. No frame waits on a clock tick.

use crate::message::Message;
use bytes::{Buf, BytesMut};
use std::io::{self, Write};

/// The cork threshold a blocking sender flushes at even if it still has
/// frames to push. 64 KiB comfortably exceeds a loopback send buffer slice
/// while bounding sender-side memory per connection.
pub const DEFAULT_CORK_LIMIT: usize = 64 * 1024;

/// Cumulative I/O counters for one [`CorkedWriter`] — the instrumentation
/// the service counters (and through them `benchmark/`'s
/// `net.writer_writes_per_kround`) read to report frames per flush and
/// syscalls per reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Frames pushed (encoded into the cork buffer).
    pub frames: u64,
    /// Completed flushes that moved at least one byte.
    pub flushes: u64,
    /// `write` syscalls issued (a flush needs more than one only when the
    /// socket accepts a short write).
    pub writes: u64,
    /// Payload bytes handed to the socket.
    pub bytes: u64,
}

avoc_obs::facts! {
    /// Live registry handles for a connection's wire I/O: its corked writer
    /// records the egress cells, the reactor's read path `bytes_received`.
    /// Registration is idempotent, so every connection of one daemon shares
    /// the same cells; recording is relaxed atomics, adding no locks or
    /// allocations to the push/flush paths.
    pub struct CorkMetrics => pub struct CorkSnapshot {
        /// Bytes written to tenant sockets.
        bytes_sent: Counter = "avoc_bytes_sent_total",
        /// Bytes read from tenant sockets.
        pub bytes_received: Counter = "avoc_bytes_received_total",
        /// Frames encoded into outbound writer buffers.
        frames_sent: Counter = "avoc_frames_sent_total",
        // `frames_sent / writer_flushes` is the realized egress batching
        // factor.
        /// Coalesced writer flushes.
        writer_flushes: Counter = "avoc_writer_flushes_total",
        // Short writes retry, so this can exceed `writer_flushes`.
        /// write(2) calls issued by connection writers.
        writer_writes: Counter = "avoc_writer_writes_total",
    }
}

/// A per-connection corked writer: encode many frames, write once.
///
/// [`push`](CorkedWriter::push) never touches the socket;
/// [`flush`](CorkedWriter::flush) drains everything pending. A failed
/// flush keeps the unwritten suffix buffered (the written prefix is
/// consumed), so callers with transient errors can retry without
/// duplicating bytes on the wire.
#[derive(Debug)]
pub struct CorkedWriter<W: Write> {
    inner: W,
    buf: BytesMut,
    stats: WriterStats,
    metrics: Option<CorkMetrics>,
}

impl<W: Write> CorkedWriter<W> {
    /// Wraps `inner`; the cork is full at [`DEFAULT_CORK_LIMIT`] pending
    /// bytes.
    pub fn new(inner: W) -> Self {
        CorkedWriter {
            inner,
            buf: BytesMut::with_capacity(DEFAULT_CORK_LIMIT),
            stats: WriterStats::default(),
            metrics: None,
        }
    }

    /// Mirrors this writer's counters into live registry cells (in addition
    /// to the local [`WriterStats`]).
    pub fn set_metrics(&mut self, metrics: CorkMetrics) {
        self.metrics = Some(metrics);
    }

    /// Encodes one frame into the cork buffer. No I/O happens here.
    pub fn push(&mut self, msg: &Message) {
        msg.encode_into(&mut self.buf);
        self.stats.frames += 1;
        if let Some(m) = &self.metrics {
            m.frames_sent.inc();
        }
    }

    /// Moves `frames` frames someone else already encoded out of `bytes`,
    /// which is left empty with an allocation kept for reuse, to the end
    /// of the cork buffer. No I/O happens here. An empty cork trades
    /// buffers with `bytes` instead of copying, and what it hands back is
    /// at least as large as what it took: neither side of the trade then
    /// has to grow again to a size the other already reached.
    pub fn append(&mut self, bytes: &mut BytesMut, frames: u64) {
        if self.buf.is_empty() {
            std::mem::swap(&mut self.buf, bytes);
            if bytes.capacity() < self.buf.capacity() {
                *bytes = BytesMut::with_capacity(self.buf.capacity());
            }
        } else {
            self.buf.extend_from_slice(bytes);
        }
        bytes.clear();
        self.stats.frames += frames;
        if let Some(m) = &self.metrics {
            m.frames_sent.add(frames);
        }
    }

    /// Whether any encoded bytes await a flush.
    pub fn has_pending(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> WriterStats {
        self.stats
    }

    /// The wrapped writer (e.g. to set socket deadlines).
    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    /// Mutable access to the wrapped writer.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }

    /// Writes every pending byte to the socket, issuing as few `write`
    /// calls as it accepts. A no-op (no syscall) when nothing is pending.
    ///
    /// # Errors
    ///
    /// Propagates the first write error. The written prefix is consumed
    /// from the buffer before returning, so a retrying caller resumes at
    /// the exact unwritten byte; `Ok(0)` surfaces as
    /// [`io::ErrorKind::WriteZero`].
    pub fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        while !self.buf.is_empty() {
            match self.inner.write(&self.buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.stats.writes += 1;
                    self.stats.bytes += n as u64;
                    if let Some(m) = &self.metrics {
                        m.writer_writes.inc();
                        m.bytes_sent.add(n as u64);
                    }
                    self.buf.advance(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Fully drained: reset the cursor so the allocation is reused
        // instead of compacted on the next push.
        self.buf.clear();
        self.stats.flushes += 1;
        if let Some(m) = &self.metrics {
            m.writer_flushes.inc();
        }
        Ok(())
    }

    /// [`CorkedWriter::flush`] for non-blocking sockets: drains as much as
    /// the socket accepts *right now* and reports [`FlushOutcome::Blocked`]
    /// instead of an error when the kernel pushes back (`EWOULDBLOCK`). The
    /// unwritten suffix stays buffered for the next readiness event, exactly
    /// like a failed blocking flush.
    ///
    /// # Errors
    ///
    /// Propagates real write errors (peer reset, `Ok(0)` as `WriteZero`);
    /// `WouldBlock` is *not* an error in this mode.
    pub fn flush_nonblocking(&mut self) -> io::Result<FlushOutcome> {
        if self.buf.is_empty() {
            return Ok(FlushOutcome::Drained);
        }
        while !self.buf.is_empty() {
            match self.inner.write(&self.buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.stats.writes += 1;
                    self.stats.bytes += n as u64;
                    if let Some(m) = &self.metrics {
                        m.writer_writes.inc();
                        m.bytes_sent.add(n as u64);
                    }
                    self.buf.advance(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(FlushOutcome::Blocked);
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.stats.flushes += 1;
        if let Some(m) = &self.metrics {
            m.writer_flushes.inc();
        }
        Ok(FlushOutcome::Drained)
    }
}

/// What [`CorkedWriter::flush_nonblocking`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Every pending byte reached the socket.
    Drained,
    /// The socket stopped accepting bytes; the suffix stays buffered and
    /// the caller should re-arm write interest.
    Blocked,
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_core::ModuleId;
    use avoc_obs::Registry;
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn sample_frames() -> Vec<Message> {
        vec![
            Message::Reading {
                module: ModuleId::new(1),
                round: 7,
                value: 18.5,
            },
            Message::SessionResult {
                session: 3,
                round: 9,
                value: None,
                voted: false,
            },
            Message::Error {
                session: 4,
                message: "boom".into(),
            },
            Message::Shutdown,
        ]
    }

    #[test]
    fn coalesced_bytes_match_per_frame_encoding() {
        let mut w = CorkedWriter::new(Vec::new());
        let mut expected = Vec::new();
        for msg in sample_frames() {
            w.push(&msg);
            expected.extend_from_slice(&msg.encode());
        }
        assert!(w.has_pending());
        w.flush().unwrap();
        assert!(!w.has_pending());
        assert_eq!(w.get_ref().as_slice(), expected.as_slice());
    }

    #[test]
    fn appended_bytes_follow_pushed_ones_and_count_their_frames() {
        let mut w = CorkedWriter::new(Vec::new());
        let mut expected = Vec::new();
        let mut outside = BytesMut::new();
        for (i, msg) in sample_frames().iter().enumerate() {
            expected.extend_from_slice(&msg.encode());
            if i == 0 {
                w.push(msg);
            } else {
                msg.encode_into(&mut outside);
            }
        }
        // Onto a non-empty cork: copied behind what is there.
        w.append(&mut outside, 3);
        assert!(outside.is_empty());
        w.flush().unwrap();
        assert_eq!(w.get_ref().as_slice(), expected.as_slice());
        // Onto an empty cork: the buffers trade places, and the one handed
        // back is at least as large as the one taken.
        Message::Shutdown.encode_into(&mut outside);
        let taken = outside.capacity();
        w.append(&mut outside, 1);
        assert!(outside.is_empty());
        assert!(outside.capacity() >= taken.max(DEFAULT_CORK_LIMIT));
        w.flush().unwrap();
        expected.extend_from_slice(&Message::Shutdown.encode());
        assert_eq!(w.get_ref().as_slice(), expected.as_slice());
        assert_eq!(w.stats().frames, 5);
    }

    #[test]
    fn stats_count_frames_flushes_and_writes() {
        let mut w = CorkedWriter::new(Vec::new());
        w.flush().unwrap(); // empty flush: no syscall, no counter
        assert_eq!(w.stats(), WriterStats::default());
        for msg in sample_frames() {
            w.push(&msg);
        }
        let pending = w.buf.len() as u64;
        w.flush().unwrap();
        let stats = w.stats();
        assert_eq!(stats.frames, 4);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.writes, 1, "Vec accepts everything in one write");
        assert_eq!(stats.bytes, pending);
    }

    #[test]
    fn registry_metrics_mirror_local_stats() {
        let registry = Registry::new();
        let mut w = CorkedWriter::new(Vec::new());
        w.set_metrics(CorkMetrics::register(&registry, &[]));
        for msg in sample_frames() {
            w.push(&msg);
        }
        w.flush().unwrap();
        let stats = w.stats();
        let cells_now = |r: &Registry| CorkMetrics::register(r, &[]).snapshot();
        let cells = cells_now(&registry);
        let writer = (cells.frames_sent, cells.writer_flushes, cells.writer_writes);
        assert_eq!(writer, (stats.frames, stats.flushes, stats.writes));
        assert_eq!(cells.bytes_sent, stats.bytes);
        assert_eq!(cells.bytes_received, 0, "a writer only sends");
        // A second writer registered the same way lands on the same cells.
        let mut w2 = CorkedWriter::new(Vec::new());
        w2.set_metrics(CorkMetrics::register(&registry, &[]));
        w2.push(&Message::Shutdown);
        w2.flush().unwrap();
        assert_eq!(cells_now(&registry).frames_sent, stats.frames + 1);
    }

    /// A writer that accepts at most `cap` bytes per call and fails on the
    /// calls whose index is in `fail_on`, for exercising short writes and
    /// retry-after-error.
    struct Choppy {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
        fail_on: Vec<usize>,
    }

    impl Write for Choppy {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            let call = self.calls;
            self.calls += 1;
            if self.fail_on.contains(&call) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "wedged"));
            }
            let n = data.len().min(self.cap);
            self.out.extend_from_slice(&data[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_drain_fully_in_one_flush() {
        let mut w = CorkedWriter::new(Choppy {
            out: Vec::new(),
            cap: 7,
            calls: 0,
            fail_on: vec![],
        });
        let mut expected = Vec::new();
        for msg in sample_frames() {
            w.push(&msg);
            expected.extend_from_slice(&msg.encode());
        }
        w.flush().unwrap();
        assert_eq!(w.get_ref().out, expected);
        let stats = w.stats();
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.writes as usize, expected.len().div_ceil(7));
    }

    #[test]
    fn failed_flush_keeps_the_unwritten_suffix_for_retry() {
        let mut w = CorkedWriter::new(Choppy {
            out: Vec::new(),
            cap: 5,
            calls: 0,
            fail_on: vec![2],
        });
        let mut expected = Vec::new();
        for msg in sample_frames() {
            w.push(&msg);
            expected.extend_from_slice(&msg.encode());
        }
        let err = w.flush().expect_err("third write is wedged");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(w.has_pending(), "unwritten suffix stays buffered");
        assert_eq!(w.get_ref().out, expected[..10].to_vec());
        // The retry resumes at byte 10 — nothing duplicated on the wire.
        w.flush().unwrap();
        assert_eq!(w.get_ref().out, expected);
        assert_eq!(w.stats().flushes, 1, "only the completed flush counts");
    }

    #[test]
    fn nonblocking_flush_parks_on_wouldblock_and_resumes() {
        let mut w = CorkedWriter::new(Choppy {
            out: Vec::new(),
            cap: 5,
            calls: 0,
            fail_on: vec![2],
        });
        let mut expected = Vec::new();
        for msg in sample_frames() {
            w.push(&msg);
            expected.extend_from_slice(&msg.encode());
        }
        // Third write reports WouldBlock: not an error in this mode, the
        // suffix stays corked for the next readiness event.
        assert_eq!(w.flush_nonblocking().unwrap(), FlushOutcome::Blocked);
        assert!(w.has_pending());
        assert_eq!(w.get_ref().out, expected[..10].to_vec());
        assert_eq!(w.stats().flushes, 0, "a parked flush is not complete");
        // Readiness: the retry resumes at byte 10 and drains.
        assert_eq!(w.flush_nonblocking().unwrap(), FlushOutcome::Drained);
        assert_eq!(w.get_ref().out, expected);
        assert_eq!(w.stats().flushes, 1);
        // Empty buffer: drained without a syscall.
        let calls = w.get_ref().calls;
        assert_eq!(w.flush_nonblocking().unwrap(), FlushOutcome::Drained);
        assert_eq!(w.get_ref().calls, calls);
    }

    #[test]
    fn wedged_peer_surfaces_the_socket_write_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        // Accept but never read, so kernel buffers eventually fill.
        let (_peer, _) = listener.accept().unwrap();
        stream
            .set_write_timeout(Some(Duration::from_millis(50)))
            .unwrap();

        let mut w = CorkedWriter::new(stream);
        let big = Message::Error {
            session: 1,
            message: "x".repeat(64 * 1024),
        };
        // ~16 MiB corked: far beyond any default socket buffer.
        for _ in 0..256 {
            w.push(&big);
        }
        let start = Instant::now();
        let err = w.flush().expect_err("peer never reads");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected error kind {:?}",
            err.kind()
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline must fire long before a blocking write would return"
        );
        assert!(w.has_pending(), "the wedged suffix stays buffered");
    }
}
