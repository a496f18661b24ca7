//! A fixed-capacity ring of per-round span events.
//!
//! Aggregate histograms say *how much* time rounds spend; the trace ring
//! says *where*: each sampled round leaves one [`Span`] per pipeline stage
//! (`ingest → queue → fuse → flush`), so queue delay, fuse time and writer
//! flush time are separable per tenant after the fact. The ring is
//! preallocated and spans are `Copy`, so recording allocates nothing; a
//! 1-in-N sampling gate ([`TraceRing::sample`]) keeps the cost of an
//! *unsampled* round to a single relaxed atomic increment — and to nothing
//! at all when tracing is disabled.

use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process. Monotonic and shared
/// across threads, so spans recorded anywhere in the process line up on one
/// timeline.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A pipeline stage a round passes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Frame decoded off the wire and handed to the service.
    Ingest,
    /// The wait for the shard's lock: from the step's request for it (or
    /// the hand-off to a helper thread) until the step holds it.
    Queue,
    /// Fusion: the run of `VotingEngine::submit_row` calls
    /// timed under one clock pair, from where the batch's clock last
    /// started to the end of this round.
    Fuse,
    /// The burst's verdicts encoded into the connection's `Outbox` (or
    /// handed to an in-process sink). The pump and the `write(2)` that
    /// carry them are not in it.
    Flush,
}

impl Stage {
    /// Lower-case stage name used in exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Queue => "queue",
            Stage::Fuse => "fuse",
            Stage::Flush => "flush",
        }
    }
}

/// One recorded stage of one sampled round. `Copy`, so recording never
/// allocates.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Session (tenant) the round belongs to.
    pub session: u64,
    /// Round index within the session.
    pub round: u64,
    /// Which pipeline stage this span measures.
    pub stage: Stage,
    /// Stage start, in [`now_ns`] time.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug)]
struct Slots {
    /// Preallocated storage; never grows after construction.
    buf: Vec<Span>,
    /// Next write position.
    head: usize,
    /// Number of live spans (`== buf.capacity()` once the ring has wrapped).
    len: usize,
}

#[derive(Debug)]
struct Inner {
    every: u64,
    tick: AtomicU64,
    capacity: usize,
    slots: Mutex<Slots>,
}

/// A shareable trace ring. Clones are cheap and record into the same ring.
#[derive(Debug, Clone)]
pub struct TraceRing {
    inner: Arc<Inner>,
}

impl TraceRing {
    /// A ring holding up to `capacity` spans, sampling one round in
    /// `every`. `every == 0` disables tracing entirely; `every == 1`
    /// samples every round.
    pub fn new(capacity: usize, every: u64) -> Self {
        TraceRing {
            inner: Arc::new(Inner {
                every,
                tick: AtomicU64::new(0),
                capacity,
                slots: Mutex::new(Slots {
                    buf: Vec::with_capacity(capacity),
                    head: 0,
                    len: 0,
                }),
            }),
        }
    }

    /// Whether this ring ever samples.
    fn is_enabled(&self) -> bool {
        self.inner.every != 0 && self.inner.capacity != 0
    }

    /// The sampling decision for the next round: `true` once per `every`
    /// calls. One relaxed `fetch_add` when enabled, one branch when not.
    pub fn sample(&self) -> bool {
        if !self.is_enabled() {
            return false;
        }
        self.inner
            .tick
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.inner.every)
    }

    /// Records one span, overwriting the oldest once full. Allocation-free:
    /// the ring's storage is preallocated and `Span` is `Copy`.
    pub fn record(&self, span: Span) {
        if !self.is_enabled() {
            return;
        }
        let mut slots = self.inner.slots.lock();
        let head = slots.head;
        if slots.len < self.inner.capacity {
            slots.buf.push(span);
            slots.len += 1;
        } else {
            slots.buf[head] = span;
        }
        slots.head = (head + 1) % self.inner.capacity;
    }

    /// Every live span, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        let slots = self.inner.slots.lock();
        let mut out = Vec::with_capacity(slots.len);
        if slots.len == slots.buf.len() && slots.len > 0 {
            // Wrapped: oldest span sits at `head`.
            out.extend_from_slice(&slots.buf[slots.head..]);
            out.extend_from_slice(&slots.buf[..slots.head]);
        } else {
            out.extend_from_slice(&slots.buf);
        }
        out
    }

    /// Live spans for one session, oldest first.
    fn for_session(&self, session: u64) -> Vec<Span> {
        self.snapshot()
            .into_iter()
            .filter(|s| s.session == session)
            .collect()
    }

    /// Renders spans (optionally filtered to one session) as a JSON array
    /// of `{"session", "round", "stage", "start_ns", "dur_ns"}` objects,
    /// oldest first.
    pub fn render_json(&self, session: Option<u64>) -> String {
        let spans = match session {
            Some(id) => self.for_session(id),
            None => self.snapshot(),
        };
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"session\": {}, \"round\": {}, \"stage\": \"{}\", \
                 \"start_ns\": {}, \"dur_ns\": {}}}",
                s.session,
                s.round,
                s.stage.as_str(),
                s.start_ns,
                s.dur_ns
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(session: u64, round: u64) -> Span {
        Span {
            session,
            round,
            stage: Stage::Fuse,
            start_ns: round * 10,
            dur_ns: 5,
        }
    }

    #[test]
    fn sampling_fires_once_per_cadence() {
        let ring = TraceRing::new(16, 4);
        let hits = (0..32).filter(|_| ring.sample()).count();
        assert_eq!(hits, 8, "1-in-4 over 32 rounds");
    }

    #[test]
    fn disabled_ring_never_samples_or_records() {
        let ring = TraceRing::new(16, 0);
        assert!(!ring.is_enabled());
        assert!((0..100).all(|_| !ring.sample()));
        ring.record(span(1, 1));
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn ring_wraps_keeping_newest_oldest_first() {
        let ring = TraceRing::new(4, 1);
        for round in 0..6 {
            ring.record(span(1, round));
        }
        let rounds: Vec<u64> = ring.snapshot().iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![2, 3, 4, 5]);
    }

    #[test]
    fn per_session_filter_and_json() {
        let ring = TraceRing::new(8, 1);
        ring.record(span(1, 0));
        ring.record(span(2, 0));
        ring.record(span(1, 1));
        assert_eq!(ring.for_session(1).len(), 2);
        let json = ring.render_json(Some(2));
        assert!(json.contains("\"session\": 2"));
        assert!(!json.contains("\"session\": 1"));
        assert!(json.contains("\"stage\": \"fuse\""));
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
