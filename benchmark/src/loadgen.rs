//! The load generator: raw `TcpStream`s speaking `avoc_net::Message`
//! frames, one receiver thread per connection, and the two sending
//! disciplines — ticks on a schedule (open loop) and a bounded number of
//! frames in flight (closed loop).
//!
//! The generator also carries the one piece of client logic the workloads
//! need and `ResilientClient` lacks: it tracks the owning connection *per
//! session*, so when a node announces mid-stream that a session moved it
//! re-attaches that session alone on the other node's connection and
//! replays what the old owner never fused.

use avoc_core::ModuleId;
use avoc_net::{BatchReading, Message, SpecSource};
use bytes::BytesMut;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::input::{Fused, Input, Verdict, MODULES};
use crate::stats::percentile;
use crate::trace::Span;

/// Resume token every bench session is opened under.
const TOKEN: u64 = 0xBE4C;
/// How long before a tick is due the sender stops sleeping and spins.
const SPIN_NS: u64 = 150_000;
/// How long a verdict may be outstanding before it counts as lost. A lost
/// verdict never arrives, so a long wait costs nothing on a healthy run; a
/// short one would read a stalled host (this guest's CPUs are taken away
/// for 100 ms at a time on an ordinary hour) as a lossy daemon.
pub const VERDICT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long before the spin a tick workload reads the daemon's CPU counter
/// (the read itself takes 50–150 µs).
const CPU_READ_NS: u64 = 500_000;
/// Length of a closed-loop slice.
const BULK_SLICE_NS: u64 = 100_000_000;

/// Nanoseconds on the bench clock (monotonic, shared by every thread).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a receiver thread tells the sender about.
#[derive(Debug)]
pub enum Event {
    Resumed {
        session: u64,
        high_round: Option<u64>,
        warm: bool,
    },
    Redirect {
        session: u64,
        epoch: u64,
        addr: String,
    },
    /// `every` more verdicts of `session` arrived (closed loop only).
    Credit { session: u64, at_ns: u64 },
}

/// Everything one connection's receiver saw.
#[derive(Default)]
pub struct Received {
    /// Verdicts by session id.
    pub verdicts: Vec<Vec<Verdict>>,
    /// `Error` frames and undecodable frames.
    pub error_frames: u64,
    /// `loadgen.decode` spans, one per socket read (traced runs only).
    pub spans: Vec<Span>,
}

struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    out: BytesMut,
    rx: Option<JoinHandle<Received>>,
}

/// State shared between the sender and the receivers.
struct Shared {
    /// Per session: highest round answered, plus one (0 = none yet).
    acked: Vec<AtomicU64>,
    /// A `Credit` event leaves every this many verdicts (0 = never).
    credit_every: u64,
    traced: bool,
}

/// One receiver's bookkeeping while it decodes.
struct Rx {
    got: Received,
    /// Verdicts seen per session, for closed-loop credits.
    counts: Vec<u64>,
    shared: Arc<Shared>,
    events: Sender<Event>,
}

impl Rx {
    fn verdict(&mut self, session: u64, round: u64, value: Option<f64>, voted: bool, at_ns: u64) {
        let s = session as usize;
        let Some(list) = self.got.verdicts.get_mut(s) else {
            self.got.error_frames += 1;
            return;
        };
        list.push(Verdict {
            round,
            fused: Fused {
                bits: value.map(f64::to_bits),
                voted,
            },
            at_ns,
        });
        self.shared.acked[s].fetch_max(round + 1, Ordering::Relaxed);
        self.counts[s] += 1;
        let every = self.shared.credit_every;
        if every != 0 && self.counts[s].is_multiple_of(every) {
            let _ = self.events.send(Event::Credit { session, at_ns });
        }
    }

    /// Handles one frame; returns the first round it answered, if any.
    fn frame(&mut self, msg: Message) -> Option<u64> {
        let at_ns = now_ns();
        match msg {
            Message::SessionResult {
                session,
                round,
                value,
                voted,
            } => {
                self.verdict(session, round, value, voted, at_ns);
                return Some(round);
            }
            Message::ResultBatch { session, results } => {
                for r in &results {
                    self.verdict(session, r.round, r.value, r.voted, at_ns);
                }
                return results.first().map(|r| r.round);
            }
            Message::Resumed {
                session,
                high_round,
                warm,
            } => {
                let _ = self.events.send(Event::Resumed {
                    session,
                    high_round,
                    warm,
                });
            }
            Message::Redirect {
                session,
                epoch,
                addr,
            } => {
                let _ = self.events.send(Event::Redirect {
                    session,
                    epoch,
                    addr,
                });
            }
            Message::Error { session, message } => {
                eprintln!("daemon error frame for session {session}: {message}");
                self.got.error_frames += 1;
            }
            _ => {}
        }
        None
    }
}

fn receive(mut stream: TcpStream, shared: Arc<Shared>, events: Sender<Event>) -> Received {
    let sessions = shared.acked.len();
    let mut rx = Rx {
        got: Received {
            verdicts: vec![Vec::new(); sessions],
            ..Received::default()
        },
        counts: vec![0; sessions],
        shared,
        events,
    };
    let mut buf = BytesMut::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return rx.got,
            Ok(n) => n,
        };
        let read_ns = now_ns();
        buf.extend_from_slice(&chunk[..n]);
        let mut first_round = None;
        loop {
            match Message::decode(&mut buf) {
                Ok(msg) => first_round = first_round.or(rx.frame(msg)),
                Err(avoc_net::message::DecodeError::Incomplete) => break,
                Err(_) => rx.got.error_frames += 1,
            }
        }
        if rx.shared.traced {
            rx.got.spans.push(Span::new(
                "loadgen.decode",
                read_ns,
                now_ns(),
                first_round.unwrap_or(u64::MAX),
            ));
        }
    }
}

/// Runs `frames` through a receiver's bookkeeping without a socket — the
/// oracle self-test's way in.
pub fn replay_frames(sessions: usize, frames: Vec<Message>) -> Received {
    let mut rx = Rx {
        got: Received {
            verdicts: vec![Vec::new(); sessions],
            ..Received::default()
        },
        counts: vec![0; sessions],
        shared: Arc::new(Shared {
            acked: (0..sessions).map(|_| AtomicU64::new(0)).collect(),
            credit_every: 0,
            traced: false,
        }),
        events: std::sync::mpsc::channel().0,
    };
    for frame in frames {
        rx.frame(frame);
    }
    rx.got
}

/// A session that a node said has moved, waiting to re-attach.
#[derive(Debug, Clone, Copy)]
struct Moving {
    epoch: u64,
    target: usize,
    resume_sent: bool,
}

/// Tells the client when a migration's import has landed on the target.
pub type EpochProbe<'a> = &'a dyn Fn() -> u64;
/// Reads the daemons' cumulative CPU time, ns.
pub type CpuProbe<'a> = &'a dyn Fn() -> u64;

/// A short stretch of a window measured on its own: one tick of an open
/// loop, 100 ms of a closed one. A run's timings are taken over the slices
/// of all its repetitions (see `report::Outcome::value`). 0 = the slice
/// does not define the value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slice {
    /// p50 of the latency samples that ended in the slice.
    pub p50_us: f64,
    /// Daemon CPU over the slice / rounds answered in it.
    pub cpu_us_per_round: f64,
    /// Rounds answered per second; 0 on an open loop, where the schedule
    /// sets the rate.
    pub rounds_per_s: f64,
}

/// The generator's connections and per-session routing.
pub struct Client<'a> {
    input: &'a Input,
    conns: Vec<Conn>,
    events: Receiver<Event>,
    events_tx: Sender<Event>,
    shared: Arc<Shared>,
    /// Connection index that owns each session.
    owner: Vec<usize>,
    moving: Vec<Option<Moving>>,
    /// Sessions that finished a migration, in completion order.
    pub migrated: Vec<u64>,
    /// First round not sent yet (ticks advance every session together).
    pub next_round: u64,
    /// Resumes that came back cold where warm history was required.
    pub cold_resumes: u64,
    /// Closed connections' receivers, kept until `finish`.
    done: Vec<Received>,
    readings: Vec<BatchReading>,
    /// `loadgen.encode` / `loadgen.write` spans (traced runs only).
    pub spans: Vec<Span>,
}

impl<'a> Client<'a> {
    pub fn new(input: &'a Input, sessions: u64, credit_every: u64, traced: bool) -> Client<'a> {
        let (events_tx, events) = std::sync::mpsc::channel();
        Client {
            input,
            conns: Vec::new(),
            events,
            events_tx,
            shared: Arc::new(Shared {
                acked: (0..sessions).map(|_| AtomicU64::new(0)).collect(),
                credit_every,
                traced,
            }),
            owner: vec![0; sessions as usize],
            moving: vec![None; sessions as usize],
            migrated: Vec::new(),
            next_round: 0,
            cold_resumes: 0,
            done: Vec::new(),
            readings: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn sessions(&self) -> u64 {
        self.owner.len() as u64
    }

    /// Connects to a daemon and starts its receiver; returns the
    /// connection's index.
    pub fn connect(&mut self, addr: SocketAddr) -> std::io::Result<usize> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let rx = {
            let stream = stream.try_clone()?;
            let shared = Arc::clone(&self.shared);
            let events = self.events_tx.clone();
            std::thread::Builder::new()
                .name("bench-rx".into())
                .spawn(move || receive(stream, shared, events))?
        };
        self.conns.push(Conn {
            addr,
            stream,
            out: BytesMut::with_capacity(1 << 16),
            rx: Some(rx),
        });
        Ok(self.conns.len() - 1)
    }

    /// Closes every connection and collects what its receiver saw. A dead
    /// daemon's sockets are already at EOF; a live one's are shut down.
    pub fn disconnect(&mut self) {
        for conn in &mut self.conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
            if let Some(rx) = conn.rx.take() {
                self.done.push(rx.join().expect("receiver thread panicked"));
            }
        }
        self.conns.clear();
    }

    /// Ends the run: every connection's verdicts merged per session, plus
    /// the error-frame count and decode spans.
    pub fn finish(mut self) -> Received {
        self.disconnect();
        let mut all = Received {
            verdicts: vec![Vec::new(); self.owner.len()],
            ..Received::default()
        };
        for part in self.done {
            for (merged, mut list) in all.verdicts.iter_mut().zip(part.verdicts) {
                merged.append(&mut list);
            }
            all.error_frames += part.error_frames;
            all.spans.extend(part.spans);
        }
        all
    }

    pub fn set_owner(&mut self, session: u64, conn: usize) {
        self.owner[session as usize] = conn;
    }

    fn acked(&self, session: u64) -> Option<u64> {
        self.shared.acked[session as usize]
            .load(Ordering::Relaxed)
            .checked_sub(1)
    }

    /// Writes what is buffered for `conn`.
    fn flush(&mut self, conn: usize) -> std::io::Result<()> {
        let c = &mut self.conns[conn];
        if !c.out.is_empty() {
            c.stream.write_all(&c.out)?;
            c.out.clear();
        }
        Ok(())
    }

    /// Sends `ResumeSession` for each of `sessions` on its owning
    /// connection — the idempotent open, acknowledged by `Resumed` — and
    /// waits for every acknowledgement. `want_warm` states whether history
    /// must have been restored; a resume that disagrees is counted in
    /// `cold_resumes`.
    pub fn open_sessions(
        &mut self,
        sessions: std::ops::Range<u64>,
        want_warm: bool,
    ) -> std::io::Result<()> {
        for s in sessions.clone() {
            self.push_resume(s, self.owner[s as usize]);
        }
        for conn in 0..self.conns.len() {
            self.flush(conn)?;
        }
        let mut pending = sessions.end - sessions.start;
        let deadline = Instant::now() + VERDICT_TIMEOUT;
        while pending > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(left) {
                Ok(Event::Resumed { warm, .. }) => {
                    pending -= 1;
                    if warm != want_warm {
                        self.cold_resumes += 1;
                    }
                }
                Ok(_) => {}
                Err(_) => {
                    return Err(std::io::Error::other(format!(
                        "{pending} sessions never acknowledged their open"
                    )))
                }
            }
        }
        Ok(())
    }

    fn push_resume(&mut self, session: u64, conn: usize) {
        let last_acked = self.acked(session);
        Message::ResumeSession {
            session,
            modules: MODULES,
            spec: SpecSource::Named("avoc".into()),
            token: TOKEN,
            last_acked,
        }
        .encode_into(&mut self.conns[conn].out);
    }

    /// Buffers rounds `rounds` of `session` as one `FeedBatch` frame on
    /// `conn`.
    fn push_batch(&mut self, session: u64, rounds: std::ops::Range<u64>, conn: usize) {
        self.readings.clear();
        self.input.readings(session, rounds, &mut self.readings);
        Message::encode_feed_batch_into(session, &self.readings, &mut self.conns[conn].out);
    }

    /// Feeds `rounds` more rounds to every session, `chunk` rounds per
    /// `FeedBatch`, waiting for every answer after each chunk (warm-up, and
    /// the rounds that must continue a resumed stream). The chunk keeps the
    /// burst of result frames under the 256 a connection may have queued
    /// before the daemon sheds them.
    pub fn feed_and_wait(&mut self, rounds: u64, chunk: u64) -> std::io::Result<()> {
        let end = self.next_round + rounds;
        while self.next_round < end {
            let range = self.next_round..(self.next_round + chunk).min(end);
            for s in 0..self.sessions() {
                self.push_batch(s, range.clone(), self.owner[s as usize]);
            }
            for conn in 0..self.conns.len() {
                self.flush(conn)?;
            }
            self.next_round = range.end;
            if !self.wait_answered(VERDICT_TIMEOUT) {
                return Err(std::io::Error::other(
                    "verdicts of an unmeasured phase went missing",
                ));
            }
        }
        Ok(())
    }

    /// Whether every session that is not mid-migration has an answer for
    /// every round below `round`.
    fn answered_through(&self, round: u64) -> bool {
        self.shared
            .acked
            .iter()
            .zip(&self.moving)
            .all(|(a, m)| m.is_some() || a.load(Ordering::Relaxed) >= round)
    }

    /// Waits until every session has an answer for every round sent, or
    /// `limit` passes; returns whether all arrived.
    pub fn wait_answered(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            if self.answered_through(self.next_round) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Open loop: `ticks` ticks, one every `period_ns`, the first due one
    /// period from now. On each tick one round of every session leaves in
    /// one write per connection. Returns when each tick was due and how
    /// late the generator was ready to write it.
    ///
    /// Between ticks the sender services migrations: a session whose owner
    /// said it moved is skipped (its rounds would be dropped there) until
    /// `epoch()` — the gateway's ownership epoch — has passed the
    /// redirect's, which is when the target has acknowledged the import;
    /// re-attaching earlier would find no session on the target and
    /// bootstrap a fresh one, forking the stream.
    pub fn run_ticks(
        &mut self,
        ticks: u64,
        period_ns: u64,
        epoch: Option<EpochProbe>,
        cpu: CpuProbe,
    ) -> std::io::Result<Ticks> {
        let start_ns = now_ns();
        let mut out = Ticks {
            first_round: self.next_round,
            period_ns,
            due_ns: Vec::with_capacity(ticks as usize),
            late_ns: Vec::with_capacity(ticks as usize),
            cpu_ns: Vec::with_capacity(ticks as usize + 1),
        };
        for tick in 0..ticks {
            let due = start_ns + (tick + 1) * period_ns;
            // This late in a period the daemon is idle: what it has used
            // since the last reading went into the previous tick.
            self.service_until(due.saturating_sub(SPIN_NS + CPU_READ_NS), epoch)?;
            out.cpu_ns.push(cpu());
            self.service_until(due.saturating_sub(SPIN_NS), epoch)?;
            while now_ns() < due {
                std::hint::spin_loop();
            }
            let ready_ns = now_ns();
            // At most two ticks are ever unanswered: the daemon queues 256
            // result frames per connection and sheds the rest, so a third
            // tick sent into a stalled daemon would lose verdicts. The
            // schedule does not move — a tick held back here is still timed
            // from when it was due, so the stall is charged to the daemon.
            let held = Instant::now();
            while !self.answered_through(self.next_round.saturating_sub(1))
                && held.elapsed() < VERDICT_TIMEOUT
            {
                self.service_until(now_ns() + 50_000, epoch)?;
            }
            let round = self.next_round;
            let encode_ns = now_ns();
            for s in 0..self.sessions() {
                if self.moving[s as usize].is_some() {
                    continue;
                }
                let frame = &mut self.conns[self.owner[s as usize]].out;
                for module in 0..MODULES {
                    Message::SessionReading {
                        session: s,
                        module: ModuleId::new(module),
                        round,
                        value: self.input.value(s, module, round),
                    }
                    .encode_into(frame);
                }
            }
            self.next_round = round + 1;
            let write_ns = now_ns();
            for conn in 0..self.conns.len() {
                self.flush(conn)?;
            }
            out.due_ns.push(due);
            out.late_ns.push(ready_ns - due);
            if self.shared.traced {
                self.spans
                    .push(Span::new("loadgen.encode", encode_ns, write_ns, round));
                self.spans
                    .push(Span::new("loadgen.write", write_ns, now_ns(), round));
            }
        }
        Ok(out)
    }

    /// Handles events until `until_ns` on the bench clock.
    pub fn service_until(
        &mut self,
        until_ns: u64,
        epoch: Option<EpochProbe>,
    ) -> std::io::Result<()> {
        loop {
            self.advance_migrations(epoch)?;
            let now = now_ns();
            if now >= until_ns {
                return Ok(());
            }
            // While a session waits for its import to land, look again soon.
            let waiting = self.moving.iter().flatten().any(|m| !m.resume_sent);
            let nap = if waiting { 100_000 } else { u64::MAX };
            match self
                .events
                .recv_timeout(Duration::from_nanos(nap.min(until_ns - now)))
            {
                Ok(event) => self.on_event(event)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("the client holds a sender"),
            }
        }
    }

    fn advance_migrations(&mut self, epoch: Option<EpochProbe>) -> std::io::Result<()> {
        let Some(epoch) = epoch else { return Ok(()) };
        for s in 0..self.sessions() {
            if let Some(m) = self.moving[s as usize] {
                if !m.resume_sent && epoch() > m.epoch {
                    self.push_resume(s, m.target);
                    self.flush(m.target)?;
                    self.moving[s as usize] = Some(Moving {
                        resume_sent: true,
                        ..m
                    });
                }
            }
        }
        Ok(())
    }

    fn on_event(&mut self, event: Event) -> std::io::Result<()> {
        match event {
            Event::Redirect {
                session,
                epoch,
                addr,
            } => {
                let target = self
                    .conns
                    .iter()
                    .position(|c| c.addr.to_string() == addr)
                    .ok_or_else(|| {
                        std::io::Error::other(format!("redirect to an unknown node {addr}"))
                    })?;
                self.moving[session as usize] = Some(Moving {
                    epoch,
                    target,
                    resume_sent: false,
                });
            }
            Event::Resumed {
                session,
                high_round,
                warm,
            } => {
                if let Some(m) = self.moving[session as usize].take() {
                    if !warm {
                        self.cold_resumes += 1;
                    }
                    // Replay what neither node has fused: everything sent
                    // (or skipped) past the target's frontier.
                    let from = high_round.max(self.acked(session)).map_or(0, |r| r + 1);
                    if from < self.next_round {
                        self.push_batch(session, from..self.next_round, m.target);
                        self.flush(m.target)?;
                    }
                    self.owner[session as usize] = m.target;
                    self.migrated.push(session);
                }
            }
            Event::Credit { .. } => {}
        }
        Ok(())
    }

    /// Closed loop: keeps `in_flight` `FeedBatch` frames of `frame_rounds`
    /// rounds outstanding per session for `window`, then waits for the
    /// tail. Needs `credit_every == frame_rounds`. Returns each frame's
    /// write → last-verdict-decoded time and how many rounds were sent.
    pub fn run_bulk(
        &mut self,
        frame_rounds: u64,
        in_flight: u64,
        window: Duration,
        cpu: CpuProbe,
    ) -> std::io::Result<Bulk> {
        assert_eq!(self.shared.credit_every, frame_rounds);
        // Warm-up verdicts left credits behind; they pay for nothing here.
        while self.events.try_recv().is_ok() {}
        let sessions = self.sessions() as usize;
        let first_round = self.next_round;
        // Per session: send times of the frames still outstanding, oldest
        // first, and the next round to send.
        let mut sent_at: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); sessions];
        let mut next = vec![first_round; sessions];
        let mut latency_ns = Vec::new();
        let mut outstanding = 0u64;
        let mut slices = Vec::new();
        // The open slice: when it began, the CPU reading then, and where in
        // `latency_ns` its frames start.
        let (mut slice_ns, mut slice_cpu, mut slice_from) = (now_ns(), cpu(), 0);
        let started = Instant::now();
        let mut send =
            |client: &mut Client, s: usize, sent_at: &mut Vec<std::collections::VecDeque<u64>>| {
                let encode_ns = now_ns();
                client.push_batch(s as u64, next[s]..next[s] + frame_rounds, 0);
                let write_ns = now_ns();
                client.flush(0)?;
                if client.shared.traced {
                    client
                        .spans
                        .push(Span::new("loadgen.encode", encode_ns, write_ns, next[s]));
                    client
                        .spans
                        .push(Span::new("loadgen.write", write_ns, now_ns(), next[s]));
                }
                sent_at[s].push_back(write_ns);
                next[s] += frame_rounds;
                std::io::Result::Ok(())
            };
        for s in 0..sessions {
            for _ in 0..in_flight {
                send(self, s, &mut sent_at)?;
                outstanding += 1;
            }
        }
        while outstanding > 0 {
            let Ok(event) = self.events.recv_timeout(VERDICT_TIMEOUT) else {
                break; // verdicts lost: the oracle counts them
            };
            if let Event::Credit { session, at_ns } = event {
                let s = session as usize;
                if let Some(t) = sent_at[s].pop_front() {
                    latency_ns.push(at_ns.saturating_sub(t));
                    outstanding -= 1;
                }
                if started.elapsed() < window {
                    send(self, s, &mut sent_at)?;
                    outstanding += 1;
                    let now = now_ns();
                    if now - slice_ns >= BULK_SLICE_NS {
                        let cpu_now = cpu();
                        let rounds = (latency_ns.len() - slice_from) as u64 * frame_rounds;
                        let mut frames = latency_ns[slice_from..].to_vec();
                        slices.push(Slice {
                            p50_us: percentile(&mut frames, 0.5) as f64 / 1e3,
                            cpu_us_per_round: cpu_now.saturating_sub(slice_cpu) as f64
                                / 1e3
                                / rounds as f64,
                            rounds_per_s: rounds as f64 * 1e9 / (now - slice_ns) as f64,
                        });
                        (slice_ns, slice_cpu, slice_from) = (now, cpu_now, latency_ns.len());
                    }
                }
            }
        }
        let elapsed = started.elapsed();
        let rounds_sent = next.iter().map(|n| n - first_round).sum();
        self.next_round = *next.iter().max().expect("bulk has sessions");
        Ok(Bulk {
            latency_ns,
            rounds_sent,
            rounds_per_session: next.iter().map(|n| n - first_round).collect(),
            elapsed,
            slices,
        })
    }
}

/// What an open-loop window did.
pub struct Ticks {
    pub first_round: u64,
    pub period_ns: u64,
    /// When each tick was due.
    pub due_ns: Vec<u64>,
    /// How long after its due time the generator was ready to write each
    /// tick.
    pub late_ns: Vec<u64>,
    /// The daemons' cumulative CPU time read shortly before each tick.
    pub cpu_ns: Vec<u64>,
}

impl Ticks {
    /// When `round` was due, if it belongs to this window.
    pub fn due_of(&self, round: u64) -> Option<u64> {
        self.due_ns
            .get(round.checked_sub(self.first_round)? as usize)
            .copied()
    }
}

/// What a closed-loop window did.
pub struct Bulk {
    pub latency_ns: Vec<u64>,
    pub rounds_sent: u64,
    pub rounds_per_session: Vec<u64>,
    /// First write → last verdict of the tail.
    pub elapsed: Duration,
    /// The window in 100 ms slices; the tail after it belongs to none.
    pub slices: Vec<Slice>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_time_maps_back_from_round() {
        let ticks = Ticks {
            first_round: 64,
            period_ns: 1_000,
            due_ns: vec![5_000, 6_000, 7_000],
            late_ns: vec![0; 3],
            cpu_ns: vec![0; 3],
        };
        assert_eq!(ticks.due_of(64), Some(5_000));
        assert_eq!(ticks.due_of(66), Some(7_000));
        assert_eq!(ticks.due_of(63), None, "a warm-up round has no due time");
        assert_eq!(ticks.due_of(67), None, "a round past the window has none");
    }
}
