//! The sensor → hub wire protocol.
//!
//! A compact, length-prefixed binary framing (the hub runs on constrained
//! hardware — the paper demonstrates on a Raspberry Pi 4). Each frame is
//! `u32` big-endian payload length (capped at [`MAX_FRAME_LEN`]) followed by
//! the payload:
//!
//! ```text
//! tag: u8          1 = Reading, 2 = Missing, 3 = Heartbeat, 4 = Shutdown
//! module: u32 BE   (Reading/Missing/Heartbeat)
//! round: u64 BE    (Reading/Missing)
//! value: f64 bits BE (Reading only)
//! ```
//!
//! Tags 5–9 extend the substrate for the `avoc-serve` voter daemon, which
//! multiplexes many voting sessions over one connection. Control frames
//! carry a `session: u64` and, for [`Message::OpenSession`], a VDX document
//! reference. Strings are encoded as `u32` BE length + UTF-8 bytes:
//!
//! ```text
//! tag: u8          5 = OpenSession, 6 = CloseSession, 7 = SessionReading,
//!                  8 = SessionResult, 9 = Error
//! session: u64 BE  (all control frames)
//! ```
//!
//! Tag 10 is the batched ingestion frame, [`Message::FeedBatch`]: many
//! readings for one session in a single frame, amortising the per-frame
//! header and the per-reading dispatch on both ends:
//!
//! ```text
//! tag: u8          10 = FeedBatch
//! session: u64 BE
//! count: u32 BE    1 ..= MAX_BATCH_READINGS
//! count × { module: u32 BE, round: u64 BE, value: f64 bits BE }
//! ```
//!
//! The payload length must be exactly `13 + 20 × count` bytes — a count
//! that disagrees with the frame length (truncated readings, or an
//! oversized count fishing for a huge allocation) rejects the frame, and
//! `count = 0` is rejected too (a batch carries at least one reading).
//! [`MAX_BATCH_READINGS`] is the largest count that fits under
//! [`MAX_FRAME_LEN`].
//!
//! Tags 11–12 are the crash-recovery handshake. [`Message::ResumeSession`]
//! is the idempotent open: it carries a client-chosen resume token and the
//! highest round the client has seen a result for, so a reconnect
//! re-attaches to a live (or checkpointed) session instead of resetting its
//! history. [`Message::Resumed`] answers with the server's fused-round
//! frontier, telling the client which buffered readings still need replay:
//!
//! ```text
//! tag: u8          11 = ResumeSession
//! session: u64 BE
//! modules: u32 BE
//! token: u64 BE
//! acked flag: u8   0 = nothing acked, 1 = last_acked follows
//! [last_acked: u64 BE]
//! spec: u8 discriminant + u32 BE length + UTF-8 bytes
//!
//! tag: u8          12 = Resumed
//! session: u64 BE
//! high flag: u8    0 = fresh session, 1 = high_round follows
//! [high_round: u64 BE]
//! warm: u8         1 = history restored (live or checkpoint), 0 = fresh
//! ```
//!
//! Both are hardened like `FeedBatch`: flag bytes other than 0/1, missing
//! optional fields, or trailing bytes reject the frame.
//!
//! Tag 13 is the egress mirror of `FeedBatch`: [`Message::ResultBatch`]
//! carries many fused rounds for one session in a single frame, so a burst
//! of readings that fuses thousands of rounds ships its verdicts without a
//! per-round frame header or syscall:
//!
//! ```text
//! tag: u8          13 = ResultBatch
//! session: u64 BE
//! count: u32 BE    1 ..= MAX_BATCH_RESULTS
//! count × { round: u64 BE, flags: u8, value: f64 bits BE }
//! ```
//!
//! `flags` bit 0 = a fused value is present, bit 1 = a genuine vote
//! produced it; any other bit rejects the frame. When bit 0 is clear the
//! value field must be all-zero bits, so every accepted frame re-encodes
//! byte-identically (the canonical-acceptance invariant the resume replay
//! path relies on). Count-vs-length hardening matches `FeedBatch`: the
//! payload must be exactly `13 + 17 × count` bytes and `count = 0` is
//! rejected.
//!
//! Tags 14–15 are retired, decoded as unknown: a frame carrying either is
//! consumed whole and fails with [`DecodeError::UnknownTag`], so a reader
//! resyncs at the next frame. They once carried an in-band counters
//! request/reply pair; a daemon's counters are read from its admin
//! `/metrics` endpoint.
//!
//! Tags 16–18 are the cluster tier. [`Message::Redirect`] is how a gateway
//! (or a daemon that just migrated a session away) tells a client which
//! node owns a session now; [`Message::ExportSession`] asks a daemon to
//! quiesce a session at a round boundary and ship it; [`Message::SessionState`]
//! carries the shipped state — the session's compacted log, whose head
//! names the target — from source to gateway and gateway to target. An import is
//! acknowledged by the existing tag-12 `Resumed { warm: true }`.
//!
//! Tags 17 and 18 are *cluster verbs*, not tenant verbs: they move whole
//! sessions — including the resume token inside the log's head — so they
//! carry a cluster credential (`auth`) that a daemon checks against its
//! configured inter-node secret before acting. A daemon with no secret
//! configured refuses them outright, so a standalone deployment exposes no
//! migration surface at all:
//!
//! ```text
//! tag: u8          16 = Redirect
//! session: u64 BE
//! epoch: u64 BE    ownership epoch, bumped on every placement change
//! addr: u32 BE length + UTF-8 bytes (host:port of the owning node)
//!
//! tag: u8          17 = ExportSession
//! session: u64 BE
//! target_node: u64 BE
//! epoch: u64 BE    the ownership epoch this placement change installs
//! auth: u64 BE     cluster credential (the shared inter-node secret)
//! target_addr: u32 BE length + UTF-8 bytes
//!
//! tag: u8          18 = SessionState
//! session: u64 BE
//! epoch: u64 BE
//! auth: u64 BE     cluster credential (the shared inter-node secret)
//! meta: u32 BE length + bytes (reserved: always empty, a non-empty
//!       meta is refused on import)
//! wal: u32 BE length + bytes (compacted history log, head included)
//! ```
//!
//! Both blob lengths must exactly consume the payload (lying lengths,
//! truncation and trailing bytes reject the frame), and the whole frame is
//! still bounded by [`MAX_FRAME_LEN`] — exports compact the WAL first so
//! shipped state stays small, and oversize sessions refuse to export rather
//! than emit an undecodable frame.

use avoc_core::ModuleId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Where a voting session's VDX document comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecSource {
    /// A spec registered under a name in the server's registry.
    Named(String),
    /// A full VDX JSON document shipped inline at session open.
    Inline(String),
}

/// One reading inside a [`Message::FeedBatch`] frame (20 bytes on the wire:
/// module `u32`, round `u64`, value `f64`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReading {
    /// Submitting module.
    pub module: ModuleId,
    /// Round number.
    pub round: u64,
    /// The measured value.
    pub value: f64,
}

/// The readings of a [`Message::FeedBatch`] frame, borrowed in place from
/// the bytes they were decoded from: the frame was validated whole (its
/// count accounts for every byte), and each [`BatchReading`] is read out
/// of its 20 bytes on demand. What a reactor hands
/// [`Handler::on_batch`](crate::Handler::on_batch), so a batch reaches its
/// shard without being copied into a `Vec` first.
#[derive(Debug, Clone, Copy)]
pub struct BatchView<'a> {
    /// `len() * BATCH_READING_LEN` bytes, never empty.
    entries: &'a [u8],
}

impl<'a> BatchView<'a> {
    /// How many readings the frame carries (at least one).
    pub fn len(&self) -> usize {
        self.entries.len() / BATCH_READING_LEN
    }

    /// Always `false`: a decoded batch carries at least one reading.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th reading, in submission order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> BatchReading {
        let entry = &self.entries[i * BATCH_READING_LEN..][..BATCH_READING_LEN];
        let u64_at = |at: usize| u64::from_be_bytes(entry[at..at + 8].try_into().expect("8 bytes"));
        BatchReading {
            module: ModuleId::new(u32::from_be_bytes(entry[..4].try_into().expect("4 bytes"))),
            round: u64_at(4),
            value: f64::from_bits(u64_at(12)),
        }
    }

    /// Every reading, in submission order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = BatchReading> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }

    /// The readings copied into a fresh vector, as [`Message::FeedBatch`]
    /// carries them.
    pub fn to_vec(&self) -> Vec<BatchReading> {
        self.iter().collect()
    }
}

/// One frame parsed in place: a [`Message::FeedBatch`] stays a borrowed
/// [`BatchView`], every other frame is its owned [`Message`].
#[derive(Debug)]
pub(crate) enum Decoded<'a> {
    /// Any frame but a batch.
    Message(Message),
    /// A `FeedBatch` frame's session and readings.
    Batch {
        session: u64,
        readings: BatchView<'a>,
    },
}

impl Decoded<'_> {
    /// The owned message: a batch's readings are copied out.
    pub(crate) fn into_message(self) -> Message {
        match self {
            Decoded::Message(msg) => msg,
            Decoded::Batch { session, readings } => Message::FeedBatch {
                session,
                readings: readings.to_vec(),
            },
        }
    }
}

/// One fused round inside a [`Message::ResultBatch`] frame (17 bytes on
/// the wire: round `u64`, flags `u8`, value `f64` bits — zeroed when the
/// round was skipped so the encoding stays canonical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchResult {
    /// Round number.
    pub round: u64,
    /// Fused value (`None` when the round was skipped).
    pub value: Option<f64>,
    /// Whether a genuine vote produced the value (`false` for tie-breaks
    /// and last-good fallbacks).
    pub voted: bool,
}

/// One [`BatchResult`] as the 17 bytes a [`Message::ResultBatch`] frame
/// carries it in: round `u64` BE, flags `u8`, value bits `u64` BE. Packing
/// canonicalises — a skipped round's value bits are zero — so a batch of
/// these is copied onto the wire as it stands
/// ([`Message::encode_result_batch_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedResult([u8; RESULT_ENTRY_LEN]);

const _: () = assert!(std::mem::size_of::<PackedResult>() == RESULT_ENTRY_LEN);

impl PackedResult {
    /// The round this verdict is for.
    pub fn round(&self) -> u64 {
        let (round, _) = self.0.split_first_chunk::<8>().expect("17 bytes");
        u64::from_be_bytes(*round)
    }
}

impl From<BatchResult> for PackedResult {
    fn from(r: BatchResult) -> Self {
        let mut flags = 0u8;
        if r.value.is_some() {
            flags |= 1;
        }
        if r.voted {
            flags |= 2;
        }
        let mut bytes = [0u8; RESULT_ENTRY_LEN];
        bytes[..8].copy_from_slice(&r.round.to_be_bytes());
        bytes[8] = flags;
        // Skipped rounds carry +0.0 (all-zero bits) so the encoding
        // stays canonical: decode rejects anything else.
        bytes[9..].copy_from_slice(&r.value.unwrap_or(0.0).to_bits().to_be_bytes());
        PackedResult(bytes)
    }
}

impl From<PackedResult> for BatchResult {
    fn from(p: PackedResult) -> Self {
        let (_, bits) = p.0.split_last_chunk::<8>().expect("17 bytes");
        let flags = p.0[8];
        BatchResult {
            round: p.round(),
            value: (flags & 1 != 0).then(|| f64::from_bits(u64::from_be_bytes(*bits))),
            voted: flags & 2 != 0,
        }
    }
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A measurement for a round.
    Reading {
        /// Submitting module.
        module: ModuleId,
        /// Round number.
        round: u64,
        /// The measured value.
        value: f64,
    },
    /// An explicit "no value this round" notification (a sensor that knows
    /// it failed to sample; silent sensors are handled by hub deadlines).
    Missing {
        /// Submitting module.
        module: ModuleId,
        /// Round number.
        round: u64,
    },
    /// Liveness signal.
    Heartbeat {
        /// Sending module.
        module: ModuleId,
    },
    /// The sender is going away.
    Shutdown,
    /// Opens a voting session on an `avoc-serve` daemon.
    OpenSession {
        /// Client-chosen session identifier (unique per daemon).
        session: u64,
        /// How many modules feed this session's rounds.
        modules: u32,
        /// The VDX document governing the session.
        spec: SpecSource,
    },
    /// Closes a session, flushing any partially assembled rounds.
    CloseSession {
        /// Session to close.
        session: u64,
    },
    /// A measurement addressed to one session of a multi-tenant daemon.
    SessionReading {
        /// Target session.
        session: u64,
        /// Submitting module.
        module: ModuleId,
        /// Round number.
        round: u64,
        /// The measured value.
        value: f64,
    },
    /// One fused round emitted by a session.
    SessionResult {
        /// Originating session.
        session: u64,
        /// Round number.
        round: u64,
        /// Fused value (`None` when the round was skipped).
        value: Option<f64>,
        /// Whether a genuine vote produced the value (`false` for
        /// tie-breaks and last-good fallbacks).
        voted: bool,
    },
    /// A service-side failure scoped to one session.
    Error {
        /// Affected session.
        session: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Many readings for one session in a single frame (tag 10). Batches
    /// amortise framing and dispatch; the daemon feeds a batch to its
    /// shard as one step.
    FeedBatch {
        /// Target session.
        session: u64,
        /// The batched readings, in submission order. Never empty; at most
        /// [`MAX_BATCH_READINGS`] per frame.
        readings: Vec<BatchReading>,
    },
    /// Idempotent session open / re-attach (tag 11). A fresh open creates
    /// the session; a reconnect after a connection (or daemon) failure
    /// re-attaches to the live session or restores it from a checkpoint,
    /// provided `token` matches the one the session was created with.
    ResumeSession {
        /// Session identifier.
        session: u64,
        /// How many modules feed this session's rounds.
        modules: u32,
        /// The VDX document governing the session (used when the session
        /// must be created or rebuilt).
        spec: SpecSource,
        /// Client-chosen resume token; proves this client owns the session.
        token: u64,
        /// Highest round the client has received a [`Message::SessionResult`]
        /// for (`None` before the first result). The server re-emits any
        /// retained results above this.
        last_acked: Option<u64>,
    },
    /// Server acknowledgement of a [`Message::ResumeSession`] (tag 12).
    Resumed {
        /// The session that was attached, restored, or created.
        session: u64,
        /// The server's fused-round frontier: rounds at or below this are
        /// already fused and must *not* be replayed as readings (`None`
        /// for a fresh session — replay everything).
        high_round: Option<u64>,
        /// Whether the session kept warm history (live re-attach or
        /// checkpoint restore); `false` means it was built fresh and the
        /// voter will bootstrap.
        warm: bool,
    },
    /// Many fused rounds for one session in a single frame (tag 13) — the
    /// egress mirror of [`Message::FeedBatch`]. Shards accumulate a burst's
    /// verdicts and ship them together, amortising framing and the
    /// per-result write on the result path.
    ResultBatch {
        /// Originating session.
        session: u64,
        /// The fused rounds, in fuse order. Never empty; at most
        /// [`MAX_BATCH_RESULTS`] per frame.
        results: Vec<BatchResult>,
    },
    /// "That session lives elsewhere" (tag 16). A gateway answers
    /// `OpenSession`/`ResumeSession` with this instead of running the
    /// session itself, and a daemon that just migrated a session away sends
    /// it in-band so a connected client re-homes without waiting for a
    /// failure.
    Redirect {
        /// The session being re-homed.
        session: u64,
        /// Ownership epoch — strictly increasing per session, so a client
        /// can discard a stale redirect that raced a newer placement.
        epoch: u64,
        /// `host:port` of the owning daemon.
        addr: String,
    },
    /// Asks a daemon to quiesce `session` at a round boundary and ship its
    /// checkpoint + WAL tail (tag 17). Answered with a
    /// [`Message::SessionState`] on success or [`Message::Error`] on
    /// failure; idempotent — re-asking after the session already moved to
    /// `target_node` re-ships the same state.
    ExportSession {
        /// The session to export.
        session: u64,
        /// Node id the session is moving to (stamped into the head of the
        /// shipped log, so the source's boot recovery skips it).
        target_node: u64,
        /// The ownership epoch this placement change installs, echoed in
        /// the [`Message::SessionState`] reply and the in-band
        /// [`Message::Redirect`] the source sends its tenant.
        epoch: u64,
        /// Cluster credential: must equal the daemon's configured
        /// inter-node secret or the export is refused. Exports ship the
        /// session's resume token, so this verb is never tenant-reachable.
        auth: u64,
        /// `host:port` of the target daemon, forwarded to the client in the
        /// migration [`Message::Redirect`].
        target_addr: String,
    },
    /// A migrating session's durable state in flight (tag 18): its
    /// compacted log, head included, as a raw byte blob. Sent source → gateway
    /// as the [`Message::ExportSession`] reply, then gateway → target as
    /// the import request; the target restores warm and acknowledges with
    /// [`Message::Resumed`]`{ warm: true }`.
    SessionState {
        /// The session being shipped.
        session: u64,
        /// Ownership epoch after the move.
        epoch: u64,
        /// Cluster credential: must equal the importing daemon's configured
        /// inter-node secret or the import is refused — a forged import
        /// would overwrite durable state with an attacker-chosen token.
        auth: u64,
        /// Reserved and always empty: the session's meta travels as the
        /// head of `wal`. An import whose `meta` is not empty is refused.
        meta: Vec<u8>,
        /// Compacted history-log bytes, head included.
        wal: Vec<u8>,
    },
}

/// Hard cap on a frame's payload length (1 MiB). Only [`Message::OpenSession`]
/// and [`Message::Error`] carry variable payloads, and VDX documents are a
/// few KiB — any larger length prefix is hostile or corrupt. Without a cap,
/// an 8-byte header claiming a multi-GiB frame would make a reader buffer
/// without bound waiting for bytes that never arrive.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Fixed header of a [`Message::FeedBatch`] payload: tag + session + count.
const BATCH_HEADER_LEN: usize = 1 + 8 + 4;

/// Wire size of one [`BatchReading`]: module + round + value.
const BATCH_READING_LEN: usize = 4 + 8 + 8;

/// The most readings one [`Message::FeedBatch`] frame can carry while its
/// payload stays under [`MAX_FRAME_LEN`]. Senders with more readings than
/// this must split them across frames (see `ServeClient::send_batch`).
pub const MAX_BATCH_READINGS: usize = (MAX_FRAME_LEN - BATCH_HEADER_LEN) / BATCH_READING_LEN;

/// Fixed header of a [`Message::ResultBatch`] payload: tag + session + count.
const RESULT_HEADER_LEN: usize = 1 + 8 + 4;

/// Wire size of one [`BatchResult`]: round + flags + value bits.
const RESULT_ENTRY_LEN: usize = 8 + 1 + 8;

/// The most results one [`Message::ResultBatch`] frame can carry while its
/// payload stays under [`MAX_FRAME_LEN`]. Senders with more fused rounds
/// than this per burst must split them across frames (see
/// `avoc-serve`'s session result flush).
pub const MAX_BATCH_RESULTS: usize = (MAX_FRAME_LEN - RESULT_HEADER_LEN) / RESULT_ENTRY_LEN;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not yet hold a complete frame.
    Incomplete,
    /// The frame's tag byte is unknown.
    UnknownTag(u8),
    /// The frame length does not match its tag's layout.
    BadLength {
        /// Tag whose layout was violated.
        tag: u8,
        /// Payload length found.
        len: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`]. Unlike the other errors
    /// the frame is *not* consumed (its bytes may never arrive), so there is
    /// no resynchronising past it: readers must drop the stream.
    FrameTooLarge {
        /// Claimed payload length.
        len: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Incomplete => write!(f, "incomplete frame"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::BadLength { tag, len } => {
                write!(f, "bad frame length {len} for tag {tag}")
            }
            DecodeError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_LEN}-byte maximum"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const TAG_READING: u8 = 1;
const TAG_MISSING: u8 = 2;
const TAG_HEARTBEAT: u8 = 3;
const TAG_SHUTDOWN: u8 = 4;
const TAG_OPEN_SESSION: u8 = 5;
const TAG_CLOSE_SESSION: u8 = 6;
const TAG_SESSION_READING: u8 = 7;
const TAG_SESSION_RESULT: u8 = 8;
const TAG_ERROR: u8 = 9;
const TAG_FEED_BATCH: u8 = 10;
const TAG_RESUME_SESSION: u8 = 11;
const TAG_RESUMED: u8 = 12;
const TAG_RESULT_BATCH: u8 = 13;
const TAG_REDIRECT: u8 = 16;
const TAG_EXPORT_SESSION: u8 = 17;
const TAG_SESSION_STATE: u8 = 18;

/// Spec-source discriminants inside an `OpenSession`/`ResumeSession` payload.
const SPEC_NAMED: u8 = 0;
const SPEC_INLINE: u8 = 1;

fn put_flag(frame: &mut BytesMut, flag: bool) {
    frame.put_u8(u8::from(flag));
}

/// An optional eight-byte field: a presence flag, then the value only when
/// present.
fn put_opt_u64(frame: &mut BytesMut, value: Option<u64>) {
    put_flag(frame, value.is_some());
    if let Some(v) = value {
        frame.put_u64(v);
    }
}

fn put_bytes(frame: &mut BytesMut, b: &[u8]) {
    frame.put_u32(b.len() as u32);
    frame.extend_from_slice(b);
}

fn put_string(frame: &mut BytesMut, s: &str) {
    put_bytes(frame, s.as_bytes());
}

fn put_spec(frame: &mut BytesMut, spec: &SpecSource) {
    let (kind, text) = match spec {
        SpecSource::Named(name) => (SPEC_NAMED, name),
        SpecSource::Inline(vdx) => (SPEC_INLINE, vdx),
    };
    frame.put_u8(kind);
    put_string(frame, text);
}

/// The read half of the field codec: a bounds-checked cursor over one
/// frame's payload, borrowed in place from the caller's buffer.
///
/// Every layout fault — a field running past the payload, a flag byte
/// other than 0/1, non-UTF-8 text, an unknown spec discriminant, a batch
/// count that disagrees with the bytes behind it, bytes left over — is the
/// same [`DecodeError::BadLength`] naming the frame's tag and payload
/// length, built in [`Reader::bad`] only. [`Reader::take`] is the only
/// bounds check; no getter indexes the payload itself, and nothing sizes
/// an allocation from a length it has not checked against the bytes
/// present. The getters accept exactly what the `put_*` writers above
/// produce, so every frame that decodes re-encodes to the same bytes.
struct Reader<'a> {
    rest: &'a [u8],
    tag: u8,
    len: usize,
}

impl<'a> Reader<'a> {
    fn bad(&self) -> DecodeError {
        DecodeError::BadLength {
            tag: self.tag,
            len: self.len,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(self.bad());
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn module(&mut self) -> Result<ModuleId, DecodeError> {
        Ok(ModuleId::new(self.u32()?))
    }

    /// A boolean: strictly 0 or 1 — anything else is a malformed frame,
    /// not a creative `true`.
    fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.bad()),
        }
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        Ok(if self.flag()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// A `u32` length and exactly that many bytes; a length pointing past
    /// the payload fails before anything is copied.
    fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let raw = self.bytes()?;
        match std::str::from_utf8(raw) {
            Ok(text) => Ok(text.to_owned()),
            Err(_) => Err(self.bad()),
        }
    }

    fn spec(&mut self) -> Result<SpecSource, DecodeError> {
        let kind = self.u8()?;
        let text = self.string()?;
        match kind {
            SPEC_NAMED => Ok(SpecSource::Named(text)),
            SPEC_INLINE => Ok(SpecSource::Inline(text)),
            _ => Err(self.bad()),
        }
    }

    /// A batch's `u32` entry count. It must be non-zero (an empty batch is
    /// no-op spam) and account for every byte left at `entry_len` bytes an
    /// entry: one comparison rejects truncated batches and hostile counts
    /// before the count sizes a `Vec`.
    fn count(&mut self, entry_len: usize) -> Result<usize, DecodeError> {
        let count = self.u32()? as usize;
        if count == 0 || count.checked_mul(entry_len) != Some(self.rest.len()) {
            return Err(self.bad());
        }
        Ok(count)
    }

    /// Bytes left over after a tag's last field reject the frame.
    fn finish(&self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.bad())
        }
    }
}

impl Message {
    /// Encodes the message as one length-prefixed frame.
    ///
    /// Thin allocating wrapper over [`Message::encode_into`]. Hot paths
    /// hold a per-connection scratch [`BytesMut`] and call `encode_into`
    /// directly so steady-state sends never touch the allocator.
    pub fn encode(&self) -> Bytes {
        let mut frame = BytesMut::with_capacity(33);
        self.encode_into(&mut frame);
        frame.freeze()
    }

    /// Appends the message as one length-prefixed frame to `frame`,
    /// reusing its allocation. Byte-for-byte identical to
    /// [`Message::encode`] (pinned by proptest for every tag): the payload
    /// is written in place behind a four-byte length placeholder that is
    /// patched once the payload size is known, so no intermediate payload
    /// buffer ever exists.
    pub fn encode_into(&self, frame: &mut BytesMut) {
        let pos = frame.len();
        frame.put_u32(0); // length placeholder, patched below
        match self {
            Message::Reading {
                module,
                round,
                value,
            } => {
                frame.put_u8(TAG_READING);
                frame.put_u32(module.index());
                frame.put_u64(*round);
                frame.put_f64(*value);
            }
            Message::Missing { module, round } => {
                frame.put_u8(TAG_MISSING);
                frame.put_u32(module.index());
                frame.put_u64(*round);
            }
            Message::Heartbeat { module } => {
                frame.put_u8(TAG_HEARTBEAT);
                frame.put_u32(module.index());
            }
            Message::Shutdown => frame.put_u8(TAG_SHUTDOWN),
            Message::OpenSession {
                session,
                modules,
                spec,
            } => {
                frame.put_u8(TAG_OPEN_SESSION);
                frame.put_u64(*session);
                frame.put_u32(*modules);
                put_spec(frame, spec);
            }
            Message::CloseSession { session } => {
                frame.put_u8(TAG_CLOSE_SESSION);
                frame.put_u64(*session);
            }
            Message::SessionReading {
                session,
                module,
                round,
                value,
            } => {
                frame.put_u8(TAG_SESSION_READING);
                frame.put_u64(*session);
                frame.put_u32(module.index());
                frame.put_u64(*round);
                frame.put_f64(*value);
            }
            Message::SessionResult {
                session,
                round,
                value,
                voted,
            } => {
                frame.put_u8(TAG_SESSION_RESULT);
                frame.put_u64(*session);
                frame.put_u64(*round);
                put_opt_u64(frame, value.map(f64::to_bits));
                put_flag(frame, *voted);
            }
            Message::Error { session, message } => {
                frame.put_u8(TAG_ERROR);
                frame.put_u64(*session);
                put_string(frame, message);
            }
            Message::FeedBatch { session, readings } => {
                Message::put_feed_batch(*session, readings, frame);
            }
            Message::ResumeSession {
                session,
                modules,
                spec,
                token,
                last_acked,
            } => {
                frame.put_u8(TAG_RESUME_SESSION);
                frame.put_u64(*session);
                frame.put_u32(*modules);
                frame.put_u64(*token);
                put_opt_u64(frame, *last_acked);
                put_spec(frame, spec);
            }
            Message::Resumed {
                session,
                high_round,
                warm,
            } => {
                frame.put_u8(TAG_RESUMED);
                frame.put_u64(*session);
                put_opt_u64(frame, *high_round);
                put_flag(frame, *warm);
            }
            Message::ResultBatch { session, results } => {
                Message::put_result_batch(*session, results, frame);
            }
            Message::Redirect {
                session,
                epoch,
                addr,
            } => {
                frame.put_u8(TAG_REDIRECT);
                frame.put_u64(*session);
                frame.put_u64(*epoch);
                put_string(frame, addr);
            }
            Message::ExportSession {
                session,
                target_node,
                epoch,
                auth,
                target_addr,
            } => {
                frame.put_u8(TAG_EXPORT_SESSION);
                frame.put_u64(*session);
                frame.put_u64(*target_node);
                frame.put_u64(*epoch);
                frame.put_u64(*auth);
                put_string(frame, target_addr);
            }
            Message::SessionState {
                session,
                epoch,
                auth,
                meta,
                wal,
            } => {
                frame.put_u8(TAG_SESSION_STATE);
                frame.put_u64(*session);
                frame.put_u64(*epoch);
                frame.put_u64(*auth);
                put_bytes(frame, meta);
                put_bytes(frame, wal);
            }
        }
        Message::patch_len(frame, pos);
    }

    /// Appends a [`Message::FeedBatch`] frame built from a borrowed slice —
    /// byte-identical to `Message::FeedBatch { session, readings:
    /// readings.to_vec() }.encode_into(frame)` without materialising the
    /// `Vec`. The batch feed path encodes its chunks through this so
    /// steady-state sends never allocate.
    pub fn encode_feed_batch_into(session: u64, readings: &[BatchReading], frame: &mut BytesMut) {
        let pos = frame.len();
        frame.put_u32(0); // length placeholder, patched below
        Message::put_feed_batch(session, readings, frame);
        Message::patch_len(frame, pos);
    }

    /// Writes a FeedBatch payload (no length prefix) — shared by the enum
    /// arm and the slice-based encoder so the two stay byte-identical.
    fn put_feed_batch(session: u64, readings: &[BatchReading], frame: &mut BytesMut) {
        debug_assert!(
            !readings.is_empty() && readings.len() <= MAX_BATCH_READINGS,
            "FeedBatch must carry 1..=MAX_BATCH_READINGS readings"
        );
        frame.put_u8(TAG_FEED_BATCH);
        frame.put_u64(session);
        frame.put_u32(readings.len() as u32);
        for r in readings {
            frame.put_u32(r.module.index());
            frame.put_u64(r.round);
            frame.put_f64(r.value);
        }
    }

    /// Appends one [`Message::ResultBatch`] frame carrying the entries of
    /// `parts` in order — byte-identical to the enum arm over the same
    /// results unpacked, without materialising them. The daemon encodes
    /// its verdict bursts through this, straight from a session's ring
    /// (which wraps, hence the parts) into a connection's outbound bytes.
    pub fn encode_result_batch_into(session: u64, parts: &[&[PackedResult]], frame: &mut BytesMut) {
        let count = parts.iter().map(|part| part.len()).sum();
        let pos = frame.len();
        frame.put_u32(0); // length placeholder, patched below
        Message::put_result_header(session, count, frame);
        for entry in parts.iter().copied().flatten() {
            frame.put_slice(&entry.0);
        }
        Message::patch_len(frame, pos);
    }

    /// Writes a ResultBatch payload (no length prefix) for the enum arm;
    /// each entry is packed as [`Message::encode_result_batch_into`] copies
    /// it, so the two stay byte-identical.
    fn put_result_batch(session: u64, results: &[BatchResult], frame: &mut BytesMut) {
        Message::put_result_header(session, results.len(), frame);
        for &r in results {
            frame.put_slice(&PackedResult::from(r).0);
        }
    }

    /// Writes a ResultBatch payload's fixed header: tag, session, count.
    fn put_result_header(session: u64, count: usize, frame: &mut BytesMut) {
        debug_assert!(
            count > 0 && count <= MAX_BATCH_RESULTS,
            "ResultBatch must carry 1..=MAX_BATCH_RESULTS results"
        );
        frame.put_u8(TAG_RESULT_BATCH);
        frame.put_u64(session);
        frame.put_u32(count as u32);
    }

    /// Patches the four-byte length placeholder written at `pos` (an offset
    /// into the readable region) with the payload length that follows it.
    fn patch_len(frame: &mut BytesMut, pos: usize) {
        let payload_len = frame.len() - pos - 4;
        debug_assert!(
            payload_len <= MAX_FRAME_LEN,
            "encoded frame exceeds MAX_FRAME_LEN and would be undecodable"
        );
        frame[pos..pos + 4].copy_from_slice(&(payload_len as u32).to_be_bytes());
    }

    /// Decodes one frame from the front of `buf`, consuming it. The payload
    /// is parsed in place — nothing is copied out of `buf` except the
    /// strings, blobs and batch entries the message owns.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Incomplete`] when `buf` holds less than a full frame
    /// (nothing is consumed); tag/layout errors consume the bad frame so a
    /// stream can resynchronise. [`DecodeError::FrameTooLarge`] — a length
    /// prefix beyond [`MAX_FRAME_LEN`] — consumes nothing and is fatal to
    /// the stream: the caller must stop reading rather than buffer toward a
    /// hostile multi-GiB frame.
    pub fn decode(buf: &mut BytesMut) -> Result<Message, DecodeError> {
        let used = Message::frame_len(buf)?;
        let decoded = Message::decode_payload(&buf[4..used]).map(Decoded::into_message);
        buf.advance(used);
        decoded
    }

    /// How many bytes the frame at the front of `buf` spans, length prefix
    /// included, once all of them are there.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Incomplete`] while bytes are missing, and
    /// [`DecodeError::FrameTooLarge`] for a prefix past [`MAX_FRAME_LEN`].
    pub(crate) fn frame_len(buf: &[u8]) -> Result<usize, DecodeError> {
        let Some(&prefix) = buf.first_chunk::<4>() else {
            return Err(DecodeError::Incomplete);
        };
        let len = u32::from_be_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(DecodeError::FrameTooLarge { len });
        }
        if buf.len() < 4 + len {
            return Err(DecodeError::Incomplete);
        }
        Ok(4 + len)
    }

    /// Decodes one complete payload (tag byte + fields), the one frame
    /// parser: a `FeedBatch` stays in place as a [`BatchView`] over
    /// `payload`, every other frame is parsed into its [`Message`]. Each
    /// arm reads its fields in wire order through the [`Reader`]; the arms
    /// hold no length arithmetic of their own.
    pub(crate) fn decode_payload(payload: &[u8]) -> Result<Decoded<'_>, DecodeError> {
        let len = payload.len();
        let Some((&tag, rest)) = payload.split_first() else {
            return Err(DecodeError::BadLength { tag: 0, len });
        };
        let mut r = Reader { rest, tag, len };
        if tag == TAG_FEED_BATCH {
            // Validated whole before any reading is looked at: the count
            // accounts for every byte left, so the view is exactly its
            // entries.
            let session = r.u64()?;
            let count = r.count(BATCH_READING_LEN)?;
            let entries = r.take(count * BATCH_READING_LEN)?;
            let readings = BatchView { entries };
            return Ok(Decoded::Batch { session, readings });
        }
        let msg = match tag {
            TAG_READING => Message::Reading {
                module: r.module()?,
                round: r.u64()?,
                value: r.f64()?,
            },
            TAG_MISSING => Message::Missing {
                module: r.module()?,
                round: r.u64()?,
            },
            TAG_HEARTBEAT => Message::Heartbeat {
                module: r.module()?,
            },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_OPEN_SESSION => Message::OpenSession {
                session: r.u64()?,
                modules: r.u32()?,
                spec: r.spec()?,
            },
            TAG_CLOSE_SESSION => Message::CloseSession { session: r.u64()? },
            TAG_SESSION_READING => Message::SessionReading {
                session: r.u64()?,
                module: r.module()?,
                round: r.u64()?,
                value: r.f64()?,
            },
            TAG_SESSION_RESULT => Message::SessionResult {
                session: r.u64()?,
                round: r.u64()?,
                value: r.opt_u64()?.map(f64::from_bits),
                voted: r.flag()?,
            },
            TAG_ERROR => Message::Error {
                session: r.u64()?,
                message: r.string()?,
            },
            TAG_RESUME_SESSION => Message::ResumeSession {
                session: r.u64()?,
                modules: r.u32()?,
                token: r.u64()?,
                last_acked: r.opt_u64()?,
                spec: r.spec()?,
            },
            TAG_RESUMED => Message::Resumed {
                session: r.u64()?,
                high_round: r.opt_u64()?,
                warm: r.flag()?,
            },
            TAG_RESULT_BATCH => {
                let session = r.u64()?;
                let count = r.count(RESULT_ENTRY_LEN)?;
                let mut results = Vec::with_capacity(count);
                for _ in 0..count {
                    let (round, flags, bits) = (r.u64()?, r.u8()?, r.u64()?);
                    // Only bits 0 and 1 exist, and a skipped round must
                    // carry all-zero value bits: accepting arbitrary filler
                    // would break the canonical re-encode invariant resume
                    // replay comparisons rely on.
                    if flags > 3 || (flags & 1 == 0 && bits != 0) {
                        return Err(r.bad());
                    }
                    results.push(BatchResult {
                        round,
                        value: (flags & 1 != 0).then(|| f64::from_bits(bits)),
                        voted: flags & 2 != 0,
                    });
                }
                Message::ResultBatch { session, results }
            }
            TAG_REDIRECT => Message::Redirect {
                session: r.u64()?,
                epoch: r.u64()?,
                addr: r.string()?,
            },
            TAG_EXPORT_SESSION => Message::ExportSession {
                session: r.u64()?,
                target_node: r.u64()?,
                epoch: r.u64()?,
                auth: r.u64()?,
                target_addr: r.string()?,
            },
            TAG_SESSION_STATE => Message::SessionState {
                session: r.u64()?,
                epoch: r.u64()?,
                auth: r.u64()?,
                meta: r.bytes()?.to_vec(),
                wal: r.bytes()?.to_vec(),
            },
            other => return Err(DecodeError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(Decoded::Message(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let frame = msg.encode();
        let mut buf = BytesMut::from(&frame[..]);
        assert_eq!(Message::decode(&mut buf).unwrap(), msg);
        assert!(buf.is_empty());
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Message::Reading {
            module: ModuleId::new(3),
            round: 42,
            value: -78.25,
        });
        round_trip(Message::Missing {
            module: ModuleId::new(8),
            round: 7,
        });
        round_trip(Message::Heartbeat {
            module: ModuleId::new(0),
        });
        round_trip(Message::Shutdown);
    }

    #[test]
    fn control_frames_round_trip() {
        round_trip(Message::OpenSession {
            session: 9,
            modules: 5,
            spec: SpecSource::Named("avoc".into()),
        });
        round_trip(Message::OpenSession {
            session: u64::MAX,
            modules: 0,
            spec: SpecSource::Inline("{\"algorithm_name\": \"AVOC\"}".into()),
        });
        round_trip(Message::CloseSession { session: 3 });
        round_trip(Message::SessionReading {
            session: 12,
            module: ModuleId::new(2),
            round: 400,
            value: -17.5,
        });
        round_trip(Message::SessionResult {
            session: 12,
            round: 400,
            value: Some(18.25),
            voted: true,
        });
        round_trip(Message::SessionResult {
            session: 1,
            round: 0,
            value: None,
            voted: false,
        });
        round_trip(Message::Error {
            session: 7,
            message: "unknown spec `nope`".into(),
        });
        round_trip(Message::Error {
            session: 0,
            message: String::new(),
        });
    }

    #[test]
    fn truncated_open_session_is_rejected_not_panicked() {
        let frame = Message::OpenSession {
            session: 1,
            modules: 3,
            spec: SpecSource::Named("avoc".into()),
        }
        .encode();
        // Rewrite the outer length to chop the name off mid-string: the
        // decoder must surface BadLength, consuming the frame.
        let cut = frame.len() - 2;
        let mut buf = BytesMut::from(&frame[..cut]);
        let payload_len = (cut - 4) as u32;
        buf[0..4].copy_from_slice(&payload_len.to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength { tag: 5, .. })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");
    }

    #[test]
    fn incomplete_frames_do_not_consume() {
        let frame = Message::Shutdown.encode();
        let mut buf = BytesMut::from(&frame[..frame.len() - 1]);
        let before = buf.len();
        assert_eq!(Message::decode(&mut buf), Err(DecodeError::Incomplete));
        assert_eq!(buf.len(), before);
    }

    #[test]
    fn stream_of_frames_decodes_in_order() {
        let mut buf = BytesMut::new();
        let msgs = [
            Message::Reading {
                module: ModuleId::new(0),
                round: 1,
                value: 18.5,
            },
            Message::Heartbeat {
                module: ModuleId::new(1),
            },
            Message::Shutdown,
        ];
        for m in &msgs {
            buf.extend_from_slice(&m.encode());
        }
        for m in &msgs {
            assert_eq!(Message::decode(&mut buf).unwrap(), *m);
        }
        assert_eq!(Message::decode(&mut buf), Err(DecodeError::Incomplete));
    }

    #[test]
    fn unknown_tag_consumes_and_errors() {
        // 14 and 15 are retired tags: unknown, like any never assigned.
        for (tag, body) in [(99u8, &[][..]), (14, &[]), (15, &[0, 0, 0, 2, b'{', b'}'])] {
            let mut buf = BytesMut::new();
            buf.put_u32(1 + body.len() as u32);
            buf.put_u8(tag);
            buf.extend_from_slice(body);
            assert_eq!(Message::decode(&mut buf), Err(DecodeError::UnknownTag(tag)));
            assert!(buf.is_empty(), "bad frame must be consumed for resync");
        }
    }

    #[test]
    fn bad_length_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(2); // Shutdown must be exactly 1 byte
        buf.put_u8(TAG_SHUTDOWN);
        buf.put_u8(0);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_SHUTDOWN,
                len: 2
            })
        ));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_buffering() {
        // An 8-byte header claiming a ~4 GiB frame must fail immediately,
        // not leave the reader accumulating bytes toward it.
        let mut buf = BytesMut::new();
        buf.put_u32(u32::MAX);
        buf.put_u8(TAG_OPEN_SESSION);
        let before = buf.len();
        assert_eq!(
            Message::decode(&mut buf),
            Err(DecodeError::FrameTooLarge {
                len: u32::MAX as usize
            })
        );
        assert_eq!(before, buf.len(), "nothing to resync past: stream is dead");

        // One byte over the cap fails; exactly at the cap merely waits for
        // the rest of the frame.
        let mut over = BytesMut::new();
        over.put_u32(MAX_FRAME_LEN as u32 + 1);
        assert!(matches!(
            Message::decode(&mut over),
            Err(DecodeError::FrameTooLarge { .. })
        ));
        let mut at_cap = BytesMut::new();
        at_cap.put_u32(MAX_FRAME_LEN as u32);
        assert_eq!(Message::decode(&mut at_cap), Err(DecodeError::Incomplete));
    }

    #[test]
    fn feed_batch_round_trips() {
        round_trip(Message::FeedBatch {
            session: 12,
            readings: vec![
                BatchReading {
                    module: ModuleId::new(0),
                    round: 7,
                    value: 18.5,
                },
                BatchReading {
                    module: ModuleId::new(1),
                    round: 7,
                    value: -0.25,
                },
                BatchReading {
                    module: ModuleId::new(u32::MAX),
                    round: u64::MAX,
                    value: f64::MIN_POSITIVE,
                },
            ],
        });
    }

    #[test]
    fn largest_batch_fits_under_the_frame_cap() {
        let readings = vec![
            BatchReading {
                module: ModuleId::new(1),
                round: 2,
                value: 3.0,
            };
            MAX_BATCH_READINGS
        ];
        let msg = Message::FeedBatch {
            session: 1,
            readings,
        };
        let frame = msg.encode();
        assert!(frame.len() - 4 <= MAX_FRAME_LEN);
        let mut buf = BytesMut::from(&frame[..]);
        assert_eq!(Message::decode(&mut buf).unwrap(), msg);
    }

    #[test]
    fn empty_batch_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(13); // header only, count = 0
        buf.put_u8(TAG_FEED_BATCH);
        buf.put_u64(1);
        buf.put_u32(0);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_FEED_BATCH,
                ..
            })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");
    }

    #[test]
    fn batch_count_must_match_frame_length() {
        // A count claiming more readings than the frame carries (the
        // allocation-fishing shape) is rejected without over-reading.
        let mut hostile = BytesMut::new();
        hostile.put_u32(13 + 20); // room for one reading ...
        hostile.put_u8(TAG_FEED_BATCH);
        hostile.put_u64(9);
        hostile.put_u32(50_000); // ... claiming fifty thousand
        hostile.put_u32(0);
        hostile.put_u64(0);
        hostile.put_f64(1.0);
        assert!(matches!(
            Message::decode(&mut hostile),
            Err(DecodeError::BadLength {
                tag: TAG_FEED_BATCH,
                ..
            })
        ));

        // A truncated batch (length cut mid-reading) is rejected too.
        let frame = Message::FeedBatch {
            session: 2,
            readings: vec![
                BatchReading {
                    module: ModuleId::new(0),
                    round: 0,
                    value: 1.0,
                },
                BatchReading {
                    module: ModuleId::new(1),
                    round: 0,
                    value: 2.0,
                },
            ],
        }
        .encode();
        let cut = frame.len() - 6;
        let mut buf = BytesMut::from(&frame[..cut]);
        buf[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_FEED_BATCH,
                ..
            })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");
    }

    #[test]
    fn resume_frames_round_trip() {
        round_trip(Message::ResumeSession {
            session: 42,
            modules: 5,
            spec: SpecSource::Named("avoc".into()),
            token: u64::MAX,
            last_acked: Some(17),
        });
        round_trip(Message::ResumeSession {
            session: 0,
            modules: 0,
            spec: SpecSource::Inline("{\"algorithm_name\": \"AVOC\"}".into()),
            token: 0,
            last_acked: None,
        });
        round_trip(Message::Resumed {
            session: 42,
            high_round: Some(u64::MAX),
            warm: true,
        });
        round_trip(Message::Resumed {
            session: 1,
            high_round: None,
            warm: false,
        });
    }

    #[test]
    fn resume_session_bad_flag_and_truncation_are_rejected() {
        // Flag bytes other than 0/1 reject the frame.
        let frame = Message::ResumeSession {
            session: 1,
            modules: 2,
            spec: SpecSource::Named("avoc".into()),
            token: 9,
            last_acked: None,
        }
        .encode();
        let mut buf = BytesMut::from(&frame[..]);
        buf[4 + 1 + 8 + 4 + 8] = 2; // the acked flag
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESUME_SESSION,
                ..
            })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");

        // A frame whose length cuts the spec name off mid-string.
        let cut = frame.len() - 2;
        let mut buf = BytesMut::from(&frame[..cut]);
        buf[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESUME_SESSION,
                ..
            })
        ));
        assert!(buf.is_empty());

        // A claimed acked round with no bytes behind it (flag says 1 but
        // the length only covers the no-acked layout).
        let mut hostile = BytesMut::new();
        hostile.put_u32(27);
        hostile.put_u8(TAG_RESUME_SESSION);
        hostile.put_u64(1); // session
        hostile.put_u32(1); // modules
        hostile.put_u64(2); // token
        hostile.put_u8(1); // "an acked round follows" ...
        hostile.put_u8(SPEC_NAMED); // ... but the spec starts instead
        hostile.put_u32(0);
        assert!(matches!(
            Message::decode(&mut hostile),
            Err(DecodeError::BadLength {
                tag: TAG_RESUME_SESSION,
                ..
            })
        ));
        assert!(hostile.is_empty());
    }

    #[test]
    fn resume_session_trailing_bytes_are_rejected() {
        let frame = Message::ResumeSession {
            session: 3,
            modules: 1,
            spec: SpecSource::Named("a".into()),
            token: 4,
            last_acked: Some(0),
        }
        .encode();
        // Re-encode with two stray bytes inside the declared length.
        let mut buf = BytesMut::new();
        buf.put_u32((frame.len() - 4 + 2) as u32);
        buf.extend_from_slice(&frame[4..]);
        buf.put_u8(0xAA);
        buf.put_u8(0xBB);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESUME_SESSION,
                ..
            })
        ));
        assert!(buf.is_empty());
    }

    #[test]
    fn resumed_bad_layouts_are_rejected() {
        // Wrong overall length.
        let mut buf = BytesMut::new();
        buf.put_u32(10);
        buf.put_u8(TAG_RESUMED);
        buf.put_u64(1);
        buf.put_u8(0);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESUMED,
                ..
            })
        ));
        // Flag byte 2 with the long layout.
        let frame = Message::Resumed {
            session: 1,
            high_round: Some(3),
            warm: true,
        }
        .encode();
        let mut buf = BytesMut::from(&frame[..]);
        buf[4 + 1 + 8] = 2;
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESUMED,
                ..
            })
        ));
        // Flag 0 (no round) inside the long layout leaves trailing bytes.
        let mut buf = BytesMut::from(&frame[..]);
        buf[4 + 1 + 8] = 0;
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESUMED,
                ..
            })
        ));
    }

    #[test]
    fn result_batch_round_trips() {
        round_trip(Message::ResultBatch {
            session: 12,
            results: vec![
                BatchResult {
                    round: 7,
                    value: Some(18.5),
                    voted: true,
                },
                BatchResult {
                    round: 8,
                    value: None,
                    voted: false,
                },
                BatchResult {
                    round: u64::MAX,
                    value: Some(f64::MIN_POSITIVE),
                    voted: false,
                },
            ],
        });
    }

    #[test]
    fn largest_result_batch_fits_under_the_frame_cap() {
        let results = vec![
            BatchResult {
                round: 3,
                value: Some(1.5),
                voted: true,
            };
            MAX_BATCH_RESULTS
        ];
        let msg = Message::ResultBatch {
            session: 1,
            results,
        };
        let frame = msg.encode();
        assert!(frame.len() - 4 <= MAX_FRAME_LEN);
        let mut buf = BytesMut::from(&frame[..]);
        assert_eq!(Message::decode(&mut buf).unwrap(), msg);
    }

    #[test]
    fn empty_result_batch_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(13); // header only, count = 0
        buf.put_u8(TAG_RESULT_BATCH);
        buf.put_u64(1);
        buf.put_u32(0);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESULT_BATCH,
                ..
            })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");
    }

    #[test]
    fn result_batch_count_must_match_frame_length() {
        // A hostile count claiming more results than the frame carries.
        let mut hostile = BytesMut::new();
        hostile.put_u32(13 + 17); // room for one result ...
        hostile.put_u8(TAG_RESULT_BATCH);
        hostile.put_u64(9);
        hostile.put_u32(50_000); // ... claiming fifty thousand
        hostile.put_u64(0);
        hostile.put_u8(1);
        hostile.put_f64(1.0);
        assert!(matches!(
            Message::decode(&mut hostile),
            Err(DecodeError::BadLength {
                tag: TAG_RESULT_BATCH,
                ..
            })
        ));
        assert!(hostile.is_empty());

        // Truncation mid-entry is rejected too.
        let frame = Message::ResultBatch {
            session: 2,
            results: vec![
                BatchResult {
                    round: 0,
                    value: Some(1.0),
                    voted: true,
                },
                BatchResult {
                    round: 1,
                    value: Some(2.0),
                    voted: true,
                },
            ],
        }
        .encode();
        let cut = frame.len() - 5;
        let mut buf = BytesMut::from(&frame[..cut]);
        buf[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESULT_BATCH,
                ..
            })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");
    }

    #[test]
    fn result_batch_rejects_bad_flags_and_noncanonical_filler() {
        let frame = Message::ResultBatch {
            session: 1,
            results: vec![BatchResult {
                round: 5,
                value: None,
                voted: true,
            }],
        }
        .encode();
        // Flag bits beyond 0/1 reject the frame.
        let mut buf = BytesMut::from(&frame[..]);
        buf[4 + 13 + 8] = 4;
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESULT_BATCH,
                ..
            })
        ));
        assert!(buf.is_empty());

        // A skipped round with nonzero value bits is non-canonical filler.
        let mut buf = BytesMut::from(&frame[..]);
        buf[4 + 13 + 8 + 1 + 7] = 1; // last byte of the value field
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_RESULT_BATCH,
                ..
            })
        ));
        assert!(buf.is_empty());
    }

    #[test]
    fn encode_into_matches_encode_and_appends() {
        // encode_into on a dirty buffer appends a frame byte-identical to
        // encode(), leaving the existing bytes alone.
        let msgs = [
            Message::Shutdown,
            Message::SessionResult {
                session: 3,
                round: 9,
                value: Some(-2.5),
                voted: true,
            },
            Message::ResultBatch {
                session: 4,
                results: vec![BatchResult {
                    round: 1,
                    value: None,
                    voted: false,
                }],
            },
        ];
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"prefix");
        let mut expected = b"prefix".to_vec();
        for m in &msgs {
            m.encode_into(&mut buf);
            expected.extend_from_slice(&m.encode());
        }
        assert_eq!(&buf[..], &expected[..]);
    }

    #[test]
    fn encode_feed_batch_into_matches_the_enum_arm() {
        let readings = vec![
            BatchReading {
                module: ModuleId::new(0),
                round: 7,
                value: 18.5,
            },
            BatchReading {
                module: ModuleId::new(3),
                round: 8,
                value: -0.25,
            },
        ];
        let mut via_slice = BytesMut::new();
        Message::encode_feed_batch_into(5, &readings, &mut via_slice);
        let via_enum = Message::FeedBatch {
            session: 5,
            readings,
        }
        .encode();
        assert_eq!(&via_slice[..], &via_enum[..]);
    }

    #[test]
    fn encode_result_batch_into_matches_the_enum_arm() {
        let results = vec![
            BatchResult {
                round: 7,
                value: Some(18.5),
                voted: true,
            },
            BatchResult {
                round: 8,
                value: None,
                voted: false,
            },
        ];
        // A ring that wrapped hands its entries over in two parts.
        let packed: Vec<PackedResult> = results.iter().map(|&r| r.into()).collect();
        let mut via_slice = BytesMut::new();
        Message::encode_result_batch_into(5, &[&packed[..1], &packed[1..]], &mut via_slice);
        let via_enum = Message::ResultBatch {
            session: 5,
            results,
        }
        .encode();
        assert_eq!(&via_slice[..], &via_enum[..]);
    }

    #[test]
    fn packed_results_unpack_to_what_was_packed() {
        for value in [Some(19.700000000000003), Some(-0.0), Some(f64::NAN), None] {
            for voted in [true, false] {
                let r = BatchResult {
                    round: u64::MAX - 3,
                    value,
                    voted,
                };
                let packed = PackedResult::from(r);
                assert_eq!(packed.round(), r.round);
                let back = BatchResult::from(packed);
                assert_eq!((back.round, back.voted), (r.round, r.voted));
                assert_eq!(back.value.map(f64::to_bits), value.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn nan_values_survive_the_wire() {
        let frame = Message::Reading {
            module: ModuleId::new(1),
            round: 0,
            value: f64::NAN,
        }
        .encode();
        let mut buf = BytesMut::from(&frame[..]);
        match Message::decode(&mut buf).unwrap() {
            Message::Reading { value, .. } => assert!(value.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cluster_frames_round_trip() {
        round_trip(Message::Redirect {
            session: 7,
            epoch: 3,
            addr: "127.0.0.1:4100".into(),
        });
        round_trip(Message::Redirect {
            session: u64::MAX,
            epoch: 0,
            addr: String::new(),
        });
        round_trip(Message::ExportSession {
            session: 9,
            target_node: 2,
            epoch: 5,
            auth: 0xC0FFEE,
            target_addr: "10.0.0.2:4000".into(),
        });
        round_trip(Message::SessionState {
            session: 9,
            epoch: 4,
            auth: u64::MAX,
            meta: b"opaque to the codec".to_vec(),
            wal: vec![0u8, 0xFF, 0x13, 0x37],
        });
        round_trip(Message::SessionState {
            session: 0,
            epoch: 0,
            auth: 0,
            meta: Vec::new(),
            wal: Vec::new(),
        });
    }

    #[test]
    fn redirect_rejects_truncation_and_trailing_bytes() {
        let frame = Message::Redirect {
            session: 1,
            epoch: 2,
            addr: "127.0.0.1:4100".into(),
        }
        .encode();
        // Length cut mid-address.
        let cut = frame.len() - 3;
        let mut buf = BytesMut::from(&frame[..cut]);
        buf[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_REDIRECT,
                ..
            })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");

        // Stray bytes after the address inside the declared length.
        let mut buf = BytesMut::new();
        buf.put_u32((frame.len() - 4 + 1) as u32);
        buf.extend_from_slice(&frame[4..]);
        buf.put_u8(0xCC);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_REDIRECT,
                ..
            })
        ));
        assert!(buf.is_empty());

        // Non-UTF-8 address bytes.
        let mut buf = BytesMut::new();
        buf.put_u32(1 + 8 + 8 + 4 + 2);
        buf.put_u8(TAG_REDIRECT);
        buf.put_u64(1);
        buf.put_u64(2);
        buf.put_u32(2);
        buf.put_u8(0xFF);
        buf.put_u8(0xFE);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_REDIRECT,
                ..
            })
        ));
    }

    #[test]
    fn session_state_rejects_lying_blob_lengths() {
        let good = Message::SessionState {
            session: 5,
            epoch: 1,
            auth: 7,
            meta: vec![1, 2, 3],
            wal: vec![4, 5],
        }
        .encode();

        // Meta blob length claiming past the end of the frame.
        let mut buf = BytesMut::from(&good[..]);
        // meta length field sits after len(4) + tag(1) + session(8) +
        // epoch(8) + auth(8).
        buf[29..33].copy_from_slice(&1000u32.to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_SESSION_STATE,
                ..
            })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");

        // Meta blob length lying *short*: the leftover bytes shift into the
        // wal length and leave trailing garbage — rejected either way.
        let mut buf = BytesMut::from(&good[..]);
        buf[29..33].copy_from_slice(&1u32.to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_SESSION_STATE,
                ..
            })
        ));

        // Frame chopped mid-wal with the outer length rewritten to match.
        let cut = good.len() - 1;
        let mut buf = BytesMut::from(&good[..cut]);
        buf[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_SESSION_STATE,
                ..
            })
        ));

        // Trailing bytes after both blobs inside the declared length.
        let mut buf = BytesMut::new();
        buf.put_u32((good.len() - 4 + 1) as u32);
        buf.extend_from_slice(&good[4..]);
        buf.put_u8(0xAB);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_SESSION_STATE,
                ..
            })
        ));

        // Too short to hold even the fixed header + two length fields.
        let mut buf = BytesMut::new();
        buf.put_u32(1 + 8 + 8 + 8 + 4);
        buf.put_u8(TAG_SESSION_STATE);
        buf.put_u64(5);
        buf.put_u64(1);
        buf.put_u64(7);
        buf.put_u32(0);
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_SESSION_STATE,
                ..
            })
        ));
    }

    #[test]
    fn export_session_rejects_truncation() {
        let frame = Message::ExportSession {
            session: 3,
            target_node: 1,
            epoch: 2,
            auth: 9,
            target_addr: "127.0.0.1:4200".into(),
        }
        .encode();
        let cut = frame.len() - 5;
        let mut buf = BytesMut::from(&frame[..cut]);
        buf[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        assert!(matches!(
            Message::decode(&mut buf),
            Err(DecodeError::BadLength {
                tag: TAG_EXPORT_SESSION,
                ..
            })
        ));
        assert!(buf.is_empty());
    }
}
