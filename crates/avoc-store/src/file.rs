//! Durable history records backed by a binary write-ahead log whose
//! records are segment blocks.
//!
//! ```text
//! file   := "AVOCWAL" │ version u8 │ head? │ record*
//! head   := len u32 │ crc32 u32 │ 3 u8 │ meta
//! record := len u32 │ crc32 u32 │ kind u8 │ block
//! ```
//!
//! The head's payload is opaque here. It is never appended, only landed
//! inside a whole image by rename ([`land_log`], [`FileHistory::compact`]);
//! a head anywhere but first fails the scan.
//!
//! `len` counts `kind │ block` and `crc32` covers the same bytes; `block` is
//! the column encoding of [`crate::segment`] minus its own CRC (the frame
//! already carries one), so replay, the segment fold and time-travel reads
//! all decode durable rows with one decoder. A record is one write: a
//! [`RecordKind::Commit`] is one checkpoint — changed trust rows, fresh
//! verdict rows and the round they are as of (the block's `last_round`) —
//! and is the log's only commit point.
//!
//! A crash mid-append leaves a *torn tail*: a short or CRC-failing frame
//! with nothing valid after it. Opening truncates it away and keeps every
//! earlier record. A bad frame with a valid frame *after* it cannot be a
//! torn append — that is corruption, and opening fails.

use crate::codec::{crc32, DecodeError};
use crate::segment::{
    decode_block_body, encode_block_body, round_range, DecodedBlock, Direction, HistoryRow,
};
use avoc_core::history::HistoryStore;
use avoc_core::ModuleId;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read};
use std::path::{Path, PathBuf};
use sysio::fault::Site;
use sysio::fio;

/// The file header: seven magic bytes, then the one format version this
/// build reads and writes.
const WAL_HEADER: &[u8; 8] = b"AVOCWAL\x02";
const HEADER_LEN: usize = WAL_HEADER.len();
/// Record frame prefix length: `len` + `crc32`.
const FRAME_LEN: usize = 8;
/// Where a head's meta payload starts.
const HEAD_BODY: usize = HEADER_LEN + FRAME_LEN + 1;

/// How hard [`FileHistory`] pushes each append toward the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Flush the userspace buffer per write (the default): an application
    /// crash loses nothing, an OS crash may lose the tail of the log.
    #[default]
    Flush,
    /// Additionally `fsync` (`File::sync_data`) per write: an OS crash or
    /// power loss loses nothing either. Orders of magnitude slower — the
    /// paper's "datastore writes are the bottleneck" observation, dialled
    /// to eleven. The daemon's answer is [`FileHistory::checkpoint`]: one
    /// `Commit` record per round instead of one write per module update
    /// (`serve.checkpoint_p50_us`, `store.checkpoint_us_per_round` in
    /// `BENCHMARK.json`).
    Fsync,
}

/// A fused verdict row as logged in the WAL and folded into segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictRecord {
    /// Fused round index.
    pub round: u64,
    /// Fused value (`None` when the round produced no quorum).
    pub value: Option<f64>,
    /// Whether a quorum voted.
    pub voted: bool,
}

/// What a record's rows mean for round attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum RecordKind {
    /// Rows written outside a checkpoint ([`HistoryStore::set`] and
    /// friends): replayed into state, but invisible to the segment fold and
    /// to time travel until a [`RecordKind::Commit`] follows and stamps
    /// them.
    Rows = 1,
    /// One checkpoint. Its rows, and every unstamped row before it,
    /// describe state as of the block's `last_round`.
    Commit = 2,
    /// The log's head: the owner's opaque meta, only ever the first record.
    Meta = 3,
}

impl TryFrom<u8> for RecordKind {
    type Error = WalError;

    fn try_from(value: u8) -> Result<Self, WalError> {
        match value {
            1 => Ok(RecordKind::Rows),
            2 => Ok(RecordKind::Commit),
            3 => Ok(RecordKind::Meta),
            other => Err(WalError::UnknownKind(other)),
        }
    }
}

/// Why a log (or one frame of it) does not read. Converts to
/// [`io::ErrorKind::InvalidData`] at the API boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The file does not start with the `AVOCWAL` magic: not a log of this
    /// format (a JSON-lines log of an older build ends up here).
    BadMagic,
    /// The magic matched but the version byte is not the one this build
    /// reads and writes.
    UnknownVersion(u8),
    /// A frame's CRC held but its kind byte names no record kind.
    UnknownKind(u8),
    /// The frame at `offset` fails its CRC.
    CrcMismatch {
        /// Byte offset of the frame in the file.
        offset: usize,
    },
    /// The frame at `offset` (or the file header, at 0) runs past the end
    /// of the file.
    Truncated {
        /// Byte offset of the frame in the file.
        offset: usize,
    },
    /// An intact head frame at this byte offset, which is not the first.
    MisplacedMeta(usize),
    /// The frame at `offset` is intact but its block does not decode.
    Block {
        /// Byte offset of the frame in the file.
        offset: usize,
        /// What the block decoder rejected.
        error: DecodeError,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::BadMagic => write!(f, "not a history log: bad magic"),
            WalError::UnknownVersion(v) => write!(f, "unknown history log version {v}"),
            WalError::UnknownKind(k) => write!(f, "unknown history log record kind {k}"),
            WalError::CrcMismatch { offset } => {
                write!(f, "history log record at byte {offset} fails its CRC")
            }
            WalError::Truncated { offset } => {
                write!(
                    f,
                    "history log truncated inside the record at byte {offset}"
                )
            }
            WalError::MisplacedMeta(at) => write!(f, "history log head at byte {at}, not first"),
            WalError::Block { offset, error } => {
                write!(f, "history log record at byte {offset}: {error}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<WalError> for io::Error {
    fn from(e: WalError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Frames the staged `rows` and `verdicts` (ascending by round) as one
/// record appended to `out` — a commit when `round` is given, plain rows
/// otherwise — and returns the record's stamp. A record is as of its
/// block's `last_round`, so a commit never stamps below a verdict it
/// carries. Drains `rows`.
fn encode_record(
    out: &mut Vec<u8>,
    rows: &mut Vec<HistoryRow>,
    verdicts: &[VerdictRecord],
    round: Option<u64>,
) -> Option<u64> {
    let stamp = round.map(|r| verdicts.last().map_or(r, |v| v.round.max(r)));
    for row in rows.iter_mut() {
        row.round = stamp.unwrap_or(0);
    }
    let (first, last) = round_range(rows, verdicts);
    let range = (first, stamp.unwrap_or(last));
    let kind = match stamp {
        Some(_) => RecordKind::Commit,
        None => RecordKind::Rows,
    };
    // The log's file name carries the session id; the block's stays 0.
    frame(out, kind, |out| {
        encode_block_body(out, 0, range, rows, verdicts)
    });
    rows.clear();
    stamp
}

/// Appends one `len │ crc32 │ kind │ body` frame to `out`, `body` writing
/// the body in place.
fn frame(out: &mut Vec<u8>, kind: RecordKind, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_LEN]);
    out.push(kind as u8);
    body(out);
    let payload = &out[start + FRAME_LEN..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + FRAME_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// A log image holding the header and a head carrying `meta`, and no
/// records: what a session's log starts as.
pub fn meta_image(meta: &[u8]) -> Vec<u8> {
    let mut image = WAL_HEADER.to_vec();
    frame(&mut image, RecordKind::Meta, |out| {
        out.extend_from_slice(meta)
    });
    image
}

/// The head of a log image: its meta payload, or `None` when the image has
/// no intact head (another version, a torn or missing first frame).
pub fn image_meta(image: &[u8]) -> Option<&[u8]> {
    if image.get(..HEADER_LEN)? != WAL_HEADER {
        return None;
    }
    match read_record(image, HEADER_LEN, &mut DecodedBlock::default()).ok()? {
        (RecordKind::Meta, _, next) => Some(&image[HEAD_BODY..next]),
        _ => None,
    }
}

/// Reads the head of the log at `path` — the header and the first frame,
/// never the records after them. `None` as for [`image_meta`], or when the
/// file does not open.
pub fn read_log_meta(path: &Path) -> Option<Vec<u8>> {
    let mut file = File::open(path).ok()?;
    let mut image = vec![0; HEADER_LEN + FRAME_LEN];
    file.read_exact(&mut image).ok()?;
    let len = u32::from_le_bytes(image[HEADER_LEN..HEADER_LEN + 4].try_into().ok()?);
    file.take(u64::from(len)).read_to_end(&mut image).ok()?;
    image_meta(&image).map(<[u8]>::to_vec)
}

/// Lands `bytes` at `path` whole — the one way every durable file here
/// reaches the disk: write the sibling `<name>.tmp` (fsynced at `sync` when
/// given), rename it into place, fsync the directory (best-effort). A crash
/// leaves the old file or the new one, plus at most a `.tmp` that
/// [`crate::TieredStore::open`] sweeps.
pub(crate) fn land(site: Site, path: &Path, bytes: &[u8], sync: Option<Site>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let written = (|| {
        fio::check_op(site)?;
        let mut f = File::create(&tmp)?;
        fio::write_all(site, &mut f, bytes)?;
        if let Some(sync) = sync {
            fio::sync_all(sync, &f)?;
        }
        fio::check_op(site)?;
        std::fs::rename(&tmp, path)
    })();
    written.inspect_err(|_| drop(std::fs::remove_file(&tmp)))?;
    if let Some(d) = path.parent().and_then(|p| File::open(p).ok()) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Checks `image` end to end ([`validate_wal`]), then lands it at `path`
/// in place of whatever log was there, fsynced under
/// [`Durability::Fsync`].
///
/// # Errors
///
/// The image's first defect as [`io::ErrorKind::InvalidData`] (nothing is
/// written then), or the landing's I/O error (the old log stays).
pub fn land_log(path: &Path, image: &[u8], durability: Durability) -> io::Result<()> {
    validate_wal(image)?;
    let sync = (durability == Durability::Fsync).then_some(Site::WalSync);
    land(Site::WalAppend, path, image, sync)
}

/// Decodes the record framed at `offset` into `block` (a head leaves it
/// untouched); returns its kind, its block's `last_round` and the offset of
/// the next frame.
fn read_record(
    bytes: &[u8],
    offset: usize,
    block: &mut DecodedBlock,
) -> Result<(RecordKind, u64, usize), WalError> {
    let truncated = WalError::Truncated { offset };
    let frame = bytes
        .get(offset..offset + FRAME_LEN)
        .ok_or(truncated.clone())?;
    let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    let crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
    let start = offset + FRAME_LEN;
    let payload = start
        .checked_add(len)
        .and_then(|end| bytes.get(start..end))
        .ok_or(truncated.clone())?;
    // A frame holds at least its kind byte (zero-filled tails end here).
    let (&kind, body) = payload.split_first().ok_or(truncated)?;
    if crc32(payload) != crc {
        return Err(WalError::CrcMismatch { offset });
    }
    let kind = RecordKind::try_from(kind)?;
    if kind == RecordKind::Meta {
        return Ok((kind, 0, start + len));
    }
    let (_, last_round) =
        decode_block_body(body, block).map_err(|error| WalError::Block { offset, error })?;
    Ok((kind, last_round, start + len))
}

/// A checked scan of a whole log: the one reader behind replay, the segment
/// fold, time-travel reads and import validation.
#[derive(Debug, Default)]
pub(crate) struct WalScan {
    /// Every history row in log order. Rows up to `stamped.0` carry the
    /// round of the commit that covers them; later ones are an unstamped
    /// tail.
    pub(crate) history: Vec<HistoryRow>,
    /// Every verdict row in log order; stamped up to `stamped.1`.
    pub(crate) verdicts: Vec<VerdictRecord>,
    /// How many `history` / `verdicts` rows a commit covers.
    pub(crate) stamped: (usize, usize),
    /// Highest commit round.
    pub(crate) round: Option<u64>,
    /// Bytes of header and intact records — the truncation point when the
    /// frame after them is torn.
    pub(crate) good_bytes: usize,
    /// Why the final frame did not read, when a torn tail was found.
    pub(crate) torn: Option<WalError>,
    /// The head's meta payload, when the log has one.
    pub(crate) meta: Option<Vec<u8>>,
}

impl WalScan {
    /// Whether the log ends exactly at a commit: no unstamped rows, no torn
    /// tail.
    pub(crate) fn fully_committed(&self) -> bool {
        self.torn.is_none() && self.stamped == (self.history.len(), self.verdicts.len())
    }

    /// The history rows a commit covers, each stamped with its round.
    pub(crate) fn stamped_history(&self) -> &[HistoryRow] {
        &self.history[..self.stamped.0]
    }

    /// The verdict rows a commit covers.
    pub(crate) fn stamped_verdicts(&self) -> &[VerdictRecord] {
        &self.verdicts[..self.stamped.1]
    }
}

/// Scans a log image up to its first bad frame, which is reported in
/// [`WalScan::torn`] (whether it really is a torn tail is for the caller to
/// decide). A foreign magic or version fails the scan.
pub(crate) fn scan_bytes(bytes: &[u8]) -> Result<WalScan, WalError> {
    let mut scan = WalScan::default();
    if bytes.len() < HEADER_LEN {
        // A crash can tear the header write too.
        if !WAL_HEADER.starts_with(bytes) {
            return Err(WalError::BadMagic);
        }
        scan.torn = (!bytes.is_empty()).then_some(WalError::Truncated { offset: 0 });
        return Ok(scan);
    }
    if bytes[..7] != WAL_HEADER[..7] {
        return Err(WalError::BadMagic);
    }
    if bytes[7] != WAL_HEADER[7] {
        return Err(WalError::UnknownVersion(bytes[7]));
    }
    let mut block = DecodedBlock::default();
    let mut offset = HEADER_LEN;
    while offset < bytes.len() {
        match read_record(bytes, offset, &mut block) {
            Ok((RecordKind::Meta, _, next)) if offset == HEADER_LEN => {
                scan.meta = Some(bytes[HEAD_BODY..next].to_vec());
                offset = next;
            }
            Ok((RecordKind::Meta, ..)) => return Err(WalError::MisplacedMeta(offset)),
            Ok((kind, last_round, next)) => {
                scan.history.extend_from_slice(&block.history);
                scan.verdicts.extend_from_slice(&block.verdicts);
                if kind == RecordKind::Commit {
                    for row in &mut scan.history[scan.stamped.0..] {
                        row.round = last_round;
                    }
                    scan.stamped = (scan.history.len(), scan.verdicts.len());
                    scan.round = scan.round.max(Some(last_round));
                }
                offset = next;
            }
            Err(e) => {
                scan.torn = Some(e);
                break;
            }
        }
    }
    scan.good_bytes = offset;
    Ok(scan)
}

/// Scans a log file without modifying it. Missing file ⇒ `Ok(None)`. A bad
/// final frame is a torn tail, left in [`WalScan::torn`]; a bad frame with
/// a readable frame anywhere after it is corruption — a crash mid-append
/// cannot be followed by more data — and ⇒ [`io::ErrorKind::InvalidData`].
pub(crate) fn scan_wal(path: &Path) -> io::Result<Option<WalScan>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let scan = scan_bytes(&bytes)?;
    if let Some(e) = &scan.torn {
        let mut probe = DecodedBlock::default();
        let mut later = scan.good_bytes + 1..bytes.len();
        if later.any(|o| read_record(&bytes, o, &mut probe).is_ok()) {
            return Err(e.clone().into());
        }
    }
    Ok(Some(scan))
}

/// Checks that `bytes` is a complete, undamaged log image — what a node
/// demands of a shipped log before it lets the bytes near its disk.
///
/// # Errors
///
/// The first defect found, a torn tail included.
pub fn validate_wal(bytes: &[u8]) -> Result<(), WalError> {
    match scan_bytes(bytes)?.torn {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// A durable [`HistoryStore`] backed by a binary write-ahead log (see the
/// module docs for the format).
///
/// Every [`HistoryStore::set`] appends a record and flushes; reopening the
/// file replays the log. [`FileHistory::compact`] rewrites the log whole.
/// This deliberately mirrors the paper's "datastore reads and writes being
/// the bottleneck" observation: the per-write flush is what a benchmark run
/// measures against the in-memory store.
///
/// # Example
///
/// ```no_run
/// use avoc_core::history::HistoryStore;
/// use avoc_core::ModuleId;
/// use avoc_store::FileHistory;
///
/// let mut store = FileHistory::open("/tmp/avoc-history.wal")?;
/// store.set(ModuleId::new(0), 0.8);
/// drop(store);
/// let reopened = FileHistory::open("/tmp/avoc-history.wal")?;
/// assert_eq!(reopened.get(ModuleId::new(0)), Some(0.8));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct FileHistory {
    path: PathBuf,
    writer: BufWriter<File>,
    records: BTreeMap<ModuleId, f64>,
    durability: Durability,
    /// Whether `open` found (and truncated away) a torn final frame.
    recovered_torn_tail: bool,
    /// Bytes appended to the log by this handle (compactions excluded) —
    /// a checkpoint-cost signal for the service layer.
    bytes_logged: u64,
    /// Highest commit round seen or appended.
    max_commit_round: Option<u64>,
    /// Highest verdict round seen or appended.
    max_verdict_round: Option<u64>,
    /// An append/flush/fsync since open (or the last successful
    /// [`FileHistory::compact`]) failed: the on-disk log may be missing a
    /// record, and the records after it would be deltas that never repeat
    /// it, so appends are refused until a rewrite succeeds. In-memory
    /// records stay correct throughout.
    write_failed: bool,
    /// The stamped verdict rows replay found, until
    /// [`FileHistory::take_replayed_verdicts`] claims them.
    replayed_verdicts: Vec<VerdictRecord>,
    /// Rows staged for the record being written (reused across appends).
    rows: Vec<HistoryRow>,
    /// The record being written (reused across appends).
    buf: Vec<u8>,
}

impl FileHistory {
    /// Opens (or creates) a log file and replays it, with
    /// [`Durability::Flush`] semantics.
    ///
    /// A *torn final frame* — exactly what a crash mid-append leaves behind
    /// — is tolerated: the tail is truncated away and replay keeps every
    /// record before it. A bad frame with a valid frame *after* it is
    /// genuine corruption, not a torn append, and fails hard.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a file of another format, or a damaged frame
    /// anywhere but the tail, yields [`io::ErrorKind::InvalidData`] (see
    /// [`WalError`]).
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, Durability::Flush)
    }

    /// Opens (or creates) a log file with an explicit [`Durability`] mode.
    ///
    /// # Errors
    ///
    /// As [`FileHistory::open`].
    pub fn open_with(path: impl AsRef<Path>, durability: Durability) -> io::Result<Self> {
        Self::open_over(path, durability, [])
    }

    /// Opens a log that overlays an older tier: replay starts from `base`
    /// (the session's folded segment state) instead of from nothing, so the
    /// log's rows — removals included — land on top of it in order.
    ///
    /// # Errors
    ///
    /// As [`FileHistory::open`].
    pub fn open_over(
        path: impl AsRef<Path>,
        durability: Durability,
        base: impl IntoIterator<Item = (ModuleId, f64)>,
    ) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut scan = scan_wal(&path)?.unwrap_or_default();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if scan.torn.is_some() {
            file.set_len(scan.good_bytes as u64)?;
        }
        let mut records: BTreeMap<ModuleId, f64> = base.into_iter().collect();
        for row in &scan.history {
            row.apply_to(&mut records);
        }
        scan.verdicts.truncate(scan.stamped.1);
        let mut store = FileHistory {
            path,
            writer: BufWriter::new(file),
            records,
            durability,
            recovered_torn_tail: scan.torn.is_some(),
            bytes_logged: 0,
            max_commit_round: scan.round,
            max_verdict_round: scan.verdicts.iter().map(|v| v.round).max(),
            write_failed: false,
            replayed_verdicts: scan.verdicts,
            rows: Vec::new(),
            buf: Vec::new(),
        };
        if scan.good_bytes == 0 {
            store.buf.extend_from_slice(WAL_HEADER);
            store.log_write()?;
        }
        Ok(store)
    }

    /// Whether any append since open (or the last successful
    /// [`FileHistory::compact`]) failed to reach the log. A sick log is the
    /// persistence layer's degradation signal: the in-memory store keeps
    /// serving, but the log may have a gap, so it takes no more appends
    /// until [`FileHistory::compact`] rewrites it whole.
    pub fn write_failed(&self) -> bool {
        self.write_failed
    }

    /// One WAL transaction over `self.buf` — buffered write, flush, and
    /// (under [`Durability::Fsync`]) fsync — each leg through the injectable
    /// `sysio` facade, which retries real and injected `EINTR` and resumes
    /// short writes. Terminal failures mark the handle sick.
    fn log_write(&mut self) -> io::Result<()> {
        let result = (|| {
            fio::write_all(Site::WalAppend, &mut self.writer, &self.buf)?;
            fio::flush(Site::WalFlush, &mut self.writer)?;
            if self.durability == Durability::Fsync {
                fio::check_op(Site::WalSync)?;
                self.writer.get_ref().sync_data()?;
            }
            Ok(())
        })();
        match result {
            Ok(()) => self.bytes_logged += self.buf.len() as u64,
            Err(_) => self.write_failed = true,
        }
        result
    }

    /// Whether `open` truncated a torn final frame left by a crash
    /// mid-append.
    pub fn recovered_torn_tail(&self) -> bool {
        self.recovered_torn_tail
    }

    /// Highest round stamped by a commit (replayed or appended) —
    /// everything logged before it is fold-eligible.
    pub fn committed_round(&self) -> Option<u64> {
        self.max_commit_round
    }

    /// Highest round carrying a logged verdict (replayed or appended).
    pub fn max_verdict_round(&self) -> Option<u64> {
        self.max_verdict_round
    }

    /// Hands over the stamped verdict rows replay found, in log order —
    /// what a resuming session rebuilds its result ring from.
    pub fn take_replayed_verdicts(&mut self) -> Vec<VerdictRecord> {
        std::mem::take(&mut self.replayed_verdicts)
    }

    /// Appends the staged rows and `verdicts` as one record — a commit
    /// stamped `round`, or plain rows when `round` is `None` — in one
    /// write, one flush and (under [`Durability::Fsync`]) one fsync. A sick
    /// handle encodes the record (draining the staged rows and advancing
    /// its round marks, so the healing rewrite is as of the newest round)
    /// but refuses to write it.
    fn append(&mut self, verdicts: &[VerdictRecord], round: Option<u64>) -> io::Result<()> {
        if self.rows.is_empty() && verdicts.is_empty() && round.is_none() {
            return Ok(());
        }
        let mut sorted = Vec::new();
        let verdicts = if verdicts.is_sorted_by_key(|v| v.round) {
            verdicts
        } else {
            sorted.extend_from_slice(verdicts);
            sorted.sort_by_key(|v| v.round);
            &sorted
        };
        self.buf.clear();
        let stamp = encode_record(&mut self.buf, &mut self.rows, verdicts, round);
        self.max_commit_round = self.max_commit_round.max(stamp);
        self.max_verdict_round = self.max_verdict_round.max(verdicts.last().map(|v| v.round));
        if self.write_failed {
            return Err(io::Error::other(
                "history log is sick: appends are refused until a rewrite",
            ));
        }
        self.log_write()
    }

    /// One checkpoint as one record: `records` (with the direction each
    /// moved in), `verdicts`, and the `round` they are as of. With `round`
    /// `None` the rows stay unstamped until a later commit covers them.
    ///
    /// # Errors
    ///
    /// The append's I/O error, after which the handle is sick (see
    /// [`FileHistory::write_failed`]), or the refusal of a handle already
    /// sick: nothing is appended to a log that lost a record until
    /// [`FileHistory::compact`]. In-memory records stay correct either way.
    pub fn checkpoint(
        &mut self,
        records: &[(ModuleId, f64)],
        verdicts: &[VerdictRecord],
        round: Option<u64>,
    ) -> io::Result<()> {
        for &(module, value) in records {
            // Memory first (a failed append must not corrupt in-memory
            // state), with the trust direction taken from the value being
            // replaced — the writer is the one place that knows it.
            let value = value.clamp(0.0, 1.0);
            let dir = match self.records.insert(module, value) {
                None => Direction::New,
                Some(prior) if value < prior => Direction::Down,
                Some(_) => Direction::Up,
            };
            self.rows.push(HistoryRow {
                round: 0,
                module: module.index(),
                trust: value,
                dir,
            });
        }
        self.append(verdicts, round)
    }

    /// Appends verdict rows and an optional commit round as one record.
    /// Best-effort like every [`HistoryStore`] write: errors surface through
    /// [`FileHistory::write_failed`], and a sick handle appends nothing
    /// until [`FileHistory::compact`].
    pub fn append_markers(&mut self, verdicts: &[VerdictRecord], commit: Option<u64>) {
        let _ = self.append(verdicts, commit);
    }

    /// Bytes appended through this handle (a checkpoint-cost signal).
    pub fn bytes_logged(&self) -> u64 {
        self.bytes_logged
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrites the log to a head carrying `meta` (none when `None`) and
    /// one record: a row per live record (as [`Direction::New`] — a rewrite
    /// has no prior value to compare with), the commit round watermark, and
    /// those of `verdicts` at or below it (later ones belong to rounds the
    /// rewritten state does not reflect). The segment fold is what
    /// preserves per-round history; this rewrite is for standalone stores
    /// and for rebuilding, re-owning or shipping a session's log.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on error the original log remains valid (the
    /// rewrite lands whole by rename, fsynced under [`Durability::Fsync`]).
    pub fn compact(&mut self, meta: Option<&[u8]>, verdicts: &[VerdictRecord]) -> io::Result<()> {
        let stamp = self.max_commit_round;
        self.rows
            .extend(self.records.iter().map(|(&m, &trust)| HistoryRow {
                round: 0,
                module: m.index(),
                trust,
                dir: Direction::New,
            }));
        let mut kept: Vec<VerdictRecord> = verdicts
            .iter()
            .copied()
            .filter(|v| stamp.is_some_and(|s| v.round <= s))
            .collect();
        kept.sort_by_key(|v| v.round);
        let mut image = meta.map_or_else(|| WAL_HEADER.to_vec(), meta_image);
        if !self.rows.is_empty() || stamp.is_some() {
            encode_record(&mut image, &mut self.rows, &kept, stamp);
        }
        land_log(&self.path, &image, self.durability)?;
        self.writer = BufWriter::new(OpenOptions::new().append(true).open(&self.path)?);
        self.max_verdict_round = kept.last().map(|v| v.round);
        // The log is whole again — a full rewrite from in-memory state is
        // exactly the repair a sick WAL needs.
        self.write_failed = false;
        Ok(())
    }
}

impl HistoryStore for FileHistory {
    fn get(&self, module: ModuleId) -> Option<f64> {
        self.records.get(&module).copied()
    }

    fn set(&mut self, module: ModuleId, value: f64) {
        self.set_batch(&[(module, value)]);
    }

    fn set_batch(&mut self, records: &[(ModuleId, f64)]) {
        // One buffered write + one flush (+ one fsync) for the whole batch.
        // With per-write `Fsync` durability this is the difference between
        // N platter waits and one. Best-effort: log write errors raise
        // `write_failed` for the next explicit call site to act on, and a
        // sick handle appends nothing until `compact`.
        let _ = self.checkpoint(records, &[], None);
    }

    fn snapshot(&self) -> Vec<(ModuleId, f64)> {
        self.records.iter().map(|(&m, &v)| (m, v)).collect()
    }

    fn clear(&mut self) {
        // A wipe is a removal row per live record — the representation the
        // segment tier folds.
        let live = std::mem::take(&mut self.records);
        self.rows.extend(live.keys().map(|m| HistoryRow {
            round: 0,
            module: m.index(),
            trust: 0.0,
            dir: Direction::Removed,
        }));
        let _ = self.append(&[], None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("avoc-store-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn verdict(round: u64, value: f64) -> VerdictRecord {
        VerdictRecord {
            round,
            value: Some(value),
            voted: true,
        }
    }

    #[test]
    fn set_get_round_trip() {
        let path = tmp_path("roundtrip");
        let mut s = FileHistory::open(&path).unwrap();
        s.set(m(0), 0.5);
        s.set(m(1), 0.75);
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(s.snapshot().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn survives_reopen() {
        let path = tmp_path("reopen");
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.3);
            s.set(m(0), 0.4); // later write wins
            s.set(m(7), 0.9);
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.4));
        assert_eq!(s.get(m(7)), Some(0.9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clear_persists() {
        let path = tmp_path("clear");
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.3);
            s.clear();
            s.set(m(1), 0.6);
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), None);
        assert_eq!(s.get(m(1)), Some(0.6));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_lands_on_top_of_the_base_tier_in_order() {
        let path = tmp_path("base");
        {
            // The writer knew modules 0 and 1 from the older tier.
            let base = [(m(0), 0.5), (m(1), 0.5)];
            let mut s = FileHistory::open_over(&path, Durability::Flush, base).unwrap();
            s.clear();
            s.set(m(1), 0.25);
        }
        let base = [(m(0), 0.5), (m(1), 0.5)];
        let s = FileHistory::open_over(&path, Durability::Flush, base).unwrap();
        assert_eq!(
            s.snapshot(),
            vec![(m(1), 0.25)],
            "the wipe reaches the base"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_shrinks_log() {
        let path = tmp_path("compact");
        let mut s = FileHistory::open(&path).unwrap();
        for i in 0..100 {
            s.set(m(0), (i as f64) / 100.0);
        }
        let before = std::fs::metadata(&path).unwrap().len();
        s.compact(None, &[]).unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() * 20 < before);
        // Data still correct after compaction and reopen.
        s.set(m(1), 0.5);
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.99));
        assert_eq!(s.get(m(1)), Some(0.5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn values_clamped_to_unit_interval() {
        let path = tmp_path("clamp");
        let mut s = FileHistory::open(&path).unwrap();
        s.set(m(0), 2.0);
        s.set(m(1), -1.0);
        assert_eq!(s.get(m(0)), Some(1.0));
        assert_eq!(s.get(m(1)), Some(0.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_writer_records_which_way_trust_moved() {
        let path = tmp_path("directions");
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.checkpoint(&[(m(0), 0.5)], &[], Some(0)).unwrap();
            s.checkpoint(&[(m(0), 0.25)], &[], Some(1)).unwrap();
            s.checkpoint(&[(m(0), 0.25)], &[], Some(2)).unwrap();
            s.clear();
        }
        let scan = scan_wal(&path).unwrap().unwrap();
        let dirs: Vec<(u64, Direction)> = scan.history.iter().map(|r| (r.round, r.dir)).collect();
        assert_eq!(
            dirs,
            vec![
                (0, Direction::New),
                (1, Direction::Down),
                (2, Direction::Up),
                (0, Direction::Removed), // unstamped: no commit follows it
            ]
        );
        assert_eq!(scan.stamped_history().len(), 3);
        assert!(!scan.fully_committed());
        std::fs::remove_file(&path).unwrap();
    }

    /// Flips one byte of the first record of a two-record log.
    fn damaged_first_record(name: &str, at: usize) -> PathBuf {
        let path = tmp_path(name);
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.5);
            s.set(m(1), 0.75);
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + at] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn corrupt_mid_file_is_invalid_data() {
        // A bad frame *followed by a valid one* is damage, not a torn
        // append — whether the flip lands in the payload or in `len`.
        for at in [FRAME_LEN + 3, 0, 3] {
            let path = damaged_first_record("corrupt", at);
            let err = FileHistory::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "flip at {at}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn every_failure_is_its_own_outcome() {
        let mut log = WAL_HEADER.to_vec();
        encode_record(&mut log, &mut Vec::new(), &[verdict(3, 1.5)], Some(3));
        assert_eq!(validate_wal(&log), Ok(()));

        let text = b"{\"op\":\"set\",\"module\":0,\"value\":0.5}\n";
        assert_eq!(validate_wal(text), Err(WalError::BadMagic));
        let mut future = log.clone();
        future[7] = 9;
        assert_eq!(validate_wal(&future), Err(WalError::UnknownVersion(9)));
        assert_eq!(
            validate_wal(&log[..log.len() - 1]),
            Err(WalError::Truncated { offset: HEADER_LEN })
        );
        assert_eq!(
            validate_wal(&log[..3]),
            Err(WalError::Truncated { offset: 0 })
        );
        let mut flipped = log.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(
            validate_wal(&flipped),
            Err(WalError::CrcMismatch { offset: HEADER_LEN })
        );

        // A frame whose CRC holds over a payload the block decoder (or the
        // kind table) rejects.
        let reframe = |payload: &[u8]| {
            let mut log = WAL_HEADER.to_vec();
            log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            log.extend_from_slice(&crc32(payload).to_le_bytes());
            log.extend_from_slice(payload);
            log
        };
        assert_eq!(
            validate_wal(&reframe(&[7, 0, 0, 0, 0, 0])),
            Err(WalError::UnknownKind(7))
        );
        assert!(matches!(
            validate_wal(&reframe(&[2, 0, 5, 1, 0, 0])),
            Err(WalError::Block {
                offset: HEADER_LEN,
                ..
            })
        ));
        assert_eq!(RecordKind::try_from(1), Ok(RecordKind::Rows));
        assert_eq!(RecordKind::try_from(2), Ok(RecordKind::Commit));
        assert_eq!(RecordKind::try_from(0), Err(WalError::UnknownKind(0)));
        assert!(WalError::CrcMismatch { offset: 8 }
            .to_string()
            .contains("byte 8"));
    }

    #[test]
    fn torn_tail_is_truncated_and_tolerated() {
        let path = tmp_path("torn");
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.25);
            s.set(m(1), 0.75);
        }
        // Crash mid-append: a partial frame with no data after it.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 0])
            .unwrap();
        drop(f);
        let torn_len = std::fs::metadata(&path).unwrap().len();

        let s = FileHistory::open(&path).unwrap();
        assert!(s.recovered_torn_tail());
        assert_eq!(s.get(m(0)), Some(0.25));
        assert_eq!(s.get(m(1)), Some(0.75));
        // The tail was physically truncated, so the next append produces a
        // clean log again.
        assert!(std::fs::metadata(&path).unwrap().len() < torn_len);
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert!(!s.recovered_torn_tail());
        assert_eq!(s.snapshot().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_append_after_recovery_round_trips() {
        let path = tmp_path("torn-append");
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(3), 0.5);
        }
        // A zero-filled tail: the file grew but the data never landed.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0; 21]).unwrap();
        drop(f);
        {
            let mut s = FileHistory::open(&path).unwrap();
            assert!(s.recovered_torn_tail());
            s.set(m(4), 0.9);
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(3)), Some(0.5));
        assert_eq!(s.get(m(4)), Some(0.9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_mode_round_trips_and_counts_bytes() {
        let path = tmp_path("fsync");
        {
            let mut s = FileHistory::open_with(&path, Durability::Fsync).unwrap();
            s.set(m(0), 0.5);
            s.set(m(1), 0.25);
            assert_eq!(s.bytes_logged(), std::fs::metadata(&path).unwrap().len());
        }
        let s = FileHistory::open_with(&path, Durability::Fsync).unwrap();
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(s.get(m(1)), Some(0.25));
        assert_eq!(s.bytes_logged(), 0, "a fresh handle starts its own count");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn get_or_init_persists_the_initial_record() {
        use avoc_core::history::INITIAL_HISTORY;

        let path = tmp_path("init");
        {
            let mut s = FileHistory::open(&path).unwrap();
            assert_eq!(s.get_or_init(m(4)), INITIAL_HISTORY);
        }
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(4)), Some(INITIAL_HISTORY));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_checkpoint_is_one_record_and_survives_reopen() {
        let path = tmp_path("markers");
        let abstained = VerdictRecord {
            round: 4,
            value: None,
            voted: false,
        };
        {
            let mut s = FileHistory::open(&path).unwrap();
            let before = std::fs::metadata(&path).unwrap().len();
            s.checkpoint(
                &[(m(0), 0.5), (m(1), 0.75)],
                // Out of order on purpose: the writer sorts what it frames.
                &[abstained, verdict(3, 19.25)],
                Some(4),
            )
            .unwrap();
            assert_eq!(s.committed_round(), Some(4));
            assert_eq!(s.max_verdict_round(), Some(4));
            let bytes = std::fs::read(&path).unwrap();
            let mut block = DecodedBlock::default();
            let (kind, round, next) = read_record(&bytes, before as usize, &mut block).unwrap();
            assert_eq!((kind, round, next), (RecordKind::Commit, 4, bytes.len()));
        }
        let mut s = FileHistory::open(&path).unwrap();
        assert_eq!(s.committed_round(), Some(4));
        assert_eq!(s.max_verdict_round(), Some(4));
        assert_eq!(s.snapshot(), vec![(m(0), 0.5), (m(1), 0.75)]);
        assert_eq!(
            s.take_replayed_verdicts(),
            vec![verdict(3, 19.25), abstained]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_text_log_fails_the_magic_check() {
        let path = tmp_path("legacy-text");
        std::fs::write(
            &path,
            "{\"op\":\"set\",\"module\":0,\"value\":0.5}\n{\"op\":\"commit\",\"round\":3}\n",
        )
        .unwrap();
        let err = FileHistory::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"), "got: {err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_preserves_the_watermark_and_the_verdicts_under_it() {
        let path = tmp_path("compact-commit");
        {
            let mut s = FileHistory::open(&path).unwrap();
            s.set(m(0), 0.5);
            s.append_markers(&[verdict(8, 1.0), verdict(9, 2.0)], Some(9));
            s.compact(None, &[verdict(9, 2.0), verdict(8, 1.0), verdict(10, 3.0)])
                .unwrap();
            assert_eq!(s.committed_round(), Some(9));
            assert_eq!(s.max_verdict_round(), Some(9));
        }
        let mut s = FileHistory::open(&path).unwrap();
        assert_eq!(s.committed_round(), Some(9));
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(
            s.take_replayed_verdicts(),
            vec![verdict(8, 1.0), verdict(9, 2.0)],
            "round 10 is beyond the state the rewrite holds"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn set_batch_is_one_physical_write() {
        let path = tmp_path("set-batch");
        let mut s = FileHistory::open(&path).unwrap();
        let header = s.bytes_logged();
        s.set_batch(&[(m(0), 0.1), (m(1), 0.2), (m(2), 0.3)]);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(s.bytes_logged(), len);
        let bytes = std::fs::read(&path).unwrap();
        let (kind, _, next) =
            read_record(&bytes, header as usize, &mut DecodedBlock::default()).unwrap();
        assert_eq!((kind, next as u64), (RecordKind::Rows, len), "one record");
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.snapshot().len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_marks_the_log_sick_and_compact_heals_it() {
        use sysio::fault::{self, Kind, Plan};

        let _g = crate::fault_gate();
        let path = tmp_path("sick-heal");
        let mut s = FileHistory::open(&path).unwrap();
        s.set(m(0), 0.5);
        assert!(!s.write_failed());

        // The disk fills: the append is lost but in-memory state survives.
        fault::install(
            Plan::new(21)
                .rule(Site::WalAppend, Kind::Enospc, 1, 1)
                .thread_only(),
        );
        s.set(m(1), 0.75);
        fault::clear();
        assert!(s.write_failed(), "the lost append marks the handle sick");
        assert_eq!(s.get(m(1)), Some(0.75), "memory keeps serving");

        // The disk has room again, but a record after the lost one would
        // hide the gap: a sick handle appends nothing.
        let len = std::fs::metadata(&path).unwrap().len();
        s.set(m(2), 0.25);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        assert_eq!(s.get(m(2)), Some(0.25));

        // Heal: a compact rewrites the whole log from memory and clears
        // the flag...
        s.compact(None, &[]).unwrap();
        assert!(!s.write_failed());
        drop(s);
        // ...so a reopen sees the record the failed append dropped and the
        // one the sick handle refused.
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(s.get(m(1)), Some(0.75));
        assert_eq!(s.get(m(2)), Some(0.25));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compact_fails_while_the_disk_is_still_sick() {
        use sysio::fault::{self, Kind, Plan};

        let _g = crate::fault_gate();
        let path = tmp_path("sick-probe");
        let mut s = FileHistory::open(&path).unwrap();
        s.set(m(0), 0.5);
        // A re-probe against a still-full disk must fail (and leave the
        // original log untouched behind the tmp+rename protocol)...
        fault::install(
            Plan::new(23)
                .rule(Site::WalAppend, Kind::Enospc, 1, 1)
                .thread_only(),
        );
        assert!(s.compact(None, &[]).is_err());
        fault::clear();
        // ...and a later probe against a healed disk succeeds.
        s.compact(None, &[]).unwrap();
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_fsync_log_syncs_its_rewrites() {
        use sysio::fault::{self, Kind, Plan};

        let _g = crate::fault_gate();
        let path = tmp_path("fsync-rewrite");
        let mut s = FileHistory::open_with(&path, Durability::Fsync).unwrap();
        s.checkpoint(&[(m(0), 0.5)], &[verdict(0, 1.0)], Some(0))
            .unwrap();
        fault::install(
            Plan::new(27)
                .rule(Site::WalSync, Kind::Enospc, 1, 1)
                .thread_only(),
        );
        let rewrite = s.compact(Some(b"owner"), &[verdict(0, 1.0)]);
        fault::clear();
        assert!(rewrite.is_err(), "the rewrite reached its fsync");
        drop(s);
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "the failed landing cleaned up");
        assert_eq!(read_log_meta(&path), None, "the old image stands");
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.5));
        assert_eq!(s.committed_round(), Some(0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_head_is_read_alone_and_only_as_the_first_record() {
        let mut image = meta_image(b"owner");
        assert_eq!(image_meta(&image), Some(&b"owner"[..]));
        encode_record(&mut image, &mut Vec::new(), &[verdict(3, 1.5)], Some(3));
        assert_eq!(validate_wal(&image), Ok(()));
        let scan = scan_bytes(&image).unwrap();
        assert_eq!(scan.meta.as_deref(), Some(&b"owner"[..]));
        assert_eq!((scan.round, scan.verdicts.len()), (Some(3), 1));

        // A head behind a record is damage, not a head.
        let mut late = WAL_HEADER.to_vec();
        encode_record(&mut late, &mut Vec::new(), &[verdict(3, 1.5)], Some(3));
        let offset = late.len();
        frame(&mut late, RecordKind::Meta, |out| {
            out.extend_from_slice(b"x")
        });
        assert_eq!(validate_wal(&late), Err(WalError::MisplacedMeta(offset)));
        assert_eq!(image_meta(&late), None);
        // A log of the previous version has no head to read.
        let mut v1 = image.clone();
        v1[7] = 1;
        assert_eq!(image_meta(&v1), None);

        // Appends go after the head, and a rewrite replaces it.
        let path = tmp_path("head");
        land_log(&path, &image, Durability::Flush).unwrap();
        let mut s = FileHistory::open(&path).unwrap();
        s.checkpoint(&[(m(0), 0.5)], &[verdict(4, 2.5)], Some(4))
            .unwrap();
        assert_eq!(read_log_meta(&path).as_deref(), Some(&b"owner"[..]));
        s.compact(Some(b"next"), &[verdict(3, 1.5), verdict(4, 2.5)])
            .unwrap();
        drop(s);
        assert_eq!(read_log_meta(&path).as_deref(), Some(&b"next"[..]));
        let mut s = FileHistory::open(&path).unwrap();
        assert_eq!((s.get(m(0)), s.committed_round()), (Some(0.5), Some(4)));
        assert_eq!(s.take_replayed_verdicts().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn eintr_and_short_writes_on_the_wal_are_invisible() {
        use sysio::fault::{self, Kind, Plan};

        let _g = crate::fault_gate();
        let path = tmp_path("wal-eintr");
        let mut s = FileHistory::open(&path).unwrap();
        fault::install(
            Plan::new(25)
                .rule(Site::WalAppend, Kind::Eintr, 1, 3)
                .rule(Site::WalAppend, Kind::ShortWrite, 5, 3)
                .rule(Site::WalFlush, Kind::Eintr, 1, 2)
                .thread_only(),
        );
        s.set(m(0), 0.25);
        s.set_batch(&[(m(1), 0.5), (m(2), 0.75)]);
        fault::clear();
        assert!(!s.write_failed(), "retryable faults never mark sickness");
        drop(s);
        let s = FileHistory::open(&path).unwrap();
        assert_eq!(s.get(m(0)), Some(0.25));
        assert_eq!(s.get(m(1)), Some(0.5));
        assert_eq!(s.get(m(2)), Some(0.75));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn works_as_voter_backend() {
        use avoc_core::algorithms::{HistoryAlgorithm, HistoryVoter, Voter};
        use avoc_core::{Round, VoterConfig};

        let path = tmp_path("voter");
        {
            let store = FileHistory::open(&path).unwrap();
            let mut voter =
                HistoryVoter::new(HistoryAlgorithm::Standard, VoterConfig::default(), store);
            for r in 0..3 {
                voter
                    .vote(&Round::from_numbers(r, &[18.0, 18.1, 20.0]))
                    .unwrap();
            }
        }
        // Records survive process "restart".
        let store = FileHistory::open(&path).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.len(), 3);
        assert!(snap[2].1 < snap[0].1, "outlier record must have decayed");
        std::fs::remove_file(&path).unwrap();
    }
}
