//! The immutable columnar segment format — the cold tier of the history
//! store.
//!
//! A segment file holds round-stamped history rows and verdict rows for many
//! sessions, sorted by `(session, round)`, laid out in per-session blocks of
//! column-encoded data:
//!
//! ```text
//! ┌──────────────┬─────────┬─────────┬───┬────────┬────────────────┐
//! │ magic        │ block 0 │ block 1 │ … │ footer │ tail (16 B)    │
//! │ "AVSEG1\n\0" │         │         │   │        │ len·crc·magic  │
//! └──────────────┴─────────┴─────────┴───┴────────┴────────────────┘
//!
//! block  := crc32 │ session │ first_round │ last_round │ n_hist │ n_verd
//!           │ hist rounds   (delta + varint)
//!           │ hist modules  (varint)
//!           │ hist dirs     (2-bit packed trust direction)
//!           │ hist trust    (f64 bits XOR previous, varint)
//!           │ verd rounds   (delta + varint)
//!           │ verd flags    (2-bit packed: voted, has-value)
//!           │ verd values   (f64 bits XOR previous, varint)
//! footer := n_blocks │ per block: session · first_round · last_round
//!           · offset · len · n_hist · n_verd   (all varint)
//! tail   := footer_len u32 │ footer_crc u32 │ "AVSGFTR1"
//! ```
//!
//! Reads are a tail + footer parse followed by targeted `pread`s of exactly
//! the blocks whose `(session, round-range)` matches the query — never a
//! full-file scan. Every block carries its own CRC-32; every decode path
//! is bounds-checked and fails clean on truncated, lying or bit-flipped
//! input (the segment proptests drive all three).

use crate::codec::{crc32, put_u32_le, put_varint, DecodeError, Reader};
use crate::file::VerdictRecord;
use avoc_core::ModuleId;
use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use sysio::fault::Site;

/// Leading file magic (8 bytes).
pub const HEADER_MAGIC: &[u8; 8] = b"AVSEG1\n\0";
/// Trailing file magic (8 bytes).
pub const TAIL_MAGIC: &[u8; 8] = b"AVSGFTR1";
/// Fixed tail length: footer_len (4) + footer_crc (4) + magic (8).
pub const TAIL_LEN: u64 = 16;
/// Soft cap on history rows per block — keeps a targeted read small.
pub const MAX_BLOCK_ROWS: usize = 4096;

/// Which way a module's trust moved at a round — computed at fold time so
/// the fleet-level "who was outvoted" scan is a column filter, not a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Direction {
    /// First record for the module (no prior value to compare).
    New = 0,
    /// Trust rose or held (the module agreed with the verdict).
    Up = 1,
    /// Trust fell — the module was outvoted at this round.
    Down = 2,
    /// The record was removed (a logged `clear`).
    Removed = 3,
}

impl Direction {
    fn from_bits(b: u8) -> Direction {
        match b & 0b11 {
            0 => Direction::New,
            1 => Direction::Up,
            2 => Direction::Down,
            _ => Direction::Removed,
        }
    }
}

/// One round-stamped history mutation: at `round`, `module`'s trust became
/// `trust`, moving in `dir`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryRow {
    /// Fused round the mutation is stamped to.
    pub round: u64,
    /// Module index.
    pub module: u32,
    /// Trust value after the round (meaningless for [`Direction::Removed`]).
    pub trust: f64,
    /// Trust movement direction.
    pub dir: Direction,
}

/// All rows for one session destined for a segment, sorted by round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionRows {
    /// Session id.
    pub session: u64,
    /// History mutations, ascending `(round, module)`.
    pub history: Vec<HistoryRow>,
    /// Verdicts, ascending round.
    pub verdicts: Vec<VerdictRecord>,
}

/// Footer index entry: where one session/round-range block lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Session id the block belongs to.
    pub session: u64,
    /// Lowest round in the block.
    pub first_round: u64,
    /// Highest round in the block.
    pub last_round: u64,
    /// Byte offset of the block in the file.
    pub offset: u64,
    /// Encoded block length in bytes.
    pub len: u64,
    /// History row count.
    pub n_hist: u64,
    /// Verdict row count.
    pub n_verd: u64,
}

/// A decoded block: one session's rows for one round range.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodedBlock {
    /// Session id.
    pub session: u64,
    /// History mutations, ascending round.
    pub history: Vec<HistoryRow>,
    /// Verdicts, ascending round.
    pub verdicts: Vec<VerdictRecord>,
}

/// What [`write_segment`] produced — compaction accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Blocks written.
    pub blocks: usize,
    /// Total file bytes.
    pub bytes: u64,
    /// History rows folded in.
    pub history_rows: u64,
    /// Verdict rows folded in.
    pub verdict_rows: u64,
}

impl HistoryRow {
    /// Applies the mutation to a latest-state map: the one definition of
    /// what a durable row does to state, shared by WAL replay, segment
    /// summaries and time-travel reads.
    pub fn apply_to(&self, state: &mut BTreeMap<ModuleId, f64>) {
        match self.dir {
            Direction::Removed => state.remove(&ModuleId::new(self.module)),
            _ => state.insert(ModuleId::new(self.module), self.trust),
        };
    }
}

fn pack_2bit(values: impl Iterator<Item = u8>, out: &mut Vec<u8>) {
    let mut byte = 0u8;
    let mut filled = 0u8;
    for v in values {
        byte |= (v & 0b11) << (filled * 2);
        filled += 1;
        if filled == 4 {
            out.push(byte);
            byte = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        out.push(byte);
    }
}

fn unpack_2bit(bytes: &[u8], i: usize) -> u8 {
    (bytes[i / 4] >> ((i % 4) * 2)) & 0b11
}

/// Lowest and highest round among `history` and `verdicts` (`(0, 0)` when
/// both are empty).
pub(crate) fn round_range(history: &[HistoryRow], verdicts: &[VerdictRecord]) -> (u64, u64) {
    let rounds = || {
        let hist = history.iter().map(|r| r.round);
        hist.chain(verdicts.iter().map(|v| v.round))
    };
    (rounds().min().unwrap_or(0), rounds().max().unwrap_or(0))
}

/// Appends one block *body* — everything after the CRC in the layout above
/// — to `out`. This is the one durable row encoding: a segment block is
/// `crc32 │ body`, a WAL record frames the same body (see
/// [`crate::FileHistory`]).
/// Rows must ascend by round and lie inside `rounds`; the range may be
/// wider than the rows (a WAL record stamps its commit round that way).
pub(crate) fn encode_block_body(
    out: &mut Vec<u8>,
    session: u64,
    (first_round, last_round): (u64, u64),
    history: &[HistoryRow],
    verdicts: &[VerdictRecord],
) {
    put_varint(out, session);
    put_varint(out, first_round);
    put_varint(out, last_round);
    put_varint(out, history.len() as u64);
    put_varint(out, verdicts.len() as u64);
    // History columns.
    let mut prev = first_round;
    for r in history {
        put_varint(out, r.round - prev);
        prev = r.round;
    }
    for r in history {
        put_varint(out, r.module as u64);
    }
    pack_2bit(history.iter().map(|r| r.dir as u8), out);
    let mut prev_bits = 0u64;
    for r in history {
        let bits = r.trust.to_bits();
        put_varint(out, bits ^ prev_bits);
        prev_bits = bits;
    }
    // Verdict columns.
    let mut prev = first_round;
    for v in verdicts {
        put_varint(out, v.round - prev);
        prev = v.round;
    }
    pack_2bit(
        verdicts
            .iter()
            .map(|v| u8::from(v.voted) | (u8::from(v.value.is_some()) << 1)),
        out,
    );
    let mut prev_bits = 0u64;
    for v in verdicts {
        if let Some(value) = v.value {
            let bits = value.to_bits();
            put_varint(out, bits ^ prev_bits);
            prev_bits = bits;
        }
    }
}

fn encode_block(
    session: u64,
    rounds: (u64, u64),
    history: &[HistoryRow],
    verdicts: &[VerdictRecord],
) -> Vec<u8> {
    let mut block = Vec::with_capacity(16 * (history.len() + verdicts.len()) + 64);
    block.extend_from_slice(&[0; 4]);
    encode_block_body(&mut block, session, rounds, history, verdicts);
    let crc = crc32(&block[4..]);
    block[..4].copy_from_slice(&crc.to_le_bytes());
    block
}

/// Reads the next delta-coded round of a column, keeping it inside the
/// block's range.
fn next_round(r: &mut Reader<'_>, prev: u64, last_round: u64) -> Result<u64, DecodeError> {
    let delta = r.varint()?;
    match prev.checked_add(delta) {
        Some(round) if round <= last_round => Ok(round),
        Some(_) => Err(DecodeError {
            at: r.pos(),
            reason: "row round beyond block range",
        }),
        None => Err(DecodeError {
            at: r.pos(),
            reason: "round overflow",
        }),
    }
}

/// Decodes one block body into `out` (cleared first, so a scan can reuse
/// one scratch block for a whole log) and returns its `(first_round,
/// last_round)` range. The one durable row decoder — segment reads and WAL
/// replay both end up here. Fails clean on any malformed input.
pub(crate) fn decode_block_body(
    body: &[u8],
    out: &mut DecodedBlock,
) -> Result<(u64, u64), DecodeError> {
    out.history.clear();
    out.verdicts.clear();
    let mut r = Reader::new(body);
    out.session = r.varint()?;
    let first_round = r.varint()?;
    let last_round = r.varint()?;
    if first_round > last_round {
        return Err(DecodeError {
            at: r.pos(),
            reason: "inverted round range",
        });
    }
    // Each row spends at least one byte in its rounds column, so the
    // remaining byte count bounds any honest row count — a lying count
    // fails here instead of driving a huge allocation.
    let n_hist = r.count(r.remaining())?;
    let n_verd = r.count(r.remaining())?;
    // History columns, filled in place one column at a time.
    out.history.reserve(n_hist);
    out.verdicts.reserve(n_verd);
    let mut round = first_round;
    for _ in 0..n_hist {
        round = next_round(&mut r, round, last_round)?;
        out.history.push(HistoryRow {
            round,
            module: 0,
            trust: 0.0,
            dir: Direction::New,
        });
    }
    for row in &mut out.history {
        let m = r.varint()?;
        row.module = u32::try_from(m).map_err(|_| DecodeError {
            at: r.pos(),
            reason: "module index overflows u32",
        })?;
    }
    let dirs = r.bytes(n_hist.div_ceil(4))?;
    for (i, row) in out.history.iter_mut().enumerate() {
        row.dir = Direction::from_bits(unpack_2bit(dirs, i));
    }
    let mut prev_bits = 0u64;
    for row in &mut out.history {
        prev_bits ^= r.varint()?;
        row.trust = f64::from_bits(prev_bits);
    }
    // Verdict columns.
    let mut round = first_round;
    for _ in 0..n_verd {
        round = next_round(&mut r, round, last_round)?;
        out.verdicts.push(VerdictRecord {
            round,
            value: None,
            voted: false,
        });
    }
    let flags = r.bytes(n_verd.div_ceil(4))?;
    let mut prev_bits = 0u64;
    for (i, v) in out.verdicts.iter_mut().enumerate() {
        let flag = unpack_2bit(flags, i);
        v.voted = flag & 0b01 != 0;
        if flag & 0b10 != 0 {
            prev_bits ^= r.varint()?;
            v.value = Some(f64::from_bits(prev_bits));
        }
    }
    if r.remaining() != 0 {
        return Err(DecodeError {
            at: r.pos(),
            reason: "trailing bytes after block payload",
        });
    }
    Ok((first_round, last_round))
}

/// Decodes one block from its exact byte extent, cross-checking every field
/// against the footer `entry`. Fails clean on any mismatch.
pub fn decode_block(bytes: &[u8], entry: &BlockEntry) -> Result<DecodedBlock, DecodeError> {
    let stored_crc = Reader::new(bytes).u32_le()?;
    let body = &bytes[4..];
    if crc32(body) != stored_crc {
        return Err(DecodeError {
            at: 0,
            reason: "block CRC mismatch",
        });
    }
    let mut block = DecodedBlock::default();
    let rounds = decode_block_body(body, &mut block)?;
    if block.session != entry.session
        || rounds != (entry.first_round, entry.last_round)
        || block.history.len() as u64 != entry.n_hist
        || block.verdicts.len() as u64 != entry.n_verd
    {
        return Err(DecodeError {
            at: bytes.len(),
            reason: "block disagrees with footer entry",
        });
    }
    Ok(block)
}

/// Splits one session's rows into block-sized chunks at round boundaries —
/// a round's rows never straddle a block, so a range query touches the
/// minimal block set.
fn chunk_session(rows: &SessionRows) -> Vec<(Vec<HistoryRow>, Vec<VerdictRecord>)> {
    let mut chunks = Vec::new();
    let mut hist = rows.history.clone();
    let mut verd = rows.verdicts.clone();
    hist.sort_by_key(|r| (r.round, r.module));
    verd.sort_by_key(|v| v.round);
    let (mut hi, mut vi) = (0usize, 0usize);
    let mut cur_h: Vec<HistoryRow> = Vec::new();
    let mut cur_v: Vec<VerdictRecord> = Vec::new();
    while hi < hist.len() || vi < verd.len() {
        // Next round present in either column.
        let round = match (hist.get(hi), verd.get(vi)) {
            (Some(h), Some(v)) => h.round.min(v.round),
            (Some(h), None) => h.round,
            (None, Some(v)) => v.round,
            (None, None) => unreachable!(),
        };
        while hist.get(hi).is_some_and(|h| h.round == round) {
            cur_h.push(hist[hi]);
            hi += 1;
        }
        while verd.get(vi).is_some_and(|v| v.round == round) {
            cur_v.push(verd[vi]);
            vi += 1;
        }
        if cur_h.len() >= MAX_BLOCK_ROWS {
            chunks.push((std::mem::take(&mut cur_h), std::mem::take(&mut cur_v)));
        }
    }
    if !cur_h.is_empty() || !cur_v.is_empty() {
        chunks.push((cur_h, cur_v));
    }
    chunks
}

/// Encodes `sessions` into a complete segment byte image (blocks + footer +
/// tail). Sessions are laid out in ascending id order.
pub fn encode_segment(sessions: &[SessionRows]) -> (Vec<u8>, SegmentMeta, Vec<BlockEntry>) {
    let mut ordered: Vec<&SessionRows> = sessions
        .iter()
        .filter(|s| !s.history.is_empty() || !s.verdicts.is_empty())
        .collect();
    ordered.sort_by_key(|s| s.session);
    let mut out = Vec::new();
    out.extend_from_slice(HEADER_MAGIC);
    let mut entries: Vec<BlockEntry> = Vec::new();
    let mut meta = SegmentMeta::default();
    for s in ordered {
        for (hist, verd) in chunk_session(s) {
            let (first_round, last_round) = round_range(&hist, &verd);
            let block = encode_block(s.session, (first_round, last_round), &hist, &verd);
            entries.push(BlockEntry {
                session: s.session,
                first_round,
                last_round,
                offset: out.len() as u64,
                len: block.len() as u64,
                n_hist: hist.len() as u64,
                n_verd: verd.len() as u64,
            });
            meta.history_rows += hist.len() as u64;
            meta.verdict_rows += verd.len() as u64;
            out.extend_from_slice(&block);
        }
    }
    let mut footer = Vec::new();
    put_varint(&mut footer, entries.len() as u64);
    for e in &entries {
        put_varint(&mut footer, e.session);
        put_varint(&mut footer, e.first_round);
        put_varint(&mut footer, e.last_round);
        put_varint(&mut footer, e.offset);
        put_varint(&mut footer, e.len);
        put_varint(&mut footer, e.n_hist);
        put_varint(&mut footer, e.n_verd);
    }
    let footer_crc = crc32(&footer);
    let footer_len = footer.len() as u32;
    out.extend_from_slice(&footer);
    put_u32_le(&mut out, footer_len);
    put_u32_le(&mut out, footer_crc);
    out.extend_from_slice(TAIL_MAGIC);
    meta.blocks = entries.len();
    meta.bytes = out.len() as u64;
    (out, meta, entries)
}

/// Parses footer bytes into validated [`BlockEntry`]s. `blocks_end` is the
/// byte offset where block data stops (i.e. where the footer starts);
/// entries must lie within `[header, blocks_end)` and stay non-overlapping
/// in file order.
fn parse_footer(footer: &[u8], blocks_end: u64) -> Result<Vec<BlockEntry>, DecodeError> {
    let mut r = Reader::new(footer);
    // Seven varints ≥ 7 bytes per entry bounds an honest count.
    let n = r.count(footer.len())?;
    let mut entries = Vec::with_capacity(n);
    let mut cursor = HEADER_MAGIC.len() as u64;
    for _ in 0..n {
        let e = BlockEntry {
            session: r.varint()?,
            first_round: r.varint()?,
            last_round: r.varint()?,
            offset: r.varint()?,
            len: r.varint()?,
            n_hist: r.varint()?,
            n_verd: r.varint()?,
        };
        if e.first_round > e.last_round {
            return Err(DecodeError {
                at: r.pos(),
                reason: "footer entry has inverted round range",
            });
        }
        if e.offset != cursor {
            return Err(DecodeError {
                at: r.pos(),
                reason: "footer entry offset out of sequence",
            });
        }
        let end = e.offset.checked_add(e.len).ok_or(DecodeError {
            at: r.pos(),
            reason: "footer entry extent overflows",
        })?;
        if e.len < 5 || end > blocks_end {
            return Err(DecodeError {
                at: r.pos(),
                reason: "footer entry extends past block data",
            });
        }
        cursor = end;
        entries.push(e);
    }
    if r.remaining() != 0 {
        return Err(DecodeError {
            at: r.pos(),
            reason: "trailing bytes after footer entries",
        });
    }
    if cursor != blocks_end {
        return Err(DecodeError {
            at: r.pos(),
            reason: "block data not fully covered by footer",
        });
    }
    Ok(entries)
}

/// Fully decodes a segment byte image — header, tail, footer, then every
/// block. The proptest entry point: must fail clean (never panic) on any
/// mutation of any byte.
pub fn decode_segment(bytes: &[u8]) -> Result<Vec<DecodedBlock>, DecodeError> {
    let entries = decode_footer_image(bytes)?;
    entries
        .iter()
        .map(|e| {
            // parse_footer proved the extent is in range.
            let block = &bytes[e.offset as usize..(e.offset + e.len) as usize];
            decode_block(block, e)
        })
        .collect()
}

/// Validates header/tail/footer of a full segment image and returns the
/// block index.
fn decode_footer_image(bytes: &[u8]) -> Result<Vec<BlockEntry>, DecodeError> {
    let min = HEADER_MAGIC.len() + TAIL_LEN as usize;
    if bytes.len() < min {
        return Err(DecodeError {
            at: bytes.len(),
            reason: "file shorter than magic + tail",
        });
    }
    if &bytes[..HEADER_MAGIC.len()] != HEADER_MAGIC {
        return Err(DecodeError {
            at: 0,
            reason: "bad header magic",
        });
    }
    let tail = &bytes[bytes.len() - TAIL_LEN as usize..];
    let mut tr = Reader::new(tail);
    let footer_len = tr.u32_le()? as usize;
    let footer_crc = tr.u32_le()?;
    if &tail[8..] != TAIL_MAGIC {
        return Err(DecodeError {
            at: bytes.len() - 8,
            reason: "bad tail magic",
        });
    }
    let footer_end = bytes.len() - TAIL_LEN as usize;
    let footer_start = footer_end
        .checked_sub(footer_len)
        .filter(|&s| s >= HEADER_MAGIC.len())
        .ok_or(DecodeError {
            at: footer_end,
            reason: "footer length exceeds file",
        })?;
    let footer = &bytes[footer_start..footer_end];
    if crc32(footer) != footer_crc {
        return Err(DecodeError {
            at: footer_start,
            reason: "footer CRC mismatch",
        });
    }
    parse_footer(footer, footer_start as u64)
}

/// Writes `sessions` to `path` durably: encoded, then landed whole by
/// the one landing routine (temporary, fsync, rename, directory fsync).
///
/// # Errors
///
/// Propagates I/O errors; on error `path` is never left half-written.
pub fn write_segment(path: &Path, sessions: &[SessionRows]) -> io::Result<SegmentMeta> {
    let (bytes, meta, _) = encode_segment(sessions);
    crate::file::land(Site::SegmentWrite, path, &bytes, Some(Site::SegmentWrite))?;
    Ok(meta)
}

/// An open segment: a parsed footer index plus a file handle for targeted
/// block reads. Immutable by construction — the compactor only ever writes
/// whole new files.
#[derive(Debug)]
pub struct SegmentFile {
    path: PathBuf,
    file: File,
    len: u64,
    entries: Vec<BlockEntry>,
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

impl SegmentFile {
    /// Opens a segment: reads the header magic, tail and footer — *not* the
    /// blocks. Cost is O(footer), independent of data size.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on any structural defect.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let len = file.metadata()?.len();
        let min = HEADER_MAGIC.len() as u64 + TAIL_LEN;
        if len < min {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment shorter than magic + tail",
            ));
        }
        let mut head = [0u8; 8];
        read_exact_at(&file, &mut head, 0)?;
        if &head != HEADER_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad segment header magic",
            ));
        }
        let mut tail = [0u8; TAIL_LEN as usize];
        read_exact_at(&file, &mut tail, len - TAIL_LEN)?;
        let mut tr = Reader::new(&tail);
        let footer_len = tr.u32_le().map_err(io::Error::from)? as u64;
        let footer_crc = tr.u32_le().map_err(io::Error::from)?;
        if &tail[8..] != TAIL_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad segment tail magic",
            ));
        }
        let footer_end = len - TAIL_LEN;
        let footer_start = footer_end
            .checked_sub(footer_len)
            .filter(|&s| s >= HEADER_MAGIC.len() as u64)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, "footer length exceeds file")
            })?;
        let mut footer = vec![0u8; footer_len as usize];
        read_exact_at(&file, &mut footer, footer_start)?;
        if crc32(&footer) != footer_crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "footer CRC mismatch",
            ));
        }
        let entries = parse_footer(&footer, footer_start)?;
        Ok(SegmentFile {
            path,
            file,
            len,
            entries,
        })
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total file size in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The footer index, in file order.
    pub fn entries(&self) -> &[BlockEntry] {
        &self.entries
    }

    /// Footer entries for one session, in file (round) order.
    pub fn blocks_for(&self, session: u64) -> impl Iterator<Item = &BlockEntry> {
        self.entries.iter().filter(move |e| e.session == session)
    }

    /// Reads and decodes one block via a targeted positional read.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on CRC or structural mismatch.
    pub fn read_block(&self, entry: &BlockEntry) -> io::Result<DecodedBlock> {
        let mut buf = vec![0u8; entry.len as usize];
        read_exact_at(&self.file, &mut buf, entry.offset)?;
        decode_block(&buf, entry).map_err(io::Error::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(session: u64, rounds: u64) -> SessionRows {
        let mut s = SessionRows {
            session,
            ..Default::default()
        };
        for r in 0..rounds {
            for m in 0..3u32 {
                s.history.push(HistoryRow {
                    round: r,
                    module: m,
                    trust: 1.0 - (r as f64 * 0.01 + m as f64 * 0.1).min(1.0),
                    dir: if m == 2 {
                        Direction::Down
                    } else {
                        Direction::Up
                    },
                });
            }
            s.verdicts.push(VerdictRecord {
                round: r,
                value: if r % 7 == 3 {
                    None
                } else {
                    Some(18.0 + r as f64)
                },
                voted: r % 7 != 3,
            });
        }
        s
    }

    #[test]
    fn encode_decode_round_trips_bit_exact() {
        let sessions = vec![rows(0xC0FFEE, 50), rows(7, 3)];
        let (bytes, meta, entries) = encode_segment(&sessions);
        assert_eq!(meta.blocks, entries.len());
        assert_eq!(meta.history_rows, 53 * 3);
        let blocks = decode_segment(&bytes).unwrap();
        // Sessions come back ascending by id; rows bit-identical.
        let mut decoded_hist: Vec<(u64, HistoryRow)> = Vec::new();
        let mut decoded_verd: Vec<(u64, VerdictRecord)> = Vec::new();
        for b in &blocks {
            decoded_hist.extend(b.history.iter().map(|r| (b.session, *r)));
            decoded_verd.extend(b.verdicts.iter().map(|v| (b.session, *v)));
        }
        let mut expect_hist: Vec<(u64, HistoryRow)> = Vec::new();
        let mut expect_verd: Vec<(u64, VerdictRecord)> = Vec::new();
        for s in [&sessions[1], &sessions[0]] {
            expect_hist.extend(s.history.iter().map(|r| (s.session, *r)));
            expect_verd.extend(s.verdicts.iter().map(|v| (s.session, *v)));
        }
        assert_eq!(decoded_hist.len(), expect_hist.len());
        for (d, e) in decoded_hist.iter().zip(&expect_hist) {
            assert_eq!(d.0, e.0);
            assert_eq!(d.1.round, e.1.round);
            assert_eq!(d.1.module, e.1.module);
            assert_eq!(d.1.trust.to_bits(), e.1.trust.to_bits());
            assert_eq!(d.1.dir, e.1.dir);
        }
        assert_eq!(decoded_verd.len(), expect_verd.len());
        for (d, e) in decoded_verd.iter().zip(&expect_verd) {
            assert_eq!(d.0, e.0);
            assert_eq!(d.1.round, e.1.round);
            assert_eq!(d.1.value.map(f64::to_bits), e.1.value.map(f64::to_bits));
            assert_eq!(d.1.voted, e.1.voted);
        }
    }

    #[test]
    fn file_round_trip_with_targeted_reads() {
        let dir = std::env::temp_dir().join(format!("avoc-seg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-1.avseg");
        let sessions = vec![rows(1, 10), rows(2, 10_000)];
        write_segment(&path, &sessions).unwrap();
        let seg = SegmentFile::open(&path).unwrap();
        // Session 2 splits into multiple blocks; session 1 keeps one.
        assert_eq!(seg.blocks_for(1).count(), 1);
        assert!(seg.blocks_for(2).count() > 1);
        // Targeted range read: only blocks overlapping rounds 0..=5.
        let hits: Vec<_> = seg.blocks_for(2).filter(|e| e.first_round <= 5).collect();
        assert_eq!(hits.len(), 1);
        let b = seg.read_block(hits[0]).unwrap();
        assert!(b.history.iter().any(|r| r.round == 5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn big_session_splits_at_round_boundaries() {
        let sessions = vec![rows(9, 3000)]; // 9000 history rows
        let (bytes, _, entries) = encode_segment(&sessions);
        assert!(entries.len() >= 2);
        for w in entries.windows(2) {
            assert!(
                w[0].last_round < w[1].first_round,
                "blocks must not share a round"
            );
        }
        decode_segment(&bytes).unwrap();
    }

    #[test]
    fn every_flipped_byte_fails_clean() {
        let (bytes, ..) = encode_segment(&[rows(3, 8)]);
        let baseline = decode_segment(&bytes).unwrap();
        // Flip each byte in turn: decode must either error or (for bytes
        // the format genuinely does not interpret — there are none today)
        // produce a different-but-valid result. It must never panic.
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xff;
            if let Ok(blocks) = decode_segment(&mutated) {
                assert_ne!(blocks, baseline, "flip at {i} silently ignored");
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_fails_clean() {
        let (bytes, ..) = encode_segment(&[rows(4, 6)]);
        for cut in 0..bytes.len() {
            assert!(decode_segment(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let (bytes, meta, _) = encode_segment(&[]);
        assert_eq!(meta.blocks, 0);
        assert!(decode_segment(&bytes).unwrap().is_empty());
    }
}
