//! The tiered history store: session WALs (hot) folded into immutable
//! columnar segments (cold) by on-demand compaction, with time-travel
//! reads over both tiers.
//!
//! ## Commit protocol
//!
//! A fold is WAL-first, manifest-second:
//!
//! 1. the new segment is landed (`.tmp`, fsync, rename) — a crash here
//!    leaves an *orphan* the next open deletes (the WAL still holds every
//!    round);
//! 2. the `MANIFEST` is landed to list the new segment — the publish point;
//! 3. only a WAL whose every record is now round-stamped *and* folded is
//!    retired: cut to its head if it has one, deleted if not. A crash
//!    between 2 and 3 leaves WAL and segment overlapping, which is
//!    harmless: rows carry absolute values and verdicts deduplicate by
//!    round, so replaying both tiers is idempotent.
//!
//! WAL records are segment blocks (see [`crate::FileHistory`]), so a fold
//! moves rows across as they are — trust directions included, which the
//! WAL writer computed once — and every read below sees both tiers through
//! the one block decoder.
//!
//! No step loses a round; no step double-counts one. The kill-mid-compaction
//! chaos test drives a hard stop at both crash points and asserts the
//! resumed stream is bit-identical.
//!
//! ## Visibility
//!
//! Live sessions are *pinned* (see [`TieredStore::pin`]): the compactor
//! skips pinned sessions, and pinning waits out an in-flight fold of the
//! same session, so the hot path never races the fold. A re-created session
//! id is *forgotten* first: segments older than the forget floor become
//! invisible for that session and are physically dropped at the next merge.

use crate::file::{land, land_log, meta_image, scan_wal, Durability, VerdictRecord, WalScan};
use crate::segment::{
    write_segment, BlockEntry, DecodedBlock, Direction, HistoryRow, SegmentFile, SessionRows,
};
use avoc_core::{DenseHistory, ModuleId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use sysio::fault::Site;

/// How many same-generation segments trigger a merge into the next
/// generation.
pub const MERGE_FANIN: usize = 4;

/// Session WAL path shared with the serve layer (`session-<id:016x>.wal`).
pub fn session_wal_path(dir: &Path, session: u64) -> PathBuf {
    dir.join(format!("session-{session:016x}.wal"))
}

fn segment_file_name(seq: u64, gen: u32) -> String {
    format!("seg-{seq:08}-g{gen}.avseg")
}

fn parse_segment_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".avseg")?;
    let (seq, gen) = rest.split_once("-g")?;
    Some((seq.parse().ok()?, gen.parse().ok()?))
}

/// Crash-injection points for the fold protocol — the in-process analogue
/// of `kill -9` at each step, used by the chaos tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// Run to completion.
    #[default]
    None,
    /// Die after the segment file is durable but before the manifest lists
    /// it: the segment is an orphan, the WAL is intact.
    AfterSegmentWrite,
    /// Die after the manifest commit but before the folded WAL is retired:
    /// both tiers overlap.
    AfterManifest,
}

/// One fold/merge pass's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Sessions whose WAL was folded.
    pub folded_sessions: usize,
    /// History rows written into segments.
    pub history_rows: u64,
    /// Verdict rows written into segments.
    pub verdict_rows: u64,
    /// Segment bytes written (folds + merges).
    pub bytes_written: u64,
    /// Segment files created.
    pub segments_written: usize,
    /// Generation merges performed.
    pub merges: usize,
    /// Fully folded WALs retired (deleted, or cut to their head).
    pub wals_retired: usize,
}

impl CompactionReport {
    /// Whether the pass did anything at all.
    pub fn is_empty(&self) -> bool {
        self.segments_written == 0 && self.merges == 0 && self.wals_retired == 0
    }
}

/// Lifetime counters for the tier, surfaced via `/segments`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Fold passes that wrote a segment.
    pub compactions: u64,
    /// Generation merges.
    pub merges: u64,
    /// History rows folded.
    pub history_rows: u64,
    /// Verdict rows folded.
    pub verdict_rows: u64,
    /// Total segment bytes written.
    pub bytes_written: u64,
    /// WALs retired after a complete fold.
    pub wals_retired: u64,
    /// Segments moved to `quarantine/` after a CRC or decode failure.
    pub quarantined: u64,
}

/// What the segment tier knows about one session.
#[derive(Debug, Clone, Default)]
pub struct SessionSummary {
    /// Latest per-module trust reconstructed from segments only, ascending
    /// module order.
    pub latest: Vec<(ModuleId, f64)>,
    /// Highest history round folded.
    pub folded_through: Option<u64>,
    /// Highest verdict round folded.
    pub max_verdict_round: Option<u64>,
    /// Blocks contributing to this session.
    pub blocks: usize,
}

/// A fleet-scan hit: `module` lost trust at `round` of `session`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutvotedRow {
    /// Session id.
    pub session: u64,
    /// Fused round.
    pub round: u64,
    /// The outvoted module.
    pub module: u32,
    /// Its trust after the penalty.
    pub trust: f64,
}

#[derive(Debug, Clone)]
struct LiveSegment {
    seq: u64,
    gen: u32,
    file: Arc<SegmentFile>,
}

#[derive(Debug, Default)]
struct State {
    next_seq: u64,
    /// Ascending seq; later segments win on row collisions.
    segments: Vec<LiveSegment>,
    /// session → forget floor: segments with `seq <` floor are invisible
    /// for that session.
    forget: BTreeMap<u64, u64>,
    /// Sessions a fold currently holds.
    busy: HashSet<u64>,
    /// Live sessions (pin counts) the compactor must skip.
    pinned: HashMap<u64, u32>,
    stats: TierStats,
}

/// The segment tier of the history store. See the module docs for the
/// commit protocol; one instance guards one state directory and is shared
/// (`Arc`) between the serve layer's shards and its compaction passes.
#[derive(Debug)]
pub struct TieredStore {
    dir: PathBuf,
    state: Mutex<State>,
    unpinned: Condvar,
}

/// RAII pin: while alive, the compactor will not fold this session's WAL.
/// Acquiring a pin waits out an in-flight fold of the same session.
#[derive(Debug)]
pub struct TieredPin {
    store: Arc<TieredStore>,
    session: u64,
}

impl Drop for TieredPin {
    fn drop(&mut self) {
        let mut st = self.store.lock_state();
        if let Some(n) = st.pinned.get_mut(&self.session) {
            *n -= 1;
            if *n == 0 {
                st.pinned.remove(&self.session);
            }
        }
    }
}

/// Clears the busy mark even when a fold errors out mid-protocol.
struct BusyGuard<'a> {
    store: &'a TieredStore,
    session: u64,
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.store.lock_state();
        st.busy.remove(&self.session);
        drop(st);
        self.store.unpinned.notify_all();
    }
}

impl TieredStore {
    /// Opens (or initialises) the segment tier in `dir`.
    ///
    /// Recovery rules: every `*.tmp` is a landing that never renamed and is
    /// deleted. A readable manifest is authoritative — segment files
    /// it does not list are orphans from a crashed fold (their rounds still
    /// live in the un-retired WAL) and are deleted. A missing or corrupt
    /// manifest falls back to adopting every parseable `*.avseg` in the
    /// directory; overlap with surviving WALs is idempotent by
    /// construction.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a manifest listing a missing or corrupt
    /// segment file is an error (that data may be nowhere else).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut on_disk: BTreeSet<String> = BTreeSet::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                // A landing died mid-write; the rename never happened.
                let _ = std::fs::remove_file(entry.path());
            } else if name.ends_with(".avseg") {
                on_disk.insert(name);
            }
        }
        let mut state = State {
            next_seq: 1,
            ..State::default()
        };
        match std::fs::read_to_string(dir.join("MANIFEST")) {
            Ok(text) if parse_manifest(&text, &mut state, &dir).is_ok() => {
                let listed: BTreeSet<String> = state
                    .segments
                    .iter()
                    .map(|s| segment_file_name(s.seq, s.gen))
                    .collect();
                for name in on_disk.difference(&listed) {
                    let _ = std::fs::remove_file(dir.join(name));
                }
            }
            _ => {
                // No (or unreadable) manifest: adopt what parses, drop what
                // does not, and re-establish the manifest.
                state.segments.clear();
                state.forget.clear();
                for name in &on_disk {
                    let Some((seq, gen)) = parse_segment_name(name) else {
                        continue;
                    };
                    match SegmentFile::open(dir.join(name)) {
                        Ok(file) => {
                            state.segments.push(LiveSegment {
                                seq,
                                gen,
                                file: Arc::new(file),
                            });
                            state.next_seq = state.next_seq.max(seq + 1);
                        }
                        Err(_) => {
                            let _ = std::fs::remove_file(dir.join(name));
                        }
                    }
                }
                state.segments.sort_by_key(|s| s.seq);
                write_manifest(&dir, &state)?;
            }
        }
        Ok(TieredStore {
            dir,
            state: Mutex::new(state),
            unpinned: Condvar::new(),
        })
    }

    /// The directory this tier lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pins `session` against folding; waits out an in-flight fold first.
    pub fn pin(self: &Arc<Self>, session: u64) -> TieredPin {
        let mut st = self.lock_state();
        while st.busy.contains(&session) {
            st = self.unpinned.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        *st.pinned.entry(session).or_insert(0) += 1;
        TieredPin {
            store: Arc::clone(self),
            session,
        }
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.lock_state().segments.len()
    }

    /// Lifetime tier counters.
    pub fn stats(&self) -> TierStats {
        self.lock_state().stats
    }

    /// Makes all currently folded rows for `session` invisible (and
    /// reclaimable at the next merge). Called when a session id is re-created
    /// from scratch so ancient rows cannot bleed into the new life.
    ///
    /// # Errors
    ///
    /// Propagates manifest write errors.
    pub fn forget_session(&self, session: u64) -> io::Result<()> {
        let mut st = self.lock_state();
        let floor = st.next_seq;
        let covers_any = st
            .segments
            .iter()
            .any(|s| s.file.blocks_for(session).next().is_some());
        if !covers_any {
            return Ok(());
        }
        st.forget.insert(session, floor);
        write_manifest(&self.dir, &st)
    }

    /// Visible `(seq, Arc<SegmentFile>)` pairs for `session`, ascending seq.
    fn visible_segments(&self, session: u64) -> Vec<(u64, Arc<SegmentFile>)> {
        let st = self.lock_state();
        let floor = st.forget.get(&session).copied().unwrap_or(0);
        st.segments
            .iter()
            .filter(|s| s.seq >= floor)
            .map(|s| (s.seq, Arc::clone(&s.file)))
            .collect()
    }

    /// Moves the segment with `seq` out of the live set and into the
    /// `quarantine/` subdirectory, republishing the manifest without it.
    /// Idempotent: a racing reader that already quarantined it is a no-op.
    /// The rounds a quarantined segment held stay servable from whichever
    /// WAL or later segment also covers them.
    fn quarantine_segment(&self, seq: u64) -> io::Result<()> {
        let mut st = self.lock_state();
        let Some(pos) = st.segments.iter().position(|s| s.seq == seq) else {
            return Ok(());
        };
        let seg = st.segments.remove(pos);
        let name = segment_file_name(seg.seq, seg.gen);
        let qdir = self.dir.join("quarantine");
        std::fs::create_dir_all(&qdir)?;
        // Best-effort rename: even if it fails the manifest no longer lists
        // the segment, so it is an orphan the next open sweeps.
        let _ = std::fs::rename(self.dir.join(&name), qdir.join(&name));
        st.stats.quarantined += 1;
        write_manifest(&self.dir, &st)
    }

    /// Reads one block; a CRC/decode failure quarantines the whole segment
    /// and returns `Ok(None)` so callers keep serving from the surviving
    /// tiers. Genuine I/O errors still propagate.
    fn read_block_checked(
        &self,
        seq: u64,
        file: &SegmentFile,
        entry: &BlockEntry,
    ) -> io::Result<Option<DecodedBlock>> {
        match file.read_block(entry) {
            Ok(block) => Ok(Some(block)),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                self.quarantine_segment(seq)?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Visits every durable row of `session` in apply order — each visible
    /// segment block overlapping `rounds`, oldest first, then (with `wal`)
    /// the stamped rows of its WAL — and returns how many blocks it read.
    /// The one walk behind every read below.
    fn visit_rows(
        &self,
        session: u64,
        rounds: &std::ops::RangeInclusive<u64>,
        wal: bool,
        mut visit: impl FnMut(&[HistoryRow], &[VerdictRecord]),
    ) -> io::Result<usize> {
        let mut blocks = 0;
        for (seq, file) in &self.visible_segments(session) {
            let entries = file
                .blocks_for(session)
                .filter(|e| e.first_round <= *rounds.end() && e.last_round >= *rounds.start());
            for e in entries {
                let Some(block) = self.read_block_checked(*seq, file, e)? else {
                    break;
                };
                blocks += 1;
                visit(&block.history, &block.verdicts);
            }
        }
        if wal {
            if let Some(scan) = scan_wal(&session_wal_path(&self.dir, session))? {
                visit(scan.stamped_history(), scan.stamped_verdicts());
            }
        }
        Ok(blocks)
    }

    /// What the segment tier holds for `session`; `Ok(None)` when nothing.
    ///
    /// # Errors
    ///
    /// Propagates block read/decode errors.
    pub fn session_summary(&self, session: u64) -> io::Result<Option<SessionSummary>> {
        let mut summary = SessionSummary::default();
        let mut latest = BTreeMap::new();
        summary.blocks =
            self.visit_rows(session, &(0..=u64::MAX), false, |history, verdicts| {
                for row in history {
                    summary.folded_through = summary.folded_through.max(Some(row.round));
                    row.apply_to(&mut latest);
                }
                let last = verdicts.iter().map(|v| v.round).max();
                summary.max_verdict_round = summary.max_verdict_round.max(last);
            })?;
        summary.latest = latest.into_iter().collect();
        Ok((summary.blocks > 0).then_some(summary))
    }

    /// Reconstructs the exact [`DenseHistory`] of `session` as of `round` —
    /// segment rows first, then WAL rows whose commit stamp is within
    /// range. `Ok(None)` when neither tier has a row that old.
    ///
    /// # Errors
    ///
    /// Propagates I/O and decode errors.
    pub fn history_at(&self, session: u64, round: u64) -> io::Result<Option<DenseHistory>> {
        let mut latest = BTreeMap::new();
        let mut any = false;
        self.visit_rows(session, &(0..=round), true, |history, _| {
            for row in history.iter().filter(|r| r.round <= round) {
                any = true;
                row.apply_to(&mut latest);
            }
        })?;
        Ok(any.then(|| DenseHistory::with_records(latest)))
    }

    /// Verdict rows of `session` within `rounds`, merged across both tiers
    /// and deduplicated by round (latest tier wins).
    ///
    /// # Errors
    ///
    /// Propagates I/O and decode errors.
    pub fn verdicts_in(
        &self,
        session: u64,
        rounds: std::ops::RangeInclusive<u64>,
    ) -> io::Result<Vec<VerdictRecord>> {
        let mut by_round = BTreeMap::new();
        self.visit_rows(session, &rounds, true, |_, verdicts| {
            let hits = verdicts.iter().filter(|v| rounds.contains(&v.round));
            by_round.extend(hits.map(|v| (v.round, *v)));
        })?;
        Ok(by_round.into_values().collect())
    }

    /// Fleet-level scan: every `(session, round, module)` whose trust moved
    /// *down* in `rounds` — the modules that were outvoted. A filter on the
    /// direction column of the blocks overlapping the range and of the
    /// committed WAL tails; nothing is replayed.
    ///
    /// # Errors
    ///
    /// Propagates I/O and decode errors.
    pub fn outvoted_in(
        &self,
        rounds: std::ops::RangeInclusive<u64>,
    ) -> io::Result<Vec<OutvotedRow>> {
        let mut sessions: BTreeSet<u64> = list_session_wals(&self.dir)?.into_iter().collect();
        for s in &self.lock_state().segments {
            sessions.extend(s.file.entries().iter().map(|e| e.session));
        }
        // Keyed, because the tiers may overlap after an interrupted fold.
        let mut hits = BTreeMap::new();
        for session in sessions {
            self.visit_rows(session, &rounds, true, |history, _| {
                let down = history
                    .iter()
                    .filter(|r| r.dir == Direction::Down && rounds.contains(&r.round));
                hits.extend(down.map(|r| ((session, r.round, r.module), r.trust)));
            })?;
        }
        Ok(hits
            .into_iter()
            .map(|((session, round, module), trust)| OutvotedRow {
                session,
                round,
                module,
                trust,
            })
            .collect())
    }

    /// Folds every cold (unpinned) session WAL, then merges generations.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from any step (the protocol leaves every
    /// intermediate state recoverable).
    pub fn compact(&self) -> io::Result<CompactionReport> {
        let mut report = CompactionReport::default();
        for session in list_session_wals(&self.dir)? {
            if let Some(fold) = self.fold_session_with(session, CrashPoint::None)? {
                report.folded_sessions += fold.folded_sessions;
                report.history_rows += fold.history_rows;
                report.verdict_rows += fold.verdict_rows;
                report.bytes_written += fold.bytes_written;
                report.segments_written += fold.segments_written;
                report.wals_retired += fold.wals_retired;
            }
        }
        loop {
            let merged = self.merge_generation()?;
            if merged == 0 {
                break;
            }
            report.merges += 1;
        }
        Ok(report)
    }

    /// Folds one session's WAL into a fresh generation-0 segment, with an
    /// optional injected crash. `Ok(None)` when the session is pinned, busy,
    /// or has nothing committed to fold.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; an injected crash surfaces as
    /// [`io::ErrorKind::Interrupted`].
    pub fn fold_session_with(
        &self,
        session: u64,
        crash: CrashPoint,
    ) -> io::Result<Option<CompactionReport>> {
        let seq = {
            let mut st = self.lock_state();
            if st.pinned.contains_key(&session) || st.busy.contains(&session) {
                return Ok(None);
            }
            st.busy.insert(session);
            // Reserve the sequence number now so concurrent folds can never
            // collide on a file name; a fold that ends up writing nothing
            // simply burns it.
            let seq = st.next_seq;
            st.next_seq += 1;
            seq
        };
        let _busy = BusyGuard {
            store: self,
            session,
        };

        let wal_path = session_wal_path(&self.dir, session);
        let Some(scan) = scan_wal(&wal_path)? else {
            return Ok(None);
        };
        // What earlier folds already hold. A rotten segment is quarantined
        // and skipped; its rounds then fold again from the WAL.
        let folded = self.session_summary(session)?.unwrap_or_default();
        let fresh = |round: u64, floor: Option<u64>| floor.is_none_or(|f| round > f);
        let rows = SessionRows {
            session,
            history: scan
                .stamped_history()
                .iter()
                .filter(|r| fresh(r.round, folded.folded_through))
                .copied()
                .collect(),
            verdicts: scan
                .stamped_verdicts()
                .iter()
                .filter(|v| fresh(v.round, folded.max_verdict_round))
                .copied()
                .collect(),
        };
        let fully_committed = scan.fully_committed();

        let mut report = CompactionReport::default();
        if rows.history.is_empty() && rows.verdicts.is_empty() {
            // Everything already folded. Retire the WAL if it holds nothing
            // beyond its last commit.
            if fully_committed && scan.round.is_some() {
                self.retire(&wal_path, &scan, &mut report)?;
                return Ok(Some(report));
            }
            return Ok(None);
        }

        // Step 1: durable segment file.
        let path = self.dir.join(segment_file_name(seq, 0));
        let meta = write_segment(&path, &[rows])?;
        if crash == CrashPoint::AfterSegmentWrite {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected crash after segment write",
            ));
        }

        // Step 2: manifest commit (the publish point).
        {
            let mut st = self.lock_state();
            st.next_seq = st.next_seq.max(seq + 1);
            st.segments.push(LiveSegment {
                seq,
                gen: 0,
                file: Arc::new(SegmentFile::open(&path)?),
            });
            st.segments.sort_by_key(|s| s.seq);
            st.stats.compactions += 1;
            st.stats.history_rows += meta.history_rows;
            st.stats.verdict_rows += meta.verdict_rows;
            st.stats.bytes_written += meta.bytes;
            write_manifest(&self.dir, &st)?;
        }
        report.folded_sessions = 1;
        report.history_rows = meta.history_rows;
        report.verdict_rows = meta.verdict_rows;
        report.bytes_written = meta.bytes;
        report.segments_written = 1;
        if crash == CrashPoint::AfterManifest {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected crash after manifest commit",
            ));
        }

        // Step 3: retire the WAL — only when every record is stamped and
        // folded; an uncommitted tail keeps the WAL (the overlap with the
        // new segment is idempotent).
        if fully_committed {
            self.retire(&wal_path, &scan, &mut report)?;
        }
        Ok(Some(report))
    }

    /// Retires a fully folded WAL: cut to its head when it has one (the
    /// owner's meta outlives the rows), deleted otherwise.
    fn retire(&self, path: &Path, scan: &WalScan, report: &mut CompactionReport) -> io::Result<()> {
        match &scan.meta {
            Some(meta) => land_log(path, &meta_image(meta), Durability::Fsync)?,
            None => std::fs::remove_file(path)?,
        }
        report.wals_retired = 1;
        self.lock_state().stats.wals_retired += 1;
        Ok(())
    }

    /// Merges [`MERGE_FANIN`] same-generation segments into one of the next
    /// generation, physically dropping forgotten rows. Returns how many
    /// source segments were merged (0 = nothing to do).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; sources are deleted only after the manifest
    /// lists the replacement.
    fn merge_generation(&self) -> io::Result<usize> {
        let (seq, sources, forget) = {
            let mut st = self.lock_state();
            let mut by_gen: BTreeMap<u32, Vec<LiveSegment>> = BTreeMap::new();
            for s in &st.segments {
                by_gen.entry(s.gen).or_default().push(s.clone());
            }
            let Some((_, mut group)) = by_gen
                .into_iter()
                .find(|(_, group)| group.len() >= MERGE_FANIN)
            else {
                return Ok(0);
            };
            group.sort_by_key(|s| s.seq);
            group.truncate(MERGE_FANIN);
            let seq = st.next_seq;
            st.next_seq += 1;
            (seq, group, st.forget.clone())
        };
        let gen = sources[0].gen + 1;
        // Gather rows, later seq winning on (round, module)/(round) keys;
        // forgotten rows are dropped here for good.
        let mut hist: BTreeMap<(u64, u64, u32), HistoryRow> = BTreeMap::new();
        let mut verd: BTreeMap<(u64, u64), VerdictRecord> = BTreeMap::new();
        for src in &sources {
            for e in src.file.entries().to_vec() {
                if forget.get(&e.session).copied().unwrap_or(0) > src.seq {
                    continue;
                }
                // A rotten source aborts this merge pass (nothing written
                // yet); the bad segment leaves the live set so the next
                // pass merges only healthy sources.
                let Some(block) = self.read_block_checked(src.seq, &src.file, &e)? else {
                    return Ok(0);
                };
                for row in block.history {
                    hist.insert((block.session, row.round, row.module), row);
                }
                for v in block.verdicts {
                    verd.insert((block.session, v.round), v);
                }
            }
        }
        let mut sessions: BTreeMap<u64, SessionRows> = BTreeMap::new();
        for ((session, ..), row) in hist {
            sessions
                .entry(session)
                .or_insert_with(|| SessionRows {
                    session,
                    ..Default::default()
                })
                .history
                .push(row);
        }
        for ((session, _), v) in verd {
            sessions
                .entry(session)
                .or_insert_with(|| SessionRows {
                    session,
                    ..Default::default()
                })
                .verdicts
                .push(v);
        }
        let rows: Vec<SessionRows> = sessions.into_values().collect();
        let path = self.dir.join(segment_file_name(seq, gen));
        let meta = write_segment(&path, &rows)?;
        let old_paths: Vec<PathBuf> = sources
            .iter()
            .map(|s| self.dir.join(segment_file_name(s.seq, s.gen)))
            .collect();
        {
            let mut st = self.lock_state();
            let drop_seqs: BTreeSet<u64> = sources.iter().map(|s| s.seq).collect();
            st.segments.retain(|s| !drop_seqs.contains(&s.seq));
            st.segments.push(LiveSegment {
                seq,
                gen,
                file: Arc::new(SegmentFile::open(&path)?),
            });
            st.segments.sort_by_key(|s| s.seq);
            // A forget floor matters only while some live segment predates
            // it.
            let min_live = st.segments.iter().map(|s| s.seq).min().unwrap_or(u64::MAX);
            st.forget.retain(|_, &mut floor| floor > min_live);
            st.stats.merges += 1;
            st.stats.bytes_written += meta.bytes;
            write_manifest(&self.dir, &st)?;
        }
        for p in old_paths {
            let _ = std::fs::remove_file(p);
        }
        Ok(sources.len())
    }

    /// JSON view of the tier for the `/segments` admin route.
    pub fn segments_json(&self) -> String {
        let st = self.lock_state();
        let mut out = String::from("{\"segments\":[");
        for (i, s) in st.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let sessions: BTreeSet<u64> = s.file.entries().iter().map(|e| e.session).collect();
            let rows: u64 = s.file.entries().iter().map(|e| e.n_hist).sum();
            let verdicts: u64 = s.file.entries().iter().map(|e| e.n_verd).sum();
            out.push_str(&format!(
                "{{\"seq\":{},\"gen\":{},\"bytes\":{},\"blocks\":{},\"sessions\":{},\"history_rows\":{},\"verdict_rows\":{}}}",
                s.seq,
                s.gen,
                s.file.len_bytes(),
                s.file.entries().len(),
                sessions.len(),
                rows,
                verdicts,
            ));
        }
        out.push_str(&format!(
            "],\"stats\":{{\"compactions\":{},\"merges\":{},\"history_rows\":{},\"verdict_rows\":{},\"bytes_written\":{},\"wals_retired\":{},\"quarantined\":{}}},\"pinned_sessions\":{},\"forgotten_sessions\":{}}}",
            st.stats.compactions,
            st.stats.merges,
            st.stats.history_rows,
            st.stats.verdict_rows,
            st.stats.bytes_written,
            st.stats.wals_retired,
            st.stats.quarantined,
            st.pinned.len(),
            st.forget.len(),
        ));
        out
    }
}

/// The ids of every `session-<id>.wal` in `dir`, ascending.
///
/// # Errors
///
/// Propagates the directory read's I/O errors.
pub fn list_session_wals(dir: &Path) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(hex) = name
            .strip_prefix("session-")
            .and_then(|n| n.strip_suffix(".wal"))
        {
            if let Ok(session) = u64::from_str_radix(hex, 16) {
                out.push(session);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

fn write_manifest(dir: &Path, state: &State) -> io::Result<()> {
    let mut text = String::from("avoc-manifest v1\n");
    text.push_str(&format!("seq={}\n", state.next_seq));
    for (&session, &floor) in &state.forget {
        text.push_str(&format!("forget {session:016x} {floor}\n"));
    }
    for s in &state.segments {
        text.push_str(&format!(
            "segment {} {} {}\n",
            s.seq,
            s.gen,
            segment_file_name(s.seq, s.gen)
        ));
    }
    land(
        Site::ManifestWrite,
        &dir.join("MANIFEST"),
        text.as_bytes(),
        Some(Site::ManifestWrite),
    )
}

fn parse_manifest(text: &str, state: &mut State, dir: &Path) -> io::Result<()> {
    let mut lines = text.lines();
    if lines.next() != Some("avoc-manifest v1") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad manifest header",
        ));
    }
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("manifest: {what}"));
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(seq) = line.strip_prefix("seq=") {
            state.next_seq = seq.parse().map_err(|_| bad("seq"))?;
        } else if let Some(rest) = line.strip_prefix("forget ") {
            let (session, floor) = rest.split_once(' ').ok_or_else(|| bad("forget"))?;
            let session = u64::from_str_radix(session, 16).map_err(|_| bad("forget session"))?;
            let floor = floor.parse().map_err(|_| bad("forget floor"))?;
            state.forget.insert(session, floor);
        } else if let Some(rest) = line.strip_prefix("segment ") {
            let mut parts = rest.split_whitespace();
            let seq: u64 = parts
                .next()
                .ok_or_else(|| bad("segment seq"))?
                .parse()
                .map_err(|_| bad("segment seq"))?;
            let gen: u32 = parts
                .next()
                .ok_or_else(|| bad("segment gen"))?
                .parse()
                .map_err(|_| bad("segment gen"))?;
            let name = parts.next().ok_or_else(|| bad("segment name"))?;
            let file = SegmentFile::open(dir.join(name))?;
            state.segments.push(LiveSegment {
                seq,
                gen,
                file: Arc::new(file),
            });
        }
        // Unknown lines are tolerated for forward compatibility.
    }
    state.segments.sort_by_key(|s| s.seq);
    if let Some(max) = state.segments.iter().map(|s| s.seq).max() {
        state.next_seq = state.next_seq.max(max + 1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{Durability, FileHistory};
    use avoc_core::history::HistoryStore;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avoc-tiered-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a session WAL of `rounds` committed rounds, each touching
    /// `modules` modules, returning the final in-memory state.
    fn drive_session(dir: &Path, session: u64, rounds: u64, modules: u32) -> Vec<(ModuleId, f64)> {
        let mut wal =
            FileHistory::open_with(session_wal_path(dir, session), Durability::Flush).unwrap();
        for r in 0..rounds {
            let mut batch = Vec::new();
            for m in 0..modules {
                // Deterministic drift, different per module, down for the
                // last module so the outvoted scan has hits.
                let v = if m + 1 == modules {
                    1.0 - (r as f64 + 1.0) * 0.01
                } else {
                    (0.5 + (r as f64 * 0.07 + m as f64).sin() * 0.4).clamp(0.0, 1.0)
                };
                batch.push((ModuleId::new(m), v));
            }
            wal.set_batch(&batch);
            wal.append_markers(
                &[VerdictRecord {
                    round: r,
                    value: Some(18.0 + r as f64 * 0.125),
                    voted: true,
                }],
                Some(r),
            );
        }
        wal.snapshot()
    }

    #[test]
    fn fold_then_history_at_matches_wal_replay() {
        let dir = tmp_dir("fold-roundtrip");
        let expect = drive_session(&dir, 7, 40, 4);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        let report = store.compact().unwrap();
        assert_eq!(report.folded_sessions, 1);
        assert_eq!(report.wals_retired, 1);
        assert!(!session_wal_path(&dir, 7).exists());
        // Latest state from segments alone is bit-identical to what the WAL
        // held.
        let summary = store.session_summary(7).unwrap().unwrap();
        assert_eq!(summary.folded_through, Some(39));
        assert_eq!(summary.latest.len(), expect.len());
        for (a, b) in summary.latest.iter().zip(&expect) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // And history_at the final round agrees.
        let h = store.history_at(7, 39).unwrap().unwrap();
        let snap = h.snapshot();
        for (a, b) in snap.iter().zip(&expect) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // Verdicts are all present.
        let v = store.verdicts_in(7, 0..=39).unwrap();
        assert_eq!(v.len(), 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_at_sees_intermediate_rounds() {
        let dir = tmp_dir("time-travel");
        drive_session(&dir, 1, 20, 3);
        // Capture expected state at round 5 by replaying the WAL prefix.
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        let before = store.history_at(1, 5).unwrap().unwrap().snapshot();
        store.compact().unwrap();
        let after = store.history_at(1, 5).unwrap().unwrap().snapshot();
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_after_segment_write_recovers_without_duplication() {
        let dir = tmp_dir("crash-seg");
        drive_session(&dir, 3, 12, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        let err = store
            .fold_session_with(3, CrashPoint::AfterSegmentWrite)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        // WAL intact, orphan segment on disk, manifest unaware.
        assert!(session_wal_path(&dir, 3).exists());
        drop(store);
        // "Restart": the orphan is swept, then a clean fold succeeds.
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        assert_eq!(store.segment_count(), 0);
        let report = store.compact().unwrap();
        assert_eq!(report.folded_sessions, 1);
        let v = store.verdicts_in(3, 0..=11).unwrap();
        assert_eq!(v.len(), 12, "no round lost, none duplicated");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_after_manifest_keeps_overlap_idempotent() {
        let dir = tmp_dir("crash-manifest");
        let expect = drive_session(&dir, 9, 15, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        let err = store
            .fold_session_with(9, CrashPoint::AfterManifest)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        // Both tiers overlap now.
        assert!(session_wal_path(&dir, 9).exists());
        drop(store);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        assert_eq!(store.segment_count(), 1);
        // Re-compaction retires the WAL without writing a second segment.
        let report = store.compact().unwrap();
        assert_eq!(report.segments_written, 0);
        assert_eq!(report.wals_retired, 1);
        let summary = store.session_summary(9).unwrap().unwrap();
        for (a, b) in summary.latest.iter().zip(&expect) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let v = store.verdicts_in(9, 0..=14).unwrap();
        assert_eq!(v.len(), 15);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_collapses_a_generation() {
        let dir = tmp_dir("merge");
        for s in 0..MERGE_FANIN as u64 {
            drive_session(&dir, s, 10, 3);
        }
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        // Fold each session separately → MERGE_FANIN gen-0 segments.
        for s in 0..MERGE_FANIN as u64 {
            store.fold_session_with(s, CrashPoint::None).unwrap();
        }
        assert_eq!(store.segment_count(), MERGE_FANIN);
        assert_eq!(store.merge_generation().unwrap(), MERGE_FANIN);
        assert_eq!(store.segment_count(), 1);
        // Data survives the merge for every session.
        for s in 0..MERGE_FANIN as u64 {
            let summary = store.session_summary(s).unwrap().unwrap();
            assert_eq!(summary.folded_through, Some(9));
            assert_eq!(store.verdicts_in(s, 0..=9).unwrap().len(), 10);
        }
        // Reopen parses the merged manifest.
        drop(store);
        let store = TieredStore::open(&dir).unwrap();
        assert_eq!(store.segment_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forget_hides_previous_life_and_merge_drops_it() {
        let dir = tmp_dir("forget");
        drive_session(&dir, 5, 10, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        store.compact().unwrap();
        assert!(store.session_summary(5).unwrap().is_some());
        store.forget_session(5).unwrap();
        assert!(store.session_summary(5).unwrap().is_none());
        assert!(store.history_at(5, 9).unwrap().is_none());
        // Survives reopen via the manifest.
        drop(store);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        assert!(store.session_summary(5).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_sessions_are_skipped() {
        let dir = tmp_dir("pin");
        drive_session(&dir, 2, 8, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        let pin = store.pin(2);
        assert!(store
            .fold_session_with(2, CrashPoint::None)
            .unwrap()
            .is_none());
        drop(pin);
        assert!(store
            .fold_session_with(2, CrashPoint::None)
            .unwrap()
            .is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_tail_keeps_the_wal() {
        let dir = tmp_dir("tail");
        drive_session(&dir, 4, 6, 3);
        // Append an unstamped set — an in-flight checkpoint.
        {
            let mut wal =
                FileHistory::open_with(session_wal_path(&dir, 4), Durability::Flush).unwrap();
            wal.set(ModuleId::new(0), 0.123);
        }
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        let report = store.compact().unwrap();
        assert_eq!(report.folded_sessions, 1);
        assert_eq!(report.wals_retired, 0);
        assert!(session_wal_path(&dir, 4).exists());
        // The folded tier stops at the committed rounds.
        let summary = store.session_summary(4).unwrap().unwrap();
        assert_eq!(summary.folded_through, Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_is_quarantined_and_reads_survive() {
        let dir = tmp_dir("quarantine");
        drive_session(&dir, 21, 10, 3);
        let expect22 = drive_session(&dir, 22, 10, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        store.fold_session_with(21, CrashPoint::None).unwrap();
        store.fold_session_with(22, CrashPoint::None).unwrap();
        assert_eq!(store.segment_count(), 2);
        // Rot a byte inside the first block body of session 21's segment:
        // the footer still parses, the block CRC does not.
        let seg_path = dir.join("seg-00000001-g0.avseg");
        let mut bytes = std::fs::read(&seg_path).unwrap();
        bytes[crate::segment::HEADER_MAGIC.len() + 4] ^= 0xff;
        std::fs::write(&seg_path, &bytes).unwrap();
        // The read does not abort — the segment is quarantined and the
        // query answers from what survives (nothing for 21, its WAL was
        // retired at fold time).
        assert!(store.session_summary(21).unwrap().is_none());
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.stats().quarantined, 1);
        assert!(dir
            .join("quarantine")
            .join("seg-00000001-g0.avseg")
            .exists());
        // The sibling session is untouched.
        let summary = store.session_summary(22).unwrap().unwrap();
        for (a, b) in summary.latest.iter().zip(&expect22) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        // The manifest no longer lists the quarantined segment.
        drop(store);
        let store = TieredStore::open(&dir).unwrap();
        assert_eq!(store.segment_count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_enospc_fails_the_fold_and_the_wal_survives() {
        let _g = crate::fault_gate();
        let dir = tmp_dir("fold-enospc");
        let expect = drive_session(&dir, 31, 8, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        sysio::fault::install(
            sysio::fault::Plan::new(1)
                .rule(Site::SegmentWrite, sysio::fault::Kind::Enospc, 1, u64::MAX)
                .thread_only(),
        );
        let err = store.fold_session_with(31, CrashPoint::None).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        sysio::fault::clear();
        // The WAL is intact, so a fold on the healed disk is complete.
        assert!(session_wal_path(&dir, 31).exists());
        let report = store.compact().unwrap();
        assert_eq!(report.folded_sessions, 1);
        let summary = store.session_summary(31).unwrap().unwrap();
        for (a, b) in summary.latest.iter().zip(&expect) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_manifest_failure_leaves_both_tiers_consistent() {
        let _g = crate::fault_gate();
        let dir = tmp_dir("manifest-enospc");
        drive_session(&dir, 41, 8, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        sysio::fault::install(
            sysio::fault::Plan::new(1)
                .rule(Site::ManifestWrite, sysio::fault::Kind::Enospc, 1, u64::MAX)
                .thread_only(),
        );
        assert!(store.fold_session_with(41, CrashPoint::None).is_err());
        sysio::fault::clear();
        // The WAL was not retired; recompaction converges without losing
        // or duplicating a round.
        assert!(session_wal_path(&dir, 41).exists());
        store.compact().unwrap();
        assert_eq!(store.verdicts_in(41, 0..=7).unwrap().len(), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_every_unrenamed_landing() {
        let dir = tmp_dir("sweep");
        let planted = [
            dir.join("session-0000000000000001.wal.tmp"),
            dir.join("MANIFEST.tmp"),
            dir.join("seg-00000001-g0.avseg.tmp"),
        ];
        for path in &planted {
            std::fs::write(path, b"half a landing").unwrap();
        }
        TieredStore::open(&dir).unwrap();
        for path in &planted {
            assert!(!path.exists(), "{} survived the open", path.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retiring_a_log_with_a_head_keeps_the_head() {
        let dir = tmp_dir("retire-head");
        let path = session_wal_path(&dir, 6);
        land_log(&path, &meta_image(b"owner"), Durability::Flush).unwrap();
        let expect = drive_session(&dir, 6, 10, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        assert_eq!(store.compact().unwrap().wals_retired, 1);
        assert_eq!(crate::read_log_meta(&path).as_deref(), Some(&b"owner"[..]));
        let wal = FileHistory::open(&path).unwrap();
        assert_eq!(wal.committed_round(), None, "the rows left with the fold");
        assert!(wal.snapshot().is_empty());
        // A head-only log is settled: the next pass has nothing to do.
        assert!(store.compact().unwrap().is_empty());
        let summary = store.session_summary(6).unwrap().unwrap();
        assert_eq!(summary.latest, expect);
        assert_eq!(store.verdicts_in(6, 0..=9).unwrap().len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outvoted_scan_spans_tiers() {
        let dir = tmp_dir("outvoted");
        // Session 11 folded; session 12 stays WAL-only.
        drive_session(&dir, 11, 10, 3);
        drive_session(&dir, 12, 10, 3);
        let store = Arc::new(TieredStore::open(&dir).unwrap());
        store.fold_session_with(11, CrashPoint::None).unwrap();
        let rows = store.outvoted_in(2..=4).unwrap();
        // Module 2 of each session trends monotonically down every round.
        for s in [11u64, 12] {
            for r in 2..=4u64 {
                assert!(
                    rows.iter()
                        .any(|o| o.session == s && o.round == r && o.module == 2),
                    "missing outvoted hit session {s} round {r}"
                );
            }
        }
        // No hits outside the range.
        assert!(rows.iter().all(|o| (2..=4).contains(&o.round)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
