//! Durable session state: a per-session log plus a write-once sidecar.
//!
//! With persistence enabled, every session owns two files in the state
//! directory:
//!
//! * `session-<id:016x>.wal` — an [`avoc_store::FileHistory`] append-only
//!   log. A checkpoint is **one record** in it: the trust rows that changed,
//!   the verdict rows not yet logged, and the round they are as of, in one
//!   write + flush (+ fsync). That record is the only commit point.
//! * `session-<id:016x>.meta` — a small sidecar carrying what the log does
//!   not: resume token, module count, governing spec and owning node. It is
//!   written when the session is created and again only when ownership
//!   changes (export stamps the target, import adopts) — never per round.
//!
//! Recovery derives the rest from the rows themselves: `high_round` is the
//! highest stamped round in the log or the segment tier, and the result
//! ring is the verdict rows of the last [`RESULT_RING`] rounds across both.
//! So the rewrite that heals a sick log or slims one for shipping carries
//! the ring's verdict rows with it. The sidecar is hand-rolled `key=value`
//! lines (not JSON) so `u64` resume tokens survive byte-exact — the
//! vendored JSON shim may route integers through `f64`.
//!
//! Corruption anywhere — unreadable sidecar, mid-file log damage, a log in
//! another format — makes [`SessionStore::load`] return `None`, and the
//! caller falls back to a fresh session whose AVOC engine re-bootstraps
//! from live data, exactly as if persistence were off. A torn log *tail*
//! (the expected artefact of a crash mid-append) is tolerated and truncated
//! by `FileHistory` itself.

use avoc_core::history::HistoryStore;
use avoc_core::ModuleId;
use avoc_net::SpecSource;
use avoc_store::{
    session_wal_path, Durability, FileHistory, TieredPin, TieredStore, VerdictRecord,
};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use sysio::fault::Site;
use sysio::fio;

/// Crash-safety configuration for [`crate::VoterService`].
#[derive(Debug, Clone)]
pub struct Persistence {
    /// Where session WALs and metadata live. `None` disables persistence
    /// entirely (the default): sessions are memory-only and a restart
    /// re-bootstraps from live data.
    pub state_dir: Option<PathBuf>,
    /// `true` fsyncs every WAL append ([`Durability::Fsync`]); the default
    /// flushes to the OS and lets the kernel schedule the write — a daemon
    /// crash loses nothing, a machine crash may lose the tail (which
    /// recovery then truncates).
    pub fsync: bool,
    /// Checkpoint cadence in fused rounds. `1` (the default) checkpoints
    /// after every round, making a hard kill bit-identically recoverable;
    /// larger values amortise the log append and accept losing up to
    /// `checkpoint_every - 1` rounds of history on a crash.
    pub checkpoint_every: u64,
    /// Background compaction interval in milliseconds. `0` (the default)
    /// disables the compactor thread; the segment tier still opens, so
    /// previously folded segments remain readable and
    /// `VoterService::compact_now` works on demand.
    pub compact_interval_ms: u64,
    /// This daemon's cluster node id, stamped into every meta sidecar it
    /// writes. After a migration the source's leftover sidecar names the
    /// *target* node, so boot recovery skips it instead of double-owning
    /// the session. `0` (the default) is a valid id for single-node
    /// deployments.
    pub node_id: u64,
    /// Shared inter-node secret gating the cluster verbs (`ExportSession` /
    /// `SessionState` import). Exports ship the session's resume token, so
    /// a frame whose `auth` field does not match this secret is refused.
    /// `None` (the default) disables the cluster verbs entirely — a
    /// standalone daemon exposes no migration surface.
    pub cluster_secret: Option<u64>,
}

impl Default for Persistence {
    fn default() -> Self {
        Persistence {
            state_dir: None,
            fsync: false,
            checkpoint_every: 1,
            compact_interval_ms: 0,
            node_id: 0,
            cluster_secret: None,
        }
    }
}

impl Persistence {
    pub(crate) fn durability(&self) -> Durability {
        if self.fsync {
            Durability::Fsync
        } else {
            Durability::Flush
        }
    }
}

/// One re-emittable session result: `(round, value, voted)`.
pub(crate) type StoredResult = (u64, Option<f64>, bool);

/// How many recent rounds' results a session retains for re-emission on
/// resume. A client more than this many rounds behind its own acks loses
/// the overwritten tail (counted via `results_dropped` at emission time, as
/// any slow tenant's overflow is).
pub(crate) const RESULT_RING: usize = 256;

fn verdict_rows(results: &VecDeque<StoredResult>) -> impl Iterator<Item = VerdictRecord> + '_ {
    results.iter().map(|&(round, value, voted)| VerdictRecord {
        round,
        value,
        voted,
    })
}

/// The decoded contents of a session's sidecar.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MetaState {
    pub(crate) token: u64,
    pub(crate) modules: u32,
    pub(crate) resumable: bool,
    pub(crate) spec: SpecSource,
    /// The cluster node that owns the session.
    pub(crate) node: u64,
}

impl MetaState {
    /// Decodes a sidecar; `None` when it is not UTF-8 or fails to parse.
    pub(crate) fn parse(bytes: &[u8]) -> Option<MetaState> {
        let mut lines = std::str::from_utf8(bytes).ok()?.lines();
        if lines.next()? != "avoc-session-meta v2" {
            return None;
        }
        let token = lines.next()?.strip_prefix("token=")?.parse().ok()?;
        let modules = lines.next()?.strip_prefix("modules=")?.parse().ok()?;
        let resumable = match lines.next()?.strip_prefix("resumable=")? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        let node = lines.next()?.strip_prefix("node=")?.parse().ok()?;
        let spec = match lines.next()? {
            "spec=named" => SpecSource::Named(lines.collect::<Vec<_>>().join("\n")),
            "spec=inline" => SpecSource::Inline(lines.collect::<Vec<_>>().join("\n")),
            _ => return None,
        };
        Some(MetaState {
            token,
            modules,
            resumable,
            spec,
            node,
        })
    }

    fn render(&self) -> String {
        let (kind, text) = match &self.spec {
            SpecSource::Named(n) => ("named", n.as_str()),
            SpecSource::Inline(v) => ("inline", v.as_str()),
        };
        format!(
            "avoc-session-meta v2\ntoken={}\nmodules={}\nresumable={}\nnode={}\nspec={kind}\n{text}",
            self.token,
            self.modules,
            u8::from(self.resumable),
            self.node,
        )
    }
}

/// A session rebuilt from disk: its store plus what recovery derived from
/// the rows in it.
pub(crate) struct Loaded {
    pub(crate) store: SessionStore,
    /// Highest stamped round in the log or the segment tier.
    pub(crate) high_round: Option<u64>,
    /// Verdict rows of the last [`RESULT_RING`] rounds, ascending.
    pub(crate) results: Vec<StoredResult>,
    /// The seed state came from the segment tier alone (the WAL had been
    /// retired by a fold) — which side of the `wal_replay_ns` /
    /// `segment_load_ns` split the resume cost lands on.
    pub(crate) from_segments: bool,
    /// `FileHistory` truncated a torn final frame during replay.
    pub(crate) torn_tail: bool,
}

/// A session's durable state: its history log and the contents of its
/// sidecar, pinned into the segment tier while alive.
pub(crate) struct SessionStore {
    wal: FileHistory,
    session: u64,
    meta_path: PathBuf,
    meta: MetaState,
    /// Highest verdict round an earlier fold moved to the segment tier;
    /// with the log's own, the floor below which verdicts are not re-logged.
    folded_verdict_round: Option<u64>,
    /// The segment tier, for forget-on-remove. `None` when tiering is off.
    tiered: Option<Arc<TieredStore>>,
    /// Holds the compactor off this session while it is live.
    _pin: Option<TieredPin>,
}

impl std::fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("wal", &self.wal.path())
            .field("meta", &self.meta_path)
            .finish_non_exhaustive()
    }
}

fn meta_path(dir: &Path, session: u64) -> PathBuf {
    dir.join(format!("session-{session:016x}.meta"))
}

/// Session ids that have a sidecar in `dir` (the recovery scan).
pub(crate) fn list_sessions(dir: &Path) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut ids: Vec<u64> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            let hex = name.strip_prefix("session-")?.strip_suffix(".meta")?;
            u64::from_str_radix(hex, 16).ok()
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Reads and decodes a session's sidecar; `None` if missing or corrupt.
pub(crate) fn read_meta(dir: &Path, session: u64) -> Option<MetaState> {
    MetaState::parse(&std::fs::read(meta_path(dir, session)).ok()?)
}

/// Re-reads a migrated-away session's shipped state from disk — the
/// idempotent transfer-retry path. A completed export leaves the sidecar
/// naming `target_node` even if the shipped bytes were lost in flight, so
/// re-asking re-ships the same state. `None` when the sidecar is missing,
/// corrupt, or names any other owner (nothing to re-ship).
pub(crate) fn read_exported_blobs(
    dir: &Path,
    session: u64,
    target_node: u64,
) -> Option<(Vec<u8>, Vec<u8>)> {
    let meta = read_meta(dir, session)?;
    if meta.node != target_node {
        return None;
    }
    let wal_bytes = std::fs::read(session_wal_path(dir, session)).ok()?;
    Some((meta.render().into_bytes(), wal_bytes))
}

/// Lands `bytes` at `path` through a temporary file + rename, every leg on
/// the fault-injectable `sysio` facade (EINTR retried, short writes
/// resumed).
fn write_file(site: Site, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    {
        fio::check_op(site)?;
        let mut f = std::fs::File::create(&tmp)?;
        fio::write_all(site, &mut f, bytes)?;
        fio::flush(site, &mut f)?;
    }
    fio::check_op(site)?;
    std::fs::rename(&tmp, path)
}

impl SessionStore {
    /// Creates fresh durable state for a new session, removing any stale
    /// files a previous occupant of this id left behind and *forgetting*
    /// its folded segment rows so the old life cannot bleed into the new.
    /// The sidecar lands first: if it cannot be written nothing else is
    /// created, and a sidecar without a log is simply a session that has
    /// not fused yet.
    pub(crate) fn create(
        dir: &Path,
        session: u64,
        meta: MetaState,
        durability: Durability,
        tiered: Option<&Arc<TieredStore>>,
    ) -> io::Result<SessionStore> {
        std::fs::create_dir_all(dir)?;
        // Pin first: a fold in flight for this id finishes before we touch
        // its files, and none can start while the session lives.
        let pin = tiered.map(|t| t.pin(session));
        if let Some(t) = tiered {
            t.forget_session(session)?;
        }
        let wal = session_wal_path(dir, session);
        let meta_path = meta_path(dir, session);
        let _ = std::fs::remove_file(&wal);
        let _ = std::fs::remove_file(&meta_path);
        write_file(Site::MetaWrite, &meta_path, meta.render().as_bytes())?;
        Ok(SessionStore {
            wal: FileHistory::open_with(&wal, durability)?,
            session,
            meta_path,
            meta,
            folded_verdict_round: None,
            tiered: tiered.map(Arc::clone),
            _pin: pin,
        })
    }

    /// Loads a session's durable state. `None` when the checkpoint is
    /// missing or corrupt — the caller falls back to a fresh session (AVOC
    /// re-bootstraps). A torn WAL tail is repaired by `FileHistory` and does
    /// not fail the load.
    ///
    /// The history seed is the segment tier's latest state with the WAL's
    /// rows replayed on top (a WAL row is always at least as new as a
    /// folded one). When the WAL has been retired by a complete fold, the
    /// seed comes from the segment tier alone — the cheap path
    /// [`Loaded::from_segments`] reports and `benchmark/` measures
    /// (`serve.segment_load_ms`).
    pub(crate) fn load(
        dir: &Path,
        session: u64,
        durability: Durability,
        tiered: Option<&Arc<TieredStore>>,
    ) -> Option<Loaded> {
        // Pin before reading anything: an in-flight fold of this session
        // completes (or is skipped) before we open its files.
        let pin = tiered.map(|t| t.pin(session));
        let meta = read_meta(dir, session)?;
        let folded = tiered
            .and_then(|t| t.session_summary(session).ok().flatten())
            .unwrap_or_default();
        let wal_path = session_wal_path(dir, session);
        let from_segments = folded.blocks > 0 && !wal_path.exists();
        let mut wal = FileHistory::open_over(&wal_path, durability, folded.latest).ok()?;
        let high_round = wal
            .committed_round()
            .max(folded.folded_through)
            .max(folded.max_verdict_round);
        let window = high_round.map(|hi| hi.saturating_sub(RESULT_RING as u64 - 1)..=hi);
        let replayed = wal.take_replayed_verdicts();
        // Only a session with folded rounds needs the merged two-tier read.
        let verdicts = match (tiered, &window) {
            (Some(t), Some(w)) if folded.blocks > 0 => {
                t.verdicts_in(session, w.clone()).unwrap_or(replayed)
            }
            _ => replayed,
        };
        let results = verdicts
            .into_iter()
            .filter(|v| window.as_ref().is_some_and(|w| w.contains(&v.round)))
            .map(|v| (v.round, v.value, v.voted))
            .collect();
        Some(Loaded {
            torn_tail: wal.recovered_torn_tail(),
            store: SessionStore {
                wal,
                session,
                meta_path: meta_path(dir, session),
                meta,
                folded_verdict_round: folded.max_verdict_round,
                tiered: tiered.map(Arc::clone),
                _pin: pin,
            },
            high_round,
            results,
            from_segments,
        })
    }

    /// What the sidecar says about the session.
    pub(crate) fn meta(&self) -> &MetaState {
        &self.meta
    }

    /// The history records to seed a restored engine with.
    pub(crate) fn seed_records(&self) -> Vec<(ModuleId, f64)> {
        self.wal.snapshot()
    }

    /// Checkpoints: appends **one** log record holding the trust records
    /// that changed since the last one, the ring's verdict rows not yet
    /// logged, and the round stamp — nothing else is written. Returns the
    /// bytes appended (0 when nothing changed).
    ///
    /// # Errors
    ///
    /// Reports a sick WAL (any append since the last healthy rewrite failed
    /// — e.g. `ENOSPC`) as [`io::ErrorKind::Other`] so the caller's
    /// degradation state machine can react; the in-memory mirror of the
    /// records stays current either way.
    pub(crate) fn checkpoint(
        &mut self,
        records: &[(ModuleId, f64)],
        high_round: Option<u64>,
        results: &VecDeque<StoredResult>,
    ) -> io::Result<u64> {
        let changed: Vec<(ModuleId, f64)> = records
            .iter()
            .copied()
            .filter(|&(m, v)| self.wal.get(m) != Some(v))
            .collect();
        let floor = self.wal.max_verdict_round().max(self.folded_verdict_round);
        let fresh: Vec<VerdictRecord> = verdict_rows(results)
            .filter(|v| floor.is_none_or(|f| v.round > f))
            .collect();
        let before = self.wal.bytes_logged();
        if !changed.is_empty() || !fresh.is_empty() || self.wal.committed_round() != high_round {
            let _ = self.wal.checkpoint(&changed, &fresh, high_round);
        }
        if self.wal.write_failed() {
            return Err(io::Error::other(
                "session WAL is sick: an append failed since the last healthy checkpoint",
            ));
        }
        Ok(self.wal.bytes_logged() - before)
    }

    /// Rewrites the log wholesale as one record — the session's full
    /// current state, its round stamp and the ring's verdict rows. This is
    /// the re-probe a degraded session runs against a possibly-healed disk
    /// (success clears the WAL's sick flag) and the slimming an export does
    /// before it ships the log.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors — the disk is still sick and the session
    /// stays degraded (the original log file remains as it was).
    pub(crate) fn rewrite(
        &mut self,
        records: &[(ModuleId, f64)],
        high_round: Option<u64>,
        results: &VecDeque<StoredResult>,
    ) -> io::Result<()> {
        // Memory first: whether this append reaches the old log does not
        // matter, the rewrite below replaces it from the mirror.
        let _ = self.checkpoint(records, high_round, results);
        self.wal.compact(&verdict_rows(results).collect::<Vec<_>>())
    }

    /// Quiesces this session's durable state for shipping to `target_node`:
    /// rewrites the log to one record, flips the sidecar's ownership to the
    /// target, and returns `(meta_bytes, wal_bytes)`.
    ///
    /// Ordering is the migration protocol's crash story: the sidecar names
    /// the target *before* any bytes leave this node, so if the transfer
    /// dies mid-flight this node's boot recovery skips the session (it is
    /// the gateway's job to retry or re-place) rather than resurrecting a
    /// copy that may also be running elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and refuses (`InvalidData`) when the state
    /// would not fit a single transfer frame under
    /// [`avoc_net::message::MAX_FRAME_LEN`] — better an explicit failure
    /// than an undecodable frame on the wire.
    pub(crate) fn export_blobs(
        &mut self,
        target_node: u64,
        records: &[(ModuleId, f64)],
        high_round: Option<u64>,
        results: &VecDeque<StoredResult>,
    ) -> io::Result<(Vec<u8>, Vec<u8>)> {
        self.rewrite(records, high_round, results)?;
        self.meta.node = target_node;
        let meta = self.meta.render().into_bytes();
        write_file(Site::MetaWrite, &self.meta_path, &meta)?;
        let wal = std::fs::read(self.wal.path())?;
        // Frame budget: session + epoch + auth + two length prefixes + header.
        const TRANSFER_OVERHEAD: usize = 1 + 8 + 8 + 8 + 4 + 4;
        if meta.len() + wal.len() + TRANSFER_OVERHEAD > avoc_net::message::MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "session state exceeds the transfer frame cap even after compaction",
            ));
        }
        Ok((meta, wal))
    }

    /// Lands a shipped session in `dir` — log first, then the sidecar, so a
    /// crash between the two leaves no sidecar pointing at a missing log.
    /// The shipped log is scanned before anything local is touched: a blob
    /// that does not read clean end to end is refused (`InvalidData`). Any
    /// prior occupant of the id (files and folded segment rows) is cleared
    /// only after that.
    pub(crate) fn write_imported(
        dir: &Path,
        session: u64,
        meta: &MetaState,
        wal: &[u8],
        tiered: Option<&Arc<TieredStore>>,
    ) -> io::Result<()> {
        avoc_store::validate_wal(wal)?;
        std::fs::create_dir_all(dir)?;
        let _pin = tiered.map(|t| t.pin(session));
        if let Some(t) = tiered {
            t.forget_session(session)?;
        }
        let meta_dst = meta_path(dir, session);
        let _ = std::fs::remove_file(&meta_dst);
        write_file(Site::WalAppend, &session_wal_path(dir, session), wal)?;
        write_file(Site::MetaWrite, &meta_dst, meta.render().as_bytes())
    }

    /// Deletes the session's durable state (explicit close: the tenant is
    /// done, nothing to resume), including its folded segment rows.
    pub(crate) fn remove(self) {
        let _ = std::fs::remove_file(self.wal.path());
        let _ = std::fs::remove_file(&self.meta_path);
        if let Some(t) = &self.tiered {
            let _ = t.forget_session(self.session);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avoc-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn meta(token: u64, modules: u32, resumable: bool, spec: SpecSource, node: u64) -> MetaState {
        MetaState {
            token,
            modules,
            resumable,
            spec,
            node,
        }
    }

    #[test]
    fn checkpoint_round_trips_meta_history_round_and_ring() {
        let dir = tmpdir("roundtrip");
        let spec = SpecSource::Inline("{\"algorithm_name\": \"AVOC\"}".into());
        let written = meta(u64::MAX, 3, true, spec, 0);
        let mut store =
            SessionStore::create(&dir, 0x2a, written.clone(), Durability::Flush, None).unwrap();
        let records = [(ModuleId::new(0), 0.75), (ModuleId::new(1), 1.0)];
        let mut ring = VecDeque::new();
        ring.push_back((4u64, Some(19.700000000000003f64), true));
        ring.push_back((5u64, None, false));
        assert!(store.checkpoint(&records, Some(5), &ring).unwrap() > 0);
        // Nothing changed, so nothing is written.
        assert_eq!(store.checkpoint(&records, Some(5), &ring).unwrap(), 0);
        drop(store);

        let loaded = SessionStore::load(&dir, 0x2a, Durability::Flush, None).unwrap();
        assert_eq!(loaded.store.meta(), &written, "token survives byte-exact");
        assert_eq!(loaded.high_round, Some(5), "the round comes from the log");
        // The awkward float round-trips exactly (bit-identity requirement).
        assert_eq!(
            loaded.results,
            vec![(4, Some(19.700000000000003), true), (5, None, false)]
        );
        assert_eq!(loaded.store.seed_records(), records);
        assert_eq!(list_sessions(&dir), vec![0x2a]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn the_sidecar_is_written_once() {
        use std::os::unix::fs::MetadataExt;

        let dir = tmpdir("write-once");
        let spec = SpecSource::Named("avoc".into());
        let mut store =
            SessionStore::create(&dir, 5, meta(1, 2, true, spec, 0), Durability::Flush, None)
                .unwrap();
        let sidecar = meta_path(&dir, 5);
        let before = std::fs::metadata(&sidecar).unwrap();
        let mut ring = VecDeque::new();
        for round in 0..100u64 {
            let trust = 1.0 - round as f64 / 200.0;
            ring.push_back((round, Some(round as f64), true));
            store
                .checkpoint(&[(ModuleId::new(0), trust)], Some(round), &ring)
                .unwrap();
        }
        let after = std::fs::metadata(&sidecar).unwrap();
        // A steady-state checkpoint creates no file and renames none.
        assert_eq!(after.ino(), before.ino());
        assert_eq!(
            (after.mtime(), after.mtime_nsec()),
            (before.mtime(), before.mtime_nsec())
        );
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names.len(), 2, "the log and the sidecar only: {names:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_meta_or_wal_loads_as_none() {
        let dir = tmpdir("corrupt");
        let spec = SpecSource::Named("avoc".into());
        let mut store =
            SessionStore::create(&dir, 7, meta(1, 2, true, spec, 0), Durability::Flush, None)
                .unwrap();
        store
            .checkpoint(&[(ModuleId::new(0), 0.5)], Some(0), &VecDeque::new())
            .unwrap();
        drop(store);
        assert!(SessionStore::load(&dir, 7, Durability::Flush, None).is_some());

        // A log in the old text format fails the magic check.
        let wal = session_wal_path(&dir, 7);
        let good = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, "{\"op\":\"set\",\"module\":0,\"value\":0.5}\n").unwrap();
        assert!(SessionStore::load(&dir, 7, Durability::Flush, None).is_none());
        std::fs::write(&wal, good).unwrap();
        // Scribble over the meta: the load must degrade to None, not error.
        std::fs::write(meta_path(&dir, 7), "garbage").unwrap();
        assert!(SessionStore::load(&dir, 7, Durability::Flush, None).is_none());
        // Missing entirely behaves the same.
        assert!(SessionStore::load(&dir, 99, Durability::Flush, None).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_deletes_files() {
        let dir = tmpdir("remove");
        let spec = SpecSource::Named("avoc".into());
        let mut store =
            SessionStore::create(&dir, 3, meta(9, 1, false, spec, 0), Durability::Fsync, None)
                .unwrap();
        store
            .checkpoint(&[(ModuleId::new(0), 0.4)], Some(0), &VecDeque::new())
            .unwrap();
        drop(store);
        let loaded = SessionStore::load(&dir, 3, Durability::Flush, None).unwrap();
        assert!(!loaded.store.meta().resumable);
        assert_eq!(loaded.store.seed_records(), vec![(ModuleId::new(0), 0.4)]);
        loaded.store.remove();
        assert!(list_sessions(&dir).is_empty());
        assert!(SessionStore::load(&dir, 3, Durability::Flush, None).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_blobs_flip_ownership_and_restore_elsewhere() {
        let src = tmpdir("export-src");
        let dst = tmpdir("export-dst");
        let spec = SpecSource::Named("avoc".into());
        let mut store = SessionStore::create(
            &src,
            0x5e,
            meta(77, 3, true, spec.clone(), 1),
            Durability::Flush,
            None,
        )
        .unwrap();
        let records = [(ModuleId::new(0), 0.75), (ModuleId::new(2), 0.25)];
        let mut ring = VecDeque::new();
        ring.push_back((9u64, Some(18.150000000000002f64), true));
        store.checkpoint(&records, Some(9), &ring).unwrap();

        let (meta_bytes, wal_bytes) = store.export_blobs(2, &records, Some(9), &ring).unwrap();
        drop(store);

        // The source's leftover sidecar now names the target: node 1 no
        // longer owns it, node 2 does — and asking again re-ships the same.
        assert_eq!(read_meta(&src, 0x5e).unwrap().node, 2);
        assert_eq!(
            read_exported_blobs(&src, 0x5e, 2),
            Some((meta_bytes.clone(), wal_bytes.clone()))
        );
        assert_eq!(read_exported_blobs(&src, 0x5e, 3), None);

        // A shipped log that does not scan clean is refused before the
        // target's disk is touched.
        let shipped = MetaState::parse(&meta_bytes).unwrap();
        let torn = &wal_bytes[..wal_bytes.len() - 1];
        let err = SessionStore::write_imported(&dst, 0x5e, &shipped, torn, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(std::fs::read_dir(&dst).unwrap().count(), 0);

        // Landing the blobs on the target restores byte-exact state: the
        // round and the ring travel in the one-record log.
        SessionStore::write_imported(&dst, 0x5e, &shipped, &wal_bytes, None).unwrap();
        let loaded = SessionStore::load(&dst, 0x5e, Durability::Flush, None).unwrap();
        assert_eq!(loaded.store.meta(), &meta(77, 3, true, spec, 2));
        assert_eq!(loaded.high_round, Some(9));
        assert_eq!(loaded.results, vec![(9, Some(18.150000000000002), true)]);
        assert_eq!(loaded.store.seed_records(), records);
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }
}
