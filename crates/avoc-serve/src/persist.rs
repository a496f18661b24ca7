//! Durable session state: one log per session, headed by its meta.
//!
//! With persistence enabled, every session owns one file in the state
//! directory, `session-<id:016x>.wal` — an [`avoc_store::FileHistory`] log:
//!
//! * its **head**, the first record, carries what the rows do not: resume
//!   token, module count, governing spec and owning node ([`MetaState`]).
//!   It is never appended, only landed inside a whole log image by rename —
//!   at create, heal, export, import and a fold's retirement — so a crash
//!   leaves the old image or the new one, and an export's ownership flip
//!   is that one rename.
//! * a **checkpoint** is one record appended after the head: the trust
//!   rows that changed, the verdict rows not yet logged, and the round they
//!   are as of, in one write + flush (+ fsync). That record is the only
//!   commit point for rounds.
//!
//! Recovery derives the rest from the rows themselves: `high_round` is the
//! highest stamped round in the log or the segment tier, and the result
//! ring is the verdict rows of the last [`RESULT_RING`] rounds across both.
//! So the rewrite that heals a sick log or slims one for shipping carries
//! the ring's verdict rows with it. Recovery and the durable listing read
//! the head alone ([`read_meta`]), never a whole log.
//!
//! Corruption anywhere — a log with no readable head (one of an older
//! format included), mid-file damage — makes [`SessionStore::load`] return
//! `None`, and the caller falls back to a fresh session whose AVOC engine
//! re-bootstraps from live data, exactly as if persistence were off. A torn
//! log *tail* (the expected artefact of a crash mid-append) is tolerated
//! and truncated by `FileHistory` itself.

use avoc_core::history::HistoryStore;
use avoc_core::ModuleId;
use avoc_net::{BatchResult, SpecSource};
use avoc_store::{
    land_log, meta_image, read_log_meta, session_wal_path, Durability, FileHistory, TieredPin,
    TieredStore, VerdictRecord,
};
#[cfg(test)]
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::ring::{VerdictRing, RESULT_RING};

/// Crash-safety configuration for [`crate::VoterService`].
///
/// A durable session checkpoints after every fused round, so a hard kill is
/// bit-identically recoverable. The segment tier opens with the state
/// directory, so folded segments stay readable; folding runs on demand
/// ([`crate::VoterService::compact_now`], [`TieredStore::compact`]).
#[derive(Debug, Clone, Default)]
pub struct Persistence {
    /// Where session logs and the segment tier live. `None` disables
    /// persistence entirely (the default): sessions are memory-only and a
    /// restart re-bootstraps from live data. A directory whose tier will
    /// not open is treated the same way, with the `persistence` health
    /// domain degraded: a log read without its folded history would resume
    /// a session warm from part of it.
    pub state_dir: Option<PathBuf>,
    /// `true` fsyncs every log append and every landed log image
    /// ([`Durability::Fsync`]); the default flushes to the OS and lets the
    /// kernel schedule the write — a daemon crash loses nothing, a machine
    /// crash may lose the tail (which recovery then truncates).
    pub fsync: bool,
    /// This daemon's cluster node id, stamped into the head of every
    /// session log it writes. After a migration the source's leftover log
    /// names the *target* node, so boot recovery skips it instead of
    /// double-owning the session. `0` (the default) is a valid id for
    /// single-node deployments.
    pub node_id: u64,
    /// Shared inter-node secret gating the cluster verbs (`ExportSession` /
    /// `SessionState` import). Exports ship the session's resume token, so
    /// a frame whose `auth` field does not match this secret is refused.
    /// `None` (the default) disables the cluster verbs entirely — a
    /// standalone daemon exposes no migration surface.
    pub cluster_secret: Option<u64>,
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

/// The verdict rows a checkpoint logs and a rewrite carries: a session's
/// result ring, oldest first, read where it lies.
pub(crate) trait VerdictRows {
    fn verdict_rows(&self) -> impl Iterator<Item = VerdictRecord> + '_;
}

impl VerdictRows for VerdictRing {
    fn verdict_rows(&self) -> impl Iterator<Item = VerdictRecord> + '_ {
        self.iter().map(|&packed| {
            let BatchResult {
                round,
                value,
                voted,
            } = packed.into();
            VerdictRecord {
                round,
                value,
                voted,
            }
        })
    }
}

/// The tests below hand in their rings as plain tuples.
#[cfg(test)]
impl VerdictRows for VecDeque<StoredResult> {
    fn verdict_rows(&self) -> impl Iterator<Item = VerdictRecord> + '_ {
        self.iter().map(|&(round, value, voted)| VerdictRecord {
            round,
            value,
            voted,
        })
    }
}

/// What a session log's head carries.
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
    /// Decodes a head: `token` u64, `modules` u32 and `node` u64 (all
    /// little-endian), `resumable` u8, the spec kind u8 (0 named, 1
    /// inline), then the spec text. `None` when it does not decode.
    pub(crate) fn decode(bytes: &[u8]) -> Option<MetaState> {
        let (token, rest) = bytes.split_first_chunk::<8>()?;
        let (modules, rest) = rest.split_first_chunk::<4>()?;
        let (node, rest) = rest.split_first_chunk::<8>()?;
        let (&[resumable @ 0..=1, kind], text) = rest.split_first_chunk::<2>()? else {
            return None;
        };
        let text = std::str::from_utf8(text).ok()?.to_owned();
        let spec = match kind {
            0 => SpecSource::Named(text),
            1 => SpecSource::Inline(text),
            _ => return None,
        };
        Some(MetaState {
            token: u64::from_le_bytes(*token),
            modules: u32::from_le_bytes(*modules),
            resumable: resumable == 1,
            spec,
            node: u64::from_le_bytes(*node),
        })
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let (kind, text) = match &self.spec {
            SpecSource::Named(n) => (0, n),
            SpecSource::Inline(v) => (1, v),
        };
        let mut out = Vec::with_capacity(22 + text.len());
        out.extend_from_slice(&self.token.to_le_bytes());
        out.extend_from_slice(&self.modules.to_le_bytes());
        out.extend_from_slice(&self.node.to_le_bytes());
        out.extend_from_slice(&[u8::from(self.resumable), kind]);
        out.extend_from_slice(text.as_bytes());
        out
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
    /// The seed state came from the segment tier alone (a fold had cut the
    /// log to its head) — which side of the `wal_replay_ns` /
    /// `segment_load_ns` split the resume cost lands on.
    pub(crate) from_segments: bool,
    /// `FileHistory` truncated a torn final frame during replay.
    pub(crate) torn_tail: bool,
}

/// A session's durable state: its log and what the log's head says,
/// pinned into the segment tier while alive.
pub(crate) struct SessionStore {
    wal: FileHistory,
    session: u64,
    meta: MetaState,
    /// Highest verdict round an earlier fold moved to the segment tier;
    /// with the log's own, the floor below which verdicts are not re-logged.
    folded_verdict_round: Option<u64>,
    /// The segment tier the log lives beside, for forget-on-remove.
    tier: Arc<TieredStore>,
    /// Holds the compactor off this session while it is live.
    _pin: TieredPin,
}

impl std::fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionStore")
            .field("wal", &self.wal.path())
            .finish_non_exhaustive()
    }
}

/// Reads and decodes a session log's head — the header and one frame, not
/// the log. `None` if the log is missing or has no readable head.
pub(crate) fn read_meta(dir: &Path, session: u64) -> Option<MetaState> {
    MetaState::decode(&read_log_meta(&session_wal_path(dir, session))?)
}

/// Re-reads a migrated-away session's shipped log from disk — the
/// idempotent transfer-retry path. A completed export leaves the log's head
/// naming `target_node` even if the shipped bytes were lost in flight, so
/// re-asking re-ships the same log. `None` when the log is missing, has no
/// readable head, names any other owner, or was cut to its head by a fold
/// (its rows now sit in this node's segments, not in what would ship).
pub(crate) fn read_exported_log(
    tier: &TieredStore,
    session: u64,
    target_node: u64,
) -> Option<Vec<u8>> {
    let path = session_wal_path(tier.dir(), session);
    let head = read_log_meta(&path)?;
    if MetaState::decode(&head)?.node != target_node {
        return None;
    }
    let wal = std::fs::read(path).ok()?;
    let folded = matches!(tier.session_summary(session), Ok(Some(_)));
    (wal.len() > meta_image(&head).len() || !folded).then_some(wal)
}

impl SessionStore {
    /// Creates fresh durable state for a new session: *forgets* the folded
    /// segment rows a previous occupant of this id left, so the old life
    /// cannot bleed into the new, then lands a head-only log in place of
    /// any old one. If that landing fails, no log is opened and the old
    /// file, if any, stays as it was.
    pub(crate) fn create(
        tier: &Arc<TieredStore>,
        session: u64,
        meta: MetaState,
        durability: Durability,
    ) -> io::Result<SessionStore> {
        // Pin first: a fold in flight for this id finishes before we touch
        // its files, and none can start while the session lives.
        let pin = tier.pin(session);
        tier.forget_session(session)?;
        let path = session_wal_path(tier.dir(), session);
        land_log(&path, &meta_image(&meta.encode()), durability)?;
        Ok(SessionStore {
            wal: FileHistory::open_with(&path, durability)?,
            session,
            meta,
            folded_verdict_round: None,
            tier: Arc::clone(tier),
            _pin: pin,
        })
    }

    /// Loads a session's durable state. `None` when the log is missing, has
    /// no readable head, or is corrupt — the caller falls back to a fresh
    /// session (AVOC re-bootstraps). A torn log tail is repaired by
    /// `FileHistory` and does not fail the load.
    ///
    /// The history seed is the segment tier's latest state with the log's
    /// rows replayed on top (a logged row is always at least as new as a
    /// folded one). When a complete fold cut the log to its head, the seed
    /// comes from the segment tier alone — the cheap path
    /// [`Loaded::from_segments`] reports and `benchmark/` measures
    /// (`serve.segment_load_ms`).
    pub(crate) fn load(
        tier: &Arc<TieredStore>,
        session: u64,
        durability: Durability,
    ) -> Option<Loaded> {
        // Pin before reading anything: an in-flight fold of this session
        // completes (or is skipped) before we open its files.
        let pin = tier.pin(session);
        let meta = read_meta(tier.dir(), session)?;
        let folded = tier
            .session_summary(session)
            .ok()
            .flatten()
            .unwrap_or_default();
        let blocks = folded.blocks;
        let wal_path = session_wal_path(tier.dir(), session);
        let mut wal = FileHistory::open_over(&wal_path, durability, folded.latest).ok()?;
        let from_segments = blocks > 0 && wal.committed_round().is_none();
        let high_round = wal
            .committed_round()
            .max(folded.folded_through)
            .max(folded.max_verdict_round);
        let window = high_round.map(|hi| hi.saturating_sub(RESULT_RING as u64 - 1)..=hi);
        let replayed = wal.take_replayed_verdicts();
        // Only a session with folded rounds needs the merged two-tier read.
        let verdicts = match &window {
            Some(w) if blocks > 0 => tier.verdicts_in(session, w.clone()).unwrap_or(replayed),
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
                meta,
                folded_verdict_round: folded.max_verdict_round,
                tier: Arc::clone(tier),
                _pin: pin,
            },
            high_round,
            results,
            from_segments,
        })
    }

    /// What the log's head says about the session.
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
    /// The append's failure (e.g. `ENOSPC`), after which the log is
    /// [`SessionStore::sick`], or the refusal of a log already sick. The
    /// in-memory mirror of the records stays current either way.
    pub(crate) fn checkpoint(
        &mut self,
        records: &[(ModuleId, f64)],
        high_round: Option<u64>,
        results: &impl VerdictRows,
    ) -> io::Result<u64> {
        let changed: Vec<(ModuleId, f64)> = records
            .iter()
            .copied()
            .filter(|&(m, v)| self.wal.get(m) != Some(v))
            .collect();
        let floor = self.wal.max_verdict_round().max(self.folded_verdict_round);
        let fresh: Vec<VerdictRecord> = results
            .verdict_rows()
            .filter(|v| floor.is_none_or(|f| v.round > f))
            .collect();
        let before = self.wal.bytes_logged();
        if !changed.is_empty() || !fresh.is_empty() || self.wal.committed_round() != high_round {
            self.wal.checkpoint(&changed, &fresh, high_round)?;
        }
        Ok(self.wal.bytes_logged() - before)
    }

    /// Whether an append failed since the log was last landed whole: the
    /// log may be missing a record, so it takes no more appends until
    /// [`SessionStore::rewrite`] replaces it.
    pub(crate) fn sick(&self) -> bool {
        self.wal.write_failed()
    }

    /// Rewrites the log wholesale as its head and one record — the
    /// session's full current state, its round stamp and the ring's verdict
    /// rows. This is the probe a degraded session runs against a
    /// possibly-healed disk (success clears [`SessionStore::sick`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors — the disk is still sick and the session
    /// stays degraded (the original log file remains as it was).
    pub(crate) fn rewrite(
        &mut self,
        records: &[(ModuleId, f64)],
        high_round: Option<u64>,
        results: &impl VerdictRows,
    ) -> io::Result<()> {
        let meta = self.meta.encode();
        self.rewrite_headed(&meta, records, high_round, results)
    }

    /// [`SessionStore::rewrite`] under the head `meta`.
    fn rewrite_headed(
        &mut self,
        meta: &[u8],
        records: &[(ModuleId, f64)],
        high_round: Option<u64>,
        results: &impl VerdictRows,
    ) -> io::Result<()> {
        // Memory first: whether this append reaches the old log (a sick one
        // refuses it) does not matter, the rewrite below replaces it from
        // the mirror.
        let _ = self.checkpoint(records, high_round, results);
        self.wal
            .compact(Some(meta), &results.verdict_rows().collect::<Vec<_>>())
    }

    /// Quiesces this session's durable state for shipping to `target_node`:
    /// rewrites the log to its head and one record, the head naming the
    /// target, and returns the log.
    ///
    /// That rewrite's rename is the migration's one commit point: from it
    /// on this node's boot recovery skips the session rather than
    /// resurrecting a copy that may also be running elsewhere. Until it
    /// lands the session is still this node's, on disk and in memory.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and refuses (`InvalidData`) when the state
    /// would not fit a single transfer frame under
    /// [`avoc_net::message::MAX_FRAME_LEN`] — better an explicit failure
    /// than an undecodable frame on the wire. The log is handed back to
    /// this node first.
    pub(crate) fn export(
        &mut self,
        target_node: u64,
        records: &[(ModuleId, f64)],
        high_round: Option<u64>,
        results: &impl VerdictRows,
    ) -> io::Result<Vec<u8>> {
        let target = MetaState {
            node: target_node,
            ..self.meta.clone()
        };
        self.rewrite_headed(&target.encode(), records, high_round, results)?;
        let wal = std::fs::read(self.wal.path())?;
        // Frame budget: session + epoch + auth + two length prefixes + header.
        const TRANSFER_OVERHEAD: usize = 1 + 8 + 8 + 8 + 4 + 4;
        if wal.len() + TRANSFER_OVERHEAD > avoc_net::message::MAX_FRAME_LEN {
            self.rewrite(records, high_round, results)?;
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "session state exceeds the transfer frame cap even after compaction",
            ));
        }
        self.meta = target;
        Ok(wal)
    }

    /// Lands a shipped session log beside `tier`, unchanged: its head already
    /// names this node (the export stamped it). The image is scanned end
    /// to end before anything local is touched: one that does not read
    /// clean is refused (`InvalidData`). The prior occupant's folded
    /// segment rows are forgotten only after that, and the landing's one
    /// rename replaces its log.
    pub(crate) fn write_imported(
        tier: &Arc<TieredStore>,
        session: u64,
        wal: &[u8],
        durability: Durability,
    ) -> io::Result<()> {
        avoc_store::validate_wal(wal)?;
        let _pin = tier.pin(session);
        tier.forget_session(session)?;
        land_log(&session_wal_path(tier.dir(), session), wal, durability)
    }

    /// Deletes the session's durable state (explicit close: the tenant is
    /// done, nothing to resume), including its folded segment rows.
    pub(crate) fn remove(self) {
        let _ = std::fs::remove_file(self.wal.path());
        let _ = self.tier.forget_session(self.session);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_store::list_session_wals;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("avoc-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The segment tier of `dir`: every session log lives beside one.
    fn tier(dir: &Path) -> Arc<TieredStore> {
        Arc::new(TieredStore::open(dir).unwrap())
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
        let tier = tier(&dir);
        let mut store =
            SessionStore::create(&tier, 0x2a, written.clone(), Durability::Flush).unwrap();
        let records = [(ModuleId::new(0), 0.75), (ModuleId::new(1), 1.0)];
        let mut ring = VecDeque::new();
        ring.push_back((4u64, Some(19.700000000000003f64), true));
        ring.push_back((5u64, None, false));
        assert!(store.checkpoint(&records, Some(5), &ring).unwrap() > 0);
        // Nothing changed, so nothing is written.
        assert_eq!(store.checkpoint(&records, Some(5), &ring).unwrap(), 0);
        drop(store);

        let loaded = SessionStore::load(&tier, 0x2a, Durability::Flush).unwrap();
        assert_eq!(loaded.store.meta(), &written, "token survives byte-exact");
        assert_eq!(loaded.high_round, Some(5), "the round comes from the log");
        // The awkward float round-trips exactly (bit-identity requirement).
        assert_eq!(
            loaded.results,
            vec![(4, Some(19.700000000000003), true), (5, None, false)]
        );
        assert_eq!(loaded.store.seed_records(), records);
        assert_eq!(list_session_wals(&dir).unwrap(), vec![0x2a]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn a_session_is_one_file_and_checkpoints_land_none() {
        use std::os::unix::fs::MetadataExt;

        let dir = tmpdir("one-file");
        let spec = SpecSource::Named("avoc".into());
        let mut store =
            SessionStore::create(&tier(&dir), 5, meta(1, 2, true, spec, 0), Durability::Flush)
                .unwrap();
        let log = session_wal_path(&dir, 5);
        let before = std::fs::metadata(&log).unwrap();
        let mut ring = VecDeque::new();
        for round in 0..100u64 {
            let trust = 1.0 - round as f64 / 200.0;
            ring.push_back((round, Some(round as f64), true));
            store
                .checkpoint(&[(ModuleId::new(0), trust)], Some(round), &ring)
                .unwrap();
        }
        // A steady-state checkpoint appends: it creates no file and
        // renames none.
        assert_eq!(std::fs::metadata(&log).unwrap().ino(), before.ino());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name != "MANIFEST")
            .collect();
        assert_eq!(names, ["session-0000000000000005.wal"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_meta_or_wal_loads_as_none() {
        let dir = tmpdir("corrupt");
        let spec = SpecSource::Named("avoc".into());
        let tier = tier(&dir);
        let mut store =
            SessionStore::create(&tier, 7, meta(1, 2, true, spec, 0), Durability::Flush).unwrap();
        store
            .checkpoint(&[(ModuleId::new(0), 0.5)], Some(0), &VecDeque::new())
            .unwrap();
        drop(store);
        assert!(SessionStore::load(&tier, 7, Durability::Flush).is_some());

        // A log in the old text format fails the magic check.
        let wal = session_wal_path(&dir, 7);
        let good = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, "{\"op\":\"set\",\"module\":0,\"value\":0.5}\n").unwrap();
        assert!(SessionStore::load(&tier, 7, Durability::Flush).is_none());
        // Scribble over the head: the load must degrade to None, not error.
        let mut scribbled = good.clone();
        scribbled[20] ^= 0xff;
        std::fs::write(&wal, &scribbled).unwrap();
        assert!(read_meta(&dir, 7).is_none());
        assert!(SessionStore::load(&tier, 7, Durability::Flush).is_none());
        // A log of the previous version has no head at all.
        let mut v1 = good;
        v1[7] = 1;
        std::fs::write(&wal, &v1).unwrap();
        assert!(SessionStore::load(&tier, 7, Durability::Flush).is_none());
        // Missing entirely behaves the same.
        assert!(SessionStore::load(&tier, 99, Durability::Flush).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_deletes_files() {
        let dir = tmpdir("remove");
        let spec = SpecSource::Named("avoc".into());
        let tier = tier(&dir);
        let mut store =
            SessionStore::create(&tier, 3, meta(9, 1, false, spec, 0), Durability::Fsync).unwrap();
        store
            .checkpoint(&[(ModuleId::new(0), 0.4)], Some(0), &VecDeque::new())
            .unwrap();
        drop(store);
        let loaded = SessionStore::load(&tier, 3, Durability::Flush).unwrap();
        assert!(!loaded.store.meta().resumable);
        assert_eq!(loaded.store.seed_records(), vec![(ModuleId::new(0), 0.4)]);
        loaded.store.remove();
        assert!(list_session_wals(&dir).unwrap().is_empty());
        assert!(SessionStore::load(&tier, 3, Durability::Flush).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_flips_ownership_and_restores_elsewhere() {
        let src = tmpdir("export-src");
        let dst = tmpdir("export-dst");
        let spec = SpecSource::Named("avoc".into());
        let (src_tier, dst_tier) = (tier(&src), tier(&dst));
        let owner = meta(77, 3, true, spec.clone(), 1);
        let mut store = SessionStore::create(&src_tier, 0x5e, owner, Durability::Flush).unwrap();
        let records = [(ModuleId::new(0), 0.75), (ModuleId::new(2), 0.25)];
        let mut ring = VecDeque::new();
        ring.push_back((9u64, Some(18.150000000000002f64), true));
        store.checkpoint(&records, Some(9), &ring).unwrap();

        let wal = store.export(2, &records, Some(9), &ring).unwrap();
        assert_eq!(store.meta().node, 2);
        drop(store);

        // The source's leftover log now names the target: node 1 no longer
        // owns it, node 2 does — and asking again re-ships the same.
        let shipped = meta(77, 3, true, spec, 2);
        let head = avoc_store::image_meta(&wal).and_then(MetaState::decode);
        assert_eq!(head.as_ref(), Some(&shipped));
        assert_eq!(read_meta(&src, 0x5e).as_ref(), Some(&shipped));
        assert_eq!(read_exported_log(&src_tier, 0x5e, 2), Some(wal.clone()));
        assert_eq!(read_exported_log(&src_tier, 0x5e, 3), None);

        // A shipped log that does not scan clean is refused before the
        // target's disk is touched.
        let torn = &wal[..wal.len() - 1];
        let err =
            SessionStore::write_imported(&dst_tier, 0x5e, torn, Durability::Flush).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(list_session_wals(&dst).unwrap().is_empty());

        // Landing the log on the target restores byte-exact state: the
        // owner, the round and the ring travel in the one file, unchanged.
        SessionStore::write_imported(&dst_tier, 0x5e, &wal, Durability::Flush).unwrap();
        assert_eq!(std::fs::read(session_wal_path(&dst, 0x5e)).unwrap(), wal);
        let loaded = SessionStore::load(&dst_tier, 0x5e, Durability::Flush).unwrap();
        assert_eq!(loaded.store.meta(), &shipped);
        assert_eq!(loaded.high_round, Some(9));
        assert_eq!(loaded.results, vec![(9, Some(18.150000000000002), true)]);
        assert_eq!(loaded.store.seed_records(), records);
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn a_log_cut_by_a_fold_is_not_reshipped() {
        let dir = tmpdir("export-fold");
        let tier = tier(&dir);
        let spec = SpecSource::Named("avoc".into());
        let export = |session: u64, rounds: u64| {
            let owner = meta(3, 1, true, spec.clone(), 1);
            let mut store = SessionStore::create(&tier, session, owner, Durability::Flush).unwrap();
            let mut ring = VecDeque::new();
            let records = [(ModuleId::new(0), 0.5)];
            for round in 0..rounds {
                ring.push_back((round, Some(1.0), true));
                store.checkpoint(&records, Some(round), &ring).unwrap();
            }
            let high = rounds.checked_sub(1);
            store.export(2, &records, high, &ring).unwrap()
        };
        let (fused, fresh) = (export(1, 4), export(2, 0));
        assert_eq!(read_exported_log(&tier, 1, 2), Some(fused));
        assert_eq!(tier.compact().unwrap().wals_retired, 1);
        // The fold moved session 1's rows into this node's segments: its
        // head-only log is not the state that shipped, so it is not re-shipped.
        assert_eq!(read_exported_log(&tier, 1, 2), None);
        // A session exported before its first round had nothing to fold.
        assert_eq!(read_exported_log(&tier, 2, 2), Some(fresh));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crash_at_any_byte_keeps_the_old_owner_or_starts_cold() {
        let dir = tmpdir("crash-any-byte");
        let spec = SpecSource::Named("avoc".into());
        let owner = meta(5, 2, true, spec, 1);
        let mut store =
            SessionStore::create(&tier(&dir), 9, owner.clone(), Durability::Flush).unwrap();
        let records = [(ModuleId::new(0), 0.5), (ModuleId::new(1), 0.25)];
        let mut ring = VecDeque::new();
        for round in 0..4u64 {
            ring.push_back((round, Some(round as f64), true));
            store.checkpoint(&records, Some(round), &ring).unwrap();
        }
        let log = session_wal_path(&dir, 9);
        let old = std::fs::read(&log).unwrap();
        let image = store.export(2, &records, Some(3), &ring).unwrap();
        drop(store);
        let mut tmp = log.clone().into_os_string();
        tmp.push(".tmp");

        // A kill mid-landing leaves some prefix of the export image as the
        // log's `.tmp`, the old log untouched beside it.
        for cut in 0..=image.len() {
            std::fs::write(&log, &old).unwrap();
            std::fs::write(&tmp, &image[..cut]).unwrap();
            let tier = tier(&dir);
            assert!(!Path::new(&tmp).exists(), "cut {cut}: the .tmp is swept");
            let loaded = SessionStore::load(&tier, 9, Durability::Flush);
            let loaded = loaded.unwrap_or_else(|| panic!("cut {cut}: the old log loads"));
            assert_eq!(loaded.store.meta(), &owner, "cut {cut}");
            assert_eq!(loaded.high_round, Some(3), "cut {cut}");
        }

        // A log cut short inside its head has no owner: a cold start.
        let head_end = 8 + 8 + 1 + owner.encode().len();
        for cut in 0..head_end {
            std::fs::write(&log, &old[..cut]).unwrap();
            assert!(read_meta(&dir, 9).is_none(), "cut {cut}");
            assert!(
                SessionStore::load(&tier(&dir), 9, Durability::Flush).is_none(),
                "cut {cut}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
