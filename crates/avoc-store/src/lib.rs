//! # avoc-store — history datastores for AVOC voting
//!
//! The paper's implementation notes (§7) observe that a history-aware voting
//! round costs ~1 ms against ~50 µs stateless, "datastore reads and writes
//! being the bottleneck". This crate provides the datastore layer behind
//! [`avoc_core::HistoryStore`]:
//!
//! * [`FileHistory`] — a durable store backed by a write-ahead log of
//!   CRC-framed binary records with explicit compaction, mirroring the
//!   paper's persistent record keeping. A record's payload is a segment
//!   block, so the crate has one durable row format and one decoder;
//! * [`TieredStore`] — the cold tier: immutable columnar segments
//!   ([`SegmentFile`]) that a compaction pass folds session WALs into
//!   (rows move across as they are — the fold decodes blocks and re-chunks
//!   them, it does not translate formats), with time-travel reads
//!   ([`TieredStore::history_at`]) and fleet-level scans
//!   ([`TieredStore::outvoted_in`]) over both tiers.
//!
//! `avoc-bench`'s `latency` binary reproduces the bottleneck comparison;
//! `benchmark/` prices segment cold-resume against WAL replay
//! (`store.segment_load_ms_per_kround`, `store.wal_replay_ms_per_kround`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod file;
pub mod segment;
mod tiered;

pub use file::{
    image_meta, land_log, meta_image, read_log_meta, validate_wal, Durability, FileHistory,
    VerdictRecord, WalError,
};
pub use segment::{SegmentFile, SessionRows};
pub use tiered::{
    list_session_wals, session_wal_path, CompactionReport, CrashPoint, OutvotedRow, SessionSummary,
    TierStats, TieredPin, TieredStore,
};

/// Serializes unit tests that arm the process-global `sysio` fault
/// injector against every other test in this binary (plans installed on
/// one thread would otherwise fire on another's I/O).
#[cfg(test)]
pub(crate) fn fault_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
