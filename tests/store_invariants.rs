//! Durability invariants for the on-disk history log, on its frame
//! boundaries: a log truncated at *any* byte offset — the artefact a crash
//! mid-append leaves behind, the file header included — recovers to the
//! state of the records wholly before the cut and takes appends again; a
//! flipped bit at any offset is either a torn tail or `InvalidData`, never
//! a panic and never a fabricated record; and a log in the retired
//! JSON-lines format is a cold start, not an outage.

use avoc::core::history::HistoryStore;
use avoc::core::ModuleId;
use avoc::store::{FileHistory, VerdictRecord};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "avoc-store-inv-{tag}-{}-{n}.wal",
        std::process::id()
    ))
}

/// What a reopened log must hold: the records and the commit round.
type State = (BTreeMap<u32, f64>, Option<u64>);

fn state_of(h: &FileHistory) -> State {
    let records = h.snapshot().into_iter().map(|(m, v)| (m.index(), v));
    (records.collect(), h.committed_round())
}

/// One log operation: `(kind, module, value)` — a set, a clear, or a
/// stamped checkpoint carrying a trust row and a verdict row.
type Op = (u8, u32, f64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..3, 0u32..6, 0.0f64..1.0), 1..8)
}

/// Writes `ops` one record each and returns the file's bytes plus, per
/// record boundary (the header's end first), the offset and the state a
/// log cut there must reopen to.
fn write_log(ops: &[Op]) -> (Vec<u8>, Vec<(usize, State)>) {
    let path = scratch("full");
    let mut h = FileHistory::open(&path).unwrap();
    let mut boundaries = vec![(h.bytes_logged() as usize, state_of(&h))];
    for (i, &(kind, module, value)) in ops.iter().enumerate() {
        let logged = h.bytes_logged();
        match kind {
            0 => h.set(ModuleId::new(module), value),
            1 => h.clear(),
            _ => {
                let verdict = VerdictRecord {
                    round: i as u64,
                    value: Some(value * 40.0),
                    voted: true,
                };
                h.checkpoint(
                    &[(ModuleId::new(module), value)],
                    &[verdict],
                    Some(i as u64),
                )
                .unwrap();
            }
        }
        // Clearing an empty store logs nothing: no record, no boundary.
        if h.bytes_logged() > logged {
            boundaries.push((h.bytes_logged() as usize, state_of(&h)));
        }
    }
    drop(h);
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), boundaries.last().unwrap().0);
    let _ = std::fs::remove_file(&path);
    (bytes, boundaries)
}

proptest! {
    /// Write a log, then truncate the file at every byte offset and reopen.
    /// Each reopen must succeed with exactly the state of the records that
    /// lie wholly before the cut, report a torn tail iff the cut fell
    /// inside a record (or inside the header), and take appends again.
    #[test]
    fn truncation_at_every_offset_yields_a_prefix_state(ops in ops()) {
        let (bytes, boundaries) = write_log(&ops);
        let torn = scratch("torn");
        for cut in 0..=bytes.len() {
            let (consumed, expected) = boundaries
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut)
                .cloned()
                .unwrap_or_default();
            std::fs::write(&torn, &bytes[..cut]).unwrap();
            let mut h = FileHistory::open(&torn).unwrap_or_else(|e| {
                panic!("cut at {cut}/{} must recover, got {e}", bytes.len())
            });
            prop_assert_eq!(&state_of(&h), &expected, "cut at {}", cut);
            prop_assert_eq!(h.recovered_torn_tail(), cut > consumed, "cut at {}", cut);

            h.set(ModuleId::new(9), 0.9);
            drop(h);
            let h = FileHistory::open(&torn).unwrap();
            prop_assert!(!h.recovered_torn_tail(), "cut at {}: the repaired log is clean", cut);
            let mut appended = expected;
            appended.0.insert(9, 0.9);
            prop_assert_eq!(state_of(&h), appended, "cut at {}", cut);
        }
        let _ = std::fs::remove_file(&torn);
    }

    /// Flip one bit at every byte offset in turn. Damage to the final
    /// record is a torn tail — the log reopens to the records before it;
    /// damage anywhere else (the header, or a record with a valid record
    /// after it) is `InvalidData`. Nothing panics, and no reopen ever shows
    /// a state the writer never logged.
    #[test]
    fn a_flipped_bit_anywhere_is_a_torn_tail_or_invalid_data(ops in ops(), bit in 0u8..8) {
        let (bytes, boundaries) = write_log(&ops);
        let path = scratch("flip");
        for at in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[at] ^= 1 << bit;
            std::fs::write(&path, &damaged).unwrap();
            // The record the flip landed in, if it is the last one.
            let last = boundaries.len() - 1;
            let in_last_record = last > 0 && at >= boundaries[last - 1].0;
            match FileHistory::open(&path) {
                Ok(h) => {
                    prop_assert!(in_last_record, "flip at {} went unnoticed", at);
                    prop_assert!(h.recovered_torn_tail());
                    prop_assert_eq!(&state_of(&h), &boundaries[last - 1].1, "flip at {}", at);
                }
                Err(e) => {
                    prop_assert!(!in_last_record, "flip at {}: a torn tail must recover", at);
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// After torn-tail recovery the log is append-ready: new writes land,
    /// reopen round-trips them, and nothing of the torn record resurfaces.
    #[test]
    fn torn_tail_recovery_is_append_ready(
        keep in 0u32..4,
        cut_back in 1usize..10,
    ) {
        let path = scratch("append");
        {
            let mut h = FileHistory::open(&path).unwrap();
            for m in 0..=keep {
                h.set(ModuleId::new(m), f64::from(m) / 10.0);
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len().saturating_sub(cut_back.min(bytes.len() - 1));
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let mut h = FileHistory::open(&path).unwrap();
        prop_assert!(h.recovered_torn_tail());
        prop_assert_eq!(h.get(ModuleId::new(keep)), None, "the torn record is gone");
        h.set(ModuleId::new(9), 0.9);
        drop(h);

        let h = FileHistory::open(&path).unwrap();
        prop_assert!(!h.recovered_torn_tail(), "the rewritten log must be clean");
        prop_assert_eq!(h.get(ModuleId::new(9)), Some(0.9));
        let _ = std::fs::remove_file(&path);
    }
}

/// There is no reader for the retired JSON-lines format: a state directory
/// holding such a log fails the magic check, so a resuming client gets the
/// documented cold fallback — a fresh session, `warm: false`, no error
/// frame — through a real daemon.
#[test]
fn a_legacy_json_lines_log_falls_back_to_a_cold_start() {
    use avoc::net::{Message, SpecSource};
    use avoc::prelude::*;
    use avoc::serve::{ClientConfig, ResilientClient, RetryPolicy, SpecRegistry, TcpServer};
    use std::sync::Arc;

    const SESSION: u64 = 7;
    let dir = std::env::temp_dir().join(format!("avoc-store-inv-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start_daemon = || {
        let mut registry = SpecRegistry::new();
        registry.insert("avoc", VdxSpec::avoc());
        let config = ServeConfig {
            persistence: Persistence {
                state_dir: Some(dir.clone()),
                ..Persistence::default()
            },
            ..ServeConfig::default()
        };
        let service = Arc::new(VoterService::start(config, Arc::new(registry)));
        TcpServer::start("127.0.0.1:0", service).expect("bind daemon")
    };
    let run_rounds = |client: &mut ResilientClient, rounds: std::ops::Range<u64>| {
        for round in rounds {
            for m in 0..3u32 {
                client
                    .send_reading(SESSION, ModuleId::new(m), round, 18.0 + f64::from(m) * 0.1)
                    .expect("send reading");
            }
            match client.recv().expect("recv result") {
                Message::SessionResult { round: got, .. } => assert_eq!(got, round),
                other => panic!("expected a result frame, got {other:?}"),
            }
        }
    };

    let server_a = start_daemon();
    let mut client = ResilientClient::new(
        server_a.local_addr(),
        ClientConfig::default(),
        RetryPolicy::default(),
    );
    client
        .open_session(SESSION, 3, SpecSource::Named("avoc".into()), 0xC0FFEE)
        .expect("open");
    run_rounds(&mut client, 0..3);
    server_a.abort();

    // What a daemon from before the binary log left behind.
    std::fs::write(
        avoc::store::session_wal_path(&dir, SESSION),
        "{\"op\":\"set\",\"module\":0,\"value\":0.5}\n\
         {\"op\":\"verdict\",\"round\":2,\"value\":18.1,\"voted\":true}\n\
         {\"op\":\"commit\",\"round\":2}\n",
    )
    .expect("plant the legacy log");

    let server_b = start_daemon();
    client.redirect(server_b.local_addr());
    run_rounds(&mut client, 3..6);
    assert_eq!(
        client.last_resume(SESSION),
        Some((None, false)),
        "a log this build cannot read must yield a fresh (cold) session"
    );
    assert_eq!(server_b.service().counters().recoveries, 0);
    client.close_session(SESSION).expect("close");
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
