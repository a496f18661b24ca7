//! Property-based invariants over the core data structures, via proptest.

use avoc::cluster::{AgreementClusterer, MarginMode};
use avoc::core::algorithms::MajorityHistory;
use avoc::core::engine::{FallbackAction, TieBreak};
use avoc::core::{DenseHistory, HistoryStore, MemoryHistory};
use avoc::prelude::*;
use proptest::prelude::*;

/// Strategy: one round of 2..=9 finite candidate values in a plausible
/// sensor range.
fn candidate_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, 2..=9)
}

/// Strategy: a short trace of rounds (same width).
fn trace_values() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (2usize..=6, 1usize..=20).prop_flat_map(|(width, rounds)| {
        prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, width..=width),
            rounds..=rounds,
        )
    })
}

fn all_voters() -> Vec<Box<dyn Voter>> {
    let mnn = VoterConfig::new().with_collation(Collation::MeanNearestNeighbor);
    vec![
        Box::new(AverageVoter::new()),
        Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Stateless)),
        Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Standard)),
        Box::new(HistoryVoter::with_defaults(
            HistoryAlgorithm::ModuleElimination,
        )),
        Box::new(HistoryVoter::with_defaults(
            HistoryAlgorithm::SoftDynamicThreshold,
        )),
        Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Hybrid)),
        Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Stateless).with_bootstrap(true)),
        Box::new(
            HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn, MemoryHistory::new())
                .with_bootstrap(true),
        ),
    ]
}

/// Strategy: a short trace of rounds (same width) with missing readings:
/// mostly a tight cluster near 20, one reading in four an outlier.
fn sparse_trace_values() -> impl Strategy<Value = Vec<Vec<Option<f64>>>> {
    fn reading() -> impl Strategy<Value = f64> {
        (0u8..4, -1.0f64..1.0).prop_map(|(k, x)| if k == 0 { 100.0 * x } else { 20.0 + 0.1 * x })
    }
    (2usize..=6, 1usize..=30).prop_flat_map(|(width, rounds)| {
        prop::collection::vec(
            prop::collection::vec(prop::option::of(reading()), width..=width),
            rounds..=rounds,
        )
    })
}

/// The seven numeric voters built from a `history` and a `bootstrapping`
/// field, each over a fresh `store()`.
fn history_voters<S: HistoryStore + 'static>(store: fn() -> S) -> Vec<Box<dyn Voter>> {
    let cfg = VoterConfig::new();
    let mnn = cfg.with_collation(Collation::MeanNearestNeighbor);
    vec![
        Box::new(HistoryVoter::new(HistoryAlgorithm::Stateless, cfg, store())),
        Box::new(HistoryVoter::new(HistoryAlgorithm::Standard, cfg, store())),
        Box::new(HistoryVoter::new(
            HistoryAlgorithm::ModuleElimination,
            cfg,
            store(),
        )),
        Box::new(HistoryVoter::new(
            HistoryAlgorithm::SoftDynamicThreshold,
            cfg,
            store(),
        )),
        Box::new(HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn, store())),
        Box::new(HistoryVoter::new(HistoryAlgorithm::Stateless, cfg, store()).with_bootstrap(true)),
        Box::new(HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn, store()).with_bootstrap(true)),
    ]
}

/// The categorical voter in both of its history modes, each over a fresh
/// `store()`.
fn majority_voters<S: HistoryStore + Send + 'static>(store: fn() -> S) -> Vec<Box<dyn Voter>> {
    [
        MajorityHistory::Standard,
        MajorityHistory::ModuleElimination,
    ]
    .into_iter()
    .map(|mode| Box::new(MajorityVoter::new(mode, store())) as Box<dyn Voter>)
    .collect()
}

/// `count` rounds of five door sensors from a fixed seed: most report the
/// door's state, module 3 is stuck at "ajar", and one reading in six is
/// missing and another in six random.
fn seeded_text_rounds(seed: u64, count: u64) -> impl Iterator<Item = Round> {
    const WORDS: [&str; 3] = ["closed", "open", "ajar"];
    let mut state = seed;
    (0..count).map(move |round| {
        let truth = WORDS[usize::from(round % 8 >= 5)];
        let ballots = (0..5)
            .map(|m| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let draw = (state >> 33) as usize;
                let module = ModuleId::new(m);
                match (draw % 6, m) {
                    (0, _) => Ballot::missing(module),
                    (1, _) => Ballot::new(module, WORDS[draw / 6 % 3]),
                    (_, 3) => Ballot::new(module, "ajar"),
                    _ => Ballot::new(module, truth),
                }
            })
            .collect();
        Round::new(round, ballots)
    })
}

type VerdictBits = (
    Option<u64>,
    Option<String>,
    Vec<(ModuleId, u64)>,
    u64,
    Vec<ModuleId>,
    bool,
);

fn verdict_bits(verdict: Result<Verdict, VoteError>) -> Result<VerdictBits, VoteError> {
    verdict.map(|v| {
        (
            v.number().map(f64::to_bits),
            v.value.as_text().map(str::to_owned),
            record_bits(v.weights),
            v.confidence.to_bits(),
            v.excluded,
            v.bootstrapped,
        )
    })
}

fn record_bits(records: Vec<(ModuleId, f64)>) -> Vec<(ModuleId, u64)> {
    records.into_iter().map(|(m, v)| (m, v.to_bits())).collect()
}

/// Builds a set of voters, each over a fresh store from the given maker.
type VoterSet<S> = fn(fn() -> S) -> Vec<Box<dyn Voter>>;

/// Drives the same voters over `MemoryHistory` (the reference) and over
/// `DenseHistory` (what `build_engine` hands the daemon) side by side:
/// every verdict and the records after every round, bit for bit.
fn stores_agree(
    voters: VoterSet<MemoryHistory>,
    dense_voters: VoterSet<DenseHistory>,
    rounds: impl IntoIterator<Item = Round>,
) -> Result<(), TestCaseError> {
    let mut reference = voters(MemoryHistory::new);
    let mut dense = dense_voters(DenseHistory::new);
    for round in rounds {
        for (want, got) in reference.iter_mut().zip(&mut dense) {
            prop_assert_eq!(
                verdict_bits(got.vote(&round)),
                verdict_bits(want.vote(&round)),
                "{}: verdict of round {}",
                want.name(),
                round.round
            );
            prop_assert_eq!(
                record_bits(got.histories()),
                record_bits(want.histories()),
                "{}: records after round {}",
                want.name(),
                round.round
            );
        }
    }
    Ok(())
}

/// UC-1 with its +6 klm `Offset` fault, through both stores.
#[test]
fn dense_history_voters_match_memory_history_on_uc1() {
    let clean = LightScenario::new(5, 300, 7).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 7);
    stores_agree(history_voters, history_voters, faulty.iter_rounds()).unwrap();
}

/// FNV-1a, fed one little-endian `u64` at a time.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn records(&mut self, records: &[(ModuleId, f64)]) {
        self.word(records.len() as u64);
        for &(m, v) in records {
            self.word(u64::from(m.index()));
            self.word(v.to_bits());
        }
    }

    fn verdict(&mut self, verdict: Result<Verdict, VoteError>) {
        let Ok(v) = verdict else {
            return self.word(u64::MAX);
        };
        self.word(v.number().map_or(u64::MAX - 1, f64::to_bits));
        self.records(&v.weights);
        self.word(v.excluded.len() as u64);
        for m in &v.excluded {
            self.word(u64::from(m.index()));
        }
        self.word(v.confidence.to_bits());
        self.word(u64::from(v.bootstrapped));
    }
}

/// `count` rounds of six sensors near 20 from a fixed seed: one reading in
/// five missing, one in seven far off, and every sixteenth round empty.
fn seeded_sparse_rounds(seed: u64, count: u64) -> Vec<Round> {
    let mut state = seed;
    (0..count)
        .map(|round| {
            let values: Vec<Option<f64>> = (0..6)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let draw = state >> 33;
                    let x = (draw >> 8) as f64 / (1u64 << 23) as f64 - 0.5;
                    match draw % 35 {
                        _ if round % 16 == 15 => None,
                        d if d % 5 == 0 => None,
                        d if d % 7 == 0 => Some(100.0 * x),
                        _ => Some(20.0 + 0.4 * x),
                    }
                })
                .collect();
            Round::from_sparse_numbers(round, &values)
        })
        .collect()
}

/// What `history_family_is_pinned` drives each history voter over, from
/// fresh records (`None`) or from every module's record seeded to one value:
/// UC-1 under each fault kind, a sparse trace, UC-1's opening rounds with a
/// lone reading every other round, and the opening rounds from all-`0` and
/// all-`1` records.
fn pinned_inputs() -> Vec<(Option<f64>, Vec<Round>)> {
    let clean = LightScenario::new(5, 200, 7).generate();
    let faults = [
        FaultKind::Offset(6.0),
        FaultKind::StuckAt(25.0),
        FaultKind::Dropout { probability: 0.3 },
        FaultKind::Spike {
            probability: 0.1,
            magnitude: 8.0,
        },
        FaultKind::Drift { per_round: 0.02 },
        FaultKind::NoiseBurst { sigma: 1.0 },
    ];
    let mut inputs: Vec<(Option<f64>, Vec<Round>)> = faults
        .into_iter()
        .map(|kind| {
            let faulty = FaultInjector::new(3, kind).apply(&clean, 7);
            (None, faulty.iter_rounds().collect())
        })
        .collect();
    inputs.push((None, seeded_sparse_rounds(29, 200)));
    let opening = inputs[0].1[..40].to_vec();
    let lone = opening
        .iter()
        .map(|r| {
            let keep = (r.round % 5) as u32;
            let ballots = r.ballots.iter().map(|b| {
                if r.round % 2 == 0 || b.module.index() == keep {
                    b.clone()
                } else {
                    Ballot::missing(b.module)
                }
            });
            Round::new(r.round, ballots.collect())
        })
        .collect();
    inputs.push((None, lone));
    inputs.push((Some(0.0), opening.clone()));
    inputs.push((Some(1.0), opening));
    inputs
}

/// One FNV-1a hash per history voter over every verdict and the records
/// after every round of `inputs`, each input from a fresh voter.
fn family_hashes<S: HistoryStore + 'static>(
    store: fn() -> S,
    inputs: &[(Option<f64>, Vec<Round>)],
) -> Vec<(&'static str, u64)> {
    family_hashes_by(store, inputs, false)
}

/// [`family_hashes`]; with `by_row`, a whole round goes to the voter as the
/// row of its values ([`Voter::vote_row_into`]), and as the round again
/// where the voter takes no row (a stateful voter whose store does not
/// hold every record side by side), as the engine sends it.
fn family_hashes_by<S: HistoryStore + 'static>(
    store: fn() -> S,
    inputs: &[(Option<f64>, Vec<Round>)],
    by_row: bool,
) -> Vec<(&'static str, u64)> {
    let mut hashes: Vec<(&'static str, Fnv1a)> = history_voters(store)
        .iter()
        .map(|v| (v.name(), Fnv1a::new()))
        .collect();
    for (seed, rounds) in inputs {
        for (mut voter, (_, hash)) in history_voters(store).into_iter().zip(&mut hashes) {
            if let Some(record) = *seed {
                let records: Vec<(ModuleId, f64)> =
                    (0..5).map(|m| (ModuleId::new(m), record)).collect();
                voter.seed_history(&records);
            }
            for round in rounds {
                let row: Option<Vec<f64>> = round
                    .ballots
                    .iter()
                    .map(|b| b.value.as_ref()?.as_number())
                    .collect();
                let mut verdict = Verdict::empty();
                let by_row = row.filter(|_| by_row);
                let verdict = match by_row.and_then(|v| voter.vote_row_into(&v, &mut verdict)) {
                    Some(voted) => voted.map(|()| verdict),
                    None => voter.vote(round),
                };
                hash.verdict(verdict);
                hash.records(&voter.histories());
            }
        }
    }
    hashes.into_iter().map(|(name, h)| (name, h.0)).collect()
}

/// `count` rounds of six sensors spread about ±7 % around 20 from a fixed
/// seed, one in eight far off: most pairs sit between the 5 % agreement
/// threshold and twice it, so peer weights, graded scores and records are
/// sums of fractions, whose value depends on the order they are added in.
fn seeded_soft_band_rounds(seed: u64, count: u64) -> Vec<Round> {
    let mut state = seed;
    (0..count)
        .map(|round| {
            let values: Vec<f64> = (0..6)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let draw = state >> 33;
                    let x = (draw >> 8) as f64 / (1u64 << 22) as f64 - 1.0;
                    if draw.is_multiple_of(8) {
                        60.0 + 10.0 * x
                    } else {
                        20.0 * (1.0 + 0.07 * x)
                    }
                })
                .collect();
            Round::from_numbers(round, &values)
        })
        .collect()
}

/// The history family over `seeded_soft_band_rounds`, pinned bit for bit
/// (hashed as in `history_family_is_pinned`): where the scores are graded,
/// a sum taken in another order moves the hash. Through both stores, and
/// through the row entry as through the round one.
#[test]
fn history_family_is_pinned_in_the_soft_band() {
    const PINNED: [(&str, u64); 7] = [
        ("stateless-weighted", 0xd282_f25c_539f_c823),
        ("standard", 0x07a0_4319_41b1_73a1),
        ("module-elimination", 0x04d8_51d6_c043_55f1),
        ("soft-dynamic-threshold", 0x756a_253b_aaf0_1c20),
        ("hybrid", 0xcd36_66ce_2a56_cac3),
        ("clustering-only", 0x20f2_879c_8767_3baf),
        ("avoc", 0x7e46_95ee_6ce1_51c5),
    ];
    let inputs = vec![(None, seeded_soft_band_rounds(41, 300))];
    for by_row in [false, true] {
        let memory = family_hashes_by(MemoryHistory::new, &inputs, by_row);
        assert_eq!(memory, PINNED, "by row: {by_row}");
        let dense = family_hashes_by(DenseHistory::new, &inputs, by_row);
        assert_eq!(dense, PINNED, "by row: {by_row}");
    }
}

/// The stateless baseline, the §4 history family, COV and AVOC, pinned bit
/// for bit over both stores: any change to a verdict's value, weights,
/// exclusions, confidence or bootstrap flag, or to a record after any round,
/// moves its voter's hash.
#[test]
fn history_family_is_pinned() {
    const PINNED: [(&str, u64); 7] = [
        ("stateless-weighted", 0x9647_4397_46d7_7c01),
        ("standard", 0x93f2_d886_9bce_92c4),
        ("module-elimination", 0x2efa_3c78_dcc4_2cb8),
        ("soft-dynamic-threshold", 0x650d_093b_e803_bb9a),
        ("hybrid", 0x8071_9845_2583_4297),
        ("clustering-only", 0xf0e5_3c38_e074_ce9d),
        ("avoc", 0xd4b2_8bd7_1121_25bc),
    ];
    let inputs = pinned_inputs();
    assert_eq!(family_hashes(MemoryHistory::new, &inputs), PINNED);
    assert_eq!(family_hashes(DenseHistory::new, &inputs), PINNED);
}

/// The categorical majority voter, in both history modes, over seeded door
/// sensor text.
#[test]
fn dense_history_majority_voters_match_memory_history() {
    for seed in [1, 7, 42] {
        let rounds = seeded_text_rounds(seed, 200);
        stores_agree(majority_voters, majority_voters, rounds).unwrap();
    }
}

/// The categorical voter in all three history modes, pinned bit for bit over
/// both stores: any change to a verdict's text, weights, exclusions or
/// confidence, to a tie's candidates, or to a record after any round, moves
/// its mode's hash.
#[test]
fn majority_modes_are_pinned() {
    const PINNED: [(MajorityHistory, u64); 3] = [
        (MajorityHistory::None, 0xa58f_3b44_ea39_e756),
        (MajorityHistory::Standard, 0xd9ee_01ba_a8ba_9422),
        (MajorityHistory::ModuleElimination, 0x7d28_7958_0724_3240),
    ];
    fn hash<S: HistoryStore + Send>(mode: MajorityHistory, store: fn() -> S) -> u64 {
        let mut hash = Fnv1a::new();
        for seed in [1, 7, 42] {
            let mut voter = MajorityVoter::new(mode, store());
            for round in seeded_text_rounds(seed, 200) {
                let verdict = voter.vote(&round);
                let texts = match &verdict {
                    Ok(v) => v.value.as_text().into_iter().collect(),
                    Err(VoteError::Tie { candidates }) => {
                        candidates.iter().map(String::as_str).collect()
                    }
                    Err(_) => Vec::new(),
                };
                for text in texts {
                    hash.word(text.len() as u64);
                    text.bytes().for_each(|b| hash.word(u64::from(b)));
                }
                hash.verdict(verdict);
                hash.records(&voter.histories());
            }
        }
        hash.0
    }
    for (mode, pinned) in PINNED {
        assert_eq!(hash(mode, MemoryHistory::new), pinned, "{mode:?}");
        assert_eq!(
            hash(mode, DenseHistory::new),
            pinned,
            "{mode:?} over DenseHistory"
        );
    }
}

/// The daemon's batch path at the benchmark's input shape, pinned bit for
/// bit: eight `avoc` sessions fuse 4 096 rounds of UC-1 each (module 3
/// reading +6 klm, session `s` shifted by `0.25 × s`), fed through
/// [`VoterService::feed_batch`] in 64-round frames into a `crossbeam`
/// sink. One FNV-1a runs over `(session, round, value bits, voted)` in
/// session-then-round order, so any change to a fused value, a verdict
/// flag, a lost or doubled round moves it.
#[test]
fn daemon_batch_path_is_pinned() {
    const PINNED: u64 = 0xe80b_d0e8_8263_9037;
    const SESSIONS: u64 = 8;
    const MODULES: u32 = 5;
    const ROUNDS: u64 = 4096;
    const FRAME_ROUNDS: u64 = 64;
    let clean = LightScenario::new(MODULES as usize, ROUNDS as usize, 1).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 1);

    let mut registry = SpecRegistry::new();
    registry.insert("avoc", VdxSpec::avoc());
    let config = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let service = VoterService::start(config, std::sync::Arc::new(registry));
    let (sink, results) = crossbeam::channel::unbounded();
    for s in 0..SESSIONS {
        service
            .open_session(s, MODULES, &SpecSource::Named("avoc".into()), sink.clone())
            .expect("open session");
    }
    let mut frame = Vec::new();
    for start in (0..ROUNDS).step_by(FRAME_ROUNDS as usize) {
        for s in 0..SESSIONS {
            frame.clear();
            for round in start..start + FRAME_ROUNDS {
                let row = faulty.row(round as usize);
                frame.extend((0..MODULES).map(|m| avoc::net::BatchReading {
                    module: ModuleId::new(m),
                    round,
                    value: row[m as usize].expect("the light trace has no gaps") + s as f64 * 0.25,
                }));
            }
            service.feed_batch(s, &frame).expect("feed_batch");
        }
    }
    for s in 0..SESSIONS {
        service.close_session(s).expect("close session");
    }
    let quiesced = service.drain();
    assert_eq!(quiesced.rounds_fused, SESSIONS * ROUNDS);
    drop(sink);

    let mut streams = vec![Vec::new(); SESSIONS as usize];
    while let Ok(msg) = results.try_recv() {
        match msg {
            avoc::net::Message::SessionResult {
                session,
                round,
                value,
                voted,
            } => streams[session as usize].push((round, value, voted)),
            avoc::net::Message::ResultBatch { session, results } => streams[session as usize]
                .extend(results.iter().map(|r| (r.round, r.value, r.voted))),
            other => panic!("unexpected sink frame {other:?}"),
        }
    }
    let mut hash = Fnv1a::new();
    for (session, stream) in streams.iter().enumerate() {
        assert_eq!(stream.len() as u64, ROUNDS, "session {session}");
        for &(round, value, voted) in stream {
            hash.word(session as u64);
            hash.word(round);
            hash.word(value.map_or(u64::MAX, f64::to_bits));
            hash.word(u64::from(voted));
        }
    }
    assert_eq!(hash.0, PINNED, "{:#x}", hash.0);
}

/// The rounds of [`daemon_hole_path_is_pinned`]: five modules over UC-1
/// (module 3 reading +6 klm), where module 4 skips rounds 5–8 of every 16
/// (the last three rounds among them), module 1 reads NaN every seventh
/// round and module 2 reads 150 klm, out of `smart-building.json`'s range,
/// every eleventh.
fn hole_roster(rounds: u64) -> Vec<avoc::net::BatchReading> {
    let clean = LightScenario::new(5, rounds as usize, 3).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 3);
    (0..rounds)
        .flat_map(|r| {
            let row = faulty.row(r as usize);
            (0..5u32)
                .filter(move |&m| !(m == 4 && (5..=8).contains(&(r % 16))))
                .map(move |m| avoc::net::BatchReading {
                    module: ModuleId::new(m),
                    round: r,
                    value: match m {
                        1 if r % 7 == 3 => f64::NAN,
                        2 if r % 11 == 6 => 150.0,
                        _ => row[m as usize].expect("the light trace has no gaps"),
                    },
                })
        })
        .collect()
}

/// Runs `roster` through a fresh two-shard service — deadline flushes two
/// rounds on, a sweep point every 64 ticks, one frame in three traced —
/// as session `session` under `spec`, in 64-round `FeedBatch` frames or,
/// without `frames`, one `feed` per reading. The session is closed with
/// rounds still open. Returns its results in emission order.
fn hole_stream(
    spec: &VdxSpec,
    roster: &[avoc::net::BatchReading],
    session: u64,
    frames: bool,
) -> Vec<(u64, Option<f64>, bool)> {
    let mut registry = SpecRegistry::new();
    registry.insert("spec", spec.clone());
    let config = ServeConfig {
        shards: 2,
        idle_ticks: 1,
        lag_tolerance: 2,
        trace_sample: 3,
        ..ServeConfig::default()
    };
    let service = VoterService::start(config, std::sync::Arc::new(registry));
    let (sink, results) = crossbeam::channel::unbounded();
    service
        .open_session(session, 5, &SpecSource::Named("spec".into()), sink)
        .expect("open session");
    if frames {
        for frame in roster.chunk_by(|a, b| a.round / 64 == b.round / 64) {
            service.feed_batch(session, frame).expect("feed_batch");
        }
    } else {
        for b in roster {
            service
                .feed(session, b.module, b.round, b.value)
                .expect("feed");
        }
    }
    service.close_session(session).expect("close session");
    service.drain();
    let mut stream = Vec::new();
    while let Ok(msg) = results.try_recv() {
        match msg {
            avoc::net::Message::SessionResult {
                round,
                value,
                voted,
                ..
            } => stream.push((round, value, voted)),
            avoc::net::Message::ResultBatch { results, .. } => {
                stream.extend(results.iter().map(|r| (r.round, r.value, r.voted)));
            }
            other => panic!("unexpected sink frame {other:?}"),
        }
    }
    stream
}

/// The daemon's rounds with holes, pinned bit for bit: rounds that go out
/// on the deadline, close incomplete or carry a NaN reading, next to whole
/// rounds straddling burst boundaries and sweep points, traced and not,
/// for `avoc`, `standard`, `average` (a voter with no row entry) and
/// `smart-building.json` (an exclusion policy). Each spec's roster is fed
/// in 64-round `FeedBatch` frames (session 0) and one reading at a time
/// (session 1); both streams must be the same, and one FNV-1a runs over
/// `(session, round, value bits, voted)` of all of them.
#[test]
fn daemon_hole_path_is_pinned() {
    const PINNED: u64 = 0x96bf_651b_efda_85bd;
    const ROUNDS: u64 = 200;
    let building = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/smart-building.json");
    let specs = [
        VdxSpec::avoc(),
        VdxSpec::preset("standard").expect("preset"),
        VdxSpec::preset("average").expect("preset"),
        VdxSpec::from_file(building).expect("shipped spec parses"),
    ];
    let roster = hole_roster(ROUNDS);
    let mut hash = Fnv1a::new();
    for spec in &specs {
        let frames = hole_stream(spec, &roster, 0, true);
        let one_by_one = hole_stream(spec, &roster, 1, false);
        assert_eq!(frames.len() as u64, ROUNDS, "{}", spec.algorithm_name);
        let bits = |s: &[(u64, Option<f64>, bool)]| -> Vec<_> {
            s.iter()
                .map(|&(round, value, voted)| (round, value.map(f64::to_bits), voted))
                .collect()
        };
        assert_eq!(bits(&frames), bits(&one_by_one), "{}", spec.algorithm_name);
        for (session, stream) in [(0u64, &frames), (1, &one_by_one)] {
            for &(round, value, voted) in stream {
                hash.word(session);
                hash.word(round);
                hash.word(value.map_or(u64::MAX, f64::to_bits));
                hash.word(u64::from(voted));
            }
        }
    }
    assert_eq!(hash.0, PINNED, "{:#x}", hash.0);
}

/// `count` rounds of six units reporting a 3-D position near (20, 40, 60)
/// from a fixed seed: one ballot in six missing, one coordinate in seven far
/// off, unit 2 drifting along the second axis, and every sixteenth round
/// empty.
fn seeded_vector_rounds(seed: u64, count: u64) -> Vec<Round> {
    let mut state = seed;
    let mut draw = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut rounds = Vec::new();
    for round in 0..count {
        let mut ballots = Vec::new();
        for m in 0..6u32 {
            let module = ModuleId::new(m);
            if round % 16 == 15 || draw() % 6 == 0 {
                ballots.push(Ballot::missing(module));
                continue;
            }
            let mut coords = Vec::new();
            for d in 0..3u32 {
                let r = draw();
                let x = (r >> 8) as f64 / (1u64 << 23) as f64 - 0.5;
                let centre = 20.0 * f64::from(d + 1);
                let drift = if (m, d) == (2, 1) {
                    0.05 * round as f64
                } else {
                    0.0
                };
                coords.push(match r % 7 {
                    0 => centre + 100.0 * x,
                    _ => centre + drift + 0.4 * x,
                });
            }
            ballots.push(Ballot::new(module, coords));
        }
        rounds.push(Round::new(round, ballots));
    }
    rounds
}

/// Dimension `d` of a vector round, as a scalar round.
fn project(round: &Round, d: usize) -> Round {
    let ballots = round
        .ballots
        .iter()
        .map(|b| match b.value.as_ref().and_then(Value::as_vector) {
            Some(coords) => Ballot::new(b.module, coords[d]),
            None => Ballot::missing(b.module),
        });
    Round::new(round.round, ballots.collect())
}

/// §5's "voting on each dimension separately", bit for bit: for every
/// `history` value with the bootstrap off, a vector spec's verdict is the
/// scalar spec's verdicts on each projected round, with the smallest
/// confidence, the sorted union of the exclusions, any dimension's bootstrap
/// flag and uniform presence weights.
#[test]
fn per_dimension_equals_independent_scalar_voters() {
    const DIM: usize = 3;
    let rounds = seeded_vector_rounds(11, 300);
    for preset in ["average", "stateless", "standard", "me", "sdt", "hybrid"] {
        let scalar = VdxSpec::preset(preset).expect("shipped preset");
        assert!(!scalar.bootstrapping, "{preset}");
        let mut vector_spec = scalar.clone();
        vector_spec.value_kind = avoc::vdx::ValueKind::Vector;
        vector_spec.dimensions = Some(DIM);
        let mut vector = build_voter(&vector_spec).expect("vector spec builds");
        let mut scalars: Vec<Box<dyn Voter>> = (0..DIM)
            .map(|_| build_voter(&scalar).expect("scalar spec builds"))
            .collect();
        for round in &rounds {
            let got = vector.vote(round);
            let want: Result<Vec<Verdict>, VoteError> = scalars
                .iter_mut()
                .enumerate()
                .map(|(d, v)| v.vote(&project(round, d)))
                .collect();
            let at = format!("{preset}, round {}", round.round);
            let (got, want) = match (got, want) {
                (Ok(got), Ok(want)) => (got, want),
                (got, want) => {
                    assert_eq!(got.err(), want.err(), "{at}");
                    continue;
                }
            };
            let coords = got.value.as_vector().expect("vector output");
            let want_coords: Vec<f64> = want.iter().map(|v| v.number().expect("scalar")).collect();
            assert_eq!(
                coords.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want_coords.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{at}: coordinates"
            );
            let confidence = want
                .iter()
                .map(|v| v.confidence)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(
                got.confidence.to_bits(),
                confidence.to_bits(),
                "{at}: confidence"
            );
            let mut excluded: Vec<ModuleId> =
                want.iter().flat_map(|v| v.excluded.clone()).collect();
            excluded.sort_unstable();
            excluded.dedup();
            assert_eq!(got.excluded, excluded, "{at}: excluded");
            assert_eq!(
                got.bootstrapped,
                want.iter().any(|v| v.bootstrapped),
                "{at}"
            );
            let present = round.ballots.iter().filter(|b| b.is_present());
            let weights: Vec<(ModuleId, f64)> = present.map(|b| (b.module, 1.0)).collect();
            assert_eq!(got.weights, weights, "{at}: weights");
        }
    }
}

/// Every preset, and every numeric or vector spec shipped in `specs/`.
fn numeric_and_vector_specs() -> Vec<(String, VdxSpec)> {
    let presets = [
        "average",
        "stateless",
        "standard",
        "me",
        "sdt",
        "hybrid",
        "cov",
        "avoc",
    ];
    let mut specs: Vec<(String, VdxSpec)> = presets
        .iter()
        .map(|p| (p.to_string(), VdxSpec::preset(p).expect("shipped preset")))
        .collect();
    let mut files: Vec<_> = std::fs::read_dir("specs")
        .expect("specs/ readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    for path in files {
        let spec = VdxSpec::from_file(&path).expect("shipped spec parses");
        if spec.value_kind != avoc::vdx::ValueKind::Categorical {
            specs.push((path.display().to_string(), spec));
        }
    }
    specs
}

/// A stream the spec can vote on: for a vector spec, the seeded 3-D
/// positions cut to its dimensions; otherwise UC-1 with its +6 klm fault,
/// moved into the spec's `RANGE` exclusion window when it has one.
fn plausible_rounds(spec: &VdxSpec, count: u64) -> Vec<Round> {
    if let Some(dims) = spec.dimensions {
        let cut = |b: &Ballot| match b.value.as_ref().and_then(Value::as_vector) {
            Some(coords) => Ballot::new(b.module, coords[..dims].to_vec()),
            None => Ballot::missing(b.module),
        };
        return seeded_vector_rounds(5, count)
            .iter()
            .map(|r| Round::new(r.round, r.ballots.iter().map(cut).collect()))
            .collect();
    }
    let shift = match (spec.exclusion_min, spec.exclusion_max) {
        (Some(lo), Some(hi)) => (lo + hi) / 2.0 - 18.0,
        _ => 0.0,
    };
    let clean = LightScenario::new(5, count as usize, 7).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, 7);
    faulty
        .iter_rounds()
        .map(|r| {
            let ballots = r.ballots.iter().map(|b| match b.value.as_ref() {
                Some(Value::Number(x)) => Ballot::new(b.module, x + shift),
                _ => b.clone(),
            });
            Round::new(r.round, ballots.collect())
        })
        .collect()
}

/// A round outcome, floats as bits.
fn outcome_bits(
    outcome: Result<RoundResult, VoteError>,
) -> Result<(Vec<u64>, Option<VerdictBits>, String), VoteError> {
    outcome.map(|r| {
        let value = match r.value() {
            Some(Value::Number(x)) => vec![x.to_bits()],
            Some(Value::Vector(coords)) => coords.iter().map(|x| x.to_bits()).collect(),
            _ => Vec::new(),
        };
        match r {
            RoundResult::Voted(v) => (value, verdict_bits(Ok(v)).ok(), String::new()),
            other => (value, None, format!("{other:?}")),
        }
    })
}

/// A NaN or infinite reading is a missing ballot: for every preset and
/// every numeric or vector shipped spec, one module reporting NaN, `+inf`
/// or `-inf` — in the bootstrap round and again in a warm round, as a
/// number or as one vector coordinate — leaves every verdict and every
/// record bit-identical to the same stream with that ballot missing, and
/// every record finite in [0, 1]. None of it may panic.
#[test]
fn non_finite_readings_vote_as_missing_ballots() {
    const ROUNDS: u64 = 40;
    const POISONED: [u64; 2] = [0, 20];
    let module = ModuleId::new(1);
    for (name, spec) in numeric_and_vector_specs() {
        let rounds = plausible_rounds(&spec, ROUNDS);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = build_engine(&spec).expect("spec builds");
            let mut reference = build_engine(&spec).expect("spec builds");
            for round in &rounds {
                let (mut sent, mut missing) = (round.clone(), round.clone());
                if POISONED.contains(&round.round) {
                    let value = match spec.dimensions {
                        Some(dims) => {
                            let mut coords = vec![20.0; dims];
                            coords[dims - 1] = bad;
                            Value::Vector(coords)
                        }
                        None => Value::Number(bad),
                    };
                    let slot = module.index() as usize;
                    sent.ballots[slot] = Ballot::new(module, value);
                    missing.ballots[slot] = Ballot::missing(module);
                }
                let at = format!("{name}, {bad} at round {}", round.round);
                assert_eq!(
                    outcome_bits(poisoned.submit(&sent)),
                    outcome_bits(reference.submit(&missing)),
                    "{at}: outcome"
                );
                let records = poisoned.histories();
                assert_eq!(
                    record_bits(records.clone()),
                    record_bits(reference.histories()),
                    "{at}: records"
                );
                for (m, h) in records {
                    assert!((0.0..=1.0).contains(&h), "{at}: record of {m} is {h}");
                }
            }
        }
    }
}

/// Makes the two engines a row trace goes through: the one fed rows and
/// the one fed the rounds they stand for.
type EngineMaker = Box<dyn Fn() -> (VotingEngine, VotingEngine)>;

/// Every engine a row can reach: each preset and each shipped spec
/// (categorical and vector ones too, for which a row of numbers is a type
/// error), `avoc` and `standard` under other quorum, exclusion and fault
/// policies, and the majority voter over `MemoryHistory`, the reference
/// store, each as twins. The specs build over `DenseHistory`, where a row
/// and a whole round both read their records in place; the seven history
/// voters are also paired across the stores, rows over one and rounds over
/// the other, so records read in place are checked against records
/// gathered through `get` and `set`.
fn row_engines() -> Vec<(String, EngineMaker)> {
    let presets = [
        "average",
        "stateless",
        "standard",
        "me",
        "sdt",
        "hybrid",
        "cov",
        "avoc",
    ];
    let mut specs: Vec<(String, VdxSpec)> = presets
        .iter()
        .map(|p| (p.to_string(), VdxSpec::preset(p).expect("shipped preset")))
        .collect();
    let mut files: Vec<_> = std::fs::read_dir("specs")
        .expect("specs/ readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    for path in files {
        let spec = VdxSpec::from_file(&path).expect("shipped spec parses");
        specs.push((path.display().to_string(), spec));
    }
    let mut engines: Vec<(String, EngineMaker)> = specs
        .into_iter()
        .map(|(name, spec)| {
            let make = move || build_engine(&spec).expect("spec builds");
            (name, Box::new(move || (make(), make())) as EngineMaker)
        })
        .collect();
    type Variant = fn(VotingEngine) -> VotingEngine;
    let variants: [(&str, Variant); 6] = [
        ("quorum count(4)", |e| e.with_quorum(Quorum::Count(4))),
        ("quorum fraction(0.75)", |e| {
            e.with_quorum(Quorum::Fraction(0.75))
        }),
        ("quorum any", |e| e.with_quorum(Quorum::Any)),
        ("exclusion stddev(1.5)", |e| {
            e.with_exclusion(Exclusion::StdDev(1.5))
        }),
        ("exclusion range [0, 50]", |e| {
            e.with_exclusion(Exclusion::Range {
                min: 0.0,
                max: 50.0,
            })
        }),
        ("every fault an error", |e| {
            e.with_policy(FaultPolicy {
                on_no_quorum: FallbackAction::Error,
                on_voter_error: FallbackAction::Error,
                on_tie: TieBreak::Error,
            })
        }),
    ];
    for preset in ["avoc", "standard"] {
        for (variant, apply) in variants {
            let spec = VdxSpec::preset(preset).expect("shipped preset");
            let make = move || apply(build_engine(&spec).expect("spec builds"));
            engines.push((
                format!("{preset}, {variant}"),
                Box::new(move || (make(), make())),
            ));
        }
    }
    for at in 0..history_voters(MemoryHistory::new).len() {
        let dense = move || VotingEngine::new(history_voters(DenseHistory::new).swap_remove(at));
        let memory = move || VotingEngine::new(history_voters(MemoryHistory::new).swap_remove(at));
        engines.push((
            format!("history voter {at}, rows over DenseHistory, rounds over MemoryHistory"),
            Box::new(move || (dense(), memory())),
        ));
        engines.push((
            format!("history voter {at}, rows over MemoryHistory, rounds over DenseHistory"),
            Box::new(move || (memory(), dense())),
        ));
    }
    for at in 0..majority_voters(MemoryHistory::new).len() {
        let make = move || VotingEngine::new(majority_voters(MemoryHistory::new).swap_remove(at));
        engines.push((
            format!("majority voter {at} over MemoryHistory"),
            Box::new(move || (make(), make())),
        ));
    }
    engines
}

/// One row of a row trace: calm (a tight cluster near 20) or scattered
/// (module `i` near `100 × 10^i`, so no two agree, nor any with their mean), `width` values wide.
/// `bad` below 8 makes that module's value NaN, `+inf` or `-inf`; from 8
/// to 15 it makes module `bad - 8` a calm row's outlier.
fn row_values(scatter: bool, width: usize, bad: u8, xs: &[f64]) -> Vec<f64> {
    (0..width)
        .map(|i| match usize::from(bad) {
            b if b == i => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3],
            _ if scatter => 100.0 * 10f64.powi(i as i32) * (1.0 + 0.01 * xs[i]),
            b if b == i + 8 => 20.0 + 30.0 * xs[i],
            _ => 20.0 + 0.1 * xs[i],
        })
        .collect()
}

/// Strategy: a trace of 1–80 rows in calm and scattered segments of 1–16
/// rows. A scattered segment of ten rows or more after calm ones collapses
/// every record to `0`, so a bootstrapping voter clusters again. A row is
/// the trace's width (1–8) or, one in eight, another, and about one in
/// six holds a non-finite value.
fn row_traces() -> impl Strategy<Value = Vec<Vec<f64>>> {
    let segments = prop::collection::vec((any::<bool>(), 1usize..=16), 1..=5);
    (1usize..=8, segments).prop_flat_map(|(width, segments)| {
        let rows: usize = segments.iter().map(|&(_, len)| len).sum();
        let draw = (
            0u8..8,
            1usize..=8,
            0u8..48,
            prop::collection::vec(-1.0f64..1.0, 8),
        );
        prop::collection::vec(draw, rows..=rows).prop_map(move |draws| {
            let modes = segments
                .iter()
                .flat_map(|&(scatter, len)| std::iter::repeat_n(scatter, len));
            modes
                .zip(draws)
                .map(|(scatter, (reshape, other, bad, xs))| {
                    let width = if reshape == 0 { other } else { width };
                    row_values(scatter, width, bad, &xs)
                })
                .collect()
        })
    })
}

/// `submit_row(round, values)` against `submit_ref` of
/// `Round::from_numbers(round, values)` on the paired engine: the outcome
/// (variant, value, weights, excluded, confidence, bootstrapped — floats
/// as bits — or the error) and the records after every row.
fn rows_vote_as_rounds(
    engines: &[(String, EngineMaker)],
    rows: &[Vec<f64>],
) -> Result<(), TestCaseError> {
    for (name, make) in engines {
        let (mut by_row, mut by_round) = make();
        for (round, values) in rows.iter().enumerate() {
            let round = round as u64;
            let want = outcome_bits(
                by_round
                    .submit_ref(&Round::from_numbers(round, values))
                    .cloned(),
            );
            let got = outcome_bits(by_row.submit_row(round, values).cloned());
            prop_assert_eq!(got, want, "{}: outcome of row {} {:?}", name, round, values);
            prop_assert_eq!(
                record_bits(by_row.histories()),
                record_bits(by_round.histories()),
                "{}: records after row {}",
                name,
                round
            );
        }
    }
    Ok(())
}

/// A calm stretch, a long scattered one that collapses every record, and
/// calm again: the `avoc` preset clusters in round 0 and again once the
/// records have collapsed, by row as by round.
#[test]
fn rows_bootstrap_again_after_records_collapse() {
    let xs = [0.3, -0.2, 0.1, -0.4, 0.2, 0.0, 0.0, 0.0];
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|r| row_values((5..20).contains(&r), 5, u8::MAX, &xs))
        .collect();
    let mut engine = build_engine(&VdxSpec::avoc()).expect("preset builds");
    let bootstrapped: Vec<u64> = (0..rows.len() as u64)
        .filter(|&r| match engine.submit_row(r, &rows[r as usize]) {
            Ok(RoundResult::Voted(v)) => v.bootstrapped,
            _ => false,
        })
        .collect();
    assert_eq!(bootstrapped.first(), Some(&0));
    assert!(
        bootstrapped.len() > 1,
        "no second bootstrap: {bootstrapped:?}"
    );
    let avoc = row_engines().into_iter().filter(|(name, _)| name == "avoc");
    rows_vote_as_rounds(&avoc.collect::<Vec<_>>(), &rows).unwrap();
}

proptest! {
    /// Every numeric voter's output lies within the candidate hull, its
    /// weights are non-negative, and its confidence is a fraction.
    #[test]
    fn verdicts_stay_inside_the_candidate_hull(rounds in trace_values()) {
        for mut voter in all_voters() {
            for (i, values) in rounds.iter().enumerate() {
                let round = Round::from_numbers(i as u64, values);
                let verdict = voter.vote(&round).expect("full numeric round");
                let out = verdict.number().expect("numeric output");
                let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9,
                    "{}: output {out} outside [{lo}, {hi}]", voter.name());
                prop_assert!(verdict.weights.iter().all(|(_, w)| *w >= 0.0));
                prop_assert!((0.0..=1.0).contains(&verdict.confidence));
            }
        }
    }

    /// The history-aware voters cannot tell `DenseHistory` from
    /// `MemoryHistory`, missing readings included.
    #[test]
    fn dense_history_voters_match_memory_history(rounds in sparse_trace_values()) {
        stores_agree(
            history_voters,
            history_voters,
            rounds
                .iter()
                .enumerate()
                .map(|(i, values)| Round::from_sparse_numbers(i as u64, values)),
        )?;
    }

    /// A row votes as the round it stands for, through every engine
    /// `row_engines` makes.
    #[test]
    fn rows_vote_as_the_rounds_they_stand_for(rows in row_traces()) {
        rows_vote_as_rounds(&row_engines(), &rows)?;
    }

    /// Histories remain in [0, 1] no matter what data arrives.
    #[test]
    fn histories_stay_in_unit_interval(rounds in trace_values()) {
        for mut voter in all_voters() {
            for (i, values) in rounds.iter().enumerate() {
                let _ = voter.vote(&Round::from_numbers(i as u64, values));
                for (_, h) in voter.histories() {
                    prop_assert!((0.0..=1.0).contains(&h),
                        "{}: history {h} out of range", voter.name());
                }
            }
        }
    }

    /// Agreement scores are symmetric, bounded, and the soft score
    /// dominates the binary score.
    #[test]
    fn agreement_scores_behave(a in -1e6f64..1e6, b in -1e6f64..1e6,
                               error in 0.0f64..0.5, mult in 1.0f64..5.0) {
        let p = AgreementParams::new(error, mult, avoc::core::MarginMode::Relative);
        let soft_ab = p.soft_score(a, b);
        let soft_ba = p.soft_score(b, a);
        let bin = p.binary_score(a, b);
        prop_assert!((soft_ab - soft_ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&soft_ab));
        prop_assert!(soft_ab >= bin);
        prop_assert_eq!(p.binary_score(a, a), 1.0);
    }

    /// The agreement clusterer partitions the input: every index appears in
    /// exactly one cluster, and the clusters are size-sorted.
    #[test]
    fn clusterer_partitions_input(values in candidate_values(),
                                  threshold in 0.0f64..0.5) {
        let clustering = AgreementClusterer::new(threshold, MarginMode::Relative)
            .cluster(&values);
        let mut seen = vec![0usize; values.len()];
        for c in clustering.clusters() {
            for &i in c.members() {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "not a partition: {seen:?}");
        let sizes: Vec<usize> = clustering.clusters().iter().map(|c| c.len()).collect();
        prop_assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Collation: the weighted mean is inside the hull of positive-weight
    /// candidates; mean-NN returns one of them; the median is a candidate.
    #[test]
    fn collation_respects_candidates(values in candidate_values()) {
        use avoc::core::collation::collate;
        let weights: Vec<f64> = (0..values.len())
            .map(|i| if i % 3 == 0 { 0.0 } else { 1.0 + i as f64 })
            .collect();
        let kept: Vec<f64> = values.iter().zip(&weights)
            .filter(|(_, &w)| w > 0.0).map(|(&v, _)| v).collect();
        if kept.is_empty() {
            prop_assert_eq!(collate(Collation::WeightedMean, &values, &weights), None);
            return Ok(());
        }
        let lo = kept.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = kept.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = collate(Collation::WeightedMean, &values, &weights).unwrap();
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        let mnn = collate(Collation::MeanNearestNeighbor, &values, &weights).unwrap();
        prop_assert!(kept.contains(&mnn));
        let med = collate(Collation::Median, &values, &weights).unwrap();
        prop_assert!(kept.contains(&med));
    }

    /// Quorum is monotone in the number of present ballots.
    #[test]
    fn quorum_is_monotone(expected in 1usize..20, frac in 0.0f64..1.0) {
        for q in [Quorum::Any, Quorum::Majority, Quorum::Fraction(frac),
                  Quorum::Count(expected / 2 + 1)] {
            let mut met = false;
            for present in 0..=expected {
                let now = q.is_met(present, expected);
                prop_assert!(!met || now, "{q:?} lost quorum at {present}/{expected}");
                met = now;
            }
        }
    }

    /// The wire codec round-trips any finite reading.
    #[test]
    fn message_codec_round_trips(module in 0u32..1000, round in 0u64..1_000_000,
                                 value in -1e9f64..1e9) {
        use avoc::net::Message;
        let msg = Message::Reading {
            module: ModuleId::new(module),
            round,
            value,
        };
        let mut buf = bytes::BytesMut::from(&msg.encode()[..]);
        prop_assert_eq!(Message::decode(&mut buf).unwrap(), msg);
        prop_assert!(buf.is_empty());
    }

    /// The engine absorbs arbitrary missing patterns without panicking, and
    /// every voted output is in the candidate hull.
    #[test]
    fn engine_handles_arbitrary_missingness(
        pattern in prop::collection::vec(prop::option::of(-50.0f64..50.0), 1..=9),
        rounds in 1usize..10,
    ) {
        let mut engine = build_engine(&VdxSpec::avoc()).unwrap();
        for r in 0..rounds {
            let round = Round::from_sparse_numbers(r as u64, &pattern);
            match engine.submit(&round) {
                Ok(result) => {
                    if let Some(out) = result.number() {
                        let present: Vec<f64> = pattern.iter().flatten().copied().collect();
                        if !present.is_empty() && result.is_voted() {
                            let lo = present.iter().cloned().fold(f64::INFINITY, f64::min);
                            let hi = present.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9);
                        }
                    }
                }
                Err(e) => prop_assert!(false, "engine surfaced {e}"),
            }
        }
    }

    /// VDX documents survive a JSON round trip: every enum/flag exactly,
    /// every float to within 1 ulp (the float parser of the vendored JSON
    /// build is not guaranteed bit-exact).
    #[test]
    fn vdx_round_trips(preset in prop::sample::select(vec![
        "average", "stateless", "standard", "me", "sdt", "hybrid", "cov", "avoc",
    ]), error in 0.001f64..0.5, soft in 1.0f64..4.0, rate in 0.001f64..1.0) {
        let mut spec = VdxSpec::preset(preset).unwrap();
        spec.params.error = error;
        spec.params.soft_threshold = soft;
        spec.params.learning_rate = rate;
        let json = spec.to_json();
        let back = VdxSpec::from_json(&json).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= f64::EPSILON * a.abs().max(b.abs());
        prop_assert!(close(back.params.error, spec.params.error));
        prop_assert!(close(back.params.soft_threshold, spec.params.soft_threshold));
        prop_assert!(close(back.params.learning_rate, spec.params.learning_rate));
        let mut normalised = back.clone();
        normalised.params = spec.params;
        prop_assert_eq!(normalised, spec);
    }

    /// Fault injection only ever touches the targeted module.
    #[test]
    fn fault_injection_is_scoped(module in 0usize..4, offset in -10.0f64..10.0,
                                 seed in 0u64..100) {
        let clean = LightScenario::new(4, 30, seed).generate();
        let faulty = FaultInjector::new(module, FaultKind::Offset(offset))
            .apply(&clean, seed);
        for r in 0..clean.rounds() {
            for m in 0..4 {
                let c = clean.row(r)[m].unwrap();
                let f = faulty.row(r)[m].unwrap();
                if m == module {
                    prop_assert!((f - c - offset).abs() < 1e-9);
                } else {
                    prop_assert_eq!(c, f);
                }
            }
        }
    }
}
