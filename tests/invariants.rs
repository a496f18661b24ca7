//! Property-based invariants over the core data structures, via proptest.

use avoc::cluster::{AgreementClusterer, MarginMode};
use avoc::core::algorithms::MajorityHistory;
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
                hash.verdict(voter.vote(round));
                hash.records(&voter.histories());
            }
        }
    }
    hashes.into_iter().map(|(name, h)| (name, h.0)).collect()
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
