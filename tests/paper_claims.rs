//! The paper's headline qualitative claims, asserted as tests. Each test
//! names the §/figure it reproduces; EXPERIMENTS.md records the quantities.

use avoc::metrics::series::max_abs;
use avoc::metrics::{diff_series, AmbiguityReport, ConvergenceReport};
use avoc::prelude::*;
use avoc_core::MemoryHistory;

fn run(voter: &mut dyn Voter, trace: &RecordedTrace) -> Vec<Option<f64>> {
    trace
        .iter_rounds()
        .map(|round| voter.vote(&round).ok().and_then(|v| v.number()))
        .collect()
}

fn light_traces(rounds: usize, seed: u64) -> (RecordedTrace, RecordedTrace) {
    let clean = LightScenario::new(5, rounds, seed).generate();
    let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, seed);
    (clean, faulty)
}

fn mnn_config() -> VoterConfig {
    VoterConfig::new().with_collation(Collation::MeanNearestNeighbor)
}

/// Fig. 6-b: on clean data all voting variants produce (almost) the same
/// output.
#[test]
fn fig6b_all_variants_coincide_on_clean_data() {
    let (clean, _) = light_traces(300, 21);
    let variants: Vec<(&str, Box<dyn Voter>)> = vec![
        ("avg", Box::new(AverageVoter::new())),
        (
            "standard",
            Box::new(HistoryVoter::with_defaults(HistoryAlgorithm::Standard)),
        ),
        (
            "me",
            Box::new(HistoryVoter::with_defaults(
                HistoryAlgorithm::ModuleElimination,
            )),
        ),
        (
            "cov",
            Box::new(ClusteringOnlyVoter::new(VoterConfig::new())),
        ),
    ];
    let reference = {
        let mut avg = AverageVoter::new();
        run(&mut avg, &clean)
    };
    for (name, mut voter) in variants {
        let out = run(voter.as_mut(), &clean);
        let delta = max_abs(&diff_series(&out, &reference)).unwrap();
        assert!(
            delta < 0.2,
            "{name} deviates {delta} from the plain average"
        );
    }
}

/// §7 / Fig. 6-e: the Standard voter's skew is "slowly mitigated ... not
/// eliminated completely" — monotone-ish decline, nonzero residual.
#[test]
fn fig6e_standard_mitigates_slowly_without_eliminating() {
    let (clean, faulty) = light_traces(2_000, 31);
    let cfg = VoterConfig::new()
        .with_agreement(AgreementParams::new(
            0.08,
            2.0,
            avoc::core::MarginMode::Relative,
        ))
        .with_update(avoc::core::HistoryUpdate::new(8e-5));
    let mut clean_voter = HistoryVoter::new(HistoryAlgorithm::Standard, cfg, MemoryHistory::new());
    let mut faulty_voter = HistoryVoter::new(HistoryAlgorithm::Standard, cfg, MemoryHistory::new());
    let diff = diff_series(
        &run(&mut faulty_voter, &faulty),
        &run(&mut clean_voter, &clean),
    );
    let early = diff[5].unwrap();
    let late = diff[1_999].unwrap();
    assert!(early > 1.0, "initial skew ≈ fault/n, got {early}");
    assert!(late < early, "skew must decline, {late} !< {early}");
    assert!(
        late > 0.3,
        "but must NOT be eliminated at this horizon, got {late}"
    );
}

/// §7 / Fig. 6-c discussion: ME eliminates the faulty sensor "in round 2".
#[test]
fn fig6_me_eliminates_faulty_sensor_in_round_two() {
    let (_, faulty) = light_traces(10, 41);
    let cfg = VoterConfig::new().with_agreement(AgreementParams::new(
        0.08,
        2.0,
        avoc::core::MarginMode::Relative,
    ));
    let mut me = HistoryVoter::new(
        HistoryAlgorithm::ModuleElimination,
        cfg,
        MemoryHistory::new(),
    );
    let rounds: Vec<Round> = faulty.iter_rounds().collect();
    let r1 = me.vote(&rounds[0]).unwrap();
    assert!(r1.excluded.is_empty(), "round 1 has no record to act on");
    let r2 = me.vote(&rounds[1]).unwrap();
    assert!(
        r2.excluded.contains(&ModuleId::new(3)),
        "round 2 must eliminate E4, excluded = {:?}",
        r2.excluded
    );
}

/// §5/§7: COV excludes the faulty sensor from the very first round
/// ("Differently from Me, E4 was also excluded from the first round").
#[test]
fn fig6_cov_excludes_fault_from_round_one() {
    let (_, faulty) = light_traces(5, 51);
    let mut cov = ClusteringOnlyVoter::new(VoterConfig::new());
    let verdict = cov.vote(&faulty.iter_rounds().next().unwrap()).unwrap();
    assert!(verdict.excluded.contains(&ModuleId::new(3)));
}

/// §7: COV "significantly outperforms [the] other stateless approach, i.e.,
/// weighted average without history" under the fault.
#[test]
fn fig6_cov_beats_stateless_weighted() {
    let (clean, faulty) = light_traces(500, 61);
    let stable = |voter: &mut dyn Voter, t: &RecordedTrace| -> Vec<Option<f64>> { run(voter, t) };

    let mut cov_c = ClusteringOnlyVoter::new(VoterConfig::new());
    let mut cov_f = ClusteringOnlyVoter::new(VoterConfig::new());
    let cov_dev = max_abs(&diff_series(
        &stable(&mut cov_f, &faulty),
        &stable(&mut cov_c, &clean),
    ))
    .unwrap();

    let mut sw_c = StatelessWeightedVoter::new(VoterConfig::new());
    let mut sw_f = StatelessWeightedVoter::new(VoterConfig::new());
    let sw_dev = max_abs(&diff_series(
        &stable(&mut sw_f, &faulty),
        &stable(&mut sw_c, &clean),
    ))
    .unwrap();

    assert!(
        cov_dev <= sw_dev + 1e-9,
        "cov peak dev {cov_dev} must not exceed stateless-weighted {sw_dev}"
    );
}

/// §7 / Fig. 6-f: AVOC prunes the startup spike that Hybrid (and every
/// history voter) exhibits, and converges strictly faster.
#[test]
fn fig6f_avoc_prunes_bootstrap_spike_and_converges_faster() {
    let (clean, faulty) = light_traces(300, 71);

    let mut hybrid_c =
        HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn_config(), MemoryHistory::new());
    let mut hybrid_f =
        HistoryVoter::new(HistoryAlgorithm::Hybrid, mnn_config(), MemoryHistory::new());
    let hybrid = ConvergenceReport::compare_smoothed(
        "hybrid",
        &run(&mut hybrid_c, &clean),
        &run(&mut hybrid_f, &faulty),
        0.15,
        8,
        8,
    );

    let mut avoc_c = AvocVoter::new(mnn_config(), MemoryHistory::new());
    let mut avoc_f = AvocVoter::new(mnn_config(), MemoryHistory::new());
    let avoc = ConvergenceReport::compare_smoothed(
        "avoc",
        &run(&mut avoc_c, &clean),
        &run(&mut avoc_f, &faulty),
        0.15,
        8,
        8,
    );

    // The spike: Hybrid's peak deviation is the full plain-average skew
    // (≈ 6/5 klm); AVOC's bootstrap caps it well below.
    assert!(
        hybrid.peak_deviation > 1.0,
        "hybrid peak {}",
        hybrid.peak_deviation
    );
    assert!(
        avoc.peak_deviation < 0.7,
        "avoc peak {}",
        avoc.peak_deviation
    );

    // The boost: AVOC converges in fewer rounds.
    let h = hybrid.rounds_to_converge.expect("hybrid converges");
    let a = avoc.rounds_to_converge.expect("avoc converges");
    assert!(a < h, "avoc {a} must beat hybrid {h}");
    // The headline: a multiple-fold boost (the paper reports 4×; we assert
    // the cost ratio ≥ 2× to stay robust across seeds).
    assert!(
        (h + 1) as f64 / (a + 1) as f64 >= 2.0,
        "boost = {}",
        (h + 1) as f64 / (a + 1) as f64
    );
}

/// §7 UC-2: averaging 9 beacons is less ambiguous than a single beacon, and
/// at least as good as mean-NN selection; the history method has no
/// practical effect under chaotic RSSI.
#[test]
fn fig7_redundancy_and_collation_findings() {
    let trace = BleScenario::paper_default(81).generate();
    let truth: Vec<bool> = (0..trace.rounds())
        .map(|r| trace.stack_a_closer(r))
        .collect();
    let margin = 2.0;

    let single = AmbiguityReport::evaluate(
        &trace.stack_a.series(0),
        &trace.stack_b.series(0),
        &truth,
        margin,
    );

    let fuse = |mut voter: Box<dyn Voter>, t: &RecordedTrace| -> Vec<Option<f64>> {
        run(voter.as_mut(), t)
    };

    let avg = AmbiguityReport::evaluate(
        &fuse(Box::new(AverageVoter::new()), &trace.stack_a),
        &fuse(Box::new(AverageVoter::new()), &trace.stack_b),
        &truth,
        margin,
    );
    let avoc = AmbiguityReport::evaluate(
        &fuse(
            Box::new(AvocVoter::new(mnn_config(), MemoryHistory::new())),
            &trace.stack_a,
        ),
        &fuse(
            Box::new(AvocVoter::new(mnn_config(), MemoryHistory::new())),
            &trace.stack_b,
        ),
        &truth,
        margin,
    );

    assert!(
        avg.accuracy() > single.accuracy() + 0.1,
        "9-beacon averaging ({:.2}) must clearly beat a single beacon ({:.2})",
        avg.accuracy(),
        single.accuracy()
    );
    assert!(
        avg.accuracy() >= avoc.accuracy(),
        "averaging ({:.2}) must be at least as accurate as mean-NN ({:.2})",
        avg.accuracy(),
        avoc.accuracy()
    );

    // History has no effect: under chaotic readings the records carry no
    // discriminating signal — they move together (and with the paper's
    // data, collapse together), so the history-weighted output overlaps the
    // plain average. With HWA's conservative adaptation rate the records
    // stay near-uniform and the overlap is essentially exact.
    let std_cfg = VoterConfig::new().with_update(avoc::core::HistoryUpdate::new(8e-5));
    let std_out = fuse(
        Box::new(HistoryVoter::new(
            HistoryAlgorithm::Standard,
            std_cfg,
            MemoryHistory::new(),
        )),
        &trace.stack_a,
    );
    let avg_out = fuse(Box::new(AverageVoter::new()), &trace.stack_a);
    let tail_dev = max_abs(&diff_series(&std_out, &avg_out)).unwrap();
    assert!(
        tail_dev < 0.5,
        "standard must overlap plain averaging, max dev = {tail_dev} dB"
    );
}

/// §6: VDX's categorical restrictions are enforced exactly as written.
#[test]
fn vdx_categorical_restrictions_hold() {
    use avoc::vdx::{ExclusionKind, HistoryKind, ValueKind, VdxCollation};
    let mut spec = VdxSpec::preset("standard").unwrap();
    spec.value_kind = ValueKind::Categorical;
    spec.collation = VdxCollation::WeightedMajority;
    spec.validate().expect("standard history is allowed");

    spec.history = HistoryKind::Hybrid;
    assert!(spec.validate().is_err(), "hybrid must be rejected");
    spec.history = HistoryKind::Standard;

    spec.bootstrapping = true;
    assert!(
        spec.validate().is_err(),
        "clustering bootstrap must be rejected"
    );
    spec.bootstrapping = false;

    spec.exclusion = ExclusionKind::StdDev;
    spec.exclusion_threshold = 2.0;
    assert!(spec.validate().is_err(), "value exclusion must be rejected");
}
