//! Every VDX document shipped under `specs/` must parse, validate and
//! build a working voter — the contract a deployed voter service relies
//! on.

use avoc::prelude::*;
use std::path::PathBuf;

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs")
}

#[test]
fn every_shipped_spec_parses_validates_and_builds() {
    let mut checked = 0;
    for entry in std::fs::read_dir(specs_dir()).expect("specs/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let spec = VdxSpec::from_file(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let engine = build_engine(&spec).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        drop(engine);
        checked += 1;
    }
    assert!(
        checked >= 5,
        "expected the shipped spec set, found {checked}"
    );
}

#[test]
fn shipped_avoc_spec_is_the_paper_listing() {
    let spec = VdxSpec::from_file(specs_dir().join("avoc.json")).unwrap();
    assert_eq!(spec, VdxSpec::avoc());
}

/// A fault policy set from outside the crate: `avoc` with
/// `on_no_quorum: Skip` and `on_tie: First` votes a whole round and skips
/// one that misses its full quorum, with no output.
#[test]
fn a_fault_policy_set_from_outside_skips_a_round_without_quorum() {
    let spec = VdxSpec {
        fault_policy: avoc::vdx::FaultPolicySpec {
            on_no_quorum: avoc::vdx::FallbackKind::Skip,
            on_tie: avoc::vdx::TieBreakKind::First,
            ..Default::default()
        },
        ..VdxSpec::avoc()
    };
    let mut engine = build_engine(&spec).expect("spec builds");
    let whole = engine.submit_row(0, &[18.0, 18.1, 17.9]).expect("round 0");
    assert!(whole.is_voted(), "{whole:?}");
    let holed = engine
        .submit_row(1, &[18.0, f64::NAN, 17.9])
        .expect("round 1");
    assert!(
        matches!(holed, RoundResult::Skipped { .. }) && holed.number().is_none(),
        "{holed:?}"
    );
}

#[test]
fn shipped_specs_run_their_scenarios() {
    // smart-building.json fuses the light testbed.
    let spec = VdxSpec::from_file(specs_dir().join("smart-building.json")).unwrap();
    let mut engine = build_engine(&spec).unwrap();
    let trace = LightScenario::new(5, 20, 3).generate();
    for round in trace.iter_rounds() {
        assert!(engine.submit(&round).unwrap().number().is_some());
    }

    // ble-tunnel.json fuses a beacon stack, tolerating missing values.
    let spec = VdxSpec::from_file(specs_dir().join("ble-tunnel.json")).unwrap();
    let mut engine = build_engine(&spec).unwrap();
    let ble = BleScenario::new(9, 40, 3).generate();
    let mut fused = 0;
    for round in ble.stack_a.iter_rounds() {
        if engine.submit(&round).unwrap().number().is_some() {
            fused += 1;
        }
    }
    assert!(fused > 30, "most rounds must fuse, got {fused}/40");

    // categorical-majority.json votes on strings.
    let spec = VdxSpec::from_file(specs_dir().join("categorical-majority.json")).unwrap();
    let mut engine = build_engine(&spec).unwrap();
    let round = Round::new(
        0,
        vec![
            Ballot::new(ModuleId::new(0), "closed"),
            Ballot::new(ModuleId::new(1), "closed"),
            Ballot::new(ModuleId::new(2), "open"),
        ],
    );
    let out = engine.submit(&round).unwrap();
    assert_eq!(out.value().unwrap().as_text(), Some("closed"));

    // vector-position.json votes per dimension.
    let spec = VdxSpec::from_file(specs_dir().join("vector-position.json")).unwrap();
    let mut engine = build_engine(&spec).unwrap();
    let round = Round::new(
        0,
        vec![
            Ballot::new(ModuleId::new(0), vec![1.0, 5.0]),
            Ballot::new(ModuleId::new(1), vec![1.1, 5.1]),
            Ballot::new(ModuleId::new(2), vec![0.9, 4.9]),
        ],
    );
    let out = engine.submit(&round).unwrap();
    assert_eq!(
        out.value().and_then(|v| v.as_vector().map(<[f64]>::len)),
        Some(2)
    );
}

/// vector-position.json asks for the bootstrap, and gets the vector one: a
/// unit whose coordinates are each plausible but jointly off the cluster is
/// excluded from round 0, and the records seeded from that round keep it out
/// in round 1.
#[test]
fn vector_spec_bootstrap_catches_a_jointly_faulty_unit() {
    let spec = VdxSpec::from_file(specs_dir().join("vector-position.json")).unwrap();
    assert!(spec.bootstrapping);
    let mut engine = build_engine(&spec).unwrap();
    let rows = [
        [10.00, 10.00],
        [10.05, 9.95],
        [9.95, 10.05],
        [10.02, 10.03],
        [10.40, 9.60], // each coordinate inside the 5% band, the pair is not
    ];
    for round in 0..2 {
        let ballots = rows.iter().enumerate();
        let ballots = ballots.map(|(m, row)| Ballot::new(ModuleId::new(m as u32), row.to_vec()));
        let out = engine
            .submit(&Round::new(round, ballots.collect()))
            .unwrap();
        let RoundResult::Voted(verdict) = out else {
            panic!("round {round}: {out:?}");
        };
        assert!(
            verdict.excluded.contains(&ModuleId::new(4)),
            "round {round}: excluded {:?}",
            verdict.excluded
        );
        assert_eq!(verdict.bootstrapped, round == 0, "round {round}");
    }
}

#[test]
fn from_file_reports_missing_files_cleanly() {
    let err = VdxSpec::from_file(specs_dir().join("no-such-spec.json")).unwrap_err();
    assert!(err.to_string().contains("no-such-spec.json"));
}
