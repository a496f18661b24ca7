//! The algorithm-comparison application (the paper's Fig. 5 shows an
//! interactive GUI; this is its terminal counterpart): run any subset of
//! algorithms side by side on a chosen scenario and inspect per-round
//! outputs plus a summary.

use crate::metrics::{Summary, Table};
use crate::{run_voter, Error, Fig6Config};
use avoc_sim::{BleScenario, RecordedTrace};
use std::io::Write;

/// The scenario and the algorithms compared when none are named.
pub(crate) const SCENARIO: &str = "light-faulty";
pub(crate) const ALGORITHMS: [&str; 6] = ["avg", "standard", "me", "hybrid", "clustering", "avoc"];
/// The trace's seed and length, and how many rounds the head table shows.
const SEED: u64 = 7;
const ROUNDS: usize = 500;
const HEAD: usize = 10;

/// Runs `algos` over `scenario` (`light`, `light-faulty` or `ble`) and
/// prints their first outputs side by side, then a summary of each.
pub(crate) fn print(out: &mut impl Write, scenario: &str, algos: &[&str]) -> Result<(), Error> {
    let cfg = Fig6Config {
        seed: SEED,
        rounds: ROUNDS,
        ..Fig6Config::default()
    };
    let trace: RecordedTrace = match scenario {
        "light" => cfg.clean_trace(),
        "light-faulty" => cfg.faulty_trace(),
        "ble" => BleScenario::paper_default(SEED).generate().stack_a,
        other => {
            return Err(Error::Usage(format!(
                "unknown scenario `{other}`; use light|light-faulty|ble"
            )))
        }
    };

    let roster: Vec<&str> = cfg.roster().into_iter().map(|(name, _)| name).collect();
    if let Some(unknown) = algos.iter().find(|a| !roster.contains(a)) {
        return Err(Error::Usage(format!(
            "unknown algorithm `{unknown}`; use {}",
            roster.join("|")
        )));
    }

    let runs: Vec<(&str, Vec<Option<f64>>)> = algos
        .iter()
        .map(|&name| {
            let mut voter = cfg.voter(name);
            (name, run_voter(voter.as_mut(), &trace))
        })
        .collect();

    // Head table: first K rounds side by side.
    let mut headers = vec!["round".to_owned()];
    headers.extend(runs.iter().map(|(n, _)| (*n).to_owned()));
    let mut t = Table::new(headers);
    for r in 0..HEAD.min(trace.rounds()) {
        let mut row = vec![r.to_string()];
        for (_, series) in &runs {
            row.push(series[r].map_or("-".to_owned(), |v| format!("{v:.3}")));
        }
        t.row(row);
    }
    writeln!(out, "== {scenario}: first {HEAD} fused outputs ==")?;
    writeln!(out, "{t}")?;

    // Summary table.
    let mut s = Table::new(vec![
        "algorithm".into(),
        "mean".into(),
        "sd".into(),
        "min".into(),
        "max".into(),
    ]);
    for (name, series) in &runs {
        match Summary::of(series) {
            Some(sum) => {
                s.row(vec![
                    (*name).into(),
                    format!("{:.3}", sum.mean),
                    format!("{:.3}", sum.std_dev),
                    format!("{:.3}", sum.min),
                    format!("{:.3}", sum.max),
                ]);
            }
            None => {
                s.row(vec![
                    (*name).into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    writeln!(out, "== summary over {} rounds ==", trace.rounds())?;
    writeln!(out, "{s}")?;
    Ok(())
}
