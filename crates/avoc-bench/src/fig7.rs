//! Figure 7 of the paper (UC-2: BLE beacon stacks), seed 2022.
//!
//! * `a` — single beacon per stack: closest stack mostly ambiguous
//! * `b` — 9-beacon plain average per stack: visibly less ambiguous
//! * `c` — 9-beacon AVOC (mean-NN) per stack
//! * `groups` — every algorithm's discrimination, and the output distance
//!   between pairs of them

use crate::metrics::series::max_abs;
use crate::metrics::{diff_series, AmbiguityReport, AsciiPlot, Table};
use crate::{downsample, run_voter, Error, Fig6Config};
use avoc_sim::{BleScenario, BleTrace};
use std::io::{self, Write};

const PLOT_W: usize = 100;
const PLOT_H: usize = 14;
/// The RSSI gap below which the closer stack counts as ambiguous.
const MARGIN_DB: f64 = 2.0;
/// The algorithm and title of Fig. 7-b and of Fig. 7-c.
const FIG_B: (&str, &str) = ("avg", "Fig 7-b: 9-beacon average per stack");
const FIG_C: (&str, &str) = ("avoc", "Fig 7-c: 9-beacon AVOC voting per stack");

/// Prints one part of Fig. 7 (`a`, `b`, `c`, `groups`) or `all` of them.
pub(crate) fn print(out: &mut impl Write, part: &str) -> Result<(), Error> {
    let trace = BleScenario::paper_default(2022).generate();
    match part {
        "a" => fig_a(out, &trace)?,
        "b" => fig_bc(out, &trace, FIG_B)?,
        "c" => fig_bc(out, &trace, FIG_C)?,
        "groups" => groups(out, &trace)?,
        "all" => {
            fig_a(out, &trace)?;
            fig_bc(out, &trace, FIG_B)?;
            fig_bc(out, &trace, FIG_C)?;
            groups(out, &trace)?;
        }
        other => return Err(Error::Usage(format!("unknown figure `fig7 {other}`"))),
    }
    Ok(())
}

fn truth(trace: &BleTrace) -> Vec<bool> {
    (0..trace.rounds())
        .map(|r| trace.stack_a_closer(r))
        .collect()
}

fn plot_pair(
    out: &mut impl Write,
    title: &str,
    a: &[Option<f64>],
    b: &[Option<f64>],
) -> io::Result<()> {
    let mut plot = AsciiPlot::new(title, PLOT_W, PLOT_H);
    plot.series('A', downsample(a, PLOT_W));
    plot.series('B', downsample(b, PLOT_W));
    write!(out, "{}", plot.render())
}

fn fig_a(out: &mut impl Write, trace: &BleTrace) -> io::Result<()> {
    let a = trace.stack_a.series(0);
    let b = trace.stack_b.series(0);
    plot_pair(out, "Fig 7-a: single beacon per stack (RSSI dBm)", &a, &b)?;
    let report = AmbiguityReport::evaluate(&a, &b, &truth(trace), MARGIN_DB);
    writeln!(out, "  single-beacon: {report}\n")
}

/// Runs one roster algorithm over both stacks and reports ambiguity.
fn fused_outputs(trace: &BleTrace, algo: &str) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
    let cfg = Fig6Config::default();
    let mut va = cfg.voter(algo);
    let mut vb = cfg.voter(algo);
    (
        run_voter(va.as_mut(), &trace.stack_a),
        run_voter(vb.as_mut(), &trace.stack_b),
    )
}

fn fig_bc(out: &mut impl Write, trace: &BleTrace, (algo, title): (&str, &str)) -> io::Result<()> {
    let (a, b) = fused_outputs(trace, algo);
    plot_pair(out, title, &a, &b)?;
    let report = AmbiguityReport::evaluate(&a, &b, &truth(trace), MARGIN_DB);
    writeln!(out, "  {algo}: {report}\n")
}

fn groups(out: &mut impl Write, trace: &BleTrace) -> io::Result<()> {
    let cfg = Fig6Config::default();
    let names: Vec<&str> = cfg.roster().iter().map(|(n, _)| *n).collect();
    let truth = truth(trace);

    let mut outputs = Vec::new();
    let mut t = Table::new(vec![
        "algorithm".into(),
        "collation".into(),
        "correct".into(),
        "ambiguous".into(),
        "misclassified".into(),
        "accuracy".into(),
    ]);
    for name in &names {
        let (a, b) = fused_outputs(trace, name);
        let report = AmbiguityReport::evaluate(&a, &b, &truth, MARGIN_DB);
        let collation = match *name {
            "hybrid" | "avoc" => "mean-NN",
            _ => "averaging",
        };
        t.row(vec![
            (*name).into(),
            collation.into(),
            report.correct.to_string(),
            report.ambiguous.to_string(),
            report.misclassified.to_string(),
            format!("{:.1}%", report.accuracy() * 100.0),
        ]);
        outputs.push((*name, a, b));
    }
    writeln!(
        out,
        "== §7 UC-2: stack discrimination per algorithm (margin {MARGIN_DB} dB) =="
    )?;
    writeln!(out, "{t}")?;

    // The paper's grouping claim: within a collation group the history
    // method has (almost) no effect; across groups the outputs differ.
    let mut g = Table::new(vec![
        "pair".into(),
        "max |Δ| stack A (dB)".into(),
        "same group?".into(),
    ]);
    let pairs = [
        ("standard", "me"),
        ("standard", "sdt"),
        ("me", "sdt"),
        ("avg", "standard"),
        ("hybrid", "avoc"),
        ("avg", "avoc"),
        ("standard", "hybrid"),
    ];
    for (x, y) in pairs {
        let ax = &outputs.iter().find(|(n, _, _)| *n == x).expect("roster").1;
        let ay = &outputs.iter().find(|(n, _, _)| *n == y).expect("roster").1;
        let d = max_abs(&diff_series(ax, ay)).unwrap_or(0.0);
        let same = matches!(
            (x, y),
            ("standard", "me")
                | ("standard", "sdt")
                | ("me", "sdt")
                | ("avg", "standard")
                | ("hybrid", "avoc")
        );
        g.row(vec![
            format!("{x} vs {y}"),
            format!("{d:.3}"),
            if same { "yes".into() } else { "no".into() },
        ]);
    }
    writeln!(
        out,
        "== collation grouping (paper: history method has no effect; two groups) =="
    )?;
    writeln!(out, "{g}")
}
