//! Figure 6 of the paper (UC-1: light sensors, error injection), seed 1973.
//!
//! * `a` — raw reference data (Fig. 6-a)
//! * `b` — voting output of every variant on clean data (Fig. 6-b)
//! * `c` — raw data with the +6 klm fault on E4 (Fig. 6-c)
//! * `d` — voting output under the fault (Fig. 6-d)
//! * `e` — per-algorithm output difference faulty-vs-clean (Fig. 6-e)
//! * `f` — zoom on the first 10 rounds (Fig. 6-f)
//! * `table` — convergence metrics and the AVOC boost ratios (§7 headline)

use crate::metrics::series::max_abs;
use crate::metrics::{diff_series, AsciiPlot, ConvergenceReport, Summary, Table};
use crate::{converge, downsample, run_voter, Error, Fig6Config, EPSILON_KLM, SUSTAIN, WINDOW};
use avoc_sim::RecordedTrace;
use std::io::{self, Write};

const PLOT_W: usize = 100;
const PLOT_H: usize = 16;

/// Prints one part of Fig. 6 (`a`..`f`, `table`) or `all` of them.
pub(crate) fn print(out: &mut impl Write, part: &str) -> Result<(), Error> {
    let cfg = Fig6Config::default();
    let clean = cfg.clean_trace();
    let faulty = cfg.faulty_trace();
    let runs = || Runs {
        clean: outputs_on(&cfg, &clean),
        faulty: outputs_on(&cfg, &faulty),
    };
    match part {
        "a" => fig_a(out, &clean)?,
        "b" => fig_b(out, &runs())?,
        "c" => fig_c(out, &faulty)?,
        "d" => fig_d(out, &runs())?,
        "e" => fig_e(out, &runs(), None)?,
        "f" => fig_e(out, &runs(), Some(10))?,
        "table" => table(out, &runs())?,
        "all" => {
            let runs = runs();
            fig_a(out, &clean)?;
            fig_b(out, &runs)?;
            fig_c(out, &faulty)?;
            fig_d(out, &runs)?;
            fig_e(out, &runs, None)?;
            fig_e(out, &runs, Some(10))?;
            table(out, &runs)?;
        }
        other => return Err(Error::Usage(format!("unknown figure `fig6 {other}`"))),
    }
    Ok(())
}

/// Every roster algorithm's output series, in roster order, on the clean
/// and on the faulty trace.
struct Runs {
    clean: Vec<(&'static str, Vec<Option<f64>>)>,
    faulty: Vec<(&'static str, Vec<Option<f64>>)>,
}

fn outputs_on(cfg: &Fig6Config, trace: &RecordedTrace) -> Vec<(&'static str, Vec<Option<f64>>)> {
    cfg.roster()
        .into_iter()
        .map(|(name, mut voter)| (name, run_voter(voter.as_mut(), trace)))
        .collect()
}

fn algo_glyph(name: &str) -> char {
    match name {
        "avg" => 'a',
        "stateless" => 'w',
        "standard" => 's',
        "me" => 'm',
        "sdt" => 'd',
        "hybrid" => 'h',
        "clustering" => 'c',
        "avoc" => 'A',
        _ => '?',
    }
}

/// Plots every sensor of `trace`, glyph `1` for the first.
fn raw_plot(title: &str, trace: &RecordedTrace) -> String {
    let mut plot = AsciiPlot::new(title, PLOT_W, PLOT_H);
    for s in 0..trace.modules().len() {
        let glyph = char::from_digit(s as u32 % 9 + 1, 10).expect("a digit");
        plot.series(glyph, downsample(&trace.series(s), PLOT_W));
    }
    plot.render()
}

fn fig_a(out: &mut impl Write, clean: &RecordedTrace) -> io::Result<()> {
    let title = "Fig 6-a: raw sensor data (klm; glyph = sensor index)";
    write!(out, "{}", raw_plot(title, clean))?;
    for (s, module) in clean.modules().iter().enumerate() {
        let summary = Summary::of(&clean.series(s)).expect("non-empty");
        writeln!(out, "  {module}: {summary}")?;
    }
    writeln!(out)
}

fn fig_c(out: &mut impl Write, faulty: &RecordedTrace) -> io::Result<()> {
    let title = "Fig 6-c: raw sensor data with E4 faulty (+6 klm)";
    writeln!(out, "{}", raw_plot(title, faulty))
}

fn fig_b(out: &mut impl Write, runs: &Runs) -> io::Result<()> {
    let mut plot = AsciiPlot::new(
        "Fig 6-b: voting output on clean data (all variants coincide)",
        PLOT_W,
        PLOT_H,
    );
    for (name, series) in &runs.clean {
        plot.series(algo_glyph(name), downsample(series, PLOT_W));
    }
    write!(out, "{}", plot.render())?;

    let mut t = Table::new(vec![
        "algorithm".into(),
        "mean".into(),
        "sd".into(),
        "max |Δ vs avg|".into(),
    ]);
    let reference = &runs.clean[0].1;
    for (name, series) in &runs.clean {
        let s = Summary::of(series).expect("non-empty");
        let delta = max_abs(&diff_series(series, reference)).unwrap_or(0.0);
        t.row(vec![
            (*name).into(),
            format!("{:.4}", s.mean),
            format!("{:.4}", s.std_dev),
            format!("{delta:.4}"),
        ]);
    }
    writeln!(out, "{t}")
}

fn fig_d(out: &mut impl Write, runs: &Runs) -> io::Result<()> {
    let mut plot = AsciiPlot::new("Fig 6-d: voting output under the E4 fault", PLOT_W, PLOT_H);
    for (name, series) in &runs.faulty {
        if matches!(
            *name,
            "hybrid" | "clustering" | "avoc" | "avg" | "standard" | "me"
        ) {
            plot.series(algo_glyph(name), downsample(series, PLOT_W));
        }
    }
    writeln!(out, "{}", plot.render())
}

fn fig_e(out: &mut impl Write, runs: &Runs, zoom: Option<usize>) -> io::Result<()> {
    let title = match zoom {
        Some(n) => format!("Fig 6-f: error-injection diff, first {n} rounds (bootstrap zoom)"),
        None => "Fig 6-e: error-injection effect on voting (faulty − clean)".to_owned(),
    };
    let mut plot = AsciiPlot::new(title, PLOT_W, PLOT_H);
    let mut t = Table::new(vec![
        "algorithm".into(),
        "mean |Δ|".into(),
        "peak Δ".into(),
        "final Δ".into(),
    ]);
    for ((name, clean_series), (_, faulty_series)) in runs.clean.iter().zip(&runs.faulty) {
        let mut diff = diff_series(faulty_series, clean_series);
        if let Some(n) = zoom {
            diff.truncate(n);
        }
        let abs: Vec<f64> = diff.iter().flatten().map(|v| v.abs()).collect();
        let mean_abs = abs.iter().sum::<f64>() / abs.len().max(1) as f64;
        let peak = max_abs(&diff).unwrap_or(0.0);
        let last = diff.iter().rev().flatten().next().copied().unwrap_or(0.0);
        t.row(vec![
            (*name).into(),
            format!("{mean_abs:.4}"),
            format!("{peak:.4}"),
            format!("{last:.4}"),
        ]);
        plot.series(algo_glyph(name), downsample(&diff, PLOT_W));
    }
    write!(out, "{}", plot.render())?;
    writeln!(out, "{t}")
}

fn table(out: &mut impl Write, runs: &Runs) -> io::Result<()> {
    let reports: Vec<ConvergenceReport> = runs
        .clean
        .iter()
        .zip(&runs.faulty)
        .map(|((name, clean), (_, faulty))| converge(name, clean, faulty))
        .collect();
    let avoc = reports
        .iter()
        .find(|r| r.algorithm == "avoc")
        .expect("avoc in roster")
        .rounds_to_converge;
    let mut t = Table::new(vec![
        "algorithm".into(),
        "rounds to converge".into(),
        "stable |Δ|".into(),
        "peak |Δ|".into(),
        "AVOC boost".into(),
    ]);
    for r in &reports {
        let rounds = r
            .rounds_to_converge
            .map_or("never".to_owned(), |n| n.to_string());
        let boost = match (avoc, r.rounds_to_converge) {
            (Some(a), Some(b)) => {
                // Convergence cost in rounds is index+1 so an instant
                // round-0 convergence is 1 round of cost, not 0.
                format!("{:.1}x", (b + 1) as f64 / (a + 1) as f64)
            }
            (Some(_), None) => "inf".to_owned(),
            _ => "-".to_owned(),
        };
        t.row(vec![
            r.algorithm.clone(),
            rounds,
            format!("{:.4}", r.stable_deviation),
            format!("{:.4}", r.peak_deviation),
            boost,
        ]);
    }
    writeln!(
        out,
        "== §7 UC-1 convergence (ε = {EPSILON_KLM} klm, {WINDOW}-round smoothing, sustained {SUSTAIN} rounds) =="
    )?;
    writeln!(out, "{t}")
}
