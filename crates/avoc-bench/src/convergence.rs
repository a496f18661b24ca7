//! The headline claim: "this method boosts the convergence of the
//! measurements by 4×" — AVOC's clustering bootstrap versus the
//! state-of-the-art history voters, across seeds.

use crate::metrics::Table;
use crate::{converge, run_voter, Fig6Config, EPSILON_KLM};
use std::io::{self, Write};

/// Seeds 1000.. of the UC-1 trace, each this many rounds long.
const SEEDS: usize = 10;
const ROUNDS: usize = 3_000;

/// Prints the median rounds-to-converge of each history voter and AVOC's
/// boost over it.
pub(crate) fn print(out: &mut impl Write) -> io::Result<()> {
    let algorithms = ["standard", "me", "sdt", "hybrid", "avoc"];

    // rounds-to-converge per algorithm per seed (cost = index + 1).
    let mut costs: Vec<Vec<Option<usize>>> = vec![Vec::new(); algorithms.len()];
    for seed in 0..SEEDS as u64 {
        let cfg = Fig6Config {
            seed: 1000 + seed,
            rounds: ROUNDS,
            ..Fig6Config::default()
        };
        let clean = cfg.clean_trace();
        let faulty = cfg.faulty_trace();
        for (ai, algo) in algorithms.iter().enumerate() {
            let rep = converge(
                algo,
                &run_voter(cfg.voter(algo).as_mut(), &clean),
                &run_voter(cfg.voter(algo).as_mut(), &faulty),
            );
            costs[ai].push(rep.rounds_to_converge.map(|r| r + 1));
        }
    }

    let mut t = Table::new(vec![
        "algorithm".into(),
        "median rounds".into(),
        "mean rounds".into(),
        "converged runs".into(),
        "AVOC boost (median)".into(),
    ]);
    let median = |xs: &mut Vec<usize>| -> Option<f64> {
        if xs.is_empty() {
            return None;
        }
        xs.sort_unstable();
        Some(if xs.len() % 2 == 1 {
            xs[xs.len() / 2] as f64
        } else {
            (xs[xs.len() / 2 - 1] + xs[xs.len() / 2]) as f64 / 2.0
        })
    };

    let avoc_idx = algorithms.iter().position(|a| *a == "avoc").expect("avoc");
    let mut avoc_conv: Vec<usize> = costs[avoc_idx].iter().flatten().copied().collect();
    let avoc_median = median(&mut avoc_conv).unwrap_or(f64::NAN);

    for (ai, algo) in algorithms.iter().enumerate() {
        let mut conv: Vec<usize> = costs[ai].iter().flatten().copied().collect();
        let converged = conv.len();
        let mean = conv.iter().sum::<usize>() as f64 / converged.max(1) as f64;
        let med = median(&mut conv);
        let boost = med.map_or("-".to_owned(), |m| format!("{:.1}x", m / avoc_median));
        t.row(vec![
            (*algo).into(),
            med.map_or("never".into(), |m| format!("{m}")),
            if converged > 0 {
                format!("{mean:.1}")
            } else {
                "never".into()
            },
            format!("{converged}/{SEEDS}"),
            boost,
        ]);
    }
    writeln!(
        out,
        "== AVOC convergence boost over {SEEDS} seeds × {ROUNDS} rounds (ε = {EPSILON_KLM} klm) =="
    )?;
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "(the paper reports AVOC boosting convergence by 4×; the boost column\n reports median rounds-to-converge relative to AVOC's)"
    )
}
