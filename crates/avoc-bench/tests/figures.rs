//! Every figure and table EXPERIMENTS.md quotes, regenerated and compared
//! byte for byte with `figures.txt`: Fig. 6 a–f and its table (seed 1973),
//! Fig. 7 a–c and its grouping (seed 2022), the convergence boost over ten
//! seeds × 3 000 rounds, the ablations and the comparison app's default run.
//! The `latency` table (wall time) and `datasets` (files) are left out.

const GOLDEN: &str = include_str!("figures.txt");

#[test]
fn every_figure_matches_the_golden_file() {
    let mut out = Vec::new();
    avoc_bench::run(&["figures"], &mut out).expect("figures print");
    let got = String::from_utf8(out).expect("utf-8");
    if got != GOLDEN {
        let want: Vec<&str> = GOLDEN.split_inclusive('\n').collect();
        let have: Vec<&str> = got.split_inclusive('\n').collect();
        let i = (0..)
            .find(|&i| want.get(i) != have.get(i))
            .expect("unequal texts differ in some line");
        panic!(
            "figures differ from figures.txt at line {}:\n want: {:?}\n  got: {:?}",
            i + 1,
            want.get(i),
            have.get(i)
        );
    }
}
