//! Recorded traces: the `(round × module)` measurement matrices that every
//! experiment replays — the synthetic counterpart of the paper's "reference
//! dataset ... of the raw readings from all sensors ... used to compare all
//! voting algorithms on the same set of values" (§3).

use avoc_core::Round;
use std::fmt;
use std::io::{self, Write};

/// A recorded multi-sensor trace. `values[r][m]` is module `m`'s reading in
/// round `r`, or `None` when the module produced nothing (the UC-2
/// missing-value fault).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedTrace {
    modules: Vec<String>,
    values: Vec<Vec<Option<f64>>>,
    sample_rate_hz: f64,
}

impl RecordedTrace {
    /// Creates a trace from module names and row-major values.
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from the module count, or if
    /// `sample_rate_hz` is not positive.
    pub fn new(modules: Vec<String>, values: Vec<Vec<Option<f64>>>, sample_rate_hz: f64) -> Self {
        assert!(
            sample_rate_hz > 0.0 && sample_rate_hz.is_finite(),
            "sample rate must be positive"
        );
        for (r, row) in values.iter().enumerate() {
            assert_eq!(
                row.len(),
                modules.len(),
                "row {r} has {} values for {} modules",
                row.len(),
                modules.len()
            );
        }
        RecordedTrace {
            modules,
            values,
            sample_rate_hz,
        }
    }

    /// Module (sensor) names, in ballot order.
    pub fn modules(&self) -> &[String] {
        &self.modules
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.values.len()
    }

    /// The polling rate the trace was recorded at.
    pub fn sample_rate_hz(&self) -> f64 {
        self.sample_rate_hz
    }

    /// The duration the trace spans, in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.rounds() as f64 / self.sample_rate_hz
    }

    /// One round's raw row.
    ///
    /// # Panics
    ///
    /// Panics if `round` is out of bounds.
    pub fn row(&self, round: usize) -> &[Option<f64>] {
        &self.values[round]
    }

    /// Module `m`'s full series (may contain gaps).
    ///
    /// # Panics
    ///
    /// Panics if `module` is out of bounds.
    pub fn series(&self, module: usize) -> Vec<Option<f64>> {
        assert!(module < self.modules.len(), "module index out of bounds");
        self.values.iter().map(|row| row[module]).collect()
    }

    /// Fraction of measurements that are missing, in `[0, 1]`.
    pub fn missing_fraction(&self) -> f64 {
        let total = self.rounds() * self.modules.len();
        if total == 0 {
            return 0.0;
        }
        let missing = self.values.iter().flatten().filter(|v| v.is_none()).count();
        missing as f64 / total as f64
    }

    /// Iterator over the trace as voting [`Round`]s.
    pub fn iter_rounds(&self) -> impl Iterator<Item = Round> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(r, row)| Round::from_sparse_numbers(r as u64, row))
    }

    /// Writes the trace as CSV: header `round,<module...>`, empty cells for
    /// missing values.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        write!(w, "round")?;
        for m in &self.modules {
            write!(w, ",{m}")?;
        }
        writeln!(w)?;
        for (r, row) in self.values.iter().enumerate() {
            write!(w, "{r}")?;
            for v in row {
                match v {
                    Some(x) => write!(w, ",{x}")?,
                    None => write!(w, ",")?,
                }
            }
            writeln!(w)?;
        }
        Ok(())
    }
}

impl fmt::Display for RecordedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace({} modules × {} rounds @ {} Hz, {:.1}% missing)",
            self.modules.len(),
            self.rounds(),
            self.sample_rate_hz,
            self.missing_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RecordedTrace {
        RecordedTrace::new(
            vec!["E1".into(), "E2".into()],
            vec![
                vec![Some(1.0), Some(2.0)],
                vec![None, Some(3.0)],
                vec![Some(4.0), None],
            ],
            8.0,
        )
    }

    #[test]
    fn accessors() {
        let t = small();
        assert_eq!(t.rounds(), 3);
        assert_eq!(t.modules(), &["E1".to_string(), "E2".to_string()]);
        assert_eq!(t.row(1), &[None, Some(3.0)]);
        assert_eq!(t.series(0), vec![Some(1.0), None, Some(4.0)]);
        assert!((t.duration_secs() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn missing_fraction_counts_gaps() {
        let t = small();
        assert!((t.missing_fraction() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn rounds_iterator_matches_rows() {
        let t = small();
        let rounds: Vec<Round> = t.iter_rounds().collect();
        assert_eq!(rounds.len(), 3);
        assert_eq!(rounds[0].present_count(), 2);
        assert_eq!(rounds[1].present_count(), 1);
        assert_eq!(rounds[2].round, 2);
    }

    #[test]
    fn csv_leaves_missing_cells_empty() {
        let mut buf = Vec::new();
        small().write_csv(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "round,E1,E2\n0,1,2\n1,,3\n2,4,\n"
        );
    }

    #[test]
    #[should_panic(expected = "row 0 has")]
    fn ragged_construction_panics() {
        let _ = RecordedTrace::new(vec!["a".into(), "b".into()], vec![vec![Some(1.0)]], 1.0);
    }

    #[test]
    fn display_summarises() {
        let s = small().to_string();
        assert!(s.contains("2 modules"));
        assert!(s.contains("3 rounds"));
    }
}
