//! ASCII tables and plots for the experiment binaries — the terminal
//! counterpart of the paper's figures and of the Fig. 5 comparison app.

use std::fmt;

/// A simple fixed-width ASCII table.
///
/// # Example
///
/// ```
/// use avoc_bench::metrics::Table;
///
/// let mut t = Table::new(vec!["algorithm".into(), "rounds".into()]);
/// t.row(vec!["avoc".into(), "1".into()]);
/// t.row(vec!["hybrid".into(), "4".into()]);
/// let rendered = t.to_string();
/// assert!(rendered.contains("avoc"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match {} headers",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (cell, w) in cells.iter().zip(&widths) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<width$}|", "", width = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// A terminal line plot for one or more (gappy) series — the textual
/// stand-in for the paper's figures.
#[derive(Debug, Clone)]
pub(crate) struct AsciiPlot {
    title: String,
    width: usize,
    height: usize,
    series: Vec<(char, Vec<Option<f64>>)>,
}

impl AsciiPlot {
    /// Creates a plot canvas.
    ///
    /// # Panics
    ///
    /// Panics when `width` or `height` is zero.
    pub(crate) fn new(title: impl Into<String>, width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "plot dimensions must be positive");
        AsciiPlot {
            title: title.into(),
            width,
            height,
            series: Vec::new(),
        }
    }

    /// Adds a series drawn with the given glyph.
    pub(crate) fn series(&mut self, glyph: char, data: Vec<Option<f64>>) -> &mut Self {
        self.series.push((glyph, data));
        self
    }

    /// Renders the plot.
    pub(crate) fn render(&self) -> String {
        let values: Vec<f64> = self
            .series
            .iter()
            .flat_map(|(_, s)| s.iter().flatten().copied())
            .collect();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        if values.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = if (hi - lo).abs() < 1e-12 {
            1.0
        } else {
            hi - lo
        };
        let max_len = self.series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);

        let mut grid = vec![vec![' '; self.width]; self.height];
        for (glyph, data) in &self.series {
            for (i, v) in data.iter().enumerate() {
                let Some(v) = v else { continue };
                let x = if max_len <= 1 {
                    0
                } else {
                    i * (self.width - 1) / (max_len - 1)
                };
                let yf = (v - lo) / span;
                let y = ((1.0 - yf) * (self.height - 1) as f64).round() as usize;
                grid[y.min(self.height - 1)][x.min(self.width - 1)] = *glyph;
            }
        }
        for (r, row) in grid.iter().enumerate() {
            let label = if r == 0 {
                format!("{hi:>10.2} ")
            } else if r == self.height - 1 {
                format!("{lo:>10.2} ")
            } else {
                " ".repeat(11)
            };
            out.push_str(&label);
            out.push('|');
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&" ".repeat(11));
        out.push('+');
        out.push_str(&"-".repeat(self.width));
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_alignment() {
        let mut t = Table::new(vec!["name".into(), "value".into()]);
        t.row(vec!["avoc".into(), "1".into()]);
        t.row(vec!["module-elimination".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("| name"));
        assert!(s.contains("module-elimination"));
        // All lines equally wide.
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn ragged_row_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new(vec!["x".into()]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.to_string().contains("| x |"));
    }

    #[test]
    fn plot_renders_extremes() {
        let mut p = AsciiPlot::new("test", 20, 5);
        p.series('*', (0..20).map(|i| Some(i as f64)).collect());
        let s = p.render();
        assert!(s.contains("== test =="));
        assert!(s.contains("19.00"));
        assert!(s.contains("0.00"));
        assert!(s.contains('*'));
    }

    #[test]
    fn plot_handles_empty_and_flat_series() {
        let p = AsciiPlot::new("empty", 10, 3);
        assert!(p.render().contains("(no data)"));

        let mut p = AsciiPlot::new("flat", 10, 3);
        p.series('x', vec![Some(5.0); 10]);
        let s = p.render();
        assert!(s.contains('x'));
    }

    #[test]
    fn plot_skips_gaps() {
        let mut p = AsciiPlot::new("gaps", 10, 3);
        p.series('o', vec![Some(1.0), None, Some(2.0)]);
        let s = p.render();
        assert_eq!(s.matches('o').count(), 2);
    }
}
