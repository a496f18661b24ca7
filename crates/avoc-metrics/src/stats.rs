//! Summary statistics over output series.

use std::fmt;

/// Summary of a numeric series (gaps skipped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of non-missing samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
}

impl Summary {
    /// Summarises a series, skipping `None` gaps. Returns `None` when no
    /// samples remain.
    pub fn of(series: &[Option<f64>]) -> Option<Summary> {
        let xs: Vec<f64> = series.iter().flatten().copied().collect();
        Self::of_values(&xs)
    }

    /// Summarises a dense series. Returns `None` when empty.
    fn of_values(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        Some(Summary {
            count: xs.len(),
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            median,
        })
    }

    /// The `p`-th percentile (0–100) of a series via nearest-rank.
    ///
    /// Returns `None` for an empty series.
    pub fn percentile(series: &[f64], p: f64) -> Option<f64> {
        if series.is_empty() {
            return None;
        }
        let mut sorted = series.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        Some(sorted[rank])
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} med={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.median, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn summary_skips_gaps() {
        let s = Summary::of(&[Some(1.0), None, Some(3.0)]).unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn empty_is_none() {
        assert!(Summary::of(&[None, None]).is_none());
        assert!(Summary::of_values(&[]).is_none());
    }

    #[test]
    fn std_dev_of_constant_is_zero() {
        let s = Summary::of_values(&[5.0; 10]).unwrap();
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert_eq!(Summary::percentile(&xs, 0.0), Some(0.0));
        assert_eq!(Summary::percentile(&xs, 50.0), Some(50.0));
        assert_eq!(Summary::percentile(&xs, 100.0), Some(100.0));
        assert_eq!(Summary::percentile(&[], 50.0), None);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::of_values(&[1.0, 2.0]).unwrap();
        assert!(s.to_string().contains("n=2"));
    }
}
