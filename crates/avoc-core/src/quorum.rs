//! Quorum policies: how many candidates must submit before a vote triggers.
//!
//! VDX (§6) exposes `quorum` / `quorum_percentage`; Listing 1 uses
//! `"UNTIL"` with `100`, i.e. the vote waits until all expected candidates
//! report.

use std::fmt;

/// When a round has enough ballots to vote.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Quorum {
    /// Vote on whatever arrived (at least one value).
    Any,
    /// Require at least `n` present ballots.
    Count(usize),
    /// Require at least this fraction (`0..=1`) of the *expected* modules to
    /// report — the VDX `UNTIL`/percentage semantics.
    Fraction(f64),
    /// Require a strict majority of the expected modules — the trust
    /// boundary the paper identifies for missing-value faults: "if the
    /// majority or all values are missing, the result would no longer be
    /// trustworthy".
    #[default]
    Majority,
}

impl Quorum {
    /// The number of present ballots required, for a round expecting
    /// `expected` modules.
    pub fn required(&self, expected: usize) -> usize {
        match *self {
            Quorum::Any => 1,
            Quorum::Count(n) => n,
            Quorum::Fraction(f) => {
                let f = f.clamp(0.0, 1.0);
                (f * expected as f64).ceil() as usize
            }
            Quorum::Majority => expected / 2 + 1,
        }
    }

    /// Whether `present` ballots out of `expected` reach the quorum.
    pub fn is_met(&self, present: usize, expected: usize) -> bool {
        present >= self.required(expected).max(1)
    }
}

impl fmt::Display for Quorum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quorum::Any => write!(f, "any"),
            Quorum::Count(n) => write!(f, "count({n})"),
            Quorum::Fraction(p) => write!(f, "fraction({p})"),
            Quorum::Majority => write!(f, "majority"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_requires_one() {
        assert!(Quorum::Any.is_met(1, 9));
        assert!(!Quorum::Any.is_met(0, 9));
    }

    #[test]
    fn count_is_absolute() {
        let q = Quorum::Count(3);
        assert!(!q.is_met(2, 5));
        assert!(q.is_met(3, 5));
        // Count can exceed expected — then it can never be met.
        assert!(!Quorum::Count(6).is_met(5, 5));
    }

    #[test]
    fn fraction_rounds_up() {
        let q = Quorum::Fraction(0.5);
        assert_eq!(q.required(5), 3);
        assert_eq!(q.required(4), 2);
        assert!(q.is_met(3, 5));
        assert!(!q.is_met(2, 5));
    }

    #[test]
    fn fraction_hundred_percent_means_all() {
        let q = Quorum::Fraction(1.0);
        assert!(q.is_met(5, 5));
        assert!(!q.is_met(4, 5));
    }

    #[test]
    fn fraction_zero_still_needs_one_ballot() {
        let q = Quorum::Fraction(0.0);
        assert!(!q.is_met(0, 5));
        assert!(q.is_met(1, 5));
    }

    #[test]
    fn majority_is_strict() {
        let q = Quorum::Majority;
        assert_eq!(q.required(9), 5);
        assert_eq!(q.required(8), 5);
        assert!(q.is_met(5, 9));
        assert!(!q.is_met(4, 9));
    }

    #[test]
    fn fraction_out_of_range_is_clamped() {
        assert_eq!(Quorum::Fraction(1.7).required(4), 4);
        assert_eq!(Quorum::Fraction(-0.2).required(4), 0);
    }

    #[test]
    fn display_variants() {
        assert_eq!(Quorum::Majority.to_string(), "majority");
        assert_eq!(Quorum::Count(3).to_string(), "count(3)");
    }
}
