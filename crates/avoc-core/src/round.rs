//! Voting rounds: module identities, ballots and round construction.

use crate::value::Value;
use std::fmt;

/// Identity of a redundant module (a sensor, a beacon, a software replica).
///
/// `ModuleId` is a dense, copyable integer id; human-readable names live at
/// the scenario layer. Histories and weights are keyed by it.
///
/// # Example
///
/// ```
/// use avoc_core::ModuleId;
///
/// let e4 = ModuleId::new(3);
/// assert_eq!(e4.index(), 3);
/// assert_eq!(e4.to_string(), "M3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ModuleId(u32);

impl ModuleId {
    /// Creates a module id from its index.
    pub const fn new(index: u32) -> Self {
        ModuleId(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.0)
    }
}

impl From<u32> for ModuleId {
    fn from(v: u32) -> Self {
        ModuleId(v)
    }
}

/// One module's submission in one round. A missing measurement (the paper's
/// UC-2 fault scenario) is a ballot whose `value` is `None` — the module is
/// *expected* but silent, which matters for quorum.
#[derive(Debug, Clone, PartialEq)]
pub struct Ballot {
    /// The submitting module.
    pub module: ModuleId,
    /// The submitted value, or `None` when the module produced nothing.
    pub value: Option<Value>,
}

impl Ballot {
    /// A ballot carrying a value.
    pub fn new(module: ModuleId, value: impl Into<Value>) -> Self {
        Ballot {
            module,
            value: Some(value.into()),
        }
    }

    /// A ballot for a module that failed to report.
    pub fn missing(module: ModuleId) -> Self {
        Ballot {
            module,
            value: None,
        }
    }

    /// Whether the ballot carries a value.
    pub fn is_present(&self) -> bool {
        self.value.is_some()
    }
}

/// One complete round of concurrent measurements presented to a voter.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Monotonic round number.
    pub round: u64,
    /// Ballots, one per expected module.
    pub ballots: Vec<Ballot>,
}

impl Round {
    /// Creates a round from ballots.
    pub fn new(round: u64, ballots: Vec<Ballot>) -> Self {
        Round { round, ballots }
    }

    /// Convenience constructor: a round of scalar readings where every
    /// module reported. Module ids are assigned positionally (`0..n`).
    ///
    /// # Example
    ///
    /// ```
    /// use avoc_core::Round;
    ///
    /// let round = Round::from_numbers(0, &[18.2, 18.3, 18.1]);
    /// assert_eq!(round.present_count(), 3);
    /// ```
    pub fn from_numbers(round: u64, values: &[f64]) -> Self {
        Round {
            round,
            ballots: values
                .iter()
                .enumerate()
                .map(|(i, &v)| Ballot::new(ModuleId::new(i as u32), v))
                .collect(),
        }
    }

    /// Like [`Round::from_numbers`] but `None` entries become missing
    /// ballots.
    pub fn from_sparse_numbers(round: u64, values: &[Option<f64>]) -> Self {
        Round {
            round,
            ballots: values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let m = ModuleId::new(i as u32);
                    match v {
                        Some(x) => Ballot::new(m, *x),
                        None => Ballot::missing(m),
                    }
                })
                .collect(),
        }
    }

    /// Number of expected modules in this round.
    pub fn expected_count(&self) -> usize {
        self.ballots.len()
    }

    /// Number of modules that actually reported a value.
    pub fn present_count(&self) -> usize {
        self.ballots.iter().filter(|b| b.is_present()).count()
    }

    /// Iterator over `(module, f64)` for the present scalar ballots.
    ///
    /// Ballots holding non-scalar values are skipped; the numeric voters
    /// report such a ballot as a [`crate::VoteError::TypeMismatch`]
    /// instead.
    pub fn present_numbers(&self) -> impl Iterator<Item = (ModuleId, f64)> + '_ {
        self.ballots.iter().filter_map(|b| {
            b.value
                .as_ref()
                .and_then(Value::as_number)
                .map(|v| (b.module, v))
        })
    }

    /// Extracts the categorical candidates for a majority vote into `out`
    /// (cleared first): the indices of the present ballots, so their text is
    /// borrowed from the round rather than copied.
    ///
    /// # Errors
    ///
    /// [`crate::VoteError::TypeMismatch`] when a present ballot holds a
    /// non-text value.
    pub fn text_candidates_into(&self, out: &mut Vec<usize>) -> Result<(), crate::VoteError> {
        out.clear();
        for (i, b) in self.ballots.iter().enumerate() {
            match &b.value {
                Some(Value::Text(_)) => out.push(i),
                Some(v) => {
                    return Err(crate::VoteError::TypeMismatch {
                        expected: "text",
                        got: v.kind(),
                    })
                }
                None => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_id_ordering_and_display() {
        let a = ModuleId::new(0);
        let b = ModuleId::new(4);
        assert!(a < b);
        assert_eq!(b.to_string(), "M4");
        assert_eq!(ModuleId::from(7u32).index(), 7);
    }

    #[test]
    fn from_numbers_assigns_positional_ids() {
        let r = Round::from_numbers(3, &[1.0, 2.0]);
        assert_eq!(r.round, 3);
        assert_eq!(r.ballots[1].module, ModuleId::new(1));
        assert_eq!(r.expected_count(), 2);
        assert_eq!(r.present_count(), 2);
    }

    #[test]
    fn sparse_round_counts_missing() {
        let r = Round::from_sparse_numbers(0, &[Some(1.0), None, Some(3.0)]);
        assert_eq!(r.expected_count(), 3);
        assert_eq!(r.present_count(), 2);
        assert!(!r.ballots[1].is_present());
    }

    #[test]
    fn text_candidates_errors_on_number() {
        let bad = Round::new(
            0,
            vec![
                Ballot::new(ModuleId::new(0), "open"),
                Ballot::new(ModuleId::new(1), 2.0),
            ],
        );
        let err = bad.text_candidates_into(&mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            crate::VoteError::TypeMismatch { got: "number", .. }
        ));
    }

    #[test]
    fn present_numbers_iterates_pairs() {
        let r = Round::from_numbers(0, &[10.0, 20.0]);
        let pairs: Vec<(ModuleId, f64)> = r.present_numbers().collect();
        assert_eq!(
            pairs,
            vec![(ModuleId::new(0), 10.0), (ModuleId::new(1), 20.0)]
        );
    }
}
