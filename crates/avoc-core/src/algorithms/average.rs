//! Plain (unweighted) averaging — the stateless baseline every history-aware
//! algorithm is compared against, and the fallback the §4 algorithms revert
//! to "on the first round until a historical record is established or when
//! the weights become 0".

use super::{Verdict, Voter};
use crate::error::VoteError;
use crate::round::Round;

/// Stateless plain-average voter (`avg.` in Fig. 6).
///
/// # Example
///
/// ```
/// use avoc_core::algorithms::{AverageVoter, Voter};
/// use avoc_core::Round;
///
/// let mut voter = AverageVoter::new();
/// let verdict = voter.vote(&Round::from_numbers(0, &[18.0, 18.4, 18.2]))?;
/// assert_eq!(verdict.number(), Some(18.2));
/// # Ok::<(), avoc_core::VoteError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AverageVoter {
    _priv: (),
}

impl AverageVoter {
    /// Creates a plain-average voter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Voter for AverageVoter {
    fn name(&self) -> &'static str {
        "average"
    }

    fn vote_into(&mut self, round: &Round, out: &mut Verdict) -> Result<(), VoteError> {
        // Single streaming pass instead of collecting candidate vectors:
        // the plain average needs no per-candidate state at all.
        let mut sum = 0.0;
        let mut n = 0usize;
        for b in &round.ballots {
            if let Some(v) = &b.value {
                match v.as_number() {
                    Some(x) => {
                        sum += x;
                        n += 1;
                    }
                    None => {
                        return Err(VoteError::TypeMismatch {
                            expected: "number",
                            got: v.kind(),
                        })
                    }
                }
            }
        }
        if n == 0 {
            return Err(VoteError::EmptyRound);
        }
        let output = sum / n as f64;
        // Confidence: with uniform weights this is the fraction of candidates
        // within the default agreement band of the mean.
        let params = crate::agreement::AgreementParams::paper_default();
        let agreeing = round
            .present_numbers()
            .filter(|&(_, v)| params.binary_score(v, output) > 0.0)
            .count();
        out.value = output.into();
        out.weights.clear();
        out.weights
            .extend(round.present_numbers().map(|(m, _)| (m, 1.0 / n as f64)));
        out.excluded.clear();
        out.confidence = agreeing as f64 / n as f64;
        out.bootstrapped = false;
        Ok(())
    }

    /// No records, so they are always flat.
    fn bootstrap_pending(&self, _round: &Round) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{Ballot, ModuleId};

    #[test]
    fn averages_present_values_only() {
        let mut v = AverageVoter::new();
        let round = Round::from_sparse_numbers(0, &[Some(10.0), None, Some(20.0)]);
        let verdict = v.vote(&round).unwrap();
        assert_eq!(verdict.number(), Some(15.0));
        assert_eq!(verdict.weights.len(), 2);
    }

    #[test]
    fn empty_round_is_an_error() {
        let mut v = AverageVoter::new();
        let round = Round::from_sparse_numbers(0, &[None, None]);
        assert!(matches!(v.vote(&round), Err(VoteError::EmptyRound)));
    }

    #[test]
    fn skew_is_proportional_to_outlier() {
        let mut v = AverageVoter::new();
        let clean = v.vote(&Round::from_numbers(0, &[18.0; 5])).unwrap();
        let faulty = v
            .vote(&Round::from_numbers(1, &[18.0, 18.0, 18.0, 18.0, 24.0]))
            .unwrap();
        let skew = faulty.number().unwrap() - clean.number().unwrap();
        assert!((skew - 1.2).abs() < 1e-12); // 6/5
    }

    #[test]
    fn rejects_text_ballots() {
        let mut v = AverageVoter::new();
        let round = Round::new(0, vec![Ballot::new(ModuleId::new(0), "x")]);
        assert!(matches!(
            v.vote(&round),
            Err(VoteError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn is_stateless() {
        let v = AverageVoter::new();
        assert!(!v.is_stateful());
        assert!(v.histories().is_empty());
    }
}
