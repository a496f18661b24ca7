//! The generated input and the reference it is checked against.
//!
//! One seeded trace — the paper's UC-1: five light sensors, module 3
//! reading +6 klm — is cycled by every session, each shifted by a constant
//! of its own so no two sessions fuse the same stream and a verdict filed
//! under the wrong session cannot pass. The oracle fuses the same readings
//! through an in-process engine built from the same VDX document; the
//! daemon must agree bit for bit.

use avoc_core::{ModuleId, Round};
use avoc_net::BatchReading;
use avoc_sim::{FaultInjector, FaultKind, LightScenario};
use avoc_vdx::{build_engine, VdxSpec};

/// Modules per session (the paper's five light sensors).
pub const MODULES: u32 = 5;
/// Rounds in the generated trace; a session cycles through them.
const TRACE_ROUNDS: usize = 4096;
/// Per-session level shift, klm.
const SESSION_SHIFT: f64 = 0.25;

/// The generated readings for one seed.
pub struct Input {
    rows: Vec<[f64; MODULES as usize]>,
}

impl Input {
    pub fn generate(seed: u64) -> Input {
        let clean = LightScenario::new(MODULES as usize, TRACE_ROUNDS, seed).generate();
        let faulty = FaultInjector::new(3, FaultKind::Offset(6.0)).apply(&clean, seed);
        let rows = (0..TRACE_ROUNDS)
            .map(|r| {
                let row = faulty.row(r);
                std::array::from_fn(|m| row[m].expect("the light trace has no missing values"))
            })
            .collect();
        Input { rows }
    }

    pub fn value(&self, session: u64, module: u32, round: u64) -> f64 {
        self.rows[round as usize % self.rows.len()][module as usize]
            + session as f64 * SESSION_SHIFT
    }

    /// Appends the readings of rounds `rounds` of `session`, round-major.
    pub fn readings(
        &self,
        session: u64,
        rounds: std::ops::Range<u64>,
        out: &mut Vec<BatchReading>,
    ) {
        for round in rounds {
            for module in 0..MODULES {
                out.push(BatchReading {
                    module: ModuleId::new(module),
                    round,
                    value: self.value(session, module, round),
                });
            }
        }
    }

    /// What a correct voter emits for rounds `0..rounds` of `session`.
    pub fn reference(&self, session: u64, rounds: u64) -> Vec<Fused> {
        let mut engine = build_engine(&VdxSpec::avoc()).expect("the AVOC preset builds");
        let mut values = [0.0; MODULES as usize];
        (0..rounds)
            .map(|round| {
                for (m, v) in values.iter_mut().enumerate() {
                    *v = self.value(session, m as u32, round);
                }
                let result = engine
                    .submit_ref(&Round::from_numbers(round, &values))
                    .expect("a full numeric round fuses");
                Fused {
                    bits: result.number().map(f64::to_bits),
                    voted: result.is_voted(),
                }
            })
            .collect()
    }
}

/// One fused round as it appears on the wire, value as its bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fused {
    pub bits: Option<u64>,
    pub voted: bool,
}

/// One verdict as the receiver saw it.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    pub round: u64,
    pub fused: Fused,
    /// When the frame carrying it was decoded, ns on the bench clock.
    pub at_ns: u64,
}

/// What checking one session's stream found.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// Rounds that should have been answered.
    pub attempted: u64,
    /// Rounds never answered, answered wrongly, or answered twice with
    /// different contents.
    pub failed: u64,
}

impl std::ops::Add for Checked {
    type Output = Checked;

    fn add(self, other: Checked) -> Checked {
        Checked {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
        }
    }
}

/// Checks the verdicts received for one session against `expected` (the
/// reference for rounds `0..expected.len()`). A verdict for a round past
/// the reference counts as a failure too; an identical duplicate — a
/// resume re-emitting past a stale ack floor — does not.
pub fn check_session(expected: &[Fused], received: &[Verdict]) -> Checked {
    let mut seen: Vec<Option<Fused>> = vec![None; expected.len()];
    let mut failed = 0u64;
    for v in received {
        match seen.get_mut(v.round as usize) {
            Some(slot @ None) => *slot = Some(v.fused),
            Some(Some(first)) if *first == v.fused => {}
            _ => failed += 1,
        }
    }
    failed += seen
        .iter()
        .zip(expected)
        .filter(|(got, want)| got.as_ref() != Some(*want))
        .count() as u64;
    Checked {
        attempted: expected.len() as u64,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_and_sessions_differ() {
        let a = Input::generate(7);
        let b = Input::generate(7);
        assert_eq!(a.value(3, 2, 5000).to_bits(), b.value(3, 2, 5000).to_bits());
        assert_ne!(a.value(0, 0, 0), Input::generate(8).value(0, 0, 0));
        assert_eq!(a.value(0, 1, 10), a.value(0, 1, 10 + TRACE_ROUNDS as u64));
        assert_ne!(a.reference(0, 8), a.reference(1, 8));
        // module 3 carries the +6 klm fault
        assert!(a.value(0, 3, 0) - a.value(0, 0, 0) > 5.0);
    }
}
