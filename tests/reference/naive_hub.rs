//! The round assembler as it was before `SensorHub` moved to slots: a tree
//! of rounds, each a tree of modules, a fresh vector for everything. Kept
//! as the naive reference `net_invariants.rs` compares the real hub against
//! — it shares only value types with `avoc-net`, and its logic is the old
//! `hub.rs`, verbatim, less the liveness tracking the hub no longer keeps.

use avoc::net::Message;
use avoc::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug)]
pub struct NaiveHub {
    expected: Vec<ModuleId>,
    pending: BTreeMap<u64, BTreeMap<ModuleId, Option<f64>>>,
    completed_through: Option<u64>,
    stragglers: u64,
    lag_tolerance: u64,
}

impl NaiveHub {
    pub fn new(
        expected: Vec<ModuleId>,
        lag_tolerance: u64,
        completed_through: Option<u64>,
    ) -> Self {
        NaiveHub {
            expected,
            pending: BTreeMap::new(),
            completed_through,
            stragglers: 0,
            lag_tolerance,
        }
    }

    pub fn straggler_count(&self) -> u64 {
        self.stragglers
    }

    pub fn accept(&mut self, msg: Message) -> Vec<Round> {
        match msg {
            Message::Reading {
                module,
                round,
                value,
            } => self.record(module, round, Some(value)),
            Message::Missing { module, round } => self.record(module, round, None),
            Message::Shutdown => self.flush_all(),
            _ => Vec::new(),
        }
    }

    pub fn flush_all(&mut self) -> Vec<Round> {
        let ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.into_iter().map(|id| self.emit(id)).collect()
    }

    fn record(&mut self, module: ModuleId, round: u64, value: Option<f64>) -> Vec<Round> {
        if !self.expected.contains(&module) {
            self.stragglers += 1;
            return Vec::new();
        }
        if let Some(done) = self.completed_through {
            if round <= done {
                self.stragglers += 1;
                return Vec::new();
            }
        }
        self.pending.entry(round).or_default().insert(module, value);

        let mut out = Vec::new();
        if self.pending.get(&round).map(BTreeMap::len) == Some(self.expected.len()) {
            let stale: Vec<u64> = self
                .pending
                .keys()
                .copied()
                .take_while(|&id| id <= round)
                .collect();
            for id in stale {
                out.push(self.emit(id));
            }
            return out;
        }
        let newest = *self.pending.keys().next_back().expect("just inserted");
        // The one line that is not verbatim: the old hub added here, which
        // overflows at the round ids near `u64::MAX` the proptest generates.
        let stale: Vec<u64> = self
            .pending
            .keys()
            .copied()
            .take_while(|&id| newest - id > self.lag_tolerance)
            .collect();
        for id in stale {
            out.push(self.emit(id));
        }
        out
    }

    fn emit(&mut self, round_id: u64) -> Round {
        let collected = self.pending.remove(&round_id).unwrap_or_default();
        let ballots = self
            .expected
            .iter()
            .map(|&m| match collected.get(&m) {
                Some(Some(v)) => Ballot::new(m, *v),
                _ => Ballot::missing(m),
            })
            .collect();
        self.completed_through = Some(self.completed_through.map_or(round_id, |d| d.max(round_id)));
        Round::new(round_id, ballots)
    }
}
