//! The sensor hub: assembling per-module messages into voting rounds.
//!
//! Mirrors the paper's VINT hub (Fig. 1): sensors stream readings tagged
//! with a round number; the hub emits a complete [`Round`] once every
//! expected module has reported — or, when a later round starts arriving,
//! flushes the stale round with `None` ballots for the silent modules
//! (UC-2's missing-value fault made visible to the voter).

use crate::message::Message;
use avoc_core::{Ballot, ModuleId, Round};
use std::collections::BTreeMap;

/// Liveness of one expected module, as observed by the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// The module has never been heard from.
    NeverSeen,
    /// The module reported (a reading, an explicit missing, or a heartbeat)
    /// within the liveness window.
    Alive,
    /// The module has been silent for more than the liveness window.
    Dead {
        /// The last round the module was heard in.
        last_seen: u64,
    },
}

/// Round assembler.
///
/// # Example
///
/// ```
/// use avoc_core::ModuleId;
/// use avoc_net::{Message, SensorHub};
///
/// let mut hub = SensorHub::new(vec![ModuleId::new(0), ModuleId::new(1)]);
/// assert!(hub
///     .accept(Message::Reading { module: ModuleId::new(0), round: 0, value: 18.0 })
///     .is_empty());
/// let done = hub.accept(Message::Reading { module: ModuleId::new(1), round: 0, value: 18.1 });
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].present_count(), 2);
/// ```
#[derive(Debug)]
pub struct SensorHub {
    expected: Vec<ModuleId>,
    pending: BTreeMap<u64, BTreeMap<ModuleId, Option<f64>>>,
    /// Rounds at or below this id have been emitted; late readings for them
    /// are counted as stragglers and dropped.
    completed_through: Option<u64>,
    stragglers: u64,
    /// How many newer rounds may open before a stale round is flushed.
    lag_tolerance: u64,
    /// Last round (or heartbeat-time proxy) each module was heard in.
    last_seen: BTreeMap<ModuleId, u64>,
    /// Highest round id observed on any message.
    newest_round: u64,
    /// Rounds of silence after which a module counts as dead.
    liveness_window: u64,
}

impl SensorHub {
    /// Creates a hub expecting the given module set each round.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is empty or contains duplicates.
    pub fn new(expected: Vec<ModuleId>) -> Self {
        assert!(!expected.is_empty(), "hub needs at least one module");
        let mut dedup = expected.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), expected.len(), "duplicate module ids");
        SensorHub {
            expected,
            pending: BTreeMap::new(),
            completed_through: None,
            stragglers: 0,
            lag_tolerance: 1,
            last_seen: BTreeMap::new(),
            newest_round: 0,
            liveness_window: 8,
        }
    }

    /// Sets the number of rounds of silence after which a module is
    /// reported dead (default 8).
    pub fn with_liveness_window(mut self, rounds: u64) -> Self {
        self.liveness_window = rounds.max(1);
        self
    }

    /// Sets how many newer rounds may open before an incomplete older round
    /// is force-flushed with missing ballots (default 1).
    pub fn with_lag_tolerance(mut self, rounds: u64) -> Self {
        self.lag_tolerance = rounds;
        self
    }

    /// Marks every round at or below `round` as already emitted, so late
    /// copies of them are counted as stragglers and dropped. This is the
    /// resume path: a session restored from a checkpoint that covers rounds
    /// `..=round` pre-seeds the floor, and a reconnecting client that
    /// replays its unacked readings cannot double-fuse a round the previous
    /// incarnation already emitted.
    pub fn with_completed_through(mut self, round: Option<u64>) -> Self {
        self.completed_through = match (self.completed_through, round) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self
    }

    /// The module set this hub expects.
    pub fn expected(&self) -> &[ModuleId] {
        &self.expected
    }

    /// Readings that arrived after their round was already emitted.
    pub fn straggler_count(&self) -> u64 {
        self.stragglers
    }

    /// Liveness of every expected module, judged against the newest round
    /// seen on any message — the operational signal the paper's
    /// missing-value fault analysis calls for ("some beacons not being
    /// reachable").
    pub fn liveness(&self) -> Vec<(ModuleId, Liveness)> {
        self.expected
            .iter()
            .map(|&m| {
                let state = match self.last_seen.get(&m) {
                    None => Liveness::NeverSeen,
                    Some(&seen) => {
                        if self.newest_round.saturating_sub(seen) > self.liveness_window {
                            Liveness::Dead { last_seen: seen }
                        } else {
                            Liveness::Alive
                        }
                    }
                };
                (m, state)
            })
            .collect()
    }

    /// The modules currently judged dead or never seen.
    pub fn suspect_modules(&self) -> Vec<ModuleId> {
        self.liveness()
            .into_iter()
            .filter(|(_, l)| *l != Liveness::Alive)
            .map(|(m, _)| m)
            .collect()
    }

    /// Feeds one message; returns any rounds that became ready (in order).
    pub fn accept(&mut self, msg: Message) -> Vec<Round> {
        match msg {
            Message::Reading {
                module,
                round,
                value,
            } => self.accept_reading(module, round, value),
            Message::Missing { module, round } => self.record(module, round, None),
            Message::Heartbeat { module } => {
                if self.expected.contains(&module) {
                    self.last_seen.insert(module, self.newest_round);
                }
                Vec::new()
            }
            Message::Shutdown => self.flush_all(),
            // Session-scoped control frames (tags 5–9) are daemon traffic;
            // a single-tenant hub has no session table and ignores them.
            _ => Vec::new(),
        }
    }

    /// Feeds one reading without wrapping it in a [`Message`] first — what
    /// [`SensorHub::accept`] does with a `Reading` frame, for callers that
    /// already hold the fields; returns any rounds that became ready.
    pub fn accept_reading(&mut self, module: ModuleId, round: u64, value: f64) -> Vec<Round> {
        self.record(module, round, Some(value))
    }

    /// Flushes every pending round regardless of completeness.
    pub fn flush_all(&mut self) -> Vec<Round> {
        let ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.into_iter().map(|id| self.emit(id)).collect()
    }

    fn record(&mut self, module: ModuleId, round: u64, value: Option<f64>) -> Vec<Round> {
        if !self.expected.contains(&module) {
            // Unknown sensor: ignore but keep a trace via stragglers.
            self.stragglers += 1;
            return Vec::new();
        }
        self.newest_round = self.newest_round.max(round);
        self.last_seen
            .entry(module)
            .and_modify(|r| *r = (*r).max(round))
            .or_insert(round);
        if let Some(done) = self.completed_through {
            if round <= done {
                self.stragglers += 1;
                return Vec::new();
            }
        }
        self.pending.entry(round).or_default().insert(module, value);

        let mut out = Vec::new();
        // Complete round?
        if self.pending.get(&round).map(BTreeMap::len) == Some(self.expected.len()) {
            // Flush everything up to and including this round, oldest first.
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
        // Deadline flush: rounds lagging more than `lag_tolerance` behind
        // the newest open round go out incomplete.
        let newest = *self.pending.keys().next_back().expect("just inserted");
        let stale: Vec<u64> = self
            .pending
            .keys()
            .copied()
            .take_while(|&id| id + self.lag_tolerance < newest)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn reading(module: u32, round: u64, value: f64) -> Message {
        Message::Reading {
            module: m(module),
            round,
            value,
        }
    }

    fn hub3() -> SensorHub {
        SensorHub::new(vec![m(0), m(1), m(2)])
    }

    #[test]
    fn emits_on_completion() {
        let mut hub = hub3();
        assert!(hub.accept(reading(0, 0, 1.0)).is_empty());
        assert!(hub.accept(reading(1, 0, 2.0)).is_empty());
        let done = hub.accept(reading(2, 0, 3.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].round, 0);
        assert_eq!(done[0].present_count(), 3);
    }

    #[test]
    fn completed_through_floor_drops_replayed_rounds() {
        let mut hub = SensorHub::new(vec![m(0), m(1), m(2)]).with_completed_through(Some(4));
        // A replayed reading for an already-checkpointed round is a
        // straggler, not the seed of a duplicate round.
        assert!(hub.accept(reading(0, 3, 1.0)).is_empty());
        assert!(hub.accept(reading(1, 4, 1.0)).is_empty());
        assert_eq!(hub.straggler_count(), 2);
        // The first un-checkpointed round fuses normally.
        hub.accept(reading(0, 5, 1.0));
        hub.accept(reading(1, 5, 2.0));
        let done = hub.accept(reading(2, 5, 3.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].round, 5);
        // `None` leaves an existing floor untouched.
        let hub = SensorHub::new(vec![m(0)])
            .with_completed_through(Some(7))
            .with_completed_through(None);
        assert_eq!(hub.completed_through, Some(7));
    }

    #[test]
    fn explicit_missing_counts_towards_completion() {
        let mut hub = hub3();
        hub.accept(reading(0, 0, 1.0));
        hub.accept(Message::Missing {
            module: m(1),
            round: 0,
        });
        let done = hub.accept(reading(2, 0, 3.0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].present_count(), 2);
        assert!(!done[0].ballots[1].is_present());
    }

    #[test]
    fn deadline_flushes_silent_sensor() {
        let mut hub = hub3(); // lag tolerance 1
        hub.accept(reading(0, 0, 1.0));
        hub.accept(reading(1, 0, 2.0));
        // Sensor 2 never reports round 0; rounds 1 and 2 start arriving.
        hub.accept(reading(0, 1, 1.1));
        let done = hub.accept(reading(0, 2, 1.2));
        assert_eq!(done.len(), 1, "round 0 must be deadline-flushed");
        assert_eq!(done[0].round, 0);
        assert_eq!(done[0].present_count(), 2);
    }

    #[test]
    fn stragglers_are_counted_not_applied() {
        let mut hub = hub3();
        hub.accept(reading(0, 0, 1.0));
        hub.accept(reading(1, 0, 2.0));
        hub.accept(reading(2, 0, 3.0)); // round 0 emitted
        assert_eq!(hub.straggler_count(), 0);
        hub.accept(reading(1, 0, 9.9)); // late duplicate
        assert_eq!(hub.straggler_count(), 1);
    }

    #[test]
    fn unknown_module_is_ignored() {
        let mut hub = hub3();
        let out = hub.accept(reading(7, 0, 5.0));
        assert!(out.is_empty());
        assert_eq!(hub.straggler_count(), 1);
    }

    #[test]
    fn shutdown_flushes_partial_rounds() {
        let mut hub = hub3();
        hub.accept(reading(0, 4, 1.0));
        hub.accept(reading(1, 5, 2.0));
        let done = hub.accept(Message::Shutdown);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].round, 4);
        assert_eq!(done[1].round, 5);
        assert_eq!(done[0].present_count(), 1);
    }

    #[test]
    fn completion_flushes_older_incomplete_rounds_first() {
        let mut hub = hub3().with_lag_tolerance(10);
        hub.accept(reading(0, 0, 1.0)); // round 0 stays incomplete
        hub.accept(reading(0, 1, 1.0));
        hub.accept(reading(1, 1, 2.0));
        let done = hub.accept(reading(2, 1, 3.0));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].round, 0);
        assert_eq!(done[1].round, 1);
    }

    #[test]
    fn heartbeat_is_inert() {
        let mut hub = hub3();
        assert!(hub.accept(Message::Heartbeat { module: m(0) }).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate module")]
    fn duplicate_modules_panic() {
        let _ = SensorHub::new(vec![m(0), m(0)]);
    }
}

#[cfg(test)]
mod liveness_tests {
    use super::*;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    fn reading(module: u32, round: u64) -> Message {
        Message::Reading {
            module: m(module),
            round,
            value: 1.0,
        }
    }

    #[test]
    fn all_never_seen_initially() {
        let hub = SensorHub::new(vec![m(0), m(1)]);
        assert!(hub
            .liveness()
            .iter()
            .all(|(_, l)| *l == Liveness::NeverSeen));
        assert_eq!(hub.suspect_modules(), vec![m(0), m(1)]);
    }

    #[test]
    fn reporting_makes_a_module_alive() {
        let mut hub = SensorHub::new(vec![m(0), m(1)]);
        hub.accept(reading(0, 0));
        let live = hub.liveness();
        assert_eq!(live[0].1, Liveness::Alive);
        assert_eq!(live[1].1, Liveness::NeverSeen);
    }

    #[test]
    fn prolonged_silence_marks_a_module_dead() {
        let mut hub = SensorHub::new(vec![m(0), m(1)]).with_liveness_window(3);
        hub.accept(reading(0, 0));
        hub.accept(reading(1, 0));
        // Module 1 goes silent while rounds advance.
        for r in 1..6 {
            hub.accept(reading(0, r));
        }
        let live = hub.liveness();
        assert_eq!(live[0].1, Liveness::Alive);
        assert_eq!(live[1].1, Liveness::Dead { last_seen: 0 });
        assert_eq!(hub.suspect_modules(), vec![m(1)]);
    }

    #[test]
    fn heartbeat_keeps_a_module_alive() {
        let mut hub = SensorHub::new(vec![m(0), m(1)]).with_liveness_window(3);
        hub.accept(reading(0, 0));
        hub.accept(reading(1, 0));
        for r in 1..10 {
            hub.accept(reading(0, r));
            // Module 1 sends no readings but heartbeats each round.
            hub.accept(Message::Heartbeat { module: m(1) });
        }
        assert_eq!(hub.liveness()[1].1, Liveness::Alive);
    }

    #[test]
    fn explicit_missing_counts_as_contact() {
        let mut hub = SensorHub::new(vec![m(0), m(1)]).with_liveness_window(3);
        for r in 0..10 {
            hub.accept(reading(0, r));
            hub.accept(Message::Missing {
                module: m(1),
                round: r,
            });
        }
        assert_eq!(hub.liveness()[1].1, Liveness::Alive);
    }

    #[test]
    fn unknown_module_heartbeat_is_ignored() {
        let mut hub = SensorHub::new(vec![m(0)]);
        hub.accept(Message::Heartbeat { module: m(9) });
        assert_eq!(hub.liveness().len(), 1);
    }
}
