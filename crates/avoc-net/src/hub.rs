//! The sensor hub: assembling per-module messages into voting rounds.
//!
//! Mirrors the paper's VINT hub (Fig. 1): sensors stream readings tagged
//! with a round number; the hub emits a complete [`Round`] once every
//! expected module has reported — or, when a later round starts arriving,
//! flushes the stale round with `None` ballots for the silent modules
//! (UC-2's missing-value fault made visible to the voter).
//!
//! The hub only *collects*: an open round is a dense slot (one cell per
//! expected module), the open rounds are a short list in round order, and
//! slots and emitted [`Round`] buffers are both recycled — so a caller that
//! hands its rounds back ([`SensorHub::recycle`]) assembles without
//! allocating.

use crate::message::Message;
use avoc_core::{Ballot, ModuleId, Round};
use std::collections::VecDeque;

/// Rounds of silence after which a module counts as dead.
const LIVENESS_WINDOW: u64 = 8;

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

/// One open round: a cell per expected module, in `expected` order.
#[derive(Debug)]
struct Slot {
    id: u64,
    /// `None` until the module reports; then its latest word for the round —
    /// `Some(None)` is an explicit missing.
    cells: Vec<Option<Option<f64>>>,
    /// How many cells are `Some`; the round is complete at `cells.len()`.
    seen: usize,
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
    /// Whether `expected` is `0..n` in order, so a module's cell is its
    /// index (every daemon session's set is); otherwise cells are found by
    /// scanning `expected`.
    positional: bool,
    /// Open rounds, oldest first. Rounds leave from the front only; a
    /// reading finds its round by scanning from the back, where the one or
    /// two rounds in flight are.
    open: VecDeque<Slot>,
    /// Emptied slots awaiting the next round to open. `open` + `free` is
    /// every slot ever made: the high-water mark of rounds open at once.
    free: Vec<Slot>,
    /// Emitted round buffers handed back through [`SensorHub::recycle`].
    spare: Vec<Round>,
    /// Rounds at or below this id have been emitted; late readings for them
    /// are counted as stragglers and dropped.
    completed_through: Option<u64>,
    stragglers: u64,
    /// How many newer rounds may open before a stale round is flushed.
    lag_tolerance: u64,
    /// Last round (or heartbeat-time proxy) each module was heard in, in
    /// `expected` order.
    last_seen: Vec<Option<u64>>,
    /// Highest round id observed on any message.
    newest_round: u64,
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
            positional: expected
                .iter()
                .enumerate()
                .all(|(at, m)| m.index() as usize == at),
            last_seen: vec![None; expected.len()],
            expected,
            open: VecDeque::new(),
            free: Vec::new(),
            spare: Vec::new(),
            completed_through: None,
            stragglers: 0,
            lag_tolerance: 1,
            newest_round: 0,
        }
    }

    /// Sets how many newer rounds may open before an incomplete older round
    /// is force-flushed with missing ballots (default 1). `u64::MAX` never
    /// deadline-flushes.
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

    /// Readings dropped instead of assembled: late for a round already
    /// emitted, or from a module outside the expected set.
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
            .zip(&self.last_seen)
            .map(|(&m, seen)| {
                let state = match *seen {
                    None => Liveness::NeverSeen,
                    Some(seen) => {
                        if self.newest_round.saturating_sub(seen) > LIVENESS_WINDOW {
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

    /// Feeds one message; returns any rounds that became ready (in order).
    pub fn accept(&mut self, msg: Message) -> Vec<Round> {
        let mut out = Vec::new();
        match msg {
            Message::Reading {
                module,
                round,
                value,
            } => self.record(module, round, Some(value), &mut out),
            Message::Missing { module, round } => self.record(module, round, None, &mut out),
            Message::Heartbeat { module } => {
                if let Some(at) = self.position(module) {
                    self.last_seen[at] = Some(self.newest_round);
                }
            }
            Message::Shutdown => self.flush_all_into(&mut out),
            // Session-scoped control frames (tags 5–9) are daemon traffic;
            // a single-tenant hub has no session table and ignores them.
            _ => {}
        }
        out
    }

    /// Feeds one reading without wrapping it in a [`Message`] first — what
    /// [`SensorHub::accept`] does with a `Reading` frame, for callers that
    /// already hold the fields — appending the rounds that became ready to
    /// `out` instead of returning a fresh vector. The rounds are buffers
    /// on loan: a caller that passes them to [`SensorHub::recycle`] once it
    /// has read them feeds a steady stream without allocating.
    pub fn accept_reading_into(
        &mut self,
        module: ModuleId,
        round: u64,
        value: f64,
        out: &mut Vec<Round>,
    ) {
        self.record(module, round, Some(value), out);
    }

    /// Flushes every pending round regardless of completeness.
    pub fn flush_all(&mut self) -> Vec<Round> {
        let mut out = Vec::new();
        self.flush_all_into(&mut out);
        out
    }

    /// [`SensorHub::flush_all`], appending to `out` (see
    /// [`SensorHub::accept_reading_into`]).
    pub fn flush_all_into(&mut self, out: &mut Vec<Round>) {
        while !self.open.is_empty() {
            self.emit_oldest(out);
        }
    }

    /// Takes back rounds an `_into` call lent out, leaving `rounds` empty;
    /// later rounds are emitted in these buffers. The hub keeps at most as
    /// many as rounds have ever been open at once — the most one call can
    /// emit — and drops the rest.
    pub fn recycle(&mut self, rounds: &mut Vec<Round>) {
        let keep = self.open.len() + self.free.len();
        for round in rounds.drain(..) {
            if self.spare.len() < keep {
                self.spare.push(round);
            }
        }
    }

    /// The cell index of `module`, if it is expected.
    fn position(&self, module: ModuleId) -> Option<usize> {
        if self.positional {
            let at = module.index() as usize;
            (at < self.expected.len()).then_some(at)
        } else {
            self.expected.iter().position(|&m| m == module)
        }
    }

    /// The one assembler: every reading and explicit missing lands here.
    fn record(&mut self, module: ModuleId, round: u64, value: Option<f64>, out: &mut Vec<Round>) {
        let Some(at) = self.position(module) else {
            // Unknown sensor: ignore but keep a trace via stragglers.
            self.stragglers += 1;
            return;
        };
        self.newest_round = self.newest_round.max(round);
        let heard = &mut self.last_seen[at];
        *heard = Some(heard.map_or(round, |r| r.max(round)));
        if self.completed_through.is_some_and(|done| round <= done) {
            self.stragglers += 1;
            return;
        }
        let slot = self.slot_for(round);
        // A duplicate overwrites: last write wins.
        if slot.cells[at].replace(value).is_none() {
            slot.seen += 1;
        }
        if slot.seen == slot.cells.len() {
            // Complete: flush everything up to and including this round,
            // oldest first.
            while self.open.front().is_some_and(|s| s.id <= round) {
                self.emit_oldest(out);
            }
            return;
        }
        // Deadline flush: rounds lagging more than `lag_tolerance` behind
        // the newest open round go out incomplete.
        let newest = self.open.back().expect("just opened").id;
        while self
            .open
            .front()
            .is_some_and(|s| newest - s.id > self.lag_tolerance)
        {
            self.emit_oldest(out);
        }
    }

    /// The open slot for `round`, opened (from a recycled slot when there
    /// is one) in round order if this is its first reading.
    fn slot_for(&mut self, round: u64) -> &mut Slot {
        let mut at = self.open.len();
        while at > 0 && self.open[at - 1].id > round {
            at -= 1;
        }
        if at == 0 || self.open[at - 1].id != round {
            let mut slot = self.free.pop().unwrap_or_else(|| Slot {
                id: 0,
                cells: vec![None; self.expected.len()],
                seen: 0,
            });
            slot.id = round;
            self.open.insert(at, slot);
            at += 1;
        }
        &mut self.open[at - 1]
    }

    /// Emits the oldest open round into a spare buffer (or a fresh one) and
    /// frees its slot.
    fn emit_oldest(&mut self, out: &mut Vec<Round>) {
        let Some(mut slot) = self.open.pop_front() else {
            return;
        };
        let mut round = self
            .spare
            .pop()
            .unwrap_or_else(|| Round::new(0, Vec::with_capacity(self.expected.len())));
        round.round = slot.id;
        // Refilled whole, so a buffer of any shape can be recycled.
        round.ballots.clear();
        let cells = self.expected.iter().zip(&mut slot.cells);
        round
            .ballots
            .extend(cells.map(|(&m, cell)| match cell.take() {
                Some(Some(v)) => Ballot::new(m, v),
                _ => Ballot::missing(m),
            }));
        slot.seen = 0;
        self.completed_through = Some(self.completed_through.map_or(slot.id, |d| d.max(slot.id)));
        self.free.push(slot);
        out.push(round);
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
        let mut hub = SensorHub::new(vec![m(0), m(1)]);
        hub.accept(reading(0, 0));
        hub.accept(reading(1, 0));
        // Module 1 goes silent while rounds advance: alive through the
        // window, dead one round past it.
        for r in 1..=LIVENESS_WINDOW {
            hub.accept(reading(0, r));
        }
        assert_eq!(hub.liveness()[1].1, Liveness::Alive);
        hub.accept(reading(0, LIVENESS_WINDOW + 1));
        let live = hub.liveness();
        assert_eq!(live[0].1, Liveness::Alive);
        assert_eq!(live[1].1, Liveness::Dead { last_seen: 0 });
    }

    #[test]
    fn heartbeat_keeps_a_module_alive() {
        let mut hub = SensorHub::new(vec![m(0), m(1)]);
        hub.accept(reading(0, 0));
        hub.accept(reading(1, 0));
        for r in 1..20 {
            hub.accept(reading(0, r));
            // Module 1 sends no readings but heartbeats each round.
            hub.accept(Message::Heartbeat { module: m(1) });
        }
        assert_eq!(hub.liveness()[1].1, Liveness::Alive);
    }

    #[test]
    fn explicit_missing_counts_as_contact() {
        let mut hub = SensorHub::new(vec![m(0), m(1)]);
        for r in 0..20 {
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

#[cfg(test)]
mod slot_tests {
    use super::*;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    #[test]
    fn unbounded_lag_tolerance_never_deadline_flushes() {
        let mut hub = SensorHub::new(vec![m(0), m(1)]).with_lag_tolerance(u64::MAX);
        let mut done = Vec::new();
        hub.accept_reading_into(m(0), 0, 1.0, &mut done);
        hub.accept_reading_into(m(0), 10, 1.0, &mut done);
        hub.accept_reading_into(m(0), u64::MAX, 1.0, &mut done);
        assert!(done.is_empty());
        // Completion still flushes the older open round first.
        hub.accept_reading_into(m(1), 10, 2.0, &mut done);
        assert_eq!(done.iter().map(|r| r.round).collect::<Vec<_>>(), [0, 10]);
        let rest = hub.flush_all();
        assert_eq!(rest.iter().map(|r| r.round).collect::<Vec<_>>(), [u64::MAX]);
    }

    #[test]
    fn recycled_buffers_carry_later_rounds_and_stay_bounded() {
        // A non-positional set: cells are found by scanning `expected`.
        let mut hub = SensorHub::new(vec![m(7), m(3)]);
        let mut out = Vec::new();
        hub.accept_reading_into(m(3), 0, 3.0, &mut out);
        hub.accept_reading_into(m(7), 0, 7.0, &mut out);
        assert_eq!(
            out,
            [Round::new(
                0,
                vec![Ballot::new(m(7), 7.0), Ballot::new(m(3), 3.0)]
            )]
        );
        // Only one round was ever open, so only the first buffer is kept —
        // and it need not be one the hub made.
        out.insert(0, Round::new(99, vec![Ballot::new(m(1), 1.0); 3]));
        hub.recycle(&mut out);
        assert!(out.is_empty());
        assert_eq!(hub.spare.len(), 1);
        hub.accept_reading_into(m(3), 1, 3.5, &mut out);
        hub.flush_all_into(&mut out);
        assert_eq!(
            out,
            [Round::new(
                1,
                vec![Ballot::missing(m(7)), Ballot::new(m(3), 3.5)]
            )]
        );
    }
}
