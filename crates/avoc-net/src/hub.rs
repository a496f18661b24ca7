//! The sensor hub: assembling per-module messages into voting rounds.
//!
//! Mirrors the paper's VINT hub (Fig. 1): sensors stream readings tagged
//! with a round number; the hub emits a round once every expected module
//! has reported — or, when a later round starts arriving, flushes the stale
//! round with the silent modules missing (UC-2's missing-value fault made
//! visible to the voter).
//!
//! The hub only *collects*: an open round is a slot holding one value and
//! one cell state per expected module, a reading is written straight into
//! its module's cell, and slots stay where they are, the open ones a short
//! list of indices in round order. A round leaves as a row — its id and one
//! value per module, NaN where no reading came — appended to [`Rows`] the
//! caller owns, so a caller that reuses its buffer assembles without
//! allocating. [`SensorHub::accept`] and [`SensorHub::flush_all`] build a
//! [`Round`] from the slot instead, a missing ballot for every module that
//! sent no reading.

use crate::message::Message;
use avoc_core::{Ballot, ModuleId, Round};
use std::cmp::Ordering;

/// Rounds a hub emitted, oldest first, as rows: each round's id and one
/// value per expected module, in `expected` order, NaN where the module sent
/// no reading. A non-finite value votes as a missing ballot, so a row fuses
/// as the round it stands for (`VotingEngine::submit_row`).
#[derive(Debug, Default)]
pub struct Rows {
    rounds: Vec<u64>,
    /// The rows' values, back to back.
    values: Vec<f64>,
}

impl Rows {
    /// How many rows there are.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Each row's round id and values, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f64])> {
        let width = self.values.len().checked_div(self.rounds.len());
        let rows = self.values.chunks_exact(width.unwrap_or(1));
        self.rounds.iter().copied().zip(rows)
    }

    /// Drops every row, keeping the buffers.
    pub fn clear(&mut self) {
        self.rounds.clear();
        self.values.clear();
    }

    fn push(&mut self, round: u64, values: &[f64]) {
        self.rounds.push(round);
        self.values.extend_from_slice(values);
    }
}

/// What one module's cell of an open round holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Nothing yet.
    Unheard,
    /// An explicit `Missing`.
    Missing,
    /// A reading, in the slot's `values`.
    Reading,
}

/// One round, one cell per expected module in `expected` order. A free
/// slot is blank: every value NaN, every cell unheard.
#[derive(Debug)]
struct Slot {
    round: u64,
    /// Each module's reading, NaN where it sent none.
    values: Vec<f64>,
    cells: Vec<Cell>,
    /// How many cells are no longer unheard; the round is complete at
    /// `cells.len()`.
    heard: usize,
}

/// Where emitted rounds go: a caller's [`Rows`], or the [`Round`]s
/// [`SensorHub::accept`] returns.
trait Emit {
    fn emit(&mut self, slot: &Slot, expected: &[ModuleId]);
}

impl Emit for Rows {
    fn emit(&mut self, slot: &Slot, _: &[ModuleId]) {
        self.push(slot.round, &slot.values);
    }
}

impl Emit for Vec<Round> {
    /// A reading is a ballot, NaN included; an unheard module and an
    /// explicit `Missing` are missing ballots.
    fn emit(&mut self, slot: &Slot, expected: &[ModuleId]) {
        let cells = expected.iter().zip(&slot.values).zip(&slot.cells);
        let ballots = cells.map(|((&m, &x), &cell)| match cell {
            Cell::Reading => Ballot::new(m, x),
            Cell::Unheard | Cell::Missing => Ballot::missing(m),
        });
        self.push(Round::new(slot.round, ballots.collect()));
    }
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
    /// Every slot ever made: the high-water mark of rounds open at once.
    /// Slots never move; `open` and `free` name them by index.
    slots: Vec<Slot>,
    /// The open slots, oldest round first. Rounds leave from the front
    /// only; a reading tries the newest first, where rounds in flight are,
    /// then scans back.
    open: Vec<usize>,
    /// The newest open round and its slot, while any is open: where most
    /// readings land, found without touching `open`.
    newest_open: (u64, usize),
    /// The emitted slots, awaiting the next round to open.
    free: Vec<usize>,
    /// Rounds at or below this id have been emitted; late readings for them
    /// are counted as stragglers and dropped.
    completed_through: Option<u64>,
    stragglers: u64,
    /// How many newer rounds may open before a stale round is flushed.
    lag_tolerance: u64,
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
            expected,
            slots: Vec::new(),
            open: Vec::new(),
            newest_open: (0, 0),
            free: Vec::new(),
            completed_through: None,
            stragglers: 0,
            lag_tolerance: 1,
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
            Message::Shutdown => self.flush(&mut out),
            // A heartbeat carries nothing to assemble, and the
            // session-scoped control frames (tags 5–9) are daemon traffic
            // a single-tenant hub has no session table for.
            _ => {}
        }
        out
    }

    /// Feeds one reading without wrapping it in a [`Message`] first — what
    /// [`SensorHub::accept`] does with a `Reading` frame, for callers that
    /// already hold the fields — appending the rounds that became ready to
    /// `out` as rows.
    pub fn accept_reading_into(
        &mut self,
        module: ModuleId,
        round: u64,
        value: f64,
        out: &mut Rows,
    ) {
        self.record(module, round, Some(value), out);
    }

    /// Books a whole round in one step: `values` are the readings of
    /// modules `0..n`, in order, for `round`, appended to `out` as its row —
    /// the hub's state and `out` after it are what `n` calls of
    /// [`SensorHub::accept_reading_into`] would leave. It takes the round
    /// only when the hub is positional, no round is open (so no other round
    /// can complete or go out on a deadline), the round is past the
    /// completed floor and there is one value per module. Otherwise it
    /// changes nothing and returns `false`, and the caller feeds the
    /// readings one by one.
    #[inline]
    pub fn accept_round(&mut self, round: u64, values: &[f64], out: &mut Rows) -> bool {
        if !self.positional
            || !self.open.is_empty()
            || values.len() != self.expected.len()
            || self.completed_through.is_some_and(|done| round <= done)
        {
            return false;
        }
        self.completed_through = Some(round);
        out.push(round, values);
        true
    }

    /// Flushes every pending round regardless of completeness.
    pub fn flush_all(&mut self) -> Vec<Round> {
        let mut out = Vec::new();
        self.flush(&mut out);
        out
    }

    /// [`SensorHub::flush_all`], appending to `out` as rows.
    pub fn flush_all_into(&mut self, out: &mut Rows) {
        self.flush(out);
    }

    fn flush(&mut self, out: &mut impl Emit) {
        while !self.open.is_empty() {
            self.emit_oldest(out);
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
    fn record(&mut self, module: ModuleId, round: u64, value: Option<f64>, out: &mut impl Emit) {
        let Some(at) = self.position(module) else {
            // Unknown sensor: ignore but keep a trace via stragglers.
            self.stragglers += 1;
            return;
        };
        if self.completed_through.is_some_and(|done| round <= done) {
            self.stragglers += 1;
            return;
        }
        let (open, index, opened) = self.slot_for(round);
        let slot = &mut self.slots[index];
        // A duplicate overwrites: last write wins.
        let (cell, x) = match value {
            Some(x) => (Cell::Reading, x),
            None => (Cell::Missing, f64::NAN),
        };
        slot.values[at] = x;
        if std::mem::replace(&mut slot.cells[at], cell) == Cell::Unheard {
            slot.heard += 1;
        }
        if slot.heard == slot.cells.len() {
            // Complete: flush everything up to and including this round,
            // oldest first.
            for _ in 0..=open {
                self.emit_oldest(out);
            }
            return;
        }
        // Deadline flush: rounds lagging more than `lag_tolerance` behind
        // the newest open round go out incomplete. Only a round that just
        // opened can leave one lagging.
        if opened {
            let newest = self.open_round(self.open.len() - 1);
            while !self.open.is_empty() && newest - self.open_round(0) > self.lag_tolerance {
                self.emit_oldest(out);
            }
        }
    }

    /// The id of the `at`-th oldest open round.
    fn open_round(&self, at: usize) -> u64 {
        self.slots[self.open[at]].round
    }

    /// The slot for `round`: its position in `open`, its index in `slots`
    /// and whether this reading opened it (in round order, in a free slot
    /// when there is one).
    fn slot_for(&mut self, round: u64) -> (usize, usize, bool) {
        let mut at = self.open.len();
        if at > 0 && self.newest_open.0 == round {
            return (at - 1, self.newest_open.1, false);
        }
        while at > 0 {
            match self.open_round(at - 1).cmp(&round) {
                Ordering::Equal => return (at - 1, self.open[at - 1], false),
                Ordering::Less => break,
                Ordering::Greater => at -= 1,
            }
        }
        let n = self.expected.len();
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                round,
                values: vec![f64::NAN; n],
                cells: vec![Cell::Unheard; n],
                heard: 0,
            });
            self.slots.len() - 1
        });
        self.slots[index].round = round;
        if at == self.open.len() {
            self.newest_open = (round, index);
        }
        self.open.insert(at, index);
        (at, index, true)
    }

    /// Emits the oldest open round and frees its slot, blank.
    fn emit_oldest(&mut self, out: &mut impl Emit) {
        let index = self.open.remove(0);
        let slot = &mut self.slots[index];
        out.emit(slot, &self.expected);
        self.completed_through = Some(
            self.completed_through
                .map_or(slot.round, |d| d.max(slot.round)),
        );
        slot.values.fill(f64::NAN);
        slot.cells.fill(Cell::Unheard);
        slot.heard = 0;
        self.free.push(index);
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
    fn a_whole_round_is_taken_only_where_nothing_else_can_move() {
        let mut hub = hub3();
        let mut rows = Rows::default();
        assert!(hub.accept_round(4, &[1.0, 2.0, 3.0], &mut rows));
        assert_eq!(rows.iter().collect::<Vec<_>>(), [(4, &[1.0, 2.0, 3.0][..])]);
        // At or below the floor it just booked: refused, nothing counted.
        assert!(!hub.accept_round(4, &[1.0; 3], &mut rows));
        assert_eq!(hub.straggler_count(), 0);
        assert!(hub.accept(reading(0, 4, 1.0)).is_empty());
        assert_eq!(hub.straggler_count(), 1);
        // A round is open: the next round could flush it on a deadline.
        assert!(hub.accept(reading(0, 5, 1.0)).is_empty());
        assert!(!hub.accept_round(6, &[1.0; 3], &mut rows));
        // One value per module, and only over a positional module set.
        assert!(!hub3().accept_round(0, &[1.0; 2], &mut rows));
        assert!(!SensorHub::new(vec![m(3), m(7)]).accept_round(0, &[1.0; 2], &mut rows));
        assert_eq!(rows.len(), 1, "a refused round leaves no row");
    }

    #[test]
    #[should_panic(expected = "duplicate module")]
    fn duplicate_modules_panic() {
        let _ = SensorHub::new(vec![m(0), m(0)]);
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
        let mut done = Rows::default();
        hub.accept_reading_into(m(0), 0, 1.0, &mut done);
        hub.accept_reading_into(m(0), 10, 1.0, &mut done);
        hub.accept_reading_into(m(0), u64::MAX, 1.0, &mut done);
        assert!(done.is_empty());
        // Completion still flushes the older open round first.
        hub.accept_reading_into(m(1), 10, 2.0, &mut done);
        assert_eq!(done.iter().map(|(r, _)| r).collect::<Vec<_>>(), [0, 10]);
        let rest = hub.flush_all();
        assert_eq!(rest.iter().map(|r| r.round).collect::<Vec<_>>(), [u64::MAX]);
    }

    /// The same slots out both edges, over a non-positional set (cells
    /// found by scanning `expected`): a row holds NaN wherever no reading
    /// came, and a round a missing ballot for an unheard module or an
    /// explicit `Missing`, but a NaN reading as a ballot.
    #[test]
    fn rows_hold_nan_where_rounds_hold_missing_ballots() {
        let mut hub = SensorHub::new(vec![m(7), m(3), m(5)]);
        let mut rows = Rows::default();
        hub.accept_reading_into(m(3), 0, 3.0, &mut rows);
        hub.accept(Message::Missing {
            module: m(5),
            round: 0,
        });
        hub.accept_reading_into(m(7), 0, 7.0, &mut rows);
        hub.accept_reading_into(m(7), 1, f64::NAN, &mut rows);
        hub.flush_all_into(&mut rows);
        let bits: Vec<(u64, Vec<u64>)> = rows
            .iter()
            .map(|(r, xs)| (r, xs.iter().map(|x| x.to_bits()).collect()))
            .collect();
        let nan = f64::NAN.to_bits();
        assert_eq!(
            bits,
            [
                (0, vec![7f64.to_bits(), 3f64.to_bits(), nan]),
                (1, vec![nan, nan, nan]),
            ]
        );
        // The freed slots come back blank.
        hub.accept(Message::Missing {
            module: m(5),
            round: 2,
        });
        hub.accept_reading_into(m(7), 3, f64::NAN, &mut rows);
        let rounds = hub.flush_all();
        assert_eq!(rounds.len(), 2);
        let silent = [m(7), m(3), m(5)].map(Ballot::missing).to_vec();
        assert_eq!(rounds[0], Round::new(2, silent));
        assert_eq!(rounds[1].round, 3);
        assert!(
            matches!(rounds[1].ballots[0].value, Some(avoc_core::Value::Number(x)) if x.is_nan())
        );
        assert!(rounds[1].ballots[1..].iter().all(|b| !b.is_present()));
    }
}
