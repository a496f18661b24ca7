//! Historical performance records of candidate modules.
//!
//! Every history-aware voter (§4) maintains, per module, a trust value in
//! `[0, 1]`: `1` for a module that has always agreed with the voted output,
//! decaying towards `0` for notorious disagreers. The *storage* of these
//! records is abstracted behind [`HistoryStore`] because the paper observes
//! the datastore to be the latency bottleneck of a voting round — the
//! `avoc-store` crate provides persistent implementations, and the ablation
//! benches compare them.

use crate::round::ModuleId;
use std::collections::BTreeMap;

/// The neutral trust value a fresh module starts with.
pub const INITIAL_HISTORY: f64 = 1.0;

/// Storage backend for per-module historical records.
///
/// Implementations must be deterministic: [`HistoryStore::snapshot`] returns
/// records in ascending [`ModuleId`] order.
pub trait HistoryStore: Send {
    /// The record for `module`, if one exists.
    fn get(&self, module: ModuleId) -> Option<f64>;

    /// Writes the record for `module`.
    fn set(&mut self, module: ModuleId, value: f64);

    /// Writes a batch of records.
    ///
    /// The default forwards to [`HistoryStore::set`] per record; stores
    /// whose writes carry per-call durability costs (a flushed or fsynced
    /// log) override this to issue one physical write for the whole batch.
    fn set_batch(&mut self, records: &[(ModuleId, f64)]) {
        for &(m, v) in records {
            self.set(m, v);
        }
    }

    /// All records in ascending module order.
    fn snapshot(&self) -> Vec<(ModuleId, f64)>;

    /// Removes every record.
    fn clear(&mut self);

    /// The record for `module`, initialising it to [`INITIAL_HISTORY`] when
    /// absent.
    fn get_or_init(&mut self, module: ModuleId) -> f64 {
        match self.get(module) {
            Some(v) => v,
            None => {
                self.set(module, INITIAL_HISTORY);
                INITIAL_HISTORY
            }
        }
    }
}

/// The default, allocation-light in-memory history store.
///
/// # Example
///
/// ```
/// use avoc_core::history::{HistoryStore, MemoryHistory, INITIAL_HISTORY};
/// use avoc_core::ModuleId;
///
/// let mut h = MemoryHistory::new();
/// assert_eq!(h.get_or_init(ModuleId::new(0)), INITIAL_HISTORY);
/// h.set(ModuleId::new(0), 0.4);
/// assert_eq!(h.get(ModuleId::new(0)), Some(0.4));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoryHistory {
    records: BTreeMap<ModuleId, f64>,
}

impl MemoryHistory {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store pre-seeded with records.
    pub fn with_records(records: impl IntoIterator<Item = (ModuleId, f64)>) -> Self {
        MemoryHistory {
            records: records.into_iter().collect(),
        }
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl HistoryStore for MemoryHistory {
    fn get(&self, module: ModuleId) -> Option<f64> {
        self.records.get(&module).copied()
    }

    fn set(&mut self, module: ModuleId, value: f64) {
        self.records.insert(module, value.clamp(0.0, 1.0));
    }

    fn snapshot(&self) -> Vec<(ModuleId, f64)> {
        self.records.iter().map(|(&m, &v)| (m, v)).collect()
    }

    fn clear(&mut self) {
        self.records.clear();
    }
}

/// A dense, `Vec`-backed history store for the fusion hot path.
///
/// The records are one vector sorted by module, so module `i` sits at
/// index `i` whenever the ids held are `0..n` — as every daemon session's
/// are. A lookup checks that position first and binary-searches only when
/// it misses (sparse or out-of-order ids): no hashing, and after a
/// module's first write nothing touches the allocator, unlike the
/// `BTreeMap`-backed [`MemoryHistory`]. Snapshots are a copy of the
/// vector, already in [`HistoryStore::snapshot`]'s ascending order.
///
/// # Example
///
/// ```
/// use avoc_core::history::{DenseHistory, HistoryStore};
/// use avoc_core::ModuleId;
///
/// let mut h = DenseHistory::new();
/// h.set(ModuleId::new(7), 0.4);
/// h.set(ModuleId::new(2), 0.9);
/// assert_eq!(h.get(ModuleId::new(7)), Some(0.4));
/// let snap = h.snapshot();
/// assert_eq!(snap[0].0, ModuleId::new(2)); // ascending module order
/// ```
#[derive(Debug, Clone, Default)]
pub struct DenseHistory {
    /// `(module, trust)` records, ascending by module.
    records: Vec<(ModuleId, f64)>,
}

impl DenseHistory {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store pre-seeded with records.
    pub fn with_records(records: impl IntoIterator<Item = (ModuleId, f64)>) -> Self {
        let mut h = DenseHistory::new();
        for (m, v) in records {
            h.set(m, v);
        }
        h
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Where `module`'s record is (`Ok`) or would be inserted (`Err`):
    /// its own index when the ids up to it are dense, a binary search
    /// otherwise.
    fn find(&self, module: ModuleId) -> Result<usize, usize> {
        let at = module.index() as usize;
        match self.records.get(at) {
            Some(&(m, _)) if m == module => Ok(at),
            _ => self.records.binary_search_by_key(&module, |&(m, _)| m),
        }
    }
}

impl HistoryStore for DenseHistory {
    fn get(&self, module: ModuleId) -> Option<f64> {
        self.find(module).ok().map(|at| self.records[at].1)
    }

    fn set(&mut self, module: ModuleId, value: f64) {
        let value = value.clamp(0.0, 1.0);
        match self.find(module) {
            Ok(at) => self.records[at].1 = value,
            Err(at) => self.records.insert(at, (module, value)),
        }
    }

    fn snapshot(&self) -> Vec<(ModuleId, f64)> {
        self.records.clone()
    }

    fn clear(&mut self) {
        self.records.clear();
    }
}

/// The reward/penalty rule that moves a module's record after each round.
///
/// All §4 algorithms share the same *shape* of update — move the record up
/// when the module's value agreed with the voted output, down when it did not
/// — differing only in whether the agreement score is binary or graded. The
/// update is `h ← clamp₀₁(h + rate × (2·score − 1))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryUpdate {
    /// Step size per round (default `0.1`).
    pub rate: f64,
}

impl HistoryUpdate {
    /// Creates an update rule with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0 && rate <= 1.0,
            "rate must be in (0, 1], got {rate}"
        );
        HistoryUpdate { rate }
    }

    /// Applies the rule: `score = 1` rewards fully, `score = 0` penalises
    /// fully, graded scores interpolate.
    pub fn apply(&self, history: f64, score: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&score), "score out of range: {score}");
        (history + self.rate * (2.0 * score - 1.0)).clamp(0.0, 1.0)
    }
}

impl Default for HistoryUpdate {
    fn default() -> Self {
        HistoryUpdate { rate: 0.1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    #[test]
    fn get_or_init_defaults_to_one() {
        let mut h = MemoryHistory::new();
        assert_eq!(h.get(m(0)), None);
        assert_eq!(h.get_or_init(m(0)), 1.0);
        assert_eq!(h.get(m(0)), Some(1.0));
    }

    #[test]
    fn set_clamps_into_unit_interval() {
        let mut h = MemoryHistory::new();
        h.set(m(0), 1.7);
        h.set(m(1), -0.3);
        assert_eq!(h.get(m(0)), Some(1.0));
        assert_eq!(h.get(m(1)), Some(0.0));
    }

    #[test]
    fn snapshot_is_ordered() {
        let mut h = MemoryHistory::new();
        h.set(m(3), 0.3);
        h.set(m(1), 0.1);
        h.set(m(2), 0.2);
        let snap = h.snapshot();
        assert_eq!(snap, vec![(m(1), 0.1), (m(2), 0.2), (m(3), 0.3)]);
    }

    #[test]
    fn clear_empties_store() {
        let mut h = MemoryHistory::with_records([(m(0), 0.5)]);
        assert_eq!(h.len(), 1);
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn update_rewards_and_penalises() {
        let u = HistoryUpdate::default();
        assert!((u.apply(0.5, 1.0) - 0.6).abs() < 1e-12);
        assert!((u.apply(0.5, 0.0) - 0.4).abs() < 1e-12);
        // graded score of 0.5 is neutral
        assert!((u.apply(0.5, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_clamps_at_bounds() {
        let u = HistoryUpdate::default();
        assert_eq!(u.apply(1.0, 1.0), 1.0);
        assert_eq!(u.apply(0.05, 0.0), 0.0);
    }

    #[test]
    fn ten_disagreements_zero_out_history() {
        let u = HistoryUpdate::default();
        let mut h = 1.0;
        for _ in 0..10 {
            h = u.apply(h, 0.0);
        }
        assert!(h.abs() < 1e-9, "history should reach 0, got {h}");
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn zero_rate_panics() {
        let _ = HistoryUpdate::new(0.0);
    }

    #[test]
    fn store_is_object_safe() {
        let mut h: Box<dyn HistoryStore> = Box::new(MemoryHistory::new());
        h.set(m(0), 0.7);
        assert_eq!(h.get(m(0)), Some(0.7));
    }

    #[test]
    fn dense_history_matches_memory_semantics() {
        let mut dense = DenseHistory::new();
        let mut mem = MemoryHistory::new();
        // Interleaved, out-of-order, with overwrites and clamping.
        for &(id, v) in &[
            (9u32, 0.5),
            (2, 1.7),
            (5, -0.3),
            (2, 0.4),
            (0, 0.9),
            (9, 0.1),
        ] {
            dense.set(m(id), v);
            mem.set(m(id), v);
        }
        assert_eq!(dense.snapshot(), mem.snapshot());
        assert_eq!(dense.len(), mem.len());
        for id in 0..10 {
            assert_eq!(dense.get(m(id)), mem.get(m(id)));
        }
    }

    #[test]
    fn dense_history_get_or_init_defaults() {
        let mut h = DenseHistory::new();
        assert_eq!(h.get_or_init(m(3)), INITIAL_HISTORY);
        assert_eq!(h.get(m(3)), Some(INITIAL_HISTORY));
    }

    #[test]
    fn dense_history_is_object_safe_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DenseHistory>();
        let mut h: Box<dyn HistoryStore> = Box::new(DenseHistory::new());
        h.set(m(0), 0.7);
        assert_eq!(h.get(m(0)), Some(0.7));
    }

    /// One step of a random store workload.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Set(ModuleId, f64),
        Get(ModuleId),
        GetOrInit(ModuleId),
        Clear,
    }

    /// Workloads over one of three id shapes: dense `0..8` (inserted in
    /// random order), sparse up to `u32::MAX`, or a mix of both. Values
    /// stray outside `[0, 1]` so clamping is exercised.
    fn workloads() -> impl Strategy<Value = Vec<Op>> {
        (0u32..3).prop_flat_map(|shape| {
            prop::collection::vec((0u8..20, any::<u32>(), -0.5f64..1.5), 1..80).prop_map(
                move |steps| {
                    steps
                        .into_iter()
                        .map(|(kind, raw, v)| {
                            let id = m(match shape {
                                0 => raw % 8,
                                1 => raw,
                                _ => [0, 1, 2, 5, 9, 1 << 20, u32::MAX - 1, u32::MAX]
                                    [raw as usize % 8],
                            });
                            match kind {
                                0..=9 => Op::Set(id, v),
                                10..=13 => Op::Get(id),
                                14..=18 => Op::GetOrInit(id),
                                _ => Op::Clear,
                            }
                        })
                        .collect()
                },
            )
        })
    }

    proptest! {
        /// `DenseHistory` against the `BTreeMap` reference, after every
        /// operation, through every read the trait offers.
        #[test]
        fn dense_history_matches_memory_history(ops in workloads()) {
            let (mut dense, mut mem) = (DenseHistory::new(), MemoryHistory::new());
            for op in ops {
                match op {
                    Op::Set(id, v) => {
                        dense.set(id, v);
                        mem.set(id, v);
                    }
                    Op::Get(id) => prop_assert_eq!(dense.get(id), mem.get(id)),
                    Op::GetOrInit(id) => prop_assert_eq!(
                        dense.get_or_init(id).to_bits(),
                        mem.get_or_init(id).to_bits()
                    ),
                    Op::Clear => {
                        dense.clear();
                        mem.clear();
                    }
                }
                let want = mem.snapshot();
                prop_assert_eq!(dense.len(), mem.len());
                prop_assert_eq!(dense.is_empty(), mem.is_empty());
                prop_assert_eq!(&dense.snapshot(), &want, "after {:?}", op);
                // Every held id, its neighbours (where a positional lookup
                // would land on the wrong record) and the dense prefix.
                let near = want
                    .iter()
                    .flat_map(|&(id, _)| [id.index().wrapping_sub(1), id.index().wrapping_add(1)]);
                for id in (0..10).chain(near).map(m) {
                    prop_assert_eq!(dense.get(id), mem.get(id), "get({}) after {:?}", id, op);
                }
            }
        }
    }
}
