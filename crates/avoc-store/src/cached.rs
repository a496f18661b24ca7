//! A write-behind cache over any history store — the engineering answer to
//! the paper's "datastore reads and writes being the bottleneck".

use avoc_core::history::HistoryStore;
use avoc_core::ModuleId;
use std::collections::BTreeMap;

/// Write-behind caching layer over a backing [`HistoryStore`].
///
/// Reads are served from an in-memory map; writes update the map and are
/// deferred to the backing store until [`CachedHistory::flush`] (or drop).
/// With a [`crate::FileHistory`] backend this turns one fsync'd write per
/// module per round into one batch per flush interval — the `store` bench
/// quantifies the gap.
///
/// # Example
///
/// ```
/// use avoc_core::history::HistoryStore;
/// use avoc_core::{MemoryHistory, ModuleId};
/// use avoc_store::CachedHistory;
///
/// let mut cached = CachedHistory::new(MemoryHistory::new());
/// cached.set(ModuleId::new(0), 0.6);
/// assert_eq!(cached.pending_writes(), 1);
/// cached.flush();
/// assert_eq!(cached.pending_writes(), 0);
/// assert_eq!(cached.backing().get(ModuleId::new(0)), Some(0.6));
/// ```
#[derive(Debug)]
pub struct CachedHistory<S: HistoryStore> {
    // `Option` solely so `into_inner` can move the store out despite the
    // flushing `Drop` impl; it is `None` only between `into_inner` and drop.
    backing: Option<S>,
    cache: BTreeMap<ModuleId, f64>,
    dirty: BTreeMap<ModuleId, f64>,
    cleared: bool,
}

impl<S: HistoryStore> CachedHistory<S> {
    /// Wraps a backing store, pre-loading its records into the cache.
    pub fn new(backing: S) -> Self {
        let cache = backing.snapshot().into_iter().collect();
        CachedHistory {
            backing: Some(backing),
            cache,
            dirty: BTreeMap::new(),
            cleared: false,
        }
    }

    /// Number of writes not yet flushed to the backing store.
    pub fn pending_writes(&self) -> usize {
        self.dirty.len() + usize::from(self.cleared)
    }

    /// Pushes pending writes to the backing store as one
    /// [`HistoryStore::set_batch`] call.
    ///
    /// Against a [`crate::FileHistory`] backend that is one buffered write +
    /// one flush (+ one fsync) for the whole batch instead of one per dirty
    /// record — the CorkedWriter discipline applied to the checkpoint path.
    pub fn flush(&mut self) {
        let Some(backing) = self.backing.as_mut() else {
            return;
        };
        if self.cleared {
            backing.clear();
            self.cleared = false;
        }
        if !self.dirty.is_empty() {
            let batch: Vec<(ModuleId, f64)> = self.dirty.iter().map(|(&m, &v)| (m, v)).collect();
            backing.set_batch(&batch);
            self.dirty.clear();
        }
    }

    /// Borrows the backing store (read-only).
    pub fn backing(&self) -> &S {
        self.backing
            .as_ref()
            .expect("backing present until into_inner")
    }

    /// Flushes and returns the backing store.
    pub fn into_inner(mut self) -> S {
        self.flush();
        self.backing
            .take()
            .expect("backing present until into_inner")
    }
}

impl<S: HistoryStore> Drop for CachedHistory<S> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<S: HistoryStore> HistoryStore for CachedHistory<S> {
    fn get(&self, module: ModuleId) -> Option<f64> {
        self.cache.get(&module).copied()
    }

    fn set(&mut self, module: ModuleId, value: f64) {
        let value = value.clamp(0.0, 1.0);
        self.cache.insert(module, value);
        self.dirty.insert(module, value);
    }

    fn snapshot(&self) -> Vec<(ModuleId, f64)> {
        self.cache.iter().map(|(&m, &v)| (m, v)).collect()
    }

    fn clear(&mut self) {
        self.cache.clear();
        self.dirty.clear();
        self.cleared = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avoc_core::MemoryHistory;

    fn m(i: u32) -> ModuleId {
        ModuleId::new(i)
    }

    #[test]
    fn reads_come_from_cache() {
        let mut backing = MemoryHistory::new();
        backing.set(m(0), 0.3);
        let cached = CachedHistory::new(backing);
        assert_eq!(cached.get(m(0)), Some(0.3));
    }

    #[test]
    fn writes_deferred_until_flush() {
        let mut cached = CachedHistory::new(MemoryHistory::new());
        cached.set(m(1), 0.9);
        assert_eq!(cached.get(m(1)), Some(0.9));
        assert_eq!(cached.backing().get(m(1)), None);
        cached.flush();
        assert_eq!(cached.backing().get(m(1)), Some(0.9));
    }

    #[test]
    fn repeated_writes_collapse_to_one() {
        let mut cached = CachedHistory::new(MemoryHistory::new());
        for i in 0..100 {
            cached.set(m(0), i as f64 / 100.0);
        }
        assert_eq!(cached.pending_writes(), 1);
        cached.flush();
        assert_eq!(cached.backing().get(m(0)), Some(0.99));
    }

    #[test]
    fn clear_propagates_on_flush() {
        let mut backing = MemoryHistory::new();
        backing.set(m(0), 0.5);
        let mut cached = CachedHistory::new(backing);
        cached.clear();
        assert_eq!(cached.get(m(0)), None);
        cached.flush();
        assert!(cached.backing().snapshot().is_empty());
    }

    #[test]
    fn clear_then_set_flushes_in_order() {
        let mut backing = MemoryHistory::new();
        backing.set(m(0), 0.5);
        let mut cached = CachedHistory::new(backing);
        cached.clear();
        cached.set(m(1), 0.7);
        cached.flush();
        assert_eq!(cached.backing().get(m(0)), None);
        assert_eq!(cached.backing().get(m(1)), Some(0.7));
    }

    #[test]
    fn drop_flushes() {
        let mut backing = MemoryHistory::new();
        backing.set(m(9), 0.1);
        let shared = crate::SharedHistory::with_records(backing.snapshot());
        {
            let mut cached = CachedHistory::new(shared.clone());
            cached.set(m(9), 0.8);
        } // drop → flush
        assert_eq!(shared.get(m(9)), Some(0.8));
    }

    /// A backing store that counts physical write calls, to pin the batch
    /// discipline: a flush of N dirty records must be one `set_batch`, not
    /// N `set`s.
    #[derive(Debug, Default)]
    struct CountingStore {
        records: BTreeMap<ModuleId, f64>,
        set_calls: usize,
        batch_calls: usize,
    }

    impl HistoryStore for CountingStore {
        fn get(&self, module: ModuleId) -> Option<f64> {
            self.records.get(&module).copied()
        }
        fn set(&mut self, module: ModuleId, value: f64) {
            self.set_calls += 1;
            self.records.insert(module, value);
        }
        fn set_batch(&mut self, records: &[(ModuleId, f64)]) {
            self.batch_calls += 1;
            self.records.extend(records.iter().copied());
        }
        fn snapshot(&self) -> Vec<(ModuleId, f64)> {
            self.records.iter().map(|(&m, &v)| (m, v)).collect()
        }
        fn clear(&mut self) {
            self.records.clear();
        }
    }

    #[test]
    fn flush_batches_consecutive_appends_into_one_write() {
        let mut cached = CachedHistory::new(CountingStore::default());
        for i in 0..32 {
            cached.set(m(i), i as f64 / 32.0);
        }
        cached.flush();
        assert_eq!(cached.backing().batch_calls, 1);
        assert_eq!(cached.backing().set_calls, 0);
        assert_eq!(cached.backing().records.len(), 32);
        // An empty flush issues no write at all.
        cached.flush();
        assert_eq!(cached.backing().batch_calls, 1);
    }

    #[test]
    fn into_inner_flushes() {
        let mut cached = CachedHistory::new(MemoryHistory::new());
        cached.set(m(2), 0.4);
        let backing = cached.into_inner();
        assert_eq!(backing.get(m(2)), Some(0.4));
    }
}
