//! A session's verdict ring: its last [`RESULT_RING`] verdicts, each kept
//! as the 17 bytes a [`avoc_net::Message::ResultBatch`] frame carries it in
//! ([`PackedResult`]), the newest [`VerdictRing::unsent`] of them not yet
//! emitted. One buffer serves the live flush, the resume replay and the
//! durable log, each reading it in place.

use avoc_net::{BatchResult, PackedResult, MAX_BATCH_RESULTS};

use crate::persist::StoredResult;

/// How many recent rounds' results a session retains for re-emission on
/// resume. A client more than this many rounds behind its own acks loses
/// the overwritten tail (counted via `results_dropped` at emission time, as
/// any slow tenant's overflow is).
pub(crate) const RESULT_RING: usize = 256;

// A whole ring leaves as one frame: the flush and the replay never chunk.
const _: () = assert!(RESULT_RING <= MAX_BATCH_RESULTS);

/// The last [`RESULT_RING`] verdicts of a session, oldest first. Rounds
/// ascend through the ring: the hub emits rounds oldest first and never
/// one at or below its completed floor, which a restored session sets to
/// the highest round its ring holds.
#[derive(Debug, Default)]
pub(crate) struct VerdictRing {
    /// The entries: in fuse order until the ring is full, then overwritten
    /// oldest first from `head`. Allocated whole at the first push.
    slots: Vec<PackedResult>,
    /// Where the oldest entry is once the ring is full (`0` before).
    head: usize,
    /// How many of the newest entries await emission.
    unsent: usize,
}

impl VerdictRing {
    /// A ring holding `results` (ascending, as recovery reads them), all of
    /// them already emitted by the session's previous life; only the last
    /// [`RESULT_RING`] are kept.
    pub(crate) fn restored(results: &[StoredResult]) -> Self {
        let mut ring = VerdictRing::default();
        let kept = &results[results.len().saturating_sub(RESULT_RING)..];
        for &(round, value, voted) in kept {
            ring.push(BatchResult {
                round,
                value,
                voted,
            });
        }
        ring.unsent = 0;
        ring
    }

    /// Books a fused verdict as unsent, overwriting the oldest entry when
    /// the ring is full. The caller emits before the unsent tail would
    /// wrap onto itself ([`VerdictRing::unsent`] at [`RESULT_RING`]).
    pub(crate) fn push(&mut self, result: BatchResult) {
        debug_assert!(self.unsent < RESULT_RING, "an unsent verdict overwritten");
        if self.slots.len() < RESULT_RING {
            if self.slots.capacity() == 0 {
                self.slots.reserve_exact(RESULT_RING);
            }
            self.slots.push(result.into());
        } else {
            self.slots[self.head] = result.into();
            self.head = (self.head + 1) % RESULT_RING;
        }
        self.unsent += 1;
    }

    /// How many of the newest entries await emission.
    pub(crate) fn unsent(&self) -> usize {
        self.unsent
    }

    /// Marks every entry emitted.
    pub(crate) fn mark_sent(&mut self) {
        self.unsent = 0;
    }

    /// The newest `n` entries, oldest first, as the two parts the ring's
    /// wrap splits them into (either may be empty).
    pub(crate) fn newest(&self, n: usize) -> [&[PackedResult]; 2] {
        let (newer, older) = self.slots.split_at(self.head);
        let skip = self.slots.len() - n.min(self.slots.len());
        match skip.checked_sub(older.len()) {
            None => [&older[skip..], newer],
            Some(skip) => [&newer[skip..], &[]],
        }
    }

    /// The newest entry's round, if any.
    pub(crate) fn last_round(&self) -> Option<u64> {
        let [first, second] = self.newest(1);
        second.last().or(first.last()).map(PackedResult::round)
    }

    /// How many of the newest entries are past `last_acked` (all of them
    /// for `None`): since rounds ascend, those are the ones a client that
    /// acknowledged `last_acked` has not seen.
    pub(crate) fn count_after(&self, last_acked: Option<u64>) -> usize {
        let Some(acked) = last_acked else {
            return self.slots.len();
        };
        self.iter().rev().take_while(|r| r.round() > acked).count()
    }

    /// Every entry, oldest first.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &PackedResult> {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(round: u64) -> BatchResult {
        BatchResult {
            round,
            value: (!round.is_multiple_of(3)).then_some(round as f64 / 4.0),
            voted: round.is_multiple_of(2),
        }
    }

    fn rounds(parts: [&[PackedResult]; 2]) -> Vec<u64> {
        parts
            .iter()
            .copied()
            .flatten()
            .map(PackedResult::round)
            .collect()
    }

    #[test]
    fn the_ring_keeps_the_last_entries_in_order_across_the_wrap() {
        let mut ring = VerdictRing::default();
        assert_eq!(rounds(ring.newest(4)), Vec::<u64>::new());
        assert_eq!(ring.last_round(), None);
        for round in 0..(RESULT_RING as u64 + 10) {
            ring.push(verdict(round));
            ring.mark_sent();
        }
        let all: Vec<u64> = (10..RESULT_RING as u64 + 10).collect();
        assert_eq!(
            ring.iter().map(PackedResult::round).collect::<Vec<_>>(),
            all
        );
        assert_eq!(rounds(ring.newest(RESULT_RING)), all);
        // The newest 20 straddle the wrap; the newest 5 do not.
        assert_eq!(rounds(ring.newest(20)), all[all.len() - 20..]);
        assert_eq!(rounds(ring.newest(5)), all[all.len() - 5..]);
        assert_eq!(ring.last_round(), Some(RESULT_RING as u64 + 9));
        assert_eq!(ring.count_after(Some(RESULT_RING as u64)), 9);
        assert_eq!(ring.count_after(Some(3)), RESULT_RING);
        assert_eq!(ring.count_after(None), RESULT_RING);
        // Entries unpack to the verdicts pushed.
        let last = *ring.newest(1)[0].last().unwrap();
        assert_eq!(BatchResult::from(last), verdict(RESULT_RING as u64 + 9));
    }

    #[test]
    fn unsent_counts_the_tail_since_the_last_emission() {
        let mut ring = VerdictRing::default();
        for round in 0..3 {
            ring.push(verdict(round));
        }
        assert_eq!(ring.unsent(), 3);
        assert_eq!(rounds(ring.newest(ring.unsent())), [0, 1, 2]);
        ring.mark_sent();
        ring.push(verdict(3));
        assert_eq!(rounds(ring.newest(ring.unsent())), [3]);
    }

    #[test]
    fn a_restored_ring_holds_the_last_results_all_sent() {
        let results: Vec<StoredResult> = (0..300u64)
            .map(|round| (round, Some(round as f64), true))
            .collect();
        let ring = VerdictRing::restored(&results);
        assert_eq!(ring.unsent(), 0);
        assert_eq!(ring.iter().count(), RESULT_RING);
        assert_eq!(ring.iter().next().map(PackedResult::round), Some(44));
        assert_eq!(ring.last_round(), Some(299));
    }
}
