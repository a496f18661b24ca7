//! The consistent-hash ring placing sessions on cluster nodes.
//!
//! Each member node contributes `vnodes` pseudo-random points on a `u64`
//! ring; a session id hashes to a point and is owned by the first node
//! point at or clockwise of it. Virtual nodes smooth the per-node share
//! (with one point per node, a 2-node ring can split 90/10), and the
//! clockwise-successor rule gives the property the gateway leans on for
//! health-based re-placement: excluding a node moves **only that node's
//! sessions**, each to its next distinct neighbour — everyone else's
//! placement is untouched.
//!
//! Hashing is [`splitmix64`] — the same finalizer the daemon uses for
//! shard pinning — so placement is deterministic across gateway restarts
//! and across gateways: any gateway with the same member list computes
//! the same ring.

use std::collections::HashSet;

/// SplitMix64 finalizer: a cheap, well-mixed `u64 -> u64` permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A consistent-hash ring with virtual nodes.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring point, node id)`, sorted by point. Collisions are dropped
    /// deterministically (first node to claim a point keeps it), which at
    /// 2^64 points never costs a real replica.
    points: Vec<(u64, u64)>,
}

impl HashRing {
    /// Builds a ring with `vnodes` points per node. `vnodes` is clamped to
    /// at least 1; duplicate node ids contribute once.
    pub fn new(nodes: &[u64], vnodes: usize) -> HashRing {
        let vnodes = vnodes.max(1);
        let mut distinct: Vec<u64> = nodes.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let mut points = Vec::with_capacity(distinct.len() * vnodes);
        for &node in &distinct {
            for replica in 0..vnodes as u64 {
                // Double-mix so node 2 replica 0 and node 0 replica 2
                // land nowhere near each other.
                points.push((splitmix64(splitmix64(node) ^ replica), node));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing { points }
    }

    /// The node owning `session`, or `None` on an empty ring.
    pub fn owner(&self, session: u64) -> Option<u64> {
        self.owner_excluding(session, &HashSet::new())
    }

    /// The node owning `session` when every node in `excluded` is off the
    /// table: walks clockwise from the session's point past excluded
    /// nodes' replicas. `None` when no eligible node remains.
    pub fn owner_excluding(&self, session: u64, excluded: &HashSet<u64>) -> Option<u64> {
        if self.points.is_empty() {
            return None;
        }
        let h = splitmix64(session);
        let start = self.points.partition_point(|&(p, _)| p < h);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !excluded.contains(&node) {
                return Some(node);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_total() {
        let a = HashRing::new(&[1, 2, 3], 64);
        let b = HashRing::new(&[3, 1, 2], 64); // order-independent
        for session in 0..1000u64 {
            let owner = a.owner(session).unwrap();
            assert_eq!(Some(owner), b.owner(session));
            assert!([1, 2, 3].contains(&owner));
        }
    }

    #[test]
    fn virtual_nodes_keep_the_split_roughly_even() {
        let ring = HashRing::new(&[1, 2, 3], 128);
        let mut counts = [0u32; 3];
        for session in 0..30_000u64 {
            counts[(ring.owner(session).unwrap() - 1) as usize] += 1;
        }
        for &c in &counts {
            // A perfectly even split is 10k each; 128 vnodes should hold
            // every node well inside [6k, 14k].
            assert!((6_000..14_000).contains(&c), "unbalanced split: {counts:?}");
        }
    }

    #[test]
    fn excluding_a_node_moves_only_its_sessions() {
        let ring = HashRing::new(&[1, 2, 3], 64);
        let excluded: HashSet<u64> = [2].into_iter().collect();
        for session in 0..2000u64 {
            let before = ring.owner(session).unwrap();
            let after = ring.owner_excluding(session, &excluded).unwrap();
            assert_ne!(after, 2);
            if before != 2 {
                assert_eq!(before, after, "healthy node's session moved");
            }
        }
    }

    #[test]
    fn empty_and_fully_excluded_rings_place_nothing() {
        assert_eq!(HashRing::new(&[], 64).owner(7), None);
        let ring = HashRing::new(&[1], 64);
        let all: HashSet<u64> = [1].into_iter().collect();
        assert_eq!(ring.owner_excluding(7, &all), None);
        assert_eq!(ring.owner(7), Some(1));
    }

    #[test]
    fn duplicate_nodes_and_zero_vnodes_are_tolerated() {
        let ring = HashRing::new(&[5, 5, 5], 0);
        assert_eq!(ring.points.len(), 1, "one node, one point");
        assert_eq!(ring.owner(99), Some(5));
    }
}
