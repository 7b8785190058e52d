//! Consistent hashing over the server's stacks (paper §3.8).
//!
//! A Memcached cluster maps each key onto a point on a circle; every node
//! owns the arcs adjacent to its positions. The paper argues that because
//! Mercury/Iridium multiply the number of *physical* nodes (every core is
//! an independent Memcached instance), resource contention from uneven
//! arc ownership shrinks without needing many virtual nodes. This crate
//! provides the ring plus the load-imbalance statistics that back that
//! argument (reproduced by the `dht_balance` bench).
//!
//! The ring is one sorted array of `(position, node)` points. A lookup
//! is a binary search for the first point at or after the key's hash,
//! wrapping to the first point past the end; adding a node inserts its
//! points in order, and a point landing on an occupied position replaces
//! it (the last writer wins). The cluster simulator looks up a key per
//! shard request, so the lookup is the hot path and membership changes
//! are rare.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use densekv_sim::SplitMix64;

/// Hashes an arbitrary byte string onto the ring (SplitMix64 finalizer
/// over a FNV-style fold — stable across runs).
fn ring_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // One SplitMix64 scramble to spread FNV's weak high bits.
    SplitMix64::new(h).next_u64()
}

/// A consistent-hash ring with virtual nodes.
///
/// # Examples
///
/// ```
/// use densekv_dht::ConsistentHashRing;
///
/// let mut ring = ConsistentHashRing::new(4);
/// ring.add_node(0);
/// ring.add_node(1);
/// let owner = ring.node_for(b"user:42").unwrap();
/// assert!(owner == 0 || owner == 1);
/// // Same key, same owner.
/// assert_eq!(ring.node_for(b"user:42"), Some(owner));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ConsistentHashRing {
    /// `(ring position, node id)`, sorted by position, positions unique.
    ring: Vec<(u64, u32)>,
    vnodes: u32,
    nodes: Vec<u32>,
}

impl ConsistentHashRing {
    /// Creates an empty ring placing `vnodes` virtual nodes per physical
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn new(vnodes: u32) -> Self {
        assert!(vnodes > 0, "need at least one virtual node");
        ConsistentHashRing {
            ring: Vec::new(),
            vnodes,
            nodes: Vec::new(),
        }
    }

    /// Physical nodes currently on the ring.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no nodes.
    ///
    /// ```
    /// use densekv_dht::ConsistentHashRing;
    ///
    /// let mut ring = ConsistentHashRing::new(4);
    /// assert!(ring.is_empty());
    /// ring.add_node(7);
    /// assert!(!ring.is_empty());
    /// ```
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a physical node (idempotent).
    pub fn add_node(&mut self, node: u32) {
        if self.nodes.contains(&node) {
            return;
        }
        self.nodes.push(node);
        for v in 0..self.vnodes {
            let pos = ring_hash(format!("node:{node}:vnode:{v}").as_bytes());
            self.insert_point(pos, node);
        }
    }

    /// Puts `node` at `pos`, keeping the points sorted. An occupied
    /// position changes hands: the last writer wins.
    fn insert_point(&mut self, pos: u64, node: u32) {
        match self.ring.binary_search_by_key(&pos, |&(p, _)| p) {
            Ok(i) => self.ring[i].1 = node,
            Err(i) => self.ring.insert(i, (pos, node)),
        }
    }

    /// Removes a physical node and all its virtual positions.
    ///
    /// Never panics: removing a node that was never added, or the last
    /// node on the ring, is fine — lookups on the emptied ring return
    /// `None`.
    ///
    /// ```
    /// use densekv_dht::ConsistentHashRing;
    ///
    /// let mut ring = ConsistentHashRing::new(4);
    /// ring.add_node(0);
    /// ring.remove_node(99); // absent: no-op
    /// ring.remove_node(0);  // last node: ring becomes empty
    /// ring.remove_node(0);  // already gone: still a no-op
    /// assert_eq!(ring.node_for(b"k"), None);
    /// ```
    pub fn remove_node(&mut self, node: u32) {
        self.nodes.retain(|&n| n != node);
        self.ring.retain(|&(_, n)| n != node);
    }

    /// The node owning `key`, or `None` on an empty ring (never panics).
    #[must_use]
    pub fn node_for(&self, key: &[u8]) -> Option<u32> {
        let h = ring_hash(key);
        let i = self.ring.partition_point(|&(p, _)| p < h);
        self.ring
            .get(i)
            .or_else(|| self.ring.first())
            .map(|&(_, node)| node)
    }

    /// Fraction of the ring each node owns, by arc length.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn arc_ownership(&self) -> Vec<(u32, f64)> {
        let points = &self.ring;
        if points.is_empty() {
            return Vec::new();
        }
        let mut owned: std::collections::HashMap<u32, u128> = std::collections::HashMap::new();
        for i in 0..points.len() {
            let (start, _) = points[i];
            // The arc (previous point, this point] belongs to this node.
            let prev = if i == 0 {
                points[points.len() - 1].0
            } else {
                points[i - 1].0
            };
            let arc = start.wrapping_sub(prev) as u128;
            *owned.entry(points[i].1).or_insert(0) += arc;
        }
        let total = u64::MAX as u128 + 1;
        let mut result: Vec<(u32, f64)> = owned
            .into_iter()
            .map(|(node, arc)| (node, arc as f64 / total as f64))
            .collect();
        result.sort_unstable_by_key(|&(node, _)| node);
        result
    }

    /// Simulates `samples` uniformly random keys and returns the load
    /// imbalance: `max node share / mean share` (1.0 = perfect).
    ///
    /// Deterministic for a fixed `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[must_use]
    pub fn load_imbalance(&self, samples: u64, seed: u64) -> f64 {
        assert!(!self.ring.is_empty(), "ring has no nodes");
        let mut rng = SplitMix64::new(seed);
        let mut counts: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for _ in 0..samples {
            let key = rng.next_u64().to_le_bytes();
            let node = self.node_for(&key).expect("nonempty ring");
            *counts.entry(node).or_insert(0) += 1;
        }
        let max = counts.values().copied().max().unwrap_or(0) as f64;
        let mean = samples as f64 / self.nodes.len() as f64;
        max / mean
    }
}

/// Keys that move when a cluster grows from `before` to `after` nodes —
/// consistent hashing's selling point is that this stays near
/// `1/after` instead of rehashing everything.
///
/// Deterministic for a fixed `seed` (the same `samples` keys are drawn
/// from a seeded [`SplitMix64`] stream). Empty rings are fine — keys map
/// to `None` there, which counts as a move iff the other ring maps them
/// to a node. Returns `0.0` when `samples` is zero.
///
/// ```
/// use densekv_dht::{remapped_fraction, ConsistentHashRing};
///
/// let mut before = ConsistentHashRing::new(16);
/// (0..8).for_each(|n| before.add_node(n));
/// let mut after = before.clone();
/// after.remove_node(3);
///
/// let moved = remapped_fraction(&before, &after, 10_000, 42);
/// // Only node 3's arcs move: roughly 1/8th of the keys.
/// assert!(moved > 0.0 && moved < 0.35);
/// // Seeded: the exact value reproduces.
/// assert_eq!(moved, remapped_fraction(&before, &after, 10_000, 42));
/// ```
#[must_use]
pub fn remapped_fraction(
    before: &ConsistentHashRing,
    after: &ConsistentHashRing,
    samples: u64,
    seed: u64,
) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    let mut rng = SplitMix64::new(seed);
    let mut moved = 0;
    for _ in 0..samples {
        let key = rng.next_u64().to_le_bytes();
        if before.node_for(&key) != after.node_for(&key) {
            moved += 1;
        }
    }
    moved as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    fn ring_with(nodes: u32, vnodes: u32) -> ConsistentHashRing {
        let mut ring = ConsistentHashRing::new(vnodes);
        for n in 0..nodes {
            ring.add_node(n);
        }
        ring
    }

    #[test]
    fn lookup_is_stable() {
        let ring = ring_with(8, 16);
        for i in 0..100 {
            let key = format!("k{i}");
            assert_eq!(ring.node_for(key.as_bytes()), ring.node_for(key.as_bytes()));
        }
    }

    #[test]
    fn empty_ring_returns_none() {
        let ring = ConsistentHashRing::new(4);
        assert_eq!(ring.node_for(b"x"), None);
        assert!(ring.arc_ownership().is_empty());
    }

    #[test]
    fn add_is_idempotent_and_remove_works() {
        let mut ring = ring_with(3, 8);
        ring.add_node(1);
        assert_eq!(ring.node_count(), 3);
        ring.remove_node(1);
        assert_eq!(ring.node_count(), 2);
        for i in 0..200 {
            let key = format!("k{i}");
            assert_ne!(
                ring.node_for(key.as_bytes()),
                Some(1),
                "removed node owns nothing"
            );
        }
    }

    #[test]
    fn more_vnodes_balance_better() {
        // Paper §3.8: virtual nodes distribute arcs more uniformly.
        let coarse = ring_with(16, 1).load_imbalance(100_000, 7);
        let fine = ring_with(16, 64).load_imbalance(100_000, 7);
        assert!(
            fine < coarse,
            "64 vnodes ({fine:.3}) should balance better than 1 ({coarse:.3})"
        );
        assert!(
            fine < 1.5,
            "fine-grained ring should be near-uniform: {fine:.3}"
        );
    }

    #[test]
    fn more_physical_nodes_reduce_hot_arc_share() {
        // The paper's argument for many small nodes: each owns a smaller
        // arc, so the worst node's share of total traffic shrinks.
        let few = ring_with(6, 4);
        let many = ring_with(96, 4);
        let worst_share_few = few
            .arc_ownership()
            .into_iter()
            .map(|(_, s)| s)
            .fold(0.0f64, f64::max);
        let worst_share_many = many
            .arc_ownership()
            .into_iter()
            .map(|(_, s)| s)
            .fold(0.0f64, f64::max);
        assert!(worst_share_many < worst_share_few);
    }

    #[test]
    fn arc_ownership_sums_to_one() {
        let ring = ring_with(10, 8);
        let total: f64 = ring.arc_ownership().iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn remove_of_absent_or_last_node_never_panics() {
        let mut ring = ConsistentHashRing::new(4);
        ring.remove_node(5); // empty ring, absent node
        ring.add_node(0);
        ring.remove_node(5); // absent node
        assert_eq!(ring.node_count(), 1);
        ring.remove_node(0); // last node
        assert!(ring.is_empty());
        assert_eq!(ring.node_for(b"anything"), None);
        ring.remove_node(0); // double-remove
        assert!(ring.is_empty());
    }

    #[test]
    fn remapped_fraction_is_seeded_and_total_for_empty_after() {
        let before = ring_with(4, 8);
        let empty = ConsistentHashRing::new(8);
        // Every key maps Some -> None: all move.
        assert_eq!(remapped_fraction(&before, &empty, 1_000, 1), 1.0);
        // None -> None: nothing moves, and zero samples is not a NaN.
        assert_eq!(remapped_fraction(&empty, &empty, 1_000, 1), 0.0);
        assert_eq!(remapped_fraction(&before, &empty, 0, 1), 0.0);
        // Same seed, same answer; different seed may sample differently.
        let shrunk = ring_with(3, 8);
        let a = remapped_fraction(&before, &shrunk, 10_000, 9);
        let b = remapped_fraction(&before, &shrunk, 10_000, 9);
        assert_eq!(a, b);
    }

    /// A ring kept in a `BTreeMap` from position to node and queried by
    /// range: the reference the equivalence tests below drive with the
    /// same operations as [`ConsistentHashRing`].
    struct TreeRing {
        ring: BTreeMap<u64, u32>,
        vnodes: u32,
        nodes: Vec<u32>,
    }

    impl TreeRing {
        fn add_node(&mut self, node: u32) {
            if self.nodes.contains(&node) {
                return;
            }
            self.nodes.push(node);
            for v in 0..self.vnodes {
                let pos = ring_hash(format!("node:{node}:vnode:{v}").as_bytes());
                self.ring.insert(pos, node);
            }
        }

        fn remove_node(&mut self, node: u32) {
            self.nodes.retain(|&n| n != node);
            self.ring.retain(|_, n| *n != node);
        }

        fn node_for(&self, key: &[u8]) -> Option<u32> {
            let h = ring_hash(key);
            self.ring
                .range(h..)
                .next()
                .or_else(|| self.ring.iter().next())
                .map(|(_, &node)| node)
        }

        fn arc_ownership(&self) -> Vec<(u32, f64)> {
            let points: Vec<(u64, u32)> = self.ring.iter().map(|(&p, &n)| (p, n)).collect();
            let mut owned: BTreeMap<u32, u128> = BTreeMap::new();
            for (i, &(pos, node)) in points.iter().enumerate() {
                let prev = points[(i + points.len() - 1) % points.len()].0;
                *owned.entry(node).or_insert(0) += pos.wrapping_sub(prev) as u128;
            }
            let total = u64::MAX as u128 + 1;
            owned
                .into_iter()
                .map(|(node, arc)| (node, arc as f64 / total as f64))
                .collect()
        }
    }

    #[derive(Debug, Clone)]
    enum RingOp {
        Add(u32),
        Remove(u32),
        /// Removes every node, the last one included.
        RemoveAll,
    }

    fn ring_op() -> impl Strategy<Value = RingOp> {
        // Few node ids, so re-adds and removes of absent nodes are common.
        prop_oneof![
            (0u32..6).prop_map(RingOp::Add),
            (0u32..6).prop_map(RingOp::Add),
            (0u32..8).prop_map(RingOp::Remove),
            (0u8..1).prop_map(|_| RingOp::RemoveAll),
        ]
    }

    proptest! {
        /// Any add/remove sequence leaves the sorted-array ring routing
        /// every key, and splitting the circle, as the tree ring does.
        #[test]
        fn sorted_ring_matches_tree_ring(
            vnodes in 1u32..6,
            ops in proptest::collection::vec(ring_op(), 1..40),
            keys in proptest::collection::vec(any::<u64>(), 32),
        ) {
            let mut ring = ConsistentHashRing::new(vnodes);
            let mut tree = TreeRing { ring: BTreeMap::new(), vnodes, nodes: Vec::new() };
            for op in ops {
                match op {
                    RingOp::Add(n) => {
                        ring.add_node(n);
                        tree.add_node(n);
                    }
                    RingOp::Remove(n) => {
                        ring.remove_node(n);
                        tree.remove_node(n);
                    }
                    RingOp::RemoveAll => {
                        for n in tree.nodes.clone() {
                            ring.remove_node(n);
                            tree.remove_node(n);
                        }
                        prop_assert!(ring.is_empty());
                    }
                }
                prop_assert_eq!(ring.node_count(), tree.nodes.len());
                for key in &keys {
                    let kb = key.to_le_bytes();
                    prop_assert_eq!(ring.node_for(&kb), tree.node_for(&kb));
                }
                prop_assert_eq!(ring.arc_ownership(), tree.arc_ownership());
            }
        }

        /// Points written straight to colliding positions end up where a
        /// `BTreeMap::insert` puts them: sorted, one per position, owned
        /// by the last writer.
        #[test]
        fn insert_point_matches_btree_insert(
            points in proptest::collection::vec((0u64..16, 0u32..4), 0..40),
        ) {
            let mut ring = ConsistentHashRing::new(1);
            let mut tree = BTreeMap::new();
            for (pos, node) in points {
                ring.insert_point(pos, node);
                tree.insert(pos, node);
            }
            prop_assert_eq!(ring.ring, tree.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn equal_position_goes_to_the_last_writer() {
        let mut ring = ConsistentHashRing::new(1);
        ring.insert_point(10, 1);
        ring.insert_point(5, 0);
        ring.insert_point(10, 2);
        assert_eq!(ring.ring, vec![(5, 0), (10, 2)]);
        ring.insert_point(5, 3);
        assert_eq!(ring.ring, vec![(5, 3), (10, 2)]);
    }

    #[test]
    fn growth_remaps_about_one_over_n() {
        let before = ring_with(9, 32);
        let after = ring_with(10, 32);
        let moved = remapped_fraction(&before, &after, 50_000, 3);
        assert!(
            (0.05..0.2).contains(&moved),
            "adding 1 of 10 nodes should move ~10% of keys, moved {moved:.3}"
        );
    }
}
