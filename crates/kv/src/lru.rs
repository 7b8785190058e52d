//! Eviction policies: strict LRU and "Bags" pseudo-LRU.
//!
//! Memcached 1.4 keeps a strict LRU list per slab class; every GET moves
//! the item to the head, which under many threads serializes on the LRU
//! lock. Wiggins & Langston's "Bags" rework (cited in §3.6 of the paper)
//! replaces the list with coarse age *bags*: accesses only set a flag, and
//! eviction scans the oldest bag with a second-chance pass. Both policies
//! are implemented here over item slots. A store keeps one policy that
//! orders each slab class apart, as Memcached does, over per-slot state
//! shared by every class.

use std::collections::VecDeque;

/// An eviction policy over item slots, ordering each class apart.
pub trait EvictionPolicy: std::fmt::Debug {
    /// Records that `slot` was inserted into `class`.
    fn on_insert(&mut self, class: usize, slot: u32);
    /// Records that `slot` of `class` was read.
    fn on_access(&mut self, class: usize, slot: u32);
    /// Records that `slot` of `class` was removed (deleted or evicted).
    fn on_remove(&mut self, class: usize, slot: u32);
    /// Picks the next eviction victim of `class`, removing it from the
    /// policy's bookkeeping. `None` if the class tracks no items.
    fn pop_victim(&mut self, class: usize) -> Option<u32>;
}

/// Which policy a store uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionKind {
    /// Strict LRU list (Memcached 1.4).
    #[default]
    StrictLru,
    /// Bags pseudo-LRU (Wiggins & Langston).
    Bags,
}

impl EvictionKind {
    /// Instantiates the policy over `classes` classes.
    pub fn build(self, classes: usize) -> Box<dyn EvictionPolicy + Send> {
        match self {
            EvictionKind::StrictLru => Box::new(StrictLru::new(classes)),
            EvictionKind::Bags => Box::new(BagLru::new(classes, 64)),
        }
    }
}

pub use densekv_sim::lru::StrictLru;

/// The strict LRU lists live in `densekv-sim` (Helios' page frames are
/// ordered by one too); this is their face as a store's eviction
/// policy, one list per class.
///
/// # Examples
///
/// ```
/// use densekv_kv::lru::{EvictionPolicy, StrictLru};
///
/// let mut lru = StrictLru::new(1);
/// lru.on_insert(0, 1);
/// lru.on_insert(0, 2);
/// lru.on_access(0, 1);            // 2 is now least recent
/// assert_eq!(lru.pop_victim(0), Some(2));
/// ```
impl EvictionPolicy for StrictLru {
    fn on_insert(&mut self, class: usize, slot: u32) {
        self.insert(class, slot);
    }

    fn on_access(&mut self, class: usize, slot: u32) {
        self.touch(class, slot);
    }

    fn on_remove(&mut self, class: usize, slot: u32) {
        self.remove(class, slot);
    }

    fn pop_victim(&mut self, class: usize) -> Option<u32> {
        self.pop_lru(class)
    }
}

/// Sentinel class of an untracked slot.
const UNTRACKED: u8 = u8::MAX;

/// Bags pseudo-LRU: items live in coarse age bags; GETs only set an
/// "accessed" flag; eviction pops from the class's oldest bag, giving
/// recently accessed items a second chance in its newest bag.
///
/// # Examples
///
/// ```
/// use densekv_kv::lru::{BagLru, EvictionPolicy};
///
/// let mut bags = BagLru::new(1, 2);
/// bags.on_insert(0, 1);
/// bags.on_insert(0, 2);
/// bags.on_access(0, 1); // flag only — cheap under concurrency
/// assert_eq!(bags.pop_victim(0), Some(2), "unaccessed item goes first");
/// ```
#[derive(Debug, Clone)]
pub struct BagLru {
    classes: Vec<Bags>,
    /// Inserts into a class's newest bag before a new bag is opened.
    bag_capacity: usize,
    accessed: Vec<bool>,
    /// The class each slot is tracked in, or [`UNTRACKED`].
    class_of: Vec<u8>,
}

/// One class's bags.
#[derive(Debug, Clone)]
struct Bags {
    /// Oldest bag first; within a bag, oldest item first.
    bags: VecDeque<VecDeque<u32>>,
    inserts_in_current: usize,
    /// Slots the class tracks; its bags also hold lazily removed ones.
    live: usize,
}

impl BagLru {
    /// Creates a bag LRU over `classes` classes that opens a new bag in
    /// a class every `bag_capacity` inserts into it.
    ///
    /// # Panics
    ///
    /// Panics if `bag_capacity` is zero or `classes` 255 or more.
    pub fn new(classes: usize, bag_capacity: usize) -> Self {
        assert!(bag_capacity > 0, "bag capacity must be positive");
        assert!(classes < usize::from(UNTRACKED), "at most 254 classes");
        let empty = Bags {
            bags: VecDeque::from([VecDeque::new()]),
            inserts_in_current: 0,
            live: 0,
        };
        BagLru {
            classes: vec![empty; classes],
            bag_capacity,
            accessed: Vec::new(),
            class_of: Vec::new(),
        }
    }

    fn tracks(&self, class: usize, slot: u32) -> bool {
        self.class_of.get(slot as usize) == Some(&(class as u8))
    }
}

impl EvictionPolicy for BagLru {
    fn on_insert(&mut self, class: usize, slot: u32) {
        let need = slot as usize + 1;
        if self.accessed.len() < need {
            self.accessed.resize(need, false);
            self.class_of.resize(need, UNTRACKED);
        }
        debug_assert_eq!(
            self.class_of[slot as usize], UNTRACKED,
            "slot already tracked"
        );
        self.class_of[slot as usize] = class as u8;
        self.accessed[slot as usize] = false;
        let c = &mut self.classes[class];
        if c.inserts_in_current >= self.bag_capacity {
            c.bags.push_back(VecDeque::new());
            c.inserts_in_current = 0;
        }
        c.bags.back_mut().expect("always one bag").push_back(slot);
        c.inserts_in_current += 1;
        c.live += 1;
    }

    fn on_access(&mut self, class: usize, slot: u32) {
        if self.tracks(class, slot) {
            self.accessed[slot as usize] = true;
        }
    }

    fn on_remove(&mut self, class: usize, slot: u32) {
        if self.tracks(class, slot) {
            self.class_of[slot as usize] = UNTRACKED;
            self.classes[class].live -= 1;
            // Lazy removal: the slot stays in its bag and is skipped when
            // the bag is drained — this is what keeps removals O(1).
        }
    }

    fn pop_victim(&mut self, class: usize) -> Option<u32> {
        let c = &mut self.classes[class];
        if c.live == 0 {
            return None;
        }
        loop {
            if c.bags.front().is_some_and(VecDeque::is_empty) && c.bags.len() > 1 {
                c.bags.pop_front();
                continue;
            }
            let slot = c.bags.front_mut()?.pop_front()?;
            if self.class_of[slot as usize] != class as u8 {
                continue; // lazily removed earlier
            }
            if self.accessed[slot as usize] {
                // Second chance: demote to the newest bag, clear the flag.
                self.accessed[slot as usize] = false;
                c.bags.back_mut().expect("always one bag").push_back(slot);
                continue;
            }
            self.class_of[slot as usize] = UNTRACKED;
            c.live -= 1;
            return Some(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_policy_contract(mut p: Box<dyn EvictionPolicy + Send>) {
        assert_eq!(p.pop_victim(0), None);
        for slot in 0..10 {
            p.on_insert(usize::from(slot >= 6), slot);
        }
        p.on_remove(0, 3);
        p.on_remove(0, 7); // tracked in class 1: ignored
                           // Victims must be unique, of their class, never the removed
                           // slot, and drain fully.
        let mut seen = std::collections::HashSet::new();
        for class in 0..2 {
            while let Some(v) = p.pop_victim(class) {
                assert_ne!(v, 3, "removed slot must not be evicted");
                assert_eq!(usize::from(v >= 6), class, "victim {v} of its class");
                assert!(seen.insert(v), "victim {v} repeated");
            }
        }
        assert_eq!(seen.len(), 9);
    }

    #[test]
    fn strict_contract() {
        run_policy_contract(EvictionKind::StrictLru.build(2));
    }

    #[test]
    fn bags_contract() {
        run_policy_contract(EvictionKind::Bags.build(2));
    }

    #[test]
    fn strict_lru_order_is_exact() {
        let mut lru = StrictLru::new(1);
        for s in 0..5 {
            lru.on_insert(0, s);
        }
        lru.on_access(0, 0); // order (LRU->MRU): 1,2,3,4,0
        lru.on_access(0, 2); // order: 1,3,4,0,2
        let order: Vec<_> = std::iter::from_fn(|| lru.pop_victim(0)).collect();
        assert_eq!(order, vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn bags_second_chance() {
        let mut bags = BagLru::new(1, 2);
        for s in 0..4 {
            bags.on_insert(0, s);
        }
        bags.on_access(0, 0);
        bags.on_access(0, 1);
        // 0 and 1 were accessed: they survive the first pass.
        let first = bags.pop_victim(0).unwrap();
        let second = bags.pop_victim(0).unwrap();
        assert_eq!(
            {
                let mut v = vec![first, second];
                v.sort_unstable();
                v
            },
            vec![2, 3]
        );
        // Next victims are the second-chanced ones.
        let mut rest: Vec<_> = std::iter::from_fn(|| bags.pop_victim(0)).collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 1]);
    }

    #[test]
    fn bags_empty_class_keeps_its_stale_entries() {
        // A class with nothing live answers `None` without draining its
        // bags, so a slot removed and inserted again keeps its older
        // entry and is evicted from there.
        let mut bags = BagLru::new(1, 8);
        bags.on_insert(0, 1);
        bags.on_remove(0, 1);
        assert_eq!(bags.pop_victim(0), None);
        bags.on_insert(0, 2);
        bags.on_insert(0, 1);
        let order: Vec<_> = std::iter::from_fn(|| bags.pop_victim(0)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn bags_open_new_bags_by_insert_count() {
        let mut bags = BagLru::new(1, 3);
        for s in 0..10 {
            bags.on_insert(0, s);
        }
        assert!(bags.classes[0].bags.len() >= 3);
    }

    #[test]
    fn strict_reinsert_after_eviction() {
        let mut lru = StrictLru::new(1);
        lru.on_insert(0, 7);
        assert_eq!(lru.pop_victim(0), Some(7));
        lru.on_insert(0, 7);
        assert_eq!(lru.pop_victim(0), Some(7));
        assert_eq!(lru.pop_victim(0), None);
    }

    #[test]
    fn access_of_untracked_slot_is_noop() {
        let mut lru = StrictLru::new(1);
        lru.on_access(0, 99);
        assert_eq!(lru.pop_victim(0), None);
        let mut bags = BagLru::new(1, 4);
        bags.on_access(0, 99);
        assert_eq!(bags.pop_victim(0), None);
    }

    /// One op of the policy differential: what, on which class, which
    /// slot.
    fn policy_op() -> impl proptest::Strategy<Value = (u8, usize, u32)> {
        (0u8..4, 0usize..3, 0u32..24)
    }

    /// Drives `shared`, one policy over three classes, and `apart`, one
    /// single-class policy per class (the shape the shared policy
    /// replaced), op for op; every victim of every class must agree,
    /// and so must the final drain.
    fn classes_match_one_policy_each(
        mut shared: Box<dyn EvictionPolicy + Send>,
        mut apart: Vec<Box<dyn EvictionPolicy + Send>>,
        ops: &[(u8, usize, u32)],
    ) {
        // The class each live slot is in: a store inserts a slot only
        // once its last item is gone.
        let mut live = std::collections::HashMap::new();
        for &(op, class, slot) in ops {
            match op {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(entry) = live.entry(slot) {
                        entry.insert(class);
                        shared.on_insert(class, slot);
                        apart[class].on_insert(0, slot);
                    }
                }
                // Accesses and removals in another class than the
                // slot's are ignored by both.
                1 => {
                    shared.on_access(class, slot);
                    apart[class].on_access(0, slot);
                }
                2 => {
                    if live.get(&slot) == Some(&class) {
                        live.remove(&slot);
                    }
                    shared.on_remove(class, slot);
                    apart[class].on_remove(0, slot);
                }
                _ => {
                    let victim = shared.pop_victim(class);
                    proptest::prop_assert_eq!(victim, apart[class].pop_victim(0));
                    if let Some(v) = victim {
                        proptest::prop_assert_eq!(live.remove(&v), Some(class));
                    }
                }
            }
        }
        for (class, apart) in apart.iter_mut().enumerate() {
            let drained: Vec<_> = std::iter::from_fn(|| shared.pop_victim(class)).collect();
            let expected: Vec<_> = std::iter::from_fn(|| apart.pop_victim(0)).collect();
            proptest::prop_assert_eq!(drained, expected, "class {}", class);
        }
    }

    proptest::proptest! {
        /// The class-aware strict LRU and Bags policies evict, class by
        /// class, exactly what one single-class policy per class evicts.
        #[test]
        fn class_aware_policies_match_one_policy_per_class(
            ops in proptest::collection::vec(policy_op(), 1..300)
        ) {
            classes_match_one_policy_each(
                Box::new(StrictLru::new(3)),
                (0..3).map(|_| Box::new(StrictLru::new(1)) as _).collect(),
                &ops,
            );
            // Bags of two, so the drains cross bag boundaries.
            classes_match_one_policy_each(
                Box::new(BagLru::new(3, 2)),
                (0..3).map(|_| Box::new(BagLru::new(1, 2)) as _).collect(),
                &ops,
            );
        }
    }
}
