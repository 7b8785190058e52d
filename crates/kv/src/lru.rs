//! Eviction policies: strict LRU and "Bags" pseudo-LRU.
//!
//! Memcached 1.4 keeps a strict LRU list per slab class; every GET moves
//! the item to the head, which under many threads serializes on the LRU
//! lock. Wiggins & Langston's "Bags" rework (cited in §3.6 of the paper)
//! replaces the list with coarse age *bags*: accesses only set a flag, and
//! eviction scans the oldest bag with a second-chance pass. Both policies
//! are implemented here over item slots; the store instantiates one per
//! slab class, as Memcached does.

/// An eviction policy over item slots.
pub trait EvictionPolicy: std::fmt::Debug {
    /// Records that `slot` was inserted.
    fn on_insert(&mut self, slot: u32);
    /// Records that `slot` was read.
    fn on_access(&mut self, slot: u32);
    /// Records that `slot` was removed (deleted or evicted).
    fn on_remove(&mut self, slot: u32);
    /// Picks the next eviction victim, removing it from the policy's
    /// bookkeeping. `None` if the policy tracks no items.
    fn pop_victim(&mut self) -> Option<u32>;
    /// Number of tracked slots.
    fn len(&self) -> usize;
    /// True when no slots are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
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
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn EvictionPolicy + Send> {
        match self {
            EvictionKind::StrictLru => Box::new(StrictLru::new()),
            EvictionKind::Bags => Box::new(BagLru::new(64)),
        }
    }
}

pub use densekv_sim::lru::StrictLru;

/// The strict LRU list lives in `densekv-sim` (Helios' page frames are
/// ordered by it too); this is its face as a store's eviction policy.
///
/// # Examples
///
/// ```
/// use densekv_kv::lru::{EvictionPolicy, StrictLru};
///
/// let mut lru = StrictLru::new();
/// lru.on_insert(1);
/// lru.on_insert(2);
/// lru.on_access(1);            // 2 is now least recent
/// assert_eq!(lru.pop_victim(), Some(2));
/// ```
impl EvictionPolicy for StrictLru {
    fn on_insert(&mut self, slot: u32) {
        self.insert(slot);
    }

    fn on_access(&mut self, slot: u32) {
        self.touch(slot);
    }

    fn on_remove(&mut self, slot: u32) {
        self.remove(slot);
    }

    fn pop_victim(&mut self) -> Option<u32> {
        self.pop_lru()
    }

    fn len(&self) -> usize {
        StrictLru::len(self)
    }
}

/// Bags pseudo-LRU: items live in coarse age bags; GETs only set an
/// "accessed" flag; eviction pops from the oldest bag, giving recently
/// accessed items a second chance in the newest bag.
///
/// # Examples
///
/// ```
/// use densekv_kv::lru::{BagLru, EvictionPolicy};
///
/// let mut bags = BagLru::new(2);
/// bags.on_insert(1);
/// bags.on_insert(2);
/// bags.on_access(1); // flag only — cheap under concurrency
/// assert_eq!(bags.pop_victim(), Some(2), "unaccessed item goes first");
/// ```
#[derive(Debug, Clone)]
pub struct BagLru {
    /// Oldest bag first; within a bag, oldest item first.
    bags: std::collections::VecDeque<std::collections::VecDeque<u32>>,
    /// Inserts into the newest bag before a new bag is opened.
    bag_capacity: usize,
    inserts_in_current: usize,
    accessed: Vec<bool>,
    present: Vec<bool>,
    count: usize,
}

impl BagLru {
    /// Creates a bag LRU that opens a new bag every `bag_capacity`
    /// inserts.
    ///
    /// # Panics
    ///
    /// Panics if `bag_capacity` is zero.
    pub fn new(bag_capacity: usize) -> Self {
        assert!(bag_capacity > 0, "bag capacity must be positive");
        let mut bags = std::collections::VecDeque::new();
        bags.push_back(std::collections::VecDeque::new());
        BagLru {
            bags,
            bag_capacity,
            inserts_in_current: 0,
            accessed: Vec::new(),
            present: Vec::new(),
            count: 0,
        }
    }

    fn ensure(&mut self, slot: u32) {
        let need = slot as usize + 1;
        if self.accessed.len() < need {
            self.accessed.resize(need, false);
            self.present.resize(need, false);
        }
    }
}

impl EvictionPolicy for BagLru {
    fn on_insert(&mut self, slot: u32) {
        self.ensure(slot);
        debug_assert!(!self.present[slot as usize], "slot already tracked");
        self.present[slot as usize] = true;
        self.accessed[slot as usize] = false;
        if self.inserts_in_current >= self.bag_capacity {
            self.bags.push_back(std::collections::VecDeque::new());
            self.inserts_in_current = 0;
        }
        self.bags
            .back_mut()
            .expect("always one bag")
            .push_back(slot);
        self.inserts_in_current += 1;
        self.count += 1;
    }

    fn on_access(&mut self, slot: u32) {
        if let Some(flag) = self.accessed.get_mut(slot as usize) {
            *flag = true;
        }
    }

    fn on_remove(&mut self, slot: u32) {
        if self.present.get(slot as usize).copied() == Some(true) {
            self.present[slot as usize] = false;
            self.count -= 1;
            // Lazy removal: the slot stays in its bag and is skipped when
            // the bag is drained — this is what keeps removals O(1).
        }
    }

    fn pop_victim(&mut self) -> Option<u32> {
        if self.count == 0 {
            return None;
        }
        loop {
            let front_empty = self
                .bags
                .front()
                .is_some_and(std::collections::VecDeque::is_empty);
            if front_empty && self.bags.len() > 1 {
                self.bags.pop_front();
                continue;
            }
            let slot = self.bags.front_mut()?.pop_front()?;
            if !self.present[slot as usize] {
                continue; // lazily removed earlier
            }
            if self.accessed[slot as usize] {
                // Second chance: demote to the newest bag, clear the flag.
                self.accessed[slot as usize] = false;
                self.bags
                    .back_mut()
                    .expect("always one bag")
                    .push_back(slot);
                continue;
            }
            self.present[slot as usize] = false;
            self.count -= 1;
            return Some(slot);
        }
    }

    fn len(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_policy_contract(mut p: Box<dyn EvictionPolicy + Send>) {
        assert!(p.is_empty());
        assert_eq!(p.pop_victim(), None);
        for slot in 0..10 {
            p.on_insert(slot);
        }
        assert_eq!(p.len(), 10);
        p.on_remove(3);
        assert_eq!(p.len(), 9);
        // Victims must be unique, never the removed slot, and drain fully.
        let mut seen = std::collections::HashSet::new();
        while let Some(v) = p.pop_victim() {
            assert_ne!(v, 3, "removed slot must not be evicted");
            assert!(seen.insert(v), "victim {v} repeated");
        }
        assert_eq!(seen.len(), 9);
        assert!(p.is_empty());
    }

    #[test]
    fn strict_contract() {
        run_policy_contract(EvictionKind::StrictLru.build());
    }

    #[test]
    fn bags_contract() {
        run_policy_contract(EvictionKind::Bags.build());
    }

    #[test]
    fn strict_lru_order_is_exact() {
        let mut lru = StrictLru::new();
        for s in 0..5 {
            lru.on_insert(s);
        }
        lru.on_access(0); // order (LRU->MRU): 1,2,3,4,0
        lru.on_access(2); // order: 1,3,4,0,2
        let order: Vec<_> = std::iter::from_fn(|| lru.pop_victim()).collect();
        assert_eq!(order, vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn bags_second_chance() {
        let mut bags = BagLru::new(2);
        for s in 0..4 {
            bags.on_insert(s);
        }
        bags.on_access(0);
        bags.on_access(1);
        // 0 and 1 were accessed: they survive the first pass.
        let first = bags.pop_victim().unwrap();
        let second = bags.pop_victim().unwrap();
        assert_eq!(
            {
                let mut v = vec![first, second];
                v.sort_unstable();
                v
            },
            vec![2, 3]
        );
        // Next victims are the second-chanced ones.
        let mut rest: Vec<_> = std::iter::from_fn(|| bags.pop_victim()).collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 1]);
    }

    #[test]
    fn bags_open_new_bags_by_insert_count() {
        let mut bags = BagLru::new(3);
        for s in 0..10 {
            bags.on_insert(s);
        }
        assert!(bags.bags.len() >= 3);
    }

    #[test]
    fn strict_reinsert_after_eviction() {
        let mut lru = StrictLru::new();
        lru.on_insert(7);
        assert_eq!(lru.pop_victim(), Some(7));
        lru.on_insert(7);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.pop_victim(), Some(7));
    }

    #[test]
    fn access_of_untracked_slot_is_noop() {
        let mut lru = StrictLru::new();
        lru.on_access(99);
        assert!(lru.is_empty());
        let mut bags = BagLru::new(4);
        bags.on_access(99);
        assert!(bags.is_empty());
    }
}
