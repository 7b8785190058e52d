//! An index-linked strict LRU list over `u32` slots.
//!
//! The list holds no payload: callers keep their own table indexed by
//! slot (the store's items, Helios' page frames) and ask the list only
//! for order — which slot was used last, which least recently. Every
//! operation is O(1) and, once a slot number has been seen, allocates
//! nothing. The operations are `#[inline]` because their callers sit in
//! other crates' per-access paths.

/// Sentinel for "no neighbour" in the intrusive list.
const NIL: u32 = u32::MAX;

/// A strict LRU list, intrusive over slot indices.
///
/// # Examples
///
/// ```
/// use densekv_sim::lru::StrictLru;
///
/// let mut lru = StrictLru::new();
/// lru.insert(1);
/// lru.insert(2);
/// lru.touch(1); // 2 is now least recent
/// assert_eq!(lru.head(), Some(1));
/// assert_eq!(lru.pop_lru(), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StrictLru {
    prev: Vec<u32>,
    next: Vec<u32>,
    present: Vec<bool>,
    head: u32,
    tail: u32,
    count: usize,
}

impl StrictLru {
    /// Creates an empty list.
    pub fn new() -> Self {
        StrictLru {
            prev: Vec::new(),
            next: Vec::new(),
            present: Vec::new(),
            head: NIL,
            tail: NIL,
            count: 0,
        }
    }

    /// The most recently inserted or touched slot, if any.
    #[must_use]
    #[inline]
    pub fn head(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Number of tracked slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no slots are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Starts tracking `slot` (which must not be tracked) as the most
    /// recent.
    #[inline]
    pub fn insert(&mut self, slot: u32) {
        self.ensure(slot);
        debug_assert!(!self.present[slot as usize], "slot already tracked");
        self.present[slot as usize] = true;
        self.push_front(slot);
        self.count += 1;
    }

    /// Makes `slot` the most recent; an untracked slot is ignored.
    #[inline]
    pub fn touch(&mut self, slot: u32) {
        if self.present.get(slot as usize).copied() != Some(true) {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    /// Stops tracking `slot`; an untracked slot is ignored.
    #[inline]
    pub fn remove(&mut self, slot: u32) {
        if self.present.get(slot as usize).copied() != Some(true) {
            return;
        }
        self.present[slot as usize] = false;
        self.unlink(slot);
        self.count -= 1;
    }

    /// Removes and returns the least recently used slot.
    #[inline]
    pub fn pop_lru(&mut self) -> Option<u32> {
        if self.tail == NIL {
            return None;
        }
        let victim = self.tail;
        self.remove(victim);
        Some(victim)
    }

    fn ensure(&mut self, slot: u32) {
        let need = slot as usize + 1;
        if self.prev.len() < need {
            self.prev.resize(need, NIL);
            self.next.resize(need, NIL);
            self.present.resize(need, false);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_exact_and_head_follows_it() {
        let mut lru = StrictLru::new();
        assert_eq!(lru.head(), None);
        for s in 0..5 {
            lru.insert(s);
        }
        lru.touch(0); // order (LRU->MRU): 1,2,3,4,0
        lru.touch(2); // order: 1,3,4,0,2
        assert_eq!(lru.head(), Some(2));
        lru.remove(2);
        assert_eq!((lru.head(), lru.len()), (Some(0), 4));
        let order: Vec<_> = std::iter::from_fn(|| lru.pop_lru()).collect();
        assert_eq!(order, vec![1, 3, 4, 0]);
        assert!(lru.is_empty());
        assert_eq!(lru.head(), None);
    }
}
