//! Index-linked strict LRU lists over `u32` slots.
//!
//! The lists hold no payload: callers keep their own table indexed by
//! slot (the store's items, Helios' page frames) and ask a list only
//! for order — which slot was used last, which least recently. One
//! [`StrictLru`] holds any number of lists (the store's slab classes)
//! over one link array indexed by slot, so a slot costs its links once
//! however many lists are in use. Every operation is O(1) and, once a
//! slot number has been seen, allocates nothing. The operations are
//! `#[inline]` because their callers sit in other crates' per-access
//! paths.

/// Sentinel for "no neighbour" in the intrusive list.
const NIL: u32 = u32::MAX;

/// Sentinel list of an untracked slot.
const UNTRACKED: u8 = u8::MAX;

/// Strict LRU lists, intrusive over slot indices; a slot is in at most
/// one list at a time.
///
/// # Examples
///
/// ```
/// use densekv_sim::lru::StrictLru;
///
/// let mut lru = StrictLru::new(2);
/// lru.insert(0, 1);
/// lru.insert(0, 2);
/// lru.insert(1, 3);
/// lru.touch(0, 1); // 2 is now least recent in list 0
/// assert_eq!(lru.head(0), Some(1));
/// assert_eq!(lru.pop_lru(0), Some(2));
/// assert_eq!(lru.pop_lru(1), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct StrictLru {
    prev: Vec<u32>,
    next: Vec<u32>,
    /// The list each slot is in, or [`UNTRACKED`].
    list: Vec<u8>,
    /// Each list's (most recent, least recent) slot.
    ends: Vec<(u32, u32)>,
}

impl StrictLru {
    /// Creates `lists` empty lists.
    ///
    /// # Panics
    ///
    /// Panics if `lists` is 255 or more.
    pub fn new(lists: usize) -> Self {
        assert!(lists < usize::from(UNTRACKED), "at most 254 lists");
        StrictLru {
            prev: Vec::new(),
            next: Vec::new(),
            list: Vec::new(),
            ends: vec![(NIL, NIL); lists],
        }
    }

    /// The most recently inserted or touched slot of `list`, if any.
    #[must_use]
    #[inline]
    pub fn head(&self, list: usize) -> Option<u32> {
        let head = self.ends[list].0;
        (head != NIL).then_some(head)
    }

    /// Starts tracking `slot` (which must not be tracked) as the most
    /// recent of `list`.
    #[inline]
    pub fn insert(&mut self, list: usize, slot: u32) {
        self.ensure(slot);
        debug_assert_eq!(self.list[slot as usize], UNTRACKED, "slot already tracked");
        self.list[slot as usize] = list as u8;
        self.push_front(list, slot);
    }

    /// Makes `slot` the most recent of `list`; a slot `list` does not
    /// track is ignored.
    #[inline]
    pub fn touch(&mut self, list: usize, slot: u32) {
        if self.tracks(list, slot) {
            self.unlink(list, slot);
            self.push_front(list, slot);
        }
    }

    /// Stops tracking `slot` in `list`; a slot `list` does not track is
    /// ignored.
    #[inline]
    pub fn remove(&mut self, list: usize, slot: u32) {
        if self.tracks(list, slot) {
            self.list[slot as usize] = UNTRACKED;
            self.unlink(list, slot);
        }
    }

    /// Removes and returns the least recently used slot of `list`.
    #[inline]
    pub fn pop_lru(&mut self, list: usize) -> Option<u32> {
        let victim = self.ends[list].1;
        if victim == NIL {
            return None;
        }
        self.remove(list, victim);
        Some(victim)
    }

    fn tracks(&self, list: usize, slot: u32) -> bool {
        self.list.get(slot as usize) == Some(&(list as u8))
    }

    fn ensure(&mut self, slot: u32) {
        let need = slot as usize + 1;
        if self.prev.len() < need {
            self.prev.resize(need, NIL);
            self.next.resize(need, NIL);
            self.list.resize(need, UNTRACKED);
        }
    }

    fn unlink(&mut self, list: usize, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        let ends = &mut self.ends[list];
        if p == NIL {
            ends.0 = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            ends.1 = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = NIL;
    }

    fn push_front(&mut self, list: usize, slot: u32) {
        let ends = &mut self.ends[list];
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = ends.0;
        if ends.0 != NIL {
            self.prev[ends.0 as usize] = slot;
        }
        ends.0 = slot;
        if ends.1 == NIL {
            ends.1 = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_exact_and_head_follows_it() {
        let mut lru = StrictLru::new(2);
        assert_eq!(lru.head(0), None);
        for s in 0..5 {
            lru.insert(0, s);
        }
        lru.insert(1, 5);
        lru.touch(0, 0); // order (LRU->MRU): 1,2,3,4,0
        lru.touch(0, 2); // order: 1,3,4,0,2
        lru.touch(1, 3); // list 1 does not track 3: ignored
        lru.remove(1, 4); // likewise
        assert_eq!(lru.head(0), Some(2));
        lru.remove(0, 2);
        assert_eq!(lru.head(0), Some(0));
        let order: Vec<_> = std::iter::from_fn(|| lru.pop_lru(0)).collect();
        assert_eq!(order, vec![1, 3, 4, 0]);
        assert_eq!((lru.head(0), lru.head(1)), (None, Some(5)));
        assert_eq!((lru.pop_lru(1), lru.pop_lru(1)), (Some(5), None));
    }
}
