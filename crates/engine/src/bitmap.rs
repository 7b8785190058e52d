//! Multi-level allocation bitmaps, bricksKV-style.
//!
//! One leaf bit per page (set = allocated). Each upper-level bit
//! summarizes 8 bits of the level below — set exactly when all 8
//! children are set — so "is there a free page?" is answered at the
//! top in O(1) and *which* page by a top-down scan that touches one
//! byte per level: O(log₈ pages) instead of a linear sweep. Groups are
//! byte-aligned, so a summary check is a single byte compare.
//!
//! Padding bits past the real capacity are held permanently set at
//! every level; the scan therefore never descends into pages that do
//! not exist, with no boundary special-casing.

/// Words needed to hold `bits` bits.
fn word_count(bits: u64) -> usize {
    bits.div_ceil(64) as usize
}

fn get_bit(words: &[u64], idx: u64) -> bool {
    words[(idx / 64) as usize] >> (idx % 64) & 1 == 1
}

fn set_bit(words: &mut [u64], idx: u64) {
    words[(idx / 64) as usize] |= 1 << (idx % 64);
}

fn clear_bit(words: &mut [u64], idx: u64) {
    words[(idx / 64) as usize] &= !(1 << (idx % 64));
}

/// The 8-bit child group summarized by bit `group` one level up.
fn byte_of(words: &[u64], group: u64) -> u8 {
    (words[(group / 8) as usize] >> ((group % 8) * 8)) as u8
}

/// Sets every padding bit in `[real_bits, words * 64)`.
fn set_padding(words: &mut [u64], real_bits: u64) {
    let total = words.len() as u64 * 64;
    for idx in real_bits..total {
        set_bit(words, idx);
    }
}

/// A grow-only multi-level bitmap over `capacity` leaf bits.
///
/// # Examples
///
/// ```
/// use densekv_engine::MultiLevelBitmap;
///
/// let mut bm = MultiLevelBitmap::new(100);
/// let page = bm.find_free().expect("empty bitmap has room");
/// bm.set(page);
/// assert_eq!(bm.used(), 1);
/// bm.clear(page);
/// assert_eq!(bm.used(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MultiLevelBitmap {
    /// `levels[0]` holds the leaves; `levels[k]` bit `j` summarizes
    /// bits `8j..8j+8` of `levels[k - 1]`. The top level is one bit.
    levels: Vec<Vec<u64>>,
    /// Real bits per level (the rest of each word array is padding).
    level_bits: Vec<u64>,
    used: u64,
}

impl MultiLevelBitmap {
    /// An empty bitmap over `capacity` leaf bits (0 is allowed: a tier
    /// that has not allocated its first extent yet).
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        let mut bm = MultiLevelBitmap {
            levels: Vec::new(),
            level_bits: Vec::new(),
            used: 0,
        };
        bm.grow(capacity);
        bm
    }

    /// Leaf bits.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.level_bits.first().copied().unwrap_or(0)
    }

    /// Leaf bits currently set.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// True when every leaf bit is set.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.used == self.capacity()
    }

    /// Top-down scan for the lowest-index free leaf bit.
    #[must_use]
    pub fn find_free(&self) -> Option<u64> {
        if self.levels.is_empty() {
            return None;
        }
        // The top level is a single bit: set means everything below
        // (padding included) is full.
        if get_bit(self.levels.last().expect("nonempty"), 0) {
            return None;
        }
        let mut j = 0u64;
        for level in self.levels[..self.levels.len() - 1].iter().rev() {
            let group = byte_of(level, j);
            let free = (!group).trailing_zeros() as u64;
            debug_assert!(free < 8, "clear summary bit implies a free child");
            j = j * 8 + free;
        }
        Some(j)
    }

    /// Marks leaf `idx` allocated, propagating full-group summaries up.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `idx` is out of range or already set.
    pub fn set(&mut self, idx: u64) {
        debug_assert!(idx < self.capacity(), "leaf {idx} out of range");
        debug_assert!(!get_bit(&self.levels[0], idx), "leaf {idx} already set");
        set_bit(&mut self.levels[0], idx);
        self.used += 1;
        let mut j = idx;
        for k in 1..self.levels.len() {
            let group = j / 8;
            if byte_of(&self.levels[k - 1], group) != 0xFF {
                break;
            }
            set_bit(&mut self.levels[k], group);
            j = group;
        }
    }

    /// Marks leaf `idx` free, clearing now-stale summaries up the tree.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `idx` is out of range or already clear.
    pub fn clear(&mut self, idx: u64) {
        debug_assert!(idx < self.capacity(), "leaf {idx} out of range");
        debug_assert!(get_bit(&self.levels[0], idx), "leaf {idx} already clear");
        clear_bit(&mut self.levels[0], idx);
        self.used -= 1;
        let mut j = idx;
        for k in 1..self.levels.len() {
            let group = j / 8;
            if !get_bit(&self.levels[k], group) {
                break;
            }
            clear_bit(&mut self.levels[k], group);
            j = group;
        }
    }

    /// Extends the leaf level to `new_capacity` bits (no-op when not
    /// larger) and rebuilds the summary levels. Tiers grow their page
    /// count geometrically, so the linear rebuild amortizes.
    pub fn grow(&mut self, new_capacity: u64) {
        if new_capacity <= self.capacity() {
            return;
        }
        let old_capacity = self.capacity();
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
            self.level_bits.push(0);
        }
        let leaves = &mut self.levels[0];
        let old_total = leaves.len() as u64 * 64;
        leaves.resize(word_count(new_capacity), 0);
        // Old padding bits now inside the capacity become free leaves.
        for idx in old_capacity..old_total.min(new_capacity) {
            clear_bit(leaves, idx);
        }
        set_padding(leaves, new_capacity);
        self.level_bits[0] = new_capacity;
        self.rebuild_upper();
    }

    /// Recomputes every summary level from the leaves.
    fn rebuild_upper(&mut self) {
        self.levels.truncate(1);
        self.level_bits.truncate(1);
        let mut bits = self.level_bits[0];
        while bits > 1 {
            let child_bits = bits;
            bits = child_bits.div_ceil(8);
            let child = self.levels.last().expect("child level exists");
            let mut level = vec![0u64; word_count(bits)];
            for j in 0..bits {
                if byte_of(child, j) == 0xFF {
                    set_bit(&mut level, j);
                }
            }
            set_padding(&mut level, bits);
            self.levels.push(level);
            self.level_bits.push(bits);
        }
    }

    /// Verifies the structural invariants the proptests rely on: every
    /// upper level exactly summarizes the one below, padding bits are
    /// all set, and `used` matches the real leaf popcount.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.levels.is_empty() {
            return if self.used == 0 {
                Ok(())
            } else {
                Err("empty bitmap with nonzero used count".into())
            };
        }
        for (k, level) in self.levels.iter().enumerate() {
            let bits = self.level_bits[k];
            for idx in bits..level.len() as u64 * 64 {
                if !get_bit(level, idx) {
                    return Err(format!("level {k}: padding bit {idx} is clear"));
                }
            }
            if k == 0 {
                continue;
            }
            let child = &self.levels[k - 1];
            for j in 0..bits {
                let expect = byte_of(child, j) == 0xFF;
                if get_bit(level, j) != expect {
                    return Err(format!(
                        "level {k} bit {j} = {}, but its child group is {}",
                        get_bit(level, j),
                        if expect { "full" } else { "not full" },
                    ));
                }
            }
        }
        let leaves = &self.levels[0];
        let pad = leaves.len() as u64 * 64 - self.level_bits[0];
        let set: u64 = leaves.iter().map(|w| u64::from(w.count_ones())).sum();
        if set - pad != self.used {
            return Err(format!(
                "used = {} but {} real leaf bits are set",
                self.used,
                set - pad
            ));
        }
        if *self.level_bits.last().expect("nonempty") != 1 && self.level_bits.len() > 1 {
            return Err("top level is not a single bit".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_zero_capacity() {
        let bm = MultiLevelBitmap::new(0);
        assert_eq!(bm.capacity(), 0);
        assert_eq!(bm.find_free(), None);
        bm.check_invariants().unwrap();
        let bm = MultiLevelBitmap::new(1);
        assert_eq!(bm.find_free(), Some(0));
    }

    #[test]
    fn fill_drain_round_trip() {
        let mut bm = MultiLevelBitmap::new(100);
        for i in 0..100 {
            assert_eq!(bm.find_free(), Some(i), "lowest free index first");
            bm.set(i);
        }
        assert!(bm.is_full());
        assert_eq!(bm.find_free(), None);
        bm.check_invariants().unwrap();
        for i in (0..100).rev() {
            bm.clear(i);
            assert_eq!(bm.find_free(), Some(i));
        }
        assert_eq!(bm.used(), 0);
        bm.check_invariants().unwrap();
    }

    #[test]
    fn summary_levels_collapse_to_one_bit() {
        // 4096 pages: 4096 → 512 → 64 → 8 → 1, four summary levels.
        let bm = MultiLevelBitmap::new(4096);
        assert_eq!(bm.levels.len(), 5);
        bm.check_invariants().unwrap();
    }

    #[test]
    fn free_in_a_full_neighbourhood_is_found() {
        // Fill everything, then poke single holes at awkward positions:
        // group boundaries, word boundaries, the last bit.
        let n = 1000;
        let mut bm = MultiLevelBitmap::new(n);
        for i in 0..n {
            bm.set(i);
        }
        for hole in [0, 7, 8, 63, 64, 511, 512, n - 1] {
            bm.clear(hole);
            assert_eq!(bm.find_free(), Some(hole), "hole at {hole}");
            bm.check_invariants().unwrap();
            bm.set(hole);
        }
        assert_eq!(bm.find_free(), None);
    }

    #[test]
    fn grow_preserves_allocations_and_frees_padding() {
        let mut bm = MultiLevelBitmap::new(10);
        for i in 0..10 {
            bm.set(i);
        }
        assert_eq!(bm.find_free(), None);
        bm.grow(100);
        assert_eq!(bm.capacity(), 100);
        assert_eq!(bm.used(), 10);
        assert_eq!(bm.find_free(), Some(10), "new pages are free");
        for i in 0..10 {
            bm.clear(i);
        }
        bm.check_invariants().unwrap();
        bm.grow(50); // shrink request is a no-op
        assert_eq!(bm.capacity(), 100);
    }

    #[test]
    fn padding_is_never_returned() {
        // Capacity just past a group boundary: bits 9..16 of the first
        // summary group are padding and must stay invisible.
        let mut bm = MultiLevelBitmap::new(9);
        for i in 0..9 {
            bm.set(i);
        }
        assert_eq!(bm.find_free(), None);
        bm.check_invariants().unwrap();
    }
}
