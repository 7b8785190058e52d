//! A chained hash table with Memcached-style incremental expansion.
//!
//! Buckets hold chains of `(hash, slot)` pairs, where a *slot* is an index
//! into the store's item arena. When the load factor passes 1.5 the table
//! doubles, but — exactly like Memcached's `assoc` — migration happens a
//! few buckets at a time on subsequent operations, so no single request
//! ever pays a full-table rehash.
//!
//! What the timing model sees is the bucket a hash lands in, the order of
//! its chain (an insert appends at the tail; a remove moves the chain's
//! last entry into the removed one's place) and so the probe count of a
//! lookup, and the migration schedule. How the chains sit in host memory
//! is separate: like `assoc`, which links items into their chains in
//! place, every entry lives in one arena and each bucket is the `u32`
//! index of its chain's head, so inserts, removes and migration steps
//! allocate nothing once the arena has reached the table's peak size.
//! Bucket counts are powers of two, so a bucket is a mask of the hash.
//! The `Vec`-per-bucket table this layout replaced is kept, for tests
//! only, as the reference it must match operation for operation.

/// Result of a lookup: the matching slot (if any) and the probe count,
/// which the timing model turns into memory references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FindResult {
    /// The matching item slot.
    pub slot: Option<u32>,
    /// Chain entries examined (each is a dependent memory reference); at
    /// least 1, for the bucket head itself.
    pub probes: u32,
    /// The bucket index examined (in the table that held the key).
    pub bucket: u64,
}

/// Buckets migrated per operation while an expansion is in progress.
const MIGRATE_PER_OP: usize = 4;

/// Expansion threshold numerator/denominator: grow when
/// `items > buckets * 3 / 2`.
const GROW_NUM: u64 = 3;
const GROW_DEN: u64 = 2;

/// The end of a chain, an empty bucket and an empty free list.
const NIL: u32 = u32::MAX;

/// One chain link in the entry arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    slot: u32,
    /// The next entry of this chain (or of the free list), or [`NIL`].
    next: u32,
}

/// The chained hash table.
///
/// # Examples
///
/// ```
/// use densekv_kv::table::HashTable;
///
/// let mut t = HashTable::new(4);
/// t.insert(0xBEEF, 7);
/// let found = t.find_with(0xBEEF, |slot| slot == 7);
/// assert_eq!(found.slot, Some(7));
/// assert!(t.remove(0xBEEF, 7));
/// ```
#[derive(Debug, Clone)]
pub struct HashTable {
    /// Chain heads, indices into `entries`.
    heads: Vec<u32>,
    /// Old table's chain heads during incremental expansion.
    old: Option<Vec<u32>>,
    /// Next old-table bucket to migrate.
    migrate_pos: usize,
    items: u64,
    /// Every chain entry of both tables, and the free ones.
    entries: Vec<Entry>,
    /// Head of the free list threaded through `Entry::next`.
    free: u32,
}

impl Default for HashTable {
    fn default() -> Self {
        HashTable::new(0)
    }
}

impl HashTable {
    /// Creates a table with `initial_buckets` (rounded up to a power of
    /// two, minimum 4).
    pub fn new(initial_buckets: u64) -> Self {
        let n = initial_buckets.next_power_of_two().max(4);
        HashTable {
            heads: vec![NIL; n as usize],
            old: None,
            migrate_pos: 0,
            items: 0,
            entries: Vec::new(),
            free: NIL,
        }
    }

    /// Current bucket count (of the new table during expansion).
    pub fn bucket_count(&self) -> u64 {
        self.heads.len() as u64
    }

    /// Number of items in the table.
    pub fn len(&self) -> u64 {
        self.items
    }

    /// True if the table holds no items.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Which table and bucket currently hold `hash`.
    fn bucket_of(&self, hash: u64) -> (bool, u64) {
        // During expansion a key lives in the old table until its old
        // bucket has been migrated.
        if let Some(old) = &self.old {
            let old_idx = hash & (old.len() as u64 - 1);
            if (old_idx as usize) >= self.migrate_pos {
                return (true, old_idx);
            }
        }
        (false, hash & (self.heads.len() as u64 - 1))
    }

    fn head(&self, in_old: bool, bucket: u64) -> u32 {
        if in_old {
            self.old.as_ref().expect("in_old implies old table")[bucket as usize]
        } else {
            self.heads[bucket as usize]
        }
    }

    /// The chain's head and the arena, borrowed together.
    fn chain_mut(&mut self, in_old: bool, bucket: u64) -> (&mut u32, &mut [Entry]) {
        let head = if in_old {
            &mut self.old.as_mut().expect("in_old implies old table")[bucket as usize]
        } else {
            &mut self.heads[bucket as usize]
        };
        (head, &mut self.entries)
    }

    /// Looks up `hash`, testing each same-hash chain entry with `matches`
    /// (the caller compares keys). Also advances any in-progress
    /// migration.
    pub fn find_with(&mut self, hash: u64, mut matches: impl FnMut(u32) -> bool) -> FindResult {
        self.migrate_some();
        let (in_old, bucket) = self.bucket_of(hash);
        let mut at = self.head(in_old, bucket);
        let mut probes = 0;
        while at != NIL {
            let entry = self.entries[at as usize];
            probes += 1;
            if entry.hash == hash && matches(entry.slot) {
                return FindResult {
                    slot: Some(entry.slot),
                    probes,
                    bucket,
                };
            }
            at = entry.next;
        }
        FindResult {
            slot: None,
            probes: probes.max(1),
            bucket,
        }
    }

    /// Inserts `slot` under `hash`. The caller guarantees the key is not
    /// already present (use [`HashTable::find_with`] first).
    pub fn insert(&mut self, hash: u64, slot: u32) {
        self.migrate_some();
        let (in_old, bucket) = self.bucket_of(hash);
        let entry = Entry {
            hash,
            slot,
            next: NIL,
        };
        let at = if self.free == NIL {
            self.entries.push(entry);
            (self.entries.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.entries[at as usize].next;
            self.entries[at as usize] = entry;
            at
        };
        let (head, entries) = self.chain_mut(in_old, bucket);
        link_tail(head, entries, at);
        self.items += 1;
        self.maybe_grow();
    }

    /// Removes `slot` under `hash`; returns whether it was present. The
    /// chain's last entry takes the removed entry's place.
    pub fn remove(&mut self, hash: u64, slot: u32) -> bool {
        self.migrate_some();
        let (in_old, bucket) = self.bucket_of(hash);
        let (head, entries) = self.chain_mut(in_old, bucket);
        if *head == NIL {
            return false;
        }
        let (mut target, mut before_last, mut last) = (NIL, NIL, *head);
        loop {
            let entry = entries[last as usize];
            if target == NIL && entry.hash == hash && entry.slot == slot {
                target = last;
            }
            if entry.next == NIL {
                break;
            }
            (before_last, last) = (last, entry.next);
        }
        if target == NIL {
            return false;
        }
        if target != last {
            let Entry { hash, slot, .. } = entries[last as usize];
            entries[target as usize].hash = hash;
            entries[target as usize].slot = slot;
        }
        if before_last == NIL {
            *head = NIL;
        } else {
            entries[before_last as usize].next = NIL;
        }
        self.entries[last as usize].next = self.free;
        self.free = last;
        self.items -= 1;
        true
    }

    /// Mean chain length over non-empty buckets (a health metric).
    #[cfg(test)]
    pub(crate) fn mean_chain_length(&self) -> f64 {
        let heads = self.old.iter().flatten().chain(&self.heads);
        let (mut chains, mut entries) = (0u64, 0u64);
        for &head in heads {
            if head != NIL {
                chains += 1;
            }
            let mut at = head;
            while at != NIL {
                entries += 1;
                at = self.entries[at as usize].next;
            }
        }
        if chains == 0 {
            0.0
        } else {
            entries as f64 / chains as f64
        }
    }

    /// Kicks off expansion if the load factor passed the threshold.
    fn maybe_grow(&mut self) {
        if self.old.is_some() || self.items * GROW_DEN <= self.bucket_count() * GROW_NUM {
            return;
        }
        let new_size = self.heads.len() * 2;
        let old = std::mem::replace(&mut self.heads, vec![NIL; new_size]);
        self.old = Some(old);
        self.migrate_pos = 0;
    }

    /// Migrates a few old buckets into the new table: each chain in
    /// order, onto the tails of the new chains.
    fn migrate_some(&mut self) {
        let Some(old) = self.old.as_mut() else {
            return;
        };
        let mask = self.heads.len() as u64 - 1;
        let end = (self.migrate_pos + MIGRATE_PER_OP).min(old.len());
        for head in &mut old[self.migrate_pos..end] {
            let mut at = std::mem::replace(head, NIL);
            while at != NIL {
                let entry = &mut self.entries[at as usize];
                let next = std::mem::replace(&mut entry.next, NIL);
                let bucket = (entry.hash & mask) as usize;
                link_tail(&mut self.heads[bucket], &mut self.entries, at);
                at = next;
            }
        }
        let done = end >= old.len();
        self.migrate_pos = end;
        if done {
            self.old = None;
        }
    }
}

/// Appends the unlinked entry `at` to the chain starting at `head`.
fn link_tail(head: &mut u32, entries: &mut [Entry], at: u32) {
    if *head == NIL {
        *head = at;
        return;
    }
    let mut tail = *head;
    while entries[tail as usize].next != NIL {
        tail = entries[tail as usize].next;
    }
    entries[tail as usize].next = at;
}

/// The table as it was before its chains moved into one arena: a `Vec`
/// per bucket. Kept as the reference [`HashTable`] must match operation
/// for operation.
#[cfg(test)]
mod reference {
    use super::{FindResult, GROW_DEN, GROW_NUM, MIGRATE_PER_OP};

    #[derive(Debug, Clone, Default)]
    pub(super) struct HashTable {
        buckets: Vec<Vec<(u64, u32)>>,
        /// Old table during incremental expansion.
        old: Option<Vec<Vec<(u64, u32)>>>,
        /// Next old-table bucket to migrate.
        migrate_pos: usize,
        items: u64,
    }

    impl HashTable {
        pub(super) fn new(initial_buckets: u64) -> Self {
            let n = initial_buckets.next_power_of_two().max(4);
            HashTable {
                buckets: vec![Vec::new(); n as usize],
                old: None,
                migrate_pos: 0,
                items: 0,
            }
        }

        pub(super) fn bucket_count(&self) -> u64 {
            self.buckets.len() as u64
        }

        pub(super) fn len(&self) -> u64 {
            self.items
        }

        pub(super) fn expanding(&self) -> bool {
            self.old.is_some()
        }

        fn bucket_of(&self, hash: u64) -> (bool, u64) {
            if let Some(old) = &self.old {
                let old_idx = hash % old.len() as u64;
                if (old_idx as usize) >= self.migrate_pos {
                    return (true, old_idx);
                }
            }
            (false, hash % self.buckets.len() as u64)
        }

        fn chain_mut(&mut self, in_old: bool, bucket: u64) -> &mut Vec<(u64, u32)> {
            if in_old {
                &mut self.old.as_mut().expect("in_old implies old table")[bucket as usize]
            } else {
                &mut self.buckets[bucket as usize]
            }
        }

        pub(super) fn find_with(
            &mut self,
            hash: u64,
            mut matches: impl FnMut(u32) -> bool,
        ) -> FindResult {
            self.migrate_some();
            let (in_old, bucket) = self.bucket_of(hash);
            let chain = if in_old {
                &self.old.as_ref().expect("in_old implies old table")[bucket as usize]
            } else {
                &self.buckets[bucket as usize]
            };
            let mut probes = 0;
            for &(entry_hash, slot) in chain {
                probes += 1;
                if entry_hash == hash && matches(slot) {
                    return FindResult {
                        slot: Some(slot),
                        probes,
                        bucket,
                    };
                }
            }
            FindResult {
                slot: None,
                probes: probes.max(1),
                bucket,
            }
        }

        pub(super) fn insert(&mut self, hash: u64, slot: u32) {
            self.migrate_some();
            let (in_old, bucket) = self.bucket_of(hash);
            self.chain_mut(in_old, bucket).push((hash, slot));
            self.items += 1;
            self.maybe_grow();
        }

        pub(super) fn remove(&mut self, hash: u64, slot: u32) -> bool {
            self.migrate_some();
            let (in_old, bucket) = self.bucket_of(hash);
            let chain = self.chain_mut(in_old, bucket);
            if let Some(pos) = chain.iter().position(|&(h, s)| h == hash && s == slot) {
                chain.swap_remove(pos);
                self.items -= 1;
                true
            } else {
                false
            }
        }

        fn maybe_grow(&mut self) {
            if self.old.is_some() || self.items * GROW_DEN <= self.bucket_count() * GROW_NUM {
                return;
            }
            let new_size = self.buckets.len() * 2;
            let old = std::mem::replace(&mut self.buckets, vec![Vec::new(); new_size]);
            self.old = Some(old);
            self.migrate_pos = 0;
        }

        fn migrate_some(&mut self) {
            if self.old.is_none() {
                return;
            }
            let new_len = self.buckets.len() as u64;
            let (end, done) = {
                let old = self.old.as_mut().expect("checked above");
                let end = (self.migrate_pos + MIGRATE_PER_OP).min(old.len());
                let mut moved: Vec<(u64, u32)> = Vec::new();
                for bucket in old[self.migrate_pos..end].iter_mut() {
                    moved.append(bucket);
                }
                for (hash, slot) in moved {
                    self.buckets[(hash % new_len) as usize].push((hash, slot));
                }
                (end, end >= self.old.as_ref().expect("still present").len())
            };
            self.migrate_pos = end;
            if done {
                self.old = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_find_remove_roundtrip() {
        let mut t = HashTable::new(8);
        t.insert(42, 0);
        assert_eq!(t.len(), 1);
        let r = t.find_with(42, |s| s == 0);
        assert_eq!(r.slot, Some(0));
        assert!(r.probes >= 1);
        assert!(t.remove(42, 0));
        assert!(!t.remove(42, 0), "double remove fails");
        assert!(t.is_empty());
    }

    #[test]
    fn missing_key_reports_probes() {
        let mut t = HashTable::new(8);
        let r = t.find_with(7, |_| true);
        assert_eq!(r.slot, None);
        assert_eq!(r.probes, 1, "empty bucket still costs one reference");
    }

    #[test]
    fn colliding_hashes_chain() {
        let mut t = HashTable::new(4);
        // Same bucket, different slots; matches() distinguishes them.
        t.insert(4, 1);
        t.insert(4, 2);
        let r = t.find_with(4, |s| s == 2);
        assert_eq!(r.slot, Some(2));
        assert_eq!(r.probes, 2);
    }

    #[test]
    fn expansion_triggers_and_completes() {
        let mut t = HashTable::new(4);
        for i in 0..7 {
            t.insert(i * 1_000_003, i as u32);
        }
        assert!(t.old.is_some(), "load factor 7/4 should trigger growth");
        let before = t.bucket_count();
        assert_eq!(before, 8);
        // Operations drive migration to completion.
        for i in 0..7 {
            let r = t.find_with(i * 1_000_003, |s| s == i as u32);
            assert_eq!(r.slot, Some(i as u32), "item {i} must stay findable");
        }
        assert!(t.old.is_none(), "migration should finish");
        // Everything still present afterwards.
        for i in 0..7 {
            assert_eq!(
                t.find_with(i * 1_000_003, |s| s == i as u32).slot,
                Some(i as u32)
            );
        }
    }

    #[test]
    fn removal_during_expansion() {
        let mut t = HashTable::new(4);
        for i in 0..7u64 {
            t.insert(i, i as u32);
        }
        assert!(t.old.is_some());
        for i in 0..7u64 {
            assert!(t.remove(i, i as u32), "remove {i} during migration");
        }
        assert!(t.is_empty());
    }

    #[test]
    fn stress_many_items_stay_findable() {
        let mut t = HashTable::new(4);
        let hash = |i: u64| i.wrapping_mul(0x9E3779B97F4A7C15);
        for i in 0..10_000u64 {
            t.insert(hash(i), i as u32);
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.bucket_count() >= 8_192);
        for i in 0..10_000u64 {
            assert_eq!(
                t.find_with(hash(i), |s| s == i as u32).slot,
                Some(i as u32),
                "item {i}"
            );
        }
        assert!(t.mean_chain_length() < 3.0);
    }

    /// What one differential run exercised.
    #[derive(Debug, Default)]
    struct Coverage {
        doublings: u32,
        finds_expanding: u32,
        removes_expanding: u32,
        /// Removes from chains of two or more at the head, in the middle
        /// and at the tail, told apart by the probes of finds just before.
        removes_at: [u32; 3],
    }

    /// Runs `ops` on the arena table and the reference op for op and
    /// asserts they agree after every one: the op's own result, then a
    /// find of its `(hash, slot)`, `len`, `bucket_count` and
    /// `expanding`. Every third op removes a present entry (picked by its
    /// `pick`); the others insert their pair, or remove an absent one
    /// when the pair is already present.
    fn run_differential(ops: &[(u64, u32, usize)]) -> Coverage {
        let mut table = HashTable::new(4);
        let mut reference = reference::HashTable::new(4);
        let mut present: Vec<(u64, u32)> = Vec::new();
        let mut coverage = Coverage::default();
        for (i, &(hash, slot, pick)) in ops.iter().enumerate() {
            let buckets = table.bucket_count();
            let remove = i % 3 == 2 && !present.is_empty();
            let (hash, slot) = if remove {
                present.swap_remove(pick % present.len())
            } else {
                (hash, slot)
            };
            if remove {
                let at = reference.find_with(hash, |s| s == slot).probes;
                assert_eq!(table.find_with(hash, |s| s == slot).probes, at);
                let len = reference.find_with(hash, |_| false).probes;
                assert_eq!(table.find_with(hash, |_| false).probes, len);
                if len > 1 {
                    coverage.removes_at[usize::from(at > 1) + usize::from(at == len)] += 1;
                }
                coverage.removes_expanding += u32::from(table.old.is_some());
                assert!(table.remove(hash, slot), "op {i}");
                assert!(reference.remove(hash, slot), "op {i}");
            } else if present.contains(&(hash, slot)) {
                // Slots stay below 64, so this pair was never inserted.
                assert!(!table.remove(hash, slot | 64), "op {i}");
                assert!(!reference.remove(hash, slot | 64), "op {i}");
            } else {
                table.insert(hash, slot);
                reference.insert(hash, slot);
                present.push((hash, slot));
            }
            coverage.finds_expanding += u32::from(table.old.is_some());
            assert_eq!(
                table.find_with(hash, |s| s == slot),
                reference.find_with(hash, |s| s == slot),
                "op {i}: find ({hash}, {slot})"
            );
            assert_eq!(table.len(), reference.len(), "op {i}");
            assert_eq!(table.len(), present.len() as u64, "op {i}");
            assert_eq!(table.bucket_count(), reference.bucket_count(), "op {i}");
            assert_eq!(table.old.is_some(), reference.expanding(), "op {i}");
            coverage.doublings += u32::from(table.bucket_count() > buckets);
        }
        coverage
    }

    proptest! {
        /// The arena table matches the `Vec`-per-bucket reference bit for
        /// bit — slot, probes and bucket of every find — through colliding
        /// hashes (48 values), one slot under several hashes (64 slots),
        /// at least three doublings, finds and removes mid-migration, and
        /// removes at a chain's head, middle and tail.
        #[test]
        fn arena_table_matches_reference(ops in proptest::collection::vec(
            (0u64..48, 0u32..64, any::<usize>()), 300..600))
        {
            let coverage = run_differential(&ops);
            prop_assert!(coverage.doublings >= 3, "{:?}", coverage);
            prop_assert!(coverage.finds_expanding > 0, "{:?}", coverage);
            prop_assert!(coverage.removes_expanding > 0, "{:?}", coverage);
            prop_assert!(coverage.removes_at.iter().all(|&n| n > 0), "{:?}", coverage);
        }
    }
}
