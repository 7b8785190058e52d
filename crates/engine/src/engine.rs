//! The tiered fixed-page storage engine.
//!
//! Keys live in an open-addressing bucket table with linear probing
//! bounded at [`PROBE_LIMIT`] slots; a probe that cannot place a key
//! doubles the table (bricksKV's bucket-doubling). Values live in the
//! power-of-two page tiers of [`crate::tier`], so a GET is exactly the
//! paper's served path: hash → bucket slot → tier page. The engine
//! implements [`StoreBackend`]'s primitives; the Memcached verbs built
//! on them are the trait's, shared with the model
//! [`densekv_kv::KvStore`], and the differential proptest in `tests/`
//! holds the two to byte-identical protocol output.

use densekv_kv::backend::ItemRef;
use densekv_kv::lru::EvictionPolicy;
use densekv_kv::store::{
    HitRef, StoreConfig, StoreError, StoreStats, ITEM_HEADER_BYTES, MAX_ITEM_FOOTPRINT_BYTES,
    MAX_KEY_BYTES,
};
use densekv_kv::StoreBackend;

use crate::tier::{TierSet, ValueRef, OVERFLOW_TIER, TIER_PAGE_BYTES};

/// Longest linear probe before the bucket table doubles.
pub const PROBE_LIMIT: usize = 32;

/// Bucket sentinel: never occupied.
const EMPTY: u32 = u32::MAX;
/// Bucket sentinel: previously occupied; lookups probe past it.
const TOMB: u32 = u32::MAX - 1;

/// A live item: key and metadata inline, value out in a tier page.
#[derive(Debug, Clone)]
struct Item {
    key: Vec<u8>,
    hash: u64,
    flags: u32,
    /// Absolute expiry in seconds; `None` = immortal.
    expires_at: Option<u64>,
    cas: u64,
    vref: ValueRef,
    vlen: u32,
}

impl Item {
    fn footprint(&self) -> u64 {
        ITEM_HEADER_BYTES + self.key.len() as u64 + u64::from(self.vlen)
    }

    fn class(&self) -> usize {
        match self.vref {
            ValueRef::Tier { tier, .. } => tier as usize,
            ValueRef::Overflow { .. } => OVERFLOW_TIER,
        }
    }

    fn is_expired(&self, now: u64) -> bool {
        self.expires_at.is_some_and(|t| t <= now)
    }
}

/// The engine. Construct with [`Engine::new`]; drive it through
/// [`StoreBackend`].
///
/// # Examples
///
/// ```
/// use densekv_engine::Engine;
/// use densekv_kv::{StoreBackend, StoreConfig};
///
/// let mut e = Engine::new(StoreConfig::with_capacity(16 << 20));
/// e.set_with_flags(b"k", b"v".to_vec(), 0, None, 0)?;
/// assert_eq!(e.get(b"k", 0).expect("live").value(), b"v");
/// # Ok::<(), densekv_kv::StoreError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    tiers: TierSet,
    /// Open-addressing table of item-slot indices (or sentinels).
    buckets: Vec<u32>,
    mask: u64,
    items: Vec<Option<Item>>,
    free_slots: Vec<u32>,
    /// Orders each value class (8 tiers + overflow) apart, as the model
    /// store's policy orders its slab classes.
    policy: Box<dyn EvictionPolicy + Send>,
    stats: StoreStats,
    next_cas: u64,
    /// `probe_hist[i]` counts lookups that probed `i + 1` buckets.
    probe_hist: [u64; PROBE_LIMIT],
    doublings: u64,
    tombstones: u64,
}

impl Engine {
    /// An empty engine with the model store's configuration surface
    /// (memory budget, eviction kind, initial buckets).
    #[must_use]
    pub fn new(config: StoreConfig) -> Self {
        let buckets = config.initial_buckets.next_power_of_two().max(8) as usize;
        Engine {
            tiers: TierSet::new(config.memory_bytes),
            buckets: vec![EMPTY; buckets],
            mask: buckets as u64 - 1,
            items: Vec::new(),
            free_slots: Vec::new(),
            policy: config.eviction.build(OVERFLOW_TIER + 1),
            stats: StoreStats::default(),
            next_cas: 1,
            probe_hist: [0; PROBE_LIMIT],
            doublings: 0,
            tombstones: 0,
        }
    }

    /// Current bucket count.
    #[must_use]
    pub fn bucket_count(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Times the bucket table has doubled.
    #[must_use]
    pub fn doublings(&self) -> u64 {
        self.doublings
    }

    /// Lookups that probed exactly `probes` buckets (1-based).
    #[must_use]
    pub fn probe_count(&self, probes: usize) -> u64 {
        self.probe_hist[probes - 1]
    }

    fn home(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    /// Probes for `key`, lazily expiring a stale match.
    fn lookup(&mut self, key: &[u8], hash: u64, now: u64) -> Option<u32> {
        let home = self.home(hash);
        let mask = self.mask as usize;
        let mut probes = PROBE_LIMIT;
        let mut found = None;
        for i in 0..PROBE_LIMIT {
            let idx = (home + i) & mask;
            match self.buckets[idx] {
                EMPTY => {
                    probes = i + 1;
                    break;
                }
                TOMB => {}
                slot => {
                    let item = self.items[slot as usize].as_ref().expect("bucket is live");
                    if item.hash == hash && item.key == key {
                        probes = i + 1;
                        found = Some(slot);
                        break;
                    }
                }
            }
        }
        self.probe_hist[probes - 1] += 1;
        if let Some(slot) = found {
            let item = self.items[slot as usize].as_ref().expect("live");
            if item.is_expired(now) {
                let freed = item.footprint();
                self.remove_slot(slot);
                self.stats.expirations += 1;
                self.stats.expired_bytes += freed;
                return None;
            }
        }
        found
    }

    /// Tries to place `slot` within the probe window; `false` means the
    /// table must double.
    fn try_place(&mut self, hash: u64, slot: u32) -> bool {
        let home = self.home(hash);
        let mask = self.mask as usize;
        let mut tomb = None;
        for i in 0..PROBE_LIMIT {
            let idx = (home + i) & mask;
            match self.buckets[idx] {
                EMPTY => {
                    let dst = tomb.unwrap_or(idx);
                    if self.buckets[dst] == TOMB {
                        self.tombstones -= 1;
                    }
                    self.buckets[dst] = slot;
                    return true;
                }
                TOMB if tomb.is_none() => tomb = Some(idx),
                _ => {}
            }
        }
        // No EMPTY in the window, but a tombstone inside it is still a
        // reachable home (lookups probe past tombstones).
        if let Some(dst) = tomb {
            self.tombstones -= 1;
            self.buckets[dst] = slot;
            return true;
        }
        false
    }

    /// Places `slot`, doubling the bucket table if the probe window is
    /// full. `do_set` stores the item in `items` before calling this,
    /// so [`Self::double_table`]'s rehash already places the slot —
    /// retrying `try_place` afterwards would enter a second, duplicate
    /// bucket entry that outlives the item's deletion.
    fn table_insert(&mut self, hash: u64, slot: u32) {
        if !self.try_place(hash, slot) {
            self.double_table();
        }
    }

    /// Rebuilds the table at double the size (and doubles again if any
    /// item still cannot place within the probe window). Tombstones are
    /// dropped by the rehash.
    fn double_table(&mut self) {
        let mut new_len = self.buckets.len() * 2;
        'size: loop {
            let mask = new_len - 1;
            let mut buckets = vec![EMPTY; new_len];
            for (slot, entry) in self.items.iter().enumerate() {
                let Some(item) = entry.as_ref() else { continue };
                let home = (item.hash as usize) & mask;
                let mut placed = false;
                for i in 0..PROBE_LIMIT {
                    let idx = (home + i) & mask;
                    if buckets[idx] == EMPTY {
                        buckets[idx] = slot as u32;
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    new_len *= 2;
                    continue 'size;
                }
            }
            self.doublings += 1;
            self.buckets = buckets;
            self.mask = mask as u64;
            self.tombstones = 0;
            return;
        }
    }

    /// Frees `slot`: tombstones its bucket, releases its tier page, and
    /// rolls the gauges back.
    fn remove_slot(&mut self, slot: u32) {
        let item = self.items[slot as usize].take().expect("slot is live");
        let home = self.home(item.hash);
        let mask = self.mask as usize;
        for i in 0..PROBE_LIMIT {
            let idx = (home + i) & mask;
            if self.buckets[idx] == slot {
                self.buckets[idx] = TOMB;
                self.tombstones += 1;
                break;
            }
        }
        self.policy.on_remove(item.class(), slot);
        self.tiers.free(item.vref);
        self.stats.bytes -= item.footprint();
        self.stats.items -= 1;
        self.free_slots.push(slot);
    }

    /// Allocates a tier home for `value`, evicting same-class victims
    /// as needed — the model store's strategy: eviction can only free
    /// pages of the class being allocated.
    fn allocate_with_eviction(&mut self, value: &[u8]) -> Result<ValueRef, StoreError> {
        let class = TierSet::tier_for(value.len());
        loop {
            if let Some(vref) = self.tiers.alloc(value) {
                return Ok(vref);
            }
            let Some(victim) = self.policy.pop_victim(class) else {
                return Err(StoreError::OutOfMemory);
            };
            // pop_victim already dropped it from the policy;
            // remove_slot's on_remove is then a no-op.
            self.remove_slot(victim);
            self.stats.evictions += 1;
        }
    }

    /// The full store path shared by every mutating verb.
    fn do_set(
        &mut self,
        key: &[u8],
        hash: u64,
        value: Vec<u8>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        if key.len() > MAX_KEY_BYTES {
            return Err(StoreError::KeyTooLong { len: key.len() });
        }

        // Replace any existing copy first (frees its page) — as in the
        // model store, a failed allocation destroys the old item.
        let existing = self.lookup(key, hash, now);
        if let Some(slot) = existing {
            self.remove_slot(slot);
        }

        let footprint = ITEM_HEADER_BYTES + key.len() as u64 + value.len() as u64;
        if footprint > MAX_ITEM_FOOTPRINT_BYTES {
            return Err(StoreError::ValueTooLarge { bytes: footprint });
        }
        let vref = self.allocate_with_eviction(&value)?;
        let cas = self.next_cas;
        self.next_cas += 1;
        let item = Item {
            key: key.to_vec(),
            hash,
            flags,
            expires_at: ttl_secs.map(|t| now + t),
            cas,
            vref,
            vlen: value.len() as u32,
        };
        let class = item.class();
        self.stats.bytes += item.footprint();
        self.stats.items += 1;
        self.stats.sets += 1;
        self.stats.bytes_written += u64::from(item.vlen);

        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.items[slot as usize] = Some(item);
                slot
            }
            None => {
                self.items.push(Some(item));
                (self.items.len() - 1) as u32
            }
        };
        self.table_insert(hash, slot);
        self.policy.on_insert(class, slot);
        Ok(())
    }
}

impl StoreBackend for Engine {
    fn get_ref(&mut self, key: &[u8], hash: u64, now: u64) -> Option<HitRef<'_>> {
        let Some(slot) = self.lookup(key, hash, now) else {
            self.stats.get_misses += 1;
            return None;
        };
        let item = self.items[slot as usize].as_ref().expect("live");
        self.policy.on_access(item.class(), slot);
        self.stats.get_hits += 1;
        self.stats.bytes_read += u64::from(item.vlen);
        Some(HitRef {
            value: self.tiers.read(item.vref, item.vlen as usize),
            flags: item.flags,
            cas: item.cas,
        })
    }

    fn set_hashed(
        &mut self,
        key: &[u8],
        hash: u64,
        value: Vec<u8>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        self.do_set(key, hash, value, flags, ttl_secs, now)
    }

    fn peek(&mut self, key: &[u8], hash: u64, now: u64) -> Option<ItemRef<'_>> {
        let slot = self.lookup(key, hash, now)?;
        let item = self.items[slot as usize].as_ref().expect("live");
        Some(ItemRef {
            value: self.tiers.read(item.vref, item.vlen as usize),
            flags: item.flags,
            cas: item.cas,
            expires_at: item.expires_at,
        })
    }

    fn touch(&mut self, key: &[u8], hash: u64, ttl_secs: Option<u64>, now: u64) -> bool {
        let Some(slot) = self.lookup(key, hash, now) else {
            return false;
        };
        let item = self.items[slot as usize].as_mut().expect("live");
        item.expires_at = ttl_secs.map(|t| now + t);
        self.stats.touches += 1;
        true
    }

    fn delete(&mut self, key: &[u8], hash: u64, now: u64) -> bool {
        let Some(slot) = self.lookup(key, hash, now) else {
            return false;
        };
        self.remove_slot(slot);
        self.stats.deletes += 1;
        true
    }

    fn flush_all(&mut self) {
        let slots: Vec<u32> = self
            .items
            .iter()
            .enumerate()
            .filter_map(|(i, item)| item.as_ref().map(|_| i as u32))
            .collect();
        for slot in slots {
            self.remove_slot(slot);
        }
        self.buckets.fill(EMPTY);
        self.tombstones = 0;
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn len(&self) -> u64 {
        self.stats.items
    }

    fn capacity_bytes(&self) -> u64 {
        self.tiers.budget_bytes()
    }

    fn backend_stat_lines(&self) -> Vec<(String, u64)> {
        let mut lines = vec![
            ("engine_items".into(), self.stats.items),
            ("engine_bucket_count".into(), self.bucket_count()),
            ("engine_bucket_doublings".into(), self.doublings),
            ("engine_tombstones".into(), self.tombstones),
        ];
        for (t, &p) in TIER_PAGE_BYTES.iter().enumerate() {
            let used = self.tiers.tier_used_pages(t);
            let total = self.tiers.tier_total_pages(t);
            let fill = (used * 100).checked_div(total).unwrap_or(0);
            lines.push((format!("engine_tier_{p}_used_pages"), used));
            lines.push((format!("engine_tier_{p}_total_pages"), total));
            lines.push((format!("engine_tier_{p}_fill_pct"), fill));
        }
        lines.push(("engine_overflow_items".into(), self.tiers.overflow_items()));
        lines.push(("engine_overflow_bytes".into(), self.tiers.overflow_bytes()));
        lines.push(("engine_charged_bytes".into(), self.tiers.charged_bytes()));
        lines.push(("engine_budget_bytes".into(), self.tiers.budget_bytes()));
        lines.push(("engine_evictions".into(), self.stats.evictions));
        for probes in 1..=4usize {
            lines.push((
                format!("engine_probe_len_{probes}"),
                self.probe_hist[probes - 1],
            ));
        }
        let sum = |range: std::ops::Range<usize>| -> u64 { self.probe_hist[range].iter().sum() };
        lines.push(("engine_probe_len_le8".into(), sum(4..8)));
        lines.push(("engine_probe_len_le16".into(), sum(8..16)));
        lines.push(("engine_probe_len_le32".into(), sum(16..32)));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_kv::hash::jenkins_oaat as h;

    fn engine() -> Engine {
        Engine::new(StoreConfig::with_capacity(16 << 20))
    }

    #[test]
    fn set_get_delete_round_trip() {
        let mut e = engine();
        e.set_with_flags(b"k", b"hello".to_vec(), 9, None, 0)
            .unwrap();
        let hit = e.get(b"k", 0).expect("live");
        assert_eq!(hit.value(), b"hello");
        assert_eq!(hit.flags(), 9);
        assert_eq!(hit.cas(), 1, "CAS tokens start at 1");
        assert!(e.delete(b"k", h(b"k"), 0));
        assert!(!e.delete(b"k", h(b"k"), 0));
        assert!(e.get(b"k", 0).is_none());
        let s = e.stats();
        assert_eq!((s.get_hits, s.get_misses, s.sets, s.deletes), (1, 1, 1, 1));
        assert_eq!(s.bytes_read, 5);
        assert_eq!(s.bytes_written, 5);
        assert_eq!(s.items, 0);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn values_land_in_their_tier_and_overflow_past_the_top() {
        let mut e = engine();
        e.set_with_flags(b"top", vec![1; 4096], 0, None, 0).unwrap();
        e.set_with_flags(b"over", vec![2; 4097], 0, None, 0)
            .unwrap();
        let lines: std::collections::HashMap<String, u64> =
            e.backend_stat_lines().into_iter().collect();
        assert_eq!(lines["engine_tier_4096_used_pages"], 1);
        assert_eq!(lines["engine_overflow_items"], 1);
        assert_eq!(lines["engine_overflow_bytes"], 4097);
        assert_eq!(e.get(b"top", 0).unwrap().value().len(), 4096);
        assert_eq!(e.get(b"over", 0).unwrap().value().len(), 4097);
    }

    #[test]
    fn footprint_boundary_matches_the_model_store_cap() {
        let mut e = engine();
        let fit = (MAX_ITEM_FOOTPRINT_BYTES - ITEM_HEADER_BYTES) as usize - 1;
        e.set_with_flags(b"k", vec![0; fit], 0, None, 0)
            .expect("footprint exactly at the cap stores (via overflow)");
        assert_eq!(
            e.set_with_flags(b"k", vec![0; fit + 1], 0, None, 0),
            Err(StoreError::ValueTooLarge {
                bytes: MAX_ITEM_FOOTPRINT_BYTES + 1
            })
        );
        // The failed oversized store destroyed the old copy, as in the
        // model store.
        assert!(e.get(b"k", 0).is_none());
    }

    #[test]
    fn lazy_expiry_counts_and_frees() {
        let mut e = engine();
        e.set_with_flags(b"t", b"xy".to_vec(), 0, Some(5), 0)
            .unwrap();
        assert!(e.get(b"t", 10).is_none(), "expired");
        let s = e.stats();
        assert_eq!(s.expirations, 1);
        assert_eq!(s.expired_bytes, ITEM_HEADER_BYTES + 1 + 2);
        assert_eq!(s.items, 0);
        assert!(!e.touch(b"t", h(b"t"), Some(5), 10), "gone");
    }

    #[test]
    fn eviction_recycles_pages_within_a_class() {
        // Budget fits ~32 pages of the 512 B tier; keep writing 400 B
        // values and the tier must evict rather than error.
        let mut e = Engine::new(StoreConfig::with_capacity(16 << 10));
        for i in 0..200u32 {
            let key = format!("key{i}");
            e.set_with_flags(key.as_bytes(), vec![0; 400], 0, None, 0)
                .expect("eviction makes room");
        }
        assert!(e.stats().evictions > 0);
        assert!(e.len() > 0);
    }

    #[test]
    fn oom_surfaces_once_eviction_cannot_free_a_fitting_chunk() {
        // Every resident item is an overflow value, so the smallest
        // tier's eviction policy is empty: a 1-byte set must report
        // OutOfMemory, not silently evict another class's items.
        let mut e = Engine::new(StoreConfig::with_capacity(2 << 20));
        let big = vec![2u8; 512 << 10];
        for i in 0..8u32 {
            e.set_with_flags(format!("big{i}").as_bytes(), big.clone(), 0, None, 0)
                .expect("eviction makes room");
        }
        let evictions = e.stats().evictions;
        assert!(evictions > 0, "the budget is exhausted");
        assert_eq!(
            e.set_with_flags(b"tiny", b"x".to_vec(), 0, None, 0),
            Err(StoreError::OutOfMemory)
        );
        assert_eq!(e.stats().evictions, evictions, "no cross-class eviction");
        assert!(e.get(b"big7", 0).is_some(), "resident items survive");
    }

    #[test]
    fn probe_pressure_doubles_the_bucket_table() {
        let mut config = StoreConfig::with_capacity(16 << 20);
        config.initial_buckets = 8;
        let mut e = Engine::new(config);
        for i in 0..500u32 {
            let key = format!("key{i}");
            e.set_with_flags(key.as_bytes(), b"v".to_vec(), 0, None, 0)
                .unwrap();
        }
        assert!(e.doublings() > 0, "500 keys cannot fit 8 buckets");
        assert!(e.bucket_count() >= 512);
        for i in 0..500u32 {
            let key = format!("key{i}");
            assert!(e.get(key.as_bytes(), 0).is_some(), "survives rehash");
        }
        let lines: std::collections::HashMap<String, u64> =
            e.backend_stat_lines().into_iter().collect();
        assert!(lines["engine_probe_len_1"] > 0);
        assert_eq!(lines["engine_bucket_doublings"], e.doublings());
    }

    #[test]
    fn doubling_mid_insert_leaves_no_duplicate_bucket_entries() {
        // Regression: the insert that triggers a doubling used to be
        // placed twice — once by the rehash (the slot is already in
        // `items`) and once by the retried `try_place`. The stale
        // duplicate outlived the item's deletion and made any lookup
        // probing through it panic on a vacated slot.
        let mut config = StoreConfig::with_capacity(16 << 20);
        config.initial_buckets = 8;
        let mut e = Engine::new(config);
        for i in 0..200u32 {
            let key = format!("key{i}");
            e.set_with_flags(key.as_bytes(), b"v".to_vec(), 0, None, 0)
                .unwrap();
        }
        assert!(e.doublings() > 0, "200 keys cannot fit 8 buckets");
        for i in 0..200u32 {
            let key = format!("key{i}");
            assert!(
                e.delete(key.as_bytes(), h(key.as_bytes()), 0),
                "every key is live"
            );
        }
        for i in 0..200u32 {
            let key = format!("key{i}");
            assert!(e.get(key.as_bytes(), 0).is_none(), "fully deleted");
        }
        assert_eq!(e.len(), 0);
        // Every bucket entry must point at a live item slot: exactly
        // zero after deleting everything.
        let live = e.buckets.iter().filter(|&&b| b != EMPTY && b != TOMB);
        assert_eq!(live.count(), 0, "no stale bucket entries survive");
    }

    #[test]
    fn flush_all_resets_items_but_not_counters() {
        let mut e = engine();
        for i in 0..50u32 {
            e.set_with_flags(format!("k{i}").as_bytes(), vec![0; 100], 0, None, 0)
                .unwrap();
        }
        e.flush_all();
        assert_eq!(e.len(), 0);
        assert_eq!(e.stats().sets, 50, "monotonic counters survive");
        assert_eq!(e.stats().bytes, 0);
        for i in 0..50u32 {
            assert!(e.get(format!("k{i}").as_bytes(), 0).is_none());
        }
        // Storage is reusable after the flush.
        e.set_with_flags(b"again", b"v".to_vec(), 0, None, 0)
            .unwrap();
        assert!(e.get(b"again", 0).is_some());
    }

    #[test]
    fn verb_semantics_match_the_model_quirks() {
        let mut e = engine();
        let (k, n) = (h(b"k"), h(b"n"));
        assert_eq!(e.add(b"k", k, b"one".to_vec(), None, 0), Ok(()));
        assert_eq!(
            e.add(b"k", k, b"two".to_vec(), None, 0),
            Err(StoreError::Exists)
        );
        assert_eq!(e.replace(b"k", k, b"three".to_vec(), None, 0), Ok(()));
        assert_eq!(e.concat(b"k", k, b"!", false, 0), Ok(()));
        assert_eq!(e.concat(b"k", k, b">", true, 0), Ok(()));
        assert_eq!(e.get(b"k", 0).unwrap().value(), b">three!");
        e.set_with_flags(b"n", b"5".to_vec(), 0, None, 0).unwrap();
        assert_eq!(e.incr_decr(b"n", n, 3, false, 0), Ok(8));
        assert_eq!(e.incr_decr(b"n", n, 100, true, 0), Ok(0), "decr saturates");
        let cas = e.get(b"n", 0).unwrap().cas();
        assert_eq!(e.cas(b"n", n, b"9".to_vec(), cas, None, 0), Ok(()));
        assert_eq!(
            e.cas(b"n", n, b"9".to_vec(), cas, None, 0),
            Err(StoreError::CasMismatch)
        );
        assert_eq!(
            e.incr_decr(b"k", k, 1, false, 0),
            Err(StoreError::NotNumeric)
        );
        let long_key = vec![b'k'; MAX_KEY_BYTES + 1];
        assert_eq!(
            e.set_with_flags(&long_key, b"v".to_vec(), 0, None, 0),
            Err(StoreError::KeyTooLong {
                len: MAX_KEY_BYTES + 1
            })
        );
    }

    #[test]
    fn delete_reads_ttl_against_the_clock() {
        // A TTL'd key deletes while it is live; once its TTL has run
        // out, delete answers "not found" and counts an expiration.
        let mut e = engine();
        for key in [&b"live"[..], b"stale"] {
            e.set_with_flags(key, b"v".to_vec(), 0, Some(1000), 0)
                .unwrap();
        }
        assert!(e.delete(b"live", h(b"live"), 999), "live until 1000");
        assert!(!e.delete(b"stale", h(b"stale"), 1000), "expired at 1000");
        let s = e.stats();
        assert_eq!((s.deletes, s.expirations), (1, 1));
        assert_eq!(s.expired_bytes, ITEM_HEADER_BYTES + 5 + 1);
        assert_eq!(s.items, 0);
    }
}
