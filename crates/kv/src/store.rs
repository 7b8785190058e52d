//! The key-value store: Memcached 1.4 semantics over the slab allocator,
//! hash table, and eviction policies.
//!
//! The traced operations ([`KvStore::get`], [`KvStore::get_traced`],
//! [`KvStore::set_traced`]) record an [`AccessTrace`] — the byte offsets
//! of the hash bucket, chain entries, item header, and value the
//! operation touched. The simulator feeds those addresses to the cache
//! and memory-device models, making the timing model execution-driven.

use core::fmt;
use std::borrow::Cow;

use crate::backend::{ItemRef, StoreBackend};
use crate::hash::jenkins_oaat;
use crate::lru::{EvictionKind, EvictionPolicy};
use crate::slab::{SlabAddr, SlabAllocator, SlabError};
use crate::table::HashTable;

/// Per-item metadata overhead, matching Memcached's `item` header plus
/// chain pointers (48 B) — keys and values share the item's slab chunk.
pub const ITEM_HEADER_BYTES: u64 = 48;

/// Maximum key length (Memcached: 250 bytes).
pub const MAX_KEY_BYTES: usize = 250;

/// The one item-size policy every layer shares: an item's footprint
/// ([`ITEM_HEADER_BYTES`] + key + value) must fit the slab's largest
/// chunk — one 1 MB page. The protocol's
/// [`crate::protocol::MAX_VALUE_BYTES`] caps the `set` nbytes field at
/// the same 1 MB (a value that passes the parser can still push the
/// footprint past the chunk and fail here), and `densekv-engine`'s
/// overflow allocations enforce this same bound above its 4 KB top
/// tier. Breaching it returns [`StoreError::ValueTooLarge`], rendered
/// as `SERVER_ERROR object too large for cache` in both backends.
pub const MAX_ITEM_FOOTPRINT_BYTES: u64 = crate::slab::PAGE_BYTES;

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Key exceeds [`MAX_KEY_BYTES`].
    KeyTooLong {
        /// Offending key length.
        len: usize,
    },
    /// The item (header + key + value) exceeds the largest slab chunk.
    ValueTooLarge {
        /// Total item bytes requested.
        bytes: u64,
    },
    /// Memory is exhausted and eviction could not make room.
    OutOfMemory,
    /// CAS token didn't match (the item changed since `gets`).
    CasMismatch,
    /// Target does not exist (CAS, `replace`, `append`, `incr`…).
    NotFound,
    /// `add` refused because the key already exists.
    Exists,
    /// `incr`/`decr` on a value that is not an unsigned decimal.
    NotNumeric,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::KeyTooLong { len } => write!(f, "key of {len} bytes exceeds 250"),
            StoreError::ValueTooLarge { bytes } => {
                write!(f, "item of {bytes} bytes exceeds the largest slab class")
            }
            StoreError::OutOfMemory => write!(f, "out of memory after eviction attempts"),
            StoreError::CasMismatch => write!(f, "compare-and-swap token mismatch"),
            StoreError::NotFound => write!(f, "key not found"),
            StoreError::Exists => write!(f, "key already exists"),
            StoreError::NotNumeric => write!(f, "value is not an unsigned decimal"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Store configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Memory budget for item storage (slab arena), bytes.
    pub memory_bytes: u64,
    /// Eviction policy (ordering each slab class apart, as Memcached
    /// does).
    pub eviction: EvictionKind,
    /// Initial hash-table buckets.
    pub initial_buckets: u64,
}

impl StoreConfig {
    /// A config with the given memory budget and defaults elsewhere.
    pub fn with_capacity(memory_bytes: u64) -> Self {
        StoreConfig {
            memory_bytes,
            eviction: EvictionKind::StrictLru,
            initial_buckets: 1024,
        }
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig::with_capacity(64 << 20)
    }
}

/// Counters exposed by `stats`, mirroring Memcached's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// GETs that found a live item.
    pub get_hits: u64,
    /// GETs that missed (absent or expired).
    pub get_misses: u64,
    /// Successful SETs.
    pub sets: u64,
    /// Successful deletes.
    pub deletes: u64,
    /// Items evicted to make room.
    pub evictions: u64,
    /// Items dropped because their TTL lapsed (lazy expiry).
    pub expirations: u64,
    /// Successful `touch`es (TTL updates on live items).
    pub touches: u64,
    /// Value bytes served by GET hits (the store-side `bytes_read`).
    pub bytes_read: u64,
    /// Value bytes accepted by successful stores (`bytes_written`).
    pub bytes_written: u64,
    /// Item bytes (headers + keys + values) freed by lazy expiry —
    /// distinguishes TTL churn from eviction pressure.
    pub expired_bytes: u64,
    /// Live items.
    pub items: u64,
    /// Bytes of live item data (keys + values + headers).
    pub bytes: u64,
}

impl StoreStats {
    /// Fraction of GETs that hit; `1.0` before any GET has been issued
    /// (an idle store has not missed anything).
    pub fn hit_rate(&self) -> f64 {
        let total = self.get_hits + self.get_misses;
        if total == 0 {
            1.0
        } else {
            self.get_hits as f64 / total as f64
        }
    }

    /// Counter change since an `earlier` snapshot of the same store.
    ///
    /// Monotonic counters subtract; the instantaneous gauges (`items`,
    /// `bytes`) carry this snapshot's value. Lets a timeline sampler turn
    /// lifetime counters into per-interval rates.
    pub fn delta(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            get_hits: self.get_hits - earlier.get_hits,
            get_misses: self.get_misses - earlier.get_misses,
            sets: self.sets - earlier.sets,
            deletes: self.deletes - earlier.deletes,
            evictions: self.evictions - earlier.evictions,
            expirations: self.expirations - earlier.expirations,
            touches: self.touches - earlier.touches,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            expired_bytes: self.expired_bytes - earlier.expired_bytes,
            items: self.items,
            bytes: self.bytes,
        }
    }
}

/// Byte offsets (within the store's address space) an operation touched.
///
/// Layout: hash-table buckets live at the front of the address space
/// (8 bytes per bucket); the slab arena follows at
/// `AccessTrace::SLAB_REGION_OFFSET`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessTrace {
    /// Offset of the hash bucket head examined.
    pub(crate) bucket_offset: u64,
    /// Offsets of the item headers walked along the chain (including the
    /// matching item, if any).
    pub(crate) chain_offsets: Vec<u64>,
    /// Offset and length of the value read or written, if any.
    pub value: Option<(u64, u64)>,
}

impl AccessTrace {
    /// Where the slab arena starts in the store address space (1 GB in,
    /// leaving room for any table size we simulate).
    pub(crate) const SLAB_REGION_OFFSET: u64 = 1 << 30;

    /// All metadata offsets (bucket + chain walk) in access order.
    pub fn metadata_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.bucket_offset).chain(self.chain_offsets.iter().copied())
    }
}

/// Longest key an item holds inline.
const INLINE_KEY_BYTES: usize = 22;

/// An item's key: up to [`INLINE_KEY_BYTES`] in the item itself (tag
/// and length fill out its 24 bytes), a `Box` of its own above that.
#[derive(Debug)]
enum Key {
    Inline(u8, [u8; INLINE_KEY_BYTES]),
    Boxed(Box<[u8]>),
}

impl Key {
    fn new(key: &[u8]) -> Self {
        let mut inline = [0; INLINE_KEY_BYTES];
        match inline.get_mut(..key.len()) {
            Some(head) => head.copy_from_slice(key),
            None => return Key::Boxed(key.into()),
        }
        Key::Inline(key.len() as u8, inline)
    }
}

impl std::ops::Deref for Key {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Key::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Key::Boxed(key) => key,
        }
    }
}

/// `expires_at` of an item that never expires.
const NEVER: u64 = u64::MAX;

/// A live item.
#[derive(Debug)]
struct Item {
    key: Key,
    /// Owned for every live-plane caller; borrowed when the caller has a
    /// `'static` block to lend (the simulator, which only ever asks for a
    /// value's length, lends slices of one zero block instead of filling
    /// a buffer per item). Nothing downstream can tell the two apart.
    value: Cow<'static, [u8]>,
    flags: u32,
    /// Absolute expiry in seconds; [`NEVER`] = immortal.
    expires_at: u64,
    cas: u64,
    addr: SlabAddr,
}

const _: () = assert!(
    std::mem::size_of::<Option<Item>>() <= 80,
    "a slot's host cost"
);

impl Item {
    fn footprint(&self) -> u64 {
        ITEM_HEADER_BYTES + self.key.len() as u64 + self.value.len() as u64
    }
}

/// A successful GET whose value is still the store's: what
/// [`crate::backend::StoreBackend::get_ref`] lends, valid until the
/// store is next touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitRef<'a> {
    /// The value bytes.
    pub value: &'a [u8],
    /// The client-opaque flags stored with the item.
    pub flags: u32,
    /// The CAS token (for `gets`/`cas`).
    pub cas: u64,
}

/// A successful GET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetHit {
    value: Vec<u8>,
    flags: u32,
    cas: u64,
    trace: AccessTrace,
}

impl GetHit {
    /// Builds a hit from its parts — how alternative backends (the
    /// [`crate::backend::StoreBackend`] implementations outside this
    /// crate) construct GET results without access to private fields.
    pub fn new(value: Vec<u8>, flags: u32, cas: u64, trace: AccessTrace) -> Self {
        GetHit {
            value,
            flags,
            cas,
            trace,
        }
    }

    /// The hit with its value borrowed.
    pub(crate) fn borrowed(&self) -> HitRef<'_> {
        HitRef {
            value: &self.value,
            flags: self.flags,
            cas: self.cas,
        }
    }

    /// The value bytes.
    pub fn value(&self) -> &[u8] {
        &self.value
    }

    /// The client-opaque flags stored with the item.
    pub fn flags(&self) -> u32 {
        self.flags
    }

    /// The CAS token (for `gets`/`cas`).
    pub fn cas(&self) -> u64 {
        self.cas
    }

    /// The addresses the lookup touched.
    pub fn trace(&self) -> &AccessTrace {
        &self.trace
    }
}

/// The single-threaded store. The live server shards it behind locks
/// (`densekv_serve::ShardedStore`).
///
/// # Examples
///
/// ```
/// use densekv_kv::hash::jenkins_oaat;
/// use densekv_kv::store::{KvStore, StoreConfig};
/// use densekv_kv::StoreBackend;
///
/// let mut store = KvStore::new(StoreConfig::with_capacity(16 << 20));
/// store.set(b"k", b"v".to_vec(), None, 0)?;
/// assert!(store.get(b"k", 0).is_some());
/// assert!(store.delete(b"k", jenkins_oaat(b"k"), 0));
/// assert!(store.get(b"k", 0).is_none());
/// # Ok::<(), densekv_kv::StoreError>(())
/// ```
pub struct KvStore {
    config: StoreConfig,
    slab: SlabAllocator,
    table: HashTable,
    /// Orders each slab class apart (Memcached keeps per-class LRU).
    policy: Box<dyn EvictionPolicy + Send>,
    items: Vec<Option<Item>>,
    free_slots: Vec<u32>,
    stats: StoreStats,
    next_cas: u64,
    /// The trace of every set whose caller discards it.
    scratch: AccessTrace,
}

impl fmt::Debug for KvStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvStore")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl KvStore {
    /// Creates an empty store.
    pub fn new(config: StoreConfig) -> Self {
        let slab = SlabAllocator::new(config.memory_bytes);
        KvStore {
            table: HashTable::new(config.initial_buckets),
            policy: config.eviction.build(slab.class_count()),
            items: Vec::new(),
            free_slots: Vec::new(),
            stats: StoreStats::default(),
            next_cas: 1,
            scratch: AccessTrace::default(),
            slab,
            config,
        }
    }

    fn bucket_offset(&self, hash: u64) -> u64 {
        (hash % self.table.bucket_count()) * 8
    }

    fn header_offset(&self, addr: SlabAddr) -> u64 {
        AccessTrace::SLAB_REGION_OFFSET + self.slab.byte_offset(addr)
    }

    fn value_offset(&self, item: &Item) -> u64 {
        self.header_offset(item.addr) + ITEM_HEADER_BYTES + item.key.len() as u64
    }

    fn is_expired(item: &Item, now: u64) -> bool {
        item.expires_at <= now
    }

    /// Looks up a live item slot, lazily expiring a stale one, and
    /// traces the walk into a caller-owned trace, so hot paths reuse the
    /// chain-offsets buffer instead of allocating one per request.
    fn lookup_into(
        &mut self,
        key: &[u8],
        hash: u64,
        now: u64,
        trace: &mut AccessTrace,
    ) -> Option<u32> {
        let found = self.find(key, hash);
        trace.bucket_offset = self.bucket_offset(hash);
        trace.chain_offsets.clear();
        trace.value = None;
        let slot = found.slot?;
        // Reconstruct chain-walk addresses: one header line per probe
        // (dependent loads along the chain are represented by the probe
        // count), with the matched item's neighbourhood as the proxy
        // address of the probed-but-unmatched headers.
        let item = self.items[slot as usize].as_ref().expect("found slot live");
        for _ in 0..found.probes {
            trace.chain_offsets.push(self.header_offset(item.addr));
        }
        self.live_or_expire(slot, hash, now)
    }

    /// [`KvStore::lookup_into`] for a caller that needs no trace.
    fn live_slot(&mut self, key: &[u8], hash: u64, now: u64) -> Option<u32> {
        let slot = self.find(key, hash).slot?;
        self.live_or_expire(slot, hash, now)
    }

    fn find(&mut self, key: &[u8], hash: u64) -> crate::table::FindResult {
        let items = &self.items;
        self.table.find_with(hash, |slot| {
            items[slot as usize]
                .as_ref()
                .is_some_and(|item| *item.key == *key)
        })
    }

    /// `slot` if its item is live at `now`; a stale one is removed and
    /// counted as expired.
    fn live_or_expire(&mut self, slot: u32, hash: u64, now: u64) -> Option<u32> {
        let item = self.items[slot as usize].as_ref().expect("found slot live");
        if Self::is_expired(item, now) {
            let freed = item.footprint();
            self.remove_slot(slot, hash);
            self.stats.expirations += 1;
            self.stats.expired_bytes += freed;
            return None;
        }
        Some(slot)
    }

    /// What every flavour of GET does with its lookup's answer: the LRU
    /// touch and the hit or miss counters.
    fn count_get(&mut self, slot: Option<u32>) -> Option<u32> {
        let Some(slot) = slot else {
            self.stats.get_misses += 1;
            return None;
        };
        let item = self.items[slot as usize].as_ref().expect("live");
        self.policy.on_access(item.addr.class.into(), slot);
        self.stats.get_hits += 1;
        self.stats.bytes_read += item.value.len() as u64;
        Some(slot)
    }

    /// A GET that traces the addresses it touched into `trace`.
    fn traced_hit(&mut self, key: &[u8], now: u64, trace: &mut AccessTrace) -> Option<&Item> {
        let slot = self.lookup_into(key, jenkins_oaat(key), now, trace);
        let slot = self.count_get(slot)?;
        let item = self.items[slot as usize].as_ref().expect("live");
        trace.value = Some((self.value_offset(item), item.value.len() as u64));
        Some(item)
    }

    /// Fetches `key`, returning the value and trace on a live hit.
    pub fn get(&mut self, key: &[u8], now: u64) -> Option<GetHit> {
        let mut trace = AccessTrace::default();
        let item = self.traced_hit(key, now, &mut trace)?;
        Some(GetHit {
            value: item.value.to_vec(),
            flags: item.flags,
            cas: item.cas,
            trace,
        })
    }

    /// [`KvStore::get`] for timing-model callers: identical side
    /// effects (lookup walk, LRU touch, stats) and an identical trace
    /// written into `trace`, but returns only the value length —
    /// skipping the value clone a [`GetHit`] would pay for, which at
    /// 1 MB values is a megabyte of memcpy per simulated request.
    pub fn get_traced(&mut self, key: &[u8], now: u64, trace: &mut AccessTrace) -> Option<u64> {
        let item = self.traced_hit(key, now, trace)?;
        Some(item.value.len() as u64)
    }

    /// Stores `key` → `value` with flags 0 and optional TTL (seconds
    /// from `now`), returning the items evicted to make room.
    ///
    /// # Errors
    ///
    /// [`StoreError::KeyTooLong`], [`StoreError::ValueTooLarge`], or
    /// [`StoreError::OutOfMemory`] when eviction (if enabled) cannot make
    /// room.
    pub fn set(
        &mut self,
        key: &[u8],
        value: impl Into<Cow<'static, [u8]>>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<u64, StoreError> {
        self.set_scratch(key, jenkins_oaat(key), value.into(), 0, ttl_secs, now)
    }

    /// [`KvStore::set`] for timing-model callers, the twin of
    /// [`KvStore::get_traced`]: identical side effects, no flags and no
    /// TTL, and the trace written into `trace`. Returns the items evicted
    /// to make room; a refused set leaves `trace` equal to
    /// [`AccessTrace::default`].
    ///
    /// # Errors
    ///
    /// As for [`KvStore::set`].
    pub fn set_traced(
        &mut self,
        key: &[u8],
        value: &'static [u8],
        now: u64,
        trace: &mut AccessTrace,
    ) -> Result<u64, StoreError> {
        let set = self.set_into(key, jenkins_oaat(key), value.into(), 0, None, now, trace);
        if set.is_err() {
            trace.bucket_offset = 0;
            trace.chain_offsets.clear();
            trace.value = None;
        }
        set
    }

    /// [`KvStore::set_into`] for a caller that discards the trace: it
    /// goes to the store's scratch trace.
    fn set_scratch(
        &mut self,
        key: &[u8],
        hash: u64,
        value: Cow<'static, [u8]>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<u64, StoreError> {
        let mut trace = std::mem::take(&mut self.scratch);
        let set = self.set_into(key, hash, value, flags, ttl_secs, now, &mut trace);
        self.scratch = trace;
        set
    }

    /// The one set body: stores the item, traces what it touched into
    /// `trace` and returns the items evicted to make room.
    #[allow(clippy::too_many_arguments)]
    fn set_into(
        &mut self,
        key: &[u8],
        hash: u64,
        value: Cow<'static, [u8]>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
        trace: &mut AccessTrace,
    ) -> Result<u64, StoreError> {
        if key.len() > MAX_KEY_BYTES {
            return Err(StoreError::KeyTooLong { len: key.len() });
        }
        let footprint = ITEM_HEADER_BYTES + key.len() as u64 + value.len() as u64;

        // Replace any existing copy first (frees its chunk); its key
        // equals `key`, so the new item keeps its buffer.
        let replaced_key = self
            .lookup_into(key, hash, now, trace)
            .map(|slot| self.remove_slot(slot, hash).key);

        let (addr, evicted) = self.allocate_with_eviction(footprint)?;
        let cas = self.next_cas;
        self.next_cas += 1;
        let item = Item {
            key: replaced_key.unwrap_or_else(|| Key::new(key)),
            value,
            flags,
            expires_at: ttl_secs.map_or(NEVER, |t| now + t),
            cas,
            addr,
        };
        trace.value = Some((self.value_offset(&item), item.value.len() as u64));
        trace.chain_offsets.push(self.header_offset(addr));
        self.stats.bytes += item.footprint();
        self.stats.items += 1;
        self.stats.sets += 1;
        self.stats.bytes_written += item.value.len() as u64;

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
        self.table.insert(hash, slot);
        self.policy.on_insert(addr.class.into(), slot);
        Ok(evicted)
    }

    /// Unlinks and frees `slot`, handing back its item.
    fn remove_slot(&mut self, slot: u32, hash: u64) -> Item {
        let item = self.items[slot as usize].take().expect("slot is live");
        self.table.remove(hash, slot);
        self.policy.on_remove(item.addr.class.into(), slot);
        self.slab.free(item.addr);
        self.stats.bytes -= item.footprint();
        self.stats.items -= 1;
        self.free_slots.push(slot);
        item
    }

    /// Allocates a chunk, evicting same-class victims as needed (the
    /// Memcached strategy: eviction can only help within the class).
    fn allocate_with_eviction(&mut self, footprint: u64) -> Result<(SlabAddr, u64), StoreError> {
        let class = self
            .slab
            .class_for(footprint)
            .ok_or(StoreError::ValueTooLarge { bytes: footprint })? as usize;
        let mut evicted = 0;
        loop {
            match self.slab.allocate(footprint) {
                Ok(addr) => return Ok((addr, evicted)),
                Err(SlabError::ObjectTooLarge { requested, .. }) => {
                    return Err(StoreError::ValueTooLarge { bytes: requested })
                }
                Err(SlabError::OutOfMemory) => {
                    let Some(victim) = self.policy.pop_victim(class) else {
                        return Err(StoreError::OutOfMemory);
                    };
                    let hash = {
                        let item = self.items[victim as usize].as_ref().expect("victim live");
                        jenkins_oaat(&item.key)
                    };
                    // pop_victim already dropped it from the policy;
                    // remove_slot's on_remove is then a no-op.
                    self.remove_slot(victim, hash);
                    self.stats.evictions += 1;
                    evicted += 1;
                }
            }
        }
    }
}

impl StoreBackend for KvStore {
    fn get_ref(&mut self, key: &[u8], hash: u64, now: u64) -> Option<HitRef<'_>> {
        let slot = self.live_slot(key, hash, now);
        let slot = self.count_get(slot)?;
        let item = self.items[slot as usize].as_ref().expect("live");
        Some(HitRef {
            value: &item.value,
            flags: item.flags,
            cas: item.cas,
        })
    }

    fn peek(&mut self, key: &[u8], hash: u64, now: u64) -> Option<ItemRef<'_>> {
        let slot = self.live_slot(key, hash, now)?;
        let item = self.items[slot as usize].as_ref().expect("live");
        Some(ItemRef {
            value: &item.value,
            flags: item.flags,
            cas: item.cas,
            expires_at: (item.expires_at != NEVER).then_some(item.expires_at),
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
        self.set_scratch(key, hash, value.into(), flags, ttl_secs, now)
            .map(|_| ())
    }

    fn touch(&mut self, key: &[u8], hash: u64, ttl_secs: Option<u64>, now: u64) -> bool {
        let Some(slot) = self.live_slot(key, hash, now) else {
            return false;
        };
        let item = self.items[slot as usize].as_mut().expect("live");
        item.expires_at = ttl_secs.map_or(NEVER, |t| now + t);
        self.stats.touches += 1;
        true
    }

    fn delete(&mut self, key: &[u8], hash: u64, now: u64) -> bool {
        let Some(slot) = self.live_slot(key, hash, now) else {
            return false;
        };
        self.remove_slot(slot, hash);
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
            let hash = {
                let item = self.items[slot as usize].as_ref().expect("live");
                jenkins_oaat(&item.key)
            };
            self.remove_slot(slot, hash);
        }
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn len(&self) -> u64 {
        self.stats.items
    }

    fn capacity_bytes(&self) -> u64 {
        self.slab.arena_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KvStore {
        KvStore::new(StoreConfig::with_capacity(2 << 20))
    }

    fn h(key: &[u8]) -> u64 {
        jenkins_oaat(key)
    }

    #[test]
    fn stats_hit_rate_and_delta() {
        let mut s = small();
        assert_eq!(s.stats().hit_rate(), 1.0); // idle sentinel
        s.set(b"k", b"v".to_vec(), None, 0).unwrap();
        s.get(b"k", 0);
        let mid = s.stats();
        s.get(b"k", 0);
        s.get(b"absent", 0);
        let end = s.stats();
        assert_eq!(end.hit_rate(), 2.0 / 3.0);
        let d = end.delta(&mid);
        assert_eq!(d.get_hits, 1);
        assert_eq!(d.get_misses, 1);
        assert_eq!(d.sets, 0);
        assert_eq!(d.hit_rate(), 0.5);
        assert_eq!(d.items, end.items); // gauges carry the latest value
    }

    #[test]
    fn byte_and_expiry_counters_track_traffic() {
        let mut s = small();
        s.set(b"k", b"hello".to_vec(), None, 0).unwrap(); // 5 bytes in
        s.get(b"k", 0).unwrap(); // 5 bytes out
        s.get(b"k", 0).unwrap(); // 5 more
        assert!(s.touch(b"k", h(b"k"), Some(10), 0));
        s.set(b"t", b"xy".to_vec(), Some(5), 0).unwrap(); // 2 bytes in
        assert!(s.get(b"t", 10).is_none(), "expired");
        let stats = s.stats();
        assert_eq!(stats.bytes_written, 7);
        assert_eq!(stats.bytes_read, 10);
        assert_eq!(stats.touches, 1);
        assert_eq!(stats.expirations, 1);
        assert_eq!(stats.expired_bytes, ITEM_HEADER_BYTES + 1 + 2);
        // Deltas subtract the monotonic counters.
        let before = stats;
        s.get(b"k", 0).unwrap();
        let d = s.stats().delta(&before);
        assert_eq!(d.bytes_read, 5);
        assert_eq!(d.bytes_written, 0);
        assert_eq!(d.touches, 0);
        assert_eq!(d.expired_bytes, 0);
    }

    #[test]
    fn set_get_roundtrip_with_flags() {
        let mut s = small();
        s.set_with_flags(b"k", b"hello".to_vec(), 99, None, 0)
            .unwrap();
        let hit = s.get(b"k", 0).unwrap();
        assert_eq!(hit.value(), b"hello");
        assert_eq!(hit.flags(), 99);
        assert_eq!(s.stats().get_hits, 1);
    }

    #[test]
    fn get_missing_counts_miss() {
        let mut s = small();
        assert!(s.get(b"nope", 0).is_none());
        assert_eq!(s.stats().get_misses, 1);
    }

    #[test]
    fn overwrite_replaces_value_and_keeps_one_item() {
        let mut s = small();
        s.set(b"k", b"one".to_vec(), None, 0).unwrap();
        s.set(b"k", b"two".to_vec(), None, 0).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(b"k", 0).unwrap().value(), b"two");
    }

    #[test]
    fn delete_removes() {
        let mut s = small();
        s.set(b"k", b"v".to_vec(), None, 0).unwrap();
        assert!(s.delete(b"k", h(b"k"), 0));
        assert!(!s.delete(b"k", h(b"k"), 0));
        assert!(s.get(b"k", 0).is_none());
        assert_eq!(s.stats().items, 0);
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn ttl_expires_lazily() {
        let mut s = small();
        s.set(b"k", b"v".to_vec(), Some(10), 100).unwrap();
        assert!(s.get(b"k", 105).is_some(), "still alive at 105");
        assert!(s.get(b"k", 110).is_none(), "expired at 110");
        assert_eq!(s.stats().expirations, 1);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn touch_extends_ttl() {
        let mut s = small();
        s.set(b"k", b"v".to_vec(), Some(10), 0).unwrap();
        assert!(s.touch(b"k", h(b"k"), Some(100), 5));
        assert!(s.get(b"k", 50).is_some());
        assert!(!s.touch(b"missing", h(b"missing"), None, 0));
    }

    #[test]
    fn cas_semantics() {
        let mut s = small();
        s.set(b"k", b"v1".to_vec(), None, 0).unwrap();
        let token = s.get(b"k", 0).unwrap().cas();
        // Interleaved write bumps the token.
        s.set(b"k", b"v2".to_vec(), None, 0).unwrap();
        assert_eq!(
            s.cas(b"k", h(b"k"), b"v3".to_vec(), token, None, 0),
            Err(StoreError::CasMismatch)
        );
        let fresh = s.get(b"k", 0).unwrap().cas();
        s.cas(b"k", h(b"k"), b"v3".to_vec(), fresh, None, 0)
            .unwrap();
        assert_eq!(s.get(b"k", 0).unwrap().value(), b"v3");
        assert_eq!(
            s.cas(b"absent", h(b"absent"), b"x".to_vec(), 1, None, 0),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn key_length_enforced() {
        let mut s = small();
        let long = vec![b'a'; 251];
        assert_eq!(
            s.set(&long, b"v".to_vec(), None, 0),
            Err(StoreError::KeyTooLong { len: 251 })
        );
    }

    #[test]
    fn oversized_value_rejected() {
        let mut s = small();
        let huge = vec![0u8; (2 << 20) + 1];
        assert!(matches!(
            s.set(b"k", huge, None, 0),
            Err(StoreError::ValueTooLarge { .. })
        ));
    }

    #[test]
    fn item_footprint_boundary_at_the_largest_chunk() {
        // The shared size policy, at its exact boundary: a footprint of
        // MAX_ITEM_FOOTPRINT_BYTES stores; one byte more is rejected.
        let mut s = small();
        let fit = (MAX_ITEM_FOOTPRINT_BYTES - ITEM_HEADER_BYTES) as usize - 1;
        s.set(b"k", vec![0u8; fit], None, 0).expect("exactly fits");
        assert_eq!(
            s.set(b"k", vec![0u8; fit + 1], None, 0),
            Err(StoreError::ValueTooLarge {
                bytes: MAX_ITEM_FOOTPRINT_BYTES + 1
            })
        );
    }

    #[test]
    fn eviction_makes_room_lru_order() {
        // 2 MB arena, ~64 KB values: ~30 fit; insert 40 and confirm the
        // earliest (least recently used) were evicted.
        let mut s = small();
        let value = vec![7u8; 64 << 10];
        let mut total_evicted = 0;
        for i in 0..40 {
            let key = format!("key{i:02}");
            total_evicted += s.set(key.as_bytes(), value.clone(), None, 0).unwrap();
        }
        assert!(total_evicted > 0);
        assert!(s.get(b"key39", 0).is_some(), "newest survives");
        assert!(s.get(b"key00", 0).is_none(), "oldest evicted");
        assert_eq!(s.stats().evictions, total_evicted);
    }

    #[test]
    fn oom_never_surfaces_while_same_class_victims_remain() {
        // The slab's retry contract, enforced at the store: with
        // eviction enabled, OutOfMemory must stay internal as long as
        // the needed class holds victims to evict — sets keep
        // succeeding indefinitely past the arena capacity.
        let mut s = small();
        let value = vec![1u8; 64 << 10];
        for i in 0..200 {
            s.set(format!("k{i}").as_bytes(), value.clone(), None, 0)
                .expect("eviction absorbs the pressure");
        }
        assert!(s.stats().evictions > 0, "capacity was really exceeded");
    }

    #[test]
    fn oom_surfaces_once_eviction_cannot_free_a_fitting_chunk() {
        // Every resident item lives in a large class: the small-class eviction policy is empty, so the store
        // must report OutOfMemory only after pop_victim finds nothing —
        // not silently evict unrelated classes.
        let mut s = small();
        let big = vec![2u8; 512 << 10];
        for i in 0..2 {
            s.set(format!("big{i}").as_bytes(), big.clone(), None, 0)
                .unwrap();
        }
        // The arena's pages are all class-assigned to the big class;
        // a small item needs a fresh page and has no victims.
        let err = s.set(b"tiny", b"x".to_vec(), None, 0).unwrap_err();
        assert_eq!(err, StoreError::OutOfMemory);
        assert_eq!(s.stats().evictions, 0, "no cross-class eviction churn");
        assert!(s.get(b"big0", 0).is_some(), "resident items survive");
    }

    #[test]
    fn get_recency_protects_from_eviction() {
        let mut s = small();
        let value = vec![3u8; 64 << 10];
        // 20 items fit in the 2 MB arena without eviction.
        for i in 0..20 {
            let evicted = s
                .set(format!("key{i:02}").as_bytes(), value.clone(), None, 0)
                .unwrap();
            assert_eq!(evicted, 0, "warmup insert {i} must not evict");
        }
        // Touch key00: it becomes the most recently used of the batch.
        assert!(s.get(b"key00", 0).is_some());
        // Force evictions; key01 (now the true LRU) must go before key00.
        for j in 0..15 {
            s.set(format!("extra{j}").as_bytes(), value.clone(), None, 0)
                .unwrap();
        }
        assert!(s.stats().evictions > 0);
        assert!(s.get(b"key00", 0).is_some(), "recently used key survives");
        assert!(s.get(b"key01", 0).is_none(), "LRU key evicted");
    }

    #[test]
    fn traces_have_distinct_regions() {
        let mut s = small();
        s.set(b"k", vec![1; 1000], None, 0).unwrap();
        let hit = s.get(b"k", 0).unwrap();
        let t = hit.trace();
        assert!(t.bucket_offset < AccessTrace::SLAB_REGION_OFFSET);
        for off in &t.chain_offsets {
            assert!(*off >= AccessTrace::SLAB_REGION_OFFSET);
        }
        let (voff, vlen) = t.value.unwrap();
        assert_eq!(vlen, 1000);
        assert!(voff > AccessTrace::SLAB_REGION_OFFSET);
        // Value sits after the header and key in the chunk.
        assert_eq!(voff - t.chain_offsets[0], ITEM_HEADER_BYTES + 1);
    }

    #[test]
    fn flush_all_empties() {
        let mut s = small();
        for i in 0..50 {
            s.set(format!("k{i}").as_bytes(), vec![0; 100], None, 0)
                .unwrap();
        }
        s.flush_all();
        assert!(s.is_empty());
        assert_eq!(s.stats().bytes, 0);
        for i in 0..50 {
            assert!(s.get(format!("k{i}").as_bytes(), 0).is_none());
        }
    }

    #[test]
    fn stats_bytes_track_footprint() {
        let mut s = small();
        s.set(b"key", vec![0; 100], None, 0).unwrap();
        assert_eq!(s.stats().bytes, ITEM_HEADER_BYTES + 3 + 100);
        s.delete(b"key", h(b"key"), 0);
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn add_only_when_absent() {
        let mut s = small();
        s.add(b"k", h(b"k"), b"one".to_vec(), None, 0).unwrap();
        assert_eq!(
            s.add(b"k", h(b"k"), b"two".to_vec(), None, 0),
            Err(StoreError::Exists)
        );
        assert_eq!(s.get(b"k", 0).unwrap().value(), b"one");
        // Expired items count as absent.
        s.set(b"t", b"v".to_vec(), Some(5), 0).unwrap();
        s.add(b"t", h(b"t"), b"fresh".to_vec(), None, 10).unwrap();
        assert_eq!(s.get(b"t", 10).unwrap().value(), b"fresh");
    }

    #[test]
    fn replace_only_when_present() {
        let mut s = small();
        assert_eq!(
            s.replace(b"k", h(b"k"), b"x".to_vec(), None, 0),
            Err(StoreError::NotFound)
        );
        s.set(b"k", b"one".to_vec(), None, 0).unwrap();
        s.replace(b"k", h(b"k"), b"two".to_vec(), None, 0).unwrap();
        assert_eq!(s.get(b"k", 0).unwrap().value(), b"two");
    }

    #[test]
    fn append_and_prepend() {
        let mut s = small();
        s.set_with_flags(b"k", b"mid".to_vec(), 7, None, 0).unwrap();
        s.concat(b"k", h(b"k"), b"-end", false, 0).unwrap();
        s.concat(b"k", h(b"k"), b"start-", true, 0).unwrap();
        let hit = s.get(b"k", 0).unwrap();
        assert_eq!(hit.value(), b"start-mid-end");
        assert_eq!(hit.flags(), 7, "flags survive concat");
        assert_eq!(
            s.concat(b"missing", h(b"missing"), b"x", false, 0),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn incr_decr_semantics() {
        let mut s = small();
        s.set(b"n", b"10".to_vec(), None, 0).unwrap();
        assert_eq!(s.incr_decr(b"n", h(b"n"), 5, false, 0), Ok(15));
        assert_eq!(
            s.incr_decr(b"n", h(b"n"), 20, true, 0),
            Ok(0),
            "decr saturates"
        );
        assert_eq!(s.get(b"n", 0).unwrap().value(), b"0");
        s.set(b"s", b"abc".to_vec(), None, 0).unwrap();
        assert_eq!(
            s.incr_decr(b"s", h(b"s"), 1, false, 0),
            Err(StoreError::NotNumeric)
        );
        assert_eq!(
            s.incr_decr(b"missing", h(b"missing"), 1, false, 0),
            Err(StoreError::NotFound)
        );
    }

    #[test]
    fn concat_preserves_remaining_ttl() {
        let mut s = small();
        s.set(b"k", b"a".to_vec(), Some(100), 0).unwrap();
        s.concat(b"k", h(b"k"), b"b", false, 40).unwrap();
        assert!(s.get(b"k", 90).is_some(), "alive until the original expiry");
        assert!(s.get(b"k", 110).is_none(), "expired at the original time");
    }

    #[test]
    fn keys_round_trip_inline_and_boxed() {
        // The inline limit, one byte past it, and the longest key: set,
        // get, overwrite, delete, eviction and flush_all see the whole
        // key, and a key is never confused with its neighbour. Values
        // of 64 KB share one class, so 40 of them overflow the 2 MB
        // arena.
        let value = |fill: u8| vec![fill; 64 << 10];
        for len in [INLINE_KEY_BYTES, INLINE_KEY_BYTES + 1, MAX_KEY_BYTES] {
            let mut s = small();
            let key = |i: u8| {
                let mut key = vec![b'k'; len];
                key[len - 1] = i;
                key
            };
            let (a, b) = (key(b'a'), key(b'b'));
            s.set(&a, value(1), None, 0).unwrap();
            s.set(&b, value(2), None, 0).unwrap();
            s.set(&a, value(3), None, 0).unwrap();
            assert_eq!(s.get(&a, 0).unwrap().value(), value(3), "{len}");
            assert_eq!(s.get(&b, 0).unwrap().value(), value(2), "{len}");
            assert!(s.get(&key(b'c'), 0).is_none());
            assert!(s.get(&a[..len - 1], 0).is_none(), "a prefix is another key");
            assert!(s.delete(&a, h(&a), 0));
            assert!(s.get(&a, 0).is_none());
            let footprint = ITEM_HEADER_BYTES + len as u64 + (64 << 10);
            assert_eq!(s.stats().bytes, footprint);
            // `b` is the oldest, and each eviction rehashes its victim's
            // key to unlink it.
            for i in 0..40 {
                s.set(&key(i), value(i), None, 0).unwrap();
            }
            assert!(s.stats().evictions > 0);
            assert!(s.get(&b, 0).is_none(), "{len}: oldest evicted");
            assert_eq!(s.get(&key(39), 0).unwrap().value(), value(39));
            assert_eq!(s.stats().bytes, s.len() * footprint);
            s.flush_all();
            assert_eq!((s.len(), s.stats().bytes), (0, 0));
            assert!(s.get(&key(39), 0).is_none());
        }
    }

    #[test]
    fn peek_reports_expiry() {
        let mut s = small();
        s.set(b"k", b"v".to_vec(), None, 100).unwrap();
        assert_eq!(s.peek(b"k", h(b"k"), 100).unwrap().expires_at, None);
        assert!(s.touch(b"k", h(b"k"), Some(30), 200));
        assert_eq!(s.peek(b"k", h(b"k"), 200).unwrap().expires_at, Some(230));
        assert!(s.touch(b"k", h(b"k"), None, 210));
        assert_eq!(
            s.peek(b"k", h(b"k"), u64::MAX - 1).unwrap().expires_at,
            None
        );
    }

    #[test]
    fn set_traced_matches_set_observably() {
        // `set` on one store, `set_traced` into one reused trace on
        // another and into a fresh trace per set on a third, through
        // fresh keys, overwrites and evictions: the same evictions and
        // counters, and a reused trace equal to a fresh one. A refused
        // set leaves the trace empty.
        static VALUE: [u8; 64 << 10] = [9; 64 << 10];
        let mut by_set = small();
        let mut by_trace = small();
        let mut by_fresh = small();
        let mut trace = AccessTrace::default();
        // 40 fresh keys overflow the 2 MB arena; the last 20 sets
        // overwrite the 8 newest.
        for i in 0..60 {
            let key = format!("key{}", if i < 40 { i } else { 32 + i % 8 });
            let evicted = by_set.set(key.as_bytes(), &VALUE[..], None, 0);
            let traced = by_trace.set_traced(key.as_bytes(), &VALUE[..], 0, &mut trace);
            let mut fresh = AccessTrace::default();
            let fresh_set = by_fresh.set_traced(key.as_bytes(), &VALUE[..], 0, &mut fresh);
            assert_eq!((&evicted, &evicted), (&traced, &fresh_set), "{i}");
            assert_eq!(trace, fresh, "set {i}");
            assert_eq!(by_set.stats(), by_trace.stats(), "set {i}");
        }
        let stats = by_trace.stats();
        assert!(stats.evictions > 0 && stats.sets - stats.evictions > stats.items);
        let long = [b'k'; MAX_KEY_BYTES + 1];
        assert_eq!(
            by_trace.set_traced(&long, &VALUE[..1], 0, &mut trace),
            Err(StoreError::KeyTooLong { len: 251 })
        );
        assert_eq!(trace, AccessTrace::default());
    }

    #[test]
    fn get_traced_matches_get_observably() {
        // Two identical stores: one driven by `get`, one by `get_traced`.
        // Traces, stats, hit/miss outcomes, and lazy expirations must be
        // identical — only the value clone is skipped.
        let mut by_hit = small();
        let mut by_trace = small();
        for s in [&mut by_hit, &mut by_trace] {
            s.set(b"live", b"value-bytes".to_vec(), None, 0).unwrap();
            s.set(b"stale", b"old".to_vec(), Some(10), 0).unwrap();
        }
        let mut trace = AccessTrace::default();
        for (key, now) in [
            (&b"live"[..], 0),
            (&b"missing"[..], 0),
            (&b"stale"[..], 50),
            (&b"stale"[..], 60),
            (&b"live"[..], 60),
        ] {
            let hit = by_hit.get(key, now);
            let len = by_trace.get_traced(key, now, &mut trace);
            assert_eq!(hit.as_ref().map(|h| h.value().len() as u64), len);
            if let Some(hit) = hit {
                assert_eq!(hit.trace(), &trace, "key {key:?}");
            }
            assert_eq!(by_hit.stats(), by_trace.stats(), "key {key:?}");
        }
        assert_eq!(by_trace.stats().expirations, 1, "lazy expiry still fires");
    }

    #[test]
    fn borrowed_and_owned_values_are_indistinguishable() {
        // The same operations on two stores, one handed `Vec`s and one
        // lent `'static` slices of equal bytes: every result, trace and
        // counter must agree, including the verbs that read a stored
        // value (`get`, `incr_decr`) or rebuild one (`concat`).
        static BYTES: [u8; 300] = [b'7'; 300];
        let mut owned = small();
        let mut borrowed = small();
        for (key, len) in [(&b"a"[..], 300), (b"n", 3), (b"empty", 0), (b"a", 17)] {
            assert_eq!(
                owned.set(key, BYTES[..len].to_vec(), Some(60), 0),
                borrowed.set(key, &BYTES[..len], Some(60), 0),
            );
        }
        for s in [&mut owned, &mut borrowed] {
            s.add(b"fresh", h(b"fresh"), BYTES[..9].to_vec(), None, 0)
                .unwrap();
            s.replace(b"fresh", h(b"fresh"), BYTES[..4].to_vec(), None, 0)
                .unwrap();
        }
        let token = owned.get(b"n", 0).unwrap().cas();
        assert_eq!(token, borrowed.get(b"n", 0).unwrap().cas());
        assert_eq!(
            owned.cas(b"n", h(b"n"), BYTES[..2].to_vec(), token, None, 0),
            borrowed.cas(b"n", h(b"n"), BYTES[..2].to_vec(), token, None, 0)
        );
        // 77 + 23 = 100: the borrowed digits parse like the owned ones.
        assert_eq!(owned.incr_decr(b"n", h(b"n"), 23, false, 0), Ok(100));
        assert_eq!(borrowed.incr_decr(b"n", h(b"n"), 23, false, 0), Ok(100));
        for (extra, front) in [(&b"-tail"[..], false), (b"head-", true)] {
            assert_eq!(
                owned.concat(b"a", h(b"a"), extra, front, 1),
                borrowed.concat(b"a", h(b"a"), extra, front, 1)
            );
        }
        let mut trace = AccessTrace::default();
        for key in [&b"a"[..], b"n", b"empty", b"fresh", b"absent"] {
            assert_eq!(owned.get(key, 2), borrowed.get(key, 2), "key {key:?}");
            let len = owned.get_traced(key, 2, &mut trace);
            let owned_trace = trace.clone();
            assert_eq!(len, borrowed.get_traced(key, 2, &mut trace));
            assert_eq!(owned_trace, trace, "key {key:?}");
        }
        assert_eq!(
            borrowed.get(b"a", 2).unwrap().value(),
            b"head-77777777777777777-tail"
        );
        owned.get(b"a", 2);
        assert_eq!(owned.stats(), borrowed.stats());
    }
}
