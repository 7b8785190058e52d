//! The storage-backend abstraction: one protocol loop, many engines.
//!
//! [`crate::server::execute`] dispatches parsed commands through
//! [`StoreBackend`] rather than a concrete store, so the same command
//! loop (and everything stacked on it: [`crate::server::serve_buffer`],
//! the sharded TCP front-end, the load generators) runs over either the
//! Memcached-model [`KvStore`] or a real engine such as
//! `densekv-engine`'s tiered fixed-page store. The trait captures
//! exactly the operations the protocol needs — observable responses,
//! not layout — which is what lets a differential test pin two
//! implementations against each other byte for byte.

use crate::hash::jenkins_oaat;
use crate::store::{AccessTrace, GetHit, HitRef, KvStore, StoreError, StoreStats};

/// The store operations the protocol loop dispatches.
///
/// Semantics follow Memcached 1.4 as implemented by [`KvStore`]; an
/// alternative backend must reproduce them exactly (including the
/// corner cases: CAS tokens advance by one per successful store,
/// `add`/`replace`/`cas` store with flags 0, lazy expiry counts into
/// `expirations`/`expired_bytes`, and `delete` treats any TTL'd item as
/// expired). The differential proptest in `densekv-engine` enforces
/// this agreement over random command sequences.
pub trait StoreBackend {
    /// Fetches `key` and lends the hit (value, flags, CAS) if live — a
    /// GET's lookup, recency touch and counters, without copying the
    /// value out. `hash` is [`jenkins_oaat`]`(key)`: the caller that
    /// picked this store by it need not have it computed again.
    fn get_ref(&mut self, key: &[u8], hash: u64, now: u64) -> Option<HitRef<'_>>;

    /// [`StoreBackend::get_ref`] with the value copied out.
    fn get(&mut self, key: &[u8], now: u64) -> Option<GetHit> {
        self.get_ref(key, jenkins_oaat(key), now).map(|hit| {
            GetHit::new(
                hit.value.to_vec(),
                hit.flags,
                hit.cas,
                AccessTrace::default(),
            )
        })
    }

    /// Stores `key` → `value` with client flags and optional TTL.
    /// `hash` is [`jenkins_oaat`]`(key)`, as for
    /// [`StoreBackend::get_ref`].
    ///
    /// # Errors
    ///
    /// [`StoreError::KeyTooLong`], [`StoreError::ValueTooLarge`], or
    /// [`StoreError::OutOfMemory`] when eviction cannot make room.
    fn set_hashed(
        &mut self,
        key: &[u8],
        hash: u64,
        value: Vec<u8>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError>;

    /// [`StoreBackend::set_hashed`], hashing `key` itself.
    ///
    /// # Errors
    ///
    /// As for [`StoreBackend::set_hashed`].
    fn set_with_flags(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        self.set_hashed(key, jenkins_oaat(key), value, flags, ttl_secs, now)
    }

    /// Stores only if the key is absent (Memcached `add`).
    ///
    /// # Errors
    ///
    /// [`StoreError::Exists`] when the key is live, or any set error.
    fn add(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError>;

    /// Stores only if the key exists (Memcached `replace`).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the key is absent, or any set
    /// error.
    fn replace(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError>;

    /// Appends (or with `front`, prepends) to an existing value.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the key is absent, or any set
    /// error.
    fn concat(&mut self, key: &[u8], extra: &[u8], front: bool, now: u64)
        -> Result<(), StoreError>;

    /// Compare-and-swap against the item's current CAS token.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::CasMismatch`], or any
    /// set error.
    fn cas(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        cas: u64,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError>;

    /// Increments (or decrements, saturating at zero) a numeric value,
    /// returning the new value.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::NotNumeric`], or any set
    /// error.
    fn incr_decr(
        &mut self,
        key: &[u8],
        delta: u64,
        decrement: bool,
        now: u64,
    ) -> Result<u64, StoreError>;

    /// Updates a live item's TTL; `true` when the item existed.
    fn touch(&mut self, key: &[u8], ttl_secs: Option<u64>, now: u64) -> bool;

    /// Deletes `key`; `true` when it existed.
    fn delete(&mut self, key: &[u8]) -> bool;

    /// Drops every item (Memcached `flush_all`).
    fn flush_all(&mut self);

    /// Current counters (the `stats` verb).
    fn stats(&self) -> StoreStats;

    /// Live items.
    fn len(&self) -> u64;

    /// True when no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured memory budget.
    fn capacity_bytes(&self) -> u64;

    /// Backend-internal gauges for the `stats engine` verb: tier
    /// occupancy, bitmap fill, probe-length histogram… The model store
    /// has none (it answers `ERROR`, like Memcached for an unknown
    /// stats argument); a real engine overrides this.
    fn backend_stat_lines(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

impl StoreBackend for KvStore {
    fn get_ref(&mut self, key: &[u8], hash: u64, now: u64) -> Option<HitRef<'_>> {
        KvStore::get_ref(self, key, hash, now)
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
        self.set_untraced(key, hash, value, flags, ttl_secs, now)
    }

    fn add(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        KvStore::add(self, key, value, ttl_secs, now).map(|_| ())
    }

    fn replace(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        KvStore::replace(self, key, value, ttl_secs, now).map(|_| ())
    }

    fn concat(
        &mut self,
        key: &[u8],
        extra: &[u8],
        front: bool,
        now: u64,
    ) -> Result<(), StoreError> {
        KvStore::concat(self, key, extra, front, now).map(|_| ())
    }

    fn cas(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        cas: u64,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        KvStore::cas(self, key, value, cas, ttl_secs, now).map(|_| ())
    }

    fn incr_decr(
        &mut self,
        key: &[u8],
        delta: u64,
        decrement: bool,
        now: u64,
    ) -> Result<u64, StoreError> {
        KvStore::incr_decr(self, key, delta, decrement, now)
    }

    fn touch(&mut self, key: &[u8], ttl_secs: Option<u64>, now: u64) -> bool {
        KvStore::touch(self, key, ttl_secs, now)
    }

    fn delete(&mut self, key: &[u8]) -> bool {
        KvStore::delete(self, key).is_some()
    }

    fn flush_all(&mut self) {
        KvStore::flush_all(self);
    }

    fn stats(&self) -> StoreStats {
        KvStore::stats(self)
    }

    fn len(&self) -> u64 {
        KvStore::len(self)
    }

    fn capacity_bytes(&self) -> u64 {
        KvStore::capacity_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    fn backend() -> Box<dyn StoreBackend> {
        Box::new(KvStore::new(StoreConfig::with_capacity(8 << 20)))
    }

    #[test]
    fn kv_store_round_trips_through_the_trait() {
        let mut b = backend();
        b.set_with_flags(b"k", b"v".to_vec(), 7, None, 0).unwrap();
        let hit = b.get(b"k", 0).expect("stored");
        assert_eq!(hit.value(), b"v");
        assert_eq!(hit.flags(), 7);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(b.delete(b"k"));
        assert!(!b.delete(b"k"));
        assert!(b.is_empty());
    }

    #[test]
    fn trait_surface_covers_every_verb() {
        let mut b = backend();
        assert_eq!(b.add(b"k", b"one".to_vec(), None, 0), Ok(()));
        assert_eq!(
            b.add(b"k", b"two".to_vec(), None, 0),
            Err(StoreError::Exists)
        );
        assert_eq!(b.replace(b"k", b"three".to_vec(), None, 0), Ok(()));
        assert_eq!(b.concat(b"k", b"!", false, 0), Ok(()));
        assert_eq!(b.get(b"k", 0).unwrap().value(), b"three!");
        b.set_with_flags(b"n", b"5".to_vec(), 0, None, 0).unwrap();
        assert_eq!(b.incr_decr(b"n", 3, false, 0), Ok(8));
        assert!(b.touch(b"n", Some(60), 0));
        let cas = b.get(b"n", 0).unwrap().cas();
        assert_eq!(b.cas(b"n", b"9".to_vec(), cas, None, 0), Ok(()));
        assert_eq!(
            b.cas(b"n", b"10".to_vec(), cas, None, 0),
            Err(StoreError::CasMismatch)
        );
        b.flush_all();
        assert_eq!(b.stats().sets, 6);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn model_store_has_no_backend_stat_lines() {
        let b = backend();
        assert!(b.backend_stat_lines().is_empty());
        assert!(b.capacity_bytes() >= 8 << 20);
    }
}
