//! The storage-backend abstraction: one protocol loop, many engines.
//!
//! [`crate::server::execute`] dispatches parsed commands through
//! [`StoreBackend`] rather than a concrete store, so the same command
//! loop (and everything stacked on it: [`crate::server::serve_buffer`],
//! the sharded TCP front-end, the load generators) runs over either the
//! Memcached-model [`crate::store::KvStore`] or a real engine such as
//! `densekv-engine`'s tiered fixed-page store. The trait captures
//! exactly the operations the protocol needs — observable responses,
//! not layout — which is what lets a differential test pin two
//! implementations against each other byte for byte.

use crate::hash::jenkins_oaat;
use crate::store::{AccessTrace, GetHit, HitRef, StoreError, StoreStats};

/// A live item as [`StoreBackend::peek`] lends it: what the conditional
/// and derived verbs read, valid until the store is next touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemRef<'a> {
    /// The value bytes.
    pub value: &'a [u8],
    /// The client-opaque flags stored with the item.
    pub flags: u32,
    /// The CAS token.
    pub cas: u64,
    /// Absolute expiry in seconds; `None` = immortal.
    pub expires_at: Option<u64>,
}

impl ItemRef<'_> {
    /// The TTL that keeps the item's expiry when it is stored again at
    /// `now`.
    fn ttl_at(&self, now: u64) -> Option<u64> {
        self.expires_at.map(|t| t.saturating_sub(now))
    }
}

/// The store operations the protocol loop dispatches.
///
/// Semantics follow Memcached 1.4. A backend implements the primitives:
/// [`get_ref`](Self::get_ref), [`peek`](Self::peek),
/// [`set_hashed`](Self::set_hashed), [`touch`](Self::touch),
/// [`delete`](Self::delete), [`flush_all`](Self::flush_all),
/// [`stats`](Self::stats), [`len`](Self::len) and
/// [`capacity_bytes`](Self::capacity_bytes). Every lookup among them
/// expires a stale item lazily, counting it into `expirations` and
/// `expired_bytes`, and every successful store advances the CAS token
/// by one. The verbs [`add`](Self::add), [`replace`](Self::replace),
/// [`cas`](Self::cas), [`concat`](Self::concat) (`append`/`prepend`)
/// and [`incr_decr`](Self::incr_decr) are written once here, over
/// `peek` and `set_hashed`: a conditional store looks its key up twice,
/// `add`/`replace`/`cas` store with flags 0, and `concat`/`incr_decr`
/// keep the item's flags and remaining TTL. Every `hash` argument is
/// [`jenkins_oaat`]`(key)`, which the caller that picked this store by
/// it already has. The differential proptest in `densekv-engine` holds
/// the backends to byte-identical protocol output.
pub trait StoreBackend {
    /// Fetches `key` and lends the hit (value, flags, CAS) if live — a
    /// GET's lookup, recency touch and counters, without copying the
    /// value out.
    fn get_ref(&mut self, key: &[u8], hash: u64, now: u64) -> Option<HitRef<'_>>;

    /// Looks `key` up for a verb that reads before it writes: expires
    /// a stale item, but touches no GET counter and no recency.
    fn peek(&mut self, key: &[u8], hash: u64, now: u64) -> Option<ItemRef<'_>>;

    /// Stores `key` → `value` with client flags and optional TTL.
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

    /// Updates a live item's TTL; `true` when the item existed.
    fn touch(&mut self, key: &[u8], hash: u64, ttl_secs: Option<u64>, now: u64) -> bool;

    /// Deletes `key` if it is live at `now`; `true` when it was.
    fn delete(&mut self, key: &[u8], hash: u64, now: u64) -> bool;

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
        hash: u64,
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        if self.peek(key, hash, now).is_some() {
            return Err(StoreError::Exists);
        }
        self.set_hashed(key, hash, value, 0, ttl_secs, now)
    }

    /// Stores only if the key exists (Memcached `replace`).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the key is absent, or any set
    /// error.
    fn replace(
        &mut self,
        key: &[u8],
        hash: u64,
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        if self.peek(key, hash, now).is_none() {
            return Err(StoreError::NotFound);
        }
        self.set_hashed(key, hash, value, 0, ttl_secs, now)
    }

    /// Compare-and-swap against the item's current CAS token.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::CasMismatch`], or any
    /// set error.
    fn cas(
        &mut self,
        key: &[u8],
        hash: u64,
        value: Vec<u8>,
        cas: u64,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        let item = self.peek(key, hash, now).ok_or(StoreError::NotFound)?;
        if item.cas != cas {
            return Err(StoreError::CasMismatch);
        }
        self.set_hashed(key, hash, value, 0, ttl_secs, now)
    }

    /// Appends (or with `front`, prepends) to an existing value.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when the key is absent, or any set
    /// error.
    fn concat(
        &mut self,
        key: &[u8],
        hash: u64,
        extra: &[u8],
        front: bool,
        now: u64,
    ) -> Result<(), StoreError> {
        let item = self.peek(key, hash, now).ok_or(StoreError::NotFound)?;
        let value = if front {
            [extra, item.value].concat()
        } else {
            [item.value, extra].concat()
        };
        let (flags, ttl) = (item.flags, item.ttl_at(now));
        self.set_hashed(key, hash, value, flags, ttl, now)
    }

    /// Increments (wrapping) or decrements (saturating at zero) a value
    /// that is an unsigned decimal, returning the new value.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`], [`StoreError::NotNumeric`], or any set
    /// error.
    fn incr_decr(
        &mut self,
        key: &[u8],
        hash: u64,
        delta: u64,
        decrement: bool,
        now: u64,
    ) -> Result<u64, StoreError> {
        let item = self.peek(key, hash, now).ok_or(StoreError::NotFound)?;
        let current: u64 = std::str::from_utf8(item.value)
            .ok()
            .and_then(|text| text.trim().parse().ok())
            .ok_or(StoreError::NotNumeric)?;
        let next = if decrement {
            current.saturating_sub(delta)
        } else {
            current.wrapping_add(delta)
        };
        let (flags, ttl) = (item.flags, item.ttl_at(now));
        self.set_hashed(key, hash, next.to_string().into_bytes(), flags, ttl, now)?;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{KvStore, StoreConfig};

    fn backend() -> Box<dyn StoreBackend> {
        Box::new(KvStore::new(StoreConfig::with_capacity(8 << 20)))
    }

    #[test]
    fn kv_store_round_trips_through_the_trait() {
        let mut b = backend();
        let k = jenkins_oaat(b"k");
        b.set_with_flags(b"k", b"v".to_vec(), 7, None, 0).unwrap();
        let hit = b.get(b"k", 0).expect("stored");
        assert_eq!(hit.value(), b"v");
        assert_eq!(hit.flags(), 7);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(b.delete(b"k", k, 0));
        assert!(!b.delete(b"k", k, 0));
        assert!(b.is_empty());
    }

    #[test]
    fn trait_surface_covers_every_verb() {
        let mut b = backend();
        let (k, n) = (jenkins_oaat(b"k"), jenkins_oaat(b"n"));
        assert_eq!(b.add(b"k", k, b"one".to_vec(), None, 0), Ok(()));
        assert_eq!(
            b.add(b"k", k, b"two".to_vec(), None, 0),
            Err(StoreError::Exists)
        );
        assert_eq!(b.replace(b"k", k, b"three".to_vec(), None, 0), Ok(()));
        assert_eq!(b.concat(b"k", k, b"!", false, 0), Ok(()));
        assert_eq!(b.get(b"k", 0).unwrap().value(), b"three!");
        b.set_with_flags(b"n", b"5".to_vec(), 0, None, 0).unwrap();
        assert_eq!(b.incr_decr(b"n", n, 3, false, 0), Ok(8));
        assert!(b.touch(b"n", n, Some(60), 0));
        let cas = b.get(b"n", 0).unwrap().cas();
        assert_eq!(b.cas(b"n", n, b"9".to_vec(), cas, None, 0), Ok(()));
        assert_eq!(
            b.cas(b"n", n, b"10".to_vec(), cas, None, 0),
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
