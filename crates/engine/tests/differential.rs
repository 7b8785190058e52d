//! Differential property test: the engine, the Memcached-model store,
//! and a plain `BTreeMap` reference implementation answer byte-identical
//! protocol responses to random command sequences.
//!
//! Every case drives the same commands through
//! [`densekv_kv::server::serve_buffer`] against all three backends and
//! compares the raw reply bytes — which covers values, flags, CAS
//! tokens, error wording, and the full `stats` counter block (so lazy
//! expiry, byte accounting, and CAS advancement must agree, not just
//! the happy path). Value sizes are chosen to cross every tier
//! boundary, including the 4 KB top tier into overflow.

use densekv_engine::Engine;
use densekv_kv::backend::ItemRef;
use densekv_kv::server::serve_buffer;
use densekv_kv::store::{
    HitRef, KvStore, StoreConfig, StoreError, StoreStats, ITEM_HEADER_BYTES,
    MAX_ITEM_FOOTPRINT_BYTES, MAX_KEY_BYTES,
};
use densekv_kv::StoreBackend;
use std::collections::BTreeMap;

/// Budget large enough that no backend ever hits memory pressure —
/// eviction order is layout-dependent and deliberately out of scope
/// here (the engine's own tests cover it).
const BUDGET: u64 = 64 << 20;

/// A deliberately naive third implementation: a `BTreeMap` with the
/// Memcached 1.4 bookkeeping spelled out longhand. Where the model
/// store and the engine could share a structural bug, this one cannot.
#[derive(Default)]
struct RefStore {
    map: BTreeMap<Vec<u8>, RefItem>,
    stats: StoreStats,
    next_cas: u64,
}

struct RefItem {
    value: Vec<u8>,
    flags: u32,
    expires_at: Option<u64>,
    cas: u64,
}

impl RefItem {
    fn footprint(&self, key: &[u8]) -> u64 {
        ITEM_HEADER_BYTES + key.len() as u64 + self.value.len() as u64
    }
}

impl RefStore {
    fn new() -> Self {
        RefStore {
            next_cas: 1,
            ..RefStore::default()
        }
    }

    /// Lazy expiry at lookup time, mirroring the model store's
    /// `lookup`: an expired match is removed and counted, then reads as
    /// absent.
    fn expire(&mut self, key: &[u8], now: u64) {
        let expired = self
            .map
            .get(key)
            .is_some_and(|item| item.expires_at.is_some_and(|t| t <= now));
        if expired {
            let item = self.map.remove(key).expect("just matched");
            self.stats.expirations += 1;
            self.stats.expired_bytes += item.footprint(key);
            self.stats.items -= 1;
            self.stats.bytes -= item.footprint(key);
        }
    }

    fn remove_live(&mut self, key: &[u8]) {
        if let Some(item) = self.map.remove(key) {
            self.stats.items -= 1;
            self.stats.bytes -= item.footprint(key);
        }
    }

    fn store(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        if key.len() > MAX_KEY_BYTES {
            return Err(StoreError::KeyTooLong { len: key.len() });
        }
        self.expire(key, now);
        // The old copy dies before the size check, as in both real
        // backends: a failed oversized store destroys the existing item.
        self.remove_live(key);
        let footprint = ITEM_HEADER_BYTES + key.len() as u64 + value.len() as u64;
        if footprint > MAX_ITEM_FOOTPRINT_BYTES {
            return Err(StoreError::ValueTooLarge { bytes: footprint });
        }
        let item = RefItem {
            flags,
            expires_at: ttl_secs.map(|t| now + t),
            cas: self.next_cas,
            value,
        };
        self.next_cas += 1;
        self.stats.items += 1;
        self.stats.bytes += item.footprint(key);
        self.stats.sets += 1;
        self.stats.bytes_written += item.value.len() as u64;
        self.map.insert(key.to_vec(), item);
        Ok(())
    }
}

impl StoreBackend for RefStore {
    fn get_ref(&mut self, key: &[u8], _hash: u64, now: u64) -> Option<HitRef<'_>> {
        self.expire(key, now);
        match self.map.get(key) {
            Some(item) => {
                self.stats.get_hits += 1;
                self.stats.bytes_read += item.value.len() as u64;
                Some(HitRef {
                    value: &item.value,
                    flags: item.flags,
                    cas: item.cas,
                })
            }
            None => {
                self.stats.get_misses += 1;
                None
            }
        }
    }

    fn peek(&mut self, key: &[u8], _hash: u64, now: u64) -> Option<ItemRef<'_>> {
        self.expire(key, now);
        self.map.get(key).map(|item| ItemRef {
            value: &item.value,
            flags: item.flags,
            cas: item.cas,
            expires_at: item.expires_at,
        })
    }

    fn set_hashed(
        &mut self,
        key: &[u8],
        _hash: u64,
        value: Vec<u8>,
        flags: u32,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        self.store(key, value, flags, ttl_secs, now)
    }

    // The verbs the trait provides, spelled out longhand again so the
    // reference does not share their one body with the real backends.

    fn add(
        &mut self,
        key: &[u8],
        _hash: u64,
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        self.expire(key, now);
        if self.map.contains_key(key) {
            return Err(StoreError::Exists);
        }
        self.store(key, value, 0, ttl_secs, now)
    }

    fn replace(
        &mut self,
        key: &[u8],
        _hash: u64,
        value: Vec<u8>,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        self.expire(key, now);
        if !self.map.contains_key(key) {
            return Err(StoreError::NotFound);
        }
        self.store(key, value, 0, ttl_secs, now)
    }

    fn concat(
        &mut self,
        key: &[u8],
        _hash: u64,
        extra: &[u8],
        front: bool,
        now: u64,
    ) -> Result<(), StoreError> {
        self.expire(key, now);
        let Some(item) = self.map.get(key) else {
            return Err(StoreError::NotFound);
        };
        let (flags, expires_at) = (item.flags, item.expires_at);
        let mut value = item.value.clone();
        if front {
            let mut combined = extra.to_vec();
            combined.extend_from_slice(&value);
            value = combined;
        } else {
            value.extend_from_slice(extra);
        }
        let ttl = expires_at.map(|t| t.saturating_sub(now));
        self.store(key, value, flags, ttl, now)
    }

    fn cas(
        &mut self,
        key: &[u8],
        _hash: u64,
        value: Vec<u8>,
        cas: u64,
        ttl_secs: Option<u64>,
        now: u64,
    ) -> Result<(), StoreError> {
        self.expire(key, now);
        let Some(item) = self.map.get(key) else {
            return Err(StoreError::NotFound);
        };
        if item.cas != cas {
            return Err(StoreError::CasMismatch);
        }
        self.store(key, value, 0, ttl_secs, now)
    }

    fn incr_decr(
        &mut self,
        key: &[u8],
        _hash: u64,
        delta: u64,
        decrement: bool,
        now: u64,
    ) -> Result<u64, StoreError> {
        self.expire(key, now);
        let Some(item) = self.map.get(key) else {
            return Err(StoreError::NotFound);
        };
        let text = std::str::from_utf8(&item.value).map_err(|_| StoreError::NotNumeric)?;
        let n: u64 = text.trim().parse().map_err(|_| StoreError::NotNumeric)?;
        let next = if decrement {
            n.saturating_sub(delta)
        } else {
            n.wrapping_add(delta)
        };
        let (flags, expires_at) = (item.flags, item.expires_at);
        let ttl = expires_at.map(|t| t.saturating_sub(now));
        self.store(key, next.to_string().into_bytes(), flags, ttl, now)?;
        Ok(next)
    }

    fn touch(&mut self, key: &[u8], _hash: u64, ttl_secs: Option<u64>, now: u64) -> bool {
        self.expire(key, now);
        match self.map.get_mut(key) {
            Some(item) => {
                item.expires_at = ttl_secs.map(|t| now + t);
                self.stats.touches += 1;
                true
            }
            None => false,
        }
    }

    fn delete(&mut self, key: &[u8], _hash: u64, now: u64) -> bool {
        self.expire(key, now);
        match self.map.remove(key) {
            Some(item) => {
                self.stats.items -= 1;
                self.stats.bytes -= item.footprint(key);
                self.stats.deletes += 1;
                true
            }
            None => false,
        }
    }

    fn flush_all(&mut self) {
        self.map.clear();
        self.stats.items = 0;
        self.stats.bytes = 0;
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn len(&self) -> u64 {
        self.stats.items
    }

    fn capacity_bytes(&self) -> u64 {
        BUDGET
    }
}

/// Value lengths straddling every tier boundary (32 B … 4 KB) plus the
/// overflow crossover.
const SIZES: [usize; 14] = [
    0, 1, 31, 32, 33, 63, 64, 100, 511, 512, 4095, 4096, 4097, 6000,
];

/// A small key pool so commands collide and interact.
fn key(idx: u8) -> String {
    format!("key{:02}", idx % 16)
}

/// One protocol command as raw bytes.
fn command(kind: u8, k: u8, size: u8, fill: u8, ttl: u8, num: u8) -> Vec<u8> {
    let key = key(k);
    let n = SIZES[size as usize % SIZES.len()];
    let body = vec![b'a' + (fill % 26); n];
    let flags = u32::from(fill) % 100;
    let exptime = u64::from(ttl % 4); // 0 = immortal in the protocol
    let payload = |verb: &str| {
        let mut out = format!("{verb} {key} {flags} {exptime} {n}\r\n").into_bytes();
        out.extend_from_slice(&body);
        out.extend_from_slice(b"\r\n");
        out
    };
    match kind % 14 {
        0 | 1 => payload("set"),
        2 => payload("add"),
        3 => payload("replace"),
        4 => {
            let mut out = format!("append {key} 0 0 {n}\r\n").into_bytes();
            out.extend_from_slice(&body);
            out.extend_from_slice(b"\r\n");
            out
        }
        5 => {
            let mut out = format!("prepend {key} 0 0 {n}\r\n").into_bytes();
            out.extend_from_slice(&body);
            out.extend_from_slice(b"\r\n");
            out
        }
        6 => {
            // CAS tokens advance in lockstep across backends, so a
            // guess in the recent-token range hits or misses in
            // lockstep too.
            let guess = u64::from(num) % 64;
            let mut out = format!("cas {key} {flags} {exptime} {n} {guess}\r\n").into_bytes();
            out.extend_from_slice(&body);
            out.extend_from_slice(b"\r\n");
            out
        }
        7 => format!("get {key}\r\n").into_bytes(),
        8 => format!("gets {key}\r\n").into_bytes(),
        9 => format!("delete {key}\r\n").into_bytes(),
        10 => format!("incr {key} {}\r\n", u64::from(num) * 7).into_bytes(),
        11 => format!("decr {key} {}\r\n", u64::from(num) * 3).into_bytes(),
        12 => format!("touch {key} {exptime}\r\n").into_bytes(),
        _ => {
            // Keep the expensive global verbs rare but present.
            if num.is_multiple_of(11) {
                b"flush_all\r\n".to_vec()
            } else {
                b"stats\r\n".to_vec()
            }
        }
    }
}

/// One random op as drawn by the proptest strategies below.
type Op = ((u8, u8, u8), (u8, u8, u8), u64);

/// Drives `ops` through all three backends, comparing the raw reply
/// bytes op by op. `initial_buckets` sizes the engine's (and model's)
/// starting bucket table, so a tiny value forces the doubling path.
fn assert_backends_agree(ops: &[Op], initial_buckets: u64) {
    let config = StoreConfig {
        initial_buckets,
        ..StoreConfig::with_capacity(BUDGET)
    };
    let mut engine = Engine::new(config.clone());
    let mut model = KvStore::new(config);
    let mut reference = RefStore::new();
    let mut now = 0u64;
    for (i, &((kind, k, size), (fill, ttl, num), dt)) in ops.iter().enumerate() {
        now += dt; // the clock only moves forward
        let input = command(kind, k, size, fill, ttl, num);
        let from_engine = serve_buffer(&mut engine, &input, now);
        let from_model = serve_buffer(&mut model, &input, now);
        let from_reference = serve_buffer(&mut reference, &input, now);
        proptest::prop_assert_eq!(
            String::from_utf8_lossy(&from_engine),
            String::from_utf8_lossy(&from_model),
            "engine vs model diverged at op {} of {:?}",
            i,
            String::from_utf8_lossy(&input).lines().next().unwrap_or("")
        );
        proptest::prop_assert_eq!(
            String::from_utf8_lossy(&from_model),
            String::from_utf8_lossy(&from_reference),
            "model vs reference diverged at op {} of {:?}",
            i,
            String::from_utf8_lossy(&input).lines().next().unwrap_or("")
        );
    }
    // Final state agrees too, not just the observable stream.
    proptest::prop_assert_eq!(engine.len(), model.len());
    proptest::prop_assert_eq!(engine.stats(), reference.stats());
}

/// `append` and `prepend` that push an item one byte past
/// `MAX_ITEM_FOOTPRINT_BYTES`, which the random sequences never reach:
/// every backend answers `SERVER_ERROR object too large for cache` and
/// renders the same `stats` block. All three remove the old item before
/// the size check, so the key reads absent afterwards; this pins that
/// ordering as it stands, it does not endorse it.
#[test]
fn concat_past_the_size_cap_fails_alike() {
    let largest = (MAX_ITEM_FOOTPRINT_BYTES - ITEM_HEADER_BYTES) as usize - "big".len();
    let mut input = Vec::new();
    for verb in ["append", "prepend"] {
        input.extend_from_slice(format!("set big 3 0 {largest}\r\n").as_bytes());
        input.extend(std::iter::repeat_n(b'B', largest));
        input.extend_from_slice(format!("\r\n{verb} big 0 0 1\r\n!\r\nget big\r\n").as_bytes());
    }
    input.extend_from_slice(b"stats\r\n");
    let config = StoreConfig::with_capacity(BUDGET);
    let replies = [
        serve_buffer(&mut Engine::new(config.clone()), &input, 0),
        serve_buffer(&mut KvStore::new(config), &input, 0),
        serve_buffer(&mut RefStore::new(), &input, 0),
    ];
    let text = String::from_utf8_lossy(&replies[1]);
    let refused = "STORED\r\nSERVER_ERROR object too large for cache\r\nEND\r\n";
    assert!(text.starts_with(&refused.repeat(2)), "{text}");
    for stat in ["cmd_set 2", "get_misses 2", "curr_items 0", "bytes 0"] {
        assert!(text.contains(&format!("STAT {stat}\r\n")), "{stat}: {text}");
    }
    assert_eq!(replies[0], replies[1], "engine vs model");
    assert_eq!(replies[1], replies[2], "model vs reference");
}

/// The op-sequence strategy shared by both differential properties.
fn ops_strategy() -> impl proptest::Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            (
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
            ),
            (
                proptest::any::<u8>(),
                proptest::any::<u8>(),
                proptest::any::<u8>(),
            ),
            0u64..3,
        ),
        1..120,
    )
}

proptest::proptest! {
    /// Random command sequences produce byte-identical protocol output
    /// on all three backends, including the `stats` counter block.
    #[test]
    fn backends_agree_on_protocol_output(ops in ops_strategy()) {
        assert_backends_agree(&ops, StoreConfig::default().initial_buckets);
    }

    /// The same property starting from an 8-bucket table, so random
    /// sequences cross the bucket-doubling threshold — the insert that
    /// triggers a doubling, followed by deletes and re-lookups, is
    /// exactly where a duplicate bucket entry would diverge (or panic).
    #[test]
    fn backends_agree_across_bucket_doubling(ops in ops_strategy()) {
        assert_backends_agree(&ops, 8);
    }
}
