//! The shared store behind the front-end: the hash space striped over
//! independently locked stores.
//!
//! Full protocol requests run through [`densekv_kv::server::execute`],
//! so every verb `serve_buffer` answers over one store works over a
//! real socket too. One shard reproduces Memcached 1.4's global cache
//! lock; many shards are the 1.6-style striped design whose contention
//! difference the paper's §3.6 (and Table 4's "Bags" row) turns on. The
//! `lock_scaling` subcommand of `densekv-bench` measures that difference on
//! this type through [`ShardedStore::with_shard`].

use bytes::BytesMut;
use parking_lot::Mutex;

use std::time::{Duration, Instant};

use densekv_engine::Engine;
use densekv_kv::hash::jenkins_oaat;
use densekv_kv::protocol::{Command, Request};
use densekv_kv::server::{Clock, Disposition, Stores};
use densekv_kv::store::{KvStore, StoreConfig, StoreStats};
use densekv_kv::StoreBackend;

use crate::metrics::ServeMetrics;

/// Which store implementation sits behind every shard lock.
///
/// The model [`KvStore`] is the simulator-faithful reference; the
/// [`Engine`] is the bricksKV-style tiered fixed-page engine whose
/// protocol behaviour the differential tests pin to the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// The model store (`densekv_kv::store::KvStore`), the default.
    #[default]
    Model,
    /// The real tiered-page engine (`densekv_engine::Engine`).
    Engine,
}

impl BackendKind {
    /// Parses a backend name (`model` or `engine`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "model" => Some(BackendKind::Model),
            "engine" => Some(BackendKind::Engine),
            _ => None,
        }
    }

    /// The backend selected by `DENSEKV_SERVE_BACKEND`, defaulting to
    /// the model store when unset or unrecognised.
    #[must_use]
    pub fn from_env() -> Self {
        std::env::var("DENSEKV_SERVE_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .unwrap_or_default()
    }

    /// The backend's canonical name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BackendKind::Model => "model",
            BackendKind::Engine => "engine",
        }
    }

    /// Builds one store of this kind over `config`.
    #[must_use]
    pub fn build(self, config: StoreConfig) -> Box<dyn StoreBackend + Send> {
        match self {
            BackendKind::Model => Box::new(KvStore::new(config)),
            BackendKind::Engine => Box::new(Engine::new(config)),
        }
    }
}

/// Wall time one dispatched command spent on shard locks: how long the
/// worker waited to acquire them and how long it held them. Multi-key
/// GETs accumulate across every shard they visit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// Total lock acquisition wait.
    pub(crate) lock_wait: Duration,
    /// Total time holding shard locks (store work).
    pub hold: Duration,
}

/// Told about every shard lock a command takes for its key.
pub(crate) trait LockObserver {
    /// Shard `shard`'s lock was held from `acquired` to `released`
    /// after waiting `wait` for it. `contended` is whether `try_lock`
    /// lost; when it won, nothing was waited for and `wait` is zero.
    fn held(
        &mut self,
        shard: usize,
        wait: Duration,
        acquired: Instant,
        released: Instant,
        contended: bool,
    );
}

/// Records straight into the shared plane, one command at a time.
struct Direct<'a> {
    metrics: &'a ServeMetrics,
    timing: ShardTiming,
}

impl LockObserver for Direct<'_> {
    fn held(
        &mut self,
        shard: usize,
        wait: Duration,
        acquired: Instant,
        released: Instant,
        contended: bool,
    ) {
        let hold = released - acquired;
        self.metrics.record_shard(shard, wait, hold, contended);
        self.timing.lock_wait += wait;
        self.timing.hold += hold;
    }
}

/// The shards as the command body reaches them: a key's store is the
/// shard its hash picks, under that shard's lock.
struct Locked<'s, 'o> {
    store: &'s ShardedStore,
    observer: Option<&'o mut dyn LockObserver>,
}

impl Stores for Locked<'_, '_> {
    fn with_store<R>(&mut self, key: &[u8], f: impl FnOnce(&mut dyn StoreBackend, u64) -> R) -> R {
        let Some(observer) = self.observer.as_deref_mut() else {
            return self.store.with_shard(key, f);
        };
        let (hash, idx) = self.store.shard_of(key);
        let shard = &self.store.shards[idx];
        // The clock is read for the wait only when there is one.
        let (mut guard, blocked_at) = match shard.try_lock() {
            Some(guard) => (guard, None),
            None => {
                let blocked_at = Instant::now();
                (shard.lock(), Some(blocked_at))
            }
        };
        let acquired = Instant::now();
        let result = f(&mut **guard, hash);
        drop(guard);
        let released = Instant::now();
        let wait = blocked_at.map_or(Duration::ZERO, |t| acquired - t);
        observer.held(idx, wait, acquired, released, blocked_at.is_some());
        result
    }

    fn flush_all(&mut self) {
        for shard in &self.store.shards {
            shard.lock().flush_all();
        }
    }

    fn stats(&mut self) -> StoreStats {
        self.store.stats()
    }

    fn backend_stat_lines(&mut self) -> Vec<(String, u64)> {
        self.store.backend_stat_lines()
    }
}

/// A thread-safe store sharded across independently locked stores of
/// one [`BackendKind`].
///
/// # Examples
///
/// ```
/// use bytes::BytesMut;
/// use densekv_kv::protocol::{parse_command, Parsed};
/// use densekv_kv::server::FixedClock;
/// use densekv_kv::store::StoreConfig;
/// use densekv_serve::ShardedStore;
///
/// let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
/// let mut buf = BytesMut::from(&b"set k 0 0 2\r\nhi\r\n"[..]);
/// let Ok(Parsed::Complete(cmd)) = parse_command(&mut buf) else {
///     panic!("complete command");
/// };
/// let mut out = BytesMut::new();
/// store.dispatch(cmd, &FixedClock(0), &mut out);
/// assert_eq!(&out[..], b"STORED\r\n");
/// ```
pub struct ShardedStore {
    shards: Vec<Mutex<Box<dyn StoreBackend + Send>>>,
    backend: BackendKind,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("backend", &self.backend)
            .finish()
    }
}

impl ShardedStore {
    /// Creates `shards` independent model stores splitting
    /// `config.memory_bytes` evenly, the remainder to shard 0.
    /// `shards == 1` is the global-lock (Memcached 1.4) design.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new(config: StoreConfig, shards: usize) -> Self {
        ShardedStore::new_with_backend(config, shards, BackendKind::Model)
    }

    /// Like [`ShardedStore::new`], but choosing the store implementation
    /// behind every shard lock.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn new_with_backend(config: StoreConfig, shards: usize, backend: BackendKind) -> Self {
        assert!(shards > 0, "need at least one shard");
        let per_shard = config.memory_bytes / shards as u64;
        let remainder = config.memory_bytes % shards as u64;
        ShardedStore {
            shards: (0..shards)
                .map(|i| {
                    let memory_bytes = per_shard + if i == 0 { remainder } else { 0 };
                    Mutex::new(backend.build(StoreConfig {
                        memory_bytes,
                        ..config.clone()
                    }))
                })
                .collect(),
            backend,
        }
    }

    /// `key`'s hash and the shard it picks. The upper hash bits choose
    /// the shard, so the choice stays independent of the per-shard
    /// bucket index (low bits).
    fn shard_of(&self, key: &[u8]) -> (u64, usize) {
        let hash = jenkins_oaat(key);
        (hash, (hash >> 32) as usize % self.shards.len())
    }

    /// Runs `f` on `key`'s shard under its lock, passing the key's hash
    /// ([`densekv_kv::hash::jenkins_oaat`]) for the store's `*_ref` /
    /// `*_hashed` calls. The request path reaches a store the same way.
    pub fn with_shard<R>(&self, key: &[u8], f: impl FnOnce(&mut dyn StoreBackend, u64) -> R) -> R {
        let (hash, idx) = self.shard_of(key);
        f(&mut **self.shards[idx].lock(), hash)
    }

    /// Number of lock stripes.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The store implementation behind the shard locks.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Executes one request at time `now`, appending any response to
    /// `out` — [`densekv_kv::server::execute`], the one command body,
    /// over the shards.
    ///
    /// Single-key commands lock exactly their key's shard. Multi-key
    /// GETs lock one shard at a time (no deadlock possible: at most one
    /// lock is ever held). `stats` and `flush_all` visit every shard;
    /// `version` and `quit` none. `observer` hears of each per-key lock,
    /// timed; without one no clock is read. The whole-store verbs are
    /// never reported: they visit every shard and would swamp the
    /// per-request lock accounting an observer is after.
    pub(crate) fn execute(
        &self,
        request: Request<'_>,
        now: u64,
        out: &mut BytesMut,
        observer: Option<&mut dyn LockObserver>,
    ) -> Disposition {
        let mut shards = Locked {
            store: self,
            observer,
        };
        densekv_kv::server::execute(&mut shards, request, now, out)
    }

    /// `ShardedStore::execute` for an owned command at the clock's
    /// current time, unobserved.
    pub fn dispatch(&self, command: Command, clock: &dyn Clock, out: &mut BytesMut) -> Disposition {
        self.execute(command.as_request(), clock.now_secs(), out, None)
    }

    /// Like [`ShardedStore::dispatch`], but measuring shard-lock wait
    /// and hold wall time into `metrics` (per shard) and the returned
    /// [`ShardTiming`] (per request).
    pub fn dispatch_timed(
        &self,
        command: Command,
        clock: &dyn Clock,
        out: &mut BytesMut,
        metrics: &ServeMetrics,
    ) -> (Disposition, ShardTiming) {
        let mut direct = Direct {
            metrics,
            timing: ShardTiming::default(),
        };
        let disposition = self.execute(
            command.as_request(),
            clock.now_secs(),
            out,
            Some(&mut direct),
        );
        (disposition, direct.timing)
    }

    /// Counters summed across shards (rendered by the `stats` verb).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats();
            total.get_hits += s.get_hits;
            total.get_misses += s.get_misses;
            total.sets += s.sets;
            total.deletes += s.deletes;
            total.touches += s.touches;
            total.evictions += s.evictions;
            total.expirations += s.expirations;
            total.items += s.items;
            total.bytes += s.bytes;
            total.bytes_read += s.bytes_read;
            total.bytes_written += s.bytes_written;
            total.expired_bytes += s.expired_bytes;
        }
        total
    }

    /// Each shard's counters separately (the `stats shards` view).
    #[must_use]
    pub(crate) fn shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(|s| s.lock().stats()).collect()
    }

    /// Backend-internal gauges merged across shards by summing lines
    /// with matching names (every shard runs the same backend, so the
    /// line sets agree). Ratio lines don't sum — `*_fill_pct` is
    /// recomputed from the merged `*_used_pages` / `*_total_pages`
    /// totals. Empty under the model store, which exposes no
    /// internals: `stats engine` then answers `ERROR`.
    #[must_use]
    pub fn backend_stat_lines(&self) -> Vec<(String, u64)> {
        let mut merged: Vec<(String, u64)> = Vec::new();
        for shard in &self.shards {
            for (name, value) in shard.lock().backend_stat_lines() {
                match merged.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, total)) => *total += value,
                    None => merged.push((name, value)),
                }
            }
        }
        let find = |merged: &[(String, u64)], name: &str| {
            merged.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
        };
        for i in 0..merged.len() {
            let Some(prefix) = merged[i].0.strip_suffix("_fill_pct") else {
                continue;
            };
            let used = find(&merged, &format!("{prefix}_used_pages"));
            let total = find(&merged, &format!("{prefix}_total_pages"));
            if let (Some(used), Some(total)) = (used, total) {
                merged[i].1 = (used * 100).checked_div(total).unwrap_or(0);
            }
        }
        merged
    }

    /// Total live items across shards.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no items are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_kv::protocol::{parse_command, Parsed};
    use densekv_kv::server::{drain, FixedClock};

    fn run(store: &ShardedStore, input: &[u8], now: u64) -> String {
        let mut out = BytesMut::new();
        drain(input, &mut out, usize::MAX, |request, out| {
            store.execute(request.expect("well-formed"), now, out, None)
        });
        String::from_utf8(out.to_vec()).expect("ascii")
    }

    #[test]
    fn sharded_dispatch_matches_single_store_semantics() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        let out = run(
            &store,
            b"set k 0 0 3\r\nfoo\r\nadd k 0 0 3\r\nbar\r\nget k\r\nset n 0 0 1\r\n5\r\nincr n 10\r\ndelete k\r\n",
            0,
        );
        assert_eq!(
            out,
            "STORED\r\nNOT_STORED\r\nVALUE k 0 3\r\nfoo\r\nEND\r\n\
             STORED\r\n15\r\nDELETED\r\n"
        );
    }

    #[test]
    fn multi_key_get_spans_shards() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 8);
        for i in 0..32u32 {
            run(
                &store,
                format!("set key{i} 0 0 2\r\nv{}\r\n", i % 10).as_bytes(),
                0,
            );
        }
        let out = run(&store, b"get key0 key7 key21 missing\r\n", 0);
        assert!(out.contains("VALUE key0"));
        assert!(out.contains("VALUE key7"));
        assert!(out.contains("VALUE key21"));
        assert!(!out.contains("missing"));
        assert!(out.ends_with("END\r\n"));
    }

    #[test]
    fn stats_and_flush_cover_every_shard() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 8);
        for i in 0..800u32 {
            run(&store, format!("set key{i} 0 0 1\r\nx\r\n").as_bytes(), 0);
        }
        assert_eq!(store.len(), 800);
        // The upper hash bits spread keys over every shard.
        for (i, shard) in store.shard_stats().iter().enumerate() {
            assert!(
                shard.items > 40,
                "shard {i} got only {} of 800 keys",
                shard.items
            );
        }
        let out = run(&store, b"stats\r\n", 0);
        assert!(out.contains("STAT cmd_set 800"));
        assert!(out.contains("STAT curr_items 800"));
        assert_eq!(run(&store, b"flush_all\r\n", 0), "OK\r\n");
        assert!(store.is_empty());
    }

    #[test]
    fn expiry_follows_the_clock_across_shards() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        for i in 0..8u32 {
            run(&store, format!("set key{i} 0 5 1\r\nx\r\n").as_bytes(), 100);
        }
        assert!(run(&store, b"get key0 key5\r\n", 104).contains("VALUE"));
        assert_eq!(run(&store, b"get key0 key5\r\n", 200), "END\r\n");
    }

    #[test]
    fn single_shard_is_the_global_lock_design() {
        let store = ShardedStore::new(StoreConfig::with_capacity(8 << 20), 1);
        assert_eq!(store.shard_count(), 1);
        assert_eq!(run(&store, b"set k 0 0 1\r\nx\r\n", 0), "STORED\r\n");
        assert!(run(&store, b"quit\r\n", 0).is_empty());
    }

    #[test]
    fn stats_subcommands_and_metrics_at_store_layer() {
        let store = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 2);
        run(&store, b"set k 0 0 2\r\nhi\r\n", 0);
        // Sub-commands need the serving layer's plane; here they ERROR.
        assert_eq!(run(&store, b"stats latency\r\n", 0), "ERROR\r\n");
        // The metrics verb renders store counters even without a plane.
        let out = run(&store, b"metrics\r\n", 0);
        assert!(out.contains("densekv_store_cmd_set 1"), "{out}");
        assert!(out.contains("densekv_store_curr_items 1"), "{out}");
        assert!(out.ends_with("END\r\n"), "{out}");
    }

    #[test]
    fn dispatch_timed_matches_untimed_output_and_accounts_locks() {
        use crate::metrics::{MetricsConfig, ServeMetrics};
        let timed = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        let plain = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 4);
        let metrics = ServeMetrics::new(&MetricsConfig::default(), 4);
        let script = b"set k 0 0 3\r\nfoo\r\nget k\r\nset n 0 0 1\r\n5\r\nincr n 2\r\n\
                       touch k 10\r\ndelete k\r\nget k missing\r\nversion\r\n";
        let mut out_timed = BytesMut::new();
        let mut total = ShardTiming::default();
        drain(script, &mut out_timed, usize::MAX, |request, out| {
            let command = request.expect("well-formed").to_command();
            let (disposition, timing) =
                timed.dispatch_timed(command, &FixedClock(0), out, &metrics);
            assert_eq!(disposition, Disposition::KeepAlive);
            total.lock_wait += timing.lock_wait;
            total.hold += timing.hold;
            disposition
        });
        let out_plain = run(&plain, script, 0);
        assert_eq!(String::from_utf8(out_timed.to_vec()).unwrap(), out_plain);
        let acquisitions: u64 = metrics
            .shard_snapshots()
            .iter()
            .map(|s| s.acquisitions)
            .sum();
        // 5 single-key writes + 3 get-key visits (`version` needs no
        // store): every locked shard visit is counted exactly once.
        assert_eq!(acquisitions, 8, "acquisitions = {acquisitions}");
        assert!(total.hold > std::time::Duration::ZERO);
    }

    #[test]
    fn engine_backend_speaks_the_same_protocol() {
        let store = ShardedStore::new_with_backend(
            StoreConfig::with_capacity(16 << 20),
            4,
            BackendKind::Engine,
        );
        assert_eq!(store.backend(), BackendKind::Engine);
        let out = run(
            &store,
            b"set k 0 0 3\r\nfoo\r\nadd k 0 0 3\r\nbar\r\nget k\r\nset n 0 0 1\r\n5\r\nincr n 10\r\ndelete k\r\n",
            0,
        );
        assert_eq!(
            out,
            "STORED\r\nNOT_STORED\r\nVALUE k 0 3\r\nfoo\r\nEND\r\n\
             STORED\r\n15\r\nDELETED\r\n"
        );
        let stats = run(&store, b"stats\r\n", 0);
        assert!(stats.contains("STAT cmd_set 3"), "{stats}");
        assert!(stats.contains("STAT curr_items 1"), "{stats}");
    }

    #[test]
    fn merged_fill_pct_is_a_ratio_not_a_sum() {
        let store = ShardedStore::new_with_backend(
            StoreConfig::with_capacity(16 << 20),
            2,
            BackendKind::Engine,
        );
        // Enough 128 B-tier values that both shards sit well above 50%
        // tier fill (the arena doubles, so used >= total / 2): summing
        // the per-shard percentages would exceed 100.
        for i in 0..64u32 {
            run(
                &store,
                format!("set key{i} 0 0 100\r\n{}\r\n", "x".repeat(100)).as_bytes(),
                0,
            );
        }
        let lines: std::collections::HashMap<String, u64> =
            store.backend_stat_lines().into_iter().collect();
        let used = lines["engine_tier_128_used_pages"];
        let total = lines["engine_tier_128_total_pages"];
        assert_eq!(used, 64, "every value takes one 128 B page");
        assert_eq!(
            lines["engine_tier_128_fill_pct"],
            used * 100 / total,
            "fill_pct is recomputed from the merged used/total pages"
        );
        assert!(lines["engine_tier_128_fill_pct"] <= 100);
    }

    #[test]
    fn stats_engine_renders_gauges_or_errors_by_backend() {
        let engine = ShardedStore::new_with_backend(
            StoreConfig::with_capacity(16 << 20),
            2,
            BackendKind::Engine,
        );
        run(
            &engine,
            format!("set k 0 0 100\r\n{}\r\n", "x".repeat(100)).as_bytes(),
            0,
        );
        let out = run(&engine, b"stats engine\r\n", 0);
        assert!(out.contains("STAT engine_items 1"), "{out}");
        assert!(out.contains("STAT engine_tier_128_used_pages 1"), "{out}");
        assert!(out.ends_with("END\r\n"), "{out}");
        // Two shards merge by summing: bucket counts add up.
        let buckets: u64 = out
            .lines()
            .find_map(|l| l.strip_prefix("STAT engine_bucket_count "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(buckets >= 16, "two shards of >=8 buckets, got {buckets}");

        // The model store exposes no engine internals.
        let model = ShardedStore::new(StoreConfig::with_capacity(16 << 20), 2);
        assert_eq!(run(&model, b"stats engine\r\n", 0), "ERROR\r\n");

        // The shards' budgets add up to the configured one, also when
        // the shard count does not divide it.
        for shards in [3, 4] {
            let store = ShardedStore::new_with_backend(
                StoreConfig::with_capacity(16 << 20),
                shards,
                BackendKind::Engine,
            );
            let budget = store
                .backend_stat_lines()
                .into_iter()
                .find_map(|(name, v)| (name == "engine_budget_bytes").then_some(v));
            assert_eq!(budget, Some(16 << 20), "{shards} shards");
        }
    }

    #[test]
    fn sustained_shard_contention_trips_the_flight_recorder() {
        use crate::metrics::{MetricsConfig, ServeMetrics};
        use std::sync::Arc;

        let store = Arc::new(ShardedStore::new_with_backend(
            StoreConfig::with_capacity(8 << 20),
            1,
            BackendKind::Engine,
        ));
        let metrics = Arc::new(ServeMetrics::new(&MetricsConfig::default(), 1));
        // On a one-CPU box organic interleaving almost never collides,
        // so the test manufactures the contention the trigger is built
        // to catch: the main thread holds the single shard's lock while
        // handing the worker each command, so the worker's `try_lock`
        // reliably loses and the acquisition counts as contended.
        let (go_tx, go_rx) = std::sync::mpsc::channel::<u32>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let worker = {
            let store = Arc::clone(&store);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                let mut out = BytesMut::new();
                while let Ok(i) = go_rx.recv() {
                    let script = format!("set key{i} 0 0 1\r\nx\r\n");
                    let mut buf = BytesMut::from(script.as_bytes());
                    let Ok(Parsed::Complete(cmd)) = parse_command(&mut buf) else {
                        panic!("complete command");
                    };
                    store.dispatch_timed(cmd, &FixedClock(0), &mut out, &metrics);
                    done_tx.send(()).unwrap();
                }
            })
        };
        for i in 0..24u32 {
            let guard = store.shards[0].lock();
            go_tx.send(i).unwrap();
            // Give the worker time to attempt (and lose) its try_lock.
            std::thread::sleep(std::time::Duration::from_millis(1));
            drop(guard);
            done_rx.recv().unwrap();
        }
        drop(go_tx);
        worker.join().unwrap();
        metrics.rotate_now();
        let trigger = metrics
            .last_trigger()
            .expect("window closed with a trigger");
        assert_eq!(trigger.reason, "shard-contention");
    }

    #[test]
    fn concurrent_mixed_traffic_is_safe() {
        for backend in [BackendKind::Model, BackendKind::Engine] {
            for shards in [1, 8] {
                let store = ShardedStore::new_with_backend(
                    StoreConfig::with_capacity(32 << 20),
                    shards,
                    backend,
                );
                std::thread::scope(|scope| {
                    for t in 0..4u8 {
                        let store = &store;
                        scope.spawn(move || {
                            let value = [b'a' + t; 64];
                            let value = std::str::from_utf8(&value).unwrap();
                            for i in 0..300u32 {
                                let set = format!("set t{t}k{i} 0 0 64\r\n{value}\r\n");
                                run(store, set.as_bytes(), 0);
                                let get = format!("get t{t}k{i}\r\n");
                                let reply = run(store, get.as_bytes(), 0);
                                assert_eq!(
                                    reply,
                                    format!("VALUE t{t}k{i} 0 64\r\n{value}\r\nEND\r\n")
                                );
                            }
                        });
                    }
                });
                assert_eq!(
                    store.len(),
                    1200,
                    "{} over {shards} shards",
                    backend.as_str()
                );
                let last = format!("VALUE t3k299 0 64\r\n{}\r\nEND\r\n", "d".repeat(64));
                assert_eq!(run(&store, b"get t3k299\r\n", 0), last);
            }
        }
    }
}
