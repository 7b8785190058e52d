//! Real-thread scaling harness over the real store.
//!
//! Table 4's baseline ordering (1.4 < 1.6 < Bags) comes from lock
//! contention. Rather than take that on faith, this harness runs the
//! actual `densekv-kv` store variants under real host threads and
//! measures operations per second, so the `lock_scaling` bench (and a
//! smoke test here) can demonstrate the ordering on whatever machine this
//! repository runs on.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration as StdDuration, Instant};

use densekv_kv::concurrent::{GlobalLockStore, SharedStore, StripedStore};
use densekv_kv::store::StoreConfig;

/// Which locking architecture to benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Memcached 1.4: one global lock.
    GlobalLock,
    /// Memcached 1.6: striped locks + a global LRU lock.
    StripedGlobalLru,
    /// Bags: striped locks, per-shard bag LRU, no global lock.
    Bags,
}

impl Variant {
    /// All variants, contention-heaviest first.
    pub const ALL: [Variant; 3] = [
        Variant::GlobalLock,
        Variant::StripedGlobalLru,
        Variant::Bags,
    ];

    /// Display name matching the paper's rows.
    pub fn label(self) -> &'static str {
        match self {
            Variant::GlobalLock => "1.4 (global lock)",
            Variant::StripedGlobalLru => "1.6 (striped + global LRU)",
            Variant::Bags => "Bags (striped, bag LRU)",
        }
    }

    /// Instantiates the store for this variant.
    pub fn build(self, memory_bytes: u64, shards: usize) -> Arc<dyn SharedStore> {
        match self {
            Variant::GlobalLock => Arc::new(GlobalLockStore::new(StoreConfig::with_capacity(
                memory_bytes,
            ))),
            Variant::StripedGlobalLru => Arc::new(StripedStore::memcached_16(memory_bytes, shards)),
            Variant::Bags => Arc::new(StripedStore::bags(memory_bytes, shards)),
        }
    }
}

/// Result of one scaling measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Threads used.
    pub threads: u32,
    /// Measured operations per second.
    pub ops_per_sec: f64,
}

/// Runs `variant` with `threads` host threads of 95 %-GET traffic for
/// `duration` and returns the sustained throughput.
///
/// Keys are pre-loaded so GETs hit; each thread works a private key range
/// for PUTs (matching Memcached clients) but GETs sample the shared
/// space.
pub fn measure(variant: Variant, threads: u32, duration: StdDuration) -> ScalingPoint {
    const KEYS: u64 = 8_192;
    let store = variant.build(256 << 20, 16);

    // Pre-load.
    for id in 0..KEYS {
        store
            .set(
                densekv_workload::key_bytes(id).as_slice(),
                vec![7u8; 100],
                0,
            )
            .expect("preload fits");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads as usize + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = densekv_sim::SplitMix64::new(0xBEEF + u64::from(t));
                let mut ops = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    // 64 ops per stop-flag check.
                    for _ in 0..64 {
                        let id = rng.next_below(KEYS);
                        let key = densekv_workload::key_bytes(id);
                        if rng.next_bool(0.95) {
                            let _ = store.get(&key, 0);
                        } else {
                            let _ = store.set(&key, vec![7u8; 100], 0);
                        }
                        ops += 1;
                    }
                }
                ops
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("worker thread panicked"))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    ScalingPoint {
        threads,
        ops_per_sec: total as f64 / elapsed,
    }
}

/// What stands in for a measurement taken with more threads than the
/// host has cores.
pub const SKIPPED: &str = "skipped_insufficient_cores";

/// Whether `threads` workers can each have a core of this host. When
/// they cannot, their throughput relative to one thread's says how the
/// scheduler shares a core, not how a lock scales: callers report
/// [`SKIPPED`] instead of a ratio.
pub fn enough_cores(threads: u32) -> bool {
    std::thread::available_parallelism().is_ok_and(|cores| cores.get() >= threads as usize)
}

/// Sweeps thread counts for one variant; a count the host has too few
/// cores for yields `None` ([`enough_cores`]).
pub fn scaling_curve(
    variant: Variant,
    thread_counts: &[u32],
    duration: StdDuration,
) -> Vec<Option<ScalingPoint>> {
    thread_counts
        .iter()
        .map(|&t| enough_cores(t).then(|| measure(variant, t, duration)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_works_for_all_variants() {
        for v in Variant::ALL {
            // Progress, not a rate: how many operations fit in 50 ms is
            // the host's business (and its other tests'), not the code's.
            let p = measure(v, 1, StdDuration::from_millis(50));
            assert_eq!(p.threads, 1);
            assert!(p.ops_per_sec > 0.0, "{}: no operation completed", v.label());
        }
    }

    #[test]
    fn a_curve_has_no_point_where_the_host_has_no_cores() {
        let wide = u32::MAX;
        assert!(enough_cores(1) && !enough_cores(wide));
        let curve = scaling_curve(Variant::Bags, &[1, wide], StdDuration::from_millis(20));
        assert_eq!(curve[0].map(|p| p.threads), Some(1));
        assert_eq!(curve[1], None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 3);
    }

    /// The headline contention ordering, on real threads. Kept short and
    /// tolerant (CI machines vary); the bench produces the full curve.
    #[test]
    fn bags_scales_at_least_as_well_as_global_lock() {
        if !enough_cores(4) {
            return; // contention is invisible without parallelism
        }
        let threads = if enough_cores(8) { 8 } else { 4 };
        let global = measure(Variant::GlobalLock, threads, StdDuration::from_millis(300));
        let bags = measure(Variant::Bags, threads, StdDuration::from_millis(300));
        assert!(
            bags.ops_per_sec > global.ops_per_sec * 1.2,
            "bags {} vs global {} at {threads} threads",
            bags.ops_per_sec,
            global.ops_per_sec
        );
    }
}
