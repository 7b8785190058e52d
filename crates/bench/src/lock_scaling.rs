//! Table 4's lock structures on real host threads, over the live
//! server's [`ShardedStore`].
//!
//! Memcached 1.4 has one global cache lock, 1.6 striped locks plus a
//! global LRU lock, and "Bags" striped locks with a per-stripe bag LRU.
//! Each is a shard count and an eviction kind of the store the server
//! ships, except 1.6's LRU lock: a harness-local mutex every operation
//! takes first. A strict-LRU striped row without that lock separates
//! the two. Seeded Zipf keys, a 90/10 GET/SET mix and value sizes that
//! cross the engine's page tiers drive either backend. A thread count
//! the host has too few cores for is not measured: its rate relative to
//! one thread's would say how the scheduler shares a core, not how a
//! lock scales.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use densekv::report::TextTable;
use densekv_kv::lru::EvictionKind;
use densekv_kv::store::StoreConfig;
use densekv_serve::{BackendKind, ShardedStore};
use densekv_sim::dist::Zipf;
use densekv_sim::SplitMix64;

/// Key population (pre-loaded so GETs mostly hit).
const KEYS: u64 = 8_192;
/// Zipf exponent of the key popularity (ETC-like skew).
const ALPHA: f64 = 0.99;
/// Value sizes by key id, straddling the engine's 32…4096 B page tiers.
const SIZES: [usize; 5] = [24, 100, 500, 1500, 3000];
/// Store budget: ample, so the measurement is lock contention, not
/// eviction churn.
const MEMORY: u64 = 256 << 20;
/// Lock stripes of the striped variants.
const STRIPES: usize = 8;

/// What stands in for a measurement taken with more threads than the
/// host has cores.
pub(crate) const SKIPPED: &str = "skipped_insufficient_cores";

/// Which locking architecture to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Variant {
    /// Memcached 1.4: one shard, one lock.
    Global,
    /// Striped locks over strict per-stripe LRU.
    Striped,
    /// Memcached 1.6: striped locks plus a global LRU lock.
    StripedGlobalLru,
    /// Bags: striped locks, per-stripe bag LRU, no global lock.
    Bags,
}

impl Variant {
    /// All variants, contention-heaviest first.
    pub const ALL: [Variant; 4] = [
        Variant::Global,
        Variant::Striped,
        Variant::StripedGlobalLru,
        Variant::Bags,
    ];

    /// The variant's row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Variant::Global => "global",
            Variant::Striped => "striped",
            Variant::StripedGlobalLru => "striped+global-LRU",
            Variant::Bags => "bags",
        }
    }

    fn store(self, backend: BackendKind) -> ShardedStore {
        let (shards, eviction) = match self {
            Variant::Global => (1, EvictionKind::StrictLru),
            Variant::Striped | Variant::StripedGlobalLru => (STRIPES, EvictionKind::StrictLru),
            Variant::Bags => (STRIPES, EvictionKind::Bags),
        };
        let config = StoreConfig {
            eviction,
            ..StoreConfig::with_capacity(MEMORY)
        };
        ShardedStore::new_with_backend(config, shards, backend)
    }
}

/// Whether `threads` workers can each have a core of this host.
fn enough_cores(threads: u32) -> bool {
    std::thread::available_parallelism().is_ok_and(|cores| cores.get() >= threads as usize)
}

fn value_for(id: u64) -> Vec<u8> {
    vec![b'v'; SIZES[id as usize % SIZES.len()]]
}

/// Sustained operations per second of `variant` over `backend` with
/// `threads` host threads for `duration`, or `None` when the host has
/// fewer cores than threads (`enough_cores`).
///
/// # Panics
///
/// Panics if the preload does not fit the budget or a worker panics.
#[must_use]
pub(crate) fn measure(
    backend: BackendKind,
    variant: Variant,
    threads: u32,
    duration: Duration,
) -> Option<f64> {
    if !enough_cores(threads) {
        return None;
    }
    let store = variant.store(backend);
    for id in 0..KEYS {
        let key = densekv_workload::key_bytes(id);
        store
            .with_shard(&key, |s, hash| {
                s.set_hashed(&key, hash, value_for(id), 0, None, 0)
            })
            .expect("preload fits the budget");
    }
    // Memcached 1.6's global LRU lock. The critical section is tiny: it
    // is the serialization, not the work, that throttles 1.6.
    let global_lru = (variant == Variant::StripedGlobalLru).then(|| Mutex::new(0u64));
    let zipf = Zipf::new(KEYS as usize, ALPHA);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads as usize + 1);
    let (store, global_lru, zipf, stop, barrier) = (&store, &global_lru, &zipf, &stop, &barrier);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(0xE1213E + u64::from(t));
                    let mut ops = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        // 64 ops per stop-flag check.
                        for _ in 0..64 {
                            let id = zipf.sample(&mut rng) as u64;
                            let key = densekv_workload::key_bytes(id);
                            if let Some(lru) = global_lru {
                                let mut ticks = lru.lock().expect("no worker panicked");
                                *ticks = ticks.wrapping_add(1);
                            }
                            if rng.next_bool(0.9) {
                                store
                                    .with_shard(&key, |s, hash| s.get_ref(&key, hash, 0).is_some());
                            } else {
                                let _ = store.with_shard(&key, |s, hash| {
                                    s.set_hashed(&key, hash, value_for(id), 0, None, 0)
                                });
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
        Some(total as f64 / start.elapsed().as_secs_f64())
    })
}

/// Measures every (backend, variant, thread count) point and writes
/// `results/lock_scaling.csv`: absolute throughput and the scaling over
/// one thread per backend and variant, `SKIPPED` where the host has
/// too few cores.
pub fn run() {
    let duration = Duration::from_millis(if crate::quick() { 40 } else { 300 });
    let reps = if crate::quick() { 1 } else { 5 };

    let mut table = TextTable::new(vec![
        "backend".into(),
        "variant".into(),
        "threads".into(),
        "ops_per_sec".into(),
        "scaling_x".into(),
    ]);
    for backend in [BackendKind::Model, BackendKind::Engine] {
        for variant in Variant::ALL {
            let mut base = 0.0;
            for threads in [1, 2, 4, 8] {
                let row = |ops: String, scaling: String| {
                    vec![
                        backend.as_str().into(),
                        variant.label().into(),
                        threads.to_string(),
                        ops,
                        scaling,
                    ]
                };
                // Median of `reps` runs: it shrugs off a scheduler
                // hiccup that would skew a mean.
                let samples: Option<Vec<f64>> = (0..reps)
                    .map(|_| measure(backend, variant, threads, duration))
                    .collect();
                let Some(mut samples) = samples else {
                    table.row(row(SKIPPED.into(), SKIPPED.into()));
                    continue;
                };
                samples.sort_by(f64::total_cmp);
                let ops = samples[samples.len() / 2];
                if threads == 1 {
                    base = ops;
                }
                table.row(row(format!("{ops:.0}"), format!("{:.2}", ops / base)));
            }
        }
    }
    crate::emit("lock_scaling", &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    const BACKENDS: [BackendKind; 2] = [BackendKind::Model, BackendKind::Engine];

    #[test]
    fn single_thread_works_for_all_variants() {
        for backend in BACKENDS {
            for v in Variant::ALL {
                // Progress, not a rate: how many operations fit in 50 ms
                // is the host's business, not the code's.
                let ops = measure(backend, v, 1, Duration::from_millis(50));
                assert!(
                    ops.is_some_and(|ops| ops > 0.0),
                    "{}/{}: no operation",
                    backend.as_str(),
                    v.label()
                );
            }
        }
    }

    #[test]
    fn no_point_where_the_host_has_no_cores() {
        let wide = u32::MAX;
        assert!(enough_cores(1) && !enough_cores(wide));
        let point = measure(BackendKind::Model, Variant::Bags, wide, Duration::ZERO);
        assert_eq!(point, None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), Variant::ALL.len());
    }

    /// The headline contention ordering, on real threads. Kept short and
    /// tolerant (machines vary); `densekv-bench lock_scaling` gives the curve.
    #[test]
    fn bags_scales_at_least_as_well_as_global_lock() {
        if !enough_cores(4) {
            return; // contention is invisible without parallelism
        }
        let threads = if enough_cores(8) { 8 } else { 4 };
        let window = Duration::from_millis(300);
        for backend in BACKENDS {
            let global = measure(backend, Variant::Global, threads, window).unwrap();
            let bags = measure(backend, Variant::Bags, threads, window).unwrap();
            assert!(
                bags > global * 1.2,
                "{}: bags {bags} vs global {global} at {threads} threads",
                backend.as_str()
            );
        }
    }
}
