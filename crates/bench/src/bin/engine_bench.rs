//! Real-thread scaling of the tiered fixed-page engine.
//!
//! The serve plane's `lock_scaling` experiment demonstrates Table 4's
//! contention ordering over the *model* store; this one re-runs the
//! same three locking architectures — one global mutex (Memcached
//! 1.4), striped locks, and striped locks with per-stripe bag-LRU —
//! over [`densekv_engine::StripedEngine`], a store that really moves
//! bytes through tier pages and bitmaps. Seeded Zipf keys, a 90/10
//! GET/SET mix, and value sizes straddling every page tier make the
//! hot path representative; `results/engine_bench.csv` records both
//! absolute throughput and per-variant scaling. A thread count the host
//! has too few cores for is reported as `skipped_insufficient_cores`:
//! its rate relative to one thread's would say how the scheduler shares
//! a core, not how a lock scales.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use densekv::report::TextTable;
use densekv_baseline::host::{enough_cores, SKIPPED};
use densekv_engine::StripedEngine;
use densekv_kv::concurrent::SharedStore;
use densekv_sim::dist::Zipf;
use densekv_sim::SplitRng;

/// Key population (pre-loaded so GETs mostly hit).
const KEYS: u64 = 8_192;
/// Zipf exponent of the key popularity (ETC-like skew).
const ALPHA: f64 = 0.99;
/// Value sizes by key id, straddling the 32…4096 B page tiers.
const SIZES: [usize; 5] = [24, 100, 500, 1500, 3000];
/// Engine budget: ample, so the measurement is lock contention, not
/// eviction churn.
const MEMORY: u64 = 256 << 20;
/// Lock stripes for the striped variants.
const STRIPES: usize = 8;

/// The three locking architectures under test.
#[derive(Clone, Copy)]
enum Variant {
    Global,
    Striped,
    StripedBags,
}

impl Variant {
    const ALL: [Variant; 3] = [Variant::Global, Variant::Striped, Variant::StripedBags];

    fn label(self) -> &'static str {
        match self {
            Variant::Global => "global-mutex",
            Variant::Striped => "striped",
            Variant::StripedBags => "striped-bags",
        }
    }

    fn build(self) -> Arc<StripedEngine> {
        Arc::new(match self {
            Variant::Global => StripedEngine::global(MEMORY),
            Variant::Striped => StripedEngine::striped(MEMORY, STRIPES),
            Variant::StripedBags => StripedEngine::striped_bags(MEMORY, STRIPES),
        })
    }
}

fn value_for(id: u64) -> Vec<u8> {
    vec![b'v'; SIZES[id as usize % SIZES.len()]]
}

/// Sustained mixed-workload throughput of `variant` under `threads`
/// real host threads.
fn measure(variant: Variant, threads: u32, duration: Duration) -> f64 {
    let store = variant.build();
    for id in 0..KEYS {
        store
            .set(&densekv_workload::key_bytes(id), value_for(id), 0)
            .expect("preload fits the budget");
    }
    let zipf = Arc::new(Zipf::new(KEYS as usize, ALPHA));
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads as usize + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let store = Arc::clone(&store);
            let zipf = Arc::clone(&zipf);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Batched draws: the Zipf sampler and the GET/SET coin
                // drain `SplitRng`'s refill buffer — the same RNG hot
                // path the simulator's samplers share.
                let mut rng = SplitRng::new(0xE1213E + u64::from(t));
                let mut ops = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    // 64 ops per stop-flag check.
                    for _ in 0..64 {
                        let id = zipf.sample(&mut rng) as u64;
                        let key = densekv_workload::key_bytes(id);
                        if rng.next_bool(0.9) {
                            let _ = store.get(&key, 0);
                        } else {
                            let _ = store.set(&key, value_for(id), 0);
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
    total as f64 / start.elapsed().as_secs_f64()
}

/// Median of `reps` measurements (medians shrug off a scheduler hiccup
/// that would skew a mean).
fn median_ops(variant: Variant, threads: u32, duration: Duration, reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| measure(variant, threads, duration))
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn main() {
    let quick = std::env::var("DENSEKV_QUICK").is_ok_and(|v| v != "0");
    let thread_counts: &[u32] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let duration = Duration::from_millis(if quick { 40 } else { 300 });
    let reps = if quick { 1 } else { 5 };

    let mut table = TextTable::new(vec![
        "variant".into(),
        "threads".into(),
        "ops_per_sec".into(),
        "scaling_x".into(),
    ]);
    for variant in Variant::ALL {
        let mut base = 0.0;
        for &threads in thread_counts {
            // With fewer cores than threads the rate relative to one
            // thread's measures the scheduler, not the locks.
            if !enough_cores(threads) {
                table.row(vec![
                    variant.label().into(),
                    threads.to_string(),
                    SKIPPED.into(),
                    SKIPPED.into(),
                ]);
                continue;
            }
            let ops = median_ops(variant, threads, duration, reps);
            if threads == 1 {
                base = ops;
            }
            table.row(vec![
                variant.label().into(),
                threads.to_string(),
                format!("{ops:.0}"),
                format!("{:.2}", ops / base),
            ]);
        }
    }
    densekv_bench::emit("engine_bench", &table);
}
