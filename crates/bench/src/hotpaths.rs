//! The hot-path ledger: the timing loops behind
//! `results/BENCH_hotpaths.json` (written by the `bench_report` bin) and
//! the `perf_gate` bin that re-times them against it. Both bins call
//! [`measure`], so baseline and comparison are always like for like.

use std::hint::black_box;
use std::time::Instant;

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::slots::RequestSlots;
use densekv::sweep::{measure_point, SweepEffort};
use densekv_cpu::cache::{Cache, CacheConfig};
use densekv_engine::Engine;
use densekv_kv::store::StoreConfig;
use densekv_kv::StoreBackend;
use densekv_sim::dist::Zipf;
use densekv_sim::{Scheduler, SplitMix64, SplitRng};
use densekv_workload::{key_bytes, Op, Request};

/// The path every other ratio is normalized by.
pub const CALIBRATION: &str = "cache_l1_mru_hit";

/// Best (minimum) per-call nanoseconds over `reps` batches of `iters`
/// calls. Interference on a shared host only ever *adds* time, so the
/// minimum batch is the robust estimator of attainable cost — medians
/// still wander by 2x with noisy neighbours.
fn best_ns(iters: u32, reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .fold(f64::INFINITY, f64::min)
}

/// A Mercury-A7 core warmed on GETs of one resident `value_bytes` key,
/// with that request.
fn warmed_get(value_bytes: u64, warmup: u32) -> (CoreSim, Request) {
    let req = Request {
        op: Op::Get,
        key: key_bytes(0),
        value_bytes,
    };
    let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).expect("valid");
    core.preload(value_bytes, 32).expect("fits");
    for _ in 0..warmup {
        core.execute(&req);
    }
    (core, req)
}

/// Times every hot path, in ledger order; `quick` uses fewer repetitions.
/// Each entry is `(row name, best nanoseconds per operation)`.
pub fn measure(quick: bool) -> Vec<(&'static str, f64)> {
    let (iters, reps) = if quick { (50_000, 5) } else { (200_000, 9) };

    let zipf = Zipf::new(10_000, 0.99);
    let mut rng = SplitMix64::new(7);
    let alias_ns = best_ns(iters, reps, || {
        black_box(zipf.sample(&mut rng));
    });
    let mut rng = SplitMix64::new(7);
    let cdf_ns = best_ns(iters, reps, || {
        black_box(zipf.sample_cdf(&mut rng));
    });

    let mut cache = Cache::new(CacheConfig::l1_32k());
    cache.access(0);
    let cache_ns = best_ns(iters, reps, || {
        black_box(cache.access(0));
    });

    let (mut core, req) = warmed_get(64, 300);
    let request_ns = best_ns(if quick { 2_000 } else { 5_000 }, reps, || {
        black_box(core.execute(&req));
    });
    // The same request at the top of the paper's size sweep: host cost
    // must not follow the value's 16 384 lines.
    let (mut core, req) = warmed_get(1 << 20, 30);
    let request_1mb_ns = best_ns(if quick { 200 } else { 1_000 }, reps, || {
        black_box(core.execute(&req));
    });

    let cfg = CoreSimConfig::mercury_a7();
    // A sweep point is milliseconds long, so one preemption lands in
    // most samples on a busy host; many cheap samples find a clean one.
    let sweep_reps = 15;
    let sweep_point_ns = best_ns(1, sweep_reps, || {
        black_box(measure_point(&cfg, 64, SweepEffort::quick()));
    });
    let sweep_point_1mb_ns = best_ns(1, sweep_reps, || {
        black_box(measure_point(&cfg, 1 << 20, SweepEffort::quick()));
    });

    // The event engine's steady-state unit: pop the earliest event off
    // the timer wheel and reschedule it a random distance ahead,
    // holding a 4096-event backlog so pops cascade wheel levels.
    let mut sched: Scheduler<u32> = Scheduler::new();
    let mut sched_rng = SplitMix64::new(11);
    for id in 0..4096u32 {
        sched.schedule_in(
            densekv_sim::Duration::from_nanos(1 + sched_rng.next_below(1 << 20)),
            id,
        );
    }
    let scheduler_ns = best_ns(iters, reps, || {
        let (_, id) = sched.pop().expect("standing backlog");
        sched.schedule_in(
            densekv_sim::Duration::from_nanos(1 + sched_rng.next_below(1 << 20)),
            id,
        );
    });

    // Slot-arena churn: acquire renders the key into the arena slab,
    // release recycles it through the free list — the per-request
    // state cost with no simulator behind it.
    let mut slots = RequestSlots::with_capacity(4);
    let mut key_id = 0u64;
    let slab_ns = best_ns(iters, reps, || {
        key_id = key_id.wrapping_add(1);
        let a = slots.acquire(Op::Get, 64, key_id);
        let b = slots.acquire(Op::Put, 64, !key_id);
        black_box(slots.key(b));
        slots.release(b);
        slots.release(a);
    });

    // The storage engine's hot path: overwrite + read back one 256 B
    // value — hash, bucket probe, bitmap page free/alloc, byte copy.
    // Key indices come out of a batched `fill_f64` buffer, the same
    // RNG hot path the simulator's samplers drain.
    let mut engine = Engine::new(StoreConfig::with_capacity(16 << 20));
    let value = vec![7u8; 256];
    let keys: Vec<Vec<u8>> = (0..256).map(key_bytes).collect();
    for key in &keys {
        engine
            .set_with_flags(key, value.clone(), 0, None, 0)
            .expect("fits");
    }
    let mut key_rng = SplitRng::new(7);
    let mut draws = [0.0f64; 64];
    let mut pos = draws.len();
    let engine_ns = best_ns(if quick { 20_000 } else { 100_000 }, reps, || {
        if pos == draws.len() {
            key_rng.fill_f64(&mut draws);
            pos = 0;
        }
        let key = &keys[(draws[pos] * keys.len() as f64) as usize];
        pos += 1;
        engine
            .set_with_flags(key, value.clone(), 0, None, 0)
            .expect("fits");
        black_box(engine.get(key, 0));
    });

    vec![
        ("zipf_alias_sample", alias_ns),
        ("zipf_cdf_sample", cdf_ns),
        (CALIBRATION, cache_ns),
        ("request_mercury_a7_get64", request_ns),
        ("request_mercury_a7_get1mb", request_1mb_ns),
        ("sweep_point_quick_64b", sweep_point_ns),
        ("sweep_point_quick_1mb", sweep_point_1mb_ns),
        ("scheduler_push_pop", scheduler_ns),
        ("request_slab_churn", slab_ns),
        ("engine_set_get_256b", engine_ns),
    ]
}
