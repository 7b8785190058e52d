//! Micro-benchmarks of the hot paths this harness leans on: Zipf rank
//! sampling (the O(1) alias draw versus the O(log n) CDF search it
//! replaced), the cache set-index fast path, one end-to-end simulated
//! request, and one quick sweep point — the unit of work the parallel
//! harness distributes across workers.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::slots::RequestSlots;
use densekv::sweep::{measure_point, SweepEffort};
use densekv_cpu::cache::{Cache, CacheConfig};
use densekv_sim::dist::Zipf;
use densekv_sim::{Scheduler, SplitMix64};
use densekv_workload::{key_bytes, Op, Request};

fn bench_zipf_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/zipf");
    group.throughput(Throughput::Elements(1));
    // Population matched to the cluster workload's key space.
    let zipf = Zipf::new(10_000, 0.99);
    group.bench_function("alias_sample", |b| {
        let mut rng = SplitMix64::new(7);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    group.bench_function("cdf_sample", |b| {
        let mut rng = SplitMix64::new(7);
        b.iter(|| black_box(zipf.sample_cdf(&mut rng)))
    });
    group.finish();
}

fn bench_cache_hot_hit(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/cache");
    group.throughput(Throughput::Elements(1));
    group.bench_function("l1_mru_hit", |b| {
        let mut cache = Cache::new(CacheConfig::l1_32k());
        cache.access(0);
        b.iter(|| black_box(cache.access(0)))
    });
    group.finish();
}

fn bench_request(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/request");
    group.throughput(Throughput::Elements(1));
    // 64 B and the top of the paper's size sweep: host cost must not
    // follow the value's 16 384 lines.
    for (name, value_bytes, warmup) in [
        ("mercury_a7_get64", 64, 300),
        ("mercury_a7_get1mb", 1 << 20, 30),
    ] {
        let req = Request {
            op: Op::Get,
            key: key_bytes(0),
            value_bytes,
        };
        group.bench_function(name, |b| {
            let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).expect("valid");
            core.preload(value_bytes, 32).expect("fits");
            for _ in 0..warmup {
                core.execute(&req);
            }
            b.iter(|| black_box(core.execute(&req)))
        });
    }
    group.finish();
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/scheduler");
    group.throughput(Throughput::Elements(1));
    // Steady-state unit: pop the earliest event off the timer wheel and
    // reschedule it a random distance ahead, holding a 4096-event
    // backlog so pops cascade wheel levels.
    group.bench_function("push_pop", |b| {
        let mut sched: Scheduler<u32> = Scheduler::new();
        let mut rng = SplitMix64::new(11);
        for id in 0..4096u32 {
            sched.schedule_in(
                densekv_sim::Duration::from_nanos(1 + rng.next_below(1 << 20)),
                id,
            );
        }
        b.iter(|| {
            let (_, id) = sched.pop().expect("standing backlog");
            sched.schedule_in(
                densekv_sim::Duration::from_nanos(1 + rng.next_below(1 << 20)),
                id,
            );
        })
    });
    group.finish();
}

fn bench_slab_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/slots");
    group.throughput(Throughput::Elements(1));
    // Acquire renders the key into the arena slab, release recycles it
    // through the free list — per-request state cost, no simulator.
    group.bench_function("request_slab_churn", |b| {
        let mut slots = RequestSlots::with_capacity(4);
        let mut key_id = 0u64;
        b.iter(|| {
            key_id = key_id.wrapping_add(1);
            let a = slots.acquire(Op::Get, 64, key_id);
            let b2 = slots.acquire(Op::Put, 64, !key_id);
            black_box(slots.key(b2));
            slots.release(b2);
            slots.release(a);
        })
    });
    group.finish();
}

fn bench_sweep_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/sweep");
    group.sample_size(10);
    let cfg = CoreSimConfig::mercury_a7();
    for (name, value_bytes) in [("quick_point_64b", 64), ("quick_point_1mb", 1 << 20)] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(measure_point(&cfg, value_bytes, SweepEffort::quick())))
        });
    }
    group.finish();
}

criterion_group!(
    bench_hotpaths,
    bench_zipf_sampling,
    bench_cache_hot_hit,
    bench_request,
    bench_scheduler,
    bench_slab_churn,
    bench_sweep_point
);
criterion_main!(bench_hotpaths);
