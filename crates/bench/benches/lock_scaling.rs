//! The lock-contention ablation (paper §3.6 / Table 4 baselines): real
//! host threads driving the real store under the three locking
//! architectures. Prints a scaling curve and benchmarks single-op cost.

use std::time::Duration as StdDuration;

use std::time::Duration as StdBenchDuration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use densekv_baseline::host::{measure, scaling_curve, Variant, SKIPPED};

fn bench_lock_scaling(c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(2);

    // Print the full scaling curve once (the Table 4 ordering); a width
    // the host has no cores for says so instead of reporting a rate.
    eprintln!("[lock_scaling] host has {cores} cores");
    for variant in Variant::ALL {
        let curve: Vec<String> = [1u32, 2, 4, 8, 16]
            .iter()
            .zip(scaling_curve(
                variant,
                &[1, 2, 4, 8, 16],
                StdDuration::from_millis(400),
            ))
            .map(|(t, point)| match point {
                Some(p) => format!("{t}T={:.0}K", p.ops_per_sec / 1000.0),
                None => format!("{t}T={SKIPPED}"),
            })
            .collect();
        eprintln!(
            "[lock_scaling] {:<28} {}",
            variant.label(),
            curve.join("  ")
        );
    }

    // Criterion-tracked: throughput at the host's natural width.
    let threads = cores.min(8);
    let mut group = c.benchmark_group("lock_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(1));
    for variant in Variant::ALL {
        group.bench_function(format!("{:?}/{threads}T", variant), |b| {
            b.iter_custom(|iters| {
                // Scale measurement time with requested iterations, within
                // sane bounds.
                let ms = (iters / 50).clamp(100, 800);
                let point = measure(variant, threads, StdDuration::from_millis(ms));
                // Report time-per-op equivalent for the iteration count.
                StdDuration::from_secs_f64(iters as f64 / point.ops_per_sec)
            })
        });
    }
    group.finish();
}

/// Short measurement windows: the suite has ~60 benchmarks and some
/// iterate whole simulations, so the default 3 s + 5 s windows would
/// take the better part of an hour.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(StdBenchDuration::from_secs(1))
        .measurement_time(StdBenchDuration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_lock_scaling
}
criterion_main!(benches);
