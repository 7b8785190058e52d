//! Benchmarks of the end-to-end request simulator itself (how fast the
//! simulation runs on the host), plus the L2 and row-buffer ablations
//! reported as simulated outcomes.

use std::time::Duration as StdBenchDuration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::sweep::{measure_point, SweepEffort};
use densekv_cpu::CoreConfig;
use densekv_mem::PagePolicy;
use densekv_sim::Duration;
use densekv_stack::MemoryKind;
use densekv_workload::{key_bytes, Op, Request};

fn warmed(config: CoreSimConfig) -> CoreSim {
    let mut core = CoreSim::preloaded(&config, 64, 32);
    let req = Request {
        op: Op::Get,
        key: key_bytes(0),
        value_bytes: 64,
    };
    for _ in 0..300 {
        core.execute(&req);
    }
    core
}

fn bench_request_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("request_sim");
    group.throughput(Throughput::Elements(1));
    let req = Request {
        op: Op::Get,
        key: key_bytes(0),
        value_bytes: 64,
    };
    group.bench_function("mercury_a7_get64", |b| {
        let mut core = warmed(CoreSimConfig::mercury_a7());
        b.iter(|| black_box(core.execute(&req)))
    });
    group.bench_function("iridium_a7_get64", |b| {
        let mut core = warmed(CoreSimConfig::iridium_a7());
        b.iter(|| black_box(core.execute(&req)))
    });
    let big = Request {
        op: Op::Get,
        key: key_bytes(0),
        value_bytes: 64 << 10,
    };
    group.bench_function("mercury_a7_get64k", |b| {
        let mut core = CoreSim::preloaded(&CoreSimConfig::mercury_a7(), 64 << 10, 8);
        for _ in 0..30 {
            core.execute(&big);
        }
        b.iter(|| black_box(core.execute(&big)))
    });
    group.finish();
}

/// L2 ablation (paper §6.2): simulated TPS with and without the L2 at
/// both ends of the latency sweep, printed as results.
fn bench_l2_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_l2");
    group.sample_size(10);
    for (label, l2, ns) in [
        ("l2_on_10ns", true, 10u64),
        ("l2_off_10ns", false, 10),
        ("l2_on_100ns", true, 100),
        ("l2_off_100ns", false, 100),
    ] {
        let config = CoreSimConfig::mercury(CoreConfig::a7_1ghz(), l2, Duration::from_nanos(ns));
        let point = measure_point(&config, 64, SweepEffort::quick());
        eprintln!("[ablation_l2] {label}: {:.1} KTPS", point.get.tps / 1000.0);
        group.bench_function(label, |b| {
            b.iter(|| black_box(measure_point(&config, 64, SweepEffort::quick()).get.tps))
        });
    }
    group.finish();
}

/// Row-buffer ablation: the paper assumes worst-case closed-page timing;
/// open-page rows show what that assumption costs.
fn bench_rowbuffer_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rowbuffer");
    group.sample_size(10);
    for (label, policy) in [
        ("closed_page", PagePolicy::Closed),
        ("open_page", PagePolicy::Open),
    ] {
        let mut config =
            CoreSimConfig::mercury(CoreConfig::a7_1ghz(), true, Duration::from_nanos(50));
        if let MemoryKind::Mercury(dram) = &mut config.memory {
            dram.page_policy = policy;
        }
        let point = measure_point(&config, 4096, SweepEffort::quick());
        eprintln!(
            "[ablation_rowbuffer] {label}@50ns 4KB GET: {:.1} KTPS",
            point.get.tps / 1000.0
        );
        group.bench_function(label, |b| {
            b.iter(|| black_box(measure_point(&config, 4096, SweepEffort::quick()).get.tps))
        });
    }
    group.finish();
}

/// 3D-stacking ablation: the same core and capacity behind a
/// conventional DDR3 DIMM interface instead of the 16-port 3D stack —
/// what the paper's Table 2 motivation is worth at the request level.
fn bench_ddr3_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_3d_stacking");
    group.sample_size(10);
    for (label, dram) in [
        ("3d_stack_10ns", densekv_mem::dram::DramConfig::default()),
        ("ddr3_dimm_60ns", densekv_mem::dram::DramConfig::ddr3_like()),
    ] {
        let mut config =
            CoreSimConfig::mercury(CoreConfig::a7_1ghz(), false, Duration::from_nanos(10));
        config.memory = MemoryKind::Mercury(dram);
        let small = measure_point(&config, 64, SweepEffort::quick());
        let large = measure_point(&config, 64 << 10, SweepEffort::quick());
        eprintln!(
            "[ablation_3d_stacking] {label} (no L2): 64B {:.1} KTPS, 64KB {:.2} KTPS",
            small.get.tps / 1000.0,
            large.get.tps / 1000.0
        );
        group.bench_function(label, |b| {
            b.iter(|| black_box(measure_point(&config, 64, SweepEffort::quick()).get.tps))
        });
    }
    group.finish();
}

/// Network-stack ablation: the same Mercury core with a UDP GET path
/// instead of TCP — how much of the request is pure protocol software
/// (the §2.3.1 complaint TSSP attacks with hardware offload).
fn bench_udp_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_udp");
    group.sample_size(10);
    for (label, tcp) in [
        ("tcp", densekv_net::TcpCostModel::linux()),
        ("udp", densekv_net::TcpCostModel::udp()),
    ] {
        let mut config = CoreSimConfig::mercury_a7();
        config.tcp = tcp;
        let point = measure_point(&config, 64, SweepEffort::quick());
        eprintln!(
            "[ablation_udp] {label} 64B GET: {:.1} KTPS",
            point.get.tps / 1000.0
        );
        group.bench_function(label, |b| {
            b.iter(|| black_box(measure_point(&config, 64, SweepEffort::quick()).get.tps))
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
    targets =
    bench_request_execution,
    bench_l2_ablation,
    bench_rowbuffer_ablation,
    bench_ddr3_ablation,
    bench_udp_ablation
}
criterion_main!(benches);
