//! The three simulator workloads. Each runs on one thread, counts
//! simulated requests per second of *host* time, reads its latency
//! figures from *simulated* time, and hashes every simulated statistic
//! it sees, so that a speed-up that changes a result cannot pass.

use std::time::Instant;

use densekv::experiments::cluster::calibrate;
use densekv::sweep::{measure_point, OpPoint, SweepEffort, SweepPoint};
use densekv::{CoreSim, CoreSimConfig};
use densekv_cluster::{ClusterConfig, ClusterResult, ClusterWorkload};
use densekv_cpu::CoreConfig;
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, SplitMix64};
use densekv_workload::{key_bytes, MixedWorkload, RequestGenerator};

use crate::client::Tally;
use crate::pass::{Digest, PassReport};
use crate::trace::Tracer;

/// The paper's sub-millisecond service-level limit.
pub const SLA: Duration = Duration::from_millis(1);

fn digest_histogram(digest: &mut Digest, h: &LatencyHistogram) {
    digest.u64(h.count());
    digest.u64(h.mean().as_ps());
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        digest.u64(h.percentile(q).map_or(0, Duration::as_ps));
    }
}

/// Records what a finished simulator pass saw into `report`.
fn finish(
    report: &mut PassReport,
    latency: &LatencyHistogram,
    first: Option<Digest>,
    all: Digest,
    tracer: &Tracer,
) {
    report.p50_us = vec![latency.percentile(0.5).map_or(0.0, Duration::as_micros_f64)];
    report.sla_1ms = vec![latency.fraction_within(SLA)];
    report.digest_first = first.map(Digest::hex);
    report.digest_all = Some(all.hex());
    report.vm_hwm_kb = crate::host::vm_hwm_kb();
    report.take_spans(tracer);
}

// ---------------------------------------------------------------- sweep

/// The evaluation grid's configurations, with the span name of each.
pub fn sweep_configs() -> [(&'static str, CoreSimConfig); 4] {
    [
        ("core.measure_point.mercury_a7", CoreSimConfig::mercury_a7()),
        ("core.measure_point.iridium_a7", CoreSimConfig::iridium_a7()),
        (
            "core.measure_point.helios_a7",
            CoreSimConfig::helios_a7(256 << 20),
        ),
        (
            "core.measure_point.mercury_a15",
            CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10)),
        ),
    ]
}

/// The grid's five value sizes. `measure_point` seeds its own key
/// stream from the size alone, so the seed enters through the sizes:
/// each size class is widened by zero to three cache lines, which
/// moves simulated time in its low digits and host time not at all.
pub fn sweep_sizes(seed: u64) -> [u64; 5] {
    let mut rng = SplitMix64::new(seed ^ 0x5133_7EED);
    [64, 1 << 10, 16 << 10, 256 << 10, 1 << 20].map(|base| base + 64 * rng.next_below(4))
}

fn digest_op(digest: &mut Digest, op: &OpPoint) {
    digest.u64(op.mean_rtt.as_ps());
    for x in [
        op.tps,
        op.network_share,
        op.store_share,
        op.hash_share,
        op.perf.tps,
        op.perf.mem_gbps,
        op.perf.wire_gbps,
    ] {
        digest.f64(x);
    }
    digest_histogram(digest, &op.latency);
}

struct Grid {
    requests: u64,
    latency: LatencyHistogram,
    digest: Digest,
}

fn run_grid(configs: &[(&'static str, CoreSimConfig)], sizes: &[u64], tracer: &mut Tracer) -> Grid {
    let round = tracer.open("round", None, 0);
    let mut grid = Grid {
        requests: 0,
        latency: LatencyHistogram::new(),
        digest: Digest::new(),
    };
    for (name, config) in configs {
        for &size in sizes {
            let point: SweepPoint = tracer.span(name, round, grid.requests, || {
                measure_point(config, size, SweepEffort::quick())
            });
            grid.digest.u64(point.value_bytes);
            for op in [&point.get, &point.put] {
                digest_op(&mut grid.digest, op);
                grid.latency.merge(&op.latency);
                grid.requests += op.latency.count();
            }
        }
    }
    tracer.close(round);
    grid
}

/// `sim_paper_sweep`: one round is the paper's evaluation grid, GET
/// and PUT at five sizes on four stack configurations.
pub fn sweep_pass(seed: u64, rounds: u32, tracer: &mut Tracer) -> PassReport {
    let mut report = PassReport::new("sim_paper_sweep");
    let mut untraced = Tracer::new(false);

    // Set-up is building the configurations and the first, cold grid:
    // the first call into every model, where anything built lazily or
    // moved out of the measured rounds would land. It doubles as the
    // warm-up round.
    let t0 = Instant::now();
    let configs = sweep_configs();
    let sizes = sweep_sizes(seed);
    let cold = run_grid(&configs, &sizes, &mut untraced);
    report.setup_s = t0.elapsed().as_secs_f64();

    let mut all = Digest::new();
    for _ in 0..rounds {
        let t = Instant::now();
        let grid = run_grid(&configs, &sizes, tracer);
        report
            .ops_per_s
            .push(grid.requests as f64 / t.elapsed().as_secs_f64());
        report.tally.attempted += grid.requests;
        // Every round repeats the same grid, so it must repeat the
        // same statistics; one that does not fails all its requests.
        if grid.digest != cold.digest {
            report.tally.failed += grid.requests;
        }
        all.u64(grid.digest.value());
        all.f64(grid.latency.fraction_within(SLA));
        digest_histogram(&mut all, &grid.latency);
    }
    // `measure_point` preloads its whole key population and draws every
    // GET from it, and exposes no store counters: the hit ratio is the
    // construction's, and the digest is what guards it.
    report.tally.gets = 1;
    report.tally.hits = 1;
    finish(&mut report, &cold.latency, Some(cold.digest), all, tracer);
    report
}

// --------------------------------------------------------------- replay

pub const REPLAY_KEYS: usize = 200_000;
pub const REPLAY_ROUND_REQUESTS: u64 = 50_000;

/// The small-value body of the ETC mix (64 B–1 KB): with requests this
/// small the per-request fixed path dominates the memory model.
pub const REPLAY_SIZE_MIX: &[(u64, f64)] = &[(64, 0.3), (256, 0.35), (1024, 0.35)];

pub fn replay_stream(seed: u64) -> MixedWorkload {
    MixedWorkload::new(
        REPLAY_KEYS,
        densekv_workload::ETC_ZIPF_ALPHA,
        densekv_workload::ETC_GET_FRACTION,
        REPLAY_SIZE_MIX,
        seed,
        "ETC small values",
    )
}

/// A Mercury-A7 core holding every key of the replay stream.
pub fn replay_core(seed: u64) -> CoreSim {
    let mut config = CoreSimConfig::mercury_a7();
    config.store_bytes = 256 << 20;
    let mut core = CoreSim::new(config).expect("valid configuration");
    let mut sizes = SplitMix64::new(seed ^ 0x51DE_5EED);
    for id in 0..REPLAY_KEYS as u64 {
        // Each key's resident size is one draw from the stream's mix.
        let u = sizes.next_f64();
        let mut cumulative = 0.0;
        let bytes = REPLAY_SIZE_MIX
            .iter()
            .find(|(_, weight)| {
                cumulative += weight;
                u < cumulative
            })
            .map_or(1024, |(bytes, _)| *bytes);
        core.preload_one(&key_bytes(id), bytes)
            .expect("the store is sized for the population");
    }
    core
}

/// `sim_core_replay`: an ETC-like stream of small requests through one
/// simulated Mercury-A7 core.
pub fn replay_pass(seed: u64, rounds: u32, tracer: &mut Tracer) -> PassReport {
    let mut report = PassReport::new("sim_core_replay");
    let mut untraced = Tracer::new(false);

    let t0 = Instant::now();
    let mut core = replay_core(seed);
    let mut stream = replay_stream(seed);
    report.setup_s = t0.elapsed().as_secs_f64();

    let mut latency = LatencyHistogram::new();
    let mut first = None;
    let mut all = Digest::new();
    let mut done = 0u64;
    for round in 0..=rounds {
        let measured = round > 0;
        let tracer = if measured {
            &mut *tracer
        } else {
            &mut untraced
        };
        let before = core.store_stats();
        let mut digest = Digest::new();
        let t = Instant::now();
        let span = tracer.open("round", None, done);
        for _ in 0..REPLAY_ROUND_REQUESTS {
            let request = tracer.span("workload.next_request", span, done, || {
                stream.next_request()
            });
            let timing = tracer.span("core.execute", span, done, || core.execute(&request));
            digest.u64(timing.rtt.as_ps());
            if measured {
                latency.record(timing.rtt);
            }
            done += 1;
        }
        tracer.close(span);
        let elapsed = t.elapsed().as_secs_f64();
        if !measured {
            continue;
        }
        report
            .ops_per_s
            .push(REPLAY_ROUND_REQUESTS as f64 / elapsed);
        let stats = core.store_stats().delta(&before);
        report.tally.attempted += REPLAY_ROUND_REQUESTS;
        report.tally.gets += stats.get_hits + stats.get_misses;
        report.tally.hits += stats.get_hits;
        for x in [
            stats.get_hits,
            stats.get_misses,
            stats.sets,
            stats.evictions,
        ] {
            digest.u64(x);
        }
        let cache = core.cache_stats();
        digest.u64(cache.l1_accesses());
        digest.u64(cache.l2_accesses());
        digest.u64(core.device_bytes());
        digest.u64(core.wire_bytes());
        all.u64(digest.value());
        first.get_or_insert(digest);
    }
    finish(&mut report, &latency, first, all, tracer);
    report
}

// -------------------------------------------------------------- cluster

pub const CLUSTER_KEYS: u64 = 1_000_000;
pub const CLUSTER_LOAD: f64 = 0.7;
pub const CLUSTER_GET_REQUESTS: u32 = 240_000;
pub const CLUSTER_MULTIGET_REQUESTS: u32 = 40_000;
pub const CLUSTER_MULTIGET_BATCH: u32 = 8;

/// The two cluster shapes of a round — single GETs and 8-way
/// multigets — each offered 70 % of the load at which its Zipf-hottest
/// core saturates.
pub fn cluster_configs(seed: u64) -> [(&'static str, ClusterConfig); 2] {
    let profile = calibrate(
        "Mercury A7",
        &CoreSimConfig::mercury_a7(),
        SweepEffort::quick(),
    );
    let shape = |workload: ClusterWorkload, requests: u32| {
        let mut config = ClusterConfig::new(profile.clone(), 1.0);
        config.workload = ClusterWorkload {
            key_population: CLUSTER_KEYS,
            ..workload
        };
        config.workload.rate_per_sec = CLUSTER_LOAD * densekv_cluster::effective_capacity(&config);
        config.requests = requests;
        config.warmup = requests / 10;
        config.seed = seed;
        config
    };
    [
        (
            "cluster.run.gets",
            shape(ClusterWorkload::gets(1.0), CLUSTER_GET_REQUESTS),
        ),
        (
            "cluster.run.multigets",
            shape(
                ClusterWorkload::multigets(1.0, CLUSTER_MULTIGET_BATCH),
                CLUSTER_MULTIGET_REQUESTS,
            ),
        ),
    ]
}

fn digest_cluster(digest: &mut Digest, result: &ClusterResult) {
    digest_histogram(digest, &result.latency);
    digest_histogram(digest, &result.shard_latency);
    for x in [
        result.shard_hits,
        result.shard_misses,
        result.dropped,
        result.measured,
    ] {
        digest.u64(x);
    }
    digest.f64(result.throughput_tps);
    digest.f64(result.peak_core_utilization);
}

/// `sim_cluster_tail`: the event-driven cluster model under Zipf
/// clients; every round runs the GET shape, then the multiget shape.
pub fn cluster_pass(seed: u64, rounds: u32, tracer: &mut Tracer) -> PassReport {
    let mut report = PassReport::new("sim_cluster_tail");
    let mut untraced = Tracer::new(false);

    let t0 = Instant::now();
    let mut configs = cluster_configs(seed);
    report.setup_s = t0.elapsed().as_secs_f64();

    let mut latency = LatencyHistogram::new();
    let mut tail = LatencyHistogram::new();
    let mut first = None;
    let mut all = Digest::new();
    let mut done = 0u64;
    let mut ns_per_request = Vec::new();
    for round in 0..=rounds {
        let measured = round > 0;
        let tracer = if measured {
            &mut *tracer
        } else {
            &mut untraced
        };
        let mut digest = Digest::new();
        let mut tally = Tally::default();
        let t = Instant::now();
        let span = tracer.open("round", None, done);
        for (name, config) in &mut configs {
            // A new arrival and popularity stream every round.
            config.seed = seed.wrapping_add(u64::from(round));
            let result = tracer.span(name, span, done, || densekv_cluster::run(config));
            digest_cluster(&mut digest, &result);
            tally.attempted += u64::from(config.requests + config.warmup);
            tally.failed += result.dropped;
            tally.gets += result.shard_hits + result.shard_misses;
            tally.hits += result.shard_hits;
            if measured {
                latency.merge(&result.latency);
                if config.workload.multiget_batch > 1 {
                    tail.merge(&result.latency);
                }
            }
        }
        tracer.close(span);
        let elapsed = t.elapsed().as_secs_f64();
        done += tally.attempted;
        if !measured {
            continue;
        }
        report.ops_per_s.push(tally.attempted as f64 / elapsed);
        ns_per_request.push(elapsed * 1e9 / tally.attempted as f64);
        report.tally.add(&tally);
        all.u64(digest.value());
        first.get_or_insert(digest);
    }
    report.layer.insert(
        "cluster.ns_per_request".into(),
        crate::stats::median(&ns_per_request),
    );
    report.layer.insert(
        "cluster.p99_us".into(),
        tail.percentile(0.99).map_or(0.0, Duration::as_micros_f64),
    );
    finish(&mut report, &latency, first, all, tracer);
    // More than half of the single GETs meet no queue at this load, so
    // their median is the unloaded path whatever the seed. The median
    // that says something is the fan-out's: the slowest of eight legs.
    report.p50_us = vec![tail.percentile(0.5).map_or(0.0, Duration::as_micros_f64)];
    report
}
