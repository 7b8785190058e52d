//! Per-layer timing loops: each layer's public calls, timed from
//! outside with the inputs of the workload that stresses that layer.
//!
//! Host-time rows are the median of a few repetitions of a fixed call
//! count; simulated rows (hit ratios, write amplification, event
//! counts) repeat exactly. None of these is an end-to-end metric: they
//! exist so that a change in one can be matched to the end-to-end
//! number it should move (README, "How the metrics interact").

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use densekv::{run_energy_observed, run_observed, CoreSim, CoreSimConfig, CORE_TIMELINE_COLUMNS};
use densekv_cpu::cache::{Cache, CacheConfig};
use densekv_cpu::CacheHierarchyStats;
use densekv_dht::ConsistentHashRing;
use densekv_engine::Engine;
use densekv_hybrid::{HybridConfig, HybridMemory};
use densekv_kv::protocol::{parse_command, render_end, render_value, Command, Parsed};
use densekv_kv::server::FixedClock;
use densekv_kv::{KvStore, StoreBackend, StoreConfig};
use densekv_mem::dram::{DramConfig, DramStack};
use densekv_mem::flash::FlashConfig;
use densekv_mem::ftl::Ftl;
use densekv_mem::{AccessKind, MemoryTiming};
use densekv_net::{frames_for_payload, TcpCostModel};
use densekv_serve::{BackendKind, MetricsConfig, ServeMetrics, ShardedStore};
use densekv_sim::dist::Zipf;
use densekv_sim::{Scheduler, SplitMix64, SplitRng};
use densekv_telemetry::{MetricsRegistry, Telemetry, TelemetryConfig};
use densekv_workload::{FixedSizeWorkload, Op, Request, RequestGenerator};

use crate::client::{build_get, build_set, Reference, OP_SET};
use crate::live_workloads::{LiveSpec, OpStream, ENGINE_CHURN, MODEL_GET};
use crate::sim_workloads::{cluster_configs, replay_core, replay_stream};
use crate::stats::median;

const REPS: usize = 5;

/// Median host ns per call over [`REPS`] repetitions of `rep`, each of
/// which makes `calls` calls.
fn ns_per_call(calls: u64, mut rep: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            rep();
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

type Rows = BTreeMap<&'static str, f64>;

fn sim_rows(rows: &mut Rows, seed: u64) {
    // The event engine's steady state: pop the earliest event and
    // schedule another, over a standing backlog.
    let mut sched: Scheduler<u32> = Scheduler::new();
    let mut rng = SplitMix64::new(seed);
    let mut delay = move || densekv_sim::Duration::from_nanos(1 + rng.next_below(1 << 20));
    for id in 0..4096u32 {
        sched.schedule_in(delay(), id);
    }
    rows.insert(
        "sim.sched_ns_per_event",
        ns_per_call(200_000, || {
            for _ in 0..200_000 {
                let (_, id) = sched.pop().expect("standing backlog");
                sched.schedule_in(delay(), id);
            }
        }),
    );

    let mut rng = SplitRng::new(seed);
    rows.insert(
        "sim.rng_ns_per_draw",
        ns_per_call(1_000_000, || {
            let mut sum = 0.0;
            for _ in 0..1_000_000 {
                sum += rng.next_f64();
            }
            black_box(sum);
        }),
    );

    let mut stream = replay_stream(seed);
    rows.insert(
        "workload.ns_per_request",
        ns_per_call(200_000, || {
            for _ in 0..200_000 {
                black_box(stream.next_request());
            }
        }),
    );
}

fn cluster_rows(rows: &mut Rows, seed: u64) {
    let [(_, mut gets), _] = cluster_configs(seed);
    let topology = gets.topology;
    let mut ring = ConsistentHashRing::new(topology.vnodes);
    for node in 0..topology.nodes() {
        ring.add_node(node);
    }
    let mut key = 0u64;
    rows.insert(
        "dht.ns_per_lookup",
        ns_per_call(200_000, || {
            for _ in 0..200_000 {
                key += 1;
                black_box(ring.node_for(&key.to_le_bytes()));
            }
        }),
    );

    // The scheduler's own counters, through the telemetry the run
    // fills; telemetry is passive, so the run is the workload's.
    gets.requests = 100_000;
    gets.warmup = 10_000;
    let mut tele = Telemetry {
        metrics: MetricsRegistry::enabled(),
        ..Telemetry::disabled()
    };
    let result = densekv_cluster::run_with_telemetry(&gets, &mut tele);
    let counter = |name: &str| tele.metrics.counter_by_name(name).unwrap_or(0) as f64;
    rows.insert(
        "cluster.events_per_request",
        counter("cluster.sched.pushed") / f64::from(gets.requests + gets.warmup),
    );
    rows.insert("sim.sched_peak_len", counter("cluster.sched.peak_backlog"));
    black_box(result);
}

/// Host ns of one simulated Mercury-A7 GET of `value_bytes`, and the
/// cache model's counters over the timed GETs.
fn core_request_ns(value_bytes: u64, population: u64, calls: u64) -> (f64, CacheHierarchyStats) {
    let mut config = CoreSimConfig::mercury_a7();
    config.store_bytes = config
        .store_bytes
        .max((value_bytes + 4096) * population * 2);
    let mut core = CoreSim::new(config).expect("valid configuration");
    core.preload(value_bytes, population).expect("fits");
    let mut keys = FixedSizeWorkload::new(Op::Get, value_bytes, population, 7);
    let mut request = keys.next_request();
    for _ in 0..calls.min(200) {
        keys.fill_next(&mut request);
        core.execute(&request);
    }
    let before = core.cache_stats();
    let ns = ns_per_call(calls, || {
        for _ in 0..calls {
            keys.fill_next(&mut request);
            black_box(core.execute(&request));
        }
    });
    (ns, core.cache_stats().delta(&before))
}

fn core_rows(rows: &mut Rows, seed: u64) {
    // Small requests never leave the L2; the 1 MB stream does. The
    // hit ratios are taken over all three sizes so that both show.
    let (mut l1, mut l2) = ((0, 0), (0, 0));
    for (name, value_bytes, population, calls) in [
        ("core.ns_per_request_64b", 64, 512, 10_000),
        ("core.ns_per_request_4kb", 4096, 512, 5_000),
        ("core.ns_per_request_1mb", 1 << 20, 16, 20),
    ] {
        let (ns, cache) = core_request_ns(value_bytes, population, calls);
        rows.insert(name, ns);
        l1 = (
            l1.0 + cache.l1i.hits + cache.l1d.hits,
            l1.1 + cache.l1_accesses(),
        );
        let level2 = cache.l2.unwrap_or_default();
        l2 = (l2.0 + level2.hits, l2.1 + level2.accesses());
    }
    rows.insert("cpu.l1_hit_ratio", l1.0 as f64 / l1.1.max(1) as f64);
    rows.insert("cpu.l2_hit_ratio", l2.0 as f64 / l2.1.max(1) as f64);

    // The replay workload's own core and stream: plain execution
    // against the two observers, and the cache model's simulated
    // counters for the residual below.
    let mut core = replay_core(seed);
    let mut stream = replay_stream(seed);
    let requests: Vec<Request> = (0..20_000).map(|_| stream.next_request()).collect();
    for request in &requests {
        core.execute(request);
    }
    let mut plain = Vec::new();
    let mut observed = Vec::new();
    let mut metered = Vec::new();
    let before = core.cache_stats();
    let device_before = core.device_bytes();
    for _ in 0..REPS {
        let t = Instant::now();
        for request in &requests {
            black_box(core.execute(request));
        }
        plain.push(t.elapsed().as_secs_f64());

        let mut tele = Telemetry::enabled(TelemetryConfig {
            timeline_columns: CORE_TIMELINE_COLUMNS.to_vec(),
            ..TelemetryConfig::default()
        });
        let t = Instant::now();
        black_box(run_observed(&mut core, &requests, &mut tele));
        observed.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        black_box(run_energy_observed(
            &mut core,
            &requests,
            &mut Telemetry::disabled(),
            true,
            densekv_sim::Duration::from_micros(500),
        ));
        metered.push(t.elapsed().as_secs_f64());
    }
    let plain_s = median(&plain);
    rows.insert(
        "telemetry.observer_overhead_ratio",
        median(&observed) / plain_s,
    );
    rows.insert("energy.observer_overhead_ratio", median(&metered) / plain_s);

    let executed = (3 * REPS * requests.len()) as f64;
    let cache = core.cache_stats().delta(&before);
    // Calls into each lower layer per replayed request, for
    // `core.residual_share`.
    rows.insert(
        "core.cache_accesses_per_request",
        (cache.l1_accesses() + cache.l2_accesses()) as f64 / executed,
    );
    rows.insert(
        "core.dram_lines_per_request",
        (core.device_bytes() - device_before) as f64 / densekv_mem::LINE_BYTES as f64 / executed,
    );
    rows.insert(
        "core.replay_ns_per_request",
        plain_s * 1e9 / requests.len() as f64,
    );
}

fn device_rows(rows: &mut Rows) {
    let mut cache = Cache::new(CacheConfig::l2_2m());
    let mut line = 0u64;
    rows.insert(
        "cpu.ns_per_cache_access",
        ns_per_call(1_000_000, || {
            for _ in 0..1_000_000 {
                line = (line + 97) % 40_000;
                black_box(cache.access(line));
            }
        }),
    );

    let mut dram = DramStack::new(DramConfig::default());
    let mut line = 0u64;
    rows.insert(
        "mem.dram_ns_per_line",
        ns_per_call(1_000_000, || {
            for _ in 0..1_000_000 {
                line = line.wrapping_add(12_345);
                black_box(dram.line_access(line, AccessKind::Read));
            }
        }),
    );

    // A flash array small enough to reach steady-state garbage
    // collection in a fraction of a second; latencies are Iridium's.
    let flash = FlashConfig {
        planes: 4,
        page_bytes: 8 << 10,
        pages_per_block: 32,
        blocks_per_plane: 64,
        ..FlashConfig::iridium(densekv_sim::Duration::from_micros(10))
    };
    let mut ftl = Ftl::new(flash, 0.125);
    let exported = ftl.exported_pages();
    for lpn in 0..exported {
        ftl.write(lpn).expect("the exported range fits");
    }
    let mut lpn = 0;
    rows.insert(
        "mem.flash_ns_per_page_read",
        ns_per_call(200_000, || {
            for _ in 0..200_000 {
                lpn = (lpn + 1) % exported;
                black_box(ftl.read(lpn).expect("mapped"));
            }
        }),
    );
    rows.insert(
        "mem.ftl_ns_per_page_write",
        ns_per_call(100_000, || {
            for _ in 0..100_000 {
                lpn = (lpn + 7) % exported;
                black_box(ftl.write(lpn).expect("steady state"));
            }
        }),
    );
    rows.insert("mem.ftl_write_amp", ftl.write_amplification());

    // Helios: a DRAM tier over flash, touched page by page under the
    // workloads' Zipf popularity, 1 in 8 accesses a write.
    let config = HybridConfig::helios(16 << 20, densekv_sim::Duration::from_micros(10));
    let lines_per_page = config.flash.lines_per_page();
    let mut hybrid = HybridMemory::new(config);
    let pages = Zipf::new(16_384, densekv_workload::ETC_ZIPF_ALPHA);
    let mut rng = SplitMix64::new(11);
    let mut i = 0u64;
    rows.insert(
        "hybrid.ns_per_access",
        ns_per_call(200_000, || {
            for _ in 0..200_000 {
                i += 1;
                let page = pages.sample(&mut rng) as u64;
                let kind = if i.is_multiple_of(8) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                black_box(hybrid.line_access(page * lines_per_page + i % lines_per_page, kind));
            }
        }),
    );
    rows.insert("hybrid.tier_hit_ratio", hybrid.snapshot().hit_rate());

    let tcp = TcpCostModel::linux();
    let mut payload = 0u64;
    rows.insert(
        "net.ns_per_exchange_cost",
        ns_per_call(1_000_000, || {
            for _ in 0..1_000_000 {
                payload = (payload + 997) % 65_536;
                black_box(tcp.exchange_cost(1, frames_for_payload(payload)));
            }
        }),
    );
}

/// `n` requests of `spec`'s stream, as protocol bytes.
fn request_bytes(spec: &LiveSpec, reference: &Reference, ops: &[u32]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for &op in ops {
        let key = op & !OP_SET;
        if op & OP_SET != 0 {
            build_set(&mut bytes, reference.key(key), key, 1, spec.sizes.of(key));
        } else {
            build_get(&mut bytes, reference.key(key));
        }
    }
    bytes
}

/// Parses `bytes` the way the server's connection loop meets them: in
/// socket reads of at most 16 KB, draining every complete command after
/// each. (The whole stream in one buffer would time something no
/// server does: every parse splits the buffer it is given.)
fn parse_chunked(bytes: &[u8], mut each: impl FnMut(Command)) {
    const READ_CHUNK: usize = 16 << 10;
    let mut rx = BytesMut::with_capacity(2 * READ_CHUNK);
    for chunk in bytes.chunks(READ_CHUNK) {
        rx.extend_from_slice(chunk);
        while let Ok(Parsed::Complete(command)) = parse_command(&mut rx) {
            each(command);
        }
    }
}

fn parse_all(bytes: &[u8]) -> Vec<Command> {
    let mut commands = Vec::new();
    parse_chunked(bytes, |command| commands.push(command));
    commands
}

fn protocol_rows(rows: &mut Rows, seed: u64) {
    const COMMANDS: usize = 100_000;
    let spec = &MODEL_GET;
    let reference = Reference::new(spec.keys, spec.sizes, false);
    let ops = OpStream::new(spec, seed).take(COMMANDS);
    let bytes = request_bytes(spec, &reference, &ops);

    rows.insert(
        "kv.parse_ns_per_cmd",
        ns_per_call(COMMANDS as u64, || {
            let mut parsed = 0;
            parse_chunked(&bytes, |command| {
                black_box(command);
                parsed += 1;
            });
            assert_eq!(parsed, COMMANDS, "the client's requests parse");
        }),
    );

    let mut store = KvStore::new(StoreConfig::with_capacity(64 << 20));
    store
        .set(reference.key(0), vec![7; 64], None, 0)
        .expect("fits");
    let hit = store.get(reference.key(0), 0).expect("resident");
    let mut out = BytesMut::with_capacity(1 << 20);
    rows.insert(
        "kv.render_ns_per_reply",
        ns_per_call(COMMANDS as u64, || {
            for i in 0..COMMANDS {
                render_value(&mut out, reference.key(0), &hit, false);
                render_end(&mut out);
                if i % 1024 == 0 {
                    out.clear();
                }
            }
        }),
    );

    // The serving layer's dispatch, with and without the metrics
    // plane, on the store the live workload preloads.
    let clock = FixedClock(0);
    let sharded =
        ShardedStore::new_with_backend(StoreConfig::with_capacity(64 << 20), 8, BackendKind::Model);
    let all_keys: Vec<u32> = (0..spec.keys).map(|k| k | OP_SET).collect();
    for command in parse_all(&request_bytes(spec, &reference, &all_keys)) {
        sharded.dispatch(command, &clock, &mut out);
        out.clear();
    }
    let metrics = ServeMetrics::new(&MetricsConfig::default(), sharded.shard_count());
    let mut plain = Vec::new();
    let mut timed = Vec::new();
    for _ in 0..REPS {
        let commands = parse_all(&bytes);
        let t = Instant::now();
        for command in commands {
            sharded.dispatch(command, &clock, &mut out);
            out.clear();
        }
        plain.push(t.elapsed().as_nanos() as f64 / COMMANDS as f64);

        let commands = parse_all(&bytes);
        let t = Instant::now();
        for command in commands {
            sharded.dispatch_timed(command, &clock, &mut out, &metrics);
            out.clear();
        }
        timed.push(t.elapsed().as_nanos() as f64 / COMMANDS as f64);
    }
    rows.insert("serve.dispatch_ns_per_cmd", median(&plain));
    rows.insert("serve.dispatch_timed_ns_per_cmd", median(&timed));
    rows.insert(
        "serve.metrics_overhead_ratio",
        median(&timed) / median(&plain),
    );
}

/// What a store under the churn stream reports.
struct StoreRows {
    get_ns: f64,
    set_ns: f64,
    evictions_per_set: f64,
    charged_bytes_per_user_byte: f64,
}

/// Drives `store` directly with `spec`'s stream: preload, then
/// alternating blocks of GETs and SETs in steady state.
fn store_rows(
    store: &mut dyn StoreBackend,
    spec: &LiveSpec,
    seed: u64,
    charged_bytes: impl Fn(&dyn StoreBackend) -> u64,
) -> StoreRows {
    const BLOCK: usize = 100_000;
    let reference = Reference::new(spec.keys, spec.sizes, spec.evicts);
    let value = |key: u32| vec![key as u8; spec.sizes.of(key)];
    for key in 0..spec.keys {
        store
            .set_with_flags(reference.key(key), value(key), 0, None, 0)
            .expect("a store with eviction takes every SET");
    }
    let mut stream = OpStream::new(spec, seed);
    let mut gets = Vec::new();
    let mut sets = Vec::new();
    let mut evictions_per_set = Vec::new();
    for _ in 0..REPS {
        let keys: Vec<u32> = stream.take(BLOCK).iter().map(|op| op & !OP_SET).collect();
        let t = Instant::now();
        for &key in &keys {
            black_box(store.get(reference.key(key), 0));
        }
        gets.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);

        let keys: Vec<u32> = stream.take(BLOCK).iter().map(|op| op & !OP_SET).collect();
        let before = store.stats().evictions;
        let t = Instant::now();
        for &key in &keys {
            black_box(store.set_with_flags(reference.key(key), value(key), 0, None, 0)).ok();
        }
        sets.push(t.elapsed().as_nanos() as f64 / BLOCK as f64);
        evictions_per_set.push((store.stats().evictions - before) as f64 / BLOCK as f64);
    }
    let charged = charged_bytes(store);
    let mut user = 0u64;
    for key in 0..spec.keys {
        if let Some(hit) = store.get(reference.key(key), 0) {
            user += (reference.key(key).len() + hit.value().len()) as u64;
        }
    }
    StoreRows {
        get_ns: median(&gets),
        set_ns: median(&sets),
        evictions_per_set: median(&evictions_per_set),
        charged_bytes_per_user_byte: charged as f64 / user.max(1) as f64,
    }
}

fn store_layer_rows(rows: &mut Rows, seed: u64) {
    // The model store as the GET workload uses it (everything
    // resident), except that its eviction row needs the churn stream.
    let mut model = KvStore::new(StoreConfig::with_capacity(64 << 20));
    let resident = store_rows(&mut model, &MODEL_GET, seed, |s| s.stats().bytes);
    rows.insert("kv.get_ns", resident.get_ns);
    rows.insert("kv.set_ns", resident.set_ns);
    rows.insert(
        "kv.charged_bytes_per_user_byte",
        resident.charged_bytes_per_user_byte,
    );
    let mut model = KvStore::new(StoreConfig::with_capacity(64 << 20));
    let churned = store_rows(&mut model, &ENGINE_CHURN, seed, |s| s.stats().bytes);
    rows.insert("kv.evictions_per_set", churned.evictions_per_set);

    let mut engine = Engine::new(StoreConfig::with_capacity(64 << 20));
    let churned = store_rows(&mut engine, &ENGINE_CHURN, seed, |s| {
        s.backend_stat_lines()
            .iter()
            .find(|(name, _)| name == "engine_charged_bytes")
            .map_or(0, |(_, bytes)| *bytes)
    });
    rows.insert("engine.get_ns", churned.get_ns);
    rows.insert("engine.set_ns", churned.set_ns);
    rows.insert("engine.evictions_per_set", churned.evictions_per_set);
    rows.insert(
        "engine.charged_bytes_per_user_byte",
        churned.charged_bytes_per_user_byte,
    );
    let lookups: u64 = (1..=densekv_engine::PROBE_LIMIT)
        .map(|p| engine.probe_count(p))
        .sum();
    let probes: u64 = (1..=densekv_engine::PROBE_LIMIT)
        .map(|p| p as u64 * engine.probe_count(p))
        .sum();
    rows.insert(
        "engine.probe_len_mean",
        probes as f64 / lookups.max(1) as f64,
    );
    rows.insert("engine.doublings", engine.doublings() as f64);
}

fn host_rows(rows: &mut Rows) {
    let window = Duration::from_millis(400);
    rows.insert("host.stall_share_1t", crate::host::stall_share(1, window));
    rows.insert("host.stall_share_2t", crate::host::stall_share(2, window));
    rows.insert("host.cores", crate::host::cores() as f64);
}

/// Every timing loop, one after another on this thread (the host rows
/// briefly use two).
pub fn probe_all(seed: u64) -> Rows {
    let mut rows = Rows::new();
    sim_rows(&mut rows, seed);
    cluster_rows(&mut rows, seed);
    core_rows(&mut rows, seed);
    device_rows(&mut rows);
    protocol_rows(&mut rows, seed);
    store_layer_rows(&mut rows, seed);
    host_rows(&mut rows);
    rows
}
