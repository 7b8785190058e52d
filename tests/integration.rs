//! Cross-crate integration tests: whole request paths through the
//! protocol codec, the store, the simulator, the DHT, and the server
//! planner together.

use bytes::BytesMut;
use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::sweep::{measure_point, SweepEffort};
use densekv_dht::ConsistentHashRing;
use densekv_kv::protocol::{parse_command, Command, Parsed};
use densekv_kv::server::serve_buffer;
use densekv_kv::store::{KvStore, StoreConfig};
use densekv_server::{evaluate_server, plan_server, ServerConstraints};
use densekv_stack::StackConfig;
use densekv_workload::{key_bytes, MixedWorkload, Op, Request, RequestGenerator};

#[test]
fn protocol_store_roundtrip_over_byte_stream() {
    let mut store = KvStore::new(StoreConfig::with_capacity(8 << 20));
    let response = serve_buffer(
        &mut store,
        b"set greeting 5 0 11\r\nhello world\r\nget greeting missing\r\nquit\r\n",
        0,
    );
    let text = String::from_utf8(response).expect("ascii protocol");
    assert_eq!(
        text,
        "STORED\r\nVALUE greeting 5 11\r\nhello world\r\nEND\r\n"
    );
}

#[test]
fn client_codec_roundtrip_through_server() {
    // Build requests with the client codec, serve them, parse the
    // responses with the client codec — a full in-process loopback.
    use densekv_kv::client::{parse_reply, Reply, RequestBuilder};
    let mut store = KvStore::new(StoreConfig::with_capacity(8 << 20));
    let mut builder = RequestBuilder::new();
    builder
        .set(b"user:1", b"alice", 0, 0)
        .set(b"hits", b"41", 0, 0)
        .incr_decr(b"hits", 1, false)
        .get(b"user:1");
    let out = serve_buffer(&mut store, &builder.take(), 0);
    let mut buf = BytesMut::from(&out[..]);
    let mut replies = Vec::new();
    while let Some(reply) = parse_reply(&mut buf).expect("well-formed") {
        replies.push(reply);
    }
    assert_eq!(replies[0], Reply::Stored);
    assert_eq!(replies[1], Reply::Stored);
    assert_eq!(replies[2], Reply::Number(42));
    match &replies[3] {
        Reply::Values(values) => assert_eq!(values[0].data, b"alice"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn pipelined_commands_split_across_reads() {
    // The codec must handle a set whose data block arrives in pieces.
    let mut store = KvStore::new(StoreConfig::with_capacity(8 << 20));
    let full = b"set k 0 0 6\r\nabc".to_vec();
    let mut buf = BytesMut::from(&full[..]);
    assert_eq!(parse_command(&mut buf).expect("parse"), Parsed::Incomplete);
    buf.extend_from_slice(b"def\r\n");
    match parse_command(&mut buf).expect("parse") {
        Parsed::Complete(Command::Set { data, .. }) => {
            store.set(b"k", data.to_vec(), None, 0).expect("fits");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(store.get(b"k", 0).expect("hit").value(), b"abcdef");
}

#[test]
fn simulated_cluster_routes_and_serves_by_arc() {
    // 8 single-core stacks behind a consistent-hash ring: the client
    // routes each key to its arc owner; every owner serves from its own
    // store. This is the paper's deployment (one Memcached per core).
    const NODES: u32 = 8;
    let mut ring = ConsistentHashRing::new(8);
    for n in 0..NODES {
        ring.add_node(n);
    }
    let mut cores: Vec<CoreSim> = (0..NODES)
        .map(|_| CoreSim::new(CoreSimConfig::mercury_a7()).expect("valid"))
        .collect();

    let mut workload = MixedWorkload::etc_like(500, 99);
    // Populate every key on its owning node.
    for id in 0..500u64 {
        let key = key_bytes(id);
        let node = ring.node_for(&key).expect("ring nonempty") as usize;
        cores[node].preload_one(&key, 256).expect("fits");
    }
    let mut served = vec![0u64; NODES as usize];
    let mut misses = 0;
    for _ in 0..400 {
        let request = workload.next_request();
        let node = ring.node_for(&request.key).expect("ring nonempty") as usize;
        let timing = cores[node].execute(&request);
        served[node] += 1;
        if !timing.hit {
            misses += 1;
        }
    }
    assert_eq!(misses, 0, "every key was preloaded on its owner");
    let active = served.iter().filter(|&&s| s > 0).count();
    assert!(active >= 6, "traffic spreads across nodes: {served:?}");
}

#[test]
fn end_to_end_table4_mercury_band() {
    // Per-core measurement -> stack -> server, crossing four crates, must
    // land in the published band (Table 4: 32.7 MTPS, 54.8 KTPS/W).
    let point = measure_point(&CoreSimConfig::mercury_a7(), 64, SweepEffort::quick());
    let stack = StackConfig::mercury(densekv_cpu::CoreConfig::a7_1ghz(), 32, true).expect("valid");
    let plan = plan_server(
        &ServerConstraints::paper_1p5u(),
        stack,
        32.0 * point.get.perf.mem_gbps,
    );
    let report = evaluate_server(&plan, point.get.perf);
    assert!(
        (24e6..42e6).contains(&report.tps),
        "Mercury-32 TPS {:.1} M",
        report.tps / 1e6
    );
    assert!(
        (40.0..75.0).contains(&report.ktps_per_watt),
        "efficiency {:.1} KTPS/W",
        report.ktps_per_watt
    );
}

#[test]
fn iridium_put_pressure_exercises_flash_writes() {
    // A PUT-heavy Iridium workload: writes are slow (200 us programs) but
    // must stay functional — every overwritten key reads back.
    let mut core = CoreSim::new(CoreSimConfig::iridium_a7()).expect("valid");
    core.preload(1024, 32).expect("fits");
    let mut total_put_time = densekv_sim::Duration::ZERO;
    for _round in 0..3 {
        for id in 0..32u64 {
            let timing = core.execute(&Request {
                op: Op::Put,
                key: key_bytes(id),
                value_bytes: 1024,
            });
            total_put_time += timing.rtt;
        }
    }
    // 96 PUTs at sub-1KTPS rates: total simulated time beyond 50 ms.
    assert!(
        total_put_time > densekv_sim::Duration::from_millis(50),
        "flash PUTs are expensive: {total_put_time}"
    );
    // All values still served.
    for id in 0..32u64 {
        let timing = core.execute(&Request {
            op: Op::Get,
            key: key_bytes(id),
            value_bytes: 1024,
        });
        assert!(timing.hit, "key {id} must be resident after overwrites");
    }
}

#[test]
fn sla_holds_for_small_mercury_but_degrades_for_large_iridium() {
    // The paper's SLA framing: sub-millisecond for the bulk of requests.
    let sla = densekv_sim::Duration::from_millis(1);
    let mercury = measure_point(&CoreSimConfig::mercury_a7(), 1024, SweepEffort::quick());
    assert!(
        mercury.get.latency.fraction_within(sla) > 0.99,
        "Mercury small GETs are sub-ms"
    );
    let iridium_large = measure_point(
        &CoreSimConfig::iridium_a7(),
        256 << 10,
        SweepEffort::quick(),
    );
    assert!(
        iridium_large.get.latency.fraction_within(sla) < 0.5,
        "large flash reads blow the SLA (the Iridium trade-off)"
    );
}

#[test]
fn workspace_constants_are_mutually_consistent() {
    // Spot-check cross-crate invariants the experiments rely on.
    // Stack capacity feeds server density:
    let stack = StackConfig::iridium(densekv_cpu::CoreConfig::a7_1ghz(), 32).expect("valid");
    let plan = plan_server(&ServerConstraints::paper_1p5u(), stack, 0.5);
    assert_eq!(plan.stacks, 96);
    assert!((plan.density_gb() - 96.0 * 19.8).abs() < 1.0);
    // The wire cap used by the server model matches the net crate's.
    let wire = densekv_net::Wire::ten_gbe();
    assert!(wire.payload_bandwidth_bps() < 1.25e9);
}

#[test]
fn simulations_are_bit_reproducible() {
    // The workspace's determinism claim: identical configs produce
    // identical results, across all three simulation modes.
    let a = measure_point(&CoreSimConfig::mercury_a7(), 1024, SweepEffort::quick());
    let b = measure_point(&CoreSimConfig::mercury_a7(), 1024, SweepEffort::quick());
    assert_eq!(a.get.tps.to_bits(), b.get.tps.to_bits());
    assert_eq!(a.put.mean_rtt, b.put.mean_rtt);
    assert_eq!(a.get.perf.mem_gbps.to_bits(), b.get.perf.mem_gbps.to_bits());

    use densekv::stack_sim::{run, Arrivals, StackSimConfig};
    for arrivals in [
        Arrivals::Closed,
        Arrivals::Poisson {
            rate_per_sec: 2_000.0,
        },
    ] {
        let mut config = StackSimConfig::mercury_a7(4, 64);
        config.per_core = CoreSimConfig::iridium_a7();
        config.arrivals = arrivals;
        let (x, y) = (run(&config), run(&config));
        assert_eq!(x.latency.percentile(0.99), y.latency.percentile(0.99));
        assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
        assert_eq!(x.aggregate_tps.to_bits(), y.aggregate_tps.to_bits());
    }
}

#[test]
fn chrome_trace_export_is_stable() {
    // Golden-file check: the Chrome trace-event JSON for a tiny seeded
    // cluster run must be byte-stable. If a deliberate change to the
    // simulator or exporter moves it, regenerate with
    // `BLESS=1 cargo test -p densekv --test integration chrome_trace`.
    use densekv_cluster::{run_with_telemetry, ClusterConfig, ServiceProfile, TIMELINE_COLUMNS};
    use densekv_sim::Duration;
    use densekv_telemetry::{validate_json, Telemetry, TelemetryConfig};

    let mut config = ClusterConfig::new(ServiceProfile::synthetic(), 200_000.0);
    config.requests = 40;
    config.warmup = 10;
    config.seed = 7;
    let mut tele = Telemetry::enabled(TelemetryConfig {
        sample_every: 10,
        timeline_interval: Duration::from_micros(250),
        timeline_columns: TIMELINE_COLUMNS.to_vec(),
    });
    run_with_telemetry(&config, &mut tele);
    let json = tele.tracer.to_chrome_json();
    validate_json(&json).expect("exported trace is valid JSON");
    assert!(
        !tele.tracer.spans().is_empty(),
        "tiny run still samples spans"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/cluster_trace.json"
    );
    if std::env::var("BLESS").is_ok_and(|v| v != "0") {
        std::fs::write(path, &json).expect("bless golden file");
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists (BLESS=1 to create)");
    assert_eq!(
        json, golden,
        "Chrome trace JSON drifted from tests/golden/cluster_trace.json; \
         re-bless only if the change is intentional"
    );
}
