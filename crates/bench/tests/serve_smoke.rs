//! CI smoke tests for the live front-end: an in-process server driven
//! through a few client connections, and the `serve_*` and `top`
//! subcommands of `densekv-bench` end-to-end in quick mode.
//!
//! Everything here carries a hard timeout — a wedged accept loop or a
//! lost shutdown wakeup must fail the suite, not hang it.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use densekv_serve::{
    preload, run_closed_loop, spawn, ClosedLoopConfig, Connection, LoadMix, ServeConfig,
};

/// Runs `body` on a watched thread; panics if it outlives `limit`.
fn with_deadline<F: FnOnce() + Send + 'static>(limit: Duration, body: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(limit) {
        Ok(()) => worker.join().expect("smoke body panicked"),
        Err(_) => panic!("smoke test exceeded its {limit:?} deadline"),
    }
}

#[test]
fn serve_smoke_mixed_traffic_over_an_ephemeral_port() {
    with_deadline(Duration::from_secs(60), || {
        let server = spawn(ServeConfig::ephemeral()).expect("bind ephemeral port");
        let addr = server.addr();
        let mix = LoadMix::etc(128, 128, 42);
        preload(addr, &mix).expect("preload");

        // Mixed get/set round-robin over four connections: each key is
        // set on one connection and read back on the next.
        let mut conns: Vec<Connection> = (0..4)
            .map(|_| Connection::connect(addr).expect("connect"))
            .collect();
        for i in 0..50usize {
            let key = format!("smoke{i}");
            assert!(conns[i % 4].set(key.as_bytes(), b"v").unwrap());
            assert!(conns[(i + 1) % 4].get(key.as_bytes()).unwrap().is_some());
        }

        // A load-generator pass fills a non-empty latency histogram.
        let report = run_closed_loop(&ClosedLoopConfig {
            addr,
            workers: 2,
            requests_per_worker: 100,
            mix,
        })
        .expect("closed loop");
        assert_eq!(report.requests, 200);
        assert_eq!(report.errors, 0);
        assert!(report.latency.count() == 200, "histogram filled");
        assert!(report.latency.percentile(0.99).is_some());

        // Clean shutdown, with the counters accounting for the traffic.
        let stats = server.shutdown();
        assert!(stats.commands >= 300);
        assert_eq!(stats.rejected_busy, 0);
    });
}

#[test]
fn serve_run_binary_emits_its_artifact() {
    with_deadline(Duration::from_secs(120), || {
        let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_run_results");
        let started = Instant::now();
        let status = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
            .env("DENSEKV_QUICK", "1")
            .env(densekv_bench::RESULTS_DIR_ENV, &results)
            .args(["serve_run", "--jobs", "2"])
            .status()
            .expect("serve_run starts");
        assert!(status.success(), "serve_run exits cleanly");
        eprintln!("[serve_smoke] serve_run took {:?}", started.elapsed());

        let csv = std::fs::read_to_string(results.join("serve_run.csv")).expect("serve_run.csv");
        let mut lines = csv.lines();
        assert!(lines
            .next()
            .expect("header")
            .starts_with("mode,workers,offered_rps"));
        let rows: Vec<_> = lines.collect();
        assert!(rows.len() >= 4, "closed + 3 open-loop rows: {rows:?}");
        for line in &rows {
            let fields: Vec<_> = line.split(',').collect();
            assert_eq!(fields.len(), 12, "malformed row: {line}");
            let achieved: f64 = fields[3].parse().expect("achieved_rps parses");
            let p99: f64 = fields[10].parse().expect("p99 parses");
            assert!(achieved > 0.0 && p99 > 0.0, "degenerate row: {line}");
        }
    });
}

#[test]
fn serve_run_serves_the_backend_the_environment_names() {
    with_deadline(Duration::from_secs(120), || {
        let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_run_engine_results");
        let output = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
            .env("DENSEKV_QUICK", "1")
            .env("DENSEKV_SERVE_BACKEND", "engine")
            .env(densekv_bench::RESULTS_DIR_ENV, &results)
            .args(["serve_run", "--jobs", "2"])
            .output()
            .expect("serve_run starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "serve_run exits cleanly\n{stderr}");
        assert!(
            stderr.contains("engine backend"),
            "serve_run must serve the engine:\n{stderr}"
        );
    });
}

#[test]
fn serve_obs_binary_cross_checks_server_and_client_percentiles() {
    with_deadline(Duration::from_secs(120), || {
        let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_obs_results");
        let status = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
            .env("DENSEKV_QUICK", "1")
            // The metrics-overhead gate compares two wall-clock rates and
            // is its own CI step; under a parallel `cargo test` it would
            // measure the neighbouring tests.
            .env_remove("DENSEKV_OBS_GATE")
            .env(densekv_bench::RESULTS_DIR_ENV, &results)
            .args(["serve_obs", "--jobs", "2"])
            .status()
            .expect("serve_obs starts");
        assert!(status.success(), "serve_obs exits cleanly");

        let csv =
            std::fs::read_to_string(results.join("serve_metrics.csv")).expect("serve_metrics.csv");
        let mut lines = csv.lines();
        assert!(lines
            .next()
            .expect("header")
            .starts_with("source,name,count,p50_us"));
        let p95_of = |source: &str, name: &str| -> Option<f64> {
            csv.lines()
                .find(|l| l.starts_with(&format!("{source},{name},")))
                .map(|l| l.split(',').nth(5).expect("p95 column").parse().unwrap())
        };
        // Both instruments saw the same fixed-seed traffic, and the
        // server-side p95 (in-server time) nests inside the client-side
        // p95 (full scheduled round trip) — the agreement the plane's
        // honesty rests on.
        let server_p95 = p95_of("server", "all").expect("server row");
        let client_p95 = p95_of("client", "all").expect("client row");
        assert!(server_p95 > 0.0, "server-side percentiles are live");
        assert!(client_p95 > 0.0, "client-side percentiles are live");
        assert!(
            server_p95 <= client_p95,
            "server p95 {server_p95} us must nest inside client p95 {client_p95} us"
        );
        // Per-verb server rows exist for the mix's verbs.
        for verb in ["get", "set"] {
            assert!(
                p95_of("server", verb).is_some_and(|p| p > 0.0),
                "missing server-side {verb} row"
            );
        }
        // Overhead rows carry throughput for both plane settings.
        for name in ["metrics_on", "metrics_off"] {
            let row = csv
                .lines()
                .find(|l| l.starts_with(&format!("overhead,{name},")))
                .unwrap_or_else(|| panic!("missing overhead row {name}"));
            let rps: f64 = row.split(',').next_back().unwrap().parse().unwrap();
            assert!(rps > 0.0, "degenerate overhead row: {row}");
        }

        // The sampled trace is valid Chrome-trace JSON with phase events.
        let trace =
            std::fs::read_to_string(results.join("serve_trace.json")).expect("serve_trace.json");
        densekv_telemetry::validate_json(&trace).expect("trace parses as JSON");
        for phase in ["recv", "parse", "shard-lock", "store", "write"] {
            assert!(trace.contains(&format!("\"name\":\"{phase}\"")), "{phase}");
        }

        // The flight-recorder dump is valid JSON carrying the window
        // ring and the SLO ledger.
        let recorder = std::fs::read_to_string(results.join("flight_recorder.json"))
            .expect("flight_recorder.json");
        densekv_telemetry::validate_json(&recorder).expect("recorder parses as JSON");
        assert!(recorder.contains("\"format\":\"densekv-flight-recorder-v1\""));
        for section in ["\"slo\":", "\"windows\":", "\"trace\":"] {
            assert!(recorder.contains(section), "missing {section}");
        }
    });
}

#[test]
fn densekv_top_quick_mode_renders_live_windowed_percentiles() {
    with_deadline(Duration::from_secs(120), || {
        // The subcommand exits non-zero if no windowed percentiles ever
        // appear, so a clean exit already proves the plane is live; the
        // output checks pin the dashboard's shape.
        let output = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
            .env("DENSEKV_QUICK", "1")
            .args(["top", "--frames", "4", "--interval-ms", "250"])
            .output()
            .expect("densekv-top starts");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            output.status.success(),
            "densekv-top exits cleanly\n--- stdout\n{stdout}\n--- stderr\n{stderr}"
        );
        for needle in [
            "densekv-top  frame 4",
            "slo: p<",
            "rates (last window / ewma):",
            "  get",
            "  p95 ",
            "shard lock contention:",
        ] {
            assert!(stdout.contains(needle), "missing {needle:?}:\n{stdout}");
        }
        assert!(stderr.contains("rendered 4 frames"), "{stderr}");
    });
}

#[test]
fn serve_validate_binary_compares_both_planes() {
    with_deadline(Duration::from_secs(180), || {
        let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_validate_results");
        let status = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
            .env("DENSEKV_QUICK", "1")
            .env(densekv_bench::RESULTS_DIR_ENV, &results)
            .args(["serve_validate", "--jobs", "2"])
            .status()
            .expect("serve_validate starts");
        assert!(status.success(), "serve_validate exits cleanly");

        let csv = std::fs::read_to_string(results.join("serve_validate.csv"))
            .expect("serve_validate.csv");
        let mut lines = csv.lines();
        assert!(lines
            .next()
            .expect("header")
            .starts_with("family,value_bytes,load_fraction"));
        let mut families = std::collections::HashSet::new();
        let mut rows = 0usize;
        for line in lines {
            let fields: Vec<_> = line.split(',').collect();
            assert_eq!(fields.len(), 16, "malformed row: {line}");
            families.insert(fields[0].to_owned());
            let sim_p99: f64 = fields[8].parse().expect("sim p99 parses");
            let real_p99: f64 = fields[14].parse().expect("real p99 parses");
            assert!(sim_p99 > 0.0 && real_p99 > 0.0, "degenerate row: {line}");
            rows += 1;
        }
        assert!(rows >= 4, "at least 2 working points x 2 loads: {rows}");
        assert!(families.contains("Mercury") && families.contains("Iridium"));
    });
}
