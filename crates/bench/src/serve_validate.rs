//! The simulator as timing oracle: drives the *real* TCP front-end
//! (`densekv-serve`) and the open-loop *simulator*
//! (`densekv::openloop`) through the same working points and compares
//! their latency-under-load behavior.
//!
//! An x86 dev box on loopback is orders of magnitude faster than a
//! simulated 3D-stacked A7, so absolute latencies are not comparable.
//! What *is* comparable is the shape queueing theory pins down: both
//! planes are driven at the same **fraction of their own closed-loop
//! capacity**, and the artifact records how each plane's percentiles
//! inflate as that fraction rises. If the simulator's queueing model is
//! right, its relative inflation from light to heavy load tracks the
//! real server's.
//!
//! Emits `results/serve_validate.csv` — one row per
//! (family, value size, load fraction), carrying both planes'
//! percentiles. Simulated columns are deterministic; real columns are
//! wall-clock (the request streams behind them are seeded and exact).
//!
//! `DENSEKV_QUICK=1` shrinks the run for CI; `--jobs N` sets the client
//! connection count.

use densekv::openloop;
use densekv::report::TextTable;
use densekv::CoreSimConfig;
use densekv_serve::{
    preload, run_closed_loop, run_open_loop, spawn, ClosedLoopConfig, LoadMix, OpenLoopConfig,
    ServeConfig,
};
use densekv_sim::{Duration, SplitMix64};
use densekv_workload::{FixedSizeWorkload, Op, RequestGenerator};

use crate::{emit_raw, us};

/// Keys in play — matches the simulator's open-loop population so both
/// planes serve an all-resident working set.
const POPULATION: u64 = 128;
/// GET fraction — the ETC mix both planes run.
const GET_FRACTION: f64 = densekv_workload::ETC_GET_FRACTION;
/// Seed for every stream in this experiment.
const SEED: u64 = 0xA11CE;
/// Load fractions (of each plane's own closed-loop capacity).
const LOADS: [f64; 2] = [0.3, 0.7];

/// The simulated core's closed-loop capacity: back-to-back requests,
/// saturation rate = requests per second of server-side busy time.
fn sim_capacity(family: &CoreSimConfig, value_bytes: u64, requests: u32) -> f64 {
    let mut core = densekv::CoreSim::preloaded(family, value_bytes, POPULATION);
    let mut rng = SplitMix64::new(SEED);
    let mut gets = FixedSizeWorkload::new(Op::Get, value_bytes, POPULATION, SEED);
    let mut puts = FixedSizeWorkload::new(Op::Put, value_bytes, POPULATION, !SEED);
    let mut busy = Duration::ZERO;
    for _ in 0..requests {
        let request = if rng.next_bool(GET_FRACTION) {
            gets.next_request()
        } else {
            puts.next_request()
        };
        busy += core.execute(&request).server;
    }
    f64::from(requests) / busy.as_secs_f64()
}

struct ValidateRow {
    family: &'static str,
    value_bytes: u64,
    load: f64,
    sim_offered: f64,
    sim_util: f64,
    sim_p50: f64,
    sim_p95: f64,
    sim_p99: f64,
    sim_sla: f64,
    real_offered: f64,
    real_achieved: f64,
    real_p50: f64,
    real_p95: f64,
    real_p99: f64,
    real_late: f64,
}

/// Runs the experiment and writes its artifacts.
pub fn run() {
    let quick = crate::quick();
    let workers = crate::jobs().get().clamp(2, 8);
    let sim_requests = if quick { 250 } else { 2_000 };
    let sim_warmup = if quick { 150 } else { 500 };
    let closed_requests = if quick { 200 } else { 1_500 };
    let open_millis = if quick { 300 } else { 1_500 };

    let points: [(&'static str, CoreSimConfig, u64); 3] = [
        ("Mercury", CoreSimConfig::mercury_a7(), 64),
        ("Mercury", CoreSimConfig::mercury_a7(), 1024),
        ("Iridium", CoreSimConfig::iridium_a7(), 64),
    ];

    let mut rows: Vec<ValidateRow> = Vec::new();
    for (family, sim, value_bytes) in points {
        let sim_cap = sim_capacity(&sim, value_bytes, sim_requests);

        // A fresh server per working point: fresh store, fresh counters.
        let server = spawn(ServeConfig::ephemeral()).expect("bind localhost");
        let addr = server.addr();
        let mix = LoadMix::etc(POPULATION as usize, value_bytes, SEED ^ value_bytes);
        preload(addr, &mix).expect("preload");
        let real_cap = run_closed_loop(&ClosedLoopConfig {
            addr,
            workers,
            requests_per_worker: closed_requests,
            mix: mix.clone(),
        })
        .expect("closed-loop capacity probe")
        .achieved_rps;
        eprintln!(
            "[serve_validate] {family} @{value_bytes} B: sim capacity {sim_cap:.0} rps, \
             real capacity {real_cap:.0} rps ({workers} connections)"
        );

        for load in LOADS {
            let sim_result = openloop::run(&openloop::OpenLoopConfig {
                sim: sim.clone(),
                value_bytes,
                rate_per_sec: sim_cap * load,
                get_fraction: GET_FRACTION,
                requests: sim_requests,
                warmup: sim_warmup,
                seed: SEED,
            });
            let real = run_open_loop(&OpenLoopConfig {
                addr,
                workers,
                offered_rps: real_cap * load,
                duration: std::time::Duration::from_millis(open_millis),
                mix: mix.clone(),
            })
            .expect("open loop");
            let sq = |q| sim_result.latency.percentile(q).map_or(0.0, us);
            let rq = |q| real.latency.percentile(q).map_or(0.0, us);
            rows.push(ValidateRow {
                family,
                value_bytes,
                load,
                sim_offered: sim_result.offered_rate,
                sim_util: sim_result.utilization,
                sim_p50: sq(0.50),
                sim_p95: sq(0.95),
                sim_p99: sq(0.99),
                sim_sla: sim_result.sla_1ms,
                real_offered: real.offered_rps,
                real_achieved: real.achieved_rps,
                real_p50: rq(0.50),
                real_p95: rq(0.95),
                real_p99: rq(0.99),
                real_late: real.late_fraction,
            });
        }
        server.shutdown();
    }

    let mut csv = String::from(
        "family,value_bytes,load_fraction,workers,\
         sim_offered_rps,sim_utilization,sim_p50_us,sim_p95_us,sim_p99_us,sim_sla_1ms,\
         real_offered_rps,real_achieved_rps,real_p50_us,real_p95_us,real_p99_us,\
         real_late_fraction\n",
    );
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{:.2},{},{:.1},{:.4},{:.2},{:.2},{:.2},{:.4},{:.1},{:.1},{:.2},{:.2},{:.2},{:.4}\n",
            r.family,
            r.value_bytes,
            r.load,
            workers,
            r.sim_offered,
            r.sim_util,
            r.sim_p50,
            r.sim_p95,
            r.sim_p99,
            r.sim_sla,
            r.real_offered,
            r.real_achieved,
            r.real_p50,
            r.real_p95,
            r.real_p99,
            r.real_late,
        ));
    }
    emit_raw("serve_validate.csv", &csv);

    let mut table = TextTable::new(
        [
            "family", "size", "load", "sim p50", "sim p99", "real p50", "real p99",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title("simulator vs live server, each at the named fraction of its own capacity (us)");
    for r in &rows {
        table.row(vec![
            r.family.to_owned(),
            format!("{} B", r.value_bytes),
            format!("{:.0}%", r.load * 100.0),
            format!("{:.1}", r.sim_p50),
            format!("{:.1}", r.sim_p99),
            format!("{:.1}", r.real_p50),
            format!("{:.1}", r.real_p99),
        ]);
    }
    println!("{table}");

    // The oracle check: within each working point, both planes must see
    // latency inflate from the light to the heavy load fraction.
    println!("latency inflation, 30% -> 70% of capacity (p99 ratio):");
    for pair in rows.chunks(2) {
        let [light, heavy] = pair else { continue };
        let sim_inflation = heavy.sim_p99 / light.sim_p99.max(f64::MIN_POSITIVE);
        let real_inflation = heavy.real_p99 / light.real_p99.max(f64::MIN_POSITIVE);
        println!(
            "  {:>8} @{:>5} B   simulated x{:.2}   real x{:.2}",
            light.family, light.value_bytes, sim_inflation, real_inflation
        );
    }
}
