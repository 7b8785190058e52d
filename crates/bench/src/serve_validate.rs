//! The simulator as timing oracle: drives the *real* TCP front-end
//! (`densekv-serve`) and the *simulator* under Poisson arrivals
//! (`densekv::stack_sim`) through the same working points and compares
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

use densekv::report::TextTable;
use densekv::stack_sim::{self, Arrivals, StackSimConfig};
use densekv::CoreSimConfig;
use densekv_serve::{
    preload, run_closed_loop, run_open_loop, spawn, ClosedLoopConfig, LoadMix, OpenLoopConfig,
    ServeConfig,
};

use crate::{emit_raw, us};

/// Keys in play on both planes — the simulated core and the live
/// server each preload all of them, so both serve an all-resident
/// working set.
const POPULATION: u64 = 128;
/// GET fraction — the ETC mix both planes run.
const GET_FRACTION: f64 = densekv_workload::ETC_GET_FRACTION;
/// Seed for every stream in this experiment.
const SEED: u64 = 0xA11CE;
/// Load fractions (of each plane's own closed-loop capacity).
const LOADS: [f64; 2] = [0.3, 0.7];

/// One working point at one load, as the summary table shows it.
struct ValidateRow {
    family: &'static str,
    value_bytes: u64,
    load: f64,
    sim_p50: f64,
    sim_p99: f64,
    real_p50: f64,
    real_p99: f64,
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

    let mut csv = String::from(
        "family,value_bytes,load_fraction,workers,\
         sim_offered_rps,sim_utilization,sim_p50_us,sim_p95_us,sim_p99_us,sim_sla_1ms,\
         real_offered_rps,real_achieved_rps,real_p50_us,real_p95_us,real_p99_us,\
         real_late_fraction\n",
    );
    let mut rows: Vec<ValidateRow> = Vec::new();
    for (family, per_core, value_bytes) in points {
        // One simulated core on the ETC mix. Its closed-loop capacity is
        // a cold run (no warm-up) read as requests per second of
        // server-side busy time.
        let mut sim = StackSimConfig {
            per_core,
            cores: 1,
            value_bytes,
            arrivals: Arrivals::Closed,
            get_fraction: GET_FRACTION,
            population: POPULATION,
            requests_per_core: sim_requests,
            warmup_per_core: 0,
            seed: SEED,
        };
        let sim_cap = f64::from(sim_requests) / stack_sim::run(&sim).busy.as_secs_f64();
        sim.warmup_per_core = sim_warmup;

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
            sim.arrivals = Arrivals::Poisson {
                rate_per_sec: sim_cap * load,
            };
            let sim_result = stack_sim::run(&sim);
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
            csv.push_str(&format!(
                "{family},{value_bytes},{load:.2},{workers},{:.1},{:.4},{:.2},{:.2},{:.2},{:.4},\
                 {:.1},{:.1},{:.2},{:.2},{:.2},{:.4}\n",
                sim_cap * load,
                sim_result.utilization,
                sq(0.50),
                sq(0.95),
                sq(0.99),
                sim_result.sla_1ms(),
                real.offered_rps,
                real.achieved_rps,
                rq(0.50),
                rq(0.95),
                rq(0.99),
                real.late_fraction,
            ));
            rows.push(ValidateRow {
                family,
                value_bytes,
                load,
                sim_p50: sq(0.50),
                sim_p99: sq(0.99),
                real_p50: rq(0.50),
                real_p99: rq(0.99),
            });
        }
        server.shutdown();
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
