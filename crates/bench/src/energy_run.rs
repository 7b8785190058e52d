//! Replays a seeded GET/PUT workload through one Mercury-A7 and one
//! Iridium-A7 core with energy metering on and emits the energy
//! artifacts:
//!
//! - `results/energy_breakdown.csv` — mean joules per operation, split
//!   by the 11 RTT phases (time-proportional static draw) plus the
//!   activity-proportional memory and cache rows, for both families.
//! - `results/power_timeline.csv` — watts vs simulated time for the
//!   Mercury run (fixed-width buckets integrating every charge).
//!
//! The run also prints the measured vs analytic power cross-check: the
//! integrated event-driven watts land on the §5.4 `stack_power()` model
//! at the observed bandwidth (the `energy_converges_to_stack_power`
//! test pins this to 1 %).
//!
//! Deterministic: same binary, same artifacts, every time.
//! `DENSEKV_QUICK=1` shrinks the run for CI smoke tests.

use densekv::energy::{run_energy_observed, EnergyRun};
use densekv::sim::{CoreSim, CoreSimConfig};
use densekv_sim::Duration;
use densekv_stack::power::{energy_rates, stack_power};
use densekv_telemetry::Telemetry;

use crate::{emit_raw, replay_mix, REPLAY_POPULATION, REPLAY_VALUE_BYTES};

fn metered_run(config: &CoreSimConfig, requests: u64) -> (CoreSim, EnergyRun) {
    let mut core = CoreSim::preloaded(config, REPLAY_VALUE_BYTES, REPLAY_POPULATION);
    let run = run_energy_observed(
        &mut core,
        &replay_mix(requests),
        &mut Telemetry::disabled(),
        true,
        Duration::from_micros(500),
    );
    (core, run)
}

fn breakdown_rows(family: &str, run: &EnergyRun, out: &mut String) {
    for (phase, j) in run.per_op.phases() {
        out.push_str(&format!("{family},{phase},{j:.6e}\n"));
    }
    out.push_str(&format!("{family},memory,{:.6e}\n", run.per_op.memory_j));
    out.push_str(&format!(
        "{family},cache_l1,{:.6e}\n",
        run.per_op.cache_l1_j
    ));
    out.push_str(&format!(
        "{family},cache_l2,{:.6e}\n",
        run.per_op.cache_l2_j
    ));
}

fn report(family: &str, core: &CoreSim, run: &EnergyRun) {
    let stack = core.config().stack_config().expect("one-core stack");
    let gbps = run.observed_mem_gbps(&energy_rates(&stack));
    let analytic_w = stack_power(&stack, gbps).total_w();
    println!(
        "{family}: {} requests in {:.2} ms sim-time",
        run.requests,
        run.elapsed.as_secs_f64() * 1e3
    );
    println!(
        "  measured {:.4} W vs analytic stack_power {:.4} W at {gbps:.4} GB/s",
        run.measured_watts(),
        analytic_w
    );
    println!(
        "  {:.3} mJ/op, measured {:.1} TPS/W",
        run.j_per_op() * 1e3,
        run.measured_tps_per_watt()
    );
    for (component, j) in run.meter.rows() {
        println!("    {component:>12}: {j:.6} J");
    }
}

/// Runs the experiment and writes its artifacts.
pub fn run() {
    let quick = crate::quick();
    let requests = if quick { 400 } else { 2_000 };

    let (mercury_core, mercury) = metered_run(&CoreSimConfig::mercury_a7(), requests);
    let (iridium_core, iridium) = metered_run(&CoreSimConfig::iridium_a7(), requests);

    let mut breakdown = String::from("family,component,j_per_op\n");
    breakdown_rows("mercury_a7", &mercury, &mut breakdown);
    breakdown_rows("iridium_a7", &iridium, &mut breakdown);
    emit_raw("energy_breakdown.csv", &breakdown);
    emit_raw("power_timeline.csv", &mercury.timeline.to_csv());

    report("mercury_a7", &mercury_core, &mercury);
    report("iridium_a7", &iridium_core, &iridium);
}
