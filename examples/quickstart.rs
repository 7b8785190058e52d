//! Quickstart: simulate one Mercury core and one Iridium core serving
//! 64 B GETs, then project both to a full 1.5U server.
//!
//! Run with: `cargo run --release --example quickstart`

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::sweep::{measure_point, SweepEffort};
use densekv::System;
use densekv_workload::{key_bytes, Op, Request};

fn main() {
    // --- 1. One simulated core, one request. ---------------------------
    let mut core = CoreSim::preloaded(&CoreSimConfig::mercury_a7(), 64, 100);
    let timing = core.execute(&Request {
        op: Op::Get,
        key: key_bytes(0),
        value_bytes: 64,
    });
    println!("One cold 64 B GET on a Mercury A7 core:");
    println!("  round-trip       {}", timing.rtt);
    println!("  server time      {}", timing.server);
    println!(
        "  breakdown        network {} | store {} | hash {}",
        timing.network, timing.store, timing.hash
    );

    // --- 2. Steady-state per-core throughput. --------------------------
    let effort = SweepEffort::quick();
    let mercury = measure_point(&CoreSimConfig::mercury_a7(), 64, effort);
    let iridium = measure_point(&CoreSimConfig::iridium_a7(), 64, effort);
    println!("\nSteady-state 64 B GETs, one core:");
    println!("  Mercury (DRAM)   {:>8.1} KTPS", mercury.get.tps / 1000.0);
    println!("  Iridium (flash)  {:>8.1} KTPS", iridium.get.tps / 1000.0);

    // --- 3. Project to a full 1.5U server (Table 4's headline). --------
    for (label, system) in [
        ("Mercury-32", System::mercury()),
        ("Iridium-32", System::iridium()),
    ] {
        let report = system.evaluate_quick(64);
        println!(
            "\n{label}: {} stacks ({} cores), {:.0} GB, {:.0} W",
            report.stacks, report.cores, report.memory_gb, report.power_w
        );
        println!(
            "  {:.1} MTPS | {:.1} KTPS/W | {:.1} KTPS/GB",
            report.tps / 1e6,
            report.ktps_per_watt,
            report.ktps_per_gb
        );
    }
    println!(
        "\n(Compare Table 4: Mercury-32 32.7 MTPS / 54.8 KTPS/W; Iridium-32 16.5 MTPS, 1.9 TB.)"
    );
}
