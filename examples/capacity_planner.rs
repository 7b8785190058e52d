//! Capacity planner: the paper's motivating question — given a dataset
//! and a request rate, how much data-center space does each architecture
//! burn?
//!
//! Usage: `cargo run --release --example capacity_planner [dataset_tb] [mtps]`
//! Defaults: 28 TB (Facebook's published 2008 Memcached footprint, §2.3)
//! at 20 MTPS.

use densekv::System;
use densekv_baseline::BAGS;
use densekv_server::{plan_fleet, Demand, ServerReport};

fn main() {
    let mut args = std::env::args().skip(1);
    let dataset_tb: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(28.0);
    let target_mtps: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20.0);
    let demand = Demand {
        dataset_gb: dataset_tb * 1000.0,
        rate_tps: target_mtps * 1e6,
    };
    println!("Planning for {dataset_tb} TB of cache at {target_mtps} MTPS (64 B GETs)\n");

    let mut candidates: Vec<(&str, ServerReport)> = vec![
        ("Mercury-32 (3D DRAM)", System::mercury().evaluate_quick(64)),
        (
            "Iridium-32 (3D flash)",
            System::iridium().evaluate_quick(64),
        ),
    ];
    // The Xeon baseline as a pseudo-report from Table 4's Bags row.
    candidates.push((
        "Xeon + Memcached Bags",
        ServerReport {
            name: "Bags".into(),
            stacks: 0,
            cores: BAGS.cores,
            memory_gb: BAGS.memory_gb,
            power_w: BAGS.power_w,
            tps: BAGS.mtps * 1e6,
            ktps_per_watt: BAGS.ktps_per_watt(),
            ktps_per_gb: BAGS.ktps_per_gb(),
            wire_gbps: BAGS.bandwidth_gbps,
            mem_gbps: 0.0,
            area_cm2: 0.0,
        },
    ));

    println!(
        "{:<24} {:>10} {:>12} {:>9} {:>10}",
        "architecture", "servers", "bound by", "racks", "kW"
    );
    for (name, report) in &candidates {
        let fleet = plan_fleet(report, &demand);
        println!(
            "{:<24} {:>10} {:>12} {:>9.1} {:>10.1}",
            name,
            fleet.servers,
            if fleet.capacity_bound {
                "capacity"
            } else {
                "rate"
            },
            fleet.racks,
            fleet.total_kw
        );
    }
    println!(
        "\nThe paper's claim in action: for capacity-bound fleets, 3D stacking\n\
         collapses the footprint (Iridium most of all); rate-bound fleets\n\
         lean on Mercury's throughput."
    );
}
