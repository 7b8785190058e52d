//! Runs the Helios DRAM-tier size sweep (`densekv::experiments::hybrid`)
//! and emits its artifacts:
//!
//! - `results/hybrid_sweep.csv` — latency percentiles (Fig. 5/6 axes),
//!   tier hit rate, per-stack capacity, and analytic vs *measured*
//!   KTPS/W for each (workload, design) point.
//! - `results/hybrid_power.csv` — the per-tier power split (DRAM-tier
//!   vs flash-array bandwidth and watts at their separate Table 1
//!   rates), measured stack watts, per-op joules, and the FTL pressure
//!   counters (GC traffic, writeback coalescing).
//!
//! Deterministic: same binary, same artifacts, every time.
//! `DENSEKV_QUICK=1` shrinks the run for CI smoke tests.

use densekv::experiments::hybrid;

use crate::{effort, emit_raw, jobs};

fn sweep_csv(points: &[hybrid::HybridPoint]) -> String {
    let mut out = String::from(
        "workload,family,dram_tier_mb,value_bytes,requests,tier_hit_rate,\
         mean_rtt_us,p50_us,p95_us,p99_us,stack_tps,capacity_gb,\
         ktps_per_watt_analytic,ktps_per_watt_measured\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{:.4},{:.3},{:.3},{:.3},{:.3},{:.1},{:.2},{:.4},{:.4}\n",
            p.workload,
            p.family,
            p.dram_tier_mb,
            hybrid::VALUE_BYTES,
            p.requests,
            p.tier_hit_rate,
            p.mean_rtt_us,
            p.p50_us,
            p.p95_us,
            p.p99_us,
            p.tps,
            p.capacity_gb,
            p.ktps_per_watt,
            p.measured_ktps_per_watt,
        ));
    }
    out
}

fn power_csv(points: &[hybrid::HybridPoint]) -> String {
    let mut out = String::from(
        "workload,family,dram_tier_mb,dram_gbps,flash_gbps,dram_w,flash_w,\
         stack_w_analytic,stack_w_measured,j_per_op,memory_j_per_op,\
         gc_moved_pages,gc_erased_blocks,writebacks,programs_coalesced\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.3},{:.3},{:.6e},{:.6e},{},{},{},{}\n",
            p.workload,
            p.family,
            p.dram_tier_mb,
            p.dram_gbps,
            p.flash_gbps,
            p.dram_w,
            p.flash_w,
            p.stack_w_analytic,
            p.stack_w_measured,
            p.j_per_op,
            p.memory_j_per_op,
            p.gc_moved_pages,
            p.gc_erased_blocks,
            p.writebacks,
            p.programs_coalesced,
        ));
    }
    out
}

/// Runs the experiment and writes its artifacts.
pub fn run() {
    let points = hybrid::run(effort(), jobs());
    emit_raw("hybrid_sweep.csv", &sweep_csv(&points));
    emit_raw("hybrid_power.csv", &power_csv(&points));

    println!("{}", hybrid::sweep_table(&points));
    println!();
    println!("{}", hybrid::power_table(&points));
}
