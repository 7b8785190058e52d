//! CI smoke test for `densekv-bench hybrid_run`: runs the Helios tier
//! sweep end-to-end on the quick config and validates both artifacts.
//!
//! Output goes to a scratch directory via `DENSEKV_RESULTS_DIR` so the
//! quick-mode run never overwrites the checked-in `results/` artifacts
//! (those are regenerated only by the full, non-quick `hybrid_run`).

use std::path::Path;
use std::process::Command;

#[test]
fn hybrid_run_emits_sweep_and_power_artifacts() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hybrid_smoke_results");
    let status = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
        .arg("hybrid_run")
        .env("DENSEKV_QUICK", "1")
        .env(densekv_bench::RESULTS_DIR_ENV, &results)
        .status()
        .expect("hybrid_run starts");
    assert!(status.success(), "hybrid_run exits cleanly");

    let sweep =
        std::fs::read_to_string(results.join("hybrid_sweep.csv")).expect("hybrid_sweep.csv");
    let mut lines = sweep.lines();
    let header = lines.next().expect("header");
    assert!(header.starts_with("workload,family,dram_tier_mb"));
    assert!(header.contains("ktps_per_watt_measured"));
    let mut families = std::collections::HashSet::new();
    let mut rows = 0usize;
    for line in lines {
        let fields: Vec<_> = line.split(',').collect();
        assert_eq!(fields.len(), 14, "malformed row: {line}");
        families.insert(fields[1].to_owned());
        let p95: f64 = fields[8].parse().expect("p95 parses");
        let measured: f64 = fields[13].parse().expect("measured KTPS/W parses");
        assert!(p95 > 0.0 && measured > 0.0, "degenerate row: {line}");
        rows += 1;
    }
    assert!(rows >= 6, "sweep covers baselines plus tier sizes: {rows}");
    for family in ["Mercury-32", "Iridium-32", "Helios-32"] {
        assert!(families.contains(family), "missing {family}");
    }

    let power =
        std::fs::read_to_string(results.join("hybrid_power.csv")).expect("hybrid_power.csv");
    let mut lines = power.lines();
    assert!(lines
        .next()
        .expect("header")
        .starts_with("workload,family,dram_tier_mb,dram_gbps,flash_gbps"));
    let mut helios_split = false;
    for line in lines {
        let fields: Vec<_> = line.split(',').collect();
        assert_eq!(fields.len(), 15, "malformed row: {line}");
        let dram_w: f64 = fields[5].parse().expect("dram_w parses");
        let flash_w: f64 = fields[6].parse().expect("flash_w parses");
        if fields[1] == "Helios-32" && dram_w > 0.0 && flash_w > 0.0 {
            helios_split = true;
        }
    }
    assert!(helios_split, "some Helios point draws on both tiers");
}
