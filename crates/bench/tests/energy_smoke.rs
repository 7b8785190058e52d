//! CI smoke test for `densekv-bench energy_run`: runs it on the quick
//! config and validates the emitted energy artifacts.
//!
//! Output goes to a scratch directory via `DENSEKV_RESULTS_DIR` so the
//! quick-mode run never overwrites the checked-in `results/` artifacts
//! (those are regenerated only by the full, non-quick `energy_run`).

use std::path::Path;
use std::process::Command;

#[test]
fn energy_run_emits_breakdown_and_timeline_with_positive_joules() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("energy_smoke_results");
    let status = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
        .arg("energy_run")
        .env("DENSEKV_QUICK", "1")
        .env(densekv_bench::RESULTS_DIR_ENV, &results)
        .status()
        .expect("energy_run starts");
    assert!(status.success(), "energy_run exits cleanly");

    let breakdown = std::fs::read_to_string(results.join("energy_breakdown.csv"))
        .expect("energy_breakdown.csv emitted");
    let mut lines = breakdown.lines();
    assert_eq!(
        lines.next(),
        Some("family,component,j_per_op"),
        "breakdown header"
    );
    let mut families = std::collections::HashSet::new();
    let mut total_j = 0.0f64;
    for line in lines {
        let fields: Vec<_> = line.split(',').collect();
        assert_eq!(fields.len(), 3, "malformed row: {line}");
        families.insert(fields[0].to_owned());
        let j: f64 = fields[2].parse().expect("joules parse");
        assert!(j >= 0.0, "negative energy in {line}");
        total_j += j;
    }
    assert!(families.contains("mercury_a7") && families.contains("iridium_a7"));
    assert!(total_j > 0.0, "breakdown accumulates positive joules");

    let timeline = std::fs::read_to_string(results.join("power_timeline.csv"))
        .expect("power_timeline.csv emitted");
    let mut lines = timeline.lines();
    assert_eq!(lines.next(), Some("time_s,watts"), "timeline header");
    let mut rows = 0usize;
    let mut last_t = f64::NEG_INFINITY;
    let mut total_w = 0.0f64;
    for line in lines {
        let fields: Vec<_> = line.split(',').collect();
        assert_eq!(fields.len(), 2, "malformed row: {line}");
        let t: f64 = fields[0].parse().expect("time parses");
        let w: f64 = fields[1].parse().expect("watts parse");
        assert!(t > last_t, "bucket midpoints increase");
        assert!(w >= 0.0);
        last_t = t;
        total_w += w;
        rows += 1;
    }
    assert!(rows >= 2, "timeline spans multiple buckets, got {rows}");
    assert!(total_w > 0.0, "timeline integrates positive power");
}
