//! Performance-trajectory regression gate.
//!
//! Re-times the hot-path ledger (`densekv_bench::hotpaths`, the loops
//! `bench_report` baselines) and compares it against the checked-in
//! baseline (`results/BENCH_hotpaths.json`). Raw nanoseconds are not
//! comparable across machines, so every ratio is
//! **normalized by a calibration path** (`cache_l1_mru_hit` — a tiny,
//! allocation-free, branch-predictable loop whose cost tracks the
//! host's single-core speed, not this codebase): a path only fails the
//! gate when it got slower *relative to how much the host itself
//! differs from the baseline machine*.
//!
//! Exit code is non-zero when any path's normalized slowdown exceeds
//! the tolerance (`DENSEKV_PERF_TOLERANCE`, default 0.20 = 20%). A
//! missing baseline degrades to measure-and-report (exit 0), so the
//! gate never blocks a fresh checkout.
//!
//! Emits `results/BENCH_trajectory.csv` — one row per hot path with
//! baseline, current, raw ratio, normalized ratio, and verdict.
//!
//! `DENSEKV_QUICK=1` uses fewer timing repetitions;
//! `DENSEKV_PERF_BASELINE` points at an alternate baseline file.

use densekv_bench::hotpaths::{measure, CALIBRATION};

/// Pulls `"key": <float>` out of the baseline JSON without a JSON
/// dependency — the file is machine-written with a fixed shape.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let quick = std::env::var("DENSEKV_QUICK").is_ok_and(|v| v != "0");
    let tolerance: f64 = std::env::var("DENSEKV_PERF_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.20);
    let baseline_path = std::env::var("DENSEKV_PERF_BASELINE")
        .unwrap_or_else(|_| "results/BENCH_hotpaths.json".to_owned());

    eprintln!("[perf_gate] timing hot paths (quick={quick})...");
    let current = measure(quick);

    let baseline_text = std::fs::read_to_string(&baseline_path).ok();
    let baseline = |key: &str| {
        baseline_text
            .as_deref()
            .and_then(|text| json_number(text, key))
    };

    // Host-speed calibration: how much faster/slower this machine runs
    // the calibration loop than the machine that wrote the baseline.
    let cal_now = current
        .iter()
        .find(|(name, _)| *name == CALIBRATION)
        .map_or(1.0, |&(_, ns)| ns);
    let cal_base = baseline(CALIBRATION).unwrap_or(cal_now);
    let host_factor = cal_now / cal_base.max(f64::MIN_POSITIVE);

    let mut csv = String::from("path,baseline_ns,current_ns,raw_ratio,normalized_ratio,status\n");
    let mut failed = Vec::new();
    println!("perf trajectory vs {baseline_path} (host factor {host_factor:.2}x):");
    for &(name, now_ns) in &current {
        let Some(base_ns) = baseline(name) else {
            csv.push_str(&format!("{name},,{now_ns:.1},,,no_baseline\n"));
            println!("  {name:<28} {now_ns:>12.1} ns (no baseline)");
            continue;
        };
        let raw = now_ns / base_ns.max(f64::MIN_POSITIVE);
        let normalized = raw / host_factor.max(f64::MIN_POSITIVE);
        // The calibration path defines the host factor; its own
        // normalized ratio is 1.0 by construction and never gates.
        let gated = name != CALIBRATION;
        let status = if gated && normalized > 1.0 + tolerance {
            failed.push((name, normalized));
            "FAIL"
        } else if gated {
            "ok"
        } else {
            "calibration"
        };
        csv.push_str(&format!(
            "{name},{base_ns:.1},{now_ns:.1},{raw:.3},{normalized:.3},{status}\n"
        ));
        println!(
            "  {name:<28} {base_ns:>10.1} -> {now_ns:>10.1} ns  \
             raw x{raw:.2}  normalized x{normalized:.2}  [{status}]"
        );
    }
    densekv_bench::emit_raw("BENCH_trajectory.csv", &csv);

    if baseline_text.is_none() {
        eprintln!("[perf_gate] no baseline at {baseline_path}; reporting only, not gating");
        return;
    }
    if failed.is_empty() {
        eprintln!(
            "[perf_gate] gate passed: every hot path within {:.0}% of baseline (normalized)",
            tolerance * 100.0
        );
    } else {
        for (name, normalized) in &failed {
            eprintln!(
                "[perf_gate] GATE FAILED: {name} is x{normalized:.2} the baseline \
                 (normalized; tolerance {:.0}%)",
                tolerance * 100.0
            );
        }
        std::process::exit(1);
    }
}
