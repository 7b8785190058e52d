//! CI smoke test for `densekv-bench trace_run`: runs it on the quick
//! config and validates the emitted artifacts with the in-tree JSON
//! checker — no external tooling.
//!
//! Output goes to a scratch directory via `DENSEKV_RESULTS_DIR` so the
//! quick-mode run never overwrites the checked-in `results/` artifacts
//! (those are regenerated only by the full, non-quick `trace_run`).

use std::path::Path;
use std::process::Command;

use densekv_telemetry::validate_json;

#[test]
fn trace_run_emits_a_valid_trace_with_complete_spans() {
    let results = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace_smoke_results");
    let status = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
        .arg("trace_run")
        .env("DENSEKV_QUICK", "1")
        .env(densekv_bench::RESULTS_DIR_ENV, &results)
        .status()
        .expect("trace_run starts");
    assert!(status.success(), "trace_run exits cleanly");
    let chrome = std::fs::read_to_string(results.join("trace_sample.json"))
        .expect("trace_sample.json emitted");
    validate_json(&chrome).expect("trace JSON parses");
    let complete_spans = chrome.matches("\"ph\":\"X\"").count();
    assert!(
        complete_spans >= 1,
        "trace holds at least one complete ('X') event, got {complete_spans}"
    );

    let jsonl = std::fs::read_to_string(results.join("trace_sample.jsonl"))
        .expect("trace_sample.jsonl emitted");
    for line in jsonl.lines().filter(|l| !l.is_empty()) {
        validate_json(line).expect("each JSONL line parses");
    }

    let timeline =
        std::fs::read_to_string(results.join("timeline.csv")).expect("timeline.csv emitted");
    let mut lines = timeline.lines();
    assert_eq!(
        lines.next(),
        Some("t_us,kv_hit_rate,l1d_hit_rate,l2_hit_rate,wire_mb"),
        "timeline header names the core gauges"
    );
    assert!(
        lines.next().is_some(),
        "timeline has at least one sample row"
    );
}
