//! Replays a seeded GET/PUT workload through one Mercury-A7 core with
//! full telemetry on and emits the observability artifacts:
//!
//! - `results/trace_sample.json` — Chrome trace-event JSON; open in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. Each
//!   sampled request is one row of contiguous phase slices matching
//!   Fig. 4's RTT decomposition (client → wire → NIC → TCP → parse →
//!   hash → store → copy → TCP tx → NIC → wire).
//! - `results/trace_sample.jsonl` — the same spans, one JSON object per
//!   line, for scripted analysis.
//! - `results/timeline.csv` — fixed-interval gauge snapshots (KV and
//!   cache hit rates, cumulative wire traffic) over simulated time.
//!
//! The run is small and deterministic: same binary, same artifacts,
//! every time. `DENSEKV_QUICK=1` shrinks it further for CI smoke runs.

use densekv::observe::{run_observed, CORE_TIMELINE_COLUMNS};
use densekv::sim::{CoreSim, CoreSimConfig};
use densekv_sim::Duration;
use densekv_telemetry::{validate_json, Telemetry, TelemetryConfig};

use crate::{emit_raw, replay_mix, REPLAY_POPULATION, REPLAY_VALUE_BYTES};

/// Runs the experiment and writes its artifacts.
pub fn run() {
    let quick = crate::quick();
    let requests = if quick { 400 } else { 2_000 };
    let mut core = CoreSim::preloaded(
        &CoreSimConfig::mercury_a7(),
        REPLAY_VALUE_BYTES,
        REPLAY_POPULATION,
    );

    let mut tele = Telemetry::enabled(TelemetryConfig {
        sample_every: if quick { 20 } else { 100 },
        timeline_interval: Duration::from_micros(500),
        timeline_columns: CORE_TIMELINE_COLUMNS.to_vec(),
    });
    let latency = run_observed(&mut core, &replay_mix(requests), &mut tele);

    let chrome = tele.tracer.to_chrome_json();
    validate_json(&chrome).expect("emitted trace is valid JSON");
    emit_raw("trace_sample.json", &chrome);
    emit_raw("trace_sample.jsonl", &tele.tracer.to_jsonl());
    emit_raw("timeline.csv", &tele.sampler.to_csv());

    println!(
        "trace_run: {requests} requests, {} spans sampled",
        tele.tracer.spans().len()
    );
    for span in tele.tracer.spans().iter().take(1) {
        println!(
            "  e.g. request #{}: {} phases summing to {:.2} us (= RTT exactly)",
            span.id,
            span.phases.len(),
            span.total().as_micros_f64()
        );
    }
    if let (Some(p50), Some(p99)) = (latency.percentile(0.5), latency.percentile(0.99)) {
        println!(
            "  rtt p50 {:.2} us, p99 {:.2} us",
            p50.as_micros_f64(),
            p99.as_micros_f64()
        );
    }
    println!("{}", tele.metrics.summary());
}
