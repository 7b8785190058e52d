//! Runs the live TCP front-end (`densekv-serve`) against itself on
//! localhost: preload, a closed-loop capacity probe, then open-loop
//! runs at rising fractions of that capacity.
//!
//! Emits `results/serve_run.csv` — one row per run mode with achieved
//! throughput, hit rate, and wall-clock latency percentiles. Unlike
//! every simulated experiment, the *timings* in this artifact are not
//! deterministic (they are real sockets on whatever machine runs this);
//! the request streams themselves are seeded and exactly reproducible.
//!
//! `DENSEKV_QUICK=1` shrinks the run for CI smoke tests; `--jobs N`
//! sets the client connection count; the store behind the sockets is
//! the one [`BackendKind::from_env`] names.

use densekv::report::TextTable;
use densekv_serve::{
    preload, run_closed_loop, run_open_loop, spawn, BackendKind, ClosedLoopConfig, LoadMix,
    LoadReport, OpenLoopConfig, ServeConfig,
};

use crate::{emit_raw, us};

fn quantile_us(report: &LoadReport, q: f64) -> f64 {
    report.latency.percentile(q).map_or(0.0, us)
}

struct Row {
    mode: String,
    report: LoadReport,
}

/// Runs the experiment and writes its artifacts.
pub fn run() {
    let quick = crate::quick();
    let workers = crate::jobs().get().clamp(2, 8);
    let keys = if quick { 256 } else { 4096 };
    let closed_requests = if quick { 300 } else { 5_000 };
    let open_millis = if quick { 300 } else { 2_000 };

    let backend = BackendKind::from_env();
    let server = spawn(ServeConfig::ephemeral().with_backend(backend)).expect("bind localhost");
    let addr = server.addr();
    let mix = LoadMix::etc(keys, 256, 0xA11CE);
    let warmed = preload(addr, &mix).expect("preload");
    eprintln!(
        "[serve_run] {warmed} keys preloaded on {addr} ({} backend), {workers} client connections",
        backend.as_str()
    );

    let mut rows = Vec::new();
    let capacity = {
        let report = run_closed_loop(&ClosedLoopConfig {
            addr,
            workers,
            requests_per_worker: closed_requests,
            mix: mix.clone(),
        })
        .expect("closed loop");
        let capacity = report.achieved_rps;
        rows.push(Row {
            mode: "closed".into(),
            report,
        });
        capacity
    };

    for fraction in [0.3, 0.6, 0.9] {
        let report = run_open_loop(&OpenLoopConfig {
            addr,
            workers,
            offered_rps: capacity * fraction,
            duration: std::time::Duration::from_millis(open_millis),
            mix: mix.clone(),
        })
        .expect("open loop");
        rows.push(Row {
            mode: format!("open-{:.0}%", fraction * 100.0),
            report,
        });
    }

    let mut csv = String::from(
        "mode,workers,offered_rps,achieved_rps,requests,errors,get_hits,\
         get_misses,p50_us,p95_us,p99_us,late_fraction\n",
    );
    let mut table = TextTable::new(
        [
            "mode", "offered", "achieved", "reqs", "p50 us", "p95 us", "p99 us", "late",
        ]
        .map(String::from)
        .to_vec(),
    )
    .with_title("live front-end on localhost (wall-clock timings, not simulated)");
    for Row { mode, report } in &rows {
        csv.push_str(&format!(
            "{},{},{:.1},{:.1},{},{},{},{},{:.1},{:.1},{:.1},{:.4}\n",
            mode,
            workers,
            report.offered_rps,
            report.achieved_rps,
            report.requests,
            report.errors,
            report.get_hits,
            report.get_misses,
            quantile_us(report, 0.50),
            quantile_us(report, 0.95),
            quantile_us(report, 0.99),
            report.late_fraction,
        ));
        table.row(vec![
            mode.clone(),
            format!("{:.0}", report.offered_rps),
            format!("{:.0}", report.achieved_rps),
            format!("{}", report.requests),
            format!("{:.1}", quantile_us(report, 0.50)),
            format!("{:.1}", quantile_us(report, 0.95)),
            format!("{:.1}", quantile_us(report, 0.99)),
            format!("{:.3}", report.late_fraction),
        ]);
    }
    emit_raw("serve_run.csv", &csv);
    println!("{table}");

    let stats = server.shutdown();
    eprintln!(
        "[serve_run] server: {} connections, {} commands, {} protocol errors, {} busy rejections",
        stats.accepted, stats.commands, stats.protocol_errors, stats.rejected_busy
    );
}
