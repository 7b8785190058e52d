//! `densekv-bench top` (densekv-top) — a live ASCII dashboard over the
//! serve observability plane, in the spirit of `top`/`memcached-tool`.
//!
//! Each frame polls `stats windows`, `stats slo`, and `stats shards`
//! over the wire — the same in-band verbs any operator tooling would
//! use; the dashboard holds no privileged handle to the server — and
//! renders:
//!
//! * per-verb request rates (last closed window + EWMA) with bars,
//! * p50/p95/p99 sparklines across the retained window ring,
//! * per-shard lock-contention bars,
//! * the SLO burn gauge (short/long window) and alert state.
//!
//! With `--addr HOST:PORT` it attaches to a running `densekv-serve`
//! front-end. Without it, it self-hosts: spawns a server on an
//! ephemeral port plus a background open-loop load generator, so
//! `cargo run --release -p densekv-bench -- top` shows a live board out
//! of the box.
//!
//! `--frames N` renders N frames and exits — quick mode for CI, which
//! also fails the process if no windowed percentiles ever appeared
//! (the smoke check that the plane is real). `--interval-ms M` sets
//! the refresh period. `DENSEKV_QUICK=1` defaults to `--frames 5`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use densekv_serve::{
    preload, run_open_loop, spawn, Connection, LoadMix, MetricsConfig, OpenLoopConfig, ServeConfig,
};

/// Key population of the self-hosted load.
const POPULATION: usize = 128;
/// Value bytes of the self-hosted load.
const VALUE_BYTES: u64 = 64;
/// Seed of the self-hosted load.
const SEED: u64 = 0x70B;
/// Offered rate of the self-hosted load generator.
const SELF_LOAD_RPS: f64 = 10_000.0;
/// Width of the rate/contention bars.
const BAR_WIDTH: usize = 24;
/// ASCII luminance ramp for sparklines, dim to bright.
const RAMP: &[u8] = b" .:-=+*#%@";

/// One `stats <verb>` round trip parsed into `key -> value`.
fn stats_map(conn: &mut Connection, request: &[u8]) -> BTreeMap<String, String> {
    conn.text_block(request)
        .expect("stats round trip")
        .iter()
        .filter_map(|line| {
            let rest = line.strip_prefix("STAT ")?;
            let (k, v) = rest.split_once(' ')?;
            Some((k.to_owned(), v.to_owned()))
        })
        .collect()
}

fn get_f64(map: &BTreeMap<String, String>, key: &str) -> f64 {
    map.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

fn get_u64(map: &BTreeMap<String, String>, key: &str) -> u64 {
    map.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// `# `-bar of `frac` (clamped to [0, 1]) at [`BAR_WIDTH`].
fn bar(frac: f64) -> String {
    let filled = (frac.clamp(0.0, 1.0) * BAR_WIDTH as f64).round() as usize;
    let mut out = String::with_capacity(BAR_WIDTH + 2);
    out.push('[');
    for i in 0..BAR_WIDTH {
        out.push(if i < filled { '#' } else { ' ' });
    }
    out.push(']');
    out
}

/// ASCII sparkline of `values`, scaled to their own maximum.
fn sparkline(values: &[f64]) -> String {
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                ' '
            } else {
                let idx = (v / max * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[idx.min(RAMP.len() - 1)] as char
            }
        })
        .collect()
}

/// The per-window series of one `win_<idx>_<stat>` column, in index
/// order.
fn window_series(windows: &BTreeMap<String, String>, stat: &str) -> Vec<(u64, f64)> {
    let mut series: Vec<(u64, f64)> = windows
        .iter()
        .filter_map(|(k, v)| {
            let idx: u64 = k.strip_prefix("win_")?.split('_').next()?.parse().ok()?;
            let value: f64 = k.ends_with(stat).then(|| v.parse().ok())??;
            Some((idx, value))
        })
        .collect();
    series.sort_unstable_by_key(|&(idx, _)| idx);
    series
}

/// Renders one frame; returns true when windowed percentiles appeared.
fn render_frame(conn: &mut Connection, frame: u64, live: bool) -> bool {
    let windows = stats_map(conn, b"stats windows\r\n");
    let slo = stats_map(conn, b"stats slo\r\n");
    let shards = stats_map(conn, b"stats shards\r\n");

    let mut out = String::new();
    if live {
        // Clear screen and home the cursor, plain ANSI.
        out.push_str("\x1b[2J\x1b[H");
    }
    let alerting = get_u64(&slo, "slo_alerting") == 1;
    out.push_str(&format!(
        "densekv-top  frame {frame}  window {} ms  closed {}  retained {}{}\n",
        get_u64(&windows, "window_ms"),
        get_u64(&windows, "windows_closed"),
        get_u64(&windows, "windows_retained"),
        if alerting { "  ** SLO ALERT **" } else { "" },
    ));
    out.push_str(&format!(
        "slo: p<{:.0}us target {:.2}  burn short {:.2} long {:.2}  bad {}/{}\n",
        get_f64(&slo, "slo_objective_us"),
        get_f64(&slo, "slo_target"),
        get_f64(&slo, "slo_short_burn"),
        get_f64(&slo, "slo_long_burn"),
        get_u64(&slo, "slo_bad"),
        get_u64(&slo, "slo_total"),
    ));

    // Per-verb rates, bars scaled to the busiest verb.
    let rates: Vec<(String, f64, f64)> = windows
        .iter()
        .filter_map(|(k, v)| {
            let verb = k.strip_prefix("rate_")?;
            if verb.ends_with("_ewma") {
                return None;
            }
            let ewma = get_f64(&windows, &format!("rate_{verb}_ewma"));
            Some((verb.to_owned(), v.parse().ok()?, ewma))
        })
        .collect();
    let peak = rates.iter().map(|r| r.1.max(r.2)).fold(1.0f64, f64::max);
    out.push_str("\nrates (last window / ewma):\n");
    for (verb, last, ewma) in &rates {
        out.push_str(&format!(
            "  {verb:<8} {} {last:>9.1} rps  (ewma {ewma:>9.1})\n",
            bar(last / peak)
        ));
    }

    // Latency sparklines over the retained window ring.
    out.push_str("\nlatency over retained windows (us):\n");
    let mut saw_percentiles = false;
    for stat in ["p50_us", "p95_us", "p99_us"] {
        let series = window_series(&windows, stat);
        let values: Vec<f64> = series.iter().map(|&(_, v)| v).collect();
        let newest = values.last().copied().unwrap_or(0.0);
        saw_percentiles |= newest > 0.0;
        out.push_str(&format!(
            "  {:<4} |{}| {newest:>9.1}\n",
            stat.trim_end_matches("_us"),
            sparkline(&values)
        ));
    }

    // Shard contention: contended / acquisitions per stripe.
    out.push_str("\nshard lock contention:\n");
    for i in 0.. {
        let acq = get_u64(&shards, &format!("shard_{i}_lock_acquisitions"));
        if !shards.contains_key(&format!("shard_{i}_lock_acquisitions")) {
            break;
        }
        let contended = get_u64(&shards, &format!("shard_{i}_lock_contended"));
        let frac = if acq == 0 {
            0.0
        } else {
            contended as f64 / acq as f64
        };
        out.push_str(&format!("  shard {i:<3} {} {contended}/{acq}\n", bar(frac)));
    }
    if !live {
        out.push_str("----\n");
    }
    print!("{out}");
    saw_percentiles
}

/// Renders the dashboard: forever, or for `--frames N` frames.
pub fn run() {
    let args = crate::args();
    // 0 renders forever.
    let frames = args.frames.unwrap_or(if crate::quick() { 5 } else { 0 });
    let interval = Duration::from_millis(args.interval_ms.unwrap_or(500));

    // Self-host when not attaching: a server plus background load.
    let mut hosted = None;
    let stop = Arc::new(AtomicBool::new(false));
    let addr = match args.addr {
        Some(addr) => addr,
        None => {
            let server = spawn(ServeConfig::ephemeral().with_metrics(MetricsConfig {
                sample_every: 16,
                window: Duration::from_millis(200),
                ..MetricsConfig::default()
            }))
            .expect("bind localhost");
            let addr = server.addr();
            let mix = LoadMix::etc(POPULATION, VALUE_BYTES, SEED);
            preload(addr, &mix).expect("preload");
            let stop_load = Arc::clone(&stop);
            let load = std::thread::spawn(move || {
                while !stop_load.load(Ordering::Relaxed) {
                    let _ = run_open_loop(&OpenLoopConfig {
                        addr,
                        workers: 2,
                        offered_rps: SELF_LOAD_RPS,
                        duration: Duration::from_millis(300),
                        mix: mix.clone(),
                    });
                }
            });
            eprintln!("[densekv-top] self-hosted server on {addr}");
            hosted = Some((server, load));
            addr
        }
    };

    let mut conn = Connection::connect(addr).expect("connect");
    let live = frames == 0;
    let mut saw_percentiles = false;
    let mut frame = 0u64;
    loop {
        frame += 1;
        saw_percentiles |= render_frame(&mut conn, frame, live);
        if !live && frame >= frames {
            break;
        }
        std::thread::sleep(interval);
    }

    if let Some((server, load)) = hosted {
        stop.store(true, Ordering::Relaxed);
        load.join().expect("load thread");
        server.shutdown();
    }
    if !live && !saw_percentiles {
        eprintln!("[densekv-top] no windowed percentiles appeared in {frame} frames");
        std::process::exit(1);
    }
    eprintln!("[densekv-top] rendered {frame} frames");
}
