//! Extension experiment: the Helios DRAM-tier size sweep.
//!
//! The paper stops at two extremes — Mercury (all 3D DRAM, fast but
//! 4 GB per stack) and Iridium (all flash, 19.8 GB but tail latencies
//! in the hundreds of microseconds). This experiment sweeps the third
//! design between them: a Helios stack whose DRAM tier grows from
//! 64 MB to 1 GB over the same Iridium flash array, measured on the
//! Fig. 5/6 axes (latency percentiles per request) plus Table-4-style
//! efficiency columns.
//!
//! The tier hit rate is *not* a dial: every point replays a named
//! Facebook ETC-style Zipf stream ([`MixedWorkload::etc_fixed_size`])
//! against the simulated cache, so skew sensitivity falls out of the
//! reference stream. A second low-skew stream of the same shape shows
//! the Zipf dependence directly. Every point carries both the analytic
//! efficiency (per-tier Table 1 pricing via
//! [`stack_power_split`]) and a measured one integrated from the
//! event-driven energy meter of the same replay.

use densekv_cpu::CoreConfig;
use densekv_par::{par_map, Jobs};
use densekv_server::{stack_working_point, PerCorePerf};
use densekv_sim::Duration;
use densekv_stack::power::stack_power_split;
use densekv_stack::StackConfig;
use densekv_telemetry::Telemetry;
use densekv_workload::{MixedWorkload, Request, RequestGenerator, ETC_ZIPF_ALPHA};

use crate::energy::run_energy_observed;
use crate::report::TextTable;
use crate::sim::{CoreSim, CoreSimConfig};
use crate::sweep::SweepEffort;

/// Cores per stack, as in the headline Mercury-32/Iridium-32 designs.
pub(crate) const STACK_CORES: u32 = 32;

/// Stack-level DRAM-tier sizes swept, MB. Each of the 32 cores owns a
/// 1/32 slice, so the per-core tiers run 2–32 MB.
pub(crate) const TIER_SWEEP_MB: &[u64] = &[64, 128, 256, 512, 1024];

/// Value size every stream fixes (a mid-weight ETC object), so the tier
/// size is the only axis that moves within a workload.
pub const VALUE_BYTES: u64 = 2048;

/// One (workload, design) point of the tier sweep.
#[derive(Debug, Clone)]
pub struct HybridPoint {
    /// Workload label (cites the named stream).
    pub workload: String,
    /// Design name: `Mercury-32`, `Iridium-32`, or `Helios-32`.
    pub family: String,
    /// Stack-level DRAM-tier size, MB (Mercury's whole DRAM for the
    /// Mercury baseline; 0 for Iridium).
    pub dram_tier_mb: u64,
    /// Measured requests behind the percentiles.
    pub requests: u64,
    /// DRAM-tier hit rate over the measured window (1 for Mercury,
    /// 0 for Iridium — their "tier" is the whole device).
    pub tier_hit_rate: f64,
    /// Mean RTT, µs.
    pub mean_rtt_us: f64,
    /// Median RTT, µs.
    pub p50_us: f64,
    /// 95th-percentile RTT, µs.
    pub p95_us: f64,
    /// 99th-percentile RTT, µs.
    pub p99_us: f64,
    /// Stack throughput at the wire-derated working point, TPS.
    pub tps: f64,
    /// Stack DRAM-tier bandwidth after the derate, GB/s.
    pub dram_gbps: f64,
    /// Stack flash-array bandwidth after the derate, GB/s.
    pub flash_gbps: f64,
    /// Store capacity per stack, paper GB.
    pub capacity_gb: f64,
    /// Analytic stack power at per-tier Table 1 pricing, watts.
    pub stack_w_analytic: f64,
    /// Measured stack power integrated from the energy meter, watts.
    pub stack_w_measured: f64,
    /// DRAM-tier share of the analytic memory power, watts.
    pub dram_w: f64,
    /// Flash share of the analytic memory power, watts.
    pub flash_w: f64,
    /// Analytic efficiency, thousand TPS per watt.
    pub ktps_per_watt: f64,
    /// Measured efficiency from accumulated joules, thousand TPS/W.
    pub measured_ktps_per_watt: f64,
    /// Mean measured joules per operation (one core).
    pub j_per_op: f64,
    /// Memory share of the per-op joules.
    pub memory_j_per_op: f64,
    /// FTL pages relocated by garbage collection in the window.
    pub gc_moved_pages: u64,
    /// FTL blocks erased by garbage collection in the window.
    pub gc_erased_blocks: u64,
    /// Dirty pages the write buffer flushed to flash in the window.
    pub writebacks: u64,
    /// Programs the write buffer absorbed by coalescing in the window.
    pub programs_coalesced: u64,
}

/// Per-run request counts: a tier sweep needs enough traffic to warm a
/// multi-megabyte cache, so the base [`SweepEffort`] counts are scaled
/// up and the key population is sized to a working set (~4 MB/core
/// quick, ~32 MB/core full) that straddles the per-core tier slices.
fn shape(effort: SweepEffort) -> (u64, u32, u32, Vec<u64>) {
    let quick = effort.measured < SweepEffort::full().measured;
    if quick {
        (2048, 1200, 300, vec![64, 256, 1024])
    } else {
        (16384, 6000, 2000, TIER_SWEEP_MB.to_vec())
    }
}

/// The two reference streams: the named ETC preset and a low-skew
/// control of identical shape, both at [`VALUE_BYTES`].
fn streams() -> Vec<(String, f64)> {
    vec![
        (format!("ETC-like(zipf {ETC_ZIPF_ALPHA})"), ETC_ZIPF_ALPHA),
        ("low-skew(zipf 0.60)".to_owned(), 0.60),
    ]
}

fn workload_for(alpha: f64, keys: u64, label: &str) -> MixedWorkload {
    MixedWorkload::new(
        keys as usize,
        alpha,
        densekv_workload::ETC_GET_FRACTION,
        &[(VALUE_BYTES, 1.0)],
        0x048E_1105 ^ keys,
        label,
    )
}

/// Runs one design under one stream and summarizes it. `shape` is the
/// `(keys, warmup, measured)` triple from [`shape`].
fn measure_design(
    workload: &str,
    alpha: f64,
    shape: (u64, u32, u32),
    config: &CoreSimConfig,
    stack: &StackConfig,
    tier_mb: u64,
) -> HybridPoint {
    let (keys, warmup, measured) = shape;
    let mut core = CoreSim::preloaded(config, VALUE_BYTES, keys);

    let mut gen = workload_for(alpha, keys, workload);
    for _ in 0..warmup {
        core.execute(&gen.next_request());
    }
    core.reset_counters();
    let tier_before = core.tier_stats();

    let requests: Vec<Request> = (0..measured).map(|_| gen.next_request()).collect();
    let mut tele = Telemetry::disabled();
    let run = run_energy_observed(
        &mut core,
        &requests,
        &mut tele,
        true,
        Duration::from_micros(500),
    );

    let secs = run.elapsed.as_secs_f64();
    let (dram_bytes, flash_bytes) = core.device_tier_bytes();
    let perf = PerCorePerf {
        tps: run.measured_tps(),
        mem_gbps: core.device_bytes() as f64 / secs / 1e9,
        wire_gbps: core.wire_bytes() as f64 / secs / 1e9,
    };
    let point = stack_working_point(STACK_CORES, perf);
    let scale = f64::from(STACK_CORES) * point.derate;
    let dram_gbps = dram_bytes as f64 / secs / 1e9 * scale;
    let flash_gbps = flash_bytes as f64 / secs / 1e9 * scale;

    let power = stack_power_split(stack, dram_gbps, flash_gbps);
    let (dram_rate, flash_rate) = densekv_stack::power::tier_rates(stack);
    let stack_w_analytic = power.total_w();
    let stack_w_measured = run.measured_stack_watts(STACK_CORES, point.derate);
    let measured_tps = run.measured_stack_tps(STACK_CORES, point.derate);

    let tier_hit_rate = match (tier_before, core.tier_stats()) {
        (Some(before), Some(after)) => {
            let hits = after.hits - before.hits;
            let total = hits + (after.misses - before.misses);
            if total > 0 {
                hits as f64 / total as f64
            } else {
                0.0
            }
        }
        // Single-tier baselines: Mercury serves everything from DRAM,
        // Iridium everything from flash.
        _ => {
            if flash_bytes == 0 {
                1.0
            } else {
                0.0
            }
        }
    };
    let tier_delta =
        |f: fn(&densekv_hybrid::TierSnapshot) -> u64| match (&tier_before, core.tier_stats()) {
            (Some(b), Some(a)) => f(&a) - f(b),
            _ => 0,
        };

    let us = |q: f64| {
        run.latency
            .percentile(q)
            .unwrap_or(Duration::ZERO)
            .as_secs_f64()
            * 1e6
    };
    HybridPoint {
        workload: workload.to_owned(),
        family: stack.name(),
        dram_tier_mb: tier_mb,
        requests: run.requests,
        tier_hit_rate,
        mean_rtt_us: secs / run.requests.max(1) as f64 * 1e6,
        p50_us: us(0.50),
        p95_us: us(0.95),
        p99_us: us(0.99),
        tps: point.tps,
        dram_gbps,
        flash_gbps,
        capacity_gb: stack.memory.nominal_capacity_gb(),
        stack_w_analytic,
        stack_w_measured,
        dram_w: dram_rate * dram_gbps / 1000.0,
        flash_w: flash_rate * flash_gbps / 1000.0,
        ktps_per_watt: point.tps / 1000.0 / stack_w_analytic,
        measured_ktps_per_watt: measured_tps / 1000.0 / stack_w_measured,
        j_per_op: run.j_per_op(),
        memory_j_per_op: run.per_op.memory_j,
        gc_moved_pages: tier_delta(|s| s.gc_moved_pages),
        gc_erased_blocks: tier_delta(|s| s.gc_erased_blocks),
        writebacks: tier_delta(|s| s.writebacks_flushed),
        programs_coalesced: tier_delta(|s| s.programs_coalesced),
    }
}

/// Sweeps the tier sizes against the Mercury/Iridium baselines under
/// both reference streams. Every (stream, design) replay is an
/// independent worker task; results land in the serial nesting order.
pub fn run(effort: SweepEffort, jobs: Jobs) -> Vec<HybridPoint> {
    let (keys, warmup, measured, tiers) = shape(effort);
    let counts = (keys, warmup, measured);
    let core = CoreConfig::a7_1ghz();
    let mut tasks: Vec<(String, f64, CoreSimConfig, StackConfig, u64)> = Vec::new();
    for (label, alpha) in streams() {
        let mercury = StackConfig::mercury(core.clone(), STACK_CORES, true).expect("valid");
        let mercury_mb = mercury.memory.capacity_bytes() >> 20;
        tasks.push((
            label.clone(),
            alpha,
            CoreSimConfig::mercury_a7(),
            mercury,
            mercury_mb,
        ));
        let iridium = StackConfig::iridium(core.clone(), STACK_CORES).expect("valid");
        tasks.push((
            label.clone(),
            alpha,
            CoreSimConfig::iridium_a7(),
            iridium,
            0,
        ));
        for &tier_mb in &tiers {
            let stack_tier = tier_mb << 20;
            let helios = StackConfig::helios(core.clone(), STACK_CORES, stack_tier).expect("valid");
            tasks.push((
                label.clone(),
                alpha,
                CoreSimConfig::helios_a7(stack_tier / u64::from(STACK_CORES)),
                helios,
                tier_mb,
            ));
        }
    }
    par_map(jobs, &tasks, |(label, alpha, config, stack, tier_mb)| {
        measure_design(label, *alpha, counts, config, stack, *tier_mb)
    })
}

/// Renders the latency/efficiency side of the sweep (Fig. 5/6 axes plus
/// Table-4-style columns).
pub fn sweep_table(points: &[HybridPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "design".into(),
        "tier MB".into(),
        "tier hit".into(),
        "p50 µs".into(),
        "p95 µs".into(),
        "p99 µs".into(),
        "stack KTPS".into(),
        "GB".into(),
        "KTPS/W".into(),
        "meas. KTPS/W".into(),
    ])
    .with_title("Extension — Helios DRAM-tier sweep vs Mercury/Iridium (A7-32 stacks)");
    for p in points {
        t.row(vec![
            p.workload.clone(),
            p.family.clone(),
            p.dram_tier_mb.to_string(),
            format!("{:.3}", p.tier_hit_rate),
            format!("{:.1}", p.p50_us),
            format!("{:.1}", p.p95_us),
            format!("{:.1}", p.p99_us),
            format!("{:.1}", p.tps / 1000.0),
            format!("{:.1}", p.capacity_gb),
            format!("{:.2}", p.ktps_per_watt),
            format!("{:.2}", p.measured_ktps_per_watt),
        ]);
    }
    t
}

/// Renders the power/wear side: per-tier bandwidth and watts, measured
/// power, and the FTL pressure counters.
pub fn power_table(points: &[HybridPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "workload".into(),
        "design".into(),
        "tier MB".into(),
        "DRAM GB/s".into(),
        "flash GB/s".into(),
        "DRAM W".into(),
        "flash W".into(),
        "stack W".into(),
        "meas. W".into(),
        "µJ/op".into(),
        "GC pages".into(),
        "writebacks".into(),
    ])
    .with_title("Extension — Helios per-tier power and FTL pressure");
    for p in points {
        t.row(vec![
            p.workload.clone(),
            p.family.clone(),
            p.dram_tier_mb.to_string(),
            format!("{:.3}", p.dram_gbps),
            format!("{:.3}", p.flash_gbps),
            format!("{:.3}", p.dram_w),
            format!("{:.3}", p.flash_w),
            format!("{:.2}", p.stack_w_analytic),
            format!("{:.2}", p.stack_w_measured),
            format!("{:.1}", p.j_per_op * 1e6),
            p.gc_moved_pages.to_string(),
            p.writebacks.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helios_beats_iridium_p95_and_mercury_capacity() {
        let points = run(SweepEffort::quick(), Jobs::SERIAL);
        // 2 streams x (2 baselines + 3 quick tier sizes).
        assert_eq!(points.len(), 10);
        let etc: Vec<_> = points
            .iter()
            .filter(|p| p.workload.starts_with("ETC"))
            .collect();
        let mercury = etc.iter().find(|p| p.family == "Mercury-32").unwrap();
        let iridium = etc.iter().find(|p| p.family == "Iridium-32").unwrap();
        let helios: Vec<_> = etc.iter().filter(|p| p.family == "Helios-32").collect();
        assert_eq!(helios.len(), 3);

        // The acceptance point: some tier size beats Iridium on p95
        // while exceeding Mercury's per-stack capacity.
        assert!(
            helios
                .iter()
                .any(|h| h.p95_us < iridium.p95_us && h.capacity_gb > mercury.capacity_gb),
            "no Helios point beats Iridium p95 ({:.1} µs) with more than {} GB",
            iridium.p95_us,
            mercury.capacity_gb
        );

        // Hit rate grows with the tier (the stream never changes).
        for pair in helios.windows(2) {
            assert!(
                pair[1].tier_hit_rate >= pair[0].tier_hit_rate,
                "{} MB: {:.3} then {} MB: {:.3}",
                pair[0].dram_tier_mb,
                pair[0].tier_hit_rate,
                pair[1].dram_tier_mb,
                pair[1].tier_hit_rate
            );
        }
        // An oversized tier converges on Mercury's latency.
        let largest = helios.last().unwrap();
        assert!(largest.tier_hit_rate > 0.9);
        assert!(largest.p95_us < mercury.p95_us * 1.5);

        // Zipf sensitivity: the skewed stream hits more than the
        // low-skew control at the same (small) tier size.
        let low: Vec<_> = points
            .iter()
            .filter(|p| p.workload.starts_with("low-skew") && p.family == "Helios-32")
            .collect();
        assert!(
            helios[0].tier_hit_rate > low[0].tier_hit_rate,
            "zipf {} vs {}",
            helios[0].tier_hit_rate,
            low[0].tier_hit_rate
        );

        // Both efficiency columns are real and in the same regime.
        for p in &points {
            assert!(p.ktps_per_watt > 0.0 && p.measured_ktps_per_watt > 0.0);
            let rel = (p.measured_ktps_per_watt - p.ktps_per_watt).abs() / p.ktps_per_watt;
            assert!(
                rel < 0.35,
                "{} {}: analytic {} vs measured {}",
                p.family,
                p.dram_tier_mb,
                p.ktps_per_watt,
                p.measured_ktps_per_watt
            );
        }
        assert_eq!(sweep_table(&points).row_count(), 10);
        assert_eq!(power_table(&points).row_count(), 10);
    }
}
