//! Shared evaluation machinery: per-core sweeps aggregated into full
//! 1.5U server working points, for every (core, memory, n) combination
//! Tables 3–4 and Figures 7–8 cover.

use densekv_cpu::CoreConfig;
use densekv_par::{par_map, Jobs};
use densekv_server::{
    evaluate_server, plan_server, PerCorePerf, ServerConstraints, ServerPlan, ServerReport,
};
use densekv_sim::Duration;
use densekv_stack::StackConfig;

use crate::sim::CoreSimConfig;
use crate::sweep::{measure_point, SweepEffort, SweepPoint};

/// The memory families the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Family {
    /// 3D-DRAM stacks.
    Mercury,
    /// p-BiCS flash stacks.
    Iridium,
}

impl Family {
    /// Both families, Mercury first (the paper's column order).
    pub const ALL: [Family; 2] = [Family::Mercury, Family::Iridium];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Mercury => "Mercury",
            Family::Iridium => "Iridium",
        }
    }

    fn sim_config(self, core: CoreConfig) -> CoreSimConfig {
        match self {
            Family::Mercury => CoreSimConfig::mercury(core, true, Duration::from_nanos(10)),
            Family::Iridium => CoreSimConfig::iridium(core, true, Duration::from_micros(10)),
        }
    }
}

/// The three core types of Table 3, in its column order.
pub(crate) fn table3_cores() -> [CoreConfig; 3] {
    [
        CoreConfig::a15_1p5ghz(),
        CoreConfig::a15_1ghz(),
        CoreConfig::a7_1ghz(),
    ]
}

/// The per-stack core counts of Tables 3–4.
pub(crate) const CORE_COUNTS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// One fully evaluated (core, family, n) configuration.
#[derive(Debug, Clone)]
pub struct ConfigEval {
    /// Core label (`A7 @1GHz` …).
    pub(crate) core_label: String,
    /// Mercury or Iridium.
    pub(crate) family: Family,
    /// Cores per stack.
    pub n: u32,
    /// The solved server plan (stack count at peak bandwidth).
    pub plan: ServerPlan,
    /// Server working point at 64 B GETs (Table 4 / Figs. 7–8).
    pub(crate) at_64b: ServerReport,
    /// Maximum wall power over the size sweep (Table 3's Power column).
    pub(crate) max_power_w: f64,
    /// Maximum server memory bandwidth over the sweep (Table 3's Max BW).
    pub(crate) max_mem_bw_gbps: f64,
}

/// Stack-level memory bandwidth for `n` cores at one sweep point, derated
/// by the stack's shared 10 GbE wire. Thin wrapper over the shared
/// [`densekv_server::stack_working_point`] helper so the bandwidth that
/// prices power here is the same one `evaluate_server` uses.
pub(crate) fn stack_mem_gbps(n: u32, perf: PerCorePerf) -> f64 {
    densekv_server::stack_working_point(n, perf).mem_gbps
}

/// Plans a box of `stack`s at their peak memory bandwidth over `sweep`
/// (GET side, as the paper's bandwidth measurements use GETs) and
/// returns the plan with its 64 B GET working point.
pub(crate) fn plan_at_peak(
    constraints: &ServerConstraints,
    stack: StackConfig,
    sweep: &[SweepPoint],
) -> (ServerPlan, ServerReport) {
    let peak = sweep
        .iter()
        .map(|p| stack_mem_gbps(stack.cores, p.get.perf))
        .fold(0.0f64, f64::max);
    let at_64b = sweep
        .iter()
        .find(|p| p.value_bytes == 64)
        .expect("sweep includes 64 B");
    let plan = plan_server(constraints, stack, peak);
    let report = evaluate_server(&plan, at_64b.get.perf);
    (plan, report)
}

/// Evaluates one (core, family) sweep across all core counts.
pub(crate) fn evaluate_family(
    core: CoreConfig,
    family: Family,
    sweep: &[SweepPoint],
    constraints: &ServerConstraints,
) -> Vec<ConfigEval> {
    let config = family.sim_config(core.clone());
    CORE_COUNTS
        .iter()
        .map(|&n| {
            let stack = StackConfig::new(config.memory.clone(), core.clone(), n, config.l2)
                .expect("valid stack config");
            let (plan, report_64b) = plan_at_peak(constraints, stack, sweep);
            let (max_power_w, max_mem_bw_gbps) = sweep
                .iter()
                .map(|p| {
                    let r = evaluate_server(&plan, p.get.perf);
                    (r.power_w, r.mem_gbps)
                })
                .fold((0.0f64, 0.0f64), |(pw, bw), (p, b)| (pw.max(p), bw.max(b)));
            ConfigEval {
                core_label: core.label(),
                family,
                n,
                plan,
                at_64b: report_64b,
                max_power_w,
                max_mem_bw_gbps,
            }
        })
        .collect()
}

/// Sweeps every (core, family) pair over all paper sizes in one flat
/// ordered parallel map, then regroups per pair. The flattening exposes
/// `pairs × sizes` independent tasks to the workers instead of
/// serialising on one pair at a time; index-ordered collection keeps
/// the result bit-identical to the serial nesting.
fn sweep_grid(
    pairs: &[(CoreConfig, Family)],
    effort: SweepEffort,
    jobs: Jobs,
) -> Vec<Vec<SweepPoint>> {
    let sizes = densekv_workload::paper_size_sweep();
    let tasks: Vec<(usize, u64)> = pairs
        .iter()
        .enumerate()
        .flat_map(|(pi, _)| sizes.iter().map(move |&s| (pi, s)))
        .collect();
    let points = par_map(jobs, &tasks, |&(pi, size)| {
        let (core, family) = &pairs[pi];
        measure_point(&family.sim_config(core.clone()), size, effort)
    });
    points
        .chunks(sizes.len())
        .map(|chunk| chunk.to_vec())
        .collect()
}

fn evaluate_grid(
    pairs: Vec<(CoreConfig, Family)>,
    effort: SweepEffort,
    jobs: Jobs,
) -> Vec<ConfigEval> {
    let constraints = ServerConstraints::paper_1p5u();
    let sweeps = sweep_grid(&pairs, effort, jobs);
    pairs
        .into_iter()
        .zip(sweeps)
        .flat_map(|((core, family), sweep)| evaluate_family(core, family, &sweep, &constraints))
        .collect()
}

/// Runs the full evaluation grid: 3 core types × 2 families × 6 core
/// counts (36 server configurations over 6 per-core sweeps).
pub fn evaluate_all(effort: SweepEffort, jobs: Jobs) -> Vec<ConfigEval> {
    let pairs: Vec<(CoreConfig, Family)> = table3_cores()
        .into_iter()
        .flat_map(|core| Family::ALL.map(|family| (core.clone(), family)))
        .collect();
    evaluate_grid(pairs, effort, jobs)
}

/// Evaluates only the A7 column (Table 4 needs nothing else) — much
/// cheaper than [`evaluate_all`].
#[cfg(test)]
pub(crate) fn evaluate_a7(effort: SweepEffort, jobs: Jobs) -> Vec<ConfigEval> {
    let core = CoreConfig::a7_1ghz();
    let pairs: Vec<(CoreConfig, Family)> =
        Family::ALL.map(|family| (core.clone(), family)).to_vec();
    evaluate_grid(pairs, effort, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a7_grid_matches_table4_shape() {
        let evals = evaluate_a7(SweepEffort::quick(), Jobs::SERIAL);
        assert_eq!(evals.len(), 12);

        let find = |family: Family, n: u32| {
            evals
                .iter()
                .find(|e| e.family == family && e.n == n)
                .expect("config present")
        };

        // Table 4 stack counts: Mercury fills (or nearly fills) the box.
        let m32 = find(Family::Mercury, 32);
        assert!((88..=96).contains(&m32.plan.stacks), "{}", m32.plan.stacks);
        // Throughput near 32.7 MTPS.
        assert!(
            (24e6..42e6).contains(&m32.at_64b.tps),
            "Mercury-32 TPS {}",
            m32.at_64b.tps
        );

        let i32 = find(Family::Iridium, 32);
        assert_eq!(i32.plan.stacks, 96);
        assert!(
            (12e6..22e6).contains(&i32.at_64b.tps),
            "Iridium-32 TPS {}",
            i32.at_64b.tps
        );
        // Iridium density ~1.9 TB.
        assert!((i32.at_64b.memory_gb - 1901.0).abs() < 25.0);

        // TPS doubles n=8 -> n=16 (same stack count).
        let m8 = find(Family::Mercury, 8);
        let m16 = find(Family::Mercury, 16);
        assert!((m16.at_64b.tps / m8.at_64b.tps - 2.0).abs() < 0.05);
    }

    #[test]
    fn max_power_exceeds_64b_power() {
        let evals = evaluate_a7(SweepEffort::quick(), Jobs::SERIAL);
        for e in &evals {
            assert!(
                e.max_power_w >= e.at_64b.power_w - 1e-9,
                "{} n={}",
                e.family.name(),
                e.n
            );
        }
    }

    #[test]
    fn mercury_outruns_iridium_iridium_outdenses_mercury() {
        let evals = evaluate_a7(SweepEffort::quick(), Jobs::SERIAL);
        for n in CORE_COUNTS {
            let m = evals
                .iter()
                .find(|e| e.family == Family::Mercury && e.n == n)
                .expect("mercury");
            let i = evals
                .iter()
                .find(|e| e.family == Family::Iridium && e.n == n)
                .expect("iridium");
            assert!(m.at_64b.tps > i.at_64b.tps, "n={n}: Mercury wins TPS");
            assert!(
                i.at_64b.memory_gb > 4.0 * m.at_64b.memory_gb,
                "n={n}: Iridium wins density"
            );
        }
    }
}
