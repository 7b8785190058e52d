//! Extension experiment: efficiency across the size sweep.
//!
//! Table 4 reports TPS/W at 64 B only. This experiment extends the
//! paper's efficiency story across the full 64 B–1 MB sweep for the
//! headline A7 servers: where Mercury's advantage peaks, where the wire
//! cap flattens it, and where Iridium's cheap flash bandwidth narrows
//! the gap.
//!
//! Every point carries *two* efficiency numbers: the analytic one
//! (`tps / stack_power(...)`, the paper's methodology) and a measured
//! one integrated from the event-driven [`EnergyMeter`] over the same
//! metered replay of the size point's GETs. Both cite the shared
//! [`stack_working_point`] for the wire derate, and the
//! `energy_converges_to_stack_power` test pins them within 1 % at the
//! component level — here the test below holds the end-to-end columns
//! together within a looser tolerance.
//!
//! [`EnergyMeter`]: densekv_energy::EnergyMeter

use densekv_cpu::CoreConfig;
use densekv_par::{par_map, Jobs};
use densekv_server::{evaluate_server, plan_server, stack_working_point, ServerConstraints};
use densekv_stack::StackConfig;
use densekv_workload::paper_size_sweep;

use crate::energy::measure_energy_point;
use crate::experiments::evaluation::Family;
use crate::report::{size_label, TextTable};
use crate::sim::CoreSimConfig;
use crate::sweep::SweepEffort;

/// One size point of the efficiency sweep.
#[derive(Debug, Clone)]
pub struct EfficiencyPoint {
    /// Mercury or Iridium.
    pub(crate) family: Family,
    /// Value size, bytes.
    pub value_bytes: u64,
    /// Whole-server TPS.
    pub tps: f64,
    /// Whole-server wall power, watts.
    pub power_w: f64,
    /// Analytic efficiency, thousand TPS per watt.
    pub ktps_per_watt: f64,
    /// Measured efficiency from accumulated event-driven energy,
    /// thousand TPS per watt (scaled to the same 32-core stack).
    pub measured_ktps_per_watt: f64,
    /// Wire payload delivered, GB/s.
    pub wire_gbps: f64,
}

/// Runs the sweep for the A7 Mercury-32 and Iridium-32 servers. Each
/// (family, size) point is one worker task: one metered replay of the
/// sweep's GETs, which yields both the performance summary and the
/// energy run; the per-family server plan (which needs the whole
/// sweep's peak bandwidth) is derived serially after the join, so
/// results are jobs-invariant.
pub fn run(effort: SweepEffort, jobs: Jobs) -> Vec<EfficiencyPoint> {
    let constraints = ServerConstraints::paper_1p5u();
    let families = [
        (
            Family::Mercury,
            CoreSimConfig::mercury_a7(),
            StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).expect("valid"),
        ),
        (
            Family::Iridium,
            CoreSimConfig::iridium_a7(),
            StackConfig::iridium(CoreConfig::a7_1ghz(), 32).expect("valid"),
        ),
    ];
    let sizes = paper_size_sweep();
    let tasks: Vec<(usize, u64)> = (0..families.len())
        .flat_map(|fi| sizes.iter().map(move |&s| (fi, s)))
        .collect();
    let measured: Vec<_> = par_map(jobs, &tasks, |&(fi, size)| {
        measure_energy_point(&families[fi].1, size, effort)
    });

    let mut points = Vec::new();
    for ((family, _, stack), chunk) in families.iter().zip(measured.chunks(sizes.len())) {
        let peak = chunk
            .iter()
            .map(|(perf, _)| crate::experiments::evaluation::stack_mem_gbps(32, *perf))
            .fold(0.0f64, f64::max);
        let plan = plan_server(&constraints, stack.clone(), peak);
        for (&value_bytes, (perf, energy)) in sizes.iter().zip(chunk) {
            let report = evaluate_server(&plan, *perf);
            let derate = stack_working_point(plan.stack.cores, *perf).derate;
            // Same wall-power conversion as the analytic column: stacks x
            // measured stack watts, through the PSU/overhead model.
            let stacks = f64::from(plan.stacks);
            let measured_wall_w = plan
                .constraints
                .wall_power_w(stacks * energy.measured_stack_watts(plan.stack.cores, derate));
            let measured_tps = stacks * energy.measured_stack_tps(plan.stack.cores, derate);
            points.push(EfficiencyPoint {
                family: *family,
                value_bytes,
                tps: report.tps,
                power_w: report.power_w,
                ktps_per_watt: report.ktps_per_watt,
                measured_ktps_per_watt: measured_tps / 1000.0 / measured_wall_w,
                wire_gbps: report.wire_gbps,
            });
        }
    }
    points
}

/// Renders the efficiency sweep.
pub fn table(points: &[EfficiencyPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "size".into(),
        "Mercury KTPS/W".into(),
        "Mercury meas.".into(),
        "Mercury GB/s".into(),
        "Iridium KTPS/W".into(),
        "Iridium meas.".into(),
        "Iridium GB/s".into(),
    ])
    .with_title(
        "Extension — A7-32 server efficiency across the size sweep (GETs, analytic vs measured)",
    );
    for size in paper_size_sweep() {
        let find = |family: Family| {
            points
                .iter()
                .find(|p| p.family == family && p.value_bytes == size)
        };
        if let (Some(m), Some(i)) = (find(Family::Mercury), find(Family::Iridium)) {
            t.row(vec![
                size_label(size),
                format!("{:.2}", m.ktps_per_watt),
                format!("{:.2}", m.measured_ktps_per_watt),
                format!("{:.2}", m.wire_gbps),
                format!("{:.2}", i.ktps_per_watt),
                format!("{:.2}", i.measured_ktps_per_watt),
                format!("{:.2}", i.wire_gbps),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_peaks_small_and_mercury_leads() {
        let points = run(SweepEffort::quick(), Jobs::SERIAL);
        assert_eq!(points.len(), 30);
        let mercury_64 = points
            .iter()
            .find(|p| p.family == Family::Mercury && p.value_bytes == 64)
            .expect("present");
        let mercury_1m = points
            .iter()
            .find(|p| p.family == Family::Mercury && p.value_bytes == 1 << 20)
            .expect("present");
        // TPS/W collapses with size (per-request work grows, power ~flat).
        assert!(mercury_64.ktps_per_watt > 10.0 * mercury_1m.ktps_per_watt);
        // Mercury leads Iridium at every size, and the measured column
        // tracks the analytic one: both come from the same requests and
        // cite the same working point, so the residual is the analytic
        // power model against the event-driven meter.
        for size in paper_size_sweep() {
            let m = points
                .iter()
                .find(|p| p.family == Family::Mercury && p.value_bytes == size)
                .expect("mercury point");
            let i = points
                .iter()
                .find(|p| p.family == Family::Iridium && p.value_bytes == size)
                .expect("iridium point");
            assert!(
                m.ktps_per_watt > i.ktps_per_watt,
                "at {size}: {} vs {}",
                m.ktps_per_watt,
                i.ktps_per_watt
            );
            for p in [m, i] {
                let rel = (p.measured_ktps_per_watt - p.ktps_per_watt).abs() / p.ktps_per_watt;
                assert!(
                    rel < 0.25,
                    "{:?} at {size}: analytic {} vs measured {} (rel {rel})",
                    p.family,
                    p.ktps_per_watt,
                    p.measured_ktps_per_watt
                );
            }
        }
        assert!(table(&points).row_count() == 15);
    }
}
