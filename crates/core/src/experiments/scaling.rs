//! Extension experiment: validating the §5.3 linear-scaling assumption.
//!
//! Tables 3–4 multiply per-core throughput by the core count; the only
//! stack-level contention the analytic model applies is the 10 GbE wire
//! cap. This experiment re-derives stack throughput *event by event*
//! (cores sharing the port through the discrete-event scheduler) and
//! compares it against the analytic `n × per-core` prediction, at a
//! size where the wire is idle (64 B) and one where it saturates
//! (256 KB).

use densekv_par::{par_map, Jobs};

use crate::report::TextTable;
use crate::stack_sim::{run as run_stack, StackSimConfig};

/// One row: event-driven vs analytic stack throughput.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Value size, bytes.
    pub value_bytes: u64,
    /// Cores on the stack.
    pub cores: u32,
    /// Event-driven aggregate TPS.
    pub(crate) simulated_tps: f64,
    /// Analytic prediction: `n ×` the single-core result.
    pub(crate) linear_tps: f64,
    /// Outbound wire utilization in the event-driven run.
    pub(crate) wire_utilization: f64,
}

impl ScalingPoint {
    /// Simulated ÷ analytic: 1.0 = the assumption holds.
    pub(crate) fn scaling_efficiency(&self) -> f64 {
        self.simulated_tps / self.linear_tps
    }
}

/// Runs the scaling validation across core counts at both sizes. Every
/// event-driven stack run is an independent worker task; the cores = 1
/// run of each size doubles as the analytic baseline, so no task
/// depends on another.
pub fn run(jobs: Jobs) -> Vec<ScalingPoint> {
    const CORES: [u32; 4] = [1, 4, 16, 32];
    let shapes = [(64u64, 60u32, 120u32), (256 << 10, 16, 5)];
    let tasks: Vec<StackSimConfig> = shapes
        .iter()
        .flat_map(|&(value_bytes, requests_per_core, warmup_per_core)| {
            CORES.iter().map(move |&cores| StackSimConfig {
                requests_per_core,
                warmup_per_core,
                ..StackSimConfig::mercury_a7(cores, value_bytes)
            })
        })
        .collect();
    let results = par_map(jobs, &tasks, run_stack);
    tasks
        .iter()
        .zip(&results)
        .enumerate()
        .map(|(i, (task, result))| {
            // The first entry of each size group is its 1-core baseline.
            let one = &results[i / CORES.len() * CORES.len()];
            ScalingPoint {
                value_bytes: task.value_bytes,
                cores: task.cores,
                simulated_tps: result.aggregate_tps,
                linear_tps: one.aggregate_tps * f64::from(task.cores),
                wire_utilization: result.wire_out_utilization,
            }
        })
        .collect()
}

/// Renders the scaling table.
pub fn table(points: &[ScalingPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "size".into(),
        "cores".into(),
        "simulated (KTPS)".into(),
        "n x 1-core (KTPS)".into(),
        "efficiency".into(),
        "wire util".into(),
    ])
    .with_title("Extension — event-driven check of the §5.3 linear-scaling assumption");
    for p in points {
        t.row(vec![
            crate::report::size_label(p.value_bytes),
            p.cores.to_string(),
            format!("{:.2}", p.simulated_tps / 1000.0),
            format!("{:.2}", p.linear_tps / 1000.0),
            format!("{:.2}", p.scaling_efficiency()),
            format!("{:.2}", p.wire_utilization),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_at_64b_saturating_at_256k() {
        let points = run(Jobs::SERIAL);
        let small_32 = points
            .iter()
            .find(|p| p.value_bytes == 64 && p.cores == 32)
            .expect("present");
        assert!(
            small_32.scaling_efficiency() > 0.85,
            "64 B should scale nearly linearly to 32 cores: {:.2}",
            small_32.scaling_efficiency()
        );
        let big_32 = points
            .iter()
            .find(|p| p.value_bytes == 256 << 10 && p.cores == 32)
            .expect("present");
        assert!(
            big_32.scaling_efficiency() < 0.75,
            "256 KB responses must saturate the port: {:.2}",
            big_32.scaling_efficiency()
        );
        assert!(big_32.wire_utilization > 0.6);
        assert!(table(&points).to_string().contains("efficiency"));
    }
}
