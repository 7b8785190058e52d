//! Extension experiment: latency under load (SLA curves).
//!
//! The paper argues both architectures serve "a majority of requests
//! within the sub-millisecond range" and positions Iridium for
//! moderate-to-low request rates (§4.2). This experiment quantifies
//! that: Poisson arrivals at increasing fractions of each core's
//! closed-loop capacity, reporting queueing-inclusive percentiles and
//! the 1 ms SLA attainment.

use densekv_par::{par_map, Jobs};
use densekv_sim::Duration;

use crate::report::TextTable;
use crate::sim::CoreSimConfig;
use crate::stack_sim::{run as run_stack, StackSimConfig};
use crate::sweep::{measure_point, SweepEffort};

/// One load point of the SLA experiment.
#[derive(Debug, Clone)]
pub struct SlaPoint {
    /// Architecture label.
    pub system: &'static str,
    /// Offered load as a fraction of closed-loop capacity.
    pub load_fraction: f64,
    /// Offered rate, requests/second.
    pub rate: f64,
    /// Median response time.
    pub p50: Duration,
    /// 99th-percentile response time.
    pub p99: Duration,
    /// Fraction of responses within 1 ms.
    pub sla_1ms: f64,
}

/// Runs the SLA experiment for Mercury and Iridium A7 cores at 64 B.
///
/// Stage 1 measures each system's closed-loop capacity in parallel;
/// stage 2 fans the (system, load) grid out, each Poisson run an
/// independent task. Both stages collect in index order, so the output
/// is jobs-invariant.
pub fn run(effort: SweepEffort, jobs: Jobs) -> Vec<SlaPoint> {
    let systems: [(&'static str, CoreSimConfig); 2] = [
        ("Mercury A7", CoreSimConfig::mercury_a7()),
        ("Iridium A7", CoreSimConfig::iridium_a7()),
    ];
    // Closed-loop capacity anchors the load axis.
    let capacities = par_map(jobs, &systems, |(_, config)| {
        measure_point(config, 64, effort).get.tps
    });
    let tasks: Vec<(usize, f64)> = (0..systems.len())
        .flat_map(|si| [0.3, 0.6, 0.9].into_iter().map(move |load| (si, load)))
        .collect();
    par_map(jobs, &tasks, |&(si, load)| {
        let (system, config) = &systems[si];
        let rate = capacities[si] * load;
        let mut poisson = StackSimConfig::poisson_gets(config.clone(), 64, rate);
        poisson.requests_per_core = 500;
        let result = run_stack(&poisson);
        SlaPoint {
            system,
            load_fraction: load,
            rate,
            p50: result.latency.percentile(0.50).expect("samples"),
            p99: result.latency.percentile(0.99).expect("samples"),
            sla_1ms: result.sla_1ms(),
        }
    })
}

/// Renders the SLA table.
pub fn table(points: &[SlaPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "system".into(),
        "load".into(),
        "rate (KTPS)".into(),
        "p50".into(),
        "p99".into(),
        "under 1ms".into(),
    ])
    .with_title("Extension — latency under load (Poisson arrivals, 64 B GETs)");
    for p in points {
        t.row(vec![
            p.system.into(),
            format!("{:.0}%", p.load_fraction * 100.0),
            format!("{:.2}", p.rate / 1000.0),
            p.p50.to_string(),
            p.p99.to_string(),
            format!("{:.1}%", p.sla_1ms * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sla_curves_shape() {
        let points = run(SweepEffort::quick(), Jobs::SERIAL);
        assert_eq!(points.len(), 6);
        // Within each system, p99 grows with load and the SLA attainment
        // never improves.
        for system in ["Mercury A7", "Iridium A7"] {
            let series: Vec<_> = points.iter().filter(|p| p.system == system).collect();
            assert!(series.windows(2).all(|w| w[1].p99 >= w[0].p99));
            assert!(series
                .windows(2)
                .all(|w| w[1].sla_1ms <= w[0].sla_1ms + 0.01));
            // At 30% load both architectures hold the paper's SLA.
            assert!(
                series[0].sla_1ms > 0.95,
                "{system} at 30%: {:.2}",
                series[0].sla_1ms
            );
        }
        let rendered = table(&points).to_string();
        assert!(rendered.contains("under 1ms"));
    }
}
