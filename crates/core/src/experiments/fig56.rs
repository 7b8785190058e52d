//! Figures 5 and 6: single-stack (Mercury-1 / Iridium-1) throughput
//! sensitivity to memory latency, CPU type, and the L2.

use densekv_cpu::CoreConfig;
use densekv_par::{par_map, Jobs};
use densekv_sim::Duration;
use densekv_workload::paper_size_sweep;

use crate::report::{size_label, TextTable};
use crate::sim::CoreSimConfig;
use crate::sweep::{measure_point, SweepEffort, SweepPoint};

/// One curve: a (cpu, L2, latency, op) series over request sizes.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// CPU label.
    pub cpu: String,
    /// Whether a 2 MB L2 was present.
    pub l2: bool,
    /// Memory latency of this curve.
    pub latency: Duration,
    /// `"GET"` or `"PUT"`.
    pub op: &'static str,
    /// `(value_bytes, tps)` points.
    pub points: Vec<(u64, f64)>,
}

/// A full figure: all panels' curves.
#[derive(Debug, Clone)]
pub struct LatencyFigure {
    /// Figure name (`Fig. 5` / `Fig. 6`).
    pub name: &'static str,
    /// All series.
    pub(crate) series: Vec<Series>,
}

impl LatencyFigure {
    /// The series for one panel (cpu + L2 combination).
    pub(crate) fn panel(&self, cpu: &str, l2: bool) -> Vec<&Series> {
        self.series
            .iter()
            .filter(|s| s.cpu == cpu && s.l2 == l2)
            .collect()
    }

    /// Renders one table per panel, sizes as rows and curves as columns.
    pub fn tables(&self) -> Vec<TextTable> {
        let mut panels: Vec<(String, bool)> = Vec::new();
        for s in &self.series {
            let key = (s.cpu.clone(), s.l2);
            if !panels.contains(&key) {
                panels.push(key);
            }
        }
        panels
            .into_iter()
            .map(|(cpu, l2)| {
                let series = self.panel(&cpu, l2);
                let mut header = vec!["size".to_string()];
                header.extend(
                    series
                        .iter()
                        .map(|s| format!("{} {} (KTPS)", s.latency, s.op)),
                );
                let mut t = TextTable::new(header).with_title(&format!(
                    "{} — {} {} L2",
                    self.name,
                    cpu,
                    if l2 { "with" } else { "no" }
                ));
                let sizes: Vec<u64> = series
                    .first()
                    .map(|s| s.points.iter().map(|&(b, _)| b).collect())
                    .unwrap_or_default();
                for (i, size) in sizes.iter().enumerate() {
                    let mut row = vec![size_label(*size)];
                    for s in &series {
                        row.push(format!("{:.2}", s.points[i].1 / 1000.0));
                    }
                    t.row(row);
                }
                t
            })
            .collect()
    }
}

/// The four CPU panels of Figs. 5/6: (core, has L2).
fn cpu_panels() -> [(CoreConfig, bool); 4] {
    [
        (CoreConfig::a15_1ghz(), true),
        (CoreConfig::a15_1ghz(), false),
        (CoreConfig::a7_1ghz(), true),
        (CoreConfig::a7_1ghz(), false),
    ]
}

fn run_figure(
    name: &'static str,
    latencies: &[Duration],
    make: impl Fn(CoreConfig, bool, Duration) -> CoreSimConfig + Sync,
    effort: SweepEffort,
    jobs: Jobs,
) -> LatencyFigure {
    // Flatten panels × latencies × sizes into one ordered task list so
    // every size point of every curve is an independent worker task.
    let sizes = paper_size_sweep();
    let curves: Vec<(CoreConfig, bool, Duration)> = cpu_panels()
        .into_iter()
        .flat_map(|(core, l2)| latencies.iter().map(move |&lat| (core.clone(), l2, lat)))
        .collect();
    let tasks: Vec<(usize, u64)> = curves
        .iter()
        .enumerate()
        .flat_map(|(ci, _)| sizes.iter().map(move |&s| (ci, s)))
        .collect();
    let points = par_map(jobs, &tasks, |&(ci, size)| {
        let (core, l2, latency) = &curves[ci];
        measure_point(&make(core.clone(), *l2, *latency), size, effort)
    });

    let mut series = Vec::new();
    for ((core, l2, latency), chunk) in curves.iter().zip(points.chunks(sizes.len())) {
        let collect = |pick: fn(&SweepPoint) -> f64| {
            sizes
                .iter()
                .zip(chunk)
                .map(|(&size, p)| (size, pick(p)))
                .collect::<Vec<_>>()
        };
        series.push(Series {
            cpu: core.label(),
            l2: *l2,
            latency: *latency,
            op: "GET",
            points: collect(|p| p.get.tps),
        });
        series.push(Series {
            cpu: core.label(),
            l2: *l2,
            latency: *latency,
            op: "PUT",
            points: collect(|p| p.put.tps),
        });
    }
    LatencyFigure { name, series }
}

/// Figure 5: Mercury-1 across DRAM latencies 10/30/50/100 ns.
pub fn fig5(effort: SweepEffort, jobs: Jobs) -> LatencyFigure {
    let latencies: Vec<Duration> = [10, 30, 50, 100]
        .iter()
        .map(|&ns| Duration::from_nanos(ns))
        .collect();
    run_figure(
        "Fig. 5 (Mercury-1)",
        &latencies,
        CoreSimConfig::mercury,
        effort,
        jobs,
    )
}

/// Figure 6: Iridium-1 across flash read latencies 10/20 µs.
pub fn fig6(effort: SweepEffort, jobs: Jobs) -> LatencyFigure {
    let latencies: Vec<Duration> = [10, 20]
        .iter()
        .map(|&us| Duration::from_micros(us))
        .collect();
    run_figure(
        "Fig. 6 (Iridium-1)",
        &latencies,
        CoreSimConfig::iridium,
        effort,
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed fig5 for unit tests: one panel, two latencies, few sizes.
    fn mini_fig5(core: CoreConfig, l2: bool, ns: &[u64]) -> Vec<(u64, f64, u64)> {
        // (latency_ns, tps@64, latency) triples at 64 B GET.
        ns.iter()
            .map(|&latency| {
                let config =
                    CoreSimConfig::mercury(core.clone(), l2, Duration::from_nanos(latency));
                let p = measure_point(&config, 64, SweepEffort::quick());
                (latency, p.get.tps, latency)
            })
            .collect()
    }

    #[test]
    fn no_l2_panel_is_latency_sensitive() {
        let points = mini_fig5(CoreConfig::a7_1ghz(), false, &[10, 100]);
        let (fast, slow) = (points[0].1, points[1].1);
        assert!(
            fast > slow * 1.4,
            "Fig. 5d: 10 ns ({fast:.0}) should far outrun 100 ns ({slow:.0})"
        );
    }

    #[test]
    fn l2_panel_is_nearly_flat() {
        let points = mini_fig5(CoreConfig::a7_1ghz(), true, &[10, 100]);
        let (fast, slow) = (points[0].1, points[1].1);
        assert!(
            fast < slow * 1.2,
            "Fig. 5c: with an L2 the spread is small ({fast:.0} vs {slow:.0})"
        );
    }

    #[test]
    fn fig6_panels_shape() {
        // Iridium with L2: thousands of TPS; GET beats PUT by a wide
        // margin (fig. 6 + §6.2).
        let config = CoreSimConfig::iridium(CoreConfig::a7_1ghz(), true, Duration::from_micros(10));
        let p = measure_point(&config, 64, SweepEffort::quick());
        assert!(p.get.tps > 3_000.0, "GET {:.0}", p.get.tps);
        assert!(p.put.tps < 2_000.0, "PUT {:.0}", p.put.tps);
        assert!(p.get.tps > p.put.tps * 3.0);
    }

    #[test]
    fn labels_and_tables() {
        let fig = LatencyFigure {
            name: "Fig. 5 (Mercury-1)",
            series: vec![Series {
                cpu: "A7 @1GHz".into(),
                l2: true,
                latency: Duration::from_nanos(10),
                op: "GET",
                points: vec![(64, 11_000.0), (128, 10_500.0)],
            }],
        };
        let tables = fig.tables();
        assert_eq!(tables.len(), 1);
        let text = tables[0].to_string();
        assert!(text.contains("A7 @1GHz with L2"), "{text}");
        assert!(text.contains("10.000ns GET (KTPS)"), "{text}");
        assert!(text.contains("11.00"));
    }
}
