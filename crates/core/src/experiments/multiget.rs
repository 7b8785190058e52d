//! Extension experiment: multi-GET batching.
//!
//! Fig. 4 shows ~87 % of a small request is network-stack time, which is
//! exactly what Memcached's `get k1 k2 …` batching amortizes. This
//! experiment measures per-key throughput versus batch size on both
//! architectures — the "free" throughput the paper's single-GET sweeps
//! leave on the table.

use densekv_par::{par_map, Jobs};
use densekv_workload::key_bytes;

use crate::report::TextTable;
use crate::sim::{CoreSim, CoreSimConfig};

/// One batch-size measurement.
#[derive(Debug, Clone)]
pub struct MultigetPoint {
    /// Architecture label.
    pub system: &'static str,
    /// Keys per request.
    pub batch: u32,
    /// Effective per-key throughput, keys/second.
    pub(crate) keys_per_sec: f64,
    /// Speedup over batch = 1.
    pub(crate) speedup: f64,
}

/// Batch sizes measured.
pub(crate) const BATCHES: [u32; 5] = [1, 2, 4, 16, 64];

/// Runs the batching sweep at 64 B values. Each (system, batch) cell
/// builds and warms its own core so the cells are independent worker
/// tasks; the batch = 1 cell of each system anchors the speedup column
/// after the join.
pub fn run(jobs: Jobs) -> Vec<MultigetPoint> {
    let systems: [(&'static str, CoreSimConfig); 2] = [
        ("Mercury A7", CoreSimConfig::mercury_a7()),
        ("Iridium A7", CoreSimConfig::iridium_a7()),
    ];
    let tasks: Vec<(usize, u32)> = (0..systems.len())
        .flat_map(|si| BATCHES.into_iter().map(move |batch| (si, batch)))
        .collect();
    let rates = par_map(jobs, &tasks, |&(si, batch)| {
        let mut core = CoreSim::preloaded(&systems[si].1, 64, 128);
        let keys: Vec<Vec<u8>> = (0..u64::from(batch)).map(key_bytes).collect();
        for _ in 0..120 {
            core.execute_multiget(&keys, 64);
        }
        let mut total = densekv_sim::Duration::ZERO;
        let measured = 40;
        for _ in 0..measured {
            let (timing, hits) = core.execute_multiget(&keys, 64);
            assert_eq!(hits, batch, "preloaded keys must hit");
            total += timing.rtt;
        }
        let per_key = total.as_secs_f64() / f64::from(measured) / f64::from(batch);
        1.0 / per_key
    });
    tasks
        .iter()
        .zip(&rates)
        .enumerate()
        .map(|(i, (&(si, batch), &keys_per_sec))| {
            // The first cell of each system row is its batch = 1 baseline.
            let baseline = rates[i / BATCHES.len() * BATCHES.len()];
            MultigetPoint {
                system: systems[si].0,
                batch,
                keys_per_sec,
                speedup: keys_per_sec / baseline,
            }
        })
        .collect()
}

/// Renders the batching table.
pub fn table(points: &[MultigetPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "batch".into(),
        "Mercury keys/s (K)".into(),
        "Mercury speedup".into(),
        "Iridium keys/s (K)".into(),
        "Iridium speedup".into(),
    ])
    .with_title("Extension — multi-GET batching (64 B values, per-key throughput)");
    for batch in BATCHES {
        let find = |system: &str| {
            points
                .iter()
                .find(|p| p.system == system && p.batch == batch)
        };
        if let (Some(m), Some(i)) = (find("Mercury A7"), find("Iridium A7")) {
            t.row(vec![
                batch.to_string(),
                format!("{:.2}", m.keys_per_sec / 1000.0),
                format!("{:.2}x", m.speedup),
                format!("{:.2}", i.keys_per_sec / 1000.0),
                format!("{:.2}x", i.speedup),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_amortizes_monotonically() {
        let points = run(Jobs::SERIAL);
        assert_eq!(points.len(), 10);
        for system in ["Mercury A7", "Iridium A7"] {
            let series: Vec<_> = points.iter().filter(|p| p.system == system).collect();
            for pair in series.windows(2) {
                assert!(
                    pair[1].keys_per_sec > pair[0].keys_per_sec * 0.98,
                    "{system}: batching must not hurt ({} -> {})",
                    pair[0].keys_per_sec,
                    pair[1].keys_per_sec
                );
            }
        }
        // Mercury amortizes deeply (network dominates); Iridium caps
        // early because per-key flash reads don't batch away.
        let last = |system: &str| {
            points
                .iter()
                .rfind(|p| p.system == system)
                .expect("nonempty")
                .speedup
        };
        assert!(
            last("Mercury A7") > 2.5,
            "Mercury: {:.2}",
            last("Mercury A7")
        );
        assert!(
            last("Iridium A7") > 1.5,
            "Iridium: {:.2}",
            last("Iridium A7")
        );
        assert!(
            last("Mercury A7") > last("Iridium A7"),
            "flash bounds Iridium's batching gains"
        );
        assert_eq!(table(&points).row_count(), BATCHES.len());
    }
}
