//! Figure 4: components of GET and PUT execution time.
//!
//! The paper runs a single A15 @ 1 GHz with a 2 MB L2 and 10 ns DRAM and
//! breaks each request into hash computation, Memcached metadata work,
//! and the network stack (which includes data transfer).

use densekv_cpu::CoreConfig;
use densekv_par::{par_map, Jobs};
use densekv_sim::Duration;
use densekv_workload::paper_size_sweep;

use crate::report::{size_label, TextTable};
use crate::sim::CoreSimConfig;
use crate::sweep::{measure_point, SweepEffort};

/// One bar of Fig. 4: the three component shares at one size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BreakdownBar {
    /// Request size, bytes.
    pub value_bytes: u64,
    /// Network-stack share of server time (includes data transfer).
    pub network: f64,
    /// Memcached metadata share.
    pub store: f64,
    /// Hash-computation share.
    pub hash: f64,
}

/// Figure 4's output: one breakdown series per operation.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Fig. 4a: GET bars.
    pub(crate) get: Vec<BreakdownBar>,
    /// Fig. 4b: PUT bars.
    pub(crate) put: Vec<BreakdownBar>,
}

impl Fig4 {
    /// Renders both panels as tables.
    pub fn tables(&self) -> Vec<TextTable> {
        let render = |title: &str, bars: &[BreakdownBar]| {
            let mut t = TextTable::new(vec![
                "size".into(),
                "hash %".into(),
                "memcached %".into(),
                "network %".into(),
            ])
            .with_title(title);
            for b in bars {
                t.row(vec![
                    size_label(b.value_bytes),
                    format!("{:.1}", b.hash * 100.0),
                    format!("{:.1}", b.store * 100.0),
                    format!("{:.1}", b.network * 100.0),
                ]);
            }
            t
        };
        vec![
            render("Fig. 4a — GET execution time breakdown", &self.get),
            render("Fig. 4b — PUT execution time breakdown", &self.put),
        ]
    }
}

/// Runs the Fig. 4 experiment, one worker task per size point.
pub fn run(effort: SweepEffort, jobs: Jobs) -> Fig4 {
    // Paper §6.1: a single A15 @1 GHz, 2 MB L2, 10 ns DRAM.
    let config = CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10));
    let sizes = paper_size_sweep();
    let points = par_map(jobs, &sizes, |&size| measure_point(&config, size, effort));
    let mut get = Vec::new();
    let mut put = Vec::new();
    for (size, point) in sizes.iter().zip(&points) {
        get.push(BreakdownBar {
            value_bytes: *size,
            network: point.get.network_share,
            store: point.get.store_share,
            hash: point.get.hash_share,
        });
        put.push(BreakdownBar {
            value_bytes: *size,
            network: point.put.network_share,
            store: point.put.store_share,
            hash: point.put.hash_share,
        });
    }
    Fig4 { get, put }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_matches_paper_shape() {
        let fig = run(SweepEffort::quick(), Jobs::SERIAL);
        assert_eq!(fig.get.len(), 15);

        // Small GETs: network ~87%, store ~10%, hash 2-3% (paper §6.1.1).
        let small = &fig.get[0];
        assert!(
            (0.75..0.95).contains(&small.network),
            "64 B GET network share {:.2}",
            small.network
        );
        assert!(small.store < 0.2 && small.store > 0.03);
        assert!(small.hash < 0.08);

        // Large GETs: nearly all network.
        let large = fig.get.last().expect("1 MB bar");
        assert!(
            large.network > 0.95,
            "1 MB network share {:.2}",
            large.network
        );

        // PUTs: Memcached work is a visibly larger share than for GETs.
        let put_small = &fig.put[0];
        assert!(
            put_small.store > small.store * 1.5,
            "PUT store {:.2} vs GET store {:.2}",
            put_small.store,
            small.store
        );

        // Shares are shares.
        for b in fig.get.iter().chain(fig.put.iter()) {
            let sum = b.network + b.store + b.hash;
            assert!((sum - 1.0).abs() < 0.02, "size {}: {sum}", b.value_bytes);
        }
    }

    #[test]
    fn tables_render() {
        let fig = run(SweepEffort::quick(), Jobs::SERIAL);
        let tables = fig.tables();
        assert_eq!(tables.len(), 2);
        let text = tables[0].to_string();
        assert!(text.contains("Fig. 4a"));
        assert!(text.contains("1M"));
    }
}
