//! Ablations: each design claim the paper makes through a single
//! comparison, measured with and without the feature.
//!
//! | Ablation | Claim | Variants |
//! |---|---|---|
//! | `l2` | §6.2: the L2 pays off only at high DRAM latency | L2 on/off at 10 and 100 ns, 64 B GET |
//! | `row_buffer` | §5.2: closed-page timing is the worst case | closed vs open page at 50 ns, 4 KB GET |
//! | `3d_stacking` | Table 2: 16 stacked ports beat a DIMM interface | 3D stack vs [`DramConfig::ddr3_like`], no L2, 64 B and 64 KB GET |
//! | `network` | §2.3.1: the TCP stack dominates a small GET | TCP vs [`TcpCostModel::udp`], 64 B GET |
//! | `wear_leveling` | §3.3: flash caching needs wear-leveling | static leveling on/off under hot overwrites |
//! | `vnodes` | §3.8: virtual nodes spread DHT load | 96-node ring at 1/4/16/64 vnodes |
//!
//! The result is one long-format table (`ablation,variant,quantity,value`),
//! so every quoted number is one row of `results/ablations.csv`.

use densekv_cpu::CoreConfig;
use densekv_dht::ConsistentHashRing;
use densekv_mem::dram::DramConfig;
use densekv_mem::flash::FlashConfig;
use densekv_mem::ftl::Ftl;
use densekv_mem::PagePolicy;
use densekv_net::TcpCostModel;
use densekv_par::{par_map, Jobs};
use densekv_sim::Duration;
use densekv_stack::MemoryKind;

use crate::report::{size_label, TextTable};
use crate::sim::CoreSimConfig;
use crate::sweep::{measure_point, SweepEffort};

/// One independent point of the ablation grid (one worker task).
enum Point {
    /// GET throughput of a core: ablation, variant, config, value bytes.
    Core(&'static str, &'static str, Box<CoreSimConfig>, u64),
    /// Write amplification and wear spread with static leveling on/off.
    Wear(bool),
    /// Load imbalance of a 96-node ring with this many vnodes per node.
    Vnodes(u32),
}

/// A small flash array, so the hot/cold split runs GC and leveling
/// thousands of times in a fraction of a second.
fn small_flash() -> FlashConfig {
    FlashConfig {
        planes: 4,
        page_bytes: 8 << 10,
        pages_per_block: 32,
        blocks_per_plane: 64,
        read_latency: Duration::from_micros(10),
        program_latency: Duration::from_micros(200),
        erase_latency: Duration::from_millis(2),
        controller_overhead: Duration::from_micros(8),
        active_mw_per_gbps: 6.0,
    }
}

fn points() -> Vec<Point> {
    let mercury =
        |l2, ns| CoreSimConfig::mercury(CoreConfig::a7_1ghz(), l2, Duration::from_nanos(ns));
    let page = |page_policy| CoreSimConfig {
        memory: MemoryKind::Mercury(DramConfig {
            page_policy,
            ..DramConfig::mercury(Duration::from_nanos(50))
        }),
        ..mercury(true, 50)
    };
    let ddr3 = CoreSimConfig {
        memory: MemoryKind::Mercury(DramConfig::ddr3_like()),
        ..mercury(false, 10)
    };
    let udp = CoreSimConfig {
        tcp: TcpCostModel::udp(),
        ..mercury(true, 10)
    };
    let core = |ablation, variant, config, value_bytes| {
        Point::Core(ablation, variant, Box::new(config), value_bytes)
    };
    let mut points = vec![
        core("l2", "on_10ns", mercury(true, 10), 64),
        core("l2", "off_10ns", mercury(false, 10), 64),
        core("l2", "on_100ns", mercury(true, 100), 64),
        core("l2", "off_100ns", mercury(false, 100), 64),
        core("row_buffer", "closed_page", page(PagePolicy::Closed), 4096),
        core("row_buffer", "open_page", page(PagePolicy::Open), 4096),
        core("3d_stacking", "3d_stack", mercury(false, 10), 64),
        core("3d_stacking", "ddr3_dimm", ddr3.clone(), 64),
        core("3d_stacking", "3d_stack", mercury(false, 10), 64 << 10),
        core("3d_stacking", "ddr3_dimm", ddr3, 64 << 10),
        core("network", "tcp", mercury(true, 10), 64),
        core("network", "udp", udp, 64),
        Point::Wear(true),
        Point::Wear(false),
    ];
    points.extend([1, 4, 16, 64].map(Point::Vnodes));
    points
}

impl Point {
    /// Measures the point into its `[ablation, variant, quantity, value]`
    /// rows.
    fn measure(&self, effort: SweepEffort) -> Vec<[String; 4]> {
        let row = |ablation: &str, variant: &str, quantity: &str, value: String| {
            [ablation.into(), variant.into(), quantity.into(), value]
        };
        match self {
            Point::Core(ablation, variant, config, value_bytes) => {
                let quantity = format!("get_ktps_{}B", size_label(*value_bytes));
                let ktps = measure_point(config, *value_bytes, effort).get.tps / 1000.0;
                vec![row(ablation, variant, &quantity, format!("{ktps:.2}"))]
            }
            Point::Wear(leveling) => {
                // A cold half written once, then 60 000 overwrites of 16
                // hot pages: without leveling the cold blocks never erase.
                let mut ftl = Ftl::new(small_flash(), 0.125);
                ftl.set_wear_threshold(if *leveling { 3 } else { u32::MAX });
                let cold = ftl.exported_pages() / 2;
                for lpn in 0..cold {
                    ftl.write(lpn).expect("cold fill");
                }
                for i in 0..60_000u64 {
                    ftl.write(cold + (i % 16)).expect("hot overwrites");
                }
                let (min, max) = ftl.flash().wear_spread();
                let variant = if *leveling { "on" } else { "off" };
                let write_amp = format!("{:.2}", ftl.write_amplification());
                vec![
                    row("wear_leveling", variant, "write_amp", write_amp),
                    row("wear_leveling", variant, "wear_min", min.to_string()),
                    row("wear_leveling", variant, "wear_max", max.to_string()),
                ]
            }
            Point::Vnodes(vnodes) => {
                let mut ring = ConsistentHashRing::new(*vnodes);
                for node in 0..96 {
                    ring.add_node(node);
                }
                let variant = vnodes.to_string();
                let imbalance = format!("{:.2}", ring.load_imbalance(100_000, 7));
                vec![row("vnodes", &variant, "max_over_mean", imbalance)]
            }
        }
    }
}

/// Runs every ablation, one worker task per point; rows come out in
/// the fixed point order, so the table is the same at any `jobs`.
pub fn run(effort: SweepEffort, jobs: Jobs) -> TextTable {
    let header = ["ablation", "variant", "quantity", "value"];
    let mut t = TextTable::new(header.map(String::from).into())
        .with_title("Ablations — each design claim with and without its feature");
    let rows = par_map(jobs, &points(), |point| point.measure(effort));
    for row in rows.into_iter().flatten() {
        t.row(row.into());
    }
    t
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    /// Every claim EXPERIMENTS.md makes about the ablations holds on the
    /// quick grid, read back from the CSV the runner emits.
    #[test]
    fn each_claim_points_the_stated_way() {
        let csv = run(SweepEffort::quick(), Jobs::new(2)).to_csv();
        let values: HashMap<&str, f64> = csv
            .lines()
            .skip(1)
            .map(|line| {
                let (key, value) = line.rsplit_once(',').expect("four columns");
                (key, value.parse().expect("numeric value"))
            })
            .collect();
        let v = |key: &str| values[key];
        // Each claim reads "row < row".
        for claim in [
            "l2,off_100ns,get_ktps_64B < l2,on_100ns,get_ktps_64B",
            "3d_stacking,ddr3_dimm,get_ktps_64B < 3d_stacking,3d_stack,get_ktps_64B",
            "3d_stacking,ddr3_dimm,get_ktps_64KB < 3d_stacking,3d_stack,get_ktps_64KB",
            "network,tcp,get_ktps_64B < network,udp,get_ktps_64B",
            "wear_leveling,off,write_amp < wear_leveling,on,write_amp",
            "vnodes,4,max_over_mean < vnodes,1,max_over_mean",
            "vnodes,16,max_over_mean < vnodes,4,max_over_mean",
            "vnodes,64,max_over_mean < vnodes,16,max_over_mean",
        ] {
            let (lower, higher) = claim.split_once(" < ").expect("a comparison");
            assert!(v(lower) < v(higher), "{claim} fails:\n{csv}");
        }
        let l2_off_cost = 1.0 - v("l2,off_10ns,get_ktps_64B") / v("l2,on_10ns,get_ktps_64B");
        assert!(l2_off_cost.abs() < 0.05, "L2 matters at 10 ns:\n{csv}");
        let page = |policy| v(&format!("row_buffer,{policy}_page,get_ktps_4KB"));
        assert!(page("open") >= page("closed"), "open page loses:\n{csv}");
        let spread = |on_off| {
            v(&format!("wear_leveling,{on_off},wear_max"))
                - v(&format!("wear_leveling,{on_off},wear_min"))
        };
        assert!(
            spread("on") < spread("off"),
            "leveling widens the wear spread:\n{csv}"
        );
        assert_eq!(
            v("wear_leveling,off,write_amp"),
            1.0,
            "no leveling, yet migrations:\n{csv}"
        );
    }
}
