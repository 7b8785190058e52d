//! Tables 1–4 of the paper.

use densekv_baseline::specs::TABLE4_BASELINES;
use densekv_mem::technology::TABLE2;
use densekv_stack::components::TABLE1;

use crate::experiments::evaluation::{ConfigEval, Family, CORE_COUNTS};
use crate::report::{si, TextTable};

/// Table 1: power and area for the components of a 3D stack.
pub fn table1() -> TextTable {
    let mut t = TextTable::new(vec![
        "Component".into(),
        "Power (mW)".into(),
        "Area (mm^2)".into(),
    ])
    .with_title("Table 1 — Power and area for the components of a 3D stack");
    for c in TABLE1 {
        let power = if c.power_per_gbps {
            format!("{} (per GB/s)", c.power_mw)
        } else {
            format!("{}", c.power_mw)
        };
        t.row(vec![c.name.into(), power, format!("{:.2}", c.area_mm2)]);
    }
    t
}

/// Table 2: comparison of 3D-stacked DRAM to DIMM packages.
pub fn table2() -> TextTable {
    let mut t = TextTable::new(vec!["DRAM".into(), "BW (GB/s)".into(), "Capacity".into()])
        .with_title("Table 2 — Comparison of 3D-stacked DRAM to DIMM packages");
    for tech in TABLE2 {
        let capacity = if tech.capacity_mb >= 1024 {
            format!("{}GB", tech.capacity_mb / 1024)
        } else {
            format!("{}MB", tech.capacity_mb)
        };
        t.row(vec![
            tech.name.into(),
            format!("{:.1}", tech.bandwidth_gbps),
            capacity,
        ]);
    }
    t
}

/// Table 3: per-family panels of the 1.5U maximum configurations.
///
/// Input must come from
/// [`evaluate_all`](crate::experiments::evaluation::evaluate_all).
pub fn table3(evals: &[ConfigEval]) -> Vec<TextTable> {
    let mut core_labels: Vec<String> = Vec::new();
    for e in evals {
        if !core_labels.contains(&e.core_label) {
            core_labels.push(e.core_label.clone());
        }
    }
    let mut tables = Vec::new();
    for family in Family::ALL {
        for core in &core_labels {
            let mut t = TextTable::new(vec![
                "cores/stack".into(),
                "stacks".into(),
                "area (cm^2)".into(),
                "power (W)".into(),
                "density (GB)".into(),
                "max BW (GB/s)".into(),
                "limit".into(),
            ])
            .with_title(&format!(
                "Table 3 — 1.5U {} server, {} cores",
                family.name(),
                core
            ));
            for &n in &CORE_COUNTS {
                if let Some(e) = evals
                    .iter()
                    .find(|e| e.family == family && e.n == n && &e.core_label == core)
                {
                    t.row(vec![
                        n.to_string(),
                        e.plan.stacks.to_string(),
                        format!("{:.0}", e.at_64b.area_cm2),
                        format!("{:.0}", e.max_power_w),
                        format!("{:.0}", e.plan.density_gb()),
                        format!("{:.1}", e.max_mem_bw_gbps),
                        e.plan.limited_by.to_string(),
                    ]);
                }
            }
            tables.push(t);
        }
    }
    tables
}

/// One row of our reproduced Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// System name.
    pub name: String,
    /// Stacks (1 for the baselines).
    pub stacks: u32,
    /// Cores.
    pub cores: u32,
    /// Memory, GB.
    pub memory_gb: f64,
    /// Power, watts.
    pub power_w: f64,
    /// TPS, millions.
    pub mtps: f64,
    /// Thousand TPS per watt.
    pub ktps_per_watt: f64,
    /// Thousand TPS per GB.
    pub ktps_per_gb: f64,
    /// Bandwidth, GB/s.
    pub bandwidth_gbps: f64,
}

/// Table 4's data: measured Mercury/Iridium rows plus the published
/// baselines.
#[derive(Debug, Clone)]
pub struct Table4 {
    /// All rows in the paper's column order (Mercury n=8/16/32, Iridium
    /// n=8/16/32, Memcached 1.4/1.6/Bags, TSSP).
    pub rows: Vec<Table4Row>,
}

impl Table4 {
    /// Finds a row by name.
    pub fn row(&self, name: &str) -> Option<&Table4Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// Renders the table.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "system".into(),
            "stacks".into(),
            "cores".into(),
            "memory (GB)".into(),
            "power (W)".into(),
            "TPS".into(),
            "KTPS/W".into(),
            "KTPS/GB".into(),
            "BW (GB/s)".into(),
        ])
        .with_title(
            "Table 4 — Comparison of A7-based Mercury and Iridium to prior art (64 B GETs)",
        );
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                r.stacks.to_string(),
                r.cores.to_string(),
                format!("{:.0}", r.memory_gb),
                format!("{:.0}", r.power_w),
                si(r.mtps * 1e6),
                format!("{:.2}", r.ktps_per_watt),
                format!("{:.2}", r.ktps_per_gb),
                format!("{:.2}", r.bandwidth_gbps),
            ]);
        }
        t
    }
}

/// Builds Table 4 from an A7 evaluation grid
/// (`evaluate_a7` or the
/// full grid).
pub fn table4(evals: &[ConfigEval]) -> Table4 {
    let mut rows = Vec::new();
    for family in Family::ALL {
        for &n in &[8u32, 16, 32] {
            if let Some(e) = evals
                .iter()
                .find(|e| e.family == family && e.n == n && e.core_label.starts_with("A7"))
            {
                let r = &e.at_64b;
                rows.push(Table4Row {
                    name: format!("{}-{}", family.name(), n),
                    stacks: r.stacks,
                    cores: r.cores,
                    memory_gb: r.memory_gb,
                    power_w: r.power_w,
                    mtps: r.tps / 1e6,
                    ktps_per_watt: r.ktps_per_watt,
                    ktps_per_gb: r.ktps_per_gb,
                    // The paper's BW column is TPS x 64 B of request data.
                    bandwidth_gbps: r.tps * 64.0 / 1e9,
                });
            }
        }
    }
    for b in TABLE4_BASELINES {
        rows.push(Table4Row {
            name: b.name.to_owned(),
            stacks: 1,
            cores: b.cores,
            memory_gb: b.memory_gb,
            power_w: b.power_w,
            mtps: b.mtps,
            ktps_per_watt: b.ktps_per_watt(),
            ktps_per_gb: b.ktps_per_gb(),
            bandwidth_gbps: b.bandwidth_gbps,
        });
    }
    Table4 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::evaluation::evaluate_a7;
    use crate::sweep::SweepEffort;
    use densekv_par::Jobs;

    #[test]
    fn static_tables_have_paper_rows() {
        let t1 = table1();
        assert_eq!(t1.row_count(), 7);
        assert!(t1.to_string().contains("A7@1GHz"));
        let t2 = table2();
        assert_eq!(t2.row_count(), 7);
        assert!(t2.to_string().contains("HMC I"));
    }

    #[test]
    fn table4_rows_and_shape() {
        let evals = evaluate_a7(SweepEffort::quick(), Jobs::SERIAL);
        let t4 = table4(&evals);
        assert_eq!(t4.rows.len(), 10);

        let mercury32 = t4.row("Mercury-32").expect("row");
        let bags = t4.row("Memcached Bags").expect("row");
        // The paper's headline relationships, as orderings.
        assert!(mercury32.mtps > 5.0 * bags.mtps, "TPS >> Bags");
        assert!(mercury32.ktps_per_watt > 3.0 * bags.ktps_per_watt);
        assert!(mercury32.memory_gb > 2.0 * bags.memory_gb);

        let iridium32 = t4.row("Iridium-32").expect("row");
        assert!(iridium32.memory_gb > 10.0 * bags.memory_gb, "14x density");
        assert!(
            iridium32.ktps_per_gb < bags.ktps_per_gb,
            "the 2.8x TPS/GB price"
        );

        let rendered = t4.table().to_string();
        assert!(rendered.contains("TSSP"));
    }
}
