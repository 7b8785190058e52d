//! The paper's Table 2: 3D-stacked DRAM versus DIMM packages.
//!
//! These are catalog constants the paper uses to motivate 3D stacking:
//! conventional DIMMs deliver 6.4–21.3 GB/s per package, while 3D-stacked
//! parts reach 12.8–128 GB/s, and the projected Tezzaron part that Mercury
//! assumes reaches 100 GB/s at 4 GB per stack.
//!
//! The hybrid Helios organization (`densekv-hybrid`) draws from both
//! columns of this catalog at once: a thin slice of the Tezzaron-class
//! 3D DRAM (64 MB–1 GB) bonded above the Iridium p-BiCS flash array,
//! giving DRAM-class bandwidth on the hot set at flash-class capacity.

use core::fmt;

/// One row of Table 2: a DRAM technology's bandwidth and capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTechnology {
    /// Human-readable technology name as printed in the paper.
    pub name: &'static str,
    /// Peak bandwidth of one package, GB/s.
    pub bandwidth_gbps: f64,
    /// Capacity of one package, MB.
    pub capacity_mb: u64,
    /// Whether the part is 3D-stacked (vs. a DIMM package).
    pub stacked: bool,
}

impl fmt::Display for DramTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} — {:.1} GB/s, {} MB{}",
            self.name,
            self.bandwidth_gbps,
            self.capacity_mb,
            if self.stacked { " (3D)" } else { "" }
        )
    }
}

/// DDR3-1333 DIMM (Table 2, row 1).
pub(crate) const DDR3_1333: DramTechnology = DramTechnology {
    name: "DDR3-1333",
    bandwidth_gbps: 10.7,
    capacity_mb: 2048,
    stacked: false,
};

/// DDR4-2667 DIMM (Table 2, row 2).
pub(crate) const DDR4_2667: DramTechnology = DramTechnology {
    name: "DDR4-2667",
    bandwidth_gbps: 21.3,
    capacity_mb: 2048,
    stacked: false,
};

/// LPDDR3 at 30 nm (Table 2, row 3).
pub(crate) const LPDDR3: DramTechnology = DramTechnology {
    name: "LPDDR3 (30nm)",
    bandwidth_gbps: 6.4,
    capacity_mb: 512,
    stacked: false,
};

/// Hybrid Memory Cube generation I (Table 2, row 4).
pub(crate) const HMC_I: DramTechnology = DramTechnology {
    name: "HMC I (3D-Stack)",
    bandwidth_gbps: 128.0,
    capacity_mb: 512,
    stacked: true,
};

/// Wide I/O mobile 3D stack at 50 nm (Table 2, row 5).
pub(crate) const WIDE_IO: DramTechnology = DramTechnology {
    name: "Wide I/O (3D-stack, 50nm)",
    bandwidth_gbps: 12.8,
    capacity_mb: 512,
    stacked: true,
};

/// Tezzaron Octopus 8-port 3D DRAM (Table 2, row 6).
pub(crate) const TEZZARON_OCTOPUS: DramTechnology = DramTechnology {
    name: "Tezzaron Octopus (3D-Stack)",
    bandwidth_gbps: 50.0,
    capacity_mb: 512,
    stacked: true,
};

/// The projected next-generation Tezzaron part Mercury is built from
/// (Table 2, row 7): 100 GB/s, 4 GB per stack.
pub(crate) const TEZZARON_FUTURE: DramTechnology = DramTechnology {
    name: "Future Tezzaron (3D-stack)",
    bandwidth_gbps: 100.0,
    capacity_mb: 4096,
    stacked: true,
};

/// All of Table 2 in the paper's row order.
pub const TABLE2: [DramTechnology; 7] = [
    DDR3_1333,
    DDR4_2667,
    LPDDR3,
    HMC_I,
    WIDE_IO,
    TEZZARON_OCTOPUS,
    TEZZARON_FUTURE,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_paper_rows_in_order() {
        assert_eq!(TABLE2.len(), 7);
        assert_eq!(TABLE2[0].name, "DDR3-1333");
        assert_eq!(TABLE2[6].name, "Future Tezzaron (3D-stack)");
    }

    #[test]
    fn mercury_part_matches_paper() {
        let part = TEZZARON_FUTURE;
        assert_eq!(part.bandwidth_gbps, 100.0);
        assert_eq!(part.capacity_mb, 4096);
        assert!(part.stacked);
    }

    #[test]
    fn stacked_parts_lead_on_bandwidth_per_mb() {
        // The figure of merit that makes 3D parts attractive for
        // bandwidth-starved key-value serving.
        let bandwidth_per_mb = |t: &DramTechnology| t.bandwidth_gbps / t.capacity_mb as f64;
        // Every 3D part in the table beats every DIMM on BW per MB except
        // the future Tezzaron part, which trades some of that for capacity.
        let best_dimm = TABLE2
            .iter()
            .filter(|t| !t.stacked)
            .map(bandwidth_per_mb)
            .fold(0.0f64, f64::max);
        for t in TABLE2.iter().filter(|t| t.stacked && t.capacity_mb <= 512) {
            assert!(
                bandwidth_per_mb(t) > best_dimm,
                "{} should beat the best DIMM",
                t.name
            );
        }
    }

    #[test]
    fn display_mentions_stacking() {
        assert!(HMC_I.to_string().contains("(3D)"));
        assert!(!DDR3_1333.to_string().contains("(3D)"));
    }
}
