//! The paper's published numbers: the paper column of `digest.csv`, and
//! the calibration tests.

/// A Table 4 row as published.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table4Row {
    /// Configuration label.
    pub name: &'static str,
    /// Stacks in the 1.5U box.
    pub stacks: u32,
    /// Total cores.
    pub cores: u32,
    /// Memory, GB.
    pub memory_gb: f64,
    /// Power, watts.
    pub power_w: f64,
    /// Millions of TPS at 64 B.
    pub mtps: f64,
    /// Thousand TPS per watt.
    pub ktps_per_watt: f64,
    /// Thousand TPS per GB.
    pub ktps_per_gb: f64,
    /// Bandwidth, GB/s.
    pub bandwidth_gbps: f64,
}

/// Table 4, Mercury columns (A7 cores).
pub const TABLE4_MERCURY: [Table4Row; 3] = [
    Table4Row {
        name: "Mercury-8",
        stacks: 96,
        cores: 768,
        memory_gb: 384.0,
        power_w: 309.0,
        mtps: 8.44,
        ktps_per_watt: 27.33,
        ktps_per_gb: 21.98,
        bandwidth_gbps: 0.54,
    },
    Table4Row {
        name: "Mercury-16",
        stacks: 96,
        cores: 1536,
        memory_gb: 384.0,
        power_w: 410.0,
        mtps: 16.88,
        ktps_per_watt: 41.21,
        ktps_per_gb: 43.96,
        bandwidth_gbps: 1.08,
    },
    Table4Row {
        name: "Mercury-32",
        stacks: 93,
        cores: 2976,
        memory_gb: 372.0,
        power_w: 597.0,
        mtps: 32.70,
        ktps_per_watt: 54.77,
        ktps_per_gb: 87.91,
        bandwidth_gbps: 2.09,
    },
];

/// Table 4, Iridium columns (A7 cores).
pub const TABLE4_IRIDIUM: [Table4Row; 3] = [
    Table4Row {
        name: "Iridium-8",
        stacks: 96,
        cores: 768,
        memory_gb: 1901.0,
        power_w: 309.0,
        mtps: 4.12,
        ktps_per_watt: 13.35,
        ktps_per_gb: 2.17,
        bandwidth_gbps: 0.26,
    },
    Table4Row {
        name: "Iridium-16",
        stacks: 96,
        cores: 1536,
        memory_gb: 1901.0,
        power_w: 410.0,
        mtps: 8.24,
        ktps_per_watt: 20.13,
        ktps_per_gb: 4.34,
        bandwidth_gbps: 0.53,
    },
    Table4Row {
        name: "Iridium-32",
        stacks: 96,
        cores: 3072,
        memory_gb: 1901.0,
        power_w: 611.0,
        mtps: 16.49,
        ktps_per_watt: 26.98,
        ktps_per_gb: 8.67,
        bandwidth_gbps: 1.06,
    },
];

/// The §6 headline multipliers versus the Bags baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Density improvement.
    pub density: f64,
    /// Power-efficiency (TPS/W) improvement.
    pub efficiency: f64,
    /// Throughput improvement.
    pub throughput: f64,
    /// TPS/GB change (>1 = better, <1 = the Iridium trade-off).
    pub tps_per_gb: f64,
}

/// Mercury's published headline: 2.9× density, 4.9× TPS/W, 10× TPS,
/// 3.5× TPS/GB.
pub const MERCURY_HEADLINE: Headline = Headline {
    density: 2.9,
    efficiency: 4.9,
    throughput: 10.0,
    tps_per_gb: 3.5,
};

/// Iridium's published headline: 14× density (the abstract's 14× /
/// conclusion's 14.8×), 2.4× TPS/W, 5.2× TPS, 2.8× *less* TPS/GB.
pub const IRIDIUM_HEADLINE: Headline = Headline {
    density: 14.8,
    efficiency: 2.4,
    throughput: 5.2,
    tps_per_gb: 1.0 / 2.8,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_internal_consistency() {
        for row in TABLE4_MERCURY.iter().chain(TABLE4_IRIDIUM.iter()) {
            // KTPS/W and KTPS/GB columns follow from TPS, power, memory.
            let ktps_w = row.mtps * 1000.0 / row.power_w;
            assert!(
                (ktps_w - row.ktps_per_watt).abs() / row.ktps_per_watt < 0.02,
                "{}: {ktps_w} vs {}",
                row.name,
                row.ktps_per_watt
            );
            let ktps_gb = row.mtps * 1000.0 / row.memory_gb;
            assert!(
                (ktps_gb - row.ktps_per_gb).abs() / row.ktps_per_gb < 0.02,
                "{}: {ktps_gb} vs {}",
                row.name,
                row.ktps_per_gb
            );
            // Bandwidth = TPS x 64 B.
            let bw = row.mtps * 1e6 * 64.0 / 1e9;
            assert!(
                (bw - row.bandwidth_gbps).abs() < 0.03,
                "{}: {bw} vs {}",
                row.name,
                row.bandwidth_gbps
            );
        }
    }

    #[test]
    fn headlines_follow_from_table4_and_bags() {
        let bags = densekv_baseline::BAGS;
        let mercury = TABLE4_MERCURY[2];
        assert!((mercury.mtps / bags.mtps - MERCURY_HEADLINE.throughput).abs() < 0.5);
        assert!(
            (mercury.ktps_per_watt / bags.ktps_per_watt() - MERCURY_HEADLINE.efficiency).abs()
                < 0.2
        );
        assert!((mercury.memory_gb / bags.memory_gb - MERCURY_HEADLINE.density).abs() < 0.1);
        let iridium = TABLE4_IRIDIUM[2];
        assert!((iridium.mtps / bags.mtps - IRIDIUM_HEADLINE.throughput).abs() < 0.1);
        assert!((iridium.memory_gb / bags.memory_gb - IRIDIUM_HEADLINE.density).abs() < 0.1);
    }

    #[test]
    fn per_core_rates_match_table4() {
        // An A7 core serves about 11 KTPS of 64 B GETs on Mercury and
        // 5.37 KTPS on Iridium; the Mercury-32 and Iridium-32 rows imply it.
        let m = &TABLE4_MERCURY[2];
        assert!((m.mtps * 1e3 / m.cores as f64 - 11.0).abs() < 0.1);
        let i = &TABLE4_IRIDIUM[2];
        assert!((i.mtps * 1e3 / i.cores as f64 - 5.37).abs() < 0.1);
    }
}
