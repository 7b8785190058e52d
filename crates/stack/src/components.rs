//! Table 1 of the paper: power and area for the components of a 3D stack.
//!
//! Each number is read from the constant that owns it — the core
//! constructors in `densekv-cpu`, the memory rates in `densekv-mem`, the
//! MAC and PHY in `densekv-net` — so the table cannot drift from the
//! models that use it.

use densekv_cpu::CoreConfig;
use densekv_mem::dram::MERCURY_MW_PER_GBPS;
use densekv_mem::flash::IRIDIUM_MW_PER_GBPS;
use densekv_net::{nic, phy};

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentSpec {
    /// Component name as printed in the paper.
    pub name: &'static str,
    /// Power in milliwatts. For the memories this is per GB/s of
    /// sustained bandwidth.
    pub power_mw: f64,
    /// True when `power_mw` is per GB/s rather than absolute.
    pub power_per_gbps: bool,
    /// Area in mm².
    pub area_mm2: f64,
}

/// A core's row, from its [`CoreConfig`].
const fn core_row(name: &'static str, core: CoreConfig) -> ComponentSpec {
    ComponentSpec {
        name,
        power_mw: core.power_mw,
        power_per_gbps: false,
        area_mm2: core.area_mm2,
    }
}

/// Cortex-A7 at 1 GHz.
pub(crate) const A7_1GHZ: ComponentSpec = core_row("A7@1GHz", CoreConfig::a7_1ghz());

/// Cortex-A15 at 1 GHz.
pub(crate) const A15_1GHZ: ComponentSpec = core_row("A15@1GHz", CoreConfig::a15_1ghz());

/// Cortex-A15 at 1.5 GHz.
pub(crate) const A15_1P5GHZ: ComponentSpec = core_row("A15@1.5GHz", CoreConfig::a15_1p5ghz());

/// The 4 GB 3D DRAM stack (power per GB/s of bandwidth).
pub(crate) const DRAM_3D_4GB: ComponentSpec = ComponentSpec {
    name: "3D DRAM (4GB)",
    power_mw: MERCURY_MW_PER_GBPS,
    power_per_gbps: true,
    area_mm2: 279.0,
};

/// The 19.8 GB 3D NAND flash (power per GB/s of bandwidth).
pub(crate) const FLASH_3D_19GB: ComponentSpec = ComponentSpec {
    name: "3D NAND Flash (19.8GB)",
    power_mw: IRIDIUM_MW_PER_GBPS,
    power_per_gbps: true,
    area_mm2: 279.0,
};

/// The on-stack NIC MAC and buffers.
pub(crate) const NIC_MAC: ComponentSpec = ComponentSpec {
    name: "3D Stack NIC (MAC)",
    power_mw: nic::POWER_MW,
    power_per_gbps: false,
    area_mm2: nic::AREA_MM2,
};

/// The off-stack 10 GbE PHY.
pub(crate) const NIC_PHY: ComponentSpec = ComponentSpec {
    name: "Physical NIC (PHY)",
    power_mw: phy::PHY_POWER_MW,
    power_per_gbps: false,
    area_mm2: phy::PHY_AREA_MM2,
};

/// All of Table 1 in the paper's row order.
pub const TABLE1: [ComponentSpec; 7] = [
    A7_1GHZ,
    A15_1GHZ,
    A15_1P5GHZ,
    DRAM_3D_4GB,
    FLASH_3D_19GB,
    NIC_MAC,
    NIC_PHY,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        assert_eq!(TABLE1.len(), 7);
        assert_eq!(A7_1GHZ.power_mw, 100.0);
        assert_eq!(A15_1P5GHZ.power_mw, 1000.0);
        let dram = DRAM_3D_4GB;
        assert_eq!(dram.power_mw, 210.0);
        assert!(dram.power_per_gbps);
        assert_eq!(FLASH_3D_19GB.power_mw, 6.0);
        assert_eq!(NIC_MAC.area_mm2, 0.43);
        assert_eq!(NIC_PHY.area_mm2, 220.0);
    }

    #[test]
    fn memory_dies_share_the_stack_footprint() {
        // Both memory options occupy the same 15.5 mm x 18 mm die.
        assert_eq!(DRAM_3D_4GB.area_mm2, FLASH_3D_19GB.area_mm2);
        assert!((15.5 * 18.0 - DRAM_3D_4GB.area_mm2).abs() < 0.1);
    }
}
