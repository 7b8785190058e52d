//! The off-stack 10 GbE PHY.
//!
//! The physical-layer part of the NIC stays off the 3D stack (§4.1.4);
//! power and packaging follow the Broadcom octal-PHY part the paper cites:
//! 300 mW per 10 GbE port, two PHYs per 441 mm² package, so a 96-stack
//! server carries 48 dual-PHY chips (`densekv_stack::area::board_footprint_mm2`
//! charges each stack half a package).

/// Power of one 10 GbE PHY port, milliwatts (Table 1).
pub const PHY_POWER_MW: f64 = 300.0;

/// Board footprint of one packaged dual-PHY chip, mm² (§5.5).
pub const DUAL_PHY_PACKAGE_MM2: f64 = 441.0;
