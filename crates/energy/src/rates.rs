//! Rate constants converting simulated activity into joules.

use densekv_sim::Duration;

/// The per-stack energy rate constants, derived from Table 1 (and the
/// workspace's one L2 assumption). `densekv-stack::power::energy_rates`
/// builds these from a `StackConfig`, which is the canonical path — the
/// constructors here exist for tests and for code that has no stack
/// config in hand, and the stack crate's tests pin them to the Table 1
/// component specs so the two can't drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyRates {
    /// Core draw, mW per core (Table 1). The paper charges cores as
    /// constant draw, so idle time is charged at this rate too: the
    /// active/idle split is attribution over time, not a DVFS model.
    pub core_active_mw: f64,
    /// Power-gated L2 SRAM leakage, mW per core with an L2 (`0.0`
    /// without; the workspace's `L2_POWER_MW` assumption).
    pub l2_leak_mw_per_core: f64,
    /// Memory-device active energy, mW per GB/s of sustained bandwidth
    /// (Table 1: DRAM 210, flash 6). Numerically this is also the
    /// device's pJ/byte: `mW/(GB/s) = mJ/GB = pJ/B`.
    pub(crate) mem_mw_per_gbps: f64,
    /// NIC MAC draw, mW (Table 1).
    pub mac_mw: f64,
    /// This stack's 10 GbE PHY share, mW (Table 1; one PHY port per
    /// stack, §4.1.4).
    pub phy_mw: f64,
    /// L1 I/D dynamic energy per access, pJ (attributed out of the core
    /// budget; ~32 KB SRAM read in 28 nm).
    pub l1_pj_per_access: f64,
    /// L2 dynamic energy per access, pJ (attributed out of the core
    /// budget; ~2 MB SRAM read in 28 nm).
    pub l2_pj_per_access: f64,
}

/// Default L1 dynamic access energy, pJ.
pub(crate) const L1_PJ_PER_ACCESS: f64 = 10.0;
/// Default L2 dynamic access energy, pJ.
pub(crate) const L2_PJ_PER_ACCESS: f64 = 120.0;

impl EnergyRates {
    /// Rates for a stack of cores drawing `core_mw` each, with or
    /// without L2s leaking `l2_mw` per core, over a memory device rated
    /// `mem_mw_per_gbps`.
    #[must_use]
    pub fn new(core_mw: f64, l2_mw: f64, mem_mw_per_gbps: f64, mac_mw: f64, phy_mw: f64) -> Self {
        EnergyRates {
            core_active_mw: core_mw,
            l2_leak_mw_per_core: l2_mw,
            mem_mw_per_gbps,
            mac_mw,
            phy_mw,
            l1_pj_per_access: L1_PJ_PER_ACCESS,
            l2_pj_per_access: L2_PJ_PER_ACCESS,
        }
    }

    /// The headline Mercury-A7 rates (A7 100 mW, DRAM 210 mW/(GB/s),
    /// MAC 120 mW, PHY 300 mW, L2 leakage 10 mW when present).
    #[must_use]
    pub fn mercury_a7(l2: bool) -> Self {
        EnergyRates::new(100.0, if l2 { 10.0 } else { 0.0 }, 210.0, 120.0, 300.0)
    }

    /// The headline Iridium-A7 rates (flash 6 mW/(GB/s)).
    #[must_use]
    pub fn iridium_a7(l2: bool) -> Self {
        EnergyRates::new(100.0, if l2 { 10.0 } else { 0.0 }, 6.0, 120.0, 300.0)
    }

    /// Memory energy per byte moved at the device, joules.
    ///
    /// `mW/(GB/s)` is `mJ/GB`, i.e. `rate × 1e-12` J/byte — the exact
    /// identity that makes event-driven memory energy integrate to the
    /// analytic §5.4 bandwidth term.
    #[must_use]
    pub fn mem_j_per_byte(&self) -> f64 {
        self.mem_mw_per_gbps * 1e-12
    }

    /// Constant (time-proportional) draw of a whole stack of `cores`
    /// cores, watts: cores + L2 leakage + MAC + PHY share. This is
    /// exactly `stack_power(config, 0.0).total_w()`.
    #[must_use]
    pub fn stack_static_w(&self, cores: u32) -> f64 {
        let cores = f64::from(cores);
        (cores * (self.core_active_mw + self.l2_leak_mw_per_core) + self.mac_mw + self.phy_mw)
            * 1e-3
    }

    /// Energy of the static draw held for `elapsed`, joules.
    #[must_use]
    pub fn stack_static_j(&self, cores: u32, elapsed: Duration) -> f64 {
        self.stack_static_w(cores) * elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pj_per_byte_identity() {
        let r = EnergyRates::mercury_a7(true);
        // 1 GB/s for 1 s at 210 mW/(GB/s) = 0.21 J; 1e9 bytes x pJ/B
        // must agree.
        let analytic_j = 210.0 * 1e-3;
        let event_j = r.mem_j_per_byte() * 1e9;
        assert!((analytic_j - event_j).abs() < 1e-15);
    }

    #[test]
    fn static_power_sums_components() {
        let r = EnergyRates::mercury_a7(true);
        // 32 cores: 32x(100+10) + 120 + 300 mW = 3.94 W.
        assert!((r.stack_static_w(32) - 3.94).abs() < 1e-12);
        let no_l2 = EnergyRates::mercury_a7(false);
        assert!((no_l2.stack_static_w(32) - 3.62).abs() < 1e-12);
        // One second of static draw.
        assert!((r.stack_static_j(32, Duration::from_secs(1)) - 3.94).abs() < 1e-12);
    }
}
