//! Per-stack power accounting (§5.4 of the paper).
//!
//! Stack power = core power + L2 power + NIC MAC + its share of the
//! off-stack PHY + memory active power. Memory active power depends on
//! the bandwidth actually consumed (Table 1: DRAM 210 mW/(GB/s), flash
//! 6 mW/(GB/s)), which is why Table 3 reports power at the maximum
//! observed bandwidth while Table 4 reports it at the 64 B working point.

use densekv_energy::EnergyRates;
use densekv_net::nic;
use densekv_net::phy::PHY_POWER_MW;

use crate::config::{MemoryKind, StackConfig};

/// Power of one 2 MB L2 in 28 nm, milliwatts.
///
/// Table 1 omits the L2, and reverse-engineering the paper's Table 3/4
/// power columns shows their model charges essentially nothing for it;
/// we charge power-gated SRAM leakage so the with/without-L2 ablation
/// still has a power axis. Called out in DESIGN.md as an assumption.
pub const L2_POWER_MW: f64 = 10.0;

/// Breakdown of one stack's power at a given memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackPower {
    /// All cores, watts.
    pub(crate) cores_w: f64,
    /// All L2s, watts (zero without L2).
    pub(crate) l2_w: f64,
    /// NIC MAC, watts.
    pub(crate) mac_w: f64,
    /// This stack's 10 GbE PHY, watts.
    pub(crate) phy_w: f64,
    /// Memory active power at the given bandwidth, watts.
    pub(crate) memory_w: f64,
}

impl StackPower {
    /// Total stack power, watts.
    pub fn total_w(&self) -> f64 {
        self.cores_w + self.l2_w + self.mac_w + self.phy_w + self.memory_w
    }
}

/// Computes a stack's power when its memory sustains `mem_gbps`.
///
/// # Examples
///
/// ```
/// use densekv_cpu::CoreConfig;
/// use densekv_stack::power::stack_power;
/// use densekv_stack::StackConfig;
///
/// let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true)?;
/// let p = stack_power(&stack, 1.0);
/// // 32 A7s (3.2 W) dominate; their L2s add 0.32 W, the MAC 0.12 W,
/// // the PHY 0.3 W and DRAM at 1 GB/s 0.21 W.
/// assert!((p.total_w() - 4.15).abs() < 1e-9);
/// # Ok::<(), densekv_stack::config::StackConfigError>(())
/// ```
pub fn stack_power(config: &StackConfig, mem_gbps: f64) -> StackPower {
    let cores_w = config.cores as f64 * config.core.power_mw / 1000.0;
    let l2_w = if config.l2 {
        config.cores as f64 * L2_POWER_MW / 1000.0
    } else {
        0.0
    };
    StackPower {
        cores_w,
        l2_w,
        mac_w: nic::POWER_MW / 1000.0,
        phy_w: PHY_POWER_MW / 1000.0,
        memory_w: config.memory.active_mw_per_gbps() * mem_gbps.max(0.0) / 1000.0,
    }
}

/// The (DRAM, flash) active-power rates of a stack, mW per GB/s.
///
/// Single-tier stacks put their whole Table-1 rate on their own tier
/// and zero on the other; a hybrid Helios stack carries both, so its
/// DRAM-tier and flash-array traffic can be priced separately (DRAM
/// 210 mW/(GB/s), flash 6 mW/(GB/s)).
pub fn tier_rates(config: &StackConfig) -> (f64, f64) {
    match &config.memory {
        MemoryKind::Mercury(d) => (d.active_mw_per_gbps, 0.0),
        MemoryKind::Iridium(f) => (0.0, f.active_mw_per_gbps),
        MemoryKind::Hybrid(h) => (h.dram_active_mw_per_gbps, h.flash.active_mw_per_gbps),
    }
}

/// Computes a stack's power with per-tier memory bandwidth: DRAM-tier
/// traffic at the DRAM rate, flash-array traffic at the flash rate.
///
/// For single-tier stacks this reduces exactly to [`stack_power`] with
/// the stack's own bandwidth on its own tier.
pub fn stack_power_split(config: &StackConfig, dram_gbps: f64, flash_gbps: f64) -> StackPower {
    let (dram_rate, flash_rate) = tier_rates(config);
    let mut power = stack_power(config, 0.0);
    power.memory_w = (dram_rate * dram_gbps.max(0.0) + flash_rate * flash_gbps.max(0.0)) / 1000.0;
    power
}

/// Derives the event-driven [`EnergyRates`] for a stack from the same
/// Table 1 constants [`stack_power`] uses.
///
/// This is the canonical bridge between the analytic §5.4 model and the
/// `densekv-energy` meter: charging the static rates over elapsed time
/// plus the memory rate per byte moved integrates to exactly
/// `stack_power(config, observed_gbps).total_w()` — the workspace
/// cross-check test holds an end-to-end run to within 1 %.
///
/// # Examples
///
/// ```
/// use densekv_cpu::CoreConfig;
/// use densekv_stack::power::{energy_rates, stack_power};
/// use densekv_stack::StackConfig;
///
/// let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true)?;
/// let rates = energy_rates(&stack);
/// // One second of static draw == the analytic model at zero bandwidth.
/// let static_w = rates.stack_static_w(stack.cores);
/// assert!((static_w - stack_power(&stack, 0.0).total_w()).abs() < 1e-12);
/// # Ok::<(), densekv_stack::config::StackConfigError>(())
/// ```
pub fn energy_rates(config: &StackConfig) -> EnergyRates {
    EnergyRates::new(
        config.core.power_mw,
        if config.l2 { L2_POWER_MW } else { 0.0 },
        config.memory.active_mw_per_gbps(),
        nic::POWER_MW,
        PHY_POWER_MW,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_cpu::CoreConfig;

    #[test]
    fn mercury32_a7_tdp_near_paper() {
        // §6.5: a Mercury-32 stack has a TDP around 6.2 W.
        let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap();
        let p = stack_power(&stack, 6.2); // near the port-saturating BW
        let total = p.total_w();
        assert!(
            (5.0..=10.0).contains(&total),
            "Mercury-32 stack TDP {total} W should be passive-coolable"
        );
    }

    #[test]
    fn a15_stacks_burn_more() {
        let a7 = StackConfig::mercury(CoreConfig::a7_1ghz(), 8, true).unwrap();
        let a15 = StackConfig::mercury(CoreConfig::a15_1ghz(), 8, true).unwrap();
        assert!(stack_power(&a15, 1.0).total_w() > stack_power(&a7, 1.0).total_w());
        let a15f = StackConfig::mercury(CoreConfig::a15_1p5ghz(), 8, true).unwrap();
        assert!(stack_power(&a15f, 1.0).total_w() > stack_power(&a15, 1.0).total_w());
    }

    #[test]
    fn memory_power_scales_with_bandwidth() {
        let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 1, true).unwrap();
        let idle = stack_power(&stack, 0.0);
        let busy = stack_power(&stack, 10.0);
        assert_eq!(idle.memory_w, 0.0);
        assert!((busy.memory_w - 2.1).abs() < 1e-9);
        assert_eq!(idle.cores_w, busy.cores_w);
    }

    #[test]
    fn flash_memory_power_is_cheap() {
        let iridium = StackConfig::iridium(CoreConfig::a7_1ghz(), 1).unwrap();
        let p = stack_power(&iridium, 10.0);
        assert!((p.memory_w - 0.06).abs() < 1e-9);
    }

    #[test]
    fn energy_rates_pin_table1_presets() {
        // The EnergyRates convenience constructors must match what the
        // stack config derives, so the two can't drift.
        let mercury = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap();
        assert_eq!(energy_rates(&mercury), EnergyRates::mercury_a7(true));
        let bare = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, false).unwrap();
        assert_eq!(energy_rates(&bare), EnergyRates::mercury_a7(false));
        let iridium = StackConfig::iridium(CoreConfig::a7_1ghz(), 32).unwrap();
        assert_eq!(energy_rates(&iridium), EnergyRates::iridium_a7(true));
    }

    #[test]
    fn integrated_rates_reproduce_stack_power() {
        // Convergence by construction: T seconds of static draw plus
        // B bytes at pJ/byte equals stack_power at B/T bandwidth.
        for (config, gbps) in [
            (
                StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap(),
                6.4,
            ),
            (
                StackConfig::mercury(CoreConfig::a15_1ghz(), 8, false).unwrap(),
                1.7,
            ),
            (
                StackConfig::iridium(CoreConfig::a15_1p5ghz(), 16).unwrap(),
                3.3,
            ),
        ] {
            let rates = energy_rates(&config);
            let secs = 2.5;
            let bytes = gbps * 1e9 * secs;
            let event_j =
                rates.stack_static_w(config.cores) * secs + rates.mem_j_per_byte() * bytes;
            let analytic_j = stack_power(&config, gbps).total_w() * secs;
            let rel = (event_j - analytic_j).abs() / analytic_j;
            assert!(rel < 1e-12, "{}: relative error {rel}", config.name());
        }
    }

    #[test]
    fn split_pricing_reduces_to_single_rate_for_pure_stacks() {
        let mercury = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap();
        assert_eq!(tier_rates(&mercury), (210.0, 0.0));
        let split = stack_power_split(&mercury, 4.2, 0.0);
        assert_eq!(split, stack_power(&mercury, 4.2));
        let iridium = StackConfig::iridium(CoreConfig::a7_1ghz(), 32).unwrap();
        assert_eq!(tier_rates(&iridium), (0.0, 6.0));
        assert_eq!(
            stack_power_split(&iridium, 0.0, 7.5),
            stack_power(&iridium, 7.5)
        );
    }

    #[test]
    fn helios_prices_tiers_at_separate_table1_rates() {
        let helios = StackConfig::helios(CoreConfig::a7_1ghz(), 32, 256 << 20).unwrap();
        assert_eq!(tier_rates(&helios), (210.0, 6.0));
        let p = stack_power_split(&helios, 2.0, 5.0);
        // 2 GB/s of DRAM at 210 mW + 5 GB/s of flash at 6 mW.
        assert!((p.memory_w - (2.0 * 0.210 + 5.0 * 0.006)).abs() < 1e-12);
        // The same traffic priced at the single headline (DRAM) rate
        // would overcharge the flash bytes.
        assert!(p.memory_w < stack_power(&helios, 7.0).memory_w);
    }

    #[test]
    fn no_l2_saves_power() {
        let with = StackConfig::mercury(CoreConfig::a7_1ghz(), 16, true).unwrap();
        let without = StackConfig::mercury(CoreConfig::a7_1ghz(), 16, false).unwrap();
        let diff = stack_power(&with, 0.0).total_w() - stack_power(&without, 0.0).total_w();
        assert!((diff - 16.0 * L2_POWER_MW / 1000.0).abs() < 1e-9);
    }
}
