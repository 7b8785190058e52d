//! Stack area accounting and the §6.5 thermal check.
//!
//! Geometry from Figure 2 and §5.5: the memory/logic dies are
//! 15.5 mm × 18 mm (279 mm²); the packaged stack is a 400-pin
//! 21 mm × 21 mm BGA (441 mm² of board area). The logic die hosts the
//! cores, their L2s, the NIC MAC, and the memory peripheral logic
//! (decode, sensing, I/O spines in Fig. 3b); the paper notes that more
//! than 400 A7s would fit, so area never limits the core count — power
//! does.

use densekv_net::phy::DUAL_PHY_PACKAGE_MM2;

use crate::config::StackConfig;
use crate::power::stack_power;

/// Board footprint of the packaged stack (21 mm × 21 mm BGA), mm².
pub(crate) const PACKAGE_AREA_MM2: f64 = 441.0;

/// Per-stack TDP the 1.5U chassis can remove with passive heat sinks and
/// chassis fans (§6.5 argues ~6 W per stack is comfortably coolable).
const PASSIVE_COOLING_LIMIT_W: f64 = 10.0;

/// Board area one stack takes with its share of the PHYs, mm²: its
/// package plus half a dual-PHY package, since each stack drives one
/// 10 GbE port and a PHY package carries two (§5.5).
pub fn board_footprint_mm2() -> f64 {
    PACKAGE_AREA_MM2 + DUAL_PHY_PACKAGE_MM2 / 2.0
}

/// §6.5 thermal check: a stack's TDP at peak memory bandwidth and whether
/// passive per-stack cooling suffices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalReport {
    /// TDP of one stack, watts.
    pub stack_tdp_w: f64,
    /// Power density over the package, W/cm².
    pub power_density_w_cm2: f64,
    /// Whether the TDP sits under `PASSIVE_COOLING_LIMIT_W`.
    pub passively_coolable: bool,
}

/// Computes the thermal report at peak memory bandwidth `peak_gbps`.
///
/// # Examples
///
/// ```
/// use densekv_cpu::CoreConfig;
/// use densekv_stack::area::thermal_report;
/// use densekv_stack::StackConfig;
///
/// let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true)?;
/// let report = thermal_report(&stack, 6.25);
/// assert!(report.passively_coolable);
/// # Ok::<(), densekv_stack::config::StackConfigError>(())
/// ```
pub fn thermal_report(config: &StackConfig, peak_gbps: f64) -> ThermalReport {
    let tdp = stack_power(config, peak_gbps).total_w();
    ThermalReport {
        stack_tdp_w: tdp,
        power_density_w_cm2: tdp / (PACKAGE_AREA_MM2 / 100.0),
        passively_coolable: tdp <= PASSIVE_COOLING_LIMIT_W,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_cpu::CoreConfig;
    use densekv_net::nic;

    // The logic-die budget behind §5.5's "area never limits the core
    // count": the packing solver has no area term because of it, and
    // these tests show why.

    /// Die footprint shared by memory and logic dies, mm² (Figure 2).
    const DIE_AREA_MM2: f64 = 15.5 * 18.0;

    /// Logic-die area reserved for memory peripheral logic — the decode,
    /// sensing, row-buffer, and low-swing I/O spines of Fig. 3b, mm².
    const PERIPHERAL_LOGIC_MM2: f64 = 40.0;

    /// Area of one 2 MB L2 in 28 nm, mm² (CACTI-class estimate).
    const L2_AREA_MM2: f64 = 1.4;

    /// Logic-die area used by a configuration, mm².
    fn logic_die_used_mm2(config: &StackConfig) -> f64 {
        let core_area = config.cores as f64 * config.core.area_mm2;
        let l2_area = if config.l2 {
            config.cores as f64 * L2_AREA_MM2
        } else {
            0.0
        };
        core_area + l2_area + nic::AREA_MM2 + PERIPHERAL_LOGIC_MM2
    }

    /// Whether the configuration's logic fits the die.
    fn logic_die_fits(config: &StackConfig) -> bool {
        logic_die_used_mm2(config) <= DIE_AREA_MM2
    }

    /// Maximum number of cores of this type that fit the logic die
    /// (ignoring the port limit — the paper's ">400 cores" observation).
    fn max_cores_by_area(core_area_mm2: f64, with_l2: bool) -> u32 {
        let per_core = core_area_mm2 + if with_l2 { L2_AREA_MM2 } else { 0.0 };
        let available = DIE_AREA_MM2 - nic::AREA_MM2 - PERIPHERAL_LOGIC_MM2;
        (available / per_core).floor() as u32
    }

    #[test]
    fn die_area_matches_figure2() {
        assert!((DIE_AREA_MM2 - 279.0).abs() < 0.1);
        assert_eq!(PACKAGE_AREA_MM2, 441.0);
        // A 96-stack server carries 48 dual-PHY chips.
        assert_eq!(96.0 * board_footprint_mm2(), 96.0 * 441.0 + 48.0 * 441.0);
    }

    #[test]
    fn paper_configs_fit_the_logic_die() {
        for cores in [1, 2, 4, 8, 16, 32] {
            let a7 = StackConfig::mercury(CoreConfig::a7_1ghz(), cores, true).unwrap();
            assert!(logic_die_fits(&a7), "A7 x{cores} must fit");
            let a15 = StackConfig::mercury(CoreConfig::a15_1ghz(), cores, true).unwrap();
            assert!(logic_die_fits(&a15), "A15 x{cores} must fit");
        }
    }

    #[test]
    fn over_400_a7s_fit_by_area() {
        // §5.5: "we are able to fit >400 cores on a stack" (without L2s).
        assert!(max_cores_by_area(0.58, false) > 400);
    }

    #[test]
    fn a15_area_limit_is_lower_but_ample() {
        let max = max_cores_by_area(2.82, true);
        assert!(max >= 32, "even A15s with L2s reach the port limit: {max}");
    }

    #[test]
    fn mercury32_is_passively_coolable() {
        let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap();
        let report = thermal_report(&stack, 6.25);
        assert!(report.passively_coolable);
        assert!(
            (4.0..=9.0).contains(&report.stack_tdp_w),
            "TDP {} near the paper's 6.2 W",
            report.stack_tdp_w
        );
        assert!(report.power_density_w_cm2 < 3.0);
    }

    #[test]
    fn dense_a15_stack_exceeds_passive_limit() {
        let stack = StackConfig::mercury(CoreConfig::a15_1p5ghz(), 32, true).unwrap();
        let report = thermal_report(&stack, 6.25);
        assert!(!report.passively_coolable, "32 hot A15s cannot be passive");
    }

    #[test]
    fn logic_area_grows_with_cores_and_l2() {
        let small = StackConfig::mercury(CoreConfig::a7_1ghz(), 1, false).unwrap();
        let big = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap();
        assert!(logic_die_used_mm2(&big) > logic_die_used_mm2(&small));
    }
}
