//! The stack-count solver: how many stacks of a given configuration fit
//! the 1.5U box, and what limits them.

use densekv_stack::power::stack_power;
use densekv_stack::StackConfig;

use crate::constraints::ServerConstraints;

/// Which constraint bound the stack count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitingFactor {
    /// The 472 W component power budget.
    Power,
    /// Board area for stacks + PHYs.
    Area,
    /// The 96-port back panel.
    Ports,
}

impl core::fmt::Display for LimitingFactor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LimitingFactor::Power => write!(f, "power"),
            LimitingFactor::Area => write!(f, "area"),
            LimitingFactor::Ports => write!(f, "ports"),
        }
    }
}

/// A solved server plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerPlan {
    /// The stack configuration being packed.
    pub stack: StackConfig,
    /// Stacks installed.
    pub stacks: u32,
    /// The binding constraint.
    pub limited_by: LimitingFactor,
    /// Per-stack component power at the planning (peak-bandwidth) point.
    pub(crate) peak_stack_w: f64,
    /// The constraints used.
    pub constraints: ServerConstraints,
}

impl ServerPlan {
    /// Total cores in the server.
    pub(crate) fn total_cores(&self) -> u32 {
        self.stacks * self.stack.cores
    }

    /// Total memory in the paper's density units (GB).
    pub fn density_gb(&self) -> f64 {
        self.stacks as f64 * self.stack.memory.nominal_capacity_gb()
    }
}

/// Solves for the maximum stack count given the per-stack power at peak
/// bandwidth `peak_mem_gbps` (Table 3 sizes the box at the *maximum*
/// bandwidth the cores can generate, §5.4.1).
///
/// # Examples
///
/// ```
/// use densekv_cpu::CoreConfig;
/// use densekv_server::fit::{plan_server, LimitingFactor};
/// use densekv_server::ServerConstraints;
/// use densekv_stack::StackConfig;
///
/// let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 8, true)?;
/// let plan = plan_server(&ServerConstraints::paper_1p5u(), stack, 1.6);
/// assert_eq!(plan.stacks, 96); // low-power A7 stacks hit the port cap
/// assert_eq!(plan.limited_by, LimitingFactor::Ports);
/// # Ok::<(), densekv_stack::config::StackConfigError>(())
/// ```
pub fn plan_server(
    constraints: &ServerConstraints,
    stack: StackConfig,
    peak_mem_gbps: f64,
) -> ServerPlan {
    let peak_stack_w = stack_power(&stack, peak_mem_gbps).total_w();
    let by_power = (constraints.component_budget_w() / peak_stack_w).floor() as u32;
    let by_area = constraints.max_stacks_by_area();
    let by_ports = constraints.max_ports;

    let stacks = by_power.min(by_area).min(by_ports).max(1);
    let limited_by = if stacks == by_ports && by_ports <= by_power && by_ports <= by_area {
        LimitingFactor::Ports
    } else if stacks == by_power && by_power <= by_area {
        LimitingFactor::Power
    } else {
        LimitingFactor::Area
    };
    ServerPlan {
        stack,
        stacks,
        limited_by,
        peak_stack_w,
        constraints: *constraints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_cpu::CoreConfig;

    fn constraints() -> ServerConstraints {
        ServerConstraints::paper_1p5u()
    }

    #[test]
    fn a7_configs_reach_the_port_cap() {
        // Table 3, A7 column: area 635 cm² (96 stacks) for n = 1..16.
        for n in [1, 2, 4, 8, 16] {
            let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), n, true).unwrap();
            let plan = plan_server(&constraints(), stack, 3.0);
            assert_eq!(plan.stacks, 96, "A7 Mercury-{n}");
            assert_eq!(plan.limited_by, LimitingFactor::Ports);
        }
    }

    #[test]
    fn a7_mercury32_is_power_limited_near_96() {
        // Table 3: A7 Mercury-32 drops slightly below 96 stacks (93).
        let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap();
        let plan = plan_server(&constraints(), stack, 6.25);
        assert_eq!(plan.limited_by, LimitingFactor::Power);
        assert!(
            (88..96).contains(&plan.stacks),
            "paper packs 93, we pack {}",
            plan.stacks
        );
    }

    #[test]
    fn a15_high_counts_are_power_limited() {
        // Table 3: A15@1.5GHz Mercury-32 reaches only ~13 stacks (52 GB).
        let stack = StackConfig::mercury(CoreConfig::a15_1p5ghz(), 32, true).unwrap();
        let plan = plan_server(&constraints(), stack, 1.3);
        assert_eq!(plan.limited_by, LimitingFactor::Power);
        assert!(
            (10..=20).contains(&plan.stacks),
            "paper packs 13, we pack {}",
            plan.stacks
        );
    }

    #[test]
    fn a15_1ghz_mercury8_matches_table3_band() {
        // Table 3: A15@1GHz Mercury-8 packs 75 stacks (300 GB).
        let stack = StackConfig::mercury(CoreConfig::a15_1ghz(), 8, true).unwrap();
        let plan = plan_server(&constraints(), stack, 2.25);
        assert_eq!(plan.limited_by, LimitingFactor::Power);
        assert!(
            (68..=88).contains(&plan.stacks),
            "paper packs 75, we pack {}",
            plan.stacks
        );
    }

    #[test]
    fn iridium_a7_32_fills_the_ports() {
        // Table 4: Iridium-32 uses all 96 stacks (1.9 TB).
        let stack = StackConfig::iridium(CoreConfig::a7_1ghz(), 32).unwrap();
        let plan = plan_server(&constraints(), stack, 0.5);
        assert_eq!(plan.stacks, 96);
        assert!(
            (plan.density_gb() - 1901.0).abs() < 25.0,
            "{}",
            plan.density_gb()
        );
    }

    #[test]
    fn density_and_cores_math() {
        let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 8, true).unwrap();
        let plan = plan_server(&constraints(), stack, 1.0);
        assert_eq!(plan.total_cores(), 768);
        // Table 3/4: 96 stacks x 4 GB = 384 GB.
        assert_eq!(plan.density_gb(), 384.0);
    }

    #[test]
    fn at_least_one_stack_even_when_over_budget() {
        let stack = StackConfig::mercury(CoreConfig::a15_1p5ghz(), 32, true).unwrap();
        let tight = ServerConstraints {
            supply_w: 200.0,
            ..constraints()
        };
        let plan = plan_server(&tight, stack, 10.0);
        assert_eq!(plan.stacks, 1);
    }
}
