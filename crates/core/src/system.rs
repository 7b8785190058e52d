//! The top-level facade: a Mercury or Iridium 1.5U system at the
//! paper's headline configuration, asked one question, without touching
//! the individual substrate crates.
//!
//! # Examples
//!
//! ```
//! use densekv::System;
//!
//! // The paper's headline server: Mercury-32 on A7 cores.
//! let report = System::mercury().evaluate_quick(64);
//! assert!(report.tps > 10e6, "tens of millions of 64 B GETs per second");
//! ```

use densekv_server::{evaluate_server, plan_server, ServerConstraints, ServerReport};
use densekv_stack::StackConfig;

use crate::sim::CoreSimConfig;
use crate::sweep::{measure_point, SweepEffort};

/// A queryable 1.5U system at the paper's headline configuration: A7 @
/// 1 GHz cores with 2 MB L2s, 32 cores per stack, 10 ns DRAM / 10 µs
/// flash, packed under the paper's 1.5U constraints.
#[derive(Debug, Clone)]
pub struct System {
    stack: StackConfig,
    sim_config: CoreSimConfig,
}

impl System {
    fn new(sim_config: CoreSimConfig) -> Self {
        let stack = StackConfig::new(
            sim_config.memory.clone(),
            sim_config.core.clone(),
            32,
            sim_config.l2,
        )
        .expect("32 cores share a stack's 16 ports");
        System { stack, sim_config }
    }

    /// The DRAM-based (Mercury-32) system.
    pub fn mercury() -> Self {
        System::new(CoreSimConfig::mercury_a7())
    }

    /// The flash-based (Iridium-32) system.
    pub fn iridium() -> Self {
        System::new(CoreSimConfig::iridium_a7())
    }

    /// The stack configuration (`Mercury-32` etc.).
    pub fn stack(&self) -> &StackConfig {
        &self.stack
    }

    /// Plans the box and evaluates it at one GET size, planning the stack
    /// count from that size's bandwidth alone (fast; slightly optimistic
    /// on stack count versus planning at the peak of a full size sweep,
    /// as Table 4 does).
    pub fn evaluate_quick(&self, value_bytes: u64) -> ServerReport {
        let point = measure_point(&self.sim_config, value_bytes, SweepEffort::quick());
        let peak = self.stack.cores as f64 * point.get.perf.mem_gbps;
        let plan = plan_server(&ServerConstraints::paper_1p5u(), self.stack.clone(), peak);
        evaluate_server(&plan, point.get.perf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_headline_servers() {
        assert_eq!(System::mercury().stack().name(), "Mercury-32");
        let iridium = System::iridium();
        assert_eq!(iridium.stack().name(), "Iridium-32");
        assert!(iridium.stack().l2);
    }

    #[test]
    fn quick_evaluation_lands_in_table4_band() {
        let report = System::mercury().evaluate_quick(64);
        assert!((24e6..42e6).contains(&report.tps), "{}", report.tps);
        assert_eq!(report.memory_gb, report.stacks as f64 * 4.0);
    }
}
