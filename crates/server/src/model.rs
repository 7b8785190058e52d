//! Whole-server aggregation: turns per-core simulation results into the
//! rows of Tables 3 and 4.
//!
//! Scaling is linear in cores (§5.3: each core runs an independent
//! Memcached instance), capped per stack by the 10 GbE wire. Power is the
//! wall power at the evaluated working point (which is why Table 4's 64 B
//! numbers sit below Table 3's peak-bandwidth numbers).

use densekv_stack::power::stack_power;

use crate::fit::ServerPlan;

/// What one simulated core achieves at a particular working point
/// (request size and operation mix).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerCorePerf {
    /// Transactions per second.
    pub tps: f64,
    /// Memory-device bandwidth this core consumes, GB/s.
    pub mem_gbps: f64,
    /// Request/response payload bandwidth on the wire, GB/s.
    pub wire_gbps: f64,
}

/// One stack's wire-derated working point: the quantity every power and
/// bandwidth citation in Tables 3/4, Figures 7/8, and the efficiency
/// sweep must agree on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackWorkingPoint {
    /// Stack throughput after the wire cap, TPS.
    pub tps: f64,
    /// Stack memory-device bandwidth after the wire cap, GB/s — the
    /// argument `stack_power` wants.
    pub mem_gbps: f64,
    /// Stack wire payload after the cap, GB/s.
    pub wire_gbps: f64,
    /// The applied derate factor (`1.0` when the wire is unsaturated).
    pub derate: f64,
}

/// Scales per-core performance to a whole stack, derated so the stack's
/// aggregate wire traffic never exceeds its one 10 GbE port's payload
/// rate. Every caller that needs a bandwidth working point — server
/// evaluation, the Table 3 peak-bandwidth scan, the efficiency sweep —
/// goes through here, so the analytic and measured power paths cannot
/// re-derive the derate differently and drift.
pub fn stack_working_point(cores: u32, perf: PerCorePerf) -> StackWorkingPoint {
    let cores = cores as f64;
    let wire_cap_gbps = densekv_net::Wire::ten_gbe().payload_bandwidth_bps() / 1e9;
    let raw_wire = cores * perf.wire_gbps;
    let derate = if raw_wire > wire_cap_gbps {
        wire_cap_gbps / raw_wire
    } else {
        1.0
    };
    StackWorkingPoint {
        tps: cores * perf.tps * derate,
        mem_gbps: cores * perf.mem_gbps * derate,
        wire_gbps: raw_wire * derate,
        derate,
    }
}

/// A full server working point: the row shape of Tables 3 and 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// Configuration name (`Mercury-8` etc.).
    pub name: String,
    /// Stacks installed.
    pub stacks: u32,
    /// Total cores.
    pub cores: u32,
    /// Memory, paper GB.
    pub memory_gb: f64,
    /// Wall power at this working point, watts.
    pub power_w: f64,
    /// Transactions per second, whole server.
    pub tps: f64,
    /// Efficiency, thousand TPS per watt.
    pub ktps_per_watt: f64,
    /// Accessibility, thousand TPS per GB.
    pub ktps_per_gb: f64,
    /// Wire payload bandwidth, GB/s.
    pub wire_gbps: f64,
    /// Memory-device bandwidth, GB/s (Table 3's "Max BW" when evaluated at
    /// the bandwidth-maximizing size).
    pub mem_gbps: f64,
    /// Board area occupied (stacks + PHY packages), cm².
    pub area_cm2: f64,
}

/// Evaluates a planned server at one working point.
///
/// Per-stack throughput is `cores × per-core TPS`, derated if the stack's
/// aggregate wire traffic would exceed the 10 GbE payload rate.
///
/// # Examples
///
/// ```
/// use densekv_cpu::CoreConfig;
/// use densekv_server::{evaluate_server, plan_server, PerCorePerf, ServerConstraints};
/// use densekv_stack::StackConfig;
///
/// let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true)?;
/// let plan = plan_server(&ServerConstraints::paper_1p5u(), stack, 6.25);
/// let perf = PerCorePerf { tps: 11_000.0, mem_gbps: 0.004, wire_gbps: 0.0007 };
/// let report = evaluate_server(&plan, perf);
/// // ~93 stacks x 32 cores x 11 KTPS ≈ 32.7 MTPS (Table 4's headline).
/// assert!(report.tps > 25e6);
/// # Ok::<(), densekv_stack::config::StackConfigError>(())
/// ```
pub fn evaluate_server(plan: &ServerPlan, perf: PerCorePerf) -> ServerReport {
    let point = stack_working_point(plan.stack.cores, perf);

    let stacks = plan.stacks as f64;
    let component_w = stacks * stack_power(&plan.stack, point.mem_gbps).total_w();
    let power_w = plan.constraints.wall_power_w(component_w);
    let tps = stacks * point.tps;
    let memory_gb = plan.density_gb();

    let area_mm2 = stacks * densekv_stack::area::board_footprint_mm2();

    ServerReport {
        name: plan.stack.name(),
        stacks: plan.stacks,
        cores: plan.total_cores(),
        memory_gb,
        power_w,
        tps,
        ktps_per_watt: tps / 1000.0 / power_w,
        ktps_per_gb: tps / 1000.0 / memory_gb,
        wire_gbps: stacks * point.wire_gbps,
        mem_gbps: stacks * point.mem_gbps,
        area_cm2: area_mm2 / 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ServerConstraints;
    use crate::fit::plan_server;
    use densekv_cpu::CoreConfig;
    use densekv_stack::StackConfig;

    fn a7_mercury(n: u32) -> ServerPlan {
        let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), n, true).unwrap();
        plan_server(&ServerConstraints::paper_1p5u(), stack, 2.0)
    }

    #[test]
    fn linear_scaling_when_wire_unsaturated() {
        let perf = PerCorePerf {
            tps: 11_000.0,
            mem_gbps: 0.004,
            wire_gbps: 0.0007,
        };
        let r8 = evaluate_server(&a7_mercury(8), perf);
        let r16 = evaluate_server(&a7_mercury(16), perf);
        assert!(
            (r16.tps / r8.tps - 2.0).abs() < 0.01,
            "TPS doubles with cores"
        );
        // Table 4: Mercury-8 at 11 KTPS/core = 8.45 MTPS.
        assert!((r8.tps - 8.448e6).abs() < 1e4);
    }

    #[test]
    fn wire_cap_derates_large_transfers() {
        // 32 cores each pushing 100 MB/s of payload would need 3.2 GB/s —
        // the 10 GbE port caps the stack near 1.13 GB/s.
        let perf = PerCorePerf {
            tps: 100.0,
            mem_gbps: 0.5,
            wire_gbps: 0.1,
        };
        let r = evaluate_server(&a7_mercury(32), perf);
        let per_stack_wire = r.wire_gbps / r.stacks as f64;
        assert!(per_stack_wire <= 1.18, "per-stack wire {per_stack_wire}");
        // TPS derated by the same factor.
        let expected_ratio = per_stack_wire / 3.2;
        let raw_tps = 32.0 * 100.0 * r.stacks as f64;
        assert!((r.tps / raw_tps - expected_ratio).abs() < 1e-6);
    }

    #[test]
    fn working_point_derate_only_when_wire_saturated() {
        let light = PerCorePerf {
            tps: 11_000.0,
            mem_gbps: 0.004,
            wire_gbps: 0.0007,
        };
        let p = stack_working_point(32, light);
        assert_eq!(p.derate, 1.0);
        assert!((p.tps - 32.0 * 11_000.0).abs() < 1e-9);
        assert!((p.mem_gbps - 32.0 * 0.004).abs() < 1e-12);

        let heavy = PerCorePerf {
            tps: 100.0,
            mem_gbps: 0.5,
            wire_gbps: 0.1,
        };
        let q = stack_working_point(32, heavy);
        assert!(q.derate < 1.0);
        // Every output scales by the same derate.
        assert!((q.tps - 32.0 * 100.0 * q.derate).abs() < 1e-9);
        assert!((q.mem_gbps - 32.0 * 0.5 * q.derate).abs() < 1e-9);
        assert!((q.wire_gbps - 32.0 * 0.1 * q.derate).abs() < 1e-9);
    }

    #[test]
    fn power_includes_base_overhead() {
        let perf = PerCorePerf::default();
        let r = evaluate_server(&a7_mercury(8), perf);
        assert!(r.power_w > 160.0, "wall power includes the 160 W base");
    }

    #[test]
    fn derived_metrics_consistent() {
        let perf = PerCorePerf {
            tps: 10_000.0,
            mem_gbps: 0.003,
            wire_gbps: 0.0006,
        };
        let r = evaluate_server(&a7_mercury(16), perf);
        assert!((r.ktps_per_watt - r.tps / 1000.0 / r.power_w).abs() < 1e-9);
        assert!((r.ktps_per_gb - r.tps / 1000.0 / r.memory_gb).abs() < 1e-9);
        assert_eq!(r.cores, 16 * r.stacks);
        assert!(r.area_cm2 > 0.0);
    }

    #[test]
    fn table4_mercury32_headline_band() {
        let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap();
        let plan = plan_server(&ServerConstraints::paper_1p5u(), stack, 6.25);
        let perf = PerCorePerf {
            tps: 11_000.0,
            mem_gbps: 0.004,
            wire_gbps: 0.0007,
        };
        let r = evaluate_server(&plan, perf);
        // Paper: 32.7 MTPS at 597 W => 54.8 KTPS/W.
        assert!((25e6..40e6).contains(&r.tps), "TPS {}", r.tps);
        assert!((450.0..700.0).contains(&r.power_w), "power {}", r.power_w);
        assert!(r.ktps_per_watt > 40.0, "efficiency {}", r.ktps_per_watt);
    }
}
