//! Fleet planning: the paper's motivating arithmetic (§1–2) — how many
//! boxes, racks, and kilowatts a cache tier costs — applied to an
//! evaluated server.

use crate::model::ServerReport;

/// What a deployment must serve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Dataset to hold in cache, GB.
    pub dataset_gb: f64,
    /// Aggregate request rate, TPS.
    pub rate_tps: f64,
}

/// A sized fleet of identical servers.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Servers deployed.
    pub servers: u32,
    /// True when capacity (not rate) set the count — the regime where
    /// the paper's density argument bites.
    pub capacity_bound: bool,
    /// Rack units consumed (1.5U per server).
    pub(crate) rack_units: f64,
    /// 42U racks consumed.
    pub racks: f64,
    /// Total power draw, kW.
    pub total_kw: f64,
}

/// Sizes a fleet of `server` boxes to meet `demand`.
///
/// # Panics
///
/// Panics if the server report has zero memory or throughput.
///
/// # Examples
///
/// ```
/// use densekv_server::fleet::{plan_fleet, Demand};
/// use densekv_server::{evaluate_server, plan_server, PerCorePerf, ServerConstraints};
/// use densekv_stack::StackConfig;
///
/// let stack = StackConfig::iridium(densekv_cpu::CoreConfig::a7_1ghz(), 32)?;
/// let plan = plan_server(&ServerConstraints::paper_1p5u(), stack, 0.5);
/// let report = evaluate_server(&plan, PerCorePerf {
///     tps: 5_700.0, mem_gbps: 0.001, wire_gbps: 0.0007,
/// });
/// // Facebook's published 2008 Memcached footprint (§2.3) at 20 MTPS.
/// let demand = Demand { dataset_gb: 28_000.0, rate_tps: 20e6 };
/// let fleet = plan_fleet(&report, &demand);
/// assert!(fleet.capacity_bound, "28 TB on 1.9 TB boxes is capacity-bound");
/// assert_eq!(fleet.servers, 15);
/// # Ok::<(), densekv_stack::config::StackConfigError>(())
/// ```
pub fn plan_fleet(server: &ServerReport, demand: &Demand) -> FleetPlan {
    assert!(
        server.memory_gb > 0.0 && server.tps > 0.0,
        "server must have capacity and throughput"
    );
    let for_capacity = (demand.dataset_gb / server.memory_gb).ceil();
    let for_rate = (demand.rate_tps / server.tps).ceil();
    let servers = for_capacity.max(for_rate).max(1.0);
    FleetPlan {
        servers: servers as u32,
        capacity_bound: for_capacity >= for_rate,
        rack_units: servers * 1.5,
        racks: servers * 1.5 / 42.0,
        total_kw: servers * server.power_w / 1000.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::ServerConstraints;
    use crate::fit::plan_server;
    use crate::model::{evaluate_server, PerCorePerf};
    use densekv_cpu::CoreConfig;
    use densekv_stack::StackConfig;

    fn mercury_report() -> ServerReport {
        let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true).unwrap();
        let plan = plan_server(&ServerConstraints::paper_1p5u(), stack, 6.25);
        evaluate_server(
            &plan,
            PerCorePerf {
                tps: 11_000.0,
                mem_gbps: 0.004,
                wire_gbps: 0.0007,
            },
        )
    }

    #[test]
    fn capacity_vs_rate_bound() {
        let report = mercury_report();
        // Huge dataset, tiny rate: capacity-bound.
        let cap = plan_fleet(
            &report,
            &Demand {
                dataset_gb: 100_000.0,
                rate_tps: 1e6,
            },
        );
        assert!(cap.capacity_bound);
        // Tiny dataset, huge rate: rate-bound.
        let rate = plan_fleet(
            &report,
            &Demand {
                dataset_gb: 100.0,
                rate_tps: 500e6,
            },
        );
        assert!(!rate.capacity_bound);
        assert!(rate.servers > cap.servers / 100);
    }

    #[test]
    fn fleet_arithmetic() {
        let report = mercury_report();
        let fleet = plan_fleet(
            &report,
            &Demand {
                dataset_gb: report.memory_gb * 10.0,
                rate_tps: 1.0,
            },
        );
        assert_eq!(fleet.servers, 10);
        assert!((fleet.rack_units - 15.0).abs() < 1e-9);
        assert!((fleet.racks - 15.0 / 42.0).abs() < 1e-9);
        assert!((fleet.total_kw - 10.0 * report.power_w / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn at_least_one_server() {
        let report = mercury_report();
        let fleet = plan_fleet(
            &report,
            &Demand {
                dataset_gb: 0.001,
                rate_tps: 1.0,
            },
        );
        assert_eq!(fleet.servers, 1);
    }
}
