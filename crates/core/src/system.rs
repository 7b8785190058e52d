//! The top-level facade: build a Mercury or Iridium system and ask it
//! questions, without touching the individual substrate crates.
//!
//! # Examples
//!
//! ```
//! use densekv::system::SystemBuilder;
//!
//! // The paper's headline server: Mercury-32 on A7 cores.
//! let system = SystemBuilder::mercury().cores_per_stack(32).build()?;
//! let report = system.evaluate_quick(64);
//! assert!(report.tps > 10e6, "tens of millions of 64 B GETs per second");
//! # Ok::<(), densekv::system::BuildError>(())
//! ```

use densekv_cpu::CoreConfig;
use densekv_par::Jobs;
use densekv_server::{evaluate_server, plan_server, ServerConstraints, ServerReport};
use densekv_sim::Duration;
use densekv_stack::config::StackConfigError;
use densekv_stack::StackConfig;

use crate::experiments::evaluation::plan_at_peak;
use crate::sim::CoreSimConfig;
use crate::stack_sim::{run as run_stack, StackSimConfig, StackSimResult};
use crate::sweep::{measure_point, sweep_sizes, SweepEffort, SweepPoint};

/// Errors from building a system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The stack configuration is invalid.
    Stack(StackConfigError),
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::Stack(e) => write!(f, "invalid stack configuration: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<StackConfigError> for BuildError {
    fn from(e: StackConfigError) -> Self {
        BuildError::Stack(e)
    }
}

/// Builder for a full 1.5U system.
///
/// Defaults follow the paper's headline configuration: A7 @ 1 GHz cores
/// with 2 MB L2s, 32 cores per stack, 10 ns DRAM / 10 µs flash, and the
/// paper's 1.5U constraints.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    /// The memory family's per-core configuration:
    /// [`CoreSimConfig::mercury`] or [`CoreSimConfig::iridium`].
    family: fn(CoreConfig, bool, Duration) -> CoreSimConfig,
    core: CoreConfig,
    cores_per_stack: u32,
    l2: bool,
    memory_latency: Duration,
    constraints: ServerConstraints,
    effort: SweepEffort,
    jobs: Jobs,
}

impl SystemBuilder {
    fn new(family: fn(CoreConfig, bool, Duration) -> CoreSimConfig, latency: Duration) -> Self {
        SystemBuilder {
            family,
            memory_latency: latency,
            core: CoreConfig::a7_1ghz(),
            cores_per_stack: 32,
            l2: true,
            constraints: ServerConstraints::paper_1p5u(),
            effort: SweepEffort::quick(),
            jobs: Jobs::from_env(),
        }
    }

    /// Starts a DRAM-based (Mercury) system.
    pub fn mercury() -> Self {
        SystemBuilder::new(CoreSimConfig::mercury, Duration::from_nanos(10))
    }

    /// Starts a flash-based (Iridium) system.
    pub fn iridium() -> Self {
        SystemBuilder::new(CoreSimConfig::iridium, Duration::from_micros(10))
    }

    /// Sets the core model (A7/A15, frequency).
    pub fn core(mut self, core: CoreConfig) -> Self {
        self.core = core;
        self
    }

    /// Sets cores per stack (1–32).
    pub fn cores_per_stack(mut self, n: u32) -> Self {
        self.cores_per_stack = n;
        self
    }

    /// Enables or disables the per-core 2 MB L2.
    pub fn l2(mut self, l2: bool) -> Self {
        self.l2 = l2;
        self
    }

    /// Sets the memory latency (DRAM closed-page / flash read).
    pub fn memory_latency(mut self, latency: Duration) -> Self {
        self.memory_latency = latency;
        self
    }

    /// Overrides the 1.5U packing constraints.
    pub fn constraints(mut self, constraints: ServerConstraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the measurement effort used by evaluations.
    pub fn effort(mut self, effort: SweepEffort) -> Self {
        self.effort = effort;
        self
    }

    /// Sets the worker count for swept evaluations (results are
    /// bit-identical at any value; defaults to [`Jobs::from_env`]).
    pub fn jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// Validates the configuration and produces a [`System`].
    ///
    /// # Errors
    ///
    /// [`BuildError::Stack`] for invalid core counts.
    pub fn build(self) -> Result<System, BuildError> {
        let sim_config = (self.family)(self.core, self.l2, self.memory_latency);
        let stack = StackConfig::new(
            sim_config.memory.clone(),
            sim_config.core.clone(),
            self.cores_per_stack,
            sim_config.l2,
        )?;
        Ok(System {
            stack,
            sim_config,
            constraints: self.constraints,
            effort: self.effort,
            jobs: self.jobs,
        })
    }
}

/// A buildable, queryable 1.5U system.
#[derive(Debug, Clone)]
pub struct System {
    stack: StackConfig,
    sim_config: CoreSimConfig,
    constraints: ServerConstraints,
    effort: SweepEffort,
    jobs: Jobs,
}

impl System {
    /// The stack configuration (`Mercury-32` etc.).
    pub fn stack(&self) -> &StackConfig {
        &self.stack
    }

    /// The per-core simulator configuration.
    pub fn core_config(&self) -> &CoreSimConfig {
        &self.sim_config
    }

    /// Plans the box and evaluates it at one GET size, planning the stack
    /// count from that size's bandwidth alone (fast; slightly optimistic
    /// on stack count versus [`System::evaluate_swept`]).
    pub fn evaluate_quick(&self, value_bytes: u64) -> ServerReport {
        let point = measure_point(&self.sim_config, value_bytes, self.effort);
        let peak = self.stack.cores as f64 * point.get.perf.mem_gbps;
        let plan = plan_server(&self.constraints, self.stack.clone(), peak);
        evaluate_server(&plan, point.get.perf)
    }

    /// Full evaluation: sweeps every paper size, plans the box at peak
    /// bandwidth, and returns the 64 B working point plus the sweep.
    pub fn evaluate_swept(&self) -> (ServerReport, Vec<SweepPoint>) {
        let sweep = sweep_sizes(&self.sim_config, self.effort, self.jobs);
        let (_, report) = plan_at_peak(&self.constraints, self.stack.clone(), &sweep);
        (report, sweep)
    }

    /// Latency under a Poisson load of `rate_per_sec` GETs of
    /// `value_bytes`, on one core.
    pub fn latency_under_load(&self, value_bytes: u64, rate_per_sec: f64) -> StackSimResult {
        run_stack(&StackSimConfig::poisson_gets(
            self.sim_config.clone(),
            value_bytes,
            rate_per_sec,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_headline_servers() {
        let mercury = SystemBuilder::mercury().build().unwrap();
        assert_eq!(mercury.stack().name(), "Mercury-32");
        let iridium = SystemBuilder::iridium().build().unwrap();
        assert_eq!(iridium.stack().name(), "Iridium-32");
        assert!(iridium.stack().l2);
    }

    #[test]
    fn builder_knobs_apply() {
        let system = SystemBuilder::mercury()
            .core(CoreConfig::a15_1ghz())
            .cores_per_stack(8)
            .l2(false)
            .memory_latency(Duration::from_nanos(50))
            .build()
            .unwrap();
        assert_eq!(system.stack().name(), "Mercury-8");
        assert!(!system.stack().l2);
        assert_eq!(system.core_config().core.label(), "A15 @1GHz");
    }

    #[test]
    fn invalid_core_count_is_a_build_error() {
        let err = SystemBuilder::mercury().cores_per_stack(64).build();
        assert!(matches!(err, Err(BuildError::Stack(_))));
        assert!(err.unwrap_err().to_string().contains("invalid stack"));
    }

    #[test]
    fn quick_evaluation_lands_in_table4_band() {
        let report = SystemBuilder::mercury().build().unwrap().evaluate_quick(64);
        assert!((24e6..42e6).contains(&report.tps), "{}", report.tps);
        assert_eq!(report.memory_gb, report.stacks as f64 * 4.0);
    }

    #[test]
    fn facade_latency_under_load() {
        let system = SystemBuilder::iridium().build().unwrap();
        let result = system.latency_under_load(64, 1_000.0);
        assert!(result.sla_1ms() > 0.9, "{}", result.sla_1ms());
    }
}
