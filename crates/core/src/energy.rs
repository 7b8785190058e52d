//! Event-driven energy accounting for [`CoreSim`] runs: per-request
//! [`EnergyBreakdown`]s mirroring [`PhaseBreakdown`], a component-tagged
//! [`EnergyMeter`] and a [`PowerTimeline`] — plus the *measured*
//! TPS/Watt those add up to.
//!
//! Like [`crate::observe`], this layer is strictly passive: it reads the
//! core's counters and the request's phase durations after the fact and
//! does arithmetic on them. Metering off runs no `EnergyObserver` at
//! all, and metering cannot change a simulation's performance outputs
//! (enforced by the workspace property tests).
//!
//! # Attribution
//!
//! The Table 1 model charges cores, MAC, PHY, and L2 leakage as constant
//! draw, so a request's *time-proportional* energy is its RTT times the
//! one-core stack's static watts; the per-phase rows of an
//! [`EnergyBreakdown`] split that by the same phase boundaries
//! [`PhaseBreakdown::phases`] reports. Activity-proportional energy —
//! memory-device bytes at Table 1's pJ/byte and per-access cache energy
//! carved out of the core budget — cannot be pinned to a single phase
//! (a GET's value bytes move during `value-copy` *and* the store walk),
//! so it is reported per request in [`EnergyBreakdown::memory_j`] and
//! the cache fields. Integrated over a run, the meter reproduces the
//! analytic §5.4 `stack_power()` at the observed bandwidth; the
//! `energy_converges_to_stack_power` test holds this to 1 %.

use densekv_energy::{Component, EnergyMeter, EnergyRates, PowerTimeline};
use densekv_server::PerCorePerf;
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, SimTime};
use densekv_stack::power::{energy_rates, tier_rates};
use densekv_telemetry::Telemetry;
use densekv_workload::{Op, Request, RequestGenerator};

use crate::observe::observed_loop;
use crate::sim::{CoreSim, CoreSimConfig, PhaseBreakdown, RequestTiming};
use crate::sweep::{per_core_perf, population_for, warm, SweepEffort};

/// One request's round trip priced in joules — [`PhaseBreakdown`]'s
/// energy mirror.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Time-proportional joules per phase, in [`PhaseBreakdown::phases`]
    /// order (phase duration × the stack's static watts).
    pub(crate) phase_j: [f64; 11],
    /// Memory-device bytes this request moved, priced at Table 1's
    /// pJ/byte (whole-request: value copies and store walks both move
    /// device lines). Hybrid (Helios) cores price DRAM-tier and
    /// flash-array bytes at their separate rates.
    pub memory_j: f64,
    /// L1 I+D access energy (already included in the phase rows' core
    /// budget; reported for attribution, see [`EnergyMeter::attribute_cache`]).
    pub cache_l1_j: f64,
    /// L2 access energy (likewise carved out of the core budget).
    pub cache_l2_j: f64,
}

impl EnergyBreakdown {
    /// `(phase, joules)` rows in wire order, named like
    /// [`PhaseBreakdown::phases`].
    #[must_use]
    pub fn phases(&self) -> [(&'static str, f64); 11] {
        let names = PhaseBreakdown::default().phases();
        let mut rows = [("", 0.0); 11];
        for (i, row) in rows.iter_mut().enumerate() {
            *row = (names[i].0, self.phase_j[i]);
        }
        rows
    }

    /// Total joules charged for the request: the time-proportional phase
    /// energy plus the activity-proportional memory energy. Cache energy
    /// is *not* added — it lives inside the phase rows' core budget.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.phase_j.iter().sum::<f64>() + self.memory_j
    }

    /// Accumulates another breakdown (for per-op means over a run).
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        for (mine, theirs) in self.phase_j.iter_mut().zip(other.phase_j.iter()) {
            *mine += theirs;
        }
        self.memory_j += other.memory_j;
        self.cache_l1_j += other.cache_l1_j;
        self.cache_l2_j += other.cache_l2_j;
    }

    /// Every field divided by `n` (turning a run total into a per-op
    /// mean); `n == 0` returns zeros.
    #[must_use]
    pub fn scaled(&self, n: u64) -> EnergyBreakdown {
        if n == 0 {
            return EnergyBreakdown::default();
        }
        let inv = 1.0 / n as f64;
        let mut out = *self;
        out.phase_j.iter_mut().for_each(|j| *j *= inv);
        out.memory_j *= inv;
        out.cache_l1_j *= inv;
        out.cache_l2_j *= inv;
        out
    }
}

/// Charges a [`CoreSim`] run's events to an [`EnergyMeter`], builds
/// per-request [`EnergyBreakdown`]s and feeds a [`PowerTimeline`].
///
/// Construct it *after* any preload, so the device-byte and cache
/// counters it charges deltas of cover only the measured requests.
#[derive(Debug)]
pub(crate) struct EnergyObserver {
    rates: EnergyRates,
    /// Table 1 J/byte per tier `(DRAM, flash)`. Single-tier stacks put
    /// their whole rate on their own tier, so the split pricing reduces
    /// exactly to `rates.mem_j_per_byte()` for them.
    tier_j_per_byte: (f64, f64),
    meter: EnergyMeter,
    timeline: PowerTimeline,
    clock: SimTime,
    accumulated: EnergyBreakdown,
    last_tier_bytes: (u64, u64),
    last_l1_accesses: u64,
    last_l2_accesses: u64,
}

impl EnergyObserver {
    /// An observer charging to a fresh meter, with a power timeline of
    /// `bucket`-wide buckets.
    pub fn new(core: &CoreSim, bucket: Duration) -> Self {
        let stack = core
            .config()
            .stack_config()
            .expect("a running CoreSim always has a valid one-core stack config");
        let cache = core.cache_stats();
        let (dram_mw, flash_mw) = tier_rates(&stack);
        EnergyObserver {
            rates: energy_rates(&stack),
            tier_j_per_byte: (dram_mw * 1e-12, flash_mw * 1e-12),
            meter: EnergyMeter::default(),
            timeline: PowerTimeline::new(bucket),
            clock: SimTime::ZERO,
            accumulated: EnergyBreakdown::default(),
            last_tier_bytes: core.device_tier_bytes(),
            last_l1_accesses: cache.l1_accesses(),
            last_l2_accesses: cache.l2_accesses(),
        }
    }

    /// The rate constants in use (derived from the core's stack config).
    #[cfg(test)]
    pub fn rates(&self) -> &EnergyRates {
        &self.rates
    }

    /// Prices the request `core` just executed and charges the meter.
    ///
    /// `timing`/`breakdown` must come from the execution immediately
    /// preceding this call (the observer diffs the core's cumulative
    /// device-byte and cache counters).
    pub fn observe(
        &mut self,
        core: &CoreSim,
        timing: &RequestTiming,
        breakdown: &PhaseBreakdown,
    ) -> EnergyBreakdown {
        let start = self.clock;
        let end = start + timing.rtt;
        self.clock = end;

        // Time-proportional charges: the whole RTT draws the static
        // rates, attributed by what the hardware was doing.
        let rtt = timing.rtt;
        let active = breakdown.server();
        let idle = rtt - active;
        let mac_active = breakdown.req_nic + breakdown.resp_nic;
        let mac_idle = rtt - mac_active;
        self.meter
            .charge_mw_for(Component::CoreActive, self.rates.core_active_mw, active);
        self.meter
            .charge_mw_for(Component::CoreIdle, self.rates.core_active_mw, idle);
        self.meter
            .charge_mw_for(Component::MacActive, self.rates.mac_mw, mac_active);
        self.meter
            .charge_mw_for(Component::MacIdle, self.rates.mac_mw, mac_idle);
        self.meter
            .charge_mw_for(Component::Phy, self.rates.phy_mw, rtt);
        self.meter
            .charge_mw_for(Component::L2Leak, self.rates.l2_leak_mw_per_core, rtt);

        // Activity-proportional charges: device bytes and cache accesses
        // since the previous request, each tier priced at its own Table 1
        // rate (DRAM 210 mW/(GB/s), flash 6). On single-tier stacks this
        // is exactly the stack's headline rate.
        let (dram_bytes, flash_bytes) = core.device_tier_bytes();
        let dram_moved = dram_bytes.saturating_sub(self.last_tier_bytes.0);
        let flash_moved = flash_bytes.saturating_sub(self.last_tier_bytes.1);
        self.last_tier_bytes = (dram_bytes, flash_bytes);
        let memory_j = self.tier_j_per_byte.0 * dram_moved as f64
            + self.tier_j_per_byte.1 * flash_moved as f64;
        self.meter.charge_j(Component::Memory, memory_j);

        let cache = core.cache_stats();
        let (l1, l2) = (cache.l1_accesses(), cache.l2_accesses());
        let dl1 = l1.saturating_sub(self.last_l1_accesses);
        let dl2 = l2.saturating_sub(self.last_l2_accesses);
        self.last_l1_accesses = l1;
        self.last_l2_accesses = l2;
        self.meter.attribute_cache(&self.rates, dl1, dl2);

        // Per-request breakdown: static watts over each phase, memory
        // and cache reported per request.
        let static_w = self.rates.stack_static_w(1);
        let mut out = EnergyBreakdown {
            memory_j,
            cache_l1_j: self.rates.l1_pj_per_access * 1e-12 * dl1 as f64,
            cache_l2_j: self.rates.l2_pj_per_access * 1e-12 * dl2 as f64,
            ..EnergyBreakdown::default()
        };
        for (i, (_, d)) in breakdown.phases().iter().enumerate() {
            out.phase_j[i] = static_w * d.as_secs_f64();
        }
        self.accumulated.accumulate(&out);

        self.timeline.deposit_span(start, end, static_w);
        self.timeline.deposit(end, out.memory_j);

        out
    }

    /// Finishes the run, consuming the observer into its results.
    #[must_use]
    pub fn finish(self, latency: LatencyHistogram) -> EnergyRun {
        let requests = latency.count();
        EnergyRun {
            latency,
            requests,
            elapsed: self.clock.elapsed_since(SimTime::ZERO),
            per_op: self.accumulated.scaled(requests),
            meter: self.meter,
            timeline: self.timeline,
        }
    }
}

/// Everything an energy-metered closed-loop run produced.
#[derive(Debug)]
pub struct EnergyRun {
    /// Exact RTT distribution (identical to the unmetered run's).
    pub latency: LatencyHistogram,
    /// Requests executed.
    pub requests: u64,
    /// Closed-loop elapsed sim-time.
    pub elapsed: Duration,
    /// Mean per-op energy breakdown.
    pub per_op: EnergyBreakdown,
    /// Component-tagged joule totals.
    pub meter: EnergyMeter,
    /// Bucketed watts-vs-time curve.
    pub timeline: PowerTimeline,
}

impl EnergyRun {
    /// Measured closed-loop throughput, TPS.
    #[must_use]
    pub(crate) fn measured_tps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean measured power, watts.
    #[must_use]
    pub fn measured_watts(&self) -> f64 {
        self.meter.mean_watts(self.elapsed)
    }

    /// Mean joules per operation.
    #[must_use]
    pub fn j_per_op(&self) -> f64 {
        if self.requests > 0 {
            self.meter.total_j() / self.requests as f64
        } else {
            0.0
        }
    }

    /// Measured efficiency from accumulated energy: `(N/T)/(E/T) = N/E`,
    /// TPS per watt. This is the run's *observed* counterpart of the
    /// analytic `tps / stack_power(...).total_w()`.
    #[must_use]
    pub fn measured_tps_per_watt(&self) -> f64 {
        let joules = self.meter.total_j();
        if joules > 0.0 {
            self.requests as f64 / joules
        } else {
            0.0
        }
    }

    /// Observed memory-device bandwidth, GB/s (from the meter's memory
    /// joules and the device's pJ/byte rate).
    #[must_use]
    pub fn observed_mem_gbps(&self, rates: &EnergyRates) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            let bytes = self.meter.component_j(Component::Memory) / rates.mem_j_per_byte();
            bytes / secs / 1e9
        } else {
            0.0
        }
    }

    /// Scales this one-core measured run's throughput up to a
    /// `cores`-core stack, TPS. `derate` is the wire cap from
    /// [`densekv_server::stack_working_point`] — the same §5.3
    /// aggregation the analytic path uses.
    #[must_use]
    pub(crate) fn measured_stack_tps(&self, cores: u32, derate: f64) -> f64 {
        f64::from(cores) * self.measured_tps() * derate
    }

    /// Scales this one-core measured run's integrated power up to a
    /// `cores`-core stack, component watts — the *measured* counterpart
    /// of the analytic `stack_power(...).total_w()`.
    ///
    /// Per-core components (core, caches, L2 leakage, memory traffic)
    /// multiply by `cores`; MAC and PHY are shared per stack and count
    /// once. The wire `derate` scales only the activity-proportional
    /// memory power — the static draw stays, exactly as in the analytic
    /// model. Feed the result through `ServerConstraints::wall_power_w`
    /// when comparing against a [`densekv_server::ServerReport`].
    #[must_use]
    pub(crate) fn measured_stack_watts(&self, cores: u32, derate: f64) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        let shared_j = self.meter.component_j(Component::MacActive)
            + self.meter.component_j(Component::MacIdle)
            + self.meter.component_j(Component::Phy);
        let memory_j = self.meter.component_j(Component::Memory);
        let per_core_j = self.meter.total_j() - shared_j - memory_j;
        (f64::from(cores) * (per_core_j + memory_j * derate) + shared_j) / secs
    }
}

/// Measures the GETs of one (config, size) point with energy metering
/// on: the energy counterpart of [`crate::sweep::measure_point`]. The
/// core is built and warmed by the sweep's own code, so the measured
/// GETs are the sweep's, and the returned [`PerCorePerf`] equals its
/// `get.perf`; the [`EnergyRun`] covers those requests only.
pub(crate) fn measure_energy_point(
    config: &CoreSimConfig,
    value_bytes: u64,
    effort: SweepEffort,
) -> (PerCorePerf, EnergyRun) {
    let mut core = CoreSim::preloaded(config, value_bytes, population_for(value_bytes));
    let mut gen = warm(&mut core, Op::Get, value_bytes, effort);
    let measured = effort.measured_for(value_bytes);
    let requests: Vec<Request> = (0..measured).map(|_| gen.next_request()).collect();
    let run = run_energy_observed(
        &mut core,
        &requests,
        &mut Telemetry::disabled(),
        true,
        Duration::from_micros(500),
    );
    (per_core_perf(&core, run.elapsed, measured), run)
}

/// Runs `requests` closed-loop with telemetry *and* energy metering —
/// the energy counterpart of [`crate::observe::run_observed`], on the
/// same loop and `CoreObserver`, so
/// spans, metrics, and joules come from one pass. `metered` selects the
/// passivity property's on/off arm: off runs the loop with no
/// `EnergyObserver` and reports the same latencies and elapsed time
/// beside a zero meter and an empty timeline.
pub fn run_energy_observed(
    core: &mut CoreSim,
    requests: &[Request],
    tele: &mut Telemetry,
    metered: bool,
    bucket: Duration,
) -> EnergyRun {
    if !metered {
        let (latency, elapsed) = observed_loop(core, requests, tele, |_, _, _| {});
        return EnergyRun {
            requests: latency.count(),
            latency,
            elapsed,
            per_op: EnergyBreakdown::default(),
            meter: EnergyMeter::default(),
            timeline: PowerTimeline::new(bucket),
        };
    }
    let mut energy = EnergyObserver::new(core, bucket);
    let (latency, _) = observed_loop(core, requests, tele, |core, timing, breakdown| {
        energy.observe(core, timing, breakdown);
    });
    energy.finish(latency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::measure_point;
    use densekv_stack::power::stack_power;
    use densekv_workload::key_bytes;

    fn requests(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request {
                op: if i % 4 == 3 { Op::Put } else { Op::Get },
                key: key_bytes(i % 16),
                value_bytes: 64,
            })
            .collect()
    }

    fn fresh_core(config: CoreSimConfig) -> CoreSim {
        let mut core = CoreSim::new(config).unwrap();
        core.preload(64, 16).unwrap();
        core
    }

    #[test]
    fn energy_converges_to_stack_power() {
        // Satellite: integrate event-driven power over a steady-state
        // Mercury run and compare against the analytic §5.4 model at the
        // observed bandwidth. Residual sources: (a) f64 summation order
        // across thousands of per-phase charges vs one closed-form
        // multiply, and (b) the cache attribution's zero-sum carve-out,
        // which moves joules between components but cannot change the
        // total. Both are orders of magnitude below the 1 % gate; the
        // gate is deliberately loose so a future idle-state or DVFS
        // model has headroom before it must update the test.
        let mut core = fresh_core(CoreSimConfig::mercury_a7());
        let mut tele = Telemetry::disabled();
        let run = run_energy_observed(
            &mut core,
            &requests(256),
            &mut tele,
            true,
            Duration::from_micros(500),
        );

        let stack = core.config().stack_config().unwrap();
        let gbps = run.observed_mem_gbps(&energy_rates(&stack));
        let analytic_w = stack_power(&stack, gbps).total_w();
        let measured_w = run.measured_watts();
        let rel = (measured_w - analytic_w).abs() / analytic_w;
        assert!(
            rel < 0.01,
            "measured {measured_w} W vs analytic {analytic_w} W: rel {rel}"
        );
        // The timeline integrates to the same energy as the meter.
        let rel_t = (run.timeline.total_j() - run.meter.total_j()).abs() / run.meter.total_j();
        assert!(rel_t < 1e-9, "timeline vs meter: rel {rel_t}");
    }

    #[test]
    fn energy_point_replays_the_sweep_points_gets() {
        let effort = SweepEffort::quick();
        for config in [
            CoreSimConfig::mercury_a7(),
            CoreSimConfig::iridium_a7(),
            CoreSimConfig::helios_a7(256 << 20),
        ] {
            for value_bytes in [64, 4096, 1 << 20] {
                let get = measure_point(&config, value_bytes, effort).get;
                let (perf, run) = measure_energy_point(&config, value_bytes, effort);
                let at = format!("{:?} at {value_bytes} B", config.memory);
                assert_eq!(perf, get.perf, "{at}");
                assert_eq!(run.latency.count(), get.latency.count(), "{at}");
                assert_eq!(run.latency.mean(), get.latency.mean(), "{at}");
                for q in [0.0, 0.5, 0.99, 1.0] {
                    assert_eq!(
                        run.latency.percentile(q),
                        get.latency.percentile(q),
                        "{at}, q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn breakdown_phases_mirror_phase_breakdown() {
        let mut core = fresh_core(CoreSimConfig::mercury_a7());
        let mut energy = EnergyObserver::new(&core, Duration::from_micros(500));
        let req = requests(1);
        let (timing, phases) = core.execute_breakdown(&req[0]);
        let e = energy.observe(&core, &timing, &phases);

        let names: Vec<_> = e.phases().iter().map(|&(n, _)| n).collect();
        let expected: Vec<_> = phases.phases().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, expected);
        // Phase joules are proportional to phase durations.
        let static_w = energy.rates().stack_static_w(1);
        for ((_, j), (_, d)) in e.phases().iter().zip(phases.phases().iter()) {
            assert!((j - static_w * d.as_secs_f64()).abs() < 1e-15);
        }
        // Time-proportional total is RTT x static watts.
        let time_j: f64 = e.phase_j.iter().sum();
        assert!((time_j - static_w * timing.rtt.as_secs_f64()).abs() < 1e-12);
        assert!(e.memory_j > 0.0, "a 64 B GET moves device lines");
        assert!(e.cache_l1_j > 0.0);
    }

    #[test]
    fn disabled_metering_reports_zero_energy() {
        let mut core = fresh_core(CoreSimConfig::mercury_a7());
        let mut tele = Telemetry::disabled();
        let run = run_energy_observed(
            &mut core,
            &requests(16),
            &mut tele,
            false,
            Duration::from_micros(500),
        );
        assert_eq!(run.meter.total_j(), 0.0);
        assert!(run.timeline.is_empty());
        assert_eq!(run.latency.count(), 16);
        assert!(run.measured_tps() > 0.0, "timing still measured");
        assert_eq!(run.measured_tps_per_watt(), 0.0);
    }

    #[test]
    fn iridium_memory_energy_is_cheaper_per_byte() {
        let m = {
            let mut core = fresh_core(CoreSimConfig::mercury_a7());
            let mut tele = Telemetry::disabled();
            run_energy_observed(
                &mut core,
                &requests(64),
                &mut tele,
                true,
                Duration::from_micros(500),
            )
        };
        let i = {
            let mut core = fresh_core(CoreSimConfig::iridium_a7());
            let mut tele = Telemetry::disabled();
            run_energy_observed(
                &mut core,
                &requests(64),
                &mut tele,
                true,
                Duration::from_micros(500),
            )
        };
        // Flash is 6 mW/(GB/s) vs DRAM's 210: per-op memory joules per
        // byte collapse, even though Iridium's RTT (and so its
        // time-proportional energy) is much larger.
        assert!(i.per_op.memory_j < m.per_op.memory_j);
        assert!(
            i.j_per_op() > m.j_per_op(),
            "flash latency costs idle joules"
        );
    }

    #[test]
    fn helios_memory_energy_prices_tiers_separately() {
        let mut core = fresh_core(CoreSimConfig::helios_a7(64 << 20));
        let before = core.device_tier_bytes();
        let run = run_energy_observed(
            &mut core,
            &requests(128),
            &mut Telemetry::disabled(),
            true,
            Duration::from_micros(500),
        );
        let after = core.device_tier_bytes();
        let dram = (after.0 - before.0) as f64;
        let flash = (after.1 - before.1) as f64;
        assert!(dram > 0.0, "warm hits move DRAM-tier bytes");
        assert!(flash > 0.0, "cold fills move flash bytes");
        // The meter charged each tier at its own Table 1 rate…
        let mem_j = run.meter.component_j(Component::Memory);
        let split_j = 210e-12 * dram + 6e-12 * flash;
        assert!((mem_j - split_j).abs() / split_j < 1e-9);
        // …which a single headline rate cannot reproduce.
        assert!(mem_j < 210e-12 * (dram + flash));
        assert!(mem_j > 6e-12 * (dram + flash));
    }
}
