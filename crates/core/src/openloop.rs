//! Open-loop (Poisson-arrival) simulation: latency under load.
//!
//! The paper's closed-loop measurements (TPS = 1/RTT, §5.3) give each
//! request an idle server. Real Memcached fleets care about the latency
//! *distribution under load* — the SLA the paper repeatedly appeals to
//! ("a majority of requests within the sub-millisecond range"). This
//! module drives one simulated core with a Poisson request stream and a
//! FIFO queue, reporting queueing-inclusive latency percentiles.

use densekv_sim::dist::Exponential;
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, SimTime, SplitMix64};
use densekv_workload::{FixedSizeWorkload, Op};

use crate::sim::{CoreSim, CoreSimConfig};
use crate::slots::RequestSlots;

/// Configuration of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// The simulated core.
    pub sim: CoreSimConfig,
    /// Value size, bytes.
    pub value_bytes: u64,
    /// Offered load in requests per second (Poisson).
    pub rate_per_sec: f64,
    /// Fraction of requests that are GETs (the rest are PUTs).
    pub get_fraction: f64,
    /// Requests measured (after warmup).
    pub requests: u32,
    /// Warmup requests (caches + queue reach steady state).
    pub warmup: u32,
    /// RNG seed for arrivals and key choice.
    pub seed: u64,
}

impl OpenLoopConfig {
    /// A GET-only run at `rate_per_sec` on `sim`.
    pub fn gets(sim: CoreSimConfig, value_bytes: u64, rate_per_sec: f64) -> Self {
        OpenLoopConfig {
            sim,
            value_bytes,
            rate_per_sec,
            get_fraction: 1.0,
            requests: 400,
            warmup: 300,
            seed: 0xA11CE,
        }
    }
}

/// Result of an open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopResult {
    /// Queueing-inclusive response-time distribution.
    pub latency: LatencyHistogram,
    /// Offered load, requests/second.
    pub offered_rate: f64,
    /// Server utilization (busy time ÷ simulated time).
    pub utilization: f64,
    /// Fraction of responses within 1 ms — the paper's SLA.
    pub sla_1ms: f64,
    /// Requests that found the server busy (were queued).
    pub queued_fraction: f64,
}

/// Runs the open-loop simulation.
///
/// # Panics
///
/// Panics if the configuration is invalid (zero rate, preload failure).
///
/// # Examples
///
/// ```
/// use densekv::openloop::{run, OpenLoopConfig};
/// use densekv::CoreSimConfig;
///
/// // 30% of the core's closed-loop capacity: almost no queueing.
/// let mut config = OpenLoopConfig::gets(CoreSimConfig::mercury_a7(), 64, 3_000.0);
/// config.requests = 100;
/// config.warmup = 100;
/// let result = run(&config);
/// assert!(result.sla_1ms > 0.99);
/// ```
pub fn run(config: &OpenLoopConfig) -> OpenLoopResult {
    assert!(config.rate_per_sec > 0.0, "rate must be positive");
    let population = 128;
    let mut core = CoreSim::preloaded(&config.sim, config.value_bytes, population);

    let arrivals = Exponential::from_rate_per_sec(config.rate_per_sec);
    let mut rng = SplitMix64::new(config.seed);
    let mut gets = FixedSizeWorkload::new(Op::Get, config.value_bytes, population, config.seed);
    let mut puts = FixedSizeWorkload::new(Op::Put, config.value_bytes, population, !config.seed);

    // Requests cycle through one recycled slot in the arena — no
    // per-request key allocation. Draw order (`next_bool`, then the
    // chosen generator's key id) matches the owned-`Request` path
    // exactly, so the run is byte-identical.
    let mut slots = RequestSlots::with_capacity(1);
    let next_slot = |rng: &mut SplitMix64,
                     gets: &mut FixedSizeWorkload,
                     puts: &mut FixedSizeWorkload,
                     slots: &mut RequestSlots| {
        if rng.next_bool(config.get_fraction) {
            slots.acquire(Op::Get, config.value_bytes, gets.next_key_id())
        } else {
            slots.acquire(Op::Put, config.value_bytes, puts.next_key_id())
        }
    };

    // Warm the caches closed-loop (no queue) so the Poisson process sees
    // steady-state service times, not a cold-start backlog.
    for _ in 0..config.warmup {
        let slot = next_slot(&mut rng, &mut gets, &mut puts, &mut slots);
        core.execute_parts(slots.op(slot), slots.key(slot), slots.value_bytes(slot));
        slots.release(slot);
    }

    let mut now = SimTime::ZERO;
    let mut server_free_at = SimTime::ZERO;
    let mut busy = Duration::ZERO;
    let mut latency = LatencyHistogram::new();
    let mut queued = 0u64;

    for _ in 0..config.requests {
        now += arrivals.sample(&mut rng);
        let slot = next_slot(&mut rng, &mut gets, &mut puts, &mut slots);
        // FIFO single-server queue: service starts when the core frees.
        let start = now.max(server_free_at);
        let (timing, _) =
            core.execute_parts(slots.op(slot), slots.key(slot), slots.value_bytes(slot));
        slots.release(slot);
        // The core is occupied for the server-side time; the wire/client
        // portions of the RTT overlap the next request's service.
        server_free_at = start + timing.server;
        let response = start.elapsed_since(now) + timing.rtt;
        latency.record(response);
        busy += timing.server;
        if start > now {
            queued += 1;
        }
    }

    let span = server_free_at
        .max(now)
        .elapsed_since(SimTime::ZERO)
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    OpenLoopResult {
        offered_rate: config.rate_per_sec,
        utilization: (busy.as_secs_f64() / span).min(1.0),
        sla_1ms: latency.fraction_within(Duration::from_millis(1)),
        queued_fraction: queued as f64 / config.requests as f64,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_load(fraction_of_capacity: f64) -> OpenLoopResult {
        // A7 Mercury closed-loop capacity at 64 B is ~11 KTPS.
        let mut config = OpenLoopConfig::gets(
            CoreSimConfig::mercury_a7(),
            64,
            11_000.0 * fraction_of_capacity,
        );
        config.requests = 300;
        config.warmup = 200;
        run(&config)
    }

    #[test]
    fn light_load_sees_no_queueing() {
        let r = at_load(0.2);
        assert!(r.queued_fraction < 0.3, "queued {}", r.queued_fraction);
        assert!(r.sla_1ms > 0.99);
        assert!(r.utilization < 0.4, "utilization {}", r.utilization);
    }

    #[test]
    fn latency_rises_with_load() {
        let light = at_load(0.3);
        let heavy = at_load(0.9);
        let p99_light = light.latency.percentile(0.99).expect("samples");
        let p99_heavy = heavy.latency.percentile(0.99).expect("samples");
        assert!(
            p99_heavy > p99_light,
            "p99 must grow with load: {p99_light} -> {p99_heavy}"
        );
        assert!(heavy.utilization > light.utilization);
        assert!(heavy.queued_fraction > light.queued_fraction);
    }

    #[test]
    fn overload_blows_the_sla() {
        let r = at_load(1.5); // beyond capacity: queue grows without bound
        assert!(
            r.sla_1ms < 0.7,
            "overloaded core cannot hold the SLA: {}",
            r.sla_1ms
        );
        assert!(r.utilization > 0.9);
    }

    #[test]
    fn iridium_sla_depends_on_rate() {
        // The paper's Iridium pitch: moderate-to-low request rates keep
        // flash within the SLA.
        let low = run(&OpenLoopConfig::gets(
            CoreSimConfig::iridium_a7(),
            64,
            1_000.0,
        ));
        assert!(
            low.sla_1ms > 0.95,
            "low-rate Iridium holds: {}",
            low.sla_1ms
        );
        let high = run(&OpenLoopConfig::gets(
            CoreSimConfig::iridium_a7(),
            64,
            8_000.0,
        ));
        assert!(
            high.sla_1ms < low.sla_1ms,
            "overdriving flash degrades the SLA"
        );
    }
}
