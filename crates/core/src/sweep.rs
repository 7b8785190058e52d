//! Request-size sweeps: the measurement loop behind Figures 4–6 and the
//! per-core performance inputs to Tables 3–4.

use densekv_par::{par_map, Jobs};
use densekv_server::PerCorePerf;
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::Duration;
use densekv_workload::{key_bytes_into, FixedSizeWorkload, Op, MAX_KEY_LEN};

use crate::sim::{CoreSim, CoreSimConfig};

/// Measured behaviour of one operation type at one size point.
#[derive(Debug, Clone)]
pub struct OpPoint {
    /// Mean round-trip time.
    pub mean_rtt: Duration,
    /// Transactions per second (1 / mean RTT, §5.3).
    pub tps: f64,
    /// Mean Fig. 4 component times (network / store / hash), as fractions
    /// of server time.
    pub network_share: f64,
    /// Store (Memcached metadata + parse) share.
    pub store_share: f64,
    /// Hash share.
    pub hash_share: f64,
    /// Per-core performance summary for server aggregation.
    pub perf: PerCorePerf,
    /// RTT distribution (for SLA checks).
    pub latency: LatencyHistogram,
}

/// GET and PUT behaviour at one request size.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Value size, bytes.
    pub value_bytes: u64,
    /// GET measurements.
    pub get: OpPoint,
    /// PUT measurements.
    pub put: OpPoint,
}

/// How many requests to replay per (size, op) measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepEffort {
    /// Cache/TLB warmup requests before measuring.
    pub warmup: u32,
    /// Measured requests.
    pub measured: u32,
}

impl SweepEffort {
    /// Full-fidelity effort for the benchmark harness.
    pub fn full() -> Self {
        SweepEffort {
            warmup: 300,
            measured: 100,
        }
    }

    /// Reduced effort for unit tests.
    pub fn quick() -> Self {
        SweepEffort {
            warmup: 90,
            measured: 20,
        }
    }

    /// Scales the measured count down for very large values, where each
    /// request simulates tens of thousands of line transfers.
    pub(crate) fn measured_for(&self, value_bytes: u64) -> u32 {
        if value_bytes >= 1 << 18 {
            (self.measured / 5).max(3)
        } else if value_bytes >= 1 << 14 {
            (self.measured / 2).max(5)
        } else {
            self.measured
        }
    }

    pub(crate) fn warmup_for(&self, value_bytes: u64) -> u32 {
        if value_bytes >= 1 << 18 {
            (self.warmup / 10).max(3)
        } else if value_bytes >= 1 << 14 {
            (self.warmup / 3).max(10)
        } else {
            self.warmup
        }
    }
}

/// Picks a key population that keeps the simulated store around a fixed
/// footprint regardless of value size.
pub(crate) fn population_for(value_bytes: u64) -> u64 {
    ((16 << 20) / value_bytes.max(64)).clamp(4, 512)
}

/// Measures one (config, size) point: preloads, warms, replays GETs and
/// PUTs, and summarizes.
///
/// # Panics
///
/// Panics if the configuration cannot host the preload population (the
/// sweep sizes stores to fit; see [`CoreSim::preloaded`]).
///
/// # Examples
///
/// ```
/// use densekv::sweep::{measure_point, SweepEffort};
/// use densekv::CoreSimConfig;
///
/// let point = measure_point(&CoreSimConfig::mercury_a7(), 64, SweepEffort::quick());
/// assert!(point.get.tps > point.put.tps * 0.5);
/// ```
pub fn measure_point(config: &CoreSimConfig, value_bytes: u64, effort: SweepEffort) -> SweepPoint {
    let mut core = CoreSim::preloaded(config, value_bytes, population_for(value_bytes));
    let get = measure_op(&mut core, Op::Get, value_bytes, effort);
    let put = measure_op(&mut core, Op::Put, value_bytes, effort);
    SweepPoint {
        value_bytes,
        get,
        put,
    }
}

/// Warms a preloaded core for one measured `op` point: replays
/// `effort`'s warm-up, resets the bandwidth counters, and returns the
/// key stream at the first measured request.
///
/// Each key renders into one reused buffer, so the loop never
/// allocates. The key-id draws are the exact stream `next_request` would
/// consume, so a caller that goes on with owned `Request`s replays the
/// same requests.
pub(crate) fn warm(
    core: &mut CoreSim,
    op: Op,
    value_bytes: u64,
    effort: SweepEffort,
) -> FixedSizeWorkload {
    let population = population_for(value_bytes);
    let mut gen = FixedSizeWorkload::new(op, value_bytes, population, 0x5EED ^ value_bytes);
    let mut key = Vec::with_capacity(MAX_KEY_LEN);
    for _ in 0..effort.warmup_for(value_bytes) {
        key_bytes_into(gen.next_key_id(), &mut key);
        core.execute_parts(op, &key, value_bytes);
    }
    core.reset_counters();
    gen
}

/// The per-core summary of `measured` requests whose round trips sum to
/// `total`, on a core whose counters were reset before the first.
pub(crate) fn per_core_perf(core: &CoreSim, total: Duration, measured: u32) -> PerCorePerf {
    let mean_rtt = total / u64::from(measured);
    let sim_seconds = total.as_secs_f64();
    PerCorePerf {
        tps: 1.0 / mean_rtt.as_secs_f64(),
        mem_gbps: core.device_bytes() as f64 / sim_seconds / 1e9,
        wire_gbps: core.wire_bytes() as f64 / sim_seconds / 1e9,
    }
}

fn measure_op(core: &mut CoreSim, op: Op, value_bytes: u64, effort: SweepEffort) -> OpPoint {
    let mut gen = warm(core, op, value_bytes, effort);
    let mut key = Vec::with_capacity(MAX_KEY_LEN);

    let mut latency = LatencyHistogram::new();
    let mut total = Duration::ZERO;
    let mut net = Duration::ZERO;
    let mut store = Duration::ZERO;
    let mut hash = Duration::ZERO;
    let mut server = Duration::ZERO;
    let measured = effort.measured_for(value_bytes);
    for _ in 0..measured {
        key_bytes_into(gen.next_key_id(), &mut key);
        let (t, _) = core.execute_parts(op, &key, value_bytes);
        latency.record(t.rtt);
        total += t.rtt;
        net += t.network;
        store += t.store;
        hash += t.hash;
        server += t.server;
    }

    let perf = per_core_perf(core, total, measured);
    let server_s = server.as_secs_f64().max(f64::MIN_POSITIVE);
    OpPoint {
        mean_rtt: total / u64::from(measured),
        tps: perf.tps,
        network_share: net.as_secs_f64() / server_s,
        store_share: store.as_secs_f64() / server_s,
        hash_share: hash.as_secs_f64() / server_s,
        perf,
        latency,
    }
}

/// Sweeps every paper size point for one configuration, distributing
/// the independent size points over `jobs` workers.
///
/// Every point builds its own [`CoreSim`] and seeds its workload from
/// the size alone, so the result is bit-identical at any `jobs` —
/// points land back in size order regardless of completion order.
pub fn sweep_sizes(config: &CoreSimConfig, effort: SweepEffort, jobs: Jobs) -> Vec<SweepPoint> {
    let sizes = densekv_workload::paper_size_sweep();
    par_map(jobs, &sizes, |&size| measure_point(config, size, effort))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CoreSimConfig;

    #[test]
    fn tps_is_inverse_rtt() {
        let p = measure_point(&CoreSimConfig::mercury_a7(), 64, SweepEffort::quick());
        let expected = 1.0 / p.get.mean_rtt.as_secs_f64();
        assert!((p.get.tps - expected).abs() < 1e-6);
    }

    #[test]
    fn shares_sum_to_one() {
        let p = measure_point(&CoreSimConfig::mercury_a7(), 1024, SweepEffort::quick());
        let sum = p.get.network_share + p.get.store_share + p.get.hash_share;
        assert!((sum - 1.0).abs() < 0.01, "shares sum to {sum}");
    }

    #[test]
    fn tps_decreases_with_size() {
        let cfg = CoreSimConfig::mercury_a7();
        let small = measure_point(&cfg, 64, SweepEffort::quick());
        let big = measure_point(&cfg, 64 << 10, SweepEffort::quick());
        assert!(small.get.tps > big.get.tps * 3.0);
    }

    #[test]
    fn bandwidth_grows_with_size() {
        let cfg = CoreSimConfig::mercury_a7();
        let small = measure_point(&cfg, 64, SweepEffort::quick());
        let big = measure_point(&cfg, 16 << 10, SweepEffort::quick());
        assert!(big.get.perf.wire_gbps > small.get.perf.wire_gbps * 10.0);
        assert!(big.get.perf.mem_gbps > small.get.perf.mem_gbps);
    }

    #[test]
    fn population_bounds() {
        assert_eq!(population_for(64), 512);
        assert_eq!(population_for(1 << 20), 16);
        assert!(population_for(1 << 30) >= 4);
    }

    #[test]
    fn latency_histogram_populated() {
        let p = measure_point(&CoreSimConfig::mercury_a7(), 64, SweepEffort::quick());
        assert_eq!(
            p.get.latency.count(),
            u64::from(SweepEffort::quick().measured)
        );
        // Sub-millisecond SLA holds for small Mercury GETs.
        assert!(p.get.latency.fraction_within(Duration::from_millis(1)) > 0.99);
    }
}
