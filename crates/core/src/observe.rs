//! Bridges the execution-driven core simulator into the telemetry
//! layer: spans, metrics, and timeline gauges for [`CoreSim`] runs.
//!
//! [`CoreSim`] itself stays telemetry-free — it returns a
//! [`PhaseBreakdown`] and exposes raw counters, and this module turns
//! them into [`densekv_telemetry`] records. [`run_observed`] drives a
//! closed-loop request sequence (each request departs when the previous
//! response lands, TPS = 1/RTT as in §5.3) and its `CoreObserver`
//! records every request into a [`Telemetry`] bundle as it goes.
//! Telemetry is passive: the loop calls the same
//! [`CoreSim::execute_breakdown`] whether the bundle is enabled or
//! disabled, so observed and unobserved runs produce bit-identical
//! timings.

use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, SimTime};
use densekv_telemetry::{CounterId, HistogramId, MetricsRegistry, SpanBuilder, Telemetry};
use densekv_workload::{Op, Request};

use crate::sim::{CoreSim, PhaseBreakdown, RequestTiming};

/// Gauge columns a `CoreObserver` keeps current in the bundle's
/// sampler; build the sampler with exactly these columns.
pub const CORE_TIMELINE_COLUMNS: &[&str] =
    &["kv_hit_rate", "l1d_hit_rate", "l2_hit_rate", "wire_mb"];

/// Trace-viewer process id the observer files core spans under.
const CORE_PID: u32 = 1;

/// Executes requests on a [`CoreSim`] while recording telemetry.
///
/// Registered metrics: `core.requests`, `core.hits`, `core.misses`
/// counters and `core.rtt` / `core.server` latency histograms. Cores
/// with a hybrid (Helios) memory additionally keep `core.tier_hits` /
/// `core.tier_misses` counters current with the DRAM tier's cumulative
/// totals, and every core keeps `core.refs_walked` / `core.refs_deferred`
/// / `core.l1_settles` current with how its cache model resolved L1
/// references ([`CoreSim::walk_counts`]) — what a simulated request
/// cost the host. Sampled requests get one span whose phases are the
/// request's [`PhaseBreakdown`](crate::sim::PhaseBreakdown) — they tile
/// the RTT exactly, so `phase_sum == total` holds for every exported
/// span.
#[derive(Debug)]
pub(crate) struct CoreObserver {
    requests: CounterId,
    hits: CounterId,
    misses: CounterId,
    tier_hits: CounterId,
    tier_misses: CounterId,
    last_tier: (u64, u64),
    refs_walked: CounterId,
    refs_deferred: CounterId,
    l1_settles: CounterId,
    last_walk: densekv_cpu::WalkCounts,
    rtt: HistogramId,
    server: HistogramId,
    seq: u64,
    clock: SimTime,
}

impl CoreObserver {
    /// Registers the observer's metrics in `metrics` and starts the
    /// closed-loop clock at the epoch.
    pub fn new(metrics: &mut MetricsRegistry) -> Self {
        CoreObserver {
            requests: metrics.counter("core.requests"),
            hits: metrics.counter("core.hits"),
            misses: metrics.counter("core.misses"),
            tier_hits: metrics.counter("core.tier_hits"),
            tier_misses: metrics.counter("core.tier_misses"),
            last_tier: (0, 0),
            refs_walked: metrics.counter("core.refs_walked"),
            refs_deferred: metrics.counter("core.refs_deferred"),
            l1_settles: metrics.counter("core.l1_settles"),
            last_walk: densekv_cpu::WalkCounts::default(),
            rtt: metrics.histogram("core.rtt"),
            server: metrics.histogram("core.server"),
            seq: 0,
            clock: SimTime::ZERO,
        }
    }

    /// The simulated time the next request departs at.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Records the request `core` just executed into `tele` and advances
    /// the closed-loop clock by its round trip. `timing`/`breakdown` must
    /// come from that execution: the observer reads the core's
    /// cumulative counters.
    pub fn record(
        &mut self,
        tele: &mut Telemetry,
        core: &CoreSim,
        request: &Request,
        timing: RequestTiming,
        breakdown: &PhaseBreakdown,
    ) {
        let start = self.clock;
        let end = start + timing.rtt;

        if tele.tracer.samples(self.seq) {
            let label = match request.op {
                Op::Get => "GET",
                Op::Put => "PUT",
            };
            let mut b = SpanBuilder::new(self.seq, label, CORE_PID, 0, start);
            for (name, d) in breakdown.phases() {
                b.phase(name, d);
            }
            tele.tracer.push(b.build());
        }

        tele.metrics.inc(self.requests, 1);
        tele.metrics
            .inc(if timing.hit { self.hits } else { self.misses }, 1);
        if let Some(tier) = core.tier_stats() {
            tele.metrics
                .inc(self.tier_hits, tier.hits.saturating_sub(self.last_tier.0));
            tele.metrics.inc(
                self.tier_misses,
                tier.misses.saturating_sub(self.last_tier.1),
            );
            self.last_tier = (tier.hits, tier.misses);
        }
        let walk = core.walk_counts();
        for (id, now, last) in [
            (self.refs_walked, walk.walked, self.last_walk.walked),
            (self.refs_deferred, walk.deferred, self.last_walk.deferred),
            (self.l1_settles, walk.settles, self.last_walk.settles),
        ] {
            tele.metrics.inc(id, now.saturating_sub(last));
        }
        self.last_walk = walk;
        tele.metrics.observe(self.rtt, timing.rtt);
        tele.metrics.observe(self.server, timing.server);

        if tele.sampler.is_enabled() {
            tele.sampler.advance(end);
            let kv = core.store_stats();
            let cache = core.cache_stats();
            tele.sampler.set(0, kv.hit_rate());
            tele.sampler.set(1, cache.l1d.hit_rate());
            tele.sampler
                .set(2, cache.l2.map_or(0.0, |l2| l2.hit_rate()));
            tele.sampler.set(3, core.wire_bytes() as f64 / 1e6);
        }

        self.clock = end;
        self.seq += 1;
    }
}

/// Runs `requests` back-to-back through a fresh `CoreObserver`,
/// recording into `tele`, and returns the exact RTT distribution — the
/// one-call harness `densekv-bench trace_run` and the telemetry
/// property tests share.
pub fn run_observed(
    core: &mut CoreSim,
    requests: &[Request],
    tele: &mut Telemetry,
) -> LatencyHistogram {
    observed_loop(core, requests, tele, |_, _, _| {}).0
}

/// The closed loop every observed run shares: executes each request,
/// hands its execution to `also` (another observer, e.g. the energy
/// layer) and then to a fresh [`CoreObserver`], and returns the exact
/// RTT distribution and the closed-loop elapsed sim-time.
pub(crate) fn observed_loop(
    core: &mut CoreSim,
    requests: &[Request],
    tele: &mut Telemetry,
    mut also: impl FnMut(&CoreSim, &RequestTiming, &PhaseBreakdown),
) -> (LatencyHistogram, Duration) {
    let mut observer = CoreObserver::new(&mut tele.metrics);
    let mut latency = LatencyHistogram::new();
    for request in requests {
        let (timing, breakdown) = core.execute_breakdown(request);
        also(core, &timing, &breakdown);
        observer.record(tele, core, request, timing, &breakdown);
        latency.record(timing.rtt);
    }
    tele.sampler.finish(observer.now());
    (latency, observer.now().elapsed_since(SimTime::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CoreSimConfig;
    use densekv_telemetry::TelemetryConfig;
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

    fn fresh_core() -> CoreSim {
        let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).unwrap();
        core.preload(64, 16).unwrap();
        core
    }

    fn enabled_bundle() -> Telemetry {
        Telemetry::enabled(TelemetryConfig {
            sample_every: 8,
            timeline_interval: Duration::from_micros(200),
            timeline_columns: CORE_TIMELINE_COLUMNS.to_vec(),
        })
    }

    #[test]
    fn observed_run_records_spans_metrics_and_rows() {
        let mut core = fresh_core();
        let mut tele = enabled_bundle();
        let latency = run_observed(&mut core, &requests(64), &mut tele);

        assert_eq!(latency.count(), 64);
        assert_eq!(tele.metrics.counter_by_name("core.requests"), Some(64));
        assert_eq!(
            tele.metrics.counter_by_name("core.hits").unwrap()
                + tele.metrics.counter_by_name("core.misses").unwrap(),
            64
        );
        let hist = tele.metrics.histogram_by_name("core.rtt").unwrap();
        assert_eq!(hist.count(), 64);

        // Every 8th request sampled; spans tile their RTTs.
        assert_eq!(tele.tracer.spans().len(), 8);
        for span in tele.tracer.spans() {
            assert_eq!(span.phase_sum(), span.total());
            assert_eq!(span.phases.len(), 11);
        }
        // Spans are contiguous in sim-time: each sampled request's span
        // starts where the closed loop had advanced to.
        assert_eq!(tele.tracer.spans()[0].start, SimTime::ZERO);

        assert!(!tele.sampler.rows().is_empty());
        assert!(tele.sampler.to_csv().starts_with("t_us,kv_hit_rate"));
    }

    #[test]
    fn telemetry_is_passive_for_core_runs() {
        let reqs = requests(48);
        let mut dark_core = fresh_core();
        let mut dark = Telemetry::disabled();
        let baseline = run_observed(&mut dark_core, &reqs, &mut dark);

        let mut lit_core = fresh_core();
        let mut lit = enabled_bundle();
        let observed = run_observed(&mut lit_core, &reqs, &mut lit);

        assert_eq!(baseline.count(), observed.count());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(baseline.percentile(q), observed.percentile(q), "q={q}");
        }
        assert!(dark.tracer.spans().is_empty());
        assert!(!lit.tracer.spans().is_empty());
    }
}
