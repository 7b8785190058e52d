//! Event-driven multi-core stack simulation.
//!
//! Tables 3–4 scale per-core throughput linearly (§5.3) and cap each
//! stack at its 10 GbE port analytically. This module *checks* that
//! shortcut: n cores, each a closed-loop Memcached instance, share one
//! full-duplex 10 GbE wire through the discrete-event scheduler. At small
//! request sizes the wire is idle and scaling is linear; at large sizes
//! responses serialize on the port and aggregate throughput saturates —
//! the crossover the analytic model assumes.

use densekv_net::frame::{wire_bytes_for_payload, MessageSizes};
use densekv_net::PortMeter;
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, Scheduler, SimTime};
use densekv_workload::{FixedSizeWorkload, Op, RequestGenerator};

use crate::sim::{CoreSim, CoreSimConfig};

/// Configuration of a multi-core stack run.
#[derive(Debug, Clone)]
pub struct StackSimConfig {
    /// Per-core configuration (memory device instantiated per core, as
    /// each core owns its ports, §4.1.2).
    pub per_core: CoreSimConfig,
    /// Cores on the stack (1–32).
    pub cores: u32,
    /// Value size, bytes.
    pub value_bytes: u64,
    /// Measured requests per core.
    pub requests_per_core: u32,
    /// Warmup requests per core.
    pub warmup_per_core: u32,
}

impl StackSimConfig {
    /// A GET workload on `cores` Mercury-A7 cores.
    pub fn mercury_a7(cores: u32, value_bytes: u64) -> Self {
        StackSimConfig {
            per_core: CoreSimConfig::mercury_a7(),
            cores,
            value_bytes,
            requests_per_core: 60,
            warmup_per_core: 120,
        }
    }
}

/// Result of a stack run.
#[derive(Debug, Clone)]
pub struct StackSimResult {
    /// Aggregate stack throughput, TPS.
    pub aggregate_tps: f64,
    /// Outbound wire utilization over the measured window.
    pub wire_out_utilization: f64,
    /// Queueing-inclusive RTT distribution across all cores.
    pub latency: LatencyHistogram,
    /// Cores simulated.
    pub cores: u32,
    /// Inbound (request) port meter over the whole run, warmup included.
    pub ingress: PortMeter,
    /// Outbound (response) port meter over the whole run, warmup
    /// included — unlike [`wire_out_utilization`](Self::wire_out_utilization),
    /// which covers only the measured window.
    pub egress: PortMeter,
}

/// A client's next departure.
#[derive(Debug, Clone, Copy)]
struct Departure {
    core: usize,
    seq: u32,
}

/// Runs the event-driven stack simulation.
///
/// # Panics
///
/// Panics on invalid configurations (zero cores, preload failure).
pub fn run(config: &StackSimConfig) -> StackSimResult {
    assert!(config.cores >= 1, "need at least one core");
    let population = 64;
    let mut cores: Vec<CoreSim> = (0..config.cores)
        .map(|_| CoreSim::preloaded(&config.per_core, config.value_bytes, population))
        .collect();
    let mut generators: Vec<FixedSizeWorkload> = (0..config.cores)
        .map(|i| {
            FixedSizeWorkload::new(
                Op::Get,
                config.value_bytes,
                population,
                0xC0DE + u64::from(i),
            )
        })
        .collect();

    let wire = config.per_core.wire;
    let mac = Duration::from_nanos(500);
    let sizes = MessageSizes::get(16, config.value_bytes);
    let req_ser = wire.serialization_time(wire_bytes_for_payload(sizes.request_payload));
    let resp_ser = wire.serialization_time(wire_bytes_for_payload(sizes.response_payload));

    let mut sched: Scheduler<Departure> = Scheduler::new();
    for core in 0..config.cores as usize {
        // Stagger initial departures slightly so cold starts don't pile.
        sched.schedule_in(
            Duration::from_nanos(core as u64 * 200),
            Departure { core, seq: 0 },
        );
    }

    let mut wire_in_free = SimTime::ZERO;
    let mut wire_out_free = SimTime::ZERO;
    let mut latency = LatencyHistogram::new();
    let mut measured = 0u64;
    let mut measure_start: Option<SimTime> = None;
    let mut measure_end = SimTime::ZERO;
    let mut wire_out_busy = Duration::ZERO;
    let mut ingress = PortMeter::default();
    let mut egress = PortMeter::default();
    let req_bytes = wire_bytes_for_payload(sizes.request_payload);
    let resp_bytes = wire_bytes_for_payload(sizes.response_payload);
    let total_per_core = config.warmup_per_core + config.requests_per_core;

    while let Some((depart, event)) = sched.pop() {
        let request = generators[event.core].next_request();
        // Inbound: the shared port serializes requests one at a time.
        let in_start = depart.max(wire_in_free);
        wire_in_free = in_start + req_ser;
        ingress.record_send_bytes(req_ser, req_bytes);
        let at_server = wire_in_free + wire.propagation + mac;
        // The core is idle in a closed loop: service starts on arrival.
        let timing = cores[event.core].execute(&request);
        let done = at_server + timing.server;
        // Outbound: responses contend for the port.
        let out_start = done.max(wire_out_free);
        wire_out_free = out_start + resp_ser;
        egress.record_send_bytes(resp_ser, resp_bytes);
        let at_client = wire_out_free + wire.propagation + mac;

        let in_measurement = event.seq >= config.warmup_per_core;
        if in_measurement {
            latency.record(at_client.elapsed_since(depart));
            measured += 1;
            measure_start.get_or_insert(depart);
            measure_end = measure_end.max(at_client);
            wire_out_busy += resp_ser;
        }
        if event.seq + 1 < total_per_core {
            let next = at_client + config.per_core.client_overhead;
            sched.schedule_at(
                next.max(sched.now()),
                Departure {
                    core: event.core,
                    seq: event.seq + 1,
                },
            );
        }
    }

    let span = measure_end
        .elapsed_since(measure_start.unwrap_or(SimTime::ZERO))
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    StackSimResult {
        aggregate_tps: measured as f64 / span,
        wire_out_utilization: (wire_out_busy.as_secs_f64() / span).min(1.0),
        latency,
        cores: config.cores,
        ingress,
        egress,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_requests_scale_linearly() {
        // §5.3's linear-scaling assumption, checked event-by-event.
        let one = run(&StackSimConfig::mercury_a7(1, 64));
        let eight = run(&StackSimConfig::mercury_a7(8, 64));
        let ratio = eight.aggregate_tps / one.aggregate_tps;
        assert!(
            (6.8..9.2).contains(&ratio),
            "8 cores should give ~8x at 64 B: {ratio:.2}"
        );
        assert!(
            eight.wire_out_utilization < 0.1,
            "64 B leaves the wire idle"
        );
        // Port meters see every frame, warmup included.
        let total = 8 * (120 + 60) as u64;
        assert_eq!(eight.ingress.sends(), total);
        assert_eq!(eight.egress.sends(), total);
        assert!(eight.egress.bytes() > eight.ingress.bytes());
    }

    #[test]
    fn large_responses_saturate_the_wire() {
        let mut one_cfg = StackSimConfig::mercury_a7(1, 256 << 10);
        one_cfg.requests_per_core = 20;
        one_cfg.warmup_per_core = 6;
        let mut many_cfg = StackSimConfig::mercury_a7(16, 256 << 10);
        many_cfg.requests_per_core = 20;
        many_cfg.warmup_per_core = 6;
        let one = run(&one_cfg);
        let many = run(&many_cfg);
        let ratio = many.aggregate_tps / one.aggregate_tps;
        assert!(
            ratio < 12.0,
            "256 KB responses must contend for the port: {ratio:.2}x"
        );
        assert!(
            many.wire_out_utilization > 0.6,
            "outbound port should be near saturation: {:.2}",
            many.wire_out_utilization
        );
    }

    #[test]
    fn queueing_on_the_wire_shows_in_latency() {
        let mut lone = StackSimConfig::mercury_a7(1, 256 << 10);
        lone.requests_per_core = 15;
        lone.warmup_per_core = 5;
        let mut crowded = StackSimConfig::mercury_a7(16, 256 << 10);
        crowded.requests_per_core = 15;
        crowded.warmup_per_core = 5;
        let p50_lone = run(&lone).latency.percentile(0.5).expect("samples");
        let p50_crowded = run(&crowded).latency.percentile(0.5).expect("samples");
        assert!(
            p50_crowded > p50_lone,
            "sharing the wire costs latency: {p50_lone} -> {p50_crowded}"
        );
    }
}
