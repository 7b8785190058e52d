//! Event-driven stack simulation: the workspace's one simulated queue.
//!
//! n cores, each with its own client and FIFO, share one full-duplex
//! 10 GbE port. A client runs a closed loop (TPS = 1/RTT, §5.3) or
//! offers Poisson arrivals that queue at its core: the latency under
//! load behind the paper's sub-millisecond SLA (§4.2). Every wire term
//! comes from the core's own [`crate::sim::PhaseBreakdown`]: a request
//! holds the port for `req_wire − propagation`, a response for
//! `resp_wire − propagation`, and the NIC adds `req_nic` / `resp_nic`.
//! Small requests leave the port idle and scale linearly; large
//! responses serialize on it and saturate the stack — the crossover
//! Tables 3–4's analytic wire cap assumes.

use densekv_net::PortMeter;
use densekv_sim::dist::Exponential;
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, Scheduler, SimTime, SplitMix64};
use densekv_workload::{key_bytes_into, FixedSizeWorkload, Op, MAX_KEY_LEN};

use crate::sim::{CoreSim, CoreSimConfig};

/// How each core's client issues its measured requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// One request outstanding: the next leaves once the client has
    /// handled the previous response.
    Closed,
    /// Poisson arrivals at `rate_per_sec` per core, served FIFO.
    Poisson {
        /// Offered load per core, requests per second.
        rate_per_sec: f64,
    },
}

/// Configuration of a stack run.
#[derive(Debug, Clone)]
pub struct StackSimConfig {
    /// Per-core configuration (memory device instantiated per core, as
    /// each core owns its ports, §4.1.2).
    pub per_core: CoreSimConfig,
    /// Cores on the stack (1–32).
    pub cores: u32,
    /// Value size, bytes.
    pub value_bytes: u64,
    /// How measured requests arrive. Warm-up is always closed-loop.
    pub arrivals: Arrivals,
    /// Fraction of requests that are GETs (the rest are PUTs).
    pub get_fraction: f64,
    /// Keys preloaded into, and drawn from, each core's store.
    pub population: u64,
    /// Measured requests per core.
    pub requests_per_core: u32,
    /// Warm-up requests per core (caches reach steady state).
    pub warmup_per_core: u32,
    /// Core `i` draws arrivals and ops from `seed + i`, GET keys from
    /// `seed + i` and PUT keys from `!(seed + i)`.
    pub seed: u64,
}

impl StackSimConfig {
    /// A closed-loop GET workload on `cores` Mercury-A7 cores.
    pub fn mercury_a7(cores: u32, value_bytes: u64) -> Self {
        StackSimConfig {
            per_core: CoreSimConfig::mercury_a7(),
            cores,
            value_bytes,
            arrivals: Arrivals::Closed,
            get_fraction: 1.0,
            population: 64,
            requests_per_core: 60,
            warmup_per_core: 120,
            seed: 0xC0DE,
        }
    }

    /// GETs arriving at `rate_per_sec` (Poisson) at one `per_core` core.
    pub(crate) fn poisson_gets(
        per_core: CoreSimConfig,
        value_bytes: u64,
        rate_per_sec: f64,
    ) -> Self {
        StackSimConfig {
            per_core,
            cores: 1,
            value_bytes,
            arrivals: Arrivals::Poisson { rate_per_sec },
            get_fraction: 1.0,
            population: 128,
            requests_per_core: 400,
            warmup_per_core: 300,
            seed: 0xA11CE,
        }
    }
}

/// Result of a stack run. Everything but the port meters covers the
/// measured window: from the first measured arrival to the last
/// measured response reaching its client.
#[derive(Debug, Clone)]
pub struct StackSimResult {
    /// Arrival-to-handled-response latency of every measured request.
    pub latency: LatencyHistogram,
    /// Aggregate stack throughput, TPS.
    pub aggregate_tps: f64,
    /// Core time spent serving measured requests, all cores.
    pub busy: Duration,
    /// Core utilization: [`busy`](Self::busy) ÷ (cores × window).
    pub utilization: f64,
    /// Outbound wire utilization.
    pub(crate) wire_out_utilization: f64,
    /// Fraction of measured requests that found their core busy.
    pub queued_fraction: f64,
    /// Inbound (request) port over the whole run, warm-up included.
    pub ingress: PortMeter,
    /// Outbound (response) port over the whole run, warm-up included.
    pub egress: PortMeter,
}

impl StackSimResult {
    /// Fraction of measured responses within 1 ms — the paper's SLA.
    pub fn sla_1ms(&self) -> f64 {
        self.latency.fraction_within(Duration::from_millis(1))
    }
}

/// One core with its client: request streams and FIFO.
struct Client {
    core: CoreSim,
    rng: SplitMix64,
    gets: FixedSizeWorkload,
    puts: FixedSizeWorkload,
    /// When the core can start the next request: the FIFO's head.
    free_at: SimTime,
}

/// Runs the event-driven stack simulation.
///
/// # Panics
///
/// Panics on invalid configurations (zero cores, a non-positive
/// Poisson rate, preload failure).
///
/// # Examples
///
/// ```
/// use densekv::stack_sim::{run, Arrivals, StackSimConfig};
///
/// // One core at 30% of its closed-loop capacity: almost no queueing.
/// let mut config = StackSimConfig::mercury_a7(1, 64);
/// config.arrivals = Arrivals::Poisson { rate_per_sec: 3_000.0 };
/// config.requests_per_core = 100;
/// config.warmup_per_core = 100;
/// assert!(run(&config).sla_1ms() > 0.99);
/// ```
pub fn run(config: &StackSimConfig) -> StackSimResult {
    assert!(config.cores >= 1, "need at least one core");
    let gaps = match config.arrivals {
        Arrivals::Closed => None,
        Arrivals::Poisson { rate_per_sec } => Some(Exponential::from_rate_per_sec(rate_per_sec)),
    };
    let mut clients: Vec<Client> = (0..u64::from(config.cores))
        .map(|i| {
            let seed = config.seed.wrapping_add(i);
            Client {
                core: CoreSim::preloaded(&config.per_core, config.value_bytes, config.population),
                rng: SplitMix64::new(seed),
                gets: FixedSizeWorkload::new(Op::Get, config.value_bytes, config.population, seed),
                puts: FixedSizeWorkload::new(Op::Put, config.value_bytes, config.population, !seed),
                free_at: SimTime::ZERO,
            }
        })
        .collect();

    let warmup = config.warmup_per_core;
    // When request `seq` arrives, given when a closed-loop client would
    // send it and when the previous one arrived. Warm-up is closed-loop;
    // measured Poisson arrivals start one gap after warm-up ends.
    let arrival = |rng: &mut SplitMix64, seq: u32, closed: SimTime, previous: SimTime| match &gaps {
        Some(gaps) if seq >= warmup => {
            (if seq == warmup { closed } else { previous }) + gaps.sample(rng)
        }
        _ => closed,
    };

    // Events are requests leaving their core's FIFO: (core, seq, arrival).
    let mut sched: Scheduler<(usize, u32, SimTime)> = Scheduler::new();
    for (core, client) in clients.iter_mut().enumerate() {
        // Stagger initial departures slightly so cold starts don't pile.
        let at = SimTime::ZERO + Duration::from_nanos(core as u64 * 200);
        let arrival = arrival(&mut client.rng, 0, at, at);
        sched.schedule_at(arrival, (core, 0, arrival));
    }

    let propagation = config.per_core.wire.propagation;
    let mut key = Vec::with_capacity(MAX_KEY_LEN);
    let mut wire_in_free = SimTime::ZERO;
    let mut wire_out_free = SimTime::ZERO;
    let mut ingress = PortMeter::default();
    let mut egress = PortMeter::default();
    let mut latency = LatencyHistogram::new();
    let mut queued = 0u64;
    let mut busy = Duration::ZERO;
    let mut wire_out_busy = Duration::ZERO;
    let mut measure_start: Option<SimTime> = None;
    let mut measure_end = SimTime::ZERO;

    while let Some((start, (core, seq, arrival_at))) = sched.pop() {
        let client = &mut clients[core];
        let (op, id) = if client.rng.next_bool(config.get_fraction) {
            (Op::Get, client.gets.next_key_id())
        } else {
            (Op::Put, client.puts.next_key_id())
        };
        key_bytes_into(id, &mut key);
        let (timing, phases) = client.core.execute_parts(op, &key, config.value_bytes);
        // The FIFO holds the core for the server-side time; the wire and
        // client portions of the round trip overlap the next request.
        client.free_at = start + timing.server;

        // Inbound: the shared port serializes requests one at a time.
        let req_ser = phases.req_wire - propagation;
        wire_in_free = start.max(wire_in_free) + req_ser;
        ingress.record_send(req_ser);
        let done = wire_in_free + propagation + phases.req_nic + timing.server;
        // Outbound: responses contend for the port.
        let resp_ser = phases.resp_wire - propagation;
        wire_out_free = done.max(wire_out_free) + resp_ser;
        egress.record_send(resp_ser);
        let at_client = wire_out_free + propagation + phases.resp_nic;
        let handled = at_client + phases.client_overhead;

        if seq >= warmup {
            latency.record(handled.elapsed_since(arrival_at));
            queued += u64::from(start > arrival_at);
            busy += timing.server;
            wire_out_busy += resp_ser;
            measure_start.get_or_insert(arrival_at);
            measure_end = measure_end.max(at_client);
        }
        if seq + 1 < warmup + config.requests_per_core {
            let arrival = arrival(&mut client.rng, seq + 1, handled, arrival_at);
            sched.schedule_at(arrival.max(client.free_at), (core, seq + 1, arrival));
        }
    }

    let span = measure_end
        .elapsed_since(measure_start.unwrap_or(SimTime::ZERO))
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    StackSimResult {
        aggregate_tps: latency.count() as f64 / span,
        queued_fraction: queued as f64 / latency.count().max(1) as f64,
        latency,
        busy,
        utilization: (busy.as_secs_f64() / (span * f64::from(config.cores))).min(1.0),
        wire_out_utilization: (wire_out_busy.as_secs_f64() / span).min(1.0),
        ingress,
        egress,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The single-core FIFO the Poisson path replaced, kept as its
    /// reference: no port, service starts when the core frees, and a
    /// response takes the whole round trip from there.
    fn fifo_reference(config: &StackSimConfig) -> LatencyHistogram {
        let Arrivals::Poisson { rate_per_sec } = config.arrivals else {
            panic!("the reference is open-loop");
        };
        assert_eq!(config.cores, 1);
        let mut core = CoreSim::preloaded(&config.per_core, config.value_bytes, config.population);
        let arrivals = Exponential::from_rate_per_sec(rate_per_sec);
        let mut rng = SplitMix64::new(config.seed);
        let mut gets =
            FixedSizeWorkload::new(Op::Get, config.value_bytes, config.population, config.seed);
        let mut puts =
            FixedSizeWorkload::new(Op::Put, config.value_bytes, config.population, !config.seed);
        let mut next = |rng: &mut SplitMix64, core: &mut CoreSim| {
            let (op, id) = if rng.next_bool(config.get_fraction) {
                (Op::Get, gets.next_key_id())
            } else {
                (Op::Put, puts.next_key_id())
            };
            let key = densekv_workload::key_bytes(id);
            core.execute_parts(op, &key, config.value_bytes).0
        };
        for _ in 0..config.warmup_per_core {
            next(&mut rng, &mut core);
        }
        let mut now = SimTime::ZERO;
        let mut free_at = SimTime::ZERO;
        let mut latency = LatencyHistogram::new();
        for _ in 0..config.requests_per_core {
            now += arrivals.sample(&mut rng);
            let timing = next(&mut rng, &mut core);
            let start = now.max(free_at);
            free_at = start + timing.server;
            latency.record(start.elapsed_since(now) + timing.rtt);
        }
        latency
    }

    /// Every sample of `h`, smallest first.
    fn ranked(h: &LatencyHistogram) -> Vec<Duration> {
        let n = h.count() as f64;
        (1..=h.count())
            .map(|i| h.percentile((i as f64 - 0.5) / n).expect("samples"))
            .collect()
    }

    /// A Poisson run of 64 B GETs at a fraction of the A7 Mercury core's
    /// closed-loop capacity (~11 KTPS).
    fn at_load(fraction_of_capacity: f64) -> StackSimResult {
        let mut config = StackSimConfig::poisson_gets(
            CoreSimConfig::mercury_a7(),
            64,
            11_000.0 * fraction_of_capacity,
        );
        config.requests_per_core = 300;
        config.warmup_per_core = 200;
        run(&config)
    }

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
        assert!(eight.egress.busy_time() > eight.ingress.busy_time());
        assert_eq!(eight.queued_fraction, 0.0, "a closed loop never queues");
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

    #[test]
    fn port_meters_charge_the_cores_own_wire_terms() {
        // Replay each core's request stream on a core of its own and sum
        // the port time its breakdowns price: the meters must agree to
        // the picosecond, warm-up included.
        let mut config = StackSimConfig::mercury_a7(3, 1024);
        config.get_fraction = 0.8;
        config.requests_per_core = 20;
        config.warmup_per_core = 10;
        let result = run(&config);
        let propagation = config.per_core.wire.propagation;
        let (mut req, mut resp) = (Duration::ZERO, Duration::ZERO);
        for i in 0..u64::from(config.cores) {
            let seed = config.seed + i;
            let mut core =
                CoreSim::preloaded(&config.per_core, config.value_bytes, config.population);
            let mut rng = SplitMix64::new(seed);
            let mut gets = FixedSizeWorkload::new(Op::Get, 1024, config.population, seed);
            let mut puts = FixedSizeWorkload::new(Op::Put, 1024, config.population, !seed);
            for _ in 0..config.warmup_per_core + config.requests_per_core {
                let (op, id) = if rng.next_bool(config.get_fraction) {
                    (Op::Get, gets.next_key_id())
                } else {
                    (Op::Put, puts.next_key_id())
                };
                let key = densekv_workload::key_bytes(id);
                let (_, phases) = core.execute_parts(op, &key, config.value_bytes);
                req += phases.req_wire - propagation;
                resp += phases.resp_wire - propagation;
            }
        }
        assert_eq!(result.ingress.busy_time(), req);
        assert_eq!(result.egress.busy_time(), resp);
    }

    #[test]
    fn light_load_sees_no_queueing() {
        let r = at_load(0.2);
        assert!(r.queued_fraction < 0.3, "queued {}", r.queued_fraction);
        assert!(r.sla_1ms() > 0.99);
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
            r.sla_1ms() < 0.7,
            "overloaded core cannot hold the SLA: {}",
            r.sla_1ms()
        );
        assert!(r.utilization > 0.9);
    }

    #[test]
    fn iridium_sla_depends_on_rate() {
        // The paper's Iridium pitch: moderate-to-low request rates keep
        // flash within the SLA.
        let low = run(&StackSimConfig::poisson_gets(
            CoreSimConfig::iridium_a7(),
            64,
            1_000.0,
        ));
        assert!(
            low.sla_1ms() > 0.95,
            "low-rate Iridium holds: {}",
            low.sla_1ms()
        );
        let high = run(&StackSimConfig::poisson_gets(
            CoreSimConfig::iridium_a7(),
            64,
            8_000.0,
        ));
        assert!(
            high.sla_1ms() < low.sla_1ms(),
            "overdriving flash degrades the SLA"
        );
    }

    #[test]
    fn the_shared_port_only_adds_latency() {
        // A 256 KB response clocks for ~210 us on the port. Where that
        // exceeds the core's service time the port delays responses the
        // FIFO reference never queued; it can never speed one up.
        let mut config =
            StackSimConfig::poisson_gets(CoreSimConfig::mercury_a7(), 256 << 10, 600.0);
        config.requests_per_core = 40;
        config.warmup_per_core = 5;
        let result = run(&config);
        let reference = fifo_reference(&config);
        let (ours, theirs) = (ranked(&result.latency), ranked(&reference));
        assert_eq!(ours.len(), theirs.len());
        assert!(ours.iter().zip(&theirs).all(|(a, b)| a >= b));
    }

    #[test]
    fn four_poisson_cores_share_an_idle_port() {
        // 64 B on four cores at 60% load each: every core's latency is
        // its own FIFO's plus what the shared port adds, which at this
        // size is next to nothing.
        let mut config = StackSimConfig::poisson_gets(CoreSimConfig::mercury_a7(), 64, 6_600.0);
        config.cores = 4;
        config.requests_per_core = 100;
        config.warmup_per_core = 50;
        let result = run(&config);
        let mut reference = LatencyHistogram::new();
        for i in 0..4 {
            let mut one = config.clone();
            one.cores = 1;
            one.seed += i;
            reference.merge(&fifo_reference(&one));
        }
        let (ours, theirs) = (ranked(&result.latency), ranked(&reference));
        assert_eq!(ours.len(), 400);
        assert!(ours.iter().zip(&theirs).all(|(a, b)| a >= b));
        let added = result.latency.mean() - reference.mean();
        assert!(
            added < reference.mean() / 100,
            "the port adds {added} to a {} mean",
            reference.mean()
        );
        assert_eq!(result.ingress.sends(), 4 * 150);
    }

    proptest! {
        /// Where a core spends far longer on a request than the port
        /// does clocking it, the port never moves a start time: one
        /// Poisson core sees exactly the FIFO reference's latencies.
        #[test]
        fn one_poisson_core_matches_the_fifo_reference(
            seed in any::<u64>(),
            load_percent in 10u32..150,
            get_percent in 0u32..=100,
            value_bytes in 64u64..=4096,
        ) {
            // Closed-loop capacity, read as requests ÷ core busy time.
            let mut probe = StackSimConfig::mercury_a7(1, value_bytes);
            probe.get_fraction = f64::from(get_percent) / 100.0;
            probe.population = 128;
            probe.seed = seed;
            probe.requests_per_core = 40;
            probe.warmup_per_core = 0;
            let capacity = 40.0 / run(&probe).busy.as_secs_f64();

            let mut config = probe;
            let rate_per_sec = capacity * f64::from(load_percent) / 100.0;
            config.arrivals = Arrivals::Poisson { rate_per_sec };
            config.requests_per_core = 120;
            config.warmup_per_core = 40;
            let result = run(&config);
            let reference = fifo_reference(&config);
            prop_assert_eq!(ranked(&result.latency), ranked(&reference));
            prop_assert_eq!(result.latency.mean(), reference.mean());
        }
    }
}
