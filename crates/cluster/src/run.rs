//! The cluster-scale discrete-event engine.
//!
//! N stacks × M cores sit on a [`ConsistentHashRing`] (one DHT node per
//! core, the paper's §3.8 deployment model). An open-loop Poisson client
//! population issues logical requests whose keys follow a Zipf
//! popularity law; every key routes through the ring to its owning
//! core's FIFO queue, and each stack's cores share one full-duplex
//! 10 GbE port whose serialization contends exactly as in the
//! single-stack simulator. A logical multiget completes only when its
//! *slowest* shard replies — the tail-at-scale amplification the paper's
//! §5.3 per-stack analysis does not model.
//!
//! Fault injection: at a scheduled simulated time the configured stacks
//! die, their ring arcs remap via `remove_node`, and remapped keys
//! cold-miss on their new owners until a read-through fill re-warms
//! them — producing a timed miss-rate/latency recovery curve instead of
//! a static blast-radius number.
//!
//! Observability: [`run_with_telemetry`] threads a passive
//! [`Telemetry`] bundle through the run — per-request phase spans for
//! sampled requests, counters/histograms in the metrics registry, and
//! fixed-interval gauge snapshots ([`TIMELINE_COLUMNS`]). [`run`] is
//! the same engine with a disabled bundle; the two produce bit-identical
//! results, which the workspace property tests enforce.

use std::sync::{Arc, Mutex, PoisonError};

use densekv_dht::ConsistentHashRing;
use densekv_energy::PowerTimeline;
use densekv_net::PortMeter;
use densekv_sim::dist::{Exponential, Zipf};
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, Scheduler, SimTime, SplitMix64};
use densekv_telemetry::{BucketedTimeline, SpanBuilder, Telemetry};

use crate::config::ClusterConfig;

/// Gauge columns [`run_with_telemetry`] keeps current in the bundle's
/// [`TimelineSampler`](densekv_telemetry::TimelineSampler); build the
/// sampler with exactly these columns.
pub const TIMELINE_COLUMNS: &[&str] = &[
    "sched_backlog",
    "hit_rate",
    "max_ingress_util",
    "max_egress_util",
    "cluster_watts",
    "live_stacks",
];

/// Events driving the cluster simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The `seq`-th logical request leaves its client.
    Arrival { seq: u32 },
    /// The configured stacks die.
    Fail,
}

/// What the injected fault did to the ring.
#[derive(Debug, Clone)]
pub struct RemapEvent {
    /// When the stacks died.
    pub at: SimTime,
    /// The stacks killed, each once, in plan order.
    pub killed: Vec<u32>,
    /// Ring nodes removed (distinct killed stacks × cores per stack).
    pub nodes_removed: u32,
    /// Exact fraction of the key population whose owner changed —
    /// computed over every key, so tests can compare it against the
    /// sampled [`densekv_dht::remapped_fraction`].
    pub key_fraction_remapped: f64,
}

/// Energy accounting of one stack over a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackEnergy {
    /// Constant-draw joules while the stack was alive.
    pub static_j: f64,
    /// Activity joules (per-operation memory traffic).
    pub dynamic_j: f64,
    /// How long the stack drew power (until its death or the end of the
    /// run, whichever came first).
    pub alive: Duration,
}

impl StackEnergy {
    /// Total joules this stack consumed.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.static_j + self.dynamic_j
    }
}

/// Cluster-wide energy accounting, filled when the configuration
/// carries a [`ClusterEnergyModel`](crate::config::ClusterEnergyModel).
#[derive(Debug, Clone)]
pub struct ClusterEnergy {
    /// Per-stack joules, indexed by stack id.
    pub per_stack: Vec<StackEnergy>,
    /// Cluster watts vs sim-time (static spans stop at each stack's
    /// death, which is where the failover power transient shows up).
    pub timeline: PowerTimeline,
}

impl ClusterEnergy {
    /// Total cluster joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.per_stack.iter().map(StackEnergy::total_j).sum()
    }

    /// Peak bucket power on the timeline, watts.
    #[must_use]
    pub fn peak_watts(&self) -> f64 {
        self.timeline.peak_watts()
    }

    /// Mean joules per completed logical request.
    #[must_use]
    pub fn j_per_op(&self, measured: u64) -> f64 {
        if measured > 0 {
            self.total_j() / measured as f64
        } else {
            0.0
        }
    }
}

/// Result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Logical-request (fan-out-complete) latency distribution.
    pub latency: LatencyHistogram,
    /// Per-shard latency distribution.
    pub shard_latency: LatencyHistogram,
    /// Shard GETs served from a warm key.
    pub shard_hits: u64,
    /// Shard GETs that cold-missed (unwarmed or remapped keys).
    pub shard_misses: u64,
    /// Logical requests dropped because the ring was empty.
    pub dropped: u64,
    /// Logical requests measured.
    pub measured: u64,
    /// Offered load, logical requests/second.
    pub offered_rate: f64,
    /// Completed logical requests ÷ measurement span.
    pub throughput_tps: f64,
    /// Busiest core's busy-time share of the simulated span.
    pub peak_core_utilization: f64,
    /// Completion timeline (bucket width from the configuration).
    pub timeline: BucketedTimeline,
    /// Per-stack ingress-port busy accounting (requests serialized in).
    pub ingress: Vec<PortMeter>,
    /// Per-stack egress-port busy accounting (responses serialized out).
    pub egress: Vec<PortMeter>,
    /// Fault outcome, when a [`FaultPlan`](crate::FaultPlan) ran.
    pub remap: Option<RemapEvent>,
    /// Energy accounting, when the configuration carries a
    /// [`ClusterEnergyModel`](crate::config::ClusterEnergyModel).
    pub energy: Option<ClusterEnergy>,
}

impl ClusterResult {
    /// Overall shard-level hit rate.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.shard_hits + self.shard_misses;
        if total == 0 {
            1.0
        } else {
            self.shard_hits as f64 / total as f64
        }
    }
}

/// Builds the configured ring: one node per core of every stack.
fn build_ring(config: &ClusterConfig) -> ConsistentHashRing {
    let topo = config.topology;
    let mut ring = ConsistentHashRing::new(topo.vnodes);
    for stack in 0..topo.stacks {
        for core in 0..topo.cores_per_stack {
            ring.add_node(topo.node_id(stack, core));
        }
    }
    ring
}

/// The Zipf table of `population` keys at exponent `alpha`, built once
/// and shared until another `(population, alpha)` asks.
///
/// A sweep runs the same popularity law point after point, and at 1 M
/// keys the table costs tens of milliseconds and 24 MB to build — more
/// than a short run itself. One entry process-wide, not one per
/// configuration: configs that differ only in load or batch share the
/// table, and a caller alternating two populations holds one table at a
/// time. The build runs under the lock, so parallel runs asking for the
/// same key build it once.
fn popularity(population: u64, alpha: f64) -> Arc<Zipf> {
    static MEMO: Mutex<Option<(u64, u64, Arc<Zipf>)>> = Mutex::new(None);
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    match &*memo {
        Some((p, a, zipf)) if *p == population && *a == alpha.to_bits() => Arc::clone(zipf),
        _ => {
            // Drop the old table before building its replacement.
            *memo = None;
            let zipf = Arc::new(Zipf::new(population as usize, alpha));
            *memo = Some((population, alpha.to_bits(), Arc::clone(&zipf)));
            zipf
        }
    }
}

/// Expected per-shard traffic share of the *busiest* core: each key's
/// Zipf probability mass, summed over the core that owns it.
///
/// With skewed popularity this is far above the fair share `1/nodes` —
/// the hottest rank alone carries `~1/H(n)` of all traffic and lands on
/// a single core, so a partitioned cluster saturates long before its
/// aggregate capacity.
#[must_use]
pub(crate) fn hot_core_share(config: &ClusterConfig) -> f64 {
    let ring = build_ring(config);
    let zipf = popularity(config.workload.key_population, config.workload.zipf_alpha);
    let mut share = vec![0.0f64; config.topology.nodes() as usize];
    for key in 0..config.workload.key_population {
        if let Some(owner) = ring.node_for(&key.to_le_bytes()) {
            share[owner as usize] += zipf.pmf(key as usize);
        }
    }
    share.iter().copied().fold(0.0f64, f64::max)
}

/// The offered load (logical requests/second) at which the hottest core
/// saturates, assuming every access hits. This — not the cluster-wide
/// `nodes / hit_service` — is the meaningful upper bound of
/// the load axis: beyond it the hot core's queue diverges while the
/// rest of the cluster idles.
#[must_use]
pub fn effective_capacity(config: &ClusterConfig) -> f64 {
    let batch = f64::from(config.workload.multiget_batch.max(1));
    1.0 / (config.profile.hit_service.as_secs_f64() * hot_core_share(config) * batch)
}

/// Reusable struct-of-arrays scratch for one logical request's shard
/// legs: the routing pass fills the parallel vectors, the timing pass
/// walks them in leg order. Reused across arrivals, so steady-state
/// fan-out allocates nothing regardless of batch size.
#[derive(Default)]
struct LegScratch {
    /// Sampled key per routable leg.
    keys: Vec<u64>,
    /// Owning ring node per leg.
    owners: Vec<u32>,
    /// Stack housing the owner, per leg.
    stacks: Vec<u32>,
}

impl LegScratch {
    fn clear(&mut self) {
        self.keys.clear();
        self.owners.clear();
        self.stacks.clear();
    }

    fn push(&mut self, key: u64, owner: u32, stack: u32) {
        self.keys.push(key);
        self.owners.push(owner);
        self.stacks.push(stack);
    }
}

/// How many arrivals' draws [`Draws`] makes ahead of the event loop:
/// enough to keep many table misses in flight, with buffers of a few KB.
const DRAW_BLOCK: u32 = 64;

/// A run's random draws, made a block of arrivals ahead.
///
/// The RNG stream is consumed in an order no simulation state can
/// change: the first gap, then, for each arrival `s`, the gap to arrival
/// `s + 1` (none after the last) and its batch of Zipf ranks — unroutable
/// keys included, and the fault draws nothing. Drawing a block at a time
/// changes when the numbers are drawn, never which. Each Zipf rank reads
/// one random slot of an alias table far larger than the cache; in one
/// tight loop of independent loads those misses overlap, where the event
/// loop would take them one after another.
struct Draws {
    rng: SplitMix64,
    arrivals: Exponential,
    zipf: Arc<Zipf>,
    /// Keys per arrival.
    batch: usize,
    /// Arrivals in the run.
    total: u32,
    /// The gap before arrival 0, `None` for a run without arrivals.
    first_gap: Option<Duration>,
    /// First arrival held in the buffers.
    start: u32,
    /// Gap to the next arrival, per buffered arrival that has one.
    gaps: Vec<Duration>,
    /// `batch` Zipf ranks per buffered arrival.
    keys: Vec<u64>,
}

impl Draws {
    fn new(config: &ClusterConfig, total: u32) -> Self {
        let mut rng = SplitMix64::new(config.seed);
        let arrivals = Exponential::from_rate_per_sec(config.workload.rate_per_sec);
        let first_gap = (total > 0).then(|| arrivals.sample(&mut rng));
        let batch = config.workload.multiget_batch as usize;
        Draws {
            rng,
            arrivals,
            zipf: popularity(config.workload.key_population, config.workload.zipf_alpha),
            batch,
            total,
            first_gap,
            start: 0,
            gaps: Vec::with_capacity(DRAW_BLOCK as usize),
            keys: Vec::with_capacity(DRAW_BLOCK as usize * batch),
        }
    }

    /// Arrival `seq`'s gap to the next arrival (`None` for the last) and
    /// its keys. Arrivals must be asked for in order.
    fn arrival(&mut self, seq: u32) -> (Option<Duration>, &[u64]) {
        let held = (self.keys.len() / self.batch) as u32;
        if seq == self.start + held {
            self.fill(seq);
        }
        let i = (seq - self.start) as usize;
        (
            self.gaps.get(i).copied(),
            &self.keys[i * self.batch..(i + 1) * self.batch],
        )
    }

    /// Draws arrivals `start..` for one block, in stream order.
    fn fill(&mut self, start: u32) {
        self.start = start;
        self.gaps.clear();
        self.keys.clear();
        for seq in start..start + DRAW_BLOCK.min(self.total - start) {
            if seq + 1 < self.total {
                self.gaps.push(self.arrivals.sample(&mut self.rng));
            }
            for _ in 0..self.batch {
                self.keys.push(self.zipf.sample(&mut self.rng) as u64);
            }
        }
    }

    /// The reference: the whole run drawn up front, one arrival at a
    /// time in the event loop's order — gap, then keys — so `fill` never
    /// runs.
    #[cfg(test)]
    fn drawn_per_arrival(config: &ClusterConfig, total: u32) -> Self {
        let mut draws = Draws::new(config, total);
        for seq in 0..total {
            if seq + 1 < total {
                draws.gaps.push(draws.arrivals.sample(&mut draws.rng));
            }
            for _ in 0..draws.batch {
                draws.keys.push(draws.zipf.sample(&mut draws.rng) as u64);
            }
        }
        draws
    }
}

/// The core on which each key is warm.
///
/// An entry of zero means "warm on the owner the initial ring gives it";
/// any other entry is `owner + 1` for an explicitly recorded owner. The
/// map is allocated zeroed, so a run pays nothing for its key population
/// up front. Until the fault the ring is the initial ring, so an
/// untouched key is warm on its current owner and hits by construction.
/// The fault handler, which already visits every key for the exact blast
/// radius, records each untouched key's pre-fault owner ([`settle`]); after
/// it no entry is zero, and a key hits only where it was recorded.
///
/// [`settle`]: WarmKeys::settle
struct WarmKeys(Vec<u32>);

impl WarmKeys {
    fn lazy(population: u64) -> Self {
        WarmKeys(vec![0; population as usize])
    }

    /// The preload the zeroed map replaced: every key's initial owner
    /// recorded before the first arrival. The differential tests'
    /// reference.
    #[cfg(test)]
    fn eager(ring: &ConsistentHashRing, population: u64) -> Self {
        WarmKeys(
            (0..population)
                .map(|key| {
                    ring.node_for(&key.to_le_bytes())
                        .map_or(0, |owner| owner + 1)
                })
                .collect(),
        )
    }

    /// Whether `key` is warm on ring node `owner`.
    fn is_warm_on(&self, key: u64, owner: u32) -> bool {
        let recorded = self.0[key as usize];
        recorded == 0 || recorded == owner + 1
    }

    /// Records that `key` is now warm on `owner` (a read-through fill).
    fn warm_on(&mut self, key: u64, owner: u32) {
        self.0[key as usize] = owner + 1;
    }

    /// At the fault, before the ring changes hands: makes `key`'s
    /// implicit owner, `initial`, explicit.
    fn settle(&mut self, key: u64, initial: u32) {
        let recorded = &mut self.0[key as usize];
        if *recorded == 0 {
            *recorded = initial + 1;
        }
    }
}

/// Per-run mutable state of the cluster's shared resources.
struct ClusterState {
    ring: ConsistentHashRing,
    /// When each core's FIFO queue drains.
    core_free: Vec<SimTime>,
    /// Accumulated busy time per core.
    core_busy: Vec<Duration>,
    /// When each stack's shared ingress port frees.
    stack_in_free: Vec<SimTime>,
    /// When each stack's shared egress port frees.
    stack_out_free: Vec<SimTime>,
    /// Core on which each key is currently warm.
    warm: WarmKeys,
}

/// Runs the cluster simulation with telemetry off.
///
/// Deterministic: two runs with the same configuration (including seed)
/// produce identical results.
///
/// # Panics
///
/// Panics on invalid configurations: zero stacks/cores/keys, a
/// non-positive rate, or a fault plan naming a stack outside the
/// topology.
pub fn run(config: &ClusterConfig) -> ClusterResult {
    run_with_telemetry(config, &mut Telemetry::disabled())
}

/// Runs the cluster simulation, recording into `tele` as it goes.
///
/// Telemetry is passive: for any bundle (enabled, disabled, any sample
/// rate) the returned [`ClusterResult`] is bit-identical to [`run`]'s.
/// The bundle collects:
///
/// * **Metrics** — `cluster.requests`, `cluster.dropped`,
///   `cluster.shard.hits`, `cluster.shard.misses` counters and
///   `cluster.rtt` / `cluster.shard.rtt` latency histograms, plus the
///   scheduler's lifetime [`QueueStats`](densekv_sim::QueueStats) as
///   `cluster.sched.*` counters at the end of the run.
/// * **Spans** — for every sampled logical request (the tracer's
///   every-Nth rule over arrival sequence numbers), one span per shard
///   leg (pid = stack + 1, tid = owning core) whose phases tile the
///   leg's latency — ingress wait, request wire, link, queue, service,
///   egress wait, response wire, link — plus one logical span (pid 0)
///   covering fan-out and client overhead.
/// * **Sampler rows** — the [`TIMELINE_COLUMNS`] gauges at the bundle's
///   configured interval.
///
/// # Panics
///
/// As [`run`].
pub fn run_with_telemetry(config: &ClusterConfig, tele: &mut Telemetry) -> ClusterResult {
    let warm = WarmKeys::lazy(config.workload.key_population);
    simulate(config, tele, warm, Draws::new)
}

/// The eager-preload reference: [`run`] with every key's initial owner
/// written before the first arrival.
#[cfg(test)]
fn run_eager_reference(config: &ClusterConfig) -> ClusterResult {
    let warm = WarmKeys::eager(&build_ring(config), config.workload.key_population);
    simulate(config, &mut Telemetry::disabled(), warm, Draws::new)
}

/// The drawn-ahead reference: [`run`] with every draw made in the
/// event loop's order, one arrival at a time.
#[cfg(test)]
fn run_drawn_per_arrival(config: &ClusterConfig) -> ClusterResult {
    let warm = WarmKeys::lazy(config.workload.key_population);
    simulate(
        config,
        &mut Telemetry::disabled(),
        warm,
        Draws::drawn_per_arrival,
    )
}

fn simulate(
    config: &ClusterConfig,
    tele: &mut Telemetry,
    warm: WarmKeys,
    draws: fn(&ClusterConfig, u32) -> Draws,
) -> ClusterResult {
    let topo = config.topology;
    assert!(topo.stacks >= 1, "need at least one stack");
    assert!(
        topo.cores_per_stack >= 1,
        "need at least one core per stack"
    );
    assert!(config.workload.rate_per_sec > 0.0, "rate must be positive");
    assert!(config.workload.key_population > 0, "need at least one key");
    assert!(config.workload.multiget_batch >= 1, "batch must be >= 1");
    if let Some(fault) = &config.fault {
        for &s in &fault.kill_stacks {
            assert!(s < topo.stacks, "fault plan kills unknown stack {s}");
        }
    }
    let total = config
        .warmup
        .checked_add(config.requests)
        .expect("warmup + requests overflows u32");
    let mut draws = draws(config, total);

    let requests_ctr = tele.metrics.counter("cluster.requests");
    let dropped_ctr = tele.metrics.counter("cluster.dropped");
    let hits_ctr = tele.metrics.counter("cluster.shard.hits");
    let misses_ctr = tele.metrics.counter("cluster.shard.misses");
    let rtt_hist = tele.metrics.histogram("cluster.rtt");
    let shard_rtt_hist = tele.metrics.histogram("cluster.shard.rtt");

    // Every key starts warm on its initial owner, mirroring the
    // closed-loop simulators' untimed preload; `WarmKeys` keeps that
    // implicit until the fault.
    let ring = build_ring(config);
    let population = config.workload.key_population;

    let nodes = topo.nodes() as usize;
    let mut state = ClusterState {
        ring,
        core_free: vec![SimTime::ZERO; nodes],
        core_busy: vec![Duration::ZERO; nodes],
        stack_in_free: vec![SimTime::ZERO; topo.stacks as usize],
        stack_out_free: vec![SimTime::ZERO; topo.stacks as usize],
        warm,
    };
    let mut ingress = vec![PortMeter::new(); topo.stacks as usize];
    let mut egress = vec![PortMeter::new(); topo.stacks as usize];

    // Energy accounting (when configured) is derived purely from event
    // data the engine already computes, so it can never perturb the
    // simulation itself.
    let energy_model = config.energy.clone();
    let mut dynamic_j = vec![0.0f64; topo.stacks as usize];
    let mut power_tl = match &energy_model {
        Some(m) => PowerTimeline::enabled(m.timeline_bucket),
        None => PowerTimeline::disabled(),
    };
    let mut stack_death: Vec<Option<SimTime>> = vec![None; topo.stacks as usize];
    let mut live_stacks = topo.stacks;

    let mut sched: Scheduler<Event> = Scheduler::new();
    if let Some(gap) = draws.first_gap {
        sched.schedule_in(gap, Event::Arrival { seq: 0 });
    }
    if let Some(fault) = &config.fault {
        sched.schedule_at(fault.at, Event::Fail);
    }

    let profile = &config.profile;
    let mut latency = LatencyHistogram::new();
    let mut shard_latency = LatencyHistogram::new();
    let mut shard_hits = 0u64;
    let mut shard_misses = 0u64;
    let mut dropped = 0u64;
    let mut measured = 0u64;
    let mut measure_start: Option<SimTime> = None;
    let mut measure_end = SimTime::ZERO;
    let mut sim_end = SimTime::ZERO;
    let mut timeline = BucketedTimeline::new(config.timeline_bucket);
    let mut remap: Option<RemapEvent> = None;
    let mut legs = LegScratch::default();

    while let Some((now, event)) = sched.pop() {
        tele.sampler.advance(now);
        match event {
            Event::Fail => {
                let fault = config.fault.as_ref().expect("Fail implies a plan");
                let before = state.ring.clone();
                let mut killed: Vec<u32> = Vec::new();
                for &stack in &fault.kill_stacks {
                    if !killed.contains(&stack) {
                        killed.push(stack);
                        for core in 0..topo.cores_per_stack {
                            state.ring.remove_node(topo.node_id(stack, core));
                        }
                    }
                }
                // Exact blast radius over the whole key population; the
                // same pass makes every key's pre-fault owner explicit.
                let mut moved = 0u64;
                for key in 0..population {
                    let kb = key.to_le_bytes();
                    let owner = before.node_for(&kb);
                    if owner != state.ring.node_for(&kb) {
                        moved += 1;
                    }
                    if let Some(owner) = owner {
                        state.warm.settle(key, owner);
                    }
                }
                // Dead stacks stop drawing power from this instant.
                for &stack in &killed {
                    stack_death[stack as usize] = Some(now);
                }
                live_stacks -= killed.len() as u32;
                remap = Some(RemapEvent {
                    at: now,
                    killed,
                    nodes_removed: (before.node_count() - state.ring.node_count()) as u32,
                    key_fraction_remapped: moved as f64 / population as f64,
                });
            }
            Event::Arrival { seq } => {
                let (gap, keys) = draws.arrival(seq);
                if let Some(gap) = gap {
                    sched.schedule_in(gap, Event::Arrival { seq: seq + 1 });
                }
                // Routing pass: resolve the drawn keys' owners — the
                // ring lookup is pure, so splitting it from the timing
                // pass below reorders nothing. It stays here, not in
                // `Draws`, because the ring changes at the fault.
                // Unroutable keys drop out here.
                legs.clear();
                for &key in keys {
                    if let Some(owner) = state.ring.node_for(&key.to_le_bytes()) {
                        legs.push(key, owner, topo.stack_of(owner));
                    }
                }

                let in_measurement = seq >= config.warmup;
                let traced = tele.tracer.samples(u64::from(seq));
                let mut slowest: Option<SimTime> = None;
                let mut batch_hits = 0u64;
                let mut batch_misses = 0u64;
                // Timing pass: walk the legs in arrival order, mutating
                // the shared ports/queues exactly as the single-pass
                // loop did.
                for leg in 0..legs.keys.len() {
                    let (key, owner) = (legs.keys[leg], legs.owners[leg]);
                    let stack = legs.stacks[leg] as usize;

                    // Ingress: the stack's shared port serializes
                    // requests one at a time.
                    let in_start = now.max(state.stack_in_free[stack]);
                    state.stack_in_free[stack] = in_start + profile.req_wire;
                    let at_server = state.stack_in_free[stack] + profile.link_delay;
                    ingress[stack].record_send(profile.req_wire);

                    // The owning core's FIFO queue.
                    let hit = state.warm.is_warm_on(key, owner);
                    let service = if hit {
                        profile.hit_service
                    } else {
                        profile.miss_service
                    };
                    let svc_start = at_server.max(state.core_free[owner as usize]);
                    let svc_end = svc_start + service;
                    // A cold miss triggers a read-through fill: the core
                    // stays busy re-warming the key after the miss reply
                    // leaves, delaying *later* requests.
                    let busy_until = if hit {
                        svc_end
                    } else {
                        state.warm.warm_on(key, owner);
                        svc_end + profile.fill_service
                    };
                    state.core_busy[owner as usize] += busy_until.elapsed_since(svc_start);
                    state.core_free[owner as usize] = busy_until;

                    // Egress: responses contend for the stack's port.
                    let out_start = svc_end.max(state.stack_out_free[stack]);
                    state.stack_out_free[stack] = out_start + profile.resp_wire;
                    let at_client = state.stack_out_free[stack] + profile.link_delay;
                    egress[stack].record_send(profile.resp_wire);

                    if let Some(m) = &energy_model {
                        let op_j = if hit { m.hit_j } else { m.miss_j };
                        dynamic_j[stack] += op_j;
                        power_tl.deposit(svc_end, op_j);
                        if !hit {
                            // The read-through fill burns memory energy
                            // while the core re-warms the key.
                            dynamic_j[stack] += m.fill_j;
                            power_tl.deposit(busy_until, m.fill_j);
                        }
                    }

                    if traced {
                        let mut b = SpanBuilder::new(
                            u64::from(seq),
                            if hit { "shard-hit" } else { "shard-miss" },
                            stack as u32 + 1,
                            owner,
                            now,
                        );
                        b.phase_at("ingress-wait", now, in_start)
                            .phase("req-wire", profile.req_wire)
                            .phase("req-link", profile.link_delay)
                            .phase_at("queue", at_server, svc_start)
                            .phase("service", service)
                            .phase_at("egress-wait", svc_end, out_start)
                            .phase("resp-wire", profile.resp_wire)
                            .phase("resp-link", profile.link_delay);
                        tele.tracer.push(b.build());
                    }

                    slowest = Some(slowest.map_or(at_client, |s| s.max(at_client)));
                    if in_measurement {
                        if hit {
                            batch_hits += 1;
                        } else {
                            batch_misses += 1;
                        }
                        let shard_rtt = at_client.elapsed_since(now);
                        shard_latency.record(shard_rtt);
                        tele.metrics.observe(shard_rtt_hist, shard_rtt);
                    }
                }

                let Some(last_shard) = slowest else {
                    // Ring empty (every stack dead): the request is lost.
                    if in_measurement {
                        dropped += 1;
                        tele.metrics.inc(dropped_ctr, 1);
                    }
                    continue;
                };
                let complete = last_shard + profile.client_overhead;
                sim_end = sim_end.max(complete);
                if traced {
                    let mut b = SpanBuilder::new(u64::from(seq), "request", 0, 0, now);
                    b.phase_at("fan-out", now, last_shard)
                        .phase("client-overhead", profile.client_overhead);
                    tele.tracer.push(b.build());
                }
                if in_measurement {
                    shard_hits += batch_hits;
                    shard_misses += batch_misses;
                    let response = complete.elapsed_since(now);
                    latency.record(response);
                    measured += 1;
                    measure_start.get_or_insert(now);
                    measure_end = measure_end.max(complete);

                    tele.metrics.inc(requests_ctr, 1);
                    tele.metrics.inc(hits_ctr, batch_hits);
                    tele.metrics.inc(misses_ctr, batch_misses);
                    tele.metrics.observe(rtt_hist, response);

                    // Shard hits/misses are attributed to the logical
                    // request's completion bucket; at realistic widths
                    // that differs from the shard's own bucket by at
                    // most one.
                    timeline.record(complete, response, batch_hits, batch_misses);
                }
            }
        }

        if tele.sampler.is_enabled() {
            let total = shard_hits + shard_misses;
            let hit_rate = if total == 0 {
                1.0
            } else {
                shard_hits as f64 / total as f64
            };
            let max_util = |meters: &[PortMeter]| {
                meters
                    .iter()
                    .map(|m| m.utilization(now))
                    .fold(0.0f64, f64::max)
            };
            tele.sampler.set(0, sched.pending() as f64);
            tele.sampler.set(1, hit_rate);
            tele.sampler.set(2, max_util(&ingress));
            tele.sampler.set(3, max_util(&egress));
            if tele.sampler.columns().len() >= 6 {
                // Cluster power gauge: live static draw plus the run's
                // mean dynamic power so far. Zero without an energy
                // model; the static term drops stepwise at stack death.
                let watts = energy_model.as_ref().map_or(0.0, |m| {
                    let secs = now.elapsed_since(SimTime::ZERO).as_secs_f64();
                    let dyn_w = if secs > 0.0 {
                        dynamic_j.iter().sum::<f64>() / secs
                    } else {
                        0.0
                    };
                    f64::from(live_stacks) * m.stack_static_w + dyn_w
                });
                tele.sampler.set(4, watts);
                tele.sampler.set(5, f64::from(live_stacks));
            }
        }
    }
    tele.sampler.finish(sim_end);
    let queue_stats = sched.stats();
    let pushed = tele.metrics.counter("cluster.sched.pushed");
    let popped = tele.metrics.counter("cluster.sched.popped");
    let peak = tele.metrics.counter("cluster.sched.peak_backlog");
    tele.metrics.inc(pushed, queue_stats.pushed);
    tele.metrics.inc(popped, queue_stats.popped);
    tele.metrics.inc(peak, queue_stats.peak_len as u64);

    let span = measure_end
        .elapsed_since(measure_start.unwrap_or(SimTime::ZERO))
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    let full_span = sim_end
        .elapsed_since(SimTime::ZERO)
        .as_secs_f64()
        .max(f64::MIN_POSITIVE);
    let peak_core_utilization = state
        .core_busy
        .iter()
        .map(|b| b.as_secs_f64() / full_span)
        .fold(0.0f64, f64::max)
        .min(1.0);

    // Settle the static power spans: every stack draws its constant
    // watts from the epoch until its death or the end of the run.
    let energy = energy_model.map(|m| {
        let per_stack: Vec<StackEnergy> = (0..topo.stacks as usize)
            .map(|s| {
                let alive_until = stack_death[s].map_or(sim_end, |d| d.min(sim_end));
                let alive = alive_until.elapsed_since(SimTime::ZERO);
                power_tl.deposit_span(SimTime::ZERO, alive_until, m.stack_static_w);
                StackEnergy {
                    static_j: m.stack_static_w * alive.as_secs_f64(),
                    dynamic_j: dynamic_j[s],
                    alive,
                }
            })
            .collect();
        ClusterEnergy {
            per_stack,
            timeline: power_tl,
        }
    });

    // Sorted once here, every percentile a caller asks for is an index.
    latency.sort();
    shard_latency.sort();
    ClusterResult {
        latency,
        shard_latency,
        shard_hits,
        shard_misses,
        dropped,
        measured,
        offered_rate: config.workload.rate_per_sec,
        throughput_tps: measured as f64 / span,
        peak_core_utilization,
        timeline,
        ingress,
        egress,
        remap,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterWorkload, FaultPlan, ServiceProfile};
    use densekv_telemetry::TelemetryConfig;

    fn quick(rate_frac: f64) -> ClusterConfig {
        let profile = ServiceProfile::synthetic();
        let mut config = ClusterConfig::new(profile, 0.0);
        config.workload.rate_per_sec = rate_frac * config.hit_capacity();
        config.requests = 2_000;
        config.warmup = 500;
        config
    }

    #[test]
    fn same_seed_same_result() {
        let config = quick(0.5);
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a.measured, b.measured);
        assert_eq!(a.shard_hits, b.shard_hits);
        assert_eq!(a.shard_misses, b.shard_misses);
        assert_eq!(a.latency.percentile(0.50), b.latency.percentile(0.50));
        assert_eq!(a.latency.percentile(0.99), b.latency.percentile(0.99));
        assert_eq!(a.timeline.len(), b.timeline.len());
    }

    #[test]
    fn different_seed_different_arrivals() {
        let config = quick(0.5);
        let mut other = config.clone();
        other.seed ^= 0xDEAD_BEEF;
        let a = run(&config);
        let b = run(&other);
        // Percentiles jitter; identical p99s across independent Poisson
        // processes would mean the seed is being ignored.
        assert_ne!(a.latency.percentile(0.99), b.latency.percentile(0.99));
    }

    #[test]
    fn latency_rises_with_load() {
        let light = run(&quick(0.2));
        let heavy = run(&quick(0.85));
        let light_p99 = light.latency.percentile(0.99).unwrap();
        let heavy_p99 = heavy.latency.percentile(0.99).unwrap();
        assert!(
            heavy_p99 > light_p99,
            "queueing should inflate the tail: {light_p99} vs {heavy_p99}"
        );
        assert!(heavy.peak_core_utilization > light.peak_core_utilization);
    }

    #[test]
    fn warm_population_mostly_hits() {
        let result = run(&quick(0.3));
        assert_eq!(result.dropped, 0);
        assert_eq!(result.measured, 2_000);
        // Every key starts warm, so a fault-free run never misses.
        assert_eq!(result.shard_misses, 0);
        assert!(result.remap.is_none());
    }

    #[test]
    fn multiget_fans_out_and_amplifies_tail() {
        let single = quick(0.4);
        let mut multi = single.clone();
        multi.workload = ClusterWorkload::multigets(0.0, 8);
        // Match shard-level load: 1/8th the logical rate.
        multi.workload.rate_per_sec = single.workload.rate_per_sec / 8.0;
        let s = run(&single);
        let m = run(&multi);
        assert_eq!(m.shard_hits + m.shard_misses, 8 * m.measured);
        // Fan-out completion is a max over 8 legs: the logical p99 must
        // sit at or above the single-get p99 under the same shard load.
        assert!(
            m.latency.percentile(0.99).unwrap() >= s.latency.percentile(0.99).unwrap(),
            "multiget p99 should dominate single-get p99"
        );
    }

    #[test]
    fn telemetry_is_passive_and_records_the_run() {
        let config = quick(0.5);
        let baseline = run(&config);
        let mut tele = Telemetry::enabled(TelemetryConfig {
            sample_every: 100,
            timeline_interval: Duration::from_micros(500),
            timeline_columns: TIMELINE_COLUMNS.to_vec(),
        });
        let observed = run_with_telemetry(&config, &mut tele);

        // Passive: identical results bit for bit.
        assert_eq!(baseline.measured, observed.measured);
        assert_eq!(baseline.shard_hits, observed.shard_hits);
        assert_eq!(
            baseline.latency.percentile(0.999),
            observed.latency.percentile(0.999)
        );
        assert_eq!(baseline.throughput_tps, observed.throughput_tps);

        // The registry mirrors the result struct.
        assert_eq!(
            tele.metrics.counter_by_name("cluster.requests"),
            Some(observed.measured)
        );
        assert_eq!(
            tele.metrics.counter_by_name("cluster.shard.hits"),
            Some(observed.shard_hits)
        );
        let rtt = tele.metrics.histogram_by_name("cluster.rtt").unwrap();
        assert_eq!(rtt.count(), observed.measured);
        // Log-bucketed p50 brackets the exact p50 within one bucket
        // (~6% + the conservative upper-bound rounding).
        let exact = observed.latency.percentile(0.5).unwrap().as_ps() as f64;
        let approx = rtt.percentile(0.5).unwrap().as_ps() as f64;
        assert!(
            approx >= exact && approx < exact * 1.08,
            "exact {exact} vs bucketed {approx}"
        );

        // Spans: every 100th arrival (warmup included) has one logical
        // span plus one per shard leg, phases tiling the latency.
        let logical: Vec<_> = tele
            .tracer
            .spans()
            .iter()
            .filter(|s| s.label == "request")
            .collect();
        assert_eq!(logical.len(), 25);
        for span in tele.tracer.spans() {
            assert_eq!(span.phase_sum(), span.total());
        }

        // Sampler rows exist and include the hit-rate gauge at 1.0.
        assert!(tele.sampler.rows().len() > 1);
        let csv = tele.sampler.to_csv();
        assert!(csv.starts_with("t_us,sched_backlog,hit_rate"));

        // Port meters saw every shard leg.
        let sends: u64 = observed.ingress.iter().map(PortMeter::sends).sum();
        assert_eq!(sends, 2_500); // warmup + measured arrivals, batch 1
    }

    #[test]
    fn scheduler_holds_one_arrival_and_the_fault() {
        // The traffic the event heap is sized for: each arrival schedules
        // the next, so the backlog is the next arrival, plus the pending
        // kill when a fault plan runs.
        for config in [quick(0.5), failover_config()] {
            let mut tele = Telemetry {
                metrics: densekv_telemetry::MetricsRegistry::enabled(),
                ..Telemetry::disabled()
            };
            run_with_telemetry(&config, &mut tele);
            let faults = u64::from(config.fault.is_some());
            let counter = |name| tele.metrics.counter_by_name(name);
            assert_eq!(counter("cluster.sched.peak_backlog"), Some(1 + faults));
            let arrivals = u64::from(config.warmup + config.requests);
            assert_eq!(counter("cluster.sched.pushed"), Some(arrivals + faults));
            assert_eq!(counter("cluster.sched.popped"), Some(arrivals + faults));
        }
    }

    fn failover_config() -> ClusterConfig {
        let mut config = quick(0.3);
        config.requests = 6_000;
        config.warmup = 500;
        config.workload.key_population = 20_000;
        // Mid-run, after warmup traffic has passed.
        config.fault = Some(FaultPlan {
            at: SimTime::ZERO + Duration::from_millis(2),
            kill_stacks: vec![0, 1],
        });
        config.timeline_bucket = Duration::from_micros(500);
        config
    }

    #[test]
    fn failover_remaps_and_recovers() {
        let config = failover_config();
        let result = run(&config);
        let remap = result.remap.as_ref().expect("fault plan ran");
        assert_eq!(remap.nodes_removed, 2 * config.topology.cores_per_stack);
        // Two of eight stacks died; their arc share moves, give or take
        // vnode placement variance.
        assert!(
            (0.10..=0.45).contains(&remap.key_fraction_remapped),
            "remap fraction {}",
            remap.key_fraction_remapped
        );
        // Survivors absorb everything: nothing is dropped, but the
        // remapped keys cold-miss.
        assert_eq!(result.dropped, 0);
        assert!(result.shard_misses > 0);

        // The miss transient decays: the bucket containing the fault has
        // the worst hit rate, and the final bucket has recovered.
        let fault_bucket = result.timeline.bucket_index(remap.at);
        let dip = result.timeline[fault_bucket..]
            .iter()
            .map(densekv_telemetry::TimelineBucket::hit_rate)
            .fold(1.0f64, f64::min);
        let last = result.timeline.last().unwrap().hit_rate();
        assert!(dip < 0.95, "fault should dent the hit rate, dip={dip}");
        assert!(last > dip, "hit rate should recover: dip={dip} last={last}");
        // Before the fault every access hits.
        for bucket in &result.timeline[..fault_bucket] {
            assert_eq!(bucket.misses, 0);
        }
        // Dead stacks' ports stop transmitting; survivors keep going.
        let dead_sends = result.ingress[0].sends() + result.ingress[1].sends();
        let live_sends: u64 = result.ingress[2..].iter().map(PortMeter::sends).sum();
        assert!(live_sends > dead_sends);
    }

    #[test]
    fn effective_capacity_is_bounded_by_hot_core() {
        let config = quick(0.5);
        let hot = hot_core_share(&config);
        // Zipf(0.99) over 100 k keys: the top rank alone holds ~8% of
        // the mass, so the hottest core dominates its 1/64 fair share.
        assert!(hot > 1.0 / 64.0, "hot share {hot}");
        assert!(hot < 0.5, "hot share {hot}");
        let effective = effective_capacity(&config);
        assert!(effective < config.hit_capacity());
        // Uniform popularity spreads load: the hot share falls and the
        // effective capacity rises.
        let mut uniform = config.clone();
        uniform.workload.zipf_alpha = 0.0;
        assert!(hot_core_share(&uniform) < hot);
        assert!(effective_capacity(&uniform) > effective);
    }

    #[test]
    fn popularity_memo_is_keyed_by_population_and_alpha() {
        let a = quick(0.5);
        let mut b = a.clone();
        b.workload.key_population /= 2;
        let first = format!("{:?}", run(&a));
        let other = format!("{:?}", run(&b));
        let again = format!("{:?}", run(&a));
        assert_eq!(first, again, "a table built for B leaked into A");
        assert_ne!(first, other);
        let mut flatter = a.clone();
        flatter.workload.zipf_alpha = 0.5;
        assert_ne!(
            format!("{:?}", run(&flatter)),
            first,
            "alpha is not in the key"
        );

        // Two threads alternating A and B race for the one entry; each
        // run still matches its serial result.
        let racers: Vec<_> = [(a, first), (b, other)]
            .into_iter()
            .map(|(config, serial)| {
                std::thread::spawn(move || {
                    for _ in 0..4 {
                        assert_eq!(format!("{:?}", run(&config)), serial);
                    }
                })
            })
            .collect();
        for racer in racers {
            racer.join().expect("racing run");
        }
    }

    #[test]
    fn killing_every_stack_drops_requests() {
        let mut config = quick(0.3);
        config.fault = Some(FaultPlan {
            at: SimTime::ZERO + Duration::from_micros(100),
            kill_stacks: (0..config.topology.stacks).collect(),
        });
        let result = run(&config);
        assert!(result.dropped > 0);
        let remap = result.remap.unwrap();
        assert!((remap.key_fraction_remapped - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn a_repeated_stack_is_killed_once() {
        let mut once = failover_config();
        once.energy = Some(crate::config::ClusterEnergyModel::mercury_a7(
            once.topology.cores_per_stack,
        ));
        let mut twice = once.clone();
        once.fault.as_mut().unwrap().kill_stacks = vec![0];
        twice.fault.as_mut().unwrap().kill_stacks = vec![0, 0];
        let result = run(&twice);
        let remap = result.remap.as_ref().unwrap();
        assert_eq!(remap.killed, vec![0]);
        assert_eq!(remap.nodes_removed, once.topology.cores_per_stack);
        assert_eq!(format!("{result:?}"), format!("{:?}", run(&once)));
    }

    /// Where in the run a fault lands, relative to the arrivals.
    #[derive(Debug, Clone, Copy)]
    enum FaultPhase {
        BeforeFirstArrival,
        MidWarmup,
        MidMeasurement,
        AfterLastArrival,
        /// Halfway through the first block of draws.
        MidBlock,
    }

    /// A small cluster (4 stacks × 4 cores) over a key population small
    /// enough that remapped keys come back and hit their refilled owner;
    /// a quarter of the `arrivals` are warm-up.
    fn differential_config(
        seed: u64,
        population: u64,
        batch: u32,
        arrivals: u32,
        phase: FaultPhase,
        kill_stacks: Vec<u32>,
    ) -> ClusterConfig {
        let mut config = quick(0.3);
        config.topology.stacks = 4;
        config.topology.cores_per_stack = 4;
        config.workload = ClusterWorkload::multigets(0.0, batch);
        config.workload.key_population = population;
        config.workload.rate_per_sec = 0.3 * config.hit_capacity();
        config.warmup = arrivals / 4;
        config.requests = arrivals - config.warmup;
        config.seed = seed;
        config.timeline_bucket = Duration::from_micros(100);
        config.energy = Some(crate::config::ClusterEnergyModel::mercury_a7(
            config.topology.cores_per_stack,
        ));
        let arrival = |seq: u32| f64::from(seq) / config.workload.rate_per_sec;
        let at = match phase {
            FaultPhase::BeforeFirstArrival => 0.0,
            FaultPhase::MidWarmup => arrival(config.warmup / 2),
            FaultPhase::MidMeasurement => arrival(config.warmup + config.requests / 2),
            FaultPhase::AfterLastArrival => 1.0,
            FaultPhase::MidBlock => arrival(DRAW_BLOCK / 2),
        };
        config.fault = Some(FaultPlan {
            at: SimTime::ZERO + Duration::from_secs_f64(at),
            kill_stacks,
        });
        config
    }

    /// `run` and the eager-preload reference agree on every field of
    /// the result. `Debug` prints all of them, floats exactly.
    fn assert_matches_reference(config: &ClusterConfig) -> ClusterResult {
        let lazy = run(config);
        let eager = run_eager_reference(config);
        assert_eq!(format!("{lazy:?}"), format!("{eager:?}"), "{config:?}");
        lazy
    }

    #[test]
    fn lazy_warm_keys_match_the_eager_preload() {
        for phase in ALL_PHASES {
            for kill in [vec![1], vec![0, 1, 2, 3]] {
                for batch in [1, 8] {
                    let config = differential_config(7, 400, batch, 800, phase, kill.clone());
                    let result = assert_matches_reference(&config);
                    let faulted = !matches!(phase, FaultPhase::AfterLastArrival);
                    // A fault inside the run moves keys that come back
                    // cold, or drops every request once nothing is left.
                    assert_eq!(
                        faulted,
                        result.shard_misses + result.dropped > 0,
                        "{phase:?} {kill:?}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn lazy_warm_keys_match_the_eager_preload_on_any_seed(
            seed in proptest::prelude::any::<u64>(),
            population in 50u64..3_000,
            batch in 0u32..2,
            phase in 0usize..5,
            kill in (0u32..4, 0u8..3),
        ) {
            let config = differential_config(
                seed,
                population,
                1 + 7 * batch,
                800,
                ALL_PHASES[phase],
                kill_plan(kill),
            );
            assert_matches_reference(&config);
        }

        #[test]
        fn drawn_ahead_matches_drawn_per_arrival_on_any_seed(
            seed in proptest::prelude::any::<u64>(),
            population in 50u64..3_000,
            batch in 0usize..3,
            arrivals in 0usize..5,
            phase in 0usize..5,
            kill in (0u32..4, 0u8..3),
        ) {
            let config = differential_config(
                seed,
                population,
                DRAW_SHAPES.0[batch],
                DRAW_SHAPES.1[arrivals],
                ALL_PHASES[phase],
                kill_plan(kill),
            );
            assert_drawn_ahead_matches(&config);
        }
    }

    const ALL_PHASES: [FaultPhase; 5] = [
        FaultPhase::BeforeFirstArrival,
        FaultPhase::MidWarmup,
        FaultPhase::MidMeasurement,
        FaultPhase::AfterLastArrival,
        FaultPhase::MidBlock,
    ];

    /// One stack, one stack named twice, or every stack.
    fn kill_plan((stack, shape): (u32, u8)) -> Vec<u32> {
        match shape {
            0 => vec![stack],
            1 => vec![stack, stack],
            _ => (0..4).collect(),
        }
    }

    /// Batch sizes (one odd) and arrival counts either side of a block.
    const DRAW_SHAPES: ([u32; 3], [u32; 5]) = ([1, 8, 13], [1, 63, 64, 65, 129]);

    /// `run` and the per-arrival draw reference agree on every field.
    fn assert_drawn_ahead_matches(config: &ClusterConfig) {
        let ahead = run(config);
        let per_arrival = run_drawn_per_arrival(config);
        assert_eq!(
            format!("{ahead:?}"),
            format!("{per_arrival:?}"),
            "{config:?}"
        );
    }

    #[test]
    fn drawn_ahead_matches_drawn_per_arrival() {
        for batch in DRAW_SHAPES.0 {
            for arrivals in DRAW_SHAPES.1 {
                for phase in ALL_PHASES {
                    let config = differential_config(11, 700, batch, arrivals, phase, vec![2]);
                    assert_drawn_ahead_matches(&config);
                }
            }
        }
    }

    #[test]
    fn draws_hand_out_the_per_arrival_stream() {
        let mut config = quick(0.5);
        config.workload = ClusterWorkload::multigets(0.0, 3);
        config.workload.rate_per_sec = 1e6;
        let total = 2 * DRAW_BLOCK + 5;

        // The event loop's order: the first gap, then per arrival the
        // gap to the next one (none after the last) and its keys.
        let mut rng = SplitMix64::new(config.seed);
        let arrivals = Exponential::from_rate_per_sec(config.workload.rate_per_sec);
        let zipf = popularity(config.workload.key_population, config.workload.zipf_alpha);
        let first_gap = arrivals.sample(&mut rng);
        let expected: Vec<(Option<Duration>, Vec<u64>)> = (0..total)
            .map(|seq| {
                let gap = (seq + 1 < total).then(|| arrivals.sample(&mut rng));
                let keys = (0..3).map(|_| zipf.sample(&mut rng) as u64).collect();
                (gap, keys)
            })
            .collect();

        for mut draws in [
            Draws::new(&config, total),
            Draws::drawn_per_arrival(&config, total),
        ] {
            assert_eq!(draws.first_gap, Some(first_gap));
            for (seq, (gap, keys)) in (0..total).zip(&expected) {
                let (got_gap, got_keys) = draws.arrival(seq);
                assert_eq!((got_gap, got_keys), (*gap, keys.as_slice()), "seq {seq}");
            }
        }
    }

    #[test]
    fn a_run_without_arrivals_measures_nothing() {
        let mut config = quick(0.5);
        config.warmup = 0;
        config.requests = 0;
        let result = run(&config);
        assert_eq!(result.measured, 0);
        assert_eq!(result.shard_hits + result.shard_misses, 0);
        assert_eq!(result.latency.count(), 0);
        assert_eq!(result.shard_latency.count(), 0);
    }

    #[test]
    #[should_panic(expected = "warmup + requests overflows u32")]
    fn an_arrival_count_past_u32_panics() {
        let mut config = quick(0.5);
        config.warmup = u32::MAX;
        config.requests = 1;
        run(&config);
    }

    #[test]
    #[should_panic(expected = "unknown stack")]
    fn fault_plan_validates_stack_ids() {
        let mut config = quick(0.3);
        config.fault = Some(FaultPlan {
            at: SimTime::ZERO,
            kill_stacks: vec![99],
        });
        run(&config);
    }

    #[test]
    fn energy_accounting_is_off_by_default() {
        let result = run(&quick(0.3));
        assert!(result.energy.is_none());
    }

    #[test]
    fn energy_accounting_populates_and_balances() {
        let mut config = quick(0.3);
        let model = crate::config::ClusterEnergyModel::mercury_a7(config.topology.cores_per_stack);
        config.energy = Some(model.clone());
        let result = run(&config);

        let energy = result.energy.as_ref().expect("energy model configured");
        assert_eq!(energy.per_stack.len(), config.topology.stacks as usize);
        assert!(energy.total_j() > 0.0);
        assert!(energy.j_per_op(result.measured) > 0.0);
        assert!(energy.peak_watts() > 0.0);
        assert!(!energy.timeline.is_empty());

        // No fault: every stack draws static power for the whole run, and
        // hits dominate so dynamic energy is hits × hit_j exactly.
        let elapsed = energy.per_stack[0].alive;
        for stack in &energy.per_stack {
            assert_eq!(stack.alive, elapsed);
            assert!((stack.static_j - model.stack_static_w * elapsed.as_secs_f64()).abs() < 1e-12);
        }
        // Dynamic energy covers every shard leg — warmup included, just
        // like static power — and a fault-free warm run never misses.
        assert_eq!(result.shard_misses, 0);
        let legs = u64::from(config.warmup) + result.shard_hits;
        let dynamic: f64 = energy.per_stack.iter().map(|s| s.dynamic_j).sum();
        let expected = legs as f64 * model.hit_j;
        assert!(
            (dynamic - expected).abs() < 1e-9 * expected.max(1.0),
            "dynamic {dynamic} vs expected {expected}"
        );

        // The timeline integrates to the same total joules (span deposits
        // plus event deposits; events can only land inside the run).
        let ratio = energy.timeline.total_j() / energy.total_j();
        assert!((ratio - 1.0).abs() < 1e-6, "timeline/total ratio {ratio}");
    }

    #[test]
    fn energy_accounting_is_passive() {
        let mut config = quick(0.4);
        let baseline = run(&config);
        config.energy = Some(crate::config::ClusterEnergyModel::mercury_a7(
            config.topology.cores_per_stack,
        ));
        let metered = run(&config);
        assert_eq!(baseline.measured, metered.measured);
        assert_eq!(baseline.shard_hits, metered.shard_hits);
        assert_eq!(baseline.shard_misses, metered.shard_misses);
        assert_eq!(
            baseline.latency.percentile(0.999),
            metered.latency.percentile(0.999)
        );
        assert_eq!(baseline.throughput_tps, metered.throughput_tps);
    }

    #[test]
    fn failover_shows_power_transient() {
        let mut config = failover_config();
        config.energy = Some(crate::config::ClusterEnergyModel::mercury_a7(
            config.topology.cores_per_stack,
        ));
        let result = run(&config);
        let energy = result.energy.as_ref().unwrap();
        let fault_at = config.fault.as_ref().unwrap().at;

        // Dead stacks stopped drawing at the fault; survivors ran longer.
        for dead in [0usize, 1] {
            assert_eq!(
                energy.per_stack[dead].alive,
                fault_at.elapsed_since(SimTime::ZERO)
            );
        }
        for live in 2..energy.per_stack.len() {
            assert!(energy.per_stack[live].alive > energy.per_stack[0].alive);
            assert!(energy.per_stack[live].static_j > energy.per_stack[0].static_j);
        }

        // The power timeline shows the step down: mean watts after the
        // fault sit clearly below mean watts before it (6 of 8 stacks).
        let tl = &energy.timeline;
        let bucket_s = tl.bucket_width().as_secs_f64();
        let fault_bucket =
            (fault_at.elapsed_since(SimTime::ZERO).as_secs_f64() / bucket_s) as usize;
        assert!(fault_bucket > 0 && fault_bucket + 1 < tl.len());
        let mean = |range: std::ops::Range<usize>| {
            let n = range.len().max(1) as f64;
            range.map(|i| tl.watts(i)).sum::<f64>() / n
        };
        let before = mean(0..fault_bucket);
        let after = mean(fault_bucket + 1..tl.len());
        assert!(
            after < before * 0.85,
            "failover should drop cluster power: before {before} W, after {after} W"
        );
    }
}
