//! Configuration of a cluster-scale run: the cluster's shape, the
//! per-core service model, the client population, and an optional
//! fault-injection plan.

use densekv_energy::EnergyRates;
use densekv_sim::{Duration, SimTime};

/// Per-core service timings, calibrated externally (the `densekv` core
/// crate derives them from its execution-driven [`CoreSim`]; tests use
/// [`ServiceProfile::synthetic`]).
///
/// [`CoreSim`]: https://docs.rs/densekv
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceProfile {
    /// Design label (shows up in experiment tables).
    pub label: String,
    /// Server-side service time of a GET that hits.
    pub hit_service: Duration,
    /// Server-side service time of a GET that misses (no value copy).
    pub miss_service: Duration,
    /// Extra core-busy time to backfill a cold-missed key (read-through
    /// fill); charged to the core *after* the miss response leaves, so it
    /// delays later requests without inflating the miss's own latency.
    pub fill_service: Duration,
    /// Serialization of one shard request on the stack's shared ingress
    /// port.
    pub req_wire: Duration,
    /// Serialization of one shard response on the stack's shared egress
    /// port.
    pub resp_wire: Duration,
    /// One-way propagation + MAC latency between client and stack.
    pub link_delay: Duration,
    /// Client-side processing per logical request.
    pub client_overhead: Duration,
}

impl ServiceProfile {
    /// A round-number profile for unit tests: 10 µs hits, 2 µs misses,
    /// 8 µs fills, ~50 ns wire times, 2.5 µs link delay.
    pub fn synthetic() -> Self {
        ServiceProfile {
            label: "synthetic".to_owned(),
            hit_service: Duration::from_micros(10),
            miss_service: Duration::from_micros(2),
            fill_service: Duration::from_micros(8),
            req_wire: Duration::from_nanos(50),
            resp_wire: Duration::from_nanos(120),
            link_delay: Duration::from_micros(2) + Duration::from_nanos(500),
            client_overhead: Duration::from_micros(1),
        }
    }
}

/// The cluster's physical shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTopology {
    /// 3D stacks (each with its own 10 GbE port).
    pub stacks: u32,
    /// Independent Memcached cores per stack — each is one DHT node,
    /// the paper's §3.8 deployment model.
    pub cores_per_stack: u32,
    /// Virtual nodes per core on the consistent-hash ring.
    pub vnodes: u32,
}

impl ClusterTopology {
    /// Total DHT nodes (`stacks × cores_per_stack`).
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.stacks * self.cores_per_stack
    }

    /// The ring node id of `core` on `stack`.
    #[must_use]
    pub fn node_id(&self, stack: u32, core: u32) -> u32 {
        stack * self.cores_per_stack + core
    }

    /// The stack owning ring node `node`.
    #[must_use]
    pub(crate) fn stack_of(&self, node: u32) -> u32 {
        node / self.cores_per_stack
    }
}

/// The open-loop client population.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterWorkload {
    /// Aggregate offered load across the cluster, logical requests per
    /// second (each logical request fans out to `multiget_batch` shard
    /// requests).
    pub rate_per_sec: f64,
    /// Distinct keys, ranked by popularity.
    pub key_population: u64,
    /// Zipf exponent of key popularity (0 = uniform; Memcached traces
    /// are near 1, Atikoglu et al. SIGMETRICS '12).
    pub zipf_alpha: f64,
    /// Keys per logical request. 1 models plain GETs; >1 models
    /// client-side multiget fan-out, where the logical request completes
    /// only when its *slowest* shard replies.
    pub multiget_batch: u32,
}

impl ClusterWorkload {
    /// Single-GET traffic at `rate_per_sec` over 100 k keys, Zipf(0.99).
    pub fn gets(rate_per_sec: f64) -> Self {
        ClusterWorkload {
            rate_per_sec,
            key_population: 100_000,
            zipf_alpha: 0.99,
            multiget_batch: 1,
        }
    }

    /// Multiget traffic: like [`ClusterWorkload::gets`] but each logical
    /// request carries `batch` keys.
    pub fn multigets(rate_per_sec: f64, batch: u32) -> Self {
        ClusterWorkload {
            multiget_batch: batch,
            ..ClusterWorkload::gets(rate_per_sec)
        }
    }
}

/// Energy rates for a cluster run, mirroring the [`ServiceProfile`]
/// philosophy: the core crate calibrates these from its execution-driven
/// energy accounting, tests use round numbers.
///
/// The attribution follows the workspace's Table 1 model: a live stack
/// is constant draw ([`ClusterEnergyModel::stack_static_w`], covering
/// cores, L2 leakage, MAC, and PHY share), while per-operation joules
/// cover only *activity* energy (memory-device bytes) so the two never
/// double count. A dead stack stops drawing from its death instant —
/// which is what makes failover power transients visible on the run's
/// power timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterEnergyModel {
    /// Constant draw of one live stack, watts.
    pub stack_static_w: f64,
    /// Activity joules of a shard GET that hits (value bytes through the
    /// memory device).
    pub(crate) hit_j: f64,
    /// Activity joules of a shard GET that misses (metadata walk only).
    pub(crate) miss_j: f64,
    /// Activity joules of a read-through fill re-warming a key.
    pub(crate) fill_j: f64,
    /// Bucket width of the run's power timeline.
    pub timeline_bucket: Duration,
}

impl ClusterEnergyModel {
    /// Builds a model from per-stack [`EnergyRates`] and the memory
    /// bytes each operation class moves at the device.
    pub(crate) fn from_rates(
        rates: &EnergyRates,
        cores_per_stack: u32,
        hit_bytes: u64,
        miss_bytes: u64,
        fill_bytes: u64,
        timeline_bucket: Duration,
    ) -> Self {
        let per_byte = rates.mem_j_per_byte();
        ClusterEnergyModel {
            stack_static_w: rates.stack_static_w(cores_per_stack),
            hit_j: per_byte * hit_bytes as f64,
            miss_j: per_byte * miss_bytes as f64,
            fill_j: per_byte * fill_bytes as f64,
            timeline_bucket,
        }
    }

    /// The headline Mercury-A7 stack with `cores_per_stack` cores:
    /// Table 1 static rates, ~1 KB of DRAM traffic per hit and per fill,
    /// a metadata-only miss, 1 ms power buckets.
    pub fn mercury_a7(cores_per_stack: u32) -> Self {
        ClusterEnergyModel::from_rates(
            &EnergyRates::mercury_a7(true),
            cores_per_stack,
            1024,
            128,
            1024,
            Duration::from_millis(1),
        )
    }
}

/// Kill a set of stacks at a scheduled simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// When the stacks die, measured from simulation start.
    pub at: SimTime,
    /// The stacks to kill (all their cores leave the ring at once).
    pub kill_stacks: Vec<u32>,
}

/// A full cluster-run configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Cluster shape.
    pub topology: ClusterTopology,
    /// Per-core service model.
    pub profile: ServiceProfile,
    /// Client population.
    pub workload: ClusterWorkload,
    /// Logical requests measured (after warmup).
    pub requests: u32,
    /// Warmup logical requests (queues and the warm-key map reach steady
    /// state; not recorded).
    pub warmup: u32,
    /// RNG seed for arrivals and key popularity.
    pub seed: u64,
    /// Optional fault injection.
    pub fault: Option<FaultPlan>,
    /// Width of the recovery-timeline buckets.
    pub timeline_bucket: Duration,
    /// Optional energy accounting. `None` (the default) skips all energy
    /// bookkeeping; `Some` fills [`ClusterResult::energy`] without
    /// changing any performance output (enforced by the workspace
    /// passivity proptests).
    ///
    /// [`ClusterResult::energy`]: crate::ClusterResult
    pub energy: Option<ClusterEnergyModel>,
}

impl ClusterConfig {
    /// A small default cluster over `profile`: 8 stacks × 8 cores,
    /// 4 vnodes, single-GET Zipf traffic at `rate_per_sec`.
    pub fn new(profile: ServiceProfile, rate_per_sec: f64) -> Self {
        ClusterConfig {
            topology: ClusterTopology {
                stacks: 8,
                cores_per_stack: 8,
                vnodes: 4,
            },
            profile,
            workload: ClusterWorkload::gets(rate_per_sec),
            requests: 4_000,
            warmup: 1_000,
            seed: 0xC1_05_7E_12,
            fault: None,
            timeline_bucket: Duration::from_millis(5),
            energy: None,
        }
    }

    /// Aggregate service capacity in logical requests/second, assuming
    /// every shard access hits: `nodes / hit_service`. The open-loop
    /// load axis of the tail experiments is expressed against this.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn hit_capacity(&self) -> f64 {
        let per_core = 1.0 / self.profile.hit_service.as_secs_f64();
        let shards_per_request = f64::from(self.workload.multiget_batch.max(1));
        f64::from(self.topology.nodes()) * per_core / shards_per_request
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids_are_dense_and_invertible() {
        let t = ClusterTopology {
            stacks: 4,
            cores_per_stack: 8,
            vnodes: 2,
        };
        assert_eq!(t.nodes(), 32);
        let mut seen = std::collections::HashSet::new();
        for s in 0..t.stacks {
            for c in 0..t.cores_per_stack {
                let id = t.node_id(s, c);
                assert!(seen.insert(id), "duplicate node id {id}");
                assert_eq!(t.stack_of(id), s);
            }
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn hit_capacity_scales_with_nodes_and_batch() {
        let mut config = ClusterConfig::new(ServiceProfile::synthetic(), 1000.0);
        let base = config.hit_capacity();
        // 64 cores at 10 µs each = 6.4 M shard/s.
        assert!((base - 6_400_000.0).abs() < 1.0, "{base}");
        config.workload.multiget_batch = 8;
        assert!((config.hit_capacity() - base / 8.0).abs() < 1.0);
    }
}
