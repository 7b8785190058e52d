//! Cluster-scale discrete-event simulation for densekv.
//!
//! The per-stack simulators in `densekv` answer "how fast is one 3D
//! stack"; this crate answers the deployment question the paper's §3.8
//! raises: what does a *rack* of stacks look like to a client? It
//! models:
//!
//! - **DHT routing** — every core of every stack is a node on a
//!   [`ConsistentHashRing`](densekv_dht::ConsistentHashRing); keys route
//!   to their owning core's FIFO queue.
//! - **Shared wire contention** — each stack's cores share one
//!   full-duplex 10 GbE port; request and response serialization
//!   contend per stack, as in the single-stack simulator.
//! - **Open-loop Poisson clients** — aggregate offered load with
//!   exponential inter-arrival gaps and Zipfian key popularity, so
//!   queueing delay (not just service time) shapes the tail.
//! - **Multiget fan-out** — a logical request may touch many shards and
//!   completes only when the *slowest* leg replies (tail-at-scale).
//! - **Stack-failure injection** — a [`FaultPlan`] kills stacks
//!   mid-run; their ring arcs remap and remapped keys cold-miss until
//!   read-through fills re-warm them, yielding a timed recovery curve.
//!
//! The crate is deliberately generic over a [`ServiceProfile`] of plain
//! durations: the `densekv` core crate calibrates profiles for each
//! server design from its execution-driven simulator, while tests and
//! examples use [`ServiceProfile::synthetic`].
//!
//! ```
//! use densekv_cluster::{run, ClusterConfig, ServiceProfile};
//!
//! let config = ClusterConfig::new(ServiceProfile::synthetic(), 500_000.0);
//! let result = run(&config);
//! assert_eq!(result.measured, 4_000);
//! assert!(result.latency.percentile(0.99).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod run;

pub use config::{ClusterConfig, ClusterEnergyModel, ClusterWorkload, FaultPlan, ServiceProfile};
pub use densekv_telemetry::{BucketedTimeline, TimelineBucket};
pub use run::{effective_capacity, run, run_with_telemetry, ClusterResult, TIMELINE_COLUMNS};
