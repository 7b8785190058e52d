//! `densekv` — an execution-driven simulator reproducing *Integrated
//! 3D-Stacked Server Designs for Increasing Physical Density of Key-Value
//! Stores* (Gutierrez et al., ASPLOS 2014).
//!
//! The paper proposes two 3D-stacked Memcached server architectures —
//! DRAM-based **Mercury** and flash-based **Iridium** — and evaluates
//! them against software baselines in gem5. This crate ties the
//! workspace's substrates together into that evaluation:
//!
//! * [`sim`] — a simulated stack core: requests flow through a real
//!   key-value store ([`densekv_kv`]), a TCP/IP + NIC cost model
//!   ([`densekv_net`]), a cache/core timing engine ([`densekv_cpu`]), and
//!   memory-device models ([`densekv_mem`]),
//! * [`sweep`] — the paper's 64 B–1 MB request-size sweeps,
//! * [`experiments`] — one runner per table and figure (Tables 1–4,
//!   Figures 4–8, the §6.5 thermal check, and the §6 headline ratios),
//! * [`stack_sim`] — the one simulated queue: n cores sharing one 10 GbE
//!   port, closed-loop (the §5.3 linear-scaling check) or under Poisson
//!   arrivals (latency under load, the SLA runs),
//! * [`system`] — the top-level facade: build a Mercury/Iridium box and
//!   query throughput, density, power, and latency under load,
//! * [`report`] — text/CSV rendering of experiment output,
//! * [`paper`] — the published numbers, for side-by-side comparison.
//!
//! # Quick start
//!
//! ```
//! use densekv::sim::{CoreSim, CoreSimConfig};
//! use densekv_workload::{Op, Request};
//!
//! // One A7 core of a Mercury stack, with its 2 MB L2.
//! let mut core = CoreSim::preloaded(&CoreSimConfig::mercury_a7(), 64, 100);
//! let timing = core.execute(&Request {
//!     op: Op::Get,
//!     key: densekv_workload::key_bytes(0),
//!     value_bytes: 64,
//! });
//! // A 64 B GET on an A7 completes in about 90 µs (≈11 KTPS, Table 4).
//! assert!(timing.rtt.as_micros_f64() > 20.0);
//! assert!(timing.rtt.as_micros_f64() < 300.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod experiments;
pub mod observe;
pub mod paper;
pub mod report;
pub mod sim;
pub mod stack_sim;
pub mod sweep;
pub mod system;

pub use energy::{run_energy_observed, EnergyRun};
pub use observe::{run_observed, CORE_TIMELINE_COLUMNS};
pub use sim::{CoreSim, CoreSimConfig};
pub use sweep::{measure_point, sweep_sizes, OpPoint, SweepPoint};
pub use system::System;
