//! A real TCP data plane over the densekv key-value store.
//!
//! Every other crate in this workspace *simulates* the paper's
//! 3D-stacked server; this one serves actual traffic. It binds a
//! `std::net` listener (no async runtime — the vendored-deps build must
//! stay offline), speaks the Memcached text protocol already
//! implemented in [`densekv_kv::protocol`], and dispatches commands to
//! a shared store behind the striped-lock design the paper's §3.6
//! scaling discussion (and the memcached threading-model survey in
//! SNIPPETS.md §3) describes:
//!
//! * [`shard`] — [`ShardedStore`]: the hash space split over
//!   independently locked stores of either backend. One shard is
//!   Memcached 1.4's global cache lock; many shards are the 1.6-style
//!   striped design.
//! * [`server`] — the front-end itself: a listener thread plus one
//!   worker thread per connection (memcached's threading model, with
//!   the worker pool degenerated to thread-per-connection since the
//!   experiments cap connections anyway), each only moving bytes between
//!   its socket and a [`Session`], which drains them through
//!   [`densekv_kv::server::drain`]. Enforces a max-connections cap
//!   (`SERVER_ERROR busy`) and a per-connection read timeout so an
//!   adversarial or stalled peer can never wedge the process.
//! * [`metrics`] — the live observability plane: per-verb wall-clock
//!   latency histograms and counters in a
//!   [`densekv_telemetry::MetricsRegistry`], shard-lock contention
//!   accounting, every-Nth request-span sampling into a
//!   [`densekv_telemetry::Tracer`] (Chrome-trace exportable), a
//!   bounded slow-request log, and Prometheus text exposition — served
//!   in-band via `stats latency` / `stats shards` / `stats reset` and
//!   the `metrics` verb. Disabled, the data path stays byte-identical.
//! * [`client`] — a blocking per-socket client over
//!   [`densekv_kv::client`]'s codec.
//! * [`loadgen`] — closed-loop and open-loop (paced Poisson) load
//!   generators with seeded Zipf key popularity; per-request wall-clock
//!   latencies land in [`densekv_telemetry::LogHistogram`]s, the same
//!   histogram type the simulator fills, so real and simulated
//!   percentile curves are directly comparable. That comparison — the
//!   simulator as timing oracle behind a live front-end — is the
//!   `serve_validate` subcommand of `densekv-bench`.
//!
//! Every verb is turned into store calls and reply bytes by
//! [`densekv_kv::server::execute`], here over the key's shard under its
//! lock and at [`densekv_kv::server::WallClock`] seconds. The simulator
//! does not run this loop: it prices requests through the store's
//! traced get/set.
//!
//! # Examples
//!
//! ```
//! use densekv_serve::{spawn, Connection, ServeConfig};
//!
//! let server = spawn(ServeConfig::ephemeral()).unwrap();
//! let mut conn = Connection::connect(server.addr()).unwrap();
//! assert!(conn.set(b"k", b"hello").unwrap());
//! let hit = conn.get(b"k").unwrap().expect("resident");
//! assert_eq!(hit.data, b"hello");
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cells;
pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod server;
pub mod shard;

pub use client::Connection;
pub use loadgen::{
    preload, run_closed_loop, run_open_loop, ClosedLoopConfig, LoadMix, LoadReport, OpenLoopConfig,
};
pub use metrics::{MetricsConfig, ServeMetrics, Verb};
pub use server::{spawn, ServeConfig, Server, ServerHandle, Session};
pub use shard::{BackendKind, ShardedStore};
