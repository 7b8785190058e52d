//! Discrete-event simulation core for the `densekv` workspace.
//!
//! This crate provides the substrate every other `densekv` crate builds on:
//!
//! * [`SimTime`] / [`Duration`] — integer-picosecond simulated time,
//! * [`Scheduler`] — a deterministic discrete-event loop over a
//!   `(time, seq)` binary heap,
//! * [`rng::SplitMix64`] and the [`dist`] module — reproducible randomness,
//! * [`lru::StrictLru`] — an index-linked recency lists over `u32` slots,
//! * [`stats`] — counters and exact latency distributions with
//!   percentile and SLA queries.
//!
//! Everything here is deterministic: two runs with the same seed produce
//! identical results, which the property tests rely on.
//!
//! # Examples
//!
//! ```
//! use densekv_sim::{Duration, Scheduler, SimTime};
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_in(Duration::from_micros(5), 42u32);
//! let (time, event) = sched.pop().expect("one event queued");
//! assert_eq!(time, SimTime::ZERO + Duration::from_micros(5));
//! assert_eq!(event, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod lru;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{QueueStats, Scheduler};
pub use rng::{SplitMix64, SplitRng};
pub use time::{Duration, SimTime};
