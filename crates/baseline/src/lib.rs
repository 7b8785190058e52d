//! The systems the paper compares against (Table 4): Memcached 1.4, 1.6,
//! and "Bags" on a state-of-the-art Xeon server, and the TSSP accelerator.
//!
//! [`specs`] holds the published Table 4 rows, encoded as constants; its
//! tests carry a lock-contention throughput model that *derives* those
//! throughputs from per-op service time and serialization, so the
//! 1.4 → 1.6 → Bags ordering is explained rather than asserted. The
//! `lock_scaling` subcommand of `densekv-bench` measures the same lock
//! variants on real host threads, over the live server's
//! `densekv_serve::ShardedStore`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod specs;

pub use specs::{BAGS, TSSP};
