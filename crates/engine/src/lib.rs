//! A bricksKV-style in-memory storage engine: key/value separation,
//! hashed key buckets with bounded probing, and power-of-two value
//! tiers of fixed-size pages managed by multi-level bitmaps.
//!
//! Where the Memcached-model [`densekv_kv::KvStore`] exists to *time*
//! a store (its slab offsets feed the cache/memory models), this crate
//! exists to *be* one: GETs really walk hash → bucket slot → tier page
//! through resident memory, which is what the paper's density argument
//! needs the serving stack to exercise. The layout follows bricksKV:
//!
//! * [`bitmap`] — multi-level allocation bitmaps: each upper-level bit
//!   summarizes 8 lower bits, and find-free is a top-down bit scan,
//! * [`tier`] — eight fixed-page value tiers (32 B doubling to 4 KB)
//!   plus an overflow arena for larger values, all charged against one
//!   memory budget,
//! * [`engine`] — the engine itself: an open-addressing bucket table
//!   (linear probing bounded at 32 slots, bucket-doubling on probe
//!   failure) over the tiers, implementing
//!   [`densekv_kv::StoreBackend`] with Memcached 1.4 semantics so the
//!   protocol loop, the TCP front-end, and the differential tests run
//!   it interchangeably with the model store.
//!
//! # Examples
//!
//! ```
//! use densekv_engine::Engine;
//! use densekv_kv::{StoreBackend, StoreConfig};
//!
//! let mut engine = Engine::new(StoreConfig::with_capacity(16 << 20));
//! engine.set_with_flags(b"user:42", b"hello".to_vec(), 0, None, 0)?;
//! let hit = engine.get(b"user:42", 0).expect("resident");
//! assert_eq!(hit.value(), b"hello");
//! # Ok::<(), densekv_kv::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
pub mod engine;
pub mod tier;

pub use bitmap::MultiLevelBitmap;
pub use engine::{Engine, PROBE_LIMIT};
