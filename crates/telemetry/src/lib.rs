//! Passive observability for the `densekv` simulators.
//!
//! The paper's core evidence is a *breakdown* — Fig. 4 decomposes a
//! request's round trip into NIC/TCP/kv/memory phases — and every
//! Mercury-vs-Iridium conclusion flows from seeing where time goes.
//! This crate gives the whole workspace that visibility at sub-run
//! granularity, in three layers:
//!
//! * [`MetricsRegistry`] — counters and constant-memory log-bucketed
//!   latency histograms ([`LogHistogram`]) addressed by static names.
//!   Recording is an indexed array write; a disabled registry is a
//!   single branch. The live server's plane holds its [`LogHistogram`]s
//!   directly.
//! * [`Tracer`] — request-span tracing: each sampled request records
//!   its phase transitions (client → NIC rx → TCP → kv lookup →
//!   memory/cache → TCP tx → client) with sim-timestamps, built via
//!   [`SpanBuilder`] so the phases tile the round trip exactly.
//!   Exports as Chrome trace-event JSON (loadable in Perfetto) and as
//!   JSONL. Deterministic every-Nth sampling keeps traces bounded.
//! * [`TimelineSampler`] / [`BucketedTimeline`] — gauge snapshots at
//!   fixed sim-time intervals rendered as CSV, and fixed-width
//!   completion-time buckets (the failover recovery curve).
//!
//! The critical invariant: telemetry is **passive**. A simulation run
//! with telemetry enabled and one with it disabled produce bit-identical
//! results — same seeds, same percentiles — which the workspace's
//! property tests enforce.
//!
//! # Examples
//!
//! ```
//! use densekv_telemetry::{Telemetry, TelemetryConfig};
//! use densekv_sim::{Duration, SimTime};
//!
//! let mut t = Telemetry::enabled(TelemetryConfig {
//!     sample_every: 10,
//!     timeline_interval: Duration::from_micros(100),
//!     timeline_columns: vec!["queue_depth"],
//! });
//! let served = t.metrics.counter("requests.served");
//! t.metrics.inc(served, 1);
//! t.sampler.set(0, 4.0);
//! t.sampler.finish(SimTime::from_ps(1_000_000));
//! assert_eq!(t.metrics.counter_by_name("requests.served"), Some(1));
//! assert!(!t.sampler.to_csv().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod registry;
pub mod timeline;
pub mod trace;
pub mod window;

pub use json::validate_json;
pub use registry::{CounterId, HistogramId, LogHistogram, MetricsRegistry, Quantiles, Stopwatch};
pub use timeline::{BucketedTimeline, TimelineBucket, TimelineSampler};
pub use trace::{SpanBuilder, Tracer};
pub use window::{SloConfig, SloSnapshot, SloTracker, WindowedHistogram, WindowedRate};

use densekv_sim::Duration;

/// How an enabled [`Telemetry`] is shaped.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Trace every Nth request (≥ 1).
    pub sample_every: u64,
    /// Gauge-snapshot interval of the timeline sampler.
    pub timeline_interval: Duration,
    /// Timeline column names, in CSV order.
    pub timeline_columns: Vec<&'static str>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: 64,
            timeline_interval: Duration::from_millis(1),
            timeline_columns: Vec::new(),
        }
    }
}

/// The bundle a simulator threads through its run: metrics + tracer +
/// timeline sampler.
///
/// Simulators take `&mut Telemetry` and record unconditionally; a
/// [`Telemetry::disabled`] bundle turns every call into a no-op, so the
/// hot path never grows a second code shape (which is also what makes
/// "telemetry cannot change results" easy to believe and cheap to test).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Named counters and histograms.
    pub metrics: MetricsRegistry,
    /// Request-span collection.
    pub tracer: Tracer,
    /// Fixed-interval gauge snapshots.
    pub sampler: TimelineSampler,
}

impl Telemetry {
    /// A fully enabled bundle.
    #[must_use]
    pub fn enabled(config: TelemetryConfig) -> Self {
        Telemetry {
            metrics: MetricsRegistry::enabled(),
            tracer: Tracer::every(config.sample_every),
            sampler: TimelineSampler::new(config.timeline_interval, &config.timeline_columns),
        }
    }

    /// A bundle where every recording call is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// True if any component records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled() || self.tracer.is_enabled() || self.sampler.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_fully_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(!t.metrics.is_enabled());
        assert!(!t.tracer.is_enabled());
        assert!(!t.sampler.is_enabled());
    }

    #[test]
    fn enabled_bundle_wires_the_config_through() {
        let t = Telemetry::enabled(TelemetryConfig {
            sample_every: 3,
            timeline_interval: Duration::from_micros(5),
            timeline_columns: vec!["a", "b"],
        });
        assert!(t.is_enabled());
        assert!(t.tracer.samples(0) && !t.tracer.samples(1) && t.tracer.samples(3));
        assert_eq!(t.sampler.columns(), &["a", "b"]);
    }
}
