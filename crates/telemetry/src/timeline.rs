//! Time-series views of a running simulation.
//!
//! Two complementary shapes:
//!
//! * [`TimelineSampler`] — snapshots a set of gauges at fixed sim-time
//!   intervals (queue depth, port utilization, hit rate…) and renders
//!   the rows as CSV. Instrumented code keeps the gauges current; the
//!   sampler emits a row whenever simulated time crosses an interval
//!   boundary, carrying the last-known values forward.
//! * [`BucketedTimeline`] — accumulates per-event observations
//!   (latency, hits, misses) into fixed-width buckets keyed by the
//!   event's completion time. This is the failover recovery-curve
//!   machinery previously private to `densekv-cluster`, promoted here
//!   so every simulator shares one implementation.

use core::ops::Deref;

use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, SimTime};

/// Snapshots gauge values at fixed simulated-time intervals.
///
/// # Examples
///
/// ```
/// use densekv_telemetry::TimelineSampler;
/// use densekv_sim::{Duration, SimTime};
///
/// let mut s = TimelineSampler::new(Duration::from_micros(10), &["depth"]);
/// s.set(0, 3.0);
/// s.advance(SimTime::from_ps(25_000_000)); // 25 us: rows at 10 and 20
/// assert_eq!(s.rows().len(), 2);
/// assert!(s.to_csv().starts_with("t_us,depth\n"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimelineSampler {
    enabled: bool,
    interval_ps: u64,
    columns: Vec<&'static str>,
    current: Vec<f64>,
    /// Emitted rows: (boundary time in ps, gauge values at that time).
    rows: Vec<(u64, Vec<f64>)>,
    next_ps: u64,
}

impl TimelineSampler {
    /// A sampler emitting one row per `interval` with the given columns.
    #[must_use]
    pub fn new(interval: Duration, columns: &[&'static str]) -> Self {
        let interval_ps = interval.as_ps().max(1);
        TimelineSampler {
            enabled: true,
            interval_ps,
            columns: columns.to_vec(),
            current: vec![0.0; columns.len()],
            rows: Vec::new(),
            next_ps: interval_ps,
        }
    }

    /// A sampler that ignores every call and holds no rows.
    #[must_use]
    pub fn disabled() -> Self {
        TimelineSampler::default()
    }

    /// Whether the sampler records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Column names, in CSV order.
    #[must_use]
    pub fn columns(&self) -> &[&'static str] {
        &self.columns
    }

    /// Updates gauge `col` (index into [`TimelineSampler::columns`]).
    /// The value is carried into every subsequent row until changed.
    #[inline]
    pub fn set(&mut self, col: usize, value: f64) {
        if self.enabled {
            self.current[col] = value;
        }
    }

    /// Advances simulated time to `now`, emitting one row for every
    /// interval boundary crossed. Call this from the simulation's event
    /// loop; calls that cross no boundary are a compare and return.
    #[inline]
    pub fn advance(&mut self, now: SimTime) {
        if !self.enabled {
            return;
        }
        let now_ps = now.as_ps();
        while self.next_ps <= now_ps {
            self.rows.push((self.next_ps, self.current.clone()));
            self.next_ps += self.interval_ps;
        }
    }

    /// Emits a final row at `now` itself (so a run's last partial
    /// interval still appears), unless one exists at that exact time.
    pub fn finish(&mut self, now: SimTime) {
        self.advance(now);
        if self.enabled && self.rows.last().is_none_or(|&(t, _)| t != now.as_ps()) {
            self.rows.push((now.as_ps(), self.current.clone()));
        }
    }

    /// The emitted rows: `(time, values)` pairs in time order.
    #[must_use]
    pub fn rows(&self) -> &[(u64, Vec<f64>)] {
        &self.rows
    }

    /// Renders the rows as CSV with a `t_us` time column (microseconds,
    /// 3 decimal places) followed by the gauge columns (4 decimals).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us");
        for c in &self.columns {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (t_ps, values) in &self.rows {
            out.push_str(&format!("{:.3}", *t_ps as f64 / 1e6));
            for v in values {
                out.push_str(&format!(",{v:.4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// One bucket of a [`BucketedTimeline`].
#[derive(Debug, Clone)]
pub struct TimelineBucket {
    /// Bucket start, in simulated time.
    pub start: SimTime,
    /// Latencies of events completing in this bucket.
    pub latency: LatencyHistogram,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl TimelineBucket {
    /// Events completed in this bucket.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.latency.count()
    }

    /// Hit rate in this bucket (`1.0` when idle, so a plotted recovery
    /// curve reads "healthy" through empty buckets).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fixed-width buckets accumulating latency and hit/miss counts by
/// completion time — the recovery-curve timeline of the cluster
/// simulator's failover experiments.
///
/// Derefs to `[TimelineBucket]`, so indexing and iteration read like
/// the `Vec` it replaces.
///
/// # Examples
///
/// ```
/// use densekv_telemetry::BucketedTimeline;
/// use densekv_sim::{Duration, SimTime};
///
/// let mut t = BucketedTimeline::new(Duration::from_micros(100));
/// t.record(SimTime::from_ps(50_000_000), Duration::from_micros(12), 1, 0);
/// t.record(SimTime::from_ps(150_000_000), Duration::from_micros(40), 0, 1);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t[0].hits, 1);
/// assert_eq!(t[1].hit_rate(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct BucketedTimeline {
    bucket_ps: u64,
    buckets: Vec<TimelineBucket>,
}

impl BucketedTimeline {
    /// A timeline with `width`-wide buckets (clamped to ≥ 1 ps).
    #[must_use]
    pub fn new(width: Duration) -> Self {
        BucketedTimeline {
            bucket_ps: width.as_ps().max(1),
            buckets: Vec::new(),
        }
    }

    /// The bucket width.
    #[must_use]
    pub fn bucket_width(&self) -> Duration {
        Duration::from_ps(self.bucket_ps)
    }

    /// The index of the bucket containing `at` (buckets are created on
    /// demand by [`BucketedTimeline::record`]).
    #[must_use]
    pub fn bucket_index(&self, at: SimTime) -> usize {
        (at.as_ps() / self.bucket_ps) as usize
    }

    /// Accounts one completed event at time `at`: its latency plus the
    /// hits/misses it contributed.
    pub fn record(&mut self, at: SimTime, latency: Duration, hits: u64, misses: u64) {
        let bucket = self.bucket_index(at);
        while self.buckets.len() <= bucket {
            self.buckets.push(TimelineBucket {
                start: SimTime::from_ps(self.buckets.len() as u64 * self.bucket_ps),
                latency: LatencyHistogram::new(),
                hits: 0,
                misses: 0,
            });
        }
        let slot = &mut self.buckets[bucket];
        slot.latency.record(latency);
        slot.hits += hits;
        slot.misses += misses;
    }

    /// Renders the non-empty buckets as CSV:
    /// `t_us,completed,hit_rate,p50_us,p99_us`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us,completed,hit_rate,p50_us,p99_us\n");
        for b in &self.buckets {
            if b.completed() == 0 {
                continue;
            }
            let p50 = b.latency.percentile(0.50).unwrap_or(Duration::ZERO);
            let p99 = b.latency.percentile(0.99).unwrap_or(Duration::ZERO);
            out.push_str(&format!(
                "{:.3},{},{:.4},{:.3},{:.3}\n",
                b.start.elapsed_since(SimTime::ZERO).as_micros_f64(),
                b.completed(),
                b.hit_rate(),
                p50.as_micros_f64(),
                p99.as_micros_f64(),
            ));
        }
        out
    }

    /// Renders the non-empty buckets as an ASCII hit-rate strip chart
    /// (`width` columns of `#`), the view the cluster example and the
    /// failover report share.
    #[must_use]
    pub fn render_hit_rate_ascii(&self, width: usize) -> String {
        let mut out = String::new();
        for b in &self.buckets {
            if b.completed() == 0 {
                continue;
            }
            let bar = "#".repeat((b.hit_rate() * width as f64).round() as usize);
            out.push_str(&format!(
                "  {:>10}  {:>7.2}%  {bar}\n",
                b.start.elapsed_since(SimTime::ZERO).to_string(),
                b.hit_rate() * 100.0,
            ));
        }
        out
    }
}

impl Deref for BucketedTimeline {
    type Target = [TimelineBucket];

    fn deref(&self) -> &Self::Target {
        &self.buckets
    }
}

impl<'a> IntoIterator for &'a BucketedTimeline {
    type Item = &'a TimelineBucket;
    type IntoIter = core::slice::Iter<'a, TimelineBucket>;

    fn into_iter(self) -> Self::IntoIter {
        self.buckets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_emits_rows_at_boundaries() {
        let mut s = TimelineSampler::new(Duration::from_micros(10), &["a", "b"]);
        s.set(0, 1.0);
        s.advance(SimTime::from_ps(5_000_000)); // 5 us: nothing yet
        assert!(s.rows().is_empty());
        s.set(1, 2.0);
        s.advance(SimTime::from_ps(31_000_000)); // 31 us: rows at 10/20/30
        assert_eq!(s.rows().len(), 3);
        assert_eq!(s.rows()[0].1, vec![1.0, 2.0]);
        s.finish(SimTime::from_ps(35_000_000));
        assert_eq!(s.rows().len(), 4);
        let csv = s.to_csv();
        assert!(csv.starts_with("t_us,a,b\n"));
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("10.000,1.0000,2.0000"));
    }

    #[test]
    fn sampler_finish_does_not_duplicate_a_boundary_row() {
        let mut s = TimelineSampler::new(Duration::from_micros(10), &["a"]);
        s.finish(SimTime::from_ps(10_000_000));
        assert_eq!(s.rows().len(), 1);
    }

    #[test]
    fn disabled_sampler_is_inert() {
        let mut s = TimelineSampler::disabled();
        s.advance(SimTime::from_ps(1 << 40));
        s.finish(SimTime::from_ps(1 << 41));
        assert!(s.rows().is_empty());
        assert!(!s.is_enabled());
    }

    #[test]
    fn bucketed_timeline_matches_manual_binning() {
        let mut t = BucketedTimeline::new(Duration::from_micros(100));
        for i in 0..10u64 {
            let at = SimTime::from_ps(i * 50_000_000); // every 50 us
            t.record(at, Duration::from_micros(i + 1), i % 2, (i + 1) % 2);
        }
        // 10 events at 50 us spacing over 100 us buckets -> 5 buckets.
        assert_eq!(t.len(), 5);
        assert_eq!(t.iter().map(TimelineBucket::completed).sum::<u64>(), 10);
        assert_eq!(t[0].completed(), 2);
        assert_eq!(t.bucket_index(SimTime::from_ps(250_000_000)), 2);
        assert!(t.to_csv().lines().count() > 1);
        assert!(t.render_hit_rate_ascii(40).contains('#'));
    }

    #[test]
    fn idle_buckets_read_healthy() {
        let mut t = BucketedTimeline::new(Duration::from_micros(1));
        t.record(SimTime::from_ps(5_000_000), Duration::from_nanos(10), 0, 0);
        assert_eq!(t[5].hit_rate(), 1.0);
        assert_eq!(t[0].completed(), 0);
        // Empty buckets are skipped in the CSV.
        assert_eq!(t.to_csv().lines().count(), 2);
    }

    #[test]
    fn zero_width_clamps() {
        let t = BucketedTimeline::new(Duration::ZERO);
        assert_eq!(t.bucket_width(), Duration::from_ps(1));
    }
}
