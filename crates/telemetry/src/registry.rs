//! The metrics registry: counters and log-bucketed latency histograms
//! addressed by static names.
//!
//! Instrumented code registers each metric once, keeps the returned
//! dense-index handle, and records through it — a bounds-checked array
//! write when the registry is enabled, a single branch when it is not.
//! Registries from independent shards merge by name, so per-core or
//! per-stack registries can be folded into one cluster-wide view.

use core::fmt;

use densekv_sim::Duration;

/// Sub-buckets per power-of-two octave of the log histogram. 16 keeps
/// the worst-case relative quantization error of a bucket bound near
/// `1/16 ≈ 6%` while the whole histogram stays ≤ `64 × 16` slots.
const SUBBUCKETS: u64 = 16;
/// log2(SUBBUCKETS), used to shift values into their sub-bucket.
const SUBBUCKET_BITS: u32 = 4;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A latency distribution in logarithmic buckets.
///
/// Unlike [`densekv_sim::stats::LatencyHistogram`], which stores every
/// sample exactly, this type is constant-size: values land in one of
/// `16` sub-buckets per power-of-two octave, so percentile queries are
/// exact to within ~6% of the reported value no matter how many samples
/// are recorded. Count, sum, min, and max stay exact.
///
/// # Examples
///
/// ```
/// use densekv_telemetry::LogHistogram;
/// use densekv_sim::Duration;
///
/// let mut h = LogHistogram::new();
/// for us in 1..=1000u64 {
///     h.record(Duration::from_micros(us));
/// }
/// let p50 = h.percentile(0.50).unwrap();
/// let exact = Duration::from_micros(500);
/// assert!(p50 >= exact && p50.as_secs_f64() < exact.as_secs_f64() * 1.1);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Sample count per bucket, indexed by [`bucket_index`].
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

/// Values below this map to their own exact bucket (covers every octave
/// whose sub-bucket width would round to ≤ 1 ps).
const EXACT_LIMIT: u64 = 2 * SUBBUCKETS;
/// First octave handled logarithmically.
const FIRST_LOG_OCTAVE: u32 = SUBBUCKET_BITS + 1;

/// The bucket a picosecond value lands in.
fn bucket_index(ps: u64) -> usize {
    if ps < EXACT_LIMIT {
        return ps as usize;
    }
    let octave = 63 - ps.leading_zeros();
    let sub = (ps >> (octave - SUBBUCKET_BITS)) & (SUBBUCKETS - 1);
    (EXACT_LIMIT + u64::from(octave - FIRST_LOG_OCTAVE) * SUBBUCKETS + sub) as usize
}

/// Upper bound (inclusive, in ps) of bucket `index` — the value a
/// percentile query reports, so quantiles never under-report.
fn bucket_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < EXACT_LIMIT {
        return index;
    }
    let octave = FIRST_LOG_OCTAVE + ((index - EXACT_LIMIT) / SUBBUCKETS) as u32;
    let sub = (index - EXACT_LIMIT) % SUBBUCKETS;
    let base = 1u64 << octave;
    let width = base >> SUBBUCKET_BITS;
    // Start of the sub-bucket plus its width, minus one to stay
    // inclusive. `width - 1` must bind first: the top sub-bucket of
    // octave 63 ends exactly at u64::MAX, so adding the full width
    // before subtracting would wrap.
    (base + sub * width) + (width - 1)
}

/// Histograms are equal when they hold the same samples, however far
/// their bucket vectors have grown.
impl PartialEq for LogHistogram {
    fn eq(&self, other: &LogHistogram) -> bool {
        (self.count, self.sum_ps, self.min_ps, self.max_ps)
            == (other.count, other.sum_ps, other.min_ps, other.max_ps)
            && self.buckets[self.occupied()] == other.buckets[other.occupied()]
    }
}

impl Eq for LogHistogram {}

impl Default for LogHistogram {
    /// Identical to [`LogHistogram::new`] — in particular `min_ps`
    /// starts at `u64::MAX`, so a defaulted histogram merges and
    /// compares exactly like a `new()` one (`mem::take` on a histogram
    /// relies on this).
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            count: 0,
            sum_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }

    /// Records one latency sample. O(1), no allocation once the bucket
    /// vector has grown to cover the largest value seen.
    pub fn record(&mut self, d: Duration) {
        let ps = d.as_ps();
        let idx = bucket_index(ps);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ps += u128::from(ps);
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every sample, saturating at `u64::MAX` picoseconds.
    #[must_use]
    pub fn sum(&self) -> Duration {
        Duration::from_ps(u64::try_from(self.sum_ps).unwrap_or(u64::MAX))
    }

    /// Exact mean latency; zero when empty.
    #[must_use]
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_ps((self.sum_ps / u128::from(self.count)) as u64)
        }
    }

    /// Exact smallest sample, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_ps(self.min_ps))
    }

    /// Exact largest sample, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_ps(self.max_ps))
    }

    /// The latency at quantile `q` (nearest-rank over the buckets),
    /// reported as the containing bucket's upper bound so the answer
    /// never under-states the tail. Returns `None` when the histogram is
    /// empty or `q` is not a finite value in `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 || !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Duration::from_ps(bucket_bound(idx).min(self.max_ps)));
            }
        }
        Some(Duration::from_ps(self.max_ps))
    }

    /// Fraction of samples whose bucket lies entirely at or below
    /// `bound` (an SLA query, conservative by at most one bucket).
    /// Returns `None` when empty.
    #[must_use]
    pub fn fraction_within(&self, bound: Duration) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let bound_ps = bound.as_ps();
        let within: u64 = self
            .buckets
            .iter()
            .enumerate()
            .filter(|&(idx, _)| bucket_bound(idx) <= bound_ps)
            .map(|(_, &n)| n)
            .sum();
        Some(within as f64 / self.count as f64)
    }

    /// Clears every bucket and resets count/sum/min/max, keeping the
    /// already-grown bucket vector so the next samples stay allocation
    /// free (the `stats reset` path of a live server).
    pub fn reset(&mut self) {
        self.occupied_mut().fill(0);
        self.count = 0;
        self.sum_ps = 0;
        self.min_ps = u64::MAX;
        self.max_ps = 0;
    }

    /// The standard reporting quantiles as a total function: an empty
    /// histogram yields all-zero durations rather than `None`, so render
    /// paths (a `stats latency` reply, a CSV row) never need to pre-check
    /// emptiness.
    #[must_use]
    pub fn quantiles(&self) -> Quantiles {
        let q = |p: f64| self.percentile(p).unwrap_or(Duration::ZERO);
        Quantiles {
            count: self.count,
            mean: self.mean(),
            p50: q(0.50),
            p90: q(0.90),
            p95: q(0.95),
            p99: q(0.99),
            p999: q(0.999),
            max: self.max().unwrap_or(Duration::ZERO),
        }
    }

    /// The buckets that can be non-zero: every sample lies between the
    /// exact minimum and maximum, so a histogram of a few similar
    /// samples resets and merges in time proportional to their spread,
    /// not to the largest value the bucket vector ever grew for.
    fn occupied(&self) -> std::ops::Range<usize> {
        if self.count == 0 {
            return 0..0;
        }
        bucket_index(self.min_ps)..bucket_index(self.max_ps) + 1
    }

    fn occupied_mut(&mut self) -> &mut [u64] {
        let occupied = self.occupied();
        &mut self.buckets[occupied]
    }

    /// Merges another histogram into this one (shard fold-in).
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        let occupied = other.occupied();
        for (mine, theirs) in self.buckets[occupied.clone()]
            .iter_mut()
            .zip(&other.buckets[occupied])
        {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }
}

/// The reporting quantiles of one histogram, zero-filled when empty.
/// Produced by [`LogHistogram::quantiles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantiles {
    /// Number of samples behind these quantiles.
    pub count: u64,
    /// Exact mean (zero when empty).
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
    /// Exact largest sample (zero when empty).
    pub max: Duration,
}

/// A monotonic wall-clock source that reports elapsed time as the
/// sim-typed [`Duration`] the histograms consume — the bridge a live
/// server uses to feed real measured latencies into the same telemetry
/// types the simulator fills.
///
/// # Examples
///
/// ```
/// use densekv_telemetry::Stopwatch;
///
/// let w = Stopwatch::start();
/// let d = w.elapsed();
/// assert!(d >= densekv_sim::Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts the clock now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            start: std::time::Instant::now(),
        }
    }

    /// Wall time elapsed since [`Stopwatch::start`], saturating at what
    /// `u64` picoseconds can hold (~214 days).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        Duration::from_std(self.start.elapsed())
    }

    /// The raw start instant, for callers that need to difference
    /// against their own `Instant` readings.
    #[must_use]
    pub fn started_at(&self) -> std::time::Instant {
        self.start
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.percentile(0.50).unwrap_or(Duration::ZERO),
            self.percentile(0.99).unwrap_or(Duration::ZERO),
            self.max().unwrap_or(Duration::ZERO),
        )
    }
}

/// A registry of named metrics.
///
/// Registration interns the static name into a dense index; recording
/// through the returned handle is an array write. The default registry
/// is off: it accepts every call and records nothing, so instrumented
/// code never branches on "is telemetry on" itself.
///
/// # Examples
///
/// ```
/// use densekv_telemetry::MetricsRegistry;
/// use densekv_sim::Duration;
///
/// let mut m = MetricsRegistry::enabled();
/// let hits = m.counter("kv.hits");
/// m.inc(hits, 3);
/// let lat = m.histogram("request.rtt");
/// m.observe(lat, Duration::from_micros(80));
/// assert_eq!(m.counter_by_name("kv.hits"), Some(3));
/// assert_eq!(m.histogram_by_name("request.rtt").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<(&'static str, u64)>,
    histograms: Vec<(&'static str, LogHistogram)>,
}

impl MetricsRegistry {
    /// A registry that records.
    #[must_use]
    pub fn enabled() -> Self {
        MetricsRegistry {
            enabled: true,
            ..MetricsRegistry::default()
        }
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or re-finds) a counter by name.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(idx) = self.counters.iter().position(|&(n, _)| n == name) {
            return CounterId(idx);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or re-finds) a latency histogram by name.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        if let Some(idx) = self.histograms.iter().position(|(n, _)| *n == name) {
            return HistogramId(idx);
        }
        self.histograms.push((name, LogHistogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        if self.enabled {
            self.counters[id.0].1 += n;
        }
    }

    /// Records one latency sample into a histogram.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, d: Duration) {
        if self.enabled {
            self.histograms[id.0].1.record(d);
        }
    }

    /// Looks a counter up by name (for reports and tests).
    #[must_use]
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks a histogram up by name.
    #[must_use]
    pub fn histogram_by_name(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Renders every metric as an aligned text block, in registration
    /// order (deterministic).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for &(name, v) in &self.counters {
            out.push_str(&format!("{name:<32} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("{name:<32} {h}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotonic_and_contain_their_values() {
        let mut prev = 0;
        for idx in 0..SUBBUCKETS as usize * 40 {
            let bound = bucket_bound(idx);
            assert!(bound >= prev, "bounds must not decrease at {idx}");
            prev = bound;
        }
        for ps in [0u64, 1, 15, 16, 17, 1000, 65_535, 1 << 40, u64::MAX / 2] {
            let bound = bucket_bound(bucket_index(ps));
            assert!(bound >= ps, "bound {bound} must cover {ps}");
            // Within ~1/16 relative error for values above one octave.
            if ps > SUBBUCKETS {
                assert!((bound - ps) as f64 <= ps as f64 / 8.0, "{ps} -> {bound}");
            }
        }
    }

    #[test]
    fn percentiles_track_exact_within_bucket_error() {
        let mut h = LogHistogram::new();
        for us in 1..=10_000u64 {
            h.record(Duration::from_micros(us));
        }
        for (q, exact_us) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let got = h.percentile(q).unwrap().as_micros_f64();
            let exact = exact_us as f64;
            assert!(got >= exact, "p{q} must not under-report: {got} < {exact}");
            assert!(got <= exact * 1.1, "p{q} too coarse: {got} vs {exact}");
        }
        assert_eq!(h.min(), Some(Duration::from_micros(1)));
        assert_eq!(h.max(), Some(Duration::from_micros(10_000)));
        assert_eq!(h.mean(), Duration::from_ps(5_000_500_000));
    }

    #[test]
    fn empty_histogram_is_all_none() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.fraction_within(Duration::from_secs(1)), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn invalid_quantiles_return_none() {
        let mut h = LogHistogram::new();
        h.record(Duration::from_micros(5));
        assert_eq!(h.percentile(-0.1), None);
        assert_eq!(h.percentile(1.5), None);
        assert_eq!(h.percentile(f64::NAN), None);
        assert!(h.percentile(1.0).is_some());
    }

    #[test]
    fn fraction_within_is_conservative() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10));
        }
        let f = h.fraction_within(Duration::from_millis(1)).unwrap();
        assert!((f - 0.9).abs() < 1e-9, "{f}");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for i in 0..200u64 {
            let d = Duration::from_nanos(i * 37 + 1);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            both.record(d);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn registry_roundtrip_and_dedup() {
        let mut m = MetricsRegistry::enabled();
        let c1 = m.counter("x");
        let c2 = m.counter("x");
        assert_eq!(c1, c2);
        m.inc(c1, 2);
        m.inc(c2, 3);
        assert_eq!(m.counter_by_name("x"), Some(5));
        assert_eq!(m.counter_by_name("y"), None);
        let h = m.histogram("depth");
        assert_eq!(h, m.histogram("depth"));
        m.observe(h, Duration::from_micros(2));
        assert!(m.summary().contains("depth"));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::default();
        let c = m.counter("x");
        let h = m.histogram("h");
        m.inc(c, 10);
        m.observe(h, Duration::from_micros(1));
        assert!(!m.is_enabled());
        assert_eq!(m.counter_by_name("x"), Some(0));
        assert_eq!(m.histogram_by_name("h").unwrap().count(), 0);
    }

    #[test]
    fn empty_histogram_quantiles_are_total_and_zero() {
        let h = LogHistogram::new();
        let q = h.quantiles();
        assert_eq!(q.count, 0);
        for d in [q.mean, q.p50, q.p90, q.p95, q.p99, q.p999, q.max] {
            assert_eq!(d, Duration::ZERO);
        }
    }

    #[test]
    fn single_sample_reports_itself_at_every_quantile() {
        let mut h = LogHistogram::new();
        let sample = Duration::from_micros(777);
        h.record(sample);
        // The containing bucket's bound exceeds the sample, but the
        // exact-max cap must pull every quantile back to the sample
        // itself — p50 through p100 of one observation IS that value.
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), Some(sample), "q={q}");
        }
        let s = h.quantiles();
        assert_eq!((s.count, s.p50, s.p999, s.max), (1, sample, sample, sample));
        assert_eq!((h.mean(), h.sum()), (sample, sample));
    }

    #[test]
    fn saturating_bucket_at_u64_max_does_not_panic_or_overflow() {
        let mut h = LogHistogram::new();
        // The top sub-bucket of octave 63: its inclusive bound must be
        // exactly u64::MAX with no wrap-around in bucket_bound.
        h.record(Duration::from_ps(u64::MAX));
        h.record(Duration::from_ps(u64::MAX - 1));
        h.record(Duration::from_nanos(1));
        assert_eq!(h.percentile(1.0), Some(Duration::from_ps(u64::MAX)));
        assert_eq!(h.max(), Some(Duration::from_ps(u64::MAX)));
        assert_eq!(h.sum(), Duration::from_ps(u64::MAX), "the sum saturates");
        let bound = bucket_bound(bucket_index(u64::MAX));
        assert_eq!(bound, u64::MAX);
        // Quantiles stay monotone even with the saturating bucket.
        let q = h.quantiles();
        assert!(q.p50 <= q.p90 && q.p90 <= q.p99 && q.p99 <= q.max);
    }

    #[test]
    fn reset_clears_samples_but_keeps_capacity() {
        let mut h = LogHistogram::new();
        h.record(Duration::from_millis(3));
        let cap = h.buckets.len();
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.buckets.len(), cap);
        h.record(Duration::from_micros(9));
        assert_eq!(h.percentile(1.0), Some(Duration::from_micros(9)));
    }

    #[test]
    fn stopwatch_moves_forward_in_sim_units() {
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let d = w.elapsed();
        assert!(d >= Duration::from_millis(1), "{d}");
        assert!(d < Duration::from_secs(60), "{d}");
    }
}
