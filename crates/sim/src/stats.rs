//! Measurement helpers: exact latency distributions.

use core::fmt;

use crate::time::Duration;

/// A latency distribution with exact percentile and SLA queries.
///
/// Samples are stored exactly (simulation runs in this workspace record
/// hundreds to hundreds of thousands of latencies, where exactness is
/// worth more than constant memory). Once sorted, which producers do with
/// [`LatencyHistogram::sort`] before returning one, a percentile or the
/// max is an index. Samples recorded in order stay sorted; a
/// [`merge`](LatencyHistogram::merge) or an out-of-order sample unsorts
/// the histogram, and a query on it then sorts a copy.
///
/// # Examples
///
/// ```
/// use densekv_sim::stats::LatencyHistogram;
/// use densekv_sim::Duration;
///
/// let mut h = LatencyHistogram::new();
/// for us in 1..=100u64 {
///     h.record(Duration::from_micros(us));
/// }
/// assert_eq!(h.percentile(0.50), Some(Duration::from_micros(50)));
/// assert_eq!(h.fraction_within(Duration::from_micros(80)), 0.80);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    /// Samples in picoseconds; sorted iff `sorted`.
    samples: Vec<u64>,
    sorted: bool,
    sum_ps: u128,
}

impl LatencyHistogram {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        LatencyHistogram {
            samples: Vec::new(),
            sorted: true,
            sum_ps: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        let ps = d.as_ps();
        if self.sorted && self.samples.last().is_some_and(|&last| ps < last) {
            self.sorted = false;
        }
        self.samples.push(ps);
        self.sum_ps += ps as u128;
    }

    fn sorted_samples(&mut self) -> &[u64] {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        &self.samples
    }

    /// Sorts the samples in place, so that later queries need no copy.
    /// Changes no query's answer.
    pub fn sort(&mut self) {
        self.sorted_samples();
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Mean latency; zero when empty.
    pub fn mean(&self) -> Duration {
        if self.samples.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_ps((self.sum_ps / self.samples.len() as u128) as u64)
        }
    }

    /// Largest recorded sample; zero when empty.
    pub fn max(&self) -> Duration {
        let max = if self.sorted {
            self.samples.last().copied()
        } else {
            self.samples.iter().copied().max()
        };
        Duration::from_ps(max.unwrap_or(0))
    }

    /// The latency at quantile `q` (nearest-rank), or `None` when the
    /// distribution is empty or `q` is not a finite value in `[0, 1]` —
    /// an invalid quantile is a caller bug, but answering `None` keeps a
    /// report generator from taking down a whole run.
    pub fn percentile(&self, q: f64) -> Option<Duration> {
        if !q.is_finite() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if self.samples.is_empty() {
            return None;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        if self.sorted {
            return Some(Duration::from_ps(self.samples[rank - 1]));
        }
        // Unsorted only after a merge or an unsorted record: sort a copy
        // rather than demanding &mut self. Call `sort` first to avoid it.
        let mut copy = self.clone();
        Some(Duration::from_ps(copy.sorted_samples()[rank - 1]))
    }

    /// Exact fraction of samples at or below `bound`; `1.0` when empty.
    pub fn fraction_within(&self, bound: Duration) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let within = self
            .samples
            .iter()
            .filter(|&&ps| ps <= bound.as_ps())
            .count();
        within as f64 / self.samples.len() as f64
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
        self.sum_ps += other.sum_ps;
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p99={} max={}",
            self.count(),
            self.mean(),
            self.percentile(0.50).unwrap_or(Duration::ZERO),
            self.percentile(0.99).unwrap_or(Duration::ZERO),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_exact() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(300));
        assert_eq!(h.mean(), Duration::from_nanos(200));
        assert_eq!(h.max(), Duration::from_nanos(300));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut h = LatencyHistogram::new();
        // Insert out of order to exercise the lazy sort.
        for us in (1..=1000u64).rev() {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.percentile(0.0), Some(Duration::from_micros(1)));
        assert_eq!(h.percentile(0.5), Some(Duration::from_micros(500)));
        assert_eq!(h.percentile(0.99), Some(Duration::from_micros(990)));
        assert_eq!(h.percentile(1.0), Some(Duration::from_micros(1000)));
    }

    #[test]
    fn percentile_of_empty_is_none() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.fraction_within(Duration::from_millis(1)), 1.0);
    }

    #[test]
    fn fraction_within_is_exact() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(568)); // just under 1 ms
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10));
        }
        assert_eq!(h.fraction_within(Duration::from_millis(1)), 0.9);
        assert_eq!(h.fraction_within(Duration::from_micros(568)), 0.9);
        assert_eq!(h.fraction_within(Duration::from_micros(567)), 0.0);
    }

    #[test]
    fn zero_samples_allowed() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.percentile(0.5), Some(Duration::ZERO));
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_nanos(1000));
        b.record(Duration::from_nanos(10));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_nanos(1000));
        assert_eq!(a.percentile(0.0), Some(Duration::from_nanos(10)));
    }

    #[test]
    fn display_is_nonempty() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(7));
        assert!(h.to_string().contains("n=1"));
    }

    #[test]
    fn bad_quantile_returns_none() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.percentile(1.5), None);
        assert_eq!(h.percentile(-0.01), None);
        assert_eq!(h.percentile(f64::NAN), None);
        assert_eq!(h.percentile(f64::INFINITY), None);
        assert!(h.percentile(1.0).is_some());
    }

    #[test]
    fn all_empty_queries_are_total() {
        // The full empty-distribution contract in one place: no panics,
        // no NaN — `None` or a documented sentinel everywhere.
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.max(), Duration::ZERO);
        assert_eq!(h.fraction_within(Duration::ZERO), 1.0);
    }
}
