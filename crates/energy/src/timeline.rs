//! Watts-vs-sim-time power timelines.

use densekv_sim::{Duration, SimTime};

/// Fixed-width sim-time buckets of deposited joules, rendered as a
/// watts-vs-time curve.
///
/// Event energy lands in the bucket of its timestamp
/// ([`PowerTimeline::deposit`]); constant draws are spread across every
/// bucket they overlap ([`PowerTimeline::deposit_span`]), so a stack
/// that dies mid-run stops contributing watts from its death bucket
/// onward — exactly the instrument needed to see failover power
/// transients.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTimeline {
    width: Duration,
    joules: Vec<f64>,
}

impl PowerTimeline {
    /// An empty timeline with `width`-wide buckets.
    ///
    /// # Panics
    /// Panics if `width` is zero.
    #[must_use]
    pub fn new(width: Duration) -> Self {
        assert!(width > Duration::ZERO, "bucket width must be positive");
        PowerTimeline {
            width,
            joules: Vec::new(),
        }
    }

    /// Bucket width.
    #[must_use]
    pub fn bucket_width(&self) -> Duration {
        self.width
    }

    fn bucket_of(&self, at: SimTime) -> usize {
        (at.elapsed_since(SimTime::ZERO).as_ps() / self.width.as_ps()) as usize
    }

    fn grow_to(&mut self, bucket: usize) {
        if self.joules.len() <= bucket {
            self.joules.resize(bucket + 1, 0.0);
        }
    }

    /// Deposits event energy into the bucket containing `at`.
    pub fn deposit(&mut self, at: SimTime, joules: f64) {
        let b = self.bucket_of(at);
        self.grow_to(b);
        self.joules[b] += joules;
    }

    /// Spreads a constant draw of `watts` held over `[start, end)`
    /// across every bucket the span overlaps, pro-rated by overlap.
    pub fn deposit_span(&mut self, start: SimTime, end: SimTime, watts: f64) {
        if end <= start {
            return;
        }
        let width_ps = self.width.as_ps();
        let start_ps = start.elapsed_since(SimTime::ZERO).as_ps();
        let end_ps = end.elapsed_since(SimTime::ZERO).as_ps();
        let last = ((end_ps - 1) / width_ps) as usize;
        self.grow_to(last);
        let mut b = (start_ps / width_ps) as usize;
        while b <= last {
            let lo = start_ps.max(b as u64 * width_ps);
            let hi = end_ps.min((b as u64 + 1) * width_ps);
            let secs = Duration::from_ps(hi - lo).as_secs_f64();
            self.joules[b] += watts * secs;
            b += 1;
        }
    }

    /// Number of buckets with at least one deposit boundary reached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.joules.len()
    }

    /// Whether nothing has been deposited.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.joules.is_empty()
    }

    /// Joules in bucket `i` (`0.0` past the end).
    #[must_use]
    pub fn joules(&self, i: usize) -> f64 {
        self.joules.get(i).copied().unwrap_or(0.0)
    }

    /// Mean watts over bucket `i`.
    #[must_use]
    pub fn watts(&self, i: usize) -> f64 {
        self.joules(i) / self.width.as_secs_f64()
    }

    /// Total deposited joules.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Peak bucket power, watts.
    #[must_use]
    pub fn peak_watts(&self) -> f64 {
        self.joules
            .iter()
            .fold(0.0_f64, |acc, &j| acc.max(j / self.width.as_secs_f64()))
    }

    /// Renders `time_s,watts` CSV rows (bucket midpoints).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s,watts\n");
        let width_s = self.width.as_secs_f64();
        for (i, &j) in self.joules.iter().enumerate() {
            let mid = (i as f64 + 0.5) * width_s;
            out.push_str(&format!("{:.9},{:.6}\n", mid, j / width_s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposits_land_in_their_buckets() {
        let mut t = PowerTimeline::new(Duration::from_micros(10));
        t.deposit(SimTime::ZERO + Duration::from_micros(5), 2e-6);
        t.deposit(SimTime::ZERO + Duration::from_micros(25), 4e-6);
        assert_eq!(t.len(), 3);
        assert_eq!(t.joules(0), 2e-6);
        assert_eq!(t.joules(1), 0.0);
        assert_eq!(t.joules(2), 4e-6);
        // 2 uJ over a 10 us bucket = 0.2 W.
        assert!((t.watts(0) - 0.2).abs() < 1e-12);
        assert!((t.peak_watts() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn span_is_prorated_across_buckets() {
        let mut t = PowerTimeline::new(Duration::from_micros(10));
        // 1 W from 5 us to 25 us: 5 us in bucket 0, 10 us in bucket 1,
        // 5 us in bucket 2.
        t.deposit_span(
            SimTime::ZERO + Duration::from_micros(5),
            SimTime::ZERO + Duration::from_micros(25),
            1.0,
        );
        assert!((t.joules(0) - 5e-6).abs() < 1e-18);
        assert!((t.joules(1) - 10e-6).abs() < 1e-18);
        assert!((t.joules(2) - 5e-6).abs() < 1e-18);
        assert!((t.total_j() - 20e-6).abs() < 1e-18);
        // Interior bucket sits at the full 1 W.
        assert!((t.watts(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_midpoints() {
        let mut t = PowerTimeline::new(Duration::from_micros(10));
        t.deposit(SimTime::ZERO, 1e-5);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_s,watts"));
        let row = lines.next().unwrap();
        assert!(
            row.starts_with("0.000005000,"),
            "midpoint of bucket 0: {row}"
        );
    }
}
