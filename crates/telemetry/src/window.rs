//! Time-windowed views over the cumulative metrics plane: rotating
//! histogram rings, windowed rates with EWMA smoothing, and
//! multi-window SLO burn-rate tracking.
//!
//! The cumulative [`LogHistogram`] answers "what has p99 been since
//! start"; a live operator (and the failover experiments) need "what
//! was p99 in the *last second*" and "how fast are we burning the 1 ms
//! objective *right now*". These types layer that view on top of the
//! existing plane without forking it:
//!
//! * [`WindowedHistogram`] — one open window plus a bounded ring of
//!   closed windows. Every sample lands in exactly one window, so the
//!   windows ever closed merge **bit-identically** into a histogram fed
//!   the same samples, which the property tests enforce. Windowing adds
//!   a view; it never forks the data.
//! * [`WindowedRate`] — per-window event counts with an EWMA-smoothed
//!   events/sec rate.
//! * [`SloTracker`] — multi-window burn-rate alerting in the SRE
//!   style: a short window catches fast burn, a long window confirms
//!   it is sustained, and the alert only trips when *both* exceed the
//!   threshold.
//!
//! All types are driven externally: callers decide when a window
//! closes (`rotate`), so the same machinery serves wall-clock windows
//! in the TCP front-end and sim-time buckets in the cluster simulator.

use std::collections::VecDeque;

use densekv_sim::Duration;

use crate::registry::LogHistogram;

/// Smallest error budget the burn-rate math will divide by; a target
/// of 1.0 (zero budget) would otherwise make every violation an
/// infinite burn.
const MIN_BUDGET: f64 = 1e-9;

/// A ring of rotating [`LogHistogram`] windows.
///
/// `record` writes the open window; `rotate` closes it into the ring,
/// dropping the oldest closed window once the ring is full:
///
/// ```
/// use densekv_sim::Duration;
/// use densekv_telemetry::WindowedHistogram;
///
/// let mut w = WindowedHistogram::new(2);
/// for us in [10u64, 250, 80, 4000, 15] {
///     w.record(Duration::from_micros(us));
///     assert_eq!(w.rotate().count(), 1);
/// }
/// // 5 rotations with capacity 2: the ring keeps the newest two.
/// assert_eq!(w.retained(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedHistogram {
    /// Maximum closed windows retained (≥ 1).
    capacity: usize,
    /// The open window samples land in.
    current: LogHistogram,
    /// Closed windows, oldest first.
    closed: VecDeque<LogHistogram>,
}

impl WindowedHistogram {
    /// Creates a windowed histogram retaining up to `capacity` closed
    /// windows (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        WindowedHistogram {
            capacity: capacity.max(1),
            current: LogHistogram::new(),
            closed: VecDeque::new(),
        }
    }

    /// Records one sample into the open window.
    pub fn record(&mut self, d: Duration) {
        self.current.record(d);
    }

    /// Folds a whole histogram of samples into the open window, as if
    /// each had been [`WindowedHistogram::record`]ed.
    pub fn record_all(&mut self, samples: &LogHistogram) {
        self.current.merge(samples);
    }

    /// Closes the open window into the ring and starts a fresh one,
    /// returning the histogram of the window just closed. Closing an
    /// empty window is legal and meaningful: it is how idle time shows
    /// up in the ring. Once the ring is full, the window it drops is
    /// reset and reopened, grown buckets and all, so rotation allocates
    /// nothing.
    pub fn rotate(&mut self) -> &LogHistogram {
        let mut open = if self.closed.len() == self.capacity {
            self.closed.pop_front().expect("the ring is full")
        } else {
            LogHistogram::new()
        };
        open.reset();
        std::mem::swap(&mut self.current, &mut open);
        self.closed.push_back(open);
        self.closed.back().expect("just closed")
    }

    /// Closed windows still in the ring, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &LogHistogram> {
        self.closed.iter()
    }

    /// Number of closed windows currently retained.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.closed.len()
    }

    /// Clears the open window and the ring.
    pub fn reset(&mut self) {
        self.current.reset();
        self.closed.clear();
    }
}

/// A windowed event counter with an EWMA-smoothed rate.
///
/// `record` adds to the open window; `rotate` closes it, converts the
/// count to events/sec over the configured window length, and folds it
/// into the EWMA. The instantaneous last-window rate and the smoothed
/// rate are both exposed — dashboards show the former, alerting logic
/// prefers the latter.
///
/// ```
/// use densekv_sim::Duration;
/// use densekv_telemetry::WindowedRate;
///
/// let mut r = WindowedRate::new(Duration::from_millis(500), 0.5);
/// r.record(100);
/// r.rotate();
/// assert_eq!(r.last_rate(), 200.0); // 100 events per half second
/// assert_eq!(r.ewma_rate(), 200.0); // first window seeds the EWMA
/// r.rotate(); // empty window
/// assert_eq!(r.last_rate(), 0.0);
/// assert_eq!(r.ewma_rate(), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct WindowedRate {
    /// Nominal window length used to convert counts to rates.
    window: Duration,
    /// EWMA smoothing factor in `(0, 1]`; 1 tracks only the last
    /// window.
    alpha: f64,
    /// Events in the open window.
    current: u64,
    /// Events in the most recently closed window.
    last: u64,
    /// Smoothed events/sec; `None` until the first rotation.
    ewma: Option<f64>,
}

impl WindowedRate {
    /// Creates a rate tracker for windows of the given length with the
    /// given EWMA smoothing factor (clamped into `(0, 1]`).
    #[must_use]
    pub fn new(window: Duration, alpha: f64) -> Self {
        WindowedRate {
            window,
            alpha: if alpha.is_finite() {
                alpha.clamp(f64::MIN_POSITIVE, 1.0)
            } else {
                1.0
            },
            current: 0,
            last: 0,
            ewma: None,
        }
    }

    /// Adds `n` events to the open window.
    pub fn record(&mut self, n: u64) {
        self.current += n;
    }

    /// Closes the open window and folds its rate into the EWMA.
    pub fn rotate(&mut self) {
        self.last = std::mem::take(&mut self.current);
        let rate = self.to_rate(self.last);
        self.ewma = Some(match self.ewma {
            None => rate,
            Some(prev) => self.alpha * rate + (1.0 - self.alpha) * prev,
        });
    }

    /// Events/sec over the most recently closed window.
    #[must_use]
    pub fn last_rate(&self) -> f64 {
        self.to_rate(self.last)
    }

    /// EWMA-smoothed events/sec (0 before the first rotation).
    #[must_use]
    pub fn ewma_rate(&self) -> f64 {
        self.ewma.unwrap_or(0.0)
    }

    /// Events in the most recently closed window.
    #[must_use]
    pub fn last_count(&self) -> u64 {
        self.last
    }

    /// Clears counts and the EWMA.
    pub fn reset(&mut self) {
        self.current = 0;
        self.last = 0;
        self.ewma = None;
    }

    fn to_rate(&self, count: u64) -> f64 {
        let secs = self.window.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        count as f64 / secs
    }
}

/// How an [`SloTracker`] judges the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// The latency objective requests must meet.
    pub objective: Duration,
    /// Fraction of requests that must meet the objective, e.g. `0.95`
    /// for "p95 ≤ objective". The error budget is `1 - target`.
    pub target: f64,
    /// Length of the short (fast-burn) alerting window, in rotations.
    pub short_windows: usize,
    /// Length of the long (sustained-burn) alerting window, in
    /// rotations.
    pub long_windows: usize,
    /// Burn rate both windows must exceed before [`SloTracker::alerting`]
    /// trips. Burn 1.0 consumes the budget exactly as fast as it
    /// accrues.
    pub alert_burn: f64,
}

impl Default for SloConfig {
    /// The paper's headline objective: 95% of requests within 1 ms,
    /// judged over 5-window fast burn and 60-window sustained burn,
    /// alerting at 2× budget consumption.
    fn default() -> Self {
        SloConfig {
            objective: Duration::from_millis(1),
            target: 0.95,
            short_windows: 5,
            long_windows: 60,
            alert_burn: 2.0,
        }
    }
}

impl SloConfig {
    /// The error budget fraction (`1 - target`), floored away from
    /// zero so burn rates stay finite.
    #[must_use]
    pub fn budget(&self) -> f64 {
        (1.0 - self.target).max(MIN_BUDGET)
    }
}

/// One window's contribution to the SLO ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SloWindow {
    /// Requests observed in the window.
    total: u64,
    /// Requests that missed the objective.
    bad: u64,
}

/// A point-in-time reading of the tracker, for rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSnapshot {
    /// Burn rate over the short window.
    pub short_burn: f64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// True when both burns exceed the alert threshold.
    pub alerting: bool,
    /// Windows observed since creation or reset.
    pub windows: u64,
    /// Requests observed since creation or reset.
    pub total: u64,
    /// Requests that missed the objective since creation or reset.
    pub bad: u64,
}

/// Multi-window, multi-burn-rate SLO alerting over externally rotated
/// windows.
///
/// Feed it one `(total, bad)` observation per closed window — from a
/// [`WindowedHistogram`] ring on a live server or from a
/// `BucketedTimeline` in the cluster simulator — and it reports how
/// fast the error budget is burning over a short window (catches fast
/// outages) and a long window (confirms they are sustained). Burn rate
/// is the classic definition: the fraction of requests violating the
/// objective, divided by the budget fraction. Burn 1.0 means the
/// budget is being consumed exactly as fast as it accrues; an alert at
/// burn `b` means the budget would be exhausted `b`× early.
///
/// ```
/// use densekv_sim::Duration;
/// use densekv_telemetry::{SloConfig, SloTracker};
///
/// let mut slo = SloTracker::new(SloConfig {
///     objective: Duration::from_millis(1),
///     target: 0.95,
///     short_windows: 2,
///     long_windows: 4,
///     alert_burn: 2.0,
/// });
/// slo.observe_window(100, 5); // exactly on budget: burn 1.0
/// assert!((slo.short_burn() - 1.0).abs() < 1e-12);
/// assert!(!slo.alerting());
/// slo.observe_window(100, 40); // outage: 40% violations
/// slo.observe_window(100, 40);
/// assert!(slo.short_burn() > 2.0 && slo.alerting());
/// ```
#[derive(Debug, Clone)]
pub struct SloTracker {
    config: SloConfig,
    /// The newest `long_windows` observations, oldest first.
    ring: VecDeque<SloWindow>,
    /// Windows observed since creation or reset.
    windows: u64,
    /// Lifetime request count.
    total: u64,
    /// Lifetime objective misses.
    bad: u64,
}

impl SloTracker {
    /// Creates a tracker for the given objective. Window lengths are
    /// clamped so the short window is at least 1 and the long window
    /// at least the short.
    #[must_use]
    pub fn new(mut config: SloConfig) -> Self {
        config.short_windows = config.short_windows.max(1);
        config.long_windows = config.long_windows.max(config.short_windows);
        SloTracker {
            config,
            ring: VecDeque::new(),
            windows: 0,
            total: 0,
            bad: 0,
        }
    }

    /// The configuration the tracker was built with (after clamping).
    #[must_use]
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Records one closed window: `total` requests, `bad` of which
    /// missed the objective (`bad` is clamped to `total`).
    pub fn observe_window(&mut self, total: u64, bad: u64) {
        let bad = bad.min(total);
        self.ring.push_back(SloWindow { total, bad });
        while self.ring.len() > self.config.long_windows {
            self.ring.pop_front();
        }
        self.windows += 1;
        self.total += total;
        self.bad += bad;
    }

    /// Burn rate over the newest `n` windows: violation fraction
    /// divided by budget fraction. Zero when those windows saw no
    /// traffic.
    #[must_use]
    pub fn burn(&self, n: usize) -> f64 {
        let skip = self.ring.len().saturating_sub(n);
        let (mut total, mut bad) = (0u64, 0u64);
        for w in self.ring.iter().skip(skip) {
            total += w.total;
            bad += w.bad;
        }
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / self.config.budget()
    }

    /// Burn rate over the short (fast-burn) window.
    #[must_use]
    pub fn short_burn(&self) -> f64 {
        self.burn(self.config.short_windows)
    }

    /// Burn rate over the long (sustained-burn) window.
    #[must_use]
    pub fn long_burn(&self) -> f64 {
        self.burn(self.config.long_windows)
    }

    /// True when both the short and long burns exceed the alert
    /// threshold — the multi-window rule that suppresses both blips
    /// (short spikes with a calm long window) and stale alerts (a long
    /// window still digesting an outage the short window shows is
    /// over).
    #[must_use]
    pub fn alerting(&self) -> bool {
        self.windows > 0
            && self.short_burn() >= self.config.alert_burn
            && self.long_burn() >= self.config.alert_burn
    }

    /// Everything a render path needs, in one read.
    #[must_use]
    pub fn snapshot(&self) -> SloSnapshot {
        SloSnapshot {
            short_burn: self.short_burn(),
            long_burn: self.long_burn(),
            alerting: self.alerting(),
            windows: self.windows,
            total: self.total,
            bad: self.bad,
        }
    }

    /// Clears the window ring and the lifetime ledger.
    pub fn reset(&mut self) {
        self.ring.clear();
        self.windows = 0;
        self.total = 0;
        self.bad = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d(us: u64) -> Duration {
        Duration::from_micros(us)
    }

    #[test]
    fn rotation_returns_the_closed_window_and_ring_is_bounded() {
        let mut w = WindowedHistogram::new(3);
        for i in 1..=5u64 {
            w.record(d(i * 10));
            let closed = w.rotate();
            assert_eq!(closed.count(), 1);
        }
        assert_eq!(w.retained(), 3);
        // The ring holds the newest three windows: 30, 40, 50 us.
        let counts: Vec<u64> = w.windows().map(LogHistogram::count).collect();
        assert_eq!(counts, vec![1, 1, 1]);
    }

    #[test]
    fn empty_windows_rotate_cleanly() {
        let mut w = WindowedHistogram::new(2);
        let closed = w.rotate();
        assert_eq!(closed.count(), 0);
        assert_eq!(w.retained(), 1);
    }

    #[test]
    fn reset_clears_ring_cumulative_and_rotations() {
        let mut w = WindowedHistogram::new(2);
        w.record(d(100));
        w.rotate();
        w.record(d(200));
        w.reset();
        assert_eq!(w.retained(), 0);
        // The open window went too: the next one closes empty.
        assert_eq!(w.rotate().count(), 0);
    }

    #[test]
    fn windowed_rate_smooths_with_ewma() {
        let mut r = WindowedRate::new(Duration::from_millis(100), 0.25);
        r.record(10);
        r.rotate(); // 100 events/sec seeds the EWMA
        assert_eq!(r.ewma_rate(), 100.0);
        r.record(50);
        r.rotate(); // 500 events/sec
        assert_eq!(r.last_rate(), 500.0);
        assert!((r.ewma_rate() - 200.0).abs() < 1e-9);
        assert_eq!(r.last_count(), 50);
        r.reset();
        assert_eq!(r.ewma_rate(), 0.0);
        assert_eq!(r.last_count(), 0);
    }

    #[test]
    fn windowed_rate_zero_length_window_reports_zero_rates() {
        let mut r = WindowedRate::new(Duration::ZERO, 0.5);
        r.record(10);
        r.rotate();
        assert_eq!(r.last_rate(), 0.0);
        assert_eq!(r.ewma_rate(), 0.0);
        assert_eq!(r.last_count(), 10);
    }

    #[test]
    fn slo_burn_matches_hand_computation() {
        let mut slo = SloTracker::new(SloConfig {
            objective: d(1000),
            target: 0.9, // 10% budget
            short_windows: 1,
            long_windows: 2,
            alert_burn: 3.0,
        });
        slo.observe_window(100, 10);
        assert!((slo.short_burn() - 1.0).abs() < 1e-12);
        assert!((slo.long_burn() - 1.0).abs() < 1e-12);
        assert!(!slo.alerting());
        slo.observe_window(100, 50); // 50% bad → burn 5 short, 3 long
        assert!((slo.short_burn() - 5.0).abs() < 1e-12);
        assert!((slo.long_burn() - 3.0).abs() < 1e-12);
        assert!(slo.alerting());
        slo.observe_window(100, 0); // recovery: short calm, long elevated
        assert_eq!(slo.short_burn(), 0.0);
        assert!(!slo.alerting());
    }

    #[test]
    fn slo_idle_windows_do_not_burn() {
        let mut slo = SloTracker::new(SloConfig::default());
        for _ in 0..10 {
            slo.observe_window(0, 0);
        }
        assert_eq!(slo.short_burn(), 0.0);
        assert_eq!(slo.long_burn(), 0.0);
        assert!(!slo.alerting());
    }

    #[test]
    fn slo_reset_clears_ring_and_ledger() {
        let mut slo = SloTracker::new(SloConfig::default());
        slo.observe_window(100, 100);
        slo.reset();
        let snap = slo.snapshot();
        assert_eq!((snap.windows, snap.total, snap.bad), (0, 0, 0));
        assert_eq!(slo.short_burn(), 0.0);
    }

    #[test]
    fn slo_clamps_degenerate_config() {
        let slo = SloTracker::new(SloConfig {
            objective: d(1),
            target: 1.0, // zero budget — floored, burns stay finite
            short_windows: 0,
            long_windows: 0,
            alert_burn: 1.0,
        });
        assert_eq!(slo.config().short_windows, 1);
        assert_eq!(slo.config().long_windows, 1);
        assert!(slo.config().budget() > 0.0);
    }

    /// One step of the windowed-vs-plain comparison driver.
    #[derive(Debug, Clone)]
    enum WinOp {
        Record(u64),
        /// Samples collected elsewhere (a connection's cell) and folded
        /// in whole.
        RecordAll(Vec<u64>),
        Rotate,
    }

    fn win_op() -> impl Strategy<Value = WinOp> {
        prop_oneof![
            (0u64..=400_000_000_000).prop_map(WinOp::Record),
            (0u64..=400_000_000_000).prop_map(WinOp::Record),
            proptest::collection::vec(0u64..=400_000_000_000, 0..8).prop_map(WinOp::RecordAll),
            (0u64..1).prop_map(|_| WinOp::Rotate),
        ]
    }

    proptest! {
        /// For any record/rotate interleaving and any ring capacity
        /// (including ones small enough to force eviction), every closed
        /// window is bit-identical to a plain LogHistogram fed the same
        /// samples, and so is the merge of all of them to one fed every
        /// sample. Windowing is a view, never a fork.
        #[test]
        fn windowed_merge_is_bit_identical_to_cumulative(
            ops in proptest::collection::vec(win_op(), 0..200),
            capacity in 1usize..12,
        ) {
            let mut windowed = WindowedHistogram::new(capacity);
            let mut window = LogHistogram::new();
            let mut merged = LogHistogram::new();
            let mut plain = LogHistogram::new();
            // Reused across batches, as a connection reuses its cell: it
            // keeps the buckets it grew for an earlier, larger sample.
            let mut cell = LogHistogram::new();
            for op in ops.iter().chain([&WinOp::Rotate]) {
                match op {
                    &WinOp::Record(ps) => {
                        let v = Duration::from_ps(ps);
                        windowed.record(v);
                        window.record(v);
                        plain.record(v);
                    }
                    WinOp::RecordAll(samples) => {
                        for &ps in samples {
                            cell.record(Duration::from_ps(ps));
                            window.record(Duration::from_ps(ps));
                            plain.record(Duration::from_ps(ps));
                        }
                        windowed.record_all(&cell);
                        cell.reset();
                    }
                    WinOp::Rotate => {
                        let closed = windowed.rotate();
                        prop_assert_eq!(closed, &window);
                        merged.merge(closed);
                        window = LogHistogram::new();
                    }
                }
            }
            prop_assert_eq!(merged, plain);
        }

        /// Rotation bookkeeping: retained windows never exceed
        /// capacity, and the ring holds exactly the newest closed
        /// windows, so their counts add up to what those windows took.
        #[test]
        fn ring_occupancy_is_bounded_and_counts_conserve(
            ops in proptest::collection::vec(win_op(), 0..200),
            capacity in 1usize..6,
        ) {
            let mut windowed = WindowedHistogram::new(capacity);
            let mut closed_counts = Vec::new();
            let mut open = 0u64;
            for op in &ops {
                match op {
                    &WinOp::Record(ps) => {
                        windowed.record(Duration::from_ps(ps));
                        open += 1;
                    }
                    WinOp::RecordAll(samples) => {
                        let mut cell = LogHistogram::new();
                        for &ps in samples {
                            cell.record(Duration::from_ps(ps));
                        }
                        windowed.record_all(&cell);
                        open += samples.len() as u64;
                    }
                    WinOp::Rotate => {
                        prop_assert_eq!(windowed.rotate().count(), open);
                        closed_counts.push(std::mem::take(&mut open));
                    }
                }
                prop_assert!(windowed.retained() <= capacity);
                let in_ring: Vec<u64> = windowed.windows().map(LogHistogram::count).collect();
                let newest = &closed_counts[closed_counts.len().saturating_sub(capacity)..];
                prop_assert_eq!(in_ring.as_slice(), newest);
            }
        }
    }
}
