//! Integer simulated time.
//!
//! Simulated time is kept in **picoseconds** so that sub-nanosecond
//! quantities (a 1.5 GHz clock cycle is 667 ps; one byte on a 10 GbE wire
//! is 800 ps) accumulate without rounding. A `u64` of picoseconds spans
//! roughly 214 simulated days, far beyond any experiment in this workspace.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// A span of simulated time (non-negative).
///
/// # Examples
///
/// ```
/// use densekv_sim::Duration;
///
/// let d = Duration::from_nanos(10) + Duration::from_nanos(5);
/// assert_eq!(d.as_ps(), 15_000);
/// assert_eq!(d.as_nanos_f64(), 15.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns * PS_PER_NS)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * PS_PER_US)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * PS_PER_MS)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * PS_PER_S)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// picosecond. Negative or non-finite inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Duration::ZERO;
        }
        Duration((secs * PS_PER_S as f64).round() as u64)
    }

    /// Creates a duration from fractional nanoseconds, rounding to the
    /// nearest picosecond. Negative or non-finite inputs saturate to zero.
    pub fn from_nanos_f64(ns: f64) -> Self {
        if !ns.is_finite() || ns <= 0.0 {
            return Duration::ZERO;
        }
        Duration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Converts a wall-clock [`std::time::Duration`] into simulated time,
    /// saturating if the span exceeds what `u64` picoseconds can hold
    /// (~214 days). This is the bridge a live server uses to feed real
    /// measured latencies into the same histograms the simulator fills.
    ///
    /// # Examples
    ///
    /// ```
    /// use densekv_sim::Duration;
    ///
    /// let wall = std::time::Duration::from_micros(15);
    /// assert_eq!(Duration::from_std(wall), Duration::from_micros(15));
    /// ```
    #[must_use]
    pub fn from_std(d: std::time::Duration) -> Self {
        let ps = d.as_nanos().saturating_mul(u128::from(PS_PER_NS));
        Duration(u64::try_from(ps).unwrap_or(u64::MAX))
    }

    /// The duration in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The duration in whole nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// The duration in fractional nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// The duration in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// The duration in fractional milliseconds.
    pub(crate) fn as_millis_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition, `None` on overflow.
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(ps) => Some(Duration(ps)),
            None => None,
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;

    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;

    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;

    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_S {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{:.3}ns", self.as_nanos_f64())
        }
    }
}

/// An absolute point on the simulated clock.
///
/// # Examples
///
/// ```
/// use densekv_sim::{Duration, SimTime};
///
/// let t = SimTime::ZERO + Duration::from_micros(3);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), Duration::from_micros(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time point `ps` picoseconds past the epoch.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Picoseconds since the epoch.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// The duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn elapsed_since(self, earlier: SimTime) -> Duration {
        debug_assert!(earlier.0 <= self.0, "elapsed_since with later time");
        Duration(self.0 - earlier.0)
    }

    /// The later of two time points.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_nanos(1).as_ps(), 1_000);
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
    }

    #[test]
    fn float_roundtrip() {
        let d = Duration::from_secs_f64(1.5e-6);
        assert_eq!(d, Duration::from_nanos(1_500));
        assert!((d.as_micros_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_saturates_bad_input() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_nanos_f64(f64::NEG_INFINITY), Duration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Duration::from_nanos(10);
        let b = Duration::from_nanos(3);
        assert_eq!(a + b, Duration::from_nanos(13));
        assert_eq!(a - b, Duration::from_nanos(7));
        assert_eq!(a * 3, Duration::from_nanos(30));
        assert_eq!(a / 2, Duration::from_nanos(5));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn simtime_ordering_and_elapsed() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + Duration::from_micros(2);
        assert!(t1 > t0);
        assert_eq!(t1.elapsed_since(t0), Duration::from_micros(2));
        assert_eq!(t1.max(t0), t1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Duration::from_nanos(5).to_string(), "5.000ns");
        assert_eq!(Duration::from_micros(5).to_string(), "5.000us");
        assert_eq!(Duration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Duration::from_secs(5).to_string(), "5.000s");
        assert!(SimTime::ZERO.to_string().starts_with("t+"));
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_nanos).sum();
        assert_eq!(total, Duration::from_nanos(10));
    }
}
