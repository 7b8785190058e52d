//! Per-port utilization metering.
//!
//! The cluster model serializes every frame of a stack through its one
//! physical 10 GbE port (§4.1.4: one port per stack, no server-level
//! router). [`PortMeter`] accumulates how long that port was actually
//! clocking bits, so the telemetry layer can report utilization — the
//! quantity that explains when a stack's tail latency is network-bound
//! rather than memory-bound.

use densekv_sim::{Duration, SimTime};

/// Lifetime busy-time accounting for one serialization resource (a NIC
/// port direction, a wire).
///
/// The meter is passive: callers report each transfer's duration (and
/// optionally drops); the meter never influences timing.
///
/// # Examples
///
/// ```
/// use densekv_net::PortMeter;
/// use densekv_sim::{Duration, SimTime};
///
/// let mut m = PortMeter::new();
/// m.record_send(Duration::from_micros(3));
/// m.record_send(Duration::from_micros(1));
/// // Busy 4 us out of the first 8 us of the run: 50% utilized.
/// let now = SimTime::ZERO + Duration::from_micros(8);
/// assert_eq!(m.utilization(now), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortMeter {
    busy_ps: u64,
    sends: u64,
    drops: u64,
}

impl PortMeter {
    /// Creates an idle meter.
    pub fn new() -> Self {
        PortMeter::default()
    }

    /// Records one transfer that occupied the port for `busy`.
    pub fn record_send(&mut self, busy: Duration) {
        self.busy_ps += busy.as_ps();
        self.sends += 1;
    }

    /// Records a transfer the port refused (queue overflow, dead stack).
    pub fn record_drop(&mut self) {
        self.drops += 1;
    }

    /// Total time the port spent clocking bits.
    pub fn busy_time(&self) -> Duration {
        Duration::from_ps(self.busy_ps)
    }

    /// Number of transfers recorded.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// Number of refused transfers.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Fraction of the interval `[SimTime::ZERO, now]` the port was busy;
    /// `0.0` at the epoch. Can exceed `1.0` only if callers over-report
    /// overlapping transfers, which the analytic FIFO models never do.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.elapsed_since(SimTime::ZERO).as_ps();
        if elapsed == 0 {
            0.0
        } else {
            self.busy_ps as f64 / elapsed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_time_accumulates() {
        let mut m = PortMeter::new();
        m.record_send(Duration::from_micros(2));
        m.record_send(Duration::from_micros(2));
        m.record_drop();
        assert_eq!(m.busy_time(), Duration::from_micros(4));
        assert_eq!(m.sends(), 2);
        assert_eq!(m.drops(), 1);
    }

    #[test]
    fn utilization_is_busy_over_elapsed() {
        let mut m = PortMeter::new();
        assert_eq!(m.utilization(SimTime::ZERO), 0.0);
        m.record_send(Duration::from_micros(1));
        let now = SimTime::ZERO + Duration::from_micros(4);
        assert_eq!(m.utilization(now), 0.25);
    }
}
