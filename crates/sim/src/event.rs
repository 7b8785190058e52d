//! Deterministic discrete-event scheduler.
//!
//! Events are ordered by time, with ties broken by insertion sequence so
//! the simulation is fully deterministic.
//!
//! [`Scheduler`] keeps its events in one `(time, seq)` binary heap. The
//! simulators it serves hold a handful of events at once (the cluster
//! one, or two with a fault plan; `stack_sim` at most one per core), so
//! a heap's O(log n) is a few comparisons.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

/// A heap entry: payload `E` due at a time, FIFO among equal times.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Lifetime statistics of a [`Scheduler`] — the gauges the telemetry
/// layer snapshots (event backlog, churn).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub pushed: u64,
    /// Events popped over the queue's lifetime.
    pub popped: u64,
    /// Largest backlog ever observed.
    pub peak_len: usize,
}

/// A `(time, seq)` event heap paired with a running clock.
///
/// [`Scheduler::pop`] advances the clock to the popped event's timestamp;
/// [`Scheduler::schedule_in`] schedules relative to the current clock.
/// Events due at the same time pop in the order they were scheduled.
///
/// # Examples
///
/// ```
/// use densekv_sim::{Duration, Scheduler};
///
/// let mut sched = Scheduler::new();
/// sched.schedule_in(Duration::from_nanos(100), "a");
/// sched.schedule_in(Duration::from_nanos(50), "b");
/// let order: Vec<_> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!["b", "a"]);
/// assert_eq!(sched.now().elapsed_since(densekv_sim::SimTime::ZERO),
///            Duration::from_nanos(100));
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    /// Sequence number of the next push; also the lifetime push count.
    next_seq: u64,
    popped: u64,
    peak_len: usize,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler at the epoch with no pending events.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            popped: 0,
            peak_len: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before [`Scheduler::now`]).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: now={} ps, requested={} ps",
            self.now.as_ps(),
            time.as_ps(),
        );
        self.push(time, event);
    }

    /// Schedules `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.push(self.now + delay, event);
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { time, event, .. } = self.heap.pop()?;
        self.popped += 1;
        self.now = time;
        Some((time, event))
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Lifetime push/pop/backlog statistics ([`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.next_seq,
            popped: self.popped,
            peak_len: self.peak_len,
        }
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule_at(SimTime::from_ps(30), 3);
        s.schedule_at(SimTime::from_ps(10), 1);
        s.schedule_at(SimTime::from_ps(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(
            order,
            vec![
                (SimTime::from_ps(10), 1),
                (SimTime::from_ps(20), 2),
                (SimTime::from_ps(30), 3)
            ]
        );
    }

    #[test]
    fn ties_pop_fifo() {
        // Same-time events interleaved with earlier and later ones: the
        // tied block still pops in scheduling order.
        let mut s = Scheduler::new();
        let t = SimTime::from_ps(5_000);
        for i in 0..2_000u32 {
            s.schedule_at(t, i);
            if i % 100 == 0 {
                s.schedule_at(SimTime::from_ps(u64::from(i)), u32::MAX);
                s.schedule_at(SimTime::from_ps(9_000 + u64::from(i)), u32::MAX - 1);
            }
        }
        let tied: Vec<_> = std::iter::from_fn(|| s.pop())
            .filter(|&(time, _)| time == t)
            .map(|(_, e)| e)
            .collect();
        assert_eq!(tied, (0..2_000).collect::<Vec<_>>());
    }

    #[test]
    fn scheduler_advances_clock() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(10), "x");
        s.schedule_in(Duration::from_nanos(20), "y");
        assert_eq!(s.pending(), 2);
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, "x");
        assert_eq!(t, s.now());
        // Relative scheduling now uses the advanced clock.
        s.schedule_in(Duration::from_nanos(5), "z");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "z");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "y");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn stats_track_churn_and_peak_backlog() {
        let mut s = Scheduler::new();
        assert_eq!(s.stats(), QueueStats::default());
        for i in 0..5u64 {
            s.schedule_at(SimTime::from_ps(i), i);
        }
        s.pop();
        s.pop();
        s.schedule_at(SimTime::from_ps(99), 99);
        s.schedule_at(SimTime::from_ps(98), 98);
        s.pop();
        assert_eq!(
            s.stats(),
            QueueStats {
                pushed: 7,
                popped: 3,
                peak_len: 5,
            }
        );
        assert_eq!(s.pending(), 4);
        // Draining past empty doesn't over-count pops.
        while s.pop().is_some() {}
        s.pop();
        assert_eq!(s.stats().popped, 7);
        assert_eq!(s.now(), SimTime::from_ps(99));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(10), ());
        s.pop();
        s.schedule_at(SimTime::from_ps(1), ());
    }

    #[test]
    fn past_panic_message_names_both_timestamps() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(10), ());
        s.pop();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.schedule_at(SimTime::from_ps(1), ());
        }))
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("now=10000 ps"), "message was: {msg}");
        assert!(msg.contains("requested=1 ps"), "message was: {msg}");
    }
}
