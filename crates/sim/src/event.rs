//! Deterministic discrete-event scheduler.
//!
//! Events are ordered by time, with ties broken by insertion sequence so
//! the simulation is fully deterministic regardless of queue internals.
//!
//! [`Scheduler`] runs on the hierarchical timer wheel
//! ([`crate::wheel::TimerWheel`]): amortized O(1) push/pop with
//! slab-stored payloads. [`HeapQueue`] is the original binary-heap
//! implementation, kept as the executable specification — the
//! differential property tests drive both with the same workload and
//! require bit-identical pop sequences, stats, and peeks.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};
use crate::wheel::TimerWheel;

/// An entry in the reference heap queue: payload `E` due at a time.
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

/// Lifetime statistics of an event queue — the scheduler-side gauges
/// the telemetry layer snapshots (event backlog, churn).
///
/// [`TimerWheel::clear`] resets these to a fresh queue's values; a
/// queue that should keep lifetime churn across epochs must accumulate
/// the stats before clearing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub pushed: u64,
    /// Events popped over the queue's lifetime.
    pub popped: u64,
    /// Largest backlog ever observed.
    pub peak_len: usize,
}

/// The original `BinaryHeap`-backed event queue, kept as the reference
/// implementation for the wheel's differential tests: same API, same
/// `(time, FIFO seq)` order, same stats semantics.
#[derive(Debug, Clone)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    popped: u64,
    peak_len: usize,
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = self.heap.pop().map(|e| (e.time, e.event));
        if popped.is_some() {
            self.popped += 1;
        }
        popped
    }

    /// Lifetime push/pop/backlog statistics ([`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.next_seq,
            popped: self.popped,
            peak_len: self.peak_len,
        }
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events and resets the lifetime statistics,
    /// mirroring [`TimerWheel::clear`].
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.popped = 0;
        self.peak_len = 0;
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        HeapQueue::new()
    }
}

/// A [`TimerWheel`] paired with a running clock.
///
/// [`Scheduler::pop`] advances the clock to the popped event's timestamp;
/// [`Scheduler::schedule_in`] schedules relative to the current clock.
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
    queue: TimerWheel<E>,
    now: SimTime,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler at the epoch with no pending events.
    pub fn new() -> Self {
        Scheduler {
            queue: TimerWheel::new(),
            now: SimTime::ZERO,
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
        self.queue.push(time, event);
    }

    /// Schedules `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, event) = self.queue.pop()?;
        self.now = time;
        Some((time, event))
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True if no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Lifetime push/pop/backlog statistics of the underlying queue.
    pub fn stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Drops all pending events and resets the queue statistics — like
    /// [`TimerWheel::clear`] — without rewinding the clock, so a reused
    /// scheduler keeps monotone time.
    pub fn clear(&mut self) {
        self.queue.clear();
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
        let mut q = TimerWheel::new();
        q.push(SimTime::from_ps(30), 3);
        q.push(SimTime::from_ps(10), 1);
        q.push(SimTime::from_ps(20), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = TimerWheel::new();
        let t = SimTime::from_ps(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = TimerWheel::new();
        q.push(SimTime::from_ps(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
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
        assert!(s.is_idle());
    }

    #[test]
    fn stats_track_churn_and_peak_backlog() {
        let mut q = TimerWheel::new();
        assert_eq!(q.stats(), QueueStats::default());
        for i in 0..5u64 {
            q.push(SimTime::from_ps(i), i);
        }
        q.pop();
        q.pop();
        q.push(SimTime::from_ps(99), 99);
        let stats = q.stats();
        assert_eq!(stats.pushed, 6);
        assert_eq!(stats.popped, 2);
        assert_eq!(stats.peak_len, 5);
        // Draining past empty doesn't over-count pops.
        while q.pop().is_some() {}
        q.pop();
        assert_eq!(q.stats().popped, 6);

        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(1), ());
        s.pop();
        assert_eq!(s.stats().pushed, 1);
        assert_eq!(s.stats().popped, 1);
    }

    #[test]
    fn clear_resets_stats_to_fresh() {
        let mut q = TimerWheel::new();
        for i in 0..10u64 {
            q.push(SimTime::from_ps(i), i);
        }
        q.pop();
        q.clear();
        assert_eq!(q.stats(), QueueStats::default());
        assert!(q.is_empty());
        // The cleared queue behaves exactly like a fresh one.
        q.push(SimTime::from_ps(3), 7);
        assert_eq!(q.stats().pushed, 1);
        assert_eq!(q.pop(), Some((SimTime::from_ps(3), 7)));

        let mut h = HeapQueue::new();
        h.push(SimTime::from_ps(1), 1);
        h.pop();
        h.clear();
        assert_eq!(h.stats(), QueueStats::default());
    }

    #[test]
    fn scheduler_clear_drops_events_but_keeps_now() {
        let mut s = Scheduler::new();
        s.schedule_in(Duration::from_nanos(10), 1);
        s.schedule_in(Duration::from_nanos(20), 2);
        s.pop();
        let now = s.now();
        s.clear();
        assert!(s.is_idle());
        assert_eq!(s.stats(), QueueStats::default());
        assert_eq!(s.now(), now, "clear must not rewind the clock");
        // Scheduling keeps working relative to the preserved clock.
        s.schedule_in(Duration::from_nanos(5), 3);
        let (t, e) = s.pop().unwrap();
        assert_eq!(e, 3);
        assert_eq!(t, now + Duration::from_nanos(5));
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
