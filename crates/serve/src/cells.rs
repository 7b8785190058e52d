//! What one connection has measured and not yet told the shared plane.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use densekv_sim::Duration as SimDuration;
use densekv_telemetry::LogHistogram;

use crate::metrics::{grown_histogram, ShardLockSnapshot, Verb, VERB_COUNT};
use crate::shard::LockObserver;

/// One connection's measurements since its last flush: plain fields its
/// worker thread owns, so recording a command takes no lock and no
/// atomic. [`crate::ServeMetrics::flush`] folds them into the shared plane and
/// empties them.
#[derive(Debug)]
pub(crate) struct ConnCells {
    /// Per-verb command latencies; a verb's count is its histogram's.
    pub(crate) latency: [LogHistogram; VERB_COUNT],
    /// Per-shard lock accounting.
    pub(crate) shards: Vec<ShardLockSnapshot>,
    /// Slow commands as (position since the last flush, verb, latency,
    /// finished at), newest `slow_capacity` kept.
    pub(crate) slow: VecDeque<(u64, Verb, Duration, Instant)>,
    pub(crate) commands: u64,
    slow_threshold: Duration,
    sample_every: u64,
    /// Commands until the next sampled one.
    until_sample: u64,
    /// Lock wait of the command in progress, and when it last let go of
    /// a shard lock.
    lock_wait: Duration,
    released: Option<Instant>,
}

impl ConnCells {
    /// Empty cells for a server of `shards` lock stripes.
    pub(crate) fn new(
        shards: usize,
        slow_capacity: usize,
        slow_threshold: Duration,
        sample_every: u64,
    ) -> Self {
        ConnCells {
            latency: std::array::from_fn(|_| grown_histogram()),
            shards: vec![ShardLockSnapshot::default(); shards],
            slow: VecDeque::with_capacity(slow_capacity),
            commands: 0,
            slow_threshold,
            sample_every,
            until_sample: 1,
            lock_wait: Duration::ZERO,
            released: None,
        }
    }

    /// Whether the command about to run should record a phase span:
    /// the first on the connection and every `sample_every`th after it.
    pub(crate) fn sampled(&mut self) -> bool {
        if self.sample_every == 0 {
            return false;
        }
        self.until_sample -= 1;
        let sampled = self.until_sample == 0;
        if sampled {
            self.until_sample = self.sample_every;
        }
        sampled
    }

    /// Whether the next command will be [`ConnCells::sampled`].
    #[must_use]
    pub(crate) fn samples_next(&self) -> bool {
        self.sample_every != 0 && self.until_sample == 1
    }

    /// Takes what the command just executed spent waiting for shard
    /// locks, and when it released the last one — the one clock reading
    /// that both ends this command and starts the next.
    pub(crate) fn take_lock(&mut self) -> (Duration, Option<Instant>) {
        (std::mem::take(&mut self.lock_wait), self.released.take())
    }

    /// Records one completed command that took `latency` and finished
    /// at `end`; returns its position since the last flush.
    pub(crate) fn record(&mut self, verb: Verb, latency: Duration, end: Instant) -> u64 {
        self.latency[verb.index()].record(SimDuration::from_std(latency));
        if latency >= self.slow_threshold && self.slow.capacity() > 0 {
            if self.slow.len() == self.slow.capacity() {
                self.slow.pop_front();
            }
            self.slow.push_back((self.commands, verb, latency, end));
        }
        self.commands += 1;
        self.commands - 1
    }
}

impl LockObserver for ConnCells {
    fn held(
        &mut self,
        shard: usize,
        wait: Duration,
        acquired: Instant,
        released: Instant,
        contended: bool,
    ) {
        self.shards[shard].add(&ShardLockSnapshot::of(wait, released - acquired, contended));
        self.lock_wait += wait;
        self.released = Some(released);
    }
}
