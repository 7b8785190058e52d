//! Differential properties: the [`Scheduler`]'s binary heap must be
//! observationally identical to a naive reference queue — a `BTreeMap`
//! keyed by `(time, seq)` — in pop sequences (time, then FIFO seq),
//! `QueueStats`, pending counts and the clock, under arbitrary push/pop
//! interleavings, including same-timestamp floods and pushes at the
//! current clock.
//!
//! (The file keeps its name from when the scheduler ran on a timer
//! wheel and this suite compared the wheel against the heap.)

use std::collections::BTreeMap;

use densekv_sim::{QueueStats, Scheduler, SimTime};
use proptest::prelude::*;

/// The reference queue: an ordered map is FIFO among equal times by
/// construction, because the push sequence is part of the key.
#[derive(Default)]
struct Reference {
    events: BTreeMap<(SimTime, u64), u64>,
    now: SimTime,
    stats: QueueStats,
}

impl Reference {
    fn push(&mut self, time: SimTime, payload: u64) {
        self.events.insert((time, self.stats.pushed), payload);
        self.stats.pushed += 1;
        self.stats.peak_len = self.stats.peak_len.max(self.events.len());
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let ((time, _), payload) = self.events.pop_first()?;
        self.stats.popped += 1;
        self.now = time;
        Some((time, payload))
    }
}

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Push at an absolute picosecond timestamp, raised to the clock if
    /// it lies in the past (the scheduler refuses past events), so
    /// stale timestamps become ties at the current time.
    Push(u64),
    /// Push at the clock plus a small delta — keeps pushes clustered
    /// just ahead of the next pop.
    PushSoon(u64),
    /// Pop once.
    Pop,
    /// Compare `pending`, `now` and `stats` right here.
    Observe,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Repeated arms approximate weights (the vendored prop_oneof! picks
    // uniformly); timestamps span a wide range, the far future and
    // heavy collisions.
    prop_oneof![
        (0u64..1 << 40).prop_map(Op::Push),
        (0u64..1 << 40).prop_map(Op::Push),
        (0u64..1 << 18).prop_map(Op::Push),
        (0u64..1 << 18).prop_map(Op::Push),
        (0u64..u64::MAX >> 1).prop_map(Op::Push),
        (0u64..1 << 24).prop_map(Op::PushSoon),
        (0u64..1 << 24).prop_map(Op::PushSoon),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..1).prop_map(|_| Op::Pop),
        (0u64..1).prop_map(|_| Op::Observe),
    ]
}

fn observe(sched: &Scheduler<u64>, reference: &Reference) {
    assert_eq!(sched.pending(), reference.events.len());
    assert_eq!(sched.now(), reference.now);
    assert_eq!(sched.stats(), reference.stats);
}

/// Runs a script against both queues, comparing every observable.
fn run_script(ops: &[Op]) {
    let mut sched = Scheduler::new();
    let mut reference = Reference::default();
    let mut payload = 0u64;
    for op in ops {
        match op {
            Op::Push(t) => {
                let time = SimTime::from_ps(*t).max(sched.now());
                sched.schedule_at(time, payload);
                reference.push(time, payload);
                payload += 1;
            }
            Op::PushSoon(delta) => {
                let time = SimTime::from_ps(sched.now().as_ps() + delta);
                sched.schedule_at(time, payload);
                reference.push(time, payload);
                payload += 1;
            }
            Op::Pop => assert_eq!(sched.pop(), reference.pop()),
            Op::Observe => observe(&sched, &reference),
        }
    }
    // Drain both; tails must match exactly, stats included.
    loop {
        let (s, r) = (sched.pop(), reference.pop());
        assert_eq!(s, r);
        observe(&sched, &reference);
        if s.is_none() {
            break;
        }
    }
}

proptest! {
    /// Arbitrary interleavings pop identically from both queues.
    #[test]
    fn wheel_matches_heap_under_random_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        run_script(&ops);
    }

    /// Backlog gauges agree after every single operation, so
    /// telemetry's scheduler sampling is truthful.
    #[test]
    fn stats_agree_after_every_op(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let observed: Vec<Op> = ops
            .into_iter()
            .flat_map(|op| [op, Op::Observe])
            .collect();
        run_script(&observed);
    }

    /// A flood of ≥1000 events on one timestamp pops strictly FIFO,
    /// interleaved with pops and events at other times.
    #[test]
    fn same_timestamp_floods_pop_fifo(
        t in 0u64..1 << 40,
        extra in proptest::collection::vec((0u64..1 << 41, 0u64..2), 0..50)
    ) {
        let mut ops: Vec<Op> = (0..1200).map(|_| Op::Push(t)).collect();
        for (time, pop_first) in extra {
            if pop_first == 1 {
                ops.push(Op::Pop);
            }
            ops.push(Op::Push(time));
        }
        run_script(&ops);
    }
}

/// Deterministic regression: a 1000-tie flood plus straddling events,
/// kept out of proptest so the exact case always runs.
#[test]
fn thousand_tie_flood_exact_order() {
    let mut sched = Scheduler::new();
    let tie = SimTime::from_ps(123_456_789);
    for i in 0..1000u64 {
        sched.schedule_at(tie, i);
    }
    sched.schedule_at(SimTime::from_ps(1), 9999);
    for i in 1000..1010u64 {
        sched.schedule_at(tie, i);
    }
    let order: Vec<_> = std::iter::from_fn(|| sched.pop()).collect();
    let mut expected = vec![(SimTime::from_ps(1), 9999)];
    expected.extend((0..1010u64).map(|i| (tie, i)));
    assert_eq!(order, expected);
    assert_eq!(
        sched.stats(),
        QueueStats {
            pushed: 1011,
            popped: 1011,
            peak_len: 1011,
        }
    );
}
