//! Differential properties: the [`TimerWheel`] must be
//! observationally identical to the reference [`HeapQueue`] — pop
//! sequences (time, then FIFO seq), `QueueStats`, `peek_time`, and
//! lengths all bit-equal under arbitrary push/pop interleavings,
//! including same-timestamp floods and pushes below the cursor horizon.

use densekv_sim::{HeapQueue, SimTime, TimerWheel};
use proptest::prelude::*;

/// One scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    /// Push at an absolute picosecond timestamp.
    Push(u64),
    /// Push at the last popped time plus a small delta — keeps pushes
    /// clustered just ahead of the cursor, so slot-group carries with
    /// occupied higher-level slots (and pushes landing below freshly
    /// cascaded events) occur routinely.
    PushSoon(u64),
    /// Pop once.
    Pop,
    /// Compare `peek_time`, `len`, and `stats` right here.
    Observe,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Repeated arms approximate weights (the vendored prop_oneof! picks
    // uniformly); timestamps span every wheel tier, including the far
    // overflow and heavy low-bit collisions (same grain).
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

/// Runs a script against both queues, comparing every observable.
fn run_script(ops: &[Op]) {
    let mut wheel = TimerWheel::new();
    let mut heap = HeapQueue::new();
    let mut payload = 0u64;
    let mut last_pop = SimTime::ZERO;
    for op in ops {
        match op {
            Op::Push(t) => {
                let time = SimTime::from_ps(*t);
                wheel.push(time, payload);
                heap.push(time, payload);
                payload += 1;
            }
            Op::PushSoon(delta) => {
                let time = SimTime::from_ps(last_pop.as_ps() + delta);
                wheel.push(time, payload);
                heap.push(time, payload);
                payload += 1;
            }
            Op::Pop => {
                let (w, h) = (wheel.pop(), heap.pop());
                assert_eq!(w, h);
                if let Some((t, _)) = w {
                    last_pop = t;
                }
            }
            Op::Observe => {
                assert_eq!(wheel.peek_time(), heap.peek_time());
                assert_eq!(wheel.len(), heap.len());
                assert_eq!(wheel.stats(), heap.stats());
            }
        }
    }
    // Drain both; tails must match exactly, stats included.
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        assert_eq!(wheel.peek_time(), heap.peek_time());
        if w.is_none() {
            break;
        }
    }
    assert_eq!(wheel.stats(), heap.stats());
}

proptest! {
    /// Arbitrary interleavings pop bit-identically from both queues.
    #[test]
    fn wheel_matches_heap_under_random_interleavings(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        run_script(&ops);
    }

    /// Backlog gauges agree after every single operation, so
    /// telemetry's scheduler sampling is truthful under the wheel.
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
    /// interleaved with events on neighboring grains.
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
    let mut wheel = TimerWheel::new();
    let mut heap = HeapQueue::new();
    let tie = SimTime::from_ps(123_456_789);
    for i in 0..1000u64 {
        wheel.push(tie, i);
        heap.push(tie, i);
    }
    wheel.push(SimTime::from_ps(1), 9999);
    heap.push(SimTime::from_ps(1), 9999);
    for i in 1000..1010u64 {
        wheel.push(tie, i);
        heap.push(tie, i);
    }
    let mut popped = 0;
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        if w.is_none() {
            break;
        }
        popped += 1;
    }
    assert_eq!(popped, 1011);
    assert_eq!(wheel.stats(), heap.stats());
    assert_eq!(wheel.stats().peak_len, 1011);
}
