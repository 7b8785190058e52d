//! Hierarchical timer wheel with slab event storage.
//!
//! [`TimerWheel`] is the discrete-event queue behind
//! [`crate::Scheduler`]: events pop in exactly the order a binary heap
//! ordered by `(time, insertion seq)` would produce them — time first,
//! FIFO on ties — but pushes and pops touch O(1) amortized state instead of
//! O(log n) heap links, and event payloads live in a reusable slab so a
//! steady-state push performs no allocation.
//!
//! # Structure
//!
//! Simulated time (integer picoseconds) is quantized into *grains* of
//! `2^GRAIN_BITS` ps. The wheel keeps a monotone cursor grain `current`
//! and three tiers of pending events:
//!
//! * a **ready run**: every event strictly below the cursor horizon,
//!   sorted ascending by `(time, seq)` and consumed with an index — the
//!   common pop is a bounds check and a cursor bump;
//! * **wheel levels**: `LEVELS` levels of `SLOTS` slots each; level `l`
//!   buckets events whose grain differs from `current` only in bit
//!   group `l` (radix `SLOTS`). Occupied slots are tracked in a
//!   per-level bitmap, so finding the next slot is a mask and a
//!   `trailing_zeros`;
//! * an **overflow heap** for events beyond the top level's span
//!   (≈75 simulated minutes at the default grain), pulled back into the
//!   levels page by page as the cursor reaches them.
//!
//! When the ready run drains, the earliest occupied slot cascades: a
//! level-0 slot holds exactly one grain, so its events are sorted and
//! become the next ready run; higher-level slots re-route their events
//! into lower levels first. Every event outside the ready run is at or
//! above the cursor horizon, and every overflow event is beyond every
//! in-level event (different top-level page), so the ready head is
//! always the global minimum — the total pop order is bit-identical to
//! the reference heap, which the differential property tests pin.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::event::QueueStats;
use crate::time::SimTime;

/// log2 of the grain: one level-0 slot covers `2^16` ps ≈ 65.5 ns.
const GRAIN_BITS: u32 = 16;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot-index mask.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels; spans `2^(GRAIN_BITS + SLOT_BITS * LEVELS)` ps before
/// the overflow heap takes over.
const LEVELS: usize = 6;

/// One slab slot: the scheduling key plus the payload. `event` is
/// `None` once popped, while the slot waits on the free list.
#[derive(Debug, Clone)]
struct Node<E> {
    time: SimTime,
    seq: u64,
    event: Option<E>,
}

/// One wheel level: unsorted slot buckets plus an occupancy bitmap.
#[derive(Debug, Clone)]
struct Level {
    slots: Vec<Vec<u32>>,
    occupied: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
        }
    }
}

/// A time-ordered queue of events: a hierarchical timer wheel over
/// slab-stored payloads (see the module docs for the structure).
///
/// Ties at the same timestamp pop in insertion order (FIFO), which keeps
/// multi-component simulations deterministic.
///
/// # Examples
///
/// ```
/// use densekv_sim::{SimTime, TimerWheel};
///
/// let mut w = TimerWheel::new();
/// w.push(SimTime::from_ps(20), "late");
/// w.push(SimTime::from_ps(10), "early");
/// assert_eq!(w.peek_time(), Some(SimTime::from_ps(10)));
/// assert_eq!(w.pop(), Some((SimTime::from_ps(10), "early")));
/// assert_eq!(w.pop(), Some((SimTime::from_ps(20), "late")));
/// assert_eq!(w.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct TimerWheel<E> {
    /// Slab of event nodes; `free` lists recyclable indices.
    nodes: Vec<Node<E>>,
    free: Vec<u32>,
    /// The sorted ready run: `(time, seq, node index)` ascending;
    /// `ready[cursor..]` is live, entries before `cursor` are consumed.
    ready: Vec<(SimTime, u64, u32)>,
    cursor: usize,
    /// Wheel levels; all in-level events share the top-level page with
    /// `current` and sit at or above it.
    levels: Vec<Level>,
    /// Far-future events, beyond the levels' span from `current`.
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Cursor grain: every ready event's time is `< current << GRAIN_BITS`,
    /// every in-level or overflow event's time is `>= current << GRAIN_BITS`.
    current: u64,
    /// Pending (pushed, not yet popped) events.
    len: usize,
    next_seq: u64,
    popped: u64,
    peak_len: usize,
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel at the epoch.
    pub fn new() -> Self {
        TimerWheel {
            nodes: Vec::new(),
            free: Vec::new(),
            ready: Vec::new(),
            cursor: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            current: 0,
            len: 0,
            next_seq: 0,
            popped: 0,
            peak_len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime push/pop/backlog statistics ([`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.next_seq,
            popped: self.popped,
            peak_len: self.peak_len,
        }
    }

    /// Allocates a slab node, recycling a freed slot when one exists.
    fn alloc(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        if let Some(idx) = self.free.pop() {
            let node = &mut self.nodes[idx as usize];
            node.time = time;
            node.seq = seq;
            node.event = Some(event);
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("slab bounded by u32 events");
            self.nodes.push(Node {
                time,
                seq,
                event: Some(event),
            });
            idx
        }
    }

    /// Schedules `event` at `time`; later pushes at the same time pop
    /// after earlier ones (FIFO ties).
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(time, seq, event);
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        if time.as_ps() < self.current << GRAIN_BITS {
            // Below the cursor horizon (the reference heap accepts pushes
            // at any time): merge into the sorted ready run.
            let key = (time, seq);
            let live = &self.ready[self.cursor..];
            let at = self.cursor + live.partition_point(|&(t, s, _)| (t, s) < key);
            self.ready.insert(at, (time, seq, idx));
        } else {
            self.place(idx);
            self.ensure_ready();
        }
    }

    /// Buckets an in-horizon node into its wheel level or the overflow
    /// heap. Caller guarantees `time >= current << GRAIN_BITS`.
    fn place(&mut self, idx: u32) {
        let node = &self.nodes[idx as usize];
        let grain = node.time.as_ps() >> GRAIN_BITS;
        debug_assert!(grain >= self.current);
        let diff = grain ^ self.current;
        let level = if diff == 0 {
            0
        } else {
            ((63 - u64::leading_zeros(diff)) / SLOT_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow.push(Reverse((node.time, node.seq, idx)));
            return;
        }
        let slot = ((grain >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.levels[level].slots[slot].push(idx);
        self.levels[level].occupied |= 1 << slot;
    }

    /// Restores the invariant that the ready run is non-empty whenever
    /// events are pending, so `peek_time` needs no `&mut`: a drained run
    /// is refilled from the levels while events remain.
    fn ensure_ready(&mut self) {
        if self.cursor == self.ready.len() {
            self.ready.clear();
            self.cursor = 0;
            if self.len > 0 {
                self.cascade();
            }
        }
    }

    /// Advances the cursor to the earliest occupied slot and extracts
    /// it into the ready run, re-routing higher-level slots down and
    /// pulling the overflow heap's next page in when the levels drain.
    /// Caller guarantees an event is pending outside the ready run.
    fn cascade(&mut self) {
        'cascade: loop {
            // Level 0: the earliest occupied slot at or after the cursor
            // position holds exactly one grain — it becomes the ready run.
            let pos0 = (self.current & SLOT_MASK) as u32;
            let avail0 = self.levels[0].occupied & (!0u64 << pos0);
            if avail0 != 0 {
                let slot = avail0.trailing_zeros() as usize;
                self.current = (self.current & !SLOT_MASK) | slot as u64;
                self.levels[0].occupied &= !(1u64 << slot);
                let batch = std::mem::take(&mut self.levels[0].slots[slot]);
                // Advance past the extracted grain: same-grain pushes from
                // here on merge into the ready run instead.
                self.current += 1;
                debug_assert!(self.ready.is_empty());
                self.ready.extend(batch.iter().map(|&idx| {
                    let node = &self.nodes[idx as usize];
                    (node.time, node.seq, idx)
                }));
                self.ready.sort_unstable_by_key(|&(t, s, _)| (t, s));
                // Hand the bucket's capacity back for reuse — before any
                // re-placement below can route an event into this slot.
                self.levels[0].slots[slot] = batch;
                self.levels[0].slots[slot].clear();
                // A carry out of the low group can land a higher level's
                // position inside an occupied slot; that slot must
                // cascade down NOW — otherwise later pushes routed into
                // lower levels would pop ahead of its earlier events.
                if self.current & SLOT_MASK == 0 {
                    self.drain_carry_slot();
                }
                return;
            }
            // Level 0's page is exhausted: cascade the earliest occupied
            // higher-level slot down. The cursor's own slot can be occupied
            // right after a carry advanced the cursor into it — in that
            // case the cursor's sub-slot bits are zero, so the jump below
            // never moves the cursor backwards.
            for level in 1..LEVELS {
                let shift = SLOT_BITS * level as u32;
                let pos = ((self.current >> shift) & SLOT_MASK) as u32;
                let avail = self.levels[level].occupied & (!0u64 << pos);
                if avail == 0 {
                    continue;
                }
                let slot = avail.trailing_zeros() as usize;
                self.levels[level].occupied &= !(1u64 << slot);
                // Jump the cursor to the slot's first grain; everything
                // skipped was empty.
                let page_mask = !0u64 << (shift + SLOT_BITS);
                let jumped = (self.current & page_mask) | ((slot as u64) << shift);
                debug_assert!(jumped >= self.current, "cursor must be monotone");
                self.current = jumped;
                self.reroute_slot(level, slot);
                continue 'cascade;
            }
            // Levels are empty: pull the overflow heap's next page. Every
            // overflow event is beyond the old top-level page, so it is
            // later than everything already popped.
            let &Reverse((time, _, _)) = self.overflow.peek().expect("an event is pending");
            self.current = time.as_ps() >> GRAIN_BITS;
            let top_page = self.current >> (SLOT_BITS * LEVELS as u32);
            while let Some(&Reverse((t, _, idx))) = self.overflow.peek() {
                if (t.as_ps() >> GRAIN_BITS) >> (SLOT_BITS * LEVELS as u32) != top_page {
                    break;
                }
                self.overflow.pop();
                self.place(idx);
            }
        }
    }

    /// Re-routes the slot the cursor just carried into, if occupied.
    ///
    /// Called when `current += 1` wrapped the low group: the carry
    /// incremented exactly one higher group — the first with a non-zero
    /// position — and every group below it wrapped to zero (a wrapped
    /// group's slot 0 cannot hold live events of the current page, since
    /// placement would have put a same-or-lower grain below the cursor).
    /// Events in the entered slot differ from `current` only below that
    /// group, so re-placing them routes each into a lower level at or
    /// after the cursor, restoring the invariant that cascades never
    /// step over pending earlier events.
    fn drain_carry_slot(&mut self) {
        for level in 1..LEVELS {
            let shift = SLOT_BITS * level as u32;
            let pos = ((self.current >> shift) & SLOT_MASK) as usize;
            if pos == 0 {
                // This group wrapped too; the carry continued upward.
                continue;
            }
            if self.levels[level].occupied & (1 << pos) != 0 {
                self.levels[level].occupied &= !(1u64 << pos);
                self.reroute_slot(level, pos);
            }
            break;
        }
    }

    /// Re-routes every event of a higher-level slot whose occupancy bit
    /// the caller has cleared, handing the bucket's capacity back.
    fn reroute_slot(&mut self, level: usize, slot: usize) {
        let mut batch = std::mem::take(&mut self.levels[level].slots[slot]);
        for &idx in &batch {
            self.place(idx);
        }
        batch.clear();
        self.levels[level].slots[slot] = batch;
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &(time, _, idx) = self.ready.get(self.cursor)?;
        self.cursor += 1;
        let event = self.nodes[idx as usize]
            .event
            .take()
            .expect("ready head is pending");
        self.free.push(idx);
        self.len -= 1;
        self.popped += 1;
        self.ensure_ready();
        Some((time, event))
    }

    /// The earliest pending event's timestamp.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ready.get(self.cursor).map(|&(t, _, _)| t)
    }

    /// Drops all pending events and resets lifetime statistics to a
    /// fresh queue's, keeping allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.ready.clear();
        self.cursor = 0;
        for level in &mut self.levels {
            level.occupied = 0;
            for slot in &mut level.slots {
                slot.clear();
            }
        }
        self.overflow.clear();
        self.nodes.clear();
        self.free.clear();
        self.current = 0;
        self.len = 0;
        self.next_seq = 0;
        self.popped = 0;
        self.peak_len = 0;
    }
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_across_levels_in_order() {
        let mut w = TimerWheel::new();
        // One event per tier: ready-adjacent, level 0..5, overflow.
        let times: Vec<u64> = (0..8)
            .map(|i| 1u64 << (GRAIN_BITS + SLOT_BITS * i))
            .chain([u64::MAX >> 1])
            .collect();
        for (i, &t) in times.iter().enumerate().rev() {
            w.push(SimTime::from_ps(t), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..times.len()).collect::<Vec<_>>());
    }

    #[test]
    fn same_grain_events_sort_by_sub_grain_time_then_seq() {
        let mut w = TimerWheel::new();
        let base = 7u64 << GRAIN_BITS;
        w.push(SimTime::from_ps(base + 9), "c");
        w.push(SimTime::from_ps(base + 3), "a");
        w.push(SimTime::from_ps(base + 3), "b");
        let order: Vec<_> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn pushes_below_the_cursor_horizon_merge_into_ready() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_ps(1 << 30), 2);
        w.push(SimTime::from_ps(1 << 40), 3);
        assert_eq!(w.pop(), Some((SimTime::from_ps(1 << 30), 2)));
        // The cursor has advanced well past 5 ps; a heap would still
        // accept and next-pop this.
        w.push(SimTime::from_ps(5), 1);
        assert_eq!(w.peek_time(), Some(SimTime::from_ps(5)));
        assert_eq!(w.pop(), Some((SimTime::from_ps(5), 1)));
        assert_eq!(w.pop(), Some((SimTime::from_ps(1 << 40), 3)));
    }

    #[test]
    fn slab_reuses_slots_without_growth() {
        let mut w = TimerWheel::new();
        for round in 0..100u64 {
            for i in 0..8 {
                w.push(SimTime::from_ps(round * 1000 + i), i);
            }
            for _ in 0..8 {
                w.pop();
            }
        }
        assert!(
            w.nodes.len() <= 16,
            "slab grew to {} nodes for a backlog of 8",
            w.nodes.len()
        );
    }

    #[test]
    fn carry_into_occupied_slot_keeps_order() {
        // e2 sits in level 1 (grain 64). Popping e1 (grain 63) carries
        // the cursor to grain 64 — *into* e2's slot. A push at grain 65
        // then lands in level 0; e2 must still pop first.
        let mut w = TimerWheel::new();
        w.push(SimTime::from_ps(63 << GRAIN_BITS), "e1");
        w.push(SimTime::from_ps(64 << GRAIN_BITS), "e2");
        assert_eq!(w.pop().map(|(_, e)| e), Some("e1"));
        w.push(SimTime::from_ps(65 << GRAIN_BITS), "e3");
        assert_eq!(w.pop().map(|(_, e)| e), Some("e2"));
        assert_eq!(w.pop().map(|(_, e)| e), Some("e3"));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn clear_resets_to_fresh() {
        let mut w = TimerWheel::new();
        for i in 0..50 {
            w.push(SimTime::from_ps(i), i);
        }
        w.pop();
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.stats(), QueueStats::default());
        w.push(SimTime::from_ps(1), 1);
        assert_eq!(w.pop(), Some((SimTime::from_ps(1), 1)));
    }
}
