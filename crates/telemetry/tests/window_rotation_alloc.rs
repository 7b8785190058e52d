//! Once a `WindowedHistogram`'s ring is full, rotating it allocates
//! nothing: the window the ring drops is reset and reopened with the
//! buckets it already grew, so a live server's first flush of each
//! window does not regrow it under the plane lock. Alone in its file,
//! so no other test shares the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use densekv_sim::Duration;
use densekv_telemetry::WindowedHistogram;

thread_local! {
    /// Whether this thread is counting, and what it allocated.
    /// (Const-initialised and without destructors, so reading them from
    /// the allocator cannot itself allocate or re-enter.)
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a counter bump that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller's `new_size` obligations pass through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn rotations_after_the_ring_fills_allocate_nothing() {
    const CAPACITY: usize = 4;
    // A microsecond to a second: the buckets a window grows for them.
    let samples = [1, 80, 4_000, 250_000, 1_000_000].map(Duration::from_micros);
    let mut windows = WindowedHistogram::new(CAPACITY);
    // Fill the ring, each window growing its buckets as it records.
    for _ in 0..=CAPACITY {
        samples.iter().for_each(|&d| windows.record(d));
        windows.rotate();
    }
    assert_eq!(windows.retained(), CAPACITY);
    let steady = allocations(|| {
        for _ in 0..100 {
            samples.iter().for_each(|&d| windows.record(d));
            assert_eq!(windows.rotate().count(), samples.len() as u64);
        }
    });
    assert_eq!(steady, 0, "a full ring rotates without allocating");
    assert_eq!(windows.retained(), CAPACITY);
}
