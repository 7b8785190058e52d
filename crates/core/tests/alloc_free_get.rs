//! A steady-state simulated GET performs no heap allocation: the
//! request slot, the lookup trace and the store phase's metadata lines
//! all live in buffers the core reuses. (Mercury and Iridium; the Helios
//! tier keeps its recency order in a `BTreeMap`, whose nodes come and go
//! as pages are touched.) Alone in its file, so no other test shares the
//! counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::slots::RequestSlots;
use densekv_workload::Op;

thread_local! {
    /// Allocations made by this thread (const-initialised and without a
    /// destructor, so reading it from the allocator cannot itself
    /// allocate or re-enter).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller's `new_size` obligations pass through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_get_does_not_allocate() {
    for (config, value_bytes) in [
        (CoreSimConfig::mercury_a7(), 64),
        (CoreSimConfig::mercury_a7(), 1 << 20),
        (CoreSimConfig::iridium_a7(), 4096),
    ] {
        let mut core = CoreSim::new(config).expect("valid configuration");
        core.preload(value_bytes, 8).expect("preload fits");
        let mut slots = RequestSlots::with_capacity(1);
        let mut get = |core: &mut CoreSim, key_id: u64| {
            let slot = slots.acquire(Op::Get, value_bytes, key_id);
            let timing =
                core.execute_parts(slots.op(slot), slots.key(slot), slots.value_bytes(slot));
            slots.release(slot);
            assert!(timing.0.hit);
        };
        // Every buffer reaches its working size within two passes.
        for key_id in (0..8).chain(0..8) {
            get(&mut core, key_id);
        }
        let before = ALLOCATIONS.with(Cell::get);
        for key_id in (0..8).cycle().take(64) {
            get(&mut core, key_id);
        }
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            allocated, 0,
            "{value_bytes} B GETs allocated {allocated} times"
        );
    }
}
