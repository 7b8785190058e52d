//! A steady-state simulated GET or PUT performs no heap allocation: the
//! request's key, the lookup or set trace and the store phase's metadata
//! lines all live in buffers the core reuses; the store's hash chains
//! are links in one entry arena, and an overwrite keeps the replaced
//! item's key buffer; the cache model's queue of postponed L1 fills is a
//! ring of fixed capacity, and the Helios tier keeps its recency order
//! as links between the slots of a frame table. "Steady state" means
//! every cyclic region of the cache model has completed a pass — until
//! then the L2 owes its fills on a list that grows — so the warm-ups
//! here run that long, and the replay-mix test also pins what steady
//! state costs the cache model: nothing walked, nothing settled. A
//! preload allocates each new item's key and little else. Alone in its
//! file, so no other test shares the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv_workload::{
    key_bytes_into, MixedWorkload, Op, RequestGenerator, ETC_GET_FRACTION, ETC_ZIPF_ALPHA,
    MAX_KEY_LEN,
};

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

/// The (config, value size) rows both steady-state tests run, and
/// whether the counted window of GETs evicts from a Helios tier.
fn rows() -> [(CoreSimConfig, u64, bool); 7] {
    [
        (CoreSimConfig::mercury_a7(), 64, false),
        (CoreSimConfig::mercury_a7(), 1 << 20, false),
        (CoreSimConfig::iridium_a7(), 4096, false),
        (CoreSimConfig::helios_a7(256 << 20), 64, false),
        (CoreSimConfig::helios_a7(256 << 20), 4096, false),
        (CoreSimConfig::helios_a7(256 << 20), 1 << 20, false),
        // Half the 8 MB working set: every GET fills and evicts pages.
        (CoreSimConfig::helios_a7(4 << 20), 1 << 20, true),
    ]
}

/// Runs `requests` of `op`, cycling over the keys of an 8-key preload,
/// each rendered into `key`. Every buffer reaches its working size within two passes, but the
/// cache model is in its steady state only once every region has been
/// cycled through: the kernel region, at 165 references of its 12 288
/// lines per small GET, is the last — so a warm-up runs [`WARM_UP`].
fn run(core: &mut CoreSim, op: Op, value_bytes: u64, requests: usize, key: &mut Vec<u8>) {
    for key_id in (0..8).cycle().take(requests) {
        key_bytes_into(key_id, key);
        let timing = core.execute_parts(op, key, value_bytes);
        assert!(timing.0.hit);
    }
}

#[test]
fn steady_state_get_does_not_allocate() {
    for (config, value_bytes, evicts) in rows() {
        let mut core = CoreSim::new(config).expect("valid configuration");
        core.preload(value_bytes, 8).expect("preload fits");
        let mut key = Vec::with_capacity(MAX_KEY_LEN);
        run(&mut core, Op::Get, value_bytes, WARM_UP, &mut key);
        let tier_misses = |core: &CoreSim| core.tier_stats().map_or(0, |tier| tier.misses);
        let (before, misses_before) = (ALLOCATIONS.with(Cell::get), tier_misses(&core));
        run(&mut core, Op::Get, value_bytes, 64, &mut key);
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(tier_misses(&core) > misses_before, evicts);
        assert_eq!(
            allocated, 0,
            "{value_bytes} B GETs allocated {allocated} times"
        );
    }
}

/// A PUT overwrites a resident key: the set traces into the core's
/// scratch trace, the table relinks the entry it freed, and the new item
/// keeps the old one's key buffer.
#[test]
fn steady_state_put_does_not_allocate() {
    for (config, value_bytes, _) in rows() {
        let mut core = CoreSim::new(config).expect("valid configuration");
        core.preload(value_bytes, 8).expect("preload fits");
        let mut key = Vec::with_capacity(MAX_KEY_LEN);
        run(&mut core, Op::Put, value_bytes, WARM_UP, &mut key);
        let before = ALLOCATIONS.with(Cell::get);
        run(&mut core, Op::Put, value_bytes, 64, &mut key);
        let allocated = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(
            allocated, 0,
            "{value_bytes} B PUTs allocated {allocated} times"
        );
    }
}

/// Preloading fresh keys allocates each item's key and, amortised over
/// the run, the growth of the store's arenas and tables — nothing per
/// bucket, per migration step, per trace or per rendered key.
#[test]
fn preload_allocates_about_once_per_key() {
    const KEYS: u64 = 4_096;
    let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).expect("valid configuration");
    let before = ALLOCATIONS.with(Cell::get);
    core.preload(64, KEYS).expect("preload fits");
    let per_key = (ALLOCATIONS.with(Cell::get) - before) as f64 / KEYS as f64;
    assert!(
        per_key <= 1.05,
        "{per_key:.3} allocations per preloaded key"
    );
}

/// Requests before the cache model's last region (the kernel's) has
/// wrapped on GETs as small as 64 B.
const WARM_UP: usize = 128;

/// The benchmark's replay mix in its steady state: no allocation, and —
/// the cache model's side of the same claim — no L1 reference looked up
/// one by one, no postponed fill ever caught up on, and a queue of
/// postponed runs that stays inside its fixed capacity.
#[test]
fn steady_state_replay_defers_every_reference_and_does_not_allocate() {
    const KEYS: usize = 512;
    let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).expect("valid configuration");
    core.preload(1024, KEYS as u64).expect("preload fits");
    let mut stream = MixedWorkload::new(
        KEYS,
        ETC_ZIPF_ALPHA,
        ETC_GET_FRACTION,
        &[(64, 0.3), (256, 0.35), (1024, 0.35)],
        7,
        "replay mix",
    );
    // One request in twenty is a PUT and `store-put` needs a dozen of
    // them to wrap, so the warm-up is long; the requests are drawn up
    // front because drawing one allocates its key.
    let requests: Vec<_> = (0..4_000 + 1_000).map(|_| stream.next_request()).collect();
    let (warm_up, steady) = requests.split_at(4_000);
    for request in warm_up {
        core.execute(request);
    }
    let before = core.walk_counts();
    let allocations = ALLOCATIONS.with(Cell::get);
    for request in steady {
        core.execute(request);
    }
    let allocated = ALLOCATIONS.with(Cell::get) - allocations;
    assert_eq!(allocated, 0, "replay requests allocated {allocated} times");
    let after = core.walk_counts();
    assert!(steady.iter().any(|r| r.op == Op::Put));
    assert_eq!(after.walked, before.walked, "references walked one by one");
    assert_eq!(
        after.settles, before.settles,
        "postponed fills caught up on"
    );
    assert!(after.deferred > before.deferred + 1_000 * 400);
    assert!(after.pending_runs <= 2 * densekv_cpu::engine::L1_RING_RUNS as u64);
}
