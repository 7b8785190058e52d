//! Differential pins for the phase engine's exact speed paths.
//!
//! The resident-L2 shortcut and the thrash-region skip inside it must be
//! invisible at the request level for *mixed* GET/PUT streams on every
//! stack family, from 64 B requests (no run reaches the skip's window)
//! to 1 MB ones (every network phase does): both are checked against a
//! reference core that walks every cache reference. (The devices'
//! closed-form stream pricing has its own per-line reference in
//! `tests/properties.rs`.)

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::slots::RequestSlots;
use densekv_cpu::CoreConfig;
use densekv_sim::Duration;
use densekv_workload::{FixedSizeWorkload, Op};

fn build(config: &CoreSimConfig, value_bytes: u64, population: u64, reference: bool) -> CoreSim {
    let mut sized = config.clone();
    sized.store_bytes = sized
        .store_bytes
        .max((value_bytes + 4096) * population * 2)
        .max(16 << 20);
    let mut core = CoreSim::new(sized).expect("valid configuration");
    if reference {
        core.disable_l2_residency_shortcut();
    }
    core.preload(value_bytes, population).expect("preload fits");
    core
}

/// Runs the same seeded mixed op stream (`per_op` GETs, PUTs, then GETs
/// again) through `fast` and `reference`, asserting identical timings,
/// breakdowns, cache counters, device bytes and tier counters at every
/// request.
fn assert_streams_identical(
    fast: &mut CoreSim,
    reference: &mut CoreSim,
    value_bytes: u64,
    population: u64,
    per_op: u32,
) {
    let mut slots = RequestSlots::with_capacity(1);
    for op in [Op::Get, Op::Put, Op::Get] {
        let mut gen_f = FixedSizeWorkload::new(op, value_bytes, population, 0xD1FF ^ value_bytes);
        let mut gen_r = FixedSizeWorkload::new(op, value_bytes, population, 0xD1FF ^ value_bytes);
        for i in 0..per_op {
            let a = slots.acquire(op, value_bytes, gen_f.next_key_id());
            let (tf, bf) = fast.execute_parts(slots.op(a), slots.key(a), slots.value_bytes(a));
            slots.release(a);
            let b = slots.acquire(op, value_bytes, gen_r.next_key_id());
            let (tr, br) = reference.execute_parts(slots.op(b), slots.key(b), slots.value_bytes(b));
            slots.release(b);
            assert_eq!(tf, tr, "timing diverged at {op:?} #{i} ({value_bytes} B)");
            assert_eq!(bf, br, "breakdown diverged at {op:?} #{i}");
            assert_eq!(
                fast.cache_stats(),
                reference.cache_stats(),
                "cache counters diverged at {op:?} #{i}"
            );
            assert_eq!(
                fast.device_tier_bytes(),
                reference.device_tier_bytes(),
                "device bytes diverged at {op:?} #{i}"
            );
            assert_eq!(
                fast.tier_stats(),
                reference.tier_stats(),
                "tier counters diverged at {op:?} #{i}"
            );
        }
    }
}

#[test]
fn residency_shortcut_is_invisible_on_mercury() {
    for value_bytes in [64, 128, 8192] {
        let config = CoreSimConfig::mercury_a7();
        let mut fast = build(&config, value_bytes, 64, false);
        let mut reference = build(&config, value_bytes, 64, true);
        assert_streams_identical(&mut fast, &mut reference, value_bytes, 64, 110);
    }
}

#[test]
fn residency_shortcut_is_invisible_on_iridium() {
    let config = CoreSimConfig::iridium_a7();
    let mut fast = build(&config, 128, 64, false);
    let mut reference = build(&config, 128, 64, true);
    assert_streams_identical(&mut fast, &mut reference, 128, 64, 110);
}

/// The sizes whose network phases run far past the skip's window (a
/// 256 KB response is ~4 700 fetches and ~4 400 kernel references per
/// `net-tx`; 1 MB four times that), on the four configurations of the
/// benchmark's evaluation grid.
#[test]
fn thrash_region_skip_is_invisible_for_large_values_on_the_benchmark_grid() {
    let grid = [
        CoreSimConfig::mercury_a7(),
        CoreSimConfig::iridium_a7(),
        CoreSimConfig::helios_a7(256 << 20),
        CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10)),
    ];
    for config in &grid {
        for value_bytes in [256 << 10, 1 << 20] {
            let mut fast = build(config, value_bytes, 6, false);
            let mut reference = build(config, value_bytes, 6, true);
            assert_streams_identical(&mut fast, &mut reference, value_bytes, 6, 8);
        }
    }
}
