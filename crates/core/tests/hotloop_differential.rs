//! Differential pins for the phase engine's exact speed paths.
//!
//! The resident-L2 shortcut, the first-pass pricing beside it and the
//! lazy L1s under both must be invisible at the request level for
//! *mixed* GET/PUT streams on every stack family, from 64 B requests
//! (every run shorter than the L1's window: the fills are postponed for
//! good) to 1 MB ones (every network phase runs far past it), for the
//! benchmark's own replay mix, and from a cold core on: all are checked
//! against a reference core that walks every cache reference.
//! (The devices' closed-form stream pricing has its own per-line
//! reference in `tests/properties.rs`.)

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv_cpu::CoreConfig;
use densekv_sim::Duration;
use densekv_sim::SplitMix64;
use densekv_workload::{
    key_bytes, key_bytes_into, FixedSizeWorkload, MixedWorkload, Op, RequestGenerator,
    ETC_GET_FRACTION, ETC_ZIPF_ALPHA,
};

/// A core built as every measured point builds one; the reference walks
/// every cache reference (preload touches only the store, so disabling
/// the shortcut after it is disabling it from the start).
fn build(config: &CoreSimConfig, value_bytes: u64, population: u64, reference: bool) -> CoreSim {
    let mut core = CoreSim::preloaded(config, value_bytes, population);
    if reference {
        core.disable_l2_residency_shortcut();
    }
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
    let mut key = Vec::new();
    for op in [Op::Get, Op::Put, Op::Get] {
        let mut gen_f = FixedSizeWorkload::new(op, value_bytes, population, 0xD1FF ^ value_bytes);
        let mut gen_r = FixedSizeWorkload::new(op, value_bytes, population, 0xD1FF ^ value_bytes);
        for i in 0..per_op {
            key_bytes_into(gen_f.next_key_id(), &mut key);
            let (tf, bf) = fast.execute_parts(op, &key, value_bytes);
            key_bytes_into(gen_r.next_key_id(), &mut key);
            let (tr, br) = reference.execute_parts(op, &key, value_bytes);
            assert_eq!(tf, tr, "timing diverged at {op:?} #{i} ({value_bytes} B)");
            assert_eq!(bf, br, "breakdown diverged at {op:?} #{i}");
            assert_cores_identical(fast, reference, &format!("{op:?} #{i}"));
        }
    }
}

/// What a request leaves visible of a core besides its own timing.
fn assert_cores_identical(fast: &CoreSim, reference: &CoreSim, at: &str) {
    assert_eq!(
        fast.cache_stats(),
        reference.cache_stats(),
        "cache counters diverged at {at}"
    );
    assert_eq!(
        fast.device_tier_bytes(),
        reference.device_tier_bytes(),
        "device bytes diverged at {at}"
    );
    assert_eq!(
        fast.tier_stats(),
        reference.tier_stats(),
        "tier counters diverged at {at}"
    );
}

/// The benchmark's `sim_core_replay` stream — its size mix, GET share
/// and key skew over a smaller population — with an 8-key multiget in
/// place of every 50th request, on the benchmark's four configurations:
/// 5 000 requests against the walking reference, then again with the
/// fast core switched to walking halfway (whatever its L1s had postponed
/// by then must be caught up on first).
#[test]
fn lazy_l1_is_invisible_on_the_replay_mix() {
    const SIZE_MIX: &[(u64, f64)] = &[(64, 0.3), (256, 0.35), (1024, 0.35)];
    const KEYS: usize = 2_000;
    const REQUESTS: usize = 5_000;
    let grid = [
        CoreSimConfig::mercury_a7(),
        CoreSimConfig::iridium_a7(),
        CoreSimConfig::helios_a7(256 << 20),
        CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10)),
    ];
    for (config, disable_at) in grid
        .iter()
        .flat_map(|c| [(c, None), (c, Some(REQUESTS / 2))])
    {
        let build = |reference: bool| {
            let mut core = build(config, 0, 0, reference);
            let mut sizes = SplitMix64::new(0x51DE);
            for id in 0..KEYS as u64 {
                let bytes = SIZE_MIX[sizes.next_below(SIZE_MIX.len() as u64) as usize].0;
                core.preload_one(&key_bytes(id), bytes).expect("fits");
            }
            core
        };
        let (mut fast, mut reference) = (build(false), build(true));
        let mut stream = MixedWorkload::new(
            KEYS,
            ETC_ZIPF_ALPHA,
            ETC_GET_FRACTION,
            SIZE_MIX,
            0xD1FF,
            "replay mix",
        );
        for i in 0..REQUESTS {
            if disable_at == Some(i) {
                fast.disable_l2_residency_shortcut();
            }
            let request = stream.next_request();
            let at = format!("request {i} ({:?} {} B)", request.op, request.value_bytes);
            if i % 50 == 49 {
                let keys: Vec<Vec<u8>> = (0..8).map(|_| stream.next_request().key).collect();
                assert_eq!(
                    fast.execute_multiget(&keys, request.value_bytes),
                    reference.execute_multiget(&keys, request.value_bytes),
                    "multiget diverged at {at}"
                );
            } else {
                assert_eq!(
                    fast.execute_breakdown(&request),
                    reference.execute_breakdown(&request),
                    "timing or breakdown diverged at {at}"
                );
            }
            assert_cores_identical(&fast, &reference, &at);
        }
        // Every reference went one way or the other; left alone, the mix
        // walks none, first passes included.
        let (counts, walking) = (fast.walk_counts(), reference.walk_counts());
        assert!(counts.deferred > 0, "the mix must defer");
        assert_eq!(counts.walked + counts.deferred, walking.walked);
        assert_eq!(counts.walked == 0, disable_at.is_none());
        assert_eq!(walking.deferred, 0);
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

/// A fresh core — what `measure_point` builds for every point of the
/// benchmark's evaluation grid — walks none of its first passes: each
/// region's first pass is all compulsory misses, priced in closed form.
/// Sized, preloaded and keyed as `measure_point` does at 64 B and 1 MB,
/// through the GET warm-up of `SweepEffort::full()`, request by request
/// equal to the walking reference. A 64 B GET walks nothing at all. A
/// 1 MB GET's copy loop makes 131 fetches over the 64-line `value-copy`
/// region, so it comes round to lines it referenced itself. On the
/// first GET the 67 that come round are looked up: the region's lines
/// were stamped by its own first pass a moment before. From the second
/// GET on, the phases between two copy loops have evicted every line of
/// the region, and a region of at most `sets` lines has each line alone
/// in its set, so the first 64 fetches miss and the 67 after them hit
/// (the repeat lemma): nothing is walked.
#[test]
fn a_cold_core_walks_nothing() {
    let grid = [
        CoreSimConfig::mercury_a7(),
        CoreSimConfig::iridium_a7(),
        CoreSimConfig::helios_a7(256 << 20),
        CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10)),
    ];
    // (value bytes, key population, warm-up GETs) of a sweep point, and
    // the references the first GET walks (no later one walks any).
    for (value_bytes, population, warm_up, first_get) in [(64, 512, 300, 0), (1 << 20, 16, 30, 67)]
    {
        for config in &grid {
            let mut fast = build(config, value_bytes, population, false);
            let mut reference = build(config, value_bytes, population, true);
            let mut keys =
                FixedSizeWorkload::new(Op::Get, value_bytes, population, 0x5EED ^ value_bytes);
            let mut key = Vec::new();
            for i in 0..warm_up {
                key_bytes_into(keys.next_key_id(), &mut key);
                assert_eq!(
                    fast.execute_parts(Op::Get, &key, value_bytes),
                    reference.execute_parts(Op::Get, &key, value_bytes),
                    "GET #{i} ({value_bytes} B)"
                );
                assert_cores_identical(&fast, &reference, &format!("GET #{i}"));
                assert_eq!(
                    fast.walk_counts().walked,
                    first_get,
                    "GET #{i} ({value_bytes} B)"
                );
            }
            assert!(fast.walk_counts().deferred > 0);
        }
    }
}

/// What a Mercury-A7 1 MB point of the quick grid costs the L1s: its
/// 26 requests (9 warm-up and 4 measured GETs, then as many PUTs, as
/// `measure_point` runs them) walk only the first GET's 67 copy fetches
/// that come round, settle once for them, and install at that settle
/// what the preload and that GET's first passes queued — every request
/// equal to the walking reference.
#[test]
fn a_1mb_point_walks_one_copy_loop() {
    const VALUE: u64 = 1 << 20;
    let config = CoreSimConfig::mercury_a7();
    let mut fast = build(&config, VALUE, 16, false);
    let mut reference = build(&config, VALUE, 16, true);
    let mut key = Vec::new();
    for op in [Op::Get, Op::Put] {
        let mut keys = FixedSizeWorkload::new(op, VALUE, 16, 0x5EED ^ VALUE);
        for i in 0..13 {
            key_bytes_into(keys.next_key_id(), &mut key);
            assert_eq!(
                fast.execute_parts(op, &key, VALUE),
                reference.execute_parts(op, &key, VALUE),
                "{op:?} #{i}"
            );
            assert_cores_identical(&fast, &reference, &format!("{op:?} #{i}"));
        }
    }
    let counts = fast.walk_counts();
    assert_eq!(
        (counts.walked, counts.settles, counts.installed_at_settle),
        (67, 1, 427)
    );
    assert_eq!(
        counts.walked + counts.deferred,
        reference.walk_counts().walked
    );
}

/// The sizes whose network phases run far past the L1's window (a
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
