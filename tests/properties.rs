//! Property-based tests (proptest) over the core data structures and
//! invariants the simulation depends on.

use std::collections::HashMap;

use proptest::prelude::*;

use densekv_dht::ConsistentHashRing;
use densekv_kv::hash::jenkins_oaat;
use densekv_kv::lru::{BagLru, EvictionPolicy, StrictLru};
use densekv_kv::slab::{SlabAllocator, SlabError};
use densekv_kv::store::{KvStore, StoreConfig};
use densekv_kv::table::HashTable;
use densekv_kv::StoreBackend;
use densekv_mem::flash::FlashConfig;
use densekv_mem::ftl::Ftl;
use densekv_sim::stats::LatencyHistogram;
use densekv_sim::{Duration, SplitMix64};

// ---------------------------------------------------------------------
// Store vs. a HashMap reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum StoreOp {
    Set(u8, u16),
    Get(u8),
    Delete(u8),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (any::<u8>(), 1u16..2048).prop_map(|(k, len)| StoreOp::Set(k, len)),
        any::<u8>().prop_map(StoreOp::Get),
        any::<u8>().prop_map(StoreOp::Delete),
    ]
}

proptest! {
    /// With ample memory (no evictions), the store behaves exactly like a
    /// map from keys to (value, length).
    #[test]
    fn store_matches_hashmap_model(ops in proptest::collection::vec(store_op(), 1..200)) {
        let mut store = KvStore::new(StoreConfig::with_capacity(64 << 20));
        let mut model: HashMap<u8, u16> = HashMap::new();
        for op in ops {
            match op {
                StoreOp::Set(k, len) => {
                    let key = [b'k', k];
                    store.set(&key, vec![k; len as usize], None, 0).unwrap();
                    model.insert(k, len);
                }
                StoreOp::Get(k) => {
                    let key = [b'k', k];
                    let got = store.get(&key, 0);
                    match model.get(&k) {
                        Some(&len) => {
                            let hit = got.expect("model says present");
                            prop_assert_eq!(hit.value().len(), len as usize);
                            prop_assert!(hit.value().iter().all(|&b| b == k));
                        }
                        None => prop_assert!(got.is_none()),
                    }
                }
                StoreOp::Delete(k) => {
                    let key = [b'k', k];
                    let existed = store.delete(&key, jenkins_oaat(&key), 0);
                    prop_assert_eq!(existed, model.remove(&k).is_some());
                }
            }
            prop_assert_eq!(store.len(), model.len() as u64);
        }
    }

    /// Store byte accounting equals the sum of live item footprints.
    #[test]
    fn store_bytes_accounting(ops in proptest::collection::vec(store_op(), 1..100)) {
        let mut store = KvStore::new(StoreConfig::with_capacity(64 << 20));
        let mut model: HashMap<u8, u16> = HashMap::new();
        for op in ops {
            match op {
                StoreOp::Set(k, len) => {
                    store.set(&[b'k', k], vec![0; len as usize], None, 0).unwrap();
                    model.insert(k, len);
                }
                StoreOp::Delete(k) => {
                    let key = [b'k', k];
                    store.delete(&key, jenkins_oaat(&key), 0);
                    model.remove(&k);
                }
                StoreOp::Get(_) => {}
            }
        }
        let expected: u64 = model
            .values()
            .map(|&len| densekv_kv::store::ITEM_HEADER_BYTES + 2 + u64::from(len))
            .sum();
        prop_assert_eq!(store.stats().bytes, expected);
    }
}

// ---------------------------------------------------------------------
// Slab allocator
// ---------------------------------------------------------------------

proptest! {
    /// Live chunks never alias: every live allocation owns a disjoint
    /// byte range.
    #[test]
    fn slab_live_chunks_are_disjoint(
        sizes in proptest::collection::vec(1u64..32_768, 1..60),
        free_mask in proptest::collection::vec(any::<bool>(), 60)
    ) {
        let mut slab = SlabAllocator::new(16 << 20);
        let mut live: Vec<(u64, u64)> = Vec::new(); // (offset, len)
        let mut addrs = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            match slab.allocate(size) {
                Ok(addr) => {
                    let off = slab.byte_offset(addr);
                    let chunk = slab.chunk_bytes(addr.class);
                    prop_assert!(chunk >= size);
                    for &(o, l) in &live {
                        prop_assert!(off + chunk <= o || o + l <= off,
                            "chunk [{off}, {}) overlaps [{o}, {})", off + chunk, o + l);
                    }
                    live.push((off, chunk));
                    addrs.push(Some((addr, off, chunk)));
                }
                Err(SlabError::OutOfMemory) => addrs.push(None),
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
            // Occasionally free an earlier allocation.
            if free_mask[i % free_mask.len()] {
                if let Some(slot) = addrs.iter().position(|a| a.is_some()) {
                    let (addr, off, chunk) = addrs[slot].take().expect("checked");
                    slab.free(addr);
                    live.retain(|&(o, _)| o != off || chunk == 0);
                }
            }
        }
    }

    /// allocated_bytes is exactly the sum of live chunk sizes.
    #[test]
    fn slab_accounting_balances(sizes in proptest::collection::vec(1u64..100_000, 1..40)) {
        let mut slab = SlabAllocator::new(16 << 20);
        let mut allocated = Vec::new();
        for size in sizes {
            if let Ok(addr) = slab.allocate(size) {
                allocated.push(addr);
            }
        }
        let expected: u64 = allocated.iter().map(|a| slab.chunk_bytes(a.class)).sum();
        prop_assert_eq!(slab.allocated_bytes(), expected);
        for addr in allocated.drain(..) {
            slab.free(addr);
        }
        prop_assert_eq!(slab.allocated_bytes(), 0);
    }
}

// ---------------------------------------------------------------------
// Hash table vs. a reference model
// ---------------------------------------------------------------------

proptest! {
    /// The incremental-resize table agrees with a simple map of
    /// (hash, slot) pairs through arbitrary operation sequences.
    #[test]
    fn table_matches_model(ops in proptest::collection::vec(
        (any::<u16>(), 0u32..64, any::<bool>()), 1..300))
    {
        let mut table = HashTable::new(4);
        let mut model: Vec<(u64, u32)> = Vec::new();
        for (hash16, slot, insert) in ops {
            let hash = u64::from(hash16);
            let present = model.iter().any(|&(h, s)| h == hash && s == slot);
            if insert && !present {
                table.insert(hash, slot);
                model.push((hash, slot));
            } else if !insert && present {
                prop_assert!(table.remove(hash, slot));
                model.retain(|&(h, s)| !(h == hash && s == slot));
            }
            prop_assert_eq!(table.len(), model.len() as u64);
        }
        // Every modeled entry findable at the end (through any pending
        // migration).
        for &(hash, slot) in &model {
            let found = table.find_with(hash, |s| s == slot);
            prop_assert_eq!(found.slot, Some(slot), "entry ({}, {}) lost", hash, slot);
        }
    }
}

// ---------------------------------------------------------------------
// Eviction policies
// ---------------------------------------------------------------------

fn policy_drains_exactly_live(policy: &mut dyn EvictionPolicy, ops: &[(u8, u8)]) -> bool {
    use std::collections::HashSet;
    let mut live: HashSet<u32> = HashSet::new();
    for &(slot8, action) in ops {
        let slot = u32::from(slot8 % 32);
        match action % 3 {
            0 => {
                if !live.contains(&slot) {
                    policy.on_insert(0, slot);
                    live.insert(slot);
                }
            }
            1 => policy.on_access(0, slot),
            _ => {
                if live.remove(&slot) {
                    policy.on_remove(0, slot);
                }
            }
        }
    }
    let mut drained = HashSet::new();
    while let Some(v) = policy.pop_victim(0) {
        if !drained.insert(v) {
            return false; // duplicate victim
        }
    }
    drained == live
}

proptest! {
    /// Both policies evict each live slot exactly once, and nothing else.
    #[test]
    fn lru_policies_drain_exactly_live(ops in proptest::collection::vec(
        (any::<u8>(), any::<u8>()), 1..200))
    {
        let mut strict = StrictLru::new(1);
        prop_assert!(policy_drains_exactly_live(&mut strict, &ops), "StrictLru");
        let mut bags = BagLru::new(1, 8);
        prop_assert!(policy_drains_exactly_live(&mut bags, &ops), "BagLru");
    }
}

// ---------------------------------------------------------------------
// FTL
// ---------------------------------------------------------------------

proptest! {
    /// Arbitrary write patterns: every written page reads back from the
    /// location the FTL reports, amplification is >= 1, and no two live
    /// logical pages share a physical page.
    #[test]
    fn ftl_mapping_stays_consistent(writes in proptest::collection::vec(0u64..48, 1..600)) {
        let config = FlashConfig {
            planes: 2,
            page_bytes: 8 << 10,
            pages_per_block: 4,
            blocks_per_plane: 16,
            read_latency: Duration::from_micros(10),
            program_latency: Duration::from_micros(200),
            erase_latency: Duration::from_millis(2),
            controller_overhead: Duration::ZERO,
            active_mw_per_gbps: 6.0,
        };
        let mut ftl = Ftl::new(config, 0.25);
        let mut written = std::collections::HashSet::new();
        for lpn in writes {
            let lpn = lpn % ftl.exported_pages();
            ftl.write(lpn).expect("within capacity");
            written.insert(lpn);
        }
        prop_assert!(ftl.write_amplification() >= 1.0);
        let mut locations = std::collections::HashSet::new();
        for &lpn in &written {
            let (loc, _) = ftl.read(lpn).expect("written page readable");
            prop_assert!(locations.insert(loc), "physical page shared: {loc:?}");
        }
    }
}

// ---------------------------------------------------------------------
// DHT ring
// ---------------------------------------------------------------------

proptest! {
    /// Removing a node only remaps keys that node owned; everyone else's
    /// assignment is untouched.
    #[test]
    fn ring_removal_is_minimal(nodes in 2u32..20, victim_seed in any::<u64>(),
                               keys in proptest::collection::vec(any::<u64>(), 50))
    {
        let mut before = ConsistentHashRing::new(8);
        for n in 0..nodes {
            before.add_node(n);
        }
        let victim = (victim_seed % u64::from(nodes)) as u32;
        let mut after = before.clone();
        after.remove_node(victim);
        for key in keys {
            let kb = key.to_le_bytes();
            let owner_before = before.node_for(&kb).expect("nonempty");
            let owner_after = after.node_for(&kb).expect("nonempty");
            if owner_before != victim {
                prop_assert_eq!(owner_before, owner_after, "non-victim key moved");
            } else {
                prop_assert_ne!(owner_after, victim);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cluster simulator
// ---------------------------------------------------------------------

use densekv_cluster::{
    run as run_cluster, ClusterConfig, ClusterWorkload, FaultPlan, ServiceProfile,
};
use densekv_sim::SimTime;

/// A small, fast cluster run for the property tests.
fn cluster_base(seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig::new(ServiceProfile::synthetic(), 1.0);
    config.topology.stacks = 4;
    config.topology.cores_per_stack = 4;
    config.requests = 800;
    config.warmup = 200;
    config.seed = seed;
    config.workload.key_population = 10_000;
    // Stay below the Zipf-hottest core's saturation point so queues are
    // stable regardless of the sampled seed.
    config.workload.rate_per_sec = 0.4 * densekv_cluster::effective_capacity(&config);
    config
}

proptest! {
    /// Cluster runs are exactly reproducible: any seed, same percentiles.
    #[test]
    fn cluster_same_seed_reproduces_percentiles(seed in any::<u64>()) {
        let config = cluster_base(seed);
        let a = run_cluster(&config);
        let b = run_cluster(&config);
        prop_assert_eq!(a.latency.percentile(0.50), b.latency.percentile(0.50));
        prop_assert_eq!(a.latency.percentile(0.95), b.latency.percentile(0.95));
        prop_assert_eq!(a.latency.percentile(0.99), b.latency.percentile(0.99));
        prop_assert_eq!(a.shard_hits, b.shard_hits);
        prop_assert_eq!(a.shard_misses, b.shard_misses);
    }

    /// Multiget fan-out amplifies the tail: at matched shard-level load,
    /// the logical p99 (a max over batch legs) dominates single-GET p99.
    #[test]
    fn multiget_p99_dominates_single_get(seed in any::<u64>(), batch in 2u32..6) {
        let single = cluster_base(seed);
        let mut multi = single.clone();
        multi.workload = ClusterWorkload {
            multiget_batch: batch,
            rate_per_sec: single.workload.rate_per_sec / f64::from(batch),
            ..single.workload.clone()
        };
        let s = run_cluster(&single);
        let m = run_cluster(&multi);
        prop_assert_eq!(m.shard_hits + m.shard_misses, u64::from(batch) * m.measured);
        // Strict dominance holds in distribution (a max over iid legs),
        // but a p99 estimated from 800 requests carries sampling noise,
        // so allow a small finite-sample tolerance.
        let m_p99 = m.latency.percentile(0.99).expect("samples");
        let s_p99 = s.latency.percentile(0.99).expect("samples");
        prop_assert!(
            m_p99.as_secs_f64() >= 0.85 * s_p99.as_secs_f64(),
            "batch {} p99 {:?} far below single-get p99 {:?}", batch, m_p99, s_p99
        );
    }

    /// The engine's exact per-key remap fraction after a stack failure
    /// agrees with the DHT's sampled `remapped_fraction` estimate.
    #[test]
    fn failover_remap_matches_dht_estimate(seed in any::<u64>(), kill in 0u32..4) {
        let mut config = cluster_base(seed);
        config.fault = Some(FaultPlan {
            at: SimTime::ZERO + Duration::from_micros(200),
            kill_stacks: vec![kill],
        });
        let result = run_cluster(&config);
        let remap = result.remap.expect("fault ran");

        let topo = config.topology;
        let mut before = ConsistentHashRing::new(topo.vnodes);
        for stack in 0..topo.stacks {
            for core in 0..topo.cores_per_stack {
                before.add_node(topo.node_id(stack, core));
            }
        }
        let mut after = before.clone();
        for core in 0..topo.cores_per_stack {
            after.remove_node(topo.node_id(kill, core));
        }
        let estimate = densekv_dht::remapped_fraction(&before, &after, 100_000, seed);
        prop_assert!(
            (estimate - remap.key_fraction_remapped).abs() < 0.02,
            "sampled {:.4} vs exact {:.4}", estimate, remap.key_fraction_remapped
        );
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

proptest! {
    /// Percentiles are monotone in q and bounded by the recorded range.
    #[test]
    fn histogram_percentiles_are_sane(samples in proptest::collection::vec(1u64..10_000_000, 1..300)) {
        let mut h = LatencyHistogram::new();
        let max = *samples.iter().max().expect("nonempty");
        for &ns in &samples {
            h.record(Duration::from_nanos(ns));
        }
        let mut last = Duration::ZERO;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let p = h.percentile(q).expect("nonempty");
            prop_assert!(p >= last, "percentile not monotone at q={q}");
            prop_assert!(p <= Duration::from_nanos(max));
            last = p;
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
    }

    /// `sort` is invisible to every query, on a histogram recorded out of
    /// order and on one unsorted again by a merge.
    #[test]
    fn histogram_sort_changes_no_answer(
        first in proptest::collection::vec(0u64..1_000, 0..200),
        second in proptest::collection::vec(0u64..1_000, 0..200),
    ) {
        let record = |samples: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &ns in samples {
                h.record(Duration::from_nanos(ns));
            }
            h
        };
        let answers = |h: &LatencyHistogram| {
            let n = h.count().max(1);
            let percentiles: Vec<_> = (0..=n)
                .map(|rank| h.percentile(rank as f64 / n as f64))
                .chain([0.5, 0.95, 0.99].map(|q| h.percentile(q)))
                .collect();
            let within: Vec<_> = (0..=1_000)
                .step_by(50)
                .map(|ns| h.fraction_within(Duration::from_nanos(ns)).to_bits())
                .collect();
            (h.count(), h.mean(), h.max(), percentiles, within)
        };
        let mut h = record(&first);
        let mut sorted = h.clone();
        sorted.sort();
        prop_assert_eq!(answers(&sorted), answers(&h));

        let other = record(&second);
        h.merge(&other);
        sorted.merge(&other);
        let unmerged = answers(&h);
        prop_assert_eq!(answers(&sorted), unmerged.clone());
        sorted.sort();
        prop_assert_eq!(answers(&sorted), unmerged);
    }

    /// SplitMix64 sequences are reproducible and `next_below` respects
    /// its bound for arbitrary seeds/bounds.
    #[test]
    fn rng_bound_and_reproducibility(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..50 {
            let x = a.next_below(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_below(bound));
        }
    }
}

// ---------------------------------------------------------------------
// Cache simulator vs. a reference LRU model
// ---------------------------------------------------------------------

/// A trivially correct set-associative LRU cache: per-set Vec, linear
/// scan, explicit recency ordering.
struct ReferenceCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
}

impl ReferenceCache {
    fn new(sets: usize, ways: usize) -> Self {
        ReferenceCache {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }

    fn access(&mut self, line: u64) -> bool {
        let nsets = self.sets.len() as u64;
        let set = &mut self.sets[(line % nsets) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            let l = set.remove(pos);
            set.insert(0, l);
            true
        } else {
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, line);
            false
        }
    }
}

proptest! {
    /// The production cache simulator agrees with the reference model on
    /// every access of arbitrary traces, across geometries.
    #[test]
    fn cache_matches_reference_lru(
        trace in proptest::collection::vec(0u64..512, 1..600),
        ways in 1u32..8,
        sets_pow in 0u32..5,
    ) {
        let sets = 1usize << sets_pow;
        let config = densekv_cpu::cache::CacheConfig {
            size_bytes: 64 * ways as u64 * sets as u64,
            line_bytes: 64,
            ways,
            latency: Duration::from_nanos(1),
        };
        let mut cache = densekv_cpu::cache::Cache::new(config);
        let mut reference = ReferenceCache::new(sets, ways as usize);
        for (i, &line) in trace.iter().enumerate() {
            let got = cache.access(line);
            let want = reference.access(line);
            prop_assert_eq!(got, want, "access {} (line {}) diverged", i, line);
        }
    }
}

// ---------------------------------------------------------------------
// Protocol robustness
// ---------------------------------------------------------------------

proptest! {
    /// The command parser never panics on arbitrary bytes — it returns
    /// Complete, Incomplete, or a protocol error.
    #[test]
    fn protocol_parser_never_panics(input in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut buf = bytes::BytesMut::from(&input[..]);
        // Drain as far as the parser will go; bounded by input length.
        for _ in 0..64 {
            match densekv_kv::protocol::parse_command(&mut buf) {
                Ok(densekv_kv::protocol::Parsed::Complete(_)) => {}
                Ok(densekv_kv::protocol::Parsed::Incomplete) | Err(_) => break,
            }
        }
    }

    /// The client reply parser never panics on arbitrary bytes.
    #[test]
    fn reply_parser_never_panics(input in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut buf = bytes::BytesMut::from(&input[..]);
        for _ in 0..64 {
            match densekv_kv::client::parse_reply(&mut buf) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// The full server loop survives arbitrary input bytes and always
    /// produces ASCII-framed responses.
    #[test]
    fn server_loop_survives_fuzz(input in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut store = KvStore::new(StoreConfig::with_capacity(4 << 20));
        let out = densekv_kv::server::serve_buffer(&mut store, &input, 0);
        // Any output is CRLF-framed lines (possibly with binary VALUE
        // payloads, which this fuzz can't elicit without valid sets).
        if !out.is_empty() {
            prop_assert!(out.ends_with(b"\r\n"));
        }
    }

    /// Client-built requests always round-trip the server loop: the
    /// number of replies equals the number of replied-to commands.
    #[test]
    fn builder_requests_always_parse(
        ops in proptest::collection::vec((any::<u8>(), proptest::collection::vec(any::<u8>(), 0..40)), 1..20)
    ) {
        use densekv_kv::client::{parse_reply, RequestBuilder};
        let mut store = KvStore::new(StoreConfig::with_capacity(8 << 20));
        let mut builder = RequestBuilder::new();
        for (selector, data) in &ops {
            let key = [b'k', selector % 16];
            match selector % 5 {
                0 => {
                    builder.set(&key, data, 0, 0);
                }
                1 => {
                    builder.add(&key, data, 0, 0);
                }
                2 => {
                    builder.get(&key);
                }
                3 => {
                    builder.delete(&key);
                }
                _ => {
                    builder.incr_decr(&key, u64::from(*selector), false);
                }
            }
        }
        let out = densekv_kv::server::serve_buffer(&mut store, &builder.take(), 0);
        let mut buf = bytes::BytesMut::from(&out[..]);
        let mut replies = 0;
        while let Some(_reply) = parse_reply(&mut buf).expect("server output is well-formed") {
            replies += 1;
        }
        prop_assert_eq!(replies, ops.len());
        prop_assert!(buf.is_empty(), "no trailing bytes");
    }
}

// ---------------------------------------------------------------------
// Telemetry passivity: observing a run cannot change it
// ---------------------------------------------------------------------

proptest! {
    /// A cluster run with telemetry fully enabled is bit-identical to
    /// the same seeded run with telemetry off — same completion counts,
    /// same hit/miss split, same latency percentiles — and the metrics
    /// registry mirrors the result struct rather than diverging from it.
    #[test]
    fn telemetry_cannot_change_cluster_results(
        seed in any::<u64>(),
        load_pct in 20u64..90,
        batch in 1u64..4,
        sample_every in 1u64..64,
    ) {
        use densekv_cluster::{
            effective_capacity, run, run_with_telemetry, ClusterConfig, ClusterWorkload,
            ServiceProfile, TIMELINE_COLUMNS,
        };
        use densekv_telemetry::{Telemetry, TelemetryConfig};

        let mut config = ClusterConfig::new(ServiceProfile::synthetic(), 1.0);
        config.requests = 600;
        config.warmup = 100;
        config.seed = seed;
        let load = load_pct as f64 / 100.0;
        config.workload =
            ClusterWorkload::multigets(load * effective_capacity(&config), batch as u32);

        let dark = run(&config);
        let mut tele = Telemetry::enabled(TelemetryConfig {
            sample_every,
            timeline_interval: Duration::from_micros(250),
            timeline_columns: TIMELINE_COLUMNS.to_vec(),
        });
        let lit = run_with_telemetry(&config, &mut tele);

        prop_assert_eq!(dark.measured, lit.measured);
        prop_assert_eq!(dark.dropped, lit.dropped);
        prop_assert_eq!(dark.shard_hits, lit.shard_hits);
        prop_assert_eq!(dark.shard_misses, lit.shard_misses);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(dark.latency.percentile(q), lit.latency.percentile(q));
            prop_assert_eq!(dark.shard_latency.percentile(q), lit.shard_latency.percentile(q));
        }
        prop_assert_eq!(
            tele.metrics.counter_by_name("cluster.requests"),
            Some(lit.measured)
        );
        prop_assert_eq!(
            tele.metrics.counter_by_name("cluster.shard.hits"),
            Some(lit.shard_hits)
        );
        // Sampled spans are internally consistent: phases tile the span.
        for span in tele.tracer.spans() {
            prop_assert_eq!(span.phase_sum(), span.total());
        }
    }
}

// ---------------------------------------------------------------------
// Energy passivity: metering a run cannot change it
// ---------------------------------------------------------------------

proptest! {
    /// A closed-loop core run with energy metering on is bit-identical
    /// in every performance output to the same run with metering off:
    /// the energy layer only reads counters after each execution and
    /// does arithmetic on them.
    #[test]
    fn energy_metering_cannot_change_core_results(
        seed in any::<u64>(),
        requests in 8u64..48,
        put_every in 2u64..8,
    ) {
        use densekv::energy::run_energy_observed;
        use densekv::sim::{CoreSim, CoreSimConfig};
        use densekv_telemetry::Telemetry;
        use densekv_workload::{key_bytes, Op, Request};

        let mut rng = SplitMix64::new(seed);
        let workload: Vec<Request> = (0..requests)
            .map(|i| Request {
                op: if i % put_every == 0 { Op::Put } else { Op::Get },
                key: key_bytes(rng.next_u64() % 24),
                value_bytes: 64 + (rng.next_u64() % 512),
            })
            .collect();

        let run_arm = |metered: bool| {
            let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).expect("valid");
            core.preload(64, 24).expect("fits");
            let mut tele = Telemetry::disabled();
            run_energy_observed(
                &mut core,
                &workload,
                &mut tele,
                metered,
                Duration::from_micros(500),
            )
        };
        let dark = run_arm(false);
        let lit = run_arm(true);

        prop_assert_eq!(dark.requests, lit.requests);
        prop_assert_eq!(dark.elapsed, lit.elapsed);
        prop_assert_eq!(dark.latency.count(), lit.latency.count());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(dark.latency.percentile(q), lit.latency.percentile(q));
        }
        // The metered arm actually measured something.
        prop_assert_eq!(dark.meter.total_j(), 0.0);
        prop_assert!(lit.meter.total_j() > 0.0);
    }

    /// A cluster run with energy accounting configured is bit-identical
    /// in every performance output to the same seeded run without it:
    /// the accounting is derived purely from event data the engine
    /// already computes.
    #[test]
    fn energy_metering_cannot_change_cluster_results(
        seed in any::<u64>(),
        load_pct in 20u64..90,
        batch in 1u64..4,
    ) {
        use densekv_cluster::{
            effective_capacity, run, ClusterConfig, ClusterEnergyModel, ClusterWorkload,
            ServiceProfile,
        };

        let mut config = ClusterConfig::new(ServiceProfile::synthetic(), 1.0);
        config.requests = 600;
        config.warmup = 100;
        config.seed = seed;
        let load = load_pct as f64 / 100.0;
        config.workload =
            ClusterWorkload::multigets(load * effective_capacity(&config), batch as u32);

        let dark = run(&config);
        config.energy = Some(ClusterEnergyModel::mercury_a7(
            config.topology.cores_per_stack,
        ));
        let lit = run(&config);

        prop_assert_eq!(dark.measured, lit.measured);
        prop_assert_eq!(dark.dropped, lit.dropped);
        prop_assert_eq!(dark.shard_hits, lit.shard_hits);
        prop_assert_eq!(dark.shard_misses, lit.shard_misses);
        prop_assert_eq!(dark.throughput_tps, lit.throughput_tps);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(dark.latency.percentile(q), lit.latency.percentile(q));
            prop_assert_eq!(dark.shard_latency.percentile(q), lit.shard_latency.percentile(q));
        }
        // The metered arm actually measured something.
        prop_assert!(dark.energy.is_none());
        let energy = lit.energy.expect("energy configured");
        prop_assert!(energy.total_j() > 0.0);
    }
}

// ---------------------------------------------------------------------
// Helios hybrid tier: degenerate limits and passivity
// ---------------------------------------------------------------------

proptest! {
    /// Degenerate limit, lower end: a Helios core with a 0-byte DRAM
    /// tier is an Iridium core, bit for bit — every request timing and
    /// the device byte counter agree over arbitrary GET/PUT mixes.
    #[test]
    fn helios_zero_tier_is_iridium_bit_for_bit(
        seed in any::<u64>(),
        requests in 8u64..40,
        put_every in 2u64..6,
    ) {
        use densekv::sim::{CoreSim, CoreSimConfig};
        use densekv_workload::{key_bytes, Op, Request};

        let mut rng = SplitMix64::new(seed);
        let workload: Vec<Request> = (0..requests)
            .map(|i| Request {
                op: if i % put_every == 0 { Op::Put } else { Op::Get },
                key: key_bytes(rng.next_u64() % 24),
                value_bytes: 64 + (rng.next_u64() % 1024),
            })
            .collect();

        let mut iridium = CoreSim::new(CoreSimConfig::iridium_a7()).expect("valid");
        let mut helios = CoreSim::new(CoreSimConfig::helios_a7(0)).expect("valid");
        iridium.preload(64, 24).expect("fits");
        helios.preload(64, 24).expect("fits");
        for (i, request) in workload.iter().enumerate() {
            let a = iridium.execute(request);
            let b = helios.execute(request);
            prop_assert_eq!(a, b, "request {} diverged", i);
        }
        prop_assert_eq!(iridium.device_bytes(), helios.device_bytes());
    }

    /// Degenerate limit, upper end: with a tier larger than everything
    /// the trace touches, every re-reference to a resident page is
    /// served at exactly Mercury's closed-page DRAM line latency, and
    /// the hit/miss counters agree with a reference resident-set model.
    #[test]
    fn helios_oversized_tier_rereferences_at_dram_speed(
        lines in proptest::collection::vec(0u64..4096, 1..300)
    ) {
        use densekv_hybrid::{HybridConfig, HybridMemory};
        use densekv_mem::dram::{DramConfig, DramStack};
        use densekv_mem::{AccessKind, MemoryTiming, LINE_BYTES};

        let config = HybridConfig::helios(1 << 30, Duration::from_micros(25));
        let page_lines = config.flash.page_bytes / LINE_BYTES;
        let mut hybrid = HybridMemory::new(config.clone());
        let mut mercury = DramStack::new(DramConfig::mercury(Duration::from_nanos(10)));

        let mut resident = std::collections::HashSet::new();
        let mut hits = 0u64;
        for &line in &lines {
            let latency = hybrid.line_access(line, AccessKind::Read);
            if resident.contains(&(line / page_lines)) {
                hits += 1;
                prop_assert_eq!(latency, config.dram_line_latency());
                prop_assert_eq!(latency, mercury.line_access(line, AccessKind::Read));
            }
            resident.insert(line / page_lines);
        }
        prop_assert_eq!(hybrid.tier_hits(), hits);
        prop_assert_eq!(hybrid.tier_misses(), lines.len() as u64 - hits);
        prop_assert_eq!(hybrid.resident_pages(), resident.len() as u64);
    }

    /// A Helios core run with energy metering on is bit-identical in
    /// every performance output — and every tier counter — to the same
    /// run with metering off: per-tier pricing only reads the byte
    /// counters after each execution.
    #[test]
    fn energy_metering_cannot_change_helios_results(
        seed in any::<u64>(),
        requests in 8u64..48,
        put_every in 2u64..8,
        tier_kb in 0u64..2048,
    ) {
        use densekv::energy::run_energy_observed;
        use densekv::sim::{CoreSim, CoreSimConfig};
        use densekv_telemetry::Telemetry;
        use densekv_workload::{key_bytes, Op, Request};

        let mut rng = SplitMix64::new(seed);
        let workload: Vec<Request> = (0..requests)
            .map(|i| Request {
                op: if i % put_every == 0 { Op::Put } else { Op::Get },
                key: key_bytes(rng.next_u64() % 24),
                value_bytes: 64 + (rng.next_u64() % 512),
            })
            .collect();

        let run_arm = |metered: bool| {
            let mut core =
                CoreSim::new(CoreSimConfig::helios_a7(tier_kb << 10)).expect("valid");
            core.preload(64, 24).expect("fits");
            let mut tele = Telemetry::disabled();
            let run = run_energy_observed(
                &mut core,
                &workload,
                &mut tele,
                metered,
                Duration::from_micros(500),
            );
            (run, core.tier_stats().expect("hybrid core"), core.device_tier_bytes())
        };
        let (dark, dark_tier, dark_bytes) = run_arm(false);
        let (lit, lit_tier, lit_bytes) = run_arm(true);

        prop_assert_eq!(dark.requests, lit.requests);
        prop_assert_eq!(dark.elapsed, lit.elapsed);
        prop_assert_eq!(dark.latency.count(), lit.latency.count());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            prop_assert_eq!(dark.latency.percentile(q), lit.latency.percentile(q));
        }
        prop_assert_eq!(dark_tier, lit_tier);
        prop_assert_eq!(dark_bytes, lit_bytes);
        // The metered arm actually measured something.
        prop_assert_eq!(dark.meter.total_j(), 0.0);
        prop_assert!(lit.meter.total_j() > 0.0);
    }
}

// ---------------------------------------------------------------------
// Bulk stream pricing: every closed form equals the per-line walk
// ---------------------------------------------------------------------

mod stream_pricing {
    use densekv_hybrid::{HybridConfig, HybridMemory};
    use densekv_mem::dram::{DramConfig, DramStack};
    use densekv_mem::flash::{FlashArray, FlashConfig};
    use densekv_mem::ftl::Ftl;
    use densekv_mem::sram::SramBuffer;
    use densekv_mem::{stream_per_line, AccessKind, MemoryTiming, PagePolicy};
    use densekv_sim::Duration;
    use proptest::prelude::*;

    /// One sequential run: where it starts, how long it is, its
    /// direction, and which overlap the caller scales it by.
    pub type Run = (u64, u64, bool, usize);

    /// Reciprocal overlaps the phase engine actually produces (MLP 1, 2,
    /// 3, 4), so the scaled per-line latency rounds as it does there.
    const SCALES: [f64; 4] = [1.0, 0.5, 1.0 / 3.0, 0.25];

    pub fn kind(write: bool) -> AccessKind {
        if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    /// Runs near `anchor` (a port, capacity or page boundary) as often
    /// as anywhere else, and of 0 to `max_lines` lines.
    pub fn runs(anchor: u64, span: u64, max_lines: u64) -> impl Strategy<Value = Vec<Run>> {
        proptest::collection::vec(
            (
                prop_oneof![0..span, (anchor - 40)..(anchor + 40)],
                0..max_lines,
                any::<bool>(),
                0usize..SCALES.len(),
            ),
            1..24,
        )
    }

    /// Drives `fast` through `stream_access` and `reference` through the
    /// per-line walk, comparing the returned time, the byte counter and
    /// `observe` (every other counter) after each run.
    pub fn assert_runs_match<M: MemoryTiming, O: PartialEq + core::fmt::Debug>(
        fast: &mut M,
        reference: &mut M,
        runs: &[Run],
        observe: impl Fn(&M) -> O,
    ) {
        for (i, &(start, lines, write, scale)) in runs.iter().enumerate() {
            let a = fast.stream_access(start, lines, kind(write), SCALES[scale]);
            let b = stream_per_line(reference, start, lines, kind(write), SCALES[scale]);
            prop_assert_eq!(
                a,
                b,
                "run {} ({} lines at {}) priced differently",
                i,
                lines,
                start
            );
            prop_assert_eq!(
                fast.bytes_moved(),
                reference.bytes_moved(),
                "bytes after run {}",
                i
            );
            prop_assert_eq!(
                observe(fast),
                observe(reference),
                "counters after run {}",
                i
            );
        }
    }

    fn dram_counters(d: &DramStack) -> (u64, u64, Vec<u64>) {
        let ports = (0..d.config().ports).map(|p| d.port_bytes_moved(p));
        (d.row_hits(), d.row_misses(), ports.collect())
    }

    fn flash_counters(f: &FlashArray) -> (u64, u64, u64) {
        (f.reads(), f.programs(), f.erases())
    }

    /// A small flash geometry so garbage collection starts early;
    /// `page_bytes` also comes in sizes that are not a power of two.
    fn tiny_flash(page_bytes: u64) -> FlashConfig {
        FlashConfig {
            planes: 2,
            page_bytes,
            pages_per_block: 4,
            blocks_per_plane: 16,
            read_latency: Duration::from_micros(10),
            program_latency: Duration::from_micros(200),
            erase_latency: Duration::from_millis(2),
            controller_overhead: Duration::from_micros(15),
            active_mw_per_gbps: 6.0,
        }
    }

    proptest! {
        /// Closed-page stacks take the closed form, open-page and
        /// odd-sized ones the per-line default; all four must agree with
        /// the walk on time, bytes, row counters and per-port bytes —
        /// across port boundaries and the wrap at capacity.
        #[test]
        fn dram_stream_matches_per_line_walk(
            geometry in 0usize..4,
            // One port is 4 Mi lines on the Mercury stack; 16 of them wrap.
            runs in runs(4 << 20, 70 << 20, 3_000),
        ) {
            let config = match geometry {
                0 => DramConfig::default(),
                1 => DramConfig { page_policy: PagePolicy::Open, ..DramConfig::default() },
                2 => DramConfig::ddr3_like(),
                // 1.5 GB: not a power of two, so no mask-and-shift decode.
                _ => DramConfig { layers: 3, ..DramConfig::default() },
            };
            let mut fast = DramStack::new(config.clone());
            let mut reference = DramStack::new(config);
            assert_runs_match(&mut fast, &mut reference, &runs, dram_counters);
            // Row-buffer state (open page) shows in what a probe pays next.
            for line in [0u64, 1, 15, 16, 4 << 20, (4 << 20) + 1] {
                prop_assert_eq!(
                    fast.line_access(line, AccessKind::Read),
                    reference.line_access(line, AccessKind::Read)
                );
            }
        }

        /// The stateless devices: raw flash, the FTL's timing facade over
        /// it, and the packet-buffer SRAM.
        #[test]
        fn flash_ftl_and_sram_streams_match_per_line_walk(runs in runs(1 << 20, 2 << 20, 20_000)) {
            let config = FlashConfig::default();
            assert_runs_match(
                &mut FlashArray::new(config.clone()),
                &mut FlashArray::new(config),
                &runs,
                flash_counters,
            );
            assert_runs_match(
                &mut Ftl::new(tiny_flash(8 << 10), 0.25),
                &mut Ftl::new(tiny_flash(8 << 10), 0.25),
                &runs,
                |ftl| (flash_counters(ftl.flash()), ftl.host_writes()),
            );
            assert_runs_match(
                &mut SramBuffer::on_die(),
                &mut SramBuffer::on_die(),
                &runs,
                SramBuffer::clone,
            );
        }

        /// The page-granular hybrid stream against the per-line walk, on
        /// tiers small enough that runs evict: a 0-byte tier, pages of
        /// 3 and 65 lines, and writes whose dirty victims fill the
        /// writeback buffer and reach the FTL (garbage collection
        /// included). Bulk PUT writes are interleaved, as the core
        /// interleaves them.
        #[test]
        fn hybrid_stream_matches_per_line_walk(
            tier_pages in 0u64..9,
            writeback_pages in 1u32..5,
            page_shape in 0usize..3,
            // 96 logical pages are exported; starts run past them to wrap.
            runs in runs(96 * 128, 110 * 128, 700),
            value_writes in proptest::collection::vec((0u64..(1 << 20), 1u64..40_000), 24),
        ) {
            let page_bytes = [8 << 10, 65 * 64, 3 * 64][page_shape];
            let config = HybridConfig {
                dram_tier_bytes: tier_pages * page_bytes,
                writeback_pages,
                flash: tiny_flash(page_bytes),
                overprovision: 0.25,
                ..HybridConfig::helios(0, Duration::from_micros(10))
            };
            let mut fast = HybridMemory::new(config.clone());
            let mut reference = HybridMemory::new(config);
            let observe = |m: &HybridMemory| {
                (m.snapshot(), flash_counters(m.ftl().flash()), m.ftl().flash().wear_spread())
            };
            for (run, &(offset, bytes)) in runs.iter().zip(&value_writes) {
                assert_runs_match(&mut fast, &mut reference, &[*run], observe);
                prop_assert_eq!(
                    fast.value_write(offset, bytes),
                    reference.value_write(offset, bytes)
                );
            }
            // What each later access pays depends on which pages are
            // resident, which are dirty and in what recency order: a
            // scan longer than the tier, twice, witnesses all three.
            let lines_per_page = page_bytes / 64;
            for pass in 0..2 {
                for page in (0..24u64).map(|i| i * 7 % 24) {
                    let line = page * lines_per_page + pass;
                    prop_assert_eq!(
                        fast.line_access(line, kind(page % 3 == 0)),
                        reference.line_access(line, kind(page % 3 == 0)),
                        "probe of page {} diverged", page
                    );
                }
            }
            prop_assert_eq!(fast.drain_writeback(), reference.drain_writeback());
            prop_assert_eq!(observe(&fast), observe(&reference));
        }
    }
}

// ---------------------------------------------------------------------
// Parallel harness determinism (densekv-par)
// ---------------------------------------------------------------------

use densekv::experiments::{cluster, hybrid};
use densekv::sweep::{sweep_sizes, SweepEffort, SweepPoint};
use densekv::CoreSimConfig;
use densekv_par::{par_map_reduce, Jobs};

proptest! {
    /// The ordered reduction merges identically at any worker count:
    /// random histograms, random jobs, bit-equal statistics out.
    #[test]
    fn par_map_reduce_merge_matches_serial(
        samples in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000_000, 1..40),
            1..24,
        ),
        jobs in 1usize..9,
    ) {
        let build = |i: usize| {
            let mut h = LatencyHistogram::new();
            for &ns in &samples[i] {
                h.record(Duration::from_nanos(ns));
            }
            h
        };
        let merge = |mut acc: LatencyHistogram, h: LatencyHistogram| {
            acc.merge(&h);
            acc
        };
        let serial =
            par_map_reduce(Jobs::SERIAL, samples.len(), build, LatencyHistogram::new(), merge);
        let par =
            par_map_reduce(Jobs::new(jobs), samples.len(), build, LatencyHistogram::new(), merge);
        prop_assert_eq!(serial.count(), par.count());
        prop_assert_eq!(serial.mean(), par.mean());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(serial.percentile(q), par.percentile(q));
        }
    }
}

/// Renders a sweep to exact bits so even a last-ulp divergence between
/// the serial and parallel runs fails the comparison.
fn sweep_bits(points: &[SweepPoint]) -> String {
    points
        .iter()
        .map(|p| {
            format!(
                "{} {:016x} {:016x} {:016x} {:016x} {:016x}",
                p.value_bytes,
                p.get.tps.to_bits(),
                p.put.tps.to_bits(),
                p.get.perf.mem_gbps.to_bits(),
                p.get.perf.wire_gbps.to_bits(),
                p.get
                    .latency
                    .percentile(0.99)
                    .expect("samples")
                    .as_secs_f64()
                    .to_bits(),
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// `--jobs` must never change results: the size-sweep grid is
/// bit-identical at 1 and 4 workers.
#[test]
fn sweep_grid_is_jobs_invariant() {
    let cfg = CoreSimConfig::mercury_a7();
    let serial = sweep_sizes(&cfg, SweepEffort::quick(), Jobs::SERIAL);
    let par = sweep_sizes(&cfg, SweepEffort::quick(), Jobs::new(4));
    assert_eq!(sweep_bits(&serial), sweep_bits(&par));
}

/// The hybrid tier sweep renders byte-identical CSVs at 1 and 4 workers.
#[test]
fn hybrid_sweep_is_jobs_invariant() {
    let serial = hybrid::run(SweepEffort::quick(), Jobs::SERIAL);
    let par = hybrid::run(SweepEffort::quick(), Jobs::new(4));
    assert_eq!(
        hybrid::sweep_table(&serial).to_csv(),
        hybrid::sweep_table(&par).to_csv()
    );
    assert_eq!(
        hybrid::power_table(&serial).to_csv(),
        hybrid::power_table(&par).to_csv()
    );
}

/// The cluster tail sweep renders a byte-identical CSV at 1 and 4
/// workers.
#[test]
fn cluster_tail_is_jobs_invariant() {
    let serial = cluster::cluster_tail(SweepEffort::quick(), Jobs::SERIAL);
    let par = cluster::cluster_tail(SweepEffort::quick(), Jobs::new(4));
    assert_eq!(
        cluster::tail_table(&serial).to_csv(),
        cluster::tail_table(&par).to_csv()
    );
}
