//! The phase timing engine.
//!
//! A Memcached request decomposes into phases (Fig. 4 of the paper:
//! network stack, hash computation, store metadata, plus value movement).
//! Each phase is described by a [`PhaseSpec`] — an instruction budget and
//! a memory-reference mix — and "executed" against the core's cache
//! hierarchy and the stack's memory device. The result is the phase's
//! simulated time, split into compute and stall components, which is what
//! the figure-4 experiment reports.
//!
//! Reference classes:
//!
//! * **Instruction fetches.** Scale-out workloads have instruction
//!   footprints far beyond an L1I (Ferdman et al., ASPLOS '12). Each phase
//!   cycles a fetch cursor through its own footprint; the resulting L1I
//!   misses hit the L2 when present (the paper notes a 2 MB L2 holds the
//!   entire instruction footprint, §4.2.1) and memory otherwise.
//! * **Kernel-structure references** — socket buffers, protocol control
//!   blocks, dispatch tables. Random within a ~768 KB hot region: they
//!   thrash a 32 KB L1D but fit the 2 MB L2.
//! * **Store references** — hash-bucket walks, item headers, and value
//!   lines. These are spread over the stack's whole data capacity
//!   (gigabytes), so their cache hit rate is negligible and they go
//!   straight to the memory device; sequential value transfers overlap by
//!   the core's `stream_mlp`.
//! * **Uncached operations** — NIC doorbells/MMIO, priced at a fixed
//!   latency that no core overlaps.

use std::collections::HashMap;

use densekv_mem::{AccessKind, MemoryTiming};
use densekv_sim::Duration;

use crate::cache::{Cache, CacheConfig};
use crate::core::CoreConfig;

/// Line-granular base of the kernel hot region (arbitrary, disjoint from
/// instruction and store regions).
const KERNEL_BASE_LINE: u64 = 0x8000_0000;
/// Lines in the kernel hot region: 12,288 lines = 768 KB.
const KERNEL_REGION_LINES: u64 = 12_288;
/// Line-granular base where per-phase instruction footprints start.
const INSTR_BASE_LINE: u64 = 0x4000_0000;

/// A sequential value transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRef {
    /// First line of the transfer (device line address).
    pub start_line: u64,
    /// Number of 64 B lines.
    pub lines: u64,
    /// Direction.
    pub kind: AccessKind,
}

/// One request phase's instruction budget and reference mix.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Phase name; phases with the same name share an instruction
    /// footprint (and therefore warm each other's caches).
    pub name: &'static str,
    /// Committed instructions.
    pub instructions: u64,
    /// Instruction-cache footprint the phase cycles through, in lines.
    pub ifetch_footprint_lines: u64,
    /// Off-loop instruction fetches per 1,000 instructions (an L1I-MPKI
    /// proxy; Ferdman et al. measure O(10) for scale-out code).
    pub ifetch_per_kinstr: u64,
    /// Random references into the kernel hot region.
    pub kernel_refs: u64,
    /// Explicit store references (hash buckets, item headers), as device
    /// line addresses.
    pub store_refs: Vec<u64>,
    /// Optional bulk value transfer.
    pub stream: Option<StreamRef>,
    /// Uncached MMIO operations (NIC doorbells, DMA descriptors).
    pub uncached_ops: u64,
}

impl PhaseSpec {
    /// A compute-only phase (no memory traffic beyond its fetch stream).
    pub fn compute(name: &'static str, instructions: u64) -> Self {
        PhaseSpec {
            name,
            instructions,
            ifetch_footprint_lines: 64,
            ifetch_per_kinstr: 2,
            kernel_refs: 0,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: 0,
        }
    }
}

/// A contiguous run of lines that a cursor cycles through.
#[derive(Debug, Clone, Copy)]
struct Region {
    base: u64,
    footprint: u64,
}

impl Region {
    /// The line under `cursor`, which then steps on, counting a completed
    /// pass in `wraps`. The cursor moves by one, so a wrap-compare stands
    /// in for a per-reference `%`.
    #[inline]
    fn next_line(self, cursor: &mut u64, wraps: &mut u64) -> u64 {
        let line = self.base + *cursor;
        *cursor += 1;
        if *cursor == self.footprint {
            *cursor = 0;
            *wraps += 1;
        }
        line
    }
}

/// Where a simulated reference was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Level {
    L1,
    L2,
    Memory,
}

/// Timing result of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseResult {
    /// Total phase time.
    pub time: Duration,
    /// Pure compute component (instructions / (IPC × f) + MMIO).
    pub busy: Duration,
    /// Memory-stall component.
    pub stall: Duration,
    /// References that reached the memory device.
    pub mem_refs: u64,
    /// References satisfied by the L2.
    pub l2_hits: u64,
    /// Bytes moved at the memory device by this phase.
    pub mem_bytes: u64,
}

impl PhaseResult {
    /// Accumulates another result into this one.
    pub fn merge(&mut self, other: &PhaseResult) {
        self.time += other.time;
        self.busy += other.busy;
        self.stall += other.stall;
        self.mem_refs += other.mem_refs;
        self.l2_hits += other.l2_hits;
        self.mem_bytes += other.mem_bytes;
    }
}

/// Hit/miss counts of one cache level at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Lookups satisfied by this level.
    pub hits: u64,
    /// Lookups that fell through.
    pub misses: u64,
}

impl CacheLevelStats {
    /// Hit fraction; `0.0` before any lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups against this level (every lookup pays the level's
    /// access energy, hit or miss).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Counter growth since an `earlier` snapshot (saturating, so a
    /// reset between snapshots yields zeros rather than wrapping).
    #[must_use]
    pub fn delta(&self, earlier: &CacheLevelStats) -> CacheLevelStats {
        CacheLevelStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// Per-level snapshot of the engine's cache hierarchy — what the
/// telemetry layer polls into its gauges between requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheHierarchyStats {
    /// Instruction L1.
    pub l1i: CacheLevelStats,
    /// Data L1.
    pub l1d: CacheLevelStats,
    /// Unified L2, when configured.
    pub l2: Option<CacheLevelStats>,
}

impl CacheHierarchyStats {
    /// Per-level growth since an `earlier` snapshot — the quantity the
    /// energy layer charges per-access joules for.
    #[must_use]
    pub fn delta(&self, earlier: &CacheHierarchyStats) -> CacheHierarchyStats {
        CacheHierarchyStats {
            l1i: self.l1i.delta(&earlier.l1i),
            l1d: self.l1d.delta(&earlier.l1d),
            l2: self.l2.map(|l2| l2.delta(&earlier.l2.unwrap_or_default())),
        }
    }

    /// Combined L1 I+D lookups.
    #[must_use]
    pub fn l1_accesses(&self) -> u64 {
        self.l1i.accesses() + self.l1d.accesses()
    }

    /// L2 lookups (`0` without an L2).
    #[must_use]
    pub fn l2_accesses(&self) -> u64 {
        self.l2.map_or(0, |l2| l2.accesses())
    }
}

/// Cache hierarchy + core parameters; executes [`PhaseSpec`]s.
///
/// # Examples
///
/// ```
/// use densekv_cpu::engine::{PhaseEngine, PhaseSpec};
/// use densekv_cpu::CoreConfig;
/// use densekv_mem::dram::{DramConfig, DramStack};
///
/// let mut engine = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
/// let mut dram = DramStack::new(DramConfig::default());
/// let result = engine.run(&PhaseSpec::compute("hash", 1_400), &mut dram);
/// // 1,400 instructions at IPC 0.7 and 1 GHz = 2 us of compute.
/// assert_eq!(result.busy, densekv_sim::Duration::from_micros(2));
/// ```
#[derive(Debug, Clone)]
pub struct PhaseEngine {
    core: CoreConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Option<Cache>,
    uncached_latency: Duration,
    /// Per-phase-name instruction region
    /// `(base, cursor, footprint it first ran with, wraps)`.
    instr_regions: HashMap<&'static str, (u64, u64, u64, u64)>,
    next_instr_base: u64,
    /// Cursor cycling the kernel hot region (shared by all phases).
    kernel_cursor: u64,
    /// Completed passes over the kernel hot region.
    kernel_wraps: u64,
    /// Per-L2-set upper bound on lines ever inserted: the kernel region
    /// plus every registered instruction footprint. While every set's
    /// bound stays ≤ the L2's associativity, the L2 can never evict —
    /// which makes its LRU *order* unobservable and licenses the
    /// residency shortcut below.
    l2_occupancy: Vec<u32>,
    /// Whether the residency shortcut is sound: `max(l2_occupancy) ≤
    /// l2.ways`, and every phase name has kept the footprint it first ran
    /// with.
    l2_resident_ok: bool,
    /// Registered footprint per phase name (grows if a later spec names
    /// a larger footprint, which widens the occupancy bound).
    l2_registered: HashMap<&'static str, u64>,
    /// Whether any phase has skipped an L2 LRU update. Once true, the
    /// occupancy bound must keep holding: exceeding it afterwards would
    /// make eviction order observable *and* already stale, so the engine
    /// panics rather than silently diverge.
    l2_shortcut_used: bool,
}

impl PhaseEngine {
    /// Creates an engine with 32 KB L1s and a 2 MB L2.
    pub fn with_l2(core: CoreConfig) -> Self {
        Self::new(core, Some(CacheConfig::l2_2m()))
    }

    /// Creates an engine with 32 KB L1s and no L2 (the paper's "no L2"
    /// configurations issue requests directly to memory, §4.1.3).
    pub fn without_l2(core: CoreConfig) -> Self {
        Self::new(core, None)
    }

    /// Creates an engine with an explicit L2 choice.
    pub fn new(core: CoreConfig, l2: Option<CacheConfig>) -> Self {
        let l2_occupancy = l2
            .as_ref()
            .map(|c| vec![0u32; c.sets() as usize])
            .unwrap_or_default();
        let mut engine = PhaseEngine {
            core,
            l1i: Cache::new(CacheConfig::l1_32k()),
            l1d: Cache::new(CacheConfig::l1_32k()),
            l2: l2.map(Cache::new),
            uncached_latency: Duration::from_nanos(300),
            instr_regions: HashMap::new(),
            next_instr_base: INSTR_BASE_LINE,
            kernel_cursor: 0,
            kernel_wraps: 0,
            l2_occupancy,
            l2_resident_ok: false,
            l2_registered: HashMap::new(),
            l2_shortcut_used: false,
        };
        if engine.l2.is_some() {
            engine.l2_resident_ok = true;
            engine.register_l2_block(KERNEL_BASE_LINE, KERNEL_REGION_LINES);
        }
        engine
    }

    /// Widens the L2 insert-occupancy bound by a contiguous `lines`-long
    /// block at `base` and re-evaluates the residency shortcut.
    ///
    /// # Panics
    ///
    /// Panics if the bound exceeds the L2's associativity *after* the
    /// shortcut has already skipped LRU updates: from that point the
    /// eviction order a real walk would need is unrecoverable, so the
    /// engine fails loudly instead of silently changing results. Keep
    /// the combined instruction + kernel footprint per set within the
    /// L2's ways (the workspace's phase set uses 11 of 16).
    fn register_l2_block(&mut self, base: u64, lines: u64) {
        let Some(l2) = self.l2.as_ref() else { return };
        let ways = l2.config().ways;
        let sets = self.l2_occupancy.len() as u64;
        let whole = (lines / sets) as u32;
        if whole > 0 {
            for c in &mut self.l2_occupancy {
                *c += whole;
            }
        }
        let start = (base % sets) as usize;
        for i in 0..(lines % sets) as usize {
            let s = (start + i) % sets as usize;
            self.l2_occupancy[s] += 1;
        }
        let max = self.l2_occupancy.iter().copied().max().unwrap_or(0);
        if max > ways {
            assert!(
                !self.l2_shortcut_used,
                "instruction footprints exceed the L2 residency bound \
                 ({max} > {ways} lines in one set) after the resident-L2 \
                 shortcut already skipped LRU updates"
            );
            self.l2_resident_ok = false;
        }
    }

    /// Disables the resident-L2 shortcut — and with it the thrash-region
    /// skip, which only runs inside it — forcing every reference through
    /// the full LRU walk. Exists for differential tests; results are
    /// bit-identical either way.
    #[doc(hidden)]
    pub fn disable_l2_residency_shortcut(&mut self) {
        self.l2_resident_ok = false;
    }

    /// The core configuration.
    pub fn core(&self) -> &CoreConfig {
        &self.core
    }

    /// Whether an L2 is present.
    pub fn has_l2(&self) -> bool {
        self.l2.is_some()
    }

    /// Overrides the uncached-operation latency.
    pub fn set_uncached_latency(&mut self, latency: Duration) {
        self.uncached_latency = latency;
    }

    /// Snapshot of every cache level's lifetime hit/miss counters.
    pub fn cache_stats(&self) -> CacheHierarchyStats {
        let level = |c: &Cache| CacheLevelStats {
            hits: c.hits(),
            misses: c.misses(),
        };
        CacheHierarchyStats {
            l1i: level(&self.l1i),
            l1d: level(&self.l1d),
            l2: self.l2.as_ref().map(level),
        }
    }

    /// Walks one reference through the hierarchy (for instruction or
    /// kernel classes); returns where it hit.
    fn lookup(l1: &mut Cache, l2: &mut Option<Cache>, line: u64) -> Level {
        if l1.access(line) {
            return Level::L1;
        }
        match l2 {
            Some(l2) => {
                if l2.access(line) {
                    Level::L2
                } else {
                    Level::Memory
                }
            }
            None => Level::Memory,
        }
    }

    /// Runs `refs` sequential references of a cyclic region through its
    /// L1 on the resident-L2 branch (an L1 miss is an L2 hit that changes
    /// no L2 state) and returns how many missed the L1.
    ///
    /// **Thrash-region skip.** On this branch every region is disjoint
    /// from the others and cycled with a fixed footprint. One of at
    /// least `(ways + 2) · sets` lines — the *window* — puts more than
    /// `ways` of its lines in every L1 set, so between two references to
    /// one of them at least `ways` other lines hit the same set: under
    /// true LRU every reference to the region misses, whatever other
    /// regions interleave. A run longer than the window is therefore
    /// `refs` known misses, and only the L1's final contents remain to
    /// be produced: the last `window` references hold no repeated line
    /// and at most one wrap, hence at least `ways` distinct lines per
    /// set, which fixes every set's contents and order regardless of
    /// what it held before. So the run credits `refs` misses, moves the
    /// cursor arithmetically, and installs only that tail. DESIGN.md,
    /// "Bulk pricing", has the full argument.
    fn walk_resident(
        l1: &mut Cache,
        region: Region,
        cursor: &mut u64,
        wraps: &mut u64,
        refs: u64,
    ) -> u64 {
        let window = (u64::from(l1.config().ways) + 2) * l1.config().sets();
        if region.footprint >= window && refs > window {
            let landed = *cursor + (refs - window);
            *wraps += landed / region.footprint;
            *cursor = landed % region.footprint;
            l1.credit(0, refs);
            for _ in 0..window {
                l1.install(region.next_line(cursor, wraps));
            }
            return refs;
        }
        let mut misses = 0;
        for _ in 0..refs {
            if !l1.access(region.next_line(cursor, wraps)) {
                misses += 1;
            }
        }
        misses
    }

    /// Executes a phase against `mem`, returning its timing. The phase's
    /// stream (if any) also targets `mem`.
    pub fn run(&mut self, spec: &PhaseSpec, mem: &mut dyn MemoryTiming) -> PhaseResult {
        self.run_split(spec, mem, None)
    }

    /// Executes a phase with distinct devices: instruction fetches,
    /// kernel references, and store references hit `backing` (the memory
    /// behind the caches), while the bulk stream — when `stream_dev` is
    /// provided — targets a different device (e.g. Iridium's on-die
    /// packet-buffer SRAM).
    pub fn run_split(
        &mut self,
        spec: &PhaseSpec,
        mem: &mut dyn MemoryTiming,
        mut stream_dev: Option<&mut dyn MemoryTiming>,
    ) -> PhaseResult {
        let mut result = PhaseResult::default();
        let bytes_before = mem.bytes_moved() + stream_dev.as_deref().map_or(0, |d| d.bytes_moved());

        // Compute: instruction commit plus MMIO (never overlapped).
        result.busy = self.core.instruction_time(spec.instructions)
            + self.uncached_latency * spec.uncached_ops;

        let l2_latency = self
            .l2
            .as_ref()
            .map(|c| c.config().latency)
            .unwrap_or(Duration::ZERO);

        // Demand-miss overlap is a pure function of core and device, so
        // compute it (and its reciprocal) once instead of per miss.
        let miss_overlap = self
            .core
            .mlp
            .min(mem.max_overlap(AccessKind::Read))
            .max(1.0);
        let miss_scale = 1.0 / miss_overlap;

        // Instruction fetches: cycle the phase's cursor through its
        // footprint. L2-hit stalls are a fixed integer latency, so they
        // accumulate as a count and multiply out once (bit-identical to
        // per-hit addition because `Duration` is integer picoseconds).
        let fetches = spec.instructions * spec.ifetch_per_kinstr / 1000;
        if fetches > 0 {
            let footprint = spec.ifetch_footprint_lines.max(1);
            let (base, cursor, first_footprint, mut wraps) = {
                let entry = self.instr_regions.entry(spec.name).or_insert((
                    self.next_instr_base,
                    0,
                    footprint,
                    0,
                ));
                *entry
            };
            if base == self.next_instr_base {
                self.next_instr_base += footprint;
            }
            if footprint != first_footprint {
                // Regions are laid out back to back from the footprint
                // each name first ran with. A name that changes it may
                // reach lines it never inserted (`wraps` was earned on
                // the old cycle) or run into its neighbour, so nothing
                // below may assume residency or a fixed cycle any more.
                // Walking every reference from here on is always sound.
                self.l2_resident_ok = false;
            }
            // Keep the L2 occupancy bound covering this region (widening
            // it if a later spec names a larger footprint).
            let registered = self.l2_registered.get(spec.name).copied().unwrap_or(0);
            if footprint > registered {
                self.register_l2_block(base + registered, footprint - registered);
                self.l2_registered.insert(spec.name, footprint);
            }
            let region = Region { base, footprint };
            let mut cur = cursor % footprint;
            let mut l2_hits = 0u64;
            // Resident-L2 shortcut: once the region has completed a full
            // pass, every line of it was inserted into an L2 that — per
            // the occupancy bound — can never evict. An L1 miss is then
            // an L2 hit by construction, and the skipped LRU reorder is
            // unobservable (order only matters to evictions). Counters
            // and timing are bit-identical to the full walk.
            if self.l2_resident_ok && wraps > 0 {
                self.l2_shortcut_used = true;
                l2_hits = Self::walk_resident(&mut self.l1i, region, &mut cur, &mut wraps, fetches);
                self.l2
                    .as_mut()
                    .expect("residency shortcut requires an L2")
                    .credit(l2_hits, 0);
            } else {
                for _ in 0..fetches {
                    let line = region.next_line(&mut cur, &mut wraps);
                    match Self::lookup(&mut self.l1i, &mut self.l2, line) {
                        Level::L1 => {}
                        Level::L2 => l2_hits += 1,
                        Level::Memory => {
                            result.mem_refs += 1;
                            let lat = mem.line_access(line, AccessKind::Read);
                            result.stall += lat * miss_scale;
                        }
                    }
                }
            }
            result.l2_hits += l2_hits;
            result.stall += l2_latency * l2_hits;
            self.instr_regions
                .insert(spec.name, (base, cur, first_footprint, wraps));
        }

        // Kernel-structure references: cycle the hot region. A cyclic
        // pattern has the same steady-state behaviour as the real mix —
        // it thrashes a 32 KB L1D but fits (and stays warm in) a 2 MB L2
        // — while warming deterministically within one region pass.
        let kernel = Region {
            base: KERNEL_BASE_LINE,
            footprint: KERNEL_REGION_LINES,
        };
        let mut kernel_l2_hits = 0u64;
        if self.l2_resident_ok && self.kernel_wraps > 0 && spec.kernel_refs > 0 {
            // Same residency argument as the fetch loop: after one full
            // pass the kernel region is pinned in the never-evicting L2.
            self.l2_shortcut_used = true;
            kernel_l2_hits = Self::walk_resident(
                &mut self.l1d,
                kernel,
                &mut self.kernel_cursor,
                &mut self.kernel_wraps,
                spec.kernel_refs,
            );
            self.l2
                .as_mut()
                .expect("residency shortcut requires an L2")
                .credit(kernel_l2_hits, 0);
        } else {
            for _ in 0..spec.kernel_refs {
                let line = kernel.next_line(&mut self.kernel_cursor, &mut self.kernel_wraps);
                match Self::lookup(&mut self.l1d, &mut self.l2, line) {
                    Level::L1 => {}
                    Level::L2 => kernel_l2_hits += 1,
                    Level::Memory => {
                        result.mem_refs += 1;
                        let lat = mem.line_access(line, AccessKind::Read);
                        result.stall += lat * miss_scale;
                    }
                }
            }
        }
        result.l2_hits += kernel_l2_hits;
        result.stall += l2_latency * kernel_l2_hits;

        // Store references: gigabyte-scale working set, modeled as always
        // missing (see module docs); demand misses overlap by `mlp`,
        // capped by what the device sustains.
        for &line in &spec.store_refs {
            result.mem_refs += 1;
            let lat = mem.line_access(line, AccessKind::Read);
            result.stall += lat * miss_scale;
        }

        // Bulk value transfer: sequential lines overlap by `stream_mlp`,
        // capped by the device.
        if let Some(stream) = spec.stream {
            let dev: &mut dyn MemoryTiming = match stream_dev.as_deref_mut() {
                Some(d) => d,
                None => mem,
            };
            let stream_scale = 1.0
                / self
                    .core
                    .stream_mlp
                    .min(dev.max_overlap(stream.kind))
                    .max(1.0);
            result.mem_refs += stream.lines;
            result.stall +=
                dev.stream_access(stream.start_line, stream.lines, stream.kind, stream_scale);
        }

        result.mem_bytes =
            mem.bytes_moved() + stream_dev.as_deref().map_or(0, |d| d.bytes_moved()) - bytes_before;
        result.time = result.busy + result.stall;
        result
    }

    /// Runs a phase repeatedly until caches warm up, then returns a fresh
    /// measurement — used by experiments that want steady-state numbers.
    pub fn run_steady(
        &mut self,
        spec: &PhaseSpec,
        mem: &mut dyn MemoryTiming,
        warmup: u32,
    ) -> PhaseResult {
        for _ in 0..warmup {
            self.run(spec, mem);
        }
        self.run(spec, mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_mem::dram::{DramConfig, DramStack};
    use densekv_mem::flash::{FlashArray, FlashConfig};
    use proptest::prelude::*;

    fn dram(ns: u64) -> DramStack {
        DramStack::new(DramConfig::mercury(Duration::from_nanos(ns)))
    }

    fn net_phase() -> PhaseSpec {
        PhaseSpec {
            name: "net-rx",
            instructions: 12_000,
            ifetch_footprint_lines: 3_000,
            ifetch_per_kinstr: 12,
            kernel_refs: 60,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: 4,
        }
    }

    #[test]
    fn cache_stats_snapshot_per_level() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut mem = dram(10);
        assert_eq!(e.cache_stats().l1i, CacheLevelStats::default());
        assert_eq!(e.cache_stats().l2, Some(CacheLevelStats::default()));
        e.run_steady(&net_phase(), &mut mem, 5);
        let stats = e.cache_stats();
        assert!(stats.l1i.hits + stats.l1i.misses > 0);
        assert!(stats.l1d.hits + stats.l1d.misses > 0);
        let l2 = stats.l2.expect("engine built with an L2");
        assert!(l2.hits + l2.misses > 0);
        assert!((0.0..=1.0).contains(&stats.l1i.hit_rate()));

        let no_l2 = PhaseEngine::without_l2(CoreConfig::a7_1ghz());
        assert_eq!(no_l2.cache_stats().l2, None);
        // An untouched level reports the documented sentinel, not NaN.
        assert_eq!(no_l2.cache_stats().l1d.hit_rate(), 0.0);
    }

    #[test]
    fn compute_phase_time_is_instruction_bound() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a15_1ghz());
        let mut mem = dram(10);
        let r = e.run(&PhaseSpec::compute("x", 2_000), &mut mem);
        assert_eq!(r.busy, Duration::from_micros(1));
        assert!(r.stall < r.busy);
    }

    #[test]
    fn a15_faster_than_a7_on_same_phase() {
        let mut a7 = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut a15 = PhaseEngine::with_l2(CoreConfig::a15_1ghz());
        let mut m1 = dram(10);
        let mut m2 = dram(10);
        let spec = net_phase();
        let r7 = a7.run_steady(&spec, &mut m1, 5);
        let r15 = a15.run_steady(&spec, &mut m2, 5);
        assert!(r15.time < r7.time);
        let ratio = r7.time.as_nanos_f64() / r15.time.as_nanos_f64();
        assert!(ratio > 2.0 && ratio < 4.0, "A15/A7 ratio {ratio}");
    }

    #[test]
    fn l2_absorbs_kernel_refs_after_warmup() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut mem = dram(100);
        let spec = net_phase();
        // Warm the L2 with the kernel region and the fetch footprint.
        for _ in 0..600 {
            e.run(&spec, &mut mem);
        }
        let r = e.run(&spec, &mut mem);
        assert!(
            r.mem_refs < 6,
            "warm L2 should satisfy nearly all refs, saw {} memory refs",
            r.mem_refs
        );
        assert!(r.l2_hits > 50);
    }

    #[test]
    fn no_l2_sends_misses_to_memory() {
        let mut e = PhaseEngine::without_l2(CoreConfig::a7_1ghz());
        let mut mem = dram(100);
        let spec = net_phase();
        let r = e.run_steady(&spec, &mut mem, 10);
        assert_eq!(r.l2_hits, 0);
        assert!(r.mem_refs > 50, "misses must reach memory: {}", r.mem_refs);
    }

    #[test]
    fn no_l2_hurts_more_at_high_latency() {
        let time_at = |ns: u64, l2: bool| {
            let core = CoreConfig::a7_1ghz();
            let mut e = if l2 {
                PhaseEngine::with_l2(core)
            } else {
                PhaseEngine::without_l2(core)
            };
            let mut mem = dram(ns);
            e.run_steady(&net_phase(), &mut mem, 600).time
        };
        // Paper §6.2: at 10 ns the L2 provides no benefit (may even
        // hinder); at 100 ns it significantly helps.
        let slowdown_no_l2_100 =
            time_at(100, false).as_nanos_f64() / time_at(100, true).as_nanos_f64();
        let slowdown_no_l2_10 =
            time_at(10, false).as_nanos_f64() / time_at(10, true).as_nanos_f64();
        assert!(slowdown_no_l2_100 > 1.3, "at 100 ns: {slowdown_no_l2_100}");
        assert!(slowdown_no_l2_10 < 1.1, "at 10 ns: {slowdown_no_l2_10}");
    }

    #[test]
    fn stream_overlaps_by_stream_mlp() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut mem = dram(10);
        let mut spec = PhaseSpec::compute("copy", 0);
        spec.stream = Some(StreamRef {
            start_line: 0,
            lines: 1000,
            kind: AccessKind::Read,
        });
        let r = e.run(&spec, &mut mem);
        // 1000 lines x 20.24 ns / stream_mlp 2 = 10.12 us.
        let expect = Duration::from_nanos_f64(1000.0 * 20.24 / 2.0);
        assert_eq!(r.stall, expect);
        assert_eq!(r.mem_bytes, 64_000);
    }

    #[test]
    fn store_refs_always_reach_memory() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a15_1ghz());
        let mut mem = dram(10);
        let mut spec = PhaseSpec::compute("get", 0);
        spec.store_refs = vec![1, 1, 1]; // even repeats bypass the caches
        let r = e.run(&spec, &mut mem);
        assert_eq!(r.mem_refs, 3);
        // A15 overlaps demand misses 3-wide.
        let expect = 3.0 * 20.24 / 3.0;
        assert!((r.stall.as_nanos_f64() - expect).abs() < 0.01);
    }

    #[test]
    fn flash_latency_dominates_store_refs() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut flash = FlashArray::new(FlashConfig::default());
        let mut spec = PhaseSpec::compute("get", 1_000);
        spec.store_refs = vec![0, 100, 200];
        let r = e.run(&spec, &mut flash);
        // 3 flash line reads at 10 us each, no overlap on the A7.
        assert!(r.stall >= Duration::from_micros(30));
    }

    #[test]
    fn uncached_ops_are_fixed_cost() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a15_1p5ghz());
        e.set_uncached_latency(Duration::from_nanos(250));
        let mut mem = dram(10);
        let mut spec = PhaseSpec::compute("mmio", 0);
        spec.uncached_ops = 8;
        let r = e.run(&spec, &mut mem);
        assert_eq!(r.busy, Duration::from_nanos(2000));
    }

    #[test]
    fn l2_residency_shortcut_is_bit_exact() {
        // The shortcut engine and a full-walk engine must agree on every
        // phase result and every cache counter, from cold start through
        // deep steady state, across interleaved phases of very different
        // footprints (including a store phase with refs and a stream).
        let mut fast = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut slow = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        slow.disable_l2_residency_shortcut();
        let mut m1 = dram(10);
        let mut m2 = dram(10);
        let mut store_phase = PhaseSpec::compute("store", 5_000);
        store_phase.ifetch_footprint_lines = 1_500;
        store_phase.ifetch_per_kinstr = 10;
        store_phase.kernel_refs = 6;
        store_phase.store_refs = vec![17, 99_000, 4_242];
        store_phase.stream = Some(StreamRef {
            start_line: 200_000,
            lines: 4,
            kind: AccessKind::Read,
        });
        let tiny = PhaseSpec::compute("tiny", 1_400);
        let specs = [net_phase(), tiny, store_phase];
        for i in 0..900 {
            let spec = &specs[i % specs.len()];
            let a = fast.run(spec, &mut m1);
            let b = slow.run(spec, &mut m2);
            assert_eq!(a, b, "phase result diverged at iteration {i}");
            assert_eq!(
                fast.cache_stats(),
                slow.cache_stats(),
                "cache counters diverged at iteration {i}"
            );
        }
        assert!(fast.l2_shortcut_used, "steady state must hit the shortcut");
    }

    #[test]
    fn oversized_footprints_disable_the_shortcut_cold() {
        // Registering more per-set lines than the L2 has ways before the
        // shortcut ever fires must quietly fall back to the full walk.
        let mut e = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut mem = dram(10);
        // 2048-set L2 with 16 ways holds 6 kernel lines per set; eleven
        // 2048-line regions push the bound past 16.
        let names = [
            "r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9", "r10",
        ];
        for name in names {
            let mut spec = PhaseSpec::compute(name, 10_000);
            spec.ifetch_footprint_lines = 2_048;
            spec.ifetch_per_kinstr = 10;
            e.run(&spec, &mut mem);
        }
        // Steady-state reruns still work (slow path), bit-identically to
        // an engine that never had the shortcut.
        let mut plain = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        plain.disable_l2_residency_shortcut();
        let mut mem2 = dram(10);
        for name in names {
            let mut spec = PhaseSpec::compute(name, 10_000);
            spec.ifetch_footprint_lines = 2_048;
            spec.ifetch_per_kinstr = 10;
            plain.run(&spec, &mut mem2);
        }
        for round in 0..3 {
            for name in names {
                let mut spec = PhaseSpec::compute(name, 10_000);
                spec.ifetch_footprint_lines = 2_048;
                spec.ifetch_per_kinstr = 10;
                let a = e.run(&spec, &mut mem);
                let b = plain.run(&spec, &mut mem2);
                assert_eq!(a, b, "round {round} phase {name}");
            }
        }
        assert!(!e.l2_shortcut_used);
    }

    #[test]
    #[should_panic(expected = "L2 residency bound")]
    fn oversized_footprint_after_shortcut_use_panics() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut mem = dram(10);
        // Warm a normal phase until the shortcut engages...
        for _ in 0..40 {
            e.run(&net_phase(), &mut mem);
        }
        assert!(e.l2_shortcut_used);
        // ...then blow the occupancy bound: the engine must fail loudly
        // rather than let stale LRU order pick eviction victims.
        for i in 0..11 {
            let name: &'static str = [
                "q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10",
            ][i];
            let mut spec = PhaseSpec::compute(name, 10_000);
            spec.ifetch_footprint_lines = 2_048;
            spec.ifetch_per_kinstr = 10;
            e.run(&spec, &mut mem);
        }
    }

    /// L1 window of the thrash-region skip: `(ways + 2) · sets` of the
    /// 32 KB, 4-way L1s.
    const WINDOW: u64 = 768;

    /// Run lengths on both sides of the skip's window, and far past it.
    fn run_length() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..400,
            (WINDOW - 3)..(WINDOW + 4),
            WINDOW..4_000,
            4_000u64..40_000
        ]
    }

    proptest! {
        /// The thrash-region skip against the full walk: random phase
        /// sequences over regions smaller than, equal to and larger than
        /// the window, with fetch and kernel runs on both sides of it.
        /// Results, cache counters, cursors and wrap counts must agree
        /// after every phase — and so must a closing pair of runs over a
        /// region that fits the L1, whose hits depend on exactly which of
        /// its lines every earlier run left resident, and in what order.
        /// Some cases change a region's footprint mid-sequence, which
        /// must retire the skip rather than let it mis-credit hits.
        #[test]
        fn thrash_region_skip_matches_full_walk(
            footprints in proptest::collection::vec(
                prop_oneof![40u64..700, (WINDOW - 2)..(WINDOW + 3), WINDOW..3_000],
                4,
            ),
            phases in proptest::collection::vec(
                (0usize..4, run_length(), run_length(), 0u64..5),
                8..40,
            ),
            // One case in four brings a region back with another footprint.
            refootprint in (0u8..4, 300u64..3_000),
        ) {
            const NAMES: [&str; 4] = ["p0", "p1", "p2", "p3"];
            let mut fast = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
            let mut full = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
            full.disable_l2_residency_shortcut();
            let (mut m1, mut m2) = (dram(10), dram(10));
            let mut check = |spec: &PhaseSpec, at: usize| {
                prop_assert_eq!(fast.run(spec, &mut m1), full.run(spec, &mut m2), "phase {}", at);
                prop_assert_eq!(fast.cache_stats(), full.cache_stats(), "phase {}", at);
                prop_assert_eq!(&fast.instr_regions, &full.instr_regions, "phase {}", at);
                prop_assert_eq!(
                    (fast.kernel_cursor, fast.kernel_wraps),
                    (full.kernel_cursor, full.kernel_wraps),
                    "phase {}", at
                );
            };
            for (i, &(region, fetches, kernel_refs, extras)) in phases.iter().enumerate() {
                let mut spec = PhaseSpec::compute(NAMES[region], fetches);
                spec.ifetch_per_kinstr = 1_000; // one fetch per instruction
                spec.ifetch_footprint_lines = footprints[region];
                if refootprint.0 == 0 && i == phases.len() / 2 {
                    spec.ifetch_footprint_lines = refootprint.1;
                }
                spec.kernel_refs = kernel_refs;
                spec.store_refs = (0..extras).map(|r| 1_000_000 + 977 * r).collect();
                spec.stream = (extras > 2).then_some(StreamRef {
                    start_line: 5_000_000 + fetches,
                    lines: extras * 40,
                    kind: AccessKind::Read,
                });
                check(&spec, i);
            }
            let mut resident = PhaseSpec::compute("fits-l1", 450);
            resident.ifetch_per_kinstr = 1_000;
            resident.ifetch_footprint_lines = 300;
            resident.kernel_refs = 64;
            for pass in 0..2 {
                check(&resident, phases.len() + pass);
            }
        }
    }

    #[test]
    fn distinct_phases_get_distinct_footprints() {
        let mut e = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        let mut mem = dram(10);
        let a = PhaseSpec {
            name: "alpha",
            ..net_phase()
        };
        let b = PhaseSpec {
            name: "beta",
            ..net_phase()
        };
        // Warm alpha fully, then run beta: beta must cold-miss.
        for _ in 0..30 {
            e.run(&a, &mut mem);
        }
        let warm_a = e.run(&a, &mut mem);
        let cold_b = e.run(&b, &mut mem);
        assert!(cold_b.mem_refs > warm_a.mem_refs);
    }
}
