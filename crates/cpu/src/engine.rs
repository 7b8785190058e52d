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
//!
//! Host cost. Three exact shortcuts keep a simulated request from paying
//! for every one of those references (DESIGN.md, "Resident-L2 shortcut"
//! and "Bulk pricing" §3 and §5, has the arguments), all under an L2
//! that provably never evicts: once a region is resident in it, its L1
//! misses are credited as L2 hits without touching the L2; on a region's
//! first pass every reference is a compulsory miss in both levels, so
//! the misses are credited, the lines priced as one memory stream and
//! the L2's fills owed (`lazy::LazyL2`); and on both branches the L1s
//! are *lazy* (`lazy::LazyL1`) — a run whose every reference has a
//! proven L1 outcome is counted and queued instead of filled, and the
//! queue is replayed only when a later reference's outcome depends on
//! the L1's contents. [`PhaseEngine::walk_counts`] says how many
//! references went which way.

use densekv_mem::{AccessKind, MemoryTiming};
use densekv_sim::Duration;

use crate::cache::{Cache, CacheConfig};
use crate::core::CoreConfig;
pub use lazy::RING_RUNS as L1_RING_RUNS;
use lazy::{LazyL1, LazyL2};

/// Latency of one uncached MMIO operation (a NIC doorbell, a DMA
/// descriptor).
const UNCACHED_LATENCY: Duration = Duration::from_nanos(300);

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
    #[cfg(test)]
    pub(crate) fn compute(name: &'static str, instructions: u64) -> Self {
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

/// A contiguous block of lines that a cursor cycles through — one phase
/// name's instruction footprint, or the kernel hot region — and how far
/// the cursor has got.
#[derive(Debug, Clone)]
struct Region {
    /// The phase name that owns it (`"kernel"` for the kernel region).
    name: &'static str,
    base: u64,
    /// Lines in the cycle: what its name last ran with.
    footprint: u64,
    /// Next line to reference, `< footprint`.
    cursor: u64,
    /// Completed passes.
    wraps: u64,
    /// Lines of it already counted in the L2 occupancy bound.
    l2_lines: u64,
    /// For a region shorter than its L1's window: that L1's coverage
    /// clock at each line's last reference ([`LazyL1`]). Empty otherwise.
    stamps: Vec<u64>,
}

impl Region {
    fn new(name: &'static str, base: u64, footprint: u64, l1_window: u64) -> Self {
        let stamped = if footprint < l1_window { footprint } else { 0 };
        Region {
            name,
            base,
            footprint,
            cursor: 0,
            wraps: 0,
            l2_lines: 0,
            stamps: vec![0; stamped as usize],
        }
    }

    /// The line under the cursor, which then steps on. The cursor moves
    /// by one, so a wrap-compare stands in for a per-reference `%`.
    #[inline]
    fn next_line(&mut self) -> u64 {
        let line = self.base + self.cursor;
        self.cursor += 1;
        if self.cursor == self.footprint {
            self.cursor = 0;
            self.wraps += 1;
        }
        line
    }

    /// Steps the cursor over `refs` references at once.
    fn advance(&mut self, refs: u64) {
        self.cursor += refs;
        if self.cursor >= self.footprint {
            self.wraps += self.cursor / self.footprint;
            self.cursor %= self.footprint;
        }
    }

    /// Lengths of the at most two contiguous address ranges the next
    /// `refs` references touch: up to the end of the region, then from
    /// its start. A whole pass or more touches every line once.
    fn spans(&self, refs: u64) -> (u64, u64) {
        let lines = refs.min(self.footprint);
        let first = lines.min(self.footprint - self.cursor);
        (first, lines - first)
    }

    /// A number of distinct lines that the next `refs` references are
    /// sure to put in every one of an L1's `sets` sets (the coverage
    /// lemma: a contiguous range of n lines puts ⌊n / sets⌋ or more in
    /// each; a run that wraps is two ranges, floored one by one).
    fn coverage(&self, refs: u64, sets: u64) -> u64 {
        let (first, second) = self.spans(refs);
        first / sets + second / sets
    }

    /// Records `clock` as the last-reference time of the lines the next
    /// `refs` references touch (a no-op for an unstamped region).
    fn stamp(&mut self, refs: u64, clock: u64) {
        if !self.stamps.is_empty() {
            let (first, second) = self.spans(refs);
            let at = self.cursor as usize;
            self.stamps[at..at + first as usize].fill(clock);
            self.stamps[..second as usize].fill(clock);
        }
    }
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
    pub(crate) mem_refs: u64,
    /// References satisfied by the L2.
    pub(crate) l2_hits: u64,
    /// Bytes moved at the memory device by this phase.
    pub(crate) mem_bytes: u64,
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
    fn of(cache: &Cache) -> Self {
        CacheLevelStats {
            hits: cache.hits(),
            misses: cache.misses(),
        }
    }

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

/// Lifetime counts of how the engine resolved its L1 references, both
/// L1s together — what tells a cheap simulated request from a dear one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCounts {
    /// References looked up one by one.
    pub walked: u64,
    /// References credited as proven misses, their fills postponed.
    pub deferred: u64,
    /// Times postponed fills had to be caught up on.
    pub settles: u64,
    /// Lines filled while catching up (never more than `deferred`).
    pub installed_at_settle: u64,
    /// Postponed runs queued right now (a gauge, at most
    /// [`L1_RING_RUNS`] per L1).
    pub pending_runs: u64,
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
/// let hash = PhaseSpec {
///     name: "hash",
///     instructions: 1_400,
///     ifetch_footprint_lines: 64,
///     ifetch_per_kinstr: 2,
///     kernel_refs: 0,
///     store_refs: Vec::new(),
///     stream: None,
///     uncached_ops: 0,
/// };
/// let result = engine.run(&hash, &mut dram);
/// // 1,400 instructions at IPC 0.7 and 1 GHz = 2 us of compute.
/// assert_eq!(result.busy, densekv_sim::Duration::from_micros(2));
/// ```
#[derive(Debug, Clone)]
pub struct PhaseEngine {
    core: CoreConfig,
    l1i: LazyL1,
    l1d: LazyL1,
    l2: Option<LazyL2>,
    /// Per-phase-name instruction regions, laid out back to back in
    /// first-run order. A request names half a dozen, so a scan by name
    /// beats hashing it.
    instr_regions: Vec<Region>,
    next_instr_base: u64,
    /// The kernel hot region (shared by all phases).
    kernel: Region,
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
    /// Whether any phase has skipped an L2 LRU update. Once true, the
    /// occupancy bound must keep holding: exceeding it afterwards would
    /// make eviction order observable *and* already stale, so the engine
    /// panics rather than silently diverge. (Owed first-pass fills skip
    /// nothing: they are made later, in order.)
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
        let l1 = LazyL1::new(CacheConfig::l1_32k());
        let l2 = l2.map(LazyL2::new);
        let mut engine = PhaseEngine {
            core,
            instr_regions: Vec::new(),
            next_instr_base: INSTR_BASE_LINE,
            kernel: Region::new("kernel", KERNEL_BASE_LINE, KERNEL_REGION_LINES, l1.window()),
            l2_occupancy: vec![0; l2.as_ref().map_or(0, |c| c.config().sets() as usize)],
            l2_resident_ok: l2.is_some(),
            l2_shortcut_used: false,
            l1i: l1.clone(),
            l1d: l1,
            l2,
        };
        engine.assert_modeled(&engine.kernel);
        engine.register_l2_block(KERNEL_BASE_LINE, KERNEL_REGION_LINES);
        engine.kernel.l2_lines = KERNEL_REGION_LINES;
        engine
    }

    /// Checks a region's address range where it is laid out, so that an
    /// unmodeled line fails its first phase whether or not the reference
    /// that reaches it is ever walked.
    fn assert_modeled(&self, region: &Region) {
        let l2_limit = self.l2.as_ref().map_or(u64::MAX, LazyL2::line_limit);
        assert!(
            region.base + region.footprint <= l2_limit.min(self.l1i.line_limit()),
            "line address out of modeled range"
        );
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

    /// Disables the resident-L2 shortcut — and with it the first-pass
    /// pricing and the lazy L1s, which only defer under its guard:
    /// whatever the L1s and the L2 had postponed is filled in first, and
    /// from then on every reference takes the full LRU walk. Exists for
    /// differential tests; results are bit-identical either way.
    #[doc(hidden)]
    pub fn disable_l2_residency_shortcut(&mut self) {
        self.l2_resident_ok = false;
    }

    /// Snapshot of every cache level's lifetime hit/miss counters.
    pub fn cache_stats(&self) -> CacheHierarchyStats {
        CacheHierarchyStats {
            l1i: self.l1i.stats(),
            l1d: self.l1d.stats(),
            l2: self.l2.as_ref().map(LazyL2::stats),
        }
    }

    /// How the L1 references so far were resolved.
    pub fn walk_counts(&self) -> WalkCounts {
        let (i, d) = (self.l1i.counts(), self.l1d.counts());
        WalkCounts {
            walked: i.walked + d.walked,
            deferred: i.deferred + d.deferred,
            settles: i.settles + d.settles,
            installed_at_settle: i.installed_at_settle + d.installed_at_settle,
            pending_runs: i.pending_runs + d.pending_runs,
        }
    }

    /// Index of `name`'s instruction region, laid out on first use and
    /// kept inside the L2 occupancy bound.
    fn instr_region(&mut self, name: &'static str, footprint: u64) -> usize {
        let found = self.instr_regions.iter().position(|r| r.name == name);
        let idx = found.unwrap_or_else(|| {
            let region = Region::new(name, self.next_instr_base, footprint, self.l1i.window());
            self.assert_modeled(&region);
            self.next_instr_base += footprint;
            self.instr_regions.push(region);
            self.instr_regions.len() - 1
        });
        let region = &mut self.instr_regions[idx];
        if footprint != region.footprint {
            // Regions are laid out back to back from the footprint each
            // name first ran with. A name that changes it may reach
            // lines it never inserted (`wraps` was earned on the old
            // cycle) or run into its neighbour, so nothing may assume
            // residency, a fixed cycle or a stamp any more. Walking every
            // reference from here on is always sound.
            self.l2_resident_ok = false;
            region.footprint = footprint;
            region.cursor %= footprint;
            region.stamps.clear();
            let region = &self.instr_regions[idx];
            self.assert_modeled(region);
        }
        // Keep the L2 occupancy bound covering this region (widening it
        // if a later spec names a larger footprint).
        let Region { base, l2_lines, .. } = self.instr_regions[idx];
        if footprint > l2_lines {
            self.register_l2_block(base + l2_lines, footprint - l2_lines);
            self.instr_regions[idx].l2_lines = footprint;
        }
        idx
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
        result.busy =
            self.core.instruction_time(spec.instructions) + UNCACHED_LATENCY * spec.uncached_ops;

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
        // `lat * miss_scale` is a pure function of `lat`, so a miss that
        // costs what the one before it cost reuses that product: a
        // closed-page device returns one latency for every line.
        let mut priced = (Duration::ZERO, Duration::ZERO);
        let mut price = |lat: Duration| {
            if lat != priced.0 {
                priced = (lat, lat * miss_scale);
            }
            priced.1
        };

        // Instruction fetches cycle the phase's cursor through its
        // footprint, kernel-structure references cycle the hot region.
        // (A cyclic pattern has the same steady-state behaviour as the
        // real mix — it thrashes a 32 KB L1D but fits, and stays warm in,
        // a 2 MB L2 — while warming deterministically within one region
        // pass.)
        let fetches = spec.instructions * spec.ifetch_per_kinstr / 1000;
        let fetch_region =
            (fetches > 0).then(|| self.instr_region(spec.name, spec.ifetch_footprint_lines.max(1)));
        let fetch = fetch_region.map(|idx| (&mut self.l1i, &mut self.instr_regions[idx], fetches));
        let kernel =
            (spec.kernel_refs > 0).then_some((&mut self.l1d, &mut self.kernel, spec.kernel_refs));
        for (l1, region, refs) in [fetch, kernel].into_iter().flatten() {
            if self.l2_resident_ok {
                let l2 = self.l2.as_mut().expect("residency shortcut requires an L2");
                let mut warm = refs;
                // First pass: the lines from the cursor to the region's
                // end were never referenced — regions are disjoint, the
                // cursor only moves forward and a footprint change
                // retires this branch — so each of them misses in both
                // levels and reaches memory, in order.
                if region.wraps == 0 {
                    let cold = refs.min(region.footprint - region.cursor);
                    let first = region.base + region.cursor;
                    l1.defer_first_pass(region, cold);
                    l2.owe_misses(first, cold);
                    result.mem_refs += cold;
                    result.stall += mem.stream_access(first, cold, AccessKind::Read, miss_scale);
                    warm -= cold;
                }
                // Resident-L2 shortcut: once the region has completed a
                // full pass, every line of it was inserted into an L2
                // that — per the occupancy bound — can never evict. An L1
                // miss is then an L2 hit by construction, and the skipped
                // LRU reorder is unobservable (order only matters to
                // evictions). Counters and timing are bit-identical to
                // the full walk.
                if warm > 0 {
                    self.l2_shortcut_used = true;
                    let l2_hits = l1.run_resident(region, warm);
                    l2.credit(l2_hits, 0);
                    result.l2_hits += l2_hits;
                }
                continue;
            }
            let l1 = l1.settled_for(region, refs);
            let mut l2 = self.l2.as_mut().map(LazyL2::settled);
            for _ in 0..refs {
                let line = region.next_line();
                if l1.access(line) {
                    continue;
                }
                if l2.as_mut().is_some_and(|l2| l2.access(line)) {
                    result.l2_hits += 1;
                } else {
                    result.mem_refs += 1;
                    result.stall += price(mem.line_access(line, AccessKind::Read));
                }
            }
        }
        // L2-hit stalls are a fixed integer latency, so they accumulate
        // as a count and multiply out once (bit-identical to per-hit
        // addition because `Duration` is integer picoseconds).
        result.stall += l2_latency * result.l2_hits;

        // Store references: gigabyte-scale working set, modeled as always
        // missing (see module docs); demand misses overlap by `mlp`,
        // capped by what the device sustains.
        for &line in &spec.store_refs {
            result.mem_refs += 1;
            result.stall += price(mem.line_access(line, AccessKind::Read));
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
}

/// The lazy L1 and L2, in a module of their own so that the engine
/// cannot reach the `Cache` inside either except through calls that
/// first bring it up to date.
mod lazy {
    use super::{CacheLevelStats, Region, WalkCounts};
    use crate::cache::{Cache, CacheConfig};
    use std::collections::VecDeque;

    /// Postponed runs one L1 queues at most; a full queue is caught up
    /// on instead of grown.
    pub const RING_RUNS: usize = 64;

    /// A run of `len` references of a region from cursor `start` whose
    /// fills are still owed; `clock` is the coverage clock before it.
    #[derive(Debug, Clone, Copy)]
    struct Run {
        base: u64,
        footprint: u64,
        start: u64,
        len: u64,
        clock: u64,
    }

    /// An L1 on the resident-L2 branch, where a miss changes nothing
    /// below it: a run is fully described by its L1 outcomes and the
    /// L1's contents afterwards. Runs whose every reference has a
    /// provable outcome are credited at once and queued; the queue is
    /// replayed through [`Cache::install`] (*settled*) before any
    /// reference is looked up. DESIGN.md, "Bulk pricing" §3, proves the
    /// four lemmas this rests on — coverage, miss, repeat and
    /// determinacy.
    #[derive(Debug, Clone)]
    pub(super) struct LazyL1 {
        cache: Cache,
        sets: u64,
        ways: u64,
        /// `(ways + 2) · sets`: a region at least this long misses on
        /// every reference, and the last `window` references of a run in
        /// one fix the L1's contents and order whatever came before.
        window: u64,
        /// Runs whose fills are owed, oldest first; never more than
        /// [`RING_RUNS`], which it is allocated for.
        queue: VecDeque<Run>,
        /// Coverage clock: over any interval, every set was referenced
        /// at `ways` distinct lines or more if the clock advanced by
        /// `ways` or more (it may well have been if it did not).
        clock: u64,
        counts: WalkCounts,
    }

    impl LazyL1 {
        pub(super) fn new(config: CacheConfig) -> Self {
            let (sets, ways) = (config.sets(), u64::from(config.ways));
            LazyL1 {
                cache: Cache::new(config),
                sets,
                ways,
                window: (ways + 2) * sets,
                queue: VecDeque::with_capacity(RING_RUNS),
                clock: 0,
                counts: WalkCounts::default(),
            }
        }

        pub(super) fn window(&self) -> u64 {
            self.window
        }

        pub(super) fn line_limit(&self) -> u64 {
            self.cache.line_limit()
        }

        /// Lifetime hit/miss counters; deferral credits them up front.
        pub(super) fn stats(&self) -> CacheLevelStats {
            CacheLevelStats::of(&self.cache)
        }

        pub(super) fn counts(&self) -> WalkCounts {
            WalkCounts {
                pending_runs: self.queue.len() as u64,
                ..self.counts
            }
        }

        /// The cache, brought up to date, for the caller to look up the
        /// next `refs` references of `region` in one by one — the only way
        /// to a lookup.
        pub(super) fn settled_for(&mut self, region: &mut Region, refs: u64) -> &mut Cache {
            self.settle();
            region.stamp(refs, self.clock);
            self.counts.walked += refs;
            &mut self.cache
        }

        /// Runs the next `refs` references of a warm region on the
        /// resident-L2 branch and returns how many missed: deferred when
        /// the outcome of each is known, walked otherwise.
        pub(super) fn run_resident(&mut self, region: &mut Region, refs: u64) -> u64 {
            if region.footprint >= self.window {
                self.defer(region, refs, 0);
                return refs;
            }
            if self.outcomes_proven(region, refs) {
                // Repeat lemma: past its first `footprint` references a
                // run comes back to lines it installed itself, each alone
                // in its set, so those hit.
                let misses = refs.min(region.footprint);
                self.defer(region, refs, refs - misses);
                return misses;
            }
            let cache = self.settled_for(region, refs);
            (0..refs)
                .map(|_| u64::from(!cache.access(region.next_line())))
                .sum()
        }

        /// Whether the next `refs` references of a stamped region have
        /// outcomes known without a lookup: every line they touch has had
        /// `ways` other lines through its set since (the miss lemma), and
        /// a run that comes round to a line twice is in a region of at
        /// most `sets` lines (the repeat lemma).
        fn outcomes_proven(&self, region: &Region, refs: u64) -> bool {
            let (first, second) = region.spans(refs);
            let at = region.cursor as usize;
            (refs <= region.footprint || region.footprint <= self.sets)
                && region.stamps[at..at + first as usize]
                    .iter()
                    .chain(&region.stamps[..second as usize])
                    .all(|&stamp| self.clock - stamp >= self.ways)
        }

        /// Defers the next `refs` references of a region on its first
        /// pass, which stop at its end: every one is to a line never
        /// referenced, so absent (the miss lemma).
        pub(super) fn defer_first_pass(&mut self, region: &mut Region, refs: u64) {
            debug_assert!(region.wraps == 0 && refs <= region.footprint - region.cursor);
            self.defer(region, refs, 0);
        }

        /// Credits `hits` hits and `refs − hits` misses and queues the
        /// run's fills.
        fn defer(&mut self, region: &mut Region, refs: u64, hits: u64) {
            region.stamp(refs, self.clock);
            match self.queue.back_mut() {
                // A run that continues the one before it extends it.
                Some(last)
                    if (last.base, last.footprint) == (region.base, region.footprint)
                        && (last.start + last.len) % last.footprint == region.cursor =>
                {
                    last.len += refs;
                }
                _ => {
                    if self.queue.len() == RING_RUNS {
                        self.settle();
                    }
                    self.queue.push_back(Run {
                        base: region.base,
                        footprint: region.footprint,
                        start: region.cursor,
                        len: refs,
                        clock: self.clock,
                    });
                }
            }
            if region.footprint >= self.window {
                self.clock += region.coverage(refs, self.sets);
                // Determinacy lemma: runs older than a suffix that covers
                // every set `ways` times cannot show in the L1 any more.
                while self
                    .queue
                    .get(1)
                    .is_some_and(|next| self.clock - next.clock >= self.ways)
                {
                    self.queue.pop_front();
                }
            }
            region.advance(refs);
            self.cache.credit(hits, refs - hits);
            self.counts.deferred += refs;
        }

        /// The tags the cache holds once nothing is owed, on a copy.
        #[cfg(test)]
        pub(super) fn settled_tags(&self) -> Vec<u32> {
            let mut settled = self.clone();
            settled.settle();
            settled.cache.tags().to_vec()
        }

        /// Replays the queue, oldest run first, so that the cache holds
        /// what walking every deferred reference would have left.
        fn settle(&mut self) {
            self.counts.settles += u64::from(!self.queue.is_empty());
            for run in self.queue.drain(..) {
                let (mut at, mut len) = (run.start, run.len);
                if run.footprint >= self.window && len > self.window {
                    at = (at + (len - self.window)) % run.footprint;
                    len = self.window;
                }
                self.counts.installed_at_settle += len;
                for _ in 0..len {
                    self.cache.install(run.base + at);
                    at += 1;
                    if at == run.footprint {
                        at = 0;
                    }
                }
            }
        }
    }

    /// An L2 whose first-pass fills are owed instead of made. Under the
    /// residency guard the engine never looks a line up in it — the
    /// first pass and the shortcut both only credit — so the owed fills
    /// are its only changes, and replaying them in order through
    /// [`Cache::install`] before the first lookup leaves exactly the
    /// tags, and the order, that making them at once would have.
    /// DESIGN.md, "Bulk pricing" §5.
    #[derive(Debug, Clone)]
    pub(super) struct LazyL2 {
        cache: Cache,
        /// `(first line, lines)` runs whose fills are owed, oldest first;
        /// a run that continues the last one extends it. Every owed line
        /// is new and the occupancy bound holds, so they number fewer
        /// than the cache has lines.
        owed: Vec<(u64, u64)>,
    }

    impl LazyL2 {
        pub(super) fn new(config: CacheConfig) -> Self {
            LazyL2 {
                cache: Cache::new(config),
                owed: Vec::new(),
            }
        }

        pub(super) fn config(&self) -> &CacheConfig {
            self.cache.config()
        }

        pub(super) fn line_limit(&self) -> u64 {
            self.cache.line_limit()
        }

        /// Lifetime hit/miss counters; owed fills were credited up front.
        pub(super) fn stats(&self) -> CacheLevelStats {
            CacheLevelStats::of(&self.cache)
        }

        pub(super) fn credit(&mut self, hits: u64, misses: u64) {
            self.cache.credit(hits, misses);
        }

        /// Credits `lines` misses, to the lines from `first` on, and owes
        /// their fills.
        pub(super) fn owe_misses(&mut self, first: u64, lines: u64) {
            self.cache.credit(0, lines);
            match self.owed.last_mut() {
                Some((start, len)) if *start + *len == first => *len += lines,
                _ => self.owed.push((first, lines)),
            }
        }

        /// The cache with every owed fill made — the only way to a lookup.
        pub(super) fn settled(&mut self) -> &mut Cache {
            for (first, lines) in self.owed.drain(..) {
                for line in first..first + lines {
                    self.cache.install(line);
                }
            }
            &mut self.cache
        }

        /// The tags the cache holds once nothing is owed, on a copy.
        #[cfg(test)]
        pub(super) fn settled_tags(&self) -> Vec<u32> {
            self.clone().settled().tags().to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use densekv_mem::dram::{DramConfig, DramStack};
    use densekv_mem::flash::{FlashArray, FlashConfig};
    use densekv_mem::PagePolicy;
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
        let mut mem = dram(10);
        let mut spec = PhaseSpec::compute("mmio", 0);
        spec.uncached_ops = 8;
        let r = e.run(&spec, &mut mem);
        assert_eq!(r.busy, Duration::from_nanos(2400));
    }

    #[test]
    fn l2_residency_shortcut_is_bit_exact() {
        // The shortcut engine and a full-walk engine must agree on every
        // phase result and every cache counter, from cold start through
        // deep steady state, across interleaved phases of very different
        // footprints (including a store phase with refs and a stream).
        for l2 in [Some(CacheConfig::l2_2m()), None] {
            shortcut_matches_full_walk(l2);
        }
    }

    /// One engine as built and one told to walk, in lockstep; without an
    /// L2 there is nothing to skip and both must say so.
    fn shortcut_matches_full_walk(l2: Option<CacheConfig>) {
        let mut fast = PhaseEngine::new(CoreConfig::a7_1ghz(), l2);
        let mut slow = fast.clone();
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
        assert_eq!(
            fast.l2_shortcut_used,
            fast.l2.is_some(),
            "steady state must hit the shortcut exactly when there is an L2"
        );
    }

    /// Forwards to open-page DRAM — whose lines cost a row hit or a row
    /// miss depending on the line before — and keeps what each cost.
    struct Recorded {
        dram: DramStack,
        latencies: Vec<Duration>,
    }

    impl MemoryTiming for Recorded {
        fn line_access(&mut self, line_addr: u64, kind: AccessKind) -> Duration {
            let latency = self.dram.line_access(line_addr, kind);
            self.latencies.push(latency);
            latency
        }

        fn bytes_moved(&self) -> u64 {
            self.dram.bytes_moved()
        }

        fn reset_counters(&mut self) {
            self.dram.reset_counters();
        }

        fn active_power_w(&self, gb_per_s: f64) -> f64 {
            self.dram.active_power_w(gb_per_s)
        }
    }

    #[test]
    fn a_miss_priced_like_the_one_before_it_costs_the_same_picoseconds() {
        // No L2 and an A15's three-wide overlap: every L1 miss and store
        // reference is priced at a third of its latency, rounded to a
        // picosecond, whether or not the product was reused.
        let core = CoreConfig::a15_1ghz();
        let scale = 1.0 / core.mlp;
        let mut engine = PhaseEngine::without_l2(core);
        let mut mem = Recorded {
            dram: DramStack::new(DramConfig {
                page_policy: PagePolicy::Open,
                ..DramConfig::mercury(Duration::from_nanos(10))
            }),
            latencies: Vec::new(),
        };
        let mut spec = net_phase();
        // Neighbouring lines share a row, far ones do not.
        spec.store_refs = vec![7, 8, 9, 5_000_000, 10, 11, 9_000_000, 9_000_001];
        for _ in 0..3 {
            mem.latencies.clear();
            let result = engine.run(&spec, &mut mem);
            let per_miss: Duration = mem.latencies.iter().map(|&lat| lat * scale).sum();
            assert_eq!(result.stall, per_miss);
            assert_eq!(result.mem_refs, mem.latencies.len() as u64);
        }
        let repeats = mem.latencies.windows(2).filter(|w| w[0] == w[1]).count();
        let changes = mem.latencies.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            repeats > 10 && changes > 3,
            "{repeats} repeats, {changes} changes"
        );
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
        // r0 to r9 passed first through an L2 that owed their fills; r10
        // retired the bound, and the fills were made, in order, before
        // its first lookup. What evicts from here on depends on that
        // order.
        assert_eq!(e.l2_tags(), plain.l2_tags());
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
        assert_eq!(e.l2_tags(), plain.l2_tags());
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

    /// A lazy engine and its walking reference, run in lockstep.
    struct Pair {
        fast: PhaseEngine,
        full: PhaseEngine,
        mems: [DramStack; 2],
        phases: usize,
        /// The L2's counters when its contents were last compared.
        l2_compared: CacheLevelStats,
    }

    impl Pair {
        /// Both engines with 32 KB L1s of `l1_ways` ways (4 is what
        /// `PhaseEngine::new` builds; the tests swap in the others).
        fn new(l1_ways: u32) -> Self {
            let build = || {
                let mut engine = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
                let l1 = LazyL1::new(CacheConfig {
                    ways: l1_ways,
                    ..CacheConfig::l1_32k()
                });
                engine.l1i = l1.clone();
                engine.l1d = l1;
                engine
            };
            let mut full = build();
            full.disable_l2_residency_shortcut();
            Pair {
                fast: build(),
                full,
                mems: [dram(10), dram(10)],
                phases: 0,
                l2_compared: CacheLevelStats::default(),
            }
        }

        /// Runs `spec` on both and compares everything a caller can see —
        /// the result, the cache counters, every region's cursor and wrap
        /// count — and what no caller can: the tags each cache holds once
        /// the lazy ones have caught up (on a copy, so that checking never
        /// settles the engine under test). The L2's are compared exactly
        /// until the residency shortcut has skipped an LRU update, and
        /// set by set as sets of lines after.
        fn check(&mut self, spec: &PhaseSpec) {
            let at = self.phases;
            self.phases += 1;
            let [m1, m2] = &mut self.mems;
            assert_eq!(
                self.fast.run(spec, m1),
                self.full.run(spec, m2),
                "phase {at}"
            );
            assert_eq!(
                self.fast.cache_stats(),
                self.full.cache_stats(),
                "phase {at}"
            );
            assert_eq!(self.fast.cursors(), self.full.cursors(), "phase {at}");
            assert_eq!(
                self.fast.l1i.settled_tags(),
                self.full.l1i.settled_tags(),
                "L1I after phase {at}"
            );
            assert_eq!(
                self.fast.l1d.settled_tags(),
                self.full.l1d.settled_tags(),
                "L1D after phase {at}"
            );
            self.check_l2(at);
        }

        /// Compares the L2s' tags, skipping the comparison when it cannot
        /// have changed: an L2's contents change only on an access, and
        /// which lines it holds only on a miss — and the counters say
        /// when there was one.
        fn check_l2(&mut self, at: usize) {
            let l2 = self.fast.cache_stats().l2.expect("built with an L2");
            let reordered = self.fast.l2_shortcut_used || self.full.l2_shortcut_used;
            if l2.misses == self.l2_compared.misses && (reordered || l2 == self.l2_compared) {
                return;
            }
            self.l2_compared = l2;
            let (mut fast, mut full) = (self.fast.l2_tags(), self.full.l2_tags());
            if reordered {
                let ways = CacheConfig::l2_2m().ways as usize;
                for tags in [&mut fast, &mut full] {
                    tags.chunks_mut(ways).for_each(<[u32]>::sort_unstable);
                }
            }
            assert_eq!(fast, full, "L2 after phase {at}");
        }

        /// One phase of `fetches` fetches over `name`'s `footprint` lines
        /// and `kernel_refs` kernel references.
        fn phase(&mut self, name: &'static str, footprint: u64, fetches: u64, kernel_refs: u64) {
            self.check(&fetch_phase(name, footprint, fetches, kernel_refs));
        }
    }

    fn fetch_phase(
        name: &'static str,
        footprint: u64,
        fetches: u64,
        kernel_refs: u64,
    ) -> PhaseSpec {
        PhaseSpec {
            ifetch_per_kinstr: 1_000, // one fetch per instruction
            ifetch_footprint_lines: footprint,
            kernel_refs,
            ..PhaseSpec::compute(name, fetches)
        }
    }

    impl PhaseEngine {
        /// Runs a phase `warmup` times, then returns one more run of it.
        fn run_steady(
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

        /// The L2's tags once nothing is owed, on a copy.
        fn l2_tags(&self) -> Vec<u32> {
            self.l2
                .as_ref()
                .expect("engine built with an L2")
                .settled_tags()
        }

        /// `(name, base, footprint, cursor, wraps)` of every region.
        fn cursors(&self) -> Vec<(&'static str, u64, u64, u64, u64)> {
            self.instr_regions
                .iter()
                .chain([&self.kernel])
                .map(|r| (r.name, r.base, r.footprint, r.cursor, r.wraps))
                .collect()
        }
    }

    /// A length on one side of an L1's window or the other: well under
    /// it, within three of it, past it, far past it.
    fn around(window: u64, (arm, x): (u8, u64)) -> u64 {
        match arm {
            0 => 40 + x % (window - 140),
            1 => window - 3 + x % 7,
            2 => window + x % 2_300,
            _ => 4_000 + x % 36_000,
        }
    }

    /// A region length: at most `sets` lines (arm 3), or on either side
    /// of the window.
    fn footprint_of(sets: u64, window: u64, (arm, x): (u8, u64)) -> u64 {
        match arm {
            3 => 1 + x % sets,
            _ => around(window, (arm, x)),
        }
    }

    proptest! {
        /// The lazy L1s against the full walk: random phase sequences
        /// over regions of at most `sets` lines and regions smaller
        /// than, equal to and larger than the window, with fetch and
        /// kernel runs on both sides of it and fetch runs that come
        /// round their region once or twice, on 2-, 4- and 8-way L1s. [`Pair::check`] holds after every phase,
        /// through a region that fits the L1 coming back at random (its
        /// hits depend on exactly which of its lines every earlier run
        /// left resident, and in what order — and looking forces a
        /// settle), through bursts of short runs that fill the queue,
        /// and, in some cases, through the lazy engine being cloned or
        /// switched to walking mid-sequence, or a region changing its
        /// footprint — which must retire deferral rather than let it
        /// mis-credit hits.
        #[test]
        fn lazy_l1_matches_full_walk(
            footprints in proptest::collection::vec((0u8..4, any::<u64>()), 4),
            phases in proptest::collection::vec(
                (0usize..4, (0u8..5, any::<u64>()), (0u8..4, any::<u64>()), 0u64..5, 0u8..6),
                8..40,
            ),
            // One case in four brings a region back with another footprint.
            refootprint in (0u8..4, 300u64..3_000),
            // L1 ways; three cases in four start warm; the phases (if the
            // sequence is that long) at which the lazy engine stops
            // deferring and at which it is replaced by its clone.
            setup in (0usize..3, 0u8..4, 0usize..100, 0usize..60),
        ) {
            const NAMES: [&str; 4] = ["p0", "p1", "p2", "p3"];
            let ways = [4, 2, 8][setup.0];
            let mut pair = Pair::new(ways);
            let window = pair.fast.l1i.window();
            let sets = window / (u64::from(ways) + 2);
            let footprints: Vec<u64> =
                footprints.iter().map(|&f| footprint_of(sets, window, f)).collect();
            if setup.1 > 0 {
                for (name, &footprint) in NAMES.iter().zip(&footprints) {
                    pair.phase(name, footprint, footprint + 1, KERNEL_REGION_LINES / 4 + 1);
                }
            }
            for (i, &(region, fetches, kernel_refs, extras, then)) in phases.iter().enumerate() {
                if i == setup.2 {
                    pair.fast.disable_l2_residency_shortcut();
                }
                if i == setup.3 {
                    pair.fast = pair.fast.clone();
                }
                let mut footprint = footprints[region];
                if refootprint.0 == 0 && i == phases.len() / 2 {
                    footprint = refootprint.1;
                }
                let fetches = match fetches.0 {
                    0 => fetches.1 % 400,
                    // Past one pass, by up to two more (or two windows).
                    4 => footprint + 1 + fetches.1 % (2 * footprint.min(window)),
                    _ => around(window, fetches),
                };
                let kernel_refs =
                    if kernel_refs.0 == 0 { kernel_refs.1 % 400 } else { around(window, kernel_refs) };
                let mut spec = fetch_phase(NAMES[region], footprint, fetches, kernel_refs);
                spec.store_refs = (0..extras).map(|r| 1_000_000 + 977 * r).collect();
                spec.stream = (extras > 2).then_some(StreamRef {
                    start_line: 5_000_000 + fetches,
                    lines: extras * 40,
                    kind: AccessKind::Read,
                });
                pair.check(&spec);
                match then {
                    0 => pair.phase("fits-l1", 300, 40 + 90 * extras, 64),
                    1 => {
                        for burst in 0..L1_RING_RUNS as u64 + 9 {
                            let region = (region + burst as usize % 2) % 4;
                            pair.phase(NAMES[region], footprints[region], 1 + (fetches + burst) % 60, 0);
                        }
                    }
                    _ => {}
                }
            }
            for _ in 0..2 {
                pair.phase("fits-l1", 300, 450, 64);
            }
        }
    }

    /// Two regions past the 4-way L1's 768-line window, warm.
    fn warm_pair() -> Pair {
        let mut pair = Pair::new(4);
        pair.phase("a", 3_000, 3_001, KERNEL_REGION_LINES + 1);
        pair.phase("b", 2_500, 2_501, 0);
        pair.phase("fits-l1", 300, 301, 0);
        // First passes defer. The one look is at fits-l1's 301st fetch,
        // to a line its first fetch left in the L1.
        let counts = pair.fast.walk_counts();
        assert_eq!(counts.walked, 1);
        assert_eq!(
            counts.deferred,
            3_001 + KERNEL_REGION_LINES + 1 + 2_501 + 300
        );
        pair
    }

    #[test]
    fn settles_reproduce_every_queue_shape() {
        let mut pair = warm_pair();
        let cold_walked = pair.fast.walk_counts().walked;
        // More than a pass of the resident region is never deferred: it
        // is looked up, so whatever is queued must be settled first.
        let look = |pair: &mut Pair| {
            let before = pair.fast.l1i.counts();
            assert!(before.pending_runs > 0);
            pair.phase("fits-l1", 300, 320, 0);
            let after = pair.fast.l1i.counts();
            assert_eq!(after.settles, before.settles + 1);
            assert_eq!(after.pending_runs, 0);
            after.installed_at_settle - before.installed_at_settle
        };

        // A run that continues the one before it merges into it.
        pair.phase("a", 3_000, 100, 10);
        pair.phase("a", 3_000, 100, 10);
        assert_eq!(pair.fast.l1i.counts().pending_runs, 1);
        assert_eq!(pair.fast.l1d.counts().pending_runs, 1);
        assert_eq!(look(&mut pair), 200);

        // Of a run past the window only the last window is installed.
        pair.phase("a", 3_000, 5_000, 0);
        assert_eq!(look(&mut pair), 768);

        // Runs older than `ways` of coverage are dropped: each 300-fetch
        // run covers every set twice, so two of them hide what came
        // before — here the first two of four.
        for name in ["a", "b", "a", "b"] {
            pair.phase(name, if name == "a" { 3_000 } else { 2_500 }, 300, 0);
        }
        assert_eq!(pair.fast.l1i.counts().pending_runs, 2);
        assert_eq!(look(&mut pair), 600);

        // Runs shorter than `sets` never advance the clock, so nothing
        // is dropped: the queue fills and is settled rather than grown.
        let settles = pair.fast.l1i.counts().settles;
        for i in 0..L1_RING_RUNS as u64 + 10 {
            let (name, footprint) = [("a", 3_000), ("b", 2_500)][i as usize % 2];
            pair.phase(name, footprint, 50, 0);
            assert!(pair.fast.l1i.counts().pending_runs <= L1_RING_RUNS as u64);
        }
        assert_eq!(pair.fast.l1i.counts().settles, settles + 1);
        assert_eq!(pair.fast.l1i.counts().pending_runs, 10);
        assert_eq!(look(&mut pair), 500);

        // The kernel region, alone in the L1D, was never looked at.
        let l1d = pair.fast.l1d.counts();
        assert_eq!((l1d.settles, l1d.pending_runs), (0, 1));
        assert_eq!(pair.fast.walk_counts().walked, cold_walked + 4 * 320);
    }

    #[test]
    fn deferral_never_installs_more_than_the_walk_it_replaces() {
        // The shape deferral gains nothing on: a region that fits the L1
        // comes back between every two big runs, too often for the short
        // runs around it to have evicted it, so every one of its runs
        // settles what the big run before it queued.
        let mut pair = warm_pair();
        let before = (pair.fast.walk_counts(), pair.full.walk_counts());
        for i in 0..300 {
            let (name, footprint) = [("a", 3_000), ("b", 2_500)][i % 2];
            pair.phase(name, footprint, 40 + (i as u64 * 7) % 80, 0);
            pair.phase("fits-l1", 300, 40, 0);
        }
        let (fast, full) = (pair.fast.walk_counts(), pair.full.walk_counts());
        assert_eq!(fast.settles - before.0.settles, 300);
        assert!(fast.deferred > before.0.deferred);
        assert_eq!(full.deferred, 0);
        assert!(
            fast.installed_at_settle - before.0.installed_at_settle + fast.walked - before.0.walked
                <= full.walked - before.1.walked
        );
    }

    #[test]
    fn a_resident_region_is_deferred_once_it_is_provably_evicted() {
        let mut pair = warm_pair();
        // 300-fetch runs cover every set twice: after two of them the
        // resident region's lines are gone and its run needs no lookup...
        pair.phase("a", 3_000, 300, 0);
        pair.phase("b", 2_500, 300, 0);
        let before = pair.fast.walk_counts();
        pair.phase("fits-l1", 300, 40, 0);
        let after = pair.fast.walk_counts();
        assert_eq!(
            (after.walked, after.settles),
            (before.walked, before.settles)
        );
        assert_eq!(after.deferred, before.deferred + 40);
        // ...but the very next run of it finds those forty lines back.
        pair.phase("a", 3_000, 200, 0);
        pair.phase("fits-l1", 300, 300, 0);
        assert_eq!(pair.fast.walk_counts().walked, after.walked + 300);
        // The repeat lemma, on a region of at most `sets` lines.
        let evict = |pair: &mut Pair| {
            pair.phase("a", 3_000, 300, 0);
            pair.phase("b", 2_500, 300, 0);
        };
        // A 64-line region, each line alone in one of the 128 sets. Its
        // first pass defers; the 67 fetches that come round are looked
        // up, since the stamps say its lines were just referenced.
        let before = pair.fast.walk_counts();
        pair.phase("copy", 64, 131, 0);
        assert_eq!(pair.fast.walk_counts().walked, before.walked + 67);
        // Once every line is provably evicted, a run of it may come
        // round twice: 64 misses, then hits on what it installed itself.
        evict(&mut pair);
        let (before, l1i) = (pair.fast.walk_counts(), pair.fast.cache_stats().l1i);
        pair.phase("copy", 64, 192, 0);
        let (after, l1i_after) = (pair.fast.walk_counts(), pair.fast.cache_stats().l1i);
        assert_eq!(
            (after.walked, after.settles),
            (before.walked, before.settles)
        );
        assert_eq!(after.deferred, before.deferred + 192);
        assert_eq!(
            (l1i_after.hits - l1i.hits, l1i_after.misses - l1i.misses),
            (128, 64)
        );
        // A region of more than `sets` lines has lines that share a set:
        // a run that comes round it is looked up, evicted or not.
        evict(&mut pair);
        pair.phase("fits-l1", 300, 301, 0);
        assert_eq!(pair.fast.walk_counts().walked, after.walked + 301);
    }

    #[test]
    fn coverage_clock_never_overstates_the_lines_a_run_puts_in_a_set() {
        // The coverage lemma, by brute force. Each of a run's contiguous
        // ranges is floored separately because one floor over the whole
        // run overstates a run that wraps in a region whose length is
        // not a multiple of the set count (the first case below puts no
        // line at all in one set, and ⌊128 / 128⌋ = 1).
        const SETS: u64 = 128;
        let mut witnessed_wrap_loss = false;
        for (footprint, cursor, refs) in
            [(1_000, 873, 128), (1_000, 873, 400)]
                .into_iter()
                .chain((0..400u64).map(|i| {
                    let footprint = 768 + (i * 131) % 2_300;
                    (footprint, (i * 977) % footprint, 1 + (i * 389) % 4_000)
                }))
        {
            let mut region = Region::new("r", INSTR_BASE_LINE + 7, footprint, 768);
            region.cursor = cursor;
            let claimed = region.coverage(refs, SETS);
            let mut per_set = vec![std::collections::HashSet::new(); SETS as usize];
            for _ in 0..refs {
                let line = region.next_line();
                per_set[(line % SETS) as usize].insert(line);
            }
            let fewest = per_set
                .iter()
                .map(|lines| lines.len() as u64)
                .min()
                .unwrap();
            assert!(
                claimed <= fewest,
                "{refs} references from {cursor} of {footprint}"
            );
            witnessed_wrap_loss |= fewest < refs.min(footprint) / SETS;
        }
        assert!(witnessed_wrap_loss);
    }

    #[test]
    #[should_panic(expected = "out of modeled range")]
    fn unmodeled_footprint_panics_in_its_first_phase() {
        // 2^40 lines end past the last tag a 128-set L1 can hold. No
        // cursor would get that far in a lifetime, and a deferred run is
        // not looked up at all: the region's layout is what is checked.
        let mut e = PhaseEngine::with_l2(CoreConfig::a7_1ghz());
        e.run(&fetch_phase("vast", 1 << 40, 10, 0), &mut dram(10));
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
