//! Helios: a hybrid memory stack with a DRAM tier caching flash pages.
//!
//! The paper frames Mercury (3D DRAM: fast, 4 GB) and Iridium (p-BiCS
//! NAND: dense at 19.8 GB, but 10–20 µs reads) as an either/or. Helios
//! is the unexplored point between them: a thin slice of the Mercury
//! DRAM stack (64 MB–1 GB) bonded above the full Iridium flash array,
//! acting as a page-granular cache. The hot set is served at DRAM
//! latency; the cold tail spills to flash, and a miss amortizes one page
//! fetch over all 128 lines of the page instead of paying a flash read
//! per line the way Iridium does.
//!
//! [`HybridMemory`] implements [`MemoryTiming`], so it drops into the
//! CPU phase engine unchanged. The tier is a fully-associative,
//! object-granular LRU over whole pages that admits every miss, sized
//! by capacity alone, and its hit rate falls out of the simulated
//! reference stream — there is no hit-rate dial. Dirty pages are
//! written back through an FTL-aware write buffer that coalesces repeat
//! programs of the same logical page, so garbage-collection pressure
//! shows up on the [`Ftl`]'s lifetime counters exactly as host PUT
//! traffic does.
//!
//! Two degenerate limits anchor the model (and are pinned by property
//! tests): a 0-byte tier reproduces Iridium's timing bit-identically,
//! and a tier larger than the working set serves every re-reference at
//! Mercury's exact line latency.
//!
//! Per-tier byte accounting ([`HybridMemory::dram_bytes`] /
//! [`HybridMemory::flash_bytes`]) lets the power model price the two
//! tiers at their separate Table-1 rates: DRAM 210 mW/(GB/s), flash
//! 6 mW/(GB/s).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use densekv_mem::dram::MERCURY_MW_PER_GBPS;
use densekv_mem::flash::FlashConfig;
use densekv_mem::ftl::Ftl;
use densekv_mem::{AccessKind, MemoryTiming, LINE_BYTES};
use densekv_sim::lru::StrictLru;
use densekv_sim::Duration;

/// Geometry and timing of a Helios hybrid stack.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// DRAM tier capacity in bytes (0 disables the tier: pure Iridium).
    pub dram_tier_bytes: u64,
    /// Independent DRAM ports bonded to the logic die (Mercury: 16).
    pub dram_ports: u32,
    /// DRAM array access latency (Mercury's closed-page 10 ns).
    pub dram_hit_latency: Duration,
    /// Sustained bandwidth per DRAM port, GB/s (Mercury: 6.25).
    pub dram_port_bandwidth_gbps: f64,
    /// DRAM active power per GB/s, milliwatts (Table 1: 210).
    pub dram_active_mw_per_gbps: f64,
    /// Dirty pages buffered before the write buffer flushes to the FTL.
    pub writeback_pages: u32,
    /// The flash array behind the tier (Iridium geometry).
    pub flash: FlashConfig,
    /// FTL over-provisioning fraction.
    pub overprovision: f64,
}

impl HybridConfig {
    /// The Helios design point: a `dram_tier_bytes` slice of Mercury's
    /// Tezzaron DRAM (16 ports, 6.25 GB/s each, 10 ns closed-page) over
    /// the full Iridium flash array at the given read latency.
    pub fn helios(dram_tier_bytes: u64, flash_read_latency: Duration) -> Self {
        HybridConfig {
            dram_tier_bytes,
            dram_ports: 16,
            dram_hit_latency: Duration::from_nanos(10),
            dram_port_bandwidth_gbps: 6.25,
            dram_active_mw_per_gbps: MERCURY_MW_PER_GBPS,
            writeback_pages: 16,
            flash: FlashConfig::iridium(flash_read_latency),
            overprovision: 1.0 / 16.0,
        }
    }

    /// Number of whole flash pages the DRAM tier can hold.
    #[must_use]
    pub(crate) fn capacity_pages(&self) -> u64 {
        self.dram_tier_bytes / self.flash.page_bytes
    }

    /// Time to move one 64 B line over a DRAM port.
    #[must_use]
    pub(crate) fn dram_line_transfer(&self) -> Duration {
        Duration::from_nanos_f64(LINE_BYTES as f64 / self.dram_port_bandwidth_gbps)
    }

    /// Latency of a tier hit: array access plus one line transfer —
    /// identical to Mercury's closed-page `line_access`.
    #[must_use]
    pub fn dram_line_latency(&self) -> Duration {
        self.dram_hit_latency + self.dram_line_transfer()
    }

    /// Time to stream one whole flash page over a DRAM port.
    #[must_use]
    pub(crate) fn dram_page_latency(&self) -> Duration {
        self.dram_hit_latency
            + Duration::from_nanos_f64(self.flash.page_bytes as f64 / self.dram_port_bandwidth_gbps)
    }
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig::helios(256 << 20, Duration::from_micros(10))
    }
}

/// A point-in-time copy of the tier's counters, for telemetry gauges
/// and experiment reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TierSnapshot {
    /// Line accesses served from the DRAM tier.
    pub hits: u64,
    /// Line accesses that missed the tier.
    pub misses: u64,
    /// Bytes moved through the DRAM tier (hits, fills, dirty read-outs).
    pub dram_bytes: u64,
    /// Bytes moved through the flash array (fills, misses, programs).
    pub flash_bytes: u64,
    /// Pages currently resident in the tier.
    pub resident_pages: u64,
    /// Total page frames in the tier.
    pub(crate) capacity_pages: u64,
    /// Dirty pages actually programmed through the FTL.
    pub writebacks_flushed: u64,
    /// Programs saved by write-buffer coalescing (same lpn re-dirtied
    /// before the buffer flushed).
    pub programs_coalesced: u64,
    /// FTL lifetime host page writes.
    pub host_writes: u64,
    /// FTL lifetime device page programs (host + GC relocations).
    pub device_programs: u64,
    /// FTL lifetime GC page relocations.
    pub gc_moved_pages: u64,
    /// FTL lifetime block erases.
    pub gc_erased_blocks: u64,
}

impl TierSnapshot {
    /// Fraction of line accesses served from DRAM (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident page frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    lpn: u64,
    dirty: bool,
}

/// The DRAM tier's frame directory: a fully-associative LRU over whole
/// pages.
#[derive(Debug, Clone)]
enum Frames {
    ObjectLru {
        /// Resident frames by slot: slots fill in order, and an evicted
        /// frame's slot is reused by the page that evicted it.
        table: Vec<Frame>,
        /// Recency order over the slots of `table`.
        order: StrictLru,
        /// Slot of `table` + 1 by lpn, over the FTL's exported pages
        /// (0: not resident).
        index: Vec<u32>,
    },
    /// The tick-ordered directory `ObjectLru` replaced: the
    /// differential tests' reference.
    #[cfg(test)]
    Reference(tests::ReferenceLru),
}

#[derive(Debug, Clone)]
struct DramTier {
    frames: Frames,
    capacity_pages: u64,
    resident: u64,
    /// Every victim so far, for the differential tests to compare.
    #[cfg(test)]
    evicted: Vec<Frame>,
}

impl DramTier {
    /// An empty tier for `config` over `pages` logical flash pages.
    fn new(config: &HybridConfig, pages: u64) -> Self {
        DramTier {
            frames: Frames::ObjectLru {
                table: Vec::new(),
                order: StrictLru::new(),
                index: vec![0; pages as usize],
            },
            capacity_pages: config.capacity_pages(),
            resident: 0,
            #[cfg(test)]
            evicted: Vec::new(),
        }
    }

    /// Looks up `lpn`; on a hit updates recency (and dirtiness if
    /// `dirty`) and returns true.
    fn touch(&mut self, lpn: u64, dirty: bool) -> bool {
        if self.capacity_pages == 0 {
            return false;
        }
        match &mut self.frames {
            Frames::ObjectLru {
                table,
                order,
                index,
            } => {
                // A touch of the most recent frame moves nothing: most
                // touches are the next line of the page touched last.
                let slot = match order.head() {
                    Some(head) if table[head as usize].lpn == lpn => head,
                    _ => {
                        let Some(slot) = index[lpn as usize].checked_sub(1) else {
                            return false;
                        };
                        order.touch(slot);
                        slot
                    }
                };
                table[slot as usize].dirty |= dirty;
                true
            }
            #[cfg(test)]
            Frames::Reference(lru) => lru.touch(lpn, dirty),
        }
    }

    /// Installs `lpn` (caller guarantees it is absent), evicting the
    /// tier's LRU frame if full. Returns the evicted frame, if any.
    fn install(&mut self, lpn: u64, dirty: bool) -> Option<Frame> {
        debug_assert!(self.capacity_pages > 0);
        let frame = Frame { lpn, dirty };
        let evicted = match &mut self.frames {
            Frames::ObjectLru {
                table,
                order,
                index,
            } => {
                let (slot, evicted) = if table.len() as u64 == self.capacity_pages {
                    let slot = order.pop_lru().expect("tier is non-empty");
                    let victim = std::mem::replace(&mut table[slot as usize], frame);
                    index[victim.lpn as usize] = 0;
                    (slot, Some(victim))
                } else {
                    let slot = u32::try_from(table.len()).expect("frames are indexed by u32");
                    table.push(frame);
                    (slot, None)
                };
                order.insert(slot);
                index[lpn as usize] = slot + 1;
                evicted
            }
            #[cfg(test)]
            Frames::Reference(lru) => lru.install(frame, self.capacity_pages),
        };
        self.resident += 1 - u64::from(evicted.is_some());
        #[cfg(test)]
        self.evicted.extend(evicted);
        evicted
    }
}

/// A Helios hybrid memory: a DRAM page-cache tier over an FTL-managed
/// flash array, presenting [`MemoryTiming`] to the core model.
///
/// # Examples
///
/// ```
/// use densekv_hybrid::{HybridConfig, HybridMemory};
/// use densekv_mem::{AccessKind, MemoryTiming};
/// use densekv_sim::Duration;
///
/// let config = HybridConfig::helios(64 << 20, Duration::from_micros(10));
/// let mut mem = HybridMemory::new(config);
/// let miss = mem.line_access(0, AccessKind::Read); // page fill from flash
/// let hit = mem.line_access(1, AccessKind::Read); // same page: DRAM
/// assert!(hit < miss);
/// assert_eq!(hit, Duration::from_ps(20_240)); // Mercury's line latency
/// ```
#[derive(Debug, Clone)]
pub struct HybridMemory {
    config: HybridConfig,
    /// `config.dram_line_latency()` and `config.dram_page_latency()`,
    /// derived once.
    dram_line_latency: Duration,
    dram_page_latency: Duration,
    ftl: Ftl,
    tier: DramTier,
    /// Dirty lpns awaiting flush, in eviction order.
    writeback: VecDeque<u64>,
    /// `writeback` membership by lpn, for O(1) coalescing.
    buffered: Vec<bool>,
    /// `config.flash.page_bytes / LINE_BYTES`, derived once.
    lines_per_page: u64,
    hits: u64,
    misses: u64,
    dram_bytes: u64,
    writebacks_flushed: u64,
    programs_coalesced: u64,
}

impl HybridMemory {
    /// Builds the tier, the FTL, and the flash array from `config`.
    ///
    /// # Panics
    ///
    /// Panics if a flash page is not a whole number of lines, or as
    /// [`Ftl::new`] does.
    pub fn new(config: HybridConfig) -> Self {
        assert!(
            config.flash.page_bytes.is_multiple_of(LINE_BYTES),
            "a flash page must be a whole number of lines"
        );
        let ftl = Ftl::new(config.flash.clone(), config.overprovision);
        let pages = ftl.exported_pages();
        HybridMemory {
            dram_line_latency: config.dram_line_latency(),
            dram_page_latency: config.dram_page_latency(),
            lines_per_page: config.flash.page_bytes / LINE_BYTES,
            ftl,
            tier: DramTier::new(&config, pages),
            writeback: VecDeque::new(),
            buffered: vec![false; pages as usize],
            hits: 0,
            misses: 0,
            dram_bytes: 0,
            writebacks_flushed: 0,
            programs_coalesced: 0,
            config,
        }
    }

    /// The stack configuration.
    #[must_use]
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// The FTL behind the tier (lifetime GC/wear counters).
    #[must_use]
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Line accesses served from the DRAM tier.
    #[must_use]
    pub fn tier_hits(&self) -> u64 {
        self.hits
    }

    /// Line accesses that missed the DRAM tier.
    #[must_use]
    pub fn tier_misses(&self) -> u64 {
        self.misses
    }

    /// Bytes moved through the DRAM tier since the last counter reset.
    #[must_use]
    pub fn dram_bytes(&self) -> u64 {
        self.dram_bytes
    }

    /// Bytes moved through the flash array since the last counter reset.
    #[must_use]
    pub fn flash_bytes(&self) -> u64 {
        self.ftl.flash().bytes_moved()
    }

    /// Pages currently resident in the tier.
    #[must_use]
    pub fn resident_pages(&self) -> u64 {
        self.tier.resident
    }

    /// Dirty pages programmed through the FTL so far.
    #[must_use]
    pub fn writebacks_flushed(&self) -> u64 {
        self.writebacks_flushed
    }

    /// Programs saved by write-buffer coalescing so far.
    #[must_use]
    pub fn programs_coalesced(&self) -> u64 {
        self.programs_coalesced
    }

    /// Copies every counter into a [`TierSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> TierSnapshot {
        TierSnapshot {
            hits: self.hits,
            misses: self.misses,
            dram_bytes: self.dram_bytes,
            flash_bytes: self.flash_bytes(),
            resident_pages: self.tier.resident,
            capacity_pages: self.tier.capacity_pages,
            writebacks_flushed: self.writebacks_flushed,
            programs_coalesced: self.programs_coalesced,
            host_writes: self.ftl.host_writes(),
            device_programs: self.ftl.device_programs(),
            gc_moved_pages: self.ftl.gc_moved_pages(),
            gc_erased_blocks: self.ftl.gc_erased_blocks(),
        }
    }

    /// The logical flash page holding a line address (64 B units),
    /// wrapped modulo the FTL's exported capacity, and the first line
    /// of the next page (saturating).
    fn page_of_line(&self, line_addr: u64) -> (u64, u64) {
        let raw = line_addr / self.lines_per_page;
        (
            raw % self.ftl.exported_pages(),
            raw.saturating_add(1).saturating_mul(self.lines_per_page),
        )
    }

    /// Installs a page into the tier, routing any dirty victim through
    /// the write buffer. Returns the flush latency incurred (usually
    /// zero; a full buffer drains synchronously, modeling the
    /// writeback stall).
    fn install(&mut self, lpn: u64, dirty: bool) -> Duration {
        let mut latency = Duration::ZERO;
        if let Some(victim) = self.tier.install(lpn, dirty) {
            if victim.dirty {
                // Reading the page out of DRAM to stage it for flash.
                self.dram_bytes += self.config.flash.page_bytes;
                latency += self.buffer_writeback(victim.lpn);
            }
        }
        latency
    }

    /// Queues one dirty page for writeback, coalescing repeats, and
    /// flushes the buffer once it reaches capacity.
    fn buffer_writeback(&mut self, lpn: u64) -> Duration {
        if std::mem::replace(&mut self.buffered[lpn as usize], true) {
            self.programs_coalesced += 1;
            return Duration::ZERO;
        }
        self.writeback.push_back(lpn);
        if self.writeback.len() >= self.config.writeback_pages.max(1) as usize {
            self.drain_writeback()
        } else {
            Duration::ZERO
        }
    }

    /// Flushes every buffered dirty page through the FTL (garbage
    /// collection included), returning the summed device time.
    pub fn drain_writeback(&mut self) -> Duration {
        let mut latency = Duration::ZERO;
        while let Some(lpn) = self.writeback.pop_front() {
            self.buffered[lpn as usize] = false;
            latency += self
                .ftl
                .write(lpn)
                .expect("writeback lpns are within exported capacity")
                .latency;
            self.writebacks_flushed += 1;
        }
        latency
    }

    /// One line access to page `lpn` of a non-empty tier; the page is
    /// resident afterwards.
    fn tier_line_access(&mut self, lpn: u64, kind: AccessKind) -> Duration {
        if self.tier.touch(lpn, kind == AccessKind::Write) {
            self.hits += 1;
            self.dram_bytes += LINE_BYTES;
            return self.dram_line_latency;
        }
        self.misses += 1;
        // Fill the whole page from flash (write-allocate on stores: the
        // line lands in the filled page, which becomes dirty).
        let fill = self.ftl.read_page_any(lpn);
        let stall = self.install(lpn, kind == AccessKind::Write);
        self.dram_bytes += self.config.flash.page_bytes;
        fill + stall + self.dram_line_latency
    }

    /// Writes the value bytes at logical byte `offset` — the bulk PUT
    /// path. With the tier disabled this is exactly
    /// [`Ftl::write_range`]; otherwise the covering pages are installed
    /// dirty at DRAM speed (a full-page overwrite needs no flash fill)
    /// and reach flash later through the write buffer.
    pub fn value_write(&mut self, offset: u64, bytes: u64) -> Duration {
        if self.tier.capacity_pages == 0 {
            return self.ftl.write_range(offset, bytes);
        }
        let page = self.config.flash.page_bytes;
        let first = offset / page;
        let last = (offset + bytes.max(1) - 1) / page;
        let mut latency = Duration::ZERO;
        for raw in first..=last {
            let lpn = raw % self.ftl.exported_pages();
            if self.tier.touch(lpn, true) {
                self.hits += 1;
            } else {
                self.misses += 1;
                latency += self.install(lpn, true);
            }
            self.dram_bytes += page;
            latency += self.dram_page_latency;
        }
        latency
    }
}

impl MemoryTiming for HybridMemory {
    fn line_access(&mut self, line_addr: u64, kind: AccessKind) -> Duration {
        if self.tier.capacity_pages == 0 {
            return self.ftl.line_access(line_addr, kind);
        }
        let (lpn, _) = self.page_of_line(line_addr);
        self.tier_line_access(lpn, kind)
    }

    /// Page-granular: each flash page's first line of the run takes the
    /// per-line path (a hit, or a fill). That line left the page
    /// resident, the most recent frame of the tier and as dirty as this
    /// run can make it, and nothing else touches the tier before the run
    /// leaves the page — so every later line of the page is a tier hit
    /// at `dram_line_latency` that would move nothing, and only the
    /// counters remain to be advanced.
    fn stream_access(
        &mut self,
        start_line: u64,
        lines: u64,
        kind: AccessKind,
        scale: f64,
    ) -> Duration {
        if self.tier.capacity_pages == 0 {
            return self.ftl.stream_access(start_line, lines, kind, scale);
        }
        let end = start_line + lines;
        let hit = self.dram_line_latency * scale;
        let mut total = Duration::ZERO;
        let mut line = start_line;
        while line < end {
            let (lpn, next_page_line) = self.page_of_line(line);
            let page_end = next_page_line.min(end);
            total += self.tier_line_access(lpn, kind) * scale;
            let rest = page_end - line - 1;
            self.hits += rest;
            self.dram_bytes += LINE_BYTES * rest;
            total += hit * rest;
            line = page_end;
        }
        total
    }

    fn bytes_moved(&self) -> u64 {
        self.dram_bytes + self.ftl.flash().bytes_moved()
    }

    fn reset_counters(&mut self) {
        self.dram_bytes = 0;
        self.ftl.reset_counters();
    }

    fn active_power_w(&self, gb_per_s: f64) -> f64 {
        // Headline single-rate figure prices traffic at the DRAM rate;
        // per-tier pricing splits by dram_bytes()/flash_bytes().
        self.config.dram_active_mw_per_gbps * gb_per_s / 1000.0
    }

    fn max_overlap(&self, kind: AccessKind) -> f64 {
        // The flash array sits in the miss path, so the stack inherits
        // its one-command-in-flight model (conservative for pure-hit
        // streams).
        self.ftl.max_overlap(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_mem::dram::{DramConfig, DramStack};
    use densekv_sim::SplitMix64;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// The frame directory as it was before the frame table: a SipHash
    /// map to a recency tick and a tree from ticks back to pages. Every
    /// touch is a tree remove and insert, which is why it was replaced
    /// and why it makes an independent reference.
    #[derive(Debug, Clone, Default)]
    pub(super) struct ReferenceLru {
        /// lpn -> (recency tick, dirty).
        entries: HashMap<u64, (u64, bool)>,
        /// recency tick -> lpn, oldest first.
        order: BTreeMap<u64, u64>,
        tick: u64,
    }

    impl ReferenceLru {
        pub(super) fn touch(&mut self, lpn: u64, dirty: bool) -> bool {
            match self.entries.get_mut(&lpn) {
                Some((at, d)) => {
                    self.order.remove(at);
                    self.tick += 1;
                    *at = self.tick;
                    *d |= dirty;
                    self.order.insert(self.tick, lpn);
                    true
                }
                None => false,
            }
        }

        pub(super) fn install(&mut self, frame: Frame, capacity: u64) -> Option<Frame> {
            let evicted = if self.entries.len() as u64 == capacity {
                let (_, lpn) = self.order.pop_first().expect("set is non-empty");
                let (_, dirty) = self.entries.remove(&lpn).expect("ordered lpn is resident");
                Some(Frame { lpn, dirty })
            } else {
                None
            };
            self.tick += 1;
            self.entries.insert(frame.lpn, (self.tick, frame.dirty));
            self.order.insert(self.tick, frame.lpn);
            evicted
        }
    }

    /// `config`'s memory over the reference directory.
    fn reference_memory(config: HybridConfig) -> HybridMemory {
        let mut memory = HybridMemory::new(config);
        memory.tier.frames = Frames::Reference(ReferenceLru::default());
        memory
    }

    fn kind(write: bool) -> AccessKind {
        if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    proptest! {
        /// The frame table against the directory it replaced, call by
        /// call: equal latency, equal counters, equal victims (page and
        /// dirtiness) — and never more resident pages than frames.
        #[test]
        fn frame_table_matches_tick_ordered_reference(
            tier_pages in 0u64..9,
            writeback_pages in 1u32..5,
            // 96 logical pages are exported; addresses run past them to wrap.
            calls in proptest::collection::vec(
                (0u8..8, 0u64..(110 * 128), 1u64..400, any::<bool>()),
                1..200,
            ),
        ) {
            let config = HybridConfig {
                writeback_pages,
                ..tiny_helios(tier_pages * (8 << 10))
            };
            let mut fast = HybridMemory::new(config.clone());
            let mut reference = reference_memory(config);
            for (call, line, len, write) in calls {
                let run = |m: &mut HybridMemory| match call {
                    0..=3 => m.line_access(line, kind(write)),
                    4 | 5 => m.stream_access(line, len, kind(write), 0.25),
                    6 => m.value_write(line * LINE_BYTES, len * 100),
                    _ => m.drain_writeback(),
                };
                prop_assert_eq!(run(&mut fast), run(&mut reference));
                prop_assert_eq!(fast.snapshot(), reference.snapshot());
                prop_assert_eq!(&fast.tier.evicted, &reference.tier.evicted);
                prop_assert!(fast.resident_pages() <= tier_pages);
            }
        }
    }

    /// A small flash geometry so tests run fast and GC triggers early.
    fn tiny_flash() -> FlashConfig {
        FlashConfig {
            planes: 2,
            page_bytes: 8 << 10,
            pages_per_block: 4,
            blocks_per_plane: 16,
            read_latency: Duration::from_micros(10),
            program_latency: Duration::from_micros(200),
            erase_latency: Duration::from_millis(2),
            controller_overhead: Duration::from_micros(15),
            active_mw_per_gbps: 6.0,
        }
    }

    fn tiny_helios(dram_tier_bytes: u64) -> HybridConfig {
        HybridConfig {
            dram_tier_bytes,
            flash: tiny_flash(),
            overprovision: 0.25,
            ..HybridConfig::helios(dram_tier_bytes, Duration::from_micros(10))
        }
    }

    #[test]
    fn page_of_line_matches_the_byte_exact_form() {
        // The `u128` form it replaced, which also priced pages that are
        // not a whole number of lines: the page holding the line's first
        // byte, and the first line that starts past that page.
        let byte_exact = |line: u64, page_bytes: u64, pages: u64| {
            let page_bytes = u128::from(page_bytes);
            let raw = u128::from(line) * u128::from(LINE_BYTES) / page_bytes;
            let next = ((raw + 1) * page_bytes).div_ceil(u128::from(LINE_BYTES));
            (
                (raw % u128::from(pages)) as u64,
                u64::try_from(next).unwrap_or(u64::MAX),
            )
        };
        let mut rng = SplitMix64::new(0x9A6E);
        for page_bytes in [64, 3 * 64, 65 * 64, 8 << 10] {
            let memory = HybridMemory::new(HybridConfig {
                flash: FlashConfig {
                    page_bytes,
                    ..tiny_flash()
                },
                ..tiny_helios(0)
            });
            let pages = memory.ftl().exported_pages();
            let lines = (0..2_000)
                .map(|i| match i % 3 {
                    0 => rng.next_u64(),
                    1 => rng.next_u64() % (4 * pages * page_bytes / LINE_BYTES),
                    _ => u64::MAX - rng.next_u64() % (2 * page_bytes),
                })
                .chain([0, 1, u64::MAX]);
            for line in lines {
                assert_eq!(
                    memory.page_of_line(line),
                    byte_exact(line, page_bytes, pages),
                    "line {line}, {page_bytes} B pages"
                );
            }
        }
        // A page that lines would straddle is refused.
        let straddled = std::panic::catch_unwind(|| {
            HybridMemory::new(HybridConfig {
                flash: FlashConfig {
                    page_bytes: 5_000,
                    ..tiny_flash()
                },
                ..tiny_helios(0)
            })
        });
        assert!(straddled.is_err());
    }

    #[test]
    fn zero_byte_tier_is_bit_identical_to_iridium() {
        let mut hybrid = HybridMemory::new(tiny_helios(0));
        let mut ftl = Ftl::new(tiny_flash(), 0.25);
        for (addr, kind) in [
            (0u64, AccessKind::Read),
            (7, AccessKind::Write),
            (1_000_000, AccessKind::Read),
            (3, AccessKind::Write),
        ] {
            assert_eq!(hybrid.line_access(addr, kind), ftl.line_access(addr, kind));
        }
        assert_eq!(hybrid.bytes_moved(), ftl.bytes_moved());
        assert_eq!(
            hybrid.value_write(12_345, 20_000),
            ftl.write_range(12_345, 20_000)
        );
        assert_eq!(hybrid.max_overlap(AccessKind::Read), 1.0);
        assert_eq!(hybrid.resident_pages(), 0);
    }

    #[test]
    fn oversized_tier_re_references_hit_at_mercury_latency() {
        let mut hybrid = HybridMemory::new(tiny_helios(64 << 20));
        let mut mercury = DramStack::new(DramConfig::mercury(Duration::from_nanos(10)));
        let addrs = [0u64, 9, 250, 4096, 77_777];
        for &a in &addrs {
            hybrid.line_access(a, AccessKind::Read); // cold fill
        }
        for &a in &addrs {
            assert_eq!(
                hybrid.line_access(a, AccessKind::Read),
                mercury.line_access(a, AccessKind::Read),
                "re-reference of line {a} should cost exactly one Mercury access"
            );
        }
    }

    #[test]
    fn miss_amortizes_page_fill_across_lines() {
        let mut hybrid = HybridMemory::new(tiny_helios(64 << 20));
        let lines_per_page = tiny_flash().page_bytes / LINE_BYTES;
        let miss = hybrid.line_access(0, AccessKind::Read);
        let mut total = miss;
        for line in 1..lines_per_page {
            total += hybrid.line_access(line, AccessKind::Read);
        }
        // Iridium pays a full flash read per line; Helios pays one fill
        // plus DRAM hits, far cheaper over a whole page.
        let mut iridium = Ftl::new(tiny_flash(), 0.25);
        let mut iridium_total = Duration::ZERO;
        for line in 0..lines_per_page {
            iridium_total += iridium.line_access(line, AccessKind::Read);
        }
        assert!(total * 10 < iridium_total, "{total:?} vs {iridium_total:?}");
        assert_eq!(hybrid.tier_hits(), lines_per_page - 1);
        assert_eq!(hybrid.tier_misses(), 1);
    }

    #[test]
    fn per_tier_byte_accounting_separates_dram_and_flash() {
        let mut hybrid = HybridMemory::new(tiny_helios(64 << 20));
        let page = tiny_flash().page_bytes;
        hybrid.line_access(0, AccessKind::Read); // fill: page off flash, page into DRAM
        hybrid.line_access(1, AccessKind::Read); // hit: one line in DRAM
        assert_eq!(hybrid.flash_bytes(), page);
        assert_eq!(hybrid.dram_bytes(), page + LINE_BYTES);
        assert_eq!(hybrid.bytes_moved(), 2 * page + LINE_BYTES);
        hybrid.reset_counters();
        assert_eq!(hybrid.bytes_moved(), 0);
    }

    #[test]
    fn dirty_evictions_reach_flash_through_coalescing_write_buffer() {
        // One-page tier, small buffer: alternating dirty pages force
        // evictions; re-dirtying a buffered page coalesces.
        let mut config = tiny_helios(8 << 10);
        config.writeback_pages = 4;
        let page = config.flash.page_bytes;
        let mut hybrid = HybridMemory::new(config);
        assert_eq!(hybrid.config().capacity_pages(), 1);
        for i in 0..12u64 {
            hybrid.value_write((i % 2) * page, 64);
        }
        assert!(
            hybrid.programs_coalesced() > 0,
            "repeat dirty evictions coalesce"
        );
        let _ = hybrid.drain_writeback();
        assert!(hybrid.writebacks_flushed() > 0);
        let snap = hybrid.snapshot();
        assert_eq!(snap.host_writes, hybrid.writebacks_flushed());
        assert_eq!(
            snap.writebacks_flushed + snap.programs_coalesced,
            11,
            "every dirty eviction is either flushed or coalesced"
        );
    }

    #[test]
    fn gc_pressure_shows_on_lifetime_counters() {
        let mut config = tiny_helios(8 << 10);
        config.writeback_pages = 1; // flush every eviction
        let page = config.flash.page_bytes;
        let mut hybrid = HybridMemory::new(config);
        let pages = hybrid.ftl().exported_pages();
        for i in 0..2_000u64 {
            hybrid.value_write((i % pages) * page, 64);
        }
        let _ = hybrid.drain_writeback();
        let snap = hybrid.snapshot();
        assert!(
            snap.gc_erased_blocks > 0,
            "sustained writeback must trigger GC"
        );
        assert!(snap.device_programs >= snap.host_writes);
    }

    #[test]
    fn hit_rate_tracks_reference_skew() {
        // Same tier, same number of distinct pages, two streams: the
        // more skewed one must earn a higher hit rate. No dials.
        let run = |exponent: u32| {
            let mut hybrid = HybridMemory::new(tiny_helios(4 * (8 << 10)));
            let lines_per_page = tiny_flash().page_bytes / LINE_BYTES;
            let population = 64u64; // pages; tier holds 4
            let mut rng = SplitMix64::new(0x5EED);
            for _ in 0..20_000 {
                let mut u = rng.next_u64() % population;
                for _ in 0..exponent {
                    u = u.min(rng.next_u64() % population);
                }
                hybrid.line_access(u * lines_per_page, AccessKind::Read);
            }
            hybrid.snapshot().hit_rate()
        };
        let uniform = run(0);
        let skewed = run(3);
        assert!(
            skewed > 2.0 * uniform,
            "skewed {skewed:.3} should beat uniform {uniform:.3}"
        );
    }

    #[test]
    fn object_lru_holds_a_working_set_below_capacity() {
        // Three pages in an 8-frame tier: a fully-associative LRU has
        // no conflict misses, so only the first pass misses.
        let mut hybrid = HybridMemory::new(tiny_helios(8 * (8 << 10)));
        let lines_per_page = tiny_flash().page_bytes / LINE_BYTES;
        for _ in 0..4 {
            for p in [0, 4, 8] {
                hybrid.line_access(p * lines_per_page, AccessKind::Read);
            }
        }
        assert_eq!(
            hybrid.tier_misses(),
            3,
            "LRU keeps the working set resident"
        );
        assert_eq!(hybrid.tier_hits(), 9);
        assert_eq!(hybrid.resident_pages(), 3);
    }

    #[test]
    fn helios_defaults_mirror_mercury_and_iridium_parts() {
        let config = HybridConfig::helios(256 << 20, Duration::from_micros(10));
        assert_eq!(config.dram_ports, 16);
        assert_eq!(config.dram_line_latency(), Duration::from_ps(20_240));
        assert_eq!(
            config.flash,
            FlashConfig::iridium(Duration::from_micros(10))
        );
        assert_eq!(config.capacity_pages(), (256 << 20) / (8 << 10));
    }
}
