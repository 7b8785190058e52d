//! The p-BiCS NAND flash device used by Iridium stacks.
//!
//! Iridium replaces Mercury's DRAM dies with Toshiba's 16-layer
//! pipe-shaped bit-cost-scalable (p-BiCS) NAND flash: a single monolithic
//! 3D flash layer (the 16 layers are internal to the die, §4.2.1) holding
//! 19.8 GB per stack. The stack keeps Mercury's 16-way port organization by
//! provisioning 16 independent flash controllers ("planes" here).
//!
//! Timing follows the paper's simulation parameters (drawn from Grupp et
//! al. \[15\], conservative for 3D flash): reads 10–20 µs, programs 200 µs,
//! and a millisecond-class block erase. As in the paper's memory model,
//! the [`MemoryTiming`] view prices every uncached line transfer at the
//! full read latency (worst-case closed-page equivalent); page-granular
//! operations for the FTL are exposed separately.

use densekv_sim::Duration;

use crate::{AccessKind, MemoryTiming, LINE_BYTES};

/// Geometry and timing of the Iridium flash array.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashConfig {
    /// Independent flash controllers / planes (paper: 16, mirroring the
    /// DRAM port count).
    pub planes: u32,
    /// Bytes per flash page (8 KiB).
    pub page_bytes: u64,
    /// Pages per erase block (128 → 1 MiB blocks).
    pub pages_per_block: u32,
    /// Erase blocks per plane.
    pub blocks_per_plane: u32,
    /// Page read latency (paper sweep: 10–20 µs).
    pub read_latency: Duration,
    /// Page program latency (paper: 200 µs).
    pub program_latency: Duration,
    /// Block erase latency.
    pub erase_latency: Duration,
    /// Per-operation flash-controller overhead added to every device
    /// operation: page transfer off the die (8 KiB at ONFI-class rates is
    /// ~15 µs) plus ECC decode and queuing.
    pub controller_overhead: Duration,
    /// Active power per GB/s of sustained bandwidth, milliwatts
    /// (Table 1: 6 mW/(GB/s)).
    pub active_mw_per_gbps: f64,
}

impl FlashConfig {
    /// The paper's Iridium flash stack at the given read latency.
    ///
    /// Capacity works out to 16 planes × 1,180 blocks × 128 pages × 8 KiB
    /// = 19.8 GB (the paper's quoted density: ~4.9× the 4 GB DRAM stack).
    pub fn iridium(read_latency: Duration) -> Self {
        FlashConfig {
            planes: 16,
            page_bytes: 8 << 10,
            pages_per_block: 128,
            blocks_per_plane: 1180,
            read_latency,
            program_latency: Duration::from_micros(200),
            erase_latency: Duration::from_millis(2),
            controller_overhead: Duration::from_micros(15),
            active_mw_per_gbps: 6.0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.planes as u64
            * self.blocks_per_plane as u64
            * self.pages_per_block as u64
            * self.page_bytes
    }

    /// Capacity in (decimal) gigabytes, as the paper quotes it.
    pub fn capacity_gb(&self) -> f64 {
        self.capacity_bytes() as f64 / 1e9
    }

    /// Total pages in the device.
    pub fn total_pages(&self) -> u64 {
        self.planes as u64 * self.blocks_per_plane as u64 * self.pages_per_block as u64
    }

    /// Cache lines per flash page.
    pub fn lines_per_page(&self) -> u64 {
        self.page_bytes / LINE_BYTES
    }
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig::iridium(Duration::from_micros(10))
    }
}

/// A physical page address inside the flash array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysPage {
    /// Plane (controller) index.
    pub plane: u32,
    /// Block within the plane.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

/// Raw flash device: page reads/programs, block erases, wear counters,
/// and a [`MemoryTiming`] facade for the core timing model.
///
/// # Examples
///
/// ```
/// use densekv_mem::flash::{FlashArray, FlashConfig};
/// use densekv_mem::{AccessKind, MemoryTiming};
/// use densekv_sim::Duration;
///
/// let mut flash = FlashArray::new(FlashConfig::default());
/// // 10 us array read + 15 us controller overhead (transfer + ECC).
/// assert_eq!(flash.line_access(0, AccessKind::Read), Duration::from_micros(25));
/// assert_eq!(flash.line_access(0, AccessKind::Write), Duration::from_micros(215));
/// ```
#[derive(Debug, Clone)]
pub struct FlashArray {
    config: FlashConfig,
    /// Erase count per (plane, block).
    erase_counts: Vec<u32>,
    bytes_moved: u64,
    reads: u64,
    programs: u64,
    erases: u64,
}

impl FlashArray {
    /// Creates a flash array from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero planes, blocks, or pages.
    pub fn new(config: FlashConfig) -> Self {
        assert!(config.planes > 0 && config.blocks_per_plane > 0 && config.pages_per_block > 0);
        let nblocks = (config.planes * config.blocks_per_plane) as usize;
        FlashArray {
            erase_counts: vec![0; nblocks],
            bytes_moved: 0,
            reads: 0,
            programs: 0,
            erases: 0,
            config,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.config
    }

    fn block_index(&self, plane: u32, block: u32) -> usize {
        assert!(plane < self.config.planes, "plane out of range");
        assert!(block < self.config.blocks_per_plane, "block out of range");
        (plane * self.config.blocks_per_plane + block) as usize
    }

    /// Reads one full page; returns the device latency.
    pub(crate) fn read_page(&mut self, page: PhysPage) -> Duration {
        let _ = self.block_index(page.plane, page.block);
        self.reads += 1;
        self.bytes_moved += self.config.page_bytes;
        self.config.read_latency + self.config.controller_overhead
    }

    /// Programs one full page; returns the device latency.
    pub(crate) fn program_page(&mut self, page: PhysPage) -> Duration {
        let _ = self.block_index(page.plane, page.block);
        self.programs += 1;
        self.bytes_moved += self.config.page_bytes;
        self.config.program_latency + self.config.controller_overhead
    }

    /// Erases a block, bumping its wear counter; returns the latency.
    pub(crate) fn erase_block(&mut self, plane: u32, block: u32) -> Duration {
        let idx = self.block_index(plane, block);
        self.erase_counts[idx] += 1;
        self.erases += 1;
        self.config.erase_latency
    }

    /// Erase count of one block.
    pub(crate) fn erase_count(&self, plane: u32, block: u32) -> u32 {
        self.erase_counts[self.block_index(plane, block)]
    }

    /// `(min, max)` erase count over all blocks — the wear-leveling spread.
    pub fn wear_spread(&self) -> (u32, u32) {
        let min = self.erase_counts.iter().copied().min().unwrap_or(0);
        let max = self.erase_counts.iter().copied().max().unwrap_or(0);
        (min, max)
    }

    /// Page reads issued so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Page programs issued so far.
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// Block erases issued so far.
    pub fn erases(&self) -> u64 {
        self.erases
    }

    /// Counts `lines` uncached line transfers and returns the latency
    /// each one pays.
    fn account_lines(&mut self, lines: u64, kind: AccessKind) -> Duration {
        self.bytes_moved += LINE_BYTES * lines;
        match kind {
            AccessKind::Read => {
                self.reads += lines;
                self.config.read_latency + self.config.controller_overhead
            }
            AccessKind::Write => {
                self.programs += lines;
                self.config.program_latency + self.config.controller_overhead
            }
        }
    }
}

impl MemoryTiming for FlashArray {
    /// Prices a single uncached line transfer.
    ///
    /// Both directions pay the full array latency — the paper's
    /// worst-case closed-page assumption carried over to flash (§5.2
    /// applies its 10–20 µs read / 200 µs write latencies per memory
    /// access, which is what pushes flash PUTs below 1 KTPS in Fig. 6).
    fn line_access(&mut self, _line_addr: u64, kind: AccessKind) -> Duration {
        self.account_lines(1, kind)
    }

    /// Every line of a run pays the same fixed latency and touches no
    /// device state, so the run is `lines` equal addends.
    fn stream_access(
        &mut self,
        _start_line: u64,
        lines: u64,
        kind: AccessKind,
        scale: f64,
    ) -> Duration {
        (self.account_lines(lines, kind) * scale) * lines
    }

    fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    fn reset_counters(&mut self) {
        self.bytes_moved = 0;
        self.reads = 0;
        self.programs = 0;
        self.erases = 0;
    }

    fn active_power_w(&self, gb_per_s: f64) -> f64 {
        self.config.active_mw_per_gbps * gb_per_s / 1000.0
    }

    fn max_overlap(&self, _kind: AccessKind) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_matches_paper() {
        let c = FlashConfig::default();
        // 19.8 GB per stack, ~4.9x the 4 GB DRAM stack (paper §4.2.1).
        assert!((c.capacity_gb() - 19.8).abs() < 0.1, "{}", c.capacity_gb());
        let dram_gb = 4.0 * (1u64 << 30) as f64 / 1e9;
        let ratio = c.capacity_gb() / dram_gb;
        assert!((4.4..=5.0).contains(&ratio), "density ratio {ratio}");
    }

    #[test]
    fn page_ops_use_configured_latencies() {
        let mut f = FlashArray::new(FlashConfig::iridium(Duration::from_micros(20)));
        let p = PhysPage {
            plane: 3,
            block: 7,
            page: 1,
        };
        assert_eq!(f.read_page(p), Duration::from_micros(35));
        assert_eq!(f.program_page(p), Duration::from_micros(215));
        assert_eq!(f.erase_block(3, 7), Duration::from_millis(2));
        assert_eq!(f.erase_count(3, 7), 1);
        assert_eq!(f.erase_count(0, 0), 0);
        assert_eq!((f.reads(), f.programs(), f.erases()), (1, 1, 1));
    }

    #[test]
    fn line_reads_pay_full_read_latency_plus_controller() {
        let mut f = FlashArray::new(FlashConfig::default());
        assert_eq!(
            f.line_access(123, AccessKind::Read),
            Duration::from_micros(25)
        );
    }

    #[test]
    fn line_writes_pay_a_full_program() {
        let mut f = FlashArray::new(FlashConfig::default());
        assert_eq!(
            f.line_access(0, AccessKind::Write),
            Duration::from_micros(215)
        );
        assert_eq!(f.programs(), 1);
    }

    #[test]
    fn wear_spread_tracks_erases() {
        let mut f = FlashArray::new(FlashConfig::default());
        assert_eq!(f.wear_spread(), (0, 0));
        for _ in 0..5 {
            f.erase_block(0, 0);
        }
        assert_eq!(f.wear_spread(), (0, 5));
    }

    #[test]
    #[should_panic(expected = "plane out of range")]
    fn out_of_range_plane_panics() {
        let mut f = FlashArray::new(FlashConfig::default());
        f.erase_block(16, 0);
    }

    #[test]
    fn flash_power_is_an_order_cheaper_than_dram() {
        let f = FlashArray::new(FlashConfig::default());
        // Table 1: 6 mW/(GB/s) vs DRAM's 210 mW/(GB/s).
        assert!((f.active_power_w(1.0) - 0.006).abs() < 1e-12);
    }
}
