//! The 3D-stacked DRAM device used by Mercury stacks.
//!
//! Organization follows the paper's Figure 3: eight 512 MB DRAM dies are
//! stacked on a logic die; the stack exposes **16 independent 128-bit
//! ports**, each serving a private 256 MB address space of **8 banks ×
//! 32 MB**. Each bank is a 64×64 matrix of 256×256-bit subarrays; all
//! subarrays in a vertical stack share one row buffer, so a physical page
//! ("row") is 8 kilobits (1 KiB) and at most 2,048 pages can be open per
//! stack. The device sustains 6.25 GB/s per port (100 GB/s per stack) and,
//! per §4.1.3, has an 11-cycle closed-page latency at 1 GHz (we default to
//! the paper's 10 ns sweep point).

use densekv_sim::Duration;

use crate::{stream_per_line, AccessKind, MemoryTiming, PagePolicy, LINE_BYTES};

/// Bytes in one 512 MB DRAM die layer.
const LAYER_BYTES: u64 = 512 << 20;

/// Geometry and timing of a 3D DRAM stack.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of stacked DRAM dies (paper: 8).
    pub layers: u32,
    /// Independent data ports (paper: 16).
    pub ports: u32,
    /// Banks behind each port (paper: 8 × 32 MB).
    pub banks_per_port: u32,
    /// Bytes in one physical row / page (paper: 8 kb = 1 KiB).
    pub row_bytes: u64,
    /// Array access latency with a closed row (paper sweep: 10–100 ns).
    pub closed_page_latency: Duration,
    /// Row-buffer hit latency under the open-page ablation policy.
    pub row_hit_latency: Duration,
    /// Sustained bandwidth per port, GB/s (paper: 6.25).
    pub port_bandwidth_gbps: f64,
    /// Row-buffer policy (paper default: closed).
    pub page_policy: PagePolicy,
    /// Active power per GB/s of sustained bandwidth, milliwatts
    /// (Table 1: 210 mW/(GB/s)).
    pub active_mw_per_gbps: f64,
}

impl DramConfig {
    /// The paper's Mercury DRAM stack at the given closed-page latency.
    pub fn mercury(closed_page_latency: Duration) -> Self {
        DramConfig {
            layers: 8,
            ports: 16,
            banks_per_port: 8,
            row_bytes: 1024,
            closed_page_latency,
            row_hit_latency: Duration::from_nanos(2),
            port_bandwidth_gbps: 6.25,
            page_policy: PagePolicy::Closed,
            active_mw_per_gbps: 210.0,
        }
    }

    /// A conventional DDR3-1333 DIMM interface with the same capacity —
    /// the counterfactual for the 3D-stacking ablation: two shared
    /// channels instead of 16 ports, DIMM-class closed-page latency, and
    /// Table 2's 10.7 GB/s split across the channels.
    pub fn ddr3_like() -> Self {
        DramConfig {
            layers: 8,
            ports: 2,
            banks_per_port: 8,
            row_bytes: 8192,
            closed_page_latency: Duration::from_nanos(60),
            row_hit_latency: Duration::from_nanos(15),
            port_bandwidth_gbps: 10.7 / 2.0,
            page_policy: PagePolicy::Closed,
            active_mw_per_gbps: 350.0,
        }
    }

    /// Total stack capacity in bytes (`layers × 512 MB`).
    pub fn capacity_bytes(&self) -> u64 {
        self.layers as u64 * LAYER_BYTES
    }

    /// Capacity in whole gigabytes.
    pub fn capacity_gb(&self) -> u64 {
        self.capacity_bytes() >> 30
    }

    /// Bytes of address space behind one port.
    pub(crate) fn port_bytes(&self) -> u64 {
        self.capacity_bytes() / self.ports as u64
    }

    /// Bytes in one bank.
    pub(crate) fn bank_bytes(&self) -> u64 {
        self.port_bytes() / self.banks_per_port as u64
    }

    /// Time for one 64 B line transfer on a port, excluding array access.
    pub(crate) fn line_transfer_time(&self) -> Duration {
        Duration::from_nanos_f64(LINE_BYTES as f64 / self.port_bandwidth_gbps)
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::mercury(Duration::from_nanos(10))
    }
}

/// Where an address lands inside the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DramLocation {
    /// Port index in `0..ports`.
    pub port: u32,
    /// Bank index within the port, `0..banks_per_port`.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
}

/// A 3D-stacked DRAM device with per-bank row-buffer state and
/// bandwidth accounting.
///
/// # Examples
///
/// ```
/// use densekv_mem::dram::{DramConfig, DramStack};
/// use densekv_mem::{AccessKind, MemoryTiming};
/// use densekv_sim::Duration;
///
/// let mut dram = DramStack::new(DramConfig::default());
/// let latency = dram.line_access(0, AccessKind::Read);
/// // 10 ns closed-page access + 10.24 ns transfer of a 64 B line.
/// assert_eq!(latency, Duration::from_ps(20_240));
/// assert_eq!(dram.bytes_moved(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct DramStack {
    config: DramConfig,
    /// Open row per (port, bank); `None` = all rows closed.
    open_rows: Vec<Option<u64>>,
    bytes_moved: u64,
    row_hits: u64,
    row_misses: u64,
    per_port_bytes: Vec<u64>,
    /// `closed_page_latency + line_transfer_time()`, precomputed so the
    /// closed-page path never re-derives a float division per access.
    closed_access: Duration,
    /// `row_hit_latency + line_transfer_time()`, for open-page hits.
    row_hit_access: Duration,
    /// `(capacity_lines - 1, log2(port_lines))` when the whole geometry
    /// is power-of-two sized, letting [`Self::line_access`] find the
    /// port with a mask and a shift instead of the div/mod chain in
    /// [`Self::decode`]. `None` falls back to full decode.
    pow2_ports: Option<(u64, u32)>,
}

impl DramStack {
    /// Creates a stack from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero ports, banks, or layers.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.ports > 0 && config.banks_per_port > 0 && config.layers > 0);
        let nbanks = (config.ports * config.banks_per_port) as usize;
        let capacity_lines = config.capacity_bytes() / LINE_BYTES;
        let port_lines = config.port_bytes() / LINE_BYTES;
        let pow2_ports = (capacity_lines.is_power_of_two() && port_lines.is_power_of_two())
            .then(|| (capacity_lines - 1, port_lines.trailing_zeros()));
        DramStack {
            open_rows: vec![None; nbanks],
            per_port_bytes: vec![0; config.ports as usize],
            bytes_moved: 0,
            row_hits: 0,
            row_misses: 0,
            closed_access: config.closed_page_latency + config.line_transfer_time(),
            row_hit_access: config.row_hit_latency + config.line_transfer_time(),
            pow2_ports,
            config,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Maps a line address (64 B units) onto port, bank, and row.
    ///
    /// The port is the top-level split (each core's Memcached instance owns
    /// whole ports, §4.1.2), so consecutive lines stay within a port.
    pub(crate) fn decode(&self, line_addr: u64) -> DramLocation {
        let byte_addr = (line_addr * LINE_BYTES) % self.config.capacity_bytes();
        let port = (byte_addr / self.config.port_bytes()) as u32;
        let in_port = byte_addr % self.config.port_bytes();
        let bank = (in_port / self.config.bank_bytes()) as u32;
        let in_bank = in_port % self.config.bank_bytes();
        let row = in_bank / self.config.row_bytes;
        DramLocation { port, bank, row }
    }

    /// Row-buffer hits observed so far (open-page policy only).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer misses (or all accesses, under the closed policy).
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Bytes moved through one port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn port_bytes_moved(&self, port: u32) -> u64 {
        self.per_port_bytes[port as usize]
    }
}

impl MemoryTiming for DramStack {
    fn line_access(&mut self, line_addr: u64, _kind: AccessKind) -> Duration {
        // Closed-page accesses touch no row-buffer state and need only
        // the port index, which power-of-two geometries yield with a
        // mask and shift. (Masking line units is exact even when
        // `line_addr * LINE_BYTES` would wrap: 2^64 is a multiple of a
        // power-of-two capacity.)
        if self.config.page_policy == PagePolicy::Closed {
            if let Some((cap_mask, port_shift)) = self.pow2_ports {
                self.row_misses += 1;
                self.bytes_moved += LINE_BYTES;
                self.per_port_bytes[((line_addr & cap_mask) >> port_shift) as usize] += LINE_BYTES;
                return self.closed_access;
            }
        }
        let loc = self.decode(line_addr);
        let bank_idx = (loc.port * self.config.banks_per_port + loc.bank) as usize;
        let access = match self.config.page_policy {
            PagePolicy::Closed => {
                self.row_misses += 1;
                self.closed_access
            }
            PagePolicy::Open => {
                if self.open_rows[bank_idx] == Some(loc.row) {
                    self.row_hits += 1;
                    self.row_hit_access
                } else {
                    self.row_misses += 1;
                    self.open_rows[bank_idx] = Some(loc.row);
                    self.closed_access
                }
            }
        };
        self.bytes_moved += LINE_BYTES;
        self.per_port_bytes[loc.port as usize] += LINE_BYTES;
        access
    }

    /// Closed-page lines all cost `closed_access` and keep no row state,
    /// so a run is `lines` equal addends plus per-port byte counts, one
    /// step per port the run crosses. Open-page rows (and odd-sized
    /// geometries) take the per-line walk.
    fn stream_access(
        &mut self,
        start_line: u64,
        lines: u64,
        kind: AccessKind,
        scale: f64,
    ) -> Duration {
        let (PagePolicy::Closed, Some((cap_mask, port_shift))) =
            (self.config.page_policy, self.pow2_ports)
        else {
            return stream_per_line(self, start_line, lines, kind, scale);
        };
        self.row_misses += lines;
        self.bytes_moved += LINE_BYTES * lines;
        let port_lines = 1u64 << port_shift;
        let (mut line, mut left) = (start_line, lines);
        while left > 0 {
            let in_capacity = line & cap_mask;
            let chunk = left.min(port_lines - (in_capacity & (port_lines - 1)));
            self.per_port_bytes[(in_capacity >> port_shift) as usize] += LINE_BYTES * chunk;
            line = line.wrapping_add(chunk);
            left -= chunk;
        }
        (self.closed_access * scale) * lines
    }

    fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    fn reset_counters(&mut self) {
        self.bytes_moved = 0;
        self.row_hits = 0;
        self.row_misses = 0;
        self.per_port_bytes.iter_mut().for_each(|b| *b = 0);
    }

    fn active_power_w(&self, gb_per_s: f64) -> f64 {
        self.config.active_mw_per_gbps * gb_per_s / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mercury_geometry_matches_paper() {
        let c = DramConfig::default();
        assert_eq!(c.capacity_gb(), 4);
        assert_eq!(c.port_bytes(), 256 << 20);
        assert_eq!(c.bank_bytes(), 32 << 20);
        assert_eq!(c.port_bandwidth_gbps * c.ports as f64, 100.0);
    }

    #[test]
    fn max_open_pages_matches_paper() {
        // 128 pages per bank x 16 banks per layer = 2,048 (paper §4.1.1).
        // All subarrays in a vertical stack share one row buffer, so each
        // group of 256 rows (one subarray's worth) exposes a single open
        // page; a 32 MB bank therefore holds 32 Ki rows / 256 = 128 pages.
        let c = DramConfig::default();
        let pages_per_bank = c.bank_bytes() / c.row_bytes / 256;
        assert_eq!(pages_per_bank * c.ports as u64, 2048);
    }

    #[test]
    fn decode_splits_ports_then_banks() {
        let dram = DramStack::new(DramConfig::default());
        let lines_per_port = (256u64 << 20) / LINE_BYTES;
        let a = dram.decode(0);
        assert_eq!((a.port, a.bank, a.row), (0, 0, 0));
        let b = dram.decode(lines_per_port);
        assert_eq!(b.port, 1);
        let c = dram.decode(lines_per_port - 1);
        assert_eq!(c.port, 0);
        assert_eq!(c.bank, 7);
    }

    #[test]
    fn decode_wraps_at_capacity() {
        let dram = DramStack::new(DramConfig::default());
        let total_lines = (4u64 << 30) / LINE_BYTES;
        assert_eq!(dram.decode(total_lines), dram.decode(0));
    }

    #[test]
    fn closed_page_always_pays_full_latency() {
        let mut dram = DramStack::new(DramConfig::default());
        let t1 = dram.line_access(0, AccessKind::Read);
        let t2 = dram.line_access(0, AccessKind::Read); // same row
        assert_eq!(t1, t2);
        assert_eq!(dram.row_hits(), 0);
        assert_eq!(dram.row_misses(), 2);
    }

    #[test]
    fn open_page_hits_are_faster() {
        let cfg = DramConfig {
            page_policy: PagePolicy::Open,
            ..DramConfig::default()
        };
        let mut dram = DramStack::new(cfg);
        let miss = dram.line_access(0, AccessKind::Read);
        let hit = dram.line_access(1, AccessKind::Read); // same 1 KiB row
        assert!(hit < miss);
        assert_eq!(dram.row_hits(), 1);
        // A distant line in the same bank closes the row.
        let far = dram.line_access(1_000_000, AccessKind::Read);
        assert_eq!(far, miss);
    }

    #[test]
    fn bandwidth_accounting_per_port() {
        let mut dram = DramStack::new(DramConfig::default());
        let lines_per_port = (256u64 << 20) / LINE_BYTES;
        dram.line_access(0, AccessKind::Read);
        dram.line_access(lines_per_port, AccessKind::Write);
        dram.line_access(lines_per_port, AccessKind::Read);
        assert_eq!(dram.bytes_moved(), 192);
        assert_eq!(dram.port_bytes_moved(0), 64);
        assert_eq!(dram.port_bytes_moved(1), 128);
        dram.reset_counters();
        assert_eq!(dram.bytes_moved(), 0);
        assert_eq!(dram.port_bytes_moved(1), 0);
    }

    #[test]
    fn power_tracks_table1() {
        let dram = DramStack::new(DramConfig::default());
        // Table 1: 210 mW per GB/s.
        assert!((dram.active_power_w(1.0) - 0.210).abs() < 1e-12);
        assert!((dram.active_power_w(6.25) - 1.3125).abs() < 1e-12);
    }

    #[test]
    fn latency_sweep_monotone() {
        for (lo, hi) in [(10u64, 30u64), (30, 50), (50, 100)] {
            let mut a = DramStack::new(DramConfig::mercury(Duration::from_nanos(lo)));
            let mut b = DramStack::new(DramConfig::mercury(Duration::from_nanos(hi)));
            assert!(
                a.line_access(0, AccessKind::Read) < b.line_access(0, AccessKind::Read),
                "{lo} ns should be faster than {hi} ns"
            );
        }
    }

    #[test]
    fn ddr3_counterfactual_is_strictly_worse_for_serving() {
        let stacked = DramConfig::default();
        let dimm = DramConfig::ddr3_like();
        assert!(dimm.closed_page_latency > stacked.closed_page_latency);
        let total = |c: &DramConfig| c.port_bandwidth_gbps * c.ports as f64;
        assert!(total(&dimm) < total(&stacked) / 5.0);
        assert_eq!(dimm.capacity_gb(), stacked.capacity_gb());
        let mut a = DramStack::new(stacked);
        let mut b = DramStack::new(dimm);
        assert!(b.line_access(0, AccessKind::Read) > a.line_access(0, AccessKind::Read) * 2);
    }
}
