//! Memory-device substrates for the Mercury, Iridium, and Helios stack
//! models.
//!
//! The paper's two architectures differ only in the memory technology
//! bonded to the logic die:
//!
//! * **Mercury** uses an 8-layer Tezzaron-style 3D-stacked DRAM
//!   ([`dram::DramStack`]) — 4 GB, 16 independent 128-bit ports at
//!   6.25 GB/s each, 11 ns closed-page latency.
//! * **Iridium** uses a monolithic 16-layer p-BiCS NAND flash
//!   ([`flash::FlashArray`]) — 19.8 GB behind 16 controllers, 10–20 µs
//!   reads and 200 µs programs, managed by a page-mapping FTL with
//!   wear-leveling ([`ftl::Ftl`]).
//!
//! A third, hybrid organization — **Helios**, a small DRAM tier caching
//! flash pages in front of the Iridium array — composes these substrates
//! and lives in the `densekv-hybrid` crate; this crate supplies the raw
//! devices and the [`ftl::Ftl::read_page_any`] fill path it builds on.
//!
//! All devices implement [`MemoryTiming`], the interface the CPU phase
//! engine uses to price individual cache-line transfers, and all account
//! bytes moved so the power model can convert achieved bandwidth into
//! watts (Table 1: DRAM 210 mW/(GB/s), flash 6 mW/(GB/s)).
//!
//! [`technology`] reproduces the paper's Table 2 catalog of DRAM
//! technologies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dram;
pub mod flash;
pub mod ftl;
pub mod sram;
pub mod technology;

use densekv_sim::Duration;

/// Cache-line size used throughout the workspace (bytes).
pub const LINE_BYTES: u64 = 64;

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read (line fill).
    Read,
    /// A write (line writeback / store).
    Write,
}

/// Row-buffer management policy.
///
/// The paper's memory model "assumes a closed-page latency for all
/// requests" (§5.2) as a worst case; the open-page policy is provided for
/// the row-buffer ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Every access pays the full array-access latency (paper default).
    #[default]
    Closed,
    /// Accesses that hit the currently open row pay only the row-buffer
    /// access time.
    Open,
}

/// Timing interface a memory device exposes to the core model.
///
/// [`line_access`](MemoryTiming::line_access) prices one cache-line
/// (64 B) transfer; [`stream_access`](MemoryTiming::stream_access) prices
/// a sequential run of them. Implementations also accumulate the bytes
/// moved so callers can derive sustained bandwidth and, from it, device
/// power.
pub trait MemoryTiming {
    /// Latency to move one line at `line_addr` (a *line* index, not a byte
    /// address) in the given direction.
    fn line_access(&mut self, line_addr: u64, kind: AccessKind) -> Duration;

    /// Prices the sequential run `start_line .. start_line + lines`:
    /// the sum of every line's latency, each multiplied by `scale` (the
    /// caller's reciprocal overlap) *before* summing.
    ///
    /// The contract is [`stream_per_line`], which is also the default.
    /// Devices whose lines all cost the same override it with the closed
    /// form `(latency * scale) * lines` — exact, because `Duration` is
    /// integer picoseconds and that product *is* `lines` equal addends —
    /// and must leave every counter and all internal state exactly where
    /// the per-line walk would.
    fn stream_access(
        &mut self,
        start_line: u64,
        lines: u64,
        kind: AccessKind,
        scale: f64,
    ) -> Duration {
        stream_per_line(self, start_line, lines, kind, scale)
    }

    /// Total bytes moved since construction or the last
    /// [`reset_counters`](MemoryTiming::reset_counters).
    fn bytes_moved(&self) -> u64;

    /// Resets the byte counter.
    fn reset_counters(&mut self);

    /// Active power (watts) when sustaining `gb_per_s` of bandwidth.
    fn active_power_w(&self, gb_per_s: f64) -> f64;

    /// Maximum outstanding-access overlap the device sustains for `kind`.
    /// The core model uses the minimum of this and its own memory-level
    /// parallelism. Defaults to unlimited (the core is the constraint);
    /// flash caps it at 1 (one command in flight per request stream, the
    /// paper's simple memory model).
    fn max_overlap(&self, _kind: AccessKind) -> f64 {
        f64::MAX
    }
}

/// The per-line walk that defines [`MemoryTiming::stream_access`]: one
/// [`line_access`](MemoryTiming::line_access) per line, scaled, then
/// summed. Stateful devices (open-page DRAM) price streams this way, and
/// the differential tests hold every closed form against it.
pub fn stream_per_line<M: MemoryTiming + ?Sized>(
    dev: &mut M,
    start_line: u64,
    lines: u64,
    kind: AccessKind,
    scale: f64,
) -> Duration {
    (0..lines)
        .map(|i| dev.line_access(start_line + i, kind) * scale)
        .sum()
}

/// Splits a byte count into the number of whole cache lines that cover it.
///
/// # Examples
///
/// ```
/// assert_eq!(densekv_mem::lines_for_bytes(1), 1);
/// assert_eq!(densekv_mem::lines_for_bytes(64), 1);
/// assert_eq!(densekv_mem::lines_for_bytes(65), 2);
/// assert_eq!(densekv_mem::lines_for_bytes(0), 0);
/// ```
pub const fn lines_for_bytes(bytes: u64) -> u64 {
    bytes.div_ceil(LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_for_bytes_boundaries() {
        assert_eq!(lines_for_bytes(0), 0);
        assert_eq!(lines_for_bytes(63), 1);
        assert_eq!(lines_for_bytes(64), 1);
        assert_eq!(lines_for_bytes(128), 2);
        assert_eq!(lines_for_bytes(1 << 20), 16_384);
    }
}
