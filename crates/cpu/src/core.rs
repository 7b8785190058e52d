//! Core configurations: ARM Cortex-A7 and Cortex-A15 as modeled in the
//! paper's gem5 experiments, with power and area from Table 1.

use densekv_sim::Duration;

/// Which microarchitecture a core uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CoreKind {
    /// In-order, dual-issue Cortex-A7.
    CortexA7,
    /// Out-of-order Cortex-A15.
    CortexA15,
}

impl core::fmt::Display for CoreKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreKind::CortexA7 => write!(f, "A7"),
            CoreKind::CortexA15 => write!(f, "A15"),
        }
    }
}

/// A core's timing, power, and area parameters.
///
/// The timing parameters are the effective values a full-system simulation
/// exhibits on the Memcached + kernel-network code mix — not peak
/// datasheet numbers. Calibration targets are listed in DESIGN.md.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Microarchitecture.
    pub(crate) kind: CoreKind,
    /// Clock frequency, GHz.
    pub(crate) freq_ghz: f64,
    /// Effective committed instructions per cycle on this workload.
    pub(crate) ipc: f64,
    /// Memory-level parallelism: how many demand misses the core overlaps
    /// (1.0 for the in-order A7).
    pub(crate) mlp: f64,
    /// Overlap factor for sequential (streaming) transfers, where the
    /// prefetcher can run ahead.
    pub(crate) stream_mlp: f64,
    /// Core power, milliwatts (Table 1).
    pub power_mw: f64,
    /// Core area, mm² in 28 nm (Table 1).
    pub area_mm2: f64,
}

impl CoreConfig {
    /// Cortex-A7 at 1 GHz (Table 1: 100 mW, 0.58 mm²).
    pub fn a7_1ghz() -> Self {
        CoreConfig {
            kind: CoreKind::CortexA7,
            freq_ghz: 1.0,
            ipc: 0.70,
            mlp: 1.0,
            stream_mlp: 2.0,
            power_mw: 100.0,
            area_mm2: 0.58,
        }
    }

    /// Cortex-A15 at 1 GHz (Table 1: 600 mW, 2.82 mm²).
    pub fn a15_1ghz() -> Self {
        CoreConfig {
            kind: CoreKind::CortexA15,
            freq_ghz: 1.0,
            ipc: 2.0,
            mlp: 3.0,
            stream_mlp: 4.0,
            power_mw: 600.0,
            area_mm2: 2.82,
        }
    }

    /// Cortex-A15 at 1.5 GHz (Table 1: 1,000 mW, 2.82 mm²).
    pub fn a15_1p5ghz() -> Self {
        CoreConfig {
            freq_ghz: 1.5,
            power_mw: 1000.0,
            ..CoreConfig::a15_1ghz()
        }
    }

    /// Time to commit `instructions` with no memory stalls.
    pub(crate) fn instruction_time(&self, instructions: u64) -> Duration {
        Duration::from_nanos_f64(instructions as f64 / (self.ipc * self.freq_ghz))
    }

    /// Short label like `A7 @1GHz` used in reports.
    pub fn label(&self) -> String {
        format!("{} @{}GHz", self.kind, self.freq_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_power_and_area() {
        assert_eq!(CoreConfig::a7_1ghz().power_mw, 100.0);
        assert_eq!(CoreConfig::a7_1ghz().area_mm2, 0.58);
        assert_eq!(CoreConfig::a15_1ghz().power_mw, 600.0);
        assert_eq!(CoreConfig::a15_1p5ghz().power_mw, 1000.0);
        assert_eq!(CoreConfig::a15_1p5ghz().area_mm2, 2.82);
    }

    #[test]
    fn instruction_time_scales_with_ipc_and_freq() {
        let a7 = CoreConfig::a7_1ghz();
        let a15 = CoreConfig::a15_1ghz();
        let fast15 = CoreConfig::a15_1p5ghz();
        let n = 10_000;
        assert!(a15.instruction_time(n) < a7.instruction_time(n));
        assert!(fast15.instruction_time(n) < a15.instruction_time(n));
        // A15 @1 GHz: 10k instructions at IPC 2.0 = 5 us.
        assert_eq!(a15.instruction_time(n), Duration::from_micros(5));
    }

    #[test]
    fn a7_has_no_miss_overlap() {
        assert_eq!(CoreConfig::a7_1ghz().mlp, 1.0);
        assert!(CoreConfig::a15_1ghz().mlp > 1.0);
    }

    #[test]
    fn labels() {
        assert_eq!(CoreConfig::a7_1ghz().label(), "A7 @1GHz");
        assert_eq!(CoreConfig::a15_1p5ghz().label(), "A15 @1.5GHz");
    }
}
