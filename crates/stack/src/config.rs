//! Stack configuration: `Mercury-n`, `Iridium-n`, and `Helios-n`.

use densekv_cpu::CoreConfig;
use densekv_hybrid::HybridConfig;
use densekv_mem::dram::DramConfig;
use densekv_mem::flash::FlashConfig;
use densekv_sim::Duration;

/// Which memory technology the stack carries.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryKind {
    /// Mercury: 8-layer 3D DRAM.
    Mercury(DramConfig),
    /// Iridium: monolithic p-BiCS NAND flash.
    Iridium(FlashConfig),
    /// Helios: a DRAM tier caching pages of an Iridium flash array.
    Hybrid(HybridConfig),
}

impl MemoryKind {
    /// Capacity in bytes. A hybrid stack's capacity is its flash
    /// array's: the DRAM tier is a cache, not addressable space.
    pub fn capacity_bytes(&self) -> u64 {
        match self {
            MemoryKind::Mercury(d) => d.capacity_bytes(),
            MemoryKind::Iridium(f) => f.capacity_bytes(),
            MemoryKind::Hybrid(h) => h.flash.capacity_bytes(),
        }
    }

    /// Independent memory ports/controllers on the stack.
    pub fn ports(&self) -> u32 {
        match self {
            MemoryKind::Mercury(d) => d.ports,
            MemoryKind::Iridium(f) => f.planes,
            MemoryKind::Hybrid(h) => h.dram_ports,
        }
    }

    /// Active power coefficient, mW per GB/s (Table 1). For hybrid
    /// stacks this is the DRAM rate — the conservative single-rate
    /// headline; [`crate::power::tier_rates`] splits the two tiers.
    pub fn active_mw_per_gbps(&self) -> f64 {
        match self {
            MemoryKind::Mercury(d) => d.active_mw_per_gbps,
            MemoryKind::Iridium(f) => f.active_mw_per_gbps,
            MemoryKind::Hybrid(h) => h.dram_active_mw_per_gbps,
        }
    }

    /// Capacity in the paper's reporting units: DRAM is quoted in binary
    /// gigabytes ("4 GB" = 4 GiB), flash in decimal ("19.8 GB"), so Table
    /// 3/4 density columns reproduce exactly. Helios inherits flash's
    /// decimal convention (its store lives on flash).
    pub fn nominal_capacity_gb(&self) -> f64 {
        match self {
            MemoryKind::Mercury(d) => d.capacity_gb() as f64,
            MemoryKind::Iridium(f) => f.capacity_gb(),
            MemoryKind::Hybrid(h) => h.flash.capacity_gb(),
        }
    }

    /// Architecture name as the paper uses it.
    pub fn family(&self) -> &'static str {
        match self {
            MemoryKind::Mercury(_) => "Mercury",
            MemoryKind::Iridium(_) => "Iridium",
            MemoryKind::Hybrid(_) => "Helios",
        }
    }
}

/// Errors from stack-configuration validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackConfigError {
    /// Zero cores requested.
    NoCores,
    /// More than two cores would share one memory port (§4.1.2/§5.3 cap
    /// the design at 32 cores over 16 ports).
    TooManyCoresPerPort {
        /// Requested core count.
        cores: u32,
        /// Available ports.
        ports: u32,
    },
}

impl core::fmt::Display for StackConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackConfigError::NoCores => write!(f, "a stack needs at least one core"),
            StackConfigError::TooManyCoresPerPort { cores, ports } => write!(
                f,
                "{cores} cores exceed 2x the {ports} memory ports available"
            ),
        }
    }
}

impl std::error::Error for StackConfigError {}

/// A fully specified stack: `Mercury-n` or `Iridium-n` with a core type.
///
/// # Examples
///
/// ```
/// use densekv_stack::StackConfig;
/// use densekv_cpu::CoreConfig;
///
/// let stack = StackConfig::mercury(CoreConfig::a7_1ghz(), 32, true)?;
/// assert_eq!(stack.name(), "Mercury-32");
/// assert_eq!(stack.memory.ports(), 16); // two cores per port at n=32
/// # Ok::<(), densekv_stack::config::StackConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StackConfig {
    /// Memory technology and geometry.
    pub memory: MemoryKind,
    /// Core model.
    pub core: CoreConfig,
    /// Cores on the logic die.
    pub cores: u32,
    /// Whether each core has a 2 MB L2.
    pub l2: bool,
}

impl StackConfig {
    /// A Mercury stack with the default 10 ns DRAM.
    ///
    /// # Errors
    ///
    /// Validation errors from [`StackConfig::new`].
    pub fn mercury(core: CoreConfig, cores: u32, l2: bool) -> Result<Self, StackConfigError> {
        StackConfig::new(
            MemoryKind::Mercury(DramConfig::mercury(Duration::from_nanos(10))),
            core,
            cores,
            l2,
        )
    }

    /// An Iridium stack with the default 10 µs flash reads. Iridium
    /// requires an L2 (§4.2.1), so none is optional here.
    ///
    /// # Errors
    ///
    /// Validation errors from [`StackConfig::new`].
    pub fn iridium(core: CoreConfig, cores: u32) -> Result<Self, StackConfigError> {
        StackConfig::new(
            MemoryKind::Iridium(FlashConfig::iridium(Duration::from_micros(10))),
            core,
            cores,
            true,
        )
    }

    /// A Helios stack: a DRAM tier of `dram_tier_bytes` over the default
    /// Iridium flash array with 10 µs reads. Flash sits in the miss
    /// path, so like Iridium the L2 is mandatory (§4.2.1).
    ///
    /// # Errors
    ///
    /// Validation errors from [`StackConfig::new`].
    pub fn helios(
        core: CoreConfig,
        cores: u32,
        dram_tier_bytes: u64,
    ) -> Result<Self, StackConfigError> {
        StackConfig::new(
            MemoryKind::Hybrid(HybridConfig::helios(
                dram_tier_bytes,
                Duration::from_micros(10),
            )),
            core,
            cores,
            true,
        )
    }

    /// Builds and validates a configuration.
    ///
    /// # Errors
    ///
    /// [`StackConfigError::NoCores`] or
    /// [`StackConfigError::TooManyCoresPerPort`].
    pub fn new(
        memory: MemoryKind,
        core: CoreConfig,
        cores: u32,
        l2: bool,
    ) -> Result<Self, StackConfigError> {
        if cores == 0 {
            return Err(StackConfigError::NoCores);
        }
        let ports = memory.ports();
        if cores > 2 * ports {
            return Err(StackConfigError::TooManyCoresPerPort { cores, ports });
        }
        Ok(StackConfig {
            memory,
            core,
            cores,
            l2,
        })
    }

    /// `Mercury-n` / `Iridium-n`, as the paper names configurations.
    pub fn name(&self) -> String {
        format!("{}-{}", self.memory.family(), self.cores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_convention() {
        let m = StackConfig::mercury(CoreConfig::a7_1ghz(), 8, true).unwrap();
        assert_eq!(m.name(), "Mercury-8");
        let i = StackConfig::iridium(CoreConfig::a15_1ghz(), 16).unwrap();
        assert_eq!(i.name(), "Iridium-16");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(
            StackConfig::mercury(CoreConfig::a7_1ghz(), 0, true),
            Err(StackConfigError::NoCores)
        );
        assert_eq!(
            StackConfig::mercury(CoreConfig::a7_1ghz(), 33, true),
            Err(StackConfigError::TooManyCoresPerPort {
                cores: 33,
                ports: 16
            })
        );
    }

    #[test]
    fn helios_capacity_ports_and_name() {
        let s = StackConfig::helios(CoreConfig::a7_1ghz(), 32, 256 << 20).unwrap();
        assert_eq!(s.name(), "Helios-32");
        // Store capacity is the flash array's — denser than Mercury.
        assert!((s.memory.nominal_capacity_gb() - 19.8).abs() < 0.1);
        assert_eq!(s.memory.ports(), 16);
        assert!(s.l2, "Helios always carries an L2");
        // Headline rate is the DRAM tier's.
        assert_eq!(s.memory.active_mw_per_gbps(), 210.0);
        // Validation still caps cores at 2x the DRAM ports.
        assert!(StackConfig::helios(CoreConfig::a7_1ghz(), 33, 256 << 20).is_err());
    }

    #[test]
    fn iridium_capacity_and_ports() {
        let s = StackConfig::iridium(CoreConfig::a7_1ghz(), 32).unwrap();
        assert!((s.memory.capacity_bytes() as f64 / 1e9 - 19.8).abs() < 0.1);
        assert_eq!(s.memory.ports(), 16);
        assert!(s.l2, "Iridium always carries an L2");
        assert_eq!(s.memory.active_mw_per_gbps(), 6.0);
    }
}
