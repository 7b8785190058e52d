//! The component-tagged joule accumulator.

use densekv_sim::Duration;

use crate::rates::EnergyRates;

/// Where a joule went. The components partition stack energy — summing
/// all of them gives total energy without double counting (cache energy
/// is carved out of the core-active budget by the charging helpers, see
/// the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Core power while request phases execute on the core.
    CoreActive,
    /// Core power while the core waits (wire, client, NIC time).
    CoreIdle,
    /// L1 I/D dynamic access energy (attributed out of core-active).
    CacheL1,
    /// L2 dynamic access energy (attributed out of core-active).
    CacheL2,
    /// Power-gated L2 SRAM leakage.
    L2Leak,
    /// Memory-device line transfers and FTL work, per byte moved.
    Memory,
    /// NIC MAC while serializing frames.
    MacActive,
    /// NIC MAC idle draw.
    MacIdle,
    /// This stack's share of the off-stack 10 GbE PHY.
    Phy,
}

impl Component {
    /// Every component, in display order.
    pub const ALL: [Component; 9] = [
        Component::CoreActive,
        Component::CoreIdle,
        Component::CacheL1,
        Component::CacheL2,
        Component::L2Leak,
        Component::Memory,
        Component::MacActive,
        Component::MacIdle,
        Component::Phy,
    ];

    /// Stable display name (used in CSV headers).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Component::CoreActive => "core_active",
            Component::CoreIdle => "core_idle",
            Component::CacheL1 => "cache_l1",
            Component::CacheL2 => "cache_l2",
            Component::L2Leak => "l2_leak",
            Component::Memory => "memory",
            Component::MacActive => "mac_active",
            Component::MacIdle => "mac_idle",
            Component::Phy => "phy",
        }
    }

    /// Dense array index.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// A passive, component-tagged energy accumulator: one joule total per
/// [`Component`], starting at zero. Recording is an array add, so a
/// metered run differs from an unmetered one only by arithmetic on
/// counters the simulator already keeps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    joules: [f64; Component::ALL.len()],
}

impl EnergyMeter {
    /// Charges `joules` to `component`.
    pub fn charge_j(&mut self, component: Component, joules: f64) {
        self.joules[component.index()] += joules;
    }

    /// Charges a constant draw of `mw` milliwatts held for `duration`.
    pub fn charge_mw_for(&mut self, component: Component, mw: f64, duration: Duration) {
        self.charge_j(component, mw * 1e-3 * duration.as_secs_f64());
    }

    /// Charges per-level cache accesses *and* moves the same energy out
    /// of [`Component::CoreActive`], keeping the total invariant (the
    /// Table 1 core rate already includes its caches).
    pub fn attribute_cache(&mut self, rates: &EnergyRates, l1_accesses: u64, l2_accesses: u64) {
        let l1_j = rates.l1_pj_per_access * 1e-12 * l1_accesses as f64;
        let l2_j = rates.l2_pj_per_access * 1e-12 * l2_accesses as f64;
        self.charge_j(Component::CacheL1, l1_j);
        self.charge_j(Component::CacheL2, l2_j);
        self.charge_j(Component::CoreActive, -(l1_j + l2_j));
    }

    /// Joules accumulated by one component.
    #[must_use]
    pub fn component_j(&self, component: Component) -> f64 {
        self.joules[component.index()]
    }

    /// Total joules across all components.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.joules.iter().sum()
    }

    /// Mean power over `elapsed`, watts; `0.0` over an empty interval.
    #[must_use]
    pub fn mean_watts(&self, elapsed: Duration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs > 0.0 {
            self.total_j() / secs
        } else {
            0.0
        }
    }

    /// `(name, joules)` rows in [`Component::ALL`] order.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, f64); Component::ALL.len()] {
        let mut rows = [("", 0.0); Component::ALL.len()];
        for (row, c) in rows.iter_mut().zip(Component::ALL) {
            *row = (c.name(), self.joules[c.index()]);
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_component() {
        let mut m = EnergyMeter::default();
        m.charge_mw_for(Component::CoreActive, 100.0, Duration::from_millis(10));
        m.charge_mw_for(Component::CoreActive, 100.0, Duration::from_millis(10));
        m.charge_j(Component::Phy, 0.5);
        // 100 mW for 20 ms = 2 mJ.
        assert!((m.component_j(Component::CoreActive) - 2e-3).abs() < 1e-12);
        assert!((m.total_j() - 2e-3 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_attribution_preserves_the_total() {
        let rates = EnergyRates::mercury_a7(true);
        let mut m = EnergyMeter::default();
        m.charge_mw_for(
            Component::CoreActive,
            rates.core_active_mw,
            Duration::from_micros(50),
        );
        let before = m.total_j();
        m.attribute_cache(&rates, 10_000, 500);
        assert!(
            (m.total_j() - before).abs() < 1e-18,
            "attribution is zero-sum"
        );
        assert!(m.component_j(Component::CacheL1) > 0.0);
        assert!(m.component_j(Component::CacheL2) > 0.0);
        assert!(m.component_j(Component::CoreActive) < before);
    }

    #[test]
    fn mean_watts_and_rows() {
        let mut m = EnergyMeter::default();
        m.charge_j(Component::Memory, 2.0);
        assert_eq!(m.mean_watts(Duration::from_secs(4)), 0.5);
        assert_eq!(m.mean_watts(Duration::ZERO), 0.0);
        let rows = m.rows();
        assert_eq!(rows.len(), Component::ALL.len());
        assert!(rows.iter().any(|&(n, j)| n == "memory" && j == 2.0));
    }
}
