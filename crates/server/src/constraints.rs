//! The 1.5U chassis constraints (§5.4–§5.6).

/// Physical and electrical limits of the 1.5U server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConstraints {
    /// Power-supply rating, watts (HP 750 W common-slot unit).
    pub(crate) supply_w: f64,
    /// Power reserved for disk, motherboard, fans, etc., watts.
    pub(crate) base_overhead_w: f64,
    /// Fraction of the remaining power deliverable to components after
    /// conversion/delivery losses (the paper's conservative 20 % margin).
    pub(crate) delivery_efficiency: f64,
    /// Ethernet ports that fit the back panel.
    pub(crate) max_ports: u32,
    /// Motherboard edge, millimetres (13 inches).
    pub(crate) board_edge_mm: f64,
    /// Fraction of the board usable for stacks and PHYs.
    pub(crate) usable_board_fraction: f64,
}

impl ServerConstraints {
    /// The paper's 1.5U configuration.
    pub fn paper_1p5u() -> Self {
        ServerConstraints {
            supply_w: 750.0,
            base_overhead_w: 160.0,
            delivery_efficiency: 0.8,
            max_ports: 96,
            board_edge_mm: 330.2,
            usable_board_fraction: 0.77,
        }
    }

    /// Watts available to stacks + PHYs:
    /// `(750 − 160) × 0.8 = 472 W`.
    pub(crate) fn component_budget_w(&self) -> f64 {
        (self.supply_w - self.base_overhead_w) * self.delivery_efficiency
    }

    /// Converts component power back to wall power as the paper reports
    /// it: `components / efficiency + overhead`.
    pub fn wall_power_w(&self, component_w: f64) -> f64 {
        component_w / self.delivery_efficiency + self.base_overhead_w
    }

    /// Usable board area, mm².
    pub(crate) fn usable_board_mm2(&self) -> f64 {
        self.board_edge_mm * self.board_edge_mm * self.usable_board_fraction
    }

    /// Stacks that fit the board, each with half a dual-PHY package
    /// (§5.5: works out to ~128).
    pub(crate) fn max_stacks_by_area(&self) -> u32 {
        (self.usable_board_mm2() / densekv_stack::area::board_footprint_mm2()).floor() as u32
    }
}

impl Default for ServerConstraints {
    fn default() -> Self {
        ServerConstraints::paper_1p5u()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_budget_matches_paper() {
        let c = ServerConstraints::paper_1p5u();
        assert!((c.component_budget_w() - 472.0).abs() < 1e-9);
    }

    #[test]
    fn wall_power_roundtrip() {
        let c = ServerConstraints::paper_1p5u();
        let wall = c.wall_power_w(c.component_budget_w());
        assert!((wall - 750.0).abs() < 1e-9);
        assert!((c.wall_power_w(0.0) - 160.0).abs() < 1e-9);
    }

    #[test]
    fn board_fits_about_128_stacks() {
        let c = ServerConstraints::paper_1p5u();
        // 13 in x 13 in = 1089 cm²; 77% over 661.5 mm² per stack ≈ 126.
        let n = c.max_stacks_by_area();
        assert!(
            (120..=130).contains(&n),
            "expected ≈128 stacks by area, got {n}"
        );
        assert!(n > c.max_ports, "area never binds before the port cap");
    }

    #[test]
    fn port_cap_is_96() {
        assert_eq!(ServerConstraints::paper_1p5u().max_ports, 96);
    }
}
