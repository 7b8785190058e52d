//! Figures 7 and 8: whole-server density vs. throughput and power vs.
//! throughput for every Mercury-n / Iridium-n configuration at 64 B GETs.

use crate::experiments::evaluation::{ConfigEval, Family};
use crate::report::TextTable;

/// One bar pair of Fig. 7 or Fig. 8.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TradeoffPoint {
    /// Core label.
    pub core: String,
    /// `Mercury-n` / `Iridium-n`.
    pub config: String,
    /// Density, GB (Fig. 7's left axis).
    pub density_gb: f64,
    /// Wall power at 64 B, watts (Fig. 8's left axis).
    pub power_w: f64,
    /// Millions of TPS at 64 B (the right axis of both).
    pub mtps: f64,
}

/// A rendered figure panel (7a/7b or 8a/8b).
#[derive(Debug, Clone)]
pub struct TradeoffFigure {
    /// Panel title.
    pub name: String,
    /// Points, grouped by core label in Table 3 column order.
    pub(crate) points: Vec<TradeoffPoint>,
}

impl TradeoffFigure {
    /// Renders the panel as a table.
    pub fn table(&self, density_axis: bool) -> TextTable {
        let mut t = TextTable::new(vec![
            "core".into(),
            "config".into(),
            if density_axis {
                "density (GB)".into()
            } else {
                "power (W)".into()
            },
            "TPS @64B (M)".into(),
        ])
        .with_title(&self.name);
        for p in &self.points {
            t.row(vec![
                p.core.clone(),
                p.config.clone(),
                if density_axis {
                    format!("{:.0}", p.density_gb)
                } else {
                    format!("{:.0}", p.power_w)
                },
                format!("{:.2}", p.mtps),
            ]);
        }
        t
    }
}

fn collect(evals: &[ConfigEval], family: Family, name: &str) -> TradeoffFigure {
    TradeoffFigure {
        name: name.to_owned(),
        points: evals
            .iter()
            .filter(|e| e.family == family)
            .map(|e| TradeoffPoint {
                core: e.core_label.clone(),
                config: format!("{}-{}", e.family.name(), e.n),
                density_gb: e.at_64b.memory_gb,
                power_w: e.at_64b.power_w,
                mtps: e.at_64b.tps / 1e6,
            })
            .collect(),
    }
}

/// Figure 7: density vs. TPS (panels a = Mercury, b = Iridium).
pub fn fig7(evals: &[ConfigEval]) -> (TradeoffFigure, TradeoffFigure) {
    (
        collect(
            evals,
            Family::Mercury,
            "Fig. 7a — Mercury density vs. TPS @64B",
        ),
        collect(
            evals,
            Family::Iridium,
            "Fig. 7b — Iridium density vs. TPS @64B",
        ),
    )
}

/// Figure 8: power vs. TPS (panels a = Mercury, b = Iridium).
pub fn fig8(evals: &[ConfigEval]) -> (TradeoffFigure, TradeoffFigure) {
    (
        collect(
            evals,
            Family::Mercury,
            "Fig. 8a — Mercury power vs. TPS @64B",
        ),
        collect(
            evals,
            Family::Iridium,
            "Fig. 8b — Iridium power vs. TPS @64B",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::evaluation::evaluate_a7;
    use crate::sweep::SweepEffort;
    use densekv_par::Jobs;

    #[test]
    fn a7_density_holds_while_tps_scales() {
        // Fig. 7's A7 panel: density stays near the port-cap maximum for
        // every n while TPS climbs with n.
        let evals = evaluate_a7(SweepEffort::quick(), Jobs::SERIAL);
        let (mercury, iridium) = fig7(&evals);
        assert_eq!(mercury.points.len(), 6);
        assert_eq!(iridium.points.len(), 6);

        let first = &mercury.points[0];
        let last = &mercury.points[5];
        assert!(last.mtps > first.mtps * 20.0, "TPS scales ~32x");
        assert!(
            last.density_gb > first.density_gb * 0.9,
            "A7 density barely drops at n=32"
        );

        // Iridium density dwarfs Mercury's at every n.
        for (m, i) in mercury.points.iter().zip(iridium.points.iter()) {
            assert!(i.density_gb > 4.0 * m.density_gb);
        }
    }

    #[test]
    fn fig8_power_grows_with_cores() {
        let evals = evaluate_a7(SweepEffort::quick(), Jobs::SERIAL);
        let (mercury, _) = fig8(&evals);
        let p1 = mercury.points[0].power_w;
        let p32 = mercury.points[5].power_w;
        assert!(p32 > p1 * 1.5, "more cores, more power: {p1} -> {p32}");
        let t = mercury.table(false);
        assert!(t.to_string().contains("power (W)"));
    }
}
