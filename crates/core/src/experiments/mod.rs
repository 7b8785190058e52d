//! One runner per table and figure of the paper's evaluation.
//!
//! | Runner | Reproduces |
//! |---|---|
//! | [`tables::table1`] | Table 1 — component power/area |
//! | [`tables::table2`] | Table 2 — DRAM technology catalog |
//! | [`tables::table3`] | Table 3 — 1.5U maximum configurations |
//! | [`tables::table4`] | Table 4 — comparison to prior art |
//! | [`fig4::run`] | Fig. 4 — GET/PUT execution-time breakdown |
//! | [`fig56::fig5`] | Fig. 5 — Mercury-1 latency sensitivity |
//! | [`fig56::fig6`] | Fig. 6 — Iridium-1 latency sensitivity |
//! | [`fig78::fig7`] | Fig. 7 — density vs. throughput |
//! | [`fig78::fig8`] | Fig. 8 — power vs. throughput |
//! | [`headline::run`] | §6 headline multipliers vs. Bags |
//! | [`thermal::run`] | §6.5 cooling feasibility |
//! | [`sla::run`] | extension: latency under Poisson load |
//! | [`scaling::run`] | extension: event-driven check of §5.3 scaling |
//! | [`efficiency::run`] | extension: TPS/W across the full size sweep |
//! | [`hybrid::run`] | extension: Helios DRAM-tier size sweep |
//! | [`multiget::run`] | extension: multi-GET batching amortization |
//! | [`cluster::cluster_tail`] | extension: cluster-wide tail latency vs. load |
//! | [`cluster::cluster_failover`] | extension: stack-failure remap transient |
//! | [`ablations::run`] | the single-comparison claims (§3.3, §3.8, §5.2, §6.2, Table 2) with and without their feature |
//!
//! Each runner returns structured data plus ready-to-print
//! [`TextTable`](crate::report::TextTable)s; the subcommands of the
//! `densekv-bench` binary are thin wrappers over these.

pub mod ablations;
pub mod cluster;
pub mod efficiency;
pub mod evaluation;
pub mod fig4;
pub mod fig56;
pub mod fig78;
pub mod headline;
pub mod hybrid;
pub mod multiget;
pub mod scaling;
pub mod sla;
pub mod tables;
pub mod thermal;

pub use evaluation::evaluate_all;
