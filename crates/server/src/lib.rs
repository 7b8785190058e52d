//! The 1.5U server model: packing constraints, the stack-count solver,
//! and whole-server performance aggregation (§5.4–§5.6 of the paper).
//!
//! A 1.5U box imposes three independent caps on how many stacks it holds:
//!
//! * **power** — a 750 W supply, 160 W reserved for disk/motherboard, and
//!   a 20 % delivery margin leave (750 − 160) × 0.8 = 472 W for stacks,
//! * **area** — 77 % of a 13" × 13" motherboard for stacks and their
//!   dual-PHY chips (≈128 stacks),
//! * **ports** — at most 96 Ethernet ports fit the back panel, so 96
//!   stacks is the hard cap.
//!
//! [`fit`] solves for the stack count; [`model`] aggregates per-core
//! simulation results into the whole-server numbers Tables 3 and 4
//! report; [`fleet`] sizes whole deployments (servers, racks, kW) against
//! a dataset + rate demand — the paper's motivating arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod constraints;
pub mod fit;
pub mod fleet;
pub mod model;

pub use constraints::ServerConstraints;
pub use fit::{plan_server, ServerPlan};
pub use fleet::{plan_fleet, Demand};
pub use model::{evaluate_server, stack_working_point, PerCorePerf, ServerReport};
