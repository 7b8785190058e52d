//! Event-driven energy accounting for the `densekv` simulators.
//!
//! The paper's efficiency story (Tables 3–4, TPS/Watt) rests on a
//! *static* power model: §5.4 sums Table 1's component powers at one
//! bandwidth working point. That answers "what does the nameplate say"
//! but not "where did the joules go while serving this workload" — the
//! question LaKe-style per-request energy accounting answers, and the
//! one that matters under Zipf skew, multiget fan-out, and failover
//! transients. This crate turns every simulated event into joules:
//!
//! * [`EnergyMeter`] — a component-tagged joule accumulator in the same
//!   passive style as `densekv-telemetry`: recording is an array add, and
//!   metering can never change a simulation's performance outputs
//!   (enforced by workspace property tests, which compare a metered run
//!   with one that builds no meter at all).
//! * [`EnergyRates`] — the rate constants that convert activity into
//!   energy, derived from the same Table 1 numbers the analytic
//!   `stack_power()` model uses. The derivation is exact: integrating
//!   event-driven power over a steady-state run reproduces the §5.4
//!   analytic wattage at the observed bandwidth (the workspace
//!   cross-check test holds this to within 1 %).
//! * [`PowerTimeline`] — fixed-width sim-time buckets of deposited
//!   joules rendered as a watts-vs-time curve, the instrument that makes
//!   failover power transients visible.
//!
//! # Attribution rules
//!
//! Components ([`Component`]) partition a stack's energy without double
//! counting:
//!
//! * Core power (Table 1: 100 mW per A7 …) is charged over *all* of
//!   simulated time, split between [`Component::CoreActive`] (request
//!   phases executing on the core) and [`Component::CoreIdle`]
//!   (wire/client time in a closed loop). Both sides use the same
//!   Table 1 rate — the paper charges cores as constant draw — so the
//!   split is attribution, not a new model.
//! * Per-access cache energy ([`Component::CacheL1`],
//!   [`Component::CacheL2`]) is *carved out of* the core-active budget
//!   at fixed pJ/access rates, leaving the total unchanged.
//! * Memory ([`Component::Memory`]) is charged per byte moved at the
//!   device: Table 1's mW/(GB/s) rate is numerically a pJ/byte rate, so
//!   `bytes × rate` integrates to exactly the analytic bandwidth term.
//! * The NIC MAC is constant draw split into
//!   [`Component::MacActive`]/[`Component::MacIdle`] by port busy time;
//!   the PHY share ([`Component::Phy`]) and L2 leakage
//!   ([`Component::L2Leak`]) are constant draw over elapsed time.
//!
//! # Examples
//!
//! ```
//! use densekv_energy::{Component, EnergyMeter, EnergyRates};
//! use densekv_sim::Duration;
//!
//! let rates = EnergyRates::mercury_a7(true);
//! let mut meter = EnergyMeter::default();
//! // One core busy for 100 us, 6400 bytes at the DRAM:
//! meter.charge_mw_for(Component::CoreActive, rates.core_active_mw, Duration::from_micros(100));
//! meter.charge_j(Component::Memory, rates.mem_j_per_byte() * 6400.0);
//! assert!(meter.total_j() > 0.0);
//! // DRAM at 210 mW/(GB/s) == 210 pJ/B: 6400 B = 1.344 nJ.
//! assert!((meter.component_j(Component::Memory) - 6400.0 * 210e-12).abs() < 1e-18);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meter;
pub mod rates;
pub mod timeline;

pub use meter::{Component, EnergyMeter};
pub use rates::EnergyRates;
pub use timeline::PowerTimeline;
