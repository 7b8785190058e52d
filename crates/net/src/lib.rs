//! Network-path models: Ethernet framing, the 10 GbE wire, the on-stack
//! NIC MAC, the off-stack PHY, and the TCP/IP software cost model.
//!
//! The paper finds that the network stack dominates Memcached request time
//! (Fig. 4: ~87 % of a small GET). This crate captures that path:
//!
//! * [`frame`] — MTU segmentation and per-frame wire overhead,
//! * [`wire`] — 10 GbE serialization and propagation delay,
//! * [`nic`] — the integrated MAC (store-and-forward buffers, based
//!   on the Niagara-2 NIC; Table 1: 120 mW, 0.43 mm²),
//! * [`phy`] — the off-stack Broadcom-style PHY (300 mW per port, two
//!   10 GbE PHYs per 441 mm² package),
//! * [`tcp`] — instruction/reference budgets for the kernel TCP/IP code
//!   paths, which the CPU phase engine turns into time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod meter;
pub mod nic;
pub mod phy;
pub mod tcp;
pub mod wire;

pub use frame::{frames_for_payload, wire_bytes_for_payload};
pub use meter::PortMeter;
pub use tcp::TcpCostModel;
pub use wire::Wire;
