//! The integrated NIC MAC on the stack's logic die.
//!
//! Per §4.1.4, the design forgoes a server-level router: each physical
//! 10 GbE port is tied to one stack, and the on-stack MAC (based on the
//! Niagara-2 integrated NIC) buffers each packet and forwards it to the
//! correct core. Cores on a stack run independent Memcached instances on
//! distinct TCP ports, so routing is a port-number lookup.

use densekv_sim::Duration;

/// MAC power from Table 1, milliwatts.
pub const POWER_MW: f64 = 120.0;

/// MAC + buffer area from Table 1, mm² (28 nm).
pub const AREA_MM2: f64 = 0.43;

/// Latency the MAC adds to one message: a store-and-forward of its first
/// frame through the MAC buffers. Buffering is cut-through after that,
/// so a message pays this once whatever its frame count.
pub const MAC_LATENCY: Duration = Duration::from_nanos(500);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        assert_eq!(POWER_MW, 120.0);
        assert_eq!(AREA_MM2, 0.43);
    }
}
