//! The integrated NIC MAC on the stack's logic die.
//!
//! Per §4.1.4, the design forgoes a server-level router: each physical
//! 10 GbE port is tied to one stack, and the on-stack MAC (based on the
//! Niagara-2 integrated NIC) buffers each packet and forwards it to the
//! correct core. Cores on a stack run independent Memcached instances on
//! distinct TCP ports, so routing is a port-number lookup.

use densekv_sim::Duration;

/// The on-stack NIC MAC: per-frame store-and-forward latency and Table 1
/// power/area constants.
///
/// # Examples
///
/// ```
/// use densekv_net::NicMac;
///
/// let mac = NicMac::for_cores(4);
/// // A 700-frame message pays the store-and-forward delay once.
/// assert_eq!(mac.message_latency(700), mac.message_latency(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NicMac {
    per_frame_latency: Duration,
}

impl NicMac {
    /// MAC power from Table 1, milliwatts.
    pub const POWER_MW: f64 = 120.0;

    /// MAC + buffer area from Table 1, mm² (28 nm).
    pub const AREA_MM2: f64 = 0.43;

    /// Creates a MAC serving `cores` cores on one stack.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn for_cores(cores: u32) -> Self {
        assert!(cores > 0, "a stack needs at least one core");
        NicMac {
            // Store-and-forward of one frame through the MAC buffers.
            per_frame_latency: Duration::from_nanos(500),
        }
    }

    /// Latency the MAC adds to a message of `frames` frames. Buffering is
    /// cut-through after the first frame, so only one store-and-forward
    /// delay applies per message.
    pub fn message_latency(&self, frames: u64) -> Duration {
        debug_assert!(frames > 0);
        self.per_frame_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_latency_is_one_store_and_forward() {
        let mac = NicMac::for_cores(1);
        assert_eq!(mac.message_latency(1), mac.per_frame_latency);
        assert_eq!(mac.message_latency(700), mac.per_frame_latency);
    }

    #[test]
    fn table1_constants() {
        assert_eq!(NicMac::POWER_MW, 120.0);
        assert_eq!(NicMac::AREA_MM2, 0.43);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = NicMac::for_cores(0);
    }
}
