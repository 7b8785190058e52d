//! Instruction/reference budgets for the kernel TCP/IP code paths.
//!
//! The paper measures (Fig. 4) that the network stack consumes ~87 % of a
//! small GET's time and nearly all of a large one's. This model expresses
//! the stack's cost as *instruction and memory-reference budgets* per
//! message and per frame — interrupt entry, socket demultiplex, protocol
//! processing, epoll dispatch, and the copy syscalls — which the CPU phase
//! engine converts into time for a given core. The defaults are calibrated
//! so that a single A7 @ 1 GHz with a warm 2 MB L2 and 10 ns DRAM serves a
//! 64 B GET in ≈ 90 µs (11 KTPS per core, Table 4), with the Fig. 4
//! component shares.

/// A software cost: what a code path consumes before timing is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetCost {
    /// Committed instructions.
    pub instructions: u64,
    /// Random references into kernel structures (sk_buffs, PCBs, epoll).
    pub kernel_refs: u64,
    /// Uncached NIC MMIO operations (doorbells, descriptor rings).
    pub uncached_ops: u64,
}

impl NetCost {
    /// Component-wise sum.
    pub fn plus(self, other: NetCost) -> NetCost {
        NetCost {
            instructions: self.instructions + other.instructions,
            kernel_refs: self.kernel_refs + other.kernel_refs,
            uncached_ops: self.uncached_ops + other.uncached_ops,
        }
    }
}

/// Per-message and per-frame budgets for the receive and transmit paths.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpCostModel {
    /// Fixed receive-path instructions per message (interrupt, socket
    /// lookup, epoll wakeup, `read` syscall).
    pub(crate) rx_base_instr: u64,
    /// Receive-path instructions per additional frame (IP/TCP processing,
    /// reassembly, ACK generation).
    pub(crate) rx_per_frame_instr: u64,
    /// Fixed transmit-path instructions per message (`write` syscall,
    /// socket buffer setup).
    pub(crate) tx_base_instr: u64,
    /// Transmit-path instructions per frame (segmentation, header build,
    /// descriptor post).
    pub(crate) tx_per_frame_instr: u64,
    /// Fixed receive-path kernel references per message.
    pub(crate) rx_base_refs: u64,
    /// Receive-path kernel references per frame.
    pub(crate) rx_per_frame_refs: u64,
    /// Fixed transmit-path kernel references per message.
    pub(crate) tx_base_refs: u64,
    /// Transmit-path kernel references per frame.
    pub(crate) tx_per_frame_refs: u64,
    /// Uncached NIC operations per received message.
    pub(crate) rx_uncached_ops: u64,
    /// Uncached NIC operations per transmitted message.
    pub(crate) tx_uncached_ops: u64,
}

impl TcpCostModel {
    /// The calibrated Linux-3.x-era TCP/IP stack the paper's gem5 images
    /// ran (kernel 2.6.38, §5.2).
    pub fn linux() -> Self {
        TcpCostModel {
            rx_base_instr: 22_000,
            rx_per_frame_instr: 2_600,
            tx_base_instr: 14_000,
            tx_per_frame_instr: 2_200,
            rx_base_refs: 60,
            rx_per_frame_refs: 30,
            tx_base_refs: 40,
            tx_per_frame_refs: 25,
            rx_uncached_ops: 6,
            tx_uncached_ops: 6,
        }
    }

    /// Cost of receiving a message of `frames` frames.
    pub fn rx_cost(&self, frames: u64) -> NetCost {
        debug_assert!(frames > 0);
        NetCost {
            instructions: self.rx_base_instr + self.rx_per_frame_instr * frames,
            kernel_refs: self.rx_base_refs + self.rx_per_frame_refs * frames,
            uncached_ops: self.rx_uncached_ops,
        }
    }

    /// Cost of transmitting a message of `frames` frames.
    pub fn tx_cost(&self, frames: u64) -> NetCost {
        debug_assert!(frames > 0);
        NetCost {
            instructions: self.tx_base_instr + self.tx_per_frame_instr * frames,
            kernel_refs: self.tx_base_refs + self.tx_per_frame_refs * frames,
            uncached_ops: self.tx_uncached_ops,
        }
    }

    /// Combined cost of a full request/response exchange.
    pub fn exchange_cost(&self, request_frames: u64, response_frames: u64) -> NetCost {
        self.rx_cost(request_frames)
            .plus(self.tx_cost(response_frames))
    }
}

impl TcpCostModel {
    /// A UDP GET path (Facebook runs Memcached GETs over UDP to dodge
    /// TCP's per-connection and ACK costs; the paper's §2.3.1 blames the
    /// TCP/IP stack for Memcached's inefficiency). Roughly half the
    /// per-message instructions: no connection state, no ACK clocking,
    /// no stream reassembly.
    pub fn udp() -> Self {
        TcpCostModel {
            rx_base_instr: 11_000,
            rx_per_frame_instr: 1_800,
            tx_base_instr: 7_000,
            tx_per_frame_instr: 1_600,
            rx_base_refs: 30,
            rx_per_frame_refs: 18,
            tx_base_refs: 20,
            tx_per_frame_refs: 15,
            rx_uncached_ops: 4,
            tx_uncached_ops: 4,
        }
    }
}

impl Default for TcpCostModel {
    fn default() -> Self {
        TcpCostModel::linux()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_costs() {
        let m = TcpCostModel::linux();
        let rx = m.rx_cost(1);
        assert_eq!(rx.instructions, 24_600);
        assert_eq!(rx.kernel_refs, 90);
        assert_eq!(rx.uncached_ops, 6);
    }

    #[test]
    fn per_frame_costs_scale_linearly() {
        let m = TcpCostModel::linux();
        let one = m.rx_cost(1);
        let ten = m.rx_cost(10);
        assert_eq!(
            ten.instructions - one.instructions,
            9 * m.rx_per_frame_instr
        );
        assert_eq!(ten.uncached_ops, one.uncached_ops, "MMIO is per message");
    }

    #[test]
    fn exchange_is_rx_plus_tx() {
        let m = TcpCostModel::linux();
        let ex = m.exchange_cost(1, 3);
        let manual = m.rx_cost(1).plus(m.tx_cost(3));
        assert_eq!(ex, manual);
    }

    #[test]
    fn udp_is_cheaper_everywhere() {
        let tcp = TcpCostModel::linux();
        let udp = TcpCostModel::udp();
        for frames in [1u64, 3, 100] {
            assert!(udp.rx_cost(frames).instructions < tcp.rx_cost(frames).instructions);
            assert!(udp.tx_cost(frames).instructions < tcp.tx_cost(frames).instructions);
            assert!(udp.rx_cost(frames).kernel_refs < tcp.rx_cost(frames).kernel_refs);
        }
    }

    #[test]
    fn small_get_totals_match_calibration() {
        // The network stack budget for a 64 B GET (1 frame each way)
        // should sit near 45k instructions — the value that yields the
        // Fig. 4 ~87% network share on an A7 (see module docs).
        let m = TcpCostModel::linux();
        let ex = m.exchange_cost(1, 1);
        assert!(
            (40_000..=50_000).contains(&ex.instructions),
            "{}",
            ex.instructions
        );
    }
}
