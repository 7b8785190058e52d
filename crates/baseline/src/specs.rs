//! Table 4's baseline rows, with a contention model in the tests that
//! derives their throughputs.

/// One baseline system as the paper tabulates it (64 B requests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineSpec {
    /// Row label.
    pub name: &'static str,
    /// Cores (or accelerator count) used.
    pub cores: u32,
    /// Memory, GB.
    pub memory_gb: f64,
    /// Server power, watts.
    pub power_w: f64,
    /// Throughput, millions of transactions per second.
    pub mtps: f64,
    /// Wire bandwidth at 64 B requests, GB/s.
    pub bandwidth_gbps: f64,
}

impl BaselineSpec {
    /// Efficiency, thousand TPS per watt.
    pub fn ktps_per_watt(&self) -> f64 {
        self.mtps * 1e6 / 1000.0 / self.power_w
    }

    /// Accessibility, thousand TPS per GB.
    pub fn ktps_per_gb(&self) -> f64 {
        self.mtps * 1e6 / 1000.0 / self.memory_gb
    }
}

/// Memcached 1.4 on the Xeon baseline (Table 4: global cache lock).
pub(crate) const MEMCACHED_14: BaselineSpec = BaselineSpec {
    name: "Memcached 1.4",
    cores: 6,
    memory_gb: 12.0,
    power_w: 143.0,
    mtps: 0.41,
    bandwidth_gbps: 0.03,
};

/// Memcached 1.6 (striped hash locks, global LRU lock).
pub(crate) const MEMCACHED_16: BaselineSpec = BaselineSpec {
    name: "Memcached 1.6",
    cores: 4,
    memory_gb: 128.0,
    power_w: 159.0,
    mtps: 0.52,
    bandwidth_gbps: 0.03,
};

/// Wiggins & Langston's "Bags" rework — the strongest software baseline,
/// the denominator of every headline multiplier in the paper.
pub const BAGS: BaselineSpec = BaselineSpec {
    name: "Memcached Bags",
    cores: 16,
    memory_gb: 128.0,
    power_w: 285.0,
    mtps: 3.15,
    bandwidth_gbps: 0.20,
};

/// The TSSP Memcached accelerator (Lim et al., ISCA '13): 17.6 KTPS/W.
pub const TSSP: BaselineSpec = BaselineSpec {
    name: "TSSP",
    cores: 1,
    memory_gb: 8.0,
    power_w: 16.0,
    mtps: 0.28,
    bandwidth_gbps: 0.04,
};

/// All Table 4 baseline rows in paper order.
pub const TABLE4_BASELINES: [BaselineSpec; 4] = [MEMCACHED_14, MEMCACHED_16, BAGS, TSSP];

#[cfg(test)]
mod tests {
    use super::*;

    // The rows above are published numbers; this model derives their
    // 1.4 → 1.6 → Bags throughputs from per-op service time and
    // serialization, so the ordering is explained rather than asserted.

    /// An Amdahl-style lock-contention throughput model: each operation costs
    /// `parallel_us` of perfectly parallel work plus `serial_us` inside a
    /// critical section that all threads share.
    ///
    /// Throughput is `min(threads / (parallel+serial), 1 / serial)` — the
    /// second term is the lock's hard ceiling.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct ContentionModel {
        /// Parallelizable service time per operation, µs.
        parallel_us: f64,
        /// Serialized (in-lock) time per operation, µs.
        serial_us: f64,
    }

    impl ContentionModel {
        /// Memcached 1.4: nearly the whole operation runs under the cache
        /// lock. Calibrated to the 0.41 MTPS Table 4 row.
        fn memcached_14() -> Self {
            ContentionModel {
                parallel_us: 2.7,
                serial_us: 2.44,
            }
        }

        /// Memcached 1.6: hash buckets are striped but LRU maintenance still
        /// serializes. Calibrated to 0.52 MTPS.
        fn memcached_16() -> Self {
            ContentionModel {
                parallel_us: 3.2,
                serial_us: 1.92,
            }
        }

        /// Bags: no global ordering; only residual atomics serialize.
        /// Calibrated to 3.15 MTPS at 16 threads.
        fn bags() -> Self {
            ContentionModel {
                parallel_us: 5.02,
                serial_us: 0.06,
            }
        }

        /// Throughput in TPS with `threads` worker threads.
        fn tps(&self, threads: u32) -> f64 {
            let per_op = self.parallel_us + self.serial_us;
            let linear = threads as f64 / per_op * 1e6;
            let lock_ceiling = 1e6 / self.serial_us;
            linear.min(lock_ceiling)
        }

        /// Threads beyond which adding more stops helping.
        fn saturation_threads(&self) -> u32 {
            ((self.parallel_us + self.serial_us) / self.serial_us).ceil() as u32
        }
    }

    #[test]
    fn table4_rows_match_paper() {
        assert_eq!(MEMCACHED_14.mtps, 0.41);
        assert_eq!(MEMCACHED_16.mtps, 0.52);
        assert_eq!(BAGS.mtps, 3.15);
        assert_eq!(TSSP.mtps, 0.28);
        assert_eq!(TABLE4_BASELINES.len(), 4);
    }

    #[test]
    fn derived_metrics_match_paper_columns() {
        // Table 4: Bags 11.1 KTPS/W and 24.6 KTPS/GB; TSSP 17.6 KTPS/W.
        assert!((BAGS.ktps_per_watt() - 11.05).abs() < 0.2);
        assert!((BAGS.ktps_per_gb() - 24.6).abs() < 0.2);
        assert!((TSSP.ktps_per_watt() - 17.5).abs() < 0.2);
        assert!((MEMCACHED_14.ktps_per_watt() - 2.9).abs() < 0.2);
        assert!((MEMCACHED_16.ktps_per_gb() - 4.1).abs() < 0.2);
    }

    #[test]
    fn contention_models_reproduce_table4_throughput() {
        let v14 = ContentionModel::memcached_14().tps(MEMCACHED_14.cores);
        assert!((v14 / 1e6 - 0.41).abs() < 0.02, "1.4: {v14}");
        let v16 = ContentionModel::memcached_16().tps(16);
        assert!((v16 / 1e6 - 0.52).abs() < 0.02, "1.6: {v16}");
        let bags = ContentionModel::bags().tps(BAGS.cores);
        assert!((bags / 1e6 - 3.15).abs() < 0.05, "bags: {bags}");
    }

    #[test]
    fn ordering_14_16_bags() {
        for threads in [8, 16, 32] {
            let v14 = ContentionModel::memcached_14().tps(threads);
            let v16 = ContentionModel::memcached_16().tps(threads);
            let bags = ContentionModel::bags().tps(threads);
            assert!(v14 < v16 && v16 < bags, "ordering at {threads} threads");
        }
    }

    #[test]
    fn saturation_points() {
        assert!(ContentionModel::memcached_14().saturation_threads() <= 4);
        assert!(ContentionModel::bags().saturation_threads() > 16);
    }

    #[test]
    fn single_thread_is_lock_free_regime() {
        let m = ContentionModel::bags();
        let expected = 1e6 / (m.parallel_us + m.serial_us);
        assert!((m.tps(1) - expected).abs() < 1e-6);
    }
}
