//! The simulated stack core: executes real requests against a real store
//! while the timing models account for every instruction, cache miss,
//! memory-device access, frame, and wire byte.
//!
//! One `CoreSim` models one core of a Mercury or Iridium stack running
//! its own Memcached instance (the paper's deployment model, §4.1.4/§5.3)
//! serving a closed-loop client: TPS = 1/RTT (§5.3).

use densekv_cpu::engine::{PhaseEngine, PhaseResult, PhaseSpec, StreamRef};
use densekv_cpu::CoreConfig;
use densekv_hybrid::{HybridMemory, TierSnapshot};
use densekv_kv::hash::hash_instructions;
use densekv_kv::store::{AccessTrace, KvStore, StoreConfig, StoreError};
use densekv_kv::StoreBackend;
use densekv_mem::dram::DramStack;
use densekv_mem::ftl::Ftl;
use densekv_mem::sram::SramBuffer;
use densekv_mem::{lines_for_bytes, AccessKind, MemoryTiming};
use densekv_net::frame::MessageSizes;
use densekv_net::nic::NicMac;
use densekv_net::{TcpCostModel, Wire};
use densekv_sim::Duration;
use densekv_stack::{MemoryKind, StackConfig};
use densekv_workload::{key_bytes_into, Op, Request, MAX_KEY_LEN};

/// Line-address base of the packet-buffer region.
const BUFFER_BASE_LINE: u64 = 0xE00_0000; // 3.5 GiB into the device, in lines

/// Store-region base: the store's own address space (table + slab arena)
/// starts at the device origin.
const STORE_BASE_LINE: u64 = 0;

/// Instructions for protocol parsing per request.
const PARSE_INSTR: u64 = 1_800;
/// Instructions for GET metadata handling (lookup, item bookkeeping,
/// response header) — the Fig. 4 "Memcached" component.
const GET_STORE_INSTR: u64 = 5_500;
/// Instructions for PUT metadata handling (alloc, LRU, table update).
const PUT_STORE_INSTR: u64 = 16_000;
/// Extra parse instructions per additional key of a multi-GET.
const PARSE_INSTR_PER_EXTRA_KEY: u64 = 200;
/// Copy-loop instructions per 64 B line moved.
const COPY_INSTR_PER_LINE: u64 = 4;
/// Metadata lines written by a PUT (bucket pointer, item header,
/// LRU/stats).
const PUT_METADATA_WRITES: u64 = 3;

/// Largest value the store accepts (one slab page minus header/key
/// slack). The paper's 1 MB sweep point stores 1 MB minus this sliver;
/// the wire and copy traffic still use the requested size.
const MAX_STORED_VALUE: u64 = densekv_kv::slab::PAGE_BYTES - 512;

/// What every simulated value is a prefix of. The timing models price a
/// value by its length and address and never read it, so the store is
/// lent slices of this block instead of a filled buffer per item. It is
/// mapped read-only from the executable and no page of it is ever
/// touched, so it costs a megabyte of file and no resident memory.
static ZERO_VALUE: [u8; MAX_STORED_VALUE as usize] = [0; MAX_STORED_VALUE as usize];

/// The stored stand-in for a `value_bytes` value: the requested length
/// clamped to what one slab chunk can hold.
fn stored_value(value_bytes: u64) -> &'static [u8] {
    &ZERO_VALUE[..value_bytes.min(MAX_STORED_VALUE) as usize]
}

/// Configuration of one simulated core.
#[derive(Debug, Clone)]
pub struct CoreSimConfig {
    /// Core timing model.
    pub core: CoreConfig,
    /// Whether the core has a 2 MB L2.
    pub l2: bool,
    /// Stack memory technology.
    pub memory: MemoryKind,
    /// Slab-arena bytes for this core's store (a simulation-scale
    /// partition; the address layout is what matters for timing).
    pub store_bytes: u64,
    /// TCP/IP software cost model.
    pub tcp: TcpCostModel,
    /// The 10 GbE link to the client.
    pub wire: Wire,
    /// Client-side processing per request (request build + response
    /// handling) outside the server.
    pub client_overhead: Duration,
}

impl CoreSimConfig {
    /// A Mercury core with the given DRAM latency.
    pub fn mercury(core: CoreConfig, l2: bool, dram_latency: Duration) -> Self {
        CoreSimConfig {
            core,
            l2,
            memory: MemoryKind::Mercury(densekv_mem::dram::DramConfig::mercury(dram_latency)),
            store_bytes: 64 << 20,
            tcp: TcpCostModel::linux(),
            wire: Wire::ten_gbe(),
            client_overhead: Duration::from_micros(1),
        }
    }

    /// An Iridium core with the given flash read latency.
    pub fn iridium(core: CoreConfig, l2: bool, read_latency: Duration) -> Self {
        CoreSimConfig {
            memory: MemoryKind::Iridium(densekv_mem::flash::FlashConfig::iridium(read_latency)),
            ..CoreSimConfig::mercury(core, l2, Duration::from_nanos(10))
        }
    }

    /// The paper's headline configuration: A7 @ 1 GHz, 2 MB L2, 10 ns
    /// DRAM.
    pub fn mercury_a7() -> Self {
        CoreSimConfig::mercury(CoreConfig::a7_1ghz(), true, Duration::from_nanos(10))
    }

    /// The Iridium headline: A7 @ 1 GHz, 2 MB L2, 10 µs flash reads.
    pub fn iridium_a7() -> Self {
        CoreSimConfig::iridium(CoreConfig::a7_1ghz(), true, Duration::from_micros(10))
    }

    /// A Helios hybrid core: `dram_tier_bytes` of DRAM cache (this
    /// core's slice of the stack tier) over flash with the given read
    /// latency. A 0-byte tier degenerates to exactly the Iridium model.
    pub fn helios(
        core: CoreConfig,
        l2: bool,
        dram_tier_bytes: u64,
        read_latency: Duration,
    ) -> Self {
        CoreSimConfig {
            memory: MemoryKind::Hybrid(densekv_hybrid::HybridConfig::helios(
                dram_tier_bytes,
                read_latency,
            )),
            ..CoreSimConfig::mercury(core, l2, Duration::from_nanos(10))
        }
    }

    /// The Helios headline: A7 @ 1 GHz, 2 MB L2, 10 µs flash reads, and
    /// a per-core DRAM tier slice of `dram_tier_bytes`.
    pub fn helios_a7(dram_tier_bytes: u64) -> Self {
        CoreSimConfig::helios(
            CoreConfig::a7_1ghz(),
            true,
            dram_tier_bytes,
            Duration::from_micros(10),
        )
    }

    /// Derives the matching one-core-per-stack [`StackConfig`] (useful
    /// for the Fig. 5/6 single-stack studies).
    ///
    /// # Errors
    ///
    /// Propagates stack-validation errors.
    pub fn stack_config(&self) -> Result<StackConfig, densekv_stack::config::StackConfigError> {
        StackConfig::new(self.memory.clone(), self.core.clone(), 1, self.l2)
    }
}

/// The stack's memory system as one core sees it.
enum StackMemory {
    /// Mercury: DRAM holds both the store and the packet buffers.
    Dram(DramStack),
    /// Iridium: the store lives in flash behind a real FTL (so PUTs pay
    /// for garbage collection and wear-leveling); packet buffers in
    /// on-die SRAM.
    Flash { ftl: Ftl, buffer: SramBuffer },
    /// Helios: the store lives in flash behind the same FTL, fronted by
    /// a DRAM page-cache tier; packet buffers in on-die SRAM, exactly
    /// as on Iridium.
    Hybrid {
        tier: Box<HybridMemory>,
        buffer: SramBuffer,
    },
}

impl StackMemory {
    /// Runs a phase. The backing memory (behind the caches) is always the
    /// stack's main device — DRAM on Mercury, flash on Iridium, exactly as
    /// the paper models memory. When `stream_to_buffer` is set, the
    /// phase's bulk stream targets the packet buffers instead (DRAM again
    /// on Mercury; the logic-die SRAM on Iridium).
    fn run_phase(
        &mut self,
        engine: &mut PhaseEngine,
        spec: &PhaseSpec,
        stream_to_buffer: bool,
    ) -> PhaseResult {
        match self {
            StackMemory::Dram(d) => engine.run(spec, d),
            StackMemory::Flash { ftl, buffer } => {
                if stream_to_buffer {
                    engine.run_split(spec, ftl, Some(buffer))
                } else {
                    engine.run(spec, ftl)
                }
            }
            StackMemory::Hybrid { tier, buffer } => {
                if stream_to_buffer {
                    engine.run_split(spec, tier.as_mut(), Some(buffer))
                } else {
                    engine.run(spec, tier.as_mut())
                }
            }
        }
    }

    /// Bulk value write into the store. On Mercury this is `None` (the
    /// caller streams lines through the DRAM); on Iridium it returns the
    /// FTL's page-program time, including any garbage collection the
    /// write triggered.
    fn ftl_value_write(&mut self, offset: u64, bytes: u64) -> Option<Duration> {
        match self {
            StackMemory::Dram(_) => None,
            StackMemory::Flash { ftl, .. } => Some(ftl.write_range(offset, bytes)),
            StackMemory::Hybrid { tier, .. } => Some(tier.value_write(offset, bytes)),
        }
    }

    /// Accounts `lines` packet-buffer lines drained by NIC DMA: bandwidth
    /// only, no core stall (the drain overlaps wire serialization).
    fn dma_buffer_read(&mut self, lines: u64) {
        let buffer: &mut dyn MemoryTiming = match self {
            StackMemory::Dram(d) => d,
            StackMemory::Flash { buffer, .. } | StackMemory::Hybrid { buffer, .. } => buffer,
        };
        let _ = buffer.stream_access(BUFFER_BASE_LINE, lines, AccessKind::Read, 1.0);
    }

    /// Bytes moved at the *device* (what Table 1's per-GB/s power rates
    /// apply to).
    fn device_bytes(&self) -> u64 {
        match self {
            StackMemory::Dram(d) => d.bytes_moved(),
            StackMemory::Flash { ftl, .. } => ftl.bytes_moved(),
            StackMemory::Hybrid { tier, .. } => tier.bytes_moved(),
        }
    }

    /// Device bytes split by tier: `(DRAM, flash)`. Single-tier stacks
    /// report all their traffic on their own tier, so per-tier pricing
    /// reduces exactly to the single-rate model for them.
    fn device_tier_bytes(&self) -> (u64, u64) {
        match self {
            StackMemory::Dram(d) => (d.bytes_moved(), 0),
            StackMemory::Flash { ftl, .. } => (0, ftl.bytes_moved()),
            StackMemory::Hybrid { tier, .. } => (tier.dram_bytes(), tier.flash_bytes()),
        }
    }

    fn reset_counters(&mut self) {
        match self {
            StackMemory::Dram(d) => d.reset_counters(),
            StackMemory::Flash { ftl, buffer } => {
                ftl.reset_counters();
                buffer.reset_counters();
            }
            StackMemory::Hybrid { tier, buffer } => {
                tier.reset_counters();
                buffer.reset_counters();
            }
        }
    }
}

impl core::fmt::Debug for StackMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StackMemory::Dram(_) => write!(f, "StackMemory::Dram"),
            StackMemory::Flash { .. } => write!(f, "StackMemory::Flash"),
            StackMemory::Hybrid { .. } => write!(f, "StackMemory::Hybrid"),
        }
    }
}

/// Timing of one executed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTiming {
    /// Full round-trip time as the client observes it.
    pub rtt: Duration,
    /// Time on the serving core (all phases).
    pub server: Duration,
    /// Fig. 4's "Network Stack" component: RX + TX paths and data
    /// movement.
    pub network: Duration,
    /// Fig. 4's "Memcached" component: parse + store metadata.
    pub store: Duration,
    /// Fig. 4's "Hash Computation" component.
    pub hash: Duration,
    /// Whether a GET hit or a PUT was stored (a PUT the store refuses
    /// reports `false`).
    pub hit: bool,
}

/// One request's round trip decomposed into contiguous phases, in wire
/// order — the Fig. 4 breakdown at request granularity.
///
/// The invariant the tracing exporters rely on: the phases returned by
/// [`PhaseBreakdown::phases`] tile [`RequestTiming::rtt`] exactly, so a
/// span built from them sums to the end-to-end latency bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// Client-side processing (request build + response handling).
    pub client_overhead: Duration,
    /// Request serialization + propagation on the 10 GbE wire.
    pub req_wire: Duration,
    /// Request store-and-forward through the on-stack NIC MAC.
    pub(crate) req_nic: Duration,
    /// Kernel RX path (TCP/IP + payload landing in packet buffers).
    pub(crate) net_rx: Duration,
    /// Memcached protocol parse.
    pub parse: Duration,
    /// Key hash computation.
    pub hash: Duration,
    /// Store metadata operation (lookup or insert, bucket/item walks).
    pub store_op: Duration,
    /// Value movement between the store and the packet buffers.
    pub(crate) value_copy: Duration,
    /// Kernel TX path.
    pub(crate) net_tx: Duration,
    /// Response store-and-forward through the NIC MAC.
    pub(crate) resp_nic: Duration,
    /// Response serialization + propagation on the wire.
    pub resp_wire: Duration,
}

impl PhaseBreakdown {
    /// The phases in wire order, named for the trace viewer.
    #[must_use]
    pub fn phases(&self) -> [(&'static str, Duration); 11] {
        [
            ("client", self.client_overhead),
            ("req-wire", self.req_wire),
            ("req-nic", self.req_nic),
            ("net-rx", self.net_rx),
            ("parse", self.parse),
            ("hash", self.hash),
            ("store-op", self.store_op),
            ("value-copy", self.value_copy),
            ("net-tx", self.net_tx),
            ("resp-nic", self.resp_nic),
            ("resp-wire", self.resp_wire),
        ]
    }

    /// Server-side time (the six on-core phases).
    #[must_use]
    pub fn server(&self) -> Duration {
        self.net_rx + self.parse + self.hash + self.store_op + self.value_copy + self.net_tx
    }

    /// End-to-end round trip: the sum of every phase.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.phases().iter().map(|&(_, d)| d).sum()
    }

    /// The Fig. 4 totals of this round trip, for an exchange whose keys
    /// all hit (`hit`).
    fn timing(&self, hit: bool) -> RequestTiming {
        RequestTiming {
            rtt: self.total(),
            server: self.server(),
            network: self.net_rx + self.net_tx + self.value_copy,
            store: self.parse + self.store_op,
            hash: self.hash,
            hit,
        }
    }
}

/// One simulated stack core and its Memcached instance.
///
/// See the crate-level docs for an example.
pub struct CoreSim {
    config: CoreSimConfig,
    engine: PhaseEngine,
    store: KvStore,
    memory: StackMemory,
    mac: NicMac,
    /// Wire payload bytes exchanged (both directions).
    wire_bytes: u64,
    /// Reused trace buffer (avoids per-request chain-vector allocation).
    trace_scratch: AccessTrace,
    /// Reused metadata-line buffer, lent to each store phase's
    /// [`PhaseSpec::store_refs`] and taken back after it runs.
    store_refs_scratch: Vec<u64>,
}

impl core::fmt::Debug for CoreSim {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CoreSim")
            .field("core", &self.config.core.label())
            .field("memory", &self.memory)
            .finish_non_exhaustive()
    }
}

impl CoreSim {
    /// Builds the simulated core.
    ///
    /// # Errors
    ///
    /// Returns the store's error if the slab arena is too small to exist.
    pub fn new(config: CoreSimConfig) -> Result<Self, StoreError> {
        if config.store_bytes < 1 << 20 {
            return Err(StoreError::OutOfMemory);
        }
        let engine = if config.l2 {
            PhaseEngine::with_l2(config.core.clone())
        } else {
            PhaseEngine::without_l2(config.core.clone())
        };
        let memory = match &config.memory {
            MemoryKind::Mercury(dram) => StackMemory::Dram(DramStack::new(dram.clone())),
            MemoryKind::Iridium(flash) => {
                // The FTL only needs to cover this core's simulated store
                // partition (plus over-provisioning), not the whole
                // 19.8 GB stack — timing is per-page and identical, and
                // construction stays cheap for sweeps that build many
                // cores.
                let mut sized = flash.clone();
                let per_block = u64::from(sized.pages_per_block) * sized.page_bytes;
                let needed_blocks =
                    (config.store_bytes * 2).div_ceil(per_block * u64::from(sized.planes));
                sized.blocks_per_plane = (needed_blocks as u32).max(8);
                StackMemory::Flash {
                    ftl: Ftl::new(sized, 1.0 / 16.0),
                    buffer: SramBuffer::on_die(),
                }
            }
            MemoryKind::Hybrid(hybrid) => {
                // Same flash down-sizing as Iridium so the degenerate
                // 0-byte tier reproduces its timing bit for bit.
                let mut sized = hybrid.clone();
                let per_block = u64::from(sized.flash.pages_per_block) * sized.flash.page_bytes;
                let needed_blocks =
                    (config.store_bytes * 2).div_ceil(per_block * u64::from(sized.flash.planes));
                sized.flash.blocks_per_plane = (needed_blocks as u32).max(8);
                StackMemory::Hybrid {
                    tier: Box::new(HybridMemory::new(sized)),
                    buffer: SramBuffer::on_die(),
                }
            }
        };
        Ok(CoreSim {
            engine,
            store: KvStore::new(StoreConfig::with_capacity(config.store_bytes)),
            memory,
            mac: NicMac::for_cores(1),
            wire_bytes: 0,
            trace_scratch: AccessTrace::default(),
            store_refs_scratch: Vec::new(),
            config,
        })
    }

    /// Builds a core and preloads `population` keys of `value_bytes`
    /// each: how every measured point starts. The store grows to hold the
    /// population with slab slack — `(value_bytes + 4096) · population ·
    /// 2`, at least 16 MiB — and never shrinks below
    /// `config.store_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the population does not
    /// fit.
    pub fn preloaded(config: &CoreSimConfig, value_bytes: u64, population: u64) -> CoreSim {
        let mut sized = config.clone();
        sized.store_bytes = sized
            .store_bytes
            .max((value_bytes + 4096) * population * 2)
            .max(16 << 20);
        let mut core = CoreSim::new(sized).expect("valid configuration");
        core.preload(value_bytes, population).expect("preload fits");
        core
    }

    /// The configuration this core was built from.
    pub fn config(&self) -> &CoreSimConfig {
        &self.config
    }

    /// The store's statistics (hits, misses, evictions…).
    pub fn store_stats(&self) -> densekv_kv::StoreStats {
        self.store.stats()
    }

    /// Per-level cache hit/miss counters of the core's hierarchy.
    pub fn cache_stats(&self) -> densekv_cpu::CacheHierarchyStats {
        self.engine.cache_stats()
    }

    /// How the core's L1 references were resolved so far: looked up one
    /// by one, or credited as proven misses with their fills postponed.
    pub fn walk_counts(&self) -> densekv_cpu::WalkCounts {
        self.engine.walk_counts()
    }

    /// Forces the engine's full LRU walk (differential tests only).
    #[doc(hidden)]
    pub fn disable_l2_residency_shortcut(&mut self) {
        self.engine.disable_l2_residency_shortcut();
    }

    /// Loads `population` keys of `value_bytes` each (untimed), so
    /// subsequent GETs hit.
    ///
    /// # Errors
    ///
    /// Propagates store errors (e.g. the population does not fit).
    pub fn preload(&mut self, value_bytes: u64, population: u64) -> Result<(), StoreError> {
        let mut key = Vec::with_capacity(MAX_KEY_LEN);
        for id in 0..population {
            key_bytes_into(id, &mut key);
            self.preload_one(&key, value_bytes)?;
        }
        Ok(())
    }

    /// Loads a single key of `value_bytes` (untimed).
    ///
    /// # Errors
    ///
    /// Propagates store errors.
    pub fn preload_one(&mut self, key: &[u8], value_bytes: u64) -> Result<(), StoreError> {
        self.store
            .set_traced(key, stored_value(value_bytes), 0, &mut self.trace_scratch)
            .map(|_| ())
    }

    /// Device bytes moved since the last counter reset.
    pub fn device_bytes(&self) -> u64 {
        self.memory.device_bytes()
    }

    /// Device bytes split `(DRAM tier, flash array)` since the last
    /// counter reset. Single-tier stacks report everything on their own
    /// tier, so the two always sum to [`CoreSim::device_bytes`].
    pub fn device_tier_bytes(&self) -> (u64, u64) {
        self.memory.device_tier_bytes()
    }

    /// A snapshot of the hybrid DRAM tier's counters, if this core runs
    /// on a Helios-style memory; `None` for pure Mercury/Iridium.
    pub fn tier_stats(&self) -> Option<TierSnapshot> {
        match &self.memory {
            StackMemory::Hybrid { tier, .. } => Some(tier.snapshot()),
            _ => None,
        }
    }

    /// Wire payload bytes exchanged since the last counter reset.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Resets the bandwidth counters (not the caches or the store).
    pub fn reset_counters(&mut self) {
        self.memory.reset_counters();
        self.wire_bytes = 0;
    }

    /// Runs a phase whose stream (if any) targets the packet buffers.
    fn run_buffer(&mut self, spec: &PhaseSpec) -> Duration {
        self.memory.run_phase(&mut self.engine, spec, true).time
    }

    /// Converts a store-space byte offset to a device line address.
    fn store_line(offset: u64) -> u64 {
        STORE_BASE_LINE + offset / densekv_mem::LINE_BYTES
    }

    /// The device lines of a lookup's metadata walk, in the scratch
    /// buffer the caller moves into its [`PhaseSpec`] and hands back to
    /// `store_refs_scratch` afterwards — so a steady-state request does
    /// not allocate for them.
    fn metadata_lines(&mut self, trace: &AccessTrace) -> Vec<u64> {
        let mut lines = std::mem::take(&mut self.store_refs_scratch);
        lines.clear();
        lines.extend(trace.metadata_offsets().map(Self::store_line));
        lines
    }

    /// Executes one request end-to-end and returns its timing.
    pub fn execute(&mut self, request: &Request) -> RequestTiming {
        self.execute_breakdown(request).0
    }

    /// Executes one request and returns its timing together with the
    /// per-phase decomposition of the round trip. [`CoreSim::execute`]
    /// is this call with the breakdown discarded — both run the same
    /// code, so observed and unobserved executions are identical.
    pub fn execute_breakdown(&mut self, request: &Request) -> (RequestTiming, PhaseBreakdown) {
        self.execute_parts(request.op, &request.key, request.value_bytes)
    }

    /// [`CoreSim::execute_breakdown`] without a materialized
    /// [`Request`]: the sweeps and `stack_sim` pass key bytes out of one
    /// reused buffer, so no per-request `Vec` allocation happens on the
    /// hot path.
    pub fn execute_parts(
        &mut self,
        op: Op,
        key: &[u8],
        value_bytes: u64,
    ) -> (RequestTiming, PhaseBreakdown) {
        let key_len = key.len() as u64;
        let sizes = match op {
            Op::Get => MessageSizes::get(key_len, value_bytes),
            Op::Put => MessageSizes::put(key_len, value_bytes),
        };
        let (timing, breakdown, _) =
            self.exchange(op, std::slice::from_ref(&key), value_bytes, sizes);
        (timing, breakdown)
    }

    /// Executes a batched multi-GET (`get k1 k2 …`): one network
    /// round-trip, one parse, then per-key hash/lookup/copy work. This is
    /// the classic Memcached batching optimization — with ~87 % of a
    /// small request spent in the network stack (Fig. 4), batching
    /// amortizes exactly the dominant cost.
    ///
    /// Returns the timing of the whole exchange plus the number of hits.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty.
    pub fn execute_multiget(&mut self, keys: &[Vec<u8>], value_bytes: u64) -> (RequestTiming, u32) {
        assert!(!keys.is_empty(), "multiget needs at least one key");
        let sizes = MessageSizes::multiget(keys[0].len() as u64, value_bytes, keys.len() as u64);
        let (timing, _, hits) = self.exchange(Op::Get, keys, value_bytes, sizes);
        (timing, hits)
    }

    /// One client exchange, in wire order: the receive path, one parse,
    /// then for each key its hash, the real store operation and that
    /// operation's store and copy phases, and last the transmit path.
    /// A GET or PUT is the exchange with one key; a multi-GET with many.
    /// The store never consults the timing models, so running each
    /// operation between the phases that price it is observable-neutral.
    /// Returns the timing, its phase breakdown and the keys that hit.
    fn exchange<K: AsRef<[u8]>>(
        &mut self,
        op: Op,
        keys: &[K],
        value_bytes: u64,
        sizes: MessageSizes,
    ) -> (RequestTiming, PhaseBreakdown, u32) {
        // --- Receive path: kernel RX + payload landing in buffers.
        let rx = self.config.tcp.rx_cost(sizes.request_frames());
        let net_rx = self.run_buffer(&PhaseSpec {
            name: "net-rx",
            instructions: rx.instructions,
            ifetch_footprint_lines: 3_000,
            ifetch_per_kinstr: 12,
            kernel_refs: rx.kernel_refs,
            store_refs: Vec::new(),
            stream: Some(StreamRef {
                start_line: BUFFER_BASE_LINE,
                lines: lines_for_bytes(sizes.request_payload),
                kind: AccessKind::Write,
            }),
            uncached_ops: rx.uncached_ops,
        });

        // --- Protocol parse: one command line, longer per extra key.
        let parse = self.run_buffer(&PhaseSpec {
            name: "parse",
            instructions: PARSE_INSTR + PARSE_INSTR_PER_EXTRA_KEY * (keys.len() as u64 - 1),
            ifetch_footprint_lines: 200,
            ifetch_per_kinstr: 6,
            kernel_refs: 4,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: 0,
        });

        // --- Per key: hash, the store operation itself (real data
        // structures), and its metadata + value movement priced from
        // the trace it left.
        let (mut hash, mut store_op, mut value_copy, mut hits) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO, 0);
        let mut trace = std::mem::take(&mut self.trace_scratch);
        for key in keys {
            let key = key.as_ref();
            hash += self.run_buffer(&PhaseSpec {
                name: "hash",
                instructions: hash_instructions(key.len()),
                ifetch_footprint_lines: 64,
                ifetch_per_kinstr: 2,
                kernel_refs: 0,
                store_refs: Vec::new(),
                stream: None,
                uncached_ops: 0,
            });
            let hit = match op {
                Op::Get => self.store.get_traced(key, 0, &mut trace).is_some(),
                // A refused set leaves the trace empty.
                Op::Put => self
                    .store
                    .set_traced(key, stored_value(value_bytes), 0, &mut trace)
                    .is_ok(),
            };
            let (store, copy) = self.store_phases(op, &trace, value_bytes);
            store_op += store;
            value_copy += copy;
            hits += u32::from(hit);
        }
        self.trace_scratch = trace;

        // --- Transmit path: kernel TX + NIC DMA out of the buffers.
        let tx = self.config.tcp.tx_cost(sizes.response_frames());
        let net_tx = self.run_buffer(&PhaseSpec {
            name: "net-tx",
            instructions: tx.instructions,
            ifetch_footprint_lines: 2_500,
            ifetch_per_kinstr: 12,
            kernel_refs: tx.kernel_refs,
            store_refs: Vec::new(),
            stream: None,
            uncached_ops: tx.uncached_ops,
        });
        self.memory
            .dma_buffer_read(lines_for_bytes(sizes.response_payload));
        self.wire_bytes += sizes.request_payload + sizes.response_payload;

        let breakdown = PhaseBreakdown {
            client_overhead: self.config.client_overhead,
            req_wire: self.config.wire.one_way(sizes.request_payload),
            req_nic: self.mac.message_latency(sizes.request_frames()),
            net_rx,
            parse,
            hash,
            store_op,
            value_copy,
            net_tx,
            resp_nic: self.mac.message_latency(sizes.response_frames()),
            resp_wire: self.config.wire.one_way(sizes.response_payload),
        };
        let all_hit = hits as usize == keys.len();
        (breakdown.timing(all_hit), breakdown, hits)
    }

    /// The store and value-copy phase times of one executed operation,
    /// priced from the [`AccessTrace`] it produced: the metadata walk
    /// (plus, for a PUT, a short write burst of dirtied metadata lines),
    /// then the value's two copy legs.
    fn store_phases(
        &mut self,
        op: Op,
        trace: &AccessTrace,
        value_bytes: u64,
    ) -> (Duration, Duration) {
        let store_refs = self.metadata_lines(trace);
        let spec = match op {
            Op::Get => PhaseSpec {
                name: "store-get",
                instructions: GET_STORE_INSTR,
                ifetch_footprint_lines: 1_500,
                ifetch_per_kinstr: 10,
                kernel_refs: 6,
                store_refs,
                stream: None,
                uncached_ops: 0,
            },
            // Metadata updates dirty a few lines; charge them as a short
            // write burst at the head of the item.
            Op::Put => PhaseSpec {
                name: "store-put",
                instructions: PUT_STORE_INSTR,
                ifetch_footprint_lines: 1_800,
                ifetch_per_kinstr: 10,
                kernel_refs: 10,
                stream: Some(StreamRef {
                    start_line: store_refs.first().copied().unwrap_or(0),
                    lines: PUT_METADATA_WRITES,
                    kind: AccessKind::Write,
                }),
                store_refs,
                uncached_ops: 0,
            },
        };
        let store = self.memory.run_phase(&mut self.engine, &spec, false).time;
        self.store_refs_scratch = spec.store_refs;

        let Some((offset, len)) = trace.value else {
            return (store, Duration::ZERO);
        };
        let bytes = len.max(value_bytes);
        let lines = lines_for_bytes(bytes);
        let item = Self::store_line(offset);
        let copy = match op {
            // Value moves store -> CPU -> socket buffer.
            Op::Get => {
                let read = self.copy_leg(false, item, lines, AccessKind::Read);
                read + self.copy_leg(true, BUFFER_BASE_LINE, lines, AccessKind::Write)
            }
            // Read the payload out of the socket buffer, then write it
            // into the item's chunk. On flash the write goes through the
            // FTL as whole-page programs (with garbage collection in the
            // loop); on Mercury it streams through the DRAM.
            Op::Put => {
                let read = self.copy_leg(true, BUFFER_BASE_LINE, lines, AccessKind::Read);
                read + match self.memory.ftl_value_write(offset, bytes) {
                    Some(program) => program,
                    None => self.copy_leg(false, item, lines, AccessKind::Write),
                }
            }
        };
        (store, copy)
    }

    /// One leg of a value copy: `lines` streamed from line `start` of
    /// the packet buffers (`buffer`) or the store. The copy loop's
    /// instructions are charged once, on the leg that reads.
    fn copy_leg(&mut self, buffer: bool, start: u64, lines: u64, kind: AccessKind) -> Duration {
        let spec = PhaseSpec {
            name: "value-copy",
            instructions: match kind {
                AccessKind::Read => COPY_INSTR_PER_LINE * lines,
                AccessKind::Write => 0,
            },
            ifetch_footprint_lines: 64,
            ifetch_per_kinstr: 2,
            kernel_refs: 0,
            store_refs: Vec::new(),
            stream: Some(StreamRef {
                start_line: start,
                lines,
                kind,
            }),
            uncached_ops: 0,
        };
        self.memory.run_phase(&mut self.engine, &spec, buffer).time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_request(size: u64) -> Request {
        Request {
            op: Op::Get,
            key: densekv_workload::key_bytes(1),
            value_bytes: size,
        }
    }

    fn put_request(size: u64) -> Request {
        Request {
            op: Op::Put,
            key: densekv_workload::key_bytes(1),
            value_bytes: size,
        }
    }

    fn warmed(config: CoreSimConfig, size: u64) -> CoreSim {
        let mut core = CoreSim::new(config).unwrap();
        core.preload(size, 16).unwrap();
        for _ in 0..300 {
            core.execute(&get_request(size));
        }
        core.reset_counters();
        core
    }

    #[test]
    fn breakdown_phases_tile_the_rtt() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 1024);
        for request in [get_request(1024), put_request(1024)] {
            let (timing, b) = core.execute_breakdown(&request);
            assert_eq!(b.total(), timing.rtt, "phases must sum to the RTT");
            assert_eq!(b.server(), timing.server);
            let phase_sum: Duration = b.phases().iter().map(|&(_, d)| d).sum();
            assert_eq!(phase_sum, timing.rtt);
            // Every named phase is present exactly once.
            assert_eq!(b.phases().len(), 11);
        }
        // The executed requests exercised the cache hierarchy.
        let cache = core.cache_stats();
        assert!(cache.l1i.hits + cache.l1i.misses > 0);
        assert!(cache.l2.expect("A7 config has an L2").hits > 0);
    }

    #[test]
    fn a7_mercury_64b_get_near_11ktps() {
        // Table 4 calibration: 8.44 MTPS / 768 cores = 11.0 KTPS/core.
        let mut core = warmed(CoreSimConfig::mercury_a7(), 64);
        let t = core.execute(&get_request(64));
        assert!(t.hit);
        let tps = 1.0 / t.rtt.as_secs_f64();
        assert!(
            (9_000.0..13_500.0).contains(&tps),
            "A7 Mercury 64 B GET: {tps:.0} TPS (rtt {})",
            t.rtt
        );
    }

    #[test]
    fn a15_beats_a7_by_2_to_3x() {
        let mut a7 = warmed(CoreSimConfig::mercury_a7(), 64);
        let mut a15 = warmed(
            CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10)),
            64,
        );
        let t7 = a7.execute(&get_request(64)).rtt.as_secs_f64();
        let t15 = a15.execute(&get_request(64)).rtt.as_secs_f64();
        let ratio = t7 / t15;
        assert!(
            (1.8..3.5).contains(&ratio),
            "A15 should be ~2.5-3x the A7: {ratio:.2}"
        );
    }

    #[test]
    fn iridium_a7_64b_get_near_5ktps() {
        // Table 4: 16.49 MTPS / 3072 cores = 5.4 KTPS/core.
        let mut core = warmed(CoreSimConfig::iridium_a7(), 64);
        let t = core.execute(&get_request(64));
        let tps = 1.0 / t.rtt.as_secs_f64();
        assert!(
            (4_000.0..7_500.0).contains(&tps),
            "A7 Iridium 64 B GET: {tps:.0} TPS (rtt {})",
            t.rtt
        );
    }

    #[test]
    fn iridium_put_below_about_1ktps() {
        // §6.2 / Fig. 6: flash PUTs average below ~1 KTPS.
        let mut core = warmed(CoreSimConfig::iridium_a7(), 64);
        let t = core.execute(&put_request(64));
        let tps = 1.0 / t.rtt.as_secs_f64();
        assert!(tps < 1_600.0, "Iridium 64 B PUT: {tps:.0} TPS");
    }

    #[test]
    fn helios_zero_tier_matches_iridium_exactly() {
        // Degenerate limit: a Helios core with a 0-byte DRAM tier is an
        // Iridium core, request for request.
        let mut iridium = CoreSim::new(CoreSimConfig::iridium_a7()).unwrap();
        let mut helios = CoreSim::new(CoreSimConfig::helios_a7(0)).unwrap();
        iridium.preload(256, 16).unwrap();
        helios.preload(256, 16).unwrap();
        for i in 0..50 {
            let request = if i % 5 == 0 {
                put_request(256)
            } else {
                get_request(256)
            };
            let a = iridium.execute(&request);
            let b = helios.execute(&request);
            assert_eq!(a, b, "request {i} diverged");
        }
        assert_eq!(iridium.device_bytes(), helios.device_bytes());
    }

    #[test]
    fn helios_warm_tier_sits_between_iridium_and_mercury() {
        // A tier larger than the touched working set serves re-references
        // at DRAM speed, so warm GETs leave flash latency behind.
        let mut iridium = warmed(CoreSimConfig::iridium_a7(), 256);
        let mut helios = warmed(CoreSimConfig::helios_a7(64 << 20), 256);
        let mut mercury = warmed(CoreSimConfig::mercury_a7(), 256);
        let flash = iridium.execute(&get_request(256)).rtt;
        let hybrid = helios.execute(&get_request(256)).rtt;
        let dram = mercury.execute(&get_request(256)).rtt;
        assert!(
            hybrid < flash,
            "warm Helios GET ({hybrid}) should beat Iridium ({flash})"
        );
        assert!(hybrid >= dram, "Helios cannot beat pure DRAM ({dram})");
        assert!(
            hybrid.as_secs_f64() < dram.as_secs_f64() * 1.01,
            "warm hits should converge to Mercury speed ({hybrid} vs {dram})"
        );
        let stats = helios.tier_stats().expect("hybrid core exposes tier stats");
        assert!(
            stats.hit_rate() > 0.9,
            "warm tier hit rate {}",
            stats.hit_rate()
        );
        let (dram_bytes, flash_bytes) = helios.device_tier_bytes();
        assert_eq!(dram_bytes + flash_bytes, helios.device_bytes());
        assert!(dram_bytes > 0);
    }

    #[test]
    fn fig4_network_dominates_small_gets() {
        // Fig. 4a: ~87% network / ~10% store / 2-3% hash below 4 KB.
        let mut core = warmed(
            CoreSimConfig::mercury(CoreConfig::a15_1ghz(), true, Duration::from_nanos(10)),
            256,
        );
        let t = core.execute(&get_request(256));
        let total = t.server.as_secs_f64();
        let net = t.network.as_secs_f64() / total;
        let store = t.store.as_secs_f64() / total;
        let hash = t.hash.as_secs_f64() / total;
        assert!((0.75..0.95).contains(&net), "network share {net:.2}");
        assert!((0.04..0.2).contains(&store), "store share {store:.2}");
        assert!(hash < 0.08, "hash share {hash:.2}");
    }

    #[test]
    fn put_spends_more_in_store_than_get() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 1024);
        let g = core.execute(&get_request(1024));
        let p = core.execute(&put_request(1024));
        assert!(p.store > g.store, "Fig. 4b: PUT metadata work is larger");
    }

    #[test]
    fn larger_values_take_longer() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 64);
        core.preload(1 << 16, 4).unwrap();
        let small = core.execute(&get_request(64)).rtt;
        let big = core
            .execute(&Request {
                op: Op::Get,
                key: densekv_workload::key_bytes(2),
                value_bytes: 1 << 16,
            })
            .rtt;
        assert!(big > small * 2, "64 KB ({big}) vs 64 B ({small})");
    }

    #[test]
    fn memory_latency_sensitivity_without_l2() {
        let fast = {
            let mut c = warmed(
                CoreSimConfig::mercury(CoreConfig::a7_1ghz(), false, Duration::from_nanos(10)),
                64,
            );
            c.execute(&get_request(64)).rtt
        };
        let slow = {
            let mut c = warmed(
                CoreSimConfig::mercury(CoreConfig::a7_1ghz(), false, Duration::from_nanos(100)),
                64,
            );
            c.execute(&get_request(64)).rtt
        };
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!(
            ratio > 1.3,
            "no-L2 cores must feel DRAM latency (Fig. 5d): {ratio:.2}"
        );
    }

    #[test]
    fn l2_insulates_from_memory_latency() {
        let fast = {
            let mut c = warmed(CoreSimConfig::mercury_a7(), 64);
            c.execute(&get_request(64)).rtt
        };
        let slow = {
            let mut c = warmed(
                CoreSimConfig::mercury(CoreConfig::a7_1ghz(), true, Duration::from_nanos(100)),
                64,
            );
            c.execute(&get_request(64)).rtt
        };
        let ratio = slow.as_secs_f64() / fast.as_secs_f64();
        assert!(
            ratio < 1.15,
            "with an L2 the Fig. 5c curves are nearly flat: {ratio:.2}"
        );
    }

    #[test]
    fn iridium_without_l2_collapses() {
        // §6.2: removing the L2 yields average TPS below 100.
        let mut core = CoreSim::new(CoreSimConfig::iridium(
            CoreConfig::a7_1ghz(),
            false,
            Duration::from_micros(10),
        ))
        .unwrap();
        core.preload(64, 16).unwrap();
        for _ in 0..5 {
            core.execute(&get_request(64));
        }
        let t = core.execute(&get_request(64));
        let tps = 1.0 / t.rtt.as_secs_f64();
        assert!(tps < 150.0, "no-L2 Iridium: {tps:.0} TPS");
    }

    #[test]
    fn counters_track_traffic() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 4096);
        core.execute(&get_request(4096));
        assert!(core.device_bytes() > 4096, "value + buffers moved");
        assert!(core.wire_bytes() > 4096);
        core.reset_counters();
        assert_eq!(core.device_bytes(), 0);
        assert_eq!(core.wire_bytes(), 0);
    }

    #[test]
    fn get_miss_is_cheap_and_counted() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 64);
        let t = core.execute(&Request {
            op: Op::Get,
            key: b"never-stored".to_vec(),
            value_bytes: 64,
        });
        assert!(!t.hit);
        assert_eq!(core.store_stats().get_misses, 1);
    }

    #[test]
    fn multiget_amortizes_the_network_stack() {
        let mut core = warmed(CoreSimConfig::mercury_a7(), 64);
        core.preload(64, 32).unwrap();
        let keys: Vec<Vec<u8>> = (0..16).map(densekv_workload::key_bytes).collect();
        // Warm the batched path too.
        for _ in 0..30 {
            core.execute_multiget(&keys, 64);
        }
        let single = core.execute(&get_request(1)).rtt;
        let (batched, hits) = core.execute_multiget(&keys, 64);
        assert_eq!(hits, 16);
        let per_key = batched.rtt.as_secs_f64() / 16.0;
        let speedup = single.as_secs_f64() / per_key;
        assert!(
            speedup > 3.0,
            "batching 16 GETs should amortize the dominant network cost: {speedup:.2}x"
        );
        // But not 16x: per-key store work and response bytes remain.
        assert!(speedup < 16.0, "speedup {speedup:.2}x");
    }

    #[test]
    fn one_key_multiget_is_a_get() {
        // GET and multi-GET run one exchange: with one key they differ
        // only in the separator byte the batched request line carries.
        let helios = CoreSimConfig::helios_a7(64 << 20);
        for config in [
            CoreSimConfig::mercury_a7(),
            CoreSimConfig::iridium_a7(),
            helios,
        ] {
            for size in [64, 4096, 1 << 20] {
                let mut single = warmed(config.clone(), size);
                let mut batched = warmed(config.clone(), size);
                let key = densekv_workload::key_bytes(1);
                let (get, _) = single.execute_parts(Op::Get, &key, size);
                let (multi, hits) = batched.execute_multiget(std::slice::from_ref(&key), size);
                let case = format!("{:?} at {size} B", config.memory);
                assert_eq!(hits, 1, "{case}");
                assert_eq!(
                    (
                        multi.server,
                        multi.network,
                        multi.store,
                        multi.hash,
                        multi.hit
                    ),
                    (get.server, get.network, get.store, get.hash, get.hit),
                    "{case}"
                );
                let len = key.len() as u64;
                let separator = config.wire.one_way(len + 41) - config.wire.one_way(len + 40);
                assert_eq!(multi.rtt - get.rtt, separator, "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn empty_multiget_panics() {
        let mut core = CoreSim::new(CoreSimConfig::mercury_a7()).unwrap();
        core.execute_multiget(&[], 64);
    }
}
