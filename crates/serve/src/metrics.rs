//! The live observability plane: per-verb latency histograms (a verb's
//! count is its histogram's), connection counts, shard-lock contention
//! accounting, deterministic span sampling, and a slow-request log —
//! all fed by real wall-clock measurements from the TCP front-end.
//!
//! The instruments are the *same types* the simulator fills
//! ([`LogHistogram`], [`Tracer`]), bridged to wall
//! time by [`Stopwatch`]. That is the point: a `stats latency` reply
//! from the live server and a percentile row from the simulator are
//! directly comparable numbers, which is what lets `serve_validate`
//! treat the simulator as a timing oracle and what lets the
//! `serve_obs` experiment cross-check server-side percentiles against
//! the load generator's client-side view.
//!
//! Observability here is **opt-out passive**: with
//! [`MetricsConfig::enabled`] false every record call is a branch and
//! the data path produces byte-identical responses — the live analogue
//! of the simulator's "telemetry cannot change results" invariant.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::BytesMut;
use parking_lot::Mutex;

use densekv_kv::protocol::{Request, StoreVerb};
use densekv_sim::{Duration as SimDuration, SimTime};
use densekv_telemetry::{
    LogHistogram, Quantiles, SloConfig, SloSnapshot, SloTracker, SpanBuilder, Stopwatch, Tracer,
    WindowedHistogram, WindowedRate,
};

use crate::cells::ConnCells;
use crate::server::ServeStats;

/// Appends formatted text to a `BytesMut` or a `String`, neither of
/// which can refuse it.
macro_rules! put {
    ($out:expr, $($format:tt)*) => {{
        let _ = write!($out, $($format)*);
    }};
}

/// Number of protocol verbs the plane tracks (every [`Verb`] variant).
pub(crate) const VERB_COUNT: usize = 16;

/// A protocol verb as the observability plane classifies it: one label
/// per distinct command shape, with the six storage verbs split out so
/// `set` and `cas` latency are not blended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `get` / `gets`.
    Get,
    /// `set`.
    Set,
    /// `add`.
    Add,
    /// `replace`.
    Replace,
    /// `append`.
    Append,
    /// `prepend`.
    Prepend,
    /// `cas`.
    Cas,
    /// `incr`.
    Incr,
    /// `decr`.
    Decr,
    /// `delete`.
    Delete,
    /// `touch`.
    Touch,
    /// `flush_all`.
    FlushAll,
    /// `stats` and its sub-commands.
    Stats,
    /// The `metrics` exposition verb.
    Metrics,
    /// `version`.
    Version,
    /// `quit`.
    Quit,
}

impl Verb {
    /// Every verb, in the order `stats latency` reports them.
    pub const ALL: [Verb; VERB_COUNT] = [
        Verb::Get,
        Verb::Set,
        Verb::Add,
        Verb::Replace,
        Verb::Append,
        Verb::Prepend,
        Verb::Cas,
        Verb::Incr,
        Verb::Decr,
        Verb::Delete,
        Verb::Touch,
        Verb::FlushAll,
        Verb::Stats,
        Verb::Metrics,
        Verb::Version,
        Verb::Quit,
    ];

    /// Classifies a parsed request.
    #[must_use]
    pub fn of(request: &Request<'_>) -> Verb {
        match request {
            Request::Get { .. } => Verb::Get,
            Request::Set { verb, .. } => match verb {
                StoreVerb::Set => Verb::Set,
                StoreVerb::Add => Verb::Add,
                StoreVerb::Replace => Verb::Replace,
                StoreVerb::Append => Verb::Append,
                StoreVerb::Prepend => Verb::Prepend,
                StoreVerb::Cas => Verb::Cas,
            },
            Request::IncrDecr {
                decrement: false, ..
            } => Verb::Incr,
            Request::IncrDecr { .. } => Verb::Decr,
            Request::Delete { .. } => Verb::Delete,
            Request::Touch { .. } => Verb::Touch,
            Request::FlushAll => Verb::FlushAll,
            Request::Stats { .. } => Verb::Stats,
            Request::Metrics => Verb::Metrics,
            Request::Version => Verb::Version,
            Request::Quit => Verb::Quit,
        }
    }

    /// The wire-level verb name (also the trace span label).
    #[must_use]
    pub fn name(self) -> &'static str {
        VERB_NAMES[self.index()]
    }

    /// Dense index into the per-verb arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Wire name of every verb, in [`Verb::ALL`] order.
const VERB_NAMES: [&str; VERB_COUNT] = [
    "get",
    "set",
    "add",
    "replace",
    "append",
    "prepend",
    "cas",
    "incr",
    "decr",
    "delete",
    "touch",
    "flush_all",
    "stats",
    "metrics",
    "version",
    "quit",
];

/// How the front-end's observability plane is shaped.
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Master switch. Off = every instrument call is one branch and the
    /// data path is byte-identical to an uninstrumented server.
    pub enabled: bool,
    /// Trace every Nth request as a phase span (0 disables tracing
    /// while keeping counters/histograms on).
    pub sample_every: u64,
    /// Requests at or above this wall-clock latency land in the
    /// slow-request log.
    pub slow_threshold: std::time::Duration,
    /// Wall-clock length of one observation window — the rotation
    /// cadence of the windowed histograms, rates, and SLO tracker
    /// (clamped to ≥ 1 ms). The SLO is [`SloConfig::default`]: with
    /// the default 1 s window, its 5-short/60-long windows are the
    /// classic 5 s / 1 min multi-window burn-rate pair.
    pub window: std::time::Duration,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            enabled: true,
            sample_every: 1024,
            slow_threshold: std::time::Duration::from_millis(10),
            window: std::time::Duration::from_secs(1),
        }
    }
}

impl MetricsConfig {
    /// A fully inert plane (the byte-identity baseline).
    #[must_use]
    pub fn disabled() -> Self {
        MetricsConfig {
            enabled: false,
            ..MetricsConfig::default()
        }
    }
}

/// A point-in-time copy of one shard's lock counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLockSnapshot {
    /// Times the shard lock was taken.
    pub acquisitions: u64,
    /// Acquisitions where `try_lock` failed first (another worker held
    /// the shard) — the live analogue of the paper's §3.6 contention.
    pub contended: u64,
    /// Total nanoseconds spent waiting for the lock.
    pub wait_ns: u64,
    /// Total nanoseconds the lock was held.
    pub hold_ns: u64,
    /// Longest single hold, nanoseconds.
    pub(crate) hold_max_ns: u64,
}

impl ShardLockSnapshot {
    /// One acquisition.
    pub(crate) fn of(
        wait: std::time::Duration,
        hold: std::time::Duration,
        contended: bool,
    ) -> Self {
        let hold_ns = u64::try_from(hold.as_nanos()).unwrap_or(u64::MAX);
        ShardLockSnapshot {
            acquisitions: 1,
            contended: u64::from(contended),
            wait_ns: u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
            hold_ns,
            hold_max_ns: hold_ns,
        }
    }

    pub(crate) fn add(&mut self, more: &ShardLockSnapshot) {
        self.acquisitions += more.acquisitions;
        self.contended += more.contended;
        self.wait_ns += more.wait_ns;
        self.hold_ns += more.hold_ns;
        self.hold_max_ns = self.hold_max_ns.max(more.hold_max_ns);
    }
}

/// One entry of the slow-request log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowRequest {
    /// Global request sequence number.
    pub seq: u64,
    /// The verb that was slow.
    pub verb: Verb,
    /// Measured wall latency.
    pub latency: SimDuration,
    /// Server uptime when the request finished.
    pub at: SimDuration,
}

/// Why the flight recorder tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Trigger {
    /// `"slo-burn"`, `"shard-contention"`, or `"connection-saturation"`.
    pub reason: &'static str,
    /// The window index (1-based, counted since server start) whose
    /// close tripped the recorder.
    pub window: u64,
}

/// A point-in-time summary of one closed observation window — the unit
/// the flight recorder rings.
#[derive(Debug, Clone)]
pub(crate) struct WindowSnapshot {
    /// Window index, 1-based since server start (reset does not rewind
    /// it, so indices stay comparable across a `stats reset`).
    pub index: u64,
    /// Server uptime when the window closed.
    pub end_uptime: SimDuration,
    /// Requests completed in the window.
    pub total: u64,
    /// Requests that missed the latency objective.
    pub bad: u64,
    /// The window's latency quantiles.
    pub quantiles: Quantiles,
    /// Per-verb request counts (indexed by [`Verb::index`]).
    pub verbs: [u64; VERB_COUNT],
    /// Shard-lock acquisitions during the window (delta, all shards).
    pub lock_acquisitions: u64,
    /// Contended shard-lock acquisitions during the window.
    pub lock_contended: u64,
    /// Connections active when the window closed.
    pub conns_active: u64,
    /// Connections rejected `busy` during the window.
    pub conns_rejected: u64,
    /// Short-window SLO burn rate after this window.
    pub short_burn: f64,
    /// Long-window SLO burn rate after this window.
    pub long_burn: f64,
    /// The trigger this window tripped, if any.
    pub trigger: Option<&'static str>,
}

/// Bounded slow-log length; the oldest entry is dropped first.
const SLOW_LOG_CAPACITY: usize = 64;
/// Closed windows the `stats windows` ring retains.
const WINDOW_RETAIN: usize = 32;
/// Window snapshots the flight recorder retains.
const RECORDER_CAPACITY: usize = 32;
/// Contention trigger: at least this many acquisitions in the window…
const CONTENTION_MIN_ACQ: u64 = 16;
/// …of which at least half were contended.
const CONTENTION_FRACTION_NUM: u64 = 1;
const CONTENTION_FRACTION_DEN: u64 = 2;
/// Spans embedded in a flight-recorder dump (newest first retained).
const RECORDER_SPAN_CAP: usize = 64;
/// EWMA smoothing factor of the per-verb windowed rates.
const RATE_EWMA_ALPHA: f64 = 0.3;
/// Longest catch-up rotation run after an idle stretch; beyond this
/// many windows every ring and the SLO ledger are all-empty anyway, so
/// the rotation epoch just jumps.
const MAX_CATCHUP_WINDOWS: u64 = 128;

/// An empty histogram whose buckets already span every latency, so no
/// later sample, however slow, makes it allocate (a reset keeps them).
pub(crate) fn grown_histogram() -> LogHistogram {
    let mut histogram = LogHistogram::new();
    histogram.record(SimDuration::from_ps(u64::MAX));
    histogram.reset();
    histogram
}

/// Everything a flush writes — the cumulative histograms, the windowed
/// views and the slow log — mutated under one mutex, so a connection
/// pays one lock per drained batch.
struct Plane {
    /// Commands flushed so far: the next flush's first sequence number.
    seq: u64,
    /// Per-verb latency histograms (indexed by [`Verb::index`]); a
    /// verb's count is its histogram's.
    latency: [LogHistogram; VERB_COUNT],
    /// Per-shard lock accounting.
    shards: Vec<ShardLockSnapshot>,
    /// The slow-request log, oldest first.
    slow: VecDeque<SlowRequest>,
    /// Windows closed since server start (monotonic; reset keeps it).
    closed: u64,
    /// Windowed view of all-verb latency.
    overall: WindowedHistogram,
    /// Per-verb windowed request rates.
    rates: [WindowedRate; VERB_COUNT],
    /// Multi-window burn-rate tracking against the objective.
    slo: SloTracker,
    /// The flight recorder's snapshot ring, oldest first.
    recorder: VecDeque<WindowSnapshot>,
    /// The most recent trigger edge.
    last_trigger: Option<Trigger>,
    /// Whether the previous closed window was in a triggered state
    /// (only a rising edge becomes `last_trigger`).
    triggered: bool,
    /// Totals at the last window close or reset, for per-window deltas.
    prev_acquisitions: u64,
    prev_contended: u64,
    prev_rejected: u64,
}

/// The wall-clock phase breakdown of one sampled request, mirroring the
/// simulator's NIC→TCP→kv→memory decomposition (paper Fig. 4) with the
/// phases a real socket server actually has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RequestPhases {
    /// The socket read that delivered this request's bytes.
    pub recv: std::time::Duration,
    /// Protocol parse.
    pub parse: std::time::Duration,
    /// Waiting for the shard lock(s).
    pub lock_wait: std::time::Duration,
    /// Store execution (lock held) plus response rendering.
    pub store: std::time::Duration,
    /// Writing the response back to the socket.
    pub write: std::time::Duration,
}

/// The front-end's live observability plane, and the server's one
/// count of open and refused connections and its one connection cap.
///
/// Shared by every worker thread, which is why workers do not record
/// into it directly: each [`crate::Session`] fills its own cells and
/// flushes them once per written batch. Spans sit behind their own
/// mutex (one lock per sampled request). Constructed from a disabled
/// [`MetricsConfig`], all of it is inert except the connection counts
/// and cap, which admission and [`ServeStats`] read either way.
pub struct ServeMetrics {
    enabled: bool,
    sample_every: u64,
    slow_threshold: std::time::Duration,
    start: Stopwatch,
    tracer: Mutex<Tracer>,
    /// Rotation cadence (clamped ≥ 1 ms), and its picosecond form the
    /// boundary check divides by.
    window: std::time::Duration,
    window_ps: u64,
    plane: Mutex<Plane>,
    /// Connections in service, and connections ever refused `busy`
    /// (`stats reset` keeps it). Relaxed: no other data rides on them,
    /// and only the accept thread adds to `conn_active`.
    conn_active: AtomicU64,
    conn_rejected: AtomicU64,
    /// The most connections in service at once; 0 until
    /// [`ServeMetrics::with_connection_capacity`] sets it.
    conn_capacity: u64,
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("enabled", &self.enabled)
            .field("sample_every", &self.sample_every)
            .finish_non_exhaustive()
    }
}

impl ServeMetrics {
    /// Builds the plane for a server with `shards` lock stripes.
    #[must_use]
    pub fn new(config: &MetricsConfig, shards: usize) -> Self {
        let tracer = if config.enabled && config.sample_every > 0 {
            Tracer::every(config.sample_every)
        } else {
            Tracer::disabled()
        };
        let window = config.window.max(std::time::Duration::from_millis(1));
        let window_sim = SimDuration::from_std(window);
        // Every histogram a flush writes spans its full range from the
        // start, so no sample makes a worker allocate under the plane
        // lock. Merging an empty grown histogram grows the open window.
        let mut overall = WindowedHistogram::new(WINDOW_RETAIN);
        overall.record_all(&grown_histogram());
        let plane = Plane {
            seq: 0,
            latency: std::array::from_fn(|_| grown_histogram()),
            shards: vec![ShardLockSnapshot::default(); shards],
            slow: VecDeque::with_capacity(SLOW_LOG_CAPACITY),
            closed: 0,
            overall,
            rates: std::array::from_fn(|_| WindowedRate::new(window_sim, RATE_EWMA_ALPHA)),
            slo: SloTracker::new(SloConfig::default()),
            recorder: VecDeque::new(),
            last_trigger: None,
            triggered: false,
            prev_acquisitions: 0,
            prev_contended: 0,
            prev_rejected: 0,
        };
        ServeMetrics {
            enabled: config.enabled,
            sample_every: config.sample_every,
            slow_threshold: config.slow_threshold,
            start: Stopwatch::start(),
            tracer: Mutex::new(tracer),
            window,
            window_ps: window_sim.as_ps().max(1),
            plane: Mutex::new(plane),
            conn_active: AtomicU64::new(0),
            conn_rejected: AtomicU64::new(0),
            conn_capacity: 0,
        }
    }

    /// Whether any instrument records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Empty cells for one connection of this server.
    #[must_use]
    pub(crate) fn cells(&self) -> ConnCells {
        ConnCells::new(
            self.plane.lock().shards.len(),
            SLOW_LOG_CAPACITY,
            self.slow_threshold,
            if self.enabled { self.sample_every } else { 0 },
        )
    }

    /// Closes every window whose wall-clock boundary has passed. Called
    /// with the plane lock held; cheap when no boundary crossed (one
    /// division and a compare). After a long idle stretch the epoch
    /// jumps rather than replaying thousands of empty rotations —
    /// beyond [`MAX_CATCHUP_WINDOWS`] every bounded ring would be
    /// all-empty either way.
    fn rotate_due(&self, plane: &mut Plane, now: Instant) {
        let uptime = SimDuration::from_std(now - self.start.started_at());
        let target = uptime.as_ps() / self.window_ps;
        if plane.closed >= target {
            return;
        }
        let missed = target - plane.closed;
        if missed > MAX_CATCHUP_WINDOWS {
            plane.closed = target - MAX_CATCHUP_WINDOWS;
        }
        while plane.closed < target {
            self.close_window(plane);
        }
    }

    /// Closes the open window: rotates the histogram ring and the
    /// per-verb rates, feeds the SLO tracker, snapshots the window for
    /// the flight recorder, and records a rising trigger edge.
    fn close_window(&self, plane: &mut Plane) {
        let closed_hist = plane.overall.rotate();
        let total = closed_hist.count();
        let objective = plane.slo.config().objective;
        let within = closed_hist.fraction_within(objective).unwrap_or(1.0);
        let good = ((within * total as f64).round() as u64).min(total);
        let bad = total - good;
        plane.slo.observe_window(total, bad);
        let mut verbs = [0u64; VERB_COUNT];
        for (i, rate) in plane.rates.iter_mut().enumerate() {
            rate.rotate();
            verbs[i] = rate.last_count();
        }
        let acq: u64 = plane.shards.iter().map(|s| s.acquisitions).sum();
        let contended: u64 = plane.shards.iter().map(|s| s.contended).sum();
        let lock_acquisitions = acq.saturating_sub(plane.prev_acquisitions);
        let lock_contended = contended.saturating_sub(plane.prev_contended);
        plane.prev_acquisitions = acq;
        plane.prev_contended = contended;
        let rejected_total = self.conn_rejected.load(Ordering::Relaxed);
        let conns_rejected = rejected_total.saturating_sub(plane.prev_rejected);
        plane.prev_rejected = rejected_total;
        let conns_active = self.conn_active.load(Ordering::Relaxed);

        let short_burn = plane.slo.short_burn();
        let long_burn = plane.slo.long_burn();
        let trigger = if plane.slo.alerting() {
            Some("slo-burn")
        } else if lock_acquisitions >= CONTENTION_MIN_ACQ
            && lock_contended * CONTENTION_FRACTION_DEN
                >= lock_acquisitions * CONTENTION_FRACTION_NUM
        {
            Some("shard-contention")
        } else if conns_rejected > 0
            || (self.conn_capacity > 0 && conns_active >= self.conn_capacity)
        {
            Some("connection-saturation")
        } else {
            None
        };

        plane.closed += 1;
        let snapshot = WindowSnapshot {
            index: plane.closed,
            end_uptime: self.start.elapsed(),
            total,
            bad,
            quantiles: closed_hist.quantiles(),
            verbs,
            lock_acquisitions,
            lock_contended,
            conns_active,
            conns_rejected,
            short_burn,
            long_burn,
            trigger,
        };
        // Idle windows with nothing to say are not recorded, so one
        // request after a quiet hour still has history behind it.
        if total > 0 || lock_acquisitions > 0 || conns_rejected > 0 || trigger.is_some() {
            if plane.recorder.len() == RECORDER_CAPACITY {
                plane.recorder.pop_front();
            }
            plane.recorder.push_back(snapshot);
        }
        match trigger {
            Some(reason) => {
                if !plane.triggered {
                    plane.last_trigger = Some(Trigger {
                        reason,
                        window: plane.closed,
                    });
                }
                plane.triggered = true;
            }
            None => plane.triggered = false,
        }
    }

    /// Folds a connection's cells into the plane and empties them: per
    /// verb, the count goes to its windowed rate and the latencies to
    /// its histogram and the windowed all-verb view; slow
    /// commands join the slow log; lock accounting joins the shards'.
    /// Rotates any window due at `now` first. Returns the sequence
    /// number of the first command flushed (the rest follow in order).
    pub(crate) fn flush(&self, cells: &mut ConnCells, now: Instant) -> u64 {
        if !self.enabled || cells.commands == 0 {
            return 0;
        }
        let mut plane = self.plane.lock();
        let first = plane.seq;
        plane.seq += std::mem::take(&mut cells.commands);
        self.rotate_due(&mut plane, now);
        for (i, samples) in cells.latency.iter_mut().enumerate() {
            if samples.count() == 0 {
                continue;
            }
            plane.overall.record_all(samples);
            plane.rates[i].record(samples.count());
            plane.latency[i].merge(samples);
            samples.reset();
        }
        for (position, verb, latency, end) in cells.slow.drain(..) {
            if plane.slow.len() == SLOW_LOG_CAPACITY {
                plane.slow.pop_front();
            }
            plane.slow.push_back(SlowRequest {
                seq: first + position,
                verb,
                latency: SimDuration::from_std(latency),
                at: SimDuration::from_std(end - self.start.started_at()),
            });
        }
        for (total, delta) in plane.shards.iter_mut().zip(&mut cells.shards) {
            if delta.acquisitions > 0 {
                total.add(&std::mem::take(delta));
            }
        }
        first
    }

    /// Records one shard-lock acquisition: how long the worker waited,
    /// how long it held, and whether `try_lock` lost the race.
    pub(crate) fn record_shard(
        &self,
        shard: usize,
        wait: std::time::Duration,
        hold: std::time::Duration,
        contended: bool,
    ) {
        if !self.enabled {
            return;
        }
        if let Some(total) = self.plane.lock().shards.get_mut(shard) {
            total.add(&ShardLockSnapshot::of(wait, hold, contended));
        }
    }

    /// Builds and stores the phase span of sampled request `seq`. The
    /// span is timestamped by server uptime (end minus the measured
    /// phase total), `pid` 1, `tid` = the connection id, so Perfetto
    /// shows per-connection lanes just like the simulator's traces.
    pub(crate) fn record_span(
        &self,
        seq: u64,
        verb: Verb,
        connection: u32,
        phases: &RequestPhases,
    ) {
        if !self.enabled {
            return;
        }
        let total = SimDuration::from_std(
            phases.recv + phases.parse + phases.lock_wait + phases.store + phases.write,
        );
        let offset = self.start.elapsed().saturating_sub(total);
        let mut span = SpanBuilder::new(seq, verb.name(), 1, connection, SimTime::ZERO + offset);
        span.phase("recv", SimDuration::from_std(phases.recv))
            .phase("parse", SimDuration::from_std(phases.parse))
            .phase("shard-lock", SimDuration::from_std(phases.lock_wait))
            .phase("store", SimDuration::from_std(phases.store))
            .phase("write", SimDuration::from_std(phases.write));
        self.tracer.lock().push(span.build());
    }

    /// Number of spans collected so far.
    #[must_use]
    pub fn spans_recorded(&self) -> usize {
        self.tracer.lock().spans().len()
    }

    /// The collected spans as Chrome trace-event JSON (Perfetto-ready).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn trace_chrome_json(&self) -> String {
        self.tracer.lock().to_chrome_json()
    }

    /// Chrome trace-event JSON of only the newest `max` spans — for
    /// checked-in artifacts where the full trace would be megabytes.
    #[must_use]
    pub fn trace_chrome_json_capped(&self, max: usize) -> String {
        self.tracer.lock().to_chrome_json_capped(max)
    }

    /// The slow-request log, oldest first.
    #[must_use]
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.plane.lock().slow.iter().copied().collect()
    }

    /// Quantiles of one verb's latency histogram (zeros when no
    /// requests of that verb have completed).
    #[must_use]
    pub fn verb_quantiles(&self, verb: Verb) -> Quantiles {
        self.plane.lock().latency[verb.index()].quantiles()
    }

    /// Quantiles over every verb's samples folded into one histogram —
    /// the server-side "all traffic" view the `serve_obs` experiment
    /// cross-checks against the load generator's client-side histogram.
    #[must_use]
    pub fn overall_quantiles(&self) -> Quantiles {
        let mut all = LogHistogram::new();
        for histogram in &self.plane.lock().latency {
            all.merge(histogram);
        }
        all.quantiles()
    }

    /// Point-in-time copies of every shard's lock counters.
    #[must_use]
    pub fn shard_snapshots(&self) -> Vec<ShardLockSnapshot> {
        self.plane.lock().shards.clone()
    }

    /// The plane with the server's connection cap, which
    /// [`ServeMetrics::admit`] and the saturation trigger read.
    #[must_use]
    pub(crate) fn with_connection_capacity(mut self, capacity: usize) -> Self {
        self.conn_capacity = capacity as u64;
        self
    }

    /// Puts one more connection in service, or, with the cap full,
    /// counts it refused and returns false.
    pub(crate) fn admit(&self) -> bool {
        if self.connections_active() >= self.conn_capacity {
            self.connection_rejected();
            return false;
        }
        self.conn_active.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// One connection left service.
    pub(crate) fn connection_closed(&self) {
        self.conn_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// One connection was refused `SERVER_ERROR busy`.
    pub(crate) fn connection_rejected(&self) {
        self.conn_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections in service now.
    pub(crate) fn connections_active(&self) -> u64 {
        self.conn_active.load(Ordering::Relaxed)
    }

    /// Connections refused `SERVER_ERROR busy` since server start.
    pub(crate) fn connections_rejected(&self) -> u64 {
        self.conn_rejected.load(Ordering::Relaxed)
    }

    /// Windows closed since server start. Rotates due windows first, so
    /// polling this advances the plane even on an idle server.
    #[must_use]
    pub fn windows_closed(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut plane = self.plane.lock();
        self.rotate_due(&mut plane, Instant::now());
        plane.closed
    }

    /// Closes the open window immediately, regardless of the wall
    /// clock — the deterministic hook tests and experiments use to
    /// drive rotation without sleeping.
    #[cfg(test)]
    pub(crate) fn rotate_now(&self) {
        if !self.enabled {
            return;
        }
        let mut plane = self.plane.lock();
        self.close_window(&mut plane);
    }

    /// The flight recorder's current snapshot ring, oldest first.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn window_snapshots(&self) -> Vec<WindowSnapshot> {
        if !self.enabled {
            return Vec::new();
        }
        let mut plane = self.plane.lock();
        self.rotate_due(&mut plane, Instant::now());
        plane.recorder.iter().cloned().collect()
    }

    /// The most recent trigger edge, if the recorder ever tripped.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn last_trigger(&self) -> Option<Trigger> {
        self.plane.lock().last_trigger
    }

    /// The SLO tracker's current reading (rotating due windows first).
    #[must_use]
    pub fn slo_snapshot(&self) -> SloSnapshot {
        let mut plane = self.plane.lock();
        if self.enabled {
            self.rotate_due(&mut plane, Instant::now());
        }
        plane.slo.snapshot()
    }

    /// The on-demand flight-recorder dump (`stats dump`): rotates due
    /// windows, then serializes the snapshot ring, SLO state, slow log,
    /// and the newest sampled spans as one JSON object.
    #[must_use]
    pub fn flight_recorder_json(&self) -> String {
        if !self.enabled {
            return "{\"format\":\"densekv-flight-recorder-v1\",\"enabled\":false}".to_owned();
        }
        let mut plane = self.plane.lock();
        self.rotate_due(&mut plane, Instant::now());
        let mut out = String::from("{\"format\":\"densekv-flight-recorder-v1\",\"enabled\":true");
        put!(
            out,
            ",\"uptime_us\":{:.1},\"window_ms\":{},\"windows_closed\":{}",
            self.start.elapsed().as_micros_f64(),
            self.window.as_millis(),
            plane.closed
        );
        match plane.last_trigger {
            Some(t) => put!(
                out,
                ",\"trigger\":{{\"reason\":\"{}\",\"window\":{}}}",
                t.reason,
                t.window
            ),
            None => out.push_str(",\"trigger\":null"),
        }
        let slo = plane.slo.snapshot();
        let config = plane.slo.config();
        put!(
            out,
            ",\"slo\":{{\"objective_us\":{:.1},\"target\":{},\"short_burn\":{:.4},\
             \"long_burn\":{:.4},\"alerting\":{},\"windows\":{},\"total\":{},\"bad\":{}}}",
            config.objective.as_micros_f64(),
            config.target,
            slo.short_burn,
            slo.long_burn,
            slo.alerting,
            slo.windows,
            slo.total,
            slo.bad
        );
        out.push_str(",\"windows\":[");
        for (i, w) in plane.recorder.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put!(
                out,
                "{{\"index\":{},\"end_uptime_us\":{:.1},\"total\":{},\"bad\":{},\
                 \"p50_us\":{:.2},\"p95_us\":{:.2},\"p99_us\":{:.2},\
                 \"lock_acquisitions\":{},\"lock_contended\":{},\
                 \"conns_active\":{},\"conns_rejected\":{},\
                 \"short_burn\":{:.4},\"long_burn\":{:.4},\"trigger\":{},\"verbs\":{{",
                w.index,
                w.end_uptime.as_micros_f64(),
                w.total,
                w.bad,
                w.quantiles.p50.as_micros_f64(),
                w.quantiles.p95.as_micros_f64(),
                w.quantiles.p99.as_micros_f64(),
                w.lock_acquisitions,
                w.lock_contended,
                w.conns_active,
                w.conns_rejected,
                w.short_burn,
                w.long_burn,
                match w.trigger {
                    Some(r) => format!("\"{r}\""),
                    None => "null".to_owned(),
                }
            );
            let mut first = true;
            for verb in Verb::ALL {
                let n = w.verbs[verb.index()];
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                put!(out, "\"{}\":{n}", verb.name());
            }
            out.push_str("}}");
        }
        out.push_str("],\"slow\":[");
        for (i, s) in plane.slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            put!(
                out,
                "{{\"seq\":{},\"verb\":\"{}\",\"latency_us\":{:.2},\"at_us\":{:.1}}}",
                s.seq,
                s.verb.name(),
                s.latency.as_micros_f64(),
                s.at.as_micros_f64()
            );
        }
        out.push_str("],\"trace\":");
        // The tracer lock inside the plane lock: nothing ever takes the
        // plane lock while holding the tracer lock, so the order is safe.
        out.push_str(&self.tracer.lock().to_chrome_json_capped(RECORDER_SPAN_CAP));
        out.push('}');
        out
    }

    /// Renders the `stats windows` reply: the rotation cadence, the
    /// per-verb windowed rates (last window + EWMA, events/sec), and
    /// per-window count/p50/p95/p99 for every window still in the ring
    /// (keyed by absolute window index, so a poller can align frames),
    /// terminated by `END`. Rotates due windows first, so polling this
    /// verb is what keeps an otherwise idle server's windows current.
    pub(crate) fn render_stats_windows(&self, out: &mut BytesMut) {
        if self.enabled {
            let mut plane = self.plane.lock();
            self.rotate_due(&mut plane, Instant::now());
            put!(out, "STAT window_ms {}\r\n", self.window.as_millis());
            put!(out, "STAT windows_closed {}\r\n", plane.closed);
            put!(
                out,
                "STAT windows_retained {}\r\n",
                plane.overall.retained()
            );
            for verb in Verb::ALL {
                if plane.latency[verb.index()].count() == 0 {
                    continue;
                }
                let rate = &plane.rates[verb.index()];
                let n = verb.name();
                put!(out, "STAT rate_{n} {:.1}\r\n", rate.last_rate());
                put!(out, "STAT rate_{n}_ewma {:.1}\r\n", rate.ewma_rate());
            }
            let retained = plane.overall.retained() as u64;
            for (j, h) in plane.overall.windows().enumerate() {
                let idx = plane.closed - retained + j as u64 + 1;
                let q = h.quantiles();
                put!(out, "STAT win_{idx}_count {}\r\n", q.count);
                for (stat, d) in [("p50", q.p50), ("p95", q.p95), ("p99", q.p99)] {
                    put!(out, "STAT win_{idx}_{stat}_us {:.2}\r\n", d.as_micros_f64());
                }
            }
        }
        out.extend_from_slice(b"END\r\n");
    }

    /// Renders the `stats slo` reply: objective, target, burn rates,
    /// alert state, and the lifetime good/bad ledger, terminated by
    /// `END`.
    pub(crate) fn render_stats_slo(&self, out: &mut BytesMut) {
        if self.enabled {
            let mut plane = self.plane.lock();
            self.rotate_due(&mut plane, Instant::now());
            let snap = plane.slo.snapshot();
            let config = plane.slo.config();
            put!(
                out,
                "STAT slo_objective_us {:.1}\r\n",
                config.objective.as_micros_f64()
            );
            put!(out, "STAT slo_target {}\r\n", config.target);
            put!(out, "STAT slo_window_ms {}\r\n", self.window.as_millis());
            for (stat, v) in [
                ("slo_short_windows", config.short_windows as u64),
                ("slo_long_windows", config.long_windows as u64),
                ("slo_windows", snap.windows),
                ("slo_total", snap.total),
                ("slo_bad", snap.bad),
                ("slo_alerting", u64::from(snap.alerting)),
            ] {
                put!(out, "STAT {stat} {v}\r\n");
            }
            for (stat, v) in [
                ("slo_short_burn", snap.short_burn),
                ("slo_long_burn", snap.long_burn),
            ] {
                put!(out, "STAT {stat} {v:.4}\r\n");
            }
        }
        out.extend_from_slice(b"END\r\n");
    }

    /// The `stats reset` semantics: zero the per-verb histograms and
    /// shard-lock counters, clear the slow log, and clear the *entire*
    /// windowed plane — histogram ring, per-verb rates, SLO ledger,
    /// flight recorder, trigger state — in one atomic step (everything
    /// happens under the plane lock, so no window can rotate half-reset
    /// state into the ring). Kept: collected spans, the sequence
    /// counter (sampling cadence is unaffected), the connection counts,
    /// and the window numbering/rotation cadence — window indices keep
    /// counting from server start so they stay comparable across a
    /// reset. The next window counts only the refusals after it.
    pub fn reset(&self) {
        let mut plane = self.plane.lock();
        for histogram in &mut plane.latency {
            histogram.reset();
        }
        plane.shards.fill(ShardLockSnapshot::default());
        plane.slow.clear();
        plane.overall.reset();
        for rate in &mut plane.rates {
            rate.reset();
        }
        plane.slo.reset();
        plane.recorder.clear();
        plane.last_trigger = None;
        plane.triggered = false;
        plane.prev_acquisitions = 0;
        plane.prev_contended = 0;
        plane.prev_rejected = self.connections_rejected();
    }

    /// Renders the `stats latency` reply: per-verb count, mean, and
    /// p50/p90/p95/p99/p999/max in microseconds, only for verbs that
    /// have traffic, terminated by `END`.
    pub(crate) fn render_stats_latency(&self, out: &mut BytesMut) {
        let plane = self.plane.lock();
        for verb in Verb::ALL {
            let h = &plane.latency[verb.index()];
            if h.count() == 0 {
                continue;
            }
            let q = h.quantiles();
            let n = verb.name();
            put!(out, "STAT {n}_count {}\r\n", q.count);
            for (stat, d) in [
                ("mean", q.mean),
                ("p50", q.p50),
                ("p90", q.p90),
                ("p95", q.p95),
                ("p99", q.p99),
                ("p999", q.p999),
                ("max", q.max),
            ] {
                put!(out, "STAT {n}_{stat}_us {:.2}\r\n", d.as_micros_f64());
            }
        }
        out.extend_from_slice(b"END\r\n");
    }

    /// Renders the `stats shards` reply: per-shard item/byte occupancy
    /// plus lock acquisition, contention, wait, and hold accounting.
    pub(crate) fn render_stats_shards(
        &self,
        per_shard: &[densekv_kv::store::StoreStats],
        out: &mut BytesMut,
    ) {
        let locks = self.shard_snapshots();
        for (i, stats) in per_shard.iter().enumerate() {
            let lock = locks.get(i).copied().unwrap_or_default();
            for (stat, v) in [
                ("items", stats.items),
                ("bytes", stats.bytes),
                ("get_hits", stats.get_hits),
                ("lock_acquisitions", lock.acquisitions),
                ("lock_contended", lock.contended),
                ("lock_hold_max_ns", lock.hold_max_ns),
            ] {
                put!(out, "STAT shard_{i}_{stat} {v}\r\n");
            }
            for (stat, ns) in [
                ("lock_wait_us", lock.wait_ns),
                ("lock_hold_us", lock.hold_ns),
            ] {
                put!(out, "STAT shard_{i}_{stat} {:.1}\r\n", ns as f64 / 1e3);
            }
        }
        out.extend_from_slice(b"END\r\n");
    }
}

/// Renders the full `metrics` verb body: front-end counters, store
/// counters, the active-connection gauge, per-verb latency summaries
/// and shard-lock series — one scrape-ready Prometheus text block.
#[must_use]
pub(crate) fn render_prometheus(
    metrics: &ServeMetrics,
    serve: &ServeStats,
    store: &densekv_kv::store::StoreStats,
    engine: &[(String, u64)],
) -> String {
    let mut out = String::new();
    for (name, v) in [
        ("accepted", serve.accepted),
        ("rejected_busy", serve.rejected_busy),
        ("commands", serve.commands),
        ("bytes_in", serve.bytes_in),
        ("bytes_out", serve.bytes_out),
        ("timeouts", serve.timeouts),
        ("protocol_errors", serve.protocol_errors),
    ] {
        put!(
            out,
            "# TYPE densekv_serve_{name} counter\ndensekv_serve_{name} {v}\n"
        );
    }
    put!(
        out,
        "# TYPE densekv_serve_uptime_seconds gauge\ndensekv_serve_uptime_seconds {:.3}\n",
        metrics.start.elapsed().as_secs_f64()
    );
    densekv_kv::server::write_store_metrics(store, &mut out);
    // Backend-internal gauges (tier occupancy, bitmap fill, probe
    // lengths) when the engine is serving; empty under the model store.
    for (name, v) in engine {
        put!(out, "# TYPE densekv_{name} gauge\ndensekv_{name} {v}\n");
    }
    put!(
        out,
        "# TYPE serve_connections_active gauge\nserve_connections_active {}\n",
        metrics.connections_active()
    );
    // Each verb's histogram becomes a summary: quantiles in seconds,
    // then the exact `_sum` and `_count`.
    for (verb, h) in Verb::ALL.iter().zip(&metrics.plane.lock().latency) {
        let name = verb.name();
        put!(out, "# TYPE serve_latency_{name} summary\n");
        let q = h.quantiles();
        for (label, d) in [
            ("0.5", q.p50),
            ("0.9", q.p90),
            ("0.95", q.p95),
            ("0.99", q.p99),
            ("0.999", q.p999),
        ] {
            let seconds = d.as_secs_f64();
            put!(
                out,
                "serve_latency_{name}{{quantile=\"{label}\"}} {seconds}\n"
            );
        }
        let (sum, count) = (h.sum().as_secs_f64(), q.count);
        put!(
            out,
            "serve_latency_{name}_sum {sum}\nserve_latency_{name}_count {count}\n"
        );
    }
    // Shard locks become labeled series (`{shard="i"}`), so a scrape
    // sees contention per stripe without N distinct metric names.
    let locks = metrics.shard_snapshots();
    for (metric, get) in [
        (
            "densekv_shard_lock_acquisitions",
            (|l: &ShardLockSnapshot| l.acquisitions) as fn(&ShardLockSnapshot) -> u64,
        ),
        ("densekv_shard_lock_contended", |l| l.contended),
        ("densekv_shard_lock_wait_ns", |l| l.wait_ns),
        ("densekv_shard_lock_hold_ns", |l| l.hold_ns),
        ("densekv_shard_lock_hold_max_ns", |l| l.hold_max_ns),
    ] {
        put!(out, "# TYPE {metric} counter\n");
        for (i, lock) in locks.iter().enumerate() {
            put!(out, "{metric}{{shard=\"{i}\"}} {}\n", get(lock));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One command through a connection's cells and straight into the
    /// plane, as a worker with nothing else buffered flushes it.
    fn record(m: &ServeMetrics, verb: Verb, latency: std::time::Duration) {
        let mut cells = m.cells();
        cells.record(verb, latency, Instant::now());
        m.flush(&mut cells, Instant::now());
    }

    #[test]
    fn verb_classification_covers_the_protocol() {
        use densekv_kv::protocol::Command;
        let get = Command::Get {
            keys: vec![bytes::Bytes::from_static(b"k")],
            with_cas: false,
        };
        assert_eq!(Verb::of(&get.as_request()), Verb::Get);
        assert_eq!(Verb::of(&Request::Metrics), Verb::Metrics);
        assert_eq!(Verb::of(&Request::Stats { arg: None }), Verb::Stats);
        // Names and indices are all distinct.
        let mut names: Vec<_> = Verb::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), VERB_COUNT);
        for (i, v) in Verb::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
        }
    }

    #[test]
    fn record_and_render_latency_stats() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 4);
        for us in [100u64, 200, 300] {
            record(&m, Verb::Get, std::time::Duration::from_micros(us));
        }
        record(&m, Verb::Set, std::time::Duration::from_micros(50));
        let q = m.verb_quantiles(Verb::Get);
        assert_eq!(q.count, 3);
        assert!(q.p50 >= SimDuration::from_micros(200));
        let mut out = BytesMut::new();
        m.render_stats_latency(&mut out);
        let text = String::from_utf8(out.to_vec()).unwrap();
        assert!(text.contains("STAT get_count 3\r\n"), "{text}");
        assert!(text.contains("STAT get_p99_us "), "{text}");
        assert!(text.contains("STAT set_count 1\r\n"), "{text}");
        // Untouched verbs are omitted entirely.
        assert!(!text.contains("STAT cas_"), "{text}");
        assert!(text.ends_with("END\r\n"), "{text}");
    }

    #[test]
    fn disabled_plane_is_inert() {
        let m = ServeMetrics::new(&MetricsConfig::disabled(), 2);
        assert!(!m.is_enabled());
        record(&m, Verb::Get, std::time::Duration::from_micros(10));
        m.record_shard(0, Default::default(), Default::default(), true);
        m.record_span(0, Verb::Get, 7, &RequestPhases::default());
        assert_eq!(m.verb_quantiles(Verb::Get).count, 0);
        assert_eq!(m.shard_snapshots()[0], ShardLockSnapshot::default());
        assert_eq!(m.spans_recorded(), 0);
        assert!(!m.cells().sampled());
    }

    #[test]
    fn sampling_is_deterministic_every_nth() {
        let m = ServeMetrics::new(
            &MetricsConfig {
                sample_every: 4,
                ..MetricsConfig::default()
            },
            1,
        );
        // Per connection: its first command and every fourth after it.
        let mut cells = m.cells();
        let sampled: Vec<u64> = (0..10).filter(|_| cells.sampled()).collect();
        assert_eq!(sampled, vec![0, 4, 8]);
        // Sequence numbers are handed out in flush order.
        let now = Instant::now();
        for _ in 0..3 {
            cells.record(Verb::Get, std::time::Duration::ZERO, now);
        }
        assert_eq!(m.flush(&mut cells, now), 0);
        cells.record(Verb::Get, std::time::Duration::ZERO, now);
        assert_eq!(m.flush(&mut cells, now), 3);
    }

    #[test]
    fn spans_tile_the_phase_breakdown() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 1);
        let phases = RequestPhases {
            recv: std::time::Duration::from_micros(5),
            parse: std::time::Duration::from_micros(2),
            lock_wait: std::time::Duration::from_micros(1),
            store: std::time::Duration::from_micros(10),
            write: std::time::Duration::from_micros(3),
        };
        m.record_span(42, Verb::Get, 7, &phases);
        assert_eq!(m.spans_recorded(), 1);
        let json = m.trace_chrome_json();
        for phase in ["recv", "parse", "shard-lock", "store", "write"] {
            assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{json}");
        }
        assert!(json.contains("\"tid\":7"), "{json}");
        densekv_telemetry::validate_json(&json).expect("trace must be valid JSON");
    }

    #[test]
    fn shard_lock_accounting_accumulates_and_resets() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 2);
        let us = std::time::Duration::from_micros;
        m.record_shard(0, us(5), us(10), true);
        m.record_shard(0, us(0), us(20), false);
        m.record_shard(1, us(1), us(2), false);
        let snaps = m.shard_snapshots();
        assert_eq!(snaps[0].acquisitions, 2);
        assert_eq!(snaps[0].contended, 1);
        assert_eq!(snaps[0].wait_ns, 5_000);
        assert_eq!(snaps[0].hold_ns, 30_000);
        assert_eq!(snaps[0].hold_max_ns, 20_000);
        assert_eq!(snaps[1].acquisitions, 1);
        record(&m, Verb::Get, us(100));
        m.reset();
        assert_eq!(m.shard_snapshots()[0], ShardLockSnapshot::default());
        assert_eq!(m.verb_quantiles(Verb::Get).count, 0);
        // The plane records on after the reset.
        record(&m, Verb::Get, us(10));
        assert_eq!(m.verb_quantiles(Verb::Get).count, 1);
    }

    #[test]
    fn slow_log_is_bounded_and_ordered() {
        let m = ServeMetrics::new(
            &MetricsConfig {
                slow_threshold: std::time::Duration::from_micros(100),
                ..MetricsConfig::default()
            },
            1,
        );
        record(&m, Verb::Get, std::time::Duration::from_micros(50));
        let last = SLOW_LOG_CAPACITY as u64 + 1;
        for _ in 1..=last {
            record(&m, Verb::Set, std::time::Duration::from_micros(200));
        }
        let slow = m.slow_requests();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY, "capacity bound");
        assert_eq!(
            (slow[0].seq, slow[SLOW_LOG_CAPACITY - 1].seq),
            (2, last),
            "oldest dropped first"
        );
        assert_eq!(slow[0].verb, Verb::Set);
        assert!(slow[0].latency >= SimDuration::from_micros(200));
    }

    /// A latency five times the default 1 ms objective.
    const MISS: std::time::Duration = std::time::Duration::from_millis(5);

    #[test]
    fn windows_rotate_deterministically_and_render() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 1);
        let us = std::time::Duration::from_micros;
        record(&m, Verb::Get, us(100));
        record(&m, Verb::Get, us(200));
        m.rotate_now();
        record(&m, Verb::Set, us(50));
        m.rotate_now();
        // Empty windows fill the ring; the one past it evicts the first.
        let last = WINDOW_RETAIN as u64 + 1;
        for _ in 2..last {
            m.rotate_now();
        }
        assert_eq!(m.windows_closed(), last);
        let mut out = BytesMut::new();
        m.render_stats_windows(&mut out);
        let text = String::from_utf8(out.to_vec()).unwrap();
        assert!(
            text.contains(&format!("STAT windows_closed {last}\r\n")),
            "{text}"
        );
        assert!(
            text.contains(&format!("STAT windows_retained {WINDOW_RETAIN}\r\n")),
            "{text}"
        );
        // Ring holds windows #2 (one set) to #last (empty); #1 evicted.
        assert!(text.contains("STAT win_2_count 1\r\n"), "{text}");
        assert!(
            text.contains(&format!("STAT win_{last}_count 0\r\n")),
            "{text}"
        );
        assert!(!text.contains("STAT win_1_count "), "{text}");
        assert!(text.contains("STAT rate_get "), "{text}");
        assert!(text.contains("STAT rate_set_ewma "), "{text}");
        assert!(text.contains("STAT win_2_p95_us "), "{text}");
        assert!(text.ends_with("END\r\n"), "{text}");
        // Cumulative view is untouched by rotation.
        assert_eq!(m.overall_quantiles().count, 3);
    }

    #[test]
    fn slo_burn_trips_the_flight_recorder_once_per_edge() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 2);
        for _ in 0..10 {
            record(&m, Verb::Get, MISS);
        }
        m.rotate_now();
        let snap = m.slo_snapshot();
        assert!(snap.alerting, "{snap:?}");
        assert!(snap.short_burn > 2.0);
        let trigger = m.last_trigger().expect("burn must trip the recorder");
        assert_eq!(trigger.reason, "slo-burn");
        assert_eq!(trigger.window, 1);
        let dump = m.flight_recorder_json();
        densekv_telemetry::validate_json(&dump).expect("dump is valid JSON");
        assert!(
            dump.contains("\"trigger\":{\"reason\":\"slo-burn\",\"window\":1}"),
            "{dump}"
        );

        // Still burning: the state holds, so no new edge.
        for _ in 10..20 {
            record(&m, Verb::Get, MISS);
        }
        m.rotate_now();
        assert_eq!(m.last_trigger(), Some(trigger), "no new edge");

        // Recover (five idle windows empty the 5-window short burn),
        // then trip again: a fresh edge names its own window.
        for _ in 0..5 {
            m.rotate_now();
        }
        assert!(!m.slo_snapshot().alerting);
        for _ in 20..30 {
            record(&m, Verb::Get, MISS);
        }
        m.rotate_now();
        let second = m.last_trigger().expect("new edge");
        assert_eq!((second.reason, second.window), ("slo-burn", 8));
        let dump = m.flight_recorder_json();
        assert!(
            dump.contains("\"trigger\":{\"reason\":\"slo-burn\",\"window\":8}"),
            "{dump}"
        );
    }

    #[test]
    fn contention_and_saturation_trip_their_triggers() {
        let plane = || ServeMetrics::new(&MetricsConfig::default(), 2);
        let m = plane();
        let us = std::time::Duration::from_micros;
        for _ in 0..20 {
            m.record_shard(0, us(5), us(5), true);
        }
        m.rotate_now();
        assert_eq!(m.last_trigger().unwrap().reason, "shard-contention");

        let m = plane().with_connection_capacity(2);
        assert!(m.admit() && m.admit());
        m.rotate_now();
        assert_eq!(m.last_trigger().unwrap().reason, "connection-saturation");
        m.connection_closed();

        let m = plane();
        m.connection_rejected();
        m.rotate_now();
        assert_eq!(m.last_trigger().unwrap().reason, "connection-saturation");
    }

    #[test]
    fn stats_dump_is_valid_json_with_every_section() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 2);
        record(&m, Verb::Get, MISS);
        record(&m, Verb::Set, std::time::Duration::from_micros(40));
        m.record_span(0, Verb::Get, 3, &RequestPhases::default());
        m.rotate_now();
        let json = m.flight_recorder_json();
        densekv_telemetry::validate_json(&json).expect("dump is valid JSON");
        for section in [
            "\"format\":\"densekv-flight-recorder-v1\"",
            "\"slo\":{",
            "\"windows\":[",
            "\"slow\":[",
            "\"trace\":",
            "\"verbs\":{\"get\":1,\"set\":1}",
        ] {
            assert!(json.contains(section), "missing {section}: {json}");
        }
        // Disabled plane still answers with valid JSON.
        let off = ServeMetrics::new(&MetricsConfig::disabled(), 1);
        let json = off.flight_recorder_json();
        densekv_telemetry::validate_json(&json).expect("disabled dump is valid JSON");
        assert!(json.contains("\"enabled\":false"));
    }

    #[test]
    fn reset_clears_window_ring_and_slo_state_atomically() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 2);
        for _ in 0..10 {
            record(&m, Verb::Get, MISS);
        }
        m.rotate_now();
        m.rotate_now();
        assert!(m.slo_snapshot().windows >= 2);
        assert!(m.last_trigger().is_some());
        // The flight recorder keeps only its newest windows.
        for _ in 0..RECORDER_CAPACITY {
            record(&m, Verb::Get, MISS);
            m.rotate_now();
        }
        let snaps = m.window_snapshots();
        assert_eq!(snaps.len(), RECORDER_CAPACITY, "recorder bound");
        assert_eq!(snaps[0].index, 3, "oldest dropped first");

        m.reset();
        // Windowed state is gone…
        assert!(m.window_snapshots().is_empty(), "recorder ring cleared");
        let snap = m.slo_snapshot();
        assert_eq!((snap.windows, snap.total, snap.bad), (0, 0, 0));
        assert_eq!(snap.short_burn, 0.0);
        assert!(m.last_trigger().is_none(), "trigger state cleared");
        // …and so are the cumulative histograms.
        assert_eq!(m.verb_quantiles(Verb::Get).count, 0);
        // Window numbering continues: indices stay comparable across
        // the reset instead of restarting at 1.
        let before = m.windows_closed();
        record(&m, Verb::Get, std::time::Duration::from_nanos(100));
        m.rotate_now();
        assert_eq!(m.windows_closed(), before + 1);
        let snaps = m.window_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].index, before + 1);
        assert_eq!(snaps[0].total, 1);
        assert_eq!(snaps[0].bad, 0, "pre-reset SLO misses do not leak");
    }

    #[test]
    fn disabled_plane_windowed_surface_is_inert() {
        let m = ServeMetrics::new(&MetricsConfig::disabled(), 1);
        record(&m, Verb::Get, std::time::Duration::from_micros(10));
        m.rotate_now();
        assert_eq!(m.windows_closed(), 0);
        assert!(m.window_snapshots().is_empty());
        assert!(m.last_trigger().is_none());
        let mut out = BytesMut::new();
        m.render_stats_windows(&mut out);
        assert_eq!(&out[..], b"END\r\n");
        let mut out = BytesMut::new();
        m.render_stats_slo(&mut out);
        assert_eq!(&out[..], b"END\r\n");
    }

    #[test]
    fn prometheus_block_has_every_layer() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 2).with_connection_capacity(2);
        record(&m, Verb::Get, std::time::Duration::from_micros(120));
        m.record_shard(
            1,
            Default::default(),
            std::time::Duration::from_micros(3),
            false,
        );
        let serve = ServeStats {
            accepted: 4,
            bytes_in: 128,
            ..ServeStats::default()
        };
        let store = densekv_kv::store::StoreStats {
            items: 7,
            ..Default::default()
        };
        assert!(m.admit() && m.admit());
        let text = render_prometheus(&m, &serve, &store, &[("engine_items".to_string(), 7)]);
        assert!(text.contains("densekv_serve_accepted 4\n"), "{text}");
        assert!(text.contains("densekv_engine_items 7\n"), "{text}");
        assert!(
            text.contains("# TYPE densekv_store_curr_items gauge"),
            "{text}"
        );
        assert!(text.contains("densekv_store_curr_items 7\n"), "{text}");
        assert!(
            text.contains("serve_latency_get{quantile=\"0.99\"} 0.00012\n"),
            "{text}"
        );
        assert!(text.contains("serve_latency_get_sum 0.00012\n"), "{text}");
        assert!(text.contains("serve_latency_get_count 1\n"), "{text}");
        assert!(text.contains("serve_connections_active 2\n"), "{text}");
        assert!(
            text.contains("densekv_shard_lock_acquisitions{shard=\"1\"} 1\n"),
            "{text}"
        );
    }
}
