//! The TCP front-end: a `std::net` listener thread dispatching
//! connections to worker threads, memcached-style.
//!
//! Graceful degradation is part of the contract, not an afterthought:
//!
//! * **Max-connections cap** — a connection beyond
//!   [`ServeConfig::max_connections`] is answered `SERVER_ERROR busy`
//!   and closed instead of being accepted unboundedly.
//! * **Per-connection read timeout** — a peer that goes silent
//!   mid-command is disconnected after [`ServeConfig::read_timeout`],
//!   so stalled or adversarial clients cannot pin worker threads.
//! * **Bounded buffering** — the parser's [`MAX_LINE_BYTES`] /
//!   [`MAX_VALUE_BYTES`] limits cap the per-connection receive buffer,
//!   and replies are written once they reach [`MAX_VALUE_BYTES`];
//!   framing-losing protocol errors answer in-band and close.
//!
//! [`MAX_LINE_BYTES`]: densekv_kv::protocol::MAX_LINE_BYTES
//! [`MAX_VALUE_BYTES`]: densekv_kv::protocol::MAX_VALUE_BYTES

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Buf, BytesMut};
use parking_lot::Mutex;

use densekv_kv::protocol::{ProtocolError, Request, MAX_VALUE_BYTES};
use densekv_kv::server::{drain, Clock, Disposition, Drain, WallClock};
use densekv_kv::store::StoreConfig;

use crate::cells::ConnCells;
use crate::metrics::{render_prometheus, MetricsConfig, RequestPhases, ServeMetrics, Verb};
use crate::shard::{BackendKind, LockObserver, ShardedStore};

/// Read size per syscall in the connection loop.
const READ_CHUNK: usize = 16 << 10;

/// Configuration of one front-end instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Total store bytes, split evenly across `shards` (the remainder
    /// to shard 0).
    pub store_bytes: u64,
    /// Lock stripes: 1 = global lock (Memcached 1.4), more = striped.
    pub shards: usize,
    /// Connections served concurrently; the next one is told
    /// `SERVER_ERROR busy` and closed.
    pub max_connections: usize,
    /// How long a worker blocks waiting for the next bytes of a
    /// connection before disconnecting it. Also bounds shutdown
    /// latency: a worker notices the shutdown flag at least this often.
    pub read_timeout: Duration,
    /// The observability plane: per-verb latency histograms, span
    /// sampling, slow log. Disabled keeps the data path byte-identical.
    pub metrics: MetricsConfig,
    /// The store implementation behind every shard lock: the model
    /// store (default) or the tiered fixed-page engine.
    pub backend: BackendKind,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            store_bytes: 64 << 20,
            shards: 8,
            max_connections: 64,
            read_timeout: Duration::from_secs(2),
            metrics: MetricsConfig::default(),
            backend: BackendKind::default(),
        }
    }
}

impl ServeConfig {
    /// Localhost on an ephemeral port with defaults — what tests and
    /// the load-generation experiments want.
    #[must_use]
    pub fn ephemeral() -> Self {
        ServeConfig::default()
    }

    /// Replaces the observability configuration.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the store implementation behind the shard locks.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }
}

/// Counters the front-end accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted into a worker thread.
    pub accepted: u64,
    /// Connections refused with `SERVER_ERROR busy` (over the cap).
    pub rejected_busy: u64,
    /// Commands executed.
    pub commands: u64,
    /// Bytes read off sockets.
    pub(crate) bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Connections dropped by the read timeout.
    pub(crate) timeouts: u64,
    /// Protocol errors answered in-band.
    pub protocol_errors: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    commands: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    timeouts: AtomicU64,
    protocol_errors: AtomicU64,
}

/// One front-end's shared state: store, clock, counters and plane.
/// [`spawn`] serves one on a socket; a [`Session`] drives one without.
pub struct Server {
    store: ShardedStore,
    clock: WallClock,
    config: ServeConfig,
    shutdown: AtomicBool,
    counters: Counters,
    /// The plane; it also counts open and refused connections.
    metrics: ServeMetrics,
    /// Clones of live connection sockets, so shutdown can interrupt
    /// blocked reads immediately instead of waiting out the timeout.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

impl Server {
    /// A front-end over `config`'s store and plane, serving nothing yet.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let store = ShardedStore::new_with_backend(
            StoreConfig::with_capacity(config.store_bytes),
            config.shards,
            config.backend,
        );
        let metrics = ServeMetrics::new(&config.metrics, config.shards)
            .with_connection_capacity(config.max_connections);
        Server {
            store,
            clock: WallClock::new(),
            config,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            metrics,
            conns: Mutex::new(HashMap::new()),
        }
    }

    /// The lifetime counters so far.
    fn stats(&self) -> ServeStats {
        let c = &self.counters;
        ServeStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_busy: self.metrics.connections_rejected(),
            commands: c.commands.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

impl Counters {
    /// Adds what one connection counted since it last did this, and
    /// zeroes its tally.
    fn add(&self, tally: &mut ServeStats) {
        for (counter, n) in [
            (&self.commands, tally.commands),
            (&self.bytes_in, tally.bytes_in),
            (&self.bytes_out, tally.bytes_out),
            (&self.protocol_errors, tally.protocol_errors),
        ] {
            // Even adding nothing would take the counter's cache line.
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
        *tally = ServeStats::default();
    }
}

/// A running front-end. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Server>,
    accept: Option<JoinHandle<()>>,
}

/// Binds the listener and starts the accept loop.
///
/// # Errors
///
/// Propagates the bind/local-addr I/O errors.
///
/// # Examples
///
/// ```
/// use densekv_serve::{spawn, ServeConfig};
///
/// let server = spawn(ServeConfig::ephemeral()).unwrap();
/// assert_ne!(server.addr().port(), 0);
/// server.shutdown();
/// ```
pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Server::new(config));
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("densekv-serve-accept".into())
            .spawn(move || accept_loop(&listener, &shared))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Lifetime counters so far.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// The observability plane: per-verb latency quantiles, shard-lock
    /// accounting, sampled spans, slow log — live while serving.
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Live items in the shared store.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.shared.store.len()
    }

    /// Stops accepting, interrupts every live connection, joins the
    /// accept loop (which joins the workers), and returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocked accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Interrupt blocked reads so workers exit now, not at timeout.
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = accept.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Server>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        if !shared.metrics.admit() {
            // Over the cap: answer and close instead of queueing work we
            // cannot serve — the degradation mode the SLA experiments
            // rely on.
            let _ = stream.write_all(b"SERVER_ERROR busy\r\n");
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let id = next_id;
        next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(id, clone);
        }
        let worker_shared = Arc::clone(shared);
        match std::thread::Builder::new()
            .name(format!("densekv-serve-conn-{id}"))
            .spawn(move || serve_connection(stream, id, &worker_shared))
        {
            Ok(handle) => workers.push(handle),
            Err(_) => {
                // Thread exhaustion: treat like an over-cap connection.
                shared.conns.lock().remove(&id);
                shared.metrics.connection_closed();
                shared.metrics.connection_rejected();
            }
        }
        // Reap finished workers so the handle list stays bounded by the
        // connection cap rather than the connection count.
        workers.retain(|h| !h.is_finished());
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// One connection's request stream, on a [`Server`] but without a
/// socket. [`Session::feed`] drains it through [`drain`], answering the
/// observability verbs from the plane and the rest from the store, and
/// meters each command; [`Session::write`] tells the shared counters and
/// plane before it hands the replies on, as `stats`/`metrics` verbs do
/// before they run, so whoever has read a reply can read its counters.
///
/// # Examples
///
/// ```
/// use densekv_kv::server::Drain;
/// use densekv_serve::{ServeConfig, Server, Session};
///
/// let server = Server::new(ServeConfig::ephemeral());
/// let (mut session, mut out) = (Session::new(&server, 0), bytes::BytesMut::new());
/// assert_eq!(session.feed(b"set k 0 0 2\r\nhi\r\nqu", &mut out), Drain::NeedMore(3));
/// assert_eq!(session.feed(b"it\r\n", &mut out), Drain::Close);
/// assert_eq!(&out[..], b"STORED\r\n");
/// ```
pub struct Session<'a> {
    server: &'a Server,
    /// The `tid` of its spans.
    id: u64,
    /// Received and not yet consumed: a partial command at most.
    rx: BytesMut,
    /// What `rx` must hold before draining it can make progress.
    need: usize,
    tally: ServeStats,
    /// `None` when the plane is off, and then no command reads a clock.
    cells: Option<ConnCells>,
    /// Sampled requests waiting for the flush that numbers them:
    /// position since the last flush, verb, and phases so far.
    pending: Vec<(u64, Verb, RequestPhases)>,
    /// When the wait for the next sampled request's bytes began.
    read_at: Option<Instant>,
    /// When the previous command ended, which is when the next begins:
    /// each command's latency costs one clock reading, not two.
    prev: Instant,
}

impl<'a> Session<'a> {
    /// A new connection to `server`, numbered `id`.
    #[must_use]
    pub fn new(server: &'a Server, id: u64) -> Self {
        Session {
            server,
            id,
            rx: BytesMut::with_capacity(4096),
            need: 0,
            tally: ServeStats::default(),
            cells: server.metrics.is_enabled().then(|| server.metrics.cells()),
            pending: Vec::new(),
            read_at: None,
            prev: Instant::now(),
        }
    }

    /// Appends `bytes` to what has been received and drains it into
    /// `out`. It stops once `out` holds [`MAX_VALUE_BYTES`]
    /// ([`Drain::Full`]: write, then feed no bytes, before reading), so
    /// pipelined GETs of large values hold at most that plus one reply;
    /// one multi-key `get` line can still render many values at once.
    pub fn feed(&mut self, bytes: &[u8], out: &mut BytesMut) -> Drain {
        self.tally.bytes_in += bytes.len() as u64;
        self.rx.extend_from_slice(bytes);
        if self.cells.is_some() {
            self.prev = Instant::now();
        }
        // A command still arriving would parse the same until it is whole.
        if self.rx.len() < self.need {
            return Drain::NeedMore(self.need);
        }
        let mut rx = std::mem::take(&mut self.rx);
        let now = self.server.clock.now_secs();
        let (used, drained) = drain(&rx, out, MAX_VALUE_BYTES as usize, |request, out| {
            self.step(request, now, out)
        });
        rx.advance(used);
        self.rx = rx;
        self.need = match drained {
            Drain::NeedMore(need) => need,
            Drain::Full | Drain::Close => 0,
        };
        drained
    }

    /// Hands the replies in `out`, if any, to `send` and empties `out`:
    /// after the batch's counts reach the shared plane, and before its
    /// sampled spans do, the last with the time `send` took.
    pub fn write<E>(
        &mut self,
        out: &mut BytesMut,
        send: impl FnOnce(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        self.tally.bytes_out += out.len() as u64;
        let first = self.flush();
        let start = (!self.pending.is_empty()).then(Instant::now);
        let sent = if out.is_empty() { Ok(()) } else { send(out) };
        out.clear();
        self.commit_spans(first, start.map(|t| t.elapsed()).unwrap_or_default());
        // If the next command is sampled, its recv phase starts now.
        let sampled = self.cells.as_ref().is_some_and(ConnCells::samples_next);
        self.read_at = sampled.then(Instant::now);
        sent
    }

    /// The metered step: counts, times and executes one request.
    fn step(
        &mut self,
        request: Result<Request<'_>, &ProtocolError>,
        now: u64,
        out: &mut BytesMut,
    ) -> Disposition {
        let Ok(request) = request else {
            self.tally.protocol_errors += 1;
            return Disposition::KeepAlive;
        };
        self.tally.commands += 1;
        // A verb that reads the counters finds this batch in them.
        if matches!(request, Request::Stats { .. } | Request::Metrics) {
            let first = self.flush();
            self.commit_spans(first, Duration::ZERO);
        }
        let Some(cells) = self.cells.as_mut() else {
            return execute(self.server, request, now, out, None);
        };
        let verb = Verb::of(&request);
        let parsed = cells.sampled().then(Instant::now);
        let disposition = execute(self.server, request, now, out, Some(cells));
        let (lock_wait, released) = cells.take_lock();
        let end = released.unwrap_or_else(Instant::now);
        let position = cells.record(verb, end - self.prev, end);
        if let Some(parsed) = parsed {
            // Only the first command of a feed is timed from a write,
            // and that one still starts at `prev`.
            let read_at = self.read_at.take();
            let phases = RequestPhases {
                recv: read_at.map_or(Duration::ZERO, |t| self.prev - t),
                parse: parsed - self.prev,
                lock_wait,
                store: (end - parsed).saturating_sub(lock_wait),
                write: Duration::ZERO,
            };
            self.pending.push((position, verb, phases));
        }
        self.prev = end;
        disposition
    }

    /// Tells the shared plane; returns the first flushed command's seq.
    fn flush(&mut self) -> u64 {
        self.server.counters.add(&mut self.tally);
        let metrics = &self.server.metrics;
        self.cells
            .as_mut()
            .map_or(0, |cells| metrics.flush(cells, self.prev))
    }

    /// Records the flushed spans from `first`; the last waited `write`.
    fn commit_spans(&mut self, first: u64, write: Duration) {
        if let Some((_, _, phases)) = self.pending.last_mut() {
            phases.write = write;
        }
        let metrics = &self.server.metrics;
        for (position, verb, phases) in self.pending.drain(..) {
            metrics.record_span(first + position, verb, self.id as u32, &phases);
        }
    }
}

/// Executes one request: the observability verbs are answered from the
/// plane; everything else goes to the sharded store, reporting its shard
/// locks to `observer`.
fn execute(
    server: &Server,
    request: Request<'_>,
    now: u64,
    out: &mut BytesMut,
    observer: Option<&mut dyn LockObserver>,
) -> Disposition {
    let plane = &server.metrics;
    match request {
        Request::Stats { arg: Some(arg) } => match arg {
            b"latency" => plane.render_stats_latency(out),
            b"shards" => plane.render_stats_shards(&server.store.shard_stats(), out),
            b"windows" => plane.render_stats_windows(out),
            b"slo" => plane.render_stats_slo(out),
            b"dump" => {
                // One JSON object on one line, then END — readable with
                // the same line-until-END client call as the other stats
                // verbs.
                out.extend_from_slice(plane.flight_recorder_json().as_bytes());
                out.extend_from_slice(b"\r\nEND\r\n");
            }
            b"reset" => {
                plane.reset();
                out.extend_from_slice(b"RESET\r\n");
            }
            _ => return server.store.execute(request, now, out, observer),
        },
        Request::Metrics => {
            let text = render_prometheus(
                plane,
                &server.stats(),
                &server.store.stats(),
                &server.store.backend_stat_lines(),
            );
            out.extend_from_slice(text.as_bytes());
            out.extend_from_slice(b"END\r\n");
        }
        request => return server.store.execute(request, now, out, observer),
    }
    Disposition::KeepAlive
}

/// One connection's worker: read → [`Session::feed`] →
/// [`Session::write`], until the session closes, the peer goes away or
/// stalls past the read timeout, or the server shuts down.
fn serve_connection(mut stream: TcpStream, id: u64, server: &Server) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(server.config.read_timeout));
    let mut session = Session::new(server, id);
    let mut out = BytesMut::with_capacity(4096);
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut received = 0;
    loop {
        let drained = session.feed(&chunk[..received], &mut out);
        let sent = session.write(&mut out, |replies| stream.write_all(replies));
        if drained == Drain::Close || sent.is_err() || server.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if drained == Drain::Full {
            // The replies filled up, not the commands: drain on first.
            received = 0;
            continue;
        }
        received = match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !server.shutdown.load(Ordering::SeqCst) {
                    server.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                break; // idle or stalled peer: disconnect
            }
            Err(_) => break,
        };
    }
    server.conns.lock().remove(&id);
    server.metrics.connection_closed();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Connection;
    use crate::metrics::Verb;

    fn quick_config() -> ServeConfig {
        ServeConfig {
            read_timeout: Duration::from_millis(400),
            ..ServeConfig::ephemeral()
        }
    }

    #[test]
    fn serves_a_full_verb_tour_over_tcp() {
        let server = spawn(quick_config()).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(conn.set(b"k", b"hello").unwrap());
        let hit = conn.get(b"k").unwrap().expect("stored value is resident");
        assert_eq!(hit.data, b"hello");
        assert!(conn.delete(b"k").unwrap());
        assert!(conn.get(b"k").unwrap().is_none());
        assert!(conn.version().unwrap().contains("densekv"));
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 1);
        assert!(stats.commands >= 5);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    }

    /// Fills a server's cap of `cap` with connections, each proven live
    /// by a round trip (connect() alone returns before accept()), and
    /// has the next one refused `busy`. The server volunteers the error,
    /// so that one reads without sending (writing first could race the
    /// server's close into a reset).
    fn fill_the_cap(server: &ServerHandle, cap: usize) -> Vec<Connection> {
        let connect = || Connection::connect(server.addr()).unwrap();
        let held = (0..cap)
            .map(|_| {
                let mut c = connect();
                c.version().unwrap();
                c
            })
            .collect();
        let err = connect().read_reply().expect_err("over the cap");
        let crate::client::ClientError::Server(msg) = err else {
            panic!("expected an in-band busy error, got {err:?}");
        };
        assert!(msg.contains("busy"), "{msg}");
        held
    }

    #[test]
    fn over_cap_connections_get_busy_then_closed() {
        // The plane counts connections whether or not it is on.
        for metrics in [MetricsConfig::default(), MetricsConfig::disabled()] {
            let config = ServeConfig {
                max_connections: 3,
                ..quick_config().with_metrics(metrics)
            };
            let server = spawn(config).unwrap();
            let mut held = fill_the_cap(&server, 3);
            // The held connections still work.
            for conn in &mut held {
                assert!(conn.set(b"x", b"1").unwrap());
            }
            drop(held);
            let stats = server.shutdown();
            assert_eq!(stats.rejected_busy, 1);
            assert_eq!(stats.accepted, 3);
        }
    }

    #[test]
    fn read_timeout_disconnects_stalled_peers() {
        let config = ServeConfig {
            read_timeout: Duration::from_millis(100),
            ..ServeConfig::ephemeral()
        };
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        conn.version().unwrap();
        // Go silent; the server must reclaim the worker.
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(server.metrics().connections_active(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.timeouts, 1);
    }

    #[test]
    fn adversarial_bytes_answer_in_band_and_never_wedge() {
        let server = spawn(quick_config()).unwrap();
        let addr = server.addr();
        // A framing-losing error closes the connection after replying.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("set k 0 0 {}\r\n", (1 << 20) + 1).as_bytes())
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.contains("SERVER_ERROR object too large"), "{reply}");

        // An unknown verb answers ERROR and keeps serving.
        let mut conn = Connection::connect(addr).unwrap();
        let err = conn.raw_roundtrip(b"frobnicate\r\n").unwrap();
        assert!(err.contains("ERROR"));
        assert!(conn.set(b"k", b"v").unwrap(), "connection still serves");
        let stats = server.shutdown();
        assert_eq!(stats.protocol_errors, 2);
    }

    #[test]
    fn stats_latency_and_shards_report_live_traffic() {
        let config = ServeConfig {
            shards: 2,
            ..quick_config()
        }
        .with_metrics(MetricsConfig {
            sample_every: 1,
            ..MetricsConfig::default()
        });
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        for i in 0..20u32 {
            assert!(conn.set(format!("k{i}").as_bytes(), b"value").unwrap());
            assert!(conn.get(format!("k{i}").as_bytes()).unwrap().is_some());
        }
        let latency = conn.text_block(b"stats latency\r\n").unwrap();
        let text = latency.join("\n");
        assert!(text.contains("STAT get_count 20"), "{text}");
        assert!(text.contains("STAT set_count 20"), "{text}");
        for stat in ["get_p50_us", "get_p95_us", "get_p999_us", "set_p99_us"] {
            assert!(text.contains(stat), "missing {stat}: {text}");
        }
        // Percentiles are real microsecond numbers, not zeros: a TCP
        // round trip cannot complete in 0 µs.
        let p50: f64 = latency
            .iter()
            .find_map(|l| l.strip_prefix("STAT get_p50_us "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(p50 > 0.0, "p50 must be positive, got {p50}");

        let shards = conn.text_block(b"stats shards\r\n").unwrap().join("\n");
        assert!(shards.contains("STAT shard_1_items"), "{shards}");
        assert!(
            !shards.contains("STAT shard_2_items"),
            "two stripes: {shards}"
        );
        assert!(
            shards.contains("STAT shard_0_lock_acquisitions"),
            "{shards}"
        );
        let total_acq: u64 = server
            .metrics()
            .shard_snapshots()
            .iter()
            .map(|s| s.acquisitions)
            .sum();
        assert_eq!(total_acq, 40, "20 sets + 20 single-key gets");

        // Every request was sampled; spans must have accumulated.
        assert!(server.metrics().spans_recorded() >= 40);
        let trace = server.metrics().trace_chrome_json();
        assert!(trace.contains("\"shard-lock\""), "{trace}");

        // stats reset zeroes the plane but keeps serving.
        let reset = conn.raw_roundtrip(b"stats reset\r\n").unwrap();
        assert_eq!(reset, "RESET");
        let gets = || server.metrics().verb_quantiles(Verb::Get).count;
        assert_eq!(gets(), 0);
        assert!(conn.get(b"k0").unwrap().is_some());
        assert_eq!(gets(), 1);

        // Unknown stats sub-commands answer ERROR in-band.
        let err = conn.raw_roundtrip(b"stats bogus\r\n").unwrap();
        assert_eq!(err, "ERROR");
        server.shutdown();
    }

    #[test]
    fn counters_are_exact_once_every_connection_has_been_answered() {
        // Each connection keeps its counts to itself until it has
        // drained a batch, and flushes them before it writes the
        // replies: a client that has read its last reply finds every one
        // of its commands counted, exactly.
        const CONNECTIONS: usize = 4;
        const ROUNDS: usize = 150;
        let server = spawn(quick_config()).unwrap();
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let addr = server.addr();
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let mut batch = Vec::new();
                    for i in 0..ROUNDS {
                        let key = format!("c{c}k{i}");
                        batch.extend_from_slice(
                            format!("set {key} 0 0 1\r\nx\r\nget {key} absent\r\ngets {key}\r\n")
                                .as_bytes(),
                        );
                        if i % 3 == 0 {
                            batch.extend_from_slice(format!("delete {key} noreply\r\n").as_bytes());
                        }
                    }
                    batch.extend_from_slice(b"version\r\n");
                    // In a few writes, so that one connection's commands
                    // arrive in more than one batch.
                    for piece in batch.chunks(batch.len() / 3 + 1) {
                        stream.write_all(piece).unwrap();
                    }
                    let mut reply = Vec::new();
                    let mut chunk = [0u8; 4096];
                    while !reply.ends_with(b"-densekv\r\n") {
                        let n = stream.read(&mut chunk).unwrap();
                        assert_ne!(n, 0);
                        reply.extend_from_slice(&chunk[..n]);
                    }
                    (stream, batch.len(), reply.len())
                })
            })
            .collect();
        // The connections stay open: nothing below is owed to a
        // flush-on-close.
        let held: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let metrics = server.metrics();
        let count = |verb| metrics.verb_quantiles(verb).count;
        let n = (CONNECTIONS * ROUNDS) as u64;
        let deletes = (CONNECTIONS * ROUNDS.div_ceil(3)) as u64;
        assert_eq!(count(Verb::Set), n);
        assert_eq!(count(Verb::Get), 2 * n);
        assert_eq!(count(Verb::Delete), deletes);
        assert_eq!(count(Verb::Version), CONNECTIONS as u64);
        let commands = 3 * n + deletes + CONNECTIONS as u64;
        assert_eq!(metrics.overall_quantiles().count, commands);
        let locks: u64 = metrics
            .shard_snapshots()
            .iter()
            .map(|s| s.acquisitions)
            .sum();
        assert_eq!(locks, 4 * n + deletes, "one per key visited");
        let stats = server.stats();
        assert_eq!(stats.commands, commands);
        assert_eq!(
            stats.bytes_in,
            held.iter().map(|&(_, sent, _)| sent as u64).sum::<u64>()
        );
        assert_eq!(
            stats.bytes_out,
            held.iter().map(|&(_, _, got)| got as u64).sum::<u64>()
        );
        drop(held);
        server.shutdown();
    }

    #[test]
    fn stats_verbs_count_the_commands_batched_before_them() {
        let server = spawn(quick_config()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // One write, so one batch: the plane is flushed into before the
        // stats verb runs, not only at the end of the batch.
        stream
            .write_all(
                b"set k 0 0 1\r\nx\r\nget k\r\nget k\r\nstats latency\r\n\
                  get k\r\nmetrics\r\nquit\r\n",
            )
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        let (latency, exposition) = reply.rsplit_once("END\r\nVALUE").expect("both blocks");
        assert!(latency.contains("STAT set_count 1\r\n"), "{latency}");
        assert!(latency.contains("STAT get_count 2\r\n"), "{latency}");
        assert!(!latency.contains("stats_count"), "{latency}");
        assert!(
            exposition.contains("serve_latency_get_count 3\n"),
            "{exposition}"
        );
        assert!(
            exposition.contains("serve_latency_stats_count 1\n"),
            "{exposition}"
        );
        assert!(
            exposition.contains("densekv_serve_commands 6\n"),
            "{exposition}"
        );
        server.shutdown();
    }

    #[test]
    fn stats_windows_slo_and_dump_report_live_traffic() {
        // A 25 ms window so real rotations happen within the test.
        let config = quick_config().with_metrics(MetricsConfig {
            sample_every: 1,
            window: Duration::from_millis(25),
            ..MetricsConfig::default()
        });
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        for i in 0..10u32 {
            assert!(conn.set(format!("k{i}").as_bytes(), b"value").unwrap());
            assert!(conn.get(format!("k{i}").as_bytes()).unwrap().is_some());
        }
        std::thread::sleep(Duration::from_millis(60));
        // Polling rotates the due windows even though traffic stopped.
        let windows = conn.text_block(b"stats windows\r\n").unwrap().join("\n");
        assert!(windows.contains("STAT window_ms 25"), "{windows}");
        assert!(windows.contains("STAT rate_get"), "{windows}");
        let closed: u64 = windows
            .lines()
            .find_map(|l| l.strip_prefix("STAT windows_closed "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(closed >= 2, "60 ms at a 25 ms cadence: {windows}");
        assert!(windows.contains("_p95_us"), "{windows}");

        let slo = conn.text_block(b"stats slo\r\n").unwrap().join("\n");
        assert!(slo.contains("STAT slo_objective_us 1000.0"), "{slo}");
        assert!(slo.contains("STAT slo_short_burn"), "{slo}");
        assert!(slo.contains("STAT slo_alerting 0"), "{slo}");
        let total: u64 = slo
            .lines()
            .find_map(|l| l.strip_prefix("STAT slo_total "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(total >= 20, "closed windows carry the traffic: {slo}");

        // The embedded Chrome trace spans multiple lines; reassemble.
        let json = conn.text_block(b"stats dump\r\n").unwrap().join("\n");
        densekv_telemetry::validate_json(&json).expect("stats dump is valid JSON");
        assert!(json.contains("\"format\":\"densekv-flight-recorder-v1\""));
        assert!(json.contains("\"verbs\":{"), "{json}");
        server.shutdown();
    }

    #[test]
    fn window_rotation_keeps_data_path_byte_identical() {
        // The passivity invariant under *rotation*: a metrics-on server
        // whose windows rotate mid-stream answers byte-identically to a
        // metrics-off server. Two bursts with a sleep between them span
        // several 5 ms window boundaries.
        let burst: &[u8] = b"set k 0 0 5\r\nhello\r\nget k\r\ngets k\r\nincr n 1\r\n\
                             set n 0 0 1\r\n7\r\nincr n 3\r\ndecr n 1\r\ntouch k 60\r\n\
                             append k 0 0 2\r\n!!\r\nget k\r\ndelete k\r\nversion\r\n";
        let run_against = |metrics: MetricsConfig| -> Vec<u8> {
            let server = spawn(quick_config().with_metrics(metrics)).unwrap();
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let mut reply = Vec::new();
            let mut chunk = [0u8; 4096];
            for _ in 0..2 {
                stream.write_all(burst).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                loop {
                    // Drain what has arrived; a short read ends the batch.
                    let n = stream.read(&mut chunk).unwrap();
                    reply.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
            }
            stream.write_all(b"quit\r\n").unwrap();
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            reply.extend_from_slice(&rest);
            server.shutdown();
            reply
        };
        let on = run_against(MetricsConfig {
            sample_every: 1,
            window: Duration::from_millis(5),
            ..MetricsConfig::default()
        });
        let off = run_against(MetricsConfig::disabled());
        assert!(!on.is_empty());
        assert_eq!(on, off, "window rotation must not change the data path");
    }

    #[test]
    fn metrics_verb_serves_prometheus_exposition() {
        let server = spawn(quick_config()).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(conn.set(b"k", b"v").unwrap());
        assert!(conn.get(b"k").unwrap().is_some());
        let body = conn.text_block(b"metrics\r\n").unwrap().join("\n");
        assert!(
            body.contains("# TYPE densekv_serve_accepted counter"),
            "{body}"
        );
        assert!(body.contains("densekv_serve_accepted 1"), "{body}");
        assert!(body.contains("densekv_store_curr_items 1"), "{body}");
        assert!(body.contains("serve_latency_get_count 1"), "{body}");
        assert!(
            body.contains("serve_latency_set{quantile=\"0.99\"}"),
            "{body}"
        );
        assert!(
            body.contains("densekv_shard_lock_acquisitions{shard=\"0\"}"),
            "{body}"
        );
        server.shutdown();
    }

    #[test]
    fn metrics_reply_names_each_family_once_and_keeps_every_number() {
        let config = ServeConfig {
            max_connections: 2,
            ..quick_config()
        };
        let server = spawn(config).unwrap();
        let mut held = fill_the_cap(&server, 2);
        let conn = &mut held[0];
        assert!(conn.set(b"k", b"v").unwrap());
        for _ in 0..3 {
            assert!(conn.get(b"k").unwrap().is_some());
        }
        let latency = conn.text_block(b"stats latency\r\n").unwrap();
        let body = conn.text_block(b"metrics\r\n").unwrap();
        let value = |name: &str| -> u64 {
            body.iter()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
                .unwrap_or_else(|| panic!("no {name} in {body:?}"))
        };

        // Every sample belongs to a family declared once; a summary's
        // `_sum` and `_count` belong to the summary.
        let mut families: Vec<&str> = Vec::new();
        for line in &body {
            if let Some(declared) = line.strip_prefix("# TYPE ") {
                let family = declared.split(' ').next().unwrap();
                assert!(!families.contains(&family), "{family} declared twice");
                families.push(family);
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            let summary = name.trim_end_matches("_sum").trim_end_matches("_count");
            let declared = families.contains(&name) || families.contains(&summary);
            assert!(declared, "{line}");
        }
        assert!(!body.iter().any(|l| l.contains("serve_cmd_")), "{body:?}");

        // Each verb counts what `stats latency` counted; that `stats`
        // command itself was counted after its reply.
        for verb in Verb::ALL {
            let name = verb.name();
            let listed = latency
                .iter()
                .find_map(|l| l.strip_prefix(&format!("STAT {name}_count "))?.parse().ok());
            let expected = listed.unwrap_or(0) + u64::from(verb == Verb::Stats);
            assert_eq!(value(&format!("serve_latency_{name}_count")), expected);
        }
        assert_eq!(value("serve_latency_get_count"), 3);
        assert_eq!(value("serve_latency_version_count"), 2);

        // The front-end counters are the handle's; the reply was
        // rendered before it was sent, so only its own bytes are missing.
        let stats = server.stats();
        let reply = body.iter().map(|l| l.len() as u64 + 1).sum::<u64>() + 5; // + "END\r\n"
        let exposed = ["bytes_in", "bytes_out", "rejected_busy"]
            .map(|counter| value(&format!("densekv_serve_{counter}")));
        assert_eq!(
            exposed,
            [stats.bytes_in, stats.bytes_out - reply, stats.rejected_busy]
        );
        assert_eq!(stats.rejected_busy, 1);
        assert_eq!(value("serve_connections_active"), held.len() as u64);
        drop(held);
        server.shutdown();
    }

    #[test]
    fn metrics_off_data_path_is_byte_identical() {
        // The passivity invariant, live: the same request stream against
        // a metrics-on and a metrics-off server produces byte-identical
        // responses for every data-path verb.
        let script: &[u8] = b"set k 0 0 5\r\nhello\r\nget k\r\ngets k\r\nincr n 1\r\n\
                              set n 0 0 1\r\n7\r\nincr n 3\r\ndecr n 1\r\ntouch k 60\r\n\
                              append k 0 0 2\r\n!!\r\nget k\r\ndelete k\r\nversion\r\n\
                              flush_all\r\nquit\r\n";
        let run_against = |metrics: MetricsConfig| -> Vec<u8> {
            let server = spawn(quick_config().with_metrics(metrics)).unwrap();
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(script).unwrap();
            let mut reply = Vec::new();
            stream.read_to_end(&mut reply).unwrap();
            server.shutdown();
            reply
        };
        let on = run_against(MetricsConfig {
            sample_every: 1,
            ..MetricsConfig::default()
        });
        let off = run_against(MetricsConfig::disabled());
        assert!(!on.is_empty());
        assert_eq!(on, off, "instrumentation must not change the data path");
    }

    #[test]
    fn slow_log_catches_outliers() {
        let config = quick_config().with_metrics(MetricsConfig {
            slow_threshold: Duration::from_nanos(1),
            ..MetricsConfig::default()
        });
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(conn.set(b"k", b"v").unwrap());
        // Every request is "slow" at a 1 ns threshold.
        let slow = server.metrics().slow_requests();
        assert!(!slow.is_empty());
        assert!(slow[0].latency > densekv_sim::Duration::ZERO);
        server.shutdown();
    }

    #[test]
    fn shutdown_interrupts_blocked_readers_quickly() {
        let config = ServeConfig {
            read_timeout: Duration::from_secs(30),
            ..ServeConfig::ephemeral()
        };
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        conn.version().unwrap();
        let start = std::time::Instant::now();
        server.shutdown(); // must not wait out the 30 s read timeout
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn engine_backend_serves_over_tcp() {
        let config = quick_config().with_backend(BackendKind::Engine);
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(conn.set(b"k", b"hello").unwrap());
        assert_eq!(conn.get(b"k").unwrap().unwrap().data, b"hello");
        assert!(conn.delete(b"k").unwrap());
        assert!(conn.set(b"k2", &[7u8; 300]).unwrap());
        // The engine's internals are visible in-band.
        let block = conn.text_block(b"stats engine\r\n").unwrap().join("\n");
        assert!(block.contains("STAT engine_items 1"), "{block}");
        assert!(
            block.contains("STAT engine_tier_512_used_pages 1"),
            "{block}"
        );
        // ... and as Prometheus gauges on the metrics verb.
        let body = conn.text_block(b"metrics\r\n").unwrap().join("\n");
        assert!(body.contains("densekv_engine_items 1"), "{body}");
        server.shutdown();

        // The model backend has no engine internals to report.
        let server = spawn(quick_config()).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        let reply = conn.raw_roundtrip(b"stats engine\r\n").unwrap();
        assert_eq!(reply, "ERROR");
        server.shutdown();
    }

    #[test]
    fn env_selects_the_backend() {
        // `BackendKind::from_env` is the one reader of the process
        // environment in this crate, so no other test races these writes.
        for (name, backend) in [
            ("engine", BackendKind::Engine),
            ("model", BackendKind::Model),
            ("frobnicated", BackendKind::Model),
        ] {
            std::env::set_var("DENSEKV_SERVE_BACKEND", name);
            assert_eq!(BackendKind::from_env(), backend, "{name}");
        }
        std::env::remove_var("DENSEKV_SERVE_BACKEND");
    }

    #[test]
    fn engine_eviction_pressure_over_tcp_stays_in_protocol() {
        // Fill the engine well past its budget through the real server:
        // every store must answer STORED (evicting, never erroring) and
        // the evictions must be visible in-band via `stats engine`.
        let config = ServeConfig {
            store_bytes: 1 << 20,
            shards: 2,
            ..quick_config()
        }
        .with_backend(BackendKind::Engine);
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        let value = vec![b'v'; 1024];
        for i in 0..1500u32 {
            let key = format!("pressure-key-{i}");
            assert!(
                conn.set(key.as_bytes(), &value).unwrap(),
                "set {i} must land (by evicting, not failing)"
            );
        }
        // The freshest key is resident; the engine recycled pages.
        assert!(conn.get(b"pressure-key-1499").unwrap().is_some());
        let block = conn.text_block(b"stats engine\r\n").unwrap().join("\n");
        let evictions: u64 = block
            .lines()
            .find_map(|l| l.strip_prefix("STAT engine_evictions "))
            .expect("engine_evictions gauge present")
            .parse()
            .unwrap();
        assert!(evictions > 0, "{block}");
        let stats = conn.text_block(b"stats\r\n").unwrap().join("\n");
        assert!(stats.contains("STAT evictions "), "{stats}");
        server.shutdown();
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use densekv_kv::store::{ITEM_HEADER_BYTES, MAX_ITEM_FOOTPRINT_BYTES};

    #[test]
    fn refusals_outlive_stats_reset_but_the_next_window_counts_only_newer_ones() {
        let server = Server::new(ServeConfig::ephemeral());
        server.metrics.connection_rejected();
        let mut session = Session::new(&server, 0);
        let mut out = BytesMut::new();
        session.feed(b"stats reset\r\n", &mut out);
        assert_eq!(&out[..], b"RESET\r\n");
        server.metrics.connection_rejected();
        server.metrics.rotate_now();
        assert_eq!(server.stats().rejected_busy, 2, "a lifetime count");
        let windows = server.metrics.window_snapshots();
        let in_windows: u64 = windows.iter().map(|w| w.conns_rejected).sum();
        assert_eq!(in_windows, 1, "{windows:?}");
    }

    #[test]
    fn pipelined_gets_of_a_large_value_are_written_in_bounded_batches() {
        let server = Server::new(ServeConfig::ephemeral());
        let mut session = Session::new(&server, 0);
        let mut out = BytesMut::new();
        let len = (MAX_ITEM_FOOTPRINT_BYTES - ITEM_HEADER_BYTES) as usize - "big".len();
        let mut set = format!("set big 0 0 {len}\r\n").into_bytes();
        set.resize(set.len() + len, b'B');
        set.extend_from_slice(b"\r\n");
        assert_eq!(session.feed(&set, &mut out), Drain::NeedMore(1));
        assert_eq!(&out[..], b"STORED\r\n");
        session.write(&mut out, |_| Ok::<_, ()>(())).unwrap();

        // One read's worth of 64 GETs: written a bounded batch at a
        // time, not 64 MB at once.
        let reply = format!("VALUE big 0 {len}\r\n").len() + len + "\r\nEND\r\n".len();
        let mut bytes = b"get big\r\n".repeat(64);
        let (mut replied, mut writes) = (0, 0);
        loop {
            let drained = session.feed(&bytes, &mut out);
            bytes.clear();
            assert!(
                out.len() <= MAX_VALUE_BYTES as usize + reply,
                "{}",
                out.len()
            );
            replied += out.len();
            writes += 1;
            session.write(&mut out, |_| Ok::<_, ()>(())).unwrap();
            if matches!(drained, Drain::NeedMore(_)) {
                break;
            }
            assert_eq!(drained, Drain::Full);
        }
        assert_eq!(replied, 64 * reply);
        assert!(writes >= 32, "{writes} writes");
        let stats = server.stats();
        assert_eq!(stats.commands, 65);
        assert_eq!(stats.bytes_out, (replied + b"STORED\r\n".len()) as u64);
    }
}
