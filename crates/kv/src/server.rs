//! The server-side command loop: dispatches parsed protocol commands to
//! a storage backend and renders responses — the glue between
//! [`crate::protocol`] and [`crate::store`] that a byte-stream server
//! (or the simulator's functional path) runs per connection.
//!
//! The loop is generic over [`StoreBackend`], so the same dispatch,
//! rendering, and error mapping serve both the Memcached-model
//! [`crate::store::KvStore`] and real engines layered on the trait.

use std::fmt::Write as _;

use bytes::BytesMut;

use crate::backend::StoreBackend;
use crate::hash::jenkins_oaat;
use crate::protocol::{
    find_crlf, parse_request, render_deleted, render_end, render_error, render_hit, render_number,
    render_store_error, render_stored, ProtocolError, Request, StoreVerb,
};
use crate::store::{StoreError, StoreStats};

/// What the connection should do after a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Keep serving this connection.
    KeepAlive,
    /// The client sent `quit`.
    Close,
}

/// Where "now" comes from, in whole seconds (the store's TTL
/// granularity).
///
/// The same command loop serves two time domains: the simulator drives
/// it with simulated seconds ([`FixedClock`]), a real TCP front-end with
/// wall-clock seconds ([`WallClock`]). Keeping the loop generic over the
/// clock is what lets the simulator act as the timing oracle for a live
/// server — identical dispatch, expiry, and rendering either way.
pub trait Clock {
    /// Current time in whole seconds.
    fn now_secs(&self) -> u64;
}

/// A clock pinned to one instant — simulated time, or a test's chosen
/// "now".
///
/// # Examples
///
/// ```
/// use densekv_kv::server::{Clock, FixedClock};
///
/// assert_eq!(FixedClock(42).now_secs(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedClock(pub u64);

impl Clock for FixedClock {
    fn now_secs(&self) -> u64 {
        self.0
    }
}

/// Wall time: seconds elapsed since the clock was created (plus an
/// optional epoch offset, so tests can start "mid-life").
///
/// Relative time keeps the arithmetic identical to the simulator's
/// (`now` starts near zero) and immune to host clock adjustments, which
/// `SystemTime` is not.
#[derive(Debug, Clone)]
pub struct WallClock {
    start: std::time::Instant,
    epoch_secs: u64,
}

impl WallClock {
    /// A clock reading 0 seconds at creation.
    #[must_use]
    pub fn new() -> Self {
        WallClock::starting_at(0)
    }

    /// A clock reading `epoch_secs` at creation and advancing in real
    /// time from there.
    #[must_use]
    pub fn starting_at(epoch_secs: u64) -> Self {
        WallClock {
            start: std::time::Instant::now(),
            epoch_secs,
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_secs(&self) -> u64 {
        self.epoch_secs + self.start.elapsed().as_secs()
    }
}

/// The stores behind a command loop, and how to reach the one that owns
/// a key. One store reaches itself; a sharded front-end picks the shard
/// by the key's hash and takes its lock. [`execute`] is written against
/// this, so every front-end runs the same command body.
pub trait Stores {
    /// Runs `f` on the store that owns `key`, handing it
    /// [`jenkins_oaat`]`(key)` along with the store.
    fn with_store<R>(&mut self, key: &[u8], f: impl FnOnce(&mut dyn StoreBackend, u64) -> R) -> R;

    /// Drops every item of every store.
    fn flush_all(&mut self);

    /// Counters summed over every store.
    fn stats(&mut self) -> StoreStats;

    /// Backend-internal gauges merged over every store.
    fn backend_stat_lines(&mut self) -> Vec<(String, u64)>;
}

/// A lone store as a [`Stores`].
struct Single<'a>(&'a mut dyn StoreBackend);

impl Stores for Single<'_> {
    fn with_store<R>(&mut self, key: &[u8], f: impl FnOnce(&mut dyn StoreBackend, u64) -> R) -> R {
        f(self.0, jenkins_oaat(key))
    }

    fn flush_all(&mut self) {
        self.0.flush_all();
    }

    fn stats(&mut self) -> StoreStats {
        self.0.stats()
    }

    fn backend_stat_lines(&mut self) -> Vec<(String, u64)> {
        self.0.backend_stat_lines()
    }
}

/// Executes one request against `stores` at time `now` (whole seconds),
/// appending any response to `out`. A GET renders each hit straight from
/// the value its store lends; a storage command copies its data block
/// once, into the `Vec` the store keeps.
pub fn execute(
    stores: &mut impl Stores,
    request: Request<'_>,
    now: u64,
    out: &mut BytesMut,
) -> Disposition {
    match request {
        Request::Get { keys, with_cas } => {
            for key in keys {
                stores.with_store(key, |store, hash| {
                    if let Some(hit) = store.get_ref(key, hash, now) {
                        render_hit(out, key, hit, with_cas);
                    }
                });
            }
            render_end(out);
        }
        Request::Set {
            verb,
            key,
            flags,
            exptime,
            data,
            cas,
            noreply,
        } => {
            let ttl = (exptime > 0).then_some(exptime);
            let result = stores.with_store(key, |store, hash| match verb {
                StoreVerb::Set => store.set_hashed(key, hash, data.to_vec(), flags, ttl, now),
                StoreVerb::Add => store.add(key, hash, data.to_vec(), ttl, now),
                StoreVerb::Replace => store.replace(key, hash, data.to_vec(), ttl, now),
                StoreVerb::Append => store.concat(key, hash, data, false, now),
                StoreVerb::Prepend => store.concat(key, hash, data, true, now),
                StoreVerb::Cas => store.cas(key, hash, data.to_vec(), cas, ttl, now),
            });
            if !noreply {
                match result {
                    Ok(()) => render_stored(out),
                    Err(e) => render_store_error(out, &e),
                }
            }
        }
        Request::IncrDecr {
            key,
            delta,
            decrement,
            noreply,
        } => {
            let result = stores.with_store(key, |store, hash| {
                store.incr_decr(key, hash, delta, decrement, now)
            });
            if !noreply {
                match result {
                    Ok(value) => render_number(out, value),
                    Err(e) => render_store_error(out, &e),
                }
            }
        }
        Request::Delete { key, noreply } => {
            let existed = stores.with_store(key, |store, hash| store.delete(key, hash, now));
            if !noreply {
                render_deleted(out, existed);
            }
        }
        Request::Touch {
            key,
            exptime,
            noreply,
        } => {
            let ttl = (exptime > 0).then_some(exptime);
            let touched = stores.with_store(key, |store, hash| store.touch(key, hash, ttl, now));
            if !noreply {
                if touched {
                    out.extend_from_slice(b"TOUCHED\r\n");
                } else {
                    render_store_error(out, &StoreError::NotFound);
                }
            }
        }
        Request::FlushAll => {
            stores.flush_all();
            out.extend_from_slice(b"OK\r\n");
        }
        Request::Stats { arg: None } => render_stats(&stores.stats(), out),
        // `stats engine` surfaces backend internals (tier occupancy,
        // bitmap fill, probe histogram); the model store has none and
        // answers ERROR like any unknown stats argument.
        Request::Stats {
            arg: Some(b"engine"),
        } => render_backend_stats(&stores.backend_stat_lines(), out),
        // Extended sub-commands (`stats latency` …) are served by the
        // front-end layers that own the relevant state; a bare store
        // answers like Memcached answers unknown stats args.
        Request::Stats { arg: Some(_) } => out.extend_from_slice(b"ERROR\r\n"),
        Request::Metrics => render_store_metrics(&stores.stats(), out),
        Request::Version => out.extend_from_slice(b"VERSION 1.4.15-densekv\r\n"),
        Request::Quit => return Disposition::Close,
    }
    Disposition::KeepAlive
}

/// Renders the `stats` reply for the given counters. Shared by the
/// single-store loop above and sharded front-ends, which merge their
/// per-shard counters before rendering.
pub fn render_stats(stats: &crate::store::StoreStats, out: &mut BytesMut) {
    for (name, value) in stat_lines(stats) {
        let _ = write!(out, "STAT {name} {value}\r\n");
    }
    render_end(out);
}

/// The `stats` reply as (name, value) pairs, Memcached naming where a
/// Memcached counterpart exists. Public so sharded front-ends can fold
/// the same lines into their own report formats (Prometheus, per-shard
/// breakdowns) without re-stating the mapping.
pub fn stat_lines(stats: &crate::store::StoreStats) -> [(&'static str, u64); 12] {
    [
        ("cmd_get", stats.get_hits + stats.get_misses),
        ("get_hits", stats.get_hits),
        ("get_misses", stats.get_misses),
        ("cmd_set", stats.sets),
        ("cmd_touch", stats.touches),
        ("evictions", stats.evictions),
        ("expired_unfetched", stats.expirations),
        ("expired_bytes", stats.expired_bytes),
        ("bytes_read", stats.bytes_read),
        ("bytes_written", stats.bytes_written),
        ("curr_items", stats.items),
        ("bytes", stats.bytes),
    ]
}

/// Renders the `stats engine` reply from a backend's internal gauges,
/// or `ERROR` when the backend exposes none (the model store). Shared
/// by the single-store loop and sharded front-ends, which merge their
/// per-shard lines by name before rendering.
pub fn render_backend_stats(lines: &[(String, u64)], out: &mut BytesMut) {
    if lines.is_empty() {
        out.extend_from_slice(b"ERROR\r\n");
        return;
    }
    for (name, value) in lines {
        let _ = write!(out, "STAT {name} {value}\r\n");
    }
    render_end(out);
}

/// Renders the store's counters in the Prometheus text exposition format
/// (the `metrics` verb of a bare store), terminated by `END\r\n` so text
/// protocol clients can frame the reply.
pub fn render_store_metrics(stats: &crate::store::StoreStats, out: &mut BytesMut) {
    for (name, value) in stat_lines(stats) {
        // `curr_items`/`bytes` are instantaneous; everything else counts.
        let kind = if matches!(name, "curr_items" | "bytes") {
            "gauge"
        } else {
            "counter"
        };
        let _ = write!(
            out,
            "# TYPE densekv_store_{name} {kind}\ndensekv_store_{name} {value}\n"
        );
    }
    render_end(out);
}

/// Drains every complete command in `input` through `store`, returning
/// the accumulated response bytes. Protocol errors are answered in-band
/// (as Memcached does) and parsing continues at the next line where
/// possible.
///
/// # Examples
///
/// ```
/// use densekv_kv::server::serve_buffer;
/// use densekv_kv::store::{KvStore, StoreConfig};
///
/// let mut store = KvStore::new(StoreConfig::with_capacity(8 << 20));
/// let out = serve_buffer(&mut store, b"set k 0 0 2\r\nhi\r\nget k\r\n", 0);
/// assert_eq!(&out[..], b"STORED\r\nVALUE k 0 2\r\nhi\r\nEND\r\n");
/// ```
pub fn serve_buffer(store: &mut dyn StoreBackend, input: &[u8], now: u64) -> Vec<u8> {
    let mut stores = Single(store);
    let mut rest = input;
    let mut out = BytesMut::new();
    loop {
        let skip = match parse_request(rest) {
            Ok(Some((request, used))) => {
                if execute(&mut stores, request, now, &mut out) == Disposition::Close {
                    break;
                }
                Some(used)
            }
            Ok(None) => break,
            Err(err) => {
                render_error(&mut out, &err);
                resync_offset(rest, &err)
            }
        };
        let Some(skip) = skip else { break };
        rest = &rest[skip..];
    }
    out.to_vec()
}

/// How many bytes of `buf` to skip to get past the offending line after
/// a protocol error, or `None` when parsing cannot continue on this
/// byte stream.
///
/// Errors that lose framing ([`ProtocolError::BadDataChunk`],
/// [`ProtocolError::LineTooLong`], [`ProtocolError::ValueTooLarge`])
/// return `None` — a real server answers and closes the connection,
/// because the following bytes can no longer be trusted to start at a
/// command boundary.
pub fn resync_offset(buf: &[u8], err: &ProtocolError) -> Option<usize> {
    if matches!(
        err,
        ProtocolError::BadDataChunk | ProtocolError::LineTooLong | ProtocolError::ValueTooLarge
    ) {
        return None;
    }
    find_crlf(buf).map(|pos| pos + 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{KvStore, StoreConfig};

    fn store() -> KvStore {
        KvStore::new(StoreConfig::with_capacity(8 << 20))
    }

    fn text(store: &mut KvStore, input: &[u8]) -> String {
        String::from_utf8(serve_buffer(store, input, 0)).expect("ascii")
    }

    #[test]
    fn full_verb_tour() {
        let mut s = store();
        let out = text(
            &mut s,
            b"set k 0 0 3\r\nfoo\r\n\
              add k 0 0 3\r\nbar\r\n\
              append k 0 0 3\r\nbar\r\n\
              get k\r\n\
              set n 0 0 1\r\n5\r\n\
              incr n 10\r\n\
              decr n 100\r\n\
              delete k\r\n\
              delete k\r\n",
        );
        assert_eq!(
            out,
            "STORED\r\nNOT_STORED\r\nSTORED\r\nVALUE k 0 6\r\nfoobar\r\nEND\r\n\
             STORED\r\n15\r\n0\r\nDELETED\r\nNOT_FOUND\r\n"
        );
    }

    #[test]
    fn cas_flow_over_the_wire() {
        let mut s = store();
        text(&mut s, b"set k 0 0 1\r\na\r\n");
        let gets = text(&mut s, b"gets k\r\n");
        // Extract the token from "VALUE k 0 1 <cas>".
        let token: u64 = gets
            .lines()
            .next()
            .and_then(|l| l.split(' ').nth(4))
            .and_then(|t| t.parse().ok())
            .expect("cas token in gets response");
        let ok = text(&mut s, format!("cas k 0 0 1 {token}\r\nb\r\n").as_bytes());
        assert_eq!(ok, "STORED\r\n");
        let stale = text(&mut s, format!("cas k 0 0 1 {token}\r\nc\r\n").as_bytes());
        assert_eq!(stale, "EXISTS\r\n");
    }

    #[test]
    fn noreply_suppresses_output() {
        let mut s = store();
        let out = text(&mut s, b"set k 0 0 1 noreply\r\nx\r\nget k\r\n");
        assert_eq!(out, "VALUE k 0 1\r\nx\r\nEND\r\n");
    }

    #[test]
    fn stats_version_flush_touch() {
        let mut s = store();
        let out = text(
            &mut s,
            b"set k 0 0 1\r\nx\r\ntouch k 60\r\ntouch missing 60\r\nversion\r\nstats\r\nflush_all\r\nget k\r\n",
        );
        assert!(out.contains("TOUCHED"));
        assert!(out.contains("NOT_FOUND"));
        assert!(out.contains("VERSION"));
        assert!(out.contains("STAT curr_items 1"));
        assert!(out.contains("OK\r\n"));
        assert!(out.ends_with("END\r\n"));
    }

    #[test]
    fn stats_report_byte_and_touch_counters() {
        let mut s = store();
        let out = text(
            &mut s,
            b"set k 0 0 5\r\nhello\r\nget k\r\nget k\r\ntouch k 60\r\nstats\r\n",
        );
        assert!(out.contains("STAT cmd_get 2"), "{out}");
        assert!(out.contains("STAT cmd_touch 1"), "{out}");
        assert!(out.contains("STAT bytes_read 10"), "{out}");
        assert!(out.contains("STAT bytes_written 5"), "{out}");
        assert!(out.contains("STAT expired_bytes 0"), "{out}");
    }

    #[test]
    fn stats_subcommands_error_at_the_bare_store() {
        let mut s = store();
        assert_eq!(text(&mut s, b"stats latency\r\n"), "ERROR\r\n");
        assert_eq!(text(&mut s, b"stats nonsense\r\n"), "ERROR\r\n");
        // The model store exposes no engine internals: `stats engine`
        // answers ERROR too. A real engine backend overrides this (see
        // densekv-engine's tests).
        assert_eq!(text(&mut s, b"stats engine\r\n"), "ERROR\r\n");
    }

    #[test]
    fn oversized_item_renders_the_server_error_wording() {
        // The store-level size cap (header + key + value vs the largest
        // slab chunk) renders with the same wording as the parse-time
        // nbytes cap — one policy, one client-visible message. A value
        // under the protocol's MAX_VALUE_BYTES can still push the item
        // footprint past the largest chunk.
        let mut s = store();
        let nbytes = (1 << 20) - 10; // passes the parser, fails the slab
        let mut input = format!("set k 0 0 {nbytes}\r\n").into_bytes();
        input.extend_from_slice(&vec![b'x'; nbytes]);
        input.extend_from_slice(b"\r\n");
        let out = serve_buffer(&mut s, &input, 0);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "SERVER_ERROR object too large for cache\r\n"
        );
    }

    #[test]
    fn metrics_verb_renders_prometheus_text() {
        let mut s = store();
        let out = text(&mut s, b"set k 0 0 2\r\nhi\r\nget k\r\nmetrics\r\n");
        assert!(
            out.contains("# TYPE densekv_store_get_hits counter\ndensekv_store_get_hits 1\n"),
            "{out}"
        );
        assert!(
            out.contains("# TYPE densekv_store_curr_items gauge"),
            "{out}"
        );
        assert!(out.ends_with("END\r\n"), "framed for text clients: {out}");
    }

    #[test]
    fn errors_answered_in_band_then_resync() {
        let mut s = store();
        let out = text(&mut s, b"bogus\r\nget missing\r\n");
        assert_eq!(out, "ERROR\r\nEND\r\n");
    }

    #[test]
    fn quit_stops_processing() {
        let mut s = store();
        let out = text(&mut s, b"quit\r\nget k\r\n");
        assert_eq!(out, "");
    }

    /// Runs `input` through `execute` over one store at the clock's
    /// current time and returns the rendered reply.
    fn run_at(s: &mut KvStore, input: &[u8], clock: &dyn Clock) -> String {
        String::from_utf8(serve_buffer(s, input, clock.now_secs())).expect("ascii")
    }

    #[test]
    fn touch_expiry_under_sim_clock() {
        let mut s = store();
        // Store immortal, then touch down to a 5-second TTL at t=100.
        run_at(&mut s, b"set k 0 0 1\r\nx\r\n", &FixedClock(100));
        assert_eq!(
            run_at(&mut s, b"touch k 5\r\n", &FixedClock(100)),
            "TOUCHED\r\n"
        );
        // Alive just inside the TTL, gone just past it.
        assert!(run_at(&mut s, b"get k\r\n", &FixedClock(104)).contains("VALUE"));
        assert_eq!(run_at(&mut s, b"get k\r\n", &FixedClock(106)), "END\r\n");
    }

    #[test]
    fn touch_expiry_under_wall_clock() {
        let mut s = store();
        // Start the wall clock "mid-life" so TTL arithmetic sees a
        // realistic nonzero now, then age the item past its TTL by
        // really waiting: the wall clock is the unit under test.
        let clock = WallClock::starting_at(1_000_000);
        run_at(&mut s, b"set k 0 0 1\r\nx\r\n", &clock);
        assert_eq!(run_at(&mut s, b"touch k 1\r\n", &clock), "TOUCHED\r\n");
        assert!(run_at(&mut s, b"get k\r\n", &clock).contains("VALUE"));
        std::thread::sleep(std::time::Duration::from_millis(2_100));
        assert_eq!(run_at(&mut s, b"get k\r\n", &clock), "END\r\n");
    }

    #[test]
    fn flush_all_under_both_clocks() {
        for clock in [
            &FixedClock(7) as &dyn Clock,
            &WallClock::starting_at(7) as &dyn Clock,
        ] {
            let mut s = store();
            run_at(&mut s, b"set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\n", clock);
            assert_eq!(run_at(&mut s, b"flush_all\r\n", clock), "OK\r\n");
            assert_eq!(run_at(&mut s, b"get a b\r\n", clock), "END\r\n");
        }
    }

    #[test]
    fn wall_clock_advances_from_its_epoch() {
        let clock = WallClock::starting_at(500);
        let first = clock.now_secs();
        assert!(first >= 500);
        assert!(clock.now_secs() >= first, "monotonic");
        assert_eq!(WallClock::new().now_secs(), 0, "fresh clock starts at 0");
    }

    #[test]
    fn resync_is_public_and_closes_on_lost_framing() {
        let buf = b"rest\r\nnext";
        assert_eq!(resync_offset(buf, &ProtocolError::ValueTooLarge), None);
        let skip = resync_offset(buf, &ProtocolError::UnknownCommand("x".into()));
        assert_eq!(skip, Some(6), "skips past the offending line");
        assert_eq!(
            resync_offset(b"no line end", &ProtocolError::BadArguments("x")),
            None
        );
    }
}
