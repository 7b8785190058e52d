//! The server-side command loop: [`drain`] turns a request byte stream
//! into replies, one [`execute`] per request — for [`serve_buffer`] over
//! one store, and for the live front-end's sessions over a sharded one.
//! [`execute`] is generic over [`Stores`], so the same dispatch,
//! rendering, and error mapping serve every [`StoreBackend`].

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
/// granularity): pinned by a test or replay ([`FixedClock`]), or read
/// off the wall ([`WallClock`]). Dispatch, expiry, and rendering are the
/// same under both.
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
/// Relative time keeps `now` near zero, as a test's [`FixedClock`]
/// usually is, and immune to host clock adjustments, which `SystemTime`
/// is not.
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
    pub(crate) fn starting_at(epoch_secs: u64) -> Self {
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
        Request::Stats { arg: None } => render_stat_lines(stat_lines(&stores.stats()), out),
        // `stats engine` surfaces backend internals (tier occupancy,
        // bitmap fill, probe histogram); the model store has none and
        // answers ERROR like any unknown stats argument.
        Request::Stats {
            arg: Some(b"engine"),
        } => match stores.backend_stat_lines() {
            lines if lines.is_empty() => out.extend_from_slice(b"ERROR\r\n"),
            lines => render_stat_lines(lines, out),
        },
        // Extended sub-commands (`stats latency` …) are served by the
        // front-end layers that own the relevant state; a bare store
        // answers like Memcached answers unknown stats args.
        Request::Stats { arg: Some(_) } => out.extend_from_slice(b"ERROR\r\n"),
        Request::Metrics => {
            write_store_metrics(&stores.stats(), out);
            render_end(out);
        }
        Request::Version => out.extend_from_slice(b"VERSION 1.4.15-densekv\r\n"),
        Request::Quit => return Disposition::Close,
    }
    Disposition::KeepAlive
}

/// Renders `STAT` lines, then `END`.
fn render_stat_lines<N: std::fmt::Display>(
    lines: impl IntoIterator<Item = (N, u64)>,
    out: &mut BytesMut,
) {
    for (name, value) in lines {
        let _ = write!(out, "STAT {name} {value}\r\n");
    }
    render_end(out);
}

/// The `stats` reply as (name, value) pairs, Memcached naming where a
/// Memcached counterpart exists.
fn stat_lines(stats: &crate::store::StoreStats) -> [(&'static str, u64); 12] {
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

/// Writes the store's counters in the Prometheus text exposition format:
/// the bare store's `metrics` reply, and part of a front-end's.
pub fn write_store_metrics(stats: &crate::store::StoreStats, out: &mut impl std::fmt::Write) {
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
}

/// Where [`drain`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drain {
    /// At most a partial command is left, and nothing drains until the
    /// bytes after those used number at least this many: the length a
    /// storage command announced, or one more byte of a partial line.
    NeedMore(usize),
    /// The replies reached the caller's bound: send them, then drain on.
    Full,
    /// At `quit`, or at an error that lost framing: send, then close.
    Close,
}

/// Drains the complete requests at the front of `input`, the one loop
/// every request byte stream runs through: `step` executes each one into
/// `out`. A malformed one is answered in-band (as Memcached does) and
/// handed to `step` as an `Err`, to be counted; the drain then resumes
/// after its line, or closes if framing is lost. Returns the bytes used:
/// nothing after a close, and no trailing partial command.
pub fn drain<S>(input: &[u8], out: &mut BytesMut, out_bound: usize, mut step: S) -> (usize, Drain)
where
    S: FnMut(Result<Request<'_>, &ProtocolError>, &mut BytesMut) -> Disposition,
{
    let mut used = 0;
    loop {
        let (disposition, skip) = match parse_request(&input[used..]) {
            Ok((Some(request), len)) => (step(Ok(request), out), Some(len)),
            Ok((None, need)) => return (used, Drain::NeedMore(need)),
            Err(err) => {
                render_error(out, &err);
                (step(Err(&err), out), resync_offset(&input[used..], &err))
            }
        };
        debug_assert_ne!(skip, Some(0), "every step makes progress");
        used += skip.unwrap_or(0);
        if disposition == Disposition::Close || skip.is_none() {
            return (used, Drain::Close);
        }
        if out.len() >= out_bound {
            return (used, Drain::Full);
        }
    }
}

/// Drains every complete command in `input` through `store` at time
/// `now`, returning the response bytes.
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
    let mut out = BytesMut::new();
    drain(input, &mut out, usize::MAX, store_step(store, now));
    out.to_vec()
}

/// [`serve_buffer`]'s step: each request against `store` at `now`.
pub(crate) fn store_step(
    store: &mut dyn StoreBackend,
    now: u64,
) -> impl FnMut(Result<Request<'_>, &ProtocolError>, &mut BytesMut) -> Disposition + '_ {
    let mut stores = Single(store);
    move |request, out| match request {
        Ok(request) => execute(&mut stores, request, now, out),
        Err(_) => Disposition::KeepAlive,
    }
}

/// How many bytes of `buf` to skip past the line that caused `err`, or
/// `None` when `err` lost framing (a bad data chunk, an overlong line or
/// value): what follows can no longer be trusted to start at a command
/// boundary, so the connection answers and closes.
fn resync_offset(buf: &[u8], err: &ProtocolError) -> Option<usize> {
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
    fn resync_skips_the_line_or_closes_on_lost_framing() {
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
