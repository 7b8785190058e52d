//! The benchmark's pipelined client.
//!
//! `densekv-serve`'s own load generator sends one request at a time,
//! which on a two-core guest measures thread wake-ups (see README,
//! "What is not an end-to-end metric"). This client keeps many
//! requests in flight on one connection, in two modes:
//!
//! * **synchronous batches** (closed loop): build a batch, write it
//!   all, then read and verify every reply; the time from the write to
//!   the last reply is the batch's latency;
//! * **scheduled** (open loop): requests fall due on an even schedule,
//!   the socket never blocks, the generator busy-polls, and latency is
//!   counted from each request's *scheduled* time.
//!
//! Every reply is verified against a reference map: a GET returns the
//! last value SET for its key, or a miss only where the workload allows
//! eviction. The measured loops allocate nothing: request bytes,
//! receive buffer, expectation queue and latency samples are sized in
//! set-up. Request and reply formats are the Memcached text protocol of
//! `densekv_kv::protocol`; the unit tests pin both against that codec.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::host::StallMeter;
use crate::trace::{SpanId, Tracer};

/// Rendered key length: `key:` plus eleven digits, the workspace's
/// workload key format.
pub const KEY_LEN: usize = 15;

/// Flag bit of an encoded operation: set = SET, clear = GET.
pub const OP_SET: u32 = 1 << 31;

/// No progress on the socket for this long fails the run instead of
/// hanging it.
const IO_DEADLINE: Duration = Duration::from_secs(20);

const RX_CHUNK: usize = 256 << 10;

/// How value sizes follow from keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueSizes {
    /// Every value has this many bytes.
    Fixed(usize),
    /// `{64 B, 512 B, 1 KB, 4 KB}` chosen by a hash of the key id.
    Mixed,
}

impl ValueSizes {
    pub fn largest(self) -> usize {
        match self {
            ValueSizes::Fixed(bytes) => bytes,
            ValueSizes::Mixed => 4096,
        }
    }

    pub fn of(self, key: u32) -> usize {
        match self {
            ValueSizes::Fixed(bytes) => bytes,
            ValueSizes::Mixed => {
                // Fibonacci hashing, so neighbouring (equally popular)
                // ids do not share a size.
                [64, 512, 1024, 4096][(key.wrapping_mul(0x9E37_79B9) >> 30) as usize]
            }
        }
    }
}

/// The keys of a workload and what the server must hold for each: the
/// reference map the replies are verified against.
#[derive(Debug)]
pub struct Reference {
    keys: Vec<u8>,
    sizes: ValueSizes,
    /// Version of the last SET sent per key; 0 = never set.
    versions: Vec<u32>,
    /// Whether the store may have evicted a key that was set.
    misses_allowed: bool,
}

impl Reference {
    pub fn new(key_count: u32, sizes: ValueSizes, misses_allowed: bool) -> Reference {
        let mut keys = vec![0; key_count as usize * KEY_LEN];
        for (id, key) in keys.chunks_exact_mut(KEY_LEN).enumerate() {
            let len = densekv_workload::key_bytes_into_slice(id as u64, key);
            assert_eq!(len, KEY_LEN, "key ids stay below 10^11");
        }
        Reference {
            keys,
            sizes,
            versions: vec![0; key_count as usize],
            misses_allowed,
        }
    }

    pub fn key_count(&self) -> u32 {
        self.versions.len() as u32
    }

    pub fn key(&self, id: u32) -> &[u8] {
        &self.keys[id as usize * KEY_LEN..][..KEY_LEN]
    }

    pub fn value_len(&self, id: u32) -> usize {
        self.sizes.of(id)
    }
}

/// A value is an 8-byte header naming its key and version, then one
/// filler byte repeated: cheap to build and to verify in full.
fn filler(key: u32, version: u32) -> u8 {
    (key ^ version.wrapping_mul(31)) as u8
}

fn write_value(out: &mut Vec<u8>, key: u32, version: u32, len: usize) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.resize(out.len() + len - 8, filler(key, version));
}

fn value_matches(data: &[u8], key: u32, version: u32) -> bool {
    data.len() >= 8
        && data[..4] == key.to_le_bytes()
        && data[4..8] == version.to_le_bytes()
        && data[8..].iter().all(|&b| b == filler(key, version))
}

fn write_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `get <key>\r\n`.
pub fn build_get(out: &mut Vec<u8>, key: &[u8]) {
    out.extend_from_slice(b"get ");
    out.extend_from_slice(key);
    out.extend_from_slice(b"\r\n");
}

/// Appends `set <key> 0 0 <len>\r\n<value>\r\n` for `version` of `key`.
pub fn build_set(out: &mut Vec<u8>, key_bytes: &[u8], key: u32, version: u32, len: usize) {
    out.extend_from_slice(b"set ");
    out.extend_from_slice(key_bytes);
    out.extend_from_slice(b" 0 0 ");
    write_decimal(out, len);
    out.extend_from_slice(b"\r\n");
    write_value(out, key, version, len);
    out.extend_from_slice(b"\r\n");
}

/// What the next reply on the connection must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub set: bool,
    pub key: u32,
    /// For a SET the version stored; for a GET the version a hit must
    /// carry (the last one sent before it on this connection).
    pub version: u32,
    /// When the request was due, ns since the round started.
    pub due_ns: u64,
}

/// How one reply compared with its expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Stored,
    Hit,
    Miss,
    /// Wrong type, wrong key, wrong or stale bytes, an error line, or a
    /// miss where nothing may be evicted.
    Failed,
}

/// The reply stream no longer frames: the connection is unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Desync;

const MAX_REPLY_LINE: usize = 128;

fn parse_decimal(bytes: &[u8]) -> Option<usize> {
    if bytes.is_empty() || bytes.len() > 9 || !bytes.iter().all(u8::is_ascii_digit) {
        return None;
    }
    Some(bytes.iter().fold(0, |n, b| n * 10 + usize::from(b - b'0')))
}

/// Checks the reply at the front of `buf` against `expect`.
///
/// `Ok(None)` means the reply is not complete yet (nothing is consumed
/// and the call can be repeated with more bytes); `Ok(Some((n, v)))`
/// means the reply took `n` bytes and compared as `v`.
pub fn check_reply(
    buf: &[u8],
    expect: &Expect,
    reference: &Reference,
) -> Result<Option<(usize, Verdict)>, Desync> {
    let Some(line_end) = buf.iter().take(MAX_REPLY_LINE).position(|&b| b == b'\n') else {
        return if buf.len() >= MAX_REPLY_LINE {
            Err(Desync)
        } else {
            Ok(None)
        };
    };
    if line_end == 0 || buf[line_end - 1] != b'\r' {
        return Err(Desync);
    }
    let line = &buf[..line_end - 1];
    let after_line = line_end + 1;

    if line == b"STORED" {
        let verdict = if expect.set {
            Verdict::Stored
        } else {
            Verdict::Failed
        };
        return Ok(Some((after_line, verdict)));
    }
    if line == b"END" {
        let verdict = if !expect.set && reference.misses_allowed {
            Verdict::Miss
        } else {
            Verdict::Failed
        };
        return Ok(Some((after_line, verdict)));
    }
    let Some(header) = line.strip_prefix(b"VALUE ") else {
        // ERROR / CLIENT_ERROR / SERVER_ERROR / anything else that is
        // one line: a failed operation, and the stream still frames.
        return Ok(Some((after_line, Verdict::Failed)));
    };
    let mut words = header.split(|&b| b == b' ');
    let (Some(key), Some(_flags), Some(len)) = (words.next(), words.next(), words.next()) else {
        return Err(Desync);
    };
    let len = parse_decimal(len).ok_or(Desync)?;
    let total = after_line + len + 2 + 5;
    if buf.len() < total {
        return Ok(None);
    }
    if &buf[after_line + len..total] != b"\r\nEND\r\n" {
        return Err(Desync);
    }
    let data = &buf[after_line..after_line + len];
    let good = !expect.set
        && key == reference.key(expect.key)
        && len == reference.value_len(expect.key)
        && value_matches(data, expect.key, expect.version);
    Ok(Some((
        total,
        if good { Verdict::Hit } else { Verdict::Failed },
    )))
}

/// Counts of one round (or of set-up, or of the final sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub gets: u64,
    pub hits: u64,
}

impl Tally {
    fn count(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Stored => {}
            Verdict::Hit => {
                self.gets += 1;
                self.hits += 1;
            }
            Verdict::Miss => self.gets += 1,
            Verdict::Failed => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.gets += other.gets;
        self.hits += other.hits;
    }
}

/// Where the client's time went in a closed-loop round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub build: Duration,
    pub write: Duration,
    pub read_wait: Duration,
    pub check: Duration,
}

/// Per-request latencies of one round, ns. Failed and unanswered
/// requests have no sample, and so miss any limit.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    /// Sorted once the round has ended.
    ns: Vec<u32>,
    attempted: u64,
}

impl Latencies {
    fn for_round(attempted: usize) -> Latencies {
        Latencies {
            ns: Vec::with_capacity(attempted),
            attempted: attempted as u64,
        }
    }

    fn push(&mut self, ns: u64) {
        self.ns.push(ns.min(u64::from(u32::MAX)) as u32);
    }

    #[cfg(test)]
    pub fn sorted_ns(&self) -> &[u32] {
        &self.ns
    }

    /// Nearest-rank quantile in µs; `None` when nothing was answered.
    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        (!self.ns.is_empty()).then(|| f64::from(crate::stats::quantile_sorted(&self.ns, q)) / 1e3)
    }

    /// Share of attempted requests answered correctly within `limit`.
    pub fn within(&self, limit: Duration) -> f64 {
        let limit = limit.as_nanos().min(u128::from(u32::MAX)) as u32;
        let ok = self.ns.partition_point(|&ns| ns <= limit);
        ok as f64 / self.attempted.max(1) as f64
    }
}

/// One closed-loop round.
#[derive(Debug, Clone, Default)]
pub struct BatchRound {
    pub tally: Tally,
    pub elapsed: Duration,
    pub phases: Phases,
    /// One sample per batch: from the write of the batch to its last
    /// verified reply — what a pipelining client waits for a batch to
    /// be answered (at batch size 1, the round trip). A batch with a
    /// failed operation has no sample.
    pub latency: Latencies,
}

/// One open-loop round.
#[derive(Debug, Clone, Default)]
pub struct ScheduledRound {
    pub tally: Tally,
    pub elapsed: Duration,
    /// From a request's scheduled send time to its verified reply.
    pub latency: Latencies,
    /// ns by which each request was built after it was due, sorted.
    pub late_ns: Vec<u32>,
    /// Generator time lost to gaps above `host::STALL_GAP`.
    pub stalled: Duration,
}

/// A connection that is no longer usable; every request not yet
/// answered has been counted as failed.
#[derive(Debug)]
pub struct Broken(pub String);

pub struct Client {
    stream: TcpStream,
    reference: Reference,
    tx: Vec<u8>,
    rx: Vec<u8>,
    rx_start: usize,
    rx_end: usize,
    pending: VecDeque<Expect>,
}

impl Client {
    /// Connects; `max_in_flight` sizes the expectation queue and
    /// `tx_bytes` the request buffer, so the measured loops never grow
    /// them.
    pub fn connect(
        addr: SocketAddr,
        reference: Reference,
        max_in_flight: usize,
        tx_bytes: usize,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_DEADLINE))?;
        Ok(Client {
            stream,
            reference,
            tx: Vec::with_capacity(tx_bytes),
            // Room for a whole chunk behind the largest partial reply.
            rx: vec![0; 2 * RX_CHUNK],
            rx_start: 0,
            rx_end: 0,
            pending: VecDeque::with_capacity(max_in_flight),
        })
    }

    pub fn reference(&self) -> &Reference {
        &self.reference
    }

    /// Appends the request for `op` and queues its expectation.
    fn build(&mut self, op: u32, due_ns: u64) {
        let key = op & !OP_SET;
        let set = op & OP_SET != 0;
        let reference = &mut self.reference;
        let key_bytes = &reference.keys[key as usize * KEY_LEN..][..KEY_LEN];
        let version = if set {
            let version = reference.versions[key as usize] + 1;
            reference.versions[key as usize] = version;
            build_set(
                &mut self.tx,
                key_bytes,
                key,
                version,
                reference.sizes.of(key),
            );
            version
        } else {
            build_get(&mut self.tx, key_bytes);
            reference.versions[key as usize]
        };
        self.pending.push_back(Expect {
            set,
            key,
            version,
            due_ns,
        });
    }

    /// Verifies every complete reply buffered; calls `on_reply` with
    /// each expectation and its verdict.
    fn drain_replies(
        &mut self,
        tally: &mut Tally,
        mut on_reply: impl FnMut(&Expect, Verdict),
    ) -> Result<(), Broken> {
        while let Some(expect) = self.pending.front() {
            let buf = &self.rx[self.rx_start..self.rx_end];
            match check_reply(buf, expect, &self.reference) {
                Ok(Some((used, verdict))) => {
                    tally.count(verdict);
                    on_reply(expect, verdict);
                    self.rx_start += used;
                    self.pending.pop_front();
                }
                Ok(None) => break,
                Err(Desync) => return Err(Broken("reply stream lost framing".into())),
            }
        }
        if self.rx_start == self.rx_end {
            self.rx_start = 0;
            self.rx_end = 0;
        } else if self.rx.len() - self.rx_end < RX_CHUNK {
            self.rx.copy_within(self.rx_start..self.rx_end, 0);
            self.rx_end -= self.rx_start;
            self.rx_start = 0;
            if self.rx.len() - self.rx_end < RX_CHUNK {
                return Err(Broken("a single reply exceeds the receive buffer".into()));
            }
        }
        Ok(())
    }

    /// One socket read into the free tail of the receive buffer.
    fn read_some(&mut self) -> std::io::Result<usize> {
        let n = self.stream.read(&mut self.rx[self.rx_end..])?;
        self.rx_end += n;
        Ok(n)
    }

    /// Fails everything still in flight after the connection broke.
    fn abandon(&mut self, tally: &mut Tally, unsent: u64) {
        tally.failed += self.pending.len() as u64 + unsent;
        self.pending.clear();
        self.tx.clear();
        self.rx_start = 0;
        self.rx_end = 0;
    }

    /// Closed loop: for each `batch` of `ops`, build and write all the
    /// requests, then read and verify all the replies.
    pub fn run_batches(
        &mut self,
        ops: &[u32],
        batch: usize,
        tracer: &mut Tracer,
        round_span: Option<SpanId>,
        ops_before: u64,
    ) -> BatchRound {
        let mut round = BatchRound {
            latency: Latencies::for_round(ops.len().div_ceil(batch)),
            ..BatchRound::default()
        };
        round.tally.attempted = ops.len() as u64;
        let start = Instant::now();
        let mut done = 0usize;
        for chunk in ops.chunks(batch) {
            let request = ops_before + done as u64;
            if let Err(Broken(why)) = self.one_batch(chunk, &mut round, tracer, round_span, request)
            {
                eprintln!("connection failed: {why}");
                self.abandon(&mut round.tally, (ops.len() - done - chunk.len()) as u64);
                break;
            }
            done += chunk.len();
        }
        round.elapsed = start.elapsed();
        round.latency.ns.sort_unstable();
        round
    }

    fn one_batch(
        &mut self,
        chunk: &[u32],
        round: &mut BatchRound,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        request: u64,
    ) -> Result<(), Broken> {
        let t0 = Instant::now();
        let span = tracer.open("loadgen.build", parent, request);
        for &op in chunk {
            self.build(op, 0);
        }
        tracer.close(span);
        let t1 = Instant::now();
        round.phases.build += t1 - t0;

        let failed_before = round.tally.failed;
        let span = tracer.open("socket.write", parent, request);
        let written = self.write_batch(&mut round.tally);
        tracer.close(span);
        let t2 = Instant::now();
        round.phases.write += t2 - t1;
        written?;

        let mut checked = t2;
        while !self.pending.is_empty() {
            let before_read = Instant::now();
            round.phases.check += before_read - checked;
            let span = tracer.open("socket.read", parent, request);
            let got = self.read_some();
            tracer.close(span);
            checked = Instant::now();
            round.phases.read_wait += checked - before_read;
            match got {
                Ok(0) => return Err(Broken("server closed the connection".into())),
                Ok(_) => {}
                Err(e) => return Err(Broken(format!("read: {e}"))),
            }
            let span = tracer.open("loadgen.check", parent, request);
            let drained = self.drain_replies(&mut round.tally, |_, _| {});
            tracer.close(span);
            drained?;
        }
        let end = Instant::now();
        round.phases.check += end - checked;
        if round.tally.failed == failed_before {
            round.latency.push((end - t1).as_nanos() as u64);
        }
        Ok(())
    }

    /// Writes the whole request buffer. The socket does not block
    /// while writing: should both directions' buffers ever fill (the
    /// server stops reading once it cannot write), the client reads
    /// replies instead of deadlocking. Normally the first write takes
    /// everything and this is "write all, then read all".
    fn write_batch(&mut self, tally: &mut Tally) -> Result<(), Broken> {
        let io = |e: std::io::Error| Broken(format!("socket: {e}"));
        self.stream.set_nonblocking(true).map_err(io)?;
        let mut sent = 0;
        let started = Instant::now();
        while sent < self.tx.len() {
            match self.stream.write(&self.tx[sent..]) {
                Ok(0) => return Err(Broken("server closed the connection".into())),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    match self.read_some() {
                        Ok(0) => return Err(Broken("server closed the connection".into())),
                        Ok(_) => self.drain_replies(tally, |_, _| {})?,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                        Err(e) => return Err(io(e)),
                    }
                    if started.elapsed() > IO_DEADLINE {
                        return Err(Broken("no progress writing a batch".into()));
                    }
                }
                Err(e) => return Err(io(e)),
            }
        }
        self.tx.clear();
        self.stream.set_nonblocking(false).map_err(io)
    }

    /// Open loop: request `i` of `ops` falls due `i / rate` seconds
    /// after the round starts. The generator busy-polls a socket that
    /// never blocks; each reply's latency runs from its due time.
    pub fn run_scheduled(
        &mut self,
        ops: &[u32],
        rate_per_s: f64,
        tracer: &mut Tracer,
        round_span: Option<SpanId>,
    ) -> ScheduledRound {
        let mut round = ScheduledRound {
            latency: Latencies::for_round(ops.len()),
            late_ns: Vec::with_capacity(ops.len()),
            ..ScheduledRound::default()
        };
        round.tally.attempted = ops.len() as u64;
        if let Err(e) = self.stream.set_nonblocking(true) {
            eprintln!("connection failed: {e}");
            round.tally.failed = round.tally.attempted;
            return round;
        }
        let outcome = self.scheduled_loop(ops, rate_per_s, &mut round, tracer, round_span);
        if let Err(Broken(why)) = outcome {
            eprintln!("connection failed: {why}");
            let unsent = ops.len() as u64 - round.late_ns.len() as u64;
            self.abandon(&mut round.tally, unsent);
        }
        if let Err(e) = self.stream.set_nonblocking(false) {
            eprintln!("connection failed: {e}");
        }
        round.latency.ns.sort_unstable();
        round.late_ns.sort_unstable();
        round
    }

    fn scheduled_loop(
        &mut self,
        ops: &[u32],
        rate_per_s: f64,
        round: &mut ScheduledRound,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
    ) -> Result<(), Broken> {
        let interval_ns = 1e9 / rate_per_s;
        let due = |i: usize| (i as f64 * interval_ns) as u64;
        let start = Instant::now();
        let mut meter = StallMeter::default();
        let mut sent = 0usize;
        let mut written = 0usize;
        let mut answered = 0usize;
        let mut last_progress = start;
        while answered < ops.len() {
            let now = Instant::now();
            meter.tick(now);
            let now_ns = (now - start).as_nanos() as u64;

            if sent < ops.len()
                && due(sent) <= now_ns
                && self.pending.len() < self.pending.capacity()
            {
                let span = tracer.open("loadgen.build", parent, sent as u64);
                while sent < ops.len()
                    && due(sent) <= now_ns
                    && self.pending.len() < self.pending.capacity()
                {
                    self.build(ops[sent], due(sent));
                    round
                        .late_ns
                        .push((now_ns - due(sent)).min(u64::from(u32::MAX)) as u32);
                    sent += 1;
                }
                tracer.close(span);
            }

            if written < self.tx.len() {
                let span = tracer.open("socket.write", parent, sent as u64);
                let wrote = self.stream.write(&self.tx[written..]);
                tracer.close(span);
                match wrote {
                    Ok(0) => return Err(Broken("server closed the connection".into())),
                    Ok(n) => {
                        written += n;
                        last_progress = now;
                        if written == self.tx.len() {
                            self.tx.clear();
                            written = 0;
                        }
                    }
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                    Err(e) => return Err(Broken(format!("write: {e}"))),
                }
            }

            match self.read_some() {
                Ok(0) => return Err(Broken("server closed the connection".into())),
                Ok(_) => {
                    let span = tracer.open("loadgen.check", parent, answered as u64);
                    let read_ns = start.elapsed().as_nanos() as u64;
                    let latency = &mut round.latency;
                    let mut replies = 0;
                    let drained = self.drain_replies(&mut round.tally, |expect, verdict| {
                        replies += 1;
                        if verdict != Verdict::Failed {
                            latency.push(read_ns.saturating_sub(expect.due_ns));
                        }
                    });
                    tracer.close(span);
                    drained?;
                    answered += replies;
                    last_progress = now;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                Err(e) => return Err(Broken(format!("read: {e}"))),
            }
            if now - last_progress > IO_DEADLINE {
                return Err(Broken("no reply within the deadline".into()));
            }
        }
        round.elapsed = start.elapsed();
        round.stalled = meter.stalled();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use densekv_kv::client::{parse_reply, Reply, RequestBuilder};

    fn reference(misses_allowed: bool) -> Reference {
        Reference::new(1000, ValueSizes::Mixed, misses_allowed)
    }

    #[test]
    fn requests_match_the_kv_codec_byte_for_byte() {
        let r = reference(false);
        let mut mine = Vec::new();
        let mut theirs = RequestBuilder::new();
        for (id, version) in [(3u32, 1u32), (999, 77), (500, 2)] {
            let len = r.value_len(id);
            build_set(&mut mine, r.key(id), id, version, len);
            let mut value = Vec::new();
            write_value(&mut value, id, version, len);
            assert_eq!(value.len(), len);
            theirs.set(r.key(id), &value, 0, 0);
            build_get(&mut mine, r.key(id));
            theirs.get(r.key(id));
        }
        assert_eq!(mine, &theirs.take()[..]);
    }

    #[test]
    fn mixed_sizes_use_all_four_classes_evenly() {
        let mut counts = std::collections::BTreeMap::new();
        for id in 0..40_000u32 {
            *counts.entry(ValueSizes::Mixed.of(id)).or_insert(0u32) += 1;
        }
        assert_eq!(
            counts.keys().copied().collect::<Vec<_>>(),
            [64, 512, 1024, 4096]
        );
        assert!(
            counts.values().all(|&n| (9_000..11_000).contains(&n)),
            "{counts:?}"
        );
    }

    /// A reply stream as the server renders it, with its expectations
    /// and the verdict each must get.
    fn scripted_stream(r: &Reference) -> (Vec<u8>, Vec<(Expect, Verdict)>) {
        let expect = |set, key, version| Expect {
            set,
            key,
            version,
            due_ns: 0,
        };
        let mut stream = Vec::new();
        let mut script = Vec::new();
        let hit = |stream: &mut Vec<u8>, key: u32, version: u32| {
            let len = r.value_len(key);
            stream.extend_from_slice(b"VALUE ");
            stream.extend_from_slice(r.key(key));
            stream.extend_from_slice(format!(" 0 {len}\r\n").as_bytes());
            write_value(stream, key, version, len);
            stream.extend_from_slice(b"\r\nEND\r\n");
        };
        stream.extend_from_slice(b"STORED\r\n");
        script.push((expect(true, 1, 1), Verdict::Stored));
        hit(&mut stream, 1, 1);
        script.push((expect(false, 1, 1), Verdict::Hit));
        stream.extend_from_slice(b"END\r\n");
        script.push((expect(false, 2, 1), Verdict::Miss));
        // A stale version is a failure, not a hit.
        hit(&mut stream, 3, 4);
        script.push((expect(false, 3, 5), Verdict::Failed));
        // The right bytes under the wrong key.
        hit(&mut stream, 4, 1);
        script.push((expect(false, 5, 1), Verdict::Failed));
        stream.extend_from_slice(b"SERVER_ERROR out of memory storing object\r\n");
        script.push((expect(true, 6, 1), Verdict::Failed));
        // A SET answered like a GET miss, and a GET answered STORED.
        stream.extend_from_slice(b"END\r\n");
        script.push((expect(true, 7, 1), Verdict::Failed));
        stream.extend_from_slice(b"STORED\r\n");
        script.push((expect(false, 8, 1), Verdict::Failed));
        hit(&mut stream, 999, 3);
        script.push((expect(false, 999, 3), Verdict::Hit));
        (stream, script)
    }

    fn run_script(chunks: &[&[u8]], script: &[(Expect, Verdict)], r: &Reference) -> Vec<Verdict> {
        let mut buf = Vec::new();
        let mut verdicts = Vec::new();
        for chunk in chunks {
            buf.extend_from_slice(chunk);
            while verdicts.len() < script.len() {
                match check_reply(&buf, &script[verdicts.len()].0, r).expect("frames") {
                    Some((used, verdict)) => {
                        buf.drain(..used);
                        verdicts.push(verdict);
                    }
                    None => break,
                }
            }
        }
        assert!(buf.is_empty(), "{} bytes left over", buf.len());
        verdicts
    }

    #[test]
    fn reply_checker_gives_the_same_verdicts_at_every_split_offset() {
        let r = reference(true);
        let (stream, script) = scripted_stream(&r);
        let wanted: Vec<Verdict> = script.iter().map(|(_, v)| *v).collect();
        assert_eq!(run_script(&[&stream], &script, &r), wanted);
        for split in 0..=stream.len() {
            let (a, b) = stream.split_at(split);
            assert_eq!(run_script(&[a, b], &script, &r), wanted, "split at {split}");
        }
        // One byte at a time.
        let bytes: Vec<&[u8]> = stream.chunks(1).collect();
        assert_eq!(run_script(&bytes, &script, &r), wanted);
    }

    #[test]
    fn reply_checker_frames_exactly_like_the_kv_codec() {
        let r = reference(true);
        let (stream, script) = scripted_stream(&r);
        let mut theirs = BytesMut::from(&stream[..]);
        let mut mine = &stream[..];
        for (expect, _) in &script {
            let (used, _) = check_reply(mine, expect, &r).unwrap().unwrap();
            let before = theirs.len();
            let reply = parse_reply(&mut theirs).unwrap().expect("complete");
            assert_eq!(before - theirs.len(), used, "{reply:?}");
            mine = &mine[used..];
        }
        assert!(mine.is_empty() && theirs.is_empty());
        // And the codec reads our hit as the value we wrote.
        let mut hit = BytesMut::new();
        hit.extend_from_slice(b"VALUE ");
        hit.extend_from_slice(r.key(9));
        hit.extend_from_slice(format!(" 0 {}\r\n", r.value_len(9)).as_bytes());
        let mut value = Vec::new();
        write_value(&mut value, 9, 2, r.value_len(9));
        hit.extend_from_slice(&value);
        hit.extend_from_slice(b"\r\nEND\r\n");
        let Reply::Values(values) = parse_reply(&mut hit).unwrap().unwrap() else {
            panic!("a VALUE block");
        };
        assert_eq!(values[0].data, value);
        assert!(value_matches(&values[0].data, 9, 2));
        assert!(!value_matches(&values[0].data, 9, 3));
    }

    #[test]
    fn a_miss_is_a_failure_where_nothing_may_be_evicted() {
        let strict = reference(false);
        let expect = Expect {
            set: false,
            key: 1,
            version: 1,
            due_ns: 0,
        };
        assert_eq!(
            check_reply(b"END\r\n", &expect, &strict),
            Ok(Some((5, Verdict::Failed)))
        );
    }

    #[test]
    fn garbage_is_a_desync_not_a_panic() {
        let r = reference(true);
        let expect = Expect {
            set: false,
            key: 1,
            version: 1,
            due_ns: 0,
        };
        assert_eq!(check_reply(&[b'x'; 300], &expect, &r), Err(Desync));
        assert_eq!(check_reply(b"VALUE k 0 zz\r\n", &expect, &r), Err(Desync));
        assert_eq!(check_reply(b"END\n", &expect, &r), Err(Desync));
        assert_eq!(
            check_reply(b"VALUE k 0 2\r\nabXXEND\r\n", &expect, &r),
            Err(Desync)
        );
        assert_eq!(check_reply(b"", &expect, &r), Ok(None));
    }

    #[test]
    fn lateness_and_latency_run_from_the_schedule() {
        // Through a real server: every request gets a lateness and a
        // latency sample, and the schedule sets the round's length.
        let server = densekv_serve::spawn(densekv_serve::ServeConfig::ephemeral()).unwrap();
        let mut client = Client::connect(
            server.addr(),
            Reference::new(16, ValueSizes::Fixed(64), false),
            64,
            1 << 16,
        )
        .unwrap();
        let mut tracer = Tracer::new(false);
        let sets: Vec<u32> = (0..16).map(|k| k | OP_SET).collect();
        let preload = client.run_batches(&sets, 16, &mut tracer, None, 0);
        assert_eq!((preload.tally.attempted, preload.tally.failed), (16, 0));

        let gets: Vec<u32> = (0..200).map(|i| i % 16).collect();
        // 200 requests at 10 000/s = 20 ms of schedule.
        let round = client.run_scheduled(&gets, 10_000.0, &mut tracer, None);
        assert_eq!(round.tally.attempted, 200);
        assert_eq!(round.tally.failed, 0);
        assert_eq!((round.tally.gets, round.tally.hits), (200, 200));
        assert_eq!(round.latency.sorted_ns().len(), 200);
        assert_eq!(round.late_ns.len(), 200);
        // The schedule, not the server, sets the round's length.
        assert!(
            round.elapsed >= Duration::from_micros(19_900),
            "{:?}",
            round.elapsed
        );
        let ns = round.latency.sorted_ns();
        assert!(ns.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // No reply can be counted faster than it was sent late.
        assert!(ns[199] >= round.late_ns[0]);
        assert_eq!(round.latency.within(Duration::from_secs(1)), 1.0);
        assert_eq!(round.latency.within(Duration::ZERO), 0.0);
        server.shutdown();
    }

    #[test]
    fn a_request_is_late_by_exactly_the_time_past_its_due_time() {
        // Schedule arithmetic, without a socket: at 1000/s request 5 is
        // due at 5 ms; built at 7.25 ms it is 2.25 ms late.
        let interval_ns = 1e9 / 1000.0;
        let due = |i: usize| (i as f64 * interval_ns) as u64;
        assert_eq!(due(5), 5_000_000);
        assert_eq!(7_250_000 - due(5), 2_250_000);
        let mut latency = Latencies::for_round(4);
        for ns in [10_000, 900_000, 1_100_000] {
            latency.push(ns);
        }
        // Two of four attempted met 1 ms: the failed one (no sample)
        // and the slow one both miss.
        assert_eq!(latency.within(Duration::from_millis(1)), 0.5);
        assert_eq!(latency.quantile_us(0.5), Some(900.0));
        assert_eq!(Latencies::for_round(3).quantile_us(0.5), None);
    }

    #[test]
    fn closed_loop_round_verifies_versions_through_a_real_server() {
        let server = densekv_serve::spawn(densekv_serve::ServeConfig::ephemeral()).unwrap();
        let mut client = Client::connect(
            server.addr(),
            Reference::new(64, ValueSizes::Mixed, false),
            256,
            1 << 20,
        )
        .unwrap();
        let mut tracer = Tracer::new(true);
        let mut ops: Vec<u32> = (0..64).map(|k| k | OP_SET).collect();
        // Overwrite, then read back: hits must carry version 2.
        ops.extend((0..64).map(|k| k | OP_SET));
        ops.extend(0..64);
        let round = client.run_batches(&ops, 50, &mut tracer, None, 0);
        assert_eq!(round.tally.attempted, 192);
        assert_eq!(round.tally.failed, 0);
        assert_eq!((round.tally.gets, round.tally.hits), (64, 64));
        // One completion time per batch of 50 (the last holds 42).
        assert_eq!(round.latency.sorted_ns().len(), 4);
        assert_eq!(round.latency.within(Duration::from_secs(5)), 1.0);
        let names: Vec<_> = tracer.summary().iter().map(|row| row.0).collect();
        for name in [
            "loadgen.build",
            "socket.write",
            "socket.read",
            "loadgen.check",
        ] {
            assert!(names.contains(&name), "{name} missing from {names:?}");
        }
        server.shutdown();
    }
}
