//! Replays a seeded all-verb request stream and compares every reply
//! byte with `tests/golden/serve_transcript.bin`, recorded from this
//! same stream through the model store (`record_golden` below is how)
//! and re-recorded only when the protocol changes on purpose.
//!
//! The stream is a sequence of sessions, each ending the way a
//! connection ends: with `quit`, or with an error that loses framing.
//! The golden file holds, per session, a little-endian `u32` length and
//! the reply bytes. Session 0 is short and starts from an empty store,
//! so it can be replayed once per split offset; the rest run in order
//! against one store.
//!
//! Replies must not depend on the path the bytes took: through
//! `kv::server::serve_buffer` or a live connection, in one write or in
//! chunks, over the model store or the engine, metrics on or off.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use densekv_engine::Engine;
use densekv_kv::server::serve_buffer;
use densekv_kv::store::{ITEM_HEADER_BYTES, MAX_ITEM_FOOTPRINT_BYTES};
use densekv_kv::{KvStore, StoreBackend, StoreConfig};
use densekv_serve::{spawn, BackendKind, MetricsConfig, ServeConfig, ServerHandle};
use densekv_sim::SplitMix64;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/serve_transcript.bin"
);
const SEED: u64 = 0x5EED_0016;
const STORE_BYTES: u64 = 64 << 20;

fn key(rng: &mut SplitMix64) -> String {
    format!("key{:02}", rng.next_below(24))
}

/// A storage command with its data block.
fn storage(out: &mut Vec<u8>, head: String, len: usize, fill: u8) {
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(b"\r\n");
    out.extend(std::iter::repeat_n(fill, len));
    out.extend_from_slice(b"\r\n");
}

/// One random command: every verb, `noreply` forms, and lines that are
/// malformed without losing framing.
fn command(out: &mut Vec<u8>, rng: &mut SplitMix64) {
    const SIZES: [usize; 10] = [0, 1, 31, 32, 33, 64, 100, 512, 4096, 6000];
    let k = key(rng);
    let len = SIZES[rng.next_below(SIZES.len() as u64) as usize];
    let fill = b'a' + rng.next_below(26) as u8;
    let flags = rng.next_below(1000);
    // Nothing in the stream expires: the live server's clock moves, the
    // buffer replay's does not.
    let exptime = [0, 0, 3600][rng.next_below(3) as usize];
    let noreply = if rng.next_below(8) == 0 {
        " noreply"
    } else {
        ""
    };
    match rng.next_below(28) {
        0..=4 => storage(
            out,
            format!("set {k} {flags} {exptime} {len}{noreply}"),
            len,
            fill,
        ),
        5 => storage(out, format!("add {k} {flags} 0 {len}{noreply}"), len, fill),
        6 => storage(
            out,
            format!("replace {k} {flags} 0 {len}{noreply}"),
            len,
            fill,
        ),
        7 => storage(out, format!("append {k} 0 0 {len}{noreply}"), len, fill),
        8 => storage(out, format!("prepend {k} 0 0 {len}{noreply}"), len, fill),
        9 => {
            let token = rng.next_below(40);
            storage(
                out,
                format!("cas {k} {flags} 0 {len} {token}{noreply}"),
                len,
                fill,
            );
        }
        10..=13 => out.extend_from_slice(format!("get {k}\r\n").as_bytes()),
        14 => {
            let (a, b) = (key(rng), key(rng));
            out.extend_from_slice(format!("get {k}  {a} missing {b}\r\n").as_bytes());
        }
        15 => out.extend_from_slice(format!("gets {k}\r\n").as_bytes()),
        16 => {
            let a = key(rng);
            out.extend_from_slice(format!("gets {a} {k} {a}\r\n").as_bytes());
        }
        // A number, so that `incr`/`decr` have something to work on.
        17 => out.extend_from_slice(
            format!("set {k} 0 0 2{noreply}\r\n{:02}\r\n", rng.next_below(90)).as_bytes(),
        ),
        18 => out.extend_from_slice(
            format!("incr {k} {}{noreply}\r\n", rng.next_below(1000)).as_bytes(),
        ),
        19 => out
            .extend_from_slice(format!("decr {k} {}{noreply}\r\n", rng.next_below(50)).as_bytes()),
        20 => out.extend_from_slice(format!("delete {k}{noreply}\r\n").as_bytes()),
        21 => out.extend_from_slice(format!("touch {k} 3600{noreply}\r\n").as_bytes()),
        22 => out.extend_from_slice(b"stats\r\n"),
        23 => out.extend_from_slice(b"version\r\n"),
        24 => {
            if rng.next_below(6) == 0 {
                out.extend_from_slice(b"flush_all\r\n");
            } else {
                out.extend_from_slice(b"stats bogus\r\n");
            }
        }
        _ => {
            const MALFORMED: [&[u8]; 10] = [
                b"frobnicate\r\n",
                b"\r\n",
                b"get\r\n",
                b"set k 0 0 notanumber\r\n",
                b"set k\r\n",
                b"incr k\r\n",
                b"incr k -1\r\n",
                b"touch k\r\n",
                b"delete\r\n",
                b"   \r\n",
            ];
            out.extend_from_slice(MALFORMED[rng.next_below(MALFORMED.len() as u64) as usize]);
        }
    }
}

/// A key of `MAX_KEY_BYTES` and values at the item-size policy
/// boundary: the largest storable value, an append that pushes it over
/// (refused, leaving the item intact), and a block of exactly
/// `MAX_VALUE_BYTES`, which the parser admits and the store refuses
/// (unlinking the old item, as a failed `set` does).
fn boundary_session() -> Vec<u8> {
    let mut out = Vec::new();
    let long_key = "K".repeat(250);
    storage(&mut out, format!("set {long_key} 7 0 3"), 3, b'v');
    out.extend_from_slice(format!("get {long_key}\r\n").as_bytes());
    let too_long_key = "K".repeat(251);
    storage(&mut out, format!("set {too_long_key} 7 0 3"), 3, b'v');
    let largest = (MAX_ITEM_FOOTPRINT_BYTES - ITEM_HEADER_BYTES) as usize - "big".len();
    storage(&mut out, format!("set big 1 0 {largest}"), largest, b'B');
    storage(&mut out, "append big 0 0 1".to_owned(), 1, b'!');
    out.extend_from_slice(b"get big\r\n");
    storage(&mut out, format!("set big 1 0 {}", 1 << 20), 1 << 20, b'B');
    out.extend_from_slice(b"get big\r\nstats\r\nquit\r\n");
    out
}

/// The whole stream, one `Vec` per session.
fn sessions() -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(SEED);
    let mut all = Vec::new();
    // Session 0: every verb once, by hand, from an empty store.
    all.push(
        b"set a 5 0 3\r\nabc\r\nget a\r\ngets a b\r\nadd a 0 0 1\r\nx\r\nappend a 0 0 2 noreply\r\n\
          de\r\nget  a   zz\r\nbogus\r\nset n 0 0 1\r\n7\r\nincr n 5\r\ndecr n 100\r\n\
          touch a 3600\r\ncas a 1 0 1 99\r\nq\r\ndelete n\r\nstats nope\r\nversion\r\nquit\r\n"
            .to_vec(),
    );
    for ending in 0..6 {
        let mut session = Vec::new();
        for _ in 0..250 {
            command(&mut session, &mut rng);
        }
        // Each of these ends the connection, and is the last thing the
        // client sends on it.
        match ending {
            0 | 4 => session.extend_from_slice(b"quit\r\n"),
            1 => session.extend_from_slice(b"set k 0 0 3\r\nabcXY"),
            2 => session.extend_from_slice(format!("set k 0 0 {}\r\n", (1 << 20) + 1).as_bytes()),
            3 => session.extend(std::iter::repeat_n(b'x', 2049)),
            _ => session.extend_from_slice(b"get k\r\nset k 0 0 18446744073709551616\r\nquit\r\n"),
        }
        all.push(session);
    }
    all.insert(5, boundary_session());
    all
}

fn golden() -> Vec<Vec<u8>> {
    let bytes = std::fs::read(GOLDEN).expect("tests/golden/serve_transcript.bin is checked in");
    let mut rest = &bytes[..];
    let mut replies = Vec::new();
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        replies.push(rest[4..4 + len].to_vec());
        rest = &rest[4 + len..];
    }
    replies
}

fn store(backend: BackendKind) -> Box<dyn StoreBackend> {
    let config = StoreConfig::with_capacity(STORE_BYTES);
    match backend {
        BackendKind::Model => Box::new(KvStore::new(config)),
        BackendKind::Engine => Box::new(Engine::new(config)),
    }
}

/// One shard, so that CAS tokens advance as they do in a single store.
fn server(backend: BackendKind, metrics: MetricsConfig, store_bytes: u64) -> ServerHandle {
    spawn(ServeConfig {
        store_bytes,
        shards: 1,
        read_timeout: Duration::from_secs(10),
        metrics,
        backend,
        ..ServeConfig::ephemeral()
    })
    .expect("loopback listener binds")
}

/// Sends `session` in the given chunks on a new connection and reads
/// until the server closes it.
fn converse<'a>(server: &ServerHandle, chunks: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.addr()).expect("connects");
    stream.set_nodelay(true).unwrap();
    for chunk in chunks {
        stream.write_all(chunk).expect("server is reading");
    }
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("server closes cleanly");
    reply
}

fn assert_same(what: &str, got: &[u8], want: &[u8]) {
    if got != want {
        let at = got.iter().zip(want).take_while(|(a, b)| a == b).count();
        let show = |b: &[u8]| {
            String::from_utf8_lossy(&b[at.saturating_sub(60)..b.len().min(at + 60)]).into_owned()
        };
        panic!(
            "{what}: replies differ at byte {at} of {} (golden {}):\n got: {:?}\nwant: {:?}",
            got.len(),
            want.len(),
            show(got),
            show(want)
        );
    }
}

#[test]
fn golden_holds_what_the_stream_must_cover() {
    let golden = golden();
    assert_eq!(golden.len(), sessions().len());
    let all = golden.concat();
    let text = String::from_utf8_lossy(&all);
    for needle in [
        "VALUE a 5 3\r\nabc\r\nEND\r\n",
        "NOT_STORED\r\n",
        "EXISTS\r\n",
        "NOT_FOUND\r\n",
        "TOUCHED\r\n",
        "DELETED\r\n",
        "ERROR\r\n",
        "CLIENT_ERROR bad arguments: bytes\r\n",
        "CLIENT_ERROR bad data chunk\r\n",
        "CLIENT_ERROR command line too long\r\n",
        "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n",
        "CLIENT_ERROR key of 251 bytes exceeds 250\r\n",
        "SERVER_ERROR object too large for cache\r\n",
        "STAT cmd_get ",
        "VERSION ",
        "OK\r\n",
    ] {
        assert!(text.contains(needle), "golden never shows {needle:?}");
    }
}

#[test]
fn serve_buffer_replays_the_golden() {
    let golden = golden();
    for backend in [BackendKind::Model, BackendKind::Engine] {
        let mut store = store(backend);
        for (i, (session, want)) in sessions().iter().zip(&golden).enumerate() {
            let got = serve_buffer(&mut *store, session, 0);
            assert_same(&format!("{backend:?} session {i}"), &got, want);
            if i == 0 {
                store = self::store(backend);
            }
        }
    }
}

#[test]
fn live_connection_replays_the_golden_at_every_split() {
    let golden = golden();
    let sessions = sessions();
    let planes = [
        MetricsConfig {
            sample_every: 3,
            window: Duration::from_millis(2),
            ..MetricsConfig::default()
        },
        MetricsConfig::disabled(),
    ];
    for backend in [BackendKind::Model, BackendKind::Engine] {
        for plane in &planes {
            let what = format!("{backend:?} metrics {}", plane.enabled);
            // The short session, split in two at every offset, each time
            // from an empty store.
            let short = &sessions[0];
            for at in 0..=short.len() {
                let live = server(backend, plane.clone(), 1 << 20);
                let got = converse(&live, [&short[..at], &short[at..]].into_iter());
                assert_same(&format!("{what} split at {at}"), &got, &golden[0]);
                live.shutdown();
            }

            // The rest in order against one store, in random chunks of
            // 1 B to 16 KB.
            let live = server(backend, plane.clone(), STORE_BYTES);
            let mut rng = SplitMix64::new(SEED ^ 0xC4);
            for (i, (session, want)) in sessions.iter().zip(&golden).enumerate().skip(1) {
                let mut rest = &session[..];
                let chunks = std::iter::from_fn(|| {
                    let small = rng.next_below(4) > 0;
                    let most = if small { 64 } else { 16 << 10 };
                    let take = (1 + rng.next_below(most) as usize).min(rest.len());
                    let (chunk, tail) = rest.split_at(take);
                    rest = tail;
                    (!chunk.is_empty()).then_some(chunk)
                });
                let got = converse(&live, chunks);
                assert_same(&format!("{what} session {i}"), &got, want);
            }
            live.shutdown();
        }
    }
}

/// Writes the golden file from the model store through `serve_buffer`.
/// Run once, on the commit whose behaviour is the reference:
/// `cargo test -p densekv-serve --test golden_transcript -- --ignored`.
#[test]
#[ignore = "rewrites tests/golden/serve_transcript.bin"]
fn record_golden() {
    let mut store = store(BackendKind::Model);
    let mut file = Vec::new();
    for (i, session) in sessions().iter().enumerate() {
        let reply = serve_buffer(&mut *store, session, 0);
        file.extend_from_slice(&(reply.len() as u32).to_le_bytes());
        file.extend_from_slice(&reply);
        if i == 0 {
            store = self::store(BackendKind::Model);
        }
    }
    std::fs::write(GOLDEN, file).expect("golden file is writable");
}
