//! A steady-state GET hit through a real connection performs no heap
//! allocation on the server: the request is parsed as slices of the
//! receive buffer, the value is rendered from where the store keeps it,
//! and what the metrics plane learns goes into the connection's own
//! cells. A SET allocates exactly what the same store allocates when it
//! is handed the same value directly — the one copy of the data block
//! included.
//!
//! "The server" is every thread but this test's own (which is the
//! client), so the counts cover the `densekv-serve-conn-*` worker and
//! would catch a helper thread too. Two things a shipped server does
//! allocate for, by design and not per command, are switched off here:
//! a sampled request's span (one in `sample_every`) and a window
//! rotation (one per `window`). Alone in its file, so no other test
//! shares the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use densekv_kv::StoreConfig;
use densekv_serve::{spawn, BackendKind, MetricsConfig, ServeConfig};

thread_local! {
    /// Whether this thread is the test's own, and what it allocated.
    /// (Const-initialised and without destructors, so reading them from
    /// the allocator cannot itself allocate or re-enter.)
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
    static CLIENT_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by every other thread.
static SERVER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if IS_CLIENT.with(Cell::get) {
        CLIENT_ALLOCATIONS.with(|n| n.set(n.get() + 1));
    } else {
        SERVER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a counter bump that
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this `layout`; the
        // caller's `new_size` obligations pass through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const KEYS: usize = 256;
const DEPTH: usize = 1024;
const STORE_BYTES: u64 = 16 << 20;
const VERSION: &[u8] = b"VERSION 1.4.15-densekv\r\n";

fn key(i: usize) -> String {
    format!("resident-key-{:04}", i % KEYS)
}

fn value(i: usize, round: u8) -> Vec<u8> {
    vec![round.wrapping_add(i as u8); 32 + (i % KEYS) % 7 * 100]
}

fn sets(round: u8) -> Vec<u8> {
    let mut batch = Vec::new();
    for i in 0..KEYS {
        let value = value(i, round);
        batch.extend_from_slice(format!("set {} 5 0 {}\r\n", key(i), value.len()).as_bytes());
        batch.extend_from_slice(&value);
        batch.extend_from_slice(b"\r\n");
    }
    batch.extend_from_slice(b"version\r\n");
    batch
}

fn gets() -> Vec<u8> {
    let mut batch = Vec::new();
    for i in 0..DEPTH {
        // A stride coprime to the key count, so neighbours differ.
        batch.extend_from_slice(format!("get {}\r\n", key(i * 37)).as_bytes());
    }
    batch.extend_from_slice(b"version\r\n");
    batch
}

/// Sends `batch` (which ends with `version`) and returns the reply, read
/// up to and including the version line.
fn exchange(stream: &mut TcpStream, batch: &[u8]) -> Vec<u8> {
    stream.write_all(batch).expect("server is reading");
    let mut reply = Vec::new();
    let mut chunk = [0u8; 16 << 10];
    while !reply.ends_with(VERSION) {
        let n = stream.read(&mut chunk).expect("server is answering");
        assert_ne!(n, 0, "server closed mid-batch");
        reply.extend_from_slice(&chunk[..n]);
    }
    reply
}

/// `exchange`, and how often the server allocated meanwhile. A batch's
/// measurements are flushed before its reply is written, so by the time
/// the reply is here the server has done everything the batch made it
/// do.
fn server_allocations(stream: &mut TcpStream, batch: &[u8]) -> (Vec<u8>, u64) {
    let before = SERVER_ALLOCATIONS.load(Ordering::SeqCst);
    let reply = exchange(stream, batch);
    (reply, SERVER_ALLOCATIONS.load(Ordering::SeqCst) - before)
}

#[test]
fn live_get_hits_do_not_allocate_and_sets_allocate_what_the_store_does() {
    IS_CLIENT.with(|c| c.set(true));
    let planes = [
        MetricsConfig {
            sample_every: 0,
            window: Duration::from_secs(3600),
            ..MetricsConfig::default()
        },
        MetricsConfig::disabled(),
    ];
    for backend in [BackendKind::Model, BackendKind::Engine] {
        for plane in &planes {
            let what = format!("{backend:?}, metrics {}", plane.enabled);
            let server = spawn(ServeConfig {
                store_bytes: STORE_BYTES,
                shards: 1,
                metrics: plane.clone(),
                backend,
                ..ServeConfig::ephemeral()
            })
            .expect("loopback listener binds");
            let mut stream = TcpStream::connect(server.addr()).expect("connects");
            stream.set_nodelay(true).unwrap();

            // The same store, driven directly on this thread: what a SET
            // of these values costs the store alone, plus the one copy
            // of the value it is to keep.
            let mut direct = backend.build(StoreConfig::with_capacity(STORE_BYTES));
            let keys: Vec<String> = (0..KEYS).map(key).collect();
            let mut direct_sets = |round: u8| {
                let values: Vec<Vec<u8>> = (0..KEYS).map(|i| value(i, round)).collect();
                let before = CLIENT_ALLOCATIONS.with(Cell::get);
                for (key, value) in keys.iter().zip(&values) {
                    direct
                        .set_with_flags(key.as_bytes(), value.clone(), 5, None, 0)
                        .expect("fits");
                }
                CLIENT_ALLOCATIONS.with(Cell::get) - before
            };

            // Every buffer reaches its working size within two rounds.
            for round in 0..2 {
                exchange(&mut stream, &sets(round));
                direct_sets(round);
            }
            let (reply, live) = server_allocations(&mut stream, &sets(2));
            assert_eq!(reply.len(), KEYS * b"STORED\r\n".len() + VERSION.len());
            assert_eq!(
                live,
                direct_sets(2),
                "{what}: {KEYS} SETs allocated {live} times on the server"
            );

            let batch = gets();
            let warm = exchange(&mut stream, &batch);
            exchange(&mut stream, &batch);
            let (reply, live) = server_allocations(&mut stream, &batch);
            assert_eq!(reply, warm, "{what}");
            assert_eq!(reply.windows(5).filter(|w| w == b"VALUE").count(), DEPTH);
            assert_eq!(
                live, 0,
                "{what}: {DEPTH} pipelined GET hits allocated {live} times on the server"
            );
            drop(stream);
            server.shutdown();
        }
    }
}
