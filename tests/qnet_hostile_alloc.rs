//! A hostile frame payload cannot make the decoder reserve memory its
//! bytes do not back. Each payload below claims a huge element count
//! and then ends; decoding must fail with a typed `Corrupt` without one
//! large allocation. A counting global allocator records the largest
//! single allocation the decoding thread makes, which is why this file
//! is a test binary of its own.

use lasagna_repro::qnet::{QnetError, Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// No single allocation while decoding may exceed this many bytes.
const LIMIT: usize = 4 << 10;

struct Counting;

thread_local! {
    /// True while this thread's allocations are being measured.
    static WATCHING: Cell<bool> = const { Cell::new(false) };
    /// Largest single allocation seen while watching.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// so `System`'s guarantees are this allocator's. The bookkeeping only
// touches const-initialised thread-local cells, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `realloc` and `alloc_zeroed` default to this method, so every
        // reservation passes through here.
        if WATCHING.try_with(Cell::get).unwrap_or(false) {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    WATCHING.with(|w| w.set(true));
    let out = f();
    WATCHING.with(|w| w.set(false));
    (out, LARGEST.with(Cell::get))
}

fn u32le(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

fn u64le(v: u64) -> [u8; 8] {
    v.to_le_bytes()
}

#[test]
fn hostile_counts_fail_without_reserving_memory() {
    // Query (request tag 1): id, deadline, client id "c", then a read
    // count of u32::MAX followed by 8 bytes.
    let query = [
        &[1u8][..],
        &u64le(7),
        &u32le(100),
        &u32le(1),
        b"c",
        &u32le(u32::MAX),
        &u64le(0),
    ]
    .concat();
    // ShardCandidates (response tag 11): id, generation, u32::MAX lists,
    // the first of which claims u32::MAX candidates.
    let shard_candidates = [
        &[11u8][..],
        &u64le(7),
        &u64le(1),
        &u32le(u32::MAX),
        &u32le(u32::MAX),
        &u64le(0),
    ]
    .concat();
    // Hits (response tag 1): id, generation, u32::MAX hits.
    let hits = [&[1u8][..], &u64le(7), &u64le(1), &u32le(u32::MAX)].concat();
    // Stats (response tag 8): uptime, draining flag, twelve counters,
    // then the largest client-row count the decoder accepts.
    let mut stats = vec![8u8];
    stats.extend(u64le(0));
    stats.push(0);
    for _ in 0..12 {
        stats.extend(u64le(0));
    }
    stats.extend(u32le(1 << 16));

    type Decode = fn(&[u8]) -> Option<QnetError>;
    let cases: [(&str, &[u8], Decode); 4] = [
        ("Query", &query, |b| Request::decode(b, "peer").err()),
        ("ShardCandidates", &shard_candidates, |b| {
            Response::decode(b, "peer").err()
        }),
        ("Hits", &hits, |b| Response::decode(b, "peer").err()),
        ("Stats", &stats, |b| Response::decode(b, "peer").err()),
    ];
    for (name, payload, decode) in cases {
        let (err, largest) = largest_allocation(|| decode(payload));
        assert!(
            matches!(err, Some(QnetError::Corrupt { .. })),
            "{name}: expected Corrupt, got {err:?}"
        );
        assert!(
            largest <= LIMIT,
            "{name}: a {}-byte payload made a {largest}-byte allocation",
            payload.len()
        );
    }
}
