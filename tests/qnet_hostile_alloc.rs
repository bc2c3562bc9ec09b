//! A hostile payload cannot make a decoder reserve memory its bytes do
//! not back. Each payload below, a frame, a contig store, a minimizer
//! index or a graph checkpoint, claims a huge element count and then
//! ends; decoding must fail with a typed `Corrupt` without one large
//! allocation. The same holds for a frame header on the wire that claims
//! a huge payload and then closes. A counting global allocator records
//! the largest single allocation the decoding thread makes, which is why
//! this file is a test binary of its own.

use lasagna_repro::genome::PackedSeq;
use lasagna_repro::gstream::{self, StreamError};
use lasagna_repro::lasagna::StringGraph;
use lasagna_repro::obs::Recorder;
use lasagna_repro::qnet::{ClientConfig, QnetError, QueryClient, Request, Response};
use lasagna_repro::qserve::{ContigStore, MinimizerIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

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

fn qnet_corrupt<T>(r: Result<T, QnetError>) -> Result<(), String> {
    match r {
        Err(QnetError::Corrupt { .. }) => Ok(()),
        Err(e) => Err(format!("{e:?}")),
        Ok(_) => Err("a successful decode".into()),
    }
}

fn stream_corrupt<T>(r: gstream::Result<T>) -> Result<(), String> {
    match r {
        Err(StreamError::Corrupt(_)) => Ok(()),
        Err(e) => Err(format!("{e:?}")),
        Ok(_) => Err("a successful decode".into()),
    }
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

    // A contig store (`LASTIG01`) claiming 2^40 contigs.
    let store = [&b"LASTIG01"[..], &u64le(1 << 40), &u64le(0)].concat();
    // A minimizer index (`LASMIDX1`, k = 15, w = 8) claiming u32::MAX
    // postings.
    let index = [
        &b"LASMIDX1"[..],
        &u32le(15),
        &u32le(8),
        &u64le(0),
        &u64le(u32::MAX as u64),
    ]
    .concat();
    // A graph checkpoint claiming 2^24 vertices: 8 bytes of edge table
    // each, 128 MiB, in a 16-byte image.
    let graph = [&b"LSGR"[..], &u32le(1 << 24), &u64le(0)].concat();

    /// `Ok` when decoding failed with the format's typed `Corrupt`.
    type Decode = fn(&[u8]) -> Result<(), String>;
    let cases: [(&str, &[u8], Decode); 7] = [
        ("Query", &query, |b| {
            qnet_corrupt(Request::decode(b, "peer"))
        }),
        ("ShardCandidates", &shard_candidates, |b| {
            qnet_corrupt(Response::decode(b, "peer"))
        }),
        ("Hits", &hits, |b| qnet_corrupt(Response::decode(b, "peer"))),
        ("Stats", &stats, |b| {
            qnet_corrupt(Response::decode(b, "peer"))
        }),
        ("store", &store, |b| {
            stream_corrupt(ContigStore::decode(b, "hostile.store".as_ref()))
        }),
        ("index", &index, |b| {
            stream_corrupt(MinimizerIndex::decode(b, "hostile.mdx".as_ref()))
        }),
        ("graph", &graph, |b| {
            stream_corrupt(StringGraph::from_bytes(b))
        }),
    ];
    for (name, payload, decode) in cases {
        let (err, largest) = largest_allocation(|| decode(payload));
        assert!(err.is_ok(), "{name}: expected Corrupt, got {err:?}");
        assert!(
            largest <= LIMIT,
            "{name}: a {}-byte payload made a {largest}-byte allocation",
            payload.len()
        );
    }
    // A Query whose one read claims u32::MAX bases and brings 256 bytes.
    // The bases are copied word by word only once the payload has shown
    // them all, so a hostile length allocates no more than its bytes.
    let long_read = [
        &[1u8][..],
        &u64le(7),
        &u32le(100),
        &u32le(1),
        b"c",
        &u32le(1),
        &u32le(u32::MAX),
        &[0x1b; 256],
    ]
    .concat();
    let (err, largest) = largest_allocation(|| Request::decode(&long_read, "peer").err());
    assert!(matches!(err, Some(QnetError::Corrupt { .. })), "{err:?}");
    assert!(
        largest <= long_read.len(),
        "a {}-byte payload made a {largest}-byte allocation",
        long_read.len()
    );
}

#[test]
fn a_frame_header_claiming_64_mib_costs_the_client_only_what_arrives() {
    // A server that reads one request frame, answers with a header
    // claiming the largest payload a frame may carry, and closes.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut header = [0u8; gstream::FRAME_HEADER_BYTES];
        sock.read_exact(&mut header).unwrap();
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        sock.read_exact(&mut vec![0u8; len]).unwrap();
        sock.write_all(&u32le(gstream::MAX_FRAME_BYTES as u32))
            .unwrap();
        sock.write_all(&u64le(0)).unwrap();
    });
    let mut client = QueryClient::new(
        ClientConfig {
            addr,
            max_retries: 0,
            read_timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        },
        &Recorder::disabled(),
    );
    let reads: Vec<PackedSeq> = vec!["ACGTACGTAC".parse().unwrap()];
    let (err, largest) = largest_allocation(|| client.query_batch(&reads).err());
    server.join().unwrap();
    let err = err.expect("a frame torn after its header must not decode");
    assert!(
        matches!(err.last_attempt(), QnetError::Corrupt { .. }),
        "{err:?}"
    );
    // The connection's own 8 KiB read buffer is above `LIMIT`; a payload
    // buffer sized by the header would be 64 MiB.
    assert!(
        largest < 1 << 20,
        "a 12-byte answer made a {largest}-byte allocation"
    );
}
