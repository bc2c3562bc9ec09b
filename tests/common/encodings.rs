//! One fixed input for every binary format the workspace writes, each
//! encoded by its own writer. `byte_goldens.rs` pins the bytes and
//! `byte_mutations.rs` feeds damaged copies of them to the decoders.

use lasagna_repro::genome::{PackedSeq, ReadSet};
use lasagna_repro::gstream::{self, IoStats, KvPair, RecordWriter};
use lasagna_repro::lasagna::StringGraph;
use lasagna_repro::qnet::{
    ClientStats, LatencySummary, PongStatus, Request, Response, ShedScope, StatsSnapshot,
};
use lasagna_repro::qserve::{Candidate, ContigStore, Hit, IndexConfig, MinimizerIndex};

/// Which decoder reads an encoding back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Store,
    Index,
    Graph,
    StagedReads,
    SpillTrailer,
    BlobTrailer,
    Request,
    Response,
}

/// `len` bases drawn from a fixed seed.
pub fn seq(seed: u64, len: usize) -> PackedSeq {
    let mut rng = stdx::SplitMix64::new(seed);
    PackedSeq::from_codes(&(0..len).map(|_| rng.below(4) as u8).collect::<Vec<_>>())
}

/// The contigs of the fixed store: lengths 1, 4, 5 and 33 cross every
/// packing remainder and a whole word.
pub fn contigs() -> Vec<PackedSeq> {
    [1, 4, 5, 33]
        .iter()
        .enumerate()
        .map(|(i, &len)| seq(100 + i as u64, len))
        .collect()
}

/// Read length and reads of the fixed staging file.
pub const STAGED_READ_LEN: usize = 7;
pub const STAGED_READS: usize = 5;

pub fn staged_reads() -> ReadSet {
    ReadSet::from_reads(
        STAGED_READ_LEN,
        (0..STAGED_READS).map(|i| seq(200 + i as u64, STAGED_READ_LEN)),
    )
    .unwrap()
}

pub fn graph() -> StringGraph {
    let mut g = StringGraph::new(16);
    g.try_add_edge(0, 2, 9).unwrap();
    g.try_add_edge(2, 6, 7).unwrap();
    g.try_add_edge(8, 14, 5).unwrap();
    g
}

/// One request per wire tag.
pub fn requests() -> Vec<Request> {
    let reads: Vec<PackedSeq> = (0..6).map(|i| seq(300 + i, i as usize * 3)).collect();
    vec![
        Request::Query {
            request_id: 0x0123_4567_89ab_cdef,
            deadline_ms: 1500,
            client_id: "golden".into(),
            reads: reads.clone(),
            auth_seq: 0,
            auth_tag: 0,
            generation: 3,
        },
        Request::ShardQuery {
            request_id: 77,
            deadline_ms: 250,
            client_id: "router-0".into(),
            reads,
            auth_seq: 0,
            auth_tag: 0,
            generation: 0,
        },
        Request::Shutdown,
        Request::Stats,
        Request::PingV2,
        Request::Reload {
            request_id: 19,
            generation: 4,
        },
    ]
}

/// One response per wire tag.
pub fn responses() -> Vec<Response> {
    vec![
        Response::Hits {
            request_id: 42,
            generation: 2,
            hits: vec![
                None,
                Some(Hit {
                    contig: 7,
                    offset: 1234,
                    reverse: true,
                    mismatches: 2,
                    votes: 91,
                }),
            ],
        },
        Response::Overloaded {
            request_id: 9,
            scope: ShedScope::Fairness,
            queued: 120_000,
            limit: 20_000,
            retry_after_ms: 450,
        },
        Response::Draining { request_id: 3 },
        Response::DeadlineExceeded { request_id: 4 },
        Response::Error {
            request_id: 5,
            message: "index corrupt".into(),
        },
        Response::ShutdownAck,
        Response::Stats(StatsSnapshot {
            uptime_ms: 123_456,
            draining: true,
            inflight: 3,
            queue_depth: 17,
            drained_reads: 1_000_000,
            drain_ewma_reads_per_s: 0.1 + 0.2,
            accepted: 999_983,
            rejected: 12,
            deadline_shed: 4,
            fairness_shed: 1,
            force_closed: 2,
            generation: 5,
            reloads: 4,
            rollbacks: 1,
            clients: vec![ClientStats {
                client_id: "alpha".into(),
                accepted: 500_000,
                rejected: 12,
                deadline_shed: 0,
                fairness_shed: 1,
                tokens: 19_999.875,
                weight: 2.0,
            }],
            latency: vec![LatencySummary {
                name: "qnet.latency.total".into(),
                count: 999_983,
                sum_us: 88_123_456,
                min_us: 12,
                max_us: 91_011,
                p50_us: 70,
                p90_us: 150,
                p99_us: 4_200,
                p999_us: 88_064,
            }],
        }),
        Response::PongV2(PongStatus {
            ready: true,
            draining: false,
            queue_depth: 42,
            drain_ewma_reads_per_s: 10_000.25,
            generation: 6,
        }),
        Response::ShardCandidates {
            request_id: 77,
            generation: 1,
            candidates: vec![
                Vec::new(),
                vec![
                    Candidate {
                        contig: 3,
                        offset: 128,
                        reverse: false,
                        votes: 5,
                        mismatches: Some(1),
                    },
                    Candidate {
                        contig: 9,
                        offset: 0,
                        reverse: true,
                        votes: 1,
                        mismatches: None,
                    },
                ],
            ],
        },
        Response::ReloadDone {
            request_id: 7,
            generation: 3,
        },
        Response::ReloadFailed {
            request_id: 8,
            generation: 9,
            message: "store checksum mismatch".into(),
        },
    ]
}

/// The last 24 bytes of the file at `path`: its trailer.
fn trailer(path: &std::path::Path) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap();
    bytes[bytes.len() - 24..].to_vec()
}

/// Every fixed encoding, named, with the decoder that reads it.
pub fn encodings() -> Vec<(String, Format, Vec<u8>)> {
    let store = ContigStore::from_contigs(contigs());
    let index = MinimizerIndex::build(
        &store,
        &IndexConfig {
            k: 5,
            w: 3,
            threads: 1,
        },
    );
    let dir = stdx::tempdir().unwrap();
    let io = IoStats::default();
    let blob = dir.path().join("golden.blob");
    gstream::write_blob(&blob, b"four bases per byte", &io).unwrap();
    let spill = dir.path().join("golden.kv");
    let mut w = RecordWriter::create(&spill, io).unwrap();
    w.write_all(&[KvPair::new(1 << 100, 7), KvPair::new(3, 0)])
        .unwrap();
    w.finish().unwrap();

    let mut out = vec![
        (
            "store".to_string(),
            Format::Store,
            ContigStore::encode(&contigs()),
        ),
        ("index".to_string(), Format::Index, index.encode()),
        ("graph".to_string(), Format::Graph, graph().to_bytes()),
        (
            "staged reads".to_string(),
            Format::StagedReads,
            staged_reads().to_packed_bytes(),
        ),
        (
            "spill trailer".to_string(),
            Format::SpillTrailer,
            trailer(&spill),
        ),
        (
            "blob trailer".to_string(),
            Format::BlobTrailer,
            trailer(&blob),
        ),
    ];
    for (i, r) in requests().iter().enumerate() {
        out.push((format!("request {i}"), Format::Request, r.encode()));
    }
    for (i, r) in responses().iter().enumerate() {
        out.push((format!("response {i}"), Format::Response, r.encode()));
    }
    out
}
