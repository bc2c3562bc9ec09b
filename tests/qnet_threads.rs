//! A served batch starts no thread: the connection's own thread reads
//! the frame, runs the batch (or waits for the workers) and writes the
//! answer. Linux hands out thread ids in sequence, so the gap between
//! the ids of two short-lived probe threads counts every thread the
//! process started in between. Other tests would start threads of
//! their own, which is why this file is a test binary with one test.

use lasagna_repro::faultsim::Faults;
use lasagna_repro::obs::Recorder;
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{ClientConfig, QueryClient, Server, ServerConfig};
use lasagna_repro::qserve::{
    ContigStore, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine, QueryService, ServiceConfig,
};

/// Batches sent between the two probes.
const BATCHES: usize = 1_000;

/// The kernel thread id of a thread spawned and joined just now.
fn fresh_thread_id() -> u64 {
    std::thread::spawn(|| {
        let link = std::fs::read_link("/proc/thread-self").expect("procfs is mounted");
        let tid = link.file_name().and_then(|t| t.to_str()).unwrap_or("");
        tid.parse().expect("/proc/thread-self ends in a thread id")
    })
    .join()
    .expect("probe thread")
}

#[cfg(target_os = "linux")]
#[test]
fn a_thousand_batches_on_one_connection_start_no_thread() {
    let mut rng = stdx::SplitMix64::new(30);
    let contig = PackedSeq::from_codes(&rng.vec(20_000..20_001, |r| r.below(4) as u8));
    let store = ContigStore::from_contigs(vec![contig.clone()]);
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    let engine = QueryEngine::new(store, index, QueryConfig::default()).unwrap();
    let rec = Recorder::disabled();
    let service = QueryService::start(engine, ServiceConfig::default(), &rec);
    let mut server =
        Server::start(service, ServerConfig::default(), &rec, Faults::disabled()).unwrap();
    let mut client = QueryClient::new(
        ClientConfig {
            addr: server.local_addr().to_string(),
            client_id: "threads".to_string(),
            ..ClientConfig::default()
        },
        &rec,
    );
    let batch: Vec<PackedSeq> = (0..32).map(|i| contig.slice(i * 601, 100)).collect();

    // Warm-up: the dial starts the connection's handler thread.
    for _ in 0..10 {
        client.query_batch(&batch).unwrap();
    }
    let before = fresh_thread_id();
    for _ in 0..BATCHES {
        let hits = client.query_batch(&batch).unwrap();
        assert!(hits.iter().all(Option::is_some), "every read maps");
    }
    let after = fresh_thread_id();
    assert_eq!(client.reconnects(), 0, "one connection carried every batch");
    let started = after.saturating_sub(before);
    assert!(
        started < 100,
        "thread ids advanced by {started} over {BATCHES} batches: \
         the server starts a thread per request"
    );
    server.shutdown();
}
