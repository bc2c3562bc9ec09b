//! A routed batch that goes cleanly starts no thread: the calling thread
//! writes every shard's query, reads every answer and merges them.
//! Linux hands out thread ids in sequence, so the gap between the ids of
//! two short-lived probe threads counts every thread the process started
//! in between. Other tests would start threads of their own, which is
//! why this file is a test binary with one test.

use lasagna_repro::faultsim::Faults;
use lasagna_repro::obs::Recorder;
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{Server, ServerConfig};
use lasagna_repro::qrouter::{ClusterManifest, Router, RouterConfig};
use lasagna_repro::qserve::{
    ContigStore, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine, QueryService, ServiceConfig,
};

/// Batches routed between the two probes.
const BATCHES: usize = 1_000;

/// Shards in the cluster.
const SHARDS: u32 = 2;

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
fn a_thousand_clean_two_shard_batches_start_no_thread() {
    let mut rng = stdx::SplitMix64::new(31);
    let contig = PackedSeq::from_codes(&rng.vec(20_000..20_001, |r| r.below(4) as u8));
    let store = || ContigStore::from_contigs(vec![contig.clone()]);
    let rec = Recorder::disabled();
    let mut servers: Vec<Server> = (0..SHARDS)
        .map(|shard| {
            let index =
                MinimizerIndex::build_shard(&store(), &IndexConfig::default(), shard, SHARDS);
            let engine = QueryEngine::new(store(), index, QueryConfig::default()).unwrap();
            let service = QueryService::start(engine, ServiceConfig::default(), &rec);
            Server::start(service, ServerConfig::default(), &rec, Faults::disabled()).unwrap()
        })
        .collect();
    let mut manifest = ClusterManifest::new(SHARDS, store().checksum());
    for (shard, server) in servers.iter().enumerate() {
        manifest.add_replica(shard as u32, server.local_addr().to_string());
    }
    let router = Router::new(
        manifest,
        RouterConfig::default(),
        Faults::disabled(),
        &Recorder::disabled(),
    )
    .unwrap();
    let batch: Vec<PackedSeq> = (0..32).map(|i| contig.slice(i * 601, 100)).collect();

    // Warm-up: the dials start each server's connection handler.
    for _ in 0..10 {
        router.route(&batch).unwrap();
    }
    let before = fresh_thread_id();
    for _ in 0..BATCHES {
        let hits = router.route(&batch).unwrap();
        assert!(hits.iter().all(Option::is_some), "every read maps");
    }
    let after = fresh_thread_id();
    assert!(router.dead_letters().is_empty());
    let started = after.saturating_sub(before);
    assert!(
        started < 100,
        "thread ids advanced by {started} over {BATCHES} routed batches: \
         the router starts a thread per shard or per attempt"
    );
    for server in &mut servers {
        server.shutdown();
    }
}
