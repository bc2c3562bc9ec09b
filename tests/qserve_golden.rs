//! Golden-path tests for the contig query service (see SERVING.md):
//! the pipeline's exported store round-trips bit-identically, simulated
//! reads resolve back to their true origin, and answers are invariant
//! across worker counts and cache configurations.

use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use lasagna_repro::qserve::{
    self, ContigStore, IndexConfig, MinimizerIndex, QserveError, QueryConfig, QueryEngine,
    QueryService, ServiceConfig,
};
use std::path::Path;

fn reads(seed: u64) -> ReadSet {
    let genome = GenomeSim::uniform(2_000, seed).generate();
    ShotgunSim::error_free(60, 8.0, seed + 1).sample(&genome)
}

/// Assemble an error-free dataset into `dir`, leaving `contigs.store`
/// behind, and return the contigs the pipeline reported.
fn assemble_into(dir: &Path, seed: u64) -> Vec<PackedSeq> {
    Pipeline::laptop(AssemblyConfig::for_dataset(40, 60), dir)
        .unwrap()
        .assemble(&reads(seed))
        .unwrap()
        .contigs
}

/// Deterministic query load: `count` windows of `len` bases sliced from
/// `contigs` (striding offsets, alternating strands), tagged with their
/// true origin.
fn windows(contigs: &[PackedSeq], count: usize, len: usize) -> Vec<(PackedSeq, u32, u32, bool)> {
    let long: Vec<(u32, &PackedSeq)> = contigs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.len() >= len)
        .map(|(i, c)| (i as u32, c))
        .collect();
    assert!(!long.is_empty(), "no contig long enough to query");
    (0..count)
        .map(|i| {
            let (ci, c) = long[i % long.len()];
            let off = (i * 37) % (c.len() - len + 1);
            let fwd = c.slice(off, len);
            let reverse = i % 2 == 1;
            let q = if reverse {
                fwd.reverse_complement()
            } else {
                fwd
            };
            (q, ci, off as u32, reverse)
        })
        .collect()
}

fn engine_for(dir: &Path, cache_bytes: u64) -> QueryEngine {
    let io = IoStats::default();
    let store = ContigStore::open(&dir.join(qserve::STORE_FILE), &io).unwrap();
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    QueryEngine::new(
        store,
        index,
        QueryConfig {
            cache_bytes,
            ..QueryConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn pipeline_exports_a_bit_identical_contig_store() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 50);
    assert!(!contigs.is_empty());
    let store =
        ContigStore::open(&dir.path().join(qserve::STORE_FILE), &IoStats::default()).unwrap();
    assert_eq!(
        store.contigs(),
        &contigs[..],
        "store must round-trip the assembly exactly"
    );
    assert_eq!(
        store.checksum(),
        ContigStore::from_contigs(contigs).checksum()
    );
}

#[test]
fn simulated_reads_query_back_to_their_origin() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 51);
    let engine = engine_for(dir.path(), 16 << 20);
    let len = 40;
    for (q, ci, off, reverse) in windows(&contigs, 400, len) {
        let hit = engine
            .query(&q)
            .unwrap_or_else(|| panic!("window from contig {ci} offset {off} unmapped"));
        // The true origin offers a 0-mismatch placement, so the winner
        // must be exact too.
        assert_eq!(hit.mismatches, 0, "contig {ci} offset {off}");
        let placed = engine
            .store()
            .contig(hit.contig as usize)
            .slice(hit.offset as usize, len);
        if (hit.contig, hit.offset, hit.reverse) != (ci, off, reverse) {
            // Assemblies repeat themselves; accept a different placement
            // only if the sequence there is genuinely identical.
            let expected = engine.store().contig(ci as usize).slice(off as usize, len);
            assert!(
                placed == expected || placed == expected.reverse_complement(),
                "contig {ci} offset {off}: hit {hit:?} is not a duplicate of the origin"
            );
        } else if reverse {
            assert_eq!(placed, q.reverse_complement());
        } else {
            assert_eq!(placed, q);
        }
    }
}

#[test]
fn ten_thousand_reads_are_deterministic_across_workers_and_cache() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 52);
    let queries: Vec<PackedSeq> = windows(&contigs, 10_000, 40)
        .into_iter()
        .map(|(q, _, _, _)| q)
        .collect();
    let rec = obs::Recorder::disabled();
    let mut runs = Vec::new();
    for (workers, cache_bytes) in [(1usize, 16u64 << 20), (8, 16 << 20), (8, 0)] {
        let svc = QueryService::start(
            engine_for(dir.path(), cache_bytes),
            ServiceConfig {
                workers,
                batch_chunk: 64,
                max_queue: 1 << 20,
            },
            &rec,
        );
        runs.push(svc.query_batch(queries.clone()).unwrap());
    }
    assert_eq!(runs[0], runs[1], "1 worker vs 8 workers");
    assert_eq!(runs[1], runs[2], "cache on vs cache off");
    assert!(runs[0].iter().all(|h| h.is_some()), "every window must map");
}

#[test]
fn repeated_queries_hit_the_postings_cache() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 53);
    let rec = obs::Recorder::new();
    let handle = rec.add_memory_sink();
    let svc = QueryService::start(
        engine_for(dir.path(), 16 << 20),
        ServiceConfig::default(),
        &rec,
    );
    // The same 50 windows, four times over: the later rounds must be
    // served from the postings cache.
    let base: Vec<PackedSeq> = windows(&contigs, 50, 40)
        .into_iter()
        .map(|(q, _, _, _)| q)
        .collect();
    let queries: Vec<PackedSeq> = base.iter().cycle().take(200).cloned().collect();
    svc.query_batch(queries).unwrap();
    drop(svc);
    rec.flush();
    let rollup = obs::Rollup::from_events(&handle.events());
    assert!(
        counter_total(&rollup, "qserve.cache.hit") > 0,
        "repeated minimizers must hit the cache"
    );
    assert_eq!(counter_total(&rollup, "qserve.queries"), 200);
    assert_eq!(counter_total(&rollup, "qserve.batch.size"), 200);
}

#[test]
fn saturated_queue_sheds_with_a_typed_error_and_counter() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 54);
    let rec = obs::Recorder::new();
    let handle = rec.add_memory_sink();
    let svc = QueryService::start(
        engine_for(dir.path(), 16 << 20),
        ServiceConfig {
            workers: 2,
            batch_chunk: 1,
            max_queue: 4,
        },
        &rec,
    );
    // 100 single-read chunks against a 4-chunk admission limit: the batch
    // sheds deterministically, no matter how fast the workers drain.
    let queries: Vec<PackedSeq> = windows(&contigs, 100, 40)
        .into_iter()
        .map(|(q, _, _, _)| q)
        .collect();
    match svc.submit(queries) {
        Err(QserveError::Overloaded { max_queue, .. }) => assert_eq!(max_queue, 4),
        Err(other) => panic!("expected Overloaded, got {other}"),
        Ok(_) => panic!("a 100-chunk batch must not fit a 4-chunk queue"),
    }
    drop(svc);
    rec.flush();
    let rollup = obs::Rollup::from_events(&handle.events());
    assert_eq!(counter_total(&rollup, "qserve.shed"), 100);
    assert_eq!(counter_total(&rollup, "qserve.batch.size"), 0);
}

#[test]
fn latency_histograms_are_deterministic_across_worker_counts() {
    // Latency *values* are wall-clock and vary run to run, but the
    // histogram accounting must not: every admitted read is charged
    // exactly once per stage, and each run's trace must round-trip its
    // histograms through JSONL bit-identically.
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 55);
    let queries: Vec<PackedSeq> = windows(&contigs, 1_000, 40)
        .into_iter()
        .map(|(q, _, _, _)| q)
        .collect();
    let mut answers = Vec::new();
    for (run, workers) in [1usize, 4, 8].into_iter().enumerate() {
        let trace_path = dir.path().join(format!("trace_{workers}w.jsonl"));
        let rec = obs::Recorder::new();
        rec.add_sink(Box::new(obs::JsonlSink::create(&trace_path).unwrap()));
        let svc = QueryService::start(
            engine_for(dir.path(), 16 << 20),
            ServiceConfig {
                workers,
                batch_chunk: 32,
                max_queue: 1 << 20,
            },
            &rec,
        );
        answers.push(svc.query_batch(queries.clone()).unwrap());
        drop(svc);
        rec.flush();

        let live = obs::Rollup::from_events(&rec.events()).totals();
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let disk = obs::Rollup::from_jsonl(&text).unwrap().totals();
        for name in [
            "qserve.latency.queue",
            "qserve.latency.exec",
            "qserve.latency.total",
        ] {
            let from_live = live.hist(name);
            let from_disk = disk.hist(name);
            assert_eq!(
                from_live.count(),
                1_000,
                "{name} with {workers} workers must charge each read once"
            );
            assert_eq!(from_disk, from_live, "{name} diverged across the disk trip");
            assert_eq!(
                stdx::json::to_string(&from_disk),
                stdx::json::to_string(&from_live),
                "{name}: JSONL round trip must be bit-identical"
            );
        }
        assert_eq!(answers[run], answers[0], "{workers} workers vs 1 worker");
    }
    assert!(answers[0].iter().all(|h| h.is_some()));
}

/// Sum a counter across every span and the unattached bucket.
fn counter_total(rollup: &obs::Rollup, name: &str) -> u64 {
    rollup.unattached().counter(name)
        + rollup
            .roots()
            .iter()
            .map(|root| rollup.subtree(root.id).counter(name))
            .sum::<u64>()
}
