//! Golden-path tests for the contig query service (see SERVING.md):
//! an assembly exported as a generation serves its contigs bit for bit, simulated
//! reads resolve back to their true origin, answers are invariant across
//! worker counts, and the engine agrees with an exhaustive-scan placer
//! that shares no code with it.

use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use lasagna_repro::qserve::{
    self, merge_candidates, select_hit, ContigStore, IndexConfig, MinimizerIndex, QserveError,
    QueryConfig, QueryEngine, QueryService, ServiceConfig,
};
use std::path::Path;

fn reads(seed: u64) -> ReadSet {
    let genome = GenomeSim::uniform(2_000, seed).generate();
    ShotgunSim::error_free(60, 8.0, seed + 1).sample(&genome)
}

/// Assemble an error-free dataset into `dir`, write the contigs the
/// pipeline reported to `contigs.store` there, and return them.
fn assemble_into(dir: &Path, seed: u64) -> Vec<PackedSeq> {
    let contigs = Pipeline::laptop(AssemblyConfig::for_dataset(40, 60), dir)
        .unwrap()
        .assemble(&reads(seed))
        .unwrap()
        .contigs;
    ContigStore::write(&dir.join(qserve::STORE_FILE), &contigs, &IoStats::default()).unwrap();
    contigs
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

fn engine_for(dir: &Path) -> QueryEngine {
    let io = IoStats::default();
    let store = ContigStore::open(&dir.join(qserve::STORE_FILE), &io).unwrap();
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    QueryEngine::new(store, index, QueryConfig::default()).unwrap()
}

#[test]
fn pipeline_exports_a_bit_identical_contig_store() {
    let (dir, work) = (stdx::tempdir().unwrap(), stdx::tempdir().unwrap());
    let contigs = assemble_into(dir.path(), 50);
    assert!(!contigs.is_empty());
    let io = IoStats::default();
    qserve::generations::export(work.path(), &contigs, &IndexConfig::default(), &io).unwrap();
    let (engine, generation) =
        qserve::generations::open_active_engine(work.path(), QueryConfig::default(), &io).unwrap();
    assert_eq!(generation, 1);
    let store = engine.store();
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
    let engine = engine_for(dir.path());
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
fn ten_thousand_reads_are_deterministic_across_workers() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 52);
    let queries: Vec<PackedSeq> = windows(&contigs, 10_000, 40)
        .into_iter()
        .map(|(q, _, _, _)| q)
        .collect();
    let rec = obs::Recorder::disabled();
    let mut runs = Vec::new();
    for workers in [1usize, 8] {
        let svc = QueryService::start(
            engine_for(dir.path()),
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
    assert!(runs[0].iter().all(|h| h.is_some()), "every window must map");
}

#[test]
fn repeated_queries_return_identical_answers() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 53);
    let rec = obs::Recorder::new();
    let handle = rec.add_memory_sink();
    let svc = QueryService::start(engine_for(dir.path()), ServiceConfig::default(), &rec);
    // The same 50 windows, four times over: the engine holds no state, so
    // every round must answer like the first.
    let base: Vec<PackedSeq> = windows(&contigs, 50, 40)
        .into_iter()
        .map(|(q, _, _, _)| q)
        .collect();
    let queries: Vec<PackedSeq> = base.iter().cycle().take(200).cloned().collect();
    let answers = svc.query_batch(queries).unwrap();
    drop(svc);
    rec.flush();
    for round in answers.chunks(50).skip(1) {
        assert_eq!(
            round,
            &answers[..50],
            "a repeated round answered differently"
        );
    }
    let rollup = obs::Rollup::from_events(&handle.events());
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
        engine_for(dir.path()),
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
            engine_for(dir.path()),
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

/// An exhaustive-scan placer sharing no code with the engine: contigs as
/// plain 2-bit codes, every `(contig, offset, strand)` compared base by
/// base. Slow and obviously right — the oracle the seed-and-verify
/// engine is held to.
struct ScanPlacer {
    contigs: Vec<Vec<u8>>,
    max_mismatches: u32,
}

impl ScanPlacer {
    fn over(store: &ContigStore, max_mismatches: u32) -> ScanPlacer {
        ScanPlacer {
            contigs: store.contigs().iter().map(|c| c.to_codes()).collect(),
            max_mismatches,
        }
    }

    /// Every placement of `read` within the mismatch budget, as
    /// `(mismatches, reverse, contig, offset)` in ascending order: the
    /// first entry is the best placement under the engine's documented
    /// tie-break.
    fn placements(&self, read: &PackedSeq) -> Vec<(u32, bool, u32, u32)> {
        let fwd = read.to_codes();
        let rev: Vec<u8> = fwd.iter().rev().map(|c| c ^ 3).collect();
        let mut found = Vec::new();
        for (reverse, oriented) in [(false, &fwd), (true, &rev)] {
            for (ci, contig) in self.contigs.iter().enumerate() {
                for (off, window) in contig.windows(oriented.len()).enumerate() {
                    let mut mm = 0u32;
                    for (a, b) in window.iter().zip(oriented) {
                        mm += u32::from(a != b);
                        if mm > self.max_mismatches {
                            break;
                        }
                    }
                    if mm <= self.max_mismatches {
                        found.push((mm, reverse, ci as u32, off as u32));
                    }
                }
            }
        }
        found.sort_unstable();
        found
    }
}

/// How an oracle read was derived from the assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadKind {
    /// A contig window with this many substituted bases.
    Substituted(usize),
    /// Random bases unrelated to the assembly.
    Foreign,
}

/// `count` seeded reads of `len` bases over `contigs`, cycling through
/// exact, 1 to 4 substitutions (3 is one over the default budget, where an
/// off-by-one in verification would show) and foreign; every other read
/// of each kind is reverse-complemented.
fn oracle_reads(contigs: &[PackedSeq], count: usize, len: usize) -> Vec<(ReadKind, PackedSeq)> {
    const KINDS: [ReadKind; 6] = [
        ReadKind::Substituted(0),
        ReadKind::Substituted(1),
        ReadKind::Substituted(2),
        ReadKind::Substituted(3),
        ReadKind::Substituted(4),
        ReadKind::Foreign,
    ];
    let long: Vec<&PackedSeq> = contigs.iter().filter(|c| c.len() >= len).collect();
    assert!(!long.is_empty(), "no contig long enough to query");
    let mut rng = stdx::SplitMix64::new(0x0AC1E);
    (0..count)
        .map(|i| {
            let kind = KINDS[i % KINDS.len()];
            let codes: Vec<u8> = match kind {
                ReadKind::Foreign => (0..len).map(|_| rng.below(4) as u8).collect(),
                ReadKind::Substituted(subs) => {
                    let c = long[rng.below(long.len() as u64) as usize];
                    let off = rng.below((c.len() - len + 1) as u64) as usize;
                    let mut codes = c.slice(off, len).to_codes();
                    let mut at: Vec<usize> = Vec::new();
                    while at.len() < subs {
                        let pos = rng.below(len as u64) as usize;
                        if !at.contains(&pos) {
                            at.push(pos);
                            codes[pos] = (codes[pos] + 1 + rng.below(3) as u8) & 3;
                        }
                    }
                    codes
                }
            };
            let read = PackedSeq::from_codes(&codes);
            let reverse = (i / KINDS.len()) % 2 == 1;
            (
                kind,
                if reverse {
                    read.reverse_complement()
                } else {
                    read
                },
            )
        })
        .collect()
}

const ORACLE_READS: usize = 2_100;
/// Two substitutions destroy every minimizer of a 48-base read now and
/// then (k = 15), so the recall bound below is exercised, not vacuous.
const ORACLE_READ_LEN: usize = 48;

#[test]
fn engine_agrees_with_an_exhaustive_scan_of_the_assembly() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 56);
    let engine = engine_for(dir.path());
    let budget = engine.query_config().max_mismatches;
    let scan = ScanPlacer::over(engine.store(), budget);
    // (reads the scan can place, reads the engine placed where the scan's
    // best is) for substituted reads within budget.
    let (mut placeable, mut recalled) = (0u32, 0u32);
    for (kind, read) in oracle_reads(&contigs, ORACLE_READS, ORACLE_READ_LEN) {
        let truth = scan.placements(&read);
        let placed = engine
            .query(&read)
            .map(|h| (h.mismatches, h.reverse, h.contig, h.offset));
        // Precision: the engine never reports a placement the scan does
        // not find within budget, nor a mismatch count the scan does not
        // count there.
        if let Some(hit) = placed {
            assert!(
                truth.contains(&hit),
                "{kind:?}: the scan finds no placement {hit:?}"
            );
        }
        let best = truth.first().copied();
        match kind {
            _ if best.is_none() => assert_eq!(placed, None, "{kind:?}: unplaceable read"),
            // Recall: an exact read keeps every minimizer of its origin,
            // so the scan's best placement is always seeded.
            ReadKind::Substituted(0) => assert_eq!(placed, best, "exact read"),
            // Substitutions can destroy every shared minimizer; most
            // reads keep at least one.
            _ => {
                placeable += 1;
                recalled += u32::from(placed == best);
            }
        }
    }
    let share = f64::from(recalled) / f64::from(placeable);
    println!("substituted reads within budget: {recalled} of {placeable} recalled ({share:.4})");
    assert!(placeable >= 600, "too few placeable substituted reads");
    assert!(share >= 0.95, "recall {share:.4} under 0.95");
}

#[test]
fn three_shard_candidates_replay_query_on_the_oracle_reads() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 56);
    let full = engine_for(dir.path());
    let cfg = full.query_config();
    let shards: Vec<QueryEngine> = (0..3)
        .map(|s| {
            let store =
                ContigStore::open(&dir.path().join(qserve::STORE_FILE), &IoStats::default())
                    .unwrap();
            let index = MinimizerIndex::build_shard(&store, &IndexConfig::default(), s, 3);
            QueryEngine::new(store, index, cfg).unwrap()
        })
        .collect();
    let mut mapped = 0usize;
    for (kind, read) in oracle_reads(&contigs, ORACLE_READS, ORACLE_READ_LEN) {
        let parts: Vec<_> = shards.iter().map(|e| e.query_candidates(&read)).collect();
        let single = full.query(&read);
        assert_eq!(
            select_hit(&cfg, &merge_candidates(&parts)),
            single,
            "{kind:?}"
        );
        mapped += usize::from(single.is_some());
    }
    assert!(mapped >= ORACLE_READS / 3, "only {mapped} reads mapped");
}

/// A shard looks up only the seeds it owns. Its candidates must equal
/// those of the same postings looked up for every seed: the shard index
/// decoded from its own `.mdx` bytes, which claims the whole hash space.
#[test]
fn shards_that_skip_foreign_seeds_answer_like_a_full_lookup() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 56);
    let open =
        || ContigStore::open(&dir.path().join(qserve::STORE_FILE), &IoStats::default()).unwrap();
    let reads = oracle_reads(&contigs, ORACLE_READS, ORACLE_READ_LEN);
    for n_shards in [2u32, 3] {
        for s in 0..n_shards {
            let index = MinimizerIndex::build_shard(&open(), &IndexConfig::default(), s, n_shards);
            let bytes = index.encode();
            let every_seed = MinimizerIndex::decode(&bytes, Path::new("shard.mdx")).unwrap();
            assert_eq!(every_seed.encode(), bytes, "the .mdx bytes are unchanged");
            let shard = QueryEngine::new(open(), index, QueryConfig::default()).unwrap();
            let oracle = QueryEngine::new(open(), every_seed, QueryConfig::default()).unwrap();
            let mut voted = 0usize;
            for (kind, read) in &reads {
                let got = shard.query_candidates(read);
                assert_eq!(
                    got,
                    oracle.query_candidates(read),
                    "{kind:?}, shard {s} of {n_shards}"
                );
                voted += got.len();
            }
            assert!(voted > 0, "shard {s} of {n_shards} voted for nothing");
        }
    }
}
