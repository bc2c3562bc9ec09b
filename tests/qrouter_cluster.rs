//! Cluster goldens for the sharded, replicated serving tier (see
//! SERVING.md "Cluster serving"): for every read in a 10k-read sweep
//! the routed answer must be byte-identical to a single-node server —
//! with zero faults, with one replica of every shard dead, and with
//! hedging racing both replicas — and every failure the caller sees
//! must be typed, name the shard (and peer where there is one), and
//! arrive bounded in time. The hedge race must never double-count a
//! batch: `qrouter.merge` equals offered reads exactly, with the
//! loser's late answer discarded by `request_id` mismatch rather than
//! accepted.

use lasagna_repro::faultsim::{self, FaultPlan, Faults};
use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{ClientConfig, ReloadConfig, Server, ServerConfig};
use lasagna_repro::qrouter::{ClusterManifest, Router, RouterConfig, RouterError};
use lasagna_repro::qserve::{
    self, ContigStore, GenKind, Hit, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine,
    QueryService, ServiceConfig,
};
use std::path::Path;
use std::time::{Duration, Instant};

fn reads(seed: u64) -> ReadSet {
    let genome = GenomeSim::uniform(2_000, seed).generate();
    ShotgunSim::error_free(60, 8.0, seed + 1).sample(&genome)
}

/// Assemble an error-free dataset into `dir`, leaving `contigs.store`
/// behind for both the single-node oracle and the cluster replicas.
fn assemble_into(dir: &Path, seed: u64) -> Vec<PackedSeq> {
    Pipeline::laptop(AssemblyConfig::for_dataset(40, 60), dir)
        .unwrap()
        .assemble(&reads(seed))
        .unwrap()
        .contigs
}

/// Deterministic query load: `count` windows of `len` bases sliced from
/// `contigs` (striding offsets, alternating strands).
fn slice_queries(contigs: &[PackedSeq], count: usize, len: usize) -> Vec<PackedSeq> {
    let long: Vec<&PackedSeq> = contigs.iter().filter(|c| c.len() >= len).collect();
    assert!(!long.is_empty(), "no contig long enough to query");
    (0..count)
        .map(|i| {
            let c = long[i % long.len()];
            let start = (i * 37) % (c.len() - len + 1);
            let s = c.slice(start, len);
            if i % 2 == 0 {
                s
            } else {
                s.reverse_complement()
            }
        })
        .collect()
}

/// Ground truth: the same load through one in-process single-node
/// service over the full (unsharded) index.
fn single_node_answers(dir: &Path, queries: &[PackedSeq]) -> Vec<Option<Hit>> {
    let io = IoStats::default();
    let store = ContigStore::open(&dir.join(qserve::STORE_FILE), &io).unwrap();
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    let engine = QueryEngine::new(store, index, QueryConfig::default()).unwrap();
    let svc = QueryService::start(engine, ServiceConfig::default(), &obs::Recorder::disabled());
    let mut out = Vec::with_capacity(queries.len());
    for batch in queries.chunks(256) {
        out.extend(svc.query_batch(batch.to_vec()).unwrap());
    }
    out
}

/// Start `n_shards x replicas` servers over the store in `dir`, each
/// replica of shard `s` holding the `s`-th postings slice of the full
/// index. Servers land in the returned vec at `shard * replicas +
/// replica`, so tests can kill a specific replica. `faults_for` arms
/// per-server failpoints.
fn start_cluster(
    dir: &Path,
    n_shards: u32,
    replicas: u32,
    faults_for: impl Fn(u32, u32) -> Faults,
) -> (Vec<Server>, ClusterManifest) {
    let io = IoStats::default();
    let store_path = dir.join(qserve::STORE_FILE);
    let checksum = ContigStore::open(&store_path, &io).unwrap().checksum();
    let mut manifest = ClusterManifest::new(n_shards, checksum);
    let mut servers = Vec::new();
    for shard in 0..n_shards {
        let index_store = ContigStore::open(&store_path, &io).unwrap();
        let index =
            MinimizerIndex::build_shard(&index_store, &IndexConfig::default(), shard, n_shards);
        for replica in 0..replicas {
            let store = ContigStore::open(&store_path, &io).unwrap();
            let engine = QueryEngine::new(store, index.clone(), QueryConfig::default()).unwrap();
            let svc =
                QueryService::start(engine, ServiceConfig::default(), &obs::Recorder::disabled());
            let server = Server::start(
                svc,
                ServerConfig {
                    read_timeout: Duration::from_secs(2),
                    write_timeout: Duration::from_secs(2),
                    drain_deadline: Duration::from_secs(10),
                    stall_ms: 100,
                    ..ServerConfig::default()
                },
                &obs::Recorder::disabled(),
                faults_for(shard, replica),
            )
            .unwrap();
            manifest.add_replica(shard, server.local_addr().to_string());
            servers.push(server);
        }
    }
    (servers, manifest)
}

fn router_for(
    manifest: ClusterManifest,
    rec: &obs::Recorder,
    faults: Faults,
    tweak: impl FnOnce(&mut RouterConfig),
) -> Router {
    let mut cfg = RouterConfig {
        client: ClientConfig {
            client_id: "router".to_string(),
            backoff_base_ms: 2,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        ..RouterConfig::default()
    };
    tweak(&mut cfg);
    Router::new(manifest, cfg, faults, rec).unwrap()
}

fn route_all(router: &Router, queries: &[PackedSeq]) -> Vec<Option<Hit>> {
    let mut answers = Vec::with_capacity(queries.len());
    for batch in queries.chunks(256) {
        answers.extend(router.route(batch).unwrap());
    }
    answers
}

fn counter_total(rec: &obs::Recorder, name: &str) -> u64 {
    rec.flush();
    obs::Rollup::from_events(&rec.events())
        .totals()
        .counter(name)
}

#[test]
fn clean_cluster_is_bit_identical_to_single_node_across_shard_counts() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 70);
    let queries = slice_queries(&contigs, 10_000, 60);
    let reference = single_node_answers(dir.path(), &queries);
    assert!(
        reference.iter().flatten().count() > 0,
        "some reads must map"
    );

    // Shard counts straddling a non-power-of-two: the postings
    // partition is exact for any count, so the merged votes — and the
    // final tie-break — must match single-node byte for byte.
    for n_shards in [1u32, 2, 3] {
        let (mut servers, manifest) =
            start_cluster(dir.path(), n_shards, 2, |_, _| Faults::disabled());
        let rec = obs::Recorder::new();
        let router = router_for(manifest, &rec, Faults::disabled(), |_| {});

        let answers = route_all(&router, &queries);
        assert_eq!(
            answers, reference,
            "{n_shards}-shard answers must be bit-identical to single-node"
        );
        assert!(router.dead_letters().is_empty());
        assert_eq!(
            counter_total(&rec, "qrouter.merge"),
            10_000,
            "{n_shards} shards: every read merged exactly once"
        );
        assert_eq!(counter_total(&rec, "qrouter.failover"), 0);
        assert_eq!(counter_total(&rec, "qrouter.shard.dead"), 0);
        for server in &mut servers {
            assert!(server.shutdown().completed, "clean drain left stragglers");
        }
    }
}

#[test]
fn answers_survive_one_dead_replica_of_every_shard_bit_identically() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 71);
    let queries = slice_queries(&contigs, 10_000, 60);
    let reference = single_node_answers(dir.path(), &queries);

    let (mut servers, manifest) = start_cluster(dir.path(), 2, 2, |_, _| Faults::disabled());
    // Kill the first replica of every shard before any traffic.
    for shard in 0..2 {
        servers[shard * 2].shutdown();
    }
    let rec = obs::Recorder::new();
    let router = router_for(manifest, &rec, Faults::disabled(), |_| {});

    // First half: no health information. Any batch whose ladder leads
    // with the corpse pays a fast typed connect failure and fails over
    // to the live replica — never a wrong answer, never a hang.
    let start = Instant::now();
    let mut answers = route_all(&router, &queries[..5_000]);
    assert!(
        counter_total(&rec, "qrouter.failover") >= 1,
        "a dead primary must be observed as a fail-over"
    );

    // Second half: a probe sweep marks the corpses unhealthy, the
    // ladder re-orders, and the answers stay identical.
    let sweep = router.probe_health();
    assert_eq!(
        sweep.iter().filter(|(_, healthy)| !healthy).count(),
        2,
        "exactly the two killed replicas probe unhealthy: {sweep:?}"
    );
    answers.extend(route_all(&router, &queries[5_000..]));
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "fail-over must stay bounded"
    );

    assert_eq!(
        answers, reference,
        "answers with one replica of every shard dead must match single-node"
    );
    assert!(router.dead_letters().is_empty(), "live replicas answered");
    assert_eq!(counter_total(&rec, "qrouter.merge"), 10_000);
    assert_eq!(counter_total(&rec, "qrouter.shard.dead"), 0);
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn hedging_races_both_replicas_and_stays_bit_identical() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 72);
    let queries = slice_queries(&contigs, 10_000, 60);
    let reference = single_node_answers(dir.path(), &queries);

    let (mut servers, manifest) = start_cluster(dir.path(), 2, 2, |_, _| Faults::disabled());
    let rec = obs::Recorder::new();
    // 30% of attempts stall far past the hedge ceiling, so the hedge
    // demonstrably fires and usually wins; the stalled loser still
    // answers later, exercising the discard path on every race.
    let faults =
        Faults::from_plan(&FaultPlan::new().fail_prob(faultsim::QROUTER_SHARD_SLOW, 30, 7));
    let router = router_for(manifest, &rec, faults, |cfg| {
        cfg.hedge_min_ms = 1;
        cfg.hedge_max_ms = 10;
    });

    let answers = route_all(&router, &queries);
    assert_eq!(
        answers, reference,
        "hedged answers must be bit-identical to single-node"
    );
    let fired = counter_total(&rec, "qrouter.hedge.fired");
    let won = counter_total(&rec, "qrouter.hedge.won");
    assert!(fired >= 1, "stalled primaries must trigger hedges");
    assert!(won >= 1, "a clean second replica must win some races");
    assert!(won <= fired, "a hedge can only win a race it entered");
    assert_eq!(
        counter_total(&rec, "qrouter.merge"),
        10_000,
        "hedge races must never double-count a batch"
    );
    assert!(router.dead_letters().is_empty());
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn hedge_loser_is_discarded_by_request_id_never_double_counted() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 73);
    let queries = slice_queries(&contigs, 10_000, 60);
    let reference = single_node_answers(dir.path(), &queries);

    // Only shard 0's first replica stalls response frames (the server
    // sleeps `stall_ms`, then tears the connection down): the primary
    // attempt goes quiet on the wire, the hedge fires at the ceiling
    // and wins on the clean replica, and the primary's eventual typed
    // failure lands in a race that has already been decided. The
    // conservation check below is the property: offered == merged,
    // exactly, so no late loser was ever accepted for a batch.
    let stall = FaultPlan::new().fail_prob(faultsim::QNET_FRAME_STALL, 20, 11);
    let (mut servers, manifest) = start_cluster(dir.path(), 1, 2, |_, replica| {
        if replica == 0 {
            Faults::from_plan(&stall)
        } else {
            Faults::disabled()
        }
    });
    let rec = obs::Recorder::new();
    let router = router_for(manifest, &rec, Faults::disabled(), |cfg| {
        cfg.hedge_min_ms = 1;
        cfg.hedge_max_ms = 20;
        cfg.failover_rounds = 5;
    });

    let answers = route_all(&router, &queries);
    assert_eq!(
        answers, reference,
        "answers under frame stalls must match single-node"
    );
    assert_eq!(
        counter_total(&rec, "qrouter.merge"),
        10_000,
        "offered reads == merged reads: no batch double-counted"
    );
    let fired = counter_total(&rec, "qrouter.hedge.fired");
    let won = counter_total(&rec, "qrouter.hedge.won");
    assert!(fired >= 1, "stalled frames must trigger hedges");
    assert!(won <= fired);
    assert_eq!(
        counter_total(&rec, "qrouter.shard.dead"),
        0,
        "the clean replica keeps the shard alive"
    );
    assert!(router.dead_letters().is_empty());
    for server in &mut servers {
        server.shutdown();
    }
}

#[test]
fn a_fully_dead_shard_dead_letters_with_a_typed_error_not_a_hang() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 74);
    let queries = slice_queries(&contigs, 256, 60);

    let (mut servers, manifest) = start_cluster(dir.path(), 2, 1, |_, _| Faults::disabled());
    // Shard 1's only replica dies: that shard is simply gone.
    servers[1].shutdown();
    let rec = obs::Recorder::new();
    let router = router_for(manifest, &rec, Faults::disabled(), |_| {});

    let start = Instant::now();
    let err = router.route(&queries).unwrap_err();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "exhausting the ladder must stay bounded"
    );
    match &err {
        RouterError::ShardUnavailable {
            shard,
            attempts,
            last,
        } => {
            assert_eq!(*shard, 1, "the error must name the dead shard");
            assert!(
                *attempts >= 3,
                "every fail-over round attempted: {attempts}"
            );
            assert!(!last.is_empty(), "the last transport error is preserved");
        }
        other => panic!("expected ShardUnavailable, got {other}"),
    }
    assert!(
        err.to_string().contains("shard 1"),
        "the display names the shard: {err}"
    );
    let dead = router.dead_letters();
    assert_eq!(dead.len(), 1, "the refused batch is dead-lettered");
    assert_eq!(dead[0].shard, 1);
    assert_eq!(dead[0].n_reads, 256);
    assert_eq!(counter_total(&rec, "qrouter.shard.dead"), 1);
    assert_eq!(
        counter_total(&rec, "qrouter.merge"),
        0,
        "a failed scatter must not merge a partial answer"
    );
    servers[0].shutdown();
}

/// Export generation 1 (`contigs_a`, full) and generation 2 (`gen2`,
/// its delta) into the work dir — store, index, and manifest entry —
/// the layout each replica's `Reload` consumes (the replica rebuilds
/// its own shard slice from the store).
fn export_two_generations(dir: &Path, contigs_a: &[PackedSeq], gen2: &[PackedSeq], io: &IoStats) {
    for (contigs, kind) in [(contigs_a, GenKind::Full), (gen2, GenKind::Delta)] {
        let (icfg, n) = (IndexConfig::default(), contigs.len() as u64);
        qserve::generations::export(dir, contigs, &icfg, n, 60, kind, io).unwrap();
    }
}

/// Ground truth for one generation: a full (unsharded) in-process
/// engine over the generation's contigs.
fn generation_answers(contigs: &[PackedSeq], queries: &[PackedSeq]) -> Vec<Option<Hit>> {
    let store = ContigStore::from_contigs(contigs.to_vec());
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    let engine = QueryEngine::new(store, index, QueryConfig::default()).unwrap();
    queries.iter().map(|q| engine.query(q)).collect()
}

/// Start `n_shards x replicas` servers on generation 1 of the shared
/// work dir, reload armed with each replica's own shard geometry, and
/// a manifest pinning the cluster to generation 1.
fn start_gen_cluster(
    work: &Path,
    n_shards: u32,
    replicas: u32,
    faults_for: impl Fn(u32, u32) -> Faults,
) -> (Vec<Server>, ClusterManifest) {
    let io = IoStats::default();
    let store_path = work.join(qserve::gen_store_file(1));
    let checksum = ContigStore::open(&store_path, &io).unwrap().checksum();
    let mut manifest = ClusterManifest::new(n_shards, checksum);
    manifest.generation = 1;
    let mut servers = Vec::new();
    for shard in 0..n_shards {
        let index_store = ContigStore::open(&store_path, &io).unwrap();
        let index =
            MinimizerIndex::build_shard(&index_store, &IndexConfig::default(), shard, n_shards);
        for replica in 0..replicas {
            let store = ContigStore::open(&store_path, &io).unwrap();
            let engine = QueryEngine::new(store, index.clone(), QueryConfig::default()).unwrap();
            let svc = QueryService::start_with_generation(
                engine,
                1,
                ServiceConfig::default(),
                &obs::Recorder::disabled(),
            );
            let server = Server::start(
                svc,
                ServerConfig {
                    read_timeout: Duration::from_secs(2),
                    write_timeout: Duration::from_secs(2),
                    drain_deadline: Duration::from_secs(10),
                    stall_ms: 100,
                    reload: Some(ReloadConfig {
                        work_dir: work.to_path_buf(),
                        shard: Some((shard, n_shards, IndexConfig::default())),
                    }),
                    ..ServerConfig::default()
                },
                &obs::Recorder::disabled(),
                faults_for(shard, replica),
            )
            .unwrap();
            manifest.add_replica(shard, server.local_addr().to_string());
            servers.push(server);
        }
    }
    (servers, manifest)
}

#[test]
fn rolling_reload_swaps_the_whole_cluster_and_stays_bit_identical() {
    let scratch_a = stdx::tempdir().unwrap();
    let scratch_b = stdx::tempdir().unwrap();
    let contigs_a = assemble_into(scratch_a.path(), 76);
    let contigs_b = assemble_into(scratch_b.path(), 86);
    let mut gen2 = contigs_a.clone();
    gen2.extend(contigs_b.iter().cloned());

    let mut queries = slice_queries(&contigs_a, 2_000, 60);
    queries.extend(slice_queries(&contigs_b, 512, 60));
    let expected1 = generation_answers(&contigs_a, &queries);
    let expected2 = generation_answers(&gen2, &queries);
    assert_ne!(
        expected1, expected2,
        "the B windows tell the generations apart"
    );

    let work = stdx::tempdir().unwrap();
    let io = IoStats::default();
    export_two_generations(work.path(), &contigs_a, &gen2, &io);

    let (mut servers, manifest) = start_gen_cluster(work.path(), 2, 2, |_, _| Faults::disabled());
    let rec = obs::Recorder::new();
    let router = router_for(manifest, &rec, Faults::disabled(), |_| {});
    assert_eq!(
        router.pinned_generation(),
        1,
        "the pin seeds from the manifest"
    );

    // Before the rollout: every batch pinned to (and answered by)
    // generation 1, bit-identical to the single-node gen-1 oracle.
    assert_eq!(route_all(&router, &queries), expected1);

    // The rolling reload swaps every replica, then flips the pin.
    assert_eq!(router.rollout(2).unwrap(), 2);
    assert_eq!(router.pinned_generation(), 2);

    // After: generation 2's answers, same router, same connections.
    assert_eq!(route_all(&router, &queries), expected2);
    assert!(router.dead_letters().is_empty());
    assert_eq!(counter_total(&rec, "qrouter.rollout.started"), 1);
    assert_eq!(counter_total(&rec, "qrouter.rollout.ok"), 1);
    assert_eq!(counter_total(&rec, "qrouter.rollout.replica.ok"), 4);
    assert_eq!(counter_total(&rec, "qrouter.rollout.replica.failed"), 0);
    assert_eq!(counter_total(&rec, "qrouter.gen.skew"), 0);
    for server in &mut servers {
        assert!(server.shutdown().completed, "drain left stragglers");
    }
}

#[test]
fn failed_rollout_keeps_the_pin_and_the_old_generation_serving() {
    let scratch_a = stdx::tempdir().unwrap();
    let scratch_b = stdx::tempdir().unwrap();
    let contigs_a = assemble_into(scratch_a.path(), 77);
    let contigs_b = assemble_into(scratch_b.path(), 87);
    let mut gen2 = contigs_a.clone();
    gen2.extend(contigs_b.iter().cloned());

    let mut queries = slice_queries(&contigs_a, 1_000, 60);
    queries.extend(slice_queries(&contigs_b, 256, 60));
    let expected1 = generation_answers(&contigs_a, &queries);
    let expected2 = generation_answers(&gen2, &queries);

    let work = stdx::tempdir().unwrap();
    let io = IoStats::default();
    export_two_generations(work.path(), &contigs_a, &gen2, &io);

    // Shard 1's second replica refuses its reload once; every other
    // replica swaps cleanly — the worst mixed-generation window.
    let bad = FaultPlan::new().fail_at(faultsim::QSERVE_GEN_LOAD, 1);
    let (mut servers, manifest) = start_gen_cluster(work.path(), 2, 2, |shard, replica| {
        if shard == 1 && replica == 1 {
            Faults::from_plan(&bad)
        } else {
            Faults::disabled()
        }
    });
    let rec = obs::Recorder::new();
    let router = router_for(manifest, &rec, Faults::disabled(), |_| {});

    // The rollout fails loudly, naming exactly the refusing replica,
    // and the pin stays on generation 1.
    let err = router.rollout(2).unwrap_err();
    match &err {
        RouterError::RolloutFailed { target, failed } => {
            assert_eq!(*target, 2);
            assert_eq!(failed.len(), 1, "exactly one replica refused: {failed:?}");
        }
        other => panic!("expected RolloutFailed, got {other}"),
    }
    assert_eq!(
        router.pinned_generation(),
        1,
        "a failed rollout must not move the pin"
    );
    assert_eq!(counter_total(&rec, "qrouter.rollout.failed"), 1);
    assert_eq!(counter_total(&rec, "qrouter.rollout.replica.failed"), 1);
    assert_eq!(counter_total(&rec, "qrouter.rollout.replica.ok"), 3);

    // Zero downtime through the mixed window: replicas that swapped
    // still hold generation 1 resident as `previous`, the refusing
    // replica still has it active, so pinned batches keep answering
    // bit-identically.
    assert_eq!(
        route_all(&router, &queries),
        expected1,
        "the old generation must keep serving through a failed rollout"
    );

    // The failpoint is spent: the retry swaps every replica (reload is
    // idempotent on the ones that already hold generation 2).
    assert_eq!(router.rollout(2).unwrap(), 2);
    assert_eq!(router.pinned_generation(), 2);
    assert_eq!(route_all(&router, &queries), expected2);
    for server in &mut servers {
        server.shutdown();
    }
}
