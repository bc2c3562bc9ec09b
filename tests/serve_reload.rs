//! Live hot-reload goldens and chaos (SERVING.md "Generations & hot
//! reload", ROBUSTNESS.md): a server swapped from generation 1 to 2
//! over the wire keeps every connection alive and answers bit-identical
//! to the per-generation in-process oracle before and after the swap;
//! a reload that fails — load fault, validation fault, stalled handler
//! — rolls back loudly with a typed `ReloadFailed`, leaves the old
//! generation serving byte-for-byte, and succeeds on retry.

use lasagna_repro::faultsim::{self, FaultPlan, Faults};
use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{
    ClientConfig, QnetError, QueryClient, ReloadConfig, Server, ServerConfig,
};
use lasagna_repro::qserve::{
    self, ContigStore, Hit, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine, QueryService,
    ServiceConfig,
};
use std::path::Path;
use std::time::Duration;

fn reads(seed: u64) -> ReadSet {
    let genome = GenomeSim::uniform(2_000, seed).generate();
    ShotgunSim::error_free(60, 8.0, seed + 1).sample(&genome)
}

/// Assemble an error-free dataset into `dir` and return its contigs.
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

/// Ground truth for one generation: an independent in-process engine
/// over the same contigs with the same index parameters.
fn oracle_answers(contigs: &[PackedSeq], queries: &[PackedSeq]) -> Vec<Option<Hit>> {
    let store = ContigStore::from_contigs(contigs.to_vec());
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    let engine = QueryEngine::new(store, index, QueryConfig::default()).unwrap();
    queries.iter().map(|q| engine.query(q)).collect()
}

/// A two-generation work dir: generation 1 is corpus A, generation 2 is
/// corpus A + B. Returns the queries (A windows then B
/// windows, so the oracles must disagree on the B tail) and both
/// oracles' answers.
struct TwoGenerations {
    work: stdx::TempDir,
    queries: Vec<PackedSeq>,
    expected1: Vec<Option<Hit>>,
    expected2: Vec<Option<Hit>>,
}

fn two_generations(seed: u64) -> TwoGenerations {
    let scratch_a = stdx::tempdir().unwrap();
    let scratch_b = stdx::tempdir().unwrap();
    let contigs_a = assemble_into(scratch_a.path(), seed);
    let contigs_b = assemble_into(scratch_b.path(), seed + 10);
    let mut gen2 = contigs_a.clone();
    gen2.extend(contigs_b.iter().cloned());

    let mut queries = slice_queries(&contigs_a, 512, 60);
    queries.extend(slice_queries(&contigs_b, 128, 60));
    let expected1 = oracle_answers(&contigs_a, &queries);
    let expected2 = oracle_answers(&gen2, &queries);
    assert_ne!(
        expected1, expected2,
        "the B windows must tell the generations apart"
    );

    let work = stdx::tempdir().unwrap();
    let io = IoStats::default();
    for contigs in [&contigs_a, &gen2] {
        qserve::generations::export(work.path(), contigs, &IndexConfig::default(), &io).unwrap();
    }
    TwoGenerations {
        work,
        queries,
        expected1,
        expected2,
    }
}

/// Start a server on generation `gen_id` of `work`, reload path armed.
fn start_gen_server(work: &Path, gen_id: u64, rec: &obs::Recorder, faults: Faults) -> Server {
    let io = IoStats::default();
    let store = ContigStore::open(&work.join(qserve::gen_store_file(gen_id)), &io).unwrap();
    let index = MinimizerIndex::open(&work.join(qserve::gen_index_file(gen_id)), &io).unwrap();
    let engine = QueryEngine::new(store, index, QueryConfig::default()).unwrap();
    let svc = QueryService::start_with_generation(engine, gen_id, ServiceConfig::default(), rec);
    Server::start(
        svc,
        ServerConfig {
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(10),
            stall_ms: 100,
            reload: Some(ReloadConfig {
                work_dir: work.to_path_buf(),
                shard: None,
            }),
            ..ServerConfig::default()
        },
        rec,
        faults,
    )
    .unwrap()
}

fn client_for(addr: std::net::SocketAddr, id: &str) -> QueryClient {
    QueryClient::new(
        ClientConfig {
            addr: addr.to_string(),
            client_id: id.to_string(),
            max_retries: 4,
            backoff_base_ms: 2,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        &obs::Recorder::disabled(),
    )
}

#[test]
fn hot_reload_swaps_generations_bit_identically_on_a_live_connection() {
    let tg = two_generations(70);
    let mut server = start_gen_server(tg.work.path(), 1, &obs::Recorder::new(), Faults::disabled());
    let mut client = client_for(server.local_addr(), "swap");

    // Before the swap: generation 1's answers, tagged as such.
    let (tag, answers) = client.query_batch_tagged(&tg.queries).unwrap();
    assert_eq!(tag, 1);
    assert_eq!(answers, tg.expected1, "generation 1 must answer first");

    // The swap, on the same connection the queries ride.
    assert_eq!(client.reload(2).unwrap(), 2);

    // After the swap: generation 2's answers — same socket, not a
    // single reconnect; this is the zero-downtime claim.
    let (tag, answers) = client.query_batch_tagged(&tg.queries).unwrap();
    assert_eq!(tag, 2);
    assert_eq!(answers, tg.expected2, "generation 2 must answer after");
    assert_eq!(
        client.reconnects(),
        0,
        "a hot reload must not cost the client its connection"
    );

    // The previous generation stays resident: a batch pinned to 1 is
    // answered bit-identically to the pre-swap oracle.
    client.set_generation_pin(1);
    let (tag, answers) = client.query_batch_tagged(&tg.queries).unwrap();
    assert_eq!(tag, 1);
    assert_eq!(
        answers, tg.expected1,
        "the previous generation still answers pinned batches"
    );
    client.set_generation_pin(0);

    // Reloading to the already-active id and to `0` (manifest active,
    // which is 2 after both exports) are both idempotent successes.
    assert_eq!(client.reload(2).unwrap(), 2);
    assert_eq!(client.reload(0).unwrap(), 2);

    // The snapshot tells the same story.
    let snap = client.stats().unwrap();
    assert_eq!(snap.generation, 2);
    assert!(snap.reloads >= 1, "at least the real swap is counted");
    assert_eq!(snap.rollbacks, 0);

    let report = server.shutdown();
    assert!(report.completed, "nothing in flight at shutdown");
}

#[test]
fn failed_reload_rolls_back_loudly_and_the_old_generation_keeps_serving() {
    let tg = two_generations(71);
    let rec = obs::Recorder::new();
    let faults = Faults::from_plan(&FaultPlan::new().fail_at(faultsim::QSERVE_GEN_LOAD, 1));
    let mut server = start_gen_server(tg.work.path(), 1, &rec, faults.clone());
    let mut client = client_for(server.local_addr(), "rollback");

    // The armed load fault makes the first reload fail — typed, loud,
    // attributed to the generation it targeted, and not retried by the
    // client on its own.
    let err = client.reload(2).unwrap_err();
    match &err {
        QnetError::ReloadFailed {
            generation,
            message,
        } => {
            assert_eq!(*generation, 2);
            assert!(!message.is_empty(), "the failure names what broke");
        }
        other => panic!("expected ReloadFailed, got {other}"),
    }
    assert!(!err.is_retryable(), "a failed reload must not auto-retry");
    assert!(!faults.injected().is_empty(), "the failpoint never fired");

    // The rollback left generation 1 serving, bit-identically, on the
    // same connection.
    let (tag, answers) = client.query_batch_tagged(&tg.queries).unwrap();
    assert_eq!(tag, 1);
    assert_eq!(
        answers, tg.expected1,
        "old generation must keep serving after rollback"
    );
    assert_eq!(
        client.reconnects(),
        0,
        "rollback must not cost the connection"
    );
    let snap = client.stats().unwrap();
    assert_eq!(snap.generation, 1);
    assert_eq!(snap.rollbacks, 1, "the rollback is counted loudly");
    assert_eq!(snap.reloads, 0);

    // The failpoint is spent: the retry lands the swap.
    assert_eq!(client.reload(2).unwrap(), 2);
    let (tag, answers) = client.query_batch_tagged(&tg.queries).unwrap();
    assert_eq!(tag, 2);
    assert_eq!(answers, tg.expected2);

    server.shutdown();
    rec.flush();
    let totals = obs::Rollup::from_events(&rec.events()).totals();
    assert_eq!(totals.counter("qnet.reload.requested"), 2);
    assert_eq!(totals.counter("qnet.reload.failed"), 1);
    assert_eq!(totals.counter("qnet.reload.ok"), 1);
    assert_eq!(totals.counter("qserve.gen.rollbacks"), 1);
    assert_eq!(totals.counter("qserve.gen.reloads"), 1);
}

#[test]
fn reload_chaos_matrix_every_failure_is_typed_and_recoverable() {
    let tg = two_generations(72);
    let scenarios: Vec<(&str, FaultPlan)> = vec![
        (
            "generation load fails",
            FaultPlan::new().fail_at(faultsim::QSERVE_GEN_LOAD, 1),
        ),
        (
            "generation validation fails",
            FaultPlan::new().fail_at(faultsim::QSERVE_GEN_VALIDATE, 1),
        ),
        (
            "reload handler stalls",
            FaultPlan::new().fail_at(faultsim::QNET_RELOAD_STALL, 1),
        ),
    ];
    for (name, plan) in scenarios {
        let faults = Faults::from_plan(&plan);
        let mut server = start_gen_server(
            tg.work.path(),
            1,
            &obs::Recorder::disabled(),
            faults.clone(),
        );
        let mut client = client_for(server.local_addr(), "chaos");

        // The failure is typed — never a hang, never a half-swap.
        let err = match client.reload(2) {
            Err(e) => e,
            Ok(g) => panic!("{name}: reload must fail under the armed fault, got generation {g}"),
        };
        assert!(
            matches!(err, QnetError::ReloadFailed { generation: 2, .. }),
            "{name}: expected a typed ReloadFailed, got {err}"
        );
        assert!(
            !faults.injected().is_empty(),
            "{name}: the failpoint never fired"
        );

        // The old generation keeps serving bit-identically on the same
        // connection, and the spent failpoint lets a retry land.
        let (tag, answers) = client.query_batch_tagged(&tg.queries).unwrap();
        assert_eq!(tag, 1, "{name}");
        assert_eq!(
            answers, tg.expected1,
            "{name}: old generation must keep serving"
        );
        assert_eq!(
            client.reconnects(),
            0,
            "{name}: no reconnect across the failure"
        );

        assert_eq!(client.reload(2).unwrap(), 2, "{name}: retry must land");
        let (tag, answers) = client.query_batch_tagged(&tg.queries).unwrap();
        assert_eq!(tag, 2, "{name}");
        assert_eq!(answers, tg.expected2, "{name}: new generation after retry");

        let report = server.shutdown();
        assert!(report.completed, "{name}: drain left stragglers");
    }
}
