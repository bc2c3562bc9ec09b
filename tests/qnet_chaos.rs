//! Chaos and golden-path tests for the qnet network front-end (see
//! SERVING.md and ROBUSTNESS.md): a batched 10k-read run over loopback
//! TCP must be bit-identical to the in-process service — clean, under
//! every qnet failpoint, and across graceful drain — and every failure
//! the client sees must be a typed, retryable error, never a hang and
//! never a wrong answer. Fairness keeps a quiet client served while a
//! flooder is shed, with per-client trace attribution to prove it.

use lasagna_repro::faultsim::{self, FaultPlan, Faults};
use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{ClientConfig, QnetError, QueryClient, Server, ServerConfig, ShedScope};
use lasagna_repro::qserve::{
    self, AdmissionConfig, ContigStore, Hit, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine,
    QueryService, ServiceConfig,
};
use std::path::Path;
use std::time::{Duration, Instant};

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

fn start_service(dir: &Path, rec: &obs::Recorder) -> QueryService {
    let io = IoStats::default();
    let store = ContigStore::open(&dir.join(qserve::STORE_FILE), &io).unwrap();
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    let engine = QueryEngine::new(store, index, QueryConfig::default()).unwrap();
    QueryService::start(engine, ServiceConfig::default(), rec)
}

/// Ground truth: the same load through the in-process service.
fn in_process_answers(dir: &Path, queries: &[PackedSeq]) -> Vec<Option<Hit>> {
    let svc = start_service(dir, &obs::Recorder::disabled());
    let mut out = Vec::with_capacity(queries.len());
    for batch in queries.chunks(256) {
        out.extend(svc.query_batch(batch.to_vec()).unwrap());
    }
    out
}

fn start_server(
    dir: &Path,
    rec: &obs::Recorder,
    faults: Faults,
    tweak: impl FnOnce(&mut ServerConfig),
) -> Server {
    let svc = start_service(dir, rec);
    let mut cfg = ServerConfig {
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(10),
        stall_ms: 100,
        ..ServerConfig::default()
    };
    tweak(&mut cfg);
    Server::start(svc, cfg, rec, faults).unwrap()
}

fn client_for(addr: std::net::SocketAddr, id: &str, rec: &obs::Recorder) -> QueryClient {
    QueryClient::new(
        ClientConfig {
            addr: addr.to_string(),
            client_id: id.to_string(),
            max_retries: 8,
            backoff_base_ms: 2,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        rec,
    )
}

/// Sum `counter` over every `client:{id}` span in the server's subtree.
fn client_counter(rollup: &obs::Rollup, client_id: &str, counter: &str) -> u64 {
    let root = rollup
        .roots()
        .into_iter()
        .find(|r| r.name == "qnet.server")
        .expect("a qnet.server span");
    let mut total = 0;
    for conn in rollup.children(root.id) {
        if let Some(c) = rollup.child_named(conn.id, &format!("client:{client_id}")) {
            total += rollup.subtree(c.id).counter(counter);
        }
    }
    total
}

#[test]
fn loopback_run_is_bit_identical_to_in_process_and_traced() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 50);
    let queries = slice_queries(&contigs, 10_000, 60);
    let reference = in_process_answers(dir.path(), &queries);

    let rec = obs::Recorder::new();
    let mut server = start_server(dir.path(), &rec, Faults::disabled(), |_| {});
    let mut client = client_for(server.local_addr(), "golden", &obs::Recorder::disabled());

    let mut answers = Vec::with_capacity(queries.len());
    for batch in queries.chunks(256) {
        answers.extend(client.query_batch(batch).unwrap());
    }
    assert_eq!(answers, reference, "network answers must be bit-identical");
    assert!(answers.iter().flatten().count() > 0, "some reads must map");
    assert_eq!(client.retries_total(), 0, "clean run needs no retries");

    let report = server.shutdown();
    assert!(report.completed, "nothing in flight at shutdown");

    rec.flush();
    let rollup = obs::Rollup::from_events(&rec.events());
    assert_eq!(
        client_counter(&rollup, "golden", "qnet.accepted"),
        10_000,
        "every read accepted, attributed to client:golden"
    );
    assert_eq!(client_counter(&rollup, "golden", "qnet.rejected"), 0);
    assert_eq!(client_counter(&rollup, "golden", "qnet.deadline_shed"), 0);
    assert_eq!(client_counter(&rollup, "golden", "qnet.fairness_shed"), 0);
}

#[test]
fn chaos_matrix_every_failpoint_still_answers_bit_identically() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 51);
    let queries = slice_queries(&contigs, 10_000, 60);
    let reference = in_process_answers(dir.path(), &queries);

    let scenarios: Vec<(&str, FaultPlan)> = vec![
        (
            "accept dropped",
            FaultPlan::new().fail_at(faultsim::QNET_ACCEPT, 1),
        ),
        (
            "frame torn mid-payload",
            FaultPlan::new().fail_at(faultsim::QNET_FRAME_WRITE, 2),
        ),
        (
            "response stalled then dropped",
            FaultPlan::new().fail_at(faultsim::QNET_FRAME_STALL, 1),
        ),
        (
            "connections dropped on 25% of responses",
            FaultPlan::new().fail_prob(faultsim::QNET_CONN_DROP, 25, 9),
        ),
    ];
    for (name, plan) in scenarios {
        let faults = Faults::from_plan(&plan);
        let mut server = start_server(
            dir.path(),
            &obs::Recorder::disabled(),
            faults.clone(),
            |_| {},
        );
        let mut client = client_for(server.local_addr(), "chaos", &obs::Recorder::disabled());

        let start = Instant::now();
        let mut answers = Vec::with_capacity(queries.len());
        for batch in queries.chunks(256) {
            answers.extend(
                client
                    .query_batch(batch)
                    .unwrap_or_else(|e| panic!("{name}: {e}")),
            );
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(60),
            "{name}: chaos run took {elapsed:?} — retries must stay bounded"
        );
        assert_eq!(answers, reference, "{name}: wrong answer under chaos");
        assert!(
            !faults.injected().is_empty(),
            "{name}: the failpoint never fired"
        );
        assert!(
            client.retries_total() >= 1,
            "{name}: the client should have retried"
        );
        let report = server.shutdown();
        assert!(report.completed, "{name}: drain left stragglers");
    }
}

#[test]
fn a_single_attempt_fails_typed_and_retryable_never_wrong() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 52);
    let queries = slice_queries(&contigs, 64, 60);
    let reference = in_process_answers(dir.path(), &queries);

    let faults = Faults::from_plan(&FaultPlan::new().fail_at(faultsim::QNET_CONN_DROP, 1));
    let server = start_server(dir.path(), &obs::Recorder::disabled(), faults, |_| {});

    // No retry budget: the dropped connection surfaces as a typed,
    // bounded error — the answer is never fabricated.
    let mut one_shot = QueryClient::new(
        ClientConfig {
            addr: server.local_addr().to_string(),
            client_id: "one-shot".to_string(),
            max_retries: 0,
            backoff_base_ms: 1,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        &obs::Recorder::disabled(),
    );
    let err = one_shot.query_batch(&queries).unwrap_err();
    match err {
        QnetError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 1);
            assert!(matches!(*last, QnetError::Io(_)), "last: {last}");
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }

    // The same failpoint already fired (one-shot arm), so a retrying
    // client now gets the correct answers on the same server.
    let mut retrying = client_for(server.local_addr(), "retrying", &obs::Recorder::disabled());
    assert_eq!(retrying.query_batch(&queries).unwrap(), reference);
}

#[test]
fn spent_deadline_is_shed_before_any_worker_sees_it() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 53);
    let queries = slice_queries(&contigs, 32, 60);
    let reference = in_process_answers(dir.path(), &queries);

    let rec = obs::Recorder::new();
    let mut server = start_server(dir.path(), &rec, Faults::disabled(), |_| {});

    let mut spent = QueryClient::new(
        ClientConfig {
            addr: server.local_addr().to_string(),
            client_id: "spent".to_string(),
            deadline_ms: 0,
            max_retries: 4,
            backoff_base_ms: 1,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        &obs::Recorder::disabled(),
    );
    let err = spent.query_batch(&queries).unwrap_err();
    assert!(
        matches!(err, QnetError::DeadlineExceeded { budget_ms: 0 }),
        "got {err}"
    );
    assert!(!err.is_retryable(), "a spent deadline must not retry");
    assert_eq!(spent.retries_total(), 0);
    assert_eq!(
        server.service().drained_reads(),
        0,
        "the shed batch must never reach a worker"
    );

    // A sane budget on the same connection's sibling works.
    let mut fine = client_for(server.local_addr(), "fine", &obs::Recorder::disabled());
    assert_eq!(fine.query_batch(&queries).unwrap(), reference);

    server.shutdown();
    rec.flush();
    let rollup = obs::Rollup::from_events(&rec.events());
    assert_eq!(
        client_counter(&rollup, "spent", "qnet.deadline_shed"),
        32,
        "deadline sheds counted separately, attributed to the client"
    );
    assert_eq!(client_counter(&rollup, "spent", "qnet.rejected"), 0);
    assert_eq!(client_counter(&rollup, "fine", "qnet.accepted"), 32);
}

#[test]
fn fairness_keeps_a_quiet_client_served_while_a_flooder_is_shed() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 54);
    let queries = slice_queries(&contigs, 512, 60);
    let quiet_batch: Vec<PackedSeq> = queries[..10].to_vec();
    let quiet_expected = in_process_answers(dir.path(), &quiet_batch);

    let rec = obs::Recorder::new();
    let mut server = start_server(dir.path(), &rec, Faults::disabled(), |cfg| {
        // A small bucket so a flooder exhausts its own allowance fast:
        // 400 read-tokens of burst, refilled at 2000 reads/s.
        cfg.admission = AdmissionConfig {
            refill_per_s: 2_000.0,
            burst: 400.0,
        };
    });
    let addr = server.local_addr();

    // Flooder: 200-read batches in a tight loop, no retries — after the
    // burst allowance (two batches) it gets fairness sheds.
    let flood_queries: Vec<PackedSeq> = queries[..200].to_vec();
    let flooder = std::thread::spawn(move || {
        let mut client = QueryClient::new(
            ClientConfig {
                addr: addr.to_string(),
                client_id: "flood".to_string(),
                max_retries: 0,
                backoff_base_ms: 1,
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                ..ClientConfig::default()
            },
            &obs::Recorder::disabled(),
        );
        let mut served = 0u64;
        let mut shed = 0u64;
        let mut hints_ok = true;
        for _ in 0..40 {
            match client.query_batch(&flood_queries) {
                Ok(_) => served += 1,
                Err(e) => match e.last_attempt() {
                    QnetError::Overloaded { scope, .. } => {
                        shed += 1;
                        hints_ok &= *scope == ShedScope::Fairness;
                    }
                    _ => panic!("flooder saw an unexpected error: {e}"),
                },
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        (served, shed, hints_ok)
    });

    // Quiet client: 10 reads every 10 ms — comfortably inside its own
    // bucket, so the flood next door must not cost it a single answer.
    let mut quiet = QueryClient::new(
        ClientConfig {
            addr: addr.to_string(),
            client_id: "quiet".to_string(),
            max_retries: 0,
            backoff_base_ms: 1,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        &obs::Recorder::disabled(),
    );
    let mut quiet_latencies = Vec::new();
    for _ in 0..25 {
        let t = Instant::now();
        let hits = quiet
            .query_batch(&quiet_batch)
            .expect("the quiet client must never be shed");
        quiet_latencies.push(t.elapsed());
        assert_eq!(hits, quiet_expected, "quiet answers stay correct");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (served, shed, hints_ok) = flooder.join().unwrap();
    assert!(served >= 2, "the flooder's burst allowance serves first");
    assert!(shed >= 10, "the flooder must absorb the sheds, got {shed}");
    assert!(hints_ok, "fairness sheds must carry the fairness scope");
    quiet_latencies.sort();
    let p99 = quiet_latencies[quiet_latencies.len() - 1];
    assert!(
        p99 < Duration::from_secs(2),
        "quiet p99 {p99:?} blew up under the flood"
    );

    server.shutdown();
    rec.flush();
    let rollup = obs::Rollup::from_events(&rec.events());
    assert_eq!(
        client_counter(&rollup, "quiet", "qnet.fairness_shed"),
        0,
        "no fairness shed may be attributed to the quiet client"
    );
    assert!(
        client_counter(&rollup, "flood", "qnet.fairness_shed") >= 10 * 200,
        "the flooder's sheds are attributed to client:flood"
    );
    assert_eq!(
        client_counter(&rollup, "quiet", "qnet.accepted"),
        25 * 10,
        "every quiet read served"
    );
}

#[test]
fn graceful_drain_finishes_inflight_work_and_rejects_new_work_typed() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 55);
    let queries = slice_queries(&contigs, 10_000, 60);
    let reference = in_process_answers(dir.path(), &queries);

    let mut server = start_server(
        dir.path(),
        &obs::Recorder::disabled(),
        Faults::disabled(),
        |_| {},
    );
    let addr = server.local_addr();

    // A batched run races the drain: whichever way the race lands,
    // every request that was answered must be answered correctly, and
    // the first refusal must be typed — never a hang, never a wrong or
    // truncated answer.
    let inflight_queries = queries.clone();
    let inflight = std::thread::spawn(move || {
        let mut client = client_for(addr, "inflight", &obs::Recorder::disabled());
        let mut answers = Vec::new();
        for batch in inflight_queries.chunks(256) {
            match client.query_batch(batch) {
                Ok(hits) => answers.extend(hits),
                Err(e) => return (answers, Some(e)),
            }
        }
        (answers, None)
    });
    std::thread::sleep(Duration::from_millis(5));

    // Drain is requested over the wire, acknowledged, then executed.
    let mut ctl = client_for(addr, "ctl", &obs::Recorder::disabled());
    ctl.request_shutdown().unwrap();
    assert!(
        server.wait_shutdown_requested(Some(Duration::from_secs(5))),
        "the wire shutdown request must signal the server loop"
    );
    let start = Instant::now();
    let report = server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(15),
        "drain must be bounded by its deadline"
    );
    assert!(
        report.completed,
        "in-flight work finishes inside the deadline"
    );

    let (answers, stopped_by) = inflight.join().unwrap();
    assert_eq!(
        answers[..],
        reference[..answers.len()],
        "every answered request stays bit-identical across the drain"
    );
    match stopped_by {
        None => assert_eq!(answers.len(), reference.len()),
        Some(QnetError::RetriesExhausted { .. } | QnetError::Draining | QnetError::Io(_)) => {}
        Some(other) => panic!("unexpected in-flight outcome: {other}"),
    }

    // After the drain nothing new is admitted: fast, typed failure.
    let mut late = QueryClient::new(
        ClientConfig {
            addr: addr.to_string(),
            client_id: "late".to_string(),
            max_retries: 1,
            backoff_base_ms: 1,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        },
        &obs::Recorder::disabled(),
    );
    let t = Instant::now();
    let err = late.query_batch(&queries[..16]).unwrap_err();
    assert!(
        matches!(
            err,
            QnetError::Io(_) | QnetError::Draining | QnetError::RetriesExhausted { .. }
        ),
        "got {err}"
    );
    assert!(
        t.elapsed() < Duration::from_secs(10),
        "rejection after drain must be prompt, not a hang"
    );
}

#[test]
fn health_probe_answers_ready() {
    let dir = stdx::tempdir().unwrap();
    assemble_into(dir.path(), 56);
    let server = start_server(
        dir.path(),
        &obs::Recorder::disabled(),
        Faults::disabled(),
        |_| {},
    );
    let mut client = client_for(server.local_addr(), "probe", &obs::Recorder::disabled());
    let pong = client.ping_v2().unwrap();
    assert!(pong.ready && !pong.draining);
}

/// Regression (ROADMAP 3a): a long-lived connection must not pin memory
/// mappings per request. The server once spawned a thread per request
/// and kept its `JoinHandle` until the connection closed, so each
/// request left one thread stack mapped and a long-lived connection
/// died near 30 000 requests (`vm.max_map_count`). It now answers on the
/// connection's own thread (`tests/qnet_threads.rs`).
#[cfg(target_os = "linux")]
#[test]
fn a_long_lived_connection_does_not_leak_a_thread_stack_per_request() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 57);
    let batch = slice_queries(&contigs, 1, 60);
    let mut server = start_server(
        dir.path(),
        &obs::Recorder::disabled(),
        Faults::disabled(),
        |_| {},
    );
    let mut client = client_for(server.local_addr(), "marathon", &obs::Recorder::disabled());

    let mappings = || {
        std::fs::read_to_string("/proc/self/maps")
            .unwrap()
            .lines()
            .count()
    };
    let mut after_500 = 0;
    for request in 1..=5_000 {
        client.query_batch(&batch).unwrap();
        if request == 500 {
            after_500 = mappings();
        }
    }
    let after_5000 = mappings();
    assert_eq!(
        client.reconnects(),
        0,
        "all 5 000 requests rode one connection"
    );
    assert!(
        after_5000 <= after_500 + 64,
        "{after_500} memory mappings after request 500, {after_5000} after request 5 000: \
         requests are keeping thread stacks mapped"
    );
    server.shutdown();
}
