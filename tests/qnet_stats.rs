//! Live `Stats` telemetry goldens (SERVING.md, OBSERVABILITY.md): a
//! snapshot taken over the wire after the load fully drains must equal
//! the post-hoc rollup of the same run's JSONL trace — counter for
//! counter, histogram for histogram — and the `PingV2` probe reports
//! live queue state.

use lasagna_repro::faultsim::Faults;
use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{
    ClientConfig, LatencySummary, QnetError, QueryClient, Server, ServerConfig, ShedScope,
};
use lasagna_repro::qserve::{
    self, ContigStore, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine, QueryService,
    ServiceConfig,
};
use std::path::Path;
use std::time::Duration;

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

fn start_server(dir: &Path, rec: &obs::Recorder) -> Server {
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    start_server_with(dir, rec, cfg, ServiceConfig::default())
}

fn start_server_with(
    dir: &Path,
    rec: &obs::Recorder,
    cfg: ServerConfig,
    svc_cfg: ServiceConfig,
) -> Server {
    let io = IoStats::default();
    let store = ContigStore::open(&dir.join(qserve::STORE_FILE), &io).unwrap();
    let index = MinimizerIndex::build(&store, &IndexConfig::default());
    let engine = QueryEngine::new(store, index, QueryConfig::default()).unwrap();
    let svc = QueryService::start(engine, svc_cfg, rec);
    Server::start(svc, cfg, rec, Faults::disabled()).unwrap()
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
fn stats_snapshot_after_drain_matches_the_trace_rollup_exactly() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 60);
    let queries = slice_queries(&contigs, 2_000, 60);

    let rec = obs::Recorder::new();
    let mut server = start_server(dir.path(), &rec);
    let mut client = client_for(server.local_addr(), "golden");

    // A mid-load snapshot must be admitted while queries flow (the
    // probe bypasses every admission gate) and its counters can only
    // grow from there.
    let mut mid = None;
    for (i, batch) in queries.chunks(256).enumerate() {
        client.query_batch(batch).unwrap();
        if i == 2 {
            mid = Some(client.stats().unwrap());
        }
    }
    // Every batch is answered, so every event the run will ever record
    // is already in both the live windows and the trace buffer.
    let snap = client.stats().unwrap();
    let mid = mid.unwrap();

    server.shutdown();
    rec.flush();
    let totals = obs::Rollup::from_events(&rec.events()).totals();

    assert!(!snap.draining);
    assert_eq!(snap.inflight, 0, "all responses received before the probe");
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.drained_reads, 2_000);

    // Gate counters: the live snapshot equals the post-hoc trace.
    assert_eq!(snap.accepted, totals.counter("qnet.accepted"));
    assert_eq!(snap.rejected, totals.counter("qnet.rejected"));
    assert_eq!(snap.deadline_shed, totals.counter("qnet.deadline_shed"));
    assert_eq!(snap.fairness_shed, totals.counter("qnet.fairness_shed"));
    assert_eq!(snap.accepted, 2_000, "every read admitted");

    // Latency distributions: the snapshot's rows are exactly what
    // summarizing the trace's merged histograms yields — same buckets,
    // same counts, same percentiles, in the same sorted order.
    let expected: Vec<LatencySummary> = totals
        .hists
        .iter()
        .map(|(name, h)| LatencySummary::from_hist(name, h))
        .collect();
    assert_eq!(
        snap.latency, expected,
        "live windows must equal the trace rollup"
    );
    let names: Vec<&str> = snap.latency.iter().map(|l| l.name.as_str()).collect();
    for name in [
        "qnet.latency.exec",
        "qnet.latency.queue",
        "qnet.latency.total",
        "qserve.latency.exec",
        "qserve.latency.queue",
        "qserve.latency.total",
    ] {
        assert!(names.contains(&name), "missing {name} in {names:?}");
    }
    for l in &snap.latency {
        assert_eq!(l.count, 2_000, "{}: one sample per read", l.name);
        assert!(
            l.min_us <= l.p50_us
                && l.p50_us <= l.p90_us
                && l.p90_us <= l.p99_us
                && l.p99_us <= l.p999_us
                && l.p999_us <= l.max_us,
            "{}: percentiles must be monotone",
            l.name
        );
    }

    // Per-client attribution survives into the snapshot.
    let c = snap
        .clients
        .iter()
        .find(|c| c.client_id == "golden")
        .expect("the only client must be listed");
    assert_eq!(c.accepted, 2_000);
    assert_eq!(
        c.rejected + c.deadline_shed + c.fairness_shed,
        0,
        "nothing shed on a clean run"
    );

    // The mid-load snapshot is a strict prefix of the final one.
    assert!(mid.accepted <= snap.accepted);
    assert!(mid.drained_reads <= snap.drained_reads);
    assert!(mid.uptime_ms <= snap.uptime_ms);
}

/// How one flooded batch ended, as seen from its client.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Delivered,
    Fairness,
    Queue,
    Drain,
    Deadline,
    Io,
}

/// Classify a `query_batch` result. `max_retries: 0` means every
/// retryable error surfaces as `RetriesExhausted` wrapping the typed
/// error of the single attempt.
fn classify(r: &Result<Vec<Option<qserve::Hit>>, QnetError>) -> Outcome {
    let err = match r {
        Ok(_) => return Outcome::Delivered,
        Err(e) => e,
    };
    match err.last_attempt() {
        QnetError::DeadlineExceeded { .. } => Outcome::Deadline,
        QnetError::Draining => Outcome::Drain,
        QnetError::Io(_) => Outcome::Io,
        QnetError::Overloaded {
            scope: ShedScope::Fairness,
            ..
        } => Outcome::Fairness,
        QnetError::Overloaded {
            scope: ShedScope::Queue,
            ..
        } => Outcome::Queue,
        other => panic!("unexpected flood error: {other}"),
    }
}

/// Satellite property (ROBUSTNESS.md "Schedule exploration"): under a
/// mixed-client flood with a drain toggled mid-flight, every offered
/// read is conserved across the admission gates — `accepted` balances
/// exactly against delivered answers plus force-closed stragglers, the
/// per-gate counters bracket the typed errors the clients saw (socket
/// EOFs are the only slack), and the live snapshot equals the post-hoc
/// trace rollup counter for counter.
#[test]
fn flood_with_drain_toggle_conserves_every_read_across_the_gates() {
    const CLIENTS: usize = 3;
    const BATCH_READS: u64 = 8;
    const BURST: f64 = 40.0;

    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 63);
    let batch = slice_queries(&contigs, BATCH_READS as usize, 60);

    let rec = obs::Recorder::new();
    // Zero refill + a small burst force fairness sheds once a client
    // spends its bucket; a zero drain deadline force-closes anything
    // still in flight the moment the drain toggles.
    let cfg = ServerConfig {
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        drain_deadline: Duration::ZERO,
        admission: qserve::AdmissionConfig {
            refill_per_s: 0.0,
            burst: BURST,
        },
        ..ServerConfig::default()
    };
    let svc_cfg = ServiceConfig {
        workers: 2,
        max_queue: 4,
        ..ServiceConfig::default()
    };
    let mut server = start_server_with(dir.path(), &rec, cfg, svc_cfg);
    let addr = server.local_addr();

    // Each client floods until the drain (or a closed socket) stops it,
    // so the toggle always lands mid-flood no matter how fast the
    // server answers.
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let batch = batch.clone();
            std::thread::spawn(move || {
                let mut client = QueryClient::new(
                    ClientConfig {
                        addr: addr.to_string(),
                        client_id: format!("flood{i}"),
                        max_retries: 0,
                        read_timeout: Duration::from_secs(2),
                        write_timeout: Duration::from_secs(2),
                        ..ClientConfig::default()
                    },
                    &obs::Recorder::disabled(),
                );
                let mut outcomes = Vec::new();
                for _ in 0..5_000 {
                    let out = classify(&client.query_batch(&batch));
                    outcomes.push(out);
                    if matches!(out, Outcome::Drain | Outcome::Io) {
                        break;
                    }
                }
                outcomes
            })
        })
        .collect();

    // Mid-flood, the live probe must answer (Stats bypasses every
    // admission gate).
    std::thread::sleep(Duration::from_millis(5));
    let mid = client_for(addr, "probe").stats().unwrap();

    // Toggle the drain while the flood is still running.
    std::thread::sleep(Duration::from_millis(10));
    let report = server.shutdown();
    let outcomes: Vec<Outcome> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    let snap = server.stats_snapshot();
    rec.flush();
    let totals = obs::Rollup::from_events(&rec.events()).totals();

    let reads = |o: Outcome| outcomes.iter().filter(|&&x| x == o).count() as u64 * BATCH_READS;
    let offered = outcomes.len() as u64 * BATCH_READS;
    let (delivered, io) = (reads(Outcome::Delivered), reads(Outcome::Io));

    // Shutdown left nothing behind, and the snapshot says so.
    assert!(snap.draining);
    assert_eq!(snap.inflight, 0);
    assert_eq!(snap.queue_depth, 0);

    // Live snapshot == post-hoc trace rollup, counter for counter.
    assert_eq!(snap.accepted, totals.counter("qnet.accepted"));
    assert_eq!(snap.rejected, totals.counter("qnet.rejected"));
    assert_eq!(snap.deadline_shed, totals.counter("qnet.deadline_shed"));
    assert_eq!(snap.fairness_shed, totals.counter("qnet.fairness_shed"));
    assert_eq!(snap.force_closed, totals.counter("qnet.drain.force_closed"));
    assert_eq!(snap.force_closed, report.force_closed);

    // Conservation: every offered read was counted at exactly one gate,
    // except reads whose connection died before the server saw them.
    let counted = snap.accepted + snap.rejected + snap.deadline_shed + snap.fairness_shed;
    assert!(
        counted <= offered && counted + io >= offered,
        "counted {counted} reads of {offered} offered ({io} lost to EOF)"
    );

    // The admitted ledger balances exactly: an admitted read either
    // delivered its answer or was force-closed — never both, never
    // neither (the per-connection write lock makes them exclusive).
    assert_eq!(
        snap.accepted,
        delivered + snap.force_closed,
        "accepted must equal delivered + force-closed"
    );

    // Each gate's counter brackets the typed errors observed, with the
    // EOF reads as the only slack.
    let fairness = reads(Outcome::Fairness);
    assert!(
        snap.fairness_shed >= fairness && snap.fairness_shed <= fairness + io,
        "fairness counter {} outside [{fairness}, {}]",
        snap.fairness_shed,
        fairness + io
    );
    let drainish = reads(Outcome::Drain) + reads(Outcome::Queue);
    assert!(
        snap.rejected + snap.force_closed >= drainish
            && snap.rejected + snap.force_closed <= drainish + io,
        "rejected {} + force-closed {} outside [{drainish}, {}]",
        snap.rejected,
        snap.force_closed,
        drainish + io
    );
    assert_eq!(snap.deadline_shed, reads(Outcome::Deadline));

    // The flood really exercised the gates: every client spent its
    // whole bucket, then kept getting typed fairness sheds until the
    // drain cut it off.
    assert!(fairness > 0, "flood never hit the fairness gate");
    assert!(reads(Outcome::Drain) + io > 0, "drain toggle went unseen");

    // Double-entry bookkeeping: per-client totals sum to the globals,
    // and each spent bucket is an integral number of charges within
    // [accepted, accepted + rejected].
    assert_eq!(snap.clients.len(), CLIENTS);
    assert_eq!(snap.accepted, snap.clients.iter().map(|c| c.accepted).sum());
    assert_eq!(snap.rejected, snap.clients.iter().map(|c| c.rejected).sum());
    assert_eq!(
        snap.fairness_shed,
        snap.clients.iter().map(|c| c.fairness_shed).sum()
    );
    for c in &snap.clients {
        let spent = BURST - c.tokens;
        assert!(
            (spent - spent.round()).abs() < 1e-6,
            "{}: fractional token spend {spent}",
            c.client_id
        );
        let spent = spent.round() as u64;
        assert!(
            spent >= c.accepted && spent <= c.accepted + c.rejected,
            "{}: spent {spent} outside [{}, {}]",
            c.client_id,
            c.accepted,
            c.accepted + c.rejected
        );
    }

    // The mid-flood probe is a prefix of the final books.
    assert!(mid.accepted <= snap.accepted);
    assert!(mid.fairness_shed <= snap.fairness_shed);
    assert!(mid.rejected <= snap.rejected);
}

#[test]
fn ping_v2_reports_queue_state() {
    let dir = stdx::tempdir().unwrap();
    let contigs = assemble_into(dir.path(), 61);
    let rec = obs::Recorder::new();
    let mut server = start_server(dir.path(), &rec);
    let mut client = client_for(server.local_addr(), "probe");

    let pong = client.ping_v2().unwrap();
    assert!(pong.ready);
    assert!(!pong.draining);
    assert_eq!(pong.queue_depth, 0, "idle server has an empty queue");
    assert!(pong.drain_ewma_reads_per_s >= 0.0);

    // After real work drains, the probe still reports an empty queue
    // and the drain odometer moved.
    let queries = slice_queries(&contigs, 256, 60);
    client.query_batch(&queries).unwrap();
    let pong = client.ping_v2().unwrap();
    assert_eq!(pong.queue_depth, 0);
    assert_eq!(server.service().drained_reads(), 256);

    server.shutdown();
}

#[test]
fn stats_on_an_idle_server_is_empty() {
    let dir = stdx::tempdir().unwrap();
    assemble_into(dir.path(), 62);
    let rec = obs::Recorder::new();
    let mut server = start_server(dir.path(), &rec);
    let mut client = client_for(server.local_addr(), "idle");

    let snap = client.stats().unwrap();
    assert_eq!(snap.accepted, 0);
    assert_eq!(snap.rejected + snap.deadline_shed + snap.fairness_shed, 0);
    assert_eq!(snap.drained_reads, 0);
    assert!(snap.latency.is_empty(), "no reads, no histograms");
    assert!(
        snap.clients.is_empty(),
        "no query yet, so no per-client state"
    );

    server.shutdown();
}
