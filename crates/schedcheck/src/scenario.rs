//! The model-checked serving scenario: the real [`qnet::Server`] and
//! [`qserve::QueryService`] plus a small cast of scripted tasks, all
//! driven by the [`faultsim::sched`] controller.
//!
//! ## Topology
//!
//! * **engine** — a tiny in-memory contig store (one deterministic
//!   ~600-base contig) with a minimizer index, so a query resolves in
//!   microseconds and the schedule — not the work — dominates.
//! * **workers** — the real worker pool (`qserve-worker-{i}` tasks).
//! * **server** — the real accept loop and per-connection handlers,
//!   with every admission gate live.
//! * **clients** — `sc.client{i}` tasks speaking the wire protocol
//!   *directly* (frame + [`qnet::Request`]), one connection each, so
//!   every response maps to exactly one typed [`OutcomeKind`] — the
//!   retrying `QueryClient` would fold typed sheds into
//!   `RetriesExhausted` and destroy the classification.
//! * **drainer** — `sc.drainer` owns the [`Server`]; when the
//!   scheduler grants its `sc.drain.go` point it runs the full
//!   graceful drain, snapshots the stats, and tears everything down.
//!   *When* that grant lands relative to client progress is the main
//!   axis of exploration: before the first connect, mid-batch (the
//!   force-close path), or after everything finished.
//! * **prober** (optional) — `sc.prober` fires one wire `Stats`
//!   request at a schedule-chosen moment, racing the drain.
//!
//! Every schedule terminates: clients run a fixed script and exit,
//! handlers exit on client EOF or force-close, the drainer joins
//! everything, and the controller then sees `AllExited`.
//!
//! ## Virtual time
//!
//! The scheduler's clock advances 1 ms per grant, so a client
//! configured with a tiny `deadline_ms` can watch its budget expire
//! *because of* scheduling (the deadline gate), and the drain deadline
//! expires during ordinary granting — force-close is reachable without
//! any all-blocked clock jump.

use crate::trace::GrantRecord;
use crate::{invariants, sched_lock};
use faultsim::sched::{self, Candidate, StepState};
use genome::PackedSeq;
use qnet::{DrainReport, Request, Response, Server, ServerConfig, StatsSnapshot};
use qserve::{
    AdmissionConfig, ContigStore, Hit, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine,
    QueryService, ServiceConfig,
};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Base length of the scenario's single reference contig.
const CONTIG_BASES: usize = 600;
/// Base length of each query read.
const READ_BASES: usize = 60;
/// Hard cap on grants per schedule — a backstop far above what the
/// scenario needs (a full run takes a few hundred), so a runaway loop
/// becomes a reported violation instead of a wedged explorer.
const MAX_GRANTS: usize = 5_000;
/// Client socket timeouts. Generous: they only matter after an
/// abnormal teardown, when tasks free-run without a scheduler.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How clients and server treat the shared-secret auth tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthMode {
    /// No secret anywhere; tags ride as `0` and are ignored.
    Off,
    /// Server and every client share the secret — auth always passes.
    Shared,
    /// Client 0 signs with the wrong secret; every one of its queries
    /// must be rejected at gate 0 without charging its fairness bucket.
    OneBadClient,
}

/// Scenario shape. The default is the 2-clients × 2-workers drain/reload
/// configuration from the exploration plan; tests shrink or skew it.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Worker threads in the query service.
    pub workers: usize,
    /// Concurrent clients (`sc.client{i}`, wire id `c{i}`).
    pub clients: usize,
    /// Query batches each client sends, sequentially on one connection.
    pub batches_per_client: usize,
    /// Reads per batch.
    pub reads_per_batch: usize,
    /// Per-client deadline budgets, cycled by client index. A small
    /// entry makes deadline expiry reachable purely via grant count.
    pub deadline_ms: Vec<u32>,
    /// Server drain deadline in virtual milliseconds. Small, so the
    /// force-close path is reachable in bounded schedules.
    pub drain_deadline_ms: u64,
    /// Fairness bucket capacity (reads). Refill is always `0.0` here,
    /// so token accounting stays integral and schedule-independent.
    pub burst: f64,
    /// Worker queue admission limit, in chunks.
    pub max_queue: usize,
    /// Reads per worker chunk.
    pub batch_chunk: usize,
    /// Auth topology.
    pub auth: AuthMode,
    /// Add the `sc.prober` task racing a wire `Stats` probe.
    pub with_prober: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            workers: 2,
            clients: 2,
            batches_per_client: 2,
            reads_per_batch: 2,
            deadline_ms: vec![64, 3],
            drain_deadline_ms: 8,
            burst: 16.0,
            max_queue: 8,
            batch_chunk: 2,
            auth: AuthMode::Off,
            with_prober: false,
        }
    }
}

impl ScenarioConfig {
    /// Shared secret in effect for the server, if any.
    fn server_secret(&self) -> Option<String> {
        match self.auth {
            AuthMode::Off => None,
            AuthMode::Shared | AuthMode::OneBadClient => Some("schedcheck".to_string()),
        }
    }

    /// Secret client `idx` signs with, if any.
    fn client_secret(&self, idx: usize) -> Option<String> {
        match self.auth {
            AuthMode::Off => None,
            AuthMode::Shared => Some("schedcheck".to_string()),
            AuthMode::OneBadClient if idx == 0 => Some("not-the-secret".to_string()),
            AuthMode::OneBadClient => Some("schedcheck".to_string()),
        }
    }

    /// Total reads offered across all clients and batches.
    pub fn offered_reads(&self) -> u64 {
        (self.clients * self.batches_per_client * self.reads_per_batch) as u64
    }
}

/// What one client observed for one batch — exactly one per batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Client index (wire id `c{client}`).
    pub client: usize,
    /// Batch index within the client's script.
    pub batch: usize,
    /// Reads in the batch.
    pub n_reads: u64,
    /// The typed classification.
    pub kind: OutcomeKind,
    /// Human detail (mismatch description, io error, ...).
    pub detail: String,
    /// False when the TCP connect itself failed — those reads never
    /// reached the server and no gate counted them.
    pub connected: bool,
}

/// Every way a batch can end, from the client's chair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Byte-correct `Hits` for the right `request_id`.
    Hits,
    /// Typed `Draining` (gate 1 or the force-close frame).
    DrainShed,
    /// Typed `DeadlineExceeded`.
    DeadlineShed,
    /// Typed `Overloaded { scope: Fairness }`.
    FairnessShed,
    /// Typed `Overloaded { scope: Queue }`.
    QueueShed,
    /// Typed `AuthFailed`.
    AuthRejected,
    /// Typed `Error` from the server — unexpected in this scenario and
    /// treated as a violation.
    RemoteError,
    /// Transport failure: connect refused, EOF, read/write error.
    Io,
    /// A protocol violation the client *proved*: mispaired request id,
    /// wrong answer bytes, or an impossible response variant.
    Corrupt,
}

/// Everything one executed schedule produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The interleaving, one record per grant.
    pub trace: Vec<GrantRecord>,
    /// One outcome per (client, batch).
    pub outcomes: Vec<BatchOutcome>,
    /// The drain's own accounting (`None` only on aborted schedules).
    pub report: Option<DrainReport>,
    /// In-process stats snapshot taken after the drain completed.
    pub snap: Option<StatsSnapshot>,
    /// Post-hoc rollup of the run's trace events, `qnet.*` counters.
    pub counters: BTreeMap<String, u64>,
    /// Scheduler-level failure (deadlock/hang/grant-cap), if any.
    pub sched_violation: Option<String>,
    /// Protocol invariants that did not hold (empty on a good run).
    pub violations: Vec<String>,
    /// Reads force-closed at the drain deadline, for coverage stats.
    pub force_closed: u64,
}

/// The deterministic reference contig: bases from the repo's splitmix64
/// mixer, so every run (and every process) builds the same sequence.
pub(crate) fn contig() -> PackedSeq {
    let mut codes = Vec::with_capacity(CONTIG_BASES);
    let mut x: u64 = 0x5eed_cafe_f00d_0001;
    while codes.len() < CONTIG_BASES {
        x = stdx::splitmix64(x);
        // 32 two-bit codes per mixed word.
        let mut w = x;
        for _ in 0..32 {
            if codes.len() == CONTIG_BASES {
                break;
            }
            codes.push((w & 3) as u8);
            w >>= 2;
        }
    }
    PackedSeq::from_codes(&codes)
}

pub(crate) fn build_engine(reference: &PackedSeq) -> QueryEngine {
    let store = ContigStore::from_contigs(vec![reference.clone()]);
    let index = MinimizerIndex::build(
        &store,
        &IndexConfig {
            k: 9,
            w: 5,
            threads: 1,
        },
    );
    QueryEngine::new(store, index, QueryConfig::default()).expect("scenario engine binds")
}

/// Deterministic query script: read `q` is a striding 60-base window of
/// the contig, alternating strands (the `tests/qnet_stats.rs` idiom).
pub(crate) fn query(reference: &PackedSeq, q: usize) -> PackedSeq {
    let start = (q * 37) % (reference.len() - READ_BASES + 1);
    let s = reference.slice(start, READ_BASES);
    if q.is_multiple_of(2) {
        s
    } else {
        s.reverse_complement()
    }
}

/// Write and flush a whole buffer on a shared socket handle.
fn send_all(sock: &TcpStream, buf: &[u8]) -> std::io::Result<()> {
    let mut w = sock;
    w.write_all(buf)?;
    w.flush()
}

/// True when a read on `sock` would not block (data, EOF, or error) —
/// a non-consuming probe, safe as a scheduler re-poll predicate.
fn sock_readable(sock: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    let _ = sock.set_nonblocking(true);
    let r = sock.peek(&mut probe);
    let _ = sock.set_nonblocking(false);
    match r {
        Ok(_) => true,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    }
}

/// Send one query batch on an open connection and classify the reply.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    sock: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    client: usize,
    batch: usize,
    request_id: u64,
    deadline_ms: u32,
    reads: &[PackedSeq],
    expected: &[Option<Hit>],
    secret: Option<&str>,
    nonce: u64,
    seq: u64,
) -> BatchOutcome {
    let n_reads = reads.len() as u64;
    let client_id = format!("c{client}");
    let mk = |kind: OutcomeKind, detail: String| BatchOutcome {
        client,
        batch,
        n_reads,
        kind,
        detail,
        connected: true,
    };
    let (auth_seq, auth_tag) = match secret {
        Some(s) => (
            seq,
            qnet::auth_tag(
                s,
                qnet::AUTH_KIND_QUERY,
                nonce,
                seq,
                request_id,
                deadline_ms,
                &client_id,
                reads,
            ),
        ),
        None => (0, 0),
    };
    let body = Request::Query {
        request_id,
        deadline_ms,
        client_id,
        reads: reads.to_vec(),
        auth_seq,
        auth_tag,
        generation: 0,
    }
    .encode();
    let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
    if gstream::write_frame(&mut frame, &body).is_err() {
        return mk(OutcomeKind::Io, "frame encode".to_string());
    }
    sched::point("sc.client.send");
    if send_all(sock, &frame).is_err() {
        return mk(OutcomeKind::Io, "request write failed".to_string());
    }
    // Park until the response (or EOF, or the force-close) is
    // observable, so "the answer arrived" is an explored step.
    {
        let reader = &*reader;
        sched::wait_until("sc.client.read", &mut || {
            !reader.buffer().is_empty() || sock_readable(reader.get_ref())
        });
    }
    let payload = match gstream::read_frame(reader, "server") {
        Ok(Some(p)) => p,
        Ok(None) => return mk(OutcomeKind::Io, "eof before response".to_string()),
        Err(e) => return mk(OutcomeKind::Io, format!("response read: {e}")),
    };
    let resp = match Response::decode(&payload, "server") {
        Ok(r) => r,
        Err(e) => return mk(OutcomeKind::Corrupt, format!("response decode: {e}")),
    };
    let check_id = |rid: u64| rid == request_id;
    match resp {
        Response::Hits {
            request_id: rid,
            generation: _,
            hits,
        } => {
            if !check_id(rid) {
                mk(
                    OutcomeKind::Corrupt,
                    format!("mispaired Hits: sent id {request_id}, got {rid}"),
                )
            } else if hits != expected {
                mk(
                    OutcomeKind::Corrupt,
                    format!("wrong answer bytes: got {hits:?}, want {expected:?}"),
                )
            } else {
                mk(OutcomeKind::Hits, String::new())
            }
        }
        Response::Draining { request_id: rid } => {
            if check_id(rid) {
                mk(OutcomeKind::DrainShed, String::new())
            } else {
                mk(OutcomeKind::Corrupt, format!("mispaired Draining id {rid}"))
            }
        }
        Response::DeadlineExceeded { request_id: rid } => {
            if check_id(rid) {
                mk(OutcomeKind::DeadlineShed, String::new())
            } else {
                mk(
                    OutcomeKind::Corrupt,
                    format!("mispaired DeadlineExceeded id {rid}"),
                )
            }
        }
        Response::Overloaded {
            request_id: rid,
            scope,
            ..
        } => {
            if !check_id(rid) {
                mk(
                    OutcomeKind::Corrupt,
                    format!("mispaired Overloaded id {rid}"),
                )
            } else {
                match scope {
                    qnet::ShedScope::Fairness => mk(OutcomeKind::FairnessShed, String::new()),
                    qnet::ShedScope::Queue => mk(OutcomeKind::QueueShed, String::new()),
                }
            }
        }
        Response::AuthFailed { request_id: rid } => {
            if check_id(rid) {
                mk(OutcomeKind::AuthRejected, String::new())
            } else {
                mk(
                    OutcomeKind::Corrupt,
                    format!("mispaired AuthFailed id {rid}"),
                )
            }
        }
        Response::Error {
            request_id: rid,
            message,
        } => {
            if check_id(rid) {
                mk(OutcomeKind::RemoteError, message)
            } else {
                mk(OutcomeKind::Corrupt, format!("mispaired Error id {rid}"))
            }
        }
        other => mk(
            OutcomeKind::Corrupt,
            format!("impossible response variant for a query: {other:?}"),
        ),
    }
}

/// One client's full script: connect once, run every batch in order.
#[allow(clippy::too_many_arguments)]
fn client_task(
    idx: usize,
    addr: SocketAddr,
    cfg: ScenarioConfig,
    reference: Arc<PackedSeq>,
    expected: Vec<Vec<Option<Hit>>>,
    outcomes: Arc<Mutex<Vec<BatchOutcome>>>,
) {
    let push = |o: BatchOutcome| {
        outcomes.lock().unwrap_or_else(|e| e.into_inner()).push(o);
    };
    sched::point("sc.client.connect");
    let sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            // The listener is already gone (drain won the race): every
            // batch of this client becomes an unconnected Io outcome.
            for b in 0..cfg.batches_per_client {
                push(BatchOutcome {
                    client: idx,
                    batch: b,
                    n_reads: cfg.reads_per_batch as u64,
                    kind: OutcomeKind::Io,
                    detail: format!("connect: {e}"),
                    connected: false,
                });
            }
            return;
        }
    };
    let _ = sock.set_read_timeout(Some(CLIENT_IO_TIMEOUT));
    let _ = sock.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
    let _ = sock.set_nodelay(true);
    let Ok(read_half) = sock.try_clone() else {
        for b in 0..cfg.batches_per_client {
            push(BatchOutcome {
                client: idx,
                batch: b,
                n_reads: cfg.reads_per_batch as u64,
                kind: OutcomeKind::Io,
                detail: "socket clone failed".to_string(),
                connected: false,
            });
        }
        return;
    };
    let mut reader = BufReader::new(read_half);
    let deadline_ms = cfg.deadline_ms[idx % cfg.deadline_ms.len().max(1)];
    let secret = cfg.client_secret(idx);
    // Authed clients open with the nonce handshake; losing the race
    // with the drain here is an ordinary Io outcome for every batch.
    let mut nonce = 0u64;
    if secret.is_some() {
        match auth_handshake(&sock, &mut reader) {
            Ok(n) => nonce = n,
            Err(detail) => {
                for b in 0..cfg.batches_per_client {
                    push(BatchOutcome {
                        client: idx,
                        batch: b,
                        n_reads: cfg.reads_per_batch as u64,
                        kind: OutcomeKind::Io,
                        detail: detail.clone(),
                        connected: true,
                    });
                }
                return;
            }
        }
    }
    for (b, want) in expected.iter().enumerate() {
        let reads: Vec<PackedSeq> = (0..cfg.reads_per_batch)
            .map(|r| {
                query(
                    &reference,
                    (idx * cfg.batches_per_client + b) * cfg.reads_per_batch + r,
                )
            })
            .collect();
        let request_id = ((idx as u64) + 1) * 1_000 + b as u64;
        push(run_batch(
            &sock,
            &mut reader,
            idx,
            b,
            request_id,
            deadline_ms,
            &reads,
            want,
            secret.as_deref(),
            nonce,
            (b as u64) + 1,
        ));
    }
}

/// Run the `AuthHello` handshake on a fresh connection, returning the
/// dealt nonce. Any transport failure is reported as a string.
fn auth_handshake(sock: &TcpStream, reader: &mut BufReader<TcpStream>) -> Result<u64, String> {
    let body = Request::AuthHello.encode();
    let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
    gstream::write_frame(&mut frame, &body).map_err(|e| format!("handshake encode: {e}"))?;
    sched::point("sc.client.hello");
    send_all(sock, &frame).map_err(|e| format!("handshake write: {e}"))?;
    {
        let reader = &*reader;
        sched::wait_until("sc.client.read", &mut || {
            !reader.buffer().is_empty() || sock_readable(reader.get_ref())
        });
    }
    let payload = match gstream::read_frame(reader, "server") {
        Ok(Some(p)) => p,
        Ok(None) => return Err("eof during handshake".to_string()),
        Err(e) => return Err(format!("handshake read: {e}")),
    };
    match Response::decode(&payload, "server") {
        Ok(Response::AuthNonce { nonce }) => Ok(nonce),
        Ok(other) => Err(format!("handshake answered {other:?}")),
        Err(e) => Err(format!("handshake decode: {e}")),
    }
}

/// Execute one schedule of the scenario under a fresh controller. The
/// `picker` chooses, at every enabled-set decision, which candidate to
/// grant (candidates arrive sorted by task id); the chosen interleaving
/// is returned as `trace` and the protocol invariants are checked on
/// the completed run. Process-exclusive: serialized via
/// [`crate::sched_lock`] internally.
pub fn run_schedule(
    cfg: &ScenarioConfig,
    picker: &mut dyn FnMut(&[Candidate], &[GrantRecord]) -> usize,
) -> RunResult {
    let _exclusive = sched_lock();
    let reference = Arc::new(contig());

    // Reference answers, computed on a *separate* engine before any
    // scheduling begins: the oracle for byte-correctness is independent
    // of the system under test's threading entirely.
    let oracle = build_engine(&reference);
    let expected: Vec<Vec<Vec<Option<Hit>>>> = (0..cfg.clients)
        .map(|c| {
            (0..cfg.batches_per_client)
                .map(|b| {
                    (0..cfg.reads_per_batch)
                        .map(|r| {
                            oracle.query(&query(
                                &reference,
                                (c * cfg.batches_per_client + b) * cfg.reads_per_batch + r,
                            ))
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    let ctl = sched::Controller::install();
    let rec = obs::Recorder::new();

    // The system under test. Worker and accept tasks announce
    // themselves inside these constructors, in deterministic order:
    // workers 0..n, then the accept loop, then our scripted tasks.
    let service = QueryService::start(
        build_engine(&reference),
        ServiceConfig {
            workers: cfg.workers,
            batch_chunk: cfg.batch_chunk,
            max_queue: cfg.max_queue,
        },
        &rec,
    );
    let server = Server::start(
        service,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: CLIENT_IO_TIMEOUT,
            write_timeout: CLIENT_IO_TIMEOUT,
            drain_deadline: Duration::from_millis(cfg.drain_deadline_ms),
            admission: AdmissionConfig {
                refill_per_s: 0.0,
                burst: cfg.burst,
            },
            stall_ms: 0,
            auth_secret: cfg.server_secret(),
            reload: None,
        },
        &rec,
        faultsim::Faults::disabled(),
    )
    .expect("bind scenario server");
    let addr = server.local_addr();

    let outcomes: Arc<Mutex<Vec<BatchOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    let mut joins: Vec<std::thread::JoinHandle<()>> = Vec::new();

    for (idx, expected_c) in expected.into_iter().enumerate() {
        let token = sched::announce(&format!("sc.client{idx}"));
        let cfg_c = cfg.clone();
        let reference_c = Arc::clone(&reference);
        let outcomes_c = Arc::clone(&outcomes);
        joins.push(std::thread::spawn(move || {
            let _task = sched::begin(token);
            client_task(idx, addr, cfg_c, reference_c, expected_c, outcomes_c);
        }));
    }

    let prober_issues: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    if cfg.with_prober {
        let token = sched::announce("sc.prober");
        let issues = Arc::clone(&prober_issues);
        joins.push(std::thread::spawn(move || {
            let _task = sched::begin(token);
            prober_task(addr, &issues);
        }));
    }

    // The drainer owns the server: its `sc.drain.go` grant *is* the
    // shutdown moment the strategy explores.
    let stash: Arc<Mutex<Option<(DrainReport, StatsSnapshot)>>> = Arc::new(Mutex::new(None));
    {
        let token = sched::announce("sc.drainer");
        let stash = Arc::clone(&stash);
        let mut server = server;
        joins.push(std::thread::spawn(move || {
            let _task = sched::begin(token);
            sched::point("sc.drain.go");
            let report = server.shutdown();
            let snap = server.stats_snapshot();
            *stash.lock().unwrap_or_else(|e| e.into_inner()) = Some((report, snap));
            drop(server);
        }));
    }

    // Drive the schedule.
    let mut trace: Vec<GrantRecord> = Vec::new();
    let mut sched_violation: Option<String> = None;
    loop {
        if trace.len() >= MAX_GRANTS {
            sched_violation = Some(format!("schedule exceeded {MAX_GRANTS} grants"));
            break;
        }
        match ctl.step() {
            Err(v) => {
                sched_violation = Some(v.to_string());
                break;
            }
            Ok(StepState::AllExited) => break,
            Ok(StepState::Enabled(mut cands)) => {
                cands.sort_by_key(|c| c.task);
                let pick = picker(&cands, &trace).min(cands.len() - 1);
                let c = &cands[pick];
                rec.sched(trace.len() as u64, c.task as u64, &c.task_name, &c.point);
                trace.push(GrantRecord {
                    step: trace.len() as u64,
                    task: c.task as u64,
                    task_name: c.task_name.clone(),
                    point: c.point.clone(),
                    clock_ms: ctl.clock_ms(),
                });
                ctl.grant(c.task);
            }
        }
    }

    // Uninstall *before* joining: on an aborted schedule the tasks
    // free-run to completion; on a clean one everything has exited.
    drop(ctl);
    let mut panicked = Vec::new();
    for (i, j) in joins.into_iter().enumerate() {
        if j.join().is_err() {
            panicked.push(format!("scripted task #{i} panicked"));
        }
    }
    rec.flush();

    let totals = obs::Rollup::from_events(&rec.events()).totals();
    let counters: BTreeMap<String, u64> = [
        "qnet.accepted",
        "qnet.rejected",
        "qnet.deadline_shed",
        "qnet.fairness_shed",
        "qnet.auth_failed",
        "qnet.drain.force_closed",
    ]
    .into_iter()
    .map(|name| (name.to_string(), totals.counter(name)))
    .collect();

    let outcomes = Arc::try_unwrap(outcomes)
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .unwrap_or_default();
    let (report, snap) = match Arc::try_unwrap(stash) {
        Ok(m) => match m.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some((r, s)) => (Some(r), Some(s)),
            None => (None, None),
        },
        Err(_) => (None, None),
    };
    let force_closed = report.map(|r| r.force_closed).unwrap_or(0);

    let mut violations = panicked;
    violations.extend(
        prober_issues
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..),
    );
    if let Some(v) = &sched_violation {
        violations.push(format!("scheduler: {v}"));
    } else {
        // Invariants only make sense on schedules that ran to
        // completion; an aborted run is already a violation.
        match (&report, &snap) {
            (Some(report), Some(snap)) => {
                violations.extend(invariants::check(cfg, &outcomes, report, snap, &counters));
            }
            _ => violations.push("drainer never produced a report/snapshot".to_string()),
        }
    }

    RunResult {
        trace,
        outcomes,
        report,
        snap,
        counters,
        sched_violation,
        violations,
        force_closed,
    }
}

/// One wire `Stats` probe at a schedule-chosen moment. Losing the race
/// with the drain (refused connect, EOF) is fine; a malformed or
/// wrongly-versioned snapshot is a violation.
fn prober_task(addr: SocketAddr, issues: &Mutex<Vec<String>>) {
    sched::point("sc.probe.go");
    let Ok(sock) = TcpStream::connect(addr) else {
        return;
    };
    let _ = sock.set_read_timeout(Some(CLIENT_IO_TIMEOUT));
    let _ = sock.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
    let body = Request::Stats.encode();
    let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
    if gstream::write_frame(&mut frame, &body).is_err() {
        return;
    }
    if send_all(&sock, &frame).is_err() {
        return;
    }
    let Ok(read_half) = sock.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    {
        let reader = &reader;
        sched::wait_until("sc.probe.read", &mut || {
            !reader.buffer().is_empty() || sock_readable(reader.get_ref())
        });
    }
    let payload = match gstream::read_frame(&mut reader, "server") {
        Ok(Some(p)) => p,
        _ => return, // EOF / error: the drain won the race
    };
    let push = |s: String| issues.lock().unwrap_or_else(|e| e.into_inner()).push(s);
    match Response::decode(&payload, "server") {
        Ok(Response::Stats(snap)) => {
            if snap.version != qnet::STATS_VERSION {
                push(format!(
                    "prober: stats version {} != {}",
                    snap.version,
                    qnet::STATS_VERSION
                ));
            }
        }
        Ok(other) => push(format!("prober: non-Stats reply {other:?}")),
        Err(e) => push(format!("prober: corrupt stats reply: {e}")),
    }
}

/// Replay a recorded trace: at each step grant the candidate whose
/// `task_name@point` matches the recording. Returns the re-executed run
/// and the first step at which the live enabled set no longer contained
/// the recorded choice (`None` when the replay followed the recording
/// to the end — byte-for-byte the same interleaving, which callers
/// assert via [`crate::trace_hash`]).
pub fn replay_trace(cfg: &ScenarioConfig, recorded: &[GrantRecord]) -> (RunResult, Option<u64>) {
    let mut diverged_at: Option<u64> = None;
    let result = run_schedule(cfg, &mut |cands, trace| {
        let step = trace.len();
        if diverged_at.is_none() {
            if let Some(want) = recorded.get(step) {
                if let Some(i) = cands
                    .iter()
                    .position(|c| c.task_name == want.task_name && c.point == want.point)
                {
                    return i;
                }
                diverged_at = Some(step as u64);
            }
        }
        0
    });
    (result, diverged_at)
}
