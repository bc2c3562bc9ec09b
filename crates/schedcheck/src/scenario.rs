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
//! * **clients** — `sc.client{i}` tasks, each a real
//!   [`qnet::QueryClient`] with `max_retries: 0`: one wire attempt per
//!   batch, whose typed error ([`qnet::QnetError::last_attempt`]) maps
//!   to exactly one [`OutcomeKind`]. The client's own schedule points
//!   (`qnet.client.connect`, `.send`, `.read`) make the dial, the auth
//!   handshake and every send separate explored steps.
//! * **drainer** — `sc.drainer` owns the [`Server`]; when the
//!   scheduler grants its `sc.drain.go` point it runs the full
//!   graceful drain, snapshots the stats, and tears everything down.
//!   *When* that grant lands relative to client progress is the main
//!   axis of exploration: before the first connect, mid-batch (the
//!   force-close path), or after everything finished.
//! * **prober** (optional) — `sc.prober` fires one wire `Stats`
//!   request ([`qnet::QueryClient::stats`]) at a schedule-chosen
//!   moment, racing the drain.
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

use crate::harness::{self, Harness};
use crate::invariants;
use crate::trace::GrantRecord;
use faultsim::sched::{self, Candidate};
use genome::PackedSeq;
use qnet::{DrainReport, QnetError, Server, ServerConfig, ShedScope, StatsSnapshot};
use qserve::{AdmissionConfig, Hit, QueryService, ServiceConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

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

impl OutcomeKind {
    /// The outcome a failed single-attempt query maps to.
    fn of(err: &QnetError) -> OutcomeKind {
        match err.last_attempt() {
            QnetError::Draining => OutcomeKind::DrainShed,
            QnetError::DeadlineExceeded { .. } => OutcomeKind::DeadlineShed,
            QnetError::Overloaded {
                scope: ShedScope::Fairness,
                ..
            } => OutcomeKind::FairnessShed,
            QnetError::Overloaded {
                scope: ShedScope::Queue,
                ..
            } => OutcomeKind::QueueShed,
            QnetError::AuthFailed => OutcomeKind::AuthRejected,
            QnetError::Remote(_) => OutcomeKind::RemoteError,
            QnetError::Io(_) => OutcomeKind::Io,
            QnetError::Corrupt { .. }
            | QnetError::ReloadFailed { .. }
            | QnetError::RetriesExhausted { .. } => OutcomeKind::Corrupt,
        }
    }
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

/// The read script of one (client, batch).
fn batch_reads(
    cfg: &ScenarioConfig,
    reference: &PackedSeq,
    client: usize,
    batch: usize,
) -> Vec<PackedSeq> {
    (0..cfg.reads_per_batch)
        .map(|r| {
            harness::query(
                reference,
                (client * cfg.batches_per_client + batch) * cfg.reads_per_batch + r,
            )
        })
        .collect()
}

/// One client's full script: every batch in order through one
/// [`qnet::QueryClient`], which dials (and handshakes) on the first and
/// keeps its connection across typed outcomes. A batch sent after the
/// drain cut that connection fails at the socket — `Io`, its reads
/// never reaching a gate — and so does the re-dial after it: the
/// listener is gone before any connection is cut.
fn client_script(
    idx: usize,
    addr: SocketAddr,
    cfg: &ScenarioConfig,
    reference: &PackedSeq,
    expected: &[Vec<Option<Hit>>],
) -> Vec<BatchOutcome> {
    let deadline_ms = cfg.deadline_ms[idx % cfg.deadline_ms.len().max(1)];
    let mut client = harness::client(addr, format!("c{idx}"), deadline_ms, cfg.client_secret(idx));
    expected
        .iter()
        .enumerate()
        .map(|(batch, want)| {
            let (kind, detail) = match client.query_batch(&batch_reads(cfg, reference, idx, batch))
            {
                Ok(hits) if hits == *want => (OutcomeKind::Hits, String::new()),
                Ok(hits) => (
                    OutcomeKind::Corrupt,
                    format!("wrong answer bytes: got {hits:?}, want {want:?}"),
                ),
                Err(e) => (OutcomeKind::of(&e), e.to_string()),
            };
            BatchOutcome {
                client: idx,
                batch,
                n_reads: cfg.reads_per_batch as u64,
                kind,
                detail,
            }
        })
        .collect()
}

/// One wire `Stats` probe at a schedule-chosen moment (the client's
/// `qnet.client.connect` grant). Losing the race with the drain
/// (refused connect, EOF) is fine; a malformed snapshot is a violation.
fn prober_script(addr: SocketAddr) -> Vec<String> {
    match harness::client(addr, "prober".to_string(), 0, None).stats() {
        Ok(_) | Err(QnetError::Io(_)) => Vec::new(),
        Err(e) => vec![format!("prober: {e}")],
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
    let reference = harness::contig(1);

    // Reference answers, computed on a *separate* engine before any
    // scheduling begins: the oracle for byte-correctness is independent
    // of the system under test's threading entirely.
    let oracle = harness::build_engine(std::slice::from_ref(&reference));
    let expected: Vec<Vec<Vec<Option<Hit>>>> = (0..cfg.clients)
        .map(|c| {
            (0..cfg.batches_per_client)
                .map(|b| {
                    batch_reads(cfg, &reference, c, b)
                        .iter()
                        .map(|r| oracle.query(r))
                        .collect()
                })
                .collect()
        })
        .collect();

    let h = Harness::install();

    // The system under test. Worker and accept tasks announce
    // themselves inside these constructors, in deterministic order:
    // workers 0..n, then the accept loop, then our scripted tasks.
    let service = QueryService::start(
        harness::build_engine(std::slice::from_ref(&reference)),
        ServiceConfig {
            workers: cfg.workers,
            batch_chunk: cfg.batch_chunk,
            max_queue: cfg.max_queue,
        },
        &h.rec,
    );
    let mut server = Server::start(
        service,
        ServerConfig {
            drain_deadline: Duration::from_millis(cfg.drain_deadline_ms),
            admission: AdmissionConfig {
                refill_per_s: 0.0,
                burst: cfg.burst,
            },
            auth_secret: cfg.server_secret(),
            ..harness::server_config()
        },
        &h.rec,
        faultsim::Faults::disabled(),
    )
    .expect("bind scenario server");
    let addr = server.local_addr();

    let clients: Vec<_> = expected
        .into_iter()
        .enumerate()
        .map(|(idx, expected_c)| {
            let cfg = cfg.clone();
            let reference = reference.clone();
            h.spawn(&format!("sc.client{idx}"), move || {
                client_script(idx, addr, &cfg, &reference, &expected_c)
            })
        })
        .collect();
    let prober = cfg
        .with_prober
        .then(|| h.spawn("sc.prober", move || prober_script(addr)));
    // The drainer owns the server: its `sc.drain.go` grant *is* the
    // shutdown moment the strategy explores.
    let drainer = h.spawn("sc.drainer", move || {
        sched::point("sc.drain.go");
        let report = server.shutdown();
        (report, server.stats_snapshot())
    });

    let mut run = h.drive(picker);
    let outcomes: Vec<BatchOutcome> = clients
        .into_iter()
        .flat_map(|t| run.join(t).unwrap_or_default())
        .collect();
    let prober_issues = prober.and_then(|t| run.join(t)).unwrap_or_default();
    let (report, snap) = run.join(drainer).unzip();
    let counters = run.counters(&[
        "qnet.accepted",
        "qnet.rejected",
        "qnet.deadline_shed",
        "qnet.fairness_shed",
        "qnet.auth_failed",
        "qnet.drain.force_closed",
    ]);

    let violations = run.violations(|| {
        let mut v = prober_issues;
        match (&report, &snap) {
            (Some(report), Some(snap)) => {
                v.extend(invariants::check(cfg, &outcomes, report, snap, &counters));
            }
            _ => v.push("drainer never produced a report/snapshot".to_string()),
        }
        v
    });

    RunResult {
        trace: run.trace,
        outcomes,
        report,
        snap,
        counters,
        sched_violation: run.sched_violation,
        violations,
        force_closed: report.map(|r| r.force_closed).unwrap_or(0),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// With the drain granted last, every batch of the forging client is
    /// answered — through the real client's handshake and tag — with a
    /// typed `AuthFailed`, and the honest client is served.
    #[test]
    fn forging_client_is_rejected_on_every_batch_and_pays_nothing() {
        let cfg = ScenarioConfig {
            auth: AuthMode::OneBadClient,
            deadline_ms: vec![600_000],
            ..ScenarioConfig::default()
        };
        let run = run_schedule(&cfg, &mut |cands, _trace| {
            cands
                .iter()
                .position(|c| c.point != "sc.drain.go")
                .unwrap_or(0)
        });
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        for o in &run.outcomes {
            let want = if o.client == 0 {
                OutcomeKind::AuthRejected
            } else {
                OutcomeKind::Hits
            };
            assert_eq!(
                o.kind, want,
                "client {} batch {}: {}",
                o.client, o.batch, o.detail
            );
        }
        assert_eq!(run.counters["qnet.auth_failed"], 4, "2 batches x 2 reads");
    }
}
