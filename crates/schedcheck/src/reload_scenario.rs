//! The model-checked zero-downtime reload scenario: the real
//! [`qnet::Server`] serving generation 1 from an on-disk work dir while
//! a scripted reloader fires the wire `Reload` verb at a
//! schedule-chosen moment, swapping to generation 2 *under live
//! queries*.
//!
//! ## Topology
//!
//! * **work dir** — a real generation store built before scheduling
//!   begins: `gen-000001` (one contig) and `gen-000002` (the same
//!   contig plus a second one), both listed in `generations.json`.
//! * **server** — the real accept loop with
//!   [`qnet::ReloadConfig`] pointing at the work dir, started on
//!   generation 1.
//! * **clients** — `sr.client{i}` tasks, each an unpinned
//!   [`qnet::QueryClient`] (`max_retries: 0`), so which generation
//!   answers each batch is decided purely by where the reload lands in
//!   the schedule.
//! * **reloader** — `sr.reloader` calls [`qnet::QueryClient::reload`]
//!   targeting generation 2; where its `qnet.client.connect` and
//!   `qnet.client.send` grants land *is* the swap moment the strategy
//!   explores, racing every client batch.
//! * **drainer** — `sr.drainer` waits until every scripted outcome is
//!   recorded, then drains and snapshots — so the drain itself can
//!   never shed a batch and every shed would be the reload's fault.
//!
//! ## Invariants (the zero-downtime contract)
//!
//! * Every batch is answered with `Hits` — a reload never sheds,
//!   refuses, or drops a query, and never kills a connection.
//! * Every answer byte-matches **exactly one** generation's oracle
//!   (computed on independent engines before scheduling), and the
//!   `generation` tag on the wire names that oracle. The two oracles
//!   are guaranteed to disagree on every batch — each batch carries a
//!   read only generation 2 can place — so a blended or mistagged
//!   answer cannot hide.
//! * Per client, the answering generation is monotone: once a client
//!   sees generation 2, no later batch regresses to 1 (unpinned
//!   batches bind to the active generation at admission, and the swap
//!   is atomic).
//! * The reload itself completes (`ReloadDone`, generation 2, zero
//!   rollbacks), and after the drain nothing is left in flight —
//!   the old generation finished its admitted work before the server
//!   tore down (`inflight == 0`, `queue_depth == 0`).

use crate::harness::{self, Harness};
use crate::trace::GrantRecord;
use faultsim::sched::{self, Candidate};
use genome::PackedSeq;
use gstream::IoStats;
use qnet::{DrainReport, QnetError, ReloadConfig, Server, ServerConfig, StatsSnapshot};
use qserve::{
    generations, AdmissionConfig, Hit, QueryConfig, QueryEngine, QueryService, ServiceConfig,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deadline budget far above any explored schedule's virtual clock
/// (1 ms per grant, capped by the harness): the deadline gate must
/// never fire here, so any shed is the reload's fault by construction.
const DEADLINE_MS: u32 = 600_000;

/// Scenario shape. The default is two clients racing a mid-script swap.
#[derive(Debug, Clone)]
pub struct ReloadScenarioConfig {
    /// Worker threads in the query service.
    pub workers: usize,
    /// Concurrent clients (`sr.client{i}`, wire id `c{i}`).
    pub clients: usize,
    /// Query batches each client sends, sequentially on one connection.
    pub batches_per_client: usize,
    /// Reads per batch. Read 0 of every batch is a window of the
    /// generation-2-only contig, which forces the two oracles apart.
    pub reads_per_batch: usize,
    /// Worker queue admission limit, in chunks. Sized so queue sheds
    /// are impossible — any shed that appears is a violation.
    pub max_queue: usize,
    /// Reads per worker chunk.
    pub batch_chunk: usize,
}

impl Default for ReloadScenarioConfig {
    fn default() -> Self {
        ReloadScenarioConfig {
            workers: 2,
            clients: 2,
            batches_per_client: 2,
            reads_per_batch: 2,
            max_queue: 64,
            batch_chunk: 2,
        }
    }
}

impl ReloadScenarioConfig {
    /// Total reads offered across all clients and batches.
    pub fn offered_reads(&self) -> u64 {
        (self.clients * self.batches_per_client * self.reads_per_batch) as u64
    }
}

/// How one client batch ended, from the client's chair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadOutcomeKind {
    /// Byte-correct `Hits` matching exactly one generation's oracle.
    Hits,
    /// Any typed refusal (`Draining`, `Overloaded`, `DeadlineExceeded`,
    /// remote `Error`) — always a violation here.
    Shed,
    /// Transport failure — always a violation here (the listener lives
    /// until every outcome is recorded).
    Io,
    /// A protocol violation the client proved: mispaired id, blended or
    /// mistagged answer bytes, impossible variant.
    Corrupt,
}

/// What one client observed for one batch — exactly one per batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadBatchOutcome {
    /// Client index (wire id `c{client}`).
    pub client: usize,
    /// Batch index within the client's script.
    pub batch: usize,
    /// The typed classification.
    pub kind: ReloadOutcomeKind,
    /// The generation tag the answer carried (`0` when not `Hits`).
    pub generation: u64,
    /// Human detail (mismatch description, io error, ...).
    pub detail: String,
}

/// How the scripted `Reload` call itself ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadCallOutcome {
    /// `ReloadDone` echoing the right id; carries the new active id.
    Done {
        /// The generation now serving unpinned queries.
        generation: u64,
    },
    /// `ReloadFailed` — the server rolled back. A violation in this
    /// fault-free scenario, but recorded faithfully.
    Failed {
        /// The generation the reload targeted.
        generation: u64,
        /// The server's failure display.
        message: String,
    },
    /// The reloader could not complete the wire exchange.
    Transport(String),
}

/// Everything one executed schedule produced.
#[derive(Debug, Clone)]
pub struct ReloadRunResult {
    /// The interleaving, one record per grant.
    pub trace: Vec<GrantRecord>,
    /// One outcome per (client, batch).
    pub outcomes: Vec<ReloadBatchOutcome>,
    /// The scripted reload call's outcome (`None` only on aborted
    /// schedules where the reloader never finished).
    pub reload: Option<ReloadCallOutcome>,
    /// The drain's own accounting.
    pub report: Option<DrainReport>,
    /// In-process stats snapshot taken after the drain completed.
    pub snap: Option<StatsSnapshot>,
    /// Post-hoc rollup of reload/admission counters.
    pub counters: BTreeMap<String, u64>,
    /// Scheduler-level failure (deadlock/hang/grant-cap), if any.
    pub sched_violation: Option<String>,
    /// Invariants that did not hold (empty on a good run).
    pub violations: Vec<String>,
}

/// The read scripts, one per (client, batch): read 0 strides the
/// generation-2-only contig, the rest stride the shared base contig.
fn batch_reads(
    cfg: &ReloadScenarioConfig,
    base: &PackedSeq,
    extra: &PackedSeq,
    client: usize,
    batch: usize,
) -> Vec<PackedSeq> {
    (0..cfg.reads_per_batch)
        .map(|r| {
            let g = (client * cfg.batches_per_client + batch) * cfg.reads_per_batch + r;
            harness::query(if r == 0 { extra } else { base }, g)
        })
        .collect()
}

/// The oracle's answers to one batch, under the first generation and
/// under the second.
type BatchAnswers = (Vec<Option<Hit>>, Vec<Option<Hit>>);

/// One client's full script: every batch in order on one connection,
/// each answer classified against both generations' oracles.
fn client_script(
    idx: usize,
    addr: SocketAddr,
    reads: &[Vec<PackedSeq>],
    expected: &[BatchAnswers],
) -> Vec<ReloadBatchOutcome> {
    let mut client = harness::client(addr, format!("c{idx}"), DEADLINE_MS);
    reads
        .iter()
        .zip(expected)
        .enumerate()
        .map(|(batch, (reads, (gen1, gen2)))| {
            let (kind, generation, detail) = match client.query_batch_tagged(reads) {
                Ok((generation, hits)) => {
                    let (matches1, matches2) = (hits == *gen1, hits == *gen2);
                    match generation {
                        1 if matches1 && !matches2 => (ReloadOutcomeKind::Hits, 1, String::new()),
                        2 if matches2 && !matches1 => (ReloadOutcomeKind::Hits, 2, String::new()),
                        g => (
                            ReloadOutcomeKind::Corrupt,
                            g,
                            format!(
                                "answer tagged generation {g} matches oracle 1: {matches1}, \
                                 oracle 2: {matches2} — not exactly the tagged one"
                            ),
                        ),
                    }
                }
                Err(e) => {
                    let kind = match e.last_attempt() {
                        QnetError::Io(_) => ReloadOutcomeKind::Io,
                        QnetError::Corrupt { .. } => ReloadOutcomeKind::Corrupt,
                        _ => ReloadOutcomeKind::Shed,
                    };
                    (kind, 0, e.to_string())
                }
            };
            ReloadBatchOutcome {
                client: idx,
                batch,
                kind,
                generation,
                detail,
            }
        })
        .collect()
}

/// The scripted reload: one wire `Reload` targeting `target`.
fn reloader_script(addr: SocketAddr, target: u64) -> ReloadCallOutcome {
    match harness::client(addr, "reloader".to_string(), DEADLINE_MS).reload(target) {
        Ok(generation) => ReloadCallOutcome::Done { generation },
        Err(QnetError::ReloadFailed {
            generation,
            message,
        }) => ReloadCallOutcome::Failed {
            generation,
            message,
        },
        Err(e) => ReloadCallOutcome::Transport(e.to_string()),
    }
}

/// The zero-downtime invariants, checked on completed schedules.
fn check(
    cfg: &ReloadScenarioConfig,
    outcomes: &[ReloadBatchOutcome],
    reload: &Option<ReloadCallOutcome>,
    snap: &StatsSnapshot,
    counters: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut v = Vec::new();
    let total = cfg.clients * cfg.batches_per_client;
    if outcomes.len() != total {
        v.push(format!(
            "{} batch outcomes recorded for {total} batches offered",
            outcomes.len()
        ));
    }
    for o in outcomes {
        if o.kind != ReloadOutcomeKind::Hits {
            v.push(format!(
                "client {} batch {}: {:?} ({}) — a reload must never shed, refuse, \
                 or corrupt a query",
                o.client, o.batch, o.kind, o.detail
            ));
        }
    }
    // Per-client monotone generations: unpinned batches bind to the
    // active generation at admission, batches are sequential on one
    // connection, and the swap is atomic — so a regression 2 → 1 means
    // an answer escaped a retired binding.
    for c in 0..cfg.clients {
        let mut last = 0u64;
        let mut by_batch: Vec<&ReloadBatchOutcome> =
            outcomes.iter().filter(|o| o.client == c).collect();
        by_batch.sort_by_key(|o| o.batch);
        for o in by_batch {
            if o.kind == ReloadOutcomeKind::Hits {
                if o.generation < last {
                    v.push(format!(
                        "client {c} batch {}: generation regressed {last} -> {}",
                        o.batch, o.generation
                    ));
                }
                last = o.generation;
            }
        }
    }
    match reload {
        Some(ReloadCallOutcome::Done { generation: 2 }) => {}
        other => v.push(format!(
            "reload did not complete to generation 2 in a fault-free run: {other:?}"
        )),
    }
    if snap.generation != 2 {
        v.push(format!(
            "post-drain active generation is {} (want 2)",
            snap.generation
        ));
    }
    if snap.reloads != 1 || snap.rollbacks != 0 {
        v.push(format!(
            "reload tallies: {} reloads, {} rollbacks (want 1, 0)",
            snap.reloads, snap.rollbacks
        ));
    }
    if snap.inflight != 0 || snap.queue_depth != 0 {
        v.push(format!(
            "work left behind after drain: inflight {} queue {} — the old generation \
             must finish its admitted chunks before teardown",
            snap.inflight, snap.queue_depth
        ));
    }
    let offered = cfg.offered_reads();
    if snap.accepted != offered {
        v.push(format!(
            "accepted {} of {offered} offered reads — something was shed",
            snap.accepted
        ));
    }
    let sheds = snap.rejected + snap.deadline_shed + snap.fairness_shed + snap.force_closed;
    if sheds != 0 {
        v.push(format!("{sheds} reads shed in a run that must shed zero"));
    }
    for (name, want) in [
        ("qnet.reload.requested", 1),
        ("qnet.reload.ok", 1),
        ("qnet.reload.failed", 0),
    ] {
        let got = counters.get(name).copied().unwrap_or(0);
        if got != want {
            v.push(format!("counter {name} = {got} (want {want})"));
        }
    }
    v
}

/// Execute one schedule of the reload scenario under a fresh
/// controller; the `picker` chooses every grant. Process-exclusive:
/// serialized via [`crate::sched_lock`] internally.
pub fn run_reload_schedule(
    cfg: &ReloadScenarioConfig,
    picker: &mut dyn FnMut(&[Candidate], &[GrantRecord]) -> usize,
) -> ReloadRunResult {
    let base = harness::contig(1);
    let extra = harness::contig(2);
    let gen2 = [base.clone(), extra.clone()];

    // The on-disk generations the server will reload from, written
    // before any scheduling begins: the base contig, then a second
    // generation that adds one.
    let dir = stdx::tempdir().expect("reload scenario work dir");
    let io = IoStats::new(gstream::DiskModel::ssd());
    for contigs in [&gen2[..1], &gen2[..]] {
        generations::export(dir.path(), contigs, &harness::INDEX, &io)
            .expect("export scenario generation");
    }

    // Per-generation oracles on independent engines: byte-correctness
    // is judged against answers computed outside the system under test.
    let oracle1 = harness::build_engine(&gen2[..1]);
    let oracle2 = harness::build_engine(&gen2);
    let reads: Vec<Vec<Vec<PackedSeq>>> = (0..cfg.clients)
        .map(|c| {
            (0..cfg.batches_per_client)
                .map(|b| batch_reads(cfg, &base, &extra, c, b))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<BatchAnswers>> = reads
        .iter()
        .map(|batches| {
            batches
                .iter()
                .map(|batch| {
                    (
                        batch.iter().map(|r| oracle1.query(r)).collect(),
                        batch.iter().map(|r| oracle2.query(r)).collect(),
                    )
                })
                .collect()
        })
        .collect();
    for (c, batches) in expected.iter().enumerate() {
        for (b, (e1, e2)) in batches.iter().enumerate() {
            assert_ne!(
                e1, e2,
                "scenario setup: client {c} batch {b} must tell the generations apart"
            );
        }
    }

    let h = Harness::install();

    // The system under test, started on generation 1 with the reload
    // path armed at the work dir.
    let engine1 = QueryEngine::open(
        &dir.path().join(generations::gen_store_file(1)),
        &dir.path().join(generations::gen_index_file(1)),
        &io,
        QueryConfig::default(),
    )
    .expect("generation 1 opens and binds");
    let service = QueryService::start_with_generation(
        engine1,
        1,
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
            drain_deadline: Duration::from_millis(1_000),
            admission: AdmissionConfig {
                refill_per_s: 0.0,
                burst: 1e9,
            },
            reload: Some(ReloadConfig {
                work_dir: dir.path().to_path_buf(),
                shard: None,
            }),
            ..harness::server_config()
        },
        &h.rec,
        faultsim::Faults::disabled(),
    )
    .expect("bind reload scenario server");
    let addr = server.local_addr();

    // Scripts that have run to their end; the drainer waits for all.
    let finished = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = reads
        .into_iter()
        .zip(expected)
        .enumerate()
        .map(|(idx, (reads_c, expected_c))| {
            let finished = Arc::clone(&finished);
            h.spawn(&format!("sr.client{idx}"), move || {
                let outcomes = client_script(idx, addr, &reads_c, &expected_c);
                finished.fetch_add(1, Ordering::SeqCst);
                outcomes
            })
        })
        .collect();
    let reloader = {
        let finished = Arc::clone(&finished);
        h.spawn("sr.reloader", move || {
            let outcome = reloader_script(addr, 2);
            finished.fetch_add(1, Ordering::SeqCst);
            outcome
        })
    };
    // The drainer tears down only after every scripted outcome is
    // recorded, so the drain can never be the reason a batch shed.
    let scripts = cfg.clients + 1;
    let drainer = h.spawn("sr.drainer", move || {
        sched::wait_until("sr.drain.wait", &mut || {
            finished.load(Ordering::SeqCst) == scripts
        });
        let report = server.shutdown();
        (report, server.stats_snapshot())
    });

    let mut run = h.drive(picker);
    let outcomes: Vec<ReloadBatchOutcome> = clients
        .into_iter()
        .flat_map(|t| run.join(t).unwrap_or_default())
        .collect();
    let reload = run.join(reloader);
    let (report, snap) = run.join(drainer).unzip();
    let counters = run.counters(&[
        "qnet.accepted",
        "qnet.rejected",
        "qnet.deadline_shed",
        "qnet.fairness_shed",
        "qnet.reload.requested",
        "qnet.reload.ok",
        "qnet.reload.failed",
        "qnet.reload.stalled",
        "qserve.gen.reloads",
        "qserve.gen.rollbacks",
    ]);
    let violations = run.violations(|| match &snap {
        Some(snap) => check(cfg, &outcomes, &reload, snap, &counters),
        None => vec!["drainer never produced a report/snapshot".to_string()],
    });

    ReloadRunResult {
        trace: run.trace,
        outcomes,
        reload,
        report,
        snap,
        counters,
        sched_violation: run.sched_violation,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_schedule_swaps_with_zero_shed() {
        let cfg = ReloadScenarioConfig::default();
        let run = run_reload_schedule(&cfg, &mut |_, _| 0);
        assert!(
            run.violations.is_empty(),
            "baseline violations: {:?}\ntrace tail: {:?}",
            run.violations,
            run.trace.iter().rev().take(12).collect::<Vec<_>>()
        );
        assert_eq!(run.reload, Some(ReloadCallOutcome::Done { generation: 2 }));
        assert!(run
            .outcomes
            .iter()
            .all(|o| o.kind == ReloadOutcomeKind::Hits));
    }

    #[test]
    fn rotated_schedules_hold_the_invariants() {
        // Deterministic non-trivial interleavings: stride the enabled
        // set so the reload lands at different points of the client
        // scripts across runs, without the cost of a full DFS here.
        for stride in [1usize, 3, 7] {
            let cfg = ReloadScenarioConfig::default();
            let run = run_reload_schedule(&cfg, &mut |cands, trace| {
                (trace.len() * stride) % cands.len()
            });
            assert!(
                run.violations.is_empty(),
                "stride {stride} violations: {:?}",
                run.violations
            );
            assert_eq!(
                run.reload,
                Some(ReloadCallOutcome::Done { generation: 2 }),
                "stride {stride}"
            );
        }
    }

    #[test]
    fn single_client_single_batch_schedule_is_clean() {
        let cfg = ReloadScenarioConfig {
            clients: 1,
            batches_per_client: 1,
            ..ReloadScenarioConfig::default()
        };
        let run = run_reload_schedule(&cfg, &mut |cands, trace| (trace.len() * 5) % cands.len());
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.outcomes.len(), 1);
    }
}
