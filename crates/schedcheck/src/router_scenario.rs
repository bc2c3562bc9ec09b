//! The model-checked *cluster* scenario: a real [`qrouter::Router`]
//! scatter-gathering over two real single-replica shard servers, all
//! driven by the [`faultsim::sched`] controller.
//!
//! ## Topology
//!
//! * **shard servers** — two full `qnet::Server` + `qserve` stacks,
//!   each holding one slice of the minimizer postings
//!   ([`qserve::MinimizerIndex::build_shard`]) over the same
//!   deterministic contig.
//! * **router** — `rt.router` runs the real [`qrouter::Router::route`]
//!   for a fixed script of batches; every scatter task, hedge attempt,
//!   and fail-over backoff inside the router is itself an announced
//!   scheduler task (`qrouter.*`), so the explored interleavings cover
//!   the hedge race and the ladder walk, not just the servers.
//! * **drainer** — `rt.drainer` owns both servers; its `rt.drain.go`
//!   grant is the shutdown moment the strategy explores: before the
//!   first scatter, between batches, or mid-race.
//!
//! ## Invariants checked on every completed schedule
//!
//! * **Conservation** — every offered read is accounted exactly once:
//!   `offered == merged + typed-failed`. A batch the router answers is
//!   byte-identical to the single-node oracle; a batch it cannot
//!   answer fails with a *typed* [`qrouter::RouterError`], never a
//!   hang, never a partial answer.
//! * **Merge charged once** — the `qrouter.merge` counter equals the
//!   reads of successfully merged batches exactly, so a hedge race can
//!   never double-count a batch (the loser's late answer is discarded,
//!   not merged again).
//! * **Hedge token never charged twice** — `qrouter.hedge.won` never
//!   exceeds `qrouter.hedge.fired`, and with single-replica shards the
//!   hedge and primary target the same process, so a won race still
//!   merges exactly once.

use crate::trace::GrantRecord;
use crate::{scenario, sched_lock};
use faultsim::sched::{self, Candidate, StepState};
use genome::PackedSeq;
use qnet::{ClientConfig, Server, ServerConfig};
use qrouter::{ClusterManifest, Router, RouterConfig, RouterError};
use qserve::{
    AdmissionConfig, ContigStore, Hit, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine,
    QueryService, ServiceConfig,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Shards in the cluster scenario (fixed: the point is the scatter).
const N_SHARDS: u32 = 2;
/// Grant cap per schedule — same backstop role as the serving
/// scenario's, sized up for the extra tasks a scatter spawns.
const MAX_GRANTS: usize = 8_000;
/// Socket timeouts; only relevant after an aborted schedule free-runs.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Shape of the cluster scenario. Defaults keep schedules small enough
/// for exploration while still exercising hedge and fail-over paths.
#[derive(Debug, Clone)]
pub struct RouterScenarioConfig {
    /// Batches the router routes, sequentially.
    pub batches: usize,
    /// Reads per batch.
    pub reads_per_batch: usize,
    /// Worker threads per shard service.
    pub workers: usize,
    /// Fail-over rounds before a shard dead-letters.
    pub failover_rounds: u32,
    /// Hedge ceiling in *virtual* milliseconds: small, so a scheduler
    /// that parks the primary a few grants makes the hedge fire.
    pub hedge_max_ms: u64,
    /// Drain deadline (virtual ms) for both shard servers.
    pub drain_deadline_ms: u64,
}

impl Default for RouterScenarioConfig {
    fn default() -> Self {
        RouterScenarioConfig {
            batches: 2,
            reads_per_batch: 2,
            workers: 1,
            failover_rounds: 2,
            hedge_max_ms: 3,
            drain_deadline_ms: 8,
        }
    }
}

impl RouterScenarioConfig {
    /// Total reads the router offers across the script.
    pub fn offered_reads(&self) -> u64 {
        (self.batches * self.reads_per_batch) as u64
    }
}

/// How one routed batch ended, from the caller's chair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterOutcomeKind {
    /// Byte-identical to the single-node oracle.
    Merged,
    /// Typed [`RouterError::ShardUnavailable`] after the ladder.
    ShardUnavailable,
    /// Typed terminal [`RouterError::Net`].
    Net,
    /// A wrong answer — always a violation.
    Corrupt,
}

/// One batch's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterBatchOutcome {
    /// Batch index in the script.
    pub batch: usize,
    /// Reads in the batch.
    pub n_reads: u64,
    /// Typed classification.
    pub kind: RouterOutcomeKind,
    /// Error display / mismatch detail.
    pub detail: String,
}

/// Everything one executed cluster schedule produced.
#[derive(Debug, Clone)]
pub struct RouterRunResult {
    /// The interleaving, one record per grant.
    pub trace: Vec<GrantRecord>,
    /// One outcome per batch.
    pub outcomes: Vec<RouterBatchOutcome>,
    /// Post-hoc rollup: `qrouter.*` and `qnet.*` counters.
    pub counters: BTreeMap<String, u64>,
    /// Scheduler-level failure (deadlock/hang/grant cap), if any.
    pub sched_violation: Option<String>,
    /// Invariants that did not hold (empty on a good run).
    pub violations: Vec<String>,
}

/// One shard's serving stack over `reference`, holding shard `shard`
/// of the postings split `N_SHARDS` ways.
fn start_shard_server(
    reference: &PackedSeq,
    shard: u32,
    cfg: &RouterScenarioConfig,
    rec: &obs::Recorder,
) -> Server {
    let icfg = IndexConfig {
        k: 9,
        w: 5,
        threads: 1,
    };
    let index_store = ContigStore::from_contigs(vec![reference.clone()]);
    let index = MinimizerIndex::build_shard(&index_store, &icfg, shard, N_SHARDS);
    let store = ContigStore::from_contigs(vec![reference.clone()]);
    let engine =
        QueryEngine::new(store, index, QueryConfig::default()).expect("shard engine binds");
    let service = QueryService::start(
        engine,
        ServiceConfig {
            workers: cfg.workers,
            batch_chunk: 2,
            max_queue: 8,
        },
        rec,
    );
    Server::start(
        service,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: IO_TIMEOUT,
            write_timeout: IO_TIMEOUT,
            drain_deadline: Duration::from_millis(cfg.drain_deadline_ms),
            admission: AdmissionConfig {
                refill_per_s: 0.0,
                burst: 1_000.0,
            },
            stall_ms: 0,
            auth_secret: None,
            reload: None,
        },
        rec,
        faultsim::Faults::disabled(),
    )
    .expect("bind shard server")
}

/// Execute one schedule of the cluster scenario under a fresh
/// controller; same contract as [`scenario::run_schedule`]: the
/// `picker` chooses every grant, the interleaving comes back as
/// `trace`, and the cluster invariants are checked on completion.
/// Process-exclusive via [`crate::sched_lock`].
pub fn run_router_schedule(
    cfg: &RouterScenarioConfig,
    picker: &mut dyn FnMut(&[Candidate], &[GrantRecord]) -> usize,
) -> RouterRunResult {
    let _exclusive = sched_lock();
    let reference = Arc::new(scenario::contig());

    // Single-node oracle answers, computed before any scheduling.
    let oracle = scenario::build_engine(&reference);
    let expected: Vec<Vec<Option<Hit>>> = (0..cfg.batches)
        .map(|b| {
            (0..cfg.reads_per_batch)
                .map(|r| oracle.query(&scenario::query(&reference, b * cfg.reads_per_batch + r)))
                .collect()
        })
        .collect();

    let ctl = sched::Controller::install();
    let rec = obs::Recorder::new();

    // Shard stacks announce their workers and accept loops here, in
    // shard order, before the scripted tasks — deterministic registry.
    let server0 = start_shard_server(&reference, 0, cfg, &rec);
    let server1 = start_shard_server(&reference, 1, cfg, &rec);
    let checksum = ContigStore::from_contigs(vec![reference.as_ref().clone()]).checksum();
    let mut manifest = ClusterManifest::new(N_SHARDS, checksum);
    manifest.add_replica(0, server0.local_addr().to_string());
    manifest.add_replica(1, server1.local_addr().to_string());

    let outcomes: Arc<Mutex<Vec<RouterBatchOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    let mut joins: Vec<std::thread::JoinHandle<()>> = Vec::new();

    {
        let token = sched::announce("rt.router");
        let cfg_r = cfg.clone();
        let reference_r = Arc::clone(&reference);
        let outcomes_r = Arc::clone(&outcomes);
        let rec_r = rec.clone();
        joins.push(std::thread::spawn(move || {
            let _task = sched::begin(token);
            let router = Router::new(
                manifest,
                RouterConfig {
                    client: ClientConfig {
                        client_id: "rt".to_string(),
                        backoff_base_ms: 2,
                        read_timeout: IO_TIMEOUT,
                        write_timeout: IO_TIMEOUT,
                        ..ClientConfig::default()
                    },
                    hedge_min_ms: 1,
                    hedge_max_ms: cfg_r.hedge_max_ms,
                    failover_rounds: cfg_r.failover_rounds,
                    ..RouterConfig::default()
                },
                faultsim::Faults::disabled(),
                &rec_r,
            )
            .expect("manifest validates");
            for (b, want) in expected.iter().enumerate() {
                let reads: Vec<PackedSeq> = (0..cfg_r.reads_per_batch)
                    .map(|r| scenario::query(&reference_r, b * cfg_r.reads_per_batch + r))
                    .collect();
                sched::point("rt.route.go");
                let outcome = match router.route(&reads) {
                    Ok(hits) => {
                        if hits == *want {
                            RouterBatchOutcome {
                                batch: b,
                                n_reads: reads.len() as u64,
                                kind: RouterOutcomeKind::Merged,
                                detail: String::new(),
                            }
                        } else {
                            RouterBatchOutcome {
                                batch: b,
                                n_reads: reads.len() as u64,
                                kind: RouterOutcomeKind::Corrupt,
                                detail: format!("got {hits:?}, want {want:?}"),
                            }
                        }
                    }
                    Err(e @ RouterError::ShardUnavailable { .. }) => RouterBatchOutcome {
                        batch: b,
                        n_reads: reads.len() as u64,
                        kind: RouterOutcomeKind::ShardUnavailable,
                        detail: e.to_string(),
                    },
                    Err(e) => RouterBatchOutcome {
                        batch: b,
                        n_reads: reads.len() as u64,
                        kind: RouterOutcomeKind::Net,
                        detail: e.to_string(),
                    },
                };
                outcomes_r
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(outcome);
            }
            // Dropping the router closes its pooled connections, so a
            // clean drain sees EOF rather than idle sockets.
            drop(router);
        }));
    }

    {
        let token = sched::announce("rt.drainer");
        let mut server0 = server0;
        let mut server1 = server1;
        joins.push(std::thread::spawn(move || {
            let _task = sched::begin(token);
            sched::point("rt.drain.go");
            server0.shutdown();
            server1.shutdown();
            drop(server0);
            drop(server1);
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

    drop(ctl);
    let mut violations = Vec::new();
    for (i, j) in joins.into_iter().enumerate() {
        if j.join().is_err() {
            violations.push(format!("scripted task #{i} panicked"));
        }
    }
    rec.flush();

    let totals = obs::Rollup::from_events(&rec.events()).totals();
    let counters: BTreeMap<String, u64> = [
        "qrouter.merge",
        "qrouter.hedge.fired",
        "qrouter.hedge.won",
        "qrouter.failover",
        "qrouter.shard.dead",
        "qnet.accepted",
    ]
    .into_iter()
    .map(|name| (name.to_string(), totals.counter(name)))
    .collect();

    let outcomes = Arc::try_unwrap(outcomes)
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .unwrap_or_default();

    if let Some(v) = &sched_violation {
        violations.push(format!("scheduler: {v}"));
    } else {
        violations.extend(check_invariants(cfg, &outcomes, &counters));
    }

    RouterRunResult {
        trace,
        outcomes,
        counters,
        sched_violation,
        violations,
    }
}

/// The cluster invariants, checked on every completed schedule.
fn check_invariants(
    cfg: &RouterScenarioConfig,
    outcomes: &[RouterBatchOutcome],
    counters: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut out = Vec::new();
    if outcomes.len() != cfg.batches {
        out.push(format!(
            "router script produced {} outcomes for {} batches",
            outcomes.len(),
            cfg.batches
        ));
    }
    for o in outcomes {
        if o.kind == RouterOutcomeKind::Corrupt {
            out.push(format!(
                "batch {} answered wrong bytes: {}",
                o.batch, o.detail
            ));
        }
    }
    let merged: u64 = outcomes
        .iter()
        .filter(|o| o.kind == RouterOutcomeKind::Merged)
        .map(|o| o.n_reads)
        .sum();
    let failed: u64 = outcomes
        .iter()
        .filter(|o| {
            matches!(
                o.kind,
                RouterOutcomeKind::ShardUnavailable | RouterOutcomeKind::Net
            )
        })
        .map(|o| o.n_reads)
        .sum();
    let offered = cfg.offered_reads();
    if merged + failed != offered {
        out.push(format!(
            "conservation broke: offered {offered} != merged {merged} + typed-failed {failed}"
        ));
    }
    let merge_counter = counters.get("qrouter.merge").copied().unwrap_or(0);
    if merge_counter != merged {
        out.push(format!(
            "merge charged {merge_counter} reads for {merged} merged — a hedge loser was \
             double-counted or a failed batch was merged"
        ));
    }
    let fired = counters.get("qrouter.hedge.fired").copied().unwrap_or(0);
    let won = counters.get("qrouter.hedge.won").copied().unwrap_or(0);
    if won > fired {
        out.push(format!(
            "hedge token charged twice: {won} wins for {fired} fired"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The baseline schedule (always grant the lowest task) completes,
    /// conserves every read, and answers byte-identically.
    #[test]
    fn baseline_cluster_schedule_holds_the_invariants() {
        let cfg = RouterScenarioConfig::default();
        let run = run_router_schedule(&cfg, &mut |_c, _t| 0);
        assert_eq!(run.sched_violation, None, "cluster schedule hung");
        assert!(
            run.violations.is_empty(),
            "violations: {:?}",
            run.violations
        );
        assert_eq!(run.outcomes.len(), cfg.batches);
    }

    /// Rotating the grant choice perturbs the interleaving (hedges may
    /// fire, the drain may land mid-script); conservation and the
    /// merge-once rule must hold on every one.
    #[test]
    fn rotated_cluster_schedules_conserve_reads() {
        let cfg = RouterScenarioConfig::default();
        for stride in 1..4usize {
            let mut i = 0usize;
            let run = run_router_schedule(&cfg, &mut |cands, _t| {
                i += stride;
                i % cands.len()
            });
            assert_eq!(run.sched_violation, None, "stride {stride} schedule hung");
            assert!(
                run.violations.is_empty(),
                "stride {stride} violations: {:?}",
                run.violations
            );
        }
    }
}
