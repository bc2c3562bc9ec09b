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
//!   for a fixed script of batches. The router's own task writes each
//!   shard query that has a live connection and waits for those
//!   primaries at the timed point `qrouter.primary.wait`; a shard whose
//!   primary needs a dial, is late or failed continues on an announced
//!   `qrouter.s{shard}.q{seq}` task, and each
//!   hedge racer is announced too, so the explored interleavings cover
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

use crate::harness::{self, Harness};
use crate::trace::GrantRecord;
use faultsim::sched::{self, Candidate};
use genome::PackedSeq;
use qnet::{ClientConfig, Server, ServerConfig};
use qrouter::{ClusterManifest, Router, RouterConfig, RouterError};
use qserve::{
    AdmissionConfig, ContigStore, Hit, MinimizerIndex, QueryConfig, QueryEngine, QueryService,
    ServiceConfig,
};
use std::collections::BTreeMap;
use std::time::Duration;

/// Shards in the cluster scenario (fixed: the point is the scatter).
const N_SHARDS: u32 = 2;

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
    let store = ContigStore::from_contigs(vec![reference.clone()]);
    let index = MinimizerIndex::build_shard(&store, &harness::INDEX, shard, N_SHARDS);
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
            drain_deadline: Duration::from_millis(cfg.drain_deadline_ms),
            admission: AdmissionConfig {
                refill_per_s: 0.0,
                burst: 1_000.0,
            },
            ..harness::server_config()
        },
        rec,
        faultsim::Faults::disabled(),
    )
    .expect("bind shard server")
}

/// The router's script: route every batch in order and classify each
/// against the single-node oracle.
fn router_script(
    router: Router,
    reference: &PackedSeq,
    reads_per_batch: usize,
    expected: &[Vec<Option<Hit>>],
) -> Vec<RouterBatchOutcome> {
    expected
        .iter()
        .enumerate()
        .map(|(batch, want)| {
            let reads: Vec<PackedSeq> = (0..reads_per_batch)
                .map(|r| harness::query(reference, batch * reads_per_batch + r))
                .collect();
            sched::point("rt.route.go");
            let (kind, detail) = match router.route(&reads) {
                Ok(hits) if hits == *want => (RouterOutcomeKind::Merged, String::new()),
                Ok(hits) => (
                    RouterOutcomeKind::Corrupt,
                    format!("got {hits:?}, want {want:?}"),
                ),
                Err(e @ RouterError::ShardUnavailable { .. }) => {
                    (RouterOutcomeKind::ShardUnavailable, e.to_string())
                }
                Err(e) => (RouterOutcomeKind::Net, e.to_string()),
            };
            RouterBatchOutcome {
                batch,
                n_reads: reads.len() as u64,
                kind,
                detail,
            }
        })
        .collect()
    // Dropping the router here closes its pooled connections, so a
    // clean drain sees EOF rather than idle sockets.
}

/// Execute one schedule of the cluster scenario under a fresh
/// controller; same contract as [`crate::scenario::run_schedule`]: the
/// `picker` chooses every grant, the interleaving comes back as
/// `trace`, and the cluster invariants are checked on completion.
/// Process-exclusive via [`crate::sched_lock`].
pub fn run_router_schedule(
    cfg: &RouterScenarioConfig,
    picker: &mut dyn FnMut(&[Candidate], &[GrantRecord]) -> usize,
) -> RouterRunResult {
    let reference = harness::contig(1);

    // Single-node oracle answers, computed before any scheduling.
    let oracle = harness::build_engine(std::slice::from_ref(&reference));
    let expected: Vec<Vec<Option<Hit>>> = (0..cfg.batches)
        .map(|b| {
            (0..cfg.reads_per_batch)
                .map(|r| oracle.query(&harness::query(&reference, b * cfg.reads_per_batch + r)))
                .collect()
        })
        .collect();

    let h = Harness::install();

    // Shard stacks announce their workers and accept loops here, in
    // shard order, before the scripted tasks — deterministic registry.
    let mut server0 = start_shard_server(&reference, 0, cfg, &h.rec);
    let mut server1 = start_shard_server(&reference, 1, cfg, &h.rec);
    let checksum = ContigStore::from_contigs(vec![reference.clone()]).checksum();
    let mut manifest = ClusterManifest::new(N_SHARDS, checksum);
    manifest.add_replica(0, server0.local_addr().to_string());
    manifest.add_replica(1, server1.local_addr().to_string());

    let router_cfg = RouterConfig {
        client: ClientConfig {
            client_id: "rt".to_string(),
            backoff_base_ms: 2,
            read_timeout: harness::IO_TIMEOUT,
            write_timeout: harness::IO_TIMEOUT,
            ..ClientConfig::default()
        },
        hedge_min_ms: 1,
        hedge_max_ms: cfg.hedge_max_ms,
        failover_rounds: cfg.failover_rounds,
        ..RouterConfig::default()
    };
    let reads_per_batch = cfg.reads_per_batch;
    let rec = h.rec.clone();
    let router_task = h.spawn("rt.router", move || {
        let router = Router::new(manifest, router_cfg, faultsim::Faults::disabled(), &rec)
            .expect("manifest validates");
        router_script(router, &reference, reads_per_batch, &expected)
    });
    let drainer = h.spawn("rt.drainer", move || {
        sched::point("rt.drain.go");
        server0.shutdown();
        server1.shutdown();
    });

    let mut run = h.drive(picker);
    let outcomes = run.join(router_task).unwrap_or_default();
    run.join(drainer);
    let counters = run.counters(&[
        "qrouter.merge",
        "qrouter.hedge.fired",
        "qrouter.hedge.won",
        "qrouter.failover",
        "qrouter.shard.dead",
        "qnet.accepted",
    ]);
    let violations = run.violations(|| check_invariants(cfg, &outcomes, &counters));

    RouterRunResult {
        trace: run.trace,
        outcomes,
        counters,
        sched_violation: run.sched_violation,
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
