//! # schedcheck — model checking the serving concurrency protocol
//!
//! Stress tests shake a server and hope a bad interleaving falls out;
//! this crate *enumerates* interleavings. It runs the real
//! [`qnet::Server`] and [`qserve::QueryService`] — real sockets, real
//! worker threads, real admission gates — under the cooperative
//! deterministic scheduler in [`faultsim::sched`], where every racy
//! transition is a named schedule point and the sequence of grants *is*
//! the interleaving. An exploration strategy picks the grants:
//!
//! * [`explore_dfs`](dfs::explore_dfs) — bounded exhaustive DFS over the
//!   first `decision_depth` scheduling decisions, with sleep-set
//!   (partial-order) pruning so provably commuting choices are not
//!   explored twice;
//! * [`explore_pct`](pct::explore_pct) — seeded random-priority (PCT
//!   style) schedules that reach deep, unlikely interleavings the
//!   bounded prefix cannot.
//!
//! Every explored schedule runs the full scenario ([`scenario`]) to
//! completion and then checks the protocol invariants
//! ([`invariants`]): every admitted request is answered byte-correctly
//! for its `request_id` or force-close-counted — never silently lost,
//! never mispaired; the server's live accounting equals the post-hoc
//! trace roll-up and brackets the outcomes clients actually observed;
//! after shutdown nothing is left in flight and fairness tokens were
//! charged at most once per read.
//!
//! Failing schedules serialize to a JSONL trace ([`trace`]) that
//! replays byte-for-byte: the recorded `(task_name, point)` sequence
//! (or, for PCT, just the seed) reproduces the identical interleaving,
//! asserted by comparing [`trace::trace_hash`]es.
//!
//! A second scenario ([`router_scenario`]) runs the sharded cluster —
//! a real [`qrouter::Router`] scatter-gathering over two shard servers
//! — under the same controller, checking read conservation
//! (`offered == merged + typed-failed`) and that the hedge race never
//! double-counts a batch.
//!
//! A third scenario ([`reload_scenario`]) races a live generation hot
//! reload (the wire `Reload` verb swapping a real on-disk generation
//! store) against in-flight query batches, checking the zero-downtime
//! contract: no batch is ever shed or corrupted by the swap, every
//! answer byte-matches exactly the generation it is tagged with, and
//! per client the answering generation never regresses.
//!
//! Schedule executions are process-wide exclusive (the scheduler
//! installs globally), serialized behind [`sched_lock`].

pub mod dfs;
mod harness;
pub mod invariants;
pub mod pct;
pub mod reload_scenario;
pub mod router_scenario;
pub mod scenario;
pub mod trace;

pub use dfs::{explore_dfs, DfsConfig};
pub use pct::{explore_pct, PctConfig};
pub use reload_scenario::{
    run_reload_schedule, ReloadBatchOutcome, ReloadCallOutcome, ReloadOutcomeKind, ReloadRunResult,
    ReloadScenarioConfig,
};
pub use router_scenario::{
    run_router_schedule, RouterBatchOutcome, RouterOutcomeKind, RouterRunResult,
    RouterScenarioConfig,
};
pub use scenario::{
    replay_trace, run_schedule, BatchOutcome, OutcomeKind, RunResult, ScenarioConfig,
};
pub use trace::{trace_hash, GrantRecord};

use std::sync::{Mutex, MutexGuard};

static SCHED_LOCK: Mutex<()> = Mutex::new(());

/// Serialize schedule executions: [`faultsim::sched::Controller`] is
/// process-wide, so two concurrent runs (e.g. parallel `cargo test`
/// threads) would share a task registry. Hold the guard for the whole
/// execution.
pub fn sched_lock() -> MutexGuard<'static, ()> {
    SCHED_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One confirmed problem found by exploration: either the scheduler
/// itself failed to make progress (deadlock/hang in the real code) or a
/// protocol invariant did not hold on a completed schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `"dfs"` or `"pct:<seed>"` — enough to re-run the strategy.
    pub strategy: String,
    /// What went wrong (invariant text or scheduler failure).
    pub detail: String,
    /// The grant sequence that produced it, replayable via
    /// [`scenario::replay_trace`].
    pub trace: Vec<GrantRecord>,
}

stdx::impl_json!(struct Violation { strategy, detail, trace });

/// Aggregate results of an exploration pass.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Schedules executed end-to-end.
    pub schedules_explored: u64,
    /// Unique interleavings among them (distinct [`trace_hash`]es).
    pub distinct_interleavings: u64,
    /// Replayed prefixes that diverged from the recorded choice (the
    /// enabled set differed on re-execution) — counted honestly, not
    /// silently retried.
    pub diverged: u64,
    /// Longest schedule seen, in grants.
    pub max_steps: u64,
    /// Schedules in which the drain force-closed at least one straggler.
    pub force_closed_runs: u64,
    /// Schedules in which at least one batch was deadline-shed.
    pub deadline_shed_runs: u64,
    /// Schedules in which at least one batch was fairness-shed.
    pub fairness_shed_runs: u64,
    /// Schedules in which, after the drain began, a connection handler
    /// ran a chunk of its own batch while a worker held another slot.
    pub helped_under_drain_runs: u64,
    /// Invariant or scheduler violations, with replayable traces.
    pub violations: Vec<Violation>,
}

stdx::impl_json!(struct ExploreReport { schedules_explored, distinct_interleavings, diverged, max_steps, force_closed_runs, deadline_shed_runs, fairness_shed_runs, helped_under_drain_runs, violations });

/// True when, after `sc.drain.go` was granted, a `qnet.conn*` handler
/// and a `qserve-worker-*` worker both held an execution slot: each was
/// granted `qserve.chunk.exec` and not yet `qserve.chunk.respond`.
pub fn helped_under_drain(trace: &[GrantRecord]) -> bool {
    let mut draining = false;
    let mut running: Vec<&str> = Vec::new();
    for g in trace {
        match g.point.as_str() {
            "sc.drain.go" => draining = true,
            "qserve.chunk.exec" => running.push(&g.task_name),
            "qserve.chunk.respond" => running.retain(|t| *t != g.task_name),
            _ => {}
        }
        let holds = |prefix: &str| running.iter().any(|t| t.starts_with(prefix));
        if draining && holds("qnet.conn") && holds("qserve-worker-") {
            return true;
        }
    }
    false
}

impl ExploreReport {
    /// Fold `other` into `self` (union of hashes is handled by callers;
    /// this sums the counters and concatenates violations).
    pub fn absorb(&mut self, other: ExploreReport) {
        self.schedules_explored += other.schedules_explored;
        self.distinct_interleavings += other.distinct_interleavings;
        self.diverged += other.diverged;
        self.max_steps = self.max_steps.max(other.max_steps);
        self.force_closed_runs += other.force_closed_runs;
        self.deadline_shed_runs += other.deadline_shed_runs;
        self.fairness_shed_runs += other.fairness_shed_runs;
        self.helped_under_drain_runs += other.helped_under_drain_runs;
        self.violations.extend(other.violations);
    }

    /// Tally a completed run into the coverage counters.
    pub(crate) fn observe_run(&mut self, run: &RunResult) {
        self.schedules_explored += 1;
        self.max_steps = self.max_steps.max(run.trace.len() as u64);
        if run.force_closed > 0 {
            self.force_closed_runs += 1;
        }
        if run
            .outcomes
            .iter()
            .any(|o| o.kind == OutcomeKind::DeadlineShed)
        {
            self.deadline_shed_runs += 1;
        }
        if run
            .outcomes
            .iter()
            .any(|o| o.kind == OutcomeKind::FairnessShed)
        {
            self.fairness_shed_runs += 1;
        }
        if helped_under_drain(&run.trace) {
            self.helped_under_drain_runs += 1;
        }
    }
}
