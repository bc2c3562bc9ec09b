//! Bounded exhaustive schedule exploration with sleep-set-style
//! pruning.
//!
//! The schedule space is a tree: each node is an enabled set (more than
//! one candidate), each edge a grant. DFS enumerates every path through
//! the first [`DfsConfig::decision_depth`] decisions by *re-executing*
//! the scenario with the chosen prefix pinned — the scheduler has no
//! snapshot/restore, so replaying the prefix from scratch is how a
//! branch is revisited. Past the depth bound every decision takes the
//! deterministic default (lowest task id), so each explored prefix
//! still runs to completion and gets its invariants checked.
//!
//! ## Pruning
//!
//! At a node, simultaneously-enabled *pure socket-read waits*
//! (`qnet.conn.read`, `qnet.client.read`) on different tasks commute: a
//! grant runs its task only until the next point, and such a step reads
//! solely from that task's own socket, so neither order can disable or
//! affect the other and both orders reach the same state. Among them
//! only the lowest-task candidate is branched on; the skipped candidate
//! is still enabled — and explored — at the child node, so every
//! reachable state survives, Godefroid-sleep-set style. The class is
//! deliberately conservative: dequeues, gates, and drain points all
//! contend on shared state and are never pruned.
//!
//! Replay divergence (the re-executed prefix producing a different
//! enabled set than recorded) is counted honestly in
//! [`ExploreReport::diverged`], never silently retried.

use crate::scenario::run_schedule;
use crate::trace::trace_hash;
use crate::{ExploreReport, ScenarioConfig, Violation};
use faultsim::sched::Candidate;
use std::collections::HashSet;

/// Tuning for [`explore_dfs`].
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// The scenario every schedule runs.
    pub scenario: ScenarioConfig,
    /// How many decisions (enabled sets with ≥ 2 candidates) are
    /// explored exhaustively; deeper decisions take the default branch.
    pub decision_depth: usize,
    /// Hard cap on schedules executed, as a wall-clock guard.
    pub max_schedules: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            scenario: ScenarioConfig::default(),
            decision_depth: 5,
            max_schedules: 4_000,
        }
    }
}

/// One decision node on the current DFS path.
struct Node {
    /// Branchable choices at this node (pruned, sorted by task id).
    keys: Vec<String>,
    /// Index of the branch currently being explored.
    cur: usize,
}

/// Interleaving identity of a candidate — stable across re-executions
/// because task *names* are deterministic while raw ids can shift.
fn cand_key(c: &Candidate) -> String {
    format!("{}@{}", c.task_name, c.point)
}

/// Points that are pure single-socket read waits, the commuting class.
const PURE_WAIT: [&str; 2] = ["qnet.conn.read", "qnet.client.read"];

/// The branchable choices at a node: every candidate key, minus
/// pure-read candidates that commute with an earlier-kept pure read.
fn branch_keys(cands: &[Candidate]) -> Vec<String> {
    let mut kept: Vec<&Candidate> = Vec::new();
    let mut keys = Vec::new();
    for c in cands {
        let commutes = PURE_WAIT.contains(&c.point.as_str())
            && kept
                .iter()
                .any(|p| p.task != c.task && PURE_WAIT.contains(&p.point.as_str()));
        if !commutes {
            kept.push(c);
            keys.push(cand_key(c));
        }
    }
    keys
}

/// Exhaustively explore the schedule tree to the configured depth,
/// running the full scenario (and its invariants) on every leaf.
pub fn explore_dfs(cfg: &DfsConfig) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut hashes: HashSet<u64> = HashSet::new();
    let mut nodes: Vec<Node> = Vec::new();

    loop {
        let mut depth = 0usize;
        let mut mismatch = false;
        let run = {
            let nodes = &mut nodes;
            let mismatch = &mut mismatch;
            let depth = &mut depth;
            run_schedule(&cfg.scenario, &mut |cands, _trace| {
                if cands.len() == 1 {
                    return 0;
                }
                let d = *depth;
                *depth += 1;
                if d >= cfg.decision_depth || *mismatch {
                    return 0;
                }
                let keys = branch_keys(cands);
                if d < nodes.len() {
                    if nodes[d].keys == keys {
                        let key = &nodes[d].keys[nodes[d].cur];
                        return cands.iter().position(|c| &cand_key(c) == key).unwrap_or(0);
                    }
                    // The re-executed prefix no longer produces the
                    // recorded enabled set: count it and re-seed the
                    // tree from here rather than grant blindly.
                    *mismatch = true;
                    nodes.truncate(d);
                }
                let first = keys.first().cloned();
                nodes.push(Node { keys, cur: 0 });
                match first {
                    Some(key) => cands.iter().position(|c| cand_key(c) == key).unwrap_or(0),
                    None => 0,
                }
            })
        };

        report.observe_run(&run);
        hashes.insert(trace_hash(&run.trace));
        if mismatch {
            report.diverged += 1;
        }
        if !run.violations.is_empty() {
            report.violations.push(Violation {
                strategy: "dfs".to_string(),
                detail: run.violations.join("; "),
                trace: run.trace.clone(),
            });
        }

        // Backtrack: advance the deepest node with branches left.
        while let Some(last) = nodes.last_mut() {
            last.cur += 1;
            if last.cur < last.keys.len() {
                break;
            }
            nodes.pop();
        }
        if nodes.is_empty() || report.schedules_explored >= cfg.max_schedules {
            break;
        }
    }

    report.distinct_interleavings = hashes.len() as u64;
    report
}
