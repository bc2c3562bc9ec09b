//! Seeded random-priority schedule exploration (PCT style).
//!
//! Bounded DFS owns the shallow prefix of the schedule tree; this
//! strategy reaches the deep, unlikely tail. Each seed deterministically
//! derives a priority per task (splitmix64 of `seed ⊕ task`) plus
//! [`PctConfig::change_points`] demotion steps; at every decision the
//! highest-priority enabled candidate is granted, and at each demotion
//! step the current top candidate's priority drops below everything
//! else. With `d` demotions this is the PCT discipline: any bug of
//! "depth" `d` is hit with calculable probability per seed, and — the
//! property the harness actually banks on — **the seed alone replays
//! the schedule byte-for-byte**, asserted by re-running each seed and
//! comparing [`trace_hash`]es.

use crate::scenario::{run_schedule, RunResult};
use crate::trace::trace_hash;
use crate::{ExploreReport, ScenarioConfig, Violation};
use std::collections::{BTreeSet, HashMap};
use stdx::splitmix64;

/// Tuning for [`explore_pct`].
#[derive(Debug, Clone)]
pub struct PctConfig {
    /// The scenario every schedule runs.
    pub scenario: ScenarioConfig,
    /// First seed; seed `i` of the sweep is `splitmix64(seed0 ⊕ i)`.
    pub seed0: u64,
    /// Seeds (schedules) to run.
    pub schedules: u64,
    /// Priority demotions per schedule — PCT's `d`.
    pub change_points: usize,
    /// Re-run every seed and require an identical trace hash. Doubles
    /// the work of the sweep; the replays are not counted as explored
    /// schedules.
    pub replay_each: bool,
}

impl Default for PctConfig {
    fn default() -> Self {
        PctConfig {
            scenario: ScenarioConfig::default(),
            seed0: 0x5eed_0001,
            schedules: 64,
            change_points: 3,
            replay_each: false,
        }
    }
}

/// Demotion steps for a seed: `d` grant indices in `[0, 300)`.
fn change_steps(seed: u64, d: usize) -> BTreeSet<usize> {
    (0..d)
        .map(|i| (splitmix64(seed ^ (0xC0FF_EE00 + i as u64)) % 300) as usize)
        .collect()
}

/// Run one seeded schedule to completion.
pub fn run_pct(scenario: &ScenarioConfig, seed: u64, change_points: usize) -> RunResult {
    let changes = change_steps(seed, change_points);
    let mut prio: HashMap<usize, u64> = HashMap::new();
    run_schedule(scenario, &mut |cands, trace| {
        let step = trace.len();
        for c in cands {
            // Initial priorities are huge (≈ 2^63 on average), so a
            // demotion to the small step index sinks below everything.
            prio.entry(c.task).or_insert_with(|| {
                splitmix64(seed ^ ((c.task as u64 + 1) * 0x9E37_79B9)) | 1 << 32
            });
        }
        if changes.contains(&step) {
            if let Some(top) = pick_top(cands, &prio) {
                prio.insert(cands[top].task, step as u64);
            }
        }
        pick_top(cands, &prio).unwrap_or(0)
    })
}

/// Index of the highest-priority candidate; ties break to the lowest
/// task id so the choice is a pure function of (priorities, cands).
fn pick_top(cands: &[faultsim::sched::Candidate], prio: &HashMap<usize, u64>) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for (i, c) in cands.iter().enumerate() {
        let p = prio.get(&c.task).copied().unwrap_or(0);
        let better = match best {
            None => true,
            Some((_, bp)) => p > bp,
        };
        if better {
            best = Some((i, p));
        }
    }
    best.map(|(i, _)| i)
}

/// Sweep [`PctConfig::schedules`] seeds, checking invariants on every
/// run and (optionally) replay determinism per seed.
pub fn explore_pct(cfg: &PctConfig) -> ExploreReport {
    let mut report = ExploreReport::default();
    let mut hashes = std::collections::HashSet::new();
    for i in 0..cfg.schedules {
        let seed = splitmix64(cfg.seed0 ^ i);
        let run = run_pct(&cfg.scenario, seed, cfg.change_points);
        report.observe_run(&run);
        hashes.insert(trace_hash(&run.trace));
        if !run.violations.is_empty() {
            report.violations.push(Violation {
                strategy: format!("pct:{seed:#x}"),
                detail: run.violations.join("; "),
                trace: run.trace.clone(),
            });
        }
        if cfg.replay_each {
            let again = run_pct(&cfg.scenario, seed, cfg.change_points);
            if trace_hash(&again.trace) != trace_hash(&run.trace) {
                report.diverged += 1;
                report.violations.push(Violation {
                    strategy: format!("pct:{seed:#x}"),
                    detail: format!(
                        "seed replay diverged: {} grants then {} grants with a different hash",
                        run.trace.len(),
                        again.trace.len()
                    ),
                    trace: again.trace,
                });
            }
        }
    }
    report.distinct_interleavings = hashes.len() as u64;
    report
}
