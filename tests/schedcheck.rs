//! Schedule-exploration goldens (ROBUSTNESS.md "Schedule exploration"):
//! the real qnet/qserve serving stack, run under the deterministic
//! scheduler, holds its protocol invariants on every explored
//! interleaving, and every schedule replays bit-for-bit — from its
//! recorded trace, and from its PCT seed alone.

use lasagna_repro::schedcheck::{
    explore_dfs, explore_pct, pct, replay_trace, run_schedule, trace_hash, DfsConfig, PctConfig,
    ScenarioConfig,
};

/// A deterministic baseline schedule (always grant the lowest-task
/// candidate) completes, passes every invariant, and leaves a replayable
/// trace.
#[test]
fn baseline_schedule_completes_and_holds_the_invariants() {
    let cfg = ScenarioConfig::default();
    let run = run_schedule(&cfg, &mut |_cands, _trace| 0);

    assert_eq!(run.sched_violation, None, "baseline schedule hung");
    assert!(
        run.violations.is_empty(),
        "invariant violations on the baseline schedule: {:?}",
        run.violations
    );
    assert_eq!(run.outcomes.len(), cfg.clients * cfg.batches_per_client);
    assert!(!run.trace.is_empty(), "no grants recorded");
    assert!(run.report.is_some() && run.snap.is_some());

    // Byte-for-byte replay from the recorded trace: same grants, same
    // hash, no divergence.
    let (again, diverged_at) = replay_trace(&cfg, &run.trace);
    assert_eq!(diverged_at, None, "replay diverged from its own trace");
    assert_eq!(trace_hash(&again.trace), trace_hash(&run.trace));
    assert_eq!(again.trace, run.trace, "replay must be grant-identical");
}

/// A small bounded-exhaustive sweep visits many distinct interleavings
/// and finds zero violations.
#[test]
fn bounded_exhaustive_sweep_is_clean() {
    let report = explore_dfs(&DfsConfig {
        scenario: ScenarioConfig::default(),
        decision_depth: 3,
        max_schedules: 64,
    });

    assert!(report.schedules_explored >= 2, "DFS never branched");
    assert!(
        report.distinct_interleavings >= 2,
        "every explored schedule collapsed to one interleaving"
    );
    assert_eq!(
        report.violations.len(),
        0,
        "violations: {:#?}",
        report.violations
    );
    assert_eq!(report.diverged, 0, "re-executed prefixes diverged");
}

/// PCT schedules are a pure function of their seed: the same seed
/// replays the same interleaving bit-for-bit, and different seeds
/// explore different ones.
#[test]
fn pct_seed_replays_bit_identical() {
    let cfg = ScenarioConfig::default();
    let a = pct::run_pct(&cfg, 0x5eed_f00d, 3);
    let b = pct::run_pct(&cfg, 0x5eed_f00d, 3);
    assert_eq!(
        trace_hash(&a.trace),
        trace_hash(&b.trace),
        "same seed, different schedule"
    );
    assert_eq!(a.trace, b.trace, "same seed must replay grant-for-grant");
    assert!(a.violations.is_empty(), "violations: {:?}", a.violations);

    // A short seeded sweep with per-seed replay checking stays clean
    // and covers more than one interleaving.
    let report = explore_pct(&PctConfig {
        scenario: cfg,
        seed0: 0x5eed_0002,
        schedules: 6,
        change_points: 3,
        replay_each: true,
    });
    assert_eq!(report.schedules_explored, 6);
    assert!(report.distinct_interleavings >= 2);
    assert_eq!(
        report.violations.len(),
        0,
        "violations: {:#?}",
        report.violations
    );
}

/// A batch that passes the queue-depth gate just after the drain swept
/// its connection has no one to answer it, yet its chunk is queued. The
/// connection handler waits that chunk out, so a finished drain leaves
/// the queue empty (I3). This PCT seed, from the prober sweep of
/// `repro schedcheck`, reaches that window.
#[test]
fn a_batch_admitted_after_the_drain_sweep_is_drained_before_shutdown_returns() {
    let cfg = ScenarioConfig {
        with_prober: true,
        ..ScenarioConfig::default()
    };
    let run = pct::run_pct(&cfg, 0x12b0_9ab6_9279_2f1d, 3);
    assert!(
        run.violations.is_empty(),
        "violations: {:?}",
        run.violations
    );
    assert!(
        run.trace
            .iter()
            .any(|g| g.task_name == "qnet.conn1" && g.point == "qserve.batch.wait"),
        "the schedule no longer reaches the swept-admission window"
    );
}

/// The two-shard cluster scenario: a real router scatter-gathering
/// over two shard servers under the deterministic scheduler. Every
/// explored interleaving must conserve reads (offered == merged +
/// typed-failed) and never charge the hedge or merge token twice.
#[test]
fn two_shard_router_schedules_conserve_reads_and_merge_once() {
    use lasagna_repro::schedcheck::{run_router_schedule, RouterScenarioConfig};

    let cfg = RouterScenarioConfig::default();
    let baseline = run_router_schedule(&cfg, &mut |_cands, _trace| 0);
    assert_eq!(
        baseline.sched_violation, None,
        "baseline cluster schedule hung"
    );
    assert!(
        baseline.violations.is_empty(),
        "baseline violations: {:?}",
        baseline.violations
    );
    assert_eq!(baseline.outcomes.len(), cfg.batches);

    // Perturbed grant orders: rotate the pick so the drain, the hedge
    // race, and the scatter interleave differently; the invariants must
    // hold on every completed schedule.
    for stride in [1usize, 2, 3] {
        let mut i = 0usize;
        let run = run_router_schedule(&cfg, &mut |cands, _trace| {
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
