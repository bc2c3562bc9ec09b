//! Schedule-exploration goldens (ROBUSTNESS.md "Schedule exploration"):
//! the real qnet/qserve serving stack, run under the deterministic
//! scheduler, holds its protocol invariants on every explored
//! interleaving, and every schedule replays bit-for-bit — from its
//! recorded trace, and from its PCT seed alone.

use lasagna_repro::schedcheck::{
    explore_dfs, explore_pct, helped_under_drain, pct, replay_trace, run_schedule, trace_hash,
    DfsConfig, GrantRecord, OutcomeKind, PctConfig, ScenarioConfig,
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
    let swept = run
        .trace
        .iter()
        .position(|g| g.point == "qnet.drain.force_close")
        .expect("the drain force-closes");
    assert!(
        run.trace[swept..]
            .iter()
            .any(|g| g.task_name.starts_with("qnet.conn") && g.point == "qnet.gate.depth"),
        "the schedule no longer reaches the swept-admission window"
    );
}

/// True when the drain's force-close was granted while a connection
/// handler held an execution slot: it had been granted
/// `qserve.chunk.exec` and not yet `qserve.chunk.respond`.
fn force_closed_mid_chunk(trace: &[GrantRecord]) -> bool {
    let mut running: Vec<&str> = Vec::new();
    for g in trace {
        match g.point.as_str() {
            "qserve.chunk.exec" => running.push(&g.task_name),
            "qserve.chunk.respond" => running.retain(|t| *t != g.task_name),
            "qnet.drain.force_close" => return running.iter().any(|t| t.starts_with("qnet.conn")),
            _ => {}
        }
    }
    false
}

/// The drain deadline passes while a connection's own thread is running
/// its batch. The sweep sends that request's typed `Draining` frame and
/// cuts the socket; the thread finishes the chunk and skips its write,
/// so the client sees exactly one frame for the request, and the ledger
/// balances: `accepted == delivered + force_closed`. This PCT seed
/// reaches that schedule.
#[test]
fn a_drain_that_force_closes_a_handler_mid_batch_answers_once() {
    let cfg = ScenarioConfig::default();
    let run = pct::run_pct(&cfg, 0x4309_dd08_6b36_ccb9, 3);
    assert!(
        run.violations.is_empty(),
        "violations: {:?}",
        run.violations
    );
    assert!(
        force_closed_mid_chunk(&run.trace),
        "the schedule no longer force-closes a handler that is running its batch"
    );
    assert_eq!(run.force_closed, cfg.reads_per_batch as u64, "one batch");
    assert!(run
        .outcomes
        .iter()
        .any(|o| o.kind == OutcomeKind::DrainShed));
    // A second frame for the force-closed request would mispair the
    // client's next request (Corrupt) or be an answer it never read.
    assert!(run.outcomes.iter().all(|o| o.kind != OutcomeKind::Corrupt));
    let delivered: u64 = run
        .outcomes
        .iter()
        .filter(|o| o.kind == OutcomeKind::Hits)
        .map(|o| o.n_reads)
        .sum();
    assert_eq!(
        run.counters.get("qnet.accepted").copied().unwrap_or(0),
        delivered + run.force_closed
    );
}

/// With two-chunk batches a connection handler runs a chunk of its own
/// batch in one execution slot while a worker holds the other, after
/// the drain began. This PCT seed, from the `2-chunk batches` row of
/// `repro schedcheck`, reaches that schedule and keeps every invariant.
#[test]
fn a_handler_runs_its_own_chunk_beside_a_worker_under_a_drain() {
    let cfg = ScenarioConfig {
        reads_per_batch: 4,
        ..ScenarioConfig::default()
    };
    let run = pct::run_pct(&cfg, 0x8162_c2e3_83cd_c131, 32);
    assert!(
        run.violations.is_empty(),
        "violations: {:?}",
        run.violations
    );
    assert!(
        helped_under_drain(&run.trace),
        "the schedule no longer runs a handler's chunk beside a worker's under a drain"
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

/// Route both batches of the cluster scenario before the drain: grant
/// the drainer only when nothing else can run, and rotate by `stride`
/// among the rest.
fn drain_last(
    cfg: &lasagna_repro::schedcheck::RouterScenarioConfig,
    stride: usize,
) -> lasagna_repro::schedcheck::RouterRunResult {
    let mut i = 0usize;
    lasagna_repro::schedcheck::run_router_schedule(cfg, &mut |cands, _trace| {
        let live: Vec<usize> = (0..cands.len())
            .filter(|&k| cands[k].task_name != "rt.drainer")
            .collect();
        if live.is_empty() {
            return 0;
        }
        i += stride;
        live[i % live.len()]
    })
}

/// The first routed batch finds no live connection, so each shard dials
/// and sends on a task of its own. With a hedge ceiling no schedule
/// reaches, the second batch then runs on the router's own task: it
/// writes both shard queries, reads both answers and merges them, and
/// announces no `qrouter.*` task for that batch. With the default
/// ceiling of three virtual milliseconds the second batch's primaries
/// are late: each shard walks the rest of its round on a task of its
/// own, races a hedge, and the answers stay byte-identical.
#[test]
fn clean_routed_batches_stay_on_the_routers_task_and_late_shards_escalate() {
    use lasagna_repro::schedcheck::{RouterOutcomeKind, RouterScenarioConfig};

    let patient = RouterScenarioConfig {
        hedge_max_ms: 1_000_000,
        ..RouterScenarioConfig::default()
    };
    let hasty = RouterScenarioConfig::default();
    for stride in [0usize, 1, 2] {
        for (cfg, escalates) in [(&patient, false), (&hasty, true)] {
            let run = drain_last(cfg, stride);
            assert_eq!(run.sched_violation, None, "stride {stride} schedule hung");
            assert!(
                run.violations.is_empty(),
                "stride {stride} violations: {:?}",
                run.violations
            );
            assert!(
                run.outcomes
                    .iter()
                    .all(|o| o.kind == RouterOutcomeKind::Merged),
                "stride {stride}: every batch is answered before the drain: {:?}",
                run.outcomes
            );
            // Grants to the router's tasks for batch `q`, named
            // `qrouter.s{shard}.q{q}` and `qrouter.s{shard}.q{q}.r{round}.a{n}`.
            let tasks_of = |q: &str| {
                run.trace
                    .iter()
                    .filter(|g| g.task_name.starts_with("qrouter."))
                    .filter(|g| g.task_name.split('.').nth(2) == Some(q))
                    .count()
            };
            assert!(
                tasks_of("q0") > 0,
                "stride {stride}: the dials left no task"
            );
            let fired = run.counters.get("qrouter.hedge.fired").copied();
            if escalates {
                assert!(tasks_of("q1") > 0, "stride {stride}: no shard escalated");
                assert!(fired > Some(0), "stride {stride}: no hedge fired");
            } else {
                assert_eq!(
                    tasks_of("q1"),
                    0,
                    "stride {stride}: a clean batch left the router's task"
                );
                assert_eq!(fired, Some(0), "stride {stride}");
            }
        }
    }
}
