//! The protocol invariants checked on every completed schedule.
//!
//! Three independent observers of the same run are reconciled here:
//! the **clients** (typed [`BatchOutcome`]s, with byte-correctness
//! already proven against a separate oracle engine), the **server's
//! live accounting** ([`StatsSnapshot`] + [`DrainReport`]), and the
//! **post-hoc trace rollup** (the `qnet.*` counters). Where an exact
//! equality is physically impossible — a typed shed response can be
//! suppressed by a racing force-close, leaving the client with an EOF —
//! the invariant is a tight two-sided bound with the `Io` reads as the
//! only slack, so silence can never hide a mispairing or a lost answer.
//!
//! Numbered catalog (ROBUSTNESS.md "Schedule exploration"):
//!
//! * **I1** — no `Corrupt` (mispair / wrong bytes) and no `RemoteError`
//!   outcomes; every batch produced exactly one outcome.
//! * **I2** — `accepted == delivered Hits + force_closed`: every
//!   admitted read was answered byte-correctly or force-close-counted.
//! * **I3** — after shutdown: `inflight == 0`, `queue_depth == 0`,
//!   the snapshot says draining.
//! * **I4** — live snapshot == trace rollup, counter for counter,
//!   including `force_closed`, which also equals the [`DrainReport`].
//! * **I5** — per-gate counters bracket the observed outcomes with
//!   `Io` as the only slack (two-sided).
//! * **I6** — fairness tokens never double- or under-charged: with
//!   zero refill, `burst − tokens` is integral and lies in
//!   `[accepted, accepted + rejected]` per client.
//! * **I7** — per-client totals sum exactly to the global counters.
//! * **I8** — `completed` implies `force_closed == 0`.

use crate::scenario::{BatchOutcome, OutcomeKind, ScenarioConfig};
use qnet::{DrainReport, StatsSnapshot};
use std::collections::BTreeMap;

/// Tolerance for f64 token arithmetic (sums of integral charges).
const TOKEN_EPS: f64 = 1e-6;

/// Check every invariant; returns one message per violation (empty on a
/// clean run).
pub fn check(
    cfg: &ScenarioConfig,
    outcomes: &[BatchOutcome],
    report: &DrainReport,
    snap: &StatsSnapshot,
    counters: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut v: Vec<String> = Vec::new();
    let mut fail = |msg: String| v.push(msg);

    let by_kind = |k: OutcomeKind| -> u64 {
        outcomes
            .iter()
            .filter(|o| o.kind == k)
            .map(|o| o.n_reads)
            .sum()
    };
    let hits = by_kind(OutcomeKind::Hits);
    let drain = by_kind(OutcomeKind::DrainShed);
    let deadline = by_kind(OutcomeKind::DeadlineShed);
    let fairness = by_kind(OutcomeKind::FairnessShed);
    let queue = by_kind(OutcomeKind::QueueShed);
    let io = by_kind(OutcomeKind::Io);
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);

    // I1: nothing silent, nothing mispaired, nothing byte-wrong.
    for o in outcomes {
        if matches!(o.kind, OutcomeKind::Corrupt | OutcomeKind::RemoteError) {
            fail(format!(
                "I1: client {} batch {} got {:?}: {}",
                o.client, o.batch, o.kind, o.detail
            ));
        }
    }
    let expected_batches = cfg.clients * cfg.batches_per_client;
    if outcomes.len() != expected_batches {
        fail(format!(
            "I1: {} outcomes for {} offered batches — a batch ended in silence or double-counted",
            outcomes.len(),
            expected_batches
        ));
    }
    let observed: u64 = outcomes.iter().map(|o| o.n_reads).sum();
    if observed != cfg.offered_reads() {
        fail(format!(
            "I1: outcome reads {} != offered reads {}",
            observed,
            cfg.offered_reads()
        ));
    }

    // I2: the admitted ledger balances exactly. `accepted` includes the
    // force-closed stragglers (their workers did finish the batch), so
    // delivered answers must make up the difference precisely.
    if c("qnet.accepted") != hits + report.force_closed {
        fail(format!(
            "I2: accepted {} != delivered hits {} + force_closed {}",
            c("qnet.accepted"),
            hits,
            report.force_closed
        ));
    }

    // I3: shutdown left nothing behind.
    if snap.inflight != 0 {
        fail(format!(
            "I3: inflight {} != 0 after shutdown",
            snap.inflight
        ));
    }
    if snap.queue_depth != 0 {
        fail(format!(
            "I3: queue_depth {} != 0 after shutdown",
            snap.queue_depth
        ));
    }
    if !snap.draining {
        fail("I3: snapshot after shutdown does not say draining".to_string());
    }

    // I4: the live snapshot and the post-hoc trace rollup agree.
    for (label, live, rolled) in [
        ("accepted", snap.accepted, c("qnet.accepted")),
        ("rejected", snap.rejected, c("qnet.rejected")),
        ("deadline_shed", snap.deadline_shed, c("qnet.deadline_shed")),
        ("fairness_shed", snap.fairness_shed, c("qnet.fairness_shed")),
        (
            "force_closed",
            snap.force_closed,
            c("qnet.drain.force_closed"),
        ),
    ] {
        if live != rolled {
            fail(format!("I4: live {label} {live} != trace rollup {rolled}"));
        }
    }
    if snap.force_closed != report.force_closed {
        fail(format!(
            "I4: snapshot force_closed {} != drain report {}",
            snap.force_closed, report.force_closed
        ));
    }

    // I5: each gate's counter brackets its observed outcomes, with the
    // Io reads as the only slack (a typed response suppressed by a
    // racing force-close surfaces as EOF on the client side).
    for (label, counted, seen) in [
        ("deadline", c("qnet.deadline_shed"), deadline),
        ("fairness", c("qnet.fairness_shed"), fairness),
    ] {
        if counted < seen || counted > seen + io {
            fail(format!(
                "I5: {label} counter {counted} outside [{seen}, {}] (outcomes {seen} + io {io})",
                seen + io
            ));
        }
    }
    // Drain and queue sheds share the `rejected` counter; force-closed
    // stragglers also surface as Draining (or EOF) on the client.
    let rejected_like = c("qnet.rejected") + report.force_closed;
    if drain + queue > rejected_like {
        fail(format!(
            "I5: client drain {drain} + queue {queue} sheds exceed rejected {} + force_closed {}",
            c("qnet.rejected"),
            report.force_closed
        ));
    }
    if rejected_like > drain + queue + io {
        fail(format!(
            "I5: rejected {} + force_closed {} exceed observed drain {drain} + queue {queue} + io {io}",
            c("qnet.rejected"),
            report.force_closed
        ));
    }

    // I6: fairness tokens. With zero refill a bucket only ever moves by
    // whole admitted charges: spent = burst − tokens must be integral,
    // at least the client's accepted reads (each was charged exactly
    // once) and at most accepted + rejected (queue sheds and drain-swept
    // admissions were charged too; drain/deadline sheds never are).
    for cs in &snap.clients {
        let spent = cfg.burst - cs.tokens;
        if (spent - spent.round()).abs() > TOKEN_EPS {
            fail(format!(
                "I6: client {} spent {:.9} tokens — not an integral number of charges",
                cs.client_id, spent
            ));
        }
        let spent = spent.round() as i64;
        let lo = cs.accepted as i64;
        let hi = (cs.accepted + cs.rejected) as i64;
        if spent < lo || spent > hi {
            fail(format!(
                "I6: client {} spent {spent} tokens outside [{lo}, {hi}] \
                 (accepted {}, rejected {})",
                cs.client_id, cs.accepted, cs.rejected
            ));
        }
    }

    // I7: per-client sums equal the globals (double-entry bookkeeping).
    let sum = |pick: fn(&qnet::ClientStats) -> u64| snap.clients.iter().map(pick).sum::<u64>();
    for (label, global, summed) in [
        ("accepted", snap.accepted, sum(|c| c.accepted)),
        ("rejected", snap.rejected, sum(|c| c.rejected)),
        (
            "deadline_shed",
            snap.deadline_shed,
            sum(|c| c.deadline_shed),
        ),
        (
            "fairness_shed",
            snap.fairness_shed,
            sum(|c| c.fairness_shed),
        ),
    ] {
        if global != summed {
            fail(format!(
                "I7: global {label} {global} != per-client sum {summed}"
            ));
        }
    }

    // I8: a drain that claims completion force-closed nobody.
    if report.completed && report.force_closed != 0 {
        fail(format!(
            "I8: drain reported completed with {} reads force-closed",
            report.force_closed
        ));
    }

    v
}
