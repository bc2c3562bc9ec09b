//! Schedule traces: the serialized form of an interleaving.
//!
//! A trace is the sequence of grants the controller made — one
//! [`GrantRecord`] per scheduling decision. Two runs are *the same
//! interleaving* iff their `(task_name, point)` sequences match;
//! [`trace_hash`] fingerprints exactly that (task ids and clock values
//! are derived, so they are excluded from identity but kept in the
//! record for human debugging).
//!
//! Traces serialize to JSONL — one record per line — so a failing
//! schedule archived by CI can be replayed byte-for-byte with
//! [`crate::scenario::replay_trace`] and diffed line-by-line against
//! the reproduction.

/// One scheduling decision: at `step`, the controller granted `task`
/// (announced as `task_name`), which was parked at schedule point
/// `point`, while the virtual clock read `clock_ms`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantRecord {
    /// 0-based index of this grant in the schedule.
    pub step: u64,
    /// Scheduler task id (registration order; stable within a run but
    /// not part of interleaving identity).
    pub task: u64,
    /// The task's announced name — stable across runs of the same
    /// scenario, and the unit of interleaving identity.
    pub task_name: String,
    /// The schedule point the task was parked at when granted.
    pub point: String,
    /// Virtual clock at grant time, in milliseconds.
    pub clock_ms: u64,
}

stdx::impl_json!(struct GrantRecord { step, task, task_name, point, clock_ms });

/// FNV-1a fingerprint of the interleaving: folds each grant's
/// `task_name` and `point` (with separators so `("a", "bc")` and
/// `("ab", "c")` differ). Equal hashes on the scenario sizes explored
/// here mean equal `(task_name, point)` sequences for all practical
/// purposes; replay asserts equality through this hash.
pub fn trace_hash(trace: &[GrantRecord]) -> u64 {
    let mut h = gstream::Fnv64::new();
    for g in trace {
        h.update(g.task_name.as_bytes());
        h.update(b"@");
        h.update(g.point.as_bytes());
        h.update(b"\n");
    }
    h.finish()
}

/// Serialize a trace as JSONL: one [`GrantRecord`] object per line.
pub fn to_jsonl(trace: &[GrantRecord]) -> String {
    let mut out = String::new();
    for g in trace {
        // GrantRecord contains no map types, so serialization cannot fail.
        out.push_str(&stdx::json::to_string(g));
        out.push('\n');
    }
    out
}

/// Parse a JSONL trace produced by [`to_jsonl`]. Blank lines are
/// ignored; a malformed line reports its 1-based line number.
pub fn from_jsonl(text: &str) -> Result<Vec<GrantRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: GrantRecord =
            stdx::json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant(step: u64, name: &str, point: &str) -> GrantRecord {
        GrantRecord {
            step,
            task: step % 3,
            task_name: name.to_string(),
            point: point.to_string(),
            clock_ms: step,
        }
    }

    #[test]
    fn trace_hash_is_pinned() {
        let trace = [
            grant(0, "client0", "qnet.client.read"),
            grant(1, "drainer", "qnet.drain.set"),
        ];
        assert_eq!(trace_hash(&trace), 0x30ca_9188_1883_e798);
    }

    #[test]
    fn jsonl_round_trips_and_hash_tracks_identity() {
        let trace = vec![
            grant(0, "client0", "qnet.client.read"),
            grant(1, "worker0", "qserve.worker.dequeue"),
            grant(2, "drainer", "qnet.drain.set"),
        ];
        let text = to_jsonl(&trace);
        assert_eq!(text.lines().count(), 3);
        let back = from_jsonl(&text).expect("parse");
        assert_eq!(back, trace);
        assert_eq!(trace_hash(&back), trace_hash(&trace));

        // Identity is (task_name, point) only: perturbing derived fields
        // keeps the hash, perturbing the point changes it.
        let mut derived = trace.clone();
        derived[1].task = 9;
        derived[1].clock_ms = 99;
        assert_eq!(trace_hash(&derived), trace_hash(&trace));
        let mut other = trace.clone();
        other[1].point = "qserve.worker.exec".to_string();
        assert_ne!(trace_hash(&other), trace_hash(&trace));
    }

    #[test]
    fn an_explore_report_with_a_violation_round_trips_through_json() {
        // What `repro schedcheck` archives: counters plus replayable traces.
        let report = crate::ExploreReport {
            schedules_explored: 64,
            distinct_interleavings: 61,
            max_steps: 212,
            force_closed_runs: 3,
            violations: vec![crate::Violation {
                strategy: "pct:9".into(),
                detail: "I4: snapshot != rollup".into(),
                trace: vec![GrantRecord {
                    step: 0,
                    task: 2,
                    task_name: "sc.client0".into(),
                    point: "qnet.client.read".into(),
                    clock_ms: u64::MAX,
                }],
            }],
            ..Default::default()
        };
        let json = stdx::json::to_string_pretty(&report);
        let back: crate::ExploreReport = stdx::json::from_str(&json).unwrap();
        assert_eq!(stdx::json::to_string_pretty(&back), json);
        assert_eq!(back.violations[0].trace, report.violations[0].trace);
        assert_eq!(back.distinct_interleavings, 61);
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let text = format!("{}\nnot json\n", to_jsonl(&[grant(0, "a", "p")]).trim_end());
        let err = from_jsonl(&text).expect_err("must fail");
        assert!(err.contains("line 2"), "got: {err}");
    }
}
