//! The one harness every scenario runs on: install the controller,
//! spawn the scripted tasks, drive the grant loop, join, and roll the
//! trace up — plus the fixtures (reference contigs, engines, query
//! scripts, server and client configs) the scenarios share.
//!
//! A scenario is its *script* (which tasks exist and what each does
//! between schedule points) and its *invariants*; everything else
//! lives here. Scripted clients are real [`qnet::QueryClient`]s with
//! `max_retries: 0`, so each call is exactly one wire attempt whose
//! typed outcome comes back as a value ([`qnet::QnetError::last_attempt`])
//! and whose dial, send and response wait are the client's own
//! schedule points (`qnet.client.{connect,send,read}`).

use crate::sched_lock;
use crate::trace::GrantRecord;
use faultsim::sched::{self, Candidate, StepState};
use genome::PackedSeq;
use qnet::{ClientConfig, QueryClient, ServerConfig};
use qserve::{ContigStore, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::MutexGuard;
use std::time::Duration;

/// Base length of every scenario contig.
const CONTIG_BASES: usize = 600;
/// Base length of each query read.
pub(crate) const READ_BASES: usize = 60;
/// Hard cap on grants per schedule — a backstop far above what any
/// scenario needs (a full serving run takes a few hundred, a cluster
/// run with its scatter tasks a few thousand), so a runaway loop
/// becomes a reported violation instead of a wedged explorer.
const MAX_GRANTS: usize = 8_000;
/// Socket timeouts on both ends. Generous: they only matter after an
/// abnormal teardown, when tasks free-run without a scheduler.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// The minimizer geometry every scenario index is built with.
pub(crate) const INDEX: IndexConfig = IndexConfig {
    k: 9,
    w: 5,
    threads: 1,
};

/// A deterministic scenario contig: bases from the repo's splitmix64
/// mixer, so every run (and every process) builds the same sequence
/// for the same `seed`.
pub(crate) fn contig(seed: u64) -> PackedSeq {
    let mut codes = Vec::with_capacity(CONTIG_BASES);
    let mut x: u64 = 0x5eed_cafe_f00d_0000 + seed;
    while codes.len() < CONTIG_BASES {
        x = stdx::splitmix64(x);
        // 32 two-bit codes per mixed word.
        let mut w = x;
        for _ in 0..32 {
            if codes.len() == CONTIG_BASES {
                break;
            }
            codes.push((w & 3) as u8);
            w >>= 2;
        }
    }
    PackedSeq::from_codes(&codes)
}

/// An in-memory engine over `contigs` — the system under test's, or an
/// independent oracle's.
pub(crate) fn build_engine(contigs: &[PackedSeq]) -> QueryEngine {
    let store = ContigStore::from_contigs(contigs.to_vec());
    let index = MinimizerIndex::build(&store, &INDEX);
    QueryEngine::new(store, index, QueryConfig::default()).expect("scenario engine binds")
}

/// Deterministic query script: read `q` is a striding 60-base window of
/// `reference`, alternating strands (the `tests/qnet_stats.rs` idiom).
pub(crate) fn query(reference: &PackedSeq, q: usize) -> PackedSeq {
    let start = (q * 37) % (reference.len() - READ_BASES + 1);
    let s = reference.slice(start, READ_BASES);
    if q.is_multiple_of(2) {
        s
    } else {
        s.reverse_complement()
    }
}

/// The server settings no scenario varies: ephemeral loopback port,
/// generous socket timeouts, no chaos stall. Scenarios fill in drain
/// deadline, admission and reload with struct-update syntax.
pub(crate) fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        read_timeout: IO_TIMEOUT,
        write_timeout: IO_TIMEOUT,
        stall_ms: 0,
        ..ServerConfig::default()
    }
}

/// A scripted client: one wire attempt per call, typed outcomes handed
/// back as values.
pub(crate) fn client(addr: SocketAddr, client_id: String, deadline_ms: u32) -> QueryClient {
    QueryClient::new(
        ClientConfig {
            addr: addr.to_string(),
            client_id,
            deadline_ms,
            max_retries: 0,
            read_timeout: IO_TIMEOUT,
            write_timeout: IO_TIMEOUT,
            ..ClientConfig::default()
        },
        &obs::Recorder::disabled(),
    )
}

/// A scripted task spawned under the harness; [`Driven::join`] collects
/// what it returned.
pub(crate) struct Task<T> {
    name: String,
    thread: sched::Thread<T>,
}

/// One schedule execution in progress: holds the process-wide schedule
/// lock and the installed controller.
pub(crate) struct Harness {
    exclusive: MutexGuard<'static, ()>,
    ctl: sched::Controller,
    /// Records the run's trace events; hand clones to the system under
    /// test.
    pub rec: obs::Recorder,
}

impl Harness {
    /// Take the schedule lock and install a fresh controller. Start the
    /// system under test after this, so its worker and accept tasks
    /// announce themselves — in deterministic order — ahead of the
    /// scripted ones.
    pub fn install() -> Harness {
        let exclusive = sched_lock();
        Harness {
            exclusive,
            ctl: sched::Controller::install(),
            rec: obs::Recorder::new(),
        }
    }

    /// Spawn scripted task `name`.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: &str,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> Task<T> {
        Task {
            name: name.to_string(),
            thread: sched::spawn(name, body),
        }
    }

    /// Drive the schedule to completion: at every enabled-set decision
    /// `picker` chooses which candidate to grant (candidates arrive
    /// sorted by task id). Uninstalls the controller on the way out —
    /// on an aborted schedule the tasks then free-run to completion; on
    /// a clean one everything has already exited.
    pub fn drive(self, picker: &mut dyn FnMut(&[Candidate], &[GrantRecord]) -> usize) -> Driven {
        let Harness {
            exclusive,
            ctl,
            rec,
        } = self;
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
        Driven {
            _exclusive: exclusive,
            rec,
            trace,
            sched_violation,
            panicked: Vec::new(),
        }
    }
}

/// A schedule that has been driven to its end (or aborted): join the
/// scripted tasks, then read the counters.
pub(crate) struct Driven {
    _exclusive: MutexGuard<'static, ()>,
    rec: obs::Recorder,
    /// The interleaving, one record per grant.
    pub trace: Vec<GrantRecord>,
    /// Scheduler-level failure (deadlock/hang/grant-cap), if any.
    pub sched_violation: Option<String>,
    panicked: Vec<String>,
}

impl Driven {
    /// Join a scripted task; a panic is recorded as a violation and
    /// yields `None`.
    pub fn join<T>(&mut self, task: Task<T>) -> Option<T> {
        // The controller is gone by now, so the join never parks.
        let joined = task.thread.join("harness.join").ok();
        if joined.is_none() {
            self.panicked
                .push(format!("scripted task {} panicked", task.name));
        }
        joined
    }

    /// Post-hoc roll-up of the run's trace events for `names`. Call
    /// after every task is joined.
    pub fn counters(&self, names: &[&str]) -> BTreeMap<String, u64> {
        self.rec.flush();
        let totals = obs::Rollup::from_events(&self.rec.events()).totals();
        names
            .iter()
            .map(|name| (name.to_string(), totals.counter(name)))
            .collect()
    }

    /// The run's violations so far: panicked tasks, then either the
    /// scheduler's own failure or — invariants only make sense on
    /// schedules that ran to completion — whatever `invariants` finds.
    pub fn violations(&mut self, invariants: impl FnOnce() -> Vec<String>) -> Vec<String> {
        let mut violations = std::mem::take(&mut self.panicked);
        match &self.sched_violation {
            Some(v) => violations.push(format!("scheduler: {v}")),
            None => violations.extend(invariants()),
        }
        violations
    }
}
