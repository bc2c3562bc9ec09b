//! # sched — cooperative deterministic scheduler for model checking
//!
//! The serving stack (`qnet` + `qserve` + `qrouter`) is threaded code
//! full of ordered admission gates, drain flags, and in-flight counters.
//! To *prove* the protocol's invariants rather than stress-test them,
//! `crates/schedcheck` runs the real server under this scheduler: every
//! racy transition in the instrumented code announces itself at a named
//! **schedule point** ([`point`]), every blocking wait becomes a pollable
//! predicate ([`wait_until`]), and a controller thread ([`Controller`])
//! grants exactly one task leave to run between any two points. The
//! sequence of grants *is* the interleaving; an exploration strategy
//! (exhaustive DFS, seeded random priorities) picks it.
//!
//! ## One way to block
//!
//! The serving crates block only through this module's primitives, each
//! of which decides for itself whether a controller drives the calling
//! thread:
//!
//! - [`wait`] — a condvar wait on a predicate, with an optional
//!   [`Deadline`];
//! - [`pause`] — a fixed hold (a backoff, a chaos stall);
//! - [`Deadline`] — a point on the virtual or the wall clock;
//! - [`spawn`] / [`spawn_scoped`] — a thread that is also a task, joined
//!   by [`Thread::join`] / [`join_scoped`].
//!
//! Code built on them runs the same lines with and without a controller;
//! only the lines inside each primitive differ. Two waits are not condvar
//! waits and keep their own fork: `qnet`'s accept loop (a blocking
//! `accept` cannot be a schedule point, so under a controller it polls a
//! non-blocking listener) and `qrouter`'s gather wait `await_any` (on the
//! wall clock it waits on a shard's socket; on the virtual clock it is a
//! [`wait_until_deadline`] on the same readiness probe).
//!
//! ## No scheduler, no cost
//!
//! All hooks early-return on a relaxed [`AtomicBool`] load when no
//! controller is installed, and threads that were not spawned as tasks
//! pass through even when one is. Production serving pays one
//! predictable branch per point.
//!
//! ## Virtual time
//!
//! The scheduler owns a virtual clock ([`virtual_now_ms`]): it advances
//! **only** when the controller grants a step (1 ms per grant) or jumps it
//! to the earliest timed waiter's deadline when every task is blocked
//! ([`wait_until_deadline`]). A [`Deadline`] taken on a task reads this
//! clock, so "the budget expired while the request sat in the queue" is
//! a *schedule* (a deterministic, replayable choice) rather than a
//! wall-clock accident.
//!
//! ## Task lifecycle
//!
//! A thread participates as a **task**. [`spawn`] announces the task
//! *before* the OS thread exists (so the controller knows a task is
//! coming and will not treat the system as quiescent), and the child
//! registers as its first act; the task is marked exited when its body
//! returns. Real threads block on condvars while waiting for grants —
//! there is no busy-wait in the tasks themselves.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle, Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};
use stdx::lock;

/// Index of a task in the controller's registry (dense, spawn order).
pub type TaskId = usize;

/// Registered-task guard; dropping it marks the task exited.
#[derive(Debug)]
struct TaskGuard {
    id: TaskId,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    /// Announced, thread not yet running — blocks quiescence.
    NotStarted,
    /// Granted (or just begun) and executing towards its next point.
    Running,
    /// Parked at a schedule point, eligible for a grant.
    AtPoint(String),
    /// Parked in [`wait_until`] with a false predicate. `wake_at_ms`
    /// carries a virtual-clock deadline for timed waits.
    Blocked {
        point: String,
        wake_at_ms: Option<u64>,
    },
    /// Controller asked the task to re-evaluate its predicate once.
    Repoll,
    /// Task finished (guard dropped).
    Exited,
}

#[derive(Debug)]
struct Task {
    name: String,
    phase: Phase,
}

#[derive(Debug, Default)]
struct State {
    tasks: Vec<Task>,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the controller on any task phase change.
    ctl: Condvar,
    /// Wakes tasks (broadcast; each re-checks its own phase).
    tasks: Condvar,
    clock_ms: AtomicU64,
}

static INSTALLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Arc<Shared>>> = Mutex::new(None);

thread_local! {
    static CURRENT: std::cell::Cell<Option<TaskId>> = const { std::cell::Cell::new(None) };
}

/// `Condvar::wait_timeout` without the poisoning (see [`stdx::lock`]).
fn wait_for<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

fn shared() -> Option<Arc<Shared>> {
    if !INSTALLED.load(Ordering::Relaxed) {
        return None;
    }
    lock(&GLOBAL).clone()
}

/// True if a [`Controller`] is installed (process-wide).
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// True if a controller is installed *and* the calling thread is a
/// registered task. [`wait`], [`pause`] and [`Deadline`] choose their
/// checked form on it; the one caller outside this module is `qnet`'s
/// accept loop, whose blocking `accept` cannot be a schedule point.
pub fn active() -> bool {
    installed() && CURRENT.with(|c| c.get().is_some())
}

/// The virtual clock in milliseconds, if a controller is installed.
pub fn virtual_now_ms() -> Option<u64> {
    shared().map(|s| s.clock_ms.load(Ordering::SeqCst))
}

/// Announce a task the spawner is about to create. Returns `None` when no
/// controller is installed (the common case — [`spawn`] threads the
/// `None` straight through to [`begin`]).
fn announce(name: &str) -> Option<TaskId> {
    let s = shared()?;
    let mut st = lock(&s.state);
    st.tasks.push(Task {
        name: name.to_string(),
        phase: Phase::NotStarted,
    });
    s.ctl.notify_all();
    Some(st.tasks.len() - 1)
}

/// Register the calling thread as the announced task. First act of the
/// spawned closure; keep the guard alive for the thread's whole life.
fn begin(task: Option<TaskId>) -> Option<TaskGuard> {
    let id = task?;
    let s = shared()?;
    CURRENT.with(|c| c.set(Some(id)));
    let mut st = lock(&s.state);
    st.tasks[id].phase = Phase::Running;
    s.ctl.notify_all();
    Some(TaskGuard { id })
}

impl Drop for TaskGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(None));
        if let Some(s) = lock(&GLOBAL).clone() {
            let mut st = lock(&s.state);
            if let Some(t) = st.tasks.get_mut(self.id) {
                t.phase = Phase::Exited;
            }
            s.ctl.notify_all();
        }
    }
}

/// True once the task registered under `id` has exited. Used as the
/// predicate for scheduler-aware joins: the `Exited` mark is set by the
/// dying thread *before* the OS thread terminates, so readiness is a pure
/// function of scheduler state (deterministic), and the real `join()`
/// that follows blocks only for the final few microseconds of teardown.
fn task_finished(id: TaskId) -> bool {
    match shared() {
        Some(s) => matches!(
            lock(&s.state).tasks.get(id).map(|t| &t.phase),
            Some(Phase::Exited)
        ),
        None => true,
    }
}

/// Park at schedule point `name` until the controller grants this task a
/// step. No-op for unregistered threads and when no controller is
/// installed.
pub fn point(name: &str) {
    if !INSTALLED.load(Ordering::Relaxed) {
        return;
    }
    let Some(id) = CURRENT.with(|c| c.get()) else {
        return;
    };
    let Some(s) = shared() else { return };
    park_at_point(&s, id, name);
}

fn park_at_point(s: &Shared, id: TaskId, name: &str) {
    let mut st = lock(&s.state);
    st.tasks[id].phase = Phase::AtPoint(name.to_string());
    s.ctl.notify_all();
    while st.tasks[id].phase != Phase::Running {
        // If the controller was dropped mid-schedule (a violation abort),
        // stop waiting for grants that will never come and free-run.
        if !INSTALLED.load(Ordering::Relaxed) {
            st.tasks[id].phase = Phase::Running;
            break;
        }
        st = wait_for(&s.tasks, st, Duration::from_millis(50));
    }
}

/// Pollable wait: park at `name` until `ready()` is true, then take a
/// normal grant at the same point. `ready` must be a side-effect-free
/// probe (a lock peek, a non-consuming socket `peek`, an atomic load) —
/// the controller re-runs it one task at a time, so between the probe
/// returning true and the grant nothing else executes. No-op (immediate
/// return) for unregistered threads.
pub fn wait_until(name: &str, ready: &mut dyn FnMut() -> bool) {
    wait_until_inner(name, None, ready)
}

/// [`wait_until`] with a virtual-clock deadline: when every task in the
/// system is blocked, the controller jumps the clock to the earliest
/// `wake_at_ms` so timed waits (drain deadlines) expire deterministically.
/// `ready` should itself consult [`virtual_now_ms`] to observe the expiry.
pub fn wait_until_deadline(name: &str, wake_at_ms: u64, ready: &mut dyn FnMut() -> bool) {
    wait_until_inner(name, Some(wake_at_ms), ready)
}

fn wait_until_inner(name: &str, wake_at_ms: Option<u64>, ready: &mut dyn FnMut() -> bool) {
    if !INSTALLED.load(Ordering::Relaxed) {
        return;
    }
    let Some(id) = CURRENT.with(|c| c.get()) else {
        return;
    };
    let Some(s) = shared() else { return };
    loop {
        // Torn-down controller: fall through to the caller's real
        // blocking behavior rather than polling a dead scheduler.
        if !INSTALLED.load(Ordering::Relaxed) {
            return;
        }
        if ready() {
            park_at_point(&s, id, name);
            return;
        }
        let mut st = lock(&s.state);
        st.tasks[id].phase = Phase::Blocked {
            point: name.to_string(),
            wake_at_ms,
        };
        s.ctl.notify_all();
        while !matches!(st.tasks[id].phase, Phase::Repoll | Phase::Running) {
            if !INSTALLED.load(Ordering::Relaxed) {
                st.tasks[id].phase = Phase::Running;
                return;
            }
            st = wait_for(&s.tasks, st, Duration::from_millis(50));
        }
        // Controller asked for a re-poll (or granted us straight through);
        // drop the lock and re-run the predicate.
    }
}

/// A point on the calling thread's clock: the scheduler's virtual
/// milliseconds while a controller drives the thread, the wall clock
/// otherwise. One thread's deadlines are all of one kind, so the order is
/// the clock's. Virtual arithmetic saturates: a clock the controller
/// jumped to `u64::MAX` makes every deadline pass rather than wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Deadline {
    /// Virtual milliseconds since the controller was installed.
    Virtual(u64),
    Wall(Instant),
}

impl Deadline {
    /// `d` from now, with no floor: a zero budget has already passed.
    pub fn after(d: Duration) -> Deadline {
        if active() {
            let ms = u64::try_from(d.as_millis()).unwrap_or(u64::MAX);
            Deadline::Virtual(virtual_now_ms().unwrap_or(0).saturating_add(ms))
        } else {
            Deadline::Wall(Instant::now() + d)
        }
    }

    /// `ms` from now; at least one virtual millisecond, so that a timed
    /// wait under a controller always yields to the other tasks.
    pub fn after_ms(ms: u64) -> Deadline {
        let ms = if active() { ms.max(1) } else { ms };
        Deadline::after(Duration::from_millis(ms))
    }

    /// True once the clock reached the deadline. A virtual deadline
    /// counts as passed once the controller is gone, so a task that
    /// free-runs after an aborted schedule never waits on a clock that
    /// no longer moves.
    pub fn passed(self) -> bool {
        match self {
            Deadline::Virtual(at) => virtual_now_ms().unwrap_or(u64::MAX) >= at,
            Deadline::Wall(at) => Instant::now() >= at,
        }
    }

    /// Wall time left; zero on the virtual clock.
    pub fn remaining(self) -> Duration {
        match self {
            Deadline::Virtual(_) => Duration::ZERO,
            Deadline::Wall(at) => at.saturating_duration_since(Instant::now()),
        }
    }

    /// Block until the deadline passes: a timed wait at schedule point
    /// `name` on the virtual clock, a sleep on the wall clock.
    pub fn sleep(self, name: &str) {
        match self {
            Deadline::Virtual(at) => wait_until_deadline(name, at, &mut || self.passed()),
            Deadline::Wall(_) => thread::sleep(self.remaining()),
        }
    }
}

/// Block until `ready` holds for the value behind `m`, or `until`
/// passes. Returns the locked guard and whether `ready` held on it.
/// Whoever changes what `ready` reads notifies `cv` after the change.
///
/// Under a controller the wait is schedule point `name`: [`wait_until`]
/// when `until` is `None` (an untimed wait never moves the virtual
/// clock), [`wait_until_deadline`] otherwise, then the lock is taken.
/// Without one it is the condvar loop.
pub fn wait<'a, T>(
    name: &str,
    m: &'a Mutex<T>,
    cv: &Condvar,
    until: Option<Deadline>,
    ready: impl Fn(&T) -> bool,
) -> (MutexGuard<'a, T>, bool) {
    if active() {
        let mut probe = || ready(&lock(m)) || until.is_some_and(Deadline::passed);
        match until {
            Some(Deadline::Virtual(at)) => wait_until_deadline(name, at, &mut probe),
            _ => wait_until(name, &mut probe),
        }
        let guard = lock(m);
        let held = ready(&guard);
        return (guard, held);
    }
    let mut guard = lock(m);
    loop {
        if ready(&guard) {
            return (guard, true);
        }
        guard = match until {
            None => cv.wait(guard).unwrap_or_else(PoisonError::into_inner),
            Some(d) if d.passed() => return (guard, false),
            Some(d) => wait_for(cv, guard, d.remaining()),
        };
    }
}

/// Hold the calling thread for `d`: a bare schedule point `name` under a
/// controller (whose clock moves only at grants, so a real sleep would
/// stall the whole schedule), `thread::sleep` otherwise.
pub fn pause(name: &str, d: Duration) {
    if active() {
        point(name);
    } else {
        thread::sleep(d);
    }
}

/// A thread started by [`spawn`]; under a controller, also a task.
#[derive(Debug)]
pub struct Thread<T> {
    handle: JoinHandle<T>,
    task: Option<TaskId>,
}

/// A thread started by [`spawn_scoped`]; join it with [`join_scoped`].
#[derive(Debug)]
pub struct ScopedThread<'scope, T> {
    handle: ScopedJoinHandle<'scope, T>,
    task: Option<TaskId>,
}

/// Run `body` on a new thread named `name`. Under a controller the thread
/// is task `name`: announced before the spawn, so the controller counts it
/// from the moment it is promised, and registered as the thread's first
/// act. Dropping the [`Thread`] detaches it.
pub fn spawn<T: Send + 'static>(
    name: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> Thread<T> {
    let task = announce(name);
    let handle = thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let _task = begin(task);
            body()
        })
        .expect("spawn thread");
    Thread { handle, task }
}

/// [`spawn`] inside `scope`.
pub fn spawn_scoped<'scope, 'env, T: Send + 'scope>(
    scope: &'scope Scope<'scope, 'env>,
    name: &str,
    body: impl FnOnce() -> T + Send + 'scope,
) -> ScopedThread<'scope, T> {
    let task = announce(name);
    let handle = thread::Builder::new()
        .name(name.to_string())
        .spawn_scoped(scope, move || {
            let _task = begin(task);
            body()
        })
        .expect("spawn scoped thread");
    ScopedThread { handle, task }
}

/// Park at `name` until every task in `tasks` has exited; no point at
/// all when there is none.
fn await_exit(name: &str, tasks: &[TaskId]) {
    if !tasks.is_empty() {
        wait_until(name, &mut || tasks.iter().all(|&id| task_finished(id)));
    }
}

impl<T> Thread<T> {
    /// Wait for the thread and take what its body returned (`Err` if it
    /// panicked). Under a controller the joiner first parks at schedule
    /// point `name` until the task has exited, so the tasks it waits for
    /// can still be granted the steps they need to finish.
    pub fn join(self, name: &str) -> thread::Result<T> {
        await_exit(name, self.task.as_slice());
        self.handle.join()
    }
}

/// Join `threads` after one wait at schedule point `name` for all of
/// them, however many there are. A panic in any of them resumes on the
/// caller, as at the end of a `thread::scope`.
pub fn join_scoped<T>(name: &str, threads: Vec<ScopedThread<'_, T>>) -> Vec<T> {
    let tasks: Vec<TaskId> = threads.iter().filter_map(|t| t.task).collect();
    await_exit(name, &tasks);
    threads
        .into_iter()
        .map(|t| {
            t.handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p))
        })
        .collect()
}

/// A schedulable choice: `task` is parked at `point` and may be granted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    pub task: TaskId,
    pub task_name: String,
    pub point: String,
}

/// What [`Controller::step`] found after the system went quiescent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepState {
    /// These tasks are parked at points; grant exactly one.
    Enabled(Vec<Candidate>),
    /// Every registered task has exited — the schedule is complete.
    AllExited,
}

/// The scheduler itself failed to make progress — distinct from a
/// protocol-invariant violation, but reported the same way by schedcheck.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedViolation {
    /// Every live task is blocked on an untimed predicate that never
    /// became true: the real code deadlocked under this schedule.
    Deadlock { tasks: Vec<String> },
    /// Real-time watchdog: a task ran (or an effect stayed in flight)
    /// past the wall-clock budget without reaching a point.
    Hang { tasks: Vec<String> },
}

impl std::fmt::Display for SchedViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedViolation::Deadlock { tasks } => {
                write!(f, "schedule deadlock; task states: {}", tasks.join("; "))
            }
            SchedViolation::Hang { tasks } => {
                write!(
                    f,
                    "schedule hang (watchdog); task states: {}",
                    tasks.join("; ")
                )
            }
        }
    }
}

impl std::error::Error for SchedViolation {}

/// Wall-clock budget for the system to go quiescent after a grant.
const WATCHDOG: Duration = Duration::from_secs(10);
/// Settle probe between re-poll rounds, letting in-flight loopback
/// effects (a written frame, a dying thread) land before the enabled set
/// is frozen. This bounds real time, never virtual time — the virtual
/// clock and the recorded schedule are unaffected by how long settling
/// takes.
const SETTLE: Duration = Duration::from_micros(50);
/// Max virtual-clock jumps with zero enabled tasks before declaring
/// deadlock (guards against a timed wait whose predicate ignores the
/// clock it asked to be woken on).
const MAX_CLOCK_JUMPS: u64 = 10_000;

/// Installs as the process-wide scheduler on construction, drives the
/// registered tasks step by step, uninstalls on drop. One at a time per
/// process — callers (schedcheck) serialize schedule executions behind a
/// global mutex.
#[derive(Debug)]
pub struct Controller {
    shared: Arc<Shared>,
}

impl Default for Controller {
    fn default() -> Self {
        Self::install()
    }
}

impl Controller {
    /// Install a fresh scheduler. Panics if one is already installed —
    /// overlapping model-check runs cannot share a task registry.
    pub fn install() -> Controller {
        let mut global = lock(&GLOBAL);
        assert!(global.is_none(), "a sched::Controller is already installed");
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            ctl: Condvar::new(),
            tasks: Condvar::new(),
            clock_ms: AtomicU64::new(0),
        });
        *global = Some(shared.clone());
        INSTALLED.store(true, Ordering::SeqCst);
        Controller { shared }
    }

    /// Current virtual clock (milliseconds).
    pub fn clock_ms(&self) -> u64 {
        self.shared.clock_ms.load(Ordering::SeqCst)
    }

    fn dump(&self) -> Vec<String> {
        let st = lock(&self.shared.state);
        st.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| format!("#{i} {}: {:?}", t.name, t.phase))
            .collect()
    }

    /// Wait until no task is `NotStarted`, `Running`, or `Repoll`.
    fn wait_quiescent(&self) -> Result<(), SchedViolation> {
        let deadline = Instant::now() + WATCHDOG;
        let mut st = lock(&self.shared.state);
        loop {
            let busy = st
                .tasks
                .iter()
                .any(|t| matches!(t.phase, Phase::NotStarted | Phase::Running | Phase::Repoll));
            if !busy {
                return Ok(());
            }
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                drop(st);
                return Err(SchedViolation::Hang { tasks: self.dump() });
            }
            st = wait_for(&self.shared.ctl, st, timeout);
        }
    }

    /// Ask every blocked task (in id order) to re-run its predicate once.
    /// Returns true if any moved to `AtPoint`.
    fn repoll_blocked(&self) -> Result<bool, SchedViolation> {
        let mut progressed = false;
        let n = lock(&self.shared.state).tasks.len();
        for id in 0..n {
            let deadline = Instant::now() + WATCHDOG;
            let mut st = lock(&self.shared.state);
            if !matches!(st.tasks[id].phase, Phase::Blocked { .. }) {
                continue;
            }
            st.tasks[id].phase = Phase::Repoll;
            self.shared.tasks.notify_all();
            while st.tasks[id].phase == Phase::Repoll {
                let timeout = deadline.saturating_duration_since(Instant::now());
                if timeout.is_zero() {
                    drop(st);
                    return Err(SchedViolation::Hang { tasks: self.dump() });
                }
                st = wait_for(&self.shared.ctl, st, timeout);
            }
            if matches!(st.tasks[id].phase, Phase::AtPoint(_)) {
                progressed = true;
            }
        }
        Ok(progressed)
    }

    /// Drive the system to its next decision: returns the enabled set, or
    /// `AllExited` when the schedule has run to completion.
    pub fn step(&self) -> Result<StepState, SchedViolation> {
        let mut clock_jumps = 0u64;
        let stall_deadline = Instant::now() + WATCHDOG;
        loop {
            self.wait_quiescent()?;
            // Re-poll to a fixed point, then one settle pass so loopback
            // effects already caused by the previous grant become visible
            // before the enabled set is frozen.
            while self.repoll_blocked()? {}
            std::thread::sleep(SETTLE);
            if self.repoll_blocked()? {
                continue;
            }
            let (enabled, all_exited, min_wake) = {
                let st = lock(&self.shared.state);
                let enabled: Vec<Candidate> = st
                    .tasks
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match &t.phase {
                        Phase::AtPoint(p) => Some(Candidate {
                            task: i,
                            task_name: t.name.clone(),
                            point: p.clone(),
                        }),
                        _ => None,
                    })
                    .collect();
                let all_exited = st.tasks.iter().all(|t| t.phase == Phase::Exited);
                let min_wake = st
                    .tasks
                    .iter()
                    .filter_map(|t| match t.phase {
                        Phase::Blocked { wake_at_ms, .. } => wake_at_ms,
                        _ => None,
                    })
                    .min();
                (enabled, all_exited, min_wake)
            };
            if !enabled.is_empty() {
                return Ok(StepState::Enabled(enabled));
            }
            if all_exited {
                return Ok(StepState::AllExited);
            }
            // Every live task is blocked. Timed waiters let us jump the
            // virtual clock deterministically; otherwise give in-flight
            // real effects (socket data, thread death) bounded wall time
            // to land before declaring deadlock.
            if let Some(wake) = min_wake {
                let now = self.shared.clock_ms.load(Ordering::SeqCst);
                self.shared.clock_ms.store(now.max(wake), Ordering::SeqCst);
                clock_jumps += 1;
                if clock_jumps > MAX_CLOCK_JUMPS {
                    return Err(SchedViolation::Deadlock { tasks: self.dump() });
                }
                continue;
            }
            if Instant::now() >= stall_deadline {
                return Err(SchedViolation::Deadlock { tasks: self.dump() });
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Grant `task` (which must be `AtPoint`) one step; advances the
    /// virtual clock by 1 ms.
    pub fn grant(&self, task: TaskId) {
        let mut st = lock(&self.shared.state);
        assert!(
            matches!(st.tasks[task].phase, Phase::AtPoint(_)),
            "grant of task #{task} ({}) not at a point: {:?}",
            st.tasks[task].name,
            st.tasks[task].phase
        );
        st.tasks[task].phase = Phase::Running;
        self.shared.clock_ms.fetch_add(1, Ordering::SeqCst);
        self.shared.tasks.notify_all();
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        INSTALLED.store(false, Ordering::SeqCst);
        // Release any task still parked so its thread can unwind instead
        // of waiting forever on a scheduler that no longer exists.
        let mut st = lock(&self.shared.state);
        for t in st.tasks.iter_mut() {
            if !matches!(t.phase, Phase::Exited) {
                t.phase = Phase::Running;
            }
        }
        self.shared.tasks.notify_all();
        drop(st);
        *lock(&GLOBAL) = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    // The process-wide install point forces sched tests to run one at a
    // time; the public harness (schedcheck) shares the same discipline.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn hooks_are_noops_without_a_controller() {
        let _serial = lock(&SERIAL);
        assert!(!installed());
        assert!(!active());
        assert_eq!(virtual_now_ms(), None);
        point("free.point");
        wait_until("free.wait", &mut || false); // must return immediately
        assert!(announce("t").is_none());
        assert!(begin(None).is_none());
        assert!(task_finished(7));
    }

    #[test]
    fn controller_serializes_two_tasks_and_replays_a_schedule() {
        let _serial = lock(&SERIAL);
        let run = |order: &[usize]| -> Vec<String> {
            let ctl = Controller::install();
            let shared_log = Arc::new(Mutex::new(Vec::new()));
            let mut handles = Vec::new();
            for name in ["a", "b"] {
                let tok = announce(name);
                let log = shared_log.clone();
                handles.push(std::thread::spawn(move || {
                    let _g = begin(tok);
                    point(&format!("{name}.one"));
                    lock(&log).push(format!("{name}1"));
                    point(&format!("{name}.two"));
                    lock(&log).push(format!("{name}2"));
                }));
            }
            let mut picks = order.iter().copied();
            loop {
                match ctl.step().unwrap() {
                    StepState::AllExited => break,
                    StepState::Enabled(mut cands) => {
                        cands.sort_by_key(|c| c.task);
                        let want = picks.next().unwrap_or(0);
                        let pick = cands
                            .iter()
                            .find(|c| c.task == want)
                            .unwrap_or(&cands[0])
                            .task;
                        ctl.grant(pick);
                    }
                }
            }
            drop(ctl);
            for h in handles {
                h.join().unwrap();
            }
            Arc::try_unwrap(shared_log).unwrap().into_inner().unwrap()
        };
        // Alternating grants interleave the logs; pinning task 0 first
        // runs "a" to completion before "b" touches the log.
        assert_eq!(run(&[0, 1, 0, 1]), vec!["a1", "b1", "a2", "b2"]);
        assert_eq!(run(&[0, 0, 1, 1]), vec!["a1", "a2", "b1", "b2"]);
        // Replay: the same pick sequence yields the same log, twice.
        assert_eq!(run(&[1, 0, 1, 0]), run(&[1, 0, 1, 0]));
    }

    #[test]
    fn wait_until_parks_until_predicate_flips_and_timed_waits_jump_clock() {
        let _serial = lock(&SERIAL);
        let ctl = Controller::install();
        let flag = Arc::new(AtomicUsize::new(0));

        let tok = announce("setter");
        let f = flag.clone();
        let setter = std::thread::spawn(move || {
            let _g = begin(tok);
            point("setter.go");
            f.store(1, Ordering::SeqCst);
        });

        let tok = announce("waiter");
        let f = flag.clone();
        let waiter = std::thread::spawn(move || {
            let _g = begin(tok);
            wait_until("waiter.ready", &mut || f.load(Ordering::SeqCst) == 1);
            // After the flag: a timed wait that only virtual time satisfies.
            let wake = virtual_now_ms().unwrap() + 50;
            wait_until_deadline("waiter.deadline", wake, &mut || {
                virtual_now_ms().unwrap() >= wake
            });
        });

        let mut trace = Vec::new();
        loop {
            match ctl.step().unwrap() {
                StepState::AllExited => break,
                StepState::Enabled(cands) => {
                    // Grant in deterministic (task-id) order.
                    let pick = cands.iter().min_by_key(|c| c.task).unwrap();
                    trace.push(pick.point.clone());
                    ctl.grant(pick.task);
                }
            }
        }
        // The waiter could not pass "waiter.ready" before the setter ran,
        // and the timed wait forced a clock jump to at least `wake`.
        assert_eq!(trace, vec!["setter.go", "waiter.ready", "waiter.deadline"]);
        assert!(ctl.clock_ms() >= 50);
        drop(ctl);
        setter.join().unwrap();
        waiter.join().unwrap();
    }

    /// Grant the lowest-id candidate until every task has exited; the
    /// points granted, each with the clock just before its grant.
    fn drive_lowest(ctl: &Controller) -> Vec<(String, u64)> {
        let mut trace = Vec::new();
        loop {
            match ctl.step().unwrap() {
                StepState::AllExited => return trace,
                StepState::Enabled(cands) => {
                    let pick = cands.iter().min_by_key(|c| c.task).unwrap();
                    trace.push((pick.point.clone(), ctl.clock_ms()));
                    ctl.grant(pick.task);
                }
            }
        }
    }

    #[test]
    fn wait_returns_on_notify_without_a_controller() {
        let _serial = lock(&SERIAL);
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let setter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                *lock(&pair.0) = true;
                pair.1.notify_all();
            })
        };
        let (guard, held) = wait("free.wait", &pair.0, &pair.1, None, |set| *set);
        assert!(held && *guard);
        drop(guard);
        setter.join().unwrap();
    }

    #[test]
    fn wait_gives_up_at_a_wall_deadline() {
        let _serial = lock(&SERIAL);
        let (m, cv) = (Mutex::new(0u32), Condvar::new());
        let t0 = Instant::now();
        let until = Deadline::after_ms(20);
        assert!(matches!(until, Deadline::Wall(_)));
        let (guard, held) = wait("free.wait", &m, &cv, Some(until), |n| *n > 0);
        assert!(!held);
        assert_eq!(*guard, 0);
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(until.passed());
    }

    #[test]
    fn spawned_threads_hand_back_their_value_or_their_panic() {
        let _serial = lock(&SERIAL);
        assert_eq!(spawn("free.value", || 6 * 7).join("free.join").unwrap(), 42);
        let panicked = spawn("free.panic", || -> u32 { panic!("body panicked") });
        assert!(panicked.join("free.join").is_err());
    }

    #[test]
    fn a_timed_wait_passes_its_deadline_once_the_clock_jumps() {
        let _serial = lock(&SERIAL);
        let ctl = Controller::install();
        let waiter = spawn("waiter", || {
            let (m, cv) = (Mutex::new(false), Condvar::new());
            let until = Deadline::after_ms(50);
            let held = wait("waiter.deadline", &m, &cv, Some(until), |set| *set).1;
            (until, held, until.passed())
        });
        let trace = drive_lowest(&ctl);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].0, "waiter.deadline");
        assert!(ctl.clock_ms() >= 50);
        drop(ctl);
        let (until, held, passed) = waiter.join("test.join").unwrap();
        assert_eq!(until, Deadline::Virtual(50));
        assert!(!held && passed);
    }

    #[test]
    fn an_untimed_wait_leaves_the_virtual_clock_where_it_was() {
        let _serial = lock(&SERIAL);
        let ctl = Controller::install();
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            spawn("waiter", move || {
                wait("waiter.ready", &pair.0, &pair.1, None, |set| *set).1
            })
        };
        // Not a task: the flag flips in real time while the waiter is the
        // only task and is blocked, so nothing but the controller's own
        // stall loop runs in between.
        let setter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                *lock(&pair.0) = true;
                pair.1.notify_all();
            })
        };
        let trace = drive_lowest(&ctl);
        assert_eq!(trace, vec![("waiter.ready".to_string(), 0)]);
        assert_eq!(ctl.clock_ms(), 1, "only the grant moved the clock");
        drop(ctl);
        assert!(waiter.join("test.join").unwrap());
        setter.join().unwrap();
    }
}
