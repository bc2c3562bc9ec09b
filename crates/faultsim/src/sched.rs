//! # sched — cooperative deterministic scheduler for model checking
//!
//! The serving stack (`qnet` + `qserve`) is threaded code full of ordered
//! admission gates, drain flags, and in-flight counters. To *prove* the
//! protocol's invariants rather than stress-test them, `crates/schedcheck`
//! runs the real server under this scheduler: every racy transition in the
//! instrumented code announces itself at a named **schedule point**
//! ([`point`]), every blocking wait becomes a pollable predicate
//! ([`wait_until`]), and a controller thread ([`Controller`]) grants
//! exactly one task leave to run between any two points. The sequence of
//! grants *is* the interleaving; an exploration strategy (exhaustive DFS,
//! seeded random priorities) picks it.
//!
//! ## No scheduler, no cost
//!
//! All hooks early-return on a relaxed [`AtomicBool`] load when no
//! controller is installed, and threads that never registered via
//! [`begin`] pass through even when one is. Production serving pays one
//! predictable branch per point.
//!
//! ## Virtual time
//!
//! The scheduler owns a virtual clock ([`virtual_now_ms`]): it advances
//! **only** when the controller grants a step (1 ms per grant) or jumps it
//! to the earliest timed waiter's deadline when every task is blocked
//! ([`wait_until_deadline`]). Deadline gates and drain timeouts in the
//! instrumented code consult this clock when a scheduler is installed, so
//! "the budget expired while the request sat in the queue" is a *schedule*
//! (a deterministic, replayable choice) rather than a wall-clock accident.
//!
//! ## Task lifecycle
//!
//! A thread participates as a **task**. The spawning side calls
//! [`announce`] *before* `thread::spawn` (so the controller knows a task
//! is coming and will not treat the system as quiescent), hands the
//! returned [`SpawnToken`] to the child, and the child calls [`begin`] as
//! its first act. Dropping the returned [`TaskGuard`] (or letting the
//! closure end) marks the task exited. Real threads block on condvars
//! while waiting for grants — there is no busy-wait in the tasks
//! themselves.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use stdx::lock;

/// Index of a task in the controller's registry (dense, spawn order).
pub type TaskId = usize;

/// Handed from [`announce`] (spawner side) to [`begin`] (child side).
#[derive(Debug)]
pub struct SpawnToken {
    id: TaskId,
}

impl SpawnToken {
    /// The task id this token will register as — stored by joiners so
    /// [`task_finished`] can be used as a deterministic join predicate.
    pub fn id(&self) -> TaskId {
        self.id
    }
}

/// Registered-task guard; dropping it marks the task exited.
#[derive(Debug)]
pub struct TaskGuard {
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
/// registered task. Instrumented code uses this to choose between its
/// normal blocking wait and the pollable [`wait_until`] path.
pub fn active() -> bool {
    installed() && CURRENT.with(|c| c.get().is_some())
}

/// The virtual clock in milliseconds, if a controller is installed.
pub fn virtual_now_ms() -> Option<u64> {
    shared().map(|s| s.clock_ms.load(Ordering::SeqCst))
}

/// Announce a task the spawner is about to create. Returns `None` when no
/// controller is installed (the common case — callers thread the `None`
/// straight through to [`begin`]).
pub fn announce(name: &str) -> Option<SpawnToken> {
    let s = shared()?;
    let mut st = lock(&s.state);
    st.tasks.push(Task {
        name: name.to_string(),
        phase: Phase::NotStarted,
    });
    let id = st.tasks.len() - 1;
    s.ctl.notify_all();
    Some(SpawnToken { id })
}

/// Register the calling thread as the announced task. First act of the
/// spawned closure; keep the guard alive for the thread's whole life.
pub fn begin(token: Option<SpawnToken>) -> Option<TaskGuard> {
    let token = token?;
    let s = shared()?;
    CURRENT.with(|c| c.set(Some(token.id)));
    let mut st = lock(&s.state);
    st.tasks[token.id].phase = Phase::Running;
    s.ctl.notify_all();
    Some(TaskGuard { id: token.id })
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
pub fn task_finished(id: TaskId) -> bool {
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
}
