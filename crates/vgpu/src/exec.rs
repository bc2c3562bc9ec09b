//! The workspace's one parallel-for: how the host executes a kernel.
//!
//! A kernel is *charged* as the paper launches it (a grid of thread blocks
//! in lock-step, [`crate::Device::charge_kernel`]) and *executed* however
//! the host does that work best: the fingerprint kernel is charged as a
//! log-step scan and executed as one sequential pass per read.
//!
//! Parallel execution is [`par_parts`]: a call is cut into at most
//! [`threads`] contiguous parts ([`part_len`] sizes them), the caller runs
//! the last part and the others run on `threads() - 1` helper threads
//! started on first use. There is no work stealing and no configuration: a
//! call shorter than its grain, or made from a helper, runs on the calling
//! thread alone. A parallel call pays one queue push and one thread wake-up
//! per extra part, and allocates nothing that another thread frees.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use stdx::lock;

/// Grain for calls that do a search or a copy per element: a wake-up costs
/// more than a few thousand of those.
pub const ELEMENT_GRAIN: usize = 4096;

/// What a helper runs: one part of one [`par_parts`] call.
trait Task: Sync {
    fn run(&self);
}

/// The helper threads' queue. The helpers live as long as the process and
/// hold nothing that must be released, so they are not joined.
struct Pool {
    tasks: Mutex<VecDeque<&'static dyn Task>>,
    ready: Condvar,
    helpers: usize,
}

thread_local! {
    static IS_HELPER: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            tasks: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            helpers: std::thread::available_parallelism().map_or(1, |n| n.get()) - 1,
        }));
        for helper in 0..pool.helpers {
            std::thread::Builder::new()
                .name(format!("vgpu-helper-{helper}"))
                .spawn(move || {
                    IS_HELPER.set(true);
                    // Tasks catch their own panics, so a helper never dies.
                    let mut tasks = lock(&pool.tasks);
                    loop {
                        match tasks.pop_front() {
                            Some(task) => {
                                drop(tasks);
                                task.run();
                                tasks = lock(&pool.tasks);
                            }
                            None => {
                                tasks = pool
                                    .ready
                                    .wait(tasks)
                                    .unwrap_or_else(PoisonError::into_inner);
                            }
                        }
                    }
                })
                .expect("spawning a pool helper thread");
        }
        pool
    })
}

/// Threads a parallel call can use: the machine's available parallelism.
pub fn threads() -> usize {
    pool().helpers + 1
}

/// The chunk length that cuts `len` items into at most [`threads`]
/// contiguous parts — or into one part when `len` is below `grain`, or the
/// caller is itself a helper. Never zero, so it is a valid `chunks` size.
pub fn part_len(len: usize, grain: usize) -> usize {
    let parts = if len < grain || IS_HELPER.get() {
        1
    } else {
        threads().min(len)
    };
    len.div_ceil(parts.max(1)).max(1)
}

type PartResult<R> = Result<R, Box<dyn Any + Send>>;

/// One queued part, living in its caller's frame. Nothing here is heap
/// memory handed from one thread to another: a block the caller allocates
/// and a helper frees lands in the helper's allocator cache, is reused for
/// the helper's next small buffer, and then shares cache lines with the
/// caller's own (measured: an allocating body ran 2x slower on two threads
/// than on one).
struct Queued<'a, P, R, B> {
    part: Mutex<Option<P>>,
    result: Mutex<Option<PartResult<R>>>,
    body: &'a B,
    /// Queued parts of this call still running.
    pending: &'a AtomicUsize,
    caller: &'a Thread,
}

impl<P: Send, R: Send, B: Fn(P) -> R + Sync> Task for Queued<'_, P, R, B> {
    fn run(&self) {
        let part = lock(&self.part).take().expect("a part is queued once");
        let result = catch_unwind(AssertUnwindSafe(|| (self.body)(part)));
        *lock(&self.result) = Some(result);
        // The caller may return as soon as it sees the count reach zero, so
        // the handle that wakes it is cloned before the count-down and
        // nothing of `self` is touched after it.
        let caller = self.caller.clone();
        // Release: the stored result happens-before the caller's Acquire
        // load that sees this decrement.
        if self.pending.fetch_sub(1, Ordering::Release) == 1 {
            caller.unpark();
        }
    }
}

/// Runs `body` on every part and returns the results in part order. The
/// last part runs on the calling thread, the others on the helpers; with
/// fewer than two parts, no helpers, or a helper as the caller, everything
/// runs on the calling thread. A panic in any part is re-raised here once
/// all parts have finished.
pub fn par_parts<P: Send, R: Send>(
    parts: impl IntoIterator<Item = P>,
    body: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    let mut parts: Vec<P> = parts.into_iter().collect();
    let pool = pool();
    if parts.len() < 2 || pool.helpers == 0 || IS_HELPER.get() {
        return parts.into_iter().map(body).collect();
    }
    let last = parts.pop().expect("at least two parts");

    let pending = AtomicUsize::new(parts.len());
    let caller = std::thread::current();
    let queued: Vec<_> = parts
        .into_iter()
        .map(|part| Queued {
            part: Mutex::new(Some(part)),
            result: Mutex::new(None),
            body: &body,
            pending: &pending,
            caller: &caller,
        })
        .collect();
    {
        let mut tasks = lock(&pool.tasks);
        // Reserved up front so that no push below can fail half-way.
        tasks.reserve(queued.len());
        for task in &queued {
            let task: &dyn Task = task;
            // SAFETY: the queue hands this reference to a helper, which
            // uses it only inside `Queued::run`, and `run` touches nothing
            // of the task after its count-down of `pending`. This call does
            // not return, by value or by unwinding, before the loop below
            // has seen `pending` reach zero, i.e. after every queued task's
            // count-down: the caller's own part runs under `catch_unwind`,
            // the queue has room for every push, and a failed allocation
            // aborts. `queued`, `body`, `pending` and `caller` all live
            // until then, so erasing the lifetime lets no borrow be used
            // after it ends.
            tasks.push_back(unsafe { std::mem::transmute::<&dyn Task, &'static dyn Task>(task) });
        }
    }
    pool.ready.notify_all();
    let last = catch_unwind(AssertUnwindSafe(|| body(last)));
    // Acquire: pairs with the Release count-down in `Queued::run`. `park`
    // can return early (and a nested call may have used up the wake-up
    // meant for this one), hence the re-check on every turn.
    while pending.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }

    let mut results = Vec::with_capacity(queued.len() + 1);
    for task in queued {
        let part = task
            .result
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("the count reached zero, so every part stored its result");
        results.push(part.unwrap_or_else(|panic| resume_unwind(panic)));
    }
    results.push(last.unwrap_or_else(|panic| resume_unwind(panic)));
    results
}

/// [`par_parts`] over the contiguous sub-ranges of `0..len`.
pub fn par_ranges<R: Send>(
    len: usize,
    grain: usize,
    body: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let step = part_len(len, grain);
    par_parts(
        (0..len).step_by(step).map(|lo| lo..len.min(lo + step)),
        body,
    )
}

/// `out[i] = f(&src[i])` for every `i` both slices have, in parallel parts
/// of at least [`ELEMENT_GRAIN`] elements.
pub fn par_map_into<A: Sync, O: Send>(src: &[A], out: &mut [O], f: impl Fn(&A) -> O + Sync) {
    let step = part_len(out.len(), ELEMENT_GRAIN);
    par_parts(out.chunks_mut(step).zip(src.chunks(step)), |(out, src)| {
        for (o, a) in out.iter_mut().zip(src) {
            *o = f(a);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parts_run_exactly_once_and_results_keep_part_order() {
        for len in [0usize, 1, 2, 3, 7, 64, 1000, 10_007] {
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let parts = par_ranges(len, 2, |part| {
                for i in part.clone() {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
                part
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "len {len}"
            );
            assert!(parts.len() <= threads().max(1));
            let covered: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len {len}");
        }
    }

    #[test]
    fn mutable_chunks_are_disjoint_parts() {
        let mut out = vec![0u32; 50_000];
        let step = part_len(out.len(), ELEMENT_GRAIN);
        par_parts(out.chunks_mut(step).enumerate(), |(k, chunk)| {
            for (i, o) in chunk.iter_mut().enumerate() {
                *o = (k * step + i) as u32;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &o)| o == i as u32));
        // Below the grain the whole slice is one part.
        assert_eq!(part_len(100, ELEMENT_GRAIN), 100);
        assert_eq!(part_len(0, ELEMENT_GRAIN), 1);
    }

    #[test]
    fn a_panic_in_any_part_reaches_the_caller_after_all_parts_finish() {
        for bad in [0usize, 9] {
            let finished = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                par_parts(0..10usize, |i| {
                    if i == bad {
                        panic!("part {i} fails");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let message = *caught.unwrap_err().downcast::<String>().unwrap();
            assert_eq!(message, format!("part {bad} fails"));
            assert_eq!(finished.load(Ordering::Relaxed), 9);
        }
        // The pool survives: the next call still runs every part.
        assert_eq!(par_parts(0..4u32, |i| i * 2), vec![0, 2, 4, 6]);
    }

    /// A kernel's parallel-for, called from inside a part of another's.
    #[test]
    fn a_launch_from_inside_a_launch_runs_inline_and_does_not_deadlock() {
        let hits = AtomicUsize::new(0);
        par_ranges(8, 2, |outer| {
            // On a helper this must not queue behind the part that runs it.
            for _ in outer {
                par_ranges(8, 2, |inner| {
                    hits.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn a_call_below_its_grain_runs_on_the_caller() {
        let caller = std::thread::current().id();
        let parts = par_ranges(ELEMENT_GRAIN - 1, ELEMENT_GRAIN, |part| {
            assert_eq!(std::thread::current().id(), caller);
            part
        });
        assert_eq!(parts, vec![0..ELEMENT_GRAIN - 1]);
    }
}
