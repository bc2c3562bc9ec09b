//! Stand-in for the slice and range subset of `rayon` the crates use.
//!
//! The sandbox has no crate registry, so `benchmark/Cargo.toml` patches
//! `rayon` to this package. Every iterator here splits at an index, so a
//! call is cut into `current_num_threads()` contiguous parts; the caller
//! runs the last part and the others run on a pool of
//! `current_num_threads() - 1` helper threads started on first use, as the
//! published crate's global pool is. Results keep their input order. There
//! is no work stealing: a parallel call made from a helper runs on that
//! helper alone. A call pays one queue push and one thread wake-up per extra
//! part, so short slices run on the caller.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIterator,
    };
}

/// Slices shorter than this run on the calling thread: per element they do
/// a search or a copy, and a spawn costs more than a few thousand of those.
const MIN_PARALLEL_SLICE: usize = 4096;

/// `RAYON_NUM_THREADS` if set to a positive number, else the core count.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

pub trait ParallelIterator: Sized + Send {
    type Item: Send;
    type Seq: Iterator<Item = Self::Item>;

    /// Number of positions this iterator can be split over.
    fn split_len(&self) -> usize;
    /// Shortest length worth running on more than one thread.
    fn min_parallel_len(&self) -> usize;
    fn split_at(self, mid: usize) -> (Self, Self);
    fn into_seq(self) -> Self::Seq;

    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self, offset: 0 }
    }

    fn map<R: Send, F: Fn(Self::Item) -> R + Send + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f: Arc::new(f) }
    }

    fn filter_map<R: Send, F: Fn(Self::Item) -> Option<R> + Send + Sync>(
        self,
        f: F,
    ) -> FilterMap<Self, F> {
        FilterMap { base: self, f: Arc::new(f) }
    }

    fn for_each<F: Fn(Self::Item) + Send + Sync>(self, f: F) {
        run(self, &|part: Self| part.into_seq().for_each(&f));
    }

    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        run(self, &|part: Self| part.into_seq().collect::<Vec<_>>())
            .into_iter()
            .flatten()
            .collect()
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The helper threads' queue. The helpers live as long as the process, as
/// the published crate's global pool does; they hold nothing that must be
/// released, so they are not joined.
struct Pool {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

thread_local! {
    static IS_HELPER: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }));
        for helper in 1..current_num_threads() {
            std::thread::Builder::new()
                .name(format!("rayon-standin-{helper}"))
                .spawn(move || {
                    IS_HELPER.set(true);
                    // Jobs catch their own panics, so the lock is never
                    // poisoned by one; recover it regardless.
                    let mut jobs = pool.jobs.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        match jobs.pop_front() {
                            Some(job) => {
                                drop(jobs);
                                job();
                                jobs = pool.jobs.lock().unwrap_or_else(PoisonError::into_inner);
                            }
                            None => {
                                jobs = pool
                                    .ready
                                    .wait(jobs)
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

/// Counts parts still running. Shared through an `Arc` so that a helper's
/// last touch of it is of memory the helper itself keeps alive.
struct Latch {
    pending: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn count_down(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        while *pending > 0 {
            pending = self
                .done
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

type PartResult<R> = Result<R, Box<dyn Any + Send>>;

/// Runs `leaf` over contiguous parts of `iter` and returns the parts'
/// results in input order.
fn run<P: ParallelIterator, R: Send>(iter: P, leaf: &(impl Fn(P) -> R + Sync)) -> Vec<R> {
    let len = iter.split_len();
    let parts = current_num_threads().min(len);
    if parts < 2 || len < iter.min_parallel_len() || IS_HELPER.get() {
        return vec![leaf(iter)];
    }
    let mut pieces = Vec::with_capacity(parts - 1);
    let mut rest = iter;
    let mut rest_len = len;
    for left in (2..=parts).rev() {
        let take = rest_len / left;
        let (head, tail) = rest.split_at(take);
        pieces.push(head);
        rest = tail;
        rest_len -= take;
    }

    let slots: Vec<Mutex<Option<PartResult<R>>>> =
        pieces.iter().map(|_| Mutex::new(None)).collect();
    let latch = Arc::new(Latch {
        pending: Mutex::new(pieces.len()),
        done: Condvar::new(),
    });
    let pool = pool();
    {
        let mut jobs = pool.jobs.lock().unwrap_or_else(PoisonError::into_inner);
        for (piece, slot) in pieces.into_iter().zip(&slots) {
            let latch = Arc::clone(&latch);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| leaf(piece)));
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                latch.count_down();
            });
            // SAFETY: the job borrows `leaf`, `slot` and whatever `piece`
            // borrows, all of which outlive this call. The call does not
            // return, by value or by unwinding, before `latch.wait()` below
            // has seen every job count down (the caller's own part runs
            // under `catch_unwind`), and a job's last use of a borrow is
            // before its `count_down`; after it the job touches only the
            // latch, which its own `Arc` keeps alive. Erasing the lifetime
            // therefore lets no borrow be used after it ends.
            let job: Job = unsafe { std::mem::transmute(job) };
            jobs.push_back(job);
        }
    }
    pool.ready.notify_all();
    let last = catch_unwind(AssertUnwindSafe(|| leaf(rest)));
    latch.wait();

    let mut results = Vec::with_capacity(slots.len() + 1);
    for slot in slots {
        let part = slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("the latch opened, so every part stored its result");
        results.push(part.unwrap_or_else(|panic| resume_unwind(panic)));
    }
    results.push(last.unwrap_or_else(|panic| resume_unwind(panic)));
    results
}

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

pub trait IntoParallelRefIterator<'a> {
    type Iter: ParallelIterator;
    fn par_iter(&'a self) -> Self::Iter;
}

pub trait IntoParallelRefMutIterator<'a> {
    type Iter: ParallelIterator;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

pub struct SliceIter<'a, T>(&'a [T]);

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;
    fn split_len(&self) -> usize {
        self.0.len()
    }
    fn min_parallel_len(&self) -> usize {
        MIN_PARALLEL_SLICE
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at(mid);
        (SliceIter(a), SliceIter(b))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.iter()
    }
}

pub struct SliceIterMut<'a, T>(&'a mut [T]);

impl<'a, T: Send> ParallelIterator for SliceIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;
    fn split_len(&self) -> usize {
        self.0.len()
    }
    fn min_parallel_len(&self) -> usize {
        MIN_PARALLEL_SLICE
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at_mut(mid);
        (SliceIterMut(a), SliceIterMut(b))
    }
    fn into_seq(self) -> Self::Seq {
        self.0.iter_mut()
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> Self::Iter {
        SliceIter(self)
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> Self::Iter {
        SliceIter(self)
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Iter = SliceIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> Self::Iter {
        SliceIterMut(self)
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Iter = SliceIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> Self::Iter {
        SliceIterMut(self)
    }
}

/// A range is a grid of blocks, each a whole kernel body or a chain walk:
/// two are already worth two threads.
pub struct RangeIter<T>(Range<T>);

macro_rules! range_iter {
    ($($t:ty),*) => {$(
        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            type Seq = Range<$t>;
            fn split_len(&self) -> usize {
                self.0.end.saturating_sub(self.0.start) as usize
            }
            fn min_parallel_len(&self) -> usize {
                2
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                let cut = self.0.start + mid as $t;
                (RangeIter(self.0.start..cut), RangeIter(cut..self.0.end))
            }
            fn into_seq(self) -> Self::Seq {
                self.0
            }
        }
        impl IntoParallelIterator for Range<$t> {
            type Iter = RangeIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> Self::Iter {
                RangeIter(self)
            }
        }
    )*};
}

range_iter!(u32, u64, usize);

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;
    fn split_len(&self) -> usize {
        self.a.split_len().min(self.b.split_len())
    }
    fn min_parallel_len(&self) -> usize {
        self.a.min_parallel_len().min(self.b.min_parallel_len())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.a.split_at(mid);
        let (b0, b1) = self.b.split_at(mid);
        (Zip { a: a0, b: b0 }, Zip { a: a1, b: b1 })
    }
    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

pub struct Enumerate<I> {
    base: I,
    offset: usize,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);
    type Seq = std::iter::Zip<std::ops::RangeFrom<usize>, I::Seq>;
    fn split_len(&self) -> usize {
        self.base.split_len()
    }
    fn min_parallel_len(&self) -> usize {
        self.base.min_parallel_len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            Enumerate { base: a, offset: self.offset },
            Enumerate { base: b, offset: self.offset + mid },
        )
    }
    fn into_seq(self) -> Self::Seq {
        (self.offset..).zip(self.base.into_seq())
    }
}

pub struct Map<I, F> {
    base: I,
    f: Arc<F>,
}

/// Applies a shared closure; a named type so `Map::Seq` can be written.
pub struct Apply<S, F> {
    seq: S,
    f: Arc<F>,
}

impl<S: Iterator, R, F: Fn(S::Item) -> R> Iterator for Apply<S, F> {
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.seq.next().map(|x| (self.f)(x))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.seq.size_hint()
    }
}

impl<I: ParallelIterator, R: Send, F: Fn(I::Item) -> R + Send + Sync> ParallelIterator
    for Map<I, F>
{
    type Item = R;
    type Seq = Apply<I::Seq, F>;
    fn split_len(&self) -> usize {
        self.base.split_len()
    }
    fn min_parallel_len(&self) -> usize {
        self.base.min_parallel_len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (Map { base: a, f: Arc::clone(&self.f) }, Map { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::Seq {
        Apply { seq: self.base.into_seq(), f: self.f }
    }
}

/// Yields fewer items than `split_len` says; only `for_each` and `collect`
/// consume it, and both take whatever each part yields.
pub struct FilterMap<I, F> {
    base: I,
    f: Arc<F>,
}

impl<I: ParallelIterator, R: Send, F: Fn(I::Item) -> Option<R> + Send + Sync> ParallelIterator
    for FilterMap<I, F>
{
    type Item = R;
    type Seq = std::iter::Flatten<Apply<I::Seq, F>>;
    fn split_len(&self) -> usize {
        self.base.split_len()
    }
    fn min_parallel_len(&self) -> usize {
        self.base.min_parallel_len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            FilterMap { base: a, f: Arc::clone(&self.f) },
            FilterMap { base: b, f: self.f },
        )
    }
    fn into_seq(self) -> Self::Seq {
        Apply { seq: self.base.into_seq(), f: self.f }.flatten()
    }
}
