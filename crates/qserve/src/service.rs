//! The concurrent query front-end: batching, worker pool, backpressure.
//!
//! A [`QueryService`] owns a fixed pool of worker threads draining a
//! bounded chunk queue. Callers [`submit`] whole batches of reads; the
//! batch is split into fixed-size chunks so large batches parallelize
//! across workers while small ones stay a single unit of work. Admission
//! control is strict and up-front: if enqueuing a batch's chunks would
//! push the queue past `max_queue`, the whole batch is rejected with
//! [`QserveError::Overloaded`] and an `qserve.shed` counter — nothing is
//! partially processed, so a shed batch can simply be resubmitted.
//!
//! A batch's [`Answer`] type is what each read gets back: its selected
//! placement, or a shard's full candidate vote. Each chunk carries the
//! job that resolves and stores its own answers, so batches of both
//! shapes share one queue, its slots and its admission gate, and come
//! back through one [`BatchHandle`].
//!
//! Results land in per-batch slots indexed by the read's position in the
//! submitted batch, so the answer vector is identical no matter how many
//! workers raced over the chunks — the determinism property the golden
//! test pins with `--workers 1` vs `--workers 8`.
//!
//! ## Slots and helping waiters
//!
//! A chunk runs only while it holds one of `workers` execution slots, so
//! at most `workers` chunks run at once. A worker or a waiting submitter
//! can hold a slot: [`BatchHandle::wait`] runs the waiter's own
//! still-queued chunks whenever a slot is free, and a submission wakes
//! workers only for the chunks beyond the one its submitter will run. A
//! one-chunk batch on an idle service therefore runs on the thread that
//! submitted it, and no worker wakes.
//!
//! ## Generations and hot reload
//!
//! The service holds its engines behind a generation handle rather than a
//! single fixed engine. Every batch is bound at *admission* to one
//! resident [`Generation`]; the chunks carry that binding, so a reload
//! that lands mid-batch cannot change what the batch answers from — the
//! results are bit-identical to a service that never reloaded.
//! [`reload_from`](QueryService::reload_from) loads and validates a new
//! generation from a work directory's `generations.json` and swaps it in
//! with **zero shed**: admission never pauses, in-flight chunks drain
//! against the generation they were admitted under, and a superseded
//! generation retires only once its in-flight count reaches zero. A
//! reload that fails to load or validate rolls back loudly (typed
//! [`GenError`] naming the generation) and the previously active
//! generation keeps serving. See SERVING.md, "Generations & hot reload".
//!
//! [`submit`]: QueryService::submit_pinned

use crate::engine::{Candidate, Hit, QueryEngine};
use crate::generations::{self, GenError, GenManifest};
use crate::minimizer::{IndexConfig, MinimizerIndex};
use crate::store::ContigStore;
use crate::QserveError;
use genome::PackedSeq;
use gstream::IoStats;
use obs::{Histogram, Recorder};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Worker-pool and queueing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads resolving queries.
    pub workers: usize,
    /// Reads per work chunk; batches are split into chunks this size.
    pub batch_chunk: usize,
    /// Admission limit: a batch is shed if the queue would exceed this
    /// many chunks after enqueuing it.
    pub max_queue: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            batch_chunk: 64,
            max_queue: 64,
        }
    }
}

/// One resident generation: an engine plus the number of admitted chunks
/// not yet answered from it. The in-flight count is what gates
/// retirement — a superseded generation leaves memory only when it
/// reaches zero, never while a query could still touch it.
struct Generation {
    id: u64,
    engine: Arc<QueryEngine>,
    inflight: AtomicU64,
}

/// The resident generations and the bookkeeping a reload mutates.
///
/// `active` answers unpinned batches. `previous` is the generation
/// `active` displaced; it stays queryable because a cluster mid-rollout
/// has routers pinning requests to it (the mixed-generation window).
/// A second reload pushes the old `previous` onto `draining`, where it
/// only waits for its in-flight chunks before retiring — pinned
/// admissions to a draining generation are refused with
/// [`GenError::MissingGeneration`].
struct GenState {
    active: Arc<Generation>,
    previous: Option<Arc<Generation>>,
    draining: Vec<Arc<Generation>>,
    /// Ids retired so far, oldest first (observability + test probes).
    retired: Vec<u64>,
    /// Successful reloads since start.
    reloads: u64,
    /// Reloads that failed and rolled back since start.
    rollbacks: u64,
}

/// A point-in-time view of the generation state, for stats snapshots
/// and the model-checked reload scenario's invariant probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationStats {
    /// Generation unpinned batches are admitted under right now.
    pub active: u64,
    /// The displaced-but-still-queryable generation, if any.
    pub previous: Option<u64>,
    /// `(generation id, chunks in flight)` for every resident
    /// generation — active, previous, and draining.
    pub inflight: Vec<(u64, u64)>,
    /// Successful reloads since the service started.
    pub reloads: u64,
    /// Failed-and-rolled-back reloads since the service started.
    pub rollbacks: u64,
    /// Generations fully retired (their in-flight count reached zero
    /// after being superseded twice), oldest first.
    pub retired: Vec<u64>,
}

/// What a batch answers per read, and the one engine pass that resolves
/// a chunk of it: the selected placement (`Option<Hit>`, single-node
/// serving) or every voted candidate (`Vec<Candidate>`, a shard's vote,
/// which the router merges before it selects — see
/// [`merge_candidates`](crate::merge_candidates)).
pub trait Answer: Clone + Default + Send + 'static {
    /// Resolve `reads` in one pass; answer `i` answers `reads[i]`.
    fn resolve(engine: &QueryEngine, reads: &[PackedSeq]) -> Vec<Self>;
}

impl Answer for Option<Hit> {
    fn resolve(engine: &QueryEngine, reads: &[PackedSeq]) -> Vec<Self> {
        engine.query_batch(reads)
    }
}

impl Answer for Vec<Candidate> {
    fn resolve(engine: &QueryEngine, reads: &[PackedSeq]) -> Vec<Self> {
        engine.query_candidates_batch(reads)
    }
}

/// A ticket for a submitted batch: its answer slots, and the service
/// whose slots its waiter may take to run the batch's chunks;
/// [`wait`](BatchHandle::wait) blocks until every read is resolved and
/// yields the answers in submission order.
pub struct BatchHandle<A> {
    shared: Arc<Shared>,
    /// Chunks of the batch not yet fully processed. Changed only under
    /// the queue lock, so a waiter that reads it there cannot miss the
    /// last chunk's wake.
    pending: Arc<AtomicUsize>,
    /// One slot per submitted read, in submission order.
    answers: Arc<Mutex<Vec<A>>>,
    gen_id: u64,
}

impl<A> BatchHandle<A> {
    /// Block until the batch completes, running its queued chunks on this
    /// thread whenever a slot is free; answers align with the submitted
    /// reads (`answers[i]` answers `reads[i]`).
    pub fn wait(self) -> Vec<A> {
        while let Some(chunk) = self.next_own_chunk() {
            self.shared.run_chunk(chunk, self.shared.parent_span, true);
        }
        std::mem::take(&mut *self.answers.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The generation this batch was admitted under — every read in the
    /// batch answers from it, even if a reload lands before the batch
    /// drains.
    pub fn generation(&self) -> u64 {
        self.gen_id
    }

    /// A queued chunk of this batch, now holding a slot; `None` once the
    /// batch is done.
    fn next_own_chunk(&self) -> Option<Chunk> {
        let shared = &self.shared;
        let done = || self.pending.load(Ordering::SeqCst) == 0;
        let own = |c: &Chunk| Arc::ptr_eq(&c.pending, &self.pending);
        loop {
            // Under the model checker "the submitter ran its own chunk"
            // and "the submitter saw the batch finish" are explicit,
            // explorable steps at this point.
            let (mut q, _) = faultsim::sched::wait(
                "qserve.batch.wait",
                &shared.queue,
                &shared.progress,
                None,
                |q| done() || q.runnable(shared.slots, own).is_some(),
            );
            if done() {
                return None;
            }
            if let Some(chunk) = q.take(shared.slots, own) {
                return Some(chunk);
            }
            // Another task was granted first and took the chunk or the
            // slot: wait again.
        }
    }
}

impl<A> Drop for BatchHandle<A> {
    /// A batch dropped unwaited still completes: its chunks go to the
    /// workers, since no waiter will take them.
    fn drop(&mut self) {
        if self.pending.load(Ordering::SeqCst) > 0 {
            self.shared.available.notify_all();
        }
    }
}

/// A unit of work: a contiguous slice of one batch, whatever its answer
/// shape, so batches of both shapes share one queue.
struct Chunk {
    /// Its batch's [`BatchHandle::pending`], which also tells a waiter
    /// its own chunks.
    pending: Arc<AtomicUsize>,
    /// Reads in the chunk.
    n: usize,
    /// Resolves the chunk's reads against an engine and stores the
    /// answers in the batch's slots.
    job: Box<dyn FnOnce(&QueryEngine) + Send>,
    /// The generation the chunk was admitted under; the worker resolves
    /// against *this* engine, never "whatever is active now".
    gen: Arc<Generation>,
    /// When the chunk was admitted — the start of its queue-wait, which
    /// is folded into the `qserve.latency.queue` histogram.
    enqueued: Instant,
}

struct Queue {
    chunks: VecDeque<Chunk>,
    /// Execution slots held by running chunks, at most `Shared::slots`.
    busy: usize,
    shutdown: bool,
}

impl Queue {
    /// Position of the first queued chunk matching `pick`, if a slot is
    /// free to run it.
    fn runnable(&self, slots: usize, pick: impl Fn(&Chunk) -> bool) -> Option<usize> {
        if self.busy >= slots {
            return None;
        }
        self.chunks.iter().position(pick)
    }

    /// Dequeue the first chunk matching `pick` into a free slot.
    fn take(&mut self, slots: usize, pick: impl Fn(&Chunk) -> bool) -> Option<Chunk> {
        let i = self.runnable(slots, pick)?;
        self.busy += 1;
        self.chunks.remove(i)
    }

    /// True once a shut-down queue holds nothing more to run.
    fn drained(&self) -> bool {
        self.shutdown && self.chunks.is_empty()
    }
}

struct Shared {
    queue: Mutex<Queue>,
    /// Wakes workers: chunks a submitter will not run itself, or
    /// shutdown.
    available: Condvar,
    /// Wakes waiters: a chunk finished, freeing its slot.
    progress: Condvar,
    /// Execution slots: the configured worker count.
    slots: usize,
    gens: Mutex<GenState>,
    rec: Recorder,
    /// Span the workers parent themselves under (0 = no parent).
    parent_span: u64,
    /// Reads fully resolved by workers since start — the service's drain
    /// odometer, which `qnet` differentiates into a drain *rate* to derive
    /// `retry_after_ms` hints for shed clients.
    drained: AtomicU64,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Lock order: `gens` before `queue` (submission takes both); never
    /// the reverse.
    fn lock_gens(&self) -> std::sync::MutexGuard<'_, GenState> {
        self.gens.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retire every draining generation whose in-flight count reached
    /// zero. Called after each chunk completes and after each swap; the
    /// `inflight == 0` check *is* the retire gate, so the invariant the
    /// reload scenario model-checks — no generation retires with work
    /// outstanding — holds by construction.
    fn scavenge(&self) {
        let mut gens = self.lock_gens();
        let mut i = 0;
        while i < gens.draining.len() {
            if gens.draining[i].inflight.load(Ordering::SeqCst) == 0 {
                let gone = gens.draining.remove(i);
                gens.retired.push(gone.id);
                self.rec.counter("qserve.gen.retired", 1);
            } else {
                i += 1;
            }
        }
    }

    /// Resolve one dequeued `chunk`, tracing under `span`, then store its
    /// answers and give back its slot. A waiter (`helper`) also wakes a
    /// worker for whatever is still queued; a worker takes that itself.
    fn run_chunk(&self, chunk: Chunk, span: u64, helper: bool) {
        faultsim::sched::point("qserve.chunk.exec");
        let n = chunk.n as u64;
        self.rec.counter_on(span, "qserve.queries", n);
        let traced = self.rec.is_enabled();
        // Per-read latency, split queue-wait / execute / total, in
        // microseconds. The engine resolves the chunk in one pass, so a
        // read's answer is ready when its chunk's is: each read is charged
        // the chunk's execution time. One histogram event per chunk keeps
        // the trace small; the rollup merges chunks exactly.
        let queue_us = Instant::now()
            .saturating_duration_since(chunk.enqueued)
            .as_micros() as u64;
        let begun = Instant::now();
        (chunk.job)(&chunk.gen.engine);
        if traced {
            let exec_us = begun.elapsed().as_micros() as u64;
            for (name, us) in [
                ("qserve.latency.queue", queue_us),
                ("qserve.latency.exec", exec_us),
                ("qserve.latency.total", queue_us + exec_us),
            ] {
                let mut h = Histogram::new();
                h.record_n(us, n);
                self.rec.histogram_on(span, name, h);
            }
        }
        faultsim::sched::point("qserve.chunk.respond");
        self.drained.fetch_add(n, Ordering::Relaxed);
        // Un-count the chunk from its generation *before* the batch is
        // marked done, so once a waiter observes completion the
        // generation's in-flight count already reflects it; retire (via
        // scavenge) can only fire at zero.
        if chunk.gen.inflight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.scavenge();
        }
        let mut q = self.lock_queue();
        q.busy -= 1;
        chunk.pending.fetch_sub(1, Ordering::SeqCst);
        let queued = !q.chunks.is_empty();
        drop(q);
        self.progress.notify_all();
        if helper && queued {
            self.available.notify_one();
        }
    }
}

/// A running query service. Dropping it closes the queue; workers drain
/// the chunks already admitted (so outstanding [`BatchHandle`]s still
/// complete) and exit.
///
/// Chunks run in `workers` execution slots, held by the workers or by
/// waiters running their own batch (see the module docs).
pub struct QueryService {
    shared: Arc<Shared>,
    cfg: ServiceConfig,
    workers: Vec<faultsim::sched::Thread<()>>,
}

impl QueryService {
    /// Spawn the worker pool. Workers trace under `qserve.worker{i}`
    /// child spans of the recorder's current span at start time.
    ///
    /// The engine becomes generation 0 — the "ungenerationed" id a
    /// service carries until its first successful
    /// [`reload_from`](Self::reload_from). Services loaded from a
    /// generation manifest should use
    /// [`start_with_generation`](Self::start_with_generation) so stats
    /// and wire responses report the real id.
    pub fn start(engine: QueryEngine, cfg: ServiceConfig, rec: &Recorder) -> QueryService {
        Self::start_with_generation(engine, 0, cfg, rec)
    }

    /// [`start`](Self::start), with the engine registered as generation
    /// `gen_id` (its id in the work directory's `generations.json`).
    pub fn start_with_generation(
        engine: QueryEngine,
        gen_id: u64,
        cfg: ServiceConfig,
        rec: &Recorder,
    ) -> QueryService {
        let slots = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                chunks: VecDeque::new(),
                busy: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            progress: Condvar::new(),
            slots,
            gens: Mutex::new(GenState {
                active: Arc::new(Generation {
                    id: gen_id,
                    engine: Arc::new(engine),
                    inflight: AtomicU64::new(0),
                }),
                previous: None,
                draining: Vec::new(),
                retired: Vec::new(),
                reloads: 0,
                rollbacks: 0,
            }),
            rec: rec.clone(),
            parent_span: rec.current(),
            drained: AtomicU64::new(0),
        });
        let workers = (0..slots)
            .map(|i| {
                let shared = Arc::clone(&shared);
                faultsim::sched::spawn(&format!("qserve-worker-{i}"), move || {
                    worker_loop(&shared, i)
                })
            })
            .collect();
        QueryService {
            shared,
            cfg,
            workers,
        }
    }

    /// The engine unpinned submissions currently resolve against (the
    /// active generation's).
    pub fn engine(&self) -> Arc<QueryEngine> {
        Arc::clone(&self.shared.lock_gens().active.engine)
    }

    /// The active generation's id.
    pub fn active_generation(&self) -> u64 {
        self.shared.lock_gens().active.id
    }

    /// Snapshot the generation state: resident generations with their
    /// in-flight chunk counts, plus the reload/rollback/retire tallies.
    pub fn generation_stats(&self) -> GenerationStats {
        let gens = self.shared.lock_gens();
        let mut inflight = vec![(gens.active.id, gens.active.inflight.load(Ordering::SeqCst))];
        if let Some(prev) = &gens.previous {
            inflight.push((prev.id, prev.inflight.load(Ordering::SeqCst)));
        }
        for g in &gens.draining {
            inflight.push((g.id, g.inflight.load(Ordering::SeqCst)));
        }
        GenerationStats {
            active: gens.active.id,
            previous: gens.previous.as_ref().map(|g| g.id),
            inflight,
            reloads: gens.reloads,
            rollbacks: gens.rollbacks,
            retired: gens.retired.clone(),
        }
    }

    /// The configuration the pool was started with.
    pub fn config(&self) -> ServiceConfig {
        self.cfg
    }

    /// Chunks currently queued (admitted, not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_queue().chunks.len()
    }

    /// Total reads fully resolved since the service started. Monotone;
    /// callers difference two observations to estimate the drain rate.
    pub fn drained_reads(&self) -> u64 {
        self.shared.drained.load(Ordering::Relaxed)
    }

    /// Submit a placement batch. Returns a [`BatchHandle`] on admission,
    /// or [`QserveError::Overloaded`] if the queue cannot absorb it. The
    /// batch binds to the active generation at admission.
    pub fn submit(&self, reads: Vec<PackedSeq>) -> crate::Result<BatchHandle<Option<Hit>>> {
        self.submit_pinned(reads, 0)
    }

    /// Submit a batch answered in shape `A` — placements, or a shard's
    /// candidate votes; both shapes share the queue, the slots and the
    /// admission gate. `pin == 0` means "the active generation, whatever
    /// it is"; any other value demands that exact generation and fails
    /// with [`GenError::MissingGeneration`] if it is not resident and
    /// queryable (active or previous). Routers use the pin to keep a
    /// mixed-generation rollout window coherent.
    pub fn submit_pinned<A: Answer>(
        &self,
        reads: Vec<PackedSeq>,
        pin: u64,
    ) -> crate::Result<BatchHandle<A>> {
        let answers = Arc::new(Mutex::new(vec![A::default(); reads.len()]));
        let pending = Arc::new(AtomicUsize::new(0));
        // Resolve the pin under the gens lock, then admit under the
        // queue lock (gens-before-queue is the crate's lock order). The
        // in-flight bump happens only after admission succeeds, so a
        // shed batch leaves no generation accounting behind.
        let gen = Self::resolve_pin(&self.shared.lock_gens(), pin)?;
        let handle = BatchHandle {
            shared: Arc::clone(&self.shared),
            pending: Arc::clone(&pending),
            answers: Arc::clone(&answers),
            gen_id: gen.id,
        };
        if reads.is_empty() {
            return Ok(handle);
        }
        let chunk_size = self.cfg.batch_chunk.max(1);
        let n_chunks = reads.len().div_ceil(chunk_size);
        {
            let mut q = self.shared.lock_queue();
            if q.chunks.len() + n_chunks > self.cfg.max_queue {
                self.shared.rec.counter("qserve.shed", reads.len() as u64);
                return Err(QserveError::Overloaded {
                    queued: q.chunks.len(),
                    incoming: n_chunks,
                    max_queue: self.cfg.max_queue,
                });
            }
            self.shared
                .rec
                .counter("qserve.batch.size", reads.len() as u64);
            pending.store(n_chunks, Ordering::SeqCst);
            gen.inflight.fetch_add(n_chunks as u64, Ordering::SeqCst);
            let enqueued = Instant::now();
            let mut reads = reads;
            let mut start = 0usize;
            while !reads.is_empty() {
                let rest = reads.split_off(reads.len().min(chunk_size));
                let (n, answers) = (reads.len(), Arc::clone(&answers));
                q.chunks.push_back(Chunk {
                    pending: Arc::clone(&pending),
                    n,
                    job: Box::new(move |engine| {
                        let got = A::resolve(engine, &reads);
                        let mut slots = answers.lock().unwrap_or_else(|e| e.into_inner());
                        for (slot, answer) in slots[start..].iter_mut().zip(got) {
                            *slot = answer;
                        }
                    }),
                    gen: Arc::clone(&gen),
                    enqueued,
                });
                start += n;
                reads = rest;
            }
            self.shared
                .rec
                .gauge("qserve.queue.depth", q.chunks.len() as u64);
        }
        // The submitter's wait runs one chunk; wake workers for the rest.
        for _ in 1..n_chunks.min(self.shared.slots) {
            self.shared.available.notify_one();
        }
        Ok(handle)
    }

    /// Resolve `pin` to a queryable resident generation. Draining and
    /// retired generations are not queryable: a pin outlives its
    /// generation only if the operator rolled forward twice without the
    /// client re-pinning, and that deserves a loud typed error.
    fn resolve_pin(gens: &GenState, pin: u64) -> crate::Result<Arc<Generation>> {
        if pin == 0 || pin == gens.active.id {
            return Ok(Arc::clone(&gens.active));
        }
        match &gens.previous {
            Some(prev) if prev.id == pin => Ok(Arc::clone(prev)),
            _ => Err(GenError::MissingGeneration { requested: pin }.into()),
        }
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn query_batch(&self, reads: Vec<PackedSeq>) -> crate::Result<Vec<Option<Hit>>> {
        Ok(self.submit(reads)?.wait())
    }

    /// Submit a batch of candidate votes and wait — the synchronous
    /// shard path.
    pub fn query_batch_candidates(
        &self,
        reads: Vec<PackedSeq>,
    ) -> crate::Result<Vec<Vec<Candidate>>> {
        Ok(self.submit_pinned(reads, 0)?.wait())
    }

    /// Hot-reload a generation from `dir`'s `generations.json` and swap
    /// it in with zero shed: admission never pauses, in-flight batches
    /// keep answering from the generation they were admitted under, and
    /// the displaced generation stays queryable (pinned) until a later
    /// reload pushes it into draining.
    ///
    /// `target` selects a generation id; `None` follows the manifest's
    /// `active` pointer. `shard` rebuilds the shard slice of the index
    /// from the loaded store (`(shard, n_shards, index config)`) instead
    /// of opening the full on-disk index — the shard-replica path, which
    /// has no per-shard index file.
    ///
    /// On any failure the swap does not happen: the typed [`GenError`]
    /// names the generation, `qserve.gen.rollbacks` ticks, and the
    /// previously active generation keeps serving untouched. Returns the
    /// admitted generation id on success (a no-op if it already is
    /// active). Failpoints: `qserve.gen.load` fails the load,
    /// `qserve.gen.validate` fails the checksum binding.
    pub fn reload_from(
        &self,
        dir: &Path,
        target: Option<u64>,
        shard: Option<(u32, u32, IndexConfig)>,
        io: &IoStats,
        faults: &faultsim::Faults,
    ) -> std::result::Result<u64, GenError> {
        let outcome = self.reload_inner(dir, target, shard, io, faults);
        let mut gens = self.shared.lock_gens();
        match &outcome {
            Ok(id) => {
                self.shared.rec.gauge("qserve.gen.active", *id);
            }
            Err(_) => {
                gens.rollbacks += 1;
                self.shared.rec.counter("qserve.gen.rollbacks", 1);
            }
        }
        drop(gens);
        outcome
    }

    fn reload_inner(
        &self,
        dir: &Path,
        target: Option<u64>,
        shard: Option<(u32, u32, IndexConfig)>,
        io: &IoStats,
        faults: &faultsim::Faults,
    ) -> std::result::Result<u64, GenError> {
        let manifest = GenManifest::load(dir, io)?;
        let id = target.unwrap_or(manifest.active);
        let entry = manifest
            .entry(id)
            .ok_or(GenError::MissingGeneration { requested: id })?
            .clone();
        if self.shared.lock_gens().active.id == id {
            return Ok(id); // Already serving it; a retried Reload is idempotent.
        }
        faultsim::sched::point("qserve.gen.load");
        if let Err(e) = faults.hit(faultsim::QSERVE_GEN_LOAD) {
            return Err(GenError::Load {
                generation: id,
                detail: e.to_string(),
            });
        }
        let load_err = |e: gstream::StreamError| GenError::Load {
            generation: id,
            detail: e.to_string(),
        };
        let store = ContigStore::open(&dir.join(&entry.store), io).map_err(load_err)?;
        let index = match shard {
            Some((s, n_shards, icfg)) => MinimizerIndex::build_shard(&store, &icfg, s, n_shards),
            None => MinimizerIndex::open(&dir.join(&entry.index), io).map_err(load_err)?,
        };
        generations::validate_binding(&entry, &store, &index, faults)?;
        // The engine's own constructor re-verifies the store/index
        // binding; reuse the active engine's query knobs so a reload
        // never silently changes ranking behaviour.
        let query_cfg = self.engine().query_config();
        let engine = QueryEngine::new(store, index, query_cfg).map_err(|e| GenError::Load {
            generation: id,
            detail: e.to_string(),
        })?;
        faultsim::sched::point("qserve.gen.swap");
        {
            let mut gens = self.shared.lock_gens();
            let displaced = std::mem::replace(
                &mut gens.active,
                Arc::new(Generation {
                    id,
                    engine: Arc::new(engine),
                    inflight: AtomicU64::new(0),
                }),
            );
            if let Some(old_prev) = gens.previous.replace(displaced) {
                gens.draining.push(old_prev);
            }
            gens.reloads += 1;
            self.shared.rec.counter("qserve.gen.reloads", 1);
        }
        self.shared.scavenge();
        Ok(id)
    }

    /// Force the previous generation into draining (it stops being
    /// queryable) and retire everything idle. Operators call this once a
    /// rollout has converged and no router still pins the old id; tests
    /// use it to assert the retire gate.
    pub fn retire_previous(&self) {
        {
            let mut gens = self.shared.lock_gens();
            if let Some(prev) = gens.previous.take() {
                gens.draining.push(prev);
            }
        }
        self.shared.scavenge();
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shared.lock_queue().shutdown = true;
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join("qserve.worker.join");
        }
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    let parent = match shared.parent_span {
        0 => None,
        p => Some(p),
    };
    let span = shared
        .rec
        .child_span(parent, &format!("qserve.worker{idx}"));
    loop {
        // Another task granted first under the model checker may have
        // taken the chunk or the slot: then wait again rather than trust
        // a stale wake.
        let (mut q, _) = faultsim::sched::wait(
            "qserve.worker.dequeue",
            &shared.queue,
            &shared.available,
            None,
            |q| q.runnable(shared.slots, |_| true).is_some() || q.drained(),
        );
        if let Some(chunk) = q.take(shared.slots, |_| true) {
            drop(q);
            shared.run_chunk(chunk, span.id(), false);
        } else if q.drained() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::{IndexConfig, MinimizerIndex};
    use crate::store::ContigStore;
    use crate::QueryConfig;

    const REF: &str = "ACGTACGGTTCAGATTACAGGCATCGGATGCATTCAGGACCTTAGGACCATTGACCATGG\
                       ACCAGTTACACGGTTAACCGGTTAACCATGCAGGACTTCAGATCCATTGGCATCAGGATC";

    fn engine() -> QueryEngine {
        let store = ContigStore::from_contigs(vec![REF.parse().unwrap()]);
        let index = MinimizerIndex::build(
            &store,
            &IndexConfig {
                k: 9,
                w: 5,
                threads: 1,
            },
        );
        QueryEngine::new(store, index, QueryConfig::default()).unwrap()
    }

    fn reads(n: usize) -> Vec<PackedSeq> {
        (0..n)
            .map(|i| {
                let start = (i * 7) % (REF.len() - 30);
                let s: PackedSeq = REF[start..start + 30].parse().unwrap();
                if i % 3 == 0 {
                    s.reverse_complement()
                } else {
                    s
                }
            })
            .collect()
    }

    #[test]
    fn batch_results_align_with_submission_order() {
        let rec = Recorder::disabled();
        let svc = QueryService::start(engine(), ServiceConfig::default(), &rec);
        let batch = reads(200);
        let answers = svc.query_batch(batch.clone()).unwrap();
        assert_eq!(answers.len(), batch.len());
        for (i, (read, ans)) in batch.iter().zip(&answers).enumerate() {
            let hit = ans.unwrap_or_else(|| panic!("read {i} unresolved"));
            let expect_start = (i * 7) % (REF.len() - 30);
            assert_eq!(hit.offset as usize, expect_start, "read {i}");
            assert_eq!(hit.reverse, i % 3 == 0, "read {i}");
            assert_eq!(hit.mismatches, 0, "read {i}");
            let _ = read;
        }
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let batch = reads(500);
        let rec = Recorder::disabled();
        let mut per_workers = Vec::new();
        for workers in [1, 8] {
            let cfg = ServiceConfig {
                workers,
                batch_chunk: 16,
                ..ServiceConfig::default()
            };
            let svc = QueryService::start(engine(), cfg, &rec);
            per_workers.push(svc.query_batch(batch.clone()).unwrap());
        }
        assert_eq!(per_workers[0], per_workers[1]);
    }

    #[test]
    fn chunk_size_and_worker_count_do_not_change_answers() {
        let eng = engine();
        let mut batch = reads(150);
        batch.push("ACG".parse().unwrap()); // shorter than k
        batch.push("GTGTGTGTGTGTGTGTGTGTGTGTGTGT".parse().unwrap()); // foreign
        batch.push(batch[4].clone());
        let hits: Vec<Option<Hit>> = batch.iter().map(|r| eng.query(r)).collect();
        let lists: Vec<Vec<Candidate>> = batch.iter().map(|r| eng.query_candidates(r)).collect();
        let rec = Recorder::disabled();
        for batch_chunk in [1, 7, 64] {
            for workers in [1, 4] {
                let cfg = ServiceConfig {
                    workers,
                    batch_chunk,
                    max_queue: 256,
                };
                let svc = QueryService::start(engine(), cfg, &rec);
                let at = format!("chunk {batch_chunk}, {workers} workers");
                assert_eq!(svc.query_batch(batch.clone()).unwrap(), hits, "{at}");
                let got = svc.query_batch_candidates(batch.clone()).unwrap();
                assert_eq!(got, lists, "{at}");
            }
        }
    }

    #[test]
    fn oversized_batch_is_shed_atomically() {
        let rec = Recorder::new();
        let handle = rec.add_memory_sink();
        let svc = QueryService::start(
            engine(),
            ServiceConfig {
                workers: 2,
                batch_chunk: 1,
                max_queue: 4,
            },
            &rec,
        );
        // 100 reads at chunk size 1 is 100 chunks — far over the 4-chunk
        // admission limit, so this sheds no matter how fast workers drain.
        let err = svc.submit(reads(100)).err().expect("must shed");
        match err {
            QserveError::Overloaded {
                queued,
                incoming,
                max_queue,
            } => {
                assert_eq!(max_queue, 4);
                assert_eq!(incoming, 100, "the whole shed batch is reported");
                assert!(queued <= max_queue, "queued depth is the live depth");
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        // A small batch still goes through afterwards.
        let ok = svc.query_batch(reads(3)).unwrap();
        assert_eq!(ok.len(), 3);
        assert_eq!(svc.drained_reads(), 3, "only admitted reads drain");
        assert_eq!(svc.queue_depth(), 0);
        drop(svc);
        rec.flush();
        let rollup = obs::Rollup::from_events(&handle.events());
        assert_eq!(counter_total(&rollup, "qserve.shed"), 100);
        assert_eq!(counter_total(&rollup, "qserve.batch.size"), 3);
        assert_eq!(counter_total(&rollup, "qserve.queries"), 3);
    }

    /// Sum a counter across every span and the unattached bucket.
    fn counter_total(rollup: &obs::Rollup, name: &str) -> u64 {
        rollup.unattached().counter(name)
            + rollup
                .roots()
                .iter()
                .map(|root| rollup.subtree(root.id).counter(name))
                .sum::<u64>()
    }

    #[test]
    fn latency_histograms_cover_every_admitted_read() {
        let rec = Recorder::new();
        let handle = rec.add_memory_sink();
        let svc = QueryService::start(
            engine(),
            ServiceConfig {
                workers: 2,
                batch_chunk: 8,
                max_queue: 1000,
            },
            &rec,
        );
        svc.query_batch(reads(100)).unwrap();
        drop(svc);
        rec.flush();
        let totals = obs::Rollup::from_events(&handle.events()).totals();
        for name in [
            "qserve.latency.queue",
            "qserve.latency.exec",
            "qserve.latency.total",
        ] {
            assert_eq!(totals.hist(name).count(), 100, "{name}");
        }
        let total = totals.hist("qserve.latency.total");
        assert!(total.percentile(0.5) <= total.percentile(0.99));
        // total = queue + exec per read, so the sums add up exactly.
        assert_eq!(
            total.sum(),
            totals.hist("qserve.latency.queue").sum() + totals.hist("qserve.latency.exec").sum()
        );
        assert!(totals.gauge("qserve.queue.depth") >= 1);
    }

    #[test]
    fn candidate_batches_match_the_engine_and_align_with_submission_order() {
        let rec = Recorder::disabled();
        let svc = QueryService::start(
            engine(),
            ServiceConfig {
                workers: 4,
                batch_chunk: 8,
                ..ServiceConfig::default()
            },
            &rec,
        );
        let reference = engine();
        let batch = reads(100);
        let answers = svc.query_batch_candidates(batch.clone()).unwrap();
        assert_eq!(answers.len(), batch.len());
        for (read, cands) in batch.iter().zip(&answers) {
            assert_eq!(cands, &reference.query_candidates(read));
            assert!(!cands.is_empty(), "every planted read has candidates");
        }
        assert!(svc.query_batch_candidates(Vec::new()).unwrap().is_empty());
    }

    /// Placement and candidate batches submitted at once share one queue,
    /// its slots and its helping waiters; each gets its own shape's
    /// answers, and nothing stays queued or in flight afterwards.
    #[test]
    fn batches_of_both_shapes_share_one_queue() {
        let eng = engine();
        for workers in [1, 3] {
            let cfg = ServiceConfig {
                workers,
                batch_chunk: 4,
                ..ServiceConfig::default()
            };
            let svc = QueryService::start(engine(), cfg, &Recorder::disabled());
            std::thread::scope(|s| {
                for t in 0..3 {
                    let (svc, eng) = (&svc, &eng);
                    s.spawn(move || {
                        for round in 0..20 {
                            let batch = reads(1 + (t * 7 + round * 5) % 23);
                            if (t + round) % 2 == 0 {
                                let hits = svc.query_batch(batch.clone()).unwrap();
                                let want: Vec<_> = batch.iter().map(|r| eng.query(r)).collect();
                                assert_eq!(hits, want, "{workers} workers, thread {t}");
                            } else {
                                let lists = svc.query_batch_candidates(batch.clone()).unwrap();
                                let want: Vec<_> =
                                    batch.iter().map(|r| eng.query_candidates(r)).collect();
                                assert_eq!(lists, want, "{workers} workers, thread {t}");
                            }
                        }
                    });
                }
            });
            assert_eq!(svc.queue_depth(), 0, "{workers} workers");
            let stats = svc.generation_stats();
            assert!(stats.inflight.iter().all(|&(_, n)| n == 0), "{stats:?}");
        }
    }

    #[test]
    fn a_one_chunk_batch_runs_on_the_waiting_thread() {
        let rec = Recorder::new();
        let handle = rec.add_memory_sink();
        let svc = QueryService::start(engine(), ServiceConfig::default(), &rec);
        for _ in 0..100 {
            assert_eq!(svc.query_batch(reads(10)).unwrap().len(), 10);
        }
        drop(svc);
        rec.flush();
        // The waiter traces under the service's parent span (none here);
        // workers trace under their own root spans. Only a worker that
        // was still starting (4 of them, one chunk each) or a spurious
        // condvar wake could take a chunk.
        let rollup = obs::Rollup::from_events(&handle.events());
        assert!(rollup.unattached().counter("qserve.queries") >= 900);
        assert_eq!(counter_total(&rollup, "qserve.queries"), 1000);
    }

    #[test]
    fn a_batch_dropped_unwaited_still_drains() {
        let rec = Recorder::disabled();
        let svc = QueryService::start(engine(), ServiceConfig::default(), &rec);
        drop(svc.submit(reads(10)).unwrap());
        let t0 = Instant::now();
        while svc.drained_reads() < 10 {
            assert!(t0.elapsed().as_secs() < 10, "no worker took the chunk");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(svc.queue_depth(), 0);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let rec = Recorder::disabled();
        let svc = QueryService::start(engine(), ServiceConfig::default(), &rec);
        assert!(svc.query_batch(Vec::new()).unwrap().is_empty());
    }

    /// Export `contigs` as the next generation of `dir`.
    fn export(dir: &Path, contigs: &[&str]) {
        let seqs: Vec<PackedSeq> = contigs.iter().map(|c| c.parse().unwrap()).collect();
        let icfg = IndexConfig {
            k: 9,
            w: 5,
            threads: 1,
        };
        let io = IoStats::new(gstream::DiskModel::ssd());
        generations::export(dir, &seqs, &icfg, &io).unwrap();
    }

    const REF2: &str = "TTGACCATGGACCAGTTACACGGTTAACCGGTTAACCATGCAGGACTTCAGATCCATTGG\
                        ACGTACGGTTCAGATTACAGGCATCGGATGCATTCAGGACCTTAGGACCATTGACCATGG";

    #[test]
    fn reload_swaps_generations_and_batches_answer_from_their_admitted_generation() {
        let dir = stdx::tempdir().unwrap();
        let io = IoStats::new(gstream::DiskModel::ssd());
        export(dir.path(), &[REF]);
        let svc = QueryService::start_with_generation(
            engine(),
            1,
            ServiceConfig::default(),
            &rec_disabled(),
        );
        assert_eq!(svc.active_generation(), 1);

        let queries = reads(50);
        let before = svc.query_batch(queries.clone()).unwrap();

        export(dir.path(), &[REF2]);
        let admitted = svc
            .reload_from(dir.path(), None, None, &io, &faultsim::Faults::disabled())
            .unwrap();
        assert_eq!(admitted, 2);
        assert_eq!(svc.active_generation(), 2);

        // Unpinned batches now answer from generation 2; batches pinned
        // to 1 answer bit-identically to the pre-reload service.
        let unpinned = svc.submit(queries.clone()).unwrap();
        assert_eq!(unpinned.generation(), 2);
        let pinned = svc
            .submit_pinned::<Option<Hit>>(queries.clone(), 1)
            .unwrap();
        assert_eq!(pinned.generation(), 1);
        assert_eq!(pinned.wait(), before);

        // A pin to a generation that is not resident is a typed error.
        match svc.submit_pinned::<Option<Hit>>(queries.clone(), 7) {
            Err(QserveError::Generation(GenError::MissingGeneration { requested: 7 })) => {}
            other => panic!("expected MissingGeneration, got {:?}", other.map(|_| ())),
        }

        let stats = svc.generation_stats();
        assert_eq!(stats.active, 2);
        assert_eq!(stats.previous, Some(1));
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.rollbacks, 0);

        // Reloading to the already-active generation is an idempotent
        // no-op, not a swap.
        let again = svc
            .reload_from(
                dir.path(),
                Some(2),
                None,
                &io,
                &faultsim::Faults::disabled(),
            )
            .unwrap();
        assert_eq!(again, 2);
        assert_eq!(svc.generation_stats().reloads, 1);
        unpinned.wait();
    }

    #[test]
    fn failed_reload_rolls_back_loudly_and_names_the_generation() {
        let dir = stdx::tempdir().unwrap();
        let io = IoStats::new(gstream::DiskModel::ssd());
        export(dir.path(), &[REF]);
        export(dir.path(), &[REF2]);
        let svc = QueryService::start_with_generation(
            engine(),
            1,
            ServiceConfig::default(),
            &rec_disabled(),
        );

        // Injected load failure: typed, names the generation, no swap.
        let faults = faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::QSERVE_GEN_LOAD, 1),
        );
        let err = svc
            .reload_from(dir.path(), Some(2), None, &io, &faults)
            .unwrap_err();
        match &err {
            GenError::Load { generation: 2, .. } => {}
            other => panic!("expected Load for generation 2, got {other:?}"),
        }
        assert!(err.to_string().contains("generation 2"));
        assert_eq!(
            svc.active_generation(),
            1,
            "rollback keeps the old generation"
        );

        // Injected validate failure: checksum mismatch, still no swap.
        let faults = faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::QSERVE_GEN_VALIDATE, 1),
        );
        let err = svc
            .reload_from(dir.path(), Some(2), None, &io, &faults)
            .unwrap_err();
        assert!(matches!(
            err,
            GenError::ChecksumMismatch {
                generation: 2,
                artifact: "store",
                ..
            }
        ));
        assert_eq!(svc.active_generation(), 1);
        let stats = svc.generation_stats();
        assert_eq!(stats.rollbacks, 2);
        assert_eq!(stats.reloads, 0);

        // The service still answers, from the untouched generation.
        assert_eq!(svc.query_batch(reads(10)).unwrap().len(), 10);

        // And once the faults clear, the same reload goes through.
        let id = svc
            .reload_from(
                dir.path(),
                Some(2),
                None,
                &io,
                &faultsim::Faults::disabled(),
            )
            .unwrap();
        assert_eq!(id, 2);
    }

    #[test]
    fn reload_of_an_index_pointing_past_its_store_rolls_back() {
        let dir = stdx::tempdir().unwrap();
        let io = IoStats::new(gstream::DiskModel::ssd());
        export(dir.path(), &[REF]);
        let (one, payload) = crate::engine::tests::index_patched_to_one_contig_store();
        let contigs: Vec<PackedSeq> = one.contigs().to_vec();
        generations::export(dir.path(), &contigs, &IndexConfig::default(), &io).unwrap();
        // Generation 2's checksums all agree with its manifest entry; only
        // its postings name a contig the store does not have.
        let mdx = dir.path().join(generations::gen_index_file(2));
        gstream::write_blob(&mdx, &payload, &io).unwrap();
        let svc = QueryService::start_with_generation(
            engine(),
            1,
            ServiceConfig::default(),
            &rec_disabled(),
        );
        let before = svc.query_batch(reads(20)).unwrap();
        let err = svc
            .reload_from(
                dir.path(),
                Some(2),
                None,
                &io,
                &faultsim::Faults::disabled(),
            )
            .unwrap_err();
        match &err {
            GenError::Load {
                generation: 2,
                detail,
            } => assert!(detail.contains("posting "), "{detail}"),
            other => panic!("expected Load for generation 2, got {other:?}"),
        }
        let stats = svc.generation_stats();
        assert_eq!((stats.active, stats.rollbacks, stats.reloads), (1, 1, 0));
        assert_eq!(svc.query_batch(reads(20)).unwrap(), before);
    }

    #[test]
    fn superseded_generations_retire_only_when_idle() {
        let dir = stdx::tempdir().unwrap();
        let io = IoStats::new(gstream::DiskModel::ssd());
        export(dir.path(), &[REF]);
        let svc = QueryService::start_with_generation(
            engine(),
            1,
            ServiceConfig::default(),
            &rec_disabled(),
        );
        svc.query_batch(reads(10)).unwrap();

        export(dir.path(), &[REF2]);
        svc.reload_from(
            dir.path(),
            Some(2),
            None,
            &io,
            &faultsim::Faults::disabled(),
        )
        .unwrap();
        export(dir.path(), &[REF]);
        svc.reload_from(
            dir.path(),
            Some(3),
            None,
            &io,
            &faultsim::Faults::disabled(),
        )
        .unwrap();

        // Generation 1 was superseded twice with nothing in flight, so
        // the second swap's scavenge retired it at inflight == 0.
        let stats = svc.generation_stats();
        assert_eq!(stats.active, 3);
        assert_eq!(stats.previous, Some(2));
        assert_eq!(stats.retired, vec![1]);
        assert!(stats.inflight.iter().all(|&(_, n)| n == 0));

        // Pinning to the retired generation is refused.
        assert!(matches!(
            svc.submit_pinned::<Vec<Candidate>>(reads(1), 1),
            Err(QserveError::Generation(GenError::MissingGeneration {
                requested: 1
            }))
        ));

        // retire_previous drains the mixed-generation window explicitly.
        svc.retire_previous();
        let stats = svc.generation_stats();
        assert_eq!(stats.previous, None);
        assert_eq!(stats.retired, vec![1, 2]);
    }

    fn rec_disabled() -> Recorder {
        Recorder::disabled()
    }

    #[test]
    fn drop_joins_workers_cleanly_with_work_outstanding() {
        let rec = Recorder::disabled();
        let svc = QueryService::start(
            engine(),
            ServiceConfig {
                workers: 1,
                batch_chunk: 1,
                max_queue: 1000,
            },
            &rec,
        );
        // Enqueue plenty, then drop without waiting; Drop must not hang.
        let _handle = svc.submit(reads(64)).unwrap();
        drop(svc);
    }
}
