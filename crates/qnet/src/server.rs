//! The TCP server: accept loop, per-connection handlers, admission
//! gates, chaos failpoints, and graceful drain.
//!
//! One OS thread per connection keeps the control flow obvious and the
//! blocking story honest: every blocking point is a socket read/write
//! with an explicit timeout, or a [`qserve::BatchHandle::wait`] whose
//! duration is bounded by the worker pool actually finishing the chunk.
//! The serving tier is expected to hold tens of connections (assembler
//! nodes), not tens of thousands, so threads are the right cost point.
//!
//! The server starts, waits and stalls only through [`faultsim::sched`]:
//! its `spawn` for the accept loop and the handlers (joined by the
//! drain), its `wait` for the drain's in-flight wait and
//! [`Server::wait_shutdown_requested`], its `pause` for the chaos
//! stalls, and its `Deadline` for the deadline gate. Under the
//! `schedcheck` model checker each of these is a schedule point on the
//! virtual clock, and the code around it is the code production runs.
//! The accept loop is the one exception: a blocking `accept` cannot be
//! a schedule point, so under the checker it polls a non-blocking
//! listener instead.
//!
//! A query passes four gates, in order, before it reaches a worker:
//!
//! 1. **drain** — a draining server admits nothing new
//!    ([`proto::Response::Draining`](crate::proto::Response::Draining));
//! 2. **deadline** — a spent budget is shed (`qnet.deadline_shed`)
//!    without debiting the client's fairness bucket, since no work was
//!    done on its behalf;
//! 3. **fairness** — the per-client token bucket
//!    ([`qserve::FairAdmission`]), charged one token per read;
//! 4. **queue depth** — [`qserve::QueryService::submit`]'s shared gate.
//!
//! Gates 3 and 4 both answer `Overloaded` with a `retry_after_ms` hint:
//! fairness hints from the bucket's own refill math, queue hints from a
//! live EWMA of the worker pool's drain rate ([`DrainRate`]).
//!
//! One thread per connection reads a frame, runs it and writes its
//! answer before it reads the next. An admitted query waits for its
//! batch in [`qserve::BatchHandle::wait`], which runs the batch's chunks
//! on this thread whenever one of the service's execution slots is
//! free, so a small batch on an idle server never leaves the thread that
//! read it and no other thread is woken. Requests pipelined on one
//! connection are therefore answered in arrival order, each frame still
//! carrying its `request_id`. Gate-exempt requests (`PingV2`, `Stats`,
//! `Reload`, …) are answered the same way, after any batch read before
//! them.
//!
//! [`Request::Reload`] hot-swaps the serving store/index generation via
//! [`QueryService::reload_from`] with zero shed: admission never
//! pauses, in-flight batches finish on the generation that admitted
//! them, and any failure rolls back loudly
//! ([`Response::ReloadFailed`]) while the old generation keeps serving.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::proto::{
    ClientStats, LatencySummary, PongStatus, Request, Response, ShedScope, StatsSnapshot,
};
use faultsim::sched::{self, Deadline};
use obs::{Histogram, LiveRollup, Recorder, SpanGuard};
use qserve::{FairAdmission, FairShed, QserveError, QueryService};

/// Window size of the server's live telemetry ring.
const STATS_WINDOW: Duration = Duration::from_secs(1);
/// Windows retained — one minute of 1 s windows.
const STATS_WINDOWS: usize = 60;

/// Tuning for [`Server`]. The defaults suit an interactive serving tier;
/// tests shrink the timeouts to keep chaos runs fast.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Per-connection socket read timeout; an idle or stalled peer is
    /// evicted after this long without a complete frame.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight requests to
    /// finish before force-closing their connections.
    pub drain_deadline: Duration,
    /// Per-client fair-admission tuning (tokens are reads).
    pub admission: qserve::AdmissionConfig,
    /// How long the `qnet.frame.stall` failpoint holds a response
    /// before dropping the connection.
    pub stall_ms: u64,
    /// Where [`Request::Reload`] loads store/index generations from.
    /// `None` (the default) answers every reload with a typed
    /// [`Response::ReloadFailed`].
    pub reload: Option<ReloadConfig>,
}

/// Source of truth for [`Request::Reload`]: the work directory whose
/// `generations.json` names the admissible store/index generations.
#[derive(Debug, Clone)]
pub struct ReloadConfig {
    /// Directory holding `generations.json` and the generation
    /// store/index files (typically the assembly work dir).
    pub work_dir: std::path::PathBuf,
    /// Serve a shard slice instead of the full index: `(shard,
    /// n_shards, index config)` rebuilds this shard's postings from the
    /// freshly loaded store — shard replicas have no per-shard index
    /// file on disk, so a reload rebuilds its slice exactly like the
    /// initial boot did.
    pub shard: Option<(u32, u32, qserve::IndexConfig)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            admission: qserve::AdmissionConfig::default(),
            stall_ms: 50,
            reload: None,
        }
    }
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests that were in flight when the drain began.
    pub inflight_at_start: u64,
    /// True when every in-flight request finished (and wrote its
    /// response) inside the drain deadline; false when stragglers were
    /// force-closed.
    pub completed: bool,
    /// Reads belonging to in-flight requests that were still unanswered
    /// at the drain deadline. Each such straggler got a best-effort
    /// typed [`Response::Draining`] frame for its `request_id` before
    /// its socket was cut, and was counted under the
    /// `qnet.drain.force_closed` trace counter.
    pub force_closed: u64,
}

/// Live estimate of the worker pool's throughput, fed by the odometer
/// [`QueryService::drained_reads`] at each batch completion. Powers the
/// `retry_after_ms` hint on queue-depth sheds: a client told "the queue
/// is full" is also told roughly when the backlog will have drained.
struct DrainRate {
    last_total: u64,
    last_s: f64,
    ewma_reads_per_s: f64,
    primed: bool,
    /// True once the EWMA holds a real estimate. Seeding used to key on
    /// `ewma_reads_per_s == 0.0`, which mistook a genuinely idle window
    /// (instantaneous rate 0) for "never measured" and let the next
    /// burst overwrite the average instead of blending into it.
    seeded: bool,
}

impl DrainRate {
    fn new() -> Self {
        DrainRate {
            last_total: 0,
            last_s: 0.0,
            ewma_reads_per_s: 0.0,
            primed: false,
            seeded: false,
        }
    }

    fn observe(&mut self, now_s: f64, total_reads: u64) {
        if !self.primed {
            self.primed = true;
            self.last_total = total_reads;
            self.last_s = now_s;
            return;
        }
        let dt = now_s - self.last_s;
        // Sub-millisecond gaps produce wild instantaneous rates; fold
        // them into the next observation instead.
        if dt < 1e-3 {
            return;
        }
        let inst = total_reads.saturating_sub(self.last_total) as f64 / dt;
        self.ewma_reads_per_s = if self.seeded {
            0.3 * inst + 0.7 * self.ewma_reads_per_s
        } else {
            inst
        };
        self.seeded = true;
        self.last_total = total_reads;
        self.last_s = now_s;
    }

    /// Milliseconds until `backlog_reads` drain at the estimated rate,
    /// clamped to [10, 5000]. An empty backlog needs no wait at all and
    /// returns 0; before any estimate exists, a flat 100 ms.
    fn retry_hint_ms(&self, backlog_reads: u64) -> u32 {
        if backlog_reads == 0 {
            return 0;
        }
        if !self.seeded || self.ewma_reads_per_s < 1.0 {
            return 100;
        }
        let ms = (backlog_reads as f64 / self.ewma_reads_per_s * 1000.0).ceil();
        ms.clamp(10.0, 5000.0) as u32
    }
}

/// Per-client gate outcomes, counted in reads. Incremented at exactly
/// the same points as the `qnet.*` trace counters, so a live
/// [`StatsSnapshot`] agrees with a post-hoc [`obs::Rollup`] of the same
/// run — and keeps counting even when the recorder is disabled.
#[derive(Debug, Clone, Copy, Default)]
struct ClientTotals {
    accepted: u64,
    rejected: u64,
    deadline_shed: u64,
    fairness_shed: u64,
}

/// The write side of one accepted connection, shared between its
/// handler thread and [`Server::shutdown`]. All response frames go
/// through the mutex, so frames never interleave mid-write, and "the
/// handler delivered the answer" and "the drain force-closed the
/// straggler with a typed frame" are mutually exclusive by construction
/// — a client can never receive both (or neither plus a silent close)
/// for one admitted `request_id`.
struct ConnShared {
    write: Mutex<ConnWrite>,
}

struct ConnWrite {
    sock: TcpStream,
    /// The admitted request awaiting its response on this connection,
    /// `(request_id, n_reads)`. Set at admission (gate 4 passed) and
    /// taken by whichever side answers: the handler's write, or the
    /// drain's typed force-close. The handler runs one batch at a time.
    inflight: Option<(u64, u64)>,
    /// Set by the drain force-close (or response-path chaos); the
    /// handler stops writing (and reading) once its socket has been cut.
    closed: bool,
}

impl ConnShared {
    /// Write one frame that answers no admitted request (probes, sheds,
    /// reload outcomes): in-flight markers are untouched. Returns false
    /// when the connection is no longer writable.
    fn write_frame(&self, frame: &[u8]) -> bool {
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if w.closed {
            return false;
        }
        w.sock.write_all(frame).is_ok() && w.sock.flush().is_ok()
    }

    /// Write the response frame for admitted request `request_id`,
    /// clearing its in-flight marker. The write is skipped when the
    /// drain sweep already answered this id with a typed `Draining`
    /// (the marker is gone) or the socket was cut — exactly one frame
    /// per admitted request ever reaches the wire.
    fn write_response_for(&self, request_id: u64, frame: &[u8]) -> bool {
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let pending = w.inflight.take_if(|(rid, _)| *rid == request_id).is_some();
        if w.closed || !pending {
            return false;
        }
        w.sock.write_all(frame).is_ok() && w.sock.flush().is_ok()
    }

    /// Response-path chaos: put a torn frame on the wire in place of a
    /// response. `request_id`'s marker, when given, is cleared under the
    /// same lock — the torn bytes are its one frame.
    fn write_torn(&self, request_id: Option<u64>, torn: &[u8]) {
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(rid) = request_id {
            w.inflight.take_if(|(pending, _)| *pending == rid);
        }
        if !w.closed {
            let _ = w.sock.write_all(torn);
            let _ = w.sock.flush();
        }
    }

    /// Cut the connection: clear the in-flight marker, stop writing and
    /// shut the socket. The handler closes when its connection dies, so
    /// that its request is not misattributed as a live drain straggler.
    /// The drain sweep closes with `drain`: a request still marked is a
    /// straggler, first answered with a best-effort typed `Draining`
    /// frame under the same lock as the handler's write, so exactly one
    /// frame per admitted request reaches the wire. Returns the
    /// straggler's reads (0 when there was none).
    fn close(&self, drain: bool) -> u64 {
        let mut w = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let mut straggler = 0;
        if let Some((request_id, n_reads)) = w.inflight.take().filter(|_| drain) {
            let body = Response::Draining { request_id }.encode();
            let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
            if gstream::write_frame(&mut frame, &body).is_ok() {
                let _ = w.sock.write_all(&frame);
                let _ = w.sock.flush();
            }
            straggler = n_reads;
        }
        w.closed = true;
        let _ = w.sock.shutdown(Shutdown::Both);
        straggler
    }
}

struct Inner {
    service: QueryService,
    admission: FairAdmission,
    rec: Recorder,
    /// Windowed telemetry teed off the recorder's sink path; the source
    /// of the latency percentiles in [`StatsSnapshot`].
    live: LiveRollup,
    faults: faultsim::Faults,
    cfg: ServerConfig,
    /// Disk accounting for generation reloads ([`Request::Reload`]).
    reload_io: gstream::IoStats,
    server_span: u64,
    /// Monotonic epoch for admission/drain-rate clocks and uptime.
    epoch: Instant,
    /// Set once a drain begins; gates both accept and query admission.
    draining: AtomicBool,
    /// Admitted requests whose response has not yet been written.
    inflight: Mutex<u64>,
    /// Signalled when `inflight` drops to zero; the drain waits on it.
    inflight_cv: Condvar,
    /// Reads force-closed at the drain deadline (see
    /// [`DrainReport::force_closed`]).
    force_closed: AtomicU64,
    /// Write sides of every accepted connection, for the drain's typed
    /// force-close sweep.
    conns: Mutex<Vec<Arc<ConnShared>>>,
    /// Handler threads, joined by the drain.
    handlers: Mutex<Vec<sched::Thread<()>>>,
    conn_seq: AtomicU64,
    /// Signalled when a peer sends [`Request::Shutdown`].
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    drain_rate: Mutex<DrainRate>,
    client_totals: Mutex<BTreeMap<String, ClientTotals>>,
}

impl Inner {
    fn now_s(&self) -> f64 {
        // Under a model-checking scheduler, admission and drain-rate
        // clocks follow virtual time so token refill is a function of
        // the explored schedule, not the host.
        match sched::virtual_now_ms() {
            Some(ms) => ms as f64 / 1000.0,
            None => self.epoch.elapsed().as_secs_f64(),
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn inflight(&self) -> std::sync::MutexGuard<'_, u64> {
        self.inflight.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn charge_client(&self, client_id: &str, apply: impl FnOnce(&mut ClientTotals)) {
        let mut totals = self.client_totals.lock().unwrap_or_else(|e| e.into_inner());
        apply(totals.entry(client_id.to_string()).or_default());
    }

    fn drain_ewma(&self) -> f64 {
        let dr = self.drain_rate.lock().unwrap_or_else(|e| e.into_inner());
        if dr.seeded {
            dr.ewma_reads_per_s
        } else {
            0.0
        }
    }

    /// Assemble the [`StatsSnapshot`] answered to
    /// [`Request::Stats`]. Gate counters come from [`ClientTotals`] (so
    /// they are exact even with a disabled recorder); latency summaries
    /// come from the live rollup's cumulative histograms.
    fn stats_snapshot(&self) -> StatsSnapshot {
        let totals = self.live.totals();
        let now_s = self.now_s();
        let fair: BTreeMap<String, (f64, f64)> = self
            .admission
            .snapshot(now_s)
            .into_iter()
            .map(|(client, tokens, weight)| (client, (tokens, weight)))
            .collect();
        let per_client = self
            .client_totals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let mut ids: BTreeSet<String> = per_client.keys().cloned().collect();
        ids.extend(fair.keys().cloned());
        let burst = self.cfg.admission.burst;
        let clients: Vec<ClientStats> = ids
            .into_iter()
            .map(|id| {
                let t = per_client.get(&id).copied().unwrap_or_default();
                // A client can be shed at the deadline gate without ever
                // touching fairness; its bucket is then still virgin —
                // report the full burst it would start with.
                let (tokens, weight) = fair.get(&id).copied().unwrap_or((burst, 1.0));
                ClientStats {
                    client_id: id,
                    accepted: t.accepted,
                    rejected: t.rejected,
                    deadline_shed: t.deadline_shed,
                    fairness_shed: t.fairness_shed,
                    tokens,
                    weight,
                }
            })
            .collect();
        let sum = |pick: fn(&ClientStats) -> u64| clients.iter().map(pick).sum();
        let latency: Vec<LatencySummary> = totals
            .hists
            .iter()
            .map(|(name, h)| LatencySummary::from_hist(name, h))
            .collect();
        let gens = self.service.generation_stats();
        StatsSnapshot {
            uptime_ms: self.epoch.elapsed().as_millis() as u64,
            draining: self.is_draining(),
            inflight: *self.inflight(),
            queue_depth: self.service.queue_depth() as u64,
            drained_reads: self.service.drained_reads(),
            drain_ewma_reads_per_s: self.drain_ewma(),
            accepted: sum(|c| c.accepted),
            rejected: sum(|c| c.rejected),
            deadline_shed: sum(|c| c.deadline_shed),
            fairness_shed: sum(|c| c.fairness_shed),
            force_closed: self.force_closed.load(Ordering::SeqCst),
            generation: gens.active,
            reloads: gens.reloads,
            rollbacks: gens.rollbacks,
            clients,
            latency,
        }
    }
}

/// Which query shape gate 4 admits: a placement query answered with
/// [`Response::Hits`], or a shard query answered with the full voted
/// candidate set ([`Response::ShardCandidates`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum QueryKind {
    Hits,
    Candidates,
}

/// An admitted batch's ticket, matching its [`QueryKind`].
enum Admitted {
    Hits(qserve::BatchHandle),
    Candidates(qserve::CandidateBatchHandle),
}

/// Decrements the in-flight count when dropped, so every exit path from
/// an admitted request — response written, write failed, chaos drop —
/// releases its drain obligation exactly once.
struct InflightGuard {
    inner: Arc<Inner>,
}

impl InflightGuard {
    fn new(inner: &Arc<Inner>) -> InflightGuard {
        sched::point("qnet.inflight.enter");
        *inner.inflight() += 1;
        InflightGuard {
            inner: Arc::clone(inner),
        }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        sched::point("qnet.inflight.exit");
        let mut n = self.inner.inflight();
        *n -= 1;
        if *n == 0 {
            self.inner.inflight_cv.notify_all();
        }
    }
}

/// A running query server bound to a TCP port.
///
/// Owns the [`QueryService`] worker pool for its lifetime. Dropping the
/// server performs a full graceful drain (bounded by
/// [`ServerConfig::drain_deadline`]); call [`Server::shutdown`] directly
/// to observe the [`DrainReport`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<sched::Thread<()>>,
    /// Keeps the `qnet.server` span open until shutdown.
    span: Option<SpanGuard>,
    report: Option<DrainReport>,
}

impl Server {
    /// Bind `cfg.addr` and start serving `service`. Accepted
    /// connections are handled on dedicated threads; traces land under
    /// a `qnet.server` span parented on `rec`'s current span.
    pub fn start(
        service: QueryService,
        cfg: ServerConfig,
        rec: &Recorder,
        faults: faultsim::Faults,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let span = rec.child_span(
            match rec.current() {
                0 => None,
                id => Some(id),
            },
            "qnet.server",
        );
        // Tee every event this recorder sees into a windowed live
        // aggregate; `Stats` percentiles are read from here without
        // touching the trace buffer.
        let live = LiveRollup::new(STATS_WINDOW, STATS_WINDOWS);
        rec.add_sink(Box::new(live.clone()));
        let inner = Arc::new(Inner {
            admission: FairAdmission::new(cfg.admission),
            service,
            rec: rec.clone(),
            live,
            faults,
            cfg,
            reload_io: gstream::IoStats::new(gstream::DiskModel::ssd()),
            server_span: span.id(),
            epoch: Instant::now(),
            draining: AtomicBool::new(false),
            inflight: Mutex::new(0),
            inflight_cv: Condvar::new(),
            force_closed: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
            conn_seq: AtomicU64::new(0),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            drain_rate: Mutex::new(DrainRate::new()),
            client_totals: Mutex::new(BTreeMap::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = sched::spawn("qnet.accept", move || accept_loop(accept_inner, listener));
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
            span: Some(span),
            report: None,
        })
    }

    /// The address the server actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fair-admission gate, for weight configuration
    /// ([`FairAdmission::set_weight`]).
    pub fn admission(&self) -> &FairAdmission {
        &self.inner.admission
    }

    /// The underlying query service.
    pub fn service(&self) -> &QueryService {
        &self.inner.service
    }

    /// True once a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.inner.is_draining()
    }

    /// The same [`StatsSnapshot`] a wire [`Request::Stats`] would
    /// receive, read in-process. `schedcheck` and tests use this to
    /// compare the server's own accounting against post-hoc trace
    /// roll-ups and observed client outcomes after a drain, when no
    /// connection is left to ask over the wire.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    /// Block until a peer asks for shutdown over the wire
    /// ([`Request::Shutdown`]) or `timeout` elapses. Returns true when
    /// shutdown was requested. The caller still decides whether to
    /// [`Server::shutdown`].
    pub fn wait_shutdown_requested(&self, timeout: Option<Duration>) -> bool {
        let inner = &self.inner;
        let until = timeout.map(Deadline::after);
        let asked = |requested: &bool| *requested;
        sched::wait(
            "qnet.shutdown.wait",
            &inner.shutdown_requested,
            &inner.shutdown_cv,
            until,
            asked,
        )
        .1
    }

    /// Gracefully drain and stop: stop accepting, answer new queries
    /// with `Draining`, wait for in-flight requests (bounded by
    /// [`ServerConfig::drain_deadline`]), then force-close whatever is
    /// left. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) -> DrainReport {
        if let Some(r) = self.report {
            return r;
        }
        self.inner.draining.store(true, Ordering::SeqCst);
        sched::point("qnet.drain.set");
        let inflight_at_start = *self.inner.inflight();
        self.inner.rec.gauge_on(
            self.inner.server_span,
            "qnet.drain.inflight",
            inflight_at_start,
        );

        // Unblock the accept loop with a throwaway connection; it sees
        // the draining flag and exits, dropping the listener.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join("qnet.accept.join");
        }

        // Wait for in-flight requests, bounded by the drain deadline —
        // virtual time under a model-checking scheduler (the deadline
        // "passing" is then an explored schedule choice), wall time
        // otherwise.
        let inner = &self.inner;
        let until = Deadline::after(inner.cfg.drain_deadline);
        let idle = |n: &u64| *n == 0;
        let completed = sched::wait(
            "qnet.drain.deadline",
            &inner.inflight,
            &inner.inflight_cv,
            Some(until),
            idle,
        )
        .1;
        if !completed {
            self.inner
                .rec
                .counter_on(self.inner.server_span, "qnet.drain.forced", 1);
        }

        // Force-close every connection. Each straggler (an admitted
        // request its handler is still running) first gets a best-effort
        // typed `Draining` frame for its request_id — never a silent
        // close — and is counted under `qnet.drain.force_closed`. The
        // write mutex makes this atomic against the handler delivering
        // the real answer: exactly one of the two frames reaches the wire
        // per request. Idle handlers parked in `read_frame` wake with an
        // error immediately instead of waiting out their read timeout;
        // busy ones finish their batch, skip its write and exit, and the
        // joins below wait for them.
        sched::point("qnet.drain.force_close");
        let force_closed: u64 = self
            .inner
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|conn| conn.close(true))
            .sum();
        if force_closed > 0 {
            self.inner
                .force_closed
                .fetch_add(force_closed, Ordering::SeqCst);
            self.inner.rec.counter_on(
                self.inner.server_span,
                "qnet.drain.force_closed",
                force_closed,
            );
        }
        let handlers = std::mem::take(
            &mut *self
                .inner
                .handlers
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for h in handlers {
            let _ = h.join("qnet.conn.join");
        }

        drop(self.span.take());
        let report = DrainReport {
            inflight_at_start,
            // A request can slip past the in-flight wait (admitted in
            // the marker-to-counter window) and still be swept; the
            // sweep's count is authoritative for "everyone answered".
            completed: completed && force_closed == 0,
            force_closed,
        };
        self.report = Some(report);
        report
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    // The server's one fork on the scheduler: a blocking `accept`
    // cannot be a schedule point, so under the model checker the loop
    // polls a non-blocking listener from one instead. "A connection
    // arrived" is then an explorable step, and "drain began" wakes the
    // loop without a real connection.
    let checked = sched::active();
    if checked {
        let _ = listener.set_nonblocking(true);
    }
    loop {
        let (sock, peer) = if checked {
            let mut slot: Option<(TcpStream, SocketAddr)> = None;
            {
                let inner = &inner;
                let listener = &listener;
                let slot = &mut slot;
                sched::wait_until("qnet.accept.wait", &mut || {
                    if inner.is_draining() {
                        return true;
                    }
                    match listener.accept() {
                        Ok(pair) => {
                            *slot = Some(pair);
                            true
                        }
                        Err(_) => false,
                    }
                });
            }
            match slot {
                Some(pair) => pair,
                None => break, // draining with nothing pending
            }
        } else {
            match listener.accept() {
                Ok(pair) => pair,
                Err(_) => {
                    if inner.is_draining() {
                        break;
                    }
                    continue;
                }
            }
        };
        if inner.is_draining() {
            break;
        }
        if inner.faults.hit(faultsim::QNET_ACCEPT).is_err() {
            // Chaos: the connection vanishes before the handshake. The
            // client sees EOF on its first read and retries.
            inner
                .rec
                .counter_on(inner.server_span, "qnet.accept.dropped", 1);
            continue;
        }
        if checked {
            // The accepted socket inherited the listener's non-blocking
            // flag on some platforms; the handler expects blocking I/O.
            let _ = sock.set_nonblocking(false);
        }
        let _ = sock.set_read_timeout(Some(inner.cfg.read_timeout));
        let _ = sock.set_write_timeout(Some(inner.cfg.write_timeout));
        let _ = sock.set_nodelay(true);
        let Ok(write_half) = sock.try_clone() else {
            continue;
        };
        let conn = Arc::new(ConnShared {
            write: Mutex::new(ConnWrite {
                sock: write_half,
                inflight: None,
                closed: false,
            }),
        });
        inner
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&conn));
        let idx = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
        let conn_inner = Arc::clone(&inner);
        let handler = sched::spawn(&format!("qnet.conn{idx}"), move || {
            handle_conn(conn_inner, sock, conn, peer, idx)
        });
        inner
            .handlers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handler);
    }
}

fn handle_conn(
    inner: Arc<Inner>,
    sock: TcpStream,
    conn: Arc<ConnShared>,
    peer: SocketAddr,
    idx: u64,
) {
    let peer_s = peer.to_string();
    let conn_span = inner
        .rec
        .child_span(Some(inner.server_span), &format!("qnet.conn{idx}"));
    let conn_id = conn_span.id();
    // One `client:{id}` child span per client identity seen on this
    // connection; counters attributed there roll up under the conn span.
    let mut client_spans: HashMap<String, SpanGuard> = HashMap::new();
    let mut reader = BufReader::new(sock);

    loop {
        // Under the model checker, park until a frame (or EOF, or the
        // drain force-close) is observable, so "the request arrived" is
        // a schedule step instead of a blocking read.
        sched::wait_until("qnet.conn.read", &mut || {
            !reader.buffer().is_empty() || crate::sock_readable(reader.get_ref())
        });
        if conn.write.lock().unwrap_or_else(|e| e.into_inner()).closed {
            break;
        }
        let payload = match gstream::read_frame(&mut reader, &peer_s) {
            Ok(Some(p)) => p,
            // Clean close at a frame boundary, or the drain force-close.
            Ok(None) => break,
            Err(e) => {
                // Torn/corrupt frame or socket error: the stream can no
                // longer be trusted, so the connection dies with a
                // typed, peer-attributed error on the trace.
                if matches!(e, gstream::StreamError::Corrupt(_)) {
                    inner.rec.counter_on(conn_id, "qnet.corrupt", 1);
                }
                break;
            }
        };
        let req = match Request::decode(&payload, &peer_s) {
            Ok(r) => r,
            Err(_) => {
                inner.rec.counter_on(conn_id, "qnet.corrupt", 1);
                break;
            }
        };
        let reply = |resp: Response| deliver(&inner, &conn, conn_id, None, &resp);
        let alive = match req {
            // Health and telemetry probes bypass every admission gate:
            // a draining or overloaded server must still answer "how
            // are you doing".
            Request::PingV2 => reply(Response::PongV2(PongStatus {
                ready: !inner.is_draining(),
                draining: inner.is_draining(),
                queue_depth: inner.service.queue_depth() as u64,
                drain_ewma_reads_per_s: inner.drain_ewma(),
                generation: inner.service.active_generation(),
            })),
            Request::Stats => {
                sched::point("qnet.stats.snapshot");
                reply(Response::Stats(inner.stats_snapshot()))
            }
            // Acknowledge before signalling: the drain the signal starts
            // closes this connection, and the ack must be on the wire first.
            Request::Shutdown => {
                let alive = reply(Response::ShutdownAck);
                let mut g = inner
                    .shutdown_requested
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                *g = true;
                inner.shutdown_cv.notify_all();
                alive
            }
            // Gate-exempt like `Stats`: a saturated or draining server
            // must still let an operator roll it to a new generation.
            // Failure is loud and typed — never a hang, never a shed.
            Request::Reload {
                request_id,
                generation,
            } => reply(handle_reload(&inner, request_id, generation)),
            Request::Query {
                request_id,
                deadline_ms,
                client_id,
                reads,
                generation,
                ..
            } => handle_query(
                &inner,
                &conn,
                conn_id,
                &mut client_spans,
                QueryKind::Hits,
                request_id,
                deadline_ms,
                &client_id,
                reads,
                generation,
            ),
            Request::ShardQuery {
                request_id,
                deadline_ms,
                client_id,
                reads,
                generation,
                ..
            } => handle_query(
                &inner,
                &conn,
                conn_id,
                &mut client_spans,
                QueryKind::Candidates,
                request_id,
                deadline_ms,
                &client_id,
                reads,
                generation,
            ),
        };
        if !alive {
            break;
        }
    }

    // The read loop is done (clean close, chaos, corrupt stream, or a
    // failed write), and every request it read has been answered.
    conn.close(false);
}

/// Answer a gate-exempt [`Request::Reload`]: hot-swap the serving
/// generation via [`QueryService::reload_from`], with zero shed. Every
/// failure — no configured work dir, a stalled swap (the
/// `qnet.reload.stall` failpoint), a missing or checksum-mismatched
/// generation — is a loud, typed [`Response::ReloadFailed`] naming the
/// generation, and the previously active generation keeps serving
/// untouched.
fn handle_reload(inner: &Arc<Inner>, request_id: u64, generation: u64) -> Response {
    inner
        .rec
        .counter_on(inner.server_span, "qnet.reload.requested", 1);
    let failed = |inner: &Arc<Inner>, message: String| {
        inner
            .rec
            .counter_on(inner.server_span, "qnet.reload.failed", 1);
        Response::ReloadFailed {
            request_id,
            generation,
            message,
        }
    };
    let Some(rc) = inner.cfg.reload.clone() else {
        return failed(
            inner,
            "reload is not configured on this server (no work dir)".to_string(),
        );
    };
    // Chaos: the reload stalls mid-swap. The swap is abandoned before it
    // starts — serving continues on the old generation — and the client
    // gets a typed failure after the stall, never a hang.
    if inner.faults.hit(faultsim::QNET_RELOAD_STALL).is_err() {
        inner
            .rec
            .counter_on(inner.server_span, "qnet.reload.stalled", 1);
        sched::pause(
            "qnet.reload.stall",
            Duration::from_millis(inner.cfg.stall_ms),
        );
        return failed(
            inner,
            format!(
                "reload of generation {generation} stalled and was abandoned; \
                 the active generation keeps serving"
            ),
        );
    }
    let target = if generation == 0 {
        None
    } else {
        Some(generation)
    };
    match inner.service.reload_from(
        &rc.work_dir,
        target,
        rc.shard,
        &inner.reload_io,
        &inner.faults,
    ) {
        Ok(id) => {
            inner.rec.counter_on(inner.server_span, "qnet.reload.ok", 1);
            Response::ReloadDone {
                request_id,
                generation: id,
            }
        }
        Err(e) => failed(inner, e.to_string()),
    }
}

/// A frame cut off halfway through its payload: full header (so the
/// receiver commits to a length) plus the first half of the body.
fn torn_frame(body: &[u8]) -> Vec<u8> {
    let mut full = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
    gstream::write_frame(&mut full, body).expect("in-memory frame write");
    let keep = gstream::FRAME_HEADER_BYTES + body.len() / 2;
    full.truncate(keep);
    full
}

/// Put one response on the wire, walking the response-path chaos
/// failpoints first; gate-exempt answers and sheds (`request_id: None`)
/// and the answer to admitted request `request_id` all deliver through
/// here. `qnet.conn.drop` models a connection that dies after the work
/// was done — the worst case for the client, whose retry must still
/// land on the same answer.
/// `qnet.frame.stall` holds the response long enough for the client's
/// read timeout to fire, then drops the connection. `qnet.frame.write`
/// tears the frame mid-payload so the client exercises its checksum
/// path. Returns false when the connection must die; the caller cuts it.
fn deliver(
    inner: &Inner,
    conn: &ConnShared,
    conn_id: u64,
    request_id: Option<u64>,
    resp: &Response,
) -> bool {
    if inner.faults.hit(faultsim::QNET_CONN_DROP).is_err() {
        inner.rec.counter_on(conn_id, "qnet.conn.dropped", 1);
        return false;
    }
    if inner.faults.hit(faultsim::QNET_FRAME_STALL).is_err() {
        inner.rec.counter_on(conn_id, "qnet.frame.stalled", 1);
        sched::pause(
            "qnet.frame.stall",
            Duration::from_millis(inner.cfg.stall_ms),
        );
        return false;
    }
    let body = resp.encode();
    if inner.faults.hit(faultsim::QNET_FRAME_WRITE).is_err() {
        inner.rec.counter_on(conn_id, "qnet.frame.torn", 1);
        conn.write_torn(request_id, &torn_frame(&body));
        return false;
    }
    let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
    if gstream::write_frame(&mut frame, &body).is_err() {
        return false;
    }
    match request_id {
        // A skipped write means the drain already answered this id with
        // a typed `Draining`, or the connection died — either way the
        // exactly-one-frame contract held.
        Some(rid) => {
            conn.write_response_for(rid, &frame);
            true
        }
        None => conn.write_frame(&frame),
    }
}

/// Run one query through the admission gates and answer it on this
/// thread. A refused query gets its typed response. An admitted one
/// waits for its batch, running its chunks here whenever a service slot
/// is free, and is answered through [`deliver`] under an
/// [`InflightGuard`] held until that write is done — drain waits on it.
/// Returns false when the connection must die.
#[allow(clippy::too_many_arguments)]
fn handle_query(
    inner: &Arc<Inner>,
    conn: &ConnShared,
    conn_id: u64,
    client_spans: &mut HashMap<String, SpanGuard>,
    kind: QueryKind,
    request_id: u64,
    deadline_ms: u32,
    client_id: &str,
    reads: Vec<genome::PackedSeq>,
    generation: u64,
) -> bool {
    let received = Instant::now();
    let budget = Deadline::after(Duration::from_millis(u64::from(deadline_ms)));
    let n_reads = reads.len() as u64;
    let client_span = client_spans
        .entry(client_id.to_string())
        .or_insert_with(|| {
            inner
                .rec
                .child_span(Some(conn_id), &format!("client:{client_id}"))
        })
        .id();
    let refuse = |resp: Response| deliver(inner, conn, conn_id, None, &resp);

    // Gate 1: drain.
    sched::point("qnet.gate.drain");
    if inner.is_draining() {
        inner.rec.counter_on(client_span, "qnet.rejected", n_reads);
        inner.charge_client(client_id, |t| t.rejected += n_reads);
        return refuse(Response::Draining { request_id });
    }

    // Gate 2: deadline. A spent budget is shed before admission and
    // does not debit the fairness bucket — no work happened. Under a
    // model-checking scheduler the budget burns in virtual time, so
    // expiry is a schedule choice rather than a wall-clock accident.
    sched::point("qnet.gate.deadline");
    if budget.passed() {
        inner
            .rec
            .counter_on(client_span, "qnet.deadline_shed", n_reads);
        inner.charge_client(client_id, |t| t.deadline_shed += n_reads);
        return refuse(Response::DeadlineExceeded { request_id });
    }

    // Gate 3: per-client fairness, one token per read.
    sched::point("qnet.gate.fairness");
    if let Err(FairShed { wait_s }) = inner.admission.admit(client_id, n_reads, inner.now_s()) {
        inner
            .rec
            .counter_on(client_span, "qnet.fairness_shed", n_reads);
        inner.charge_client(client_id, |t| t.fairness_shed += n_reads);
        let adm = inner.cfg.admission;
        let deficit_reads = (wait_s * adm.refill_per_s).ceil() as u64;
        let retry_after_ms = ((wait_s * 1000.0).ceil()).clamp(10.0, 5000.0) as u32;
        return refuse(Response::Overloaded {
            request_id,
            scope: ShedScope::Fairness,
            queued: deficit_reads,
            limit: adm.burst as u64,
            retry_after_ms,
        });
    }

    // Gate 4: shared queue depth. Both query kinds go through the same
    // service queue — shard queries obey the same backpressure, drain,
    // and accounting as placement queries. The generation pin rides
    // into admission: the batch binds to the pinned (or active)
    // generation here and answers from it even if a reload swaps the
    // active pointer while the batch is queued.
    sched::point("qnet.gate.depth");
    let submitted = match kind {
        QueryKind::Hits => inner
            .service
            .submit_pinned(reads, generation)
            .map(Admitted::Hits),
        QueryKind::Candidates => inner
            .service
            .submit_candidates_pinned(reads, generation)
            .map(Admitted::Candidates),
    };
    let handle = match submitted {
        Ok(handle) => handle,
        Err(QserveError::Overloaded {
            queued, max_queue, ..
        }) => {
            inner.rec.counter_on(client_span, "qnet.rejected", n_reads);
            inner.charge_client(client_id, |t| t.rejected += n_reads);
            let backlog_reads = queued as u64 * inner.service.config().batch_chunk.max(1) as u64;
            let retry_after_ms = inner
                .drain_rate
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .retry_hint_ms(backlog_reads + n_reads);
            return refuse(Response::Overloaded {
                request_id,
                scope: ShedScope::Queue,
                queued: queued as u64,
                limit: max_queue as u64,
                retry_after_ms,
            });
        }
        // A pin naming a generation that is not resident (or any other
        // service-side failure) is terminal for this request: the typed
        // message names the generation, and nothing was queued.
        Err(other) => {
            return refuse(Response::Error {
                request_id,
                message: other.to_string(),
            })
        }
    };
    let admitted = Instant::now();

    // Mark the admitted request on the connection's write side *before*
    // anything else can observe it: from here on, a drain force-close
    // that cuts this socket is obligated (by the same mutex the response
    // write takes) to first send a typed `Draining` frame for exactly
    // this request_id.
    let admitted_live = {
        let mut w = conn.write.lock().unwrap_or_else(|e| e.into_inner());
        if w.closed {
            false
        } else {
            w.inflight = Some((request_id, n_reads));
            true
        }
    };
    if !admitted_live {
        // The drain swept this connection between the queue-depth check
        // and the marker: the client already saw the socket close. Count
        // the reads as drain-rejected; the typed response below is
        // best-effort (the write is skipped on a closed connection, so the
        // client observes EOF). The chunks are queued all the same, so run
        // them out here: the drain joins this handler, and must find the
        // queue empty once it has.
        inner.rec.counter_on(client_span, "qnet.rejected", n_reads);
        inner.charge_client(client_id, |t| t.rejected += n_reads);
        match handle {
            Admitted::Hits(h) => drop(h.wait()),
            Admitted::Candidates(h) => drop(h.wait()),
        }
        return refuse(Response::Draining { request_id });
    }

    let _guard = InflightGuard::new(inner); // released after the write below
    let resp = match handle {
        Admitted::Hits(h) => Response::Hits {
            request_id,
            generation: h.generation(),
            hits: h.wait(),
        },
        Admitted::Candidates(h) => Response::ShardCandidates {
            request_id,
            generation: h.generation(),
            candidates: h.wait(),
        },
    };
    let done = Instant::now();
    inner
        .drain_rate
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .observe(inner.now_s(), inner.service.drained_reads());
    inner.rec.counter_on(client_span, "qnet.accepted", n_reads);
    inner.charge_client(client_id, |t| t.accepted += n_reads);
    if inner.rec.is_enabled() {
        // Front-end latency split, charged per read so the histograms
        // weight big batches accordingly: queue = frame receipt → past
        // all admission gates, exec = admission → answer ready (the
        // batch's chunks on this thread or the workers), total = receipt
        // → answer ready.
        for (name, from, to) in [
            ("qnet.latency.queue", received, admitted),
            ("qnet.latency.exec", admitted, done),
            ("qnet.latency.total", received, done),
        ] {
            let mut h = Histogram::new();
            h.record_n(
                to.saturating_duration_since(from).as_micros() as u64,
                n_reads,
            );
            inner.rec.histogram_on(client_span, name, h);
        }
        inner.rec.gauge_on(
            inner.server_span,
            "qnet.drain.ewma_reads_per_s",
            inner.drain_ewma().round() as u64,
        );
    }
    let alive = deliver(inner, conn, conn_id, Some(request_id), &resp);
    if !alive {
        conn.close(false);
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_rate_estimates_and_clamps_retry_hints() {
        let mut dr = DrainRate::new();
        // Unprimed: flat default.
        assert_eq!(dr.retry_hint_ms(1_000_000), 100);
        dr.observe(0.0, 0);
        // 10k reads per second, observed over 10 steady seconds.
        for i in 1..=10u64 {
            dr.observe(i as f64, i * 10_000);
        }
        assert!(
            (dr.ewma_reads_per_s - 10_000.0).abs() < 1.0,
            "steady rate converges, got {}",
            dr.ewma_reads_per_s
        );
        // 5k backlog at 10k/s is 500 ms.
        assert_eq!(dr.retry_hint_ms(5_000), 500);
        // Clamps: tiny backlog floors at 10 ms, huge caps at 5000 ms.
        assert_eq!(dr.retry_hint_ms(1), 10);
        assert_eq!(dr.retry_hint_ms(1_000_000_000), 5000);
    }

    #[test]
    fn zero_backlog_means_zero_wait() {
        // Regression: the hint used to floor at 10 ms (or the unprimed
        // 100 ms) even with nothing queued, telling clients to back off
        // from an empty server.
        let mut dr = DrainRate::new();
        assert_eq!(dr.retry_hint_ms(0), 0, "unprimed, empty backlog");
        dr.observe(0.0, 0);
        for i in 1..=10u64 {
            dr.observe(i as f64, i * 10_000);
        }
        assert_eq!(dr.retry_hint_ms(0), 0, "steady rate, empty backlog");
    }

    #[test]
    fn idle_first_window_does_not_reset_ewma_seeding() {
        // Regression: seeding keyed on `ewma == 0.0`, so a first
        // measured window that was genuinely idle (instantaneous rate
        // 0) left the estimator "unseeded" and the next burst
        // overwrote the average instead of blending into it.
        let mut dr = DrainRate::new();
        dr.observe(0.0, 0);
        dr.observe(1.0, 0); // idle second seeds the EWMA at 0/s
        assert_eq!(dr.ewma_reads_per_s, 0.0);
        dr.observe(2.0, 100_000); // burst: inst = 100k/s
        let blended = 0.3 * 100_000.0;
        assert!(
            (dr.ewma_reads_per_s - blended).abs() < 1.0,
            "burst blends instead of re-seeding: {}",
            dr.ewma_reads_per_s
        );
    }

    #[test]
    fn drain_rate_ignores_sub_millisecond_gaps() {
        let mut dr = DrainRate::new();
        dr.observe(1.0, 1000);
        dr.observe(1.0000001, 2_000_000_000); // would be an absurd rate
        assert_eq!(dr.ewma_reads_per_s, 0.0);
        dr.observe(2.0, 11_000);
        assert!((dr.ewma_reads_per_s - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn torn_frame_keeps_header_and_half_the_body() {
        let body = vec![7u8; 100];
        let torn = torn_frame(&body);
        assert_eq!(torn.len(), gstream::FRAME_HEADER_BYTES + 50);
        // The length prefix still promises the full 100-byte body.
        assert_eq!(u32::from_le_bytes(torn[0..4].try_into().unwrap()), 100);
    }
}
