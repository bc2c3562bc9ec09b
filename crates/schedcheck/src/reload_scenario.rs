//! The model-checked zero-downtime reload scenario: the real
//! [`qnet::Server`] serving generation 1 from an on-disk work dir while
//! a scripted reloader fires the wire `Reload` verb at a
//! schedule-chosen moment, swapping to generation 2 *under live
//! queries*.
//!
//! ## Topology
//!
//! * **work dir** — a real generation store built before scheduling
//!   begins: `gen-000001` (one contig) and `gen-000002` (a delta: the
//!   same contig plus a second one), both listed in `generations.json`.
//! * **server** — the real accept loop with
//!   [`qnet::ReloadConfig`] pointing at the work dir, started on
//!   generation 1.
//! * **clients** — `sr.client{i}` tasks speaking the wire protocol
//!   directly, unpinned (`generation: 0`), so which generation answers
//!   each batch is decided purely by where the reload lands in the
//!   schedule.
//! * **reloader** — `sr.reloader` sends one `Reload` targeting
//!   generation 2; its `sr.reload.go` grant *is* the swap moment the
//!   strategy explores, racing every client batch.
//! * **drainer** — `sr.drainer` waits until every scripted outcome is
//!   recorded, then drains and snapshots — so the drain itself can
//!   never shed a batch and every shed would be the reload's fault.
//!
//! ## Invariants (the zero-downtime contract)
//!
//! * Every batch is answered with `Hits` — a reload never sheds,
//!   refuses, or drops a query, and never kills a connection.
//! * Every answer byte-matches **exactly one** generation's oracle
//!   (computed on independent engines before scheduling), and the
//!   `generation` tag on the wire names that oracle. The two oracles
//!   are guaranteed to disagree on every batch — each batch carries a
//!   read only generation 2 can place — so a blended or mistagged
//!   answer cannot hide.
//! * Per client, the answering generation is monotone: once a client
//!   sees generation 2, no later batch regresses to 1 (unpinned
//!   batches bind to the active generation at admission, and the swap
//!   is atomic).
//! * The reload itself completes (`ReloadDone`, generation 2, zero
//!   rollbacks), and after the drain nothing is left in flight —
//!   the old generation finished its admitted work before the server
//!   tore down (`inflight == 0`, `queue_depth == 0`).

use crate::trace::GrantRecord;
use crate::{scenario, sched_lock};
use faultsim::sched::{self, Candidate, StepState};
use genome::PackedSeq;
use gstream::IoStats;
use qnet::{DrainReport, ReloadConfig, Request, Response, Server, ServerConfig, StatsSnapshot};
use qserve::{
    generations, AdmissionConfig, ContigStore, GenEntry, GenKind, GenManifest, Hit, IndexConfig,
    MinimizerIndex, QueryConfig, QueryEngine, QueryService, ServiceConfig,
};
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Grant cap per schedule — same backstop role as the serving
/// scenario's: a runaway loop becomes a reported violation.
const MAX_GRANTS: usize = 5_000;
/// Client socket timeouts; only matter after an abnormal teardown.
const CLIENT_IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Deadline budget far above any explored schedule's virtual clock
/// (1 ms per grant, capped at [`MAX_GRANTS`]): the deadline gate must
/// never fire here, so any shed is the reload's fault by construction.
const DEADLINE_MS: u32 = 600_000;
/// The reloader's request id — outside every client's id space.
const RELOAD_RID: u64 = 9_000_001;

/// Scenario shape. The default is two clients racing a mid-script swap.
#[derive(Debug, Clone)]
pub struct ReloadScenarioConfig {
    /// Worker threads in the query service.
    pub workers: usize,
    /// Concurrent clients (`sr.client{i}`, wire id `c{i}`).
    pub clients: usize,
    /// Query batches each client sends, sequentially on one connection.
    pub batches_per_client: usize,
    /// Reads per batch. Read 0 of every batch is a window of the
    /// generation-2-only contig, which forces the two oracles apart.
    pub reads_per_batch: usize,
    /// Worker queue admission limit, in chunks. Sized so queue sheds
    /// are impossible — any shed that appears is a violation.
    pub max_queue: usize,
    /// Reads per worker chunk.
    pub batch_chunk: usize,
}

impl Default for ReloadScenarioConfig {
    fn default() -> Self {
        ReloadScenarioConfig {
            workers: 2,
            clients: 2,
            batches_per_client: 2,
            reads_per_batch: 2,
            max_queue: 64,
            batch_chunk: 2,
        }
    }
}

impl ReloadScenarioConfig {
    /// Total reads offered across all clients and batches.
    pub fn offered_reads(&self) -> u64 {
        (self.clients * self.batches_per_client * self.reads_per_batch) as u64
    }
}

/// How one client batch ended, from the client's chair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadOutcomeKind {
    /// Byte-correct `Hits` matching exactly one generation's oracle.
    Hits,
    /// Any typed refusal (`Draining`, `Overloaded`, `DeadlineExceeded`,
    /// `AuthFailed`, remote `Error`) — always a violation here.
    Shed,
    /// Transport failure — always a violation here (the listener lives
    /// until every outcome is recorded).
    Io,
    /// A protocol violation the client proved: mispaired id, blended or
    /// mistagged answer bytes, impossible variant.
    Corrupt,
}

/// What one client observed for one batch — exactly one per batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadBatchOutcome {
    /// Client index (wire id `c{client}`).
    pub client: usize,
    /// Batch index within the client's script.
    pub batch: usize,
    /// The typed classification.
    pub kind: ReloadOutcomeKind,
    /// The generation tag the answer carried (`0` when not `Hits`).
    pub generation: u64,
    /// Human detail (mismatch description, io error, ...).
    pub detail: String,
}

/// How the scripted `Reload` call itself ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadCallOutcome {
    /// `ReloadDone` echoing the right id; carries the new active id.
    Done {
        /// The generation now serving unpinned queries.
        generation: u64,
    },
    /// `ReloadFailed` — the server rolled back. A violation in this
    /// fault-free scenario, but recorded faithfully.
    Failed {
        /// The generation the reload targeted.
        generation: u64,
        /// The server's failure display.
        message: String,
    },
    /// The reloader could not complete the wire exchange.
    Transport(String),
}

/// Everything one executed schedule produced.
#[derive(Debug, Clone)]
pub struct ReloadRunResult {
    /// The interleaving, one record per grant.
    pub trace: Vec<GrantRecord>,
    /// One outcome per (client, batch).
    pub outcomes: Vec<ReloadBatchOutcome>,
    /// The scripted reload call's outcome (`None` only on aborted
    /// schedules where the reloader never finished).
    pub reload: Option<ReloadCallOutcome>,
    /// The drain's own accounting.
    pub report: Option<DrainReport>,
    /// In-process stats snapshot taken after the drain completed.
    pub snap: Option<StatsSnapshot>,
    /// Post-hoc rollup of reload/admission counters.
    pub counters: BTreeMap<String, u64>,
    /// Scheduler-level failure (deadlock/hang/grant-cap), if any.
    pub sched_violation: Option<String>,
    /// Invariants that did not hold (empty on a good run).
    pub violations: Vec<String>,
}

/// The generation-2-only contig: same deterministic mixer as the base
/// contig, different seed, so the delta generation really answers
/// differently.
fn contig_b() -> PackedSeq {
    let mut codes = Vec::with_capacity(600);
    let mut x: u64 = 0x5eed_cafe_f00d_0002;
    while codes.len() < 600 {
        x = stdx::splitmix64(x);
        let mut w = x;
        for _ in 0..32 {
            if codes.len() == 600 {
                break;
            }
            codes.push((w & 3) as u8);
            w >>= 2;
        }
    }
    PackedSeq::from_codes(&codes)
}

/// Export `contigs` as generation `id` into `dir` — store, index, and
/// manifest entry — exactly the layout [`qserve::QueryService::reload_from`]
/// consumes. Generation 1 is a `Full` build; later ids are `Delta`s.
fn export_generation(dir: &Path, id: u64, contigs: &[PackedSeq], io: &IoStats) {
    let store_name = generations::gen_store_file(id);
    let index_name = generations::gen_index_file(id);
    ContigStore::write(&dir.join(&store_name), contigs, io).expect("write generation store");
    let store = ContigStore::open(&dir.join(&store_name), io).expect("reopen generation store");
    let index = MinimizerIndex::build(
        &store,
        &IndexConfig {
            k: 9,
            w: 5,
            threads: 1,
        },
    );
    index
        .write(&dir.join(&index_name), io)
        .expect("write generation index");
    let mut manifest = if GenManifest::exists(dir) {
        GenManifest::load(dir, io).expect("load generation manifest")
    } else {
        GenManifest {
            version: generations::GEN_MANIFEST_VERSION,
            active: id,
            generations: Vec::new(),
        }
    };
    manifest.admit(GenEntry {
        id,
        store: store_name,
        index: index_name,
        store_checksum: store.checksum(),
        reads: contigs.len() as u64,
        read_len: 60,
        kind: if id == 1 {
            GenKind::Full
        } else {
            GenKind::Delta
        },
        parent: if id == 1 { None } else { Some(id - 1) },
    });
    manifest.store(dir, io).expect("store generation manifest");
}

/// Write and flush a whole buffer on a shared socket handle.
fn send_all(sock: &TcpStream, buf: &[u8]) -> std::io::Result<()> {
    let mut w = sock;
    w.write_all(buf)?;
    w.flush()
}

/// True when a read on `sock` would not block — a non-consuming probe,
/// safe as a scheduler re-poll predicate.
fn sock_readable(sock: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    let _ = sock.set_nonblocking(true);
    let r = sock.peek(&mut probe);
    let _ = sock.set_nonblocking(false);
    match r {
        Ok(_) => true,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    }
}

/// The read scripts, one per (client, batch): read 0 strides the
/// generation-2-only contig, the rest stride the shared base contig.
fn batch_reads(
    cfg: &ReloadScenarioConfig,
    base: &PackedSeq,
    extra: &PackedSeq,
    client: usize,
    batch: usize,
) -> Vec<PackedSeq> {
    (0..cfg.reads_per_batch)
        .map(|r| {
            let g = (client * cfg.batches_per_client + batch) * cfg.reads_per_batch + r;
            if r == 0 {
                scenario::query(extra, g)
            } else {
                scenario::query(base, g)
            }
        })
        .collect()
}

/// Send one unpinned query batch and classify the reply against both
/// generations' oracles.
fn run_batch(
    sock: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    client: usize,
    batch: usize,
    request_id: u64,
    reads: &[PackedSeq],
    expected: &(Vec<Option<Hit>>, Vec<Option<Hit>>),
) -> ReloadBatchOutcome {
    let mk = |kind: ReloadOutcomeKind, generation: u64, detail: String| ReloadBatchOutcome {
        client,
        batch,
        kind,
        generation,
        detail,
    };
    let body = Request::Query {
        request_id,
        deadline_ms: DEADLINE_MS,
        client_id: format!("c{client}"),
        reads: reads.to_vec(),
        auth_seq: 0,
        auth_tag: 0,
        generation: 0,
    }
    .encode();
    let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
    if gstream::write_frame(&mut frame, &body).is_err() {
        return mk(ReloadOutcomeKind::Io, 0, "frame encode".to_string());
    }
    sched::point("sr.client.send");
    if send_all(sock, &frame).is_err() {
        return mk(ReloadOutcomeKind::Io, 0, "request write failed".to_string());
    }
    {
        let reader = &*reader;
        sched::wait_until("sr.client.read", &mut || {
            !reader.buffer().is_empty() || sock_readable(reader.get_ref())
        });
    }
    let payload = match gstream::read_frame(reader, "server") {
        Ok(Some(p)) => p,
        Ok(None) => return mk(ReloadOutcomeKind::Io, 0, "eof before response".to_string()),
        Err(e) => return mk(ReloadOutcomeKind::Io, 0, format!("response read: {e}")),
    };
    let resp = match Response::decode(&payload, "server") {
        Ok(r) => r,
        Err(e) => {
            return mk(
                ReloadOutcomeKind::Corrupt,
                0,
                format!("response decode: {e}"),
            )
        }
    };
    match resp {
        Response::Hits {
            request_id: rid,
            generation,
            hits,
        } => {
            if rid != request_id {
                return mk(
                    ReloadOutcomeKind::Corrupt,
                    generation,
                    format!("mispaired Hits: sent id {request_id}, got {rid}"),
                );
            }
            let (gen1, gen2) = expected;
            let matches1 = hits == *gen1;
            let matches2 = hits == *gen2;
            match generation {
                1 if matches1 && !matches2 => mk(ReloadOutcomeKind::Hits, 1, String::new()),
                2 if matches2 && !matches1 => mk(ReloadOutcomeKind::Hits, 2, String::new()),
                g => mk(
                    ReloadOutcomeKind::Corrupt,
                    g,
                    format!(
                        "answer tagged generation {g} matches oracle 1: {matches1}, \
                         oracle 2: {matches2} — not exactly the tagged one"
                    ),
                ),
            }
        }
        Response::Draining { .. } => mk(ReloadOutcomeKind::Shed, 0, "Draining".to_string()),
        Response::DeadlineExceeded { .. } => {
            mk(ReloadOutcomeKind::Shed, 0, "DeadlineExceeded".to_string())
        }
        Response::Overloaded { scope, .. } => {
            mk(ReloadOutcomeKind::Shed, 0, format!("Overloaded ({scope})"))
        }
        Response::AuthFailed { .. } => mk(ReloadOutcomeKind::Shed, 0, "AuthFailed".to_string()),
        Response::Error { message, .. } => mk(
            ReloadOutcomeKind::Shed,
            0,
            format!("remote error: {message}"),
        ),
        other => mk(
            ReloadOutcomeKind::Corrupt,
            0,
            format!("impossible response variant for a query: {other:?}"),
        ),
    }
}

/// The oracle's answers to one batch, under the first generation and
/// under the second.
type BatchAnswers = (Vec<Option<Hit>>, Vec<Option<Hit>>);

/// One client's full script: connect once, run every batch in order.
fn client_task(
    idx: usize,
    addr: SocketAddr,
    cfg: ReloadScenarioConfig,
    reads: Vec<Vec<PackedSeq>>,
    expected: Vec<BatchAnswers>,
    outcomes: Arc<Mutex<Vec<ReloadBatchOutcome>>>,
) {
    let push = |o: ReloadBatchOutcome| {
        outcomes.lock().unwrap_or_else(|e| e.into_inner()).push(o);
    };
    let io_all = |detail: String| {
        for b in 0..cfg.batches_per_client {
            push(ReloadBatchOutcome {
                client: idx,
                batch: b,
                kind: ReloadOutcomeKind::Io,
                generation: 0,
                detail: detail.clone(),
            });
        }
    };
    sched::point("sr.client.connect");
    let sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return io_all(format!("connect: {e}")),
    };
    let _ = sock.set_read_timeout(Some(CLIENT_IO_TIMEOUT));
    let _ = sock.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
    let _ = sock.set_nodelay(true);
    let Ok(read_half) = sock.try_clone() else {
        return io_all("socket clone failed".to_string());
    };
    let mut reader = BufReader::new(read_half);
    for b in 0..cfg.batches_per_client {
        let request_id = ((idx as u64) + 1) * 1_000 + b as u64;
        push(run_batch(
            &sock,
            &mut reader,
            idx,
            b,
            request_id,
            &reads[b],
            &expected[b],
        ));
    }
}

/// The scripted reload: one wire `Reload` targeting generation 2, at
/// the moment the schedule grants `sr.reload.go`.
fn reloader_task(addr: SocketAddr, target: u64, slot: &Mutex<Option<ReloadCallOutcome>>) {
    let record = |o: ReloadCallOutcome| {
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(o);
    };
    sched::point("sr.reload.go");
    let sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return record(ReloadCallOutcome::Transport(format!("connect: {e}"))),
    };
    let _ = sock.set_read_timeout(Some(CLIENT_IO_TIMEOUT));
    let _ = sock.set_write_timeout(Some(CLIENT_IO_TIMEOUT));
    let _ = sock.set_nodelay(true);
    let body = Request::Reload {
        request_id: RELOAD_RID,
        generation: target,
    }
    .encode();
    let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
    if gstream::write_frame(&mut frame, &body).is_err() {
        return record(ReloadCallOutcome::Transport("frame encode".to_string()));
    }
    if send_all(&sock, &frame).is_err() {
        return record(ReloadCallOutcome::Transport(
            "request write failed".to_string(),
        ));
    }
    let Ok(read_half) = sock.try_clone() else {
        return record(ReloadCallOutcome::Transport(
            "socket clone failed".to_string(),
        ));
    };
    let mut reader = BufReader::new(read_half);
    {
        let reader = &reader;
        sched::wait_until("sr.reload.read", &mut || {
            !reader.buffer().is_empty() || sock_readable(reader.get_ref())
        });
    }
    let payload = match gstream::read_frame(&mut reader, "server") {
        Ok(Some(p)) => p,
        Ok(None) => {
            return record(ReloadCallOutcome::Transport(
                "eof before response".to_string(),
            ))
        }
        Err(e) => return record(ReloadCallOutcome::Transport(format!("response read: {e}"))),
    };
    match Response::decode(&payload, "server") {
        Ok(Response::ReloadDone {
            request_id,
            generation,
        }) if request_id == RELOAD_RID => record(ReloadCallOutcome::Done { generation }),
        Ok(Response::ReloadFailed {
            request_id,
            generation,
            message,
        }) if request_id == RELOAD_RID => record(ReloadCallOutcome::Failed {
            generation,
            message,
        }),
        Ok(other) => record(ReloadCallOutcome::Transport(format!(
            "reload answered {other:?}"
        ))),
        Err(e) => record(ReloadCallOutcome::Transport(format!("decode: {e}"))),
    }
}

/// The zero-downtime invariants, checked on completed schedules.
fn check(
    cfg: &ReloadScenarioConfig,
    outcomes: &[ReloadBatchOutcome],
    reload: &Option<ReloadCallOutcome>,
    snap: &StatsSnapshot,
    counters: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut v = Vec::new();
    let total = cfg.clients * cfg.batches_per_client;
    if outcomes.len() != total {
        v.push(format!(
            "{} batch outcomes recorded for {total} batches offered",
            outcomes.len()
        ));
    }
    for o in outcomes {
        if o.kind != ReloadOutcomeKind::Hits {
            v.push(format!(
                "client {} batch {}: {:?} ({}) — a reload must never shed, refuse, \
                 or corrupt a query",
                o.client, o.batch, o.kind, o.detail
            ));
        }
    }
    // Per-client monotone generations: unpinned batches bind to the
    // active generation at admission, batches are sequential on one
    // connection, and the swap is atomic — so a regression 2 → 1 means
    // an answer escaped a retired binding.
    for c in 0..cfg.clients {
        let mut last = 0u64;
        let mut by_batch: Vec<&ReloadBatchOutcome> =
            outcomes.iter().filter(|o| o.client == c).collect();
        by_batch.sort_by_key(|o| o.batch);
        for o in by_batch {
            if o.kind == ReloadOutcomeKind::Hits {
                if o.generation < last {
                    v.push(format!(
                        "client {c} batch {}: generation regressed {last} -> {}",
                        o.batch, o.generation
                    ));
                }
                last = o.generation;
            }
        }
    }
    match reload {
        Some(ReloadCallOutcome::Done { generation: 2 }) => {}
        other => v.push(format!(
            "reload did not complete to generation 2 in a fault-free run: {other:?}"
        )),
    }
    if snap.generation != 2 {
        v.push(format!(
            "post-drain active generation is {} (want 2)",
            snap.generation
        ));
    }
    if snap.reloads != 1 || snap.rollbacks != 0 {
        v.push(format!(
            "reload tallies: {} reloads, {} rollbacks (want 1, 0)",
            snap.reloads, snap.rollbacks
        ));
    }
    if snap.inflight != 0 || snap.queue_depth != 0 {
        v.push(format!(
            "work left behind after drain: inflight {} queue {} — the old generation \
             must finish its admitted chunks before teardown",
            snap.inflight, snap.queue_depth
        ));
    }
    let offered = cfg.offered_reads();
    if snap.accepted != offered {
        v.push(format!(
            "accepted {} of {offered} offered reads — something was shed",
            snap.accepted
        ));
    }
    let sheds = snap.rejected + snap.deadline_shed + snap.fairness_shed + snap.force_closed;
    if sheds != 0 {
        v.push(format!("{sheds} reads shed in a run that must shed zero"));
    }
    for (name, want) in [
        ("qnet.reload.requested", 1),
        ("qnet.reload.ok", 1),
        ("qnet.reload.failed", 0),
    ] {
        let got = counters.get(name).copied().unwrap_or(0);
        if got != want {
            v.push(format!("counter {name} = {got} (want {want})"));
        }
    }
    v
}

/// Execute one schedule of the reload scenario under a fresh
/// controller; the `picker` chooses every grant. Process-exclusive:
/// serialized via [`crate::sched_lock`] internally.
pub fn run_reload_schedule(
    cfg: &ReloadScenarioConfig,
    picker: &mut dyn FnMut(&[Candidate], &[GrantRecord]) -> usize,
) -> ReloadRunResult {
    let _exclusive = sched_lock();
    let base = scenario::contig();
    let extra = contig_b();

    // The on-disk generations the server will reload from, written
    // before any scheduling begins.
    let dir = stdx::tempdir().expect("reload scenario work dir");
    let io = IoStats::new(gstream::DiskModel::ssd());
    export_generation(dir.path(), 1, std::slice::from_ref(&base), &io);
    export_generation(dir.path(), 2, &[base.clone(), extra.clone()], &io);

    // Per-generation oracles on independent engines: byte-correctness
    // is judged against answers computed outside the system under test.
    let oracle1 = {
        let store = ContigStore::from_contigs(vec![base.clone()]);
        let index = MinimizerIndex::build(
            &store,
            &IndexConfig {
                k: 9,
                w: 5,
                threads: 1,
            },
        );
        QueryEngine::new(store, index, QueryConfig::default()).expect("oracle 1 binds")
    };
    let oracle2 = {
        let store = ContigStore::from_contigs(vec![base.clone(), extra.clone()]);
        let index = MinimizerIndex::build(
            &store,
            &IndexConfig {
                k: 9,
                w: 5,
                threads: 1,
            },
        );
        QueryEngine::new(store, index, QueryConfig::default()).expect("oracle 2 binds")
    };
    let reads: Vec<Vec<Vec<PackedSeq>>> = (0..cfg.clients)
        .map(|c| {
            (0..cfg.batches_per_client)
                .map(|b| batch_reads(cfg, &base, &extra, c, b))
                .collect()
        })
        .collect();
    let expected: Vec<Vec<BatchAnswers>> = reads
        .iter()
        .map(|batches| {
            batches
                .iter()
                .map(|batch| {
                    (
                        batch.iter().map(|r| oracle1.query(r)).collect(),
                        batch.iter().map(|r| oracle2.query(r)).collect(),
                    )
                })
                .collect()
        })
        .collect();
    for (c, batches) in expected.iter().enumerate() {
        for (b, (e1, e2)) in batches.iter().enumerate() {
            assert_ne!(
                e1, e2,
                "scenario setup: client {c} batch {b} must tell the generations apart"
            );
        }
    }

    let ctl = sched::Controller::install();
    let rec = obs::Recorder::new();

    // The system under test, started on generation 1 with the reload
    // path armed at the work dir.
    let engine1 = {
        let store = ContigStore::open(&dir.path().join(generations::gen_store_file(1)), &io)
            .expect("open generation 1 store");
        let index = MinimizerIndex::open(&dir.path().join(generations::gen_index_file(1)), &io)
            .expect("open generation 1 index");
        QueryEngine::new(store, index, QueryConfig::default()).expect("generation 1 binds")
    };
    let service = QueryService::start_with_generation(
        engine1,
        1,
        ServiceConfig {
            workers: cfg.workers,
            batch_chunk: cfg.batch_chunk,
            max_queue: cfg.max_queue,
        },
        &rec,
    );
    let server = Server::start(
        service,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: CLIENT_IO_TIMEOUT,
            write_timeout: CLIENT_IO_TIMEOUT,
            drain_deadline: Duration::from_millis(1_000),
            admission: AdmissionConfig {
                refill_per_s: 0.0,
                burst: 1e9,
            },
            stall_ms: 0,
            auth_secret: None,
            reload: Some(ReloadConfig {
                work_dir: dir.path().to_path_buf(),
                shard: None,
            }),
        },
        &rec,
        faultsim::Faults::disabled(),
    )
    .expect("bind reload scenario server");
    let addr = server.local_addr();

    let outcomes: Arc<Mutex<Vec<ReloadBatchOutcome>>> = Arc::new(Mutex::new(Vec::new()));
    let reload_slot: Arc<Mutex<Option<ReloadCallOutcome>>> = Arc::new(Mutex::new(None));
    let mut joins: Vec<std::thread::JoinHandle<()>> = Vec::new();

    for idx in 0..cfg.clients {
        let token = sched::announce(&format!("sr.client{idx}"));
        let cfg_c = cfg.clone();
        let reads_c = reads[idx].clone();
        let expected_c = expected[idx].clone();
        let outcomes_c = Arc::clone(&outcomes);
        joins.push(std::thread::spawn(move || {
            let _task = sched::begin(token);
            client_task(idx, addr, cfg_c, reads_c, expected_c, outcomes_c);
        }));
    }
    {
        let token = sched::announce("sr.reloader");
        let slot = Arc::clone(&reload_slot);
        joins.push(std::thread::spawn(move || {
            let _task = sched::begin(token);
            reloader_task(addr, 2, &slot);
        }));
    }

    // The drainer tears down only after every scripted outcome is
    // recorded, so the drain can never be the reason a batch shed.
    let stash: Arc<Mutex<Option<(DrainReport, StatsSnapshot)>>> = Arc::new(Mutex::new(None));
    {
        let token = sched::announce("sr.drainer");
        let stash = Arc::clone(&stash);
        let outcomes_d = Arc::clone(&outcomes);
        let reload_d = Arc::clone(&reload_slot);
        let total = cfg.clients * cfg.batches_per_client;
        let mut server = server;
        joins.push(std::thread::spawn(move || {
            let _task = sched::begin(token);
            sched::wait_until("sr.drain.wait", &mut || {
                outcomes_d.lock().unwrap_or_else(|e| e.into_inner()).len() == total
                    && reload_d.lock().unwrap_or_else(|e| e.into_inner()).is_some()
            });
            let report = server.shutdown();
            let snap = server.stats_snapshot();
            *stash.lock().unwrap_or_else(|e| e.into_inner()) = Some((report, snap));
            drop(server);
        }));
    }

    // Drive the schedule.
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
    let mut panicked = Vec::new();
    for (i, j) in joins.into_iter().enumerate() {
        if j.join().is_err() {
            panicked.push(format!("scripted task #{i} panicked"));
        }
    }
    rec.flush();

    let totals = obs::Rollup::from_events(&rec.events()).totals();
    let counters: BTreeMap<String, u64> = [
        "qnet.accepted",
        "qnet.rejected",
        "qnet.deadline_shed",
        "qnet.fairness_shed",
        "qnet.reload.requested",
        "qnet.reload.ok",
        "qnet.reload.failed",
        "qnet.reload.stalled",
        "qserve.gen.reloads",
        "qserve.gen.rollbacks",
    ]
    .into_iter()
    .map(|name| (name.to_string(), totals.counter(name)))
    .collect();

    let outcomes = Arc::try_unwrap(outcomes)
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .unwrap_or_default();
    let reload = Arc::try_unwrap(reload_slot)
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .unwrap_or_default();
    let (report, snap) = match Arc::try_unwrap(stash) {
        Ok(m) => match m.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some((r, s)) => (Some(r), Some(s)),
            None => (None, None),
        },
        Err(_) => (None, None),
    };

    let mut violations = panicked;
    if let Some(v) = &sched_violation {
        violations.push(format!("scheduler: {v}"));
    } else {
        match &snap {
            Some(snap) => {
                violations.extend(check(cfg, &outcomes, &reload, snap, &counters));
            }
            None => violations.push("drainer never produced a report/snapshot".to_string()),
        }
    }

    ReloadRunResult {
        trace,
        outcomes,
        reload,
        report,
        snap,
        counters,
        sched_violation,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_schedule_swaps_with_zero_shed() {
        let cfg = ReloadScenarioConfig::default();
        let run = run_reload_schedule(&cfg, &mut |_, _| 0);
        assert!(
            run.violations.is_empty(),
            "baseline violations: {:?}\ntrace tail: {:?}",
            run.violations,
            run.trace.iter().rev().take(12).collect::<Vec<_>>()
        );
        assert_eq!(run.reload, Some(ReloadCallOutcome::Done { generation: 2 }));
        assert!(run
            .outcomes
            .iter()
            .all(|o| o.kind == ReloadOutcomeKind::Hits));
    }

    #[test]
    fn rotated_schedules_hold_the_invariants() {
        // Deterministic non-trivial interleavings: stride the enabled
        // set so the reload lands at different points of the client
        // scripts across runs, without the cost of a full DFS here.
        for stride in [1usize, 3, 7] {
            let cfg = ReloadScenarioConfig::default();
            let run = run_reload_schedule(&cfg, &mut |cands, trace| {
                (trace.len() * stride) % cands.len()
            });
            assert!(
                run.violations.is_empty(),
                "stride {stride} violations: {:?}",
                run.violations
            );
            assert_eq!(
                run.reload,
                Some(ReloadCallOutcome::Done { generation: 2 }),
                "stride {stride}"
            );
        }
    }

    #[test]
    fn single_client_single_batch_schedule_is_clean() {
        let cfg = ReloadScenarioConfig {
            clients: 1,
            batches_per_client: 1,
            ..ReloadScenarioConfig::default()
        };
        let run = run_reload_schedule(&cfg, &mut |cands, trace| (trace.len() * 5) % cands.len());
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.outcomes.len(), 1);
    }
}
