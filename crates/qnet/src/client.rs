//! The retrying query client — the only code in the tree that speaks
//! the wire.
//!
//! [`QueryClient`] wraps one TCP connection and the retry discipline
//! around it: capped jittered exponential backoff (the shape of
//! `dnet`'s recovery backoff — `base · 2^(round-1)`, exponent capped),
//! automatic reconnect after any *wire* error, and honoring the
//! server's `retry_after_ms` hint when a batch is shed. Typed protocol
//! outcomes (sheds, drains, reload failures) keep the connection: the
//! stream is still in sync, so tearing it down would only churn
//! sockets — [`QueryClient::reconnects`] counts actual re-dials so
//! tests can pin this down. Retries are safe because queries are
//! read-only; the request-id echo check means a response from a
//! previous life of the connection can never be returned for the
//! current request — any mismatch is
//! [`QnetError::Corrupt`](crate::QnetError::Corrupt) and a reconnect.
//!
//! Every query shape goes through one attempt
//! (`QueryClient::attempt`): write one request, then read the one
//! response, which must echo its `request_id`. A shard query can also
//! be split in two, [`QueryClient::send_shard_query`] (or the
//! non-blocking [`QueryClient::try_send_shard_query`]) now and
//! [`QueryClient::recv_shard_answer`] later, which is how one router
//! thread scatters a batch to every shard before it gathers any answer;
//! [`QueryClient::answer_ready`] reads the answer's bytes as they come
//! and says when the whole frame is in. The halves are the two halves of
//! an attempt, and neither retries. Both query shapes share that path:
//! the answer type (`Option<Hit>` or `Vec<Candidate>`) decides the
//! request tag and the one response variant that answers it, one
//! classifier (`classify`) turns every other response into a typed
//! error, and one loop (`QueryClient::run`) retries what is retryable.
//! Every answer carries the store/index generation that computed it;
//! [`QueryClient::set_generation_pin`] pins future queries to one
//! generation, which the scatter-gather router uses to keep a rolling
//! reload's mixed-generation window coherent.
//!
//! A client never hangs: connects (bounded by the write timeout), reads,
//! and writes all carry timeouts, and the retry loop is bounded by
//! [`ClientConfig::max_retries`], after which the caller gets
//! [`QnetError::RetriesExhausted`](crate::QnetError::RetriesExhausted)
//! wrapping the last attempt's typed error — with `max_retries: 0`
//! that is the single attempt's own outcome, which is how the router
//! and the `schedcheck` scenarios classify sheds without a second wire
//! client.
//!
//! Under a model-checking scheduler ([`faultsim::sched`]) the dial, every
//! send and every wait for a response are separate schedule points
//! (`qnet.client.connect`, `qnet.client.send`, `qnet.client.read`); with
//! no scheduler installed each is one relaxed load.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use stdx::splitmix64;

use crate::proto::{self, PongStatus, Request, Response, StatsSnapshot};
use crate::QnetError;
use genome::PackedSeq;
use obs::Recorder;
use qserve::{Candidate, Hit};

/// Tuning for [`QueryClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Stable identity for fair admission and trace attribution.
    pub client_id: String,
    /// Deadline budget granted to each attempt, in milliseconds.
    pub deadline_ms: u32,
    /// Retries after the first attempt; total attempts are
    /// `max_retries + 1`.
    pub max_retries: u32,
    /// First-retry backoff in milliseconds; doubles per retry.
    pub backoff_base_ms: u64,
    /// Exponent cap: backoff stops growing after this many doublings
    /// (the same cap `dnet` applies to recovery rounds).
    pub backoff_cap_rounds: u32,
    /// Socket read timeout per attempt.
    pub read_timeout: Duration,
    /// Socket write timeout per attempt.
    pub write_timeout: Duration,
    /// Seed for deterministic backoff jitter.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            addr: "127.0.0.1:0".to_string(),
            client_id: "client".to_string(),
            deadline_ms: 10_000,
            max_retries: 4,
            backoff_base_ms: 100,
            backoff_cap_rounds: 4,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            jitter_seed: 0x5EED,
        }
    }
}

impl ClientConfig {
    /// Backoff before retry number `round` (1-based), in milliseconds:
    /// `base · 2^(round-1)` with the exponent capped, scaled by a
    /// deterministic jitter factor in [0.5, 1.0) keyed on the seed, the
    /// round and `salt`. The client's own retries use no salt; the pool
    /// salts with a replica's address, so a fail-over sweep across
    /// replicas does not retry in lockstep.
    pub(crate) fn backoff_ms(&self, salt: &str, round: u32) -> u64 {
        let exp = round.saturating_sub(1).min(self.backoff_cap_rounds);
        let full = self.backoff_base_ms.saturating_mul(1u64 << exp);
        let mut key = self.jitter_seed ^ u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for b in salt.as_bytes() {
            key = splitmix64(key ^ u64::from(*b));
        }
        let jitter_millis = 512 + (splitmix64(key) % 512); // in units of 1/1024
        full * jitter_millis / 1024
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Answer bytes [`QueryClient::answer_ready`] took off the socket
    /// and no frame has been read from yet; they come before the
    /// reader's.
    ahead: Vec<u8>,
    peer: String,
}

/// The least [`QueryClient::answer_ready`] asks the socket for at once,
/// so that a small answer frame arrives in one read; it asks for at most
/// eight times this, so a header that claims a huge frame costs no more
/// than the bytes that really come.
const READ_AHEAD_BYTES: usize = 8 << 10;

/// Bytes still missing from the first frame in `buf`, or `None` when its
/// header names a length over [`gstream::MAX_FRAME_BYTES`].
fn frame_shortfall(buf: &[u8]) -> Option<usize> {
    if buf.len() < 4 {
        return Some(gstream::FRAME_HEADER_BYTES - buf.len());
    }
    let len = gstream::frame_len(buf, "").ok()?;
    Some((gstream::FRAME_HEADER_BYTES + len).saturating_sub(buf.len()))
}

/// Write as much of `wire` as a non-blocking socket takes now; returns
/// how many bytes it took.
fn write_until_full(stream: &mut TcpStream, wire: &[u8]) -> std::io::Result<usize> {
    let mut done = 0;
    while done < wire.len() {
        match stream.write(&wire[done..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// A query's answer shape on the wire: the request tag that asks for it
/// and the one response variant that carries it.
trait WireAnswer: Sized {
    /// The tag of a request answered in this shape.
    const TAG: u8;
    /// The `request_id` `resp` echoes and what it means for a query of
    /// this shape: its answers when `resp` is this shape's variant, else
    /// what [`classify`] makes of it.
    fn outcome(resp: Response, budget_ms: u32, peer: &str) -> crate::Result<(u64, Outcome<Self>)>;
}

impl WireAnswer for Option<Hit> {
    const TAG: u8 = proto::TAG_QUERY;
    fn outcome(resp: Response, budget_ms: u32, peer: &str) -> crate::Result<(u64, Outcome<Self>)> {
        match resp {
            Response::Hits {
                request_id,
                generation,
                hits,
            } => Ok((request_id, Ok((generation, hits)))),
            other => classify(other, budget_ms, peer),
        }
    }
}

impl WireAnswer for Vec<Candidate> {
    const TAG: u8 = proto::TAG_SHARD_QUERY;
    fn outcome(resp: Response, budget_ms: u32, peer: &str) -> crate::Result<(u64, Outcome<Self>)> {
        match resp {
            Response::ShardCandidates {
                request_id,
                generation,
                candidates,
            } => Ok((request_id, Ok((generation, candidates)))),
            other => classify(other, budget_ms, peer),
        }
    }
}

/// One query's outcome: the generation that answered plus one answer per
/// read, or the request's typed error.
type Outcome<A> = crate::Result<(u64, Vec<A>)>;

/// A connection-owning client for the qnet wire protocol.
pub struct QueryClient {
    cfg: ClientConfig,
    rec: Recorder,
    conn: Option<Conn>,
    next_request_id: u64,
    retries_total: u64,
    /// Connections established so far, the first included.
    connects: u64,
    /// Generation pin carried by every query; `0` = server's active.
    pin: u64,
}

/// A placement batch's outcome: the generation that answered and its
/// hits, or the batch's terminal typed error.
pub type BatchResult = crate::Result<(u64, Vec<Option<Hit>>)>;

/// A shard query written by [`QueryClient::send_shard_query`] and not
/// yet answered: the id its answer must echo and the reads it must
/// cover.
#[derive(Debug)]
#[must_use = "a sent query's answer must be read before the next request"]
pub struct SentQuery {
    request_id: u64,
    n_reads: usize,
}

impl QueryClient {
    /// Create a client; the connection is established lazily on first
    /// use and re-established after any wire error.
    pub fn new(cfg: ClientConfig, rec: &Recorder) -> QueryClient {
        QueryClient {
            cfg,
            rec: rec.clone(),
            conn: None,
            next_request_id: 1,
            retries_total: 0,
            connects: 0,
            pin: 0,
        }
    }

    /// Total retries performed over this client's lifetime.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Re-dials over this client's lifetime: connections established
    /// after the first one. A typed shed, drain, or reload outcome keeps
    /// the connection alive — only wire errors (I/O, corrupt frames)
    /// force a re-dial — so steady-state traffic across a hot reload
    /// holds this at 0.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Pin every subsequent query to store/index `generation`; `0`
    /// (the default) follows whatever generation is active on the
    /// server. Routers pin all shard fan-outs of one request to one id
    /// so candidate votes always sum over a single postings space.
    pub fn set_generation_pin(&mut self, generation: u64) {
        self.pin = generation;
    }

    /// The configuration this client was built with.
    pub fn config(&self) -> &ClientConfig {
        &self.cfg
    }

    /// Query a batch of reads, retrying retryable failures with capped
    /// jittered exponential backoff. Returns per-read placements
    /// aligned with `reads`.
    pub fn query_batch(&mut self, reads: &[PackedSeq]) -> crate::Result<Vec<Option<Hit>>> {
        Ok(self.query_batch_tagged(reads)?.1)
    }

    /// [`query_batch`](Self::query_batch), also returning the
    /// generation that computed the placements.
    pub fn query_batch_tagged(&mut self, reads: &[PackedSeq]) -> BatchResult {
        self.run(reads)
    }

    /// Query a batch of reads against the server's *shard* of the
    /// postings space ([`Request::ShardQuery`]), returning every voted
    /// candidate placement per read. Same retry discipline as
    /// [`query_batch`](Self::query_batch). The scatter-gather router
    /// uses the split form instead ([`send_shard_query`](Self::send_shard_query),
    /// then [`recv_shard_answer`](Self::recv_shard_answer)) and drives
    /// its own fail-over.
    pub fn shard_query_batch(&mut self, reads: &[PackedSeq]) -> crate::Result<Vec<Vec<Candidate>>> {
        Ok(self.run(reads)?.1)
    }

    /// Ask the server to hot-swap to store/index `generation` (`0` =
    /// the manifest's `active` pointer). Returns the generation now
    /// active. Single attempt: a failed reload is a deliberate,
    /// server-side rollback ([`QnetError::ReloadFailed`]) — retrying
    /// it blindly would hide an operational problem.
    pub fn reload(&mut self, generation: u64) -> crate::Result<u64> {
        let request_id = self.take_request_id();
        let resp = self.control(&Request::Reload {
            request_id,
            generation,
        })?;
        let (rid, outcome) = match resp {
            Response::ReloadDone {
                request_id,
                generation,
            } => (request_id, Ok(generation)),
            Response::ReloadFailed {
                request_id,
                generation,
                message,
            } => (
                request_id,
                Err(QnetError::ReloadFailed {
                    generation,
                    message,
                }),
            ),
            other => {
                let classified = classify(other, self.cfg.deadline_ms, &self.peer());
                self.hang_up_on_wire_error(classified)?
            }
        };
        if rid != request_id {
            return Err(self.desynced(format!(
                "response id {rid} does not match request id {request_id}"
            )));
        }
        outcome
    }

    /// Probe the server: readiness, drain state, queue depth, the
    /// drain-rate EWMA and the active generation. Single attempt —
    /// callers polling for readiness supply their own loop.
    pub fn ping_v2(&mut self) -> crate::Result<PongStatus> {
        match self.control(&Request::PingV2)? {
            Response::PongV2(status) => Ok(status),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Fetch a live telemetry snapshot. Single attempt; `Stats` is
    /// admission-gate-exempt on the server, so this works mid-drain and
    /// mid-overload.
    pub fn stats(&mut self) -> crate::Result<StatsSnapshot> {
        match self.control(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Ask the server to begin a graceful drain.
    pub fn request_shutdown(&mut self) -> crate::Result<()> {
        match self.control(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(self.unexpected(&other)),
        }
    }

    /// The peer this client talks to: the connected socket's address
    /// when a connection is live, the configured address otherwise.
    /// Routers fold this into their typed error context.
    pub fn peer(&self) -> String {
        self.conn
            .as_ref()
            .map(|c| c.peer.clone())
            .unwrap_or_else(|| self.cfg.addr.clone())
    }

    /// The one retry loop, shared by every query shape: attempt the
    /// batch until it has a terminal outcome. Retryable failures back
    /// off (capped jittered exponential, honoring `retry_after_ms`
    /// hints); a wire failure has already abandoned the connection (see
    /// [`Self::attempt`]), a typed one keeps it.
    fn run<A: WireAnswer>(&mut self, reads: &[PackedSeq]) -> Outcome<A> {
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            let err = match self.attempt(reads) {
                Err(err) if err.is_retryable() => err,
                outcome => return outcome,
            };
            if attempts > self.cfg.max_retries {
                return Err(QnetError::RetriesExhausted {
                    attempts,
                    last: Box::new(err),
                });
            }
            self.retries_total += 1;
            self.rec.counter("qnet.retries", 1);
            let hint_ms = match &err {
                QnetError::Overloaded { retry_after_ms, .. } => u64::from(*retry_after_ms),
                _ => 0,
            };
            let wait = self.backoff_ms(attempts).max(hint_ms);
            faultsim::sched::pause("qnet.client.backoff", Duration::from_millis(wait));
        }
    }

    /// Backoff before retry number `round` (1-based), in milliseconds
    /// ([`ClientConfig::backoff_ms`], unsalted).
    fn backoff_ms(&self, round: u32) -> u64 {
        self.cfg.backoff_ms("", round)
    }

    /// One attempt: write the batch's request, then read its answer. A
    /// typed outcome — an answer, a shed, a drain — keeps the connection
    /// in sync, so it survives. Only a *wire* failure abandons it: after
    /// a torn frame or a timeout the stream position is unknowable, and
    /// a fresh connection is the only way to guarantee the next response
    /// pairs with the next request.
    fn attempt<A: WireAnswer>(&mut self, reads: &[PackedSeq]) -> Outcome<A> {
        let sent = self.send_query::<A>(reads)?;
        self.recv_answer(sent)
    }

    /// Write one query answered in shape `A` on the live connection,
    /// dialing first if there is none. A wire failure drops the
    /// connection.
    fn send_query<A: WireAnswer>(&mut self, reads: &[PackedSeq]) -> crate::Result<SentQuery> {
        let result = self.ensure_conn().and_then(|()| {
            let mut wire = Vec::new();
            let request_id = self.frame_query(&mut wire, A::TAG, reads)?;
            self.send(&wire)?;
            Ok(SentQuery {
                request_id,
                n_reads: reads.len(),
            })
        });
        self.hang_up_on_wire_error(result)
    }

    /// Read the answer to `sent` in shape `A`: what it means, or
    /// `Corrupt` when it echoes another request's id or answers another
    /// number of reads. A wire failure drops the connection.
    fn recv_answer<A: WireAnswer>(&mut self, sent: SentQuery) -> Outcome<A> {
        let peer = self.peer();
        let answer = self.recv().and_then(|resp| {
            let (rid, outcome) = A::outcome(resp, self.cfg.deadline_ms, &peer)?;
            let answered = outcome.as_ref().map_or(sent.n_reads, |(_, a)| a.len());
            let detail = if rid != sent.request_id {
                format!(
                    "response id {rid} does not match request id {}",
                    sent.request_id
                )
            } else if answered != sent.n_reads {
                format!("{answered} answers for {} reads", sent.n_reads)
            } else {
                return outcome;
            };
            Err(QnetError::Corrupt { peer, detail })
        });
        self.hang_up_on_wire_error(answer)
    }

    /// Append one framed query of `tag` over `reads` to `wire`, under a
    /// fresh request id, and return that id.
    fn frame_query(
        &mut self,
        wire: &mut Vec<u8>,
        tag: u8,
        reads: &[PackedSeq],
    ) -> crate::Result<u64> {
        let request_id = self.take_request_id();
        let mut body = Vec::new();
        proto::encode_query(
            &mut body,
            tag,
            request_id,
            self.cfg.deadline_ms,
            &self.cfg.client_id,
            reads,
            [0, 0],
            self.pin,
        );
        gstream::write_frame(wire, &body).map_err(|e| crate::from_stream(e, &self.peer()))?;
        Ok(request_id)
    }

    /// Write one shard query and return without waiting for its answer;
    /// [`recv_shard_answer`](Self::recv_shard_answer) reads it. Dials
    /// first if no connection is live. One wire attempt, never retried;
    /// a wire failure drops the connection.
    pub fn send_shard_query(&mut self, reads: &[PackedSeq]) -> crate::Result<SentQuery> {
        self.send_query::<Vec<Candidate>>(reads)
    }

    /// [`send_shard_query`](Self::send_shard_query) without blocking,
    /// which is how one thread scatters a batch to several shards before
    /// it gathers any answer. The query is written only on a live
    /// connection whose socket takes the whole frame at once. `Ok(None)`
    /// means nothing usable was sent: no connection was live, or the
    /// socket had no room (a frame it took only in part also drops the
    /// connection). A wire failure drops the connection.
    pub fn try_send_shard_query(
        &mut self,
        reads: &[PackedSeq],
    ) -> crate::Result<Option<SentQuery>> {
        if self.conn.is_none() {
            return Ok(None);
        }
        let mut wire = Vec::new();
        let request_id = self.frame_query(&mut wire, proto::TAG_SHARD_QUERY, reads)?;
        let Some(conn) = self.conn.as_mut() else {
            return Ok(None);
        };
        faultsim::sched::point("qnet.client.send");
        let _ = conn.stream.set_nonblocking(true);
        let written = write_until_full(&mut conn.stream, &wire);
        let _ = conn.stream.set_nonblocking(false);
        match written {
            Ok(n) if n == wire.len() => Ok(Some(SentQuery {
                request_id,
                n_reads: reads.len(),
            })),
            Ok(0) => Ok(None),
            Ok(_) => {
                // Part of a frame is on the wire; nothing can follow it.
                self.conn = None;
                Ok(None)
            }
            Err(e) => self.hang_up_on_wire_error(Err(e.into())),
        }
    }

    /// True once the whole answer frame to a sent query has arrived, or
    /// the connection has closed or failed (the read then fails at
    /// once), waiting at most `timeout` for that. What has arrived is
    /// kept for [`recv_shard_answer`](Self::recv_shard_answer), so a
    /// later call goes on where this one stopped. Without a connection
    /// the read fails at once, so that is ready too.
    pub fn answer_ready(&mut self, timeout: Duration) -> bool {
        let read_timeout = self.cfg.read_timeout;
        let Some(conn) = &mut self.conn else {
            return true;
        };
        let until = Instant::now() + timeout;
        loop {
            let Some(want) = frame_shortfall(&conn.ahead) else {
                return true; // an implausible length: the read reports it
            };
            if want == 0 {
                return true;
            }
            let buffered = conn.reader.buffer();
            if !buffered.is_empty() {
                let n = buffered.len().min(want);
                conn.ahead.extend_from_slice(&buffered[..n]);
                conn.reader.consume(n);
                continue;
            }
            let left = until.saturating_duration_since(Instant::now());
            let sock = conn.reader.get_ref();
            let _ = match left.is_zero() {
                true => sock.set_nonblocking(true),
                false => sock.set_read_timeout(Some(left)),
            };
            let start = conn.ahead.len();
            let room = want.clamp(READ_AHEAD_BYTES, 8 * READ_AHEAD_BYTES);
            conn.ahead.resize(start + room, 0);
            let got = (&*sock).read(&mut conn.ahead[start..]);
            conn.ahead.truncate(start + got.as_ref().map_or(0, |n| *n));
            let _ = match left.is_zero() {
                true => sock.set_nonblocking(false),
                false => sock.set_read_timeout(Some(read_timeout)),
            };
            match got {
                Ok(0) => return true,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            }
        }
    }

    /// Read the answer to `sent`, the last query written on this
    /// connection: the generation that voted and every candidate per
    /// read, or the request's typed error. A response for another
    /// request, or one of the wrong length, is `Corrupt` and drops the
    /// connection; a typed outcome keeps it.
    pub fn recv_shard_answer(
        &mut self,
        sent: SentQuery,
    ) -> crate::Result<(u64, Vec<Vec<Candidate>>)> {
        self.recv_answer(sent)
    }

    fn take_request_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// Pass `result` through, abandoning the connection first when it is
    /// a wire error (I/O or a corrupt frame).
    fn hang_up_on_wire_error<T>(&mut self, result: crate::Result<T>) -> crate::Result<T> {
        if matches!(result, Err(QnetError::Io(_) | QnetError::Corrupt { .. })) {
            self.conn = None;
        }
        result
    }

    /// The stream is desynchronized: drop the connection and say why.
    fn desynced(&mut self, detail: String) -> QnetError {
        let peer = self.peer();
        self.conn = None;
        QnetError::Corrupt { peer, detail }
    }

    /// A response whose type makes no sense for the request we sent.
    fn unexpected(&mut self, resp: &Response) -> QnetError {
        self.desynced(format!("unexpected response type {resp:?}"))
    }

    /// One gate-exempt request/response exchange on the current (or a
    /// fresh) connection. Single attempt; a wire failure drops the
    /// connection.
    fn control(&mut self, req: &Request) -> crate::Result<Response> {
        let result = self.ensure_conn().and_then(|()| self.exchange(req));
        self.hang_up_on_wire_error(result)
    }

    /// Establish the connection if none is live.
    fn ensure_conn(&mut self) -> crate::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        faultsim::sched::point("qnet.client.connect");
        let stream = self.dial()?;
        stream.set_read_timeout(Some(self.cfg.read_timeout))?;
        stream.set_write_timeout(Some(self.cfg.write_timeout))?;
        stream.set_nodelay(true).ok();
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| self.cfg.addr.clone());
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some(Conn {
            stream,
            reader,
            ahead: Vec::new(),
            peer,
        });
        self.connects += 1;
        self.rec.counter("qnet.client.connects", 1);
        Ok(())
    }

    /// Connect to the first address `cfg.addr` resolves to that answers
    /// within the write timeout.
    fn dial(&self) -> std::io::Result<TcpStream> {
        let mut last = None;
        for addr in self.cfg.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, self.cfg.write_timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| ErrorKind::AddrNotAvailable.into()))
    }

    /// Send one request and read one response on the live connection;
    /// the caller guarantees one exists.
    fn exchange(&mut self, req: &Request) -> crate::Result<Response> {
        let body = req.encode();
        let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
        gstream::write_frame(&mut frame, &body).map_err(|e| crate::from_stream(e, &self.peer()))?;
        self.send(&frame)?;
        self.recv()
    }

    /// Write already-framed bytes to the live connection.
    fn send(&mut self, wire: &[u8]) -> crate::Result<()> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(QnetError::Io(ErrorKind::NotConnected.into()));
        };
        faultsim::sched::point("qnet.client.send");
        Ok(conn.stream.write_all(wire)?)
    }

    /// Read and decode one response frame from the live connection.
    fn recv(&mut self) -> crate::Result<Response> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(QnetError::Io(ErrorKind::NotConnected.into()));
        };
        // Under the deterministic scheduler, park until the response (or
        // EOF) is actually observable so the blocking read below cannot
        // stall the schedule on wall time.
        let (ahead, reader) = (&conn.ahead, &conn.reader);
        faultsim::sched::wait_until("qnet.client.read", &mut || {
            frame_shortfall(ahead).is_none_or(|n| n == 0)
                || !reader.buffer().is_empty()
                || crate::sock_readable(reader.get_ref())
        });
        let mut ahead = std::mem::take(&mut conn.ahead);
        let mut unread = ahead.as_slice();
        let frame = gstream::read_frame(&mut (&mut unread).chain(&mut conn.reader), &conn.peer);
        let used = ahead.len() - unread.len();
        ahead.drain(..used);
        conn.ahead = ahead;
        match frame {
            Ok(Some(payload)) => Response::decode(&payload, &conn.peer),
            // The server closed cleanly between our request and its
            // response (drain force-close, accept-drop chaos, …).
            Ok(None) => Err(QnetError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "{} closed the connection with a response outstanding",
                    conn.peer
                ),
            ))),
            Err(e) => Err(crate::from_stream(e, &conn.peer)),
        }
    }
}

/// The one table from wire responses that answer no request to typed
/// errors: the `request_id` a shed, drain, spent deadline or server error
/// echoes, and what it means, as the outcome of any request. A response
/// that cannot answer the request at all — a probe reply, or another
/// request shape's answer — means the stream is desynchronized:
/// `Corrupt`, naming `peer`.
fn classify<T>(
    resp: Response,
    budget_ms: u32,
    peer: &str,
) -> crate::Result<(u64, crate::Result<T>)> {
    let (request_id, err) = match resp {
        Response::Overloaded {
            request_id,
            scope,
            queued,
            limit,
            retry_after_ms,
        } => (
            request_id,
            QnetError::Overloaded {
                scope,
                queued,
                limit,
                retry_after_ms,
            },
        ),
        Response::Draining { request_id } => (request_id, QnetError::Draining),
        Response::DeadlineExceeded { request_id } => {
            (request_id, QnetError::DeadlineExceeded { budget_ms })
        }
        Response::Error {
            request_id,
            message,
        } => (request_id, QnetError::Remote(message)),
        other => {
            return Err(QnetError::Corrupt {
                peer: peer.to_string(),
                detail: format!("unexpected response type {other:?}"),
            })
        }
    };
    Ok((request_id, Err(err)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{Shutdown, TcpListener};

    fn fast_cfg(addr: String) -> ClientConfig {
        ClientConfig {
            addr,
            client_id: "t".to_string(),
            max_retries: 2,
            backoff_base_ms: 1,
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            ..ClientConfig::default()
        }
    }

    /// Read one frame off `sock` and decode the request in it. Unbuffered:
    /// a buffered reader dropped between calls would swallow any frame
    /// the client has already sent behind this one.
    fn read_request(sock: &mut TcpStream) -> Request {
        let payload = gstream::read_frame(sock, "client")
            .unwrap()
            .expect("a frame");
        Request::decode(&payload, "client").unwrap()
    }

    /// A fake server on an ephemeral port: accepts `lives` connections one
    /// after another and runs `script(life, socket)` on each, then reads
    /// until the client hangs up, so its last frame is never cut short by
    /// its own close. Returns the address to dial and the server thread.
    fn fake_server(
        lives: usize,
        script: impl Fn(usize, &mut TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for life in 0..lives {
                let (mut s, _) = listener.accept().unwrap();
                script(life, &mut s);
                let _ = s.read(&mut [0u8; 1]);
            }
        });
        (addr, server)
    }

    /// The client keeps its connection for reuse, and the fake server
    /// waits for it to hang up: drop the client first, then join — within
    /// a bound, so a server stuck anywhere fails its test instead of
    /// stalling the suite.
    fn hang_up_and_join(client: QueryClient, server: std::thread::JoinHandle<()>) {
        drop(client);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while !server.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "the fake server is still running 30 s after the client hung up"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        server.join().unwrap();
    }

    fn send_response(sock: &mut TcpStream, resp: &Response) {
        let body = resp.encode();
        let mut frame = Vec::new();
        gstream::write_frame(&mut frame, &body).unwrap();
        sock.write_all(&frame).unwrap();
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let cfg = ClientConfig {
            backoff_base_ms: 100,
            backoff_cap_rounds: 4,
            jitter_seed: 7,
            ..ClientConfig::default()
        };
        let rec = Recorder::disabled();
        let a = QueryClient::new(cfg.clone(), &rec);
        let b = QueryClient::new(cfg, &rec);
        for round in 1..=8 {
            // Same seed, same round: identical backoff.
            assert_eq!(a.backoff_ms(round), b.backoff_ms(round));
            // Jitter stays in [50%, 100%) of the uncapped-or-capped full value.
            let exp = (round - 1).min(4);
            let full = 100u64 << exp;
            let got = a.backoff_ms(round);
            assert!(
                got >= full / 2 && got < full,
                "round {round}: {got} vs {full}"
            );
        }
        // Past the cap the full value stops growing.
        let capped_full = 100u64 << 4;
        for round in 5..=8 {
            assert!(a.backoff_ms(round) < capped_full);
        }
    }

    #[test]
    fn client_reconnects_and_retries_after_a_torn_frame() {
        let (addr, server) = fake_server(2, |life, s| {
            let Request::Query { request_id, .. } = read_request(s) else {
                panic!("expected a query")
            };
            let body = Response::Hits {
                request_id,
                generation: 0,
                hits: vec![None],
            }
            .encode();
            let mut frame = Vec::new();
            gstream::write_frame(&mut frame, &body).unwrap();
            if life == 0 {
                // First life: answer with a torn frame, then hang up.
                frame.truncate(gstream::FRAME_HEADER_BYTES + body.len() / 2);
                s.write_all(&frame).unwrap();
                s.shutdown(Shutdown::Both).unwrap();
            } else {
                // Second life: answer properly.
                s.write_all(&frame).unwrap();
            }
        });
        let rec = Recorder::disabled();
        let mut client = QueryClient::new(fast_cfg(addr), &rec);
        let reads = vec!["ACGT".parse::<PackedSeq>().unwrap()];
        let hits = client.query_batch(&reads).expect("retry succeeds");
        assert_eq!(hits, vec![None]);
        assert_eq!(client.retries_total(), 1);
        hang_up_and_join(client, server);
    }

    #[test]
    fn mismatched_response_id_is_corrupt_and_bounded_by_retry_budget() {
        // Three lives (1 attempt + 2 retries), each answering with a
        // wrong request id.
        let (addr, server) = fake_server(3, |_, s| {
            let _ = read_request(s);
            send_response(
                s,
                &Response::Hits {
                    request_id: 0xBAD,
                    generation: 0,
                    hits: vec![None],
                },
            );
        });
        let rec = Recorder::disabled();
        let mut client = QueryClient::new(fast_cfg(addr), &rec);
        let reads = vec!["ACGT".parse::<PackedSeq>().unwrap()];
        let err = client
            .query_batch(&reads)
            .expect_err("never a wrong answer");
        match err {
            QnetError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, QnetError::Corrupt { .. }), "last: {last}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        hang_up_and_join(client, server);
    }

    #[test]
    fn shard_queries_round_trip_candidates() {
        let cands = vec![
            vec![Candidate {
                contig: 2,
                offset: 17,
                reverse: false,
                votes: 5,
                mismatches: Some(1),
            }],
            vec![],
        ];
        let expect = cands.clone();
        let (addr, server) = fake_server(1, move |_, s| {
            let Request::ShardQuery { request_id, .. } = read_request(s) else {
                panic!("expected a shard query")
            };
            send_response(
                s,
                &Response::ShardCandidates {
                    request_id,
                    generation: 0,
                    candidates: cands.clone(),
                },
            );
        });
        let rec = Recorder::disabled();
        let mut client = QueryClient::new(fast_cfg(addr), &rec);
        let reads = vec![
            "ACGT".parse::<PackedSeq>().unwrap(),
            "TTTT".parse::<PackedSeq>().unwrap(),
        ];
        let got = client.shard_query_batch(&reads).expect("candidates");
        assert_eq!(got, expect);
        hang_up_and_join(client, server);
    }

    #[test]
    fn typed_sheds_keep_the_connection_alive() {
        let (addr, server) = fake_server(1, move |_, s| {
            // ONE connection lifetime: shed the first query, then
            // answer the retry on the same socket. A second accept
            // would hang the test — which is the point.
            let Request::Query { request_id, .. } = read_request(s) else {
                panic!("expected a query")
            };
            send_response(
                s,
                &Response::Overloaded {
                    request_id,
                    scope: crate::proto::ShedScope::Queue,
                    queued: 8,
                    limit: 4,
                    retry_after_ms: 1,
                },
            );
            let Request::Query { request_id, .. } = read_request(s) else {
                panic!("expected the retried query")
            };
            send_response(
                s,
                &Response::Hits {
                    request_id,
                    generation: 1,
                    hits: vec![None],
                },
            );
        });
        let rec = Recorder::disabled();
        let mut client = QueryClient::new(fast_cfg(addr), &rec);
        let reads = vec!["ACGT".parse::<PackedSeq>().unwrap()];
        let (generation, hits) = client.query_batch_tagged(&reads).expect("retry succeeds");
        assert_eq!(generation, 1);
        assert_eq!(hits, vec![None]);
        assert_eq!(client.retries_total(), 1);
        assert_eq!(
            client.reconnects(),
            0,
            "a shed is a typed outcome, not a reason to re-dial"
        );
        hang_up_and_join(client, server);
    }

    #[test]
    fn reload_round_trips_and_keeps_the_connection() {
        // The regression this pins down: queries before and after a
        // Reload ride the SAME connection — a reload outcome (done or
        // failed) never tears the stream down, so steady traffic sees
        // zero reconnects across a hot swap.
        let (addr, server) = fake_server(1, move |_, s| {
            let Request::Query { request_id, .. } = read_request(s) else {
                panic!("expected a query")
            };
            send_response(
                s,
                &Response::Hits {
                    request_id,
                    generation: 1,
                    hits: vec![None],
                },
            );
            let Request::Reload {
                request_id,
                generation,
            } = read_request(s)
            else {
                panic!("expected a reload")
            };
            assert_eq!(generation, 2);
            send_response(
                s,
                &Response::ReloadDone {
                    request_id,
                    generation: 2,
                },
            );
            let Request::Query { request_id, .. } = read_request(s) else {
                panic!("expected a post-swap query")
            };
            send_response(
                s,
                &Response::Hits {
                    request_id,
                    generation: 2,
                    hits: vec![None],
                },
            );
        });
        let rec = Recorder::disabled();
        let mut client = QueryClient::new(fast_cfg(addr), &rec);
        let reads = vec!["ACGT".parse::<PackedSeq>().unwrap()];
        let (g1, _) = client.query_batch_tagged(&reads).expect("pre-swap query");
        assert_eq!(g1, 1);
        let active = client.reload(2).expect("reload succeeds");
        assert_eq!(active, 2);
        let (g2, _) = client.query_batch_tagged(&reads).expect("post-swap query");
        assert_eq!(g2, 2);
        assert_eq!(client.reconnects(), 0, "the whole swap rode one connection");
        hang_up_and_join(client, server);
    }

    #[test]
    fn reload_failure_is_typed_terminal_and_keeps_the_connection() {
        let (addr, server) = fake_server(1, move |_, s| {
            let Request::Reload { request_id, .. } = read_request(s) else {
                panic!("expected a reload")
            };
            send_response(
                s,
                &Response::ReloadFailed {
                    request_id,
                    generation: 7,
                    message: "store checksum mismatch".to_string(),
                },
            );
            // The client should still be on this socket afterwards.
            let Request::PingV2 = read_request(s) else {
                panic!("expected a ping on the surviving connection")
            };
            send_response(
                s,
                &Response::PongV2(PongStatus {
                    ready: true,
                    draining: false,
                    queue_depth: 0,
                    drain_ewma_reads_per_s: 0.0,
                    generation: 1,
                }),
            );
        });
        let rec = Recorder::disabled();
        let mut client = QueryClient::new(fast_cfg(addr), &rec);
        let err = client.reload(7).expect_err("server rolled back");
        match &err {
            QnetError::ReloadFailed {
                generation,
                message,
            } => {
                assert_eq!(*generation, 7);
                assert!(message.contains("checksum"), "message: {message}");
            }
            other => panic!("expected ReloadFailed, got {other:?}"),
        }
        assert!(!err.is_retryable(), "a rollback is a deliberate outcome");
        let pong = client.ping_v2().expect("connection survived the failure");
        assert!(pong.ready);
        assert_eq!(client.reconnects(), 0);
        hang_up_and_join(client, server);
    }

    #[test]
    fn non_retryable_responses_surface_immediately() {
        let (addr, server) = fake_server(1, move |_, s| {
            let Request::Query { request_id, .. } = read_request(s) else {
                panic!("expected a query")
            };
            send_response(s, &Response::DeadlineExceeded { request_id });
        });
        let rec = Recorder::disabled();
        let mut client = QueryClient::new(fast_cfg(addr), &rec);
        let reads = vec!["ACGT".parse::<PackedSeq>().unwrap()];
        let err = client
            .query_batch(&reads)
            .expect_err("deadline is terminal");
        assert!(matches!(err, QnetError::DeadlineExceeded { .. }));
        assert_eq!(client.retries_total(), 0, "no retry on a terminal error");
        hang_up_and_join(client, server);
    }

    /// `(request_id, reads, is_shard_query)` of a query of either kind.
    fn query_parts(req: &Request) -> (u64, usize, bool) {
        match req {
            Request::Query {
                request_id, reads, ..
            } => (*request_id, reads.len(), false),
            Request::ShardQuery {
                request_id, reads, ..
            } => (*request_id, reads.len(), true),
            other => panic!("expected a query, got {other:?}"),
        }
    }

    /// A well-formed answer of the hits (`shard == false`) or candidates
    /// kind with `n` entries.
    fn answer(request_id: u64, n: usize, shard: bool) -> Response {
        if shard {
            Response::ShardCandidates {
                request_id,
                generation: 0,
                candidates: vec![Vec::new(); n],
            }
        } else {
            Response::Hits {
                request_id,
                generation: 0,
                hits: vec![None; n],
            }
        }
    }

    /// The one classifier, pinned from outside: whatever a server
    /// answers, `query_batch` and `shard_query_batch` hand a
    /// `max_retries: 0` caller the same
    /// typed error — inside `RetriesExhausted.last` where retryable —
    /// and so does the split `send_shard_query` (or
    /// `try_send_shard_query` and `answer_ready`) / `recv_shard_answer`;
    /// all keep the connection on a typed outcome, and drop it on
    /// `Corrupt`.
    #[test]
    fn every_query_shape_classifies_every_answer_the_same_way() {
        fn retryable(e: &QnetError, inner: fn(&QnetError) -> bool) -> bool {
            matches!(e, QnetError::RetriesExhausted { attempts: 1, last } if inner(last))
        }
        type Case = (
            &'static str,
            fn(&Request) -> Response,
            fn(&QnetError) -> bool,
            bool, // the connection survives
        );
        let cases: [Case; 8] = [
            (
                "queue shed",
                |req| Response::Overloaded {
                    request_id: query_parts(req).0,
                    scope: crate::ShedScope::Queue,
                    queued: 8,
                    limit: 4,
                    retry_after_ms: 1,
                },
                |e| {
                    retryable(e, |l| {
                        matches!(
                            l,
                            QnetError::Overloaded {
                                scope: crate::ShedScope::Queue,
                                queued: 8,
                                limit: 4,
                                retry_after_ms: 1,
                            }
                        )
                    })
                },
                true,
            ),
            (
                "fairness shed",
                |req| Response::Overloaded {
                    request_id: query_parts(req).0,
                    scope: crate::ShedScope::Fairness,
                    queued: 2,
                    limit: 16,
                    retry_after_ms: 10,
                },
                |e| {
                    retryable(e, |l| {
                        matches!(
                            l,
                            QnetError::Overloaded {
                                scope: crate::ShedScope::Fairness,
                                ..
                            }
                        )
                    })
                },
                true,
            ),
            (
                "draining",
                |req| Response::Draining {
                    request_id: query_parts(req).0,
                },
                |e| retryable(e, |l| matches!(l, QnetError::Draining)),
                true,
            ),
            (
                "deadline exceeded",
                |req| Response::DeadlineExceeded {
                    request_id: query_parts(req).0,
                },
                |e| matches!(e, QnetError::DeadlineExceeded { budget_ms: 77 }),
                true,
            ),
            (
                "remote error",
                |req| Response::Error {
                    request_id: query_parts(req).0,
                    message: "generation 9 is not resident".to_string(),
                },
                |e| matches!(e, QnetError::Remote(m) if m == "generation 9 is not resident"),
                true,
            ),
            (
                "mispaired id",
                |req| {
                    let (request_id, n, shard) = query_parts(req);
                    answer(request_id + 1_000, n, shard)
                },
                |e| retryable(e, |l| matches!(l, QnetError::Corrupt { .. })),
                false,
            ),
            (
                "wrong-length answer",
                |req| {
                    let (request_id, n, shard) = query_parts(req);
                    answer(request_id, n + 1, shard)
                },
                |e| retryable(e, |l| matches!(l, QnetError::Corrupt { .. })),
                false,
            ),
            (
                "answer of the other kind",
                |req| {
                    let (request_id, n, shard) = query_parts(req);
                    answer(request_id, n, !shard)
                },
                |e| retryable(e, |l| matches!(l, QnetError::Corrupt { .. })),
                false,
            ),
        ];
        type Call = (
            &'static str,
            fn(&mut QueryClient, &[PackedSeq]) -> QnetError,
        );
        /// One attempt and no retry loop: a retryable outcome of the
        /// split form comes back bare, as the others' `last_attempt`.
        fn as_one_attempt(e: QnetError) -> QnetError {
            if e.is_retryable() {
                QnetError::RetriesExhausted {
                    attempts: 1,
                    last: Box::new(e),
                }
            } else {
                e
            }
        }
        let calls: [Call; 4] = [
            ("query_batch", |c, reads| {
                c.query_batch(reads).expect_err("never an answer")
            }),
            ("send_shard_query + recv_shard_answer", |c, reads| {
                let sent = c.send_shard_query(reads).expect("the query is written");
                as_one_attempt(c.recv_shard_answer(sent).expect_err("never an answer"))
            }),
            (
                "try_send_shard_query + answer_ready + recv_shard_answer",
                |c, reads| {
                    let unsent = c.try_send_shard_query(reads).expect("no wire yet");
                    assert!(
                        unsent.is_none(),
                        "without a live connection nothing is sent"
                    );
                    c.ensure_conn().expect("dial");
                    let sent = c.try_send_shard_query(reads).expect("the query is written");
                    let sent = sent.expect("an idle connection takes a small frame at once");
                    while !c.answer_ready(Duration::from_secs(1)) {}
                    as_one_attempt(c.recv_shard_answer(sent).expect_err("never an answer"))
                },
            ),
            ("shard_query_batch", |c, reads| {
                c.shard_query_batch(reads).expect_err("never an answer")
            }),
        ];
        let reads = vec![
            "ACGT".parse::<PackedSeq>().unwrap(),
            "TTGA".parse::<PackedSeq>().unwrap(),
        ];
        for (case, respond, expect, keeps_conn) in cases {
            for (call_name, call) in calls {
                let (addr, server) = fake_server(1, move |_, s| {
                    let req = read_request(s);
                    send_response(s, &respond(&req));
                });
                let cfg = ClientConfig {
                    max_retries: 0,
                    deadline_ms: 77,
                    ..fast_cfg(addr)
                };
                let mut client = QueryClient::new(cfg, &Recorder::disabled());
                let err = call(&mut client, &reads);
                assert!(expect(&err), "{case} via {call_name}: got {err:?}");
                assert_eq!(client.reconnects(), 0, "{case} via {call_name}");
                assert_eq!(client.retries_total(), 0, "{case} via {call_name}");
                assert_eq!(
                    client.conn.is_some(),
                    keeps_conn,
                    "{case} via {call_name}: a typed outcome keeps the connection, \
                     a corrupt stream drops it"
                );
                hang_up_and_join(client, server);
            }
        }
    }
}
