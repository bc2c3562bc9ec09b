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
//! (`QueryClient::attempt`): write N requests of one kind, then
//! drain N responses matched by `request_id`. A single batch is N = 1;
//! [`QueryClient::query_batches_pipelined`] is N > 1, and the server may
//! answer those out of order. One classifier (`classify`) turns each
//! response into a typed outcome, and one loop (`QueryClient::run`)
//! retries what is retryable. Every answer carries the store/index
//! generation that computed it; [`QueryClient::set_generation_pin`]
//! pins future queries to one generation, which the scatter-gather
//! router uses to keep a rolling reload's mixed-generation window
//! coherent.
//!
//! A client never hangs: connects, reads, and writes all carry
//! timeouts, and the retry loop is bounded by
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

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
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

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    peer: String,
}

/// The request kinds that carry a `request_id` and are answered through
/// [`classify`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// [`Request::Query`], answered with [`Response::Hits`].
    Query,
    /// [`Request::ShardQuery`], answered with
    /// [`Response::ShardCandidates`].
    ShardQuery,
    /// [`Request::Reload`], answered with [`Response::ReloadDone`].
    Reload,
}

/// A successful answer, matching the [`Kind`] it was asked in.
enum Answer {
    Hits(Vec<Option<Hit>>),
    Candidates(Vec<Vec<Candidate>>),
    Reloaded,
}

/// One request's outcome: the generation that answered plus the answer,
/// or the request's typed error.
type Outcome = crate::Result<(u64, Answer)>;

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

/// One pipelined batch's outcome: the generation that answered and its
/// hits, or the batch's terminal typed error.
pub type BatchResult = crate::Result<(u64, Vec<Option<Hit>>)>;

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

    /// The current generation pin (`0` = active).
    pub fn generation_pin(&self) -> u64 {
        self.pin
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
        self.run(Kind::Query, &[reads])?.remove(0).map(hits)
    }

    /// Query a batch of reads against the server's *shard* of the
    /// postings space ([`Request::ShardQuery`]), returning every voted
    /// candidate placement per read. Same retry discipline as
    /// [`query_batch`](Self::query_batch); the scatter-gather router
    /// sets `max_retries: 0` and drives its own fail-over instead.
    pub fn shard_query_batch(&mut self, reads: &[PackedSeq]) -> crate::Result<Vec<Vec<Candidate>>> {
        Ok(self.shard_query_batch_tagged(reads)?.1)
    }

    /// [`shard_query_batch`](Self::shard_query_batch), also returning
    /// the generation that voted the candidates — the router refuses
    /// to merge candidate sets from mismatched generations.
    pub fn shard_query_batch_tagged(
        &mut self,
        reads: &[PackedSeq],
    ) -> crate::Result<(u64, Vec<Vec<Candidate>>)> {
        match self.run(Kind::ShardQuery, &[reads])?.remove(0)? {
            (generation, Answer::Candidates(c)) => Ok((generation, c)),
            _ => unreachable!("classify pairs a shard query with candidates"),
        }
    }

    /// Pipeline many batches down one connection: every request is
    /// written before any response is read, and answers are matched to
    /// requests by `request_id` — the server executes admitted batches
    /// concurrently and may answer out of order. Returns per-batch
    /// outcomes aligned with `batches`: the `(generation, hits)` pair
    /// that computed each answer, or that batch's terminal typed error
    /// (deadline, remote). Retryable outcomes are handled
    /// internally: sheds and drains leave the batch unanswered and the
    /// whole stream in sync, so the retry loop backs off (honoring
    /// `retry_after_ms`) and resends *only* the unanswered batches on
    /// the same connection; wire errors desynchronize the stream, so
    /// they reconnect first.
    pub fn query_batches_pipelined(
        &mut self,
        batches: &[Vec<PackedSeq>],
    ) -> crate::Result<Vec<BatchResult>> {
        let batches: Vec<&[PackedSeq]> = batches.iter().map(Vec::as_slice).collect();
        let outcomes = self.run(Kind::Query, &batches)?;
        Ok(outcomes.into_iter().map(|o| o.map(hits)).collect())
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
        let classified = classify(resp, Kind::Reload, self.cfg.deadline_ms, &self.peer());
        let (rid, outcome) = self.hang_up_on_wire_error(classified)?;
        if rid != request_id {
            return Err(self.desynced(format!(
                "response id {rid} does not match request id {request_id}"
            )));
        }
        outcome.map(|(active, _)| active)
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
    /// unanswered batches until each has a terminal outcome. Retryable
    /// failures back off (capped jittered exponential, honoring
    /// `retry_after_ms` hints); a wire failure has already abandoned
    /// the connection (see [`Self::attempt`]), a typed one keeps it.
    /// Returns one outcome per batch, aligned with `batches`.
    fn run(&mut self, kind: Kind, batches: &[&[PackedSeq]]) -> crate::Result<Vec<Outcome>> {
        let mut outcomes: Vec<Option<Outcome>> = batches.iter().map(|_| None).collect();
        let mut attempts: u32 = 0;
        while outcomes.iter().any(Option::is_none) {
            attempts += 1;
            let Err(err) = self.attempt(kind, batches, &mut outcomes) else {
                continue;
            };
            if !err.is_retryable() {
                return Err(err);
            }
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
            // Under the deterministic scheduler a real sleep would stall
            // the whole schedule on wall time; the virtual clock only
            // moves at schedule points, so just yield at one instead.
            if faultsim::sched::active() {
                faultsim::sched::point("qnet.client.backoff");
            } else {
                std::thread::sleep(Duration::from_millis(wait));
            }
        }
        Ok(outcomes
            .into_iter()
            .map(|o| o.expect("the loop ends when every batch has an outcome"))
            .collect())
    }

    /// Backoff before retry number `round` (1-based), in milliseconds:
    /// `base · 2^(round-1)` with the exponent capped, scaled by a
    /// deterministic jitter factor in [0.5, 1.0) keyed on the seed and
    /// the round.
    fn backoff_ms(&self, round: u32) -> u64 {
        let exp = round.saturating_sub(1).min(self.cfg.backoff_cap_rounds);
        let full = self.cfg.backoff_base_ms.saturating_mul(1u64 << exp);
        let h =
            splitmix64(self.cfg.jitter_seed ^ u64::from(round).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let jitter_millis = 512 + (h % 512); // in units of 1/1024
        full * jitter_millis / 1024
    }

    /// One attempt over the batches that have no outcome yet: write all
    /// their requests, then drain exactly one response per request.
    /// Terminal per-batch outcomes are recorded into `outcomes`;
    /// retryable ones (sheds, drains) are left unrecorded and the first
    /// is returned as the attempt's error *after* the drain completes,
    /// so the stream stays in sync and the connection survives. Only a
    /// *wire* failure abandons the connection: after a torn frame or a
    /// timeout the stream position is unknowable, and a fresh
    /// connection is the only way to guarantee the next response pairs
    /// with the next request.
    fn attempt(
        &mut self,
        kind: Kind,
        batches: &[&[PackedSeq]],
        outcomes: &mut [Option<Outcome>],
    ) -> crate::Result<()> {
        let result = self.attempt_on_conn(kind, batches, outcomes);
        self.hang_up_on_wire_error(result)
    }

    fn attempt_on_conn(
        &mut self,
        kind: Kind,
        batches: &[&[PackedSeq]],
        outcomes: &mut [Option<Outcome>],
    ) -> crate::Result<()> {
        self.ensure_conn()?;
        let tag = match kind {
            Kind::Query => proto::TAG_QUERY,
            Kind::ShardQuery => proto::TAG_SHARD_QUERY,
            Kind::Reload => unreachable!("reloads carry no reads"),
        };
        let deadline_ms = self.cfg.deadline_ms;

        // Encode every request into one contiguous write so a pipelined
        // burst leaves in as few segments as the kernel allows.
        let mut wire = Vec::new();
        let mut body = Vec::new();
        let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, reads) in batches.iter().enumerate() {
            if outcomes[i].is_some() {
                continue;
            }
            let request_id = self.take_request_id();
            body.clear();
            proto::encode_query(
                &mut body,
                tag,
                request_id,
                deadline_ms,
                &self.cfg.client_id,
                reads,
                [0, 0],
                self.pin,
            );
            gstream::write_frame(&mut wire, &body)
                .map_err(|e| crate::from_stream(e, &self.peer()))?;
            pending.insert(request_id, i);
        }
        self.send(&wire)?;

        // Drain one response per outstanding request, in whatever order
        // the server answers. A retryable typed outcome is deferred
        // rather than returned mid-drain: bailing out with responses
        // still in flight would desynchronize the stream.
        let peer = self.peer();
        let corrupt = |detail: String| QnetError::Corrupt {
            peer: peer.clone(),
            detail,
        };
        let mut deferred: Option<QnetError> = None;
        while !pending.is_empty() {
            let (rid, outcome) = classify(self.recv()?, kind, deadline_ms, &peer)?;
            let Some(i) = pending.remove(&rid) else {
                return Err(corrupt(format!(
                    "response id {rid} does not match any outstanding request"
                )));
            };
            let answered = match &outcome {
                Ok((_, Answer::Hits(hits))) => hits.len(),
                Ok((_, Answer::Candidates(lists))) => lists.len(),
                _ => batches[i].len(),
            };
            if answered != batches[i].len() {
                return Err(corrupt(format!(
                    "{answered} answers for {} reads",
                    batches[i].len()
                )));
            }
            match outcome {
                Err(e) if e.is_retryable() => {
                    deferred.get_or_insert(e);
                }
                terminal => outcomes[i] = Some(terminal),
            }
        }
        deferred.map_or(Ok(()), Err)
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
        let stream = TcpStream::connect(&self.cfg.addr)?;
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
            peer,
        });
        self.connects += 1;
        self.rec.counter("qnet.client.connects", 1);
        Ok(())
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
        let conn = self.conn.as_mut().expect("connection established");
        faultsim::sched::point("qnet.client.send");
        Ok(conn.stream.write_all(wire)?)
    }

    /// Read and decode one response frame from the live connection.
    fn recv(&mut self) -> crate::Result<Response> {
        let conn = self.conn.as_mut().expect("connection established");
        // Under the deterministic scheduler, park until the response (or
        // EOF) is actually observable so the blocking read below cannot
        // stall the schedule on wall time.
        if faultsim::sched::active() {
            let reader = &conn.reader;
            faultsim::sched::wait_until("qnet.client.read", &mut || {
                !reader.buffer().is_empty() || crate::sock_readable(reader.get_ref())
            });
        }
        match gstream::read_frame(&mut conn.reader, &conn.peer) {
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

fn hits((generation, answer): (u64, Answer)) -> (u64, Vec<Option<Hit>>) {
    match answer {
        Answer::Hits(hits) => (generation, hits),
        _ => unreachable!("classify pairs a placement query with hits"),
    }
}

/// The one table from wire responses to typed outcomes: the
/// `request_id` a response echoes and what it means for a request of
/// `kind`. A response that cannot answer such a request at all — a
/// probe reply, or the other kind's answer — means the stream is
/// desynchronized: `Corrupt`, naming `peer`.
fn classify(
    resp: Response,
    kind: Kind,
    budget_ms: u32,
    peer: &str,
) -> crate::Result<(u64, Outcome)> {
    Ok(match resp {
        Response::Hits {
            request_id,
            generation,
            hits,
        } if kind == Kind::Query => (request_id, Ok((generation, Answer::Hits(hits)))),
        Response::ShardCandidates {
            request_id,
            generation,
            candidates,
        } if kind == Kind::ShardQuery => {
            (request_id, Ok((generation, Answer::Candidates(candidates))))
        }
        Response::ReloadDone {
            request_id,
            generation,
        } if kind == Kind::Reload => (request_id, Ok((generation, Answer::Reloaded))),
        Response::ReloadFailed {
            request_id,
            generation,
            message,
        } if kind == Kind::Reload => (
            request_id,
            Err(QnetError::ReloadFailed {
                generation,
                message,
            }),
        ),
        Response::Overloaded {
            request_id,
            scope,
            queued,
            limit,
            retry_after_ms,
        } => (
            request_id,
            Err(QnetError::Overloaded {
                scope,
                queued,
                limit,
                retry_after_ms,
            }),
        ),
        Response::Draining { request_id } => (request_id, Err(QnetError::Draining)),
        Response::DeadlineExceeded { request_id } => {
            (request_id, Err(QnetError::DeadlineExceeded { budget_ms }))
        }
        Response::Error {
            request_id,
            message,
        } => (request_id, Err(QnetError::Remote(message))),
        other => {
            return Err(QnetError::Corrupt {
                peer: peer.to_string(),
                detail: format!("unexpected response type {other:?}"),
            })
        }
    })
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
    /// a buffered reader dropped between calls would swallow the frames a
    /// pipelining client has already sent behind this one.
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
    fn pipelined_batches_match_out_of_order_answers() {
        let (addr, server) = fake_server(1, move |_, s| {
            // Read all three requests before answering anything —
            // proving the client really pipelines — then answer in
            // scrambled order, tagging each answer's generation with
            // its batch size so the test can check the alignment.
            let mut got: Vec<(u64, usize)> = Vec::new();
            for _ in 0..3 {
                let Request::Query {
                    request_id, reads, ..
                } = read_request(s)
                else {
                    panic!("expected a query")
                };
                got.push((request_id, reads.len()));
            }
            for &(request_id, n) in [&got[2], &got[0], &got[1]] {
                send_response(
                    s,
                    &Response::Hits {
                        request_id,
                        generation: n as u64,
                        hits: vec![None; n],
                    },
                );
            }
        });
        let rec = Recorder::disabled();
        let mut client = QueryClient::new(fast_cfg(addr), &rec);
        let read = "ACGT".parse::<PackedSeq>().unwrap();
        let batches = vec![
            vec![read.clone()],
            vec![read.clone(), read.clone()],
            vec![read.clone(), read.clone(), read.clone()],
        ];
        let results = client
            .query_batches_pipelined(&batches)
            .expect("all batches answered");
        assert_eq!(results.len(), 3);
        for (i, r) in results.iter().enumerate() {
            let (generation, hits) = r.as_ref().expect("per-batch success");
            assert_eq!(*generation, (i + 1) as u64, "answer matched to batch {i}");
            assert_eq!(hits.len(), i + 1);
        }
        assert_eq!(client.reconnects(), 0);
        assert_eq!(client.retries_total(), 0);
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
    /// answers, `query_batch`, `shard_query_batch` and
    /// `query_batches_pipelined` hand a `max_retries: 0` caller the same
    /// typed error — inside `RetriesExhausted.last` where retryable —
    /// keep the connection on a typed outcome, and drop it on `Corrupt`.
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
        let calls: [Call; 3] = [
            ("query_batch", |c, reads| {
                c.query_batch(reads).expect_err("never an answer")
            }),
            ("shard_query_batch", |c, reads| {
                c.shard_query_batch(reads).expect_err("never an answer")
            }),
            ("query_batches_pipelined", |c, reads| {
                c.query_batches_pipelined(&[reads.to_vec()])
                    .and_then(|mut per_batch| per_batch.remove(0))
                    .expect_err("never an answer")
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
