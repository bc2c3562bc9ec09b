//! The retrying query client.
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
//! [`QueryClient::query_batches_pipelined`] sends many batches down the
//! connection before reading any response, matching answers to requests
//! by `request_id` (the server may answer out of order). Every answer
//! carries the store/index generation that computed it;
//! [`QueryClient::set_generation_pin`] pins future queries to one
//! generation, which the scatter-gather router uses to keep a rolling
//! reload's mixed-generation window coherent.
//!
//! A client never hangs: connects, reads, and writes all carry
//! timeouts, and the retry loop is bounded by
//! [`ClientConfig::max_retries`], after which the caller gets
//! [`QnetError::RetriesExhausted`](crate::QnetError::RetriesExhausted)
//! wrapping the last failure.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use stdx::splitmix64;

use crate::proto::{PongStatus, Request, Response, StatsSnapshot};
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
    /// Shared secret for query authentication. When set, the client
    /// opens every connection with a [`Request::AuthHello`] handshake
    /// and every query carries the keyed tag from
    /// [`crate::proto::auth_tag`], binding the connection's nonce and a
    /// strictly-increasing sequence number; when `None` the tag and
    /// sequence fields travel as `0` (servers without a secret ignore
    /// them).
    pub auth_secret: Option<String>,
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
            auth_secret: None,
        }
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    peer: String,
    /// Server-dealt nonce from the `AuthHello` handshake; `0` until the
    /// handshake completes (or always, without a secret).
    nonce: u64,
    /// Next sequence number to bind into an authed tag on this
    /// connection. Dies with the connection — a reconnect re-handshakes
    /// and restarts from 1.
    next_seq: u64,
}

/// One attempt's answer, matching the batch shape it was asked in.
/// The `u64` is the store/index generation that computed the answer.
enum BatchAnswer {
    Hits(u64, Vec<Option<Hit>>),
    Candidates(u64, Vec<Vec<Candidate>>),
}

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
    pub fn query_batch_tagged(
        &mut self,
        reads: &[PackedSeq],
    ) -> crate::Result<(u64, Vec<Option<Hit>>)> {
        match self.retrying(|c| c.batch_once(reads, false))? {
            BatchAnswer::Hits(generation, hits) => Ok((generation, hits)),
            BatchAnswer::Candidates(..) => unreachable!("placement query answers hits"),
        }
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
        match self.retrying(|c| c.batch_once(reads, true))? {
            BatchAnswer::Candidates(generation, c) => Ok((generation, c)),
            BatchAnswer::Hits(..) => unreachable!("shard query answers candidates"),
        }
    }

    /// Ask the server to hot-swap to store/index `generation` (`0` =
    /// the manifest's `active` pointer). Returns the generation now
    /// active. Single attempt: a failed reload is a deliberate,
    /// server-side rollback ([`QnetError::ReloadFailed`]) — retrying
    /// it blindly would hide an operational problem.
    pub fn reload(&mut self, generation: u64) -> crate::Result<u64> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        match self.round_trip(&Request::Reload {
            request_id,
            generation,
        })? {
            Response::ReloadDone {
                request_id: rid,
                generation: active,
            } => {
                let peer = self.peer();
                self.check_id(rid, request_id, &peer)?;
                Ok(active)
            }
            Response::ReloadFailed {
                request_id: rid,
                generation: target,
                message,
            } => {
                let peer = self.peer();
                self.check_id(rid, request_id, &peer)?;
                Err(QnetError::ReloadFailed {
                    generation: target,
                    message,
                })
            }
            other => Err(self.unexpected(&other)),
        }
    }

    /// Pipeline many batches down one connection: every request is
    /// written before any response is read, and answers are matched to
    /// requests by `request_id` — the server executes admitted batches
    /// concurrently and may answer out of order. Returns per-batch
    /// outcomes aligned with `batches`: the `(generation, hits)` pair
    /// that computed each answer, or that batch's terminal typed error
    /// (deadline, auth, remote). Retryable outcomes are handled
    /// internally: sheds and drains leave the batch unanswered and the
    /// whole stream in sync, so the retry loop backs off (honoring
    /// `retry_after_ms`) and resends *only* the unanswered batches on
    /// the same connection; wire errors desynchronize the stream, so
    /// they reconnect first.
    pub fn query_batches_pipelined(
        &mut self,
        batches: &[Vec<PackedSeq>],
    ) -> crate::Result<Vec<BatchResult>> {
        let mut results: Vec<Option<BatchResult>> = (0..batches.len()).map(|_| None).collect();
        let mut attempt: u32 = 0;
        loop {
            let unanswered: Vec<usize> = (0..batches.len())
                .filter(|&i| results[i].is_none())
                .collect();
            if unanswered.is_empty() {
                return Ok(results
                    .into_iter()
                    .map(|r| r.expect("every batch answered"))
                    .collect());
            }
            attempt += 1;
            let err = match self.pipeline_once(batches, &unanswered, &mut results) {
                Ok(()) => continue,
                Err(e) => e,
            };
            if !err.is_retryable() {
                return Err(err);
            }
            if attempt > self.cfg.max_retries {
                return Err(QnetError::RetriesExhausted {
                    attempts: attempt,
                    last: err.to_string(),
                });
            }
            // Same keep-alive discipline as `retrying`: only wire
            // errors force a reconnect.
            if matches!(&err, QnetError::Io(_) | QnetError::Corrupt { .. }) {
                self.conn = None;
            }
            self.retries_total += 1;
            self.rec.counter("qnet.retries", 1);
            let hint_ms = match &err {
                QnetError::Overloaded { retry_after_ms, .. } => u64::from(*retry_after_ms),
                _ => 0,
            };
            let wait = self.backoff_ms(attempt).max(hint_ms);
            if faultsim::sched::active() {
                faultsim::sched::point("qnet.client.backoff");
            } else {
                std::thread::sleep(Duration::from_millis(wait));
            }
        }
    }

    /// One pipelined attempt over the batches at `unanswered` indices:
    /// write all requests, then drain exactly one response per request.
    /// Terminal per-batch outcomes are recorded into `results`;
    /// retryable ones (sheds, drains) are left unrecorded and the first
    /// is returned as the attempt's error *after* the drain completes,
    /// so the stream stays in sync and the connection survives.
    fn pipeline_once(
        &mut self,
        batches: &[Vec<PackedSeq>],
        unanswered: &[usize],
        results: &mut [Option<BatchResult>],
    ) -> crate::Result<()> {
        if let Err(e) = self.ensure_conn() {
            self.conn = None;
            return Err(e);
        }
        let deadline_ms = self.cfg.deadline_ms;
        let client_id = self.cfg.client_id.clone();
        let secret = self.cfg.auth_secret.clone();
        let pin = self.pin;
        let mut ids: Vec<(u64, usize)> = Vec::with_capacity(unanswered.len());
        for &i in unanswered {
            let request_id = self.next_request_id;
            self.next_request_id += 1;
            ids.push((request_id, i));
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let peer = conn.peer.clone();

        // Encode every request into one contiguous write so the whole
        // burst leaves in as few segments as the kernel allows.
        let mut wire = Vec::new();
        let mut pending: BTreeMap<u64, usize> = BTreeMap::new();
        for &(request_id, i) in &ids {
            let (auth_seq, auth_tag) = match &secret {
                Some(secret) => {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let tag = crate::proto::auth_tag(
                        secret,
                        crate::proto::AUTH_KIND_QUERY,
                        conn.nonce,
                        seq,
                        request_id,
                        deadline_ms,
                        &client_id,
                        &batches[i],
                    );
                    (seq, tag)
                }
                None => (0, 0),
            };
            let body = Request::Query {
                request_id,
                deadline_ms,
                client_id: client_id.clone(),
                reads: batches[i].clone(),
                auth_seq,
                auth_tag,
                generation: pin,
            }
            .encode();
            gstream::write_frame(&mut wire, &body).map_err(|e| crate::from_stream(e, &peer))?;
            pending.insert(request_id, i);
        }
        conn.stream.write_all(&wire)?;

        // Drain one response per outstanding request, in whatever order
        // the server answers. A retryable typed outcome is deferred
        // rather than returned mid-drain: bailing out with responses
        // still in flight would desynchronize the stream.
        let mut deferred: Option<QnetError> = None;
        while !pending.is_empty() {
            if faultsim::sched::active() {
                let reader = &conn.reader;
                faultsim::sched::wait_until("qnet.client.read", &mut || {
                    !reader.buffer().is_empty() || sock_readable(reader.get_ref())
                });
            }
            let payload = match gstream::read_frame(&mut conn.reader, &peer) {
                Ok(Some(p)) => p,
                Ok(None) => {
                    return Err(QnetError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!(
                            "{peer} closed the connection with {} answers outstanding",
                            pending.len()
                        ),
                    )));
                }
                Err(e) => return Err(crate::from_stream(e, &peer)),
            };
            let resp = Response::decode(&payload, &peer)?;
            let rid = match &resp {
                Response::Hits { request_id, .. }
                | Response::Overloaded { request_id, .. }
                | Response::Draining { request_id }
                | Response::DeadlineExceeded { request_id }
                | Response::AuthFailed { request_id }
                | Response::Error { request_id, .. } => *request_id,
                other => {
                    return Err(QnetError::Corrupt {
                        peer,
                        detail: format!("unexpected response type {other:?}"),
                    });
                }
            };
            let Some(i) = pending.remove(&rid) else {
                return Err(QnetError::Corrupt {
                    peer,
                    detail: format!("response id {rid} matches no outstanding request"),
                });
            };
            match resp {
                Response::Hits {
                    generation, hits, ..
                } => {
                    if hits.len() != batches[i].len() {
                        return Err(QnetError::Corrupt {
                            peer,
                            detail: format!(
                                "{} hits answered for {} reads",
                                hits.len(),
                                batches[i].len()
                            ),
                        });
                    }
                    results[i] = Some(Ok((generation, hits)));
                }
                Response::Overloaded {
                    scope,
                    queued,
                    limit,
                    retry_after_ms,
                    ..
                } => {
                    deferred.get_or_insert(QnetError::Overloaded {
                        scope,
                        queued,
                        limit,
                        retry_after_ms,
                    });
                }
                Response::Draining { .. } => {
                    deferred.get_or_insert(QnetError::Draining);
                }
                Response::DeadlineExceeded { .. } => {
                    results[i] = Some(Err(QnetError::DeadlineExceeded {
                        budget_ms: deadline_ms,
                    }));
                }
                Response::AuthFailed { .. } => {
                    results[i] = Some(Err(QnetError::AuthFailed));
                }
                Response::Error { message, .. } => {
                    results[i] = Some(Err(QnetError::Remote(message)));
                }
                _ => unreachable!("request id already matched above"),
            }
        }
        match deferred {
            Some(e) => Err(e),
            None => Ok(()),
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

    /// The retry loop shared by every batch shape: retryable failures
    /// back off (capped jittered exponential, honoring `retry_after_ms`
    /// hints) and abandon the connection; terminal failures surface
    /// immediately.
    fn retrying<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> crate::Result<T>,
    ) -> crate::Result<T> {
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let err = match op(self) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if !err.is_retryable() {
                return Err(err);
            }
            if attempt > self.cfg.max_retries {
                return Err(QnetError::RetriesExhausted {
                    attempts: attempt,
                    last: err.to_string(),
                });
            }
            // Only a *wire* failure abandons the connection: after a
            // torn frame or timeout the stream position is unknowable,
            // and a fresh connection is the only way to guarantee the
            // next response pairs with the next request. Typed
            // protocol outcomes (sheds, drains) arrive on a stream
            // that is still in sync — tearing it down would churn a
            // socket for nothing, so those keep the connection and
            // just back off.
            if matches!(&err, QnetError::Io(_) | QnetError::Corrupt { .. }) {
                self.conn = None;
            }
            self.retries_total += 1;
            self.rec.counter("qnet.retries", 1);
            let hint_ms = match &err {
                QnetError::Overloaded { retry_after_ms, .. } => u64::from(*retry_after_ms),
                _ => 0,
            };
            let wait = self.backoff_ms(attempt).max(hint_ms);
            // Under the deterministic scheduler a real sleep would stall
            // the whole schedule on wall time; the virtual clock only
            // moves at schedule points, so just yield at one instead.
            if faultsim::sched::active() {
                faultsim::sched::point("qnet.client.backoff");
            } else {
                std::thread::sleep(Duration::from_millis(wait));
            }
        }
    }

    /// Probe the server. Returns `(ready, draining)`. Single attempt —
    /// callers polling for readiness supply their own loop.
    pub fn ping(&mut self) -> crate::Result<(bool, bool)> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong { ready, draining } => Ok((ready, draining)),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Probe the server with the richer v2 ping. Single attempt, like
    /// [`Self::ping`]. Servers that predate the `PingV2` tag treat the
    /// unknown tag as corruption and drop the connection, which
    /// surfaces here as an error — callers wanting to interoperate with
    /// old servers should fall back to [`Self::ping`].
    pub fn ping_v2(&mut self) -> crate::Result<PongStatus> {
        match self.round_trip(&Request::PingV2)? {
            Response::PongV2(status) => Ok(status),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Fetch a live telemetry snapshot. Single attempt; `Stats` is
    /// admission-gate-exempt on the server, so this works mid-drain and
    /// mid-overload.
    pub fn stats(&mut self) -> crate::Result<StatsSnapshot> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(self.unexpected(&other)),
        }
    }

    /// Ask the server to begin a graceful drain.
    pub fn request_shutdown(&mut self) -> crate::Result<()> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(self.unexpected(&other)),
        }
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

    /// One attempt at one batch, in placement (`shard == false`) or
    /// candidate (`shard == true`) shape. Establishes the connection
    /// (including the auth handshake) first, because an authed tag
    /// binds the connection's nonce and sequence number.
    fn batch_once(&mut self, reads: &[PackedSeq], shard: bool) -> crate::Result<BatchAnswer> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        if let Err(e) = self.ensure_conn() {
            self.conn = None;
            return Err(e);
        }
        let (auth_seq, auth_tag) = match &self.cfg.auth_secret {
            Some(secret) => {
                let conn = self.conn.as_mut().expect("connection just ensured");
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let kind = if shard {
                    crate::proto::AUTH_KIND_SHARD_QUERY
                } else {
                    crate::proto::AUTH_KIND_QUERY
                };
                let tag = crate::proto::auth_tag(
                    secret,
                    kind,
                    conn.nonce,
                    seq,
                    request_id,
                    self.cfg.deadline_ms,
                    &self.cfg.client_id,
                    reads,
                );
                (seq, tag)
            }
            None => (0, 0),
        };
        let req = if shard {
            Request::ShardQuery {
                request_id,
                deadline_ms: self.cfg.deadline_ms,
                client_id: self.cfg.client_id.clone(),
                reads: reads.to_vec(),
                auth_seq,
                auth_tag,
                generation: self.pin,
            }
        } else {
            Request::Query {
                request_id,
                deadline_ms: self.cfg.deadline_ms,
                client_id: self.cfg.client_id.clone(),
                reads: reads.to_vec(),
                auth_seq,
                auth_tag,
                generation: self.pin,
            }
        };
        let (resp, peer) = self.round_trip_raw(&req)?;
        match resp {
            Response::Hits {
                request_id: rid,
                generation,
                hits,
            } if !shard => {
                self.check_id(rid, request_id, &peer)?;
                if hits.len() != reads.len() {
                    self.conn = None;
                    return Err(QnetError::Corrupt {
                        peer,
                        detail: format!("{} hits answered for {} reads", hits.len(), reads.len()),
                    });
                }
                Ok(BatchAnswer::Hits(generation, hits))
            }
            Response::ShardCandidates {
                request_id: rid,
                generation,
                candidates,
            } if shard => {
                self.check_id(rid, request_id, &peer)?;
                if candidates.len() != reads.len() {
                    self.conn = None;
                    return Err(QnetError::Corrupt {
                        peer,
                        detail: format!(
                            "{} candidate lists answered for {} reads",
                            candidates.len(),
                            reads.len()
                        ),
                    });
                }
                Ok(BatchAnswer::Candidates(generation, candidates))
            }
            Response::Overloaded {
                request_id: rid,
                scope,
                queued,
                limit,
                retry_after_ms,
            } => {
                self.check_id(rid, request_id, &peer)?;
                Err(QnetError::Overloaded {
                    scope,
                    queued,
                    limit,
                    retry_after_ms,
                })
            }
            Response::Draining { request_id: rid } => {
                self.check_id(rid, request_id, &peer)?;
                Err(QnetError::Draining)
            }
            Response::DeadlineExceeded { request_id: rid } => {
                self.check_id(rid, request_id, &peer)?;
                Err(QnetError::DeadlineExceeded {
                    budget_ms: self.cfg.deadline_ms,
                })
            }
            Response::Error {
                request_id: rid,
                message,
            } => {
                self.check_id(rid, request_id, &peer)?;
                Err(QnetError::Remote(message))
            }
            Response::AuthFailed { request_id: rid } => {
                self.check_id(rid, request_id, &peer)?;
                Err(QnetError::AuthFailed)
            }
            other => Err(self.unexpected(&other)),
        }
    }

    fn check_id(&mut self, got: u64, want: u64, peer: &str) -> crate::Result<()> {
        if got != want {
            self.conn = None;
            return Err(QnetError::Corrupt {
                peer: peer.to_string(),
                detail: format!("response id {got} does not match request id {want}"),
            });
        }
        Ok(())
    }

    /// A response whose type makes no sense for the request we sent —
    /// the stream is desynchronized.
    fn unexpected(&mut self, resp: &Response) -> QnetError {
        let peer = self
            .conn
            .as_ref()
            .map(|c| c.peer.clone())
            .unwrap_or_else(|| self.cfg.addr.clone());
        self.conn = None;
        QnetError::Corrupt {
            peer,
            detail: format!("unexpected response type {resp:?}"),
        }
    }

    fn round_trip(&mut self, req: &Request) -> crate::Result<Response> {
        Ok(self.round_trip_raw(req)?.0)
    }

    /// Send one request and read one response on the current (or a
    /// fresh) connection. Any failure drops the connection.
    fn round_trip_raw(&mut self, req: &Request) -> crate::Result<(Response, String)> {
        let result = self.round_trip_inner(req);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Establish the connection if none is live, including the
    /// `AuthHello` handshake when a secret is configured. On failure
    /// the caller must drop `self.conn`.
    fn ensure_conn(&mut self) -> crate::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
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
            nonce: 0,
            next_seq: 1,
        });
        self.connects += 1;
        self.rec.counter("qnet.client.connects", 1);
        if self.cfg.auth_secret.is_some() {
            let (resp, _peer) = self.exchange(&Request::AuthHello)?;
            match resp {
                Response::AuthNonce { nonce } => {
                    let conn = self.conn.as_mut().expect("connection just established");
                    conn.nonce = nonce;
                    conn.next_seq = 1;
                }
                other => return Err(self.unexpected(&other)),
            }
        }
        Ok(())
    }

    fn round_trip_inner(&mut self, req: &Request) -> crate::Result<(Response, String)> {
        self.ensure_conn()?;
        self.exchange(req)
    }

    /// One request/response exchange on the live connection; the caller
    /// guarantees one exists.
    fn exchange(&mut self, req: &Request) -> crate::Result<(Response, String)> {
        let conn = self.conn.as_mut().expect("connection established");
        let peer = conn.peer.clone();

        let body = req.encode();
        let mut frame = Vec::with_capacity(gstream::FRAME_HEADER_BYTES + body.len());
        gstream::write_frame(&mut frame, &body).map_err(|e| crate::from_stream(e, &peer))?;
        conn.stream.write_all(&frame)?;

        // Under the deterministic scheduler, park until the response (or
        // EOF) is actually observable so the blocking read below cannot
        // stall the schedule on wall time.
        if faultsim::sched::active() {
            let reader = &conn.reader;
            faultsim::sched::wait_until("qnet.client.read", &mut || {
                !reader.buffer().is_empty() || sock_readable(reader.get_ref())
            });
        }
        let payload = match gstream::read_frame(&mut conn.reader, &peer) {
            Ok(Some(p)) => p,
            Ok(None) => {
                // The server closed cleanly between our request and its
                // response (drain force-close, accept-drop chaos, …).
                return Err(QnetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("{peer} closed the connection before responding"),
                )));
            }
            Err(e) => return Err(crate::from_stream(e, &peer)),
        };
        let resp = Response::decode(&payload, &peer)?;
        Ok((resp, peer))
    }
}

/// Non-consuming readiness probe: true when a read on `sock` would not
/// block (data buffered, EOF, or a hard error — all of which the real
/// read observes immediately).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

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

    /// Every fake server ends by reading until the client hangs up (so its
    /// last frame is never cut short by its own close), and the client keeps
    /// its connection for reuse: drop the client first, then join — within a
    /// bound, so a server stuck anywhere fails its test instead of stalling
    /// the suite.
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First life: answer with a torn frame, then hang up.
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s);
            let Request::Query { request_id, .. } = req else {
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
            frame.truncate(gstream::FRAME_HEADER_BYTES + body.len() / 2);
            s.write_all(&frame).unwrap();
            drop(s);
            // Second life: answer properly.
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s);
            let Request::Query { request_id, .. } = req else {
                panic!("expected a query")
            };
            send_response(
                &mut s,
                &Response::Hits {
                    request_id,
                    generation: 0,
                    hits: vec![None],
                },
            );
            // Hold the socket open until the client has read the frame.
            let mut buf = [0u8; 1];
            let _ = s.read(&mut buf);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Three lives (1 attempt + 2 retries), each answering with
            // a wrong request id.
            for _ in 0..3 {
                let (mut s, _) = listener.accept().unwrap();
                let _ = read_request(&mut s);
                send_response(
                    &mut s,
                    &Response::Hits {
                        request_id: 0xBAD,
                        generation: 0,
                        hits: vec![None],
                    },
                );
                let mut buf = [0u8; 1];
                let _ = s.read(&mut buf);
            }
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
                assert!(last.contains("does not match"), "last: {last}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        hang_up_and_join(client, server);
    }

    #[test]
    fn auth_rejection_is_terminal_and_the_tag_rides_the_wire() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // The authed client opens with the nonce handshake.
            let Request::AuthHello = read_request(&mut s) else {
                panic!("expected the auth handshake")
            };
            send_response(&mut s, &Response::AuthNonce { nonce: 0xA11CE });
            let Request::Query {
                request_id,
                deadline_ms,
                client_id,
                reads,
                auth_seq,
                auth_tag,
                generation,
            } = read_request(&mut s)
            else {
                panic!("expected a query")
            };
            assert_eq!(generation, 0, "an unpinned client follows the active");
            assert_eq!(auth_seq, 1, "first authed send on this connection");
            // The client computed the tag over exactly the fields it
            // sent, bound to the dealt nonce and its sequence number.
            assert_eq!(
                auth_tag,
                crate::proto::auth_tag(
                    "pw",
                    crate::proto::AUTH_KIND_QUERY,
                    0xA11CE,
                    auth_seq,
                    request_id,
                    deadline_ms,
                    &client_id,
                    &reads
                )
            );
            send_response(&mut s, &Response::AuthFailed { request_id });
            let mut buf = [0u8; 1];
            let _ = s.read(&mut buf);
        });
        let rec = Recorder::disabled();
        let cfg = ClientConfig {
            auth_secret: Some("pw".to_string()),
            ..fast_cfg(addr)
        };
        let mut client = QueryClient::new(cfg, &rec);
        let reads = vec!["ACGT".parse::<PackedSeq>().unwrap()];
        let err = client.query_batch(&reads).expect_err("auth is terminal");
        assert!(matches!(err, QnetError::AuthFailed));
        assert!(!err.is_retryable());
        assert_eq!(client.retries_total(), 0, "no retry on auth failure");
        hang_up_and_join(client, server);
    }

    #[test]
    fn shard_queries_round_trip_candidates() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
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
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let Request::ShardQuery { request_id, .. } = read_request(&mut s) else {
                panic!("expected a shard query")
            };
            send_response(
                &mut s,
                &Response::ShardCandidates {
                    request_id,
                    generation: 0,
                    candidates: cands,
                },
            );
            let mut buf = [0u8; 1];
            let _ = s.read(&mut buf);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // ONE connection lifetime: shed the first query, then
            // answer the retry on the same socket. A second accept
            // would hang the test — which is the point.
            let (mut s, _) = listener.accept().unwrap();
            let Request::Query { request_id, .. } = read_request(&mut s) else {
                panic!("expected a query")
            };
            send_response(
                &mut s,
                &Response::Overloaded {
                    request_id,
                    scope: crate::proto::ShedScope::Queue,
                    queued: 8,
                    limit: 4,
                    retry_after_ms: 1,
                },
            );
            let Request::Query { request_id, .. } = read_request(&mut s) else {
                panic!("expected the retried query")
            };
            send_response(
                &mut s,
                &Response::Hits {
                    request_id,
                    generation: 1,
                    hits: vec![None],
                },
            );
            let mut buf = [0u8; 1];
            let _ = s.read(&mut buf);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let Request::Query { request_id, .. } = read_request(&mut s) else {
                panic!("expected a query")
            };
            send_response(
                &mut s,
                &Response::Hits {
                    request_id,
                    generation: 1,
                    hits: vec![None],
                },
            );
            let Request::Reload {
                request_id,
                generation,
            } = read_request(&mut s)
            else {
                panic!("expected a reload")
            };
            assert_eq!(generation, 2);
            send_response(
                &mut s,
                &Response::ReloadDone {
                    request_id,
                    generation: 2,
                },
            );
            let Request::Query { request_id, .. } = read_request(&mut s) else {
                panic!("expected a post-swap query")
            };
            send_response(
                &mut s,
                &Response::Hits {
                    request_id,
                    generation: 2,
                    hits: vec![None],
                },
            );
            let mut buf = [0u8; 1];
            let _ = s.read(&mut buf);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let Request::Reload { request_id, .. } = read_request(&mut s) else {
                panic!("expected a reload")
            };
            send_response(
                &mut s,
                &Response::ReloadFailed {
                    request_id,
                    generation: 7,
                    message: "store checksum mismatch".to_string(),
                },
            );
            // The client should still be on this socket afterwards.
            let Request::Ping = read_request(&mut s) else {
                panic!("expected a ping on the surviving connection")
            };
            send_response(
                &mut s,
                &Response::Pong {
                    ready: true,
                    draining: false,
                },
            );
            let mut buf = [0u8; 1];
            let _ = s.read(&mut buf);
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
        let (ready, _) = client.ping().expect("connection survived the failure");
        assert!(ready);
        assert_eq!(client.reconnects(), 0);
        hang_up_and_join(client, server);
    }

    #[test]
    fn pipelined_batches_match_out_of_order_answers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Read all three requests before answering anything —
            // proving the client really pipelines — then answer in
            // scrambled order, tagging each answer's generation with
            // its batch size so the test can check the alignment.
            let mut got: Vec<(u64, usize)> = Vec::new();
            for _ in 0..3 {
                let Request::Query {
                    request_id, reads, ..
                } = read_request(&mut s)
                else {
                    panic!("expected a query")
                };
                got.push((request_id, reads.len()));
            }
            for &(request_id, n) in [&got[2], &got[0], &got[1]] {
                send_response(
                    &mut s,
                    &Response::Hits {
                        request_id,
                        generation: n as u64,
                        hits: vec![None; n],
                    },
                );
            }
            let mut buf = [0u8; 1];
            let _ = s.read(&mut buf);
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let Request::Query { request_id, .. } = read_request(&mut s) else {
                panic!("expected a query")
            };
            send_response(&mut s, &Response::DeadlineExceeded { request_id });
            let mut buf = [0u8; 1];
            let _ = s.read(&mut buf);
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
}
