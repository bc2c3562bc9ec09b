//! Wire protocol for the query service: tagged binary messages inside
//! checksummed [`gstream::frame`]s.
//!
//! Every numeric field is little-endian. Reads travel 2-bit packed
//! (four bases per byte, the same packing the contig store uses on
//! disk), so a 10k-read batch of 100-mers is ~250 KiB on the wire, not
//! a megabyte. Each request carries a `request_id` that the response
//! must echo; the client rejects any response whose id does not match
//! the request it just sent, so a desynchronized or replayed stream can
//! never produce a misattributed answer — it produces
//! [`QnetError::Corrupt`](crate::QnetError::Corrupt) and a reconnect.
//!
//! Decoding is strict: unknown tags, truncated fields, over-long
//! strings, and trailing bytes are all `Corrupt` naming the peer. The
//! framing layer has already checksummed the payload, so a decode
//! failure here means a protocol bug or a hostile peer, not line noise.
//! No count prefix reserves more memory than the bytes left in the
//! payload could fill.
//!
//! The wire is integrity-checked but unauthenticated: any peer that can
//! reach the port can query, reload or shut down the server, so run it
//! on a trusted network.

use crate::QnetError;
use genome::PackedSeq;
use qserve::{Candidate, Hit};

/// Which admission gate shed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedScope {
    /// The shared worker queue was full ([`qserve::QserveError::Overloaded`]).
    Queue,
    /// The per-client token bucket was empty ([`qserve::FairShed`]).
    Fairness,
}

impl std::fmt::Display for ShedScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedScope::Queue => write!(f, "queue"),
            ShedScope::Fairness => write!(f, "per-client fairness"),
        }
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Look up a batch of reads against the contig index.
    Query {
        /// Client-chosen id echoed verbatim in the response.
        request_id: u64,
        /// Remaining deadline budget in milliseconds; `0` means the
        /// budget is already spent and the batch must be shed.
        deadline_ms: u32,
        /// Stable client identity used for fair admission and
        /// per-client trace attribution.
        client_id: String,
        /// The reads to place.
        reads: Vec<PackedSeq>,
        /// Retired: the client writes `0` and the server never reads
        /// it. It keeps its wire position, so query frames stay
        /// byte-identical, until the benchmark harness stops naming it
        /// (ROADMAP item 1).
        auth_seq: u64,
        /// Retired, like `auth_seq`.
        auth_tag: u64,
        /// Generation pin: answer from this store/index generation, or
        /// `0` for whatever is active. A pin can only select among the
        /// server's validated resident generations or draw a typed
        /// missing-generation error — never a forged answer.
        generation: u64,
    },
    /// Look up a batch of reads against this server's *shard* of the
    /// postings space, answering with every voted candidate placement
    /// instead of the selected best hit ([`Response::ShardCandidates`]).
    /// The scatter-gather router sums candidates across shards and
    /// replays the single-node selection, so the field layout is
    /// deliberately identical to [`Request::Query`] — same admission
    /// gates, same deadline semantics.
    ShardQuery {
        /// Client-chosen id echoed verbatim in the response.
        request_id: u64,
        /// Remaining deadline budget in milliseconds.
        deadline_ms: u32,
        /// Stable client identity for fair admission and tracing.
        client_id: String,
        /// The reads to vote on.
        reads: Vec<PackedSeq>,
        /// Retired (see [`Request::Query`]).
        auth_seq: u64,
        /// Retired (see [`Request::Query`]).
        auth_tag: u64,
        /// Generation pin, `0` for active (see [`Request::Query`]). The
        /// router pins every shard fan-out to one id so a rolling
        /// reload's mixed-generation window still sums votes from a
        /// single coherent postings space.
        generation: u64,
    },
    /// Ask the server to begin a graceful drain.
    Shutdown,
    /// Full telemetry snapshot. Admission-gate-exempt like the probe:
    /// answered even mid-drain, never queued behind query work.
    Stats,
    /// Health/readiness probe; always answered, even mid-drain. The
    /// reply ([`Response::PongV2`]) carries queue depth and the
    /// drain-rate EWMA so a load balancer can steer without a full
    /// `Stats` round trip.
    PingV2,
    /// Hot-swap the serving store/index to another validated
    /// generation, with zero shed ([`qserve::QueryService`] reload).
    /// Gate-exempt like `Stats`: answered even mid-overload, never
    /// queued behind query work — an operator can always roll a
    /// saturated server forward. Answered with [`Response::ReloadDone`]
    /// on success or [`Response::ReloadFailed`] (a loud rollback; the
    /// old generation keeps serving) on any failure.
    Reload {
        /// Client-chosen id echoed verbatim in the response.
        request_id: u64,
        /// The generation id to load, or `0` to follow the manifest's
        /// `active` pointer.
        generation: u64,
    },
}

/// A point-in-time telemetry snapshot of a running server.
///
/// Counters come from the server's live roll-up of the same events the
/// JSONL trace records, so a snapshot taken after all in-flight work
/// drained equals the post-hoc [`obs::Rollup`] of the trace exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// True when a graceful drain is underway.
    pub draining: bool,
    /// Queries admitted but not yet answered.
    pub inflight: u64,
    /// Chunks queued in the worker pool right now.
    pub queue_depth: u64,
    /// Reads fully resolved since start.
    pub drained_reads: u64,
    /// Smoothed drain rate (reads/s); `0` until primed.
    pub drain_ewma_reads_per_s: f64,
    /// Reads admitted through every gate (`qnet.accepted`).
    pub accepted: u64,
    /// Reads shed at the queue-depth gate (`qnet.rejected`).
    pub rejected: u64,
    /// Reads shed with their deadline already spent (`qnet.deadline_shed`).
    pub deadline_shed: u64,
    /// Reads shed at the per-client fairness gate (`qnet.fairness_shed`).
    pub fairness_shed: u64,
    /// Reads belonging to admitted queries whose connections were
    /// force-closed at the drain deadline (`qnet.drain.force_closed`).
    pub force_closed: u64,
    /// The store/index generation currently answering unpinned
    /// queries (`qserve.gen.active`).
    pub generation: u64,
    /// Successful hot generation swaps since start
    /// (`qserve.gen.reloads`).
    pub reloads: u64,
    /// Failed reloads rolled back loudly, old generation untouched
    /// (`qserve.gen.rollbacks`).
    pub rollbacks: u64,
    /// Per-client gate totals and fairness state, sorted by client id.
    pub clients: Vec<ClientStats>,
    /// Latency distributions (microseconds), sorted by name.
    pub latency: Vec<LatencySummary>,
}

stdx::impl_json!(struct StatsSnapshot {
    uptime_ms, draining, inflight, queue_depth, drained_reads, drain_ewma_reads_per_s, accepted, rejected, deadline_shed, fairness_shed, force_closed, generation, reloads, rollbacks, clients, latency
});

/// One client's admission history and current fairness state.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientStats {
    pub client_id: String,
    pub accepted: u64,
    pub rejected: u64,
    pub deadline_shed: u64,
    pub fairness_shed: u64,
    /// Tokens currently in the client's fairness bucket.
    pub tokens: f64,
    /// The client's fairness weight.
    pub weight: f64,
}

stdx::impl_json!(struct ClientStats {
    client_id, accepted, rejected, deadline_shed, fairness_shed, tokens, weight
});

/// One latency histogram summarized: exact count/sum/min/max plus
/// deterministic percentiles, all in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub name: String,
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
    pub p999_us: u64,
}

stdx::impl_json!(struct LatencySummary {
    name, count, sum_us, min_us, max_us, p50_us, p90_us, p99_us, p999_us
});

impl LatencySummary {
    /// Summarize a histogram. Percentiles are [`obs::Histogram::percentile`],
    /// so a summary of the merged live windows equals a summary of the
    /// rolled-up trace.
    pub fn from_hist(name: &str, h: &obs::Histogram) -> LatencySummary {
        LatencySummary {
            name: name.to_string(),
            count: h.count(),
            sum_us: h.sum(),
            min_us: h.min(),
            max_us: h.max(),
            p50_us: h.percentile(0.50),
            p90_us: h.percentile(0.90),
            p99_us: h.percentile(0.99),
            p999_us: h.percentile(0.999),
        }
    }
}

/// The [`Response::PongV2`] payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PongStatus {
    /// True when the server is accepting queries.
    pub ready: bool,
    /// True when a graceful drain is underway.
    pub draining: bool,
    /// Chunks queued in the worker pool right now.
    pub queue_depth: u64,
    /// Smoothed drain rate (reads/s); `0` until primed.
    pub drain_ewma_reads_per_s: f64,
    /// The store/index generation currently answering unpinned
    /// queries, so a load balancer can watch a rollout converge
    /// without a full `Stats` round trip.
    pub generation: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Per-read placements, aligned with the request's `reads`.
    Hits {
        /// Echo of the request's id.
        request_id: u64,
        /// The store/index generation that computed these placements —
        /// the request's pin, or whatever was active at admission. A
        /// batch never straddles a swap: every hit in this answer came
        /// from this one generation.
        generation: u64,
        /// `None` for reads that placed nowhere.
        hits: Vec<Option<Hit>>,
    },
    /// The batch was shed at an admission gate; nothing was processed.
    Overloaded {
        /// Echo of the request's id.
        request_id: u64,
        /// Which gate shed the batch.
        scope: ShedScope,
        /// Load observed at the gate.
        queued: u64,
        /// The gate's limit.
        limit: u64,
        /// When the same batch would likely be admitted.
        retry_after_ms: u32,
    },
    /// The server is draining and admits no new queries.
    Draining {
        /// Echo of the request's id.
        request_id: u64,
    },
    /// The request's deadline budget was spent before a worker saw it.
    DeadlineExceeded {
        /// Echo of the request's id.
        request_id: u64,
    },
    /// The server failed to process the batch.
    Error {
        /// Echo of the request's id.
        request_id: u64,
        /// Display of the server-side error.
        message: String,
    },
    /// Acknowledgement that a graceful drain has begun.
    ShutdownAck,
    /// Telemetry snapshot ([`Request::Stats`] answer).
    Stats(StatsSnapshot),
    /// Probe answer ([`Request::PingV2`] answer).
    PongV2(PongStatus),
    /// Per-read candidate placements, aligned with a
    /// [`Request::ShardQuery`]'s `reads` — this shard's slice of the
    /// vote space, unfiltered and untruncated (see
    /// [`qserve::Candidate`]).
    ShardCandidates {
        /// Echo of the request's id.
        request_id: u64,
        /// The generation that voted these candidates (see
        /// [`Response::Hits`]); the router refuses to sum candidate
        /// sets from mismatched generations.
        generation: u64,
        /// One candidate list per read, in request order.
        candidates: Vec<Vec<Candidate>>,
    },
    /// A [`Request::Reload`] succeeded: the named generation is now
    /// active (or already was — a retried reload is idempotent).
    ReloadDone {
        /// Echo of the request's id.
        request_id: u64,
        /// The generation id now serving unpinned queries.
        generation: u64,
    },
    /// A [`Request::Reload`] failed and was rolled back: the previously
    /// active generation is still serving, untouched. Terminal for this
    /// reload attempt; the message names what failed validation.
    ReloadFailed {
        /// Echo of the request's id.
        request_id: u64,
        /// The generation id the reload targeted (`0` = manifest
        /// active).
        generation: u64,
        /// Display of the server-side [`qserve::GenError`].
        message: String,
    },
}

// Retired tags decode as unknown and are never reissued: request 2 and
// response 2 (the first probe pair), request 7 and responses 10 and 12
// (the wire-auth handshake and rejection).
pub(crate) const TAG_QUERY: u8 = 1;
const TAG_SHUTDOWN: u8 = 3;
const TAG_STATS_REQ: u8 = 4;
const TAG_PING_V2: u8 = 5;
pub(crate) const TAG_SHARD_QUERY: u8 = 6;
const TAG_RELOAD: u8 = 8;

const TAG_HITS: u8 = 1;
const TAG_OVERLOADED: u8 = 3;
const TAG_DRAINING: u8 = 4;
const TAG_DEADLINE: u8 = 5;
const TAG_ERROR: u8 = 6;
const TAG_SHUTDOWN_ACK: u8 = 7;
const TAG_STATS: u8 = 8;
const TAG_PONG_V2: u8 = 9;
const TAG_SHARD_CANDIDATES: u8 = 11;
const TAG_RELOAD_DONE: u8 = 13;
const TAG_RELOAD_FAILED: u8 = 14;

/// Fewest payload bytes each counted element can occupy, so a count
/// prefix never reserves room the remaining bytes could not fill.
const MIN_READ_BYTES: usize = 4; // base count of an empty read
const MIN_HIT_BYTES: usize = 1; // an absent hit
const MIN_CANDIDATE_LIST_BYTES: usize = 4; // an empty list's count
const MIN_CANDIDATE_BYTES: usize = 14; // contig, offset, strand, votes, verdict
const MIN_CLIENT_ROW_BYTES: usize = 4 + 6 * 8; // empty id + six fields
const MIN_LATENCY_ROW_BYTES: usize = 4 + 8 * 8; // empty name + eight fields

/// Largest `clients`/`latency` list length accepted in a snapshot.
const MAX_STATS_ROWS: usize = 1 << 16;

/// Longest client id / error message accepted on the wire.
const MAX_STRING_BYTES: usize = 4096;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append `seq` 2-bit packed: base count, then `ceil(len/4)` bytes with
/// the earliest base in the low bits.
fn put_seq(out: &mut Vec<u8>, seq: &PackedSeq) {
    let codes = seq.to_codes();
    put_u32(out, codes.len() as u32);
    let mut byte = 0u8;
    for (i, code) in codes.iter().enumerate() {
        byte |= (code & 3) << (2 * (i % 4));
        if i % 4 == 3 {
            out.push(byte);
            byte = 0;
        }
    }
    if !codes.is_empty() && !codes.len().is_multiple_of(4) {
        out.push(byte);
    }
}

/// Bounds-checked reader over a decoded frame payload; every overrun is
/// a `Corrupt` error naming the peer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    peer: &'a str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], peer: &'a str) -> Self {
        Cursor { buf, pos: 0, peer }
    }

    fn corrupt(&self, detail: impl Into<String>) -> QnetError {
        QnetError::Corrupt {
            peer: self.peer.to_string(),
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> crate::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(self.corrupt(format!(
                "message truncated reading {what}: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Capacity to reserve for `n` counted elements of at least
    /// `min_bytes` each: no more than the rest of the payload could
    /// hold, so a hostile count fails on truncation before it can
    /// reserve memory.
    fn capacity(&self, n: usize, min_bytes: usize) -> usize {
        n.min((self.buf.len() - self.pos) / min_bytes)
    }

    fn u8(&mut self, what: &str) -> crate::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> crate::Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> crate::Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn string(&mut self, what: &str) -> crate::Result<String> {
        let len = self.u32(what)? as usize;
        if len > MAX_STRING_BYTES {
            return Err(self.corrupt(format!("{what} length {len} exceeds {MAX_STRING_BYTES}")));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.corrupt(format!("{what} is not valid UTF-8")))
    }

    fn seq(&mut self) -> crate::Result<PackedSeq> {
        let n_bases = self.u32("read length")? as usize;
        let n_bytes = n_bases.div_ceil(4);
        let packed = self.take(n_bytes, "read bases")?;
        let mut codes = Vec::with_capacity(n_bases);
        for i in 0..n_bases {
            codes.push((packed[i / 4] >> (2 * (i % 4))) & 3);
        }
        Ok(PackedSeq::from_codes(&codes))
    }

    fn finish(&self) -> crate::Result<()> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after message end",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Append the payload of a [`Request::Query`] (`tag` = [`TAG_QUERY`])
/// or [`Request::ShardQuery`] ([`TAG_SHARD_QUERY`]): the two differ in
/// the tag byte alone. `retired` fills the two retired fields. The
/// client encodes straight from its borrowed reads through this.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_query(
    out: &mut Vec<u8>,
    tag: u8,
    request_id: u64,
    deadline_ms: u32,
    client_id: &str,
    reads: &[PackedSeq],
    retired: [u64; 2],
    generation: u64,
) {
    out.push(tag);
    put_u64(out, request_id);
    put_u32(out, deadline_ms);
    put_str(out, client_id);
    put_u32(out, reads.len() as u32);
    for r in reads {
        put_seq(out, r);
    }
    put_u64(out, retired[0]);
    put_u64(out, retired[1]);
    put_u64(out, generation);
}

impl Request {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query {
                request_id,
                deadline_ms,
                client_id,
                reads,
                auth_seq,
                auth_tag,
                generation,
            }
            | Request::ShardQuery {
                request_id,
                deadline_ms,
                client_id,
                reads,
                auth_seq,
                auth_tag,
                generation,
            } => {
                let tag = match self {
                    Request::Query { .. } => TAG_QUERY,
                    _ => TAG_SHARD_QUERY,
                };
                encode_query(
                    &mut out,
                    tag,
                    *request_id,
                    *deadline_ms,
                    client_id,
                    reads,
                    [*auth_seq, *auth_tag],
                    *generation,
                );
            }
            Request::Shutdown => out.push(TAG_SHUTDOWN),
            Request::Stats => out.push(TAG_STATS_REQ),
            Request::PingV2 => out.push(TAG_PING_V2),
            Request::Reload {
                request_id,
                generation,
            } => {
                out.push(TAG_RELOAD);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *generation);
            }
        }
        out
    }

    /// Parse a frame payload received from `peer`.
    pub fn decode(buf: &[u8], peer: &str) -> crate::Result<Request> {
        let mut c = Cursor::new(buf, peer);
        let req = match c.u8("request tag")? {
            tag @ (TAG_QUERY | TAG_SHARD_QUERY) => {
                let request_id = c.u64("request id")?;
                let deadline_ms = c.u32("deadline")?;
                let client_id = c.string("client id")?;
                let n = c.u32("read count")? as usize;
                let mut reads = Vec::with_capacity(c.capacity(n, MIN_READ_BYTES));
                for _ in 0..n {
                    reads.push(c.seq()?);
                }
                let auth_seq = c.u64("retired field")?;
                let auth_tag = c.u64("retired field")?;
                let generation = c.u64("generation pin")?;
                if tag == TAG_QUERY {
                    Request::Query {
                        request_id,
                        deadline_ms,
                        client_id,
                        reads,
                        auth_seq,
                        auth_tag,
                        generation,
                    }
                } else {
                    Request::ShardQuery {
                        request_id,
                        deadline_ms,
                        client_id,
                        reads,
                        auth_seq,
                        auth_tag,
                        generation,
                    }
                }
            }
            TAG_SHUTDOWN => Request::Shutdown,
            TAG_STATS_REQ => Request::Stats,
            TAG_PING_V2 => Request::PingV2,
            TAG_RELOAD => Request::Reload {
                request_id: c.u64("request id")?,
                generation: c.u64("generation")?,
            },
            t => return Err(c.corrupt(format!("unknown request tag {t}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

fn put_scope(out: &mut Vec<u8>, scope: ShedScope) {
    out.push(match scope {
        ShedScope::Queue => 0,
        ShedScope::Fairness => 1,
    });
}

impl Response {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Hits {
                request_id,
                generation,
                hits,
            } => {
                out.push(TAG_HITS);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *generation);
                put_u32(&mut out, hits.len() as u32);
                for h in hits {
                    match h {
                        None => out.push(0),
                        Some(h) => {
                            out.push(1);
                            put_u32(&mut out, h.contig);
                            put_u32(&mut out, h.offset);
                            out.push(h.reverse as u8);
                            put_u32(&mut out, h.mismatches);
                            put_u32(&mut out, h.votes);
                        }
                    }
                }
            }
            Response::Overloaded {
                request_id,
                scope,
                queued,
                limit,
                retry_after_ms,
            } => {
                out.push(TAG_OVERLOADED);
                put_u64(&mut out, *request_id);
                put_scope(&mut out, *scope);
                put_u64(&mut out, *queued);
                put_u64(&mut out, *limit);
                put_u32(&mut out, *retry_after_ms);
            }
            Response::Draining { request_id } => {
                out.push(TAG_DRAINING);
                put_u64(&mut out, *request_id);
            }
            Response::DeadlineExceeded { request_id } => {
                out.push(TAG_DEADLINE);
                put_u64(&mut out, *request_id);
            }
            Response::Error {
                request_id,
                message,
            } => {
                out.push(TAG_ERROR);
                put_u64(&mut out, *request_id);
                put_str(&mut out, message);
            }
            Response::ShutdownAck => out.push(TAG_SHUTDOWN_ACK),
            Response::Stats(s) => {
                out.push(TAG_STATS);
                put_u64(&mut out, s.uptime_ms);
                out.push(s.draining as u8);
                put_u64(&mut out, s.inflight);
                put_u64(&mut out, s.queue_depth);
                put_u64(&mut out, s.drained_reads);
                // f64 travels as raw IEEE bits so the snapshot a client
                // decodes is bit-identical to what the server measured.
                put_u64(&mut out, s.drain_ewma_reads_per_s.to_bits());
                put_u64(&mut out, s.accepted);
                put_u64(&mut out, s.rejected);
                put_u64(&mut out, s.deadline_shed);
                put_u64(&mut out, s.fairness_shed);
                put_u64(&mut out, s.force_closed);
                put_u64(&mut out, s.generation);
                put_u64(&mut out, s.reloads);
                put_u64(&mut out, s.rollbacks);
                put_u32(&mut out, s.clients.len() as u32);
                for cl in &s.clients {
                    put_str(&mut out, &cl.client_id);
                    put_u64(&mut out, cl.accepted);
                    put_u64(&mut out, cl.rejected);
                    put_u64(&mut out, cl.deadline_shed);
                    put_u64(&mut out, cl.fairness_shed);
                    put_u64(&mut out, cl.tokens.to_bits());
                    put_u64(&mut out, cl.weight.to_bits());
                }
                put_u32(&mut out, s.latency.len() as u32);
                for lat in &s.latency {
                    put_str(&mut out, &lat.name);
                    put_u64(&mut out, lat.count);
                    put_u64(&mut out, lat.sum_us);
                    put_u64(&mut out, lat.min_us);
                    put_u64(&mut out, lat.max_us);
                    put_u64(&mut out, lat.p50_us);
                    put_u64(&mut out, lat.p90_us);
                    put_u64(&mut out, lat.p99_us);
                    put_u64(&mut out, lat.p999_us);
                }
            }
            Response::PongV2(p) => {
                out.push(TAG_PONG_V2);
                out.push(p.ready as u8);
                out.push(p.draining as u8);
                put_u64(&mut out, p.queue_depth);
                put_u64(&mut out, p.drain_ewma_reads_per_s.to_bits());
                put_u64(&mut out, p.generation);
            }
            Response::ShardCandidates {
                request_id,
                generation,
                candidates,
            } => {
                out.push(TAG_SHARD_CANDIDATES);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *generation);
                put_u32(&mut out, candidates.len() as u32);
                for per_read in candidates {
                    put_u32(&mut out, per_read.len() as u32);
                    for cand in per_read {
                        put_u32(&mut out, cand.contig);
                        put_u32(&mut out, cand.offset);
                        out.push(cand.reverse as u8);
                        put_u32(&mut out, cand.votes);
                        match cand.mismatches {
                            None => out.push(0),
                            Some(mm) => {
                                out.push(1);
                                put_u32(&mut out, mm);
                            }
                        }
                    }
                }
            }
            Response::ReloadDone {
                request_id,
                generation,
            } => {
                out.push(TAG_RELOAD_DONE);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *generation);
            }
            Response::ReloadFailed {
                request_id,
                generation,
                message,
            } => {
                out.push(TAG_RELOAD_FAILED);
                put_u64(&mut out, *request_id);
                put_u64(&mut out, *generation);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Parse a frame payload received from `peer`.
    pub fn decode(buf: &[u8], peer: &str) -> crate::Result<Response> {
        let mut c = Cursor::new(buf, peer);
        let resp = match c.u8("response tag")? {
            TAG_HITS => {
                let request_id = c.u64("request id")?;
                let generation = c.u64("generation")?;
                let n = c.u32("hit count")? as usize;
                let mut hits = Vec::with_capacity(c.capacity(n, MIN_HIT_BYTES));
                for _ in 0..n {
                    match c.u8("hit presence")? {
                        0 => hits.push(None),
                        1 => {
                            let contig = c.u32("hit contig")?;
                            let offset = c.u32("hit offset")?;
                            let reverse = match c.u8("hit strand")? {
                                0 => false,
                                1 => true,
                                b => return Err(c.corrupt(format!("bad strand byte {b}"))),
                            };
                            let mismatches = c.u32("hit mismatches")?;
                            let votes = c.u32("hit votes")?;
                            hits.push(Some(Hit {
                                contig,
                                offset,
                                reverse,
                                mismatches,
                                votes,
                            }));
                        }
                        b => return Err(c.corrupt(format!("bad hit presence byte {b}"))),
                    }
                }
                Response::Hits {
                    request_id,
                    generation,
                    hits,
                }
            }
            TAG_OVERLOADED => {
                let request_id = c.u64("request id")?;
                let scope = match c.u8("shed scope")? {
                    0 => ShedScope::Queue,
                    1 => ShedScope::Fairness,
                    b => return Err(c.corrupt(format!("bad shed scope {b}"))),
                };
                let queued = c.u64("queued")?;
                let limit = c.u64("limit")?;
                let retry_after_ms = c.u32("retry_after_ms")?;
                Response::Overloaded {
                    request_id,
                    scope,
                    queued,
                    limit,
                    retry_after_ms,
                }
            }
            TAG_DRAINING => Response::Draining {
                request_id: c.u64("request id")?,
            },
            TAG_DEADLINE => Response::DeadlineExceeded {
                request_id: c.u64("request id")?,
            },
            TAG_ERROR => {
                let request_id = c.u64("request id")?;
                let message = c.string("error message")?;
                Response::Error {
                    request_id,
                    message,
                }
            }
            TAG_SHUTDOWN_ACK => Response::ShutdownAck,
            TAG_STATS => {
                let uptime_ms = c.u64("uptime")?;
                let draining = c.u8("draining flag")? != 0;
                let inflight = c.u64("inflight")?;
                let queue_depth = c.u64("queue depth")?;
                let drained_reads = c.u64("drained reads")?;
                let drain_ewma_reads_per_s = f64::from_bits(c.u64("drain ewma")?);
                let accepted = c.u64("accepted")?;
                let rejected = c.u64("rejected")?;
                let deadline_shed = c.u64("deadline shed")?;
                let fairness_shed = c.u64("fairness shed")?;
                let force_closed = c.u64("force closed")?;
                let generation = c.u64("generation")?;
                let reloads = c.u64("reloads")?;
                let rollbacks = c.u64("rollbacks")?;
                let n_clients = c.u32("client count")? as usize;
                if n_clients > MAX_STATS_ROWS {
                    return Err(c.corrupt(format!("client count {n_clients} is absurd")));
                }
                let mut clients = Vec::with_capacity(c.capacity(n_clients, MIN_CLIENT_ROW_BYTES));
                for _ in 0..n_clients {
                    clients.push(ClientStats {
                        client_id: c.string("client id")?,
                        accepted: c.u64("client accepted")?,
                        rejected: c.u64("client rejected")?,
                        deadline_shed: c.u64("client deadline shed")?,
                        fairness_shed: c.u64("client fairness shed")?,
                        tokens: f64::from_bits(c.u64("client tokens")?),
                        weight: f64::from_bits(c.u64("client weight")?),
                    });
                }
                let n_lat = c.u32("latency count")? as usize;
                if n_lat > MAX_STATS_ROWS {
                    return Err(c.corrupt(format!("latency count {n_lat} is absurd")));
                }
                let mut latency = Vec::with_capacity(c.capacity(n_lat, MIN_LATENCY_ROW_BYTES));
                for _ in 0..n_lat {
                    latency.push(LatencySummary {
                        name: c.string("latency name")?,
                        count: c.u64("latency count")?,
                        sum_us: c.u64("latency sum")?,
                        min_us: c.u64("latency min")?,
                        max_us: c.u64("latency max")?,
                        p50_us: c.u64("latency p50")?,
                        p90_us: c.u64("latency p90")?,
                        p99_us: c.u64("latency p99")?,
                        p999_us: c.u64("latency p999")?,
                    });
                }
                Response::Stats(StatsSnapshot {
                    uptime_ms,
                    draining,
                    inflight,
                    queue_depth,
                    drained_reads,
                    drain_ewma_reads_per_s,
                    accepted,
                    rejected,
                    deadline_shed,
                    fairness_shed,
                    force_closed,
                    generation,
                    reloads,
                    rollbacks,
                    clients,
                    latency,
                })
            }
            TAG_PONG_V2 => {
                let ready = c.u8("ready flag")? != 0;
                let draining = c.u8("draining flag")? != 0;
                let queue_depth = c.u64("queue depth")?;
                let drain_ewma_reads_per_s = f64::from_bits(c.u64("drain ewma")?);
                let generation = c.u64("generation")?;
                Response::PongV2(PongStatus {
                    ready,
                    draining,
                    queue_depth,
                    drain_ewma_reads_per_s,
                    generation,
                })
            }
            TAG_SHARD_CANDIDATES => {
                let request_id = c.u64("request id")?;
                let generation = c.u64("generation")?;
                let n = c.u32("candidate list count")? as usize;
                let mut candidates = Vec::with_capacity(c.capacity(n, MIN_CANDIDATE_LIST_BYTES));
                for _ in 0..n {
                    let m = c.u32("candidate count")? as usize;
                    let mut per_read = Vec::with_capacity(c.capacity(m, MIN_CANDIDATE_BYTES));
                    for _ in 0..m {
                        let contig = c.u32("candidate contig")?;
                        let offset = c.u32("candidate offset")?;
                        let reverse = match c.u8("candidate strand")? {
                            0 => false,
                            1 => true,
                            b => return Err(c.corrupt(format!("bad strand byte {b}"))),
                        };
                        let votes = c.u32("candidate votes")?;
                        let mismatches = match c.u8("candidate verdict")? {
                            0 => None,
                            1 => Some(c.u32("candidate mismatches")?),
                            b => return Err(c.corrupt(format!("bad verdict byte {b}"))),
                        };
                        per_read.push(Candidate {
                            contig,
                            offset,
                            reverse,
                            votes,
                            mismatches,
                        });
                    }
                    candidates.push(per_read);
                }
                Response::ShardCandidates {
                    request_id,
                    generation,
                    candidates,
                }
            }
            TAG_RELOAD_DONE => Response::ReloadDone {
                request_id: c.u64("request id")?,
                generation: c.u64("generation")?,
            },
            TAG_RELOAD_FAILED => {
                let request_id = c.u64("request id")?;
                let generation = c.u64("generation")?;
                let message = c.string("reload failure message")?;
                Response::ReloadFailed {
                    request_id,
                    generation,
                    message,
                }
            }
            t => return Err(c.corrupt(format!("unknown response tag {t}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(bases: &str) -> PackedSeq {
        bases.parse().expect("valid bases")
    }

    fn roundtrip_req(req: &Request) -> Request {
        Request::decode(&req.encode(), "test-peer").expect("decodes")
    }

    fn roundtrip_resp(resp: &Response) -> Response {
        Response::decode(&resp.encode(), "test-peer").expect("decodes")
    }

    #[test]
    fn requests_roundtrip_including_unaligned_read_lengths() {
        // Lengths 1..=9 cross every packing remainder (len % 4).
        let reads: Vec<PackedSeq> = [
            "A",
            "AC",
            "ACG",
            "ACGT",
            "ACGTA",
            "ACGTAC",
            "ACGTACG",
            "ACGTACGT",
            "ACGTACGTA",
        ]
        .iter()
        .map(|s| seq(s))
        .collect();
        let req = Request::Query {
            request_id: 0xDEAD_BEEF_0123,
            deadline_ms: 1500,
            client_id: "assembler-7".to_string(),
            reads: reads.clone(),
            // Retired fields still round-trip whatever they carry.
            auth_seq: 3,
            auth_tag: 0x1234,
            generation: 3,
        };
        assert_eq!(roundtrip_req(&req), req);
        let shard = Request::ShardQuery {
            request_id: 0xBEEF,
            deadline_ms: 900,
            client_id: "router-0".to_string(),
            reads: reads.clone(),
            auth_seq: 0,
            auth_tag: 0,
            generation: 0,
        };
        assert_eq!(roundtrip_req(&shard), shard);
        assert_eq!(roundtrip_req(&Request::Shutdown), Request::Shutdown);
        assert_eq!(roundtrip_req(&Request::Stats), Request::Stats);
        assert_eq!(roundtrip_req(&Request::PingV2), Request::PingV2);
        let reload = Request::Reload {
            request_id: 19,
            generation: 4,
        };
        assert_eq!(roundtrip_req(&reload), reload);

        // Empty batch is legal on the wire (the server sheds it cheaply).
        let empty = Request::Query {
            request_id: 1,
            deadline_ms: 0,
            client_id: String::new(),
            reads: Vec::new(),
            auth_seq: 0,
            auth_tag: 0,
            generation: 0,
        };
        assert_eq!(roundtrip_req(&empty), empty);
    }

    #[test]
    fn responses_roundtrip() {
        let hits = Response::Hits {
            request_id: 42,
            generation: 2,
            hits: vec![
                None,
                Some(Hit {
                    contig: 7,
                    offset: 1234,
                    reverse: true,
                    mismatches: 2,
                    votes: 91,
                }),
                Some(Hit {
                    contig: 0,
                    offset: 0,
                    reverse: false,
                    mismatches: 0,
                    votes: 1,
                }),
            ],
        };
        assert_eq!(roundtrip_resp(&hits), hits);
        for resp in [
            Response::Overloaded {
                request_id: 9,
                scope: ShedScope::Fairness,
                queued: 120_000,
                limit: 20_000,
                retry_after_ms: 450,
            },
            Response::Draining { request_id: 3 },
            Response::DeadlineExceeded { request_id: 4 },
            Response::Error {
                request_id: 5,
                message: "index corrupt: bad magic".to_string(),
            },
            Response::ShutdownAck,
            Response::ReloadDone {
                request_id: 7,
                generation: 3,
            },
            Response::ReloadFailed {
                request_id: 8,
                generation: 9,
                message: "generation 9: store checksum mismatch".to_string(),
            },
        ] {
            assert_eq!(roundtrip_resp(&resp), resp);
        }
    }

    #[test]
    fn shard_candidates_roundtrip_including_unverified_placements() {
        use qserve::Candidate;
        let resp = Response::ShardCandidates {
            request_id: 77,
            generation: 1,
            candidates: vec![
                Vec::new(), // a read with no votes on this shard
                vec![
                    Candidate {
                        contig: 3,
                        offset: 128,
                        reverse: false,
                        votes: 5,
                        mismatches: Some(1),
                    },
                    Candidate {
                        contig: 9,
                        offset: 0,
                        reverse: true,
                        votes: 1,
                        mismatches: None, // blew the mismatch budget
                    },
                ],
            ],
        };
        assert_eq!(roundtrip_resp(&resp), resp);
    }

    #[test]
    fn stats_and_pong_v2_roundtrip_with_exact_floats() {
        let snap = StatsSnapshot {
            uptime_ms: 123_456,
            draining: true,
            inflight: 3,
            queue_depth: 17,
            drained_reads: 1_000_000,
            drain_ewma_reads_per_s: 0.1 + 0.2, // not representable cleanly
            accepted: 999_983,
            rejected: 12,
            deadline_shed: 4,
            fairness_shed: 1,
            force_closed: 2,
            generation: 5,
            reloads: 4,
            rollbacks: 1,
            clients: vec![
                ClientStats {
                    client_id: "alpha".into(),
                    accepted: 500_000,
                    rejected: 12,
                    deadline_shed: 0,
                    fairness_shed: 1,
                    tokens: 19_999.875,
                    weight: 2.0,
                },
                ClientStats {
                    client_id: "beta".into(),
                    accepted: 499_983,
                    rejected: 0,
                    deadline_shed: 4,
                    fairness_shed: 0,
                    tokens: 1.0 / 3.0,
                    weight: 1.0,
                },
            ],
            latency: vec![LatencySummary {
                name: "qnet.latency.total".into(),
                count: 999_983,
                sum_us: 88_123_456,
                min_us: 12,
                max_us: 91_011,
                p50_us: 70,
                p90_us: 150,
                p99_us: 4_200,
                p999_us: 88_064,
            }],
        };
        let resp = Response::Stats(snap.clone());
        assert_eq!(roundtrip_resp(&resp), resp);
        // The same snapshot as `lasagna-cli stats --format json` prints it.
        let json = stdx::json::to_string_pretty(&snap);
        assert_eq!(stdx::json::from_str::<StatsSnapshot>(&json).unwrap(), snap);

        // An empty snapshot (fresh server) is legal too.
        let empty = Response::Stats(StatsSnapshot {
            uptime_ms: 0,
            draining: false,
            inflight: 0,
            queue_depth: 0,
            drained_reads: 0,
            drain_ewma_reads_per_s: 0.0,
            accepted: 0,
            rejected: 0,
            deadline_shed: 0,
            fairness_shed: 0,
            force_closed: 0,
            generation: 0,
            reloads: 0,
            rollbacks: 0,
            clients: Vec::new(),
            latency: Vec::new(),
        });
        assert_eq!(roundtrip_resp(&empty), empty);

        let pong = Response::PongV2(PongStatus {
            ready: true,
            draining: false,
            queue_depth: 42,
            drain_ewma_reads_per_s: 10_000.25,
            generation: 6,
        });
        assert_eq!(roundtrip_resp(&pong), pong);
    }

    #[test]
    fn latency_summary_matches_the_histogram_it_came_from() {
        let mut h = obs::Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = LatencySummary::from_hist("lat", &h);
        assert_eq!(s.count, 1000);
        assert_eq!(s.min_us, 1);
        assert_eq!(s.max_us, 1000);
        assert_eq!(s.p50_us, h.percentile(0.50));
        assert_eq!(s.p90_us, h.percentile(0.90));
        assert_eq!(s.p99_us, h.percentile(0.99));
        assert_eq!(s.p999_us, h.percentile(0.999));
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p99_us && s.p99_us <= s.p999_us);
    }

    #[test]
    fn decode_rejects_garbage_with_errors_naming_the_peer() {
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (vec![], "empty payload"),
            (vec![99], "unknown request tag"),
            (vec![TAG_QUERY, 1, 2], "truncated query"),
        ];
        for (buf, what) in cases {
            let err = Request::decode(&buf, "10.0.0.9:5000").expect_err(what);
            match err {
                QnetError::Corrupt { peer, .. } => assert_eq!(peer, "10.0.0.9:5000"),
                other => panic!("expected Corrupt for {what}, got {other:?}"),
            }
        }

        // Trailing bytes after a well-formed message are corruption too.
        let mut buf = Request::Shutdown.encode();
        buf.push(0);
        let err = Request::decode(&buf, "p").expect_err("trailing byte");
        assert!(matches!(err, QnetError::Corrupt { .. }));

        // A read-count that promises more data than the payload holds
        // must fail cleanly rather than panic (tests/qnet_hostile_alloc.rs
        // checks that it reserves nothing first).
        let mut buf = Vec::new();
        buf.push(TAG_QUERY);
        put_u64(&mut buf, 1);
        put_u32(&mut buf, 100);
        put_str(&mut buf, "c");
        put_u32(&mut buf, u32::MAX);
        put_u64(&mut buf, 0);
        let err = Request::decode(&buf, "p").expect_err("absurd read count");
        assert!(matches!(err, QnetError::Corrupt { .. }));
    }

    #[test]
    fn retired_tags_decode_as_corrupt_naming_the_peer() {
        // Request 2 / response 2 were the first probe pair; request 7 and
        // responses 10 and 12 were the wire-auth handshake and rejection.
        // A peer still sending them speaks a protocol this tree no longer
        // has.
        let peer = "10.0.0.9:5000";
        let req = |tag: u8| Request::decode(&[tag], peer).expect_err("retired request tag");
        let resp = |tag: u8| {
            let payload = [tag, 1, 0, 0, 0, 0, 0, 0, 0];
            Response::decode(&payload, peer).expect_err("retired response tag")
        };
        for (tag, err) in [
            (2, req(2)),
            (7, req(7)),
            (2, resp(2)),
            (10, resp(10)),
            (12, resp(12)),
        ] {
            match err {
                QnetError::Corrupt { peer, detail } => {
                    assert_eq!(peer, "10.0.0.9:5000");
                    assert!(detail.contains(&format!("tag {tag}")), "detail: {detail}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_client_id_is_rejected() {
        let req = Request::Query {
            request_id: 1,
            deadline_ms: 10,
            client_id: "x".repeat(MAX_STRING_BYTES + 1),
            reads: Vec::new(),
            auth_seq: 0,
            auth_tag: 0,
            generation: 0,
        };
        let err = Request::decode(&req.encode(), "p").expect_err("oversized id");
        match err {
            QnetError::Corrupt { detail, .. } => {
                assert!(detail.contains("client id"), "detail: {detail}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
