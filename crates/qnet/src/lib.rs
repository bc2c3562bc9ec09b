//! # qnet — the network front-end for the contig query service
//!
//! `qserve` answers "where does this read come from?" in-process; this
//! crate puts that service on a TCP socket without giving up any of the
//! robustness discipline the batch pipeline earned in PR 2/3. The design
//! is failure-first — every mechanism exists because a specific failure
//! mode must surface as a *typed, retryable* outcome rather than a hang
//! or a wrong answer:
//!
//! * **Framing** ([`gstream::frame`]) — every message is length-prefixed
//!   and FNV-checksummed; a torn or bit-flipped frame is
//!   [`QnetError::Corrupt`] naming the peer, and the connection dies with
//!   it (a desynced stream can never deliver a misattributed answer).
//! * **Deadline propagation** ([`proto::Request::Query`]) — each request
//!   carries the client's remaining budget in ms; batches whose budget is
//!   already spent are shed *before* they reach a worker and counted as
//!   `qnet.deadline_shed`, separate from queue sheds.
//! * **Per-client fair admission** ([`qserve::FairAdmission`]) — weighted
//!   token buckets per client id ahead of the queue-depth gate, so one
//!   flooding client exhausts its own bucket (`qnet.fairness_shed`,
//!   attributed to `client:{id}` spans) while quiet clients keep serving.
//!   Shed responses carry `retry_after_ms` derived from the bucket
//!   deficit (fairness) or the live drain rate (queue depth).
//! * **Timeouts everywhere** — per-connection read/write timeouts evict
//!   stalled peers on both sides; nothing in this crate blocks forever.
//! * **Graceful drain** ([`server::Server::shutdown`]) — stop accepting,
//!   answer new queries with [`QnetError::Draining`], finish in-flight
//!   batches bounded by a drain deadline, then force-close stragglers.
//! * **Retrying client** ([`client::QueryClient`]) — capped, jittered
//!   exponential backoff (the shape of `dnet`'s recovery backoff),
//!   automatic reconnect, `retry_after_ms` honored, and a request-id echo
//!   check so a stale response can never be returned for a fresh request.
//!
//! Chaos coverage lives behind the `qnet.accept`, `qnet.frame.write`,
//! `qnet.frame.stall`, and `qnet.conn.drop` failpoints (ROBUSTNESS.md);
//! `tests/qnet_chaos.rs` arms each one — `qnet.conn.drop`
//! probabilistically — and asserts a 10k-read run stays bit-identical to
//! the in-process path. Wire format, deadline semantics, and the retry
//! contract are documented in SERVING.md; counters in OBSERVABILITY.md.

pub mod client;
pub mod pool;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, QueryClient, SentQuery};
pub use pool::ClientPool;
pub use proto::{
    ClientStats, LatencySummary, PongStatus, Request, Response, ShedScope, StatsSnapshot,
};
pub use server::{DrainReport, ReloadConfig, Server, ServerConfig};

/// Errors surfaced by the qnet client and server.
#[derive(Debug)]
pub enum QnetError {
    /// Transport failure: connect/read/write errors and timeouts.
    Io(std::io::Error),
    /// A frame or payload failed validation; the connection is dead.
    Corrupt {
        /// The remote end, as `host:port`.
        peer: String,
        /// What failed to validate.
        detail: String,
    },
    /// The server shed the batch; nothing was processed. `retry_after_ms`
    /// is the server's hint for when the same batch would be admitted.
    Overloaded {
        /// Which admission gate shed the batch.
        scope: ShedScope,
        /// Load observed at the gate (queued chunks, or the token
        /// deficit in reads, depending on `scope`).
        queued: u64,
        /// The gate's limit (queue depth, or bucket capacity in reads).
        limit: u64,
        /// Server-computed backoff hint.
        retry_after_ms: u32,
    },
    /// The request's deadline budget expired before a worker saw it.
    DeadlineExceeded {
        /// The budget the request carried, in milliseconds.
        budget_ms: u32,
    },
    /// The server is draining for shutdown and admits nothing new.
    Draining,
    /// The server failed a hot generation reload and rolled back; the
    /// previously active generation is still serving, untouched.
    /// Terminal for this reload attempt — the message names what
    /// failed (missing generation, checksum mismatch, stalled swap).
    ReloadFailed {
        /// The generation the reload targeted (`0` = manifest active).
        generation: u64,
        /// Display of the server-side failure.
        message: String,
    },
    /// The server failed to process the batch (its own typed error,
    /// stringified for transport).
    Remote(String),
    /// The client exhausted its retry budget; `last` is the final
    /// attempt's retryable error, still typed — a client built with
    /// `max_retries: 0` hands back its single attempt's `Overloaded`,
    /// `Draining` or `Io` here ([`QnetError::last_attempt`]).
    RetriesExhausted {
        /// Attempts made (initial try + retries).
        attempts: u32,
        /// The last attempt's error.
        last: Box<QnetError>,
    },
}

impl QnetError {
    /// True when retrying the same request (with backoff, on a fresh
    /// connection) may succeed: transport errors, torn/corrupt frames,
    /// sheds, and drains. Deadline exhaustion, reload rollbacks, remote
    /// typed failures, and an already-exhausted retry budget are
    /// terminal.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            QnetError::Io(_)
                | QnetError::Corrupt { .. }
                | QnetError::Overloaded { .. }
                | QnetError::Draining
        )
    }

    /// What the last wire attempt itself failed with: the `last` of a
    /// [`QnetError::RetriesExhausted`], any other error as it is.
    pub fn last_attempt(&self) -> &QnetError {
        match self {
            QnetError::RetriesExhausted { last, .. } => last,
            other => other,
        }
    }
}

impl std::fmt::Display for QnetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QnetError::Io(e) => write!(f, "network I/O: {e}"),
            QnetError::Corrupt { peer, detail } => {
                write!(f, "corrupt frame from peer {peer}: {detail}")
            }
            QnetError::Overloaded {
                scope,
                queued,
                limit,
                retry_after_ms,
            } => write!(
                f,
                "overloaded ({scope}): {queued} against a limit of {limit}, \
                 retry after {retry_after_ms} ms"
            ),
            QnetError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded: the {budget_ms} ms budget ran out")
            }
            QnetError::Draining => write!(f, "server draining: no new work admitted"),
            QnetError::ReloadFailed {
                generation,
                message,
            } => {
                write!(
                    f,
                    "reload of generation {generation} failed and rolled back: {message}"
                )
            }
            QnetError::Remote(m) => write!(f, "remote error: {m}"),
            QnetError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for QnetError {}

impl From<std::io::Error> for QnetError {
    fn from(e: std::io::Error) -> Self {
        QnetError::Io(e)
    }
}

/// Convenience alias for fallible qnet operations.
pub type Result<T> = std::result::Result<T, QnetError>;

/// Non-consuming readiness probe: true when a read on `sock` would not
/// block (data buffered, orderly EOF, or a hard error — all of which the
/// real read observes immediately). Safe as a scheduler re-poll
/// predicate on either end of a connection.
pub(crate) fn sock_readable(sock: &std::net::TcpStream) -> bool {
    let mut probe = [0u8; 1];
    let _ = sock.set_nonblocking(true);
    let r = sock.peek(&mut probe);
    let _ = sock.set_nonblocking(false);
    match r {
        Ok(_) => true,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    }
}

impl From<stdx::bytes::Corrupt> for QnetError {
    fn from(e: stdx::bytes::Corrupt) -> Self {
        QnetError::Corrupt {
            detail: e.message(),
            peer: e.source,
        }
    }
}

/// Map a [`gstream::StreamError`] from the framing layer onto a qnet
/// error, attributing corruption to `peer`.
pub(crate) fn from_stream(e: gstream::StreamError, peer: &str) -> QnetError {
    match e {
        gstream::StreamError::Io(io) => QnetError::Io(io),
        gstream::StreamError::Corrupt(detail) => QnetError::Corrupt {
            peer: peer.to_string(),
            detail,
        },
        other => QnetError::Corrupt {
            peer: peer.to_string(),
            detail: other.to_string(),
        },
    }
}
