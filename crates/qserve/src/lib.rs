//! # qserve — the contig query service
//!
//! Everything upstream of this crate produces an assembly; this crate
//! serves it. The paper's pipeline ends when contigs hit disk (`lasagna`
//! does not depend on this crate), but the
//! north-star deployment keeps answering "where does this read come from?"
//! long after the assembly finished — alignment front-ends, contamination
//! screens, coverage dashboards. `qserve` is that serving layer:
//!
//! * [`store`] — [`ContigStore`], a compact on-disk contig store (2-bit
//!   packed sequences + per-contig metadata) committed with the same
//!   atomic-rename durability as every other artifact (`gstream`'s blob
//!   writer) and validated end-to-end by a checksummed footer;
//! * [`minimizer`] — [`MinimizerIndex`], a (w,k)-window minimizer index
//!   mapping minimizer hashes to `(contig, offset)` postings, built in
//!   parallel over contigs and serialized beside the store;
//! * [`generations`] — the one layout a work directory serves:
//!   [`generations::export`] writes a store, its index and a
//!   `generations.json` entry, and [`generations::open_active_engine`]
//!   opens the active one;
//! * [`engine`] — [`QueryEngine`], which maps a read (or its Watson-Crick
//!   complement) to its contig position: minimizer hits vote for candidate
//!   diagonals, banded verification confirms or rejects them;
//! * [`service`] — [`QueryService`], batched requests drained from a
//!   bounded queue in `workers` execution slots, held by the worker pool
//!   or by a waiter running its own batch; over-depth submissions are
//!   shed with a typed [`QserveError::Overloaded`] instead of queuing
//!   unboundedly;
//! * [`admission`] — [`FairAdmission`], weighted per-client token buckets
//!   layered ahead of the queue by the `qnet` network front-end so one
//!   hot client cannot starve the rest.
//!
//! Formats, query semantics, tuning knobs, and failure modes are
//! documented in `SERVING.md`. Observability: workers run under
//! `qserve.worker{i}` spans, chunks emit `qserve.queries`,
//! `qserve.batch.size`, and `qserve.shed` counters (see
//! OBSERVABILITY.md). Corrupt stores and indexes fail loudly as
//! [`gstream::StreamError::Corrupt`] with the offending path named; the `qserve.store.read` / `qserve.index.read`
//! failpoints inject those failures deterministically, and
//! `qserve.store.write` injects ENOSPC into [`generations::export`]'s
//! store write (ROBUSTNESS.md).

pub mod admission;
pub mod engine;
pub mod generations;
pub mod minimizer;
pub mod service;
pub mod store;

pub use admission::{AdmissionConfig, FairAdmission, FairShed};
pub use engine::{
    merge_candidates, select_hit, CacheStats, Candidate, Hit, QueryConfig, QueryEngine,
};
pub use generations::{
    gen_index_file, gen_store_file, GenEntry, GenError, GenManifest, GEN_MANIFEST_FILE,
};
pub use minimizer::{minimizers, shard_of_hash, IndexConfig, MinimizerIndex};
pub use service::{Answer, BatchHandle, GenerationStats, QueryService, ServiceConfig};
pub use store::ContigStore;

/// Conventional file name of a single contig store written by hand with
/// [`ContigStore::write`]. A served work directory holds generations
/// instead ([`gen_store_file`]).
pub const STORE_FILE: &str = "contigs.store";

/// Errors from the query service.
#[derive(Debug)]
pub enum QserveError {
    /// Store/index I/O or corruption (see [`gstream::StreamError`]).
    Stream(gstream::StreamError),
    /// The service queue is at depth; the batch was shed, not enqueued.
    /// Back off and resubmit — nothing was partially processed.
    Overloaded {
        /// Chunks already queued when the batch arrived.
        queued: usize,
        /// Chunks the shed batch would have added on top of `queued` —
        /// together they say how far past the limit admission would land.
        incoming: usize,
        /// The configured queue-depth limit it would have exceeded.
        max_queue: usize,
    },
    /// A generation operation failed: missing generation, checksum
    /// binding mismatch, or a reload that could not load its files.
    /// Reloads that fail this way roll back — the previously active
    /// generation keeps serving.
    Generation(generations::GenError),
}

impl std::fmt::Display for QserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QserveError::Stream(e) => write!(f, "{e}"),
            QserveError::Overloaded {
                queued,
                incoming,
                max_queue,
            } => write!(
                f,
                "overloaded: {queued} chunks queued + {incoming} arriving \
                 exceeds the admission limit of {max_queue}"
            ),
            QserveError::Generation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QserveError {}

impl From<gstream::StreamError> for QserveError {
    fn from(e: gstream::StreamError) -> Self {
        QserveError::Stream(e)
    }
}

/// Convenience alias for fallible service operations.
pub type Result<T> = std::result::Result<T, QserveError>;
