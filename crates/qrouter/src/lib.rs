//! # qrouter — sharded, replicated serving with hedged scatter-gather
//!
//! One `qnet` server answers queries over the *whole* minimizer index;
//! this crate splits that postings space across N servers (R replicas
//! each) and puts a router in front that preserves the single-node
//! answer bit-for-bit while tolerating slow and dead replicas. The
//! layering:
//!
//! * **Sharding** — shard `s` owns every minimizer hash with
//!   [`qserve::shard_of_hash`]`(h, n) == s`; replicas build their index
//!   with `MinimizerIndex::build_shard` over the *same* contig store
//!   (pinned by checksum in the [`ClusterManifest`]). Contigs are not
//!   sharded — only postings — so any replica can verify any placement
//!   its slice of votes proposes.
//! * **Scatter-gather** ([`Router::route`]) — a batch fans out to every
//!   shard over the `ShardQuery` wire verb, which returns unfiltered
//!   per-read candidates instead of final hits. The router sums votes
//!   with [`qserve::merge_candidates`] and replays single-node
//!   selection with [`qserve::select_hit`], so tie-breaks land exactly
//!   where a single server's would. Over live pooled connections the
//!   calling thread sends every shard's query and reads every answer; a
//!   batch whose shards all answer within their hedge delays starts no
//!   thread.
//! * **Hedging** — a shard slower than its own recent latency
//!   percentile gets a second request at the next replica; first
//!   answer wins, the loser's late frame is discarded by `request_id`
//!   echo on its own private connection (`qrouter.hedge.fired` /
//!   `qrouter.hedge.won`).
//! * **Fail-over** — failed attempts ladder across replicas with the
//!   capped jittered backoff shared by the whole codebase
//!   (`qrouter.failover`); terminal errors surface immediately as
//!   [`RouterError::Net`] naming the shard and peer; a shard that
//!   exhausts every replica is dead-lettered ([`Router::dead_letters`],
//!   `qrouter.shard.dead`) and surfaces as
//!   [`RouterError::ShardUnavailable`] — typed, never a hang.
//! * **Generations** — the router pins every fan-out to one store/index
//!   generation (seeded from [`ClusterManifest::generation`], advanced
//!   by [`Router::rollout`]'s replica-by-replica hot reload), and
//!   refuses to merge candidates answered for different generations
//!   ([`RouterError::GenerationSkew`]) — summed votes are only
//!   meaningful over one postings build. A failed rollout rolls back
//!   loudly ([`RouterError::RolloutFailed`]) with the pin untouched, so
//!   the mixed-generation window never serves a blended answer.
//!
//! Chaos coverage lives behind the `qrouter.shard.down`,
//! `qrouter.shard.slow`, and `qrouter.replica.flap` failpoints;
//! `tests/qrouter_cluster.rs` pins the headline invariant — sharded
//! answers byte-identical to single-node with zero faults, with a
//! replica of every shard dead, and with hedging racing both replicas.
//! SERVING.md documents the manifest format and hedge policy;
//! OBSERVABILITY.md the `qrouter.*` counters.

pub mod manifest;
pub mod router;

pub use manifest::{ClusterManifest, ShardEntry, MANIFEST_VERSION};
pub use router::{DeadLetter, Router, RouterConfig};

/// Errors surfaced by the router.
#[derive(Debug)]
pub enum RouterError {
    /// The cluster manifest failed to parse or validate.
    Manifest(String),
    /// A shard exhausted every replica and every fail-over round; the
    /// batch was dead-lettered. Names the shard so operators know which
    /// slice of the vote space is dark.
    ShardUnavailable {
        /// The shard that could not answer.
        shard: u32,
        /// Wire attempts made before giving up.
        attempts: u32,
        /// Display of the last error seen.
        last: String,
    },
    /// A terminal network-layer failure (spent deadline, typed remote
    /// error) attributed to the shard and peer
    /// it came from — fail-over would not have helped.
    Net {
        /// The shard being queried.
        shard: u32,
        /// The replica that answered, as `host:port`.
        peer: String,
        /// The underlying typed error.
        source: qnet::QnetError,
    },
    /// Two shards answered the same batch for different store/index
    /// generations. Merging their candidates would sum votes over
    /// different postings partitions — silently wrong answers — so the
    /// batch fails loudly instead. Seen only in the unpinned
    /// (`generation = 0`) mixed-rollout window; pinned batches are held
    /// to one generation by every replica.
    GenerationSkew {
        /// The generation shard 0 answered for.
        expected: u64,
        /// The first shard that disagreed.
        shard: u32,
        /// The generation that shard answered for.
        answered: u64,
    },
    /// A rolling reload ([`Router::rollout`]) could not land the target
    /// generation on every replica. The router's generation pin is left
    /// untouched — every replica (including the failures, which rolled
    /// back) still serves the pinned generation, so queries keep
    /// answering while the operator retries.
    RolloutFailed {
        /// The generation the rollout targeted (`0` = manifest active).
        target: u64,
        /// `(replica address, failure display)` for every replica that
        /// refused or disagreed.
        failed: Vec<(String, String)>,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Manifest(detail) => write!(f, "cluster manifest: {detail}"),
            RouterError::ShardUnavailable {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "shard {shard} unavailable after {attempts} attempts (last: {last})"
            ),
            RouterError::Net {
                shard,
                peer,
                source,
            } => write!(f, "shard {shard} at {peer}: {source}"),
            RouterError::GenerationSkew {
                expected,
                shard,
                answered,
            } => write!(
                f,
                "generation skew: shard {shard} answered for generation {answered} while \
                 shard 0 answered for {expected}; mixed-generation candidates are never merged"
            ),
            RouterError::RolloutFailed { target, failed } => {
                write!(
                    f,
                    "rollout to generation {target} failed on {} replica(s), pin unchanged:",
                    failed.len()
                )?;
                for (peer, detail) in failed {
                    write!(f, " [{peer}: {detail}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Net { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Convenience alias for fallible router operations.
pub type Result<T> = std::result::Result<T, RouterError>;
