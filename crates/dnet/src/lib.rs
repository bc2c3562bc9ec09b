//! # dnet — distributed LaSAGNA (Section III-E)
//!
//! The paper's distributed implementation spreads the pipeline over a
//! cluster: GASNet active messages handle remote spawning and data
//! movement, a master load-balances input blocks, each node keeps *private*
//! storage for intermediate data (the aggregate I/O bandwidth is the whole
//! point), and the reduce phase serializes graph construction by passing
//! the out-degree bit-vector from the node owning partition `l+1` to the
//! node owning `l`.
//!
//! Here a "node" is a worker thread with its own virtual GPU, host-memory
//! budget, I/O counters, and spill directory; [`am`] is the active-message
//! layer (request/response over channels with a network bandwidth model);
//! [`cluster`] drives the six distributed phases — the pipeline's load,
//! map, sort, reduce and compress plus the all-to-all shuffle — and merges
//! the disjoint per-node edge sets into one string graph. The master
//! loads and compresses, and a rank maps, sorts and joins, through
//! `lasagna`'s own steps (`pipeline::load`, `map::map_block`,
//! `sortphase::sort_partition`, `reduce::join_pair`, `pipeline::compress`),
//! so one node and many run — and are charged for — the same work; only
//! the shuffle, the token and the checkpoints are `dnet`'s.
//!
//! One node is Fig. 10's bar without a shuffle, decided once in
//! [`cluster`]: the whole input is one block, mapped straight into the
//! rank's own partitions, and no item is shuffled.
//!
//! The simulation preserves the paper's *structure* — dynamic block
//! assignment, an all-to-all shuffle that only appears beyond one node, a
//! serialized reduce chain with parallel overlap-finding (the
//! `t_o·p/n + t_g·p` scalability bound) — which is what Fig. 10 measures.

pub mod am;
pub mod cluster;
pub mod netmodel;
pub mod superstep;

pub use am::{AmClient, AmServer, Request, Response};
pub use cluster::{Cluster, ClusterConfig, DistributedOutput, DistributedReport, ReduceStrategy};
pub use netmodel::{NetModel, NetStats};
pub use superstep::{LogRecovery, SuperstepLog, SuperstepRecord};

/// Errors from distributed execution.
#[derive(Debug)]
pub enum DnetError {
    /// A pipeline phase failed on some node.
    Node {
        /// Node rank.
        node: usize,
        /// The error that ended the rank's work.
        source: lasagna::LasagnaError,
    },
    /// A rank's thread panicked.
    Panicked {
        /// Node rank.
        node: usize,
    },
    /// Every rank has died, so a failed superstep has no survivor to
    /// move to.
    NoSurvivors {
        /// The first rank that died in the last round.
        node: usize,
    },
    /// The map phase ended with an input block no rank holds.
    Unassigned {
        /// Input block index.
        block: usize,
    },
    /// The merged graph broke a [`lasagna::StringGraph`] invariant.
    BrokenGraph(String),
    /// Cluster misconfiguration.
    BadConfig(String),
}

impl DnetError {
    /// The injected fault that ended a rank, if one did (see
    /// [`lasagna::LasagnaError::fault`]).
    pub fn fault(&self) -> Option<&faultsim::FaultError> {
        match self {
            DnetError::Node { source, .. } => source.fault(),
            _ => None,
        }
    }
}

impl std::fmt::Display for DnetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnetError::Node { node, source } => write!(f, "node {node}: {source}"),
            DnetError::Panicked { node } => write!(f, "node {node}: panicked"),
            DnetError::NoSurvivors { node } => {
                write!(f, "node {node}: no surviving nodes to fail over to")
            }
            DnetError::Unassigned { block } => write!(f, "node 0: block {block} unassigned"),
            DnetError::BrokenGraph(m) => write!(f, "node 0: {m}"),
            DnetError::BadConfig(m) => write!(f, "bad cluster config: {m}"),
        }
    }
}

impl std::error::Error for DnetError {}

/// Convenience alias for fallible distributed operations.
pub type Result<T> = std::result::Result<T, DnetError>;
