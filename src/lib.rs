//! # lasagna-repro — GPU-Accelerated Large-Scale Genome Assembly, in Rust
//!
//! A full reproduction of *LaSAGNA* (Goswami, Lee, Shams, Park — IPDPS
//! 2018): a string-graph genome assembler built for datasets far larger
//! than GPU device memory, using a two-level semi-streaming model
//! (disk → host blocks → device chunks).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`vgpu`] — the virtual GPU substrate (bounded device memory, kernels,
//!   roofline timing model, K40/K20X/P40/P100/V100 profiles);
//! * [`gstream`] — streaming I/O: fixed-width records, spill partitions,
//!   external merging (the paper's Algorithm 1), the hybrid two-level
//!   external sort;
//! * [`genome`] — 2-bit packed sequences, FASTA/FASTQ, the shotgun
//!   simulator, Table-I-scaled dataset presets;
//! * [`fingerprint`] — Rabin-Karp prefix/suffix fingerprints via the
//!   Hillis-Steele scan of the paper's Figs. 5-6;
//! * [`lasagna`] — the assembly pipeline itself: map / sort / reduce /
//!   traverse, the greedy string graph, contig generation, reports;
//! * [`dnet`] — the distributed implementation: active messages, master
//!   load balancing, shuffle, token-passing reduce;
//! * [`sga`] — the SGA-like baseline (SA-IS suffix array, FM-index,
//!   backward-search overlaps) of the paper's Table VI;
//! * [`mod@dbg`] — a de Bruijn baseline that reproduces the paper's claim
//!   that such assemblers run out of memory on large single-node inputs;
//! * [`qserve`] — the contig query service: an indexed on-disk assembly
//!   store with batched, concurrent read lookups (see SERVING.md);
//! * [`qnet`] — the hardened TCP front-end over `qserve`: checksummed
//!   framing, deadline propagation, per-client fair admission, a
//!   retry/backoff client, and graceful drain; unauthenticated, so it
//!   belongs on a trusted network (see SERVING.md);
//! * [`qrouter`] — the sharded, replicated serving cluster over `qnet`:
//!   a versioned cluster manifest, hedged scatter-gather routing that
//!   reproduces single-node answers byte-for-byte, replica fail-over,
//!   and dead-letter accounting (see SERVING.md);
//! * [`schedcheck`] — deterministic schedule exploration for the serving
//!   concurrency protocol: the real server and service under a controlled
//!   scheduler, bounded-exhaustive + PCT strategies, replayable traces
//!   (see ROBUSTNESS.md).
//!
//! ## Quickstart
//!
//! ```
//! use lasagna_repro::prelude::*;
//!
//! // Simulate a small genome and shotgun reads.
//! let genome = GenomeSim::uniform(5_000, 7).generate();
//! let reads = ShotgunSim::error_free(100, 15.0, 8).sample(&genome);
//!
//! // Assemble with laptop-sized budgets.
//! let dir = std::env::temp_dir().join("lasagna-doc-quickstart");
//! std::fs::create_dir_all(&dir).unwrap();
//! let config = AssemblyConfig::for_dataset(63, 100);
//! let pipeline = Pipeline::laptop(config, &dir).unwrap();
//! let out = pipeline.assemble(&reads).unwrap();
//!
//! assert!(out.report.contig_stats.n50 > 100);
//! ```

pub use dbg;
pub use dnet;
pub use faultsim;
pub use fingerprint;
pub use genome;
pub use gstream;
pub use lasagna;
pub use obs;
pub use qnet;
pub use qrouter;
pub use qserve;
pub use schedcheck;
pub use sga;
pub use stdx;
pub use vgpu;

/// The most common types, one `use` away.
pub mod prelude {
    pub use dbg::DbgAssembler;
    pub use dnet::{Cluster, ClusterConfig, NetModel};
    pub use genome::{DatasetPreset, GenomeSim, PackedSeq, ReadSet, ShotgunSim};
    pub use gstream::{DiskModel, ExternalSorter, HostMem, IoStats, SortConfig, SpillDir};
    pub use lasagna::{AssemblyConfig, AssemblyReport, Pipeline, StringGraph};
    pub use qnet::{QueryClient, Server as QueryServer};
    pub use qrouter::{ClusterManifest, Router, RouterConfig};
    pub use qserve::{QueryEngine, QueryService};
    pub use sga::SgaBaseline;
    pub use vgpu::{Device, GpuProfile};
}
