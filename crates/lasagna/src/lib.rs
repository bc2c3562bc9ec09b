//! # lasagna — the paper's assembly pipeline
//!
//! This crate is the primary contribution of *GPU-Accelerated Large-Scale
//! Genome Assembly* (Goswami et al., IPDPS 2018): a string-graph assembler
//! that handles datasets far larger than device memory through a two-level
//! semi-streaming model. The pipeline (paper Fig. 4):
//!
//! 1. [`map`] — batch reads onto the device, fingerprint every prefix and
//!    suffix of each read and its reverse complement, partition the
//!    `(fingerprint, vertex)` tuples by overlap length into spill files;
//! 2. [`sortphase`] — externally sort every partition by fingerprint with
//!    the hybrid host/device scheme (`gstream::extsort`);
//! 3. [`reduce`] — stream co-sorted suffix/prefix partitions in descending
//!    length order, find fingerprint matches with vectorized bounds on the
//!    device, and greedily add edges to the host-resident [`StringGraph`];
//! 4. [`traverse`] + [`contig`] — extract unambiguous paths and spell
//!    contigs with prefix-scan/gather layout on the device.
//!
//! [`pipeline::Pipeline`] wires the phases together and produces an
//! [`report::AssemblyReport`] with per-phase wall time, modeled device/disk
//! time, and peak memory — the quantities behind the paper's Tables II-V.
//!
//! ```no_run
//! use genome::{GenomeSim, ShotgunSim};
//! use lasagna::{AssemblyConfig, Pipeline};
//!
//! let genome = GenomeSim::uniform(50_000, 1).generate();
//! let reads = ShotgunSim::error_free(100, 20.0, 2).sample(&genome);
//! let config = AssemblyConfig::for_dataset(63, 100);
//! let pipeline = Pipeline::laptop(config, "/tmp/lasagna-work").unwrap();
//! let out = pipeline.assemble(&reads).unwrap();
//! println!("{} contigs, N50 {}", out.contigs.len(), out.report.contig_stats.n50);
//! ```

#[cfg(test)]
mod bsp;
pub mod config;
pub mod contig;
pub mod delta;
pub mod fullgraph;
pub mod graph;
pub mod manifest;
pub mod map;
pub mod pipeline;
pub mod reduce;
pub mod report;
pub mod sortphase;
pub mod traverse;
pub mod verify;

pub use config::AssemblyConfig;
pub use contig::ContigStats;
pub use delta::ReadsMeta;
pub use fullgraph::MultiGraph;
pub use graph::{Edge, StringGraph};
pub use manifest::Manifest;
pub use pipeline::{AssemblyOutput, Pipeline};
pub use report::{AssemblyReport, PhaseMetrics};
pub use traverse::{Path, PathStep};

/// Errors from the assembly pipeline.
#[derive(Debug)]
pub enum LasagnaError {
    /// Streaming / disk failure.
    Stream(gstream::StreamError),
    /// Virtual-device failure.
    Device(vgpu::DeviceError),
    /// Input sequence problem.
    Genome(genome::GenomeError),
    /// Invalid configuration.
    BadConfig(String),
}

impl std::fmt::Display for LasagnaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LasagnaError::Stream(e) => write!(f, "stream: {e}"),
            LasagnaError::Device(e) => write!(f, "device: {e}"),
            LasagnaError::Genome(e) => write!(f, "genome: {e}"),
            LasagnaError::BadConfig(m) => write!(f, "bad config: {m}"),
        }
    }
}

impl std::error::Error for LasagnaError {}

impl From<gstream::StreamError> for LasagnaError {
    fn from(e: gstream::StreamError) -> Self {
        LasagnaError::Stream(e)
    }
}

impl From<vgpu::DeviceError> for LasagnaError {
    fn from(e: vgpu::DeviceError) -> Self {
        LasagnaError::Device(e)
    }
}

impl From<genome::GenomeError> for LasagnaError {
    fn from(e: genome::GenomeError) -> Self {
        LasagnaError::Genome(e)
    }
}

impl From<gstream::HostMemError> for LasagnaError {
    fn from(e: gstream::HostMemError) -> Self {
        LasagnaError::Stream(gstream::StreamError::HostMem(e))
    }
}

/// Convenience alias for fallible pipeline operations.
pub type Result<T> = std::result::Result<T, LasagnaError>;
