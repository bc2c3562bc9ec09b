//! # genome — sequence substrate
//!
//! Everything LaSAGNA consumes upstream of the assembly pipeline:
//!
//! * [`base`] — the DNA alphabet with 2-bit codes and Watson-Crick
//!   complements;
//! * [`seq`] — [`PackedSeq`], a 2-bit-packed DNA string (the encoding the
//!   paper's map kernel produces when it "encodes the corresponding base in
//!   the read to the radix");
//! * [`readset`] — [`ReadSet`], a uniform-length short-read container with
//!   the paper's vertex-id convention (`2·read + strand`, complement =
//!   `id ^ 1`);
//! * [`fastq`] — FASTA/FASTQ parsing and writing;
//! * [`sim`] — synthetic genome generation and shotgun sequencing, the
//!   substitute for the paper's Illumina datasets (see DESIGN.md);
//! * [`presets`] — the four Table-I datasets with their paper-reported
//!   sizes, scalable to laptop scale while preserving coverage and read
//!   lengths.

pub mod base;
pub mod fastq;
pub mod presets;
pub mod readset;
pub mod seq;
pub mod sim;

pub use base::Base;
pub use presets::{DatasetPreset, ScaledDataset};
pub use readset::ReadSet;
pub use seq::PackedSeq;
pub use sim::{GenomeSim, ShotgunSim};

/// Errors from sequence parsing and I/O.
#[derive(Debug)]
pub enum GenomeError {
    /// Underlying file-system error.
    Io(std::io::Error),
    /// Malformed FASTA/FASTQ or an invalid nucleotide character.
    Parse(String),
    /// A packed staging image that does not decode.
    Corrupt(stdx::bytes::Corrupt),
    /// Reads of unequal length fed to a uniform-length container.
    LengthMismatch {
        /// Length the container expects.
        expected: usize,
        /// Length encountered.
        got: usize,
    },
}

impl std::fmt::Display for GenomeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenomeError::Io(e) => write!(f, "I/O error: {e}"),
            GenomeError::Parse(m) => write!(f, "parse error: {m}"),
            GenomeError::Corrupt(e) => write!(f, "corrupt: {e}"),
            GenomeError::LengthMismatch { expected, got } => {
                write!(f, "read length {got} differs from expected {expected}")
            }
        }
    }
}

impl std::error::Error for GenomeError {}

impl From<std::io::Error> for GenomeError {
    fn from(e: std::io::Error) -> Self {
        GenomeError::Io(e)
    }
}

impl From<stdx::bytes::Corrupt> for GenomeError {
    fn from(e: stdx::bytes::Corrupt) -> Self {
        GenomeError::Corrupt(e)
    }
}

/// Convenience alias for fallible genome operations.
pub type Result<T> = std::result::Result<T, GenomeError>;
