//! The three-phase SGA baseline runner with memory billing.

use crate::fm::FmIndex;
use crate::overlap::{build_text, find_overlaps, OverlapStats};
use genome::ReadSet;
use gstream::{HostMem, IoStats};
use lasagna::StringGraph;
use std::time::Instant;

/// SGA's ropebwt-compressed index costs roughly this many bytes per indexed
/// character — the rate we bill against the host budget. Calibrated against
/// Table VI: at paper scale Parakeet (2 × 91.3 G chars → 54.8 GB) ran on
/// 64 GB, while H.Genome (2 × 124.75 G chars → 74.9 GB) OOM'd on 64 GB but
/// ran on 128 GB. Any rate in (0.257, 0.351) reproduces all three cells.
pub const COMPRESSED_BYTES_PER_CHAR: f64 = 0.3;

/// SGA failure modes.
#[derive(Debug)]
pub enum SgaError {
    /// The billed index does not fit the host budget (Table VI's "OOM").
    OutOfMemory {
        /// Bytes the index would need.
        needed: u64,
        /// Budget available.
        budget: u64,
    },
    /// Input problem.
    BadInput(String),
}

impl std::fmt::Display for SgaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgaError::OutOfMemory { needed, budget } => {
                write!(f, "SGA index needs {needed} B, budget {budget} B (OOM)")
            }
            SgaError::BadInput(m) => write!(f, "bad input: {m}"),
        }
    }
}

impl std::error::Error for SgaError {}

/// Per-phase timings and outcome of one SGA run.
#[derive(Debug, Clone, Default)]
pub struct SgaReport {
    /// Wall seconds of the preprocess phase.
    pub preprocess_seconds: f64,
    /// Wall seconds of the index phase.
    pub index_seconds: f64,
    /// Wall seconds of the overlap phase.
    pub overlap_seconds: f64,
    /// Modeled disk seconds (dataset streamed once per phase that reads it).
    pub disk_seconds: f64,
    /// Billed index memory in bytes.
    pub billed_index_bytes: u64,
    /// Plain in-memory footprint of our arrays (informational).
    pub plain_index_bytes: u64,
    /// Candidate overlaps offered.
    pub candidates: u64,
    /// Edges accepted.
    pub accepted: u64,
}

impl SgaReport {
    /// Total wall seconds over the three compared phases.
    pub fn total_seconds(&self) -> f64 {
        self.preprocess_seconds + self.index_seconds + self.overlap_seconds
    }
}

/// The configured baseline.
pub struct SgaBaseline {
    /// Host-memory budget the index is billed against.
    pub host: HostMem,
    /// Disk model for the modeled I/O seconds.
    pub io: IoStats,
    /// Minimum overlap length.
    pub l_min: u32,
}

impl SgaBaseline {
    /// Run preprocess + index + overlap on `reads`.
    pub fn run(&self, reads: &ReadSet) -> Result<(StringGraph, SgaReport), SgaError> {
        if reads.read_len() as u32 <= self.l_min {
            return Err(SgaError::BadInput(format!(
                "l_min {} must be below the read length {}",
                self.l_min,
                reads.read_len()
            )));
        }
        let mut report = SgaReport::default();

        // Preprocess: stage reads + reverse complements as index input and
        // stream the dataset once (2-bit packed on disk).
        let t0 = Instant::now();
        let (text, starts) = build_text(reads);
        report.preprocess_seconds = t0.elapsed().as_secs_f64();
        self.io.add_read(reads.total_bases() / 4);

        // Index: bill the ropebwt-scale footprint against the budget, then
        // build the plain-array FM-index.
        let billed = (text.len() as f64 * COMPRESSED_BYTES_PER_CHAR).ceil() as u64;
        let _index_guard = self
            .host
            .reserve(billed)
            .map_err(|e| SgaError::OutOfMemory {
                needed: billed,
                budget: e.capacity,
            })?;
        report.billed_index_bytes = billed;
        let t0 = Instant::now();
        let fm = FmIndex::build(&text, &starts);
        report.index_seconds = t0.elapsed().as_secs_f64();
        report.plain_index_bytes = fm.plain_bytes();
        // The index construction streams the staged reads once more.
        self.io.add_read(reads.total_bases() / 4);

        // Overlap: incremental backward searches + greedy graph.
        let t0 = Instant::now();
        let mut graph = StringGraph::new(reads.vertex_count());
        let OverlapStats {
            candidates,
            accepted,
        } = find_overlaps(&fm, reads, self.l_min, &mut graph);
        report.overlap_seconds = t0.elapsed().as_secs_f64();
        report.candidates = candidates;
        report.accepted = accepted;
        self.io.add_read(reads.total_bases() / 4);

        report.disk_seconds = self.io.snapshot().read_seconds;
        Ok((graph, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::{GenomeSim, ShotgunSim};

    fn baseline(budget: u64, l_min: u32) -> SgaBaseline {
        SgaBaseline {
            host: HostMem::new(budget),
            io: IoStats::default(),
            l_min,
        }
    }

    fn sample_reads(genome_len: usize, read_len: usize, coverage: f64, seed: u64) -> ReadSet {
        let genome = GenomeSim::uniform(genome_len, seed).generate();
        ShotgunSim::error_free(read_len, coverage, seed + 1).sample(&genome)
    }

    #[test]
    fn full_run_builds_a_graph_with_edges() {
        let reads = sample_reads(1000, 40, 10.0, 3);
        let (graph, report) = baseline(1 << 30, 25).run(&reads).unwrap();
        assert!(report.accepted > 0);
        assert!(graph.edge_count() > 0);
        assert!(report.total_seconds() > 0.0);
        assert!(report.billed_index_bytes > 0);
        graph.check_invariants().unwrap();
    }

    #[test]
    fn insufficient_budget_reports_oom() {
        let reads = sample_reads(2000, 40, 10.0, 4);
        // Billed ≈ 0.4 × 2 × 2000 × 10 ≈ 16 KB; a 1 KB budget must fail.
        let err = baseline(1024, 25).run(&reads).unwrap_err();
        match err {
            SgaError::OutOfMemory { needed, budget } => {
                assert!(needed > budget);
                assert_eq!(budget, 1024);
            }
            other => panic!("expected OOM, got {other}"),
        }
    }

    #[test]
    fn l_min_at_or_above_read_length_is_rejected() {
        let reads = sample_reads(500, 30, 5.0, 5);
        assert!(matches!(
            baseline(1 << 30, 30).run(&reads),
            Err(SgaError::BadInput(_))
        ));
    }

    #[test]
    fn paper_scale_billing_reproduces_table6_oom_pattern() {
        // At full paper scale: H.Genome indexes 2 × 124.75 G chars.
        let chars = 2.0 * 124_751_839_200.0;
        let billed = chars * COMPRESSED_BYTES_PER_CHAR;
        assert!(billed > 64e9, "must not fit in 64 GB");
        assert!(billed < 128e9, "must fit in 128 GB");
        // And Parakeet (2 × 91.3 G chars) fits both memory sizes.
        let parakeet = 2.0 * 91_306_488_300.0 * COMPRESSED_BYTES_PER_CHAR;
        assert!(parakeet < 64e9, "parakeet ran on 64 GB in Table VI");
    }
}
