//! The paper's Table I datasets, scalable to laptop size.
//!
//! Table I of the paper:
//!
//! | Dataset   | Length | Reads         | Bases           | Size   | l_min |
//! |-----------|--------|---------------|-----------------|--------|-------|
//! | H.Chr 14  | 101    | 45,711,162    | 4,559,613,772   | 9.2 GB | 63    |
//! | Bumblebee | 124    | 316,172,570   | 33,562,702,234  | 85 GB  | 85    |
//! | Parakeet  | 150    | 608,709,922   | 91,306,488,300  | 203 GB | 111   |
//! | H.Genome  | 100    | 1,247,518,392 | 124,751,839,200 | 398 GB | 63    |
//!
//! (Minimum overlap lengths from Section IV-A, "as suggested by the SGA
//! assembler".) A [`DatasetPreset`] carries those figures; `scaled(S)`
//! divides base counts by `S` while preserving read length and coverage, so
//! the algorithmic regime — dataset ≫ host memory ≫ device memory, tens of
//! partitions, multiple sort runs — survives the shrink.

use crate::sim::{GenomeSim, ShotgunSim};

/// One of the paper's evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetPreset {
    /// GAGE human chromosome 14 (9.2 GB).
    HChr14,
    /// GAGE bumblebee (85 GB).
    Bumblebee,
    /// ERP002324 parakeet (203 GB).
    Parakeet,
    /// SRA000271 whole human genome (398 GB).
    HGenome,
}

impl DatasetPreset {
    /// All four presets in Table I order.
    pub const ALL: [DatasetPreset; 4] = [
        DatasetPreset::HChr14,
        DatasetPreset::Bumblebee,
        DatasetPreset::Parakeet,
        DatasetPreset::HGenome,
    ];

    /// Table I dataset name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetPreset::HChr14 => "H.Chr 14",
            DatasetPreset::Bumblebee => "Bumblebee",
            DatasetPreset::Parakeet => "Parakeet",
            DatasetPreset::HGenome => "H.Genome",
        }
    }

    /// Read length in bases.
    pub fn read_len(self) -> usize {
        match self {
            DatasetPreset::HChr14 => 101,
            DatasetPreset::Bumblebee => 124,
            DatasetPreset::Parakeet => 150,
            DatasetPreset::HGenome => 100,
        }
    }

    /// Read count reported in Table I.
    pub fn paper_reads(self) -> u64 {
        match self {
            DatasetPreset::HChr14 => 45_711_162,
            DatasetPreset::Bumblebee => 316_172_570,
            DatasetPreset::Parakeet => 608_709_922,
            DatasetPreset::HGenome => 1_247_518_392,
        }
    }

    /// Base count reported in Table I. (For H.Chr 14 this is slightly less
    /// than `reads × length` because the GAGE data contains some shorter
    /// reads; the other sets are exactly uniform.)
    pub fn paper_bases(self) -> u64 {
        match self {
            DatasetPreset::HChr14 => 4_559_613_772,
            DatasetPreset::Bumblebee => 33_562_702_234,
            DatasetPreset::Parakeet => 91_306_488_300,
            DatasetPreset::HGenome => 124_751_839_200,
        }
    }

    /// Reference genome size in bases (used to derive coverage).
    pub fn genome_len(self) -> u64 {
        match self {
            DatasetPreset::HChr14 => 88_000_000,      // human chr14
            DatasetPreset::Bumblebee => 250_000_000,  // B. impatiens
            DatasetPreset::Parakeet => 1_200_000_000, // M. undulatus
            DatasetPreset::HGenome => 3_100_000_000,  // H. sapiens
        }
    }

    /// Mean coverage implied by Table I (bases / genome length).
    pub fn coverage(self) -> f64 {
        self.paper_bases() as f64 / self.genome_len() as f64
    }

    /// Minimum overlap length used in the paper (Section IV-A).
    pub fn l_min(self) -> u32 {
        match self {
            DatasetPreset::HChr14 => 63,
            DatasetPreset::Bumblebee => 85,
            DatasetPreset::Parakeet => 111,
            DatasetPreset::HGenome => 63,
        }
    }

    /// Shrink by `scale` (genome and read counts divided, coverage and read
    /// length preserved).
    pub fn scaled(self, scale: u64) -> ScaledDataset {
        let genome_len = (self.genome_len() / scale).max(10 * self.read_len() as u64) as usize;
        ScaledDataset {
            preset: self,
            scale,
            genome_len,
            read_len: self.read_len(),
            coverage: self.coverage(),
            l_min: self.l_min(),
        }
    }
}

/// A Table-I dataset shrunk by a scale factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledDataset {
    /// Which Table I row this is.
    pub preset: DatasetPreset,
    /// Shrink factor relative to the paper.
    pub scale: u64,
    /// Scaled genome length in bases.
    pub genome_len: usize,
    /// Read length (unchanged from the paper).
    pub read_len: usize,
    /// Coverage (unchanged from the paper).
    pub coverage: f64,
    /// Minimum overlap length (unchanged from the paper).
    pub l_min: u32,
}

impl ScaledDataset {
    /// Reads this dataset will contain.
    pub fn read_count(&self) -> usize {
        ShotgunSim::error_free(self.read_len, self.coverage, 0).read_count(self.genome_len)
    }

    /// Total bases across reads.
    pub fn total_bases(&self) -> u64 {
        self.read_count() as u64 * self.read_len as u64
    }

    /// Generate the genome and sample the reads (deterministic per preset).
    pub fn materialize(&self) -> (crate::PackedSeq, crate::ReadSet) {
        let seed = match self.preset {
            DatasetPreset::HChr14 => 0x14,
            DatasetPreset::Bumblebee => 0xBEE,
            DatasetPreset::Parakeet => 0x9A2A,
            DatasetPreset::HGenome => 0x6E0,
        };
        let genome = GenomeSim {
            len: self.genome_len,
            repeat_fraction: 0.02,
            repeat_len: self.read_len * 2,
            seed,
        }
        .generate();
        let reads =
            ShotgunSim::error_free(self.read_len, self.coverage, seed ^ 0xF00D).sample(&genome);
        (genome, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_figures_match_the_paper() {
        assert_eq!(DatasetPreset::HChr14.paper_reads(), 45_711_162);
        assert_eq!(DatasetPreset::HChr14.paper_bases(), 4_559_613_772);
        assert_eq!(DatasetPreset::HGenome.paper_bases(), 124_751_839_200);
        assert_eq!(DatasetPreset::Parakeet.read_len(), 150);
        assert_eq!(DatasetPreset::Bumblebee.l_min(), 85);
    }

    #[test]
    fn coverage_is_physically_plausible() {
        for p in DatasetPreset::ALL {
            let c = p.coverage();
            assert!(c > 10.0 && c < 200.0, "{}: coverage {c}", p.name());
        }
    }

    #[test]
    fn scaling_preserves_read_len_and_coverage() {
        let s = DatasetPreset::HGenome.scaled(20_000);
        assert_eq!(s.read_len, 100);
        assert!((s.coverage - DatasetPreset::HGenome.coverage()).abs() < 1e-9);
        assert_eq!(s.genome_len, 155_000);
    }

    #[test]
    fn scaled_dataset_sizes_keep_table1_ordering() {
        let sizes: Vec<u64> = DatasetPreset::ALL
            .iter()
            .map(|p| p.scaled(20_000).total_bases())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{sizes:?}");
    }

    #[test]
    fn materialize_is_deterministic_and_consistent() {
        let s = DatasetPreset::HChr14.scaled(400_000);
        let (g1, r1) = s.materialize();
        let (g2, r2) = s.materialize();
        assert_eq!(g1, g2);
        assert_eq!(r1, r2);
        assert_eq!(r1.read_len(), 101);
        assert_eq!(r1.len(), s.read_count());
    }

    #[test]
    fn extreme_scaling_clamps_to_usable_genome() {
        let s = DatasetPreset::HChr14.scaled(u64::MAX);
        assert!(s.genome_len >= 10 * s.read_len);
    }
}
