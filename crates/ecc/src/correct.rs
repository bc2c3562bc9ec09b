//! The correction pass.

use crate::spectrum::KmerSpectrum;
use dbg::kmer::Kmer;
use genome::{PackedSeq, ReadSet};

/// Outcome counters of one correction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorrectionStats {
    /// Reads examined.
    pub reads: u64,
    /// Reads that needed no repair (every window solid).
    pub already_clean: u64,
    /// Reads repaired to fully solid.
    pub corrected: u64,
    /// Reads left with weak windows (uncorrectable under the budget).
    pub uncorrectable: u64,
    /// Total base substitutions applied.
    pub substitutions: u64,
}

/// Spectral error corrector.
#[derive(Debug, Clone, Copy)]
pub struct ErrorCorrector {
    /// Odd k ≤ 31 (also the training k).
    pub k: usize,
    /// Solid-coverage threshold.
    pub min_count: u32,
    /// Maximum substitutions attempted per read before giving up.
    pub max_fixes_per_read: u32,
}

impl ErrorCorrector {
    /// Sensible defaults: k = 21, threshold from the spectrum's histogram.
    pub fn with_spectrum_threshold(spectrum: &KmerSpectrum) -> Self {
        ErrorCorrector {
            k: spectrum.k(),
            min_count: spectrum.suggest_threshold(),
            max_fixes_per_read: 4,
        }
    }

    /// Train a spectrum on `reads` (convenience wrapper).
    pub fn train(&self, reads: &ReadSet) -> KmerSpectrum {
        KmerSpectrum::build(reads, self.k)
    }

    /// Correct one read's codes in place. Returns the number of
    /// substitutions, or `None` if the read could not be made fully solid.
    fn correct_codes(&self, spectrum: &KmerSpectrum, codes: &mut [u8]) -> Option<u32> {
        let k = self.k;
        if codes.len() < k {
            return Some(0);
        }
        let mut fixes = 0u32;
        let mut window = Kmer::from_codes(&codes[..k]);
        // Validate the first window by trying each of its positions if
        // weak (errors in the first k bases).
        if !spectrum.is_solid(window, self.min_count) {
            let mut repaired = false;
            'positions: for pos in (0..k).rev() {
                let original = codes[pos];
                for sub in 1..4u8 {
                    codes[pos] = original ^ sub;
                    let candidate = Kmer::from_codes(&codes[..k]);
                    if spectrum.is_solid(candidate, self.min_count) {
                        window = candidate;
                        fixes += 1;
                        repaired = true;
                        break 'positions;
                    }
                }
                codes[pos] = original;
            }
            if !repaired {
                return None;
            }
        }
        // Roll rightward; a weak window after a solid one pins the error
        // to the newly entered base.
        #[allow(clippy::needless_range_loop)] // i both reads and writes codes[i]
        for i in k..codes.len() {
            if fixes > self.max_fixes_per_read {
                return None;
            }
            let mut next = window.extend_right(codes[i]);
            if !spectrum.is_solid(next, self.min_count) {
                let original = codes[i];
                let mut best: Option<(u8, u32)> = None;
                for sub in 1..4u8 {
                    let cand_base = original ^ sub;
                    let cand = window.extend_right(cand_base);
                    let c = spectrum.count(cand);
                    if c >= self.min_count && best.is_none_or(|(_, bc)| c > bc) {
                        best = Some((cand_base, c));
                    }
                }
                match best {
                    Some((base, _)) => {
                        codes[i] = base;
                        next = window.extend_right(base);
                        fixes += 1;
                    }
                    None => return None,
                }
            }
            window = next;
        }
        Some(fixes)
    }

    /// Correct a read set against `spectrum`. Unrepairable reads are kept
    /// unchanged (downstream overlap detection simply won't extend them).
    pub fn correct(&self, spectrum: &KmerSpectrum, reads: &ReadSet) -> (ReadSet, CorrectionStats) {
        let mut stats = CorrectionStats::default();
        let mut out = ReadSet::new(reads.read_len());
        let mut codes = Vec::new();
        for i in 0..reads.len() {
            stats.reads += 1;
            reads.read_codes_into(i, &mut codes);
            let mut work = codes.clone();
            match self.correct_codes(spectrum, &mut work) {
                Some(0) => {
                    stats.already_clean += 1;
                    out.push(&PackedSeq::from_codes(&codes))
                        .expect("same length");
                }
                Some(n) => {
                    stats.corrected += 1;
                    stats.substitutions += n as u64;
                    out.push(&PackedSeq::from_codes(&work))
                        .expect("same length");
                }
                None => {
                    stats.uncorrectable += 1;
                    out.push(&PackedSeq::from_codes(&codes))
                        .expect("same length");
                }
            }
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::sim::is_substring_either_strand;
    use genome::{GenomeSim, ShotgunSim};

    fn noisy_dataset(seed: u64, error_rate: f64) -> (PackedSeq, ReadSet) {
        let genome = GenomeSim::uniform(2_000, seed).generate();
        let reads = ShotgunSim {
            read_len: 80,
            coverage: 30.0,
            strand_flip_prob: 0.5,
            error_rate,
            seed: seed + 1,
        }
        .sample(&genome);
        (genome, reads)
    }

    fn exact_fraction(genome: &PackedSeq, reads: &ReadSet) -> f64 {
        let exact = reads
            .iter()
            .filter(|r| is_substring_either_strand(r, genome))
            .count();
        exact as f64 / reads.len() as f64
    }

    #[test]
    fn correction_restores_most_noisy_reads() {
        let (genome, noisy) = noisy_dataset(51, 0.01);
        let before = exact_fraction(&genome, &noisy);
        let corrector = ErrorCorrector {
            k: 21,
            min_count: 4,
            max_fixes_per_read: 4,
        };
        let spectrum = corrector.train(&noisy);
        let (fixed, stats) = corrector.correct(&spectrum, &noisy);
        let after = exact_fraction(&genome, &fixed);
        assert!(
            after > before + 0.2,
            "exact reads {before:.2} -> {after:.2} ({stats:?})"
        );
        assert!(after > 0.9, "post-correction exactness {after:.2}");
        assert_eq!(
            stats.reads,
            stats.already_clean + stats.corrected + stats.uncorrectable
        );
    }

    #[test]
    fn clean_reads_pass_through_untouched() {
        let (genome, clean) = noisy_dataset(61, 0.0);
        let corrector = ErrorCorrector {
            k: 21,
            min_count: 3,
            max_fixes_per_read: 4,
        };
        let spectrum = corrector.train(&clean);
        let (fixed, stats) = corrector.correct(&spectrum, &clean);
        assert_eq!(stats.substitutions, 0);
        assert_eq!(stats.corrected, 0);
        for i in 0..clean.len() {
            assert_eq!(clean.read(i), fixed.read(i));
        }
        assert_eq!(exact_fraction(&genome, &fixed), 1.0);
    }

    #[test]
    fn correction_boosts_assembly_connectivity() {
        let (_genome, noisy) = noisy_dataset(71, 0.015);
        let corrector = ErrorCorrector {
            k: 21,
            min_count: 4,
            max_fixes_per_read: 4,
        };
        let spectrum = corrector.train(&noisy);
        let (fixed, _) = corrector.correct(&spectrum, &noisy);

        let assemble = |reads: &ReadSet| -> u64 {
            let dir = stdx::tempdir().unwrap();
            let config = lasagna::AssemblyConfig::for_dataset(50, 80);
            lasagna::Pipeline::laptop(config, dir.path())
                .unwrap()
                .assemble(reads)
                .unwrap()
                .report
                .graph_edges
        };
        let noisy_edges = assemble(&noisy);
        let fixed_edges = assemble(&fixed);
        assert!(
            fixed_edges as f64 > noisy_edges as f64 * 1.3,
            "correction must recover overlaps: {noisy_edges} -> {fixed_edges}"
        );
    }

    #[test]
    fn short_reads_are_trivially_clean() {
        let mut reads = ReadSet::new(10);
        reads.push(&"ACGTACGTAA".parse().unwrap()).unwrap();
        let corrector = ErrorCorrector {
            k: 21,
            min_count: 2,
            max_fixes_per_read: 4,
        };
        let spectrum = corrector.train(&reads);
        let (out, stats) = corrector.correct(&spectrum, &reads);
        assert_eq!(stats.already_clean, 1);
        assert_eq!(out.read(0), reads.read(0));
    }

    #[test]
    fn burst_errors_are_reported_uncorrectable() {
        let (_genome, noisy) = noisy_dataset(81, 0.12); // 12% errors: hopeless
        let corrector = ErrorCorrector {
            k: 21,
            min_count: 4,
            max_fixes_per_read: 2,
        };
        let spectrum = corrector.train(&noisy);
        let (_, stats) = corrector.correct(&spectrum, &noisy);
        assert!(
            stats.uncorrectable > stats.reads / 2,
            "most reads must be beyond repair: {stats:?}"
        );
    }
}
