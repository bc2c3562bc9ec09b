//! Synthetic genomes and shotgun sequencing.
//!
//! Substitute for the paper's Illumina datasets (Table I): a random genome
//! with optional repeated regions (repeats are what make real assembly
//! hard — they create ambiguous branches in the string graph), sampled by a
//! uniform shotgun model with strand flips and an optional per-base error
//! rate. With the error rate at zero every read is an exact substring of
//! the genome or its reverse complement, which gives integration tests a
//! ground truth: every correctly assembled contig must align exactly.

use crate::base::Base;
use crate::readset::ReadSet;
use crate::seq::PackedSeq;
use stdx::SplitMix64;

/// Random-genome generator.
#[derive(Debug, Clone)]
pub struct GenomeSim {
    /// Genome length in bases.
    pub len: usize,
    /// Per-step probability of appending a copy of an earlier block
    /// instead of one random base (0.0 = no repeats). The resulting repeat
    /// *content* is roughly `p·repeat_len / (p·repeat_len + 1 − p)` — e.g.
    /// p = 0.001 with 250 bp blocks gives ~20% repetitive sequence.
    pub repeat_fraction: f64,
    /// Length of each repeated block.
    pub repeat_len: usize,
    /// RNG seed (fixed seed ⇒ reproducible datasets).
    pub seed: u64,
}

impl GenomeSim {
    /// A repeat-free genome of `len` bases.
    pub fn uniform(len: usize, seed: u64) -> Self {
        GenomeSim {
            len,
            repeat_fraction: 0.0,
            repeat_len: 500,
            seed,
        }
    }

    /// Generate the genome.
    pub fn generate(&self) -> PackedSeq {
        let mut rng = SplitMix64::new(self.seed);
        let mut seq = PackedSeq::with_capacity(self.len);
        while seq.len() < self.len {
            let remaining = self.len - seq.len();
            let do_repeat = self.repeat_fraction > 0.0
                && seq.len() > self.repeat_len
                && remaining >= self.repeat_len
                && rng.chance(self.repeat_fraction);
            if do_repeat {
                // Copy an earlier block verbatim: a tandem-style repeat.
                let start = rng.below((seq.len() - self.repeat_len) as u64) as usize;
                for i in 0..self.repeat_len {
                    seq.push(seq.get(start + i));
                }
            } else {
                seq.push(Base::from_code(rng.below(4) as u8));
            }
        }
        seq
    }
}

/// Uniform shotgun sequencing model.
#[derive(Debug, Clone)]
pub struct ShotgunSim {
    /// Read length (the paper's l_max: 100-150 for Illumina).
    pub read_len: usize,
    /// Mean coverage: expected number of reads covering each base.
    pub coverage: f64,
    /// Probability of sequencing a fragment from the reverse strand.
    pub strand_flip_prob: f64,
    /// Per-base substitution error probability (0.0 = error-free).
    pub error_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ShotgunSim {
    /// Error-free shotgun at the given coverage with 50% strand flips.
    pub fn error_free(read_len: usize, coverage: f64, seed: u64) -> Self {
        ShotgunSim {
            read_len,
            coverage,
            strand_flip_prob: 0.5,
            error_rate: 0.0,
            seed,
        }
    }

    /// Number of reads this model draws from a genome of `genome_len`.
    pub fn read_count(&self, genome_len: usize) -> usize {
        ((genome_len as f64 * self.coverage) / self.read_len as f64).round() as usize
    }

    /// Sample a read set from `genome`.
    ///
    /// # Panics
    /// Panics if the genome is shorter than the read length.
    pub fn sample(&self, genome: &PackedSeq) -> ReadSet {
        assert!(
            genome.len() >= self.read_len,
            "genome of {} bases shorter than read length {}",
            genome.len(),
            self.read_len
        );
        let mut rng = SplitMix64::new(self.seed);
        let n = self.read_count(genome.len());
        let mut set = ReadSet::new(self.read_len);
        for _ in 0..n {
            let start = rng.below((genome.len() - self.read_len + 1) as u64) as usize;
            let mut read = genome.slice(start, self.read_len);
            if self.strand_flip_prob > 0.0 && rng.chance(self.strand_flip_prob) {
                read = read.reverse_complement();
            }
            if self.error_rate > 0.0 {
                read = inject_errors(&read, self.error_rate, &mut rng);
            }
            set.push(&read)
                .expect("sampled read has the configured length");
        }
        set
    }
}

fn inject_errors(read: &PackedSeq, rate: f64, rng: &mut SplitMix64) -> PackedSeq {
    read.iter()
        .map(|b| {
            if rng.chance(rate) {
                // Substitute with one of the three *other* bases.
                let shift = 1 + rng.below(3) as u8;
                Base::from_code((b.code() + shift) % 4)
            } else {
                b
            }
        })
        .collect()
}

/// `true` if `needle` occurs in `haystack` on either strand — the contig
/// ground-truth check used by tests and examples.
pub fn is_substring_either_strand(needle: &PackedSeq, haystack: &PackedSeq) -> bool {
    let h = haystack.to_codes();
    let n = needle.to_codes();
    let rc = needle.reverse_complement().to_codes();
    contains(&h, &n) || contains(&h, &rc)
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > haystack.len() {
        return false;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genome_has_requested_length_and_is_deterministic() {
        let sim = GenomeSim::uniform(1000, 7);
        let a = sim.generate();
        let b = sim.generate();
        assert_eq!(a.len(), 1000);
        assert_eq!(a, b);
        assert_ne!(a, GenomeSim::uniform(1000, 8).generate());
    }

    #[test]
    fn repeats_duplicate_earlier_blocks() {
        let sim = GenomeSim {
            len: 5000,
            repeat_fraction: 0.5,
            repeat_len: 200,
            seed: 3,
        };
        let g = sim.generate();
        assert_eq!(g.len(), 5000);
        // With 50% repeat pressure some 50-mer must occur twice; in a
        // purely random sequence a duplicate 50-mer has probability ~4^-50.
        let codes = g.to_codes();
        let mut seen = std::collections::HashSet::new();
        let found_dup = codes.windows(50).any(|w| !seen.insert(w.to_vec()));
        assert!(found_dup, "expected at least one repeated 50-mer");
    }

    #[test]
    fn shotgun_produces_expected_read_count_and_lengths() {
        let genome = GenomeSim::uniform(2000, 1).generate();
        let sim = ShotgunSim::error_free(100, 10.0, 2);
        assert_eq!(sim.read_count(2000), 200);
        let reads = sim.sample(&genome);
        assert_eq!(reads.len(), 200);
        assert_eq!(reads.read_len(), 100);
    }

    #[test]
    fn error_free_reads_are_genome_substrings() {
        let genome = GenomeSim::uniform(500, 11).generate();
        let reads = ShotgunSim::error_free(60, 5.0, 12).sample(&genome);
        for read in reads.iter() {
            assert!(is_substring_either_strand(&read, &genome));
        }
    }

    #[test]
    fn strand_flips_actually_happen() {
        let genome = GenomeSim::uniform(300, 21).generate();
        let flipped = ShotgunSim {
            read_len: 50,
            coverage: 20.0,
            strand_flip_prob: 1.0,
            error_rate: 0.0,
            seed: 5,
        }
        .sample(&genome);
        // Every read reverse-complemented must be a forward substring.
        let g = genome.to_codes();
        for read in flipped.iter() {
            let rc = read.reverse_complement().to_codes();
            assert!(contains(&g, &rc));
        }
    }

    #[test]
    fn error_injection_perturbs_reads() {
        let genome = GenomeSim::uniform(400, 31).generate();
        let noisy = ShotgunSim {
            read_len: 80,
            coverage: 5.0,
            strand_flip_prob: 0.0,
            error_rate: 0.2,
            seed: 6,
        }
        .sample(&genome);
        let clean = ShotgunSim {
            error_rate: 0.0,
            ..ShotgunSim {
                read_len: 80,
                coverage: 5.0,
                strand_flip_prob: 0.0,
                error_rate: 0.0,
                seed: 6,
            }
        }
        .sample(&genome);
        assert_eq!(noisy.len(), clean.len());
        let mut mismatched_reads = 0;
        for i in 0..noisy.len() {
            if noisy.read(i) != clean.read(i) {
                mismatched_reads += 1;
            }
        }
        assert!(
            mismatched_reads > 0,
            "20% error rate must perturb something"
        );
    }

    #[test]
    #[should_panic(expected = "shorter than read length")]
    fn genome_shorter_than_read_panics() {
        let genome = GenomeSim::uniform(10, 1).generate();
        ShotgunSim::error_free(20, 1.0, 0).sample(&genome);
    }

    #[test]
    fn substring_check_handles_edges() {
        let g: PackedSeq = "ACGTACGT".parse().unwrap();
        let empty = PackedSeq::new();
        assert!(is_substring_either_strand(&empty, &g));
        let longer: PackedSeq = "ACGTACGTA".parse().unwrap();
        assert!(!is_substring_either_strand(&longer, &g));
        // Reverse-strand hit: revcomp of ACGT is ACGT (palindrome) — use a
        // non-palindromic probe.
        let probe: PackedSeq = "GTAC".parse().unwrap();
        assert!(is_substring_either_strand(&probe, &g));
    }
}
