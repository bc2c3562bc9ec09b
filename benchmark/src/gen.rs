//! Input generation. Everything the program under test receives is built
//! here from `--seed`: genomes, reads, contigs and query batches. The
//! simulators in `crates/genome` are part of the program, so they are not
//! used (their fixed presets would also hide a seed change).

use genome::{PackedSeq, ReadSet};

/// splitmix64: the harness's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// `stream` separates independent uses of one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next() as u128 * n as u128) >> 64) as usize
    }
}

pub fn random_codes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| (rng.next() >> 62) as u8).collect()
}

pub fn random_seq(rng: &mut Rng, len: usize) -> PackedSeq {
    PackedSeq::from_codes(&random_codes(rng, len))
}

/// Error-free shotgun reads at uniform positions, half from each strand.
pub fn shotgun(rng: &mut Rng, genome: &PackedSeq, read_len: usize, n_reads: usize) -> ReadSet {
    let mut reads = ReadSet::new(read_len);
    for _ in 0..n_reads {
        let start = rng.below(genome.len() - read_len + 1);
        let mut read = genome.slice(start, read_len);
        if rng.next() & 1 == 1 {
            read = read.reverse_complement();
        }
        reads
            .push(&read)
            .expect("the slice has the set's read length");
    }
    reads
}

/// Where a query read was cut from, and how it was altered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Cut from `contig` at `offset` on the given strand with this many
    /// substitutions; at most two must map back, four must not map.
    Planted {
        contig: u32,
        offset: u32,
        reverse: bool,
        substitutions: u32,
    },
    /// Random bases unrelated to the store; must not map.
    Foreign,
}

pub const QUERY_READ_LEN: usize = 100;

/// The serving query mix: 60 % exact, 15 % one substitution, 10 % two, 5 %
/// four (beyond `max_mismatches`), 10 % foreign; half on the reverse strand.
pub fn query_pool(
    rng: &mut Rng,
    contigs: &[PackedSeq],
    n_reads: usize,
) -> Vec<(PackedSeq, Origin)> {
    (0..n_reads)
        .map(|_| {
            let substitutions = match rng.below(100) {
                0..=59 => 0,
                60..=74 => 1,
                75..=84 => 2,
                85..=89 => 4,
                _ => return (random_seq(rng, QUERY_READ_LEN), Origin::Foreign),
            };
            let contig = rng.below(contigs.len());
            let source = &contigs[contig];
            let offset = rng.below(source.len() - QUERY_READ_LEN + 1);
            let mut codes = source.slice(offset, QUERY_READ_LEN).to_codes();
            // Distinct positions, so the substitutions cannot cancel.
            let mut hit: Vec<usize> = Vec::new();
            while hit.len() < substitutions {
                let pos = rng.below(QUERY_READ_LEN);
                if !hit.contains(&pos) {
                    hit.push(pos);
                    codes[pos] = (codes[pos] + 1 + rng.below(3) as u8) & 3;
                }
            }
            let mut read = PackedSeq::from_codes(&codes);
            let reverse = rng.next() & 1 == 1;
            if reverse {
                read = read.reverse_complement();
            }
            let origin = Origin::Planted {
                contig: contig as u32,
                offset: offset as u32,
                reverse,
                substitutions: substitutions as u32,
            };
            (read, origin)
        })
        .collect()
}
