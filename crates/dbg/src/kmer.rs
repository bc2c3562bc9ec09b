//! 2-bit packed k-mers with strand canonicalization.

use genome::PackedSeq;

/// A k-mer packed 2 bits per base into a `u64` (k ≤ 31; the top bits stay
/// clear so arithmetic can't overflow into sign conventions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kmer {
    bits: u64,
    k: u8,
}

impl Kmer {
    /// Largest supported k.
    pub const MAX_K: usize = 31;

    /// Build from base codes.
    ///
    /// # Panics
    /// Panics if `codes.len()` is 0 or exceeds [`Kmer::MAX_K`], or if any
    /// code is > 3.
    pub fn from_codes(codes: &[u8]) -> Kmer {
        assert!(
            (1..=Self::MAX_K).contains(&codes.len()),
            "k = {} out of range",
            codes.len()
        );
        let mut bits = 0u64;
        for &c in codes {
            assert!(c < 4, "invalid base code {c}");
            bits = (bits << 2) | c as u64;
        }
        Kmer {
            bits,
            k: codes.len() as u8,
        }
    }

    /// k of this k-mer.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// The raw packed representation (high bits zero).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Base code at position `i` (0 = leftmost).
    pub fn base(&self, i: usize) -> u8 {
        debug_assert!(i < self.k());
        ((self.bits >> (2 * (self.k() - 1 - i))) & 3) as u8
    }

    /// Reverse complement.
    pub fn reverse_complement(&self) -> Kmer {
        let mut bits = 0u64;
        for i in 0..self.k() {
            bits = (bits << 2) | (self.base(self.k() - 1 - i) ^ 3) as u64;
        }
        Kmer { bits, k: self.k }
    }

    /// The strand-canonical form: the smaller of this k-mer and its
    /// reverse complement (so both strands of a locus map to one node).
    pub fn canonical(&self) -> Kmer {
        let rc = self.reverse_complement();
        if self.bits <= rc.bits {
            *self
        } else {
            rc
        }
    }

    /// `true` if this k-mer is its own canonical form.
    pub fn is_canonical(&self) -> bool {
        self.bits <= self.reverse_complement().bits
    }

    /// Shift one base in from the right (rolling window).
    pub fn extend_right(&self, code: u8) -> Kmer {
        debug_assert!(code < 4);
        let mask = (1u64 << (2 * self.k())) - 1;
        Kmer {
            bits: ((self.bits << 2) | code as u64) & mask,
            k: self.k,
        }
    }

    /// The base codes, most significant first.
    pub fn to_codes(&self) -> Vec<u8> {
        (0..self.k()).map(|i| self.base(i)).collect()
    }
}

/// Iterate the canonical k-mers of a sequence (one per window).
pub fn canonical_kmers(seq: &PackedSeq, k: usize) -> Vec<Kmer> {
    let codes = seq.to_codes();
    if codes.len() < k {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(codes.len() - k + 1);
    let mut window = Kmer::from_codes(&codes[..k]);
    out.push(window.canonical());
    for &c in &codes[k..] {
        window = window.extend_right(c);
        out.push(window.canonical());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdx::check_cases;

    #[test]
    fn pack_and_read_back() {
        let k = Kmer::from_codes(&[0, 1, 2, 3, 0]);
        assert_eq!(k.k(), 5);
        assert_eq!(k.to_codes(), vec![0, 1, 2, 3, 0]);
        assert_eq!(k.base(0), 0);
        assert_eq!(k.base(3), 3);
    }

    #[test]
    fn revcomp_matches_sequence_semantics() {
        // ACGT -> ACGT (palindrome); ACG -> CGT.
        let acg = Kmer::from_codes(&[0, 1, 2]);
        assert_eq!(acg.reverse_complement().to_codes(), vec![1, 2, 3]);
        let acgt = Kmer::from_codes(&[0, 1, 2, 3]);
        assert_eq!(acgt.reverse_complement(), acgt);
    }

    #[test]
    fn canonical_is_strand_invariant() {
        let k = Kmer::from_codes(&[3, 3, 0, 1]);
        assert_eq!(k.canonical(), k.reverse_complement().canonical());
        assert!(k.canonical().is_canonical());
    }

    #[test]
    fn extend_right_rolls_the_window() {
        let k = Kmer::from_codes(&[0, 1, 2]);
        assert_eq!(k.extend_right(3).to_codes(), vec![1, 2, 3]);
    }

    #[test]
    fn sequence_kmer_walk_matches_window_extraction() {
        let seq: PackedSeq = "ACGTACG".parse().unwrap();
        let ks = canonical_kmers(&seq, 4);
        assert_eq!(ks.len(), 4);
        let codes = seq.to_codes();
        for (i, k) in ks.iter().enumerate() {
            assert_eq!(*k, Kmer::from_codes(&codes[i..i + 4]).canonical());
        }
    }

    #[test]
    fn too_short_sequences_yield_nothing() {
        let seq: PackedSeq = "ACG".parse().unwrap();
        assert!(canonical_kmers(&seq, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_k_panics() {
        Kmer::from_codes(&[0; 32]);
    }

    #[test]
    fn revcomp_is_involution() {
        check_cases(256, |rng| {
            let k = Kmer::from_codes(&rng.vec(1..32, |r| r.below(4) as u8));
            assert_eq!(k.reverse_complement().reverse_complement(), k);
        });
    }

    #[test]
    fn both_strands_share_canonical() {
        check_cases(256, |rng| {
            let k = Kmer::from_codes(&rng.vec(1..32, |r| r.below(4) as u8));
            assert_eq!(k.canonical(), k.reverse_complement().canonical());
        });
    }
}
