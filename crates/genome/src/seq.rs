//! 2-bit packed DNA sequences.

use crate::base::Base;
use crate::GenomeError;
use std::fmt;
use std::str::FromStr;

const BASES_PER_WORD: usize = 32;

/// A DNA string stored 2 bits per base, 32 bases per `u64` word.
///
/// At the paper's scale (hundreds of gigabases) packing is what makes reads
/// fit in host memory at all; here it keeps the scaled datasets cheap and
/// gives `get`/`push` the same bit-twiddling the GPU encode kernel does.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// Empty sequence.
    pub fn new() -> Self {
        PackedSeq::default()
    }

    /// Empty sequence with room for `n` bases.
    pub fn with_capacity(n: usize) -> Self {
        PackedSeq {
            words: Vec::with_capacity(n.div_ceil(BASES_PER_WORD)),
            len: 0,
        }
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the sequence has no bases.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes used by the packed representation.
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Append one base.
    pub fn push(&mut self, base: Base) {
        let (word, shift) = (self.len / BASES_PER_WORD, 2 * (self.len % BASES_PER_WORD));
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= (base.code() as u64) << shift;
        self.len += 1;
    }

    /// Base at position `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Base {
        assert!(
            i < self.len,
            "index {i} out of range for length {}",
            self.len
        );
        let (word, shift) = (i / BASES_PER_WORD, 2 * (i % BASES_PER_WORD));
        Base::from_code(((self.words[word] >> shift) & 3) as u8)
    }

    /// Iterate over bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// The sub-sequence `[start, start + len)`.
    pub fn slice(&self, start: usize, len: usize) -> PackedSeq {
        assert!(
            start + len <= self.len,
            "slice [{start}, {}) out of range for length {}",
            start + len,
            self.len
        );
        let mut out = PackedSeq::with_capacity(len);
        for i in start..start + len {
            out.push(self.get(i));
        }
        out
    }

    /// The Watson-Crick reverse complement.
    pub fn reverse_complement(&self) -> PackedSeq {
        let mut out = PackedSeq::with_capacity(self.len);
        for i in (0..self.len).rev() {
            out.push(self.get(i).complement());
        }
        out
    }

    /// Build from 2-bit codes.
    pub fn from_codes(codes: &[u8]) -> PackedSeq {
        let mut out = PackedSeq::with_capacity(codes.len());
        for &c in codes {
            out.push(Base::from_code(c));
        }
        out
    }

    /// Export as 2-bit codes (the layout device kernels consume).
    pub fn to_codes(&self) -> Vec<u8> {
        self.iter().map(|b| b.code()).collect()
    }
}

// Shared Display/Debug body (Debug shows the sequence too — it is the most
// useful rendering in test failures).
macro_rules! fmt_impl {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for b in self.iter() {
                write!(f, "{}", b.to_ascii() as char)?;
            }
            Ok(())
        }
    };
}

impl fmt::Debug for PackedSeq {
    fmt_impl!();
}

impl fmt::Display for PackedSeq {
    fmt_impl!();
}

impl FromStr for PackedSeq {
    type Err = GenomeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = PackedSeq::with_capacity(s.len());
        for (i, c) in s.bytes().enumerate() {
            match Base::from_ascii(c) {
                Some(b) => out.push(b),
                None => {
                    return Err(GenomeError::Parse(format!(
                        "invalid nucleotide {:?} at position {i}",
                        c as char
                    )))
                }
            }
        }
        Ok(out)
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        let mut out = PackedSeq::new();
        for b in iter {
            out.push(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdx::check_cases;

    #[test]
    fn push_get_roundtrip_across_word_boundaries() {
        let mut seq = PackedSeq::new();
        let pattern: Vec<Base> = (0..100).map(|i| Base::from_code((i % 4) as u8)).collect();
        for &b in &pattern {
            seq.push(b);
        }
        assert_eq!(seq.len(), 100);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(seq.get(i), b, "position {i}");
        }
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let s: PackedSeq = "GATACCAGTA".parse().unwrap();
        assert_eq!(s.to_string(), "GATACCAGTA");
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn parse_rejects_ambiguity_codes() {
        assert!("GATN".parse::<PackedSeq>().is_err());
    }

    #[test]
    fn reverse_complement_of_known_string() {
        let s: PackedSeq = "GATTACA".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "TGTAATC");
    }

    #[test]
    fn slice_extracts_subsequence() {
        let s: PackedSeq = "ACGTACGTACGT".parse().unwrap();
        assert_eq!(s.slice(2, 5).to_string(), "GTACG");
        assert_eq!(s.slice(0, 0).to_string(), "");
        assert_eq!(s.slice(12, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        let s: PackedSeq = "ACGT".parse().unwrap();
        s.slice(2, 3);
    }

    #[test]
    fn packed_bytes_is_quarter_of_length() {
        let s: PackedSeq = "A".repeat(128).parse().unwrap();
        assert_eq!(s.packed_bytes(), 32);
        let t: PackedSeq = "A".repeat(129).parse().unwrap();
        assert_eq!(t.packed_bytes(), 40);
    }

    #[test]
    fn revcomp_is_involution() {
        check_cases(256, |rng| {
            let s = PackedSeq::from_codes(&rng.vec(0..200, |r| r.below(4) as u8));
            assert_eq!(s.reverse_complement().reverse_complement(), s);
        });
    }

    #[test]
    fn to_codes_inverts_from_codes() {
        check_cases(256, |rng| {
            let codes = rng.vec(0..200, |r| r.below(4) as u8);
            assert_eq!(PackedSeq::from_codes(&codes).to_codes(), codes);
        });
    }

    #[test]
    fn display_parse_roundtrip() {
        check_cases(256, |rng| {
            let s = PackedSeq::from_codes(&rng.vec(0..100, |r| r.below(4) as u8));
            let reparsed: PackedSeq = s.to_string().parse().unwrap();
            assert_eq!(reparsed, s);
        });
    }
}
