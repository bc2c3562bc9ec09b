//! 2-bit packed DNA sequences.

use crate::base::Base;
use crate::GenomeError;
use std::fmt;
use std::str::FromStr;

const BASES_PER_WORD: usize = 32;

/// The low bit of every 2-bit base slot.
const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Reverse the 32 base slots of `x` and complement each (A=0 ↔ T=3 and
/// C=1 ↔ G=2 is a bitwise NOT).
fn revcomp_word(x: u64) -> u64 {
    let x = !x;
    let x = ((x >> 2) & 0x3333_3333_3333_3333) | ((x & 0x3333_3333_3333_3333) << 2);
    let x = ((x >> 4) & 0x0F0F_0F0F_0F0F_0F0F) | ((x & 0x0F0F_0F0F_0F0F_0F0F) << 4);
    x.swap_bytes()
}

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
        self.codes().map(Base::from_code)
    }

    /// Iterate over 2-bit codes, straight from the packed words.
    pub fn codes(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len).map(move |i| {
            ((self.words[i / BASES_PER_WORD] >> (2 * (i % BASES_PER_WORD))) & 3) as u8
        })
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

    /// The Watson-Crick reverse complement, built a word at a time.
    pub fn reverse_complement(&self) -> PackedSeq {
        PackedSeq {
            words: (0..self.words.len()).map(|j| self.rc_word(j)).collect(),
            len: self.len,
        }
    }

    /// Mismatching bases between this sequence — its reverse complement
    /// when `reverse` — and `text[start .. start + len())`, or `None` as
    /// soon as they exceed `budget`. Compares 32 bases per step.
    ///
    /// # Panics
    /// Panics if the placement runs past the end of `text`.
    pub fn mismatches_at(
        &self,
        reverse: bool,
        text: &PackedSeq,
        start: usize,
        budget: u32,
    ) -> Option<u32> {
        assert!(
            start + self.len <= text.len,
            "placement [{start}, {}) out of range for length {}",
            start + self.len,
            text.len
        );
        let mut mm = 0u32;
        for j in 0..self.words.len() {
            let mine = if reverse {
                self.rc_word(j)
            } else {
                self.words[j]
            };
            let n = (self.len - j * BASES_PER_WORD).min(BASES_PER_WORD);
            let x = mine ^ text.word_at(start + j * BASES_PER_WORD, n);
            // A base differs iff either bit of its pair does.
            mm += ((x | (x >> 1)) & LOW_BITS).count_ones();
            if mm > budget {
                return None;
            }
        }
        Some(mm)
    }

    /// The `n` (1..=32) bases from `start`, base `t` in bits `2t..2t+2`,
    /// zero above: a two-word shift for an unaligned `start`.
    fn word_at(&self, start: usize, n: usize) -> u64 {
        let (w, s) = (start / BASES_PER_WORD, 2 * (start % BASES_PER_WORD));
        let mut x = self.words[w] >> s;
        if s != 0 && w + 1 < self.words.len() {
            x |= self.words[w + 1] << (64 - s);
        }
        if n < BASES_PER_WORD {
            x &= (1u64 << (2 * n)) - 1;
        }
        x
    }

    /// Word `j` of the reverse complement (zero above its last base, as
    /// every stored word is).
    fn rc_word(&self, j: usize) -> u64 {
        let end = self.len - j * BASES_PER_WORD;
        let n = end.min(BASES_PER_WORD);
        // The forward bases `[end - n, end)`, reversed and complemented
        // across all 32 slots, then shifted down past the empty slots.
        revcomp_word(self.word_at(end - n, n)) >> (2 * (BASES_PER_WORD - n))
    }

    /// Append the 2-bit byte image: `len().div_ceil(4)` bytes, four bases
    /// per byte, the earliest base in the low bits — the little-endian
    /// bytes of the packed words, cut after the last base's byte. The
    /// wire, the contig store and the staged reads all use it.
    pub fn extend_le_bytes(&self, out: &mut Vec<u8>) {
        let end = out.len() + self.len.div_ceil(4);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(end);
    }

    /// Read `len` bases back from the first `len.div_ceil(4)` bytes of a
    /// [`extend_le_bytes`](PackedSeq::extend_le_bytes) image, a word at a
    /// time. Padding bits above the last base are cleared.
    ///
    /// # Panics
    /// Panics if `bytes` is shorter than `len.div_ceil(4)`.
    pub fn from_le_bytes(bytes: &[u8], len: usize) -> PackedSeq {
        let (whole, tail) = bytes[..len.div_ceil(4)].as_chunks::<8>();
        let mut words = Vec::with_capacity(len.div_ceil(BASES_PER_WORD));
        words.extend(whole.iter().map(|&b| u64::from_le_bytes(b)));
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            words.push(u64::from_le_bytes(last));
        }
        if let (Some(last), tail @ 1..) = (words.last_mut(), len % BASES_PER_WORD) {
            *last &= (1u64 << (2 * tail)) - 1;
        }
        PackedSeq { words, len }
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

    /// The per-base reverse complement the word-level one replaced.
    fn revcomp_per_base(s: &PackedSeq) -> PackedSeq {
        (0..s.len()).rev().map(|i| s.get(i).complement()).collect()
    }

    #[test]
    fn revcomp_is_involution() {
        check_cases(256, |rng| {
            let s = PackedSeq::from_codes(&rng.vec(0..200, |r| r.below(4) as u8));
            assert_eq!(s.reverse_complement(), revcomp_per_base(&s));
            assert_eq!(s.reverse_complement().reverse_complement(), s);
        });
    }

    /// The base-by-base compare the word-level one replaced.
    fn mismatches_per_base(
        read: &PackedSeq,
        reverse: bool,
        text: &PackedSeq,
        start: usize,
        budget: u32,
    ) -> Option<u32> {
        let oriented = if reverse {
            revcomp_per_base(read)
        } else {
            read.clone()
        };
        let mut mm = 0;
        for (i, base) in oriented.iter().enumerate() {
            if text.get(start + i) != base {
                mm += 1;
                if mm > budget {
                    return None;
                }
            }
        }
        Some(mm)
    }

    #[test]
    fn word_compare_matches_per_base_compare() {
        check_cases(256, |rng| {
            let text = PackedSeq::from_codes(&rng.vec(96..200, |r| r.below(4) as u8));
            let len = 1 + rng.below(63) as usize;
            let last = text.len() - len;
            for start in [0, 31, 32, 33, last] {
                // A read that is the text at `start` with a few substitutions,
                // so every budget is exercised on both sides.
                let mut codes = text.slice(start, len).to_codes();
                for _ in 0..rng.below(5) {
                    let i = rng.below(len as u64) as usize;
                    codes[i] = (codes[i] + 1 + rng.below(3) as u8) & 3;
                }
                let fwd = PackedSeq::from_codes(&codes);
                let rev = fwd.reverse_complement();
                for budget in 0..4 {
                    for (read, reverse) in [(&fwd, false), (&rev, true)] {
                        assert_eq!(
                            read.mismatches_at(reverse, &text, start, budget),
                            mismatches_per_base(read, reverse, &text, start, budget),
                            "start {start} len {len} budget {budget} reverse {reverse}"
                        );
                    }
                }
            }
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
    fn le_bytes_invert_extend_and_clear_padding() {
        check_cases(256, |rng| {
            let s = PackedSeq::from_codes(&rng.vec(0..200, |r| r.below(4) as u8));
            let mut bytes = Vec::new();
            s.extend_le_bytes(&mut bytes);
            assert_eq!(bytes.len(), s.len().div_ceil(4));
            assert_eq!(PackedSeq::from_le_bytes(&bytes, s.len()), s);
            // Garbage above the last base and surplus bytes are dropped.
            if let (Some(last), tail @ 1..) = (bytes.last_mut(), s.len() % 4) {
                *last |= (rng.next_u64() as u8) << (2 * tail);
            }
            bytes.extend(rng.vec(0..9, |r| r.next_u64() as u8));
            assert_eq!(PackedSeq::from_le_bytes(&bytes, s.len()), s);
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
