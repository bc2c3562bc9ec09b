//! FM-index over the concatenated read set.
//!
//! Alphabet: `0` terminal sentinel, `1` read separator, `2..=5` the bases
//! A/C/G/T. Backward search maintains a half-open suffix-array interval
//! `[lo, hi)`; `extend_left` prepends one character via the LF mapping.
//! Occ is checkpointed every `OCC_BLOCK` positions — the classic
//! time/space trade-off.
//!
//! Read starts are marked in suffix-array order with a prefix-sum array, so
//! "how many reads have this pattern as a *prefix*" is two subtractions —
//! the query at the heart of SGA's overlap phase.

use crate::suffix::suffix_array;

/// Alphabet size (sentinel, separator, four bases).
pub const SIGMA: usize = 6;

/// Occ checkpoint spacing.
const OCC_BLOCK: usize = 64;

/// A suffix-array interval `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u32,
    /// Exclusive upper bound.
    pub hi: u32,
}

impl Interval {
    /// Number of occurrences in the interval.
    pub fn len(&self) -> u32 {
        self.hi - self.lo
    }

    /// `true` if the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// FM-index with a retained suffix array and read-start ranks.
pub struct FmIndex {
    bwt: Vec<u8>,
    /// C[c] = number of text characters < c.
    c: [u32; SIGMA + 1],
    /// Occ checkpoints: occ[block][c] = count of c in bwt[..block*OCC_BLOCK].
    occ: Vec<[u32; SIGMA]>,
    sa: Vec<u32>,
    /// starts_rank[i] = number of read-start suffixes among sa[..i].
    starts_rank: Vec<u32>,
    /// read id of the suffix at SA rank i if it is a read start.
    start_read: Vec<u32>,
}

impl FmIndex {
    /// Index `text` (must follow the sentinel conventions of
    /// [`suffix_array`]). `start_positions[p] = Some(read)` marks text
    /// position `p` as the first base of `read`.
    pub fn build(text: &[u8], start_of: &[Option<u32>]) -> Self {
        assert_eq!(text.len(), start_of.len());
        let sa = suffix_array(text);
        let n = text.len();

        let mut bwt = vec![0u8; n];
        for (i, &p) in sa.iter().enumerate() {
            bwt[i] = if p == 0 {
                text[n - 1]
            } else {
                text[p as usize - 1]
            };
        }

        let mut counts = [0u32; SIGMA];
        for &ch in text {
            counts[ch as usize] += 1;
        }
        let mut c = [0u32; SIGMA + 1];
        for ch in 0..SIGMA {
            c[ch + 1] = c[ch] + counts[ch];
        }

        let blocks = n / OCC_BLOCK + 1;
        let mut occ = Vec::with_capacity(blocks);
        let mut running = [0u32; SIGMA];
        for (i, &ch) in bwt.iter().enumerate() {
            if i % OCC_BLOCK == 0 {
                occ.push(running);
            }
            running[ch as usize] += 1;
        }
        if n.is_multiple_of(OCC_BLOCK) {
            occ.push(running);
        }

        let mut starts_rank = Vec::with_capacity(n + 1);
        let mut start_read = vec![u32::MAX; n];
        let mut acc = 0u32;
        for (i, &p) in sa.iter().enumerate() {
            starts_rank.push(acc);
            if let Some(r) = start_of[p as usize] {
                start_read[i] = r;
                acc += 1;
            }
        }
        starts_rank.push(acc);

        FmIndex {
            bwt,
            c,
            occ,
            sa,
            starts_rank,
            start_read,
        }
    }

    /// Text length.
    pub fn len(&self) -> usize {
        self.bwt.len()
    }

    /// `true` when the index covers no text.
    pub fn is_empty(&self) -> bool {
        self.bwt.is_empty()
    }

    /// Count of `ch` in `bwt[..i]`.
    fn rank(&self, ch: u8, i: u32) -> u32 {
        let i = i as usize;
        let block = i / OCC_BLOCK;
        let mut r = self.occ[block][ch as usize];
        for &b in &self.bwt[block * OCC_BLOCK..i] {
            r += (b == ch) as u32;
        }
        r
    }

    /// The interval of all suffixes (empty pattern).
    pub fn whole(&self) -> Interval {
        Interval {
            lo: 0,
            hi: self.bwt.len() as u32,
        }
    }

    /// Backward-extend: the interval of `ch · pattern` given the interval
    /// of `pattern`.
    pub fn extend_left(&self, iv: Interval, ch: u8) -> Interval {
        let c = self.c[ch as usize];
        Interval {
            lo: c + self.rank(ch, iv.lo),
            hi: c + self.rank(ch, iv.hi),
        }
    }

    /// The interval of an entire pattern (backward search).
    pub fn find(&self, pattern: &[u8]) -> Interval {
        let mut iv = self.whole();
        for &ch in pattern.iter().rev() {
            iv = self.extend_left(iv, ch);
            if iv.is_empty() {
                break;
            }
        }
        iv
    }

    /// How many occurrences in `iv` are read starts.
    pub fn count_read_starts(&self, iv: Interval) -> u32 {
        self.starts_rank[iv.hi as usize] - self.starts_rank[iv.lo as usize]
    }

    /// The reads whose prefix is the pattern of `iv`, appended to `out`.
    pub fn read_starts_into(&self, iv: Interval, out: &mut Vec<u32>) {
        for rank in iv.lo..iv.hi {
            let r = self.start_read[rank as usize];
            if r != u32::MAX {
                out.push(r);
            }
        }
    }

    /// Bytes of the plain in-memory representation (for reporting; the
    /// budget *billing* uses the compressed model instead, see
    /// [`crate::baseline`]).
    pub fn plain_bytes(&self) -> u64 {
        (self.bwt.len()
            + self.occ.len() * SIGMA * 4
            + self.sa.len() * 4
            + self.starts_rank.len() * 4
            + self.start_read.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdx::check_cases;

    /// Text "ACGT|ACGA|" with separators and terminal sentinel, plus read
    /// start marks.
    fn demo() -> (Vec<u8>, Vec<Option<u32>>) {
        // A=2 C=3 G=4 T=5, separator 1, sentinel 0.
        let text = vec![2, 3, 4, 5, 1, 2, 3, 4, 2, 1, 0];
        let mut starts = vec![None; text.len()];
        starts[0] = Some(0);
        starts[5] = Some(1);
        (text, starts)
    }

    #[test]
    fn find_counts_all_occurrences() {
        let (text, starts) = demo();
        let fm = FmIndex::build(&text, &starts);
        assert_eq!(fm.find(&[2, 3, 4]).len(), 2); // ACG twice
        assert_eq!(fm.find(&[2, 3, 4, 5]).len(), 1); // ACGT once
        assert_eq!(fm.find(&[5, 5]).len(), 0);
        assert_eq!(fm.find(&[]).len(), text.len() as u32);
    }

    #[test]
    fn read_start_intersection_identifies_prefixes() {
        let (text, starts) = demo();
        let fm = FmIndex::build(&text, &starts);
        let iv = fm.find(&[2, 3, 4]); // ACG is a prefix of both reads
        assert_eq!(fm.count_read_starts(iv), 2);
        let mut ids = Vec::new();
        fm.read_starts_into(iv, &mut ids);
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1]);

        let iv = fm.find(&[3, 4]); // CG occurs but never as a prefix
        assert!(iv.len() >= 2);
        assert_eq!(fm.count_read_starts(iv), 0);
    }

    #[test]
    fn extend_left_is_incremental_find() {
        let (text, starts) = demo();
        let fm = FmIndex::build(&text, &starts);
        let pattern = [2u8, 3, 4, 5];
        let mut iv = fm.whole();
        for &ch in pattern.iter().rev() {
            iv = fm.extend_left(iv, ch);
        }
        assert_eq!(iv, fm.find(&pattern));
    }

    #[test]
    fn empty_interval_stays_empty_under_extension() {
        let (text, starts) = demo();
        let fm = FmIndex::build(&text, &starts);
        let iv = fm.find(&[5, 5, 5]);
        assert!(iv.is_empty());
        assert!(fm.extend_left(iv, 2).is_empty());
    }

    #[test]
    fn count_matches_naive_substring_count() {
        check_cases(256, |rng| {
            let mut text = rng.vec(1..200, |r| r.range(2..6) as u8);
            let pattern = rng.vec(1..6, |r| r.range(2..6) as u8);
            text.push(0);
            let starts = vec![None; text.len()];
            let fm = FmIndex::build(&text, &starts);
            let naive = text
                .windows(pattern.len())
                .filter(|w| *w == &pattern[..])
                .count() as u32;
            assert_eq!(fm.find(&pattern).len(), naive);
        });
    }
}
