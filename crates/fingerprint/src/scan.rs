//! The prefix-fingerprint pass and suffix derivation.

use crate::params::{HashParams, PlaceValues};
use crate::{pack, Fingerprint128};
use std::ops::Range;

/// Strands whose Horner passes advance in step: with both parameter sets
/// that is eight independent multiply chains, enough to hide the latency
/// of each one, and few enough that every running hash stays in a register.
const LANES: usize = 4;

/// Strands whose tuples are stored together: each kept row receives this
/// many adjacent tuples at a time, whole cache lines of them, while their
/// prefix hashes (16 B per base and strand) still fit in L1.
pub const TILE: usize = 4 * LANES;

/// Dual Rabin-Karp hasher over 2-bit base codes.
///
/// The device is *charged* for the paper's kernel — a Hillis-Steele scan
/// with doubling offsets for the prefixes (Fig. 5), one algebraic step over
/// them for the suffixes (Fig. 6). The host *executes* its work-efficient
/// equivalent, [`RabinKarp::scan_tile_rows`]: one Horner pass for the
/// prefixes and the same Fig. 6 step. [`RabinKarp::horner_one`] and
/// [`RabinKarp::fingerprint`] hash one whole string and are the oracles
/// the tests hold both against.
#[derive(Debug, Clone)]
pub struct RabinKarp {
    places: [PlaceValues; 2],
}

impl RabinKarp {
    /// Dual hasher with the default parameter sets, for reads up to
    /// `max_len` bases.
    pub fn new(max_len: usize) -> Self {
        RabinKarp {
            places: [
                PlaceValues::new(HashParams::set0(), max_len),
                PlaceValues::new(HashParams::set1(), max_len),
            ],
        }
    }

    /// Longest read this hasher supports.
    pub fn max_len(&self) -> usize {
        self.places[0].max_len()
    }

    /// Fingerprints of `strands` (all of one length) at every length in
    /// `lens`, written length-major: `prefix_rows[k][s]` and
    /// `suffix_rows[k][s]` receive `make(fingerprint, first_col + s)` for
    /// strand `s`'s prefix and suffix of length `lens.start + k`. The rows
    /// are this caller's columns of a wider batch; `first_col` is where
    /// they start in it.
    ///
    /// Prefix hashes of one tile of strands go to a scratch small enough
    /// for L1, and every kept tuple is derived from it straight into its
    /// row, so nothing is allocated per read and no other length is ever
    /// stored.
    pub(crate) fn scan_tile_rows<T>(
        &self,
        strands: &[Vec<u8>],
        first_col: usize,
        lens: Range<usize>,
        prefix_rows: &mut [&mut [T]],
        suffix_rows: &mut [&mut [T]],
        make: &impl Fn(Fingerprint128, usize) -> T,
    ) {
        let read_len = strands.first().map_or(0, |codes| codes.len());
        assert!(read_len <= self.max_len(), "read longer than place table");
        assert!(
            prefix_rows.len() == lens.len() && suffix_rows.len() == lens.len(),
            "one row per kept length"
        );
        if lens.is_empty() {
            return;
        }
        let mut prefixes = vec![0; TILE * read_len];
        for (tile, col) in strands.chunks(TILE).zip((0..).step_by(TILE)) {
            self.prefix_tile(tile, read_len, &mut prefixes);
            let cols = col..col + tile.len();
            for (k, len) in lens.clone().enumerate() {
                let prefix_row = &mut prefix_rows[k][cols.clone()];
                let suffix_row = &mut suffix_rows[k][cols.clone()];
                for (s, (prefix, suffix)) in prefix_row.iter_mut().zip(suffix_row).enumerate() {
                    let of_strand = &prefixes[s * read_len..][..read_len];
                    let strand = first_col + col + s;
                    *prefix = make(of_strand[len - 1], strand);
                    *suffix = make(self.suffix_of(of_strand, len), strand);
                }
            }
        }
    }

    /// One Horner pass over each strand of a tile: `out[s * read_len + i]`
    /// is the fingerprint of strand `s`'s prefix of length `i + 1`.
    /// [`LANES`] strands advance in step so that no multiply waits for the
    /// previous one of its own chain; a short last group repeats its last
    /// strand and drops the copies.
    fn prefix_tile(&self, tile: &[Vec<u8>], read_len: usize, out: &mut [Fingerprint128]) {
        let [p0, p1] = [self.places[0].params(), self.places[1].params()];
        for (group, out) in tile.chunks(LANES).zip(out.chunks_mut(LANES * read_len)) {
            let codes: [&[u8]; LANES] =
                std::array::from_fn(|s| &group[s.min(group.len() - 1)][..read_len]);
            let mut h0 = [0u64; LANES];
            let mut h1 = [0u64; LANES];
            for i in 0..read_len {
                for s in 0..LANES {
                    h0[s] = p0.horner_step(h0[s], codes[s][i]);
                    h1[s] = p1.horner_step(h1[s], codes[s][i]);
                    out[s * read_len + i] = pack(h0[s], h1[s]);
                }
            }
        }
    }

    /// The suffix fingerprint of length `len` from a strand's prefix
    /// fingerprints (Fig. 6): with `n` the read length and `F` the whole
    /// read's hash, `S = (F − P[n − len − 1] · σ^len) mod q`, and `S = F`
    /// for the whole read.
    fn suffix_of(&self, prefixes: &[Fingerprint128], len: usize) -> Fingerprint128 {
        let n = prefixes.len();
        let full = prefixes[n - 1];
        if len == n {
            return full;
        }
        let before = prefixes[n - len - 1];
        let one = |set: usize, full: u64, before: u64| {
            let pv = &self.places[set];
            let p = pv.params();
            p.submod(full, p.mulmod(before, pv.get(len)))
        };
        pack(
            one(0, (full >> 64) as u64, (before >> 64) as u64),
            one(1, full as u64, before as u64),
        )
    }

    /// Horner-rule hash of a whole string for one parameter set — the
    /// sequential oracle.
    pub fn horner_one(&self, set: usize, codes: &[u8]) -> u64 {
        let p = self.places[set].params();
        codes.iter().fold(0, |h, &c| p.horner_step(h, c))
    }

    /// Horner-rule fingerprint of a whole string (both sets packed).
    pub fn fingerprint(&self, codes: &[u8]) -> Fingerprint128 {
        pack(self.horner_one(0, codes), self.horner_one(1, codes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdx::check_cases;

    /// The paper's kernel as written, the lock-step of one thread block
    /// (threads = read length): a Hillis-Steele scan with doubling offsets
    /// for one parameter set (Fig. 5). Returns `P` where `P[i]` is the hash
    /// of the prefix ending at position `i`.
    fn lockstep_prefix_scan(rk: &RabinKarp, set: usize, codes: &[u8]) -> Vec<u64> {
        let pv = &rk.places[set];
        let p = pv.params();
        let n = codes.len();
        let mut out: Vec<u64> = codes.iter().map(|&c| c as u64 % p.q).collect();
        let mut next = vec![0u64; n];
        let mut offset = 1usize;
        while offset < n {
            let m_off = pv.get(offset);
            for i in 0..n {
                next[i] = if i >= offset {
                    // P[i] <- P[i-offset] * sigma^offset + P[i]
                    p.addmod(p.mulmod(out[i - offset], m_off), out[i])
                } else {
                    out[i]
                };
            }
            out.copy_from_slice(&next);
            offset *= 2;
        }
        out
    }

    /// Fig. 6 over a whole read for one parameter set, from the lock-step
    /// prefixes: `S[i] = (F − P[i−1] · σ^(n−i)) mod q`, `S[0] = F`.
    fn lockstep_suffixes(rk: &RabinKarp, set: usize, prefix: &[u64]) -> Vec<u64> {
        let pv = &rk.places[set];
        let p = pv.params();
        let n = prefix.len();
        (0..n)
            .map(|i| match i {
                0 => prefix[n - 1],
                _ => p.submod(prefix[n - 1], p.mulmod(prefix[i - 1], pv.get(n - i))),
            })
            .collect()
    }

    /// What the host kernel computes for one read, by position:
    /// `prefix[i]` ends at `i` (length `i + 1`), `suffix[i]` starts at `i`.
    fn scan(rk: &RabinKarp, codes: &[u8]) -> (Vec<Fingerprint128>, Vec<Fingerprint128>) {
        let n = codes.len();
        let mut prefix = vec![0; n];
        let mut suffix = vec![0; n];
        rk.scan_tile_rows(
            &[codes.to_vec()],
            0,
            1..n + 1,
            &mut prefix.chunks_mut(1).collect::<Vec<_>>(),
            &mut suffix.chunks_mut(1).collect::<Vec<_>>(),
            &|fp, _| fp,
        );
        // Rows are by length; a suffix of length l starts at n − l.
        suffix.reverse();
        (prefix, suffix)
    }

    fn high_words(fps: &[Fingerprint128]) -> Vec<u64> {
        fps.iter().map(|&fp| (fp >> 64) as u64).collect()
    }

    /// Codes under the paper's Fig. 5 convention (A=0, C=1, T=2, G=3) for
    /// the worked example GATACCAGTA.
    fn fig5_codes() -> Vec<u8> {
        // G A T A C C A G T A
        vec![3, 0, 2, 0, 1, 1, 0, 3, 2, 0]
    }

    /// Hasher with explicit parameter sets, such as the Fig. 5 toys.
    fn with_params(p0: HashParams, p1: HashParams, max_len: usize) -> RabinKarp {
        RabinKarp {
            places: [PlaceValues::new(p0, max_len), PlaceValues::new(p1, max_len)],
        }
    }

    fn fig5_rk() -> RabinKarp {
        with_params(HashParams::fig5(), HashParams::set1(), 16)
    }

    #[test]
    fn reproduces_fig5_prefix_fingerprints() {
        let rk = fig5_rk();
        // Fig. 5's output row: 3 12 11 5 8 7 2 11 7 2.
        let golden = vec![3, 12, 11, 5, 8, 7, 2, 11, 7, 2];
        assert_eq!(lockstep_prefix_scan(&rk, 0, &fig5_codes()), golden);
        assert_eq!(high_words(&scan(&rk, &fig5_codes()).0), golden);
    }

    #[test]
    fn reproduces_fig6_suffix_fingerprints() {
        let rk = fig5_rk();
        // Fig. 6's output row S: 2 5 5 10 10 0 4 4 8 0.
        let golden = vec![2, 5, 5, 10, 10, 0, 4, 4, 8, 0];
        let prefix = lockstep_prefix_scan(&rk, 0, &fig5_codes());
        assert_eq!(lockstep_suffixes(&rk, 0, &prefix), golden);
        assert_eq!(high_words(&scan(&rk, &fig5_codes()).1), golden);
    }

    #[test]
    fn scan_matches_horner_for_every_prefix() {
        let rk = RabinKarp::new(64);
        let codes: Vec<u8> = (0..37).map(|i| (i * 7 % 4) as u8).collect();
        let (prefixes, _) = scan(&rk, &codes);
        for (i, &fp) in prefixes.iter().enumerate() {
            assert_eq!(fp, rk.fingerprint(&codes[..=i]), "prefix length {}", i + 1);
        }
    }

    #[test]
    fn suffix_derivation_matches_direct_hash() {
        let rk = RabinKarp::new(64);
        let codes: Vec<u8> = (0..41).map(|i| (i * 13 % 4) as u8).collect();
        let (_, suffixes) = scan(&rk, &codes);
        for (i, &fp) in suffixes.iter().enumerate() {
            assert_eq!(fp, rk.fingerprint(&codes[i..]), "suffix start {i}");
        }
    }

    #[test]
    fn matching_suffix_prefix_pairs_share_fingerprints() {
        // Overlap: suffix of r1 == prefix of r2 of length 5.
        let r1: Vec<u8> = vec![0, 1, 2, 3, 0, 1, 2, 3];
        let r2: Vec<u8> = vec![0, 1, 2, 3, 3, 3, 3, 3];
        let rk = RabinKarp::new(16);
        let (_, s1) = scan(&rk, &r1);
        let (p2, _) = scan(&rk, &r2);
        // r1's 4-length suffix is [0,1,2,3] = r2's 4-length prefix.
        assert_eq!(s1[4], p2[3]);
        // And a non-matching length disagrees.
        assert_ne!(s1[5], p2[2]);
    }

    #[test]
    fn empty_and_single_base_inputs() {
        let rk = RabinKarp::new(8);
        assert_eq!(scan(&rk, &[]), (vec![], vec![]));
        let (prefix, suffix) = scan(&rk, &[2]);
        assert_eq!(prefix, vec![rk.fingerprint(&[2])]);
        assert_eq!(suffix, prefix);
    }

    #[test]
    #[should_panic(expected = "read longer than place table")]
    fn read_longer_than_table_panics() {
        scan(&RabinKarp::new(4), &[0; 5]);
    }

    /// Every prefix and suffix of `codes` against straight Horner over the
    /// substring and against the lock-step kernel.
    fn assert_scan_matches_both_oracles(rk: &RabinKarp, codes: &[u8]) {
        let (prefixes, suffixes) = scan(rk, codes);
        for i in 0..codes.len() {
            assert_eq!(prefixes[i], rk.fingerprint(&codes[..=i]), "prefix {i}");
            assert_eq!(suffixes[i], rk.fingerprint(&codes[i..]), "suffix {i}");
        }
        let lockstep = |set| {
            let prefix = lockstep_prefix_scan(rk, set, codes);
            let suffix = lockstep_suffixes(rk, set, &prefix);
            (prefix, suffix)
        };
        let ((p0, s0), (p1, s1)) = (lockstep(0), lockstep(1));
        let packed = |a: Vec<u64>, b: Vec<u64>| -> Vec<Fingerprint128> {
            a.into_iter().zip(b).map(|(a, b)| pack(a, b)).collect()
        };
        assert_eq!(prefixes, packed(p0, p1));
        assert_eq!(suffixes, packed(s0, s1));
    }

    #[test]
    fn scan_equals_horner_for_random_reads() {
        check_cases(256, |rng| {
            let codes = rng.vec(1..150, |r| r.below(4) as u8);
            assert_scan_matches_both_oracles(&RabinKarp::new(150), &codes);
        });
    }

    #[test]
    fn scan_equals_both_oracles_at_every_read_length() {
        let default = RabinKarp::new(130);
        let toy = with_params(HashParams::fig5(), HashParams::set0(), 130);
        let mut rng = stdx::SplitMix64::new(19);
        for n in 1..=130 {
            let codes: Vec<u8> = (0..n).map(|_| (rng.next_u64() >> 62) as u8).collect();
            assert_scan_matches_both_oracles(&default, &codes);
            assert_scan_matches_both_oracles(&toy, &codes);
        }
    }

    #[test]
    fn tiles_and_column_offsets_do_not_mix_strands() {
        // Seven strands: one full tile and a short one, written into the
        // middle columns of wider rows.
        let rk = RabinKarp::new(12);
        let mut rng = stdx::SplitMix64::new(7);
        let strands: Vec<Vec<u8>> = (0..7)
            .map(|_| (0..12).map(|_| (rng.next_u64() >> 62) as u8).collect())
            .collect();
        let lens = 5..12;
        let mut prefix = vec![(0, usize::MAX); lens.len() * 7];
        let mut suffix = prefix.clone();
        rk.scan_tile_rows(
            &strands,
            100,
            lens.clone(),
            &mut prefix.chunks_mut(7).collect::<Vec<_>>(),
            &mut suffix.chunks_mut(7).collect::<Vec<_>>(),
            &|fp, col| (fp, col),
        );
        for (k, len) in lens.enumerate() {
            for (s, codes) in strands.iter().enumerate() {
                let at = k * 7 + s;
                assert_eq!(prefix[at], (rk.fingerprint(&codes[..len]), 100 + s));
                assert_eq!(suffix[at], (rk.fingerprint(&codes[12 - len..]), 100 + s));
            }
        }
    }

    #[test]
    fn distinct_short_strings_have_distinct_fingerprints() {
        check_cases(256, |rng| {
            let a = rng.vec(1..40, |r| r.below(4) as u8);
            let b = rng.vec(1..40, |r| r.below(4) as u8);
            let rk = RabinKarp::new(40);
            if a != b {
                assert_ne!(rk.fingerprint(&a), rk.fingerprint(&b));
            }
        });
    }
}
