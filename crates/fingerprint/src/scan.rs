//! The prefix-fingerprint scan and suffix derivation.

use crate::params::{HashParams, PlaceValues};
use crate::{pack, Fingerprint128};

/// Dual Rabin-Karp hasher over 2-bit base codes.
///
/// `prefix_scan`/`suffix_from_prefix` follow the paper's kernels exactly:
/// the prefix pass is a Hillis-Steele scan with doubling offsets (Fig. 5),
/// the suffix pass one algebraic step over the prefix results (Fig. 6).
/// `prefix_naive`/`suffix_naive` are straight Horner evaluations used as
/// test oracles and as the CPU half of ablation comparisons.
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

    /// Hasher with explicit parameter sets (tests use the Fig. 5 toys).
    pub fn with_params(p0: HashParams, p1: HashParams, max_len: usize) -> Self {
        RabinKarp {
            places: [PlaceValues::new(p0, max_len), PlaceValues::new(p1, max_len)],
        }
    }

    /// Longest read this hasher supports.
    pub fn max_len(&self) -> usize {
        self.places[0].max_len()
    }

    /// Hillis-Steele prefix scan for one parameter set: returns `P` where
    /// `P[i]` is the hash of the prefix ending at position `i` (length
    /// `i + 1`).
    fn prefix_scan_one(&self, set: usize, codes: &[u8], out: &mut Vec<u64>) {
        let pv = &self.places[set];
        let p = pv.params();
        let n = codes.len();
        out.clear();
        out.extend(codes.iter().map(|&c| c as u64 % p.q));

        // Double-buffered log-step loop: the simulated lock-step of one
        // thread block (threads = read length, Fig. 5).
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
    }

    /// Suffix hashes for one parameter set, derived from the prefix hashes
    /// (Fig. 6): `S[i] = (F − P[i−1] · σ^(n−i)) mod q`, `S[0] = F`.
    fn suffix_from_prefix_one(&self, set: usize, prefix: &[u64], out: &mut Vec<u64>) {
        let pv = &self.places[set];
        let p = pv.params();
        let n = prefix.len();
        out.clear();
        if n == 0 {
            return;
        }
        let full = prefix[n - 1];
        out.push(full);
        for i in 1..n {
            let shifted = p.mulmod(prefix[i - 1], pv.get(n - i));
            out.push(p.submod(full, shifted));
        }
    }

    /// All prefix fingerprints of a read: `result[i]` is the fingerprint of
    /// the `(i+1)`-length prefix.
    pub fn prefix_fingerprints(&self, codes: &[u8]) -> Vec<Fingerprint128> {
        assert!(
            codes.len() <= self.max_len(),
            "read longer than place table"
        );
        let mut h0 = Vec::new();
        let mut h1 = Vec::new();
        self.prefix_scan_one(0, codes, &mut h0);
        self.prefix_scan_one(1, codes, &mut h1);
        h0.into_iter().zip(h1).map(|(a, b)| pack(a, b)).collect()
    }

    /// All suffix fingerprints of a read: `result[i]` is the fingerprint of
    /// the suffix *starting* at position `i` (length `n − i`).
    pub fn suffix_fingerprints(&self, codes: &[u8]) -> Vec<Fingerprint128> {
        assert!(
            codes.len() <= self.max_len(),
            "read longer than place table"
        );
        let mut p0 = Vec::new();
        let mut p1 = Vec::new();
        self.prefix_scan_one(0, codes, &mut p0);
        self.prefix_scan_one(1, codes, &mut p1);
        let mut s0 = Vec::new();
        let mut s1 = Vec::new();
        self.suffix_from_prefix_one(0, &p0, &mut s0);
        self.suffix_from_prefix_one(1, &p1, &mut s1);
        s0.into_iter().zip(s1).map(|(a, b)| pack(a, b)).collect()
    }

    /// Both prefix and suffix fingerprints in one pass (the paper fuses
    /// them into "a single kernel using shared memory").
    pub fn all_fingerprints(&self, codes: &[u8]) -> (Vec<Fingerprint128>, Vec<Fingerprint128>) {
        assert!(
            codes.len() <= self.max_len(),
            "read longer than place table"
        );
        let mut p0 = Vec::new();
        let mut p1 = Vec::new();
        self.prefix_scan_one(0, codes, &mut p0);
        self.prefix_scan_one(1, codes, &mut p1);
        let mut s0 = Vec::new();
        let mut s1 = Vec::new();
        self.suffix_from_prefix_one(0, &p0, &mut s0);
        self.suffix_from_prefix_one(1, &p1, &mut s1);
        (
            p0.into_iter().zip(p1).map(|(a, b)| pack(a, b)).collect(),
            s0.into_iter().zip(s1).map(|(a, b)| pack(a, b)).collect(),
        )
    }

    /// Horner-rule hash of a whole string for one parameter set — the
    /// sequential oracle.
    pub fn horner_one(&self, set: usize, codes: &[u8]) -> u64 {
        let p = self.places[set].params();
        let mut h = 0u64;
        for &c in codes {
            h = p.addmod(p.mulmod(h, p.sigma), c as u64);
        }
        h
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

    /// Codes under the paper's Fig. 5 convention (A=0, C=1, T=2, G=3) for
    /// the worked example GATACCAGTA.
    fn fig5_codes() -> Vec<u8> {
        // G A T A C C A G T A
        vec![3, 0, 2, 0, 1, 1, 0, 3, 2, 0]
    }

    fn fig5_rk() -> RabinKarp {
        RabinKarp::with_params(HashParams::fig5(), HashParams::set1(), 16)
    }

    #[test]
    fn reproduces_fig5_prefix_fingerprints() {
        let rk = fig5_rk();
        let prefixes = rk.prefix_fingerprints(&fig5_codes());
        let h0: Vec<u64> = prefixes.iter().map(|&fp| (fp >> 64) as u64).collect();
        // Fig. 5's output row: 3 12 11 5 8 7 2 11 7 2.
        assert_eq!(h0, vec![3, 12, 11, 5, 8, 7, 2, 11, 7, 2]);
    }

    #[test]
    fn reproduces_fig6_suffix_fingerprints() {
        let rk = fig5_rk();
        let suffixes = rk.suffix_fingerprints(&fig5_codes());
        let h0: Vec<u64> = suffixes.iter().map(|&fp| (fp >> 64) as u64).collect();
        // Fig. 6's output row S: 2 5 5 10 10 0 4 4 8 0.
        assert_eq!(h0, vec![2, 5, 5, 10, 10, 0, 4, 4, 8, 0]);
    }

    #[test]
    fn scan_matches_horner_for_every_prefix() {
        let rk = RabinKarp::new(64);
        let codes: Vec<u8> = (0..37).map(|i| (i * 7 % 4) as u8).collect();
        let prefixes = rk.prefix_fingerprints(&codes);
        for (i, &fp) in prefixes.iter().enumerate() {
            assert_eq!(fp, rk.fingerprint(&codes[..=i]), "prefix length {}", i + 1);
        }
    }

    #[test]
    fn suffix_derivation_matches_direct_hash() {
        let rk = RabinKarp::new(64);
        let codes: Vec<u8> = (0..41).map(|i| (i * 13 % 4) as u8).collect();
        let suffixes = rk.suffix_fingerprints(&codes);
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
        let s1 = rk.suffix_fingerprints(&r1);
        let p2 = rk.prefix_fingerprints(&r2);
        // r1's 4-length suffix is [0,1,2,3] = r2's 4-length prefix.
        assert_eq!(s1[4], p2[3]);
        // And a non-matching length disagrees.
        assert_ne!(s1[5], p2[2]);
    }

    #[test]
    fn empty_and_single_base_inputs() {
        let rk = RabinKarp::new(8);
        assert!(rk.prefix_fingerprints(&[]).is_empty());
        assert!(rk.suffix_fingerprints(&[]).is_empty());
        let one = rk.prefix_fingerprints(&[2]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0], rk.fingerprint(&[2]));
        assert_eq!(rk.suffix_fingerprints(&[2]), one);
    }

    #[test]
    #[should_panic(expected = "read longer than place table")]
    fn read_longer_than_table_panics() {
        RabinKarp::new(4).prefix_fingerprints(&[0; 5]);
    }

    #[test]
    fn scan_equals_horner_for_random_reads() {
        check_cases(256, |rng| {
            let codes = rng.vec(1..150, |r| r.below(4) as u8);
            let rk = RabinKarp::new(150);
            let (prefixes, suffixes) = rk.all_fingerprints(&codes);
            for (i, &fp) in prefixes.iter().enumerate() {
                assert_eq!(fp, rk.fingerprint(&codes[..=i]));
            }
            for (i, &fp) in suffixes.iter().enumerate() {
                assert_eq!(fp, rk.fingerprint(&codes[i..]));
            }
        });
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
