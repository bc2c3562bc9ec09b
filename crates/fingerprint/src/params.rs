//! Hash parameters and place-value tables.

/// Parameters of one Rabin-Karp hash: a radix σ ("a small prime larger than
/// the alphabet size") and a prime modulus q ("a large prime number") —
/// Section III-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashParams {
    /// Radix σ.
    pub sigma: u64,
    /// Prime modulus q (must exceed the radix; may be up to 2^64 − 1 since
    /// products are computed in 128-bit arithmetic).
    pub q: u64,
}

impl HashParams {
    /// First default parameter set: σ = 5, q = 2^64 − 83 (the second
    /// largest 64-bit prime). A full-width modulus matters beyond collision
    /// resistance: the packed fingerprint's *high* word drives both
    /// fingerprint-range partitioning and width truncation, so its top
    /// bits must carry entropy.
    pub fn set0() -> Self {
        HashParams {
            sigma: 5,
            q: 18_446_744_073_709_551_533,
        }
    }

    /// Second default parameter set: σ = 11, q = 2^64 − 59 (largest prime
    /// below 2^64).
    pub fn set1() -> Self {
        HashParams {
            sigma: 11,
            q: 18_446_744_073_709_551_557,
        }
    }

    /// The toy parameters of the paper's worked example in Fig. 5
    /// (radix 4, prime 13) — used by tests that recompute the figure.
    pub fn fig5() -> Self {
        HashParams { sigma: 4, q: 13 }
    }

    /// `(a · b) mod q` without overflow.
    pub fn mulmod(&self, a: u64, b: u64) -> u64 {
        ((a as u128 * b as u128) % self.q as u128) as u64
    }

    /// `(a + b) mod q` without overflow.
    pub fn addmod(&self, a: u64, b: u64) -> u64 {
        ((a as u128 + b as u128) % self.q as u128) as u64
    }

    /// `(a − b) mod q`, wrapped into `[0, q)`.
    pub fn submod(&self, a: u64, b: u64) -> u64 {
        let (a, b, q) = (a as u128, b as u128, self.q as u128);
        (((a + q) - (b % q)) % q) as u64
    }
}

/// The precomputed place values `M[i] = σ^i mod q`.
///
/// "This step is done once for the entire program and reused for all reads"
/// (Section III-A): one table per parameter set, sized to the read length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaceValues {
    params: HashParams,
    m: Vec<u64>,
}

impl PlaceValues {
    /// Table of `σ^0 .. σ^max_len mod q` (inclusive, so `get(max_len)` is
    /// valid — the suffix derivation indexes by suffix *length*).
    pub fn new(params: HashParams, max_len: usize) -> Self {
        let mut m = Vec::with_capacity(max_len + 1);
        let mut v = 1u64 % params.q;
        for _ in 0..=max_len {
            m.push(v);
            v = params.mulmod(v, params.sigma);
        }
        PlaceValues { params, m }
    }

    /// The parameters this table belongs to.
    pub fn params(&self) -> HashParams {
        self.params
    }

    /// `σ^i mod q`.
    pub fn get(&self, i: usize) -> u64 {
        self.m[i]
    }

    /// Largest exponent in the table.
    pub fn max_len(&self) -> usize {
        self.m.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_values_are_powers_of_sigma() {
        let p = HashParams::fig5();
        let pv = PlaceValues::new(p, 6);
        assert_eq!(pv.get(0), 1);
        assert_eq!(pv.get(1), 4);
        assert_eq!(pv.get(2), 3); // 16 mod 13
        assert_eq!(pv.get(3), 12); // 64 mod 13
        assert_eq!(pv.max_len(), 6);
    }

    #[test]
    fn modular_ops_stay_in_range_at_extreme_values() {
        let p = HashParams::set1(); // q just below 2^64
        let a = p.q - 1;
        assert_eq!(p.addmod(a, a), p.q - 2);
        assert_eq!(p.mulmod(a, a), 1); // (-1)^2 = 1 mod q
        assert_eq!(p.submod(0, a), 1);
        assert_eq!(p.submod(a, a), 0);
    }

    #[test]
    fn default_sets_use_distinct_primes_and_radixes() {
        let (a, b) = (HashParams::set0(), HashParams::set1());
        assert_ne!(a.sigma, b.sigma);
        assert_ne!(a.q, b.q);
        assert!(
            a.sigma > 4 && b.sigma > 4,
            "radix must exceed alphabet size"
        );
    }

    #[test]
    fn place_values_wrap_modulo_q() {
        let pv = PlaceValues::new(HashParams::fig5(), 12);
        for i in 0..=12 {
            assert!(pv.get(i) < 13);
        }
        // σ^6 = 4096 mod 13 = 1, so the sequence is periodic with period 6.
        assert_eq!(pv.get(6), 1);
        assert_eq!(pv.get(7), 4);
    }
}
