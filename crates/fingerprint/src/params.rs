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
    /// `2^64 mod q`: what the high word of a 128-bit value is worth.
    fold: u64,
}

impl HashParams {
    /// Parameters with radix `sigma` and modulus `q ≥ 2`.
    pub const fn new(sigma: u64, q: u64) -> Self {
        assert!(q >= 2, "the modulus must be at least 2");
        HashParams {
            sigma,
            q,
            fold: (u64::MAX % q + 1) % q,
        }
    }

    /// First default parameter set: σ = 5, q = 2^64 − 83 (the second
    /// largest 64-bit prime). A full-width modulus matters beyond collision
    /// resistance: the packed fingerprint's *high* word drives both
    /// fingerprint-range partitioning and width truncation, so its top
    /// bits must carry entropy.
    pub const fn set0() -> Self {
        HashParams::new(5, 18_446_744_073_709_551_533)
    }

    /// Second default parameter set: σ = 11, q = 2^64 − 59 (largest prime
    /// below 2^64).
    pub const fn set1() -> Self {
        HashParams::new(11, 18_446_744_073_709_551_557)
    }

    /// The toy parameters of the paper's worked example in Fig. 5
    /// (radix 4, prime 13) — used by tests that recompute the figure.
    pub const fn fig5() -> Self {
        HashParams::new(4, 13)
    }

    /// `x mod q` without a wide division: `2^64 ≡ fold (mod q)`, so the high
    /// word folds into the low one as `hi · fold + lo`. With a modulus just
    /// below 2^64 (`fold` = 83 or 59) two folds leave a high word only on a
    /// carry rarer than one product in 2^50; the loop takes that case and
    /// every other `q`: `fold < 2^63` always, so each turn roughly halves
    /// the high word until it is gone.
    #[inline]
    fn reduce(&self, x: u128) -> u64 {
        let fold = |x: u128| (x >> 64) * self.fold as u128 + (x as u64) as u128;
        let mut x = fold(fold(x));
        while x >> 64 != 0 {
            x = fold(x);
        }
        let r = x as u64;
        if r >= self.q {
            r % self.q
        } else {
            r
        }
    }

    /// One Horner step, `(h · σ + c) mod q`, for any `h` and `c`.
    #[inline]
    pub fn horner_step(&self, h: u64, c: u8) -> u64 {
        self.reduce(h as u128 * self.sigma as u128 + c as u128)
    }

    /// `(a · b) mod q` without overflow, for any `a` and `b`.
    #[inline]
    pub fn mulmod(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }

    /// `(a + b) mod q` for `a, b < q`.
    #[inline]
    pub fn addmod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q, "addmod operands must be reduced");
        let (sum, carry) = a.overflowing_add(b);
        // With a carry the true sum is 2^64 + sum < 2q, so one wrapping
        // subtraction lands in [0, q).
        if carry || sum >= self.q {
            sum.wrapping_sub(self.q)
        } else {
            sum
        }
    }

    /// `(a − b) mod q` for `a, b < q`.
    #[inline]
    pub fn submod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q, "submod operands must be reduced");
        if a >= b {
            a - b
        } else {
            a.wrapping_sub(b).wrapping_add(self.q)
        }
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

    /// Every modulus shape `reduce` has to handle: tiny (no fold ever
    /// clears the low word), Mersenne, just above 2^63 (`fold` near its cap)
    /// and the two default sets.
    const MODULI: [u64; 6] = [
        13,
        (1 << 31) - 1,
        (1 << 61) - 1,
        (1 << 63) + 29,
        u64::MAX - 82,
        u64::MAX - 58,
    ];

    #[test]
    fn modular_ops_equal_the_wide_division_definition() {
        for q in MODULI {
            let p = HashParams::new(5, q);
            let wide = q as u128;
            let check = |a: u64, b: u64| {
                assert_eq!(p.mulmod(a, b) as u128, a as u128 * b as u128 % wide);
                assert_eq!(p.addmod(a, b) as u128, (a as u128 + b as u128) % wide);
                assert_eq!(
                    p.submod(a, b) as u128,
                    (a as u128 + wide - b as u128) % wide
                );
                let c = (b & 3) as u8;
                assert_eq!(
                    p.horner_step(a, c) as u128,
                    (a as u128 * p.sigma as u128 + c as u128) % wide
                );
            };
            let extremes = [0, 1, q - 1];
            for a in extremes {
                for b in extremes {
                    check(a, b);
                }
            }
            let mut rng = stdx::SplitMix64::new(q);
            for _ in 0..10_000 {
                check(rng.next_u64() % q, rng.next_u64() % q);
            }
        }
    }

    #[test]
    fn mulmod_reduces_unreduced_operands() {
        for q in MODULI {
            let p = HashParams::new(5, q);
            let mut rng = stdx::SplitMix64::new(!q);
            for (a, b) in [(u64::MAX, u64::MAX), (u64::MAX, 1), (q, q)]
                .into_iter()
                .chain((0..10_000).map(|_| (rng.next_u64(), rng.next_u64())))
            {
                assert_eq!(
                    p.mulmod(a, b) as u128,
                    a as u128 * b as u128 % q as u128,
                    "{a} * {b} mod {q}"
                );
            }
        }
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
