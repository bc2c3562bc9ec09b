use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 step: advance `x` by the golden-ratio increment and mix.
/// Stored index files, PCT schedule seeds and `Prob` failpoint draws are
/// functions of this exact bit pattern; it must never change.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The splitmix64 stream: output `i` of seed `s` is
/// `splitmix64(s + i * GOLDEN)`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        out
    }

    pub fn next_u128(&mut self) -> u128 {
        u128::from(self.next_u64()) << 64 | u128::from(self.next_u64())
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below `n / 2^64`).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value to return");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `range` (see [`SplitMix64::below`]).
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        range.start + self.below(range.end - range.start)
    }

    /// A vector whose length is uniform in `len` and whose items `item` draws.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.range(len.start as u64..len.end as u64) as usize;
        (0..n).map(|_| item(self)).collect()
    }

    /// `true` with probability `p` (53 uniform bits against `p`).
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Runs `case` once per seed in `0..cases`, each with a fresh generator.
/// When a case panics, the seed is printed before the panic continues, so
/// the failure replays with `case(&mut SplitMix64::new(seed))`.
pub fn check_cases(cases: u64, case: impl Fn(&mut SplitMix64)) {
    for seed in 0..cases {
        let run = catch_unwind(AssertUnwindSafe(|| case(&mut SplitMix64::new(seed))));
        if let Err(panic) = run {
            eprintln!("check_cases: failing case has seed {seed}");
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_vectors() {
        // First outputs of the reference splitmix64.c seeded with 0 and with
        // 1234567; the stream and the step function must agree with both.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn below_and_chance_stay_in_range_and_roughly_uniform() {
        let mut rng = SplitMix64::new(7);
        let mut hist = [0u32; 5];
        for _ in 0..50_000 {
            hist[rng.below(5) as usize] += 1;
        }
        assert!(
            hist.iter().all(|&c| (9_000..11_000).contains(&c)),
            "{hist:?}"
        );
        assert_eq!(rng.below(1), 0);
        assert!((0..1000).all(|_| (10..13).contains(&rng.range(10..13))));
        let lens: Vec<usize> = (0..200)
            .map(|_| rng.vec(2..5, |r| r.next_u64()).len())
            .collect();
        assert!(lens.iter().all(|l| (2..5).contains(l)));
        assert!((2..5).all(|l| lens.contains(&l)));
        let heads = (0..50_000).filter(|_| rng.chance(0.25)).count();
        assert!((11_500..13_500).contains(&heads), "{heads}");
        assert!(!(0..1000).any(|_| rng.chance(0.0)));
        assert!((0..1000).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn check_cases_runs_every_seed_and_lets_the_panic_through() {
        let seen = std::sync::Mutex::new(Vec::new());
        check_cases(4, |rng| seen.lock().unwrap().push(rng.next_u64()));
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen, (0..4).map(splitmix64).collect::<Vec<_>>());
        let caught =
            catch_unwind(|| check_cases(8, |rng| assert_ne!(rng.next_u64(), splitmix64(3))));
        assert!(caught.is_err());
    }
}
