//! Stand-in for the `rand` 0.8 items `genome::sim` uses: a seedable
//! generator with `gen_bool` and `gen_range` over integer ranges.
//!
//! The sandbox has no crate registry, so `benchmark/Cargo.toml` patches
//! `rand` to this package. The stream is xoshiro256** seeded through
//! splitmix64, not the published crate's ChaCha12: the same seed gives the
//! same reads on every run of this build, but not the reads the published
//! crate would give.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A range `gen_range` can draw from.
pub trait SampleRange<T> {
    fn sample(self, rng: &mut dyn RngCore) -> T;
}

pub trait Rng: RngCore + Sized {
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} is not a probability");
        // 53 uniform bits, as many as an f64 holds exactly.
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + Sized> Rng for R {}

/// Uniform in `0..span` by rejection, so no value is favoured.
fn below(rng: &mut dyn RngCore, span: u64) -> u64 {
    let zone = u64::MAX - (u64::MAX % span + 1) % span;
    loop {
        let x = rng.next_u64();
        if x <= zone {
            return x % span;
        }
    }
}

macro_rules! sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}

sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub mod rngs {
    use super::{RngCore, SeedableRng};

    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut x = seed;
            let mut s = [0u64; 4];
            for word in &mut s {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}
