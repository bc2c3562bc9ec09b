//! Radix sort of key-value pairs on the device.
//!
//! The paper cites Merrill & Grimshaw's GPU radix sort (reference \[38\]) for the O(m_d)
//! per-chunk sorting bound: a least-significant-digit sort over 8-bit digits
//! with a double buffer, `key-bytes` passes, each streaming every pair
//! twice. That is what a launch is *charged* for. The host *executes* the
//! work-efficient equivalent: one stable bucket pass on the highest bits in
//! which the chunk's keys differ, then a stable sort inside each bucket —
//! the same output, pair for pair, as the byte-wise passes (kept in this
//! file's tests as the oracle).

use crate::buffer::DeviceBuffer;
use crate::device::{Device, DeviceError};
use crate::stats::KernelCost;

/// Keys sortable by byte-wise radix passes.
pub trait RadixKey: Copy + Ord + Default + Send + Sync {
    /// Width of the key in bytes (= number of radix passes charged).
    const BYTES: usize;
    /// The key zero-extended to 128 bits.
    fn widen(self) -> u128;
}

impl RadixKey for u32 {
    const BYTES: usize = 4;
    fn widen(self) -> u128 {
        self.into()
    }
}

impl RadixKey for u64 {
    const BYTES: usize = 8;
    fn widen(self) -> u128 {
        self.into()
    }
}

impl RadixKey for u128 {
    const BYTES: usize = 16;
    fn widen(self) -> u128 {
        self
    }
}

/// Buckets up to this long are insertion-sorted in place; with about two
/// buckets per pair nearly all of them are.
const INSERTION_MAX: usize = 24;

/// Stable sort of one bucket by key. A long bucket (keys that agree on
/// every bucketed bit) goes to std's merge sort, so no input is quadratic.
fn sort_bucket<K: RadixKey>(keys: &mut [K], vals: &mut [u32]) {
    if keys.len() > INSERTION_MAX {
        let mut pairs: Vec<(K, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_by_key(|pair| pair.0);
        for ((key, val), pair) in keys.iter_mut().zip(vals.iter_mut()).zip(pairs) {
            (*key, *val) = pair;
        }
        return;
    }
    for i in 1..keys.len() {
        let (key, val) = (keys[i], vals[i]);
        let mut j = i;
        while j > 0 && keys[j - 1] > key {
            keys[j] = keys[j - 1];
            vals[j] = vals[j - 1];
            j -= 1;
        }
        keys[j] = key;
        vals[j] = val;
    }
}

impl Device {
    /// Sort `keys` (and `vals` along with them) in place, ascending and
    /// stable. Allocates a same-sized double buffer on the device, so the
    /// chunk must leave at least half the device free — the same constraint
    /// that makes the paper's device block-size m_d at most half the card.
    pub fn sort_pairs<K: RadixKey>(
        &self,
        keys: &mut DeviceBuffer<K>,
        vals: &mut DeviceBuffer<u32>,
    ) -> crate::Result<()> {
        self.launch_gate()?;
        if keys.len() != vals.len() {
            return Err(DeviceError::BadLaunch(format!(
                "sort_pairs: {} keys vs {} values",
                keys.len(),
                vals.len()
            )));
        }
        let n = keys.len();
        let mut scratch_k = self.alloc::<K>(n)?;
        let mut scratch_v = self.alloc::<u32>(n)?;

        let pair_bytes = (std::mem::size_of::<K>() + 4) as u64;
        let passes = K::BYTES as u64;
        // Wide-key sorts (128-bit fingerprints exceed Thrust's native key
        // types) sustain roughly a quarter of streaming bandwidth on real
        // devices — scattered digit writes defeat coalescing. The 4×
        // inflation keeps the cross-GPU separation of the paper's Fig. 9
        // visible over the disk time.
        const SORT_EFFICIENCY_INV: u64 = 4;
        self.charge_kernel(
            "radix_sort_pairs",
            KernelCost::new(
                passes * n as u64 * 2,
                passes * n as u64 * pair_bytes * 2 * SORT_EFFICIENCY_INV,
            ),
        );

        // The bits in which the keys differ. A prefix every key shares (the
        // zero bytes above a truncated fingerprint, say) orders nothing.
        let (mut any, mut all) = (0u128, u128::MAX);
        for key in keys.as_slice() {
            any |= key.widen();
            all &= key.widen();
        }
        let varying = any ^ all;
        if n < 2 || varying == 0 {
            return Ok(());
        }

        // Bucket on the ceil(log2 n) + 1 bits from the highest varying one
        // down: about two buckets per pair when those bits are uniform.
        let top = 128 - varying.leading_zeros();
        let bits = (usize::BITS - (n - 1).leading_zeros() + 1).min(16).min(top);
        let shift = top - bits;
        let mask = (1usize << bits) - 1;
        let bucket = |key: &K| (key.widen() >> shift) as usize & mask;

        let mut ends = vec![0usize; 1 << bits];
        for key in keys.as_slice() {
            ends[bucket(key)] += 1;
        }
        let mut total = 0;
        for end in ends.iter_mut() {
            let count = *end;
            *end = total;
            total += count;
        }
        // Stable scatter; each bucket's cursor finishes at the bucket's end.
        let (dst_k, dst_v) = (scratch_k.as_mut_slice(), scratch_v.as_mut_slice());
        for (key, val) in keys.as_slice().iter().zip(vals.as_slice()) {
            let slot = &mut ends[bucket(key)];
            dst_k[*slot] = *key;
            dst_v[*slot] = *val;
            *slot += 1;
        }
        // Keys of one bucket are equal unless they differ below the
        // bucketed bits.
        if varying & ((1u128 << shift) - 1) != 0 {
            let mut start = 0;
            for &end in &ends {
                sort_bucket(&mut dst_k[start..end], &mut dst_v[start..end]);
                start = end;
            }
        }
        // The sorted chunk lives in the double buffer: trade places with it.
        std::mem::swap(&mut keys.data, &mut scratch_k.data);
        std::mem::swap(&mut vals.data, &mut scratch_v.data);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuProfile;
    use stdx::check_cases;

    fn device() -> Device {
        Device::new(GpuProfile::k40())
    }

    fn sort_on_device<K: RadixKey>(keys: &[K], vals: &[u32]) -> (Vec<K>, Vec<u32>) {
        let dev = device();
        let mut k = dev.h2d(keys).unwrap();
        let mut v = dev.h2d(vals).unwrap();
        dev.sort_pairs(&mut k, &mut v).unwrap();
        (dev.d2h(&k), dev.d2h(&v))
    }

    #[test]
    fn sorts_small_u64_input() {
        let (k, v) = sort_on_device(&[5u64, 3, 9, 1], &[50, 30, 90, 10]);
        assert_eq!(k, vec![1, 3, 5, 9]);
        assert_eq!(v, vec![10, 30, 50, 90]);
    }

    #[test]
    fn sorts_u128_keys() {
        let big = u128::MAX - 5;
        let (k, v) = sort_on_device(&[big, 0, 1 << 100, 42], &[0, 1, 2, 3]);
        assert_eq!(k, vec![0, 42, 1 << 100, big]);
        assert_eq!(v, vec![1, 3, 2, 0]);
    }

    #[test]
    fn sort_is_stable_for_duplicate_keys() {
        let keys = vec![7u64, 7, 7, 3, 3];
        let vals = vec![0, 1, 2, 3, 4];
        let (k, v) = sort_on_device(&keys, &vals);
        assert_eq!(k, vec![3, 3, 7, 7, 7]);
        assert_eq!(v, vec![3, 4, 0, 1, 2]);
    }

    #[test]
    fn digits_every_key_shares_are_skipped_without_losing_order() {
        // Truncated 40-bit fingerprints: eleven constant high bytes. Few
        // distinct keys, so equal ones must keep their input order.
        let mut rng = stdx::SplitMix64::new(40);
        let keys: Vec<u128> = (0..2_000)
            .map(|_| (rng.next_u64() % 97) as u128 * 0x01_0101_0101)
            .collect();
        let vals: Vec<u32> = (0..2_000).collect();
        let (got_k, got_v) = sort_on_device(&keys, &vals);
        let mut expect: Vec<(u128, u32)> = keys.iter().copied().zip(vals).collect();
        expect.sort_by_key(|p| p.0);
        assert_eq!(got_k, expect.iter().map(|p| p.0).collect::<Vec<_>>());
        assert_eq!(got_v, expect.iter().map(|p| p.1).collect::<Vec<_>>());

        // All keys equal: nothing moves.
        let (k, v) = sort_on_device(&[9u64; 5], &[4, 3, 2, 1, 0]);
        assert_eq!((k, v), (vec![9; 5], vec![4, 3, 2, 1, 0]));

        // The charge is for all sixteen passes all the same.
        let dev = device();
        let mut k = dev.h2d(&keys).unwrap();
        let mut v = dev.h2d(&[0u32; 2_000]).unwrap();
        dev.sort_pairs(&mut k, &mut v).unwrap();
        assert_eq!(
            dev.stats().per_kernel["radix_sort_pairs"].flops,
            16 * 2_000 * 2
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let (k, v) = sort_on_device::<u64>(&[], &[]);
        assert!(k.is_empty() && v.is_empty());
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let dev = device();
        let mut k = dev.h2d(&[1u64]).unwrap();
        let mut v = dev.h2d(&[1u32, 2]).unwrap();
        assert!(matches!(
            dev.sort_pairs(&mut k, &mut v),
            Err(DeviceError::BadLaunch(_))
        ));
    }

    #[test]
    fn sort_fails_when_scratch_does_not_fit() {
        // Capacity fits the input but not the double buffer.
        let dev = Device::with_capacity(GpuProfile::k40(), 1500);
        let keys: Vec<u64> = (0..100).rev().collect();
        let vals: Vec<u32> = (0..100).collect();
        let mut k = dev.h2d(&keys).unwrap(); // 800 B
        let mut v = dev.h2d(&vals).unwrap(); // 400 B -> 1200 used, scratch needs 1200 more
        assert!(matches!(
            dev.sort_pairs(&mut k, &mut v),
            Err(DeviceError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn scratch_is_released_after_sort() {
        let dev = device();
        let mut k = dev.h2d(&[2u64, 1]).unwrap();
        let mut v = dev.h2d(&[0u32, 1]).unwrap();
        let before = dev.stats().mem_used;
        dev.sort_pairs(&mut k, &mut v).unwrap();
        assert_eq!(dev.stats().mem_used, before);
    }

    #[test]
    fn radix_key_bytes_match_type_widths() {
        assert_eq!(<u32 as RadixKey>::BYTES, 4);
        assert_eq!(<u64 as RadixKey>::BYTES, 8);
        assert_eq!(<u128 as RadixKey>::BYTES, 16);
        assert_eq!(u32::MAX.widen(), 0xFFFF_FFFF);
        assert_eq!(u64::MAX.widen(), u128::from(u64::MAX));
    }

    /// The sort a launch is charged for: one stable counting scatter per
    /// key byte, least significant first.
    fn lsd_sort<K: RadixKey>(keys: &[K], vals: &[u32]) -> (Vec<K>, Vec<u32>) {
        let (mut src_k, mut src_v) = (keys.to_vec(), vals.to_vec());
        let (mut dst_k, mut dst_v) = (src_k.clone(), src_v.clone());
        for pass in 0..K::BYTES {
            let byte = |key: &K| (key.widen() >> (8 * pass)) as u8 as usize;
            let mut offsets = [0usize; 256];
            for key in &src_k {
                offsets[byte(key)] += 1;
            }
            let mut total = 0;
            for offset in offsets.iter_mut() {
                let count = *offset;
                *offset = total;
                total += count;
            }
            for (key, val) in src_k.iter().zip(&src_v) {
                let slot = &mut offsets[byte(key)];
                dst_k[*slot] = *key;
                dst_v[*slot] = *val;
                *slot += 1;
            }
            std::mem::swap(&mut src_k, &mut dst_k);
            std::mem::swap(&mut src_v, &mut dst_v);
        }
        (src_k, src_v)
    }

    trait Narrow: RadixKey + std::fmt::Debug {
        fn narrow(wide: u128) -> Self;
    }
    impl Narrow for u32 {
        fn narrow(wide: u128) -> Self {
            wide as u32
        }
    }
    impl Narrow for u64 {
        fn narrow(wide: u128) -> Self {
            wide as u64
        }
    }
    impl Narrow for u128 {
        fn narrow(wide: u128) -> Self {
            wide
        }
    }

    /// Every key distribution the bucket pass treats differently, at every
    /// size from nothing to the in-memory workload's device block.
    fn agrees_with_both_oracles<K: Narrow>() {
        let width = 8 * K::BYTES as u32;
        let mut rng = stdx::SplitMix64::new(u64::from(width));
        // Constant bits around the varying ones, so a shared prefix and a
        // shared suffix are both non-zero.
        const PATTERN: u128 = 0x5A5A_5A5A_5A5A_5A5A_5A5A_5A5A_5A5A_5A5A;
        type Draw = Box<dyn Fn(&mut stdx::SplitMix64) -> u128>;
        let distributions: Vec<(&str, Draw)> = vec![
            ("uniform", Box::new(|r| r.next_u128())),
            ("all equal", Box::new(|_| PATTERN)),
            (
                "50 distinct values",
                Box::new(|r| u128::from(r.below(50)).wrapping_mul(0x0123_4567_89AB_CDEF_0011)),
            ),
            (
                "differ only below bit 16",
                Box::new(|r| PATTERN & !0xFFFF | r.next_u128() & 0xFFFF),
            ),
            (
                // For u128 keys: only above bit 100.
                "differ only in the top 28 bits",
                Box::new(move |r| {
                    let low = (1u128 << (width - 28)) - 1;
                    PATTERN & low | r.next_u128() & !low
                }),
            ),
            (
                "40-bit truncated",
                Box::new(|r| r.next_u128() & ((1 << 40) - 1)),
            ),
            (
                "one bucket holding 90 % of the chunk",
                Box::new(move |r| {
                    if r.below(10) == 0 {
                        r.next_u128()
                    } else {
                        PATTERN & !0xFFF | r.next_u128() & 0xFFF
                    }
                }),
            ),
        ];
        let check = |name: &str, keys: &[K]| {
            let n = keys.len();
            let vals: Vec<u32> = (0..n as u32).rev().collect();
            let dev = device();
            let mut k = dev.h2d(keys).unwrap();
            let mut v = dev.h2d(&vals).unwrap();
            dev.sort_pairs(&mut k, &mut v).unwrap();
            let got = (dev.d2h(&k), dev.d2h(&v));

            let mut pairs: Vec<(K, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
            pairs.sort_by_key(|pair| pair.0);
            let expect: (Vec<K>, Vec<u32>) = pairs.into_iter().unzip();
            assert!(got == expect, "{name}, n = {n}: differs from sort_by_key");
            assert!(
                got == lsd_sort(keys, &vals),
                "{name}, n = {n}: differs from the LSD passes"
            );
            // Charged as the paper formulates it, whatever ran.
            let stat = &dev.stats().per_kernel["radix_sort_pairs"];
            assert_eq!(stat.launches, 1);
            assert_eq!(stat.flops, (K::BYTES * n * 2) as u64, "{name}, n = {n}");
            assert_eq!(stat.bytes, (K::BYTES * n * (K::BYTES + 4) * 2 * 4) as u64);
        };
        for n in [0, 1, 2, 3, 17, 468, 5_000, 104_857] {
            for (name, draw) in &distributions {
                let keys: Vec<K> = (0..n).map(|_| K::narrow(draw(&mut rng))).collect();
                check(name, &keys);
            }
            let mut keys: Vec<K> = (0..n).map(|_| K::narrow(rng.next_u128())).collect();
            keys.sort_unstable();
            check("already sorted", &keys);
            keys.reverse();
            check("reversed", &keys);
        }
    }

    #[test]
    fn u32_keys_agree_with_sort_by_key_and_the_lsd_passes() {
        agrees_with_both_oracles::<u32>();
    }

    #[test]
    fn u64_keys_agree_with_sort_by_key_and_the_lsd_passes() {
        agrees_with_both_oracles::<u64>();
    }

    #[test]
    fn u128_keys_agree_with_sort_by_key_and_the_lsd_passes() {
        agrees_with_both_oracles::<u128>();
    }

    #[test]
    fn matches_std_sort_u64() {
        check_cases(256, |rng| {
            let pairs = rng.vec(0..300, |r| (r.next_u64(), r.next_u64() as u32));
            let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let vals: Vec<u32> = pairs.iter().map(|p| p.1).collect();
            let (got_k, got_v) = sort_on_device(&keys, &vals);

            let mut expect: Vec<(u64, u32)> = pairs.clone();
            expect.sort_by_key(|p| p.0);
            let exp_k: Vec<u64> = expect.iter().map(|p| p.0).collect();
            assert_eq!(got_k, exp_k);
            // Stability: for equal keys values keep input order, which
            // std's stable sort_by_key also guarantees.
            let exp_v: Vec<u32> = expect.iter().map(|p| p.1).collect();
            assert_eq!(got_v, exp_v);
        });
    }

    #[test]
    fn matches_std_sort_u128() {
        check_cases(256, |rng| {
            let keys = rng.vec(0..200, |r| r.next_u128());
            let vals: Vec<u32> = keys.iter().map(|_| rng.next_u64() as u32).collect();
            let (got_k, _) = sort_on_device(&keys, &vals);
            let mut exp = keys.clone();
            exp.sort_unstable();
            assert_eq!(got_k, exp);
        });
    }
}
