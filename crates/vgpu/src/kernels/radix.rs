//! LSD radix sort of key-value pairs on the device.
//!
//! The paper cites Merrill & Grimshaw's GPU radix sort (reference \[38\]) for the O(m_d)
//! per-chunk sorting bound. We implement the classic least-significant-digit
//! radix sort over 8-bit digits with a double buffer, which has the same
//! asymptotics and, importantly for the timing model, the same memory
//! traffic structure: `key-bytes` passes, each streaming every pair twice.

use crate::buffer::DeviceBuffer;
use crate::device::{Device, DeviceError};
use crate::stats::KernelCost;

/// Keys sortable by byte-wise LSD radix passes.
pub trait RadixKey: Copy + Ord + Default + Send + Sync {
    /// Width of the key in bytes (= number of radix passes).
    const BYTES: usize;
    /// The `i`-th least-significant byte of the key.
    fn byte(&self, i: usize) -> u8;
}

impl RadixKey for u32 {
    const BYTES: usize = 4;
    fn byte(&self, i: usize) -> u8 {
        (*self >> (8 * i)) as u8
    }
}

impl RadixKey for u64 {
    const BYTES: usize = 8;
    fn byte(&self, i: usize) -> u8 {
        (*self >> (8 * i)) as u8
    }
}

impl RadixKey for u128 {
    const BYTES: usize = 16;
    fn byte(&self, i: usize) -> u8 {
        (*self >> (8 * i)) as u8
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

        let mut src_k = keys.as_mut_slice();
        let mut src_v = vals.as_mut_slice();
        let mut dst_k = scratch_k.as_mut_slice();
        let mut dst_v = scratch_v.as_mut_slice();
        let mut flipped = false;

        // One sweep builds the digit histogram of every pass: a histogram
        // counts a multiset, which no earlier scatter changes.
        let mut counts = vec![[0usize; 256]; K::BYTES];
        for k in src_k.iter() {
            for (pass, counts) in counts.iter_mut().enumerate() {
                counts[k.byte(pass) as usize] += 1;
            }
        }

        for (pass, counts) in counts.iter().enumerate() {
            // A digit every key shares leaves the order as it is.
            if counts.contains(&n) {
                continue;
            }
            // Exclusive prefix sum over digit counts.
            let mut offsets = [0usize; 256];
            let mut total = 0;
            for d in 0..256 {
                offsets[d] = total;
                total += counts[d];
            }
            // Stable scatter.
            for i in 0..n {
                let d = src_k[i].byte(pass) as usize;
                let o = offsets[d];
                offsets[d] += 1;
                dst_k[o] = src_k[i];
                dst_v[o] = src_v[i];
            }
            std::mem::swap(&mut src_k, &mut dst_k);
            std::mem::swap(&mut src_v, &mut dst_v);
            flipped = !flipped;
        }

        if flipped {
            // Result lives in the scratch buffers; copy back.
            dst_k.copy_from_slice(src_k);
            dst_v.copy_from_slice(src_v);
        }
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
        // distinct keys, so equal ones must keep their input order
        // whatever passes are skipped.
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

        // All keys equal: every pass is skipped and nothing moves.
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
        assert_eq!(0xAB00u64.byte(1), 0xAB);
        assert_eq!((0x5u128 << 120).byte(15), 0x05);
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
