//! Vectorized lower/upper bound kernels.
//!
//! Algorithm 2 (overlap detection) computes, for every suffix fingerprint,
//! its lower bound `L`, upper bound `U`, and count `C = U - L` in the sorted
//! prefix-fingerprint window — `GPU_VEC_LOWER_BOUND`, `GPU_VEC_UPPER_BOUND`
//! and `GPU_VEC_DIFFERENCE` in the paper's pseudo-code. These map to
//! Thrust's `lower_bound`/`upper_bound` over a searched range.

use crate::buffer::DeviceBuffer;
use crate::device::Device;
use crate::exec::{par_map_into, par_parts, part_len, ELEMENT_GRAIN};
use crate::kernels::radix::RadixKey;
use crate::stats::KernelCost;

fn search_cost<K>(needles: usize, haystack: usize) -> KernelCost {
    let log = (haystack.max(2) as f64).log2().ceil() as u64;
    KernelCost::new(
        needles as u64 * log,
        needles as u64 * (log * std::mem::size_of::<K>() as u64 + 4),
    )
}

impl Device {
    /// For each needle, the index of the first element of `haystack` that is
    /// `>=` the needle. `haystack` must be sorted ascending.
    pub fn vec_lower_bound<K: RadixKey>(
        &self,
        needles: &DeviceBuffer<K>,
        haystack: &DeviceBuffer<K>,
    ) -> crate::Result<DeviceBuffer<u32>> {
        self.launch_gate()?;
        let mut out = self.alloc::<u32>(needles.len())?;
        self.charge_kernel(
            "vec_lower_bound",
            search_cost::<K>(needles.len(), haystack.len()),
        );
        let hay = haystack.as_slice();
        par_map_into(needles.as_slice(), out.as_mut_slice(), |n| {
            hay.partition_point(|h| h < n) as u32
        });
        Ok(out)
    }

    /// For each needle, the index one past the last element of `haystack`
    /// that is `<=` the needle. `haystack` must be sorted ascending.
    pub fn vec_upper_bound<K: RadixKey>(
        &self,
        needles: &DeviceBuffer<K>,
        haystack: &DeviceBuffer<K>,
    ) -> crate::Result<DeviceBuffer<u32>> {
        self.launch_gate()?;
        let mut out = self.alloc::<u32>(needles.len())?;
        self.charge_kernel(
            "vec_upper_bound",
            search_cost::<K>(needles.len(), haystack.len()),
        );
        let hay = haystack.as_slice();
        par_map_into(needles.as_slice(), out.as_mut_slice(), |n| {
            hay.partition_point(|h| h <= n) as u32
        });
        Ok(out)
    }

    /// Element-wise `u - l` (the paper's `GPU_VEC_DIFFERENCE`): the number of
    /// occurrences of each searched key.
    pub fn vec_difference(
        &self,
        upper: &DeviceBuffer<u32>,
        lower: &DeviceBuffer<u32>,
    ) -> crate::Result<DeviceBuffer<u32>> {
        self.launch_gate()?;
        debug_assert_eq!(upper.len(), lower.len());
        let mut out = self.alloc::<u32>(upper.len())?;
        self.charge_kernel(
            "vec_difference",
            KernelCost::new(upper.len() as u64, upper.len() as u64 * 12),
        );
        let (upper, lower) = (upper.as_slice(), lower.as_slice());
        let step = part_len(out.len(), ELEMENT_GRAIN);
        par_parts(
            out.as_mut_slice()
                .chunks_mut(step)
                .zip(upper.chunks(step).zip(lower.chunks(step))),
            |(out, (upper, lower))| {
                for (o, (u, l)) in out.iter_mut().zip(upper.iter().zip(lower)) {
                    *o = u - l;
                }
            },
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuProfile;
    use stdx::check_cases;

    fn dev() -> Device {
        Device::new(GpuProfile::k40())
    }

    #[test]
    fn bounds_on_array_with_runs() {
        let d = dev();
        let hay = d.h2d(&[2u64, 4, 4, 4, 9]).unwrap();
        let needles = d.h2d(&[1u64, 2, 4, 5, 9, 10]).unwrap();
        let lo = d.vec_lower_bound(&needles, &hay).unwrap();
        let up = d.vec_upper_bound(&needles, &hay).unwrap();
        assert_eq!(d.d2h(&lo), vec![0, 0, 1, 4, 4, 5]);
        assert_eq!(d.d2h(&up), vec![0, 1, 4, 4, 5, 5]);
        let c = d.vec_difference(&up, &lo).unwrap();
        assert_eq!(d.d2h(&c), vec![0, 1, 3, 0, 1, 0]);
    }

    #[test]
    fn empty_haystack_gives_zero_bounds() {
        let d = dev();
        let hay = d.h2d::<u64>(&[]).unwrap();
        let needles = d.h2d(&[3u64]).unwrap();
        assert_eq!(d.d2h(&d.vec_lower_bound(&needles, &hay).unwrap()), vec![0]);
        assert_eq!(d.d2h(&d.vec_upper_bound(&needles, &hay).unwrap()), vec![0]);
    }

    #[test]
    fn empty_needles_give_empty_output() {
        let d = dev();
        let hay = d.h2d(&[1u64, 2]).unwrap();
        let needles = d.h2d::<u64>(&[]).unwrap();
        assert!(d
            .d2h(&d.vec_lower_bound(&needles, &hay).unwrap())
            .is_empty());
    }

    #[test]
    fn works_for_u128_keys() {
        let d = dev();
        let hay = d.h2d(&[1u128 << 90, 1 << 100]).unwrap();
        let needles = d.h2d(&[1u128 << 95]).unwrap();
        assert_eq!(d.d2h(&d.vec_lower_bound(&needles, &hay).unwrap()), vec![1]);
    }

    #[test]
    fn count_matches_naive_occurrences() {
        check_cases(256, |rng| {
            let mut hay = rng.vec(0..120, |r| r.range(0..50));
            let needles = rng.vec(0..60, |r| r.range(0..50));
            hay.sort_unstable();
            let d = dev();
            let hb = d.h2d(&hay).unwrap();
            let nb = d.h2d(&needles).unwrap();
            let lo = d.vec_lower_bound(&nb, &hb).unwrap();
            let up = d.vec_upper_bound(&nb, &hb).unwrap();
            let c = d.vec_difference(&up, &lo).unwrap();
            let counts = d.d2h(&c);
            let lows = d.d2h(&lo);
            for (i, n) in needles.iter().enumerate() {
                let naive = hay.iter().filter(|h| *h == n).count() as u32;
                assert_eq!(counts[i], naive);
                if naive > 0 {
                    // Lower bound points at the first occurrence.
                    assert_eq!(hay[lows[i] as usize], *n);
                }
            }
        });
    }

    #[test]
    fn bounds_agree_across_the_parallel_grain() {
        // Long enough that the searches are cut into parts on several threads.
        let d = dev();
        let hay: Vec<u64> = (0..30_000u64).map(|i| i / 3).collect();
        let needles: Vec<u64> = (0..20_000u64).map(|i| (i * 7) % 10_100).collect();
        let (hb, nb) = (d.h2d(&hay).unwrap(), d.h2d(&needles).unwrap());
        let lo = d.vec_lower_bound(&nb, &hb).unwrap();
        let up = d.vec_upper_bound(&nb, &hb).unwrap();
        let counts = d.d2h(&d.vec_difference(&up, &lo).unwrap());
        for (n, c) in needles.iter().zip(counts) {
            assert_eq!(c, if *n < 10_000 { 3 } else { 0 }, "needle {n}");
        }
    }
}
