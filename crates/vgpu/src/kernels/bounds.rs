//! Vectorized lower/upper bound kernels.
//!
//! Algorithm 2 (overlap detection) computes, for every suffix fingerprint,
//! its lower bound `L`, upper bound `U`, and count `C = U - L` in the sorted
//! prefix-fingerprint window — `GPU_VEC_LOWER_BOUND`, `GPU_VEC_UPPER_BOUND`
//! and `GPU_VEC_DIFFERENCE` in the paper's pseudo-code. These map to
//! Thrust's `lower_bound`/`upper_bound` over a searched range.

use crate::buffer::DeviceBuffer;
use crate::device::Device;
use crate::exec::par_map_into;
use crate::kernels::radix::RadixKey;
use crate::stats::KernelCost;

fn search_cost<K>(needles: usize, haystack: usize) -> KernelCost {
    let log = (haystack.max(2) as f64).log2().ceil() as u64;
    KernelCost::new(
        needles as u64 * log,
        needles as u64 * (log * std::mem::size_of::<K>() as u64 + 4),
    )
}

fn difference_cost(len: usize) -> KernelCost {
    KernelCost::new(len as u64, len as u64 * 12)
}

impl Device {
    /// One launch of a bounds kernel, up to its work: the launch gate, the
    /// `u32` output per needle, the charge.
    fn launch_bounds(
        &self,
        kernel: &str,
        needles: usize,
        cost: KernelCost,
    ) -> crate::Result<DeviceBuffer<u32>> {
        self.launch_gate()?;
        let out = self.alloc::<u32>(needles)?;
        self.charge_kernel(kernel, cost);
        Ok(out)
    }

    /// For each needle, the index of the first element of `haystack` that is
    /// `>=` the needle. `haystack` must be sorted ascending.
    pub fn vec_lower_bound<K: RadixKey>(
        &self,
        needles: &DeviceBuffer<K>,
        haystack: &DeviceBuffer<K>,
    ) -> crate::Result<DeviceBuffer<u32>> {
        let cost = search_cost::<K>(needles.len(), haystack.len());
        let mut out = self.launch_bounds("vec_lower_bound", needles.len(), cost)?;
        let hay = haystack.as_slice();
        par_map_into(needles.as_slice(), out.as_mut_slice(), |n| {
            hay.partition_point(|h| h < n) as u32
        });
        Ok(out)
    }

    /// Algorithm 2's three launches over windows that are *both* sorted:
    /// for each needle its lower bound in `haystack` and its occurrence
    /// count there (`upper - lower`). `needles` and `haystack` must be
    /// ascending.
    ///
    /// Charged as the paper formulates it — [`Device::vec_lower_bound`],
    /// `vec_upper_bound` and `vec_difference` gated, reserved and charged
    /// in that order, so a device or a fault plan
    /// cannot tell the two routes apart — and executed as the
    /// work-efficient host equivalent: one merge-join in which the haystack
    /// cursor only moves forward and a repeated needle takes its
    /// predecessor's answer. The upper bounds' buffer is reserved like the
    /// other two and released on return.
    pub fn vec_bounds_sorted<K: RadixKey>(
        &self,
        needles: &DeviceBuffer<K>,
        haystack: &DeviceBuffer<K>,
    ) -> crate::Result<(DeviceBuffer<u32>, DeviceBuffer<u32>)> {
        let (n, hay) = (needles.as_slice(), haystack.as_slice());
        debug_assert!(n.windows(2).all(|w| w[0] <= w[1]), "needles must ascend");
        let search = search_cost::<K>(n.len(), hay.len());
        let mut lower = self.launch_bounds("vec_lower_bound", n.len(), search)?;
        let _upper = self.launch_bounds("vec_upper_bound", n.len(), search)?;
        let mut counts = self.launch_bounds("vec_difference", n.len(), difference_cost(n.len()))?;

        let (mut lo, mut hi) = (0, 0);
        let outputs = lower.as_mut_slice().iter_mut().zip(counts.as_mut_slice());
        for (i, (l, c)) in outputs.enumerate() {
            if i == 0 || n[i] != n[i - 1] {
                lo = hi;
                while lo < hay.len() && hay[lo] < n[i] {
                    lo += 1;
                }
                hi = lo;
                while hi < hay.len() && hay[hi] == n[i] {
                    hi += 1;
                }
            }
            (*l, *c) = (lo as u32, (hi - lo) as u32);
        }
        Ok((lower, counts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{par_parts, part_len, ELEMENT_GRAIN};
    use crate::GpuProfile;
    use stdx::check_cases;

    /// The other two of Algorithm 2's launches as the paper formulates
    /// them: with [`Device::vec_lower_bound`], the oracle of
    /// [`Device::vec_bounds_sorted`].
    impl Device {
        /// For each needle, the index one past the last element of `haystack`
        /// that is `<=` the needle. `haystack` must be sorted ascending.
        fn vec_upper_bound<K: RadixKey>(
            &self,
            needles: &DeviceBuffer<K>,
            haystack: &DeviceBuffer<K>,
        ) -> crate::Result<DeviceBuffer<u32>> {
            let cost = search_cost::<K>(needles.len(), haystack.len());
            let mut out = self.launch_bounds("vec_upper_bound", needles.len(), cost)?;
            let hay = haystack.as_slice();
            par_map_into(needles.as_slice(), out.as_mut_slice(), |n| {
                hay.partition_point(|h| h <= n) as u32
            });
            Ok(out)
        }

        /// Element-wise `u - l` (the paper's `GPU_VEC_DIFFERENCE`): the number of
        /// occurrences of each searched key.
        fn vec_difference(
            &self,
            upper: &DeviceBuffer<u32>,
            lower: &DeviceBuffer<u32>,
        ) -> crate::Result<DeviceBuffer<u32>> {
            debug_assert_eq!(upper.len(), lower.len());
            let mut out =
                self.launch_bounds("vec_difference", upper.len(), difference_cost(upper.len()))?;
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

    /// The oracle: the three binary-search launches, as Algorithm 2 writes
    /// them. `Err` carries the launch that failed.
    fn three_launches<K: RadixKey>(
        d: &Device,
        needles: &[K],
        hay: &[K],
    ) -> crate::Result<(Vec<u32>, Vec<u32>)> {
        let (nb, hb) = (d.h2d(needles)?, d.h2d(hay)?);
        let lower = d.vec_lower_bound(&nb, &hb)?;
        let upper = d.vec_upper_bound(&nb, &hb)?;
        let counts = d.vec_difference(&upper, &lower)?;
        Ok((d.d2h(&lower), d.d2h(&counts)))
    }

    fn co_scan<K: RadixKey>(
        d: &Device,
        needles: &[K],
        hay: &[K],
    ) -> crate::Result<(Vec<u32>, Vec<u32>)> {
        let (nb, hb) = (d.h2d(needles)?, d.h2d(hay)?);
        let (lower, counts) = d.vec_bounds_sorted(&nb, &hb)?;
        Ok((d.d2h(&lower), d.d2h(&counts)))
    }

    /// Sorted needles and haystack over few distinct keys, either side
    /// sometimes empty, the needles' range overlapping the haystack's fully,
    /// partly from either end, or lying wholly below or above it.
    fn sorted_sides<K: RadixKey>(
        rng: &mut stdx::SplitMix64,
        key: impl Fn(u64) -> K,
    ) -> (Vec<K>, Vec<K>) {
        let distinct = rng.range(1..40);
        let needle_base = [100, 100, 90, 110, 0, 200][rng.below(6) as usize];
        let mut side = |len: usize, base: u64| {
            let len = if rng.chance(0.1) { 0 } else { len };
            let mut keys = rng.vec(0..len.max(1), |r| key(base + r.below(distinct)));
            keys.sort_unstable();
            keys
        };
        (side(300, needle_base), side(300, 100))
    }

    fn co_scan_equals_three_launches<K: RadixKey + std::fmt::Debug>(key: impl Fn(u64) -> K) {
        check_cases(256, |rng| {
            let (needles, hay) = sorted_sides(rng, &key);
            // A small device, so that the reservations are part of the case.
            let capacity = 64 * (needles.len() + hay.len()) as u64 + 64;
            let device = || {
                let d = Device::with_capacity(GpuProfile::k40(), capacity);
                d.set_faults(faultsim::Faults::from_plan(&faultsim::FaultPlan::new()));
                d
            };
            let (oracle, scan) = (device(), device());
            assert_eq!(
                co_scan(&scan, &needles, &hay).unwrap(),
                three_launches(&oracle, &needles, &hay).unwrap()
            );
            // Launches, per-kernel launches / flops / bytes / seconds,
            // transfer bytes, peak: all of it.
            assert_eq!(scan.stats(), oracle.stats());
            assert_eq!(scan.stats().kernel_launches, 3);
            assert_eq!(
                scan.faults().hits(faultsim::KERNEL_LAUNCH),
                oracle.faults().hits(faultsim::KERNEL_LAUNCH)
            );

            // A fault on the Nth launch stops both routes at that launch,
            // with the launches before it charged and nothing after.
            for nth in 1..=3 {
                let plan = faultsim::FaultPlan::new().fail_at(faultsim::KERNEL_LAUNCH, nth);
                let (oracle, scan) = (device(), device());
                oracle.set_faults(faultsim::Faults::from_plan(&plan));
                scan.set_faults(faultsim::Faults::from_plan(&plan));
                let expect = three_launches(&oracle, &needles, &hay).unwrap_err();
                assert_eq!(co_scan(&scan, &needles, &hay).unwrap_err(), expect);
                assert!(matches!(expect, crate::DeviceError::Fault(_)));
                assert_eq!(scan.stats(), oracle.stats(), "fault at launch {nth}");
                assert_eq!(scan.stats().kernel_launches, nth - 1);
                assert_eq!(scan.faults().injected(), oracle.faults().injected());
            }
        });
    }

    #[test]
    fn co_scan_of_sorted_windows_equals_the_three_launches() {
        co_scan_equals_three_launches(|k| k);
        co_scan_equals_three_launches(|k| u128::from(k) << 70 | 5);
    }

    #[test]
    fn co_scan_runs_out_of_memory_where_the_three_launches_do() {
        // Room for the uploads and two of the three outputs.
        let needles: Vec<u64> = (0..10).collect();
        let capacity = (2 * needles.len() * 8 + 2 * needles.len() * 4) as u64;
        let (oracle, scan) = (
            Device::with_capacity(GpuProfile::k40(), capacity),
            Device::with_capacity(GpuProfile::k40(), capacity),
        );
        let expect = three_launches(&oracle, &needles, &needles).unwrap_err();
        assert!(matches!(expect, crate::DeviceError::OutOfMemory { .. }));
        assert_eq!(co_scan(&scan, &needles, &needles).unwrap_err(), expect);
        assert_eq!(scan.stats(), oracle.stats());
        assert_eq!(scan.stats().mem_used, 0);
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
