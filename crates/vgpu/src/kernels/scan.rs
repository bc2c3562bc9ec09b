//! Prefix-scan kernels.
//!
//! The contig-generation phase (Section III-D) computes path offsets with an
//! *exclusive* prefix scan and contig sizes with an inclusive scan of
//! overhang lengths. The scans here follow the Hillis-Steele structure: a
//! double-buffered log-step loop, the same communication pattern the paper
//! draws in Fig. 5 for fingerprint generation.

use crate::buffer::DeviceBuffer;
use crate::device::Device;
use crate::stats::KernelCost;

fn scan_cost(n: usize, elem: usize) -> KernelCost {
    let steps = (n.max(2) as f64).log2().ceil() as u64;
    KernelCost::new(steps * n as u64, steps * n as u64 * 2 * elem as u64)
}

impl Device {
    /// In-place inclusive prefix sum using Hillis-Steele doubling offsets.
    pub fn inclusive_scan(&self, buf: &mut DeviceBuffer<u64>) -> crate::Result<()> {
        self.launch_gate()?;
        let n = buf.len();
        self.charge_kernel("inclusive_scan", scan_cost(n, 8));
        let mut scratch = self.alloc::<u64>(n)?;
        let data = buf.as_mut_slice();
        let tmp = scratch.as_mut_slice();
        let mut offset = 1usize;
        while offset < n {
            // One Hillis-Steele step: every lane adds the lane `offset` to
            // its left; lanes below `offset` pass through.
            for i in 0..n {
                tmp[i] = if i >= offset {
                    data[i] + data[i - offset]
                } else {
                    data[i]
                };
            }
            data.copy_from_slice(tmp);
            offset *= 2;
        }
        Ok(())
    }

    /// Exclusive prefix sum (`out[0] = 0`); returns the total as well, which
    /// callers use as the allocation size for the scanned layout.
    pub fn exclusive_scan(&self, buf: &mut DeviceBuffer<u64>) -> crate::Result<u64> {
        self.launch_gate()?;
        let n = buf.len();
        if n == 0 {
            self.charge_kernel("exclusive_scan", KernelCost::default());
            return Ok(0);
        }
        self.inclusive_scan(buf)?;
        self.charge_kernel(
            "exclusive_scan_shift",
            KernelCost::new(n as u64, n as u64 * 16),
        );
        let data = buf.as_mut_slice();
        let total = data[n - 1];
        for i in (1..n).rev() {
            data[i] = data[i - 1];
        }
        data[0] = 0;
        Ok(total)
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
    fn inclusive_scan_small() {
        let d = dev();
        let mut b = d.h2d(&[1u64, 2, 3, 4]).unwrap();
        d.inclusive_scan(&mut b).unwrap();
        assert_eq!(d.d2h(&b), vec![1, 3, 6, 10]);
    }

    #[test]
    fn exclusive_scan_returns_total() {
        let d = dev();
        let mut b = d.h2d(&[5u64, 1, 2]).unwrap();
        let total = d.exclusive_scan(&mut b).unwrap();
        assert_eq!(total, 8);
        assert_eq!(d.d2h(&b), vec![0, 5, 6]);
    }

    #[test]
    fn scans_handle_trivial_lengths() {
        let d = dev();
        let mut empty = d.h2d::<u64>(&[]).unwrap();
        assert_eq!(d.exclusive_scan(&mut empty).unwrap(), 0);

        let mut one = d.h2d(&[9u64]).unwrap();
        d.inclusive_scan(&mut one).unwrap();
        assert_eq!(d.d2h(&one), vec![9]);
        let mut one = d.h2d(&[9u64]).unwrap();
        assert_eq!(d.exclusive_scan(&mut one).unwrap(), 9);
        assert_eq!(d.d2h(&one), vec![0]);
    }

    #[test]
    fn inclusive_matches_sequential() {
        check_cases(256, |rng| {
            let xs = rng.vec(0..200, |r| r.range(0..1000));
            let d = dev();
            let mut b = d.h2d(&xs).unwrap();
            d.inclusive_scan(&mut b).unwrap();
            let got = d.d2h(&b);
            let mut acc = 0u64;
            let expect: Vec<u64> = xs
                .iter()
                .map(|x| {
                    acc += x;
                    acc
                })
                .collect();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn exclusive_matches_sequential() {
        check_cases(256, |rng| {
            let xs = rng.vec(1..200, |r| r.range(0..1000));
            let d = dev();
            let mut b = d.h2d(&xs).unwrap();
            let total = d.exclusive_scan(&mut b).unwrap();
            let got = d.d2h(&b);
            let mut acc = 0u64;
            let mut expect = Vec::with_capacity(xs.len());
            for x in &xs {
                expect.push(acc);
                acc += x;
            }
            assert_eq!(got, expect);
            assert_eq!(total, acc);
        });
    }
}
