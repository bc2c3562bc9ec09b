//! Device merge of two sorted key-value runs (the `GPU_MERGE` step of the
//! paper's Algorithm 1, line 16).

use crate::buffer::DeviceBuffer;
use crate::device::{Device, DeviceError};
use crate::kernels::radix::RadixKey;
use crate::stats::KernelCost;

impl Device {
    /// Merge two key-sorted runs into a freshly allocated sorted run.
    /// Stable: on equal keys, elements of `a` precede elements of `b`.
    pub fn merge_pairs<K: RadixKey>(
        &self,
        a_keys: &DeviceBuffer<K>,
        a_vals: &DeviceBuffer<u32>,
        b_keys: &DeviceBuffer<K>,
        b_vals: &DeviceBuffer<u32>,
    ) -> crate::Result<(DeviceBuffer<K>, DeviceBuffer<u32>)> {
        self.launch_gate()?;
        if a_keys.len() != a_vals.len() || b_keys.len() != b_vals.len() {
            return Err(DeviceError::BadLaunch(
                "merge_pairs: key/value length mismatch".into(),
            ));
        }
        let n = a_keys.len() + b_keys.len();
        let mut out_k = self.alloc::<K>(n)?;
        let mut out_v = self.alloc::<u32>(n)?;

        let pair_bytes = (std::mem::size_of::<K>() + 4) as u64;
        // Path-merging with wide keys sustains about half of streaming
        // bandwidth (diverging binary probes); see the matching note in
        // the radix kernel.
        self.charge_kernel(
            "merge_pairs",
            KernelCost::new(n as u64, n as u64 * pair_bytes * 2 * 2),
        );

        let (ak, av) = (a_keys.as_slice(), a_vals.as_slice());
        let (bk, bv) = (b_keys.as_slice(), b_vals.as_slice());
        let (ok, ov) = (out_k.as_mut_slice(), out_v.as_mut_slice());
        let (mut i, mut j) = (0usize, 0usize);
        for o in 0..n {
            let take_a = j >= bk.len() || (i < ak.len() && ak[i] <= bk[j]);
            if take_a {
                ok[o] = ak[i];
                ov[o] = av[i];
                i += 1;
            } else {
                ok[o] = bk[j];
                ov[o] = bv[j];
                j += 1;
            }
        }
        Ok((out_k, out_v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuProfile;
    use stdx::check_cases;

    fn merge(a: &[(u64, u32)], b: &[(u64, u32)]) -> Vec<(u64, u32)> {
        let dev = Device::new(GpuProfile::k40());
        let ak = dev.h2d(&a.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap();
        let av = dev.h2d(&a.iter().map(|p| p.1).collect::<Vec<_>>()).unwrap();
        let bk = dev.h2d(&b.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap();
        let bv = dev.h2d(&b.iter().map(|p| p.1).collect::<Vec<_>>()).unwrap();
        let (ok, ov) = dev.merge_pairs(&ak, &av, &bk, &bv).unwrap();
        dev.d2h(&ok).into_iter().zip(dev.d2h(&ov)).collect()
    }

    #[test]
    fn merges_interleaved_runs() {
        let got = merge(&[(1, 10), (4, 40)], &[(2, 20), (3, 30), (5, 50)]);
        assert_eq!(got, vec![(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
    }

    #[test]
    fn merge_with_empty_side_copies_other() {
        assert_eq!(merge(&[], &[(7, 70)]), vec![(7, 70)]);
        assert_eq!(merge(&[(7, 70)], &[]), vec![(7, 70)]);
        assert_eq!(merge(&[], &[]), vec![]);
    }

    #[test]
    fn equal_keys_prefer_left_run() {
        let got = merge(&[(5, 1)], &[(5, 2)]);
        assert_eq!(got, vec![(5, 1), (5, 2)]);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let dev = Device::new(GpuProfile::k40());
        let k = dev.h2d(&[1u64]).unwrap();
        let v = dev.h2d(&[1u32, 2]).unwrap();
        let e = dev.h2d::<u64>(&[]).unwrap();
        let ev = dev.h2d::<u32>(&[]).unwrap();
        assert!(dev.merge_pairs(&k, &v, &e, &ev).is_err());
    }

    #[test]
    fn merge_equals_sorted_concat() {
        check_cases(256, |rng| {
            let mut a = rng.vec(0..150, |r| (r.next_u64(), r.next_u64() as u32));
            let mut b = rng.vec(0..150, |r| (r.next_u64(), r.next_u64() as u32));
            a.sort_by_key(|p| p.0);
            b.sort_by_key(|p| p.0);
            let got = merge(&a, &b);
            let mut expect = [a, b].concat();
            expect.sort_by_key(|p| p.0);
            let got_keys: Vec<u64> = got.iter().map(|p| p.0).collect();
            let exp_keys: Vec<u64> = expect.iter().map(|p| p.0).collect();
            assert_eq!(got_keys, exp_keys);
        });
    }
}
