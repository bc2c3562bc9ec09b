//! Gather/scatter kernels.
//!
//! Contig generation copies each path tuple "to the unique location
//! corresponding to its read-ID with a *gather* operation in GPU (i.e.,
//! using the array of read-IDs as a stencil)" (Section III-D).

use crate::buffer::DeviceBuffer;
use crate::device::{Device, DeviceError};
use crate::exec::par_map_into;
use crate::stats::KernelCost;

impl Device {
    /// `out[i] = src[indices[i]]`.
    pub fn gather<T: Default + Clone + Copy + Send + Sync>(
        &self,
        src: &DeviceBuffer<T>,
        indices: &DeviceBuffer<u32>,
    ) -> crate::Result<DeviceBuffer<T>> {
        self.launch_gate()?;
        let elem = std::mem::size_of::<T>() as u64;
        if let Some(&bad) = indices
            .as_slice()
            .iter()
            .find(|&&i| i as usize >= src.len())
        {
            return Err(DeviceError::BadLaunch(format!(
                "gather index {bad} out of range for source of length {}",
                src.len()
            )));
        }
        let mut out = self.alloc::<T>(indices.len())?;
        self.charge_kernel(
            "gather",
            KernelCost::new(indices.len() as u64, indices.len() as u64 * (elem * 2 + 4)),
        );
        let s = src.as_slice();
        par_map_into(indices.as_slice(), out.as_mut_slice(), |&i| s[i as usize]);
        Ok(out)
    }

    /// `out[indices[i]] = src[i]`; `out` has length `out_len`. Indices must
    /// be unique (the contig layout guarantees this: a read belongs to at
    /// most one path position).
    pub fn scatter<T: Default + Clone + Copy + Send + Sync>(
        &self,
        src: &DeviceBuffer<T>,
        indices: &DeviceBuffer<u32>,
        out_len: usize,
    ) -> crate::Result<DeviceBuffer<T>> {
        self.launch_gate()?;
        let elem = std::mem::size_of::<T>() as u64;
        if src.len() != indices.len() {
            return Err(DeviceError::BadLaunch(
                "scatter: src/index length mismatch".into(),
            ));
        }
        if let Some(&bad) = indices.as_slice().iter().find(|&&i| i as usize >= out_len) {
            return Err(DeviceError::BadLaunch(format!(
                "scatter index {bad} out of range for output of length {out_len}"
            )));
        }
        let mut out = self.alloc::<T>(out_len)?;
        self.charge_kernel(
            "scatter",
            KernelCost::new(src.len() as u64, src.len() as u64 * (elem * 2 + 4)),
        );
        let s = src.as_slice();
        let idx = indices.as_slice();
        let o = out.as_mut_slice();
        for i in 0..s.len() {
            o[idx[i] as usize] = s[i];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpuProfile;

    fn dev() -> Device {
        Device::new(GpuProfile::k40())
    }

    #[test]
    fn gather_permutes_by_stencil() {
        let d = dev();
        let src = d.h2d(&[10u64, 20, 30]).unwrap();
        let idx = d.h2d(&[2u32, 0, 1, 2]).unwrap();
        let out = d.gather(&src, &idx).unwrap();
        assert_eq!(d.d2h(&out), vec![30, 10, 20, 30]);
    }

    #[test]
    fn gather_rejects_out_of_range() {
        let d = dev();
        let src = d.h2d(&[1u32]).unwrap();
        let idx = d.h2d(&[1u32]).unwrap();
        assert!(matches!(
            d.gather(&src, &idx),
            Err(DeviceError::BadLaunch(_))
        ));
    }

    #[test]
    fn scatter_inverts_gather_for_permutations() {
        let d = dev();
        let src = d.h2d(&[5u64, 6, 7]).unwrap();
        let perm = d.h2d(&[2u32, 0, 1]).unwrap();
        let scattered = d.scatter(&src, &perm, 3).unwrap();
        assert_eq!(d.d2h(&scattered), vec![6, 7, 5]);
        let gathered = d.gather(&scattered, &perm).unwrap();
        assert_eq!(d.d2h(&gathered), d.d2h(&src));
    }

    #[test]
    fn scatter_validates_lengths_and_range() {
        let d = dev();
        let src = d.h2d(&[1u32, 2]).unwrap();
        let idx = d.h2d(&[0u32]).unwrap();
        assert!(d.scatter(&src, &idx, 4).is_err());
        let idx2 = d.h2d(&[0u32, 9]).unwrap();
        assert!(d.scatter(&src, &idx2, 4).is_err());
    }

    #[test]
    fn empty_gather_and_scatter() {
        let d = dev();
        let src = d.h2d::<u64>(&[]).unwrap();
        let idx = d.h2d::<u32>(&[]).unwrap();
        assert!(d.d2h(&d.gather(&src, &idx).unwrap()).is_empty());
        assert_eq!(d.d2h(&d.scatter(&src, &idx, 0).unwrap()), Vec::<u64>::new());
    }
}
