//! The gather kernel.
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
    fn empty_gather() {
        let d = dev();
        let src = d.h2d::<u64>(&[]).unwrap();
        let idx = d.h2d::<u32>(&[]).unwrap();
        assert!(d.d2h(&d.gather(&src, &idx).unwrap()).is_empty());
    }
}
