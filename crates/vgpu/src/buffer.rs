//! Device-resident buffers.

use stdx::Reservation;

/// A typed allocation in virtual device memory.
///
/// Created by [`crate::Device::h2d`] / [`crate::Device::h2d_vec`] and by
/// the kernels for their outputs: a vector plus the device bytes it holds,
/// which count against the device capacity until the buffer is dropped.
/// The backing store is host RAM — the point is the *accounting*, which
/// makes out-of-memory behave exactly like `cudaMalloc` failing on a 6 GB
/// card.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    pub(crate) data: Vec<T>,
    pub(crate) held: Reservation,
}

impl<T> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes this buffer charges against device capacity.
    pub fn bytes(&self) -> u64 {
        self.held.bytes()
    }

    /// Device-side view of the contents. Reading it does *not* model a
    /// transfer — use [`crate::Device::d2h`] when data crosses back to the
    /// host so the PCIe traffic is charged.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable device-side view (for in-place kernels).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use crate::{Device, DeviceError, GpuProfile};

    fn tiny_device() -> Device {
        Device::with_capacity(GpuProfile::k40(), 1024)
    }

    #[test]
    fn alloc_and_drop_balance_usage() {
        let dev = tiny_device();
        {
            let buf = dev.alloc::<u64>(16).unwrap();
            assert_eq!(buf.len(), 16);
            assert_eq!(dev.stats().mem_used, 128);
        }
        assert_eq!(dev.stats().mem_used, 0);
        assert_eq!(dev.stats().mem_peak, 128);
    }

    #[test]
    fn a_reservation_accounts_exactly_as_a_buffer_of_its_bytes() {
        // Usage while 800 B are held, the error of 300 B more, then usage
        // and peak after the drop.
        let reserved = {
            let dev = tiny_device();
            let held = dev.reserve(800).unwrap();
            let in_use = dev.stats().mem_used;
            let over = dev.reserve(300).unwrap_err();
            drop(held);
            let stats = dev.stats();
            (in_use, over, stats.mem_used, stats.mem_peak)
        };
        let allocated = {
            let dev = tiny_device();
            let held = dev.alloc::<u64>(100).unwrap();
            let in_use = dev.stats().mem_used;
            let over = dev.alloc::<u8>(300).unwrap_err();
            drop(held);
            let stats = dev.stats();
            (in_use, over, stats.mem_used, stats.mem_peak)
        };
        let oom = DeviceError::OutOfMemory {
            requested: 300,
            in_use: 800,
            capacity: 1024,
        };
        assert_eq!(reserved, (800, oom, 0, 800));
        assert_eq!(reserved, allocated);
    }

    #[test]
    fn a_buffer_outlives_the_device_handle_that_made_it() {
        let dev = tiny_device();
        let buf = dev.clone().h2d(&[7u64; 16]).unwrap();
        assert_eq!(dev.stats().mem_used, 128);
        assert_eq!(dev.d2h_vec(buf), vec![7; 16]);
        assert_eq!(dev.stats().mem_used, 0);
    }

    #[test]
    fn zero_len_buffer_is_empty() {
        let dev = tiny_device();
        let buf = dev.alloc::<u32>(0).unwrap();
        assert!(buf.is_empty());
        assert_eq!(buf.bytes(), 0);
    }
}
