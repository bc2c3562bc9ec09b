//! Device-resident buffers.

use crate::device::DeviceInner;
use std::sync::Arc;

/// A typed allocation in virtual device memory.
///
/// Created by [`crate::Device::alloc`] / [`crate::Device::h2d`]; the bytes it
/// occupies count against the device capacity until it is dropped. The
/// backing store is host RAM — the point is the *accounting*, which makes
/// out-of-memory behave exactly like `cudaMalloc` failing on a 6 GB card.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    pub(crate) data: Vec<T>,
    pub(crate) bytes: u64,
    pub(crate) owner: Arc<DeviceInner>,
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
        self.bytes
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

    /// Shrink the buffer to `len` elements, releasing the freed bytes back
    /// to the device. Mirrors the paper's `RESIZE` step in Algorithms 1/2.
    ///
    /// # Panics
    /// Panics if `len` exceeds the current length.
    pub fn truncate(&mut self, len: usize) {
        assert!(
            len <= self.data.len(),
            "truncate({len}) beyond buffer length {}",
            self.data.len()
        );
        let elem = std::mem::size_of::<T>() as u64;
        let freed = (self.data.len() - len) as u64 * elem;
        self.data.truncate(len);
        self.data.shrink_to_fit();
        self.bytes -= freed;
        self.owner.release(freed);
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.owner.release(self.bytes);
    }
}

/// Device bytes held with no contents behind them.
///
/// Created by [`crate::Device::reserve`] for space a fused pipeline keeps
/// on the device while the host executes it some other way (the map
/// phase's staged batch and its fingerprint outputs): the bytes count
/// against the device capacity until it is dropped, exactly as a
/// [`DeviceBuffer`] of that size would, and no host memory is taken.
#[derive(Debug)]
pub struct DeviceReservation {
    pub(crate) bytes: u64,
    pub(crate) owner: Arc<DeviceInner>,
}

impl Drop for DeviceReservation {
    fn drop(&mut self) {
        self.owner.release(self.bytes);
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
    fn truncate_releases_bytes() {
        let dev = tiny_device();
        let mut buf = dev.h2d(&[1u64, 2, 3, 4]).unwrap();
        assert_eq!(dev.stats().mem_used, 32);
        buf.truncate(1);
        assert_eq!(buf.len(), 1);
        assert_eq!(dev.stats().mem_used, 8);
        assert_eq!(buf.as_slice(), &[1]);
    }

    #[test]
    #[should_panic(expected = "beyond buffer length")]
    fn truncate_growing_panics() {
        let dev = tiny_device();
        let mut buf = dev.h2d(&[1u8]).unwrap();
        buf.truncate(2);
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
    fn zero_len_buffer_is_empty() {
        let dev = tiny_device();
        let buf = dev.alloc::<u32>(0).unwrap();
        assert!(buf.is_empty());
        assert_eq!(buf.bytes(), 0);
    }
}
