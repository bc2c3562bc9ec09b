//! The virtual device: allocation accounting, transfers, and time charging.

use crate::buffer::DeviceBuffer;
use crate::profile::GpuProfile;
use crate::stats::{DeviceStats, KernelCost, KernelStat, LAUNCH_OVERHEAD_S};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::sync::Mutex;
use stdx::{lock, Ledger, Reservation};

/// Errors surfaced by device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// An allocation would exceed the device capacity.
    OutOfMemory {
        /// Bytes requested by the failed allocation.
        requested: u64,
        /// Bytes currently in use.
        in_use: u64,
        /// Configured capacity.
        capacity: u64,
    },
    /// Kernel arguments were inconsistent (e.g. key/value length mismatch).
    BadLaunch(String),
    /// A deterministic injected fault (see `faultsim` and ROBUSTNESS.md).
    Fault(faultsim::FaultError),
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "device out of memory: requested {requested} B with {in_use} B in use of {capacity} B"
            ),
            DeviceError::BadLaunch(msg) => write!(f, "bad kernel launch: {msg}"),
            DeviceError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DeviceError {}

impl From<faultsim::FaultError> for DeviceError {
    fn from(e: faultsim::FaultError) -> Self {
        DeviceError::Fault(e)
    }
}

impl From<stdx::OverBudget> for DeviceError {
    fn from(e: stdx::OverBudget) -> Self {
        DeviceError::OutOfMemory {
            requested: e.requested,
            in_use: e.in_use,
            capacity: e.capacity,
        }
    }
}

#[derive(Debug)]
struct DeviceInner {
    memory: Ledger,
    counters: Mutex<Counters>,
    faults: Mutex<faultsim::Faults>,
}

#[derive(Debug, Default)]
struct Counters {
    kernel_launches: u64,
    kernel_seconds: f64,
    h2d_bytes: u64,
    d2h_bytes: u64,
    transfer_seconds: f64,
    per_kernel: BTreeMap<String, KernelStat>,
}

/// A virtual GPU.
///
/// Cheap to clone (all clones share allocation accounting and statistics),
/// which mirrors how multiple host threads share one physical device.
#[derive(Clone)]
pub struct Device {
    profile: GpuProfile,
    inner: Arc<DeviceInner>,
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("profile", &self.profile.name)
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl Device {
    /// A device with the full physical memory of `profile`.
    pub fn new(profile: GpuProfile) -> Self {
        let capacity = profile.device_mem_bytes;
        Self::with_capacity(profile, capacity)
    }

    /// A device whose usable memory is capped at `capacity` bytes. Used by
    /// the scaled-down experiments: a "12 GB K40" at scale 20,000 becomes a
    /// device with ~600 KB of usable memory but K40 bandwidth ratios.
    pub fn with_capacity(profile: GpuProfile, capacity: u64) -> Self {
        Device {
            profile,
            inner: Arc::new(DeviceInner {
                memory: Ledger::new(capacity),
                counters: Mutex::new(Counters::default()),
                faults: Mutex::new(faultsim::Faults::disabled()),
            }),
        }
    }

    /// The product profile this device models.
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// Arm fault injection: every public kernel method checks the
    /// `vgpu.launch` failpoint before running. Shared by all clones.
    pub fn set_faults(&self, faults: faultsim::Faults) {
        *lock(&self.inner.faults) = faults;
    }

    /// The fault registry in effect (disabled by default).
    pub fn faults(&self) -> faultsim::Faults {
        lock(&self.inner.faults).clone()
    }

    /// Check the `vgpu.launch` failpoint; kernel methods call this first so
    /// "fail the Nth kernel launch" aborts before any work or charging.
    pub(crate) fn launch_gate(&self) -> crate::Result<()> {
        lock(&self.inner.faults)
            .hit(faultsim::KERNEL_LAUNCH)
            .map_err(DeviceError::from)?;
        Ok(())
    }

    /// Usable capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.memory.capacity()
    }

    /// Bytes of capacity not reserved right now.
    pub fn mem_free(&self) -> u64 {
        self.capacity().saturating_sub(self.inner.memory.used())
    }

    /// Allocate a zero-filled buffer of `len` elements.
    pub(crate) fn alloc<T: Default + Clone>(&self, len: usize) -> crate::Result<DeviceBuffer<T>> {
        let held = self.reserve((len * std::mem::size_of::<T>()) as u64)?;
        Ok(DeviceBuffer {
            data: vec![T::default(); len],
            held,
        })
    }

    /// Hold `bytes` of device memory with no buffer behind them: the
    /// capacity check, the [`DeviceError::OutOfMemory`], `mem_used` and
    /// `mem_peak` are those of a buffer of as many bytes, and the bytes
    /// are released when the reservation is dropped. For device space
    /// whose contents the host never materializes.
    pub fn reserve(&self, bytes: u64) -> crate::Result<Reservation> {
        Ok(self.inner.memory.reserve(bytes)?)
    }

    /// Copy a host slice into a fresh device buffer, charging PCIe time.
    pub fn h2d<T: Clone>(&self, host: &[T]) -> crate::Result<DeviceBuffer<T>> {
        self.h2d_vec(host.to_vec())
    }

    /// [`Device::h2d`] of a vector the host is done with: the same bytes
    /// reserved and charged, and the vector itself becomes the buffer.
    pub fn h2d_vec<T>(&self, host: Vec<T>) -> crate::Result<DeviceBuffer<T>> {
        let held = self.reserve(std::mem::size_of_val(host.as_slice()) as u64)?;
        self.charge_transfer(held.bytes(), 0);
        Ok(DeviceBuffer { data: host, held })
    }

    /// Copy a device buffer back to the host, charging PCIe time.
    pub fn d2h<T: Clone>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.charge_transfer(0, buf.bytes());
        buf.data.clone()
    }

    /// [`Device::d2h`] of a buffer the device is done with: the same bytes
    /// charged, the buffer's reservation released, and its contents handed
    /// back without a copy.
    pub fn d2h_vec<T>(&self, buf: DeviceBuffer<T>) -> Vec<T> {
        self.charge_transfer(0, buf.bytes());
        buf.data
    }

    /// Charge one kernel launch of the given cost to the device clock and
    /// return the modeled seconds charged. Kernels in [`crate::kernels`]
    /// call this; custom kernels built on [`crate::exec`] do too. Only the
    /// counters behind [`Device::stats`] change: no event is emitted.
    pub fn charge_kernel(&self, name: &str, cost: KernelCost) -> f64 {
        let compute_s = cost.flops as f64 / self.profile.compute_ops_per_s();
        let memory_s = cost.bytes as f64 / self.profile.sustained_mem_bytes_per_s();
        let seconds = compute_s.max(memory_s) + LAUNCH_OVERHEAD_S;
        {
            let mut c = lock(&self.inner.counters);
            c.kernel_launches += 1;
            c.kernel_seconds += seconds;
            // The name is allocated for a kernel's first launch only.
            let entry = match c.per_kernel.get_mut(name) {
                Some(entry) => entry,
                None => c.per_kernel.entry(name.to_string()).or_default(),
            };
            entry.launches += 1;
            entry.flops += cost.flops;
            entry.bytes += cost.bytes;
            entry.seconds += seconds;
        }
        seconds
    }

    /// Charge PCIe traffic without materializing buffers — used by fused
    /// pipelines that stage data through the device (e.g. fingerprint
    /// batches whose outputs stream straight into partition files).
    pub fn charge_transfer(&self, h2d_bytes: u64, d2h_bytes: u64) {
        let seconds = (h2d_bytes + d2h_bytes) as f64 / self.profile.pcie_bytes_per_s();
        let mut c = lock(&self.inner.counters);
        c.h2d_bytes += h2d_bytes;
        c.d2h_bytes += d2h_bytes;
        c.transfer_seconds += seconds;
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> DeviceStats {
        let c = lock(&self.inner.counters);
        DeviceStats {
            kernel_launches: c.kernel_launches,
            kernel_seconds: c.kernel_seconds,
            h2d_bytes: c.h2d_bytes,
            d2h_bytes: c.d2h_bytes,
            transfer_seconds: c.transfer_seconds,
            mem_used: self.inner.memory.used(),
            mem_peak: self.inner.memory.peak(),
            per_kernel: c.per_kernel.clone(),
        }
    }

    /// Reset the peak-memory watermark (used between pipeline phases when
    /// reporting per-phase peaks, Tables IV/V).
    pub fn reset_peak(&self) {
        self.inner.memory.reset_peak();
    }

    /// Largest number of `T` elements that fit in the *remaining* device
    /// memory, after reserving `reserved_fraction` of capacity for scratch
    /// space (sorting needs double buffers).
    pub fn elements_that_fit<T>(&self, reserved_fraction: f64) -> usize {
        let usable = (self.capacity() as f64 * (1.0 - reserved_fraction)) as u64;
        (usable as usize) / std::mem::size_of::<T>().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_is_reported_with_context() {
        let dev = Device::with_capacity(GpuProfile::k20x(), 64);
        let _a = dev.alloc::<u64>(4).unwrap(); // 32 bytes
        let err = dev.alloc::<u64>(8).unwrap_err(); // needs 64 more
        match err {
            DeviceError::OutOfMemory {
                requested,
                in_use,
                capacity,
            } => {
                assert_eq!(requested, 64);
                assert_eq!(in_use, 32);
                assert_eq!(capacity, 64);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn transfers_accumulate_bytes_and_time() {
        let dev = Device::new(GpuProfile::k40());
        let buf = dev.h2d(&[0u8; 1000]).unwrap();
        let _ = dev.d2h(&buf);
        let stats = dev.stats();
        assert_eq!(stats.h2d_bytes, 1000);
        assert_eq!(stats.d2h_bytes, 1000);
        assert!(stats.transfer_seconds > 0.0);
    }

    #[test]
    fn moving_transfers_reserve_and_charge_exactly_as_the_copying_ones() {
        let run = |moving: bool| {
            let dev = Device::with_capacity(GpuProfile::k40(), 1000);
            let host: Vec<u64> = (0..100).collect(); // 800 B
            let buf = if moving {
                dev.h2d_vec(host.clone())
            } else {
                dev.h2d(&host)
            }
            .unwrap();
            let over = if moving {
                dev.h2d_vec(vec![0u8; 300])
            } else {
                dev.h2d(&[0u8; 300])
            }
            .unwrap_err();
            let back = if moving {
                dev.d2h_vec(buf)
            } else {
                let back = dev.d2h(&buf);
                drop(buf);
                back
            };
            assert_eq!(back, host);
            (over, dev.stats())
        };
        let (copy_err, copied) = run(false);
        let (move_err, moved) = run(true);
        assert_eq!(
            move_err,
            DeviceError::OutOfMemory {
                requested: 300,
                in_use: 800,
                capacity: 1000,
            }
        );
        assert_eq!(move_err, copy_err);
        // The failed upload reserved nothing; the download released the rest.
        assert_eq!((moved.mem_used, moved.mem_peak), (0, 800));
        assert_eq!((copied.mem_used, copied.mem_peak), (0, 800));
        assert_eq!((moved.h2d_bytes, moved.d2h_bytes), (800, 800));
        assert_eq!((copied.h2d_bytes, copied.d2h_bytes), (800, 800));
        assert_eq!(moved.transfer_seconds, copied.transfer_seconds);
    }

    #[test]
    fn kernel_time_is_roofline_bound() {
        let dev = Device::new(GpuProfile::k40());
        // Pure-compute kernel: time tracks flops.
        dev.charge_kernel("compute", KernelCost::new(1_000_000_000, 0));
        let t1 = dev.stats().kernel_seconds;
        // Pure-memory kernel with traffic that takes much longer than the
        // flops would.
        dev.charge_kernel("memory", KernelCost::new(0, 100_000_000_000));
        let t2 = dev.stats().kernel_seconds - t1;
        let expected_mem = 100_000_000_000.0 / GpuProfile::k40().sustained_mem_bytes_per_s();
        assert!((t2 - expected_mem - LAUNCH_OVERHEAD_S).abs() / expected_mem < 1e-9);
    }

    #[test]
    fn faster_device_charges_less_time_for_same_kernel() {
        let cost = KernelCost::new(1_000_000, 1_000_000_000);
        let k40 = Device::new(GpuProfile::k40());
        let v100 = Device::new(GpuProfile::v100());
        k40.charge_kernel("k", cost);
        v100.charge_kernel("k", cost);
        assert!(v100.stats().kernel_seconds < k40.stats().kernel_seconds);
    }

    #[test]
    fn clones_share_accounting() {
        let dev = Device::with_capacity(GpuProfile::k40(), 1024);
        let clone = dev.clone();
        let _buf = clone.alloc::<u8>(512).unwrap();
        assert_eq!(dev.stats().mem_used, 512);
    }

    #[test]
    fn reset_peak_rebases_to_current_usage() {
        let dev = Device::with_capacity(GpuProfile::k40(), 1024);
        {
            let _big = dev.alloc::<u8>(1000).unwrap();
        }
        assert_eq!(dev.stats().mem_peak, 1000);
        let _small = dev.alloc::<u8>(10).unwrap();
        dev.reset_peak();
        assert_eq!(dev.stats().mem_peak, 10);
    }

    #[test]
    fn armed_launch_failpoint_fails_the_nth_kernel_method() {
        let dev = Device::new(GpuProfile::k40());
        dev.set_faults(faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::KERNEL_LAUNCH, 2),
        ));
        let a = dev.h2d(&[5u32, 1, 3]).unwrap();
        let b = dev.h2d(&[2u32, 4]).unwrap();
        // First launch passes, second fails, third (retry) passes again.
        assert!(dev.gather(&a, &dev.h2d(&[0u32]).unwrap()).is_ok());
        let err = dev.gather(&a, &b).unwrap_err();
        assert!(matches!(err, DeviceError::Fault(_)), "got {err}");
        assert!(dev.gather(&a, &dev.h2d(&[1u32]).unwrap()).is_ok());
    }

    #[test]
    fn a_sort_holds_its_double_buffer_only_while_it_runs() {
        let dev = Device::with_capacity(GpuProfile::k40(), 1 << 10);
        let mut keys = dev.h2d(&[3u64, 1, 2, 9, 7]).unwrap(); // 40 B
        let mut vals = dev.h2d(&[0u32, 1, 2, 3, 4]).unwrap(); // 20 B
        dev.sort_pairs(&mut keys, &mut vals).unwrap();
        let stats = dev.stats();
        assert_eq!((stats.mem_used, stats.mem_peak), (60, 120));
        // The sorted contents moved in; each buffer kept its own bytes.
        assert_eq!((keys.bytes(), vals.bytes()), (40, 20));
        assert_eq!(dev.d2h_vec(keys), vec![1, 2, 3, 7, 9]);
        assert_eq!(dev.d2h_vec(vals), vec![1, 2, 0, 4, 3]);
        assert_eq!(dev.stats().mem_used, 0);
    }

    #[test]
    fn elements_that_fit_respects_reserved_fraction() {
        let dev = Device::with_capacity(GpuProfile::k40(), 1000);
        assert_eq!(dev.elements_that_fit::<u64>(0.0), 125);
        assert_eq!(dev.elements_that_fit::<u64>(0.5), 62);
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::kernels::radix::RadixKey;

    #[test]
    fn u32_keys_sort_correctly_with_fewer_passes() {
        let dev = Device::new(GpuProfile::k40());
        let keys: Vec<u32> = (0..500).map(|i| (i * 2654435761u64 % 97) as u32).collect();
        let vals: Vec<u32> = (0..500).collect();
        let mut dk = dev.h2d(&keys).unwrap();
        let mut dv = dev.h2d(&vals).unwrap();
        dev.sort_pairs(&mut dk, &mut dv).unwrap();
        let got = dev.d2h(&dk);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
        // u32 keys take 4 radix passes, u128 take 16: flop accounting
        // must reflect the narrower key.
        let stat = &dev.stats().per_kernel["radix_sort_pairs"];
        assert_eq!(stat.flops, <u32 as RadixKey>::BYTES as u64 * 500 * 2);
    }

    #[test]
    fn kernel_stats_are_thread_safe() {
        let dev = Device::new(GpuProfile::k40());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let dev = dev.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        dev.charge_kernel("t", KernelCost::new(1, 1));
                    }
                });
            }
        });
        assert_eq!(dev.stats().kernel_launches, 400);
        assert_eq!(dev.stats().per_kernel["t"].launches, 400);
    }
}
