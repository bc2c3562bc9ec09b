//! # vgpu — a virtual GPU device
//!
//! LaSAGNA (Goswami et al., IPDPS 2018) runs its map/sort/reduce kernels on
//! CUDA devices. This crate substitutes a *virtual* device that reproduces
//! the properties the paper's algorithms depend on:
//!
//! * a **bounded device memory** — buffers and bare reservations
//!   ([`Device::reserve`]) are held against the device's [`stdx::Ledger`],
//!   the same ledger the host budget keeps, and fail with
//!   [`DeviceError::OutOfMemory`] when the configured capacity would be
//!   exceeded, exactly like `cudaMalloc` on a 6 GB K20X;
//! * **explicit host↔device transfers** ([`Device::h2d`] / [`Device::d2h`])
//!   whose bytes are counted and charged to a PCIe bandwidth model;
//! * a set of **device kernels** (radix sort, pairwise merge, Hillis-Steele
//!   scans, vectorized lower/upper bounds, gather) mirroring the Thrust
//!   primitives the paper builds on;
//! * an **analytic timing model** per GPU product ([`GpuProfile`]): kernel
//!   time is `max(work / compute-throughput, bytes / memory-bandwidth)` plus
//!   launch overhead, which is what makes the paper's Fig. 9 (V100 > P100 >
//!   P40 ≈ K40, converging as I/O dominates) reproducible without hardware.
//!
//! Kernels execute on the host CPU (in parallel through [`exec::par_parts`]), so
//! results are real; only the *reported device time* comes from the model.
//! The device emits no trace event: a launch or transfer changes only the
//! counters behind [`Device::stats`], whose deltas the callers' phase spans
//! carry.
//!
//! ```
//! use vgpu::{Device, GpuProfile};
//!
//! let dev = Device::new(GpuProfile::k40());
//! let mut keys = dev.h2d(&[3u64, 1, 2]).unwrap();
//! let mut vals = dev.h2d(&[30u32, 10, 20]).unwrap();
//! dev.sort_pairs(&mut keys, &mut vals).unwrap();
//! assert_eq!(dev.d2h(&keys), vec![1, 2, 3]);
//! assert_eq!(dev.d2h(&vals), vec![10, 20, 30]);
//! ```

pub mod buffer;
pub mod device;
pub mod exec;
pub mod kernels;
pub mod profile;
pub mod stats;

pub use buffer::DeviceBuffer;
pub use device::{Device, DeviceError};
pub use kernels::radix::RadixKey;
pub use profile::GpuProfile;
pub use stats::{DeviceStats, KernelCost};

/// Convenience alias for fallible device operations.
pub type Result<T> = std::result::Result<T, DeviceError>;
