//! # gstream — two-level streaming I/O substrate
//!
//! LaSAGNA's central memory-management idea (Section III, Fig. 3) is a
//! conceptual split of the memory hierarchy into a sequentially-scanned
//! **read-only memory** (input files), a sequentially-appended **write-only
//! memory** (output files), and a **working memory** of slow random-access
//! host RAM plus a small fast device RAM. Data moves disk → host in large
//! blocks and host → device in small chunks; this crate implements that
//! machinery:
//!
//! * [`record`] — fixed-width binary `(fingerprint, id)` records and the
//!   24-byte [`Footer`] trailer of every durable file;
//! * [`reader`]/[`writer`] — sequential record streams, encoded, XXH64
//!   checksummed and tallied in shared [`IoStats`] a 64 KiB block at a time
//!   and charged to a disk bandwidth model;
//! * [`HostMem`] — the host-memory budget (the paper's m_h): the
//!   workspace's one [`stdx::Ledger`], which the virtual device keeps its
//!   books with too;
//! * [`spill`] — per-overlap-length partition files (the map phase output);
//! * [`merge`] — the paper's **Algorithm 1**: external merging of two sorted
//!   streams with window equalization by upper-bound and device merges;
//! * [`extsort`] — the **hybrid-memory external sort** (Section III-B):
//!   host-sized runs built from device-sorted chunks, then log-many external
//!   merge passes. Disk passes = `1 + ceil(log2(n / m_h))`;
//! * [`frame`] — length-prefixed, FNV-checksummed message framing, the wire
//!   format of the `qnet` serving front-end.

pub mod extsort;
pub mod frame;
pub mod iostats;
pub mod merge;
pub mod reader;
pub mod record;
pub mod spill;
pub mod writer;

pub use extsort::{ExternalSorter, SortConfig, SortReport};
pub use frame::{frame_len, read_frame, write_frame, FRAME_HEADER_BYTES, MAX_FRAME_BYTES};
pub use iostats::{DiskModel, IoStats};
pub use merge::{
    kway_merge, windowed_merge, FileSource, Merged, PairSink, PairSource, SliceSource,
};
pub use reader::{read_blob, read_footer, RecordReader};
pub use record::{fnv1a, Columns, Fnv64, Footer, KvPair, Pairs, Xxh64};
pub use spill::{range_of, Partition, PartitionKind, PartitionSet, SpillDir};
pub use stdx::{Ledger as HostMem, OverBudget, Reservation};
pub use writer::{fsync_dir, fsync_parent_dir, write_blob, RecordWriter};

/// Errors from streaming operations.
#[derive(Debug)]
pub enum StreamError {
    /// Underlying file-system error.
    Io(std::io::Error),
    /// A file ended in the middle of a record, or contained garbage.
    Corrupt(String),
    /// Device-side failure (out of device memory, bad launch).
    Device(vgpu::DeviceError),
    /// Host-memory budget exceeded.
    HostMem(OverBudget),
    /// Configuration that cannot work (e.g. zero-sized windows).
    BadConfig(String),
    /// A deterministic injected fault (see `faultsim` and ROBUSTNESS.md).
    Fault(faultsim::FaultError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "I/O error: {e}"),
            StreamError::Corrupt(m) => write!(f, "corrupt stream: {m}"),
            StreamError::Device(e) => write!(f, "device error: {e}"),
            StreamError::HostMem(e) => write!(f, "host memory {e}"),
            StreamError::BadConfig(m) => write!(f, "bad configuration: {m}"),
            StreamError::Fault(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<stdx::bytes::Corrupt> for StreamError {
    fn from(e: stdx::bytes::Corrupt) -> Self {
        StreamError::Corrupt(e.to_string())
    }
}

impl From<vgpu::DeviceError> for StreamError {
    fn from(e: vgpu::DeviceError) -> Self {
        StreamError::Device(e)
    }
}

impl From<OverBudget> for StreamError {
    fn from(e: OverBudget) -> Self {
        StreamError::HostMem(e)
    }
}

impl From<faultsim::FaultError> for StreamError {
    fn from(e: faultsim::FaultError) -> Self {
        StreamError::Fault(e)
    }
}

/// Convenience alias for fallible streaming operations.
pub type Result<T> = std::result::Result<T, StreamError>;

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::{Device, DeviceError, GpuProfile};

    #[test]
    fn host_and_device_refuse_the_same_over_reservation_with_their_own_errors() {
        let host = HostMem::new(1000);
        let device = Device::with_capacity(GpuProfile::k40(), 1000);
        let (_h, _d) = (host.reserve(800).unwrap(), device.reserve(800).unwrap());

        let host_err = StreamError::from(host.reserve(300).unwrap_err());
        let device_err = StreamError::from(device.reserve(300).unwrap_err());
        let StreamError::HostMem(OverBudget {
            requested,
            in_use,
            capacity,
        }) = host_err
        else {
            panic!("host: {host_err:?}");
        };
        assert_eq!((requested, in_use, capacity), (300, 800, 1000));
        let StreamError::Device(DeviceError::OutOfMemory {
            requested,
            in_use,
            capacity,
        }) = device_err
        else {
            panic!("device: {device_err:?}");
        };
        assert_eq!((requested, in_use, capacity), (300, 800, 1000));
        assert_eq!(
            host_err.to_string(),
            "host memory budget exceeded: requested 300 B with 800 B in use of 1000 B"
        );
        assert_eq!(
            device_err.to_string(),
            "device error: device out of memory: requested 300 B with 800 B in use of 1000 B"
        );
    }
}
