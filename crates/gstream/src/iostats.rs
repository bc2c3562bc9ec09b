//! Shared I/O statistics and the disk bandwidth model.
//!
//! The paper finds disk I/O to be "the most prominent bottleneck in the
//! pipeline" (Section III-E) — Fig. 8 shows sort time dominated by the
//! number of disk passes. We therefore count every byte that crosses the
//! disk boundary and convert it to modeled seconds through a sequential
//! bandwidth figure, so that scaled-down runs still *report* the paper's
//! I/O-dominance structure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use stdx::lock;

/// Sequential disk bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sequential read bandwidth, bytes/s.
    pub read_bytes_per_s: f64,
    /// Sequential write bandwidth, bytes/s.
    pub write_bytes_per_s: f64,
}

impl DiskModel {
    /// A spinning-disk profile (~160 MB/s sequential), matching the
    /// cluster-node local storage class used in the paper's testbeds.
    pub fn hdd() -> Self {
        DiskModel {
            read_bytes_per_s: 160e6,
            write_bytes_per_s: 140e6,
        }
    }

    /// A SATA-SSD profile (~500 MB/s), the "faster media" the paper says
    /// LaSAGNA benefits from.
    pub fn ssd() -> Self {
        DiskModel {
            read_bytes_per_s: 520e6,
            write_bytes_per_s: 480e6,
        }
    }

    /// Cluster scratch storage (~400 MB/s sustained) — the node-local
    /// storage class of the paper's QueenBee II / SuperMic testbeds.
    /// Back-solving the paper's Table II against its byte volumes puts the
    /// effective sequential bandwidth in this range.
    pub fn cluster_scratch() -> Self {
        DiskModel {
            read_bytes_per_s: 400e6,
            write_bytes_per_s: 400e6,
        }
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::cluster_scratch()
    }
}

/// Snapshot of I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoSnapshot {
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Bytes written to disk.
    pub bytes_written: u64,
    /// Modeled seconds spent reading.
    pub read_seconds: f64,
    /// Modeled seconds spent writing.
    pub write_seconds: f64,
}

stdx::impl_json!(struct IoSnapshot { bytes_read, bytes_written, read_seconds, write_seconds });

impl IoSnapshot {
    /// Total modeled disk seconds.
    pub fn total_seconds(&self) -> f64 {
        self.read_seconds + self.write_seconds
    }

    /// Counter difference (`self` taken after `earlier`).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            read_seconds: self.read_seconds - earlier.read_seconds,
            write_seconds: self.write_seconds - earlier.write_seconds,
        }
    }

    /// Emit this snapshot (usually a [`IoSnapshot::since`] delta) as the
    /// canonical `io.*` events on `span`. [`IoSnapshot::from_agg`] inverts
    /// this exactly.
    pub fn emit(&self, rec: &obs::Recorder, span: u64) {
        rec.counter_on(span, "io.bytes_read", self.bytes_read);
        rec.counter_on(span, "io.bytes_written", self.bytes_written);
        rec.metric_on(span, "io.read_seconds", self.read_seconds);
        rec.metric_on(span, "io.write_seconds", self.write_seconds);
    }

    /// Rebuild a snapshot from rolled-up `io.*` events (the inverse of
    /// [`IoSnapshot::emit`]).
    pub fn from_agg(agg: &obs::SpanAgg) -> IoSnapshot {
        IoSnapshot {
            bytes_read: agg.counter("io.bytes_read"),
            bytes_written: agg.counter("io.bytes_written"),
            read_seconds: agg.metric("io.read_seconds"),
            write_seconds: agg.metric("io.write_seconds"),
        }
    }
}

/// Shared, thread-safe I/O accounting. Clone-cheap: clones share counters.
#[derive(Debug, Clone)]
pub struct IoStats {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    model: DiskModel,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    faults: Mutex<faultsim::Faults>,
}

impl IoStats {
    /// Fresh counters over the given bandwidth model.
    pub fn new(model: DiskModel) -> Self {
        IoStats {
            inner: Arc::new(Inner {
                model,
                bytes_read: AtomicU64::new(0),
                bytes_written: AtomicU64::new(0),
                faults: Mutex::new(faultsim::Faults::disabled()),
            }),
        }
    }

    /// The bandwidth model in effect.
    pub fn model(&self) -> DiskModel {
        self.inner.model
    }

    /// Arm fault injection for every reader/writer sharing these counters
    /// (the `gstream.write` / `gstream.open` failpoints).
    pub fn set_faults(&self, faults: faultsim::Faults) {
        *lock(&self.inner.faults) = faults;
    }

    /// The fault registry in effect (disabled by default).
    pub fn faults(&self) -> faultsim::Faults {
        lock(&self.inner.faults).clone()
    }

    /// Record `n` bytes read.
    pub fn add_read(&self, n: u64) {
        self.inner.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Record `n` bytes written.
    pub fn add_write(&self, n: u64) {
        self.inner.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot current counters; the modeled seconds are the byte totals
    /// over the model's bandwidths.
    pub fn snapshot(&self) -> IoSnapshot {
        let bytes_read = self.inner.bytes_read.load(Ordering::Relaxed);
        let bytes_written = self.inner.bytes_written.load(Ordering::Relaxed);
        IoSnapshot {
            bytes_read,
            bytes_written,
            read_seconds: bytes_read as f64 / self.inner.model.read_bytes_per_s,
            write_seconds: bytes_written as f64 / self.inner.model.write_bytes_per_s,
        }
    }
}

impl Default for IoStats {
    fn default() -> Self {
        IoStats::new(DiskModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_model_time() {
        let io = IoStats::new(DiskModel {
            read_bytes_per_s: 100.0,
            write_bytes_per_s: 50.0,
        });
        io.add_read(200);
        io.add_write(100);
        let snap = io.snapshot();
        assert_eq!(snap.bytes_read, 200);
        assert_eq!(snap.bytes_written, 100);
        assert!((snap.read_seconds - 2.0).abs() < 1e-12);
        assert!((snap.write_seconds - 2.0).abs() < 1e-12);
        assert!((snap.total_seconds() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_counters() {
        let io = IoStats::default();
        let clone = io.clone();
        clone.add_read(10);
        assert_eq!(io.snapshot().bytes_read, 10);
    }

    #[test]
    fn since_subtracts() {
        let io = IoStats::default();
        io.add_read(10);
        let early = io.snapshot();
        io.add_read(5);
        io.add_write(7);
        let delta = io.snapshot().since(&early);
        assert_eq!(delta.bytes_read, 5);
        assert_eq!(delta.bytes_written, 7);
    }

    #[test]
    fn emit_then_from_agg_round_trips_exactly() {
        let io = IoStats::default();
        io.add_read(12_345);
        io.add_write(678);
        let snap = io.snapshot();
        let rec = obs::Recorder::new();
        let span = rec.span("phase");
        snap.emit(&rec, span.id());
        drop(span);
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("phase").unwrap();
        let back = IoSnapshot::from_agg(&rollup.subtree(root.id));
        assert_eq!(back, snap);
    }

    #[test]
    fn ssd_is_faster_than_hdd() {
        assert!(DiskModel::ssd().read_bytes_per_s > DiskModel::hdd().read_bytes_per_s);
    }
}
