//! Device statistics and the analytic kernel cost model.

use std::collections::BTreeMap;

/// Work estimate for one kernel launch, fed to the timing model.
///
/// `flops` is the number of scalar operations the kernel performs; `bytes`
/// the device-memory traffic it generates (reads + writes). Kernel time is
/// `max(flops / compute-throughput, bytes / memory-bandwidth)` — the
/// roofline model, which captures why sorting is bandwidth-bound on every
/// device in the paper's Fig. 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCost {
    /// Scalar operations performed by the kernel.
    pub flops: u64,
    /// Device-memory bytes moved (reads + writes).
    pub bytes: u64,
}

impl KernelCost {
    /// A cost of `flops` operations and `bytes` of memory traffic.
    pub fn new(flops: u64, bytes: u64) -> Self {
        KernelCost { flops, bytes }
    }

    /// Combine two costs (e.g. for a fused kernel).
    pub fn plus(self, other: KernelCost) -> KernelCost {
        KernelCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Fixed per-launch overhead in seconds (driver + scheduling), a few
/// microseconds on real hardware.
pub const LAUNCH_OVERHEAD_S: f64 = 5e-6;

/// Accumulated per-kernel counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStat {
    /// Number of launches of this kernel.
    pub launches: u64,
    /// Total scalar operations across launches.
    pub flops: u64,
    /// Total device-memory bytes across launches.
    pub bytes: u64,
    /// Modeled device seconds across launches.
    pub seconds: f64,
}

stdx::impl_json!(struct KernelStat { launches, flops, bytes, seconds });

/// Snapshot of everything a [`crate::Device`] has done.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Total kernel launches.
    pub kernel_launches: u64,
    /// Modeled seconds spent in kernels.
    pub kernel_seconds: f64,
    /// Bytes copied host → device.
    pub h2d_bytes: u64,
    /// Bytes copied device → host.
    pub d2h_bytes: u64,
    /// Modeled seconds spent in transfers.
    pub transfer_seconds: f64,
    /// Current device-memory allocation in bytes.
    pub mem_used: u64,
    /// Peak device-memory allocation in bytes.
    pub mem_peak: u64,
    /// Per-kernel breakdown, keyed by kernel name.
    pub per_kernel: BTreeMap<String, KernelStat>,
}

stdx::impl_json!(struct DeviceStats { kernel_launches, kernel_seconds, h2d_bytes, d2h_bytes, transfer_seconds, mem_used, mem_peak, per_kernel });

impl DeviceStats {
    /// Total modeled device time (kernels + transfers) in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.kernel_seconds + self.transfer_seconds
    }

    /// Difference between two snapshots (`self` must be the later one);
    /// used to attribute device time to pipeline phases.
    pub fn since(&self, earlier: &DeviceStats) -> DeviceStats {
        let mut per_kernel = BTreeMap::new();
        for (name, now) in &self.per_kernel {
            let before = earlier.per_kernel.get(name).cloned().unwrap_or_default();
            per_kernel.insert(
                name.clone(),
                KernelStat {
                    launches: now.launches - before.launches,
                    flops: now.flops - before.flops,
                    bytes: now.bytes - before.bytes,
                    seconds: now.seconds - before.seconds,
                },
            );
        }
        DeviceStats {
            kernel_launches: self.kernel_launches - earlier.kernel_launches,
            kernel_seconds: self.kernel_seconds - earlier.kernel_seconds,
            h2d_bytes: self.h2d_bytes - earlier.h2d_bytes,
            d2h_bytes: self.d2h_bytes - earlier.d2h_bytes,
            transfer_seconds: self.transfer_seconds - earlier.transfer_seconds,
            mem_used: self.mem_used,
            mem_peak: self.mem_peak,
            per_kernel,
        }
    }

    /// Emit this snapshot (usually a [`DeviceStats::since`] delta) as the
    /// canonical `device.*` events on `span`. [`DeviceStats::from_agg`]
    /// inverts this exactly, so a report built from the trace carries the
    /// same numbers as the snapshot.
    pub fn emit(&self, rec: &obs::Recorder, span: u64) {
        rec.counter_on(span, "device.kernel_launches", self.kernel_launches);
        rec.metric_on(span, "device.kernel_seconds", self.kernel_seconds);
        rec.counter_on(span, "device.h2d_bytes", self.h2d_bytes);
        rec.counter_on(span, "device.d2h_bytes", self.d2h_bytes);
        rec.metric_on(span, "device.transfer_seconds", self.transfer_seconds);
        for (kernel, stat) in &self.per_kernel {
            rec.counter_on(
                span,
                &format!("device.kernel.{kernel}.launches"),
                stat.launches,
            );
            rec.counter_on(span, &format!("device.kernel.{kernel}.flops"), stat.flops);
            rec.counter_on(span, &format!("device.kernel.{kernel}.bytes"), stat.bytes);
            rec.metric_on(
                span,
                &format!("device.kernel.{kernel}.seconds"),
                stat.seconds,
            );
        }
    }

    /// Rebuild a snapshot from rolled-up `device.*` events (the inverse of
    /// [`DeviceStats::emit`]). `mem_used` is transient and not part of the
    /// event schema; `mem_peak` travels as the `device.peak_bytes` gauge.
    pub fn from_agg(agg: &obs::SpanAgg) -> DeviceStats {
        let mut stats = DeviceStats {
            kernel_launches: agg.counter("device.kernel_launches"),
            kernel_seconds: agg.metric("device.kernel_seconds"),
            h2d_bytes: agg.counter("device.h2d_bytes"),
            d2h_bytes: agg.counter("device.d2h_bytes"),
            transfer_seconds: agg.metric("device.transfer_seconds"),
            mem_used: 0,
            mem_peak: agg.gauge("device.peak_bytes"),
            per_kernel: BTreeMap::new(),
        };
        for (name, value) in &agg.counters {
            if let Some(rest) = name.strip_prefix("device.kernel.") {
                if let Some((kernel, field)) = rest.rsplit_once('.') {
                    let entry = stats.per_kernel.entry(kernel.to_string()).or_default();
                    match field {
                        "launches" => entry.launches = *value,
                        "flops" => entry.flops = *value,
                        "bytes" => entry.bytes = *value,
                        _ => {}
                    }
                }
            }
        }
        for (name, value) in &agg.metrics {
            if let Some(rest) = name.strip_prefix("device.kernel.") {
                if let Some((kernel, "seconds")) = rest.rsplit_once('.') {
                    stats
                        .per_kernel
                        .entry(kernel.to_string())
                        .or_default()
                        .seconds = *value;
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_plus_adds_componentwise() {
        let a = KernelCost::new(10, 100);
        let b = KernelCost::new(1, 2);
        assert_eq!(a.plus(b), KernelCost::new(11, 102));
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let earlier = DeviceStats {
            kernel_launches: 2,
            kernel_seconds: 1.0,
            h2d_bytes: 10,
            ..Default::default()
        };

        let mut later = earlier.clone();
        later.kernel_launches = 5;
        later.kernel_seconds = 3.5;
        later.h2d_bytes = 25;
        later.per_kernel.insert(
            "sort".into(),
            KernelStat {
                launches: 4,
                flops: 100,
                bytes: 200,
                seconds: 2.0,
            },
        );

        let delta = later.since(&earlier);
        assert_eq!(delta.kernel_launches, 3);
        assert!((delta.kernel_seconds - 2.5).abs() < 1e-12);
        assert_eq!(delta.h2d_bytes, 15);
        assert_eq!(delta.per_kernel["sort"].launches, 4);
    }

    #[test]
    fn emit_then_from_agg_round_trips_exactly() {
        let mut stats = DeviceStats {
            kernel_launches: 7,
            kernel_seconds: 0.875,
            h2d_bytes: 4096,
            d2h_bytes: 1024,
            transfer_seconds: 0.125,
            ..Default::default()
        };
        stats.per_kernel.insert(
            "radix_sort_pairs".into(),
            KernelStat {
                launches: 5,
                flops: 1000,
                bytes: 2000,
                seconds: 0.5,
            },
        );
        let rec = obs::Recorder::new();
        let span = rec.span("phase");
        stats.emit(&rec, span.id());
        drop(span);
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("phase").unwrap();
        let back = DeviceStats::from_agg(&rollup.subtree(root.id));
        assert_eq!(back.kernel_launches, stats.kernel_launches);
        assert_eq!(back.kernel_seconds, stats.kernel_seconds);
        assert_eq!(back.h2d_bytes, stats.h2d_bytes);
        assert_eq!(back.d2h_bytes, stats.d2h_bytes);
        assert_eq!(back.transfer_seconds, stats.transfer_seconds);
        assert_eq!(back.per_kernel, stats.per_kernel);
    }

    #[test]
    fn total_seconds_sums_kernels_and_transfers() {
        let stats = DeviceStats {
            kernel_seconds: 1.25,
            transfer_seconds: 0.75,
            ..Default::default()
        };
        assert!((stats.total_seconds() - 2.0).abs() < 1e-12);
    }
}
