//! Per-phase metrics and the final assembly report.

use crate::contig::ContigStats;
use crate::Result;
use gstream::iostats::IoSnapshot;
use gstream::{HostMem, IoStats};
use std::time::Instant;
use vgpu::{Device, DeviceStats};

/// Measurements for one pipeline phase — the columns of Tables II-V.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseMetrics {
    /// Phase name ("map", "sort", "reduce", "compress", "load").
    pub phase: String,
    /// Real elapsed seconds on this machine.
    pub wall_seconds: f64,
    /// Modeled seconds (device kernels + transfers + disk), the quantity
    /// comparable across GPU profiles and block sizes.
    pub modeled_seconds: f64,
    /// Device activity during the phase.
    pub device: DeviceStats,
    /// Disk activity during the phase.
    pub io: IoSnapshot,
    /// Peak host bytes reserved during the phase (Tables IV/V).
    pub host_peak_bytes: u64,
    /// Peak device bytes allocated during the phase (Tables IV/V).
    pub device_peak_bytes: u64,
}

stdx::impl_json!(struct PhaseMetrics { phase, wall_seconds, modeled_seconds, device, io, host_peak_bytes, device_peak_bytes });

impl PhaseMetrics {
    /// Modeled seconds = device kernel/transfer time + disk time. Disk and
    /// device work overlap poorly in the paper's pipeline (it is I/O
    /// bound), so the sum is the honest model.
    pub fn compute_modeled(&mut self) {
        self.modeled_seconds = self.device.total_seconds() + self.io.total_seconds();
    }

    /// Fold another run of the same phase in (e.g. a resumed sort): times
    /// and traffic add, peaks keep the maximum, and the modeled total is
    /// recomputed.
    pub fn merge(&mut self, other: PhaseMetrics) {
        self.wall_seconds += other.wall_seconds;
        self.host_peak_bytes = self.host_peak_bytes.max(other.host_peak_bytes);
        self.device_peak_bytes = self.device_peak_bytes.max(other.device_peak_bytes);
        self.io.bytes_read += other.io.bytes_read;
        self.io.bytes_written += other.io.bytes_written;
        self.io.read_seconds += other.io.read_seconds;
        self.io.write_seconds += other.io.write_seconds;
        self.device.kernel_launches += other.device.kernel_launches;
        self.device.kernel_seconds += other.device.kernel_seconds;
        self.device.h2d_bytes += other.device.h2d_bytes;
        self.device.d2h_bytes += other.device.d2h_bytes;
        self.device.transfer_seconds += other.device.transfer_seconds;
        self.device.mem_used = self.device.mem_used.max(other.device.mem_used);
        self.device.mem_peak = self.device.mem_peak.max(other.device.mem_peak);
        for (name, stat) in other.device.per_kernel {
            let entry = self.device.per_kernel.entry(name).or_default();
            entry.launches += stat.launches;
            entry.flops += stat.flops;
            entry.bytes += stat.bytes;
            entry.seconds += stat.seconds;
        }
        self.compute_modeled();
    }
}

/// Run `f` as one phase on `device`, `host` and `io`, and record it on
/// `span`: both peaks are reset first, and afterwards the phase's
/// `device.*`/`io.*` deltas and the `host.peak_bytes`/`device.peak_bytes`
/// gauges are emitted there. The returned record is unnamed and holds
/// what [`AssemblyReport::from_trace`] rebuilds from those events, and the
/// closure's wall. The pipeline and every distributed rank call this.
pub fn measure_phase<T>(
    rec: &obs::Recorder,
    span: u64,
    device: &Device,
    host: &HostMem,
    io: &IoStats,
    f: impl FnOnce() -> Result<T>,
) -> Result<(T, PhaseMetrics)> {
    let (t0, dev0, io0) = (Instant::now(), device.stats(), io.snapshot());
    device.reset_peak();
    host.reset_peak();
    let out = f()?;
    let mut m = PhaseMetrics {
        wall_seconds: t0.elapsed().as_secs_f64(),
        device: device.stats().since(&dev0),
        io: io.snapshot().since(&io0),
        host_peak_bytes: host.peak(),
        ..Default::default()
    };
    // The current allocation is transient and not part of the events.
    (m.device_peak_bytes, m.device.mem_used) = (m.device.mem_peak, 0);
    m.compute_modeled();
    m.device.emit(rec, span);
    m.io.emit(rec, span);
    rec.gauge_on(span, "host.peak_bytes", m.host_peak_bytes);
    rec.gauge_on(span, "device.peak_bytes", m.device_peak_bytes);
    Ok((out, m))
}

/// The record of phase `name` in `phases`, matched case-insensitively:
/// the one lookup rule of the single-node and the distributed report.
pub fn find_phase<'a>(phases: &'a [PhaseMetrics], name: &str) -> Option<&'a PhaseMetrics> {
    phases.iter().find(|p| p.phase.eq_ignore_ascii_case(name))
}

/// Everything measured during one assembly.
#[derive(Debug, Clone, Default)]
pub struct AssemblyReport {
    /// Dataset label (preset name or "custom").
    pub dataset: String,
    /// Number of input reads.
    pub reads: u64,
    /// Total input bases.
    pub bases: u64,
    /// Per-phase metrics in pipeline order.
    pub phases: Vec<PhaseMetrics>,
    /// Directed edges in the final string graph.
    pub graph_edges: u64,
    /// Host bytes of the final graph.
    pub graph_bytes: u64,
    /// Contig statistics.
    pub contig_stats: ContigStats,
}

stdx::impl_json!(struct AssemblyReport { dataset, reads, bases, phases, graph_edges, graph_bytes, contig_stats });

impl AssemblyReport {
    /// Total wall seconds across phases.
    pub fn total_wall_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.wall_seconds).sum()
    }

    /// Total modeled seconds across phases.
    pub fn total_modeled_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.modeled_seconds).sum()
    }

    /// Metrics for a phase by name ([`find_phase`]).
    pub fn phase(&self, name: &str) -> Option<&PhaseMetrics> {
        find_phase(&self.phases, name)
    }

    /// Append phase metrics; a phase already present under the same name
    /// (case-insensitive) is [`PhaseMetrics::merge`]d instead of
    /// duplicated, so a resumed phase can never appear twice.
    pub fn push_phase(&mut self, metrics: PhaseMetrics) {
        match self
            .phases
            .iter_mut()
            .find(|p| p.phase.eq_ignore_ascii_case(&metrics.phase))
        {
            Some(existing) => existing.merge(metrics),
            None => self.phases.push(metrics),
        }
    }

    /// Phase names in pipeline order, checking the uniqueness invariant:
    /// panics if two phases share a name (case-insensitive), which means
    /// something bypassed [`AssemblyReport::push_phase`].
    pub fn phases_in_order(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        for p in &self.phases {
            assert!(
                seen.insert(p.phase.to_ascii_lowercase()),
                "duplicate phase {:?} in report — phases must be added via push_phase",
                p.phase
            );
        }
        self.phases.iter().map(|p| p.phase.as_str()).collect()
    }

    /// Rebuild per-phase metrics purely from a recorded trace: each child
    /// span of the most recent root span named `root_name` becomes one
    /// phase, with device/io totals taken from the subtree's canonical
    /// `device.*`/`io.*` events and peaks from the `host.peak_bytes` /
    /// `device.peak_bytes` gauges. Because this reads the same events a
    /// `--trace-out` sink writes, report totals and trace totals cannot
    /// disagree. Dataset/graph/contig fields are left for the caller.
    pub fn from_trace(rollup: &obs::Rollup, root_name: &str) -> AssemblyReport {
        let mut report = AssemblyReport::default();
        let Some(root) = rollup.root_named(root_name) else {
            return report;
        };
        for child in rollup.children(root.id) {
            let agg = rollup.subtree(child.id);
            let mut metrics = PhaseMetrics {
                phase: child.name.clone(),
                wall_seconds: child.wall_seconds,
                modeled_seconds: 0.0,
                device: DeviceStats::from_agg(&agg),
                io: IoSnapshot::from_agg(&agg),
                host_peak_bytes: agg.gauge("host.peak_bytes"),
                device_peak_bytes: agg.gauge("device.peak_bytes"),
            };
            metrics.compute_modeled();
            report.push_phase(metrics);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(name: &str, wall: f64, modeled: f64) -> PhaseMetrics {
        PhaseMetrics {
            phase: name.into(),
            wall_seconds: wall,
            modeled_seconds: modeled,
            ..Default::default()
        }
    }

    #[test]
    fn totals_sum_over_phases() {
        let report = AssemblyReport {
            phases: vec![phase("map", 1.0, 10.0), phase("sort", 2.0, 30.0)],
            ..Default::default()
        };
        assert!((report.total_wall_seconds() - 3.0).abs() < 1e-12);
        assert!((report.total_modeled_seconds() - 40.0).abs() < 1e-12);
        assert!(report.phase("sort").is_some());
        assert!(report.phase("reduce").is_none());
    }

    #[test]
    fn compute_modeled_adds_device_and_disk() {
        let mut m = PhaseMetrics {
            device: DeviceStats {
                kernel_seconds: 2.0,
                transfer_seconds: 1.0,
                ..Default::default()
            },
            io: IoSnapshot {
                read_seconds: 3.0,
                write_seconds: 4.0,
                ..Default::default()
            },
            ..Default::default()
        };
        m.compute_modeled();
        assert!((m.modeled_seconds - 10.0).abs() < 1e-12);
    }

    #[test]
    fn phase_lookup_is_case_insensitive() {
        let report = AssemblyReport {
            phases: vec![phase("Sort", 1.0, 2.0)],
            ..Default::default()
        };
        assert!(report.phase("sort").is_some());
        assert!(report.phase("SORT").is_some());
        assert!(report.phase("reduce").is_none());
    }

    #[test]
    fn push_phase_merges_duplicates_instead_of_duplicating() {
        let mut report = AssemblyReport::default();
        let mut first = phase("sort", 1.0, 0.0);
        first.io.bytes_read = 100;
        first.host_peak_bytes = 50;
        report.push_phase(first);
        let mut resumed = phase("Sort", 2.0, 0.0);
        resumed.io.bytes_read = 40;
        resumed.host_peak_bytes = 30;
        report.push_phase(resumed);

        assert_eq!(report.phases.len(), 1);
        let merged = report.phase("sort").unwrap();
        assert!((merged.wall_seconds - 3.0).abs() < 1e-12);
        assert_eq!(merged.io.bytes_read, 140);
        assert_eq!(merged.host_peak_bytes, 50);
        assert_eq!(report.phases_in_order(), vec!["sort"]);
    }

    #[test]
    #[should_panic(expected = "duplicate phase")]
    fn phases_in_order_panics_on_duplicates() {
        let report = AssemblyReport {
            phases: vec![phase("sort", 1.0, 1.0), phase("SORT", 1.0, 1.0)],
            ..Default::default()
        };
        let _ = report.phases_in_order();
    }

    #[test]
    fn from_trace_rebuilds_phases_from_events() {
        let rec = obs::Recorder::new();
        {
            let _root = rec.span("assembly");
            {
                let map = rec.span("map");
                let io = IoSnapshot {
                    bytes_read: 100,
                    bytes_written: 200,
                    read_seconds: 0.5,
                    write_seconds: 0.25,
                };
                io.emit(&rec, map.id());
                let dev = DeviceStats {
                    kernel_launches: 3,
                    kernel_seconds: 1.5,
                    ..Default::default()
                };
                dev.emit(&rec, map.id());
                rec.gauge_on(map.id(), "host.peak_bytes", 4096);
                rec.gauge_on(map.id(), "device.peak_bytes", 512);
            }
        }
        let rollup = obs::Rollup::from_events(&rec.events());
        let report = AssemblyReport::from_trace(&rollup, "assembly");
        assert_eq!(report.phases_in_order(), vec!["map"]);
        let map = report.phase("map").unwrap();
        assert_eq!(map.io.bytes_read, 100);
        assert_eq!(map.io.bytes_written, 200);
        assert_eq!(map.device.kernel_launches, 3);
        assert_eq!(map.host_peak_bytes, 4096);
        assert_eq!(map.device_peak_bytes, 512);
        assert_eq!(map.modeled_seconds, 1.5 + 0.75);
        assert!(map.wall_seconds > 0.0);
    }

    #[test]
    fn a_measured_phase_is_what_its_trace_rolls_up_to() {
        let rec = obs::Recorder::new();
        let device = Device::with_capacity(vgpu::GpuProfile::k40(), 1 << 20);
        let host = HostMem::new(1 << 20);
        let io = IoStats::default();
        // Earlier work and a peak from before the phase are not its own.
        device.charge_kernel("warmup", vgpu::KernelCost::new(10, 10));
        drop(host.reserve(8192).unwrap());
        let measured = {
            let _root = rec.span("assembly");
            let span = rec.span("sort");
            let (out, measured) = measure_phase(&rec, span.id(), &device, &host, &io, || {
                let _rows = host.reserve(4096)?;
                let buf = device.h2d(&[7u32; 64])?;
                device.charge_kernel("radix", vgpu::KernelCost::new(1000, 512));
                io.add_read(100);
                io.add_write(50);
                Ok(device.d2h(&buf).len())
            })
            .unwrap();
            assert_eq!(out, 64);
            measured
        };
        assert_eq!(measured.host_peak_bytes, 4096);
        assert_eq!(measured.device_peak_bytes, 256);
        assert_eq!(measured.device.kernel_launches, 1);
        assert_eq!(
            (measured.io.bytes_read, measured.io.bytes_written),
            (100, 50)
        );
        let rollup = obs::Rollup::from_events(&rec.events());
        let report = AssemblyReport::from_trace(&rollup, "assembly");
        let rebuilt = report.phase("sort").unwrap();
        assert_eq!(
            PhaseMetrics {
                phase: "sort".into(),
                wall_seconds: rebuilt.wall_seconds,
                ..measured
            },
            *rebuilt
        );
    }

    #[test]
    fn report_serializes_to_json() {
        let report = AssemblyReport {
            dataset: "H.Chr 14".into(),
            reads: 42,
            phases: vec![phase("map", 0.5, 1.5)],
            ..Default::default()
        };
        let json = stdx::json::to_string(&report);
        let back: AssemblyReport = stdx::json::from_str(&json).unwrap();
        assert_eq!(back.dataset, "H.Chr 14");
        assert_eq!(back.phases.len(), 1);
    }
}

impl std::fmt::Display for PhaseMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<10} wall {:>9.3}s  modeled {:>10.6}s  host peak {:>10}  device peak {:>10}",
            self.phase,
            self.wall_seconds,
            self.modeled_seconds,
            obs::human_bytes(self.host_peak_bytes),
            obs::human_bytes(self.device_peak_bytes)
        )
    }
}

impl std::fmt::Display for AssemblyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{}: {} reads / {} bases",
            if self.dataset.is_empty() {
                "assembly"
            } else {
                &self.dataset
            },
            self.reads,
            self.bases
        )?;
        for p in &self.phases {
            writeln!(f, "  {p}")?;
        }
        writeln!(
            f,
            "  graph: {} edges ({}) | contigs: {} ({} multi-read), {} bases, N50 {}, max {}",
            self.graph_edges,
            obs::human_bytes(self.graph_bytes),
            self.contig_stats.count,
            self.contig_stats.multi_read,
            self.contig_stats.total_bases,
            self.contig_stats.n50,
            self.contig_stats.max_len
        )
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn report_renders_every_phase_and_the_summary() {
        let report = AssemblyReport {
            dataset: "demo".into(),
            reads: 10,
            bases: 1000,
            phases: vec![PhaseMetrics {
                phase: "sort".into(),
                wall_seconds: 1.5,
                host_peak_bytes: 10_737_418_240,
                ..Default::default()
            }],
            graph_edges: 4,
            ..Default::default()
        };
        let text = report.to_string();
        assert!(text.contains("demo: 10 reads / 1000 bases"));
        assert!(text.contains("sort"));
        assert!(text.contains("graph: 4 edges"));
        // Peaks render human-readable, not as raw byte counts.
        assert!(text.contains("10.0 GiB"), "{text}");
        assert!(!text.contains("10737418240"), "{text}");
    }
}
