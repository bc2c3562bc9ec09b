//! Sort phase: per-partition external sorting (Section III-B).
//!
//! Every suffix and prefix partition is sorted by fingerprint with the
//! hybrid host/device external sorter. Partitions are independent, and the
//! per-partition [`gstream::SortReport`]s aggregate into the phase totals
//! (the paper: sorting is "more than 50% of the total execution time").

use crate::config::AssemblyConfig;
use crate::Result;
use gstream::spill::{Partition, SpillDir};
use gstream::{ExternalSorter, HostMem, SortConfig, SortReport, StreamError};
use std::path::Path;
use vgpu::Device;

/// Aggregated outcome of the sort phase.
#[derive(Debug, Clone, Default)]
pub struct SortPhaseReport {
    /// Per-partition reports, `(length, kind, report)` with kind
    /// `"sfx"`/`"pfx"`.
    pub partitions: Vec<(u32, String, SortReport)>,
    /// Total pairs sorted across partitions.
    pub total_pairs: u64,
    /// Maximum disk passes any partition needed.
    pub max_disk_passes: u32,
}

/// Sort every partition in `[l_min, l_max)` in place (each partition file
/// is replaced by its sorted version).
pub fn run(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
) -> Result<SortPhaseReport> {
    let disabled = obs::Recorder::disabled();
    run_checkpointed(
        device,
        host,
        spill,
        config,
        &disabled,
        |_| false,
        &mut |_, _| Ok(()),
    )
}

/// The block sizes a sort phase sorts with, single-node or distributed:
/// the configured ones, or the largest the budgets allow.
pub fn sort_config(config: &AssemblyConfig, host: &HostMem, device: &Device) -> SortConfig {
    config
        .sort
        .unwrap_or_else(|| SortConfig::from_budgets(host, device))
}

/// The partitions of a single-node run in the order they are sorted:
/// suffix then prefix of each length, ascending.
pub(crate) fn partitions(config: &AssemblyConfig) -> impl Iterator<Item = Partition> {
    (config.l_min..config.l_max).flat_map(|len| Partition::pair(len, 0, 1))
}

/// Sort partition `part` of `spill` in place, the one per-partition step of
/// the pipeline and of every distributed rank: under a span named
/// [`Partition::name`] opened under `parent` (0, what
/// [`obs::Recorder::current`] reads with no span open, makes it a root),
/// the file is sorted into a scratch file, which is renamed over it, and
/// the sort's `sort.*` counters (and `merge.window_advances` when a merge
/// advanced) land on that span. The sorter reports; this step records.
pub fn sort_partition(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    rec: &obs::Recorder,
    parent: u64,
    part: Partition,
) -> Result<SortReport> {
    let name = part.name();
    let span = rec.child_span((parent != 0).then_some(parent), &name);
    let blocks = sort_config(config, host, device);
    let sorter = ExternalSorter::new(device.clone(), host.clone(), blocks)?;
    let input = spill.path_range(part);
    let sorted = spill.scratch_path(&format!("{name}_sorted"));
    let report = sorter.sort_file(spill, &input, &sorted)?;
    std::fs::rename(&sorted, &input).map_err(StreamError::from)?;
    let id = span.id();
    rec.counter_on(id, "sort.pairs", report.pairs);
    rec.counter_on(id, "sort.initial_runs", report.initial_runs.into());
    rec.counter_on(id, "sort.merge_passes", report.merge_passes.into());
    rec.counter_on(id, "sort.disk_passes", report.disk_passes.into());
    rec.counter_on(id, "sort.spill_bytes", report.io.bytes_written);
    rec.metric_on(id, "sort.io_seconds", report.io.total_seconds());
    rec.metric_on(id, "sort.device_seconds", report.device_seconds);
    if report.window_advances > 0 {
        rec.counter_on(id, "merge.window_advances", report.window_advances);
    }
    Ok(report)
}

/// [`run`] with structured events and per-partition resume support: each
/// partition sorts under its own span (`sfx_00045`, `pfx_00045`, …)
/// carrying the sorter's `sort.*` counters, so a trace shows exactly which
/// partition paid for which merge passes.
///
/// Partitions whose name (`sfx_00045`, …) satisfies `skip` are already
/// durably sorted from a previous run: their footer record count still feeds
/// the report totals, but they are not re-sorted and emit **no** span (so a
/// trace of a resumed run shows exactly which partitions were redone). After
/// each freshly sorted partition lands under its final name, `on_sorted(name,
/// path)` runs before the next partition starts.
///
/// What is durable when `on_sorted` runs: the sorted file's bytes (synced
/// before either rename), but not yet its name — the rename over the
/// unsorted input is in the directory's journal only. A crash from here on
/// leaves `path` holding either the unsorted input or the sorted file, both
/// whole and self-verifying. The name becomes durable with the caller's next
/// directory fsync, which must come before any manifest that calls the
/// partition sorted; [`crate::Manifest::store`] does both in that order.
pub fn run_checkpointed(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    rec: &obs::Recorder,
    skip: impl Fn(&str) -> bool,
    on_sorted: &mut dyn FnMut(&str, &Path) -> Result<()>,
) -> Result<SortPhaseReport> {
    let mut report = SortPhaseReport::default();
    for part in partitions(config) {
        let (input, name) = (spill.path_range(part), part.name());
        if !input.exists() {
            continue;
        }
        let r = if skip(&name) {
            let footer = gstream::read_footer(&input)?;
            SortReport {
                pairs: footer.records,
                ..SortReport::default()
            }
        } else {
            let r = sort_partition(device, host, spill, config, rec, rec.current(), part)?;
            on_sorted(&name, &input)?;
            r
        };
        report.total_pairs += r.pairs;
        report.max_disk_passes = report.max_disk_passes.max(r.disk_passes);
        report
            .partitions
            .push((part.len, part.kind.tag().to_string(), r));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstream::spill::PartitionKind;
    use gstream::{IoStats, KvPair};
    use vgpu::GpuProfile;

    fn setup(host_bytes: u64) -> (stdx::TempDir, Device, HostMem, SpillDir) {
        let dir = stdx::tempdir().unwrap();
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        let device = Device::with_capacity(GpuProfile::k40(), 16 << 10);
        let host = HostMem::new(host_bytes);
        (dir, device, host, spill)
    }

    fn write_partition(spill: &SpillDir, kind: PartitionKind, len: u32, keys: &[u128]) {
        let mut w = spill.writer(kind, len).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            w.write(KvPair::new(k, i as u32)).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn all_partitions_end_up_sorted_in_place() {
        let (_g, device, host, spill) = setup(8 << 10);
        for len in 3..6u32 {
            write_partition(&spill, PartitionKind::Suffix, len, &[9, 2, 7, 1]);
            write_partition(&spill, PartitionKind::Prefix, len, &[5, 5, 0]);
        }
        let config = AssemblyConfig::for_dataset(3, 6);
        let report = run(&device, &host, &spill, &config).unwrap();
        assert_eq!(report.partitions.len(), 6);
        assert_eq!(report.total_pairs, 3 * 7);
        for len in 3..6u32 {
            let got: Vec<u128> = spill
                .reader(PartitionKind::Suffix, len)
                .unwrap()
                .read_all()
                .unwrap()
                .iter()
                .map(|p| p.key)
                .collect();
            assert_eq!(got, vec![1, 2, 7, 9]);
        }
    }

    #[test]
    fn sort_file_emits_counters_matching_its_report() {
        // 1 000-byte budget → m_h = 25 pairs; 100 pairs → 4 runs, merged.
        let (_g, device, host, spill) = setup(1000);
        let keys: Vec<u128> = (0..100u32).rev().map(u128::from).collect();
        write_partition(&spill, PartitionKind::Suffix, 5, &keys);
        let config = AssemblyConfig::for_dataset(5, 6);
        let rec = obs::Recorder::new();
        let phase = rec.span("sort");
        let [sfx, _] = Partition::pair(5, 0, 1);
        let report =
            sort_partition(&device, &host, &spill, &config, &rec, phase.id(), sfx).unwrap();
        drop(phase);
        let rollup = obs::Rollup::from_events(&rec.events());
        let sort = rollup.root_named("sort").unwrap();
        let node = rollup.child_named(sort.id, "sfx_00005").unwrap();
        let agg = rollup.subtree(node.id);
        assert_eq!(agg.counter("sort.pairs"), report.pairs);
        assert_eq!(
            agg.counter("sort.initial_runs"),
            u64::from(report.initial_runs)
        );
        assert_eq!(
            agg.counter("sort.merge_passes"),
            u64::from(report.merge_passes)
        );
        assert_eq!(
            agg.counter("sort.disk_passes"),
            u64::from(report.disk_passes)
        );
        assert_eq!(agg.counter("sort.spill_bytes"), report.io.bytes_written);
        assert_eq!(agg.metric("sort.io_seconds"), report.io.total_seconds());
        assert_eq!(agg.metric("sort.device_seconds"), report.device_seconds);
        assert!(report.window_advances > 0);
        assert_eq!(agg.counter("merge.window_advances"), report.window_advances);
        // Once per sort: the merges themselves emit nothing.
        let advance_events = rec
            .events()
            .iter()
            .filter(|e| matches!(e, obs::Event::Counter { name, .. } if name == "merge.window_advances"))
            .count();
        assert_eq!(advance_events, 1);
        // The partition is sorted in place and no scratch file is left.
        let got = spill
            .reader(PartitionKind::Suffix, 5)
            .unwrap()
            .read_all()
            .unwrap();
        assert!(got.iter().map(|p| p.key).eq(0..100));
        assert!(!spill.scratch_path("sfx_00005_sorted").exists());
    }

    #[test]
    fn missing_partitions_are_skipped() {
        let (_g, device, host, spill) = setup(8 << 10);
        write_partition(&spill, PartitionKind::Suffix, 4, &[3, 1]);
        let config = AssemblyConfig::for_dataset(3, 6);
        let report = run(&device, &host, &spill, &config).unwrap();
        assert_eq!(report.partitions.len(), 1);
    }

    #[test]
    fn small_host_budget_forces_multiple_disk_passes() {
        // 600-byte budget → m_h = 15 pairs; 60 pairs → 4 runs → 3 passes.
        let (_g, device, host, spill) = setup(600);
        let keys: Vec<u128> = (0..60u32).rev().map(|i| i as u128).collect();
        write_partition(&spill, PartitionKind::Suffix, 5, &keys);
        let config = AssemblyConfig::for_dataset(5, 6);
        let report = run(&device, &host, &spill, &config).unwrap();
        assert!(
            report.max_disk_passes >= 3,
            "passes: {}",
            report.max_disk_passes
        );
        let got: Vec<u128> = spill
            .reader(PartitionKind::Suffix, 5)
            .unwrap()
            .read_all()
            .unwrap()
            .iter()
            .map(|p| p.key)
            .collect();
        assert_eq!(got, (0..60).map(|i| i as u128).collect::<Vec<_>>());
    }

    #[test]
    fn respects_explicit_sort_config() {
        let (_g, device, host, spill) = setup(64 << 10);
        write_partition(&spill, PartitionKind::Prefix, 3, &[2, 1]);
        let mut config = AssemblyConfig::for_dataset(3, 4);
        config.sort = Some(SortConfig {
            host_block_pairs: 4,
            device_block_pairs: 2,
            kway: false,
        });
        let report = run(&device, &host, &spill, &config).unwrap();
        assert_eq!(report.partitions.len(), 1);
    }

    #[test]
    fn empty_spill_dir_is_a_no_op() {
        let (_g, device, host, spill) = setup(8 << 10);
        let config = AssemblyConfig::for_dataset(3, 6);
        let report = run(&device, &host, &spill, &config).unwrap();
        assert!(report.partitions.is_empty());
        assert_eq!(report.total_pairs, 0);
    }

    #[test]
    fn checkpointed_run_skips_sorted_partitions_and_reports_each_fresh_one() {
        let (_g, device, host, spill) = setup(8 << 10);
        for len in 3..6u32 {
            write_partition(&spill, PartitionKind::Suffix, len, &[9, 2, 7, 1]);
        }
        let config = AssemblyConfig::for_dataset(3, 6);
        let rec = obs::Recorder::new();
        let mut sorted_tags = Vec::new();
        let report = run_checkpointed(
            &device,
            &host,
            &spill,
            &config,
            &rec,
            |tag| tag == "sfx_00004",
            &mut |tag, path| {
                assert!(path.exists());
                sorted_tags.push(tag.to_string());
                Ok(())
            },
        )
        .unwrap();
        // Skipped partition still counts toward totals but is not re-sorted.
        assert_eq!(report.partitions.len(), 3);
        assert_eq!(report.total_pairs, 3 * 4);
        assert_eq!(sorted_tags, vec!["sfx_00003", "sfx_00005"]);
        // And it emits no span: only the two fresh partitions appear.
        let names: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                obs::Event::SpanStart { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert!(names.contains(&"sfx_00003".to_string()));
        assert!(!names.contains(&"sfx_00004".to_string()));
    }

    #[test]
    fn writer_dropped_mid_write_yields_corrupt_error_on_sort() {
        let (_g, device, host, spill) = setup(8 << 10);
        // Hand-craft a truncated partition file.
        let path = spill.path(PartitionKind::Suffix, 4);
        std::fs::write(&path, [0u8; KvPair::BYTES + 7]).unwrap();
        let config = AssemblyConfig::for_dataset(4, 5);
        assert!(run(&device, &host, &spill, &config).is_err());
    }
}
