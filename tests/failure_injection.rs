//! Failure injection: corrupt spill data, impossible budgets, degenerate
//! inputs — the pipeline must fail loudly, never silently mis-assemble.

use lasagna_repro::gstream::spill::PartitionKind;
use lasagna_repro::lasagna::LasagnaError;
use lasagna_repro::prelude::*;

fn reads(seed: u64) -> ReadSet {
    let genome = GenomeSim::uniform(2_000, seed).generate();
    ShotgunSim::error_free(60, 8.0, seed + 1).sample(&genome)
}

#[test]
fn truncated_partition_file_fails_the_sort_phase() {
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(40, 60);
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    let device = Device::with_capacity(GpuProfile::k40(), 8 << 20);
    let host = HostMem::new(32 << 20);

    // Run map manually, then vandalize one partition.
    let r = reads(1);
    lasagna_repro::lasagna::map::run(&device, &host, &spill, &config, &r).unwrap();
    let victim = spill.path(PartitionKind::Suffix, 45);
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes.truncate(bytes.len() - 7); // mid-record
    std::fs::write(&victim, bytes).unwrap();

    let err = lasagna_repro::lasagna::sortphase::run(&device, &host, &spill, &config).unwrap_err();
    assert!(matches!(
        err,
        LasagnaError::Stream(gstream::StreamError::Corrupt(_))
    ));
}

#[test]
fn device_too_small_for_a_single_batch_reports_oom() {
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(40, 60);
    // 1 KB device: not even one read's fingerprints fit.
    let device = Device::with_capacity(GpuProfile::k40(), 1 << 10);
    let host = HostMem::new(32 << 20);
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    let pipeline = Pipeline::new(device, host, spill, config).unwrap();
    let err = pipeline.assemble(&reads(2)).unwrap_err();
    assert!(
        matches!(
            err,
            LasagnaError::Device(vgpu::DeviceError::OutOfMemory { .. })
        ),
        "got {err}"
    );
}

#[test]
fn host_budget_smaller_than_one_read_fails_cleanly() {
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(40, 60);
    let device = Device::with_capacity(GpuProfile::k40(), 8 << 20);
    let host = HostMem::new(64); // bytes!
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    let pipeline = Pipeline::new(device, host, spill, config).unwrap();
    let err = pipeline.assemble(&reads(3)).unwrap_err();
    assert!(
        matches!(
            err,
            LasagnaError::Stream(gstream::StreamError::HostMem(gstream::OverBudget {
                capacity: 64,
                ..
            }))
        ),
        "got {err}"
    );
    assert!(
        err.to_string()
            .starts_with("stream: host memory budget exceeded: requested "),
        "{err}"
    );
}

#[test]
fn invalid_configs_are_rejected_before_any_work() {
    let dir = stdx::tempdir().unwrap();
    for (l_min, l_max) in [(0u32, 60u32), (60, 60), (61, 60)] {
        let config = AssemblyConfig::for_dataset(l_min, l_max);
        assert!(
            Pipeline::laptop(config, dir.path()).is_err(),
            "{l_min}/{l_max}"
        );
    }
}

#[test]
fn read_length_mismatch_is_detected() {
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(40, 80); // expects 80 bp
    let pipeline = Pipeline::laptop(config, dir.path()).unwrap();
    let err = pipeline.assemble(&reads(4)).unwrap_err(); // 60 bp reads
    assert!(matches!(err, LasagnaError::BadConfig(_)));
}

#[test]
fn missing_spill_directory_parent_fails_at_construction() {
    let config = AssemblyConfig::for_dataset(40, 60);
    // A path whose parent is a *file* cannot become a directory.
    let dir = stdx::tempdir().unwrap();
    let blocker = dir.path().join("blocker");
    std::fs::write(&blocker, b"file").unwrap();
    let result = Pipeline::laptop(config, blocker.join("sub"));
    assert!(result.is_err());
}

#[test]
fn empty_input_produces_empty_but_valid_output_everywhere() {
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(40, 60);
    let pipeline = Pipeline::laptop(config, dir.path()).unwrap();
    let out = pipeline.assemble(&ReadSet::new(60)).unwrap();
    assert_eq!(out.contigs.len(), 0);
    assert_eq!(out.report.graph_edges, 0);
    assert_eq!(out.report.phases.len(), 5);
    out.graph.check_invariants().unwrap();
}

// --- Deterministic crash/resume (see ROBUSTNESS.md) ---------------------

use lasagna_repro::faultsim::{self, FaultPlan, Faults};
use lasagna_repro::lasagna::Manifest;
use lasagna_repro::qserve::{self, generations, ContigStore, IndexConfig};
use std::path::Path;

fn laptop_on(dir: &Path) -> Pipeline {
    Pipeline::laptop(AssemblyConfig::for_dataset(40, 60), dir).unwrap()
}

fn flip_bit_mid_file(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(path, bytes).unwrap();
}

/// The failpoint and occurrence of the injected fault `err` carries.
fn armed(err: &LasagnaError) -> Option<(&str, u64)> {
    err.fault().map(|f| (f.point.as_str(), f.occurrence))
}

fn is_corrupt(err: &LasagnaError) -> bool {
    matches!(err, LasagnaError::Stream(gstream::StreamError::Corrupt(_)))
}

#[test]
fn crash_at_every_failpoint_then_resume_reproduces_identical_contigs() {
    let r = reads(20);
    let baseline_dir = stdx::tempdir().unwrap();
    let baseline = laptop_on(baseline_dir.path()).assemble(&r).unwrap();
    for point in [
        faultsim::SPILL_WRITE,
        faultsim::READER_OPEN,
        faultsim::KERNEL_LAUNCH,
        faultsim::MANIFEST_WRITE,
    ] {
        for nth in [1u64, 4] {
            let dir = stdx::tempdir().unwrap();
            let err = laptop_on(dir.path())
                .with_faults(Faults::from_plan(&FaultPlan::new().fail_at(point, nth)))
                .resume(&r)
                .unwrap_err();
            assert_eq!(
                armed(&err),
                Some((point, nth)),
                "{point}:{nth} died on a real error: {err}"
            );
            // A fresh process resumes from the manifest and must produce
            // bit-identical output, no matter where the crash landed.
            let resumed = laptop_on(dir.path()).resume(&r).unwrap();
            assert_eq!(resumed.contigs, baseline.contigs, "{point}:{nth}");
            assert_eq!(
                resumed.graph.edge_count(),
                baseline.graph.edge_count(),
                "{point}:{nth}"
            );
        }
    }
}

#[test]
fn crash_on_first_middle_and_last_map_commit_leaves_nothing_a_rerun_trusts() {
    // Map commits its 2 x 20 partition files one by one and fsyncs their
    // directory once, after the last rename: a crash on the last commit
    // dies with 39 files renamed and none of them durable by name.
    let r = reads(20);
    let baseline_dir = stdx::tempdir().unwrap();
    let baseline = laptop_on(baseline_dir.path()).assemble(&r).unwrap();
    let map_commits = 40;
    for nth in [1, map_commits / 2, map_commits] {
        let dir = stdx::tempdir().unwrap();
        let plan = FaultPlan::new().fail_at(faultsim::SPILL_WRITE, nth);
        let err = laptop_on(dir.path())
            .with_faults(Faults::from_plan(&plan))
            .resume(&r)
            .unwrap_err();
        assert_eq!(
            armed(&err),
            Some((faultsim::SPILL_WRITE, nth)),
            "{nth}: {err}"
        );

        // The files committed before the crash are there (suffix before
        // prefix, ascending length), no temp file is, and the manifest
        // vouches for none of them: map is not done, no partition recorded.
        let kv = |kind| {
            SpillDir::open(dir.path(), IoStats::default())
                .unwrap()
                .lengths(kind)
        };
        let committed =
            kv(PartitionKind::Suffix).unwrap().len() + kv(PartitionKind::Prefix).unwrap().len();
        assert_eq!(committed as u64, nth - 1, "{nth}");
        assert!(no_tmp_left(dir.path()), "{nth}");
        let manifest = Manifest::load(dir.path()).unwrap().unwrap();
        assert!(!manifest.is_done("map"), "{nth}");
        assert!(
            manifest.files.keys().all(|name| !name.ends_with(".kv")),
            "{nth}"
        );

        let resumed = laptop_on(dir.path()).resume(&r).unwrap();
        assert_eq!(resumed.contigs, baseline.contigs, "{nth}");
        assert_eq!(
            resumed.graph.edge_count(),
            baseline.graph.edge_count(),
            "{nth}"
        );
    }
}

#[test]
fn crash_on_scratch_and_final_sort_commits_then_resume_reproduces_identical_contigs() {
    // Four runs and three disk passes per partition, so the sort commits
    // un-fsynced scratch (runs, first-generation merges) as well as the
    // durable sorted file. `reads(26)` gives every partition one tuple per
    // vertex.
    let r = reads(26);
    let multi_run_on = |dir: &Path| host_block_on(dir, (2 * r.len()).div_ceil(4));
    let baseline_dir = stdx::tempdir().unwrap();
    let baseline = multi_run_on(baseline_dir.path()).assemble(&r).unwrap();

    // Map commits its 2 x 20 partitions first; a partition's sort then
    // commits run0..run3, gen0_m0, gen0_m1 and the sorted file, in that order.
    let map_commits = 40;
    // What a dead run leaves as scratch pins where its crash landed.
    let scratch = ["run0", "run1", "run3", "gen0_m0", "gen0_m1"];
    for (nth, landed_on, left) in [
        (2, "run1", [true, false, false, false, false]),
        (5, "gen0_m0", [true, true, true, false, false]),
        (7, "sorted file", [false, false, false, true, true]),
    ] {
        let dir = stdx::tempdir().unwrap();
        let plan = FaultPlan::new().fail_at(faultsim::SPILL_WRITE, map_commits + nth);
        let err = multi_run_on(dir.path())
            .with_faults(Faults::from_plan(&plan))
            .resume(&r)
            .unwrap_err();
        assert_eq!(
            armed(&err),
            Some((faultsim::SPILL_WRITE, map_commits + nth)),
            "{landed_on}: {err}"
        );
        let exists = |label| dir.path().join(format!("scratch_{label}.kv")).exists();
        assert_eq!(scratch.map(exists), left, "{landed_on}");
        assert!(Manifest::load(dir.path())
            .unwrap()
            .unwrap()
            .sorted
            .is_empty());

        let resumed = multi_run_on(dir.path()).resume(&r).unwrap();
        assert_eq!(resumed.contigs, baseline.contigs, "{landed_on}");
        assert_eq!(
            resumed.graph.edge_count(),
            baseline.graph.edge_count(),
            "{landed_on}"
        );
    }
}

/// A pipeline that sorts in host blocks of `host_block_pairs`: the sort
/// phase stores the manifest each time that many pairs have been sorted
/// since the last store. `reads(26)` gives each of the 40 partitions one
/// tuple per vertex, 2 x the number of reads.
fn host_block_on(dir: &Path, host_block_pairs: usize) -> Pipeline {
    let mut config = AssemblyConfig::for_dataset(40, 60);
    config.sort = Some(SortConfig {
        host_block_pairs,
        device_block_pairs: 32,
        kway: false,
    });
    let spill = SpillDir::create(dir, IoStats::default()).unwrap();
    let device = Device::with_capacity(GpuProfile::k40(), 64 << 20);
    Pipeline::new(device, HostMem::new(256 << 20), spill, config).unwrap()
}

/// The partitions a traced run sorted, in order: its `sfx_*` / `pfx_*` spans.
fn sorted_spans(rec: &lasagna_repro::obs::Recorder) -> Vec<String> {
    rec.events()
        .iter()
        .filter_map(|e| match e {
            lasagna_repro::obs::Event::SpanStart { name, .. }
                if name.starts_with("sfx_") || name.starts_with("pfx_") =>
            {
                Some(name.clone())
            }
            _ => None,
        })
        .collect()
}

fn no_tmp_left(dir: &Path) -> bool {
    std::fs::read_dir(dir)
        .unwrap()
        .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp"))
}

#[test]
fn resume_after_mid_sort_crash_redoes_only_unsorted_partitions() {
    let r = reads(26);
    let dir = stdx::tempdir().unwrap();
    // The paper's regime, a partition of several host blocks: the manifest
    // is stored after each. A partition's sort opens its input and its two
    // runs, so the ninth open lands in the third partition.
    let two_runs = r.len() + 1;
    let err = host_block_on(dir.path(), two_runs)
        .with_faults(Faults::from_plan(
            &FaultPlan::new().fail_at(faultsim::READER_OPEN, 9),
        ))
        .resume(&r)
        .unwrap_err();
    assert_eq!(armed(&err), Some((faultsim::READER_OPEN, 9)), "{err}");
    let manifest = Manifest::load(dir.path()).unwrap().unwrap();
    assert_eq!(manifest.sorted, ["sfx_00040", "pfx_00040"]);
    assert!(manifest.is_done("map") && !manifest.is_done("sort"));

    let rec = lasagna_repro::obs::Recorder::new();
    let out = host_block_on(dir.path(), two_runs)
        .with_recorder(rec.clone())
        .resume(&r)
        .unwrap();
    assert!(!out.contigs.is_empty());
    // Only the partitions not yet checkpointed get a sort span on resume.
    let resorted = sorted_spans(&rec);
    let total = Manifest::load(dir.path()).unwrap().unwrap().sorted;
    assert_eq!(total.len(), 40);
    assert_eq!(resorted, total[2..]);
}

#[test]
fn crash_between_sort_checkpoints_resorts_exactly_what_the_stored_manifest_does_not_mark() {
    // Partitions smaller than a host block share a manifest store: with a
    // host block of 2.5 partitions the sort phase stores after every third
    // partition (13 times) and once more when it ends.
    let r = reads(26);
    let per_partition = 2 * r.len();
    let host_block = per_partition * 5 / 2;
    let baseline_dir = stdx::tempdir().unwrap();
    let baseline = host_block_on(baseline_dir.path(), host_block)
        .assemble(&r)
        .unwrap();
    let all_tags = Manifest::load(baseline_dir.path()).unwrap().unwrap().sorted;
    assert_eq!(all_tags.len(), 40);

    // Before the phase: the fresh manifest's store and map's; map's 40
    // commits are the first `gstream.write` hits.
    let (stores_before, map_commits) = (2, 40);
    for (point, nth, marked, what) in [
        (
            faultsim::MANIFEST_WRITE,
            stores_before + 1,
            0,
            "first store",
        ),
        (
            faultsim::MANIFEST_WRITE,
            stores_before + 7,
            18,
            "a middle store",
        ),
        (
            faultsim::MANIFEST_WRITE,
            stores_before + 14,
            39,
            "the phase's last store",
        ),
        // The fifth partition's sorted file: the fourth is sorted on disk
        // and nothing stored says so.
        (
            faultsim::SPILL_WRITE,
            map_commits + 5,
            3,
            "a commit between two stores",
        ),
    ] {
        let dir = stdx::tempdir().unwrap();
        let err = host_block_on(dir.path(), host_block)
            .with_faults(Faults::from_plan(&FaultPlan::new().fail_at(point, nth)))
            .resume(&r)
            .unwrap_err();
        assert_eq!(armed(&err), Some((point, nth)), "{what}: {err}");
        let manifest = Manifest::load(dir.path()).unwrap().unwrap();
        assert_eq!(manifest.sorted, all_tags[..marked], "{what}");
        assert!(!manifest.is_done("sort"), "{what}");

        let rec = lasagna_repro::obs::Recorder::new();
        let resumed = host_block_on(dir.path(), host_block)
            .with_recorder(rec.clone())
            .resume(&r)
            .unwrap();
        assert_eq!(sorted_spans(&rec), all_tags[marked..], "{what}");
        assert_eq!(resumed.contigs, baseline.contigs, "{what}");
        assert_eq!(
            resumed.graph.edge_count(),
            baseline.graph.edge_count(),
            "{what}"
        );
        assert!(no_tmp_left(dir.path()), "{what}");
    }
}

#[test]
fn the_sort_phase_stores_the_manifest_once_per_host_block_of_sorted_pairs() {
    let r = reads(26);
    let per_partition = 2 * r.len();
    let stores = |pipeline: Pipeline| {
        // A plan that never fires, so that hits are counted.
        let faults = Faults::from_plan(&FaultPlan::new().fail_at(faultsim::MANIFEST_WRITE, 1_000));
        pipeline.with_faults(faults.clone()).assemble(&r).unwrap();
        faults.hits(faultsim::MANIFEST_WRITE)
    };
    // Outside the sort phase: the fresh manifest, map and reduce.
    let other_stores = 3;
    // Laptop budgets: every partition fits one host block many times over,
    // and the phase stores once, as it ends.
    let dir = stdx::tempdir().unwrap();
    assert_eq!(stores(laptop_on(dir.path())), other_stores + 1);
    // A partition of at least one host block is stored as it lands, as
    // every partition was before the cadence followed the host block.
    for host_block in [per_partition, per_partition / 3] {
        let dir = stdx::tempdir().unwrap();
        assert_eq!(
            stores(host_block_on(dir.path(), host_block)),
            other_stores + 40 + 1,
            "m_h = {host_block}"
        );
    }
    // In between: a store per 2.5 partitions' worth, rounded up to whole
    // partitions.
    let dir = stdx::tempdir().unwrap();
    assert_eq!(
        stores(host_block_on(dir.path(), per_partition * 5 / 2)),
        other_stores + 13 + 1
    );
}

#[test]
fn bit_flip_in_a_checkpointed_partition_fails_resume_loudly() {
    let r = reads(22);
    let dir = stdx::tempdir().unwrap();
    laptop_on(dir.path()).resume(&r).unwrap();
    let victim = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("sfx_"))
        })
        .expect("no sorted partition on disk");
    flip_bit_mid_file(&victim);
    let err = laptop_on(dir.path()).resume(&r).unwrap_err();
    assert!(is_corrupt(&err), "got {err}");
}

#[test]
fn bit_flip_in_the_checkpointed_graph_fails_resume_loudly() {
    let r = reads(23);
    let dir = stdx::tempdir().unwrap();
    laptop_on(dir.path()).resume(&r).unwrap();
    flip_bit_mid_file(&dir.path().join("graph.bin"));
    let err = laptop_on(dir.path()).resume(&r).unwrap_err();
    assert!(is_corrupt(&err), "got {err}");
}

#[test]
fn garbage_manifest_fails_resume_loudly() {
    let r = reads(24);
    let dir = stdx::tempdir().unwrap();
    laptop_on(dir.path()).resume(&r).unwrap();
    std::fs::write(dir.path().join("manifest.json"), b"not a manifest").unwrap();
    let err = laptop_on(dir.path()).resume(&r).unwrap_err();
    assert!(is_corrupt(&err), "got {err}");
}

#[test]
fn completed_run_resumes_to_identical_output_without_rework() {
    let r = reads(25);
    let dir = stdx::tempdir().unwrap();
    let first = laptop_on(dir.path()).resume(&r).unwrap();
    let rec = lasagna_repro::obs::Recorder::new();
    let second = laptop_on(dir.path())
        .with_recorder(rec.clone())
        .resume(&r)
        .unwrap();
    assert_eq!(first.contigs, second.contigs);
    let names: Vec<String> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            lasagna_repro::obs::Event::SpanStart { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    for resumed in ["map (resumed)", "sort (resumed)", "reduce (resumed)"] {
        assert!(names.contains(&resumed.to_string()), "missing {resumed:?}");
    }
}

#[test]
fn resume_restarts_from_scratch_when_the_dataset_changes() {
    let dir = stdx::tempdir().unwrap();
    laptop_on(dir.path()).resume(&reads(26)).unwrap();
    // Different reads, same shape: the config hash differs, so resuming is
    // silently a fresh run — never a mix of two datasets' partitions.
    let other = reads(27);
    let out = laptop_on(dir.path()).resume(&other).unwrap();
    let baseline_dir = stdx::tempdir().unwrap();
    let baseline = laptop_on(baseline_dir.path()).assemble(&other).unwrap();
    assert_eq!(out.contigs, baseline.contigs);
}

#[test]
fn distributed_node_kill_recovers_to_the_single_node_graph() {
    use lasagna_repro::dnet::{Cluster, ClusterConfig, NetModel};
    let genome = GenomeSim::uniform(1_500, 31).generate();
    let r = ShotgunSim::error_free(60, 8.0, 32).sample(&genome);
    let single_dir = stdx::tempdir().unwrap();
    let expect = Pipeline::laptop(AssemblyConfig::for_dataset(40, 60), single_dir.path())
        .unwrap()
        .assemble(&r)
        .unwrap()
        .graph;
    let dir = stdx::tempdir().unwrap();
    let cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        gpu: GpuProfile::k20x(),
        device_capacity: 1 << 20,
        host_capacity: 8 << 20,
        disk: DiskModel::hdd(),
        net: NetModel::infiniband_56g(),
        block_reads: 40,
        assembly: AssemblyConfig::for_dataset(40, 60),
        reduce_strategy: lasagna_repro::dnet::cluster::ReduceStrategy::LengthToken,
    })
    .unwrap()
    .with_faults(Faults::from_plan(
        &FaultPlan::new().fail_at(faultsim::DNET_AM, 4),
    ));
    let out = cluster.assemble(&r, dir.path()).unwrap();
    assert_eq!(out.graph.edge_count(), expect.edge_count());
    for v in 0..expect.vertex_count() {
        assert_eq!(out.graph.out(v), expect.out(v), "vertex {v}");
    }
}

// --- Distributed checkpoint/resume (see ROBUSTNESS.md) ------------------

fn dnet_reads(seed: u64) -> ReadSet {
    let genome = GenomeSim::uniform(1_500, seed).generate();
    ShotgunSim::error_free(60, 8.0, seed + 1).sample(&genome)
}

fn dnet_cluster(nodes: usize) -> lasagna_repro::dnet::Cluster {
    use lasagna_repro::dnet::{Cluster, ClusterConfig, NetModel, ReduceStrategy};
    Cluster::new(ClusterConfig {
        nodes,
        gpu: GpuProfile::k20x(),
        device_capacity: 1 << 20,
        host_capacity: 8 << 20,
        disk: DiskModel::hdd(),
        net: NetModel::infiniband_56g(),
        block_reads: 40,
        assembly: AssemblyConfig::for_dataset(40, 60),
        reduce_strategy: ReduceStrategy::LengthToken,
    })
    .unwrap()
}

fn dnet_single_node_graph(r: &ReadSet) -> StringGraph {
    let dir = stdx::tempdir().unwrap();
    Pipeline::laptop(AssemblyConfig::for_dataset(40, 60), dir.path())
        .unwrap()
        .assemble(r)
        .unwrap()
        .graph
}

fn assert_graphs_match(got: &StringGraph, expect: &StringGraph, what: &str) {
    assert_eq!(got.edge_count(), expect.edge_count(), "{what}");
    for v in 0..expect.vertex_count() {
        assert_eq!(got.out(v), expect.out(v), "{what}: vertex {v}");
    }
}

#[test]
fn sorted_partition_truncated_mid_footer_fails_resume_loudly() {
    let r = reads(28);
    let dir = stdx::tempdir().unwrap();
    laptop_on(dir.path()).resume(&r).unwrap();
    let victim = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("sfx_"))
        })
        .expect("no sorted partition on disk");
    // Chop into the 24-byte footer itself, as a crash mid-append would:
    // the magic is destroyed, so the manifest checkpoint no longer matches.
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes.truncate(bytes.len() - 5);
    std::fs::write(&victim, bytes).unwrap();
    let err = laptop_on(dir.path()).resume(&r).unwrap_err();
    assert!(is_corrupt(&err), "got {err}");
}

/// Simulate a torn write: the final disk sector never made it out, so
/// everything from the last 512-byte boundary to EOF reads back as
/// zeros. (If that tail already was all zeros, the last byte is flipped
/// instead so the tear is visible — the point is a damaged tail, not a
/// no-op.)
fn tear_tail_512(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    assert!(!bytes.is_empty(), "nothing to tear in {}", path.display());
    let boundary = (bytes.len() - 1) / 512 * 512;
    let tail_was_zero = bytes[boundary..].iter().all(|&b| b == 0);
    for b in &mut bytes[boundary..] {
        *b = 0;
    }
    if tail_was_zero {
        *bytes.last_mut().unwrap() = 0xFF;
    }
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn torn_tail_in_a_sorted_partition_fails_resume_loudly() {
    let r = reads(40);
    let dir = stdx::tempdir().unwrap();
    laptop_on(dir.path()).resume(&r).unwrap();
    let victim = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("sfx_"))
        })
        .expect("no sorted partition on disk");
    tear_tail_512(&victim);
    let err = laptop_on(dir.path()).resume(&r).unwrap_err();
    assert!(is_corrupt(&err), "got {err}");
    // The error must name the damaged file, not just say "corrupt".
    let name = victim.file_name().unwrap().to_string_lossy().into_owned();
    assert!(err.to_string().contains(&name), "got {err}");
}

#[test]
fn bit_flip_in_the_tail_the_join_never_read_fails_reduce_loudly() {
    // Ten suffixes against three blocks of prefixes: the join stops when the
    // suffixes run dry, inside the prefixes' first block, and the flip sits
    // in their last. Only the verification after the join can see it.
    let dir = stdx::tempdir().unwrap();
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    for (kind, pairs) in [(PartitionKind::Suffix, 10), (PartitionKind::Prefix, 8_000)] {
        let keys: Vec<u128> = (0..pairs).collect();
        let vals: Vec<u32> = (0..pairs as u32).map(|i| 2 * i).collect();
        let mut w = spill.writer(kind, 45).unwrap();
        w.write_columns(gstream::Pairs {
            keys: &keys,
            vals: &vals,
        })
        .unwrap();
        w.finish().unwrap();
    }
    let device = Device::new(GpuProfile::k40());
    let host = HostMem::new(2_000); // windows of 12 pairs a side
    let config = AssemblyConfig::for_dataset(45, 46);
    let reduce = || {
        let mut graph = StringGraph::new(16_000);
        lasagna_repro::lasagna::reduce::run(&device, &host, &spill, &config, &mut graph)
    };
    assert_eq!(reduce().unwrap().candidates, 10);

    let victim = spill.path(PartitionKind::Prefix, 45);
    let mut bytes = std::fs::read(&victim).unwrap();
    let last_record = bytes.len() - gstream::Footer::BYTES - gstream::KvPair::BYTES;
    bytes[last_record] ^= 0x01;
    std::fs::write(&victim, bytes).unwrap();
    let err = reduce().unwrap_err();
    assert!(is_corrupt(&err), "got {err}");
    let name = victim.file_name().unwrap().to_string_lossy().into_owned();
    assert!(err.to_string().contains(&name), "got {err}");
}

#[test]
fn torn_tail_in_the_checkpointed_graph_fails_resume_loudly() {
    let r = reads(41);
    let dir = stdx::tempdir().unwrap();
    laptop_on(dir.path()).resume(&r).unwrap();
    tear_tail_512(&dir.path().join("graph.bin"));
    let err = laptop_on(dir.path()).resume(&r).unwrap_err();
    assert!(is_corrupt(&err), "got {err}");
    assert!(err.to_string().contains("graph.bin"), "got {err}");
}

#[test]
fn torn_tail_in_the_contig_store_fails_open_loudly() {
    let r = reads(42);
    let dir = stdx::tempdir().unwrap();
    let contigs = laptop_on(dir.path()).assemble(&r).unwrap().contigs;
    let io = IoStats::default();
    let id = generations::export(dir.path(), &contigs, &IndexConfig::default(), &io).unwrap();
    let store_name = qserve::gen_store_file(id);
    tear_tail_512(&dir.path().join(&store_name));
    let err = ContigStore::open(&dir.path().join(&store_name), &io).unwrap_err();
    assert!(matches!(err, gstream::StreamError::Corrupt(_)), "got {err}");
    assert!(err.to_string().contains(&store_name), "got {err}");
}

#[test]
fn torn_superstep_log_tail_never_mis_assembles_on_resume() {
    let r = dnet_reads(33);
    let expect = dnet_single_node_graph(&r);
    let dir = stdx::tempdir().unwrap();
    dnet_cluster(2).resume(&r, dir.path()).unwrap();
    // Tear the master log mid-record, as a crash during append would
    // leave it. The torn record is dropped and its superstep replayed —
    // the resumed graph must still be bit-identical, never mis-assembled.
    let log = dir.path().join(lasagna_repro::dnet::superstep::LOG_NAME);
    let mut bytes = std::fs::read(&log).unwrap();
    assert!(bytes.len() > 10, "log too small to tear");
    bytes.truncate(bytes.len() - 10);
    std::fs::write(&log, bytes).unwrap();
    let out = dnet_cluster(2).resume(&r, dir.path()).unwrap();
    assert!(out.report.resumed);
    assert_graphs_match(&out.graph, &expect, "torn log resume");
}

#[test]
fn distributed_kill_of_every_node_resumes_without_redoing_mapped_blocks() {
    let r = dnet_reads(35);
    let expect = dnet_single_node_graph(&r);
    let dir = stdx::tempdir().unwrap();
    // Kill both nodes a few active messages in: at least one input block
    // was durably mapped and checkpointed before the run lost its last
    // survivor.
    let plan = FaultPlan::new()
        .fail_at(faultsim::DNET_AM, 4)
        .fail_at(faultsim::DNET_AM, 5);
    dnet_cluster(2)
        .with_faults(Faults::from_plan(&plan))
        .resume(&r, dir.path())
        .unwrap_err();

    let rec = lasagna_repro::obs::Recorder::new();
    let out = dnet_cluster(2)
        .with_recorder(rec.clone())
        .resume(&r, dir.path())
        .unwrap();
    assert!(out.report.resumed, "second run must resume, not restart");
    assert_graphs_match(&out.graph, &expect, "kill-all resume");
    let rollup = lasagna_repro::obs::Rollup::from_events(&rec.events());
    let root = rollup.root_named("distributed").unwrap();
    assert_eq!(
        rollup.subtree(root.id).counter("recovery.master_rebuilds"),
        1
    );
    let map_phase = rollup.child_named(root.id, "map").unwrap();
    assert!(
        rollup.subtree(map_phase.id).counter("phase.skipped_items") >= 1,
        "durably mapped blocks must be skipped on resume"
    );
}

// --- Disk-full during the generation export (see SERVING.md) ----------

/// Assemble `reads(24)` in `dir` and export the contigs as its next
/// generation, with `faults` armed on the export's I/O.
fn export_with(dir: &Path, faults: &Faults) -> (Vec<PackedSeq>, qserve::Result<u64>) {
    let contigs = laptop_on(dir).assemble(&reads(24)).unwrap().contigs;
    assert!(!contigs.is_empty());
    let io = IoStats::default();
    io.set_faults(faults.clone());
    let exported = generations::export(dir, &contigs, &IndexConfig::default(), &io);
    (contigs, exported)
}

#[test]
fn disk_full_during_store_export_is_absorbed_by_one_retry() {
    let dir = stdx::tempdir().unwrap();
    let faults = Faults::from_plan(&FaultPlan::new().fail_at(faultsim::QSERVE_STORE_WRITE, 1));
    let (contigs, exported) = export_with(dir.path(), &faults);
    let id = exported.unwrap();
    assert_eq!(
        faults.hits(faultsim::QSERVE_STORE_WRITE),
        2,
        "one ENOSPC-shaped failure, then the clean retry"
    );
    // The retried export is complete and bit-identical: the failed
    // attempt left nothing behind to confuse the reader.
    let store_path = dir.path().join(qserve::gen_store_file(id));
    let store = ContigStore::open(&store_path, &IoStats::default()).unwrap();
    assert_eq!(store.contigs(), &contigs[..]);
}

#[test]
fn disk_full_twice_during_store_export_propagates_as_storage_full() {
    let dir = stdx::tempdir().unwrap();
    let plan = FaultPlan::new()
        .fail_at(faultsim::QSERVE_STORE_WRITE, 1)
        .fail_at(faultsim::QSERVE_STORE_WRITE, 2);
    let (_, exported) = export_with(dir.path(), &Faults::from_plan(&plan));
    let err = exported.unwrap_err();
    assert!(
        matches!(
            &err,
            qserve::QserveError::Stream(gstream::StreamError::Io(e))
                if e.kind() == std::io::ErrorKind::StorageFull
        ),
        "a genuinely full disk must surface as StorageFull I/O, got {err}"
    );
    assert!(
        !qserve::GenManifest::exists(dir.path()),
        "a failed export lists no generation"
    );
}
