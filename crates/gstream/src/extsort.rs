//! Hybrid-memory external sort — the paper's Section III-B.
//!
//! Sorting proceeds in two levels, mirroring the "sorting in hybrid-memory"
//! optimization:
//!
//! 1. **Disk ↔ host**: blocks of `m_h` pairs are read from disk, sorted in
//!    host memory, and written back as runs; the runs are then merged
//!    pairwise with [`windowed_merge`] (Algorithm 1) until one remains.
//!    Disk passes = `1 + ceil(log2(runs))`, which is the
//!    `1 + log(n / m_h)` the paper reports.
//! 2. **Host ↔ device**: sorting a host block streams chunks of `m_d`
//!    pairs to the device for radix sorting, then merges the sorted chunks
//!    (again Algorithm 1, with `M = m_d`) entirely in host memory.
//!
//! Without the host level (`m_h = m_d`), every merge pass is a disk pass —
//! the single-level strawman the paper improves on by a factor of
//! `log2(m_h / m_d)` (~3-4×). The `sort_levels` ablation bench measures
//! exactly this difference.

use crate::iostats::IoSnapshot;
use crate::merge::{device_merge, kway_merge, windowed_merge, FileSource, PairSource};
use crate::reader::RecordReader;
use crate::record::{Columns, KvPair, Pairs};
use crate::spill::SpillDir;
use crate::writer::RecordWriter;
use crate::HostMem;
use crate::{Result, StreamError};
use std::path::{Path, PathBuf};
use vgpu::Device;

/// Block sizes for the two-level sort, in *pairs*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortConfig {
    /// Host block-size m_h: pairs per disk-level run.
    pub host_block_pairs: usize,
    /// Device block-size m_d: pairs resident on the device at once.
    pub device_block_pairs: usize,
    /// Merge runs with a single k-way pass instead of the paper's pairwise
    /// doubling (an ablation: cuts merge passes from `log2(runs)` to 1 at
    /// the cost of smaller per-run windows).
    pub kway: bool,
}

impl SortConfig {
    /// Derive the largest feasible configuration from the memory budgets:
    /// a host block plus its merge output must fit in host memory
    /// (`m_h = host / (2 · 20 B)`), and a device chunk plus its radix
    /// scratch must fit on the device (`m_d = device / (2 · 20 B)`).
    pub fn from_budgets(host: &HostMem, device: &Device) -> Self {
        let host_block_pairs = (host.capacity() as usize / KvPair::BYTES / 2).max(2);
        // A scaled-down host budget can undercut the device: the device can
        // never hold more pairs at once than the host streams to it.
        let device_block_pairs = (device.capacity() as usize / 40 / 2)
            .max(2)
            .min(host_block_pairs);
        SortConfig {
            host_block_pairs,
            device_block_pairs,
            kway: false,
        }
    }

    /// Check feasibility against the actual budgets.
    pub fn validate(&self, host: &HostMem, device: &Device) -> Result<()> {
        if self.device_block_pairs < 2 || self.host_block_pairs < 2 {
            return Err(StreamError::BadConfig(
                "block sizes must be at least 2 pairs".into(),
            ));
        }
        if self.device_block_pairs > self.host_block_pairs {
            return Err(StreamError::BadConfig(format!(
                "device block ({}) larger than host block ({})",
                self.device_block_pairs, self.host_block_pairs
            )));
        }
        // A device chunk occupies 20 B/pair; radix sort doubles it.
        let dev_need = self.device_block_pairs as u64 * 40;
        if dev_need > device.capacity() {
            return Err(StreamError::BadConfig(format!(
                "device block of {} pairs needs {dev_need} B, device has {} B",
                self.device_block_pairs,
                device.capacity()
            )));
        }
        let host_need = self.host_block_pairs as u64 * KvPair::BYTES as u64 * 2;
        if host_need > host.capacity() {
            return Err(StreamError::BadConfig(format!(
                "host block of {} pairs needs {host_need} B, budget is {} B",
                self.host_block_pairs,
                host.capacity()
            )));
        }
        Ok(())
    }
}

/// Outcome of one external sort.
#[derive(Debug, Clone, Default)]
pub struct SortReport {
    /// Pairs sorted.
    pub pairs: u64,
    /// Runs produced by the block-sort pass.
    pub initial_runs: u32,
    /// Disk-level merge passes performed after the block pass.
    pub merge_passes: u32,
    /// Total disk passes over the data (`1 + merge_passes`).
    pub disk_passes: u32,
    /// I/O performed (bytes and modeled seconds).
    pub io: IoSnapshot,
    /// Modeled device seconds (kernels + transfers).
    pub device_seconds: f64,
    /// Window advances of every merge of the sort, block merges included
    /// (see [`crate::Merged`]).
    pub window_advances: u64,
}

/// Where [`ExternalSorter::sort_file`] writes a run or a merge result, and
/// with that how the file is committed.
enum Target<'a> {
    /// A file a later pass of the same call reads and deletes, and that no
    /// manifest names: committed without fsync.
    Scratch(PathBuf),
    /// The caller's sorted output: its bytes are on disk (`sync_all`)
    /// before the rename gives it its name. The name itself is not made
    /// durable here: the caller renames the file once more, over its
    /// input, and fsyncs that directory before any manifest names it.
    Output(&'a Path),
}

impl Target<'_> {
    fn path(&self) -> &Path {
        match self {
            Target::Scratch(path) => path,
            Target::Output(path) => path,
        }
    }

    fn commit(&self, writer: RecordWriter) -> Result<()> {
        match self {
            Target::Scratch(_) => writer.finish_scratch(),
            Target::Output(_) => writer.finish_file(),
        }
        .map(|_| ())
    }
}

/// The two-level external sorter.
pub struct ExternalSorter {
    device: Device,
    host: HostMem,
    config: SortConfig,
}

impl ExternalSorter {
    /// Build a sorter; the configuration is validated against the budgets.
    pub fn new(device: Device, host: HostMem, config: SortConfig) -> Result<Self> {
        config.validate(&host, &device)?;
        Ok(ExternalSorter {
            device,
            host,
            config,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> SortConfig {
        self.config
    }

    /// Sort the next `block_pairs` pairs of `reader` in memory by streaming
    /// `m_d`-sized chunks through the device (radix sort per chunk, then
    /// iterative pairwise Algorithm-1 merging of the sorted chunks). Each
    /// chunk is decoded into the vectors that are moved to the device,
    /// sorted there and moved back as a run. Returns the sorted block and
    /// the window advances of its merges.
    fn sort_block(&self, reader: &mut RecordReader, block_pairs: usize) -> Result<(Columns, u64)> {
        let m_d = self.config.device_block_pairs;
        let mut left = reader.remaining().min(block_pairs as u64) as usize;
        let mut runs: Vec<Columns> = Vec::with_capacity(left / m_d + 1);
        while left > 0 {
            let mut chunk = Columns::default();
            reader.next_columns(left.min(m_d), &mut chunk)?;
            left -= chunk.len();
            let mut dk = self.device.h2d_vec(chunk.keys)?;
            let mut dv = self.device.h2d_vec(chunk.vals)?;
            self.device.sort_pairs(&mut dk, &mut dv)?;
            runs.push(Columns {
                keys: self.device.d2h_vec(dk),
                vals: self.device.d2h_vec(dv),
            });
        }
        // Iterative pairwise merging, doubling run length each round.
        let mut window_advances = 0;
        while runs.len() > 1 {
            let mut next = Vec::with_capacity(runs.len() / 2 + 1);
            let mut iter = runs.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => {
                        let pairs = a.len() + b.len();
                        let _guard = self.host.reserve((pairs * KvPair::BYTES) as u64)?;
                        let mut merged = Columns::with_capacity(pairs);
                        window_advances += device_merge(
                            &self.device,
                            a.pairs_from(0),
                            b.pairs_from(0),
                            m_d,
                            &mut merged,
                        )?
                        .window_advances;
                        next.push(merged);
                    }
                    None => next.push(a),
                }
            }
            runs = next;
        }
        Ok((runs.pop().unwrap_or_default(), window_advances))
    }

    /// Write one sorted run, retrying once after ENOSPC.
    ///
    /// A full disk mid-sort is recoverable exactly once: the failed commit
    /// already shed its partial scratch (`RecordWriter` deletes its temp
    /// file on any failed finish), so the retry starts from a clean slate
    /// with the shed bytes reclaimed. A second ENOSPC means the disk is
    /// genuinely full and the error propagates (`Io` / `StorageFull`,
    /// CLI exit code 5).
    fn write_run(&self, spill: &SpillDir, target: &Target, pairs: Pairs<'_>) -> Result<()> {
        let mut retried = false;
        loop {
            let mut w = RecordWriter::create(target.path(), spill.io().clone())?;
            w.write_columns(pairs)?;
            match target.commit(w) {
                Ok(()) => return Ok(()),
                Err(StreamError::Io(e))
                    if e.kind() == std::io::ErrorKind::StorageFull && !retried =>
                {
                    spill.io().faults().record_retry(faultsim::DISK_FULL);
                    retried = true;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Externally sort `input` into `output`, spilling runs into `spill`.
    ///
    /// Only `output`'s bytes are made durable (`sync_all` before the rename
    /// that names it); making the name durable is the caller's directory
    /// fsync, after it has moved the file where it belongs. Runs and
    /// intermediate merges are scratch: this call writes each before it
    /// reads it, so a crash loses nothing that sorting `input` again does
    /// not rebuild.
    pub fn sort_file(&self, spill: &SpillDir, input: &Path, output: &Path) -> Result<SortReport> {
        let io_before = spill.io().snapshot();
        let dev_before = self.device.stats();
        let m_h = self.config.host_block_pairs;

        // Pass 1: block sort into runs. A lone run (of an empty input too)
        // is the sorted output itself.
        let mut reader = RecordReader::open(input, spill.io().clone())?;
        let total_pairs = reader.remaining();
        let initial_runs = total_pairs.div_ceil(m_h as u64) as u32;
        let mut run_paths = Vec::new();
        let mut window_advances = 0;
        for run in 0..initial_runs.max(1) {
            let _block_guard = self
                .host
                .reserve((m_h * KvPair::BYTES) as u64)
                .map_err(StreamError::from)?;
            let (sorted, block_advances) = self.sort_block(&mut reader, m_h)?;
            window_advances += block_advances;
            let target = if initial_runs <= 1 {
                Target::Output(output)
            } else {
                Target::Scratch(spill.scratch_path(&format!("run{run}")))
            };
            self.write_run(spill, &target, sorted.pairs_from(0))?;
            if let Target::Scratch(path) = target {
                run_paths.push(path);
            }
        }

        // Pass 2..k: external merging until a single run remains. Each
        // round reads and writes all data once. The paper's scheme merges
        // pairwise (run length doubles per pass); the k-way ablation
        // drains as many runs per pass as the window budget allows.
        let fan_in = if self.config.kway {
            (m_h / 4).max(2) // ≥2 pairs of window per source
        } else {
            2
        };
        let mut merge_passes = 0u32;
        while run_paths.len() > 1 {
            let _window_guard = self
                .host
                .reserve((m_h * KvPair::BYTES) as u64)
                .map_err(StreamError::from)?;
            // A pass with a single group writes the sorted output.
            let last_pass = run_paths.len() <= fan_in;
            let mut next_paths = Vec::with_capacity(run_paths.len() / fan_in + 1);
            for group in run_paths.chunks(fan_in) {
                if group.len() == 1 {
                    next_paths.push(group[0].clone());
                    continue;
                }
                let target = if last_pass {
                    Target::Output(output)
                } else {
                    let label = format!("gen{merge_passes}_m{}", next_paths.len());
                    Target::Scratch(spill.scratch_path(&label))
                };
                let mut sources: Vec<FileSource> = group
                    .iter()
                    .map(|p| RecordReader::open(p, spill.io().clone()).map(FileSource::new))
                    .collect::<Result<_>>()?;
                let mut w = RecordWriter::create(target.path(), spill.io().clone())?;
                let merged = if let [a, b] = sources.as_mut_slice() {
                    windowed_merge(
                        &self.device,
                        a,
                        b,
                        &mut w,
                        m_h,
                        self.config.device_block_pairs,
                    )?
                } else {
                    let mut dyns: Vec<&mut dyn PairSource> = sources
                        .iter_mut()
                        .map(|s| s as &mut dyn PairSource)
                        .collect();
                    kway_merge(
                        &self.device,
                        &mut dyns,
                        &mut w,
                        m_h,
                        self.config.device_block_pairs,
                    )?
                };
                window_advances += merged.window_advances;
                target.commit(w)?;
                for p in group {
                    std::fs::remove_file(p)?;
                }
                if let Target::Scratch(path) = target {
                    next_paths.push(path);
                }
            }
            run_paths = next_paths;
            merge_passes += 1;
        }

        Ok(SortReport {
            pairs: total_pairs,
            initial_runs,
            merge_passes,
            disk_passes: 1 + merge_passes,
            io: spill.io().snapshot().since(&io_before),
            device_seconds: self.device.stats().since(&dev_before).total_seconds(),
            window_advances,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::IoStats;
    use stdx::check_cases;
    use vgpu::GpuProfile;

    fn setup(host_bytes: u64, dev_bytes: u64) -> (stdx::TempDir, SpillDir, ExternalSorter) {
        let dir = stdx::tempdir().unwrap();
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        let device = Device::with_capacity(GpuProfile::k40(), dev_bytes);
        let host = HostMem::new(host_bytes);
        let config = SortConfig::from_budgets(&host, &device);
        let sorter = ExternalSorter::new(device, host, config).unwrap();
        (dir, spill, sorter)
    }

    fn write_input(spill: &SpillDir, pairs: &[KvPair]) -> std::path::PathBuf {
        let path = spill.scratch_path("input");
        let mut w = RecordWriter::create(&path, spill.io().clone()).unwrap();
        w.write_all(pairs).unwrap();
        w.finish().unwrap();
        path
    }

    fn read_output(spill: &SpillDir, path: &std::path::Path) -> Vec<KvPair> {
        RecordReader::open(path, spill.io().clone())
            .unwrap()
            .read_all()
            .unwrap()
    }

    #[test]
    fn single_pass_when_everything_fits() {
        let (_g, spill, sorter) = setup(100_000, 100_000);
        let pairs: Vec<KvPair> = (0..100u32)
            .rev()
            .map(|i| KvPair::new(i as u128, i))
            .collect();
        let input = write_input(&spill, &pairs);
        let output = spill.scratch_path("out");
        let report = sorter.sort_file(&spill, &input, &output).unwrap();
        assert_eq!(report.pairs, 100);
        assert_eq!(report.initial_runs, 1);
        assert_eq!(report.disk_passes, 1);
        let got = read_output(&spill, &output);
        let keys: Vec<u128> = got.iter().map(|p| p.key).collect();
        assert_eq!(keys, (0..100).collect::<Vec<u128>>());
    }

    #[test]
    fn multi_run_merge_produces_sorted_output_and_counts_passes() {
        // Host holds 2*m_h*20 bytes => m_h = 25 pairs; 100 pairs => 4 runs
        // => 2 merge passes => 3 disk passes.
        let (_g, spill, sorter) = setup(1000, 400);
        assert_eq!(sorter.config().host_block_pairs, 25);
        let pairs: Vec<KvPair> = (0..100u32)
            .rev()
            .map(|i| KvPair::new(i as u128, i))
            .collect();
        let input = write_input(&spill, &pairs);
        let output = spill.scratch_path("out");
        let report = sorter.sort_file(&spill, &input, &output).unwrap();
        assert_eq!(report.initial_runs, 4);
        assert_eq!(report.merge_passes, 2);
        assert_eq!(report.disk_passes, 3);
        let got = read_output(&spill, &output);
        assert!(got.windows(2).all(|w| w[0].key <= w[1].key));
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn smaller_host_blocks_mean_more_disk_bytes() {
        let pairs: Vec<KvPair> = (0..256u32)
            .rev()
            .map(|i| KvPair::new(i as u128, i))
            .collect();

        let (_g1, spill_big, big) = setup(20_480, 2_000);
        let in1 = write_input(&spill_big, &pairs);
        let out1 = spill_big.scratch_path("o1");
        let r_big = big.sort_file(&spill_big, &in1, &out1).unwrap();

        let (_g2, spill_small, small) = setup(1_280, 1_280);
        let in2 = write_input(&spill_small, &pairs);
        let out2 = spill_small.scratch_path("o2");
        let r_small = small.sort_file(&spill_small, &in2, &out2).unwrap();

        assert!(r_small.disk_passes > r_big.disk_passes);
        assert!(r_small.io.bytes_read > r_big.io.bytes_read);
        assert_eq!(
            read_output(&spill_big, &out1),
            read_output(&spill_small, &out2)
        );
    }

    #[test]
    fn empty_input_yields_empty_sorted_output() {
        let (_g, spill, sorter) = setup(1000, 400);
        let input = write_input(&spill, &[]);
        let output = spill.scratch_path("out");
        let report = sorter.sort_file(&spill, &input, &output).unwrap();
        assert_eq!(report.pairs, 0);
        assert!(read_output(&spill, &output).is_empty());
    }

    #[test]
    fn disk_full_mid_sort_sheds_scratch_and_retries_once() {
        let (_g, spill, sorter) = setup(1000, 400); // m_h = 25 → several runs
        let rec = obs::Recorder::new();
        let faults = faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::DISK_FULL, 2),
        );
        faults.set_recorder(rec.clone());
        spill.io().set_faults(faults.clone());
        let span = rec.span("sort");
        let pairs: Vec<KvPair> = (0..100u32)
            .rev()
            .map(|i| KvPair::new(i as u128, i))
            .collect();
        let input = write_input(&spill, &pairs);
        let output = spill.scratch_path("out");
        let report = sorter.sort_file(&spill, &input, &output).unwrap();
        drop(span);
        assert_eq!(report.pairs, 100);
        let got = read_output(&spill, &output);
        assert!(got.windows(2).all(|w| w[0].key <= w[1].key));
        assert_eq!(got.len(), 100);
        // The ENOSPC fired, the shed scratch was retried, and both are
        // visible in the trace.
        assert_eq!(faults.injected().len(), 1);
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("sort").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("fault.injected.disk.full"), 1);
        assert_eq!(agg.counter("fault.retries.disk.full"), 1);
    }

    #[test]
    fn disk_full_twice_on_the_same_run_propagates_storage_full() {
        let (_g, spill, sorter) = setup(1000, 400);
        // Arm consecutive commits: the shed-and-retry hits ENOSPC again.
        spill.io().set_faults(faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new()
                .fail_at(faultsim::DISK_FULL, 2)
                .fail_at(faultsim::DISK_FULL, 3),
        ));
        let pairs: Vec<KvPair> = (0..100u32)
            .rev()
            .map(|i| KvPair::new(i as u128, i))
            .collect();
        let input = write_input(&spill, &pairs);
        let output = spill.scratch_path("out");
        let err = sorter.sort_file(&spill, &input, &output).unwrap_err();
        match err {
            StreamError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::StorageFull),
            other => panic!("expected Io(StorageFull), got {other}"),
        }
        // Nothing torn is left behind: no temp files, no final output.
        assert!(!output.exists());
        let leftovers: Vec<String> = std::fs::read_dir(spill.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "torn temp files: {leftovers:?}");
    }

    #[test]
    fn torn_scratch_of_a_dead_run_is_overwritten_not_read() {
        // What a power loss can leave of un-fsynced scratch: final names
        // over garbage. The sort writes each scratch file before reading it.
        let (_g, spill, sorter) = setup(1000, 400); // m_h = 25 → 4 runs
        for label in ["run0", "run3", "gen0_m0", "gen0_m1"] {
            std::fs::write(spill.scratch_path(label), b"torn by a dead run").unwrap();
        }
        let pairs: Vec<KvPair> = (0..100u32)
            .rev()
            .map(|i| KvPair::new(i as u128, i))
            .collect();
        let input = write_input(&spill, &pairs);
        let output = spill.scratch_path("out");
        let report = sorter.sort_file(&spill, &input, &output).unwrap();
        assert_eq!((report.initial_runs, report.disk_passes), (4, 3));
        let got: Vec<u128> = read_output(&spill, &output).iter().map(|p| p.key).collect();
        assert_eq!(got, (0..100).collect::<Vec<u128>>());
        // Every scratch file is consumed; only input and output remain.
        let mut left: Vec<String> = std::fs::read_dir(spill.root())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["scratch_input.kv", "scratch_out.kv"]);
    }

    #[test]
    fn config_validation_rejects_infeasible_blocks() {
        let device = Device::with_capacity(GpuProfile::k40(), 100);
        let host = HostMem::new(1000);
        let bad_dev = SortConfig {
            host_block_pairs: 10,
            device_block_pairs: 5, // needs 200 B on a 100 B device
            kway: false,
        };
        assert!(bad_dev.validate(&host, &device).is_err());
        let bad_rel = SortConfig {
            host_block_pairs: 2,
            device_block_pairs: 4,
            kway: false,
        };
        assert!(bad_rel.validate(&host, &device).is_err());
        let bad_host = SortConfig {
            host_block_pairs: 1000, // needs 40 KB of host budget
            device_block_pairs: 2,
            kway: false,
        };
        assert!(bad_host.validate(&host, &device).is_err());
    }

    #[test]
    fn from_budgets_matches_documented_formulas() {
        let device = Device::with_capacity(GpuProfile::k40(), 4000);
        let host = HostMem::new(8000);
        let cfg = SortConfig::from_budgets(&host, &device);
        assert_eq!(cfg.host_block_pairs, 8000 / 20 / 2);
        assert_eq!(cfg.device_block_pairs, 4000 / 40 / 2);
        cfg.validate(&host, &device).unwrap();
    }

    #[test]
    fn every_block_size_writes_the_same_bytes() {
        // Few distinct keys, so runs and windows are cut inside runs of
        // equal ones: the output is the stable sort of the input all the
        // same, record for record, hence the same footer.
        let mut rng = stdx::SplitMix64::new(20);
        let pairs: Vec<KvPair> = (0..12_000u32)
            .map(|i| KvPair::new(u128::from(rng.below(900)) << 64 | 7, i))
            .collect();
        let mut expect = pairs.clone();
        expect.sort_by_key(|p| p.key);
        let mut footers = Vec::new();
        for m_h in [25, 5_000] {
            for m_d in [2, 10, 468] {
                let dir = stdx::tempdir().unwrap();
                let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
                let config = SortConfig {
                    host_block_pairs: m_h,
                    device_block_pairs: m_d.min(m_h),
                    kway: false,
                };
                let device = Device::with_capacity(GpuProfile::k40(), 64 << 10);
                let sorter = ExternalSorter::new(device, HostMem::new(1 << 20), config).unwrap();
                let input = write_input(&spill, &pairs);
                let output = spill.scratch_path("out");
                let report = sorter.sort_file(&spill, &input, &output).unwrap();
                assert_eq!(report.initial_runs, 12_000u32.div_ceil(m_h as u32));
                assert!(
                    read_output(&spill, &output) == expect,
                    "m_h={m_h} m_d={m_d}: not the stable sort of the input"
                );
                footers.push(crate::read_footer(&output).unwrap());
            }
        }
        assert_eq!(footers[0].records, 12_000);
        assert!(footers.iter().all(|f| *f == footers[0]), "{footers:?}");
    }

    #[test]
    fn external_sort_matches_std_sort() {
        check_cases(256, |rng| {
            let keys = rng.vec(0..400, |r| r.next_u128());
            let host_bytes = rng.range(800..4000);
            let (_g, spill, sorter) = setup(host_bytes, 800);
            let pairs: Vec<KvPair> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| KvPair::new(k, i as u32))
                .collect();
            let input = write_input(&spill, &pairs);
            let output = spill.scratch_path("out");
            sorter.sort_file(&spill, &input, &output).unwrap();
            let got: Vec<u128> = read_output(&spill, &output).iter().map(|p| p.key).collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(got, expect);
        });
    }
}

#[cfg(test)]
mod kway_tests {
    use super::*;
    use crate::iostats::IoStats;
    use vgpu::GpuProfile;

    fn sort_with(kway: bool, n: u32, host_bytes: u64) -> (Vec<u128>, SortReport) {
        let dir = stdx::tempdir().unwrap();
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        let device = Device::with_capacity(GpuProfile::k40(), 4 << 10);
        let host = HostMem::new(host_bytes);
        let mut config = SortConfig::from_budgets(&host, &device);
        config.kway = kway;
        let sorter = ExternalSorter::new(device, host, config).unwrap();

        let input = spill.scratch_path("in");
        let mut w = RecordWriter::create(&input, spill.io().clone()).unwrap();
        for i in (0..n).rev() {
            w.write(KvPair::new(i as u128 * 977 % 1009, i)).unwrap();
        }
        w.finish().unwrap();
        let output = spill.scratch_path("out");
        let report = sorter.sort_file(&spill, &input, &output).unwrap();
        let got = RecordReader::open(&output, spill.io().clone())
            .unwrap()
            .read_all()
            .unwrap()
            .iter()
            .map(|p| p.key)
            .collect();
        (got, report)
    }

    #[test]
    fn kway_sorts_identically_with_fewer_passes() {
        // 1 KB host budget → m_h = 25 pairs; 400 pairs → 16 runs:
        // pairwise needs 4 merge passes, k-way one (fan-in 25/4 = 6 → 16
        // runs → 3 groups → second pass → 1). Still fewer.
        let (pairwise, rp) = sort_with(false, 400, 1000);
        let (kway, rk) = sort_with(true, 400, 1000);
        assert_eq!(pairwise, kway);
        assert!(pairwise.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            rk.merge_passes < rp.merge_passes,
            "k-way {} vs pairwise {}",
            rk.merge_passes,
            rp.merge_passes
        );
        assert!(rk.io.bytes_read < rp.io.bytes_read);
    }

    #[test]
    fn kway_single_run_is_still_one_pass() {
        let (sorted, report) = sort_with(true, 20, 4000);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.disk_passes, 1);
    }
}
