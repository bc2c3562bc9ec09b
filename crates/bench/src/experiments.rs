//! One runner per table/figure.
//!
//! Each runner returns a serializable result carrying both the measured
//! values and the paper's published values, so `repro` can print them side
//! by side and EXPERIMENTS.md can archive them. Modeled seconds scale
//! linearly with data volume, so `modeled × scale` is directly comparable
//! to the paper's wall-clock seconds (same bandwidth models, 1/scale of
//! the bytes).

use crate::env::{ScaledEnv, Testbed};
use crate::paper;
use crate::Result;
use dnet::{Cluster, ClusterConfig, ReduceStrategy};
use genome::DatasetPreset;
use gstream::{ExternalSorter, HostMem, IoStats, KvPair, RecordWriter, SortConfig, SpillDir};
use lasagna::{AssemblyConfig, AssemblyReport, Pipeline, StringGraph};
use std::path::Path;
use vgpu::{Device, GpuProfile};

/// Row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Dataset name.
    pub dataset: String,
    /// Read length.
    pub length: usize,
    /// Paper read count.
    pub paper_reads: u64,
    /// Paper base count.
    pub paper_bases: u64,
    /// Minimum overlap used.
    pub l_min: u32,
    /// Scaled read count.
    pub scaled_reads: usize,
    /// Scaled base count.
    pub scaled_bases: u64,
    /// Scaled genome length.
    pub scaled_genome: usize,
}

stdx::impl_json!(struct Table1Row {
    dataset, length, paper_reads, paper_bases, l_min, scaled_reads, scaled_bases, scaled_genome
});

/// Regenerate Table I at the given scale.
pub fn table1(scale: u64) -> Vec<Table1Row> {
    DatasetPreset::ALL
        .iter()
        .map(|&p| {
            let s = p.scaled(scale);
            Table1Row {
                dataset: p.name().to_string(),
                length: p.read_len(),
                paper_reads: p.paper_reads(),
                paper_bases: p.paper_bases(),
                l_min: p.l_min(),
                scaled_reads: s.read_count(),
                scaled_bases: s.total_bases(),
                scaled_genome: s.genome_len,
            }
        })
        .collect()
}

/// One dataset's assembly measurement on one testbed.
#[derive(Debug, Clone)]
pub struct DatasetRun {
    /// Dataset name.
    pub dataset: String,
    /// Full per-phase report.
    pub report: AssemblyReport,
    /// Contigs validated against the reference: misassembly count.
    pub misassembled: u64,
}

stdx::impl_json!(struct DatasetRun { dataset, report, misassembled });

/// Tables II+IV (or III+V): assemble every preset on a testbed.
pub fn run_testbed(
    testbed: Testbed,
    scale: u64,
    workdir: &Path,
) -> lasagna::Result<Vec<DatasetRun>> {
    let env = ScaledEnv { testbed, scale };
    let mut out = Vec::new();
    for &preset in &DatasetPreset::ALL {
        let dir = workdir.join(format!("{:?}", preset));
        std::fs::create_dir_all(&dir).map_err(gstream::StreamError::from)?;
        let scaled = preset.scaled(scale);
        let (genome, reads) = scaled.materialize();
        let pipeline = env.pipeline(preset, &dir)?;
        let output = pipeline.assemble(&reads)?;
        let verify = lasagna::verify::verify_contigs(&genome, &output.contigs);
        let mut report = output.report;
        report.dataset = preset.name().to_string();
        out.push(DatasetRun {
            dataset: preset.name().to_string(),
            report,
            misassembled: verify.misassembled,
        });
    }
    Ok(out)
}

/// Table VI: SGA vs LaSAGNA at 64 GB and 128 GB.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Dataset name.
    pub dataset: String,
    /// SGA wall seconds at the 64 GB-scaled budget (`None` = OOM).
    pub sga_64_wall: Option<f64>,
    /// SGA wall seconds at the 128 GB-scaled budget (`None` = OOM).
    pub sga_128_wall: Option<f64>,
    /// LaSAGNA wall seconds (64 GB testbed).
    pub lasagna_64_wall: f64,
    /// LaSAGNA wall seconds (128 GB testbed).
    pub lasagna_128_wall: f64,
    /// LaSAGNA modeled seconds (64 GB testbed).
    pub lasagna_64_modeled: f64,
    /// LaSAGNA modeled seconds (128 GB testbed).
    pub lasagna_128_modeled: f64,
    /// Paper's SGA/LaSAGNA speedup at 64 GB, when both ran.
    pub paper_speedup_64: Option<f64>,
    /// Measured SGA/LaSAGNA wall speedup at 64 GB, when both ran.
    pub measured_speedup_64: Option<f64>,
}

stdx::impl_json!(struct Table6Row {
    dataset, sga_64_wall, sga_128_wall, lasagna_64_wall, lasagna_128_wall, lasagna_64_modeled, lasagna_128_modeled, paper_speedup_64, measured_speedup_64
});

/// Run Table VI. SGA runs here, at both host budgets; the LaSAGNA
/// columns are read off the per-testbed assemblies the caller already
/// has ([`run_testbed`] on `Testbed::supermic()` for `runs_64`, on
/// `Testbed::queenbee2()` for `runs_128`) instead of assembling all
/// eight (preset, testbed) pairs a second time.
pub fn table6(
    scale: u64,
    runs_64: &[DatasetRun],
    runs_128: &[DatasetRun],
) -> Result<Vec<Table6Row>> {
    let mut rows = Vec::new();
    for (i, &preset) in DatasetPreset::ALL.iter().enumerate() {
        let scaled = preset.scaled(scale);
        let (_genome, reads) = scaled.materialize();

        let mut sga_wall = [None, None];
        for (j, testbed) in [Testbed::supermic(), Testbed::queenbee2()]
            .iter()
            .enumerate()
        {
            let env = ScaledEnv {
                testbed: testbed.clone(),
                scale,
            };
            let baseline = sga::SgaBaseline {
                host: HostMem::new(env.host_bytes()),
                io: IoStats::default(),
                l_min: scaled.l_min,
            };
            match baseline.run(&reads) {
                Ok((_graph, report)) => sga_wall[j] = Some(report.total_seconds()),
                Err(sga::SgaError::OutOfMemory { .. }) => sga_wall[j] = None,
                Err(e) => return Err(format!("{}: SGA failed: {e}", preset.name()).into()),
            }
        }

        let lasagna = [&runs_64[i].report, &runs_128[i].report];
        let lasagna_wall = lasagna.map(|r| r.total_wall_seconds());
        let lasagna_modeled = lasagna.map(|r| r.total_modeled_seconds());

        rows.push(Table6Row {
            dataset: preset.name().to_string(),
            sga_64_wall: sga_wall[0],
            sga_128_wall: sga_wall[1],
            lasagna_64_wall: lasagna_wall[0],
            lasagna_128_wall: lasagna_wall[1],
            lasagna_64_modeled: lasagna_modeled[0],
            lasagna_128_modeled: lasagna_modeled[1],
            paper_speedup_64: paper::TABLE6.sga_64[i]
                .map(|s| s as f64 / paper::TABLE6.lasagna_64[i] as f64),
            measured_speedup_64: sga_wall[0].map(|s| s / lasagna_wall[0]),
        });
    }
    Ok(rows)
}

/// A synthetic H.Genome-scale partition for the sort sweeps: the paper
/// uses "about 2.5 billion pairs of 128-bit keys and 32-bit values per
/// partition" (Section IV-C4).
pub fn write_sort_input(
    scale: u64,
    spill: &SpillDir,
) -> gstream::Result<(std::path::PathBuf, u64)> {
    let pairs = (2_500_000_000 / scale).max(1_000) as usize;
    let path = spill.scratch_path("fig_sort_input");
    let mut w = RecordWriter::create(&path, spill.io().clone())?;
    // Deterministic pseudo-random keys.
    let mut rng = stdx::SplitMix64::new(0x9E37_79B9_7F4A_7C15);
    for i in 0..pairs {
        w.write(KvPair::new(rng.next_u128(), i as u32))?;
    }
    w.finish()?;
    Ok((path, pairs as u64))
}

/// One point of the Fig. 8 sweep.
#[derive(Debug, Clone)]
pub struct SortPoint {
    /// GPU profile name.
    pub gpu: String,
    /// Host block-size in pairs (paper scale: multiply by `scale`).
    pub host_block_pairs: usize,
    /// Device block-size in pairs.
    pub device_block_pairs: usize,
    /// Disk passes performed.
    pub disk_passes: u32,
    /// Modeled sort seconds at laptop scale.
    pub modeled_seconds: f64,
    /// `modeled × scale`: comparable to the paper's y-axis.
    pub paper_scale_seconds: f64,
}

stdx::impl_json!(struct SortPoint {
    gpu, host_block_pairs, device_block_pairs, disk_passes, modeled_seconds, paper_scale_seconds
});

fn sort_once(
    gpu: GpuProfile,
    workdir: &Path,
    input: &Path,
    m_h: usize,
    m_d: usize,
    scale: u64,
) -> gstream::Result<SortPoint> {
    let io = IoStats::default();
    let spill = SpillDir::create(workdir, io.clone())?;
    let device = Device::with_capacity(gpu.clone(), (m_d as u64 * 40).max(1 << 10));
    let host = HostMem::new((m_h as u64 * KvPair::BYTES as u64 * 2).max(1 << 10));
    let config = SortConfig {
        host_block_pairs: m_h,
        device_block_pairs: m_d.min(m_h),
        kway: false,
    };
    let sorter = ExternalSorter::new(device.clone(), host, config)?;
    let out = spill.scratch_path("sorted");
    let report = sorter.sort_file(&spill, input, &out)?;
    let modeled = report.io.total_seconds() + report.device_seconds;
    std::fs::remove_file(&out).ok();
    Ok(SortPoint {
        gpu: gpu.name,
        host_block_pairs: m_h,
        device_block_pairs: m_d,
        disk_passes: report.disk_passes,
        modeled_seconds: modeled,
        paper_scale_seconds: modeled * scale as f64,
    })
}

/// Fig. 8: host × device block-size sweep on a K40.
pub fn fig8(scale: u64, workdir: &Path) -> gstream::Result<Vec<SortPoint>> {
    let io = IoStats::default();
    let spill = SpillDir::create(workdir, io)?;
    let (input, _pairs) = write_sort_input(scale, &spill)?;
    // Paper sweep: host {0.02, 0.08, 0.32, 1.28, 2.56} G pairs,
    // device {5, 10, 20, 40} M pairs.
    let hosts: Vec<usize> = [
        20_000_000u64,
        80_000_000,
        320_000_000,
        1_280_000_000,
        2_560_000_000,
    ]
    .iter()
    .map(|&h| (h / scale).max(4) as usize)
    .collect();
    let devices: Vec<usize> = [5_000_000u64, 10_000_000, 20_000_000, 40_000_000]
        .iter()
        .map(|&d| (d / scale).max(2) as usize)
        .collect();
    let mut out = Vec::new();
    for &m_h in &hosts {
        for &m_d in &devices {
            let dir = workdir.join(format!("f8_{m_h}_{m_d}"));
            std::fs::create_dir_all(&dir)?;
            out.push(sort_once(GpuProfile::k40(), &dir, &input, m_h, m_d, scale)?);
        }
    }
    Ok(out)
}

/// Fig. 9: host block-size sweep across GPU models at device = 20 M pairs.
pub fn fig9(scale: u64, workdir: &Path) -> gstream::Result<Vec<SortPoint>> {
    let io = IoStats::default();
    let spill = SpillDir::create(workdir, io)?;
    let (input, _pairs) = write_sort_input(scale, &spill)?;
    let hosts: Vec<usize> = [
        20_000_000u64,
        80_000_000,
        320_000_000,
        1_280_000_000,
        2_560_000_000,
    ]
    .iter()
    .map(|&h| (h / scale).max(4) as usize)
    .collect();
    let m_d = (20_000_000 / scale).max(2) as usize;
    let mut out = Vec::new();
    for gpu in GpuProfile::fig9_lineup() {
        for &m_h in &hosts {
            let dir = workdir.join(format!("f9_{}_{m_h}", gpu.name));
            std::fs::create_dir_all(&dir)?;
            out.push(sort_once(gpu.clone(), &dir, &input, m_h, m_d, scale)?);
        }
    }
    Ok(out)
}

/// One Fig. 10 configuration.
#[derive(Debug, Clone)]
pub struct Fig10Point {
    /// Node count.
    pub nodes: usize,
    /// Per-phase modeled seconds (load, map, shuffle, sort, reduce,
    /// compress).
    pub phases: Vec<(String, f64)>,
    /// Modeled seconds of the paper's four bars: map, shuffle, sort, reduce.
    pub total_modeled: f64,
    /// Total at paper scale.
    pub paper_scale_seconds: f64,
    /// Network bytes moved.
    pub network_bytes: u64,
    /// Edges in the merged graph.
    pub edges: u64,
}

stdx::impl_json!(struct Fig10Point {
    nodes, phases, total_modeled, paper_scale_seconds, network_bytes, edges
});

/// The modeled seconds of Fig. 10's stacked bars: map, shuffle, sort and
/// reduce. Load and compress are the same single-node stages at every node
/// count, and the paper's bars leave them out.
fn fig10_total(report: &dnet::DistributedReport) -> f64 {
    let bars = ["map", "shuffle", "sort", "reduce"].into_iter();
    bars.filter_map(|bar| report.phase(bar))
        .map(|p| p.modeled_seconds)
        .sum()
}

/// Fig. 10: H.Genome on 1-8 SuperMic nodes.
pub fn fig10(scale: u64, nodes_list: &[usize], workdir: &Path) -> Result<Vec<Fig10Point>> {
    let scaled = DatasetPreset::HGenome.scaled(scale);
    let (_genome, reads) = scaled.materialize();
    let assembly = AssemblyConfig::for_dataset(scaled.l_min, scaled.read_len as u32);
    let env = ScaledEnv {
        testbed: Testbed::supermic(),
        scale,
    };

    let mut out = Vec::new();
    for &n in nodes_list {
        let dir = workdir.join(format!("f10_{n}"));
        std::fs::create_dir_all(&dir)?;
        let cluster = Cluster::supermic(n, env.host_bytes(), env.device_bytes(), assembly)?;
        let result = cluster.assemble(&reads, &dir)?;
        let phases: Vec<(String, f64)> = result
            .report
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.modeled_seconds))
            .collect();
        let total = fig10_total(&result.report);
        out.push(Fig10Point {
            nodes: n,
            phases,
            total_modeled: total,
            paper_scale_seconds: total * scale as f64,
            network_bytes: result.report.network_bytes,
            edges: result.report.edges,
        });
    }
    Ok(out)
}

/// One fingerprint-kernel-scheme data point.
#[derive(Debug, Clone)]
pub struct SchemeRow {
    /// Kernel organization.
    pub scheme: String,
    /// Modeled map-phase seconds.
    pub map_modeled: f64,
    /// Modeled device kernel seconds within map.
    pub kernel_seconds: f64,
}

stdx::impl_json!(struct SchemeRow { scheme, map_modeled, kernel_seconds });

/// Map-kernel ablation: the paper's block-per-read Hillis-Steele kernel vs
/// the thread-per-read strawman it rejects for "excessive memory
/// throttling" (Section III-A). H.Genome scaled, map phase only.
pub fn mapscheme(scale: u64, workdir: &Path) -> Result<Vec<SchemeRow>> {
    use fingerprint::FingerprintScheme;
    let scaled = DatasetPreset::HGenome.scaled(scale);
    let (_genome, reads) = scaled.materialize();
    let env = ScaledEnv {
        testbed: Testbed::queenbee2(),
        scale,
    };
    let mut out = Vec::new();
    for (scheme, name) in [
        (FingerprintScheme::ThreadPerRead, "thread-per-read"),
        (FingerprintScheme::BlockPerRead, "block-per-read"),
    ] {
        let dir = workdir.join(name);
        std::fs::create_dir_all(&dir)?;
        let mut config = AssemblyConfig::for_dataset(scaled.l_min, scaled.read_len as u32);
        config.fingerprint_scheme = scheme;
        let device = env.device();
        let host = env.host();
        let spill = SpillDir::create(&dir, IoStats::default())?;
        let before = device.stats();
        let io_before = spill.io().snapshot();
        lasagna::map::run(&device, &host, &spill, &config, &reads)?;
        let dev = device.stats().since(&before);
        let io = spill.io().snapshot().since(&io_before);
        out.push(SchemeRow {
            scheme: name.to_string(),
            map_modeled: dev.total_seconds() + io.total_seconds(),
            kernel_seconds: dev.kernel_seconds,
        });
    }
    Ok(out)
}

/// One storage-media data point.
#[derive(Debug, Clone)]
pub struct DiskRow {
    /// Media label.
    pub media: String,
    /// Sequential read bandwidth modeled, MB/s.
    pub read_mb_s: f64,
    /// Total modeled assembly seconds.
    pub total_modeled: f64,
    /// Sort-phase modeled seconds (the I/O-bound phase).
    pub sort_modeled: f64,
}

stdx::impl_json!(struct DiskRow { media, read_mb_s, total_modeled, sort_modeled });

/// Storage-media sweep: the paper argues "LaSAGNA will benefit from the
/// use of local disks and faster media such as solid-state drives"
/// (Section III-E). H.Genome on the 64 GB testbed across disk models.
pub fn disks(scale: u64, workdir: &Path) -> Result<Vec<DiskRow>> {
    use gstream::DiskModel;
    let scaled = DatasetPreset::HGenome.scaled(scale);
    let (_genome, reads) = scaled.materialize();
    let env = ScaledEnv {
        testbed: Testbed::supermic(),
        scale,
    };
    let mut out = Vec::new();
    for (label, model) in [
        ("HDD (160 MB/s)", DiskModel::hdd()),
        ("cluster scratch (400 MB/s)", DiskModel::cluster_scratch()),
        ("SSD (520 MB/s)", DiskModel::ssd()),
    ] {
        let dir = workdir.join(label.split_whitespace().next().unwrap());
        std::fs::create_dir_all(&dir)?;
        let config = AssemblyConfig::for_dataset(scaled.l_min, scaled.read_len as u32);
        let spill = SpillDir::create(&dir, IoStats::new(model))?;
        let pipeline = Pipeline::new(env.device(), env.host(), spill, config)?;
        let result = pipeline.assemble(&reads)?;
        out.push(DiskRow {
            media: label.to_string(),
            read_mb_s: model.read_bytes_per_s / 1e6,
            total_modeled: result.report.total_modeled_seconds(),
            sort_modeled: result
                .report
                .phase("sort")
                .map(|p| p.modeled_seconds)
                .unwrap_or(0.0),
        });
    }
    Ok(out)
}

/// One de Bruijn feasibility row.
#[derive(Debug, Clone)]
pub struct DbgCheckRow {
    /// Dataset name.
    pub dataset: String,
    /// Testbed label ("64 GB" / "128 GB").
    pub testbed: String,
    /// Whether the k-mer table fit the scaled budget.
    pub fits: bool,
    /// Billed table bytes (at OOM: bytes reached before failing).
    pub billed_bytes: u64,
    /// Scaled host budget.
    pub budget_bytes: u64,
    /// Unitig N50 when the assembly fit.
    pub n50: Option<u64>,
}

stdx::impl_json!(struct DbgCheckRow { dataset, testbed, fits, billed_bytes, budget_bytes, n50 });

/// Reproduce the paper's Table VI footnote: "We do not include the results
/// of de Bruijn graph-based assemblers because most of them are not
/// designed for processing large datasets on a single machine (i.e.,
/// failed with out-of-memory error)". Reads carry a realistic 1% error
/// rate — error k-mers are what blow up real k-mer tables.
pub fn dbgcheck(scale: u64) -> Vec<DbgCheckRow> {
    use genome::{GenomeSim, ShotgunSim};
    let mut out = Vec::new();
    for &preset in &DatasetPreset::ALL {
        let scaled = preset.scaled(scale);
        let genome = GenomeSim {
            len: scaled.genome_len,
            repeat_fraction: 0.0005,
            repeat_len: scaled.read_len * 2,
            seed: 0xD8,
        }
        .generate();
        let reads = ShotgunSim {
            read_len: scaled.read_len,
            coverage: scaled.coverage,
            strand_flip_prob: 0.5,
            error_rate: 0.01,
            seed: 0xD9,
        }
        .sample(&genome);
        for testbed in [Testbed::supermic(), Testbed::queenbee2()] {
            let env = ScaledEnv {
                testbed: testbed.clone(),
                scale,
            };
            let host = HostMem::new(env.host_bytes());
            let assembler = dbg::DbgAssembler {
                k: 21,
                // Coverage-proportional threshold: at 50× even doubly
                // supported error k-mers are noise.
                min_count: (scaled.coverage / 8.0).max(2.0) as u32,
                host: host.clone(),
            };
            let label = if testbed.host_bytes == 128 << 30 {
                "128 GB"
            } else {
                "64 GB"
            };
            match assembler.assemble(&reads) {
                Ok((_contigs, report)) => out.push(DbgCheckRow {
                    dataset: preset.name().to_string(),
                    testbed: label.to_string(),
                    fits: true,
                    billed_bytes: report.billed_bytes,
                    budget_bytes: env.host_bytes(),
                    n50: Some(report.n50),
                }),
                Err(err @ dbg::DbgError::OutOfMemory(_)) => out.push(DbgCheckRow {
                    dataset: preset.name().to_string(),
                    testbed: label.to_string(),
                    fits: false,
                    // Bytes in flight when the reservation failed.
                    billed_bytes: err.in_use() + err.requested(),
                    budget_bytes: env.host_bytes(),
                    n50: None,
                }),
            }
        }
    }
    out
}

/// Reduce-strategy comparison point (the paper's future-work ablation).
#[derive(Debug, Clone)]
pub struct StrategyPoint {
    /// Node count.
    pub nodes: usize,
    /// Strategy name.
    pub strategy: String,
    /// Modeled reduce-phase seconds.
    pub reduce_modeled: f64,
    /// Modeled shuffle seconds (range mode reshapes the shuffle).
    pub shuffle_modeled: f64,
    /// Modeled seconds of Fig. 10's four bars: map, shuffle, sort, reduce.
    pub total_modeled: f64,
    /// Edges in the merged graph (identical across strategies).
    pub edges: u64,
}

stdx::impl_json!(struct StrategyPoint {
    nodes, strategy, reduce_modeled, shuffle_modeled, total_modeled, edges
});

/// Compare the paper's length-token reduce against its proposed
/// fingerprint-range partitioning (Section IV-D future work) on the
/// H.Genome-scaled dataset.
pub fn reduce_strategies(
    scale: u64,
    nodes_list: &[usize],
    workdir: &Path,
) -> Result<Vec<StrategyPoint>> {
    let scaled = DatasetPreset::HGenome.scaled(scale);
    let (_genome, reads) = scaled.materialize();
    let assembly = AssemblyConfig::for_dataset(scaled.l_min, scaled.read_len as u32);
    let env = ScaledEnv {
        testbed: Testbed::supermic(),
        scale,
    };

    let mut out = Vec::new();
    for &n in nodes_list {
        for (strategy, name) in [
            (ReduceStrategy::LengthToken, "length-token"),
            (ReduceStrategy::FingerprintRange, "fingerprint-range"),
        ] {
            let dir = workdir.join(format!("rs_{n}_{name}"));
            std::fs::create_dir_all(&dir)?;
            let cluster = Cluster::new(ClusterConfig {
                nodes: n,
                gpu: vgpu::GpuProfile::k20x(),
                device_capacity: env.device_bytes(),
                host_capacity: env.host_bytes(),
                disk: gstream::DiskModel::cluster_scratch(),
                net: dnet::NetModel::infiniband_56g(),
                block_reads: 1024,
                assembly,
                reduce_strategy: strategy,
            })?;
            let result = cluster.assemble(&reads, &dir)?;
            let phase = |p: &str| {
                result
                    .report
                    .phase(p)
                    .map(|x| x.modeled_seconds)
                    .unwrap_or(0.0)
            };
            out.push(StrategyPoint {
                nodes: n,
                strategy: name.to_string(),
                reduce_modeled: phase("reduce"),
                shuffle_modeled: phase("shuffle"),
                total_modeled: fig10_total(&result.report),
                edges: result.report.edges,
            });
        }
    }
    Ok(out)
}

/// One fingerprint-width data point.
#[derive(Debug, Clone)]
pub struct FpCheckRow {
    /// Fingerprint width in bits.
    pub bits: u32,
    /// Edges in the graph.
    pub edges: u64,
    /// Edges whose overlap is not real.
    pub false_edges: u64,
}

stdx::impl_json!(struct FpCheckRow { bits, edges, false_edges });

/// The zero-false-positive check (Section IV-B): 128-bit fingerprints must
/// admit no false edges; truncated widths progressively do.
pub fn fpcheck(scale: u64, workdir: &Path) -> Result<Vec<FpCheckRow>> {
    let scaled = DatasetPreset::HChr14.scaled(scale);
    let (_genome, reads) = scaled.materialize();
    let env = ScaledEnv {
        testbed: Testbed::queenbee2(),
        scale,
    };
    let mut out = Vec::new();
    for bits in [128u32, 64, 48, 32, 24, 16] {
        let dir = workdir.join(format!("fp_{bits}"));
        std::fs::create_dir_all(&dir)?;
        let mut config = AssemblyConfig::for_dataset(scaled.l_min, scaled.read_len as u32);
        config.fingerprint_bits = bits;
        let spill = SpillDir::create(&dir, IoStats::default())?;
        let pipeline = Pipeline::new(env.device(), env.host(), spill, config)?;
        let result = pipeline.assemble(&reads)?;
        out.push(FpCheckRow {
            bits,
            edges: result.graph.edge_count(),
            false_edges: lasagna::verify::count_false_edges(&result.graph, &reads),
        });
    }
    Ok(out)
}

/// One crash-and-recover scenario in the fault-injection harness.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Scenario label, e.g. `"crash gstream.write #4, resume"`.
    pub scenario: String,
    /// Whether the armed fault actually fired.
    pub injected: bool,
    /// Whether recovery reproduced the clean run exactly.
    pub recovered: bool,
    /// Counts or the error backing the verdict.
    pub detail: String,
}

stdx::impl_json!(struct FaultRow { scenario, injected, recovered, detail });

/// The fault matrix (ROBUSTNESS.md): crash the single-node pipeline at
/// every failpoint and resume from the checkpoint manifest; kill
/// distributed nodes mid-superstep and fail over; lose the reduce token
/// and regenerate it. Every scenario must reproduce the clean run exactly.
pub fn faults(workdir: &Path) -> Result<Vec<FaultRow>> {
    let genome = genome::GenomeSim::uniform(2_000, 77).generate();
    let reads = genome::ShotgunSim::error_free(60, 8.0, 78).sample(&genome);
    let config = AssemblyConfig::for_dataset(40, 60);
    let base_dir = workdir.join("baseline");
    std::fs::create_dir_all(&base_dir)?;
    let baseline = Pipeline::laptop(config, &base_dir)?.assemble(&reads)?;

    let mut rows = Vec::new();

    // Single-node: crash at each failpoint (an early and a later
    // occurrence), then resume in a fresh pipeline over the same spill dir.
    for point in [
        faultsim::SPILL_WRITE,
        faultsim::READER_OPEN,
        faultsim::KERNEL_LAUNCH,
        faultsim::MANIFEST_WRITE,
    ] {
        for nth in [1u64, 4] {
            let dir = workdir.join(format!("{}_{nth}", point.replace('.', "_")));
            std::fs::create_dir_all(&dir)?;
            let plan = faultsim::FaultPlan::new().fail_at(point, nth);
            let crash = Pipeline::laptop(config, &dir)?
                .with_faults(faultsim::Faults::from_plan(&plan))
                .resume(&reads);
            let injected = matches!(&crash, Err(e) if e.fault().is_some());
            let (recovered, detail) = match Pipeline::laptop(config, &dir)?.resume(&reads) {
                Ok(out) if out.contigs == baseline.contigs => (
                    true,
                    format!(
                        "{} contigs, {} edges, identical to clean run",
                        out.contigs.len(),
                        out.graph.edge_count()
                    ),
                ),
                Ok(out) => (
                    false,
                    format!(
                        "diverged: {} vs {} contigs",
                        out.contigs.len(),
                        baseline.contigs.len()
                    ),
                ),
                Err(e) => (false, format!("resume failed: {e}")),
            };
            rows.push(FaultRow {
                scenario: format!("crash {point} #{nth}, resume"),
                injected,
                recovered,
                detail,
            });
        }
    }

    // Distributed: kill a node mid-superstep (AM failure, then mid-kernel)
    // and lose the reduce token; the recovered graph must match the
    // single-node graph vertex for vertex.
    for (label, point, nth) in [
        ("node killed by AM failure", faultsim::DNET_AM, 3u64),
        ("node killed mid-kernel", faultsim::KERNEL_LAUNCH, 20),
        ("reduce token lost", faultsim::DNET_TOKEN, 1),
    ] {
        let dir = workdir.join(format!("dnet_{}_{nth}", point.replace('.', "_")));
        std::fs::create_dir_all(&dir)?;
        let faults = faultsim::Faults::from_plan(&faultsim::FaultPlan::new().fail_at(point, nth));
        let outcome = Cluster::new(ClusterConfig {
            nodes: 3,
            gpu: GpuProfile::k20x(),
            device_capacity: 1 << 20,
            host_capacity: 8 << 20,
            disk: gstream::DiskModel::hdd(),
            net: dnet::NetModel::infiniband_56g(),
            block_reads: 40,
            assembly: config,
            reduce_strategy: ReduceStrategy::LengthToken,
        })
        .map(|c| c.with_faults(faults.clone()))
        .and_then(|c| c.assemble(&reads, &dir));
        let injected = !faults.injected().is_empty();
        let (recovered, detail) = match outcome {
            Ok(out) => {
                let same = out.graph.edge_count() == baseline.graph.edge_count()
                    && (0..baseline.graph.vertex_count())
                        .all(|v| out.graph.out(v) == baseline.graph.out(v));
                if same {
                    (
                        true,
                        format!(
                            "{} edges, identical to the single-node graph",
                            out.graph.edge_count()
                        ),
                    )
                } else {
                    (
                        false,
                        format!(
                            "diverged: {} vs {} edges",
                            out.graph.edge_count(),
                            baseline.graph.edge_count()
                        ),
                    )
                }
            }
            Err(e) => (false, format!("cluster run failed: {e}")),
        };
        rows.push(FaultRow {
            scenario: format!("3 nodes, {label} ({point} #{nth})"),
            injected,
            recovered,
            detail,
        });
    }

    // Distributed checkpoint/resume: crash the run — the master at its
    // superstep append, or every node at once — then resume over the same
    // workdir. Finished supersteps are skipped and the graph must still
    // match the single-node baseline bit for bit. The range-partitioned
    // strategy goes through the same fail-over path (per-range ownership).
    let mk_cluster = |nodes: usize, strategy: ReduceStrategy| {
        Cluster::new(ClusterConfig {
            nodes,
            gpu: GpuProfile::k20x(),
            device_capacity: 1 << 20,
            host_capacity: 8 << 20,
            disk: gstream::DiskModel::hdd(),
            net: dnet::NetModel::infiniband_56g(),
            block_reads: 40,
            assembly: config,
            reduce_strategy: strategy,
        })
    };
    let graph_matches = |g: &StringGraph| {
        g.edge_count() == baseline.graph.edge_count()
            && (0..baseline.graph.vertex_count()).all(|v| g.out(v) == baseline.graph.out(v))
    };
    let graph_verdict = |outcome: dnet::Result<dnet::DistributedOutput>| match outcome {
        Ok(out) if graph_matches(&out.graph) => (
            true,
            format!(
                "{} edges, identical to the single-node graph{}",
                out.graph.edge_count(),
                if out.report.resumed { " (resumed)" } else { "" }
            ),
        ),
        Ok(out) => (
            false,
            format!(
                "diverged: {} vs {} edges",
                out.graph.edge_count(),
                baseline.graph.edge_count()
            ),
        ),
        Err(e) => (false, format!("cluster run failed: {e}")),
    };

    {
        let dir = workdir.join("dnet_range_failover");
        std::fs::create_dir_all(&dir)?;
        let faults =
            faultsim::Faults::from_plan(&faultsim::FaultPlan::new().fail_at(faultsim::DNET_AM, 3));
        let outcome = mk_cluster(3, ReduceStrategy::FingerprintRange)
            .map(|c| c.with_faults(faults.clone()))
            .and_then(|c| c.assemble(&reads, &dir));
        let (recovered, detail) = graph_verdict(outcome);
        rows.push(FaultRow {
            scenario: "3 nodes range reduce, node killed by AM failure".into(),
            injected: !faults.injected().is_empty(),
            recovered,
            detail,
        });
    }

    for (label, plan) in [
        (
            "master killed at superstep append, resume",
            faultsim::FaultPlan::new().fail_at(faultsim::SUPERSTEP_WRITE, 5),
        ),
        (
            "every node killed, resume",
            faultsim::FaultPlan::new()
                .fail_at(faultsim::DNET_AM, 4)
                .fail_at(faultsim::DNET_AM, 5),
        ),
    ] {
        let dir = workdir.join(format!(
            "dnet_resume_{}",
            label.split(' ').next().unwrap_or("x")
        ));
        std::fs::create_dir_all(&dir)?;
        let faults = faultsim::Faults::from_plan(&plan);
        let crash = mk_cluster(2, ReduceStrategy::LengthToken)
            .map(|c| c.with_faults(faults.clone()))
            .and_then(|c| c.resume(&reads, &dir));
        let injected = !faults.injected().is_empty() && crash.is_err();
        let outcome =
            mk_cluster(2, ReduceStrategy::LengthToken).and_then(|c| c.resume(&reads, &dir));
        let resumed_flag = matches!(&outcome, Ok(out) if out.report.resumed);
        let (recovered, detail) = graph_verdict(outcome);
        rows.push(FaultRow {
            scenario: format!("2 nodes, {label}"),
            injected,
            recovered: recovered && resumed_flag,
            detail,
        });
    }

    {
        // A torn superstep-log tail — the artifact of a master crash mid
        // append — is inflicted directly, then the resume must drop the
        // torn record and replay that superstep.
        let dir = workdir.join("dnet_torn_log");
        std::fs::create_dir_all(&dir)?;
        mk_cluster(2, ReduceStrategy::LengthToken).and_then(|c| c.resume(&reads, &dir))?;
        let log = dir.join(dnet::superstep::LOG_NAME);
        let mut bytes = std::fs::read(&log)?;
        bytes.truncate(bytes.len().saturating_sub(10));
        std::fs::write(&log, bytes)?;
        let outcome =
            mk_cluster(2, ReduceStrategy::LengthToken).and_then(|c| c.resume(&reads, &dir));
        let resumed_flag = matches!(&outcome, Ok(out) if out.report.resumed);
        let (recovered, detail) = graph_verdict(outcome);
        rows.push(FaultRow {
            scenario: "2 nodes, superstep log torn mid-record, resume".into(),
            injected: true, // damage inflicted by the harness itself
            recovered: recovered && resumed_flag,
            detail,
        });
    }

    {
        // ENOSPC mid-run surfaces as a real I/O error; resuming once space
        // is freed completes from the durable checkpoints.
        let dir = workdir.join("disk_full_resume");
        std::fs::create_dir_all(&dir)?;
        let faults = faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::DISK_FULL, 2),
        );
        let crash = Pipeline::laptop(config, &dir)?
            .with_faults(faults.clone())
            .resume(&reads);
        let injected = !faults.injected().is_empty();
        let (recovered, detail) = match Pipeline::laptop(config, &dir)?.resume(&reads) {
            Ok(out) if out.contigs == baseline.contigs => (
                true,
                format!(
                    "crash: {}; resume reproduced {} contigs exactly",
                    match &crash {
                        Ok(_) => "absorbed by shed-and-retry".to_string(),
                        Err(e) => format!("{e}"),
                    },
                    out.contigs.len()
                ),
            ),
            Ok(out) => (
                false,
                format!(
                    "diverged: {} vs {} contigs",
                    out.contigs.len(),
                    baseline.contigs.len()
                ),
            ),
            Err(e) => (false, format!("resume failed: {e}")),
        };
        rows.push(FaultRow {
            scenario: "disk full mid-run, resume after space freed".into(),
            injected,
            recovered,
            detail,
        });
    }
    Ok(rows)
}

/// One query-service configuration's measured throughput and latency
/// (`BENCH_serve.json`).
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Worker threads in the service pool.
    pub workers: usize,
    /// Reads queried.
    pub reads: usize,
    /// Reads that resolved to a contig position.
    pub mapped: usize,
    /// Throughput over the whole run, reads per second.
    pub reads_per_sec: f64,
    /// Median per-batch latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-batch latency, milliseconds.
    pub p99_ms: f64,
    /// Per-read percentiles from the service's `qserve.latency.total`
    /// histogram (queue wait + execution), milliseconds.
    pub hist_p50_ms: f64,
    /// 90th percentile of the same histogram, milliseconds.
    pub hist_p90_ms: f64,
    /// 99th percentile of the same histogram, milliseconds.
    pub hist_p99_ms: f64,
    /// 99.9th percentile of the same histogram, milliseconds.
    pub hist_p999_ms: f64,
}

stdx::impl_json!(struct ServeRow {
    workers, reads, mapped, reads_per_sec, p50_ms, p99_ms, hist_p50_ms, hist_p90_ms, hist_p99_ms, hist_p999_ms
});

/// Percentiles of a latency histogram recorded in microseconds,
/// reported in milliseconds: (p50, p90, p99, p99.9).
fn hist_percentiles_ms(h: &obs::Histogram) -> (f64, f64, f64, f64) {
    let ms = |q: f64| h.percentile(q) as f64 / 1000.0;
    (ms(0.50), ms(0.90), ms(0.99), ms(0.999))
}

/// Query-service benchmark: assemble a small genome, index the contig
/// store the pipeline exported, then sweep worker counts over the same
/// 10 000-read query load. Every configuration must produce identical
/// answers — the sweep only moves throughput and latency.
pub fn serve(workdir: &Path) -> Result<Vec<ServeRow>> {
    let (store_path, index_path, queries) = serve_fixture(workdir)?;
    let io = IoStats::default();
    let mut rows = Vec::new();
    let mut reference: Option<Vec<Option<qserve::Hit>>> = None;
    for workers in [1usize, 4, 8] {
        let engine = qserve::QueryEngine::open(
            &store_path,
            &index_path,
            &io,
            qserve::QueryConfig::default(),
        )?;
        // An enabled recorder so the service's per-read latency
        // histograms land in the archived row alongside the coarse
        // per-batch timings.
        let rec = obs::Recorder::new();
        let svc = qserve::QueryService::start(
            engine,
            qserve::ServiceConfig {
                workers,
                ..qserve::ServiceConfig::default()
            },
            &rec,
        );
        let mut answers = Vec::with_capacity(queries.len());
        let mut latencies_ms = Vec::new();
        let run_start = std::time::Instant::now();
        for batch in queries.chunks(256) {
            let t = std::time::Instant::now();
            let hits = svc.query_batch(batch.to_vec())?;
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            answers.extend(hits);
        }
        let elapsed = run_start.elapsed().as_secs_f64();
        match &reference {
            None => reference = Some(answers.clone()),
            Some(expected) => {
                if *expected != answers {
                    return Err(format!("answers diverged at workers={workers}").into());
                }
            }
        }
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let pct = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
        let hist = obs::Rollup::from_events(&rec.events())
            .totals()
            .hist("qserve.latency.total");
        let (hp50, hp90, hp99, hp999) = hist_percentiles_ms(&hist);
        rows.push(ServeRow {
            workers,
            reads: answers.len(),
            mapped: answers.iter().flatten().count(),
            reads_per_sec: answers.len() as f64 / elapsed.max(1e-9),
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            hist_p50_ms: hp50,
            hist_p90_ms: hp90,
            hist_p99_ms: hp99,
            hist_p999_ms: hp999,
        });
    }
    Ok(rows)
}

/// Assemble a small genome, export its contigs as the next generation of
/// the serving work dir (store and index), and build
/// the deterministic 10k-read query load shared by the serving benches:
/// windows sliced from the contigs themselves (alternating strands,
/// striding offsets), so the expected answer set is identical across
/// configurations and transports.
fn serve_fixture(
    workdir: &Path,
) -> Result<(
    std::path::PathBuf,
    std::path::PathBuf,
    Vec<genome::PackedSeq>,
)> {
    let genome = genome::GenomeSim::uniform(20_000, 11).generate();
    let reads = genome::ShotgunSim::error_free(80, 12.0, 12).sample(&genome);
    let config = AssemblyConfig::for_dataset(50, 80);
    let dir = workdir.join("serve");
    std::fs::create_dir_all(&dir)?;
    let out = Pipeline::laptop(config, &dir)?.assemble(&reads)?;

    let icfg = qserve::IndexConfig::default();
    let id = qserve::generations::export(&dir, &out.contigs, &icfg, &IoStats::default())?;
    let store_path = dir.join(qserve::gen_store_file(id));
    let index_path = dir.join(qserve::gen_index_file(id));

    let queries = slice_queries(out.contigs.as_slice(), 10_000, 60);
    if queries.is_empty() {
        return Err("assembly produced no contigs long enough to query".into());
    }
    Ok((store_path, index_path, queries))
}

/// One network-serving scenario's measured behaviour
/// (`BENCH_serve_net.json`).
#[derive(Debug, Clone)]
pub struct ServeNetRow {
    /// What ran: `clean`, or a chaos failpoint description.
    pub scenario: String,
    /// Reads queried over the wire.
    pub reads: usize,
    /// Reads that resolved to a contig position.
    pub mapped: usize,
    /// End-to-end throughput, reads per second (includes retries).
    pub reads_per_sec: f64,
    /// Median per-batch round-trip latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-batch round-trip latency, milliseconds.
    pub p99_ms: f64,
    /// Per-read percentiles from the server's `qnet.latency.total`
    /// histogram (receipt → hits ready), milliseconds.
    pub hist_p50_ms: f64,
    /// 90th percentile of the same histogram, milliseconds.
    pub hist_p90_ms: f64,
    /// 99th percentile of the same histogram, milliseconds.
    pub hist_p99_ms: f64,
    /// 99.9th percentile of the same histogram, milliseconds.
    pub hist_p999_ms: f64,
    /// Admission-gate outcomes rolled up from the `qnet.server` trace
    /// subtree, in reads.
    pub gates: GateTotals,
    /// The same outcomes attributed per client id (`client:{id}`
    /// spans), sorted by client.
    pub per_client: Vec<(String, GateTotals)>,
    /// Client retries over the whole run.
    pub retries: u64,
    /// True when the network answers matched the in-process answers
    /// bit for bit.
    pub identical_to_in_process: bool,
    /// True when the graceful drain finished every in-flight request
    /// inside its deadline.
    pub drained_clean: bool,
}

stdx::impl_json!(struct ServeNetRow {
    scenario, reads, mapped, reads_per_sec, p50_ms, p99_ms, hist_p50_ms, hist_p90_ms, hist_p99_ms, hist_p999_ms, gates, per_client, retries, identical_to_in_process, drained_clean
});

/// Reads accepted/shed at each qnet admission gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct GateTotals {
    /// Reads admitted through all four gates and answered.
    pub accepted: u64,
    /// Reads shed by the drain or queue-depth gates.
    pub rejected: u64,
    /// Reads shed because their deadline budget was already spent.
    pub deadline_shed: u64,
    /// Reads shed by the per-client fairness bucket.
    pub fairness_shed: u64,
}

stdx::impl_json!(struct GateTotals { accepted, rejected, deadline_shed, fairness_shed });

fn gate_totals(agg: &obs::SpanAgg) -> GateTotals {
    GateTotals {
        accepted: agg.counter("qnet.accepted"),
        rejected: agg.counter("qnet.rejected"),
        deadline_shed: agg.counter("qnet.deadline_shed"),
        fairness_shed: agg.counter("qnet.fairness_shed"),
    }
}

/// Walk the `qnet.server` subtree for gate totals and their per-client
/// attribution (client spans live under per-connection spans, possibly
/// several per client across reconnects).
fn qnet_server_rollup(rollup: &obs::Rollup) -> (GateTotals, Vec<(String, GateTotals)>) {
    let Some(root) = rollup.root_named("qnet.server") else {
        return (GateTotals::default(), Vec::new());
    };
    let totals = gate_totals(&rollup.subtree(root.id));
    let mut per_client: std::collections::BTreeMap<String, GateTotals> = Default::default();
    let mut stack = vec![root.id];
    while let Some(id) = stack.pop() {
        for child in rollup.children(id) {
            if let Some(client) = child.name.strip_prefix("client:") {
                let t = gate_totals(&rollup.subtree(child.id));
                let row = per_client.entry(client.to_string()).or_default();
                row.accepted += t.accepted;
                row.rejected += t.rejected;
                row.deadline_shed += t.deadline_shed;
                row.fairness_shed += t.fairness_shed;
            }
            stack.push(child.id);
        }
    }
    (totals, per_client.into_iter().collect())
}

/// Network-serving benchmark: the same 10k-read load as [`serve`], but
/// over a loopback TCP connection through the qnet front-end — once
/// clean, then under chaos failpoints (dropped accepts, torn frames,
/// probabilistic connection drops). Every scenario must return answers
/// bit-identical to the in-process service; chaos only moves latency
/// and the retry count.
pub fn serve_net(workdir: &Path) -> Result<Vec<ServeNetRow>> {
    use std::time::Duration;

    let (store_path, index_path, queries) = serve_fixture(workdir)?;
    let io = IoStats::default();
    let open_engine = || {
        qserve::QueryEngine::open(
            &store_path,
            &index_path,
            &io,
            qserve::QueryConfig::default(),
        )
    };

    // In-process reference answers: the ground truth every network
    // scenario must reproduce exactly.
    let reference_svc = qserve::QueryService::start(
        open_engine()?,
        qserve::ServiceConfig::default(),
        &obs::Recorder::disabled(),
    );
    let mut reference = Vec::with_capacity(queries.len());
    for batch in queries.chunks(256) {
        reference.extend(reference_svc.query_batch(batch.to_vec())?);
    }
    drop(reference_svc);

    let scenarios: Vec<(String, faultsim::Faults)> = vec![
        ("clean".into(), faultsim::Faults::disabled()),
        (
            "accept dropped (1st connection)".into(),
            faultsim::Faults::from_plan(
                &faultsim::FaultPlan::new().fail_at(faultsim::QNET_ACCEPT, 1),
            ),
        ),
        (
            "frame torn mid-payload (3rd response)".into(),
            faultsim::Faults::from_plan(
                &faultsim::FaultPlan::new().fail_at(faultsim::QNET_FRAME_WRITE, 3),
            ),
        ),
        (
            "connections dropped, 5% of responses".into(),
            faultsim::Faults::from_plan(&faultsim::FaultPlan::new().fail_prob(
                faultsim::QNET_CONN_DROP,
                5,
                11,
            )),
        ),
    ];

    let mut rows = Vec::new();
    for (scenario, faults) in scenarios {
        // One enabled recorder spans the service and the server, so the
        // archived row carries the real per-read latency histograms and
        // the qnet.server admission roll-up.
        let rec = obs::Recorder::new();
        let svc =
            qserve::QueryService::start(open_engine()?, qserve::ServiceConfig::default(), &rec);
        let mut server = qnet::Server::start(
            svc,
            qnet::ServerConfig {
                read_timeout: Duration::from_secs(5),
                write_timeout: Duration::from_secs(5),
                drain_deadline: Duration::from_secs(5),
                ..qnet::ServerConfig::default()
            },
            &rec,
            faults,
        )?;
        let mut client = qnet::QueryClient::new(
            qnet::ClientConfig {
                addr: server.local_addr().to_string(),
                client_id: "bench".into(),
                max_retries: 8,
                backoff_base_ms: 5,
                read_timeout: Duration::from_secs(5),
                write_timeout: Duration::from_secs(5),
                ..qnet::ClientConfig::default()
            },
            &obs::Recorder::disabled(),
        );

        let mut answers = Vec::with_capacity(queries.len());
        let mut latencies_ms = Vec::new();
        let run_start = std::time::Instant::now();
        for batch in queries.chunks(256) {
            let t = std::time::Instant::now();
            let hits = client
                .query_batch(batch)
                .map_err(|e| format!("{scenario}: {e}"))?;
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            answers.extend(hits);
        }
        let elapsed = run_start.elapsed().as_secs_f64();
        let report = server.shutdown();
        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let pct = |p: f64| latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize];
        let rollup = obs::Rollup::from_events(&rec.events());
        let (hp50, hp90, hp99, hp999) =
            hist_percentiles_ms(&rollup.totals().hist("qnet.latency.total"));
        let (gates, per_client) = qnet_server_rollup(&rollup);
        rows.push(ServeNetRow {
            scenario,
            reads: answers.len(),
            mapped: answers.iter().flatten().count(),
            reads_per_sec: answers.len() as f64 / elapsed.max(1e-9),
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            hist_p50_ms: hp50,
            hist_p90_ms: hp90,
            hist_p99_ms: hp99,
            hist_p999_ms: hp999,
            gates,
            per_client,
            retries: client.retries_total(),
            identical_to_in_process: answers == reference,
            drained_clean: report.completed,
        });
    }
    Ok(rows)
}

/// One cluster-serving scenario's measured behaviour
/// (`BENCH_serve_cluster.json`).
#[derive(Debug, Clone)]
pub struct ServeClusterRow {
    /// What ran: a clean shard-count sweep point, or a chaos scenario.
    pub scenario: String,
    /// Shards the postings space was split into.
    pub n_shards: u32,
    /// Replicas serving each shard.
    pub replicas: u32,
    /// Reads routed through the cluster.
    pub reads: usize,
    /// Reads that resolved to a contig position.
    pub mapped: usize,
    /// End-to-end throughput, reads per second (includes fail-over).
    pub reads_per_sec: f64,
    /// Median per-batch scatter-gather latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-batch scatter-gather latency, milliseconds.
    pub p99_ms: f64,
    /// `qrouter.hedge.fired`: hedge requests launched.
    pub hedges_fired: u64,
    /// `qrouter.hedge.won`: rounds where the hedge answered first.
    pub hedges_won: u64,
    /// `qrouter.failover`: rounds that failed and walked the ladder.
    pub failovers: u64,
    /// `qrouter.shard.dead`: batches that exhausted every replica.
    pub shards_dead: u64,
    /// `qrouter.merge`: reads merged and answered by the router.
    pub merged_reads: u64,
    /// Dead-letter records held by the router after the sweep.
    pub dead_letters: usize,
    /// True when every routed answer matched the single-node answer
    /// bit for bit.
    pub identical_to_single_node: bool,
    /// True when the counters conserve against the offered load:
    /// every offered read was either merged or dead-lettered.
    pub counters_conserve: bool,
}

stdx::impl_json!(struct ServeClusterRow {
    scenario, n_shards, replicas, reads, mapped, reads_per_sec, p50_ms, p99_ms, hedges_fired, hedges_won, failovers, shards_dead, merged_reads, dead_letters, identical_to_single_node, counters_conserve
});

/// Start an in-process sharded cluster over the fixture store:
/// `n_shards` × `replicas` qnet servers, each with the full contig
/// store and its shard's postings slice. Returns the servers (in
/// `shard * replicas + replica` order) and the manifest describing them.
fn start_cluster(
    store_path: &Path,
    n_shards: u32,
    replicas: u32,
) -> Result<(Vec<qnet::Server>, qrouter::ClusterManifest)> {
    use std::time::Duration;
    let io = IoStats::default();
    let store = qserve::ContigStore::open(store_path, &io)?;
    let mut manifest = qrouter::ClusterManifest::new(n_shards, store.checksum());
    let mut servers = Vec::new();
    for shard in 0..n_shards {
        let index = qserve::MinimizerIndex::build_shard(
            &store,
            &qserve::IndexConfig::default(),
            shard,
            n_shards,
        );
        for _replica in 0..replicas {
            let replica_store = qserve::ContigStore::open(store_path, &io)?;
            let engine = qserve::QueryEngine::new(
                replica_store,
                index.clone(),
                qserve::QueryConfig::default(),
            )?;
            let svc = qserve::QueryService::start(
                engine,
                qserve::ServiceConfig {
                    workers: 2,
                    ..qserve::ServiceConfig::default()
                },
                &obs::Recorder::disabled(),
            );
            let server = qnet::Server::start(
                svc,
                qnet::ServerConfig {
                    read_timeout: Duration::from_secs(5),
                    write_timeout: Duration::from_secs(5),
                    drain_deadline: Duration::from_secs(5),
                    ..qnet::ServerConfig::default()
                },
                &obs::Recorder::disabled(),
                faultsim::Faults::disabled(),
            )?;
            manifest.add_replica(shard, server.local_addr().to_string());
            servers.push(server);
        }
    }
    Ok((servers, manifest))
}

/// Cluster-serving benchmark: the same 10k-read load as [`serve`], but
/// scatter-gathered across a sharded, replicated cluster through the
/// `qrouter` front-end. The clean sweep moves only shard count; the
/// chaos matrix kills replicas (before the sweep and in the middle of
/// it) and forces hedging with the `qrouter.shard.slow` failpoint.
/// Every scenario must return answers bit-identical to a single-node
/// server, and the router's counters must conserve: every offered read
/// is either merged or dead-lettered, never silently dropped.
pub fn serve_cluster(workdir: &Path) -> Result<Vec<ServeClusterRow>> {
    let (store_path, index_path, queries) = serve_fixture(workdir)?;
    let io = IoStats::default();

    // Single-node reference answers: ground truth for every scenario.
    let reference_svc = qserve::QueryService::start(
        qserve::QueryEngine::open(
            &store_path,
            &index_path,
            &io,
            qserve::QueryConfig::default(),
        )?,
        qserve::ServiceConfig::default(),
        &obs::Recorder::disabled(),
    );
    let mut reference = Vec::with_capacity(queries.len());
    for batch in queries.chunks(256) {
        reference.extend(reference_svc.query_batch(batch.to_vec())?);
    }
    drop(reference_svc);

    // (scenario, shards, replicas, faults, kill replicas before sweep,
    // kill one replica at this batch index mid-sweep)
    struct Scenario {
        name: &'static str,
        n_shards: u32,
        replicas: u32,
        faults: faultsim::Faults,
        kill_first_replica_of_each_shard: bool,
        kill_mid_sweep_at_batch: Option<usize>,
    }
    let clean = |name, n_shards| Scenario {
        name,
        n_shards,
        replicas: 2,
        faults: faultsim::Faults::disabled(),
        kill_first_replica_of_each_shard: false,
        kill_mid_sweep_at_batch: None,
    };
    let scenarios = vec![
        clean("clean shards=1", 1),
        clean("clean shards=2", 2),
        clean("clean shards=4", 4),
        Scenario {
            name: "one replica of every shard dead",
            faults: faultsim::Faults::disabled(),
            kill_first_replica_of_each_shard: true,
            kill_mid_sweep_at_batch: None,
            n_shards: 2,
            replicas: 2,
        },
        Scenario {
            name: "hedging forced (shard.slow 30%)",
            faults: faultsim::Faults::from_plan(&faultsim::FaultPlan::new().fail_prob(
                faultsim::QROUTER_SHARD_SLOW,
                30,
                13,
            )),
            kill_first_replica_of_each_shard: false,
            kill_mid_sweep_at_batch: None,
            n_shards: 2,
            replicas: 2,
        },
        Scenario {
            name: "replica killed mid-sweep",
            faults: faultsim::Faults::disabled(),
            kill_first_replica_of_each_shard: false,
            kill_mid_sweep_at_batch: Some(queries.chunks(256).count() / 2),
            n_shards: 2,
            replicas: 2,
        },
    ];

    let mut rows = Vec::new();
    for sc in scenarios {
        let (mut servers, manifest) = start_cluster(&store_path, sc.n_shards, sc.replicas)?;
        if sc.kill_first_replica_of_each_shard {
            // Replica 0 of every shard drains away before the sweep:
            // the router discovers the dead primaries by failing over.
            for shard in 0..sc.n_shards as usize {
                servers[shard * sc.replicas as usize].shutdown();
            }
        }
        let rec = obs::Recorder::new();
        let router = qrouter::Router::new(
            manifest,
            qrouter::RouterConfig {
                client: qnet::ClientConfig {
                    client_id: "bench-router".into(),
                    backoff_base_ms: 5,
                    read_timeout: std::time::Duration::from_secs(5),
                    write_timeout: std::time::Duration::from_secs(5),
                    ..qnet::ClientConfig::default()
                },
                hedge_min_ms: 1,
                hedge_max_ms: 20,
                failover_rounds: 4,
                ..qrouter::RouterConfig::default()
            },
            sc.faults,
            &rec,
        )?;

        let mut answers = Vec::with_capacity(queries.len());
        let mut latencies_ms = Vec::new();
        let mut dead_lettered_reads = 0usize;
        let run_start = std::time::Instant::now();
        for (i, batch) in queries.chunks(256).enumerate() {
            if Some(i) == sc.kill_mid_sweep_at_batch {
                // Shard 0's first replica dies with the sweep running;
                // in-flight and later batches must fail over, not hang
                // and not answer wrongly.
                servers[0].shutdown();
            }
            let t = std::time::Instant::now();
            match router.route(batch) {
                Ok(hits) => {
                    latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    answers.extend(hits);
                }
                Err(e) => return Err(format!("{}: {e}", sc.name).into()),
            }
        }
        let elapsed = run_start.elapsed().as_secs_f64();
        router.publish_telemetry();
        for letter in router.dead_letters() {
            dead_lettered_reads += letter.n_reads;
        }
        for server in &mut servers {
            server.shutdown();
        }

        latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        let pct = |p: f64| {
            if latencies_ms.is_empty() {
                0.0
            } else {
                latencies_ms[((latencies_ms.len() - 1) as f64 * p) as usize]
            }
        };
        let totals = obs::Rollup::from_events(&rec.events()).totals();
        let merged = totals.counter("qrouter.merge");
        rows.push(ServeClusterRow {
            scenario: sc.name.to_string(),
            n_shards: sc.n_shards,
            replicas: sc.replicas,
            reads: answers.len(),
            mapped: answers.iter().flatten().count(),
            reads_per_sec: answers.len() as f64 / elapsed.max(1e-9),
            p50_ms: pct(0.50),
            p99_ms: pct(0.99),
            hedges_fired: totals.counter("qrouter.hedge.fired"),
            hedges_won: totals.counter("qrouter.hedge.won"),
            failovers: totals.counter("qrouter.failover"),
            shards_dead: totals.counter("qrouter.shard.dead"),
            merged_reads: merged,
            dead_letters: router.dead_letters().len(),
            identical_to_single_node: answers == reference,
            counters_conserve: merged as usize + dead_lettered_reads == queries.len(),
        });
    }
    Ok(rows)
}

/// One hot-reload serving scenario's measured behaviour
/// (`BENCH_serve_reload.json`).
#[derive(Debug, Clone)]
pub struct ServeReloadRow {
    /// What ran: clean rolling reloads, or a reload-chaos scenario.
    pub scenario: String,
    /// Reads answered across the whole run, all generations together.
    pub reads: usize,
    /// Wire `Reload` calls issued by the control connection.
    pub reloads_requested: u64,
    /// Reloads that landed (`ReloadDone`).
    pub reloads_ok: u64,
    /// Reloads rolled back loudly (`qserve.gen.rollbacks`).
    pub rollbacks: u64,
    /// Reads shed at any admission gate or force-closed during the
    /// run. The zero-downtime contract: always 0 — a reload never
    /// costs a query.
    pub shed: u64,
    /// Streaming-client reconnects across every reload. Always 0 — a
    /// reload never costs a connection.
    pub reconnects: u64,
    /// Generation serving when the run ended.
    pub final_generation: u64,
    /// `(generation, batches answered by it)`, in generation order —
    /// the swap is visible as the tag migrating mid-stream.
    pub generations_served: Vec<(u64, usize)>,
    /// True when every answered batch matched, bit for bit, the oracle
    /// of the generation that answered it.
    pub identical_to_oracle: bool,
    /// Wall-clock of each `Reload` round trip, in ms — the swap
    /// latency an operator pays (the stream pays none).
    pub reload_ms: Vec<f64>,
    /// End-to-end streaming throughput, reads per second (reloads
    /// included in the wall clock).
    pub reads_per_sec: f64,
}

stdx::impl_json!(struct ServeReloadRow {
    scenario, reads, reloads_requested, reloads_ok, rollbacks, shed, reconnects, final_generation, generations_served, identical_to_oracle, reload_ms, reads_per_sec
});

/// Hot-reload serving benchmark: a client streams query batches
/// continuously over one connection while a control connection walks
/// the server through generation swaps (`BENCH_serve_reload.json`).
/// Every batch is judged against the oracle of the generation that
/// answered it, and the zero-downtime contract is measured directly:
/// zero reads shed, zero reconnects, across clean rolling reloads and
/// a reload that rolls back under an armed load fault.
pub fn serve_reload(workdir: &Path) -> Result<Vec<ServeReloadRow>> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const GENERATIONS: u64 = 4;
    let io = IoStats::default();
    let dir = workdir.join("serve-reload");
    std::fs::create_dir_all(&dir)?;

    // Generation k serves contigs 0..k: each swap grows the corpus by
    // one contig, and the base contig keeps the same contig id
    // everywhere. The ids 1..=GENERATIONS are the ones `export` assigns
    // in a fresh dir.
    let contigs: Vec<genome::PackedSeq> = (0..GENERATIONS)
        .map(|i| genome::GenomeSim::uniform(5_000, 21 + i).generate())
        .collect();
    let icfg = qserve::IndexConfig::default();
    for id in 1..=GENERATIONS {
        qserve::generations::export(&dir, &contigs[..id as usize], &icfg, &io)?;
    }
    let queries = slice_queries(&contigs[..1], 2_048, 60);

    // Per-generation ground truth for the fixed query set, computed on
    // independent in-process engines before any serving starts.
    let mut oracles: std::collections::BTreeMap<u64, Vec<Option<qserve::Hit>>> = Default::default();
    for id in 1..=GENERATIONS {
        let store = qserve::ContigStore::from_contigs(contigs[..id as usize].to_vec());
        let index = qserve::MinimizerIndex::build(&store, &qserve::IndexConfig::default());
        let engine = qserve::QueryEngine::new(store, index, qserve::QueryConfig::default())?;
        oracles.insert(id, queries.iter().map(|q| engine.query(q)).collect());
    }
    let oracles = Arc::new(oracles);
    let queries = Arc::new(queries);

    struct Scenario {
        name: &'static str,
        faults: faultsim::Faults,
        /// `(target generation, this call is expected to roll back)`.
        reloads: Vec<(u64, bool)>,
    }
    let scenarios = vec![
        Scenario {
            name: "clean rolling reloads 1->2->3->4",
            faults: faultsim::Faults::disabled(),
            reloads: vec![(2, false), (3, false), (4, false)],
        },
        Scenario {
            name: "load fault: reload rolls back, retry lands",
            faults: faultsim::Faults::from_plan(
                &faultsim::FaultPlan::new().fail_at(faultsim::QSERVE_GEN_LOAD, 1),
            ),
            reloads: vec![(2, true), (2, false)],
        },
    ];

    let mut rows = Vec::new();
    for sc in scenarios {
        // The server starts on generation 1 with the reload path armed.
        let store = qserve::ContigStore::open(&dir.join(qserve::gen_store_file(1)), &io)?;
        let index = qserve::MinimizerIndex::open(&dir.join(qserve::gen_index_file(1)), &io)?;
        let engine = qserve::QueryEngine::new(store, index, qserve::QueryConfig::default())?;
        let svc = qserve::QueryService::start_with_generation(
            engine,
            1,
            qserve::ServiceConfig::default(),
            &obs::Recorder::disabled(),
        );
        let mut server = qnet::Server::start(
            svc,
            qnet::ServerConfig {
                read_timeout: Duration::from_secs(5),
                write_timeout: Duration::from_secs(5),
                drain_deadline: Duration::from_secs(5),
                // The rate gate is off: any shed in this run is the
                // reload's fault, not the token bucket's.
                admission: qserve::AdmissionConfig {
                    refill_per_s: 0.0,
                    burst: 1e9,
                },
                reload: Some(qnet::ReloadConfig {
                    work_dir: dir.clone(),
                    shard: None,
                }),
                ..qnet::ServerConfig::default()
            },
            &obs::Recorder::disabled(),
            sc.faults,
        )?;
        let addr = server.local_addr();

        // The streaming client: continuous 256-read tagged batches on
        // one connection, every answer judged against the oracle of
        // the generation that answered it.
        let stop = Arc::new(AtomicBool::new(false));
        let streamer = {
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            let oracles = Arc::clone(&oracles);
            std::thread::spawn(move || {
                let mut client = qnet::QueryClient::new(
                    qnet::ClientConfig {
                        addr: addr.to_string(),
                        client_id: "stream".to_string(),
                        read_timeout: Duration::from_secs(5),
                        write_timeout: Duration::from_secs(5),
                        ..qnet::ClientConfig::default()
                    },
                    &obs::Recorder::disabled(),
                );
                let mut served: std::collections::BTreeMap<u64, usize> = Default::default();
                let mut reads = 0usize;
                let mut clean = true;
                let start = std::time::Instant::now();
                'stream: while !stop.load(Ordering::Relaxed) {
                    let mut offset = 0;
                    for batch in queries.chunks(256) {
                        match client.query_batch_tagged(batch) {
                            Ok((tag, answers)) => {
                                reads += answers.len();
                                *served.entry(tag).or_default() += 1;
                                clean &= oracles
                                    .get(&tag)
                                    .map(|w| answers[..] == w[offset..offset + batch.len()])
                                    .unwrap_or(false);
                            }
                            Err(_) => clean = false,
                        }
                        offset += batch.len();
                        if stop.load(Ordering::Relaxed) {
                            break 'stream;
                        }
                    }
                }
                let elapsed = start.elapsed().as_secs_f64();
                (served, reads, clean, client.reconnects(), elapsed)
            })
        };

        // The reload script walks on its own control connection while
        // the stream flows.
        let mut ctl = qnet::QueryClient::new(
            qnet::ClientConfig {
                addr: addr.to_string(),
                client_id: "reload-ctl".to_string(),
                read_timeout: Duration::from_secs(5),
                write_timeout: Duration::from_secs(5),
                ..qnet::ClientConfig::default()
            },
            &obs::Recorder::disabled(),
        );
        std::thread::sleep(Duration::from_millis(20));
        let mut reloads_requested = 0u64;
        let mut reloads_ok = 0u64;
        let mut reload_ms = Vec::new();
        let mut script_err: Option<String> = None;
        for (target, expect_rollback) in &sc.reloads {
            reloads_requested += 1;
            let t0 = std::time::Instant::now();
            let outcome = ctl.reload(*target);
            reload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match outcome {
                Ok(id) => {
                    reloads_ok += 1;
                    if *expect_rollback {
                        script_err = Some(format!(
                            "{}: reload to {target} was expected to roll back, got {id}",
                            sc.name
                        ));
                        break;
                    }
                }
                Err(e) => {
                    if !*expect_rollback {
                        script_err = Some(format!("{}: reload to {target} failed: {e}", sc.name));
                        break;
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(30));
        }
        stop.store(true, Ordering::Relaxed);
        let (served, reads, clean, reconnects, elapsed) =
            streamer.join().map_err(|_| "streaming client panicked")?;
        if let Some(e) = script_err {
            return Err(e.into());
        }
        let snap = ctl.stats()?;
        server.shutdown();

        rows.push(ServeReloadRow {
            scenario: sc.name.to_string(),
            reads,
            reloads_requested,
            reloads_ok,
            rollbacks: snap.rollbacks,
            shed: snap.rejected + snap.deadline_shed + snap.fairness_shed + snap.force_closed,
            reconnects,
            final_generation: snap.generation,
            generations_served: served.into_iter().collect(),
            identical_to_oracle: clean,
            reload_ms,
            reads_per_sec: reads as f64 / elapsed.max(1e-9),
        });
    }
    Ok(rows)
}

/// Slice `count` windows of `len` bases from `contigs`, alternating
/// forward and reverse-complement orientation.
fn slice_queries(
    contigs: &[genome::PackedSeq],
    count: usize,
    len: usize,
) -> Vec<genome::PackedSeq> {
    let long: Vec<&genome::PackedSeq> = contigs.iter().filter(|c| c.len() >= len).collect();
    if long.is_empty() {
        return Vec::new();
    }
    (0..count)
        .map(|i| {
            let c = long[i % long.len()];
            let start = (i * 37) % (c.len() - len + 1);
            let s = c.slice(start, len);
            if i % 2 == 0 {
                s
            } else {
                s.reverse_complement()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_preserves_dataset_ordering_and_lengths() {
        let rows = table1(crate::DEFAULT_SCALE);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].dataset, "H.Chr 14");
        assert_eq!(rows[3].dataset, "H.Genome");
        assert!(rows
            .windows(2)
            .all(|w| w[0].scaled_bases < w[1].scaled_bases));
        assert_eq!(rows[2].length, 150);
    }

    /// The archived artifacts under `repro-out/` were written by the JSON
    /// library the workspace used to depend on. Reading each one into its
    /// row type and writing it back must reproduce it byte for byte: field
    /// names, field order, integer and float layout, indentation.
    #[test]
    fn archived_artifacts_round_trip_byte_for_byte() {
        fn check<T: stdx::json::ToJson + stdx::json::FromJson>(file: &str) {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../repro-out")
                .join(file);
            let text = std::fs::read_to_string(&path).unwrap();
            let rows: Vec<T> =
                stdx::json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert!(!rows.is_empty(), "{file}");
            assert_eq!(
                stdx::json::to_string_pretty(&rows),
                text.trim_end(),
                "{file}"
            );
        }
        for file in ["runs_k40_20000.json", "runs_k20x_20000.json"] {
            check::<DatasetRun>(file);
        }
        for file in ["table2.json", "table3.json", "table4.json", "table5.json"] {
            check::<DatasetRun>(file);
        }
        check::<Table1Row>("table1.json");
        check::<Table6Row>("table6.json");
        check::<SortPoint>("fig8.json");
        check::<SortPoint>("fig9.json");
        check::<Fig10Point>("fig10.json");
        check::<StrategyPoint>("reduce_ablation.json");
        check::<SchemeRow>("mapscheme.json");
        check::<DiskRow>("disks.json");
        check::<DbgCheckRow>("dbgcheck.json");
        check::<FpCheckRow>("fpcheck.json");
        check::<crate::validate::ClaimResult>("validate.json");
    }

    #[test]
    fn sort_input_is_deterministic() {
        let d1 = stdx::tempdir().unwrap();
        let s1 = SpillDir::create(d1.path(), IoStats::default()).unwrap();
        let (p1, n1) = write_sort_input(1_000_000, &s1).unwrap();
        let d2 = stdx::tempdir().unwrap();
        let s2 = SpillDir::create(d2.path(), IoStats::default()).unwrap();
        let (p2, n2) = write_sort_input(1_000_000, &s2).unwrap();
        assert_eq!(n1, n2);
        assert_eq!(std::fs::read(p1).unwrap(), std::fs::read(p2).unwrap());
    }

    #[test]
    fn fig8_points_show_fewer_passes_with_bigger_host_blocks() {
        let dir = stdx::tempdir().unwrap();
        let points = fig8(2_000_000, dir.path()).unwrap();
        assert_eq!(points.len(), 20);
        // Group by device size; passes must be non-increasing in m_h.
        for &m_d in &[2usize, 5, 10, 20] {
            let series: Vec<&SortPoint> = points
                .iter()
                .filter(|p| p.device_block_pairs == m_d)
                .collect();
            for w in series.windows(2) {
                assert!(
                    w[0].disk_passes >= w[1].disk_passes,
                    "passes must shrink as m_h grows"
                );
            }
        }
    }

    #[test]
    fn fig9_orders_gpus_by_bandwidth_at_large_host_blocks() {
        let dir = stdx::tempdir().unwrap();
        let points = fig9(2_000_000, dir.path()).unwrap();
        // At the largest host block (single disk pass), device time
        // matters most: V100 must beat K40.
        let best = |gpu: &str| {
            points
                .iter()
                .filter(|p| p.gpu == gpu)
                .map(|p| p.modeled_seconds)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(best("V100") < best("K40"));
        assert!(best("P100") < best("P40"));
    }

    #[test]
    fn fpcheck_gives_zero_false_edges_at_128_bits() {
        let dir = stdx::tempdir().unwrap();
        let rows = fpcheck(2_000_000, dir.path()).unwrap();
        let full = rows.iter().find(|r| r.bits == 128).unwrap();
        assert_eq!(full.false_edges, 0);
        let narrow = rows.iter().find(|r| r.bits == 16).unwrap();
        assert!(
            narrow.false_edges > 0,
            "16-bit fingerprints must collide at this scale"
        );
    }
}
