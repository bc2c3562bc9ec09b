//! The assembly workloads: `Pipeline::assemble` of H.Genome-ratio reads
//! (100 bp, `l_min` 63, 40x, error-free) under two memory regimes.

use crate::gen::{self, Rng};
use crate::util::{fact, median, peak_rss_mb, Metrics, Trace};
use crate::Outcome;
use genome::{PackedSeq, ReadSet};
use gstream::{HostMem, IoStats, PartitionKind, SortConfig, SpillDir};
use lasagna::traverse::TraverseOptions;
use lasagna::{AssemblyConfig, AssemblyOutput, Manifest, Pipeline, ReadsMeta, StringGraph};
use std::path::Path;
use std::time::Instant;
use vgpu::{Device, GpuProfile};

pub const READ_LEN: usize = 100;
pub const L_MIN: u32 = 63;
const COVERAGE: usize = 40;
const HOST_BYTES: u64 = 64 << 20;

/// What one assembly workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub reads: usize,
    /// `false`: 8 MiB device, every partition is one device chunk and one
    /// disk pass. `true`: block sizes shrunk so every partition sorts in 4
    /// initial runs and 3 disk passes with `m_h / m_d` = 10.7, the paper's
    /// 128 GB : 12 GB.
    pub extsort: bool,
}

/// Budgets and block sizes a shape resolves to.
pub struct Budgets {
    pub host_bytes: u64,
    pub device_bytes: u64,
    pub sort: SortConfig,
}

impl Shape {
    pub fn genome_len(&self) -> usize {
        self.reads * READ_LEN / COVERAGE
    }

    pub fn budgets(&self) -> Budgets {
        if self.extsort {
            // A partition holds one tuple per vertex: 2 x reads pairs.
            let m_h = self.reads / 2;
            let m_d = (m_h * 3 / 32).max(2);
            Budgets {
                host_bytes: HOST_BYTES,
                device_bytes: (m_d as u64 * 40).max(64 << 10),
                sort: SortConfig {
                    host_block_pairs: m_h,
                    device_block_pairs: m_d,
                    kway: false,
                },
            }
        } else {
            let host = HostMem::new(HOST_BYTES);
            let device = Device::with_capacity(GpuProfile::k40(), 8 << 20);
            Budgets {
                host_bytes: HOST_BYTES,
                device_bytes: 8 << 20,
                sort: SortConfig::from_budgets(&host, &device),
            }
        }
    }

    fn config(&self) -> AssemblyConfig {
        let mut config = AssemblyConfig::for_dataset(L_MIN, READ_LEN as u32);
        if self.extsort {
            config.sort = Some(self.budgets().sort);
        }
        config
    }

    fn parts(&self, workdir: &Path) -> lasagna::Result<(Device, HostMem, SpillDir)> {
        let budgets = self.budgets();
        Ok((
            Device::with_capacity(GpuProfile::k40(), budgets.device_bytes),
            HostMem::new(budgets.host_bytes),
            SpillDir::create(workdir, IoStats::default())?,
        ))
    }

    /// One op: a fresh pipeline over `workdir`, then `assemble`.
    pub fn assemble(&self, reads: &ReadSet, workdir: &Path) -> lasagna::Result<AssemblyOutput> {
        let (device, host, spill) = self.parts(workdir)?;
        Pipeline::new(device, host, spill, self.config())?.assemble(reads)
    }
}

pub struct Input {
    pub genome: PackedSeq,
    pub reads: ReadSet,
}

pub fn input(seed: u64, shape: &Shape) -> Input {
    let mut rng = Rng::new(seed, 1);
    let genome = gen::random_seq(&mut rng, shape.genome_len());
    let reads = gen::shotgun(&mut rng, &genome, READ_LEN, shape.reads);
    Input { genome, reads }
}

/// The contigs as base codes, each on its lexicographically smaller strand,
/// sorted: two assemblies spell the same set exactly when these are equal.
pub fn canonical_contigs(contigs: &[PackedSeq]) -> Vec<Vec<u8>> {
    let mut set: Vec<Vec<u8>> = contigs
        .iter()
        .map(|c| c.to_codes().min(c.reverse_complement().to_codes()))
        .collect();
    set.sort_unstable();
    set
}

/// FNV-1a over [`canonical_contigs`].
pub fn contig_set_hash(contigs: &[PackedSeq]) -> u64 {
    let mut hasher = gstream::Fnv64::new();
    for contig in canonical_contigs(contigs) {
        hasher.update(&contig);
        hasher.update(&[0xff]);
    }
    hasher.finish()
}

/// The checks every assembly must pass: contigs are exact substrings of the
/// reference on either strand, and reads were actually merged.
fn output_is_correct(input: &Input, out: &AssemblyOutput) -> bool {
    lasagna::verify::verify_contigs(&input.genome, &out.contigs).all_exact()
        && out.report.contig_stats.n50 > READ_LEN as u64
}

/// Runs one op and checks it; `None` is a failed op.
fn checked_op(shape: &Shape, input: &Input, workdir: &Path) -> Option<(f64, AssemblyOutput)> {
    let start = Instant::now();
    let out = shape.assemble(&input.reads, workdir);
    let wall = start.elapsed().as_secs_f64();
    match out {
        Ok(out) if output_is_correct(input, &out) => Some((wall, out)),
        Ok(_) => {
            eprintln!("assembly failed its correctness checks");
            None
        }
        Err(e) => {
            eprintln!("assembly failed: {e}");
            None
        }
    }
}

/// Set-up as a user pays it: generate the inputs and run one assembly, which
/// creates the work directory and warms the allocator and the page cache.
fn set_up(shape: &Shape, seed: u64, workdir: &Path) -> (f64, Input, Option<u64>) {
    let start = Instant::now();
    let input = input(seed, shape);
    let warm = checked_op(shape, &input, workdir);
    let wall = start.elapsed().as_secs_f64();
    (
        wall,
        input,
        warm.map(|(_, out)| contig_set_hash(&out.contigs)),
    )
}

/// The untraced run: `ops` timed assemblies, at least one per round.
pub fn run(shape: &Shape, seed: u64, ops: usize, workdir: &Path) -> Outcome {
    let mut setups = Vec::new();
    let (input, warm_hash) = loop {
        let (wall, input, hash) = set_up(shape, seed, workdir);
        setups.push(wall);
        if setups.len() == crate::SETUP_REPEATS {
            break (input, hash);
        }
    };

    let mut failed = 0u64;
    let mut walls = Vec::new();
    let mut last: Option<AssemblyOutput> = None;
    for _ in 0..ops {
        match checked_op(shape, &input, workdir) {
            // Every assembly of one input must spell the same contigs.
            Some((wall, out)) if Some(contig_set_hash(&out.contigs)) == warm_hash => {
                walls.push(wall);
                last = Some(out);
            }
            _ => failed += 1,
        }
    }

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    let mut stamp = vec![
        fact("reads", shape.reads),
        fact("genome_len", shape.genome_len()),
        fact("ops", ops),
    ];
    stamp.extend(budget_stamp(shape));
    // A failed op has no wall; the run is incorrect and prints no rates.
    if failed == 0 {
        let rounds = round_rates(&walls, shape.reads);
        metrics.put("reads_per_s", median(&rounds), "1/s");
        metrics.put("op_p50_ms", median(&walls) * 1e3, "ms");
        stamp.push(fact("round_reads_per_s", format!("{rounds:.0?}")));
    }
    if let Some(out) = &last {
        stamp.push(fact("contigs", out.contigs.len()));
        stamp.push(fact("n50", out.report.contig_stats.n50));
    }
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    Outcome {
        correct: failed == 0 && warm_hash.is_some(),
        attempted: ops as u64,
        failed,
        metrics,
        stamp,
    }
}

pub fn budget_stamp(shape: &Shape) -> Vec<(String, String)> {
    let b = shape.budgets();
    vec![
        fact("host_bytes", b.host_bytes),
        fact("device_bytes", b.device_bytes),
        fact("m_h", b.sort.host_block_pairs),
        fact("m_d", b.sort.device_block_pairs),
    ]
}

/// Reads per second of each of `ROUNDS` contiguous groups of ops.
fn round_rates(walls: &[f64], reads_per_op: usize) -> Vec<f64> {
    (0..crate::ROUNDS)
        .map(|r| {
            let lo = r * walls.len() / crate::ROUNDS;
            let hi = (r + 1) * walls.len() / crate::ROUNDS;
            let wall: f64 = walls[lo..hi].iter().sum();
            ((hi - lo) * reads_per_op) as f64 / wall
        })
        .collect()
}

/// Counts of one traced op that must repeat exactly from run to run.
struct OpCounts {
    tuples: u64,
    candidates: u64,
    accepted: u64,
    initial_runs: u32,
    disk_passes: u32,
}

/// One assembly driven phase by phase through the crate's public functions,
/// in `Pipeline::assemble`'s order and with its checkpoints, each under a
/// span. Checkpoint work (manifest commits, `graph.bin`, the staged reads)
/// is its own layer, so the phase spans hold only phase work.
fn traced_op(
    shape: &Shape,
    input: &Input,
    workdir: &Path,
    trace: &mut Trace,
    op: u64,
) -> lasagna::Result<(Vec<PackedSeq>, OpCounts)> {
    let faults = faultsim::Faults::disabled();
    let config = shape.config();
    let root = trace.open("op", op);
    let parent = Some(root);
    let (device, host, spill) = shape.parts(workdir)?;
    let dir = spill.root().to_path_buf();
    let reads = &input.reads;

    let mut manifest = trace.span("checkpoint", parent, op, || -> lasagna::Result<Manifest> {
        spill.clear()?;
        let _ = std::fs::remove_file(dir.join("graph.bin"));
        let manifest = Manifest::new(shape.reads as u64);
        manifest.store(&dir, &faults)?;
        let staged = dir.join("reads.packed");
        std::fs::write(&staged, reads.to_packed_bytes()).map_err(gstream::StreamError::from)?;
        ReadsMeta {
            read_len: READ_LEN as u32,
            reads: reads.len() as u64,
        }
        .store(&dir)?;
        Ok(manifest)
    })?;

    let loaded = trace.span("load", parent, op, || -> lasagna::Result<ReadSet> {
        let bytes = std::fs::read(dir.join("reads.packed")).map_err(gstream::StreamError::from)?;
        let _guard = host.reserve(bytes.len() as u64)?;
        Ok(ReadSet::from_packed_bytes(READ_LEN, reads.len(), &bytes)?)
    })?;

    let counts = trace.span("map", parent, op, || {
        lasagna::map::run(&device, &host, &spill, &config, &loaded)
    })?;
    trace.span("checkpoint", parent, op, || -> lasagna::Result<()> {
        manifest.mark_phase("map");
        for len in L_MIN..READ_LEN as u32 {
            for kind in [PartitionKind::Suffix, PartitionKind::Prefix] {
                manifest.record_file(&spill.path(kind, len))?;
            }
        }
        manifest.store(&dir, &faults)
    })?;

    // The per-partition checkpoints run inside the sort call; they are timed
    // there and recorded as child spans of the sort span afterwards.
    let sort_span = trace.open("sort", op);
    let mut commits: Vec<(u64, u64)> = Vec::new();
    let sorted = lasagna::sortphase::run_checkpointed(
        &device,
        &host,
        &spill,
        &config,
        &obs::Recorder::disabled(),
        |_| false,
        &mut |tag, path| {
            let start = trace.now_ns();
            manifest.record_file(path)?;
            manifest.mark_sorted(tag);
            manifest.store(&dir, &faults)?;
            commits.push((start, trace.now_ns()));
            Ok(())
        },
    )?;
    trace.close(sort_span);
    trace.spans[sort_span].parent = parent;
    for (start_ns, end_ns) in commits {
        trace.push("checkpoint", start_ns, end_ns, Some(sort_span), op);
    }
    trace.span("checkpoint", parent, op, || {
        manifest.mark_phase("sort");
        manifest.store(&dir, &faults)
    })?;

    let mut graph = StringGraph::new(loaded.vertex_count());
    let _graph_guard = host.reserve(graph.memory_bytes())?;
    let reduced = trace.span("reduce", parent, op, || {
        lasagna::reduce::run(&device, &host, &spill, &config, &mut graph)
    })?;
    trace.span("checkpoint", parent, op, || -> lasagna::Result<()> {
        let bytes = graph.to_bytes();
        std::fs::write(dir.join("graph.bin"), &bytes).map_err(gstream::StreamError::from)?;
        manifest.mark_phase("reduce");
        manifest.record_raw("graph.bin", &bytes);
        manifest.store(&dir, &faults)
    })?;

    let paths = trace.span("traverse", parent, op, || {
        lasagna::traverse::extract_paths(&graph, READ_LEN as u32, TraverseOptions::default())
    });
    let (contigs, _stats) = trace.span("contigs", parent, op, || {
        lasagna::contig::generate_contigs(&device, &host, &loaded, &paths)
    })?;
    trace.span("export", parent, op, || {
        qserve::ContigStore::write(&dir.join(qserve::STORE_FILE), &contigs, spill.io())
    })?;
    trace.close(root);

    let counts = OpCounts {
        tuples: counts.values().map(|&(s, p)| s + p).sum(),
        candidates: reduced.candidates,
        accepted: reduced.accepted,
        initial_runs: sorted
            .partitions
            .iter()
            .map(|(_, _, r)| r.initial_runs)
            .max()
            .unwrap_or(0),
        disk_passes: sorted.max_disk_passes,
    };
    Ok((contigs, counts))
}

/// Result of the assembly ladder.
pub struct Ladder {
    pub metrics: Metrics,
    pub ok: bool,
    /// Walls of the untraced `Pipeline::assemble` ops, seconds.
    pub plain_walls: Vec<f64>,
    /// Median wall of the phase-by-phase op.
    pub traced_wall: f64,
}

/// The assembly ladder: `ops` traced ops and as many untraced
/// `Pipeline::assemble` ops on the same reads, alternating. Returns the
/// `lasagna.*` metrics, the per-op `vgpu.*` and `gstream.*` counts, and
/// whether every check passed.
pub fn ladder(shape: &Shape, seed: u64, ops: usize, workdir: &Path, trace: &mut Trace) -> Ladder {
    let input = input(seed, shape);
    let mut ok = true;
    let failed = || Ladder {
        metrics: Metrics::default(),
        ok: false,
        plain_walls: Vec::new(),
        traced_wall: 0.0,
    };
    // Warm-up, and the reference contig set.
    let Some((_, reference)) = checked_op(shape, &input, workdir) else {
        return failed();
    };
    let want = contig_set_hash(&reference.contigs);

    let mut plain_walls = Vec::new();
    let mut counts = None;
    for op in 0..ops as u64 {
        match traced_op(shape, &input, workdir, trace, op) {
            Ok((contigs, c)) => {
                ok &= contig_set_hash(&contigs) == want;
                counts = Some(c);
            }
            Err(e) => {
                eprintln!("traced assembly failed: {e}");
                ok = false;
            }
        }
        match checked_op(shape, &input, workdir) {
            Some((wall, _)) => plain_walls.push(wall),
            None => ok = false,
        }
    }
    let Some(counts) = counts.filter(|_| !plain_walls.is_empty()) else {
        return failed();
    };

    let mut m = Metrics::default();
    // Self time of a span: its duration minus its children's.
    let checkpoint_in_sort: f64 = trace
        .spans
        .iter()
        .filter(|s| {
            s.name == "checkpoint" && s.parent.is_some_and(|p| trace.spans[p].name == "sort")
        })
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum::<f64>()
        / ops as f64;
    let per_op = |name: &str| median(&trace.seconds_of(name));
    let checkpoint_total: f64 = trace.seconds_of("checkpoint").iter().sum::<f64>() / ops as f64;
    let phases = [
        ("lasagna.load_s", per_op("load")),
        ("lasagna.map_s", per_op("map")),
        ("lasagna.sort_s", per_op("sort") - checkpoint_in_sort),
        ("lasagna.reduce_s", per_op("reduce")),
        ("lasagna.traverse_s", per_op("traverse")),
        ("lasagna.contigs_s", per_op("contigs")),
        ("lasagna.export_s", per_op("export")),
        ("lasagna.checkpoint_s", checkpoint_total),
    ];
    for (name, secs) in phases {
        m.put(name, secs, "s");
    }
    let traced_wall = per_op("op");
    let plain_wall = median(&plain_walls);
    m.put("lasagna.op_s", plain_wall, "s");
    m.put(
        "lasagna.unattributed_frac",
        1.0 - phases.iter().map(|p| p.1).sum::<f64>() / traced_wall,
        "ratio",
    );

    let report = &reference.report;
    // Computed by the roofline from counts, not measured: see `layers`.
    m.put(
        "lasagna.modeled_s",
        report.total_modeled_seconds(),
        "s.modeled",
    );
    let peak = |f: fn(&lasagna::PhaseMetrics) -> u64| {
        report.phases.iter().map(f).max().unwrap_or(0) as f64
    };
    m.put("lasagna.host_peak_bytes", peak(|p| p.host_peak_bytes), "B");
    m.put(
        "lasagna.device_peak_bytes",
        peak(|p| p.device_peak_bytes),
        "B",
    );
    m.put("lasagna.map.tuples", counts.tuples as f64, "count");
    m.put(
        "lasagna.reduce.candidates",
        counts.candidates as f64,
        "count",
    );
    m.put(
        "lasagna.reduce.accepted_frac",
        counts.accepted as f64 / counts.candidates.max(1) as f64,
        "ratio",
    );
    m.put("lasagna.graph_edges", report.graph_edges as f64, "count");
    m.put("lasagna.contigs", report.contig_stats.count as f64, "count");
    m.put("lasagna.n50", report.contig_stats.n50 as f64, "bp");

    let total =
        |f: fn(&lasagna::PhaseMetrics) -> u64| report.phases.iter().map(f).sum::<u64>() as f64;
    m.put(
        "vgpu.kernel_launches",
        total(|p| p.device.kernel_launches),
        "count",
    );
    m.put("vgpu.h2d_bytes", total(|p| p.device.h2d_bytes), "B");
    m.put("vgpu.d2h_bytes", total(|p| p.device.d2h_bytes), "B");
    m.put(
        "gstream.io.bytes_written",
        total(|p| p.io.bytes_written),
        "B",
    );
    m.put("gstream.io.bytes_read", total(|p| p.io.bytes_read), "B");
    m.put(
        "gstream.extsort.initial_runs",
        counts.initial_runs as f64,
        "count",
    );
    m.put(
        "gstream.extsort.disk_passes",
        counts.disk_passes as f64,
        "count",
    );
    Ladder {
        metrics: m,
        ok,
        plain_walls,
        traced_wall,
    }
}
