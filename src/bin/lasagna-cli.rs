//! `lasagna-cli` — command-line interface to the assembler.
//!
//! `lasagna-cli help` prints every subcommand with its options; the
//! [`COMMANDS`] table is the one place they are written.
//!
//! `index` imports `--contigs` into `--work` as its next store/index
//! generation; `query` serves batched read lookups against it, either
//! in-process (`--work`) or over TCP against a `serve` process
//! (`--connect`). `serve` binds the hardened network front-end (qnet) on
//! the work dir's active generation and prints `listening HOST:PORT` once
//! ready; `generations` lists a work dir's store/index generations,
//! `reload` hot-swaps a live serve process to one without dropping a
//! connection or a query, and `shutdown` asks a serve process to drain
//! gracefully. The wire is unauthenticated: bind `serve` only on a
//! trusted network. See SERVING.md for formats, semantics, and tuning.

use lasagna_repro::faultsim::{FaultPlan, Faults};
use lasagna_repro::genome::fastq::{read_fasta, read_fastq, write_fasta, write_fastq};
use lasagna_repro::genome::sim::is_substring_either_strand;
use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{ClientConfig, QnetError, ReloadConfig, Server, ServerConfig};
use lasagna_repro::qserve::{
    generations, AdmissionConfig, ContigStore, GenManifest, Hit, IndexConfig, MinimizerIndex,
    QueryConfig, ServiceConfig, GEN_MANIFEST_FILE,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

type Opts = HashMap<String, String>;

/// Every subcommand and its options, as `lasagna-cli help` prints them:
/// one entry per form of a command, indented lines continuing it. This is
/// the one place an option is written: `parse_opts` accepts for a command
/// exactly the `--flags` its entries name.
const COMMANDS: &str = "
  lasagna-cli simulate --out reads.fastq [--genome-len 100000] [--coverage 20]
        [--read-len 100] [--reference ref.fa] [--seed 7] [--error-rate 0.0]
        [--repeat-fraction 0.01]
  lasagna-cli assemble --reads reads.fastq --out contigs.fa [--l-min N] [--work DIR]
        [--host-mem 256M] [--device-mem 64M] [--gpu k40|k20x|p40|p100|v100]
        [--graph greedy|full] [--resume yes] [--trace-out trace.jsonl]
        [--metrics-json report.json] [--progress yes]
  lasagna-cli assemble-distributed --reads reads.fastq --out contigs.fa [--nodes 2]
        [--reduce token|range] [--block-reads 1024] [--l-min N] [--work DIR]
        [--host-mem 256M] [--device-mem 64M] [--gpu k20x] [--resume yes]
        [--trace-out trace.jsonl] [--metrics-json report.json]
  lasagna-cli inspect-trace --trace trace.jsonl [--root assembly]
  lasagna-cli stats --contigs contigs.fa [--reference ref.fa]
  lasagna-cli stats --connect HOST:PORT [--format json|tsv]
  lasagna-cli top --connect HOST:PORT [--interval-ms 1000] [--iterations 0]
  lasagna-cli index --work DIR --contigs contigs.fa [--k 15] [--w 8] [--threads 0]
  lasagna-cli query --work DIR --reads queries.fastq [--out hits.tsv] [--batch 1024]
        [--workers 4] [--max-mismatches 2] [--max-queue 64]
  lasagna-cli query --connect HOST:PORT --reads queries.fastq [--out hits.tsv]
        [--batch 1024] [--client-id NAME] [--deadline-ms 10000] [--retries 4]
  lasagna-cli query --router cluster.json --reads queries.fastq [--out hits.tsv]
        [--batch 1024] [--client-id NAME] [--deadline-ms 10000] [--max-mismatches 2]
        [--hedge-max-ms 200] [--failover-rounds 3]
  lasagna-cli serve --work DIR [--addr 127.0.0.1:0] [--workers 4] [--max-mismatches 2]
        [--max-queue 64] [--refill-per-s 50000] [--burst 20000]
        [--read-timeout-ms 30000] [--write-timeout-ms 10000]
        [--drain-deadline-ms 5000] [--faults SPEC] [--trace-out trace.jsonl]
  lasagna-cli serve-cluster --work DIR --shards N [--replicas 2]
        [--manifest DIR/cluster.json] [--workers 2] [--max-mismatches 2]
        [--max-queue 64] [--k 15] [--w 8] [--threads 0] [--read-timeout-ms 30000]
        [--drain-deadline-ms 5000]
  lasagna-cli generations --work DIR
  lasagna-cli reload --connect HOST:PORT [--generation 0]
  lasagna-cli shutdown --connect HOST:PORT
";

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let run: fn(&Opts) = match command.as_str() {
        "simulate" => simulate,
        "assemble" => assemble,
        "assemble-distributed" => assemble_distributed,
        "inspect-trace" => inspect_trace,
        "stats" => stats,
        "top" => top,
        "index" => index,
        "query" => query,
        "serve" => serve,
        "serve-cluster" => serve_cluster,
        "generations" => generations,
        "reload" => reload,
        "shutdown" => shutdown,
        "" | "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("lasagna: unknown command {other:?}");
            usage()
        }
    };
    run(&parse_opts(&command, args));
}

fn usage() -> ! {
    eprintln!(
        "usage:{COMMANDS}\nassemble resumes from --work's manifest.json when --resume yes; \
         assemble-distributed resumes from --work's superstep.log plus the \
         per-node manifests (see ROBUSTNESS.md).\nindex/query/serve answer reads \
         against the assembled contigs (see SERVING.md).\nexit codes: 0 ok, 1 error, \
         2 usage, 3 corrupt on-disk state, 4 out of memory, 5 I/O failure, \
         6 overloaded (queued + arriving work exceeds the admission limit, the \
         per-client fairness bucket is empty, the server is draining, or the \
         client's retry budget ran out; resubmit later)"
    );
    exit(2);
}

/// The flags `command`'s entries in [`COMMANDS`] name, without their `--`.
fn flags(command: &str) -> impl Iterator<Item = &'static str> + '_ {
    COMMANDS
        .split("lasagna-cli ")
        .filter(move |entry| entry.split_whitespace().next() == Some(command))
        .flat_map(str::split_whitespace)
        .filter_map(|word| word.trim_start_matches('[').strip_prefix("--"))
}

/// The `--flag value` pairs after the command. A flag the command's
/// entries do not name is a usage error, not an option silently ignored.
fn parse_opts(command: &str, mut args: impl Iterator<Item = String>) -> Opts {
    let mut opts = Opts::new();
    while let Some(arg) = args.next() {
        let Some(key) = arg.strip_prefix("--") else {
            eprintln!("lasagna: expected --option, got {arg:?}");
            exit(2);
        };
        if !flags(command).any(|flag| flag == key) {
            eprintln!("lasagna: unknown option --{key} for {command}");
            exit(2);
        }
        let Some(value) = args.next() else {
            eprintln!("lasagna: --{key} needs a value");
            exit(2);
        };
        opts.insert(key.to_string(), value);
    }
    opts
}

fn get<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> T {
    match opts.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("lasagna: bad value for --{key}: {v:?}");
            exit(2)
        }),
        None => default,
    }
}

fn require(opts: &Opts, key: &str) -> String {
    opts.get(key).cloned().unwrap_or_else(|| {
        eprintln!("lasagna: missing required --{key}");
        exit(2)
    })
}

/// Parse "64M"/"2G"/plain-byte memory sizes.
fn parse_mem(s: &str) -> u64 {
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1 << 20),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().unwrap_or_else(|_| {
        eprintln!("lasagna: bad memory size {s:?}");
        exit(2)
    }) * mult
}

fn simulate(opts: &Opts) {
    let genome_len: usize = get(opts, "genome-len", 100_000);
    let coverage: f64 = get(opts, "coverage", 20.0);
    let read_len: usize = get(opts, "read-len", 100);
    let seed: u64 = get(opts, "seed", 7);
    let error_rate: f64 = get(opts, "error-rate", 0.0);
    let repeat_fraction: f64 = get(opts, "repeat-fraction", 0.01);
    let out = PathBuf::from(require(opts, "out"));

    let genome = GenomeSim {
        len: genome_len,
        repeat_fraction,
        repeat_len: read_len * 2,
        seed,
    }
    .generate();
    let reads = ShotgunSim {
        read_len,
        coverage,
        strand_flip_prob: 0.5,
        error_rate,
        seed: seed ^ 0xF00D,
    }
    .sample(&genome);

    let named: Vec<(String, PackedSeq)> = reads
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("sim_read_{i}"), r))
        .collect();
    write_fastq(&out, named.iter().map(|(n, r)| (n.as_str(), r))).unwrap_or_else(die);
    println!(
        "wrote {} reads × {} bp to {}",
        reads.len(),
        read_len,
        out.display()
    );

    if let Some(ref_path) = opts.get("reference") {
        write_fasta(&PathBuf::from(ref_path), [("simulated_reference", &genome)])
            .unwrap_or_else(die);
        println!("wrote reference to {ref_path}");
    }
}

/// Named records of a FASTA (by its `.fa`/`.fasta` extension) or FASTQ
/// file.
fn read_records(path: &Path) -> Vec<(String, PackedSeq)> {
    if path.extension().is_some_and(|e| e == "fa" || e == "fasta") {
        read_fasta(path).unwrap_or_else(die)
    } else {
        read_fastq(path).unwrap_or_else(die)
    }
}

/// Load reads into a uniform-length set, warning about (and skipping)
/// reads of a different length.
fn load_reads(reads_path: &Path) -> ReadSet {
    let records = read_records(reads_path);
    if records.is_empty() {
        eprintln!("lasagna: no reads in {}", reads_path.display());
        exit(1);
    }
    let read_len = records[0].1.len();
    let mut reads = ReadSet::new(read_len);
    let mut skipped = 0usize;
    for (_, seq) in &records {
        if reads.push(seq).is_err() {
            skipped += 1;
        }
    }
    if skipped > 0 {
        eprintln!("lasagna: skipped {skipped} reads with length != {read_len}");
    }
    reads
}

fn create_work_dir(work: &Path) {
    std::fs::create_dir_all(work).unwrap_or_else(|e| {
        eprintln!("lasagna: cannot create workdir: {e}");
        exit(EXIT_IO)
    });
}

/// What `assemble` and `assemble-distributed` read alike: the reads,
/// where the contigs go, the work dir, the memory budgets, the GPU and
/// the configuration with its `--l-min`.
struct AssemblyRun {
    reads: ReadSet,
    out: PathBuf,
    work: PathBuf,
    host_mem: u64,
    device_mem: u64,
    gpu: GpuProfile,
    config: AssemblyConfig,
}

impl AssemblyRun {
    /// Read the shared options and the reads, print the `assembling`
    /// line (`on` describes the machine), and create the work dir.
    fn start(
        opts: &Opts,
        work_name: &str,
        gpu_name: &str,
        on: impl FnOnce(&AssemblyRun) -> String,
    ) -> AssemblyRun {
        let reads_path = PathBuf::from(require(opts, "reads"));
        let out = PathBuf::from(require(opts, "out"));
        let work = std::env::temp_dir().join(work_name);
        let work = PathBuf::from(get(opts, "work", work.to_string_lossy().into_owned()));
        let host_mem = parse_mem(&get(opts, "host-mem", "256M".to_string()));
        let device_mem = parse_mem(&get(opts, "device-mem", "64M".to_string()));
        let gpu = match get(opts, "gpu", gpu_name.to_string()).as_str() {
            "k40" => GpuProfile::k40(),
            "k20x" => GpuProfile::k20x(),
            "p40" => GpuProfile::p40(),
            "p100" => GpuProfile::p100(),
            "v100" => GpuProfile::v100(),
            other => {
                eprintln!("lasagna: unknown GPU {other:?}");
                exit(2);
            }
        };
        let reads = load_reads(&reads_path);
        let read_len = reads.read_len() as u32;
        let default_l_min = (read_len * 5 / 8).max(1); // SGA-style ~0.63·L
        let l_min: u32 = get(opts, "l-min", default_l_min);
        let run = AssemblyRun {
            reads,
            out,
            work,
            host_mem,
            device_mem,
            gpu,
            config: AssemblyConfig::for_dataset(l_min, read_len),
        };
        println!(
            "assembling {} reads × {} bp (l_min {}) on {}",
            run.reads.len(),
            read_len,
            l_min,
            on(&run)
        );
        create_work_dir(&run.work);
        run
    }

    /// Write the contigs as FASTA to `--out`; `summary` ends the line
    /// that says so.
    fn write_contigs(&self, contigs: &[PackedSeq], summary: String) {
        let named: Vec<(String, &PackedSeq)> = contigs
            .iter()
            .enumerate()
            .map(|(i, c)| (format!("contig_{i} len={}", c.len()), c))
            .collect();
        write_fasta(&self.out, named.iter().map(|(n, c)| (n.as_str(), *c))).unwrap_or_else(die);
        println!("contigs written to {} ({summary})", self.out.display());
    }
}

/// `rec` with a JSONL sink on `--trace-out` when the flag is given.
fn trace_recorder(opts: &Opts, rec: obs::Recorder) -> obs::Recorder {
    if let Some(path) = opts.get("trace-out") {
        let sink = obs::JsonlSink::create(Path::new(path)).unwrap_or_else(die);
        rec.add_sink(Box::new(sink));
    }
    rec
}

/// Flush `rec` and say where `--trace-out` went.
fn flush_trace(opts: &Opts, rec: &obs::Recorder) {
    rec.flush();
    if let Some(path) = opts.get("trace-out") {
        println!("trace written to {path}");
    }
}

/// Write `report` as pretty JSON to `--metrics-json` when it is given.
fn write_metrics<T: stdx::json::ToJson>(opts: &Opts, report: &T) {
    if let Some(path) = opts.get("metrics-json") {
        std::fs::write(path, stdx::json::to_string_pretty(report)).unwrap_or_else(die);
        println!("metrics written to {path}");
    }
}

fn assemble(opts: &Opts) {
    let run = AssemblyRun::start(opts, "lasagna-cli-work", "k40", |run| {
        format!(
            "a virtual {} ({} device, {} host)",
            run.gpu.name, run.device_mem, run.host_mem
        )
    });
    let graph_mode = get(opts, "graph", "greedy".to_string());
    let device = Device::with_capacity(run.gpu.clone(), run.device_mem);
    let host = HostMem::new(run.host_mem);
    let spill = SpillDir::create(&run.work, IoStats::default()).unwrap_or_else(die_stream);

    let (contigs, n50) = match graph_mode.as_str() {
        "greedy" => {
            let resume = get(opts, "resume", "no".to_string()) == "yes";
            let rec = trace_recorder(opts, obs::Recorder::new());
            if get(opts, "progress", "no".to_string()) == "yes" {
                rec.add_sink(Box::new(obs::ProgressSink::new(2)));
            }
            let pipeline = Pipeline::new(device, host, spill, run.config)
                .unwrap_or_else(die_run)
                .with_recorder(rec.clone());
            let result = if resume {
                pipeline.resume(&run.reads)
            } else {
                pipeline.assemble(&run.reads)
            }
            .unwrap_or_else(die_run);
            flush_trace(opts, &rec);
            write_metrics(opts, &result.report);
            print!("{}", result.report);
            (result.contigs, result.report.contig_stats.n50)
        }
        "full" => {
            if opts.contains_key("trace-out") || opts.contains_key("metrics-json") {
                eprintln!("lasagna: --trace-out/--metrics-json require --graph greedy");
            }
            // The Myers-style full string graph with transitive reduction:
            // conservative at repeats (stops at branches).
            let (graph, paths) = lasagna_repro::lasagna::fullgraph::assemble_full(
                &device,
                &host,
                &spill,
                &run.config,
                &run.reads,
            )
            .unwrap_or_else(die_run);
            let (contigs, stats) = lasagna_repro::lasagna::contig::generate_contigs(
                &device, &host, &run.reads, &paths,
            )
            .unwrap_or_else(die_run);
            println!(
                "full graph: {} edges after reduction | contigs: {}, {} bases, N50 {}, max {}",
                graph.edge_count(),
                stats.count,
                stats.total_bases,
                stats.n50,
                stats.max_len
            );
            (contigs, stats.n50)
        }
        other => {
            eprintln!("lasagna: unknown graph mode {other:?} (greedy|full)");
            exit(2);
        }
    };
    run.write_contigs(&contigs, format!("N50 {n50}"));
}

/// Distributed assembly on the simulated cluster (Section III-E): master
/// load balancing, all-to-all shuffle, per-node sorting, and the
/// token-passing (or fingerprint-range) reduce. `--resume yes` picks up
/// from `--work`'s superstep log and per-node manifests, skipping
/// supersteps whose artifacts are durable and validated.
fn assemble_distributed(opts: &Opts) {
    use lasagna_repro::dnet::ReduceStrategy;

    let nodes: usize = get(opts, "nodes", 2);
    let block_reads: usize = get(opts, "block-reads", 1024);
    let reduce = get(opts, "reduce", "token".to_string());
    let reduce_strategy = match reduce.as_str() {
        "token" => ReduceStrategy::LengthToken,
        "range" => ReduceStrategy::FingerprintRange,
        other => {
            eprintln!("lasagna: unknown reduce strategy {other:?} (token|range)");
            exit(2);
        }
    };
    let run = AssemblyRun::start(opts, "lasagna-cli-dwork", "k20x", |run| {
        format!("{nodes} virtual {} nodes ({reduce} reduce)", run.gpu.name)
    });

    let rec = trace_recorder(opts, obs::Recorder::new());
    let cluster = Cluster::new(ClusterConfig {
        nodes,
        gpu: run.gpu.clone(),
        device_capacity: run.device_mem,
        host_capacity: run.host_mem,
        disk: DiskModel::cluster_scratch(),
        net: NetModel::infiniband_56g(),
        block_reads,
        assembly: run.config,
        reduce_strategy,
    })
    .unwrap_or_else(die_dnet)
    .with_recorder(rec.clone());

    let resume = get(opts, "resume", "no".to_string()) == "yes";
    let result = if resume {
        cluster.resume(&run.reads, &run.work)
    } else {
        cluster.assemble(&run.reads, &run.work)
    }
    .unwrap_or_else(die_dnet);
    flush_trace(opts, &rec);

    if result.report.resumed {
        println!(
            "resumed from {}'s superstep log (completed supersteps skipped)",
            run.work.display()
        );
    }
    println!(
        "distributed graph: {} edges from {} candidates | {} network bytes in {} messages",
        result.report.edges,
        result.report.candidates,
        result.report.network_bytes,
        result.report.network_messages
    );
    for p in &result.report.phases {
        println!("  {p}");
    }
    write_metrics(opts, &result.report);
    let stats = &result.report.contig_stats;
    run.write_contigs(
        &result.contigs,
        format!("{} contigs, N50 {}", stats.count, stats.n50),
    );
}

/// Pretty-print a recorded JSONL trace: per-phase totals rolled up from
/// the events, plus per-partition rows under the sort and reduce phases.
fn inspect_trace(opts: &Opts) {
    let path = PathBuf::from(require(opts, "trace"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(die);
    let rollup = obs::Rollup::from_jsonl(&text).unwrap_or_else(die);
    let root_name = get(opts, "root", "assembly".to_string());
    let Some(root) = rollup.root_named(&root_name) else {
        eprintln!(
            "lasagna: no {root_name:?} span in {} ({} spans recorded)",
            path.display(),
            rollup.span_count()
        );
        exit(1);
    };
    println!(
        "{}: {:.3}s wall, {} spans",
        root.name,
        root.wall_seconds,
        rollup.span_count()
    );
    println!(
        "  {:<18} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "phase", "wall", "device", "io", "host peak", "device peak"
    );
    for phase in rollup.children(root.id) {
        let agg = rollup.subtree(phase.id);
        let dev = agg.metric("device.kernel_seconds") + agg.metric("device.transfer_seconds");
        let io = agg.metric("io.read_seconds") + agg.metric("io.write_seconds");
        // A reduce's edges, wherever they were counted: on each length, or
        // on the ranks (candidates) and the distributed commit (verdicts).
        let edges = (phase.name == "reduce").then(|| reduce_detail(&agg, 3));
        let edges = edges.unwrap_or_default();
        let row = format!(
            "  {:<18} {:>9.3}s {:>9.3}s {:>9.3}s {:>12} {:>12}  {edges}",
            phase.name,
            phase.wall_seconds,
            dev,
            io,
            obs::human_bytes(agg.gauge("host.peak_bytes")),
            obs::human_bytes(agg.gauge("device.peak_bytes")),
        );
        println!("{}", row.trim_end());
        for part in rollup.children(phase.id) {
            let p = rollup.subtree(part.id);
            let detail = match phase.name.as_str() {
                "sort" => format!(
                    "{} pairs, {} runs, {} merge passes, spilled {}",
                    p.counter("sort.pairs"),
                    p.counter("sort.initial_runs"),
                    p.counter("sort.merge_passes"),
                    obs::human_bytes(p.counter("sort.spill_bytes")),
                ),
                "reduce" => reduce_detail(&p, 4),
                _ => String::new(),
            };
            let row = format!(
                "    {:<16} {:>9.3}s  {detail}",
                part.name, part.wall_seconds
            );
            println!("{}", row.trim_end());
        }
    }

    // Latency histograms recorded anywhere under the root (serve traces
    // carry qserve.latency.* and qnet.latency.*, in microseconds).
    let agg = rollup.subtree(root.id);
    if !agg.hists.is_empty() {
        println!(
            "  {:<24} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "histogram (us)", "count", "p50", "p90", "p99", "p99.9", "max"
        );
        for (name, h) in &agg.hists {
            println!(
                "  {:<24} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
                name,
                h.count(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.percentile(0.999),
                h.max()
            );
        }
    }

    // Admission-gate roll-up with per-client attribution, for qnet
    // server traces (client:{id} spans, possibly across connections).
    const GATES: [&str; 4] = [
        "qnet.accepted",
        "qnet.rejected",
        "qnet.deadline_shed",
        "qnet.fairness_shed",
    ];
    let total = GATES.map(|gate| agg.counter(gate));
    if total.iter().sum::<u64>() > 0 {
        println!("  admission: {} (reads)", gate_counts(total));
        let mut per_client: std::collections::BTreeMap<String, [u64; 4]> = Default::default();
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            for child in rollup.children(id) {
                if let Some(client) = child.name.strip_prefix("client:") {
                    let c = rollup.subtree(child.id);
                    let row = per_client.entry(client.to_string()).or_default();
                    for (sum, gate) in row.iter_mut().zip(GATES) {
                        *sum += c.counter(gate);
                    }
                }
                stack.push(child.id);
            }
        }
        for (client, row) in per_client {
            println!("    {client}: {}", gate_counts(row));
        }
    }
}

/// `"N candidates, N accepted, …"` for each of the first `n` of these
/// `reduce.*` counters that `agg` carries.
fn reduce_detail(agg: &obs::SpanAgg, n: usize) -> String {
    let names = ["candidates", "accepted", "rejected", "window_advances"];
    let carried = names[..n].iter().filter_map(|name| {
        let count = agg.counters.get(&format!("reduce.{name}"))?;
        Some(format!("{count} {}", name.replace('_', " ")))
    });
    carried.collect::<Vec<_>>().join(", ")
}

/// Reads past each admission gate: accepted, rejected, deadline-shed
/// and fairness-shed.
fn gate_counts([accepted, rejected, deadline, fairness]: [u64; 4]) -> String {
    format!(
        "{accepted} accepted, {rejected} rejected, {deadline} deadline-shed, \
         {fairness} fairness-shed"
    )
}

fn stats(opts: &Opts) {
    if opts.contains_key("connect") {
        return stats_remote(opts);
    }
    let contigs_path = PathBuf::from(require(opts, "contigs"));
    let contigs = read_fasta(&contigs_path).unwrap_or_else(die);
    let lengths: Vec<u64> = contigs.iter().map(|(_, c)| c.len() as u64).collect();
    let stats = lasagna::ContigStats::from_lengths(&lengths, 0);
    println!(
        "{}: {} contigs, {} bases, N50 {}, max {}",
        contigs_path.display(),
        stats.count,
        stats.total_bases,
        stats.n50,
        stats.max_len
    );
    if let Some(ref_path) = opts.get("reference") {
        let reference = read_fasta(&PathBuf::from(ref_path)).unwrap_or_else(die);
        let mut exact = 0usize;
        for (_, c) in &contigs {
            if reference
                .iter()
                .any(|(_, r)| is_substring_either_strand(c, r))
            {
                exact += 1;
            }
        }
        println!(
            "{exact}/{} contigs align exactly to {}",
            contigs.len(),
            ref_path
        );
    }
}

/// Client settings from `--client-id`, `--deadline-ms` and `--retries`;
/// `client_id` names the caller when `--client-id` is not given.
fn client_config(opts: &Opts, client_id: &str) -> ClientConfig {
    let defaults = ClientConfig::default();
    ClientConfig {
        client_id: get(opts, "client-id", client_id.to_string()),
        deadline_ms: get(opts, "deadline-ms", defaults.deadline_ms),
        max_retries: get(opts, "retries", defaults.max_retries),
        ..defaults
    }
}

/// A client of the `serve` process at `--connect`.
fn client(opts: &Opts, client_id: &str) -> QueryClient {
    let cfg = ClientConfig {
        addr: require(opts, "connect"),
        ..client_config(opts, client_id)
    };
    QueryClient::new(cfg, &obs::Recorder::disabled())
}

/// The `--connect` arm of `stats`: one `Stats` round trip, printed as
/// pretty JSON (default) or flat TSV for shell pipelines.
fn stats_remote(opts: &Opts) {
    let snap = client(opts, "stats").stats().unwrap_or_else(die_qnet);
    match get(opts, "format", "json".to_string()).as_str() {
        "json" => println!("{}", stdx::json::to_string_pretty(&snap)),
        "tsv" => print!("{}", snapshot_tsv(&snap)),
        other => {
            eprintln!("lasagna: unknown --format {other:?} (json|tsv)");
            exit(2);
        }
    }
}

/// Flatten a snapshot into `key\tvalue` rows; per-client and latency
/// rows are prefixed with `client` / `latency` and carry their own
/// columns.
fn snapshot_tsv(s: &lasagna_repro::qnet::StatsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "uptime_ms\t{}", s.uptime_ms);
    let _ = writeln!(out, "draining\t{}", s.draining);
    let _ = writeln!(out, "inflight\t{}", s.inflight);
    let _ = writeln!(out, "queue_depth\t{}", s.queue_depth);
    let _ = writeln!(out, "drained_reads\t{}", s.drained_reads);
    let _ = writeln!(
        out,
        "drain_ewma_reads_per_s\t{:.1}",
        s.drain_ewma_reads_per_s
    );
    let _ = writeln!(out, "accepted\t{}", s.accepted);
    let _ = writeln!(out, "rejected\t{}", s.rejected);
    let _ = writeln!(out, "deadline_shed\t{}", s.deadline_shed);
    let _ = writeln!(out, "fairness_shed\t{}", s.fairness_shed);
    let _ = writeln!(out, "force_closed\t{}", s.force_closed);
    let _ = writeln!(out, "generation\t{}", s.generation);
    let _ = writeln!(out, "reloads\t{}", s.reloads);
    let _ = writeln!(out, "rollbacks\t{}", s.rollbacks);
    for c in &s.clients {
        let _ = writeln!(
            out,
            "client\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{}",
            c.client_id,
            c.accepted,
            c.rejected,
            c.deadline_shed,
            c.fairness_shed,
            c.tokens,
            c.weight
        );
    }
    for l in &s.latency {
        let _ = writeln!(
            out,
            "latency\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            l.name, l.count, l.min_us, l.p50_us, l.p90_us, l.p99_us, l.p999_us, l.max_us
        );
    }
    out
}

/// A refreshing terminal view over `Stats`: clear the screen, render a
/// compact dashboard, sleep, repeat. `--iterations 0` runs until the
/// connection dies or the user interrupts.
fn top(opts: &Opts) {
    let mut client = client(opts, "top");
    let connect = require(opts, "connect");
    let interval = Duration::from_millis(get(opts, "interval-ms", 1_000u64));
    let iterations: u64 = get(opts, "iterations", 0u64);
    let mut done = 0u64;
    loop {
        let snap = client.stats().unwrap_or_else(die_qnet);
        // Clear screen and home the cursor between refreshes.
        print!("\x1b[2J\x1b[H");
        println!(
            "lasagna top — {connect}   uptime {:.1}s{}",
            snap.uptime_ms as f64 / 1000.0,
            if snap.draining { "   DRAINING" } else { "" }
        );
        println!(
            "queue {}   inflight {}   drained {} reads   drain rate {:.0} reads/s",
            snap.queue_depth, snap.inflight, snap.drained_reads, snap.drain_ewma_reads_per_s
        );
        let gates = [
            snap.accepted,
            snap.rejected,
            snap.deadline_shed,
            snap.fairness_shed,
        ];
        println!("gates: {}", gate_counts(gates));
        println!(
            "generation {}   reloads {}   rollbacks {}",
            snap.generation, snap.reloads, snap.rollbacks
        );
        if !snap.latency.is_empty() {
            println!(
                "{:<24} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "latency (us)", "count", "p50", "p90", "p99", "p99.9", "max"
            );
            for l in &snap.latency {
                println!(
                    "{:<24} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    l.name, l.count, l.p50_us, l.p90_us, l.p99_us, l.p999_us, l.max_us
                );
            }
        }
        if !snap.clients.is_empty() {
            println!(
                "{:<24} {:>10} {:>9} {:>9} {:>9} {:>10} {:>7}",
                "client", "accepted", "rejected", "deadline", "fairness", "tokens", "weight"
            );
            for c in &snap.clients {
                println!(
                    "{:<24} {:>10} {:>9} {:>9} {:>9} {:>10.1} {:>7}",
                    c.client_id,
                    c.accepted,
                    c.rejected,
                    c.deadline_shed,
                    c.fairness_shed,
                    c.tokens,
                    c.weight
                );
            }
        }
        flush_stdout();
        done += 1;
        if iterations > 0 && done >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
}

fn flush_stdout() {
    use std::io::Write as _;
    std::io::stdout().flush().ok();
}

fn index_config(opts: &Opts) -> IndexConfig {
    IndexConfig {
        k: get(opts, "k", 15usize),
        w: get(opts, "w", 8usize),
        threads: get(opts, "threads", 0usize),
    }
}

/// Import `--contigs` (FASTA, from `assemble` or any other assembler)
/// into `--work` as its next generation: store, minimizer index and
/// manifest entry, through `qserve::generations::export`. The new
/// generation is active, so `serve` boots it and `reload` swaps a live
/// server to it.
fn index(opts: &Opts) {
    let work = PathBuf::from(require(opts, "work"));
    let contigs_path = require(opts, "contigs");
    let contigs = read_fasta(&PathBuf::from(&contigs_path)).unwrap_or_else(die);
    let seqs: Vec<PackedSeq> = contigs.into_iter().map(|(_, c)| c).collect();
    create_work_dir(&work);
    let cfg = index_config(opts);
    let start = Instant::now();
    let id =
        generations::export(&work, &seqs, &cfg, &IoStats::default()).unwrap_or_else(die_qserve);
    println!(
        "generation {id}: {} contigs ({} bases) from {contigs_path} indexed (k={}, w={}) \
         in {:.3}s -> {}",
        seqs.len(),
        seqs.iter().map(|c| c.len()).sum::<usize>(),
        cfg.k,
        cfg.w,
        start.elapsed().as_secs_f64(),
        work.join(generations::gen_index_file(id)).display()
    );
}

fn query_config(opts: &Opts) -> QueryConfig {
    QueryConfig {
        max_mismatches: get(opts, "max-mismatches", 2u32),
        ..QueryConfig::default()
    }
}

fn service_config(opts: &Opts, workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers: get(opts, "workers", workers),
        max_queue: get(opts, "max-queue", 64usize),
        ..ServiceConfig::default()
    }
}

/// Open what `--work` serves: the active generation of its
/// `generations.json`. Returns the engine and its generation id.
fn open_served(opts: &Opts, work: &Path) -> (QueryEngine, u64) {
    generations::open_active_engine(work, query_config(opts), &IoStats::default())
        .unwrap_or_else(die_qserve)
}

/// Answer `reads` in `batch`-sized chunks with `answer`: one TSV row per
/// read, `name  contig  offset  strand  mismatches` (`*` columns for
/// unmapped reads), and the seconds the chunks took.
fn answer_batches(
    reads: &[(String, PackedSeq)],
    batch: usize,
    mut answer: impl FnMut(Vec<PackedSeq>) -> Vec<Option<Hit>>,
) -> (Vec<String>, f64) {
    let start = Instant::now();
    let mut rows = Vec::with_capacity(reads.len());
    for window in reads.chunks(batch) {
        let hits = answer(window.iter().map(|(_, s)| s.clone()).collect());
        for ((name, _), hit) in window.iter().zip(hits) {
            rows.push(match hit {
                Some(h) => format!(
                    "{name}\t{}\t{}\t{}\t{}",
                    h.contig,
                    h.offset,
                    if h.reverse { '-' } else { '+' },
                    h.mismatches
                ),
                None => format!("{name}\t*\t*\t*\t*"),
            });
        }
    }
    (rows, start.elapsed().as_secs_f64())
}

/// Answer a file of reads against an indexed assembly: in-process with
/// `--work`, over TCP against a `serve` process with `--connect` (through
/// the retry/backoff client), or with `--router` across a sharded,
/// replicated cluster through the scatter-gather router, which hedges
/// slow shards and fails over dead replicas while producing answers
/// byte-identical to a single-node server's (see SERVING.md, "Cluster
/// serving"). Sheds, drains, exhausted retries and a shard with no live
/// replica (`ShardUnavailable`) exit 6.
fn query(opts: &Opts) {
    use lasagna_repro::qrouter::ClusterManifest;

    let reads = read_records(Path::new(&require(opts, "reads")));
    let batch = get(opts, "batch", 1024usize).max(1);
    // Each arm names where the batches went and how its summary ends.
    let (via, tail, (rows, elapsed)) = if let Some(connect) = opts.get("connect") {
        let mut client = client(opts, "cli");
        let answered = answer_batches(&reads, batch, |seqs| {
            client.query_batch(&seqs).unwrap_or_else(die_qnet)
        });
        let tail = format!("; {} retries", client.retries_total());
        (format!(" via {connect}"), tail, answered)
    } else if let Some(manifest_path) = opts.get("router") {
        let manifest = ClusterManifest::load(Path::new(manifest_path)).unwrap_or_else(die_qrouter);
        let router = Router::new(
            manifest,
            RouterConfig {
                client: client_config(opts, "cli"),
                query: query_config(opts),
                hedge_max_ms: get(opts, "hedge-max-ms", 200u64),
                failover_rounds: get(opts, "failover-rounds", 3u32),
                ..RouterConfig::default()
            },
            Faults::disabled(),
            &obs::Recorder::disabled(),
        )
        .unwrap_or_else(die_qrouter);
        for (addr, healthy) in router.probe_health() {
            if !healthy {
                eprintln!(
                    "lasagna: replica {addr} unhealthy; deprioritized in the fail-over ladder"
                );
            }
        }
        let answered = answer_batches(&reads, batch, |seqs| {
            router.route(&seqs).unwrap_or_else(die_qrouter)
        });
        let n_shards = router.manifest().n_shards;
        let via = format!(" across {n_shards} shards via {manifest_path}");
        (via, String::new(), answered)
    } else {
        let work = PathBuf::from(require(opts, "work"));
        let (engine, generation) = open_served(opts, &work);
        let rec = obs::Recorder::new();
        let svc =
            QueryService::start_with_generation(engine, generation, service_config(opts, 4), &rec);
        let answered = answer_batches(&reads, batch, |seqs| {
            svc.query_batch(seqs).unwrap_or_else(die_qserve)
        });
        (String::new(), String::new(), answered)
    };

    let mapped = rows.iter().filter(|r| !r.ends_with("\t*")).count();
    println!(
        "queried {} reads{via} in {elapsed:.3}s ({:.0} reads/s): \
         {mapped} mapped, {} unmapped{tail}",
        rows.len(),
        rows.len() as f64 / elapsed.max(1e-9),
        rows.len() - mapped
    );
    if let Some(out) = opts.get("out") {
        let mut tsv = rows.join("\n");
        tsv.push('\n');
        std::fs::write(out, tsv).unwrap_or_else(die);
        println!("hits written to {out}");
    }
}

/// Server settings from the flags `serve` takes. `serve-cluster` takes
/// only the timeouts, so its servers keep the other defaults.
fn server_config(opts: &Opts, reload: ReloadConfig) -> ServerConfig {
    ServerConfig {
        addr: get(opts, "addr", "127.0.0.1:0".to_string()),
        read_timeout: Duration::from_millis(get(opts, "read-timeout-ms", 30_000u64)),
        write_timeout: Duration::from_millis(get(opts, "write-timeout-ms", 10_000u64)),
        drain_deadline: Duration::from_millis(get(opts, "drain-deadline-ms", 5_000u64)),
        admission: AdmissionConfig {
            refill_per_s: get(opts, "refill-per-s", 50_000.0f64),
            burst: get(opts, "burst", 20_000.0f64),
        },
        reload: Some(reload),
        ..ServerConfig::default()
    }
}

/// Serve the work dir's active generation over TCP until a `shutdown`
/// command (or SIGKILL) arrives, then drain gracefully. Prints
/// `listening HOST:PORT` once the socket is bound so scripts can
/// discover an `--addr :0` port. `reload` swaps it to another generation
/// of the same work dir.
fn serve(opts: &Opts) {
    let work = PathBuf::from(require(opts, "work"));
    let (engine, generation) = open_served(opts, &work);

    // Without a trace file the recorder runs sink-only: events still
    // feed the server's live telemetry (the `Stats` command) but are
    // not buffered in memory, so an always-on server stays bounded.
    let rec = if opts.contains_key("trace-out") {
        obs::Recorder::new()
    } else {
        obs::Recorder::sink_only()
    };
    let rec = trace_recorder(opts, rec);
    let faults = match opts.get("faults") {
        Some(spec) => {
            let plan = FaultPlan::parse(spec).unwrap_or_else(|e| {
                eprintln!("lasagna: bad --faults: {e}");
                exit(2)
            });
            let f = Faults::from_plan(&plan);
            f.set_recorder(rec.clone());
            f
        }
        None => Faults::disabled(),
    };

    let svc =
        QueryService::start_with_generation(engine, generation, service_config(opts, 4), &rec);
    let reload = ReloadConfig {
        work_dir: work,
        shard: None,
    };
    let mut server =
        Server::start(svc, server_config(opts, reload), &rec, faults).unwrap_or_else(|e| {
            eprintln!("lasagna: cannot bind: {e}");
            exit(EXIT_IO)
        });

    println!("listening {}", server.local_addr());
    flush_stdout();

    server.wait_shutdown_requested(None);
    println!("shutdown requested; draining");
    let report = server.shutdown();
    flush_trace(opts, &rec);
    println!(
        "drained: {} in-flight at drain start, {}",
        report.inflight_at_start,
        if report.completed {
            "all completed"
        } else {
            "drain deadline forced stragglers closed"
        }
    );
}

/// Serve the work dir's active generation as a sharded, replicated
/// in-process cluster: `--shards` × `--replicas` qnet servers, each
/// holding the full contig store but only its shard's slice of the
/// minimizer postings (`MinimizerIndex::build_shard`). Prints one
/// `listening shard S replica R HOST:PORT` line per server, writes the
/// cluster manifest (default `--work/cluster.json`) for
/// `query --router`, and drains the whole cluster when any replica
/// receives a `shutdown` command. Each replica reloads from the same
/// work dir, so `Router::rollout` can roll the cluster to another
/// generation.
fn serve_cluster(opts: &Opts) {
    use lasagna_repro::qrouter::ClusterManifest;

    let work = PathBuf::from(require(opts, "work"));
    let n_shards: u32 = get(opts, "shards", 0u32);
    if n_shards == 0 {
        eprintln!("lasagna: serve-cluster needs --shards N (N >= 1)");
        exit(2);
    }
    let replicas: u32 = get(opts, "replicas", 2u32).max(1);
    let manifest_path = PathBuf::from(get(
        opts,
        "manifest",
        work.join("cluster.json").to_string_lossy().into_owned(),
    ));
    let (served, generation) = open_served(opts, &work);
    let store = served.store();
    let icfg = index_config(opts);

    let mut manifest = ClusterManifest::new(n_shards, store.checksum());
    manifest.generation = generation;
    let mut servers = Vec::new();
    let rec = obs::Recorder::sink_only();
    for shard in 0..n_shards {
        // One shard index build, shared by every replica of the shard.
        let index = MinimizerIndex::build_shard(store, &icfg, shard, n_shards);
        for replica in 0..replicas {
            let replica_store = ContigStore::from_contigs(store.contigs().to_vec());
            let engine = QueryEngine::new(replica_store, index.clone(), query_config(opts))
                .unwrap_or_else(die_qserve);
            let svc = QueryService::start_with_generation(
                engine,
                generation,
                service_config(opts, 2),
                &rec,
            );
            let reload = ReloadConfig {
                work_dir: work.clone(),
                shard: Some((shard, n_shards, icfg)),
            };
            let server = Server::start(svc, server_config(opts, reload), &rec, Faults::disabled())
                .unwrap_or_else(|e| {
                    eprintln!("lasagna: cannot bind shard {shard} replica {replica}: {e}");
                    exit(EXIT_IO)
                });
            let addr = server.local_addr().to_string();
            println!("listening shard {shard} replica {replica} {addr}");
            manifest.add_replica(shard, addr);
            servers.push(server);
        }
    }
    // Replicas hold their own store and shard index; the full index
    // opened with the store is not served.
    drop(served);
    manifest.save(&manifest_path).unwrap_or_else(die_qrouter);
    println!(
        "cluster manifest ({} shards x {} replicas) written to {}",
        n_shards,
        replicas,
        manifest_path.display()
    );
    flush_stdout();

    // A `shutdown` sent to any replica drains the whole cluster.
    'watch: loop {
        for server in &servers {
            if server.wait_shutdown_requested(Some(Duration::from_millis(200))) {
                break 'watch;
            }
        }
    }
    println!("shutdown requested; draining the cluster");
    let mut forced = 0usize;
    for server in &mut servers {
        if !server.shutdown().completed {
            forced += 1;
        }
    }
    println!(
        "cluster drained: {} servers{}",
        servers.len(),
        if forced > 0 {
            format!(" ({forced} hit the drain deadline)")
        } else {
            String::new()
        }
    );
}

/// List a work directory's store/index generations: id, store checksum,
/// files, and which one is active. The active generation is what `serve`
/// boots (and what `reload --generation 0` targets).
fn generations(opts: &Opts) {
    let work = PathBuf::from(require(opts, "work"));
    if !GenManifest::exists(&work) {
        eprintln!(
            "lasagna: no {GEN_MANIFEST_FILE} under {} (run index first)",
            work.display()
        );
        exit(1);
    }
    let manifest = GenManifest::load(&work, &IoStats::default()).unwrap_or_else(|e| {
        eprintln!("lasagna: {e}");
        exit(EXIT_CORRUPT)
    });
    println!("{:<8} {:>17}  files", "gen", "checksum");
    for g in &manifest.generations {
        println!(
            "{:<8} {:>17}  {} + {}",
            format!("{}{}", g.id, if g.id == manifest.active { "*" } else { "" }),
            format!("{:016x}", g.store_checksum),
            g.store,
            g.index,
        );
    }
    println!("active: generation {} (*)", manifest.active);
}

/// Ask a live `serve` process to hot-swap its store/index generation
/// without dropping a connection or a query. `--generation 0` (the
/// default) targets whatever the work dir's manifest marks active; any
/// other value targets that generation explicitly. The server answers
/// only after the swap is complete — on failure it rolls back loudly
/// and the old generation keeps serving.
fn reload(opts: &Opts) {
    let generation: u64 = get(opts, "generation", 0u64);
    let active = client(opts, "reload")
        .reload(generation)
        .unwrap_or_else(die_qnet);
    println!("reload complete; now serving generation {active}");
}

/// Ask a `serve` process to drain gracefully and stop.
fn shutdown(opts: &Opts) {
    let connect = require(opts, "connect");
    client(opts, "shutdown")
        .request_shutdown()
        .unwrap_or_else(die_qnet);
    println!("shutdown acknowledged by {connect}; server is draining");
}

fn die<E: std::fmt::Display, T>(e: E) -> T {
    eprintln!("lasagna: {e}");
    exit(1)
}

/// Exit codes for assembly failures, so scripts can react to *why* a run
/// died (see ROBUSTNESS.md): 3 = corrupt on-disk state (bit flips, torn
/// spill files, manifest mismatch), 4 = out of memory (device or host
/// budget), 5 = I/O failure, 1 = anything else, 2 = usage.
const EXIT_CORRUPT: i32 = 3;
const EXIT_OOM: i32 = 4;
const EXIT_IO: i32 = 5;
/// The query service shed the batch — the queue plus the arriving chunks
/// exceed the admission limit, the per-client fairness bucket is empty,
/// the server is draining, or the network client exhausted its retry
/// budget. Nothing was processed; resubmit later (the server's
/// `retry_after_ms` hint says when).
const EXIT_OVERLOADED: i32 = 6;
// Exit code 7 is unused: it is retired and never reissued.

fn stream_exit_code(e: &lasagna_repro::gstream::StreamError) -> i32 {
    use lasagna_repro::gstream::StreamError;
    match e {
        StreamError::Corrupt(_) => EXIT_CORRUPT,
        StreamError::HostMem(_) => EXIT_OOM,
        StreamError::Device(d) => device_exit_code(d),
        StreamError::Io(_) => EXIT_IO,
        _ => 1,
    }
}

fn device_exit_code(e: &lasagna_repro::vgpu::DeviceError) -> i32 {
    match e {
        lasagna_repro::vgpu::DeviceError::OutOfMemory { .. } => EXIT_OOM,
        _ => 1,
    }
}

fn run_exit_code(e: &lasagna_repro::lasagna::LasagnaError) -> i32 {
    use lasagna_repro::lasagna::LasagnaError;
    match e {
        LasagnaError::Stream(s) => stream_exit_code(s),
        LasagnaError::Device(d) => device_exit_code(d),
        _ => 1,
    }
}

fn die_run<T>(e: lasagna_repro::lasagna::LasagnaError) -> T {
    eprintln!("lasagna: {e}");
    exit(run_exit_code(&e))
}

fn die_stream<T>(e: lasagna_repro::gstream::StreamError) -> T {
    eprintln!("lasagna: {e}");
    exit(stream_exit_code(&e))
}

fn die_qserve<T>(e: lasagna_repro::qserve::QserveError) -> T {
    use lasagna_repro::qserve::{GenError, QserveError};
    eprintln!("lasagna: {e}");
    exit(match &e {
        QserveError::Stream(s) => stream_exit_code(s),
        QserveError::Overloaded { .. } => EXIT_OVERLOADED,
        // Generation failures roll back server-side; the exit code says
        // why the target would not land: corrupt binding, unreadable
        // files, or an id the manifest never listed (operator error).
        QserveError::Generation(g) => match g {
            GenError::ChecksumMismatch { .. } => EXIT_CORRUPT,
            GenError::Load { .. } | GenError::Manifest(_) => EXIT_IO,
            GenError::MissingGeneration { .. } => 1,
        },
    })
}

fn qnet_exit_code(e: &QnetError) -> i32 {
    match e {
        QnetError::Corrupt { .. } => EXIT_CORRUPT,
        QnetError::Io(_) => EXIT_IO,
        QnetError::Overloaded { .. } | QnetError::Draining | QnetError::RetriesExhausted { .. } => {
            EXIT_OVERLOADED
        }
        // A failed reload rolled back server-side; the old generation
        // is still serving, so this is an operator retry, not an outage.
        QnetError::ReloadFailed { .. } => 1,
        QnetError::DeadlineExceeded { .. } | QnetError::Remote(_) => 1,
    }
}

fn die_qnet<T>(e: QnetError) -> T {
    eprintln!("lasagna: {e}");
    exit(qnet_exit_code(&e))
}

/// Router failures map onto the same ladder: a dead shard is
/// "unavailable, resubmit later" (6), a terminal network error keeps
/// qnet's mapping of the attempt that ended it, and a bad manifest is
/// an input error (1).
fn die_qrouter<T>(e: lasagna_repro::qrouter::RouterError) -> T {
    use lasagna_repro::qrouter::RouterError;
    eprintln!("lasagna: {e}");
    exit(match &e {
        RouterError::Net { source, .. } => qnet_exit_code(source.last_attempt()),
        // Skew means the merge was refused to protect the answer; a
        // failed rollout left the pin (and service) on the old
        // generation. Both are resubmit/retry conditions.
        RouterError::ShardUnavailable { .. }
        | RouterError::GenerationSkew { .. }
        | RouterError::RolloutFailed { .. } => EXIT_OVERLOADED,
        RouterError::Manifest(_) => 1,
    })
}

/// A rank's typed error maps as the single-node assembler's does; the
/// master's own conditions (a panicked rank, no survivors, a broken graph)
/// are plain errors.
fn dnet_exit_code(e: &lasagna_repro::dnet::DnetError) -> i32 {
    use lasagna_repro::dnet::DnetError;
    match e {
        DnetError::BadConfig(_) => 2,
        DnetError::Node { source, .. } => run_exit_code(source),
        _ => 1,
    }
}

fn die_dnet<T>(e: lasagna_repro::dnet::DnetError) -> T {
    eprintln!("lasagna: {e}");
    exit(dnet_exit_code(&e))
}
