//! `lasagna-cli` — command-line interface to the assembler.
//!
//! ```text
//! lasagna-cli simulate --genome-len 100000 --coverage 20 --read-len 100 \
//!                  --out reads.fastq [--reference ref.fa] [--seed 7] [--error-rate 0.0]
//!
//! lasagna-cli assemble --reads reads.fastq --out contigs.fa \
//!                  [--l-min 63] [--work /tmp/lasagna-work] \
//!                  [--host-mem 256M] [--device-mem 64M] [--gpu k40] \
//!                  [--graph greedy|full] [--traversal seq|bsp] [--correct 21] [--resume yes] \
//!                  [--trace-out trace.jsonl] [--metrics-json report.json] [--progress yes]
//!
//! lasagna-cli assemble-distributed --reads reads.fastq --out contigs.fa \
//!                  [--nodes 2] [--reduce token|range] [--block-reads 1024] \
//!                  [--l-min 63] [--work /tmp/lasagna-dwork] \
//!                  [--host-mem 256M] [--device-mem 64M] [--gpu k20x] [--resume yes] \
//!                  [--trace-out trace.jsonl] [--metrics-json report.json]
//!
//! lasagna-cli inspect-trace --trace trace.jsonl [--root assembly]
//!
//! lasagna-cli stats --contigs contigs.fa [--reference ref.fa]
//!
//! lasagna-cli stats --connect HOST:PORT [--format json|tsv]
//!
//! lasagna-cli top --connect HOST:PORT [--interval-ms 1000] [--iterations 0]
//!
//! lasagna-cli index --work /tmp/lasagna-work [--contigs contigs.fa] \
//!                  [--k 15] [--w 8] [--threads 0]
//!
//! lasagna-cli query --work /tmp/lasagna-work --reads queries.fastq \
//!                  [--out hits.tsv] [--batch 1024] [--workers 4] \
//!                  [--max-mismatches 2] [--max-queue 64]
//!
//! lasagna-cli query --connect HOST:PORT --reads queries.fastq \
//!                  [--out hits.tsv] [--batch 1024] [--client-id NAME] \
//!                  [--deadline-ms 10000] [--retries 4] [--auth-secret S]
//!
//! lasagna-cli query --router cluster.json --reads queries.fastq \
//!                  [--out hits.tsv] [--batch 1024] [--client-id NAME] \
//!                  [--deadline-ms 10000] [--hedge-max-ms 200] \
//!                  [--failover-rounds 3] [--auth-secret S]
//!
//! lasagna-cli serve --work /tmp/lasagna-work [--addr 127.0.0.1:0] \
//!                  [--workers 4] [--max-mismatches 2] [--max-queue 64] \
//!                  [--refill-per-s 50000] [--burst 20000] \
//!                  [--read-timeout-ms 30000] [--drain-deadline-ms 5000] \
//!                  [--faults SPEC] [--trace-out trace.jsonl] [--auth-secret S]
//!
//! lasagna-cli serve-cluster --work /tmp/lasagna-work --shards 2 [--replicas 2] \
//!                  [--manifest cluster.json] [--workers 2] \
//!                  [--max-mismatches 2] [--max-queue 64] [--k 15] [--w 8] \
//!                  [--auth-secret S]
//!
//! lasagna-cli shutdown --connect HOST:PORT
//! ```
//!
//! `index` builds the minimizer index over the contig store the assembly
//! left in `--work` (or over `--contigs`, importing them into a fresh
//! store first); `query` serves batched read lookups against it, either
//! in-process (`--work`) or over TCP against a `serve` process
//! (`--connect`). `serve` binds the hardened network front-end (qnet) on
//! the indexed store and prints `listening HOST:PORT` once ready;
//! `generations` lists a work dir's store/index generations, `reload`
//! hot-swaps a live serve process to one without dropping a connection
//! or a query, and `shutdown` asks a serve process to drain gracefully.
//! See SERVING.md for formats, semantics, and tuning.

use lasagna_repro::genome::fastq::{read_fasta, read_fastq, write_fasta, write_fastq};
use lasagna_repro::genome::sim::is_substring_either_strand;
use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        usage();
    };
    let opts = parse_opts(args.collect());
    match command.as_str() {
        "simulate" => simulate(&opts),
        "assemble" => assemble(&opts),
        "assemble-distributed" => assemble_distributed(&opts),
        "inspect-trace" => inspect_trace(&opts),
        "stats" => stats(&opts),
        "top" => top(&opts),
        "index" => index(&opts),
        "query" => query(&opts),
        "serve" => serve(&opts),
        "serve-cluster" => serve_cluster(&opts),
        "generations" => generations(&opts),
        "reload" => reload(&opts),
        "shutdown" => shutdown(&opts),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("lasagna: unknown command {other:?}");
            usage();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  lasagna simulate --genome-len N --coverage C --read-len L --out reads.fastq \
         [--reference ref.fa] [--seed S] [--error-rate E] [--repeat-fraction F]\n  \
         lasagna assemble --reads reads.fastq --out contigs.fa [--l-min N] [--work DIR] \
         [--host-mem BYTES] [--device-mem BYTES] [--gpu k40|k20x|p40|p100|v100] \
         [--resume yes] \
         [--trace-out trace.jsonl] [--metrics-json report.json] [--progress yes]\n  \
         lasagna assemble-distributed --reads reads.fastq --out contigs.fa [--nodes N] \
         [--reduce token|range] [--block-reads N] [--l-min N] [--work DIR] \
         [--host-mem BYTES] [--device-mem BYTES] [--gpu k40|k20x|p40|p100|v100] \
         [--resume yes] [--trace-out trace.jsonl] [--metrics-json report.json]\n  \
         lasagna inspect-trace --trace trace.jsonl [--root assembly]\n  \
         lasagna stats --contigs contigs.fa [--reference ref.fa]\n  \
         lasagna stats --connect HOST:PORT [--format json|tsv]\n  \
         lasagna top --connect HOST:PORT [--interval-ms 1000] [--iterations 0]\n  \
         lasagna index --work DIR [--contigs contigs.fa] [--k 15] [--w 8] [--threads 0]\n  \
         lasagna query --work DIR --reads queries.fastq [--out hits.tsv] [--batch 1024] \
         [--workers 4] [--max-mismatches 2] [--max-queue 64]\n  \
         lasagna query --connect HOST:PORT --reads queries.fastq [--out hits.tsv] \
         [--batch 1024] [--client-id NAME] [--deadline-ms 10000] [--retries 4] \
         [--auth-secret S]\n  \
         lasagna query --router cluster.json --reads queries.fastq [--out hits.tsv] \
         [--batch 1024] [--client-id NAME] [--deadline-ms 10000] [--hedge-max-ms 200] \
         [--failover-rounds 3] [--auth-secret S]\n  \
         lasagna serve --work DIR [--addr 127.0.0.1:0] [--workers 4] \
         [--max-mismatches 2] [--max-queue 64] [--refill-per-s 50000] [--burst 20000] \
         [--read-timeout-ms 30000] [--drain-deadline-ms 5000] [--faults SPEC] \
         [--trace-out trace.jsonl] [--auth-secret S]\n  \
         lasagna serve-cluster --work DIR --shards N [--replicas R] [--manifest FILE] \
         [--workers 2] [--max-mismatches 2] [--max-queue 64] \
         [--k 15] [--w 8] [--auth-secret S]\n  \
         lasagna generations --work DIR\n  \
         lasagna reload --connect HOST:PORT [--generation N]\n  \
         lasagna shutdown --connect HOST:PORT\n\
         \nassemble resumes from --work's manifest.json when --resume yes; \
         assemble-distributed resumes from --work's superstep.log plus the \
         per-node manifests (see ROBUSTNESS.md).\nindex/query/serve answer reads \
         against the assembled contigs (see SERVING.md).\nexit codes: 0 ok, 1 error, \
         2 usage, 3 corrupt on-disk state, 4 out of memory, 5 I/O failure, \
         6 overloaded (queued + arriving work exceeds the admission limit, the \
         per-client fairness bucket is empty, the server is draining, or the \
         client's retry budget ran out; resubmit later), \
         7 auth rejected (wrong --auth-secret; terminal, do not retry)"
    );
    exit(2);
}

fn parse_opts(argv: Vec<String>) -> HashMap<String, String> {
    let mut opts = HashMap::new();
    let mut iter = argv.into_iter();
    while let Some(key) = iter.next() {
        let Some(key) = key.strip_prefix("--") else {
            eprintln!("lasagna: expected --option, got {key:?}");
            exit(2);
        };
        let Some(value) = iter.next() else {
            eprintln!("lasagna: --{key} needs a value");
            exit(2);
        };
        opts.insert(key.to_string(), value);
    }
    opts
}

fn get<T: std::str::FromStr>(opts: &HashMap<String, String>, key: &str, default: T) -> T {
    match opts.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("lasagna: bad value for --{key}: {v:?}");
            exit(2)
        }),
        None => default,
    }
}

fn require(opts: &HashMap<String, String>, key: &str) -> String {
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

fn simulate(opts: &HashMap<String, String>) {
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

/// Load reads (FASTQ or FASTA by extension) into a uniform-length set,
/// warning about (and skipping) reads of a different length.
fn load_reads(reads_path: &Path) -> ReadSet {
    let records = if reads_path
        .extension()
        .is_some_and(|e| e == "fa" || e == "fasta")
    {
        read_fasta(reads_path).unwrap_or_else(die)
    } else {
        read_fastq(reads_path).unwrap_or_else(die)
    };
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

fn assemble(opts: &HashMap<String, String>) {
    let reads_path = PathBuf::from(require(opts, "reads"));
    let out = PathBuf::from(require(opts, "out"));
    let work = PathBuf::from(get(
        opts,
        "work",
        std::env::temp_dir()
            .join("lasagna-cli-work")
            .to_string_lossy()
            .into_owned(),
    ));
    let host_mem = parse_mem(&get(opts, "host-mem", "256M".to_string()));
    let device_mem = parse_mem(&get(opts, "device-mem", "64M".to_string()));
    let gpu = match get(opts, "gpu", "k40".to_string()).as_str() {
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

    let mut reads = load_reads(&reads_path);
    let read_len = reads.read_len();
    // Optional spectral error correction (the SGA pipeline's first stage).
    let correct_k: usize = get(opts, "correct", 0usize);
    if correct_k > 0 {
        let corrector0 = ErrorCorrector {
            k: correct_k,
            min_count: 2,
            max_fixes_per_read: 4,
        };
        let spectrum = corrector0.train(&reads);
        let corrector = ErrorCorrector {
            min_count: spectrum.suggest_threshold(),
            ..corrector0
        };
        let (fixed, stats) = corrector.correct(&spectrum, &reads);
        println!(
            "error correction (k={correct_k}, threshold {}): {} clean, {} repaired ({} substitutions), {} uncorrectable",
            corrector.min_count, stats.already_clean, stats.corrected, stats.substitutions, stats.uncorrectable
        );
        reads = fixed;
    }

    let default_l_min = (read_len as u32 * 5 / 8).max(1); // SGA-style ~0.63·L
    let l_min: u32 = get(opts, "l-min", default_l_min);
    println!(
        "assembling {} reads × {} bp (l_min {}) on a virtual {} ({} device, {} host)",
        reads.len(),
        read_len,
        l_min,
        gpu.name,
        device_mem,
        host_mem
    );

    std::fs::create_dir_all(&work).unwrap_or_else(|e| {
        eprintln!("lasagna: cannot create workdir: {e}");
        exit(EXIT_IO)
    });
    let mut config = AssemblyConfig::for_dataset(l_min, read_len as u32);
    let traversal = get(opts, "traversal", "seq".to_string());
    config.bsp_traversal = match traversal.as_str() {
        "seq" => false,
        "bsp" => true,
        other => {
            eprintln!("lasagna: unknown traversal {other:?} (seq|bsp)");
            exit(2);
        }
    };
    let graph_mode = get(opts, "graph", "greedy".to_string());
    let device = Device::with_capacity(gpu, device_mem);
    let host = HostMem::new(host_mem);
    let spill = SpillDir::create(&work, IoStats::default()).unwrap_or_else(die_stream);

    let trace_out = opts.get("trace-out").map(PathBuf::from);
    let metrics_json = opts.get("metrics-json").map(PathBuf::from);
    let progress = get(opts, "progress", "no".to_string()) == "yes";

    let (contigs, summary) = match graph_mode.as_str() {
        "greedy" => {
            let resume = get(opts, "resume", "no".to_string()) == "yes";
            let rec = obs::Recorder::new();
            if let Some(path) = &trace_out {
                let sink = obs::JsonlSink::create(path).unwrap_or_else(die);
                rec.add_sink(Box::new(sink));
            }
            if progress {
                rec.add_sink(Box::new(obs::ProgressSink::new(2)));
            }
            let pipeline = Pipeline::new(device, host, spill, config)
                .unwrap_or_else(die_run)
                .with_recorder(rec.clone());
            let result = if resume {
                pipeline.assemble_resumable(&reads).unwrap_or_else(die_run)
            } else {
                pipeline.assemble(&reads).unwrap_or_else(die_run)
            };
            rec.flush();
            if let Some(path) = &trace_out {
                println!("trace written to {}", path.display());
            }
            if let Some(path) = &metrics_json {
                let json = stdx::json::to_string_pretty(&result.report);
                std::fs::write(path, json).unwrap_or_else(die);
                println!("metrics written to {}", path.display());
            }
            let s = &result.report.contig_stats;
            println!(
                "greedy graph: {} edges | contigs: {} ({} multi-read), {} bases, N50 {}, max {}",
                result.report.graph_edges, s.count, s.multi_read, s.total_bases, s.n50, s.max_len
            );
            for p in &result.report.phases {
                println!("  {:<9} {:>8.3}s wall", p.phase, p.wall_seconds);
            }
            (result.contigs, format!("N50 {}", s.n50))
        }
        "full" => {
            if trace_out.is_some() || metrics_json.is_some() {
                eprintln!("lasagna: --trace-out/--metrics-json require --graph greedy");
            }
            // The Myers-style full string graph with transitive reduction:
            // conservative at repeats (stops at branches).
            let (graph, paths) = lasagna_repro::lasagna::fullgraph::assemble_full(
                &device, &host, &spill, &config, &reads,
            )
            .unwrap_or_else(die_run);
            let (contigs, stats) =
                lasagna_repro::lasagna::contig::generate_contigs(&device, &host, &reads, &paths)
                    .unwrap_or_else(die_run);
            println!(
                "full graph: {} edges after reduction | contigs: {}, {} bases, N50 {}, max {}",
                graph.edge_count(),
                stats.count,
                stats.total_bases,
                stats.n50,
                stats.max_len
            );
            (contigs, format!("N50 {}", stats.n50))
        }
        other => {
            eprintln!("lasagna: unknown graph mode {other:?} (greedy|full)");
            exit(2);
        }
    };

    let named: Vec<(String, &PackedSeq)> = contigs
        .iter()
        .enumerate()
        .map(|(i, c)| (format!("contig_{i} len={}", c.len()), c))
        .collect();
    write_fasta(&out, named.iter().map(|(n, c)| (n.as_str(), *c))).unwrap_or_else(die);
    println!("contigs written to {} ({summary})", out.display());
}

/// Distributed assembly on the simulated cluster (Section III-E): master
/// load balancing, all-to-all shuffle, per-node sorting, and the
/// token-passing (or fingerprint-range) reduce. `--resume yes` picks up
/// from `--work`'s superstep log and per-node manifests, skipping
/// supersteps whose artifacts are durable and validated.
fn assemble_distributed(opts: &HashMap<String, String>) {
    use lasagna_repro::dnet::ReduceStrategy;
    use lasagna_repro::lasagna::contig::generate_contigs;
    use lasagna_repro::lasagna::traverse::{extract_paths, TraverseOptions};

    let reads_path = PathBuf::from(require(opts, "reads"));
    let out = PathBuf::from(require(opts, "out"));
    let work = PathBuf::from(get(
        opts,
        "work",
        std::env::temp_dir()
            .join("lasagna-cli-dwork")
            .to_string_lossy()
            .into_owned(),
    ));
    let nodes: usize = get(opts, "nodes", 2);
    let block_reads: usize = get(opts, "block-reads", 1024);
    let host_mem = parse_mem(&get(opts, "host-mem", "256M".to_string()));
    let device_mem = parse_mem(&get(opts, "device-mem", "64M".to_string()));
    let gpu = match get(opts, "gpu", "k20x".to_string()).as_str() {
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
    let reduce_strategy = match get(opts, "reduce", "token".to_string()).as_str() {
        "token" => ReduceStrategy::LengthToken,
        "range" => ReduceStrategy::FingerprintRange,
        other => {
            eprintln!("lasagna: unknown reduce strategy {other:?} (token|range)");
            exit(2);
        }
    };

    let reads = load_reads(&reads_path);
    let read_len = reads.read_len();
    let default_l_min = (read_len as u32 * 5 / 8).max(1);
    let l_min: u32 = get(opts, "l-min", default_l_min);
    println!(
        "assembling {} reads × {} bp (l_min {}) on {} virtual {} nodes ({} reduce)",
        reads.len(),
        read_len,
        l_min,
        nodes,
        gpu.name,
        match reduce_strategy {
            ReduceStrategy::LengthToken => "token",
            ReduceStrategy::FingerprintRange => "range",
        }
    );

    std::fs::create_dir_all(&work).unwrap_or_else(|e| {
        eprintln!("lasagna: cannot create workdir: {e}");
        exit(EXIT_IO)
    });
    let config = AssemblyConfig::for_dataset(l_min, read_len as u32);

    let rec = obs::Recorder::new();
    let trace_out = opts.get("trace-out").map(PathBuf::from);
    if let Some(path) = &trace_out {
        let sink = obs::JsonlSink::create(path).unwrap_or_else(die);
        rec.add_sink(Box::new(sink));
    }
    let cluster = Cluster::new(ClusterConfig {
        nodes,
        gpu: gpu.clone(),
        device_capacity: device_mem,
        host_capacity: host_mem,
        disk: DiskModel::cluster_scratch(),
        net: NetModel::infiniband_56g(),
        block_reads,
        assembly: config,
        reduce_strategy,
    })
    .unwrap_or_else(die_dnet)
    .with_recorder(rec.clone());

    let resume = get(opts, "resume", "no".to_string()) == "yes";
    let result = if resume {
        cluster.resume(&reads, &work)
    } else {
        cluster.assemble(&reads, &work)
    }
    .unwrap_or_else(die_dnet);
    rec.flush();
    if let Some(path) = &trace_out {
        println!("trace written to {}", path.display());
    }

    if result.report.resumed {
        println!(
            "resumed from {}'s superstep log (completed supersteps skipped)",
            work.display()
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
        println!(
            "  {:<9} {:>8.3}s wall {:>10.4}s modeled",
            p.name, p.wall_seconds, p.modeled_seconds
        );
    }
    if let Some(path) = opts.get("metrics-json").map(PathBuf::from) {
        let json = stdx::json::to_string_pretty(&result.report);
        std::fs::write(&path, json).unwrap_or_else(die);
        println!("metrics written to {}", path.display());
    }

    // Contigs from the merged graph, on one local device (traversal is a
    // single-node stage either way; the distributed win is upstream).
    let device = Device::with_capacity(gpu, device_mem);
    let host = HostMem::new(host_mem);
    let paths = extract_paths(&result.graph, read_len as u32, TraverseOptions::default());
    let (contigs, stats) = generate_contigs(&device, &host, &reads, &paths).unwrap_or_else(die_run);
    let named: Vec<(String, &PackedSeq)> = contigs
        .iter()
        .enumerate()
        .map(|(i, c)| (format!("contig_{i} len={}", c.len()), c))
        .collect();
    write_fasta(&out, named.iter().map(|(n, c)| (n.as_str(), *c))).unwrap_or_else(die);
    println!(
        "contigs written to {} ({} contigs, N50 {})",
        out.display(),
        stats.count,
        stats.n50
    );
}

/// Pretty-print a recorded JSONL trace: per-phase totals rolled up from
/// the events, plus per-partition rows under the sort and reduce phases.
fn inspect_trace(opts: &HashMap<String, String>) {
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
        println!(
            "  {:<18} {:>9.3}s {:>9.3}s {:>9.3}s {:>12} {:>12}",
            phase.name,
            phase.wall_seconds,
            dev,
            io,
            obs::human_bytes(agg.gauge("host.peak_bytes")),
            obs::human_bytes(agg.gauge("device.peak_bytes")),
        );
        for part in rollup.children(phase.id) {
            if part.name.starts_with("kernel:") {
                continue;
            }
            let p = rollup.subtree(part.id);
            let detail = match phase.name.as_str() {
                "sort" => format!(
                    "{} pairs, {} runs, {} merge passes, spilled {}",
                    p.counter("sort.pairs"),
                    p.counter("sort.initial_runs"),
                    p.counter("sort.merge_passes"),
                    obs::human_bytes(p.counter("sort.spill_bytes")),
                ),
                "reduce" => format!(
                    "{} candidates, {} accepted, {} rejected, {} window advances",
                    p.counter("reduce.candidates"),
                    p.counter("reduce.accepted"),
                    p.counter("reduce.rejected"),
                    p.counter("reduce.window_advances"),
                ),
                _ => String::new(),
            };
            println!(
                "    {:<16} {:>9.3}s  {detail}",
                part.name, part.wall_seconds
            );
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
    let shed_total = agg.counter("qnet.accepted")
        + agg.counter("qnet.rejected")
        + agg.counter("qnet.deadline_shed")
        + agg.counter("qnet.fairness_shed");
    if shed_total > 0 {
        println!(
            "  admission: {} accepted, {} rejected, {} deadline-shed, {} fairness-shed (reads)",
            agg.counter("qnet.accepted"),
            agg.counter("qnet.rejected"),
            agg.counter("qnet.deadline_shed"),
            agg.counter("qnet.fairness_shed")
        );
        let mut per_client: std::collections::BTreeMap<String, [u64; 4]> = Default::default();
        let mut stack = vec![root.id];
        while let Some(id) = stack.pop() {
            for child in rollup.children(id) {
                if let Some(client) = child.name.strip_prefix("client:") {
                    let c = rollup.subtree(child.id);
                    let row = per_client.entry(client.to_string()).or_default();
                    row[0] += c.counter("qnet.accepted");
                    row[1] += c.counter("qnet.rejected");
                    row[2] += c.counter("qnet.deadline_shed");
                    row[3] += c.counter("qnet.fairness_shed");
                }
                stack.push(child.id);
            }
        }
        for (client, [acc, rej, dl, fair]) in &per_client {
            println!("    {client}: {acc} accepted, {rej} rejected, {dl} deadline-shed, {fair} fairness-shed");
        }
    }
}

fn stats(opts: &HashMap<String, String>) {
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

fn stats_client(
    opts: &HashMap<String, String>,
    client_id: &str,
) -> lasagna_repro::qnet::QueryClient {
    use lasagna_repro::qnet::{ClientConfig, QueryClient};
    let connect = require(opts, "connect");
    let rec = obs::Recorder::disabled();
    QueryClient::new(
        ClientConfig {
            addr: connect,
            client_id: client_id.to_string(),
            ..ClientConfig::default()
        },
        &rec,
    )
}

/// The `--connect` arm of `stats`: one `Stats` round trip, printed as
/// pretty JSON (default) or flat TSV for shell pipelines.
fn stats_remote(opts: &HashMap<String, String>) {
    let mut client = stats_client(opts, "stats");
    let snap = client.stats().unwrap_or_else(die_qnet);
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
fn top(opts: &HashMap<String, String>) {
    let mut client = stats_client(opts, "top");
    let connect = require(opts, "connect");
    let interval = std::time::Duration::from_millis(get(opts, "interval-ms", 1_000u64));
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
        println!(
            "gates: {} accepted, {} rejected, {} deadline-shed, {} fairness-shed",
            snap.accepted, snap.rejected, snap.deadline_shed, snap.fairness_shed
        );
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
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        done += 1;
        if iterations > 0 && done >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
}

/// Build the minimizer index for an assembly's contig store.
///
/// The store is normally `--work/contigs.store`, written by `assemble`;
/// with `--contigs FILE` the FASTA is imported into a fresh store at that
/// path first (so any external assembly can be served).
fn index(opts: &HashMap<String, String>) {
    use lasagna_repro::qserve::{ContigStore, IndexConfig, MinimizerIndex, INDEX_FILE, STORE_FILE};

    let work = PathBuf::from(require(opts, "work"));
    let store_path = work.join(STORE_FILE);
    let index_path = work.join(INDEX_FILE);
    let io = IoStats::default();

    if let Some(contigs_path) = opts.get("contigs") {
        let contigs = read_fasta(&PathBuf::from(contigs_path)).unwrap_or_else(die);
        let seqs: Vec<PackedSeq> = contigs.into_iter().map(|(_, c)| c).collect();
        std::fs::create_dir_all(&work).unwrap_or_else(|e| {
            eprintln!("lasagna: cannot create workdir: {e}");
            exit(EXIT_IO)
        });
        ContigStore::write(&store_path, &seqs, &io).unwrap_or_else(die_stream);
        println!(
            "imported {} contigs from {contigs_path} into {}",
            seqs.len(),
            store_path.display()
        );
    }

    let store = ContigStore::open(&store_path, &io).unwrap_or_else(die_stream);
    let cfg = IndexConfig {
        k: get(opts, "k", 15usize),
        w: get(opts, "w", 8usize),
        threads: get(opts, "threads", 0usize),
    };
    let start = std::time::Instant::now();
    let idx = MinimizerIndex::build(&store, &cfg);
    idx.write(&index_path, &io).unwrap_or_else(die_stream);
    println!(
        "indexed {} contigs ({} bases): {} postings (k={}, w={}) in {:.3}s -> {}",
        store.len(),
        store.total_bases(),
        idx.postings_len(),
        idx.k(),
        idx.w(),
        start.elapsed().as_secs_f64(),
        index_path.display()
    );
}

/// Format one TSV row per read: `name  contig  offset  strand
/// mismatches` (`*` columns for unmapped reads).
fn hit_rows(
    window: &[(String, PackedSeq)],
    hits: Vec<Option<lasagna_repro::qserve::Hit>>,
    rows: &mut Vec<String>,
) {
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

fn load_query_reads(reads_path: &Path) -> Vec<(String, PackedSeq)> {
    if reads_path
        .extension()
        .is_some_and(|e| e == "fa" || e == "fasta")
    {
        read_fasta(reads_path).unwrap_or_else(die)
    } else {
        read_fastq(reads_path).unwrap_or_else(die)
    }
}

fn write_rows(out: Option<PathBuf>, rows: &[String]) {
    if let Some(out) = out {
        let mut tsv = rows.join("\n");
        tsv.push('\n');
        std::fs::write(&out, tsv).unwrap_or_else(die);
        println!("hits written to {}", out.display());
    }
}

/// Serve a batch of reads against an indexed assembly — in-process with
/// `--work`, or over TCP against a `serve` process with `--connect`.
fn query(opts: &HashMap<String, String>) {
    use lasagna_repro::qserve::{
        QueryConfig, QueryEngine, QueryService, ServiceConfig, INDEX_FILE, STORE_FILE,
    };

    if opts.contains_key("connect") {
        return query_remote(opts);
    }
    if opts.contains_key("router") {
        return query_router(opts);
    }

    let work = PathBuf::from(require(opts, "work"));
    let reads_path = PathBuf::from(require(opts, "reads"));
    let out = opts.get("out").map(PathBuf::from);
    let batch: usize = get(opts, "batch", 1024usize);
    let workers: usize = get(opts, "workers", 4usize);
    let io = IoStats::default();

    let reads = load_query_reads(&reads_path);

    let qcfg = QueryConfig {
        max_mismatches: get(opts, "max-mismatches", 2u32),
        ..QueryConfig::default()
    };
    let engine = QueryEngine::open(&work.join(STORE_FILE), &work.join(INDEX_FILE), &io, qcfg)
        .unwrap_or_else(die_qserve);
    let rec = obs::Recorder::new();
    let svc = QueryService::start(
        engine,
        ServiceConfig {
            workers,
            max_queue: get(opts, "max-queue", 64usize),
            ..ServiceConfig::default()
        },
        &rec,
    );

    let start = std::time::Instant::now();
    let mut rows = Vec::with_capacity(reads.len());
    for window in reads.chunks(batch.max(1)) {
        let seqs: Vec<PackedSeq> = window.iter().map(|(_, s)| s.clone()).collect();
        let hits = svc.query_batch(seqs).unwrap_or_else(die_qserve);
        hit_rows(window, hits, &mut rows);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mapped = rows.iter().filter(|r| !r.ends_with("\t*")).count();
    println!(
        "queried {} reads in {elapsed:.3}s ({:.0} reads/s): {mapped} mapped, {} unmapped",
        rows.len(),
        rows.len() as f64 / elapsed.max(1e-9),
        rows.len() - mapped
    );
    write_rows(out, &rows);
}

/// The `--connect` arm of `query`: batches go over TCP through the
/// retry/backoff client; sheds, drains, and exhausted retries exit 6.
fn query_remote(opts: &HashMap<String, String>) {
    use lasagna_repro::qnet::{ClientConfig, QueryClient};

    let connect = require(opts, "connect");
    let reads_path = PathBuf::from(require(opts, "reads"));
    let out = opts.get("out").map(PathBuf::from);
    let batch: usize = get(opts, "batch", 1024usize);
    let reads = load_query_reads(&reads_path);

    let rec = obs::Recorder::new();
    let mut client = QueryClient::new(
        ClientConfig {
            addr: connect.clone(),
            client_id: get(opts, "client-id", "cli".to_string()),
            deadline_ms: get(opts, "deadline-ms", 10_000u32),
            max_retries: get(opts, "retries", 4u32),
            auth_secret: opts.get("auth-secret").cloned(),
            ..ClientConfig::default()
        },
        &rec,
    );

    let start = std::time::Instant::now();
    let mut rows = Vec::with_capacity(reads.len());
    for window in reads.chunks(batch.max(1)) {
        let seqs: Vec<PackedSeq> = window.iter().map(|(_, s)| s.clone()).collect();
        let hits = client.query_batch(&seqs).unwrap_or_else(die_qnet);
        hit_rows(window, hits, &mut rows);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mapped = rows.iter().filter(|r| !r.ends_with("\t*")).count();
    println!(
        "queried {} reads via {connect} in {elapsed:.3}s ({:.0} reads/s): \
         {mapped} mapped, {} unmapped; {} retries",
        rows.len(),
        rows.len() as f64 / elapsed.max(1e-9),
        rows.len() - mapped,
        client.retries_total()
    );
    write_rows(out, &rows);
}

/// The `--router` arm of `query`: batches fan out over a sharded,
/// replicated cluster through the scatter-gather router, which hedges
/// slow shards and fails over dead replicas while producing answers
/// byte-identical to a single-node server's (see SERVING.md, "Cluster
/// serving"). A shard with no live replica exits 6 (`ShardUnavailable`);
/// auth rejections exit 7 naming the shard and peer.
fn query_router(opts: &HashMap<String, String>) {
    use lasagna_repro::qnet::ClientConfig;
    use lasagna_repro::qrouter::{ClusterManifest, Router, RouterConfig};
    use lasagna_repro::qserve::QueryConfig;

    let manifest_path = PathBuf::from(require(opts, "router"));
    let reads_path = PathBuf::from(require(opts, "reads"));
    let out = opts.get("out").map(PathBuf::from);
    let batch: usize = get(opts, "batch", 1024usize);
    let reads = load_query_reads(&reads_path);

    let manifest = ClusterManifest::load(&manifest_path).unwrap_or_else(die_qrouter);
    let rec = obs::Recorder::disabled();
    let router = Router::new(
        manifest,
        RouterConfig {
            client: ClientConfig {
                client_id: get(opts, "client-id", "cli".to_string()),
                deadline_ms: get(opts, "deadline-ms", 10_000u32),
                auth_secret: opts.get("auth-secret").cloned(),
                ..ClientConfig::default()
            },
            query: QueryConfig {
                max_mismatches: get(opts, "max-mismatches", 2u32),
                ..QueryConfig::default()
            },
            hedge_max_ms: get(opts, "hedge-max-ms", 200u64),
            failover_rounds: get(opts, "failover-rounds", 3u32),
            ..RouterConfig::default()
        },
        lasagna_repro::faultsim::Faults::disabled(),
        &rec,
    )
    .unwrap_or_else(die_qrouter);

    for (addr, healthy) in router.probe_health() {
        if !healthy {
            eprintln!("lasagna: replica {addr} unhealthy; deprioritized in the fail-over ladder");
        }
    }

    let start = std::time::Instant::now();
    let mut rows = Vec::with_capacity(reads.len());
    for window in reads.chunks(batch.max(1)) {
        let seqs: Vec<PackedSeq> = window.iter().map(|(_, s)| s.clone()).collect();
        let hits = router.route(&seqs).unwrap_or_else(die_qrouter);
        hit_rows(window, hits, &mut rows);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let mapped = rows.iter().filter(|r| !r.ends_with("\t*")).count();
    println!(
        "queried {} reads across {} shards via {} in {elapsed:.3}s ({:.0} reads/s): \
         {mapped} mapped, {} unmapped",
        rows.len(),
        router.manifest().n_shards,
        manifest_path.display(),
        rows.len() as f64 / elapsed.max(1e-9),
        rows.len() - mapped,
    );
    write_rows(out, &rows);
}

/// Serve an indexed assembly over TCP until a `shutdown` command (or
/// SIGKILL) arrives, then drain gracefully. Prints `listening HOST:PORT`
/// once the socket is bound so scripts can discover an `--addr :0` port.
fn serve(opts: &HashMap<String, String>) {
    use lasagna_repro::faultsim;
    use lasagna_repro::qnet::{Server, ServerConfig};
    use lasagna_repro::qserve::{
        AdmissionConfig, QueryConfig, QueryEngine, QueryService, ServiceConfig, INDEX_FILE,
        STORE_FILE,
    };
    use std::time::Duration;

    let work = PathBuf::from(require(opts, "work"));
    let io = IoStats::default();
    let qcfg = QueryConfig {
        max_mismatches: get(opts, "max-mismatches", 2u32),
        ..QueryConfig::default()
    };
    let engine = QueryEngine::open(&work.join(STORE_FILE), &work.join(INDEX_FILE), &io, qcfg)
        .unwrap_or_else(die_qserve);

    // Without a trace file the recorder runs sink-only: events still
    // feed the server's live telemetry (the `Stats` command) but are
    // not buffered in memory, so an always-on server stays bounded.
    let trace_out = opts.get("trace-out").map(PathBuf::from);
    let rec = match &trace_out {
        Some(_) => obs::Recorder::new(),
        None => obs::Recorder::sink_only(),
    };
    if let Some(path) = &trace_out {
        let sink = obs::JsonlSink::create(path).unwrap_or_else(die);
        rec.add_sink(Box::new(sink));
    }
    let faults = match opts.get("faults") {
        Some(spec) => {
            let plan = faultsim::FaultPlan::parse(spec).unwrap_or_else(|e| {
                eprintln!("lasagna: bad --faults: {e}");
                exit(2)
            });
            let f = faultsim::Faults::from_plan(&plan);
            f.set_recorder(rec.clone());
            f
        }
        None => faultsim::Faults::disabled(),
    };

    let svc = QueryService::start(
        engine,
        ServiceConfig {
            workers: get(opts, "workers", 4usize),
            max_queue: get(opts, "max-queue", 64usize),
            ..ServiceConfig::default()
        },
        &rec,
    );
    let mut server = Server::start(
        svc,
        ServerConfig {
            addr: get(opts, "addr", "127.0.0.1:0".to_string()),
            read_timeout: Duration::from_millis(get(opts, "read-timeout-ms", 30_000u64)),
            write_timeout: Duration::from_millis(get(opts, "write-timeout-ms", 10_000u64)),
            drain_deadline: Duration::from_millis(get(opts, "drain-deadline-ms", 5_000u64)),
            admission: AdmissionConfig {
                refill_per_s: get(opts, "refill-per-s", 50_000.0f64),
                burst: get(opts, "burst", 20_000.0f64),
            },
            auth_secret: opts.get("auth-secret").cloned(),
            ..ServerConfig::default()
        },
        &rec,
        faults,
    )
    .unwrap_or_else(|e| {
        eprintln!("lasagna: cannot bind: {e}");
        exit(EXIT_IO)
    });

    println!("listening {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    server.wait_shutdown_requested(None);
    println!("shutdown requested; draining");
    let report = server.shutdown();
    rec.flush();
    if let Some(path) = &trace_out {
        println!("trace written to {}", path.display());
    }
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

/// Serve an indexed assembly as a sharded, replicated in-process
/// cluster: `--shards` × `--replicas` qnet servers, each holding the
/// full contig store but only its shard's slice of the minimizer
/// postings (`MinimizerIndex::build_shard`). Prints one
/// `listening shard S replica R HOST:PORT` line per server, writes the
/// cluster manifest (default `--work/cluster.json`) for
/// `query --router`, and drains the whole cluster when any replica
/// receives a `shutdown` command.
fn serve_cluster(opts: &HashMap<String, String>) {
    use lasagna_repro::qnet::{Server, ServerConfig};
    use lasagna_repro::qrouter::ClusterManifest;
    use lasagna_repro::qserve::{
        ContigStore, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine, QueryService,
        ServiceConfig, STORE_FILE,
    };
    use std::time::Duration;

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
    let io = IoStats::default();
    let store = ContigStore::open(&work.join(STORE_FILE), &io).unwrap_or_else(die_stream);
    let icfg = IndexConfig {
        k: get(opts, "k", 15usize),
        w: get(opts, "w", 8usize),
        threads: get(opts, "threads", 0usize),
    };
    let qcfg = QueryConfig {
        max_mismatches: get(opts, "max-mismatches", 2u32),
        ..QueryConfig::default()
    };

    let mut manifest = ClusterManifest::new(n_shards, store.checksum());
    let mut servers = Vec::new();
    let rec = obs::Recorder::sink_only();
    for shard in 0..n_shards {
        // One shard index build, shared by every replica of the shard.
        let index = MinimizerIndex::build_shard(&store, &icfg, shard, n_shards);
        for replica in 0..replicas {
            let store = ContigStore::open(&work.join(STORE_FILE), &io).unwrap_or_else(die_stream);
            let engine = QueryEngine::new(store, index.clone(), qcfg).unwrap_or_else(die_qserve);
            let svc = QueryService::start(
                engine,
                ServiceConfig {
                    workers: get(opts, "workers", 2usize),
                    max_queue: get(opts, "max-queue", 64usize),
                    ..ServiceConfig::default()
                },
                &rec,
            );
            let server = Server::start(
                svc,
                ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    read_timeout: Duration::from_millis(get(opts, "read-timeout-ms", 30_000u64)),
                    drain_deadline: Duration::from_millis(get(opts, "drain-deadline-ms", 5_000u64)),
                    auth_secret: opts.get("auth-secret").cloned(),
                    ..ServerConfig::default()
                },
                &rec,
                lasagna_repro::faultsim::Faults::disabled(),
            )
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
    manifest.save(&manifest_path).unwrap_or_else(die_qrouter);
    println!(
        "cluster manifest ({} shards x {} replicas) written to {}",
        n_shards,
        replicas,
        manifest_path.display()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();

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

/// List a work directory's store/index generations: id, kind
/// (full/delta), parent, size, checksum, and which one is active. The
/// active generation is what `serve` boots (and what `reload
/// --generation 0` targets).
fn generations(opts: &HashMap<String, String>) {
    use lasagna_repro::qserve::{GenKind, GenManifest, GEN_MANIFEST_FILE, STORE_FILE};

    let work = PathBuf::from(require(opts, "work"));
    let io = IoStats::default();
    if !GenManifest::exists(&work) {
        if work.join(STORE_FILE).exists() {
            println!(
                "{}: legacy single-generation layout ({STORE_FILE} present, \
                 no {GEN_MANIFEST_FILE})",
                work.display()
            );
            return;
        }
        eprintln!(
            "lasagna: no {GEN_MANIFEST_FILE} or {STORE_FILE} under {}",
            work.display()
        );
        exit(1);
    }
    let manifest = GenManifest::load(&work, &io).unwrap_or_else(|e| {
        eprintln!("lasagna: {e}");
        exit(EXIT_CORRUPT)
    });
    println!(
        "{:<8} {:>6} {:>7} {:>9} {:>8} {:>17}  files",
        "gen", "kind", "parent", "reads", "readlen", "checksum"
    );
    for g in &manifest.generations {
        println!(
            "{:<8} {:>6} {:>7} {:>9} {:>8} {:>17}  {} + {}",
            format!("{}{}", g.id, if g.id == manifest.active { "*" } else { "" }),
            match g.kind {
                GenKind::Full => "full",
                GenKind::Delta => "delta",
            },
            g.parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".to_string()),
            g.reads,
            g.read_len,
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
fn reload(opts: &HashMap<String, String>) {
    let generation: u64 = get(opts, "generation", 0u64);
    let mut client = stats_client(opts, "reload");
    let active = client.reload(generation).unwrap_or_else(die_qnet);
    println!("reload complete; now serving generation {active}");
}

/// Ask a `serve` process to drain gracefully and stop.
fn shutdown(opts: &HashMap<String, String>) {
    use lasagna_repro::qnet::{ClientConfig, QueryClient};

    let connect = require(opts, "connect");
    let rec = obs::Recorder::disabled();
    let mut client = QueryClient::new(
        ClientConfig {
            addr: connect.clone(),
            client_id: "shutdown".to_string(),
            ..ClientConfig::default()
        },
        &rec,
    );
    client.request_shutdown().unwrap_or_else(die_qnet);
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
/// The server rejected the request's authentication tag. Terminal for
/// these credentials: fix `--auth-secret` rather than retrying.
const EXIT_AUTH: i32 = 7;

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

fn die_qnet<T>(e: lasagna_repro::qnet::QnetError) -> T {
    use lasagna_repro::qnet::QnetError;
    eprintln!("lasagna: {e}");
    exit(match &e {
        QnetError::Corrupt { .. } => EXIT_CORRUPT,
        QnetError::Io(_) => EXIT_IO,
        QnetError::Overloaded { .. } | QnetError::Draining | QnetError::RetriesExhausted { .. } => {
            EXIT_OVERLOADED
        }
        QnetError::AuthFailed => EXIT_AUTH,
        // A failed reload rolled back server-side; the old generation
        // is still serving, so this is an operator retry, not an outage.
        QnetError::ReloadFailed { .. } => 1,
        QnetError::DeadlineExceeded { .. } | QnetError::Remote(_) => 1,
    })
}

/// Router failures map onto the same ladder: a dead shard is
/// "unavailable, resubmit later" (6), a terminal network error keeps its
/// qnet mapping, and a bad manifest is an input error (1).
fn die_qrouter<T>(e: lasagna_repro::qrouter::RouterError) -> T {
    use lasagna_repro::qrouter::RouterError;
    match &e {
        RouterError::Net { source, .. } => {
            eprintln!("lasagna: {e}");
            exit(match source {
                lasagna_repro::qnet::QnetError::AuthFailed => EXIT_AUTH,
                lasagna_repro::qnet::QnetError::Corrupt { .. } => EXIT_CORRUPT,
                lasagna_repro::qnet::QnetError::Io(_) => EXIT_IO,
                _ => 1,
            })
        }
        RouterError::ShardUnavailable { .. } => {
            eprintln!("lasagna: {e}");
            exit(EXIT_OVERLOADED)
        }
        // Skew means the merge was refused to protect the answer; a
        // failed rollout left the pin (and service) on the old
        // generation. Both are resubmit/retry conditions.
        RouterError::GenerationSkew { .. } | RouterError::RolloutFailed { .. } => {
            eprintln!("lasagna: {e}");
            exit(EXIT_OVERLOADED)
        }
        RouterError::Manifest(_) => die(e),
    }
}

/// Distributed errors cross thread boundaries as strings (see
/// `dnet::DnetError`), so the exit-code mapping matches on the rendered
/// `StreamError` prefixes instead of variants.
fn dnet_exit_code(e: &lasagna_repro::dnet::DnetError) -> i32 {
    use lasagna_repro::dnet::DnetError;
    match e {
        DnetError::BadConfig(_) => 2,
        DnetError::Node { message, .. } => {
            if message.contains("corrupt stream") {
                EXIT_CORRUPT
            } else if message.contains("out of memory") || message.contains("host memory") {
                EXIT_OOM
            } else if message.contains("I/O error") {
                EXIT_IO
            } else {
                1
            }
        }
    }
}

fn die_dnet<T>(e: lasagna_repro::dnet::DnetError) -> T {
    eprintln!("lasagna: {e}");
    exit(dnet_exit_code(&e))
}
