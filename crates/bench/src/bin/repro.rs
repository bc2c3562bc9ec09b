//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale N] [--out DIR] [--nodes 1,2,4,8]
//!
//! experiments:
//!   table1   datasets                         (paper Table I)
//!   table2   per-phase times, 128 GB + K40    (paper Table II)
//!   table3   per-phase times, 64 GB + K20X    (paper Table III)
//!   table4   peak memory, 128 GB + K40        (paper Table IV)
//!   table5   peak memory, 64 GB + K20X        (paper Table V)
//!   table6   SGA vs LaSAGNA                   (paper Table VI)
//!   fig8     sort block-size sweep            (paper Fig. 8)
//!   fig9     sort across GPU models           (paper Fig. 9)
//!   fig10    distributed scaling              (paper Fig. 10)
//!   fpcheck  fingerprint-width false-positive check (Section IV-B claim)
//!   faults   crash/recover matrix                   (ROBUSTNESS.md)
//!   serve    query-service throughput/latency sweep (SERVING.md)
//!   serve-net network serving over loopback TCP, clean + chaos (SERVING.md)
//!   serve-cluster sharded replicated cluster: shard-count sweep + chaos
//!             matrix with replicas killed, answers vs single-node (SERVING.md)
//!   serve-reload hot generation reloads under continuous query load:
//!             zero reads shed, zero reconnects, rollback chaos (SERVING.md)
//!   schedcheck deterministic schedule exploration of the serving
//!             concurrency protocol (ROBUSTNESS.md)
//!   all      everything above
//! ```
//!
//! Results print as aligned tables with the paper's published numbers
//! alongside, and are archived as `BENCH_<experiment>.json` under `--out`.
//! Every `AssemblyReport` in those archives is a pure roll-up of the
//! pipeline's recorded `obs` events (see OBSERVABILITY.md), so the bench
//! trajectory and `--trace-out` traces share one source of truth.

use bench::env::Testbed;
use bench::experiments::{self, DatasetRun};
use bench::paper;
use bench::DEFAULT_SCALE;
use std::path::{Path, PathBuf};

struct Args {
    experiment: String,
    scale: u64,
    out: PathBuf,
    nodes: Vec<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        scale: DEFAULT_SCALE,
        out: PathBuf::from("repro-out"),
        nodes: vec![1, 2, 4, 8],
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a positive integer"));
            }
            "--out" => {
                args.out = PathBuf::from(iter.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--nodes" => {
                let list = iter.next().unwrap_or_else(|| die("--nodes needs a list"));
                args.nodes = list
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| die("bad --nodes entry")))
                    .collect();
            }
            "--help" | "-h" => {
                println!("repro <table1..table6|fig8|fig9|fig10|fpcheck|faults|serve|serve-net|serve-cluster|schedcheck|all> [--scale N] [--out DIR] [--nodes 1,2,4,8]");
                std::process::exit(0);
            }
            other if args.experiment.is_empty() => args.experiment = other.to_string(),
            other => die(&format!("unexpected argument {other}")),
        }
    }
    if args.experiment.is_empty() {
        die("missing experiment name (try --help)");
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn save_json<T: stdx::json::ToJson>(out: &Path, name: &str, value: &T) {
    std::fs::create_dir_all(out).expect("create out dir");
    let path = out.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, stdx::json::to_string_pretty(value)).expect("write json");
    println!("  [saved {}]", path.display());
}

fn hms(seconds: f64) -> String {
    let s = seconds.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m{:02}s", s / 3600, s % 3600 / 60, s % 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{:.2}s", seconds)
    }
}

/// Run (or load the archived) per-testbed assembly runs: Tables II+IV share
/// one run per dataset, Tables III+V another.
fn testbed_runs(testbed: Testbed, scale: u64, out: &Path) -> Vec<DatasetRun> {
    let tag = if testbed.host_bytes == 128 << 30 {
        "k40"
    } else {
        "k20x"
    };
    let cache = out.join(format!("runs_{tag}_{scale}.json"));
    if let Ok(bytes) = std::fs::read(&cache) {
        if let Ok(runs) = stdx::json::from_slice::<Vec<DatasetRun>>(&bytes) {
            println!("  [using cached {}]", cache.display());
            return runs;
        }
    }
    let work = stdx::tempdir().expect("workdir");
    let runs = experiments::run_testbed(testbed, scale, work.path()).expect("assembly failed");
    std::fs::create_dir_all(out).expect("create out dir");
    std::fs::write(&cache, stdx::json::to_string_pretty(&runs)).expect("write cache");
    runs
}

fn print_times(runs: &[DatasetRun], paper_times: &paper::PaperPhaseTimes, scale: u64, title: &str) {
    println!("\n=== {title} (scale 1/{scale}) ===");
    println!(
        "{:<10} {:>12} {:>14} {:>16} {:>14}",
        "phase", "dataset", "measured wall", "modeled ×scale", "paper"
    );
    let phases = ["map", "sort", "reduce", "compress", "load"];
    let paper_rows: [&[u64; 4]; 5] = [
        &paper_times.map,
        &paper_times.sort,
        &paper_times.reduce,
        &paper_times.compress,
        &paper_times.load,
    ];
    for (pi, phase) in phases.iter().enumerate() {
        for (di, run) in runs.iter().enumerate() {
            let m = run.report.phase(phase).expect("phase present");
            println!(
                "{:<10} {:>12} {:>14} {:>16} {:>14}",
                phase,
                run.dataset,
                hms(m.wall_seconds),
                hms(m.modeled_seconds * scale as f64),
                hms(paper_rows[pi][di] as f64),
            );
        }
    }
    println!("{:-<70}", "");
    for (di, run) in runs.iter().enumerate() {
        println!(
            "{:<10} {:>12} {:>14} {:>16} {:>14}",
            "total",
            run.dataset,
            hms(run.report.total_wall_seconds()),
            hms(run.report.total_modeled_seconds() * scale as f64),
            hms(paper_times.totals()[di] as f64),
        );
    }
    for run in runs {
        println!(
            "{}: {} contigs, N50 {}, {} misassembled (greedy joins across repeats — inherent to the paper's heuristic)",
            run.dataset,
            run.report.contig_stats.count,
            run.report.contig_stats.n50,
            run.misassembled
        );
    }
}

fn print_peaks(runs: &[DatasetRun], paper_peaks: &paper::PaperPeaks, scale: u64, title: &str) {
    println!("\n=== {title} (scale 1/{scale}) ===");
    println!(
        "{:<12} {:<10} {:>10} {:>10} {:>12} {:>10}",
        "dataset", "phase", "host MB", "paper GB", "device KB", "paper GB"
    );
    let host_phases = ["map", "sort", "reduce", "compress"];
    for (di, run) in runs.iter().enumerate() {
        for (pi, phase) in host_phases.iter().enumerate() {
            let m = run.report.phase(phase).expect("phase");
            let host_mb = m.host_peak_bytes as f64 / 1e6;
            let dev_kb = m.device_peak_bytes as f64 / 1e3;
            let dev_paper = if pi < 3 {
                format!("{:>10.2}", paper_peaks.device[di][pi])
            } else {
                format!("{:>10}", "-")
            };
            println!(
                "{:<12} {:<10} {:>10.3} {:>10.2} {:>12.2} {}",
                run.dataset, phase, host_mb, paper_peaks.host[di][pi], dev_kb, dev_paper
            );
        }
    }
}

fn run_table1(scale: u64, out: &Path) {
    let rows = experiments::table1(scale);
    println!("\n=== Table I: datasets (scale 1/{scale}) ===");
    println!(
        "{:<10} {:>6} {:>14} {:>16} {:>6} {:>10} {:>12}",
        "dataset", "len", "paper reads", "paper bases", "l_min", "reads", "bases"
    );
    for r in &rows {
        println!(
            "{:<10} {:>6} {:>14} {:>16} {:>6} {:>10} {:>12}",
            r.dataset,
            r.length,
            r.paper_reads,
            r.paper_bases,
            r.l_min,
            r.scaled_reads,
            r.scaled_bases
        );
    }
    save_json(out, "table1", &rows);
}

fn run_table2(scale: u64, out: &Path) {
    let runs = testbed_runs(Testbed::queenbee2(), scale, out);
    print_times(
        &runs,
        &paper::TABLE2,
        scale,
        "Table II: single node, 128 GB + K40",
    );
    save_json(out, "table2", &runs);
}

fn run_table3(scale: u64, out: &Path) {
    let runs = testbed_runs(Testbed::supermic(), scale, out);
    print_times(
        &runs,
        &paper::TABLE3,
        scale,
        "Table III: single node, 64 GB + K20X",
    );
    save_json(out, "table3", &runs);
}

fn run_table4(scale: u64, out: &Path) {
    let runs = testbed_runs(Testbed::queenbee2(), scale, out);
    print_peaks(
        &runs,
        &paper::TABLE4,
        scale,
        "Table IV: peak memory, 128 GB + K40",
    );
    save_json(out, "table4", &runs);
}

fn run_table5(scale: u64, out: &Path) {
    let runs = testbed_runs(Testbed::supermic(), scale, out);
    print_peaks(
        &runs,
        &paper::TABLE5,
        scale,
        "Table V: peak memory, 64 GB + K20X",
    );
    save_json(out, "table5", &runs);
}

fn run_table6(scale: u64, out: &Path) {
    let runs_64 = testbed_runs(Testbed::supermic(), scale, out);
    let runs_128 = testbed_runs(Testbed::queenbee2(), scale, out);
    let rows = experiments::table6(scale, &runs_64, &runs_128).expect("table6 failed");
    println!("\n=== Table VI: SGA vs LaSAGNA (scale 1/{scale}) ===");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>14} {:>10} {:>10}",
        "dataset", "SGA 64", "SGA 128", "LaSAGNA 64", "LaSAGNA 128", "speedup", "paper"
    );
    for r in &rows {
        let fmt_opt = |o: Option<f64>| o.map_or("OOM".to_string(), |s| format!("{s:.2}s"));
        println!(
            "{:<10} {:>12} {:>12} {:>13.2}s {:>13.2}s {:>10} {:>10}",
            r.dataset,
            fmt_opt(r.sga_64_wall),
            fmt_opt(r.sga_128_wall),
            r.lasagna_64_wall,
            r.lasagna_128_wall,
            r.measured_speedup_64
                .map_or("-".into(), |s| format!("{s:.2}x")),
            r.paper_speedup_64
                .map_or("OOM".into(), |s| format!("{s:.2}x")),
        );
    }
    save_json(out, "table6", &rows);
}

fn run_fig8(scale: u64, out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let points = experiments::fig8(scale, work.path()).expect("fig8 failed");
    println!("\n=== Fig. 8: sort time vs host/device block-sizes, K40 (scale 1/{scale}) ===");
    println!(
        "{:>16} {:>12} {:>8} {:>16} {:>18}",
        "host blk (pairs)", "dev blk", "passes", "modeled", "×scale (paper axis)"
    );
    for p in &points {
        println!(
            "{:>16} {:>12} {:>8} {:>15.4}s {:>18}",
            p.host_block_pairs,
            p.device_block_pairs,
            p.disk_passes,
            p.modeled_seconds,
            hms(p.paper_scale_seconds)
        );
    }
    save_json(out, "fig8", &points);
}

fn run_fig9(scale: u64, out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let points = experiments::fig9(scale, work.path()).expect("fig9 failed");
    println!("\n=== Fig. 9: sort time vs host block-size across GPUs (scale 1/{scale}) ===");
    println!(
        "{:<6} {:>14} {:>8} {:>16} {:>18}",
        "gpu", "host blk", "passes", "modeled", "×scale (paper axis)"
    );
    for p in &points {
        println!(
            "{:<6} {:>14} {:>8} {:>15.4}s {:>18}",
            p.gpu,
            p.host_block_pairs,
            p.disk_passes,
            p.modeled_seconds,
            hms(p.paper_scale_seconds)
        );
    }
    save_json(out, "fig9", &points);
}

fn run_fig10(scale: u64, nodes: &[usize], out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let points = experiments::fig10(scale, nodes, work.path()).expect("fig10 failed");
    println!(
        "\n=== Fig. 10: H.Genome on {:?} nodes (scale 1/{scale}) ===",
        nodes
    );
    // The total sums the paper's four bars; load and compress, the same
    // single-node stages at every node count, print beside them.
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12} {:>16} {:>10} {:>10}",
        "nodes", "map", "shuffle", "sort", "reduce", "total", "×scale", "load", "compress"
    );
    for p in &points {
        let get = |n: &str| {
            p.phases
                .iter()
                .find(|(k, _)| k == n)
                .map_or(0.0, |(_, v)| *v)
        };
        println!(
            "{:>6} {:>9.3}s {:>9.3}s {:>9.3}s {:>9.3}s {:>11.3}s {:>16} {:>9.3}s {:>9.3}s",
            p.nodes,
            get("map"),
            get("shuffle"),
            get("sort"),
            get("reduce"),
            p.total_modeled,
            hms(p.paper_scale_seconds),
            get("load"),
            get("compress"),
        );
    }
    println!(
        "paper totals (approx, read off the stacked bars): {:?}",
        paper::FIG10_TOTALS
    );
    save_json(out, "fig10", &points);
}

fn run_reduce_ablation(scale: u64, nodes: &[usize], out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let points =
        experiments::reduce_strategies(scale, nodes, work.path()).expect("reduce ablation failed");
    println!("\n=== Reduce-strategy ablation: token vs fingerprint-range (scale 1/{scale}) ===");
    println!(
        "{:>6} {:<18} {:>12} {:>12} {:>12} {:>10}",
        "nodes", "strategy", "shuffle", "reduce", "total", "edges"
    );
    for p in &points {
        println!(
            "{:>6} {:<18} {:>11.4}s {:>11.4}s {:>11.4}s {:>10}",
            p.nodes, p.strategy, p.shuffle_modeled, p.reduce_modeled, p.total_modeled, p.edges
        );
    }
    save_json(out, "reduce_ablation", &points);
}

fn run_mapscheme(scale: u64, out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = experiments::mapscheme(scale, work.path()).expect("mapscheme failed");
    println!("\n=== Map-kernel ablation: H.Genome, K40 (scale 1/{scale}) ===");
    println!(
        "{:<18} {:>14} {:>16}",
        "scheme", "kernel (dev)", "map total"
    );
    for r in &rows {
        println!(
            "{:<18} {:>13.5}s {:>15.4}s",
            r.scheme, r.kernel_seconds, r.map_modeled
        );
    }
    let ratio = rows[0].kernel_seconds / rows[1].kernel_seconds.max(1e-12);
    println!("(paper: thread-per-read \"fails to perform as expected due to excessive memory throttling\" — device-kernel ratio {ratio:.1}x)");
    save_json(out, "mapscheme", &rows);
}

fn run_disks(scale: u64, out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = experiments::disks(scale, work.path()).expect("disks failed");
    println!("\n=== Storage media sweep: H.Genome, 64 GB testbed (scale 1/{scale}) ===");
    println!(
        "{:<28} {:>12} {:>12} {:>16}",
        "media", "sort", "total", "total ×scale"
    );
    for r in &rows {
        println!(
            "{:<28} {:>11.3}s {:>11.3}s {:>16}",
            r.media,
            r.sort_modeled,
            r.total_modeled,
            hms(r.total_modeled * scale as f64)
        );
    }
    println!("(paper: \"LaSAGNA will benefit from the use of local disks and faster media such as solid-state drives\")");
    save_json(out, "disks", &rows);
}

fn run_dbgcheck(scale: u64, out: &Path) {
    let rows = experiments::dbgcheck(scale);
    println!("\n=== De Bruijn baseline feasibility (scale 1/{scale}, 1% read errors, k=21) ===");
    println!(
        "{:<10} {:>8} {:>8} {:>14} {:>14} {:>8}",
        "dataset", "testbed", "fits", "k-mer table", "budget", "N50"
    );
    for r in &rows {
        println!(
            "{:<10} {:>8} {:>8} {:>13.2}MB {:>13.2}MB {:>8}",
            r.dataset,
            r.testbed,
            if r.fits { "yes" } else { "OOM" },
            r.billed_bytes as f64 / 1e6,
            r.budget_bytes as f64 / 1e6,
            r.n50.map_or("-".into(), |n| n.to_string()),
        );
    }
    println!("(paper: de Bruijn assemblers excluded from Table VI — \"failed with out-of-memory error\")");
    save_json(out, "dbgcheck", &rows);
}

fn run_validate(scale: u64, out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = bench::validate::validate(scale, work.path()).expect("validate failed");
    println!("\n=== Paper-claim validation (scale 1/{scale}) ===");
    for r in &rows {
        println!(
            "[{}] {:<62} ({})",
            if r.pass { "PASS" } else { "FAIL" },
            r.claim,
            r.source
        );
        println!("       {}", r.evidence);
    }
    let failed = rows.iter().filter(|r| !r.pass).count();
    println!("{} of {} claims hold", rows.len() - failed, rows.len());
    save_json(out, "validate", &rows);
    if failed > 0 {
        std::process::exit(1);
    }
}

fn run_fpcheck(scale: u64, out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = experiments::fpcheck(scale, work.path()).expect("fpcheck failed");
    println!("\n=== Fingerprint width vs false-positive edges (scale 1/{scale}) ===");
    println!("{:>6} {:>10} {:>14}", "bits", "edges", "false edges");
    for r in &rows {
        println!("{:>6} {:>10} {:>14}", r.bits, r.edges, r.false_edges);
    }
    save_json(out, "fpcheck", &rows);
}

fn run_faults(out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = experiments::faults(work.path()).expect("fault harness failed");
    println!("\n=== Fault-injection matrix (see ROBUSTNESS.md) ===");
    println!("{:<48} {:>9} {:>10}", "scenario", "injected", "recovered");
    for r in &rows {
        println!(
            "{:<48} {:>9} {:>10}   {}",
            r.scenario,
            if r.injected { "yes" } else { "NO" },
            if r.recovered { "yes" } else { "FAIL" },
            r.detail
        );
    }
    let failed = rows.iter().filter(|r| !(r.injected && r.recovered)).count();
    println!(
        "{} of {} scenarios injected a fault and recovered exactly",
        rows.len() - failed,
        rows.len()
    );
    save_json(out, "faults", &rows);
    if failed > 0 {
        std::process::exit(1);
    }
}

fn run_serve(out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = experiments::serve(work.path()).expect("serve bench failed");
    println!("\n=== Query service: throughput / latency sweep (SERVING.md) ===");
    println!(
        "{:>8} {:>8} {:>8} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workers",
        "reads",
        "mapped",
        "reads/s",
        "batch p50",
        "batch p99",
        "read p50",
        "read p99",
        "p99.9"
    );
    for r in &rows {
        println!(
            "{:>8} {:>8} {:>8} {:>12.0} {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms {:>7.2}ms",
            r.workers,
            r.reads,
            r.mapped,
            r.reads_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.hist_p50_ms,
            r.hist_p99_ms,
            r.hist_p999_ms
        );
    }
    println!(
        "(answers verified bit-identical across all configurations; \
         read percentiles from the qserve.latency.total histogram)"
    );
    save_json(out, "serve", &rows);
}

fn run_serve_net(out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = experiments::serve_net(work.path()).expect("serve-net bench failed");
    println!("\n=== Network serving: loopback TCP, clean + chaos (SERVING.md) ===");
    println!(
        "{:<38} {:>8} {:>8} {:>12} {:>9} {:>9} {:>8} {:>10} {:>8}",
        "scenario", "reads", "mapped", "reads/s", "p50", "p99", "retries", "identical", "drained"
    );
    for r in &rows {
        println!(
            "{:<38} {:>8} {:>8} {:>12.0} {:>7.2}ms {:>7.2}ms {:>8} {:>10} {:>8}",
            r.scenario,
            r.reads,
            r.mapped,
            r.reads_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.retries,
            if r.identical_to_in_process {
                "yes"
            } else {
                "NO"
            },
            if r.drained_clean { "clean" } else { "FORCED" },
        );
        println!(
            "{:<38} read latency p50 {:.2}ms p90 {:.2}ms p99 {:.2}ms p99.9 {:.2}ms",
            "", r.hist_p50_ms, r.hist_p90_ms, r.hist_p99_ms, r.hist_p999_ms
        );
        println!(
            "{:<38} gates: {} accepted, {} rejected, {} deadline-shed, {} fairness-shed (reads)",
            "", r.gates.accepted, r.gates.rejected, r.gates.deadline_shed, r.gates.fairness_shed
        );
        for (client, g) in &r.per_client {
            println!(
                "{:<38}   client {client}: {} accepted, {} rejected, {} deadline-shed, \
                 {} fairness-shed",
                "", g.accepted, g.rejected, g.deadline_shed, g.fairness_shed
            );
        }
    }
    save_json(out, "serve_net", &rows);
    let broken = rows
        .iter()
        .filter(|r| !r.identical_to_in_process || !r.drained_clean)
        .count();
    if broken > 0 {
        eprintln!("repro: {broken} serve-net scenario(s) diverged or failed to drain");
        std::process::exit(1);
    }
}

fn run_serve_cluster(out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = experiments::serve_cluster(work.path()).expect("serve-cluster bench failed");
    println!("\n=== Cluster serving: sharded + replicated scatter-gather (SERVING.md) ===");
    println!(
        "{:<34} {:>6} {:>8} {:>12} {:>9} {:>9} {:>7} {:>7} {:>9} {:>10} {:>9}",
        "scenario",
        "shards",
        "reads",
        "reads/s",
        "p50",
        "p99",
        "hedges",
        "won",
        "failovers",
        "identical",
        "conserve"
    );
    for r in &rows {
        println!(
            "{:<34} {:>6} {:>8} {:>12.0} {:>7.2}ms {:>7.2}ms {:>7} {:>7} {:>9} {:>10} {:>9}",
            r.scenario,
            r.n_shards,
            r.reads,
            r.reads_per_sec,
            r.p50_ms,
            r.p99_ms,
            r.hedges_fired,
            r.hedges_won,
            r.failovers,
            if r.identical_to_single_node {
                "yes"
            } else {
                "NO"
            },
            if r.counters_conserve { "yes" } else { "NO" },
        );
        if r.shards_dead > 0 || r.dead_letters > 0 {
            println!(
                "{:<34} {} shard batches dead-lettered ({} records)",
                "", r.shards_dead, r.dead_letters
            );
        }
    }
    println!(
        "(answers compared bit-for-bit against one single-node server; \
         conserve = offered reads == merged + dead-lettered)"
    );
    save_json(out, "serve_cluster", &rows);
    let broken = rows
        .iter()
        .filter(|r| !r.identical_to_single_node || !r.counters_conserve)
        .count();
    if broken > 0 {
        eprintln!("repro: {broken} serve-cluster scenario(s) diverged or leaked reads");
        std::process::exit(1);
    }
}

fn run_serve_reload(out: &Path) {
    let work = stdx::tempdir().expect("workdir");
    let rows = experiments::serve_reload(work.path()).expect("serve-reload bench failed");
    println!("\n=== Hot reload under load: zero-downtime generation swap (SERVING.md) ===");
    println!(
        "{:<42} {:>8} {:>12} {:>8} {:>4} {:>9} {:>5} {:>10} {:>8} {:>9}",
        "scenario",
        "reads",
        "reads/s",
        "reloads",
        "ok",
        "rollbacks",
        "shed",
        "reconnects",
        "finalgen",
        "identical"
    );
    for r in &rows {
        println!(
            "{:<42} {:>8} {:>12.0} {:>8} {:>4} {:>9} {:>5} {:>10} {:>8} {:>9}",
            r.scenario,
            r.reads,
            r.reads_per_sec,
            r.reloads_requested,
            r.reloads_ok,
            r.rollbacks,
            r.shed,
            r.reconnects,
            r.final_generation,
            if r.identical_to_oracle { "yes" } else { "NO" },
        );
        let mix: Vec<String> = r
            .generations_served
            .iter()
            .map(|(g, n)| format!("gen {g}: {n} batches"))
            .collect();
        let swaps: Vec<String> = r.reload_ms.iter().map(|ms| format!("{ms:.1}ms")).collect();
        println!(
            "{:<42} served {}; swap latency {}",
            "",
            mix.join(", "),
            swaps.join(", ")
        );
    }
    println!(
        "(a client streams tagged batches over one connection while a control \
         connection swaps generations; every batch is checked bit-for-bit \
         against the oracle of the generation that answered it)"
    );
    save_json(out, "serve_reload", &rows);
    let broken = rows
        .iter()
        .filter(|r| r.shed > 0 || r.reconnects > 0 || !r.identical_to_oracle)
        .count();
    if broken > 0 {
        eprintln!(
            "repro: {broken} serve-reload scenario(s) shed reads, dropped \
             connections, or diverged from the oracle"
        );
        std::process::exit(1);
    }
}

fn run_schedcheck(out: &Path) {
    use schedcheck::{explore_dfs, explore_pct, DfsConfig, PctConfig, ScenarioConfig};
    use stdx::json::{ToJson, Value};

    struct Row {
        strategy: &'static str,
        scenario: &'static str,
        report: schedcheck::ExploreReport,
    }
    /// One flat object per row: the two labels, then the report's fields.
    impl ToJson for Row {
        fn to_json(&self) -> Value {
            let mut members = vec![
                ("strategy".to_owned(), self.strategy.to_json()),
                ("scenario".to_owned(), self.scenario.to_json()),
            ];
            if let Value::Object(report) = self.report.to_json() {
                members.extend(report);
            }
            Value::Object(members)
        }
    }

    println!("\n=== Schedule exploration: serving concurrency protocol (ROBUSTNESS.md) ===");
    println!("(real qnet Server + qserve QueryService under the deterministic scheduler)");

    let rows: Vec<Row> = vec![
        // Bounded exhaustive DFS over the shallow prefix of the schedule
        // tree: 2 clients x 2 workers, drain racing the in-flight batches.
        Row {
            strategy: "dfs",
            scenario: "drain+reload",
            report: explore_dfs(&DfsConfig {
                scenario: ScenarioConfig::default(),
                decision_depth: 8,
                max_schedules: 2_500,
            }),
        },
        // Seeded PCT random-priority schedules reach the deep tail the
        // bounded DFS prefix cannot.
        Row {
            strategy: "pct",
            scenario: "drain+reload",
            report: explore_pct(&PctConfig {
                scenario: ScenarioConfig::default(),
                seed0: 0x5eed_0001,
                schedules: 256,
                change_points: 3,
                replay_each: false,
            }),
        },
        // Replay determinism: every seed re-run must reproduce its trace
        // hash bit-for-bit (a mismatch is recorded as a violation).
        Row {
            strategy: "pct+replay",
            scenario: "drain+reload",
            report: explore_pct(&PctConfig {
                scenario: ScenarioConfig::default(),
                seed0: 0x5eed_4e91,
                schedules: 64,
                change_points: 3,
                replay_each: true,
            }),
        },
        // Two-chunk batches: a handler runs one chunk of its own batch
        // while a worker holds the other slot, racing the drain. Dense
        // change points (most land past a run's ~70 grants) preempt the
        // gates often enough to reach deadline sheds too.
        Row {
            strategy: "pct",
            scenario: "2-chunk batches",
            report: explore_pct(&PctConfig {
                scenario: ScenarioConfig {
                    reads_per_batch: 4,
                    ..ScenarioConfig::default()
                },
                seed0: 0x5eed_2c4b,
                schedules: 512,
                change_points: 32,
                replay_each: false,
            }),
        },
        // A prober polls live Stats mid-run so snapshot-vs-rollup (I4) is
        // exercised under contention, not just at drain.
        Row {
            strategy: "pct",
            scenario: "prober",
            report: explore_pct(&PctConfig {
                scenario: ScenarioConfig {
                    with_prober: true,
                    ..ScenarioConfig::default()
                },
                seed0: 0x5eed_00a7,
                schedules: 128,
                change_points: 3,
                replay_each: false,
            }),
        },
    ];

    println!(
        "{:<12} {:<18} {:>10} {:>10} {:>9} {:>9} {:>7} {:>9} {:>9} {:>7} {:>11}",
        "strategy",
        "scenario",
        "schedules",
        "distinct",
        "diverged",
        "maxsteps",
        "forced",
        "deadline",
        "fairness",
        "helped",
        "violations"
    );
    for r in &rows {
        println!(
            "{:<12} {:<18} {:>10} {:>10} {:>9} {:>9} {:>7} {:>9} {:>9} {:>7} {:>11}",
            r.strategy,
            r.scenario,
            r.report.schedules_explored,
            r.report.distinct_interleavings,
            r.report.diverged,
            r.report.max_steps,
            r.report.force_closed_runs,
            r.report.deadline_shed_runs,
            r.report.fairness_shed_runs,
            r.report.helped_under_drain_runs,
            r.report.violations.len(),
        );
    }
    let schedules: u64 = rows.iter().map(|r| r.report.schedules_explored).sum();
    let distinct: u64 = rows.iter().map(|r| r.report.distinct_interleavings).sum();
    let diverged: u64 = rows.iter().map(|r| r.report.diverged).sum();
    let violations: usize = rows.iter().map(|r| r.report.violations.len()).sum();
    println!(
        "(total: {schedules} schedules, {distinct} distinct interleavings, \
         {diverged} diverged, {violations} violations)"
    );
    for r in &rows {
        for v in &r.report.violations {
            eprintln!(
                "repro: schedcheck violation [{}] {}: {} ({} grants in trace)",
                r.strategy,
                v.strategy,
                v.detail,
                v.trace.len()
            );
        }
    }
    save_json(out, "schedcheck", &rows);
    if violations > 0 {
        eprintln!("repro: schedcheck found {violations} violating schedule(s); traces archived");
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let run = |name: &str| match name {
        "table1" => run_table1(args.scale, &args.out),
        "table2" => run_table2(args.scale, &args.out),
        "table3" => run_table3(args.scale, &args.out),
        "table4" => run_table4(args.scale, &args.out),
        "table5" => run_table5(args.scale, &args.out),
        "table6" => run_table6(args.scale, &args.out),
        "fig8" => run_fig8(args.scale, &args.out),
        "fig9" => run_fig9(args.scale, &args.out),
        "fig10" => run_fig10(args.scale, &args.nodes, &args.out),
        "reduce_ablation" => run_reduce_ablation(args.scale, &args.nodes, &args.out),
        "dbgcheck" => run_dbgcheck(args.scale, &args.out),
        "disks" => run_disks(args.scale, &args.out),
        "mapscheme" => run_mapscheme(args.scale, &args.out),
        "validate" => run_validate(args.scale, &args.out),
        "fpcheck" => run_fpcheck(args.scale, &args.out),
        "faults" => run_faults(&args.out),
        "serve" => run_serve(&args.out),
        "serve-net" => run_serve_net(&args.out),
        "serve-cluster" => run_serve_cluster(&args.out),
        "serve-reload" => run_serve_reload(&args.out),
        "schedcheck" => run_schedcheck(&args.out),
        other => die(&format!("unknown experiment {other}")),
    };
    if args.experiment == "all" {
        for name in [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig8",
            "fig9",
            "fig10",
            "reduce_ablation",
            "dbgcheck",
            "disks",
            "mapscheme",
            "fpcheck",
            "serve",
            "serve-net",
            "serve-cluster",
            "serve-reload",
            "schedcheck",
        ] {
            run(name);
        }
    } else {
        run(&args.experiment);
    }
}
