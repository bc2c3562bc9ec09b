//! The repo benchmark. Run from the repository root as
//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>`; see
//! `benchmark/README.md` for what the workloads and metrics mean.

mod asm;
mod check;
mod gen;
mod layers;
mod serve;
mod util;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use util::{fact, median, quantile, Metrics, Trace};

/// Throughput is the median of this many equal parts of the timed section,
/// so one scheduler hiccup cannot move it.
pub const ROUNDS: usize = 5;

/// A run sets up this many times and reports the median as `setup_s`, as
/// the driver's contract asks ("set up several times in a run and report
/// the median"); the last set-up is the one that is timed.
pub const SETUP_REPEATS: usize = 3;

/// Everything under here is scratch: work directories and trace files. It is
/// inside the checkout because the driver's contract lets a run read and
/// write nowhere else.
const OUT_DIR: &str = "benchmark/out";

pub const WORKLOADS: [&str; 4] = ["asm_inmem", "asm_extsort", "serve_net", "serve_cluster"];

#[derive(Clone, Copy)]
enum Shape {
    Asm(asm::Shape),
    Serve(serve::Shape),
}

/// A frozen workload: its shape, and the ops a run times per second of
/// `--seconds`. The rate was calibrated once on the 2-core reference box so
/// that the timed section lasts about `--seconds`; it is a constant, so a
/// run's op count repeats exactly and faster code ends sooner.
#[derive(Clone, Copy)]
struct Workload {
    shape: Shape,
    ops_per_second: f64,
}

impl Workload {
    fn ops(&self, seconds: f64) -> usize {
        ((self.ops_per_second * seconds).round() as usize).max(ROUNDS)
    }
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "asm_inmem" => Workload {
            shape: Shape::Asm(asm::Shape {
                reads: 10_000,
                extsort: false,
            }),
            ops_per_second: 1.2,
        },
        "asm_extsort" => Workload {
            shape: Shape::Asm(asm::Shape {
                reads: 10_000,
                extsort: true,
            }),
            ops_per_second: 0.68,
        },
        // 0.5 Mbp store: the distinct lookups of the pool (both strands of
        // the store, the foreign reads, the substituted k-mers) take about
        // 18 MB of the default 32 MiB postings cache, and the pool is cycled
        // many times, so this is the cache-hit path.
        "serve_net" => Workload {
            shape: Shape::Serve(serve::Shape {
                contigs: 50,
                contig_len: 10_000,
                pool_reads: 25_024,
                batch: 32,
                shards: 1,
                workers: 2,
            }),
            ops_per_second: 1_250.0,
        },
        // 4 Mbp store: the lookups of one pass are several times the cache,
        // so postings are mostly fetched from the index.
        "serve_cluster" => Workload {
            shape: Shape::Serve(serve::Shape {
                contigs: 400,
                contig_len: 10_000,
                pool_reads: 150_016,
                batch: 256,
                shards: 2,
                workers: 1,
            }),
            ops_per_second: 72.0,
        },
        _ => return None,
    })
}

/// The small fixed shapes the traced run measures the *other* kind of layer
/// at. The driver's contract has a traced run print every per-layer metric
/// on every workload, and placeholders would tell nothing: these are real
/// measurements that compare across commits, not across workloads.
const REFERENCE_ASM: asm::Shape = asm::Shape {
    reads: 2_500,
    extsort: false,
};
const REFERENCE_SERVE: serve::Shape = serve::Shape {
    contigs: 20,
    contig_len: 10_000,
    pool_reads: 6_400,
    batch: 32,
    shards: 1,
    workers: 2,
};

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Workload facts for the environment stamp.
    pub stamp: Vec<(String, String)>,
}

#[derive(Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// This run's scratch directory, removed when the guard drops.
struct WorkDir(PathBuf);

impl WorkDir {
    /// Refuses to start beside a live run: two runs on two cores measure
    /// each other. A directory is live when its pid is a running process of
    /// this program's name (a pid alone may have been reused by another
    /// program since the run was killed); every other one is swept.
    fn claim() -> Result<WorkDir, String> {
        let own_name = std::fs::read_to_string("/proc/self/comm").unwrap_or_default();
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
        let entries = std::fs::read_dir(OUT_DIR).map_err(|e| format!("reading {OUT_DIR}: {e}"))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(pid) = name.strip_prefix("work-") else {
                continue;
            };
            let live = std::fs::read_to_string(Path::new("/proc").join(pid).join("comm"))
                .is_ok_and(|name| !name.is_empty() && name == own_name);
            if live {
                return Err(format!(
                    "{OUT_DIR}/{name} belongs to a run that is still alive (pid {pid}); wait for it or stop it"
                ));
            }
            let _ = std::fs::remove_dir_all(entry.path());
        }
        let dir = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// File system type of the mount holding `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

fn print_stamp(args: &Args, workdir: &Path, extra: &[(String, String)]) {
    let mut fields = vec![
        fact("workload", &args.workload),
        fact(
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        fact("rustc", command_line("rustc", &["-V"])),
        fact(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        ),
        fact(
            "RAYON_NUM_THREADS",
            std::env::var("RAYON_NUM_THREADS").unwrap_or_default(),
        ),
        fact("workdir_fs", fs_type(workdir)),
        fact("seed", args.seed),
        fact("seconds", format!("{:?}", args.seconds)),
        fact("trace", u8::from(args.trace)),
        // The crates' registry dependencies are the stand-ins under shims/;
        // numbers do not compare with a build against the published crates.
        fact("deps", "shims"),
        fact("setup_repeats", SETUP_REPEATS),
    ];
    fields.extend(extra.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    println!("{{\"stamp\": {{{}}}}}", body.join(", "));
}

pub fn result_line(outcome: &Outcome) -> String {
    let finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct && finite,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    )
}

/// The traced run: a short untraced section and the ladder of the workload's
/// own kind at its own shape, the ladder of the other kind at the reference
/// shape, and the single-layer measurements. Its op counts are fixed: 3
/// assemblies, or about 4 s of batches.
fn traced(args: &Args, workdir: &Path) -> Outcome {
    let which = workload(&args.workload).expect("checked when parsing");
    let mut own_trace = Trace::new();
    let mut reference_trace = Trace::new();
    let mut metrics = Metrics::default();
    let mut stamp = Vec::new();
    let (asm_shape, serve_shape) = match which.shape {
        Shape::Asm(shape) => (shape, REFERENCE_SERVE),
        Shape::Serve(shape) => (REFERENCE_ASM, shape),
    };
    let own_is_asm = matches!(which.shape, Shape::Asm(_));
    let (asm_ops, plain_batches, ladder_reads) = if own_is_asm {
        (3, 1_000, 3_200)
    } else {
        (1, which.ops(4.0), 8_000)
    };

    let (asm_trace, serve_trace) = if own_is_asm {
        (&mut own_trace, &mut reference_trace)
    } else {
        (&mut reference_trace, &mut own_trace)
    };
    let assembly = asm::ladder(&asm_shape, args.seed, asm_ops, workdir, asm_trace);
    let serving = serve::ladder(
        &serve_shape,
        args.seed,
        plain_batches,
        ladder_reads,
        serve_trace,
    );
    let (layer_metrics, layers_ok) = layers::measure(&asm_shape, args.seed, workdir);

    // The workload's own ops: their spread without tracing, and what
    // recording a span around every op costs.
    let (walls, rates, traced_wall, paired_plain_wall) = if own_is_asm {
        let rates: Vec<f64> = assembly
            .plain_walls
            .iter()
            .map(|w| asm_shape.reads as f64 / w)
            .collect();
        (
            assembly.plain_walls.clone(),
            rates,
            assembly.traced_wall,
            median(&assembly.plain_walls),
        )
    } else {
        (
            serving.plain_walls.clone(),
            serving.round_rates.clone(),
            serving.traced_wall,
            serving.paired_plain_wall,
        )
    };
    let correct = assembly.ok && serving.ok && layers_ok && !walls.is_empty();
    metrics.extend(layer_metrics);
    metrics.extend(assembly.metrics);
    metrics.extend(serving.metrics);
    if !walls.is_empty() {
        metrics.put("client.op_p90_ms", quantile(&walls, 0.9) * 1e3, "ms");
        metrics.put("client.op_p99_ms", quantile(&walls, 0.99) * 1e3, "ms");
        metrics.put("client.op_max_ms", quantile(&walls, 1.0) * 1e3, "ms");
        let spread = quantile(&rates, 1.0) - quantile(&rates, 0.0);
        metrics.put("client.round_spread_frac", spread / median(&rates), "ratio");
        metrics.put(
            "trace_overhead_frac",
            traced_wall / paired_plain_wall - 1.0,
            "ratio",
        );
        stamp.push(fact("untraced_ops", walls.len()));
    }
    stamp.extend(asm::budget_stamp(&asm_shape));
    stamp.push(fact("asm_reads", asm_shape.reads));
    stamp.extend(serve::shape_stamp(&serve_shape));

    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", args.workload));
    if let Err(e) = std::fs::write(&path, own_trace.to_json()) {
        eprintln!("writing {}: {e}", path.display());
    }
    let attempted = (asm_ops * 2 + 1) as u64 + serving.attempted;
    Outcome {
        correct,
        attempted,
        failed: u64::from(!correct),
        metrics,
        stamp,
    }
}

pub fn run_once(args: &Args, workdir: &Path) -> Outcome {
    if args.trace {
        return traced(args, workdir);
    }
    let which = workload(&args.workload).expect("checked when parsing");
    let ops = which.ops(args.seconds);
    match which.shape {
        Shape::Asm(shape) => asm::run(&shape, args.seed, ops, workdir),
        Shape::Serve(shape) => serve::run(&shape, args.seed, ops),
    }
}

/// For an assembly workload: how many contigs the two memory regimes share
/// on this seed's reads, as `n of <in-memory count> and <out-of-core count>`.
pub fn shared_contigs(args: &Args, workdir: &Path) -> Option<String> {
    let Shape::Asm(shape) = workload(&args.workload)?.shape else {
        return None;
    };
    let input = asm::input(args.seed, &shape);
    let mut sets = [false, true].map(|extsort| {
        let shape = asm::Shape { extsort, ..shape };
        let contigs = shape.assemble(&input.reads, workdir).ok()?.contigs;
        Some(asm::canonical_contigs(&contigs))
    });
    let (mem, ext) = (sets[0].take()?, sets[1].take()?);
    let common = mem.iter().filter(|c| ext.binary_search(c).is_ok()).count();
    Some(format!("{common} of {} and {}", mem.len(), ext.len()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("lasagna-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    // At most two runnable threads on the two cores the reference box has.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let workdir = match WorkDir::claim() {
        Ok(dir) => dir,
        Err(msg) => {
            eprintln!("lasagna-benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return match check::run(&args, &workdir.0) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("lasagna-benchmark --check: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = run_once(&args, &workdir.0);
    print_stamp(&args, &workdir.0, &outcome.stamp);
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
