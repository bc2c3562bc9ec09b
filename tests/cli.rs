//! End-to-end exercise of the `lasagna-cli` binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lasagna-cli"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lasagna-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn simulate_assemble_stats_roundtrip() {
    let dir = workdir("roundtrip");
    let reads = dir.join("reads.fastq");
    let reference = dir.join("ref.fa");
    let contigs = dir.join("contigs.fa");

    let sim = cli()
        .args([
            "simulate",
            "--genome-len",
            "8000",
            "--coverage",
            "12",
            "--read-len",
            "80",
        ])
        .args(["--seed", "9", "--out"])
        .arg(&reads)
        .arg("--reference")
        .arg(&reference)
        .output()
        .expect("run simulate");
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    assert!(reads.exists() && reference.exists());

    let asm = cli()
        .args(["assemble", "--reads"])
        .arg(&reads)
        .args(["--out"])
        .arg(&contigs)
        .args(["--work"])
        .arg(dir.join("work"))
        .output()
        .expect("run assemble");
    assert!(
        asm.status.success(),
        "{}",
        String::from_utf8_lossy(&asm.stderr)
    );
    let stdout = String::from_utf8_lossy(&asm.stdout);
    assert!(stdout.contains("contigs written"), "{stdout}");

    let stats = cli()
        .args(["stats", "--contigs"])
        .arg(&contigs)
        .arg("--reference")
        .arg(&reference)
        .output()
        .expect("run stats");
    assert!(stats.status.success());
    let out = String::from_utf8_lossy(&stats.stdout);
    assert!(out.contains("N50"), "{out}");
    assert!(out.contains("align exactly"), "{out}");
}

#[test]
fn full_graph_mode_works() {
    let dir = workdir("modes");
    let reads = dir.join("reads.fastq");
    cli()
        .args([
            "simulate",
            "--genome-len",
            "5000",
            "--coverage",
            "10",
            "--read-len",
            "80",
        ])
        .args(["--seed", "11", "--out"])
        .arg(&reads)
        .status()
        .expect("simulate");

    let out = dir.join("contigs_full.fa");
    let run = cli()
        .args(["assemble", "--reads"])
        .arg(&reads)
        .args(["--out"])
        .arg(&out)
        .args(["--work"])
        .arg(dir.join("work_full"))
        .args(["--graph", "full"])
        .output()
        .expect("assemble");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(out.exists(), "full graph mode wrote no contigs");
}

#[test]
fn bad_arguments_exit_nonzero_with_a_message() {
    let out = cli().args(["assemble"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--reads"));

    let out = cli().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());

    // `index` imports contigs; without `--contigs` it has nothing to serve.
    let work = workdir("index-without-contigs");
    let out = cli()
        .args(["index", "--work", work.to_str().unwrap()])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--contigs"));

    let out = cli()
        .args([
            "assemble",
            "--reads",
            "/nonexistent.fastq",
            "--out",
            "/tmp/x.fa",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
}

#[test]
fn trace_out_and_inspect_trace_render_partition_breakdown() {
    let dir = workdir("trace");
    let reads = dir.join("reads.fastq");
    cli()
        .args([
            "simulate",
            "--genome-len",
            "4000",
            "--coverage",
            "10",
            "--read-len",
            "64",
        ])
        .args(["--seed", "17", "--out"])
        .arg(&reads)
        .status()
        .expect("simulate");

    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("report.json");
    let asm = cli()
        .args(["assemble", "--reads"])
        .arg(&reads)
        .args(["--out"])
        .arg(dir.join("contigs.fa"))
        .args(["--work"])
        .arg(dir.join("work"))
        .args(["--trace-out"])
        .arg(&trace)
        .args(["--metrics-json"])
        .arg(&metrics)
        .output()
        .expect("assemble");
    assert!(
        asm.status.success(),
        "{}",
        String::from_utf8_lossy(&asm.stderr)
    );
    assert!(trace.exists() && metrics.exists());

    let report: lasagna_repro::lasagna::AssemblyReport =
        stdx::json::from_slice(&std::fs::read(&metrics).unwrap()).unwrap();
    assert_eq!(
        report
            .phases
            .iter()
            .map(|p| p.phase.as_str())
            .collect::<Vec<_>>(),
        vec!["load", "map", "sort", "reduce", "compress"]
    );

    let inspect = cli()
        .args(["inspect-trace", "--trace"])
        .arg(&trace)
        .output()
        .expect("inspect-trace");
    assert!(
        inspect.status.success(),
        "{}",
        String::from_utf8_lossy(&inspect.stderr)
    );
    let out = String::from_utf8_lossy(&inspect.stdout);
    assert!(out.contains("assembly"), "{out}");
    for needle in ["sfx_", "pfx_", "len_", "merge passes", "window advances"] {
        assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
    }
}

/// The count `line` prints before `unit` (`"… 12 accepted, …"`).
fn count_of(line: &str, unit: &str) -> Option<u64> {
    let line = format!("{line},");
    let (head, _) = line.split_once(&format!(" {unit},"))?;
    head.rsplit(' ').next()?.parse::<u64>().ok()
}

/// The sort rows' pairs, summed, and each reduce row's candidates, of an
/// `inspect-trace` listing's partition (or rank) rows.
fn partition_rows(listing: &str) -> (u64, Vec<u64>) {
    let (mut pairs, mut candidates) = (0, Vec::new());
    for line in listing.lines().filter(|line| line.starts_with("    ")) {
        pairs += count_of(line, "pairs").unwrap_or(0);
        candidates.extend(count_of(line, "candidates"));
    }
    (pairs, candidates)
}

/// The reduce phase row's candidates, accepted and rejected edges.
fn reduce_row(listing: &str) -> [u64; 3] {
    let row = listing.lines().find(|line| line.starts_with("  reduce "));
    let row = row.unwrap_or_else(|| panic!("no reduce row in:\n{listing}"));
    ["candidates", "accepted", "rejected"]
        .map(|unit| count_of(row, unit).unwrap_or_else(|| panic!("no {unit} in {row:?}")))
}

#[test]
fn inspect_trace_shows_real_rank_rows_of_a_distributed_trace() {
    let dir = workdir("dtrace");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let reads = path("reads.fastq");
    run_ok(&[
        "simulate",
        "--genome-len",
        "3000",
        "--coverage",
        "8",
        "--read-len",
        "60",
        "--seed",
        "31",
        "--out",
        &reads,
    ]);
    let listing = |command: &str, extra: &[&str], root: &str| {
        let trace = path(&format!("{command}.jsonl"));
        let (out, work) = (path(&format!("{command}.fa")), path(command));
        let mut args = vec![command, "--reads", &reads, "--out", &out, "--work", &work];
        args.extend(extra);
        args.extend(["--trace-out", &trace]);
        run_ok(&args);
        run_ok(&["inspect-trace", "--trace", &trace, "--root", root])
    };
    let single = listing("assemble", &[], "assembly");
    let nodes = ["--nodes", "2", "--block-reads", "64"];
    let distributed = listing("assemble-distributed", &nodes, "distributed");

    let ((expect_pairs, _), (pairs, candidates)) =
        (partition_rows(&single), partition_rows(&distributed));
    assert!(expect_pairs > 0, "{single}");
    assert_eq!(pairs, expect_pairs, "sort rows of:\n{distributed}");
    assert_eq!(
        candidates.len(),
        2,
        "one reduce row per rank in:\n{distributed}"
    );
    assert!(
        candidates.iter().all(|&c| c > 0),
        "a reduce row reads 0 candidates in:\n{distributed}"
    );
    // The guard's verdicts are the commit's, not a rank's: the phase row
    // reads them, and they are the single-node assembly's.
    let [offered, accepted, rejected] = reduce_row(&distributed);
    assert_eq!(accepted + rejected, offered, "{distributed}");
    assert_eq!(offered, candidates.iter().sum::<u64>(), "{distributed}");
    assert_eq!(accepted, reduce_row(&single)[1], "{single}\n{distributed}");
    assert!(
        distributed
            .lines()
            .all(|line| !line.starts_with("    rank") || count_of(line, "accepted").is_none()),
        "a rank row prints verdicts it does not carry:\n{distributed}"
    );
    assert!(
        distributed
            .lines()
            .any(|line| line.starts_with("  compress ")),
        "no compress row in:\n{distributed}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn assemble_distributed_writes_the_contigs_assemble_writes() {
    let dir = workdir("dcontigs");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let reads = path("reads.fastq");
    run_ok(&[
        "simulate",
        "--genome-len",
        "3000",
        "--coverage",
        "8",
        "--read-len",
        "60",
        "--seed",
        "37",
        "--out",
        &reads,
    ]);
    let contigs = |command: &str, extra: &[&str]| {
        let tag = format!("{command}{}", extra.concat());
        let (out, work) = (path(&format!("{tag}.fa")), path(&tag));
        let mut args = vec![command, "--reads", &reads, "--out", &out, "--work", &work];
        args.extend(extra);
        run_ok(&args);
        std::fs::read(&out).unwrap()
    };
    let expect = contigs("assemble", &[]);
    assert!(!expect.is_empty());
    for nodes in ["1", "2", "3"] {
        for reduce in ["token", "range"] {
            let extra = ["--nodes", nodes, "--block-reads", "64", "--reduce", reduce];
            let got = contigs("assemble-distributed", &extra);
            assert!(got == expect, "{nodes} nodes, {reduce} reduce");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_codes_distinguish_corrupt_oom_and_io() {
    let dir = workdir("exitcodes");
    let reads = dir.join("reads.fastq");
    cli()
        .args([
            "simulate",
            "--genome-len",
            "3000",
            "--coverage",
            "8",
            "--read-len",
            "60",
        ])
        .args(["--seed", "19", "--out"])
        .arg(&reads)
        .status()
        .expect("simulate");

    // Out of memory: a 1 KB device cannot hold a single batch.
    let oom = cli()
        .args(["assemble", "--reads"])
        .arg(&reads)
        .args(["--out"])
        .arg(dir.join("oom.fa"))
        .args(["--work"])
        .arg(dir.join("work_oom"))
        .args(["--device-mem", "1K"])
        .output()
        .expect("assemble");
    assert_eq!(
        oom.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&oom.stderr)
    );

    // I/O failure: the work dir cannot be created under a regular file.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"in the way").unwrap();
    let io = cli()
        .args(["assemble", "--reads"])
        .arg(&reads)
        .args(["--out"])
        .arg(dir.join("io.fa"))
        .args(["--work"])
        .arg(blocker.join("sub"))
        .output()
        .expect("assemble");
    assert_eq!(
        io.status.code(),
        Some(5),
        "{}",
        String::from_utf8_lossy(&io.stderr)
    );

    // Corruption: finish a checkpointed run, flip one bit in a sorted
    // partition, and resume — the validator must refuse it.
    let work = dir.join("work_corrupt");
    let assemble_resume = || {
        cli()
            .args(["assemble", "--reads"])
            .arg(&reads)
            .args(["--out"])
            .arg(dir.join("corrupt.fa"))
            .args(["--work"])
            .arg(&work)
            .args(["--resume", "yes"])
            .output()
            .expect("assemble")
    };
    let clean = assemble_resume();
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let victim = std::fs::read_dir(&work)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("sfx_"))
        })
        .expect("no sorted partition in the work dir");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, bytes).unwrap();
    let corrupt = assemble_resume();
    assert_eq!(
        corrupt.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&corrupt.stderr)
    );
    let stderr = String::from_utf8_lossy(&corrupt.stderr);
    assert!(stderr.contains("corrupt"), "{stderr}");
}

#[test]
fn assemble_distributed_roundtrip_resume_and_corrupt_log() {
    let dir = workdir("distributed");
    let reads = dir.join("reads.fastq");
    cli()
        .args([
            "simulate",
            "--genome-len",
            "3000",
            "--coverage",
            "8",
            "--read-len",
            "60",
        ])
        .args(["--seed", "23", "--out"])
        .arg(&reads)
        .status()
        .expect("simulate");

    let work = dir.join("dwork");
    let contigs = dir.join("contigs.fa");
    let metrics = dir.join("dreport.json");
    let run = |resume: bool| {
        let mut c = cli();
        c.args(["assemble-distributed", "--reads"])
            .arg(&reads)
            .args(["--out"])
            .arg(&contigs)
            .args(["--work"])
            .arg(&work)
            .args(["--nodes", "2", "--block-reads", "64"])
            .args(["--metrics-json"])
            .arg(&metrics);
        if resume {
            c.args(["--resume", "yes"]);
        }
        c.output().expect("assemble-distributed")
    };

    let clean = run(false);
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let report: lasagna_repro::dnet::DistributedReport =
        stdx::json::from_slice(&std::fs::read(&metrics).unwrap()).unwrap();
    assert_eq!(
        report
            .phases
            .iter()
            .map(|p| p.phase.as_str())
            .collect::<Vec<_>>(),
        vec!["load", "map", "shuffle", "sort", "reduce", "compress"]
    );
    // The same phase record as a single-node assembly's: the ranks'
    // device and disk traffic, not only their seconds.
    let map = report.phase("map").unwrap();
    assert!(map.device.kernel_launches > 0, "{map:?}");
    assert!(map.io.bytes_written > 0, "{map:?}");
    let compress = report.phase("compress").unwrap();
    assert!(compress.host_peak_bytes > 0, "{compress:?}");
    assert!(report.contig_stats.count > 0, "{report:?}");
    assert!(!report.resumed);
    let first_fa = std::fs::read(&contigs).expect("no contigs written");
    assert!(!first_fa.is_empty());

    // Resume of the completed run: skip everything, identical contigs.
    let resumed = run(true);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains("resumed"), "{stdout}");
    let report: lasagna_repro::dnet::DistributedReport =
        stdx::json::from_slice(&std::fs::read(&metrics).unwrap()).unwrap();
    assert!(report.resumed);
    assert_eq!(std::fs::read(&contigs).unwrap(), first_fa);

    // Flip one byte mid superstep log: the resume must refuse with the
    // corruption exit code rather than guess at the damaged record.
    let log = work.join("superstep.log");
    let mut bytes = std::fs::read(&log).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&log, bytes).unwrap();
    let corrupt = run(true);
    assert_eq!(
        corrupt.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&corrupt.stderr)
    );
    assert!(String::from_utf8_lossy(&corrupt.stderr).contains("corrupt"));
}

#[test]
fn assemble_distributed_exit_codes_match_the_single_node_ones() {
    // Each row sets up a failure in its own work dir and names the exit
    // code and the stderr text the distributed assembler must answer
    // with, as `assemble` does. The reads have `l_min` 37, a length that
    // rank 0 owns on two nodes.
    let dir = workdir("distributed-exit");
    let reads = dir.join("reads.fastq");
    let simulate = cli()
        .args(["simulate", "--genome-len", "3000", "--coverage", "8"])
        .args(["--read-len", "60", "--seed", "23", "--out"])
        .arg(&reads)
        .status()
        .expect("simulate");
    assert!(simulate.success());
    let run = |work: &Path, extra: &[&str]| {
        cli()
            .args(["assemble-distributed", "--reads"])
            .arg(&reads)
            .args(["--out"])
            .arg(dir.join("contigs.fa"))
            .args(["--work"])
            .arg(work)
            .args(extra)
            .output()
            .expect("assemble-distributed")
    };
    // A regular file where node 0's directory must go.
    let blocked = |work: &Path| {
        std::fs::create_dir_all(work).unwrap();
        std::fs::write(work.join("node0"), b"in the way").unwrap();
    };
    // A clean run, then one bit flipped in both rank 0 files of length
    // 37: the unreadable candidate list sends the resume back to the
    // join, which must refuse the sorted partition it reads.
    let damaged = |work: &Path| {
        assert!(run(work, &[]).status.success(), "clean run failed");
        for file in ["sfx_00037.kv", "cnd_00037_r000.kv"] {
            let path = work.join("node0").join(file);
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&path, bytes).unwrap();
        }
    };
    type Row<'a> = (
        &'a str,
        &'a dyn Fn(&Path),
        &'a [&'a str],
        i32,
        &'a [&'a str],
    );
    let rows: [Row; 3] = [
        ("io", &blocked, &[], 5, &["node 0: ", "I/O error"]),
        (
            "oom",
            &|_| {},
            &["--device-mem", "1K"],
            4,
            // The input is one block, so either rank may map it.
            &[": device: device out of memory"],
        ),
        (
            "corrupt",
            &damaged,
            &["--resume", "yes"],
            3,
            &[
                "node 0: stream: corrupt stream: ",
                "sfx_00037.kv checksum mismatch",
            ],
        ),
    ];
    for (name, setup, extra, code, texts) in rows {
        let work = dir.join(format!("dwork-{name}"));
        setup(&work);
        let out = run(&work, extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{name}: {stderr}");
        assert!(stderr.starts_with("lasagna: node "), "{name}: {stderr}");
        for text in texts {
            assert!(stderr.contains(text), "{name}: {stderr}");
        }
    }
}

#[test]
fn unknown_options_exit_2_naming_the_flag() {
    // Each command is valid but for one option it does not read: a
    // deleted flag, or one only another command reads. The CLI must
    // refuse it by name instead of running without it.
    let dir = workdir("unknown-opts");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (reads, contigs, work) = (path("reads.fastq"), path("contigs.fa"), path("work"));
    let simulate = [
        "simulate",
        "--genome-len",
        "5000",
        "--seed",
        "17",
        "--out",
        &reads,
    ];
    let assemble = [
        "assemble", "--reads", &reads, "--out", &contigs, "--work", &work,
    ];
    let query = ["query", "--work", &work, "--reads", &reads];
    for setup in [
        &simulate[..],
        &assemble,
        &["index", "--work", &work, "--contigs", &contigs],
        &query,
    ] {
        let out = cli().args(setup).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{setup:?}: {stderr}");
    }

    for (command, flag, value) in [
        (&assemble[..], "--correct", "21"),
        (&assemble, "--traversal", "bsp"),
        (&query, "--auth-secret", "S"),
        (&query, "--cache-mb", "16"),
        (&simulate, "--workers", "2"),
        (&assemble, "--shards", "2"),
        (&query, "--trace-out", "trace.jsonl"),
    ] {
        let out = cli()
            .args(command)
            .args([flag, value])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command:?} {flag}: {stderr}");
        assert!(stderr.contains(flag), "{command:?} {flag}: {stderr}");
    }
}

/// A spawned `lasagna-cli` server, killed on drop so that a failing
/// assertion cannot leave it running.
struct Spawned {
    child: std::process::Child,
    stdout: std::io::BufReader<std::process::ChildStdout>,
}

impl Spawned {
    fn start(args: &[&str]) -> Spawned {
        let mut child = cli()
            .args(args)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn server");
        let stdout = std::io::BufReader::new(child.stdout.take().unwrap());
        Spawned { child, stdout }
    }

    /// The next stdout line, panicking if the server exits first.
    fn line(&mut self) -> String {
        use std::io::BufRead;
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .expect("read server stdout");
        assert!(n > 0, "server exited: {:?}", self.child.wait());
        line.trim_end().to_string()
    }

    /// Wait for the server to exit on its own; true when it exited 0.
    fn exited_ok(mut self) -> bool {
        self.child.wait().expect("wait server").success()
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run one CLI command to success and return its stdout.
fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn serving_commands_answer_alike_in_process_over_tcp_and_through_the_router() {
    let dir = workdir("serving");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (reads, queries, work) = (path("reads.fastq"), path("queries.fastq"), path("work"));
    let simulate = ["simulate", "--genome-len", "5000", "--seed", "7"];
    run_ok(&[&simulate[..], &["--coverage", "10", "--out", &reads]].concat());
    run_ok(&[
        "assemble",
        "--reads",
        &reads,
        "--out",
        &path("contigs.fa"),
        "--work",
        &work,
    ]);
    run_ok(&["index", "--work", &work, "--contigs", &path("contigs.fa")]);
    let mut sim_queries = simulate.to_vec();
    sim_queries.extend(["--coverage", "2", "--error-rate", "0.01", "--out", &queries]);
    run_ok(&sim_queries);
    let query = |arm: &[&str], out: &str| {
        run_ok(&[&["query", "--reads", &queries, "--out", out], arm].concat());
        std::fs::read_to_string(out).unwrap()
    };

    let in_process = query(&["--work", &work], &path("hits_work.tsv"));

    let mut serve = Spawned::start(&["serve", "--work", &work, "--addr", "127.0.0.1:0"]);
    let listening = serve.line();
    let addr = listening.strip_prefix("listening ").expect(&listening);
    let over_tcp = query(&["--connect", addr], &path("hits_connect.tsv"));
    let stats = run_ok(&["stats", "--connect", addr, "--format", "tsv"]);
    assert!(
        stats.lines().any(|l| l.starts_with("accepted\t")),
        "{stats}"
    );
    run_ok(&["shutdown", "--connect", addr]);
    assert!(serve.exited_ok());

    let manifest = path("cluster.json");
    let mut cluster = Spawned::start(&[
        "serve-cluster",
        "--work",
        &work,
        "--shards",
        "2",
        "--replicas",
        "1",
        "--manifest",
        &manifest,
    ]);
    let mut replicas = Vec::new();
    loop {
        let line = cluster.line();
        if line.starts_with("cluster manifest") {
            break;
        }
        replicas.push(line.rsplit(' ').next().unwrap().to_string());
    }
    assert_eq!(replicas.len(), 2, "{replicas:?}");
    let routed = query(&["--router", &manifest], &path("hits_router.tsv"));
    run_ok(&["shutdown", "--connect", &replicas[1]]);
    assert!(cluster.exited_ok());

    let listed = run_ok(&["generations", "--work", &work]);
    assert!(listed.contains("active: generation 1 (*)"), "{listed}");

    // 100 reads at 1 % error; 87 of them map onto this assembly.
    let mapped = in_process.lines().filter(|l| !l.ends_with("\t*")).count();
    assert_eq!(in_process.lines().count(), 100);
    assert_eq!(mapped, 87, "{in_process}");
    assert_eq!(over_tcp, in_process);
    assert_eq!(routed, in_process);
}

#[test]
fn serve_boots_the_active_generation_and_reload_swaps_it() {
    use lasagna_repro::genome::fastq::{write_fasta, write_fastq};
    use lasagna_repro::prelude::GenomeSim;

    // Two generations with disjoint contigs, each imported by its own
    // `index --contigs` run; the second import is active.
    let dir = workdir("reload");
    let work = dir.join("work");
    let contig = |seed| {
        GenomeSim {
            len: 3_000,
            repeat_fraction: 0.0,
            repeat_len: 200,
            seed,
        }
        .generate()
    };
    let (gen1, gen2) = (contig(31), contig(32));
    for (name, contigs) in [("gen1.fa", &gen1), ("gen2.fa", &gen2)] {
        let fasta = dir.join(name);
        write_fasta(&fasta, [("contig_0", contigs)]).unwrap();
        let (work, fasta) = (work.to_str().unwrap(), fasta.to_str().unwrap());
        run_ok(&["index", "--work", work, "--contigs", fasta]);
    }
    let queries = dir.join("queries.fastq");
    write_fastq(&queries, [("from_gen1", &gen1.slice(1_000, 100))]).unwrap();
    let (work, queries) = (work.to_str().unwrap(), queries.to_str().unwrap());

    let mut serve = Spawned::start(&["serve", "--work", work]);
    let listening = serve.line();
    let addr = listening.strip_prefix("listening ").expect(&listening);
    let generation = || {
        let stats = run_ok(&["stats", "--connect", addr, "--format", "tsv"]);
        let row = stats.lines().find_map(|l| l.strip_prefix("generation\t"));
        row.expect(&stats).to_string()
    };
    let mapped = || {
        let summary = run_ok(&["query", "--connect", addr, "--reads", queries]);
        summary.contains(": 1 mapped, 0 unmapped")
    };

    assert_eq!(generation(), "2");
    assert!(
        !mapped(),
        "generation 2 has no contig the read was cut from"
    );
    let reload = run_ok(&["reload", "--connect", addr, "--generation", "1"]);
    assert!(reload.contains("now serving generation 1"), "{reload}");
    assert_eq!(generation(), "1");
    assert!(mapped(), "the read must map once generation 1 serves");
    run_ok(&["shutdown", "--connect", addr]);
    assert!(serve.exited_ok());
}
