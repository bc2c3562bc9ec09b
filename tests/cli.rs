//! End-to-end exercise of the `lasagna-cli` binary.

use std::path::PathBuf;
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
fn full_graph_and_bsp_modes_work() {
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

    for (mode, extra) in [
        ("full", vec!["--graph", "full"]),
        ("bsp", vec!["--traversal", "bsp"]),
    ] {
        let out = dir.join(format!("contigs_{mode}.fa"));
        let run = cli()
            .args(["assemble", "--reads"])
            .arg(&reads)
            .args(["--out"])
            .arg(&out)
            .args(["--work"])
            .arg(dir.join(format!("work_{mode}")))
            .args(&extra)
            .output()
            .expect("assemble");
        assert!(
            run.status.success(),
            "{mode}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert!(out.exists(), "{mode} wrote no contigs");
    }
}

#[test]
fn bad_arguments_exit_nonzero_with_a_message() {
    let out = cli().args(["assemble"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--reads"));

    let out = cli().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());

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
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>(),
        vec!["map", "shuffle", "sort", "reduce"]
    );
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
fn error_correction_flag_runs() {
    let dir = workdir("correct");
    let reads = dir.join("noisy.fastq");
    cli()
        .args([
            "simulate",
            "--genome-len",
            "6000",
            "--coverage",
            "20",
            "--read-len",
            "80",
        ])
        .args(["--error-rate", "0.01", "--seed", "13", "--out"])
        .arg(&reads)
        .status()
        .expect("simulate");
    let out = cli()
        .args(["assemble", "--reads"])
        .arg(&reads)
        .args(["--out"])
        .arg(dir.join("contigs.fa"))
        .args(["--work"])
        .arg(dir.join("work"))
        .args(["--correct", "21"])
        .output()
        .expect("assemble");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error correction"), "{stdout}");
}
