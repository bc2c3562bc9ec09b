//! End-to-end assembly across scales, budgets, and genome shapes.

use lasagna_repro::genome::sim::is_substring_either_strand;
use lasagna_repro::lasagna::verify::{count_false_edges, verify_contigs};
use lasagna_repro::prelude::*;

fn assemble(
    genome_len: usize,
    read_len: usize,
    coverage: f64,
    l_min: u32,
    seed: u64,
    host_bytes: u64,
    device_bytes: u64,
) -> (PackedSeq, ReadSet, lasagna::AssemblyOutput) {
    let genome = GenomeSim::uniform(genome_len, seed).generate();
    let reads = ShotgunSim::error_free(read_len, coverage, seed + 1).sample(&genome);
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(l_min, read_len as u32);
    let device = Device::with_capacity(GpuProfile::k40(), device_bytes);
    let host = HostMem::new(host_bytes);
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    let pipeline = Pipeline::new(device, host, spill, config).unwrap();
    let out = pipeline.assemble(&reads).unwrap();
    (genome, reads, out)
}

#[test]
fn repeat_free_genome_assembles_into_exact_contigs() {
    let (genome, _reads, out) = assemble(8_000, 80, 18.0, 50, 1, 64 << 20, 16 << 20);
    let report = verify_contigs(&genome, &out.contigs);
    assert!(report.all_exact(), "misassembled: {}", report.misassembled);
    assert!(out.report.contig_stats.n50 > 80, "N50 beyond read length");
    out.graph.check_invariants().unwrap();
}

#[test]
fn tight_memory_budgets_change_passes_not_results() {
    // Same dataset under generous and starved budgets: identical graphs,
    // more disk traffic when starved.
    let seed = 9;
    let (_g1, _r1, big) = assemble(4_000, 60, 12.0, 40, seed, 64 << 20, 16 << 20);
    let (_g2, _r2, small) = assemble(4_000, 60, 12.0, 40, seed, 40 << 10, 20 << 10);
    assert_eq!(big.report.graph_edges, small.report.graph_edges);
    let big_io: u64 = big.report.phases.iter().map(|p| p.io.bytes_read).sum();
    let small_io: u64 = small.report.phases.iter().map(|p| p.io.bytes_read).sum();
    assert!(
        small_io > big_io,
        "starved budgets must re-read data: {small_io} vs {big_io}"
    );
    // Contigs match too.
    assert_eq!(big.report.contig_stats, small.report.contig_stats);
}

#[test]
fn contigs_are_byte_identical_whatever_the_sort_block_sizes() {
    // Default budgets sort every partition as one device chunk; the shrunk
    // blocks sort it in 4 runs and 3 disk passes, through merge windows
    // that at this coverage cut runs of equal fingerprints. Both must hand
    // reduce the same (fingerprint, vertex) order.
    let genome = GenomeSim::uniform(20_000, 77).generate();
    let reads = ShotgunSim::error_free(100, 40.0, 78).sample(&genome);
    let assemble = |device_bytes: u64, sort: Option<SortConfig>| {
        let dir = stdx::tempdir().unwrap();
        let mut config = AssemblyConfig::for_dataset(63, 100);
        config.sort = sort;
        let device = Device::with_capacity(GpuProfile::k40(), device_bytes);
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        let pipeline = Pipeline::new(device, HostMem::new(64 << 20), spill, config).unwrap();
        pipeline.assemble(&reads).unwrap()
    };
    let roomy = assemble(16 << 20, None);
    let starved = assemble(
        64 << 10,
        Some(SortConfig {
            host_block_pairs: 5_000,
            device_block_pairs: 468,
            kway: false,
        }),
    );
    // One disk pass against three.
    let sort_bytes_read =
        |out: &lasagna::AssemblyOutput| out.report.phase("sort").unwrap().io.bytes_read;
    assert_eq!(sort_bytes_read(&starved), 3 * sort_bytes_read(&roomy));
    assert_eq!(roomy.graph.edge_count(), starved.graph.edge_count());
    // Not `assert_eq!`: a mismatch would print every contig twice.
    assert!(roomy.contigs == starved.contigs, "contigs differ");
}

#[test]
fn every_edge_in_the_graph_is_a_real_overlap() {
    let (_genome, reads, out) = assemble(6_000, 70, 15.0, 45, 21, 64 << 20, 16 << 20);
    assert!(out.report.graph_edges > 0);
    assert_eq!(count_false_edges(&out.graph, &reads), 0);
}

#[test]
fn repeats_produce_contigs_that_may_be_chimeric_but_cover_the_genome() {
    let genome = GenomeSim {
        len: 10_000,
        repeat_fraction: 0.05,
        repeat_len: 200,
        seed: 33,
    }
    .generate();
    let reads = ShotgunSim::error_free(100, 20.0, 34).sample(&genome);
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(63, 100);
    let out = Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble(&reads)
        .unwrap();
    // Even with repeats every *edge* is a true overlap; only contig
    // spelling across repeat boundaries can be chimeric.
    assert_eq!(count_false_edges(&out.graph, &reads), 0);
    assert!(out.report.contig_stats.total_bases as f64 > genome.len() as f64 * 0.5);
}

#[test]
fn higher_coverage_improves_contiguity() {
    let mut n50s = Vec::new();
    for coverage in [4.0, 10.0, 25.0] {
        let (_g, _r, out) = assemble(5_000, 80, coverage, 50, 55, 64 << 20, 16 << 20);
        n50s.push(out.report.contig_stats.n50);
    }
    assert!(n50s[0] < n50s[2], "N50 should grow with coverage: {n50s:?}");
}

#[test]
fn larger_l_min_is_more_conservative() {
    let seed = 77;
    let (_g, _r, loose) = assemble(5_000, 80, 12.0, 40, seed, 64 << 20, 16 << 20);
    let (_g, _r, strict) = assemble(5_000, 80, 12.0, 75, seed, 64 << 20, 16 << 20);
    assert!(
        strict.report.graph_edges <= loose.report.graph_edges,
        "more overlap required ⇒ fewer edges"
    );
}

#[test]
fn single_read_genome_survives() {
    let genome = GenomeSim::uniform(100, 5).generate();
    let mut reads = ReadSet::new(100);
    reads.push(&genome).unwrap();
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(63, 100);
    let out = Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble(&reads)
        .unwrap();
    assert_eq!(out.contigs.len(), 1);
    assert!(is_substring_either_strand(&out.contigs[0], &genome));
}

#[test]
fn reads_with_sequencing_errors_still_assemble_without_false_edges() {
    let genome = GenomeSim::uniform(6_000, 61).generate();
    let reads = ShotgunSim {
        read_len: 100,
        coverage: 25.0,
        strand_flip_prob: 0.5,
        error_rate: 0.005,
        seed: 62,
    }
    .sample(&genome);
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(63, 100);
    let out = Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble(&reads)
        .unwrap();
    // Errors reduce overlaps (exact matching) but can never fabricate one.
    assert_eq!(count_false_edges(&out.graph, &reads), 0);
}

#[test]
fn resume_skips_completed_phases_and_reproduces_the_result() {
    let genome = GenomeSim::uniform(3_000, 131).generate();
    let reads = ShotgunSim::error_free(70, 10.0, 132).sample(&genome);
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(45, 70);

    // First run: everything executes, manifest + graph checkpoint land in
    // the spill directory.
    let first = Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble_resumable(&reads)
        .unwrap();
    assert!(dir.path().join("manifest.json").exists());
    assert!(dir.path().join("graph.bin").exists());

    // Second run in the same directory: map/sort/reduce are skipped.
    let resumed_pipeline = Pipeline::laptop(config, dir.path()).unwrap();
    let second = resumed_pipeline.assemble_resumable(&reads).unwrap();
    let names: Vec<&str> = second
        .report
        .phases
        .iter()
        .map(|p| p.phase.as_str())
        .collect();
    assert!(names.contains(&"map (resumed)"), "{names:?}");
    assert!(names.contains(&"sort (resumed)"), "{names:?}");
    assert!(names.contains(&"reduce (resumed)"), "{names:?}");
    // Skipped phases cost nothing.
    for p in &second.report.phases {
        if p.phase.ends_with("(resumed)") {
            assert_eq!(p.modeled_seconds, 0.0, "{}", p.phase);
        }
    }

    // Identical output.
    assert_eq!(first.report.graph_edges, second.report.graph_edges);
    assert_eq!(first.report.contig_stats, second.report.contig_stats);
    for v in 0..first.graph.vertex_count() {
        assert_eq!(first.graph.out(v), second.graph.out(v));
    }
}

#[test]
fn resume_restarts_when_the_dataset_changes() {
    let genome = GenomeSim::uniform(2_000, 141).generate();
    let reads_a = ShotgunSim::error_free(70, 8.0, 142).sample(&genome);
    let reads_b = ShotgunSim::error_free(70, 8.0, 143).sample(&genome);
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(45, 70);

    Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble_resumable(&reads_a)
        .unwrap();
    // Different reads in the same directory: nothing may be reused.
    let out = Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble_resumable(&reads_b)
        .unwrap();
    for p in &out.report.phases {
        assert!(
            !p.phase.ends_with("(resumed)"),
            "phase {} wrongly resumed across datasets",
            p.phase
        );
    }
}

#[test]
fn plain_assemble_ignores_stale_manifests() {
    let genome = GenomeSim::uniform(2_000, 151).generate();
    let reads = ShotgunSim::error_free(70, 8.0, 152).sample(&genome);
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(45, 70);
    Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble_resumable(&reads)
        .unwrap();
    let out = Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble(&reads)
        .unwrap();
    for p in &out.report.phases {
        assert!(!p.phase.ends_with("(resumed)"));
    }
}

#[test]
fn extsort_shape_sorted_partitions_and_device_bill_are_pinned() {
    // The benchmark's `asm_extsort` shape (10 000 reads of 100 bp at 40x,
    // m_h 5 000, m_d 468, 64 KiB device) on this repository's simulators.
    // Recorded at commit 875a1fb, before the sort ran on columns, one bucket
    // pass and a commit per host block: the 74 sorted partition files and
    // everything the device was charged must not move with how the host
    // executes the sort.
    use lasagna_repro::gstream::{read_footer, Fnv64, PartitionKind};
    struct Golden {
        seed: u64,
        footers: u64,
        launches: u64,
        h2d_bytes: u64,
        d2h_bytes: u64,
        kernel_seconds: u64,
        transfer_seconds: u64,
    }
    let goldens = [
        Golden {
            seed: 1,
            footers: 0x5b35_81e1_2875_042c,
            launches: 33_603,
            h2d_bytes: 221_967_232,
            d2h_bytes: 233_307_976,
            kernel_seconds: 0x3fc8_86be_f433_4cc1,
            transfer_seconds: 0x3fa3_6cd1_c02c_610d,
        },
        Golden {
            seed: 3,
            footers: 0x9e32_16ef_bd64_bcb8,
            launches: 33_550,
            h2d_bytes: 221_962_156,
            d2h_bytes: 233_302_692,
            kernel_seconds: 0x3fc8_7e0e_e43f_340f,
            transfer_seconds: 0x3fa3_6cb4_c832_4d4b,
        },
    ];
    for golden in goldens {
        let genome = GenomeSim::uniform(25_000, golden.seed).generate();
        let reads = ShotgunSim::error_free(100, 40.0, golden.seed + 1).sample(&genome);
        let dir = stdx::tempdir().unwrap();
        let mut config = AssemblyConfig::for_dataset(63, 100);
        config.sort = Some(SortConfig {
            host_block_pairs: 5_000,
            device_block_pairs: 468,
            kway: false,
        });
        let device = Device::with_capacity(GpuProfile::k40(), 64 << 10);
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        let pipeline = Pipeline::new(device, HostMem::new(64 << 20), spill, config).unwrap();
        pipeline.assemble(&reads).unwrap();

        // Every sorted partition's footer (record count + XXH64), in order.
        let mut footers = Fnv64::new();
        let mut files = 0;
        for len in 63..100 {
            for kind in [PartitionKind::Suffix, PartitionKind::Prefix] {
                let footer = read_footer(&pipeline.spill().path(kind, len)).unwrap();
                footers.update(&footer.records.to_le_bytes());
                footers.update(&footer.checksum.to_le_bytes());
                files += 1;
            }
        }
        let seed = golden.seed;
        assert_eq!(files, 74);
        assert_eq!(footers.finish(), golden.footers, "seed {seed}: footers");
        let stats = pipeline.device().stats();
        assert_eq!(stats.kernel_launches, golden.launches, "seed {seed}");
        assert_eq!(stats.h2d_bytes, golden.h2d_bytes, "seed {seed}");
        assert_eq!(stats.d2h_bytes, golden.d2h_bytes, "seed {seed}");
        // To the last bit: the same charges added in the same order.
        assert_eq!(
            stats.kernel_seconds.to_bits(),
            golden.kernel_seconds,
            "seed {seed}: kernel_seconds {}",
            stats.kernel_seconds
        );
        assert_eq!(
            stats.transfer_seconds.to_bits(),
            golden.transfer_seconds,
            "seed {seed}: transfer_seconds {}",
            stats.transfer_seconds
        );
    }
}

#[test]
fn reduce_candidates_edges_and_contigs_are_pinned_under_both_budgets() {
    // The benchmark's two assembly shapes on this repository's simulators:
    // every partition one window on an 8 MiB device, and the `asm_extsort`
    // budgets whose 64 KiB device cuts each partition into dozens of
    // window rounds. Recorded at commit f9884ea, when reduce ran two binary
    // searches per suffix over `Vec<KvPair>` windows: a reduce that drops,
    // invents or reorders a candidate moves one of these.
    let goldens = [(1, 296_900, 19_376, 312), (2, 297_092, 19_394, 303)];
    for (seed, candidates, edges, contigs) in goldens {
        let genome = GenomeSim::uniform(25_000, seed).generate();
        let reads = ShotgunSim::error_free(100, 40.0, seed + 1).sample(&genome);
        let starved = SortConfig {
            host_block_pairs: 5_000,
            device_block_pairs: 468,
            kway: false,
        };
        for (device_bytes, sort) in [(8 << 20, None), (64 << 10, Some(starved))] {
            let dir = stdx::tempdir().unwrap();
            let mut config = AssemblyConfig::for_dataset(63, 100);
            config.sort = sort;
            let device = Device::with_capacity(GpuProfile::k40(), device_bytes);
            let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
            let pipeline = Pipeline::new(device, HostMem::new(64 << 20), spill, config)
                .unwrap()
                .with_recorder(obs::Recorder::new());
            let out = pipeline.assemble(&reads).unwrap();
            let totals = obs::Rollup::from_events(&pipeline.recorder().events()).totals();
            let what = format!("seed {seed}, device {device_bytes} B");
            assert_eq!(totals.counter("reduce.candidates"), candidates, "{what}");
            assert_eq!(out.graph.edge_count(), edges, "{what}");
            assert_eq!(out.contigs.len(), contigs, "{what}");
        }
    }
}
