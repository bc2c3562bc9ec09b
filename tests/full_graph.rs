//! The full (Myers) string graph vs the paper's greedy heuristic.
//!
//! The greedy graph guesses through repeats (one out-edge per vertex, the
//! longest overlap wins) and can spell chimeric contigs; the full graph
//! with transitive reduction stops at ambiguous branches. These tests pin
//! down that trade-off.

use lasagna_repro::lasagna::contig::generate_contigs;
use lasagna_repro::lasagna::fullgraph::assemble_full;
use lasagna_repro::lasagna::verify::verify_contigs;
use lasagna_repro::prelude::*;

fn setup(host_bytes: u64) -> (Device, HostMem, stdx::TempDir) {
    (
        Device::with_capacity(GpuProfile::k40(), 16 << 20),
        HostMem::new(host_bytes),
        stdx::tempdir().unwrap(),
    )
}

#[test]
fn full_graph_assembly_is_exact_on_clean_genomes() {
    let genome = GenomeSim::uniform(6_000, 71).generate();
    let reads = ShotgunSim::error_free(80, 16.0, 72).sample(&genome);
    let (device, host, dir) = setup(64 << 20);
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    let config = AssemblyConfig::for_dataset(50, 80);

    let (graph, paths) = assemble_full(&device, &host, &spill, &config, &reads).unwrap();
    assert!(graph.edge_count() > 0);
    let (contigs, stats) = generate_contigs(&device, &host, &reads, &paths).unwrap();
    assert!(stats.n50 > 80, "N50 {} beyond read length", stats.n50);
    let report = verify_contigs(&genome, &contigs);
    assert!(
        report.all_exact(),
        "{} of {} contigs misassembled",
        report.misassembled,
        report.contigs
    );
}

#[test]
fn transitive_reduction_shrinks_high_coverage_graphs_substantially() {
    let genome = GenomeSim::uniform(3_000, 81).generate();
    let reads = ShotgunSim::error_free(80, 25.0, 82).sample(&genome);
    let (device, host, dir) = setup(64 << 20);
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    let config = AssemblyConfig::for_dataset(40, 80);

    lasagna_repro::lasagna::map::run(&device, &host, &spill, &config, &reads).unwrap();
    lasagna_repro::lasagna::sortphase::run(&device, &host, &spill, &config).unwrap();
    let mut graph =
        lasagna_repro::lasagna::fullgraph::reduce_full(&device, &host, &spill, &config, &reads)
            .unwrap();
    graph.remove_duplicates(&reads);
    graph.keep_best_per_pair();
    let before = graph.edge_count();
    let removed = graph.transitive_reduction();
    let after = graph.edge_count();
    assert_eq!(before - removed, after);
    assert!(
        removed as f64 > before as f64 * 0.3,
        "at 25× coverage most edges are transitive: removed {removed} of {before}"
    );
}

#[test]
fn full_graph_misassembles_less_than_greedy_on_repeat_heavy_genomes() {
    let genome = GenomeSim {
        len: 8_000,
        repeat_fraction: 0.10,
        repeat_len: 250,
        seed: 91,
    }
    .generate();
    let reads = ShotgunSim::error_free(100, 20.0, 92).sample(&genome);

    // Greedy pipeline.
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(63, 100);
    let greedy = Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble(&reads)
        .unwrap();
    let greedy_report = verify_contigs(&genome, &greedy.contigs);

    // Full-graph pipeline.
    let (device, host, dir2) = setup(256 << 20);
    let spill = SpillDir::create(dir2.path(), IoStats::default()).unwrap();
    let (_graph, paths) = assemble_full(&device, &host, &spill, &config, &reads).unwrap();
    let (contigs, _stats) = generate_contigs(&device, &host, &reads, &paths).unwrap();
    let full_report = verify_contigs(&genome, &contigs);

    let greedy_rate = greedy_report.misassembled as f64 / greedy_report.contigs.max(1) as f64;
    let full_rate = full_report.misassembled as f64 / full_report.contigs.max(1) as f64;
    assert!(
        full_rate <= greedy_rate,
        "full graph must not misassemble more: {full_rate:.3} vs {greedy_rate:.3} \
         ({} of {} vs {} of {})",
        full_report.misassembled,
        full_report.contigs,
        greedy_report.misassembled,
        greedy_report.contigs
    );
}

#[test]
fn every_read_appears_exactly_once_across_full_graph_paths() {
    let genome = GenomeSim::uniform(2_500, 61).generate();
    let reads = ShotgunSim::error_free(60, 12.0, 62).sample(&genome);
    let (device, host, dir) = setup(64 << 20);
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    let config = AssemblyConfig::for_dataset(40, 60);
    let (_graph, paths) = assemble_full(&device, &host, &spill, &config, &reads).unwrap();
    let mut seen = std::collections::HashSet::new();
    for p in &paths {
        for s in &p.steps {
            assert!(seen.insert(s.vertex / 2), "read {} twice", s.vertex / 2);
        }
    }
}
