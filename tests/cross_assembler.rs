//! LaSAGNA vs the SGA baseline: two very different engines (fingerprint
//! partitions + external sort vs FM-index backward search) must agree on
//! what overlaps exist.

use lasagna_repro::lasagna::verify::count_false_edges;
use lasagna_repro::prelude::*;
use lasagna_repro::sga::SgaError;

fn dataset(seed: u64) -> (ReadSet, u32) {
    let genome = GenomeSim::uniform(4_000, seed).generate();
    let reads = ShotgunSim::error_free(80, 14.0, seed + 1).sample(&genome);
    (reads, 50)
}

fn lasagna_graph(reads: &ReadSet, l_min: u32) -> StringGraph {
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(l_min, reads.read_len() as u32);
    Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble(reads)
        .unwrap()
        .graph
}

fn sga_graph(reads: &ReadSet, l_min: u32) -> StringGraph {
    let baseline = SgaBaseline {
        host: HostMem::new(1 << 30),
        io: IoStats::default(),
        l_min,
    };
    baseline.run(reads).unwrap().0
}

#[test]
fn both_assemblers_build_valid_graphs_of_matching_size() {
    for seed in [3u64, 17, 91] {
        let (reads, l_min) = dataset(seed);
        let a = lasagna_graph(&reads, l_min);
        let b = sga_graph(&reads, l_min);
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
        assert_eq!(count_false_edges(&a, &reads), 0, "seed {seed}");
        assert_eq!(count_false_edges(&b, &reads), 0, "seed {seed}");
        // Greedy tie-breaking can differ, but on exact data both engines
        // see the identical candidate multiset; sizes must be very close.
        let (ea, eb) = (a.edge_count() as f64, b.edge_count() as f64);
        assert!(
            (ea - eb).abs() / ea.max(1.0) < 0.02,
            "seed {seed}: {ea} vs {eb} edges"
        );
    }
}

#[test]
fn overlap_length_distributions_agree_between_engines() {
    // Greedy tie-breaking differs between engines (a vertex's best partner
    // can be taken by another vertex first), so per-vertex overlaps need
    // not match — but the candidate multiset is identical, so the overall
    // quality of the graphs must be: total overlap mass within a couple of
    // percent, and identical maximum overlap.
    let (reads, l_min) = dataset(7);
    let a = lasagna_graph(&reads, l_min);
    let b = sga_graph(&reads, l_min);
    let mass = |g: &StringGraph| g.edges().map(|e| e.overlap as u64).sum::<u64>();
    let max = |g: &StringGraph| g.edges().map(|e| e.overlap).max().unwrap_or(0);
    let (ma, mb) = (mass(&a) as f64, mass(&b) as f64);
    assert!(
        (ma - mb).abs() / ma.max(1.0) < 0.03,
        "overlap mass {ma} vs {mb}"
    );
    assert_eq!(max(&a), max(&b), "longest accepted overlap must agree");
}

#[test]
fn sga_oom_boundary_is_sharp() {
    let (reads, l_min) = dataset(41);
    // Billed bytes: 0.3 × text length (reads + complements + separators).
    let chars = reads.len() as u64 * 2 * (reads.read_len() as u64 + 1) + 1;
    let billed =
        (chars as f64 * lasagna_repro::sga::baseline::COMPRESSED_BYTES_PER_CHAR).ceil() as u64;
    // One byte under: OOM. At the bill: succeeds.
    let starving = SgaBaseline {
        host: HostMem::new(billed - 1),
        io: IoStats::default(),
        l_min,
    };
    assert!(matches!(
        starving.run(&reads),
        Err(SgaError::OutOfMemory { .. })
    ));
    let exact = SgaBaseline {
        host: HostMem::new(billed),
        io: IoStats::default(),
        l_min,
    };
    assert!(exact.run(&reads).is_ok());
}

#[test]
fn identical_inputs_give_identical_lasagna_graphs_across_runs() {
    let (reads, l_min) = dataset(5);
    let a = lasagna_graph(&reads, l_min);
    let b = lasagna_graph(&reads, l_min);
    assert_eq!(a.edge_count(), b.edge_count());
    for v in 0..a.vertex_count() {
        assert_eq!(a.out(v), b.out(v), "vertex {v}");
    }
}
