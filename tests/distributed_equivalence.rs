//! Distributed-vs-single-node equivalence under varied cluster shapes.

use lasagna_repro::dnet::{Cluster, ClusterConfig, ReduceStrategy};
use lasagna_repro::lasagna::AssemblyOutput;
use lasagna_repro::prelude::*;

fn dataset(seed: u64, genome_len: usize) -> ReadSet {
    let genome = GenomeSim {
        len: genome_len,
        repeat_fraction: 0.02,
        repeat_len: 150,
        seed,
    }
    .generate();
    ShotgunSim::error_free(60, 10.0, seed + 1).sample(&genome)
}

fn single(reads: &ReadSet, l_min: u32) -> AssemblyOutput {
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(l_min, reads.read_len() as u32);
    Pipeline::laptop(config, dir.path())
        .unwrap()
        .assemble(reads)
        .unwrap()
}

fn cluster(nodes: usize, block_reads: usize, l_min: u32, read_len: u32) -> Cluster {
    strategy_cluster(
        nodes,
        block_reads,
        l_min,
        read_len,
        ReduceStrategy::LengthToken,
    )
}

fn strategy_cluster(
    nodes: usize,
    block_reads: usize,
    l_min: u32,
    read_len: u32,
    reduce_strategy: ReduceStrategy,
) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        gpu: GpuProfile::k20x(),
        device_capacity: 2 << 20,
        host_capacity: 16 << 20,
        disk: DiskModel::cluster_scratch(),
        net: NetModel::infiniband_56g(),
        block_reads,
        assembly: AssemblyConfig::for_dataset(l_min, read_len),
        reduce_strategy,
    })
    .unwrap()
}

#[test]
fn equivalence_across_node_counts_and_block_sizes() {
    let reads = dataset(100, 3_000);
    let single = single(&reads, 40);
    let expect = &single.graph;
    assert!(!single.contigs.is_empty());
    for (nodes, block_reads) in [(1usize, 64), (2, 17), (3, 100), (5, 33)] {
        for strategy in [
            ReduceStrategy::LengthToken,
            ReduceStrategy::FingerprintRange,
        ] {
            let dir = stdx::tempdir().unwrap();
            let out = strategy_cluster(nodes, block_reads, 40, 60, strategy)
                .assemble(&reads, dir.path())
                .unwrap();
            let what = format!("nodes={nodes} blocks={block_reads} {strategy:?}");
            assert_eq!(out.graph.edge_count(), expect.edge_count(), "{what}");
            for v in 0..expect.vertex_count() {
                assert_eq!(out.graph.out(v), expect.out(v), "{what} vertex={v}");
            }
            assert!(out.contigs == single.contigs, "{what}: contigs differ");
            assert_eq!(
                out.report.contig_stats, single.report.contig_stats,
                "{what}"
            );
        }
    }
}

#[test]
fn more_nodes_never_change_candidate_count() {
    let reads = dataset(200, 2_500);
    let mut counts = Vec::new();
    for nodes in [1usize, 2, 4] {
        let dir = stdx::tempdir().unwrap();
        let out = cluster(nodes, 50, 40, 60)
            .assemble(&reads, dir.path())
            .unwrap();
        counts.push(out.report.candidates);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "candidates must be partition-invariant: {counts:?}"
    );
}

#[test]
fn network_traffic_grows_with_node_count() {
    let reads = dataset(300, 2_500);
    let mut bytes = Vec::new();
    for nodes in [1usize, 2, 4] {
        let dir = stdx::tempdir().unwrap();
        let out = cluster(nodes, 50, 40, 60)
            .assemble(&reads, dir.path())
            .unwrap();
        bytes.push(out.report.network_bytes);
    }
    assert_eq!(bytes[0], 0, "single node sends nothing");
    assert!(bytes[1] > 0);
    assert!(
        bytes[2] > bytes[1],
        "more peers ⇒ more remote fetches: {bytes:?}"
    );
}

#[test]
fn distributed_reduce_preserves_greedy_invariants() {
    let reads = dataset(400, 3_500);
    let dir = stdx::tempdir().unwrap();
    let out = cluster(4, 25, 40, 60).assemble(&reads, dir.path()).unwrap();
    out.graph.check_invariants().unwrap();
    assert_eq!(
        lasagna_repro::lasagna::verify::count_false_edges(&out.graph, &reads),
        0
    );
}

#[test]
fn range_strategy_equivalence_under_repeats() {
    let reads = dataset(500, 3_000);
    let expect = single(&reads, 40).graph;
    for nodes in [2usize, 4] {
        let dir = stdx::tempdir().unwrap();
        let out = strategy_cluster(nodes, 41, 40, 60, ReduceStrategy::FingerprintRange)
            .assemble(&reads, dir.path())
            .unwrap();
        assert_eq!(out.graph.edge_count(), expect.edge_count(), "nodes={nodes}");
        for v in 0..expect.vertex_count() {
            assert_eq!(out.graph.out(v), expect.out(v), "nodes={nodes} v={v}");
        }
    }
}
