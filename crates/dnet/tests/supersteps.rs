//! The master's superstep log and the candidate count under fail-over,
//! checked end to end through the public `Cluster` API.

use dnet::{
    Cluster, ClusterConfig, DnetError, NetModel, ReduceStrategy, SuperstepLog, SuperstepRecord,
};
use genome::{GenomeSim, ReadSet, ShotgunSim};
use gstream::iostats::DiskModel;
use gstream::StreamError;
use lasagna::config::AssemblyConfig;
use lasagna::LasagnaError;
use std::collections::BTreeSet;
use std::path::Path;
use vgpu::GpuProfile;

fn sample() -> ReadSet {
    let genome = GenomeSim::uniform(1200, 11).generate();
    ShotgunSim::error_free(40, 8.0, 12).sample(&genome)
}

fn cluster(nodes: usize, strategy: ReduceStrategy) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        gpu: GpuProfile::k20x(),
        device_capacity: 1 << 20,
        host_capacity: 8 << 20,
        disk: DiskModel::hdd(),
        net: NetModel::infiniband_56g(),
        block_reads: 37,
        assembly: AssemblyConfig::for_dataset(25, 40),
        reduce_strategy: strategy,
    })
    .unwrap()
}

fn recovered(workdir: &Path) -> Vec<SuperstepRecord> {
    SuperstepLog::recover(workdir, faultsim::Faults::disabled())
        .unwrap()
        .expect("a finished run leaves its log")
        .records
}

/// One record as `phase superstep [done] [owners] checksum`. Map records
/// list block ids, every other phase `(length, range)` items as
/// `length/range`; a run of consecutive ids (lengths of one range) is
/// written `first-last`.
fn render(r: &SuperstepRecord) -> String {
    let (shift, mask) = if r.phase == "map" {
        (0, 0)
    } else {
        (16, 0xffff)
    };
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for &id in &r.done {
        match runs.last_mut() {
            Some((_, last)) if *last + (1 << shift) == id => *last = id,
            _ => runs.push((id, id)),
        }
    }
    let done: Vec<String> = runs
        .iter()
        .map(|&(a, b)| {
            let span = if a == b {
                format!("{}", a >> shift)
            } else {
                format!("{}-{}", a >> shift, b >> shift)
            };
            if shift == 0 {
                span
            } else {
                format!("{span}/{}", a & mask)
            }
        })
        .collect();
    let owners: Vec<String> = r.owners.iter().map(u32::to_string).collect();
    format!(
        "{} {} [{}] [{}] {:016x}",
        r.phase,
        r.superstep,
        done.join(" "),
        owners.join(" "),
        r.token_checksum
    )
}

fn assert_log(strategy: ReduceStrategy, expect: &[&str]) {
    let dir = stdx::tempdir().unwrap();
    cluster(3, strategy)
        .assemble(&sample(), dir.path())
        .unwrap();
    let got: Vec<String> = recovered(dir.path()).iter().map(render).collect();
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(g, e, "{strategy:?}: record {i}");
    }
    assert_eq!(got.len(), expect.len(), "{strategy:?}: record count");
}

#[test]
fn token_mode_superstep_log_is_pinned() {
    assert_log(ReduceStrategy::LengthToken, TOKEN_LOG);
}

#[test]
fn range_mode_superstep_log_is_pinned() {
    assert_log(ReduceStrategy::FingerprintRange, RANGE_LOG);
}

/// Token mode, 3 nodes: one rank dies in join round 1, a survivor dies in
/// round 2. The second victim's whole table moves, including the lengths
/// it joined in round 1, so the last survivor joins those again. Each
/// length's candidates must still be counted once.
#[test]
fn token_mode_kills_in_two_join_rounds_count_each_candidate_once() {
    let reads = sample();
    let lengths = 40 - 25;
    let clean_dir = stdx::tempdir().unwrap();
    let counting = faultsim::Faults::from_plan(&faultsim::FaultPlan::new());
    let clean = cluster(3, ReduceStrategy::LengthToken)
        .with_faults(counting.clone())
        .assemble(&reads, clean_dir.path())
        .unwrap();
    // Every join item ends with one manifest store, so the first store of
    // the join phase follows all the others. In round 1 the first victim
    // dies at its first claim while the two survivors claim their ten
    // lengths; the store after those is the first of round 2.
    let before_join = counting.hits(faultsim::MANIFEST_WRITE) - lengths;
    let plan = faultsim::FaultPlan::new()
        .fail_at(faultsim::MANIFEST_WRITE, before_join + 1)
        .fail_at(
            faultsim::MANIFEST_WRITE,
            before_join + 1 + lengths * 2 / 3 + 1,
        );
    let faults = faultsim::Faults::from_plan(&plan);
    let dir = stdx::tempdir().unwrap();
    let out = cluster(3, ReduceStrategy::LengthToken)
        .with_faults(faults.clone())
        .assemble(&reads, dir.path())
        .unwrap();
    assert_eq!(faults.injected().len(), 2, "both kills fired");
    let joins: Vec<u64> = recovered(dir.path())
        .iter()
        .filter(|r| r.phase == "join")
        .map(|r| r.superstep)
        .collect();
    assert_eq!(joins, [1, 2, 3], "a kill in each of the first two rounds");
    assert_eq!(out.report.edges, clean.report.edges);
    assert_eq!(out.report.candidates, clean.report.candidates);
}

/// Token mode, 3 nodes: a rank dies at its first shuffle fetch, its
/// lengths fail over, and the master crashes as it logs the first sort
/// round. The resume must run on the table the log last recorded, where
/// the survivors own the dead rank's lengths and hold their shuffled
/// partitions.
#[test]
fn resume_after_a_fail_over_runs_on_the_logged_owners() {
    let reads = sample();
    let lengths = 40 - 25;
    let blocks = reads.len().div_ceil(37) as u64;
    let clean_dir = stdx::tempdir().unwrap();
    let counting = faultsim::Faults::from_plan(&faultsim::FaultPlan::new());
    let clean = cluster(3, ReduceStrategy::LengthToken)
        .with_faults(counting.clone())
        .assemble(&reads, clean_dir.path())
        .unwrap();
    // Every shuffle fetch comes after every map request: two partitions
    // per length from each block.
    let first_fetch = counting.hits(faultsim::DNET_AM) - lengths * 2 * blocks + 1;
    // Records: header, map, shuffle rounds 1 and 2, then sort round 1.
    let plan = faultsim::FaultPlan::new()
        .fail_at(faultsim::DNET_AM, first_fetch)
        .fail_at(faultsim::SUPERSTEP_WRITE, 5);
    let dir = stdx::tempdir().unwrap();
    let err = cluster(3, ReduceStrategy::LengthToken)
        .with_faults(faultsim::Faults::from_plan(&plan))
        .resume(&reads, dir.path())
        .unwrap_err();
    assert_eq!(
        err.fault().map(|f| (f.point.as_str(), f.occurrence)),
        Some((faultsim::SUPERSTEP_WRITE, 5)),
        "got {err}"
    );
    let logged = recovered(dir.path());
    assert_eq!(logged.last().unwrap().phase, "shuffle");
    let owners: BTreeSet<u32> = logged.last().unwrap().owners.iter().copied().collect();
    assert_eq!(
        owners.len(),
        2,
        "the dead rank's lengths moved to survivors"
    );

    let out = cluster(3, ReduceStrategy::LengthToken)
        .resume(&reads, dir.path())
        .unwrap();
    assert!(out.report.resumed);
    assert_eq!(out.report.edges, clean.report.edges);
    assert_eq!(out.report.candidates, clean.report.candidates);
    for v in 0..clean.graph.vertex_count() {
        assert_eq!(out.graph.out(v), clean.graph.out(v), "vertex {v}");
    }
}

/// Token mode, 3 nodes: the master crashes as it logs the first shuffle
/// round, and one bit of block 0's map output flips before the resume.
/// The partition server must report the damage back to the fetching
/// rank, and the run must fail on it at once, not fail over.
#[test]
fn corrupt_map_output_fails_the_resumed_shuffle_without_fail_over() {
    let reads = sample();
    let dir = stdx::tempdir().unwrap();
    // Records: header, map, then the first shuffle round.
    let plan = faultsim::FaultPlan::new().fail_at(faultsim::SUPERSTEP_WRITE, 3);
    cluster(3, ReduceStrategy::LengthToken)
        .with_faults(faultsim::Faults::from_plan(&plan))
        .resume(&reads, dir.path())
        .unwrap_err();
    let victim = (0..3)
        .map(|r| dir.path().join(format!("node{r}/block0/pfx_00025.kv")))
        .find(|p| p.exists())
        .expect("block 0 has a mapper");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, bytes).unwrap();

    let err = cluster(3, ReduceStrategy::LengthToken)
        .resume(&reads, dir.path())
        .unwrap_err();
    assert!(
        matches!(
            &err,
            DnetError::Node {
                node: 0,
                source: LasagnaError::Stream(StreamError::Corrupt(_)),
            }
        ),
        "rank 0 owns length 25: {err}"
    );
    assert!(err.fault().is_none(), "{err}");
    let logged = recovered(dir.path());
    assert_eq!(
        logged.last().unwrap().phase,
        "map",
        "no shuffle round may end in a fail-over"
    );
}

/// Token mode, 3 nodes: the first 210 `gstream.open` hits are the
/// shuffle's partition fetches, which the mappers' AM servers open. An
/// injected fault there must kill the fetching rank and fail its items
/// over to the graph of a fault-free run.
#[test]
fn injected_fault_in_a_shuffle_fetch_fails_over_to_the_identical_graph() {
    let reads = sample();
    let clean_dir = stdx::tempdir().unwrap();
    let clean = cluster(3, ReduceStrategy::LengthToken)
        .assemble(&reads, clean_dir.path())
        .unwrap();
    for nth in [1, 210] {
        let faults = faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::READER_OPEN, nth),
        );
        let dir = stdx::tempdir().unwrap();
        let out = cluster(3, ReduceStrategy::LengthToken)
            .with_faults(faults.clone())
            .assemble(&reads, dir.path())
            .unwrap();
        assert_eq!(faults.injected().len(), 1, "{nth}: the fault fired");
        let shuffles = recovered(dir.path())
            .iter()
            .filter(|r| r.phase == "shuffle")
            .count();
        assert_eq!(shuffles, 2, "{nth}: one shuffle round failed over");
        assert_eq!(out.report.edges, clean.report.edges, "{nth}");
        for v in 0..clean.graph.vertex_count() {
            assert_eq!(out.graph.out(v), clean.graph.out(v), "{nth}: vertex {v}");
        }
    }
}

/// The fault-free 3-node logs of [`token_mode_superstep_log_is_pinned`]
/// and [`range_mode_superstep_log_is_pinned`], as rendered by [`render`].
const TOKEN_LOG: &[&str] = &[
    "run 0 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 38bde3464e8ec957",
    "map 1 [0-6] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 0000000000000000",
    "shuffle 1 [25/0 28/0 31/0 34/0 37/0 26/0 29/0 32/0 35/0 38/0 27/0 30/0 33/0 36/0 39/0] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 0000000000000000",
    "sort 1 [25/0 28/0 31/0 34/0 37/0 26/0 29/0 32/0 35/0 38/0 27/0 30/0 33/0 36/0 39/0] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 0000000000000000",
    "join 1 [25/0 28/0 31/0 34/0 37/0 26/0 29/0 32/0 35/0 38/0 27/0 30/0 33/0 36/0 39/0] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 0000000000000000",
    "commit 39 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] eb6fe27423696fe5",
    "commit 38 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] e182b8bf992215c6",
    "commit 37 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] c5ffbad5b4641fa3",
    "commit 36 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 10b0e2daf1ed4b7e",
    "commit 35 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 5f21361e89133273",
    "commit 34 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] d9424b1ed7e1c086",
    "commit 33 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] a8f1449daa603af9",
    "commit 32 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 509eb9f5cb2fb87d",
    "commit 31 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 3fe7e0f9b0903c18",
    "commit 30 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 89b43b36b7c28b44",
    "commit 29 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 4414dfb351ae16b2",
    "commit 28 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 7b795ac35dc14cf0",
    "commit 27 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] a2f1c555a68741f0",
    "commit 26 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 5ef3c4d66bf752aa",
    "commit 25 [] [0 1 2 0 1 2 0 1 2 0 1 2 0 1 2] 5ef3c4d66bf752aa",
];

const RANGE_LOG: &[&str] = &[
    "run 0 [] [0 1 2] 40835184c849a164",
    "map 1 [0-6] [0 1 2] 0000000000000000",
    "shuffle 1 [25-39/0 25-39/1 25-39/2] [0 1 2] 0000000000000000",
    "sort 1 [25-39/0 25-39/1 25-39/2] [0 1 2] 0000000000000000",
    "join 1 [25-39/0 25-39/1 25-39/2] [0 1 2] 0000000000000000",
    "commit 39 [] [0 1 2] eb6fe27423696fe5",
    "commit 38 [] [0 1 2] e182b8bf992215c6",
    "commit 37 [] [0 1 2] c5ffbad5b4641fa3",
    "commit 36 [] [0 1 2] 10b0e2daf1ed4b7e",
    "commit 35 [] [0 1 2] 5f21361e89133273",
    "commit 34 [] [0 1 2] d9424b1ed7e1c086",
    "commit 33 [] [0 1 2] a8f1449daa603af9",
    "commit 32 [] [0 1 2] 509eb9f5cb2fb87d",
    "commit 31 [] [0 1 2] 3fe7e0f9b0903c18",
    "commit 30 [] [0 1 2] 89b43b36b7c28b44",
    "commit 29 [] [0 1 2] 4414dfb351ae16b2",
    "commit 28 [] [0 1 2] 7b795ac35dc14cf0",
    "commit 27 [] [0 1 2] a2f1c555a68741f0",
    "commit 26 [] [0 1 2] 5ef3c4d66bf752aa",
    "commit 25 [] [0 1 2] 5ef3c4d66bf752aa",
];
