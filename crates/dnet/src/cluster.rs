//! The distributed pipeline driver.
//!
//! Six phases, mirroring Section III-E: the single-node pipeline's five
//! and the all-to-all shuffle. Every phase runs `lasagna`'s own step.
//!
//! 1. **load** — the master (rank 0) stages the reads on its disk and
//!    loads them into its host memory, `lasagna::pipeline::load`;
//! 2. **map** — workers request input blocks from the master via active
//!    messages and fingerprint them into per-block partition files on their
//!    private disks, `lasagna::map::map_block`;
//! 3. **shuffle** — each owner fetches its work items' records from every
//!    block's mapper and concatenates them locally (cross-node fetches are
//!    charged to the network model). Blocks are concatenated in block
//!    order, so the shuffled stream is byte-identical to the single-node
//!    map output and the final graph matches the single-node graph
//!    exactly;
//! 4. **sort** — each node externally sorts its owned partitions with its
//!    own GPU and disk (the aggregate-I/O win of scaling out),
//!    `lasagna::sortphase::sort_partition`;
//! 5. **reduce** — overlap candidates are found in parallel,
//!    `lasagna::reduce::join_pair`, but edges are applied under the
//!    out-degree bit-vector, which travels from the owner of partition
//!    `l+1` to the owner of `l` — the serialization that bounds scalability
//!    at `t_o·p/n + t_g·p`;
//! 6. **compress** — the master spells the contigs of the merged graph,
//!    `lasagna::pipeline::compress`: as in the paper, a single-node stage.
//!
//! ## One node
//!
//! One node is Fig. 10's bar without a shuffle ("scaling out from a single
//! node introduces the additional overhead of an all-to-all data
//! transfer"), and the driver decides it in one place: the whole input is
//! a single block, which rank 0 maps straight into its own partitions
//! without asking the master for it, and no item is shuffled. The
//! superstep loop, the log, the manifests and the resume are the same at
//! any node count.
//!
//! ## One superstep loop
//!
//! A work item is a `(length, fingerprint range)` partition pair, owned
//! through one ownership table: keyed by length (round-robin) under
//! [`ReduceStrategy::LengthToken`], by fingerprint range under
//! [`ReduceStrategy::FingerprintRange`]. Shuffle, sort and reduce stage A
//! are one owner-computes BSP loop that differs only in its per-rank body:
//! each round runs the body on every alive rank over the items it owns,
//! the master joins the ranks at a barrier and logs the finished items,
//! and a rank that died has its table entries failed over to survivors,
//! which rebuild those items from the durable map output next round. Map
//! shares the barrier but hands out input blocks from the master's queue.
//! Stage A's candidate lists are keyed by item, so an item joined twice
//! (once before its owner died) is counted once.
//!
//! ## Checkpoint / resume
//!
//! The run is durable at two levels (ROBUSTNESS.md §"Distributed
//! checkpoint/resume"). Each rank keeps a [`Manifest`] in its node
//! directory recording the blocks it durably mapped, the partition tags it
//! shuffled/sorted, and the candidate lists (graph deltas) it joined —
//! every claim backed by the artifact's footer `(records, checksum)`. The
//! master appends one fsynced [`SuperstepRecord`] to `superstep.log` per
//! completed superstep, carrying the item ids that finished, the ownership
//! table in force, and — for graph commits — the checksum of the
//! out-degree bit-vector token. [`Cluster::resume`] replays the log to
//! rebuild coordinator state after a master crash (the ownership table
//! included), validates every rank's artifacts against its manifest before
//! trusting them, skips completed supersteps, and re-runs only torn ones;
//! the resumed graph is bit-identical to a clean single-node run.

use crate::am::{AmClient, AmServer, Request, Response};
use crate::netmodel::{NetModel, NetStats};
use crate::superstep::{SuperstepLog, SuperstepRecord, HEADER_PHASE};
use crate::{DnetError, Result};
use genome::PackedSeq;
use genome::ReadSet;
use gstream::iostats::DiskModel;
use gstream::spill::{Partition, SpillDir};
use gstream::{Fnv64, HostMem, IoStats, KvPair, RecordReader, RecordWriter, StreamError};
use lasagna::config::AssemblyConfig;
use lasagna::report::measure_phase;
use lasagna::{map, pipeline, reduce, sortphase};
use lasagna::{ContigStats, LasagnaError, Manifest, PhaseMetrics, StringGraph};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use stdx::lock;
use vgpu::{Device, GpuProfile};

/// How the reduce phase is distributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceStrategy {
    /// The paper's implementation: partitions owned by length, graph
    /// construction serialized on the out-degree bit-vector token
    /// (Section III-E3).
    LengthToken,
    /// The paper's *future work*: partitions split by fingerprint range,
    /// so every node joins every length in parallel; commits proceed in
    /// range order per length with a bit-vector broadcast. Because ranges
    /// are contiguous in fingerprint order, the resulting graph is
    /// bit-identical to the single-node one.
    FingerprintRange,
}

/// Cluster shape and per-node budgets.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (threads).
    pub nodes: usize,
    /// GPU model per node (the paper's cluster: one K20X each).
    pub gpu: GpuProfile,
    /// Usable device memory per node in bytes.
    pub device_capacity: u64,
    /// Host memory budget per node in bytes.
    pub host_capacity: u64,
    /// Private-disk model per node.
    pub disk: DiskModel,
    /// Interconnect model.
    pub net: NetModel,
    /// Reads per master-assigned input block.
    pub block_reads: usize,
    /// Assembly parameters.
    pub assembly: AssemblyConfig,
    /// Distribution strategy for the reduce phase.
    pub reduce_strategy: ReduceStrategy,
}

/// Cluster-level measurements.
#[derive(Debug, Clone, Default)]
pub struct DistributedReport {
    /// Node count.
    pub nodes: usize,
    /// load / map / shuffle / sort / reduce / compress, each folded over
    /// its ranks (load and compress run on the master alone): traffic
    /// adds, peaks take the maximum, wall is the master's, and modeled is
    /// the slowest rank's (network included) plus the serial part.
    pub phases: Vec<PhaseMetrics>,
    /// Bytes moved across the interconnect.
    pub network_bytes: u64,
    /// Active messages sent.
    pub network_messages: u64,
    /// Directed edges in the merged graph.
    pub edges: u64,
    /// Overlap candidates examined.
    pub candidates: u64,
    /// Whether this run resumed from a predecessor's superstep log.
    pub resumed: bool,
    /// Statistics of the spelled contigs.
    pub contig_stats: ContigStats,
}

stdx::impl_json!(struct DistributedReport {
    nodes, phases, network_bytes, network_messages, edges, candidates, resumed, contig_stats
});

impl DistributedReport {
    /// Metrics for a phase by name ([`lasagna::report::find_phase`]).
    pub fn phase(&self, name: &str) -> Option<&PhaseMetrics> {
        lasagna::report::find_phase(&self.phases, name)
    }
}

/// The merged result of a distributed assembly.
#[derive(Debug)]
pub struct DistributedOutput {
    /// The spelled contigs (identical to the single-node contigs).
    pub contigs: Vec<PackedSeq>,
    /// Merged string graph (identical to the single-node graph).
    pub graph: StringGraph,
    /// Cluster measurements.
    pub report: DistributedReport,
}

/// Per-item candidate lists produced by one node's reduce stage A:
/// `(length, fingerprint range, candidate pairs)`.
type NodeItemCandidates = Vec<(u32, u32, Vec<(u32, u32)>)>;

/// One rank's resources: its GPU, its host budget, and its private disk
/// (a spill directory with its own I/O counters).
struct Node {
    device: Device,
    host: HostMem,
    spill: SpillDir,
}

/// Recovery bookkeeping for one distributed assembly (see ROBUSTNESS.md).
#[derive(Debug, Clone, Copy, Default)]
struct RecoveryStats {
    node_failures: u64,
    block_retries: u64,
    length_reassignments: u64,
    token_regenerations: u64,
    backoff_seconds: f64,
    superstep_replays: u64,
    master_rebuilds: u64,
}

/// Retry bound per phase: the initial round plus up to three recovery
/// rounds. An injected fault surviving past this propagates as an error.
const MAX_RECOVERY_ROUNDS: u32 = 4;

/// Modeled exponential backoff before recovery round `round` (the first
/// retry waits 0.1 s, then doubling, capped at `2^MAX_RECOVERY_ROUNDS`
/// steps so a long fail-over chain cannot inflate modeled time without
/// bound). Round 0 — the initial attempt, never a retry — charges
/// nothing. Charged to the phase's modeled time, never slept for real.
fn backoff_for(round: u32) -> f64 {
    if round == 0 {
        return 0.0;
    }
    0.1 * (1u64 << (round - 1).min(MAX_RECOVERY_ROUNDS)) as f64
}

/// One unit of shuffle/sort/join work: a `(length, fingerprint range)`
/// partition pair. `rebuild` marks an item inherited from a dead owner,
/// whose artifacts must be rebuilt from the durable map output.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    len: u32,
    range: u32,
    rebuild: bool,
}

impl WorkItem {
    /// Stable id of the item in the superstep log (`ranges` ≪ 2^16).
    fn id(&self) -> u64 {
        ((self.len as u64) << 16) | self.range as u64
    }
}

/// The `items` inherited from a dead owner, which their new owner
/// rebuilds from the durable map output before its own step.
fn inherited(items: &[WorkItem]) -> Vec<WorkItem> {
    items.iter().copied().filter(|it| it.rebuild).collect()
}

/// Where `node` maps input block `b`: its own partitions when nothing is
/// shuffled (one node), else a `block{b}` directory the shufflers fetch
/// from.
fn block_dir(node: &Node, b: u64, shuffled: bool) -> PathBuf {
    let root = node.spill.root();
    if shuffled {
        root.join(format!("block{b}"))
    } else {
        root.to_path_buf()
    }
}

/// Manifest tag of a durable candidate list (reduce-join graph delta).
fn cand_tag(len: u32, range: u32) -> String {
    format!("cnd_{len:05}_r{range:03}")
}

/// FNV-1a-64 of the out-degree bit-vector — the token checksum recorded
/// with every commit record, so a resumed reduce can detect divergence
/// from the logged run instead of silently mis-assembling.
fn bits_checksum(bits: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for w in bits {
        h.update(&w.to_le_bytes());
    }
    h.finish()
}

/// The one ownership table: the rank that owns each work item. It is keyed
/// by overlap length under [`ReduceStrategy::LengthToken`] (round-robin
/// over the ranks) and by fingerprint range under
/// [`ReduceStrategy::FingerprintRange`] (range `r` starts on rank `r`).
/// Fail-over rewrites the entries of dead ranks; a resume restores the
/// table the log last recorded.
struct Ownership {
    key: ReduceStrategy,
    l_min: u32,
    l_max: u32,
    table: Vec<usize>,
}

impl Ownership {
    fn new(key: ReduceStrategy, l_min: u32, l_max: u32, nodes: usize) -> Self {
        let table = match key {
            ReduceStrategy::LengthToken => {
                (0..(l_max - l_min) as usize).map(|i| i % nodes).collect()
            }
            ReduceStrategy::FingerprintRange => (0..nodes).collect(),
        };
        Ownership {
            key,
            l_min,
            l_max,
            table,
        }
    }

    /// Work items per length: one per fingerprint range in range mode, a
    /// single one (range 0) in token mode.
    fn ranges(&self) -> u32 {
        match self.key {
            ReduceStrategy::LengthToken => 1,
            ReduceStrategy::FingerprintRange => self.table.len() as u32,
        }
    }

    /// The table entry `it` is owned through.
    fn entry(&self, it: &WorkItem) -> usize {
        match self.key {
            ReduceStrategy::LengthToken => (it.len - self.l_min) as usize,
            ReduceStrategy::FingerprintRange => it.range as usize,
        }
    }

    fn rank_of(&self, it: &WorkItem) -> usize {
        self.table[self.entry(it)]
    }

    /// Every work item, in `(length, range)` order.
    fn items(&self) -> impl Iterator<Item = WorkItem> + '_ {
        (self.l_min..self.l_max).flat_map(move |len| {
            (0..self.ranges()).map(move |range| WorkItem {
                len,
                range,
                rebuild: false,
            })
        })
    }

    /// The items not yet durable, in `(length, range)` order.
    fn pending(&self, done: &BTreeSet<u64>) -> Vec<WorkItem> {
        self.items().filter(|it| !done.contains(&it.id())).collect()
    }

    /// The items of the table entries that just `moved` off a dead rank,
    /// entry by entry, marked for a rebuild.
    fn moved_items(&self, moved: &[usize]) -> Vec<WorkItem> {
        moved
            .iter()
            .flat_map(|&e| self.items().filter(move |it| self.entry(it) == e))
            .map(|it| WorkItem {
                rebuild: true,
                ..it
            })
            .collect()
    }

    /// The table as superstep records carry it.
    fn logged(&self) -> Vec<u32> {
        self.table.iter().map(|&r| r as u32).collect()
    }
}

/// Master-side stream errors (log recovery/appends) surface as rank-0
/// node errors so callers see one error shape.
fn master_err(e: StreamError) -> DnetError {
    DnetError::Node {
        node: 0,
        source: e.into(),
    }
}

/// Empty every node directory for a fresh (non-resumed) run, so stale
/// artifacts from a predecessor cannot leak into this assembly.
fn wipe_node_dirs(nodes: &[Node]) -> Result<()> {
    for (r, n) in nodes.iter().enumerate() {
        let dir = n.spill.root();
        let wipe = || -> std::io::Result<()> {
            if dir.exists() {
                std::fs::remove_dir_all(dir)?;
            }
            std::fs::create_dir_all(dir)
        };
        wipe().map_err(|e| DnetError::Node {
            node: r,
            source: StreamError::Io(e).into(),
        })?;
    }
    Ok(())
}

/// Everything a resumed run reconstructs from the superstep log plus the
/// per-rank manifests before spawning any worker.
#[derive(Default)]
struct ResumePlan {
    /// Durably mapped input blocks (block ids).
    map_done: BTreeSet<u64>,
    /// Items whose shuffled pair is durable and validated on its owner.
    shuffle_done: BTreeSet<u64>,
    /// Items whose sorted pair is durable and validated on its owner.
    sort_done: BTreeSet<u64>,
    /// Items whose candidate list was reloaded from disk.
    join_done: BTreeSet<u64>,
    /// `commit` records by overlap length: the logged token checksum a
    /// replayed commit must reproduce.
    commit_checksums: BTreeMap<u64, u64>,
    /// Block → mapper rank, rebuilt from manifests + surviving block dirs.
    assignment_init: Vec<Option<usize>>,
    /// Reloaded candidate lists for `join_done` items.
    preloaded: NodeItemCandidates,
}

impl ResumePlan {
    fn fresh(n_blocks: usize) -> Self {
        ResumePlan {
            assignment_init: vec![None; n_blocks],
            ..Default::default()
        }
    }
}

/// Replay the superstep log against the per-rank manifests and the disks,
/// restoring into `own` the ownership table the log last recorded.
/// Log claims are never trusted alone: a phase superstep counts as done
/// only when the owning rank's manifest claims it *and* the artifact's
/// footer still matches. A sorted claim whose file mismatches is loud
/// corruption (the sorted file is the artifact of record); a shuffled
/// claim whose file mismatches is silently redone (the in-place sort
/// rename legitimately rewrites shuffled files).
fn build_resume_plan(
    records: &[SuperstepRecord],
    manifests: &[Manifest],
    nodes: &[Node],
    n_blocks: usize,
    shuffled: bool,
    own: &mut Ownership,
    ranges: u32,
) -> Result<ResumePlan> {
    let n_nodes = nodes.len();
    let mut plan = ResumePlan::fresh(n_blocks);
    let mut log_map = BTreeSet::new();
    let mut log_shuffle = BTreeSet::new();
    let mut log_sort = BTreeSet::new();
    let mut log_join = BTreeSet::new();
    for rec in records {
        if !rec.owners.is_empty() {
            if rec.owners.len() != own.table.len()
                || rec.owners.iter().any(|&r| r as usize >= n_nodes)
            {
                return Err(master_err(StreamError::Corrupt(format!(
                    "superstep log ownership table ({} entries) does not fit \
                     this cluster shape ({} expected, {} nodes)",
                    rec.owners.len(),
                    own.table.len(),
                    n_nodes
                ))));
            }
            own.table = rec.owners.iter().map(|&r| r as usize).collect();
        }
        match rec.phase.as_str() {
            "map" => log_map.extend(rec.done.iter().copied()),
            "shuffle" => log_shuffle.extend(rec.done.iter().copied()),
            "sort" => log_sort.extend(rec.done.iter().copied()),
            "join" => log_join.extend(rec.done.iter().copied()),
            "commit" => {
                plan.commit_checksums
                    .insert(rec.superstep, rec.token_checksum);
            }
            // The header, and any record a future schema adds.
            _ => {}
        }
    }

    // Map: a logged block counts only if some rank's manifest claims it
    // and that rank's block directory is still on disk.
    for &b in log_map.iter().filter(|&&b| b < n_blocks as u64) {
        let mapper = (0..n_nodes)
            .find(|&r| manifests[r].has_block(b) && block_dir(&nodes[r], b, shuffled).exists());
        if let Some(r) = mapper {
            plan.map_done.insert(b);
            plan.assignment_init[b as usize] = Some(r);
        }
    }

    for it in own.items() {
        let (id, len, range) = (it.id(), it.len, it.range);
        let owner = own.rank_of(&it);
        let (m, spill) = (&manifests[owner], &nodes[owner].spill);
        let [sfx_tag, pfx_tag] = Partition::pair(len, range, ranges).map(|part| part.name());
        let (sfx_path, pfx_path) = (spill.file(&sfx_tag), spill.file(&pfx_tag));
        if log_sort.contains(&id) && m.is_sorted(&sfx_tag) && m.is_sorted(&pfx_tag) {
            if m.file_matches(&sfx_path) && m.file_matches(&pfx_path) {
                plan.sort_done.insert(id);
                plan.shuffle_done.insert(id);
            } else {
                // A sorted claim is the artifact of record for the
                // join: a footer mismatch here is damage, not a crash
                // window. Fail loudly rather than mis-assemble.
                return Err(DnetError::Node {
                    node: owner,
                    source: StreamError::Corrupt(format!(
                        "resumed sorted partition {sfx_tag}/{pfx_tag} on rank \
                         {owner} ({} / {}) does not match its manifest footer",
                        sfx_path.display(),
                        pfx_path.display()
                    ))
                    .into(),
                });
            }
        } else if log_shuffle.contains(&id)
            && m.is_shuffled(&sfx_tag)
            && m.is_shuffled(&pfx_tag)
            && m.file_matches(&sfx_path)
            && m.file_matches(&pfx_path)
        {
            plan.shuffle_done.insert(id);
        }
        let ctag = cand_tag(len, range);
        let cpath = spill.file(&ctag);
        if plan.sort_done.contains(&id)
            && log_join.contains(&id)
            && m.is_joined(&ctag)
            && m.file_matches(&cpath)
        {
            if let Ok(pairs) =
                RecordReader::open(&cpath, spill.io().clone()).and_then(|mut r| r.read_all())
            {
                plan.join_done.insert(id);
                plan.preloaded.push((
                    len,
                    range,
                    pairs.into_iter().map(|p| (p.key as u32, p.val)).collect(),
                ));
            }
        }
    }
    Ok(plan)
}

/// A configured cluster.
pub struct Cluster {
    config: ClusterConfig,
    recorder: obs::Recorder,
    faults: faultsim::Faults,
}

impl Cluster {
    /// Validate and build.
    pub fn new(config: ClusterConfig) -> Result<Self> {
        if config.nodes == 0 {
            return Err(DnetError::BadConfig("need at least one node".into()));
        }
        if config.block_reads == 0 {
            return Err(DnetError::BadConfig(
                "blocks must hold at least one read".into(),
            ));
        }
        config
            .assembly
            .validate()
            .map_err(|e| DnetError::BadConfig(e.to_string()))?;
        Ok(Cluster {
            config,
            recorder: obs::Recorder::disabled(),
            faults: faultsim::Faults::disabled(),
        })
    }

    /// Attach an event recorder: each assembly opens a `distributed` root
    /// span with per-phase children (`map`/`shuffle`/`sort`/`reduce`) and
    /// per-rank spans (`rank0`, `rank1`, …) under each phase.
    pub fn with_recorder(mut self, recorder: obs::Recorder) -> Self {
        self.recorder = recorder;
        self.faults.set_recorder(self.recorder.clone());
        self
    }

    /// Arm deterministic fault injection. The registry is threaded into
    /// every node's device, disk I/O, and active-message client, so an
    /// armed failpoint kills exactly one worker thread mid-superstep
    /// (crash model: the node's *compute* dies; its disk and its AM
    /// server survive, as with a crashed process on a live machine). The
    /// master detects the failure at phase join and re-runs the lost work
    /// on surviving nodes with bounded exponential backoff.
    pub fn with_faults(mut self, faults: faultsim::Faults) -> Self {
        faults.set_recorder(self.recorder.clone());
        self.faults = faults;
        self
    }

    /// The SuperMic-like cluster of the paper's Fig. 10: `nodes` K20X nodes
    /// with scaled budgets.
    pub fn supermic(
        nodes: usize,
        host_capacity: u64,
        device_capacity: u64,
        assembly: AssemblyConfig,
    ) -> Result<Self> {
        Cluster::new(ClusterConfig {
            nodes,
            gpu: GpuProfile::k20x(),
            device_capacity,
            host_capacity,
            disk: DiskModel::cluster_scratch(),
            net: NetModel::infiniband_56g(),
            block_reads: 1024,
            assembly,
            reduce_strategy: ReduceStrategy::LengthToken,
        })
    }

    /// FNV-1a over the knobs and dataset shape that change on-disk
    /// artifacts — the same idiom as the single-node pipeline's dataset
    /// fingerprint, extended with the cluster shape. Stored in every
    /// rank's manifest and in the superstep-log header, so a resume
    /// against a different run restarts fresh instead of guessing.
    fn run_fingerprint(&self, reads: &ReadSet, assembly: &AssemblyConfig) -> u64 {
        let strategy = match self.config.reduce_strategy {
            ReduceStrategy::LengthToken => 0,
            ReduceStrategy::FingerprintRange => 1,
        };
        let mut h = Fnv64::new();
        for v in [
            assembly.l_min as u64,
            assembly.l_max as u64,
            assembly.fingerprint_bits as u64,
            assembly.range_split as u64,
            self.config.nodes as u64,
            self.config.block_reads as u64,
            strategy,
            reads.len() as u64,
            reads.total_bases(),
        ] {
            h.update(&v.to_le_bytes());
        }
        for i in (0..reads.len()).step_by((reads.len() / 16).max(1)) {
            h.update(&(reads.first_base(i).code() as u64).to_le_bytes());
        }
        h.finish()
    }

    /// Run the distributed pipeline from scratch, wiping any durable
    /// state a previous run left in `workdir`.
    pub fn assemble(&self, reads: &ReadSet, workdir: &Path) -> Result<DistributedOutput> {
        self.assemble_inner(reads, workdir, false)
    }

    /// Run the distributed pipeline, resuming from `workdir`'s superstep
    /// log and per-node manifests when they belong to this exact run
    /// (same dataset, config, and cluster shape); otherwise starts fresh,
    /// as the single-node `Pipeline::resume` does.
    pub fn resume(&self, reads: &ReadSet, workdir: &Path) -> Result<DistributedOutput> {
        self.assemble_inner(reads, workdir, true)
    }

    fn assemble_inner(
        &self,
        reads: &ReadSet,
        workdir: &Path,
        resume: bool,
    ) -> Result<DistributedOutput> {
        let cfg = &self.config;
        let n_nodes = cfg.nodes;
        let l_min = cfg.assembly.l_min;
        let l_max = cfg.assembly.l_max;
        let vertices = reads.vertex_count();
        // Range mode needs more than one node; the mappers then pre-split
        // every length by fingerprint, one range per node.
        let key = match cfg.reduce_strategy {
            ReduceStrategy::FingerprintRange if n_nodes > 1 => ReduceStrategy::FingerprintRange,
            _ => ReduceStrategy::LengthToken,
        };
        let mut assembly = cfg.assembly;
        if key == ReduceStrategy::FingerprintRange {
            assembly.range_split = n_nodes as u32;
        }
        let ranges = assembly.range_split;

        // Per-node resources (private disks: separate IoStats per node).
        let nodes: Vec<Node> = (0..n_nodes)
            .map(|i| {
                let io = IoStats::new(cfg.disk);
                io.set_faults(self.faults.clone());
                let spill = SpillDir::open(&workdir.join(format!("node{i}")), io).map_err(|e| {
                    DnetError::Node {
                        node: i,
                        source: e.into(),
                    }
                })?;
                let device = Device::with_capacity(cfg.gpu.clone(), cfg.device_capacity);
                device.set_faults(self.faults.clone());
                Ok(Node {
                    device,
                    host: HostMem::new(cfg.host_capacity),
                    spill,
                })
            })
            .collect::<Result<_>>()?;

        // The one place the node count shapes the run (see the module
        // doc): one node maps its whole input as one block straight into
        // its own partitions, and shuffles nothing. The input is at least
        // one block, so every partition file exists even for no reads.
        let shuffled = n_nodes > 1;
        let block_reads = if shuffled {
            cfg.block_reads
        } else {
            reads.len().max(1)
        };
        // Block `b` as the master hands it out: `(b, start, end)`.
        let blocks: Vec<(usize, usize, usize)> = (0..reads.len().max(1))
            .step_by(block_reads)
            .enumerate()
            .map(|(b, s)| (b, s, (s + block_reads).min(reads.len())))
            .collect();
        let n_blocks = blocks.len();

        let fingerprint = self.run_fingerprint(reads, &assembly);

        // Master log: recover this run's log, or start fresh (wiping node
        // dirs so stale artifacts cannot leak into the new run).
        let mut replayed: Vec<SuperstepRecord> = Vec::new();
        let mut slog_opt: Option<SuperstepLog> = None;
        if resume {
            match SuperstepLog::recover(workdir, self.faults.clone()).map_err(master_err)? {
                Some(rec)
                    if rec.records.first().is_some_and(|h| {
                        h.phase == HEADER_PHASE && h.token_checksum == fingerprint
                    }) =>
                {
                    replayed = rec.records;
                    slog_opt = Some(rec.log);
                }
                // Missing log, or one from a different run: fresh start.
                _ => {}
            }
        }
        let resumed = slog_opt.is_some();
        let mut slog = match slog_opt {
            Some(l) => l,
            None => {
                wipe_node_dirs(&nodes)?;
                SuperstepLog::create(workdir, self.faults.clone()).map_err(master_err)?
            }
        };

        // Per-rank manifests. On resume, a stale or absent manifest just
        // voids that rank's claims; a present-but-unreadable one is
        // corruption and fails loudly.
        let mut manifests: Vec<Manifest> = Vec::with_capacity(n_nodes);
        for (r, node) in nodes.iter().enumerate() {
            let m = if resumed {
                match Manifest::load(node.spill.root()) {
                    Ok(Some(m)) if m.config_hash == fingerprint => m,
                    Ok(_) => Manifest::new(fingerprint),
                    Err(source) => return Err(DnetError::Node { node: r, source }),
                }
            } else {
                Manifest::new(fingerprint)
            };
            manifests.push(m);
        }

        let mut own = Ownership::new(key, l_min, l_max, n_nodes);
        let mut recovery = RecoveryStats::default();
        let plan = if resumed {
            build_resume_plan(
                &replayed, &manifests, &nodes, n_blocks, shuffled, &mut own, ranges,
            )?
        } else {
            for (r, m) in manifests.iter().enumerate() {
                m.store(nodes[r].spill.root(), &self.faults)
                    .map_err(|source| DnetError::Node { node: r, source })?;
            }
            slog.append(&SuperstepRecord::header(fingerprint, own.logged()))
                .map_err(master_err)?;
            ResumePlan::fresh(n_blocks)
        };

        let ResumePlan {
            map_done,
            shuffle_done,
            sort_done,
            join_done,
            commit_checksums,
            assignment_init,
            preloaded,
        } = plan;

        // The master's queue: only blocks not already durably mapped.
        let queue: Mutex<VecDeque<usize>> = Mutex::new(
            (0..n_blocks)
                .filter(|&b| !map_done.contains(&(b as u64)))
                .collect(),
        );
        let next_block = || lock(&queue).pop_front().map(|b| blocks[b]);
        let assignment: Mutex<Vec<Option<usize>>> = Mutex::new(assignment_init);

        let shuffle_todo = if shuffled {
            own.pending(&shuffle_done)
        } else {
            Vec::new()
        };
        let sort_todo = own.pending(&sort_done);
        let join_todo = own.pending(&join_done);
        if resumed {
            recovery.master_rebuilds = 1;
            let todo = lock(&queue).len() + shuffle_todo.len() + sort_todo.len() + join_todo.len();
            recovery.superstep_replays = todo as u64;
        }

        // Active-message endpoints.
        let net = NetStats::new(cfg.net);
        let mut clients = Vec::with_capacity(n_nodes);
        let mut servers = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            let (c, s) = AmServer::new(i, net.clone());
            clients.push(c.with_faults(self.faults.clone()));
            servers.push(s);
        }

        // Workers claim manifests by rank; claims are durable before the
        // master learns of them.
        let manifests: Vec<Mutex<Manifest>> = manifests.into_iter().map(Mutex::new).collect();
        let mut master = Master {
            recorder: &self.recorder,
            faults: &self.faults,
            resumed,
            slog,
            own,
            alive: vec![true; n_nodes],
            recovery,
            phases: Vec::new(),
        };
        let mut merged_graph = StringGraph::new(vertices);
        let mut total_candidates = 0u64;
        let obs_root = self.recorder.span("distributed");

        let loaded = master.on_master("load", &nodes[0], |_| {
            pipeline::load(&nodes[0].spill, &nodes[0].host, reads)
        })?;
        let reads = &loaded;

        std::thread::scope(|scope| -> Result<()> {
            // --- AM service threads -------------------------------------
            // Servers must receive Shutdown on *every* exit path, or the
            // scope would block forever joining them; hence the inner
            // closure + unconditional shutdown below.
            for (rank, server) in servers.drain(..).enumerate() {
                let spill = nodes[rank].spill.clone();
                scope.spawn(move || {
                    server.serve(move |req| match req {
                        Request::GetBlock => Response::Block(next_block()),
                        Request::FetchPartition { block, part } => {
                            let bdir = spill.root().join(format!("block{block}"));
                            let fetched = SpillDir::open(&bdir, spill.io().clone()).and_then(|b| {
                                // A block that produced nothing for this
                                // length legitimately has no file.
                                if !b.path_range(part).exists() {
                                    return Ok(Vec::new());
                                }
                                b.reader_range(part)?.read_all()
                            });
                            match fetched {
                                Ok(pairs) => Response::Partition(pairs),
                                // Never swallow a torn or bit-flipped
                                // partition: report it so the fetch fails
                                // the phase loudly instead of silently
                                // dropping overlaps.
                                Err(e) => Response::Error(e),
                            }
                        }
                        Request::Shutdown => Response::Bye,
                    });
                });
            }

            let work = || -> Result<()> {
                // --- map -----------------------------------------------------
                // Each rank maps the blocks the master hands it until the
                // queue is empty; one node takes its one block itself.
                let map_one = |rank: usize, node: &Node, span, _: &[WorkItem]| -> RankResult<()> {
                    loop {
                        let next = match shuffled {
                            true => clients[0].try_call(rank, Request::GetBlock)?.0,
                            false => Response::Block(next_block()),
                        };
                        let Response::Block(Some((b, start, end))) = next else {
                            return Ok((0.0, ()));
                        };
                        let dir = block_dir(node, b as u64, shuffled);
                        let spill = SpillDir::open(&dir, node.spill.io().clone())?;
                        let (device, host, rec) = (&node.device, &node.host, &self.recorder);
                        let block = start..end;
                        map::map_block(device, host, &spill, &assembly, reads, block, rec, span)?;
                        // The claim is durable before the master can hand
                        // the block's partitions to any shuffler.
                        {
                            let mut m = lock(&manifests[rank]);
                            m.mark_block(b as u64);
                            m.store(node.spill.root(), &self.faults)?;
                        }
                        lock(&assignment)[b] = Some(rank);
                    }
                };
                let phase = master.open("map", map_done.len());
                let mut ranks = Vec::new();
                let mut round = 0u32;
                loop {
                    round += 1;
                    let plan: Vec<(usize, Vec<WorkItem>)> = (0..n_nodes)
                        .filter(|&r| master.alive[r])
                        .map(|r| (r, Vec::new()))
                        .collect();
                    let (ok, failed) = master.round(&nodes, &phase, round, &plan, &map_one)?;
                    let done_now: Vec<u64> = {
                        let a = lock(&assignment);
                        (0..n_blocks)
                            .filter(|&b| a[b].is_some())
                            .map(|b| b as u64)
                            .collect()
                    };
                    ranks.extend(ok.into_iter().map(|(_, (m, ()))| m));
                    if master.barrier("map", round, done_now, &failed)?.is_none() {
                        break;
                    }
                    // A dead mapper's *completed* blocks stay assigned to
                    // it: its disk and AM server survive (crash model), so
                    // the shuffle can still fetch them. Only the blocks it
                    // had in flight go back to the master's queue — and the
                    // items it would have owned later move to survivors.
                    let requeue: Vec<usize> = {
                        let a = lock(&assignment);
                        (0..n_blocks).filter(|&b| a[b].is_none()).collect()
                    };
                    master.recovery.block_retries += requeue.len() as u64;
                    *lock(&queue) = requeue.into_iter().collect();
                }
                master.close(phase, ranks, 0.0);
                // A dead mapper keeps its finished blocks, so once map ends
                // every block has a rank to fetch it from.
                let mappers: Vec<usize> = {
                    let a = lock(&assignment);
                    (0..n_blocks)
                        .map(|block| a[block].ok_or(DnetError::Unassigned { block }))
                        .collect::<Result<_>>()?
                };
                let workers = Workers {
                    assembly: &cfg.assembly,
                    clients: &clients,
                    mappers: &mappers,
                    manifests: &manifests,
                    faults: &self.faults,
                    rec: &self.recorder,
                    ranges,
                };

                // --- shuffle (nothing to shuffle on one node) -----------------
                master.run_phase(
                    &nodes,
                    ("shuffle", "shuffle"),
                    shuffle_todo,
                    shuffle_done.len(),
                    |rank, node, _, items| Ok((workers.shuffle(rank, node, items)?, ())),
                    |_, _, _| Ok(0.0),
                )?;

                // --- sort ----------------------------------------------------
                // An item inherited from a dead owner is re-shuffled from
                // the durable map output before it is sorted.
                master.run_phase(
                    &nodes,
                    ("sort", "sort"),
                    sort_todo,
                    sort_done.len(),
                    |rank, node, span, items| {
                        let net_s = workers.shuffle(rank, node, &inherited(items))?;
                        workers.sort(rank, node, span, items)?;
                        Ok((net_s, ()))
                    },
                    |_, _, _| Ok(0.0),
                )?;

                // --- reduce --------------------------------------------------
                // Stage A (parallel) finds candidates per owned item, after
                // re-shuffling and re-sorting an inherited one; stage B
                // (serialized) commits them under the token.
                master.run_phase(
                    &nodes,
                    ("reduce", "join"),
                    join_todo,
                    join_done.len(),
                    |rank, node, span, items| {
                        let moved = inherited(items);
                        let net_s = workers.shuffle(rank, node, &moved)?;
                        workers.sort(rank, node, span, &moved)?;
                        Ok((net_s, workers.join(rank, node, span, items)?))
                    },
                    |master, span, found| {
                        // Candidates keyed by item, [length][range] (one
                        // range in token mode): a re-joined item replaces
                        // its earlier list, and concatenating the ranges of
                        // a length reproduces the global fingerprint order
                        // whichever rank produced them.
                        let mut candidates = vec![
                            vec![Vec::new(); master.own.ranges() as usize];
                            (l_max - l_min) as usize
                        ];
                        for (len, range, cands) in
                            preloaded.into_iter().chain(found.into_iter().flatten())
                        {
                            candidates[(len - l_min) as usize][range as usize] = cands;
                        }
                        let (offered, token_net_s) = master.commit(
                            span,
                            &candidates,
                            &net,
                            &commit_checksums,
                            &mut merged_graph,
                        )?;
                        total_candidates = offered;
                        Ok(token_net_s)
                    },
                )
            };

            let result = work();
            // --- Shutdown AM services (unconditionally) ------------------
            for (rank, c) in clients.iter().enumerate() {
                let _ = c.call(rank, Request::Shutdown);
            }
            result
        })?;

        merged_graph
            .check_invariants()
            .map_err(DnetError::BrokenGraph)?;
        let (_, contigs, contig_stats) = master.on_master("compress", &nodes[0], |span| {
            let (device, host) = (&nodes[0].device, &nodes[0].host);
            // The master holds the merged graph on its host, as the
            // pipeline does through compress.
            let _graph = host.reserve(merged_graph.memory_bytes())?;
            let (rec, graph) = (&self.recorder, &merged_graph);
            pipeline::compress(device, host, reads, graph, l_max, rec, span)
        })?;

        let (root, r) = (obs_root.id(), master.recovery);
        self.recorder.counter_on(root, "net.bytes", net.bytes());
        self.recorder
            .counter_on(root, "net.messages", net.messages());
        if r.node_failures > 0 || r.token_regenerations > 0 {
            for (name, v) in [
                ("recovery.node_failures", r.node_failures),
                ("recovery.block_retries", r.block_retries),
                ("recovery.length_reassignments", r.length_reassignments),
                ("recovery.token_regenerations", r.token_regenerations),
            ] {
                self.recorder.counter_on(root, name, v);
            }
            self.recorder
                .metric_on(root, "recovery.backoff_seconds", r.backoff_seconds);
        }
        if r.master_rebuilds > 0 {
            self.recorder
                .counter_on(root, "recovery.master_rebuilds", r.master_rebuilds);
            self.recorder
                .counter_on(root, "recovery.superstep_replays", r.superstep_replays);
        }
        drop(obs_root);

        let report = DistributedReport {
            nodes: n_nodes,
            phases: master.phases,
            network_bytes: net.bytes(),
            network_messages: net.messages(),
            edges: merged_graph.edge_count(),
            candidates: total_candidates,
            resumed,
            contig_stats,
        };
        Ok(DistributedOutput {
            contigs,
            graph: merged_graph,
            report,
        })
    }
}

/// A phase whose span is open: its name and when it started.
struct OpenPhase {
    name: &'static str,
    span: obs::SpanGuard,
    t0: Instant,
}

/// The master's side of one run: who is alive, who owns what, the log it
/// appends to after every superstep, and the phases and recovery so far.
struct Master<'a> {
    recorder: &'a obs::Recorder,
    faults: &'a faultsim::Faults,
    resumed: bool,
    slog: SuperstepLog,
    own: Ownership,
    alive: Vec<bool>,
    recovery: RecoveryStats,
    phases: Vec<PhaseMetrics>,
}

/// What a rank's body returns for one superstep: the modeled network
/// seconds it spent beside the phase's output, or the error that ended it.
type RankResult<T> = std::result::Result<(f64, T), LasagnaError>;

impl Master<'_> {
    /// Open phase `name`'s span; a resumed run counts the items it skips.
    fn open(&self, name: &'static str, skipped: usize) -> OpenPhase {
        let t0 = Instant::now();
        let span = self.recorder.span(name);
        if self.resumed {
            self.recorder
                .counter_on(span.id(), "phase.skipped_items", skipped as u64);
        }
        OpenPhase { name, span, t0 }
    }

    /// Run `f` as phase `name` on the master alone — `node`, rank 0, with
    /// its device, host ledger and disk — measured by [`measure_phase`] on
    /// the phase span, whose id `f` is handed, as the pipeline measures
    /// its phases.
    fn on_master<T>(
        &mut self,
        name: &'static str,
        node: &Node,
        f: impl FnOnce(u64) -> lasagna::Result<T>,
    ) -> Result<T> {
        let phase = self.open(name, 0);
        let (id, io) = (phase.span.id(), node.spill.io());
        let (out, m) = measure_phase(self.recorder, id, &node.device, &node.host, io, || f(id))
            .map_err(|source| DnetError::Node { node: 0, source })?;
        self.close(phase, vec![m], 0.0);
        Ok(out)
    }

    /// Close a phase: fold its `ranks`' records into its own with
    /// [`PhaseMetrics::merge`], then take the master's wall and, for
    /// modeled, the slowest rank plus the `serial` part.
    fn close(&mut self, phase: OpenPhase, ranks: Vec<PhaseMetrics>, serial: f64) {
        let slowest = ranks.iter().map(|r| r.modeled_seconds).fold(0.0, f64::max);
        let mut record = PhaseMetrics {
            phase: phase.name.into(),
            ..Default::default()
        };
        ranks.into_iter().for_each(|rank| record.merge(rank));
        record.modeled_seconds = slowest + serial;
        let (span, modeled) = (phase.span.id(), record.modeled_seconds);
        self.recorder
            .metric_on(span, "phase.modeled_seconds", modeled);
        drop(phase.span);
        record.wall_seconds = phase.t0.elapsed().as_secs_f64();
        self.phases.push(record);
    }

    /// One superstep: run `body` on every planned `(rank, items)` in its
    /// own thread, measured on a `rank{r}` span like a pipeline phase
    /// ([`lasagna::report::measure_phase`]) and handed that span's id for
    /// its partitions' spans, charge the rank the network seconds `body`
    /// returns on top, and join them.
    /// A rank that died on an *injected* fault is reported for fail-over
    /// while retries remain; any real error — and any injected fault once
    /// the retry budget is spent — propagates at once.
    fn round<T: Send>(
        &self,
        nodes: &[Node],
        phase: &OpenPhase,
        round: u32,
        plan: &[(usize, Vec<WorkItem>)],
        body: &(impl Fn(usize, &Node, u64, &[WorkItem]) -> RankResult<T> + Sync),
    ) -> Result<RoundOutcome<(PhaseMetrics, T)>> {
        let (name, span) = (phase.name, phase.span.id());
        std::thread::scope(|s| {
            let handles = plan.iter().map(|(rank, items)| {
                let (rank, node, rec) = (*rank, &nodes[*rank], self.recorder.clone());
                let run = move || -> lasagna::Result<(PhaseMetrics, T)> {
                    let rspan = rec.child_span(Some(span), &format!("rank{rank}"));
                    let ((net_s, out), mut m) = lasagna::report::measure_phase(
                        &rec,
                        rspan.id(),
                        &node.device,
                        &node.host,
                        node.spill.io(),
                        || body(rank, node, rspan.id(), items),
                    )?;
                    m.modeled_seconds += net_s;
                    rec.metric_on(rspan.id(), "rank.modeled_seconds", m.modeled_seconds);
                    // The shuffle's work is network traffic; it alone
                    // reports that time (OBSERVABILITY.md).
                    if name == "shuffle" {
                        rec.metric_on(rspan.id(), "rank.net_seconds", net_s);
                    }
                    Ok((m, out))
                };
                (rank, s.spawn(run))
            });
            let (mut ok, mut failed) = (Vec::new(), Vec::new());
            for (rank, h) in handles.collect::<Vec<_>>() {
                let source = match h.join() {
                    Ok(Ok(v)) => {
                        ok.push((rank, v));
                        continue;
                    }
                    Ok(Err(source)) => source,
                    Err(_) => return Err(DnetError::Panicked { node: rank }),
                };
                match source.fault() {
                    Some(f) if round < MAX_RECOVERY_ROUNDS => {
                        self.faults.record_retry(&f.point);
                        failed.push(rank);
                    }
                    _ => return Err(DnetError::Node { node: rank, source }),
                }
            }
            Ok((ok, failed))
        })
    }

    /// The barrier that ends round `round` of `step`: log the items done
    /// and the table in force, then mark the `failed` ranks dead, hand
    /// every table entry they held to survivors round-robin, and charge
    /// the backoff. The moved entries' artifacts live on dead disks, so
    /// their new owners rebuild them from the durable map output. Returns
    /// the moved entries, or `None` when no rank failed.
    fn barrier(
        &mut self,
        step: &str,
        round: u32,
        done: Vec<u64>,
        failed: &[usize],
    ) -> Result<Option<Vec<usize>>> {
        self.slog
            .append(&SuperstepRecord {
                phase: step.into(),
                superstep: round as u64,
                done,
                owners: self.own.logged(),
                token_checksum: 0,
            })
            .map_err(master_err)?;
        if failed.is_empty() {
            return Ok(None);
        }
        for &r in failed {
            self.alive[r] = false;
            self.recovery.node_failures += 1;
        }
        let survivors: Vec<usize> = (0..self.alive.len()).filter(|&i| self.alive[i]).collect();
        if survivors.is_empty() {
            return Err(DnetError::NoSurvivors { node: failed[0] });
        }
        let mut moved = Vec::new();
        for (i, owner) in self.own.table.iter_mut().enumerate() {
            if !self.alive[*owner] {
                *owner = survivors[moved.len() % survivors.len()];
                moved.push(i);
                self.recovery.length_reassignments += 1;
            }
        }
        self.recovery.backoff_seconds += backoff_for(round);
        Ok(Some(moved))
    }

    /// Run one owner-computes phase over `todo` — shuffle, sort, or reduce
    /// stage A — as span `name` with superstep records `step`. Each round
    /// runs `body` on every alive rank over the items it owns (after the
    /// first round, only ranks with items to redo) and ends at a
    /// [`Master::barrier`]; the next round redoes the items it moved.
    /// `finish` gets the phase span and every finished rank's output in
    /// round order, and returns serial modeled seconds for the phase.
    fn run_phase<T: Send>(
        &mut self,
        nodes: &[Node],
        (name, step): (&'static str, &str),
        mut todo: Vec<WorkItem>,
        skipped: usize,
        body: impl Fn(usize, &Node, u64, &[WorkItem]) -> RankResult<T> + Sync,
        finish: impl FnOnce(&mut Self, u64, Vec<T>) -> Result<f64>,
    ) -> Result<()> {
        let phase = self.open(name, skipped);
        let mut ranks = Vec::new();
        let mut outputs = Vec::new();
        let mut round = 0u32;
        while !todo.is_empty() {
            round += 1;
            let plan: Vec<(usize, Vec<WorkItem>)> = (0..nodes.len())
                .filter(|&rank| self.alive[rank])
                .map(|rank| {
                    let mine = todo.iter().filter(|it| self.own.rank_of(it) == rank);
                    (rank, mine.copied().collect::<Vec<_>>())
                })
                .filter(|(_, items)| round == 1 || !items.is_empty())
                .collect();
            let (ok, failed) = self.round(nodes, &phase, round, &plan, &body)?;
            let ok_ranks: BTreeSet<usize> = ok.iter().map(|(r, _)| *r).collect();
            let done: Vec<u64> = plan
                .iter()
                .filter(|(r, _)| ok_ranks.contains(r))
                .flat_map(|(_, items)| items.iter().map(WorkItem::id))
                .collect();
            for (_, (m, out)) in ok {
                ranks.push(m);
                outputs.push(out);
            }
            match self.barrier(step, round, done, &failed)? {
                Some(moved) => todo = self.own.moved_items(&moved),
                None => break,
            }
        }
        let serial = finish(self, phase.span.id(), outputs)?;
        self.close(phase, ranks, serial);
        Ok(())
    }

    /// Reduce stage B (serialized): the bit-vector token sweeps lengths in
    /// descending order, and each slot — one per fingerprint range, a
    /// single one in token mode — merges the token and applies its
    /// candidates through the greedy guard, which reads only out-bits. The
    /// slot graphs hold disjoint edge sets; `graph` replays them in the
    /// same global order. Every completed length appends a `commit` record
    /// carrying the token checksum; a resumed sweep validates its
    /// recomputed bits against the `logged` checksum instead. Returns the
    /// candidates offered and the serial modeled seconds: the token's
    /// network time. Applying the candidates on the host is charged
    /// nothing, as in the pipeline.
    fn commit(
        &mut self,
        span: u64,
        candidates: &[Vec<Vec<(u32, u32)>>],
        net: &NetStats,
        logged: &BTreeMap<u64, u64>,
        graph: &mut StringGraph,
    ) -> Result<(u64, f64)> {
        let (l_min, l_max) = (self.own.l_min, self.own.l_max);
        let vertices = graph.vertex_count();
        let range_mode = self.own.key == ReduceStrategy::FingerprintRange;
        let broadcast = self.alive.len() as u64;
        let owner = |len| {
            self.own.rank_of(&WorkItem {
                len,
                range: 0,
                rebuild: false,
            })
        };
        let (mut offered, mut accepted) = (0u64, 0u64);
        let mut token_net_s = 0.0;
        let mut bits = StringGraph::new(vertices).out_bits();
        let mut slots: Vec<StringGraph> = (0..self.own.ranges())
            .map(|_| StringGraph::new(vertices))
            .collect();
        for len in (l_min..l_max).rev() {
            for (g, cands) in slots.iter_mut().zip(&candidates[(len - l_min) as usize]) {
                if cands.is_empty() {
                    continue;
                }
                g.merge_out_bits(&bits);
                for &(u, v) in cands {
                    if g.try_add_edge(u, v, len).is_ok() {
                        let _ = graph.try_add_edge(u, v, len);
                        accepted += 1;
                    }
                }
                offered += cands.len() as u64;
                bits = g.out_bits();
            }
            // Bit-vector movement: a single token hop between length
            // owners (token mode), or an intra-length relay plus final
            // broadcast across all ranks (range mode). Ownership is the
            // post-fail-over table, not the static round-robin.
            if range_mode || (len > l_min && owner(len - 1) != owner(len)) {
                let bytes = bits.len() as u64 * 8;
                let lost = self.faults.hit(faultsim::DNET_TOKEN).is_err();
                if lost {
                    // The token was lost in transit: its holder, or the
                    // broadcast's relay, died. Every slot graph carries the
                    // bits it merged before applying, so OR-ing them
                    // regenerates exactly the lost vector; charge a
                    // broadcast for the regeneration round.
                    bits = StringGraph::new(vertices).out_bits();
                    for g in &slots {
                        for (d, s) in bits.iter_mut().zip(g.out_bits()) {
                            *d |= s;
                        }
                    }
                    self.recovery.token_regenerations += 1;
                    self.faults.record_retry(faultsim::DNET_TOKEN);
                    token_net_s += net.add_message(bytes * broadcast);
                }
                // Range mode still broadcasts; in token mode the
                // regeneration took the hop's place.
                if range_mode {
                    token_net_s += net.add_message(bytes * broadcast);
                } else if !lost {
                    token_net_s += net.add_message(bytes);
                }
            }
            // Commit barrier: checksum the token, validate against a
            // logged commit (resume) or append a fresh one.
            let checksum = bits_checksum(&bits);
            match logged.get(&(len as u64)) {
                Some(&c) if c == checksum => {}
                Some(_) => {
                    return Err(master_err(StreamError::Corrupt(format!(
                        "resumed commit at length {len} diverged from the \
                         superstep log (token checksum mismatch)"
                    ))));
                }
                None => {
                    self.slog
                        .append(&SuperstepRecord {
                            phase: "commit".into(),
                            superstep: len as u64,
                            done: Vec::new(),
                            owners: self.own.logged(),
                            token_checksum: checksum,
                        })
                        .map_err(master_err)?;
                }
            }
        }
        // Stage A's ranks recorded the candidates they found; the guard's
        // verdicts on them are recorded here.
        self.recorder.counter_on(span, "reduce.accepted", accepted);
        self.recorder
            .counter_on(span, "reduce.rejected", offered - accepted);
        self.recorder
            .metric_on(span, "reduce.token_net_seconds", token_net_s);
        Ok((offered, token_net_s))
    }
}

/// What a round yields: `(rank, result)` of the workers that finished, and
/// the ranks to fail over.
type RoundOutcome<T> = (Vec<(usize, T)>, Vec<usize>);

/// What every rank's work reads: the active-message endpoints, the rank
/// that mapped each input block, the per-rank manifests, the failpoints
/// and the recorder.
struct Workers<'a> {
    assembly: &'a AssemblyConfig,
    clients: &'a [AmClient],
    mappers: &'a [usize],
    manifests: &'a [Mutex<Manifest>],
    faults: &'a faultsim::Faults,
    rec: &'a obs::Recorder,
    ranges: u32,
}

impl Workers<'_> {
    /// Shuffle step for one owner: fetch every block's records for `items`
    /// from their mappers (via `try_call`, so the `dnet.am` failpoint can
    /// kill the requester mid-stream) and concatenate them in block order —
    /// the order that keeps the stream byte-identical to the single-node
    /// map output. Each completed item is claimed in the rank's manifest
    /// (tags + footers) before the next begins, so a resume trusts exactly
    /// the items that were durable. Returns the modeled network seconds.
    fn shuffle(&self, rank: usize, node: &Node, items: &[WorkItem]) -> lasagna::Result<f64> {
        let (spill, mut net_s) = (&node.spill, 0.0);
        for it in items {
            let pair = Partition::pair(it.len, it.range, self.ranges);
            for part in pair {
                let mut w = RecordWriter::create(&spill.path_range(part), spill.io().clone())?;
                for (block, &src) in self.mappers.iter().enumerate() {
                    let (resp, secs) = self.clients[src]
                        .try_call(rank, Request::FetchPartition { block, part })?;
                    net_s += secs;
                    match resp {
                        Response::Partition(pairs) => w.write_all(&pairs)?,
                        Response::Error(e) => return Err(e.into()),
                        other => unreachable!("a partition fetch answered {other:?}"),
                    }
                }
                w.finish()?;
            }
            let names = pair.map(|part| part.name());
            self.claim(rank, node, Manifest::mark_shuffled, names)?;
        }
        Ok(net_s)
    }

    /// Sort step for one owner: sort each of `items`' partition pairs in
    /// place with the node's own GPU and disk, through the pipeline's
    /// [`sortphase::sort_partition`] under the rank's `span`, then claim
    /// the sorted footers in the rank's manifest.
    fn sort(&self, rank: usize, node: &Node, span: u64, items: &[WorkItem]) -> lasagna::Result<()> {
        let (device, host, spill) = (&node.device, &node.host, &node.spill);
        let (assembly, rec) = (self.assembly, self.rec);
        for it in items {
            let pair = Partition::pair(it.len, it.range, self.ranges);
            for part in pair {
                sortphase::sort_partition(device, host, spill, assembly, rec, span, part)?;
            }
            // The renames are only crash-durable once the directory entries
            // are: the store in `claim` fsyncs this directory, after them
            // and after its own rename, as `Pipeline`'s sort phase does. A
            // resume that finds a sorted claim without the file it claims
            // (a footer that does not match) fails loudly.
            let names = pair.map(|part| part.name());
            self.claim(rank, node, Manifest::mark_sorted, names)?;
        }
        Ok(())
    }

    /// Reduce stage A for one owner: join each of `items`' sorted partition
    /// pairs through the pipeline's [`reduce::join_pair`] under the rank's
    /// `span`, collecting candidates. Each item's candidate list — the
    /// superstep's graph delta — is written durably
    /// (`cnd_<len>_r<range>.kv`) and claimed in the manifest, so a resumed
    /// reduce reloads it instead of re-joining.
    fn join(
        &self,
        rank: usize,
        node: &Node,
        span: u64,
        items: &[WorkItem],
    ) -> lasagna::Result<NodeItemCandidates> {
        let (device, host, spill) = (&node.device, &node.host, &node.spill);
        let mut out = Vec::new();
        for it in items {
            let pair = Partition::pair(it.len, it.range, self.ranges);
            let mut cands: Vec<(u32, u32)> = Vec::new();
            reduce::join_pair(device, host, spill, self.rec, span, pair, |u, v| {
                cands.push((u, v))
            })?;
            let ctag = cand_tag(it.len, it.range);
            let mut w = RecordWriter::create(&spill.file(&ctag), spill.io().clone())?;
            for &(u, v) in &cands {
                w.write(KvPair::new(u as u128, v))?;
            }
            w.finish()?;
            self.claim(rank, node, Manifest::mark_joined, [ctag])?;
            out.push((it.len, it.range, cands));
        }
        Ok(out)
    }

    /// Claim the node's record files `names` in rank `rank`'s manifest —
    /// each marked with `mark` and its footer recorded — and store it.
    fn claim(
        &self,
        rank: usize,
        node: &Node,
        mark: fn(&mut Manifest, &str),
        names: impl IntoIterator<Item = String>,
    ) -> lasagna::Result<()> {
        let mut m = lock(&self.manifests[rank]);
        for name in names {
            mark(&mut m, &name);
            m.record_file(&node.spill.file(&name))?;
        }
        m.store(node.spill.root(), self.faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::{GenomeSim, ShotgunSim};

    fn sample(genome_len: usize, read_len: usize, coverage: f64, seed: u64) -> ReadSet {
        let genome = GenomeSim::uniform(genome_len, seed).generate();
        ShotgunSim::error_free(read_len, coverage, seed + 1).sample(&genome)
    }

    fn cluster(nodes: usize, l_min: u32, read_len: u32, block_reads: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes,
            gpu: GpuProfile::k20x(),
            device_capacity: 1 << 20,
            host_capacity: 8 << 20,
            disk: DiskModel::hdd(),
            net: NetModel::infiniband_56g(),
            block_reads,
            assembly: AssemblyConfig::for_dataset(l_min, read_len),
            reduce_strategy: ReduceStrategy::LengthToken,
        })
        .unwrap()
    }

    const PHASES: [&str; 6] = ["load", "map", "shuffle", "sort", "reduce", "compress"];

    fn single_node_graph(reads: &ReadSet, l_min: u32) -> StringGraph {
        let dir = stdx::tempdir().unwrap();
        let config = AssemblyConfig::for_dataset(l_min, reads.read_len() as u32);
        let pipeline = lasagna::Pipeline::laptop(config, dir.path()).unwrap();
        pipeline.assemble(reads).unwrap().graph
    }

    #[test]
    fn distributed_graph_matches_single_node_exactly() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        for nodes in [1usize, 2, 3, 4] {
            let dir = stdx::tempdir().unwrap();
            let out = cluster(nodes, 25, 40, 37)
                .assemble(&reads, dir.path())
                .unwrap();
            assert_eq!(
                out.graph.edge_count(),
                expect.edge_count(),
                "{nodes} nodes: edge count"
            );
            for v in 0..expect.vertex_count() {
                assert_eq!(out.graph.out(v), expect.out(v), "{nodes} nodes: vertex {v}");
            }
        }
    }

    #[test]
    fn report_has_six_phases_and_network_traffic_beyond_one_node() {
        let reads = sample(800, 40, 6.0, 13);
        let dir = stdx::tempdir().unwrap();
        let out = cluster(2, 25, 40, 64).assemble(&reads, dir.path()).unwrap();
        let names: Vec<&str> = out.report.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, PHASES);
        assert!(
            out.report.network_bytes > 0,
            "2 nodes must shuffle remotely"
        );
        assert!(out.report.network_messages > 0);
        assert!(!out.report.resumed, "a fresh run is not a resume");
    }

    #[test]
    fn single_node_cluster_sends_no_partition_payload_over_network() {
        let reads = sample(600, 40, 5.0, 17);
        let dir = stdx::tempdir().unwrap();
        let out = cluster(1, 25, 40, 64).assemble(&reads, dir.path()).unwrap();
        // All fetches are rank-local; only charge would be token hops, and
        // with one node there are none.
        assert_eq!(out.report.network_bytes, 0);
    }

    #[test]
    fn one_node_charges_every_phase_as_the_pipeline_does() {
        let reads = sample(1200, 40, 8.0, 29);
        // Budget-derived blocks, and blocks far below what the budgets
        // allow: several runs and merge passes per partition.
        let small = gstream::SortConfig {
            host_block_pairs: 64,
            device_block_pairs: 16,
            kway: false,
        };
        let graph_bytes = StringGraph::new(reads.vertex_count()).memory_bytes();
        let disk = DiskModel::hdd();
        for sort in [None, Some(small)] {
            let mut assembly = AssemblyConfig::for_dataset(25, 40);
            assembly.sort = sort;
            let mut c = cluster(1, 25, 40, 64);
            c.config.assembly = assembly;
            let dir = stdx::tempdir().unwrap();
            let distributed = c.assemble(&reads, dir.path()).unwrap();
            // The records of rank 0's candidate lists, as the disk counts them.
            let candidate_bytes: u64 = std::fs::read_dir(dir.path().join("node0"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("cnd_"))
                .map(|p| gstream::read_footer(&p).unwrap().records * KvPair::BYTES as u64)
                .sum();
            let dir = stdx::tempdir().unwrap();
            let pipeline = lasagna::Pipeline::new(
                Device::with_capacity(GpuProfile::k20x(), 1 << 20),
                HostMem::new(8 << 20),
                SpillDir::create(dir.path(), IoStats::new(disk)).unwrap(),
                assembly,
            )
            .unwrap();
            let single = pipeline.assemble(&reads).unwrap();
            assert_eq!(distributed.contigs, single.contigs, "{sort:?}");
            assert_eq!(distributed.report.contig_stats, single.report.contig_stats);
            let (distributed, single) = (distributed.report, single.report);
            assert_eq!(distributed.phase("shuffle").unwrap().modeled_seconds, 0.0);
            for expect in &single.phases {
                let (phase, got) = (&expect.phase, distributed.phase(&expect.phase).unwrap());
                // Every field but wall. One node maps the whole input at
                // once, so launches match too. Seconds are equal up to
                // the order the same charges were summed in: the
                // pipeline's deltas subtract the load phase's I/O.
                let ((mut got, mut got_device, mut got_rest), (expect, device, rest)) =
                    (split_seconds(got), split_seconds(expect));
                // What was subtracted, which bounds the rounding left.
                let mut subtracted = 0.0f64;
                if phase == "reduce" {
                    // Where one node's reduce differs, by exactly this
                    // much: the rank writes its candidate lists, and the
                    // graph is held by the master, not on the rank's host
                    // budget. Modeled and disk seconds follow the bytes.
                    assert!(got.host_peak_bytes > 0 && candidate_bytes > 0);
                    got.io.bytes_written -= candidate_bytes;
                    got.host_peak_bytes += graph_bytes;
                    let candidate_seconds = candidate_bytes as f64 / disk.write_bytes_per_s;
                    // Modeled, then the disk's write seconds.
                    got_rest[0] -= candidate_seconds;
                    got_rest[2] -= candidate_seconds;
                    subtracted = candidate_seconds;
                }
                assert_eq!(got, expect, "{sort:?} {phase}");
                got_device.append(&mut got_rest);
                for (got, expect) in got_device.into_iter().zip(device.into_iter().chain(rest)) {
                    assert!(
                        (got - expect).abs() <= 1e-12 * expect.max(subtracted),
                        "{sort:?} {phase}: {got} vs {expect}"
                    );
                }
                if phase == "compress" {
                    assert!(expect.host_peak_bytes > graph_bytes, "{sort:?}");
                } else {
                    let bytes = expect.io.bytes_read + expect.io.bytes_written;
                    let work = expect.device.kernel_launches + expect.host_peak_bytes;
                    assert!(work > 0 && bytes > 0, "{sort:?} {phase}");
                }
            }
        }
    }

    #[test]
    fn two_runs_of_one_cluster_charge_bit_identical_modeled_seconds() {
        let reads = sample(1200, 40, 8.0, 29);
        assert!(reads.len().is_multiple_of(2));
        // Each phase's modeled seconds, or `None` when one rank mapped
        // both of the two equal blocks: blocks go to whichever rank asks
        // first, and a rank's seconds round after its earlier traffic, so
        // runs charge alike when each rank mapped one block. Beyond one
        // node the shuffle is left out: a fetch's block read is charged to
        // the serving node inside whatever window its rank has open.
        let modeled = |nodes: usize| {
            let dir = stdx::tempdir().unwrap();
            let c = cluster(nodes, 25, 40, reads.len() / 2);
            let report = c.assemble(&reads, dir.path()).unwrap().report;
            let blocks = |rank: usize| {
                let node = std::fs::read_dir(dir.path().join(format!("node{rank}"))).unwrap();
                let names = node.map(|e| e.unwrap().file_name().to_string_lossy().into_owned());
                names.filter(|name| name.starts_with("block")).count()
            };
            if nodes > 1 && (0..nodes).any(|rank| blocks(rank) != 1) {
                return None;
            }
            let phases = report.phases.into_iter();
            let charged = phases.filter(|p| nodes == 1 || p.phase != "shuffle");
            let bits = charged.map(|p| (p.phase, p.modeled_seconds.to_bits()));
            Some(bits.collect::<Vec<_>>())
        };
        for nodes in [1usize, 2] {
            let mut runs = std::iter::repeat_with(|| modeled(nodes)).take(20).flatten();
            let (first, second) = (runs.next().unwrap(), runs.next().unwrap());
            assert_eq!(first.len(), PHASES.len() - usize::from(nodes > 1));
            assert_eq!(first, second, "{nodes} nodes");
        }
    }

    /// A phase record's seconds but wall, in a fixed order — the device's
    /// (kernels, transfers, each kernel), then modeled and disk — and the
    /// rest of it with every seconds field zeroed.
    fn split_seconds(m: &PhaseMetrics) -> (PhaseMetrics, Vec<f64>, Vec<f64>) {
        let mut rest = PhaseMetrics {
            wall_seconds: 0.0,
            ..m.clone()
        };
        let (d, io) = (&mut rest.device, &mut rest.io);
        let mut device = vec![&mut d.kernel_seconds, &mut d.transfer_seconds];
        device.extend(d.per_kernel.values_mut().map(|k| &mut k.seconds));
        let other = [
            &mut rest.modeled_seconds,
            &mut io.read_seconds,
            &mut io.write_seconds,
        ];
        let device = device.into_iter().map(std::mem::take).collect();
        let other = other.into_iter().map(std::mem::take).collect();
        (rest, device, other)
    }

    #[test]
    fn more_nodes_reduce_modeled_map_and_sort_time() {
        let reads = sample(2000, 40, 10.0, 19);
        let mut modeled = Vec::new();
        for nodes in [1usize, 2, 4] {
            let dir = stdx::tempdir().unwrap();
            let out = cluster(nodes, 25, 40, 16)
                .assemble(&reads, dir.path())
                .unwrap();
            let m = out.report.phase("map").unwrap().modeled_seconds
                + out.report.phase("sort").unwrap().modeled_seconds;
            modeled.push(m);
        }
        assert!(
            modeled[0] > modeled[1] && modeled[1] > modeled[2],
            "map+sort should scale down: {modeled:?}"
        );
    }

    #[test]
    fn bad_configs_are_rejected() {
        let ok = AssemblyConfig::for_dataset(25, 40);
        assert!(Cluster::new(ClusterConfig {
            nodes: 0,
            gpu: GpuProfile::k20x(),
            device_capacity: 1 << 20,
            host_capacity: 1 << 20,
            disk: DiskModel::hdd(),
            net: NetModel::default(),
            block_reads: 8,
            assembly: ok,
            reduce_strategy: ReduceStrategy::LengthToken,
        })
        .is_err());
        let mut bad = ok;
        bad.l_min = 0;
        assert!(Cluster::supermic(2, 1 << 20, 1 << 20, bad).is_err());
    }

    fn range_cluster(nodes: usize, l_min: u32, read_len: u32, block_reads: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes,
            gpu: GpuProfile::k20x(),
            device_capacity: 1 << 20,
            host_capacity: 8 << 20,
            disk: DiskModel::hdd(),
            net: NetModel::infiniband_56g(),
            block_reads,
            assembly: AssemblyConfig::for_dataset(l_min, read_len),
            reduce_strategy: ReduceStrategy::FingerprintRange,
        })
        .unwrap()
    }

    #[test]
    fn fingerprint_range_reduce_matches_single_node_exactly() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        for nodes in [1usize, 2, 3, 4] {
            let dir = stdx::tempdir().unwrap();
            let out = range_cluster(nodes, 25, 40, 37)
                .assemble(&reads, dir.path())
                .unwrap();
            assert_eq!(
                out.graph.edge_count(),
                expect.edge_count(),
                "{nodes} nodes (range mode): edge count"
            );
            for v in 0..expect.vertex_count() {
                assert_eq!(
                    out.graph.out(v),
                    expect.out(v),
                    "{nodes} nodes (range mode): vertex {v}"
                );
            }
        }
    }

    #[test]
    fn range_reduce_finds_the_same_candidates_as_token_reduce() {
        let reads = sample(900, 40, 7.0, 23);
        let d1 = stdx::tempdir().unwrap();
        let token = cluster(3, 25, 40, 40).assemble(&reads, d1.path()).unwrap();
        let d2 = stdx::tempdir().unwrap();
        let range = range_cluster(3, 25, 40, 40)
            .assemble(&reads, d2.path())
            .unwrap();
        assert_eq!(token.report.candidates, range.report.candidates);
        assert_eq!(token.report.edges, range.report.edges);
    }

    #[test]
    fn recorder_captures_per_rank_superstep_spans() {
        let reads = sample(800, 40, 6.0, 29);
        let dir = stdx::tempdir().unwrap();
        let rec = obs::Recorder::new();
        let out = cluster(2, 25, 40, 64)
            .with_recorder(rec.clone())
            .assemble(&reads, dir.path())
            .unwrap();
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("distributed").unwrap();
        let names: Vec<&str> = rollup
            .children(root.id)
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, PHASES);
        // The master loads and compresses alone; the ranks run the rest.
        for phase in rollup.children(root.id) {
            let ranks = rollup.children(phase.id);
            let expect = if ["load", "compress"].contains(&phase.name.as_str()) {
                0
            } else {
                2
            };
            assert_eq!(ranks.len(), expect, "phase {} rank spans", phase.name);
            assert!(ranks.iter().all(|r| r.name.starts_with("rank")));
        }
        // A rank that mapped a block counts its tuples on its own span,
        // and the ranks' counts add up to the pipeline's.
        let tuples = |agg: &obs::SpanAgg| -> BTreeMap<String, u64> {
            let counters = agg.counters.iter();
            let spill = counters.filter(|(name, _)| name.starts_with("spill.tuples."));
            spill.map(|(name, &n)| (name.clone(), n)).collect()
        };
        let map = rollup.child_named(root.id, "map").unwrap();
        let mut summed = BTreeMap::new();
        for rank in rollup.children(map.id) {
            let counted = tuples(&rank.own);
            let node = dir.path().join(rank.name.replace("rank", "node"));
            let mapped = std::fs::read_dir(node).unwrap().any(|e| {
                e.unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("block")
            });
            assert_eq!(!counted.is_empty(), mapped, "{}", rank.name);
            assert!(!mapped || rank.own.counter("map.batches") > 0);
            for (name, n) in counted {
                *summed.entry(name).or_insert(0) += n;
            }
        }
        let pipeline_rec = obs::Recorder::new();
        let pipe_dir = stdx::tempdir().unwrap();
        let config = AssemblyConfig::for_dataset(25, 40);
        lasagna::Pipeline::laptop(config, pipe_dir.path())
            .unwrap()
            .with_recorder(pipeline_rec.clone())
            .assemble(&reads)
            .unwrap();
        let pipeline = obs::Rollup::from_events(&pipeline_rec.events());
        let assembly = pipeline.root_named("assembly").unwrap();
        let pipeline_map = pipeline.child_named(assembly.id, "map").unwrap();
        assert_eq!(summed.len(), 2 * 15);
        assert_eq!(summed, tuples(&pipeline_map.own));
        // Each rank sorts its partitions under their own spans, as the
        // pipeline does, and every pair the map wrote is sorted once.
        let sort = rollup.child_named(root.id, "sort").unwrap();
        let parts: Vec<_> = rollup
            .children(sort.id)
            .into_iter()
            .flat_map(|rank| rollup.children(rank.id))
            .collect();
        assert_eq!(parts.len(), 2 * 15, "one span per partition");
        assert!(parts
            .iter()
            .all(|p| p.name.starts_with("sfx_") || p.name.starts_with("pfx_")));
        assert_eq!(
            rollup.subtree(sort.id).counter("sort.pairs"),
            2 * 15 * reads.vertex_count() as u64
        );
        // The ranks count the candidates they find, the commit the
        // guard's verdicts on them.
        let reduce = rollup.child_named(root.id, "reduce").unwrap();
        let agg = rollup.subtree(reduce.id);
        assert_eq!(agg.counter("reduce.candidates"), out.report.candidates);
        assert_eq!(
            agg.counter("reduce.accepted") + agg.counter("reduce.rejected"),
            out.report.candidates
        );
        assert_eq!(agg.counter("reduce.accepted") * 2, out.report.edges);
        let root_agg = rollup.subtree(root.id);
        assert_eq!(root_agg.counter("net.bytes"), out.report.network_bytes);
    }

    #[test]
    fn empty_input_distributes_cleanly() {
        let reads = ReadSet::new(40);
        let dir = stdx::tempdir().unwrap();
        let out = cluster(2, 25, 40, 8).assemble(&reads, dir.path()).unwrap();
        assert_eq!(out.report.edges, 0);
        assert_eq!(out.report.candidates, 0);
    }

    fn assert_same_graph(out: &StringGraph, expect: &StringGraph, what: &str) {
        assert_eq!(out.edge_count(), expect.edge_count(), "{what}: edge count");
        for v in 0..expect.vertex_count() {
            assert_eq!(out.out(v), expect.out(v), "{what}: vertex {v}");
        }
    }

    #[test]
    fn am_killed_node_is_failed_over_and_output_is_identical() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        let rec = obs::Recorder::new();
        let faults =
            faultsim::Faults::from_plan(&faultsim::FaultPlan::new().fail_at(faultsim::DNET_AM, 3));
        let out = cluster(3, 25, 40, 37)
            .with_recorder(rec.clone())
            .with_faults(faults.clone())
            .assemble(&reads, dir.path())
            .unwrap();
        assert_same_graph(&out.graph, &expect, "am kill");
        assert_eq!(faults.injected().len(), 1, "exactly one fault fired");
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("distributed").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("recovery.node_failures"), 1);
        assert!(agg.counter("recovery.length_reassignments") >= 1);
        assert!(agg.metric("recovery.backoff_seconds") > 0.0);
    }

    #[test]
    fn kernel_killed_node_is_failed_over_and_output_is_identical() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        // Fire late enough that the victim has mapped blocks already: its
        // surviving disk keeps serving them while its lengths move on.
        let dir = stdx::tempdir().unwrap();
        let faults = faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::KERNEL_LAUNCH, 20),
        );
        let out = cluster(3, 25, 40, 37)
            .with_faults(faults.clone())
            .assemble(&reads, dir.path())
            .unwrap();
        assert_same_graph(&out.graph, &expect, "kernel kill");
        assert_eq!(faults.injected().len(), 1);
    }

    #[test]
    fn lost_reduce_token_is_regenerated_and_output_is_identical() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        let rec = obs::Recorder::new();
        let out = cluster(3, 25, 40, 37)
            .with_recorder(rec.clone())
            .with_faults(faultsim::Faults::from_plan(
                &faultsim::FaultPlan::new().fail_at(faultsim::DNET_TOKEN, 1),
            ))
            .assemble(&reads, dir.path())
            .unwrap();
        assert_same_graph(&out.graph, &expect, "token loss");
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("distributed").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("recovery.token_regenerations"), 1);
    }

    #[test]
    fn single_node_cluster_never_sends_am_so_am_faults_are_inert() {
        let reads = sample(600, 40, 5.0, 17);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        let faults =
            faultsim::Faults::from_plan(&faultsim::FaultPlan::new().fail_at(faultsim::DNET_AM, 1));
        let out = cluster(1, 25, 40, 64)
            .with_faults(faults.clone())
            .assemble(&reads, dir.path())
            .unwrap();
        assert_same_graph(&out.graph, &expect, "single node");
        assert!(faults.injected().is_empty(), "no AM sends on one node");
    }

    #[test]
    fn faults_surviving_the_retry_budget_propagate() {
        let reads = sample(600, 40, 5.0, 17);
        let dir = stdx::tempdir().unwrap();
        // Kill every node: the last fail-over finds no survivors.
        let plan = faultsim::FaultPlan::new()
            .fail_at(faultsim::DNET_AM, 1)
            .fail_at(faultsim::DNET_AM, 2)
            .fail_at(faultsim::DNET_AM, 3);
        let err = cluster(3, 25, 40, 37)
            .with_faults(faultsim::Faults::from_plan(&plan))
            .assemble(&reads, dir.path())
            .unwrap_err();
        assert!(
            matches!(err, DnetError::NoSurvivors { node: 0 }),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn range_mode_node_kill_fails_over_to_the_identical_graph() {
        // Fault injection in range mode used to be refused outright; with
        // per-range ownership the fail-over story is the same as token
        // mode's, so a killed node must no longer change the output.
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        let rec = obs::Recorder::new();
        let faults =
            faultsim::Faults::from_plan(&faultsim::FaultPlan::new().fail_at(faultsim::DNET_AM, 3));
        let out = range_cluster(3, 25, 40, 37)
            .with_recorder(rec.clone())
            .with_faults(faults.clone())
            .assemble(&reads, dir.path())
            .unwrap();
        assert_same_graph(&out.graph, &expect, "range-mode am kill");
        assert_eq!(faults.injected().len(), 1);
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("distributed").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("recovery.node_failures"), 1);
        assert!(agg.counter("recovery.length_reassignments") >= 1);
    }

    #[test]
    fn range_mode_lost_token_is_regenerated_with_identical_output() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        let rec = obs::Recorder::new();
        let out = range_cluster(3, 25, 40, 37)
            .with_recorder(rec.clone())
            .with_faults(faultsim::Faults::from_plan(
                &faultsim::FaultPlan::new().fail_at(faultsim::DNET_TOKEN, 1),
            ))
            .assemble(&reads, dir.path())
            .unwrap();
        assert_same_graph(&out.graph, &expect, "range-mode token loss");
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("distributed").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("recovery.token_regenerations"), 1);
    }

    #[test]
    fn master_crash_at_superstep_write_resumes_without_redoing_finished_work() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        // Clean-run append order: header, map, shuffle, sort, join —
        // occurrence 5 kills the master exactly when it would acknowledge
        // the completed join superstep.
        let err = cluster(2, 25, 40, 37)
            .with_faults(faultsim::Faults::from_plan(
                &faultsim::FaultPlan::new().fail_at(faultsim::SUPERSTEP_WRITE, 5),
            ))
            .resume(&reads, dir.path())
            .unwrap_err();
        assert_eq!(
            err.fault().map(|f| (f.point.as_str(), f.occurrence)),
            Some((faultsim::SUPERSTEP_WRITE, 5)),
            "got {err}"
        );

        let rec = obs::Recorder::new();
        let out = cluster(2, 25, 40, 37)
            .with_recorder(rec.clone())
            .resume(&reads, dir.path())
            .unwrap();
        assert!(out.report.resumed, "second run must resume, not restart");
        assert_same_graph(&out.graph, &expect, "master crash resume");
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("distributed").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("recovery.master_rebuilds"), 1);
        // map, shuffle and sort were logged before the crash; only the
        // join supersteps (one per overlap length) replay.
        assert_eq!(agg.counter("recovery.superstep_replays"), (40 - 25) as u64);
        let map_phase = rollup.child_named(root.id, "map").unwrap();
        let map_agg = rollup.subtree(map_phase.id);
        assert_eq!(
            map_agg.counter("phase.skipped_items"),
            reads.len().div_ceil(37) as u64,
            "every durably mapped block is skipped on resume"
        );
    }

    #[test]
    fn run_killed_on_every_node_resumes_to_the_identical_graph() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        // Kill all three nodes: the run dies with no survivors, leaving
        // partial durable state behind.
        let plan = faultsim::FaultPlan::new()
            .fail_at(faultsim::DNET_AM, 1)
            .fail_at(faultsim::DNET_AM, 2)
            .fail_at(faultsim::DNET_AM, 3);
        cluster(3, 25, 40, 37)
            .with_faults(faultsim::Faults::from_plan(&plan))
            .resume(&reads, dir.path())
            .unwrap_err();
        let out = cluster(3, 25, 40, 37).resume(&reads, dir.path()).unwrap();
        assert!(out.report.resumed);
        assert_same_graph(&out.graph, &expect, "kill-all resume");
    }

    #[test]
    fn range_mode_killed_run_resumes_to_the_identical_graph() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        let plan = faultsim::FaultPlan::new()
            .fail_at(faultsim::DNET_AM, 1)
            .fail_at(faultsim::DNET_AM, 2);
        range_cluster(2, 25, 40, 37)
            .with_faults(faultsim::Faults::from_plan(&plan))
            .resume(&reads, dir.path())
            .unwrap_err();
        let out = range_cluster(2, 25, 40, 37)
            .resume(&reads, dir.path())
            .unwrap();
        assert!(out.report.resumed);
        assert_same_graph(&out.graph, &expect, "range-mode resume");
    }

    #[test]
    fn resume_of_a_completed_run_redoes_nothing() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        cluster(2, 25, 40, 37).assemble(&reads, dir.path()).unwrap();
        let rec = obs::Recorder::new();
        let out = cluster(2, 25, 40, 37)
            .with_recorder(rec.clone())
            .resume(&reads, dir.path())
            .unwrap();
        assert!(out.report.resumed);
        assert_same_graph(&out.graph, &expect, "no-op resume");
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("distributed").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("recovery.master_rebuilds"), 1);
        assert_eq!(
            agg.counter("recovery.superstep_replays"),
            0,
            "a completed run has nothing to replay"
        );
    }

    #[test]
    fn resume_with_a_different_config_restarts_fresh() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        cluster(2, 25, 40, 37).assemble(&reads, dir.path()).unwrap();
        // Different block size: a different run. Resuming must silently
        // restart fresh, never mix the two runs' artifacts.
        let out = cluster(2, 25, 40, 64).resume(&reads, dir.path()).unwrap();
        assert!(!out.report.resumed, "foreign state must not be resumed");
        assert_same_graph(&out.graph, &expect, "fresh restart");
    }

    #[test]
    fn torn_superstep_log_tail_is_replayed_on_resume() {
        let reads = sample(1200, 40, 8.0, 11);
        let expect = single_node_graph(&reads, 25);
        let dir = stdx::tempdir().unwrap();
        cluster(2, 25, 40, 37).assemble(&reads, dir.path()).unwrap();
        // Tear the final commit record mid-append, as a master crash
        // would: chop the trailing newline and part of the record.
        let log_path = dir.path().join(crate::superstep::LOG_NAME);
        let bytes = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &bytes[..bytes.len() - 10]).unwrap();

        let rec = obs::Recorder::new();
        let out = cluster(2, 25, 40, 37)
            .with_recorder(rec.clone())
            .resume(&reads, dir.path())
            .unwrap();
        assert!(out.report.resumed);
        assert_same_graph(&out.graph, &expect, "torn-tail resume");
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("distributed").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("recovery.master_rebuilds"), 1);
        assert_eq!(agg.counter("recovery.superstep_replays"), 0);
        // The resume truncated the torn tail and re-appended the lost
        // commit: a third recovery sees a clean, complete log.
        let back = SuperstepLog::recover(dir.path(), faultsim::Faults::disabled())
            .unwrap()
            .unwrap();
        assert!(!back.torn, "resume must repair the torn tail");
        assert_eq!(back.records.last().unwrap().phase, "commit");
    }

    #[test]
    fn fnv_digests_are_pinned() {
        assert_eq!(
            bits_checksum(&[0, 1, u64::MAX, 0x0123_4567_89ab_cdef]),
            0x6226_4c41_337c_c29c
        );
        let reads = sample(600, 40, 5.0, 17);
        let c = cluster(2, 25, 40, 64);
        assert_eq!(
            c.run_fingerprint(&reads, &c.config.assembly),
            0xb9ed_32cd_871e_e4dc
        );
    }

    #[test]
    fn backoff_charges_nothing_for_round_zero_and_is_capped() {
        assert_eq!(backoff_for(0), 0.0, "the initial attempt is not a retry");
        assert_eq!(backoff_for(1), 0.1);
        assert_eq!(backoff_for(2), 0.2);
        assert_eq!(backoff_for(3), 0.4);
        // Doubling stops after MAX_RECOVERY_ROUNDS steps: a long fail-over
        // chain cannot inflate modeled time without bound.
        assert_eq!(backoff_for(MAX_RECOVERY_ROUNDS + 1), backoff_for(100));
        let total: f64 = (0..1000).map(backoff_for).sum();
        assert!(total <= 1000.0 * backoff_for(MAX_RECOVERY_ROUNDS + 1));
    }
}

#[cfg(test)]
mod balancing_tests {
    use super::*;
    use genome::{GenomeSim, ShotgunSim};

    #[test]
    fn master_spreads_blocks_across_nodes() {
        let genome = GenomeSim::uniform(2_000, 301).generate();
        let reads = ShotgunSim::error_free(40, 10.0, 302).sample(&genome);
        let dir = stdx::tempdir().unwrap();
        let cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            gpu: GpuProfile::k20x(),
            device_capacity: 1 << 20,
            host_capacity: 8 << 20,
            disk: DiskModel::cluster_scratch(),
            net: NetModel::infiniband_56g(),
            block_reads: 25, // 500 reads -> 20 blocks over 3 nodes
            assembly: AssemblyConfig::for_dataset(25, 40),
            reduce_strategy: ReduceStrategy::LengthToken,
        })
        .unwrap();
        cluster.assemble(&reads, dir.path()).unwrap();
        // Every node dir must have received at least one block: dynamic
        // assignment starves nobody when blocks outnumber nodes.
        for rank in 0..3 {
            let blocks = std::fs::read_dir(dir.path().join(format!("node{rank}")))
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with("block"))
                .count();
            assert!(blocks > 0, "node {rank} processed no blocks");
        }
    }

    #[test]
    fn single_block_cluster_still_works() {
        let genome = GenomeSim::uniform(800, 311).generate();
        let reads = ShotgunSim::error_free(40, 6.0, 312).sample(&genome);
        let dir = stdx::tempdir().unwrap();
        // One giant block: only one node maps, but shuffle/sort/reduce
        // still involve everyone.
        let cluster = Cluster::new(ClusterConfig {
            nodes: 3,
            gpu: GpuProfile::k20x(),
            device_capacity: 1 << 20,
            host_capacity: 8 << 20,
            disk: DiskModel::cluster_scratch(),
            net: NetModel::infiniband_56g(),
            block_reads: usize::MAX >> 1,
            assembly: AssemblyConfig::for_dataset(25, 40),
            reduce_strategy: ReduceStrategy::LengthToken,
        })
        .unwrap();
        let out = cluster.assemble(&reads, dir.path()).unwrap();
        out.graph.check_invariants().unwrap();
        assert!(out.report.edges > 0);
    }

    #[test]
    fn nodes_exceeding_partitions_are_tolerated() {
        // More nodes than overlap lengths: some nodes own nothing.
        let genome = GenomeSim::uniform(600, 321).generate();
        let reads = ShotgunSim::error_free(40, 6.0, 322).sample(&genome);
        let dir = stdx::tempdir().unwrap();
        let cluster = Cluster::new(ClusterConfig {
            nodes: 6,
            gpu: GpuProfile::k20x(),
            device_capacity: 1 << 20,
            host_capacity: 8 << 20,
            disk: DiskModel::cluster_scratch(),
            net: NetModel::infiniband_56g(),
            block_reads: 16,
            assembly: AssemblyConfig::for_dataset(37, 40), // 3 partitions, 6 nodes
            reduce_strategy: ReduceStrategy::LengthToken,
        })
        .unwrap();
        let out = cluster.assemble(&reads, dir.path()).unwrap();
        out.graph.check_invariants().unwrap();
    }
}
