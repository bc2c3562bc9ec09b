//! The assembly pipeline driver (paper Fig. 4).

use crate::config::AssemblyConfig;
use crate::contig::generate_contigs;
use crate::graph::StringGraph;
use crate::manifest::Manifest;
use crate::report::{measure_phase, AssemblyReport};
use crate::traverse::{extract_paths, Path, TraverseOptions};
use crate::{map, reduce, sortphase, ContigStats, Result};
use genome::{PackedSeq, ReadSet};
use gstream::{HostMem, IoStats, SpillDir, StreamError};
use vgpu::{Device, GpuProfile};

/// Everything an assembly produces.
#[derive(Debug)]
pub struct AssemblyOutput {
    /// The spelled contigs.
    pub contigs: Vec<PackedSeq>,
    /// The greedy string graph.
    pub graph: StringGraph,
    /// The unambiguous paths the contigs were spelled from.
    pub paths: Vec<Path>,
    /// Per-phase measurements.
    pub report: AssemblyReport,
}

/// Load: stage the packed reads on disk (the dataset's resting place) and
/// stream them back in, charging the read I/O to `spill`'s disk and the
/// image to `host` — the "Load" row of Tables II/III. The first step of
/// the pipeline and of the distributed master.
pub fn load(spill: &SpillDir, host: &HostMem, reads: &ReadSet) -> Result<ReadSet> {
    let staged = spill.root().join("reads.packed");
    std::fs::write(&staged, reads.to_packed_bytes()).map_err(StreamError::from)?;
    let bytes = std::fs::read(&staged).map_err(StreamError::from)?;
    spill.io().add_read(bytes.len() as u64);
    // The paper's datasets rest on disk as FASTQ (~3.2 B/base per Table I);
    // our staging file is 2-bit packed, so charge the difference to model
    // the real load volume.
    spill.io().add_read(reads.total_bases() * 3);
    let _guard = host.reserve(bytes.len() as u64)?;
    let (read_len, count) = (reads.read_len(), reads.len());
    Ok(ReadSet::from_packed_bytes(read_len, count, &bytes)?)
}

/// Compress: extract the unambiguous paths of `graph` and spell their
/// contigs on `device`, the last step of the pipeline and of the
/// distributed master (the paper's compress is a single-node stage).
/// `traverse.paths`, `traverse.steps` and `traverse.singletons` land on
/// `span`.
pub fn compress(
    device: &Device,
    host: &HostMem,
    reads: &ReadSet,
    graph: &StringGraph,
    l_max: u32,
    rec: &obs::Recorder,
    span: u64,
) -> Result<(Vec<Path>, Vec<PackedSeq>, ContigStats)> {
    let paths = extract_paths(graph, l_max, TraverseOptions::default());
    let steps: u64 = paths.iter().map(|p| p.steps.len() as u64).sum();
    let singletons = paths.iter().filter(|p| p.steps.len() == 1).count() as u64;
    rec.counter_on(span, "traverse.paths", paths.len() as u64);
    rec.counter_on(span, "traverse.steps", steps);
    rec.counter_on(span, "traverse.singletons", singletons);
    let (contigs, stats) = generate_contigs(device, host, reads, &paths)?;
    Ok((paths, contigs, stats))
}

/// A configured assembler: a device, a host-memory budget, a spill
/// directory, and the assembly parameters.
pub struct Pipeline {
    device: Device,
    host: HostMem,
    spill: SpillDir,
    config: AssemblyConfig,
    recorder: obs::Recorder,
    faults: faultsim::Faults,
}

impl Pipeline {
    /// Assemble with explicit budgets.
    pub fn new(
        device: Device,
        host: HostMem,
        spill: SpillDir,
        config: AssemblyConfig,
    ) -> Result<Self> {
        config.validate()?;
        Ok(Pipeline {
            device,
            host,
            spill,
            config,
            recorder: obs::Recorder::new(),
            faults: faultsim::Faults::disabled(),
        })
    }

    /// A laptop-friendly setup: a K40-profile device capped at 64 MiB, a
    /// 256 MiB host budget, and a spill directory at `workdir`.
    pub fn laptop(config: AssemblyConfig, workdir: impl AsRef<std::path::Path>) -> Result<Self> {
        let device = Device::with_capacity(GpuProfile::k40(), 64 << 20);
        let host = HostMem::new(256 << 20);
        let spill = SpillDir::create(workdir.as_ref(), IoStats::default())?;
        Pipeline::new(device, host, spill, config)
    }

    /// The virtual device in use.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The host-memory budget in use.
    pub fn host(&self) -> &HostMem {
        &self.host
    }

    /// The spill directory in use.
    pub fn spill(&self) -> &SpillDir {
        &self.spill
    }

    /// The configuration in use.
    pub fn config(&self) -> &AssemblyConfig {
        &self.config
    }

    /// Swap in a different event recorder (e.g. one carrying a
    /// `--trace-out` JSONL sink). A disabled recorder is upgraded to a
    /// live one, because the [`AssemblyReport`] is rebuilt purely from
    /// recorded events — recording cannot be turned off.
    pub fn with_recorder(mut self, recorder: obs::Recorder) -> Self {
        self.recorder = if recorder.is_enabled() {
            recorder
        } else {
            obs::Recorder::new()
        };
        self.faults.set_recorder(self.recorder.clone());
        self
    }

    /// Arm deterministic fault injection (see `faultsim` and
    /// ROBUSTNESS.md): the plan's failpoints are threaded into the spill
    /// writers/readers, the device kernel launches, and the manifest
    /// store, and every injected fault is recorded as a
    /// `fault.injected.*` event on this pipeline's recorder.
    pub fn with_faults(mut self, faults: faultsim::Faults) -> Self {
        faults.set_recorder(self.recorder.clone());
        self.spill.io().set_faults(faults.clone());
        self.device.set_faults(faults.clone());
        self.faults = faults;
        self
    }

    /// The fault-injection registry in use (disabled by default).
    pub fn faults(&self) -> &faultsim::Faults {
        &self.faults
    }

    /// The recorder capturing this pipeline's structured events.
    pub fn recorder(&self) -> &obs::Recorder {
        &self.recorder
    }

    /// Run `f` under a phase span, measured by [`measure_phase`] and
    /// handed the span's id. The report is later rolled up from the events
    /// that leaves on the span.
    fn phase<T>(&self, name: &str, f: impl FnOnce(u64) -> Result<T>) -> Result<T> {
        let span = self.recorder.span(name);
        let (id, io) = (span.id(), self.spill.io());
        let (out, _) = measure_phase(&self.recorder, id, &self.device, &self.host, io, || f(id))?;
        Ok(out)
    }

    /// Run the full pipeline on `reads`.
    pub fn assemble(&self, reads: &ReadSet) -> Result<AssemblyOutput> {
        self.assemble_inner(reads, false)
    }

    /// Resume an interrupted assembly from this spill directory's
    /// checkpoint manifest (`manifest.json`), skipping phases and
    /// already-sorted partitions a previous run completed and recomputing
    /// the rest. Every artifact the manifest claims is durable is
    /// validated first (a mismatch fails loudly with `Corrupt`). The
    /// manifest is keyed to the configuration and the dataset, so resuming
    /// with different reads or parameters starts from scratch. Built for
    /// the paper's regime — multi-hour assemblies — where losing a 12-hour
    /// sort to a crash is unacceptable.
    pub fn resume(&self, reads: &ReadSet) -> Result<AssemblyOutput> {
        self.assemble_inner(reads, true)
    }

    pub(crate) fn dataset_fingerprint(&self, reads: &ReadSet) -> u64 {
        // FNV-1a over the knobs that change on-disk artifacts.
        let mut h = gstream::Fnv64::new();
        for v in [
            self.config.l_min as u64,
            self.config.l_max as u64,
            self.config.fingerprint_bits as u64,
            self.config.range_split as u64,
            reads.len() as u64,
            reads.total_bases(),
        ] {
            h.update(&v.to_le_bytes());
        }
        // Sample a few reads' first bases so a different dataset of the
        // same shape is still detected.
        for i in (0..reads.len()).step_by((reads.len() / 16).max(1)) {
            h.update(&(reads.first_base(i).code() as u64).to_le_bytes());
        }
        h.finish()
    }

    /// Record the footer of every existing partition file in the manifest.
    fn record_partitions(&self, manifest: &mut Manifest) -> Result<()> {
        for part in sortphase::partitions(&self.config) {
            let path = self.spill.path_range(part);
            if path.exists() {
                manifest.record_file(&path)?;
            }
        }
        Ok(())
    }

    /// Validate every artifact a resumed manifest claims is durable.
    ///
    /// Partitions already marked sorted must match their recorded footer
    /// *exactly* and drain-verify, so any bit flip since the checkpoint
    /// surfaces here as [`StreamError::Corrupt`] — not halfway through
    /// reduce. Partitions not yet marked sorted only self-verify
    /// (footer + payload checksum): the sort phase renames the sorted
    /// scratch over the original *before* the manifest updates, so a
    /// crash in that window legitimately leaves a valid file whose
    /// footer differs from the manifest entry; it simply gets re-sorted.
    fn validate_resume(&self, manifest: &Manifest) -> Result<()> {
        for part in sortphase::partitions(&self.config) {
            let (path, tag) = (self.spill.path_range(part), part.name());
            if !path.exists() {
                if manifest.is_sorted(&tag) {
                    return Err(StreamError::Corrupt(format!(
                        "manifest lists sorted partition {tag} but {} is missing",
                        path.display()
                    ))
                    .into());
                }
                continue;
            }
            let mut r = gstream::RecordReader::open(&path, self.spill.io().clone())?;
            if manifest.is_sorted(&tag) && !manifest.file_matches(&path) {
                return Err(StreamError::Corrupt(format!(
                    "sorted partition {tag} at {} does not match its manifest checkpoint",
                    path.display()
                ))
                .into());
            }
            r.verify_to_end()?;
        }
        if manifest.is_done("reduce") {
            let graph_path = self.spill.root().join("graph.bin");
            let bytes = std::fs::read(&graph_path).map_err(StreamError::Io)?;
            if !manifest.raw_matches("graph.bin", &bytes) {
                return Err(StreamError::Corrupt(format!(
                    "{} does not match its manifest checkpoint",
                    graph_path.display()
                ))
                .into());
            }
        }
        Ok(())
    }

    /// Resolve the manifest to run under: a validated resume manifest, or
    /// a fresh one (stale artifacts purged, run identity durably recorded
    /// before any phase writes).
    fn prepare_manifest(&self, fingerprint: u64, resume: bool) -> Result<Manifest> {
        if resume {
            match Manifest::load(self.spill.root())? {
                // A different dataset/config is not an error — it is a
                // new run; restart silently (the old behavior).
                Some(m) if m.config_hash != fingerprint => {}
                // Nothing durable before map completes; restart.
                Some(m) if !m.is_done("map") => {}
                Some(m) => {
                    self.validate_resume(&m)?;
                    return Ok(m);
                }
                None => {}
            }
        }
        self.spill.clear()?;
        let _ = std::fs::remove_file(self.spill.root().join("graph.bin"));
        let manifest = Manifest::new(fingerprint);
        manifest.store(self.spill.root(), &self.faults)?;
        Ok(manifest)
    }

    fn assemble_inner(&self, reads: &ReadSet, resume: bool) -> Result<AssemblyOutput> {
        self.config.validate()?;
        let rec = &self.recorder;
        let fingerprint = self.dataset_fingerprint(reads);
        let mut manifest = self.prepare_manifest(fingerprint, resume)?;
        let graph_path = self.spill.root().join("graph.bin");

        let root = rec.span("assembly");

        let reads = self.phase("load", |_| load(&self.spill, &self.host, reads))?;

        // Map: fingerprint generation + length partitioning.
        if manifest.is_done("map") {
            drop(rec.span("map (resumed)"));
        } else {
            self.phase("map", |span| {
                let (device, host, spill) = (&self.device, &self.host, &self.spill);
                let block = 0..reads.len();
                map::map_block(device, host, spill, &self.config, &reads, block, rec, span)
            })?;
            manifest.mark_phase("map");
            self.record_partitions(&mut manifest)?;
            manifest.store(self.spill.root(), &self.faults)?;
        }

        // Sort: hybrid external sort of every partition. The manifest is
        // stored once a host block of pairs has been sorted since the last
        // store, and when the phase ends: in the paper's regime (a
        // partition is many host blocks) that is after every partition,
        // while partitions smaller than a host block share a commit. A
        // crash re-sorts what the last stored manifest does not mark —
        // at most one partition or one host block of pairs, whichever is
        // larger; a partition sorted on disk but not marked is whole
        // (`validate_resume` verifies it) and is simply sorted again.
        if manifest.is_done("sort") {
            drop(rec.span("sort (resumed)"));
        } else {
            let already: std::collections::HashSet<String> =
                manifest.sorted.iter().cloned().collect();
            let host_block = sortphase::sort_config(&self.config, &self.host, &self.device)
                .host_block_pairs as u64;
            let mut unstored = 0u64;
            self.phase("sort", |_| {
                sortphase::run_checkpointed(
                    &self.device,
                    &self.host,
                    &self.spill,
                    &self.config,
                    rec,
                    |tag| already.contains(tag),
                    &mut |tag, path| {
                        unstored += manifest.record_file(path)?;
                        manifest.mark_sorted(tag);
                        if unstored >= host_block {
                            unstored = 0;
                            manifest.store(self.spill.root(), &self.faults)?;
                        }
                        Ok(())
                    },
                )
            })?;
            manifest.mark_phase("sort");
            manifest.store(self.spill.root(), &self.faults)?;
        }

        // Reduce: overlap detection into the greedy string graph. The
        // graph is host-resident (Section III-C: a human-genome graph is
        // ~12 GB, beyond any device), so its footprint reserves host
        // budget for the rest of the pipeline.
        let mut graph = StringGraph::new(reads.vertex_count());
        let _graph_guard = self.host.reserve(graph.memory_bytes())?;
        if manifest.is_done("reduce") && graph_path.exists() {
            let bytes = std::fs::read(&graph_path).map_err(gstream::StreamError::from)?;
            graph = StringGraph::from_bytes(&bytes)?;
            drop(rec.span("reduce (resumed)"));
        } else {
            self.phase("reduce", |_| {
                reduce::run_traced(
                    &self.device,
                    &self.host,
                    &self.spill,
                    &self.config,
                    &mut graph,
                    rec,
                )
            })?;
            let bytes = graph.to_bytes();
            std::fs::write(&graph_path, &bytes).map_err(gstream::StreamError::from)?;
            manifest.mark_phase("reduce");
            manifest.record_raw("graph.bin", &bytes);
            manifest.store(self.spill.root(), &self.faults)?;
        }

        let (paths, contigs, contig_stats) = self.phase("compress", |span| {
            let (device, host, l_max) = (&self.device, &self.host, self.config.l_max);
            compress(device, host, &reads, &graph, l_max, rec, span)
        })?;

        drop(root);

        // The report is a pure roll-up over the recorded events: totals
        // printed by the report and totals in the trace cannot disagree.
        let rollup = obs::Rollup::from_events(&rec.events());
        let mut report = AssemblyReport::from_trace(&rollup, "assembly");
        report.dataset = "custom".into();
        report.reads = reads.len() as u64;
        report.bases = reads.total_bases();
        report.graph_edges = graph.edge_count();
        report.graph_bytes = graph.memory_bytes();
        report.contig_stats = contig_stats;

        Ok(AssemblyOutput {
            contigs,
            graph,
            paths,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_contigs;
    use genome::{GenomeSim, ShotgunSim};

    #[test]
    fn dataset_fingerprint_is_pinned() {
        let genome = GenomeSim::uniform(600, 3).generate();
        let reads = ShotgunSim::error_free(40, 5.0, 4).sample(&genome);
        let dir = stdx::tempdir().unwrap();
        let pipeline = Pipeline::laptop(AssemblyConfig::for_dataset(25, 40), dir.path()).unwrap();
        assert_eq!(pipeline.dataset_fingerprint(&reads), 0x5984_6ef5_6b30_1e22);
    }

    fn assemble_genome(
        genome_len: usize,
        read_len: usize,
        coverage: f64,
        l_min: u32,
        seed: u64,
    ) -> (PackedSeq, AssemblyOutput) {
        let genome = GenomeSim::uniform(genome_len, seed).generate();
        let reads = ShotgunSim::error_free(read_len, coverage, seed + 1).sample(&genome);
        let dir = stdx::tempdir().unwrap();
        let config = AssemblyConfig::for_dataset(l_min, read_len as u32);
        let pipeline = Pipeline::laptop(config, dir.path()).unwrap();
        let out = pipeline.assemble(&reads).unwrap();
        (genome, out)
    }

    #[test]
    fn end_to_end_small_genome_produces_exact_contigs() {
        let (genome, out) = assemble_genome(3000, 50, 15.0, 30, 42);
        assert!(out.graph.edge_count() > 0, "overlaps must be found");
        out.graph.check_invariants().unwrap();
        let report = verify_contigs(&genome, &out.contigs);
        assert!(
            report.all_exact(),
            "misassembled {} of {} contigs",
            report.misassembled,
            report.contigs
        );
        // Assembly must actually merge reads: N50 beyond read length.
        assert!(
            out.report.contig_stats.n50 > 50,
            "N50 {} not beyond read length",
            out.report.contig_stats.n50
        );
    }

    #[test]
    fn report_contains_all_five_phases_in_order() {
        let (_genome, out) = assemble_genome(1000, 40, 8.0, 25, 7);
        let names: Vec<&str> = out.report.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, vec!["load", "map", "sort", "reduce", "compress"]);
        for p in &out.report.phases {
            assert!(p.wall_seconds >= 0.0);
            assert!(p.modeled_seconds >= 0.0, "{}", p.phase);
        }
        // Sort must dominate modeled time among map/sort (paper: >50%).
        let sort = out.report.phase("sort").unwrap().modeled_seconds;
        assert!(sort > 0.0);
    }

    #[test]
    fn load_holds_the_staged_image_on_the_host_and_every_reservation_goes_back() {
        let genome = GenomeSim::uniform(1000, 5).generate();
        let reads = ShotgunSim::error_free(40, 8.0, 6).sample(&genome);
        let dir = stdx::tempdir().unwrap();
        let pipeline = Pipeline::laptop(AssemblyConfig::for_dataset(25, 40), dir.path()).unwrap();
        let out = pipeline.assemble(&reads).unwrap();
        let load = out.report.phase("load").unwrap();
        assert_eq!(load.host_peak_bytes, reads.to_packed_bytes().len() as u64);
        assert_eq!(load.device_peak_bytes, 0);
        assert_eq!(pipeline.host().used(), 0);
        assert_eq!(pipeline.device().stats().mem_used, 0);
    }

    #[test]
    fn contigs_cover_most_of_the_genome() {
        let (genome, out) = assemble_genome(2000, 40, 20.0, 24, 99);
        let covered: u64 = out.report.contig_stats.total_bases;
        // Coverage 20× error-free: nearly every genome base should appear
        // in some contig.
        assert!(
            covered as f64 > genome.len() as f64 * 0.8,
            "covered {covered} of {}",
            genome.len()
        );
    }

    #[test]
    fn empty_read_set_produces_empty_assembly() {
        let reads = ReadSet::new(40);
        let dir = stdx::tempdir().unwrap();
        let config = AssemblyConfig::for_dataset(25, 40);
        let pipeline = Pipeline::laptop(config, dir.path()).unwrap();
        let out = pipeline.assemble(&reads).unwrap();
        assert!(out.contigs.is_empty());
        assert_eq!(out.report.graph_edges, 0);
    }

    #[test]
    fn memory_peaks_are_recorded_per_phase() {
        let (_genome, out) = assemble_genome(1500, 40, 10.0, 25, 3);
        let sort = out.report.phase("sort").unwrap();
        assert!(sort.host_peak_bytes > 0);
        assert!(sort.device_peak_bytes > 0);
        let map = out.report.phase("map").unwrap();
        assert!(map.host_peak_bytes > 0);
    }

    #[test]
    fn assembly_ends_at_contigs_and_writes_no_serving_files() {
        let genome = GenomeSim::uniform(1000, 8).generate();
        let reads = ShotgunSim::error_free(40, 8.0, 9).sample(&genome);
        let dir = stdx::tempdir().unwrap();
        let pipeline = Pipeline::laptop(AssemblyConfig::for_dataset(25, 40), dir.path()).unwrap();
        assert!(!pipeline.assemble(&reads).unwrap().contigs.is_empty());
        for name in ["contigs.store", "reads.meta.json"] {
            assert!(!dir.path().join(name).exists(), "assembly wrote {name}");
        }
    }

    #[test]
    fn every_read_appears_in_exactly_one_path() {
        let (_genome, out) = assemble_genome(1000, 40, 10.0, 25, 5);
        let mut seen = std::collections::HashSet::new();
        for p in &out.paths {
            for s in &p.steps {
                assert!(seen.insert(s.vertex / 2), "read {} twice", s.vertex / 2);
            }
        }
    }
}
