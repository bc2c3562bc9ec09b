//! Incremental (delta) assembly: fold new reads into an already
//! assembled work directory without re-sorting the old corpus.
//!
//! The external sort is >50% of a full run (the paper's Tables II/III),
//! and it is the one phase whose output is reusable verbatim: the sorted
//! suffix/prefix partitions of the old corpus. A delta run therefore
//!
//! 1. **maps** only the new reads into a scratch spill (`delta/`),
//!    emitting their `(fingerprint, vertex)` tuples with *local* vertex
//!    ids,
//! 2. **sorts** just those tuples (tiny next to the corpus), and
//! 3. **merges** each delta partition into the corresponding live
//!    partition in one sequential pass, offsetting the new vertex ids by
//!    `2 · n_old` so they land after the old corpus's vertices — exactly
//!    the ids a from-scratch run over `old ++ new` would assign.
//!
//! Reduce and compress then re-run over the merged partitions via the
//! ordinary resume path. That replay is what buys **bit-identity**: the
//! merged partition files are byte-identical to what a from-scratch sort
//! of the union would produce (the device radix sort is stable and map
//! emits one tuple per vertex in ascending vertex order, so sorted
//! partition order *is* `(fingerprint, vertex)` order — a two-way merge
//! on that key reproduces it exactly), and everything downstream of the
//! partitions is deterministic. The golden in `tests/` holds this line:
//! delta output must equal `assemble(old ++ new)` byte for byte, from
//! graph to contig store.
//!
//! The resulting store/index are exported *beside* the live ones as a
//! new generation under `generations.json` (see `qserve::generations`
//! and SERVING.md, "Generations & hot reload") — the producing half of
//! the zero-downtime swap.

use crate::manifest::Manifest;
use crate::pipeline::{AssemblyOutput, Pipeline};
use crate::{map, sortphase, LasagnaError, Result};
use genome::{PackedSeq, ReadSet};
use gstream::{KvPair, RecordReader, RecordWriter, SpillDir, StreamError};
use qserve::GenKind;
use std::path::Path;

/// Sidecar file recording what `reads.packed` holds, written by every
/// assembly; delta runs read it back to reconstruct the old corpus.
pub const READS_META_FILE: &str = "reads.meta.json";

/// Records per merge buffer refill (20 B each — ~640 KiB per stream).
const MERGE_CHUNK: usize = 1 << 15;

/// The `reads.meta.json` sidecar: enough to rehydrate `reads.packed`
/// (the packed staging format carries no header of its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadsMeta {
    /// Length of every read in the staged corpus.
    pub read_len: u32,
    /// Number of reads staged.
    pub reads: u64,
}

stdx::impl_json!(struct ReadsMeta { read_len, reads });

impl ReadsMeta {
    /// Read the sidecar from `dir`, `None` if absent (a work directory
    /// that predates delta assembly).
    pub fn load(dir: &Path) -> Result<Option<ReadsMeta>> {
        let path = dir.join(READS_META_FILE);
        if !path.is_file() {
            return Ok(None);
        }
        let bytes = std::fs::read(&path).map_err(StreamError::from)?;
        let meta = stdx::json::from_slice(&bytes).map_err(|e| {
            LasagnaError::Stream(StreamError::Corrupt(format!("{}: {e}", path.display())))
        })?;
        Ok(Some(meta))
    }

    /// Write the sidecar into `dir`.
    pub fn store(&self, dir: &Path) -> Result<()> {
        let body = stdx::json::to_string_pretty(self);
        std::fs::write(dir.join(READS_META_FILE), body).map_err(StreamError::from)?;
        Ok(())
    }
}

/// A buffered sequential cursor over one partition file's records.
struct Cursor {
    reader: RecordReader,
    buf: Vec<KvPair>,
    idx: usize,
}

impl Cursor {
    fn open(path: &Path, io: gstream::IoStats) -> Result<Cursor> {
        Ok(Cursor {
            reader: RecordReader::open(path, io)?,
            buf: Vec::new(),
            idx: 0,
        })
    }

    fn peek(&mut self) -> Result<Option<KvPair>> {
        if self.idx == self.buf.len() {
            if self.reader.remaining() == 0 {
                return Ok(None);
            }
            self.buf = self.reader.next_chunk(MERGE_CHUNK)?;
            self.idx = 0;
            if self.buf.is_empty() {
                return Ok(None);
            }
        }
        Ok(Some(self.buf[self.idx]))
    }

    fn advance(&mut self) {
        self.idx += 1;
    }
}

/// Merge `delta`'s sorted partition into the live spill's, offsetting
/// delta vertex ids by `offset`. Writes through `RecordWriter`'s
/// tmp-then-rename commit, so a crash mid-merge leaves the old partition
/// intact and re-runnable.
fn merge_partition(
    spill: &SpillDir,
    delta: &SpillDir,
    kind: gstream::PartitionKind,
    len: u32,
    offset: u32,
) -> Result<()> {
    let live_path = spill.path(kind, len);
    let delta_path = delta.path(kind, len);
    if !delta_path.exists() {
        return Ok(()); // No new tuples at this length; live file already final.
    }
    let mut old = if live_path.exists() {
        Some(Cursor::open(&live_path, spill.io().clone())?)
    } else {
        None
    };
    let mut new = Cursor::open(&delta_path, delta.io().clone())?;
    let mut w = RecordWriter::create(&live_path, spill.io().clone())?;
    loop {
        let a = match &mut old {
            Some(c) => c.peek()?,
            None => None,
        };
        let b = new.peek()?.map(|p| KvPair::new(p.key, p.val + offset));
        match (a, b) {
            (None, None) => break,
            (Some(x), None) => {
                w.write(x)?;
                old.as_mut().expect("peeked").advance();
            }
            (None, Some(y)) => {
                w.write(y)?;
                new.advance();
            }
            (Some(x), Some(y)) => {
                // Old vertex ids all sit below `offset`, so on equal
                // fingerprints the old record always orders first — the
                // same `(key, val)` order the stable union sort yields.
                if x <= y {
                    w.write(x)?;
                    old.as_mut().expect("peeked").advance();
                } else {
                    w.write(y)?;
                    new.advance();
                }
            }
        }
    }
    w.finish()?;
    Ok(())
}

impl Pipeline {
    /// Fold `new_reads` into this spill directory's completed assembly
    /// and re-derive the downstream artifacts, reusing the old corpus's
    /// sorted partitions instead of re-sorting them. The output — graph,
    /// paths, contigs, and the exported `contigs.store` — is
    /// **bit-identical** to a from-scratch [`assemble`] of
    /// `old reads ++ new_reads`.
    ///
    /// Requires a directory previously assembled by this pipeline's
    /// exact configuration (the manifest's fingerprint is checked);
    /// fails with [`LasagnaError::BadConfig`] otherwise.
    ///
    /// [`assemble`]: Pipeline::assemble
    pub fn assemble_delta(&self, new_reads: &ReadSet) -> Result<AssemblyOutput> {
        self.config().validate()?;
        let bad = |m: String| Err(LasagnaError::BadConfig(m));
        if self.config().range_split != 1 {
            return bad("delta assembly requires range_split = 1".into());
        }
        let root = self.spill().root().to_path_buf();
        let Some(meta) = ReadsMeta::load(&root)? else {
            return bad(format!(
                "{} has no {READS_META_FILE}; run a full assembly here first",
                root.display()
            ));
        };
        if meta.read_len as usize != new_reads.read_len() {
            return bad(format!(
                "delta reads are {} bp but the assembled corpus is {} bp",
                new_reads.read_len(),
                meta.read_len
            ));
        }
        let packed = std::fs::read(root.join("reads.packed")).map_err(StreamError::from)?;
        let old = ReadSet::from_packed_bytes(meta.read_len as usize, meta.reads as usize, &packed)?;
        let old_fingerprint = self.dataset_fingerprint(&old);
        let manifest = match Manifest::load(&root)? {
            Some(m) => m,
            None => {
                return bad(format!(
                    "{} has no assembly manifest; run a full assembly here first",
                    root.display()
                ))
            }
        };
        if manifest.config_hash != old_fingerprint {
            return bad(
                "the work directory was assembled with a different corpus or \
                 configuration; delta assembly would corrupt it"
                    .into(),
            );
        }
        if !manifest.is_done("map") || !manifest.is_done("sort") {
            return bad("the existing assembly never finished map+sort; resume it first".into());
        }

        let n_old = old.len();
        let offset = (n_old as u32) * 2;
        let mut union = old;
        for read in new_reads.iter() {
            union.push(&read)?;
        }

        let rec = self.recorder().clone();
        let span = rec.span("delta");

        // Map + sort only the new reads, into a scratch spill beside the
        // live partitions. The scratch shares the pipeline's IoStats so
        // the delta's I/O lands in the same accounting.
        let delta_root = root.join("delta");
        let delta_spill = if delta_root.exists() {
            SpillDir::open(&delta_root, self.spill().io().clone())?
        } else {
            SpillDir::create(&delta_root, self.spill().io().clone())?
        };
        delta_spill.clear()?;
        self.phase("map-delta", || {
            map::run_traced(
                self.device(),
                self.host(),
                &delta_spill,
                self.config(),
                new_reads,
                &rec,
            )
        })?;
        self.phase("sort-delta", || {
            sortphase::run_checkpointed(
                self.device(),
                self.host(),
                &delta_spill,
                self.config(),
                &rec,
                |_| false,
                &mut |_, _| Ok(()),
            )
        })?;

        // One sequential pass per partition: merge the delta tuples into
        // the live sorted file at their union positions.
        self.phase("merge-delta", || {
            for (kind, _tag, len) in self.partitions() {
                merge_partition(self.spill(), &delta_spill, kind, len, offset)?;
            }
            Ok(())
        })?;
        delta_spill.clear()?;

        // Re-key the manifest to the union corpus with map+sort complete
        // and every merged partition checkpointed — exactly the state a
        // from-scratch union run leaves after its sort phase — then let
        // the ordinary resume path replay reduce and compress.
        let union_fingerprint = self.dataset_fingerprint(&union);
        let mut next = Manifest::new(union_fingerprint);
        next.mark_phase("map");
        for (kind, tag, _len) in self.partitions() {
            let path = self.spill().path(kind, _len);
            if path.exists() {
                next.record_file(&path)?;
                next.mark_sorted(&tag);
            }
        }
        next.mark_phase("sort");
        next.store(&root, self.faults())?;
        drop(span);

        self.assemble_resumable(&union)
    }

    /// Export `contigs` as a new generation in this work directory:
    /// `gen-NNNNNN.store` + `gen-NNNNNN.mdx` written atomically beside
    /// the live generation, checksum-bound, and activated in
    /// `generations.json`. Returns the new generation id. Serving
    /// processes pick it up via the `Reload` wire command
    /// (SERVING.md, "Generations & hot reload").
    pub fn export_generation(
        &self,
        contigs: &[PackedSeq],
        reads: &ReadSet,
        index_cfg: &qserve::IndexConfig,
        kind: GenKind,
    ) -> Result<u64> {
        qserve::generations::export(
            self.spill().root(),
            contigs,
            index_cfg,
            reads.len() as u64,
            reads.read_len() as u32,
            kind,
            self.spill().io(),
        )
        .map_err(|e| match e {
            qserve::QserveError::Stream(e) => LasagnaError::Stream(e),
            other => LasagnaError::Stream(StreamError::Corrupt(other.to_string())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AssemblyConfig;
    use genome::{GenomeSim, ShotgunSim};
    use qserve::GenManifest;

    fn sim_reads(genome_len: usize, read_len: usize, coverage: f64, seed: u64) -> ReadSet {
        let genome = GenomeSim::uniform(genome_len, seed).generate();
        ShotgunSim::error_free(read_len, coverage, seed + 1).sample(&genome)
    }

    fn split(reads: &ReadSet, at: usize) -> (ReadSet, ReadSet) {
        let mut a = ReadSet::new(reads.read_len());
        let mut b = ReadSet::new(reads.read_len());
        for i in 0..reads.len() {
            let r = reads.read(i);
            if i < at {
                a.push(&r).unwrap();
            } else {
                b.push(&r).unwrap();
            }
        }
        (a, b)
    }

    /// Every on-disk artifact that must be byte-identical between a
    /// delta run and a from-scratch union run.
    fn artifact_bytes(dir: &Path, config: &AssemblyConfig) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for len in config.l_min..config.l_max {
            for tag in ["sfx", "pfx"] {
                let p = dir.join(format!("{tag}_{len:05}.kv"));
                if p.exists() {
                    out.push((format!("{tag}_{len:05}.kv"), std::fs::read(&p).unwrap()));
                }
            }
        }
        for name in ["graph.bin", qserve::STORE_FILE] {
            let p = dir.join(name);
            assert!(p.exists(), "{name} must exist after assembly");
            out.push((name.to_string(), std::fs::read(&p).unwrap()));
        }
        out
    }

    #[test]
    fn delta_assembly_is_bit_identical_to_from_scratch_union() {
        let all = sim_reads(1500, 40, 12.0, 11);
        let (old, new) = split(&all, all.len() * 2 / 3);
        assert!(!old.is_empty() && !new.is_empty());
        let config = AssemblyConfig::for_dataset(25, 40);

        // From-scratch union run.
        let full_dir = stdx::tempdir().unwrap();
        let full = Pipeline::laptop(config, full_dir.path()).unwrap();
        let mut union = ReadSet::new(40);
        for i in 0..all.len() {
            union.push(&all.read(i)).unwrap();
        }
        let full_out = full.assemble(&union).unwrap();

        // Old corpus, then delta of the new reads.
        let delta_dir = stdx::tempdir().unwrap();
        let pipe = Pipeline::laptop(config, delta_dir.path()).unwrap();
        pipe.assemble(&old).unwrap();
        let delta_out = pipe.assemble_delta(&new).unwrap();

        // In-memory outputs agree…
        assert_eq!(delta_out.graph.to_bytes(), full_out.graph.to_bytes());
        assert_eq!(delta_out.contigs, full_out.contigs);
        assert_eq!(delta_out.paths.len(), full_out.paths.len());

        // …and every durable artifact is byte-identical, partitions
        // included: the merged sort output equals the union sort output.
        let full_files = artifact_bytes(full_dir.path(), &config);
        let delta_files = artifact_bytes(delta_dir.path(), &config);
        assert_eq!(
            full_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            delta_files.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
        for ((name, a), (_, b)) in full_files.iter().zip(&delta_files) {
            assert_eq!(a, b, "{name} differs between delta and from-scratch");
        }

        // A second delta on top of the delta still works (the sidecar
        // and manifest now describe the union).
        let more = sim_reads(600, 40, 4.0, 77);
        let delta2 = pipe.assemble_delta(&more).unwrap();
        let mut union2 = union;
        for i in 0..more.len() {
            union2.push(&more.read(i)).unwrap();
        }
        let full2 = full.assemble(&union2).unwrap();
        assert_eq!(delta2.graph.to_bytes(), full2.graph.to_bytes());
        assert_eq!(delta2.contigs, full2.contigs);
    }

    #[test]
    fn delta_refuses_directories_it_could_corrupt() {
        let config = AssemblyConfig::for_dataset(25, 40);
        let dir = stdx::tempdir().unwrap();
        let pipe = Pipeline::laptop(config, dir.path()).unwrap();
        let reads = sim_reads(500, 40, 6.0, 5);

        // Nothing assembled here yet.
        match pipe.assemble_delta(&reads) {
            Err(LasagnaError::BadConfig(m)) => assert!(m.contains(READS_META_FILE), "{m}"),
            other => panic!("expected BadConfig, got {other:?}"),
        }

        // Wrong read length against an assembled corpus.
        pipe.assemble(&reads).unwrap();
        let short = sim_reads(500, 30, 4.0, 6);
        match pipe.assemble_delta(&short) {
            Err(LasagnaError::BadConfig(m)) => assert!(m.contains("30 bp"), "{m}"),
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn export_generation_appends_checksum_bound_entries() {
        let config = AssemblyConfig::for_dataset(25, 40);
        let dir = stdx::tempdir().unwrap();
        let pipe = Pipeline::laptop(config, dir.path()).unwrap();
        let reads = sim_reads(1000, 40, 10.0, 21);
        let out = pipe.assemble(&reads).unwrap();
        let icfg = qserve::IndexConfig {
            k: 9,
            w: 5,
            threads: 1,
        };
        let g1 = pipe
            .export_generation(&out.contigs, &reads, &icfg, GenKind::Full)
            .unwrap();
        assert_eq!(g1, 1);

        let more = sim_reads(400, 40, 3.0, 22);
        let delta_out = pipe.assemble_delta(&more).unwrap();
        let mut union = ReadSet::new(40);
        for i in 0..reads.len() {
            union.push(&reads.read(i)).unwrap();
        }
        for i in 0..more.len() {
            union.push(&more.read(i)).unwrap();
        }
        let g2 = pipe
            .export_generation(&delta_out.contigs, &union, &icfg, GenKind::Delta)
            .unwrap();
        assert_eq!(g2, 2);

        let manifest = GenManifest::load(dir.path(), pipe.spill().io()).unwrap();
        assert_eq!(manifest.active, 2);
        assert_eq!(manifest.generations.len(), 2);
        let e2 = manifest.active_entry();
        assert_eq!(e2.parent, Some(1));
        assert_eq!(e2.kind, GenKind::Delta);
        assert_eq!(e2.reads, union.len() as u64);

        // Both generations open and validate against their entries.
        let io = pipe.spill().io();
        for entry in &manifest.generations {
            let store = qserve::ContigStore::open(&dir.path().join(&entry.store), io).unwrap();
            let index = qserve::MinimizerIndex::open(&dir.path().join(&entry.index), io).unwrap();
            assert_eq!(store.checksum(), entry.store_checksum);
            assert_eq!(index.store_checksum(), entry.store_checksum);
        }

        // The delta generation's store matches a from-scratch union's.
        let full_dir = stdx::tempdir().unwrap();
        let full = Pipeline::laptop(AssemblyConfig::for_dataset(25, 40), full_dir.path()).unwrap();
        full.assemble(&union).unwrap();
        assert_eq!(
            std::fs::read(dir.path().join(&manifest.active_entry().store)).unwrap(),
            std::fs::read(full_dir.path().join(qserve::STORE_FILE)).unwrap()
        );
    }
}
