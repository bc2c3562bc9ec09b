//! Checkpoint manifest: durable progress record for resumable assembly.
//!
//! The pipeline writes `manifest.json` into the spill directory after every
//! completed phase *and* after every sorted partition inside the sort phase.
//! The manifest records which phases finished, which partitions are already
//! sorted, and the footer `(records, checksum)` of every durable artifact, so
//! a resumed run can validate its inputs before trusting them (ROBUSTNESS.md
//! §"Checkpoint / resume").
//!
//! The store path is crash-safe: serialize to `manifest.json.tmp`, fsync,
//! then atomically rename over `manifest.json`. A crash mid-store leaves the
//! previous manifest intact; a torn manifest is therefore always a sign of
//! external corruption and surfaces as [`gstream::StreamError::Corrupt`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::Result;
use gstream::spill::MANIFEST_NAME;
use gstream::StreamError;

/// Current manifest schema version. Bump on incompatible change; `load`
/// treats an unknown version as corruption (fail loudly, never guess).
pub const MANIFEST_VERSION: u32 = 1;

/// Footer summary of one durable artifact (spill partition, graph snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileEntry {
    /// Number of 20-byte records (or raw bytes for non-KV artifacts).
    pub records: u64,
    /// FNV-1a-64 checksum of the payload.
    pub checksum: u64,
}

stdx::impl_json!(struct FileEntry { records, checksum });

/// Durable progress record for one assembly run.
///
/// The same schema serves two callers: the single-node pipeline keeps one
/// manifest per spill directory, and every rank of a distributed cluster
/// keeps one in its node directory (`node<i>/manifest.json`). The
/// distributed fields (`blocks`, `shuffled`, `joined`) stay empty in a
/// single-node manifest. Every field is required: a manifest an older
/// build wrote without one is `Corrupt`, never guessed at.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Fingerprint of the input dataset + configuration; a mismatch on
    /// resume means "different run" and triggers a silent fresh restart.
    pub config_hash: u64,
    /// Completed phases, in completion order (`"map"`, `"sort"`, `"reduce"`).
    pub phases: Vec<String>,
    /// Partition tags (`sfx_00045`, …) whose sorted file is durable.
    pub sorted: Vec<String>,
    /// Footer summaries keyed by file name relative to the spill dir.
    pub files: BTreeMap<String, FileEntry>,
    /// Distributed only: input blocks this rank has durably mapped.
    pub blocks: Vec<u64>,
    /// Distributed only: partition tags this rank has durably shuffled
    /// (concatenated from every mapper's durable output, pre-sort).
    pub shuffled: Vec<String>,
    /// Distributed only: partition tags whose reduce-join candidate list
    /// (the superstep's graph delta) is durable on this rank's disk.
    pub joined: Vec<String>,
}

stdx::impl_json!(struct Manifest { version, config_hash, phases, sorted, files, blocks, shuffled, joined });

impl Manifest {
    /// Fresh manifest for a run with the given dataset/config fingerprint.
    pub fn new(config_hash: u64) -> Self {
        Manifest {
            version: MANIFEST_VERSION,
            config_hash,
            phases: Vec::new(),
            sorted: Vec::new(),
            files: BTreeMap::new(),
            blocks: Vec::new(),
            shuffled: Vec::new(),
            joined: Vec::new(),
        }
    }

    /// Load the manifest from `dir`, if one exists.
    ///
    /// Returns `Ok(None)` when the file is absent (nothing to resume);
    /// a present-but-unparseable manifest is corruption and fails loudly.
    pub fn load(dir: &Path) -> Result<Option<Manifest>> {
        let path = dir.join(MANIFEST_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StreamError::Io(e).into()),
        };
        let manifest: Manifest = stdx::json::from_slice(&bytes).map_err(|e| {
            StreamError::Corrupt(format!("manifest {} is unreadable: {e}", path.display()))
        })?;
        if manifest.version != MANIFEST_VERSION {
            return Err(StreamError::Corrupt(format!(
                "manifest {} has unsupported version {}",
                path.display(),
                manifest.version
            ))
            .into());
        }
        Ok(Some(manifest))
    }

    /// Durably store the manifest in `dir` (temp file + fsync + rename).
    ///
    /// The `manifest.write` failpoint fires before any byte is written, so
    /// an injected crash here always leaves the previous manifest intact.
    pub fn store(&self, dir: &Path, faults: &faultsim::Faults) -> Result<()> {
        faults
            .hit(faultsim::MANIFEST_WRITE)
            .map_err(StreamError::Fault)?;
        let path = dir.join(MANIFEST_NAME);
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let json = stdx::json::to_string_pretty(self);
        let mut file = std::fs::File::create(&tmp).map_err(StreamError::Io)?;
        file.write_all(json.as_bytes()).map_err(StreamError::Io)?;
        file.sync_all().map_err(StreamError::Io)?;
        drop(file);
        std::fs::rename(&tmp, &path).map_err(StreamError::Io)?;
        // The rename is only crash-durable once the directory entry is too.
        gstream::fsync_dir(dir).map_err(StreamError::Io)?;
        Ok(())
    }

    /// Whether `phase` already completed.
    pub fn is_done(&self, phase: &str) -> bool {
        self.phases.iter().any(|p| p == phase)
    }

    /// Mark `phase` completed (idempotent).
    pub fn mark_phase(&mut self, phase: &str) {
        if !self.is_done(phase) {
            self.phases.push(phase.to_string());
        }
    }

    /// Whether the partition `tag` (e.g. `sfx_00045`) is already sorted.
    pub fn is_sorted(&self, tag: &str) -> bool {
        self.sorted.iter().any(|t| t == tag)
    }

    /// Mark the partition `tag` sorted (idempotent).
    pub fn mark_sorted(&mut self, tag: &str) {
        if !self.is_sorted(tag) {
            self.sorted.push(tag.to_string());
        }
    }

    /// Whether this rank durably mapped input `block`.
    pub fn has_block(&self, block: u64) -> bool {
        self.blocks.contains(&block)
    }

    /// Mark input `block` durably mapped by this rank (idempotent).
    pub fn mark_block(&mut self, block: u64) {
        if !self.has_block(block) {
            self.blocks.push(block);
        }
    }

    /// Whether the partition `tag` is durably shuffled on this rank.
    pub fn is_shuffled(&self, tag: &str) -> bool {
        self.shuffled.iter().any(|t| t == tag)
    }

    /// Mark the partition `tag` durably shuffled (idempotent).
    pub fn mark_shuffled(&mut self, tag: &str) {
        if !self.is_shuffled(tag) {
            self.shuffled.push(tag.to_string());
        }
    }

    /// Whether the partition `tag`'s candidate list is durable here.
    pub fn is_joined(&self, tag: &str) -> bool {
        self.joined.iter().any(|t| t == tag)
    }

    /// Mark the partition `tag`'s candidate list durable (idempotent).
    pub fn mark_joined(&mut self, tag: &str) {
        if !self.is_joined(tag) {
            self.joined.push(tag.to_string());
        }
    }

    /// Record the footer of the spill file at `path` under its file name;
    /// returns the file's record count.
    pub fn record_file(&mut self, path: &Path) -> Result<u64> {
        let footer = gstream::read_footer(path)?;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        self.files.insert(
            name,
            FileEntry {
                records: footer.records,
                checksum: footer.checksum,
            },
        );
        Ok(footer.records)
    }

    /// Record a raw (non-KV) artifact by length and FNV-1a checksum.
    pub fn record_raw(&mut self, name: &str, bytes: &[u8]) {
        self.files.insert(
            name.to_string(),
            FileEntry {
                records: bytes.len() as u64,
                checksum: gstream::fnv1a(bytes),
            },
        );
    }

    /// Check a raw artifact against its recorded entry.
    pub fn raw_matches(&self, name: &str, bytes: &[u8]) -> bool {
        self.files
            .get(name)
            .is_some_and(|e| e.records == bytes.len() as u64 && e.checksum == gstream::fnv1a(bytes))
    }

    /// Check the spill file at `path` against its recorded footer entry.
    /// `false` means "not recorded or footer mismatch" — callers treat it
    /// as "do the work again", not as an error.
    pub fn file_matches(&self, path: &Path) -> bool {
        let name = match path.file_name() {
            Some(n) => n.to_string_lossy().into_owned(),
            None => return false,
        };
        let entry = match self.files.get(&name) {
            Some(e) => *e,
            None => return false,
        };
        match gstream::read_footer(path) {
            Ok(f) => f.records == entry.records && f.checksum == entry.checksum,
            Err(_) => false,
        }
    }
}

/// The `reads.meta.json` sidecar: the shape of a staged `reads.packed`
/// (the packed staging format carries no header of its own), for callers
/// that stage reads by hand and record them beside the manifest.
#[derive(Debug)]
pub struct ReadsMeta {
    /// Length of every read in the staged corpus.
    pub read_len: u32,
    /// Number of reads staged.
    pub reads: u64,
}

stdx::impl_json!(struct ReadsMeta { read_len, reads });

impl ReadsMeta {
    /// Write the sidecar into `dir`.
    pub fn store(&self, dir: &Path) -> Result<()> {
        let body = stdx::json::to_string_pretty(self);
        std::fs::write(dir.join("reads.meta.json"), body).map_err(StreamError::from)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_store_and_load() {
        let dir = stdx::tempdir().unwrap();
        let mut m = Manifest::new(0xfeed);
        m.mark_phase("map");
        m.mark_sorted("sfx_00004");
        m.record_raw("graph.bin", b"hello");
        m.store(dir.path(), &faultsim::Faults::disabled()).unwrap();
        let back = Manifest::load(dir.path()).unwrap().unwrap();
        assert_eq!(back.config_hash, 0xfeed);
        assert!(back.is_done("map"));
        assert!(!back.is_done("sort"));
        assert!(back.is_sorted("sfx_00004"));
        assert!(back.raw_matches("graph.bin", b"hello"));
        assert!(!back.raw_matches("graph.bin", b"hellp"));
    }

    #[test]
    fn per_node_fields_roundtrip_and_default_empty() {
        let dir = stdx::tempdir().unwrap();
        let mut m = Manifest::new(0xbeef);
        m.mark_block(3);
        m.mark_block(3); // idempotent
        m.mark_shuffled("sfx_00045");
        m.mark_joined("pfx_00045_r001");
        m.store(dir.path(), &faultsim::Faults::disabled()).unwrap();
        let back = Manifest::load(dir.path()).unwrap().unwrap();
        assert_eq!(back.blocks, vec![3]);
        assert!(back.is_shuffled("sfx_00045"));
        assert!(!back.is_shuffled("sfx_00046"));
        assert!(back.is_joined("pfx_00045_r001"));

        let fresh = Manifest::new(9);
        assert!(fresh.blocks.is_empty() && fresh.shuffled.is_empty() && fresh.joined.is_empty());
    }

    #[test]
    fn missing_manifest_loads_as_none() {
        let dir = stdx::tempdir().unwrap();
        assert!(Manifest::load(dir.path()).unwrap().is_none());
    }

    #[test]
    fn garbage_manifest_fails_loudly() {
        let dir = stdx::tempdir().unwrap();
        // Not JSON, and a manifest an older build wrote before the
        // distributed fields existed: both are corrupt, not a fresh run.
        let older = format!(
            "{{\"version\":{MANIFEST_VERSION},\"config_hash\":9,\
             \"phases\":[\"map\"],\"sorted\":[],\"files\":{{}}}}"
        );
        for text in ["{not json".to_string(), older] {
            std::fs::write(dir.path().join(MANIFEST_NAME), text).unwrap();
            let err = Manifest::load(dir.path()).unwrap_err();
            assert!(
                matches!(&err, crate::LasagnaError::Stream(StreamError::Corrupt(m)) if m.contains("unreadable")),
                "{err}"
            );
        }
    }

    #[test]
    fn unknown_version_fails_loudly() {
        let dir = stdx::tempdir().unwrap();
        let mut m = Manifest::new(1);
        m.version = 99;
        m.store(dir.path(), &faultsim::Faults::disabled()).unwrap();
        assert!(Manifest::load(dir.path()).is_err());
    }

    #[test]
    fn injected_manifest_fault_leaves_previous_manifest_intact() {
        let dir = stdx::tempdir().unwrap();
        let faults = faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::MANIFEST_WRITE, 2),
        );
        let mut m = Manifest::new(7);
        m.store(dir.path(), &faults).unwrap();
        m.mark_phase("map");
        assert!(m.store(dir.path(), &faults).is_err());
        // The previous (phase-less) manifest is still what's on disk.
        let back = Manifest::load(dir.path()).unwrap().unwrap();
        assert!(back.phases.is_empty());
        // One-shot arm: a retry succeeds.
        m.store(dir.path(), &faults).unwrap();
        assert!(Manifest::load(dir.path()).unwrap().unwrap().is_done("map"));
    }

    #[test]
    fn file_matches_tracks_footer_changes() {
        let dir = stdx::tempdir().unwrap();
        let io = gstream::IoStats::default();
        let path = dir.path().join("part.kv");
        let mut w = gstream::RecordWriter::create(&path, io.clone()).unwrap();
        w.write(gstream::KvPair::new(5, 1)).unwrap();
        w.finish().unwrap();

        let mut m = Manifest::new(1);
        m.record_file(&path).unwrap();
        assert!(m.file_matches(&path));

        // Rewrite with different contents: footer no longer matches.
        let mut w = gstream::RecordWriter::create(&path, io).unwrap();
        w.write(gstream::KvPair::new(6, 1)).unwrap();
        w.finish().unwrap();
        assert!(!m.file_matches(&path));
    }
}
