//! Versioned store/index generations: the on-disk manifest that lets a
//! new assembly land *beside* the live one instead of over it.
//!
//! A work directory historically held exactly one store (`contigs.store`)
//! and one index (`contigs.mdx`); refreshing the corpus meant overwriting
//! them and restarting every server that had the old bytes mapped. With
//! generations, each export writes `gen-NNNNNN.store` / `gen-NNNNNN.mdx`
//! and appends an entry to `generations.json`; the manifest's `active`
//! field is the *only* mutable pointer, and it flips atomically
//! (tmp + fsync + rename + dir fsync, the same discipline as every other
//! artifact). A serving process hot-reloads by re-reading the manifest,
//! loading the new generation's files, validating the checksum binding,
//! and swapping an in-memory handle — SERVING.md, "Generations & hot
//! reload".
//!
//! The manifest is deliberately append-mostly: old entries stay listed
//! until an operator garbage-collects them, because a cluster mid-rollout
//! has replicas pinned to the previous generation and a rollback must be
//! able to re-activate it without re-assembling anything.

use std::path::{Path, PathBuf};

use gstream::{fsync_parent_dir, IoStats};

/// File name of the generation manifest inside a work directory.
pub const GEN_MANIFEST_FILE: &str = "generations.json";
/// Current manifest schema version.
pub const GEN_MANIFEST_VERSION: u32 = 1;

/// File name of a generation's contig store.
pub fn gen_store_file(id: u64) -> String {
    format!("gen-{id:06}.store")
}

/// File name of a generation's minimizer index.
pub fn gen_index_file(id: u64) -> String {
    format!("gen-{id:06}.mdx")
}

/// How a generation's store was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// From-scratch assembly of the whole corpus.
    Full,
    /// Delta assembly: new reads folded into `parent`'s sorted
    /// partitions and graph (bit-identical to a full rebuild of the
    /// union — the golden in `lasagna` holds that line).
    Delta,
}

stdx::impl_json!(
    enum GenKind {
        Full = "full",
        Delta = "delta",
    }
);

/// One exported generation: which files hold it and what binds them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenEntry {
    /// Generation id; strictly increasing, never reused.
    pub id: u64,
    /// Store file name, relative to the work directory.
    pub store: String,
    /// Index file name, relative to the work directory.
    pub index: String,
    /// [`crate::ContigStore::checksum`] of the store — the identity the
    /// index is bound to and the value reload validation re-derives.
    pub store_checksum: u64,
    /// Reads in the corpus this generation was assembled from.
    pub reads: u64,
    /// Read length of that corpus.
    pub read_len: u32,
    /// Full rebuild or delta on top of `parent`.
    pub kind: GenKind,
    /// For a delta generation, the generation its partitions started
    /// from; `None` for a full build.
    pub parent: Option<u64>,
}

stdx::impl_json!(struct GenEntry {
    id, store, index, store_checksum, reads, read_len, kind, parent
});

/// The generation manifest: every exported generation plus the single
/// `active` pointer servers load on start and on `Reload`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenManifest {
    /// Schema version; readers reject versions they do not know.
    pub version: u32,
    /// Id of the generation new servers should load. Always present in
    /// `generations`.
    pub active: u64,
    /// Every exported generation, in id order.
    pub generations: Vec<GenEntry>,
}

stdx::impl_json!(struct GenManifest { version, active, generations });

/// Typed generation errors: reload and validation failures name the
/// generation so an operator reading one line of log knows which rollout
/// to roll back.
#[derive(Debug)]
pub enum GenError {
    /// The manifest (or a generation's files) could not be read/parsed.
    Manifest(String),
    /// A reload asked for a generation the manifest does not list.
    MissingGeneration {
        /// The requested generation id.
        requested: u64,
    },
    /// A loaded generation's checksum binding does not match its
    /// manifest entry — the files on disk are not the build the
    /// manifest promised.
    ChecksumMismatch {
        /// The generation whose validation failed.
        generation: u64,
        /// Which artifact disagreed (`"store"` or `"index"`).
        artifact: &'static str,
        /// Checksum the manifest entry records.
        expected: u64,
        /// Checksum derived from the bytes actually loaded.
        actual: u64,
    },
    /// Loading a generation's files failed (I/O, corruption, or the
    /// `qserve.gen.load` failpoint).
    Load {
        /// The generation that failed to load.
        generation: u64,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Manifest(detail) => write!(f, "generation manifest: {detail}"),
            GenError::MissingGeneration { requested } => {
                write!(f, "generation {requested} is not in the manifest")
            }
            GenError::ChecksumMismatch {
                generation,
                artifact,
                expected,
                actual,
            } => write!(
                f,
                "generation {generation}: {artifact} checksum {actual:#018x} does not \
                 match the manifest's {expected:#018x}"
            ),
            GenError::Load { generation, detail } => {
                write!(f, "generation {generation} failed to load: {detail}")
            }
        }
    }
}

impl std::error::Error for GenError {}

impl GenManifest {
    /// Path of the manifest inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(GEN_MANIFEST_FILE)
    }

    /// Whether `dir` carries a generation manifest at all (a legacy work
    /// directory with bare `contigs.store` does not).
    pub fn exists(dir: &Path) -> bool {
        Self::path(dir).is_file()
    }

    /// Read and validate the manifest from `dir`.
    pub fn load(dir: &Path, io: &IoStats) -> Result<GenManifest, GenError> {
        let path = Self::path(dir);
        let bytes = std::fs::read(&path)
            .map_err(|e| GenError::Manifest(format!("read {}: {e}", path.display())))?;
        io.add_read(bytes.len() as u64);
        let m: GenManifest = stdx::json::from_slice(&bytes)
            .map_err(|e| GenError::Manifest(format!("parse {}: {e}", path.display())))?;
        m.validate()?;
        Ok(m)
    }

    /// Write the manifest to `dir` atomically: tmp file, fsync, rename
    /// over the old manifest, parent-directory fsync. A crash leaves
    /// either the old manifest or the new one, never a torn mix — the
    /// same discipline `lasagna`'s resume manifest uses.
    pub fn store(&self, dir: &Path, io: &IoStats) -> Result<(), GenError> {
        self.validate()?;
        let path = Self::path(dir);
        let tmp = path.with_extension("json.tmp");
        let body = stdx::json::to_string_pretty(self).into_bytes();
        let write = || -> std::io::Result<()> {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            fsync_parent_dir(&path)
        };
        write().map_err(|e| GenError::Manifest(format!("write {}: {e}", path.display())))?;
        io.add_write(body.len() as u64);
        Ok(())
    }

    /// Internal consistency: known version, entries dense-sorted by id,
    /// `active` present.
    pub fn validate(&self) -> Result<(), GenError> {
        if self.version != GEN_MANIFEST_VERSION {
            return Err(GenError::Manifest(format!(
                "unsupported manifest version {} (expected {GEN_MANIFEST_VERSION})",
                self.version
            )));
        }
        if self.generations.is_empty() {
            return Err(GenError::Manifest("manifest lists no generations".into()));
        }
        for pair in self.generations.windows(2) {
            if pair[1].id <= pair[0].id {
                return Err(GenError::Manifest(format!(
                    "generation ids must be strictly increasing ({} then {})",
                    pair[0].id, pair[1].id
                )));
            }
        }
        if self.entry(self.active).is_none() {
            return Err(GenError::MissingGeneration {
                requested: self.active,
            });
        }
        Ok(())
    }

    /// The entry for generation `id`, if listed.
    pub fn entry(&self, id: u64) -> Option<&GenEntry> {
        self.generations.iter().find(|g| g.id == id)
    }

    /// The active generation's entry.
    pub fn active_entry(&self) -> &GenEntry {
        self.entry(self.active)
            .expect("validated manifest lists its active generation")
    }

    /// The id the next export should use.
    pub fn next_id(&self) -> u64 {
        self.generations.last().map_or(1, |g| g.id + 1)
    }

    /// Append `entry` and make it active. The caller stores the result;
    /// nothing touches disk here.
    pub fn admit(&mut self, entry: GenEntry) {
        self.active = entry.id;
        self.generations.push(entry);
    }
}

/// Map a `GenError` into the service error space.
impl From<GenError> for crate::QserveError {
    fn from(e: GenError) -> Self {
        crate::QserveError::Generation(e)
    }
}

/// Resolve a generation's store/index paths inside `dir`, falling back
/// to the legacy flat `contigs.store` / `contigs.mdx` names when the
/// directory predates generations (no `generations.json`).
pub fn resolve_files(dir: &Path, entry: &GenEntry) -> (PathBuf, PathBuf) {
    (dir.join(&entry.store), dir.join(&entry.index))
}

/// Validate that an opened store and index are the build `entry`
/// promises: the store's checksum matches the manifest, and the index
/// is bound to that same store. The `qserve.gen.validate` failpoint
/// forces the mismatch branch with the real error shape.
pub fn validate_binding(
    entry: &GenEntry,
    store: &crate::ContigStore,
    index: &crate::MinimizerIndex,
    faults: &faultsim::Faults,
) -> Result<(), GenError> {
    let store_sum = if faults.hit(faultsim::QSERVE_GEN_VALIDATE).is_err() {
        // The failpoint models on-disk bytes that are a *different*
        // build than the manifest entry claims.
        entry.store_checksum ^ 0xdead_beef
    } else {
        store.checksum()
    };
    if store_sum != entry.store_checksum {
        return Err(GenError::ChecksumMismatch {
            generation: entry.id,
            artifact: "store",
            expected: entry.store_checksum,
            actual: store_sum,
        });
    }
    if index.store_checksum() != entry.store_checksum {
        return Err(GenError::ChecksumMismatch {
            generation: entry.id,
            artifact: "index",
            expected: entry.store_checksum,
            actual: index.store_checksum(),
        });
    }
    Ok(())
}

/// Export `contigs` as the next generation in `dir`: write
/// `gen-NNNNNN.store`, reopen it, build and write `gen-NNNNNN.mdx`
/// with `index_cfg`, then append the checksum-bound entry to
/// `generations.json` (created on first export) and make it active.
/// `reads`/`read_len` describe the corpus the contigs were assembled
/// from; a [`GenKind::Delta`] records the previous generation as its
/// parent. Returns the new id ([`GenManifest::next_id`]). Serving
/// processes pick it up via the `Reload` wire command (SERVING.md,
/// "Generations & hot reload").
pub fn export(
    dir: &Path,
    contigs: &[genome::PackedSeq],
    index_cfg: &crate::IndexConfig,
    reads: u64,
    read_len: u32,
    kind: GenKind,
    io: &IoStats,
) -> crate::Result<u64> {
    let mut manifest = if GenManifest::exists(dir) {
        GenManifest::load(dir, io)?
    } else {
        GenManifest {
            version: GEN_MANIFEST_VERSION,
            active: 1,
            generations: Vec::new(),
        }
    };
    let parent = manifest.generations.last().map(|g| g.id);
    let id = manifest.next_id();
    let store_name = gen_store_file(id);
    let index_name = gen_index_file(id);
    crate::ContigStore::write(&dir.join(&store_name), contigs, io)?;
    let store = crate::ContigStore::open(&dir.join(&store_name), io)?;
    crate::MinimizerIndex::build(&store, index_cfg).write(&dir.join(&index_name), io)?;
    manifest.admit(GenEntry {
        id,
        store: store_name,
        index: index_name,
        store_checksum: store.checksum(),
        reads,
        read_len,
        kind,
        parent: match kind {
            GenKind::Full => None,
            GenKind::Delta => parent,
        },
    });
    manifest.store(dir, io)?;
    Ok(id)
}

/// Open the engine a server in `dir` should start with: the manifest's
/// active generation when `generations.json` exists, else the legacy
/// flat `contigs.store` / `contigs.mdx` pair as generation 0. Returns
/// the engine and its generation id — feed both to
/// [`crate::QueryService::start_with_generation`]. A store or index that
/// cannot be read or decoded fails with its stream error, as
/// [`crate::QueryEngine::open`] does, so a caller can tell corrupt bytes
/// from unreadable ones.
pub fn open_active_engine(
    dir: &Path,
    cfg: crate::QueryConfig,
    io: &IoStats,
) -> crate::Result<(crate::QueryEngine, u64)> {
    if !GenManifest::exists(dir) {
        let engine = crate::QueryEngine::open(
            &dir.join(crate::STORE_FILE),
            &dir.join(crate::INDEX_FILE),
            io,
            cfg,
        )?;
        return Ok((engine, 0));
    }
    let manifest = GenManifest::load(dir, io)?;
    let entry = manifest.active_entry();
    let (store_path, index_path) = resolve_files(dir, entry);
    let store = crate::ContigStore::open(&store_path, io)?;
    let index = crate::MinimizerIndex::open(&index_path, io)?;
    validate_binding(entry, &store, &index, &faultsim::Faults::disabled())?;
    Ok((crate::QueryEngine::new(store, index, cfg)?, entry.id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> GenEntry {
        GenEntry {
            id,
            store: gen_store_file(id),
            index: gen_index_file(id),
            store_checksum: 0x1000 + id,
            reads: 8 * id,
            read_len: 64,
            kind: if id == 1 {
                GenKind::Full
            } else {
                GenKind::Delta
            },
            parent: if id == 1 { None } else { Some(id - 1) },
        }
    }

    #[test]
    fn manifest_round_trips_atomically() {
        let dir = stdx::tempdir().unwrap();
        let io = IoStats::new(gstream::DiskModel::ssd());
        let mut m = GenManifest {
            version: GEN_MANIFEST_VERSION,
            active: 1,
            generations: vec![entry(1)],
        };
        m.store(dir.path(), &io).unwrap();
        m.admit(entry(2));
        m.store(dir.path(), &io).unwrap();
        let back = GenManifest::load(dir.path(), &io).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.active, 2);
        assert_eq!(back.next_id(), 3);
        assert_eq!(back.active_entry().kind, GenKind::Delta);
        // No tmp residue after a clean store.
        assert!(!dir.path().join("generations.json.tmp").exists());
    }

    #[test]
    fn validation_rejects_the_broken_shapes() {
        let ok = GenManifest {
            version: GEN_MANIFEST_VERSION,
            active: 1,
            generations: vec![entry(1), entry(2)],
        };
        ok.validate().unwrap();

        let mut wrong_version = ok.clone();
        wrong_version.version = 99;
        assert!(matches!(
            wrong_version.validate(),
            Err(GenError::Manifest(_))
        ));

        let mut unordered = ok.clone();
        unordered.generations.swap(0, 1);
        assert!(matches!(unordered.validate(), Err(GenError::Manifest(_))));

        let mut dangling = ok.clone();
        dangling.active = 7;
        assert!(matches!(
            dangling.validate(),
            Err(GenError::MissingGeneration { requested: 7 })
        ));

        let empty = GenManifest {
            version: GEN_MANIFEST_VERSION,
            active: 1,
            generations: Vec::new(),
        };
        assert!(matches!(empty.validate(), Err(GenError::Manifest(_))));
    }

    #[test]
    fn errors_name_the_generation() {
        let e = GenError::ChecksumMismatch {
            generation: 4,
            artifact: "store",
            expected: 1,
            actual: 2,
        };
        assert!(e.to_string().contains("generation 4"));
        let e = GenError::MissingGeneration { requested: 9 };
        assert!(e.to_string().contains('9'));
        let e = GenError::Load {
            generation: 3,
            detail: "io".into(),
        };
        assert!(e.to_string().contains("generation 3"));
    }
}
