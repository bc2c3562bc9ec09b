//! Sequential record writers (the "write-only memory" of Fig. 3).
//!
//! Writers are atomic: records stream into a `<path>.tmp` side file and
//! only a commit — append footer, atomic rename — makes them visible under
//! the final name. A crash (or a dropped writer) therefore never leaves a
//! torn partition behind, only a `.tmp` that the next run ignores.
//! [`RecordWriter::finish`] also makes the file durable (`sync_all`, then
//! the directory); [`RecordWriter::finish_scratch`] does not.

use crate::iostats::IoStats;
use crate::record::{Footer, KvPair, Pairs, Xxh64};
use crate::{Result, StreamError};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Durably write an arbitrary byte blob: payload + [`Footer::BLOB`] into
/// `<path>.tmp`, flush, `sync_all`, atomic rename, parent-directory fsync.
/// The same commit discipline as [`RecordWriter::finish`], for artifacts
/// that are not fixed-width record streams (contig stores, minimizer
/// indexes). A crash never leaves a torn file under the final name.
pub fn write_blob(path: &Path, payload: &[u8], io: &IoStats) -> Result<()> {
    let tmp = tmp_path(path);
    let write = || -> Result<()> {
        let footer = Footer {
            records: payload.len() as u64,
            checksum: crate::record::fnv1a(payload),
        };
        let mut file = BufWriter::with_capacity(1 << 16, File::create(&tmp)?);
        file.write_all(payload)?;
        file.write_all(&footer.encode(Footer::BLOB))?;
        file.flush()?;
        file.get_ref().sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        fsync_parent_dir(path)?;
        io.add_write(payload.len() as u64);
        Ok(())
    };
    let result = write();
    if result.is_err() {
        // Failed commits must not leave a torn temp file either.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// `<path>.tmp`, the in-progress side file of a writer targeting `path`.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsync a directory, making previously renamed entries inside it durable.
///
/// On Linux, `rename` + `sync_all` on the *file* is not enough: the new
/// directory entry lives in the parent's metadata, which has its own
/// journal. Every commit-by-rename in this codebase (spill files,
/// manifests, the superstep log) follows the rename with a call here.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Fsync the parent directory of `path` (no-op when `path` has no parent).
pub fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => fsync_dir(parent),
        _ => Ok(()),
    }
}

/// Bytes of one writer or reader block: the largest multiple of both the
/// record size and the checksum stripe within the 64 KiB a buffered stream
/// holds, so full blocks are hashed without ever splitting a stripe.
pub(crate) const BLOCK_BYTES: usize = (1 << 16) / BLOCK_ALIGN * BLOCK_ALIGN;
/// lcm(20-byte record, 32-byte stripe).
const BLOCK_ALIGN: usize = 160;
const _: () =
    assert!(BLOCK_ALIGN.is_multiple_of(KvPair::BYTES) && BLOCK_ALIGN.is_multiple_of(Xxh64::STRIPE));

/// Append-only writer of [`KvPair`] records.
///
/// Records are encoded into one block buffer; a full block is checksummed,
/// written and charged to [`IoStats`] in one step each.
pub struct RecordWriter {
    /// `None` once committed; a `Some` at drop time means an abandoned
    /// writer whose temp file must be deleted.
    file: Option<File>,
    /// Encoded records not yet written; never longer than [`BLOCK_BYTES`].
    block: Vec<u8>,
    io: IoStats,
    written: u64,
    hasher: Xxh64,
    tmp: PathBuf,
    dest: PathBuf,
}

impl RecordWriter {
    /// Start writing `path` (its temp side file, really; the final name
    /// appears atomically on [`RecordWriter::finish`]).
    pub fn create(path: &Path, io: IoStats) -> Result<Self> {
        let tmp = tmp_path(path);
        Ok(RecordWriter {
            file: Some(File::create(&tmp)?),
            block: Vec::with_capacity(BLOCK_BYTES),
            io,
            written: 0,
            hasher: Xxh64::new(),
            tmp,
            dest: path.to_path_buf(),
        })
    }

    /// Checksum, write and account the buffered block.
    fn flush_block(&mut self) -> Result<()> {
        self.hasher.update(&self.block);
        self.file
            .as_mut()
            .expect("writer already finished")
            .write_all(&self.block)?;
        self.io.add_write(self.block.len() as u64);
        self.block.clear();
        Ok(())
    }

    /// Append one record.
    pub fn write(&mut self, pair: KvPair) -> Result<()> {
        self.write_all(&[pair])
    }

    /// Append a batch of records.
    pub fn write_all(&mut self, pairs: &[KvPair]) -> Result<()> {
        self.encode(pairs.iter().map(|pair| (pair.key, pair.val)))
    }

    /// [`RecordWriter::write_all`] of pairs held as columns.
    pub fn write_columns(&mut self, pairs: Pairs<'_>) -> Result<()> {
        assert_eq!(pairs.keys.len(), pairs.vals.len(), "ragged columns");
        self.encode(pairs.keys.iter().copied().zip(pairs.vals.iter().copied()))
    }

    /// Encode `pairs` into the block buffer, flushing each block it fills.
    fn encode(&mut self, mut pairs: impl ExactSizeIterator<Item = (u128, u32)>) -> Result<()> {
        self.written += pairs.len() as u64;
        while pairs.len() > 0 {
            let room = (BLOCK_BYTES - self.block.len()) / KvPair::BYTES;
            let start = self.block.len();
            self.block
                .resize(start + pairs.len().min(room) * KvPair::BYTES, 0);
            for (frame, (key, val)) in self.block[start..]
                .chunks_exact_mut(KvPair::BYTES)
                .zip(&mut pairs)
            {
                KvPair { key, val }.encode(frame);
            }
            if self.block.len() == BLOCK_BYTES {
                self.flush_block()?;
            }
        }
        Ok(())
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Commit durably: append the [`Footer`], `sync_all`, atomically rename
    /// the temp file over the final path and fsync its directory. Returns
    /// the record count. For every file a manifest will name.
    pub fn finish(self) -> Result<u64> {
        self.finish_summary().map(|f| f.records)
    }

    /// [`RecordWriter::finish`], returning the full footer (record count +
    /// checksum) for manifest bookkeeping.
    pub fn finish_summary(self) -> Result<Footer> {
        self.finish_with(Commit::Durable)
    }

    /// Commit without the fsyncs: footer and atomic rename only, so a
    /// reader never sees a half-written file under the final name, but the
    /// file may be torn or missing after a power loss. Only for scratch the
    /// writing process reads back itself and that no manifest names — after
    /// a crash such a file is rewritten from durable input, never trusted.
    pub fn finish_scratch(self) -> Result<u64> {
        self.finish_with(Commit::Scratch).map(|f| f.records)
    }

    /// [`RecordWriter::finish`] minus the directory fsync, for a caller
    /// that commits many files into one directory and fsyncs it once after
    /// the last rename, before it reports any of them as written — or for
    /// a file whose owner renames it again at once (a sorted output, over
    /// its input) and makes that name durable instead.
    pub(crate) fn finish_file(self) -> Result<u64> {
        self.finish_with(Commit::FileOnly).map(|f| f.records)
    }

    fn finish_with(mut self, how: Commit) -> Result<Footer> {
        let result = self.commit(how);
        if result.is_err() {
            // Failed commits must not leave a torn temp file either.
            self.file = None;
            let _ = std::fs::remove_file(&self.tmp);
        }
        result
    }

    fn commit(&mut self, how: Commit) -> Result<Footer> {
        self.flush_block()?;
        // The `gstream.write` failpoint models a crash at the commit point:
        // data written, file not yet durable under its final name.
        self.io
            .faults()
            .hit(faultsim::SPILL_WRITE)
            .map_err(StreamError::Fault)?;
        // The `disk.full` failpoint models ENOSPC at the same point, but
        // surfaces as the real error shape (`Io` / `StorageFull`) so the
        // shed-and-retry recovery paths see what a production run would.
        if self.io.faults().hit(faultsim::DISK_FULL).is_err() {
            return Err(StreamError::Io(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                format!("no space left writing {}", self.dest.display()),
            )));
        }
        let footer = Footer {
            records: self.written,
            checksum: self.hasher.finish(),
        };
        let mut file = self.file.take().expect("writer already finished");
        file.write_all(&footer.encode(Footer::SPILL))?;
        if how != Commit::Scratch {
            file.sync_all()?;
        }
        drop(file);
        std::fs::rename(&self.tmp, &self.dest)?;
        if how == Commit::Durable {
            fsync_parent_dir(&self.dest)?;
        }
        Ok(footer)
    }
}

/// How much of the commit a writer makes durable itself.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Commit {
    /// `sync_all` the file, rename, fsync the directory.
    Durable,
    /// `sync_all` the file and rename; the caller fsyncs the directory.
    FileOnly,
    /// Rename only.
    Scratch,
}

impl Drop for RecordWriter {
    fn drop(&mut self) {
        // An unfinished writer must not leave a torn temp file behind.
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::RecordReader;

    #[test]
    fn write_then_read_roundtrips() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("w.bin");
        let io = IoStats::default();
        let mut w = RecordWriter::create(&path, io.clone()).unwrap();
        w.write(KvPair::new(7, 1)).unwrap();
        w.write_all(&[KvPair::new(8, 2), KvPair::new(9, 3)])
            .unwrap();
        assert_eq!(w.written(), 3);
        assert_eq!(w.finish().unwrap(), 3);
        // Footer bytes are metadata, not modeled spill traffic.
        assert_eq!(io.snapshot().bytes_written, 3 * KvPair::BYTES as u64);

        let mut r = RecordReader::open(&path, io).unwrap();
        assert_eq!(
            r.read_all().unwrap(),
            vec![KvPair::new(7, 1), KvPair::new(8, 2), KvPair::new(9, 3)]
        );
    }

    #[test]
    fn create_truncates_existing_file() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("t.bin");
        let io = IoStats::default();
        let mut w = RecordWriter::create(&path, io.clone()).unwrap();
        w.write_all(&[KvPair::new(1, 1); 5]).unwrap();
        w.finish().unwrap();

        let w2 = RecordWriter::create(&path, io.clone()).unwrap();
        w2.finish().unwrap();
        let r = RecordReader::open(&path, io).unwrap();
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn create_in_missing_directory_fails() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("no/such/dir/w.bin");
        assert!(RecordWriter::create(&path, IoStats::default()).is_err());
    }

    #[test]
    fn file_appears_only_on_finish_and_carries_a_footer() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("atomic.bin");
        let io = IoStats::default();
        let mut w = RecordWriter::create(&path, io.clone()).unwrap();
        w.write(KvPair::new(1, 2)).unwrap();
        assert!(!path.exists(), "final name must not exist before finish");
        assert!(tmp_path(&path).exists());
        let footer = w.finish_summary().unwrap();
        assert!(path.exists());
        assert!(!tmp_path(&path).exists());
        assert_eq!(footer.records, 1);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), KvPair::BYTES + Footer::BYTES);
        let tail = &bytes[KvPair::BYTES..];
        assert_eq!(Footer::decode(tail, Footer::SPILL, &path).unwrap(), footer);
    }

    #[test]
    fn dropping_an_unfinished_writer_deletes_its_temp_file() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("torn.bin");
        let mut w = RecordWriter::create(&path, IoStats::default()).unwrap();
        w.write(KvPair::new(1, 2)).unwrap();
        drop(w);
        assert!(!path.exists());
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn scratch_commit_is_atomic_and_checked_like_a_durable_one() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("scratch.bin");
        let io = IoStats::default();
        let mut w = RecordWriter::create(&path, io.clone()).unwrap();
        w.write_all(&[KvPair::new(4, 5), KvPair::new(6, 7)])
            .unwrap();
        assert!(!path.exists(), "final name must not exist before finish");
        assert_eq!(w.finish_scratch().unwrap(), 2);
        assert!(!tmp_path(&path).exists());
        // Footer bytes stay out of the modeled traffic on this path too.
        assert_eq!(io.snapshot().bytes_written, 2 * KvPair::BYTES as u64);
        let mut r = RecordReader::open(&path, io.clone()).unwrap();
        assert_eq!(r.read_all().unwrap().len(), 2);

        // The failpoints sit on the scratch commit as on the durable one.
        io.set_faults(faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::SPILL_WRITE, 1),
        ));
        let other = dir.path().join("faulted.bin");
        let w = RecordWriter::create(&other, io).unwrap();
        assert!(matches!(w.finish_scratch(), Err(StreamError::Fault(_))));
        assert!(!other.exists());
        assert!(!tmp_path(&other).exists());
    }

    #[test]
    fn blob_roundtrips_and_rejects_corruption() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("blob.bin");
        let io = IoStats::default();
        let payload = b"minimizer index bytes".to_vec();
        write_blob(&path, &payload, &io).unwrap();
        assert!(!tmp_path(&path).exists());
        assert_eq!(crate::reader::read_blob(&path, &io).unwrap(), payload);

        // Any single bit flip in the payload is detected, with the path
        // named in the error.
        let clean = std::fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn[3] ^= 0x40;
        std::fs::write(&path, &torn).unwrap();
        let err = crate::reader::read_blob(&path, &io).unwrap_err();
        match err {
            StreamError::Corrupt(m) => assert!(m.contains("blob.bin"), "{m}"),
            other => panic!("expected Corrupt, got {other}"),
        }

        // Truncation (torn tail) is detected too.
        std::fs::write(&path, &clean[..clean.len() - 5]).unwrap();
        assert!(matches!(
            crate::reader::read_blob(&path, &io),
            Err(StreamError::Corrupt(_))
        ));

        // Empty payloads are valid blobs.
        write_blob(&path, &[], &io).unwrap();
        assert!(crate::reader::read_blob(&path, &io).unwrap().is_empty());
    }

    #[test]
    fn injected_disk_full_surfaces_as_storage_full_io_error() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("enospc.bin");
        let io = IoStats::default();
        io.set_faults(faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::DISK_FULL, 1),
        ));
        let mut w = RecordWriter::create(&path, io.clone()).unwrap();
        w.write(KvPair::new(3, 4)).unwrap();
        let err = w.finish().unwrap_err();
        match err {
            StreamError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::StorageFull),
            other => panic!("expected Io(StorageFull), got {other}"),
        }
        // The failed commit sheds its temp file like any other failure.
        assert!(!path.exists());
        assert!(!tmp_path(&path).exists());

        // One-shot: the retry after cleanup commits normally.
        let mut w = RecordWriter::create(&path, io).unwrap();
        w.write(KvPair::new(3, 4)).unwrap();
        assert_eq!(w.finish().unwrap(), 1);
    }

    #[test]
    fn injected_commit_fault_leaves_no_file_behind() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("faulted.bin");
        let io = IoStats::default();
        io.set_faults(faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::SPILL_WRITE, 1),
        ));
        let mut w = RecordWriter::create(&path, io.clone()).unwrap();
        w.write(KvPair::new(3, 4)).unwrap();
        let err = w.finish().unwrap_err();
        assert!(matches!(err, StreamError::Fault(_)), "got {err}");
        assert!(!path.exists());
        assert!(!tmp_path(&path).exists());

        // The failpoint is one-shot: the retry commits normally.
        let mut w = RecordWriter::create(&path, io).unwrap();
        w.write(KvPair::new(3, 4)).unwrap();
        assert_eq!(w.finish().unwrap(), 1);
        assert!(path.exists());
    }
}
