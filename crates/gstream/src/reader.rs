//! Sequential record readers (the "read-only memory" of Fig. 3).

use crate::iostats::IoStats;
use crate::record::{Columns, Footer, KvPair, Xxh64};
use crate::writer::BLOCK_BYTES;
use crate::{Result, StreamError};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// Read a byte blob written by [`crate::writer::write_blob`], validating
/// its [`Footer`] (magic, length, checksum). Every failure names the
/// offending file and surfaces as [`StreamError::Corrupt`], so a torn or
/// bit-flipped store fails loudly before any consumer trusts its bytes.
pub fn read_blob(path: &Path, io: &IoStats) -> Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    let tail = bytes.len().saturating_sub(Footer::BYTES);
    let footer = Footer::decode(&bytes[tail..], Footer::BLOB, path)?;
    bytes.truncate(tail);
    if footer.records != bytes.len() as u64 {
        return Err(StreamError::Corrupt(format!(
            "{} footer promises {} payload bytes but carries {}",
            path.display(),
            footer.records,
            bytes.len()
        )));
    }
    let actual = crate::record::fnv1a(&bytes);
    if footer.checksum != actual {
        return Err(StreamError::Corrupt(format!(
            "{} checksum mismatch: footer {:#018x}, payload {actual:#018x}",
            path.display(),
            footer.checksum,
        )));
    }
    io.add_read(bytes.len() as u64);
    Ok(bytes)
}

/// Read and validate the [`Footer`] of the spill file at `path` without
/// streaming its records (size and magic checks only — drain the file to
/// verify its checksum).
pub fn read_footer(path: &Path) -> Result<Footer> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    load_footer(&mut file, len, path)
}

/// Validate size + magic and return the footer; leaves the cursor at the
/// start of the file.
fn load_footer(file: &mut File, len: u64, path: &Path) -> Result<Footer> {
    let mut buf = [0u8; Footer::BYTES];
    let tail = &mut buf[..len.min(Footer::BYTES as u64) as usize];
    file.seek(SeekFrom::End(-(tail.len() as i64)))?;
    file.read_exact(tail)?;
    let footer = Footer::decode(tail, Footer::SPILL, path)?;
    let data_len = len - Footer::BYTES as u64;
    if footer.records.checked_mul(KvPair::BYTES as u64) != Some(data_len) {
        return Err(StreamError::Corrupt(format!(
            "{} footer promises {} records but carries {data_len} data bytes",
            path.display(),
            footer.records
        )));
    }
    file.seek(SeekFrom::Start(0))?;
    Ok(footer)
}

/// Sequential reader of [`KvPair`] records.
///
/// Only forward chunked reads are offered — the paper's semi-streaming model
/// forbids random access to the read-only memory, and keeping the API this
/// narrow makes that structural property hold by construction.
///
/// The file's [`Footer`] is validated on open (size, magic, record count);
/// the data is read, checksummed and charged to [`IoStats`] a block at a
/// time, and the checksum is compared when the last record is consumed, so
/// any bit-flip surfaces as [`StreamError::Corrupt`] before downstream
/// phases can trust the data. Callers that stop early can force the
/// comparison with [`RecordReader::verify_to_end`].
pub struct RecordReader {
    file: File,
    /// The current block; records before `pos` are consumed.
    block: Vec<u8>,
    pos: usize,
    io: IoStats,
    remaining: u64,
    hasher: Xxh64,
    footer: Footer,
    path: std::path::PathBuf,
}

impl RecordReader {
    /// Open `path` and prepare to stream all of its records.
    ///
    /// Fails with [`StreamError::Corrupt`] if the footer is missing or
    /// inconsistent with the file size.
    pub fn open(path: &Path, io: IoStats) -> Result<Self> {
        io.faults()
            .hit(faultsim::READER_OPEN)
            .map_err(StreamError::Fault)?;
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let footer = load_footer(&mut file, len, path)?;
        if footer.records == 0 && footer.checksum != Xxh64::new().finish() {
            return Err(StreamError::Corrupt(format!(
                "{} empty-stream checksum mismatch",
                path.display()
            )));
        }
        Ok(RecordReader {
            file,
            block: Vec::new(),
            pos: 0,
            io,
            remaining: footer.records,
            hasher: Xxh64::new(),
            footer,
            path: path.to_path_buf(),
        })
    }

    /// Records not yet consumed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The validated footer (total record count + expected checksum).
    pub fn footer(&self) -> Footer {
        self.footer
    }

    /// Read, checksum and account the next block of the file. The current
    /// block is consumed, so every remaining record is still in the file.
    fn load_block(&mut self) -> Result<()> {
        let unread = self.remaining * KvPair::BYTES as u64;
        let len = unread.min(BLOCK_BYTES as u64) as usize;
        self.block.resize(len, 0);
        self.file.read_exact(&mut self.block).map_err(|e| {
            StreamError::Corrupt(format!(
                "{} short read mid-record: {e}",
                self.path.display()
            ))
        })?;
        self.hasher.update(&self.block);
        self.io.add_read(len as u64);
        self.pos = 0;
        Ok(())
    }

    /// Decode up to `max` records (fewer only at end of stream) into `put`,
    /// and compare the checksum once the last record is out.
    fn decode(&mut self, max: usize, mut put: impl FnMut(u128, u32)) -> Result<()> {
        let mut want = self.remaining.min(max as u64) as usize;
        while want > 0 {
            if self.pos == self.block.len() {
                self.load_block()?;
            }
            let end = self.block.len().min(self.pos + want * KvPair::BYTES);
            for record in self.block[self.pos..end].chunks_exact(KvPair::BYTES) {
                let pair = KvPair::decode(record);
                put(pair.key, pair.val);
            }
            let took = (end - self.pos) / KvPair::BYTES;
            self.remaining -= took as u64;
            want -= took;
            self.pos = end;
        }
        if self.remaining == 0 {
            self.compare_checksum()?;
        }
        Ok(())
    }

    /// With every block loaded: the data's checksum against the footer's.
    fn compare_checksum(&self) -> Result<()> {
        if self.hasher.finish() != self.footer.checksum {
            return Err(StreamError::Corrupt(format!(
                "{} checksum mismatch: footer {:#018x}, data {:#018x}",
                self.path.display(),
                self.footer.checksum,
                self.hasher.finish()
            )));
        }
        Ok(())
    }

    /// Read up to `max` records; returns fewer only at end of stream.
    pub fn next_chunk(&mut self, max: usize) -> Result<Vec<KvPair>> {
        let mut out = Vec::with_capacity(self.remaining.min(max as u64) as usize);
        self.decode(max, |key, val| out.push(KvPair { key, val }))?;
        Ok(out)
    }

    /// [`RecordReader::next_chunk`] appending to `out`'s columns.
    pub fn next_columns(&mut self, max: usize, out: &mut Columns) -> Result<()> {
        let want = self.remaining.min(max as u64) as usize;
        out.keys.reserve(want);
        out.vals.reserve(want);
        self.decode(max, |key, val| {
            out.keys.push(key);
            out.vals.push(val);
        })
    }

    /// Drain the rest of the stream.
    pub fn read_all(&mut self) -> Result<Vec<KvPair>> {
        self.next_chunk(self.remaining as usize)
    }

    /// Skip any unconsumed records so the checksum comparison runs even
    /// when the consumer stopped early: the blocks left in the file are
    /// read, checksummed and charged to [`IoStats`], and none is decoded.
    pub fn verify_to_end(&mut self) -> Result<()> {
        loop {
            // What is left of the current block is already checksummed.
            self.remaining -= ((self.block.len() - self.pos) / KvPair::BYTES) as u64;
            self.pos = self.block.len();
            if self.remaining == 0 {
                return self.compare_checksum();
            }
            self.load_block()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::RecordWriter;
    use std::io::Write;

    fn write_pairs(dir: &Path, name: &str, pairs: &[KvPair]) -> std::path::PathBuf {
        let path = dir.join(name);
        let mut w = RecordWriter::create(&path, IoStats::default()).unwrap();
        w.write_all(pairs).unwrap();
        w.finish().unwrap();
        path
    }

    #[test]
    fn reads_back_written_records_in_chunks() {
        let dir = stdx::tempdir().unwrap();
        let pairs: Vec<KvPair> = (0..10).map(|i| KvPair::new(i as u128, i)).collect();
        let path = write_pairs(dir.path(), "a.bin", &pairs);

        let io = IoStats::default();
        let mut r = RecordReader::open(&path, io.clone()).unwrap();
        assert_eq!(r.remaining(), 10);
        let first = r.next_chunk(3).unwrap();
        assert_eq!(first, pairs[..3]);
        assert_eq!(r.remaining(), 7);
        let rest = r.read_all().unwrap();
        assert_eq!(rest, pairs[3..]);
        assert_eq!(r.remaining(), 0);
        assert!(r.next_chunk(5).unwrap().is_empty());
        assert_eq!(io.snapshot().bytes_read, 10 * KvPair::BYTES as u64);
    }

    #[test]
    fn rejects_files_with_partial_records() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("bad.bin");
        std::fs::File::create(&path)
            .unwrap()
            .write_all(&[0u8; KvPair::BYTES + 3])
            .unwrap();
        assert!(matches!(
            RecordReader::open(&path, IoStats::default()),
            Err(StreamError::Corrupt(_))
        ));
    }

    #[test]
    fn missing_file_is_io_error() {
        let dir = stdx::tempdir().unwrap();
        assert!(matches!(
            RecordReader::open(&dir.path().join("nope.bin"), IoStats::default()),
            Err(StreamError::Io(_))
        ));
    }

    #[test]
    fn empty_file_reads_empty() {
        let dir = stdx::tempdir().unwrap();
        let path = write_pairs(dir.path(), "empty.bin", &[]);
        let mut r = RecordReader::open(&path, IoStats::default()).unwrap();
        assert_eq!(r.remaining(), 0);
        assert!(r.read_all().unwrap().is_empty());
    }

    #[test]
    fn truncation_to_whole_records_is_still_detected() {
        // Pre-footer, a file shortened by exactly one record looked valid.
        let dir = stdx::tempdir().unwrap();
        let pairs: Vec<KvPair> = (0..4).map(|i| KvPair::new(i as u128, i)).collect();
        let path = write_pairs(dir.path(), "cut.bin", &pairs);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - KvPair::BYTES]).unwrap();
        assert!(matches!(
            RecordReader::open(&path, IoStats::default()),
            Err(StreamError::Corrupt(_))
        ));
    }

    #[test]
    fn any_single_bit_flip_in_the_data_is_detected_on_drain() {
        let dir = stdx::tempdir().unwrap();
        let pairs: Vec<KvPair> = (0..50).map(|i| KvPair::new(i as u128 * 7, i)).collect();
        let path = write_pairs(dir.path(), "flip.bin", &pairs);
        let clean = std::fs::read(&path).unwrap();
        let data_len = clean.len() - Footer::BYTES;
        for byte in [0usize, data_len / 2, data_len - 1] {
            let mut bytes = clean.clone();
            bytes[byte] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let mut r = RecordReader::open(&path, IoStats::default()).unwrap();
            let err = r.read_all().unwrap_err();
            assert!(matches!(err, StreamError::Corrupt(_)), "byte {byte}: {err}");
        }
    }

    #[test]
    fn a_kvspill1_file_is_rejected_as_foreign_naming_the_file() {
        // A well-formed file of the previous format: same layout, old magic.
        let dir = stdx::tempdir().unwrap();
        let path = write_pairs(dir.path(), "old.kv", &[KvPair::new(1, 2)]);
        let mut bytes = std::fs::read(&path).unwrap();
        let magic = bytes.len() - Footer::BYTES;
        assert_eq!(&bytes[magic..magic + 8], b"KVSPILL2");
        bytes[magic..magic + 8].copy_from_slice(b"KVSPILL1");
        std::fs::write(&path, &bytes).unwrap();
        for result in [
            RecordReader::open(&path, IoStats::default()).map(|_| ()),
            read_footer(&path).map(|_| ()),
        ] {
            match result {
                Err(StreamError::Corrupt(m)) => {
                    assert!(m.contains("old.kv") && m.contains("magic"), "{m}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn chunks_and_byte_counts_are_exact_across_block_boundaries() {
        // Two and a bit blocks, drained in chunks that straddle them.
        let dir = stdx::tempdir().unwrap();
        let n = 2 * BLOCK_BYTES / KvPair::BYTES + 17;
        let pairs: Vec<KvPair> = (0..n as u32)
            .map(|i| KvPair::new(u128::from(i) << 70 | 9, i))
            .collect();
        let io = IoStats::default();
        let path = dir.path().join("blocks.kv");
        let mut w = RecordWriter::create(&path, io.clone()).unwrap();
        for piece in pairs.chunks(1000) {
            w.write_all(piece).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(io.snapshot().bytes_written, (n * KvPair::BYTES) as u64);

        let mut r = RecordReader::open(&path, io.clone()).unwrap();
        let mut got = Vec::new();
        while r.remaining() > 0 {
            got.extend(r.next_chunk(777).unwrap());
        }
        assert_eq!(got, pairs);
        assert_eq!(io.snapshot().bytes_read, (n * KvPair::BYTES) as u64);

        // Stopping inside the first block and verifying reads the same bytes.
        let skipped = IoStats::default();
        let mut r = RecordReader::open(&path, skipped.clone()).unwrap();
        assert_eq!(r.next_chunk(777).unwrap(), pairs[..777]);
        r.verify_to_end().unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(skipped.snapshot().bytes_read, (n * KvPair::BYTES) as u64);

        // A flip in the middle block is caught at the end of the drain, and
        // by a verify that never decodes that block.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[BLOCK_BYTES + BLOCK_BYTES / 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = RecordReader::open(&path, IoStats::default()).unwrap();
        assert!(matches!(r.read_all(), Err(StreamError::Corrupt(_))));
        let mut r = RecordReader::open(&path, IoStats::default()).unwrap();
        r.next_chunk(777).unwrap();
        match r.verify_to_end() {
            Err(StreamError::Corrupt(m)) => assert!(m.contains("blocks.kv"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn verify_to_end_checks_without_consuming_the_caller_side() {
        let dir = stdx::tempdir().unwrap();
        let pairs: Vec<KvPair> = (0..20).map(|i| KvPair::new(i as u128, i)).collect();
        let path = write_pairs(dir.path(), "partial.bin", &pairs);

        // Clean file: early stop + verify passes.
        let mut r = RecordReader::open(&path, IoStats::default()).unwrap();
        r.next_chunk(5).unwrap();
        r.verify_to_end().unwrap();
        assert_eq!(r.remaining(), 0);

        // Flipped bit beyond the consumed prefix: verify catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[15 * KvPair::BYTES] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let mut r = RecordReader::open(&path, IoStats::default()).unwrap();
        r.next_chunk(5).unwrap();
        assert!(matches!(r.verify_to_end(), Err(StreamError::Corrupt(_))));
    }

    #[test]
    fn footer_helper_reports_counts_without_draining() {
        let dir = stdx::tempdir().unwrap();
        let pairs: Vec<KvPair> = (0..6).map(|i| KvPair::new(i as u128, i)).collect();
        let path = write_pairs(dir.path(), "meta.bin", &pairs);
        let footer = read_footer(&path).unwrap();
        assert_eq!(footer.records, 6);
        let mut r = RecordReader::open(&path, IoStats::default()).unwrap();
        assert_eq!(r.footer(), footer);
        r.verify_to_end().unwrap();
    }

    #[test]
    fn injected_open_fault_surfaces_as_fault_error() {
        let dir = stdx::tempdir().unwrap();
        let path = write_pairs(dir.path(), "armed.bin", &[KvPair::new(1, 1)]);
        let io = IoStats::default();
        io.set_faults(faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::READER_OPEN, 2),
        ));
        assert!(RecordReader::open(&path, io.clone()).is_ok());
        assert!(matches!(
            RecordReader::open(&path, io.clone()),
            Err(StreamError::Fault(_))
        ));
        assert!(RecordReader::open(&path, io).is_ok());
    }
}
