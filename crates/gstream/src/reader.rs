//! Sequential record readers (the "read-only memory" of Fig. 3).

use crate::iostats::IoStats;
use crate::record::{BlobFooter, Fnv64, Footer, KvPair};
use crate::{Result, StreamError};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom};
use std::path::Path;

/// Read a byte blob written by [`crate::writer::write_blob`], validating
/// its [`BlobFooter`] (magic, length, checksum). Every failure names the
/// offending file and surfaces as [`StreamError::Corrupt`], so a torn or
/// bit-flipped store fails loudly before any consumer trusts its bytes.
pub fn read_blob(path: &Path, io: &IoStats) -> Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    if bytes.len() < BlobFooter::BYTES {
        return Err(StreamError::Corrupt(format!(
            "{} has {} bytes, too short for the {}-byte blob footer",
            path.display(),
            bytes.len(),
            BlobFooter::BYTES
        )));
    }
    let tail: [u8; BlobFooter::BYTES] = bytes[bytes.len() - BlobFooter::BYTES..]
        .try_into()
        .expect("footer-sized tail");
    let footer = BlobFooter::decode(&tail).ok_or_else(|| {
        StreamError::Corrupt(format!(
            "{} has no blob footer magic (truncated, torn, or foreign file)",
            path.display()
        ))
    })?;
    bytes.truncate(bytes.len() - BlobFooter::BYTES);
    if footer.len != bytes.len() as u64 {
        return Err(StreamError::Corrupt(format!(
            "{} footer promises {} payload bytes but carries {}",
            path.display(),
            footer.len,
            bytes.len()
        )));
    }
    if footer.checksum != crate::record::fnv1a(&bytes) {
        return Err(StreamError::Corrupt(format!(
            "{} checksum mismatch: footer {:#018x}, payload {:#018x}",
            path.display(),
            footer.checksum,
            crate::record::fnv1a(&bytes)
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
    if len < Footer::BYTES as u64 {
        return Err(StreamError::Corrupt(format!(
            "{} has {len} bytes, too short for the {}-byte footer",
            path.display(),
            Footer::BYTES
        )));
    }
    file.seek(SeekFrom::End(-(Footer::BYTES as i64)))?;
    let mut buf = [0u8; Footer::BYTES];
    file.read_exact(&mut buf)?;
    let footer = Footer::decode(&buf).ok_or_else(|| {
        StreamError::Corrupt(format!(
            "{} has no spill footer magic (truncated, foreign, or pre-footer file)",
            path.display()
        ))
    })?;
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

/// Buffered sequential reader of [`KvPair`] records.
///
/// Only forward chunked reads are offered — the paper's semi-streaming model
/// forbids random access to the read-only memory, and keeping the API this
/// narrow makes that structural property hold by construction.
///
/// The file's [`Footer`] is validated on open (size, magic, record count);
/// the data checksum is accumulated as records stream out and compared when
/// the last record is consumed, so any bit-flip surfaces as
/// [`StreamError::Corrupt`] before downstream phases can trust the data.
/// Callers that stop early can force the comparison with
/// [`RecordReader::verify_to_end`].
pub struct RecordReader {
    inner: BufReader<File>,
    io: IoStats,
    remaining: u64,
    hasher: Fnv64,
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
        if footer.records == 0 && footer.checksum != Fnv64::new().finish() {
            return Err(StreamError::Corrupt(format!(
                "{} empty-stream checksum mismatch",
                path.display()
            )));
        }
        Ok(RecordReader {
            inner: BufReader::with_capacity(1 << 16, file),
            io,
            remaining: footer.records,
            hasher: Fnv64::new(),
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

    /// Read up to `max` records; returns fewer only at end of stream.
    pub fn next_chunk(&mut self, max: usize) -> Result<Vec<KvPair>> {
        let want = (self.remaining.min(max as u64)) as usize;
        let mut out = Vec::with_capacity(want);
        let mut frame = [0u8; KvPair::BYTES];
        for _ in 0..want {
            self.inner.read_exact(&mut frame).map_err(|e| {
                StreamError::Corrupt(format!(
                    "{} short read mid-record: {e}",
                    self.path.display()
                ))
            })?;
            self.hasher.update(&frame);
            out.push(KvPair::decode(&frame));
        }
        self.remaining -= want as u64;
        self.io.add_read((want * KvPair::BYTES) as u64);
        if self.remaining == 0 && self.hasher.finish() != self.footer.checksum {
            return Err(StreamError::Corrupt(format!(
                "{} checksum mismatch: footer {:#018x}, data {:#018x}",
                self.path.display(),
                self.footer.checksum,
                self.hasher.finish()
            )));
        }
        Ok(out)
    }

    /// Drain the rest of the stream.
    pub fn read_all(&mut self) -> Result<Vec<KvPair>> {
        self.next_chunk(self.remaining as usize)
    }

    /// Drain any unconsumed records (discarding them) so the checksum
    /// comparison runs even when the consumer stopped early.
    pub fn verify_to_end(&mut self) -> Result<()> {
        while self.remaining > 0 {
            self.next_chunk(1 << 15)?;
        }
        self.next_chunk(0).map(|_| ())
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
