//! The on-disk contig store.
//!
//! Written by [`crate::generations::export`] from an assembly's contigs,
//! read by the query service. The payload is deliberately dumb — a count, per-contig lengths,
//! then every contig 2-bit packed, 4 bases per byte — because the
//! durability and integrity story lives one layer down: the whole payload
//! travels through [`gstream::write_blob`] / [`gstream::read_blob`], which
//! give it the same tmp-file + fsync + atomic-rename commit and
//! checksummed [`gstream::Footer`] as every spill file. A torn or
//! bit-flipped store therefore fails [`ContigStore::open`] loudly as
//! [`StreamError::Corrupt`] with the file path named — it can never serve
//! garbage sequence.

use genome::PackedSeq;
use gstream::{IoStats, StreamError};
use std::path::Path;
use stdx::bytes::{put_u64, Cursor};

/// Leading payload magic: `LASTIG01` (distinct from the blob footer's).
pub const STORE_MAGIC: u64 = u64::from_le_bytes(*b"LASTIG01");

/// An assembly's contigs, loaded from (or destined for) one store file.
///
/// Contigs keep their pipeline order and exact sequence — the golden-path
/// test in `tests/qserve_golden.rs` asserts a round-trip through the store
/// is bit-identical to [`Pipeline::run`]'s output. The store remembers the
/// FNV-1a checksum of its serialized payload so a [`MinimizerIndex`] built
/// from it can refuse to serve a mismatched store/index pair.
///
/// [`Pipeline::run`]: https://docs.rs (see `lasagna::Pipeline::assemble`)
/// [`MinimizerIndex`]: crate::MinimizerIndex
pub struct ContigStore {
    contigs: Vec<PackedSeq>,
    checksum: u64,
}

impl std::fmt::Debug for ContigStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContigStore")
            .field("contigs", &self.contigs.len())
            .field("total_bases", &self.total_bases())
            .field("checksum", &format_args!("{:#018x}", self.checksum))
            .finish()
    }
}

impl ContigStore {
    /// Serialize `contigs` into a store payload (no footer — that is
    /// [`gstream::write_blob`]'s job).
    pub fn encode(contigs: &[PackedSeq]) -> Vec<u8> {
        let packed: usize = contigs.iter().map(|c| c.len().div_ceil(4)).sum();
        let mut buf = Vec::with_capacity(24 + contigs.len() * 8 + packed);
        put_u64(&mut buf, STORE_MAGIC);
        put_u64(&mut buf, contigs.len() as u64);
        put_u64(&mut buf, contigs.iter().map(|c| c.len() as u64).sum());
        for c in contigs {
            put_u64(&mut buf, c.len() as u64);
        }
        for c in contigs {
            c.extend_le_bytes(&mut buf);
        }
        buf
    }

    /// Durably write `contigs` to `path` (tmp + fsync + atomic rename).
    ///
    /// The `qserve.store.write` failpoint models the disk filling up
    /// during the export: like `disk.full` it surfaces as
    /// [`StreamError::Io`] with `ErrorKind::StorageFull` — the real
    /// ENOSPC shape — and it fires *before* any byte is written, so a
    /// failed export can never leave a store that passes footer
    /// validation. (A crash mid-write is already covered by the blob
    /// writer's tmp + fsync + atomic-rename commit.)
    pub fn write(path: &Path, contigs: &[PackedSeq], io: &IoStats) -> gstream::Result<()> {
        if io.faults().hit(faultsim::QSERVE_STORE_WRITE).is_err() {
            return Err(StreamError::Io(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                format!("no space left writing {}", path.display()),
            )));
        }
        gstream::write_blob(path, &Self::encode(contigs), io)
    }

    /// Open and fully validate the store at `path`.
    ///
    /// The `qserve.store.read` failpoint fires here (before any byte is
    /// read); any footer/checksum mismatch or malformed payload surfaces
    /// as [`StreamError::Corrupt`] naming `path`.
    pub fn open(path: &Path, io: &IoStats) -> gstream::Result<ContigStore> {
        io.faults()
            .hit(faultsim::QSERVE_STORE_READ)
            .map_err(StreamError::Fault)?;
        let payload = gstream::read_blob(path, io)?;
        Self::decode(&payload, path)
    }

    /// Decode a validated payload. `path` is only used to name errors.
    pub fn decode(payload: &[u8], path: &Path) -> gstream::Result<ContigStore> {
        let source = path.to_string_lossy();
        let mut cur = Cursor::new(payload, &source);
        let magic = cur.u64("store magic")?;
        if magic != STORE_MAGIC {
            let detail = format!("{magic:#018x} is not {STORE_MAGIC:#018x}");
            return Err(cur.corrupt("store magic", detail).into());
        }
        let count = cur.u64("contig count")?;
        let total = cur.u64("total bases")?;
        let count = cur.count(count, 8, "contig count")?;
        let mut lens = Vec::with_capacity(count);
        for _ in 0..count {
            lens.push(cur.u64("contig length")?);
        }
        if lens.iter().try_fold(0u64, |sum, &l| sum.checked_add(l)) != Some(total) {
            let detail = "contig lengths disagree with the header total";
            return Err(cur.corrupt("contig length", detail).into());
        }
        let mut contigs = Vec::with_capacity(count);
        for len in lens {
            let len = len as usize;
            let bytes = cur.take(len.div_ceil(4), "contig bases")?;
            contigs.push(PackedSeq::from_le_bytes(bytes, len));
        }
        cur.finish()?;
        Ok(ContigStore {
            contigs,
            checksum: gstream::fnv1a(payload),
        })
    }

    /// Build an in-memory store (e.g. for tests or FASTA-imported contigs).
    pub fn from_contigs(contigs: Vec<PackedSeq>) -> ContigStore {
        let checksum = gstream::fnv1a(&Self::encode(&contigs));
        ContigStore { contigs, checksum }
    }

    /// Number of contigs.
    pub fn len(&self) -> usize {
        self.contigs.len()
    }

    /// `true` when the store holds no contigs.
    pub fn is_empty(&self) -> bool {
        self.contigs.is_empty()
    }

    /// Contig `i` (pipeline order).
    pub fn contig(&self, i: usize) -> &PackedSeq {
        &self.contigs[i]
    }

    /// All contigs, in pipeline order.
    pub fn contigs(&self) -> &[PackedSeq] {
        &self.contigs
    }

    /// Total bases across contigs.
    pub fn total_bases(&self) -> u64 {
        self.contigs.iter().map(|c| c.len() as u64).sum()
    }

    /// FNV-1a checksum of the serialized payload — the identity an index
    /// records to bind itself to this exact store.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{FaultPlan, Faults};

    fn seqs(strs: &[&str]) -> Vec<PackedSeq> {
        strs.iter().map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn store_roundtrips_contigs_bit_identically() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("contigs.store");
        let io = IoStats::default();
        let contigs = seqs(&["ACGTACGTA", "T", "", "GGGGCCCCAAAATTTTG"]);
        ContigStore::write(&path, &contigs, &io).unwrap();
        let store = ContigStore::open(&path, &io).unwrap();
        assert_eq!(store.contigs(), &contigs[..]);
        assert_eq!(store.total_bases(), 9 + 1 + 17);
        assert_eq!(
            store.checksum(),
            ContigStore::from_contigs(contigs).checksum()
        );
    }

    #[test]
    fn empty_store_is_valid() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("empty.store");
        let io = IoStats::default();
        ContigStore::write(&path, &[], &io).unwrap();
        let store = ContigStore::open(&path, &io).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.total_bases(), 0);
    }

    #[test]
    fn corruption_names_the_store_path() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("victim.store");
        let io = IoStats::default();
        ContigStore::write(&path, &seqs(&["ACGTACGTACGT"]), &io).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        match ContigStore::open(&path, &io) {
            Err(StreamError::Corrupt(m)) => assert!(m.contains("victim.store"), "{m}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("open must fail on a flipped bit"),
        }
    }

    #[test]
    fn bad_magic_is_corrupt_not_garbage() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("magic.store");
        let io = IoStats::default();
        let mut payload = ContigStore::encode(&seqs(&["ACGT"]));
        payload[0] ^= 0xFF;
        gstream::write_blob(&path, &payload, &io).unwrap();
        assert!(matches!(
            ContigStore::open(&path, &io),
            Err(StreamError::Corrupt(_))
        ));
    }

    #[test]
    fn store_write_failpoint_is_enospc_shaped_and_leaves_no_file() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("full.store");
        let io = IoStats::default();
        io.set_faults(Faults::from_plan(
            &FaultPlan::new().fail_at(faultsim::QSERVE_STORE_WRITE, 1),
        ));
        let contigs = seqs(&["ACGTACGTACGT"]);
        match ContigStore::write(&path, &contigs, &io) {
            Err(StreamError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::StorageFull);
                assert!(e.to_string().contains("full.store"), "{e}");
            }
            other => panic!("expected StorageFull Io error, got {other:?}"),
        }
        // Nothing half-written: the path does not exist at all.
        assert!(!path.exists());
        // The failpoint is one-shot; the retry commits a valid store.
        ContigStore::write(&path, &contigs, &io).unwrap();
        assert_eq!(
            ContigStore::open(&path, &io).unwrap().contigs(),
            &contigs[..]
        );
    }

    #[test]
    fn store_write_failpoint_preserves_an_existing_store() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("kept.store");
        let io = IoStats::default();
        let old = seqs(&["AAAACCCCGGGG"]);
        ContigStore::write(&path, &old, &io).unwrap();
        io.set_faults(Faults::from_plan(
            &FaultPlan::new().fail_at(faultsim::QSERVE_STORE_WRITE, 1),
        ));
        assert!(ContigStore::write(&path, &seqs(&["TTTT"]), &io).is_err());
        // The prior store is untouched and still fully valid.
        assert_eq!(ContigStore::open(&path, &io).unwrap().contigs(), &old[..]);
    }

    #[test]
    fn store_read_failpoint_fires_before_any_io() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("absent.store");
        let io = IoStats::default();
        io.set_faults(Faults::from_plan(
            &FaultPlan::new().fail_at(faultsim::QSERVE_STORE_READ, 1),
        ));
        // The failpoint fires even though the file does not exist: the
        // injected crash lands before the open.
        assert!(matches!(
            ContigStore::open(&path, &io),
            Err(StreamError::Fault(_))
        ));
    }
}
