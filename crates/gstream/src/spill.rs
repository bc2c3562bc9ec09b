//! Per-length partition spill files.
//!
//! The map phase "converts a list of (j, f, r) tuples to l_max lists of
//! (f, r) tuples" (Section III-A): one suffix file and one prefix file per
//! overlap length l ∈ [l_min, l_max). Partitions shorter than l_min are
//! discarded and the l_max partition is dropped to avoid self-loops — both
//! rules are enforced here so no caller can accidentally break them.

use crate::iostats::IoStats;
use crate::reader::RecordReader;
use crate::record::KvPair;
use crate::writer::{fsync_dir, RecordWriter};
use crate::{Result, StreamError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use vgpu::exec::{par_parts, part_len, ELEMENT_GRAIN};

/// Which side of the overlap a partition holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// l-length suffix fingerprints.
    Suffix,
    /// l-length prefix fingerprints.
    Prefix,
}

impl PartitionKind {
    /// File-name tag of this kind (`sfx`/`pfx`) — also the prefix of the
    /// partition tags recorded in checkpoint manifests.
    pub fn tag(self) -> &'static str {
        match self {
            PartitionKind::Suffix => "sfx",
            PartitionKind::Prefix => "pfx",
        }
    }
}

/// One partition file: the `kind` side of overlap length `len`, fingerprint
/// range `range` of the `ranges` each length is split into (`ranges` ≤ 1:
/// the whole length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Suffix or prefix side.
    pub kind: PartitionKind,
    /// Overlap length.
    pub len: u32,
    /// Fingerprint range index.
    pub range: u32,
    /// Ranges each length is split into.
    pub ranges: u32,
}

impl Partition {
    /// The suffix and the prefix partition that one join pairs, in that
    /// order.
    pub fn pair(len: u32, range: u32, ranges: u32) -> [Partition; 2] {
        [PartitionKind::Suffix, PartitionKind::Prefix].map(|kind| Partition {
            kind,
            len,
            range,
            ranges,
        })
    }

    /// The partition's one name: its file stem, its manifest tag and its
    /// span (`sfx_00045`, or `sfx_00045_r001` under a range split).
    pub fn name(&self) -> String {
        let (tag, len) = (self.kind.tag(), self.len);
        if self.ranges <= 1 {
            format!("{tag}_{len:05}")
        } else {
            format!("{tag}_{len:05}_r{:03}", self.range)
        }
    }
}

/// A directory of per-length suffix/prefix partition files.
#[derive(Debug, Clone)]
pub struct SpillDir {
    root: PathBuf,
    io: IoStats,
}

/// Name of the checkpoint manifest a pipeline keeps inside its spill
/// directory; its presence marks the directory as a resumable workdir.
pub const MANIFEST_NAME: &str = "manifest.json";

impl SpillDir {
    /// Create `root` as a fresh spill directory.
    ///
    /// Refuses a non-empty directory that carries no [`MANIFEST_NAME`]:
    /// stale `sfx_*`/`pfx_*` files from an unrelated run must not leak into
    /// a new assembly. Directories with a manifest are accepted — whether
    /// their contents may be reused is decided by the manifest's config
    /// hash at the pipeline level. Use [`SpillDir::open`] to attach to a
    /// directory another component is already managing.
    pub fn create(root: &Path, io: IoStats) -> Result<Self> {
        std::fs::create_dir_all(root)?;
        if !root.join(MANIFEST_NAME).exists() {
            let mut entries = std::fs::read_dir(root)?;
            if entries.next().is_some() {
                return Err(StreamError::BadConfig(format!(
                    "spill directory {} is not empty and has no {MANIFEST_NAME}; \
                     refusing to mix spill files from different runs \
                     (point --work at a fresh directory, or resume the original run)",
                    root.display()
                )));
            }
        }
        Ok(SpillDir {
            root: root.to_path_buf(),
            io,
        })
    }

    /// Attach to `root` without the fresh-run emptiness check (used when
    /// resuming and by cluster nodes re-attaching between phases).
    pub fn open(root: &Path, io: IoStats) -> Result<Self> {
        std::fs::create_dir_all(root)?;
        Ok(SpillDir {
            root: root.to_path_buf(),
            io,
        })
    }

    /// Delete every spill artifact (`*.kv`, in-progress `*.tmp`) so a fresh
    /// run cannot see a predecessor's partitions. Other files (manifest,
    /// staged inputs) are left to their owners.
    pub fn clear(&self) -> Result<()> {
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".kv") || name.ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Shared I/O statistics.
    pub fn io(&self) -> &IoStats {
        &self.io
    }

    /// Path of the record file `name` (`<root>/<name>.kv`).
    pub fn file(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.kv"))
    }

    /// Path of the partition file for `kind` at overlap length `len`.
    pub fn path(&self, kind: PartitionKind, len: u32) -> PathBuf {
        self.path_range(Partition {
            kind,
            len,
            range: 0,
            ranges: 1,
        })
    }

    /// Path of the file of partition `part`, named by [`Partition::name`]
    /// (a range split is the paper's future-work partitioning "based on
    /// fingerprints rather than on lengths"). Range 0 of a 1-range split
    /// is the plain per-length path.
    pub fn path_range(&self, part: Partition) -> PathBuf {
        self.file(&part.name())
    }

    /// Open partition `part` for reading.
    pub fn reader_range(&self, part: Partition) -> Result<RecordReader> {
        RecordReader::open(&self.path_range(part), self.io.clone())
    }

    /// Path for a scratch file (sort runs, merged outputs).
    pub fn scratch_path(&self, label: &str) -> PathBuf {
        self.file(&format!("scratch_{label}"))
    }

    /// Open a partition for reading.
    pub fn reader(&self, kind: PartitionKind, len: u32) -> Result<RecordReader> {
        RecordReader::open(&self.path(kind, len), self.io.clone())
    }

    /// Create a partition for writing (truncates).
    pub fn writer(&self, kind: PartitionKind, len: u32) -> Result<RecordWriter> {
        RecordWriter::create(&self.path(kind, len), self.io.clone())
    }

    /// Lengths for which a partition file of `kind` exists, ascending.
    pub fn lengths(&self, kind: PartitionKind) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        let prefix = format!("{}_", kind.tag());
        for entry in std::fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix(&prefix) {
                if let Some(num) = rest.strip_suffix(".kv") {
                    if let Ok(len) = num.parse::<u32>() {
                        out.push(len);
                    }
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

/// Map a fingerprint to its range index out of `ranges` equal slices of
/// the key space (by the top 32 bits, so ranges are contiguous in sort
/// order — concatenating ranges 0..n reproduces the global order).
pub fn range_of(key: u128, ranges: u32) -> u32 {
    if ranges <= 1 {
        return 0;
    }
    let top = (key >> 96) as u64; // top 32 bits as u64 for the multiply
    ((top * ranges as u64) >> 32) as u32
}

/// Open writers for every partition in `[l_min, l_max)` of both kinds —
/// the sink of the map phase. Tuples outside the range are rejected per the
/// paper's discard rules. With `ranges > 1` each length is further split
/// by fingerprint range (the paper's future-work partitioning).
pub struct PartitionSet {
    l_min: u32,
    l_max: u32,
    ranges: u32,
    /// The spill directory, fsynced once when the set is finished.
    root: PathBuf,
    suffix: Vec<RecordWriter>,
    prefix: Vec<RecordWriter>,
}

impl PartitionSet {
    /// Create all `2 * (l_max - l_min)` partition files.
    pub fn create(spill: &SpillDir, l_min: u32, l_max: u32) -> Result<Self> {
        Self::create_split(spill, l_min, l_max, 1)
    }

    /// Create `2 * (l_max - l_min) * ranges` partition files split by
    /// fingerprint range.
    pub fn create_split(spill: &SpillDir, l_min: u32, l_max: u32, ranges: u32) -> Result<Self> {
        if l_min == 0 || l_min >= l_max {
            return Err(StreamError::BadConfig(format!(
                "partition range [{l_min}, {l_max}) is empty or starts at zero"
            )));
        }
        if ranges == 0 {
            return Err(StreamError::BadConfig("need at least one range".into()));
        }
        let slots = ((l_max - l_min) * ranges) as usize;
        let mut suffix = Vec::with_capacity(slots);
        let mut prefix = Vec::with_capacity(slots);
        for len in l_min..l_max {
            for r in 0..ranges {
                let [sfx, pfx] = Partition::pair(len, r, ranges).map(|part| spill.path_range(part));
                suffix.push(RecordWriter::create(&sfx, spill.io().clone())?);
                prefix.push(RecordWriter::create(&pfx, spill.io().clone())?);
            }
        }
        Ok(PartitionSet {
            l_min,
            l_max,
            ranges,
            root: spill.root().to_path_buf(),
            suffix,
            prefix,
        })
    }

    /// Append one batch of fingerprint tuples, length-major: `suffix` and
    /// `prefix` each hold one row of `cols` tuples per overlap length,
    /// starting at `first_len`, and every row goes to the end of its
    /// partition in the order given. Rows of lengths outside
    /// `[l_min, l_max)` are silently discarded — the paper drops sub-l_min
    /// partitions and the full-length (self-loop) partition. The
    /// fingerprint range of a tuple is derived from its key.
    ///
    /// The lengths are shared out over the machine's cores, each encoding,
    /// checksumming and writing its own partitions.
    pub fn write_rows(
        &mut self,
        first_len: u32,
        cols: usize,
        suffix: &[KvPair],
        prefix: &[KvPair],
    ) -> Result<()> {
        if cols == 0 || suffix.len() != prefix.len() || !suffix.len().is_multiple_of(cols) {
            return Err(StreamError::BadConfig(format!(
                "{} suffix and {} prefix tuples are not the same number of {cols}-tuple rows",
                suffix.len(),
                prefix.len()
            )));
        }
        // Clip the rows offered to the lengths kept.
        let rows = u32::try_from(suffix.len() / cols).unwrap_or(u32::MAX);
        let kept = first_len.max(self.l_min)..first_len.saturating_add(rows).min(self.l_max);
        if kept.is_empty() {
            return Ok(());
        }
        let ranges = self.ranges as usize;
        let skipped = (kept.start - first_len) as usize * cols;
        let suffix = &suffix[skipped..][..kept.len() * cols];
        let prefix = &prefix[skipped..][..kept.len() * cols];
        let first_writer = (kept.start - self.l_min) as usize * ranges;
        let suffix_writers = &mut self.suffix[first_writer..][..kept.len() * ranges];
        let prefix_writers = &mut self.prefix[first_writer..][..kept.len() * ranges];

        // A part is a run of lengths, both kinds of each, so that there are
        // as many parts as threads and all the same size.
        let lens = part_len(2 * suffix.len(), ELEMENT_GRAIN).div_ceil(2 * cols);
        let of_suffix = (suffix_writers.chunks_mut(lens * ranges)).zip(suffix.chunks(lens * cols));
        let of_prefix = (prefix_writers.chunks_mut(lens * ranges)).zip(prefix.chunks(lens * cols));
        par_parts(of_suffix.zip(of_prefix), |(of_suffix, of_prefix)| {
            for (writers, rows) in [of_suffix, of_prefix] {
                for (of_len, row) in writers.chunks_mut(ranges).zip(rows.chunks(cols)) {
                    append_row(of_len, row)?;
                }
            }
            Ok(())
        })
        .into_iter()
        .collect()
    }

    /// Like [`PartitionSet::finish`], but also emits per-length spill
    /// counters (`spill.tuples.sfx_<len>` / `spill.tuples.pfx_<len>`) plus
    /// the total `spill.bytes` on `span`.
    pub fn finish_traced(
        self,
        rec: &obs::Recorder,
        span: u64,
    ) -> Result<BTreeMap<u32, (u64, u64)>> {
        let counts = self.finish()?;
        if rec.is_enabled() {
            let mut tuples = 0u64;
            for (&len, &(sfx, pfx)) in &counts {
                for (part, n) in Partition::pair(len, 0, 1).iter().zip([sfx, pfx]) {
                    rec.counter_on(span, &format!("spill.tuples.{}", part.name()), n);
                }
                tuples += sfx + pfx;
            }
            rec.counter_on(span, "spill.bytes", tuples * KvPair::BYTES as u64);
        }
        Ok(counts)
    }

    /// Commit all partitions; returns per-length record counts
    /// (suffix count, prefix count) summed over ranges. Every file is
    /// `sync_all`ed and renamed on its own; the directory that holds the
    /// new names is fsynced once, after the last rename and before the
    /// counts are returned.
    pub fn finish(self) -> Result<BTreeMap<u32, (u64, u64)>> {
        let mut counts: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (i, (s, p)) in self.suffix.into_iter().zip(self.prefix).enumerate() {
            let len = self.l_min + i as u32 / self.ranges;
            let entry = counts.entry(len).or_insert((0, 0));
            entry.0 += s.finish_file()?;
            entry.1 += p.finish_file()?;
        }
        fsync_dir(&self.root)?;
        Ok(counts)
    }
}

/// Append `row` to the partitions of one length and kind, `writers[r]`
/// taking fingerprint range `r`: one `write_all` per run of tuples that
/// share a range, so a single-range partition takes the row whole.
fn append_row(writers: &mut [RecordWriter], row: &[KvPair]) -> Result<()> {
    let ranges = writers.len() as u32;
    for run in row.chunk_by(|a, b| range_of(a.key, ranges) == range_of(b.key, ranges)) {
        writers[range_of(run[0].key, ranges) as usize].write_all(run)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spill() -> (stdx::TempDir, SpillDir) {
        let dir = stdx::tempdir().unwrap();
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        (dir, spill)
    }

    #[test]
    fn partition_paths_are_distinct_per_kind_and_len() {
        let (_g, s) = spill();
        let a = s.path(PartitionKind::Suffix, 63);
        let b = s.path(PartitionKind::Prefix, 63);
        let c = s.path(PartitionKind::Suffix, 64);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    /// `rows` rows of `cols` tuples starting at `first_len`; tuple `c` of
    /// the row for length `len` has key `base + 10 · len + c` and value `c`.
    fn rows(first_len: u32, rows: u32, cols: u32, base: u128) -> Vec<KvPair> {
        (first_len..first_len + rows)
            .flat_map(|len| {
                (0..cols).map(move |c| KvPair::new(base + 10 * len as u128 + c as u128, c))
            })
            .collect()
    }

    #[test]
    fn partition_set_routes_by_length_and_kind() {
        let (_g, s) = spill();
        let mut set = PartitionSet::create(&s, 3, 6).unwrap();
        // Lengths 2..=6 are offered; 2 and 6 fall outside [3, 6) and are
        // dropped, matching the paper's rules.
        set.write_rows(2, 2, &rows(2, 5, 2, 100), &rows(2, 5, 2, 200))
            .unwrap();
        // A second batch lands behind the first in every partition.
        set.write_rows(4, 1, &rows(4, 1, 1, 300), &rows(4, 1, 1, 400))
            .unwrap();
        // Nothing of a batch wholly outside the range is kept.
        set.write_rows(6, 1, &rows(6, 2, 1, 500), &rows(6, 2, 1, 600))
            .unwrap();
        set.write_rows(1, 1, &rows(1, 2, 1, 500), &rows(1, 2, 1, 600))
            .unwrap();
        let counts = set.finish().unwrap();
        assert_eq!(counts[&3], (2, 2));
        assert_eq!(counts[&4], (3, 3));
        assert_eq!(counts[&5], (2, 2));
        assert_eq!(counts.len(), 3);

        let read = |kind, len| s.reader(kind, len).unwrap().read_all().unwrap();
        assert_eq!(
            read(PartitionKind::Suffix, 4),
            vec![
                KvPair::new(140, 0),
                KvPair::new(141, 1),
                KvPair::new(340, 0)
            ]
        );
        assert_eq!(
            read(PartitionKind::Prefix, 5),
            vec![KvPair::new(250, 0), KvPair::new(251, 1)]
        );
        assert_eq!(s.lengths(PartitionKind::Suffix).unwrap(), vec![3, 4, 5]);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let (_g, s) = spill();
        let mut set = PartitionSet::create(&s, 3, 6).unwrap();
        let five = rows(3, 5, 1, 0);
        for (cols, sfx, pfx) in [
            (2, &five[..], &five[..]),
            (1, &five[..], &five[..4]),
            (0, &[][..], &[][..]),
        ] {
            let err = set.write_rows(3, cols, sfx, pfx).unwrap_err();
            assert!(matches!(err, StreamError::BadConfig(_)), "got {err}");
        }
    }

    #[test]
    fn rows_written_in_parallel_parts_keep_their_order() {
        // Enough tuples that the lengths are shared out over the helpers.
        let (_g, s) = spill();
        let (l_min, l_max, cols) = (10u32, 30u32, 1000u32);
        let mut set = PartitionSet::create_split(&s, l_min, l_max, 3).unwrap();
        let spread = |pairs: Vec<KvPair>| -> Vec<KvPair> {
            // Keys across the whole space so every range gets its share.
            pairs
                .into_iter()
                .map(|p| KvPair::new(p.key.wrapping_mul(0x9E37_79B9_7F4A_7C15 << 64 | 1), p.val))
                .collect()
        };
        let sfx = spread(rows(l_min, l_max - l_min, cols, 7));
        let pfx = spread(rows(l_min, l_max - l_min, cols, 11));
        set.write_rows(l_min, cols as usize, &sfx, &pfx).unwrap();
        set.finish().unwrap();
        for (kind, all) in [(PartitionKind::Suffix, &sfx), (PartitionKind::Prefix, &pfx)] {
            for (len, row) in (l_min..l_max).zip(all.chunks(cols as usize)) {
                for r in 0..3 {
                    let part = Partition {
                        kind,
                        len,
                        range: r,
                        ranges: 3,
                    };
                    let got = s.reader_range(part).unwrap().read_all().unwrap();
                    let expect: Vec<KvPair> = row
                        .iter()
                        .copied()
                        .filter(|p| range_of(p.key, 3) == r)
                        .collect();
                    assert!(!expect.is_empty());
                    assert_eq!(got, expect, "{kind:?} {len} range {r}");
                }
            }
        }
    }

    #[test]
    fn finish_traced_emits_per_length_spill_counters() {
        let (_g, s) = spill();
        let rec = obs::Recorder::new();
        let span = rec.span("map");
        let mut set = PartitionSet::create(&s, 3, 5).unwrap();
        set.write_rows(3, 2, &rows(3, 2, 2, 30), &rows(3, 2, 2, 40))
            .unwrap();
        set.write_rows(4, 1, &rows(4, 1, 1, 50), &rows(4, 1, 1, 60))
            .unwrap();
        let counts = set.finish_traced(&rec, span.id()).unwrap();
        drop(span);
        assert_eq!(counts[&3], (2, 2));
        let rollup = obs::Rollup::from_events(&rec.events());
        let node = rollup.root_named("map").unwrap();
        let agg = rollup.subtree(node.id);
        assert_eq!(agg.counter("spill.tuples.sfx_00003"), 2);
        assert_eq!(agg.counter("spill.tuples.pfx_00004"), 3);
        assert_eq!(agg.counter("spill.bytes"), 10 * KvPair::BYTES as u64);
    }

    #[test]
    fn lengths_lists_existing_partitions_sorted() {
        let (_g, s) = spill();
        for len in [9u32, 3, 7] {
            s.writer(PartitionKind::Suffix, len)
                .unwrap()
                .finish()
                .unwrap();
        }
        s.writer(PartitionKind::Prefix, 4)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(s.lengths(PartitionKind::Suffix).unwrap(), vec![3, 7, 9]);
        assert_eq!(s.lengths(PartitionKind::Prefix).unwrap(), vec![4]);
    }

    #[test]
    fn bad_partition_ranges_are_rejected() {
        let (_g, s) = spill();
        assert!(PartitionSet::create(&s, 5, 5).is_err());
        assert!(PartitionSet::create(&s, 0, 3).is_err());
        assert!(PartitionSet::create_split(&s, 3, 5, 0).is_err());
    }

    #[test]
    fn range_of_slices_the_key_space_contiguously() {
        assert_eq!(range_of(0, 4), 0);
        assert_eq!(range_of(u128::MAX, 4), 3);
        assert_eq!(range_of(1u128 << 126, 4), 1);
        assert_eq!(range_of(3u128 << 126, 4), 3);
        // Single range: everything is range 0.
        assert_eq!(range_of(u128::MAX, 1), 0);
        // Monotone in the key.
        let keys = [0u128, 1 << 100, 1 << 120, u128::MAX / 2, u128::MAX];
        let rs: Vec<u32> = keys.iter().map(|&k| range_of(k, 7)).collect();
        assert!(rs.windows(2).all(|w| w[0] <= w[1]), "{rs:?}");
    }

    #[test]
    fn split_partitions_route_by_key_range() {
        let (_g, s) = spill();
        let mut set = PartitionSet::create_split(&s, 4, 6, 2).unwrap();
        let low = [KvPair::new(1, 10), KvPair::new(2, 30)];
        let high = [
            KvPair::new(u128::MAX - 1, 20),
            KvPair::new(u128::MAX - 2, 40),
        ];
        // One row whose tuples alternate between the two ranges.
        let row = [low[0], high[0], low[1], high[1]];
        set.write_rows(4, 4, &row, &[KvPair::new(5, 0); 4]).unwrap();
        let counts = set.finish().unwrap();
        assert_eq!(counts[&4], (4, 4));
        assert_eq!(counts[&5], (0, 0));
        let [r0, r1] = [0, 1].map(|range| {
            let [sfx, _] = Partition::pair(4, range, 2);
            s.reader_range(sfx).unwrap().read_all().unwrap()
        });
        assert_eq!(r0, low);
        assert_eq!(r1, high);
    }

    #[test]
    fn create_refuses_nonempty_dirs_without_a_manifest() {
        let dir = stdx::tempdir().unwrap();
        std::fs::write(dir.path().join("sfx_00041.kv"), b"stale").unwrap();
        let err = SpillDir::create(dir.path(), IoStats::default()).unwrap_err();
        assert!(matches!(err, StreamError::BadConfig(_)), "got {err}");
        // A manifest marks it as a resumable workdir: accepted.
        std::fs::write(dir.path().join(MANIFEST_NAME), b"{}").unwrap();
        assert!(SpillDir::create(dir.path(), IoStats::default()).is_ok());
    }

    #[test]
    fn open_attaches_to_any_directory() {
        let dir = stdx::tempdir().unwrap();
        std::fs::write(dir.path().join("sfx_00041.kv"), b"whatever").unwrap();
        assert!(SpillDir::open(dir.path(), IoStats::default()).is_ok());
    }

    #[test]
    fn clear_removes_spill_artifacts_but_not_other_files() {
        let (_g, s) = spill();
        s.writer(PartitionKind::Suffix, 5)
            .unwrap()
            .finish()
            .unwrap();
        std::fs::write(s.root().join("scratch_run0.kv.tmp"), b"torn").unwrap();
        std::fs::write(s.root().join(MANIFEST_NAME), b"{}").unwrap();
        s.clear().unwrap();
        assert!(s.lengths(PartitionKind::Suffix).unwrap().is_empty());
        assert!(!s.root().join("scratch_run0.kv.tmp").exists());
        assert!(s.root().join(MANIFEST_NAME).exists());
    }

    #[test]
    fn single_range_split_aliases_plain_paths() {
        let (_g, s) = spill();
        let [_, pfx] = Partition::pair(9, 0, 1);
        assert_eq!(s.path_range(pfx), s.path(PartitionKind::Prefix, 9));
        assert_eq!(pfx.name(), "pfx_00009");
        let [sfx, _] = Partition::pair(45, 1, 2);
        assert_eq!(s.path_range(sfx), s.root().join("sfx_00045_r001.kv"));
    }
}
