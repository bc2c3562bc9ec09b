//! Uniform-length short-read containers and the vertex-id convention.
//!
//! The string graph's vertex set is "R as vertices", where R contains the
//! reads *and their WC complements* (Section II-A2). We give read `i` the
//! forward vertex `2i` and the reverse-complement vertex `2i + 1`, so the
//! complement of any vertex is `v ^ 1` — the identity the greedy reduce
//! phase relies on when it checks `out(v')` before adding an edge.

use crate::base::Base;
use crate::seq::PackedSeq;
use crate::GenomeError;

/// Identifier of a string-graph vertex (`2 * read + strand`).
pub type VertexId = u32;

/// Forward/reverse-complement orientation of a vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strand {
    /// The read as sequenced.
    Forward,
    /// Its Watson-Crick reverse complement.
    Reverse,
}

/// A set of equal-length short reads, 2-bit packed back to back.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReadSet {
    bases: PackedSeq,
    read_len: usize,
}

impl ReadSet {
    /// An empty set of reads of length `read_len`.
    pub fn new(read_len: usize) -> Self {
        assert!(read_len > 0, "read length must be positive");
        ReadSet {
            bases: PackedSeq::new(),
            read_len,
        }
    }

    /// The uniform read length (the paper's l_max).
    pub fn read_len(&self) -> usize {
        self.read_len
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.bases.len().checked_div(self.read_len).unwrap_or(0)
    }

    /// `true` if the set holds no reads.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Total number of bases.
    pub fn total_bases(&self) -> u64 {
        self.bases.len() as u64
    }

    /// Approximate in-memory footprint in bytes (2 bits per base).
    pub fn packed_bytes(&self) -> usize {
        self.bases.packed_bytes()
    }

    /// Append a read.
    ///
    /// Returns [`GenomeError::LengthMismatch`] if its length differs from
    /// the set's uniform length.
    pub fn push(&mut self, read: &PackedSeq) -> crate::Result<()> {
        if read.len() != self.read_len {
            return Err(GenomeError::LengthMismatch {
                expected: self.read_len,
                got: read.len(),
            });
        }
        for b in read.iter() {
            self.bases.push(b);
        }
        Ok(())
    }

    /// The `i`-th read (forward orientation).
    pub fn read(&self, i: usize) -> PackedSeq {
        assert!(
            i < self.len(),
            "read {i} out of range ({} reads)",
            self.len()
        );
        self.bases.slice(i * self.read_len, self.read_len)
    }

    /// Number of string-graph vertices (`2 × reads`).
    pub fn vertex_count(&self) -> u32 {
        (self.len() * 2) as u32
    }

    /// The read index a vertex belongs to.
    pub fn vertex_read(v: VertexId) -> usize {
        (v / 2) as usize
    }

    /// The orientation of a vertex.
    pub fn vertex_strand(v: VertexId) -> Strand {
        if v & 1 == 0 {
            Strand::Forward
        } else {
            Strand::Reverse
        }
    }

    /// The WC-complement vertex (`v ^ 1`).
    pub fn complement_vertex(v: VertexId) -> VertexId {
        v ^ 1
    }

    /// The sequence a vertex spells.
    pub fn vertex_seq(&self, v: VertexId) -> PackedSeq {
        let read = self.read(Self::vertex_read(v));
        match Self::vertex_strand(v) {
            Strand::Forward => read,
            Strand::Reverse => read.reverse_complement(),
        }
    }

    /// 2-bit codes of the `i`-th read, replacing what `out` held (its
    /// capacity is kept: an allocation-free inner loop for the map phase).
    pub fn read_codes_into(&self, i: usize, out: &mut Vec<u8>) {
        let start = i * self.read_len;
        out.clear();
        out.reserve(self.read_len);
        for j in 0..self.read_len {
            out.push(self.bases.get(start + j).code());
        }
    }

    /// Iterate reads in order.
    pub fn iter(&self) -> impl Iterator<Item = PackedSeq> + '_ {
        (0..self.len()).map(move |i| self.read(i))
    }

    /// Build from any iterator of equal-length reads.
    pub fn from_reads<I>(read_len: usize, reads: I) -> crate::Result<Self>
    where
        I: IntoIterator<Item = PackedSeq>,
    {
        let mut set = ReadSet::new(read_len);
        for r in reads {
            set.push(&r)?;
        }
        Ok(set)
    }

    /// First base of the `i`-th read (cheap accessor used in tests).
    pub fn first_base(&self, i: usize) -> Base {
        self.bases.get(i * self.read_len)
    }

    /// Serialize to the 2-bit packed staging format used by the
    /// pipeline's load phase: the reads back to back in
    /// [`PackedSeq::extend_le_bytes`]'s image.
    pub fn to_packed_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bases.len().div_ceil(4));
        self.bases.extend_le_bytes(&mut out);
        out
    }

    /// Reconstruct `reads` reads of `read_len` bases from the staging
    /// format. Both counts come from a sidecar file: a zero read length,
    /// a product that overflows, or one the bytes do not match is
    /// [`GenomeError::Corrupt`] naming `reads.packed`.
    pub fn from_packed_bytes(read_len: usize, reads: usize, bytes: &[u8]) -> crate::Result<Self> {
        let mut c = stdx::bytes::Cursor::new(bytes, "reads.packed");
        let Some(total) = read_len.checked_mul(reads).filter(|_| read_len > 0) else {
            let detail = format!("{reads} reads of length {read_len} is no read set");
            return Err(c.corrupt("read count", detail).into());
        };
        let packed = c.take(total.div_ceil(4), "packed bases")?;
        c.finish()?;
        Ok(ReadSet {
            bases: PackedSeq::from_le_bytes(packed, total),
            read_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(strs: &[&str]) -> ReadSet {
        let len = strs[0].len();
        ReadSet::from_reads(len, strs.iter().map(|s| s.parse().unwrap())).unwrap()
    }

    #[test]
    fn push_and_read_back() {
        let set = set_of(&["ACGT", "TTTT", "GGCC"]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.read(0).to_string(), "ACGT");
        assert_eq!(set.read(2).to_string(), "GGCC");
        assert_eq!(set.total_bases(), 12);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut set = ReadSet::new(4);
        let short: PackedSeq = "ACG".parse().unwrap();
        assert!(matches!(
            set.push(&short),
            Err(GenomeError::LengthMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn vertex_conventions() {
        let set = set_of(&["ACGT", "TTTT"]);
        assert_eq!(set.vertex_count(), 4);
        assert_eq!(ReadSet::vertex_read(5), 2);
        assert_eq!(ReadSet::complement_vertex(4), 5);
        assert_eq!(ReadSet::complement_vertex(5), 4);
        assert!(matches!(ReadSet::vertex_strand(0), Strand::Forward));
        assert!(matches!(ReadSet::vertex_strand(1), Strand::Reverse));
    }

    #[test]
    fn vertex_seq_gives_forward_and_revcomp() {
        let set = set_of(&["GATT"]);
        assert_eq!(set.vertex_seq(0).to_string(), "GATT");
        assert_eq!(set.vertex_seq(1).to_string(), "AATC");
    }

    #[test]
    fn read_codes_into_reuses_buffer() {
        let set = set_of(&["ACGT", "TGCA"]);
        let mut buf = Vec::new();
        set.read_codes_into(0, &mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3]);
        set.read_codes_into(1, &mut buf);
        assert_eq!(buf, vec![3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_out_of_range_panics() {
        set_of(&["ACGT"]).read(1);
    }

    #[test]
    #[should_panic(expected = "read length must be positive")]
    fn zero_read_len_rejected() {
        ReadSet::new(0);
    }

    #[test]
    fn packed_bytes_roundtrip() {
        let set = set_of(&["ACGTA", "TTGCA", "GGGGG"]);
        let bytes = set.to_packed_bytes();
        assert_eq!(bytes.len(), 4); // 15 bases -> 4 bytes
        let back = ReadSet::from_packed_bytes(5, 3, &bytes).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn packed_bytes_rejects_wrong_size() {
        assert!(ReadSet::from_packed_bytes(5, 3, &[0u8; 3]).is_err());
        assert!(ReadSet::from_packed_bytes(5, 3, &[0u8; 5]).is_err());
    }

    #[test]
    fn staging_counts_that_overflow_or_are_zero_are_corrupt() {
        for (read_len, reads) in [(usize::MAX / 2, 3), (3, usize::MAX), (0, 5)] {
            match ReadSet::from_packed_bytes(read_len, reads, &[0u8; 4]) {
                Err(GenomeError::Corrupt(e)) => {
                    assert_eq!((e.source.as_str(), e.label), ("reads.packed", "read count"))
                }
                other => panic!("{read_len} x {reads}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_set_packs_to_nothing() {
        let set = ReadSet::new(7);
        assert!(set.to_packed_bytes().is_empty());
        let back = ReadSet::from_packed_bytes(7, 0, &[]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.read_len(), 7);
    }
}
