//! Fixed-width binary records and the durable spill-file footer.
//!
//! The sort and reduce phases operate on pairs of a 128-bit fingerprint key
//! (two 64-bit Rabin-Karp hashes, Section IV-B) and a 32-bit vertex id. The
//! on-disk layout is 20 bytes little-endian, no framing — sequential streams
//! of a known record count, which is what lets every phase run with purely
//! sequential I/O.
//!
//! Every spill file ends in a fixed [`Footer`] (magic, record count, FNV-1a
//! checksum of the record bytes) so that truncation, stale files, and
//! bit-flips all fail loudly as `StreamError::Corrupt` instead of silently
//! mis-assembling. See ROBUSTNESS.md for the format.

/// A `(fingerprint, vertex-id)` pair. The paper's "key-value pair": the key
/// is the 128-bit fingerprint of an l-length suffix or prefix, the value the
/// id of the read (vertex) it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KvPair {
    /// 128-bit fingerprint.
    pub key: u128,
    /// Vertex id (`2 * read_id + strand`).
    pub val: u32,
}

impl KvPair {
    /// Encoded size in bytes.
    pub const BYTES: usize = 20;

    /// Construct a pair.
    pub fn new(key: u128, val: u32) -> Self {
        KvPair { key, val }
    }

    /// Serialize into a 20-byte little-endian frame.
    pub fn encode(&self, out: &mut [u8]) {
        out[..16].copy_from_slice(&self.key.to_le_bytes());
        out[16..20].copy_from_slice(&self.val.to_le_bytes());
    }

    /// Deserialize from a 20-byte little-endian frame.
    pub fn decode(buf: &[u8]) -> Self {
        let key = u128::from_le_bytes(buf[..16].try_into().expect("16-byte key"));
        let val = u32::from_le_bytes(buf[16..20].try_into().expect("4-byte value"));
        KvPair { key, val }
    }
}

/// Incremental 64-bit FNV-1a hash — the spill-file checksum. Small, fast,
/// dependency-free; with 64 bits an undetected random corruption needs
/// ~2^64 flips, far past anything a 398 GB spill set will see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The digest over everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a 64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Fixed trailer of every spill/run file: written by `RecordWriter::finish`
/// at the commit point, verified by `RecordReader` on open (size/magic) and
/// on drain (checksum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Number of [`KvPair`] records preceding the footer.
    pub records: u64,
    /// FNV-1a 64 over the encoded record bytes.
    pub checksum: u64,
}

impl Footer {
    /// `b"KVSPILL1"` little-endian — rejects footer-less and foreign files.
    pub const MAGIC: u64 = u64::from_le_bytes(*b"KVSPILL1");
    /// Encoded size in bytes.
    pub const BYTES: usize = 24;

    /// Serialize as `magic ‖ records ‖ checksum`, all little-endian u64.
    pub fn encode(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[..8].copy_from_slice(&Self::MAGIC.to_le_bytes());
        out[8..16].copy_from_slice(&self.records.to_le_bytes());
        out[16..24].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Deserialize; `None` if the magic does not match.
    pub fn decode(buf: &[u8; Self::BYTES]) -> Option<Footer> {
        let magic = u64::from_le_bytes(buf[..8].try_into().expect("8-byte magic"));
        if magic != Self::MAGIC {
            return None;
        }
        Some(Footer {
            records: u64::from_le_bytes(buf[8..16].try_into().expect("8-byte count")),
            checksum: u64::from_le_bytes(buf[16..24].try_into().expect("8-byte checksum")),
        })
    }
}

/// Fixed trailer of every durable byte blob (contig stores, minimizer
/// indexes): written by [`crate::writer::write_blob`] at the commit point,
/// verified by [`crate::reader::read_blob`] on open. Identical durability
/// contract to [`Footer`], but framing arbitrary bytes instead of
/// fixed-width records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobFooter {
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a 64 over the payload bytes.
    pub checksum: u64,
}

impl BlobFooter {
    /// `b"LASBLOB1"` little-endian — rejects footer-less and foreign files.
    pub const MAGIC: u64 = u64::from_le_bytes(*b"LASBLOB1");
    /// Encoded size in bytes.
    pub const BYTES: usize = 24;

    /// Serialize as `magic ‖ len ‖ checksum`, all little-endian u64.
    pub fn encode(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[..8].copy_from_slice(&Self::MAGIC.to_le_bytes());
        out[8..16].copy_from_slice(&self.len.to_le_bytes());
        out[16..24].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Deserialize; `None` if the magic does not match.
    pub fn decode(buf: &[u8; Self::BYTES]) -> Option<BlobFooter> {
        let magic = u64::from_le_bytes(buf[..8].try_into().expect("8-byte magic"));
        if magic != Self::MAGIC {
            return None;
        }
        Some(BlobFooter {
            len: u64::from_le_bytes(buf[8..16].try_into().expect("8-byte len")),
            checksum: u64::from_le_bytes(buf[16..24].try_into().expect("8-byte checksum")),
        })
    }
}

/// Split pairs into the structure-of-arrays layout device kernels take.
pub fn split_pairs(pairs: &[KvPair]) -> (Vec<u128>, Vec<u32>) {
    let mut keys = Vec::with_capacity(pairs.len());
    let mut vals = Vec::with_capacity(pairs.len());
    for p in pairs {
        keys.push(p.key);
        vals.push(p.val);
    }
    (keys, vals)
}

/// Zip structure-of-arrays output back into pairs.
pub fn zip_pairs(keys: Vec<u128>, vals: Vec<u32>) -> Vec<KvPair> {
    debug_assert_eq!(keys.len(), vals.len());
    keys.into_iter()
        .zip(vals)
        .map(|(key, val)| KvPair { key, val })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdx::check_cases;

    #[test]
    fn encode_decode_roundtrip_basics() {
        let p = KvPair::new(0x0123_4567_89AB_CDEF_0011_2233_4455_6677, 42);
        let mut buf = [0u8; KvPair::BYTES];
        p.encode(&mut buf);
        assert_eq!(KvPair::decode(&buf), p);
    }

    #[test]
    fn encoding_is_little_endian() {
        let p = KvPair::new(1, 2);
        let mut buf = [0u8; KvPair::BYTES];
        p.encode(&mut buf);
        assert_eq!(buf[0], 1);
        assert_eq!(buf[16], 2);
        assert!(buf[1..16].iter().all(|&b| b == 0));
    }

    #[test]
    fn ordering_is_key_major() {
        let a = KvPair::new(1, 100);
        let b = KvPair::new(2, 0);
        assert!(a < b);
        // Ties broken by value.
        assert!(KvPair::new(1, 0) < KvPair::new(1, 1));
    }

    #[test]
    fn split_and_zip_are_inverses() {
        let pairs = vec![KvPair::new(9, 1), KvPair::new(3, 2)];
        let (k, v) = split_pairs(&pairs);
        assert_eq!(k, vec![9, 3]);
        assert_eq!(v, vec![1, 2]);
        assert_eq!(zip_pairs(k, v), pairs);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_is_incremental() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn footer_roundtrips_and_rejects_bad_magic() {
        let f = Footer {
            records: 1234,
            checksum: 0xdead_beef,
        };
        let mut buf = f.encode();
        assert_eq!(Footer::decode(&buf), Some(f));
        buf[3] ^= 1;
        assert_eq!(Footer::decode(&buf), None);
    }

    #[test]
    fn roundtrip_any_pair() {
        check_cases(256, |rng| {
            let p = KvPair::new(rng.next_u128(), rng.next_u64() as u32);
            let mut buf = [0u8; KvPair::BYTES];
            p.encode(&mut buf);
            assert_eq!(KvPair::decode(&buf), p);
        });
    }

    #[test]
    fn any_single_bit_flip_changes_the_checksum() {
        check_cases(256, |rng| {
            let data = rng.vec(1..200, |r| r.next_u64() as u8);
            let mut flipped = data.clone();
            let i = rng.below(flipped.len() as u64) as usize;
            flipped[i] ^= 1 << rng.below(8);
            assert_ne!(fnv1a(&data), fnv1a(&flipped));
        });
    }
}
