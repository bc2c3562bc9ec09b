//! Fixed-width binary records and the durable spill-file footer.
//!
//! The sort and reduce phases operate on pairs of a 128-bit fingerprint key
//! (two 64-bit Rabin-Karp hashes, Section IV-B) and a 32-bit vertex id. The
//! on-disk layout is 20 bytes little-endian, no framing — sequential streams
//! of a known record count, which is what lets every phase run with purely
//! sequential I/O.
//!
//! Every spill file ends in a fixed [`Footer`] (magic, record count, XXH64
//! checksum of the record bytes) so that truncation, stale files, and
//! bit-flips all fail loudly as `StreamError::Corrupt` instead of silently
//! mis-assembling. See ROBUSTNESS.md for the format.

use std::path::Path;
use stdx::bytes::Cursor;

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

/// Incremental 64-bit FNV-1a hash — the checksum of blobs, frames,
/// manifests and the superstep log. Byte-serial (one multiply per byte), so
/// it suits small payloads; spill files, which every disk pass re-reads in
/// full, use [`Xxh64`].
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

/// Incremental XXH64 (seed 0) — the spill-file checksum. Four independent
/// multiply lanes absorb a 32-byte stripe per step, so checksumming a block
/// costs a fraction of a cycle per byte and a disk pass stays a plain
/// sequential scan; with 64 bits an undetected random corruption needs
/// ~2^64 flips, far past anything a 398 GB spill set will see. The digest
/// depends only on the bytes absorbed, not on how `update` calls split them.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// Bytes of the current, incomplete stripe.
    stash: [u8; Self::STRIPE],
    stashed: usize,
    total: u64,
}

impl Xxh64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    /// Bytes absorbed per step: one little-endian u64 per lane.
    pub const STRIPE: usize = 32;

    /// Fresh hasher with seed 0.
    pub fn new() -> Self {
        Xxh64 {
            lanes: [
                Self::P1.wrapping_add(Self::P2),
                Self::P2,
                0,
                Self::P1.wrapping_neg(),
            ],
            stash: [0; Self::STRIPE],
            stashed: 0,
            total: 0,
        }
    }

    fn round(acc: u64, input: u64) -> u64 {
        acc.wrapping_add(input.wrapping_mul(Self::P2))
            .rotate_left(31)
            .wrapping_mul(Self::P1)
    }

    fn merge_round(acc: u64, lane: u64) -> u64 {
        (acc ^ Self::round(0, lane))
            .wrapping_mul(Self::P1)
            .wrapping_add(Self::P4)
    }

    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
    }

    fn absorb(lanes: &mut [u64; 4], stripe: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = Self::round(*lane, Self::word(word));
        }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.stashed > 0 {
            let take = bytes.len().min(Self::STRIPE - self.stashed);
            self.stash[self.stashed..self.stashed + take].copy_from_slice(&bytes[..take]);
            self.stashed += take;
            bytes = &bytes[take..];
            if self.stashed < Self::STRIPE {
                return;
            }
            Self::absorb(&mut self.lanes, &self.stash);
            self.stashed = 0;
        }
        // Lanes live in locals across the loop so they stay in registers.
        let mut lanes = self.lanes;
        let mut stripes = bytes.chunks_exact(Self::STRIPE);
        for stripe in &mut stripes {
            Self::absorb(&mut lanes, stripe);
        }
        self.lanes = lanes;
        let tail = stripes.remainder();
        self.stash[..tail.len()].copy_from_slice(tail);
        self.stashed = tail.len();
    }

    /// The digest over everything absorbed so far.
    pub fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total >= Self::STRIPE as u64 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            [v1, v2, v3, v4].into_iter().fold(h, Self::merge_round)
        } else {
            Self::P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.stash[..self.stashed];
        while tail.len() >= 8 {
            h = (h ^ Self::round(0, Self::word(&tail[..8])))
                .rotate_left(27)
                .wrapping_mul(Self::P1)
                .wrapping_add(Self::P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("4-byte word"));
            h = (h ^ u64::from(word).wrapping_mul(Self::P1))
                .rotate_left(23)
                .wrapping_mul(Self::P2)
                .wrapping_add(Self::P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ u64::from(b).wrapping_mul(Self::P5))
                .rotate_left(11)
                .wrapping_mul(Self::P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(Self::P2);
        h ^= h >> 29;
        h = h.wrapping_mul(Self::P3);
        h ^ (h >> 32)
    }
}

impl Default for Xxh64 {
    fn default() -> Self {
        Xxh64::new()
    }
}

/// The 24-byte trailer of every durable file, `magic ‖ records ‖ checksum`
/// as little-endian u64s, written at the commit point and checked on open.
/// The magic names the format: [`Footer::SPILL`] for spill/run files
/// ([`KvPair`] records, [`Xxh64`] checksum), [`Footer::BLOB`] for byte
/// blobs such as contig stores and indexes (one record per payload byte,
/// FNV-1a checksum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Records preceding the trailer.
    pub records: u64,
    /// Checksum of the bytes preceding the trailer.
    pub checksum: u64,
}

impl Footer {
    /// `b"KVSPILL2"` little-endian — rejects footer-less and foreign files,
    /// `KVSPILL1` (FNV-1a checksummed) ones among them.
    pub const SPILL: u64 = u64::from_le_bytes(*b"KVSPILL2");
    /// `b"LASBLOB1"` little-endian.
    pub const BLOB: u64 = u64::from_le_bytes(*b"LASBLOB1");
    /// Encoded size in bytes.
    pub const BYTES: usize = 24;

    /// Serialize behind `magic`.
    pub fn encode(&self, magic: u64) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        out[..8].copy_from_slice(&magic.to_le_bytes());
        out[8..16].copy_from_slice(&self.records.to_le_bytes());
        out[16..24].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decode the trailer of the file at `path` from its last bytes,
    /// `tail` (the whole file when it is shorter than a trailer). A file
    /// too short to hold one, or a magic other than `magic`, is corrupt.
    pub fn decode(tail: &[u8], magic: u64, path: &Path) -> crate::Result<Footer> {
        let source = path.to_string_lossy();
        let mut c = Cursor::new(tail, &source);
        if tail.len() < Self::BYTES {
            let detail = format!("a {}-byte file cannot hold one", tail.len());
            return Err(c.corrupt("trailer", detail).into());
        }
        let found = c.u64("trailer magic")?;
        if found != magic {
            let (want, got) = (magic.to_le_bytes(), found.to_le_bytes());
            let detail = format!(
                "{:?} is not {:?} (truncated, torn or foreign file)",
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&want)
            );
            return Err(c.corrupt("trailer magic", detail).into());
        }
        let footer = Footer {
            records: c.u64("trailer count")?,
            checksum: c.u64("trailer checksum")?,
        };
        c.finish()?;
        Ok(footer)
    }
}

/// A run of pairs in the layout the device kernels take: the keys in one
/// column, the values in the other, equally long. What the sort and the
/// merges hold between a reader's block decode and a writer's block encode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Columns {
    /// The fingerprints.
    pub keys: Vec<u128>,
    /// The vertex ids, `vals[i]` beside `keys[i]`.
    pub vals: Vec<u32>,
}

impl Columns {
    /// Empty columns with room for `pairs` pairs.
    pub fn with_capacity(pairs: usize) -> Self {
        Columns {
            keys: Vec::with_capacity(pairs),
            vals: Vec::with_capacity(pairs),
        }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The pairs from `start` on, borrowed.
    pub fn pairs_from(&self, start: usize) -> Pairs<'_> {
        Pairs {
            keys: &self.keys[start..],
            vals: &self.vals[start..],
        }
    }

    /// Append `pairs`.
    pub fn extend(&mut self, pairs: Pairs<'_>) {
        self.keys.extend_from_slice(pairs.keys);
        self.vals.extend_from_slice(pairs.vals);
    }
}

/// A borrowed range of [`Columns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pairs<'a> {
    /// The fingerprints.
    pub keys: &'a [u128],
    /// The vertex ids.
    pub vals: &'a [u32],
}

impl<'a> Pairs<'a> {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The first `n` pairs.
    pub fn first(self, n: usize) -> Pairs<'a> {
        Pairs {
            keys: &self.keys[..n],
            vals: &self.vals[..n],
        }
    }
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
        let path = Path::new("f.kv");
        let mut buf = f.encode(Footer::SPILL);
        assert_eq!(Footer::decode(&buf, Footer::SPILL, path).unwrap(), f);
        assert!(Footer::decode(&buf, Footer::BLOB, path).is_err());
        assert!(Footer::decode(&buf[1..], Footer::SPILL, path).is_err());
        buf[3] ^= 1;
        assert!(Footer::decode(&buf, Footer::SPILL, path).is_err());
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
            assert_ne!(xxh64(&data), xxh64(&flipped));
        });
    }

    fn xxh64(bytes: &[u8]) -> u64 {
        let mut h = Xxh64::new();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published XXH64 seed-0 vectors: no lanes and 1-byte tails, then
        // the four-lane path with a 4 + 1 + 1 + 1 and an 8 + 1 + 1 + 1 tail.
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
    }

    #[test]
    fn xxh64_digest_is_independent_of_chunking() {
        check_cases(256, |rng| {
            // Up to a few stripes and records, so cuts land inside both.
            let data = rng.vec(0..(4 * Xxh64::STRIPE + 3 * KvPair::BYTES), |r| {
                r.next_u64() as u8
            });
            let mut h = Xxh64::new();
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                let (head, tail) = rest.split_at(rng.range(0..rest.len() as u64 + 1) as usize);
                h.update(head);
                rest = tail;
            }
            assert_eq!(h.finish(), xxh64(&data));
        });
    }
}
