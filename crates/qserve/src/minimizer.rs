//! (w,k)-window minimizers and the postings index built from them.
//!
//! A *minimizer* is the k-mer with the smallest hash in each window of `w`
//! consecutive k-mers; any two sequences sharing a stretch of at least
//! `w + k - 1` identical bases are guaranteed to share a minimizer, so a
//! read drawn from a stored contig always lands at least one index hit.
//! Hashing (a splitmix64 finalizer over the 2-bit k-mer code) decorrelates
//! the sampled positions from sequence content; picking the **leftmost**
//! minimum on ties keeps extraction fully deterministic.
//!
//! Extraction is one rolling pass over the 2-bit codes that keeps the
//! forward and the reverse-complement k-mer codes together, so a read's
//! two strands cost one walk. Each strand's window minimum is tracked in
//! place; when it leaves the window, the `w` slots are rescanned with a
//! select on the carried minimum rather than a branch. One [`Extractor`]
//! keeps its hash and minimizer buffers from one sequence to the next,
//! so a query batch or an index builder thread allocates them once.
//!
//! The index is a flat postings table — `(hash, contig, offset)` sorted
//! lexicographically — with a derived bucket directory over the top
//! ⌊log₂ n⌋ bits of the (uniform) hash. A lookup is three steps: the
//! bucket's entry range from the directory, a scan of that short run for
//! the hash, and the postings slice. The engine takes each step for all
//! of a batch's seeds before the next, so the loads of different seeds
//! overlap.
//!
//! Building splits the contigs into contiguous runs, one per thread. A
//! thread keeps only the minimizers whose hash its shard owns, in a part
//! sized from the expected count, and sorts that part. The sorted parts
//! are merged straight into the index's two columns, each allocated at the
//! exact total, and a part is freed once consumed: no list of every shard's
//! entries ever exists, and the build peaks at about the parts plus the
//! columns. Entries are unique `(hash, contig, offset)` triples, so the
//! merge is their one sorted order and the bytes do not depend on the
//! thread count.

use crate::store::ContigStore;
use genome::PackedSeq;
use gstream::{IoStats, StreamError};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::hint::select_unpredictable;
use std::path::Path;
use stdx::bytes::{put_u32, put_u64, Cursor};
use stdx::splitmix64;

/// Leading payload magic: `LASMIDX1`.
pub const INDEX_MAGIC: u64 = u64::from_le_bytes(*b"LASMIDX1");

/// Largest k-mer length the 2-bit rolling code supports.
pub const MAX_K: usize = 31;

/// Index construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Minimizer k-mer length (1..=31).
    pub k: usize,
    /// Window size in k-mers; a window spans `w + k - 1` bases.
    pub w: usize,
    /// Builder threads; `0` means one per available core.
    pub threads: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            k: 15,
            w: 8,
            threads: 0,
        }
    }
}

/// The (hash, start offset) of every window minimizer of `seq`, in offset
/// order, consecutive duplicates collapsed. Empty when `seq` is shorter
/// than `k`; a sequence shorter than a full window yields its single
/// global minimum.
pub fn minimizers(seq: &PackedSeq, k: usize, w: usize) -> Vec<(u64, u32)> {
    let mut extractor = Extractor::default();
    extractor.extract(seq, k, w, false);
    std::mem::take(&mut extractor.minima[0])
}

/// The one minimizer extraction pass, with buffers kept from one sequence
/// to the next: the k-mer hashes of both strands and the minimizers
/// picked from them. A batch of reads, or one index builder thread's
/// contigs, allocates them once.
#[derive(Default)]
pub(crate) struct Extractor {
    /// k-mer hashes of the forward strand and of the reverse complement.
    hashes: [Vec<u64>; 2],
    /// The window minima picked from each of `hashes`.
    minima: [Vec<(u64, u32)>; 2],
}

impl Extractor {
    /// [`minimizers`] of `seq` and, when `with_reverse`, of its reverse
    /// complement (in the complement's own offset order; empty otherwise),
    /// from one rolling pass that never builds the complement. The slices
    /// live until the next call.
    pub(crate) fn extract(
        &mut self,
        seq: &PackedSeq,
        k: usize,
        w: usize,
        with_reverse: bool,
    ) -> [&[(u64, u32)]; 2] {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        assert!(w >= 1, "window must hold at least one k-mer");
        let [fwd, rev] = &mut self.hashes;
        fwd.clear();
        rev.clear();
        if seq.len() >= k {
            let n = seq.len() - k + 1; // k-mer count
            let mask = (1u64 << (2 * k)) - 1; // k <= 31, so the shift is < 64
            let top = 2 * (k - 1);
            fwd.resize(n, 0);
            if with_reverse {
                rev.resize(n, 0);
            }
            let (mut f, mut r) = (0u64, 0u64);
            for (i, code) in seq.codes().enumerate() {
                f = ((f << 2) | code as u64) & mask;
                // The complement's k-mer reads right to left: each new base
                // enters at the most significant end, complemented.
                r = (r >> 2) | (((code ^ 3) as u64) << top);
                if i + 1 >= k {
                    let s = i + 1 - k;
                    // The k-mer hash: a cheap invertible mix, uniform
                    // enough that the windowed minimum samples positions
                    // independent of base composition. Stored index files
                    // depend on its exact bits.
                    fwd[s] = splitmix64(f);
                    if with_reverse {
                        // Forward offset s is offset n - 1 - s of the
                        // complement.
                        rev[n - 1 - s] = splitmix64(r);
                    }
                }
            }
        }
        for (hashes, minima) in self.hashes.iter().zip(&mut self.minima) {
            window_minima(hashes, w, minima);
        }
        let [fwd, rev] = &self.minima;
        [fwd, rev]
    }
}

/// Replace `out` with the leftmost minimum of every window of `w`
/// consecutive `hashes` (or of all of them when fewer), consecutive
/// repeats collapsed.
///
/// The minimum is tracked in place; only when it leaves the window is the
/// window rescanned, carrying the running minimum's value and picking the
/// next one with a select rather than a branch on the hashes.
fn window_minima(hashes: &[u64], w: usize, out: &mut Vec<(u64, u32)>) {
    out.clear();
    let Some(&first) = hashes.first() else {
        return;
    };
    let n = hashes.len();
    // Random sequence yields about 2 / (w + 1) minimizers per k-mer.
    out.reserve(2 * n / (w + 1) + 1);
    let first_full = w.min(n); // windows exist from k-mer index first_full-1
    let (mut m, mut min) = (0, first);
    let mut pushed = usize::MAX; // offset of the last minimizer out
    for (i, &hash) in hashes.iter().enumerate() {
        if hash < min {
            (m, min) = (i, hash);
        } else if m + w <= i {
            // The minimum left the window [i + 1 - w, i]: rescan it.
            m = i + 1 - w;
            min = hashes[m];
            for (j, &h) in (m + 1..).zip(&hashes[m + 1..=i]) {
                let less = h < min;
                m = select_unpredictable(less, j, m);
                min = select_unpredictable(less, h, min);
            }
        }
        if i + 1 >= first_full && pushed != m {
            out.push((min, m as u32));
            pushed = m;
        }
    }
}

/// Deterministic shard assignment for one minimizer hash among `n_shards`
/// postings shards. Hashes are already splitmix64-mixed ([`stdx::splitmix64`]), so a
/// plain modulo spreads the postings space uniformly; the assignment is a
/// pure function of the hash, so every node (and the cluster manifest)
/// agrees on it without coordination.
pub fn shard_of_hash(hash: u64, n_shards: u32) -> u32 {
    assert!(n_shards >= 1, "a cluster has at least one shard");
    (hash % n_shards as u64) as u32
}

/// Minimizer hash → `(contig, offset)` postings for one [`ContigStore`].
/// Cloneable so replicated servers can share one shard build.
#[derive(Clone)]
pub struct MinimizerIndex {
    k: u32,
    w: u32,
    store_checksum: u64,
    /// Sorted; parallel to `postings`.
    hashes: Vec<u64>,
    /// `(contig, contig offset)` per entry, sorted within equal hashes.
    postings: Vec<(u32, u32)>,
    /// Derived, never serialized: `dir[b]` is the first entry whose hash
    /// lies in bucket `b` or later, with `n` as the last element.
    dir: Vec<u32>,
    /// `63 - bits` for a directory of `2^bits` buckets.
    dir_shift: u32,
    /// Never serialized: `(shard, n_shards)` of the hash space this index
    /// holds, `(0, 1)` for all of it. A decoded index claims the whole
    /// space; only [`MinimizerIndex::build_shard`] narrows it.
    owned: (u32, u32),
}

impl MinimizerIndex {
    /// The one constructor: derives the bucket directory over the top
    /// ⌊log₂ n⌋ hash bits (at most one bucket per posting) from the
    /// sorted entries.
    fn from_sorted(
        k: u32,
        w: u32,
        store_checksum: u64,
        hashes: Vec<u64>,
        postings: Vec<(u32, u32)>,
    ) -> MinimizerIndex {
        let n = u32::try_from(hashes.len()).expect("postings fit a u32 directory");
        let bits = n.max(1).ilog2();
        let dir_shift = 63 - bits;
        let mut dir = Vec::with_capacity((1usize << bits) + 1);
        for (i, &hash) in (0u32..).zip(&hashes) {
            let bucket = bucket_of(hash, dir_shift);
            while dir.len() <= bucket {
                dir.push(i);
            }
        }
        dir.resize((1usize << bits) + 1, n);
        MinimizerIndex {
            k,
            w,
            store_checksum,
            hashes,
            postings,
            dir,
            dir_shift,
            owned: (0, 1),
        }
    }

    /// Index every contig of `store`: the one shard that owns the whole
    /// hash space. Deterministic for any `threads`.
    pub fn build(store: &ContigStore, cfg: &IndexConfig) -> MinimizerIndex {
        Self::build_shard(store, cfg, 0, 1)
    }

    /// Build the `shard`-of-`n_shards` slice of the postings space: exactly
    /// the entries of [`MinimizerIndex::build`] whose hash satisfies
    /// [`shard_of_hash`]`(hash, n_shards) == shard`. Sharding partitions
    /// the postings space, **not** the contigs — the shard indexes are a
    /// disjoint cover of the full index, and every shard still binds to
    /// the full store's checksum, so any shard can verify any candidate
    /// placement against the whole assembly. Builder threads drop other
    /// shards' minimizers as they extract them.
    pub fn build_shard(
        store: &ContigStore,
        cfg: &IndexConfig,
        shard: u32,
        n_shards: u32,
    ) -> MinimizerIndex {
        assert!(shard < n_shards, "shard {shard} out of range 0..{n_shards}");
        let (hashes, postings) = merge_parts(sorted_parts(store, cfg, shard, n_shards));
        MinimizerIndex {
            owned: (shard, n_shards),
            ..Self::from_sorted(
                cfg.k as u32,
                cfg.w as u32,
                store.checksum(),
                hashes,
                postings,
            )
        }
    }

    /// Serialize to a payload (no footer — [`gstream::write_blob`]'s job).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(40 + self.hashes.len() * 16);
        put_u64(&mut buf, INDEX_MAGIC);
        put_u32(&mut buf, self.k);
        put_u32(&mut buf, self.w);
        put_u64(&mut buf, self.store_checksum);
        put_u64(&mut buf, self.hashes.len() as u64);
        for (&hash, &(contig, offset)) in self.hashes.iter().zip(&self.postings) {
            put_u64(&mut buf, hash);
            put_u32(&mut buf, contig);
            put_u32(&mut buf, offset);
        }
        buf
    }

    /// Durably write the index beside its store.
    pub fn write(&self, path: &Path, io: &IoStats) -> gstream::Result<()> {
        gstream::write_blob(path, &self.encode(), io)
    }

    /// Open and fully validate the index at `path`.
    ///
    /// The `qserve.index.read` failpoint fires here; any corruption
    /// surfaces as [`StreamError::Corrupt`] naming `path`, including
    /// postings out of order (which would silently break the binary
    /// search if admitted).
    pub fn open(path: &Path, io: &IoStats) -> gstream::Result<MinimizerIndex> {
        io.faults()
            .hit(faultsim::QSERVE_INDEX_READ)
            .map_err(StreamError::Fault)?;
        let payload = gstream::read_blob(path, io)?;
        Self::decode(&payload, path)
    }

    /// Decode a validated payload. `path` is only used to name errors.
    pub fn decode(payload: &[u8], path: &Path) -> gstream::Result<MinimizerIndex> {
        let source = path.to_string_lossy();
        let mut cur = Cursor::new(payload, &source);
        let magic = cur.u64("index magic")?;
        if magic != INDEX_MAGIC {
            let detail = format!("{magic:#018x} is not {INDEX_MAGIC:#018x}");
            return Err(cur.corrupt("index magic", detail).into());
        }
        let k = cur.u32("k")?;
        let w = cur.u32("w")?;
        if !(1..=MAX_K as u32).contains(&k) || w == 0 {
            let detail = format!("implausible parameters k={k} w={w}");
            return Err(cur.corrupt("k and w", detail).into());
        }
        let store_checksum = cur.u64("store checksum")?;
        let count = cur.u64("postings count")?;
        if count > u32::MAX as u64 {
            let detail = format!("{count} postings overflow a u32 position");
            return Err(cur.corrupt("postings count", detail).into());
        }
        let count = cur.count(count, 16, "postings count")?;
        let mut hashes = Vec::with_capacity(count);
        let mut postings = Vec::with_capacity(count);
        for _ in 0..count {
            let hash = cur.u64("posting hash")?;
            let contig = cur.u32("posting contig")?;
            let offset = cur.u32("posting offset")?;
            if let (Some(&ph), Some(&pp)) = (hashes.last(), postings.last()) {
                if (ph, pp) > (hash, (contig, offset)) {
                    return Err(cur.corrupt("posting hash", "postings out of order").into());
                }
            }
            hashes.push(hash);
            postings.push((contig, offset));
        }
        cur.finish()?;
        Ok(Self::from_sorted(k, w, store_checksum, hashes, postings))
    }

    /// Minimizer k-mer length.
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Window size in k-mers.
    pub fn w(&self) -> usize {
        self.w as usize
    }

    /// Total postings.
    pub fn postings_len(&self) -> usize {
        self.postings.len()
    }

    /// Checksum of the store payload this index was built from.
    pub fn store_checksum(&self) -> u64 {
        self.store_checksum
    }

    /// True when `hash` falls in this index's slice of the hash space, so
    /// its postings, if any, are here. Any other hash has none.
    pub(crate) fn owns(&self, hash: u64) -> bool {
        let (shard, n_shards) = self.owned;
        n_shards == 1 || shard_of_hash(hash, n_shards) == shard
    }

    /// All `(contig, offset)` postings for `hash` (possibly empty), in
    /// (contig, offset) order: the three lookup steps below, for one hash.
    pub fn postings(&self, hash: u64) -> &[(u32, u32)] {
        self.postings_in(self.hash_run(hash, self.bucket(hash)))
    }

    /// Lookup step 1: the entry range `dir[b]..dir[b + 1]` of `hash`'s
    /// directory bucket `b`.
    pub(crate) fn bucket(&self, hash: u64) -> (u32, u32) {
        let bucket = bucket_of(hash, self.dir_shift);
        (self.dir[bucket], self.dir[bucket + 1])
    }

    /// Lookup step 2: narrow the entry range of `hash`'s bucket to the run
    /// of entries that carry `hash` (empty when there is none).
    pub(crate) fn hash_run(&self, hash: u64, (lo, hi): (u32, u32)) -> (u32, u32) {
        let run = &self.hashes[lo as usize..hi as usize];
        let before = run.iter().take_while(|&&h| h < hash).count() as u32;
        let equal = run[before as usize..]
            .iter()
            .take_while(|&&h| h == hash)
            .count() as u32;
        (lo + before, lo + before + equal)
    }

    /// Lookup step 3: the postings of an entry range.
    pub(crate) fn postings_in(&self, (lo, hi): (u32, u32)) -> &[(u32, u32)] {
        &self.postings[lo as usize..hi as usize]
    }

    /// Fail with `Corrupt` unless this index was built from exactly the
    /// payload bytes of `store` (checked via the store's FNV-1a checksum)
    /// and every posting names a k-mer inside it — a checksum field alone
    /// can be patched, and a posting past the store would panic a query.
    pub fn verify_store(&self, store: &ContigStore) -> gstream::Result<()> {
        if self.store_checksum != store.checksum() {
            return Err(StreamError::Corrupt(format!(
                "index/store mismatch: index was built from store checksum \
                 {:#018x}, but the store on disk has {:#018x} — rebuild the index",
                self.store_checksum,
                store.checksum()
            )));
        }
        let k = self.k as usize;
        let outside = self.postings.iter().position(|&(contig, offset)| {
            store
                .contigs()
                .get(contig as usize)
                .is_none_or(|c| offset as usize + k > c.len())
        });
        if let Some(i) = outside {
            let (contig, offset) = self.postings[i];
            return Err(StreamError::Corrupt(format!(
                "index/store mismatch: posting {i} (contig {contig}, offset {offset}, k={k}) \
                 lies outside the store's {} contigs — rebuild the index",
                store.len()
            )));
        }
        Ok(())
    }
}

/// One part per builder thread, each sorted: the `(hash, contig, offset)`
/// of every minimizer in the thread's contiguous run of contigs whose hash
/// `shard` owns among `n_shards`. The runs are in contig order, so the
/// parts are too.
fn sorted_parts(
    store: &ContigStore,
    cfg: &IndexConfig,
    shard: u32,
    n_shards: u32,
) -> Vec<Vec<(u64, u32, u32)>> {
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.threads
    };
    let (k, w) = (cfg.k, cfg.w);
    let n = store.len();
    let per = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n)
            .step_by(per)
            .map(|start| {
                let contigs = start..(start + per).min(n);
                scope.spawn(move || {
                    let kmers = contigs
                        .clone()
                        .map(|ci| (store.contig(ci).len() + 1).saturating_sub(k))
                        .sum();
                    let mut part = Vec::with_capacity(part_capacity(kmers, w, n_shards));
                    let mut extractor = Extractor::default();
                    for ci in contigs {
                        let [fwd, _] = extractor.extract(store.contig(ci), k, w, false);
                        part.extend(
                            fwd.iter()
                                .filter(|&&(hash, _)| {
                                    n_shards == 1 || shard_of_hash(hash, n_shards) == shard
                                })
                                .map(|&(hash, off)| (hash, ci as u32, off)),
                        );
                    }
                    part.sort_unstable();
                    // Give back the estimate's spare room before the merge
                    // allocates the columns.
                    part.shrink_to_fit();
                    part
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("index build worker panicked"))
            .collect()
    })
}

/// Room for one shard's minimizers among `kmers` k-mers: a random sequence
/// has about `2 / (w + 1)` per k-mer, split evenly among `n_shards`. The
/// count strays from that by about one square root of itself; four square
/// roots more keep a part from doubling past its estimate.
fn part_capacity(kmers: usize, w: usize, n_shards: u32) -> usize {
    let expected = 2 * kmers / (w + 1) / n_shards as usize;
    expected + 4 * expected.isqrt() + 64
}

/// Merge sorted parts into the index's two columns, each allocated at the
/// exact total, freeing a part once it is consumed. Entries are unique, so
/// the result is the one sorted order of their union, whatever the split.
fn merge_parts(parts: Vec<Vec<(u64, u32, u32)>>) -> (Vec<u64>, Vec<(u32, u32)>) {
    let total = parts.iter().map(Vec::len).sum();
    let mut hashes = Vec::with_capacity(total);
    let mut postings = Vec::with_capacity(total);
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    // The smallest unconsumed entry of each part, and the part it heads.
    let mut heads: BinaryHeap<_> = (0..parts.len())
        .filter_map(|i| Some(Reverse((parts[i].next()?, i))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse(((hash, contig, offset), i)) = *head;
        hashes.push(hash);
        postings.push((contig, offset));
        match parts[i].next() {
            Some(next) => head.0 = (next, i),
            None => {
                PeekMut::pop(head);
                parts[i] = Vec::new().into_iter();
            }
        }
    }
    (hashes, postings)
}

/// Directory bucket of `hash`: its top `63 - shift` bits (bucket 0 for a
/// one-bucket directory, where the shift is 63).
fn bucket_of(hash: u64, shift: u32) -> usize {
    ((hash >> 1) >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{FaultPlan, Faults};

    fn seq(s: &str) -> PackedSeq {
        s.parse().unwrap()
    }

    /// The monotone-deque extraction the rolling pass replaced: a `Vec` of
    /// all n hashes, then a deque whose front is the leftmost minimum.
    fn minimizers_deque(seq: &PackedSeq, k: usize, w: usize) -> Vec<(u64, u32)> {
        use std::collections::VecDeque;
        let len = seq.len();
        if len < k {
            return Vec::new();
        }
        let n = len - k + 1;
        let mask = (1u64 << (2 * k)) - 1;
        let mut hashes = Vec::with_capacity(n);
        let mut kmer = 0u64;
        for i in 0..len {
            kmer = ((kmer << 2) | seq.get(i).code() as u64) & mask;
            if i + 1 >= k {
                hashes.push(splitmix64(kmer));
            }
        }
        let mut out: Vec<(u64, u32)> = Vec::new();
        let mut deque: VecDeque<usize> = VecDeque::new();
        let first_full = w.min(n);
        for i in 0..n {
            while deque.back().is_some_and(|&b| hashes[b] > hashes[i]) {
                deque.pop_back();
            }
            deque.push_back(i);
            while deque.front().is_some_and(|&f| f + w <= i) {
                deque.pop_front();
            }
            if i + 1 >= first_full {
                let m = *deque.front().expect("window holds at least one k-mer");
                if out.last().is_none_or(|&(_, o)| o != m as u32) {
                    out.push((hashes[m], m as u32));
                }
            }
        }
        out
    }

    #[test]
    fn rolling_pass_matches_the_deque_oracle_on_both_strands() {
        stdx::check_cases(256, |rng| {
            let len = rng.below(300) as usize;
            // Half the cases are runs of one or two bases: long stretches of
            // equal hashes, where only the leftmost-tie rule decides.
            let alphabet = if rng.below(2) == 0 {
                4
            } else {
                1 + rng.below(2)
            };
            let s = PackedSeq::from_codes(&rng.vec(len..len + 1, |r| r.below(alphabet) as u8));
            let rc = s.reverse_complement();
            // One extractor for every (k, w): what a call leaves in its
            // buffers must not leak into the next.
            let mut extractor = Extractor::default();
            for k in [1, 2, 15, 31] {
                for w in [1, 2, 8, 33] {
                    let [fwd, rev] = extractor.extract(&s, k, w, true);
                    assert_eq!(fwd, minimizers_deque(&s, k, w), "len {len} k {k} w {w}");
                    assert_eq!(rev, minimizers_deque(&rc, k, w), "len {len} k {k} w {w} rc");
                    assert_eq!(minimizers(&s, k, w), fwd);
                    let [fwd_only, none] = extractor.extract(&s, k, w, false);
                    assert_eq!(fwd_only, minimizers_deque(&s, k, w));
                    assert!(none.is_empty());
                }
            }
        });
    }

    /// The two-binary-search lookup the directory replaced.
    fn postings_bsearch(idx: &MinimizerIndex, hash: u64) -> &[(u32, u32)] {
        let start = idx.hashes.partition_point(|&h| h < hash);
        let end = start + idx.hashes[start..].partition_point(|&h| h == hash);
        &idx.postings[start..end]
    }

    fn assert_postings_match_oracle(idx: &MinimizerIndex, what: &str) {
        let mut probes = vec![0, u64::MAX];
        for &h in &idx.hashes {
            probes.extend([h.wrapping_sub(1), h, h.wrapping_add(1)]);
        }
        for h in probes {
            assert_eq!(
                idx.postings(h),
                postings_bsearch(idx, h),
                "{what}: hash {h:#x}"
            );
        }
    }

    #[test]
    fn directory_lookup_matches_binary_search_oracle() {
        let cfg = IndexConfig {
            k: 7,
            w: 4,
            threads: 1,
        };
        let store = toy_store();
        let full = MinimizerIndex::build(&store, &cfg);
        assert_postings_match_oracle(&full, "build");
        let decoded = MinimizerIndex::decode(&full.encode(), Path::new("x.mdx")).unwrap();
        assert_postings_match_oracle(&decoded, "decode");
        for n_shards in [2u32, 3] {
            for s in 0..n_shards {
                let shard = MinimizerIndex::build_shard(&store, &cfg, s, n_shards);
                assert_postings_match_oracle(&shard, "build_shard");
            }
        }
        let empty = MinimizerIndex::build(&ContigStore::from_contigs(Vec::new()), &cfg);
        assert_eq!(empty.postings_len(), 0);
        assert_postings_match_oracle(&empty, "empty");
        let one = MinimizerIndex::from_sorted(7, 4, 0, vec![42], vec![(0, 3)]);
        assert_postings_match_oracle(&one, "single entry");
        // A homopolymer contig: every posting carries the one hash.
        let poly = ContigStore::from_contigs(vec![seq(&"A".repeat(60))]);
        let same = MinimizerIndex::build(&poly, &cfg);
        assert!(same.postings_len() > 1);
        assert!(same.hashes.iter().all(|&h| h == same.hashes[0]));
        assert_postings_match_oracle(&same, "all one hash");
        // Hashes at both ends of the space and on bucket edges.
        let edges = vec![0, 1, 1 << 62, (1 << 62) + 1, u64::MAX - 1, u64::MAX];
        let n = edges.len() as u32;
        let ends = MinimizerIndex::from_sorted(7, 4, 0, edges, (0..n).map(|i| (0, i)).collect());
        assert_postings_match_oracle(&ends, "extreme hashes");
    }

    #[test]
    fn minimizers_are_deterministic_and_cover_every_window() {
        let s = seq("ACGTACGTAGGCCATTACGGATCAGGCATTAC");
        let (k, w) = (5, 4);
        let m = minimizers(&s, k, w);
        assert!(!m.is_empty());
        // Same input, same output.
        assert_eq!(m, minimizers(&s, k, w));
        // Offsets strictly increase (consecutive duplicates collapsed).
        assert!(m.windows(2).all(|p| p[0].1 < p[1].1));
        // Brute force: every window's leftmost-min k-mer is in the set.
        let n = s.len() - k + 1;
        let hashes: Vec<u64> = (0..n)
            .map(|i| {
                let mut km = 0u64;
                for j in 0..k {
                    km = (km << 2) | s.get(i + j).code() as u64;
                }
                splitmix64(km)
            })
            .collect();
        let offsets: Vec<u32> = m.iter().map(|&(_, o)| o).collect();
        for win in 0..=(n - w) {
            let best = (win..win + w)
                .min_by_key(|&i| (hashes[i], i))
                .expect("window non-empty");
            assert!(offsets.contains(&(best as u32)), "window {win}");
        }
    }

    #[test]
    fn short_sequences_degrade_gracefully() {
        assert!(minimizers(&seq("ACG"), 5, 4).is_empty());
        // Shorter than a full window: a single global minimum.
        assert_eq!(minimizers(&seq("ACGTAC"), 5, 8).len(), 1);
        assert_eq!(minimizers(&seq("ACGTA"), 5, 8).len(), 1);
    }

    fn toy_store() -> ContigStore {
        ContigStore::from_contigs(vec![
            seq("ACGTACGTAGGCCATTACGGATCAGGCATTACCGGATAA"),
            seq("TTGACCAGTACCAGTAGGACCATTGGACCAGGTT"),
        ])
    }

    #[test]
    fn build_is_identical_across_thread_counts() {
        let store = toy_store();
        let base = IndexConfig {
            k: 7,
            w: 4,
            threads: 1,
        };
        let one = MinimizerIndex::build(&store, &base);
        for threads in [2, 4, 7] {
            let multi = MinimizerIndex::build(&store, &IndexConfig { threads, ..base });
            assert_eq!(one.encode(), multi.encode(), "threads={threads}");
        }
        // Eleven contigs of uneven lengths, two of them shorter than k, so
        // each thread count splits a shard's entries differently.
        let mut rng = stdx::SplitMix64::new(50);
        let contigs = (0..11)
            .map(|i| {
                let len = if i % 5 == 3 {
                    5
                } else {
                    20 + rng.below(400) as usize
                };
                PackedSeq::from_codes(&rng.vec(len..len + 1, |r| r.below(4) as u8))
            })
            .collect();
        let store = ContigStore::from_contigs(contigs);
        for n_shards in [2, 3] {
            for shard in 0..n_shards {
                let build = |threads| {
                    let cfg = IndexConfig { threads, ..base };
                    MinimizerIndex::build_shard(&store, &cfg, shard, n_shards).encode()
                };
                let one = build(1);
                for threads in [2, 3, 8] {
                    assert!(
                        build(threads) == one,
                        "shard {shard} of {n_shards}, threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn postings_locate_every_indexed_position() {
        let store = toy_store();
        let idx = MinimizerIndex::build(
            &store,
            &IndexConfig {
                k: 7,
                w: 4,
                threads: 1,
            },
        );
        for ci in 0..store.len() {
            for (hash, off) in minimizers(store.contig(ci), 7, 4) {
                assert!(
                    idx.postings(hash).contains(&(ci as u32, off)),
                    "contig {ci} offset {off} missing"
                );
            }
        }
        // A hash that is absent returns the empty slice, not a panic.
        assert!(idx.postings(0xDEAD_BEEF_DEAD_BEEF).is_empty());
    }

    #[test]
    fn index_roundtrips_and_rejects_corruption() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("contigs.mdx");
        let io = IoStats::default();
        let store = toy_store();
        let idx = MinimizerIndex::build(
            &store,
            &IndexConfig {
                k: 7,
                w: 4,
                threads: 2,
            },
        );
        idx.write(&path, &io).unwrap();
        let back = MinimizerIndex::open(&path, &io).unwrap();
        assert_eq!(back.encode(), idx.encode());
        assert_eq!(back.k(), 7);
        assert_eq!(back.w(), 4);
        back.verify_store(&store).unwrap();

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        match MinimizerIndex::open(&path, &io) {
            Err(StreamError::Corrupt(m)) => assert!(m.contains("contigs.mdx"), "{m}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("open must fail on a flipped bit"),
        }
    }

    #[test]
    fn shard_indexes_partition_the_postings_space() {
        let store = toy_store();
        let cfg = IndexConfig {
            k: 7,
            w: 4,
            threads: 2,
        };
        let full = MinimizerIndex::build(&store, &cfg);
        for n_shards in [1u32, 2, 3, 5] {
            let shards: Vec<MinimizerIndex> = (0..n_shards)
                .map(|s| MinimizerIndex::build_shard(&store, &cfg, s, n_shards))
                .collect();
            // Disjoint cover: merging the shard entries back in sorted
            // order reproduces the full index byte-for-byte.
            let mut merged: Vec<(u64, u32, u32)> = shards
                .iter()
                .flat_map(|idx| {
                    idx.hashes
                        .iter()
                        .zip(&idx.postings)
                        .map(|(&h, &(c, o))| (h, c, o))
                })
                .collect();
            merged.sort_unstable();
            let rebuilt = MinimizerIndex::from_sorted(
                full.k,
                full.w,
                full.store_checksum,
                merged.iter().map(|&(h, _, _)| h).collect(),
                merged.iter().map(|&(_, c, o)| (c, o)).collect(),
            );
            assert_eq!(rebuilt.encode(), full.encode(), "n_shards={n_shards}");
            // Every shard holds only hashes assigned to it, and binds to
            // the full store.
            for (s, idx) in shards.iter().enumerate() {
                assert!(idx
                    .hashes
                    .iter()
                    .all(|&h| shard_of_hash(h, n_shards) == s as u32));
                idx.verify_store(&store).unwrap();
            }
        }
    }

    #[test]
    fn mismatched_store_is_refused() {
        let idx = MinimizerIndex::build(&toy_store(), &IndexConfig::default());
        let other = ContigStore::from_contigs(vec![seq("AAAACCCCGGGGTTTT")]);
        assert!(matches!(
            idx.verify_store(&other),
            Err(StreamError::Corrupt(_))
        ));
    }

    #[test]
    fn index_read_failpoint_fires() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("x.mdx");
        let io = IoStats::default();
        MinimizerIndex::build(&toy_store(), &IndexConfig::default())
            .write(&path, &io)
            .unwrap();
        io.set_faults(Faults::from_plan(
            &FaultPlan::new().fail_at(faultsim::QSERVE_INDEX_READ, 1),
        ));
        assert!(matches!(
            MinimizerIndex::open(&path, &io),
            Err(StreamError::Fault(_))
        ));
        // One-shot: the retry opens cleanly.
        assert!(MinimizerIndex::open(&path, &io).is_ok());
    }
}
