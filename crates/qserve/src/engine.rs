//! Read → contig position lookup.
//!
//! A query maps a read (or its Watson-Crick complement) back onto the
//! assembly in two stages, mirroring classic seed-and-extend:
//!
//! 1. **Seed.** The (w,k) minimizers of both strands of the read come
//!    from one rolling pass and are looked up in the [`MinimizerIndex`];
//!    every posting `(contig, contig_off)` paired with the minimizer's
//!    read offset votes for one *placement* `(contig, contig_off -
//!    read_off)`. Votes are pushed into a `Vec`, sorted and run-length
//!    counted, which leaves the placements in `(contig, offset)` order.
//!    Genuine origins accumulate one vote per shared minimizer; chance
//!    hits rarely agree on a placement.
//! 2. **Verify.** Candidate placements are checked 32 bases per word
//!    against the stored contig (a banded verification with band width 0
//!    — the pipeline introduces no indels, so placements are exact
//!    diagonals), bailing out as soon as the mismatch budget is exceeded.
//!    The reverse strand is compared from the read's own words, never a
//!    materialised complement.
//!
//! The engine resolves a whole batch of reads in one pass
//! ([`QueryEngine::query_batch`], [`QueryEngine::query_candidates_batch`]):
//! one [`Extractor`] pulls every read's seeds into one list, each index
//! lookup step runs over all of them before the next (directory bucket,
//! hash run, postings), so the loads of different seeds overlap rather
//! than chaining, and each (read, strand) is then voted and verified in
//! one reused buffer pair. The per-read entry points are batches of one.
//!
//! Postings are read straight from the resident, sorted index as borrowed
//! slices, so the engine has no interior state. The tie-break order below
//! is total, which makes query answers independent of worker count, batch
//! order and batch split — the property the golden tests pin down.

use crate::minimizer::{Extractor, MinimizerIndex};
use crate::store::ContigStore;
use genome::PackedSeq;
use gstream::IoStats;
use std::path::Path;

/// Tuning knobs for query resolution.
#[derive(Debug, Clone, Copy)]
pub struct QueryConfig {
    /// Reject placements with more than this many mismatching bases.
    pub max_mismatches: u32,
    /// Verify at most this many of the best-voted placements per read.
    pub max_candidates: usize,
    /// Placements need at least this many minimizer votes to be verified.
    pub min_votes: u32,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            max_mismatches: 2,
            max_candidates: 32,
            min_votes: 1,
        }
    }
}

/// A verified placement of a read on the assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Index of the contig (pipeline order, as stored).
    pub contig: u32,
    /// 0-based offset of the read's first base within the contig.
    pub offset: u32,
    /// `true` if the read matched as its reverse complement.
    pub reverse: bool,
    /// Mismatching bases between read and contig over the placement.
    pub mismatches: u32,
    /// Minimizer votes the placement received during seeding.
    pub votes: u32,
}

/// One voted placement of a read, before the best-hit selection.
///
/// This is the unit the sharded serving tier ships back to the router:
/// each shard reports **every** placement its slice of the postings space
/// voted for (no `min_votes` filter, no `max_candidates` truncation —
/// both depend on *global* vote counts the shard cannot see), together
/// with its local vote count and the verification verdict. Because the
/// postings space partitions by minimizer hash, per-shard votes for the
/// same placement sum to exactly the single-node vote count, and because
/// every shard binds the full store, every shard's `mismatches` verdict
/// for a given placement is identical. [`merge_candidates`] +
/// [`select_hit`] then replay the single-node selection byte-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Index of the contig (pipeline order, as stored).
    pub contig: u32,
    /// 0-based offset of the read's first base within the contig.
    pub offset: u32,
    /// `true` if the placement is for the read's reverse complement.
    pub reverse: bool,
    /// Minimizer votes this placement received from the local postings.
    pub votes: u32,
    /// Verification verdict: `Some(mismatches)` within budget, `None`
    /// if the placement blew the mismatch budget.
    pub mismatches: Option<u32>,
}

/// Postings-cache totals. There is no cache: kept for the benchmark
/// harness, deleted with `qserve.cache_hit_frac` by ROADMAP item 1's
/// benchmark PR.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// One owned seed of a batch: a minimizer of one strand of one read, and
/// the index entry range its lookup has narrowed to so far.
#[derive(Clone, Copy)]
struct Seed {
    hash: u64,
    /// `read · 2 + strand`, strand 1 being the reverse complement.
    tag: u32,
    /// The minimizer's offset in its strand.
    read_off: u32,
    /// The hash's directory bucket after the first lookup step, its run
    /// of entries after the second.
    range: (u32, u32),
}

/// The resolution engine: store + index + config.
///
/// Shared read-only across the [`QueryService`] worker pool; it has no
/// interior mutability.
///
/// [`QueryService`]: crate::QueryService
pub struct QueryEngine {
    store: ContigStore,
    index: MinimizerIndex,
    cfg: QueryConfig,
}

impl QueryEngine {
    /// Bind a store and an index, refusing mismatched pairs.
    pub fn new(
        store: ContigStore,
        index: MinimizerIndex,
        cfg: QueryConfig,
    ) -> crate::Result<QueryEngine> {
        index.verify_store(&store)?;
        Ok(QueryEngine { store, index, cfg })
    }

    /// Open store and index files and bind them.
    pub fn open(
        store_path: &Path,
        index_path: &Path,
        io: &IoStats,
        cfg: QueryConfig,
    ) -> crate::Result<QueryEngine> {
        let store = ContigStore::open(store_path, io)?;
        let index = MinimizerIndex::open(index_path, io)?;
        Self::new(store, index, cfg)
    }

    /// The bound store.
    pub fn store(&self) -> &ContigStore {
        &self.store
    }

    /// The bound index.
    pub fn index(&self) -> &MinimizerIndex {
        &self.index
    }

    /// The query knobs the engine resolves with. A hot reload builds the
    /// replacement engine with these, so a generation swap never
    /// silently changes ranking behaviour.
    pub fn query_config(&self) -> QueryConfig {
        self.cfg
    }

    /// Always zero; see [`CacheStats`].
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Resolve one read. Returns the best placement within the mismatch
    /// budget, or `None` if nothing verifies. A batch of one.
    pub fn query(&self, read: &PackedSeq) -> Option<Hit> {
        self.query_batch(std::slice::from_ref(read)).pop().flatten()
    }

    /// Every placement this engine's postings vote for, verified, in
    /// `(reverse, contig, offset)` order — the shard half of the
    /// scatter-gather protocol (see [`Candidate`]). A batch of one.
    pub fn query_candidates(&self, read: &PackedSeq) -> Vec<Candidate> {
        self.query_candidates_batch(std::slice::from_ref(read))
            .pop()
            .unwrap_or_default()
    }

    /// [`Self::query`] for each of `reads`, in one engine pass.
    pub fn query_batch(&self, reads: &[PackedSeq]) -> Vec<Option<Hit>> {
        let mut best: Vec<Option<Hit>> = vec![None; reads.len()];
        self.resolve(reads, |r, reverse, voted| {
            // Rank: most votes first, then (contig, offset) for a total,
            // deterministic order before truncation.
            voted.retain(|&(_, v)| v >= self.cfg.min_votes);
            voted.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            voted.truncate(self.cfg.max_candidates);
            // Verify: exact-diagonal comparison with early bail-out.
            for &((contig, start), votes) in voted.iter() {
                let Some(mm) = self.verify(&reads[r], reverse, contig, start) else {
                    continue;
                };
                let hit = Hit {
                    contig,
                    offset: start,
                    reverse,
                    mismatches: mm,
                    votes,
                };
                if best[r].is_none_or(|b| hit_rank(&hit) < hit_rank(&b)) {
                    best[r] = Some(hit);
                }
            }
        });
        best
    }

    /// [`Self::query_candidates`] for each of `reads`, in one engine
    /// pass. Unlike [`Self::query_batch`], nothing is filtered by
    /// `min_votes` or truncated to `max_candidates`: those cuts depend on
    /// global vote counts, so they belong to the merge side
    /// ([`select_hit`]).
    pub fn query_candidates_batch(&self, reads: &[PackedSeq]) -> Vec<Vec<Candidate>> {
        let mut out: Vec<Vec<Candidate>> = vec![Vec::new(); reads.len()];
        self.resolve(reads, |r, reverse, voted| {
            out[r].extend(voted.iter().map(|&((contig, start), votes)| Candidate {
                contig,
                offset: start,
                reverse,
                votes,
                mismatches: self.verify(&reads[r], reverse, contig, start),
            }));
        });
        out
    }

    /// The seed stage of a batch. Hands `answer` every (read, strand) that
    /// voted for at least one placement, forward strand first and reads in
    /// order, as `(read index, reverse, placements with their votes)` with
    /// the placements in `(contig, offset)` order; `answer` may reorder or
    /// cut the buffer it is lent.
    fn resolve(
        &self,
        reads: &[PackedSeq],
        mut answer: impl FnMut(usize, bool, &mut Vec<((u32, u32), u32)>),
    ) {
        let (k, w) = (self.index.k(), self.index.w());
        // Extract. A shard keeps only the seeds it owns: the others have
        // no postings here, so their lookups are skipped.
        let mut extractor = Extractor::default();
        let mut seeds: Vec<Seed> = Vec::new();
        for (r, read) in reads.iter().enumerate() {
            let strands = extractor.extract(read, k, w, true);
            for (strand, minima) in strands.into_iter().enumerate() {
                let tag = u32::try_from(2 * r + strand).expect("a batch holds under 2^31 reads");
                seeds.extend(
                    minima
                        .iter()
                        .filter(|&&(hash, _)| self.index.owns(hash))
                        .map(|&(hash, read_off)| Seed {
                            hash,
                            tag,
                            read_off,
                            range: (0, 0),
                        }),
                );
            }
        }
        // Look up in stages: every seed's bucket, then every seed's hash
        // run, then (below) every seed's postings slice. No load of one
        // seed waits on another's.
        for seed in &mut seeds {
            seed.range = self.index.bucket(seed.hash);
        }
        for seed in &mut seeds {
            seed.range = self.index.hash_run(seed.hash, seed.range);
        }
        // Vote each (read, strand) from its postings, then answer it.
        let mut starts: Vec<(u32, u32)> = Vec::new();
        let mut voted: Vec<((u32, u32), u32)> = Vec::new();
        for group in seeds.chunk_by(|a, b| a.tag == b.tag) {
            let (r, reverse) = (group[0].tag as usize / 2, group[0].tag % 2 == 1);
            let read_len = reads[r].len();
            starts.clear();
            for seed in group {
                for &(contig, contig_off) in self.index.postings_in(seed.range) {
                    let Some(start) = contig_off.checked_sub(seed.read_off) else {
                        continue; // read would hang off the contig's left edge
                    };
                    let clen = self.store.contig(contig as usize).len();
                    if start as usize + read_len > clen {
                        continue; // hangs off the right edge
                    }
                    starts.push((contig, start));
                }
            }
            starts.sort_unstable();
            voted.clear();
            for &placement in &starts {
                match voted.last_mut() {
                    Some((p, v)) if *p == placement => *v += 1,
                    _ => voted.push((placement, 1)),
                }
            }
            answer(r, reverse, &mut voted);
        }
    }

    /// Count mismatches of `read` (its reverse complement when `reverse`)
    /// against `contig` at `start`, or `None` once the budget is blown.
    fn verify(&self, read: &PackedSeq, reverse: bool, contig: u32, start: u32) -> Option<u32> {
        read.mismatches_at(
            reverse,
            self.store.contig(contig as usize),
            start as usize,
            self.cfg.max_mismatches,
        )
    }
}

/// Total order over hits: fewer mismatches win, forward beats reverse,
/// then lowest (contig, offset). Votes are reported but never break ties —
/// they depend on seeding luck, not on where the read truly sits.
fn hit_rank(h: &Hit) -> (u32, bool, u32, u32) {
    (h.mismatches, h.reverse, h.contig, h.offset)
}

/// Sum per-shard [`Candidate`] lists for one read into the global
/// candidate set: votes add per `(reverse, contig, offset)` placement
/// (the postings space partitions by hash, so the sum is exactly the
/// single-node vote count) and the verification verdict — identical on
/// every shard — is taken from whichever shard reported it first.
/// Output is in `(reverse, contig, offset)` order.
pub fn merge_candidates<I>(parts: I) -> Vec<Candidate>
where
    I: IntoIterator,
    I::Item: AsRef<[Candidate]>,
{
    let mut merged: Vec<Candidate> = Vec::new();
    for part in parts {
        merged.extend_from_slice(part.as_ref());
    }
    // Stable, so a placement's first report leads its run.
    merged.sort_by_key(|c| (c.reverse, c.contig, c.offset));
    merged.dedup_by(|later, first| {
        let same = (later.reverse, later.contig, later.offset)
            == (first.reverse, first.contig, first.offset);
        if same {
            first.votes += later.votes;
        }
        same
    });
    merged
}

/// Replay the single-node best-hit selection over a globally merged
/// candidate set: per orientation, drop placements under `min_votes`,
/// rank by votes (desc) then `(contig, offset)` (asc), truncate to
/// `max_candidates`, and keep the best *verified* placement under
/// [`hit_rank`]'s total order. Given candidates merged by
/// [`merge_candidates`] from a disjoint shard cover, this returns exactly
/// what [`QueryEngine::query`] returns on the unsharded index — the
/// byte-identity invariant the cluster goldens pin.
pub fn select_hit(cfg: &QueryConfig, candidates: &[Candidate]) -> Option<Hit> {
    let mut best: Option<Hit> = None;
    for reverse in [false, true] {
        let mut ranked: Vec<&Candidate> = candidates
            .iter()
            .filter(|c| c.reverse == reverse && c.votes >= cfg.min_votes)
            .collect();
        ranked.sort_unstable_by(|a, b| {
            b.votes
                .cmp(&a.votes)
                .then_with(|| (a.contig, a.offset).cmp(&(b.contig, b.offset)))
        });
        ranked.truncate(cfg.max_candidates);
        for c in ranked {
            let Some(mm) = c.mismatches else {
                continue;
            };
            let hit = Hit {
                contig: c.contig,
                offset: c.offset,
                reverse,
                mismatches: mm,
                votes: c.votes,
            };
            if best.is_none_or(|b| hit_rank(&hit) < hit_rank(&b)) {
                best = Some(hit);
            }
        }
    }
    best
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::minimizer::{minimizers, IndexConfig};

    fn engine_over(contigs: &[&str], cfg: QueryConfig) -> QueryEngine {
        let contigs: Vec<PackedSeq> = contigs.iter().map(|s| s.parse().unwrap()).collect();
        let store = ContigStore::from_contigs(contigs);
        let index = MinimizerIndex::build(
            &store,
            &IndexConfig {
                k: 7,
                w: 4,
                threads: 1,
            },
        );
        QueryEngine::new(store, index, cfg).unwrap()
    }

    fn seq(s: &str) -> PackedSeq {
        s.parse().unwrap()
    }

    const REF0: &str = "ACGTACGGTTCAGATTACAGGCATCGGATGCATTCAGGACCTTAGGACCA";
    const REF1: &str = "TTGACCATGGACCAGTTACACGGTTAACCGGTTAACCATGCAGGACTTCA";

    #[test]
    fn exact_forward_read_maps_to_its_origin() {
        let eng = engine_over(&[REF0, REF1], QueryConfig::default());
        let read = seq(&REF1[12..36]);
        let hit = eng.query(&read).expect("exact read must map");
        assert_eq!((hit.contig, hit.offset, hit.reverse), (1, 12, false));
        assert_eq!(hit.mismatches, 0);
        assert!(hit.votes >= 1);
    }

    #[test]
    fn reverse_complement_read_maps_with_reverse_flag() {
        let eng = engine_over(&[REF0, REF1], QueryConfig::default());
        let read = seq(&REF0[8..32]).reverse_complement();
        let hit = eng.query(&read).expect("revcomp read must map");
        assert_eq!((hit.contig, hit.offset, hit.reverse), (0, 8, true));
        assert_eq!(hit.mismatches, 0);
    }

    #[test]
    fn mismatches_within_budget_still_map() {
        let eng = engine_over(&[REF0, REF1], QueryConfig::default());
        let mut codes = seq(&REF0[5..35]).to_codes();
        codes[2] = (codes[2] + 1) & 3; // one substitution near the start
        let read = PackedSeq::from_codes(&codes);
        let hit = eng.query(&read).expect("1 mismatch is within budget");
        assert_eq!((hit.contig, hit.offset, hit.mismatches), (0, 5, 1));
    }

    #[test]
    fn mismatches_beyond_budget_are_rejected() {
        let cfg = QueryConfig {
            max_mismatches: 0,
            ..QueryConfig::default()
        };
        let eng = engine_over(&[REF0, REF1], cfg);
        let mut codes = seq(&REF0[5..35]).to_codes();
        codes[15] = (codes[15] + 1) & 3;
        assert_eq!(eng.query(&PackedSeq::from_codes(&codes)), None);
    }

    #[test]
    fn foreign_and_short_reads_return_none() {
        let eng = engine_over(&[REF0], QueryConfig::default());
        assert_eq!(eng.query(&seq("GTGTGTGTGTGTGTGTGTGTGTGT")), None);
        assert_eq!(eng.query(&seq("ACG")), None, "shorter than k");
    }

    #[test]
    fn sharded_candidate_merge_reproduces_single_node_answers() {
        use crate::minimizer::MinimizerIndex;
        // Stress the truncation boundary: tiny max_candidates makes the
        // global top-K differ from any shard's local top-K, which is
        // exactly the case a best-hit-per-shard merge would get wrong.
        for cfg in [
            QueryConfig::default(),
            QueryConfig {
                max_candidates: 2,
                min_votes: 2,
                ..QueryConfig::default()
            },
        ] {
            let contigs: Vec<PackedSeq> = [REF0, REF1].iter().map(|s| s.parse().unwrap()).collect();
            let store = ContigStore::from_contigs(contigs);
            let icfg = IndexConfig {
                k: 7,
                w: 4,
                threads: 1,
            };
            let full = QueryEngine::new(
                ContigStore::from_contigs(
                    [REF0, REF1].iter().map(|s| s.parse().unwrap()).collect(),
                ),
                MinimizerIndex::build(&store, &icfg),
                cfg,
            )
            .unwrap();
            let n_shards = 3u32;
            let shards: Vec<QueryEngine> = (0..n_shards)
                .map(|s| {
                    QueryEngine::new(
                        ContigStore::from_contigs(
                            [REF0, REF1].iter().map(|x| x.parse().unwrap()).collect(),
                        ),
                        MinimizerIndex::build_shard(&store, &icfg, s, n_shards),
                        cfg,
                    )
                    .unwrap()
                })
                .collect();
            let mut reads: Vec<PackedSeq> = Vec::new();
            for start in 0..26 {
                reads.push(seq(&REF0[start..start + 24]));
                reads.push(seq(&REF1[start..start + 24]).reverse_complement());
            }
            reads.push(seq("GTGTGTGTGTGTGTGTGTGTGTGT")); // foreign
            for read in &reads {
                let single = full.query(read);
                let parts: Vec<Vec<Candidate>> =
                    shards.iter().map(|e| e.query_candidates(read)).collect();
                let merged = merge_candidates(&parts);
                assert_eq!(select_hit(&cfg, &merged), single, "cfg {cfg:?}");
            }
        }
    }

    /// The per-read extraction the batch pass replaced: each strand's
    /// minimizers on their own, the complement built as a copy.
    fn strand_minimizers(read: &PackedSeq, k: usize, w: usize) -> [Vec<(u64, u32)>; 2] {
        [
            minimizers(read, k, w),
            minimizers(&read.reverse_complement(), k, w),
        ]
    }

    /// The per-read vote the batch pass replaced: one whole lookup per
    /// owned seed, then a sort and a run-length count of the placements.
    fn voted_placements(
        eng: &QueryEngine,
        read_len: usize,
        seeds: &[(u64, u32)],
    ) -> Vec<((u32, u32), u32)> {
        let mut starts: Vec<(u32, u32)> = Vec::new();
        for &(hash, read_off) in seeds {
            if !eng.index.owns(hash) {
                continue;
            }
            for &(contig, contig_off) in eng.index.postings(hash) {
                let Some(start) = contig_off.checked_sub(read_off) else {
                    continue;
                };
                if start as usize + read_len > eng.store.contig(contig as usize).len() {
                    continue;
                }
                starts.push((contig, start));
            }
        }
        starts.sort_unstable();
        let mut voted: Vec<((u32, u32), u32)> = Vec::new();
        for placement in starts {
            match voted.last_mut() {
                Some((p, v)) if *p == placement => *v += 1,
                _ => voted.push((placement, 1)),
            }
        }
        voted
    }

    /// [`QueryEngine::query`] one read at a time, as it was resolved before
    /// batches.
    fn query_oracle(eng: &QueryEngine, read: &PackedSeq) -> Option<Hit> {
        if read.len() < eng.index.k() {
            return None;
        }
        let strands = strand_minimizers(read, eng.index.k(), eng.index.w());
        let mut best: Option<Hit> = None;
        for (reverse, seeds) in [false, true].into_iter().zip(strands) {
            let mut candidates = voted_placements(eng, read.len(), &seeds);
            candidates.retain(|&(_, v)| v >= eng.cfg.min_votes);
            candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            candidates.truncate(eng.cfg.max_candidates);
            for ((contig, start), votes) in candidates {
                let Some(mm) = eng.verify(read, reverse, contig, start) else {
                    continue;
                };
                let hit = Hit {
                    contig,
                    offset: start,
                    reverse,
                    mismatches: mm,
                    votes,
                };
                if best.is_none_or(|b| hit_rank(&hit) < hit_rank(&b)) {
                    best = Some(hit);
                }
            }
        }
        best
    }

    /// [`QueryEngine::query_candidates`] one read at a time, as it was
    /// resolved before batches.
    fn candidates_oracle(eng: &QueryEngine, read: &PackedSeq) -> Vec<Candidate> {
        if read.len() < eng.index.k() {
            return Vec::new();
        }
        let strands = strand_minimizers(read, eng.index.k(), eng.index.w());
        let mut out: Vec<Candidate> = Vec::new();
        for (reverse, seeds) in [false, true].into_iter().zip(strands) {
            for ((contig, start), votes) in voted_placements(eng, read.len(), &seeds) {
                out.push(Candidate {
                    contig,
                    offset: start,
                    reverse,
                    votes,
                    mismatches: eng.verify(read, reverse, contig, start),
                });
            }
        }
        out
    }

    /// A random batch over `contigs`: 0–70 reads of 0–150 bases, each an
    /// exact copy, a copy with 1–3 substitutions, foreign, the reverse
    /// complement of one of those, or a duplicate of an earlier read.
    fn random_batch(rng: &mut stdx::SplitMix64, contigs: &[Vec<u8>]) -> Vec<PackedSeq> {
        let mut reads: Vec<PackedSeq> = Vec::new();
        for _ in 0..rng.below(71) {
            let len = rng.below(151) as usize;
            let kind = rng.below(5);
            if kind == 4 && !reads.is_empty() {
                let earlier = reads[rng.below(reads.len() as u64) as usize].clone();
                reads.push(earlier);
                continue;
            }
            let mut codes = if kind == 2 {
                (0..len).map(|_| rng.below(4) as u8).collect()
            } else {
                let contig = &contigs[rng.below(contigs.len() as u64) as usize];
                let len = len.min(contig.len());
                let start = rng.below((contig.len() - len + 1) as u64) as usize;
                contig[start..start + len].to_vec()
            };
            if (kind == 1 || (kind == 3 && rng.below(2) == 0)) && !codes.is_empty() {
                for _ in 0..1 + rng.below(3) {
                    let i = rng.below(codes.len() as u64) as usize;
                    codes[i] = (codes[i] + 1 + rng.below(3) as u8) & 3;
                }
            }
            let read = PackedSeq::from_codes(&codes);
            reads.push(if kind == 3 {
                read.reverse_complement()
            } else {
                read
            });
        }
        reads
    }

    #[test]
    fn batches_match_the_per_read_oracle() {
        stdx::check_cases(64, |rng| {
            // Two or three contigs; the second repeats 60 bases of the
            // first, so some reads have two true placements.
            let mut contigs: Vec<Vec<u8>> = (0..2 + rng.below(2))
                .map(|_| rng.vec(150..400, |r| r.below(4) as u8))
                .collect();
            let repeat = contigs[0][20..80].to_vec();
            contigs[1][10..70].copy_from_slice(&repeat);
            let reads = random_batch(rng, &contigs);
            let cfg = if rng.below(2) == 0 {
                QueryConfig::default()
            } else {
                QueryConfig {
                    max_mismatches: 1,
                    max_candidates: 2,
                    min_votes: 2,
                }
            };
            let packed: Vec<PackedSeq> = contigs.iter().map(|c| PackedSeq::from_codes(c)).collect();
            for (k, w) in [(7, 4), (15, 8)] {
                let icfg = IndexConfig { k, w, threads: 1 };
                let full = ContigStore::from_contigs(packed.clone());
                for n_shards in 1..=3 {
                    for shard in 0..n_shards {
                        let index = MinimizerIndex::build_shard(&full, &icfg, shard, n_shards);
                        let store = ContigStore::from_contigs(packed.clone());
                        let eng = QueryEngine::new(store, index, cfg).unwrap();
                        let at = format!("k {k} w {w} shard {shard}/{n_shards}");
                        let hits: Vec<Option<Hit>> =
                            reads.iter().map(|r| query_oracle(&eng, r)).collect();
                        assert_eq!(eng.query_batch(&reads), hits, "{at}");
                        let lists: Vec<Vec<Candidate>> =
                            reads.iter().map(|r| candidates_oracle(&eng, r)).collect();
                        assert_eq!(eng.query_candidates_batch(&reads), lists, "{at}");
                    }
                }
            }
        });
    }

    #[test]
    fn merge_sums_votes_over_unsorted_parts_and_keeps_the_first_verdict() {
        let c = |reverse, contig, offset, votes, mismatches| Candidate {
            contig,
            offset,
            reverse,
            votes,
            mismatches,
        };
        let first = vec![
            c(true, 0, 5, 1, None),
            c(false, 1, 3, 2, Some(0)),
            c(false, 0, 9, 1, Some(1)),
        ];
        let second = vec![
            c(false, 1, 3, 1, Some(2)),
            c(false, 0, 2, 4, Some(0)),
            c(true, 0, 5, 2, Some(0)),
        ];
        assert_eq!(
            merge_candidates([first, second]),
            vec![
                c(false, 0, 2, 4, Some(0)),
                c(false, 0, 9, 1, Some(1)),
                c(false, 1, 3, 3, Some(0)),
                c(true, 0, 5, 3, None),
            ]
        );
        assert!(merge_candidates(Vec::<Vec<Candidate>>::new()).is_empty());
    }

    #[test]
    fn mismatched_store_and_index_refuse_to_bind() {
        let store_a = ContigStore::from_contigs(vec![seq(REF0)]);
        let store_b = ContigStore::from_contigs(vec![seq(REF1)]);
        let cfg = IndexConfig {
            k: 7,
            w: 4,
            threads: 1,
        };
        let index_b = MinimizerIndex::build(&store_b, &cfg);
        let err = QueryEngine::new(store_a, index_b, QueryConfig::default())
            .err()
            .expect("binding must fail");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// An index built over `[REF0, REF1]` whose header claims the
    /// one-contig store `[REF0]`: it decodes (the order is intact) and its
    /// checksum field agrees, but postings name contig 1.
    pub(crate) fn index_patched_to_one_contig_store() -> (ContigStore, Vec<u8>) {
        let two = ContigStore::from_contigs(vec![seq(REF0), seq(REF1)]);
        let one = ContigStore::from_contigs(vec![seq(REF0)]);
        let icfg = IndexConfig {
            k: 7,
            w: 4,
            threads: 1,
        };
        let mut payload = MinimizerIndex::build(&two, &icfg).encode();
        payload[16..24].copy_from_slice(&one.checksum().to_le_bytes());
        (one, payload)
    }

    #[test]
    fn postings_outside_the_store_refuse_to_bind() {
        let (one, payload) = index_patched_to_one_contig_store();
        let index = MinimizerIndex::decode(&payload, Path::new("patched.mdx")).unwrap();
        assert_eq!(index.store_checksum(), one.checksum());
        match QueryEngine::new(one, index, QueryConfig::default()) {
            Err(crate::QserveError::Stream(gstream::StreamError::Corrupt(m))) => {
                assert!(m.contains("posting ") && m.contains("contig 1"), "{m}");
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("an index pointing past the store must not bind"),
        }
    }
}
