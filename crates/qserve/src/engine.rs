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
//! Postings are read straight from the resident, sorted index: a lookup is
//! one directory load and a short scan returning a borrowed slice, so the
//! engine has no interior state. The tie-break order below is total, which
//! makes query answers independent of worker count and batch order — the
//! property the golden tests pin down.

use crate::minimizer::{strand_minimizers, MinimizerIndex};
use crate::store::ContigStore;
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

    /// Seed: every placement `(contig, start-of-read-in-contig)` that the
    /// `seeds` of a `read_len`-base strand vote for, with its vote count,
    /// in `(contig, offset)` order. A shard skips the seeds another shard
    /// owns without touching its directory: they have no postings here.
    fn voted_placements(&self, read_len: usize, seeds: &[(u64, u32)]) -> Vec<((u32, u32), u32)> {
        let mut starts: Vec<(u32, u32)> = Vec::new();
        for &(hash, read_off) in seeds {
            if !self.index.owns(hash) {
                continue;
            }
            for &(contig, contig_off) in self.index.postings(hash) {
                let Some(start) = contig_off.checked_sub(read_off) else {
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
        let mut voted: Vec<((u32, u32), u32)> = Vec::new();
        for placement in starts {
            match voted.last_mut() {
                Some((p, v)) if *p == placement => *v += 1,
                _ => voted.push((placement, 1)),
            }
        }
        voted
    }

    /// Resolve one read. Returns the best placement within the mismatch
    /// budget, or `None` if nothing verifies.
    pub fn query(&self, read: &genome::PackedSeq) -> Option<Hit> {
        if read.len() < self.index.k() {
            return None;
        }
        let strands = strand_minimizers(read, self.index.k(), self.index.w());
        let mut best: Option<Hit> = None;
        for (reverse, seeds) in [false, true].into_iter().zip(strands) {
            // Rank: most votes first, then (contig, offset) for a total,
            // deterministic order before truncation.
            let mut candidates = self.voted_placements(read.len(), &seeds);
            candidates.retain(|&(_, v)| v >= self.cfg.min_votes);
            candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            candidates.truncate(self.cfg.max_candidates);
            // Verify: exact-diagonal comparison with early bail-out.
            for ((contig, start), v) in candidates {
                let Some(mm) = self.verify(read, reverse, contig, start) else {
                    continue;
                };
                let hit = Hit {
                    contig,
                    offset: start,
                    reverse,
                    mismatches: mm,
                    votes: v,
                };
                if best.is_none_or(|b| hit_rank(&hit) < hit_rank(&b)) {
                    best = Some(hit);
                }
            }
        }
        best
    }

    /// Every placement this engine's postings vote for, verified, in
    /// `(reverse, contig, offset)` order — the shard half of the
    /// scatter-gather protocol (see [`Candidate`]). Unlike
    /// [`Self::query`], nothing is filtered by `min_votes` or truncated
    /// to `max_candidates`: those cuts depend on global vote counts, so
    /// they belong to the merge side ([`select_hit`]).
    pub fn query_candidates(&self, read: &genome::PackedSeq) -> Vec<Candidate> {
        if read.len() < self.index.k() {
            return Vec::new();
        }
        let strands = strand_minimizers(read, self.index.k(), self.index.w());
        let mut out: Vec<Candidate> = Vec::new();
        for (reverse, seeds) in [false, true].into_iter().zip(strands) {
            for ((contig, start), v) in self.voted_placements(read.len(), &seeds) {
                out.push(Candidate {
                    contig,
                    offset: start,
                    reverse,
                    votes: v,
                    mismatches: self.verify(read, reverse, contig, start),
                });
            }
        }
        out
    }

    /// Count mismatches of `read` (its reverse complement when `reverse`)
    /// against `contig` at `start`, or `None` once the budget is blown.
    fn verify(
        &self,
        read: &genome::PackedSeq,
        reverse: bool,
        contig: u32,
        start: u32,
    ) -> Option<u32> {
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
    use std::collections::BTreeMap;
    let mut merged: BTreeMap<(bool, u32, u32), (u32, Option<u32>)> = BTreeMap::new();
    for part in parts {
        for c in part.as_ref() {
            let slot = merged
                .entry((c.reverse, c.contig, c.offset))
                .or_insert((0, c.mismatches));
            slot.0 += c.votes;
        }
    }
    merged
        .into_iter()
        .map(
            |((reverse, contig, offset), (votes, mismatches))| Candidate {
                contig,
                offset,
                reverse,
                votes,
                mismatches,
            },
        )
        .collect()
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
    use crate::minimizer::IndexConfig;
    use genome::PackedSeq;

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
