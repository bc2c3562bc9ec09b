//! An index build holds little more than the index it keeps.
//!
//! A shard of a random 1.2 Mbp store, and the whole index, are built with
//! two builder threads. The heap may peak at no more than twice the bytes
//! the finished index keeps live: a build that lists every shard's entries
//! before dropping the others' peaks at about three times a half-space
//! shard. The counting allocator is this binary's global allocator, so this
//! file holds one test: no other test's allocations can land in its counts.

use lasagna_repro::prelude::*;
use lasagna_repro::qserve::{ContigStore, IndexConfig, MinimizerIndex};

#[global_allocator]
static ALLOC: stdx::CountingAlloc = stdx::CountingAlloc::new();

/// How many times the bytes an index keeps its build may hold at once.
const PEAK_OVER_KEPT: f64 = 2.0;

#[test]
fn a_build_peaks_at_most_twice_the_index_it_keeps() {
    let contigs = (0..120)
        .map(|seed| GenomeSim::uniform(10_000, seed).generate())
        .collect();
    let store = ContigStore::from_contigs(contigs);
    let cfg = IndexConfig {
        k: 15,
        w: 8,
        threads: 2,
    };
    let mut summary = Vec::new();
    let mut within = true;
    for (shard, n_shards) in [(0, 1), (0, 2), (1, 2)] {
        let before = ALLOC.live_bytes();
        ALLOC.reset_peak();
        let index = MinimizerIndex::build_shard(&store, &cfg, shard, n_shards);
        let peak = ALLOC.peak_bytes() - before;
        let kept = ALLOC.live_bytes() - before;
        assert!(index.postings_len() > 0);
        drop(index);
        let ratio = peak as f64 / kept as f64;
        summary.push(format!(
            "shard {shard} of {n_shards}: {peak} B peak, {kept} B kept ({ratio:.2}x)"
        ));
        within &= ratio <= PEAK_OVER_KEPT;
    }
    assert!(within, "{}", summary.join("; "));
}
