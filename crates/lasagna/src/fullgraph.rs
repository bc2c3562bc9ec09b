//! The full (non-greedy) string graph — Section II-A2 implemented.
//!
//! The paper *describes* Myers' string graph — all overlap edges, removal
//! of contained reads, transitive reduction, contigs from unambiguous
//! paths — and then sidesteps it with the greedy heuristic ("only one
//! outgoing edge corresponding to the read with the longest overlap").
//! This module implements the described construction as an extension, so
//! the greedy shortcut can be evaluated against the real thing:
//!
//! * [`MultiGraph`] keeps *every* candidate edge;
//! * [`MultiGraph::remove_duplicates`] is contained-read removal for
//!   uniform-length reads (a same-length read is contained iff identical);
//! * [`MultiGraph::transitive_reduction`] removes edges implied by
//!   two-hop paths: with uniform length `L`, `v→x` is transitive iff some
//!   `v→w→x` exists with `overlap(v,x) = overlap(v,w) + overlap(w,x) − L`;
//! * [`MultiGraph::unambiguous_paths`] spells contigs only along vertices
//!   whose remaining degree is unambiguous, stopping at branches instead
//!   of guessing through repeats like the greedy graph does.

use crate::config::AssemblyConfig;
use crate::traverse::{Path, PathStep};
use crate::Result;
use genome::readset::VertexId;
use genome::ReadSet;
use gstream::spill::{PartitionKind, SpillDir};
use gstream::HostMem;
use std::collections::HashMap;
use vgpu::Device;

/// An overlap edge in the full graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MultiEdge {
    to: VertexId,
    overlap: u32,
    deleted: bool,
}

/// The full string graph: every suffix-prefix overlap of length ≥ l_min.
#[derive(Debug, Clone)]
pub struct MultiGraph {
    read_len: u32,
    out: Vec<Vec<MultiEdge>>,
    in_degree: Vec<u32>,
    /// Vertices removed as contained reads: they no longer participate in
    /// the graph and are not spelled into contigs.
    dead: Vec<bool>,
}

impl MultiGraph {
    /// An empty graph over `vertex_count` vertices of `read_len`-bp reads.
    pub fn new(vertex_count: u32, read_len: u32) -> Self {
        MultiGraph {
            read_len,
            out: vec![Vec::new(); vertex_count as usize],
            in_degree: vec![0; vertex_count as usize],
            dead: vec![false; vertex_count as usize],
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> u32 {
        self.out.len() as u32
    }

    /// Add an overlap edge (self-loops and fold-backs are ignored, like
    /// the greedy graph's degenerate rejections).
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, overlap: u32) {
        if from == to || to == from ^ 1 {
            return;
        }
        // Duplicate candidates (same pair at the same length reachable via
        // two fingerprint routes) are idempotent.
        if self.out[from as usize]
            .iter()
            .any(|e| e.to == to && e.overlap == overlap)
        {
            return;
        }
        self.out[from as usize].push(MultiEdge {
            to,
            overlap,
            deleted: false,
        });
        self.in_degree[to as usize] += 1;
    }

    /// Live out-edges of `v` as `(target, overlap)`.
    pub fn out_edges(&self, v: VertexId) -> Vec<(VertexId, u32)> {
        self.out[v as usize]
            .iter()
            .filter(|e| !e.deleted)
            .map(|e| (e.to, e.overlap))
            .collect()
    }

    /// Live edge count.
    pub fn edge_count(&self) -> u64 {
        self.out
            .iter()
            .map(|es| es.iter().filter(|e| !e.deleted).count() as u64)
            .sum()
    }

    fn delete_edge(&mut self, from: VertexId, to: VertexId, overlap: u32) {
        if let Some(e) = self.out[from as usize]
            .iter_mut()
            .find(|e| !e.deleted && e.to == to && e.overlap == overlap)
        {
            e.deleted = true;
            self.in_degree[to as usize] -= 1;
        }
    }

    /// Contained-read removal. With uniform-length reads a read is
    /// contained in another iff their sequences are identical; all copies
    /// but the smallest vertex id are dropped (their edges deleted).
    /// Returns the number of removed *reads*.
    pub fn remove_duplicates(&mut self, reads: &ReadSet) -> u64 {
        let mut canonical: HashMap<Vec<u8>, u32> = HashMap::new();
        let mut removed = 0u64;
        let mut buf = Vec::new();
        for i in 0..reads.len() {
            reads.read_codes_into(i, &mut buf);
            // Canonical form: the lexicographically smaller of the read
            // and its reverse complement, so duplicate detection is
            // strand-independent.
            let rc: Vec<u8> = buf.iter().rev().map(|&c| c ^ 3).collect();
            let key = if buf <= rc { buf.clone() } else { rc };
            match canonical.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => {
                    self.dead[i * 2] = true;
                    self.dead[i * 2 + 1] = true;
                    removed += 1;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(i as u32);
                }
            }
        }
        // Drop all edges touching dead vertices.
        for v in 0..self.out.len() {
            if self.dead[v] {
                let edges = std::mem::take(&mut self.out[v]);
                for e in edges.iter().filter(|e| !e.deleted) {
                    self.in_degree[e.to as usize] -= 1;
                }
            } else {
                let targets: Vec<(u32, u32)> = self.out[v]
                    .iter()
                    .filter(|e| !e.deleted && self.dead[e.to as usize])
                    .map(|e| (e.to, e.overlap))
                    .collect();
                for (to, overlap) in targets {
                    self.delete_edge(v as u32, to, overlap);
                }
            }
        }
        removed
    }

    /// Myers-style transitive reduction: delete `v→x` whenever some
    /// `v→w→x` spells the same offset, i.e.
    /// `overlap(v,x) == overlap(v,w) + overlap(w,x) − L`.
    /// Returns the number of deleted edges.
    pub fn transitive_reduction(&mut self) -> u64 {
        let l = self.read_len;
        let mut removed = 0u64;
        for v in 0..self.out.len() {
            // Direct targets of v with their overlaps.
            let direct: Vec<(u32, u32)> = self.out_edges(v as u32);
            if direct.len() < 2 {
                continue;
            }
            let lookup: HashMap<(u32, u32), ()> =
                direct.iter().map(|&(t, o)| ((t, o), ())).collect();
            let mut to_delete = Vec::new();
            for &(w, ovw) in &direct {
                for (x, owx) in self.out_edges(w) {
                    let implied = (ovw + owx).checked_sub(l);
                    if let Some(ovx) = implied {
                        if ovx > 0 && lookup.contains_key(&(x, ovx)) && x != v as u32 {
                            to_delete.push((x, ovx));
                        }
                    }
                }
            }
            to_delete.sort_unstable();
            to_delete.dedup();
            for (x, ovx) in to_delete {
                self.delete_edge(v as u32, x, ovx);
                removed += 1;
            }
        }
        removed
    }

    /// Keep only the longest-overlap edge between each vertex pair (two
    /// reads can overlap at several lengths when the genome is periodic);
    /// a conservative cleanup usually run before reduction.
    pub fn keep_best_per_pair(&mut self) -> u64 {
        let mut removed = 0u64;
        for v in 0..self.out.len() {
            let mut best: HashMap<u32, u32> = HashMap::new();
            for e in self.out[v].iter().filter(|e| !e.deleted) {
                let slot = best.entry(e.to).or_insert(e.overlap);
                if e.overlap > *slot {
                    *slot = e.overlap;
                }
            }
            let worse: Vec<(u32, u32)> = self.out[v]
                .iter()
                .filter(|e| !e.deleted && best[&e.to] > e.overlap)
                .map(|e| (e.to, e.overlap))
                .collect();
            for (to, overlap) in worse {
                self.delete_edge(v as u32, to, overlap);
                removed += 1;
            }
        }
        removed
    }

    /// Spell paths along unambiguous vertices: a path extends from `v` to
    /// `w` only when `v`'s out-degree is 1 and `w`'s in-degree is 1. Every
    /// vertex appears in exactly one path (complement mirrors deduplicated,
    /// as in the greedy traversal).
    pub fn unambiguous_paths(&self) -> Vec<Path> {
        let n = self.vertex_count();
        let next = |v: u32| -> Option<(u32, u32)> {
            let es = self.out_edges(v);
            match es.as_slice() {
                [(w, o)] if self.in_degree[*w as usize] == 1 => Some((*w, *o)),
                _ => None,
            }
        };
        let is_path_start = |v: u32| -> bool {
            // v starts a path if nothing unambiguously precedes it.
            let p = v ^ 1;
            !matches!(self.out_edges(p).as_slice(),
                [(w, _)] if self.in_degree[*w as usize] == 1)
        };

        let mut visited = self.dead.clone();
        let mut paths = Vec::new();
        for v in 0..n {
            if visited[v as usize] || !is_path_start(v) {
                continue;
            }
            // Walk the chain.
            let mut steps = Vec::new();
            let mut cur = v;
            loop {
                visited[cur as usize] = true;
                visited[(cur ^ 1) as usize] = true;
                match next(cur) {
                    Some((w, o)) if !visited[w as usize] => {
                        steps.push(PathStep {
                            vertex: cur,
                            overhang: self.read_len - o,
                        });
                        cur = w;
                    }
                    _ => {
                        steps.push(PathStep {
                            vertex: cur,
                            overhang: self.read_len,
                        });
                        break;
                    }
                }
            }
            // Deduplicate the mirror: keep the orientation with the
            // smaller endpoint id.
            let mirror_start = steps.last().expect("nonempty").vertex ^ 1;
            if v <= mirror_start {
                paths.push(Path { steps });
            }
        }
        // Cover any unvisited cycle remnants.
        for v in 0..n {
            if !visited[v as usize] {
                let mut steps = Vec::new();
                let mut cur = v;
                loop {
                    visited[cur as usize] = true;
                    visited[(cur ^ 1) as usize] = true;
                    match next(cur) {
                        Some((w, o)) if !visited[w as usize] => {
                            steps.push(PathStep {
                                vertex: cur,
                                overhang: self.read_len - o,
                            });
                            cur = w;
                        }
                        _ => {
                            steps.push(PathStep {
                                vertex: cur,
                                overhang: self.read_len,
                            });
                            break;
                        }
                    }
                }
                paths.push(Path { steps });
            }
        }
        paths
    }
}

/// Build the full string graph from sorted partitions: the same map/sort
/// output the greedy reduce consumes, but *every* candidate becomes an
/// edge. Call after [`crate::map::run`] and [`crate::sortphase::run`].
pub fn reduce_full(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    reads: &ReadSet,
) -> Result<MultiGraph> {
    let window = crate::reduce::window_budget(host, device);
    let mut graph = MultiGraph::new(reads.vertex_count(), config.l_max);
    for len in (config.l_min..config.l_max).rev() {
        let s_path = spill.path(PartitionKind::Suffix, len);
        let p_path = spill.path(PartitionKind::Prefix, len);
        if !s_path.exists() || !p_path.exists() {
            continue;
        }
        let mut sfx = spill.reader(PartitionKind::Suffix, len)?;
        let mut pfx = spill.reader(PartitionKind::Prefix, len)?;
        crate::reduce::join_partition(device, &mut sfx, &mut pfx, window, |u, v| {
            graph.add_edge(u, v, len)
        })?;
    }
    Ok(graph)
}

/// The full-graph assembly recipe: all candidates → duplicate removal →
/// best-per-pair → transitive reduction → unambiguous paths. Returns the
/// reduced graph and its paths.
pub fn assemble_full(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    reads: &ReadSet,
) -> Result<(MultiGraph, Vec<Path>)> {
    crate::map::run(device, host, spill, config, reads)?;
    crate::sortphase::run(device, host, spill, config)?;
    let mut graph = reduce_full(device, host, spill, config, reads)?;
    graph.remove_duplicates(reads);
    graph.keep_best_per_pair();
    graph.transitive_reduction();
    let paths = graph.unambiguous_paths();
    Ok((graph, paths))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_with(edges: &[(u32, u32, u32)], vertices: u32, read_len: u32) -> MultiGraph {
        let mut g = MultiGraph::new(vertices, read_len);
        for &(u, v, l) in edges {
            g.add_edge(u, v, l);
        }
        g
    }

    #[test]
    fn add_edge_rejects_degenerates_and_duplicates() {
        let mut g = MultiGraph::new(4, 10);
        g.add_edge(0, 0, 5);
        g.add_edge(0, 1, 5);
        g.add_edge(0, 2, 5);
        g.add_edge(0, 2, 5);
        assert_eq!(g.edge_count(), 1);
        g.add_edge(0, 2, 6); // different length: legitimate second edge
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn transitive_reduction_removes_the_implied_edge() {
        // Reads of length 10: 0→2 (overlap 8), 2→4 (overlap 7),
        // transitive 0→4 must have overlap 8+7-10 = 5.
        let mut g = graph_with(&[(0, 2, 8), (2, 4, 7), (0, 4, 5)], 6, 10);
        let removed = g.transitive_reduction();
        assert_eq!(removed, 1);
        assert_eq!(g.out_edges(0), vec![(2, 8)]);
        assert_eq!(g.out_edges(2), vec![(4, 7)]);
    }

    #[test]
    fn non_consistent_edges_survive_reduction() {
        // 0→4 with overlap 6 is NOT the implied 5: a genuine alternative.
        let mut g = graph_with(&[(0, 2, 8), (2, 4, 7), (0, 4, 6)], 6, 10);
        assert_eq!(g.transitive_reduction(), 0);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn reduction_of_a_clique_leaves_a_chain() {
        // Perfectly tiled reads: 0→2 (9), 2→4 (9), 4→6 (9), plus all
        // transitive: 0→4 (8), 2→6 (8), 0→6 (7).
        let mut g = graph_with(
            &[
                (0, 2, 9),
                (2, 4, 9),
                (4, 6, 9),
                (0, 4, 8),
                (2, 6, 8),
                (0, 6, 7),
            ],
            8,
            10,
        );
        let removed = g.transitive_reduction();
        assert!(removed >= 3, "removed {removed}");
        assert_eq!(g.out_edges(0), vec![(2, 9)]);
        assert_eq!(g.out_edges(2), vec![(4, 9)]);
        assert_eq!(g.out_edges(4), vec![(6, 9)]);
    }

    #[test]
    fn unambiguous_paths_stop_at_branches() {
        // 0→2→4, but 4 branches to 6 and 8.
        let g = graph_with(&[(0, 2, 8), (2, 4, 8), (4, 6, 8), (4, 8, 7)], 10, 10);
        let paths = g.unambiguous_paths();
        // The chain 0→2→4 is one path; 6 and 8 are their own (branch
        // targets with ambiguous provenance stay separate).
        let chain = paths
            .iter()
            .find(|p| p.steps.first().unwrap().vertex == 0)
            .expect("chain from 0");
        let verts: Vec<u32> = chain.steps.iter().map(|s| s.vertex).collect();
        assert_eq!(verts, vec![0, 2, 4]);
        // No path may traverse the ambiguous 4→6 or 4→8 edge.
        for p in &paths {
            for w in p.steps.windows(2) {
                assert!(
                    !(w[0].vertex == 4 && (w[1].vertex == 6 || w[1].vertex == 8)),
                    "branch edge must not be spelled"
                );
            }
        }
    }

    #[test]
    fn keep_best_per_pair_prunes_periodic_double_edges() {
        let mut g = graph_with(&[(0, 2, 8), (0, 2, 5)], 4, 10);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.keep_best_per_pair(), 1);
        assert_eq!(g.out_edges(0), vec![(2, 8)]);
    }

    #[test]
    fn duplicate_reads_are_contained_and_removed() {
        use genome::ReadSet;
        let reads = ReadSet::from_reads(
            6,
            ["ACGTAC", "ACGTAC", "GTACGG", "GTACCC"]
                .iter()
                .map(|s| s.parse().unwrap()),
        )
        .unwrap();
        let mut g = MultiGraph::new(reads.vertex_count(), 6);
        // Edges from both copies of the duplicate read.
        g.add_edge(0, 4, 4);
        g.add_edge(2, 4, 4); // vertex 2 = duplicate copy
        g.add_edge(4, 6, 3);
        let removed = g.remove_duplicates(&reads);
        assert_eq!(removed, 1);
        assert_eq!(g.out_edges(2), vec![]);
        assert_eq!(g.out_edges(0), vec![(4, 4)]);
    }

    #[test]
    fn duplicate_detection_is_strand_independent() {
        use genome::ReadSet;
        // Read 1 is the reverse complement of read 0.
        let reads = ReadSet::from_reads(6, ["ACGTAA", "TTACGT"].iter().map(|s| s.parse().unwrap()))
            .unwrap();
        let mut g = MultiGraph::new(reads.vertex_count(), 6);
        assert_eq!(g.remove_duplicates(&reads), 1);
    }

    #[test]
    fn empty_graph_yields_singleton_paths_for_nothing() {
        let g = MultiGraph::new(0, 10);
        assert!(g.unambiguous_paths().is_empty());
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use stdx::{check_cases, SplitMix64};

    /// Build a synthetic tiling graph from genomic offsets: vertex 2i sits
    /// at offset `positions[i]`; every pair within `l - l_min` distance
    /// overlaps consistently.
    fn tiling_graph(positions: &[u32], read_len: u32, l_min: u32) -> MultiGraph {
        let mut g = MultiGraph::new(2 * positions.len() as u32, read_len);
        for (i, &pi) in positions.iter().enumerate() {
            for (j, &pj) in positions.iter().enumerate() {
                if i == j {
                    continue;
                }
                if pj > pi && pj - pi < read_len {
                    let overlap = read_len - (pj - pi);
                    if overlap >= l_min {
                        g.add_edge(i as u32 * 2, j as u32 * 2, overlap);
                    }
                }
            }
        }
        g
    }

    /// `count` distinct sorted offsets below `max`, `count` uniform in `sizes`.
    fn offsets(rng: &mut SplitMix64, max: u64, sizes: std::ops::Range<u64>) -> Vec<u32> {
        let count = rng.range(sizes) as usize;
        let mut set = std::collections::BTreeSet::new();
        while set.len() < count {
            set.insert(rng.below(max) as u32);
        }
        set.into_iter().collect()
    }

    #[test]
    fn reduction_of_a_consistent_tiling_leaves_nearest_neighbor_chains() {
        check_cases(256, |rng| {
            let positions = offsets(rng, 200, 2..25);
            let read_len = 50u32;
            let mut g = tiling_graph(&positions, read_len, 10);
            g.transitive_reduction();
            // After reduction every vertex keeps exactly its nearest
            // overlapping successor (if one exists in range).
            for (i, &pi) in positions.iter().enumerate() {
                let nearest = positions
                    .iter()
                    .filter(|&&pj| pj > pi && pj - pi <= read_len - 10)
                    .min()
                    .copied();
                let out = g.out_edges(i as u32 * 2);
                match nearest {
                    Some(pj) => {
                        // The nearest edge must survive.
                        let expect_overlap = read_len - (pj - pi);
                        assert!(
                            out.iter().any(|&(_, o)| o == expect_overlap),
                            "vertex {i} at {pi}: nearest overlap {expect_overlap} missing from {out:?}"
                        );
                        // Any other survivor must be non-transitive: no
                        // 2-hop witness through the nearest neighbor. For a
                        // dense consistent tiling gaps can legitimately
                        // leave extra edges, so only check the witness rule.
                        for &(t, o) in &out {
                            if o == expect_overlap {
                                continue;
                            }
                            let via: Vec<u32> = g
                                .out_edges(i as u32 * 2)
                                .iter()
                                .filter(|&&(w, ow)| w != t && ow + o >= read_len)
                                .filter(|&&(w, ow)| {
                                    g.out_edges(w)
                                        .iter()
                                        .any(|&(x, ox)| x == t && ow + ox == read_len + o)
                                })
                                .map(|&(w, _)| w)
                                .collect();
                            assert!(
                                via.is_empty(),
                                "vertex {i}: surviving edge to {t} (overlap {o}) has witnesses {via:?}"
                            );
                        }
                    }
                    None => assert!(out.is_empty(), "vertex {i}: {out:?}"),
                }
            }
        });
    }

    #[test]
    fn reduction_is_idempotent() {
        check_cases(256, |rng| {
            let positions = offsets(rng, 150, 2..20);
            let mut g = tiling_graph(&positions, 40, 8);
            g.transitive_reduction();
            let after_first = g.edge_count();
            let removed_again = g.transitive_reduction();
            assert_eq!(removed_again, 0, "second pass must remove nothing");
            assert_eq!(g.edge_count(), after_first);
        });
    }
}
